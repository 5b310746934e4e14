// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: evenly spaced list whose non-tail pointer aims at a global in most nodes, at a local of main in one and at a local of the innermost frame in another: a REF to a stack block carries a b (13 bytes) where a chain row has room for the 9-byte form, so each batch must end at that row and the next one begin behind it
struct node { int v; int *mark; struct node *next; };
int gmark;
struct node *head;
int out;

int walk(int *outer, int rounds) {
    int inner;
    int i, k, acc;
    struct node *p;
    inner = 5;
    acc = *outer;
    k = 0;
    for (p = head; p != NULL; p = p->next) {
        if (k == 11) p->mark = &inner;
        k = k + 1;
    }
    for (i = 0; i < rounds; i++) {
        migrate_here();
        inner = inner + i;
        gmark = gmark + 1;
        for (p = head; p != NULL; p = p->next)
            acc = (acc * 31 + p->v + *p->mark) % 1000003;
    }
    return acc;
}

int main() {
    int smark;
    int i;
    struct node *n;
    gmark = 7;
    smark = 11;
    for (i = 0; i < 16; i++) {
        n = (struct node *) malloc(sizeof(struct node));
        n->v = i;
        n->mark = &gmark;
        if (i == 10) n->mark = &smark;
        n->next = head;
        head = n;
    }
    out = walk(&smark, 4);
    smark = smark + 1;
    printf("out=%d smark=%d gmark=%d\n", out, smark, gmark);
    return 0;
}
