// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: evenly spaced list whose non-tail pointer aims into blocks of two types, a global int array (one past its end in every third node) and a global struct array (at its int field, behind a double, so the two types number their cells differently): one pointer column resolves per target block and converts its ordinals per target type
struct pair { double a; int b; };
struct node { int id; int *ref; struct node *next; };
int arr[8];
struct pair pairs[4];
struct node *head;
int out;

int main() {
    int i, r, acc;
    struct node *p;
    for (i = 0; i < 8; i++) arr[i] = i * 3 + 1;
    for (i = 0; i < 4; i++) { pairs[i].a = 50.5 + i; pairs[i].b = 90 - i; }
    for (i = 0; i < 20; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->id = i;
        if (i % 3 == 0) p->ref = &arr[8];
        else if (i % 3 == 1) p->ref = &arr[i % 8 + 1];
        else p->ref = &pairs[i % 4].b;
        p->next = head;
        head = p;
    }
    acc = 0;
    for (r = 0; r < 3; r++) {
        migrate_here();
        arr[7] = arr[7] + r;
        pairs[r].b = pairs[r].b - 1;
        for (p = head; p != NULL; p = p->next) {
            if (p->id % 3 == 2) acc = (acc * 31 + p->id + *p->ref) % 1000003;
            else acc = (acc * 31 + p->id + *(p->ref - 1)) % 1000003;
        }
    }
    out = acc;
    printf("out=%d\n", out);
    return 0;
}
