// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: each list node's malloc is followed by a small buffer's, so the nodes are evenly spaced but never neighbours in the table: a chain batch must find every node at the stride and search it in the table, stepping over the buffer between two nodes
struct node { int id; double w; int *tag; struct node *next; };
int tags[4];
struct node *head;
int *pads[24];
int out;

int main() {
    int i, r, acc;
    struct node *p;
    for (i = 0; i < 4; i++) tags[i] = i * 7 + 1;
    for (i = 0; i < 24; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        pads[i] = (int *) malloc(3 * sizeof(int));
        pads[i][0] = i; pads[i][1] = -i; pads[i][2] = i * i;
        p->id = i;
        p->w = i * 0.5;
        p->tag = &tags[i % 4];
        p->next = head;
        head = p;
    }
    acc = 0;
    for (r = 0; r < 3; r++) {
        migrate_here();
        tags[r] = tags[r] + 100;
        for (p = head; p != NULL; p = p->next)
            acc = (acc * 31 + p->id + *p->tag + (int) p->w) % 1000003;
    }
    for (i = 0; i < 24; i++) acc = (acc + pads[i][2] - pads[i][1]) % 1000003;
    out = acc;
    printf("out=%d\n", out);
    return 0;
}
