// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: records pointing at themselves through a non-tail cell, through the tail cell, and through both, plus a two-node cycle entered from the far side; a block is marked before its contents, so each of these is a REF to the block being written
struct loop { int id; struct loop *self; struct loop *next; };
struct loop *a;
struct loop *b;
struct loop *c;
struct loop *d;
int out;

int main() {
    int i;
    struct loop *p;
    a = (struct loop *) malloc(sizeof(struct loop));
    a->id = 1; a->self = a; a->next = NULL;          /* non-tail self */
    b = (struct loop *) malloc(sizeof(struct loop));
    b->id = 2; b->self = NULL; b->next = b;          /* tail self */
    migrate_here();
    c = (struct loop *) malloc(sizeof(struct loop));
    c->id = 3; c->self = c; c->next = c;             /* both */
    d = (struct loop *) malloc(sizeof(struct loop));
    d->id = 4; d->self = a; d->next = (struct loop *) malloc(sizeof(struct loop));
    d->next->id = 5; d->next->self = d->next; d->next->next = d;   /* 2-cycle */
    migrate_here();
    a->next = d->next;   /* a -> 5 -> d -> 5 ... : cycle reached from a root seen earlier */
    migrate_here();
    c->id = 6;
    migrate_here();
    b->self = c;
    migrate_here();
    out = 0;
    p = a;
    for (i = 0; i < 7; i++) { out = out * 10 + p->id + p->self->id; p = p->next; }
    out = out % 1000003;
    out = out * 10 + b->next->next->id;
    out = out * 10 + c->self->next->self->id;
    printf("out=%d\n", out);
    return 0;
}
