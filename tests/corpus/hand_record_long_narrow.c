// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: long / unsigned long cells (8 bytes on the wire) in records crossing 64-bit <-> 32-bit hosts at the edges of the 32-bit range, signs included; the fused store must narrow exactly as Memory.store does
struct wide { long a; struct wide *next; unsigned long b; long c; };
struct wide *chain;
int out;

int main() {
    int i;
    long v;
    struct wide *w;
    chain = NULL;
    v = 2147483647;
    for (i = 0; i < 8; i++) {
        w = (struct wide *) malloc(sizeof(struct wide));
        w->a = v - i;
        w->b = (unsigned long) 4294967295 - (unsigned long) (i * 1000);
        w->c = -v - 1 + i;
        w->next = chain;
        chain = w;
        if (i % 3 == 1) migrate_here();
    }
    migrate_here();
    chain->c = chain->c + 1;
    migrate_here();
    out = 0;
    for (w = chain; w != NULL; w = w->next) {
        out = (out * 17 + (int) (w->a % 9973)) % 1000003;
        out = (out * 17 + (int) (w->b % 9973)) % 1000003;
        out = (out * 17 + (int) (-(w->c + 1) % 9973)) % 1000003;
    }
    printf("out=%d\n", out);
    return 0;
}
