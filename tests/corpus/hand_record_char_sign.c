// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: plain char cells holding 128..255 inside pointer-bearing records; an unsigned-char host (alpha) must put the same signed wire byte out, and take it back in, as the per-cell path
struct tagged { char lo; struct tagged *next; unsigned char raw; char hi; };
struct tagged *chain;
int out;

int main() {
    int i;
    struct tagged *t;
    chain = NULL;
    for (i = 0; i < 9; i++) {
        t = (struct tagged *) malloc(sizeof(struct tagged));
        t->lo = (char) (120 + i * 3);      /* crosses 127 */
        t->raw = (unsigned char) (250 + i);  /* wraps past 255 */
        t->hi = (char) (255 - i);
        t->next = chain;
        chain = t;
        if (i % 3 == 2) migrate_here();
    }
    migrate_here();
    chain->lo = (char) (chain->lo + 100);
    migrate_here();
    out = 0;
    for (t = chain; t != NULL; t = t->next)
        out = (out * 31 + (t->lo & 255) * 7 + t->raw * 3 + (t->hi & 255)) % 1000003;
    printf("out=%d\n", out);
    return 0;
}
