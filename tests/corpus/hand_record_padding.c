// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: records with padding between cells and after the last one (char before double, short before pointer, trailing char), whose amount differs per host (x86 aligns double to 4); one host struct image per unit must skip it exactly
struct gappy { char c; double d; short s; struct gappy *peer; char t; };
struct gappy *ring;
struct gappy fixed[3];
int out;

int main() {
    int i;
    struct gappy *g;
    struct gappy *first;
    first = NULL;
    ring = NULL;
    for (i = 0; i < 7; i++) {
        g = (struct gappy *) malloc(sizeof(struct gappy));
        g->c = (char) (65 + i);
        g->d = i * 0.125 - 3.5;
        g->s = (short) (i * 4000 - 12000);
        g->t = (char) (97 + i);
        g->peer = ring;
        ring = g;
        if (first == NULL) first = g;
        if (i % 3 == 0) migrate_here();
    }
    first->peer = ring;   /* close the ring */
    for (i = 0; i < 3; i++) {
        fixed[i].c = (char) (48 + i);
        fixed[i].d = 1.0 / (i + 1);
        fixed[i].s = (short) (-i);
        fixed[i].t = (char) (35 + i);
        fixed[i].peer = &fixed[(i + 1) % 3];
    }
    migrate_here();
    fixed[1].d = fixed[1].d + 0.5;
    migrate_here();
    out = 0;
    g = ring;
    for (i = 0; i < 14; i++) {
        out = (out * 31 + g->c + g->t * 3 + g->s + (int) (g->d * 8.0) + 100000) % 1000003;
        g = g->peer;
    }
    g = &fixed[0];
    for (i = 0; i < 6; i++) {
        out = (out * 31 + g->c + g->t + g->s + (int) (g->d * 12.0)) % 1000003;
        g = g->peer;
    }
    printf("out=%d\n", out);
    return 0;
}
