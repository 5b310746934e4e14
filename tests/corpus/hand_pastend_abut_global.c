// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: one-past-end pointers to global arrays whose next neighbour used to start at that very address on some machines only: a double after int[3] under x86's 4-byte double alignment, a long after int[3] on the ILP32 machines. The pointer left those as (neighbour, 0) and arrived 4 bytes late where the neighbour is aligned to 8 -- len=4 (ROADMAP item 1, repro B; the walks are capped so that a wrong end prints instead of hanging)
int x[3];
double y;
int *x_end;
int z[3];
long w;
int *z_end;
int acc;

int main() {
    int i;
    int n;
    int *p;
    for (i = 0; i < 3; i++) { x[i] = i + 1; z[i] = 10 * (i + 1); }
    y = 2.5;
    w = 7;
    x_end = &x[3];
    z_end = &z[3];
    migrate_here();
    n = 0;
    for (p = x; p != x_end && n < 16; p = p + 1) { acc = acc * 3 + *p; n = n + 1; }
    for (p = z; p != z_end && n < 32; p = p + 1) { acc = acc * 3 + *p; n = n + 1; }
    printf("len=%d/%d walked=%d acc=%d y=%.1f w=%d\n",
           (int) (x_end - x), (int) (z_end - z), n, acc, y, (int) w);
    return 0;
}
