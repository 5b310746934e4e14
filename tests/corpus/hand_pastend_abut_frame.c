// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: repro B as locals, in main and in a callee stopped under it (so a frame edge is in play too): a one-past-end pointer to a local int[3] used to name the double (x86) or long (ILP32) laid out after it, which sits 4 bytes further on where that neighbour is aligned to 8
int acc;

int walk(int *from, int *to) {
    int last[3];
    long pad;
    int *last_end;
    int *p;
    int n;
    n = 0;
    for (p = from; p != to && n < 3; p = p + 1) { last[n] = *p; n = n + 1; }
    pad = 1;
    last_end = &last[3];
    migrate_here();
    n = 0;
    for (p = last; p != last_end && n < 16; p = p + 1) { acc = acc * 3 + *p; n = n + 1; }
    return n + (int) (last_end - last) + (int) pad;
}

int main() {
    int x[3];
    double y;
    int *x_end;
    int i;
    int n;
    int w;
    int *p;
    for (i = 0; i < 3; i++) x[i] = i + 1;
    y = 2.5;
    x_end = &x[3];
    migrate_here();
    w = walk(x, x_end);
    n = 0;
    for (p = x; p != x_end && n < 16; p = p + 1) { acc = acc * 3 + *p; n = n + 1; }
    printf("len=%d walked=%d callee=%d acc=%d y=%.1f\n", (int) (x_end - x), n, w, acc, y);
    return 0;
}
