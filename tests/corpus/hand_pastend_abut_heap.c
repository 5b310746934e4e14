// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: a one-past-end pointer to a heap block whose neighbour was allocated right after it but declared before it: while the two carves shared an edge the pointer migrated as (b, 0), and b, the first global, is restored below a -- len=-4 and a walk that runs off the block (ROADMAP item 1, repro A; the walk is capped so that a wrong end prints instead of hanging)
int *b;
int *a;
int *a_end;
int acc;

int main() {
    int i;
    int n;
    int *p;
    a = (int *) malloc(4 * sizeof(int));
    b = (int *) malloc(4 * sizeof(int));
    for (i = 0; i < 4; i++) { a[i] = i + 1; b[i] = 100 + i; }
    a_end = &a[4];
    migrate_here();
    n = 0;
    for (p = a; p != a_end && n < 16; p = p + 1) { acc = acc * 3 + *p; n = n + 1; }
    printf("len=%d walked=%d acc=%d b=%d\n", (int) (a_end - a), n, acc, b[0] + b[3]);
    return 0;
}
