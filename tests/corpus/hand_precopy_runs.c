// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: what a pre-copy round that ships dirty unit runs can get wrong, one slice each (tests/test_precopy_runs.py reads the rounds): a pointer array deferred for holding &local, then written in one slot only (stale at the destination: ships whole); a heap block written, freed and its address handed to a new block (new: ships whole, the old write is not a run on it); the last cell of one global and the first of the next written back to back (one merged interval, two blocks); one byte written into a padded struct unit; every other cell of an int array (more runs than the whole form is worth); the last cell of one struct and the first of the next (an interval that ends inside a unit)
struct pad { char c; double d; short s; };
struct rec { int key; struct rec *peer; };

int left[6];
int right[6];
int *slots[8];
struct pad padded[6];
struct rec recs[9];
int sparse[16];
double *row;
int *reuse;
int out;

int main() {
    int local; int i;
    local = 41;
    row = (double *) malloc(12 * sizeof(double));
    for (i = 0; i < 12; i++) row[i] = i * 0.25;
    reuse = (int *) malloc(8 * sizeof(int));
    for (i = 0; i < 8; i++) reuse[i] = 10 + i;
    for (i = 0; i < 6; i++) { left[i] = i; right[i] = 100 + i; }
    for (i = 0; i < 8; i++) slots[i] = &left[i % 6];
    for (i = 0; i < 6; i++) {
        padded[i].c = (char) (65 + i); padded[i].d = i * 1.5; padded[i].s = (short) (-i);
    }
    for (i = 0; i < 9; i++) { recs[i].key = i * 11; recs[i].peer = &recs[(i + 1) % 9]; }
    for (i = 0; i < 16; i++) sparse[i] = i * i;
    migrate_here();

    slots[0] = &local;            /* the stack is unregistered in a round: slots defers */
    slots[5] = &right[2];
    left[5] = 1; right[0] = 2;    /* adjacent cells of two blocks: one merged interval */
    padded[3].c = (char) 120;     /* one byte of a 24-byte (x86: 16) unit */
    row[7] = 3.5;
    migrate_here();

    slots[0] = &left[1];          /* one slot of the deferred block */
    reuse[2] = 99;
    free(reuse);
    reuse = (int *) malloc(8 * sizeof(int));   /* the freed address, a new block */
    reuse[0] = 5;
    recs[2].key = 77;
    for (i = 0; i < 16; i += 2) sparse[i] = sparse[i] + 1;
    migrate_here();

    recs[4].peer = &recs[1];
    recs[0].peer = &recs[3]; recs[1].key = 55;   /* one interval ending inside unit 1 */
    row[0] = row[7] * 2.0;
    padded[5].s = (short) 9;
    local = local + 1;
    migrate_here();

    row[11] = 0.5;
    migrate_here();

    out = local + reuse[0];
    for (i = 0; i < 8; i++) out = (out * 31 + *slots[i]) % 1000003;
    for (i = 0; i < 6; i++) {
        out = (out * 31 + left[i] + right[i] * 3 + padded[i].c + padded[i].s
               + (int) (padded[i].d * 4.0) + 1000) % 1000003;
    }
    for (i = 0; i < 9; i++) out = (out * 31 + recs[i].key + recs[i].peer->key) % 1000003;
    for (i = 0; i < 16; i++) out = (out * 31 + sparse[i]) % 1000003;
    for (i = 0; i < 12; i++) out = (out * 31 + (int) (row[i] * 8.0)) % 1000003;
    printf("out=%d\n", out);
    return 0;
}
