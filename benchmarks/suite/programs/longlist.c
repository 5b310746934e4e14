/* longlist: a deep, irregular singly linked chain (benchmark-owned).
 *
 * N list records, each owning a heap string of 1..13 characters.  The
 * string is allocated between two nodes, so node-to-node strides are
 * irregular by construction -- and stay irregular in a restored heap,
 * because the string still hangs off the node.  Collection depth equals
 * the list length (one pointer hop per record).
 *
 * The lengths are a seeded shuffle of the fixed multiset
 * {1 + i % 13 : i < N}: every seed gives a different layout but exactly
 * the same number of blocks and bytes, so wire_bytes repeats across seeds.
 * %N% and %SEED% are substituted by the harness.
 */

#define N %N%

struct rec {
    int id;
    char *name;
    struct rec *next;
};

struct rec *head;

int main() {
    int lens[N];
    int i, j, k, len, acc;
    struct rec *r;
    char *s;

    srand(%SEED%);
    for (i = 0; i < N; i++) lens[i] = 1 + i % 13;
    for (i = N - 1; i > 0; i--) {
        j = rand() % (i + 1);
        k = lens[i];
        lens[i] = lens[j];
        lens[j] = k;
    }

    head = NULL;
    for (i = 0; i < N; i++) {
        len = lens[i];
        s = (char *) malloc(len + 1);
        for (j = 0; j < len; j++) s[j] = (char) (97 + rand() % 26);
        s[len] = (char) 0;
        r = (struct rec *) malloc(sizeof(struct rec));
        r->id = i;
        r->name = s;
        r->next = head;
        head = r;
    }

    migrate_here();

    acc = 0;
    len = 0;
    for (r = head; r != NULL; r = r->next) {
        acc = (acc * 31 + r->id) % 1000003;
        for (j = 0; r->name[j] != 0; j++) acc = (acc * 17 + r->name[j]) % 1000003;
        len = len + 1;
    }
    printf("records=%d acc=%d\n", len, acc);
    return 0;
}
