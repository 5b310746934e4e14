// difftest corpus entry
// seed: 0
// features:
// size: 1
// origin: hand-written
// note: blocks of several pointer-bearing units (a global struct array, a malloc'd run of structs) linked element to element, with interior, one-past-end and second-cell pointers into them; the record walk must step units and resolve ordinals like the per-cell loop
struct slot { int key; struct slot *peer; int weight; };
struct slot table[5];
struct slot *heap_run;
struct slot *mid;
struct slot *end;
int *inner;
struct slot **link;
int out;

int main() {
    int i;
    struct slot *s;
    int *ip;
    heap_run = (struct slot *) malloc(4 * sizeof(struct slot));
    for (i = 0; i < 5; i++) {
        table[i].key = i * 11;
        table[i].weight = 100 - i;
        table[i].peer = &heap_run[i % 4];
    }
    migrate_here();
    for (i = 0; i < 4; i++) {
        heap_run[i].key = 1000 + i;
        heap_run[i].weight = i * i;
        heap_run[i].peer = &table[4 - i];
    }
    mid = &heap_run[2];            /* interior: start of a later unit */
    end = &heap_run[4];            /* one past the end */
    inner = &heap_run[1].weight;   /* a cell after the pointer */
    link = &table[3].peer;         /* the pointer cell itself */
    migrate_here();
    *inner = *inner + 7;
    *link = mid;
    migrate_here();
    table[0].peer = end - 1;
    migrate_here();
    heap_run[3].weight = 77;
    migrate_here();
    out = 0;
    for (s = heap_run; s != end; s = s + 1)
        out = (out * 31 + s->key + s->weight + s->peer->key) % 1000003;
    for (i = 0; i < 5; i++)
        out = (out * 31 + table[i].key + table[i].peer->weight) % 1000003;
    ip = inner;
    out = (out * 31 + *ip + mid->key + (int) (end - mid)) % 1000003;
    printf("out=%d\n", out);
    return 0;
}
