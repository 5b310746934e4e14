"""Source texts of the evaluation workloads.

Each generator returns migration-safe C source parameterized on problem
size (sizes are compile-time constants because the paper's linpack keeps
its matrices in local arrays whose size is fixed at compile time).

Substitutions from the originals (documented in DESIGN.md §2):

- the paper's "pointer to array of 10 integers" (``int (*p)[10]``) uses a
  parenthesized declarator, which is outside our subset; the MSR-
  equivalent shape — a pointer to a 10-element heap block — is used
  instead (one block, count 10, same graph);
- linpack is condensed to matgen + dgefa + dgesl + residual check with
  the BLAS-1 kernels (daxpy, idamax, dscal) inlined as functions;
- the bitonic sort program is the binary-tree sort the paper describes
  ("a binary tree is used to store randomly generated integer numbers …
  sorted when the tree is traversed", with "extensive memory allocations
  and recursions").
"""

from __future__ import annotations

__all__ = [
    "test_pointer_source",
    "linpack_source",
    "bitonic_source",
    "matmul_source",
    "nbody_source",
    "hashtable_source",
    "structgrid_source",
]


def test_pointer_source() -> str:
    """The §4.1 synthetic pointer-structure program."""
    return r"""
/* test_pointer: every pointer shape the collection library must handle. */

struct tree {
    int value;
    struct tree *left;
    struct tree *right;
};

struct dag {
    int tag;
    struct dag *a;
    struct dag *b;
};

struct tree *troot;
struct dag *shared;
struct dag *droot;

struct tree *tree_insert(struct tree *t, int v) {
    if (t == NULL) {
        t = (struct tree *) malloc(sizeof(struct tree));
        t->value = v;
        t->left = NULL;
        t->right = NULL;
        return t;
    }
    if (v < t->value) t->left = tree_insert(t->left, v);
    else t->right = tree_insert(t->right, v);
    return t;
}

int tree_sum(struct tree *t) {
    if (t == NULL) return 0;
    return t->value + tree_sum(t->left) + tree_sum(t->right);
}

int dag_walk(struct dag *d, int depth) {
    if (d == NULL) return 0;
    if (depth > 8) return d->tag;
    return d->tag + dag_walk(d->a, depth + 1) + dag_walk(d->b, depth + 1);
}

int main() {
    int i;
    int checksum = 0;
    int *pi;                /* pointer to integer                      */
    int *parr;              /* pointer to an array of 10 integers     */
    int **pptrs;            /* pointer to 10 pointers to integers     */
    int stack_cell;

    /* build a search tree from pseudo-random values */
    srand(42);
    for (i = 0; i < 64; i++) {
        troot = tree_insert(troot, rand() % 1000);
        migrate_here();
    }

    /* simple pointer to int: into the heap and into the stack */
    pi = (int *) malloc(sizeof(int));
    *pi = 1234;
    stack_cell = 77;

    /* pointer to array of 10 ints (one heap block, count 10) */
    parr = (int *) malloc(10 * sizeof(int));
    for (i = 0; i < 10; i++) parr[i] = i * i;

    /* pointer to array of 10 pointers to ints */
    pptrs = (int **) malloc(10 * sizeof(int *));
    for (i = 0; i < 10; i++) {
        pptrs[i] = (int *) malloc(sizeof(int));
        *pptrs[i] = 100 + i;
    }
    pptrs[3] = pi;          /* aliasing: two paths reach the same block */
    pptrs[4] = &stack_cell; /* pointer into the stack segment           */
    pptrs[5] = &parr[7];    /* interior pointer into a sibling block    */

    /* tree-like structure with shared nodes (a DAG, tests dedup) */
    shared = (struct dag *) malloc(sizeof(struct dag));
    shared->tag = 5;
    shared->a = NULL;
    shared->b = NULL;
    droot = (struct dag *) malloc(sizeof(struct dag));
    droot->tag = 1;
    droot->a = shared;
    droot->b = (struct dag *) malloc(sizeof(struct dag));
    droot->b->tag = 2;
    droot->b->a = shared;   /* second reference to the same node */
    droot->b->b = droot;    /* a cycle, for good measure         */

    migrate_here();

    checksum = tree_sum(troot);
    checksum += *pi + stack_cell;
    for (i = 0; i < 10; i++) checksum += parr[i];
    for (i = 0; i < 10; i++) checksum += *pptrs[i];
    checksum += dag_walk(droot, 0);
    printf("checksum=%d shared=%d cyc=%d\n",
           checksum, droot->b->a->tag, droot->b->b->tag);
    return 0;
}
"""


def linpack_source(n: int = 100) -> str:
    """Linpack-style dense solve of Ax = b for an n×n system.

    Matrices are local arrays of ``main`` (paper §4.2: "memory spaces for
    matrices are allocated as local variables at the beginning of the
    main() function and are referenced by other functions throughout
    program lifetime"), so the MSR has a *small, constant* number of
    nodes regardless of problem size.
    """
    return (
        r"""
#define N %N%

/* BLAS-1 kernels */
void daxpy(int n, double da, double *dx, double *dy) {
    int i;
    if (n <= 0) return;
    if (da == 0.0) return;
    for (i = 0; i < n; i++) dy[i] = dy[i] + da * dx[i];
}

int idamax(int n, double *dx) {
    double dmax;
    int i, itemp;
    if (n < 1) return -1;
    itemp = 0;
    dmax = fabs(dx[0]);
    for (i = 1; i < n; i++) {
        if (fabs(dx[i]) > dmax) {
            itemp = i;
            dmax = fabs(dx[i]);
        }
    }
    return itemp;
}

void dscal(int n, double da, double *dx) {
    int i;
    for (i = 0; i < n; i++) dx[i] = da * dx[i];
}

/* pseudo-random matrix generation (the netlib matgen shape) */
void matgen(double *a, int lda, int n, double *b) {
    int init, i, j;
    init = 1325;
    for (j = 0; j < n; j++) {
        for (i = 0; i < n; i++) {
            init = 3125 * init % 65536;
            a[lda * j + i] = (init - 32768.0) / 16384.0;
        }
    }
    for (i = 0; i < n; i++) b[i] = 0.0;
    for (j = 0; j < n; j++) {
        for (i = 0; i < n; i++) b[i] = b[i] + a[lda * j + i];
    }
}

/* LU factorization with partial pivoting */
int dgefa(double *a, int lda, int n, int *ipvt) {
    double t;
    int info, j, k, kp1, l, nm1;

    info = 0;
    nm1 = n - 1;
    for (k = 0; k < nm1; k++) {
        migrate_here();
        kp1 = k + 1;
        l = idamax(n - k, &a[lda * k + k]) + k;
        ipvt[k] = l;
        if (a[lda * k + l] == 0.0) { info = k; continue; }
        if (l != k) {
            t = a[lda * k + l];
            a[lda * k + l] = a[lda * k + k];
            a[lda * k + k] = t;
        }
        t = -1.0 / a[lda * k + k];
        dscal(n - kp1, t, &a[lda * k + k + 1]);
        for (j = kp1; j < n; j++) {
            t = a[lda * j + l];
            if (l != k) {
                a[lda * j + l] = a[lda * j + k];
                a[lda * j + k] = t;
            }
            daxpy(n - kp1, t, &a[lda * k + k + 1], &a[lda * j + k + 1]);
        }
    }
    ipvt[n - 1] = n - 1;
    if (a[lda * (n - 1) + n - 1] == 0.0) info = n - 1;
    return info;
}

/* back substitution */
void dgesl(double *a, int lda, int n, int *ipvt, double *b) {
    double t;
    int k, kb, l, nm1;

    nm1 = n - 1;
    for (k = 0; k < nm1; k++) {
        l = ipvt[k];
        t = b[l];
        if (l != k) { b[l] = b[k]; b[k] = t; }
        daxpy(n - k - 1, t, &a[lda * k + k + 1], &b[k + 1]);
    }
    for (kb = 0; kb < n; kb++) {
        k = n - kb - 1;
        b[k] = b[k] / a[lda * k + k];
        t = -b[k];
        daxpy(k, t, &a[lda * k], b);
    }
}

int main() {
    double a[N * N];
    double b[N];
    double x[N];
    int ipvt[N];
    int i, info;
    double residual, xmax;

    matgen(a, N, N, b);
    for (i = 0; i < N; i++) x[i] = b[i];

    info = dgefa(a, N, N, ipvt);
    dgesl(a, N, N, ipvt, x);

    /* regenerate and compute residual max|Ax - b| */
    matgen(a, N, N, b);
    residual = 0.0;
    xmax = 0.0;
    for (i = 0; i < N; i++) {
        int j;
        double r = -b[i];
        for (j = 0; j < N; j++) r = r + a[N * j + i] * x[j];
        if (fabs(r) > residual) residual = fabs(r);
        if (fabs(x[i]) > xmax) xmax = fabs(x[i]);
    }
    printf("info=%d residual=%.6e xmax=%.6f ok=%d\n",
           info, residual, xmax, residual < 1.0e-5);
    return 0;
}
""".replace("%N%", str(n))
    )


def bitonic_source(n: int = 1000, seed: int = 7) -> str:
    """The tree-sort program ("bitonic sort" in the paper's §4.1):
    insert *n* random integers into a binary tree via ``malloc``, then
    verify the in-order traversal is sorted.  Extensive small
    allocations and recursion — many small MSR nodes."""
    return (
        r"""
#define N %N%

struct tnode {
    int key;
    struct tnode *left;
    struct tnode *right;
};

struct tnode *root;
int sorted_ok;
int last_key;
int visited;

struct tnode *insert(struct tnode *t, int key) {
    if (t == NULL) {
        t = (struct tnode *) malloc(sizeof(struct tnode));
        t->key = key;
        t->left = NULL;
        t->right = NULL;
        return t;
    }
    if (key < t->key) t->left = insert(t->left, key);
    else t->right = insert(t->right, key);
    return t;
}

void traverse(struct tnode *t) {
    if (t == NULL) return;
    traverse(t->left);
    if (t->key < last_key) sorted_ok = 0;
    last_key = t->key;
    visited = visited + 1;
    traverse(t->right);
}

int main() {
    int i;
    srand(%SEED%);
    for (i = 0; i < N; i++) {
        root = insert(root, rand());
        migrate_here();
    }
    sorted_ok = 1;
    last_key = -1;
    visited = 0;
    traverse(root);
    printf("n=%d visited=%d sorted=%d last=%d\n", N, visited, sorted_ok, last_key);
    return 0;
}
""".replace("%N%", str(n)).replace("%SEED%", str(seed))
    )


def matmul_source(n: int = 32) -> str:
    """Extra workload: dense matrix multiply with heap matrices (used by
    examples and extended tests — mixed heap/stack MSR shapes)."""
    return (
        r"""
#define N %N%

double *alloc_matrix() {
    return (double *) malloc(N * N * sizeof(double));
}

void fill(double *m, int mode) {
    int i, j;
    for (i = 0; i < N; i++) {
        for (j = 0; j < N; j++) {
            if (mode == 0) m[i * N + j] = (i == j) ? 2.0 : 0.0;
            else m[i * N + j] = i + j * 0.5;
        }
    }
}

void multiply(double *c, double *a, double *b) {
    int i, j, k;
    for (i = 0; i < N; i++) {
        migrate_here();
        for (j = 0; j < N; j++) {
            double s = 0.0;
            for (k = 0; k < N; k++) s += a[i * N + k] * b[k * N + j];
            c[i * N + j] = s;
        }
    }
}

int main() {
    double *a; double *b; double *c;
    double trace;
    int i;
    a = alloc_matrix(); b = alloc_matrix(); c = alloc_matrix();
    fill(a, 0);
    fill(b, 1);
    multiply(c, a, b);
    trace = 0.0;
    for (i = 0; i < N; i++) trace += c[i * N + i];
    printf("trace=%.3f\n", trace);
    return 0;
}
""".replace("%N%", str(n))
    )


def nbody_source(n: int = 16, steps: int = 10) -> str:
    """Extra workload: naive O(n²) n-body integrator with an array of
    structs (struct-heavy blocks, doubles + no pointers)."""
    return (
        r"""
#define N %N%
#define STEPS %STEPS%

struct body {
    double x; double y;
    double vx; double vy;
    double mass;
};

struct body bodies[N];

void init_bodies() {
    int i;
    srand(99);
    for (i = 0; i < N; i++) {
        bodies[i].x = (rand() % 1000) * 0.01;
        bodies[i].y = (rand() % 1000) * 0.01;
        bodies[i].vx = 0.0;
        bodies[i].vy = 0.0;
        bodies[i].mass = 1.0 + (rand() % 10) * 0.1;
    }
}

void step(double dt) {
    int i, j;
    for (i = 0; i < N; i++) {
        double ax = 0.0;
        double ay = 0.0;
        for (j = 0; j < N; j++) {
            double dx, dy, d2, inv;
            if (j == i) continue;
            dx = bodies[j].x - bodies[i].x;
            dy = bodies[j].y - bodies[i].y;
            d2 = dx * dx + dy * dy + 0.01;
            inv = bodies[j].mass / (d2 * sqrt(d2));
            ax += dx * inv;
            ay += dy * inv;
        }
        bodies[i].vx += ax * dt;
        bodies[i].vy += ay * dt;
    }
    for (i = 0; i < N; i++) {
        bodies[i].x += bodies[i].vx * dt;
        bodies[i].y += bodies[i].vy * dt;
    }
}

int main() {
    int s, i;
    double energy;
    init_bodies();
    for (s = 0; s < STEPS; s++) {
        migrate_here();
        step(0.01);
    }
    energy = 0.0;
    for (i = 0; i < N; i++) {
        energy += 0.5 * bodies[i].mass *
                  (bodies[i].vx * bodies[i].vx + bodies[i].vy * bodies[i].vy);
    }
    printf("kinetic=%.6f\n", energy);
    return 0;
}
""".replace("%N%", str(n)).replace("%STEPS%", str(steps))
    )


def hashtable_source(n_ops: int = 500, n_buckets: int = 32, seed: int = 11) -> str:
    """Extra workload: separate-chaining hash table under churn.

    The richest MSR shape in the suite: a global array of bucket head
    pointers fanning out into linked chains that grow and shrink
    (insert/delete churn exercises malloc/free + MSRLT unregistration),
    plus an embedded-struct accumulator copied by value.  Also uses
    ``enum`` for the operation mix.
    """
    return (
        r"""
#define NOPS %NOPS%
#define NBUCKETS %NBUCKETS%

enum op_kind { OP_INSERT, OP_LOOKUP, OP_DELETE };

struct entry {
    int key;
    int value;
    struct entry *next;
};

struct stats {
    int inserts;
    int hits;
    int misses;
    int deletes;
};

struct entry *buckets[NBUCKETS];
struct stats totals;

int bucket_of(int key) {
    int h = key % NBUCKETS;
    if (h < 0) h += NBUCKETS;
    return h;
}

void ht_insert(int key, int value) {
    int b = bucket_of(key);
    struct entry *e = (struct entry *) malloc(sizeof(struct entry));
    e->key = key;
    e->value = value;
    e->next = buckets[b];
    buckets[b] = e;
}

struct entry *ht_lookup(int key) {
    struct entry *p = buckets[bucket_of(key)];
    while (p != NULL) {
        if (p->key == key) return p;
        p = p->next;
    }
    return NULL;
}

int ht_delete(int key) {
    int b = bucket_of(key);
    struct entry *p = buckets[b];
    struct entry *prev = NULL;
    while (p != NULL) {
        if (p->key == key) {
            if (prev == NULL) buckets[b] = p->next;
            else prev->next = p->next;
            free(p);
            return 1;
        }
        prev = p;
        p = p->next;
    }
    return 0;
}

int main() {
    int i;
    struct stats snapshot;
    srand(%SEED%);
    totals.inserts = 0; totals.hits = 0; totals.misses = 0; totals.deletes = 0;
    for (i = 0; i < NOPS; i++) {
        int key = rand() % (NOPS / 2 + 1);
        int kind = rand() % 3;
        migrate_here();
        switch (kind) {
        case OP_INSERT:
            ht_insert(key, i);
            totals.inserts++;
            break;
        case OP_LOOKUP:
            if (ht_lookup(key) != NULL) totals.hits++;
            else totals.misses++;
            break;
        case OP_DELETE:
            totals.deletes += ht_delete(key);
            break;
        }
    }
    snapshot = totals;   /* struct assignment by value */
    {
        int live = 0;
        long checksum = 0;
        for (i = 0; i < NBUCKETS; i++) {
            struct entry *p = buckets[i];
            while (p != NULL) {
                live++;
                checksum = checksum * 31 + p->key + p->value;
                p = p->next;
            }
        }
        printf("ins=%d hit=%d miss=%d del=%d live=%d sum=%d\n",
               snapshot.inserts, snapshot.hits, snapshot.misses,
               snapshot.deletes, live, (int) checksum);
    }
    return 0;
}
""".replace("%NOPS%", str(n_ops))
        .replace("%NBUCKETS%", str(n_buckets))
        .replace("%SEED%", str(seed))
    )


def structgrid_source(n_cells: int = 256, n_probes: int = 64, seed: int = 7) -> str:
    """Extra workload: a struct grid probed through pointer nodes.

    Built for the codec benchmarks (E5/PR 3): one large global array of
    *mixed-kind, pointer-free* structs — too heterogeneous for the FLAT
    fast path, ideal for the compiled vectorized codec — plus a chain of
    pointer-bearing probe nodes, plus a global array of pointers whose
    targets all land inside the grid (the array is resolved against that
    one block and the chain batches with one table search per node, both
    in bulk, never through ``lookup_addr``).  The main loop is also the suite's
    pre-copy writer: each iteration allocates one node, rewrites
    ``chain`` and aims the next cell of ``hot``.
    """
    return (
        r"""
#define CELLS %CELLS%
#define PROBES %PROBES%

struct cell {
    double value;
    int row;
    int col;
    double weight;
};

struct probe {
    struct cell *target;
    int strength;
    struct probe *next;
};

struct cell grid[CELLS];
struct probe *chain;
struct cell *hot[PROBES];

void init_grid() {
    int i;
    for (i = 0; i < CELLS; i++) {
        grid[i].value = i * 0.5;
        grid[i].row = i / 16;
        grid[i].col = i % 16;
        grid[i].weight = 1.0 / (i + 1);
    }
}

int main() {
    int i, live;
    double acc;
    struct probe *p;
    init_grid();
    chain = NULL;
    srand(%SEED%);
    for (i = 0; i < PROBES; i++) {
        p = (struct probe *) malloc(sizeof(struct probe));
        p->target = &grid[rand() % CELLS];
        p->strength = rand() % 100;
        p->next = chain;
        chain = p;
        hot[i] = &grid[(i * 7) % CELLS];
        migrate_here();
    }
    acc = 0.0;
    live = 0;
    for (p = chain; p != NULL; p = p->next) {
        acc = acc + p->target->value * p->target->weight + p->strength;
        live = live + 1;
    }
    for (i = 0; i < PROBES; i++) {
        if (hot[i] != NULL) acc = acc + hot[i]->value;
    }
    printf("probes=%d acc=%.6f\n", live, acc);
    return 0;
}
""".replace("%CELLS%", str(n_cells))
        .replace("%PROBES%", str(n_probes))
        .replace("%SEED%", str(seed))
    )
