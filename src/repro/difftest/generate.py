"""Seeded mini-C program generator for differential migration testing.

Programs are assembled from *features* — independent, parameterized code
templates, each exercising one of the collection library's hard cases:

========== ==============================================================
feature    exercises
========== ==============================================================
list       recursive struct (singly linked list), malloc-heavy build
tree       binary tree, recursion on build and traversal
cycle      cyclic pointer graph: ring closure, shared (DAG) peers, a
           self-pointer
interior   interior pointers (&arr[i]), a pointer array mixing heap,
           global-interior, and stack targets
pastend    one-past-end pointers kept live across realloc shrink/grow
strings    char buffers and string-literal pointers, char arithmetic
mixed      array of mixed int/float/double/char/short structs (the
           compiled-codec shapes)
deep       deep call chain with locals (incl. a struct local) live at
           poll points on the unwind
churn      malloc/free churn with address reuse and a realloc
stackref   self/cross-referential struct locals on main's stack
layout     one-past-end pointers to blocks whose next neighbour — heap,
           global and stack — would share that address if blocks could
           abut; allocation order differs from declaration order and the
           heap neighbour is freed or realloc'ed between polls
========== ==============================================================

Generation is *compositional*: every feature draws from its own RNG
stream (``random.Random(f"{seed}:{name}")``), so removing one feature
from the set leaves every other feature's emitted code byte-identical.
That property is what makes :mod:`repro.difftest.shrink`'s
feature-subset minimization sound.

All emitted programs stay inside the accepted mini-C subset and inside
*portable* semantics: ``char`` values stay in 0..127 (ALPHA's ``char``
is unsigned), ``long`` arithmetic stays far from 32-bit wrap (ILP32 vs
LP64), and every division uses a provably nonzero denominator — so an
un-migrated run computes bit-identical output on every architecture in
:data:`repro.arch.machine.MACHINES`, which is precisely what lets the
harness use "never moved" as the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

__all__ = ["FEATURE_NAMES", "GenConfig", "GeneratedProgram", "generate"]

#: canonical feature order (emission order is fixed regardless of the
#: order features were selected in — determinism again)
FEATURE_NAMES = (
    "list",
    "tree",
    "cycle",
    "interior",
    "pastend",
    "strings",
    "mixed",
    "deep",
    "churn",
    "stackref",
    "layout",
)

#: features drawn per program when the config does not pin a set
DEFAULT_MIN_FEATURES = 3
DEFAULT_MAX_FEATURES = 5


@dataclass(frozen=True)
class GenConfig:
    """Shape of one generated program.

    ``features`` is the enabled subset (canonical order enforced at
    generation time); ``size`` scales loop counts and structure sizes
    (1 = corpus/smoke scale, 2-3 = heavier fuzzing).
    """

    features: tuple[str, ...] = ()
    size: int = 1

    def __post_init__(self) -> None:
        for f in self.features:
            if f not in FEATURE_NAMES:
                raise ValueError(f"unknown feature {f!r}")
        if self.size < 1:
            raise ValueError("size must be >= 1")

    def without(self, feature: str) -> "GenConfig":
        """A copy with *feature* removed (shrinking)."""
        return replace(
            self, features=tuple(f for f in self.features if f != feature)
        )


@dataclass(frozen=True)
class GeneratedProgram:
    """One generated source plus the identity that reproduces it."""

    seed: int
    config: GenConfig
    source: str

    @property
    def name(self) -> str:
        return f"gen{self.seed:05d}_" + "-".join(self.config.features)


@dataclass
class _Fragment:
    """What one feature contributes to the assembled program."""

    structs: list = field(default_factory=list)
    globals_: list = field(default_factory=list)
    funcs: list = field(default_factory=list)
    main_locals: list = field(default_factory=list)
    build: list = field(default_factory=list)
    check: list = field(default_factory=list)
    #: (printf format fragment, argument expression) pairs
    prints: list = field(default_factory=list)


def _rng_for(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


# ---------------------------------------------------------------------------
# feature emitters — each returns a _Fragment.  Identifier prefixes are
# unique per feature, so any subset composes without collisions.
# ---------------------------------------------------------------------------

#: portable scalar field shapes features draw struct members from:
#: (C type, field-name stem, "rand expression producing a portable value")
_FIELD_KINDS = [
    ("int", "iv", "rand() % 1000"),
    ("double", "dv", "(rand() % 2000) * 0.125"),
    ("float", "fv", "(float) ((rand() % 500) * 0.25)"),
    ("char", "cv", "(char) (32 + rand() % 90)"),
    ("short", "sv", "(short) (rand() % 300)"),
]


def _mixed_fields(rng: random.Random, n_extra: int) -> list[tuple[str, str, str]]:
    """Pick *n_extra* scalar fields (type, name, init-expr), names
    uniquified with an ordinal."""
    picks = [rng.choice(_FIELD_KINDS) for _ in range(n_extra)]
    return [
        (ctype, f"{stem}{i}", expr) for i, (ctype, stem, expr) in enumerate(picks)
    ]


def _acc_fields(
    fields: list[tuple[str, str, str]], obj: str, iacc: str, facc: str
) -> str:
    """Accumulation statements folding *obj*'s fields into the feature's
    accumulators (integer kinds into *iacc*, floating kinds into *facc*)."""
    parts = []
    for ctype, name, _ in fields:
        if ctype in ("int", "char", "short"):
            parts.append(f"{iacc} = ({iacc} * 31 + {obj}{name}) % 1000003;")
        else:
            parts.append(f"{facc} = {facc} + {obj}{name};")
    return " ".join(parts)


def _emit_list(rng: random.Random, size: int) -> _Fragment:
    n = (3 + rng.randrange(4)) * size
    fields = _mixed_fields(rng, rng.randrange(1, 3))
    field_decls = " ".join(f"{t} {name};" for t, name, _ in fields)
    field_inits = " ".join(f"e->{name} = {expr};" for _, name, expr in fields)
    acc = _acc_fields(fields, "p->", "ll_acc", "ll_facc")
    free_tail = ""
    if rng.random() < 0.5:
        # free the first node after building: churn inside a recursive
        # structure (the block vanishes from the MSRLT mid-history)
        free_tail = (
            "{ struct ll_node *dead = ll_head; ll_head = ll_head->next; "
            "free(dead); }\n    "
        )
    f = _Fragment()
    f.structs.append(
        f"struct ll_node {{ int key; {field_decls} struct ll_node *next; }};"
    )
    f.globals_ += ["struct ll_node *ll_head;", "int ll_acc;", "double ll_facc;"]
    f.funcs.append(f"""
void ll_build(int n) {{
    int i;
    for (i = 0; i < n; i++) {{
        struct ll_node *e = (struct ll_node *) malloc(sizeof(struct ll_node));
        e->key = rand() % 1000;
        {field_inits}
        e->next = ll_head;
        ll_head = e;
        migrate_here();
    }}
}}""")
    f.build.append(f"ll_build({n});\n    {free_tail}")
    f.check.append(f"""{{ struct ll_node *p;
      for (p = ll_head; p != NULL; p = p->next) {{
          ll_acc = (ll_acc * 31 + p->key) % 1000003;
          {acc}
      }} }}""")
    f.prints.append(("ll=%d/%.4f", "ll_acc, ll_facc"))
    return f


def _emit_tree(rng: random.Random, size: int) -> _Fragment:
    n = (5 + rng.randrange(5)) * size
    stride = rng.choice((1, 2))
    f = _Fragment()
    f.structs.append(
        "struct tr_node { int key; struct tr_node *l; struct tr_node *r; };"
    )
    f.globals_ += ["struct tr_node *tr_root;", "int tr_acc;"]
    f.funcs.append("""
struct tr_node *tr_insert(struct tr_node *t, int k) {
    if (t == NULL) {
        t = (struct tr_node *) malloc(sizeof(struct tr_node));
        t->key = k; t->l = NULL; t->r = NULL;
        return t;
    }
    if (k < t->key) t->l = tr_insert(t->l, k);
    else t->r = tr_insert(t->r, k);
    return t;
}
int tr_sum(struct tr_node *t) {
    if (t == NULL) return 0;
    return (t->key + 2 * tr_sum(t->l) + 3 * tr_sum(t->r)) % 1000003;
}""")
    f.build.append(f"""{{ int tr_i;
      for (tr_i = 0; tr_i < {n}; tr_i++) {{
          tr_root = tr_insert(tr_root, rand() % 500);
          if (tr_i % {stride} == 0) migrate_here();
      }} }}""")
    f.check.append("tr_acc = tr_sum(tr_root);")
    f.prints.append(("tr=%d", "tr_acc"))
    return f


def _emit_cycle(rng: random.Random, size: int) -> _Fragment:
    k = 3 + rng.randrange(3) * size
    f = _Fragment()
    f.structs.append(
        "struct cy_node { int tag; struct cy_node *next; struct cy_node *peer; };"
    )
    f.globals_ += ["struct cy_node *cy_ring;", "int cy_acc;"]
    f.build.append(f"""{{ struct cy_node *cy_first; struct cy_node *cy_prev; int cy_i;
      cy_first = (struct cy_node *) malloc(sizeof(struct cy_node));
      cy_first->tag = rand() % 100; cy_first->next = NULL;
      cy_first->peer = cy_first;            /* self-pointer */
      cy_prev = cy_first;
      for (cy_i = 1; cy_i < {k}; cy_i++) {{
          struct cy_node *e = (struct cy_node *) malloc(sizeof(struct cy_node));
          e->tag = rand() % 100;
          e->next = NULL;
          e->peer = (cy_i % 2 == 0) ? cy_first : cy_prev;   /* shared/DAG edges */
          cy_prev->next = e;
          cy_prev = e;
          migrate_here();
      }}
      cy_prev->next = cy_first;             /* close the cycle */
      cy_ring = cy_first; }}""")
    f.check.append(f"""{{ struct cy_node *w = cy_ring; int cy_i;
      for (cy_i = 0; cy_i < 2 * {k}; cy_i++) {{
          cy_acc = (cy_acc * 7 + w->tag + w->peer->tag) % 1000003;
          w = w->next;
      }}
      if (w == cy_ring) cy_acc = cy_acc + 1000000; }}""")
    f.prints.append(("cy=%d", "cy_acc"))
    return f


def _emit_interior(rng: random.Random, size: int) -> _Fragment:
    n = 8 * size
    m = 4 + rng.randrange(3)
    f = _Fragment()
    f.globals_ += [
        f"int pt_arr[{n}];",
        f"int *pt_ptrs[{m}];",
        "int pt_acc;",
    ]
    f.main_locals.append("int pt_stack;")
    choices = []
    for i in range(m):
        c = rng.randrange(3)
        if c == 0:
            choices.append(f"pt_ptrs[{i}] = &pt_arr[rand() % {n}];")
        elif c == 1:
            choices.append(
                f"pt_ptrs[{i}] = (int *) malloc(sizeof(int)); "
                f"*pt_ptrs[{i}] = 400 + {i};"
            )
        else:
            choices.append(f"pt_ptrs[{i}] = &pt_stack;")
    assigns = "\n          ".join(choices)
    f.build.append(f"""{{ int pt_i;
      pt_stack = rand() % 900;
      for (pt_i = 0; pt_i < {n}; pt_i++) pt_arr[pt_i] = pt_i * 3 + rand() % 10;
      migrate_here();
      {assigns}
      migrate_here(); }}""")
    f.check.append(f"""{{ int pt_i;
      for (pt_i = 0; pt_i < {m}; pt_i++)
          pt_acc = (pt_acc * 13 + *pt_ptrs[pt_i]) % 1000003;
      pt_acc = (pt_acc + pt_stack) % 1000003; }}""")
    f.prints.append(("pt=%d", "pt_acc"))
    return f


def _emit_pastend(rng: random.Random, size: int) -> _Fragment:
    n0 = 4 + rng.randrange(4)
    shrink = max(2, n0 // 2)
    grow = n0 + 4 + rng.randrange(4) * size
    f = _Fragment()
    f.globals_ += ["int *pe_blk;", "int *pe_end;", "int pe_acc;"]
    f.build.append(f"""{{ int pe_i;
      pe_blk = (int *) malloc({n0} * sizeof(int));
      for (pe_i = 0; pe_i < {n0}; pe_i++) pe_blk[pe_i] = 10 + pe_i;
      pe_end = &pe_blk[{n0}];                   /* one-past-end */
      migrate_here();
      pe_blk = (int *) realloc(pe_blk, {shrink} * sizeof(int));
      pe_end = &pe_blk[{shrink}];
      migrate_here();
      pe_blk = (int *) realloc(pe_blk, {grow} * sizeof(int));
      for (pe_i = {shrink}; pe_i < {grow}; pe_i++) pe_blk[pe_i] = 100 + pe_i;
      pe_end = &pe_blk[{grow}];
      migrate_here(); }}""")
    f.check.append("""{ int *p;
      for (p = pe_blk; p != pe_end; p = p + 1)
          pe_acc = (pe_acc * 3 + *p) % 1000003;
      pe_acc = (pe_acc + (int) (pe_end - pe_blk)) % 1000003; }""")
    f.prints.append(("pe=%d", "pe_acc"))
    return f


def _emit_strings(rng: random.Random, size: int) -> _Fragment:
    n = 8 * size + rng.randrange(8)
    lit = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
    f = _Fragment()
    f.globals_ += [
        f"char st_buf[{n}];",
        f"char st_rev[{n}];",
        "char *st_msg;",
        "int st_acc;",
    ]
    f.build.append(f"""{{ int st_i;
      st_msg = "{lit}";
      for (st_i = 0; st_i < {n}; st_i++) {{
          st_buf[st_i] = (char) (32 + rand() % 90);
          migrate_here();
      }}
      for (st_i = 0; st_i < {n}; st_i++) st_rev[st_i] = st_buf[{n} - 1 - st_i]; }}""")
    f.check.append(f"""{{ int st_i;
      for (st_i = 0; st_i < {n}; st_i++)
          st_acc = (st_acc * 17 + st_buf[st_i] + 2 * st_rev[st_i]) % 1000003;
      for (st_i = 0; st_i < 6; st_i++)
          st_acc = (st_acc + st_msg[st_i]) % 1000003; }}""")
    f.prints.append(("st=%d", "st_acc"))
    return f


def _emit_mixed(rng: random.Random, size: int) -> _Fragment:
    n = 12 * size + rng.randrange(8)
    fields = _mixed_fields(rng, rng.randrange(2, 5))
    field_decls = " ".join(f"{t} {name};" for t, name, _ in fields)
    fills = " ".join(f"mx_grid[mx_i].{name} = {expr};" for _, name, expr in fields)
    acc = _acc_fields(fields, "mx_grid[mx_i].", "mx_acc", "mx_facc")
    stride = max(1, n // 4)
    f = _Fragment()
    f.structs.append(f"struct mx_cell {{ {field_decls} }};")
    f.globals_ += [
        f"struct mx_cell mx_grid[{n}];",
        "int mx_acc;",
        "double mx_facc;",
    ]
    f.build.append(f"""{{ int mx_i;
      for (mx_i = 0; mx_i < {n}; mx_i++) {{
          {fills}
          if (mx_i % {stride} == 0) migrate_here();
      }} }}""")
    f.check.append(f"""{{ int mx_i;
      for (mx_i = 0; mx_i < {n}; mx_i++) {{ {acc} }} }}""")
    f.prints.append(("mx=%d/%.4f", "mx_acc, mx_facc"))
    return f


def _emit_deep(rng: random.Random, size: int) -> _Fragment:
    depth = 3 + rng.randrange(3) * size
    f = _Fragment()
    f.structs.append("struct dp_pair { int x; int y; };")
    f.globals_ += ["int dp_acc;"]
    f.funcs.append(f"""
int dp_work(int depth, int carry) {{
    int local_a = (carry * 2 + depth) % 10007;
    double local_b = depth * 0.5 + carry * 0.25;
    struct dp_pair pair;
    pair.x = local_a;
    pair.y = depth * 3;
    if (depth > 0) {{
        int below = dp_work(depth - 1, (local_a + rand() % 50) % 997);
        migrate_here();
        return (below + local_a + pair.x + pair.y + (int) local_b) % 1000003;
    }}
    migrate_here();
    return (local_a + pair.y + (int) (local_b * 2.0)) % 1000003;
}}""")
    f.build.append(f"dp_acc = dp_work({depth}, rand() % 100);")
    f.prints.append(("dp=%d", "dp_acc"))
    return f


def _emit_churn(rng: random.Random, size: int) -> _Fragment:
    k = 6 + rng.randrange(4) * size
    f = _Fragment()
    f.globals_ += [f"int *ch_slots[{k}];", "int ch_acc;"]
    f.build.append(f"""{{ int ch_i;
      for (ch_i = 0; ch_i < {k}; ch_i++) {{
          ch_slots[ch_i] = (int *) malloc(sizeof(int));
          *ch_slots[ch_i] = 70 + ch_i;
      }}
      migrate_here();
      for (ch_i = 1; ch_i < {k}; ch_i = ch_i + 2) {{
          free(ch_slots[ch_i]);              /* punch holes: address reuse */
          ch_slots[ch_i] = NULL;
      }}
      migrate_here();
      ch_slots[0] = (int *) realloc(ch_slots[0], 3 * sizeof(int));
      ch_slots[0][1] = 7; ch_slots[0][2] = 9;
      for (ch_i = 1; ch_i < {k}; ch_i = ch_i + 2) {{
          ch_slots[ch_i] = (int *) malloc(sizeof(int));   /* may reuse a freed addr */
          *ch_slots[ch_i] = rand() % 800;
          migrate_here();
      }} }}""")
    f.check.append(f"""{{ int ch_i;
      for (ch_i = 0; ch_i < {k}; ch_i++)
          if (ch_slots[ch_i] != NULL)
              ch_acc = (ch_acc * 11 + *ch_slots[ch_i]) % 1000003;
      ch_acc = (ch_acc + ch_slots[0][1] + ch_slots[0][2]) % 1000003; }}""")
    f.prints.append(("ch=%d", "ch_acc"))
    return f


def _emit_stackref(rng: random.Random, size: int) -> _Fragment:
    rounds = 3 + rng.randrange(3) * size
    f = _Fragment()
    f.structs.append(
        "struct sr_cell { int v; struct sr_cell *me; struct sr_cell *other; };"
    )
    f.globals_ += ["int sr_acc;"]
    f.main_locals += ["struct sr_cell sr_a;", "struct sr_cell sr_b;"]
    f.build.append(f"""{{ int sr_i;
      sr_a.v = rand() % 100; sr_a.me = &sr_a; sr_a.other = &sr_b;
      sr_b.v = rand() % 100; sr_b.me = &sr_b; sr_b.other = &sr_a;
      for (sr_i = 0; sr_i < {rounds}; sr_i++) {{
          sr_a.v = (sr_a.me->v + sr_b.other->v) % 10007;
          sr_b.v = (sr_b.me->v + sr_a.other->v + 1) % 10007;
          migrate_here();
      }} }}""")
    f.check.append(
        "sr_acc = (sr_a.v * 31 + sr_b.v + sr_a.me->v + sr_b.other->v) % 1000003;"
    )
    f.prints.append(("sr=%d", "sr_acc"))
    return f


def _emit_layout(rng: random.Random, size: int) -> _Fragment:
    # n ints fill whole 8-byte granules, k ints end half-way into one:
    # the sizes at which a neighbour can start exactly at the end
    n = 2 * (1 + rng.randrange(3)) * size
    k = rng.choice((1, 3, 5))
    grown = n + 2 * (1 + rng.randrange(3))
    after_global, after_local = rng.sample(("double", "long"), 2)
    # allocated lo, mid, hi — declared in any order but that one, so a
    # restorer working in declaration order lays the heap out differently
    order = rng.choice((
        ("lo", "hi", "mid"), ("mid", "lo", "hi"), ("mid", "hi", "lo"),
        ("hi", "lo", "mid"), ("hi", "mid", "lo"),
    ))
    if rng.random() < 0.5:
        fate = f"""free(ly_mid);                          /* the neighbour goes */
      ly_mid = NULL; ly_mid_end = NULL;
      migrate_here();
      ly_mid = (int *) malloc({grown} * sizeof(int));"""
    else:
        fate = f"ly_mid = (int *) realloc(ly_mid, {grown} * sizeof(int));   /* the neighbour moves */"
    f = _Fragment()
    f.globals_ += [f"int *ly_{name};" for name in order]
    f.globals_ += [
        "int *ly_new;", "int *ly_lo_end;", "int *ly_mid_end;",
        f"int ly_g[{k}];", f"{after_global} ly_gn;", "int *ly_g_end;",
        "int ly_acc;",
    ]
    f.main_locals += [f"int ly_s[{k}];", f"{after_local} ly_sn;", "int *ly_s_end;"]
    f.build.append(f"""{{ int ly_i;
      ly_lo = (int *) malloc({n} * sizeof(int));
      ly_mid = (int *) malloc({n} * sizeof(int));
      ly_hi = (int *) malloc({n} * sizeof(int));
      for (ly_i = 0; ly_i < {n}; ly_i++) {{
          ly_lo[ly_i] = 20 + ly_i; ly_mid[ly_i] = 40 + ly_i; ly_hi[ly_i] = 60 + ly_i;
      }}
      for (ly_i = 0; ly_i < {k}; ly_i++) {{ ly_g[ly_i] = rand() % 90; ly_s[ly_i] = rand() % 90; }}
      ly_gn = 3; ly_sn = 5;
      ly_lo_end = &ly_lo[{n}]; ly_mid_end = &ly_mid[{n}];
      ly_g_end = &ly_g[{k}]; ly_s_end = &ly_s[{k}];
      migrate_here();
      {fate}
      for (ly_i = 0; ly_i < {grown}; ly_i++) ly_mid[ly_i] = 80 + ly_i;
      ly_mid_end = &ly_mid[{grown}];
      migrate_here();
      ly_new = (int *) malloc({n} * sizeof(int));     /* may take the hole */
      for (ly_i = 0; ly_i < {n}; ly_i++) ly_new[ly_i] = rand() % 700;
      migrate_here(); }}""")
    # every walk is capped: a wrong end must print, not run off the segment
    walks = "\n      ".join(
        f"for (p = {a}; p != {a}_end && ly_n < {cap}; p = p + 1) "
        f"{{ ly_acc = (ly_acc * 5 + *p) % 1000003; ly_n = ly_n + 1; }}"
        for a, cap in (("ly_lo", 100), ("ly_mid", 200), ("ly_g", 300), ("ly_s", 400))
    )
    f.check.append(f"""{{ int *p; int ly_n; ly_n = 0;
      {walks}
      for (p = ly_hi; p != ly_hi + {n}; p = p + 1) ly_acc = (ly_acc * 5 + *p + ly_new[0]) % 1000003;
      ly_acc = (ly_acc + ly_n + (int) (ly_lo_end - ly_lo) + (int) (ly_mid_end - ly_mid)
                + (int) (ly_g_end - ly_g) + (int) (ly_s_end - ly_s) + (int) ly_gn + (int) ly_sn) % 1000003; }}""")
    f.prints.append(("ly=%d", "ly_acc"))
    return f


_EMITTERS = {
    "list": _emit_list,
    "tree": _emit_tree,
    "cycle": _emit_cycle,
    "interior": _emit_interior,
    "pastend": _emit_pastend,
    "strings": _emit_strings,
    "mixed": _emit_mixed,
    "deep": _emit_deep,
    "churn": _emit_churn,
    "stackref": _emit_stackref,
    "layout": _emit_layout,
}
assert set(_EMITTERS) == set(FEATURE_NAMES)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _pick_features(seed: int) -> tuple[str, ...]:
    rng = _rng_for(seed, "features")
    n = rng.randint(DEFAULT_MIN_FEATURES, DEFAULT_MAX_FEATURES)
    picked = rng.sample(FEATURE_NAMES, n)
    return tuple(f for f in FEATURE_NAMES if f in picked)


def generate(seed: int, config: GenConfig | None = None) -> GeneratedProgram:
    """Generate one program.  Same (seed, config) → same source, always.

    Without a *config*, the seed also picks the feature subset; a config
    with an explicit ``features`` tuple pins it (the shrinker's handle).
    """
    if config is None or not config.features:
        base = config or GenConfig()
        config = GenConfig(features=_pick_features(seed), size=base.size)
    else:
        # canonical order regardless of how the caller listed them
        config = GenConfig(
            features=tuple(f for f in FEATURE_NAMES if f in config.features),
            size=config.size,
        )
    fragments = [
        _EMITTERS[name](_rng_for(seed, name), config.size)
        for name in config.features
    ]

    srand_seed = _rng_for(seed, "srand").randrange(1, 2**31 - 1)
    parts: list[str] = [
        f"/* generated by repro.difftest.generate: seed={seed} "
        f"features={','.join(config.features)} size={config.size} */",
        "",
    ]
    for frag in fragments:
        parts += frag.structs
    parts.append("")
    for frag in fragments:
        parts += frag.globals_
    parts.append("")
    for frag in fragments:
        parts += [fn.strip("\n") for fn in frag.funcs]

    main_body: list[str] = []
    for frag in fragments:
        main_body += [f"    {d}" for d in frag.main_locals]
    main_body.append(f"    srand({srand_seed});")
    for frag in fragments:
        main_body += [f"    {b}" for b in frag.build]
    main_body.append("    migrate_here();   /* final poll before the checks */")
    for frag in fragments:
        main_body += [f"    {c}" for c in frag.check]
    fmt = " ".join(fmt for frag in fragments for fmt, _ in frag.prints)
    args = ", ".join(arg for frag in fragments for _, arg in frag.prints)
    main_body.append(f'    printf("{fmt}\\n", {args});')
    main_body.append("    return 0;")

    parts += ["", "int main() {", *main_body, "}", ""]
    return GeneratedProgram(seed=seed, config=config, source="\n".join(parts))
