"""Compiled content plans (DESIGN §8): one plan per type, four kinds.

Contracts under test:

- **Byte identity** — plans never change a single wire byte: the
  plans-on payload equals the plans-off (per-cell oracle) payload on
  every workload × architecture pair, restores through either side,
  and resumes to the unmigrated output; each of the four plan kinds
  must actually engage, so a plan that silently stops compiling cannot
  pass (the corpus-wide version lives in test_difftest_corpus.py).
- **Chain backoff** — a miss is booked before the traversal descends,
  so a deep irregular list stops probing after ``CHAIN_BACKOFF_MISSES``
  nodes, while an evenly spaced chain still commits in one batch.
- **Zero-copy plumbing** — Memory.write_view takes a payload slice
  with one copy, and Memory.write_bytes grows a window by the same one
  rule (Segment.ensure).
- **Complexity accounting** — ``n_searches`` is identical plans-on vs
  plans-off, so E5's complexity counters keep their meaning.
- **Per-target resolution** — a pointer array is resolved against the
  blocks it points into, never the table: on interior, one-past-the-end,
  stack, padding, dangling, NULL-run and not-yet-visited targets it
  sends, counts and refuses exactly what the per-cell oracle does; a
  chain batch searches the table once per linked node and resolves its
  pointer columns the same way, on spaced nodes, two target types and a
  stack target.
"""

import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, ULTRA5, X86, X86_64
from repro.arch.buffers import ReadBuffer
from repro.clang.ctypes import INT, TypeLayout
from repro.difftest.corpus import load_corpus
from repro.migration.engine import (
    MigrationEngine,
    collect_state,
    collect_state_chunks,
    restore_state,
    restore_state_stream,
)
from repro.migration import precopy as precopy_module
from repro.migration.precopy import PrecopyPolicy, run_precopy
from repro.migration.stats import MigrationStats
from repro.migration.transport import LOOPBACK, Channel
from repro.msr import graphplan
from repro.msr.collect import Collector
from repro.msr.graphplan import (
    CastPlan,
    ChainPlan,
    PtrArrayPlan,
    RecordPlan,
)
from repro.msr.msrlt import MSRLT, BlockKind, MemoryBlock, MSRLTError
from repro.msr.restore import Restorer
from repro.vm.dirty import DirtyTracker
from repro.vm.memory import Memory, MemoryFault
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import linpack_source
from tests.conftest import (
    ALL_ARCHS,
    PLAN_ARCH_PAIRS as ARCH_PAIRS,
    PLAN_WORKLOADS as WORKLOADS,
    assert_plans_invisible,
    longlist_source,
    plans_off,
    precopy_wire,
    register_stack,
    stopped,
    stopped_at,
    table_state,
)

PLAN_KINDS = (CastPlan, PtrArrayPlan, RecordPlan)


# ---------------------------------------------------------------------------
# bulk registration
# ---------------------------------------------------------------------------


@pytest.fixture
def table():
    return MSRLT(TypeLayout(SPARC20))


def _heap_blocks(addrs, serials):
    """Prebuilt one-INT heap blocks, as a restoration walk hands them
    to the table."""
    return [
        MemoryBlock(addr, INT, 1, 4, (BlockKind.HEAP, serial, 0))
        for addr, serial in zip(addrs, serials)
    ]


class TestRegisterHeapBulk:
    def test_bulk_matches_serial_registration(self, table):
        blocks = _heap_blocks([0x2000, 0x2010, 0x2020], [0, 1, 2])
        table.register_heap_bulk(blocks)
        assert table._starts == [0x2000, 0x2010, 0x2020]
        for b in blocks:
            found, off = table.lookup_addr(b.addr)
            assert found is b and off == 0
        # local serials continue above the imported ones
        assert table.register_heap(0x5000, INT, 1).logical[1] == 3

    def test_duplicate_serial_rejected(self, table):
        table.register_heap_bulk(_heap_blocks([0x5000], [7]))
        before = table_state(table)
        with pytest.raises(MSRLTError, match=r"duplicate registration of \(2, 7, 0\)"):
            table.register_heap_bulk(_heap_blocks([0x2000, 0x2010], [6, 7]))
        with pytest.raises(MSRLTError, match=r"duplicate registration of \(2, 8, 0\)"):
            table.register_heap_bulk(_heap_blocks([0x2000, 0x2010, 0x2020], [8, 9, 8]))
        # all or nothing
        assert table_state(table) == before and len(table) == 1

    def test_interleaved_range_merges(self, table):
        """Blocks that do not fall into one gap between registered ones
        (a free list handed out recycled addresses, a stack block sits
        above) merge in address order, unsorted input included."""
        register_stack(table, 0, 0, 0x7000, INT, name="s")
        mid = table.register_heap(0x2010, INT, 1)
        a, b, c = _heap_blocks([0x2000, 0x2008, 0x2020], [10, 11, 12])
        table.register_heap_bulk([c, a, b])
        assert table._starts == [0x2000, 0x2008, 0x2010, 0x2020, 0x7000]
        assert table._blocks[:4] == [a, b, mid, c]
        assert table.lookup_addr(0x2021) == (c, 1)
        table.drop_stack_blocks()
        assert table._blocks == [a, b, mid, c]

    def test_empty_bulk_registers_nothing(self, table):
        table.register_heap_bulk(_heap_blocks([0x2000, 0x2010], [0, 1]))
        before = table_state(table)
        table.register_heap_bulk([])  # nothing to register, nothing changes
        assert table.n_registrations == 2 and table_state(table) == before


# ---------------------------------------------------------------------------
# byte identity + resume
# ---------------------------------------------------------------------------


@pytest.fixture
def engaged(monkeypatch):
    """Count, per plan class and side, the blocks it converted (for a
    RecordPlan, which the traversal driver walks: the units it loaded or
    stored, through the plan's methods or its one-call codec) or the
    driver copied (a ``raw`` CastPlan: every block of its
    type the pass collected or restored, counted when the pass ends),
    plus the chain batches that committed.  ``counts[key, "calls"]`` is
    how often each was tried."""
    counts = Counter()

    def counted(inner, key, took=lambda result: True):
        def wrapper(*args):
            counts[key, "calls"] += 1
            result = inner(*args)
            if took(result):
                counts[key] += 1
            return result

        return wrapper

    def counting(cls, name, key, took=lambda result: True):
        monkeypatch.setattr(cls, name, counted(getattr(cls, name), key, took))

    for cls in (CastPlan, PtrArrayPlan):
        counting(cls, "save", (cls, "save"))
        counting(cls, "restore", (cls, "restore"))
    counting(RecordPlan, "load", (RecordPlan, "save"))
    counting(RecordPlan, "store", (RecordPlan, "restore"))
    compile_record = RecordPlan.__init__

    def compiling(plan, *args):
        # a unit the heap window covers is unpacked (packed) by the
        # drivers through the plan's one-call codec, not load (store)
        compile_record(plan, *args)
        plan.load_from = counted(plan.load_from, (RecordPlan, "save"))
        if plan.store_into is not None:
            plan.store_into = counted(plan.store_into, (RecordPlan, "restore"))

    monkeypatch.setattr(RecordPlan, "__init__", compiling)
    not_none = lambda result: result is not None  # noqa: E731
    counting(ChainPlan, "_save_batch", "save batches", not_none)
    counting(ChainPlan, "_restore_batch", "restore batches", not_none)
    counting(ChainPlan, "_walk", "walks", not_none)

    def copies(cls, name, side, blocks_of):
        inner = getattr(cls, name)

        def wrapper(worker, *args):
            result = inner(worker, *args)
            for block in blocks_of(worker):
                plan = worker._plan_for(worker.ti.info_for(block.elem_type))
                if plan is not None and plan.raw:
                    counts[type(plan), side] += 1
            return result

        monkeypatch.setattr(cls, name, wrapper)

    # the pass's last call: its visited set (its mapping) is every block
    # it collected (restored)
    copies(Collector, "finish", "save",
           lambda c: map(c.msrlt.lookup_logical, c._visited))
    copies(Restorer, "restore_tail", "restore", lambda r: r._mapping.values())
    return counts


class TestPlanByteIdentity:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize(
        "pair", ARCH_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}"
    )
    def test_payload_and_resume_identical(self, workload, pair):
        assert_plans_invisible(*WORKLOADS[workload], *pair)

    def test_every_plan_kind_engages(self, engaged):
        """The identity matrix above proves nothing about a plan that no
        longer compiles (oracle == oracle).  structgrid has one shape
        per kind: scalars, a mixed pointer-free struct grid, a dense
        pointer array, and a linked chain of probes — whose head the
        driver walks through its RecordPlan and whose body goes out as a
        ChainPlan batch.  On the big-endian ILP32 destination the
        scalars and the grid are ``raw``: the driver copies them, and
        the copies count."""
        assert_plans_invisible(*WORKLOADS["structgrid"], DEC5000, SPARC20)
        assert engaged[(CastPlan, "restore"), "calls"] == 0  # every one a copy
        for cls in PLAN_KINDS:
            assert engaged[cls, "save"] > 0, f"{cls.__name__} never saved a block"
            assert engaged[cls, "restore"] > 0, f"{cls.__name__} never restored one"
        assert engaged["save batches"] > 0 and engaged["restore batches"] > 0

    def test_structgrid_engages_plans(self):
        proc = stopped_at(*WORKLOADS["structgrid"], ULTRA5)
        _, info = collect_state(proc)
        stats = info.stats
        assert stats.n_plan_blocks > 0 and stats.n_codec_blocks > 0
        # the probe chain batches, and its blocks are booked (suite
        # finding 7); with a plan for every shape, every block is on one
        fast = stats.n_flat_blocks + stats.n_codec_blocks + stats.n_plan_blocks
        assert stats.n_flat_blocks == 0 and fast == stats.n_blocks

    def test_block_counters_say_which_plan_ran(self):
        """A pointer-free block is a codec block, converted by its cast
        or copied ``raw``, flat or not; a block a pointer plan walked is
        a plan block.  linpack(40) on DEC5000 at its first poll: eleven
        pointer-free blocks, and dgefa's ``double *a`` and ``int *ipvt``."""
        proc = stopped_at(linpack_source(40), 1, DEC5000)
        stats = collect_state(proc)[1].stats
        assert (stats.n_codec_blocks, stats.n_plan_blocks, stats.n_blocks) == (11, 2, 13)

    def test_n_searches_identical_across_modes(self):
        """E5's complexity counters must not notice the plans: a bulk
        batch charges exactly the searches the scalar walk would."""
        proc = stopped_at(*WORKLOADS["structgrid"], ULTRA5)
        before = proc.msrlt.n_searches
        collect_state(proc)
        planned = proc.msrlt.n_searches - before
        with plans_off(proc):
            collect_state(proc)
        assert proc.msrlt.n_searches - before - planned == planned


#: a 32-pointer array re-aimed by every slice (PtrArrayPlan territory:
#: >= MIN_BULK_CELLS cells) next to list nodes the same slices churn
HOT_ARRAY_SRC = """
struct cell { double value; int row; };
struct probe { struct cell *target; int strength; struct probe *next; };
struct cell grid[64];
struct cell *hot[32];
struct probe *chain;

int main() {
    int r; int i; double acc;
    struct probe *p;
    for (i = 0; i < 64; i++) { grid[i].value = i * 0.5; grid[i].row = i; }
    for (i = 0; i < 32; i++) hot[i] = &grid[i];
    for (r = 0; r < 5; r++) {
        migrate_here();
        for (i = 0; i < 32; i++) {
            if ((i + r) % 3 == 0) hot[i] = NULL;
            else hot[i] = &grid[(i * 7 + r) % 64];
        }
        p = (struct probe *) malloc(sizeof(struct probe));
        p->target = hot[1]; p->strength = r; p->next = chain; chain = p;
    }
    migrate_here();
    acc = 0.0;
    for (i = 0; i < 32; i++) if (hot[i] != NULL) acc = acc + hot[i]->value;
    for (p = chain; p != NULL; p = p->next) acc = acc + p->strength;
    printf("acc=%.3f\\n", acc);
    return 0;
}
"""

#: the corpus programs most likely to trip delta-round bookkeeping, and
#: the pairs test_precopy.py replays them on
CORPUS = {e.name: e for e in load_corpus()}
#: what a fused unit codec can get wrong and the per-cell oracle gets
#: right, one hand-written corpus program each: unsigned-char hosts,
#: 8-byte wire longs on 4-byte hosts, padding between and after cells,
#: several units per block with interior / one-past-end pointers, and
#: records that point at themselves
RECORD_EDGES = (
    "hand_record_char_sign", "hand_record_long_narrow", "hand_record_padding",
    "hand_record_array", "hand_record_selfcycle",
)
PRECOPY_CORPUS = (
    "gen_churn", "gen_pastend", "gen_list_churn", "gen_mixed_churn", *RECORD_EDGES,
    "hand_precopy_runs",  # rounds that ship dirty unit runs, whole blocks and a deferral
)
PRECOPY_SOURCES = {name: CORPUS[name].source for name in PRECOPY_CORPUS}
PRECOPY_SOURCES["hot_ptr_array"] = HOT_ARRAY_SRC
PRECOPY_PAIRS = (
    (DEC5000, ALPHA), (ALPHA, SPARC20), (SPARC20, X86_64), (X86_64, DEC5000),
)


@pytest.mark.parametrize("entry_name", PRECOPY_SOURCES)
@pytest.mark.parametrize(
    "pair", PRECOPY_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}"
)
def test_precopy_wire_identical_plans_on_off(entry_name, pair, monkeypatch):
    """Pre-copy runs the same plans as a plain migration (its collector
    and restorer are the ordinary ones, born knowing what the
    destination holds): every delta frame and the final payload must
    equal what the per-cell oracle sends — with a pointer plan really
    engaged in a round and in the final stream."""
    prog = compile_program(PRECOPY_SOURCES[entry_name], poll_strategy="user")
    src_arch, dst_arch = pair
    engaged = Counter()
    phase = ["final"]

    def within(run, name):
        def spy(*args):
            phase[0] = name
            try:
                return run(*args)
            finally:
                phase[0] = "final"
        return spy

    for name, when in (
        ("_collect_round", "round"), ("_restore_round", "round"),
        ("_collect_whole", "snapshot"), ("restore_state", "snapshot"),
    ):
        monkeypatch.setattr(precopy_module, name, within(getattr(precopy_module, name), when))
    for side in ("save", "restore"):
        def spy(plan, worker, block, info, inner=getattr(PtrArrayPlan, side)):
            engaged[type(worker).__name__, phase[0]] += 1
            return inner(plan, worker, block, info)

        monkeypatch.setattr(PtrArrayPlan, side, spy)

    def migrate():
        wire, dest, stats = precopy_wire(
            prog, src_arch, dst_arch, PrecopyPolicy(max_rounds=2, stop_dirty_blocks=0)
        )
        assert stats.precopy_rounds >= 2
        dest.run_to_completion()
        return wire, dest.stdout, stats

    *planned, stats = migrate()
    if entry_name == "hot_ptr_array":
        assert stats.collect.n_plan_blocks > 0
        for worker in ("Collector", "Restorer"):
            for when in ("round", "final"):
                assert engaged[worker, when] > 0, (
                    f"PtrArrayPlan never took a block for {worker} in the {when}"
                )
    engaged.clear()
    probe = Process(prog, src_arch), Process(prog, dst_arch)
    with plans_off(*probe):
        *oracle, _ = migrate()
    assert not engaged
    assert planned == oracle


#: alpha is the unsigned-char LP64 host; x86 aligns double to 4 bytes
RECORD_PAIRS = [
    (ALPHA, DEC5000), (SPARC20, ALPHA), (X86_64, X86), (X86, ULTRA5), *ARCH_PAIRS,
]


class TestRecordPlanEdges:
    """RecordPlan's one-call unit codec against the per-cell oracle on
    the shapes where the two could part ways (RECORD_EDGES)."""

    @pytest.mark.parametrize("polls", [1, 2, 3])
    @pytest.mark.parametrize("entry_name", RECORD_EDGES)
    @pytest.mark.parametrize(
        "pair", RECORD_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}"
    )
    def test_payload_and_resume_identical(self, entry_name, pair, polls, engaged):
        assert_plans_invisible(CORPUS[entry_name].source, polls, *pair)
        assert engaged[RecordPlan, "save"] > 0 and engaged[RecordPlan, "restore"] > 0

    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 23, 64])
    @pytest.mark.parametrize("entry_name", RECORD_EDGES)
    def test_record_headers_straddling_stream_chunks(self, entry_name, chunk_size):
        """Chunks of 1 and 2 bytes cut every record and scalar run at
        every byte, or every other; 7 cuts every BLOCK header that
        carries more than a heap unit's 7 and every REF record (9 or 13
        bytes) in two; 23 and 64 put the cuts at shifting places inside
        units.  Joined once the stream is in, plans on and off read the
        same state."""
        proc = stopped_at(CORPUS[entry_name].source, 3, ALPHA)
        prog = proc.program
        expected = Process(prog, ALPHA)
        expected.run_to_completion()
        payload, _ = collect_state(proc)
        chunks = [bytes(c) for c in collect_state_chunks(proc, chunk_size=chunk_size)]
        assert b"".join(chunks) == payload
        for plans in (True, False):
            dest = Process(prog, DEC5000)
            dest.ti.plans_enabled = plans
            try:
                restore_state_stream(prog, iter(chunks), dest)
            finally:
                dest.ti.plans_enabled = True
            assert dest.run().status == "exit"
            assert dest.stdout == expected.stdout

    @pytest.mark.parametrize("dst_arch", [DEC5000, X86, X86_64], ids=lambda a: a.name)
    def test_padding_restores_as_zeros(self, dst_arch):
        """One ``pack`` per unit writes the whole unit image: the bytes
        no cell covers are zeros, as in memory the per-cell path never
        touched."""
        proc = stopped_at(CORPUS["hand_record_padding"].source, 4, SPARC20)
        payload, _ = collect_state(proc)
        dest = Process(proc.program, dst_arch)
        restore_state(proc.program, payload, dest)
        checked = 0
        for block in dest.msrlt.blocks():
            info = dest.ti.info_for(block.elem_type)
            if info.label != "struct gappy" and not info.label.startswith("struct gappy ["):
                continue
            covered = set()
            for unit in range(info.units_in(block.count)):
                for cell in info.cells:
                    start = unit * info.unit_size + cell.offset
                    covered.update(range(start, start + dst_arch.sizeof(cell.kind)))
            raw = dest.memory.read_bytes(block.addr, block.size)
            assert len(covered) < block.size  # the type does have padding
            assert all(raw[i] == 0 for i in range(block.size) if i not in covered)
            checked += 1
        assert checked >= 8  # seven ring nodes and the global array

    def test_overflowing_long_narrows_like_the_oracle(self):
        """A ``long`` past 32 bits leaves a 64-bit host and lands on a
        32-bit one: the fused store wraps it modulo 2^32, bit for bit as
        ``Memory.store`` does cell by cell (no resumed-output claim: the
        program's own arithmetic differs on the narrower host)."""
        source = """
struct wide { long a; struct wide *next; unsigned long b; };
struct wide *chain;
int main() {
    int i; long v; struct wide *w;
    v = 1; for (i = 0; i < 40; i++) v = v * 2;
    for (i = 0; i < 5; i++) {
        w = (struct wide *) malloc(sizeof(struct wide));
        w->a = -(v + 12345 * i); w->b = (unsigned long) (v * 3 + i); w->next = chain;
        chain = w;
    }
    migrate_here();
    return 0;
}
"""
        proc = stopped_at(source, 1, ALPHA)
        payload, _ = collect_state(proc)
        images = []
        for plans in (True, False):
            dest = Process(proc.program, DEC5000)
            dest.ti.plans_enabled = plans
            try:
                restore_state(proc.program, payload, dest)
            finally:
                dest.ti.plans_enabled = True
            images.append([
                dest.memory.read_bytes(b.addr, b.size) for b in dest.msrlt.heap_blocks()
            ])
        assert images[0] == images[1] and len(images[0]) == 5
        first = proc.memory.load("long", proc.msrlt.heap_blocks()[0].addr)
        assert abs(first) > 2**32  # the source value really did not fit


#: one program per shape the per-target resolution of a pointer array
#: must get right; every array holds at least MIN_BULK_CELLS pointers
PTR_ARRAY_EDGES = {
    # interior pointers, at unit starts and at a field: one target each
    "one_target_interior": r"""
struct cell { double value; int row; };
struct cell grid[64];
struct cell *hot[48];
int *rows[40];
int main() {
    int i; double acc;
    for (i = 0; i < 64; i++) { grid[i].value = i * 0.5; grid[i].row = i; }
    for (i = 0; i < 48; i++) hot[i] = &grid[(i * 5) % 64];
    for (i = 0; i < 40; i++) rows[i] = &grid[(i * 3) % 64].row;
    migrate_here();
    acc = 0.0;
    for (i = 0; i < 48; i++) acc = acc + hot[i]->value;
    for (i = 0; i < 40; i++) acc = acc + *rows[i];
    printf("%.2f\n", acc);
    return 0;
}
""",
    # the first array opens 40 heap nodes, the second aliases them all:
    # one REF run over 40 distinct visited targets
    "distinct_visited_targets": r"""
struct node { int v; struct node *next; };
struct node *own[40];
struct node *alias[40];
int main() {
    int i; int acc;
    for (i = 0; i < 40; i++) {
        own[i] = (struct node *) malloc(sizeof(struct node));
        own[i]->v = i * i; own[i]->next = NULL;
    }
    for (i = 0; i < 40; i++) alias[i] = own[(i * 7) % 40];
    migrate_here();
    acc = 0;
    for (i = 0; i < 40; i++) acc = acc + alias[i]->v * (i + 1);
    printf("%d\n", acc);
    return 0;
}
""",
    # one past the end of a global array and of 20 distinct heap blocks
    "one_past_the_end": r"""
int arr[16];
int *ends[32];
int *bufs[20];
int *bends[20];
int main() {
    int i; int acc;
    for (i = 0; i < 16; i++) arr[i] = i + 100;
    for (i = 0; i < 32; i++) {
        if (i % 2) ends[i] = &arr[16]; else ends[i] = &arr[i % 15 + 1];
    }
    for (i = 0; i < 20; i++) {
        bufs[i] = (int *) malloc(4 * sizeof(int));
        bufs[i][3] = i * 3;
    }
    for (i = 0; i < 20; i++) bends[i] = bufs[(i * 3) % 20] + 4;
    migrate_here();
    acc = 0;
    for (i = 0; i < 32; i++) acc = acc + *(ends[i] - 1);
    for (i = 0; i < 20; i++) acc = acc + *(bends[i] - 1);
    printf("%d\n", acc);
    return 0;
}
""",
    # a local of main's, pointed at from inside a run into the grid
    "stack_target_in_a_run": r"""
struct cell { double value; int row; };
struct cell grid[32];
struct cell *mix[32];
int main() {
    struct cell local; int i; double acc;
    local.value = 7.25; local.row = -1;
    for (i = 0; i < 32; i++) { grid[i].value = i * 1.5; grid[i].row = i; }
    for (i = 0; i < 32; i++) {
        if (i == 9 || i == 10 || i == 21) mix[i] = &local; else mix[i] = &grid[i];
    }
    migrate_here();
    local.value = local.value + 1.0;
    acc = 0.0;
    for (i = 0; i < 32; i++) acc = acc + mix[i]->value;
    printf("%.2f\n", acc);
    return 0;
}
""",
    # runs of NULLs: short ones between pointers, and a long tail
    "null_runs": r"""
struct cell { double value; int row; };
struct cell grid[16];
struct cell *hot[64];
int main() {
    int i; double acc;
    for (i = 0; i < 16; i++) { grid[i].value = i * 0.25; grid[i].row = i; }
    for (i = 0; i < 40; i++) {
        if (i % 4 < 2) hot[i] = NULL; else hot[i] = &grid[i % 16];
    }
    migrate_here();
    acc = 0.0;
    for (i = 0; i < 64; i++) if (hot[i] != NULL) acc = acc + hot[i]->value;
    printf("%.2f\n", acc);
    return 0;
}
""",
    # four unvisited heap nodes interleaved with a visited global and
    # NULLs: each node's first pointer opens its BLOCK, the later ones
    # become REFs
    "unvisited_interleaved": r"""
struct node { int v; struct node *next; };
struct node pool[8];
struct node *ring[48];
int main() {
    int i; int acc;
    for (i = 0; i < 8; i++) pool[i].v = 1000 + i;
    for (i = 0; i < 48; i++) {
        if (i < 4) {
            ring[i] = (struct node *) malloc(sizeof(struct node));
            ring[i]->v = i + 1; ring[i]->next = &pool[i];
        } else if (i % 7 == 6) ring[i] = NULL;
        else if (i % 3 == 0) ring[i] = &pool[i % 8];
        else ring[i] = ring[i % 4];
    }
    migrate_here();
    acc = 0;
    for (i = 0; i < 48; i++) if (ring[i] != NULL) acc = acc + ring[i]->v * i;
    printf("%d\n", acc);
    return 0;
}
""",
}

#: arrays no collection takes: the per-cell oracle raises at one element
#: and the plan must raise the same error there
PTR_ARRAY_REFUSED = {
    # a char pointer one byte into a struct's padding
    "into_padding": r"""
struct pad { char c; double d; };
struct pad pads[4];
char *pp[32];
int main() {
    int i;
    for (i = 0; i < 32; i++) pp[i] = &pads[i % 4].c;
    pp[13] = &pads[2].c + 1;
    migrate_here();
    return 0;
}
""",
    # a pointer two bytes past the end of a char array: a cell's width
    # into the slack before the double that follows it
    "into_the_gap": r"""
char tag[3];
double x[2];
char *gp[32];
int main() {
    int i;
    for (i = 0; i < 32; i++) { if (i % 2) gp[i] = &tag[i % 3]; else gp[i] = (char *) &x[i % 2]; }
    gp[17] = &tag[3] + 2;
    migrate_here();
    return 0;
}
""",
}
#: an LP64 -> ILP32 pair of one byte order, and an endian-swapping one
PTR_ARRAY_PAIRS = ((ALPHA, DEC5000), (DEC5000, SPARC20))


def _collect_searches(proc, plans: bool):
    """One collect of *proc*, with the plans on or on the per-cell
    oracle: ``(payload or the error it raised, MSRLT searches it booked)``."""
    before = proc.msrlt.n_searches
    try:
        if plans:
            out, _ = collect_state(proc)
        else:
            with plans_off(proc):
                out, _ = collect_state(proc)
    except (MSRLTError, ValueError) as exc:  # a dangling / padding pointer
        out = (type(exc), str(exc))
    return out, proc.msrlt.n_searches - before


class TestPtrArrayPlanEdges:
    """The pointer-array plan resolves each array per distinct target
    block; against the per-cell oracle on the shapes where that can part
    ways with one search per element."""

    @pytest.mark.parametrize("name", PTR_ARRAY_EDGES)
    @pytest.mark.parametrize(
        "pair", PTR_ARRAY_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}"
    )
    def test_payload_searches_and_resume_identical(self, name, pair, engaged):
        source = PTR_ARRAY_EDGES[name]
        assert_plans_invisible(source, 1, *pair)
        assert engaged[PtrArrayPlan, "save"] > 0
        proc = stopped_at(source, 1, pair[0])
        assert _collect_searches(proc, True) == _collect_searches(proc, False)

    @pytest.mark.parametrize("name", PTR_ARRAY_REFUSED)
    @pytest.mark.parametrize(
        "pair", PTR_ARRAY_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}"
    )
    def test_refused_at_the_oracles_element(self, name, pair):
        proc = stopped_at(PTR_ARRAY_REFUSED[name], 1, pair[0])
        planned = _collect_searches(proc, True)
        oracle = _collect_searches(proc, False)
        assert planned == oracle
        (kind, message), _searches = oracle
        if name == "into_the_gap":
            gap = proc.msrlt.lookup_logical((BlockKind.GLOBAL, 0, 0)).end + 2
            assert kind is MSRLTError and f"pointer {gap:#x} does not refer" in message
        else:
            assert kind is ValueError and "byte offset 33 in struct pad" in message


#: one corpus program per shape a chain batch's per-node and per-target
#: resolution must get right, and whether a batch must commit on it
CHAIN_EDGES = {
    # nodes evenly spaced with a buffer between each two: never
    # neighbours in the table
    "hand_chain_spaced": True,
    # one pointer column into two target types, one past an array's end
    "hand_chain_two_targets": True,
    # a pointer to a stack local: its REF is wider, the batch stops there
    "hand_chain_stackref": False,
}


class TestChainPlanEdges:
    """A chain batch searches the table once per linked node and
    resolves each pointer column per distinct target block; against the
    per-cell oracle on the shapes where that can part ways with the
    driver's one search per pointer."""

    @pytest.mark.parametrize("polls", [1, 3])
    @pytest.mark.parametrize("name", CHAIN_EDGES)
    @pytest.mark.parametrize(
        "pair", PTR_ARRAY_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}"
    )
    def test_payload_searches_and_resume_identical(self, name, pair, polls, engaged):
        source = CORPUS[name].source
        assert_plans_invisible(source, polls, *pair)
        if CHAIN_EDGES[name]:
            assert engaged["save batches"] >= 1
        proc = stopped_at(source, polls, pair[0])
        assert _collect_searches(proc, True) == _collect_searches(proc, False)

    @pytest.mark.parametrize(
        "pair", PTR_ARRAY_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}"
    )
    def test_a_tail_into_a_freed_node_is_refused(self, pair):
        """An evenly spaced list whose eighth link points at a freed node:
        the stride walk links it (the tail holds the address), but no
        block starts there, so the batch ends in front of it and the
        driver raises the oracle's error at that pointer."""
        source = evenlist_source(12).replace(
            "head = p;\n", "head = p; if (i == 3) gone = p;\n"
        ).replace("    migrate_here();", "    free(gone);\n    migrate_here();").replace(
            "struct node *p;", "struct node *p; struct node *gone;"
        )
        assert "free(gone)" in source and "gone = p" in source
        proc = stopped_at(source, 1, pair[0])
        planned = _collect_searches(proc, True)
        assert planned == _collect_searches(proc, False)
        (kind, message), _searches = planned
        assert kind is MSRLTError and "does not refer to any live memory block" in message


def small_flat_source() -> str:
    """Flat blocks of 1-15 cells: a lone int, a 3-char string, short
    arrays — on the stack, in globals and on the heap."""
    return r"""
int lone;
char tag[4];
short trio[3];
double pair[2];

int main() {
    int local;
    char *name;
    long *few;
    int i;
    lone = -7;
    tag[0] = 'a'; tag[1] = 'b'; tag[2] = 'c'; tag[3] = (char) 0;
    for (i = 0; i < 3; i++) trio[i] = (short) (i * 1000 - 1500);
    pair[0] = 0.25; pair[1] = -1.0e300;
    local = 123456789;
    name = (char *) malloc(4);
    name[0] = 'x'; name[1] = 'y'; name[2] = 'z'; name[3] = (char) 0;
    few = (long *) malloc(15 * sizeof(long));
    for (i = 0; i < 15; i++) few[i] = (long) i * -65537;
    migrate_here();
    printf("%d %s %d %d %d %g %g %d %s", lone, tag, trio[0], trio[1], trio[2],
           pair[0], pair[1], local, name);
    for (i = 0; i < 15; i++) printf(" %d", (int) few[i]);
    return 0;
}
"""


class TestSmallFlatBlocks:
    """CastPlan takes flat blocks of every size (the ``MIN_BULK_CELLS``
    decline that used to route 1-15 cell blocks around it is gone)."""

    @pytest.mark.parametrize(
        "pair", [(DEC5000, SPARC20), (ALPHA, X86), (SPARC20, X86_64)],
        ids=lambda p: f"{p[0].name}-{p[1].name}",
    )
    def test_identity(self, pair):
        assert_plans_invisible(small_flat_source(), 1, *pair)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize(
        "pair", [(DEC5000, SPARC20), (SPARC20, ULTRA5)],
        ids=lambda p: f"{p[0].name}-{p[1].name}",
    )
    def test_streamed_restore_with_boundaries_inside_blocks(
        self, pair, chunk_size, engaged
    ):
        """Chunks smaller than every block, so each flat block — the
        lone int, the 3-char string — straddles a chunk boundary on the
        wire; joined, it restores through CastPlan.restore's cast (the
        ``long`` array, 8 wire bytes to 4 host bytes) or as the driver's
        copy (every other flat type: the big-endian ILP32 destination's
        host image is its wire image).  Copies count as engagements."""
        src_arch, dst_arch = pair
        proc = stopped_at(small_flat_source(), 1, src_arch)
        prog = proc.program
        expected = Process(prog, src_arch)
        expected.run_to_completion()
        payload, _ = collect_state(proc)
        chunks = list(collect_state_chunks(proc, chunk_size=chunk_size))
        assert b"".join(bytes(c) for c in chunks) == payload
        dest = Process(prog, dst_arch)
        restore_state_stream(prog, iter(chunks), dest)
        assert engaged[CastPlan, "restore"] >= 8
        assert dest.run().status == "exit"
        assert dest.stdout == expected.stdout


#: one global of each unit shape the copy rule tells apart, the first
#: three kinds also on the heap and the stack, printed whole after the poll.
#: The numbers and the heap letters end in non-zero bytes, so a copy cut
#: short shows
COPIED_UNITS_SRC = r"""
struct mixed { double d; int i; int j; double e; };
struct inner { char c; int i; };
struct tail { int i; char c; };
struct owner { int id; char *name; };
char text[12];
int counts[5];
double weights[3];
struct mixed grid[2];
long wide[3];
struct inner inners[2];
struct tail tails[2];
struct owner owners[2];
char *names[2];

int main() {
    int i;
    char word[6];
    double *heapd;
    struct mixed *heapm;
    char *letters;
    heapd = (double *) malloc(4 * sizeof(double));
    heapm = (struct mixed *) malloc(3 * sizeof(struct mixed));
    letters = (char *) malloc(8);
    for (i = 0; i < 8; i++) letters[i] = (char) (75 + i);
    for (i = 0; i < 11; i++) text[i] = (char) (97 + i);
    text[11] = (char) 0;
    for (i = 0; i < 5; i++) word[i] = (char) (65 + i);
    word[5] = (char) 0;
    for (i = 0; i < 5; i++) counts[i] = i * -70001 + 3;
    for (i = 0; i < 3; i++) weights[i] = i * 0.75 - 1.0e200;
    for (i = 0; i < 4; i++) heapd[i] = i * -2.5 + 0.1;
    for (i = 0; i < 2; i++) {
        grid[i].d = i + 0.1; grid[i].i = -i - 1; grid[i].j = i * 1000 + 7;
        grid[i].e = -0.3 * (i + 1);
        inners[i].c = (char) (120 + i); inners[i].i = i * 7;
        tails[i].i = i * -9; tails[i].c = (char) (110 + i);
        owners[i].id = i;
        owners[i].name = (char *) malloc(4);
        owners[i].name[0] = (char) (112 + i); owners[i].name[1] = (char) 0;
        names[i] = owners[i].name;
    }
    for (i = 0; i < 3; i++) {
        wide[i] = (long) i * -65537;
        heapm[i].d = i * 1.5 + 0.3; heapm[i].i = i + 1; heapm[i].j = -i - 1;
        heapm[i].e = i * 0.25 + 0.7;
    }
    migrate_here();
    printf("%s %s", text, word);
    for (i = 0; i < 5; i++) printf(" %d", counts[i]);
    for (i = 0; i < 3; i++) printf(" %.17g %d", weights[i], (int) wide[i]);
    for (i = 0; i < 4; i++) printf(" %.17g", heapd[i]);
    for (i = 0; i < 8; i++) printf("%c", letters[i]);
    for (i = 0; i < 2; i++)
        printf(" %.17g %d %d %.17g %d %d %d %d %s %s", grid[i].d, grid[i].i, grid[i].j,
               grid[i].e, (int) inners[i].c, inners[i].i, tails[i].i, (int) tails[i].c,
               owners[i].name, names[i]);
    for (i = 0; i < 3; i++)
        printf(" %.17g %d %d %.17g", heapm[i].d, heapm[i].i, heapm[i].j, heapm[i].e);
    return 0;
}
"""

#: the big-endian ILP32 presets: XDR is the host image of their char,
#: int and double, and of any padding-free struct of those
BIG_ILP32 = (SPARC20, ULTRA5)
#: global -> the presets on which its plan is ``raw`` (the drivers copy it)
COPIED_ON = {
    "text": ALL_ARCHS,  # a byte is its wire byte everywhere
    "counts": BIG_ILP32,
    "weights": BIG_ILP32,
    "grid": BIG_ILP32,
    "wide": (),  # 4 host bytes where ILP32, 8 on the wire
    "inners": (),  # interior padding
    "tails": (),  # tail padding
    "owners": (),  # pointer-bearing
    "names": (),  # a pointer array
}


class TestCopiedUnits:
    """Which units the traversal drivers copy — a plan is ``raw`` when
    its host image is its wire image — and that copying them changes no
    byte the per-cell oracle writes or reads, on any pair of presets."""

    @pytest.mark.parametrize("arch", ALL_ARCHS, ids=lambda a: a.name)
    def test_which_units_are_copied(self, arch):
        probe = Process(compile_program(COPIED_UNITS_SRC, poll_strategy="user"), arch)
        probe.load()
        ti = probe.ti
        raw = {
            block.name: ti.plan_for(ti.info_for(block.elem_type)).raw
            for block in probe.msrlt.blocks()
            if block.name in COPIED_ON  # not the string literals or the PRNG state
        }
        assert raw == {name: arch in on for name, on in COPIED_ON.items()}

    @pytest.mark.parametrize(
        "pair", list(itertools.permutations(ALL_ARCHS, 2)),
        ids=lambda p: f"{p[0].name}-{p[1].name}",
    )
    def test_copies_are_invisible(self, pair):
        assert_plans_invisible(COPIED_UNITS_SRC, 1, *pair)

    @pytest.mark.parametrize("name", ["grid", "heapm"])
    def test_a_converting_struct_restore_marks_its_whole_span(self, name):
        """A CastPlan that converts (a big-endian struct landing on a
        little-endian destination) writes its block through one writable
        view: under a pre-copy write barrier that marks every byte of the
        block, a global's and a heap block's alike."""
        prog = compile_program(COPIED_UNITS_SRC, poll_strategy="user")
        dest = Process(prog, DEC5000)
        memory = dest.memory
        tracker = DirtyTracker(memory.stack_seg.base, memory.stack_seg.limit)
        memory.dirty = tracker
        try:
            restore_state(prog, collect_state(stopped(prog, SPARC20))[0], dest)
        finally:
            memory.dirty = None
        if name == "grid":
            block = next(b for b in dest.msrlt.blocks() if b.name == "grid")
        else:  # the one heap block of ``struct mixed``
            (block,) = [
                b for b in dest.msrlt.heap_blocks() if str(b.elem_type) == "struct mixed"
            ]
        plan = dest.ti.plan_for(dest.ti.info_for(block.elem_type))
        assert isinstance(plan, CastPlan) and plan.host.names and not plan.raw
        assert any(lo <= block.addr and block.end <= hi for lo, hi in tracker.take())


#: per primitive kind, its C type, the edge values an array of it holds
#: and how one element prints the same on every preset: a ``long`` of
#: 2^40 + 5 narrows modulo 2^32 from LP64 to ILP32 and prints its low
#: word, plain ``char`` 0x80 is 128 on alpha and -128 elsewhere and
#: prints its byte, and a NaN's payload prints through the integer of
#: its width (one host byte order, so the same digits everywhere)
EDGE_KINDS = {
    "char": ("char", ["(char) 128", "(char) 127"], "%d", "{} & 255"),
    "uchar": ("unsigned char", ["(unsigned char) 255", "(unsigned char) 0"], "%d", "{}"),
    "short": ("short", ["(short) -32768", "(short) 32767"], "%d", "{}"),
    "ushort": ("unsigned short", ["(unsigned short) 65535", "(unsigned short) 1"],
               "%d", "{}"),
    "int": ("int", ["-2147483647 - 1", "2147483647"], "%d", "{}"),
    "uint": ("unsigned int", ["(unsigned int) -1", "(unsigned int) 2147483648"],
             "%u", "{}"),
    "long": ("long", ["big", "-big"], "%d", "(int) {}"),
    "ulong": ("unsigned long", ["(unsigned long) -1", "(unsigned long) big"],
              "%u", "(unsigned int) {}"),
    "llong": ("long long", ["(long long) big * -256", "(long long) -1"], "%d", "{}"),
    "ullong": ("unsigned long long", ["(unsigned long long) -1", "(unsigned long long) big"],
               "%u", "{}"),
    "float": ("float", ["-0.0f", "1.0f / fzero", "-1.0f / fzero", "1.0e-40f", "0.0f"],
              "%g", "{}"),
    "double": ("double", ["-0.0", "1.0 / zero", "-1.0 / zero", "4.9e-324", "0.0"],
               "%g", "{}"),
}


def edge_values_source() -> str:
    """A global, a local and a heap array of every primitive kind, each
    holding :data:`EDGE_KINDS`' values; the last ``float`` and ``double``
    of each array is then overwritten with a quiet NaN carrying a
    payload."""
    globals_, locals_, fills, prints = [], [], [], []
    for kind, (ctype, values, conv, show) in EDGE_KINDS.items():
        n = len(values)
        globals_.append(f"{ctype} g_{kind}[{n}];")
        locals_.append(f"    {ctype} s_{kind}[{n}]; {ctype} *h_{kind};")
        fills.append(f"    h_{kind} = ({ctype} *) malloc({n} * sizeof({ctype}));")
        for where in ("g", "s", "h"):
            fills += [f"    {where}_{kind}[{i}] = {value};" for i, value in enumerate(values)]
            prints.append(f'    printf("{kind}:");')
            prints += [f'    printf(" {conv}", {show.format(f"{where}_{kind}[{i}]")});'
                       for i in range(n)]
    for where in ("g", "s", "h"):
        fills += [
            f"    fbits = (unsigned int *) &{where}_float[4];",
            "    *fbits = 2143289635;  /* 0x7fc00123 */",
            f"    dbits = (unsigned long long *) &{where}_double[4];",
            "    *dbits = 9221120237041090851ULL;  /* 0x7ff8000000000123 */",
        ]
        prints += [
            f"    fbits = (unsigned int *) &{where}_float[4];",
            f"    dbits = (unsigned long long *) &{where}_double[4];",
            '    printf(" nan %u %u\\n", *fbits, *dbits);',
        ]
    return "\n".join([
        *globals_,
        "int main() {",
        "    long big; int i; float fzero; double zero;",
        "    unsigned int *fbits; unsigned long long *dbits;",
        *locals_,
        "    big = 1; for (i = 0; i < 40; i++) big = big * 2;",
        "    big = big + 5; fzero = 0.0f; zero = 0.0;",
        *fills,
        "    migrate_here();",
        *prints,
        "    return 0;",
        "}",
    ])


#: a padded pointer-free struct the cast plan converts on every preset
PADDED_HEAP_SRC = r"""
struct gap { char c; double d; };
struct gap *cells;
int main() {
    int i;
    cells = (struct gap *) malloc(6 * sizeof(struct gap));
    for (i = 0; i < 6; i++) { cells[i].c = (char) (65 + i); cells[i].d = i * -1.5; }
    migrate_here();
    for (i = 0; i < 6; i++) printf("%c%g ", cells[i].c, cells[i].d);
    return 0;
}
"""

ALL_PAIRS = list(itertools.permutations(ALL_ARCHS, 2))


class TestCastEdges:
    """The cast against the per-cell oracle where conversions break, and
    the padding a cast restore owes over reused memory."""

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}")
    def test_edge_values_of_every_kind(self, pair):
        assert_plans_invisible(edge_values_source(), 1, *pair)

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}")
    def test_padding_restores_as_zeros_over_a_recycled_block(self, pair):
        """The destination's free list holds a 0xff-filled block of the
        array's size class: the restore recycles it, as ``malloc``
        would, and the cast leaves no byte of it in the padding."""
        dest, info, _ = self._restored_over_a_recycled_block(*pair)
        plan = dest.ti.plan_for(info)
        assert isinstance(plan, CastPlan) and plan.padded

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}")
    def test_oracle_restores_padding_as_zeros_over_a_recycled_block(self, pair):
        """The per-cell oracle owes the recycled block the same zeros:
        it wipes each unit before its cell stores, so a plans-off
        restore writes the bytes the cast does."""
        planned, oracle = (
            self._restored_over_a_recycled_block(*pair, plans=plans)[2]
            for plans in (True, False)
        )
        assert oracle == planned

    def _restored_over_a_recycled_block(self, src_arch, dst_arch, plans=True):
        """PADDED_HEAP_SRC migrated onto a destination whose free list
        recycles a 0xff-filled block: asserts the padding came back as
        zeros and the program resumes to its unmigrated output; returns
        the destination, the array's type info and its restored bytes."""
        proc = stopped_at(PADDED_HEAP_SRC, 1, src_arch)
        prog = proc.program
        expected = Process(prog, src_arch)
        expected.run_to_completion()
        payload, _ = collect_state(proc)
        dest = Process(prog, dst_arch)
        (ctype,) = {b.elem_type for b in proc.msrlt.heap_blocks()}
        info = dest.ti.info_for(ctype)
        size = 6 * info.size
        dirty = dest.memory.heap_alloc(size)
        dest.memory.write_bytes(dirty, b"\xff" * size)
        dest.memory.heap_free(dirty)
        if plans:
            restore_state(prog, payload, dest)
        else:
            with plans_off(dest):
                restore_state(prog, payload, dest)
        (block,) = dest.msrlt.heap_blocks()
        assert block.addr == dirty and block.size == size
        raw = dest.memory.read_bytes(block.addr, size)
        c_end = info.cells[0].offset + 1
        for unit in range(6):
            base = unit * info.unit_size
            assert raw[base + c_end : base + info.cells[1].offset] == bytes(
                info.cells[1].offset - c_end
            )
        assert dest.run().status == "exit"
        assert dest.stdout == expected.stdout
        return dest, info, raw


# ---------------------------------------------------------------------------
# chain backoff
# ---------------------------------------------------------------------------

def evenlist_source(n: int) -> str:
    """*n* list nodes allocated back to back: one stride throughout."""
    return r"""
struct node { int id; double weight; struct node *next; };
struct node *head;
int main() {
    int i, acc;
    struct node *p;
    head = NULL;
    for (i = 0; i < %N%; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->id = i; p->weight = i * 0.5; p->next = head; head = p;
    }
    migrate_here();
    acc = 0;
    for (p = head; p != NULL; p = p->next) acc = (acc * 31 + p->id) % 1000003;
    printf("acc=%d", acc);
    return 0;
}
""".replace("%N%", str(n))


# a table of bystanders the snapshot ships, then one slice that builds an
# evenly spaced chain: all of it is in the final stream
LATE_CHAIN_SRC = r"""
struct node { int id; double weight; struct node *next; };
struct node *keep;
struct node *late;
int main() {
    int i, acc;
    struct node *p;
    for (i = 0; i < %d; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->id = i; p->weight = i * 0.5; p->next = keep; keep = p;
    }
    migrate_here();
    for (i = 0; i < %d; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->id = i; p->weight = i * 0.25; p->next = late; late = p;
    }
    migrate_here();
    acc = 0;
    for (p = late; p != NULL; p = p->next) acc = (acc * 31 + p->id) %% 1000003;
    for (p = keep; p != NULL; p = p->next) acc = (acc * 31 + p->id) %% 1000003;
    printf("acc=%%d", acc);
    return 0;
}
"""


class TestChainBackoff:
    def test_deep_irregular_list_backs_off_preorder(self, engaged):
        """300 irregularly spaced records: every probe misses.  The miss
        is booked before the descent into the tail's target, so probing
        stops after CHAIN_BACKOFF_MISSES nodes — booked on the way back
        up, the whole list was probed (299 attempts, 69 vectorized
        walks) before the backoff ever saw a miss."""
        proc = stopped_at(longlist_source(300), 1, SPARC20)
        with plans_off(proc):
            oracle, _ = collect_state(proc)
        engaged.clear()
        planned, info = collect_state(proc)
        assert planned == oracle
        assert info.stats.n_blocks >= 600  # 300 records + 300 strings
        probes = graphplan.CHAIN_BACKOFF_MISSES + 1
        assert 0 < engaged["save batches", "calls"] <= probes
        assert engaged["walks", "calls"] <= 2
        # the restore side books its miss when the row parse declines,
        # which is before the driver descends: same bound
        restore_state(proc.program, planned, Process(proc.program, X86_64))
        assert 0 < engaged["restore batches", "calls"] <= probes
        assert engaged["save batches"] == engaged["restore batches"] == 0

    def test_even_chain_commits_in_one_batch(self, engaged):
        proc = stopped_at(evenlist_source(1024), 1, DEC5000)
        with plans_off(proc):
            oracle, _ = collect_state(proc)
        planned, info = collect_state(proc)
        assert planned == oracle
        assert engaged["save batches"] == 1
        # the head pointer's own target is the batch's first node, so
        # the global reaches all 1024 nodes through one row array
        assert info.stats.n_plan_blocks >= 1024
        dest = Process(proc.program, SPARC20)
        restore_state(proc.program, planned, dest)
        assert engaged["restore batches"] == 1
        assert dest.run().status == "exit"

    def test_a_batch_stops_at_a_visited_node(self, engaged):
        """``mid``, saved before ``head``, reaches node 300: its batch
        takes nodes 299..0.  ``head``'s batch then runs from node 1022
        down to node 301 and stops in front of node 300, which arrives
        as a REF — bytes and resumed output those of the oracle."""
        source = evenlist_source(1024).replace(
            "struct node *head;", "struct node *mid;\nstruct node *head;"
        ).replace("head = p;\n", "head = p; if (i == 300) mid = p;\n")
        assert "mid = p" in source
        proc = stopped_at(source, 1, DEC5000)
        prog = proc.program
        expected = Process(prog, DEC5000)
        expected.run_to_completion()
        with plans_off(proc):
            oracle, _ = collect_state(proc)
        engaged.clear()
        planned, _ = collect_state(proc)
        assert planned == oracle
        assert engaged["save batches"] == 2
        dest = Process(prog, SPARC20)
        restore_state(prog, planned, dest)
        assert dest.run().status == "exit"
        assert dest.stdout == expected.stdout

    @pytest.mark.parametrize("workload", [
        (longlist_source(300), 1), WORKLOADS["bitonic"],
    ], ids=["irregular-list", "tree"])
    def test_a_declined_probe_builds_no_arena(self, workload, engaged):
        """Data that never batches is told so by a few bisects over the
        table's own sorted arrays, before anything is vectorized."""
        proc = stopped_at(*workload, SPARC20)
        collect_state(proc)
        assert engaged["save batches", "calls"] > 0
        assert engaged["save batches"] == 0 and engaged["walks", "calls"] == 0

    @pytest.mark.parametrize("nodes", [32, 300])
    def test_a_pass_born_with_ledgers_offers_no_chain_tail(self, nodes, engaged):
        """The pre-copy final collector ships what the slices changed:
        a chain the last slice built in a 1 000-block table, of 32 nodes
        or of 300, is walked by the driver (no probe), and the stream is
        the per-cell oracle's."""
        prog = compile_program(
            LATE_CHAIN_SRC % (1000 - nodes, nodes), poll_strategy="user"
        )
        expected = Process(prog, DEC5000)
        expected.run_to_completion()
        proc = stopped(prog, DEC5000)
        scratch = Process(prog, SPARC20)
        state = run_precopy(
            proc, scratch, Channel(LOOPBACK), PrecopyPolicy(max_rounds=0),
            MigrationStats(), 4096,
        )
        assert len(proc.msrlt) in range(1000, 1010) and nodes <= len(state.stale) < nodes + 4

        with plans_off(proc):
            oracle, _ = collect_state(proc, set(state.fresh), state.stale)
        engaged.clear()
        planned, info = collect_state(proc, set(state.fresh), state.stale)
        assert planned == oracle and info.stats.n_blocks >= nodes
        assert engaged["save batches", "calls"] == 0
        restore_state(prog, planned, scratch, state.held)
        assert scratch.run().status == "exit"
        assert proc.stdout + scratch.stdout == expected.stdout

    def test_longlist_246_migrates_at_default_recursion_limit(self):
        """Frames per pointer hop must not grow: N = 246 was the longest
        longlist.c that migrated at the interpreter's default limit
        before the plans took over the unit loop."""
        assert sys.getrecursionlimit() == 1000
        proc = stopped_at(longlist_source(246), 1, SPARC20)
        expected = Process(proc.program, SPARC20)
        expected.run_to_completion()
        dest, _stats = MigrationEngine().migrate(proc, X86_64)
        assert dest.run().status == "exit"
        assert dest.stdout == expected.stdout


# ---------------------------------------------------------------------------
# zero-copy plumbing
# ---------------------------------------------------------------------------


class TestSegmentWrite:
    def _memory(self):
        return Memory(SPARC20)

    def test_fresh_window_materializes_from_data(self):
        mem = self._memory()
        base = mem.heap_seg.base
        data = bytes(range(200))
        mem.write_bytes(base + 64, data)
        assert mem.read_bytes(base + 64, 200) == data
        # the gap below the write reads as zeros
        assert mem.read_bytes(base, 64) == bytes(64)

    def test_append_with_gap_zero_fills_the_gap_only(self):
        mem = self._memory()
        base = mem.heap_seg.base
        mem.write_bytes(base, b"A" * 16)
        far = base + 200_000  # beyond the window and its slack
        mem.write_bytes(far, b"B" * 16)
        assert mem.read_bytes(base, 16) == b"A" * 16
        assert mem.read_bytes(far, 16) == b"B" * 16
        assert mem.read_bytes(far - 64, 64) == bytes(64)

    def test_front_extension_preserves_contents(self):
        mem = self._memory()
        sp = mem.stack_seg.limit - 4096
        mem.write_bytes(sp, b"C" * 64)
        lower = sp - 150_000
        mem.write_bytes(lower, b"D" * 64)
        assert mem.read_bytes(sp, 64) == b"C" * 64
        assert mem.read_bytes(lower, 64) == b"D" * 64

    def test_overlapping_write_splices_and_extends(self):
        mem = self._memory()
        base = mem.heap_seg.base
        mem.write_bytes(base, bytes(range(64)))
        we = base + len(mem.heap_seg.buf)  # current window end
        mem.write_bytes(we - 8, b"E" * 16)  # straddles the boundary
        assert mem.read_bytes(we - 8, 16) == b"E" * 16

    def test_out_of_segment_write_faults(self):
        mem = self._memory()
        with pytest.raises(MemoryFault, match="outside"):
            mem.write_bytes(mem.heap_seg.limit - 4, bytes(8))

    def test_zero_does_not_materialize(self):
        mem = self._memory()
        base = mem.heap_seg.base
        mem.write_bytes(base, b"F" * 8)
        before = len(mem.heap_seg.buf)
        mem.zero(base + 1_000_000, 4096)  # far beyond the window
        assert len(mem.heap_seg.buf) == before
        # unmaterialized spans still read as zeros once touched
        assert mem.read_bytes(base + 1_000_000, 4096) == bytes(4096)

    def test_zero_wipes_the_materialized_overlap(self):
        mem = self._memory()
        base = mem.heap_seg.base
        mem.write_bytes(base, b"G" * 64)
        mem.zero(base + 16, 16)
        assert mem.read_bytes(base, 64) == b"G" * 16 + bytes(16) + b"G" * 32

    def test_write_view_roundtrip(self):
        mem = self._memory()
        base = mem.heap_seg.base
        src = bytes(range(64))
        mem.write_view(base + 32, 64)[:] = ReadBuffer(src).read(64)
        assert mem.read_bytes(base + 32, 64) == src
