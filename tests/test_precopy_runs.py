"""Pre-copy delta rounds that ship dirty unit runs (PR 18).

A round used to re-ship every block a slice wrote, whole.  It now ships
the unit runs the write barrier saw — when the destination's copy was
byte-fresh before the slice — so what these tests hold the rounds to is
that partial shipping is *invisible*: whatever a slice writes, wherever,
the pre-copied destination is the stop-and-copy destination; the plans
and the per-cell oracle put the same bytes in every round; a stale or a
new block never ships as runs; and no round is larger for shipping them.
Byte for byte: the destination re-collects to what the source collects
at its real stop point, on every corpus program.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ALPHA, DEC5000, SPARC20, ULTRA5, X86, X86_64
from repro.difftest.corpus import load_corpus
from repro.difftest.harness import _recollect_drift, _stop_at_poll, run_baseline
from repro.difftest.oracle import fingerprint_diff, heap_fingerprint
from repro.migration import precopy as precopy_module
from repro.migration.engine import MigrationEngine, _Run, collect_state
from repro.migration.precopy import PrecopyPolicy, PrecopySourceExitedError
from repro.msr.restore import Restorer
from repro.msr.msrlt import BlockKind
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import structgrid_source
from tests.conftest import plans_off, precopy_wire, stopped

#: LE/32 -> LE/64 (widening), LE/64 -> BE/32, BE/32 -> LE/64, LE/64 -> LE/32
PAIRS = ((DEC5000, ALPHA), (ALPHA, SPARC20), (SPARC20, X86_64), (X86_64, DEC5000))


def _compile(src: str):
    return compile_program(src, poll_strategy="user")


@contextmanager
def observed_rounds():
    """Every delta round of the pre-copy migrations run in the body, seen
    from both sides: its number, its size next to the size of the same
    round with no block in run form (never smaller, and deferring the
    same blocks — asserted here, for every round observed), what the
    source deferred, and what the destination restored, as ``logical ->
    [(byte offset in the block, bytes), ...]``: ``(0, size)`` for a
    ``BLOCK`` record, one entry per run for a runs marker."""
    seen = []
    collect_round = precopy_module._collect_round
    restore_round = precopy_module._restore_round
    resolve_block = Restorer._resolve_block
    restore_contents = Restorer.restore_contents

    def collect(process, round_no, freed, written, fresh, stale):
        whole, whole_deferred = collect_round(
            process, round_no, freed, (), set(fresh), set(stale)
        )
        payload, deferred = collect_round(process, round_no, freed, written, fresh, stale)
        assert len(payload) <= len(whole)
        assert deferred == whole_deferred
        seen.append({
            "no": round_no, "bytes": len(payload), "whole_bytes": len(whole),
            "deferred": deferred, "restored": {},
        })
        return payload, deferred

    def restore(scratch, payload, round_no, held):
        restored = seen[-1]["restored"]

        def on_block(rest, logical, info, count):
            block = resolve_block(rest, logical, info, count)
            restored.setdefault(logical, []).append((0, block.size))
            return block

        def on_run(rest, block):
            home = rest._mapping[block.logical]
            restored.setdefault(block.logical, []).append(
                (block.addr - home.addr, block.size)
            )
            return restore_contents(rest, block)

        before = set(held)
        with mock.patch.object(Restorer, "_resolve_block", on_block), \
                mock.patch.object(Restorer, "restore_contents", on_run):
            out = restore_round(scratch, payload, round_no, held)
        # a heap block new to the destination is carved by the walk itself
        for logical in held.keys() - before:
            restored.setdefault(logical, []).append((0, held[logical].size))
        return out

    with mock.patch.object(precopy_module, "_collect_round", collect), \
            mock.patch.object(precopy_module, "_restore_round", restore):
        yield seen


@pytest.fixture
def rounds():
    with observed_rounds() as seen:
        yield seen


def _assert_lands_like_stop_and_copy(prog, src_arch, dst_arch, policy, last_poll):
    """A pre-copy migration from poll 1 that stops at *last_poll* leaves
    the destination a plain migration at *last_poll* leaves: same heap
    fingerprint, byte-identical state when migrated back, and — resumed
    from there — the never-migrated output.  With the plans on and with
    every block on the per-cell oracle, every frame on the wire (each
    delta round, the final stream) is the same.  Returns the stats."""
    baseline = run_baseline(prog, src_arch)
    plain, _ = MigrationEngine().migrate(stopped(prog, src_arch, last_poll), dst_arch)
    frames, dest, stats = precopy_wire(prog, src_arch, dst_arch, policy)
    assert fingerprint_diff(heap_fingerprint(dest), heap_fingerprint(plain)) is None
    back, _ = MigrationEngine().migrate(dest, src_arch)
    plain_back, _ = MigrationEngine().migrate(plain, src_arch)
    assert collect_state(back)[0] == collect_state(plain_back)[0]
    assert back.run_to_completion() == baseline.exit_code
    assert back.stdout == baseline.stdout

    with plans_off(Process(prog, src_arch), Process(prog, dst_arch)):
        oracle, _, _ = precopy_wire(prog, src_arch, dst_arch, policy)
    assert frames == oracle
    return stats


# -- the hand-written corpus program, round by round ------------------------

HAND = next(e for e in load_corpus() if e.name == "hand_precopy_runs")
THREE_ROUNDS = PrecopyPolicy(max_rounds=3, stop_dirty_blocks=0)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0].name}->{p[1].name}")
def test_hand_corpus_rounds_take_the_forms_they_must(pair, rounds):
    src_arch, dst_arch = pair
    prog = _compile(HAND.source)
    _assert_lands_like_stop_and_copy(prog, src_arch, dst_arch, THREE_ROUNDS, last_poll=5)
    # the plans-on migration's rounds come first, then the oracle's: the same
    first, second, third = rounds[:3]
    assert [r["restored"] for r in rounds[3:]] == [r["restored"] for r in rounds[:3]]

    probe = Process(prog, dst_arch)
    probe.load()
    named = {b.name: b for b in probe.msrlt.blocks()}

    def whole(name):
        return [(0, named[name].size)]

    def unit(name, index):
        info = probe.ti.info_for(named[name].elem_type)
        return [(index * info.unit_size, info.unit_size)]

    def got(round_, name):
        return round_["restored"].get(named[name].logical)

    row = (BlockKind.HEAP, 0, 0)
    # slice 1: slots holds &local and defers; the merged interval over
    # left's last cell and right's first is one unit of each; one byte
    # into padded[3] ships that (padded) unit; one double of the heap row
    assert first["deferred"] == {named["slots"].logical} and got(first, "slots") is None
    assert got(first, "left") == unit("left", 5)
    assert got(first, "right") == unit("right", 0)
    assert got(first, "padded") == unit("padded", 3)
    assert first["restored"][row] == [(7 * 8, 8)]
    assert first["bytes"] < first["whole_bytes"]
    # slice 2 wrote one slot of slots, but the destination's copy is
    # stale from slice 1: whole.  The block at the freed address is new:
    # whole (reuse[2] = 99 went to the old block).  Every other cell of
    # sparse is eight runs, dearer than the block: whole
    reused = (BlockKind.HEAP, 2, 0)
    assert second["deferred"] == set()
    assert got(second, "slots") == whole("slots")
    assert second["restored"][reused] == [(0, 8 * 4)]
    assert got(second, "sparse") == whole("sparse")
    assert got(second, "recs") == unit("recs", 2)
    # slice 3: recs[0].peer and recs[1].key are one interval that ends
    # inside unit 1 (both units ship); single units, pointer-bearing and
    # padded
    (at, size), = unit("recs", 4)
    assert got(third, "recs") == [(0, 2 * size), (at, size)]
    assert got(third, "padded") == unit("padded", 5)
    assert third["restored"][row] == [(0, 8)]


# -- a copied char[] shipped as runs -----------------------------------------

#: a global and a heap string; each of the first three slices rewrites
#: one char of both, the fourth neither: what the rounds landed is what
#: the destination resumes with
COPIED_TEXT_SRC = r"""
char banner[256];
int main() {
    int r, i;
    char *note;
    note = (char *) malloc(200);
    for (i = 0; i < 255; i++) banner[i] = (char) (97 + i % 26);
    for (i = 0; i < 199; i++) note[i] = (char) (65 + i % 26);
    banner[255] = (char) 0;
    note[199] = (char) 0;
    for (r = 0; r < 6; r++) {
        migrate_here();
        if (r < 3) {
            banner[100 + r] = (char) (48 + r);
            note[50 + 3 * r] = (char) (48 + r);
        }
    }
    printf("%s %s", banner, note);
    return 0;
}
"""


@pytest.mark.parametrize(
    "pair", [(SPARC20, X86_64), (DEC5000, ULTRA5)], ids=lambda p: f"{p[0].name}->{p[1].name}"
)
def test_a_copied_char_array_ships_one_char_runs(pair, rounds):
    """``char[]`` is ``raw`` on every architecture, so the traversal
    drivers copy it — a runs marker's units too, through
    ``save_contents`` / ``restore_contents``.  A slice that rewrites one
    char of a global and of a heap string ships a one-char run of each,
    and the migration lands like a stop-and-copy, the plans on and off
    putting the same bytes in every frame."""
    src_arch, dst_arch = pair
    prog = _compile(COPIED_TEXT_SRC)
    probe = Process(prog, src_arch)
    probe.load()
    (banner,) = [b for b in probe.msrlt.blocks() if b.name == "banner"]
    for arch in pair:
        ti = Process(prog, arch).ti
        assert ti.plan_for(ti.info_for(banner.elem_type)).raw
    _assert_lands_like_stop_and_copy(prog, src_arch, dst_arch, THREE_ROUNDS, last_poll=5)
    note = (BlockKind.HEAP, 0, 0)
    for k, round_ in enumerate(rounds[:3]):
        assert round_["restored"] == {banner.logical: [(100 + k, 1)], note: [(50 + 3 * k, 1)]}
        assert round_["bytes"] < round_["whole_bytes"]
    # the oracle's rounds restored the same
    assert [r["restored"] for r in rounds[3:]] == [r["restored"] for r in rounds[:3]]


# -- random write schedules over five array shapes, heap and global ---------

N = 20  # long enough for the pointer arrays to take PtrArrayPlan's bulk path

SHAPES_SRC = """
#define N %d
struct pod { char tag; double w; short s; };
struct cellp { int key; struct cellp *peer; double v; };

int targets[8];
double gflat[N];
struct pod gpod[N];
int *gptr[N];
struct cellp gcell[N];
int grid[4][5];
double *hflat;
struct pod *hpod;
int **hptr;
struct cellp *hcell;
int out;

void fold(int v) { out = (out * 31 + v + 100000) %% 1000003; }

void init() {
    int i;
    hflat = (double *) malloc(N * sizeof(double));
    hpod = (struct pod *) malloc(N * sizeof(struct pod));
    hptr = (int **) malloc(N * sizeof(int *));
    hcell = (struct cellp *) malloc(N * sizeof(struct cellp));
    for (i = 0; i < 8; i++) targets[i] = i * 3;
    for (i = 0; i < N; i++) {
        gflat[i] = i * 0.5; hflat[i] = i * 1.5;
        gpod[i].tag = (char) (65 + i); gpod[i].w = i * 0.25; gpod[i].s = (short) i;
        hpod[i].tag = (char) (97 + i); hpod[i].w = i * 0.75; hpod[i].s = (short) (-i);
        gptr[i] = &targets[i %% 8];
        if (i %% 3 == 0) hptr[i] = NULL; else hptr[i] = &targets[(i * 5) %% 8];
        gcell[i].key = i; gcell[i].peer = &gcell[(i + 1) %% N]; gcell[i].v = i * 2.0;
        hcell[i].key = -i; hcell[i].peer = &hcell[(i + 7) %% N]; hcell[i].v = i * 0.125;
        grid[i / 5][i %% 5] = i * i;
    }
}

int main() {
    int i;
    init();
    migrate_here();
%s
    for (i = 0; i < N; i++) {
        fold((int) (gflat[i] * 4.0)); fold((int) (hflat[i] * 4.0));
        fold(gpod[i].tag + gpod[i].s + (int) (gpod[i].w * 8.0));
        fold(hpod[i].tag + hpod[i].s + (int) (hpod[i].w * 8.0));
        if (gptr[i] != NULL) fold(*gptr[i]);
        if (hptr[i] != NULL) fold(*hptr[i]);
        fold(gcell[i].key + gcell[i].peer->key + (int) (gcell[i].v * 8.0));
        fold(hcell[i].key + hcell[i].peer->key + (int) (hcell[i].v * 8.0));
        fold(grid[i / 5][i %% 5]);
    }
    printf("out=%%d\\n", out);
    return 0;
}
"""


def _write(shape: int, i: int, value: int, field: int) -> str:
    """One C statement writing cell *i* of array *shape*."""
    heap = shape >= 5
    kind = shape % 5
    if kind == 0:
        return f"{'hflat' if heap else 'gflat'}[{i}] = {value} * 0.5;"
    if kind == 1:
        name = "hpod" if heap else "gpod"
        return (
            f"{name}[{i}].tag = (char) {value % 100};",
            f"{name}[{i}].w = {value} * 0.25;",
            f"{name}[{i}].s = (short) {value};",
        )[field]
    if kind == 2:
        name = "hptr" if heap else "gptr"
        return f"{name}[{i}] = " + ("NULL;" if field == 0 else f"&targets[{value % 8}];")
    if kind == 3:
        name = "hcell" if heap else "gcell"
        return (
            f"{name}[{i}].key = {value};",
            f"{name}[{i}].peer = &{name}[{value % N}];",
            f"{name}[{i}].v = {value} * 0.125;",
        )[field]
    return f"grid[{i // 5}][{i % 5}] = {value};"


#: one write: (shape — 0-3 and 4: the global arrays and the 2-D one, 5-8:
#: the heap arrays —, cell, value, field)
_WRITE = st.tuples(
    st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 8]),
    st.integers(0, N - 1), st.integers(0, 999), st.integers(0, 2),
)
#: two to four slices of one to seven writes each
_SCHEDULE = st.lists(st.lists(_WRITE, min_size=1, max_size=7), min_size=2, max_size=4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_SCHEDULE)
def test_any_write_schedule_lands_like_stop_and_copy(schedule):
    body = "".join(
        "".join(f"    {_write(*w)}\n" for w in writes) + "    migrate_here();\n"
        for writes in schedule
    )
    prog = _compile(SHAPES_SRC % (N, body))
    policy = PrecopyPolicy(max_rounds=len(schedule) - 1, stop_dirty_blocks=0)
    with observed_rounds() as rounds:
        for src_arch, dst_arch in PAIRS:
            stats = _assert_lands_like_stop_and_copy(
                prog, src_arch, dst_arch, policy, last_poll=len(schedule) + 1
            )
            assert stats.precopy_rounds == len(schedule)
        # 4 pairs x (plans, oracle) x the delta rounds
        assert len(rounds) == 8 * (len(schedule) - 1)
        # a few scattered writes into 20-cell arrays: runs are what ships
        assert any(r["bytes"] < r["whole_bytes"] for r in rounds)


def test_structgrid_rounds_ship_the_hot_run(rounds):
    """The suite's pre-copy row in small: each slice aims the next few
    cells of ``hot`` and pushes as many probe nodes.  The nodes are new
    (whole), ``hot`` ships as the one run of pointers the slice wrote."""
    prog = _compile(structgrid_source(64, 48))
    policy = PrecopyPolicy(max_rounds=3, stop_dirty_blocks=0, slice_polls=4)
    _wire, dest, _stats = precopy_wire(prog, DEC5000, SPARC20, policy, polls=8)
    dest.run_to_completion()
    assert dest.stdout == run_baseline(prog, DEC5000).stdout
    probe = Process(prog, SPARC20)
    probe.load()
    hot = next(b for b in probe.msrlt.blocks() if b.name == "hot")
    assert len(rounds) == 3
    for n, round_ in enumerate(rounds):
        assert round_["restored"][hot.logical] == [((8 + 4 * n) * 4, 4 * 4)]
        assert round_["bytes"] < round_["whole_bytes"]


# -- the destination re-collects to the source's stop-point bytes -----------

#: LE/32 -> LE/64, LE/64 -> BE/32 (the Alpha's and x86_64's), BE/32 -> LE/32
LANDING_PAIRS = ((DEC5000, ALPHA), (ALPHA, SPARC20), (X86_64, ULTRA5), (SPARC20, X86))
#: the default phase, and one that runs every round on short slices
LANDING_POLICIES = (None, PrecopyPolicy(max_rounds=3, stop_dirty_blocks=0, slice_polls=2))
#: every corpus program, plus the suite's pre-copy shape in small
LANDING_SOURCES = [e.source for e in load_corpus()] + [structgrid_source(64, 48)]


def test_precopy_lands_byte_for_byte():
    """A pre-copied destination re-collects, as a plain stream, to
    exactly the bytes the source's plain collect gives at its real stop
    point — taken as ``adopt`` begins, after the last slice and the
    final pass, before the source's frames are cleared.  Every program
    starts on every pair at polls 1-3; the two policies alternate over
    pair and poll, so each meets every pair and every poll.  A source
    that exits during a slice has nothing left to land."""
    at_stop = []
    adopt = _Run.adopt

    def adopting(run):
        at_stop.append(collect_state(run.source)[0])
        adopt(run)

    drift, landed = [], 0
    for n, source in enumerate(LANDING_SOURCES):
        prog = _compile(source)
        for i, (src_arch, dst_arch) in enumerate(LANDING_PAIRS):
            for poll in (1, 2, 3):
                proc = _stop_at_poll(prog, src_arch, poll)
                if proc is None:
                    break
                policy = LANDING_POLICIES[(i + poll) % 2]
                try:
                    with mock.patch.object(_Run, "adopt", adopting):
                        dest, _ = MigrationEngine().migrate(
                            proc, dst_arch, precopy=True, precopy_policy=policy
                        )
                except PrecopySourceExitedError:
                    continue
                landed += 1
                problem = _recollect_drift(at_stop[-1], dest)
                if problem:
                    drift.append(
                        f"program {n} {src_arch.name}->{dst_arch.name}"
                        f"@poll{poll}: {problem}"
                    )
    assert drift == []
    assert landed >= 2 * len(LANDING_SOURCES)
