"""Heap depth is not capped by the Python stack (ROADMAP item 1).

Collection and restoration walk the MSR graph with an explicit work
stack, so a list or tree one pointer hop deep per block migrates at the
interpreter's *default* recursion limit, in every transfer mode, to a
process with the same heap fingerprint and the same resumed output as a
run that never migrated.  Two shapes, each the worst case of one frame
kind:

- the suite's irregular list (``longlist.c``: every record owns a heap
  string, so no chain batch ever flattens it) — depth through the *tail*
  pointer of a record;
- a degenerate left-only tree — depth through a *non-tail* pointer, with
  the record's remaining cells still to write when the walk comes back.

Both programs dirty every node between later poll-points without
changing a value, so the pre-copy mode ships the deep structure three
times over (snapshot, delta rounds, and — the blocks the last slice
touched — as nested ``BLOCK`` records of the final stream), while the
heap looks the same at every poll-point it may stop at.

10^4 nodes run in tier-1; the 10^5 sizes are ``slow`` (nightly, fuzz.yml).
"""

import inspect
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.arch import DEC5000, SPARC20, X86_64
from repro.difftest import fingerprint_diff, heap_fingerprint
from repro.migration.checkpoint import checkpoint, restart
from repro.migration.engine import MigrationEngine, collect_state, restore_state
from repro.migration.precopy import PrecopyPolicy
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import plans_off

LONGLIST_C = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "suite" / "programs" / "longlist.c"
)

#: spliced in at the template's poll-point: later poll-points for the
#: pre-copy slices, each behind a pass that writes every record back
LIST_SLICES = """migrate_here();
    for (k = 0; k < 4; k++) {
        for (r = head; r != NULL; r = r->next) r->id = r->id + 0;
        migrate_here();
    }
"""


def irregular_list(n: int) -> str:
    source = LONGLIST_C.read_text().replace("%N%", str(n)).replace("%SEED%", "7")
    assert source.count("migrate_here();") == 1
    return source.replace("migrate_here();", LIST_SLICES)


def left_spine(n: int) -> str:
    return """
struct tnode { int key; struct tnode *left; struct tnode *right; };
struct tnode *root;
int main() {
    int i, k, acc;
    struct tnode *t;
    root = NULL;
    for (i = 0; i < %N%; i++) {
        t = (struct tnode *) malloc(sizeof(struct tnode));
        t->key = i; t->left = root; t->right = NULL; root = t;
    }
    migrate_here();
    for (k = 0; k < 4; k++) {
        for (t = root; t != NULL; t = t->left) t->key = t->key + 0;
        migrate_here();
    }
    acc = 0; i = 0;
    for (t = root; t != NULL; t = t->left) { acc = (acc * 31 + t->key) % 1000003; i = i + 1; }
    printf("nodes=%d acc=%d\\n", i, acc);
    return 0;
}
""".replace("%N%", str(n))


SHAPES = {"list": irregular_list, "left-tree": left_spine}

MODES = {
    "plain": {},
    "stream": {"streaming": True, "chunk_size": 4096},
    "attribution": {"attribution": True},
    "precopy": {
        "precopy": True,
        "precopy_policy": PrecopyPolicy(max_rounds=2, stop_dirty_blocks=0),
    },
}


class Deep:
    """One compiled shape stopped at its first poll-point: the heap
    fingerprint there, a checkpoint to rebuild stopped sources from, and
    what an unmigrated run prints — the organic process's own output,
    resumed to its exit once the other two were taken (it was never
    migrated, so that is the oracle, at the cost of one run, not two)."""

    def __init__(self, source: str) -> None:
        self.program = compile_program(source, poll_strategy="user")
        organic = Process(self.program, DEC5000)
        organic.start()
        organic.migration_pending = True
        assert organic.run().status == "poll"
        self.fingerprint = heap_fingerprint(organic)
        self.checkpoint = checkpoint(organic)
        organic.migration_pending = False
        assert organic.run_to_completion() == 0
        self.expected_stdout = organic.stdout

    def stopped_source(self) -> Process:
        """A process stopped where the organic one was."""
        return restart(self.program, self.checkpoint, DEC5000)

    def migrate(self, dst_arch, **mode):
        dest, stats = MigrationEngine().migrate(self.stopped_source(), dst_arch, **mode)
        assert fingerprint_diff(self.fingerprint, heap_fingerprint(dest)) is None
        assert dest.run().status == "exit"
        assert dest.stdout == self.expected_stdout
        return stats


def check_every_mode(deep: Deep, n: int, mode: str) -> None:
    assert sys.getrecursionlimit() == 1000
    stats = deep.migrate(SPARC20, **MODES[mode])
    assert stats.attempts == 1
    # pre-copy too: the records its last slice touched travel nested in
    # the final stream
    assert stats.collect.n_blocks >= n
    if mode == "precopy":
        assert stats.precopy and not stats.precopy_degraded


@pytest.fixture(scope="module", params=sorted(SHAPES))
def deep_1e4(request):
    return Deep(SHAPES[request.param](10_000))


@pytest.mark.parametrize("mode", MODES)
def test_depth_1e4_at_the_default_recursion_limit(deep_1e4, mode):
    check_every_mode(deep_1e4, 10_000, mode)


@pytest.fixture(scope="module", params=sorted(SHAPES))
def deep_1e5(request):
    return Deep(SHAPES[request.param](100_000))


@pytest.mark.slow
@pytest.mark.parametrize("mode", MODES)
def test_depth_1e5_at_the_default_recursion_limit(deep_1e5, mode):
    check_every_mode(deep_1e5, 100_000, mode)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_python_frame_depth_is_constant_in_heap_depth(shape):
    """Only the driver's work stack grows with the heap: collection and
    restoration of a 2 000-deep structure fit in 40 Python frames above
    the test's own, plans on or off."""
    deep = Deep(SHAPES[shape](2_000))
    source = deep.stopped_source()
    oracle = plans_off(source, Process(deep.program, X86_64))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        for switch in (nullcontext(), oracle):
            with switch:
                payload, info = collect_state(source)
                assert info.stats.n_blocks >= 2_000
                dest = Process(deep.program, X86_64)
                restore_state(deep.program, payload, dest)
    finally:
        sys.setrecursionlimit(limit)
    assert fingerprint_diff(deep.fingerprint, heap_fingerprint(dest)) is None
    assert dest.run().status == "exit"
    assert dest.stdout == deep.expected_stdout
