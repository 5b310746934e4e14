"""Iterative pre-copy live migration (PR 9).

Covers the whole stack: rounds as chunk streams, the dirty-interval
tracker and its MSRLT resolution, the write barriers on every Memory
store entry point (ground-truthed against a byte diff), delta rounds
in the final stream's tail-section grammar, fault plans reaching every
round, the
overlap-ratio fold of round time, corpus replay through pre-copy on
four representative architecture pairs, and the default-path guarantee
that pre-copy machinery is inert when not requested.
"""

import struct
import threading
from unittest import mock

import numpy as np
import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, ULTRA5, X86_64
from repro.arch.buffers import ReadBuffer
from repro.cli import main as cli_main
from repro.difftest.corpus import load_corpus
from repro.difftest.harness import run_baseline, _stop_at_poll
from repro.difftest.oracle import fingerprint_diff, heap_fingerprint
from repro.migration.engine import (
    RETRYABLE_ERRORS,
    CollectError,
    MigrationAbortedError,
    MigrationEngine,
    RestoreError,
    collect_state,
    restore_errors,
    restore_state,
)
from repro.migration import engine as engine_module
from repro.migration import precopy as precopy_module
from repro.migration.precopy import (
    PrecopyPolicy,
    PrecopySourceExitedError,
    PrecopySourceFaultedError,
    run_precopy,
)
from repro.migration.stats import MigrationStats
from repro.migration.transport import (
    LOOPBACK,
    Channel,
    ChannelClosedError,
    ChannelError,
    Fault,
    FaultPlan,
    FaultyChannel,
    SocketChannel,
)
from repro.msr.collect import Collector
from repro.msr.graphplan import MIN_CHAIN, ChainPlan
from repro.msr.msrlt import BlockKind
from repro.msr.restore import RestoreError as MsrRestoreError, Restorer
from repro.msr.wire import decode_chunk, read_logical
from repro.vm.dirty import DirtyTracker
from repro.vm.memory import MemoryFault
from repro.vm.process import GuestFault, Process
from repro.vm.program import compile_program
from repro.workloads import structgrid_source
from tests.conftest import (
    FrameCodecCases,
    RecordingChannel,
    allocator_twin,
    assert_table_whole,
    block_header,
    ref_record,
    restore_replayed,
    spelled_out,
)


ENGINE = MigrationEngine()


def _compile(src: str):
    return compile_program(src, poll_strategy="user")


def _stopped(program, arch, polls: int = 1) -> Process:
    proc = Process(program, arch)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = polls
    result = proc.run()
    assert result.status == "poll", result
    return proc


# a workload with a long poll-point loop, heap churn through every
# mutation path, and output only at the end — the pre-copy happy case
MUTATOR_SRC = """
int grid[32];
int *slots[8];
char tag[16];
int acc;

int main() {
    int i; int r; int *p;
    for (i = 0; i < 8; i++) {
        slots[i] = (int *) malloc(2 * sizeof(int));
        slots[i][0] = i; slots[i][1] = i * 3;
    }
    strcpy(tag, "precopy");
    for (r = 0; r < 24; r++) {
        migrate_here();
        grid[r % 32] = r * 7;                 /* scalar stores */
        slots[r % 8][0] = slots[r % 8][0] + r;
        if (r % 5 == 0) {
            free(slots[(r + 3) % 8]);         /* churn: free + realloc */
            slots[(r + 3) % 8] = (int *) malloc(2 * sizeof(int));
            slots[(r + 3) % 8][0] = r; slots[(r + 3) % 8][1] = r;
        }
        if (r == 10) {
            p = (int *) realloc(slots[1], 6 * sizeof(int));   /* grow */
            slots[1] = p;
            slots[1][4] = 44; slots[1][5] = 55;
        }
        if (r == 12) memset(tag, 90, 4);      /* bulk write_bytes */
    }
    migrate_here();
    for (i = 0; i < 8; i++) acc = (acc * 13 + slots[i][0]) % 100003;
    for (i = 0; i < 32; i++) acc = (acc + grid[i]) % 100003;
    printf("acc=%d t=%s\\n", acc, tag);
    return 0;
}
"""


# -- wire frames ---------------------------------------------------------


class TestDeltaWire(FrameCodecCases):
    """A delta round is a chunk stream on the migration's channel: the
    shared damage matrix as a round arrives over a socket — each frame
    queued on the socket's frame path, pumped through the socket pair,
    then checked by the channel's decoder, which is what ``ship_stream``
    receives through."""

    def read(self, frames):
        channel = SocketChannel(LOOPBACK)
        try:
            for frame in frames:
                channel._send_frame(frame)
            return b"".join(channel.iter_chunks())
        finally:
            channel.close()

    def test_a_deflating_round_ships_mchz(self):
        """``compress=True`` reaches the rounds: a round that deflates
        ships as ``'MCHZ'``, the channel books what it accepted during
        the phase, and the output is that of an unmigrated run."""
        prog = _compile(MUTATOR_SRC)
        baseline = run_baseline(prog, ULTRA5)
        channel = RecordingChannel()
        dest, stats = ENGINE.migrate(
            _stopped(prog, ULTRA5), SPARC20, channel=channel, compress=True,
            precopy=True,
            precopy_policy=PrecopyPolicy(max_rounds=4, stop_dirty_blocks=0),
        )
        assert stats.precopy and not stats.precopy_degraded
        # the final attempt is the last stream: its chunks and terminator
        rounds = channel.sent[: -(stats.n_chunks + 1)]
        assert rounds[0][:4] == b"MCHZ"  # the snapshot deflates
        assert bytes(decode_chunk(rounds[0])[1]) == collect_state(
            _stopped(prog, ULTRA5)
        )[0]
        assert channel.delta_bytes_sent == sum(map(len, rounds))
        assert channel.delta_bytes_sent < stats.precopy_bytes
        assert dest.run_to_completion() == baseline.exit_code
        assert dest.stdout == baseline.stdout


# -- dirty tracking ------------------------------------------------------


class TestDirtyTracker:
    def test_merges_intervals(self):
        t = DirtyTracker(0, 0)
        t.mark(10, 4)
        t.mark(12, 6)
        t.mark(30, 2)
        assert t.take() == [(10, 18), (30, 32)]
        assert not t  # take() clears

    def test_filters_stack_range(self):
        t = DirtyTracker(100, 200)
        t.mark(150, 8)   # inside the stack: ignored
        t.mark(50, 4)
        assert t.take() == [(50, 54)]

    def test_zero_length_ignored(self):
        t = DirtyTracker(0, 0)
        t.mark(10, 0)
        assert not t

    def test_many_disjoint_ranges_merge_a_logarithmic_number_of_times(self, monkeypatch):
        """A slice that writes 10^5 disjoint blocks (every node of a long
        list) keeps more ranges than the coalescing threshold however
        often they are merged; re-merging on every write made such a
        slice quadratic."""
        from repro.vm import dirty

        merges = []
        merge = dirty._merge
        monkeypatch.setattr(dirty, "_merge", lambda iv: merges.append(len(iv)) or merge(iv))
        t = DirtyTracker(0, 0)
        for i in range(100_000):
            t.mark(i * 16, 4)
            t.mark(i * 16, 4)  # the rewrite of the same cell coalesces
        assert len(merges) <= 16 and sum(merges) <= 4 * 200_000
        assert len(t.take()) == 100_000


class TestBlocksOverlapping:
    def test_resolution(self):
        prog = _compile(MUTATOR_SRC)
        proc = _stopped(prog, ULTRA5)
        blocks = proc.msrlt.blocks()
        assert blocks
        b = blocks[len(blocks) // 2]
        hits = proc.msrlt.blocks_overlapping(b.addr, b.addr + 1)
        assert [h.logical for h in hits] == [b.logical]
        # a range spanning everything returns everything, in order
        lo = blocks[0].addr
        hi = blocks[-1].end
        all_hits = proc.msrlt.blocks_overlapping(lo, hi)
        assert [h.logical for h in all_hits] == [blk.logical for blk in blocks]
        assert proc.msrlt.blocks_overlapping(lo, lo) == []


# -- barriers on every store entry point, to the byte ---------------------

# every way a program writes memory between two polls: scalar stores,
# struct assignment, memset / memcpy / strcpy, calloc, realloc growing
# (malloc + copy + free) and shrinking in place, free + malloc handing
# the same address out again, rand() (its state lives in a global)
BARRIER_SRC = """
struct pair { char tag; double w; int n; };
int grid[32];
int *slots[8];
char tag[16];
char copy[16];
struct pair a; struct pair b;
double *vec;
int acc;

int main() {
    int i; int r; int *p;
    for (i = 0; i < 8; i++) {
        slots[i] = (int *) malloc(2 * sizeof(int));
        slots[i][0] = i; slots[i][1] = i * 3;
    }
    vec = (double *) calloc(6, sizeof(double));
    strcpy(tag, "precopy");
    for (r = 0; r < 16; r++) {
        migrate_here();
        grid[r % 32] = r * 7;
        slots[r % 8][0] = slots[r % 8][0] + r;
        if (r % 5 == 0) {
            free(slots[(r + 3) % 8]);
            slots[(r + 3) % 8] = (int *) malloc(2 * sizeof(int));
            slots[(r + 3) % 8][1] = r;
        }
        if (r == 3) { a.tag = (char) 65; a.w = 2.5; a.n = rand() % 50; b = a; }
        if (r == 4) memcpy(copy, tag, 8);
        if (r == 6) { free(vec); vec = (double *) calloc(6, sizeof(double)); vec[2] = 1.5; }
        if (r == 8) {
            p = (int *) realloc(slots[1], 6 * sizeof(int));
            slots[1] = p; slots[1][4] = 44; slots[1][5] = 55;
        }
        if (r == 9) slots[1] = (int *) realloc(slots[1], 2 * sizeof(int));
        if (r == 11) memset(tag, 90, 4);
        if (r == 12) strcpy(copy, "barrier");
    }
    migrate_here();
    for (i = 0; i < 8; i++) acc = (acc * 13 + slots[i][0]) % 100003;
    printf("acc=%d t=%s c=%s\\n", acc, tag, copy);
    return 0;
}
"""


def _written_image(memory) -> list:
    """(window start, bytes) of the global and the heap segment:
    everything materialized outside the stack."""
    return [(seg.window_start, bytes(seg.buf)) for seg in (memory.global_seg, memory.heap_seg)]


def _assert_marked(before: list, memory, intervals) -> int:
    """Every byte that differs from *before* lies inside one of the
    marked *intervals*; returns how many differ.  (A byte materialized
    since reads as zero before; a window only ever grows.)"""
    changed = 0
    for (was_at, was), seg in zip(before, (memory.global_seg, memory.heap_seg)):
        at, now = seg.window_start, np.frombuffer(bytes(seg.buf), np.uint8)
        old = np.zeros_like(now)
        old[was_at - at : was_at - at + len(was)] = np.frombuffer(was, np.uint8)
        unmarked = now != old
        changed += int(unmarked.sum())
        for lo, hi in intervals:
            unmarked[max(lo - at, 0) : max(hi - at, 0)] = False
        missed = at + np.flatnonzero(unmarked)
        assert not missed.size, f"writes slipped the barrier at {[hex(a) for a in missed[:8]]}"
    return changed


def _slices_are_marked(proc, tracker, slices=None) -> tuple[int, int]:
    """Run *proc* one poll at a time under *tracker* (*slices* of them,
    else to its exit), holding every slice's changed bytes to what the
    barrier marked.  Returns (slices run, slices that changed a byte)."""
    memory = proc.memory
    ran = changed = 0
    while slices is None or ran < slices:
        before = _written_image(memory)
        memory.dirty = tracker
        proc.migration_pending = True
        proc.migrate_after_polls = 1
        result = proc.run()
        memory.dirty = None
        ran += 1
        changed += _assert_marked(before, memory, tracker.take()) > 0
        if result.status != "poll":
            assert slices is None, result
            break
    return ran, changed


def test_barriers_cover_every_store_entry_point():
    """Rounds ship only the unit runs the barrier marked, so a byte it
    misses is silent corruption at the destination (block granularity
    used to hide an under-reporting barrier: any marked byte shipped the
    whole block).  Ground truth is a byte diff of the global and heap
    segments across each slice — every byte that changed MUST lie inside
    a marked interval (over-marking is allowed) — first over every way a
    program writes, then over every mutating ``Memory`` entry point."""
    prog = _compile(BARRIER_SRC)
    proc = _stopped(prog, ULTRA5)
    memory = proc.memory
    tracker = DirtyTracker(memory.stack_seg.base, memory.stack_seg.limit)

    # the workload really was mutating: every slice changed a byte
    assert _slices_are_marked(proc, tracker, slices=16) == (16, 16)

    heap = memory.heap_alloc(64)
    glob = memory.global_alloc(64, 8)
    writes = [
        lambda at: memory.store("int", at + 4, 0x01020304),
        lambda at: memory.store("double", at + 8, 2.75),
        lambda at: memory.write_bytes(at + 3, b"\x11\x22\x33\x44\x55"),
        lambda at: memory.write_view(at + 16, 6).__setitem__(slice(None), b"abcdef"),
        lambda at: memory.array_view("short", at + 24, 5).__setitem__(slice(None), 7),
        lambda at: memory.write_array("int", at + 40, [9, 8, 7]),
        lambda at: memory.zero(at + 2, 30),
    ]
    for at in (heap, glob):
        for write in writes:
            before = _written_image(memory)
            memory.dirty = tracker
            write(at)
            memory.dirty = None
            assert _assert_marked(before, memory, tracker.take()) > 0


@pytest.mark.parametrize("arch", [DEC5000, SPARC20], ids=lambda a: a.name)
@pytest.mark.parametrize("entry", load_corpus(), ids=lambda e: e.name)
def test_barriers_cover_every_slice_of_every_corpus_program(entry, arch):
    """The slice half of the ground truth above over every corpus
    program, at both ends of a little- to big-endian pair, from start
    to exit: whatever store paths the interpreter takes, a byte no
    barrier marked never changes."""
    proc = Process(_compile(entry.source), arch)
    proc.start()
    tracker = DirtyTracker(proc.memory.stack_seg.base, proc.memory.stack_seg.limit)
    ran, changed = _slices_are_marked(proc, tracker)
    assert proc.exited and changed >= 1, (ran, changed)


def test_realloc_grow_fires_barrier():
    src = """
    int main() {
        int *p; int i;
        p = (int *) malloc(2 * sizeof(int));
        p[0] = 7; p[1] = 9;
        migrate_here();
        p = (int *) realloc(p, 8 * sizeof(int));
        for (i = 2; i < 8; i++) p[i] = i;
        migrate_here();
        printf("%d\\n", p[0] + p[7]);
        return 0;
    }
    """
    prog = _compile(src)
    proc = _stopped(prog, ULTRA5)
    memory = proc.memory
    tracker = DirtyTracker(memory.stack_seg.base, memory.stack_seg.limit)
    memory.dirty = tracker
    proc.migration_pending = True
    proc.migrate_after_polls = 1
    assert proc.run().status == "poll"
    memory.dirty = None
    dirty = set()
    for lo, hi in tracker.take():
        for b in proc.msrlt.blocks_overlapping(lo, hi):
            dirty.add(b.logical)
    # the grown block is a NEW heap block (fresh serial) whose copied +
    # appended contents were written through barriered paths
    heap_blocks = [b for b in proc.msrlt.blocks()
                   if b.logical[0] == BlockKind.HEAP]
    assert len(heap_blocks) == 1
    assert heap_blocks[0].logical in dirty


# -- delta rounds through the engine -------------------------------------


def _precopy_migrate(prog, src_arch, dst_arch, policy=None, **kw):
    proc = _stopped(prog, src_arch)
    dest, stats = ENGINE.migrate(
        proc, dst_arch, precopy=True,
        precopy_policy=policy or PrecopyPolicy(max_rounds=4, stop_dirty_blocks=0),
        **kw,
    )
    return dest, stats


@pytest.mark.parametrize("field, value", [
    ("max_rounds", -1), ("stop_dirty_blocks", -1), ("slice_polls", 0),
])
def test_policy_refuses_a_threshold_no_slice_can_meet(field, value):
    """A negative ``stop_dirty_blocks`` is never reached by a dirty
    count: refused when the policy is built, like its two siblings."""
    with pytest.raises(ValueError, match=f"{field} must be"):
        PrecopyPolicy(**{field: value})
    assert getattr(PrecopyPolicy(**{field: value + 1}), field) == value + 1


class TestPrecopyEngine:
    def test_end_to_end_matches_unmigrated_run(self):
        prog = _compile(MUTATOR_SRC)
        baseline = run_baseline(prog, ULTRA5)
        dest, stats = _precopy_migrate(prog, ULTRA5, SPARC20)
        code = dest.run_to_completion()
        assert code == baseline.exit_code
        assert dest.stdout == baseline.stdout
        assert fingerprint_diff(heap_fingerprint(dest), baseline.fingerprint) is None
        assert stats.precopy and not stats.precopy_degraded
        assert stats.precopy_rounds >= 2  # snapshot + forced delta rounds

    def test_round_byte_attribution_is_exact(self):
        prog = _compile(MUTATOR_SRC)
        _dest, stats = _precopy_migrate(prog, ULTRA5, ALPHA)
        assert stats.precopy_round_bytes, "no per-round attribution"
        assert sum(stats.precopy_round_bytes) == stats.precopy_bytes
        assert len(stats.precopy_round_bytes) == stats.precopy_rounds
        # the snapshot dominates; every delta round is strictly smaller
        assert all(r < stats.precopy_round_bytes[0]
                   for r in stats.precopy_round_bytes[1:])

    def test_final_stream_elides_cached_blocks(self):
        prog = _compile(MUTATOR_SRC)
        plain = _stopped(prog, ULTRA5)
        payload_plain, plain_info = collect_state(plain)
        _dest, stats = _precopy_migrate(prog, ULTRA5, SPARC20)
        # the stop-and-copy payload must be smaller than a full
        # collection: a clean block is born visited, so it costs one REF
        # wherever it is pointed to and no BLOCK record anywhere
        assert stats.payload_bytes < len(payload_plain)
        assert 0 < stats.collect.n_blocks < plain_info.stats.n_blocks
        assert stats.restore.n_blocks == stats.collect.n_blocks
        assert stats.collect.n_refs > plain_info.stats.n_refs

    def test_streaming_final(self):
        prog = _compile(MUTATOR_SRC)
        baseline = run_baseline(prog, ULTRA5)
        dest, stats = _precopy_migrate(
            prog, ULTRA5, DEC5000, streaming=True, chunk_size=128,
        )
        assert dest.run_to_completion() == baseline.exit_code
        assert dest.stdout == baseline.stdout
        assert stats.streamed and stats.precopy
        # the pause starts when the last slice returns, not when the
        # final stream does
        assert stats.precopy_downtime_s > stats.pipeline_time

    def test_socket_channel_rounds(self):
        prog = _compile(MUTATOR_SRC)
        baseline = run_baseline(prog, ULTRA5)
        ch = SocketChannel()
        try:
            dest, stats = ENGINE.migrate(
                _stopped(prog, ULTRA5), SPARC20, channel=ch,
                precopy=True, streaming=True, chunk_size=256,
                precopy_policy=PrecopyPolicy(max_rounds=3, stop_dirty_blocks=0),
            )
        finally:
            ch.close()
        assert dest.run_to_completion() == baseline.exit_code
        assert dest.stdout == baseline.stdout
        assert stats.precopy_rounds >= 2

    def test_source_exit_during_slice_raises(self):
        src = """
        int g;
        int main() {
            g = 1; migrate_here();
            g = 2; migrate_here();
            printf("%d\\n", g);
            return 0;
        }
        """
        prog = _compile(src)
        proc = _stopped(prog, ULTRA5)
        with pytest.raises(PrecopySourceExitedError):
            ENGINE.migrate(
                proc, SPARC20, precopy=True,
                precopy_policy=PrecopyPolicy(max_rounds=8, stop_dirty_blocks=0),
            )
        # the source genuinely finished; its output is intact
        assert proc.exited and proc.stdout == "2\n"

    def test_source_fault_during_slice_is_typed(self):
        """The guest stores through a NULLed pointer two polls after the
        stop: that is the program's fault, not wire damage — one typed
        error with the guest's fault as its cause, no retry, no degraded
        pass, the source left where the fault left it."""
        src = """
        int cells[64];
        int *p;
        int main() {
            int r; int i;
            p = &cells[0];
            for (r = 0; r < 8; r++) {
                migrate_here();
                for (i = 0; i < 64; i++) cells[i] = r + i;
                if (r == 2) p = NULL;
                *p = r;
            }
            printf("%d\\n", cells[0]);
            return 0;
        }
        """
        proc = _stopped(_compile(src), ULTRA5)
        with pytest.raises(PrecopySourceFaultedError, match="NULL pointer") as excinfo:
            ENGINE.migrate(
                proc, SPARC20, precopy=True,
                max_attempts=3,
                precopy_policy=PrecopyPolicy(
                    max_rounds=6, stop_dirty_blocks=0, slice_polls=1
                ),
            )
        error = excinfo.value
        assert isinstance(error.__cause__, GuestFault)
        assert isinstance(error.__cause__.__cause__, MemoryFault)
        stats = error.stats
        assert stats.retries == 0 and not stats.precopy_degraded
        # the snapshot and the two rounds before the fault did ship
        assert len(stats.precopy_round_bytes) == 3
        assert stats.obs.events.of_type("precopy_degraded") == []
        assert not proc.exited and proc.frames and proc.polls == 3
        assert proc.memory.dirty is None and proc.msrlt.journal is None

    def test_degrades_to_stop_and_copy_on_round_failure(self):
        """The connection drops on the snapshot round's first send: the
        phase is off, and the plain pass arrives on the reset channel."""
        prog = _compile(MUTATOR_SRC)
        baseline = run_baseline(prog, ULTRA5)
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("disconnect@0"))
        proc = _stopped(prog, ULTRA5)
        dest, stats = ENGINE.migrate(
            proc, SPARC20, channel=ch, precopy=True,
            precopy_policy=PrecopyPolicy(max_rounds=4, stop_dirty_blocks=0),
        )
        assert [f.kind for f in ch.faults_fired] == ["disconnect"]
        assert stats.precopy_degraded and not stats.precopy
        assert stats.precopy_downtime_s == 0.0
        assert dest.run_to_completion() == baseline.exit_code
        assert dest.stdout == baseline.stdout

    @pytest.mark.parametrize("kind", ["channel", "socket", "default"])
    def test_round_damaged_mid_stream_degrades_on_every_channel(
        self, kind, tmp_path, capsys
    ):
        """``bitflip@1`` flips a bit of the snapshot round's second
        frame: the receiver refuses the round with later frames still
        queued, and the plain pass that follows starts on a reset
        channel — the caller's in-memory or socket one, or the one
        ``repro migrate --fault`` builds — instead of reading a stale
        round frame as its context frame."""
        spec = "bitflip@1:128"  # the low bit of the frame's first payload byte
        source = structgrid_source()
        if kind == "default":
            path = tmp_path / "structgrid.c"
            path.write_text(source)
            assert cli_main([
                "migrate", str(path), "--poll-strategy", "user",
                "--from", "x86_64", "--to", "sparc20", "--precopy",
                "--chunk-size", "4096", "--fault", spec,
            ]) == 0
            err = capsys.readouterr().err.splitlines()
            assert "[pre-copy degraded to plain stop-and-copy]" in err
            assert "[output identical to an unmigrated run]" in err
            return
        prog = _compile(source)
        baseline = run_baseline(prog, X86_64)
        inner = Channel(LOOPBACK) if kind == "channel" else SocketChannel(LOOPBACK)
        channel = FaultyChannel(inner, FaultPlan.parse(spec))
        try:
            dest, stats = ENGINE.migrate(
                _stopped(prog, X86_64), SPARC20, channel=channel, precopy=True,
                chunk_size=4096, max_attempts=1,
            )
        finally:
            channel.close()
        # the flip happened, in the snapshot round
        assert [(f.kind, f.index) for f in channel.faults_fired] == [("bitflip", 1)]
        assert stats.precopy_degraded and not stats.precopy
        assert stats.attempts == 1
        assert dest.run_to_completion() == baseline.exit_code
        assert dest.stdout == baseline.stdout

    def test_default_path_does_not_touch_precopy_machinery(self):
        prog = _compile(MUTATOR_SRC)
        ch = Channel(LOOPBACK)
        proc = _stopped(prog, ULTRA5)
        payload_expected, _ = collect_state(proc)
        dest, stats = ENGINE.migrate(proc, SPARC20, channel=ch)
        assert not stats.precopy and not stats.precopy_degraded
        assert stats.precopy_rounds == 0 and stats.precopy_bytes == 0
        assert ch.delta_bytes_sent == 0
        # wire bytes identical to a plain collection (PR 8 invariant)
        assert stats.payload_bytes == len(payload_expected)
        assert dest.run_to_completion() == 0


def test_collector_fault_in_a_round_is_typed():
    """A slice stores a pointer into struct padding: collecting the dirty
    block for the round fails exactly as a full collection would — a
    ``CollectError``, not the collector's raw ``ValueError`` — and the
    source stays where it stopped, runnable."""
    src = """
    struct pad { char c; double d; };
    struct pad g;
    char *p;
    int t;
    int main() {
        int i;
        for (i = 0; i < 4; i++) {
            migrate_here();
            t = t + 1;
            if (i == 1) p = (char *) &g + 1;
        }
        migrate_here();
        printf("%d\\n", t);
        return 0;
    }
    """
    prog = _compile(src)
    proc = _stopped(prog, ULTRA5)
    with pytest.raises(CollectError, match="pointer into padding"):
        ENGINE.migrate(
            proc, SPARC20, precopy=True,
            precopy_policy=PrecopyPolicy(max_rounds=3, stop_dirty_blocks=0),
        )
    assert proc.memory.dirty is None and proc.msrlt.journal is None
    proc.migration_pending = False
    assert proc.run_to_completion() == 0 and proc.stdout == "4\n"


def test_final_collector_with_empty_cache_is_byte_identical():
    """The collector born with empty ledgers writes exactly the plain
    collector's stream, no trailing byte — a plain stream is a final
    stream with nothing held — and it restores like it."""
    prog = _compile(MUTATOR_SRC)
    proc = _stopped(prog, ULTRA5)
    plain, _ = collect_state(proc)
    finalized, _ = collect_state(proc, fresh=set(), stale=set())
    assert finalized == plain
    dest = Process(prog, SPARC20)
    restore_state(prog, finalized, dest, held={})
    reference = Process(prog, SPARC20)
    restore_state(prog, plain, reference)
    assert collect_state(dest)[0] == collect_state(reference)[0]


# -- satellite 2: fault-plan determinism ---------------------------------


class TestFaultDeterminism:
    def test_delta_frames_advance_send_index(self):
        """A round is a chunk stream: each of its frames and its
        terminator take a fault-plan send index, like any data frame."""
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan())
        assert precopy_module.ship_stream(ch, b"round payload", 4) == b"round payload"
        assert ch._send_index == 5  # four chunks, then the terminator

    def test_closed_channel_refuses_delta_frames(self):
        plan = FaultPlan.parse("disconnect@0")
        ch = FaultyChannel(Channel(LOOPBACK), plan)
        with pytest.raises(ChannelError):
            ch.send_chunk(b"x")  # fires the disconnect
        with pytest.raises(ChannelClosedError):
            precopy_module.ship_stream(ch, b"round", 64)

    def test_seeded_faults_reach_precopy_rounds(self):
        """The plan numbers every data send of a run, pre-copy rounds
        first: the spec that costs a plain migration one attempt lands
        in the snapshot round with pre-copy on, which degrades the phase
        instead (DESIGN §7)."""
        prog = _compile(MUTATOR_SRC)

        def run(precopy: bool):
            plan = FaultPlan.parse("bitflip@1:3")
            proc = _stopped(prog, ULTRA5)
            dest, stats = ENGINE.migrate(
                proc, SPARC20,
                channel=FaultyChannel(Channel(LOOPBACK), plan),
                streaming=True, chunk_size=256,
                max_attempts=3,
                precopy=precopy,
                precopy_policy=(
                    PrecopyPolicy(max_rounds=2, stop_dirty_blocks=0)
                    if precopy else None
                ),
            )
            assert dest.run_to_completion() == 0
            assert plan.pending == 0
            return stats.attempts, stats.precopy_degraded

        assert run(False) == (2, False)  # fault fired, retry cured
        assert run(True) == (1, True)  # fault fired in a round, phase degraded


#: the indexed sends of a clean run of the mutator under ``TWO_ROUNDS``,
#: in order: the snapshot's and two delta rounds' one chunk and
#: terminator each, then the final stream's
ROUND_SENDS, FINAL_SENDS = 6, 2
#: a plain attempt after a failure is one chunk and the terminator too
PLAIN_SENDS = 2


class TestFaultsReachRounds:
    """Every fault kind at every send of a pre-copy migration, on the
    in-memory and the socket channel."""

    def migrate(self, wire: str, plan: FaultPlan):
        """``(source, the FaultyChannel, what migrate() returned or
        raised)`` for one pre-copy migration of the mutator under *plan*
        (a lost frame is a timeout at once, on the socket too)."""
        source = _stopped(_compile(MUTATOR_SRC), ULTRA5)
        inner = Channel(LOOPBACK) if wire == "channel" else SocketChannel(LOOPBACK)
        channel = FaultyChannel(inner, plan)
        try:
            return source, channel, ENGINE.migrate(
                source, SPARC20, channel=channel, precopy=True,
                precopy_policy=TWO_ROUNDS,
                max_attempts=2,
            )
        except MigrationAbortedError as exc:
            return source, channel, exc
        finally:
            channel.close()

    @pytest.mark.parametrize("wire", ["channel", "socket"])
    def test_a_clean_run_numbers_every_round(self, wire):
        _, channel, (_, stats) = self.migrate(wire, FaultPlan())
        assert stats.precopy_rounds == 3 and stats.precopy
        assert channel._send_index == ROUND_SENDS + FINAL_SENDS

    def test_a_refused_round_does_not_wait_for_a_blocked_sender(self):
        """An 800 KB snapshot round over a socket, its second frame
        flipped: the receiver refuses it while the sender still has more
        than the kernel buffer holds to write.  The consumer breaks the
        pipe instead of joining a producer that can never finish (it
        used to hang here), the phase degrades, and the plain pass on
        the reset socket arrives."""
        prog = _compile("""
        double big[100000];
        int main() {
            int r;
            for (r = 0; r < 4; r++) { migrate_here(); big[r * 997] = r; }
            printf("%g\\n", big[997] + big[2991]);
            return 0;
        }
        """)
        channel = FaultyChannel(SocketChannel(LOOPBACK), FaultPlan.parse("bitflip@1:200"))
        outcome = []
        migration = threading.Thread(target=lambda: outcome.append(ENGINE.migrate(
            _stopped(prog, ULTRA5), SPARC20, channel=channel, precopy=True,
            max_attempts=3,
        )))
        migration.start()
        migration.join(timeout=60)
        channel.close()
        assert not migration.is_alive(), "the refused round hung its sender"
        ((dest, stats),) = outcome
        assert stats.precopy_degraded and stats.attempts == 1
        assert dest.run_to_completion() == 0 and dest.stdout == "4\n"

    @pytest.mark.parametrize("persistent", [False, True], ids=["transient", "persistent"])
    @pytest.mark.parametrize("kind", Fault.KINDS)
    @pytest.mark.parametrize("wire", ["channel", "socket"])
    def test_every_send_index(self, wire, kind, persistent):
        """A transient fault anywhere ends in the unmigrated output: a
        round's degrades the phase, the final pass's costs a retry (of a
        plain pass) too.  A persistent one ends in a typed abort with the
        source resumable wherever every attempt meets it — the first
        sends of a plain pass; past those, the plain pass the phase
        degrades to arrives."""
        baseline = run_baseline(_compile(MUTATOR_SRC), ULTRA5)
        for index in range(ROUND_SENDS + FINAL_SENDS):
            plan = FaultPlan([Fault(kind, index, persistent=persistent)])
            source, channel, outcome = self.migrate(wire, plan)
            assert channel.faults_fired, index
            if persistent and index < PLAIN_SENDS:
                assert isinstance(outcome, MigrationAbortedError), index
                assert isinstance(outcome.last_error, RETRYABLE_ERRORS)
                source.migration_pending = False
                assert source.run().status == "exit"
                assert source.stdout == baseline.stdout
                continue
            dest, stats = outcome
            assert stats.precopy_degraded and not stats.precopy, index
            assert stats.retries == (index >= ROUND_SENDS), index
            assert dest.run_to_completion() == baseline.exit_code
            assert dest.stdout == baseline.stdout


# -- satellite 3: overlap ratio folds round time -------------------------


def test_overlap_ratio_folds_precopy_round_time():
    """A 3-round pre-copy's tx/codec seconds are serial work the final
    pipeline never overlapped; they must appear on BOTH sides of the
    overlap ratio.  Pre-PR, the ratio ignored them entirely and a
    3-round pre-copy reported the bare pipeline's (higher) overlap."""
    stats = MigrationStats(
        collect_time=0.010, tx_time=0.010, restore_time=0.010,
        n_chunks=10, streamed=True,
        precopy_rounds=3, precopy_tx_time=0.020, precopy_codec_time=0.010,
    )
    stats.finish_pipeline()
    extra = stats.precopy_tx_time + stats.precopy_codec_time
    serial = stats.migration_time + extra
    expected = 1.0 - (stats.pipeline_time + extra) / serial
    assert stats.overlap_ratio == pytest.approx(expected)
    # and it is strictly below the bare-pipeline ratio it used to report
    bare = MigrationStats(
        collect_time=0.010, tx_time=0.010, restore_time=0.010,
        n_chunks=10, streamed=True,
    )
    bare.finish_pipeline()
    assert stats.overlap_ratio < bare.overlap_ratio
    assert 0.0 <= stats.overlap_ratio < 1.0


# -- satellite 4: corpus replay through pre-copy -------------------------

PRECOPY_PAIRS = (
    ("dec5000", "alpha"),    # LE/32 -> LE/64
    ("alpha", "sparc20"),    # LE/64 -> BE/32
    ("sparc20", "x86_64"),   # BE/32 -> LE/64
    ("x86_64", "dec5000"),   # LE/64 -> LE/32
)
_ARCH = {"dec5000": DEC5000, "alpha": ALPHA, "sparc20": SPARC20,
         "ultra5": ULTRA5, "x86_64": X86_64}

CORPUS = {e.name: e for e in load_corpus()}
#: churn (address reuse + realloc) and pastend (boundary pointers) are
#: the cases most likely to trip delta-round bookkeeping
PRECOPY_CORPUS = [
    name for name in (
        "gen_churn", "gen_pastend", "gen_list_churn", "gen_pastend_churn",
        "gen_mixed_churn", "gen_interior_pastend_churn",
    ) if name in CORPUS
]


@pytest.mark.parametrize("entry_name", PRECOPY_CORPUS)
@pytest.mark.parametrize("pair", PRECOPY_PAIRS, ids=lambda p: f"{p[0]}->{p[1]}")
def test_corpus_replays_through_precopy(entry_name, pair):
    entry = CORPUS[entry_name]
    prog = _compile(entry.source)
    src_arch, dst_arch = _ARCH[pair[0]], _ARCH[pair[1]]
    baseline = run_baseline(prog, src_arch)
    if baseline.total_polls < 4:
        pytest.skip("program too short for delta rounds")
    # leave headroom so the pre-copy slices never outrun the program
    rounds = min(3, baseline.total_polls - 2)
    proc = _stop_at_poll(prog, src_arch, 1)
    assert proc is not None
    dest, stats = ENGINE.migrate(
        proc, dst_arch, precopy=True,
        precopy_policy=PrecopyPolicy(max_rounds=rounds, stop_dirty_blocks=0),
    )
    code = dest.run_to_completion()
    assert code == baseline.exit_code
    assert dest.stdout == baseline.stdout
    assert fingerprint_diff(heap_fingerprint(dest), baseline.fingerprint) is None
    assert sum(stats.precopy_round_bytes) == stats.precopy_bytes
    assert stats.precopy and stats.precopy_rounds >= 2


# -- born visited: what the stub walk used to do implicitly --------------

# the last slice (r == 2 under max_rounds=2) writes a node only two clean
# nodes lead to, and dirties a node and then drops the only pointer to it
TAIL_SRC = """
struct node { int v; struct node *next; };
struct node *head;
struct node *stash;
int ticks;

void push(int v) {
    struct node *n;
    n = (struct node *) malloc(sizeof(struct node));
    n->v = v; n->next = head; head = n;
}

int main() {
    int r;
    push(3); push(2); push(1);
    stash = (struct node *) malloc(sizeof(struct node));
    stash->v = 7; stash->next = NULL;
    for (r = 0; r < 6; r++) {
        migrate_here();
        ticks = ticks + 1;
        if (r == 2) {
            head->next->next->v = 99;
            stash->v = 123;
            stash = NULL;
        }
    }
    migrate_here();
    printf("%d %d %d %d\\n", head->v, head->next->v, head->next->next->v, ticks);
    return 0;
}
"""

# a clean heap block (bx) and chain-shaped nodes dirtied every slice both
# hold &local of main; the snapshot is taken in main, the stop in deeper()
STACK_REF_SRC = """
struct box { int *p; int pad; };
struct link { int *where; int v; struct link *next; };
struct box *bx;
struct link *links;
int ticks;

void deeper(int r) {
    migrate_here();
    ticks = ticks + r;
}

int main() {
    int local; int r;
    struct link *l;
    local = 5;
    bx = (struct box *) malloc(sizeof(struct box));
    bx->p = &local; bx->pad = 1;
    links = NULL;
    for (r = 0; r < 6; r++) {
        if (r % 2 == 1) deeper(r);
        else { migrate_here(); ticks = ticks + 1; }
        local = local + 10;
        l = (struct link *) malloc(sizeof(struct link));
        l->where = &local; l->v = r; l->next = links; links = l;
    }
    migrate_here();
    printf("%d %d %d\\n", *bx->p, *links->where + links->v, ticks);
    return 0;
}
"""

TWO_ROUNDS = PrecopyPolicy(max_rounds=2, stop_dirty_blocks=0)


def _assert_like_unmigrated(dest, baseline):
    assert dest.run_to_completion() == baseline.exit_code
    assert dest.stdout == baseline.stdout
    assert fingerprint_diff(heap_fingerprint(dest), baseline.fingerprint) is None


@pytest.mark.parametrize("pair", PRECOPY_PAIRS, ids=lambda p: f"{p[0]}->{p[1]}")
def test_tail_roots_carry_what_no_root_reaches(pair):
    prog = _compile(TAIL_SRC)
    src_arch, dst_arch = _ARCH[pair[0]], _ARCH[pair[1]]
    dest, stats = _precopy_migrate(
        prog, src_arch, dst_arch, policy=TWO_ROUNDS, attribution=True
    )
    assert stats.precopy and stats.precopy_rounds == 3
    # the leaked node arrived with its last write, next to the live ones
    values = sorted(dest.memory.load("int", b.addr) for b in dest.msrlt.heap_blocks())
    assert values == [1, 2, 99, 123]
    # the tail markers are framing: rows + framing == payload, exactly
    attr = stats.attribution
    assert attr["payload_bytes"] == stats.payload_bytes
    assert sum(r["bytes"] for r in attr["rows"]) == stats.payload_bytes
    _assert_like_unmigrated(dest, run_baseline(prog, src_arch))


@pytest.mark.parametrize("pair", PRECOPY_PAIRS, ids=lambda p: f"{p[0]}->{p[1]}")
def test_clean_block_keeps_its_stack_pointer_across_call_depths(pair):
    prog = _compile(STACK_REF_SRC)
    src_arch, dst_arch = _ARCH[pair[0]], _ARCH[pair[1]]
    proc = _stopped(prog, src_arch)
    assert len(proc.frames) == 1
    dest, stats = ENGINE.migrate(
        proc, dst_arch, precopy=True, precopy_policy=TWO_ROUNDS
    )
    assert stats.precopy and len(dest.frames) == 2
    # a chain node holding &local cannot ship in a round (the stack is
    # unregistered while the source runs): deferred, not a crash — and
    # so is ``links``, which points at the newest of them, and every
    # older node, which points at a deferred one
    rounds = stats.obs.events.of_type("precopy_round")
    assert [e["deferred"] for e in rounds] == [0, 2, 3]
    _assert_like_unmigrated(dest, run_baseline(prog, src_arch))


class TestHostileFinalStream:
    """Tag 3 is a bad tag again and the tail section has two markers:
    anything else is a typed error, and the engine falls back to the
    plain stop-and-copy or leaves the source runnable."""

    @pytest.fixture
    def final(self):
        """(program, pre-warmed scratch, final payload with a tail root,
        offset of the root record of the clean global ``head``); the
        scratch's ``held`` ledger is ``self.held``."""
        prog = _compile(TAIL_SRC)
        proc = _stopped(prog, ULTRA5)
        scratch = Process(prog, SPARC20)
        state = run_precopy(
            proc, scratch, Channel(LOOPBACK), TWO_ROUNDS, MigrationStats(), 4096
        )
        head_at = []

        class Noting(Collector):
            def save_variable(self, block):
                if block.logical == (BlockKind.GLOBAL, 0, 0):
                    head_at.append(self.buf.nbytes)
                super().save_variable(block)

        with mock.patch.object(engine_module, "Collector", Noting):
            payload, _ = collect_state(proc, state.fresh, state.stale)
        self.held = state.held
        return prog, scratch, bytes(payload), head_at[0]

    def test_pristine_final_payload_restores(self, final):
        prog, scratch, payload, head_at = final
        assert payload[head_at] == 1  # a clean global is one root REF
        restore_state(prog, payload, scratch, self.held)

    def test_bad_tail_marker_is_typed(self, final):
        prog, scratch, payload, _ = final
        with pytest.raises(MsrRestoreError, match="bad tail marker 7"):
            restore_state(prog, payload + b"\x07", scratch, self.held)

    def test_tag_three_is_a_bad_tag(self, final):
        prog, scratch, payload, head_at = final
        forged = payload[:head_at] + b"\x03" + payload[head_at + 1 :]
        with pytest.raises(MsrRestoreError, match="bad record tag 3"):
            restore_state(prog, forged, scratch, self.held)

    @pytest.mark.parametrize("lead, lie", [
        (0x01 | 3 << 2, "unknown block kind 3"),
        (0x01 | 0x10, "BLOCK bits on a REF"),
        (0x01 | 0x40, "BLOCK bits on a REF"),
        (0x01 | 0x80, "reserved bit 7"),
        (0x02 << 2, "NULL is the single byte 0x00"),
    ], ids=["kind-3", "flat-ref", "ordinal-follows-ref", "bit-7", "null-with-a-kind"])
    def test_an_undefined_lead_is_typed(self, final, lead, lie):
        """The root REF of the clean global, its lead swapped for one the
        grammar does not define."""
        prog, scratch, payload, head_at = final
        forged = payload[:head_at] + bytes([lead]) + payload[head_at + 1 :]
        with pytest.raises(MsrRestoreError, match=lie):
            restore_state(prog, forged, scratch, self.held)
        assert_table_whole(scratch)

    @staticmethod
    def block_restored_in_place(scratch, payload):
        """(offset, header, block) of a BLOCK record in the final
        *payload* for a heap block the scratch already holds."""
        for block in scratch.msrlt.heap_blocks():
            type_id = scratch.ti.info_for(block.elem_type).type_id
            header = block_header(block.logical, type_id)
            at = payload.find(header)
            if at >= 0:
                return at, header, block
        pytest.fail("the final stream carries no BLOCK for a pre-copied heap block")

    @pytest.mark.parametrize("bit, field, lie", [
        (0x20, 1, "spells out count 1"), (0x40, 0, "spells out ordinal 0"),
    ], ids=["count-1", "ordinal-0"])
    def test_a_field_spelling_out_its_constant_is_typed(self, final, bit, field, lie):
        """Encodings are canonical: the BLOCK of a pre-copied heap block,
        restored in place, with a field the record has no use for."""
        prog, scratch, payload, _ = final
        at, header, _ = self.block_restored_in_place(scratch, payload)
        forged = (
            payload[:at] + spelled_out(header, bit, field) + payload[at + len(header):]
        )
        with pytest.raises(MsrRestoreError, match=lie):
            restore_state(prog, forged, scratch, self.held)
        assert_table_whole(scratch)

    def test_block_restored_in_place_must_keep_its_size(self, final):
        """A BLOCK record for a heap block the scratch already holds is
        restored in place — so a record that claims another element
        count would write past it."""
        prog, scratch, payload, _ = final
        at, header, block = self.block_restored_in_place(scratch, payload)
        type_id = scratch.ti.info_for(block.elem_type).type_id
        forged = (
            payload[:at] + block_header(block.logical, type_id, count=2)
            + payload[at + len(header):]
        )
        with pytest.raises(MsrRestoreError, match="pre-copied block is"):
            restore_state(prog, forged, scratch, self.held)

    @pytest.fixture
    def forged_tail(self, monkeypatch):
        """The final stream's tail section is one bad marker; the
        snapshot's, the rounds' and a plain pass's are left alone."""
        honest = Collector.save_tail

        def save_tail(self, *round_markers):
            if self.deferred is None and self._stale is not None:
                self.buf.write_u8(7)
            else:
                honest(self, *round_markers)

        monkeypatch.setattr(Collector, "save_tail", save_tail)

    def test_engine_degrades_to_plain_stop_and_copy(self, forged_tail, monkeypatch):
        """The failed final pass owned the ledgers and grew them (its
        visited marks, its stack and new-block mappings); the plain pass
        that follows starts from none of it."""
        handed = []

        def noting(*args):
            state = run_precopy(*args)
            handed.append((state, len(state.fresh), len(state.held)))
            return state

        monkeypatch.setattr(precopy_module, "run_precopy", noting)
        prog = _compile(TAIL_SRC)
        dest, stats = _precopy_migrate(
            prog, ULTRA5, SPARC20, policy=TWO_ROUNDS,
            max_attempts=2,
        )
        assert stats.precopy_degraded and not stats.precopy
        assert stats.attempts == 2 and stats.precopy_downtime_s == 0.0
        ((state, n_fresh, n_held),) = handed
        assert len(state.fresh) > n_fresh and len(state.held) > n_held
        _assert_like_unmigrated(dest, run_baseline(prog, ULTRA5))

    def test_source_stays_resumable_without_retries(self, forged_tail):
        prog = _compile(TAIL_SRC)
        proc = _stopped(prog, ULTRA5)
        with pytest.raises(MigrationAbortedError) as excinfo:
            ENGINE.migrate(proc, SPARC20, precopy=True, precopy_policy=TWO_ROUNDS)
        assert isinstance(excinfo.value.last_error, RestoreError)
        proc.migration_pending = False
        assert proc.run_to_completion() == 0
        assert proc.stdout == run_baseline(prog, ULTRA5).stdout


# -- hostile rounds: structurally valid round payloads that lie -----------

HOSTILE_SRC = """
struct node { int v; struct node *next; };
int cells[16];
struct node *head;
int ticks;

int main() {
    int i; struct node *n;
    for (i = 0; i < 16; i++) cells[i] = i;
    for (i = 0; i < 3; i++) {
        n = (struct node *) malloc(sizeof(struct node));
        n->v = i; n->next = head; head = n;
    }
    for (i = 0; i < 4; i++) { migrate_here(); cells[i] = 100 + i; ticks = ticks + 1; }
    migrate_here();
    for (i = 0; i < 16; i++) ticks = (ticks * 31 + cells[i]) % 10007;
    for (n = head; n != NULL; n = n->next) ticks = ticks * 7 + n->v;
    printf("%d\\n", ticks);
    return 0;
}
"""


def _logical(logical) -> bytes:
    """A block id outside any record, spelled out from the grammar:
    ``u8 kind``, ``u32 a``, ``u32 b`` for a stack id only."""
    kind, a, b = logical
    ids = struct.pack(">II", a, b) if kind == BlockKind.STACK else struct.pack(">I", a)
    return bytes([kind]) + ids


def _round(*markers, round_no=1) -> bytes:
    """A round payload: ``u32 round_no`` and the tail section's *markers*
    (each its marker byte and body), to the end of the payload."""
    return struct.pack(">I", round_no) + b"".join(markers)


def _runs(logical, *runs, n_runs=None) -> bytes:
    """A runs marker; *runs* are ``(first_unit, n_units, contents)``."""
    body = b"\x02" + _logical(logical)
    body += struct.pack(">I", len(runs) if n_runs is None else n_runs)
    for first, n, contents in runs:
        body += struct.pack(">II", first, n) + contents
    return body


def _freed(logical) -> bytes:
    return b"\x03" + _logical(logical)


def _ints(*values) -> bytes:
    """The contents of a run of ``int`` units."""
    return b"".join(struct.pack(">i", v) for v in values)


class TestHostileRounds:
    """A round that passed its CRC can still lie about the blocks it
    names.  Every lie is a typed ``RestoreError`` that says which, costs
    no more than the payload holds, and leaves the scratch's table and
    heap ledger in agreement; through the engine it is the ordinary
    degrade to a plain stop-and-copy."""

    @pytest.fixture
    def scratch(self):
        """(pre-warmed scratch, its ``held`` ledger, logical of ``int
        cells[16]``)."""
        prog = _compile(HOSTILE_SRC)
        proc = _stopped(prog, ULTRA5)
        scratch = Process(prog, SPARC20)
        restore_state(prog, collect_state(proc)[0], scratch)
        cells = next(b.logical for b in scratch.msrlt.blocks() if b.name == "cells")
        return scratch, scratch.msrlt.non_stack_by_logical(), cells

    @staticmethod
    def land(scratch, held, payload):
        """What ``run_precopy`` does with round 1 as it arrives."""
        with restore_errors("pre-copy round 1"):
            return precopy_module._restore_round(scratch, payload, 1, held)

    def refused(self, scratch, held, payload, lie):
        with pytest.raises(RestoreError, match=lie):
            self.land(scratch, held, payload)
        assert_table_whole(scratch)

    @staticmethod
    def int_id(scratch, cells) -> int:
        """The wire type id of ``int``."""
        return scratch.ti.info_for(scratch.msrlt.lookup_logical(cells).elem_type.elem).type_id

    def test_pristine_run_round_lands_where_it_says(self, scratch):
        scratch, held, cells = scratch
        runs = _runs(cells, (2, 2, _ints(-7, 9)), (15, 1, _ints(4)))
        self.land(scratch, held, _round(runs))
        block = scratch.msrlt.lookup_logical(cells)
        got = [scratch.memory.load("int", block.addr + 4 * i) for i in range(16)]
        assert got == [0, 1, -7, 9, *range(4, 15), 4]
        assert_table_whole(scratch)

    @pytest.mark.parametrize("runs, n_runs, lie", [
        (((14, 4, _ints(1, 2, 3, 4)),), None, "stay inside their block"),
        (((8, 2, _ints(1, 2)), (2, 2, _ints(3, 4))), None, "ascend without overlap"),
        (((2, 4, _ints(1, 2, 3, 4)), (4, 2, _ints(5, 6))), None, "ascend without overlap"),
        (((3, 0, _ints()),), None, "runs are not empty"),
        (((0, 1, _ints(5)),), 0, "has at least one"),
        (((0, 1, _ints(5)),), 2**32 - 1, "payload ends before that many"),
    ], ids=["past-end", "out-of-order", "overlapping", "zero-length", "no-runs", "count-2^32-1"])
    def test_a_run_that_lies_is_typed(self, scratch, runs, n_runs, lie):
        scratch, held, cells = scratch
        self.refused(scratch, held, _round(_runs(cells, *runs, n_runs=n_runs)), lie)

    @pytest.mark.parametrize("logical", [
        (BlockKind.HEAP, 999, 0), (BlockKind.STACK, 0, 0),
    ], ids=["unknown-heap", "stack"])
    def test_runs_for_a_block_the_scratch_does_not_hold(self, scratch, logical):
        scratch, held, _ = scratch
        payload = _round(_runs(logical, (0, 1, _ints(1))))
        self.refused(scratch, held, payload, "a block the destination does not hold")

    def test_runs_for_a_block_this_round_registered(self, scratch):
        """A root may carve a block and a later runs marker patch it: the
        block is held from the moment its record landed."""
        scratch, held, cells = scratch
        fresh = (BlockKind.HEAP, 50, 0)
        header = block_header(fresh, self.int_id(scratch, cells), count=4, flat=True)
        payload = _round(b"\x01" + header + _ints(1, 2, 3, 4), _runs(fresh, (2, 1, _ints(9))))
        self.land(scratch, held, payload)
        block = held[fresh]
        got = [scratch.memory.load("int", block.addr + 4 * i) for i in range(4)]
        assert got == [1, 2, 9, 4]
        assert_table_whole(scratch)

    @pytest.mark.parametrize("which", ["global", "unknown-heap"])
    def test_freed_for_a_block_that_is_not_a_held_heap_block(self, scratch, which):
        scratch, held, cells = scratch
        logical = cells if which == "global" else (BlockKind.HEAP, 999, 0)
        heap = len(scratch.msrlt.heap_blocks())
        lie = "not a heap block the destination holds"
        self.refused(scratch, held, _round(_freed(logical)), lie)
        assert len(scratch.msrlt.heap_blocks()) == heap and cells in held

    def test_a_freed_held_heap_block_leaves_both_tables(self, scratch):
        scratch, held, _ = scratch
        block = scratch.msrlt.heap_blocks()[0]
        self.land(scratch, held, _round(_freed(block.logical)))
        assert block.logical not in held and not scratch.msrlt.has_logical(block.logical)
        assert block.addr not in scratch.memory.heap_allocs
        assert_table_whole(scratch)

    def test_freed_for_a_block_this_round_registered(self, scratch):
        """A block restored in this pass is one the source just reached:
        freeing it behind the pointers that now aim at it is a lie."""
        scratch, held, cells = scratch
        fresh = (BlockKind.HEAP, 50, 0)
        header = block_header(fresh, self.int_id(scratch, cells), count=4, flat=True)
        payload = _round(b"\x01" + header + _ints(1, 2, 3, 4), _freed(fresh))
        self.refused(scratch, held, payload, "a block restored in this pass")
        assert fresh in held and scratch.msrlt.has_logical(fresh)

    def test_unknown_marker(self, scratch):
        scratch, held, _ = scratch
        self.refused(scratch, held, _round(b"\x07"), "bad tail marker 7")

    def test_block_for_a_stack_id(self, scratch):
        """The stack is not registered between passes: a root ``BLOCK``
        for a stack id names a block the scratch does not have."""
        scratch, held, cells = scratch
        type_id = scratch.ti.info_for(scratch.msrlt.lookup_logical(cells).elem_type).type_id
        root = b"\x01" + block_header((BlockKind.STACK, 0, 0), type_id, flat=True)
        root += _ints(*range(16))
        self.refused(scratch, held, _round(root), r"no block with logical id \(1, 0, 0\)")
        assert (BlockKind.STACK, 0, 0) not in held

    def test_unknown_type_after_a_valid_new_entry(self, scratch):
        """The first root is carved before the second is refused: the
        carved block must not stay in the heap ledger unregistered."""
        scratch, held, cells = scratch
        int_id = self.int_id(scratch, cells)
        first = block_header((BlockKind.HEAP, 50, 0), int_id, count=4, flat=True)
        second = block_header((BlockKind.HEAP, 51, 0), 9999)
        payload = _round(b"\x01" + first + _ints(1, 2, 3, 4), b"\x01" + second + _ints(5))
        self.refused(scratch, held, payload, "unknown type id 9999")
        assert scratch.msrlt.has_logical((BlockKind.HEAP, 50, 0))

    @pytest.mark.parametrize("marker", ["freed", "runs", "root"])
    def test_a_logical_of_kind_three(self, scratch, marker):
        """A kind no block has is refused by whichever marker names it."""
        scratch, held, cells = scratch
        heap = len(scratch.msrlt.heap_blocks())
        alien = (3, 7, 0)
        payload, lie = {
            "freed": (_freed(alien), r"freed marker for \(3, 7, 0\)"),
            "runs": (_runs(alien, (0, 1, _ints(1))), r"runs for \(3, 7, 0\)"),
            "root": (b"\x01" + bytes([2 | 3 << 2]) + struct.pack(">IH", 7, 1), "kind 3"),
        }[marker]
        self.refused(scratch, held, _round(payload), lie)
        assert len(scratch.msrlt.heap_blocks()) == heap  # nothing carved or freed

    def test_a_b_on_a_global_id(self, scratch):
        """Only a stack id ships a ``b``: four bytes after a global's
        ``a`` are read as the runs marker's count."""
        scratch, held, cells = scratch
        payload = _round(_runs(cells, (0, 1, _ints(5))))
        at = payload.index(_logical(cells)) + 5
        forged = payload[:at] + bytes(4) + payload[at:]
        self.refused(scratch, held, forged, "has at least one")

    def test_wrong_round_number(self, scratch):
        scratch, held, cells = scratch
        payload = _round(_runs(cells, (0, 1, _ints(5))), round_no=2)
        self.refused(scratch, held, payload, "round 2 arrived where round 1 was expected")

    def test_a_marker_cut_short(self, scratch):
        scratch, held, cells = scratch
        payload = _round(_runs(cells, (0, 1, _ints(5))))[:-1]
        self.refused(scratch, held, payload, "underrun")

    def test_a_zero_where_a_marker_should_be(self, scratch):
        """The tail section runs to the end of the payload: it has no end
        marker, so a byte after the last marker is the next one."""
        scratch, held, cells = scratch
        payload = _round(_runs(cells, (0, 1, _ints(5)))) + b"\x00\x00\x00"
        self.refused(scratch, held, payload, "bad tail marker 0")

    @staticmethod
    def twice(scratch, cells, which) -> tuple:
        """Two root ``BLOCK`` records for one block, with other contents:
        a heap block new to the scratch, or the held global ``cells``."""
        if which == "new-heap":
            int_id = TestHostileRounds.int_id(scratch, cells)
            header = block_header((BlockKind.HEAP, 50, 0), int_id, count=4, flat=True)
            first, second = _ints(1, 2, 3, 4), _ints(5, 6, 7, 8)
        else:
            type_id = scratch.ti.info_for(scratch.msrlt.lookup_logical(cells).elem_type).type_id
            header = block_header(cells, type_id, flat=True)
            first, second = _ints(*range(16)), _ints(*range(100, 116))
        return b"\x01" + header + first, b"\x01" + header + second

    @pytest.mark.parametrize("which", ["new-heap", "held-global"])
    def test_a_second_block_record_in_one_round(self, scratch, which):
        """A held block restores in place once per pass, and a block
        carved by the pass is not carved again: the second record is
        refused, as the plain restorer refuses it."""
        scratch, held, cells = scratch
        payload = _round(*self.twice(scratch, cells, which))
        self.refused(scratch, held, payload, "second BLOCK record for")

    @pytest.mark.parametrize("which", ["new-heap", "held-global"])
    def test_a_second_block_record_in_the_final_stream(self, which):
        """The same two roots behind an honest final stream's tail."""
        prog = _compile(HOSTILE_SRC)
        proc = _stopped(prog, ULTRA5)
        scratch = Process(prog, SPARC20)
        state = run_precopy(
            proc, scratch, Channel(LOOPBACK), TWO_ROUNDS, MigrationStats(), 4096
        )
        payload, _ = collect_state(proc, state.fresh, state.stale)
        cells = next(b.logical for b in scratch.msrlt.blocks() if b.name == "cells")
        forged = payload + b"".join(self.twice(scratch, cells, which))
        with pytest.raises(MsrRestoreError, match="second BLOCK record for"):
            restore_state(prog, forged, scratch, state.held)

    def test_a_block_record_nested_in_its_own_contents(self, scratch):
        """A node carved by this walk and named again inside its own
        contents (a cycle sent as BLOCK, not REF) is refused before the
        walk ends, while the node is not registered yet."""
        scratch, held, _ = scratch
        head = scratch.msrlt.heap_blocks()[0]
        node_id = scratch.ti.info_for(head.elem_type).type_id
        header = block_header((BlockKind.HEAP, 60, 0), node_id)
        root = b"\x01" + header + _ints(1) + header + _ints(2) + b"\x00"
        self.refused(scratch, held, _round(root), "second BLOCK record for")

    def test_an_undefined_lead_in_a_round(self, scratch):
        """A root is an ordinary record: a REF lead with BLOCK bits inside
        its contents is refused in the same words as anywhere else."""
        scratch, held, _ = scratch
        head, below = scratch.msrlt.heap_blocks()[:2]
        node_id = scratch.ti.info_for(head.elem_type).type_id
        ref = ref_record(below.logical)
        root = b"\x01" + block_header(head.logical, node_id) + _ints(5)
        root += bytes([ref[0] | 0x20]) + ref[1:]
        self.refused(scratch, held, _round(root), "BLOCK bits on a REF")

    def test_block_rows_where_a_chain_batch_would_take_them(self, scratch):
        """A round is an ordinary tail section: the tail slot of a list
        node restored in place is offered to its chain batch, and BLOCK
        rows there are new nodes — carved, registered and held."""
        scratch, held, _ = scratch
        head = scratch.msrlt.heap_blocks()[0]
        node_id = scratch.ti.info_for(head.elem_type).type_id
        serials = range(900, 900 + MIN_CHAIN)  # the shortest run a batch takes
        rows = b"".join(
            block_header((BlockKind.HEAP, serial, 0), node_id) + _ints(serial)
            for serial in serials
        )
        root = b"\x01" + block_header(head.logical, node_id) + _ints(5) + rows + b"\x00"
        assert self.land(scratch, held, _round(root)).n_heap_allocs == MIN_CHAIN
        assert_table_whole(scratch)
        for serial in serials:
            node = scratch.msrlt.lookup_logical((BlockKind.HEAP, serial, 0))
            assert held[node.logical] is node
            assert scratch.memory.load("int", node.addr) == serial
        assert scratch.memory.load("ptr", head.addr + 4) == held[(BlockKind.HEAP, 900, 0)].addr

    @pytest.fixture
    def lying_source(self, monkeypatch):
        """Every delta round the source builds claims a run past the end
        of ``cells``."""
        collect_round = precopy_module._collect_round

        def forged(process, round_no, *args):
            _, deferred = collect_round(process, round_no, *args)
            cells = next(b.logical for b in process.msrlt.blocks() if b.name == "cells")
            payload = _round(_runs(cells, (14, 4, _ints(1, 2, 3, 4))), round_no=round_no)
            return payload, deferred

        monkeypatch.setattr(precopy_module, "_collect_round", forged)

    def test_engine_degrades_to_plain_stop_and_copy(self, lying_source):
        prog = _compile(HOSTILE_SRC)
        dest, stats = _precopy_migrate(prog, ULTRA5, SPARC20, policy=TWO_ROUNDS)
        assert stats.precopy_degraded and not stats.precopy
        degraded = stats.obs.events.of_type("precopy_degraded")
        assert "stay inside their block" in degraded[0]["error"]
        _assert_like_unmigrated(dest, run_baseline(prog, ULTRA5))

    def test_source_stays_resumable_when_the_fallback_fails_too(self, lying_source):
        prog = _compile(HOSTILE_SRC)
        proc = _stopped(prog, ULTRA5)
        down = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("disconnect@0!"))
        with pytest.raises(MigrationAbortedError):
            ENGINE.migrate(
                proc, SPARC20, channel=down, precopy=True, precopy_policy=TWO_ROUNDS
            )
        proc.migration_pending = False
        assert proc.run_to_completion() == 0
        assert proc.stdout == run_baseline(prog, ULTRA5).stdout


# -- one allocation path: carve, pend, register once per walk -------------

# round 1 ships three frees (the scratch's free list of the node stride
# fills — a leaf is 8 bytes longer so that it never takes from it); the
# last slice pushes a list (its first nodes recycle those addresses, the
# rest come evenly off the brk: a chain batch) and grows a tree (one
# carve per record), and writes into blocks the scratch already holds
LIST_THEN_TREE_SRC = """
struct node { int v; struct node *next; };
struct leaf { int key; int rank; struct leaf *l; struct leaf *r; };
struct node *old;
struct node *fresh;
struct leaf *tree;
int ticks;

struct node *push(struct node *head, int v) {
    struct node *n;
    n = (struct node *) malloc(sizeof(struct node));
    n->v = v; n->next = head;
    return n;
}

struct leaf *grow(struct leaf *t, int key) {
    if (t == NULL) {
        t = (struct leaf *) malloc(sizeof(struct leaf));
        t->key = key; t->l = NULL; t->r = NULL;
        return t;
    }
    if (key < t->key) t->l = grow(t->l, key);
    else t->r = grow(t->r, key);
    return t;
}

int fold(struct leaf *t) {
    if (t == NULL) return 1;
    return (fold(t->l) * 31 + t->key + fold(t->r) * 7) % 10007;
}

int main() {
    int r; int i; int acc; struct node *n;
    for (i = 0; i < 8; i++) old = push(old, i);
    for (r = 0; r < 6; r++) {
        migrate_here();
        ticks = ticks + 1;
        if (r == 0) {
            for (i = 0; i < 3; i++) { n = old; old = old->next; free(n); }
            tree = grow(tree, 50);
        }
        if (r == 2) {
            for (i = 0; i < 7; i++) fresh = push(fresh, 100 + i);
            for (i = 0; i < 9; i++) tree = grow(tree, (i * 37) % 101);
            old->v = 77;
        }
    }
    migrate_here();
    acc = fold(tree);
    for (n = fresh; n != NULL; n = n->next) acc = (acc * 13 + n->v) % 10007;
    for (n = old; n != NULL; n = n->next) acc = (acc * 13 + n->v) % 10007;
    printf("%d %d\\n", acc, ticks);
    return 0;
}
"""


class TestOneAllocationPath:
    """Restoration carves every heap block the same way — per record or
    per chain batch, in a round as in the final pass — and registers a
    walk's blocks in one merge.  The addresses are the ones ``malloc`` would
    hand out block by block, warm free list or not, and the table is
    whole after every round and every pass."""

    @staticmethod
    def prewarmed(prog, src_arch, dst_arch):
        """(pre-warmed scratch, final payload, the ``held`` ledger of
        what the scratch holds)."""
        proc = _stopped(prog, src_arch)
        scratch = Process(prog, dst_arch)
        state = run_precopy(
            proc, scratch, Channel(LOOPBACK), TWO_ROUNDS, MigrationStats(), 4096
        )
        payload, _ = collect_state(proc, state.fresh, state.stale)
        return scratch, bytes(payload), state.held

    @pytest.mark.parametrize("plans", [True, False], ids=["plans", "oracle"])
    @pytest.mark.parametrize("pair", PRECOPY_PAIRS, ids=lambda p: f"{p[0]}->{p[1]}")
    def test_final_pass_replays_malloc_over_a_warm_free_list(
        self, pair, plans, monkeypatch
    ):
        prog = _compile(LIST_THEN_TREE_SRC)
        src_arch, dst_arch = _ARCH[pair[0]], _ARCH[pair[1]]
        scratch, payload, ledger = self.prewarmed(prog, src_arch, dst_arch)
        # a node's stride: its 8 (ILP32) or 16 (LP64) bytes plus the slack
        node_class = 16 if dst_arch.ptr_size == 4 else 24
        assert len(scratch.memory._free[node_class]) == 3
        held = {b.logical: b.addr for b in scratch.msrlt.heap_blocks()}
        batches = []
        restore_batch = ChainPlan._restore_batch

        def spy(plan, restorer):
            batch = restore_batch(plan, restorer)
            batches.append((batch is not None, bool(restorer.memory._free[node_class])))
            return batch

        monkeypatch.setattr(ChainPlan, "_restore_batch", spy)
        scratch.ti.plans_enabled = plans
        try:
            info = restore_replayed(prog, payload, scratch, ledger)
        finally:
            scratch.ti.plans_enabled = True
        # 7 list nodes + 9 leaves carved; the list's head, the tree's
        # root and ``old``'s head restored where the rounds put them
        assert info.stats.n_heap_allocs == 16
        now = {b.logical: b.addr for b in scratch.msrlt.heap_blocks()}
        assert now.items() >= held.items() and len(now) == len(held) + 16
        assert not scratch.memory._free[node_class]
        if plans:
            # no batch while single carves would recycle addresses; one
            # once the free list ran dry
            assert all(not took for took, warm in batches if warm)
            assert [took for took, _ in batches].count(True) == 1
        else:
            assert not batches
        _assert_like_unmigrated(scratch, run_baseline(prog, src_arch))

    @pytest.mark.parametrize("plans", [True, False], ids=["plans", "oracle"])
    def test_structgrid_final_pass_replays_malloc(self, plans):
        """Every plan kind at once on the pre-warmed scratch: pending
        blocks between chain batches and blocks restored in place."""
        prog = _compile(structgrid_source(48, 24))
        scratch, payload, ledger = self.prewarmed(prog, ULTRA5, X86_64)
        scratch.ti.plans_enabled = plans
        try:
            info = restore_replayed(prog, payload, scratch, ledger)
        finally:
            scratch.ti.plans_enabled = True
        assert info.stats.n_heap_allocs > 0
        _assert_like_unmigrated(scratch, run_baseline(prog, ULTRA5))

    @pytest.mark.parametrize("source", ["mutator", "list-then-tree"])
    def test_rounds_replay_free_then_malloc(self, source, monkeypatch):
        """A round's freed markers come first; replaying them, and then
        ``heap_alloc`` over the blocks its records carved in record order
        (the order they joined ``held``), on a twin allocator gives the
        addresses the scratch holds; the table is whole after every
        round."""
        prog = _compile(MUTATOR_SRC if source == "mutator" else LIST_THEN_TREE_SRC)
        rounds = []
        restore_round = precopy_module._restore_round

        def checked(process, payload, round_no, held):
            twin = allocator_twin(process.memory)
            before = set(held)
            buf = ReadBuffer(payload)
            buf.read_u32()
            while buf.peek_u8() == 3:  # the freed markers
                buf.read_u8()
                twin.heap_free(held[read_logical(buf)].addr)
            stats = restore_round(process, payload, round_no, held)
            carved = [block for logical, block in held.items() if logical not in before]
            assert stats.n_heap_allocs == len(carved)
            for block in carved:
                assert twin.heap_alloc(block.size) == block.addr, block
            assert_table_whole(process)
            rounds.append(len(carved))
            return stats

        monkeypatch.setattr(precopy_module, "_restore_round", checked)
        dest, stats = _precopy_migrate(prog, ULTRA5, SPARC20, policy=TWO_ROUNDS)
        assert stats.precopy and not stats.precopy_degraded
        assert len(rounds) == 2 and sum(rounds) > 0
        _assert_like_unmigrated(dest, run_baseline(prog, ULTRA5))


class ScanningFinalCollector(Collector):
    """The scan the ``stale`` ledger replaced: tail roots read out of the
    whole table at the stop.  The oracle of the ledger's tail."""

    def save_tail(self):
        visited = self._visited
        stale = [
            b for b in self.msrlt.blocks()
            if b.logical[0] != BlockKind.STACK and b.logical not in visited
        ]
        stale.sort(key=lambda b: b.logical)
        for block in stale:
            if block.logical not in visited:
                self.buf.write_u8(1)
                self.save_variable(block)


# every slice frees the node the round before had to defer (it holds
# &local) and allocates the next one: a block leaves while still stale
DEFER_THEN_FREE_SRC = """
struct link { int *where; int v; struct link *next; };
struct link *links;
int ticks;

int main() {
    int local; int r;
    struct link *l;
    local = 5;
    for (r = 0; r < 6; r++) {
        migrate_here();
        ticks = ticks + 1;
        if (links != NULL) { l = links; links = l->next; free(l); }
        l = (struct link *) malloc(sizeof(struct link));
        l->where = &local; l->v = r; l->next = links; links = l;
    }
    migrate_here();
    printf("%d %d\\n", *links->where + links->v, ticks);
    return 0;
}
"""

#: hand-written programs whose slices free, ``realloc``, leak, defer and
#: hold ``&local`` in clean blocks, each under the policy its own test uses
LEDGER_PROGRAMS = {
    "defer-then-free": (DEFER_THEN_FREE_SRC, PrecopyPolicy(max_rounds=3, stop_dirty_blocks=0)),
    "mutator": (MUTATOR_SRC, PrecopyPolicy(max_rounds=4, stop_dirty_blocks=0)),
    "tail": (TAIL_SRC, TWO_ROUNDS),
    "stack-ref": (STACK_REF_SRC, TWO_ROUNDS),
    "list-then-tree": (LIST_THEN_TREE_SRC, TWO_ROUNDS),
    "structgrid": (
        structgrid_source(48, 24),
        PrecopyPolicy(max_rounds=3, stop_dirty_blocks=0, slice_polls=4),
    ),
}


def _assert_ledgers_are_the_scans(source, scratch, fresh, stale, held):
    """``fresh`` and ``stale`` partition the source's live blocks, and
    ``held`` is the scratch's non-stack index block for block."""
    live = {b.logical for b in source.msrlt.blocks()}  # no stack block between passes
    assert fresh | stale == live and not fresh & stale
    scan = scratch.msrlt.non_stack_by_logical()
    assert held.keys() == scan.keys()
    assert all(held[logical] is block for logical, block in scan.items())


def _checked_every_round(monkeypatch, source, scratch) -> list:
    """Hold ``run_precopy``'s ledgers to the scans after every round that
    lands; returns, per round, ``(freed logicals, deferred blocks)``."""
    rounds, ledgers = [], {}
    collect_round = precopy_module._collect_round
    restore_round = precopy_module._restore_round

    def collect(process, round_no, freed, written, fresh, stale):
        if stale:  # a delta round; a freed-only stop round is handed none
            ledgers.update(fresh=fresh, stale=stale)
        payload, deferred = collect_round(process, round_no, freed, written, fresh, stale)
        rounds.append((list(freed), set(deferred)))
        return payload, deferred

    def restore(process, payload, round_no, held):
        stats = restore_round(process, payload, round_no, held)
        if ledgers:
            _assert_ledgers_are_the_scans(
                source, scratch, ledgers["fresh"], ledgers["stale"], held
            )
        return stats

    monkeypatch.setattr(precopy_module, "_collect_round", collect)
    monkeypatch.setattr(precopy_module, "_restore_round", restore)
    return rounds


@pytest.mark.parametrize("name", [*LEDGER_PROGRAMS, *PRECOPY_CORPUS])
@pytest.mark.parametrize("pair", PRECOPY_PAIRS, ids=lambda p: f"{p[0]}->{p[1]}")
def test_ledgers_equal_the_scans_they_replace(name, pair, monkeypatch):
    """After every round and at the stop, ``run_precopy``'s ledgers are
    what reading both tables out would find, the final passes are born
    owning them (no copy), and the stream whose tail comes off ``stale``
    is byte for byte the one whose tail comes off a scan of the table."""
    src_arch, dst_arch = _ARCH[pair[0]], _ARCH[pair[1]]
    if name in LEDGER_PROGRAMS:
        source, policy = LEDGER_PROGRAMS[name]
        prog = _compile(source)
    else:
        prog = _compile(CORPUS[name].source)
        polls = run_baseline(prog, src_arch).total_polls
        if polls < 4:
            pytest.skip("program too short for delta rounds")
        policy = PrecopyPolicy(max_rounds=min(3, polls - 2), stop_dirty_blocks=0)
    proc = _stopped(prog, src_arch)
    scratch = Process(prog, dst_arch)
    _checked_every_round(monkeypatch, proc, scratch)
    state = run_precopy(proc, scratch, Channel(LOOPBACK), policy, MigrationStats(), 4096)
    _assert_ledgers_are_the_scans(proc, scratch, state.fresh, state.stale, state.held)

    with mock.patch.object(engine_module, "Collector", ScanningFinalCollector):
        scanned, _ = collect_state(proc, set(state.fresh), state.stale)
    born = []

    class Born(Collector):
        def __init__(self, *args):
            super().__init__(*args)
            born.append(self)

    with mock.patch.object(engine_module, "Collector", Born):
        ledgered, _ = collect_state(proc, state.fresh, state.stale)
    assert born[0]._visited is state.fresh
    assert ledgered == scanned
    rest = Restorer(scratch, ReadBuffer(b""), state.held)
    assert rest._mapping is state.held


@pytest.mark.parametrize("pair", PRECOPY_PAIRS, ids=lambda p: f"{p[0]}->{p[1]}")
def test_a_deferred_new_block_freed_unshipped_leaves_no_trace(pair, monkeypatch):
    """Every slice of DEFER_THEN_FREE_SRC frees the node the round before
    deferred (it holds ``&local``) and allocates the next.  A deferred
    block is absent, so the destination never held the freed one: no
    freed marker names it, and it leaves ``fresh`` and ``stale`` both —
    with the ledgers equal to the scans after every round."""
    src_arch, dst_arch = _ARCH[pair[0]], _ARCH[pair[1]]
    source, policy = LEDGER_PROGRAMS["defer-then-free"]
    proc = _stopped(_compile(source), src_arch)
    scratch = Process(proc.program, dst_arch)
    rounds = _checked_every_round(monkeypatch, proc, scratch)
    state = run_precopy(proc, scratch, Channel(LOOPBACK), policy, MigrationStats(), 4096)
    assert len(rounds) == policy.max_rounds
    links = next(b.logical for b in proc.msrlt.blocks() if b.name == "links")
    nodes = []
    for freed, deferred in rounds:
        assert freed == []
        # the new node, and ``links`` that points at it, wait
        (node,) = deferred - {links}
        assert links in deferred and node[0] == BlockKind.HEAP
        nodes.append(node)
    ledgers = state.fresh | state.stale | set(state.held)
    assert not ledgers & set(nodes) and not scratch.msrlt.heap_blocks()


# -- run_precopy unit behavior ------------------------------------------


def test_run_precopy_rejects_nested_activation():
    prog = _compile(MUTATOR_SRC)
    proc = _stopped(prog, ULTRA5)
    proc.memory.dirty = DirtyTracker(0, 0)
    scratch = Process(prog, SPARC20)
    from repro.migration.engine import MigrationError

    with pytest.raises(MigrationError):
        run_precopy(
            proc, scratch, Channel(LOOPBACK), PrecopyPolicy(),
            MigrationStats(), 4096,
        )
    proc.memory.dirty = None


# -- attribution scopes under pre-copy (PR 10) ---------------------------


class TestPrecopyAttributionScopes:
    def test_precopy_scope_and_exact_final_partition(self):
        prog = _compile(MUTATOR_SRC)
        _dest, stats = _precopy_migrate(prog, ULTRA5, SPARC20,
                                        attribution=True)
        attr = stats.attribution
        assert attr is not None
        # the snapshot/delta rounds landed in their own scope...
        assert "precopy" in attr.get("scopes", {})
        pre = attr["scopes"]["precopy"]
        assert pre["rows"], "pre-copy scope attributed no rows"
        assert sum(r["bytes"] for r in pre["rows"]) > 0
        # ...so the final attempt's byte partition stays exact: the
        # snapshot's (larger) payload must not override the elided final
        # payload, and the row bytes still sum to it exactly
        assert attr["payload_bytes"] == stats.payload_bytes
        assert sum(r["bytes"] for r in attr["rows"]) == attr["payload_bytes"]
        # the final stream really is the elided one: smaller than the
        # pre-copy snapshot round
        assert stats.payload_bytes < stats.precopy_round_bytes[0]
