"""One copy per side: a serial attempt frames its payload in the storage
it was collected into and restores from a view of that frame, so does
every pre-copy round that fits one chunk, a streamed attempt peaks no
higher than a serial one, a checkpoint file is written without its
image, a migration builds one process per attempt, and the attempt's
named spans account for its time on both schedules."""

import gc
import tracemalloc

import pytest

from repro.arch import DEC5000, SPARC20
from repro.migration import engine as engine_module
from repro.migration.checkpoint import checkpoint_to_file
from repro.migration.engine import MigrationEngine, collect_state
from repro.migration.precopy import PrecopyPolicy
from repro.migration.transport import LOOPBACK, Channel, FaultPlan, FaultyChannel
from repro.msr.wire import CHUNK_HEADER_SIZE
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import linpack_source, structgrid_source
from tests.conftest import stopped

#: what a send may allocate besides the payload: headers, a lap, a list slot
SEND_BUDGET = 4096


@pytest.fixture(scope="module")
def linpack():
    return compile_program(linpack_source(48), poll_strategy="user")


@pytest.fixture(scope="module")
def unmigrated(linpack):
    proc = Process(linpack, DEC5000)
    proc.run_to_completion()
    return proc.stdout


class TracedSends(Channel):
    """An in-memory channel that books the traced allocation peak of
    every ``send_chunk`` and keeps the frames it put on the wire (the
    objects themselves: a copy would be an allocation of its own)."""

    def __init__(self) -> None:
        super().__init__(LOOPBACK)
        self.peaks: list[int] = []
        self.frames: list = []

    def send_chunk(self, payload) -> float:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return super().send_chunk(payload)
        finally:
            self.peaks.append(tracemalloc.get_traced_memory()[1] - before)

    def _send_frame(self, frame) -> float:
        self.frames.append(frame)
        return super()._send_frame(frame)


class TestSerialFrame:
    def test_the_serial_send_makes_no_payload_sized_copy(self, linpack):
        """The one chunk is framed where it was collected: sending it
        allocates next to nothing, where a frame built beside the
        payload would allocate all of it again."""
        proc, twin = stopped(linpack, DEC5000), stopped(linpack, DEC5000)
        payload, _ = collect_state(twin)
        assert len(payload) > 4 * SEND_BUDGET
        channel = TracedSends()
        tracemalloc.start()
        try:
            MigrationEngine().migrate(proc, SPARC20, channel=channel)
        finally:
            tracemalloc.stop()
        assert len(channel.peaks) == 1
        assert channel.peaks[0] < SEND_BUDGET
        frame, terminator = channel.frames
        assert len(terminator) == CHUNK_HEADER_SIZE
        assert bytes(frame[CHUNK_HEADER_SIZE:]) == payload

    def test_precopy_rounds_make_no_payload_sized_copy(self):
        """A pre-copy round that fits one chunk — the snapshot and every
        delta round — is framed where it was collected, as the final
        attempt is: no send allocates the round again."""
        prog = compile_program(structgrid_source(512, 64))
        channel = TracedSends()
        tracemalloc.start()
        try:
            _, stats = MigrationEngine().migrate(
                stopped(prog, DEC5000), SPARC20, channel=channel, precopy=True,
                precopy_policy=PrecopyPolicy(max_rounds=3, stop_dirty_blocks=0),
            )
        finally:
            tracemalloc.stop()
        assert stats.precopy and not stats.precopy_degraded
        assert len(stats.precopy_round_bytes) == 4 and stats.n_chunks == 1
        assert stats.precopy_round_bytes[0] > 2 * SEND_BUDGET  # the snapshot
        assert len(channel.peaks) == 5  # four rounds, then the final attempt
        assert max(channel.peaks) < SEND_BUDGET, channel.peaks


def traced_peak(prog, **mode) -> int:
    """The traced allocation peak of one warm migration of *prog*."""
    MigrationEngine().migrate(stopped(prog, DEC5000), SPARC20, **mode)
    proc = stopped(prog, DEC5000)
    gc.collect()
    tracemalloc.start()
    try:
        MigrationEngine().migrate(proc, SPARC20, **mode)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_streamed_migration_peaks_no_higher_than_a_serial_one():
    """Cutting the payload into frames costs no memory: the sender's
    storage is let go once its frames are out, so the join on the far
    side never sits beside it, and the restore reads one exact-sized
    payload where the serial one reads its frame (collection slack
    included)."""
    prog = compile_program(linpack_source(128), poll_strategy="user")
    serial = traced_peak(prog)
    streamed = traced_peak(prog, streaming=True, chunk_size=16384)
    assert streamed <= serial, (streamed, serial)


def test_a_checkpoint_file_is_written_piece_by_piece(tmp_path):
    """A checkpoint file is the header, the one chunk frame and the
    terminator, written in turn: the file's image is never built, so a
    save holds the payload and its frame and not a third copy."""
    proc = stopped(compile_program(linpack_source(128), poll_strategy="user"), DEC5000)
    path = tmp_path / "linpack.ckpt"
    size = len(checkpoint_to_file(proc, path).payload)
    gc.collect()
    tracemalloc.start()
    try:
        checkpoint_to_file(proc, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * size, (peak, size)


class TestOneProcessPerAttempt:
    @staticmethod
    def counted(monkeypatch) -> list:
        """Every process the engine builds from here on, in order."""
        built = []

        class Counted(Process):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(engine_module, "Process", Counted)
        return built

    def test_the_adopted_scratch_is_the_destination(self, linpack, unmigrated, monkeypatch):
        proc = stopped(linpack, DEC5000)
        built = self.counted(monkeypatch)
        dest, stats = MigrationEngine().migrate(proc, SPARC20)
        assert stats.attempts == 1 and built == [dest]
        assert dest.arch is SPARC20 and dest.name == f"{proc.name}'"
        assert proc.exited and not proc.frames
        assert dest.run_to_completion() == 0 and dest.stdout == unmigrated

    def test_a_retried_run_builds_one_per_attempt(self, linpack, monkeypatch):
        proc = stopped(linpack, DEC5000)
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@0"))
        built = self.counted(monkeypatch)
        dest, stats = MigrationEngine().migrate(proc, SPARC20, channel=channel, max_attempts=3)
        assert stats.attempts == 2 and len(built) == 2 and dest is built[-1]

    def test_a_waiting_destination_is_the_one_returned(self, linpack, monkeypatch):
        proc = stopped(linpack, DEC5000)
        waiting = Process(linpack, SPARC20, name="the-waiter")
        waiting.load()
        built = self.counted(monkeypatch)
        dest, stats = MigrationEngine().migrate(proc, SPARC20, waiting=waiting)
        assert dest is waiting and stats.attempts == 1 and len(built) == 1


NAMED = ("collect", "frame", "deframe", "restore")


def named_cover(prog, **mode) -> float:
    """The share of an attempt's time its named children cover: the
    best of three runs, so that a descheduled moment between two spans
    does not decide."""
    covers = []
    for _ in range(3):
        _, stats = MigrationEngine().migrate(stopped(prog, DEC5000), SPARC20, **mode)
        (attempt,) = stats.obs.tracer.find("attempt")
        children = {span.name: span for span in attempt.children}
        assert set(NAMED) <= set(children)
        covers.append(sum(children[name].seconds for name in NAMED) / attempt.seconds)
    return max(covers)


def test_the_attempts_named_spans_cover_it(linpack):
    """Collect, frame (header, CRC, enqueue), deframe (dequeue, CRC,
    sequence check) and restore are where a serial attempt's time goes:
    together they cover at least 90 % of it."""
    cover = named_cover(linpack)
    assert cover >= 0.9, cover


def test_the_streamed_attempts_named_spans_cover_it(linpack):
    """A streamed attempt is the serial one cut into frames (three
    here): the same four spans cover at least 90 % of it too."""
    cover = named_cover(linpack, streaming=True, chunk_size=8192)
    assert cover >= 0.9, cover
