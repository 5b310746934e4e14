"""Fault-injected transport and resilient migration.

The acceptance matrix: for every fault kind (drop, truncate, bitflip,
stall, disconnect) × both cuts of the payload (one chunk, streamed), the
engine either completes with a byte-identical restored state or raises a
typed error with the destination process unmodified and the source
process still runnable — and with retries enabled, transient
single-fault plans complete successfully.
"""

import threading
import time

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20
from repro.migration.checkpoint import checkpoint_to_file, restart_from_file
from repro.migration import engine as engine_module
from repro.migration.engine import (
    RETRYABLE_ERRORS,
    CollectError,
    MigrationAbortedError,
    MigrationEngine,
    MigrationError,
    RestoreError,
    collect_state,
)
from repro.migration.precopy import PrecopyPolicy
from repro.migration.transport import (
    Channel,
    ChannelClosedError,
    ChannelError,
    ChannelTimeoutError,
    Fault,
    FaultPlan,
    FaultyChannel,
    LOOPBACK,
    SocketChannel,
)
from repro.msr.graphplan import FlatPlan
from repro.msr.msrlt import BlockKind, MSRLTError
from repro.msr.restore import RestoreError as MsrRestoreError
from repro.obs import validate_trace_lines
from repro.msr.wire import (
    FrameCorruptError,
    TruncatedFrameError,
    WireFrameError,
    decode_chunk,
    encode_chunk,
    encode_end_of_stream,
)
from repro.vm.memory import MemoryFault
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import tap_frames

PROGRAM = """
struct node { double w; struct node *next; };
struct node *ring;
double table[120];
int main() {
    int i;
    for (i = 0; i < 30; i++) {
        struct node *e = (struct node *) malloc(sizeof(struct node));
        e->w = i * 0.5; e->next = ring; ring = e;
        table[i] = i * 1.25;
    }
    migrate_here();
    { struct node *p; double s = 0.0;
      for (p = ring; p != NULL; p = p->next) s += p->w;
      for (i = 0; i < 30; i++) s += table[i];
      printf("%d", (int) s); }
    return 0;
}
"""

FAULT_KINDS = ["drop", "truncate", "bitflip", "stall", "disconnect"]


@pytest.fixture(scope="module")
def prog():
    return compile_program(PROGRAM, poll_strategy="user")


@pytest.fixture(scope="module")
def expected(prog):
    p = Process(prog, DEC5000)
    p.run_to_completion()
    return p.stdout


def stopped(prog, arch=DEC5000):
    proc = Process(prog, arch)
    proc.start()
    proc.migration_pending = True
    assert proc.run().status == "poll"
    return proc


class TestFaultPlan:
    def test_parse_explicit(self):
        plan = FaultPlan.parse("bitflip@1:3,drop@2,stall@0!")
        assert [f.kind for f in plan.faults] == ["bitflip", "drop", "stall"]
        assert plan.faults[0].index == 1 and plan.faults[0].arg == 3
        assert not plan.faults[1].persistent and plan.faults[2].persistent

    def test_parse_aliases(self):
        plan = FaultPlan.parse("flip@0,trunc@1:4")
        assert [f.kind for f in plan.faults] == ["bitflip", "truncate"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("gamma-ray@1")
        with pytest.raises(ValueError):
            FaultPlan.parse("drop")  # no index

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(42, n_faults=4, max_index=10)
        b = FaultPlan.seeded(42, n_faults=4, max_index=10)
        c = FaultPlan.seeded(43, n_faults=4, max_index=10)
        assert str(a) == str(b)
        assert str(a) != str(c)

    def test_parse_seed_form(self):
        assert str(FaultPlan.parse("seed=7:count=3")) == str(
            FaultPlan.seeded(7, n_faults=3)
        )

    def test_transient_faults_are_consumed(self):
        plan = FaultPlan([Fault("drop", 1)])
        assert plan.take(0) is None
        assert plan.take(1).kind == "drop"
        assert plan.take(1) is None  # spent
        assert plan.pending == 0

    def test_persistent_faults_refire(self):
        plan = FaultPlan([Fault("drop", 1, persistent=True)])
        assert plan.take(1) is not None
        assert plan.take(1) is not None
        assert plan.pending == 1


class TestFaultyChannelUnit:
    def test_clean_plan_is_transparent(self):
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan())
        ch.send(b"hello")
        assert ch.recv() == b"hello"
        ch.send_chunk(b"alpha")
        ch.end_stream()
        assert list(ch.iter_chunks()) == [b"alpha"]

    def test_bitflip_changes_exactly_one_bit(self):
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("bitflip@0:5"))
        ch.send(b"\x00" * 8)
        got = ch.recv()
        assert got != b"\x00" * 8
        assert sum(bin(byte).count("1") for byte in got) == 1

    def test_drop_then_recv_times_out(self):
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@0"))
        ch.send(b"vanishes")
        with pytest.raises(ChannelTimeoutError):
            ch.recv()

    @pytest.mark.parametrize("kind,says", [
        # a dropped payload is the inner channel's own empty receive
        ("drop", "recv timed out: peer stalled, channel empty"),
        ("stall", "recv timed out: peer stalled mid-transfer (injected stall)"),
    ], ids=["drop", "stall"])
    def test_timeout_message_names_the_fault_kind(self, kind, says):
        """A modeled channel cannot block: nothing queued *is* its
        timeout, one message per fault kind."""
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse(f"{kind}@0"))
        ch.send(b"vanishes")
        with pytest.raises(ChannelTimeoutError) as excinfo:
            ch.recv()
        assert str(excinfo.value) == says

    def test_disconnect_kills_channel_until_reset(self):
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("disconnect@0"))
        with pytest.raises(ChannelClosedError):
            ch.send(b"x")
        with pytest.raises(ChannelClosedError):
            ch.send(b"y")
        ch.reset()
        ch.send(b"z")  # fault was transient: the fresh connection works
        assert ch.recv() == b"z"

    def test_reset_rewinds_send_index(self):
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@1,drop@1"))
        ch.send(b"a")
        ch.send(b"dropped")
        assert ch.recv() == b"a"
        ch.reset()
        ch.send(b"b")  # index 0 again
        ch.send(b"dropped-again")  # the second drop@1 fires
        assert ch.recv() == b"b"
        with pytest.raises(ChannelTimeoutError):
            ch.recv()

    def test_fired_faults_recorded(self):
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("stall@0"))
        ch.send(b"wedged")
        with pytest.raises(ChannelTimeoutError):
            ch.recv()
        assert [f.kind for f in ch.faults_fired] == ["stall"]

    @pytest.mark.parametrize("kind", ["bitflip", "truncate"])
    def test_a_fault_on_an_empty_message_delivers_it_empty(self, kind):
        """A bit flip or a cut scheduled on a zero-byte message fires,
        is booked, and the message arrives as it was sent: empty."""
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse(f"{kind}@0"))
        ch.send(b"")
        assert ch.recv() == b""
        assert [f.kind for f in ch.faults_fired] == [kind]

    #: what goes through the send path
    FRAME_KINDS = {
        "message": lambda ch: ch.send(b"whole message"),
        "MCHK": lambda ch: ch._send_frame(encode_chunk(0, b"x" * 64)),
        "MCHZ": lambda ch: ch._send_frame(encode_chunk(0, b"x" * 64, compress=True)),
        "end-of-stream": lambda ch: ch._send_frame(encode_end_of_stream(1)),
        # a pre-copy round is a chunk stream like any other
        "round": lambda ch: ch.send_chunk(b"delta"),
        "end-of-round": lambda ch: ch.end_stream(),
    }

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_every_send_has_an_index(self, kind):
        """One send path: whole messages, chunks and terminators — a
        pre-copy round's too — each advance the plan's send index, a
        fault scheduled for it fires, and every kind is accounted and
        refused on a dead connection."""
        send = self.FRAME_KINDS[kind]
        inner = Channel(LOOPBACK)
        ch = FaultyChannel(inner, FaultPlan())
        send(ch)
        assert ch._send_index == 1
        assert ch.bytes_sent == inner.bytes_sent > 0
        delivered = inner.recv()  # exactly one message queued
        with pytest.raises(ChannelTimeoutError):
            inner.recv()
        if kind == "MCHZ":
            assert bytes(delivered[:4]) == b"MCHZ"  # compression engaged

        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@0"))
        send(ch)
        with pytest.raises(ChannelTimeoutError):  # nothing was queued
            ch.inner.recv()
        assert len(ch.faults_fired) == 1

        dead = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("disconnect@0"))
        with pytest.raises(ChannelClosedError):
            dead.send(b"fires the disconnect")
        with pytest.raises(ChannelClosedError):
            send(dead)
        with pytest.raises(ChannelTimeoutError):  # nothing was queued
            dead.inner.recv()

    def test_public_frame_senders_ride_the_one_send_path(self):
        """A round's stream and the attempt's after it number on from
        each other."""
        ch = FaultyChannel(Channel(LOOPBACK), FaultPlan())
        ch.send_chunk(b"d")  # a pre-copy round
        ch.end_stream()
        assert ch._send_index == 2
        ch.send_chunk(b"c")
        ch.end_stream()
        assert ch._send_index == 4
        assert ch.bytes_sent == ch.framed_bytes_sent == ch.inner.bytes_sent


class TestFaultMatrix:
    """Every fault kind × both transfer modes: typed failure with the
    destination untouched and the source runnable, or clean success."""

    @pytest.mark.parametrize("streaming", [False, True], ids=["mono", "stream"])
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_single_fault_no_retry_aborts_cleanly(
        self, prog, expected, kind, streaming
    ):
        proc = stopped(prog)
        waiting = Process(prog, SPARC20)
        waiting.load()
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse(f"{kind}@0"))
        with pytest.raises(MigrationAbortedError) as excinfo:
            MigrationEngine().migrate(
                proc, SPARC20, channel=channel, waiting=waiting,
                streaming=streaming, chunk_size=64,
            )
        # the abort carries the typed underlying error
        assert isinstance(
            excinfo.value.last_error,
            (ChannelError, WireFrameError, RestoreError),
        )
        assert excinfo.value.attempts == 1
        # destination untouched: still a waiting, never-run process
        assert not waiting.frames and not waiting.exited
        # source untouched: still at its poll-point, and it runs to the
        # exact baseline output
        assert proc.frames and not proc.exited
        proc.migration_pending = False
        assert proc.run().status == "exit"
        assert proc.stdout == expected

    @pytest.mark.parametrize("streaming", [False, True], ids=["mono", "stream"])
    def test_abort_carries_the_failed_runs_stats(self, prog, streaming):
        """What a failure investigation reads — attempts, aborted bytes,
        the fault / attempt_fail / backoff events — leaves ``migrate()``
        with the error, closed and consistent."""
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@0!"))
        with pytest.raises(MigrationAbortedError) as excinfo:
            MigrationEngine().migrate(
                stopped(prog), SPARC20, channel=channel, streaming=streaming,
                chunk_size=64, max_attempts=2,
            )
        stats = excinfo.value.stats
        assert stats.attempts == excinfo.value.attempts == 2
        assert stats.retries == 1
        obs = stats.obs
        assert stats.aborted and stats.aborted_bytes > 0
        assert stats.counters()["engine.aborted_bytes"] == stats.aborted_bytes
        assert [e["attempt"] for e in obs.events.of_type("attempt_fail")] == [1, 2]
        assert len(obs.events.of_type("backoff")) == 1
        assert not obs.events.of_type("migration_end")
        assert obs.tracer.root.end_s is not None
        assert validate_trace_lines(obs.to_jsonl()) == []

    @pytest.mark.parametrize("streaming", [False, True], ids=["mono", "stream"])
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_transient_fault_with_retry_succeeds(
        self, prog, expected, kind, streaming
    ):
        proc = stopped(prog)
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse(f"{kind}@0"))
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=streaming, chunk_size=64,
            max_attempts=3,
        )
        dest.run()
        assert dest.stdout == expected
        assert proc.exited and not proc.frames
        assert stats.attempts == 2 and stats.retries == 1
        assert stats.aborted_bytes > 0
        assert stats.time_in_backoff > 0

    @pytest.mark.parametrize("kind", ["memory", "socket"])
    def test_aborted_bytes_count_every_frame_once(self, prog, kind):
        """``aborted_bytes`` of a failed streamed attempt is what the
        channel accepted during it.  Wherever a frame rides ``send()``
        it is already in ``bytes_sent``; adding ``framed_bytes_sent`` on
        top counted each frame twice (only a bare ``SocketChannel``
        keeps the two counters disjoint)."""

        def make():
            if kind == "memory":
                return Channel(LOOPBACK)
            return SocketChannel(LOOPBACK)

        def migrate(channel):
            try:
                _dest, stats = MigrationEngine().migrate(
                    stopped(prog), SPARC20, channel=channel, streaming=True,
                    chunk_size=64, max_attempts=3,
                )
            finally:
                if kind == "socket":
                    channel.close()
            return stats

        # a streamed migration sends frames only, and framed_bytes_sent
        # counts each frame of every kind once as it is built: the
        # failed attempt's share is the total minus one clean attempt
        clean = make()
        assert migrate(clean).aborted_bytes == 0
        faulty = FaultyChannel(make(), FaultPlan.parse("bitflip@0"))
        stats = migrate(faulty)
        assert stats.attempts == 2
        failed_attempt = faulty.framed_bytes_sent - clean.framed_bytes_sent
        assert stats.aborted_bytes == failed_attempt > 0

    def test_fault_free_run_reports_single_attempt(self, prog, expected):
        proc = stopped(prog)
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, max_attempts=3
        )
        dest.run()
        assert dest.stdout == expected
        assert stats.attempts == 1 and stats.retries == 0
        assert stats.aborted_bytes == 0 and stats.time_in_backoff == 0.0

    def test_default_mode_bitflip_is_refused_by_the_receiver(self, prog):
        """Integrity is the receiver's: a bit flipped in a default-mode
        transfer is a typed FrameCorruptError decided from the received
        bytes alone — a decoder handed nothing but what came off the
        channel refuses them too — never silent corruption."""
        proc = stopped(prog)
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("bitflip@0:999"))
        arrived = tap_frames(channel.inner)  # as the fault left them
        with pytest.raises(MigrationAbortedError) as excinfo:
            MigrationEngine().migrate(proc, SPARC20, channel=channel)
        assert isinstance(excinfo.value.last_error, FrameCorruptError)
        (damaged,) = arrived
        with pytest.raises(FrameCorruptError):
            decode_chunk(damaged)

    def test_dropped_terminator_is_a_timeout_and_a_retry_cures_it(
        self, prog, expected
    ):
        """``drop@1`` loses the default mode's second indexed send, the
        terminator: a typed timeout, the source resumable — and the
        retry arrives."""
        proc = stopped(prog)
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@1"))
        with pytest.raises(MigrationAbortedError) as excinfo:
            MigrationEngine().migrate(proc, SPARC20, channel=channel)
        assert isinstance(excinfo.value.last_error, ChannelTimeoutError)
        assert proc.frames and not proc.exited

        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@1"))
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel,
            max_attempts=2,
        )
        dest.run()
        assert dest.stdout == expected
        assert stats.attempts == 2 and stats.n_chunks == 1

    def test_two_faults_need_three_attempts(self, prog, expected):
        proc = stopped(prog)
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@0,drop@0"))
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel,
            max_attempts=4,
        )
        dest.run()
        assert dest.stdout == expected
        assert stats.attempts == 3 and stats.retries == 2


class TestRetryPolicy:
    """A retry is a count: ``max_attempts``, and the engine's one backoff
    schedule, booked as modeled time and never slept."""

    @staticmethod
    def abort(prog, max_attempts):
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@0!"))
        with pytest.raises(MigrationAbortedError) as excinfo:
            MigrationEngine().migrate(
                stopped(prog), SPARC20, channel=channel, max_attempts=max_attempts
            )
        return excinfo.value

    def test_backoff_is_exponential_and_capped(self, prog):
        exc = self.abort(prog, 10)
        delays = [e["delay_s"] for e in exc.stats.obs.events.of_type("backoff")]
        assert delays == pytest.approx(
            [0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.0, 1.0]
        )
        assert exc.stats.time_in_backoff == pytest.approx(sum(delays))

    def test_a_long_retry_budget_does_not_overflow(self, prog):
        """1099 backoffs: the exponent is capped before the power is
        taken (``2.0 ** 1024`` overflows a float)."""
        exc = self.abort(prog, 1100)
        assert exc.attempts == exc.stats.attempts == 1100
        assert exc.stats.time_in_backoff == pytest.approx(1.27 + (1099 - 7) * 1.0)

    def test_backoff_is_booked_not_slept(self, prog, monkeypatch):
        def refuse(seconds):
            raise AssertionError(f"a migration slept {seconds} s")

        monkeypatch.setattr(time, "sleep", refuse)
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@0"))
        _, stats = MigrationEngine().migrate(
            stopped(prog), SPARC20, channel=channel, max_attempts=2
        )
        assert stats.time_in_backoff == pytest.approx(0.01)
        (backoff,) = stats.obs.events.of_type("backoff")
        assert backoff["delay_s"] == pytest.approx(0.01)

    def test_zero_attempts_rejected(self, prog):
        proc = stopped(prog)
        with pytest.raises(MigrationError, match="max_attempts must be >= 1") as excinfo:
            MigrationEngine().migrate(proc, SPARC20, max_attempts=0)
        assert excinfo.value.stats is None
        assert proc.frames and not proc.exited


class TestGracefulDegradation:
    def test_no_degradation_without_opt_in(self, prog):
        """A link that persistently kills the third frame defeats every
        streamed attempt, and there is no other schedule to fall back
        on (the default is the same envelope with one chunk): the migration
        aborts, typed, after ``max_attempts``."""
        proc = stopped(prog)
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("bitflip@2:7!"))
        with pytest.raises(MigrationAbortedError) as excinfo:
            MigrationEngine().migrate(
                proc, SPARC20, channel=channel, streaming=True, chunk_size=64,
                max_attempts=3,
            )
        assert excinfo.value.attempts == 3


class TestSocketStall:
    def test_stalled_peer_times_out_not_hangs(self):
        """A peer that connects and then goes silent must raise
        ChannelTimeoutError — no hang: the sender runs on the reader's
        thread, so a frame not queued by the time it is read never
        comes."""
        ch = SocketChannel(link=LOOPBACK)
        t0 = time.monotonic()
        with pytest.raises(ChannelTimeoutError, match="stalled"):
            ch.recv_chunk()
        assert time.monotonic() - t0 < 5.0
        ch.close()

    def test_mid_frame_stall_times_out(self):
        """A peer that sends half a frame header then stalls: the half
        header crosses the socket pair and is refused, typed, as a cut
        frame; the read after it times out."""
        ch = SocketChannel(link=LOOPBACK)
        ch._send_frame(encode_chunk(0, b"x" * 64)[:2])  # 2 of the 16 header bytes
        with pytest.raises(TruncatedFrameError):
            ch.recv_chunk()
        with pytest.raises(ChannelTimeoutError):
            ch.recv_chunk()
        ch.close()

    def test_retry_on_fresh_channel_succeeds(self):
        stalled = SocketChannel(link=LOOPBACK)
        with pytest.raises(ChannelTimeoutError):
            stalled.recv_chunk()
        stalled.close()

        fresh = SocketChannel(link=LOOPBACK)
        sent = [bytes([i]) * 400 for i in range(8)]
        for c in sent:
            fresh.send_chunk(c)
        fresh.end_stream()
        got = list(fresh.iter_chunks())
        fresh.close()
        assert got == sent

    def test_reset_gives_working_channel_after_timeout(self):
        ch = SocketChannel(link=LOOPBACK)
        with pytest.raises(ChannelTimeoutError):
            ch.recv_chunk()
        ch.reset()
        ch.send_chunk(b"after-reset")
        ch.end_stream()
        assert list(ch.iter_chunks()) == [b"after-reset"]
        ch.close()

    def test_engine_retries_socket_migration(self, prog, expected):
        """A dropped frame mid-stream on a real socket: the consumer sees
        a typed error, and the retry — on the same channel object, whose
        ``reset()`` dialled a new socket pair — completes."""
        sock = SocketChannel(link=LOOPBACK)
        channel = FaultyChannel(sock, FaultPlan.parse("drop@1"))
        first_pair = (sock._tx, sock._rx)
        proc = stopped(prog)
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel, streaming=True,
            chunk_size=256, max_attempts=3,
        )
        dest.run()
        assert dest.stdout == expected
        assert stats.attempts == 2
        # one reset, one fresh connection: the failed pair is closed
        assert sock._tx is not first_pair[0] and sock._rx is not first_pair[1]
        assert all(s.fileno() == -1 for s in first_pair)
        channel.close()


#: a ring grown one node per poll-point, so a pre-copy has slices to run
POLLING_RING = """
struct node { double w; struct node *next; };
struct node *ring;
int main() {
    int i; struct node *p; double s;
    for (i = 0; i < 40; i++) {
        struct node *e = (struct node *) malloc(sizeof(struct node));
        e->w = i * 0.5; e->next = ring; ring = e;
        migrate_here();
    }
    s = 0.0;
    for (p = ring; p != NULL; p = p->next) s += p->w;
    printf("%d\\n", (int) s);
    return 0;
}
"""

#: the four ways a migration crosses a channel
ONE_THREAD_MODES = {
    "serial": {},
    "streamed": {"streaming": True, "chunk_size": 256},
    "precopy": {
        "precopy": True,
        "precopy_policy": PrecopyPolicy(max_rounds=3, stop_dirty_blocks=0),
    },
    "drop@1-retried": {"max_attempts": 2},
}


class TestOneThread:
    @pytest.fixture(scope="class")
    def ring(self):
        return compile_program(POLLING_RING, poll_strategy="user")

    @pytest.mark.parametrize("mode", ONE_THREAD_MODES)
    def test_socket_migration_runs_on_the_calling_thread(self, ring, mode, monkeypatch):
        """A migration over the socket starts no thread, in every mode:
        it arrives with the unmigrated output, and the socket accepts
        the bytes the in-memory channel does."""
        baseline = Process(ring, DEC5000)
        baseline.run_to_completion()

        def refuse(thread):
            raise AssertionError(f"a migration started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        wire = {}
        for make in (Channel, SocketChannel):
            channel = make(LOOPBACK)
            if mode == "drop@1-retried":
                channel = FaultyChannel(channel, FaultPlan.parse("drop@1"))
            proc = Process(ring, DEC5000)
            proc.start()
            proc.migration_pending = True
            proc.migrate_after_polls = 5
            assert proc.run().status == "poll"
            try:
                dest, stats = MigrationEngine().migrate(
                    proc, SPARC20, channel=channel, **ONE_THREAD_MODES[mode]
                )
            finally:
                channel.close()
            dest.run_to_completion()
            assert dest.stdout == baseline.stdout
            assert stats.attempts == (2 if mode == "drop@1-retried" else 1)
            assert stats.precopy_rounds >= (2 if mode == "precopy" else 0)
            assert not stats.precopy_degraded
            wire[make] = channel.accepted_bytes
        assert wire[SocketChannel] == wire[Channel]


class TestCheckpointBeforeMigrate:
    def test_aborted_migration_resumes_from_checkpoint(
        self, prog, expected, tmp_path
    ):
        """A checkpoint taken before the transfer: when every attempt
        fails — or the source host later dies — the run resumes from
        disk, even on a different architecture."""
        ckpt = tmp_path / "pre-migrate.ckpt"
        proc = stopped(prog)
        checkpoint_to_file(proc, ckpt)
        channel = FaultyChannel(
            Channel(LOOPBACK), FaultPlan.parse("disconnect@0!")
        )
        with pytest.raises(MigrationAbortedError):
            MigrationEngine().migrate(
                proc, SPARC20, channel=channel,
                max_attempts=2,
            )
        assert ckpt.exists()
        resumed = restart_from_file(prog, ckpt, ALPHA)
        resumed.run()
        assert resumed.stdout == expected

    def test_checkpoint_written_even_on_success(self, prog, expected, tmp_path):
        ckpt = tmp_path / "pre-migrate.ckpt"
        proc = stopped(prog)
        checkpoint_to_file(proc, ckpt)
        dest, _ = MigrationEngine().migrate(proc, SPARC20)
        dest.run()
        assert dest.stdout == expected
        assert ckpt.exists()
        replay = restart_from_file(prog, ckpt, SPARC20)
        replay.run()
        assert replay.stdout == expected


class TestTransactionalRestore:
    def test_waiting_process_identity_preserved(self, prog, expected):
        """The commit grafts restored state onto the caller's waiting
        process object — same identity, now runnable."""
        proc = stopped(prog)
        waiting = Process(prog, SPARC20, name="the-waiter")
        waiting.load()
        dest, _ = MigrationEngine().migrate(proc, SPARC20, waiting=waiting)
        assert dest is waiting
        dest.run()
        assert dest.stdout == expected

    def test_payload_byte_identical_after_retry(self, prog):
        """The payload restored on attempt 2 is byte-identical to what a
        clean collection produces — a failed attempt must not perturb
        the source's collectable state."""
        reference, _ = collect_state(stopped(prog))
        proc = stopped(prog)
        channel = FaultyChannel(Channel(LOOPBACK), FaultPlan.parse("drop@0"))
        received = []
        inner_send = channel.inner.send

        def spy(payload):
            received.append(payload)
            return inner_send(payload)

        channel.inner.send = spy
        dest, stats = MigrationEngine().migrate(
            proc, SPARC20, channel=channel,
            max_attempts=2,
        )
        assert stats.retries == 1
        # of everything delivered (both attempts' terminators, attempt
        # 1's chunk was dropped) exactly one frame carries payload, and
        # it is byte-identical to a clean collection
        chunks = [
            payload for f in received for _seq, payload in [decode_chunk(f)] if payload
        ]
        assert chunks == [reference]


# -- one fault, one typed error, in every mode ---------------------------------

MODES = {
    "monolithic": {},
    "streaming": {"streaming": True, "chunk_size": 4096},
    # the same stream over the socket: the collector's error reaches
    # the caller as it was raised
    "streaming-socket": {
        "streaming": True, "chunk_size": 4096, "channel": SocketChannel,
    },
    "attributed": {"attribution": True},
    "precopy": {"precopy": True, "precopy_policy": PrecopyPolicy(max_rounds=2)},
}


def assert_source_untouched(proc, observation, expected_stdout):
    """What every failed migration owes the source: no collection-time
    registrations, no profiler, a closed trace, and a process that runs
    on to the unmigrated output."""
    assert not [b for b in proc.msrlt.blocks() if b.logical[0] == BlockKind.STACK]
    assert proc.msrlt.profiler is None
    assert observation.tracer.root.end_s is not None
    assert proc.frames and not proc.exited
    proc.migration_pending = False
    assert proc.run().status == "exit"
    assert proc.stdout == expected_stdout


#: ``stale`` outlives the block it points into (past its first cell, so
#: it is not the one-past-the-end address of the node allocated before
#: it): collection meets a pointer that resolves to no live block, which
#: the collector must refuse
DANGLING_PROGRAM = """
struct node { double w; struct node *next; };
struct node *ring;
struct node **stale;
int main() {
    int i;
    struct node *doomed;
    for (i = 0; i < 30; i++) {
        struct node *e = (struct node *) malloc(sizeof(struct node));
        e->w = i * 0.5; e->next = ring; ring = e;
    }
    doomed = ring;
    stale = &doomed->next;
    ring = ring->next;
    free(doomed);
    doomed = NULL;
    migrate_here();
    { struct node *p; double s = 0.0;
      for (p = ring; p != NULL; p = p->next) s += p->w;
      printf("%.2f", s); }
    return 0;
}
"""


class TestCollectorFault:
    """A dangling pointer in live state is a fault of the collection
    itself (the traversal finds no block behind it).  Whatever the mode,
    that is one error: typed, named, not retried, and the source runs
    on."""

    @pytest.fixture(scope="class")
    def dangling(self):
        prog = compile_program(DANGLING_PROGRAM, poll_strategy="user")
        baseline = Process(prog, DEC5000)
        baseline.run_to_completion()
        return prog, baseline.stdout

    @pytest.mark.parametrize("mode", MODES)
    def test_collector_fault_is_one_typed_error(self, dangling, mode):
        prog, expected_stdout = dangling
        proc = stopped(prog)
        kwargs = dict(MODES[mode])
        if "channel" in kwargs:  # a kind of channel: one of its own per run
            kwargs["channel"] = kwargs["channel"](LOOPBACK)
        with pytest.raises(MigrationError, match="collection failed") as excinfo:
            MigrationEngine().migrate(
                proc, SPARC20,
                max_attempts=3,
                **kwargs,
            )
        assert type(excinfo.value) is CollectError
        assert isinstance(excinfo.value.__cause__, MSRLTError)
        assert "dangling or fabricated" in str(excinfo.value)
        assert not isinstance(excinfo.value, RETRYABLE_ERRORS)
        # no retry or backoff was spent on it
        assert excinfo.value.stats.time_in_backoff == 0
        assert not excinfo.value.stats.obs.events.of_type("backoff")
        # the error carries the failed run's stats and observation out
        stats = excinfo.value.stats
        assert stats.retries == 0 and stats.payload_bytes == 0
        assert len(stats.obs.tracer.find("attempt")) == (0 if mode == "precopy" else 1)
        assert_source_untouched(proc, stats.obs, expected_stdout)


class TestRestorerFault:
    """The restore-side net makes wire damage retryable — and nothing
    else: a failure of the interpreter under the restorer fails fast."""

    @staticmethod
    def failing_restorer(exc):
        class Failing(engine_module.Restorer):
            def restore_variable(self, block):
                raise exc

        return Failing

    @pytest.mark.parametrize("streaming", [False, True], ids=["mono", "stream"])
    @pytest.mark.parametrize(
        "exc", [RecursionError("deep"), MemoryError("big"), AssertionError("bug")],
        ids=lambda e: type(e).__name__,
    )
    def test_interpreter_failures_are_not_retried(
        self, prog, expected, monkeypatch, exc, streaming
    ):
        monkeypatch.setattr(engine_module, "Restorer", self.failing_restorer(exc))
        proc = stopped(prog)
        with pytest.raises(MigrationError, match="not retried") as excinfo:
            MigrationEngine().migrate(
                proc, SPARC20, streaming=streaming, chunk_size=64,
                max_attempts=3,
            )
        assert type(excinfo.value) is MigrationError
        assert excinfo.value.__cause__ is exc
        assert excinfo.value.stats.time_in_backoff == 0
        assert not excinfo.value.stats.obs.events.of_type("backoff")
        assert_source_untouched(proc, excinfo.value.stats.obs, expected)

    def test_damage_shaped_failures_stay_retryable(self, prog, monkeypatch):
        """The named family, one of each: a refused record, an id the
        destination lacks (or a serial registered twice), the carve out
        of heap, an underrun, a bad header."""
        assert engine_module.DAMAGE_ERRORS == (
            MsrRestoreError, MSRLTError, MemoryFault, EOFError, ValueError
        )
        for damage in engine_module.DAMAGE_ERRORS:
            monkeypatch.setattr(
                engine_module, "Restorer", self.failing_restorer(damage("garbage"))
            )
            with pytest.raises(MigrationAbortedError) as excinfo:
                MigrationEngine().migrate(
                    stopped(prog), SPARC20, max_attempts=2
                )
            assert excinfo.value.attempts == 2
            assert isinstance(excinfo.value.last_error, RestoreError)
            assert isinstance(excinfo.value.last_error.__cause__, damage)

    @pytest.mark.parametrize("streaming", [False, True], ids=["mono", "stream"])
    @pytest.mark.parametrize(
        "bug", [TypeError("int + str"), AttributeError("no such"), KeyError("k"),
                IndexError("i")],
        ids=lambda e: type(e).__name__,
    )
    def test_a_bug_inside_a_plan_is_not_transport_noise(
        self, prog, expected, monkeypatch, bug, streaming
    ):
        """Nothing outside the damage family is retried: a plan that
        raises like a programming error does fails the migration in its
        first attempt, and the source runs on."""

        def restore(self, restorer, block, info):
            raise bug

        monkeypatch.setattr(FlatPlan, "restore", restore)
        proc = stopped(prog)
        with pytest.raises(MigrationError, match="not retried") as excinfo:
            MigrationEngine().migrate(
                proc, SPARC20, streaming=streaming, chunk_size=64,
                max_attempts=3,
            )
        assert type(excinfo.value) is MigrationError
        assert excinfo.value.__cause__ is bug
        assert excinfo.value.stats.time_in_backoff == 0
        assert not excinfo.value.stats.obs.events.of_type("backoff")
        observation = excinfo.value.stats.obs
        assert len(observation.tracer.find("attempt")) == 1
        assert_source_untouched(proc, observation, expected)
