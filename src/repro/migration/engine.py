"""The migration mechanism: collect → transfer → restore → resume.

Mirrors the paper §2's event sequence: the destination process is invoked
and waits; the migrating process collects its execution state (the call
chain with resume labels) and memory state (live data through the MSR
machinery), sends them, and terminates; the new process restores both and
"resumes execution from the point where process migration occurred".

Collection order follows the §3.2 example: live data of the innermost
function first (``foo`` before ``main``), then the globals.  The frame
*table* is written outermost-first so the restorer can rebuild activation
records bottom-up before any data arrives.

Every transfer attempt crosses the channel in ONE envelope
(:mod:`repro.msr.wire`: the payload as CRC-carrying chunk frames, then a
terminator), written and read by one attempt body
(:meth:`_Run._attempt`), so damage is always the receiver's typed
verdict on wire bytes.  There is one schedule, the paper's: the whole
payload is collected, shipped (:func:`ship_stream`) and restored from
one contiguous buffer once the terminator is in.  ``streaming=`` only
says where the frames are cut — the serial default sends the payload as
chunk 0, ``streaming=True`` as ``chunk_size`` chunks that concatenate
to the same bytes.  Either way the stats report the Collect + Tx +
Restore that ran (``stats.migration_time``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from repro import obs
from repro.arch.buffers import ReadBuffer, WriteBuffer
from repro.migration.stats import MigrationStats
from repro.obs import MigrationObservation
from repro.obs.attribution import AttributionProfiler
from repro.migration.transport import Channel, ChannelError, LOOPBACK, Link
from repro.msr.collect import Collector
from repro.msr.msrlt import BlockKind, MSRLTError
from repro.msr.restore import RestoreError as MsrRestoreError, Restorer
from repro.msr.wire import (
    CHUNK_HEADER_SIZE,
    OwnedChunk,
    WireFrameError,
    WireHeader,
    read_header,
    write_header,
)
from repro.vm.memory import MemoryFault
from repro.vm.process import Process

__all__ = [
    "MigrationEngine",
    "collect_state",
    "collect_state_chunks",
    "restore_state",
    "restore_state_stream",
    "MigrationError",
    "CollectError",
    "RestoreError",
    "MigrationAbortedError",
    "RETRYABLE_ERRORS",
    "DAMAGE_ERRORS",
    "DEFAULT_CHUNK_SIZE",
]

#: default streaming chunk payload size (bytes)
DEFAULT_CHUNK_SIZE = 64 * 1024


class MigrationError(Exception):
    """A migration could not be performed."""

    #: the failed run's :class:`MigrationStats` (``.obs`` attached: the
    #: events, spans and counters of every attempt made), set on whatever
    #: leaves ``migrate()``; ``None`` only when the arguments were refused
    #: before a run began
    stats: Optional[MigrationStats] = None


class CollectError(MigrationError):
    """The collector itself failed (a dangling or fabricated pointer in
    live state, a pointer into padding).  That is not transport noise —
    every retry would repeat it — so the engine fails fast; the source
    stays at its poll-point, runnable."""


class RestoreError(MigrationError):
    """The received payload failed validation or restoration.  The
    destination process was NOT touched (restoration is transactional:
    it runs against a scratch process that is discarded on failure)."""


class MigrationAbortedError(MigrationError):
    """Every attempt failed; the migration is off.  The source process
    is still stopped at its poll-point and still runnable, and the
    destination was never mutated."""

    def __init__(self, message: str, attempts: int, last_error: Exception) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


#: transient failures a retry can cure (wire damage — the receiver's
#: :class:`~repro.msr.wire.WireFrameError` —, stalls, drops); anything
#: else — bad arguments, wrong program, a collector fault — fails fast
RETRYABLE_ERRORS = (ChannelError, WireFrameError, RestoreError)

#: what damaged or hostile bytes make the restore side raise: a record
#: the restorer refuses, a logical id the destination does not have, a
#: block the simulated heap cannot hold, a buffer underrun, a bad header
#: (magic, version).  Anything else under a restore
#: is a bug in this program: a retry repeats it, so it is never made
#: retryable
DAMAGE_ERRORS = (MsrRestoreError, MSRLTError, MemoryFault, EOFError, ValueError)


@contextmanager
def collect_errors():
    """Around every collection a migration drives: whatever the collector
    raises (its own :class:`MigrationError` refusals aside) becomes a
    :class:`CollectError`, in every transfer mode."""
    try:
        yield
    except MigrationError:
        raise
    except Exception as exc:
        raise CollectError(
            f"collection failed with {type(exc).__name__} ({exc}); the "
            f"source is still at its poll-point"
        ) from exc


@contextmanager
def restore_errors(what: str):
    """The one damage-to-:class:`RestoreError` net, around every place
    received bytes are turned into destination state (the final restore,
    the pre-copy snapshot restore, each delta round).

    What garbage on the wire makes the restorer raise — the
    :data:`DAMAGE_ERRORS` family — becomes a typed, retryable
    :class:`RestoreError` naming *what* failed.  Errors that already are
    typed pass through; everything else (``TypeError``, ``KeyError``,
    ``RecursionError``, …) fails fast as a plain :class:`MigrationError`.
    """
    try:
        yield
    except (MigrationError, ChannelError, WireFrameError):
        raise
    except DAMAGE_ERRORS as exc:
        raise RestoreError(
            f"{what} failed ({exc}); destination left untouched"
        ) from exc
    except Exception as exc:
        raise MigrationError(
            f"{what} failed with {type(exc).__name__} ({exc}); not retried"
        ) from exc


def _collect_records(process: Process, buf: WriteBuffer, fresh=None, stale=None) -> "StateInfo":
    """Write the full migration payload into *buf*; return what the
    pass saw and wrote (:class:`StateInfo`).

    Every collection — :func:`collect_state`, an attempt, the pre-copy
    snapshot — is this one pass, which is what keeps their payload bytes
    identical.  The pre-copy final pass hands over its ledgers, *fresh*
    and *stale* (:class:`~repro.msr.collect.Collector`): the blocks the
    destination holds are born visited, and the stale ones nothing
    reached are the tail section's roots.  Without them the tail section
    is empty.
    """
    if not process.frames:
        raise MigrationError("process has no frames (not running?)")

    # register every live local as an MSR block (lazily, at migration time)
    process.register_stack_blocks()

    program = process.program
    frames = process.frames
    header = WireHeader([(f.func_idx, f.pc) for f in frames])
    write_header(buf, header)

    collector = Collector(process, buf, fresh, stale)

    # frame live data: innermost first (paper §3.2: foo's, then main's)
    for depth in range(len(frames) - 1, -1, -1):
        frame = frames[depth]
        live = program.live_at(frame.func_idx, frame.pc)
        buf.write_u16(len(live))
        for var_idx in live:
            block = process.msrlt.lookup_logical((BlockKind.STACK, depth, var_idx))
            buf.write_u16(var_idx)
            collector.save_variable(block)

    # globals: unconditionally part of the memory state
    globals_ = program.globals
    buf.write_u32(len(globals_))
    for idx in range(len(globals_)):
        block = process.msrlt.lookup_logical((BlockKind.GLOBAL, idx, 0))
        buf.write_u32(idx)
        collector.save_variable(block)

    collector.save_tail()
    stats = collector.finish()
    # the source process is about to terminate; its collection-time stack
    # registrations are dropped for hygiene (it may also be resumed locally
    # when a migration is cancelled)
    process.msrlt.drop_stack_blocks()
    return StateInfo(stats=stats, header=header)


def collect_state(
    process: Process, fresh=None, stale=None
) -> tuple[bytes, "StateInfo"]:
    """Collect the execution + memory state of a process stopped at a
    poll-point.  Returns the machine-independent payload."""
    payload, info = _collect_whole(process, fresh, stale)
    return bytes(payload), info


def _collect_whole(process: Process, fresh=None, stale=None) -> tuple[OwnedChunk, "StateInfo"]:
    """Every shipped collection: the whole payload, written into an
    :class:`~repro.msr.wire.OwnedChunk` — storage :func:`ship_stream`
    takes over — and its :class:`StateInfo`."""
    buf = WriteBuffer(OwnedChunk())
    info = _collect_records(process, buf, fresh, stale)
    return buf.detach(), info


def collect_state_chunks(
    process: Process, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> list[memoryview]:
    """:func:`collect_state`'s payload cut into *chunk_size* views (the
    final one may be shorter): the frames' payloads on the streamed
    schedule.  Kept only because ``benchmarks/suite/layers.py`` and
    tests call it; it goes once the suite stops (ROADMAP 5-I(b))."""
    if chunk_size <= 0:
        raise MigrationError(f"chunk_size must be positive, got {chunk_size}")
    view = memoryview(_collect_whole(process)[0])
    return [view[start : start + chunk_size] for start in range(0, len(view), chunk_size)]


def ship_stream(channel: Channel, payload, chunk_size: int):
    """Send *payload* as one chunk stream — frames of *chunk_size*
    bytes, then the terminator — and return what arrived: the one
    chunk's view, or the chunks joined once.

    Each frame is received as soon as it is sent, so a damaged or lost
    one stops the stream at that frame with the receiver's typed error.
    A payload that fits one chunk is sent as it is: an
    :class:`~repro.msr.wire.OwnedChunk` is framed in its own storage.
    A larger one goes as views of it, and an ``OwnedChunk`` is then
    emptied once its frames are out — its storage is this call's, as it
    is the frame's on one chunk — so the join never sits beside it.
    Every chunk stream of a migration (an attempt, a pre-copy round) is
    this call; the serial schedule passes the whole payload's length.
    """
    if len(payload) <= chunk_size:
        channel.send_chunk(payload)
        chunks = [channel.recv_chunk()]
    else:
        chunks = []
        with memoryview(payload) as view:
            for start in range(0, len(view), chunk_size):
                channel.send_chunk(view[start : start + chunk_size])
                chunks.append(channel.recv_chunk())
        if type(payload) is OwnedChunk:
            payload.clear()
    channel.end_stream()
    channel.recv_chunk()
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


class StateInfo(NamedTuple):
    """By-products of a collection or a restoration: the pass's stats
    and the payload header it wrote or read."""

    stats: object
    header: WireHeader


def _restore_from(program, rbuf, dest: Process, held=None) -> "StateInfo":
    """Rebuild execution + memory state from the payload *rbuf* reads.
    The pre-copy final pass hands over *held*, what the pre-warmed
    *dest* holds (:class:`~repro.msr.restore.Restorer`)."""
    if dest.frames:
        raise MigrationError("destination process already has frames")
    if dest.program is not program:
        raise MigrationError(
            "destination process was invoked from a different program than "
            "the payload claims (the migratable source must be pre-distributed)"
        )
    header = read_header(rbuf)

    dest.load()
    # rebuild activation records outermost-first, then register their
    # blocks so stack logical ids resolve during data restoration
    for func_idx, resume_pc in header.frames:
        if func_idx >= len(program.functions):
            raise RestoreError(
                f"payload resumes function {func_idx}; the program has "
                f"{len(program.functions)}"
            )
        fir = program.functions[func_idx]
        if resume_pc not in fir.liveness.resume_live:
            raise RestoreError(
                f"payload resumes {fir.name}() at pc {resume_pc}, where no "
                f"poll-point or call returns"
            )
        dest.create_restored_frame(func_idx, resume_pc)
    dest.register_stack_blocks()

    # every list is the one the collector must have written — a frame's
    # live variables at its resume pc, every global — whole and in order:
    # a variable left out would resume holding zeros
    restorer = Restorer(dest, rbuf, held)
    for depth in range(len(header.frames) - 1, -1, -1):
        func_idx, resume_pc = header.frames[depth]
        fir = program.functions[func_idx]
        variables = fir.norm.variables
        live = program.live_at(func_idx, resume_pc)
        n_live = rbuf.read_u16()
        if n_live != len(live):
            raise MsrRestoreError(
                f"payload lists {n_live} live variables for {fir.name}() "
                f"(frame {depth}), which resumes at pc {resume_pc} with "
                f"{len(live)}: {', '.join(variables[i].name for i in live) or 'none'}"
            )
        for var_idx in live:
            got = rbuf.read_u16()
            if got != var_idx:
                raise MsrRestoreError(
                    f"payload restores variable {got} of {fir.name}() (frame "
                    f"{depth}) where its live variable {var_idx} "
                    f"({variables[var_idx].name}) comes"
                )
            block = dest.msrlt.lookup_logical((BlockKind.STACK, depth, var_idx))
            restorer.restore_variable(block)

    globals_ = program.globals
    n_globals = rbuf.read_u32()
    if n_globals != len(globals_):
        raise MsrRestoreError(
            f"payload lists {n_globals} globals where the program has "
            f"{len(globals_)}: {', '.join(var.name for var in globals_)}"
        )
    for idx, var in enumerate(globals_):
        got = rbuf.read_u32()
        if got != idx:
            raise MsrRestoreError(
                f"payload restores global {got} where global {idx} ({var.name}) comes"
            )
        block = dest.msrlt.lookup_logical((BlockKind.GLOBAL, idx, 0))
        restorer.restore_variable(block)

    restorer.restore_tail()

    dest.msrlt.drop_stack_blocks()
    return StateInfo(stats=restorer.stats, header=header)


def restore_state(program, payload: bytes, dest: Process, held=None) -> "StateInfo":
    """Rebuild execution + memory state inside a fresh destination process
    (or, with *held*, the pre-warmed scratch of a pre-copy).

    *program* must be the very program object *dest* was invoked from;
    the mismatch is rejected before any destination memory is written.
    """
    return _restore_from(program, ReadBuffer(payload), dest, held)


def restore_state_stream(program, chunks: Iterable[bytes], dest: Process) -> "StateInfo":
    """:func:`restore_state` over the concatenation of *chunks*, joined
    once.  Kept only because ``benchmarks/suite/layers.py`` and tests
    call it; it goes once the suite stops (ROADMAP 5-I(b))."""
    return restore_state(program, b"".join(chunks), dest)


def _check_waiting(waiting: Process, process: Process, dest_arch) -> None:
    """A pre-invoked destination must be loaded but not started, on the
    requested architecture, and invoked from the source's program."""
    if waiting.frames or waiting.exited:
        raise MigrationError("waiting destination is already running")
    if waiting.arch.name != dest_arch.name:
        raise MigrationError(
            f"waiting process is on {waiting.arch.name}, not {dest_arch.name}"
        )
    if waiting.program is not process.program:
        raise MigrationError(
            "waiting process was invoked from a different program "
            "(the migratable source must be pre-distributed)"
        )


@dataclass
class _Run:
    """One migration: what ``migrate()`` was asked for plus the state its
    steps share.  ``migrate()`` runs the steps in order — ``prepare``,
    ``precopy``, ``transfer`` (attempts of collect → transmit →
    restore), ``adopt`` — and ``finish`` on every exit (DESIGN §7).

    One private executor owns what the failable steps (the pre-copy
    phase, one transfer attempt) have in common: :meth:`_guarded`
    brackets a step by its span and, however it fails, by the hygiene a
    failure needs on the source and on the channel.
    """

    source: Process
    #: the caller's pre-invoked destination; ``None``: the adopted
    #: scratch becomes the destination
    waiting: Optional[Process]
    #: the architecture every scratch is built on (the waiting one's)
    dest_arch: object
    #: the one channel every step speaks on (the caller's, or the
    #: engine's default)
    channel: Channel
    #: whether the payload is cut into ``chunk_size`` frames
    streaming: bool
    chunk_size: int
    compress: bool
    max_attempts: int
    #: ``None`` = plain stop-and-copy
    precopy_policy: Optional[object]
    obs: MigrationObservation
    stats: MigrationStats = field(init=False)
    #: what a surviving pre-copy phase hands the final attempt
    pre_state: Optional[object] = None
    #: the off-to-the-side process the current attempt restores into
    scratch: Optional[Process] = None
    #: what ``migrate()`` returns, set by :meth:`adopt`
    dest: Optional[Process] = None
    adopted: bool = False

    def __post_init__(self) -> None:
        self.stats = MigrationStats(
            source_arch=self.source.arch.name,
            dest_arch=self.dest_arch.name,
            n_frames=len(self.source.frames),
            obs=self.obs,
        )
        self.obs.stats = self.stats

    # -- the steps ---------------------------------------------------------

    def prepare(self) -> None:
        """Open the books: the compression switch
        (every chunk stream of the run — pre-copy rounds too — obeys
        it), the begin event, and baselines for the per-migration
        deltas of the cumulative MSRLT and channel counters."""
        stats = self.stats
        self.channel.compress_stream = self.compress
        obs.event(
            "migration_begin",
            source_arch=stats.source_arch,
            dest_arch=stats.dest_arch,
            streaming=self.streaming,
            compress=self.compress,
            precopy=self.precopy_policy is not None,
        )
        self._tallies0 = self._tallies()
        self._faults0 = len(getattr(self.channel, "faults_fired", ()))

    def precopy(self) -> None:
        """Iterative pre-copy, when asked for: snapshot + delta rounds
        into a scratch that the final attempt then only tops up.  A
        retryable failure degrades to the plain path."""
        if self.precopy_policy is None:
            return
        from repro.migration.precopy import run_precopy

        scratch = self._new_scratch()

        def rounds():
            return run_precopy(
                self.source, scratch, self.channel, self.precopy_policy,
                self.stats, self.chunk_size,
            )

        try:
            self.pre_state = self._guarded("precopy", rounds)
        except RETRYABLE_ERRORS as exc:
            self._degrade_precopy(exc)

    def transfer(self) -> None:
        """The stop-and-copy: attempts of collect → transmit → restore
        up to ``max_attempts`` of them (modeled backoff, degradation of
        a failing pre-copy final pass to a plain one)."""
        stats, channel = self.stats, self.channel
        for attempt in range(self.max_attempts):
            stats.attempts, stats.retries = attempt + 1, attempt
            sent_before = channel.accepted_bytes
            use_pre = self._stage()
            obs.event(
                "attempt_begin", attempt=attempt + 1,
                streaming=self.streaming, precopy_final=use_pre,
            )
            if self.obs.attribution is not None:
                # the table is the attempt that arrives: a failed
                # attempt's and the pre-copy rounds' work stays in spans
                self.obs.attribution = AttributionProfiler()
            try:
                self._guarded("attempt", self._attempt, n=attempt + 1)
                return
            except RETRYABLE_ERRORS as exc:
                error = exc
            aborted = channel.accepted_bytes - sent_before
            stats.aborted_bytes += aborted
            obs.event(
                "attempt_fail",
                attempt=attempt + 1,
                error_type=type(error).__name__,
                error=str(error),
            )
            if use_pre:
                self._degrade_precopy(error)
            if attempt + 1 >= self.max_attempts:
                stats.aborted = True
                raise MigrationAbortedError(
                    f"migration aborted after {attempt + 1} attempt(s); "
                    f"source still runnable, destination untouched "
                    f"(last error: {error})",
                    attempts=attempt + 1,
                    last_error=error,
                ) from error
            # modeled like Tx, never slept: 10 ms doubling, capped at 1 s
            # (the exponent first: 2.0 ** 1024 overflows a float)
            delay = min(0.01 * 2.0 ** min(attempt, 7), 1.0)
            stats.time_in_backoff += delay
            obs.event("backoff", attempt=attempt + 1, delay_s=round(delay, 9))

    def adopt(self) -> None:
        """Commit: the fully-restored scratch becomes the destination —
        itself, or, when the caller pre-invoked one, grafted onto it
        (everything else about a waiting process — identity, image,
        layout, TI table — is already right, scratch shares its program
        and arch) — and terminate the source."""
        stats, source, scratch = self.stats, self.source, self.scratch
        if self.pre_state is not None:
            # the successful final pass rode on the pre-copy: what the
            # user experienced as downtime is only the pause, from the
            # last slice's return to the end of that pass
            stats.precopy = True
            stats.precopy_downtime_s = self.pre_state.stopped_s + stats.migration_time
            obs.record("precopy.downtime_seconds", stats.downtime, derived=True)
        obs.event(
            "migration_end",
            collect_s=round(stats.collect_time, 9),
            tx_s=round(stats.tx_time, 9),
            restore_s=round(stats.restore_time, 9),
            attempts=stats.attempts,
        )
        dest = self.waiting
        if dest is None:
            dest = scratch
        else:
            dest.memory = scratch.memory
            dest.msrlt = scratch.msrlt
            dest.frames = scratch.frames
            dest._loaded = True
            dest.exited = False
            dest.exit_code = None
        # the destination's stdout continues the source's: what the program
        # printed before the migration point (and, under pre-copy, during
        # the slices) comes first, so its stream is the complete output
        dest._stdout[:0] = list(source._stdout)
        # the migrating process terminates after successful transmission
        source.frames.clear()
        source.exited = True
        source.migration_pending = False
        self.dest = dest
        self.adopted = True

    def finish(self) -> None:
        """On every exit: book the counter deltas and the faults that
        fired in the stats, close the span tree."""
        stats, now = self.stats, self._tallies()
        for name, before in self._tallies0.items():
            setattr(stats, name, now[name] - before)
        for fault in getattr(self.channel, "faults_fired", ())[self._faults0:]:
            stats.faults[fault.kind] = stats.faults.get(fault.kind, 0) + 1
        self.obs.tracer.finish()

    # -- what the steps share ----------------------------------------------

    def _guarded(self, span: str, step, **attrs):
        """Run one failable *step* inside its span.  However it fails, a
        half-driven collection's stack registrations are dropped, so the
        source stays cleanly runnable and the next step registers from
        scratch — and the channel is ``reset()`` to fresh-connection
        state, so the next step (the plain pass after a failed pre-copy
        phase, a retry) never reads a frame the failed one left queued."""
        try:
            with self.obs.tracer.span(span, **attrs):
                return step()
        except BaseException:
            self.source.msrlt.drop_stack_blocks()
            self.channel.reset()
            raise

    def _degrade_precopy(self, exc: Exception) -> None:
        """Forget the pre-warmed scratch (half-built by a failed round,
        or half-mutated by a failed final pass) and go on with a plain
        full stop-and-copy from the source's current poll-point — the
        slices it executed are real progress."""
        self.stats.precopy_degraded = True
        self.pre_state = None
        obs.event(
            "precopy_degraded", error_type=type(exc).__name__, error=str(exc)
        )

    def _tallies(self) -> dict:
        """The cumulative counters this migration books deltas of, by
        stats field: lookups in the tables it touches (the source's
        MSRLT, plus, once adopted, the restored side's, born for this
        migration) and the channel's chunk frames."""
        msrlts = [self.source.msrlt]
        if self.adopted:
            msrlts.append(self.scratch.msrlt)
        return {
            "msrlt_searches": sum(t.n_searches for t in msrlts),
            "msrlt_registrations": sum(t.n_registrations for t in msrlts),
            "chunks_sent": self.channel.chunks_sent,
            "chunks_received": self.channel.chunks_received,
        }

    def _new_scratch(self) -> Process:
        return Process(self.source.program, self.dest_arch, name=f"{self.source.name}'")

    def _stage(self) -> bool:
        """Transactional restore: the attempt builds the new process off
        to the side, and only :meth:`adopt` grafts it onto the real
        destination.  A surviving pre-copy hands over its pre-warmed
        scratch (and :meth:`_attempt` its ledgers: the final collector
        and restorer are born owning them, nothing is copied or
        re-derived from a table; a failed final pass drops the lot,
        :meth:`_degrade_precopy`); returns whether it did."""
        pre = self.pre_state
        self.scratch = self._new_scratch() if pre is None else pre.scratch
        return pre is not None

    # -- one attempt: collect, ship, restore -------------------------------

    def _attempt(self) -> None:
        """Collect → transmit → restore, once: the whole payload is
        collected into the storage its frames are built from, shipped as
        one chunk stream (:func:`ship_stream`: chunk 0 on the serial
        schedule, ``chunk_size`` chunks when streaming) and restored
        from one contiguous buffer once the terminator is in.
        Everything runs on the calling thread, so the ``collect``,
        ``frame``, ``deframe`` and ``restore`` spans hang under the
        ``attempt`` span this runs in."""
        stats, channel = self.stats, self.channel
        # the final pass of a pre-copy is born owning its ledgers
        pre = self.pre_state
        fresh, stale, held = (None,) * 3 if pre is None else (pre.fresh, pre.stale, pre.held)
        framed_before = channel.framed_bytes_sent
        with obs.lap("collect") as collected, collect_errors():
            payload, cinfo = _collect_whole(self.source, fresh, stale)
        size = len(payload)
        cut = self.chunk_size if self.streaming else size
        received = ship_stream(channel, payload, cut)
        del payload  # what arrived is all the restore reads
        with obs.span("restore") as wall, restore_errors("restore"):
            rinfo = _restore_from(self.source.program, ReadBuffer(received), self.scratch, held)

        stats.collect, stats.restore = cinfo.stats, rinfo.stats
        stats.collect_time = collected.seconds
        stats.restore_time = wall.seconds
        stats.payload_bytes = cinfo.stats.wire_bytes
        stats.data_bytes = cinfo.stats.data_bytes
        stats.n_blocks = cinfo.stats.n_blocks
        stats.streamed = self.streaming
        stats.n_chunks = -(-size // cut)

        # what the frames put on the wire, headers and terminator
        # included; back-to-back frames keep the pipe full, so latency is
        # paid once
        framed = channel.framed_bytes_sent - framed_before
        if self.compress:
            # codec time is read off the span tree, so it covers the
            # deflate and inflate laps of *every* attempt, aborted ones too
            stats.compressed = True
            stats.compressed_bytes = framed - (stats.n_chunks + 1) * CHUNK_HEADER_SIZE
            stats.compression_ratio = stats.payload_bytes / stats.compressed_bytes
            stats.codec_time = self.obs.tracer.total_prefix("codec.")
        stats.tx_time = channel.link.transfer_time(framed)
        obs.record("tx", stats.tx_time, modeled=True)


class MigrationEngine:
    """Performs migrations between hosts over a channel."""

    def __init__(self, link: Link = LOOPBACK) -> None:
        self.link = link

    def migrate(
        self,
        process: Process,
        dest_arch,
        channel: Optional[Channel] = None,
        waiting: Optional[Process] = None,
        streaming: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        compress: bool = False,
        max_attempts: int = 1,
        attribution: bool = False,
        precopy: bool = False,
        precopy_policy=None,
    ) -> tuple[Process, MigrationStats]:
        """Migrate *process* (stopped at a poll-point) to *dest_arch*.

        Returns the destination process, ready to resume, plus the
        Collect/Tx/Restore statistics.  The source process is terminated.

        *waiting* may be a pre-invoked destination process (the paper §2:
        "the process on the destination machine is invoked to wait for
        execution and memory states of the migrating process"); it must
        be loaded but not started, and on the requested architecture.

        Every attempt crosses the channel in the one wire envelope
        (:mod:`repro.msr.wire`) on one schedule, Table 1's: the whole
        payload is collected, sent, and restored once the terminator is
        in.  *streaming* only says where the frames are cut: by default
        the payload is chunk 0 and ``n_chunks`` is 1; with
        ``streaming=True`` it goes as *chunk_size* chunks (``n_chunks``
        frames).  ``stats.migration_time`` is the Collect + Tx + Restore
        that ran, and the restored process is identical either way.

        With ``compress=True`` each chunk (the whole payload by
        default) is zlib-deflated and the compressed form kept,
        as an ``'MCHZ'`` frame, only when it shrinks by ≥ 10% (see
        :mod:`repro.msr.wire`); the stats then carry
        ``compressed_bytes``/``compression_ratio``/``codec_time`` and the
        modeled Tx time charges the *stored* bytes.  The restored process
        is identical either way; without the flag the wire bytes are
        unchanged.

        Failure semantics (DESIGN.md §7): restoration is transactional —
        each attempt restores into a scratch process, and the real
        destination (*waiting* included) is only mutated after the whole
        payload has validated and restored, so a failed attempt leaves
        the destination untouched and the source still stopped at its
        poll-point, runnable.  *max_attempts* above 1 makes the engine
        fight transient faults: an exponential backoff (10 ms doubling,
        capped at 1 s) booked as modeled time in
        ``stats.time_in_backoff`` and never slept, and a fresh connection
        after every failed step — the one channel (*channel*, or the
        engine's default) is ``reset()``, whether the pre-copy phase or
        a transfer attempt failed on it.  Wire damage is whatever
        the receiving decoder says of the bytes it got (a
        :class:`~repro.msr.wire.WireFrameError`), however the frames are cut.
        When every attempt fails, :class:`MigrationAbortedError` carries
        the last typed error; it and every other :class:`MigrationError` raised here
        carry the failed run's stats and observation as ``.stats``.

        With ``precopy=True`` the engine runs the iterative pre-copy
        protocol first (:mod:`repro.migration.precopy`): a full snapshot
        ships while the source keeps executing poll-point slices, then
        delta rounds of what each slice wrote, until the dirty set converges
        (*precopy_policy*, a :class:`~repro.migration.precopy.PrecopyPolicy`;
        refused without ``precopy=True``, which it would not switch on).
        The stop-and-copy then skips clean already-delivered blocks, so
        the source's final pause — ``stats.precopy_downtime_s``, counted
        from the last slice's return — covers only the working set.  A retryable failure during pre-copy
        degrades to the plain path (``stats.precopy_degraded``); the
        restored state and the resumed execution are identical either
        way, except that the source has executed a few more poll slices.
        """
        if chunk_size < 1:
            # refused whether or not it cuts anything (the streamed
            # payload, pre-copy rounds)
            raise MigrationError(f"chunk_size must be >= 1, got {chunk_size}")
        if max_attempts < 1:
            raise MigrationError(f"max_attempts must be >= 1, got {max_attempts}")
        if precopy_policy is not None and not precopy:
            # a policy a stop-and-copy would drop on the floor
            raise MigrationError("precopy_policy is given, but precopy is off")
        if waiting is not None:
            _check_waiting(waiting, process, dest_arch)
        if channel is None:
            channel = Channel(self.link)
        if precopy and precopy_policy is None:
            from repro.migration.precopy import PrecopyPolicy

            precopy_policy = PrecopyPolicy()
        run = _Run(
            source=process,
            waiting=waiting,
            dest_arch=dest_arch if waiting is None else waiting.arch,
            channel=channel,
            streaming=streaming,
            chunk_size=chunk_size,
            compress=compress,
            max_attempts=max_attempts,
            precopy_policy=precopy_policy,
            obs=MigrationObservation(attribution=attribution),
        )
        try:
            with run.obs.activate():
                try:
                    run.prepare()
                    run.precopy()
                    run.transfer()
                    run.adopt()
                finally:
                    run.finish()
        except MigrationError as exc:
            # the story of a failed migration is the one a failure
            # investigation reads: it leaves with the error
            exc.stats = run.stats
            raise
        return run.dest, run.stats
