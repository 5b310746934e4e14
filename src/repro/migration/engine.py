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

Two transfer disciplines share that record stream:

- **monolithic** (the paper's prototype, and the default): the whole
  payload is collected, sent in one message, then restored — response
  time is Collect + Tx + Restore (Table 1's model);
- **streaming** (``migrate(..., streaming=True)``): collection drains
  into fixed-size chunks that are framed, transmitted, and restored
  while later records are still being produced, so response time
  approaches ``max(Collect, Tx, Restore)``.  The chunk payloads
  concatenate to the *byte-identical* monolithic payload; only the
  transfer discipline differs.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from repro import obs
from repro.arch.buffers import ReadBuffer, StreamReadBuffer, WriteBuffer
from repro.migration.stats import MigrationStats
from repro.obs import DEFAULT_EVENT_CAPACITY, MigrationObservation, propagate
from repro.migration.transport import Channel, ChannelError, LOOPBACK, Link
from repro.msr.collect import Collector
from repro.msr.msrlt import BlockKind
from repro.msr.restore import Restorer
from repro.msr.wire import (
    CHUNK_HEADER_SIZE,
    WireFrameError,
    WireHeader,
    compress_payload,
    expand_payload,
    peel_context_frame,
    read_header,
    write_header,
)
from repro.vm.process import Process

__all__ = [
    "MigrationEngine",
    "RetryPolicy",
    "collect_state",
    "collect_state_chunks",
    "restore_state",
    "restore_state_stream",
    "MigrationError",
    "TransferError",
    "RestoreError",
    "MigrationAbortedError",
    "RETRYABLE_ERRORS",
    "DEFAULT_CHUNK_SIZE",
]

#: default streaming chunk payload size (bytes)
DEFAULT_CHUNK_SIZE = 64 * 1024


class MigrationError(Exception):
    """A migration could not be performed."""


class TransferError(MigrationError):
    """The payload was damaged in transit (checksum/length mismatch) —
    a transient wire failure, worth retrying."""


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


#: transient failures a retry can cure (wire damage, stalls, drops);
#: anything else — bad arguments, wrong program — fails fast
RETRYABLE_ERRORS = (ChannelError, WireFrameError, TransferError, RestoreError)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the engine fights a flaky link.

    Backoff before retry *k* (0-based) is
    ``min(backoff_base_s · backoff_factor^k, backoff_max_s)``, optionally
    reshaped by the *jitter* hook — a pure function ``(k, delay) → delay``
    so that jittered schedules stay deterministic and testable.  *sleep*
    is injectable for the same reason; the intended delay is recorded in
    ``stats.time_in_backoff`` whether or not the clock really waits.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.01
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    jitter: Optional[Callable[[int, float], float]] = None
    #: per-attempt recv deadline installed on the channel (seconds)
    attempt_timeout_s: Optional[float] = None
    #: after this many failed *streaming* attempts, fall back to one
    #: monolithic transfer (graceful degradation); None = never degrade
    degrade_after: Optional[int] = None
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff_for(self, retry_index: int) -> float:
        """Delay before the *retry_index*-th retry (0-based)."""
        delay = min(
            self.backoff_base_s * self.backoff_factor**retry_index,
            self.backoff_max_s,
        )
        if self.jitter is not None:
            delay = self.jitter(retry_index, delay)
        return max(delay, 0.0)


def _collect_records(process: Process, buf: WriteBuffer, collector_factory=Collector):
    """Write the full migration payload into *buf*, yielding after every
    variable (a safe drain point for the streaming pipeline).

    Returns (via ``StopIteration.value``) the :class:`CollectInfo`.  Both
    the monolithic and the chunked collectors drive this one generator,
    which is what keeps their payload bytes identical.  *collector_factory*
    swaps the record writer (the pre-copy final pass uses one that elides
    already-delivered blocks); the stream structure is unchanged.
    """
    if not process.frames:
        raise MigrationError("process has no frames (not running?)")

    # register every live local as an MSR block (lazily, at migration time)
    process.register_stack_blocks()

    program = process.program
    frames = process.frames
    header = WireHeader(
        source_arch=process.arch.name,
        frames=[(f.func_idx, f.pc) for f in frames],
    )
    write_header(buf, header)

    collector = collector_factory(process, buf)

    # frame live data: innermost first (paper §3.2: foo's, then main's)
    for depth in range(len(frames) - 1, -1, -1):
        frame = frames[depth]
        live = program.live_at(frame.func_idx, frame.pc)
        buf.write_u16(len(live))
        for var_idx in live:
            block = process.msrlt.lookup_logical((BlockKind.STACK, depth, var_idx))
            buf.write_u16(var_idx)
            collector.save_variable(block)
            yield

    # globals: unconditionally part of the memory state
    globals_ = program.globals
    buf.write_u32(len(globals_))
    for idx in range(len(globals_)):
        block = process.msrlt.lookup_logical((BlockKind.GLOBAL, idx, 0))
        buf.write_u32(idx)
        collector.save_variable(block)
        yield

    stats = collector.finish()
    # the source process is about to terminate; its collection-time stack
    # registrations are dropped for hygiene (it may also be resumed locally
    # when a migration is cancelled)
    process.msrlt.drop_stack_blocks()
    return CollectInfo(stats=stats, header=header)


def collect_state(
    process: Process, collector_factory=Collector
) -> tuple[bytes, "CollectInfo"]:
    """Collect the execution + memory state of a process stopped at a
    poll-point.  Returns the machine-independent payload."""
    buf = WriteBuffer()
    gen = _collect_records(process, buf, collector_factory)
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return buf.getvalue(), stop.value


def collect_state_chunks(
    process: Process,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    info_slot: Optional[list] = None,
    collector_factory=Collector,
) -> Iterator[bytes]:
    """Collect *process* incrementally, yielding payload chunks of
    *chunk_size* bytes (the final chunk may be shorter).

    The concatenation of the chunks is byte-identical to
    :func:`collect_state`'s payload.  When the generator is exhausted,
    the :class:`CollectInfo` is appended to *info_slot* (generators
    cannot hand a return value to a ``for`` loop).
    """
    if chunk_size <= 0:
        raise MigrationError(f"chunk_size must be positive, got {chunk_size}")
    buf = WriteBuffer()
    gen = _collect_records(process, buf, collector_factory)
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            if info_slot is not None:
                info_slot.append(stop.value)
            break
        yield from buf.drain(chunk_size)
    tail = buf.flush()
    if tail:
        yield tail


class CollectInfo:
    """Collection by-products (stats + the header that was written)."""

    def __init__(self, stats, header: WireHeader) -> None:
        self.stats = stats
        self.header = header


def _restore_from(program, rbuf, dest: Process, restorer_factory=Restorer) -> "RestoreInfo":
    """Rebuild execution + memory state from any reader with the
    :class:`ReadBuffer` interface (contiguous payload or chunk stream)."""
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
        dest.create_restored_frame(func_idx, resume_pc)
    dest.register_stack_blocks()

    restorer = restorer_factory(dest, rbuf)
    n_frames = len(header.frames)
    for depth in range(n_frames - 1, -1, -1):
        n_live = rbuf.read_u16()
        for _ in range(n_live):
            var_idx = rbuf.read_u16()
            block = dest.msrlt.lookup_logical((BlockKind.STACK, depth, var_idx))
            restorer.restore_variable(block)

    n_globals = rbuf.read_u32()
    for _ in range(n_globals):
        idx = rbuf.read_u32()
        block = dest.msrlt.lookup_logical((BlockKind.GLOBAL, idx, 0))
        restorer.restore_variable(block)

    if not rbuf.at_end():
        raise MigrationError(f"{rbuf.remaining} trailing bytes in migration payload")

    dest.msrlt.drop_stack_blocks()
    return RestoreInfo(stats=restorer.stats, header=header)


def restore_state(
    program, payload: bytes, dest: Process, restorer_factory=Restorer
) -> "RestoreInfo":
    """Rebuild execution + memory state inside a fresh destination process.

    *program* must be the very program object *dest* was invoked from;
    the mismatch is rejected before any destination memory is written.
    """
    return _restore_from(program, ReadBuffer(payload), dest, restorer_factory)


def restore_state_stream(
    program, chunks: Iterable[bytes], dest: Process, restorer_factory=Restorer
) -> "RestoreInfo":
    """Like :func:`restore_state`, but consuming an iterator of payload
    chunks (e.g. a channel's ``iter_chunks()``) as they arrive — the
    incremental-restore half of the streaming pipeline."""
    return _restore_from(program, StreamReadBuffer(chunks), dest, restorer_factory)


class RestoreInfo:
    """Restoration by-products."""

    def __init__(self, stats, header: WireHeader) -> None:
        self.stats = stats
        self.header = header


class _TimedIter:
    """Iterator wrapper accumulating wall-clock time spent inside
    ``__next__`` — how the engine attributes pipeline time to stages.

    Every pull is one lap on the *span_name* trace span — including the
    final StopIteration probe, whose wall time is real stage time even
    though it yields no item (``count`` tallies items only).
    ``last_seconds`` holds the most recent pull's duration so per-chunk
    events can report it.
    """

    __slots__ = ("_it", "_span_name", "seconds", "count", "last_seconds")

    def __init__(self, iterable, span_name: str) -> None:
        self._it = iter(iterable)
        self._span_name = span_name
        self.seconds = 0.0
        self.count = 0
        self.last_seconds = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        handle = obs.lap(self._span_name)
        handle.__enter__()
        try:
            item = next(self._it)
        finally:
            handle.__exit__(None, None, None)
            self.last_seconds = handle.seconds
            self.seconds += handle.seconds
        self.count += 1
        return item


class MigrationEngine:
    """Performs migrations between hosts over a channel."""

    def __init__(self, link: Link = LOOPBACK) -> None:
        self.link = link

    def migrate(
        self,
        process: Process,
        dest_arch,
        dest_name: Optional[str] = None,
        channel: Optional[Channel] = None,
        waiting: Optional[Process] = None,
        streaming: bool = False,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        compress: bool = False,
        retry: Optional[RetryPolicy] = None,
        channel_factory: Optional[Callable[[], Channel]] = None,
        checkpoint_path=None,
        attribution: bool = False,
        event_capacity: int = DEFAULT_EVENT_CAPACITY,
        adopt_trace=None,
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

        With ``streaming=True`` the payload is cut into *chunk_size*
        chunks that are collected, framed, transmitted, and restored in a
        pipeline (generator-driven on in-memory/file channels, a
        producer thread on the socket channel); the stats then carry
        ``pipeline_time``/``n_chunks``/``overlap_ratio`` and
        ``stats.response_time`` reports the overlapped total.  The
        restored process is identical either way.

        With ``compress=True`` each transfer unit (the whole payload when
        monolithic, each chunk when streaming) is zlib-deflated and the
        compressed form kept only when it shrinks by ≥ 10% (see
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
        poll-point, runnable.  A *retry* policy makes the engine fight
        transient faults: per-attempt recv deadlines, exponential
        backoff with a deterministic jitter hook, a fresh channel per
        attempt (*channel_factory*, or ``channel.reset()``), and —
        past ``degrade_after`` failed streaming attempts — graceful
        degradation to one monolithic transfer.  When every attempt
        fails, :class:`MigrationAbortedError` carries the last typed
        error.  *checkpoint_path* snapshots the source to disk before
        the first attempt, so even a host crash mid-migration can
        resume from the checkpoint.

        With ``precopy=True`` the engine runs the iterative pre-copy
        protocol first (:mod:`repro.migration.precopy`): a full snapshot
        ships while the source keeps executing poll-point slices, then
        delta rounds of only-dirty blocks, until the dirty set converges
        (*precopy_policy*, a :class:`~repro.migration.precopy.PrecopyPolicy`).
        The stop-and-copy then elides clean already-delivered blocks, so
        the source's final pause — ``stats.precopy_downtime_s`` — covers
        only the working set.  A retryable failure during pre-copy
        degrades to the plain path (``stats.precopy_degraded``); the
        restored state and the resumed execution are identical either
        way, except that the source has executed a few more poll slices.
        """
        if waiting is not None:
            if waiting.frames or waiting.exited:
                raise MigrationError("waiting destination is already running")
            if waiting.arch.name != dest_arch.name:
                raise MigrationError(
                    f"waiting process is on {waiting.arch.name}, "
                    f"not {dest_arch.name}"
                )
            if waiting.program is not process.program:
                raise MigrationError(
                    "waiting process was invoked from a different program "
                    "(the migratable source must be pre-distributed)"
                )
        if channel_factory is None and channel is None:
            channel = Channel(self.link)
        stats = MigrationStats(
            source_arch=process.arch.name,
            dest_arch=dest_arch.name,
            n_frames=len(process.frames),
        )
        dest = waiting if waiting is not None else Process(
            process.program, dest_arch, name=dest_name or f"{process.name}'"
        )
        if checkpoint_path is not None:
            # belt-and-braces: even a crash of *this* host mid-migration
            # can resume from disk (migration/checkpoint.py)
            from repro.migration.checkpoint import checkpoint_to_file

            checkpoint_to_file(process, checkpoint_path)

        policy = retry or RetryPolicy(max_attempts=1)
        use_streaming = streaming
        failed_streaming = 0
        scratch: Optional[Process] = None
        # adopt_trace chains this migration into a prior hop's trace: the
        # observation's root is parented under the span the context names,
        # so an A→B→C chain merges into one connected tree (DESIGN §11)
        obs_ = MigrationObservation(
            attribution=attribution,
            event_capacity=event_capacity,
            adopt_from=(
                (adopt_trace.trace_id, adopt_trace.parent_span_id)
                if adopt_trace is not None
                else None
            ),
        )
        stats.obs = obs_
        # per-migration lookup-cost deltas (the tables' counters are
        # cumulative over the process/program lifetime)
        msrlt0 = (process.msrlt.n_searches, process.msrlt.n_cache_hits,
                  process.msrlt.n_registrations)
        ti_tables = {id(process.ti): process.ti}
        ti0 = {tid: (t.n_info_hits, t.n_info_misses)
               for tid, t in ti_tables.items()}
        with obs_.activate():
            obs.event(
                "migration_begin",
                source_arch=stats.source_arch,
                dest_arch=stats.dest_arch,
                streaming=bool(streaming),
                compress=bool(compress),
                precopy=bool(precopy),
            )

            pre_state = None
            if precopy:
                from repro.migration.precopy import (
                    PrecopyPolicy,
                    PrecopySourceExitedError,
                    run_precopy,
                )

                pp = precopy_policy or PrecopyPolicy()
                ch0 = channel_factory() if channel_factory is not None else channel
                if policy.attempt_timeout_s is not None and hasattr(
                    ch0, "set_deadline"
                ):
                    ch0.set_deadline(policy.attempt_timeout_s)
                pre_scratch = Process(
                    process.program, dest_arch, name=dest.name
                )
                if id(pre_scratch.ti) not in ti_tables:
                    ti_tables[id(pre_scratch.ti)] = pre_scratch.ti
                    ti0[id(pre_scratch.ti)] = (pre_scratch.ti.n_info_hits,
                                               pre_scratch.ti.n_info_misses)
                try:
                    with obs_.tracer.span("precopy"):
                        if obs_.attribution is not None:
                            # delta-round collect/restore cost must not
                            # lump into the final attempt's partition
                            with obs_.attribution.scoped("precopy"):
                                pre_state = run_precopy(
                                    process, pre_scratch, ch0, pp, stats,
                                    chunk_size,
                                )
                        else:
                            pre_state = run_precopy(
                                process, pre_scratch, ch0, pp, stats,
                                chunk_size,
                            )
                except PrecopySourceExitedError:
                    # the source finished on its own; there is no process
                    # left to migrate and no plain path to degrade to
                    self._finish_observation(
                        obs_, stats, process, ti_tables, msrlt0, ti0,
                        scratch=None,
                    )
                    raise
                except RETRYABLE_ERRORS as exc:
                    # degrade: forget the half-built scratch and run the
                    # ordinary stop-and-copy from the source's current
                    # poll-point (the slices it executed are real progress)
                    stats.precopy_degraded = True
                    pre_state = None
                    process.msrlt.drop_stack_blocks()
                    obs.inc("engine.precopy_degraded")
                    obs.event(
                        "precopy_degraded",
                        error_type=type(exc).__name__,
                        error=str(exc),
                    )

            for attempt in range(policy.max_attempts):
                ch = channel_factory() if channel_factory is not None else channel
                if attempt > 0 and channel_factory is None and hasattr(ch, "reset"):
                    ch.reset()
                if policy.attempt_timeout_s is not None and hasattr(ch, "set_deadline"):
                    ch.set_deadline(policy.attempt_timeout_s)
                sent_before = ch.accepted_bytes
                # transactional restore: build the new process off to the side
                # and only graft it onto *dest* once everything validated.
                # A surviving pre-copy hands over its pre-warmed scratch and
                # the cached set the final collector elides.
                use_pre = pre_state is not None
                if use_pre:
                    from repro.msr.delta import (
                        PrecopyFinalCollector,
                        PrecopyFinalRestorer,
                    )

                    scratch = pre_state.scratch
                    coll_f = partial(
                        PrecopyFinalCollector, cached=pre_state.cached
                    )
                    rest_f = PrecopyFinalRestorer
                else:
                    scratch = Process(process.program, dest_arch, name=dest.name)
                    coll_f = Collector
                    rest_f = Restorer
                if id(scratch.ti) not in ti_tables:
                    ti_tables[id(scratch.ti)] = scratch.ti
                    ti0[id(scratch.ti)] = (scratch.ti.n_info_hits,
                                           scratch.ti.n_info_misses)
                obs.event(
                    "attempt_begin", attempt=attempt + 1,
                    streaming=use_streaming, precopy_final=use_pre,
                )
                try:
                    with obs_.tracer.span("attempt", n=attempt + 1):
                        # the context names the attempt span as the remote
                        # parent: the restore side joins *this* attempt
                        ctx = propagate.outbound_context(attempt=attempt + 1)
                        if use_streaming:
                            self._migrate_streaming(
                                process, scratch, ch, chunk_size, stats,
                                compress, ctx, coll_f, rest_f,
                            )
                        else:
                            self._migrate_monolithic(
                                process, scratch, ch, stats, compress, ctx,
                                coll_f, rest_f,
                            )
                except RETRYABLE_ERRORS as exc:
                    stats.attempts = attempt + 1
                    stats.retries = attempt
                    aborted = ch.accepted_bytes - sent_before
                    stats.aborted_bytes += aborted
                    obs.inc("engine.aborted_bytes", aborted)
                    obs.event(
                        "attempt_fail",
                        attempt=attempt + 1,
                        error_type=type(exc).__name__,
                        error=str(exc),
                    )
                    # a half-driven collection leaves stack blocks registered;
                    # drop them so the source stays cleanly runnable and the
                    # next attempt re-registers from scratch
                    process.msrlt.drop_stack_blocks()
                    if use_pre:
                        # the pre-warmed scratch is half-mutated by the failed
                        # final pass; discard it and retry with a plain full
                        # stop-and-copy
                        stats.precopy_degraded = True
                        pre_state = None
                        obs.inc("engine.precopy_degraded")
                        obs.event(
                            "precopy_degraded",
                            error_type=type(exc).__name__,
                            error=str(exc),
                        )
                    if use_streaming:
                        failed_streaming += 1
                        if (
                            policy.degrade_after is not None
                            and failed_streaming >= policy.degrade_after
                        ):
                            use_streaming = False
                            stats.degraded = True
                            obs.inc("engine.degraded")
                            obs.event(
                                "degraded",
                                after_failed_attempts=failed_streaming,
                            )
                    if attempt + 1 >= policy.max_attempts:
                        self._finish_observation(
                            obs_, stats, process, ti_tables, msrlt0, ti0,
                            scratch=None,
                        )
                        raise MigrationAbortedError(
                            f"migration aborted after {attempt + 1} attempt(s); "
                            f"source still runnable, destination untouched "
                            f"(last error: {exc})",
                            attempts=attempt + 1,
                            last_error=exc,
                        ) from exc
                    delay = policy.backoff_for(attempt)
                    stats.time_in_backoff += delay
                    obs.event(
                        "backoff", attempt=attempt + 1, delay_s=round(delay, 9)
                    )
                    if delay > 0:
                        policy.sleep(delay)
                    continue
                stats.attempts = attempt + 1
                stats.retries = attempt
                break

            if compress:
                # *all* attempts' deflate + inflate seconds, read off the
                # span tree — the per-attempt channel-ledger delta used to
                # lose an aborted attempt's codec time to the reset() fold
                stats.codec_time = obs_.tracer.total_prefix("codec.")
            if pre_state is not None:
                # the successful final pass rode on the pre-copy: what the
                # user experienced as downtime is only that final phase
                stats.precopy = True
                stats.precopy_downtime_s = stats.response_time
                obs.record(
                    "precopy.downtime_seconds",
                    stats.precopy_downtime_s,
                    derived=True,
                )
            obs.event(
                "migration_end",
                collect_s=round(stats.collect_time, 9),
                tx_s=round(stats.tx_time, 9),
                restore_s=round(stats.restore_time, 9),
                attempts=stats.attempts,
            )
            self._finish_observation(
                obs_, stats, process, ti_tables, msrlt0, ti0, scratch=scratch
            )

        self._adopt(dest, scratch)
        if precopy:
            # pre-copy slices ran the source past output it had not yet
            # produced when migrate() was called; carry that output over so
            # the destination's stream is the complete program output
            dest._stdout[:0] = list(process._stdout)
        # the migrating process terminates after successful transmission
        process.frames.clear()
        process.exited = True
        process.migration_pending = False
        return dest, stats

    @staticmethod
    def _finish_observation(
        obs_, stats, process, ti_tables, msrlt0, ti0, scratch
    ) -> None:
        """Fold the migration's outcome counters and the lookup-table
        deltas into the metrics registry, then close the span tree."""
        m = obs_.metrics
        m.inc("engine.attempts", stats.attempts)
        m.inc("engine.retries", stats.retries)
        m.inc("engine.payload_bytes", stats.payload_bytes)
        m.inc("engine.blocks", stats.n_blocks)
        if stats.streamed:
            m.inc("engine.chunks", stats.n_chunks)
        if stats.compressed:
            m.inc(
                "codec.bytes_saved",
                max(stats.payload_bytes - stats.compressed_bytes, 0),
            )
        searches = process.msrlt.n_searches - msrlt0[0]
        hits = process.msrlt.n_cache_hits - msrlt0[1]
        regs = process.msrlt.n_registrations - msrlt0[2]
        if scratch is not None:
            # the restored side's MSRLT was born for this migration
            searches += scratch.msrlt.n_searches
            hits += scratch.msrlt.n_cache_hits
            regs += scratch.msrlt.n_registrations
        m.inc("msrlt.searches", searches)
        m.inc("msrlt.cache_hits", hits)
        m.inc("msrlt.registrations", regs)
        info_hits = info_misses = 0
        for tid, table in ti_tables.items():
            h0, m0 = ti0[tid]
            info_hits += table.n_info_hits - h0
            info_misses += table.n_info_misses - m0
        m.inc("ti.info_hits", info_hits)
        m.inc("ti.info_misses", info_misses)
        if obs_.events.dropped:
            m.inc("events.dropped", obs_.events.dropped)
        # latency distributions for the fleet roll-up: one observation
        # per attempt span, plus whole-migration totals on success —
        # downtime is the stop-and-copy pause under pre-copy, the whole
        # response time otherwise (the scheduler merges these snapshots,
        # which is where p50/p99 across migrations comes from)
        for _path, sp in obs_.tracer.iter_spans():
            if sp.name == "attempt":
                m.observe("engine.attempt_seconds", sp.seconds)
        if scratch is not None:
            m.observe("engine.migration_seconds", stats.response_time)
            m.observe(
                "engine.downtime_seconds",
                stats.precopy_downtime_s if stats.precopy
                else stats.response_time,
            )
        # an aborted collection skips Collector.finish(); make sure no
        # profiler reference outlives the migration it belonged to
        process.msrlt.profiler = None
        obs_.tracer.finish()

    @staticmethod
    def _adopt(dest: Process, scratch: Process) -> None:
        """Graft the fully-restored scratch state onto the real
        destination — the commit point of the transactional restore.
        Everything else about *dest* (identity, image, layout, TI table)
        is already correct because scratch shares its program and arch.
        """
        dest.memory = scratch.memory
        dest.msrlt = scratch.msrlt
        dest.frames = scratch.frames
        dest._loaded = True
        dest.exited = False
        dest.exit_code = None

    # -- the paper's serial discipline -------------------------------------

    def _migrate_monolithic(
        self, process, dest, channel, stats, compress=False, ctx=None,
        collector_factory=Collector, restorer_factory=Restorer,
    ) -> None:
        with obs.span("collect") as timed:
            payload, cinfo = collect_state(process, collector_factory)
        stats.collect_time = timed.seconds
        self._absorb_collect(stats, cinfo, len(payload))

        wire_payload = payload
        if compress:
            with obs.lap("codec.deflate") as timed:
                wire_payload = compress_payload(payload)
            stats.codec_time = timed.seconds
            stats.compressed = True
            stats.compressed_bytes = len(wire_payload)
            stats.compression_ratio = len(payload) / len(wire_payload)
        envelope_len = len(wire_payload)
        if ctx is not None:
            # the trace context rides ahead of the envelope, inside the
            # end-to-end CRC (a bit-flipped context is transit damage too)
            wire_payload = ctx.to_frame() + wire_payload

        crc = zlib.crc32(wire_payload)
        stats.tx_time = channel.send(wire_payload)
        if ctx is not None:
            # the modeled Tx charges the paper's envelope, not the trace
            # plumbing riding ahead of it
            stats.tx_time = channel.link.transfer_time(envelope_len)
        obs.record("tx", stats.tx_time, modeled=True)
        received = channel.recv()
        # the monolithic wire format carries no checksum (it predates the
        # framed stream and must stay byte-identical), so integrity is
        # verified end-to-end against the bytes the sender put on the wire
        # (the compressed envelope carries its own raw-payload CRC too)
        if len(received) != len(wire_payload) or zlib.crc32(received) != crc:
            raise TransferError(
                f"monolithic payload damaged in transit: sent "
                f"{len(wire_payload)} bytes (crc {crc:#010x}), received "
                f"{len(received)} bytes (crc {zlib.crc32(received):#010x})"
            )
        ctx_body, received = peel_context_frame(received)
        rctx = (
            propagate.TraceContext.from_bytes(ctx_body)
            if ctx_body is not None
            else None
        )
        if compress:
            with obs.lap("codec.inflate") as timed:
                received = expand_payload(received)
            stats.codec_time += timed.seconds

        with propagate.restore_site(rctx):
            with obs.span("restore") as timed:
                rinfo = self._validated_restore(
                    process.program, ReadBuffer(received), dest, restorer_factory
                )
        stats.restore_time = timed.seconds
        stats.restore = rinfo.stats

    @staticmethod
    def _validated_restore(program, rbuf, scratch, restorer_factory=Restorer) -> "RestoreInfo":
        """Restore into the scratch process, converting any damage-induced
        failure into a typed, retryable :class:`RestoreError` (channel and
        frame errors already are typed — they pass through)."""
        try:
            return _restore_from(program, rbuf, scratch, restorer_factory)
        except RETRYABLE_ERRORS:
            raise
        except Exception as exc:
            raise RestoreError(
                f"restore failed ({exc}); destination left untouched"
            ) from exc

    # -- the overlapped discipline -----------------------------------------

    def _migrate_streaming(
        self, process, dest, channel, chunk_size, stats, compress=False, ctx=None,
        collector_factory=Collector, restorer_factory=Restorer,
    ) -> None:
        info_slot: list = []
        collect_iter = _TimedIter(
            collect_state_chunks(process, chunk_size, info_slot, collector_factory),
            "collect",
        )
        if hasattr(channel, "compress_stream"):
            channel.compress_stream = compress
        rctx = None
        if ctx is not None and hasattr(channel, "send_context"):
            # the context opens the stream as a control frame (it consumes
            # no chunk sequence number and no fault-plan send index), so
            # the receive side can join the trace before the first chunk
            channel.send_context(ctx.to_bytes())
            body = channel.recv_context()
            if body is not None:
                rctx = propagate.TraceContext.from_bytes(body)
        codec_before = getattr(channel, "total_codec_seconds", 0.0)
        stored_before = getattr(channel, "stored_chunk_bytes", 0)

        if getattr(channel, "concurrent_stream", False):
            feed, producer, producer_error = self._threaded_feed(
                channel, collect_iter
            )
        else:
            feed, producer, producer_error = self._inline_feed(
                channel, collect_iter
            )

        feed_timer = _TimedIter(feed, "feed")
        with propagate.restore_site(rctx), obs.span("pipeline") as pipeline:
            try:
                rinfo = self._validated_restore(
                    process.program, StreamReadBuffer(feed_timer), dest,
                    restorer_factory,
                )
            finally:
                if producer is not None:
                    producer.join()
        restore_wall = pipeline.seconds
        if producer_error:
            raise producer_error[0]

        # feed time covers collection + channel hops; what is left of the
        # restore driver's wall clock is pure restoration compute
        stats.collect_time = collect_iter.seconds
        stats.restore_time = max(restore_wall - feed_timer.seconds, 0.0)
        stats.restore = rinfo.stats

        cinfo = info_slot[0]
        stats.streamed = True
        stats.n_chunks = collect_iter.count
        self._absorb_collect(stats, cinfo, cinfo.stats.wire_bytes)

        wire_payload_bytes = stats.payload_bytes
        if compress:
            stats.compressed = True
            stats.codec_time = (
                getattr(channel, "total_codec_seconds", 0.0) - codec_before
            )
            stored = getattr(channel, "stored_chunk_bytes", 0) - stored_before
            stats.compressed_bytes = stored or stats.payload_bytes
            stats.compression_ratio = (
                stats.payload_bytes / stats.compressed_bytes
                if stats.compressed_bytes
                else 1.0
            )
            wire_payload_bytes = stats.compressed_bytes

        link = channel.link
        framed_bytes = wire_payload_bytes + (stats.n_chunks + 1) * CHUNK_HEADER_SIZE
        stats.tx_time = link.pipelined_transfer_time(framed_bytes, stats.n_chunks)
        obs.record("tx", stats.tx_time, modeled=True)
        obs.record("restore", stats.restore_time, derived=True)
        stats.finish_pipeline(latency_s=link.latency_s)

        # measured overlap: the producer thread's collection busy-time as
        # a fraction of the pipeline wall clock.  The same-thread
        # generator pipeline interleaves but cannot overlap wall-clock,
        # so it honestly reports 0.0.
        occupancy = 0.0
        if producer is not None and restore_wall > 0:
            occupancy = min(collect_iter.seconds / restore_wall, 1.0)
        stats.pipeline_occupancy = occupancy
        obs.event(
            "pipeline",
            wall_s=round(restore_wall, 9),
            n_chunks=stats.n_chunks,
            occupancy=round(occupancy, 9),
            # the link latency is paid once, by the first frame; the
            # critical-path analyzer needs it to place the fill bubble
            latency_s=round(link.latency_s, 9),
        )

    @staticmethod
    def _inline_feed(channel, collect_iter):
        """Same-thread pipeline: the restorer's pull for the next chunk
        collects it, sends it, and receives it — chunk-granular
        interleaving of all three stages on one thread."""

        def feed():
            for chunk in collect_iter:
                channel.send_chunk(chunk)
                obs.event(
                    "chunk",
                    seq=collect_iter.count - 1,
                    collect_busy_s=round(collect_iter.last_seconds, 9),
                )
                yield channel.recv_chunk()
            channel.end_stream()
            if channel.recv_chunk() is not None:  # pragma: no cover
                raise MigrationError("stream terminator was not last on channel")

        return feed(), None, []

    @staticmethod
    def _threaded_feed(channel, collect_iter):
        """Producer/consumer pipeline for channels whose chunk writes
        block until drained (the socket): collection + send run in a
        producer thread while the caller restores from ``iter_chunks``.

        The producer thread does not inherit the spawning context's
        ContextVars, so the engine's observation is re-activated inside
        it explicitly, rooting the thread's spans (the ``collect`` laps)
        under the attempt span that spawned it.
        """
        error: list = []
        obs_ = obs.current()
        parent = obs_.tracer.current() if obs_ is not None else None

        def pump():
            for chunk in collect_iter:
                channel.send_chunk(chunk)
                obs.event(
                    "chunk",
                    seq=collect_iter.count - 1,
                    collect_busy_s=round(collect_iter.last_seconds, 9),
                )
            channel.end_stream()

        def produce():
            try:
                if obs_ is not None:
                    with obs_.activate_in_thread(parent):
                        pump()
                else:
                    pump()
            except BaseException as exc:  # noqa: BLE001 - repropagated by caller
                error.append(exc)
                # unblock the consumer: an aborted tx side turns its next
                # read into a typed TruncatedFrameError
                channel.abort_stream()

        producer = threading.Thread(target=produce, name="migration-collector")
        producer.start()
        return channel.iter_chunks(), producer, error

    @staticmethod
    def _absorb_collect(stats, cinfo, payload_bytes: int) -> None:
        stats.collect = cinfo.stats
        stats.payload_bytes = payload_bytes
        stats.data_bytes = cinfo.stats.data_bytes
        stats.n_blocks = cinfo.stats.n_blocks
