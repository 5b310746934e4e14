"""Iterative pre-copy live migration (the VM live-migration discipline).

The classic transfer pauses the source for the whole Collect + Tx +
Restore of its memory, so downtime is O(memory).  Pre-copy instead:

1. ships a **full snapshot** (round 0) while the source keeps running —
   here, the interpreter executes *poll-point slices* between rounds;
2. installs write barriers (:class:`~repro.vm.dirty.DirtyTracker` on the
   :class:`~repro.vm.memory.Memory` store paths) that record which bytes
   each slice mutates, and a registration journal on the MSRLT
   (``MSRLT.journal``) that records which blocks it allocates and frees,
   and ships **delta rounds** of what changed: ``u32 round_no`` and the
   final stream's tail section (:mod:`repro.msr.wire`) — a freed marker
   per block off the journal the destination holds, the *unit runs* a
   written block's byte intervals cover provided the destination's copy
   was byte-fresh before the slice (the ``fresh`` set below: shipped in
   some round, not written since), and a root record per other stale
   block — a new block, one an earlier round had to defer — that no
   earlier marker reached;
3. once the dirty set converges below a threshold (or a round cap hits),
   **stops** the source for good and ships only the small remainder —
   the stop-and-copy stream is the ordinary full collection in which the
   clean already-delivered blocks are born *visited* (one ``REF`` each,
   nothing behind them walked), with the same tail section's roots after
   the globals — cutting downtime to O(working set).  Downtime is counted
   from the moment the last slice returns: the bookkeeping below runs
   with the source already stopped.

Every round — the snapshot too — is one chunk stream on the migration's
channel (:mod:`repro.msr.wire`: chunk frames, then the terminator),
shipped by the transfer attempt's own helper
(:func:`~repro.migration.engine.ship_stream`: each frame received as it
is sent, on the calling thread).  So a fault plan numbers a round's
sends like any others, ``compress=True`` deflates them, and the
channel's ``delta_bytes_sent`` is simply what it accepted while the
phase ran.

The tracker and the journal are installed *only while the interpreter
runs a slice*: collection passes read through the same Memory entry
points (and the bulk paths take writable views), so leaving the barrier
armed during a collect would mark everything it read.  Since the
interpreter and the engine share one thread, no write can slip between
slice and drain.

A round costs what the slice changed, not what the heap holds, and so
does the stop.  Three ledgers are read off the scratch once, after the
snapshot, and then kept by the passes that own them:

- ``held`` — what the destination has, logical id -> its scratch block
  (a block enters as its ``BLOCK`` record lands, a freed one leaves);
- ``fresh`` — what it has byte-identically (a shipped block enters; a
  written, deferred or freed one leaves);
- ``stale`` — every other live non-stack block of the source, the
  complement of ``fresh`` (a block a slice writes or allocates enters;
  one a round ships or a slice frees leaves).

Nothing between the snapshot and the destination's resumption walks a
table.  Every pass — the snapshot, each round and the final one — is the
ordinary :class:`~repro.msr.collect.Collector` /
:class:`~repro.msr.restore.Restorer` pair; every pass after the snapshot
is born owning the ledgers (the final pass is *handed* them in a
:class:`PrecopyState`: ownership moves, nothing is copied): the
collector has ``fresh`` as its visited set and takes its roots from
``stale``, the restorer has ``held`` as its mapping.

Failure semantics: a retryable transport/restore failure during
pre-copy degrades the migration to the plain stop-and-copy path (the
half-built scratch is discarded, never reused); the source *exiting*
during a slice is not degradable — there is no longer a process to
migrate — and surfaces as :class:`PrecopySourceExitedError`; the source
*faulting* during one surfaces as :class:`PrecopySourceFaultedError`,
with the guest's fault as its cause.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import obs
from repro.arch.buffers import ReadBuffer, WriteBuffer
# engine does NOT import this module at load time (migrate() imports it
# lazily), so importing the engine names directly here is acyclic
from repro.migration.engine import (
    MigrationError,
    _collect_whole,
    collect_errors,
    restore_errors,
    restore_state,
    ship_stream,
)
from repro.msr.collect import Collector
from repro.msr.restore import RestoreError, Restorer
from repro.msr.wire import OwnedChunk
from repro.vm.dirty import DirtyTracker
from repro.vm.process import GuestFault

__all__ = [
    "PrecopyPolicy",
    "PrecopyState",
    "PrecopySourceExitedError",
    "PrecopySourceFaultedError",
    "run_precopy",
]


@dataclass(frozen=True)
class PrecopyPolicy:
    """Convergence policy for the iterative pre-copy loop."""

    #: delta rounds after the snapshot before giving up and stopping
    max_rounds: int = 8
    #: stop-and-copy once a slice dirties at most this many blocks
    stop_dirty_blocks: int = 4
    #: poll-points the source executes between rounds
    slice_polls: int = 1

    def __post_init__(self) -> None:
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        if self.stop_dirty_blocks < 0:
            raise ValueError("stop_dirty_blocks must be >= 0")
        if self.slice_polls < 1:
            raise ValueError("slice_polls must be >= 1")


@dataclass(frozen=True)
class PrecopyState:
    """What a completed pre-copy phase hands the stop-and-copy attempt.

    The three ledgers (module docstring) change hands with it: the final
    collector and restorer own and grow them, so a state serves one
    attempt — a failed one drops it and degrades to the plain pass."""

    #: the pre-warmed destination process (frames cleared, stack
    #: pointer reset — ready for the ordinary restore path)
    scratch: object
    #: logical ids whose destination contents are byte-fresh; the
    #: final collector's visited set from its first record on
    fresh: set
    #: the source's other live non-stack blocks: all the final stream
    #: can carry, and its tail roots
    stale: set
    #: logical id -> scratch block of what the destination holds; the
    #: final restorer's mapping
    held: dict
    #: measured seconds between the last slice's return and the end of
    #: the phase — the part of the pause that precedes the final stream
    stopped_s: float


class PrecopySourceExitedError(MigrationError):
    """The source process ran to completion during a pre-copy slice:
    there is nothing left to migrate (not retryable, not degradable)."""


class PrecopySourceFaultedError(MigrationError):
    """The source program faulted (a wild store, a double ``free``, a
    division by zero) during a pre-copy slice.  The guest's own fault (a
    :class:`~repro.vm.process.GuestFault`) is the ``__cause__``; the
    process is left as the fault left it, and no retry or degraded pass
    could migrate it (not retryable, not degradable)."""


def _collect_round(process, round_no: int, freed, written, fresh: set, stale: set):
    """One delta round on the source: ``u32 round_no`` and the tail
    section of the collector born owning *fresh* and *stale* (which it
    updates).  Returns the payload — an
    :class:`~repro.msr.wire.OwnedChunk`, storage the ship takes over —
    and the set of blocks it deferred."""
    buf = WriteBuffer(OwnedChunk())
    buf.write_u32(round_no)
    collector = Collector(process, buf, fresh, stale, defer=True)
    collector.save_tail(freed, written)
    collector.finish()
    return buf.detach(), collector.deferred


def _restore_round(scratch, payload, round_no: int, held: dict):
    """Land one delta round on the destination scratch through the
    restorer born owning *held* (which it updates).  Returns the round's
    :class:`~repro.msr.restore.RestoreStats`; a round that lies is a
    :class:`~repro.msr.restore.RestoreError`."""
    buf = ReadBuffer(payload)
    got = buf.read_u32()
    if got != round_no:
        raise RestoreError(
            f"pre-copy round {got} arrived where round {round_no} was expected"
        )
    restorer = Restorer(scratch, buf, held)
    restorer.restore_tail()
    return restorer.stats


def run_precopy(
    process,
    scratch,
    channel,
    policy: PrecopyPolicy,
    stats,
    chunk_size: int,
) -> PrecopyState:
    """Drive the pre-copy phase: snapshot, slices, delta rounds.

    On return the source is stopped at its latest poll-point, *scratch*
    holds every shipped block, and the returned state's ``fresh`` set
    names the blocks the stop-and-copy stream need not carry.  Raises the
    engine's retryable error family on transport/restore failures (the
    caller degrades to plain stop-and-copy),
    :class:`PrecopySourceExitedError` when the source finishes first and
    :class:`PrecopySourceFaultedError` when it faults.
    """
    memory = process.memory
    if memory.dirty is not None:
        raise MigrationError("pre-copy is already active on this process")
    link = channel.link

    def ship(round_no: int, payload, **counts) -> None:
        """Transmit one round, land what arrives on the scratch (round 0
        is a full snapshot, every later one a delta), and book it."""
        # booked first: shipping takes the payload's storage over
        nbytes = len(payload)
        sent = channel.accepted_bytes
        try:
            received = ship_stream(channel, payload, chunk_size)
        finally:
            # rounds are all the phase sends: what the channel accepted
            # for this one, refused on arrival or not, is pre-copy wire
            wire = channel.accepted_bytes - sent
            channel.delta_bytes_sent += wire
        with obs.lap("precopy.restore") as timed, restore_errors(
            f"pre-copy round {round_no}"
        ):
            if round_no == 0:
                restore_state(process.program, received, scratch)
            else:
                _restore_round(scratch, received, round_no, held)
        stats.precopy_codec_time += timed.seconds
        # a round's frames go back to back: the link latency is paid once
        tx = link.transfer_time(wire)
        stats.precopy_tx_time += tx
        stats.precopy_bytes += nbytes
        stats.precopy_round_bytes.append(nbytes)
        obs.record("precopy.tx", tx, modeled=True, round=round_no)
        obs.event(
            "precopy_round",
            round=round_no,
            bytes=nbytes,
            tx_s=round(tx, 9),
            **counts,
        )

    obs.event(
        "precopy_begin",
        max_rounds=policy.max_rounds,
        stop_dirty_blocks=policy.stop_dirty_blocks,
        slice_polls=policy.slice_polls,
    )

    # -- round 0: the full snapshot ----------------------------------------
    with obs.span("precopy.round", n=0):
        with obs.lap("precopy.collect") as timed, collect_errors():
            payload, cinfo = _collect_whole(process)
        stats.precopy_codec_time += timed.seconds
        ship(0, payload, dirty_blocks=cinfo.stats.n_blocks, deferred=0, freed=0)

    # the three ledgers.  The scratch's index is what the destination
    # holds (stack registrations were already dropped by the restore);
    # it is read this once and from here on kept by the passes that own
    # the ledgers.  The snapshot left nothing stale but the leaked
    # blocks, and those enter with the first slice's new ones
    held = scratch.msrlt.non_stack_by_logical()
    fresh = set(held)
    stale: set = set()

    msrlt = process.msrlt
    tracker = DirtyTracker(memory.stack_seg.base, memory.stack_seg.limit)
    # every block whose registration changed since the destination last
    # heard of the table: to begin with, the live blocks the snapshot did
    # not carry (leaked ones — no root reaches them)
    journal = [b for b in msrlt.blocks() if b.logical not in held]
    rounds = 0
    saved_at_poll = process.migrate_at_poll
    process.migrate_at_poll = None  # slices stop at *any* poll-point
    try:
        while True:
            # -- one execution slice at the source -------------------------
            memory.dirty = tracker
            msrlt.journal = journal
            process.migration_pending = True
            process.migrate_after_polls = policy.slice_polls
            try:
                result = process.run()
            except GuestFault as exc:
                raise PrecopySourceFaultedError(
                    f"source faulted during a pre-copy slice ({exc}); "
                    f"nothing was migrated"
                ) from exc
            finally:
                memory.dirty = None
                msrlt.journal = None
            stopped_at = time.perf_counter()  # the last one is the pause's start
            if result.status == "exit":
                raise PrecopySourceExitedError(
                    f"source exited (code {result.exit_code}) during a "
                    f"pre-copy slice; nothing left to migrate"
                )

            # -- what the slice changed: registrations, then bytes ---------
            # a journalled block the destination holds was unregistered;
            # any other is new if it is (still) live, and if not it was
            # born and freed without ever shipping: no freed marker, it
            # just leaves the ledger
            freed = sorted({b.logical for b in journal if b.logical in held})
            new = {}
            for b in journal:
                if b.logical not in held:
                    if msrlt.has_logical(b.logical):
                        new[b.logical] = b
                    else:
                        stale.discard(b.logical)
            del journal[:]
            # logical -> (block, the block-relative byte spans written).
            # Only a block whose destination copy was byte-fresh before
            # the slice may ship as runs of what the spans cover; a new
            # block has no copy, and a block an earlier round deferred is
            # stale from writes this slice's spans do not cover: no spans
            # (None), they ship as roots
            dirty: dict = {}
            for lo, hi in tracker.take():
                for b in msrlt.blocks_overlapping(lo, hi):
                    entry = dirty.get(b.logical)
                    if entry is None:
                        entry = dirty[b.logical] = (
                            b, [] if b.logical in fresh else None
                        )
                    if entry[1] is not None:
                        entry[1].append(
                            (max(lo, b.addr) - b.addr, min(hi, b.end) - b.addr)
                        )
            for logical, b in new.items():
                dirty.setdefault(logical, (b, None))
            fresh.difference_update(dirty)
            stale.update(dirty)
            for logical in freed:
                fresh.discard(logical)
                stale.discard(logical)

            if rounds >= policy.max_rounds or len(dirty) <= policy.stop_dirty_blocks:
                # converged (or round cap): the remaining dirty/new blocks
                # travel in the stop-and-copy stream.  Frees from the last
                # slice still ship, in a freed-only stop round (no roots:
                # nothing stale is handed to it), so the destination does
                # not keep blocks the source let go.
                if freed:
                    rounds += 1
                    with obs.span("precopy.round", n=rounds):
                        payload, _ = _collect_round(
                            process, rounds, freed, (), fresh, set()
                        )
                        ship(
                            rounds, payload,
                            dirty_blocks=0, deferred=0, freed=len(freed),
                        )
                break

            # -- ship one delta round --------------------------------------
            rounds += 1
            written = [entry for entry in dirty.values() if entry[1] is not None]
            with obs.span("precopy.round", n=rounds):
                with obs.lap("precopy.collect") as timed, collect_errors():
                    payload, deferred = _collect_round(
                        process, rounds, freed, written, fresh, stale
                    )
                stats.precopy_codec_time += timed.seconds
                ship(
                    rounds, payload, dirty_blocks=len(dirty),
                    deferred=len(deferred), freed=len(freed),
                )
            stats.precopy_dirty_blocks += len(dirty)
    finally:
        memory.dirty = None
        msrlt.journal = None
        process.migrate_at_poll = saved_at_poll

    # -- prepare the scratch for the ordinary stop-and-copy restore --------
    # the snapshot restore built activation records for the *old* frame
    # state; the final stream rebuilds them from scratch, and resetting
    # the stack pointer makes the rebuilt frames land at exactly the
    # addresses a fresh (non-precopy) restore would produce
    scratch.frames.clear()
    scratch.memory.sp = scratch.memory.stack_seg.limit

    stats.precopy_rounds = rounds + 1  # the snapshot round counts
    stats.precopy_cached_blocks = len(fresh)
    obs.event(
        "precopy_end",
        rounds=rounds + 1,
        dirty_blocks=stats.precopy_dirty_blocks,
        cached_blocks=len(fresh),
        bytes=stats.precopy_bytes,
    )
    return PrecopyState(
        scratch=scratch, fresh=fresh, stale=stale, held=held,
        stopped_s=time.perf_counter() - stopped_at,
    )
