"""Pre-copy rounds and the stop-and-copy stream that follows them.

One idea serves both: **a block the destination already holds
byte-fresh is a visited block** (the paper's §3.1 rule, "visited memory
blocks are marked so that they are not saved again", applied across
passes).  The collector here is the ordinary
:class:`~repro.msr.collect.Collector` born with that set — ``fresh`` —
as its visited set, the restorer the ordinary
:class:`~repro.msr.restore.Restorer` born with the mapping of what the
scratch process holds — ``held``; every pointer to such a block is then
an ordinary ``REF``, the traversal stops there, and the compiled plans —
which classify targets through those same two tables — run unmodified.

One collector writes, and one restorer reads, every pass after the
snapshot: each delta round and the final stream.  What they carry beyond
the ordinary records is one **tail section**::

    (u8 marker, body)*  u8 0

1. **root** — an ordinary root record.  A ``BLOCK`` for a block the
   scratch holds restores in place; any other carves a new block.  A
   pointer to a block that has not shipped is that block's nested
   ``BLOCK`` record, as in any stream.
2. **runs** — ``logical``, then only the units a slice wrote::

       u32 n_runs;  n_runs  x  (u32 first_unit, u32 n_units, contents)

   A *unit* is the type's innermost non-array element
   (:class:`~repro.msr.ti.TypeInfo`: ``unit``, ``unit_size``), so a run
   never splits a struct and steps over its padding like any block
   does.  The contents of a run are, on both sides, the contents of a
   block of ``n_units`` x the unit type at ``addr + first_unit *
   unit_size`` — the same plan (or per-cell reference), the same
   records.  Runs ascend and do not overlap.
3. **freed** — ``logical``: a heap block the destination holds and the
   source has freed.

``logical`` is :func:`~repro.msr.wire.write_logical`'s ``u8 kind, u32
a`` (and ``u32 b`` for a stack id): 5 bytes for a heap or global block.

A round's payload is ``u32 round_no`` and a tail section
(:mod:`repro.migration.precopy`): freed markers first, then runs, then
one root per stale block no earlier marker reached, in logical-id
order.  The final stream is the ordinary full collection with the tail
section after the globals — its roots only — so a clean global is one
root ``REF`` and nothing behind a clean block is walked.  With nothing
fresh and nothing leaked it is the plain stream plus the terminator.

Which dirty block takes the run form is the source's decision
(:func:`unit_runs`), on two facts.  *Freshness*: only a block whose
destination copy was byte-identical before the slice may — its copy
then differs from the source inside the slice's write intervals and
nowhere else.  A new block, and a block an earlier round deferred,
ships as a root.  *Size*: the run form spends 4 bytes on its count and
8 on each run's header where a whole block spends nothing, so a block
takes it only when the units left out are sure to weigh more.  The
blocks that take it are marked visited before any run is written (the
destination holds each, and its runs bring it up to date), so a pointer
to one is a ``REF``.

**A deferred block is absent.**  While the source runs its stack is
unregistered, so a pointer aimed there — or dangling — has no shippable
target (:class:`DeltaDefer`).  A round cuts the marker whose walk met
one back out of the payload, takes what it visited first back out of
``fresh``, and the marker's block waits: for a later round or the final
stream, where the stack is registered.  A block that points at a
deferred block therefore waits too.

Neither side finds the ledgers by reading a table out: the pre-copy
loop (:func:`repro.migration.precopy.run_precopy`) keeps ``fresh``,
``stale`` and ``held``, and every collector and restorer here is born
owning them — a round costs what the slice changed, and the pause what
is stale, whatever the heap holds.
"""

from __future__ import annotations

import struct
import sys
from typing import Optional

from repro.arch.buffers import WriteBuffer
from repro.msr.collect import Collector
from repro.msr.graphplan import ARENA_REBUILD_BLOCKS_PER_POINTER
from repro.msr.msrlt import BlockKind, MemoryBlock
from repro.msr.restore import RestoreError, Restorer
from repro.msr.wire import read_logical, write_logical

__all__ = [
    "DeltaDefer",
    "PrecopyFinalCollector",
    "PrecopyFinalRestorer",
    "unit_runs",
]

#: the tail section's markers
_END, _ROOT, _RUNS, _FREED = 0, 1, 2, 3
#: what precedes the contents of one run: ``first_unit``, ``n_units``
_RUN_HEADER = struct.Struct(">II")


class DeltaDefer(Exception):
    """A round's walk met a pointer with no shippable target (dangling,
    or aimed at the stack, which is unregistered while the source runs):
    the marker it was writing waits for a later pass."""


class PrecopyFinalCollector(Collector):
    """The collector of every pre-copy pass after the snapshot.

    *fresh* and *stale* are ``run_precopy``'s ledgers of the source's
    live non-stack blocks, handed over, not copied: *fresh* — the
    destination's copy is byte-identical — IS the visited set from the
    first record on, and *stale* is every other one: the tail section's
    roots.  With *defer* (a round) a marker whose walk meets a pointer
    without a target is cut back out (:class:`DeltaDefer`, collected in
    :attr:`deferred`) and *stale* loses what shipped; without it (the
    final stream) such a pointer is the ordinary collection error.
    """

    def __init__(
        self, process, buf: WriteBuffer, fresh: set, stale: set, defer: bool = False
    ) -> None:
        super().__init__(process, buf)
        self._visited = fresh
        self._stale = stale
        #: the blocks whose markers a round cut back out; a walk that
        #: reaches one defers at once (``None``: the final stream)
        self.deferred: Optional[set] = set() if defer else None
        #: what a round visited first, in order: a deferred marker takes
        #: its share back out of ``fresh``
        self._visits: list = []
        if defer:
            # a deferred marker's bytes are cut after its walk would have
            # booked them: a round's attribution is its lookups (the
            # scope's framing row), not per-type bytes
            self._prof = None
        # a chain batch searches an arena built over the whole table; at
        # most len(stale) nodes can ride one, so tail slots are offered
        # only when that many pointers would pay for the build — the
        # test a pointer array applies to itself
        if len(stale) * ARENA_REBUILD_BLOCKS_PER_POINTER < len(self.msrlt):
            self.chain_backoff.skip = sys.maxsize

    @property
    def _first_visit(self):
        # only a round journals its visits; the final stream marks them
        # as a plain collector does
        if self.deferred is None:
            return self._visited.add
        return self._journal_visit

    def _journal_visit(self, logical: tuple) -> None:
        if logical in self.deferred:
            raise DeltaDefer(f"{logical} waits for a later pass")
        self._visits.append(logical)
        self._visited.add(logical)

    def _first_visits(self, logicals: list) -> None:
        if self.deferred is not None:
            self._visits.extend(logicals)
        self._visited.update(logicals)

    def _dangling(self, value: int) -> None:
        if self.deferred is None:
            super()._dangling(value)
        raise DeltaDefer(f"pointer {value:#x} has no shippable target") from None

    def save_tail(self, freed=(), written=()) -> None:
        """The tail section: a freed marker per heap logical in *freed*,
        runs for the blocks of *written* — ``(block, byte spans the slice
        wrote)`` — that take the run form, and a root per stale block
        nothing reached.  Behind a clean block nothing is walked, so a
        stale block only clean ones point to (or none: leaked blocks
        ship too) is a root of its own."""
        buf = self.buf
        visited = self._visited
        for logical in freed:
            buf.write_u8(_FREED)
            write_logical(buf, logical)
        info_for = self.ti.info_for
        patches = []
        for block, spans in written:
            info = info_for(block.elem_type)
            runs = unit_runs(info, block.count, spans)
            if runs is not None:
                visited.add(block.logical)
                patches.append((block, info, runs))
        for block, info, runs in patches:
            self._ship(block.logical, self._save_runs, block, info, runs)
        lookup = self.msrlt.lookup_logical
        deferred = () if self.deferred is None else self.deferred
        for logical in sorted(self._stale):
            # a root, or an earlier marker, may lead here
            if logical not in visited and logical not in deferred:
                self._ship(logical, self._save_root, lookup(logical))
        buf.write_u8(_END)
        if self.deferred is not None:
            stale = self._stale
            stale.difference_update([logical for logical in stale if logical in visited])

    def _ship(self, logical: tuple, save, *args) -> None:
        """One marker for *logical*'s block.  In a round, a marker whose
        walk defers is cut back out with everything it visited first."""
        if self.deferred is None:
            save(*args)
            return
        out, visits = self.buf.storage, self._visits
        at, seen = len(out), len(visits)
        try:
            save(*args)
        except DeltaDefer:
            del out[at:]
            self._visited.difference_update(visits[seen:])
            self._visited.discard(logical)
            del visits[seen:]
            self.deferred.add(logical)

    def _save_root(self, block: MemoryBlock) -> None:
        self.buf.write_u8(_ROOT)
        self.save_variable(block)

    def _save_runs(self, block: MemoryBlock, info, runs) -> None:
        buf = self.buf
        buf.write_u8(_RUNS)
        write_logical(buf, block.logical)
        buf.write_u32(len(runs))
        for first, n in runs:
            buf.write(_RUN_HEADER.pack(first, n))
            self.save_contents(_unit_block(block, info, first, n))


class PrecopyFinalRestorer(Restorer):
    """The restorer of every pre-copy pass after the snapshot, applied to
    the pre-warmed scratch: born with *held* — ``run_precopy``'s ledger
    of what the scratch holds, handed over, not copied — as its mapping,
    so a ``REF`` to a block no record of this payload defined resolves,
    a ``BLOCK`` record for a held block restores *in place*, and what
    lands or is freed keeps the ledger."""

    def __init__(self, process, buf, held: dict) -> None:
        super().__init__(process, buf)
        self._mapping = held

    def _prefault_registered(self) -> None:
        # the snapshot restore materialized the windows; walking the
        # whole table again would cost more than the few blocks a round
        # or the final stream touches
        return

    def restore_tail(self) -> None:
        buf = self.buf
        held = self._mapping
        while True:
            marker = buf.read_u8()
            if marker == _END:
                return
            if marker == _ROOT:
                self.restore_pointer()
            elif marker == _RUNS:
                logical = read_logical(buf)
                block = held.get(logical)
                if block is None:
                    raise RestoreError(
                        f"runs for {logical}, a block the destination does not hold"
                    )
                _restore_runs(self, block)
            elif marker == _FREED:
                logical = read_logical(buf)
                if logical[0] != BlockKind.HEAP or logical not in held:
                    raise RestoreError(
                        f"freed marker for {logical}, not a heap block the destination holds"
                    )
                block = held.pop(logical)
                self.msrlt.unregister(block.addr)
                self.memory.heap_free(block.addr)
            else:
                raise RestoreError(f"bad tail marker {marker}")

    def _resolve_block(self, logical: tuple, info, count: int) -> MemoryBlock:
        block = self._mapping.get(logical)
        if block is None:
            return super()._resolve_block(logical, info, count)
        self._check_declared(logical, info, count, block, "the pre-copied block")
        return block


def unit_runs(info, count: int, spans) -> Optional[list[tuple[int, int]]]:
    """The unit runs ``[(first_unit, n_units), ...]`` covering the byte
    *spans* ``[(lo, hi), ...]`` (block-relative, ascending, disjoint)
    written into a block of *count* elements of *info*'s type — or
    ``None`` when the whole block is sure to be no larger (the size rule
    of the module docstring)."""
    floor = info.wire_floor // info.repeat  # fewest wire bytes of one unit
    if not floor:
        return None
    size = info.unit_size
    runs: list[list[int]] = []  # [first, stop), merged where they touch
    for lo, hi in spans:
        first, stop = lo // size, -(-hi // size)
        if runs and first <= runs[-1][1]:
            runs[-1][1] = max(stop, runs[-1][1])
        else:
            runs.append([first, stop])
    left_out = info.units_in(count) - sum(stop - first for first, stop in runs)
    if 4 + _RUN_HEADER.size * len(runs) > left_out * floor:
        return None
    return [(first, stop - first) for first, stop in runs]


def _unit_block(block: MemoryBlock, info, first: int, n: int) -> MemoryBlock:
    """Units ``first .. first + n`` of *block* as a block of their own:
    what a run's contents are the contents of."""
    size = info.unit_size
    return MemoryBlock(block.addr + first * size, info.unit, n, n * size, block.logical)


def _restore_runs(rest: PrecopyFinalRestorer, block: MemoryBlock) -> None:
    """The body of a runs marker, after its logical."""
    buf = rest.buf
    n_runs = buf.read_u32()
    # nothing is looped over that the payload cannot hold
    if n_runs == 0 or not buf.holds(n_runs * _RUN_HEADER.size):
        raise RestoreError(
            f"{n_runs} runs claimed for {block.logical}: a runs marker "
            f"has at least one, and the payload ends before that many could"
        )
    info = rest.ti.info_for(block.elem_type)
    total = info.units_in(block.count)
    end = 0
    for _ in range(n_runs):
        first, n = buf.unpack(_RUN_HEADER)
        if n == 0 or first < end or first + n > total:
            raise RestoreError(
                f"run of {n} units at unit {first} of {block.logical} "
                f"({total} units, previous run ended at {end}): runs are not "
                f"empty, ascend without overlap and stay inside their block"
            )
        end = first + n
        rest.restore_contents(_unit_block(block, info, first, n))
