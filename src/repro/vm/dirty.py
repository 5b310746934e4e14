"""Write-barrier dirty tracking for iterative pre-copy migration.

The tracker is a pure interval log: every mutating :class:`~repro.vm.memory.Memory`
entry point calls :meth:`DirtyTracker.mark` with the written byte range, as
do the two writers whose fast path bypasses ``Memory`` — the interpreter's
in-window ``STORE`` / ``STG`` and ``Process.set_rand_state`` — and
the migration layer periodically drains the log with :meth:`take`, resolves
the merged intervals to MSRLT blocks (``MSRLT.blocks_overlapping``) and ships
the *unit runs* of each block the intervals cover (:mod:`repro.msr.wire`) —
so the log must be exact to the byte: a changed byte outside every marked
interval is silent corruption at the destination, where block granularity
used to forgive it (over-marking only costs bytes).  Keeping
the tracker block-agnostic means the barrier costs one ``mark`` call (a range
test and an ``append``) per non-stack store and never touches the MSRLT —
blocks may be registered, freed, or re-registered between marks without
invalidating the log.

Stack writes are filtered out at mark time via the ``(skip_lo, skip_hi)``
range: pre-copy delta rounds never ship stack blocks (the stack travels only
in the final stop-and-copy stream, after the source has genuinely paused), so
tracking the interpreter's per-instruction stack traffic would only bloat the
log.
"""

from __future__ import annotations

__all__ = ["DirtyTracker"]

#: coalesce the interval log once it grows past this many entries (and,
#: from then on, each time it doubles over what the last merge left)
_COALESCE_THRESHOLD = 4096


class DirtyTracker:
    """Accumulates written byte intervals ``[lo, hi)`` between drains."""

    __slots__ = ("_intervals", "_limit", "_skip_lo", "_skip_hi")

    def __init__(self, skip_lo: int = 0, skip_hi: int = 0) -> None:
        self._intervals: list[tuple[int, int]] = []
        self._limit = _COALESCE_THRESHOLD
        self._skip_lo = skip_lo
        self._skip_hi = skip_hi

    def mark(self, addr: int, n: int) -> None:
        """Record a write of *n* bytes at *addr* (no-op for stack range)."""
        if n <= 0 or self._skip_lo <= addr < self._skip_hi:
            return
        self._intervals.append((addr, addr + n))
        if len(self._intervals) > self._limit:
            # a slice that dirties more than the threshold's worth of
            # *disjoint* ranges must not re-merge them on every write:
            # the next merge waits until the log has doubled
            self._intervals = _merge(self._intervals)
            self._limit = max(_COALESCE_THRESHOLD, 2 * len(self._intervals))

    def take(self) -> list[tuple[int, int]]:
        """Drain the log: return merged, sorted intervals and clear."""
        merged = _merge(self._intervals)
        self._intervals = []
        self._limit = _COALESCE_THRESHOLD
        return merged

    def __bool__(self) -> bool:
        return bool(self._intervals)


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if len(intervals) <= 1:
        return list(intervals)
    intervals = sorted(intervals)
    out = [intervals[0]]
    for lo, hi in intervals[1:]:
        plo, phi = out[-1]
        if lo <= phi:
            if hi > phi:
                out[-1] = (plo, hi)
        else:
            out.append((lo, hi))
    return out
