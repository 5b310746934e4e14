"""Per-type cost attribution: *which types* spend Collect and Restore.

The span tree says how long each phase took; ``MigrationStats`` counts
blocks per plan kind.  Neither says which types the paper's Table 1
Collect and Restore seconds went to (DESIGN §10 has the question and the
tables that answer it).  This profiler does, per ``(type, block class)``
row: collect / restore *self* seconds, *self* wire bytes and block
visits — a block's frame subtracts everything its nested child blocks
cost, so the ``bytes`` column **partitions** the payload (Σ self bytes
over all rows + the framing residual = payload bytes exactly).

The table is one transfer attempt's: the engine starts a fresh profiler
when an attempt begins, so after a retry or a pre-copy phase it holds
the attempt that arrived.

A plan that emits many blocks' records at once (``ChainPlan``) books
them itself: :meth:`AttributionProfiler.book_batch` folds the whole
batch into its row in one call, and a *continuation* frame
(``enter_block(..., counted=False)``) takes what follows the batch
inside the open block, which the per-cell order books to the batch's
last block.  The table is the one the per-cell oracle produces,
whatever ran.

Hot-path discipline: the collector and restorer fetch the profiler
**once** per pass (`repro.obs.current_attribution()`); when attribution
is off that is ``None`` and every per-block hook is a single
``is not None`` test.  A profiler belongs to one attempt, run on one
thread: its open frames are one plain stack, and rows are folded only
at frame close.  A walk that fails leaves its frames open: it ends the
attempt, or (a pre-copy round's deferred block) books rows no one
reads, since the rounds precede the attempt's fresh profiler.
"""

from __future__ import annotations

import time

__all__ = ["AttributionProfiler", "BLOCK_CLASSES", "FRAMING_ROW", "block_class_of"]

#: block classes rows are keyed by (MSRLT logical-id kinds)
BLOCK_CLASSES = ("global", "stack", "heap")

#: pseudo-type of the payload's non-block residual (header, frame
#: tables, record scaffolding) — what makes the byte partition exact
FRAMING_ROW = ("(framing)", "wire")


class _Row:
    """Accumulated cost of one ``(type, block class)`` pair."""

    __slots__ = (
        "collect_s", "restore_s", "bytes", "restore_bytes",
        "blocks", "restore_blocks",
    )

    def __init__(self) -> None:
        self.collect_s = 0.0
        self.restore_s = 0.0
        self.bytes = 0
        self.restore_bytes = 0
        self.blocks = 0
        self.restore_blocks = 0


class _Frame:
    """One open block visit on the profiler's frame stack."""

    __slots__ = ("key", "phase", "t0", "pos0", "counted", "child_s", "child_bytes")

    def __init__(self, key: tuple, phase: str, t0: float, pos0: int,
                 counted: bool) -> None:
        self.key = key
        self.phase = phase
        self.t0 = t0
        self.pos0 = pos0
        self.counted = counted
        self.child_s = 0.0
        self.child_bytes = 0


class AttributionProfiler:
    """Per-(type, block class) cost accumulator.

    ``enter_block``/``exit_block`` bracket one block visit; *pos* is the
    wire buffer offset (``WriteBuffer.nbytes`` on collection,
    ``ReadBuffer.position`` on restoration), which is how self-bytes are
    measured without touching the payload itself.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: (type, class) -> row
        self._rows: dict[tuple, _Row] = {}
        #: the open block visits, innermost last
        self._stack: list[_Frame] = []
        #: the collected payload's size, when the collector reported it
        #: (lets :meth:`summary` emit the exact framing residual)
        self._payload = 0

    # -- block visits ------------------------------------------------------

    def enter_block(self, phase: str, type_label: str, block_class: str,
                    pos: int, counted: bool = True) -> None:
        """Open a frame for one block visit (*phase* is ``"collect"`` or
        ``"restore"``; *pos* the wire offset at entry).

        ``counted=False`` opens a *continuation* of a block that
        :meth:`book_batch` already counted: bytes and seconds inside it
        land in its row as usual, no visit is booked, and it closes with
        the block around it."""
        self._stack.append(
            _Frame((type_label, block_class), phase, self.clock(), pos, counted)
        )

    def exit_block(self, pos: int) -> None:
        """Close the innermost block visit at wire offset *pos*, and the
        continuations opened inside it, folding each frame's *self* cost
        (total minus nested children) into its row."""
        stack = self._stack
        while not stack[-1].counted:
            self._close(stack, pos, 0)
        self._close(stack, pos, 1)

    def _close(self, stack: list, pos: int, blocks: int) -> None:
        frame = stack.pop()
        total_s = self.clock() - frame.t0
        total_b = pos - frame.pos0
        if stack:
            parent = stack[-1]
            parent.child_s += total_s
            parent.child_bytes += total_b
        self._book(
            frame.key, frame.phase, max(total_s - frame.child_s, 0.0),
            total_b - frame.child_bytes, blocks,
        )

    def book_batch(self, phase: str, type_label: str, block_class: str,
                   blocks: int, nbytes: int, seconds: float) -> None:
        """Book a plan's whole batch in one call: *blocks* visits of one
        type that together wrote (read) *nbytes* self bytes in *seconds*.
        The open frame is charged the batch as child cost, exactly as if
        each block had opened a frame of its own inside it."""
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += seconds
            parent.child_bytes += nbytes
        self._book((type_label, block_class), phase, seconds, nbytes, blocks)

    def _book(self, key: tuple, phase: str, seconds: float, nbytes: int,
              blocks: int) -> None:
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = _Row()
        if phase == "collect":
            row.collect_s += seconds
            row.bytes += nbytes
            row.blocks += blocks
        else:
            row.restore_s += seconds
            row.restore_bytes += nbytes
            row.restore_blocks += blocks

    # -- read-out ----------------------------------------------------------

    def note_payload(self, nbytes: int) -> None:
        """Record the collection's total payload size (framing residual
        = *nbytes* − Σ attributed self bytes)."""
        self._payload = nbytes

    @staticmethod
    def _row_dict(key: tuple, r: _Row) -> dict:
        return {
            "type": key[0],
            "class": key[1],
            "collect_s": round(r.collect_s, 9),
            "restore_s": round(r.restore_s, 9),
            "bytes": r.bytes,
            "restore_bytes": r.restore_bytes,
            "blocks": r.blocks,
            "restore_blocks": r.restore_blocks,
        }

    def summary(self) -> dict:
        """The attribution table as plain data (JSON-ready):
        ``payload_bytes`` and ``rows``.

        Rows are sorted by attributed wire bytes, descending; when the
        collector reported its payload size, a synthetic framing row
        carries the residual so the ``bytes`` column sums to the payload
        exactly.
        """
        rows = {key: self._row_dict(key, r) for key, r in self._rows.items()}
        attributed = sum(r.bytes for r in self._rows.values())
        if self._payload > attributed:
            framing = rows.setdefault(FRAMING_ROW, self._row_dict(FRAMING_ROW, _Row()))
            framing["bytes"] += self._payload - attributed
        return {
            "payload_bytes": self._payload,
            "rows": sorted(
                rows.values(),
                key=lambda row: (-row["bytes"], row["type"], row["class"]),
            ),
        }


def block_class_of(logical: tuple) -> str:
    """The block-class label of an MSRLT logical id."""
    kind = logical[0]
    if 0 <= kind < len(BLOCK_CLASSES):
        return BLOCK_CLASSES[kind]
    return "unknown"
