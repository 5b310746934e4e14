"""Per-type cost attribution: *which data* makes migration expensive.

The span tree answers "which phase"; this profiler answers "which
types and blocks".  It accumulates, per ``(type, block class)`` pair:

- collect / restore *self* seconds and *self* wire bytes — a block's
  frame subtracts everything its nested child blocks cost, so the
  per-type byte totals **partition** the payload (Σ self bytes over all
  rows + the framing residual = payload bytes exactly);
- codec engagement: how many block visits took the flat bulk path, a
  compiled codec plan, or the per-cell loop — the direct answer to
  "where would the next compiled codec pay off";
- MSRLT search cost: lookups, binary-search depth, and cache hits
  attributed to the block being collected when the lookup ran (the
  paper's O(n log n) collection term, finally split by type).

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
``is not None`` test.  A profiler belongs to one migration, run on one
thread: its open frames are one plain stack, and rows are folded only
at frame close.

Rows are additionally partitioned by **scope**: the engine brackets the
iterative pre-copy phase with :meth:`AttributionProfiler.scoped`, so
delta-round collect/restore cost lands in a ``"precopy"`` scope instead
of being lumped under the final attempt — without it, the (larger)
snapshot payload overrode the final elided payload via
:meth:`note_payload` and broke the exact byte partition.
:meth:`summary` reports the default ``"final"`` scope in the original
shape, with other scopes under a ``"scopes"`` key.  A *failed* attempt's
rows leave the default scope (:meth:`AttributionProfiler.set_aside`) and
are reported under ``"abandoned"``, so the default rows partition the
one payload that arrived however many attempts it took.
"""

from __future__ import annotations

import time
from typing import Optional

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
        "blocks", "restore_blocks", "cells",
        "flat", "codec", "percell",
        "msrlt_searches", "msrlt_depth",
    )

    def __init__(self) -> None:
        self.collect_s = 0.0
        self.restore_s = 0.0
        self.bytes = 0
        self.restore_bytes = 0
        self.blocks = 0
        self.restore_blocks = 0
        self.cells = 0
        self.flat = 0
        self.codec = 0
        self.percell = 0
        self.msrlt_searches = 0
        self.msrlt_depth = 0


class _Frame:
    """One open block visit on the profiler's frame stack."""

    __slots__ = (
        "key", "phase", "scope", "t0", "pos0", "counted",
        "child_s", "child_bytes",
    )

    def __init__(self, key: tuple, phase: str, scope: str, t0: float,
                 pos0: int, counted: bool) -> None:
        self.key = key
        self.phase = phase
        self.scope = scope
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

    #: the scope migration cost lands in unless :meth:`scoped` says else
    DEFAULT_SCOPE = "final"

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: scope -> (type, class) -> row
        self._scopes: dict[str, dict[tuple, _Row]] = {
            self.DEFAULT_SCOPE: {},
        }
        #: attempt name -> (rows, payload bytes) of each failed attempt
        self._abandoned: dict[str, tuple[dict, int]] = {}
        #: the open block visits, innermost last
        self._stack: list[_Frame] = []
        self.scope = self.DEFAULT_SCOPE
        #: per-scope total payload bytes, when the collector reported
        #: them (lets :meth:`summary` emit the exact framing residual)
        self._payloads: dict[str, int] = {}

    def scoped(self, scope: str):
        """Context manager routing cost into *scope* (the engine wraps
        the pre-copy phase in ``scoped("precopy")``)."""
        return _Scoped(self, scope)

    def set_aside(self, name: str) -> None:
        """Move what the default scope holds out of it, to be reported
        as abandoned attempt *name*: a failed attempt's collect work
        really happened, but not for the payload that arrives, so the
        default table stays a partition of that one payload."""
        self._abandoned[name] = (
            self._scopes[self.DEFAULT_SCOPE],
            self._payloads.pop(self.DEFAULT_SCOPE, 0),
        )
        self._scopes[self.DEFAULT_SCOPE] = {}

    # -- frame stack -------------------------------------------------------

    def _row(self, key: tuple, scope: str) -> _Row:
        rows = self._scopes.get(scope)
        if rows is None:
            rows = self._scopes[scope] = {}
        row = rows.get(key)
        if row is None:
            row = rows[key] = _Row()
        return row

    # -- block visits ------------------------------------------------------

    def enter_block(self, phase: str, type_label: str, block_class: str,
                    pos: int, counted: bool = True) -> None:
        """Open a frame for one block visit (*phase* is ``"collect"`` or
        ``"restore"``; *pos* the wire offset at entry).  The scope is
        captured at entry so a frame closes into the scope it opened in
        even if the phase boundary moved meanwhile.

        ``counted=False`` opens a *continuation* of a block that
        :meth:`book_batch` already counted: bytes, seconds and lookups
        inside it land in its row as usual, no visit is booked, and it
        closes with the block around it."""
        self._stack.append(
            _Frame((type_label, block_class), phase, self.scope,
                   self.clock(), pos, counted)
        )

    def exit_block(self, pos: int, engagement: str, cells: int = 0) -> None:
        """Close the innermost block visit at wire offset *pos*, and the
        continuations opened inside it, folding each frame's *self* cost
        (total minus nested children) into its row."""
        stack = self._stack
        while not stack[-1].counted:
            self._close(stack, pos, 0, "", 0)
        self._close(stack, pos, 1, engagement, cells)

    def depth(self) -> int:
        """How many frames are open (see :meth:`unwind`)."""
        return len(self._stack)

    def unwind(self, depth: int, pos: int) -> None:
        """Close every frame opened above *depth* at wire offset *pos* —
        what a traversal that fails mid-walk owes the frames beneath it
        (a pre-copy round defers the block and carries on)."""
        stack = self._stack
        while len(stack) > depth:
            self._close(stack, pos, int(stack[-1].counted), "percell", 0)

    def _close(self, stack: list, pos: int, blocks: int, engagement: str,
               cells: int) -> None:
        frame = stack.pop()
        total_s = self.clock() - frame.t0
        total_b = pos - frame.pos0
        if stack:
            parent = stack[-1]
            parent.child_s += total_s
            parent.child_bytes += total_b
        self._book(
            frame.key, frame.scope, frame.phase,
            max(total_s - frame.child_s, 0.0), total_b - frame.child_bytes,
            blocks, engagement, cells,
        )

    def book_batch(self, phase: str, type_label: str, block_class: str,
                   blocks: int, nbytes: int, seconds: float,
                   cells: int) -> None:
        """Book a plan's whole batch in one call: *blocks* visits of one
        type that together wrote (read) *nbytes* self bytes in *seconds*.
        The open frame is charged the batch as child cost, exactly as if
        each block had opened a frame of its own inside it."""
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent.child_s += seconds
            parent.child_bytes += nbytes
            scope = parent.scope
        else:
            scope = self.scope
        self._book((type_label, block_class), scope, phase, seconds, nbytes,
                   blocks, "codec", cells)

    def _book(self, key: tuple, scope: str, phase: str, seconds: float,
              nbytes: int, blocks: int, engagement: str, cells: int) -> None:
        row = self._row(key, scope)
        if phase == "collect":
            row.collect_s += seconds
            row.bytes += nbytes
            row.blocks += blocks
        else:
            row.restore_s += seconds
            row.restore_bytes += nbytes
            row.restore_blocks += blocks
        if blocks:
            setattr(row, engagement, getattr(row, engagement) + blocks)
        row.cells += cells

    # -- MSRLT search cost -------------------------------------------------

    def msrlt_lookup(self, depth: int) -> None:
        """Account one address lookup: *depth* is the binary-search
        depth.  Attributed to the block being visited when the lookup
        ran, else to the framing row."""
        self.msrlt_lookups(1, depth)

    def msrlt_lookups(self, n: int, depth: int) -> None:
        """Account *n* lookups of *depth* each in one call (a plan's
        bulk translation of a whole pointer run)."""
        stack = self._stack
        if stack:
            key, scope = stack[-1].key, stack[-1].scope
        else:
            key, scope = FRAMING_ROW, self.scope
        row = self._row(key, scope)
        row.msrlt_searches += n
        row.msrlt_depth += n * depth

    # -- read-out ----------------------------------------------------------

    def note_payload(self, nbytes: int) -> None:
        """Record the collection's total payload size (framing residual
        = *nbytes* − Σ attributed self bytes).  Scoped: the pre-copy
        snapshot's (larger) payload no longer overrides the final
        attempt's elided payload."""
        scope = self.scope
        self._payloads[scope] = max(self._payloads.get(scope, 0), nbytes)

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
            "cells": r.cells,
            "flat": r.flat,
            "codec": r.codec,
            "percell": r.percell,
            "msrlt_searches": r.msrlt_searches,
            "msrlt_depth": r.msrlt_depth,
        }

    @classmethod
    def _scope_table(cls, rows_by_key: dict, payload: int) -> dict:
        """One scope's JSON-ready table, framing residual included."""
        rows = {key: cls._row_dict(key, r) for key, r in rows_by_key.items()}
        attributed = sum(r.bytes for r in rows_by_key.values())
        if payload > attributed:
            framing = rows.setdefault(FRAMING_ROW, cls._row_dict(FRAMING_ROW, _Row()))
            framing["bytes"] += payload - attributed
        return {
            "payload_bytes": payload,
            "rows": sorted(
                rows.values(),
                key=lambda row: (-row["bytes"], row["type"], row["class"]),
            ),
        }

    def summary(self) -> dict:
        """The attribution table as plain data (JSON-ready).

        Rows are sorted by attributed wire bytes, descending; when the
        collector reported its payload size, a synthetic framing row
        carries the residual so the ``bytes`` column sums to the payload
        exactly.  The top-level ``payload_bytes``/``rows`` are the
        default scope, the successful attempt — byte-partition-exact on
        its own; any other populated scope (``"precopy"``) appears under
        ``"scopes"`` and every failed attempt (:meth:`set_aside`) under
        ``"abandoned"``, with the same table shape (``payload_bytes`` 0
        where the collector never got to its end).
        """
        tables = {
            scope: self._scope_table(rows, self._payloads.get(scope, 0))
            for scope, rows in self._scopes.items()
            if rows or self._payloads.get(scope, 0)
        }
        abandoned = {
            name: self._scope_table(rows, payload)
            for name, (rows, payload) in self._abandoned.items()
        }
        out = tables.pop(
            self.DEFAULT_SCOPE, {"payload_bytes": 0, "rows": []}
        )
        if tables:
            out["scopes"] = tables
        if abandoned:
            out["abandoned"] = abandoned
        return out


class _Scoped:
    """Bracket a profiler phase: cost recorded inside lands in *scope*."""

    __slots__ = ("_prof", "_scope", "_prev")

    def __init__(self, prof: AttributionProfiler, scope: str) -> None:
        self._prof = prof
        self._scope = scope
        self._prev = prof.DEFAULT_SCOPE

    def __enter__(self) -> AttributionProfiler:
        self._prev = self._prof.scope
        self._prof.scope = self._scope
        return self._prof

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._prof.scope = self._prev
        return False


def block_class_of(logical: tuple) -> str:
    """The block-class label of an MSRLT logical id."""
    kind = logical[0]
    if 0 <= kind < len(BLOCK_CLASSES):
        return BLOCK_CLASSES[kind]
    return "unknown"

