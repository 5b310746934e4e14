"""Wire-level trace-context propagation.

A migration is a two-sided protocol: the source collects and sends, the
destination restores.  For the destination's restore spans to join the
source's trace as one coherent tree, the source ships a compact
**trace context** ahead of the payload:

.. code-block:: text

    context body (28 bytes, big-endian):
        8s   trace id            (raw 8 bytes; hex form is the string id)
        u64  parent span id      (the sender's attempt span)
        u32  attempt             (1-based attempt ordinal)
        f64  sent wall clock     (sender's time.time(), seconds)

carried as the ``'MCTX'`` control frame that opens every transfer
attempt's envelope (see :mod:`repro.msr.wire`).  The
receiver resolves the parent span id against its own tracer
(:meth:`~repro.obs.spans.Tracer.span_by_id`) when the trace id matches —
the in-process case — or builds an adopted tracer
(:meth:`~repro.obs.spans.Tracer.adopt_remote`) whose root is parented in
the sender's trace for a true two-process migration; merging the two
JSONL traces then joins by span id.

Clock skew: the sender stamps its wall clock at send time; the receiver
subtracts it from its own wall clock at receipt.  The estimate
``clock_offset_s = recv_wall − send_wall`` therefore *includes* the
one-way context latency — it is an upper bound on (skew + latency), the
best a single one-way message can do (NTP-style averaging would need a
return message the migration protocol does not have).  It is recorded on
the ``trace_context`` event and the joined span, never used to shift
timestamps: each side's span times stay on its own monotonic clock.
"""

from __future__ import annotations

import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro import obs as _obs
from repro.obs.spans import Tracer

__all__ = [
    "TraceContext",
    "outbound_context",
    "restore_site",
    "adopted_tracer",
    "continuation_context",
]

_CTX_BODY = struct.Struct(">8sQId")


@dataclass(frozen=True)
class TraceContext:
    """The propagated trace identity of one migration attempt."""

    trace_id: str  # 16 lowercase hex chars
    parent_span_id: int
    attempt: int
    sent_wall_s: float

    def to_bytes(self) -> bytes:
        return _CTX_BODY.pack(
            bytes.fromhex(self.trace_id),
            self.parent_span_id,
            self.attempt,
            self.sent_wall_s,
        )

    @classmethod
    def from_bytes(cls, body: bytes) -> "TraceContext":
        raw_id, parent, attempt, wall = _CTX_BODY.unpack(body)
        return cls(
            trace_id=raw_id.hex(),
            parent_span_id=parent,
            attempt=attempt,
            sent_wall_s=wall,
        )


def outbound_context(attempt: int = 1, wall_clock=time.time) -> TraceContext | None:
    """The context to ship for the *current* span position, or ``None``
    when no observation is active (nothing to propagate)."""
    observation = _obs.current()
    if observation is None:
        return None
    tracer = observation.tracer
    return TraceContext(
        trace_id=tracer.trace_id,
        parent_span_id=tracer.current().span_id,
        attempt=attempt,
        sent_wall_s=wall_clock(),
    )


@contextmanager
def restore_site(ctx: TraceContext | None, wall_clock=time.time):
    """Run the destination-side restore joined to the sender's trace.

    With a context whose trace id matches the active tracer's (the
    in-process engine), the current thread's spans are re-rooted under
    the *exact* span the sender named — the restore spans become
    children of the sending attempt span because the wire said so, not
    because of ambient call nesting.  A foreign trace id (a payload from
    another process) is recorded but not joined; use
    :func:`adopted_tracer` to observe that restore.  A ``None`` context
    (sender without tracing) is a no-op.
    """
    observation = _obs.current()
    if ctx is None or observation is None:
        yield None
        return
    offset = wall_clock() - ctx.sent_wall_s
    tracer = observation.tracer
    parent = None
    if tracer.trace_id == ctx.trace_id:
        parent = tracer.span_by_id(ctx.parent_span_id)
    observation.events.emit(
        "trace_context",
        trace_id=ctx.trace_id,
        parent_span_id=ctx.parent_span_id,
        attempt=ctx.attempt,
        clock_offset_s=round(offset, 9),
        joined=parent is not None,
    )
    if parent is None:
        yield None
        return
    parent.attrs.setdefault("clock_offset_s", round(offset, 9))
    with tracer.bind(parent):
        yield parent


def continuation_context(stats, wall_clock=time.time) -> TraceContext | None:
    """The context a *later* hop adopts to continue this migration's trace.

    Reads the completed migration's observation (``stats.obs``) and names
    its final attempt span — the span that conducted the successful
    transfer — as the parent, so passing the result to
    ``MigrationEngine.migrate(..., adopt_trace=...)`` on the next hop
    roots that hop's whole span tree underneath it.  Returns ``None``
    when the migration ran unobserved."""
    observation = getattr(stats, "obs", None)
    if observation is None:
        return None
    attempt = None
    for _path, sp in observation.tracer.iter_spans():
        if sp.name == "attempt":
            attempt = sp
    if attempt is None:
        attempt = observation.tracer.root
    return TraceContext(
        trace_id=observation.tracer.trace_id,
        parent_span_id=attempt.span_id,
        attempt=int(attempt.attrs.get("n", 1)),
        sent_wall_s=wall_clock(),
    )


def adopted_tracer(ctx: TraceContext, name: str = "restore") -> Tracer:
    """A tracer for a destination *process* restoring a foreign payload:
    shares the sender's trace id and parents its root under the sender's
    attempt span (see :meth:`Tracer.adopt_remote`), so the two sides'
    JSONL traces merge into one connected tree."""
    return Tracer.adopt_remote(name, ctx.trace_id, ctx.parent_span_id)
