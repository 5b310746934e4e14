"""Per-migration accounting: the numbers the paper's evaluation reports.

"We define process migration time as the total of data collection
(Collect), transmission (Tx), and restoration (Restore) time." (§4.2)

The paper's prototype serializes the three stages, so its response time
is the *sum* — and so does the engine, whether the payload crosses as
one chunk or as several.  For a chunk train the reported response time
is a *model* of overlapping them, the classic pipeline formula
(:func:`pipelined_response_time`): the first chunk flows through all
three stages (fill), then the remaining chunks emerge at the cadence of
the slowest stage (bottleneck), so for a long stream the response
approaches ``max(Collect, Tx, Restore)`` instead of their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.msr.collect import CollectStats
from repro.msr.restore import RestoreStats

__all__ = ["MigrationStats", "pipelined_response_time"]

#: span names whose per-phase totals :meth:`MigrationStats.span_totals`
#: reads out of the trace tree (codec spans are matched by prefix)
PHASE_SPANS = ("collect", "tx", "restore")
CODEC_SPAN_PREFIX = "codec."


def pipelined_response_time(
    collect_time: float,
    tx_time: float,
    restore_time: float,
    n_chunks: int,
    latency_s: float = 0.0,
) -> float:
    """Modeled response time of a 3-stage chunked pipeline.

    *collect_time*, *tx_time*, *restore_time* are whole-stage totals
    (*tx_time* already latency-amortized: the engine charges
    ``Link.transfer_time`` of the whole framed train, so the latency is
    in it once); chunks are assumed uniform,
    so per-chunk stage times are ``total / n_chunks``.  The standard
    pipeline model:

        response = (c + x + r)          # fill: chunk 0 crosses all stages
                 + (n - 1) · max(c, x, r)   # steady state at the bottleneck

    where the link *latency* belongs to the fill term only (it is paid
    once, by the first frame).  For ``n_chunks <= 1`` there is nothing to
    overlap and the serial sum is returned.
    """
    serial = collect_time + tx_time + restore_time
    if n_chunks <= 1:
        return serial
    per_c = collect_time / n_chunks
    per_x = (tx_time - latency_s) / n_chunks
    per_r = restore_time / n_chunks
    fill = per_c + latency_s + per_x + per_r
    steady = (n_chunks - 1) * max(per_c, per_x, per_r)
    # overlap can only help; numeric noise must not report a pessimization
    return min(serial, fill + steady)


@dataclass
class MigrationStats:
    """One migration event's measurements."""

    #: wall-clock data collection time (seconds) — Table 1 "Collect"
    collect_time: float = 0.0
    #: modeled wire transfer time (seconds) — Table 1 "Tx"
    tx_time: float = 0.0
    #: wall-clock restoration time (seconds) — Table 1 "Restore"
    restore_time: float = 0.0
    #: total payload bytes on the wire
    payload_bytes: int = 0
    #: Σ Dᵢ — source-arch bytes of all migrated blocks (§4.2)
    data_bytes: int = 0
    #: number of MSR nodes migrated (n in §4.2)
    n_blocks: int = 0
    source_arch: str = ""
    dest_arch: str = ""
    n_frames: int = 0
    collect: Optional[CollectStats] = None
    restore: Optional[RestoreStats] = None
    #: whether the successful attempt cut the payload into
    #: ``chunk_size`` frames
    streamed: bool = False
    #: number of chunk frames the payload crossed the wire in: always
    #: >= 1 for a completed migration, exactly 1 unless streamed
    n_chunks: int = 0
    #: modeled response time (seconds) of the chunk train that ran;
    #: equals :attr:`migration_time` at one chunk
    pipeline_time: float = 0.0
    #: fraction of the serial Collect+Tx+Restore the model hides by
    #: overlap: ``1 − pipeline_time / migration_time`` (0.0 at one chunk)
    overlap_ratio: float = 0.0
    #: whether adaptive wire compression was requested
    compressed: bool = False
    #: bytes actually stored on the wire after (adaptive) compression;
    #: equals :attr:`payload_bytes` when compression was off or never won
    compressed_bytes: int = 0
    #: raw / stored payload bytes (1.0 = no shrink, 2.0 = halved)
    compression_ratio: float = 1.0
    #: seconds spent compressing + decompressing payload bytes
    codec_time: float = 0.0
    #: transfer attempts made (1 = clean first try)
    attempts: int = 1
    #: failed attempts that were retried (``attempts − 1`` on success)
    retries: int = 0
    #: bytes sent on attempts that were later abandoned
    aborted_bytes: int = 0
    #: every attempt failed (``MigrationAbortedError``): the source kept
    #: the process
    aborted: bool = False
    #: total backoff between attempts (seconds): modeled, as Tx is, and
    #: never slept
    time_in_backoff: float = 0.0
    #: whether this migration ran the iterative pre-copy protocol
    precopy: bool = False
    #: delta rounds shipped before stop-and-copy (snapshot round included)
    precopy_rounds: int = 0
    #: dirty blocks shipped across all delta rounds
    precopy_dirty_blocks: int = 0
    #: payload bytes shipped during pre-copy (snapshot + delta rounds)
    precopy_bytes: int = 0
    #: per-round payload byte attribution: [snapshot, round 1, round 2, …]
    precopy_round_bytes: list = field(default_factory=list)
    #: modeled wire seconds of the pre-copy phase (rounds, not the final)
    precopy_tx_time: float = 0.0
    #: codec/collect seconds of the pre-copy phase (rounds, not the final)
    precopy_codec_time: float = 0.0
    #: the stop-and-copy downtime, from the moment the source stops: the
    #: measured bookkeeping after the last slice (dirty resolution, the
    #: freed-only stop round) + collect + tx + restore of the final
    #: stream — the number pre-copy exists to shrink (the non-precopy
    #: downtime is migration_time)
    precopy_downtime_s: float = 0.0
    #: blocks a surviving pre-copy phase left clean at the destination,
    #: which the stop-and-copy stream need not carry
    precopy_cached_blocks: int = 0
    #: pre-copy hit a retryable failure and fell back to plain
    #: stop-and-copy (the pre-copied scratch is discarded, never reused)
    precopy_degraded: bool = False
    #: MSRLT searches and registrations made for this migration: the
    #: source's table, plus the restored one once adopted
    msrlt_searches: int = 0
    msrlt_registrations: int = 0
    #: chunk frames the channel sent and handed up, over every attempt
    #: and pre-copy round (terminators excluded)
    chunks_sent: int = 0
    chunks_received: int = 0
    #: injected transport faults that fired, by kind (``FaultyChannel``)
    faults: dict = field(default_factory=dict)
    #: the migration's observation (span tree + event log);
    #: set by the engine, ``None`` for hand-built stats
    obs: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def migration_time(self) -> float:
        """Collect + Tx + Restore — the paper's (serial) migration time."""
        return self.collect_time + self.tx_time + self.restore_time

    @property
    def response_time(self) -> float:
        """What the user waits: :attr:`pipeline_time` — one formula
        however the payload is cut (``finish_pipeline``), which is the
        serial sum at one chunk."""
        return self.pipeline_time

    @property
    def downtime(self) -> float:
        """How long the program was stopped: the final stop-and-copy
        pause when the migration rode on a pre-copy, else the whole
        response time."""
        return self.precopy_downtime_s if self.precopy else self.response_time

    def finish_pipeline(self, latency_s: float = 0.0) -> None:
        """Derive :attr:`pipeline_time` / :attr:`overlap_ratio` from the
        stage totals once they are all known.

        The overlap ratio compares against the *full* serial baseline —
        Collect + Tx + Restore **plus** codec time.  Codec work is real
        serial work on a compressed stream, and the model does not
        pipeline it away, so excluding it from the denominator (while
        the numerator's pipeline model never saw it either) overstated
        the overlap on every compressed migration.  Pre-copy delta-round
        tx/codec seconds fold in the same way, on *both* sides: the
        rounds are genuinely serial work the single streaming pass never
        overlapped, and counting them only in the denominator would let
        a 3-round pre-copy report an overlap its pipeline never achieved
        (the pre-PR bug this fixes).  The ratio is clamped to ``[0, 1)``:
        overlap can hide work, not create negative time.
        """
        self.pipeline_time = pipelined_response_time(
            self.collect_time,
            self.tx_time,
            self.restore_time,
            self.n_chunks,
            latency_s=latency_s,
        )
        extra = self.codec_time + self.precopy_tx_time + self.precopy_codec_time
        serial = self.migration_time + extra
        if serial <= 0:
            self.overlap_ratio = 0.0
            return
        pipelined = self.pipeline_time + extra
        ratio = 1.0 - pipelined / serial
        # a real pipelined transfer always has pipelined > 0, so the
        # mathematical ratio is < 1; the clamp guards degenerate inputs
        self.overlap_ratio = min(max(ratio, 0.0), 1.0 - 1e-12)

    @property
    def attribution(self) -> Optional[dict]:
        """The per-type cost attribution summary (``payload_bytes`` +
        ``rows``), or ``None`` when the migration ran without profiling
        (``migrate(..., attribution=True)`` turns it on)."""
        if self.obs is None or getattr(self.obs, "attribution", None) is None:
            return None
        return self.obs.attribution.summary()

    def span_totals(self) -> dict:
        """Per-phase second totals read out of the span tree (empty when
        the stats were not produced under an observation).  ``codec``
        sums every ``codec.*`` span (deflate + inflate, all attempts)."""
        if self.obs is None:
            return {}
        tracer = self.obs.tracer
        out = {name: tracer.total(name) for name in PHASE_SPANS}
        out["codec"] = tracer.total_prefix(CODEC_SPAN_PREFIX)
        return out

    def counters(self) -> dict:
        """This record's counts by name, sorted: the one rendering that
        the trace's ``metrics`` line, ``repro migrate --metrics-out``
        and ``repro obs report / top / diff`` read.  A counter shows only
        on the migrations it describes: ``codec.bytes_saved`` when
        compressed, ``engine.aborted_bytes`` once an attempt failed,
        ``precopy.*`` once pre-copy shipped, ``faults.*`` once a fault
        fired."""
        out = {
            "engine.attempts": self.attempts,
            "engine.retries": self.retries,
            "engine.payload_bytes": self.payload_bytes,
            "engine.blocks": self.n_blocks,
            "engine.chunks": self.n_chunks,
            "msrlt.searches": self.msrlt_searches,
            "msrlt.registrations": self.msrlt_registrations,
        }
        if self.chunks_sent:
            out["wire.chunks_sent"] = self.chunks_sent
        if self.chunks_received:
            out["wire.chunks_received"] = self.chunks_received
        if self.compressed:
            out["codec.bytes_saved"] = max(self.payload_bytes - self.compressed_bytes, 0)
        if self.retries or self.aborted:
            out["engine.aborted_bytes"] = self.aborted_bytes
        if self.precopy_degraded:
            out["engine.precopy_degraded"] = 1
        if self.precopy_round_bytes:
            out["precopy.bytes"] = self.precopy_bytes
        if self.precopy_rounds:  # the phase ran to its stop
            out["precopy.rounds"] = self.precopy_rounds
            out["precopy.dirty_blocks"] = self.precopy_dirty_blocks
            out["precopy.cached_blocks"] = self.precopy_cached_blocks
        if self.faults:
            out["faults.injected"] = sum(self.faults.values())
            out.update((f"faults.{kind}", n) for kind, n in self.faults.items())
        return dict(sorted(out.items()))

    def row(self) -> dict:
        """A Table 1-shaped row."""
        out = {
            "Collect": self.collect_time,
            "Tx": self.tx_time,
            "Restore": self.restore_time,
            "Total": self.migration_time,
            "Bytes": self.payload_bytes,
            "Blocks": self.n_blocks,
        }
        if self.streamed:
            out["Pipelined"] = self.pipeline_time
            out["Chunks"] = self.n_chunks
            out["Overlap"] = self.overlap_ratio
        if self.compressed:
            out["Compressed"] = self.compressed_bytes
            out["Ratio"] = self.compression_ratio
            out["Codec"] = self.codec_time
        if self.retries:
            out["Attempts"] = self.attempts
            out["AbortedBytes"] = self.aborted_bytes
            out["Backoff"] = self.time_in_backoff
        if self.precopy:
            out["PrecopyRounds"] = self.precopy_rounds
            out["PrecopyBytes"] = self.precopy_bytes
            out["Downtime"] = self.precopy_downtime_s
        if self.precopy_degraded:
            out["PrecopyDegraded"] = True
        return out

    def __str__(self) -> str:
        base = (
            f"migration {self.source_arch} -> {self.dest_arch}: "
            f"collect {self.collect_time * 1e3:.2f} ms, "
            f"tx {self.tx_time * 1e3:.2f} ms, "
            f"restore {self.restore_time * 1e3:.2f} ms "
            f"({self.payload_bytes} wire bytes, {self.n_blocks} blocks, "
            f"{self.n_frames} frames)"
        )
        if self.streamed:
            base += (
                f" [streamed: {self.n_chunks} chunks, "
                f"pipelined {self.pipeline_time * 1e3:.2f} ms, "
                f"overlap {self.overlap_ratio:.0%}]"
            )
        if self.compressed:
            base += (
                f" [compressed: {self.compressed_bytes} wire bytes, "
                f"ratio {self.compression_ratio:.2f}x, "
                f"codec {self.codec_time * 1e3:.2f} ms]"
            )
        if self.retries:
            base += (
                f" [{self.attempts} attempts, {self.retries} retried, "
                f"{self.aborted_bytes} bytes aborted, "
                f"backoff {self.time_in_backoff * 1e3:.1f} ms]"
            )
        if self.precopy:
            base += (
                f" [precopy: {self.precopy_rounds} rounds, "
                f"{self.precopy_dirty_blocks} dirty blocks, "
                f"{self.precopy_bytes} round bytes, "
                f"downtime {self.precopy_downtime_s * 1e3:.2f} ms]"
            )
        elif self.precopy_degraded:
            base += " [precopy degraded to stop-and-copy]"
        return base
