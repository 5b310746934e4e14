"""What the suite measures: metric tables, the workload table, ``spec_hash``.

Pure data — importing this module needs nothing from ``repro`` — so the
``compare`` command and ``BENCHMARK.json`` checks work without ``src/``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

#: the interpreter recursion limit the harness runs under (three of the
#: seven workloads die with RecursionError at the default 1000; see
#: ``msr.collect.default_recursion_ok``)
RECURSION_LIMIT = 100_000
#: untimed migrations before the first timed sample (the first is cold)
WARMUP_MIGRATIONS = 5
#: a timed run keeps sampling until it has this many samples, whatever
#: ``--seconds`` says: p90 needs at least ten samples beyond it
MIN_SAMPLES = 100
#: verification runs on the first, the last and every VERIFY_EVERY-th sample
VERIFY_EVERY = 25
#: repeats of each per-layer probe, and the least number of traced replays
PROBE_REPEATS = 30
#: set-ups per end-to-end run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: end-to-end times are reported at reference speed: each is scaled by this
#: over the calibration kernel's time right next to it (the kernel takes
#: about this long on the sandbox's CPU when it is quiet)
NOMINAL_CALIBRATION_US = 220.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the base value by which the metric may worsen (end-to-end only)
    bound: float | None = None
    #: a count that must repeat exactly from run to run at one commit
    exact: bool = False
    definition: str = ""
    #: listed in BENCHMARK.json, so the PR driver gates on it
    gated: bool = True


# Every time below is NORMALIZED: wall time at reference speed, i.e. the
# measured wall times NOMINAL_CALIBRATION_US over the calibration kernel's
# time next to it.  It reads as wall ms only on a machine where the kernel
# takes NOMINAL_CALIBRATION_US; the raw medians are in the detail line.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, definition=(
        "median of SETUP_REPEATS set-ups, each normalized by the kernel run "
        "around it: compile, run-to-poll, checkpoint, warm-up migrations "
        "(the cold one included) and their verification")),
    Metric("migrate_wall_p50_ms", "ms", "lower", 0.20, definition=(
        "median over the samples of one MigrationEngine.migrate() call's "
        "wall, each normalized by the two kernel runs around it")),
    # not gated: under the sandbox's CPU noise the tail of a 20-30 ms sample
    # moves by 40 % from run to run, which no bound the driver allows survives
    Metric("migrate_wall_p90_ms", "ms", "lower", 0.25, gated=False, definition=(
        "nearest-rank p90 of the same samples (n >= 100), normalized alike")),
    Metric("downtime_p50_ms", "ms", "lower", 0.20, definition=(
        "median source-paused time, normalized alike: the migrate() wall "
        "for stop-and-copy, stats.precopy_downtime_s under pre-copy")),
    Metric("wire_bytes", "B", "lower", 0.01, exact=True, definition=(
        "bytes the channel accepted for the whole migration, framing, "
        "control frames and pre-copy rounds included")),
    Metric("downtime_wire_bytes", "B", "lower", 0.01, exact=True, definition=(
        "bytes on the wire while the source is paused: wire_bytes minus the "
        "channel's pre-copy delta-round bytes")),
    Metric("response_10M_ms", "ms", "lower", 0.20, definition=(
        "migrate_wall_p50_ms + ETHERNET_10M.transfer_time(wire_bytes); "
        "the paper's Table 1 Total, serial model, MODELED")),
    Metric("response_100M_ms", "ms", "lower", 0.20, definition=(
        "same with ETHERNET_100M, MODELED")),
    Metric("downtime_10M_ms", "ms", "lower", 0.20, definition=(
        "downtime_p50_ms + ETHERNET_10M.transfer_time(downtime_wire_bytes), "
        "MODELED")),
    Metric("downtime_100M_ms", "ms", "lower", 0.20, definition=(
        "same with ETHERNET_100M, MODELED")),
    Metric("throughput_mb_s", "MB/s", "higher", 0.20, definition=(
        "stats.data_bytes (sum of D_i, exact) / migrate_wall_p50_ms (normalized)")),
    Metric("peak_rss_mb", "MB", "lower", 0.10, definition=(
        "ru_maxrss of the workload's interpreter at exit")),
    # not gated: it is 0 on every healthy run and a BENCHMARK.json metric may
    # never be 0; the driver reads the same fact from failed/attempted
    Metric("failed_share", "ratio", "lower", 0.0, gated=False, definition=(
        "(migrations that raised + migrations whose verification failed) "
        "/ attempted; any value above 0 is a regression")),
)

def _layer(name, unit, better="lower", exact=False, definition=""):
    return Metric(name, unit, better, None, exact, definition)


PER_LAYER = (
    # vm
    _layer("vm.compile_s", "s", definition="compile_program() of the generated source"),
    _layer("vm.run_to_poll_s", "s", definition="Process.run() from start to the stop poll"),
    _layer("vm.process_init_ms", "ms", definition="one Process(program, dest_arch); migrate() builds two"),
    _layer("vm.resume_s", "s", definition="resume the migrated process to exit (verification tail)"),
    # msr.msrlt
    _layer("msr.msrlt.blocks", "count", exact=True, definition="blocks in the stopped source's MSRLT"),
    _layer("msr.msrlt.lookup_us", "us", definition="scalar lookup_addr, per lookup, over each block's start and one interior address, seed-shuffled"),
    _layer("msr.msrlt.searches_per_collect", "count", exact=True, definition="n_searches delta across one collect_state"),
    _layer("msr.msrlt.cache_hit_ratio", "ratio", "higher", exact=True, definition="n_cache_hits delta / n_searches delta across one collect_state"),
    # msr.collect
    _layer("msr.collect.p50_ms", "ms", definition="collect_state on the stopped source"),
    _layer("msr.collect.us_per_block", "us", definition="collect p50 / blocks collected"),
    _layer("msr.collect.mb_s", "MB/s", "higher", definition="payload bytes / collect p50"),
    _layer("msr.collect.chunks_p50_ms", "ms", definition="drain collect_state_chunks at the default chunk size"),
    _layer("msr.collect.first_ms", "ms", definition="first collect_state after compile (plan compile included)"),
    _layer("msr.collect.fast_block_share", "ratio", "higher", exact=True, definition="(n_flat + n_codec + n_plan blocks) / n_blocks of one collect"),
    _layer("msr.collect.default_recursion_ok", "count", "higher", exact=True, definition="1 if one migration succeeds at recursion limit 1000, else 0"),
    # msr.restore
    _layer("msr.restore.p50_ms", "ms", definition="restore_state into a fresh Process built outside the span"),
    _layer("msr.restore.us_per_block", "us", definition="restore p50 / blocks restored"),
    _layer("msr.restore.mb_s", "MB/s", "higher", definition="payload bytes / restore p50"),
    _layer("msr.restore.stream_p50_ms", "ms", definition="restore_state_stream over the drained chunks"),
    _layer("msr.restore.first_ms", "ms", definition="first restore_state on the destination arch after compile"),
    _layer("msr.restore.heap_allocs", "count", exact=True, definition="RestoreStats.n_heap_allocs of one restore"),
    # msr.wire
    _layer("msr.wire.payload_bytes", "B", exact=True, definition="len(collect_state payload)"),
    _layer("msr.wire.framing_bytes", "B", exact=True, definition="wire_bytes - payload bytes shipped (final stream and pre-copy rounds)"),
    _layer("msr.wire.chunk_encode_ms", "ms", definition="encode_chunk over the payload at the default chunk size"),
    _layer("msr.wire.chunk_decode_ms", "ms", definition="ChunkDecoder.decode over those frames"),
    _layer("msr.wire.crc_ms", "ms", definition="two zlib.crc32 passes over the payload (the monolithic path)"),
    _layer("msr.wire.deflate_ms", "ms", definition="compress_payload(payload)"),
    _layer("msr.wire.inflate_ms", "ms", definition="expand_payload of the result"),
    _layer("msr.wire.compress_ratio", "ratio", "higher", exact=True, definition="payload bytes / compressed bytes"),
    # migration.transport
    _layer("migration.transport.mem_roundtrip_ms", "ms", definition="Channel.send + recv of the payload"),
    _layer("migration.transport.socket_stream_ms", "ms", definition="send_chunk...end_stream from a feeder thread, iter_chunks on SocketChannel"),
    _layer("migration.transport.socket_mb_s", "MB/s", "higher", definition="payload bytes / socket_stream"),
    _layer("migration.transport.tx_model_10M_ms", "ms", definition="ETHERNET_10M.transfer_time(wire_bytes), MODELED"),
    _layer("migration.transport.tx_model_100M_ms", "ms", definition="ETHERNET_100M.transfer_time(wire_bytes), MODELED"),
    # migration.engine
    _layer("migration.engine.layers_sum_ms", "ms", definition="sum of the median self times of the decomposed layer spans"),
    _layer("migration.engine.residual_ms", "ms", definition="migrate wall p50 - layers_sum_ms (may be negative)"),
    _layer("migration.engine.residual_share", "ratio", definition="residual_ms / migrate wall p50"),
    _layer("migration.engine.first_migrate_ms", "ms", definition="the cold first migrate() after compile, one sample"),
    _layer("migration.engine.attempts", "count", exact=True, definition="max stats.attempts seen (must be 1)"),
    # migration.precopy
    _layer("migration.precopy.rounds", "count", exact=True, definition="stats.precopy_rounds (snapshot included)"),
    _layer("migration.precopy.round_bytes", "B", exact=True, definition="sum of stats.precopy_round_bytes"),
    _layer("migration.precopy.dirty_blocks", "count", exact=True, definition="stats.precopy_dirty_blocks"),
    _layer("migration.precopy.cached_blocks", "count", exact=True, definition="blocks the final stop-and-copy elided"),
    _layer("migration.precopy.phase_ms", "ms", definition="migrate wall p50 - downtime p50"),
    _layer("migration.precopy.wire_overhead_ratio", "ratio", exact=True, definition="wire_bytes / wire_bytes of a plain monolithic migration of the final state"),
    _layer("migration.precopy.degraded_share", "ratio", exact=True, definition="migrations with stats.precopy_degraded / migrations"),
    # migration.checkpoint
    _layer("migration.checkpoint.restart_ms", "ms", definition="restart(program, checkpoint, source_arch): the per-sample source rebuild"),
    # obs
    _layer("obs.attribution_overhead_ratio", "ratio", definition="migrate wall p50 with attribution=True / without, same mode, interleaved"),
    _layer("obs.attribution_wire_identical", "count", "higher", exact=True, definition="1 if both runs put the same bytes on the wire"),
    # harness
    _layer("harness.trace_overhead_pct", "%", definition="traced replay median vs the same replay with span recording off"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: source generator: linpack | bitonic | longlist | structgrid
    program: str
    #: generator size arguments (the seed is appended where the generator takes one)
    size: tuple
    #: the source stops at this poll-point (programs compile with poll_strategy="user")
    poll: int
    src: str
    dst: str
    #: keyword arguments of migrate(); "precopy_policy" holds PrecopyPolicy fields
    mode: dict = field(default_factory=dict)
    why: str = ""
    #: size/poll of the proxy the run-to-exit stdout check uses when the
    #: real tail takes minutes in the VM
    stdout_proxy: tuple | None = None
    #: the poll-point the migrated state must be at when migrate() lets the
    #: source run on (pre-copy slices); checked at set-up
    ends_at: int | None = None


_PRECOPY = {
    "streaming": True,
    "precopy": True,
    "precopy_policy": {"max_rounds": 4, "stop_dirty_blocks": 4, "slice_polls": 32},
}

WORKLOADS = (
    Workload(
        "linpack.mono", "linpack", (256,), 1, "dec5000", "sparc20", {},
        "few huge blocks: collect/restore run at memcpy speed, so CRC, payload "
        "copies, scratch Process construction and adopt are most of the wall",
        stdout_proxy=((48,), 1),
    ),
    Workload(
        "linpack.stream", "linpack", (256,), 1, "dec5000", "sparc20", {"streaming": True},
        "same bytes through the other transport discipline (chunk framing, per-chunk "
        "CRC, generator-driven feed): a gain for one discipline that costs the other shows here",
        stdout_proxy=((48,), 1),
    ),
    Workload(
        "bitonic.mono", "bitonic", (1000,), 1000, "alpha", "sparc20", {},
        "many small blocks in a pointer tree (LE64 to BE32): MSRLT lookup, per-cell "
        "encode, recursion and heap allocation dominate; ChainPlan declines",
    ),
    Workload(
        "longlist.mono", "longlist", (300,), 1, "sparc20", "x86_64", {},
        "deep irregular chain (widening, endianness reversed): recursion depth = "
        "list length, irregular strides by construction; ChainPlan probes and backs off",
    ),
    Workload(
        "structgrid.mono", "structgrid", (4096, 1024), 576, "dec5000", "sparc20", {},
        "struct codec, PtrArrayPlan and ChainPlan all engage; the stop-and-copy "
        "comparator of the next two rows (same final state)",
    ),
    Workload(
        "structgrid.attributed", "structgrid", (4096, 1024), 576, "dec5000", "sparc20",
        {"attribution": True},
        "observation on: today it drops graph plans and runs the per-cell path; "
        "structgrid.mono is the row that must not move when that is fixed",
    ),
    Workload(
        "structgrid.precopy", "structgrid", (4096, 1024), 416, "dec5000", "sparc20",
        _PRECOPY,
        "live migration with a non-converging writer (5 slices of 32 polls), ending in "
        "the structgrid.mono state: the only row where downtime differs from wall",
        ends_at=576,
    ),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; have {[w.name for w in WORKLOADS]}")


def spec_hash(workloads=WORKLOADS) -> str:
    """Digest of everything that makes two result files comparable: the
    workload table, the metric names and bounds, and the sampling rules."""
    doc = {
        "workloads": [asdict(w) for w in workloads],
        "end_to_end": [(m.name, m.unit, m.better, m.bound) for m in END_TO_END],
        "per_layer": [(m.name, m.unit, m.better) for m in PER_LAYER],
        "rules": [RECURSION_LIMIT, WARMUP_MIGRATIONS, MIN_SAMPLES, VERIFY_EVERY,
                  PROBE_REPEATS, SETUP_REPEATS, NOMINAL_CALIBRATION_US],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
