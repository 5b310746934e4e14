"""The traced run: per-layer metrics, timed from outside.

Layers are the repo's modules.  Every number here comes from calling a
public function on the workload's own state inside a harness-side span;
nothing inside ``src/`` is instrumented or switched.  A probe whose entry
point has gone (a later refactor renamed or removed it) reports ``None``
with a reason and never fails the run.
"""

from __future__ import annotations

import gc
import importlib
import random
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro import (
    ETHERNET_10M,
    ETHERNET_100M,
    LOOPBACK,
    Channel,
    MigrationEngine,
    Process,
    checkpoint,
    collect_state,
    compile_program,
    restart,
)
from repro.migration import MigrationError, SocketChannel

from benchmarks.suite import measure
from benchmarks.suite.harness import (
    Outcome,
    Prepared,
    migrate_once,
    sample_checks,
    set_up,
    source_text,
    stdout_oracle,
)
from benchmarks.suite.spec import PER_LAYER, PROBE_REPEATS, RECURSION_LIMIT, Workload

ROOT = "migrate.decomposed"
ENGINE = "repro.migration.engine"


class MissingEntryPoint(Exception):
    """A public function a probe calls no longer exists."""


def entry(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise MissingEntryPoint(f"{module}.{name} is gone: {exc}") from None


# -- the migration replayed by hand ---------------------------------------------


def replay_monolithic(prep: Prepared, rec: measure.Recorder, source: Process) -> Process:
    """The serial discipline through the layer calls ``migrate()`` makes:
    build the destination and scratch processes, collect, CRC, send, recv,
    CRC check, restore.  Returns the restored process."""
    restore_state = entry(ENGINE, "restore_state")
    channel = Channel(LOOPBACK)
    with rec.span(ROOT):
        with rec.span("vm.process_init"):
            prep.new_dest()
            scratch = prep.new_dest()
        with rec.span("msr.collect"):
            payload, _ = collect_state(source)
        with rec.span("msr.wire.encode"):
            crc = zlib.crc32(payload)
        with rec.span("migration.transport.send"):
            channel.send(payload)
        with rec.span("migration.transport.recv"):
            received = channel.recv()
        with rec.span("msr.wire.decode"):
            if zlib.crc32(received) != crc:
                raise RuntimeError("replayed payload damaged in transit")
        with rec.span("msr.restore"):
            restore_state(prep.program, received, scratch)
    return scratch


def ship_chunks(channel, chunks) -> list:
    """``send_chunk``… ``end_stream``, then ``iter_chunks`` (frame encode and
    decode happen inside those calls); returns the received chunk payloads.
    A channel whose writes block until drained (``concurrent_stream``: the
    socket) is fed from a thread while this one drains, as the engine does."""

    def feed():
        for chunk in chunks:
            channel.send_chunk(chunk)
        channel.end_stream()

    if not channel.concurrent_stream:
        feed()
        return list(channel.iter_chunks())

    errors = []

    def guarded_feed():
        try:
            feed()
        except Exception as exc:  # noqa: BLE001 - re-raised on the consuming thread
            errors.append(exc)
            channel.abort_stream()

    feeder = threading.Thread(target=guarded_feed, name="suite-feeder")
    feeder.start()
    try:
        received = list(channel.iter_chunks())
    finally:
        feeder.join()
    if errors:
        raise errors[0]
    return received


def replay_streaming(prep: Prepared, rec: measure.Recorder, source: Process) -> Process:
    """The streamed discipline, stage by stage instead of interleaved: drain
    the chunked collector, move the chunks through the channel, restore
    from the received stream."""
    collect_state_chunks = entry(ENGINE, "collect_state_chunks")
    restore_state_stream = entry(ENGINE, "restore_state_stream")
    channel = Channel(LOOPBACK)
    with rec.span(ROOT):
        with rec.span("vm.process_init"):
            prep.new_dest()
            scratch = prep.new_dest()
        with rec.span("msr.collect.chunks"):
            chunks = list(collect_state_chunks(source))
        with rec.span("migration.transport.stream"):
            received = ship_chunks(channel, chunks)
        with rec.span("msr.restore.stream"):
            restore_state_stream(prep.program, iter(received), scratch)
    return scratch


def replay_engine(prep: Prepared, rec: measure.Recorder, source: Process) -> Process:
    """Pre-copy cannot be replayed from outside (the rounds interleave with
    VM slices inside ``migrate()``); its spans are the call itself and its
    layer split comes from the returned stats."""
    with rec.span(ROOT):
        with rec.span("migration.engine.migrate"):
            return migrate_once(prep, source).dest


def replay_for(w: Workload):
    if w.mode.get("precopy"):
        return replay_engine
    return replay_streaming if w.mode.get("streaming") else replay_monolithic


# -- probes -----------------------------------------------------------------------


def probe(rec: measure.Recorder, name: str, fn, setup=None, repeats: int = PROBE_REPEATS) -> float:
    """Median milliseconds of *fn* over *repeats* root spans named *name*;
    *setup* builds the argument outside the span."""
    for _ in range(repeats):
        arg = setup() if setup else None
        gc.collect()
        with rec.span(name):
            fn(arg) if setup else fn()
    return layer_ms(rec, name)


def layer_ms(rec: measure.Recorder, name: str) -> float:
    """Median duration of every span called *name*, replayed or probed."""
    return measure.p50(rec.durations_ms(name))


def probe_collect(rec, source, payload, done: set) -> dict:
    if "msr.collect" not in done:  # else the replay's spans are the samples
        probe(rec, "msr.collect", lambda: collect_state(source))
    ms = layer_ms(rec, "msr.collect")
    _, cinfo = collect_state(source)
    return {
        "msr.collect.p50_ms": ms,
        "msr.collect.us_per_block": ms * 1e3 / cinfo.stats.n_blocks,
        "msr.collect.mb_s": len(payload) / 1e6 / (ms / 1e3),
    }


def probe_collect_chunks(rec, source, done: set) -> dict:
    if "msr.collect.chunks" not in done:
        chunks_of = entry(ENGINE, "collect_state_chunks")
        probe(rec, "msr.collect.chunks", lambda: [None for _ in chunks_of(source)])
    return {"msr.collect.chunks_p50_ms": layer_ms(rec, "msr.collect.chunks")}


def probe_restore(prep, rec, payload, done: set) -> dict:
    restore_state = entry(ENGINE, "restore_state")
    if "msr.restore" not in done:
        probe(rec, "msr.restore", lambda p: restore_state(prep.program, payload, p),
              prep.new_dest)
    ms = layer_ms(rec, "msr.restore")
    rinfo = restore_state(prep.program, payload, prep.new_dest())
    return {
        "msr.restore.p50_ms": ms,
        "msr.restore.us_per_block": ms * 1e3 / rinfo.stats.n_blocks,
        "msr.restore.mb_s": len(payload) / 1e6 / (ms / 1e3),
        "msr.restore.heap_allocs": rinfo.stats.n_heap_allocs,
    }


def probe_restore_stream(prep, rec, source, done: set) -> dict:
    if "msr.restore.stream" not in done:
        restore_stream = entry(ENGINE, "restore_state_stream")
        chunks = list(entry(ENGINE, "collect_state_chunks")(source))
        probe(rec, "msr.restore.stream",
              lambda p: restore_stream(prep.program, iter(chunks), p), prep.new_dest)
    return {"msr.restore.stream_p50_ms": layer_ms(rec, "msr.restore.stream")}


def probe_collect_counts(source) -> dict:
    """Exact counts of one ``collect_state``: MSRLT searches, cache hits,
    and the share of blocks that took a bulk path."""
    table = source.msrlt
    searches, hits = table.n_searches, table.n_cache_hits
    _, cinfo = collect_state(source)
    searches, hits = table.n_searches - searches, table.n_cache_hits - hits
    st = cinfo.stats
    return {
        "msr.msrlt.searches_per_collect": searches,
        "msr.msrlt.cache_hit_ratio": hits / searches if searches else 0.0,
        "msr.collect.fast_block_share":
            (st.n_flat_blocks + st.n_codec_blocks + st.n_plan_blocks) / st.n_blocks,
    }


def probe_msrlt(rec, source, seed: int) -> dict:
    blocks = source.msrlt.blocks()
    addrs = [a for b in blocks for a in (b.addr, b.addr + b.size // 2)]
    random.Random(seed).shuffle(addrs)
    lookup = source.msrlt.lookup_addr

    def sweep():
        for a in addrs:
            lookup(a)

    ms = probe(rec, "msr.msrlt.lookup", sweep)
    return {"msr.msrlt.blocks": len(blocks), "msr.msrlt.lookup_us": ms * 1e3 / len(addrs)}


def default_chunks(payload) -> list:
    """*payload* cut at the engine's default chunk size, without copying."""
    size = entry(ENGINE, "DEFAULT_CHUNK_SIZE")
    view = memoryview(payload)
    return [view[i:i + size] for i in range(0, len(view), size)]


def probe_wire(rec, payload) -> dict:
    wire = "repro.msr.wire"
    encode_chunk = entry(wire, "encode_chunk")
    decoder = entry(wire, "ChunkDecoder")
    compress, expand = entry(wire, "compress_payload"), entry(wire, "expand_payload")
    pieces = default_chunks(payload)

    def encode():
        return [encode_chunk(seq, piece) for seq, piece in enumerate(pieces)]

    frames = encode()

    def decode():
        dec = decoder()
        for frame in frames:
            dec.decode(frame)

    packed = compress(payload)
    return {
        "msr.wire.chunk_encode_ms": probe(rec, "msr.wire.chunk_encode", encode),
        "msr.wire.chunk_decode_ms": probe(rec, "msr.wire.chunk_decode", decode),
        "msr.wire.crc_ms": probe(rec, "msr.wire.crc",
                                 lambda: (zlib.crc32(payload), zlib.crc32(payload))),
        "msr.wire.deflate_ms": probe(rec, "msr.wire.deflate", lambda: compress(payload)),
        "msr.wire.inflate_ms": probe(rec, "msr.wire.inflate", lambda: expand(packed)),
        "msr.wire.compress_ratio": len(payload) / len(packed),
    }


def probe_transport(rec, payload) -> dict:
    pieces = default_chunks(payload)

    def roundtrip():
        channel = Channel(LOOPBACK)
        channel.send(payload)
        channel.recv()

    def socket_stream():
        channel = SocketChannel(LOOPBACK)
        try:
            ship_chunks(channel, pieces)
        finally:
            channel.close()

    stream_ms = probe(rec, "migration.transport.socket_stream", socket_stream)
    return {
        "migration.transport.mem_roundtrip_ms":
            probe(rec, "migration.transport.mem_roundtrip", roundtrip),
        "migration.transport.socket_stream_ms": stream_ms,
        "migration.transport.socket_mb_s": len(payload) / 1e6 / (stream_ms / 1e3),
    }


def probe_default_recursion(prep) -> dict:
    """One untimed migration at the interpreter's default recursion limit."""
    source = prep.new_source()
    sys.setrecursionlimit(1000)
    try:
        migrate_once(prep, source)
        ok = 1
    except (RecursionError, MigrationError):
        ok = 0
    finally:
        sys.setrecursionlimit(RECURSION_LIMIT)
    return {"msr.collect.default_recursion_ok": ok}


def probe_cold_restore(prep, seed: int) -> dict:
    """First ``restore_state`` on the destination arch: a second compile of
    the same source has cold plan caches, and the payload restores into it."""
    restore_state = entry(ENGINE, "restore_state")
    w = prep.workload
    twin = compile_program(source_text(w.program, w.size, seed), poll_strategy="user")
    proc = Process(twin, prep.dst_arch)
    t0 = time.perf_counter_ns()
    restore_state(twin, prep.ckpt.payload, proc)
    return {"msr.restore.first_ms": (time.perf_counter_ns() - t0) / 1e6}


def precopy_counts(own, oracle, prep) -> dict:
    """Exact pre-copy counts from the returned stats (all 0 on the
    stop-and-copy rows), and the wire cost against a plain monolithic
    migration of the state the workload ends in (1.0 on those rows)."""
    st = own.stats
    plain = Channel(LOOPBACK)
    final = restart(prep.program, checkpoint(oracle.reference), prep.src_arch)
    MigrationEngine().migrate(final, prep.dst_arch, channel=plain)
    return {
        "migration.precopy.rounds": st.precopy_rounds,
        "migration.precopy.round_bytes": sum(st.precopy_round_bytes),
        "migration.precopy.dirty_blocks": st.precopy_dirty_blocks,
        "migration.precopy.cached_blocks": st.obs.metrics.counter("precopy.cached_blocks"),
        "migration.precopy.wire_overhead_ratio": own.wire_bytes / plain.bytes_sent,
    }


# -- the traced run ---------------------------------------------------------------


@dataclass
class Rounds:
    """What the interleaved loop of a traced run collected."""

    #: migrate() walls by ``attribution`` flag
    walls: dict = field(default_factory=lambda: {False: [], True: []})
    #: the first sample by ``attribution`` flag
    firsts: dict = field(default_factory=dict)
    #: replay walls by "span recording on"
    replay_ms: dict = field(default_factory=lambda: {False: [], True: []})
    restart_ms: list = field(default_factory=list)
    # of the samples in the workload's own mode:
    downs: list = field(default_factory=list)
    attempts: list = field(default_factory=list)
    degraded: list = field(default_factory=list)
    #: collect + restore + pre-copy round seconds the engine reported, in ms
    stats_layers_ms: list = field(default_factory=list)


def interleave(prep, oracle, first, rec, replay, out, seconds, repeats) -> Rounds:
    """One loop, so every ratio is between numbers measured side by side:
    an engine migration without and with ``attribution=True``, then the
    replay with span recording on and off (which side goes first alternates)."""
    r = Rounds()
    own_mode = prep.attributed

    def fresh_source():
        t0 = time.perf_counter_ns()
        source = prep.new_source()
        r.restart_ms.append((time.perf_counter_ns() - t0) / 1e6)
        return source

    deadline = time.perf_counter() + seconds
    i = 0
    while i < repeats or time.perf_counter() < deadline:
        for attribution in (False, True):
            s = migrate_once(prep, fresh_source(), attribution=attribution)
            r.walls[attribution].append(s.wall_ms)
            if attribution == own_mode:
                r.downs.append(s.downtime_ms)
                r.attempts.append(s.stats.attempts)
                r.degraded.append(bool(s.stats.precopy_degraded))
                r.stats_layers_ms.append(
                    (s.stats.precopy_codec_time + s.stats.collect_time + s.stats.restore_time) * 1e3)
            problems = sample_checks(s, first)
            if i == 0:
                r.firsts[attribution] = s
                problems += oracle.check_state(s.dest)
            out.note(problems)
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            source = fresh_source()
            rec.enabled = traced
            gc.collect()
            t0 = time.perf_counter_ns()
            try:
                replay(prep, rec, source)
            finally:
                rec.enabled = True
            r.replay_ms[traced].append((time.perf_counter_ns() - t0) / 1e6)
        i += 1
    return r


def run_traced(w: Workload, seed: int, seconds: float, spans_path=None,
               repeats: int = PROBE_REPEATS) -> Outcome:
    """Per-layer metrics for one workload: set up and verify as the
    end-to-end run does, interleave engine migrations with the replay for
    *seconds* (at least *repeats* rounds), then run the remaining probes
    *repeats* times each."""
    sys.setrecursionlimit(RECURSION_LIMIT)
    out = Outcome()
    rec = measure.Recorder(w.name)
    metrics: dict = {m.name: None for m in PER_LAYER}
    reasons: dict = {}

    def group(fn, *args):
        try:
            metrics.update(fn(*args))
        except (MissingEntryPoint, AttributeError) as exc:
            reasons[fn.__name__] = str(exc)

    prep, oracle, first, problems = set_up(w, seed)
    out.note(problems)
    metrics.update(prep.timings)
    metrics["migration.engine.first_migrate_ms"] = first.wall_ms
    problems, metrics["vm.resume_s"] = stdout_oracle(w, seed, prep)
    out.note(problems)

    # the replay is verified once, untimed, before it is trusted as a ruler
    replay = replay_for(w)
    rec.enabled = False
    try:
        out.note(oracle.check_state(replay(prep, rec, prep.new_source())))
    except MissingEntryPoint as exc:
        reasons["replay"] = str(exc)
        replay = replay_engine
    finally:
        rec.enabled = True

    r = interleave(prep, oracle, first, rec, replay, out, seconds, repeats)
    out.note(measure.check_self_times(rec.spans)[:3])

    own = r.firsts[prep.attributed]
    wall = measure.p50(r.walls[prep.attributed])
    replayed = {s["name"] for s in rec.spans if s["parent_id"] is not None}
    if replay is replay_engine:
        layers_sum = measure.p50(r.stats_layers_ms)
    else:
        layers_sum = sum(layer_ms(rec, name) for name in replayed)
    traced_ms, untraced_ms = measure.p50(r.replay_ms[True]), measure.p50(r.replay_ms[False])
    plain, attributed = r.firsts[False], r.firsts[True]
    metrics.update({
        "migration.engine.layers_sum_ms": layers_sum,
        "migration.engine.residual_ms": wall - layers_sum,
        "migration.engine.residual_share": (wall - layers_sum) / wall,
        "migration.engine.attempts": max(r.attempts),
        "migration.checkpoint.restart_ms": measure.p50(r.restart_ms),
        "harness.trace_overhead_pct": (traced_ms - untraced_ms) / untraced_ms * 100.0,
        "obs.attribution_overhead_ratio": measure.p50(r.walls[True]) / measure.p50(r.walls[False]),
        "obs.attribution_wire_identical": int(
            (plain.wire_bytes, plain.stats.payload_bytes)
            == (attributed.wire_bytes, attributed.stats.payload_bytes)),
        "migration.precopy.phase_ms": wall - measure.p50(r.downs),
        "migration.precopy.degraded_share": sum(r.degraded) / len(r.degraded),
        "migration.transport.tx_model_10M_ms": ETHERNET_10M.transfer_time(own.wire_bytes) * 1e3,
        "migration.transport.tx_model_100M_ms": ETHERNET_100M.transfer_time(own.wire_bytes) * 1e3,
        "msr.wire.payload_bytes": len(prep.ckpt.payload),
        "msr.wire.framing_bytes":
            own.wire_bytes - own.stats.payload_bytes - own.stats.precopy_bytes,
    })
    group(precopy_counts, own, oracle, prep)

    source = prep.new_source()
    payload = prep.ckpt.payload
    metrics["vm.process_init_ms"] = probe(rec, "vm.process_init.single", prep.new_dest)
    group(probe_collect, rec, source, payload, replayed)
    group(probe_collect_chunks, rec, source, replayed)
    group(probe_restore, prep, rec, payload, replayed)
    group(probe_restore_stream, prep, rec, source, replayed)
    group(probe_collect_counts, source)
    group(probe_msrlt, rec, source, seed)
    group(probe_wire, rec, payload)
    group(probe_transport, rec, payload)
    group(probe_default_recursion, prep)
    group(probe_cold_restore, prep, seed)

    out.metrics = metrics
    out.detail = {"n": len(r.downs), "spans": len(rec.spans), "null_reasons": reasons,
                  "migrate_wall_p50_ms": wall}
    if spans_path is not None:
        rec.append_jsonl(spans_path)
    return out
