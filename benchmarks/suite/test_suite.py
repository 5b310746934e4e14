"""Self-tests of the benchmark harness.

Run explicitly (tier-1's ``testpaths`` stays ``tests``):

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import LOOPBACK, Channel
from repro.migration import SocketChannel
from repro.msr.msrlt import BlockKind

from benchmarks.suite import compare, harness, layers, measure, spec

REPO = Path(__file__).resolve().parents[2]

#: the seven workload definitions at sizes that run in milliseconds
TINY = {
    "linpack": dict(size=(12,), poll=1, stdout_proxy=None),
    "bitonic": dict(size=(40,), poll=40),
    "longlist": dict(size=(30,), poll=1),
    "structgrid": dict(size=(64, 256), poll=200),
}


def tiny(w: spec.Workload) -> spec.Workload:
    small = replace(w, **TINY[w.program])
    if w.ends_at is not None:
        # 5 slices of 32 polls, ending where the monolithic row stops
        small = replace(small, poll=40, ends_at=200)
    return small


@pytest.fixture(autouse=True)
def _restore_recursion_limit():
    limit = sys.getrecursionlimit()
    yield
    sys.setrecursionlimit(limit)


# -- percentile rule ------------------------------------------------------------


def test_p90_needs_a_hundred_samples_and_is_never_interpolated():
    assert measure.p90(list(range(99))) is None
    values = [float(v) for v in range(1, 101)]
    assert measure.p90(values) == 90.0  # nearest rank: ten samples lie beyond it
    assert measure.p90(values[::-1]) == 90.0
    assert measure.p50([3.0, 1.0, 2.0]) == 2.0


# -- span arithmetic ------------------------------------------------------------


def _span(span_id, parent_id, start, end, op_id=1):
    return {"name": f"s{span_id}", "span_id": span_id, "parent_id": parent_id,
            "op_id": op_id, "start_ns": start, "end_ns": end, "workload": "t"}


def test_self_time_is_duration_minus_the_union_of_children():
    spans = [_span(1, None, 0, 100), _span(2, 1, 10, 30), _span(3, 1, 20, 50), _span(4, 3, 25, 45)]
    selfs = measure.self_times_ns(spans)
    assert selfs == {1: 60, 2: 20, 3: 10, 4: 20}  # 2 and 3 overlap: 10..50 is covered once


def test_self_times_must_add_up_to_the_root():
    nested = [_span(1, None, 0, 100), _span(2, 1, 10, 40), _span(3, 1, 40, 90)]
    assert measure.check_self_times(nested) == []
    escaped = [_span(1, None, 0, 100), _span(2, 1, 90, 130)]  # child outlives its parent
    assert len(measure.check_self_times(escaped)) == 1


def test_recorder_nests_spans_and_records_nothing_when_disabled():
    rec = measure.Recorder("t")
    with rec.span("root"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
    with rec.span("root"):
        pass
    by_name = {s["name"]: s for s in rec.spans[:3]}
    assert by_name["a"]["parent_id"] == by_name["root"]["span_id"] == by_name["b"]["parent_id"]
    assert len({s["span_id"] for s in rec.spans}) == 4
    assert len({s["op_id"] for s in rec.spans}) == 2
    assert measure.check_self_times(rec.spans) == []
    rec.enabled = False
    with rec.span("root"):
        pass
    assert len(rec.spans) == 4


# -- wire byte counting ---------------------------------------------------------


def test_wire_bytes_counts_every_frame_once_on_both_channel_classes():
    totals = {}
    for cls in (Channel, SocketChannel):
        channel = cls(LOOPBACK)
        channel.send(b"x" * 100)
        channel.send_chunk(b"abc")
        channel.end_stream()
        totals[cls] = harness.wire_bytes(channel)
        assert channel.framed_bytes_sent > 0
        if cls is Channel:
            # frames ride send(): bytes_sent already holds them
            assert totals[cls] == channel.bytes_sent
        else:
            assert totals[cls] == channel.bytes_sent + channel.framed_bytes_sent
            channel.close()
    assert totals[Channel] == totals[SocketChannel]


# -- the spec -------------------------------------------------------------------


def test_spec_hash_is_stable_and_follows_the_workload_table():
    assert spec.spec_hash() == spec.spec_hash()
    resized = tuple(replace(w, size=(1,)) if w.name == "bitonic.mono" else w for w in spec.WORKLOADS)
    assert spec.spec_hash(resized) != spec.spec_hash()
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER] + [w.name for w in spec.WORKLOADS]
    assert len(names) == len(set(names))
    assert len(spec.WORKLOADS) == 7


def test_benchmark_json_agrees_with_the_spec():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/suite"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(w.name, w.why) for w in spec.WORKLOADS]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END if m.gated]
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER]
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in doc["end_to_end"])
               for m in doc["end_to_end"])


# -- all seven workload definitions, tiny, in process ----------------------------


@pytest.mark.parametrize("w", spec.WORKLOADS, ids=lambda w: w.name)
def test_tiny_pass_over_every_workload(w, tmp_path):
    small = tiny(w)
    out = harness.run_end_to_end(small, seed=3, seconds=0.0, min_samples=3, setup_repeats=1)
    # one set-up, the stdout check, and each of the 3 samples booked exactly once
    assert out.problems == [] and out.failed == 0 and out.attempted == 5
    assert set(out.metrics) == {m.name for m in spec.END_TO_END}
    assert out.metrics.pop("migrate_wall_p90_ms") is None  # 3 samples: omitted, not interpolated
    assert out.metrics.pop("failed_share") == 0.0
    assert all(v > 0 for v in out.metrics.values())
    if w.mode.get("precopy"):
        assert out.metrics["downtime_p50_ms"] < out.metrics["migrate_wall_p50_ms"]
        assert out.metrics["downtime_wire_bytes"] < out.metrics["wire_bytes"]
    else:
        assert out.metrics["downtime_p50_ms"] == out.metrics["migrate_wall_p50_ms"]

    spans = tmp_path / "spans.jsonl"
    traced = layers.run_traced(small, seed=3, seconds=0.0, spans_path=spans, repeats=2)
    assert traced.problems == [] and traced.failed == 0
    assert set(traced.metrics) == {m.name for m in spec.PER_LAYER}
    assert traced.detail["null_reasons"] == {}
    assert all(v is not None for v in traced.metrics.values())
    m = traced.metrics
    assert m["migration.engine.attempts"] == 1
    assert m["migration.engine.layers_sum_ms"] + m["migration.engine.residual_ms"] == pytest.approx(
        traced.detail["migrate_wall_p50_ms"])
    assert m["obs.attribution_wire_identical"] == 1
    assert (m["migration.precopy.rounds"] > 0) == bool(w.mode.get("precopy"))
    recorded = [json.loads(line) for line in spans.read_text().splitlines()]
    assert len(recorded) == traced.detail["spans"]
    assert measure.check_self_times(recorded) == []
    roots = {s["name"] for s in recorded if s["parent_id"] is None}
    assert layers.ROOT in roots


def test_a_probe_whose_entry_point_is_gone_reports_null_and_does_not_fail(monkeypatch):
    real = layers.entry

    def entry(module, name):
        if name in ("encode_chunk", "restore_state_stream"):
            raise layers.MissingEntryPoint(f"{module}.{name} is gone")
        return real(module, name)

    monkeypatch.setattr(layers, "entry", entry)
    w = tiny(spec.workload("linpack.stream"))
    out = layers.run_traced(w, seed=3, seconds=0.0, repeats=2)
    assert out.problems == []
    assert out.metrics["msr.wire.chunk_encode_ms"] is None
    assert out.metrics["msr.restore.stream_p50_ms"] is None
    assert out.metrics["msr.collect.p50_ms"] is not None  # its own entry point is still there
    assert out.metrics["migration.engine.layers_sum_ms"] is not None  # fell back to the engine's stats
    assert set(out.detail["null_reasons"]) >= {"replay", "probe_wire", "probe_restore_stream"}


# -- the oracle can fail --------------------------------------------------------


@pytest.fixture()
def grid():
    prep, oracle, first, problems = harness.set_up(tiny(spec.workload("structgrid.mono")), seed=3)
    assert problems == []
    return prep, oracle


def _grid_block(proc):
    idx = next(i for i, g in enumerate(proc.program.globals) if g.name == "grid")
    return proc.msrlt.lookup_logical((BlockKind.GLOBAL, idx, 0))


def test_oracle_accepts_a_correct_migration(grid):
    prep, oracle = grid
    assert oracle.check_state(harness.migrate_once(prep).dest) == []
    problems, _ = harness.check_resumed(harness.migrate_once(prep).dest, harness.expected_output(prep))
    assert problems == []


def test_round_trip_check_fires_on_one_flipped_payload_byte(grid):
    prep, oracle = grid
    payload = bytearray(oracle.payload)
    payload[len(payload) // 2] ^= 0x01
    oracle.payload = bytes(payload)
    problems = oracle.check_state(harness.migrate_once(prep).dest)
    assert len(problems) == 1 and "round trip" in problems[0]


def test_fingerprint_check_fires_on_one_swapped_restored_cell(grid):
    prep, oracle = grid
    dest = harness.migrate_once(prep).dest
    block = _grid_block(dest)
    dest.memory.store("double", block.addr, 1000.0)  # grid[0].value was 0.0
    problems = oracle.check_state(dest)
    assert any("fingerprint" in p for p in problems)
    assert any("round trip" in p for p in problems)


def test_stdout_check_fires_on_one_swapped_restored_cell(grid):
    prep, _ = grid
    dest = harness.migrate_once(prep).dest
    dest.memory.store("double", _grid_block(dest).addr, 1000.0)  # hot[0] reads it
    problems, _ = harness.check_resumed(dest, harness.expected_output(prep))
    assert len(problems) == 1 and "never-migrated output" in problems[0]


# -- compare --------------------------------------------------------------------


def _result(wall, wire=1000, sets=1, spec_hash="h"):
    row = {"end_to_end": {m.name: 1.0 for m in spec.END_TO_END}, "per_layer": {}}
    row["end_to_end"].update(failed_share=0.0, wire_bytes=wire)
    rows = []
    for k in range(sets):
        one = json.loads(json.dumps(row))
        one["end_to_end"]["migrate_wall_p50_ms"] = wall[k] if isinstance(wall, list) else wall
        rows.append({"w": one})
    return {"header": {"commit": "c", "spec_hash": spec_hash}, "sets": rows}


def _wall_line(lines):
    return next(l for l in lines if "migrate_wall_p50_ms" in l)


def test_compare_verdicts_follow_the_bounds():
    edge = 10.0 * (1 + next(m.bound for m in spec.END_TO_END if m.name == "migrate_wall_p50_ms"))
    lines, regressions = compare.compare(_result(10.0), _result(edge - 0.1))
    assert regressions == 0
    lines, regressions = compare.compare(_result(10.0), _result(edge + 0.1))
    assert regressions == 1 and "regressed" in _wall_line(lines)
    # better is never a regression, whatever the size of the change
    assert compare.compare(_result(10.0), _result(5.0))[1] == 0
    # a count inside its 1 % bound is ok but reported as changed
    lines, regressions = compare.compare(_result(10.0), _result(10.0, wire=1001))
    assert regressions == 0 and any("wire_bytes" in l and "changed" in l for l in lines)
    assert compare.compare(_result(10.0), _result(10.0, wire=1011))[1] == 1


def test_compare_reports_unresolved_when_the_spread_exceeds_the_bound():
    noisy_a = _result([10.0, 14.0, 9.0, 13.0], sets=4)
    noisy_b = _result([11.0, 15.0, 10.0, 14.5], sets=4)
    lines, regressions = compare.compare(noisy_a, noisy_b)
    assert regressions == 0 and "unresolved" in _wall_line(lines)
    # every B run beats every A run: resolved, and ok
    lines, regressions = compare.compare(noisy_a, _result([5.0, 6.0, 5.5, 5.2], sets=4))
    assert regressions == 0 and " ok" in _wall_line(lines)


def test_compare_does_not_let_the_spread_hide_a_clean_loss():
    noisy_a = _result([10.0, 14.0, 9.0, 13.0], sets=4)
    # every B run is worse than every A run, by far more than the bound
    lines, regressions = compare.compare(noisy_a, _result([50.0, 70.0, 45.0, 65.0], sets=4))
    assert regressions == 1 and "regressed" in _wall_line(lines)
    # every B run worse, but the medians within the bound: still only noise
    noisy_a = _result([10.0, 11.9, 8.0, 11.5], sets=4)
    lines, regressions = compare.compare(noisy_a, _result([12.0, 12.1, 12.2, 12.3], sets=4))
    assert regressions == 0 and "unresolved" in _wall_line(lines)


def test_compare_counts_what_b_lost_as_a_regression():
    a, b = _result(10.0), _result(10.0)
    b["sets"][0]["w"]["end_to_end"]["migrate_wall_p50_ms"] = None
    lines, regressions = compare.compare(a, b)
    assert regressions == 1 and "missing in B" in _wall_line(lines)
    # the other way round nothing got worse
    lines, regressions = compare.compare(b, a)
    assert regressions == 0 and "not measured in A" in _wall_line(lines)
    b["sets"][0] = {"other": b["sets"][0]["w"]}
    lines, regressions = compare.compare(a, b)
    assert regressions == 1 and any(l.startswith("w:") and "missing in B" in l for l in lines)


def test_compare_refuses_files_with_different_spec_hashes():
    with pytest.raises(ValueError, match="spec_hash"):
        compare.compare(_result(1.0, spec_hash="a"), _result(1.0, spec_hash="b"))
