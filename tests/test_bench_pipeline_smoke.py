"""Tier-1 guard for the streaming perf claim: ``bench_pipeline --smoke``
must show streamed response time strictly below monolithic
(Collect + Tx + Restore) for linpack N >= 200 over the modeled 10 Mb/s
Ethernet, and must leave machine-readable results in the bench JSON it
is pointed at (a temporary file here: tier-1 leaves the tree clean)."""

import json

import pytest

from benchmarks import bench_pipeline


@pytest.fixture(scope="module")
def smoke_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_SMOKE.json"
    assert bench_pipeline.main(["--smoke", "--out", str(out)]) == 0
    return {(r["workload"], r["n"]): r for r in json.loads(out.read_text())["pipeline"]["rows"]}


class TestPipelineSmoke:
    def test_linpack_streaming_beats_monolithic(self, smoke_rows):
        row = smoke_rows[("linpack", bench_pipeline.SMOKE_LINPACK[0])]
        assert bench_pipeline.SMOKE_LINPACK[0] >= 200
        assert row["link"] == "ethernet-10M"
        assert row["n_chunks"] >= 2
        assert row["streamed_s"] < row["monolithic_s"]

    def test_bitonic_streaming_beats_monolithic(self, smoke_rows):
        row = smoke_rows[("bitonic", bench_pipeline.SMOKE_BITONIC[0])]
        assert row["streamed_s"] < row["monolithic_s"]

    def test_json_has_both_numbers(self, smoke_rows):
        for row in smoke_rows.values():
            assert row["monolithic_s"] > 0
            assert row["streamed_s"] > 0
            assert 0.0 <= row["overlap_ratio"] < 1.0
