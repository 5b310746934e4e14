"""CI perf-regression gate: compare a fresh ``bench_precopy`` run against
the committed baseline.

    python benchmarks/check_perf_regression.py BENCH_SMOKE.json \
        --precopy-baseline BENCH_PR9.json [--threshold 0.20] [--floor-ms 5]

Compares the ``precopy`` section (stop-and-copy downtime) row-by-row
(keyed on workload + size): a row regresses when its measured downtime
exceeds the baseline by more than ``--threshold`` (relative) AND
``--floor-ms`` (absolute — sub-floor deltas on millisecond-scale smoke
rows are timer noise, not regressions).  Rows present on only one side
and runs in a different mode are reported and skipped, never failed:
the gate judges comparable work only.  Exits 1 when any comparable row
regresses, else 0.

Collect/restore speed and plans-on/off byte identity are not gated
here: the rows are ``benchmarks/suite`` (compared interleaved, see
BENCHMARK.json) and the identity check is tier-1
(``tests/test_difftest_corpus.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SECTION = "precopy"
FIELD = "downtime_precopy_s"


def _load(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read bench file ({exc})")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: bench file is not a JSON object")
    return data


def _rows(data: dict) -> dict[tuple, dict]:
    block = data.get(SECTION)
    if not isinstance(block, dict):
        return {}
    out = {}
    for row in block.get("rows", []):
        if isinstance(row, dict) and "workload" in row:
            # sizes are ints or [rows, cols] lists
            out[(row["workload"], json.dumps(row.get("size")))] = row
    return out


def check(candidate: dict, baseline: dict, threshold: float,
          floor_s: float) -> tuple[list[str], list[str]]:
    """Gate *candidate*'s pre-copy downtime rows against *baseline*.

    Returns (failures, notes)."""
    failures: list[str] = []
    notes: list[str] = []
    cand_rows = _rows(candidate)
    base_rows = _rows(baseline)
    if not base_rows:
        notes.append(f"baseline has no {SECTION} section - nothing to gate")
        return failures, notes
    if not cand_rows:
        failures.append(f"candidate has no {SECTION} section - did the bench run?")
        return failures, notes

    cand_mode = candidate.get(SECTION, {}).get("mode")
    base_mode = baseline.get(SECTION, {}).get("mode")
    if cand_mode != base_mode:
        notes.append(
            f"{SECTION}: mode mismatch (candidate {cand_mode!r} vs baseline "
            f"{base_mode!r}) - sizes differ, skipping the gate"
        )
        return failures, notes

    for key in sorted(base_rows):
        workload, size = key
        cand = cand_rows.get(key)
        if cand is None:
            notes.append(f"{workload} {size}: missing from candidate, skipped")
            continue
        base_t = base_rows[key].get(FIELD)
        cand_t = cand.get(FIELD)
        if not all(isinstance(t, (int, float)) for t in (base_t, cand_t)) or base_t <= 0.0:
            notes.append(f"{workload} {size}: not comparable, skipped")
            continue
        ratio = cand_t / base_t
        line = (
            f"{workload:10s} {size:>12s}  downtime "
            f"{base_t * 1e3:8.2f} -> {cand_t * 1e3:8.2f} ms "
            f"({ratio:5.2f}x)"
        )
        if ratio > 1.0 + threshold and cand_t - base_t > floor_s:
            failures.append(
                f"{line}  REGRESSION (> {threshold:.0%} and "
                f"> {floor_s * 1e3:.0f} ms over baseline)"
            )
        else:
            notes.append(f"{line}  ok")
    return failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("candidate", help="fresh bench JSON (BENCH_SMOKE.json)")
    parser.add_argument("--precopy-baseline", default="BENCH_PR9.json",
                        help="committed pre-copy downtime baseline bench JSON")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative regression threshold (default 0.20)")
    parser.add_argument("--floor-ms", type=float, default=5.0,
                        help="absolute noise floor in ms (default 5)")
    args = parser.parse_args(argv)

    failures, notes = check(
        _load(args.candidate), _load(args.precopy_baseline),
        threshold=args.threshold, floor_s=args.floor_ms / 1e3,
    )
    for note in notes:
        print(note)
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        print(
            f"{len(failures)} perf failure(s) vs {args.precopy_baseline}",
            file=sys.stderr,
        )
        return 1
    print(f"perf gate passed vs {args.precopy_baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
