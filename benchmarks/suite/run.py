"""One workload, one run, one interpreter: the entry ``BENCHMARK.json`` names.

    python3 benchmarks/suite/run.py --workload bitonic.mono --seed 7 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no span recorded anywhere;
``--trace 1`` is the separate traced run that yields the per-layer metrics.
The last line of standard output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the metrics
``BENCHMARK.json`` lists); the line before it (``suite-detail``) carries what
``python -m benchmarks.suite run`` prints besides: sample counts, problems,
and the metrics the PR driver does not gate on.  Nothing is written to disk unless ``--spans`` is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1: append the recorded spans to PATH as JSONL")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {REPO / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(REPO)]

    from benchmarks.suite import spec

    try:
        w = spec.workload(args.workload)
    except KeyError as exc:
        print(f"run.py: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.trace:
        from benchmarks.suite.layers import run_traced

        out = run_traced(w, args.seed, args.seconds, spans_path=args.spans)
        table = spec.PER_LAYER
    else:
        from benchmarks.suite.harness import run_end_to_end

        out = run_end_to_end(w, args.seed, args.seconds)
        table = spec.END_TO_END

    for problem in out.problems:
        print(f"run.py: {w.name}: {problem}", file=sys.stderr)
    if not out.metrics:
        print(f"run.py: {w.name}: no migration succeeded, nothing to report", file=sys.stderr)
        return 1
    print("suite-detail " + json.dumps({
        "workload": w.name, "trace": args.trace, "problems": out.problems, **out.detail,
        "ungated": {m.name: out.metrics[m.name] for m in table if not m.gated},
    }))
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m.name: {"value": out.metrics[m.name], "unit": m.unit}
                    for m in table if m.gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
