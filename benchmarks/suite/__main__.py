"""``python -m benchmarks.suite run|compare`` — see README.md in this directory."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from benchmarks.suite import compare, spec

RUN_PY = Path(__file__).with_name("run.py")


def header(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=RUN_PY.parent,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "recursion_limit": spec.RECURSION_LIMIT,
        "spec_hash": spec.spec_hash(),
    }


def child(name: str, seed: int, seconds: float, trace: int, spans: str | None) -> tuple[dict, dict]:
    """Run one workload in its own fresh interpreter (GC debris and warm
    caches of one workload must not reach the next); returns the result
    line and the detail line of ``run.py``."""
    cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans and trace:
        cmd += ["--spans", spans]
    done = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace {trace}) exited with status {done.returncode}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("suite-detail "))


def fmt(value) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: float, spans: str | None) -> dict:
    e2e, e2e_detail = child(name, seed, seconds, 0, None)
    layer, layer_detail = child(name, seed, seconds, 1, spans)
    row = {
        "n": e2e_detail["n"],
        "attempted": e2e["attempted"] + layer["attempted"],
        "failed": e2e["failed"] + layer["failed"],
        "correct": e2e["correct"] and layer["correct"],
        "problems": e2e_detail["problems"] + layer_detail["problems"],
        "end_to_end": {**{k: v["value"] for k, v in e2e["metrics"].items()}, **e2e_detail["ungated"]},
        "per_layer": {k: v["value"] for k, v in layer["metrics"].items()},
        "null_reasons": layer_detail["null_reasons"],
    }

    print(f"== {name}: n={row['n']} timed migrations, {row['attempted']} checked, "
          f"{row['failed']} failed, verification {'ok' if row['correct'] else 'FAILED'}")
    for problem in row["problems"]:
        print(f"   problem: {problem}")
    print("  end-to-end")
    for m in spec.END_TO_END:
        print(f"    {m.name:42s} {fmt(row['end_to_end'][m.name]):>14s} {m.unit}")
    print(f"  per-layer ({layer_detail['n']} interleaved rounds, {layer_detail['spans']} spans)")
    for m in spec.PER_LAYER:
        print(f"    {m.name:42s} {fmt(row['per_layer'][m.name]):>14s} {m.unit}")
    for probe, reason in row["null_reasons"].items():
        print(f"    null: {probe}: {reason}")
    sys.stdout.flush()
    return row


def cmd_run(args) -> int:
    names = [w.name for w in spec.WORKLOADS]
    head = header(args.seed, args.seconds)
    print("suite " + " ".join(f"{k}={v}" for k, v in head.items()))
    if args.trace:
        Path(args.trace).write_text("")
    sets = []
    for k in range(args.sets):
        if args.sets > 1:
            print(f"-- set {k + 1} of {args.sets}")
        sets.append({name: run_workload(name, args.seed, args.seconds, args.trace)
                     for name in names})
    if args.out:
        Path(args.out).write_text(json.dumps({"header": head, "sets": sets}, indent=1) + "\n")
    return 0 if all(row["correct"] for one in sets for row in one.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload and print every metric")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--seconds", type=float, default=8.0,
                     help="how long each run samples (default 8, as BENCHMARK.json)")
    run.add_argument("--sets", type=int, default=1,
                     help="measure the whole suite this many times, so compare can see run-to-run spread")
    run.add_argument("--out", metavar="PATH", help="write the results as JSON")
    run.add_argument("--trace", metavar="PATH", help="write the traced runs' spans as JSONL")
    cmp_ = sub.add_parser("compare", help="is B worse than A?")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return compare.main(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
