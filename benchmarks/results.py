"""Machine-readable benchmark results, persisted across PRs.

Every benchmark that produces trajectory-worthy numbers merges them into
a ``BENCH_PR<n>.json`` at the repo root under its own section key.  In
practice each PR committed its *own* file (``BENCH_PR1.json``,
``BENCH_PR9.json``, ...), so the "one diffable file" story needs an
aggregation step: :func:`load_bench_files` reads every committed
``BENCH_*.json`` and :func:`render_trend` folds them into one trajectory
table (per file × section: mode, row count, and the headline ratio
metrics), so ``python -m benchmarks.results`` — or ``repro obs
bench-trend`` — answers "how did the numbers move across PRs" without
opening four JSON files.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

__all__ = [
    "BENCH_JSON",
    "update_bench_json",
    "load_bench_files",
    "render_trend",
]

#: the trajectory file at the repo root
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_PR1.json"


def update_bench_json(section: str, payload, path: Path | str = None) -> Path:
    """Merge *payload* under *section* into the bench JSON (atomically:
    a crashed benchmark must not leave a half-written trajectory file)."""
    path = Path(path) if path is not None else BENCH_JSON
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict):
                data = {}
        except (OSError, json.JSONDecodeError):
            data = {}
    data[section] = payload
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


# -- cross-PR aggregation ------------------------------------------------------

#: headline suffixes: the dimensionless "did it get better" numbers —
#: averaged over a section's rows for the trend table
_HEADLINE_SUFFIXES = ("_speedup", "_ratio", "_rate", "_overhead")


def _pr_number(path: Path) -> int:
    m = re.search(r"(\d+)", path.stem)
    return int(m.group(1)) if m else -1


def load_bench_files(root: Path | str = None) -> list[tuple[Path, dict]]:
    """Every committed ``BENCH_*.json`` under *root* (default: the repo
    root), as ``(path, decoded dict)`` sorted by PR number.  Unreadable
    files are skipped — a trend table must not die on one bad file."""
    root = Path(root) if root is not None else BENCH_JSON.parent
    out: list[tuple[Path, dict]] = []
    for path in sorted(root.glob("BENCH_*.json"), key=_pr_number):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(data, dict):
            out.append((path, data))
    return out


def _headline(payload: dict) -> list[tuple[str, float]]:
    """The headline metrics of one section: scalar ratio-like fields of
    the payload itself plus row-averaged ratio-like fields."""
    found: dict[str, float] = {}
    for key, value in payload.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and key.endswith(_HEADLINE_SUFFIXES):
            found[key] = float(value)
    rows = payload.get("rows")
    if isinstance(rows, list) and rows:
        sums: dict[str, list[float]] = {}
        for row in rows:
            if not isinstance(row, dict):
                continue
            for key, value in row.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool) \
                        and key.endswith(_HEADLINE_SUFFIXES):
                    sums.setdefault(key, []).append(float(value))
        for key, values in sums.items():
            found.setdefault(key, sum(values) / len(values))
    return sorted(found.items())


def render_trend(root: Path | str = None) -> str:
    """One trajectory table over every committed ``BENCH_*.json``."""
    files = load_bench_files(root)
    if not files:
        return "no BENCH_*.json files found"
    n_sections = sum(len(data) for _, data in files)
    out = [f"benchmark trajectory: {len(files)} files, {n_sections} sections",
           ""]
    header = f"{'file':16s} {'section':14s} {'mode':6s} {'rows':>4s}  headline (row means)"
    out.append(header)
    out.append("-" * len(header))
    for path, data in files:
        for section in sorted(data):
            payload = data[section]
            if not isinstance(payload, dict):
                continue
            rows = payload.get("rows")
            n_rows = len(rows) if isinstance(rows, list) else 0
            mode = str(payload.get("mode", "-"))
            headline = "  ".join(
                f"{k}={v:.3f}" for k, v in _headline(payload)[:3]
            ) or "-"
            out.append(
                f"{path.name:16s} {section:14s} {mode:6s} {n_rows:4d}  {headline}"
            )
    return "\n".join(out)


def main(argv=None) -> int:
    """``python -m benchmarks.results``: print the trajectory table."""
    import argparse

    parser = argparse.ArgumentParser(
        description="aggregate committed BENCH_*.json into one trend table"
    )
    parser.add_argument("--dir", default=None,
                        help="directory holding BENCH_*.json "
                             "(default: the repo root)")
    args = parser.parse_args(argv)
    print(render_trend(args.dir))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
