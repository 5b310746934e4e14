"""Machine-readable results of the pre-suite benchmarks.

``bench_pipeline.py`` and the paper-row benchmarks merge their numbers
into ``BENCH_PR1.json`` at the repo root, each under its own section
key.  The performance record is ``benchmarks/suite`` result files
compared with ``python -m benchmarks.suite compare``; this file and the
JSON it writes go when the remaining pre-suite benchmarks are folded
into the suite (ROADMAP item 4).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["BENCH_JSON", "update_bench_json"]

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
