"""Trace-file schema validator (stdlib-only), usable from CI:

    python -m repro.obs.validate trace.jsonl [more.jsonl ...]

Exits 0 when every file is schema-valid JSONL (printing a one-line
summary per file), 1 otherwise (printing each schema error, or one
``unreadable`` line for a file that cannot be read as UTF-8 text).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs.events import validate_trace_lines

__all__ = ["main"]


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print("usage: python -m repro.obs.validate TRACE.jsonl ...",
              file=sys.stderr)
        return 2
    status = 0
    for path in args:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            status = 1
            continue
        errors = validate_trace_lines(text)
        if errors:
            for err in errors:
                print(f"{path}: {err}", file=sys.stderr)
            status = 1
        else:
            lines = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
            n_spans = sum(1 for obj in lines if obj["event"] == "span")
            print(f"{path}: schema-valid ({len(lines)} lines, {n_spans} spans)")
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
