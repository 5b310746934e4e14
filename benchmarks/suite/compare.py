"""``python -m benchmarks.suite compare A.json B.json``: is B worse than A?

Both files are ``run --out`` results.  For every (workload, end-to-end
metric) pair the report gives B's median over A's, with A's median as the
base, and a verdict from the metric's bound:

- ``ok``         B is no worse than A by more than the bound;
- ``regressed``  B is worse than A by more than the bound — or A has the
  workload or the metric and B lacks it;
- ``unresolved`` the files hold several sets (``run --sets K``) and their
  run-to-run spread is wider than the bound, so "no worse" cannot be told
  from noise.  The spread does not hide a clean result: every B value
  better than every A value is ``ok``, every B value worse with the medians
  apart by more than the bound is ``regressed``.

Counts that must repeat exactly are also checked for equality (``changed``
is printed next to the verdict; per-layer counts are listed the same way).
Exit status 1 on any ``regressed``.  Files whose ``spec_hash`` differs
measure different things and are refused.
"""

from __future__ import annotations

import json
import statistics

from benchmarks.suite.spec import END_TO_END, PER_LAYER


def spread(values) -> float | None:
    """Interquartile distance as a share of the median; None below 4 values."""
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else None


def verdict(metric, a: list, b: list) -> tuple[str, float, float]:
    """``(verdict, ratio, base)`` for one metric's values on both sides."""
    base, new = statistics.median(a), statistics.median(b)
    ratio = new / base if base else (float("inf") if new else 1.0)
    sign = 1.0 if metric.better == "lower" else -1.0
    if metric.bound == 0.0:
        return ("regressed" if sign * (new - base) > 0 else "ok"), ratio, base
    beyond_bound = base and sign * (new - base) / abs(base) > metric.bound
    if sign > 0:
        clean_win, clean_loss = max(b) < min(a), min(b) > max(a)
    else:
        clean_win, clean_loss = min(b) > max(a), max(b) < min(a)
    if clean_win:
        return "ok", ratio, base
    if clean_loss and beyond_bound:
        return "regressed", ratio, base
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > metric.bound:
        return "unresolved", ratio, base
    return ("regressed" if beyond_bound else "ok"), ratio, base


def workloads_of(doc: dict) -> list[str]:
    """Every workload any set of *doc* holds, in first-seen order."""
    return list(dict.fromkeys(w for one in doc["sets"] for w in one))


def values_of(doc: dict, workload: str, table: str, name: str) -> list:
    """The metric's value in each set of *doc* that has it (nulls dropped)."""
    out = []
    for one in doc["sets"]:
        v = one.get(workload, {}).get(table, {}).get(name)
        if v is not None:
            out.append(v)
    return out


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """Report lines and the number of regressions."""
    if a["header"]["spec_hash"] != b["header"]["spec_hash"]:
        raise ValueError(
            f"spec_hash differs ({a['header']['spec_hash']} vs {b['header']['spec_hash']}): "
            "the files measure different workloads or metrics and cannot be compared")
    lines = [f"A: commit {a['header']['commit']}, {len(a['sets'])} set(s); "
             f"B: commit {b['header']['commit']}, {len(b['sets'])} set(s)"]
    regressions = 0
    in_b = workloads_of(b)
    for w in workloads_of(a):
        if w not in in_b:
            lines.append(f"{w}: measured in A, missing in B  regressed")
            regressions += 1
            continue
        lines.append(f"{w}")
        for m in END_TO_END:
            va, vb = values_of(a, w, "end_to_end", m.name), values_of(b, w, "end_to_end", m.name)
            if not va:
                lines.append(f"  {m.name:26s} not measured in A")
            elif not vb:
                lines.append(f"  {m.name:26s} measured in A, missing in B  regressed")
                regressions += 1
            else:
                v, ratio, base = verdict(m, va, vb)
                regressions += v == "regressed"
                note = "  changed" if m.exact and set(va) != set(vb) else ""
                lines.append(f"  {m.name:26s} {ratio:8.4f}x of {base:.6g} {m.unit:5s} {v}{note}")
        for m in PER_LAYER:
            if not m.exact:
                continue
            va, vb = values_of(a, w, "per_layer", m.name), values_of(b, w, "per_layer", m.name)
            if set(va) != set(vb):
                lines.append(f"  {m.name:40s} changed: {sorted(set(va))} -> {sorted(set(vb))}")
    lines.append(f"{regressions} regression(s)")
    return lines, regressions


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    try:
        lines, regressions = compare(a, b)
    except ValueError as exc:
        print(f"compare: {exc}")
        return 2
    print("\n".join(lines))
    return 1 if regressions else 0
