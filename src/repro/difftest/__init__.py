"""Differential testing of heterogeneous migration (DESIGN.md §11).

The paper's correctness claim is *semantic equivalence*: a process
collected on one architecture and restored on another computes the same
observable result as if it had never moved.  Three hand-written
workloads exercise a thin slice of migratable programs; this package
widens the slice mechanically:

- :mod:`repro.difftest.generate` — a seeded, reproducible mini-C program
  generator emitting well-typed sources that hit the collector's hard
  cases (recursive structs, cyclic graphs, interior and one-past-end
  pointers, strings, mixed-kind structs, deep call chains with live
  locals at poll points);
- :mod:`repro.difftest.oracle` — the differential oracle: bit-equivalent
  stdout plus a structural fingerprint of the final reachable heap,
  canonicalized so it compares across architectures;
- :mod:`repro.difftest.harness` — replays each program with migration
  injected at every poll point across every ordered pair drawn from
  :data:`repro.arch.machine.MACHINES` (one :func:`check_migration`
  each), and through multi-hop chains with a transient transport fault
  injected at each hop;
- :mod:`repro.difftest.shrink` — minimizes a failing case, replaying
  each candidate through the check that found it, to a replayable
  regression case;
- :mod:`repro.difftest.corpus` — the committed ``tests/corpus/*.c``
  format: minimized programs replayed deterministically in tier-1.

The CLI surface is ``repro fuzz`` (see ``repro fuzz --help``).
"""

from repro.difftest.generate import (
    FEATURE_NAMES,
    GenConfig,
    GeneratedProgram,
    generate,
)
from repro.difftest.harness import (
    CaseReport,
    ChainHop,
    Mismatch,
    check_migration,
    default_chain,
    run_chain,
    run_seed,
    sweep_pairs,
)
from repro.difftest.oracle import heap_fingerprint, fingerprint_diff
from repro.difftest.shrink import ShrinkResult, shrink_case
from repro.difftest.corpus import (
    CorpusEntry,
    load_corpus,
    parse_entry,
    render_entry,
)

__all__ = [
    "FEATURE_NAMES",
    "GenConfig",
    "GeneratedProgram",
    "generate",
    "CaseReport",
    "ChainHop",
    "Mismatch",
    "check_migration",
    "default_chain",
    "run_chain",
    "run_seed",
    "sweep_pairs",
    "heap_fingerprint",
    "fingerprint_diff",
    "ShrinkResult",
    "shrink_case",
    "CorpusEntry",
    "load_corpus",
    "parse_entry",
    "render_entry",
]
