"""Greedy minimization of failing differential cases.

A raw fuzz failure is a :class:`Mismatch` whose generated program may
interleave five features across a hundred lines.  The shrinker reduces
it to the smallest case that *still fails the same way*, in three greedy
passes run to fixpoint:

1. **feature subsets** — drop one enabled feature at a time.  The
   generator draws every feature from its own RNG stream, so removing
   one leaves the others' code byte-identical — each drop is a strict
   simplification, never a reshuffle;
2. **size** — lower ``GenConfig.size`` from the failure's own size
   toward 1 (shorter loops, smaller structures);
3. **route** — for a chain failure, drop trailing hops and clear
   per-hop faults; for a pairwise failure, try earlier poll indices
   (1, then successive halvings toward the failing index).

Every candidate is replayed through the check that found the failure
(:func:`~repro.difftest.harness.check_migration` in the failure's own
transfer mode, :func:`~repro.difftest.harness.run_chain`, or the
baseline agreement); a candidate is accepted only if it reproduces a
mismatch of the *same kind*.  The result carries the minimized source
and a replay recipe — exactly what :mod:`repro.difftest.corpus` commits
as a regression case and what the CLI writes as a failure artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.arch.machine import MACHINES
from repro.difftest.generate import GenConfig, generate
from repro.difftest.harness import (
    arch_by_name,
    Mismatch,
    check_baseline_agreement,
    check_migration,
    run_chain,
)
from repro.vm.program import compile_program

__all__ = ["ShrinkResult", "shrink_case"]


@dataclass
class ShrinkResult:
    """A minimized failing case, replayable from its fields alone."""

    original: Mismatch
    minimized: Mismatch
    config: GenConfig
    source: str
    candidates_tried: int

    def to_artifact(self) -> dict:
        """JSON-serializable replay recipe (the CLI's failure artifact)."""
        m = self.minimized
        return {
            "seed": m.seed,
            "features": list(m.features),
            "size": m.size,
            "kind": m.kind,
            "route": m.route,
            "detail": m.detail,
            "src": m.src,
            "dst": m.dst,
            "poll": m.poll,
            "mode": m.mode,
            "schedule": [
                {"dest": h.dest, "after_polls": h.after_polls, "fault": h.fault}
                for h in (m.schedule or ())
            ] or None,
            "source": self.source,
        }


def _replay(template: Mismatch) -> Optional[Mismatch]:
    """Re-run the check that found *template* on the program its seed,
    features and size generate; return a same-kind mismatch or ``None``."""
    prog = generate(template.seed, GenConfig(template.features, template.size))
    try:
        program = compile_program(prog.source, poll_strategy="user")
    except Exception:
        return None  # reduced program must stay well-formed
    if template.dst is not None:
        arches = [arch_by_name(template.src), arch_by_name(template.dst)]
    else:
        arches = list(MACHINES)
    baseline, found = check_baseline_agreement(prog, program, arches)
    if template.kind != "baseline":
        if found:
            return None  # the reduction broke portability, not the collector
        if template.schedule is not None:
            _, found = run_chain(
                prog, program, baseline, template.src, template.schedule
            )
        elif template.poll is not None:
            found = check_migration(
                prog, program, baseline, *arches, template.poll, template.mode
            ) or []
    return next((m for m in found if m.kind == template.kind), None)


def shrink_case(failure: Mismatch, max_rounds: int = 8) -> ShrinkResult:
    """Minimize *failure* greedily to fixpoint (bounded by *max_rounds*)."""
    current = failure
    tried = 0

    def attempt(**changes) -> bool:
        """Replay *current* with *changes*; keep what reproduces."""
        nonlocal current, tried
        tried += 1
        found = _replay(replace(current, **changes))
        if found is not None:
            current = found
        return found is not None

    for _round in range(max_rounds):
        progressed = False

        # 1. drop features
        for feat in current.features:
            if len(current.features) > 1:
                progressed |= attempt(
                    features=tuple(f for f in current.features if f != feat)
                )

        # 2. lower size
        while current.size > 1 and attempt(size=current.size - 1):
            progressed = True

        # 3a. shorten a chain schedule, then clear its faults
        while (
            current.schedule is not None and len(current.schedule) > 1
            and attempt(schedule=current.schedule[:-1])
        ):
            progressed = True
        if current.schedule is not None and any(
            h.fault for h in current.schedule
        ):
            progressed |= attempt(schedule=tuple(
                replace(h, fault=None) for h in current.schedule
            ))

        # 3b. earlier poll index for a pairwise failure
        if current.poll is not None and current.poll > 1:
            progressed |= any(
                attempt(poll=p) for p in _poll_candidates(current.poll)
            )

        if not progressed:
            break

    config = GenConfig(features=current.features, size=current.size)
    return ShrinkResult(
        original=failure,
        minimized=current,
        config=config,
        source=generate(failure.seed, config).source,
        candidates_tried=tried,
    )


def _poll_candidates(poll: int) -> list[int]:
    """Earlier polls to try, smallest first: 1, then halvings of *poll*."""
    out = {1}
    k = poll // 2
    while k > 1:
        out.add(k)
        k //= 2
    return sorted(p for p in out if p < poll)
