"""Tier-1 regression corpus: committed minimized programs replayed
deterministically (no generation at test time).

Each ``tests/corpus/*.c`` entry is compiled from its committed text,
checked for cross-architecture baseline agreement, and migrated at
every poll point across the representative pairs in
``REPLAY_PAIR_NAMES`` (endianness flip both ways, word-size change both
ways).  The full MACHINES × MACHINES sweep belongs to the nightly fuzz
job; this suite is the fast, always-on floor under it.
"""

import pytest

from repro.difftest.corpus import DEFAULT_CORPUS_DIR, REPLAY_PAIR_NAMES, load_corpus
from repro.difftest.harness import arch_by_name
from repro.migration.engine import MigrationEngine, collect_state
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import MODE_AXES

ENTRIES = load_corpus()

#: plan-identity chain: endianness flip then word-size change, so the
#: plans cross both wire-representation boundaries
PLAN_CHAIN = ("dec5000", "sparc20", "alpha")


def _chain_run(program, plans_enabled: bool):
    """Migrate through PLAN_CHAIN at successive polls with the compiled
    plans on/off on every hop's TI; returns (stdout, per-hop payloads).

    Short programs that exit before a hop's poll simply make shorter
    chains — both modes truncate identically, so the comparison stays
    hop-for-hop."""
    arches = [arch_by_name(n) for n in PLAN_CHAIN]
    # TypeInfo tables are shared per (program, arch): toggling through a
    # throwaway Process reaches every process of this program below
    for arch in arches:
        Process(program, arch).ti.plans_enabled = plans_enabled
    try:
        proc = Process(program, arches[0])
        proc.start()
        payloads = []
        result = None
        for dest_arch in arches[1:]:
            proc.migration_pending = True
            proc.migrate_after_polls = 1
            result = proc.run()
            if result.status != "poll":
                break
            # record this hop's wire bytes (collection is re-runnable and
            # deterministic, so this is exactly what the hop transmits)
            payload, _info = collect_state(proc)
            payloads.append(bytes(payload))
            proc, _stats = MigrationEngine().migrate(proc, dest_arch)
        else:
            proc.migration_pending = False
            result = proc.run()
        assert result.status == "exit", result.status
        return proc.stdout, payloads
    finally:
        for arch in arches:
            Process(program, arch).ti.plans_enabled = True


def test_corpus_is_populated():
    """The committed corpus must exist and keep its minimum breadth."""
    assert DEFAULT_CORPUS_DIR.is_dir()
    assert len(ENTRIES) >= 25
    origins = {e.origin for e in ENTRIES}
    assert "hand-written" in origins  # the two known-hard cases


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_corpus_entry_replays_clean(entry):
    mismatches = entry.replay()
    assert not mismatches, "\n".join(str(m) for m in mismatches)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_corpus_entry_plan_identity(entry):
    """Plans must be invisible on the wire: replaying every corpus
    program plans-on vs plans-off (the per-cell oracle) produces
    bit-identical stdout AND byte-identical payloads on every migration
    hop (DESIGN §8's byte-identity invariant, over the whole corpus)."""
    program = compile_program(entry.source, poll_strategy="user")
    stdout_off, payloads_off = _chain_run(program, plans_enabled=False)
    stdout_on, payloads_on = _chain_run(program, plans_enabled=True)
    assert stdout_on == stdout_off
    assert len(payloads_on) == len(payloads_off)
    for hop, (off, on) in enumerate(zip(payloads_off, payloads_on)):
        assert on == off, f"hop {hop}: plan-on payload differs from plan-off"


#: the four ways a payload travels
TRANSFER_MODES = {
    "mono": {}, **{axis: MODE_AXES[axis] for axis in ("stream", "compress", "precopy")}
}


@pytest.mark.parametrize("mode", TRANSFER_MODES)
@pytest.mark.parametrize(
    "entry", [e for e in ENTRIES if e.name.startswith("hand_pastend_abut_")],
    ids=lambda e: e.name,
)
def test_a_boundary_pointer_names_its_own_block_in_every_mode(entry, mode):
    """``&a[n]`` where a neighbour used to start — heap, global, frame —
    arrives as one past *a* however the payload travelled.  The x86 pair
    is the one whose 4-byte ``double`` alignment the global and frame
    programs were found on."""
    mismatches = entry.replay(
        (*REPLAY_PAIR_NAMES, ("x86", "sparc20")), mode=TRANSFER_MODES[mode]
    )
    assert not mismatches, "\n".join(str(m) for m in mismatches)


def test_every_generated_feature_is_covered():
    """The corpus covers each generator feature at least once (so a
    collector regression in any hard case fails tier-1, not just the
    nightly)."""
    from repro.difftest.generate import FEATURE_NAMES

    covered = set()
    for e in ENTRIES:
        covered.update(e.features)
    assert covered == set(FEATURE_NAMES)
