"""Unit and integration tests for the differential-testing subsystem
(generator, oracle, harness, shrinker, corpus format).

The heavyweight sweeps — many seeds, every ordered pair, every poll —
are marked ``fuzz`` and excluded from tier-1 (see pyproject addopts);
the nightly workflow runs them.  What stays in tier-1 is deliberately
small: determinism and shrink-stability of the generator, oracle
invariants, one reduced-scope differential run, and the shrinker's
greedy loop against a synthetic predicate.
"""

import itertools
import json

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, X86_64
from repro.difftest.generate import FEATURE_NAMES, GenConfig, generate
from repro.difftest.harness import (
    CaseReport,
    ChainHop,
    Mismatch,
    arch_by_name,
    check_baseline_agreement,
    check_migration,
    default_chain,
    run_baseline,
    run_chain,
    run_seed,
    sweep_pairs,
)
from repro.difftest.oracle import fingerprint_diff, heap_fingerprint
from repro.difftest.corpus import CorpusEntry, parse_entry, render_entry
from repro.migration.checkpoint import checkpoint, restart
from repro.migration.engine import MigrationEngine, MigrationError, collect_state
from repro.migration.precopy import PrecopyPolicy
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import MODE_AXES, RecordingChannel, stopped


class TestGenerator:
    def test_deterministic(self):
        assert generate(42).source == generate(42).source

    def test_seed_changes_program(self):
        assert generate(1).source != generate(2).source

    def test_feature_order_is_canonical(self):
        a = generate(5, GenConfig(features=("tree", "list")))
        b = generate(5, GenConfig(features=("list", "tree")))
        assert a.source == b.source
        assert a.config.features == ("list", "tree")

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(features=("teleport",))

    def test_shrink_stability(self):
        """Removing one feature leaves every other feature's emitted code
        byte-identical — the property the shrinker's soundness rests on."""
        full = generate(7)
        assert len(full.config.features) >= 2
        reduced = generate(7, full.config.without(full.config.features[0]))
        full_lines = set(full.source.splitlines())
        for line in reduced.source.splitlines():
            # the header and the final printf legitimately aggregate all
            # enabled features; everything else must be byte-identical
            if line.startswith("/* generated") or "printf(" in line:
                continue
            assert line in full_lines, f"reshaped line: {line!r}"

    @pytest.mark.parametrize("feature", FEATURE_NAMES)
    def test_each_feature_compiles_and_runs(self, feature):
        prog = generate(3, GenConfig(features=(feature,)))
        program = compile_program(prog.source, poll_strategy="user")
        proc = Process(program, DEC5000)
        assert proc.run_to_completion() == 0
        assert proc.stdout  # every feature prints its accumulator
        assert proc.polls >= 1  # and polls at least once while building

    def test_size_scales_work(self):
        small = generate(9, GenConfig(features=("list",), size=1))
        big = generate(9, GenConfig(features=("list",), size=3))
        p_small = compile_program(small.source, poll_strategy="user")
        p_big = compile_program(big.source, poll_strategy="user")
        a, b = Process(p_small, DEC5000), Process(p_big, DEC5000)
        a.run_to_completion(), b.run_to_completion()
        assert b.polls > a.polls


class TestOracle:
    def _final(self, source, arch):
        program = compile_program(source, poll_strategy="user")
        proc = Process(program, arch)
        proc.run_to_completion()
        return proc

    def test_fingerprints_agree_across_arches(self):
        """Un-migrated runs of the same program on different machines
        must produce identical canonical fingerprints — addresses,
        padding, and endianness must not leak through."""
        src = generate(11, GenConfig(features=("list", "cycle"))).source
        fps = [heap_fingerprint(self._final(src, a))
               for a in (DEC5000, SPARC20, ALPHA)]
        assert fingerprint_diff(fps[0], fps[1]) is None
        assert fingerprint_diff(fps[1], fps[2]) is None
        assert fingerprint_diff(fps[0], fps[2]) is None
        # and the fingerprint actually saw the heap structure
        assert any(row[1] == "heap" for row in fps[0])

    def test_fingerprint_diff_locates_divergence(self):
        src = generate(11, GenConfig(features=("mixed",))).source
        a = heap_fingerprint(self._final(src, DEC5000))
        assert fingerprint_diff(a, a) is None
        idx, seg, name, count, values = a[0]
        mutated = list(a)
        mutated[0] = (idx, seg, name, count, ("clobbered",) + values[1:])
        msg = fingerprint_diff(a, mutated)
        assert msg is not None and "cell 0" in msg

    def test_pointer_cells_are_normalized(self):
        """Pointer cells must be (canonical index, offset) pairs or
        sentinels, never raw simulated addresses."""
        src = generate(11, GenConfig(features=("pastend",))).source
        fp = heap_fingerprint(self._final(src, DEC5000))
        flat = [v for row in fp for v in row[4]]
        tuples = [v for v in flat if isinstance(v, tuple)]
        assert tuples, "expected pointer cells in a pastend program"
        for v in tuples:
            if v in (("null",), ("end",), ("stack/dead",)):
                continue
            target, off = v
            assert isinstance(target, int) and target < len(fp)


class TestHarness:
    ARCHES = (DEC5000, SPARC20, ALPHA)

    def test_run_seed_reduced_scope_is_clean(self):
        rep = run_seed(2, arches=self.ARCHES, hops=2, max_polls=4)
        assert rep.ok, "\n".join(str(m) for m in rep.mismatches)
        assert rep.runs > 0 and rep.total_polls > 0

    def test_sweep_detects_planted_stdout_divergence(self):
        """End-to-end self-check: if a migrated run's output ever
        diverged, the harness must say so — verified by sabotaging the
        baseline rather than the collector."""
        prog = generate(2, GenConfig(features=("list",)))
        program = compile_program(prog.source, poll_strategy="user")
        baseline, dis = check_baseline_agreement(prog, program, self.ARCHES)
        assert baseline is not None and not dis
        baseline.stdout += "tampered"
        _, mismatches = sweep_pairs(
            prog, program, baseline, self.ARCHES[:2], max_polls=2
        )
        assert mismatches and all(m.kind == "stdout" for m in mismatches)

    def test_sweep_detects_a_state_that_recollects_differently(self, monkeypatch):
        """The fixed-point self-check: a restored process that collects to
        other bytes than it arrived as is a ``canonical`` mismatch —
        verified by skewing what the harness re-collects, not the wire."""
        from repro.difftest import harness

        calls = itertools.count()

        def skewed(proc):
            payload, info = collect_state(proc)
            # the harness collects the source, then the restored process
            return (payload + b"\x00" if next(calls) % 2 else payload), info

        monkeypatch.setattr(harness, "collect_state", skewed)
        prog = generate(2, GenConfig(features=("list",)))
        program = compile_program(prog.source, poll_strategy="user")
        baseline, dis = check_baseline_agreement(prog, program, self.ARCHES[:2])
        assert not dis
        runs, mismatches = sweep_pairs(
            prog, program, baseline, self.ARCHES[:2], max_polls=1
        )
        assert runs == 2 and [m.kind for m in mismatches] == ["canonical"] * 2
        assert "first difference at byte" in mismatches[0].detail

    def test_a_one_poll_cap_sweeps_the_first_poll(self):
        """``--max-polls 1`` sweeps poll 1 on every pair (the stride
        sample divided by ``cap - 1``)."""
        prog = generate(2, GenConfig(features=("list",)))
        program = compile_program(prog.source, poll_strategy="user")
        baseline, dis = check_baseline_agreement(prog, program, self.ARCHES[:2])
        assert baseline.total_polls > 1 and not dis
        runs, mismatches = sweep_pairs(
            prog, program, baseline, self.ARCHES[:2], max_polls=1
        )
        assert runs == 2 and not mismatches

    def test_chain_is_fault_tolerant_and_clean(self):
        prog = generate(5, GenConfig(features=("list", "mixed")))
        program = compile_program(prog.source, poll_strategy="user")
        baseline, dis = check_baseline_agreement(prog, program, self.ARCHES)
        assert not dis
        start, schedule = default_chain(2)
        assert all(h.fault for h in schedule)  # faulted by default
        hops, mismatches = run_chain(prog, program, baseline, start, schedule)
        assert hops == 2
        assert not mismatches, "\n".join(str(m) for m in mismatches)

    def test_chain_truncates_when_program_exits_early(self):
        prog = generate(3, GenConfig(features=("stackref",)))
        program = compile_program(prog.source, poll_strategy="user")
        baseline, dis = check_baseline_agreement(prog, program, self.ARCHES)
        assert not dis
        # far more hops than the program has polls: chain must truncate
        schedule = tuple(
            ChainHop(dest, after_polls=3)
            for dest in ("alpha", "sparc20", "dec5000", "alpha", "sparc20")
        )
        hops, mismatches = run_chain(
            prog, program, baseline, "dec5000", schedule
        )
        assert 0 < hops <= len(schedule)
        assert not mismatches, "\n".join(str(m) for m in mismatches)

    def test_seed_10_under_precopy_slices_of_three(self):
        """The fuzzer's pinned find: ``pe_end`` is one past a block that a
        different neighbour followed on each side of this migration, and
        fingerprinted as the start of either.  It is one past its own
        block on both."""
        prog = generate(10, GenConfig(features=("tree", "cycle", "pastend", "churn")))
        program = compile_program(prog.source, poll_strategy="user")
        baseline = run_baseline(program, X86_64)
        dest, stats = MigrationEngine().migrate(
            stopped(program, X86_64, polls=2), SPARC20, precopy=True,
            precopy_policy=PrecopyPolicy(max_rounds=3, slice_polls=3),
        )
        assert stats.precopy and not stats.precopy_degraded
        assert dest.run().status == "exit"
        assert dest.stdout == baseline.stdout
        assert fingerprint_diff(heap_fingerprint(dest), baseline.fingerprint) is None

    def test_arch_by_name_tolerates_case(self):
        assert arch_by_name("DEC5000") is arch_by_name("dec5000")
        with pytest.raises(ValueError):
            arch_by_name("vax")

    def test_baseline_counts_polls(self):
        prog = generate(2, GenConfig(features=("tree",)))
        program = compile_program(prog.source, poll_strategy="user")
        base = run_baseline(program, DEC5000)
        assert base.total_polls >= 2
        assert base.exit_code == 0

    @pytest.mark.parametrize("zero,routes", [
        ("0", ["dec5000"]),  # the first architecture's run faults
        ("(int) sizeof(long) - 8", ["dec5000 vs alpha", "dec5000 vs x86_64"]),
    ], ids=["first", "lp64"])
    def test_a_faulting_baseline_is_a_mismatch_on_any_architecture(self, zero, routes):
        """One rule: a baseline run that faults is a ``baseline``
        mismatch naming where it faulted, not an exception out of the
        replay — on the first architecture as on any other."""
        entry = CorpusEntry(name="x", source=(
            f"int main() {{ int z; z = {zero}; migrate_here(); "
            f'printf("%d\\n", 5 / z); return 0; }}'
        ))
        found = entry.replay()
        assert [m.route for m in found] == routes
        for m in found:
            assert m.kind == "baseline"
            assert m.detail.startswith("error: GuestFault: integer division by zero")


class TestShrinker:
    def _failure(self, **kw):
        defaults = dict(
            seed=7, features=("list", "cycle", "mixed"), kind="stdout",
            route="dec5000->alpha@poll8", detail="x", src="dec5000",
            dst="alpha", poll=8,
        )
        defaults.update(kw)
        return Mismatch(**defaults)

    def test_greedy_minimization(self, monkeypatch):
        """Against a synthetic predicate ('fails iff cycle is enabled'),
        the shrinker must strip the other features and walk the poll
        index down to 1."""
        from repro.difftest import shrink as shrink_mod

        def fake_replay(template):
            return template if "cycle" in template.features else None

        monkeypatch.setattr(shrink_mod, "_replay", fake_replay)
        result = shrink_mod.shrink_case(self._failure())
        assert result.config.features == ("cycle",)
        assert result.minimized.poll == 1
        assert result.candidates_tried > 0

    def test_non_reproducing_failure_returns_original(self):
        """A failure the harness cannot reproduce (here: a healthy seed)
        shrinks to itself — the shrinker never invents a smaller case."""
        from repro.difftest.shrink import shrink_case

        failure = self._failure(
            seed=2, features=("list",), poll=2,
            route="dec5000->sparc20@poll2", dst="sparc20",
        )
        result = shrink_case(failure, max_rounds=1)
        assert result.minimized == failure
        assert result.config.features == ("list",)

    def test_artifact_is_replayable_json(self):
        from repro.difftest.shrink import shrink_case

        failure = self._failure(
            seed=2, features=("list",), poll=1,
            route="dec5000->sparc20@poll1", dst="sparc20",
        )
        art = shrink_case(failure, max_rounds=1).to_artifact()
        assert art["seed"] == 2 and art["features"] == ["list"]
        assert "int main()" in art["source"]
        json.dumps(art)  # must be JSON-serializable as committed

    def test_a_canonical_failure_shrinks(self, monkeypatch):
        """A ``canonical`` failure replays through the re-collect check
        that found it, so dropping features keeps reproducing it."""
        from repro.difftest import harness
        from repro.difftest.shrink import shrink_case

        monkeypatch.setattr(harness, "_recollect_drift", lambda sent, dest: "drift")
        rep = run_seed(3, arches=(DEC5000, SPARC20), hops=0, max_polls=1)
        failure = rep.mismatches[0]
        assert failure.kind == "canonical" and len(failure.features) > 1
        result = shrink_case(failure)
        assert result.minimized.kind == "canonical"
        assert len(result.config.features) < len(failure.features)

    def test_a_failure_found_in_a_mode_is_replayed_in_it(self, monkeypatch):
        """A mismatch names the ``migrate()`` keywords it ran with, and the
        shrinker replays every candidate with them — here a planted fault
        of compressed transfers, which the plain mode would not show."""
        from repro.difftest.shrink import shrink_case

        migrate, seen = MigrationEngine.migrate, []

        def compressed_fails(self, process, dest, **mode):
            seen.append(mode)
            if mode.get("compress"):
                raise MigrationError("planted: compressed transfers fail")
            return migrate(self, process, dest, **mode)

        monkeypatch.setattr(MigrationEngine, "migrate", compressed_fails)
        mode = MODE_AXES["compress"]
        rep = run_seed(3, arches=(DEC5000, SPARC20), hops=0, max_polls=1, mode=mode)
        failure = rep.mismatches[0]
        assert (failure.kind, failure.mode) == ("error", mode)
        seen.clear()
        result = shrink_case(failure)
        assert result.minimized.mode == mode
        assert len(result.config.features) < len(failure.features)
        assert seen and all(m == mode for m in seen)


def replay_artifact(art: dict) -> list:
    """Replay a pairwise failure artifact from its JSON recipe alone."""
    prog = generate(art["seed"], GenConfig(tuple(art["features"]), art["size"]))
    program = compile_program(prog.source, poll_strategy="user")
    arches = [arch_by_name(art["src"]), arch_by_name(art["dst"])]
    baseline, disagreements = check_baseline_agreement(prog, program, arches)
    assert not disagreements
    return check_migration(
        prog, program, baseline, *arches, art["poll"], art["mode"]
    )


class TestFuzzCli:
    """``repro fuzz`` end to end: sweep, shrink, write the artifact."""

    ARGS = ["--seeds", "1", "--hops", "0", "--arches", "dec5000,sparc20"]

    def _fuzz(self, tmp_path, *argv) -> tuple[int, dict, str]:
        from repro.cli import main

        out = tmp_path / "failures"
        rc = main(["fuzz", *self.ARGS, *argv, "--out", str(out)])
        (recipe,) = out.glob("*.json")
        return rc, json.loads(recipe.read_text()), recipe.with_suffix(".c").read_text()

    def test_the_artifact_regenerates_and_fails_again(self, tmp_path, monkeypatch):
        from repro.difftest import harness

        monkeypatch.setattr(harness, "_recollect_drift", lambda sent, dest: "drift")
        rc, art, source = self._fuzz(tmp_path, "--size", "2", "--max-polls", "1")
        assert rc == 1
        config = GenConfig(tuple(art["features"]), art["size"])
        assert generate(art["seed"], config).source == source == art["source"]
        assert art["kind"] in [m.kind for m in replay_artifact(art)]

    def test_a_size_three_failure_shrinks_to_a_size_three_program(
        self, tmp_path, monkeypatch
    ):
        """A fault that shows only on payloads above 1 000 B: seed 3
        sends at most 941 B at size 2 and up to 1 097 B at size 3, so
        the shrinker starts at the failure's size and stays there."""
        from repro.difftest import harness

        monkeypatch.setattr(
            harness, "_recollect_drift",
            lambda sent, dest: "drift" if len(sent) > 1000 else None,
        )
        rc, art, _source = self._fuzz(tmp_path, "--start", "3", "--size", "3")
        assert rc == 1 and art["size"] == 3
        assert art["kind"] in [m.kind for m in replay_artifact(art)]

    def test_any_failing_seed_exits_1(self, tmp_path, monkeypatch, capsys):
        """The exit status says whether a seed failed, not how many: 256
        failures must not wrap to 0, nor 2 or 5 read as another code."""
        from repro.cli import main
        from repro.difftest import harness

        def failing(seed, **_kw):
            report = CaseReport(seed=seed, config=GenConfig())
            report.mismatches.append(
                Mismatch(seed=seed, features=(), kind="stdout", route="x", detail="x")
            )
            return report

        monkeypatch.setattr(harness, "run_seed", failing)
        assert main(["fuzz", "--seeds", "256", "--no-shrink"]) == 1
        assert "256 failing]" in capsys.readouterr().err.splitlines()[-1]


class TestCorpusFormat:
    def test_render_parse_roundtrip(self):
        prog = generate(17, GenConfig(features=("list", "pastend")))
        entry = CorpusEntry(
            name="rt", source=prog.source, seed=17,
            features=prog.config.features, size=1,
            origin="fuzz shrink", note="round trip",
        )
        parsed = parse_entry(render_entry(entry), name="rt")
        assert parsed.seed == 17
        assert parsed.features == ("list", "pastend")
        assert parsed.origin == "fuzz shrink"
        assert parsed.note == "round trip"
        assert parsed.source.strip() == prog.source.strip()

    def test_committed_text_is_authoritative(self):
        """parse_entry keeps the body verbatim — replay never regenerates
        from the seed, so generator drift cannot rewrite a regression."""
        text = render_entry(
            CorpusEntry(name="x", source="int main() { return 0; }\n")
        )
        parsed = parse_entry(text)
        assert parsed.source == "int main() { return 0; }\n"


MODE_PRODUCTS = {
    "+".join(on) or "plain": {k: v for axis in on for k, v in MODE_AXES[axis].items()}
    for n in range(len(MODE_AXES) + 1)
    for on in itertools.combinations(MODE_AXES, n)
}
assert len(MODE_PRODUCTS) == 16


def sweep_seed_in_every_mode(seed: int, arch_pairs, max_polls: int) -> list:
    """Compile *seed*'s program once, then put it through the fingerprint
    + stdout oracle in all 16 mode products; returns the mismatches,
    each tagged with its mode."""
    prog = generate(seed)
    program = compile_program(prog.source, poll_strategy="user")
    found = []
    for arches in arch_pairs:
        baseline, disagreements = check_baseline_agreement(prog, program, arches)
        assert baseline is not None and not disagreements
        for name, mode in MODE_PRODUCTS.items():
            runs, mismatches = sweep_pairs(
                prog, program, baseline, arches, max_polls=max_polls, mode=mode
            )
            assert runs > 0
            found.extend(f"[{name}] {m}" for m in mismatches)
    return found


#: a list that grows one node per poll, for the wire-determinism products
WIRE_SOURCE = """
struct node { int v; double w; struct node *next; };
struct node *head;
int main() {
    int i; struct node *n;
    for (i = 0; i < 24; i++) {
        n = (struct node *) malloc(sizeof(struct node));
        n->v = i; n->w = i * 0.5; n->next = head; head = n;
        migrate_here();
    }
    for (n = head; n != NULL; n = n->next) i = i + n->v;
    printf("%d\\n", i);
    return 0;
}
"""


@pytest.fixture(scope="module")
def wire_checkpoint():
    """The list program and a checkpoint of it at its fourth poll."""
    program = compile_program(WIRE_SOURCE, poll_strategy="user")
    return program, checkpoint(stopped(program, DEC5000, 4))


class TestEveryModeProduct:
    """The safety net under the one-envelope engine: the same state
    arrives whatever combination of {stream, compress, precopy,
    attribution} carried it."""

    @pytest.mark.parametrize("mode", MODE_PRODUCTS)
    def test_the_same_state_sends_the_same_bytes(self, mode, wire_checkpoint):
        """The wire carries state and nothing else: two migrations of
        one checkpoint send byte-identical frame lists, observation on
        or off, in every product."""
        program, ckpt = wire_checkpoint

        def frames_sent() -> list:
            channel = RecordingChannel()
            MigrationEngine().migrate(
                restart(program, ckpt, DEC5000), SPARC20, channel=channel,
                **MODE_PRODUCTS[mode],
            )
            return channel.sent

        first = frames_sent()
        assert first and first == frames_sent()

    @pytest.mark.parametrize("seed", range(4))
    def test_seed_is_clean_in_all_sixteen(self, seed):
        # first, middle and last poll: the last is where pre-copy's slices
        # run the source to its exit, the middle one where they do not
        found = sweep_seed_in_every_mode(seed, [(DEC5000, SPARC20)], max_polls=3)
        assert not found, "\n".join(found)

    def test_run_seed_takes_the_mode_too(self):
        rep = run_seed(
            2, arches=(DEC5000, SPARC20), hops=0, max_polls=2,
            mode=MODE_PRODUCTS["stream+compress+precopy+attribution"],
        )
        assert rep.ok and rep.runs > 0, "\n".join(str(m) for m in rep.mismatches)

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(25))
    def test_seed_is_clean_in_all_sixteen_nightly(self, seed):
        found = sweep_seed_in_every_mode(
            seed, [(DEC5000, ALPHA), (SPARC20, X86_64)], max_polls=3
        )
        assert not found, "\n".join(found)


@pytest.mark.fuzz
class TestFuzzSweep:
    """The nightly surface: full-pair, every-poll differential sweeps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_seed_full_sweep(self, seed):
        rep = run_seed(seed, hops=3)
        assert rep.ok, "\n".join(str(m) for m in rep.mismatches)
