"""Tests for heterogeneous checkpoint/restart (built on collect/restore)."""

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20
from repro.migration.checkpoint import (
    Checkpoint,
    CheckpointError,
    checkpoint,
    checkpoint_to_file,
    restart,
    restart_from_file,
    run_with_checkpoints,
)
from repro.vm.process import Process
from repro.vm.program import compile_program

COUNTER = """
int main() {
    int i; long acc = 0;
    for (i = 0; i < 40; i++) {
        migrate_here();
        acc = acc * 3 + i;
    }
    printf("%d", (int) acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def prog():
    return compile_program(COUNTER, poll_strategy="user")


@pytest.fixture(scope="module")
def expected(prog):
    p = Process(prog, DEC5000)
    p.run_to_completion()
    return p.stdout


def stopped(prog, k=10, arch=DEC5000):
    proc = Process(prog, arch)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = k
    assert proc.run().status == "poll"
    return proc


class TestCheckpointRestart:
    def test_roundtrip_same_arch(self, prog, expected):
        proc = stopped(prog)
        ckpt = checkpoint(proc)
        restored = restart(prog, ckpt, DEC5000)
        restored.run()
        assert restored.stdout == expected

    @pytest.mark.parametrize("arch", [SPARC20, ALPHA], ids=lambda a: a.name)
    def test_roundtrip_cross_arch(self, prog, expected, arch):
        proc = stopped(prog)
        restored = restart(prog, checkpoint(proc), arch)
        restored.run()
        assert restored.stdout == expected

    def test_source_keeps_running_after_checkpoint(self, prog, expected):
        """Checkpointing is non-destructive — unlike a migration."""
        proc = stopped(prog)
        checkpoint(proc)
        proc.migration_pending = False
        result = proc.run()
        assert result.status == "exit"
        assert proc.stdout == expected

    def test_one_checkpoint_many_restarts(self, prog, expected):
        proc = stopped(prog)
        ckpt = checkpoint(proc)
        for arch in (DEC5000, SPARC20, ALPHA):
            r = restart(prog, ckpt, arch)
            r.run()
            assert r.stdout == expected

    def test_file_roundtrip(self, prog, expected, tmp_path):
        proc = stopped(prog)
        path = tmp_path / "snap.ckpt"
        ckpt = checkpoint_to_file(proc, path)
        assert path.exists() and path.stat().st_size > len(ckpt.payload)
        restored = restart_from_file(prog, path, SPARC20)
        restored.run()
        assert restored.stdout == expected

    def test_wrong_program_rejected(self, prog, tmp_path):
        proc = stopped(prog)
        path = tmp_path / "snap.ckpt"
        checkpoint_to_file(proc, path)
        other = compile_program(
            "int main() { migrate_here(); return 0; }", poll_strategy="user"
        )
        with pytest.raises(CheckpointError, match="different program"):
            restart_from_file(other, path, DEC5000)

    def test_corrupt_file_rejected(self, tmp_path, prog):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(CheckpointError, match="magic"):
            restart_from_file(prog, path, DEC5000)

    def test_other_format_version_rejected(self, prog, tmp_path):
        """A checkpoint written by a build with another wire format: one
        typed error that names both versions, not the reader's
        ``ValueError``."""
        from repro.msr.wire import VERSION

        ckpt = checkpoint(stopped(prog))
        assert ckpt.payload[4] == VERSION
        ckpt.payload = ckpt.payload[:4] + b"\x09" + ckpt.payload[5:]
        path = tmp_path / "old.ckpt"
        path.write_bytes(ckpt.to_bytes())
        with pytest.raises(
            CheckpointError,
            match=f"version 9: this build reads and writes version {VERSION} only",
        ):
            restart_from_file(prog, path, DEC5000)

    @pytest.mark.parametrize("keep", [0.5, 0.95, 20, 10], ids=str)
    def test_truncated_file_rejected(self, prog, tmp_path, keep):
        """Cut in the payload (an ``EOFError`` from the reader) or in the
        file header: a ``CheckpointError`` either way."""
        data = checkpoint(stopped(prog)).to_bytes()
        cut = int(len(data) * keep) if keep < 1 else keep
        path = tmp_path / "cut.ckpt"
        path.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            restart_from_file(prog, path, DEC5000)

    def test_serialization_roundtrip(self, prog):
        proc = stopped(prog)
        ckpt = checkpoint(proc)
        back = Checkpoint.from_bytes(ckpt.to_bytes())
        assert back.payload == ckpt.payload
        assert back.fingerprint == ckpt.fingerprint
        assert back.source_arch == ckpt.source_arch


class TestPeriodicCheckpointing:
    def test_run_with_checkpoints(self, prog, expected):
        proc, ckpts = run_with_checkpoints(prog, DEC5000, every_polls=10)
        assert proc.exited and proc.stdout == expected
        assert len(ckpts) == 4  # 40 polls / 10

    def test_each_periodic_checkpoint_restartable(self, prog, expected):
        _, ckpts = run_with_checkpoints(prog, DEC5000, every_polls=13)
        for ckpt in ckpts:
            r = restart(prog, ckpt, SPARC20)
            r.run()
            assert r.stdout == expected

    def test_max_checkpoints_cap(self, prog, expected):
        proc, ckpts = run_with_checkpoints(
            prog, DEC5000, every_polls=5, max_checkpoints=2
        )
        assert len(ckpts) == 2
        assert proc.exited and proc.stdout == expected

    def test_bad_interval(self, prog):
        with pytest.raises(ValueError):
            run_with_checkpoints(prog, DEC5000, every_polls=0)

    def test_on_checkpoint_hook_called_in_order(self, prog):
        seen = []
        run_with_checkpoints(
            prog, DEC5000, every_polls=10,
            on_checkpoint=lambda ckpt, i: seen.append((i, ckpt.source_arch)),
        )
        assert seen == [(i, DEC5000.name) for i in range(4)]


class TestCrashResume:
    """A host killed mid-run restarts from its last persisted checkpoint
    — on a *different* architecture — and still produces the same final
    output as the uninterrupted run."""

    class HostDied(RuntimeError):
        pass

    def test_kill_midrun_resume_other_arch(self, prog, expected, tmp_path):
        ckpt_file = tmp_path / "periodic.ckpt"

        def persist_then_die(ckpt, i):
            # crash-safe discipline: write the snapshot durably *first*,
            # then (simulated) the host dies after the 2nd checkpoint
            ckpt_file.write_bytes(ckpt.to_bytes())
            if i == 1:
                raise self.HostDied(f"killed after checkpoint {i}")

        with pytest.raises(self.HostDied):
            run_with_checkpoints(
                prog, DEC5000, every_polls=10, on_checkpoint=persist_then_die
            )
        assert ckpt_file.exists()

        # restart on a different architecture from the last durable file
        revived = restart_from_file(prog, ckpt_file, ALPHA)
        proc, later_ckpts = run_with_checkpoints(
            prog, ALPHA, every_polls=10, resume_from=revived
        )
        assert proc.exited and proc.stdout == expected
        # 40 polls total, died after the 20th: 2 more periodic snapshots
        assert len(later_ckpts) == 2
        assert proc.arch.name == ALPHA.name

    def test_kill_at_every_point_always_resumable(self, prog, expected, tmp_path):
        """Exhaustive: whichever checkpoint the crash lands after, the
        resumed run finishes with identical output."""
        for die_after in range(4):
            ckpt_file = tmp_path / f"ckpt-{die_after}.bin"

            def persist(ckpt, i, _f=ckpt_file, _d=die_after):
                _f.write_bytes(ckpt.to_bytes())
                if i == _d:
                    raise self.HostDied

            with pytest.raises(self.HostDied):
                run_with_checkpoints(
                    prog, DEC5000, every_polls=10, on_checkpoint=persist
                )
            revived = restart_from_file(prog, ckpt_file, SPARC20)
            proc, _ = run_with_checkpoints(
                prog, SPARC20, every_polls=10, resume_from=revived
            )
            assert proc.stdout == expected

    def test_resume_from_rejects_foreign_process(self, prog):
        other = compile_program(
            "int main() { migrate_here(); printf(\"x\"); return 0; }",
            poll_strategy="user",
        )
        alien = Process(other, DEC5000)
        alien.start()
        with pytest.raises(CheckpointError, match="different program"):
            run_with_checkpoints(prog, DEC5000, every_polls=5, resume_from=alien)

    def test_checkpoint_of_pointer_state(self):
        """Heap graphs survive disk roundtrips across architectures."""
        src = """
        struct n { int v; struct n *next; };
        struct n *head;
        int main() {
            int i;
            for (i = 0; i < 15; i++) {
                struct n *e = (struct n *) malloc(sizeof(struct n));
                e->v = i * i; e->next = head; head = e;
                migrate_here();
            }
            { int s = 0; struct n *p;
              for (p = head; p != NULL; p = p->next) s += p->v;
              printf("%d", s); }
            return 0;
        }
        """
        prog = compile_program(src, poll_strategy="user")
        base = Process(prog, DEC5000)
        base.run_to_completion()
        proc = stopped(prog, k=8)
        restored = restart(prog, checkpoint(proc), ALPHA)
        restored.run()
        assert restored.stdout == base.stdout
