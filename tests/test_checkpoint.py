"""Tests for heterogeneous checkpoint/restart (built on collect/restore):
a checkpoint file is a migration at rest, and restarting from one is
the receive half of a migration."""

from contextlib import contextmanager
from functools import cache

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, X86_64
from repro.arch.buffers import ReadBuffer, WriteBuffer
from repro.difftest.corpus import load_corpus
from repro.migration.checkpoint import (
    Checkpoint,
    CheckpointError,
    checkpoint,
    checkpoint_to_file,
    program_fingerprint,
    restart,
    restart_from_file,
    run_with_checkpoints,
)
from repro.migration.engine import (
    MigrationEngine,
    RestoreError,
    collect_state,
    restore_state,
)
from repro.msr.wire import read_header, write_header
from repro.vm.process import Process
from repro.vm.program import compile_program
from tests.conftest import FrameCodecCases, RecordingChannel, cli_exit

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
        """A checkpoint written by a build with another wire format — 3,
        whose every BLOCK record carried its type, 4, whose every heap
        BLOCK record carried its serial, or one not yet written: one
        typed one-line error that names both versions, not the reader's
        ``ValueError``."""
        from repro.msr.wire import VERSION

        for version in (3, 4, 9):
            ckpt = checkpoint(stopped(prog))
            assert ckpt.payload[4] == VERSION
            ckpt.payload = ckpt.payload[:4] + bytes([version]) + ckpt.payload[5:]
            path = tmp_path / f"v{version}.ckpt"
            ckpt.save(path)
            with pytest.raises(
                CheckpointError,
                match=f"version {version}: this build reads and writes version {VERSION} only",
            ) as excinfo:
                restart_from_file(prog, path, DEC5000)
            assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize("keep", [0.5, 0.95, 20, 10], ids=str)
    def test_truncated_file_rejected(self, prog, tmp_path, keep):
        """Cut in the frames (a ``TruncatedFrameError`` from the
        receiver) or in the file header: a ``CheckpointError`` either way."""
        path = tmp_path / "cut.ckpt"
        checkpoint(stopped(prog)).save(path)
        data = path.read_bytes()
        cut = int(len(data) * keep) if keep < 1 else keep
        path.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            restart_from_file(prog, path, DEC5000)

    def test_serialization_roundtrip(self, prog, tmp_path):
        """The file is the header and the frames of one serial attempt,
        and what a restart rebuilds from it collects to the same payload."""
        ckpt = checkpoint(stopped(prog))
        path = tmp_path / "snap.ckpt"
        ckpt.save(path)
        data = path.read_bytes()
        assert data[:24] == b"MIGCKPT2" + ckpt.fingerprint
        assert data[24:28] == b"MCHK" and data[-16:-12] == b"MCHK"
        assert len(data) == 24 + 16 + len(ckpt.payload) + 16
        assert collect_state(restart_from_file(prog, path, DEC5000))[0] == ckpt.payload


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
        _, ckpts = run_with_checkpoints(
            prog, DEC5000, every_polls=10,
            on_checkpoint=lambda ckpt, i: seen.append((i, ckpt)),
        )
        assert len(ckpts) == 4 and seen == list(enumerate(ckpts))


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
            ckpt.save(ckpt_file)
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
                ckpt.save(_f)
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


# -- a checkpoint file is wire bytes at rest --------------------------------


@cache
def _snapshot() -> tuple:
    """COUNTER compiled once, and a checkpoint of it at its tenth poll."""
    prog = compile_program(COUNTER, poll_strategy="user")
    return prog, checkpoint(stopped(prog))


class TestCheckpointFile(FrameCodecCases):
    """The shared damage matrix, read as ``restart_from_file`` reads a
    file body: every kind of frame damage is one :class:`CheckpointError`
    whose cause is the receiver's typed wire error."""

    @pytest.fixture(autouse=True)
    def _file(self, tmp_path):
        self.path = tmp_path / "frames.ckpt"

    @property
    def payload(self):
        return _snapshot()[1].payload

    def read(self, frames):
        prog, ckpt = _snapshot()
        self.path.write_bytes(b"MIGCKPT2" + ckpt.fingerprint + b"".join(frames))
        return collect_state(restart_from_file(prog, self.path, DEC5000))[0]

    @contextmanager
    def refused(self, error, match=None):
        with pytest.raises(CheckpointError, match=match) as excinfo:
            yield
        assert isinstance(excinfo.value.__cause__, error)

    def test_bytes_after_the_terminator_are_refused(self):
        _snapshot()[1].save(self.path)
        with self.path.open("ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CheckpointError, match="after end-of-stream"):
            restart_from_file(_snapshot()[0], self.path, DEC5000)

    def test_the_body_is_a_serial_attempt(self, prog):
        """After its 24-byte header (magic, fingerprint) a checkpoint
        file holds exactly the bytes a serial migration attempt of the
        same state puts on its channel."""
        proc = stopped(prog)
        checkpoint_to_file(proc, self.path)
        channel = RecordingChannel()
        MigrationEngine().migrate(proc, SPARC20, channel=channel)
        body = self.path.read_bytes()[len(b"MIGCKPT2") + 16 :]
        assert body == b"".join(channel.sent)


#: the program of ROADMAP item 8: eight doubles, one poll, the doubles
#: printed after it (a flipped mantissa bit prints a different number)
HALVES = """double a[8];
int main() {
    int i;
    for (i = 0; i < 8; i++) a[i] = i * 0.5;
    migrate_here();
    for (i = 0; i < 8; i++) printf("%.2f\\n", a[i]);
    return 0;
}
"""


def assert_every_flip_refused_or_harmless(prog, data: bytes, arch, expected, path):
    """Flip each bit of checkpoint file *data* in turn: the restart is
    refused with a :class:`CheckpointError` (``repro restart``: one line,
    exit 1) or runs to *expected*.  Anything else — other output, a
    guest fault, any other exception — fails the test."""
    for bit in range(len(data) * 8):
        damaged = bytearray(data)
        damaged[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(damaged)
        try:
            proc = restart_from_file(prog, path, arch)
        except CheckpointError:
            continue
        assert proc.run().status == "exit", bit
        assert proc.stdout == expected, bit


def _forged(payload: bytes, pc: int) -> bytes:
    """*payload* with its innermost frame's resume pc rewritten."""
    rbuf = ReadBuffer(payload)
    header = read_header(rbuf)
    func_idx, _ = header.frames[-1]
    header.frames[-1] = (func_idx, pc)
    buf = WriteBuffer()
    write_header(buf, header)
    return buf.getvalue() + bytes(rbuf.buffered())


class TestDamageIsCaught:
    def test_every_bit_flip_of_a_checkpoint_file(self, tmp_path):
        """Every single-bit flip of the file, header included: refused
        or harmless, never a different answer and never a traceback."""
        prog = compile_program(HALVES, poll_strategy="user")
        path = tmp_path / "halves.ckpt"
        checkpoint_to_file(stopped(prog, k=1, arch=X86_64), path)
        expected = "".join(f"{i * 0.5:.2f}\n" for i in range(8))
        restored = restart_from_file(prog, path, SPARC20)
        restored.run()
        assert restored.stdout == expected
        assert_every_flip_refused_or_harmless(
            prog, path.read_bytes(), SPARC20, expected, tmp_path / "flip.ckpt"
        )

    def test_a_file_of_the_retired_format_is_refused(self, tmp_path, capsys):
        """The raw-payload format (magic, fingerprint, arch name, the
        payload bare) has no reader: one line, exit 1."""
        source = tmp_path / "halves.c"
        source.write_text(HALVES)
        prog = compile_program(HALVES, poll_strategy="user")
        ckpt = checkpoint(stopped(prog, k=1))
        old = tmp_path / "old.ckpt"
        old.write_bytes(
            b"MIGCKPT1" + ckpt.fingerprint + b"\x00\x07dec5000" + ckpt.payload
        )
        code, line = cli_exit(
            ["restart", str(source), str(old), "--poll-strategy", "user"], capsys
        )
        assert code == 1
        assert line == "repro: error: restart failed: not a checkpoint file (bad magic)"

    @pytest.mark.parametrize("where", ["start", "past-the-end"])
    def test_a_forged_resume_pc_is_refused(self, where):
        """A frame table naming a pc that no poll-point or call resumes
        at is damage, however well the bytes are framed: a typed
        ``RestoreError`` before the destination runs a single
        instruction there (it used to restore cleanly and die in the
        interpreter on ``code[pc]``)."""
        prog = compile_program(HALVES, poll_strategy="user")
        payload, _ = collect_state(stopped(prog, k=1))
        main = prog.function("main")
        pc = 0 if where == "start" else len(main.code) + 7
        with pytest.raises(RestoreError, match=f"main\\(\\) at pc {pc}"):
            restore_state(prog, _forged(payload, pc), Process(prog, SPARC20))

    def test_restart_of_a_reframed_forged_pc_is_one_line(self, tmp_path, capsys):
        """The same forgery behind a valid CRC — what any peer could
        send — is ``repro restart``'s one line and exit 1."""
        source = tmp_path / "halves.c"
        source.write_text(HALVES)
        prog = compile_program(HALVES, poll_strategy="user")
        payload, _ = collect_state(stopped(prog, k=1))
        path = tmp_path / "forged.ckpt"
        Checkpoint(_forged(payload, 1 << 20), program_fingerprint(prog)).save(path)
        code, line = cli_exit(
            ["restart", str(source), str(path), "--poll-strategy", "user"], capsys
        )
        assert code == 1
        assert line.startswith("repro: error: restart failed: ")
        assert "pc 1048576" in line


@pytest.mark.fuzz
@pytest.mark.parametrize("entry", load_corpus(), ids=lambda e: e.name)
def test_every_bit_flip_of_a_corpus_checkpoint(entry, tmp_path):
    """Nightly: the bit-flip sweep over a checkpoint of every corpus
    program at its first poll, restarted across an endianness flip."""
    prog = compile_program(entry.source, poll_strategy="user")
    path = tmp_path / "corpus.ckpt"
    checkpoint_to_file(stopped(prog, k=1), path)
    reference = restart_from_file(prog, path, SPARC20)
    reference.run()
    assert_every_flip_refused_or_harmless(
        prog, path.read_bytes(), SPARC20, reference.stdout, tmp_path / "flip.ckpt"
    )
