"""Checkpoint/restart on top of data collection and restoration.

The paper closes §5 noting that "data collection and restoration is a
basic component of network process migration" — the same machinery also
gives *heterogeneous checkpointing* for free: the machine-independent
payload written at a poll-point can be stored on disk and resumed later,
on any architecture, surviving both process and host death.  This module
packages that use case:

- :func:`checkpoint` / :func:`checkpoint_to_file` — snapshot a process
  stopped at a poll-point;
- :func:`restart` / :func:`restart_from_file` — rebuild it (optionally
  on a different architecture) and hand back a runnable process;
- :func:`run_with_checkpoints` — convenience driver: run a program,
  snapshotting every *k* poll-points (periodic checkpointing).

The file format prefixes the migration payload with a small header
(magic, program fingerprint) so accidental cross-program restarts are
rejected instead of producing corrupt processes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.migration.engine import (
    DAMAGE_ERRORS,
    MigrationError,
    RestoreError,
    collect_state,
    restore_state,
)
from repro.vm.process import Process

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "checkpoint",
    "restart",
    "checkpoint_to_file",
    "restart_from_file",
    "run_with_checkpoints",
]

_FILE_MAGIC = b"MIGCKPT1"


class CheckpointError(Exception):
    """Invalid checkpoint payload or mismatched program."""


def program_fingerprint(program) -> bytes:
    """Stable digest identifying a compiled program (its source)."""
    return hashlib.sha256(program.source.encode("utf-8")).digest()[:16]


@dataclass
class Checkpoint:
    """One machine-independent process snapshot."""

    payload: bytes
    fingerprint: bytes
    source_arch: str

    def to_bytes(self) -> bytes:
        """Serialize to the checkpoint file format (magic + fingerprint)."""
        head = _FILE_MAGIC + self.fingerprint
        arch = self.source_arch.encode("utf-8")
        return head + struct.pack(">H", len(arch)) + arch + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        """Parse a checkpoint file; raises CheckpointError on bad magic
        or a header that ends early."""
        if data[: len(_FILE_MAGIC)] != _FILE_MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        off = len(_FILE_MAGIC)
        fingerprint = data[off : off + 16]
        off += 16
        try:
            (alen,) = struct.unpack_from(">H", data, off)
            off += 2
            source_arch = data[off : off + alen].decode("utf-8")
        except (struct.error, UnicodeDecodeError):
            raise CheckpointError("checkpoint file header is cut short or damaged") from None
        off += alen
        return cls(payload=data[off:], fingerprint=fingerprint, source_arch=source_arch)


def checkpoint(process: Process) -> Checkpoint:
    """Snapshot *process* (stopped at a poll-point).

    Unlike a migration, the source process stays alive and can continue
    running after the snapshot (collection does not disturb it).
    """
    payload, _info = collect_state(process)
    return Checkpoint(
        payload=payload,
        fingerprint=program_fingerprint(process.program),
        source_arch=process.arch.name,
    )


def restart(program, ckpt: Checkpoint, arch, name: str = "restarted") -> Process:
    """Rebuild a process from *ckpt* on *arch* (any supported one).

    Raises :class:`CheckpointError` for a checkpoint this build cannot
    restore: another program's, or a payload that is damaged or was
    written in another version of the wire format (there is one format
    per build and no reader for any other).
    """
    if ckpt.fingerprint != program_fingerprint(program):
        raise CheckpointError(
            "checkpoint was taken from a different program "
            "(source fingerprints do not match)"
        )
    proc = Process(program, arch, name=name)
    try:
        restore_state(program, ckpt.payload, proc)
    except (RestoreError, *DAMAGE_ERRORS) as exc:
        raise CheckpointError(f"checkpoint payload cannot be restored: {exc}") from exc
    return proc


def checkpoint_to_file(process: Process, path: str | Path) -> Checkpoint:
    """Snapshot *process* and persist it at *path*."""
    ckpt = checkpoint(process)
    Path(path).write_bytes(ckpt.to_bytes())
    return ckpt


def restart_from_file(program, path: str | Path, arch, name: str = "restarted") -> Process:
    """Rebuild a process from a checkpoint file."""
    ckpt = Checkpoint.from_bytes(Path(path).read_bytes())
    return restart(program, ckpt, arch, name=name)


def run_with_checkpoints(
    program,
    arch,
    every_polls: int,
    max_checkpoints: Optional[int] = None,
    on_checkpoint=None,
    resume_from: Optional[Process] = None,
) -> tuple[Process, list[Checkpoint]]:
    """Run a program to completion, snapshotting every *every_polls*
    poll-points.  Returns the finished process and the checkpoints taken
    (each independently restartable, on any architecture).

    *on_checkpoint* is called as ``on_checkpoint(ckpt, i)`` right after
    the *i*-th snapshot (0-based) — the hook crash-safe checkpointing
    hangs off: persist each snapshot to disk as it is taken, and a host
    that dies mid-run restarts from the last file written (exceptions it
    raises propagate, exactly like a host crash would).  *resume_from*
    continues an already-restored process (e.g. from
    :func:`restart_from_file`) under the same periodic regime instead of
    starting fresh.
    """
    if every_polls < 1:
        raise ValueError("every_polls must be >= 1")
    if resume_from is not None:
        proc = resume_from
        if proc.program is not program:
            raise CheckpointError("resume_from process runs a different program")
    else:
        proc = Process(program, arch)
        proc.start()
    checkpoints: list[Checkpoint] = []
    while True:
        proc.migration_pending = True
        proc.migrate_after_polls = every_polls
        result = proc.run()
        if result.status == "exit":
            return proc, checkpoints
        if result.status != "poll":  # pragma: no cover - defensive
            raise MigrationError(f"unexpected run status {result.status!r}")
        checkpoints.append(checkpoint(proc))
        if on_checkpoint is not None:
            on_checkpoint(checkpoints[-1], len(checkpoints) - 1)
        if max_checkpoints is not None and len(checkpoints) >= max_checkpoints:
            proc.migration_pending = False
            result = proc.run()
            return proc, checkpoints
