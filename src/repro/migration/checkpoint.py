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

A checkpoint file is a migration at rest: a header (magic, program
fingerprint — so accidental cross-program restarts are rejected instead
of producing corrupt processes) followed by exactly the frames one
serial transfer attempt sends (:mod:`repro.msr.wire`: the payload as
one CRC-carrying chunk, then the terminator).  Restarting from a file is
the receive half of a migration: the same :class:`ChunkDecoder` checks
the frames, and damage it finds is a :class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
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
from repro.msr.wire import (
    CHUNK_HEADER_SIZE,
    ChunkDecoder,
    WireFrameError,
    encode_chunk,
    encode_end_of_stream,
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

_FILE_MAGIC = b"MIGCKPT2"
_FINGERPRINT_SIZE = 16


class CheckpointError(Exception):
    """Invalid checkpoint payload or mismatched program."""


def program_fingerprint(program) -> bytes:
    """Stable digest identifying a compiled program (its source)."""
    return hashlib.sha256(program.source.encode("utf-8")).digest()[:_FINGERPRINT_SIZE]


@dataclass
class Checkpoint:
    """One machine-independent process snapshot: the payload restores
    on any architecture, and nothing in it names the one it was taken
    on."""

    payload: bytes
    fingerprint: bytes

    def save(self, path: str | Path) -> None:
        """Persist as a checkpoint file: the header, then the frames of
        one serial attempt, each written as it is built."""
        with open(path, "wb") as fh:
            fh.write(_FILE_MAGIC + self.fingerprint)
            fh.write(encode_chunk(0, self.payload))
            fh.write(encode_end_of_stream(1))


def _received(body: memoryview) -> bytes:
    """The payload a file body's chunk stream carries, each frame cut at
    the length its header claims and checked by the receiver's decoder:
    damage, a missing terminator or bytes after it raise the typed
    :class:`~repro.msr.wire.WireFrameError` family."""
    decoder, chunks, at = ChunkDecoder(), [], 0
    while at < len(body) or not decoder.finished:
        end = at + CHUNK_HEADER_SIZE + int.from_bytes(body[at + 8 : at + 12], "big")
        chunk = decoder.decode(body[at:end])
        if chunk is not None:
            chunks.append(chunk)
        at = end
    return b"".join(chunks)


def checkpoint(process: Process) -> Checkpoint:
    """Snapshot *process* (stopped at a poll-point).

    Unlike a migration, the source process stays alive and can continue
    running after the snapshot (collection does not disturb it).
    """
    payload, _info = collect_state(process)
    return Checkpoint(payload=payload, fingerprint=program_fingerprint(process.program))


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
    ckpt.save(path)
    return ckpt


def restart_from_file(program, path: str | Path, arch, name: str = "restarted") -> Process:
    """Rebuild a process from a checkpoint file (see the module
    docstring for its layout; there is one, and no reader for another)."""
    data = memoryview(Path(path).read_bytes())
    head = len(_FILE_MAGIC) + _FINGERPRINT_SIZE
    if data[: len(_FILE_MAGIC)] != _FILE_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    try:
        payload = _received(data[head:])
    except WireFrameError as exc:
        raise CheckpointError(f"checkpoint file is damaged: {exc}") from exc
    ckpt = Checkpoint(payload=payload, fingerprint=bytes(data[len(_FILE_MAGIC) : head]))
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
    hangs off: persist each snapshot as it is taken (``ckpt.save(path)``,
    the file :func:`checkpoint_to_file` writes), and a host that dies
    mid-run restarts from the last file written (exceptions it raises
    propagate, exactly like a host crash would).  *resume_from*
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
