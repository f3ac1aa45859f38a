"""Checkpointed, resumable LRU-Fit passes.

The paper's own repro notes flag the operational risk of statistics
collection: the pass is "easy, but large index-entry scans [are] slow".
An interrupted scan losing hours of work is therefore the first failure
this layer removes.  A :class:`Checkpointer` periodically writes an atomic
snapshot of the kernel stream's complete mid-pass state (plus a running
digest of the trace prefix consumed so far); ``LRUFit.run_streaming``
resumes from the latest snapshot by skipping the already-consumed prefix
— verifying it digests to the checkpointed value — and feeding the rest
into the restored stream.

The guarantee is exact, not approximate: because the snapshot captures
the full kernel state and the resumed run consumes exactly the remaining
references, an interrupted-then-resumed pass produces FPF curves (and
hence catalog records) byte-identical to an uninterrupted one.  The
differential test suite pins this for every exact kernel on the
verification corpus.

Checkpoint files are single JSON documents written with the same atomic
tmp + fsync + ``os.replace`` discipline as the catalog, carrying a
schema version, the kernel name, the reference position, the trace
digest, and the base64 stream snapshot guarded by its own SHA-256 — a
truncated or hand-edited checkpoint fails closed with
:class:`~repro.errors.CheckpointError` instead of silently corrupting
statistics.
"""

from __future__ import annotations

import base64
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.buffer.kernels.base import KernelStream
from repro.buffer.kernels.registry import (
    available_kernels,
    available_policy_kernels,
)
from repro.catalog.catalog import atomic_write_text
from repro.errors import CheckpointError
from repro.obs import instruments
from repro.obs.metrics import global_registry

#: Wire-format version of checkpoint files.
CHECKPOINT_SCHEMA_VERSION = 1

#: Default checkpoint cadence in consumed references.
DEFAULT_EVERY_REFS = 100_000

#: File name used inside a checkpoint directory.
CHECKPOINT_FILENAME = "lru-fit.ckpt.json"


def hash_pages(hasher: "hashlib._Hash", pages: Iterable[int]) -> None:
    """Feed ``pages`` into ``hasher`` with a fixed 8-byte encoding.

    The encoding is position-based (chunk-boundary independent), so a
    resumed run may re-chunk the trace arbitrarily and still reproduce
    the checkpointed prefix digest.
    """
    try:
        hasher.update(
            b"".join(p.to_bytes(8, "little") for p in pages)
        )
    except (OverflowError, AttributeError) as exc:
        raise CheckpointError(
            f"trace pages must be ints in [0, 2**64) to be "
            f"checkpointed: {exc}"
        ) from exc


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to snapshot: every N references and/or every T seconds.

    Both triggers are active when both are set; a snapshot is taken as
    soon as either fires (always at a chunk boundary — mid-chunk kernel
    state is never observed).
    """

    every_refs: Optional[int] = DEFAULT_EVERY_REFS
    every_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every_refs is None and self.every_seconds is None:
            raise CheckpointError(
                "checkpoint policy needs every_refs and/or every_seconds"
            )
        if self.every_refs is not None and self.every_refs < 1:
            raise CheckpointError(
                f"every_refs must be >= 1, got {self.every_refs}"
            )
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise CheckpointError(
                f"every_seconds must be > 0, got {self.every_seconds}"
            )


@dataclass(frozen=True)
class CheckpointState:
    """One loaded checkpoint: everything needed to resume the pass."""

    kernel: str
    position: int
    trace_digest: str
    stream: KernelStream


class Checkpointer:
    """Atomic snapshot writer/reader for one LRU-Fit pass.

    Bound to a directory (created on first save); the snapshot lives in a
    single file replaced atomically on every save, so a crash mid-save
    leaves the previous checkpoint intact.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        policy: Optional[CheckpointPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._directory = Path(directory)
        self.policy = policy or CheckpointPolicy()
        self._clock = clock
        self._last_position = 0
        self._last_time = clock()
        #: Snapshots written by this instance (observability/tests).
        self.saves = 0

    @property
    def directory(self) -> Path:
        """The directory this checkpointer writes into."""
        return self._directory

    @property
    def path(self) -> Path:
        """The checkpoint file."""
        return self._directory / CHECKPOINT_FILENAME

    def exists(self) -> bool:
        """Whether a checkpoint file is present."""
        return self.path.exists()

    def due(self, position: int) -> bool:
        """Whether the policy calls for a snapshot at ``position``."""
        policy = self.policy
        if (
            policy.every_refs is not None
            and position - self._last_position >= policy.every_refs
        ):
            return True
        if (
            policy.every_seconds is not None
            and self._clock() - self._last_time >= policy.every_seconds
        ):
            return True
        return False

    def save(
        self,
        stream: KernelStream,
        position: int,
        trace_digest: str,
        kernel: str,
    ) -> None:
        """Atomically snapshot ``stream`` at ``position`` references."""
        timed = global_registry().enabled
        started = time.perf_counter_ns() if timed else 0
        blob = stream.snapshot_state()
        payload = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "kernel": kernel,
            "position": position,
            "trace_digest": trace_digest,
            "stream_sha256": hashlib.sha256(blob).hexdigest(),
            "stream_b64": base64.b64encode(blob).decode("ascii"),
        }
        self._directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, json.dumps(payload, sort_keys=True))
        self._last_position = position
        self._last_time = self._clock()
        self.saves += 1
        if timed:
            instruments.checkpoint_save_seconds().labels().observe(
                time.perf_counter_ns() - started
            )

    def load(self) -> CheckpointState:
        """Read and validate the checkpoint; fail closed on any damage."""
        timed = global_registry().enabled
        started = time.perf_counter_ns() if timed else 0
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise CheckpointError(
                f"no checkpoint found at {str(self.path)!r}; run without "
                f"resume=True to start a fresh pass"
            ) from None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {str(self.path)!r} is not valid JSON: {exc}"
            ) from exc
        version = payload.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {str(self.path)!r} has schema_version "
                f"{version!r}; this build reads "
                f"{CHECKPOINT_SCHEMA_VERSION}"
            )
        try:
            kernel = payload["kernel"]
            position = payload["position"]
            digest = payload["trace_digest"]
            blob = base64.b64decode(payload["stream_b64"])
            expected_sha = payload["stream_sha256"]
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {str(self.path)!r} is missing or has "
                f"malformed fields: {exc!r}"
            ) from None
        if not isinstance(position, int) or position < 1:
            raise CheckpointError(
                f"checkpoint position must be a positive int, got "
                f"{position!r}"
            )
        if hashlib.sha256(blob).hexdigest() != expected_sha:
            raise CheckpointError(
                f"checkpoint {str(self.path)!r} stream snapshot does not "
                f"match its recorded SHA-256; the file is corrupt"
            )
        # Before unpickling: a snapshot of a kernel this build lacks
        # would fail on its missing module, not with the kernel's name.
        if kernel not in available_kernels() + available_policy_kernels():
            raise CheckpointError(
                f"checkpoint {str(self.path)!r} was written by kernel "
                f"{kernel!r}, which this build does not provide; rerun "
                f"without resume to start a fresh pass"
            )
        stream = KernelStream.from_snapshot(blob)
        self._last_position = position
        self._last_time = self._clock()
        if timed:
            instruments.checkpoint_load_seconds().labels().observe(
                time.perf_counter_ns() - started
            )
        return CheckpointState(
            kernel=kernel,
            position=position,
            trace_digest=digest,
            stream=stream,
        )

    def clear(self) -> None:
        """Remove the checkpoint (called after a pass completes)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        return (
            f"Checkpointer(directory={str(self._directory)!r}, "
            f"saves={self.saves})"
        )


def resolve_checkpointer(
    checkpoint: Union["Checkpointer", str, Path, None],
) -> Optional["Checkpointer"]:
    """Coerce a checkpoint spec (directory path or instance) to an
    instance; ``None`` passes through (checkpointing disabled)."""
    if checkpoint is None or isinstance(checkpoint, Checkpointer):
        return checkpoint
    return Checkpointer(checkpoint)
