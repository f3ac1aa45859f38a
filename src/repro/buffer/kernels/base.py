"""Provider interface for trace-to-fetch-curve analysis passes.

A :class:`FetchCurveProvider` is one interchangeable implementation of
the pass that turns a page-reference trace into a queryable
``B -> F(B)`` fetch curve.  The classic providers are the
:class:`StackDistanceKernel` subclasses — Mattson passes exploiting
LRU's stack property (Section 4.1 of the paper); simulated-policy
kernels (:mod:`repro.buffer.kernels.policy`) extend the same interface
to non-stack replacement policies.  All providers share two entry
points:

* :meth:`FetchCurveProvider.analyze` — one-shot analysis of a full trace.
* :meth:`FetchCurveProvider.stream` — a :class:`KernelStream` that accepts
  the trace in arbitrary chunks, so LRU-Fit can consume generator-produced
  references without materializing the whole trace in memory.

Exact kernels (``exact = True``) are required to produce results
*bit-identical* to :func:`repro.buffer.stack.stack_distances` — the same
:class:`~repro.buffer.stack.FetchCurve` dataclass, equal field-for-field.
Approximate kernels return a curve-compatible estimate and document their
error bound (see :mod:`repro.buffer.kernels.sampled`).
"""

from __future__ import annotations

import abc
import pickle
import time
from typing import ClassVar, Iterable

from repro.errors import CheckpointError, KernelError
from repro.obs import instruments
from repro.obs.metrics import global_registry


def _record_kernel_pass(
    kernel_name: str, references: int, elapsed_ns: int
) -> None:
    """Publish one finished pass's profile to the global registry.

    Called from both the streaming path (:meth:`KernelStream.finish`)
    and one-shot fast paths that bypass streams; a no-op while the
    global registry is disabled.
    """
    if not global_registry().enabled:
        return
    labels = {"kernel": kernel_name}
    instruments.kernel_references().labels(**labels).inc(references)
    instruments.kernel_feed_seconds().labels(**labels).inc(elapsed_ns)
    if elapsed_ns > 0:
        instruments.kernel_references_per_second().labels(**labels).set(
            references * 1e9 / elapsed_ns
        )


class KernelStream(abc.ABC):
    """Incremental (chunked) trace consumption for one analysis pass.

    Feed page references in any number of chunks, then call :meth:`finish`
    exactly once to obtain the fetch curve.  Streams are single-use: after
    ``finish()`` both methods raise :class:`~repro.errors.KernelError`.

    Streams are also *snapshotable*: :meth:`snapshot_state` serializes the
    complete mid-pass state so a long statistics scan can be checkpointed
    and later resumed with :meth:`from_snapshot` — feeding the restored
    stream the remaining references produces output identical to an
    uninterrupted pass (see :mod:`repro.resilience.checkpoint`).
    """

    _finished: bool = False
    # Class-level defaults keep pre-observability pickled snapshots
    # loadable: a restored stream missing these attributes falls back
    # here instead of raising AttributeError.
    kernel_name: str = "unknown"
    _obs_feed_ns: int = 0

    def feed(self, pages: Iterable[int]) -> None:
        """Consume the next chunk of page references."""
        if self._finished:
            raise KernelError("cannot feed a finished kernel stream")
        if not global_registry().enabled:
            self._consume(pages)
            return
        started = time.perf_counter_ns()
        try:
            self._consume(pages)
        finally:
            self._obs_feed_ns = self._obs_feed_ns + (
                time.perf_counter_ns() - started
            )

    def finish(self):
        """Close the stream and return the fetch curve for everything fed.

        Raises :class:`~repro.errors.TraceError` when no references were
        fed (matching ``FetchCurve.from_trace`` on an empty trace) and
        :class:`~repro.errors.KernelError` on a second call.
        """
        if self._finished:
            raise KernelError("kernel stream already finished")
        self._finished = True
        if not global_registry().enabled:
            return self._result()
        started = time.perf_counter_ns()
        curve = self._result()
        elapsed = self._obs_feed_ns + (
            time.perf_counter_ns() - started
        )
        _record_kernel_pass(
            self.kernel_name, getattr(curve, "accesses", 0), elapsed
        )
        return curve

    def snapshot_state(self) -> bytes:
        """The stream's complete mid-pass state, serialized.

        Every built-in stream keeps only picklable state (dicts, lists,
        integers, numpy arrays), so the default pickle round-trip restores
        it exactly; a kernel holding unpicklable state must override this
        pair.
        Snapshots are internal wire data for checkpoints — not a stable
        cross-version format.
        """
        if self._finished:
            raise KernelError("cannot snapshot a finished kernel stream")
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    def shard_summary(self):
        """Close the stream and return a mergeable shard summary.

        Sharded passes (:mod:`repro.buffer.kernels.sharded`) feed each
        contiguous shard of a trace into its own stream and call this
        instead of :meth:`finish`; the summaries are later combined by
        the kernel's merge function into the same curve a single pass
        would have produced.  Kernels that support sharding override
        this; the default refuses, so the orchestrator fails loudly for
        unmergeable kernels instead of returning a wrong curve.
        """
        raise KernelError(
            f"kernel {self.kernel_name!r} streams do not produce "
            f"mergeable shard summaries"
        )

    def _close_for_summary(self) -> None:
        """Mark the stream finished on behalf of :meth:`shard_summary`.

        Shard summaries consume the stream exactly like :meth:`finish`
        does: a second close (or a later ``feed``) must raise.
        """
        if self._finished:
            raise KernelError("kernel stream already finished")
        self._finished = True

    @staticmethod
    def from_snapshot(blob: bytes) -> "KernelStream":
        """Rebuild a stream from :meth:`snapshot_state` output."""
        try:
            stream = pickle.loads(blob)
        except CheckpointError:  # a stream refusing an old layout
            raise
        except Exception as exc:
            raise CheckpointError(
                f"kernel stream snapshot failed to deserialize: {exc}"
            ) from exc
        if not isinstance(stream, KernelStream):
            raise CheckpointError(
                f"snapshot did not contain a kernel stream, got "
                f"{type(stream).__name__}"
            )
        return stream

    @abc.abstractmethod
    def _consume(self, pages: Iterable[int]) -> None:
        """Implementation hook: ingest one chunk."""

    @abc.abstractmethod
    def _result(self):
        """Implementation hook: build the final curve."""


class FetchCurveProvider(abc.ABC):
    """Anything that turns a reference trace into a ``B -> F(B)`` curve.

    This is the policy-parametric generalization of the original
    stack-distance kernel interface.  A provider names the replacement
    ``policy`` whose fetch counts its curves report; the stack-distance
    kernels are all ``policy = "lru"`` (the paper's model), while
    :class:`~repro.buffer.kernels.policy.SimulatedPolicyKernel` replays a
    :class:`~repro.buffer.pool.BufferPool` simulator per buffer size for
    non-stack policies (CLOCK, 2Q, LeCaR/TinyLFU).

    Every provider shares the same entry points:

    * :meth:`analyze` — one-shot analysis of a full trace.
    * :meth:`stream` — a :class:`KernelStream` accepting chunked feeds,
      with snapshot/resume checkpointing and pass metrics for free.

    Provider instances are stateless between calls and safe to reuse
    across traces; all per-trace state lives in the stream.
    """

    #: Registry key; also what ``LRUFitConfig.kernel`` and the CLI accept.
    name: ClassVar[str] = "abstract"
    #: True when results are bit-identical to the provider's own ground
    #: truth (the baseline Fenwick pass for LRU kernels; the policy's
    #: ``BufferPool`` simulator for simulated-policy kernels).
    exact: ClassVar[bool] = True
    #: True when :meth:`reseeded` produces a distinctly-seeded kernel.
    #: Exact kernels are deterministic functions of the trace alone and
    #: leave this False.
    seedable: ClassVar[bool] = False
    #: The replacement policy whose fetch counts this provider's curves
    #: report.  ``"lru"`` for every stack-distance kernel.
    policy: ClassVar[str] = "lru"
    #: True when streams produce mergeable shard summaries (see
    #: :meth:`KernelStream.shard_summary`); per-size replay providers
    #: cannot merge contiguous shards and leave this False.
    mergeable: ClassVar[bool] = False

    @abc.abstractmethod
    def _new_stream(self) -> KernelStream:
        """Implementation hook: a fresh single-use stream."""

    def stream(self) -> KernelStream:
        """A fresh single-use stream for one trace.

        The stream is tagged with this kernel's registry ``name`` so the
        pass profile it publishes at ``finish()`` (references consumed,
        feed time, references/second) is labeled per kernel.
        """
        s = self._new_stream()
        s.kernel_name = self.name
        return s

    def analyze(self, trace: Iterable[int]):
        """One-shot analysis: stream the whole ``trace`` and finish."""
        s = self.stream()
        s.feed(trace)
        return s.finish()

    def reseeded(
        self, seed: int, *, require: bool = False
    ) -> "FetchCurveProvider":
        """A copy of this kernel keyed to ``seed``.

        Deterministic parallel runs derive one seed per scan and call this
        so every worker sees the same randomness regardless of scheduling.
        The base-class contract is explicit: exact kernels are seed-free
        no-ops returning ``self``; seedable kernels (``seedable = True``,
        e.g. the SHARDS-style sampled kernel) override this to return a
        reconfigured copy.  Callers that genuinely depend on the seed
        taking effect — sharded sampled passes must share one hash seed
        across workers — pass ``require=True``, which turns the silent
        no-op into a :class:`~repro.errors.KernelError`.
        """
        if require and not self.seedable:
            raise KernelError(
                f"kernel {self.name!r} does not support seeding but the "
                f"caller requires seed {seed} to take effect"
            )
        del seed
        return self


class StackDistanceKernel(FetchCurveProvider):
    """One pluggable implementation of the LRU stack-distance pass.

    Subclasses set ``name`` (the registry key) and ``exact`` (whether the
    kernel reproduces the baseline bit-for-bit) and implement
    :meth:`stream`.  All stack kernels rely on LRU's stack (inclusion)
    property — one pass yields F(B) for every B simultaneously — so the
    policy dimension is pinned to ``"lru"`` here.
    """

    policy: ClassVar[str] = "lru"
    #: Every built-in stack kernel supports the shard-and-merge pass
    #: (:mod:`repro.buffer.kernels.sharded`).
    mergeable: ClassVar[bool] = True
