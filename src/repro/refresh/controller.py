"""The online catalog refresh controller.

One :class:`RefreshController` owns the full refresh loop for a single
index:

1. **Windowed, checkpointed fit** — each cycle consumes the next
   ``window_refs`` positions of the feed through
   :meth:`~repro.estimators.epfis.LRUFit.curve_streaming` under a
   :class:`~repro.resilience.checkpoint.Checkpointer`, retrying
   transient :class:`~repro.errors.FeedError`\\ s with checkpoint
   resume — a killed-and-restarted cycle recomputes the byte-identical
   curve.
2. **Decayed blend** — the fresh window curve is blended with the
   previously emitted record (``decay`` weight on the past), so one
   noisy window cannot yank the served statistics around.
3. **Drift gate** — the cycle reads the catalog once, through the
   store; that read supplies the served record, the co-resident
   indexes a publish keeps, and the bytes a failed publish restores.
   The blended candidate is diffed against the served record via the
   golden-drift comparator (:mod:`repro.refresh.drift`); below
   ``drift_threshold`` nothing is published.
4. **Breaker-guarded roll-forward** — a publish goes through the
   versioned catalog store (archive-then-publish), then *post-publish
   validation* runs: a read-back equality check, an oracle spot-check
   of the published curve, and an engine-cache invalidation probe
   against a long-lived engine.  Failure quarantines the candidate,
   restores the bytes the cycle read, deletes the versions the
   cycle's attempts archived, and records a breaker failure; enough
   consecutive failures open the breaker and later cycles skip
   publishing until the cooldown elapses.

Controller state (feed position, cycle counter, the previously emitted
record) persists in an atomic JSON file, so the loop survives process
death: floats round-trip exactly through JSON, which is what makes the
resumed blend — and therefore the next published curve — byte-identical
to an uninterrupted run.  The rollback target is written beside it
before each publish and deleted once the cycle settles, so a process
that dies mid-rollback leaves it for the next controller to finish.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.buffer.kernels import (
    DEFAULT_KERNEL,
    available_kernels,
    available_policy_kernels,
)
from repro.catalog.catalog import (
    IndexStatistics,
    SystemCatalog,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.catalog.store import CatalogStore
from repro.engine import EstimationEngine
from repro.errors import CatalogError, FeedError, RefreshError
from repro.estimators.epfis import LRUFit, LRUFitConfig
from repro.estimators.registry import get_estimator
from repro.obs import instruments
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import span as obs_span
from repro.refresh.drift import DriftReport, compare_statistics
from repro.resilience.breaker import BreakerPolicy, CircuitBreaker
from repro.resilience.checkpoint import CheckpointPolicy, Checkpointer
from repro.types import ScanSelectivity
from repro.verify.golden import GOLDEN_PROBES

#: Wire-format version of the persisted controller state.
REFRESH_STATE_SCHEMA_VERSION = 1

#: Controller state file name inside the state directory.
REFRESH_STATE_FILENAME = "refresh-state.json"

#: Checkpoint subdirectory for the in-flight cycle's kernel pass.
CYCLE_CHECKPOINT_DIRNAME = "cycle-ckpt"

#: Quarantine subdirectory for candidates that failed validation.
QUARANTINE_DIRNAME = "quarantine"

#: The in-flight publish's rollback target inside the state directory.
ROLLBACK_FILENAME = "rollback.json"

#: Cycle outcome actions (the ``action`` label of
#: ``repro_refresh_cycles_total``).
ACTION_PUBLISHED = "published"
ACTION_SKIPPED = "skipped-below-threshold"
ACTION_BREAKER_OPEN = "breaker-open"
ACTION_ROLLED_BACK = "rolled-back"


@dataclass(frozen=True)
class RefreshConfig:
    """Tunable parameters of one refresh loop."""

    index_name: str
    window_refs: int = 20_000
    #: Weight of the previously emitted curve in the blend (0 = pure
    #: windowed fit, no memory).
    decay: float = 0.5
    #: Relative curve drift above which a candidate is published.
    drift_threshold: float = 0.01
    checkpoint_every: int = 4_096
    kernel: str = DEFAULT_KERNEL
    policy: str = "lru"
    #: Transient feed faults tolerated per cycle before giving up.
    feed_retries: int = 8
    #: Transient faults tolerated per cycle on the publish, and on
    #: the cycle's one catalog read.
    publish_retries: int = 2
    breaker_policy: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: Chaos drill hook: cycles whose publish is deliberately corrupted
    #: (a simulated bad roll-forward) to exercise the rollback path.
    corrupt_publish_cycles: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.index_name:
            raise RefreshError("index_name must be non-empty")
        if self.window_refs < 1:
            raise RefreshError(
                f"window_refs must be >= 1, got {self.window_refs}"
            )
        if not 0.0 <= self.decay < 1.0:
            raise RefreshError(
                f"decay must be in [0, 1), got {self.decay}"
            )
        if self.drift_threshold < 0.0:
            raise RefreshError(
                f"drift_threshold must be >= 0, got "
                f"{self.drift_threshold}"
            )
        if self.checkpoint_every < 1:
            raise RefreshError(
                f"checkpoint_every must be >= 1, got "
                f"{self.checkpoint_every}"
            )
        if self.feed_retries < 0:
            raise RefreshError(
                f"feed_retries must be >= 0, got {self.feed_retries}"
            )
        if self.publish_retries < 0:
            raise RefreshError(
                f"publish_retries must be >= 0, got "
                f"{self.publish_retries}"
            )
        if self.kernel not in available_kernels():
            raise RefreshError(
                f"unknown stack-distance kernel {self.kernel!r}; "
                f"available: {', '.join(available_kernels())}"
            )
        policies = ("lru",) + available_policy_kernels()
        if self.policy not in policies:
            raise RefreshError(
                f"unknown replacement policy {self.policy!r}; "
                f"available: {', '.join(policies)}"
            )


@dataclass(frozen=True)
class RefreshState:
    """Persisted loop state: where the feed stands and what was last
    emitted."""

    position: int = 0
    cycle: int = 0
    previous: Optional[IndexStatistics] = None

    def to_dict(self) -> dict:
        """The JSON-serialisable wire form (exact float round-trip)."""
        return {
            "schema_version": REFRESH_STATE_SCHEMA_VERSION,
            "position": self.position,
            "cycle": self.cycle,
            "previous": (
                self.previous.to_dict()
                if self.previous is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RefreshState":
        """Rebuild persisted state, rejecting unknown schema versions."""
        version = payload.get("schema_version")
        if version != REFRESH_STATE_SCHEMA_VERSION:
            raise RefreshError(
                f"refresh state has schema_version {version!r}; this "
                f"build reads {REFRESH_STATE_SCHEMA_VERSION}"
            )
        previous = payload.get("previous")
        return cls(
            position=payload["position"],
            cycle=payload["cycle"],
            previous=(
                IndexStatistics.from_dict(previous)
                if previous is not None
                else None
            ),
        )


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one refresh cycle."""

    cycle: int
    start_ref: int
    stop_ref: int
    magnitude: float
    action: str
    version: Optional[int]
    drift_lines: Tuple[str, ...] = ()


class _BlendedCurve:
    """A decayed fetch curve: ``decay`` parts previously served record,
    ``1 - decay`` parts fresh window curve.

    Exposes exactly the duck surface
    :meth:`~repro.estimators.epfis.LRUFit.statistics_from_curve`
    consumes (``accesses`` + ``fetches(b)``).  The previous record is
    evaluated through its fitted curve, clamped to its physical
    ``[T, N]`` band the same way Est-IO serves it; the blend is then
    clamped into ``[1, window accesses]`` so the derived ``f_min``
    always validates against the window's record count.
    """

    def __init__(
        self,
        previous: IndexStatistics,
        fresh,
        decay: float,
    ) -> None:
        self._previous = previous
        self._fresh = fresh
        self._decay = decay
        self.accesses = fresh.accesses
        self.distinct_pages = fresh.distinct_pages

    def fetches(self, buffer_pages: int) -> float:
        previous = self._previous
        raw = previous.fpf_curve.evaluate(float(buffer_pages))
        old = min(
            float(previous.table_records),
            max(float(previous.table_pages), raw),
        )
        new = float(self._fresh.fetches(buffer_pages))
        blended = self._decay * old + (1.0 - self._decay) * new
        return min(float(self.accesses), max(1.0, blended))


def _bind_refresh_counters(
    registry: MetricsRegistry,
) -> Dict[str, object]:
    """Resolve the label-less refresh counter children once."""
    return {
        "drift_detected": instruments.refresh_drift_detected(
            registry
        ).labels(),
        "publishes": instruments.refresh_publishes(registry).labels(),
        "rollbacks": instruments.refresh_rollbacks(registry).labels(),
        "quarantined": instruments.refresh_quarantined_candidates(
            registry
        ).labels(),
    }


class RefreshController:
    """The long-lived refresh loop for one index of one catalog store.

    A rollback restores the bytes the cycle read, so it needs nothing
    from the store's version history, and any ``history >= 0`` works.
    The history is for inspection only; a shallow one may lose
    last-known-good's archived version to a cycle's publish attempts,
    never the served bytes.  ``state_dir`` holds the loop's persisted
    state, the in-flight cycle's checkpoint and rollback target, and
    the quarantine of failed candidates.  ``clock`` is injectable so
    tests drive breaker cooldowns without sleeping.
    """

    def __init__(
        self,
        store: CatalogStore,
        feed,
        config: RefreshConfig,
        state_dir: Union[str, Path],
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not isinstance(store, CatalogStore):
            raise RefreshError(
                f"store must be a CatalogStore, got "
                f"{type(store).__name__}"
            )
        self._store = store
        self._feed = feed
        self.config = config
        self._state_dir = Path(state_dir)
        self._clock = clock
        self._fit = LRUFit(
            LRUFitConfig(kernel=config.kernel, policy=config.policy)
        )
        # Truthful counters, the publish breaker's included, on one
        # registry: a private always-enabled one (or the caller's),
        # which forwards to the export while one is attached.
        self._obs_registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._counters = _bind_refresh_counters(self._obs_registry)
        self._breaker = CircuitBreaker(
            config.breaker_policy,
            clock=clock,
            registry=self._obs_registry,
            name=f"refresh:{config.index_name}",
        )
        # The long-lived engine-cache invalidation probe: an engine
        # that lives across publishes, exactly like a serving process.
        self._probe_engine = EstimationEngine(store)
        self._state = self._load_state()
        self._finish_interrupted_rollback()

    # ------------------------------------------------------------------
    # Persisted state
    # ------------------------------------------------------------------
    @property
    def state_path(self) -> Path:
        """The controller's persisted-state file."""
        return self._state_dir / REFRESH_STATE_FILENAME

    @property
    def quarantine_dir(self) -> Path:
        """Where candidates that failed validation are set aside."""
        return self._state_dir / QUARANTINE_DIRNAME

    @property
    def rollback_path(self) -> Path:
        """The in-flight publish's rollback target (absent between
        cycles)."""
        return self._state_dir / ROLLBACK_FILENAME

    @property
    def state(self) -> RefreshState:
        """The current loop state (position, cycle, last emission)."""
        return self._state

    @property
    def breaker(self) -> CircuitBreaker:
        """The publish breaker (tests drive its clock)."""
        return self._breaker

    @property
    def store(self) -> CatalogStore:
        """The versioned catalog store this loop publishes into."""
        return self._store

    def _load_state(self) -> RefreshState:
        try:
            text = self.state_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return RefreshState()
        try:
            return RefreshState.from_dict(json.loads(text))
        except (json.JSONDecodeError, KeyError, CatalogError) as exc:
            raise RefreshError(
                f"refresh state {str(self.state_path)!r} is corrupt: "
                f"{exc}"
            ) from exc

    def _save_state(self) -> None:
        self._state_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.state_path,
            json.dumps(self._state.to_dict(), sort_keys=True),
        )

    def _save_rollback_target(
        self, before: Optional[bytes], newest: int
    ) -> None:
        # ``before`` parsed as a catalog, so it is valid UTF-8.
        self._state_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.rollback_path,
            json.dumps(
                {
                    "catalog": (
                        None if before is None else before.decode("utf-8")
                    ),
                    "newest_version": newest,
                }
            ),
        )

    def _finish_interrupted_rollback(self) -> None:
        """Finish the rollback of a cycle that died before it settled:
        its publish may have landed, so the catalog is restored to the
        bytes that cycle read.  The cycle itself replays, as its state
        never advanced."""
        try:
            text = self.rollback_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        try:
            target = json.loads(text)
            before, newest = target["catalog"], target["newest_version"]
        except (json.JSONDecodeError, KeyError) as exc:
            raise RefreshError(
                f"rollback target {str(self.rollback_path)!r} is "
                f"corrupt: {exc}"
            ) from exc
        self._rollback(
            None if before is None else before.encode("utf-8"), newest
        )
        self.rollback_path.unlink()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """Truthful loop counters (all monotone)."""
        cycles = instruments.refresh_cycles(self._obs_registry)
        return {
            "cycles": {
                labels[0]: child.value
                for labels, child in cycles.children().items()
            },
            "drift_detected": self._counters["drift_detected"].value,
            "publishes": self._counters["publishes"].value,
            "rollbacks": self._counters["rollbacks"].value,
            "quarantined": self._counters["quarantined"].value,
            "breaker_state": self._breaker.state,
            "breaker_opens": self._breaker.opens,
        }

    # ------------------------------------------------------------------
    # The refresh cycle
    # ------------------------------------------------------------------
    def run_cycle(self) -> CycleResult:
        """Consume one window from the feed and roll the catalog
        forward if (and only if) the refreshed curve drifted."""
        started = time.perf_counter_ns()
        cycle = self._state.cycle
        start = self._state.position
        stop = start + self.config.window_refs
        with obs_span(
            "refresh-cycle",
            index=self.config.index_name,
            cycle=cycle,
        ):
            curve = self._window_curve(start, stop)
            candidate = self._candidate_from(curve)
            before, snapshot = self._read_catalog()
            name = self.config.index_name
            served = snapshot.get(name) if name in snapshot else None
            report = compare_statistics(served, candidate)
            action, version = self._roll_forward(
                cycle, before, snapshot, candidate, report
            )
        # The emitted (blended) record advances every cycle — the
        # decayed fit tracks the feed whether or not it published.
        self._state = RefreshState(
            position=stop, cycle=cycle + 1, previous=candidate
        )
        self._save_state()
        instruments.refresh_cycles(self._obs_registry).labels(
            action=action
        ).inc()
        instruments.refresh_cycle_seconds(
            self._obs_registry
        ).labels().observe(time.perf_counter_ns() - started)
        return CycleResult(
            cycle=cycle,
            start_ref=start,
            stop_ref=stop,
            magnitude=report.magnitude,
            action=action,
            version=version,
            drift_lines=report.lines,
        )

    def run(self, cycles: int) -> List[CycleResult]:
        """Run ``cycles`` consecutive refresh cycles."""
        if cycles < 1:
            raise RefreshError(f"cycles must be >= 1, got {cycles}")
        return [self.run_cycle() for _ in range(cycles)]

    def _window_curve(self, start: int, stop: int):
        """The fetch curve of feed positions ``[start, stop)``,
        checkpointed and retried across transient feed faults."""
        checkpointer = Checkpointer(
            self._state_dir / CYCLE_CHECKPOINT_DIRNAME,
            CheckpointPolicy(every_refs=self.config.checkpoint_every),
        )
        attempts = 0
        while True:
            try:
                return self._fit.curve_streaming(
                    self._feed.chunks(start, stop),
                    index_name=self.config.index_name,
                    checkpoint=checkpointer,
                    resume=checkpointer.exists(),
                )
            except FeedError:
                attempts += 1
                if attempts > self.config.feed_retries:
                    raise

    def _candidate_from(self, curve) -> IndexStatistics:
        """The blended candidate record for this cycle's window."""
        previous = self._state.previous
        config = self.config
        if previous is not None and config.decay > 0.0:
            curve = _BlendedCurve(previous, curve, config.decay)
        return self._fit.statistics_from_curve(
            curve,
            table_pages=curve.distinct_pages,
            distinct_keys=curve.distinct_pages,
            index_name=config.index_name,
        )

    def _read_catalog(self) -> Tuple[Optional[bytes], SystemCatalog]:
        """The cycle's one read of the catalog: its bytes and snapshot,
        or ``(None, empty catalog)`` when no file exists.

        A read fault is retried up to ``publish_retries`` times and
        then *propagated*, and a file that does not parse raises:
        treating either as "nothing served" would publish (and validate
        as good: post-publish validation checks only the candidate's
        record) a catalog that silently drops every other index served
        from the same file.
        """
        attempts = 0
        while True:
            try:
                read = self._store.read()
            except OSError:
                attempts += 1
                if attempts > self.config.publish_retries:
                    raise
                continue
            return read if read is not None else (None, SystemCatalog())

    # ------------------------------------------------------------------
    # Publish, validate, roll back
    # ------------------------------------------------------------------
    def _roll_forward(
        self,
        cycle: int,
        before: Optional[bytes],
        snapshot: SystemCatalog,
        candidate: IndexStatistics,
        report: DriftReport,
    ) -> Tuple[str, Optional[int]]:
        if not report.drifted(self.config.drift_threshold):
            return ACTION_SKIPPED, None
        self._counters["drift_detected"].inc()
        if not self._breaker.allow():
            return ACTION_BREAKER_OPEN, None
        text = self._render_catalog(snapshot, candidate)
        if cycle in self.config.corrupt_publish_cycles:
            # The chaos drill: a deliberately bad roll-forward that
            # must be caught by validation and rolled back.
            text = text[: max(1, len(text) // 2)]
        newest = max(self._store.versions(), default=0)
        self._save_rollback_target(before, newest)
        landed, version = self._publish(text)
        if landed and self._validate(candidate):
            self._breaker.record_success()
            self._counters["publishes"].inc()
            action = ACTION_PUBLISHED
        else:
            self._quarantine_candidate(cycle, candidate, report)
            self._rollback(before, newest)
            self._breaker.record_failure()
            self._counters["rollbacks"].inc()
            action = ACTION_ROLLED_BACK
        self.rollback_path.unlink()
        return action, version

    def _render_catalog(
        self, snapshot: SystemCatalog, candidate: IndexStatistics
    ) -> str:
        """The full catalog text with ``candidate`` merged into the
        cycle's snapshot (other indexes served by the same file are
        preserved)."""
        merged = SystemCatalog()
        for name in snapshot:
            if name != candidate.index_name:
                merged.put(snapshot.get(name))
        merged.put(candidate)
        return merged.to_json()

    def _publish(self, text: str) -> Tuple[bool, Optional[int]]:
        """Archive-then-publish through the store, retrying transient
        write faults: whether the write landed, and its archived
        version id (``None`` when the store keeps no history)."""
        for _ in range(self.config.publish_retries + 1):
            try:
                return True, self._store.save_text(text)
            except OSError:
                continue
        return False, None

    def _validate(self, candidate: IndexStatistics) -> bool:
        """Post-publish validation: read-back equality, an oracle
        spot-check of the published curve, and the engine-cache
        invalidation probe."""
        # 1. Read-back through a *fresh* plain store: the published
        #    file must parse and carry exactly the candidate's bytes.
        try:
            readback = CatalogStore(self._store.path).get(
                candidate.index_name
            )
        except (CatalogError, OSError):
            return False
        if readback.to_dict() != candidate.to_dict():
            return False
        # 2. Oracle spot-check: the served curve must be finite,
        #    monotonically non-increasing in B, inside the physical
        #    [1, N] band, and its estimator probes finite and >= 0.
        if not self._oracle_spot_check(readback):
            return False
        # 3. Engine-cache invalidation probe: a long-lived engine over
        #    the same store must now serve the candidate — statistics
        #    and estimates both — proving the new snapshot evicted its
        #    bound estimators.
        return self._engine_probe(candidate)

    def _oracle_spot_check(self, stats: IndexStatistics) -> bool:
        buffers = sorted(
            {
                stats.b_min,
                (stats.b_min + stats.b_max) // 2 or stats.b_min,
                stats.b_max,
            }
        )
        previous = None
        for b in buffers:
            value = stats.fpf_curve.evaluate(float(b))
            if not math.isfinite(value):
                return False
            if value < 0.0 or value > float(stats.table_records) + 0.5:
                return False
            if previous is not None and value > previous + 1e-6:
                return False
            previous = value
        estimator = get_estimator("epfis", stats)
        probes = [
            (ScanSelectivity(sigma, s), b)
            for b in buffers
            for sigma, s in GOLDEN_PROBES
        ]
        return all(
            math.isfinite(v) and v >= 0.0
            for v in estimator.estimate_many(probes)
        )

    def _engine_probe(self, candidate: IndexStatistics) -> bool:
        engine = self._probe_engine
        name = candidate.index_name
        try:
            served = engine.statistics(name)
        except (CatalogError, OSError):
            return False
        if served.to_dict() != candidate.to_dict():
            return False
        probes = [
            (ScanSelectivity(sigma, s), candidate.b_max)
            for sigma, s in GOLDEN_PROBES
        ]
        try:
            via_engine = engine.estimate_many(name, "epfis", probes)
        except (CatalogError, OSError):
            return False
        direct = get_estimator("epfis", candidate).estimate_many(probes)
        return via_engine == direct

    def _quarantine_candidate(
        self,
        cycle: int,
        candidate: IndexStatistics,
        report: DriftReport,
    ) -> None:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "cycle": cycle,
            "magnitude": report.magnitude,
            "candidate": candidate.to_dict(),
        }
        atomic_write_text(
            self.quarantine_dir / f"cycle-{cycle:06d}.json",
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
        )
        self._counters["quarantined"].inc()

    def _rollback(self, before: Optional[bytes], newest: int) -> None:
        """Restore the bytes the cycle read (no file when it read none),
        then delete the versions its publish attempts archived: every
        id above ``newest``, the newest retained before them (0 when
        none was).  None of them may be mistaken for a good version."""
        if before is None:
            self._store.path.unlink(missing_ok=True)
        else:
            atomic_write_bytes(self._store.path, before)
        for version in self._store.versions():
            if version > newest:
                self._store.version_path(version).unlink(missing_ok=True)
        self._store.invalidate()
