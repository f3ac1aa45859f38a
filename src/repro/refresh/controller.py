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
3. **Drift gate** — the blended candidate is diffed against the
   currently served record via the golden-drift comparator
   (:mod:`repro.refresh.drift`); below ``drift_threshold`` nothing is
   published.
4. **Breaker-guarded roll-forward** — a publish goes through the
   versioned catalog store (archive-then-publish), then *post-publish
   validation* runs: a read-back equality check, an oracle spot-check
   of the published curve, and an engine-cache invalidation probe
   against a long-lived engine.  Failure quarantines the candidate,
   rolls the store back to last-known-good, and records a breaker
   failure; enough consecutive failures open the breaker and later
   cycles skip publishing until the cooldown elapses.

Controller state (feed position, cycle counter, the previously emitted
record) persists in an atomic JSON file, so the loop survives process
death: floats round-trip exactly through JSON, which is what makes the
resumed blend — and therefore the next published curve — byte-identical
to an uninterrupted run.
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
    #: Transient publish faults tolerated per cycle.
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

    ``store`` must keep enough version history that last-known-good
    survives a whole cycle's publish attempts — rollback is the whole
    point.  Every attempt archives a candidate version and prunes the
    archive to ``history``, and one cycle makes up to
    ``publish_retries + 1`` attempts, so the floor is
    ``publish_retries + 2`` (the attempts plus the last-good version
    they must not evict).  ``state_dir`` holds the loop's persisted
    state, the in-flight cycle's checkpoint, and the quarantine of
    failed candidates.  ``clock`` is injectable so tests drive breaker
    cooldowns without sleeping.
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
        min_history = config.publish_retries + 2
        if store.history < min_history:
            raise RefreshError(
                f"the refresh loop rolls back through the store's "
                f"version history, and a single cycle may archive up "
                f"to publish_retries + 1 = {config.publish_retries + 1} "
                f"candidate versions before rolling back — with "
                f"history={store.history} the pruning would evict "
                f"last-known-good exactly when it is needed; construct "
                f"the store with history >= {min_history}"
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
            served = self._served_record()
            report = compare_statistics(served, candidate)
            action, version = self._roll_forward(
                cycle, served, candidate, report
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

    def _served_record(self) -> Optional[IndexStatistics]:
        """The currently served record, or ``None`` when nothing is."""
        try:
            return self._store.get(self.config.index_name)
        except (CatalogError, OSError):
            return None

    # ------------------------------------------------------------------
    # Publish, validate, roll back
    # ------------------------------------------------------------------
    def _roll_forward(
        self,
        cycle: int,
        served: Optional[IndexStatistics],
        candidate: IndexStatistics,
        report: DriftReport,
    ) -> Tuple[str, Optional[int]]:
        if not report.drifted(self.config.drift_threshold):
            return ACTION_SKIPPED, None
        self._counters["drift_detected"].inc()
        if not self._breaker.allow():
            return ACTION_BREAKER_OPEN, None
        last_good = self._store.current_version()
        pre_publish = self._pre_publish_bytes()
        text = self._render_catalog(candidate)
        if cycle in self.config.corrupt_publish_cycles:
            # The chaos drill: a deliberately bad roll-forward that
            # must be caught by validation and rolled back.
            text = text[: max(1, len(text) // 2)]
        version = self._publish(text)
        if version is not None and self._validate(candidate):
            self._breaker.record_success()
            self._counters["publishes"].inc()
            return ACTION_PUBLISHED, version
        self._quarantine_candidate(cycle, candidate, report)
        self._rollback(last_good, pre_publish)
        self._breaker.record_failure()
        self._counters["rollbacks"].inc()
        return ACTION_ROLLED_BACK, version

    def _pre_publish_bytes(self) -> Optional[bytes]:
        try:
            return self._store.path.read_bytes()
        except OSError:
            return None

    def _render_catalog(self, candidate: IndexStatistics) -> str:
        """The full catalog text with ``candidate`` merged in (other
        indexes served by the same file are preserved)."""
        merged = SystemCatalog()
        snapshot = self._merge_snapshot()
        if snapshot is not None:
            for name in snapshot:
                if name != candidate.index_name:
                    merged.put(snapshot.get(name))
        merged.put(candidate)
        return merged.to_json()

    def _merge_snapshot(self) -> Optional[SystemCatalog]:
        """The served snapshot whose co-resident indexes a publish must
        preserve; ``None`` only when no catalog file exists at all.

        A transient read fault is retried and then *propagated* — and a
        corrupt existing file raises outright — because treating either
        as an empty snapshot would render (and then publish, and then
        validate as "good": post-publish validation only checks the
        candidate's record) a catalog that silently drops every other
        index served from the same file.
        """
        attempts = 0
        while True:
            try:
                return self._store.catalog()
            except CatalogError:
                if self._store.path.exists():
                    raise
                return None
            except OSError:
                attempts += 1
                if attempts > self.config.publish_retries:
                    raise

    def _publish(self, text: str) -> Optional[int]:
        """Archive-then-publish through the store, retrying transient
        write faults; ``None`` when the publish never landed."""
        for _ in range(self.config.publish_retries + 1):
            try:
                return self._store.save_text(text)
            except OSError:
                continue
        return None

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

    def _rollback(
        self,
        last_good: Optional[int],
        pre_publish: Optional[bytes],
    ) -> None:
        """Restore last-known-good after a failed publish."""
        if last_good is not None:
            try:
                self._store.rollback(version=last_good)
                return
            except CatalogError:
                # The archive no longer retains last-known-good.  The
                # history floor enforced at construction makes this
                # unreachable through the controller's own publish
                # attempts, but an out-of-band save against the same
                # store can still prune it away — fall through to the
                # raw pre-publish restore rather than abandoning the
                # rollback with the bad candidate still published.
                pass
        # Nothing retained predates this cycle's publish attempts
        # (first publish ever, a catalog written before history
        # existed, or a pruned-away last-good): every archived version
        # is an abandoned attempt, so drop them all — none may ever be
        # mistaken for a good version — then restore the raw
        # pre-publish bytes exactly as captured (they may not be valid
        # UTF-8; a corrupt pre-existing catalog is one reason last_good
        # can be None in the first place).
        for stale in self._store.versions():
            try:
                self._store.version_path(stale).unlink()
            except OSError:
                pass
        if pre_publish is not None:
            atomic_write_bytes(self._store.path, pre_publish)
        else:
            try:
                self._store.path.unlink()
            except OSError:
                pass
        self._store.invalidate()
