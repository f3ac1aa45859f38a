"""Per-estimator circuit breakers for degraded-mode serving.

A failing estimator must not be retried on every optimizer call — the
engine's fallback chain answers instead while the breaker is open, and
the primary is probed again only after a cooldown.  The classic three
states:

``closed``
    Normal serving.  Consecutive failures are counted; reaching
    ``failure_threshold`` trips the breaker open.
``open``
    Calls are skipped outright (the chain moves on) until
    ``cooldown_seconds`` have elapsed on the injected clock.
``half-open``
    After the cooldown one trial call is let through per probe;
    ``half_open_successes`` consecutive successes close the breaker, a
    single failure re-opens it (and restarts the cooldown).

The clock is injectable so tests drive state transitions without
sleeping, and every transition is counted for the engine's
``breaker_state`` metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ResilienceError
from repro.obs import instruments
from repro.obs.metrics import MetricsRegistry

#: The three breaker states, as reported by :attr:`CircuitBreaker.state`.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Thresholds governing one :class:`CircuitBreaker`."""

    failure_threshold: int = 3
    cooldown_seconds: float = 30.0
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ResilienceError(
                f"failure_threshold must be >= 1, got "
                f"{self.failure_threshold}"
            )
        if self.cooldown_seconds <= 0:
            raise ResilienceError(
                f"cooldown_seconds must be > 0, got "
                f"{self.cooldown_seconds}"
            )
        if self.half_open_successes < 1:
            raise ResilienceError(
                f"half_open_successes must be >= 1, got "
                f"{self.half_open_successes}"
            )


class CircuitBreaker:
    """One breaker instance (the engine keeps one per estimator name).

    Every state transition sets the ``repro_breaker_state`` gauge and
    every trip counts on the ``repro_breaker_opens_total`` counter,
    both labeled with ``name``, on ``registry`` — or, without one, on
    the breaker's own always-enabled
    :class:`~repro.obs.metrics.MetricsRegistry`.  :attr:`opens` reads
    that counter.
    """

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
        name: str = "",
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        if registry is None:
            registry = MetricsRegistry()
        self._state_gauge = instruments.breaker_state(registry).labels(
            estimator=name
        )
        self._opens = instruments.breaker_opens(registry).labels(
            estimator=name
        )
        self._consecutive_failures = 0
        self._half_open_successes = 0
        self._opened_at = 0.0
        self._set_state(BREAKER_CLOSED)

    def _set_state(self, state: str) -> None:
        self._state = state
        self._state_gauge.set(instruments.BREAKER_STATE_VALUES[state])

    @property
    def opens(self) -> int:
        """Times the breaker tripped open."""
        return self._opens.value

    @property
    def state(self) -> str:
        """Current state; lazily moves ``open`` → ``half-open`` after the
        cooldown elapses."""
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at
            >= self.policy.cooldown_seconds
        ):
            self._set_state(BREAKER_HALF_OPEN)
            self._half_open_successes = 0
        return self._state

    def allow(self) -> bool:
        """Whether a call may be attempted right now."""
        return self.state != BREAKER_OPEN

    def record_success(self) -> None:
        """Note a successful call through this breaker."""
        if self.state == BREAKER_HALF_OPEN:
            self._half_open_successes += 1
            if (
                self._half_open_successes
                >= self.policy.half_open_successes
            ):
                self._set_state(BREAKER_CLOSED)
                self._consecutive_failures = 0
        else:
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        """Note a failed call; may trip or re-trip the breaker."""
        state = self.state
        if state == BREAKER_HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.policy.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._set_state(BREAKER_OPEN)
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._half_open_successes = 0
        self._opens.inc()

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, opens={self.opens})"
        )
