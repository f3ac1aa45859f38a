"""Admission control for the serving tier.

The estimation service is advisory infrastructure: when it is
overloaded the right behaviour is to *shed* — answer "try again" fast —
rather than queue unboundedly and serve every caller slowly.
:class:`AdmissionController` implements the simplest truthful form:
queue-depth shedding.  A request is admitted only while the number of
admitted-but-unfinished requests is below ``max_queue``; everything
else is rejected **and counted**, per reason, so the load generator can
assert ``sent == completed + rejected`` exactly (no dropped-but-
unreported requests, the acceptance criterion the CI smoke run pins).

Reasons are a closed set:

* ``queue_full`` — shed by depth;
* ``closed``     — the server is draining/stopped;
* ``invalid``    — the request itself was malformed (bad tenant name,
  non-positive buffer count): never enqueued, never silently dropped.

Estimator-level failures are *not* admission failures: an admitted
request whose estimator raises gets a failed future (and the engine's
own error/degraded counters), not a rejection.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.errors import ServingError
from repro.obs import instruments
from repro.obs.metrics import MetricsRegistry

#: Admission-control states reported by :meth:`AdmissionController.state`.
STATE_ACCEPTING = "accepting"
STATE_SHEDDING = "shedding"
STATE_CLOSED = "closed"

REJECT_QUEUE_FULL = "queue_full"
REJECT_CLOSED = "closed"
REJECT_INVALID = "invalid"

#: Default bound on admitted-but-unfinished requests.
DEFAULT_MAX_QUEUE = 1024


class AdmissionController:
    """Queue-depth shedding with truthful per-reason reject counters."""

    def __init__(
        self,
        max_queue: int = DEFAULT_MAX_QUEUE,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_queue < 1:
            raise ServingError(
                f"max_queue must be >= 1, got {max_queue}"
            )
        self._max_queue = max_queue
        self._closed = False
        self._lock = threading.Lock()
        self._rejected = instruments.serving_rejected(
            registry if registry is not None else MetricsRegistry()
        )
        self._last_shed = False

    @property
    def max_queue(self) -> int:
        """The depth bound admission enforces."""
        return self._max_queue

    def admit(self, depth: int) -> None:
        """Admit a request observed at queue ``depth`` or raise.

        Raises :class:`~repro.errors.ServingError` — after counting the
        rejection — when the server is closed or the queue is full.
        """
        with self._lock:
            if self._closed:
                self._rejected.labels(reason=REJECT_CLOSED).inc()
                raise ServingError(
                    "serving tier is closed and not accepting requests"
                )
            if depth >= self._max_queue:
                self._last_shed = True
                self._rejected.labels(reason=REJECT_QUEUE_FULL).inc()
                raise ServingError(
                    f"serving queue is full ({depth} >= "
                    f"{self._max_queue} queued requests); shedding"
                )
            self._last_shed = False

    def reject_invalid(self, reason: str) -> ServingError:
        """Count a malformed request and return the error to raise."""
        self._rejected.labels(reason=REJECT_INVALID).inc()
        return ServingError(reason)

    def close(self) -> None:
        """Stop admitting; in-flight requests are unaffected."""
        with self._lock:
            self._closed = True

    def state(self, depth: int = 0) -> str:
        """Current admission state at queue ``depth``."""
        with self._lock:
            if self._closed:
                return STATE_CLOSED
            if depth >= self._max_queue or self._last_shed:
                return STATE_SHEDDING
            return STATE_ACCEPTING

    def rejected(self) -> Dict[str, int]:
        """Per-reason rejection counts (all reasons, zero-filled)."""
        counts = {
            REJECT_QUEUE_FULL: 0,
            REJECT_CLOSED: 0,
            REJECT_INVALID: 0,
        }
        for (reason,), child in self._rejected.children().items():
            counts[reason] = child.value
        return counts

    def total_rejected(self) -> int:
        """Every rejection this controller ever issued."""
        return sum(self.rejected().values())

    def __repr__(self) -> str:
        return (
            f"AdmissionController(max_queue={self._max_queue}, "
            f"rejected={self.total_rejected()})"
        )
