"""Service metrics: race-free counters and latency percentiles.

One :class:`ServiceMetrics` instance serves a whole
:class:`~repro.service.app.AsyncCerFixService`. Every mutation happens
under one lock (requests arrive from the event loop, observations from
executor threads), and :meth:`to_json` returns a consistent snapshot —
the payload of ``GET /api/metrics``.

Latency is tracked per route *class* (``open`` / ``validate`` /
``read`` / ``other``) in bounded ring buffers, so percentiles reflect
recent traffic rather than the whole process lifetime.
"""

from __future__ import annotations

import threading
from collections import Counter, deque


#: Route classes a request is binned into for latency accounting.
ROUTE_CLASSES = ("open", "validate", "read", "other")


class LatencyWindow:
    """A bounded window of latency samples with on-demand percentiles."""

    def __init__(self, maxlen: int = 2048):
        self._samples: deque[float] = deque(maxlen=maxlen)

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the window, 0.0 when empty."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def to_json(self) -> dict:
        n = len(self._samples)
        if not n:
            return {"count": 0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}
        return {
            "count": n,
            "p50_ms": round(self.percentile(0.50) * 1000, 3),
            "p95_ms": round(self.percentile(0.95) * 1000, 3),
            "p99_ms": round(self.percentile(0.99) * 1000, 3),
            "mean_ms": round(sum(self._samples) / n * 1000, 3),
        }

    def __len__(self) -> int:
        return len(self._samples)


class ServiceMetrics:
    """Counters + latency windows for one running entry service.

    Also exportable through the process-wide
    :class:`~repro.obs.metrics.MetricsRegistry` via :meth:`register`, so
    one registry dump carries the service counters next to the engine,
    batch and shard-tier metrics.
    """

    def __init__(self, window: int = 2048):
        self._lock = threading.Lock()
        self.requests_total = 0
        self.responses_by_status: Counter[int] = Counter()
        self.rejected_429 = 0
        self.sessions_opened = 0
        self.sessions_completed = 0
        self.sessions_evicted = 0
        self.inflight_requests = 0
        self.coalesced_probes = 0
        self.probe_batches = 0
        self.batched_misses = 0
        self.store_probes = 0
        self._latency = {cls: LatencyWindow(window) for cls in ROUTE_CLASSES}
        self._latency_sum = 0.0
        self._latency_count = 0

    # -- request lifecycle -------------------------------------------------

    def request_started(self) -> None:
        with self._lock:
            self.requests_total += 1
            self.inflight_requests += 1

    def request_finished(self, route_class: str, status: int, seconds: float) -> None:
        with self._lock:
            self.inflight_requests -= 1
            self.responses_by_status[status] += 1
            if status == 429:
                self.rejected_429 += 1
            self._latency.get(route_class, self._latency["other"]).record(seconds)
            self._latency_sum += seconds
            self._latency_count += 1

    # -- session lifecycle -------------------------------------------------

    def session_opened(self) -> None:
        with self._lock:
            self.sessions_opened += 1

    def session_completed(self) -> None:
        with self._lock:
            self.sessions_completed += 1

    def session_evicted(self) -> None:
        with self._lock:
            self.sessions_evicted += 1

    @property
    def sessions_active(self) -> int:
        """Open sessions that have not yet reached a certain fix."""
        with self._lock:
            return self.sessions_opened - self.sessions_completed - self.sessions_evicted

    # -- probe micro-batching ----------------------------------------------

    def probe_coalesced(self) -> None:
        """A probe attached to an identical in-flight key (one store hit
        served several sessions)."""
        with self._lock:
            self.coalesced_probes += 1

    def batch_executed(self, misses: int) -> None:
        with self._lock:
            self.probe_batches += 1
            self.batched_misses += misses
            self.store_probes += misses

    def mean_latency(self) -> float:
        """Lifetime mean request latency (seconds) — the admission
        controller's Retry-After estimate feeds on this. Kept as running
        totals: this sits on the per-request hot path, where walking the
        percentile windows would cost more than the request itself."""
        with self._lock:
            if not self._latency_count:
                return 0.0
            return self._latency_sum / self._latency_count

    # -- snapshot ----------------------------------------------------------

    def register(self, registry) -> None:
        """Export this instance's snapshot through ``registry`` dumps
        (source ``service``).

        The registry holds the bound :meth:`to_json` weakly, so a closed
        service's metrics drop out of the dump with the service itself.
        """
        registry.register_source("service", self.to_json)

    def to_json(self) -> dict:
        with self._lock:
            return {
                "requests": {
                    "total": self.requests_total,
                    "in_flight": self.inflight_requests,
                    "by_status": {str(k): v for k, v in sorted(self.responses_by_status.items())},
                    "rejected_429": self.rejected_429,
                },
                "sessions": {
                    "opened": self.sessions_opened,
                    "completed": self.sessions_completed,
                    "evicted": self.sessions_evicted,
                    "active": self.sessions_opened
                    - self.sessions_completed
                    - self.sessions_evicted,
                },
                "probes": {
                    "coalesced": self.coalesced_probes,
                    "batches": self.probe_batches,
                    "batched_misses": self.batched_misses,
                    "store_probes": self.store_probes,
                },
                "latency_ms": {cls: w.to_json() for cls, w in self._latency.items()},
            }
