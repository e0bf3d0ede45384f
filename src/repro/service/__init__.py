"""The async point-of-entry service (paper §1, "point of data entry").

CerFix's headline scenario is a monitor that fixes tuples *as users
enter them*. The :mod:`repro.explorer.web` server handles that one
interactive session at a time; this package is the concurrent path — an
asyncio-native entry service that multiplexes many monitor sessions
over one engine:

:mod:`repro.service.app`
    the shared :class:`RoutingCore` (one routing table for the sync web
    explorer *and* the async service) and the
    :class:`AsyncCerFixService` orchestrator;
:mod:`repro.service.batcher`
    the probe micro-batcher — concurrent cache misses against the
    master store are collapsed per key and answered in batched lookups;
:mod:`repro.service.cache`
    async/thread-safe shared caches (probe results, suggestion and
    chase memos);
:mod:`repro.service.limits`
    admission control — bounded global and per-session queues with
    ``429 Retry-After`` backpressure;
:mod:`repro.service.metrics`
    race-free counters and latency percentiles for ``/api/metrics``;
:mod:`repro.service.http`
    the asyncio HTTP server (stdlib only);
:mod:`repro.service.loadgen`
    the async load generator used by the benchmarks and the CI smoke
    leg.

The contract mirrors the store backends': concurrency can only change
*speed*, never output. For any interleaving of sessions, the set of
(fix, region, audit-event) outputs per tuple is bit-identical to the
serial monitor path — the differential suite enforces this across all
master-store backends.
"""

from repro.service.app import AsyncCerFixService, RoutingCore
from repro.service.batcher import CoalescingMasterDataManager, ProbeBatcher
from repro.service.cache import LRUMemo, MemoView, SharedProbeCache
from repro.service.http import AsyncCerFixServer
from repro.service.limits import Admission, AdmissionController
from repro.service.loadgen import LoadReport, run_load
from repro.service.metrics import LatencyWindow, ServiceMetrics

__all__ = [
    "Admission",
    "AdmissionController",
    "AsyncCerFixServer",
    "AsyncCerFixService",
    "CoalescingMasterDataManager",
    "LatencyWindow",
    "LoadReport",
    "LRUMemo",
    "MemoView",
    "ProbeBatcher",
    "RoutingCore",
    "ServiceMetrics",
    "SharedProbeCache",
    "run_load",
]
