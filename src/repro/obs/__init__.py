"""Unified telemetry: one metrics registry, trace-correlated spans.

The subsystem has four halves, all stdlib-only and process-wide:

* :mod:`repro.obs.metrics` — a lock-striped :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket latency histograms) under one
  namespaced ``cerfix.metrics.v1`` dump, plus a bounded snapshot
  history ring for delta rates (probes/s, error rate). One registry
  serves the process; the entry service and each shard server own one
  more for their request counts, and their scrape surfaces serve
  :func:`~repro.obs.metrics.component_dump` of the two.
* :mod:`repro.obs.trace` — context-propagated spans with trace/span
  ids that cross thread pools, process pools and the remote-store HTTP
  boundary (``X-Cerfix-Trace``), exported as size-rotated sampled
  JSONL (``CERFIX_TRACE_MAX_MB``) with a slow-span log
  (``CERFIX_SLOW_SPAN``). Disabled tracing costs one module-flag check
  per call site; the bench guard
  (``benchmarks/bench_obs_overhead.py``) holds that to ≤2% throughput
  overhead.
* :mod:`repro.obs.promfmt` — Prometheus text exposition (format
  0.0.4) of registry dumps, served by every ``/metrics`` endpoint via
  ``?format=prometheus``.
* :mod:`repro.obs.monitor` — the fleet scraper: per-process
  self-gauges, :class:`ClusterMonitor` merging every replica's scrape
  into one health rollup, and the renderers behind ``cerfix health`` /
  ``cerfix top``.

``cerfix trace <file>`` (:mod:`repro.obs.tracecli`) renders exported
span and slowlog files as per-trace flame summaries with critical-path
latency.
"""

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.monitor import ClusterMonitor, install_process_gauges
from repro.obs.trace import TraceCarrier, span

__all__ = [
    "MetricsRegistry",
    "get_registry",
    "ClusterMonitor",
    "install_process_gauges",
    "TraceCarrier",
    "span",
]
