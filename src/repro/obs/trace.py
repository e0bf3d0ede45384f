"""Structured tracing: context-propagated spans, JSONL export.

Design constraints, in order:

1. **Off-cost when disabled.** ``span()`` is called on the chase hot
   path; with tracing off it is one module-flag check returning a
   cached no-op singleton. The fence in
   ``benchmarks/bench_obs_overhead.py`` holds disabled-tracing
   throughput within 2% of an instrumented-out build.
2. **Ids must cross every execution boundary the system has.**
   Contextvars carry the current span within a task/thread; explicit
   :class:`TraceCarrier` snapshots cross thread pools and process
   pools (it is picklable); the ``X-Cerfix-Trace`` HTTP header crosses
   the remote-store RPC into shard servers. One ``cerfix clean --store
   remote --trace out.jsonl`` run therefore yields a single connected
   trace over client, executor workers and every shard-server process.
3. **Multi-process safe export.** Spans append single ``os.write``
   lines to an ``O_APPEND`` fd, so workers and shard servers share one
   JSONL file without interleaving torn lines.

Sampling is decided once at the root span (children inherit the bit);
unsampled spans still propagate ids — they are just never exported.
Span ids come from ``os.urandom`` so forked workers cannot collide.

Enable per process with :func:`configure`, per CLI with ``--trace``,
or per environment with ``CERFIX_TRACE=path[|sample]`` (honoured by
``cerfix shard-server`` / spawned shard clusters via
:func:`configure_from_env` — deliberately *not* read at import time).
"""

from __future__ import annotations

import json
import os
import time
from contextvars import ContextVar
from typing import Any, NamedTuple

HEADER = "X-Cerfix-Trace"

_ENABLED = False
_PATH: str | None = None
_SAMPLE = 1.0
_SINK: "_Sink | None" = None
_SLOW: "_Sink | None" = None
_SLOW_MS = 100.0

# Default export-file cap: a long-running traced service must not fill
# the disk. Override with CERFIX_TRACE_MAX_MB (0 disables rotation).
DEFAULT_MAX_MB = 256.0

_CURRENT: ContextVar[Any] = ContextVar("cerfix_current_span", default=None)


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


NOOP = _NoopSpan()


class TraceCarrier(NamedTuple):
    """A picklable snapshot of the current trace context.

    Capture with :func:`carrier` before handing work to a thread or
    process pool; re-establish inside the worker with
    :func:`activate`. ``path``/``sample`` let process-pool workers
    configure their own exporter to the same JSONL file.
    """

    trace_id: str
    span_id: str
    sampled: bool
    path: str | None = None
    sample: float = 1.0


class _RemoteParent:
    """An activated carrier: parent ids without a measured local span."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled


class Span:
    """A real measured span; use as a context manager."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "sampled",
        "attrs",
        "_start",
        "_wall",
        "_token",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        sampled: bool,
        attrs: dict[str, Any],
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = os.urandom(8).hex()
        self.parent_id = parent_id
        self.sampled = sampled
        self.attrs = attrs

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        self._wall = time.time()
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _CURRENT.reset(self._token)
        dur_s = time.perf_counter() - self._start
        if exc_type is not None and (_SINK is not None or _SLOW is not None):
            self.attrs["error"] = exc_type.__name__
        if self.sampled and _ENABLED and _SINK is not None:
            _SINK.write(_record(self, dur_s))
        # The slowlog ignores the sampling bit: a span slow enough to
        # cross the threshold is exactly the one you cannot afford to
        # have sampled out.
        if _SLOW is not None and dur_s * 1000.0 >= _SLOW_MS:
            _SLOW.write(_record(self, dur_s, slow_ms=_SLOW_MS))
        return False

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)


def span(name: str, **attrs: Any):
    """Open a span under the current context (or start a new trace).

    Returns :data:`NOOP` when tracing is disabled — the call costs one
    flag check, no allocation.
    """
    if not _ENABLED:
        return NOOP
    parent = _CURRENT.get()
    if parent is None:
        trace_id = os.urandom(8).hex()
        parent_id = None
        sampled = _SAMPLE >= 1.0 or int.from_bytes(os.urandom(2), "big") < _SAMPLE * 65536
    else:
        trace_id = parent.trace_id
        parent_id = parent.span_id
        sampled = parent.sampled
    return Span(name, trace_id, parent_id, sampled, attrs)


def current_ids() -> tuple[str | None, str | None]:
    """(trace_id, span_id) of the active span — the audit-event stamp."""
    if not _ENABLED:
        return (None, None)
    cur = _CURRENT.get()
    if cur is None:
        return (None, None)
    return (cur.trace_id, cur.span_id)


def carrier() -> TraceCarrier | None:
    """Snapshot the current context for another thread/process."""
    if not _ENABLED:
        return None
    cur = _CURRENT.get()
    if cur is None:
        return None
    return TraceCarrier(cur.trace_id, cur.span_id, cur.sampled, _PATH, _SAMPLE)


class activate:
    """Context manager installing a carrier as the ambient parent.

    ``activate(None)`` is a no-op, so call sites do not need their own
    disabled checks.
    """

    __slots__ = ("_carrier", "_token")

    def __init__(self, car: TraceCarrier | None):
        self._carrier = car
        self._token = None

    def __enter__(self) -> "activate":
        if self._carrier is not None and _ENABLED:
            c = self._carrier
            self._token = _CURRENT.set(_RemoteParent(c.trace_id, c.span_id, c.sampled))
        return self

    def __exit__(self, *exc: Any) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        return False


# -- HTTP propagation --------------------------------------------------------


def header_value() -> str | None:
    """The ``X-Cerfix-Trace`` value for an outgoing RPC, if any."""
    if not _ENABLED:
        return None
    cur = _CURRENT.get()
    if cur is None:
        return None
    return f"{cur.trace_id}-{cur.span_id}-{int(cur.sampled)}"


def parse_header(value: str | None) -> TraceCarrier | None:
    """Parse an incoming header into a carrier (None if absent/bad)."""
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) != 3:
        return None
    trace_id, span_id, flag = parts
    if not trace_id or not span_id or flag not in ("0", "1"):
        return None
    return TraceCarrier(trace_id, span_id, flag == "1")


# -- configuration -----------------------------------------------------------


def _env_max_bytes() -> int:
    """The rotation cap in bytes from ``CERFIX_TRACE_MAX_MB`` (0 = off)."""
    raw = os.environ.get("CERFIX_TRACE_MAX_MB", "").strip()
    if not raw:
        return int(DEFAULT_MAX_MB * 1024 * 1024)
    try:
        return max(0, int(float(raw) * 1024 * 1024))
    except ValueError:
        return int(DEFAULT_MAX_MB * 1024 * 1024)


def configure(
    path: str | os.PathLike,
    sample: float = 1.0,
    max_mb: float | None = None,
) -> None:
    """Enable tracing in this process, exporting spans to ``path``.

    The export file rotates once it reaches ``max_mb`` megabytes
    (default :data:`DEFAULT_MAX_MB`, overridable per environment with
    ``CERFIX_TRACE_MAX_MB``; 0 disables rotation): the current file is
    renamed to ``<path>.1`` — replacing any previous ``.1`` — and a
    fresh file is started, so a traced service holds at most ~2× the
    cap on disk.
    """
    global _ENABLED, _PATH, _SAMPLE, _SINK
    if _SINK is not None:
        _SINK.close()
    max_bytes = (
        _env_max_bytes() if max_mb is None else max(0, int(max_mb * 1024 * 1024))
    )
    _PATH = os.fspath(path)
    _SINK = _Sink(_PATH, max_bytes)
    _SAMPLE = max(0.0, min(1.0, float(sample)))
    _ENABLED = True


def configure_slowlog(path: str | os.PathLike, threshold_ms: float = 100.0) -> None:
    """Append spans slower than ``threshold_ms`` to a structured slowlog.

    The slowlog is plain span JSONL (plus a ``slow_ms`` threshold
    stamp) so ``cerfix trace`` reads it directly for offline
    diagnosis. Enabling the slowlog turns span measurement on even if
    no full trace export is configured; slow spans are logged
    regardless of the sampling bit.
    """
    global _ENABLED, _SLOW, _SLOW_MS
    if _SLOW is not None:
        _SLOW.close()
    _SLOW = _Sink(os.fspath(path), _env_max_bytes())
    _SLOW_MS = float(threshold_ms)
    _ENABLED = True


def disable() -> None:
    """Turn tracing off (spans already open export if sampled-in)."""
    global _ENABLED, _PATH, _SAMPLE, _SINK, _SLOW, _SLOW_MS
    _ENABLED = False
    _PATH = None
    _SAMPLE = 1.0
    if _SINK is not None:
        _SINK.close()
    _SINK = None
    if _SLOW is not None:
        _SLOW.close()
    _SLOW = None
    _SLOW_MS = 100.0


def enabled() -> bool:
    return _ENABLED


def export_path() -> str | None:
    return _PATH


def slowlog_path() -> str | None:
    return _SLOW.path if _SLOW is not None else None


def configure_from_env() -> bool:
    """Honour ``CERFIX_TRACE=path[|sample]`` and
    ``CERFIX_SLOW_SPAN=path[|threshold_ms]`` if set; returns whether
    tracing ended up enabled. Shard servers call this at startup so a
    spawned cluster inherits the client's tracing config through the
    environment."""
    slow = os.environ.get("CERFIX_SLOW_SPAN", "").strip()
    if slow:
        path, _, thresh = slow.partition("|")
        try:
            threshold_ms = float(thresh) if thresh else 100.0
        except ValueError:
            threshold_ms = 100.0
        configure_slowlog(path, threshold_ms)
    value = os.environ.get("CERFIX_TRACE", "").strip()
    if not value:
        return _ENABLED
    path, _, rate = value.partition("|")
    try:
        sample = float(rate) if rate else 1.0
    except ValueError:
        sample = 1.0
    configure(path, sample)
    return True


def env_value(path: str, sample: float) -> str:
    """The ``CERFIX_TRACE`` encoding of a (path, sample) config."""
    return path if sample >= 1.0 else f"{path}|{sample:g}"


def slow_env_value(path: str, threshold_ms: float) -> str:
    """The ``CERFIX_SLOW_SPAN`` encoding of a slowlog config."""
    return f"{path}|{threshold_ms:g}"


# -- JSONL export ------------------------------------------------------------


class _Sink:
    """An ``O_APPEND`` JSONL writer: fork-safe, size-rotated.

    Appends are single ``os.write`` lines, so many processes share one
    file without torn lines. The fd is reopened whenever the PID
    changes (forked workers must never share an offset). When the file
    reaches ``max_bytes`` it is renamed to ``<path>.1`` and a fresh
    file started — but only by the process whose fd still points at
    the live file (inode check), so concurrent writers rotate once.
    """

    __slots__ = ("path", "max_bytes", "_fd", "_pid")

    def __init__(self, path: str, max_bytes: int = 0):
        self.path = path
        self.max_bytes = max_bytes
        self._fd: int | None = None
        self._pid: int | None = None

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
        self._fd = None
        self._pid = None

    def _maybe_rotate(self) -> None:
        if not self.max_bytes or self._fd is None:
            return
        try:
            stat = os.fstat(self._fd)
            if stat.st_size < self.max_bytes:
                return
            # Rotate only if our fd is still the live file — a sibling
            # process may have already renamed it out from under us.
            if os.stat(self.path).st_ino == stat.st_ino:
                os.replace(self.path, self.path + ".1")
        except OSError:
            pass
        self.close()  # next write reopens (and re-creates) the live path

    def write(self, record: dict[str, Any]) -> None:
        pid = os.getpid()
        if self._fd is None or self._pid != pid:
            self.close()
            try:
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            except OSError:
                self._fd = None
                return
            self._pid = pid
        self._maybe_rotate()
        if self._fd is None:
            try:
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            except OSError:
                return
            self._pid = pid
        try:
            os.write(self._fd, (json.dumps(record, default=str) + "\n").encode("utf-8"))
        except OSError:
            pass


def _record(s: Span, dur_s: float, slow_ms: float | None = None) -> dict[str, Any]:
    record: dict[str, Any] = {
        "trace": s.trace_id,
        "span": s.span_id,
        "parent": s.parent_id,
        "name": s.name,
        "ts": round(s._wall, 6),
        "dur_ms": round(dur_s * 1000.0, 3),
        "pid": os.getpid(),
    }
    if slow_ms is not None:
        record["slow_ms"] = slow_ms
    if s.attrs:
        record["attrs"] = s.attrs
    return record
