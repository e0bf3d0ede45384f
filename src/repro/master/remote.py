"""The remote master store: shard-server-backed probing over the network.

:class:`RemoteMasterStore` is the fourth :class:`~repro.master.store.MasterStore`
backend: the hash routing of
:class:`~repro.master.store.ShardedMasterStore` pointed at N
:mod:`shard-server <repro.master.shardserver>` processes instead of N
in-process partitions. A probe normalises its match key locally, routes
it with the same deterministic :func:`~repro.master.store.shard_of`
hash the servers use, and asks exactly one server — which verifies the
routing before answering, so a client/server disagreement is a loud
409, never a silently wrong match.

What makes it production-shaped rather than a toy RPC wrapper:

* **keep-alive connection pooling** — one persistent
  ``http.client.HTTPConnection`` per (thread, shard), so steady-state
  probing never pays TCP setup;
* **request batching** — :meth:`RemoteMasterStore.probe_many` groups a
  batch by shard and crosses the network once per shard (per
  ``max_batch`` chunk), with shard groups issued concurrently; the
  entry service's :class:`~repro.service.batcher.ProbeBatcher` and the
  batch executor's first-round prefetch amortise *real round trips*,
  not just CPU;
* **retry with backoff** — transient transport failures (connection
  reset, refused, timeout, 5xx) retry with decorrelated-jitter
  exponential backoff against a fresh connection, so a shard server
  restarting under N workers heals instead of failing the clean — and
  the workers don't re-probe it in lockstep;
* **replication with client-side failover** — each routing slot
  accepts a *group* of replica urls (``[[a, b], [c, d]]``); a request
  that exhausts its retries against one replica fails over to the next
  healthy one, read load rotates across healthy replicas, and a
  replica that keeps failing trips a consecutive-failure circuit
  breaker (skipped until a timed half-open re-probe finds it serving
  again) — a shard dying mid-clean changes a request's *route*, never
  its *answer*;
* **per-replica stats** — probes, round trips, retries, errors,
  failovers, circuit state and latency per replica, aggregated per
  shard (:meth:`RemoteMasterStore.stats`), the numbers the
  remote-store benchmark records;
* **graceful degradation** — a shard whose replicas all stay down
  raises :class:`~repro.errors.MasterDataError` naming every url
  tried; a cluster whose members (any replica included) disagree on
  shard count or content digest is rejected at handshake, so a stale
  replica is refused loudly instead of silently consulted.

Parity: the servers answer through the same
:class:`~repro.master.store.ShardedMasterStore` probe path every other
backend shares, and the conformance kit
(:mod:`repro.master.conformance`) pins the remote backend bit-identical
to ``single`` on the monitor, batch and async-service paths.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping, Sequence
from urllib.parse import urlsplit

from repro.errors import MasterDataError
from repro.core.rule import EditingRule
from repro.core.ruleset import RuleSet
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.master.store import (
    MasterMatch,
    MasterStore,
    SingleRelationStore,
    _relation_digest,
    require_scalar_cells,
    shard_of,
)
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import schema_from_json

#: Transport failures worth retrying: the connection died or the server
#: hiccuped — as opposed to 4xx protocol errors, which retrying cannot fix.
_TRANSIENT = (OSError, http.client.HTTPException)


class _TransientServerError(Exception):
    """A 5xx response — retryable, unlike 4xx protocol errors."""


class ShardUnreachableError(MasterDataError):
    """One replica exhausted its retries on transport failures or 5xx.

    The failover trigger: :class:`ShardGroup` catches this, marks the
    replica unhealthy and moves to the next one. 4xx/protocol errors
    stay plain :class:`MasterDataError` — they are deterministic, so a
    sibling replica would answer exactly the same and failing over
    would only hide the bug.
    """

    def __init__(self, message: str, *, url: str, kind: str):
        super().__init__(message)
        self.url = url
        #: ``"unreachable"`` (transport died) or ``"server-error"``
        #: (the shard answered, but with a 5xx, on every attempt).
        self.kind = kind


def _backoff_delay(base: float, previous: float, cap: float) -> float:
    """Decorrelated-jitter backoff (AWS style): each delay is drawn from
    ``[base, max(2*base, 3*previous)]``, capped.

    N workers that lose a shard simultaneously must *not* re-probe it
    in lockstep — pure exponential backoff synchronizes the herd on the
    worst possible moment, the server's restart.
    """
    return min(cap, random.uniform(base, max(2 * base, 3 * previous)))


class _NoDelayHTTPConnection(http.client.HTTPConnection):
    """An HTTPConnection with Nagle disabled.

    Probe requests are small and latency-bound; Nagle buffering against
    the peer's delayed ACK costs tens of milliseconds *per probe* on
    otherwise sub-millisecond links. TCP_NODELAY sends them immediately.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


#: Remote round-trip latency, in the process-wide registry. Failed
#: attempts are observed too — a histogram that only sees successes
#: hides exactly the tail an operator is hunting.
_RPC_SECONDS = get_registry().histogram("cerfix.remote.rpc_seconds")

#: Cluster-wide failover/circuit activity (per-replica detail lives in
#: the ``remote_store`` source's ``per_shard[*].replicas`` entries).
_FAILOVERS = get_registry().counter("cerfix.remote.failovers")
_CIRCUIT_OPENS = get_registry().counter("cerfix.remote.circuit_opens")


class _EndpointStats:
    """Per-(store, shard-url) counters that outlive endpoint rebuilds.

    Kept in a module-level registry keyed by ``(store token, url)``
    (see :func:`_stats_for`) so the stats survive the client-side
    rebuilds that used to zero them: a fork-safe ``__reduce__`` round
    trip or a reconnect keeps accumulating into the same counters,
    because the rebuilt store carries its original token. Two
    *independently constructed* stores over the same cluster get
    different tokens and therefore independent counters. A *forked*
    process starts its own registry — counters are per-process, like
    its connections.
    """

    __slots__ = (
        "lock",
        "probes",
        "round_trips",
        "retried",
        "errors",
        "failovers",
        "circuit_opens",
        "failures_in_row",
        "open_until",
        "latency_s",
        "latency_max_s",
    )

    def __init__(self):
        self.lock = threading.Lock()
        self.probes = 0
        self.round_trips = 0
        self.retried = 0
        self.errors = 0
        self.failovers = 0
        self.circuit_opens = 0
        self.failures_in_row = 0
        self.open_until = 0.0  # monotonic deadline; 0 = circuit closed
        self.latency_s = 0.0
        self.latency_max_s = 0.0


_STATS: dict[tuple[str, str], _EndpointStats] = {}
_STATS_PID: int | None = None
_STATS_LOCK = threading.Lock()


def _stats_for(token: str, url: str) -> _EndpointStats:
    global _STATS_PID
    with _STATS_LOCK:
        pid = os.getpid()
        if _STATS_PID != pid:
            _STATS.clear()
            _STATS_PID = pid
        stats = _STATS.get((token, url))
        if stats is None:
            stats = _STATS[(token, url)] = _EndpointStats()
        return stats


def _split_url(url: str) -> tuple[str, int]:
    split = urlsplit(url if "//" in url else f"http://{url}")
    if split.scheme not in ("", "http"):
        raise MasterDataError(f"shard url {url!r}: only http:// shard servers are supported")
    if not split.hostname or not split.port:
        raise MasterDataError(f"shard url {url!r} must carry an explicit host and port")
    return split.hostname, split.port


def fetch_health(url: str, timeout: float = 2.0) -> dict:
    """One unretried ``GET /healthz`` (spawn helpers poll this)."""
    host, port = _split_url(url)
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise MasterDataError(f"shard server at {url} answered {response.status} to /healthz")
        return json.loads(data)
    except _TRANSIENT + (ValueError,) as exc:
        raise MasterDataError(f"no healthy shard server at {url}: {exc}") from None
    finally:
        conn.close()


class ShardEndpoint:
    """One shard-server *replica* as the client sees it: pooled
    connections, retry-with-backoff, a consecutive-failure circuit
    breaker, and per-replica counters.

    Connections are per *thread* (``http.client`` connections are not
    thread-safe): batch executor threads, the service's probe executor
    and the caller's thread each keep their own keep-alive socket.
    """

    def __init__(
        self,
        shard_id: int,
        url: str,
        *,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
        stats_token: str = "",
        circuit_threshold: int = 3,
        circuit_reset: float = 1.0,
    ):
        self.shard_id = shard_id
        self.url = url.rstrip("/")
        self.host, self.port = _split_url(url)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.circuit_threshold = circuit_threshold
        self.circuit_reset = circuit_reset
        self._local = threading.local()
        self._conns: set[http.client.HTTPConnection] = set()
        self._lock = threading.Lock()
        self._stats = _stats_for(stats_token, self.url)

    # -- connection pool ----------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        # Fork safety: a process-pool worker forked from a client that
        # already probed inherits the parent's connected socket in its
        # (cloned) thread-local. Writing on it would interleave two
        # processes' requests on one TCP stream; a PID check discards
        # the inherited connection instead.
        if getattr(self._local, "pid", None) != os.getpid():
            self._local.conn = None
            self._local.pid = os.getpid()
        conn = self._local.conn
        if conn is None:
            conn = _NoDelayHTTPConnection(self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
            with self._lock:
                self._conns.add(conn)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def close(self) -> None:
        with self._lock:
            conns, self._conns = list(self._conns), set()
        for conn in conns:
            conn.close()

    # -- circuit breaker ----------------------------------------------------

    def circuit_state(self, now: float | None = None) -> str:
        """``"closed"`` (healthy), ``"open"`` (skipped), or
        ``"half-open"`` (open, but the re-probe window has elapsed)."""
        s = self._stats
        now = time.monotonic() if now is None else now
        with s.lock:
            if not s.open_until:
                return "closed"
            return "half-open" if now >= s.open_until else "open"

    def claim_half_open_probe(self, now: float | None = None) -> bool:
        """Atomically claim the half-open re-probe slot.

        True for exactly one caller per ``circuit_reset`` window (the
        window re-arms on claim), so a recovering replica sees one
        timed probe, not a stampede of them. ``now`` (a
        ``time.monotonic()`` reading) defaults to the current time.
        """
        s = self._stats
        now = time.monotonic() if now is None else now
        with s.lock:
            if not s.open_until or now < s.open_until:
                return False
            s.open_until = now + self.circuit_reset
            return True

    def note_success(self) -> None:
        s = self._stats
        with s.lock:
            s.failures_in_row = 0
            s.open_until = 0.0

    def note_failure(self, now: float | None = None) -> None:
        s = self._stats
        now = time.monotonic() if now is None else now
        with s.lock:
            s.failures_in_row += 1
            if s.failures_in_row < self.circuit_threshold:
                return
            if not s.open_until:
                s.circuit_opens += 1
                _CIRCUIT_OPENS.inc()
            s.open_until = now + self.circuit_reset

    # -- requests -----------------------------------------------------------

    def request(self, method: str, path: str, payload: Any = None) -> Any:
        """One JSON request with keep-alive, retry and backoff.

        4xx answers raise :class:`MasterDataError` immediately (the
        request itself is wrong — a misroute or an unknown rule);
        transport failures and 5xx retry ``retries`` times against a
        fresh connection before giving up with a
        :class:`ShardUnreachableError` (what :class:`ShardGroup` fails
        over on).
        """
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        with trace.span("shard-rpc", shard=self.shard_id, path=path):
            return self._request_retrying(method, path, body, self._stats)

    def _request_retrying(
        self,
        method: str,
        path: str,
        body: bytes | None,
        stats: _EndpointStats,
    ) -> Any:
        last: Exception | None = None
        kind = "unreachable"
        delay = 0.0
        for attempt in range(self.retries + 1):
            if attempt:
                with stats.lock:
                    stats.retried += 1
                delay = _backoff_delay(self.backoff, delay, self.backoff * 16)
                time.sleep(delay)
            started = time.perf_counter()
            try:
                status, data = self._request_once(method, path, body)
            except _TRANSIENT as exc:
                _RPC_SECONDS.observe(time.perf_counter() - started)
                self._drop_connection()
                last, kind = exc, "unreachable"
                continue
            except _TransientServerError as exc:
                _RPC_SECONDS.observe(time.perf_counter() - started)
                last, kind = exc, "server-error"
                continue
            elapsed = time.perf_counter() - started
            with stats.lock:
                stats.round_trips += 1
                stats.latency_s += elapsed
                stats.latency_max_s = max(stats.latency_max_s, elapsed)
            _RPC_SECONDS.observe(elapsed)
            try:
                parsed = json.loads(data) if data else None
            except ValueError:
                with stats.lock:
                    stats.errors += 1
                raise MasterDataError(
                    f"shard {self.shard_id} at {self.url} answered non-JSON "
                    f"to {method} {path}"
                ) from None
            if status >= 400:
                if isinstance(parsed, dict):
                    detail = parsed.get("error")
                else:
                    detail = data.decode("utf-8", "replace")[:200]
                with stats.lock:
                    stats.errors += 1
                raise MasterDataError(
                    f"shard {self.shard_id} at {self.url} rejected "
                    f"{method} {path} ({status}): {detail}"
                )
            return parsed
        with stats.lock:
            stats.errors += 1
        if kind == "server-error":
            raise ShardUnreachableError(
                f"shard {self.shard_id} at {self.url} kept failing: a 5xx "
                f"answer on every one of {self.retries + 1} attempts "
                f"({method} {path}): {last}",
                url=self.url,
                kind=kind,
            )
        raise ShardUnreachableError(
            f"shard {self.shard_id} at {self.url} unreachable after "
            f"{self.retries + 1} attempts ({method} {path}): {last}",
            url=self.url,
            kind=kind,
        )

    def _request_once(self, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        conn = self._connection()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        trace_header = trace.header_value()
        if trace_header is not None:
            headers[trace.HEADER] = trace_header
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()  # always drain: keep-alive needs a clean socket
        if response.status >= 500:
            raise _TransientServerError(
                f"shard server answered {response.status}: {data[:200]!r}"
            )
        return response.status, data

    def record_probes(self, n: int) -> None:
        with self._stats.lock:
            self._stats.probes += n

    def stats(self) -> dict[str, Any]:
        circuit = self.circuit_state()
        s = self._stats
        with s.lock:
            mean_ms = 1000 * s.latency_s / s.round_trips if s.round_trips else 0.0
            return {
                "shard_id": self.shard_id,
                "url": self.url,
                "probes": s.probes,
                "round_trips": s.round_trips,
                "retries": s.retried,
                "errors": s.errors,
                "failovers": s.failovers,
                "circuit_opens": s.circuit_opens,
                "circuit": circuit,
                "latency_mean_ms": round(mean_ms, 3),
                "latency_max_ms": round(1000 * s.latency_max_s, 3),
            }


class ShardGroup:
    """One routing slot's replica set: rotation, failover, last resort.

    Every replica serves the *same* shard of the key space with the
    *same* content (the handshake enforces the digest), so any healthy
    replica's answer is bit-identical to any other's — failover can
    never change a result, only a route. Selection per request:

    1. a replica whose open circuit is due its timed half-open
       re-probe goes first (exactly one claimant per window), so a
       recovered replica rejoins the rotation promptly;
    2. healthy replicas follow, in rotation order (reads spread);
    3. open-circuit replicas come last — tried only when everything
       else already failed, which keeps a single-replica group exactly
       as available as the unreplicated client was.

    A replica that exhausts its retries (transport or 5xx —
    :class:`ShardUnreachableError`) records a failover and the request
    moves on; deterministic 4xx/protocol errors propagate immediately,
    because a sibling replica would answer them identically.
    """

    def __init__(
        self,
        shard_id: int,
        urls: Sequence[str],
        *,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
        stats_token: str = "",
        circuit_threshold: int = 3,
        circuit_reset: float = 1.0,
    ):
        self.shard_id = shard_id
        self.replicas = [
            ShardEndpoint(
                shard_id,
                url,
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                stats_token=stats_token,
                circuit_threshold=circuit_threshold,
                circuit_reset=circuit_reset,
            )
            for url in urls
        ]
        self.urls = tuple(e.url for e in self.replicas)
        self._lock = threading.Lock()
        self._next = 0
        self._local = threading.local()

    @property
    def url(self) -> str:
        """The replica that served this thread's last request (primary
        before any request) — the url error messages should name."""
        served = getattr(self._local, "served_by", None)
        return served.url if served is not None else self.urls[0]

    def _candidates(self) -> list[ShardEndpoint]:
        n = len(self.replicas)
        if n == 1:
            return list(self.replicas)
        with self._lock:
            start = self._next
            self._next = (start + 1) % n
        ordered = [self.replicas[(start + k) % n] for k in range(n)]
        probing: list[ShardEndpoint] = []
        healthy: list[ShardEndpoint] = []
        parked: list[ShardEndpoint] = []
        for endpoint in ordered:
            state = endpoint.circuit_state()
            if state == "closed":
                healthy.append(endpoint)
            elif state == "half-open" and endpoint.claim_half_open_probe():
                probing.append(endpoint)
            else:
                parked.append(endpoint)
        return probing + healthy + parked

    def request(self, method: str, path: str, payload: Any = None) -> Any:
        """One JSON request with replica failover (see class docstring)."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        candidates = self._candidates()
        failures: list[tuple[str, Exception]] = []
        with trace.span("shard-rpc", shard=self.shard_id, path=path):
            for endpoint in candidates:
                try:
                    parsed = endpoint._request_retrying(
                        method, path, body, endpoint._stats
                    )
                except ShardUnreachableError as exc:
                    endpoint.note_failure()
                    failures.append((endpoint.url, exc))
                    if len(candidates) > 1:
                        with endpoint._stats.lock:
                            endpoint._stats.failovers += 1
                        _FAILOVERS.inc()
                    continue
                endpoint.note_success()
                self._local.served_by = endpoint
                return parsed
        raise MasterDataError(
            f"shard {self.shard_id} has no reachable replica — all "
            f"{len(candidates)} tried ({method} {path}): "
            + "; ".join(f"{url}: {exc}" for url, exc in failures)
        )

    def record_probes(self, n: int) -> None:
        served = getattr(self._local, "served_by", None)
        (served if served is not None else self.replicas[0]).record_probes(n)

    def close(self) -> None:
        for endpoint in self.replicas:
            endpoint.close()

    def stats(self) -> dict[str, Any]:
        replicas = [e.stats() for e in self.replicas]
        agg = {
            key: sum(r[key] for r in replicas)
            for key in (
                "probes",
                "round_trips",
                "retries",
                "errors",
                "failovers",
                "circuit_opens",
            )
        }
        trips = agg["round_trips"]
        mean_ms = (
            sum(r["latency_mean_ms"] * r["round_trips"] for r in replicas) / trips
            if trips
            else 0.0
        )
        return {
            "shard_id": self.shard_id,
            "url": self.urls[0],
            "urls": list(self.urls),
            **agg,
            "latency_mean_ms": round(mean_ms, 3),
            "latency_max_ms": max(r["latency_max_ms"] for r in replicas),
            "replicas": replicas,
        }


def _normalize_topology(urls: Any) -> tuple[tuple[str, ...], ...]:
    """``urls`` → one tuple of replica urls per routing slot.

    Accepts the flat form (one url string per shard — the unreplicated
    topology every caller used before replication existed) and the
    nested form (a list of replica urls per shard); the two mix freely.
    """
    if isinstance(urls, (str, bytes)):
        raise MasterDataError(
            "shard urls must be a sequence (one entry per shard), not a "
            "single string — wrap it in a list"
        )
    groups: list[tuple[str, ...]] = []
    for entry in urls:
        if isinstance(entry, (str, bytes)):
            groups.append((str(entry).rstrip("/"),))
            continue
        replicas = tuple(str(u).rstrip("/") for u in entry if str(u).strip())
        if not replicas:
            raise MasterDataError(
                "a shard's replica list must name at least one url"
            )
        groups.append(replicas)
    return tuple(groups)


class RemoteMasterStore(MasterStore):
    """Master probes answered by N shard-server processes over HTTP.

    ``urls[i]`` must be the server(s) answering shard ``i`` of
    ``len(urls)``: a plain url string is an unreplicated slot, a list
    of url strings is a replica group served with rotation and
    client-side failover (see :class:`ShardGroup`). The handshake
    verifies *every* replica's ``(shard_id, shards)`` and that all
    members serve the same content digest, so a misconfigured cluster —
    or a single stale replica — fails at construction, not at the first
    wrong probe.

    The canonical :attr:`relation` is fetched lazily (and digest-
    verified) the first time a non-probe path needs it — region
    finding, certainty analysis, audit provenance. The probe hot path
    never touches it: positions *and* correction values come back over
    the wire, computed by the same shared
    :class:`~repro.master.store.ShardedMasterStore` code path every
    backend answers through.
    """

    backend = "remote"
    io_bound = True

    def __init__(
        self,
        urls: Sequence[str | Sequence[str]],
        *,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
        max_batch: int = 512,
        stats_token: str | None = None,
        circuit_threshold: int = 3,
        circuit_reset: float = 1.0,
    ):
        if not urls:
            raise MasterDataError("the remote master store needs at least one shard url")
        #: One tuple of replica urls per routing slot (the canonical
        #: topology; a flat ``urls`` argument becomes 1-tuples).
        self.replica_urls = _normalize_topology(urls)
        #: Primary url per shard (replica 0) — the flat view callers of
        #: the unreplicated client already rely on.
        self.urls = tuple(group[0] for group in self.replica_urls)
        self.shards = len(self.replica_urls)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_batch = max_batch
        self.circuit_threshold = circuit_threshold
        self.circuit_reset = circuit_reset
        #: Identity of this store's per-shard counters: ``__reduce__``
        #: ships it, so a fork-safe rebuild in the same process keeps
        #: accumulating into the same stats instead of zeroing them.
        self._stats_token = stats_token if stats_token is not None else os.urandom(8).hex()
        self.groups = [
            ShardGroup(
                i,
                group,
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                stats_token=self._stats_token,
                circuit_threshold=circuit_threshold,
                circuit_reset=circuit_reset,
            )
            for i, group in enumerate(self.replica_urls)
        ]
        self._normalizers: dict[str, HashIndex] = {}
        self._relation: Relation | None = None
        self._inner: SingleRelationStore | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._pool_pid = os.getpid()
        self._pool_lock = threading.Lock()
        #: One-shot callable run right after the next ``/probe_many``
        #: reply, then cleared — lands a test disruption (a replica
        #: kill, a rolling restart) at a known point mid-clean instead
        #: of on a timer.
        self.reply_hook: Callable[[], Any] | None = None
        self._digest, self._tuples = self._handshake()
        get_registry().register_source("remote_store", self.stats)

    # -- cluster handshake --------------------------------------------------

    def _handshake(self) -> tuple[str, int]:
        """Verify *every* replica of every shard before the first probe.

        A stale replica (wrong digest) or a misplaced one (wrong
        ``shard_id``) must be rejected loudly here — failover would
        otherwise route reads to it silently mid-clean.
        """
        digests: dict[str, str] = {}
        tuples = 0
        for i, group in enumerate(self.groups):
            for endpoint in group.replicas:
                health = endpoint.request("GET", "/healthz")
                if not isinstance(health, dict) or not health.get("ok"):
                    raise MasterDataError(
                        f"url {endpoint.url} is not a cerfix shard server "
                        f"(bad /healthz answer {health!r})"
                    )
                if health.get("shard_id") != i or health.get("shards") != self.shards:
                    raise MasterDataError(
                        f"shard-url order mismatch: {endpoint.url} serves shard "
                        f"{health.get('shard_id')}/{health.get('shards')} but was "
                        f"given as shard {i}/{self.shards} — list --shard-urls in "
                        f"shard-id order, one slot (url or replica list) per shard"
                    )
                digests[endpoint.url] = health["digest"]
                tuples = int(health["tuples"])
        if len(set(digests.values())) > 1:
            raise MasterDataError(
                "shard servers disagree on master content: digests "
                + ", ".join(f"{u}={d[:12]}…" for u, d in digests.items())
                + " — every shard, and every replica of it, must serve the "
                "same master data version"
            )
        return next(iter(digests.values())), tuples

    # -- relation (lazy, digest-verified) -----------------------------------

    @property
    def relation(self) -> Relation:
        if self._relation is None:
            payload = self.groups[0].request("GET", "/relation")
            relation = Relation(
                schema_from_json(payload["schema"]),
                [tuple(row) for row in payload["tuples"]],
            )
            digest = _relation_digest(relation)
            if digest != payload.get("digest") or digest != self._digest:
                raise MasterDataError(
                    f"master content fetched from {self.urls[0]} failed its "
                    f"digest check (got {digest[:12]}…, cluster serves "
                    f"{self._digest[:12]}…)"
                )
            self._relation = relation
            self._inner = SingleRelationStore(relation)
        return self._relation

    def __len__(self) -> int:
        return self._tuples

    # -- probing ------------------------------------------------------------

    def _normalizer(self, rule: EditingRule) -> HashIndex:
        normalizer = self._normalizers.get(rule.rule_id)
        if normalizer is None:
            normalizer = HashIndex(rule.m_attrs, rule.ops)
            self._normalizers[rule.rule_id] = normalizer
        return normalizer

    def route(self, rule: EditingRule, values: Mapping[str, Any]) -> int:
        """The shard id this probe routes to (no network involved)."""
        raw = tuple(values[a] for a in rule.lhs_attrs)
        return shard_of(self._normalizer(rule).key_of(raw), self.shards)

    def probe(
        self,
        rule: EditingRule,
        values: Mapping[str, Any],
        *,
        use_index: bool = True,
    ) -> MasterMatch:
        return self.probe_many([(rule, values)], use_index=use_index)[0]

    def probe_many(
        self,
        requests: Sequence[tuple[EditingRule, Mapping[str, Any]]],
        *,
        use_index: bool = True,
    ) -> list[MasterMatch]:
        """Answer a batch with one round trip per (shard, chunk).

        Requests are grouped by routed shard; each shard's group goes
        out as one ``/probe_many`` POST (chunked at ``max_batch``), and
        the groups cross the network concurrently. Results come back in
        request order, bit-identical to per-probe calls.
        """
        if not requests:
            return []
        with trace.span("probe_many", probes=len(requests)):
            return self._probe_many(requests, use_index=use_index)

    def _probe_many(
        self,
        requests: Sequence[tuple[EditingRule, Mapping[str, Any]]],
        *,
        use_index: bool,
    ) -> list[MasterMatch]:
        by_shard: dict[int, list[int]] = {}
        wire: list[dict[str, Any]] = []
        for i, (rule, values) in enumerate(requests):
            key_values = {a: values[a] for a in rule.lhs_attrs}
            require_scalar_cells(key_values.values(), f"remote probe of {rule.rule_id}")
            by_shard.setdefault(self.route(rule, values), []).append(i)
            wire.append({"rule_id": rule.rule_id, "values": key_values})

        results: list[MasterMatch | None] = [None] * len(requests)

        def fetch_shard(shard_id: int, indexes: list[int]) -> None:
            group = self.groups[shard_id]
            for start in range(0, len(indexes), self.max_batch):
                chunk = indexes[start : start + self.max_batch]
                payload = {
                    "probes": [wire[i] for i in chunk],
                    "use_index": use_index,
                }
                answer = group.request("POST", "/probe_many", payload)
                if self.reply_hook is not None:
                    self._fire_reply_hook()
                matches = answer.get("matches") if isinstance(answer, dict) else None
                if not isinstance(matches, list) or len(matches) != len(chunk):
                    raise MasterDataError(
                        f"shard {shard_id} at {group.url} answered "
                        f"{len(matches) if isinstance(matches, list) else 'no'} "
                        f"matches for {len(chunk)} probes"
                    )
                group.record_probes(len(chunk))
                for i, match in zip(chunk, matches):
                    results[i] = MasterMatch(
                        positions=tuple(match["positions"]),
                        values=tuple(match["values"]),
                    )

        groups = list(by_shard.items())
        if len(groups) == 1:
            fetch_shard(*groups[0])
        else:
            # Pool threads have no ambient span — hand each group the
            # caller's context so shard-rpc spans stay in the trace.
            car = trace.carrier()

            def fetch_with_context(shard_id: int, indexes: list[int]) -> None:
                with trace.activate(car):
                    fetch_shard(shard_id, indexes)

            futures = [
                self._executor().submit(fetch_with_context, shard_id, indexes)
                for shard_id, indexes in groups
            ]
            errors = [f.exception() for f in futures]
            for exc in errors:
                if exc is not None:
                    raise exc
        assert all(m is not None for m in results), "shard group left probes unanswered"
        return results  # type: ignore[return-value]

    def _fire_reply_hook(self) -> None:
        with self._pool_lock:
            hook, self.reply_hook = self.reply_hook, None
        if hook is not None:
            hook()

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is not None and self._pool_pid != os.getpid():
                self._pool = None  # forked copy: its worker threads are gone
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.shards, thread_name_prefix="cerfix-remote"
                )
                self._pool_pid = os.getpid()
            return self._pool

    # -- index lifecycle ----------------------------------------------------

    def prebuild(self, ruleset: RuleSet) -> None:
        """Warm the local normalisers and every server's own shard."""
        for rule in ruleset:
            if not rule.is_constant:
                self._normalizer(rule)
        for group in self.groups:
            for endpoint in group.replicas:
                endpoint.request("POST", "/prebuild", {})

    def prepare_worker(self, ruleset: RuleSet) -> None:
        """Nothing to rebuild: a freshly unpickled worker reconnects to
        servers that are already warm."""
        for rule in ruleset:
            if not rule.is_constant:
                self._normalizer(rule)

    # -- diagnostics --------------------------------------------------------

    def ambiguous_keys(self, rule: EditingRule) -> dict[tuple, tuple[Any, ...]]:
        """Static ambiguity analysis over the (lazily fetched) canonical
        relation — a consistency-check path, not a probe path, so it
        deliberately runs local rather than adding wire surface."""
        self.relation  # ensure fetched
        assert self._inner is not None
        return self._inner.ambiguous_keys(rule)

    def stats(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "tuples": self._tuples,
            "shards": self.shards,
            "replicas": max(len(group) for group in self.replica_urls),
            "digest": self._digest,
            "urls": list(self.urls),
            "replica_urls": [list(group) for group in self.replica_urls],
            "per_shard": [group.stats() for group in self.groups],
        }

    # -- maintenance --------------------------------------------------------

    def apply_update(self, add=(), remove=()) -> tuple[int, int]:
        raise MasterDataError(
            "remote master data is read-only from the client: update the "
            "master data where the shard servers load it and restart them "
            "(every server advertises a content digest, so a half-updated "
            "cluster is rejected at handshake rather than probed)"
        )

    def content_digest(self) -> str:
        return self._digest

    # -- lifecycle / pickling ----------------------------------------------

    def close(self) -> None:
        """Close pooled connections and the shard-group executor."""
        for group in self.groups:
            group.close()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def __reduce__(self):
        # Ship the coordinates, not the sockets: a process-pool worker
        # reconnects (and re-handshakes) against the same cluster. The
        # stats token rides along so a same-process rebuild resumes its
        # counters (a new PID starts fresh either way).
        return (
            _rebuild_remote,
            (
                self.replica_urls,
                self.timeout,
                self.retries,
                self.backoff,
                self.max_batch,
                self._stats_token,
                self.circuit_threshold,
                self.circuit_reset,
            ),
        )

    def __repr__(self) -> str:
        return (
            f"RemoteMasterStore({list(self.urls)!r}, tuples={self._tuples}, "
            f"digest={self._digest[:12]}…)"
        )


def _rebuild_remote(
    urls: tuple,
    timeout: float,
    retries: int,
    backoff: float,
    max_batch: int,
    stats_token: str | None = None,
    circuit_threshold: int = 3,
    circuit_reset: float = 1.0,
) -> RemoteMasterStore:
    return RemoteMasterStore(
        urls,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        max_batch=max_batch,
        stats_token=stats_token,
        circuit_threshold=circuit_threshold,
        circuit_reset=circuit_reset,
    )
