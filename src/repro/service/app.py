"""The routing core and the async entry service.

:class:`RoutingCore` is the routing table of the HTTP surface: verbs
and paths onto one engine. :class:`AsyncCerFixService` calls it under
per-session asyncio locks (session routes) or one engine lock
(engine-level routes).

:class:`AsyncCerFixService` is the concurrent orchestrator behind
``cerfix serve``: it owns the suggestion and chase memos, the admission
controller and its own metrics registry — plus, over a remote store,
the shared probe cache and the probe micro-batcher — multiplexes many
concurrent monitor sessions over one engine, and serialises exactly
what must be serialised — operations *within* one session
(per-session asyncio lock) and engine-level routes (one engine lock). The store kind picks
where session routes run: on the event loop for in-process stores, on
a thread-pool executor for an ``io_bound`` (remote) store. Engine-level
routes always run on the executor, so a long ``/api/clean`` never
stalls the loop.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Mapping
from urllib.parse import parse_qs

from repro.audit.stats import attribute_stats, overall_stats
from repro.batch.cache import CachingMasterDataManager, LRUMemo, MemoView
from repro.errors import CerFixError, MonitorError, ValidationError
from repro.monitor.session import MonitorSession
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, component_dump
from repro.obs.monitor import install_process_gauges
from repro.service.batcher import ProbeBatcher
from repro.service.limits import Admission, AdmissionController

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.engine import CerFix


def session_state(session: MonitorSession) -> dict[str, Any]:
    """The JSON view of one monitor session."""
    suggestion = None if session.is_complete else session.suggestion()
    return {
        "tuple_id": session.tuple_id,
        "values": {k: str(v) for k, v in session.current_values().items()},
        "validated": sorted(session.validated),
        "complete": session.is_complete,
        "round": session.round_no,
        "conflicts": [c.describe() for c in session.conflicts],
        "suggestion": None
        if suggestion is None
        else {
            "attrs": list(suggestion.attrs),
            "strategy": suggestion.strategy.value,
            "rationale": suggestion.rationale,
        },
    }


#: Route classes a request is binned into for latency accounting.
ROUTE_CLASSES = ("open", "validate", "read", "other")


def classify_route(method: str, parts: list[str]) -> tuple[str, str | None]:
    """(route class, session id) for admission/latency accounting.

    Classes: ``open`` (session creation), ``validate`` (session
    mutation), ``read`` (session state read/delete), ``other``
    (engine-level routes).
    """
    if parts[:2] == ["api", "sessions"]:
        if method == "POST" and len(parts) == 2:
            return "open", None
        if len(parts) == 4 and parts[3] == "validate":
            return "validate", parts[2]
        if len(parts) == 3:
            return "read", parts[2]
    return "other", None


def _int_param(params: Mapping[str, Any], name: str, default: int) -> int:
    """An integer query or body parameter; a bad value is the client's
    error (400), not the server's."""
    raw = params.get(name, default)
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"{name!r} must be an integer, got {raw!r}") from None


class RoutingCore:
    """Routes HTTP verbs+paths onto one engine (the demo's web
    interface, paper Fig. 1, as a JSON API):

    ======  ===========================  ==================================
    verb    path                         effect
    ======  ===========================  ==================================
    GET     /api/instance                engine summary (schemas, rules,
                                         mode, store)
    GET     /api/rules                   the rule table (Fig. 2)
    GET     /api/rules/check?samples=20  the consistency analysis
    GET     /api/regions?k=5             top-k certain regions
    POST    /api/clean                   ``{"rows": [...], "truth": [...]?}``
                                         — batch-clean a relation serially
    POST    /api/sessions                ``{"tuple_id"?, "values": {...}}``
                                         — open a monitor session
    GET     /api/sessions/<id>           session state
    POST    /api/sessions/<id>/validate  ``{"assignments": {...}}`` — chase
    DELETE  /api/sessions/<id>           drop a session
    GET     /api/audit[/<tuple_id>]      Fig. 4 statistics / change trace
    GET     /api/metrics                 service metrics (the HTTP front
                                         end answers ``?format=prometheus``
                                         itself)
    ======  ===========================  ==================================

    Not itself thread-safe: the async service guarantees that a session
    is only touched under its session lock and engine-level routes only
    under the engine lock. A ``POST /api/sessions`` body always reaches
    this table with a ``tuple_id``: the service assigns the auto id
    first."""

    def __init__(
        self,
        engine: "CerFix",
        *,
        session_factory: Callable[[Mapping[str, Any], str], MonitorSession],
        metrics_json: Callable[[], dict],
    ):
        self.engine = engine
        self.sessions: dict[str, MonitorSession] = {}
        self._session_factory = session_factory
        self._metrics_json = metrics_json

    def handle(self, method: str, path: str, body: dict | None) -> tuple[int, dict | list]:
        raw_path, _, raw_query = path.partition("?")
        parts = [p for p in raw_path.split("/") if p]
        query = (
            {k: v[-1] for k, v in parse_qs(raw_query).items()} if raw_query else {}
        )
        try:
            return self._route(method, parts, query, body or {})
        except MonitorError as exc:
            return 409, {"error": str(exc)}
        except CerFixError as exc:
            return 400, {"error": str(exc)}

    def _route(self, method, parts, query, body) -> tuple[int, dict | list]:
        if parts == ["api", "instance"] and method == "GET":
            engine = self.engine
            return 200, {
                "input_schema": list(engine.ruleset.input_schema.names),
                "master_schema": list(engine.ruleset.master_schema.names),
                "rules": len(engine.ruleset),
                "master_tuples": len(engine.master),
                "mode": engine.mode.value,
                "strategy": engine.strategy.value,
                "store": engine.master.store.stats(),
            }
        if parts == ["api", "metrics"] and method == "GET":
            return 200, self._metrics_json()
        if parts == ["api", "rules"] and method == "GET":
            return 200, [
                {"id": r.rule_id, "rule": r.render(), "description": r.description}
                for r in self.engine.ruleset
            ]
        if parts == ["api", "rules", "check"] and method == "GET":
            report = self.engine.check_consistency(samples=_int_param(query, "samples", 20))
            return 200, {
                "consistent": report.is_consistent,
                "conflicts": [c.describe() for c in report.conflicts],
                "cross_entity": [c.describe() for c in report.cross_entity_conflicts],
                "ambiguities": [a.describe() for a in report.ambiguities],
            }
        if parts == ["api", "regions"] and method == "GET":
            regions = self.engine.precompute_regions(k=_int_param(query, "k", 5))
            return 200, [
                {
                    "rank": i + 1,
                    "attrs": list(r.region.attrs),
                    "tableau": [p.render() for p in r.region.tableau],
                    "coverage": r.coverage,
                }
                for i, r in enumerate(regions)
            ]
        if parts == ["api", "clean"] and method == "POST":
            from repro.relational.relation import Relation

            rows = body.get("rows")
            if not isinstance(rows, list) or not rows:
                return 400, {"error": "body must carry a non-empty 'rows' array"}
            schema = self.engine.ruleset.input_schema
            dirty = Relation(schema, rows)
            truth_rows = body.get("truth")
            truth = Relation(schema, truth_rows) if truth_rows else None
            # Always serial: forking a worker pool inside the process
            # that runs the event loop is unsafe.
            result = self.engine.clean_relation(
                dirty,
                truth,
                dedupe=bool(body.get("dedupe", True)),
                validated=tuple(body.get("validated", ())),
            )
            return 200, {
                "rows": [r.to_dict() for r in result.relation.rows()],
                "report": result.report.to_json(),
            }
        if parts == ["api", "sessions"] and method == "POST":
            tuple_id = str(body["tuple_id"])
            values = body.get("values")
            if not isinstance(values, dict):
                return 400, {"error": "body must carry a 'values' object"}
            if tuple_id in self.sessions:
                return 409, {"error": f"session {tuple_id!r} already exists"}
            session = self._session_factory(values, tuple_id)
            self.sessions[tuple_id] = session
            return 201, session_state(session)
        if len(parts) == 3 and parts[:2] == ["api", "sessions"] and method == "GET":
            session = self.sessions.get(parts[2])
            if session is None:
                return 404, {"error": f"no session {parts[2]!r}"}
            return 200, session_state(session)
        if len(parts) == 3 and parts[:2] == ["api", "sessions"] and method == "DELETE":
            session = self.sessions.pop(parts[2], None)
            if session is None:
                return 404, {"error": f"no session {parts[2]!r}"}
            return 200, {"deleted": parts[2], "complete": session.is_complete}
        if (
            len(parts) == 4
            and parts[:2] == ["api", "sessions"]
            and parts[3] == "validate"
            and method == "POST"
        ):
            session = self.sessions.get(parts[2])
            if session is None:
                return 404, {"error": f"no session {parts[2]!r}"}
            assignments = body.get("assignments")
            if not isinstance(assignments, dict):
                return 400, {"error": "body must carry an 'assignments' object"}
            session.validate(assignments)
            return 200, session_state(session)
        if parts == ["api", "audit"] and method == "GET":
            stats = attribute_stats(self.engine.audit)
            overall = overall_stats(self.engine.audit)
            return 200, {
                "attributes": [
                    {
                        "attr": s.attr,
                        "by_user": s.user_validations,
                        "by_cerfix": s.rule_fixes,
                        "pct_user": s.pct_user,
                        "pct_auto": s.pct_auto,
                    }
                    for s in stats
                ],
                "overall": {
                    "tuples": overall.tuples,
                    "user_share": overall.user_share,
                    "auto_share": overall.auto_share,
                },
            }
        if len(parts) == 3 and parts[:2] == ["api", "audit"] and method == "GET":
            events = self.engine.audit.by_tuple(parts[2])
            return 200, [e.to_json() for e in events]
        return 404, {"error": f"no route {method} /{'/'.join(parts)}"}


class AsyncCerFixService:
    """Multiplexed monitor sessions over one engine, asyncio-native.

    Shared infrastructure (one instance each, all sessions):

    * over an ``io_bound`` store only, a
      :class:`~repro.batch.cache.CachingMasterDataManager` probe cache
      whose misses go through the :class:`ProbeBatcher`'s coalesced
      micro-batches. Sessions over an in-process store probe the
      engine's own manager: the store's memo already answers repeats;
    * an :class:`~repro.batch.cache.LRUMemo` suggestion memo, scoped
      to the current regions epoch;
    * an :class:`~repro.batch.cache.LRUMemo` chase memo (see
      :func:`repro.core.chase.chase_memoized`), bypassed by strict
      sessions;
    * an :class:`AdmissionController` enforcing the global/per-session
      queue bounds (saturation answers ``429`` + ``Retry-After``);
    * a :class:`~repro.obs.metrics.MetricsRegistry` of its own
      (:attr:`metrics`) for the ``cerfix.service.*`` request, session
      and probe counters and the per-route-class latency histograms,
      behind ``GET /api/metrics``.

    Session operations run under per-session asyncio locks, where the
    store kind puts them (``dispatch_mode``): ``inline`` (on the event
    loop) for in-process stores — under the GIL executor threads cannot
    overlap pure-Python chases, so a thread handoff would be pure
    overhead — and ``executor`` (a thread pool) for an ``io_bound``
    store (the remote shard cluster), whose network probes, and retry
    cycles against a down shard, must never block the loop.
    Engine-level routes (``/api/clean``, ``/api/regions``, …) always run
    on the executor, under one engine lock. The service produces
    bit-identical per-tuple outputs to the serial monitor path for any
    interleaving of sessions — `tests/test_service.py` and the
    differential suite enforce this across every store backend.
    """

    def __init__(
        self,
        engine: "CerFix",
        *,
        max_sessions: int = 256,
        max_inflight: int = 1024,
        max_session_pending: int = 16,
        cache_size: int = 8192,
        memo_size: int = 4096,
        batch_window_ms: float = 1.0,
        max_batch: int = 64,
        workers: int = 8,
        completed_retention: int = 1024,
    ):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        io_bound = engine.master.store.io_bound
        self.dispatch_mode = "executor" if io_bound else "inline"
        self.engine = engine
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter("cerfix.service.requests")
        self._latency = {
            cls: self.metrics.histogram(f"cerfix.service.request_seconds.{cls}")
            for cls in ROUTE_CLASSES
        }
        self.memo = LRUMemo(memo_size)
        #: One chase-transcript memo for the service's lifetime: sound
        #: because master content is fixed here (the probe cache is never
        #: invalidated either), and a chase reads no regions, so unlike
        #: the suggestion memo it needs no epoch token.
        self.chase_memo = LRUMemo(memo_size)
        self.admission = AdmissionController(
            max_sessions=max_sessions,
            max_inflight=max_inflight,
            max_session_pending=max_session_pending,
        )
        #: The probe cache and batcher exist only over an io_bound store;
        #: :attr:`manager` is what sessions probe through.
        self.cache: LRUMemo | None = None
        self.batcher: ProbeBatcher | None = None
        self.manager = engine.master
        if io_bound:
            self.cache = LRUMemo(cache_size)
            self.batcher = ProbeBatcher(
                engine.master.store,
                window=batch_window_ms / 1000.0,
                max_batch=max_batch,
                metrics=self.metrics,
            )
            self.manager = CachingMasterDataManager(
                engine.master.store, self.cache, fetch=self.batcher.probe_sync
            )
        self.core = RoutingCore(
            engine, session_factory=self._open_session, metrics_json=self.metrics_json
        )
        if engine.use_index:
            engine.master.prebuild(engine.ruleset)  # probing happens from many threads
        self._executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="cerfix-svc")
        if completed_retention < 1:
            raise ValueError(f"completed_retention must be >= 1, got {completed_retention}")
        self.completed_retention = completed_retention
        self._engine_lock = asyncio.Lock()
        self._session_locks: dict[str, asyncio.Lock] = {}
        self._completed: set[str] = set()
        #: Completed sessions kept readable, oldest-first — bounded by
        #: ``completed_retention`` so a long-running service does not
        #: grow memory with every session it ever finished.
        self._retained: dict[str, None] = {}
        self._id_counter = itertools.count()
        install_process_gauges()
        self.metrics.set_gauge("cerfix.service.max_sessions", max_sessions)
        self.metrics.set_gauge("cerfix.service.max_inflight", max_inflight)
        self.metrics.set_gauge("cerfix.service.max_session_pending", max_session_pending)

    # -- lifecycle ----------------------------------------------------------

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the service to its event loop (the HTTP server calls
        this once, before accepting connections)."""
        if self.batcher is not None:
            self.batcher.bind_loop(loop)

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- session plumbing ----------------------------------------------------

    def _open_session(self, values: Mapping[str, Any], tuple_id: str) -> MonitorSession:
        """Session factory: inject the service's manager (the shared
        probe cache over a remote store), the shared chase memo (strict
        sessions drop it) and the regions-scoped suggestion memo.

        The memo token is the *same regions tuple the session captures*
        (read exactly once), so a concurrent ``/api/regions`` recompute
        can never leave a session writing memo entries under a token
        that disagrees with the regions it actually suggests from —
        content-equal regions share a key space, different regions never
        do."""
        regions = self.engine.regions
        memo = MemoView(self.memo, regions)
        return self.engine.session(
            values,
            tuple_id,
            regions=regions,
            master=self.manager,
            suggestion_memo=memo,
            chase_memo=self.chase_memo,
        )

    def _session_lock(self, session_id: str) -> asyncio.Lock:
        lock = self._session_locks.get(session_id)
        if lock is None:
            lock = self._session_locks[session_id] = asyncio.Lock()
        return lock

    def _drop_session_lock(self, session_id: str) -> None:
        """Remove a session's lock only when nothing holds or awaits it.

        Popping a contended lock would let the next request mint a
        *second* lock for the same id and run concurrently with the
        queued holder of the first; when waiters exist, the waiter's own
        request performs the cleanup at its end instead. (Runs on the
        loop, so the check and the pop are atomic.)"""
        lock = self._session_locks.get(session_id)
        if lock is not None and not lock.locked() and not getattr(lock, "_waiters", None):
            self._session_locks.pop(session_id, None)

    def _auto_session_id(self) -> str:
        """The next auto id, skipping ids a client claimed explicitly."""
        while True:
            candidate = f"s{next(self._id_counter)}"
            if candidate not in self.core.sessions:
                return candidate

    @property
    def active_sessions(self) -> int:
        """Open sessions holding an admission slot (reserved, not yet
        completed/evicted)."""
        return self.admission.active_sessions

    # -- request handling ----------------------------------------------------

    async def handle(
        self,
        method: str,
        path: str,
        body: dict | None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict | list, dict[str, str]]:
        """One request: admission → lock → route → account.

        ``headers`` (lower-cased names, as the HTTP front end parses
        them) may carry an ``X-Cerfix-Trace`` parent, in which case the
        request span joins the caller's trace. Returns ``(status,
        payload, extra headers)`` — the headers carry ``Retry-After``
        on 429s.
        """
        parts = [p for p in path.partition("?")[0].split("/") if p]
        route_class, session_id = classify_route(method, parts)
        carrier = trace.parse_header((headers or {}).get(trace.HEADER.lower()))
        with trace.activate(carrier):
            with trace.span("request", method=method, route=route_class):
                self._requests.inc()
                start = time.perf_counter()
                status: int = 500
                try:
                    status, payload, extra = await self._process(
                        method, path, body, parts, route_class, session_id
                    )
                    return status, payload, extra
                except Exception as exc:  # never let a route error kill the server
                    status = 500
                    return 500, {"error": f"internal error: {exc}"}, {}
                finally:
                    self._latency[route_class].observe(time.perf_counter() - start)
                    self.metrics.inc(f"cerfix.service.responses.{status}")

    async def _process(
        self,
        method: str,
        path: str,
        body: dict | None,
        parts: list[str],
        route_class: str,
        session_id: str | None,
    ) -> tuple[int, dict | list, dict[str, str]]:
        mean_latency = self.mean_latency()
        admission = self.admission.enter_request(mean_latency)
        if not admission.admitted:
            return self._rejected(admission)
        reserved = False
        try:
            if route_class == "open":
                body = dict(body or {})
                if not body.get("tuple_id"):  # falsy ids get the auto id
                    body["tuple_id"] = self._auto_session_id()
                session_id = str(body["tuple_id"])
                # Reservation, not a read-then-check: concurrent opens
                # racing an unreserved count would all be admitted.
                admit = self.admission.reserve_session(mean_latency)
                if not admit.admitted:
                    return self._rejected(admit)
                reserved = True
            if session_id is not None:
                pending = self.admission.enter_session_op(session_id, mean_latency)
                if not pending.admitted:
                    if reserved:
                        self.admission.release_session()
                    return self._rejected(pending)
                try:
                    async with self._session_lock(session_id):
                        status, payload = await self._dispatch(method, path, body)
                except BaseException:
                    if reserved:
                        self.admission.release_session()
                    raise
                finally:
                    self.admission.exit_session_op(session_id)
                if reserved and status != 201:
                    self.admission.release_session()  # the open never happened
                self._account_session(method, route_class, session_id, status, payload)
                if session_id not in self.core.sessions:
                    # 404s for arbitrary ids (and deletes) must not leave
                    # a Lock behind, or the dict grows with the id space.
                    self._drop_session_lock(session_id)
                    self.admission.forget_session(session_id)
            else:
                async with self._engine_lock:
                    status, payload = await self._run_in_executor(method, path, body)
            return status, payload, {}
        finally:
            self.admission.exit_request()

    async def _dispatch(self, method: str, path: str, body: dict | None) -> tuple[int, Any]:
        """A session route, on the loop or on the executor."""
        if self.dispatch_mode == "inline":
            # Runs on the loop: an in-process store's probes never block.
            return self.core.handle(method, path, body)
        return await self._run_in_executor(method, path, body)

    async def _run_in_executor(
        self, method: str, path: str, body: dict | None
    ) -> tuple[int, Any]:
        loop = asyncio.get_running_loop()
        # Contextvars do not cross run_in_executor: ship the trace
        # context as a carrier so session work (suggest/chase spans,
        # remote probes) parents under this request's span.
        car = trace.carrier()
        return await loop.run_in_executor(
            self._executor, self._handle_traced, car, method, path, body
        )

    def _handle_traced(
        self, car: trace.TraceCarrier | None, method: str, path: str, body: dict | None
    ) -> tuple[int, Any]:
        with trace.activate(car):
            return self.core.handle(method, path, body)

    @staticmethod
    def _rejected(admission: Admission) -> tuple[int, dict, dict]:
        return 429, admission.payload(), {"Retry-After": str(admission.retry_after)}

    def _account_session(
        self, method: str, route_class: str, session_id: str, status: int, payload
    ) -> None:
        """Session lifecycle accounting (runs on the loop, so transitions
        for one session are ordered by its lock). A completed or evicted
        session releases its admission slot exactly once."""
        if route_class == "open" and status == 201:
            self.metrics.inc("cerfix.service.sessions.opened")
            if isinstance(payload, dict) and payload.get("complete"):
                self._mark_completed(session_id)
        elif route_class == "validate" and status == 200:
            if (
                isinstance(payload, dict)
                and payload.get("complete")
                and session_id not in self._completed
            ):
                self._mark_completed(session_id)
        elif method == "DELETE" and status == 200:
            if session_id not in self._completed:
                self.metrics.inc("cerfix.service.sessions.evicted")
                self.admission.release_session()
            self._completed.discard(session_id)
            self._retained.pop(session_id, None)

    def _mark_completed(self, session_id: str) -> None:
        """A session reached its certain fix: free its admission slot and
        retain it for reads, evicting the oldest retained session beyond
        ``completed_retention`` (completed work must not grow memory
        forever — the fix itself is in the response and the audit log)."""
        self._completed.add(session_id)
        self.metrics.inc("cerfix.service.sessions.completed")
        self.admission.release_session()
        self._retained[session_id] = None
        while len(self._retained) > self.completed_retention:
            oldest = next(iter(self._retained))
            del self._retained[oldest]
            self.core.sessions.pop(oldest, None)
            self._completed.discard(oldest)
            self._drop_session_lock(oldest)
            self.admission.forget_session(oldest)

    # -- metrics -------------------------------------------------------------

    def mean_latency(self) -> float:
        """Lifetime mean request latency (seconds), the admission
        controller's Retry-After estimate: the latency histograms'
        running totals, so O(1) on the per-request hot path."""
        count, total_ms = 0, 0.0
        for hist in self._latency.values():
            n, ms = hist.totals()
            count += n
            total_ms += ms
        return total_ms / count / 1000.0 if count else 0.0

    def metrics_json(self) -> dict:
        """The ``GET /api/metrics`` payload: this service's counts and
        limits, read from the scrape dump it also carries as
        ``registry``, plus the memos."""
        registry = component_dump(self.metrics)
        ns = "cerfix.service."
        counts = {k[len(ns):]: v for k, v in registry["counters"].items() if k.startswith(ns)}
        by_status = {
            k[len("responses."):]: v for k, v in sorted(counts.items()) if k.startswith("responses.")
        }
        sessions = {k: counts.get(f"sessions.{k}", 0) for k in ("opened", "completed", "evicted")}
        total = counts.get("requests", 0)
        return {
            "requests": {
                "total": total,
                "in_flight": total - sum(by_status.values()),
                "by_status": by_status,
                "rejected_429": by_status.get("429", 0),
            },
            "sessions": {
                **sessions,
                "active": sessions["opened"] - sessions["completed"] - sessions["evicted"],
            },
            "probes": {
                k: counts.get(f"probes.{k}", 0) for k in ("coalesced", "batches", "store_probes")
            },
            "latency_ms": {
                cls: {
                    k: registry["histograms"][f"{ns}request_seconds.{cls}"][k]
                    for k in ("count", "p50_ms", "p95_ms", "p99_ms", "mean_ms")
                }
                for cls in ROUTE_CLASSES
            },
            # An in-process service has no probe cache: it reports 0 lookups.
            "probe_cache": {
                **_memo_json(self.cache),
                "evictions": self.cache.evictions if self.cache is not None else 0,
            },
            "suggestion_memo": _memo_json(self.memo),
            "chase_memo": _memo_json(self.chase_memo),
            "limits": {
                k[len(ns):]: v for k, v in registry["gauges"].items() if k.startswith(ns)
            },
            "dispatch": self.dispatch_mode,
            "registry": registry,
        }


def _memo_json(memo: LRUMemo | None) -> dict:
    if memo is None:
        return {"hits": 0, "misses": 0, "hit_rate": 0.0, "size": 0, "maxsize": 0}
    stats = memo.stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "size": len(memo),
        "maxsize": memo.maxsize,
    }
