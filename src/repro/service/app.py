"""The routing core and the async entry service.

:class:`RoutingCore` is the single routing table of the HTTP surface:
the synchronous web explorer (:mod:`repro.explorer.web`) calls it under
one global lock, and :class:`AsyncCerFixService` calls it under
per-session asyncio locks — same routes, same payloads, one
implementation.

:class:`AsyncCerFixService` is the concurrent orchestrator: it owns the
shared probe cache, the probe micro-batcher, the suggestion and chase
memos, the admission controller and the metrics, multiplexes many
concurrent monitor sessions over one engine, and serialises exactly
what must be serialised — operations *within* one session (per-session
asyncio lock) and engine-level routes (one engine lock). Session routes
run on the event loop for in-process stores and on a thread-pool
executor for an ``io_bound`` (remote) store; engine-level routes always
run on the executor, so a long ``/api/clean`` never stalls the loop.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Mapping
from urllib.parse import parse_qs

from repro.audit.stats import attribute_stats, overall_stats
from repro.errors import CerFixError, MonitorError
from repro.monitor.session import MonitorSession
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.obs.monitor import install_process_gauges
from repro.service.batcher import CoalescingMasterDataManager, ProbeBatcher, ProbeKeyer
from repro.service.cache import LRUMemo, MemoView, SharedProbeCache
from repro.service.limits import Admission, AdmissionController
from repro.service.metrics import ServiceMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.engine import CerFix


def session_state(session: MonitorSession) -> dict[str, Any]:
    """The JSON view of one monitor session (shared by every surface)."""
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


class RoutingCore:
    """Routes HTTP verbs+paths onto one engine. Not itself thread-safe:
    the sync web app serialises calls with one lock; the async service
    guarantees that a session is only touched under its session lock
    and engine-level routes only under the engine lock."""

    def __init__(
        self,
        engine: "CerFix",
        *,
        session_factory: Callable[[Mapping[str, Any], str], MonitorSession] | None = None,
        metrics_json: Callable[[], dict] | None = None,
    ):
        self.engine = engine
        self.sessions: dict[str, MonitorSession] = {}
        self._session_factory = session_factory or (
            lambda values, tuple_id: engine.session(values, tuple_id)
        )
        self._metrics_json = metrics_json
        self._auto_id = itertools.count()

    def _default_tuple_id(self) -> str:
        # A monotone counter, skipping live ids: len(sessions) would
        # repeat an existing id forever once DELETE shrinks the dict.
        while True:
            tuple_id = f"web{next(self._auto_id)}"
            if tuple_id not in self.sessions:
                return tuple_id

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
            if self._metrics_json is None:
                return 404, {
                    "error": "metrics are collected by the async entry service; "
                    "run `cerfix serve --async`"
                }
            return 200, self._metrics_json()
        if parts == ["api", "rules"] and method == "GET":
            return 200, [
                {"id": r.rule_id, "rule": r.render(), "description": r.description}
                for r in self.engine.ruleset
            ]
        if parts == ["api", "rules", "check"] and method == "GET":
            report = self.engine.check_consistency(samples=int(query.get("samples", 20)))
            return 200, {
                "consistent": report.is_consistent,
                "conflicts": [c.describe() for c in report.conflicts],
                "cross_entity": [c.describe() for c in report.cross_entity_conflicts],
                "ambiguities": [a.describe() for a in report.ambiguities],
            }
        if parts == ["api", "regions"] and method == "GET":
            k = int(query.get("k", 5))
            regions = self.engine.precompute_regions(k=k)
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
            try:
                workers = int(body.get("workers", 1))
            except (TypeError, ValueError):
                return 400, {"error": f"'workers' must be an integer, got {body.get('workers')!r}"}
            result = self.engine.clean_relation(
                dirty,
                truth,
                workers=workers,
                backend=str(body.get("backend", "thread")),
                dedupe=bool(body.get("dedupe", True)),
                validated=tuple(body.get("validated", ())),
            )
            return 200, {
                "rows": [r.to_dict() for r in result.relation.rows()],
                "report": result.report.to_json(),
            }
        if parts == ["api", "sessions"] and method == "POST":
            tuple_id = str(body.get("tuple_id") or self._default_tuple_id())
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

    * a read-through :class:`SharedProbeCache` over the engine's master
      store, fed by the :class:`ProbeBatcher`'s coalesced micro-batches;
    * a :class:`~repro.service.cache.LRUMemo` suggestion memo, scoped
      to the current regions epoch;
    * a :class:`~repro.service.cache.LRUMemo` chase memo (see
      :func:`repro.core.chase.chase_memoized`), bypassed by strict
      sessions;
    * an :class:`AdmissionController` enforcing the global/per-session
      queue bounds (saturation answers ``429`` + ``Retry-After``);
    * :class:`ServiceMetrics` behind ``GET /api/metrics``.

    Session operations run under per-session asyncio locks, where
    ``dispatch`` puts them: ``auto`` picks by store kind — ``inline``
    (on the event loop) for in-process stores, ``executor`` (a thread
    pool) for an ``io_bound`` store, whose network probes must never
    block the loop. Engine-level routes (``/api/clean``,
    ``/api/regions``, …) always run on the executor, under one engine
    lock, whatever the mode. The service produces
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
        dispatch: str = "auto",
        completed_retention: int = 1024,
    ):
        if dispatch not in ("auto", "executor", "inline"):
            raise ValueError(
                f"dispatch must be 'auto', 'executor' or 'inline', got {dispatch!r}"
            )
        if dispatch == "auto":
            # The store kind decides, not the core count: under the GIL
            # executor threads cannot overlap pure-Python chases, so the
            # two thread handoffs per request are pure overhead for an
            # in-process store. An io_bound store (the remote shard
            # cluster) must never probe inline — a blocking network round
            # trip (worse, a retry cycle against a down shard) on the
            # event loop would stall accepts and backpressure.
            dispatch = "executor" if engine.master.store.io_bound else "inline"
        elif dispatch == "inline" and engine.master.store.io_bound:
            # Not a coercion: an operator who pinned inline for a remote
            # store has configured a service that freezes for
            # timeout x retries whenever a shard hiccups — refuse loudly.
            raise ValueError(
                "dispatch='inline' cannot be used with an io_bound master "
                "store (remote shard cluster): a blocking network probe on "
                "the event loop stalls every session; use 'executor' or 'auto'"
            )
        self.dispatch_mode = dispatch
        self.engine = engine
        self.metrics = ServiceMetrics()
        self.cache = SharedProbeCache(cache_size)
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
        self.batcher = ProbeBatcher(
            engine.master.store,
            self.cache,
            window=batch_window_ms / 1000.0,
            max_batch=max_batch,
            metrics=self.metrics,
        )
        self.keyer = ProbeKeyer(engine.ruleset)
        self.manager = CoalescingMasterDataManager(
            engine.master.store, self.cache, self.batcher, self.keyer
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
        registry = get_registry()
        self.metrics.register(registry, "service")
        install_process_gauges(registry)
        registry.set_gauge("cerfix.service.max_sessions", max_sessions)
        registry.set_gauge("cerfix.service.max_inflight", max_inflight)
        registry.set_gauge("cerfix.service.max_session_pending", max_session_pending)

    # -- lifecycle ----------------------------------------------------------

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the service to its event loop (the HTTP server calls
        this once, before accepting connections)."""
        self.batcher.bind_loop(loop)

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- session plumbing ----------------------------------------------------

    def _open_session(self, values: Mapping[str, Any], tuple_id: str) -> MonitorSession:
        """Session factory: inject the coalescing manager, the shared
        chase memo (strict sessions drop it) and the regions-scoped
        suggestion memo.

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
        """One request: admission → lock → route (executor) → account.

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
                self.metrics.request_started()
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
                    self.metrics.request_finished(
                        route_class, status, time.perf_counter() - start
                    )

    async def _process(
        self,
        method: str,
        path: str,
        body: dict | None,
        parts: list[str],
        route_class: str,
        session_id: str | None,
    ) -> tuple[int, dict | list, dict[str, str]]:
        mean_latency = self.metrics.mean_latency()
        admission = self.admission.enter_request(mean_latency)
        if not admission.admitted:
            return self._rejected(admission)
        reserved = False
        try:
            if route_class == "open":
                body = dict(body or {})
                if not body.get("tuple_id"):  # falsy ids get the auto id,
                    # matching RoutingCore's fallback, so the lock we take
                    # here is for the id the session is actually stored under
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
            # Runs on the loop; probe misses take the batcher's direct
            # path (see ProbeBatcher.probe_sync) so nothing deadlocks.
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
            self.metrics.session_opened()
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
                self.metrics.session_evicted()
                self.admission.release_session()
            self._completed.discard(session_id)
            self._retained.pop(session_id, None)

    def _mark_completed(self, session_id: str) -> None:
        """A session reached its certain fix: free its admission slot and
        retain it for reads, evicting the oldest retained session beyond
        ``completed_retention`` (completed work must not grow memory
        forever — the fix itself is in the response and the audit log)."""
        self._completed.add(session_id)
        self.metrics.session_completed()
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

    def metrics_json(self) -> dict:
        data = self.metrics.to_json()
        stats = self.cache.stats
        data["probe_cache"] = {
            **stats.to_json(),
            "size": len(self.cache),
            "maxsize": self.cache.maxsize,
        }
        data["suggestion_memo"] = _memo_json(self.memo)
        data["chase_memo"] = _memo_json(self.chase_memo)
        data["limits"] = {
            "max_sessions": self.admission.max_sessions,
            "max_inflight": self.admission.max_inflight,
            "max_session_pending": self.admission.max_session_pending,
        }
        data["dispatch"] = self.dispatch_mode
        data["registry"] = get_registry().dump()
        return data


def _memo_json(memo: LRUMemo) -> dict:
    stats = memo.stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "size": len(memo),
        "maxsize": memo.maxsize,
    }
