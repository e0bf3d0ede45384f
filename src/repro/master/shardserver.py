"""The shard server: one master-data shard served over HTTP/JSON.

N shard-server *processes* (possibly on N hosts) each serve one shard of
the probe key space, and :class:`~repro.master.remote.RemoteMasterStore`
routes probes to them with the same deterministic
:func:`~repro.master.store.shard_of` hash. Every server loads the full
master content (raw tuples are cheap, and ``/relation`` serves them) but
indexes only the keys routed to its own shard: it is the probe indexes
that dominate memory at scale.

Wire protocol (all JSON)::

    GET  /healthz      {ok, shard_id, shards, tuples, digest, name}
    GET  /metrics      the process-wide registry dump merged with this
                       server's own ``cerfix.shard.*`` instruments, plus
                       their delta rates (see :mod:`repro.obs.metrics`)
                       — the scrape endpoint for the whole cluster;
                       ``?format=prometheus`` answers the Prometheus
                       text exposition instead (:mod:`repro.obs.promfmt`)
    GET  /relation     {schema, tuples, digest} — the canonical content
    POST /probe_many   {"probes": [{"rule_id": ..., "values": {...}}],
                        "use_index": true}
                       -> {"matches": [{"positions": [...], "values": [...]}]}

``/probe_many`` normalises each probe's key once and verifies that it
routes to this shard (409 on a misroute, before any index or scan is
read): a client/server disagreement on shard count or routing must
surface as a loud error, never as a silently incomplete match. The
server builds its index at construction, so no request warms anything.

Run one server per shard::

    cerfix shard-server --instance ./inst --shard-id 0 --shards 3 --port 8401

or programmatically (tests, benchmarks) through :class:`ShardServer` /
:class:`ShardCluster`, which also handle spawn/health-check/shutdown for
real subprocess clusters.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Sequence

from repro.errors import MasterDataError
from repro.core.ruleset import RuleSet
from repro.obs import promfmt, trace
from repro.obs.metrics import MetricsRegistry, component_dump
from repro.obs.monitor import install_process_gauges
from repro.master.store import (
    _distinct_in_position_order,
    _relation_digest,
    _scan_positions,
    require_scalar_relation,
    shard_of,
)
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import schema_to_json

#: How long cluster helpers wait for a freshly spawned server to answer
#: its first health check before declaring the spawn failed.
SPAWN_TIMEOUT = 20.0


class ShardServerApp:
    """The request handling behind one shard server (transport-free).

    Holds the rule set and the full master relation: ``/relation``
    serves it, and every match reads its correction values from it. Its
    probe index is small: for each rule index spec, one plain
    ``key → positions`` dict holding only the normalised keys
    :func:`~repro.master.store.shard_of` routes to this ``shard_id``.
    Every master row carrying a key sits in that key's bucket, and the
    positions stay in global order, so a routed probe answers exactly
    what a global index lookup would. A probe routing elsewhere is a
    misroute. Separated from the HTTP plumbing so tests can drive the
    routing table directly.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        relation: Relation,
        shard_id: int,
        shards: int,
        *,
        name: str = "",
    ):
        if not 0 <= shard_id < shards:
            raise MasterDataError(f"shard id {shard_id} out of range for {shards} shards")
        require_scalar_relation(relation, "shard-server master data")
        self.relation = relation
        self.shard_id = shard_id
        self.shards = shards
        self.name = name
        self.digest = _relation_digest(relation)
        # Built once, up front, from a throwaway full index: handler
        # threads only ever read these dicts, and no other shard's keys
        # stay resident.
        self.indexes: dict[tuple, dict[tuple, list[int]]] = {}
        for attrs, ops in ruleset.index_specs():
            self.indexes[(attrs, ops)] = {
                key: positions
                for key, positions in relation.build_index(attrs, ops).items()
                if shard_of(key, shards) == shard_id
            }
        #: rule id -> (rule, key normaliser, own-shard index, source column)
        self._rules = {
            r.rule_id: (
                r,
                HashIndex(r.m_attrs, r.ops),
                self.indexes[(r.m_attrs, r.ops)],
                relation.schema.position(r.source.name),
            )
            for r in ruleset
            if not r.is_constant
        }
        # This server's own instruments: shard servers sharing a process
        # (an in-process cluster) must not share request counts. The
        # per-process self-gauges stay on the process registry.
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter("cerfix.shard.requests")
        self._probes = self.metrics.counter("cerfix.shard.probes")
        self._misroutes = self.metrics.counter("cerfix.shard.misroutes")
        self._req_seconds = self.metrics.histogram("cerfix.shard.request_seconds")
        install_process_gauges()

    # -- routes -------------------------------------------------------------

    def handle(self, method: str, path: str, body: Any) -> tuple[int, Any]:
        """Route one request.

        Trace joining happens a layer up (the HTTP handler parses
        ``X-Cerfix-Trace`` and activates the client's context around
        this call) — ``handle`` keeps its three-argument shape so tests
        and embedders can wrap it without caring about telemetry."""
        start = time.perf_counter()
        try:
            return self._route(method, path, body)
        finally:
            self._req_seconds.observe(time.perf_counter() - start)

    def metrics_prometheus(self) -> str:
        """The scrape dump as Prometheus text (``/metrics?format=prometheus``)."""
        return promfmt.render(component_dump(self.metrics))

    def _route(self, method: str, path: str, body: Any) -> tuple[int, Any]:
        path = path.partition("?")[0]
        self._requests.inc()
        if method == "GET" and path == "/metrics":
            self.metrics.record_snapshot()
            return 200, {**component_dump(self.metrics), "rates": self.metrics.rates()}
        if method == "GET" and path == "/healthz":
            return 200, {
                "ok": True,
                "shard_id": self.shard_id,
                "shards": self.shards,
                "tuples": len(self.relation),
                "digest": self.digest,
                "name": self.name,
            }
        if method == "GET" and path == "/relation":
            return 200, {
                "schema": schema_to_json(self.relation.schema),
                "tuples": [list(t) for t in self.relation.tuples()],
                "digest": self.digest,
            }
        if method == "POST" and path == "/probe_many":
            return self._probe_many(body)
        return 404, {"error": f"no route {method} {path}"}

    def _probe_many(self, body: Any) -> tuple[int, Any]:
        if not isinstance(body, dict) or not isinstance(body.get("probes"), list):
            return 400, {"error": "expected a JSON body with a 'probes' list"}
        use_index = bool(body.get("use_index", True))
        relation = self.relation
        matches: list[dict] = []
        for i, probe in enumerate(body["probes"]):
            rule_id = probe.get("rule_id") if isinstance(probe, dict) else None
            entry = self._rules.get(rule_id)
            if entry is None:
                return 400, {
                    "error": f"probe {i}: unknown or constant rule {rule_id!r} "
                    f"(this server holds {sorted(self._rules)})"
                }
            rule, normalizer, index, source_col = entry
            values = probe.get("values")
            if not isinstance(values, dict):
                return 400, {"error": f"probe {i}: 'values' must be an object"}
            missing = [a for a in rule.lhs_attrs if a not in values]
            if missing:
                return 400, {"error": f"probe {i}: rule {rule_id} needs values for {missing}"}
            raw = tuple(values[a] for a in rule.lhs_attrs)
            key = normalizer.key_of(raw)
            expected = shard_of(key, self.shards)
            if expected != self.shard_id:
                # Answered before any index or scan is touched.
                self._misroutes.inc()
                return 409, {
                    "error": f"probe {i}: key routes to shard {expected}, "
                    f"not this server's shard {self.shard_id} — client and "
                    f"server disagree on shard count or routing",
                    "expected_shard": expected,
                }
            if use_index:
                positions = index.get(key, ())
            else:
                positions = _scan_positions(relation, rule, raw)
            matches.append(
                {
                    "positions": list(positions),
                    "values": list(_distinct_in_position_order(relation, source_col, positions)),
                }
            )
        self._probes.inc(len(matches))
        return 200, {"matches": matches}


class _Handler(BaseHTTPRequestHandler):
    app: ShardServerApp  # bound per server via a subclass

    #: HTTP/1.1: keep-alive by default, so the client's pooled
    #: connections actually persist across probes (every response
    #: carries an explicit Content-Length).
    protocol_version = "HTTP/1.1"

    #: Responses go out as two writes (header block, then body); with
    #: Nagle on, the second write stalls on the client's delayed ACK —
    #: ~40ms *per probe* on a sub-millisecond link.
    disable_nagle_algorithm = True

    def _respond(self, status: int, payload: Any) -> None:
        data = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _respond_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, method: str) -> None:
        path, _, query = self.path.partition("?")
        if method == "GET" and path == "/metrics" and "format=prometheus" in query:
            try:
                self._respond_text(
                    200, self.app.metrics_prometheus(), promfmt.CONTENT_TYPE
                )
            except Exception as exc:
                self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        body = None
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            try:
                body = json.loads(self.rfile.read(length))
            except json.JSONDecodeError:
                self._respond(400, {"error": "request body is not valid JSON"})
                return
        try:
            carrier = trace.parse_header(self.headers.get(trace.HEADER))
            if carrier is None:
                status, payload = self.app.handle(method, self.path, body)
            else:
                # Join the client's trace: a clean run over a spawned
                # cluster exports one connected tree across processes.
                with trace.activate(carrier):
                    with trace.span(
                        "shard-server", shard=self.app.shard_id, path=self.path
                    ):
                        status, payload = self.app.handle(method, self.path, body)
        except Exception as exc:  # a handler bug must not kill the thread
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._respond(status, payload)

    def do_GET(self):  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def log_message(self, fmt, *args):  # silence request logging
        pass


class _TrackingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that can sever its live connections.

    Keep-alive handler threads block reading the next request; plain
    ``server_close`` only closes the *listening* socket, which would
    leave a "stopped" server still answering pooled clients. Tracking
    the accepted sockets lets :meth:`close_connections` shut them down
    for real — what makes an in-process restart look like a process
    kill to the client (connection reset, then retry)."""

    daemon_threads = True

    def __init__(self, *args, **kwargs):
        self._conns: set = set()
        self._conns_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def get_request(self):
        request, client_address = super().get_request()
        with self._conns_lock:
            self._conns.add(request)
        return request, client_address

    def shutdown_request(self, request):
        with self._conns_lock:
            self._conns.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        import socket as _socket

        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass

    def handle_error(self, request, client_address):
        # A client dropping its pooled keep-alive socket (close, restart,
        # retry-after-reset) is normal operation, not a server error.
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)


class ShardServer:
    """One running shard server (threaded HTTP over a bound socket).

    In-process flavour: tests and benchmarks boot clusters of these on
    ephemeral ports without paying interpreter startup; the CLI's
    ``cerfix shard-server`` runs exactly this class in the foreground.
    Use as a context manager, or pair :meth:`start` with :meth:`close`.
    """

    def __init__(
        self,
        app: ShardServerApp,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.app = app
        handler = type("BoundShardHandler", (_Handler,), {"app": app})
        self.httpd = _TrackingHTTPServer((host, port), handler)
        self.host = host
        self.port = self.httpd.server_address[1]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ShardServer":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            daemon=True,
            name=f"cerfix-shard-{self.app.shard_id}",
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Foreground serving (the CLI path); Ctrl-C returns."""
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.httpd.server_close()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.close_connections()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ShardServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


# -- cluster lifecycle --------------------------------------------------------


class ShardCluster:
    """N shard servers over one master content, as one lifecycle.

    Two flavours behind one interface:

    * :meth:`in_process` — :class:`ShardServer` threads in this
      process (fast; unit tests, benchmarks);
    * :meth:`spawn` — ``cerfix shard-server`` *subprocesses* over an
      instance directory (what the CI ``remote-store`` leg and real
      deployments look like), each health-checked before the
      constructor returns and killed on :meth:`close` so no orphan
      survives the caller.

    With ``replicas > 1`` each shard gets that many identical members
    (same ``shard_id``/``shards``, same content) and :attr:`urls`
    becomes nested — one replica-url list per shard, directly the
    topology :class:`~repro.master.remote.RemoteMasterStore` takes.

    ``restart(i)`` replaces one member on its *same* port — the
    mid-run shard-restart scenario the conformance kit exercises —
    and :meth:`rolling_restart` cycles every member that way, one at
    a time, the way a real deployment rolls a new version out under
    live traffic.
    """

    def __init__(self, members: list[Any], restarter, replicas: int = 1):
        #: Flat, shard-major: ``members[shard_id * replicas + replica]``.
        self._members = members
        self._restart = restarter
        self.replicas = replicas

    def _index(self, shard_id: int, replica: int) -> int:
        return shard_id * self.replicas + replica

    @property
    def urls(self) -> list:
        """Flat url list when unreplicated (back-compat); one replica
        list per shard when ``replicas > 1``."""
        if self.replicas == 1:
            return [m["url"] for m in self._members]
        return [
            [self._members[self._index(s, r)]["url"] for r in range(self.replicas)]
            for s in range(self.shards)
        ]

    @property
    def shards(self) -> int:
        return len(self._members) // self.replicas

    def restart(self, shard_id: int, replica: int = 0) -> None:
        """Stop one member and bring a fresh one up on the same
        host:port (a rolling restart as the client sees it)."""
        i = self._index(shard_id, replica)
        self._members[i] = self._restart(self._members[i])

    def rolling_restart(self, pause: float = 0.0) -> None:
        """Restart every member, one at a time, ``pause`` seconds apart.

        With replicas this is the zero-downtime deployment shape: at
        any instant at most one replica of one shard is bouncing, so a
        failover-capable client keeps answering probes throughout.
        """
        for shard_id in range(self.shards):
            for replica in range(self.replicas):
                self.restart(shard_id, replica)
                if pause:
                    time.sleep(pause)

    def stop(self, shard_id: int, replica: int = 0) -> None:
        """Stop one member without replacement (the shard-down scenario)."""
        _stop_member(self._members[self._index(shard_id, replica)])

    def close(self) -> None:
        for member in self._members:
            _stop_member(member)

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- in-process flavour -------------------------------------------------

    @classmethod
    def in_process(
        cls,
        ruleset: RuleSet,
        relation: Relation,
        shards: int,
        *,
        replicas: int = 1,
        host: str = "127.0.0.1",
        name: str = "",
    ) -> "ShardCluster":
        def boot(shard_id: int, port: int) -> dict:
            app = ShardServerApp(
                ruleset,
                Relation(relation.schema, relation.tuples()),
                shard_id,
                shards,
                name=name,
            )
            server = ShardServer(app, host=host, port=port).start()
            return {
                "url": server.url,
                "server": server,
                "shard_id": shard_id,
                "port": server.port,
            }

        members = [boot(i, 0) for i in range(shards) for _ in range(replicas)]

        def restarter(member: dict) -> dict:
            _stop_member(member)
            return boot(member["shard_id"], member["port"])

        return cls(members, restarter, replicas)

    # -- subprocess flavour -------------------------------------------------

    @classmethod
    def spawn(
        cls,
        instance_dir: str | Path,
        shards: int,
        *,
        replicas: int = 1,
        host: str = "127.0.0.1",
        timeout: float = SPAWN_TIMEOUT,
    ) -> "ShardCluster":
        """Boot ``shards × replicas`` subprocess servers over an
        instance directory.

        Each process prints its bound URL on stdout (``--port 0`` picks
        an ephemeral port); spawn parses it, then polls ``/healthz``
        until the server answers. Any member failing to come up tears
        the whole cluster down before raising.
        """
        members: list[dict] = []
        try:
            for shard_id in range(shards):
                for _ in range(replicas):
                    members.append(
                        _spawn_member(instance_dir, shard_id, shards, host, 0, timeout)
                    )
        except Exception:
            for member in members:
                _stop_member(member)
            raise

        def restarter(member: dict) -> dict:
            _stop_member(member)
            return _spawn_member(
                instance_dir, member["shard_id"], shards, host, member["port"], timeout
            )

        return cls(members, restarter, replicas)


def _stop_member(member: dict) -> None:
    server = member.get("server")
    if server is not None:
        server.close()
        return
    process: subprocess.Popen | None = member.get("process")
    if process is None or process.poll() is not None:
        return
    process.terminate()
    try:
        process.wait(timeout=5)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=5)


def _child_env() -> dict[str, str]:
    """The spawn environment, with ``repro`` importable in the child.

    The parent may only be able to import ``repro`` through pytest's
    ``pythonpath = ["src"]`` config or a manual ``sys.path`` edit —
    neither of which a fresh interpreter inherits. Prepending the
    directory that actually provides the package keeps the child
    working in every launch mode (installed, PYTHONPATH, pytest).
    """
    import os

    import repro

    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = package_root + os.pathsep + existing if existing else package_root
    return env


def _spawn_member(
    instance_dir: str | Path,
    shard_id: int,
    shards: int,
    host: str,
    port: int,
    timeout: float,
) -> dict:
    cmd = [
        sys.executable,
        "-m",
        "repro.master.shardserver",
        "--instance",
        str(instance_dir),
        "--shard-id",
        str(shard_id),
        "--shards",
        str(shards),
        "--host",
        host,
        "--port",
        str(port),
    ]
    process = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=_child_env()
    )
    url = _read_url(process, timeout)
    member = {
        "url": url,
        "process": process,
        "shard_id": shard_id,
        "port": int(url.rsplit(":", 1)[1]),
    }
    _wait_healthy(url, shard_id, shards, process, timeout)
    return member


def _read_url(process: subprocess.Popen, timeout: float) -> str:
    """Parse the ``listening on <url>`` line the server prints at bind.

    On failure the error carries the child's captured output (stderr is
    merged into the pipe): a server dying at startup must name its real
    cause — a traceback, a bad ``--instance`` path — not just an exit
    code and a timeout.
    """
    result: dict[str, str] = {}
    captured: list[str] = []

    def reader() -> None:
        assert process.stdout is not None
        for line in process.stdout:
            if "listening on " in line:
                result["url"] = line.rsplit("listening on ", 1)[1].split()[0]
                return
            captured.append(line)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    if "url" not in result:
        _stop_member({"process": process})
        thread.join(1)  # let the reader drain what the dying child wrote
        output = "".join(captured[-15:]).strip()
        raise MasterDataError(
            f"shard server did not report a bound port within {timeout:.0f}s "
            f"(exit code {process.poll()!r})"
            + (f"; child output:\n{output}" if output else "")
        )
    return result["url"]


def _wait_healthy(
    url: str, shard_id: int, shards: int, process: subprocess.Popen, timeout: float
) -> None:
    from repro.master.remote import fetch_health

    deadline = time.monotonic() + timeout
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise MasterDataError(
                f"shard server {shard_id} at {url} exited with code {process.poll()}"
            )
        try:
            health = fetch_health(url)
        except MasterDataError as exc:
            last_error = exc
            time.sleep(0.05)
            continue
        if health.get("shard_id") != shard_id or health.get("shards") != shards:
            raise MasterDataError(
                f"shard server at {url} answered as shard "
                f"{health.get('shard_id')}/{health.get('shards')}, "
                f"expected {shard_id}/{shards}"
            )
        return
    raise MasterDataError(
        f"shard server {shard_id} at {url} failed its health check within "
        f"{timeout:.0f}s: {last_error}"
    )


# -- command line -------------------------------------------------------------


def build_app_from_args(args) -> ShardServerApp:
    """Resolve ``--instance`` / scenario flags into a ready app."""
    if args.instance:
        from repro.config import load_instance_parts

        config, master, ruleset = load_instance_parts(args.instance)
        name = config.name
    else:
        from repro.scenarios import hospital, uk_customers

        mod = hospital if args.scenario == "hospital" else uk_customers
        if args.master:
            from repro.relational.csvio import read_csv

            master = read_csv(args.master, schema=mod.MASTER_SCHEMA)
        elif args.scenario == "hospital":
            master = mod.generate_master(50)
        else:
            master = mod.paper_master()
        ruleset = (
            hospital.hospital_ruleset()
            if args.scenario == "hospital"
            else uk_customers.paper_ruleset()
        )
        name = args.scenario
    return ShardServerApp(ruleset, master, args.shard_id, args.shards, name=name)


def add_arguments(parser) -> None:
    """Shared between ``cerfix shard-server`` and ``python -m``."""
    parser.add_argument("--instance", help="serve an instance directory's master data")
    parser.add_argument("--scenario", choices=("uk", "hospital"), default="uk")
    parser.add_argument("--master", help="master data CSV (overrides the scenario default)")
    parser.add_argument(
        "--shard-id",
        type=int,
        required=True,
        dest="shard_id",
        help="which shard of the key space this server answers",
    )
    parser.add_argument(
        "--shards",
        type=int,
        required=True,
        help="total shard count (must match every other server "
        "and the clients' --shard-urls list length)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="listening port (0 picks an ephemeral port)"
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="export request spans to this JSONL file (CERFIX_TRACE=path[|sample] "
        "works too — a spawned cluster inherits the client's env)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        dest="trace_sample",
        help="root-span sample rate for --trace (default 1.0)",
    )


def run_from_args(args) -> int:
    """Boot and serve in the foreground (the CLI/`python -m` entry)."""
    from repro.errors import CerFixError

    if getattr(args, "trace", None):
        trace.configure(args.trace, getattr(args, "trace_sample", 1.0))
    else:
        trace.configure_from_env()
    try:
        app = build_app_from_args(args)
        server = ShardServer(app, host=args.host, port=args.port)
    except CerFixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"cerfix shard-server: shard {app.shard_id}/{app.shards} "
        f"listening on {server.url} "
        f"({len(app.relation)} tuples, digest {app.digest[:12]}…)",
        flush=True,
    )
    server.serve_forever()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="cerfix-shard-server",
        description="serve one master-data shard over HTTP/JSON",
    )
    add_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
