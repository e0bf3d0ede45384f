"""The asyncio HTTP server for the entry service (stdlib only).

A deliberately small HTTP/1.1 implementation over
:func:`asyncio.start_server`: request line + headers + Content-Length
body in, JSON out, keep-alive by default. It exists because the
standard library has no asyncio HTTP server and the repo takes no
third-party runtime dependencies — and the service only needs the JSON
API subset, not a general web server.

Two ways to run it:

* ``await AsyncCerFixServer(service).serve()`` — inside an existing
  event loop (``cerfix serve`` does ``asyncio.run`` over this);
* ``AsyncCerFixServer(service).start()`` — spawns a dedicated
  background event-loop thread and returns once the port is bound
  (what tests, benchmarks and :meth:`repro.engine.CerFix.serve_async`
  use; also a context manager).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from typing import Any

from repro.obs import promfmt
from repro.obs.metrics import component_dump
from repro.service.app import AsyncCerFixService

#: Bounds a hostile/buggy client can hit before we drop the connection.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024


class _BadRequest(Exception):
    pass


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """(method, path, headers, body), or None on a cleanly closed socket."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed between requests — normal keep-alive end
        raise _BadRequest("truncated request line") from None
    except asyncio.LimitOverrunError:
        raise _BadRequest("request line too long") from None
    try:
        method, path, _version = line.decode("latin-1").strip().split(" ", 2)
    except ValueError:
        raise _BadRequest(f"malformed request line {line!r}") from None
    headers: dict[str, str] = {}
    total = len(line)
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.LimitOverrunError:
            # a single >64KiB header line trips the StreamReader limit
            # before the total-size check can
            raise _BadRequest("header line too long") from None
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise _BadRequest("headers too large")
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        raise _BadRequest(
            f"bad Content-Length {headers.get('content-length')!r}"
        ) from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadRequest(f"bad Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


_REASONS = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
            409: "Conflict", 429: "Too Many Requests", 500: "Internal Server Error"}


def _encode_response(
    status: int, payload: Any, extra_headers: dict[str, str], *, keep_alive: bool
) -> bytes:
    data = json.dumps(payload, default=str).encode("utf-8")
    return _encode_raw(status, data, "application/json", extra_headers, keep_alive=keep_alive)


def _encode_raw(
    status: int,
    data: bytes,
    content_type: str,
    extra_headers: dict[str, str],
    *,
    keep_alive: bool,
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(data)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{k}: {v}" for k, v in extra_headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data


class AsyncCerFixServer:
    """One entry service bound to one listening socket."""

    def __init__(self, service: AsyncCerFixService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._stop_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- in-loop serving -----------------------------------------------------

    async def bind(self) -> "AsyncCerFixServer":
        """Bind the socket on the running loop (port 0 → ephemeral)."""
        loop = asyncio.get_running_loop()
        self.service.bind_loop(loop)
        self._loop = loop
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve(self) -> None:
        """Bind (if needed) and serve until :meth:`close` (or cancellation)."""
        if self._server is None:
            await self.bind()
        self._stop_event = asyncio.Event()
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            # Graceful drain: stop accepting, close client transports
            # (handlers observe EOF and exit their keep-alive loops),
            # then wait for them — no task cancellation, no noise.
            self._server.close()
            await self._server.wait_closed()
            for writer in list(self._writers):
                writer.close()
            if self._conn_tasks:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        asyncio.gather(*list(self._conn_tasks), return_exceptions=True),
                        timeout=5,
                    )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    writer.write(_encode_response(400, {"error": str(exc)}, {}, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, raw = request
                bare, _, query = path.partition("?")
                if (
                    method == "GET"
                    and bare in ("/metrics", "/api/metrics")
                    and "format=prometheus" in query
                ):
                    # Prometheus scrapes bypass the JSON routing table:
                    # text exposition of the process registry merged
                    # with the service's own instruments.
                    text = promfmt.render(component_dump(self.service.metrics)).encode()
                    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                    writer.write(
                        _encode_raw(
                            200, text, promfmt.CONTENT_TYPE, {}, keep_alive=keep_alive
                        )
                    )
                    await writer.drain()
                    if not keep_alive:
                        break
                    continue
                body = None
                if raw:
                    try:
                        body = json.loads(raw)
                    except json.JSONDecodeError:
                        writer.write(_encode_response(
                            400, {"error": "request body is not valid JSON"}, {}, keep_alive=True
                        ))
                        await writer.drain()
                        continue
                status, payload, extra = await self.service.handle(
                    method, path, body, headers
                )
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                writer.write(_encode_response(status, payload, extra, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError, BrokenPipeError):
            pass  # client went away mid-request
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- background-thread runner --------------------------------------------

    def start(self) -> "AsyncCerFixServer":
        """Run the server on a dedicated event-loop thread; returns once
        the port is bound (or raises what binding raised)."""
        if self._thread is not None:
            return self

        def _run() -> None:
            try:
                asyncio.run(self.serve())
            except asyncio.CancelledError:
                pass
            except BaseException as exc:  # surface bind errors to start()
                self._startup_error = exc
                self._started.set()

        self._thread = threading.Thread(target=_run, daemon=True, name="cerfix-async-server")
        self._thread.start()
        self._started.wait(timeout=10)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def close(self) -> None:
        """Stop serving and release the executor (idempotent)."""
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):  # loop raced to close
                loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.service.close()

    def __enter__(self) -> "AsyncCerFixServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
