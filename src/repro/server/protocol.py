"""The engine-free HTTP/1.1 + JSON protocol layer under both front-ends.

Everything a ``/v1`` front-end needs *below its handlers* lives here once, and
nothing here imports the XPath engine, numpy, the store or the service -- so
the cluster coordinator (:mod:`repro.coordinator.http`, pure network fan-out)
shares it with the node (:mod:`repro.server.http`, index work) without paying
for the engine:

* :class:`AsyncHttpServer` -- listener lifecycle (asyncio-native plus the
  loop-in-a-daemon-thread sync facade), keep-alive connections with limits,
  request parsing, response writing, routing with per-route-pattern
  ``http_*`` metrics and access logging, the thread-pool bridge for blocking
  handlers, ``GET /metrics``, graceful shutdown.
* :class:`Request` -- one parsed request, with the query-string rules
  (``?explain``, ``?limit=``) and the ``X-Client-Id`` / ``X-Request-Id`` shape.
* :class:`ApiError` and :func:`error_payload` -- the structured error envelope
  ``{"error": {"type", "message", "status", "request_id"?, "details"?}}``.
* :func:`query_of`, :func:`queries_of`, :func:`doc_ids_of` -- the ``/v1`` query
  body rules, so node and coordinator reject a malformed body with the same
  400 before any work or fan-out starts.

Limits: request bodies beyond ``max_body_bytes`` are refused with 413 before
being read; a connection that stalls between requests or mid-header is closed
quietly after ``header_timeout``; a body arriving slower than
``request_timeout`` gets a 408; handler execution is capped by
``request_timeout`` (503 -- an executor thread finishes in the background, the
connection does not wait for it).  Shutdown closes the listener first, cancels
idle keep-alive connections, gives in-flight requests ``shutdown_grace``
seconds, then drains the pool.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import json
import re
import signal
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core.errors import ReproError
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry, register_engine_metrics
from repro.obs.resources import register_process_metrics
from repro.obs.tracing import get_tracer

__all__ = [
    "ApiError",
    "AsyncHttpServer",
    "Request",
    "doc_ids_of",
    "error_payload",
    "queries_of",
    "query_of",
]

# The access log keeps the logger name it has always had.
_log = get_logger("server.http")

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_MAX_HEADER_BYTES = 32 * 1024

_TRUTHY = {"1", "true", "yes", "on"}

#: Shape of an acceptable caller-supplied ``X-Request-Id`` / ``X-Client-Id``.
#: A malformed request id is replaced by a generated one and a malformed client
#: id by ``anonymous``, so log lines, span attributes and quota keys stay clean.
_HEADER_ID_RE = re.compile(r"[A-Za-z0-9._-]{1,128}\Z")


# -- the error envelope ------------------------------------------------------------------


class ApiError(ReproError):
    """A request the server rejects with a specific HTTP status.

    Raised by validation (missing field, oversized body, unknown route) and
    re-created on the client from the error envelope of any non-2xx response
    whose type is not one of the domain exceptions.
    """

    def __init__(
        self,
        status: int,
        message: str,
        error_type: str | None = None,
        details: Mapping[str, Any] | None = None,
    ):
        super().__init__(message)
        self.status = int(status)
        self.error_type = error_type or type(self).__name__
        #: Machine-readable context (e.g. the admission controller's cost
        #: hint: estimated cost, configured budget, retry-after).  Travels in
        #: the error envelope and survives the client-side round trip.
        self.details = dict(details) if details else None


def error_payload(exc: Exception, status: int, request_id: str | None = None) -> dict:
    """The structured JSON body every error response carries."""
    error_type = exc.error_type if isinstance(exc, ApiError) else type(exc).__name__
    error: dict = {"type": error_type, "message": str(exc), "status": status}
    if request_id:
        error["request_id"] = request_id
    details = getattr(exc, "details", None)
    if details:
        error["details"] = dict(details)
    return {"error": error}


# -- requests and the /v1 body rules -----------------------------------------------------


@dataclass
class Request:
    """One parsed HTTP request as the handlers see it."""

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes
    keep_alive: bool
    request_id: str = ""
    #: Extra key=value pairs handlers contribute to this request's access-log
    #: line (shard count, documents answered, ...).
    log_fields: dict = field(default_factory=dict)

    def json(self):
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}") from exc

    def flag(self, name: str) -> bool:
        values = self.query.get(name)
        return bool(values) and values[-1].lower() in _TRUTHY

    def wants_explain(self, body: Any) -> bool:
        """``"explain": true`` in the body or ``?explain=1`` on the URL."""
        return (isinstance(body, dict) and bool(body.get("explain", False))) or self.flag("explain")

    def limit(self) -> int | None:
        """The ``?limit=`` of the debug routes (``None`` when absent)."""
        values = self.query.get("limit")
        if not values:
            return None
        try:
            return max(0, int(values[-1]))
        except ValueError as exc:
            raise ApiError(400, f"limit must be an integer, not {values[-1]!r}") from exc

    @property
    def client_id(self) -> str:
        """The admission-control identity: a well-formed ``X-Client-Id`` or ``anonymous``."""
        supplied = self.headers.get("x-client-id", "")
        return supplied if _HEADER_ID_RE.match(supplied) else "anonymous"


def _field(body: Any, name: str):
    return body.get(name) if isinstance(body, dict) else None


def query_of(body: Any) -> str:
    """The ``query`` string of a ``/v1/query`` body."""
    query = _field(body, "query")
    if not isinstance(query, str):
        raise ApiError(400, "the request body needs a 'query' string")
    return query


def queries_of(body: Any, *, or_query: bool = False) -> list[str]:
    """The non-empty ``queries`` list of a batch body.

    With ``or_query`` (``/v1/query/estimate``) a body carrying one ``query``
    string instead is accepted too.
    """
    queries = _field(body, "queries")
    if queries is None and or_query:
        query = _field(body, "query")
        if not isinstance(query, str):
            raise ApiError(400, "the request body needs a 'query' string or a 'queries' list")
        return [query]
    if not isinstance(queries, list) or not queries or not all(isinstance(q, str) for q in queries):
        raise ApiError(400, "the request body needs a non-empty 'queries' list of strings")
    return queries


def doc_ids_of(body: Any) -> list[str] | None:
    """The optional ``doc_ids`` restriction of a query body (``None`` = whole corpus)."""
    if not isinstance(body, dict):
        raise ApiError(400, "the request body must be a JSON object")
    doc_ids = body.get("doc_ids")
    if doc_ids is not None and (
        not isinstance(doc_ids, list) or not all(isinstance(d, str) for d in doc_ids)
    ):
        raise ApiError(400, "doc_ids must be a list of document identifiers")
    return doc_ids


# -- the server --------------------------------------------------------------------------


class _HttpError(Exception):
    """A protocol-level rejection (before routing); closes the connection."""

    def __init__(self, status: int, message: str, reason: str):
        super().__init__(message)
        self.status = status
        self.reason = reason


class _Connection:
    __slots__ = ("task", "busy")

    def __init__(self, task: asyncio.Task):
        self.task = task
        self.busy = False


class AsyncHttpServer:
    """The reusable asyncio HTTP/1.1 + JSON protocol front-end.

    Owns everything below the handlers: the listener lifecycle (async and the
    loop-in-a-daemon-thread sync facade), connection handling with keep-alive
    and limits, request parsing, structured error responses, routing with
    per-route-pattern metrics and access logging, the thread-pool bridge for
    blocking handlers, and graceful shutdown.  Subclasses register their
    handlers with :meth:`_route` -- blocking handlers run on the executor,
    non-blocking ones (``async def``) on the loop.

    The server reports into the process-wide registry current at
    construction (:attr:`registry`): its own ``http_*`` families, the
    engine/planner and process families every page lists from the first
    scrape, and the in-flight gauge -- a callback, like every live value a
    subclass adds.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` picks a free port (read :attr:`port` after
        start -- this is what the tests and the benchmark do).
    executor_workers:
        Threads bridging blocking handlers off the event loop.  This bounds
        *concurrent requests in progress*, not connections.  The pool only
        exists when a blocking route is registered.
    max_body_bytes:
        Request bodies larger than this are refused with 413.
    request_timeout:
        Seconds a single handler may run before the client gets a 503.
    header_timeout:
        Seconds an idle connection may sit between requests.
    shutdown_grace:
        Seconds in-flight requests get to finish during shutdown.
    slow_query_ms:
        When set, any request slower than this logs a WARNING with its
        request id, route and duration (the slow-query log).
    """

    #: Name of the in-flight gauge; a front-end that may share a process (and
    #: so a registry) with another one picks its own.
    _INFLIGHT_GAUGE = "inflight_requests"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        executor_workers: int = 8,
        max_body_bytes: int = 32 * 1024 * 1024,
        request_timeout: float = 60.0,
        header_timeout: float = 30.0,
        shutdown_grace: float = 10.0,
        slow_query_ms: float | None = None,
    ):
        if executor_workers < 1:
            raise ValueError("executor_workers must be at least 1")
        self._host = host
        self._requested_port = int(port)
        self.port: int | None = None
        self._executor_workers = int(executor_workers)
        self._max_body_bytes = int(max_body_bytes)
        self._request_timeout = float(request_timeout)
        self._header_timeout = float(header_timeout)
        self._shutdown_grace = float(shutdown_grace)
        self._slow_query_ms = float(slow_query_ms) if slow_query_ms is not None else None

        self.registry = registry = get_registry()
        self._m_http_requests = registry.counter(
            "http_requests_total",
            "Requests served, by route pattern, method and status.",
            labels=("route", "method", "status"),
        )
        self._m_http_rejected = registry.counter(
            "http_rejected_total", "Requests refused before routing, by reason.", labels=("reason",)
        )
        self._m_http_seconds = registry.histogram(
            "http_request_seconds", "Request latency, by route pattern.", labels=("route",)
        )
        register_engine_metrics(registry)
        register_process_metrics(registry)
        registry.gauge_callback(
            self._INFLIGHT_GAUGE, "Requests currently being handled.", lambda: self._inflight
        )

        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._connections: set[_Connection] = set()
        self._closing = False
        self._inflight = 0
        self._started_at: float | None = None

        # Sync facade state (loop-in-a-thread).
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread_ready: threading.Event | None = None
        self._thread_error: BaseException | None = None

        # (method, pattern, route label, handler, blocking?)
        self._routes: list[tuple[str, re.Pattern, str, Callable, bool]] = []
        self._route("GET", "/metrics", self._h_metrics)

    def _route(self, method: str, label: str, handler: Callable, *, blocking: bool = False) -> None:
        """Register ``handler`` under a route label such as ``/v1/documents/{id}``.

        ``{id}`` matches one path segment, available as ``match["doc_id"]``.
        """
        pattern = re.escape(label).replace(r"\{id\}", r"(?P<doc_id>[^/]+)")
        self._routes.append((method, re.compile(pattern), label, handler, blocking))

    # -- properties --------------------------------------------------------------------

    @property
    def route_table(self) -> list[tuple[str, str]]:
        """``(method, route label)`` pairs of the registered routes.

        The labels are the patterns ``/metrics`` reports requests under (and
        the ones ``docs/http-api.md`` documents -- ``scripts/check_docs.py``
        diffs the two).
        """
        return [(method, label) for method, _, label, _, _ in self._routes]

    @property
    def uptime_seconds(self) -> float:
        """Seconds since the listener bound (0 before start)."""
        return 0.0 if self._started_at is None else time.monotonic() - self._started_at

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` once started."""
        if self.port is None:
            raise RuntimeError("the server is not started")
        return (self._host, self.port)

    @property
    def url(self) -> str:
        """Base URL once started (``http://host:port``)."""
        host, port = self.address
        return f"http://{host}:{port}"

    # -- async lifecycle ---------------------------------------------------------------

    async def astart(self) -> None:
        """Bind the listener and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("the server is already started")
        self._closing = False
        if any(blocking for *_, blocking in self._routes):
            self._executor = ThreadPoolExecutor(
                max_workers=self._executor_workers, thread_name_prefix="repro-http"
            )
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._requested_port, limit=_MAX_HEADER_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def aclose(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight work, free the pool."""
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        # Idle keep-alive connections are parked in a header read; cancel them
        # now, let busy ones finish their current request within the grace.
        for connection in list(self._connections):
            if not connection.busy:
                connection.task.cancel()
        pending = {c.task for c in self._connections}
        if pending:
            _, still_running = await asyncio.wait(pending, timeout=self._shutdown_grace)
            for task in still_running:
                task.cancel()
            if still_running:
                await asyncio.wait(still_running, timeout=1.0)
        await self._server.wait_closed()
        self._server = None
        self.port = None
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    async def serve_async(self, shutdown: asyncio.Event | None = None) -> None:
        """Start, serve until ``shutdown`` is set (or forever), then close."""
        await self.astart()
        try:
            if shutdown is None:
                await asyncio.Event().wait()
            else:
                await shutdown.wait()
        finally:
            await self.aclose()

    async def serve_until_signalled(self, **listening_fields) -> None:
        """Serve until SIGINT/SIGTERM, then shut down gracefully (the console scripts' main loop)."""
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # e.g. non-Unix event loops
                loop.add_signal_handler(signum, shutdown.set)
        await self.astart()
        _log.info("listening", url=self.url, **listening_fields)
        try:
            await shutdown.wait()
        finally:
            _log.info("shutting down")
            await self.aclose()

    # -- sync facade (loop in a daemon thread) -----------------------------------------

    def start(self) -> "AsyncHttpServer":
        """Run the server on a private event loop in a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("the server is already started")
        self._thread_ready = threading.Event()
        self._thread_error = None
        self._thread = threading.Thread(target=self._thread_main, name="repro-server", daemon=True)
        self._thread.start()
        self._thread_ready.wait()
        if self._thread_error is not None:
            error, self._thread_error = self._thread_error, None
            self._thread.join()
            self._thread = None
            raise error
        return self

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.astart())
            except BaseException as exc:  # surface bind errors in start()
                self._thread_error = exc
                return
            finally:
                self._thread_ready.set()
            loop.run_forever()
            loop.run_until_complete(self.aclose())
        finally:
            self._thread_ready.set()
            asyncio.set_event_loop(None)
            self._loop = None
            loop.close()

    def stop(self) -> None:
        """Stop the thread started by :meth:`start` (graceful; idempotent)."""
        thread, loop = self._thread, self._loop
        if thread is None:
            return
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        thread.join()
        self._thread = None

    def __enter__(self) -> "AsyncHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling -----------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        connection = _Connection(asyncio.current_task())
        self._connections.add(connection)
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader, connection)
                except _HttpError as exc:
                    self._m_http_rejected.labels(reason=exc.reason).inc()
                    await self._write_response(
                        writer,
                        exc.status,
                        error_payload(ApiError(exc.status, str(exc)), exc.status),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                status, payload, content_type = await self._dispatch(request)
                keep_alive = request.keep_alive and not self._closing
                await self._write_response(
                    writer,
                    status,
                    payload,
                    keep_alive=keep_alive,
                    content_type=content_type,
                    extra_headers={"X-Request-Id": request.request_id},
                )
                connection.busy = False
                if not keep_alive:
                    break
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            self._connections.discard(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader, connection: _Connection) -> Request | None:
        """Parse one request; ``None`` on clean EOF between requests."""
        try:
            header_blob = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=self._header_timeout)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _HttpError(400, "truncated request head", "truncated") from exc
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(431, "request head too large", "oversized_header") from exc
        except asyncio.TimeoutError:
            return None  # idle keep-alive connection; close quietly
        connection.busy = True

        try:
            head = header_blob.decode("latin-1")
            request_line, *header_lines = head.split("\r\n")
            method, target, version = request_line.split(" ", 2)
        except ValueError as exc:
            raise _HttpError(400, "malformed request line", "malformed") from exc
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()

        if headers.get("transfer-encoding"):
            raise _HttpError(400, "chunked request bodies are not supported", "chunked")
        try:
            content_length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise _HttpError(400, "invalid Content-Length", "malformed") from exc
        if content_length < 0:
            raise _HttpError(400, "invalid Content-Length", "malformed")
        if content_length > self._max_body_bytes:
            raise _HttpError(
                413,
                f"request body of {content_length} bytes exceeds the limit of {self._max_body_bytes} bytes",
                "oversized_body",
            )
        body = b""
        if content_length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(content_length), timeout=self._request_timeout
                )
            except asyncio.IncompleteReadError as exc:
                raise _HttpError(400, "truncated request body", "truncated") from exc
            except asyncio.TimeoutError as exc:
                raise _HttpError(408, "timed out reading the request body", "slow_body") from exc

        parts = urlsplit(target)
        request_id = headers.get("x-request-id", "")
        keep_alive = headers.get("connection", "").lower() != "close" and version != "HTTP/1.0"
        return Request(
            method=method.upper(),
            path=unquote(parts.path),
            query=parse_qs(parts.query),
            headers=headers,
            body=body,
            keep_alive=keep_alive,
            request_id=request_id if _HEADER_ID_RE.match(request_id) else uuid.uuid4().hex,
        )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        *,
        keep_alive: bool,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        if isinstance(payload, (bytes, str)):
            body = payload.encode("utf-8") if isinstance(payload, str) else payload
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        extras = "".join(f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items())
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extras}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing and execution ---------------------------------------------------------

    async def _dispatch(self, request: Request) -> tuple[int, object, str]:
        """Route, execute and time one request; returns (status, payload, content type)."""
        started = time.perf_counter()
        route_label = "unmatched"  # replaced by the route pattern on a match
        content_type = "application/json"
        allowed: list[str] = []
        try:
            for method, pattern, label, handler, blocking in self._routes:
                match = pattern.fullmatch(request.path)
                if match is None:
                    continue
                if method != request.method:
                    allowed.append(method)
                    continue
                route_label = label
                self._inflight += 1
                try:
                    with get_tracer().span(
                        "http.request",
                        request_id=request.request_id,
                        route=route_label,
                        method=request.method,
                    ) as span:
                        if blocking:
                            status, payload = await self._run_blocking(handler, request, match)
                        else:
                            status, payload = await handler(request, match)
                        span.set_attribute("status", status)
                finally:
                    self._inflight -= 1
                if isinstance(payload, (bytes, str)):
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                return self._observed(route_label, request, status, started, payload, content_type)
            if allowed:
                raise ApiError(
                    405, f"{request.method} is not allowed on {request.path} (try {', '.join(allowed)})"
                )
            raise ApiError(404, f"no route for {request.method} {request.path}")
        except Exception as exc:  # every error leaves as a structured envelope
            status = self._status_of(exc)
            payload = error_payload(exc, status, request_id=request.request_id)
            return self._observed(route_label, request, status, started, payload, "application/json")

    @staticmethod
    def _status_of(exc: Exception) -> int:
        """HTTP status of a handler exception (a front-end with domain errors overrides)."""
        return exc.status if isinstance(exc, ApiError) else 500

    def _observed(self, route, request, status, started, payload, content_type):
        seconds = time.perf_counter() - started
        # Recorded under the route *pattern*, so document ids never explode cardinality.
        self._m_http_requests.labels(route=route, method=request.method, status=str(int(status))).inc()
        self._m_http_seconds.labels(route=route).observe(seconds)
        duration_ms = round(seconds * 1000, 3)
        fields = {
            "request_id": request.request_id,
            "route": route,
            "method": request.method,
            "status": status,
            "duration_ms": duration_ms,
            **request.log_fields,
        }
        _log.info("request", **fields)
        if self._slow_query_ms is not None and duration_ms >= self._slow_query_ms:
            _log.warning("slow query", threshold_ms=self._slow_query_ms, **fields)
        return status, payload, content_type

    async def _run_blocking(self, handler, request: Request, match: re.Match):
        """Run a blocking handler on the pool, capped by ``request_timeout``.

        The handler runs under a copy of this task's context, so the ambient
        ``http.request`` span (a contextvar) stays current inside the worker
        thread and handler-side spans nest under it.
        """
        if self._executor is None:
            raise ApiError(503, "the server is shutting down")
        loop = asyncio.get_running_loop()
        context = contextvars.copy_context()
        future = loop.run_in_executor(self._executor, lambda: context.run(handler, request, match))
        try:
            return await asyncio.wait_for(future, timeout=self._request_timeout)
        except asyncio.TimeoutError:
            # The worker thread cannot be interrupted; it finishes in the
            # background while the client gets a timely structured failure.
            raise ApiError(503, f"request timed out after {self._request_timeout:g}s") from None

    async def _h_metrics(self, request: Request, match: re.Match):
        return 200, self.registry.render()

    def __repr__(self) -> str:
        state = f"listening on {self.url}" if self.port is not None else "stopped"
        return f"{type(self).__name__}({state})"
