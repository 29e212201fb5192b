"""``ReproClient``: a stdlib HTTP client mirroring the :class:`QueryService` API.

Built on :mod:`http.client` only -- a deployment that serves with
``repro-serve`` and queries with :class:`ReproClient` needs nothing outside
the standard library on the client side.

The client speaks the wire schema of :mod:`repro.server.json_api`, so:

* query calls return the *same* typed :class:`~repro.service.ServiceResult`
  (with :class:`~repro.store.document_store.DocumentFailure` and
  :class:`~repro.service.ShardTiming` entries) the in-process service returns;
* error responses re-raise the *same* exception classes the server caught --
  ``XPathSyntaxError`` for a malformed query, ``DocumentNotFoundError`` for an
  unknown identifier, ``CorruptedFileError`` for a bad shard file -- so code
  written against :class:`~repro.service.QueryService` ports by swapping the
  object.

Connection-level failures (refused, reset, dropped keep-alive) are retried
with exponential backoff on a fresh connection; HTTP-level errors are never
retried -- they are answers, not outages.  Non-idempotent calls (an ingest
without ``overwrite``, a delete) only retry failures that prove the request
never reached the server (refused connection, resolution failure) -- a timeout
after a mutation was sent is surfaced, not replayed, because the server may
have completed it.

Every request carries an ``X-Request-Id`` header -- caller-supplied via the
``request_id=`` keyword on query calls, otherwise generated -- which the server
echoes, stamps on its spans and access-log line, and folds into error
envelopes.  The id of the most recent exchange is kept on
:attr:`ReproClient.last_request_id`, and server-side errors re-raised on the
client carry it in their message, so a failing call names the server-side
trace to look up.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import uuid
from typing import Iterable, Sequence
from urllib.parse import quote

from repro.core.options import EvaluationOptions, IndexOptions
from repro.server.json_api import exception_from_payload, service_result_from_json
from repro.server.protocol import ApiError
from repro.service.query_service import ServiceResult

__all__ = ["ReproClient"]

#: Failures retried for idempotent requests (queries are read-only, so a
#: replay is always safe even though they travel as POST).
_RETRYABLE = (
    ConnectionError,
    http.client.NotConnected,
    http.client.RemoteDisconnected,
    http.client.CannotSendRequest,
    socket.timeout,
    socket.gaierror,
)

#: Failures proving the request never reached the server -- the only ones a
#: non-idempotent mutation may retry (a timeout or a dropped response after a
#: completed send is NOT in this set: the server may have executed the call).
_RETRYABLE_UNSENT = (
    ConnectionRefusedError,
    http.client.NotConnected,
    http.client.CannotSendRequest,
    socket.gaierror,
)


def _options_dict(options) -> dict | None:
    if options is None:
        return None
    from dataclasses import asdict

    return asdict(options)


class ReproClient:
    """Talks to a :class:`~repro.server.ReproServer` over HTTP/1.1 + JSON.

    Parameters
    ----------
    host, port:
        The server address (``ReproServer.address`` of a started server).
    timeout:
        Socket timeout per request, in seconds.
    retries:
        Additional attempts after a connection-level failure.
    backoff:
        Base delay between attempts; attempt ``n`` sleeps ``backoff * 2**n``.
    client_id:
        Optional identity sent as ``X-Client-Id``; the server's cost-quota
        admission control buckets by it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        timeout: float = 60.0,
        retries: int = 2,
        backoff: float = 0.1,
        client_id: str | None = None,
    ):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.host = host
        self.port = int(port)
        self._timeout = float(timeout)
        self._retries = int(retries)
        self._backoff = float(backoff)
        #: Sent as ``X-Client-Id`` on every request; the server's admission
        #: controller keys per-client cost quotas on it (``anonymous`` when
        #: unset).
        self.client_id = client_id
        self._connection: http.client.HTTPConnection | None = None
        #: ``X-Request-Id`` of the most recent completed exchange (the server's
        #: echo when one arrived, else the id this client sent).
        self.last_request_id: str | None = None

    # -- transport ---------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload=None,
        *,
        raw_body: bytes | None = None,
        headers=None,
        idempotent: bool = True,
        request_id: str | None = None,
    ) -> tuple[int, bytes]:
        body: bytes | None
        request_headers = dict(headers or {})
        request_id = request_id or uuid.uuid4().hex
        request_headers.setdefault("X-Request-Id", request_id)
        if self.client_id:
            request_headers.setdefault("X-Client-Id", self.client_id)
        if raw_body is not None:
            body = raw_body
            request_headers.setdefault("Content-Type", "application/xml")
        elif payload is not None:
            body = json.dumps(payload).encode("utf-8")
            request_headers.setdefault("Content-Type", "application/json")
        else:
            body = None
        last_error: Exception | None = None
        for attempt in range(self._retries + 1):
            if attempt:
                time.sleep(self._backoff * (2 ** (attempt - 1)))
            try:
                if self._connection is None:
                    self._connection = http.client.HTTPConnection(
                        self.host, self.port, timeout=self._timeout
                    )
                self._connection.request(method, path, body=body, headers=request_headers)
                response = self._connection.getresponse()
                data = response.read()
                self.last_request_id = response.getheader("X-Request-Id") or request_id
                if response.getheader("Connection", "").lower() == "close":
                    self.close()
                return response.status, data
            except _RETRYABLE as exc:
                self.close()
                if not idempotent and not isinstance(exc, _RETRYABLE_UNSENT):
                    raise
                last_error = exc
        raise ApiError(
            503,
            f"cannot reach {self.host}:{self.port} after {self._retries + 1} attempt(s): {last_error}",
        )

    def _json(
        self,
        method: str,
        path: str,
        payload=None,
        *,
        raw_body: bytes | None = None,
        idempotent: bool = True,
        request_id: str | None = None,
    ):
        status, data = self._request(
            method, path, payload, raw_body=raw_body, idempotent=idempotent, request_id=request_id
        )
        try:
            decoded = json.loads(data.decode("utf-8")) if data else None
        except (ValueError, UnicodeDecodeError):
            decoded = data.decode("utf-8", "replace")
        if status >= 400:
            raise exception_from_payload(status, decoded, request_id=self.last_request_id)
        return decoded

    def close(self) -> None:
        """Drop the persistent connection (reopened lazily on the next call)."""
        if self._connection is not None:
            try:
                self._connection.close()
            finally:
                self._connection = None

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queries (mirrors QueryService) ------------------------------------------------

    @staticmethod
    def _query_body(doc_ids, want_nodes, options) -> dict:
        body: dict = {}
        if doc_ids is not None:
            body["doc_ids"] = list(doc_ids)
        if want_nodes:
            body["want_nodes"] = True
        if options is not None:
            body["options"] = _options_dict(options)
        return body

    def run(
        self,
        query: str,
        doc_ids: Iterable[str] | None = None,
        want_nodes: bool = False,
        options: EvaluationOptions | None = None,
        *,
        explain: bool = False,
        request_id: str | None = None,
    ) -> ServiceResult:
        """Evaluate one query over the corpus; the remote ``QueryService.run``.

        With ``explain=True`` the returned result's :attr:`ServiceResult.explain`
        carries the server's plan, exact cardinalities and span tree.
        """
        body = {"query": query, **self._query_body(doc_ids, want_nodes, options)}
        if explain:
            body["explain"] = True
        return service_result_from_json(self._json("POST", "/v1/query", body, request_id=request_id))

    def run_many(
        self,
        queries: Sequence[str],
        doc_ids: Iterable[str] | None = None,
        want_nodes: bool = False,
        options: EvaluationOptions | None = None,
        *,
        explain: bool = False,
        request_id: str | None = None,
    ) -> list[ServiceResult]:
        """Evaluate a batch in one request/one corpus sweep; the remote ``run_many``."""
        body = {"queries": list(queries), **self._query_body(doc_ids, want_nodes, options)}
        if explain:
            body["explain"] = True
        data = self._json("POST", "/v1/query/batch", body, request_id=request_id)
        return [service_result_from_json(entry) for entry in data["results"]]

    def explain(
        self,
        query: str,
        doc_ids: Iterable[str] | None = None,
        options: EvaluationOptions | None = None,
        *,
        request_id: str | None = None,
    ) -> dict:
        """The server's EXPLAIN payload for ``query``: plan, cardinalities, span tree."""
        result = self.run(
            query, doc_ids=doc_ids, options=options, explain=True, request_id=request_id
        )
        return result.explain or {}

    def estimate_cost(
        self,
        queries: str | Sequence[str],
        doc_ids: Iterable[str] | None = None,
        options: EvaluationOptions | None = None,
        *,
        request_id: str | None = None,
    ) -> dict:
        """Pre-flight cost estimate (``POST /v1/query/estimate``); nothing is evaluated.

        Accepts one query string or a sequence.  The payload carries the
        per-query and total estimates in node-visit units plus the server's
        admission limits (including ``would_admit`` against the per-request
        budget), so a client can right-size a batch before submitting it.
        """
        if isinstance(queries, str):
            body: dict = {"query": queries}
        else:
            body = {"queries": list(queries)}
        body.update(self._query_body(doc_ids, False, options))
        return self._json("POST", "/v1/query/estimate", body, request_id=request_id)

    def count_all(self, query: str, doc_ids: Iterable[str] | None = None) -> dict[str, int]:
        """Per-document counts of ``query``."""
        return self.run(query, doc_ids=doc_ids).counts

    def total_count(self, query: str, doc_ids: Iterable[str] | None = None) -> int:
        """Corpus-wide count of ``query``."""
        return self.run(query, doc_ids=doc_ids).total

    # -- documents ---------------------------------------------------------------------

    def put_document(
        self,
        doc_id: str,
        xml: str | bytes,
        options: IndexOptions | None = None,
        overwrite: bool = False,
    ) -> dict:
        """Ingest raw XML: the server parses, indexes and shards it."""
        if isinstance(xml, bytes):
            xml = xml.decode("utf-8")
        body = {"xml": xml, "overwrite": bool(overwrite)}
        if options is not None:
            body["options"] = _options_dict(options)
        # Replaying an overwrite is harmless; replaying a create could report
        # 'already exists' for an ingest that actually succeeded.
        return self._json(
            "PUT", f"/v1/documents/{quote(doc_id, safe='')}", body, idempotent=bool(overwrite)
        )

    def get_document(self, doc_id: str) -> dict:
        """Summary of a stored document (shard, node/text/tag counts, options)."""
        return self._json("GET", f"/v1/documents/{quote(doc_id, safe='')}")

    def document_stats(self, doc_id: str) -> dict:
        """Per-component index size breakdown (``Document.stats()``)."""
        return self._json("GET", f"/v1/documents/{quote(doc_id, safe='')}/stats")

    def delete_document(self, doc_id: str) -> dict:
        """Remove a stored document."""
        # A replayed delete after a completed one would 404; don't replay.
        return self._json("DELETE", f"/v1/documents/{quote(doc_id, safe='')}", idempotent=False)

    # -- introspection -----------------------------------------------------------------

    def stats(self) -> dict:
        """Store statistics plus service cache counters."""
        return self._json("GET", "/v1/stats")

    def healthz(self) -> dict:
        """Liveness probe; answers even while heavy queries are in flight."""
        return self._json("GET", "/healthz")

    def debug_traces(self, limit: int | None = None) -> dict:
        """Recent server-side traces (``GET /v1/debug/traces``)."""
        path = "/v1/debug/traces" if limit is None else f"/v1/debug/traces?limit={int(limit)}"
        return self._json("GET", path)

    def debug_workload(self, limit: int | None = None) -> dict:
        """Per-query-shape analytics and slowest queries (``GET /v1/debug/workload``)."""
        path = "/v1/debug/workload" if limit is None else f"/v1/debug/workload?limit={int(limit)}"
        return self._json("GET", path)

    def metrics_text(self) -> str:
        """The raw Prometheus ``/metrics`` page."""
        status, data = self._request("GET", "/metrics")
        if status >= 400:
            raise ApiError(status, data.decode("utf-8", "replace"))
        return data.decode("utf-8")

    def metrics(self) -> dict:
        """The ``/metrics`` page parsed into
        ``{family: {"type", "help", "samples": [(name, labels, value)]}}``.

        Uses the strict in-repo text-format parser, so a malformed page
        raises ``ValueError`` instead of returning partial data.
        """
        from repro.obs.metrics import parse_prometheus_text

        return parse_prometheus_text(self.metrics_text())

    def __repr__(self) -> str:
        return f"ReproClient(http://{self.host}:{self.port})"
