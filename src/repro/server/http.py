"""The node: :class:`ReproServer`, the ``/v1`` handlers over a :class:`QueryService`.

The network boundary of the reproduction: the whole stack -- sharded
:class:`~repro.store.document_store.DocumentStore`, plan-cached
:class:`~repro.service.QueryService`, per-document
:class:`~repro.store.document_store.DocumentFailure` reporting -- behind these
routes:

======  ===========================  =============================================
method  path                         action
======  ===========================  =============================================
POST    ``/v1/query``                one query, scatter-gather over the corpus
POST    ``/v1/query/batch``          a batch through ``QueryService.run_many``
POST    ``/v1/query/estimate``       pre-flight cost estimate (no evaluation)
PUT     ``/v1/documents/{id}``       ingest raw XML (``DocumentStore.add_xml``)
GET     ``/v1/documents/{id}``       document summary (loads the index)
GET     ``/v1/documents/{id}/stats`` per-component sizes + storage mode (``Document.stats()``)
DELETE  ``/v1/documents/{id}``       remove a stored document
GET     ``/v1/stats``                store stats (incl. mapped-vs-heap bytes) + service cache counters
GET     ``/healthz``                 liveness (never touches the thread pool)
GET     ``/metrics``                 Prometheus text format
======  ===========================  =============================================

This module is handlers only.  Connections, request parsing, the error
envelope, the ``/v1`` body rules, routing, ``http_*`` metrics, access logging
and shutdown are :mod:`repro.server.protocol`, shared with the cluster
coordinator; what the node adds:

* **The event loop never blocks.**  Index work (loads, automaton runs, XML
  parsing) is registered as *blocking* routes, which the protocol layer runs on
  a bounded thread pool; the loop only parses HTTP and shuffles bytes, so
  ``/healthz`` answers in microseconds while a corpus sweep is in flight --
  the acceptance bar of ISSUE 3 (eight concurrent clients, healthz under
  100 ms).
* **Domain errors map to statuses** (``XPathSyntaxError`` /
  ``UnsupportedQueryError`` -> 400, ``DocumentNotFoundError`` -> 404,
  ``CorruptedFileError`` / ``StorageError`` -> 500,
  :func:`~repro.server.json_api.status_of_exception`); the stdlib client
  re-raises the same exception classes.
* **Live values are callbacks**: the plan-cache and resident-document figures
  are registered once on the registry and read when ``/metrics`` renders.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import asdict
from typing import Callable

from repro.obs.resources import process_resources
from repro.obs.tracing import get_tracer
from repro.obs.workload import get_workload
from repro.server.admission import AdmissionController
from repro.server.json_api import (
    parse_evaluation_options,
    parse_index_options,
    service_result_to_json,
    status_of_exception,
)
from repro.server.protocol import ApiError, AsyncHttpServer, Request, doc_ids_of, queries_of, query_of
from repro.service.query_service import QueryService
from repro.store.document_store import register_store_metrics

__all__ = ["ReproServer"]

_DOC_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


class ReproServer(AsyncHttpServer):
    """Serves a :class:`QueryService` (and its store) over HTTP/1.1 + JSON.

    Parameters
    ----------
    service:
        The in-process serving layer; its store handles ingest and per-document
        routes.
    admission:
        Cost-based :class:`~repro.server.admission.AdmissionController`.
        When any of its limits is configured, the query endpoints estimate
        each request's cost up front (planner only, no evaluation) and an
        over-budget request is refused with 429/503 plus a ``details`` cost
        hint before a sweep starts.  Defaults to a disabled controller that
        admits everything.

    The remaining keyword parameters (``protocol_options``) are those of
    :class:`~repro.server.protocol.AsyncHttpServer`; its ``executor_workers``
    bounds the threads bridging blocking *index* work (loads, automaton runs,
    XML parsing) off the event loop.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        admission: AdmissionController | None = None,
        **protocol_options,
    ):
        super().__init__(host, port, **protocol_options)
        self._service = service
        self.admission = admission if admission is not None else AdmissionController()
        # Live values: callback families read when /metrics renders (the most
        # recently constructed server's service and store win).
        registry = self.registry
        register_store_metrics(service.store, registry)  # the store_mapped_* residency gauges
        plans, store = service.plan_cache, service.store

        def hit_ratio() -> float:
            lookups = plans.hits + plans.misses
            return plans.hits / lookups if lookups else 0.0

        registry.counter_callback("plan_cache_hits_total", "Compiled-plan cache hits.", lambda: plans.hits)
        registry.counter_callback(
            "plan_cache_misses_total", "Compiled-plan cache misses.", lambda: plans.misses
        )
        registry.gauge_callback(
            "plan_cache_hit_ratio", "Compiled-plan cache hit ratio since start.", hit_ratio
        )
        registry.gauge_callback(
            "plan_cache_entries", "Compiled plans currently cached.", lambda: len(plans)
        )
        registry.gauge_callback(
            "store_cache_resident_documents",
            "Documents resident in the store LRU.",
            lambda: store.cache_info()["resident"],
        )

        self._route("GET", "/healthz", self._h_healthz)
        self._route("GET", "/v1/debug/traces", self._h_debug_traces)
        self._route("GET", "/v1/debug/workload", self._h_debug_workload)
        self._route("POST", "/v1/query", self._h_query, blocking=True)
        self._route("POST", "/v1/query/batch", self._h_query_batch, blocking=True)
        self._route("POST", "/v1/query/estimate", self._h_query_estimate, blocking=True)
        self._route("GET", "/v1/stats", self._h_stats, blocking=True)
        self._route("GET", "/v1/documents/{id}/stats", self._h_document_stats, blocking=True)
        self._route("PUT", "/v1/documents/{id}", self._h_put_document, blocking=True)
        self._route("GET", "/v1/documents/{id}", self._h_get_document, blocking=True)
        self._route("DELETE", "/v1/documents/{id}", self._h_delete_document, blocking=True)

    _status_of = staticmethod(status_of_exception)

    @property
    def service(self) -> QueryService:
        """The in-process serving layer behind the routes."""
        return self._service

    # -- helpers -----------------------------------------------------------------------

    @staticmethod
    def _doc_id(match: re.Match) -> str:
        doc_id = match.group("doc_id")
        if not _DOC_ID_RE.match(doc_id):
            raise ApiError(
                400, f"invalid document identifier {doc_id!r}: use letters, digits, '.', '_' or '-'"
            )
        return doc_id

    @staticmethod
    def _query_params(body: dict) -> dict:
        return {
            "doc_ids": doc_ids_of(body),
            "want_nodes": bool(body.get("want_nodes", False)),
            "options": parse_evaluation_options(body.get("options")),
        }

    def _validate_query(self, query: str) -> None:
        """Fail fast on queries no document can answer.

        Parsing (``XPathSyntaxError``) and *structural* compile errors
        (``UnsupportedQueryError`` for an unsupported axis or predicate
        placement) are document-independent, so binding against the empty tag
        table up front turns them into one 400 instead of a
        ``DocumentFailure`` per document.  The binding is memoised on the
        cached plan, so warm queries pay nothing.
        """
        self._service.plan_cache.get(query).bind(())

    def _admit(self, request: Request, queries: list[str], params: dict) -> Callable[[], None]:
        """Price the request and pass it through admission control.

        Returns the release callable (a no-op when no limit is configured --
        the estimate is then skipped entirely, so an unconfigured server pays
        nothing).  Raises the controller's 429/503 :class:`ApiError` with the
        cost hint in ``details``.
        """
        if not self.admission.enabled:
            return lambda: None
        estimate = self._service.estimate_cost(
            queries, doc_ids=params["doc_ids"], options=params["options"]
        )
        cost = float(estimate["total_cost"])
        request.log_fields["estimated_cost"] = round(cost, 3)
        return self.admission.admit(request.client_id, cost)

    # -- handlers (async = on the loop, others on the thread pool) ---------------------

    async def _h_healthz(self, request: Request, match: re.Match):
        return 200, {"status": "ok", "uptime_seconds": round(self.uptime_seconds, 3)}

    async def _h_debug_traces(self, request: Request, match: re.Match):
        tracer = get_tracer()
        return 200, {**tracer.info(), "traces": tracer.traces(request.limit())}

    async def _h_debug_workload(self, request: Request, match: re.Match):
        return 200, get_workload().snapshot(request.limit())

    def _sweep(self, request: Request, body, queries: list[str], **explain_attributes):
        """Validate, admit and run ``queries`` as one sweep; ``(results, explain trace or None)``."""
        for query in queries:
            self._validate_query(query)
        explain = request.wants_explain(body)
        params = self._query_params(body)
        release = self._admit(request, queries, params)
        try:
            # With explain, force a span tree for the response even when tracing
            # is off globally; with tracing on, it nests under ``http.request``.
            root = (
                get_tracer().span("explain", force=True, request_id=request.request_id, **explain_attributes)
                if explain
                else contextlib.nullcontext()
            )
            with root:
                results = self._service.run_many(
                    queries, explain=explain, request_id=request.request_id, **params
                )
        finally:
            release()
        request.log_fields["shards"] = len(results[0].shard_timings)
        return results, root.to_dict() if explain else None

    def _h_query(self, request: Request, match: re.Match):
        body = request.json()
        query = query_of(body)
        (result,), trace = self._sweep(request, body, [query], query=query)
        request.log_fields["documents"] = result.num_documents
        payload = service_result_to_json(result)
        payload["request_id"] = request.request_id
        if trace is not None:
            payload["explain"] = {**(result.explain or {}), "trace": trace}
        return 200, payload

    def _h_query_batch(self, request: Request, match: re.Match):
        body = request.json()
        queries = queries_of(body)
        results, trace = self._sweep(request, body, queries, num_queries=len(queries))
        payload = {
            "results": [service_result_to_json(result) for result in results],
            "request_id": request.request_id,
        }
        if trace is not None:
            payload["trace"] = trace
        return 200, payload

    def _h_query_estimate(self, request: Request, match: re.Match):
        """Pre-flight cost estimate: plan only, no evaluation, no admission charge."""
        body = request.json()
        queries = queries_of(body, or_query=True)
        for query in queries:
            self._validate_query(query)
        params = self._query_params(body)
        estimate = self._service.estimate_cost(
            queries, doc_ids=params["doc_ids"], options=params["options"]
        )
        request.log_fields["estimated_cost"] = estimate["total_cost"]
        return 200, {
            **estimate,
            "request_id": request.request_id,
            "admission": self.admission.describe(cost=float(estimate["total_cost"])),
        }

    def _h_put_document(self, request: Request, match: re.Match):
        doc_id = self._doc_id(match)
        store = self._service.store
        content_type = request.headers.get("content-type", "").split(";")[0].strip().lower()
        if content_type == "application/json":
            body = request.json()
            if not isinstance(body, dict) or not isinstance(body.get("xml"), str):
                raise ApiError(400, "the request body needs an 'xml' string")
            xml: str | bytes = body["xml"]
            options = parse_index_options(body.get("options"))
            overwrite = bool(body.get("overwrite", False)) or request.flag("overwrite")
        else:  # raw XML body (curl --data-binary @doc.xml)
            if not request.body:
                raise ApiError(400, "the request body must carry the document XML")
            xml = request.body
            options = None
            overwrite = request.flag("overwrite")
        store.add_xml(doc_id, xml, options, overwrite=overwrite)
        document = store.get(doc_id)
        return 201, {
            "doc_id": doc_id,
            "shard": store.shard_of(doc_id),
            "num_nodes": document.num_nodes,
            "num_texts": document.num_texts,
        }

    def _h_get_document(self, request: Request, match: re.Match):
        doc_id = self._doc_id(match)
        store = self._service.store
        document = store.get(doc_id)
        return 200, {
            "doc_id": doc_id,
            "shard": store.shard_of(doc_id),
            "num_nodes": document.num_nodes,
            "num_texts": document.num_texts,
            "num_tags": document.num_tags,
            "options": asdict(document.options),
        }

    def _h_document_stats(self, request: Request, match: re.Match):
        doc_id = self._doc_id(match)
        stats = self._service.store.get(doc_id).stats()
        return 200, {"doc_id": doc_id, **stats}

    def _h_delete_document(self, request: Request, match: re.Match):
        doc_id = self._doc_id(match)
        self._service.store.remove(doc_id)
        return 200, {"deleted": doc_id}

    def _h_stats(self, request: Request, match: re.Match):
        return 200, {
            "store": self._service.store.stats(),
            "service": self._service.cache_info(),
            "process": process_resources(),
        }

    def __repr__(self) -> str:
        state = f"listening on {self.url}" if self.port is not None else "stopped"
        return f"ReproServer({state}, service={self._service!r})"
