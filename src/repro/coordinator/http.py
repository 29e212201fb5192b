"""The cluster coordinator: the ``repro-serve`` wire API over a fleet.

:class:`CoordinatorServer` subclasses the protocol machinery of
:class:`~repro.server.protocol.AsyncHttpServer` and serves the same route
surface as a single :class:`~repro.server.ReproServer` -- so a plain
:class:`~repro.client.ReproClient` pointed at a coordinator works unchanged
-- but this module is fan-out only: every handler awaits backends on the
event loop (no blocking route, so no thread pool exists), request parsing,
the error envelope and the ``/v1`` body rules come from
:mod:`repro.server.protocol`, and nothing here imports the XPath engine,
numpy, the store or the service:

* **Routing.** Document ids map to nodes through a consistent-hash
  :class:`~repro.coordinator.ring.HashRing` with a configurable replication
  factor; queries without ``doc_ids`` scatter to every healthy node and
  gather through :mod:`repro.coordinator.merge`, where replica answers
  deduplicate (counts are per-document dicts) and a silent node degrades the
  result with a ``node:<name>`` :class:`DocumentFailure` entry instead of
  failing the request.
* **Health.** A background task probes every node's ``/healthz`` each
  ``probe_interval`` seconds and feeds a
  :class:`~repro.coordinator.health.HealthTracker` with
  mark-down/mark-up hysteresis; live request outcomes feed the same tracker,
  so a node dying mid-batch is discovered by contact, not by the next probe.
* **Hedging.** When ``replication > 1`` and ``hedge_ms`` is set, a read that
  is still pending after the hedge delay fires a duplicate at the next
  replica and the first response wins -- the classic tail-latency trade of a
  little extra load for a bounded p99.
* **Pass-through.** ``X-Request-Id`` / ``X-Client-Id`` are forwarded to the
  backends, and backend error envelopes -- including the admission
  controller's 429/503 with its ``details`` cost hint -- propagate to the
  caller with the answering node recorded in ``details.node``.

Observability: ``repro_coordinator_*`` metric families on the shared
registry (per-node request/error counters, hedge fire/win counters, a
health-state gauge, transition counters; fleet size and in-flight requests as
callbacks), ``GET /v1/nodes`` for per-node state read from those same
families, and ``?node=`` proxying on the debug routes.
"""

from __future__ import annotations

import asyncio
import contextlib
import re
import time
from typing import Any, Mapping, Sequence
from urllib.parse import urlencode

from repro.coordinator.backend import NodeClient, NodeError
from repro.coordinator.health import HealthTracker
from repro.coordinator.merge import merge_batches, merge_results, node_failure
from repro.coordinator.ring import HashRing
from repro.obs.logging import get_logger
from repro.server.protocol import ApiError, AsyncHttpServer, Request, doc_ids_of, queries_of, query_of

__all__ = ["CoordinatorServer", "parse_node_spec"]

_log = get_logger("coordinator.http")

#: Statuses whose envelopes the admission layer emits; listed only for docs --
#: the coordinator propagates *every* backend HTTP error envelope unchanged.
_ADMISSION_STATUSES = (429, 503)


def parse_node_spec(spec: str) -> tuple[str, str, int]:
    """``host:port`` or ``name=host:port`` -> ``(name, host, port)``."""
    name, _, address = spec.rpartition("=")
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"node spec {spec!r} is not host:port or name=host:port")
    return (name or address, host, int(port))


class _ReplicasExhausted(Exception):
    """Every candidate node for one routed call failed at the transport level."""

    def __init__(self, errors: dict[str, str]):
        super().__init__("; ".join(f"{node}: {message}" for node, message in errors.items()))
        self.errors = errors


class CoordinatorServer(AsyncHttpServer):
    """Scatter-gather front-end over a fleet of ``repro-serve`` backends.

    Parameters
    ----------
    nodes:
        Backend specs, each ``host:port`` or ``name=host:port``.  The name is
        the metrics label, the ring member and what failure entries report.
    replication:
        Replicas per document (clamped to the fleet size).  Ingests write to
        every replica; reads fail over between them and may hedge.
    hedge_ms:
        When set (and ``replication > 1``), a routed read still pending after
        this many milliseconds fires a duplicate at the next replica; first
        response wins.  ``None`` disables hedging.
    probe_interval:
        Seconds between background ``/healthz`` probe rounds.
    fail_after, rise_after:
        Hysteresis of the health tracker: consecutive failures before a node
        is marked down / consecutive successes before it returns.
    node_timeout:
        Per-backend-request timeout in seconds.
    vnodes:
        Virtual nodes per backend on the hash ring.

    The remaining keyword parameters (``protocol_options``) are those of
    :class:`~repro.server.protocol.AsyncHttpServer`.
    """

    # A coordinator and a node may share one process (tests, embedded use).
    _INFLIGHT_GAUGE = "coordinator_inflight_requests"

    def __init__(
        self,
        nodes: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        replication: int = 1,
        hedge_ms: float | None = None,
        probe_interval: float = 2.0,
        fail_after: int = 3,
        rise_after: int = 2,
        node_timeout: float = 30.0,
        vnodes: int = 64,
        **protocol_options,
    ):
        super().__init__(host, port, **protocol_options)
        if not nodes:
            raise ValueError("a coordinator needs at least one backend node")
        self._clients: dict[str, NodeClient] = {}
        for spec in nodes:
            name, node_host, node_port = parse_node_spec(spec)
            if name in self._clients:
                raise ValueError(f"duplicate node name {name!r}")
            self._clients[name] = NodeClient(name, node_host, node_port, timeout=node_timeout)
        self._ring = HashRing(self._clients, vnodes=vnodes)
        self._health = HealthTracker(self._clients, fail_after=fail_after, rise_after=rise_after)
        self.replication = min(max(1, int(replication)), len(self._clients))
        self._hedge_delay = None if hedge_ms is None else max(0.0, float(hedge_ms)) / 1000.0
        self._probe_interval = float(probe_interval)
        self._node_timeout = float(node_timeout)
        self._probe_task: asyncio.Task | None = None

        registry = self.registry
        self._m_requests = registry.counter(
            "coordinator_node_requests_total",
            "Requests the coordinator sent to each backend node, by route.",
            labels=("node", "route"),
        )
        self._m_errors = registry.counter(
            "coordinator_node_errors_total",
            "Backend requests that produced no HTTP response, by node and reason.",
            labels=("node", "reason"),
        )
        self._m_hedges = registry.counter(
            "coordinator_hedges_total",
            "Hedge requests fired at a replica because the primary was slow.",
            labels=("node",),
        )
        self._m_hedge_wins = registry.counter(
            "coordinator_hedge_wins_total",
            "Hedge requests that answered before the primary.",
            labels=("node",),
        )
        self._m_healthy = registry.gauge(
            "coordinator_node_healthy",
            "1 when the node is routed to, 0 while it is marked down.",
            labels=("node",),
        )
        self._m_transitions = registry.counter(
            "coordinator_health_transitions_total",
            "Health-state transitions, by node and new state (up/down).",
            labels=("node", "state"),
        )
        for name in self._clients:
            self._m_healthy.labels(node=name).set(1.0)
        registry.gauge_callback(
            "coordinator_nodes_configured", "Backend nodes configured.", lambda: len(self._clients)
        )
        registry.gauge_callback(
            "coordinator_nodes_healthy",
            "Backend nodes currently routed to.",
            lambda: len(self._health.healthy_nodes()),
        )

        self._route("GET", "/healthz", self._h_healthz)
        self._route("GET", "/v1/nodes", self._h_nodes)
        self._route("GET", "/v1/debug/traces", self._h_debug_traces)
        self._route("GET", "/v1/debug/workload", self._h_debug_workload)
        self._route("POST", "/v1/query", self._h_query)
        self._route("POST", "/v1/query/batch", self._h_query_batch)
        self._route("POST", "/v1/query/estimate", self._h_query_estimate)
        self._route("GET", "/v1/stats", self._h_stats)
        self._route("GET", "/v1/documents/{id}/stats", self._h_document_stats)
        self._route("PUT", "/v1/documents/{id}", self._h_put_document)
        self._route("GET", "/v1/documents/{id}", self._h_get_document)
        self._route("DELETE", "/v1/documents/{id}", self._h_delete_document)

    # -- properties --------------------------------------------------------------------

    @property
    def node_names(self) -> list[str]:
        return sorted(self._clients)

    @property
    def ring(self) -> HashRing:
        return self._ring

    @property
    def health(self) -> HealthTracker:
        return self._health

    # -- lifecycle ---------------------------------------------------------------------

    async def astart(self) -> None:
        await super().astart()
        self._probe_task = asyncio.get_running_loop().create_task(self._probe_loop())

    async def aclose(self) -> None:
        task, self._probe_task = self._probe_task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        await super().aclose()

    async def _probe_loop(self) -> None:
        timeout = min(self._node_timeout, max(self._probe_interval, 0.25))
        while True:
            await asyncio.sleep(self._probe_interval)
            await asyncio.gather(*(self._probe(name, timeout) for name in self._clients))

    async def _probe(self, name: str, timeout: float) -> None:
        try:
            status, _ = await self._clients[name].request("GET", "/healthz", timeout=timeout)
        except NodeError as exc:
            self._record_health(name, False, str(exc))
        else:
            self._record_health(name, status < 500, f"healthz answered {status}")

    def _record_health(self, node: str, ok: bool, error: str = "") -> None:
        if ok:
            if self._health.record_success(node):
                self._m_healthy.labels(node=node).set(1.0)
                self._m_transitions.labels(node=node, state="up").inc()
                _log.info("node marked up", node=node)
        else:
            if self._health.record_failure(node, error):
                self._m_healthy.labels(node=node).set(0.0)
                self._m_transitions.labels(node=node, state="down").inc()
                _log.warning("node marked down", node=node, error=error)

    # -- backend calls -----------------------------------------------------------------

    @staticmethod
    def _forward_path(request: Request) -> str:
        return request.path + ("?" + urlencode(request.query, doseq=True) if request.query else "")

    async def _call(
        self,
        request: Request,
        node: str,
        method: str,
        path: str,
        payload: Any = None,
        *,
        route: str,
        raw_body: bytes | None = None,
        content_type: str | None = None,
    ) -> tuple[int, Any]:
        """One counted, health-feeding backend request."""
        self._m_requests.labels(node=node, route=route).inc()
        try:
            status, body = await self._clients[node].request(
                method,
                path,
                payload,
                raw_body=raw_body,
                content_type=content_type,
                headers={"X-Request-Id": request.request_id, "X-Client-Id": request.client_id},
            )
        except NodeError as exc:
            self._m_errors.labels(node=node, reason=exc.reason).inc()
            self._record_health(node, False, str(exc))
            raise
        self._record_health(node, True)
        return status, body

    def _raise_upstream(self, node: str, status: int, body: Any, request: Request):
        """Re-raise a backend HTTP error so its envelope survives the hop.

        The backend's ``type`` (a domain exception name, or an admission
        ``over_budget``/``quota_exhausted``/``overloaded``) and its
        ``details`` dict -- the cost hint -- pass through untouched; the
        answering node is recorded in ``details.node``.
        """
        error = body.get("error", {}) if isinstance(body, dict) else {}
        details = dict(error.get("details") or {})
        details.setdefault("node", node)
        raise ApiError(
            status,
            error.get("message", f"node {node} answered {status}"),
            error_type=error.get("type"),
            details=details,
        )

    async def _routed_call(
        self,
        request: Request,
        candidates: Sequence[str],
        method: str,
        path: str,
        payload: Any = None,
        *,
        route: str,
    ) -> tuple[str, int, Any]:
        """Fail over (and optionally hedge) one call across replica candidates.

        Tries ``candidates`` in order: the first is launched immediately; if a
        hedge delay is configured and the call is still pending after it, the
        next candidate is launched too and the first *HTTP response* wins (an
        error status is an answer -- hedging covers outages and slowness, not
        application errors).  A candidate that raises :class:`NodeError` is
        replaced by the next one.  Raises :class:`_ReplicasExhausted` when no
        candidate produced a response.
        """
        queue = list(candidates)
        tasks: dict[asyncio.Task, str] = {}
        hedged: set[str] = set()
        errors: dict[str, str] = {}
        hedge_allowed = self._hedge_delay is not None and len(queue) > 1

        def launch(as_hedge: bool) -> None:
            node = queue.pop(0)
            if as_hedge:
                hedged.add(node)
                self._m_hedges.labels(node=node).inc()
            coro = self._call(request, node, method, path, payload, route=route)
            tasks[asyncio.get_running_loop().create_task(coro)] = node

        launch(as_hedge=False)
        try:
            while tasks:
                timeout = self._hedge_delay if (hedge_allowed and not hedged and queue) else None
                done, _ = await asyncio.wait(
                    set(tasks), timeout=timeout, return_when=asyncio.FIRST_COMPLETED
                )
                if not done:  # the hedge timer fired before any response
                    launch(as_hedge=True)
                    continue
                for task in done:
                    node = tasks.pop(task)
                    try:
                        status, body = task.result()
                    except NodeError as exc:
                        errors[node] = str(exc)
                    else:
                        if node in hedged:
                            self._m_hedge_wins.labels(node=node).inc()
                        return node, status, body
                if not tasks and queue:
                    launch(as_hedge=False)  # plain failover to the next replica
            raise _ReplicasExhausted(errors)
        finally:
            for task in tasks:
                task.cancel()

    # -- query fan-out -----------------------------------------------------------------

    def _replicas_of(self, doc_id: str) -> list[str]:
        return self._ring.nodes_for(doc_id, self.replication)

    def _ordered(self, replicas: Sequence[str]) -> list[str]:
        """Replica candidates, healthy ones first (ring order preserved)."""
        healthy = [n for n in replicas if self._health.is_healthy(n)]
        down = [n for n in replicas if not self._health.is_healthy(n)]
        return healthy + down

    def _fanout_targets(self) -> tuple[list[str], list[str]]:
        """(nodes to contact, nodes skipped as marked down) for unrouted calls."""
        healthy = [n for n in self.node_names if self._health.is_healthy(n)]
        if not healthy:  # a fully-down fleet: optimism beats a guaranteed empty answer
            return self.node_names, []
        return healthy, [n for n in self.node_names if n not in healthy]

    async def _scatter_query(
        self, request: Request, body: dict, route: str
    ) -> tuple[list[tuple[str, Any]], list[dict]]:
        """Fan one query/batch body out; returns (per-node answers, failure entries).

        Routed (``doc_ids`` present): documents group by their replica list
        and each group goes through :meth:`_routed_call` (failover + hedging).
        Unrouted: every healthy node is asked once, marked-down nodes are
        reported as failure entries without being contacted.
        """
        doc_ids = doc_ids_of(body)
        target_path = self._forward_path(request)
        jobs: list[tuple[list[str], dict]] = []
        failures: dict[str, dict] = {}
        if doc_ids is None:
            targets, skipped = self._fanout_targets()
            jobs = [([node], body) for node in targets]
            for node in skipped:
                failures[node] = node_failure(
                    node, f"node {node} ({self._clients[node].url}) is marked down"
                )
        else:
            groups: dict[tuple[str, ...], list[str]] = {}
            for doc_id in doc_ids:
                groups.setdefault(tuple(self._replicas_of(doc_id)), []).append(doc_id)
            for replicas, group_docs in groups.items():
                jobs.append((self._ordered(replicas), {**body, "doc_ids": group_docs}))

        async def run(candidates: list[str], job_body: dict):
            node, status, answer = await self._routed_call(
                request, candidates, "POST", target_path, job_body, route=route
            )
            if status >= 400:
                self._raise_upstream(node, status, answer, request)
            return node, answer

        outcomes = await asyncio.gather(*(run(c, b) for c, b in jobs), return_exceptions=True)
        answers: list[tuple[str, Any]] = []
        for outcome in outcomes:
            if isinstance(outcome, _ReplicasExhausted):
                for node, message in outcome.errors.items():
                    failures.setdefault(node, node_failure(node, message))
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                answers.append(outcome)
        return answers, list(failures.values())

    def _cluster_info(self, answers: Sequence[tuple[str, Any]], failures: Sequence[dict]) -> dict:
        return {
            "nodes_asked": sorted({node for node, _ in answers}),
            "nodes_failed": sorted({f["doc_id"].partition(":")[2] for f in failures}),
            "degraded": bool(failures),
        }

    async def _h_query(self, request: Request, match: re.Match):
        body = request.json()
        query = query_of(body)
        started = time.perf_counter()
        answers, failures = await self._scatter_query(request, body, "/v1/query")
        merged = merge_results(
            query,
            [answer for _, answer in answers],
            failures,
            elapsed_seconds=time.perf_counter() - started,
        )
        merged["request_id"] = request.request_id
        merged["cluster"] = self._cluster_info(answers, failures)
        request.log_fields["nodes"] = len(answers)
        request.log_fields["documents"] = len(merged["counts"])
        return 200, merged

    async def _h_query_batch(self, request: Request, match: re.Match):
        body = request.json()
        queries = queries_of(body)
        started = time.perf_counter()
        answers, failures = await self._scatter_query(request, body, "/v1/query/batch")
        batches = []
        for node, answer in answers:
            results = answer.get("results") if isinstance(answer, dict) else None
            if not isinstance(results, list):
                raise ApiError(502, f"node {node} answered /v1/query/batch without a results list")
            batches.append(results)
        merged = merge_batches(
            queries, batches, failures, elapsed_seconds=time.perf_counter() - started
        )
        request.log_fields["nodes"] = len(answers)
        payload = {
            "results": merged,
            "request_id": request.request_id,
            "cluster": self._cluster_info(answers, failures),
        }
        return 200, payload

    async def _h_query_estimate(self, request: Request, match: re.Match):
        body = request.json()
        queries_of(body, or_query=True)
        answers, failures = await self._scatter_query(request, body, "/v1/query/estimate")
        if not answers:
            raise ApiError(503, "no backend node answered the estimate")
        total = 0.0
        num_documents = 0
        per_query: list[dict] | None = None
        per_node = {}
        for node, answer in answers:
            total += float(answer.get("total_cost", 0.0))
            num_documents += int(answer.get("num_documents", 0))
            per_node[node] = {
                "total_cost": answer.get("total_cost"),
                "num_documents": answer.get("num_documents"),
            }
            entries = answer.get("queries")
            if isinstance(entries, list):
                if per_query is None:
                    per_query = [dict(entry) for entry in entries]
                else:
                    for merged_entry, entry in zip(per_query, entries):
                        for key in ("per_document_cost", "total_cost", "result_estimate"):
                            if key in merged_entry and key in entry:
                                merged_entry[key] += entry[key]
        return 200, {
            "num_documents": num_documents,
            "total_cost": total,
            "unit": next(iter(answers))[1].get("unit", "node-visits"),
            "queries": per_query or [],
            "nodes": per_node,
            "failures": failures,
            "request_id": request.request_id,
        }

    # -- document routes ---------------------------------------------------------------

    async def _call_each(
        self, request: Request, nodes: Sequence[str], method: str, path: str, *, route: str, **body
    ) -> tuple[dict[str, tuple[int, Any]], dict[str, str]]:
        """The same call to each of ``nodes`` at once: (responses, transport failures), by node."""
        outcomes = await asyncio.gather(
            *(self._call(request, node, method, path, route=route, **body) for node in nodes),
            return_exceptions=True,
        )
        responses: dict[str, tuple[int, Any]] = {}
        failures: dict[str, str] = {}
        for node, outcome in zip(nodes, outcomes):
            if isinstance(outcome, NodeError):
                failures[node] = str(outcome)
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                responses[node] = outcome
        return responses, failures

    @staticmethod
    def _per_node(nodes: Sequence[str], responses: Mapping, failures: Mapping) -> dict[str, Any]:
        """Each node's body, or an ``{"error": ...}`` entry where it failed or answered >= 400."""

        def entry(node: str):
            if node in failures:
                return {"error": failures[node]}
            status, body = responses[node]
            return body if status < 400 else {"error": f"answered {status}"}

        return {node: entry(node) for node in nodes}

    async def _write_replicas(self, request: Request, doc_id: str, method: str, verb: str):
        """Send a mutation to every replica of ``doc_id``.

        Returns ``(accepted [(node, body)], failed_replicas entries of the
        unreachable ones, rejecting [(node, status)])``; raises when no replica
        accepted -- the first backend envelope if any answered, else a 503.
        """
        raw = request.body if method == "PUT" else None
        responses, unreachable = await self._call_each(
            request,
            self._replicas_of(doc_id),
            method,
            self._forward_path(request),
            route="/v1/documents/{id}",
            raw_body=raw,
            content_type=request.headers.get("content-type") if raw else None,
        )
        accepted = [(node, body) for node, (status, body) in responses.items() if status < 400]
        if not accepted:
            for node, (status, body) in responses.items():
                self._raise_upstream(node, status, body, request)
            raise ApiError(
                503,
                f"no replica {verb} document {doc_id!r}: "
                + "; ".join(f"{n}: {m}" for n, m in unreachable.items()),
            )
        failed = [{"node": n, "message": m} for n, m in sorted(unreachable.items())]
        return accepted, failed, [(n, status) for n, (status, _) in responses.items() if status >= 400]

    async def _h_put_document(self, request: Request, match: re.Match):
        doc_id = match.group("doc_id")
        accepted, failed, rejecting = await self._write_replicas(request, doc_id, "PUT", "accepted")
        body = accepted[0][1]
        payload = dict(body) if isinstance(body, dict) else {"doc_id": doc_id}
        payload["replicas"] = sorted(n for n, _ in accepted)
        payload["failed_replicas"] = failed + [
            {"node": n, "message": f"answered {status}"} for n, status in rejecting
        ]
        return 201, payload

    async def _h_delete_document(self, request: Request, match: re.Match):
        doc_id = match.group("doc_id")
        accepted, failed, _ = await self._write_replicas(request, doc_id, "DELETE", "deleted")
        return 200, {"deleted": doc_id, "replicas": sorted(n for n, _ in accepted), "failed_replicas": failed}

    async def _read_document(self, request: Request, doc_id: str, route: str):
        candidates = self._ordered(self._replicas_of(doc_id))
        try:
            node, status, body = await self._routed_call(
                request, candidates, "GET", self._forward_path(request), route=route
            )
        except _ReplicasExhausted as exc:
            raise ApiError(
                503, f"no replica of document {doc_id!r} answered: {exc}"
            ) from exc
        if status >= 400:
            self._raise_upstream(node, status, body, request)
        payload = dict(body) if isinstance(body, dict) else {"doc_id": doc_id}
        payload["node"] = node
        return 200, payload

    async def _h_get_document(self, request: Request, match: re.Match):
        return await self._read_document(request, match.group("doc_id"), "/v1/documents/{id}")

    async def _h_document_stats(self, request: Request, match: re.Match):
        return await self._read_document(
            request, match.group("doc_id"), "/v1/documents/{id}/stats"
        )

    # -- introspection -----------------------------------------------------------------

    async def _h_healthz(self, request: Request, match: re.Match):
        healthy = self._health.healthy_nodes()
        return 200, {
            "status": "ok" if len(healthy) == len(self._clients) else "degraded",
            "uptime_seconds": round(self.uptime_seconds, 3),
            "nodes_configured": len(self._clients),
            "nodes_healthy": len(healthy),
        }

    async def _h_nodes(self, request: Request, match: re.Match):
        states = self._health.snapshot()
        # The per-node tallies *are* the ``coordinator_*`` counters, summed over their other labels.
        tallies: dict[str, dict[str, int]] = {name: {} for name in self._clients}
        for field, family in (
            ("requests", self._m_requests),
            ("errors", self._m_errors),
            ("hedges", self._m_hedges),
            ("hedge_wins", self._m_hedge_wins),
        ):
            index = family.labelnames.index("node")
            for name in tallies:
                tallies[name][field] = 0
            for key, value in family.values().items():
                if key[index] in tallies:  # another coordinator of this process may share the family
                    tallies[key[index]][field] += value
        return 200, {
            "replication": self.replication,
            "hedge_ms": None if self._hedge_delay is None else self._hedge_delay * 1000.0,
            "probe_interval_seconds": self._probe_interval,
            "nodes": [
                {"name": name, "url": self._clients[name].url, **states[name], **tallies[name]}
                for name in self.node_names
            ],
        }

    async def _h_stats(self, request: Request, match: re.Match):
        names = self.node_names
        nodes = self._per_node(
            names, *await self._call_each(request, names, "GET", "/v1/stats", route="/v1/stats")
        )
        return 200, {
            "cluster": {
                "nodes_configured": len(names),
                "nodes_healthy": len(self._health.healthy_nodes()),
                "replication": self.replication,
                "num_documents": sum(
                    int(body.get("store", {}).get("num_documents", 0))
                    for body in nodes.values()
                    if isinstance(body, dict)
                ),
            },
            "nodes": nodes,
        }

    async def _debug_proxy(self, request: Request, route: str):
        """``?node=`` proxies one node's debug payload; without it, aggregate."""
        values = request.query.get("node")
        query_params = {k: v for k, v in request.query.items() if k != "node"}
        path = route + ("?" + urlencode(query_params, doseq=True) if query_params else "")
        if values:
            name = values[-1]
            if name not in self._clients:
                raise ApiError(
                    400, f"unknown node {name!r}; configured nodes: {', '.join(self.node_names)}"
                )
            status, body = await self._call(request, name, "GET", path, route=route)
            if status >= 400:
                self._raise_upstream(name, status, body, request)
            return 200, {"node": name, **(body if isinstance(body, dict) else {"payload": body})}
        targets, skipped = self._fanout_targets()
        answered = self._per_node(
            targets, *await self._call_each(request, targets, "GET", path, route=route)
        )
        return 200, {
            "nodes": {**{name: {"error": "marked down"} for name in skipped}, **answered},
            "hint": f"GET {route}?node=<name> proxies one node's full payload",
        }

    async def _h_debug_workload(self, request: Request, match: re.Match):
        return await self._debug_proxy(request, "/v1/debug/workload")

    async def _h_debug_traces(self, request: Request, match: re.Match):
        return await self._debug_proxy(request, "/v1/debug/traces")

    def __repr__(self) -> str:
        state = f"listening on {self.url}" if self.port is not None else "stopped"
        return f"CoordinatorServer({state}, nodes={self.node_names})"
