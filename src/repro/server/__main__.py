"""Command-line entry point: serve a store directory over HTTP.

Installed as the ``repro-serve`` console script and runnable as
``python -m repro.server``::

    repro-serve --root corpus/ --port 8080 --shards 16 --cache-size 8 --workers 8

The store is created (with ``--shards`` shard directories) when the root does
not exist yet, so ``repro-serve --root new-corpus/`` followed by
``PUT /v1/documents/{id}`` bootstraps a corpus entirely over the wire.
SIGINT/SIGTERM trigger a graceful shutdown (in-flight requests finish) and a
zero exit code -- which is what the CI e2e smoke job asserts.

Observability flags: ``--log-level``/``--log-json`` configure the structured
logger (access log lines carry request id, route, status, duration and shard
count), ``--slow-query-ms`` turns on the slow-query WARNING log,
``--trace``/``--no-trace`` toggle span tracing (served by
``GET /v1/debug/traces``), ``--trace-buffer`` sizes its ring buffer, and
``--workload``/``--no-workload`` toggle the per-query-shape analytics behind
``GET /v1/debug/workload``.

Admission-control flags (all optional; any one enables the pre-flight cost
estimate): ``--cost-budget`` caps a single request's estimated cost
(node-visits; 429 with a cost hint above it), ``--client-cost-quota`` with
``--quota-window`` rate-limits each ``X-Client-Id`` by cost (429 with
``retry_after_seconds``), and ``--max-inflight-cost`` sheds load with 503
when the summed estimate of running requests is too high.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.obs.logging import configure_logging, get_logger
from repro.obs.tracing import Tracer, set_tracer
from repro.obs.workload import get_workload
from repro.server.admission import AdmissionController
from repro.server.http import ReproServer
from repro.service.query_service import QueryService
from repro.store.document_store import DocumentStore

_log = get_logger("server.main")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve", description="Serve a sharded SXSI document store over HTTP."
    )
    parser.add_argument("--root", required=True, help="store directory (created if missing)")
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080, help="bind port; 0 picks a free one")
    parser.add_argument(
        "--shards", type=int, default=16, help="shard count when creating a new store (default: 16)"
    )
    parser.add_argument(
        "--cache-size", type=int, default=8, help="resident-document LRU capacity (default: 8)"
    )
    parser.add_argument(
        "--mmap",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="memory-map document files (the default); --no-mmap copies them to the heap",
    )
    parser.add_argument(
        "--verify",
        choices=("eager", "lazy", "off"),
        default=None,
        help="checksum mode for mapped loads: eager = verify at open, "
        "lazy = defer to /v1 integrity checks (default), off = trust the file",
    )
    parser.add_argument(
        "--workers", type=int, default=8, help="thread pool bridging index work (default: 8)"
    )
    parser.add_argument(
        "--service-workers", type=int, default=4, help="QueryService scatter-gather workers (default: 4)"
    )
    parser.add_argument(
        "--cache-size-plans",
        "--plan-cache-size",
        dest="plan_cache_size",
        type=int,
        default=128,
        help="compiled-plan LRU capacity (default: 128)",
    )
    parser.add_argument(
        "--max-body-bytes",
        type=int,
        default=32 * 1024 * 1024,
        help="largest accepted request body (default: 32 MiB)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=60.0, help="per-request handler budget in seconds"
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="log verbosity of the repro loggers (default: info)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit JSON-lines structured logs instead of human-readable ones",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help="log a WARNING for any request slower than this many milliseconds",
    )
    parser.add_argument(
        "--trace",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="record query traces into the in-memory ring buffer (GET /v1/debug/traces)",
    )
    parser.add_argument(
        "--trace-buffer",
        type=int,
        default=256,
        help="trace ring-buffer capacity in traces (default: 256)",
    )
    parser.add_argument(
        "--workload",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="record per-query-shape workload analytics (GET /v1/debug/workload)",
    )
    parser.add_argument(
        "--cost-budget",
        type=float,
        default=None,
        help="reject any single request whose estimated cost (node-visits) exceeds "
        "this budget with 429 and a cost hint",
    )
    parser.add_argument(
        "--client-cost-quota",
        type=float,
        default=None,
        help="per-client cost quota (node-visits) over the --quota-window; "
        "exhaustion is a 429 with retry_after_seconds",
    )
    parser.add_argument(
        "--quota-window",
        type=float,
        default=60.0,
        help="seconds over which a client's cost quota refills (default: 60)",
    )
    parser.add_argument(
        "--max-inflight-cost",
        type=float,
        default=None,
        help="summed estimated cost the server will run concurrently; above it "
        "new requests get 503 (always admits when idle)",
    )
    return parser


async def _serve(server: ReproServer) -> None:
    try:
        await server.serve_until_signalled()
    finally:
        server.service.close()
        server.service.store.close()
        _log.info("shutdown complete")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_lines=args.log_json)
    set_tracer(Tracer(capacity=max(1, args.trace_buffer), enabled=bool(args.trace)))
    if args.workload:
        get_workload().enable()
    else:
        get_workload().disable()
    store = DocumentStore(
        args.root,
        num_shards=args.shards,
        cache_size=args.cache_size,
        mapped=args.mmap,
        verify=args.verify,
    )
    service = QueryService(
        store, max_workers=args.service_workers, plan_cache_size=args.plan_cache_size
    )
    admission = None
    if (
        args.cost_budget is not None
        or args.client_cost_quota is not None
        or args.max_inflight_cost is not None
    ):
        admission = AdmissionController(
            cost_budget=args.cost_budget,
            client_cost_quota=args.client_cost_quota,
            quota_window_seconds=args.quota_window,
            max_inflight_cost=args.max_inflight_cost,
        )
    server = ReproServer(
        service,
        host=args.host,
        port=args.port,
        executor_workers=args.workers,
        max_body_bytes=args.max_body_bytes,
        request_timeout=args.request_timeout,
        slow_query_ms=args.slow_query_ms,
        admission=admission,
    )
    _log.info(
        "store opened",
        root=str(store.root),
        documents=len(store),
        shards=store.num_shards,
        tracing=bool(args.trace),
        workload=bool(args.workload),
    )
    asyncio.run(_serve(server))
    return 0


if __name__ == "__main__":
    sys.exit(main())
