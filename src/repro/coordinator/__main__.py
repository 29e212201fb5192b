"""Command-line entry point: coordinate a fleet of ``repro-serve`` nodes.

Installed as the ``repro-coordinator`` console script and runnable as
``python -m repro.coordinator``::

    repro-coordinator --node 127.0.0.1:8001 --node 127.0.0.1:8002 \\
        --node 127.0.0.1:8003 --port 8080 --replication 2 --hedge-ms 50

Each ``--node`` is ``host:port`` (or ``name=host:port`` to pick the label
used in metrics, ``/v1/nodes`` and failure entries).  The coordinator serves
the same wire API as a single ``repro-serve`` -- point a ``ReproClient`` (or
``curl``) at it unchanged -- and fans queries out across the fleet; see
``docs/operations.md`` for the runbook and ``docs/architecture.md`` for how
routing, replication, health and hedging fit together.

SIGINT/SIGTERM trigger a graceful shutdown (in-flight fan-outs finish) and a
zero exit code, mirroring ``repro-serve``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.coordinator.http import CoordinatorServer
from repro.obs.logging import configure_logging, get_logger

_log = get_logger("coordinator.main")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-coordinator",
        description="Coordinate a fleet of repro-serve nodes behind one endpoint.",
    )
    parser.add_argument(
        "--node",
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="a repro-serve backend as host:port or name=host:port (repeat per node)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080, help="bind port; 0 picks a free one")
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        help="replicas per document (clamped to the fleet size; default: 1)",
    )
    parser.add_argument(
        "--hedge-ms",
        type=float,
        default=None,
        help="fire a duplicate read at the next replica after this many milliseconds "
        "(requires --replication > 1; default: hedging off)",
    )
    parser.add_argument(
        "--probe-interval",
        type=float,
        default=2.0,
        help="seconds between background /healthz probe rounds (default: 2)",
    )
    parser.add_argument(
        "--fail-after",
        type=int,
        default=3,
        help="consecutive probe/request failures before a node is marked down (default: 3)",
    )
    parser.add_argument(
        "--rise-after",
        type=int,
        default=2,
        help="consecutive probe successes before a down node is routed to again (default: 2)",
    )
    parser.add_argument(
        "--node-timeout",
        type=float,
        default=30.0,
        help="per-backend-request timeout in seconds (default: 30)",
    )
    parser.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual nodes per backend on the consistent-hash ring (default: 64)",
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_lines=args.log_json)
    server = CoordinatorServer(
        args.node,
        host=args.host,
        port=args.port,
        replication=args.replication,
        hedge_ms=args.hedge_ms,
        probe_interval=args.probe_interval,
        fail_after=args.fail_after,
        rise_after=args.rise_after,
        node_timeout=args.node_timeout,
        vnodes=args.vnodes,
        max_body_bytes=args.max_body_bytes,
        request_timeout=args.request_timeout,
        slow_query_ms=args.slow_query_ms,
    )
    _log.info(
        "coordinator configured",
        nodes=server.node_names,
        replication=server.replication,
        hedge_ms=args.hedge_ms,
    )
    asyncio.run(server.serve_until_signalled(nodes=len(server.node_names)))
    _log.info("shutdown complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
