"""End-to-end smoke of the deployed shapes: one server, then a 3-node fleet.

Run by the CI ``e2e-smoke`` job (and runnable locally)::

    PYTHONPATH=src python scripts/e2e_smoke.py

**Phase 1 (single node)** builds a temporary XMark store, launches
``python -m repro.server`` as a separate OS process, waits for ``/healthz``,
verifies a batch response over the socket is value-identical to the
in-process ``QueryService.run_many``, does an ingest round-trip,
strict-parses the ``/metrics`` page (every layer's families must be present
and well-formed) and checks ``/v1/debug/workload`` recorded the batch, then
sends SIGTERM and asserts the server exits cleanly (exit code 0).

**Phase 2 (docker-free fleet)** launches three ``repro-serve`` subprocesses
plus one ``python -m repro.coordinator`` in front, ingests documents through
the coordinator (consistent-hash routing places some on every node), checks a
scatter-gathered batch matches per-document expectations, then **SIGKILLs one
node mid-batch** and asserts the next batch comes back *degraded, not
failed*: partial counts plus ``DocumentFailure`` entries naming the lost node
(``node:<name>``/``NodeUnavailableError``).  It also waits for the health
probes to mark the corpse down, strict-parses the coordinator's
``repro_coordinator_*`` metric families, and asserts the coordinator and the
surviving nodes all SIGTERM-exit with code 0.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time

from repro import Document, DocumentStore, QueryService
from repro.client import CoordinatorClient, ReproClient
from repro.coordinator import HashRing
from repro.workloads import generate_xmark_xml

QUERIES = ["//item", "//item/name", '//keyword[contains(., "gold")]']
PORT = int(os.environ.get("E2E_PORT", "8765"))


def wait_for_health(client: ReproClient, deadline: float = 30.0) -> None:
    started = time.monotonic()
    while True:
        try:
            if client.healthz()["status"] == "ok":
                return
        except Exception:
            pass
        if time.monotonic() - started > deadline:
            raise RuntimeError("server did not become healthy in time")
        time.sleep(0.2)


def fleet_smoke() -> None:
    """Three ``repro-serve`` nodes + one coordinator; kill a node mid-batch."""
    node_names = ["n0", "n1", "n2"]
    node_ports = [PORT + 1 + i for i in range(3)]
    coordinator_port = PORT + 4

    # Pick document ids whose ring placement covers every node, using the same
    # stable blake2b ring the coordinator builds -- deterministic, no flakes.
    ring = HashRing(node_names)
    docs_by_node: dict[str, list[str]] = {name: [] for name in node_names}
    index = 0
    while any(len(ids) < 3 for ids in docs_by_node.values()):
        doc_id = f"fleet-{index:03d}"
        owner = ring.nodes_for(doc_id)[0]
        if len(docs_by_node[owner]) < 3:
            docs_by_node[owner].append(doc_id)
        index += 1
    corpus = {
        doc_id: generate_xmark_xml(scale=0.01, seed=900 + i)
        for i, doc_id in enumerate(sorted(d for ids in docs_by_node.values() for d in ids))
    }
    expected = {
        query: {doc_id: Document.from_string(xml).count(query) for doc_id, xml in corpus.items()}
        for query in QUERIES
    }

    with tempfile.TemporaryDirectory() as root:
        processes: list[subprocess.Popen] = []
        try:
            for name, port in zip(node_names, node_ports):
                os.makedirs(os.path.join(root, name))
                processes.append(
                    subprocess.Popen(
                        [
                            sys.executable,
                            "-m",
                            "repro.server",
                            "--root",
                            os.path.join(root, name),
                            "--port",
                            str(port),
                            "--workers",
                            "4",
                        ],
                    )
                )
            coordinator = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.coordinator",
                    "--port",
                    str(coordinator_port),
                    "--probe-interval",
                    "0.3",
                    "--fail-after",
                    "2",
                ]
                + [
                    f"--node={name}=127.0.0.1:{port}"
                    for name, port in zip(node_names, node_ports)
                ],
            )
            processes.append(coordinator)

            # The coordinator starts optimistic (every node healthy) and, without
            # the engine to import, listens before the nodes do: wait for them.
            for port in node_ports:
                with ReproClient("127.0.0.1", port, retries=0, timeout=10.0) as node:
                    wait_for_health(node)
            with CoordinatorClient(
                "127.0.0.1", coordinator_port, retries=0, timeout=10.0
            ) as client:
                wait_for_health(client)
                for doc_id, xml in corpus.items():
                    client.put_document(doc_id, xml)
                per_node = client.stats()["nodes"]
                placed = {n: per_node[n]["store"]["num_documents"] for n in node_names}
                assert placed == {n: len(docs_by_node[n]) for n in node_names}, placed
                print(f"e2e-fleet: {len(corpus)} documents routed across 3 nodes {placed}")

                results = client.run_many(QUERIES)
                for result in results:
                    reference = expected[result.query]
                    assert result.counts == reference, result.query
                    assert not result.failures, result.failures
                print(f"e2e-fleet: scatter-gathered batch of {len(results)} queries matches")

                # SIGKILL one node mid-batch: no graceful shutdown, the port
                # just goes dead.  The very next batch must come back degraded
                # -- partial counts plus failures naming the lost node -- not
                # as an exception.
                victim = node_names[1]
                processes[1].kill()
                processes[1].wait()
                survivors = set(corpus) - set(docs_by_node[victim])
                results = client.run_many(QUERIES)
                for result in results:
                    reference = {
                        d: c for d, c in expected[result.query].items() if d in survivors
                    }
                    assert result.counts == reference, result.query
                    lost = [f for f in result.failures if f.doc_id == f"node:{victim}"]
                    assert lost, f"no failure names the killed node: {result.failures}"
                    assert lost[0].error == "NodeUnavailableError"
                    assert victim in lost[0].message
                print(f"e2e-fleet: batch degraded (not failed) after SIGKILL of {victim}")

                deadline = time.monotonic() + 10.0
                while victim in client.healthy_nodes():
                    assert time.monotonic() < deadline, "probes never marked the corpse down"
                    time.sleep(0.1)
                assert client.healthz()["status"] == "degraded"
                print("e2e-fleet: health probes marked the corpse down")

                families = client.metrics()
                for family in (
                    "repro_coordinator_node_requests_total",
                    "repro_coordinator_node_errors_total",
                    "repro_coordinator_node_healthy",
                    "repro_coordinator_health_transitions_total",
                    "repro_coordinator_nodes_healthy",
                ):
                    assert family in families, f"missing metric family {family}"
                print("e2e-fleet: coordinator metrics page strict-parses")

            for process in [coordinator, processes[0], processes[2]]:
                process.send_signal(signal.SIGTERM)
            for label, process in (
                ("coordinator", coordinator),
                (node_names[0], processes[0]),
                (node_names[2], processes[2]),
            ):
                exit_code = process.wait(timeout=30)
                assert exit_code == 0, f"{label} exited with {exit_code} after SIGTERM"
            print("e2e-fleet: clean shutdown of the coordinator and survivors")
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.wait()


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        store = DocumentStore(root, num_shards=8, cache_size=4)
        for i in range(6):
            store.add_xml(f"xmark-{i:02d}", generate_xmark_xml(scale=0.02, seed=700 + i))
        expected = {r.query: r for r in QueryService(store, max_workers=1).run_many(QUERIES)}

        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server",
                "--root",
                root,
                "--port",
                str(PORT),
                "--cache-size",
                "4",
                "--workers",
                "4",
            ],
        )
        try:
            with ReproClient("127.0.0.1", PORT, retries=0, timeout=10.0) as client:
                wait_for_health(client)

                results = client.run_many(QUERIES)
                for result in results:
                    reference = expected[result.query]
                    assert result.counts == reference.counts, result.query
                    assert result.total == reference.total, result.query
                    assert result.failures == reference.failures, result.query
                print(f"e2e: batch of {len(results)} queries matches in-process run_many")

                created = client.put_document("wire", "<site><item><name>e2e</name></item></site>")
                assert client.run("//item", doc_ids=["wire"]).total == 1
                assert client.document_stats("wire")["total_bytes"] > 0
                client.delete_document("wire")
                print(f"e2e: ingest round-trip ok (shard {created['shard']})")

                # The strict parser raises on any exposition-format slip
                # (duplicate headers, unsorted labels, broken histograms).
                families = client.metrics()
                for family in (
                    "repro_http_requests_total",
                    "repro_http_request_seconds",
                    "repro_engine_queries_total",
                    "repro_store_cache_hits_total",
                    "repro_storage_mapped_loads_total",
                    "repro_service_sweep_seconds",
                    "repro_process_open_fds",
                ):
                    assert family in families, f"missing metric family {family}"
                print(f"e2e: metrics page strict-parses ({len(families)} families)")

                workload = client.debug_workload()
                assert workload["enabled"], "workload analytics disabled by default?"
                assert workload["total_queries"] >= len(QUERIES), workload["total_queries"]
                assert workload["shapes"], "no query shapes recorded"
                assert workload["shapes"][0]["latency"]["count"] >= 1
                assert workload["slow_queries"], "no slow queries recorded"
                print(f"e2e: workload analytics ok ({workload['num_shapes']} shapes)")

            process.send_signal(signal.SIGTERM)
            exit_code = process.wait(timeout=30)
            assert exit_code == 0, f"server exited with {exit_code} after SIGTERM"
            print("e2e: clean shutdown (exit code 0)")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    fleet_smoke()
    return 0


if __name__ == "__main__":
    sys.exit(main())
