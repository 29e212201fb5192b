"""Cluster-coordinator tests: ring, health hysteresis, and failure paths.

The cluster fixtures run real :class:`ReproServer` backends (sync facade,
loop in a daemon thread) behind a real :class:`CoordinatorServer` on
loopback, exactly like the e2e smoke but in-process -- so "kill a node"
is ``server.stop()`` and every wire behaviour (degraded batches, envelope
pass-through, hedging) is exercised over actual HTTP.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
import time

import pytest

from repro.client import CoordinatorClient, ReproClient
from repro.coordinator import CoordinatorServer, HashRing, HealthTracker
from repro.coordinator.backend import NodeError
from repro.coordinator.http import parse_node_spec
from repro.coordinator.merge import merge_batches, merge_results, node_failure
from repro.server import ReproServer
from repro.server.admission import AdmissionController
from repro.server.protocol import ApiError
from repro.service.query_service import QueryService
from repro.store.document_store import DocumentStore
from repro.xpath.parser import XPathSyntaxError


# ``/v1/nodes`` reads the ``coordinator_*`` families, which every coordinator of
# a process shares: each test gets a fresh process-wide registry.
pytestmark = pytest.mark.usefixtures("registry")

# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_nodes_for_returns_distinct_nodes_primary_first(self):
        ring = HashRing(["a", "b", "c"])
        replicas = ring.nodes_for("doc-1", 3)
        assert sorted(replicas) == ["a", "b", "c"]
        assert ring.nodes_for("doc-1", 1) == replicas[:1]
        assert ring.nodes_for("doc-1", 2) == replicas[:2]

    def test_count_clamped_to_fleet_size(self):
        ring = HashRing(["a", "b"])
        assert len(ring.nodes_for("k", 10)) == 2

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError):
            HashRing().nodes_for("k")

    def test_placement_is_stable_across_instances(self):
        keys = [f"doc-{i}" for i in range(100)]
        one = [HashRing(["a", "b", "c"]).nodes_for(k)[0] for k in keys]
        two = [HashRing(["c", "a", "b"]).nodes_for(k)[0] for k in keys]
        assert one == two  # insertion order and process identity do not matter

    def test_remove_only_moves_the_removed_nodes_keys(self):
        keys = [f"doc-{i}" for i in range(300)]
        ring = HashRing(["a", "b", "c"])
        before = {k: ring.nodes_for(k)[0] for k in keys}
        ring.remove("c")
        after = {k: ring.nodes_for(k)[0] for k in keys}
        for key in keys:
            if before[key] != "c":
                assert after[key] == before[key]
        assert any(before[k] == "c" for k in keys)  # the test actually covered moves

    def test_add_restores_the_original_placement(self):
        keys = [f"doc-{i}" for i in range(300)]
        ring = HashRing(["a", "b", "c"])
        before = {k: ring.nodes_for(k, 2) for k in keys}
        ring.remove("b")
        ring.add("b")
        assert {k: ring.nodes_for(k, 2) for k in keys} == before

    def test_spread_is_roughly_balanced(self):
        ring = HashRing(["a", "b", "c"], vnodes=64)
        spread = ring.spread(f"doc-{i}" for i in range(600))
        assert all(count > 0 for count in spread.values())
        assert max(spread.values()) / min(spread.values()) < 3.0


# ---------------------------------------------------------------------------
# health hysteresis
# ---------------------------------------------------------------------------


class TestHealthTracker:
    def test_marks_down_only_after_consecutive_failures(self):
        tracker = HealthTracker(["n"], fail_after=3, rise_after=2)
        assert not tracker.record_failure("n")
        assert not tracker.record_failure("n")
        assert tracker.is_healthy("n")
        assert tracker.record_failure("n")  # the third one transitions
        assert not tracker.is_healthy("n")

    def test_marks_up_only_after_consecutive_successes(self):
        tracker = HealthTracker(["n"], fail_after=1, rise_after=2)
        tracker.record_failure("n", "boom")
        assert not tracker.record_success("n")
        assert not tracker.is_healthy("n")
        assert tracker.record_success("n")
        assert tracker.is_healthy("n")
        assert tracker.snapshot()["n"]["last_error"] is None

    def test_flapping_node_stays_put(self):
        """Alternating ok/fail never accumulates a streak -- no transition."""
        tracker = HealthTracker(["n"], fail_after=3, rise_after=2)
        for _ in range(10):
            tracker.record_failure("n")
            tracker.record_success("n")
        assert tracker.is_healthy("n")
        assert tracker.snapshot()["n"]["transitions"] == 0

    def test_snapshot_names_the_error(self):
        tracker = HealthTracker(["n"], fail_after=1)
        tracker.record_failure("n", "connection refused")
        snap = tracker.snapshot()["n"]
        assert snap["healthy"] is False
        assert "refused" in snap["last_error"]

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            HealthTracker(["n"]).record_success("ghost")


# ---------------------------------------------------------------------------
# merge rules
# ---------------------------------------------------------------------------


def _answer(counts, failures=(), timings=()):
    return {
        "counts": counts,
        "nodes": None,
        "failures": list(failures),
        "shard_timings": list(timings),
    }


class TestMerge:
    def test_counts_union_dedups_replicas(self):
        merged = merge_results(
            "//b", [_answer({"d1": 2, "d2": 1}), _answer({"d2": 1, "d3": 4})]
        )
        assert merged["counts"] == {"d1": 2, "d2": 1, "d3": 4}
        assert merged["total"] == 7  # recomputed, not summed across nodes

    def test_answered_document_drops_another_replicas_failure(self):
        failing = _answer({}, [{"doc_id": "d1", "error": "CorruptedFileError", "message": "bad"}])
        merged = merge_results("//b", [failing, _answer({"d1": 3})])
        assert merged["counts"] == {"d1": 3}
        assert merged["failures"] == []

    def test_node_failures_always_survive(self):
        merged = merge_results("//b", [_answer({"d1": 1})], [node_failure("n2", "dead")])
        assert merged["failures"][0]["doc_id"] == "node:n2"
        assert merged["failures"][0]["error"] == "NodeUnavailableError"

    def test_batch_merges_position_by_position(self):
        batches = [
            [_answer({"d1": 1}), _answer({"d1": 5})],
            [_answer({"d2": 2}), _answer({"d2": 6})],
        ]
        merged = merge_batches(["//a", "//b"], batches)
        assert [m["total"] for m in merged] == [3, 11]

    def test_batch_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            merge_batches(["//a", "//b"], [[_answer({})]])


def test_parse_node_spec():
    assert parse_node_spec("127.0.0.1:8001") == ("127.0.0.1:8001", "127.0.0.1", 8001)
    assert parse_node_spec("east=10.0.0.1:9000") == ("east", "10.0.0.1", 9000)
    for bad in ("nope", "host:", ":80", "a=b:c"):
        with pytest.raises(ValueError):
            parse_node_spec(bad)


# ---------------------------------------------------------------------------
# live clusters
# ---------------------------------------------------------------------------

_DOCS = {f"doc{i}": f"<lib><book><t>x{i}</t></book><book><t>y</t></book></lib>" for i in range(8)}


def _backend(tmp_path, name):
    store = DocumentStore(tmp_path / name, num_shards=4)
    server = ReproServer(QueryService(store))
    server.start()
    return server


@pytest.fixture()
def cluster(tmp_path):
    """Two live backends + a coordinator (replication=1) with 8 documents."""
    backends = [_backend(tmp_path, f"b{i}") for i in range(2)]
    specs = [f"n{i}=127.0.0.1:{srv.port}" for i, srv in enumerate(backends)]
    coordinator = CoordinatorServer(specs, probe_interval=30.0)
    coordinator.start()
    client = CoordinatorClient("127.0.0.1", coordinator.port, retries=0)
    for doc_id, xml in _DOCS.items():
        client.put_document(doc_id, xml)
    try:
        yield backends, coordinator, client
    finally:
        client.close()
        coordinator.stop()
        for backend in backends:
            backend.stop()


class TestCoordinatorCluster:
    def test_scatter_gather_matches_per_node_sums(self, cluster):
        _, _, client = cluster
        result = client.run("//book")
        assert result.total == 2 * len(_DOCS)
        assert set(result.counts) == set(_DOCS)
        assert result.failures == []

    def test_plain_repro_client_works_unchanged(self, cluster):
        _, coordinator, _ = cluster
        with ReproClient("127.0.0.1", coordinator.port, retries=0) as plain:
            results = plain.run_many(["//book", "//t"])
            assert [r.total for r in results] == [16, 16]

    def test_doc_routed_query_touches_one_replica_set(self, cluster):
        _, coordinator, client = cluster
        doc_id = next(iter(_DOCS))
        result = client.run("//book", doc_ids=[doc_id])
        assert result.counts == {doc_id: 2}
        owner = coordinator.ring.nodes_for(doc_id)[0]
        table = {n["name"]: n for n in client.nodes()["nodes"]}
        assert table[owner]["requests"] > 0

    def test_domain_error_envelope_passes_through(self, cluster):
        _, _, client = cluster
        with pytest.raises(XPathSyntaxError):
            client.run("//book[")

    def test_document_routes_and_nodes_table(self, cluster):
        _, _, client = cluster
        summary = client.get_document("doc0")
        assert summary["num_nodes"] > 0 and "node" in summary
        stats = client.document_stats("doc0")
        assert stats["doc_id"] == "doc0"
        assert client.delete_document("doc0")["deleted"] == "doc0"
        assert sorted(client.node_names()) == ["n0", "n1"]
        assert client.healthy_nodes() == ["n0", "n1"]

    def test_cluster_stats_sums_documents(self, cluster):
        _, _, client = cluster
        stats = client.stats()
        assert stats["cluster"]["num_documents"] == len(_DOCS)
        assert set(stats["nodes"]) == {"n0", "n1"}

    def test_debug_proxy_by_node_and_aggregate(self, cluster):
        _, _, client = cluster
        aggregated = client.debug_workload()
        assert set(aggregated["nodes"]) == {"n0", "n1"}
        proxied = client.debug_traces(limit=1, node="n1")
        assert proxied["node"] == "n1"
        with pytest.raises(ApiError) as excinfo:
            client.debug_workload(node="ghost")
        assert excinfo.value.status == 400

    def test_estimate_aggregates_across_nodes(self, cluster):
        _, _, client = cluster
        estimate = client.estimate_cost(["//book"])
        assert estimate["num_documents"] == len(_DOCS)
        assert estimate["total_cost"] > 0
        assert set(estimate["nodes"]) == {"n0", "n1"}

    def test_metrics_page_has_coordinator_families(self, cluster):
        _, _, client = cluster
        families = client.metrics()
        for family in (
            "repro_coordinator_node_requests_total",
            "repro_coordinator_node_healthy",
            "repro_coordinator_hedges_total",
            "repro_coordinator_nodes_healthy",
        ):
            assert family in families, family

    def test_node_dying_mid_batch_degrades_not_fails(self, cluster):
        backends, coordinator, client = cluster
        backends[0].stop()  # SIGKILL-equivalent: the port goes dead mid-session
        results = client.run_many(["//book", "//t"])
        for result in results:
            assert 0 < result.total < 2 * len(_DOCS)
            assert [f for f in result.failures if f.doc_id == "node:n0"], result.failures
            assert "n0" in result.failures[0].message
        # and the coordinator keeps serving the surviving node's documents
        assert client.run("//book").total == results[0].total


class TestReplication:
    @pytest.fixture()
    def replicated(self, tmp_path):
        backends = [_backend(tmp_path, f"b{i}") for i in range(2)]
        specs = [f"n{i}=127.0.0.1:{srv.port}" for i, srv in enumerate(backends)]
        coordinator = CoordinatorServer(specs, replication=2, probe_interval=30.0)
        coordinator.start()
        client = CoordinatorClient("127.0.0.1", coordinator.port, retries=0)
        for doc_id, xml in _DOCS.items():
            client.put_document(doc_id, xml)
        try:
            yield backends, coordinator, client
        finally:
            client.close()
            coordinator.stop()
            for backend in backends:
                backend.stop()

    def test_ingest_writes_every_replica(self, replicated):
        _, _, client = replicated
        payload = client.put_document("fresh", "<a><b/></a>", overwrite=True)
        assert payload["replicas"] == ["n0", "n1"]
        assert payload["failed_replicas"] == []

    def test_fanout_dedups_replica_answers(self, replicated):
        _, _, client = replicated
        result = client.run("//book")
        # both replicas hold every document; the union must not double-count
        assert result.total == 2 * len(_DOCS)
        assert set(result.counts) == set(_DOCS)

    def test_dead_replica_is_transparent_for_reads(self, replicated):
        backends, _, client = replicated
        backends[1].stop()
        result = client.run("//book", doc_ids=list(_DOCS))
        assert result.total == 2 * len(_DOCS)
        assert result.failures == []  # the surviving replica answered everything
        assert client.get_document("doc1")["node"] == "n0"


class TestHedging:
    def test_hedge_fires_and_wins_when_the_primary_stalls(self, tmp_path):
        backends = [_backend(tmp_path, f"b{i}") for i in range(2)]
        specs = [f"n{i}=127.0.0.1:{srv.port}" for i, srv in enumerate(backends)]
        coordinator = CoordinatorServer(
            specs, replication=2, hedge_ms=40.0, probe_interval=30.0
        )
        coordinator.start()
        client = CoordinatorClient("127.0.0.1", coordinator.port, retries=0)
        try:
            client.put_document("slowdoc", "<a><b/><b/></a>")
            primary, secondary = coordinator.ring.nodes_for("slowdoc", 2)
            real_request = coordinator._clients[primary].request

            async def stalled(method, path, payload=None, **kwargs):
                await asyncio.sleep(1.0)
                return await real_request(method, path, payload, **kwargs)

            coordinator._clients[primary].request = stalled
            started = time.perf_counter()
            result = client.run("//b", doc_ids=["slowdoc"])
            elapsed = time.perf_counter() - started
            assert result.counts == {"slowdoc": 2}
            assert elapsed < 1.0  # the hedge answered; we never waited out the stall
            table = {n["name"]: n for n in client.nodes()["nodes"]}
            assert table[secondary]["hedges"] == 1
            assert table[secondary]["hedge_wins"] == 1
        finally:
            client.close()
            coordinator.stop()
            for backend in backends:
                backend.stop()

    def test_no_hedge_when_primary_is_fast(self, tmp_path):
        backends = [_backend(tmp_path, f"b{i}") for i in range(2)]
        specs = [f"n{i}=127.0.0.1:{srv.port}" for i, srv in enumerate(backends)]
        coordinator = CoordinatorServer(
            specs, replication=2, hedge_ms=5000.0, probe_interval=30.0
        )
        coordinator.start()
        client = CoordinatorClient("127.0.0.1", coordinator.port, retries=0)
        try:
            client.put_document("d", "<a><b/></a>")
            client.run("//b", doc_ids=["d"])
            table = {n["name"]: n for n in client.nodes()["nodes"]}
            assert all(n["hedges"] == 0 for n in table.values())
        finally:
            client.close()
            coordinator.stop()
            for backend in backends:
                backend.stop()


# ---------------------------------------------------------------------------
# one counter mechanism, one HTTP base
# ---------------------------------------------------------------------------

#: ``(family, type, label names)`` of a freshly started server's ``/metrics``,
#: captured at the commit before ISSUE 15 and changed in exactly three places:
#: ``engine_select_calls_total`` is gone and the two plan-cache totals are
#: counters (they were pushed through a gauge).
_BOTH_PAGES = {
    ("engine_fm_index_queries_total", "counter", ()),
    ("engine_jumps_total", "counter", ()),
    ("engine_kernel_batch_calls_total", "counter", ()),
    ("engine_marked_nodes_total", "counter", ()),
    ("engine_queries_bottom_up_total", "counter", ()),
    ("engine_queries_top_down_total", "counter", ()),
    ("engine_queries_total", "counter", ()),
    ("engine_rank_calls_total", "counter", ()),
    ("engine_result_nodes_total", "counter", ()),
    ("engine_text_queries_total", "counter", ()),
    ("engine_visited_nodes_total", "counter", ()),
    ("http_rejected_total", "counter", ("reason",)),
    ("http_request_seconds", "histogram", ("route",)),
    ("http_requests_total", "counter", ("route", "method", "status")),
    ("planner_estimated_cost_total", "counter", ()),
    ("planner_plans_bottom_up_total", "counter", ()),
    ("planner_plans_naive_text_total", "counter", ()),
    ("planner_plans_top_down_total", "counter", ()),
    ("planner_plans_total", "counter", ()),
    ("planner_wildcard_candidate_fallbacks_total", "counter", ()),
    ("process_major_page_faults_total", "counter", ()),
    ("process_max_rss_bytes", "gauge", ()),
    ("process_minor_page_faults_total", "counter", ()),
    ("process_open_fds", "gauge", ()),
    ("process_rss_bytes", "gauge", ()),
}
_NODE_PAGE = _BOTH_PAGES | {
    ("admission_admitted_total", "counter", ()),
    ("admission_inflight_cost", "gauge", ()),
    ("admission_rejected_total", "counter", ("reason",)),
    ("inflight_requests", "gauge", ()),
    ("plan_cache_entries", "gauge", ()),
    ("plan_cache_hit_ratio", "gauge", ()),
    ("plan_cache_hits_total", "counter", ()),
    ("plan_cache_misses_total", "counter", ()),
    ("service_document_failures_total", "counter", ("error",)),
    ("service_eval_seconds_total", "counter", ()),
    ("service_load_seconds_total", "counter", ()),
    ("service_shard_seconds", "histogram", ("executor",)),
    ("service_sweep_seconds", "histogram", ("executor",)),
    ("store_cache_evictions_total", "counter", ()),
    ("store_cache_hits_total", "counter", ()),
    ("store_cache_misses_total", "counter", ()),
    ("store_cache_remaps_total", "counter", ()),
    ("store_cache_resident_documents", "gauge", ()),
    ("store_mapped_bytes", "gauge", ()),
    ("store_mapped_documents", "gauge", ()),
    ("store_mapped_resident_bytes", "gauge", ()),
}
_COORDINATOR_PAGE = _BOTH_PAGES | {
    ("coordinator_health_transitions_total", "counter", ("node", "state")),
    ("coordinator_hedge_wins_total", "counter", ("node",)),
    ("coordinator_hedges_total", "counter", ("node",)),
    ("coordinator_inflight_requests", "gauge", ()),
    ("coordinator_node_errors_total", "counter", ("node", "reason")),
    ("coordinator_node_healthy", "gauge", ("node",)),
    ("coordinator_node_requests_total", "counter", ("node", "route")),
    ("coordinator_nodes_configured", "gauge", ()),
    ("coordinator_nodes_healthy", "gauge", ()),
}


def _page_contract(server, registry):
    """``(family, type, label names)`` of a live server's strictly parsed ``/metrics``."""
    with ReproClient(*server.address, retries=0) as client:
        page = client.metrics()
    return {
        (name.removeprefix("repro_"), family["type"], registry.get(name.removeprefix("repro_")).labelnames)
        for name, family in page.items()
    }


def _sample(page, family, **labels):
    """Sum of a parsed family's samples whose labels include ``labels``."""
    return sum(
        value for _, have, value in page[family]["samples"] if labels.items() <= have.items()
    )


class TestMetricsPages:
    def test_node_page_contract(self, tmp_path, registry):
        backend = _backend(tmp_path, "solo")
        try:
            assert _page_contract(backend, registry) == _NODE_PAGE
        finally:
            backend.stop()

    def test_coordinator_page_contract(self, registry):
        with CoordinatorServer(["n0=127.0.0.1:9"], probe_interval=30.0) as coordinator:
            assert _page_contract(coordinator, registry) == _COORDINATOR_PAGE

    def test_coordinator_and_node_in_one_process_do_not_collide(self, tmp_path, registry):
        """Both front-ends report into one registry; the page being scraped is
        itself the only request in flight, on its own gauge."""
        backend = _backend(tmp_path, "solo")
        coordinator = CoordinatorServer([f"n0=127.0.0.1:{backend.port}"], probe_interval=30.0)
        coordinator.start()
        try:
            for server, own, other in (
                (coordinator, "repro_coordinator_inflight_requests", "repro_inflight_requests"),
                (backend, "repro_inflight_requests", "repro_coordinator_inflight_requests"),
            ):
                assert _page_contract(server, registry) == _NODE_PAGE | _COORDINATOR_PAGE
                with ReproClient(*server.address, retries=0) as client:
                    page = client.metrics()
                assert (_sample(page, own), _sample(page, other)) == (1, 0)
        finally:
            coordinator.stop()
            backend.stop()

    def test_nodes_tallies_are_the_registry_values(self, tmp_path):
        """``/v1/nodes`` after a hedged, a failed-over and a failed call reports
        exactly what ``/metrics`` does -- there is no second set of numbers."""
        backends = [_backend(tmp_path, f"b{i}") for i in range(2)]
        specs = [f"n{i}=127.0.0.1:{srv.port}" for i, srv in enumerate(backends)]
        coordinator = CoordinatorServer(specs, replication=2, hedge_ms=40.0, probe_interval=30.0)
        coordinator.start()
        client = CoordinatorClient("127.0.0.1", coordinator.port, retries=0)
        try:
            client.put_document("d", "<a><b/><b/></a>")
            primary, secondary = coordinator.ring.nodes_for("d", 2)
            by_name = dict(zip(("n0", "n1"), backends))
            real_request = coordinator._clients[primary].request

            async def stalled(method, path, payload=None, **kwargs):
                await asyncio.sleep(0.5)
                return await real_request(method, path, payload, **kwargs)

            coordinator._clients[primary].request = stalled
            assert client.run("//b", doc_ids=["d"]).counts == {"d": 2}  # hedged
            coordinator._clients[primary].request = real_request
            by_name[primary].stop()
            assert client.run("//b", doc_ids=["d"]).counts == {"d": 2}  # failed over
            by_name[secondary].stop()
            assert client.run("//b", doc_ids=["d"]).num_failures == 2  # failed

            page = client.metrics()
            table = {n["name"]: n for n in client.nodes()["nodes"]}
            for name, row in table.items():
                for field, family in (
                    ("requests", "repro_coordinator_node_requests_total"),
                    ("errors", "repro_coordinator_node_errors_total"),
                    ("hedges", "repro_coordinator_hedges_total"),
                    ("hedge_wins", "repro_coordinator_hedge_wins_total"),
                ):
                    assert row[field] == _sample(page, family, node=name), (name, field)
            assert (table[secondary]["hedges"], table[secondary]["hedge_wins"]) == (1, 1)
            assert table[primary]["errors"] == 2 and table[secondary]["errors"] == 1
        finally:
            client.close()
            coordinator.stop()
            for backend in backends:
                backend.stop()


def test_importing_the_coordinator_does_not_load_the_engine():
    probe = (
        "import sys, repro.coordinator.http\n"
        "heavy = ('numpy', 'repro.xpath', 'repro.tree', 'repro.text', 'repro.store', 'repro.service')\n"
        "print([name for name in heavy if name in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestNodeDownAtStartup:
    def test_dead_node_degrades_then_probes_mark_it_down(self, tmp_path):
        alive = _backend(tmp_path, "alive")
        # grab a port that nothing listens on
        import socket

        probe_socket = socket.socket()
        probe_socket.bind(("127.0.0.1", 0))
        dead_port = probe_socket.getsockname()[1]
        probe_socket.close()

        coordinator = CoordinatorServer(
            [f"up=127.0.0.1:{alive.port}", f"dead=127.0.0.1:{dead_port}"],
            probe_interval=0.05,
            fail_after=2,
        )
        coordinator.start()
        client = CoordinatorClient("127.0.0.1", coordinator.port, retries=0)
        try:
            client.put_document("doc-a", "<a><b/></a>")  # lands on whichever ring slot
            result = client.run("//b")
            failure_nodes = {f.doc_id for f in result.failures}
            assert failure_nodes == {"node:dead"}
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if "dead" not in client.healthy_nodes():
                    break
                time.sleep(0.05)
            assert "dead" not in client.healthy_nodes()
            assert client.healthz()["status"] == "degraded"
            # marked-down nodes are skipped, still reported as a degradation
            result = client.run("//b")
            assert {f.doc_id for f in result.failures} == {"node:dead"}
            assert "marked down" in result.failures[0].message
        finally:
            client.close()
            coordinator.stop()
            alive.stop()


class TestAdmissionPassThrough:
    def test_backend_429_envelope_survives_the_hop(self, tmp_path):
        store = DocumentStore(tmp_path / "b", num_shards=4)
        backend = ReproServer(
            QueryService(store), admission=AdmissionController(cost_budget=0.001)
        )
        backend.start()
        coordinator = CoordinatorServer(
            [f"n0=127.0.0.1:{backend.port}"], probe_interval=30.0
        )
        coordinator.start()
        client = CoordinatorClient("127.0.0.1", coordinator.port, retries=0)
        try:
            client.put_document("d", "<a><b/></a>")
            with pytest.raises(ApiError) as excinfo:
                client.run("//b")
            error = excinfo.value
            assert error.status == 429
            assert error.error_type == "over_budget"
            assert error.details["cost_budget"] == 0.001
            assert error.details["node"] == "n0"
        finally:
            client.close()
            coordinator.stop()
            backend.stop()


class TestBackendClient:
    def test_unreachable_node_raises_node_error(self):
        import socket

        probe_socket = socket.socket()
        probe_socket.bind(("127.0.0.1", 0))
        port = probe_socket.getsockname()[1]
        probe_socket.close()
        from repro.coordinator.backend import NodeClient

        client = NodeClient("n", "127.0.0.1", port, timeout=2.0)
        with pytest.raises(NodeError) as excinfo:
            asyncio.run(client.request("GET", "/healthz"))
        assert excinfo.value.node == "n"
        assert excinfo.value.reason == "unreachable"
