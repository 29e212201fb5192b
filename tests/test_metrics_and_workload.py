"""The PR 8 observability layer: registry, strict parser, workload, residency.

Covers the acceptance bar: families render with exactly one HELP/TYPE header
each and survive the strict in-repo parser, counters are exact under thread
concurrency, process-pool engine counters match inline counts, query shapes
fingerprint stably across literal changes, and mincore residency readings sit
in ``0 < resident <= mapped``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Document, DocumentStore, IndexOptions, QueryService
from repro.obs.metrics import MetricsRegistry, parse_prometheus_text
from repro.obs.resources import (
    document_residency,
    mincore_available,
    process_resources,
)
from repro.obs.workload import WorkloadAnalytics, fingerprint, set_workload
from repro.server.protocol import AsyncHttpServer
from repro.workloads import generate_xmark_xml

SMALL_XML = "<site><item><name>gold ring</name></item><item><name>tin can</name></item></site>"


@pytest.fixture()
def workload():
    """A fresh global workload analytics; restores the previous one afterwards."""
    fresh = WorkloadAnalytics()
    previous = set_workload(fresh)
    try:
        yield fresh
    finally:
        set_workload(previous)


# -- registry basics -------------------------------------------------------------------


def test_counter_gauge_histogram_render_and_parse(registry):
    registry.counter("requests_total", "Requests.", labels=("route", "method")).labels(
        route="/v1/documents/{id}", method="GET"
    ).inc(3)
    registry.gauge("inflight", "In flight.").set(2)
    hist = registry.histogram("latency_seconds", "Latency.", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    page = registry.render()
    families = parse_prometheus_text(page)  # must not raise
    assert families["repro_requests_total"]["type"] == "counter"
    # Label names render sorted, and a `}` inside a label value survives.
    assert 'repro_requests_total{method="GET",route="/v1/documents/{id}"} 3' in page.splitlines()
    samples = {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in families["repro_latency_seconds"]["samples"]
    }
    assert samples[("repro_latency_seconds_bucket", (("le", "0.1"),))] == 1
    assert samples[("repro_latency_seconds_bucket", (("le", "1"),))] == 2
    assert samples[("repro_latency_seconds_bucket", (("le", "+Inf"),))] == 3
    assert samples[("repro_latency_seconds_count", ())] == 3


def test_each_family_header_emitted_exactly_once(registry):
    fam = registry.counter("hits_total", "Hits.", labels=("kind",))
    fam.labels(kind="a").inc()
    fam.labels(kind="b").inc()
    lines = registry.render().splitlines()
    assert lines.count("# HELP repro_hits_total Hits.") == 1
    assert lines.count("# TYPE repro_hits_total counter") == 1
    # Every family has both headers (the old renderer skipped # HELP).
    types = [line.split()[2] for line in lines if line.startswith("# TYPE ")]
    helps = [line.split()[2] for line in lines if line.startswith("# HELP ")]
    assert sorted(types) == sorted(helps)


def test_registration_is_idempotent_but_type_mismatch_raises(registry):
    first = registry.counter("x_total", "X.")
    assert registry.counter("x_total", "X again.") is first
    with pytest.raises(ValueError):
        registry.gauge("x_total", "Not a counter.")
    with pytest.raises(ValueError):
        registry.counter("x_total", "Wrong labels.", labels=("a",))


def test_counter_rejects_negative_and_le_label(registry):
    with pytest.raises(ValueError):
        registry.counter("y_total", "Y.").inc(-1)
    with pytest.raises(ValueError):
        registry.histogram("z_seconds", "Z.", labels=("le",))


def test_callback_family_skips_none_and_rebinds(registry):
    holder = {"value": None}
    registry.gauge_callback("resident_bytes", "Resident.", lambda: holder["value"])
    samples = [line for line in registry.render().splitlines() if not line.startswith("#")]
    assert not any(line.startswith("repro_resident_bytes") for line in samples)
    holder["value"] = 42.0
    assert "repro_resident_bytes 42" in registry.render()
    # Newest provider wins.
    registry.gauge_callback("resident_bytes", "Resident.", lambda: 7.0)
    assert "repro_resident_bytes 7" in registry.render()


def test_disabled_registry_noops(registry):
    fam = registry.counter("w_total", "W.")
    registry.disable()
    fam.inc(5)
    registry.histogram("w_seconds", "W.").observe(1.0)
    registry.enable()
    assert fam.value == 0
    fam.inc(2)
    assert fam.value == 2


def test_concurrent_increments_and_merges_are_exact(registry):
    """Direct increments race with merged worker deltas on one family (what a
    serving process does while process-pool sweeps come home)."""
    fam = registry.counter("threads_total", "T.")
    child = fam.labels()
    delta = {"threads_total": ("T.", (), {(): 1})}

    def work(merging: bool):
        for _ in range(1000):
            registry.merge(delta) if merging else child.inc()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i % 2 == 0,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert fam.value == 8000


# -- strict parser rejections ----------------------------------------------------------


@pytest.mark.parametrize(
    "page",
    [
        # Duplicate # TYPE.
        "# TYPE repro_a counter\n# TYPE repro_a counter\nrepro_a 1\n",
        # Header after samples (the old renderer's re-emitted # TYPE).
        "# TYPE repro_a counter\nrepro_a 1\n# TYPE repro_a counter\nrepro_a 2\n",
        # Sample without a declared family.
        "repro_b 1\n",
        # HELP but never a TYPE.
        "# HELP repro_c C.\n",
        # Unsorted label names.
        '# TYPE repro_d counter\nrepro_d{b="1",a="2"} 1\n',
        # Duplicate label names.
        '# TYPE repro_d counter\nrepro_d{a="1",a="2"} 1\n',
        # NaN value.
        "# TYPE repro_e gauge\nrepro_e NaN\n",
        # Non-numeric value.
        "# TYPE repro_f gauge\nrepro_f oops\n",
        # Non-cumulative histogram buckets.
        "# TYPE repro_g histogram\n"
        'repro_g_bucket{le="0.1"} 5\nrepro_g_bucket{le="1"} 3\n'
        'repro_g_bucket{le="+Inf"} 5\nrepro_g_sum 1\nrepro_g_count 5\n',
        # Missing +Inf bucket.
        '# TYPE repro_h histogram\nrepro_h_bucket{le="0.1"} 1\nrepro_h_sum 1\nrepro_h_count 1\n',
        # +Inf bucket disagrees with _count.
        "# TYPE repro_i histogram\n"
        'repro_i_bucket{le="+Inf"} 3\nrepro_i_sum 1\nrepro_i_count 4\n',
        # Unterminated label set.
        '# TYPE repro_j counter\nrepro_j{a="1" 1\n',
    ],
)
def test_parser_rejects_malformed_pages(page):
    with pytest.raises(ValueError):
        parse_prometheus_text(page)


def test_parser_handles_escapes_and_braces_in_label_values():
    page = (
        "# TYPE repro_k counter\n"
        'repro_k{note="a\\"b\\\\c\\nd",route="/v1/documents/{id}"} 1\n'
    )
    families = parse_prometheus_text(page)
    ((_, labels, value),) = families["repro_k"]["samples"]
    assert labels["route"] == "/v1/documents/{id}"
    assert labels["note"] == 'a"b\\c\nd'
    assert value == 1


# -- the server's families ------------------------------------------------------------


def test_server_families_are_registered_at_construction_and_strictly_parseable(registry):
    server = AsyncHttpServer()  # never started: no socket
    server._m_http_requests.labels(route="/v1/query", method="POST", status="200").inc()
    server._m_http_rejected.labels(reason="oversized").inc()
    server._m_http_seconds.labels(route="/v1/query").observe(0.012)
    assert server.registry is registry
    families = parse_prometheus_text(registry.render())
    assert families["repro_http_requests_total"]["type"] == "counter"
    assert families["repro_http_request_seconds"]["type"] == "histogram"
    # Live values are callbacks bound once, not values pushed at scrape time.
    assert registry.get("inflight_requests").callback is not None
    assert families["repro_inflight_requests"]["samples"] == [("repro_inflight_requests", {}, 0.0)]
    # Engine counter and process resource families ride along from the first page.
    assert families["repro_engine_queries_total"]["samples"] == [("repro_engine_queries_total", {}, 0.0)]
    assert "repro_process_max_rss_bytes" in families


# -- counters across processes ---------------------------------------------------------


def test_counter_delta_and_merge_round_trip():
    worker, parent = MetricsRegistry(), MetricsRegistry()
    worker.counter("engine_queries_total", "Queries.").inc(2)
    before = worker.counter_values()
    worker.counter("engine_queries_total", "Queries.").inc(3)
    worker.counter("crc_total", "Checks, by mode.", labels=("mode",)).labels(mode="lazy").inc(7)
    worker.counter("untouched_total", "Never moved.").inc(0)
    worker.gauge("resident", "A gauge is not shipped.").set(5)
    worker.counter_callback("live_total", "A callback is not shipped.", lambda: 9)
    delta = worker.counter_delta(before)
    assert delta == {
        "engine_queries_total": ("Queries.", (), {(): 3}),
        "crc_total": ("Checks, by mode.", ("mode",), {("lazy",): 7}),
    }
    parent.counter("engine_queries_total", "Queries.").inc(10)
    parent.merge(delta)  # registers what the parent never touched itself
    parent.merge(delta)
    assert parent.get("engine_queries_total").value == 16
    assert parent.get("crc_total").labels(mode="lazy").value == 14
    assert parent.get("resident") is None and parent.get("live_total") is None


def test_process_executor_counters_match_inline(tmp_path, registry):
    store = DocumentStore(tmp_path / "corpus", num_shards=4, cache_size=4)
    for i in range(4):
        store.add_xml(f"doc-{i}", generate_xmark_xml(scale=0.005, seed=i), IndexOptions(sample_rate=16))
    queries = ["//item", "//item/name"]

    before = registry.counter_values()
    inline = QueryService(store, max_workers=1)
    inline_results = inline.run_many(queries)
    inline.close()
    inline_counts = {name: moved[()] for name, (_, _, moved) in registry.counter_delta(before).items()}

    before = registry.counter_values()
    with QueryService(store, max_workers=2, executor="process") as service:
        process_results = service.run_many(queries)
    process_counts = {name: moved[()] for name, (_, _, moved) in registry.counter_delta(before).items()}

    assert [r.counts for r in process_results] == [r.counts for r in inline_results]
    # The shipped worker deltas make the parent totals match the inline sweep.
    for field in ("engine_queries_total", "engine_visited_nodes_total", "engine_result_nodes_total"):
        assert process_counts[field] == inline_counts[field], field
    assert process_counts["engine_queries_total"] == len(queries) * 4


def test_worker_side_store_and_storage_counters_reach_the_parent(tmp_path, registry):
    """The same 2-shard sweep through a thread and a process service on a cold
    store moves the store-cache and storage-codec counters on the *parent's*
    page by the same amount (only engine/planner deltas were shipped before)."""
    root = tmp_path / "corpus"
    store = DocumentStore(root, num_shards=2, cache_size=4)
    for i in range(4):
        store.add_xml(f"doc-{i}", SMALL_XML)
    store.close()
    moved = {}
    for executor in ("thread", "process"):
        before = parse_prometheus_text(registry.render())
        cold = DocumentStore(root, cache_size=4, verify="eager")
        with QueryService(cold, max_workers=2, executor=executor) as service:
            assert service.run("//item").total == 8
        after = parse_prometheus_text(registry.render())

        def value(page, family):
            return sum(v for _, _, v in page.get(family, {"samples": []})["samples"])

        moved[executor] = {
            family: value(after, family) - value(before, family)
            for family in (
                "repro_store_cache_misses_total",
                "repro_storage_mapped_loads_total",
                "repro_storage_mapped_bytes_total",
                "repro_storage_crc_verifications_total",
            )
        }
    assert moved["thread"]["repro_store_cache_misses_total"] == 4
    assert moved["thread"]["repro_storage_mapped_loads_total"] == 4
    assert moved["thread"]["repro_storage_crc_verifications_total"] > 0  # a labelled family travels too
    assert moved["process"] == moved["thread"]


# -- workload analytics ----------------------------------------------------------------


def test_fingerprint_stable_across_literals():
    assert fingerprint('//item[contains(., "gold")]') == fingerprint('//item[contains(., "silver")]')
    assert fingerprint("//a[position() = 3]") == fingerprint("//a[position() = 7]")
    assert fingerprint("//a  [ @id ]") == fingerprint("//a [ @id ]")
    assert fingerprint("//item/name") != fingerprint("//item/price")
    # Literal contents are bucketed, not leaked.
    assert "gold" not in fingerprint('//item[contains(., "gold")]')
    assert "$str" in fingerprint('//item[contains(., "gold")]')


def test_workload_record_and_snapshot(workload):
    workload.record('//a[text()="x"]', 0.002, result_count=5, visited=40, strategies={"top-down": 2})
    workload.record('//a[text()="y"]', 0.004, result_count=1, visited=10, strategies={"top-down": 2})
    workload.record("//b", 0.5, result_count=0, visited=900, failures=1, request_id="req-1")
    workload.record_sweep(0.01, 0.004, 0.005)
    snap = workload.snapshot()
    assert snap["total_queries"] == 3
    assert snap["total_failures"] == 1
    assert snap["num_shapes"] == 2
    assert snap["sweeps"]["count"] == 1
    shapes = {shape["shape"]: shape for shape in snap["shapes"]}
    merged = shapes[fingerprint('//a[text()="x"]')]
    assert merged["queries"] == 2
    assert merged["results"]["total"] == 6
    assert merged["visited"]["max"] == 40
    assert merged["strategies"] == {"top-down": 4}
    assert merged["latency"]["count"] == 2
    # Slowest query first, with its request id.
    assert snap["slow_queries"][0]["query"] == "//b"
    assert snap["slow_queries"][0]["request_id"] == "req-1"


def test_workload_slow_table_is_bounded():
    analytics = WorkloadAnalytics(slow_query_capacity=2)
    analytics.record("//a", 0.3)
    analytics.record("//b", 0.1)
    analytics.record("//c", 0.2)
    slow = analytics.snapshot()["slow_queries"]
    assert [entry["query"] for entry in slow] == ["//a", "//c"]  # //b (fastest) evicted


def test_workload_shape_cap_folds_into_other():
    analytics = WorkloadAnalytics(max_shapes=2)
    analytics.record("//a", 0.001)
    analytics.record("//b", 0.001)
    analytics.record("//c", 0.001)
    analytics.record("//d", 0.001)
    snap = analytics.snapshot()
    shapes = {shape["shape"] for shape in snap["shapes"]}
    assert "(other)" in shapes
    assert snap["total_queries"] == 4


def test_workload_disabled_records_nothing(workload):
    workload.disable()
    workload.record("//a", 0.001)
    workload.record_sweep(0.1, 0.0, 0.1)
    assert workload.snapshot()["total_queries"] == 0
    workload.enable()


def test_workload_estimated_cost_hook(workload):
    workload.record("//a", 0.001, estimated_cost=12.5)
    workload.record("//a", 0.002, estimated_cost=7.5)
    (shape,) = workload.snapshot()["shapes"]
    assert shape["estimated_cost"] == {
        "queries": 2,
        "total": 20.0,
        "avg": 10.0,
        "actual_visited_avg": 0.0,
        "estimated_vs_actual": None,
    }


def test_workload_estimated_vs_actual_ratio(workload):
    workload.record("//a", 0.001, visited=10, estimated_cost=12.5)
    workload.record("//a", 0.002, visited=10, estimated_cost=7.5)
    # A record without an estimate must not dilute the ratio's denominator.
    workload.record("//a", 0.003, visited=1000)
    (shape,) = workload.snapshot()["shapes"]
    assert shape["estimated_cost"]["queries"] == 2
    assert shape["estimated_cost"]["actual_visited_avg"] == 10.0
    assert shape["estimated_cost"]["estimated_vs_actual"] == 1.0


def test_service_records_workload_per_shape(tmp_path, registry, workload):
    store = DocumentStore(tmp_path / "wl", num_shards=2, cache_size=2)
    store.add_xml("d1", SMALL_XML)
    store.add_xml("d2", SMALL_XML)
    service = QueryService(store, max_workers=1)
    service.run_many(
        ['//item[contains(., "gold")]', '//item[contains(., "tin")]', "//item/name"],
        request_id="req-42",
    )
    service.close()
    snap = workload.snapshot()
    assert snap["total_queries"] == 3
    shapes = {shape["shape"]: shape for shape in snap["shapes"]}
    contains_shape = fingerprint('//item[contains(., "gold")]')
    assert shapes[contains_shape]["queries"] == 2
    assert shapes[contains_shape]["last_request_id"] == "req-42"
    assert shapes[contains_shape]["latency"]["count"] == 2
    assert snap["sweeps"]["count"] == 1
    assert snap["sweeps"]["eval_seconds"] > 0
    # The service families folded into the registry as well.
    assert registry.get("service_sweep_seconds") is not None
    page = registry.render()
    parse_prometheus_text(page)
    assert "repro_service_eval_seconds_total" in page


# -- store and storage counters --------------------------------------------------------


def test_store_counters_and_remap_on_revalidate(tmp_path, registry):
    import os

    store = DocumentStore(tmp_path / "store", num_shards=2, cache_size=1)
    path1 = store.add_xml("a", SMALL_XML)
    store.add_xml("b", SMALL_XML)  # evicts "a" (capacity 1)
    assert store.evictions >= 1
    store.get("b")
    assert store.hits >= 1
    store.get("a")  # miss: reload from disk
    assert store.misses >= 1
    os.utime(path1)  # stat revalidation now sees a different mtime
    store.get("a")
    assert store.remaps == 1
    assert store.cache_info()["remaps"] == 1
    for name in (
        "store_cache_hits_total",
        "store_cache_misses_total",
        "store_cache_evictions_total",
        "store_cache_remaps_total",
    ):
        assert registry.get(name) is not None, name
    assert registry.get("store_cache_remaps_total").value == 1


def test_storage_counters_fold_on_load(tmp_path, registry):
    doc = Document.from_string(SMALL_XML)
    path = tmp_path / "doc.sxsi"
    doc.save(path)

    eager = Document.load(path, mapped=True, verify="eager")
    assert registry.get("storage_mapped_loads_total").value == 1
    assert registry.get("storage_mapped_bytes_total").value == path.stat().st_size
    eager_checked = registry.get("storage_crc_verifications_total").labels(mode="eager").value
    assert eager_checked > 0
    eager.close()

    lazy = Document.load(path, mapped=True, verify="lazy")
    checked = lazy.verify_integrity()
    assert checked > 0
    assert registry.get("storage_crc_verifications_total").labels(mode="lazy").value == checked
    lazy.close()
    doc.close()


# -- residency and process resources ---------------------------------------------------


def test_process_resources_shape():
    resources = process_resources()
    assert set(resources) == {
        "rss_bytes",
        "max_rss_bytes",
        "minor_page_faults",
        "major_page_faults",
        "open_fds",
        "page_size",
    }
    assert resources["page_size"] > 0
    if resources["rss_bytes"] is not None:
        assert resources["rss_bytes"] > 0


@pytest.mark.skipif(not mincore_available(), reason="mincore is not available on this platform")
def test_mincore_residency_sanity(tmp_path):
    doc = Document.from_string(generate_xmark_xml(scale=0.01, seed=7))
    path = tmp_path / "resident.sxsi"
    doc.save(path)
    doc.close()
    loaded = Document.load(path, mapped=True)
    assert loaded.count("//item") > 0  # touch mapped pages
    residency = document_residency(loaded)
    assert residency is not None
    assert 0 < residency["resident_bytes"] <= residency["mapped_bytes"]
    assert residency["resident_pages"] <= residency["total_pages"]
    assert 0 < residency["resident_ratio"] <= 1.0
    assert residency["mapped_bytes"] == path.stat().st_size
    stats = loaded.stats()
    assert stats["storage"]["residency"]["resident_bytes"] > 0
    loaded.close()


@pytest.mark.skipif(not mincore_available(), reason="mincore is not available on this platform")
def test_store_mapped_residency_aggregates(tmp_path, registry):
    from repro.store.document_store import register_store_metrics

    builder = DocumentStore(tmp_path / "res", num_shards=2, cache_size=4)
    for doc_id in ("r1", "r2"):
        builder.add_xml(doc_id, generate_xmark_xml(scale=0.005, seed=3))
    builder.close()
    # add() leaves the just-built heap documents resident; a fresh store must
    # load from disk, which maps the v2 files.
    store = DocumentStore(tmp_path / "res", num_shards=2, cache_size=4, mapped=True)
    store.get("r1").count("//item")
    store.get("r2").count("//item")
    aggregate = store.mapped_residency()
    assert aggregate["available"] is True
    assert aggregate["documents"] == 2
    assert 0 < aggregate["resident_bytes"] <= aggregate["mapped_bytes"]
    assert set(aggregate["per_document"]) == {"r1", "r2"}
    register_store_metrics(store, registry)
    page = registry.render()
    parse_prometheus_text(page)
    assert "repro_store_mapped_resident_bytes" in page
    assert "repro_store_mapped_documents 2" in page


def test_heap_document_has_no_residency(tmp_path):
    doc = Document.from_string(SMALL_XML)
    path = tmp_path / "heap.sxsi"
    doc.save(path)
    loaded = Document.load(path, mapped=False)
    assert document_residency(loaded) is None
    assert "residency" not in loaded.stats()["storage"]
    loaded.close()
