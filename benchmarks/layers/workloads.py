"""The seven workloads of the layer ledger.

Every workload is a closed loop: its callers wait for each reply before
sending the next request, and there are never more than two of them.  A run
repeats whole passes over a fixed, seed-shuffled operation list until the
requested time is up, so every pass has the same mix whatever the speed.

The program under test only ever sees generated XML and query strings; the
seed drives the generators and the operation order and nothing else.
"""

from __future__ import annotations

import random
import resource
import shutil
import threading
import time
from pathlib import Path

from fleet import HOST, Fleet

from repro import Document, DocumentStore, QueryService
from repro.baseline import DomEngine
from repro.client import CoordinatorClient, ReproClient
from repro.core.errors import ReproError
from repro.workloads import MEDLINE_QUERIES, XMARK_QUERIES, generate_medline_xml, generate_xmark_xml
from repro.xmlmodel.model import build_model

XMARK_TREE_QUERIES = [XMARK_QUERIES[f"X{n:02d}"] for n in range(1, 18)]

#: Queries the planner answers bottom-up from FM-index matches.  The paper's
#: top-down M01/M03/M04/M10/M11 are left out on purpose: they are >=80 % tree
#: navigation and would turn ``medline_text`` into a second ``xmark_tree``.
MEDLINE_TEXT_QUERIES = [
    '//AbstractText[contains(.,"blood")]',
    '//AbstractText[contains(.,"human")]',
    '//AbstractText[contains(.,"brain")]',
    '//ArticleTitle[contains(.,"molecule")]',
    '//AbstractText[ends-with(.,"s.")]',
    '//LastName[starts-with(.,"Ba")]',
    '//Country[.="AUSTRALIA"]',
    '//Article[.//AbstractText[contains(.,"morphine")]]',
    MEDLINE_QUERIES["M02"],
    MEDLINE_QUERIES["M06"],
    MEDLINE_QUERIES["M08"],
    MEDLINE_QUERIES["M09"],
]

STORE_QUERIES = [XMARK_QUERIES["X02"], XMARK_QUERIES["X08"], "//item/name"]
#: Cheap queries (engine <= 1.5 ms on a 17 KB document) so that protocol,
#: JSON and thread-bridge overhead is over half of a point read.
POINT_QUERIES = [XMARK_QUERIES[name] for name in ("X01", "X02", "X08", "X13")]
WRITE_CHECK_QUERY = "//item"

def _closest(generate, nominal_bytes: int, rng: random.Random, candidates: int) -> str:
    """Of ``candidates`` generated documents, the one closest to the nominal size.

    Generated documents vary in size from seed to seed (one large document by
    about 4 %, a 17 KB one by 13 to 23 KB), and the size metrics are gated
    tighter than a small corpus averages that out.
    """
    drawn = [generate(rng.randrange(2**31)) for _ in range(candidates)]
    return min(drawn, key=lambda xml: abs(len(xml) - nominal_bytes))


def _small_xmark(rng: random.Random) -> str:
    """A ~17 KB XMark document, the unit of the HTTP corpora."""
    return _closest(lambda seed: generate_xmark_xml(0.015, seed=seed), 16_800, rng, candidates=5)


class Oracle:
    """Expected counts from the pointer-DOM baseline, one DOM per distinct document."""

    def __init__(self) -> None:
        self._doms: dict[str, DomEngine] = {}
        self._counts: dict[tuple[str, str], int] = {}

    def add(self, key: str, xml: str) -> None:
        self._doms[key] = DomEngine(build_model(xml))

    def num_nodes(self, keys) -> int:
        return sum(self._doms[key].num_nodes for key in keys)

    def count(self, key: str, query: str) -> int:
        cached = self._counts.get((key, query))
        if cached is None:
            cached = self._counts[(key, query)] = self._doms[key].count(query)
        return cached


class Run:
    """Latencies and answers of one timed section."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.answers: list[tuple[object, object]] = []  # (operation, observed or the exception)
        self.wall_s = 0.0
        self.window = (0, 0)  # on the trace clock
        self.extra_ms: dict[str, list[float]] = {}  # secondary latency series, ungated


def closed_loop(operations, call, seconds: float, run: Run) -> float:
    """Whole passes over ``operations`` until ``seconds`` are up; returns the wall time."""
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        for operation in operations:
            begun = time.perf_counter()
            try:
                observed = call(operation)
            except (ReproError, OSError) as exc:
                observed = exc
            run.latencies_ms.append((time.perf_counter() - begun) * 1e3)
            run.answers.append((operation, observed))
        if time.perf_counter() >= deadline:
            return time.perf_counter() - started


class Workload:
    """Base: inputs from the seed, repeatable set-up, one timed run, the facts to check it."""

    name = ""
    why = ""
    #: Layer whose parentless spans stand for the operations in a trace.
    root_layer = ""

    def __init__(self, seed: int, workdir: Path, traced: bool):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.traced = traced
        self.documents: dict[str, str] = {}  # doc id -> XML
        self.operations: list = []
        self._setups = 0

    # -- inputs ---------------------------------------------------------------------------

    def generate(self) -> None:
        raise NotImplementedError

    def sample_document(self) -> tuple[str, list[str]]:
        """One document and the workload's queries, for the direct primitive timings."""
        raise NotImplementedError

    def fresh_dir(self, label: str) -> Path:
        self._setups += 1
        path = self.workdir / f"{label}-{self._setups}"
        path.mkdir(parents=True)
        return path

    # -- lifecycle ------------------------------------------------------------------------

    def setup(self) -> None:
        """Everything up to and including the warm pass; timed as ``setup_s``."""
        raise NotImplementedError

    def teardown(self) -> list[Path]:
        """Undo :meth:`setup`; returns the trace files the servers wrote."""
        return []

    def run(self, seconds: float, mark) -> Run:
        run = Run()
        begin = mark()
        run.wall_s = closed_loop(self.operations, self.call, seconds, run)
        run.window = (begin, mark())
        return run

    def call(self, operation):
        raise NotImplementedError

    # -- facts read after the run ---------------------------------------------------------------

    def expected(self, oracle: Oracle, operation):
        raise NotImplementedError

    def oracle(self) -> Oracle:
        oracle = Oracle()
        for doc_id, xml in self.documents.items():
            oracle.add(doc_id, xml)
        return oracle

    def peak_rss_mb(self) -> float:
        """High-water RSS of the process(es) holding the index: by default this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def index_bytes(self) -> int:
        """Bytes the system holds for the corpus (index in memory, or files on disk)."""
        raise NotImplementedError

    def source_bytes(self) -> int:
        return sum(len(xml.encode("utf-8")) for xml in self.documents.values())

    def cache_counters(self) -> dict[str, int]:
        """Cumulative store and plan-cache counters (all zero where there is no store)."""
        return {"hits": 0, "misses": 0, "evictions": 0, "plan_hits": 0, "plan_misses": 0}

    def strategies(self) -> list[str]:
        """The distinct evaluation strategies of the plans, where the workload pins them."""
        return []


def _store_counters(store_cache: dict, plan_cache: dict) -> dict[str, int]:
    return {
        "hits": store_cache["hits"],
        "misses": store_cache["misses"],
        "evictions": store_cache["evictions"],
        "plan_hits": plan_cache["hits"],
        "plan_misses": plan_cache["misses"],
    }


# -- resident engine ----------------------------------------------------------------------


class _ResidentDocument(Workload):
    """One resident ``Document``; ``Document.count`` on prepared queries; one caller."""

    root_layer = "xpath"
    queries: list[str] = []

    def generate_xml(self) -> str:
        raise NotImplementedError

    def generate(self) -> None:
        self.documents = {"doc": self.generate_xml()}
        self.operations = list(self.queries)
        self.rng.shuffle(self.operations)

    def sample_document(self):
        return self.documents["doc"], self.queries

    def setup(self) -> None:
        self.document = Document.from_string(self.documents["doc"])
        self.prepared = {query: self.document.prepare(query) for query in self.queries}
        for query in self.operations:
            self.call(query)

    def teardown(self):
        self.document = None
        self.prepared = {}
        return []

    def call(self, query):
        return self.document.count(self.prepared[query])

    def expected(self, oracle, query):
        return oracle.count("doc", query)

    def index_bytes(self) -> int:
        return self.document.stats()["total_bytes"]


class XmarkTree(_ResidentDocument):
    name = "xmark_tree"
    why = (
        "XPathMark X01-X17 on one resident XMark document: no text predicates, so only tree navigation, "
        "bit vectors and the evaluator run, and text-index work must not appear (paper Fig. 10)."
    )
    queries = XMARK_TREE_QUERIES

    def generate_xml(self) -> str:
        return _closest(lambda seed: generate_xmark_xml(1.0, seed=seed), 136_000, self.rng, candidates=9)


class MedlineText(_ResidentDocument):
    name = "medline_text"
    why = (
        "Twelve text queries the planner runs bottom-up from FM-index matches on one resident Medline "
        "document: locate through text, wavelet tree and bit vectors takes most of the time (paper Fig. 15)."
    )
    queries = MEDLINE_TEXT_QUERIES

    def generate_xml(self) -> str:
        return _closest(lambda seed: generate_medline_xml(300, seed=seed), 528_000, self.rng, candidates=9)

    def strategies(self) -> list[str]:
        plans = (self.document.evaluate(self.prepared[q], want_nodes=False).plan for q in self.queries)
        return sorted({plan.strategy for plan in plans})


# -- store larger than its cache ----------------------------------------------------------------


class StoreCold(Workload):
    name = "store_cold"
    why = (
        "24 stored documents behind a 4-entry LRU, read round-robin through QueryService so every "
        "operation is a cache miss: file open, map, lazy directory rebuild and first queries."
    )
    root_layer = "service"
    num_documents = 24
    cache_size = 4

    def generate(self) -> None:
        self.documents = {
            f"d-{index:02d}": generate_xmark_xml(0.25, seed=self.rng.randrange(2**31))
            for index in range(self.num_documents)
        }
        self.operations = list(self.documents)
        self.rng.shuffle(self.operations)

    def sample_document(self):
        return self.documents["d-00"], STORE_QUERIES

    def setup(self) -> None:
        self.root = self.fresh_dir("store")
        self.store = DocumentStore(self.root, num_shards=4, cache_size=self.cache_size, mapped=True)
        for doc_id, xml in self.documents.items():
            self.store.add_xml(doc_id, xml)
        self.store.close()  # drop the residents the ingest left behind
        self.service = QueryService(self.store, max_workers=1)
        for doc_id in self.operations:
            self.call(doc_id)

    def teardown(self):
        self.service.close()
        self.store.close()
        shutil.rmtree(self.root)
        return []

    def call(self, doc_id):
        results = self.service.run_many(STORE_QUERIES, doc_ids=[doc_id])
        failures = [failure for result in results for failure in result.failures]
        if failures:
            raise ReproError(f"{doc_id}: {failures}")
        return tuple(result.counts.get(doc_id) for result in results)

    def expected(self, oracle, doc_id):
        return tuple(oracle.count(doc_id, query) for query in STORE_QUERIES)

    def index_bytes(self) -> int:
        return self.store.stats()["disk_bytes"]

    def cache_counters(self):
        info = self.service.cache_info()
        return _store_counters(info["store_cache"], info["plan_cache"])


# -- HTTP node ------------------------------------------------------------------------------------


class _HttpCorpus(Workload):
    """16 small XMark documents behind HTTP; point reads ``run(query, doc_ids=[d])``."""

    root_layer = "client"
    num_documents = 16
    client_class = ReproClient

    def generate(self) -> None:
        self.documents = {f"d-{index:02d}": _small_xmark(self.rng) for index in range(self.num_documents)}
        self.operations = [(doc_id, query) for doc_id in self.documents for query in POINT_QUERIES]
        self.rng.shuffle(self.operations)

    def sample_document(self):
        return self.documents["d-00"], POINT_QUERIES

    def start_fleet(self) -> int:
        """Start the processes; returns the port clients talk to."""
        self.node_ports = [self.fleet.start_node("node", cache_size=32, workers=2)]
        return self.node_ports[0]

    def setup(self) -> None:
        self.fleet = Fleet(self.fresh_dir("fleet"), self.traced)
        try:
            self.port = self.start_fleet()
            self.fleet.wait_healthy()
            self.client = self.new_client()
            for doc_id, xml in self.documents.items():
                self.client.put_document(doc_id, xml)
            for operation in self.operations:
                self.call(operation)
        except BaseException:
            self.fleet.close()
            raise

    def new_client(self) -> ReproClient:
        return self.client_class(HOST, self.port, retries=0, timeout=60.0)

    def teardown(self):
        self.client.close()
        return self.fleet.close()

    def call(self, operation):
        doc_id, query = operation
        result = self.client.run(query, doc_ids=[doc_id])
        if result.failures:
            raise ReproError(f"{doc_id}: {result.failures}")
        return result.counts.get(doc_id)

    def expected(self, oracle, operation):
        doc_id, query = operation
        return oracle.count(doc_id, query)

    def peak_rss_mb(self) -> float:
        return self.fleet.peak_rss_mb()

    def node_stats(self) -> list[dict]:
        stats = []
        for port in self.node_ports:
            with ReproClient(HOST, port, retries=0, timeout=60.0) as client:
                stats.append(client.stats())
        return stats

    def index_bytes(self) -> int:
        return sum(stats["store"]["disk_bytes"] for stats in self.node_stats())

    def cache_counters(self):
        total = dict.fromkeys(("hits", "misses", "evictions", "plan_hits", "plan_misses"), 0)
        for stats in self.node_stats():
            service = stats["service"]
            for key, value in _store_counters(service["store_cache"], service["plan_cache"]).items():
                total[key] += value
        return total


class NodeHttpPoint(_HttpCorpus):
    name = "node_http_point"
    why = (
        "One keep-alive client, one node, corpus inside the cache, cheap queries: the workload where "
        "client, server and service overhead is the largest share of an operation."
    )


class NodeHttpRw(_HttpCorpus):
    name = "node_http_rw"
    why = (
        "The node_http_point reads while a second client ingests, queries and deletes fresh "
        "documents: what index construction and save on the request path do to read latency."
    )
    #: Distinct documents the writer cycles through under ever-new ids.
    write_pool = 8
    #: Which client's operations the end-to-end metrics describe.
    view = "read"

    def generate(self) -> None:
        super().generate()
        self.write_documents = {f"w{index}": _small_xmark(self.rng) for index in range(self.write_pool)}

    def oracle(self) -> Oracle:
        oracle = super().oracle()
        for key, xml in self.write_documents.items():
            oracle.add(key, xml)
        return oracle

    def run(self, seconds: float, mark) -> Run:
        reads, writes = Run(), Run()
        cycle_ms: list[float] = []
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            # Ids are never reused and never collide with the read corpus, so
            # no mapped resident document is ever overwritten.
            cycle = 0
            try:
                with self.new_client() as client:
                    while not stop.is_set():
                        key = f"w{cycle % self.write_pool}"
                        doc_id = f"w-{cycle}"
                        cycle += 1
                        begun = time.perf_counter()
                        try:
                            client.put_document(doc_id, self.write_documents[key])
                            put_ms = (time.perf_counter() - begun) * 1e3
                            result = client.run(WRITE_CHECK_QUERY, doc_ids=[doc_id])
                            observed = result.counts.get(doc_id)
                            client.delete_document(doc_id)
                        except (ReproError, OSError) as exc:
                            put_ms = (time.perf_counter() - begun) * 1e3
                            observed = exc
                        writes.latencies_ms.append(put_ms)
                        writes.answers.append((key, observed))
                        cycle_ms.append((time.perf_counter() - begun) * 1e3)
            except BaseException as exc:  # surfaced by the caller after join
                errors.append(exc)

        thread = threading.Thread(target=writer, name="writer")
        begin = mark()
        started = time.perf_counter()
        thread.start()
        try:
            reads.wall_s = closed_loop(self.operations, self.call, seconds, reads)
        finally:
            stop.set()
            thread.join(timeout=120)
        writes.wall_s = time.perf_counter() - started
        if thread.is_alive():
            raise RuntimeError("the writer client did not stop")
        if errors:
            raise errors[0]
        reads.window = writes.window = (begin, mark())
        reads.extra_ms = {"write_put": writes.latencies_ms, "write_cycle": cycle_ms}
        writes.extra_ms = {"read": reads.latencies_ms, "write_cycle": cycle_ms}
        # Either view checks the answers of both clients.
        reads.answers, writes.answers = reads.answers + writes.answers, writes.answers + reads.answers
        return reads if self.view == "read" else writes

    def expected(self, oracle, operation):
        if isinstance(operation, str):  # a writer cycle, keyed by its pool document
            return oracle.count(operation, WRITE_CHECK_QUERY)
        return super().expected(oracle, operation)


class NodeHttpRwWrite(NodeHttpRw):
    name = "node_http_rw_write"
    why = (
        "The node_http_rw scenario seen by its writer: an operation is one PUT of a fresh 17 KB "
        "document (parse, index build, save) beside the reads; fsync or rename in save shows here."
    )
    view = "write"


# -- cluster ------------------------------------------------------------------------------------------


class ClusterPoint(_HttpCorpus):
    name = "cluster_point"
    why = (
        "The point reads through a coordinator over two nodes, every 32nd a batch over all documents: "
        "the extra hop with its connection per call, fan-out and merge show here only."
    )
    client_class = CoordinatorClient
    batch_every = 32

    def generate(self) -> None:
        super().generate()
        self.operations = [
            None if index % self.batch_every == self.batch_every - 1 else operation
            for index, operation in enumerate(self.operations)
        ]

    def start_fleet(self) -> int:
        self.node_ports = [self.fleet.start_node(name, cache_size=32, workers=2) for name in ("n0", "n1")]
        return self.fleet.start_coordinator(self.node_ports)

    def run(self, seconds: float, mark) -> Run:
        run = super().run(seconds, mark)
        # Point reads are the operations whose latency is reported; batches ride beside them.
        timed = list(zip(run.latencies_ms, run.answers))
        run.latencies_ms = [ms for ms, (operation, _observed) in timed if operation is not None]
        run.extra_ms = {"batch": [ms for ms, (operation, _observed) in timed if operation is None]}
        return run

    def call(self, operation):
        if operation is not None:
            return super().call(operation)
        results = self.client.run_many(POINT_QUERIES)
        return tuple((result.total, len(result.counts), len(result.failures)) for result in results)

    def expected(self, oracle, operation):
        if operation is not None:
            return super().expected(oracle, operation)
        return tuple(
            (sum(oracle.count(doc_id, query) for doc_id in self.documents), len(self.documents), 0)
            for query in POINT_QUERIES
        )


WORKLOADS = {
    cls.name: cls
    for cls in (XmarkTree, MedlineText, StoreCold, NodeHttpPoint, NodeHttpRw, NodeHttpRwWrite, ClusterPoint)
}
