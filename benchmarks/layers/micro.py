"""Direct timings of each layer's public functions on one workload document.

Run before the span wrappers are installed, so the numbers are the cost of the
program's own calls.  Only public names are used: a refactor that keeps the
public surface keeps this file working.  A scalar timing is the mean over
seeded random arguments of one call, Python loop overhead included.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import numpy as np

from repro import Document, DocumentStore
from repro.bits.bitvector import BitVector
from repro.sequence.wavelet_tree import WaveletTree
from repro.text.bwt import bwt_of_collection
from repro.workloads import FM_PATTERNS
from repro.xpath.engine import XPathEngine
from repro.xpath.plan import prepare_query

SCALAR_SAMPLES = 20_000
#: Calls that walk the structure (excess search, tagged jumps) get fewer samples.
WALK_SAMPLES = 4_000
BATCH = 4_096
#: ``contains`` on these locates every occurrence; the extremely frequent
#: probes ("a", " ") are counted but not located, to bound the run time.
LOCATE_PATTERNS = [pattern for pattern in FM_PATTERNS if len(pattern) >= 4]


def _per_call_ns(function, arguments) -> float:
    started = time.perf_counter_ns()
    for argument in arguments:
        function(argument)
    return (time.perf_counter_ns() - started) / len(arguments)


def _per_element_ns(function, array: np.ndarray) -> float:
    function(array)  # the first batch call may build a lazy directory
    started = time.perf_counter_ns()
    function(array)
    return (time.perf_counter_ns() - started) / array.size


def _ms(function) -> float:
    started = time.perf_counter()
    function()
    return (time.perf_counter() - started) * 1e3


def measure(xml: str, queries: list[str], workdir: Path, seed: int) -> dict[str, float]:
    """All direct timings, keyed by per-layer metric name."""
    rng = random.Random(seed)
    document = Document.from_string(xml)
    out: dict[str, float] = {}
    out.update(_bits(document, rng))
    out.update(_sequence(document, rng))
    out.update(_tree(document, rng))
    out.update(_text(document, rng))
    out.update(_xpath(document, queries))
    out.update(_storage_and_store(document, xml, queries, workdir))
    return out


def _bits(document: Document, rng: random.Random) -> dict[str, float]:
    vector = BitVector(document.tree.parentheses.to_numpy())
    positions = [rng.randrange(len(vector)) for _ in range(SCALAR_SAMPLES)]
    ranks = [rng.randrange(1, vector.count_ones + 1) for _ in range(SCALAR_SAMPLES)]
    return {
        "bits.rank1_ns": _per_call_ns(vector.rank1, positions),
        "bits.select1_ns": _per_call_ns(vector.select1, ranks),
        "bits.access_ns": _per_call_ns(vector.__getitem__, positions),
        "bits.rank1_many_ns": _per_element_ns(vector.rank1_many, np.array(positions[:BATCH], dtype=np.int64)),
    }


def _sequence(document: Document, rng: random.Random) -> dict[str, float]:
    collection = document.text_collection
    texts = [collection.get_text(index) for index in range(collection.num_texts)]
    bwt = bwt_of_collection(texts).bwt
    wavelet = WaveletTree(bwt)
    positions = [rng.randrange(len(bwt)) for _ in range(SCALAR_SAMPLES)]
    symbols = [int(bwt[position]) for position in positions]
    pairs = list(zip(symbols, positions))
    return {
        "sequence.access_ns": _per_call_ns(wavelet.access, positions),
        "sequence.rank_ns": _per_call_ns(lambda pair: wavelet.rank(*pair), pairs),
        "sequence.access_rank_many_ns": _per_element_ns(
            wavelet.access_rank_many, np.array(positions[:BATCH], dtype=np.int64)
        ),
    }


def _tree(document: Document, rng: random.Random) -> dict[str, float]:
    tree = document.tree
    preorders = [rng.randrange(1, tree.num_nodes + 1) for _ in range(WALK_SAMPLES)]
    nodes = [int(node) for node in tree.node_at_preorder_many(np.array(preorders, dtype=np.int64))]
    tagged = [(node, rng.randrange(tree.num_tags)) for node in nodes]
    return {
        "tree.find_close_ns": _per_call_ns(tree.parentheses.find_close, nodes),
        "tree.parent_ns": _per_call_ns(tree.parent, nodes),
        "tree.tagged_desc_ns": _per_call_ns(lambda pair: tree.tagged_desc(*pair), tagged),
        "tree.tagged_foll_ns": _per_call_ns(lambda pair: tree.tagged_foll(*pair), tagged),
        "tree.close_many_ns": _per_element_ns(tree.close_many, np.array(nodes, dtype=np.int64)),
    }


def _text(document: Document, rng: random.Random) -> dict[str, float]:
    collection = document.text_collection
    index = collection.fm_index
    patterns = [pattern.encode("utf-8") for pattern in FM_PATTERNS]
    count_us = _per_call_ns(index.count, patterns * 20) / 1e3

    located = 0
    started = time.perf_counter_ns()
    for pattern in LOCATE_PATTERNS:
        collection.contains(pattern)
    locate_ns = time.perf_counter_ns() - started
    for pattern in LOCATE_PATTERNS:
        located += index.count(pattern.encode("utf-8"))

    total_rows = int(sum(len(collection.get_text(i)) + 1 for i in range(collection.num_texts)))
    steps = 0
    started = time.perf_counter_ns()
    for _ in range(SCALAR_SAMPLES):
        try:
            index.lf(rng.randrange(total_rows))
            steps += 1
        except ValueError:  # a terminator row: LF is undefined there
            pass
    lf_ns = time.perf_counter_ns() - started
    return {
        "text.count_us": count_us,
        "text.locate_us_per_occ": locate_ns / 1e3 / located if located else 0.0,
        "text.lf_ns": lf_ns / steps if steps else 0.0,
    }


def _xpath(document: Document, queries: list[str]) -> dict[str, float]:
    tag_names = document.tree.tag_names()
    parse, bind, plan = [], [], []
    visited = results = 0
    for query in queries:
        started = time.perf_counter_ns()
        prepared = prepare_query(query)
        parse.append(time.perf_counter_ns() - started)
        started = time.perf_counter_ns()
        prepared.bind(tag_names)
        bind.append(time.perf_counter_ns() - started)
        engine = XPathEngine(document)  # fresh: its plan memo is empty
        started = time.perf_counter_ns()
        engine.plan(prepared)
        plan.append(time.perf_counter_ns() - started)
        result = document.evaluate(prepared, want_nodes=False)
        visited += result.statistics.visited_nodes
        results += result.count
    return {
        "xpath.parse_us": statistics.mean(parse) / 1e3,
        "xpath.plan_us": statistics.mean(plan) / 1e3,
        "xpath.bind_us": statistics.mean(bind) / 1e3,
        "xpath.visited_per_result": visited / results if results else 0.0,
    }


def _storage_and_store(document: Document, xml: str, queries: list[str], workdir: Path) -> dict[str, float]:
    path = workdir / "micro.sxsi"
    queries = queries[:4]  # first use against warm use needs no full pass
    save, load, first, warm = [], [], [], []
    for _ in range(3):
        save.append(_ms(lambda: document.save(path)))
        started = time.perf_counter()
        loaded = Document.load(path, mapped=True)
        load.append((time.perf_counter() - started) * 1e3)
        first.append(_ms(lambda: [loaded.count(query) for query in queries]) / len(queries))
        warm.append(_ms(lambda: [loaded.count(query) for query in queries]) / len(queries))
        loaded.close()
    stored = path.stat().st_size
    path.unlink()

    store = DocumentStore(workdir / "micro-store", num_shards=1, cache_size=2, mapped=True)
    store.add("doc", document)
    miss = []
    for _ in range(5):
        store.close()  # drop the resident: the next get maps the file again
        miss.append(_ms(lambda: store.get("doc")))
    hits = 200
    hit_ms = _ms(lambda: [store.get("doc") for _ in range(hits)])
    store.close()
    return {
        "storage.save_ms": statistics.median(save),
        "storage.load_ms": statistics.median(load),
        "storage.first_query_ms": statistics.median(first),
        "storage.warm_query_ms": statistics.median(warm),
        "storage.bytes_per_source_byte": stored / len(xml.encode("utf-8")),
        "store.get_miss_ms": statistics.median(miss),
        "store.get_hit_us": hit_ms * 1e3 / hits,
    }
