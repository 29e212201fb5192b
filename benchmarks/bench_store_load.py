"""Storage: heap-copy vs mapped loads of one file -- latency, first query, shared RSS.

The container writes every numpy payload 64-byte-aligned so ``Document.load``
can hand each structure a read-only view of one ``mmap`` instead of
materialising heap copies (``mapped=False``).  This module guards the two
claims that justify it:

* **load latency** -- a mapped open is O(metadata): no array copies, no
  checksum pass over the payloads.  Legs: warm load (page cache
  hot; the ``mapped_load_speedup`` critical metric), cold load (page cache
  dropped via ``posix_fadvise(DONTNEED)`` where the OS honours it), and
  first-query-after-load (open + one ``count``, the serving-path latency).
* **shared memory** -- N process workers mapping the same files share OS page
  cache instead of holding N private heap copies.  The ``--rss-probe``
  subprocess spawns a 2-process ``QueryService`` over the same corpus in
  ``mapped`` or ``copy`` mode and reports the workers' peak-RSS (``VmHWM``)
  growth over their post-spawn baseline; the ratio mapped/copy is the
  ``multiworker_rss_ratio`` critical metric.

Runs standalone for CI (``python benchmarks/bench_store_load.py --quick
--out BENCH_pr7.json``) or under pytest like the other modules.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import Document, DocumentStore, IndexOptions, QueryService
from repro.workloads import generate_xmark_xml

from _bench_utils import print_table
from check_regression import check

#: First-query mix: a structural scan, a path, a text predicate.
QUERIES = [
    "//item",
    "//item/name",
    '//item[contains(., "gold")]',
]

#: RSS-probe mix: structural navigation only.  This is the serving pattern the
#: shared-memory claim is about -- workers answering queries that touch the
#: tree and tag layers fault a small working set per document, while eager
#: copies pay for the whole file (FM-index, text blob and all) up front.
PROBE_QUERIES = [
    "//item/name",
]


def _drop_page_cache(path: Path) -> bool:
    """Ask the kernel to evict ``path`` from the page cache (best effort)."""
    if not hasattr(os, "posix_fadvise"):
        return False
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
        finally:
            os.close(fd)
        return True
    except OSError:
        return False


def _timed_loads(path: Path, repeats: int, mapped: bool, cold: bool) -> float:
    """Best-of-``repeats`` wall time of one ``Document.load``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        if cold:
            _drop_page_cache(path)
        started = time.perf_counter()
        document = Document.load(path, mapped=mapped)
        best = min(best, time.perf_counter() - started)
        document.close()
    return best


def _timed_first_query(path: Path, repeats: int, mapped: bool) -> float:
    """Best-of-``repeats`` wall time of load + one ``count``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        document = Document.load(path, mapped=mapped)
        document.count(QUERIES[0])
        best = min(best, time.perf_counter() - started)
        document.close()
    return best


# -- RSS probe (runs in a subprocess so worker accounting starts clean) ----------------


def _children_vmhwm_kb(parent_pid: int) -> int:
    """Sum of peak RSS (``VmHWM``, in kB) over the direct children of ``parent_pid``."""
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                stat = handle.read()
            # Fields after the comm, which may itself contain spaces/parens.
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid != parent_pid:
                continue
            with open(f"/proc/{entry}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except (OSError, IndexError, ValueError):
            continue
    return total


def _rss_probe(root: str, mode: str, sweeps: int) -> dict:
    """Measure worker peak-RSS growth of a 2-process service over ``root``.

    Spawns the shard-affine worker processes *first* and snapshots their
    ``VmHWM`` before any document is loaded, so the reported delta is the
    memory the documents cost -- not the interpreter + numpy baseline, which
    would dilute the mapped-vs-copy ratio.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    mapped = mode == "mapped"
    # Cache larger than the corpus: workers keep their whole shard resident,
    # which is the serving configuration the shared-memory claim is about.
    store = DocumentStore(root, cache_size=16, mapped=mapped)
    service = QueryService(store, max_workers=2, executor="process")
    try:
        # Pre-create the slot pools exactly as the service would and run a
        # no-op in each so both worker processes exist before the baseline.
        # Spawned (not forked) workers start from a clean interpreter: a fork
        # child inherits this process's heap copy-on-write and its refcount
        # traffic alone dirties megabytes of pages, which would swamp the
        # document-attributable RSS the probe is after.
        spawn = multiprocessing.get_context("spawn")
        service._pool = [ProcessPoolExecutor(max_workers=1, mp_context=spawn) for _ in range(2)]
        for pool in service._pool:
            pool.submit(os.getpid).result()
        baseline_kb = _children_vmhwm_kb(os.getpid())
        for _ in range(sweeps):
            for query in PROBE_QUERIES:
                for result in service.run_many([query]):
                    assert not result.failures, result.failures
        loaded_kb = _children_vmhwm_kb(os.getpid())
    finally:
        service.close()
    return {"mode": mode, "baseline_kb": baseline_kb, "loaded_kb": loaded_kb}


def _run_rss_probe(root: str, mode: str, sweeps: int) -> dict:
    """Run :func:`_rss_probe` in a fresh interpreter and return its report."""
    if not os.path.isdir("/proc"):
        raise RuntimeError("the RSS probe needs /proc (Linux); run this bench on Linux")
    import repro

    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    bench_dir = str(Path(__file__).resolve().parent)
    extra = os.pathsep.join([src_dir, bench_dir])
    env["PYTHONPATH"] = extra + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rss-probe", mode, "--root", root,
         "--repeats", str(sweeps)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"RSS probe ({mode}) failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- the benchmark ---------------------------------------------------------------------


def run_benchmark(scale: float = 1.0, repeats: int = 5, rss_docs: int = 8, rss_sweeps: int = 3) -> dict:
    """Measure every leg; returns the metric dict written to BENCH_pr7.json."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        xml = generate_xmark_xml(scale=scale, seed=7)
        document = Document.from_string(xml, IndexOptions(sample_rate=16))
        path = tmp_path / "doc.sxsi"
        document.save(path)

        # The revived indexes must agree with the built one in both modes.
        mapped_doc = Document.load(path, mapped=True)
        heap_doc = Document.load(path, mapped=False)
        for query in QUERIES:
            expected = document.count(query)
            assert mapped_doc.count(query) == expected, f"mapped mismatch for {query!r}"
            assert heap_doc.count(query) == expected, f"heap mismatch for {query!r}"
        mapped_doc.close()

        heap_warm = _timed_loads(path, repeats, mapped=False, cold=False)
        mapped_warm = _timed_loads(path, repeats, mapped=True, cold=False)
        heap_cold = _timed_loads(path, repeats, mapped=False, cold=True)
        mapped_cold = _timed_loads(path, repeats, mapped=True, cold=True)
        heap_first = _timed_first_query(path, repeats, mapped=False)
        mapped_first = _timed_first_query(path, repeats, mapped=True)

        # Shared-memory leg: the same corpus served by 2 process workers.
        corpus = tmp_path / "corpus"
        store = DocumentStore(corpus, num_shards=8, cache_size=4)
        for i in range(rss_docs):
            doc_xml = generate_xmark_xml(scale=scale / 2, seed=200 + i)
            store.add_xml(f"xmark-{i:03d}", doc_xml, IndexOptions(sample_rate=16))
        store.close()
        mapped_probe = _run_rss_probe(str(corpus), "mapped", rss_sweeps)
        copy_probe = _run_rss_probe(str(corpus), "copy", rss_sweeps)
        file_bytes = os.path.getsize(path)

    mapped_delta = max(1, mapped_probe["loaded_kb"] - mapped_probe["baseline_kb"])
    copy_delta = max(1, copy_probe["loaded_kb"] - copy_probe["baseline_kb"])
    return {
        "meta": {
            "scale": scale,
            "repeats": repeats,
            "rss_docs": rss_docs,
            "rss_sweeps": rss_sweeps,
            "file_bytes": file_bytes,
            "queries": list(QUERIES),
            "probe_queries": list(PROBE_QUERIES),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "metrics": {
            "heap_load_ms": round(heap_warm * 1000, 3),
            "mapped_load_ms": round(mapped_warm * 1000, 3),
            "mapped_load_speedup": round(heap_warm / mapped_warm, 3),
            "heap_cold_load_ms": round(heap_cold * 1000, 3),
            "mapped_cold_load_ms": round(mapped_cold * 1000, 3),
            "first_query_heap_ms": round(heap_first * 1000, 3),
            "first_query_mapped_ms": round(mapped_first * 1000, 3),
            "first_query_speedup": round(heap_first / mapped_first, 3),
            "rss_copy_mb": round(copy_delta / 1024, 2),
            "rss_mapped_mb": round(mapped_delta / 1024, 2),
            "multiworker_rss_ratio": round(mapped_delta / copy_delta, 3),
        },
    }


def _report(results: dict) -> None:
    metrics = results["metrics"]
    print_table(
        "Store load: heap copy vs mapped",
        ["leg", "heap copy", "mapped", "speedup"],
        [
            [
                "warm load (ms)",
                metrics["heap_load_ms"],
                metrics["mapped_load_ms"],
                f"{metrics['mapped_load_speedup']:.1f}x",
            ],
            [
                "cold load (ms)",
                metrics["heap_cold_load_ms"],
                metrics["mapped_cold_load_ms"],
                "-",
            ],
            [
                "first query (ms)",
                metrics["first_query_heap_ms"],
                metrics["first_query_mapped_ms"],
                f"{metrics['first_query_speedup']:.1f}x",
            ],
            [
                "2-worker peak RSS (MB)",
                metrics["rss_copy_mb"],
                metrics["rss_mapped_mb"],
                f"{metrics['multiworker_rss_ratio']:.2f}x of copy",
            ],
        ],
    )


# -- pytest entry points ---------------------------------------------------------------


def test_mapped_load_and_rss(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results = run_benchmark(scale=8.0, repeats=3, rss_docs=8, rss_sweeps=2)
    _report(results)
    metrics = results["metrics"]
    assert metrics["mapped_load_speedup"] > 1.0
    # One threshold for multiworker_rss_ratio (and every other critical metric
    # of this module): baseline.json's, as the CI memory-gate job applies it.
    baseline = json.loads((Path(__file__).parent / "baseline.json").read_text(encoding="utf-8"))
    assert check(results, baseline, subset=True) == []


# -- CLI entry point (the CI bench-smoke and memory-gate jobs) -------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke settings (smaller corpus)")
    parser.add_argument("--scale", type=float, default=None, help="XMark scale of the load-leg document")
    parser.add_argument("--repeats", type=int, default=None, help="timed repetitions per leg")
    parser.add_argument("--docs", type=int, default=8, help="corpus size for the RSS probe")
    parser.add_argument("--out", type=Path, default=None, help="write the results JSON here")
    parser.add_argument("--rss-probe", choices=("mapped", "copy"), default=None, help=argparse.SUPPRESS)
    parser.add_argument("--root", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.rss_probe is not None:
        if args.root is None:
            parser.error("--rss-probe needs --root")
        report = _rss_probe(args.root, args.rss_probe, args.repeats or 3)
        print(json.dumps(report))
        return 0

    # The load-leg document must be big enough that the heap read's O(n)
    # copy + checksum visibly dominates the O(metadata) mapped open.
    scale = args.scale if args.scale is not None else (8.0 if args.quick else 12.0)
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 5)
    results = run_benchmark(scale=scale, repeats=repeats, rss_docs=args.docs)
    _report(results)
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
