"""Layer ledger: one benchmark, seven workloads, absolute numbers at every layer boundary.

Two ways to run it, both from the root of a checkout::

    python3 benchmarks/layers/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/layers/run.py [--seed N] [--workloads a,b] [--seconds S] [--repeats R]
                                     [--no-trace] [--smoke] [--out FILE]

The first form is one run of one workload (the contract of ``BENCHMARK.json``):
its last line of output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  The second form is
the whole ledger: every workload untraced (``R`` times, seeds ``N..N+R-1``),
then traced once, written as one JSON document plus a ranked markdown table.
``--smoke`` is the ledger at one pass per run with the schema and
workload-intent checks switched on.

Every run generates its inputs from the seed, checks every answer against the
pointer-DOM oracle and exits non-zero if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("benchmarks/layers/run.py: no src/repro two levels up; the benchmark runs from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import micro  # noqa: E402
import trace as layer_trace  # noqa: E402  (this directory's trace.py: the script directory leads sys.path)
from workloads import WORKLOADS, Workload  # noqa: E402

DEFAULT_SEED = 20100301
RESULTS = HERE / "results"
WORK = HERE / ".work"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "index_bits_per_node": "bits",
    "index_bytes_per_source_byte": "ratio",
}

PER_LAYER_UNITS = {
    "bits.rank1_ns": "ns",
    "bits.select1_ns": "ns",
    "bits.access_ns": "ns",
    "bits.rank1_many_ns": "ns",
    "sequence.access_ns": "ns",
    "sequence.rank_ns": "ns",
    "sequence.access_rank_many_ns": "ns",
    "tree.find_close_ns": "ns",
    "tree.parent_ns": "ns",
    "tree.tagged_desc_ns": "ns",
    "tree.tagged_foll_ns": "ns",
    "tree.close_many_ns": "ns",
    "text.count_us": "us",
    "text.locate_us_per_occ": "us",
    "text.lf_ns": "ns",
    "xpath.parse_us": "us",
    "xpath.plan_us": "us",
    "xpath.bind_us": "us",
    "xpath.visited_per_result": "ratio",
    "storage.save_ms": "ms",
    "storage.load_ms": "ms",
    "storage.first_query_ms": "ms",
    "storage.warm_query_ms": "ms",
    "storage.bytes_per_source_byte": "ratio",
    "store.get_miss_ms": "ms",
    "store.get_hit_us": "us",
    **{
        f"{layer}.{metric}": unit
        for layer in layer_trace.PRIMITIVE_LAYERS
        for metric, unit in (("calls_per_op", "count"), ("busy_ms_per_op", "ms"), ("busy_share", "ratio"))
    },
    "xpath.evaluate_self_ms_per_op": "ms",
    "store.hit_ratio": "ratio",
    "store.evictions_per_op": "count",
    "service.self_ms_per_op": "ms",
    "service.plan_cache_hit_ratio": "ratio",
    "server.self_ms_per_request": "ms",
    "server.requests": "count",
    "client.overhead_ms_per_request": "ms",
    "coordinator.self_ms_per_request": "ms",
    "coordinator.backend_ms_per_call": "ms",
    "coordinator.backend_connects_per_request": "count",
    "coordinator.merge_ms_per_batch": "ms",
    "coordinator.batch_ms_p50": "ms",
    "trace.ms_per_op": "ms",
    "trace.accounted_share": "ratio",
}


# -- small statistics ---------------------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0


def calibration_ms() -> float:
    """A fixed pure-Python + numpy loop: how fast this machine is right now."""
    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    array = np.arange(300_000, dtype=np.int64)
    for _ in range(30):
        array = (array * 31 + total) % 1_000_003
        np.cumsum(array)
    return (time.perf_counter() - started) * 1e3


def noisy(calibration_before: float, calibration_after: float) -> bool:
    """Whether the machine's speed moved by more than 10 % between two calibrations."""
    return abs(calibration_after - calibration_before) > 0.10 * calibration_before


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- one run of one workload ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One run: ``{"correct", "attempted", "failed", "metrics", "detail"}``.

    Untraced, ``metrics`` holds the end-to-end metrics; traced, the per-layer
    metrics (and ``results/trace_<name>.json`` is written).  The work directory
    is removed and every subprocess stopped on every way out.
    """
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    workload: Workload = WORKLOADS[name](seed, workdir, trace)
    live = False
    try:
        calibration_before = calibration_ms()
        started = time.perf_counter()
        workload.generate()
        generate_s = time.perf_counter() - started

        direct: dict[str, float] = {}
        if trace:
            xml, queries = workload.sample_document()
            direct = micro.measure(xml, queries, workdir, seed)
            setup_repeats = 1

        setup_times = []
        for _ in range(setup_repeats):
            if live:
                workload.teardown()
                live = False
            started = time.perf_counter()
            workload.setup()
            live = True
            setup_times.append(time.perf_counter() - started)

        if trace:
            # After set-up, which the wrappers would only slow down: they sit on
            # the classes, so the objects set-up made are traced from here on.
            layer_trace.install()
        counters_before = workload.cache_counters()
        run = workload.run(seconds, layer_trace.mark)
        counters = {key: value - counters_before[key] for key, value in workload.cache_counters().items()}
        peak_rss_mb = workload.peak_rss_mb()
        index_bytes = workload.index_bytes()
        strategies = workload.strategies()
        trace_files = workload.teardown()
        live = False

        started = time.perf_counter()
        oracle = workload.oracle()
        failures = []
        for operation, observed in run.answers:
            expected = workload.expected(oracle, operation)
            if observed != expected:
                failures.append(f"{operation!r}: got {observed!r}, expected {expected!r}")
        verify_s = time.perf_counter() - started
        calibration_after = calibration_ms()

        attempted = len(run.answers)
        detail = {
            "seed": seed,
            "seconds": seconds,
            "samples": len(run.latencies_ms),
            "wall_s": run.wall_s,
            "generate_s": generate_s,
            "verify_s": verify_s,
            "setup_s_each": setup_times,
            "failed_ratio": len(failures) / attempted,
            "failures": failures[:5],
            "calibration_ms": [calibration_before, calibration_after],
            "noisy": noisy(calibration_before, calibration_after),
            "cache_counters": counters,
            "extra": {
                series: {"samples": len(values), "p50_ms": percentile(values, 0.50), "p95_ms": percentile(values, 0.95)}
                for series, values in run.extra_ms.items()
                if values
            },
        }
        if len(run.latencies_ms) >= 1000:
            detail["latency_ms_p99"] = percentile(run.latencies_ms, 0.99)
        if strategies:
            detail["strategies"] = strategies

        if trace:
            values, summary = _per_layer(name, workload, run, counters, direct, trace_files)
            units = PER_LAYER_UNITS
            detail["ranked_layers"] = summary.ranked_rows()
            detail["missing_trace_targets"] = layer_trace.missing_targets()
            detail["negative_self_spans"] = summary.negative_self
        else:
            nodes = oracle.num_nodes(workload.documents)
            values = {
                "setup_s": statistics.median(setup_times),
                "throughput_ops": len(run.latencies_ms) / run.wall_s,
                "latency_ms_p50": percentile(run.latencies_ms, 0.50),
                "latency_ms_p95": percentile(run.latencies_ms, 0.95),
                "peak_rss_mb": peak_rss_mb,
                "index_bits_per_node": index_bytes * 8 / nodes,
                "index_bytes_per_source_byte": index_bytes / workload.source_bytes(),
            }
            units = END_TO_END_UNITS
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
            "detail": detail,
        }
    finally:
        if live:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)


def _per_layer(name, workload, run, counters, direct, trace_files):
    """Per-layer metric values from the spans of the timed window, plus the trace file."""
    dumps = [{"process": "bench", "spans": layer_trace.drain()}]
    dumps += [layer_trace.load_dump(path) for path in trace_files]
    spans = layer_trace.link_processes(dumps)
    summary = layer_trace.TraceSummary(spans, workload.root_layer, run.window)
    ops = summary.ops
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(direct)
    for layer in layer_trace.PRIMITIVE_LAYERS:
        values[f"{layer}.calls_per_op"] = _ratio(summary.calls.get(layer, 0), ops)
        values[f"{layer}.busy_ms_per_op"] = _ratio(summary.entry_ns.get(layer, 0) / 1e6, ops)
        values[f"{layer}.busy_share"] = _ratio(summary.entry_ns.get(layer, 0), summary.wall_ns)
    values["xpath.evaluate_self_ms_per_op"] = _ratio(summary.self_ns.get("xpath", 0) / 1e6, ops)
    values["service.self_ms_per_op"] = _ratio(summary.self_ns.get("service", 0) / 1e6, ops)
    values["store.hit_ratio"] = _ratio(counters["hits"], counters["hits"] + counters["misses"])
    values["store.evictions_per_op"] = _ratio(counters["evictions"], len(run.answers))
    values["service.plan_cache_hit_ratio"] = _ratio(
        counters["plan_hits"], counters["plan_hits"] + counters["plan_misses"]
    )
    requests = summary.calls.get("server", 0)
    values["server.requests"] = float(requests)
    values["server.self_ms_per_request"] = _ratio(summary.self_ns.get("server", 0) / 1e6, requests)
    values["client.overhead_ms_per_request"] = _ratio(
        summary.self_ns.get("client", 0) / 1e6, summary.calls.get("client", 0)
    )
    backend_calls, backend_ns = summary.named("coordinator", "NodeClient.request")
    handled, _handler_ns = summary.named("coordinator", ("GET ", "POST ", "PUT ", "DELETE "))
    merges, merge_ns = summary.named("coordinator", "merge_batches")
    values["coordinator.self_ms_per_request"] = _ratio(
        (summary.self_ns.get("coordinator", 0) - backend_ns) / 1e6, handled
    )
    values["coordinator.backend_ms_per_call"] = _ratio(backend_ns / 1e6, backend_calls)
    values["coordinator.backend_connects_per_request"] = _ratio(backend_calls, handled)
    values["coordinator.merge_ms_per_batch"] = _ratio(merge_ns / 1e6, merges)
    batches = run.extra_ms.get("batch")
    values["coordinator.batch_ms_p50"] = percentile(batches, 0.50) if batches else 0.0
    values["trace.ms_per_op"] = _ratio(summary.wall_ns / 1e6, ops)
    values["trace.accounted_share"] = summary.accounted_share()

    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"trace_{name}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": name,
                "window_ns": list(run.window),
                "span_fields": ["id", "parent", "rid", "peer", "layer", "name", "start_ns", "end_ns", "prim"],
                "spans": summary.spans,
            },
            handle,
            separators=(",", ":"),
        )
    return values, summary


# -- the whole ledger -------------------------------------------------------------------------------


def run_in_subprocess(name: str, seed: int, seconds: float, trace: bool, setup_repeats: int) -> dict:
    """One run as its own process, as the contract's driver makes it: a fresh
    interpreter has no wrappers left from a traced run and its own peak RSS."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(int(trace)), "--setup-repeats", str(setup_repeats)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("# detail "))
    return result


def ledger_entry(name: str, seed: int, seconds: float, repeats: int, traced: bool, setup_repeats: int) -> dict:
    """One workload untraced ``repeats`` times (one seed each), then traced once."""
    runs = [run_in_subprocess(name, seed + index, seconds, False, setup_repeats) for index in range(repeats)]
    values = {metric: [run["metrics"][metric]["value"] for run in runs] for metric in END_TO_END_UNITS}
    entry = {
        "why": WORKLOADS[name].why,
        "end_to_end": {
            metric: {
                "unit": unit,
                "values": values[metric],
                "median": statistics.median(values[metric]),
                "spread": spread(values[metric]),
            }
            for metric, unit in END_TO_END_UNITS.items()
        },
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "detail": runs[0]["detail"],
    }
    if traced:
        traced_run = run_in_subprocess(name, seed, seconds, True, 1)
        entry["attempted"] += traced_run["attempted"]
        entry["failed"] += traced_run["failed"]
        entry["per_layer"] = traced_run["metrics"]
        entry["traced_detail"] = traced_run["detail"]
        entry["trace_overhead_ratio"] = _ratio(
            traced_run["detail"]["wall_s"] / traced_run["detail"]["samples"],
            runs[0]["detail"]["wall_s"] / runs[0]["detail"]["samples"],
        )
    print(f"# {name}: done", file=sys.stderr)
    return entry


def ledger(names: list[str], seed: int, seconds: float, repeats: int, traced: bool, smoke: bool) -> dict:
    """The ledger over ``names``.  Workloads run one after the other, except in
    smoke mode, which checks shapes and ratios, not speeds, and runs two at a time."""
    started = time.perf_counter()
    calibration_start = calibration_ms()
    with ThreadPoolExecutor(max_workers=2 if smoke else 1) as pool:
        entries = list(
            pool.map(
                lambda name: ledger_entry(name, seed, seconds, repeats, traced, 1 if smoke else SETUP_REPEATS),
                names,
            )
        )
    calibration_end = calibration_ms()
    return {
        "meta": {
            "seed": seed,
            "seconds": seconds,
            "repeats": repeats,
            "calibration_ms": [calibration_start, calibration_end],
            "noisy": noisy(calibration_start, calibration_end),
            "total_s": time.perf_counter() - started,
            "failed": sum(entry["failed"] for entry in entries),
        },
        "workloads": dict(zip(names, entries)),
    }


def ranked_markdown(result: dict) -> str:
    """The ledger as markdown: end-to-end medians, then layers ranked by self time."""
    meta = result["meta"]
    lines = [
        "# Layer ledger",
        "",
        f"**Seed:** {meta['seed']} ({meta['repeats']} untraced run(s) of {meta['seconds']:g} s per workload) "
        f"· **calibration:** {meta['calibration_ms'][0]:.1f} ms → {meta['calibration_ms'][1]:.1f} ms",
        "",
        "## End to end (median of the untraced runs)",
        "",
        "| workload | " + " | ".join(END_TO_END_UNITS) + " |",
        "|:--|" + "--:|" * len(END_TO_END_UNITS),
    ]
    for name, entry in result["workloads"].items():
        cells = [f"{entry['end_to_end'][metric]['median']:.4g}" for metric in END_TO_END_UNITS]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    for name, entry in result["workloads"].items():
        if "traced_detail" not in entry:
            continue
        lines += [
            "",
            f"## {name}: layers by self time (traced run, overhead ×{entry['trace_overhead_ratio']:.2f})",
            "",
            "| layer | calls / op | self ms / op | share of op wall |",
            "|:--|--:|--:|--:|",
        ]
        for row in entry["traced_detail"]["ranked_layers"]:
            lines.append(
                f"| {row['layer']} | {row['calls_per_op']:.4g} | {row['self_ms_per_op']:.4f} "
                f"| {row['self_share']:.1%} |"
            )
    return "\n".join(lines) + "\n"


# -- smoke checks -----------------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def smoke_checks(result: dict) -> list[str]:
    """Schema and workload-intent violations of a ledger result (empty when it passes)."""
    problems = []
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    if [w["name"] for w in contract["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for section, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in contract[section]}
        if declared != units:
            problems.append(f"BENCHMARK.json {section} differs from run.py: {set(declared) ^ set(units)}")
    for name, entry in result["workloads"].items():
        for metric in list(entry["end_to_end"]) + list(entry.get("per_layer", {})):
            if not _NAME.match(metric):
                problems.append(f"{name}: bad metric name {metric!r}")
        for metric, cell in entry["end_to_end"].items():
            if not cell["unit"] or not all(value > 0 for value in cell["values"]):
                problems.append(f"{name}: end-to-end metric {metric} must have a unit and be positive")
        if entry["failed"]:
            problems.append(f"{name}: {entry['failed']} failed operation(s): {entry['detail']['failures']}")
        layers = {metric: cell["value"] for metric, cell in entry.get("per_layer", {}).items()}
        if not layers:
            continue
        traced = entry["traced_detail"]
        if any(value < 0 for value in layers.values()) or traced["negative_self_spans"]:
            problems.append(f"{name}: negative per-layer value or self time")
        if not 0.90 <= layers["trace.accounted_share"] <= 1.0 + 1e-9:
            problems.append(f"{name}: self times cover {layers['trace.accounted_share']:.3f} of the traced wall")
        if traced["missing_trace_targets"]:
            problems.append(f"{name}: trace targets not found: {traced['missing_trace_targets']}")
        if name == "store_cold" and layers["store.hit_ratio"] != 0.0:
            problems.append(f"store_cold must miss every time, hit ratio {layers['store.hit_ratio']}")
        if name == "node_http_point" and layers["store.hit_ratio"] != 1.0:
            problems.append(f"node_http_point must hit every time, hit ratio {layers['store.hit_ratio']}")
        if name == "medline_text":
            if layers["text.busy_share"] < 0.5:
                problems.append(f"medline_text: text busy share {layers['text.busy_share']:.2f} < 0.5")
            if traced["strategies"] != ["bottom-up"]:
                problems.append(f"medline_text: plans are {traced['strategies']}, not all bottom-up")
        if name == "xmark_tree" and layers["text.calls_per_op"] != 0.0:
            problems.append(f"xmark_tree: {layers['text.calls_per_op']} text calls per op, expected none")
    return problems


# -- command line -------------------------------------------------------------------------------------


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwind through the finally blocks that stop the servers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run this one workload once")
    parser.add_argument("--workloads", help="ledger mode: comma-separated subset (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per run (default 10)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=None, choices=(0, 1))
    parser.add_argument("--no-trace", action="store_true", help="ledger mode: skip the traced runs")
    parser.add_argument("--repeats", type=int, default=1, help="ledger mode: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true", help="ledger at one pass per run with all checks")
    parser.add_argument("--out", type=Path, default=RESULTS / "latest.json", help="ledger mode: JSON output")
    parser.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds or 10.0, bool(args.trace), args.setup_repeats)
        detail = result.pop("detail")
        for row in detail.get("ranked_layers", []):
            print(
                f"# {row['layer']:<12} {row['calls_per_op']:>10.4g} calls/op "
                f"{row['self_ms_per_op']:>10.4f} self ms/op {row['self_share']:>7.1%}"
            )
        print("# detail " + json.dumps(detail))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    seconds = args.seconds or (0.5 if args.smoke else 10.0)
    traced = not args.no_trace and args.trace != 0
    result = ledger(names, args.seed, seconds, args.repeats, traced, args.smoke)
    problems = smoke_checks(result) if args.smoke else []
    result["meta"]["smoke_problems"] = problems
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    args.out.with_suffix(".md").write_text(ranked_markdown(result), encoding="utf-8")
    print(json.dumps(result))
    for problem in problems:
        print(f"SMOKE FAILED: {problem}", file=sys.stderr)
    return 1 if problems or result["meta"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
