"""Hold ``docs/`` to the code: diff documented tables against live definitions.

Run by the CI ``docs-check`` job (and runnable locally)::

    PYTHONPATH=src python scripts/check_docs.py

Three kinds of tables are machine-checked:

* **Route tables** in ``docs/http-api.md``, marked
  ``<!-- route-table: repro-serve -->`` / ``<!-- route-table:
  repro-coordinator -->``.  The script instantiates both servers (never
  started -- no sockets) and compares each documented ``(METHOD, path)``
  pair against the server's ``route_table`` registry.
* **Flag tables** in ``docs/operations.md``, marked
  ``<!-- flag-table: repro-serve -->`` / ``<!-- flag-table:
  repro-coordinator -->``.  Every ``--flag`` token in a table's first
  column is compared against the ``argparse`` option strings of the
  matching CLI's ``build_parser()``.

* **Metrics tables** in ``docs/operations.md``, marked
  ``<!-- metrics-table: shared -->`` / ``repro-serve`` / ``repro-coordinator``.
  Every backticked family in a table's first column, with the type (first
  word of the second column) and the backticked label names of the third, is
  compared against the families a ``ReproServer`` (after one stored document
  was loaded and verified, which registers the lazy ``storage_*`` families)
  and a ``CoordinatorServer`` register on a fresh registry: each server's
  families must equal the shared table plus its own.

A route, flag or metric family present in the code but missing from the docs
fails, and so does a documented one the code no longer has -- renames must
land in both places in the same commit.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FLAG_RE = re.compile(r"--[\w][\w-]*")
BACKTICKED_RE = re.compile(r"`([^`]+)`")


def extract_table(markdown: str, marker: str, path: Path) -> list[list[str]]:
    """The body rows (header and separator dropped) of the table after *marker*."""
    index = markdown.find(marker)
    if index < 0:
        raise SystemExit(f"{path}: marker {marker!r} not found")
    rows = []
    for line in markdown[index + len(marker) :].splitlines():
        stripped = line.strip()
        if stripped.startswith("|"):
            rows.append([cell.strip() for cell in stripped.strip("|").split("|")])
        elif rows:
            break
    if len(rows) < 3:
        raise SystemExit(f"{path}: no table follows marker {marker!r}")
    return rows[2:]


def documented_routes(markdown: str, name: str, path: Path) -> set[tuple[str, str]]:
    rows = extract_table(markdown, f"<!-- route-table: {name} -->", path)
    return {(row[0].upper(), row[1].strip("`")) for row in rows}


def documented_flags(markdown: str, name: str, path: Path) -> set[str]:
    rows = extract_table(markdown, f"<!-- flag-table: {name} -->", path)
    flags: set[str] = set()
    for row in rows:
        found = FLAG_RE.findall(row[0])
        if not found:
            raise SystemExit(f"{path}: flag-table {name!r} row has no --flag: {row[0]!r}")
        flags.update(found)
    return flags


def documented_metrics(markdown: str, name: str, path: Path) -> set[tuple[str, str, tuple[str, ...]]]:
    rows = extract_table(markdown, f"<!-- metrics-table: {name} -->", path)
    families: set[tuple[str, str, tuple[str, ...]]] = set()
    for row in rows:
        names = BACKTICKED_RE.findall(row[0])
        if not names:
            raise SystemExit(f"{path}: metrics-table {name!r} row names no family: {row[0]!r}")
        kind, labels = row[1].split()[0], tuple(sorted(BACKTICKED_RE.findall(row[2])))
        families.update((family, kind, labels) for family in names)
    return families


def live_servers() -> tuple[dict[str, set], dict[str, set]]:
    """``(route tables, metric families)`` of both servers (never started -- no sockets).

    Each server is built on its own fresh registry, so its families are the
    ones *it* (and the layers under it) register.
    """
    from repro import DocumentStore, MetricsRegistry, QueryService, set_registry
    from repro.coordinator import CoordinatorServer
    from repro.server import ReproServer

    def families(registry) -> set:
        snapshot = registry.snapshot()
        return {
            (name.removeprefix("repro_"), family["type"], tuple(sorted(family["labels"])))
            for name, family in snapshot.items()
        }

    routes, metrics = {}, {}
    previous = set_registry(MetricsRegistry())
    try:
        with tempfile.TemporaryDirectory() as root:
            store = DocumentStore(root, verify="eager")
            server = ReproServer(QueryService(store))
            store.add_xml("doc", "<a/>")
            store.close()  # drop the built document: the next get is a mapped, verified load
            store.get("doc")
            store.close()
            routes["repro-serve"] = set(server.route_table)
            metrics["repro-serve"] = families(server.registry)
        set_registry(MetricsRegistry())
        coordinator = CoordinatorServer(["n0=127.0.0.1:1"])
        routes["repro-coordinator"] = set(coordinator.route_table)
        metrics["repro-coordinator"] = families(coordinator.registry)
    finally:
        set_registry(previous)
    return routes, metrics


def live_flag_tables() -> dict[str, set[str]]:
    from repro.coordinator.__main__ import build_parser as coordinator_parser
    from repro.server.__main__ import build_parser as serve_parser

    tables = {}
    for name, parser in (
        ("repro-serve", serve_parser()),
        ("repro-coordinator", coordinator_parser()),
    ):
        tables[name] = {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
    return tables


def diff(kind: str, name: str, documented: set, live: set) -> list[str]:
    problems = []
    for item in sorted(live - documented):
        problems.append(f"{name}: {kind} {item} exists in the code but is not documented")
    for item in sorted(documented - live):
        problems.append(f"{name}: documented {kind} {item} does not exist in the code")
    return problems


def main() -> int:
    api_doc = REPO / "docs" / "http-api.md"
    ops_doc = REPO / "docs" / "operations.md"
    api_text = api_doc.read_text(encoding="utf-8")
    ops_text = ops_doc.read_text(encoding="utf-8")

    problems: list[str] = []
    live_routes, live_metrics = live_servers()
    for name, live in live_routes.items():
        documented = documented_routes(api_text, name, api_doc)
        problems += diff("route", name, documented, live)
        print(f"{name}: {len(live)} routes, {len(documented)} documented")
    shared = documented_metrics(ops_text, "shared", ops_doc)
    for name, live in live_metrics.items():
        documented = shared | documented_metrics(ops_text, name, ops_doc)
        problems += diff("metric family", name, documented, live)
        print(f"{name}: {len(live)} metric families, {len(documented)} documented")
    for name, live in live_flag_tables().items():
        documented = documented_flags(ops_text, name, ops_doc)
        problems += diff("flag", name, documented, live)
        print(f"{name}: {len(live)} flags, {len(documented)} documented")

    if problems:
        print()
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        print(f"\n{len(problems)} doc/code mismatch(es)", file=sys.stderr)
        return 1
    print("docs match the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
