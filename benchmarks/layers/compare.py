"""Compare two ledger files: ``python3 benchmarks/layers/compare.py A.json B.json``.

For every (workload, end-to-end metric) prints the median of A and of B, how
much worse B is than A as a share of A, and the bound from ``BENCHMARK.json``:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread of either side (distance between the
  quartiles over the median) is wider than the bound, so the medians cannot
  settle the question;
* ``ok``          otherwise.

Exits non-zero if any row is ``worse``.  A is the parent (or the first set of
runs), B the change (or the second set).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def compare(a: dict, b: dict, contract: dict) -> list[dict]:
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in contract["end_to_end"]:
            cell_a = a["workloads"][name]["end_to_end"][metric["name"]]
            cell_b = b["workloads"][name]["end_to_end"][metric["name"]]
            change = (cell_b["median"] - cell_a["median"]) / cell_a["median"]
            worse_by = -change if metric["better"] == "higher" else change
            spread = max(cell_a["spread"], cell_b["spread"])
            if worse_by > metric["bound"]:
                status = "worse"
            elif spread > metric["bound"]:
                status = "unresolved"
            else:
                status = "ok"
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": cell_a["median"],
                    "b": cell_b["median"],
                    "worse_by": worse_by,
                    "spread": spread,
                    "bound": metric["bound"],
                    "status": status,
                }
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(a, b, contract)
    print(f"{'workload':<20}{'metric':<30}{'A':>12}{'B':>12}{'worse by':>10}{'spread':>8}{'bound':>7}  status")
    for row in rows:
        print(
            f"{row['workload']:<20}{row['metric']:<30}{row['a']:>12.4g}{row['b']:>12.4g}"
            f"{row['worse_by']:>+10.1%}{row['spread']:>8.1%}{row['bound']:>7.0%}  {row['status']}"
        )
    worse = [row for row in rows if row["status"] == "worse"]
    unresolved = [row for row in rows if row["status"] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
