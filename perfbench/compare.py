"""Compare two sets of benchmark results, or report one set's spread.

Run from the repository root::

    python3 perfbench/compare.py SET_A [SET_B]

A set is a directory of result documents written by ``run.py --out``
(or single result files). Only plain runs (``--trace 0``) are read.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
each set's median and quartiles over its runs (one value per run), the
spread (inter-quartile distance over the median) and, with two sets, a
verdict for ``SET_B`` against ``SET_A``:

- ``unresolved`` when either spread exceeds the metric's bound, unless
  every run of B reads better than every run of A (then ``better``);
- ``worse`` when B's median is worse than A's by more than the bound;
- ``better`` when B's median is better by more than A's own spread and
  B's quartile range lies wholly on the better side of A's;
- ``unchanged`` otherwise.

The exit code is 1 when any verdict is ``worse`` (or, with one set,
any spread exceeds its bound).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_set(path: Path) -> dict:
    """{workload: {metric: [value per run]}} for plain runs."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict = {}
    for file in files:
        doc = json.loads(file.read_text())
        if doc["provenance"]["trace"]:
            continue
        for workload, metrics in doc["metrics"].items():
            for name, (value, _unit, _samples) in metrics.items():
                out.setdefault(workload, {}).setdefault(name, []).append(
                    value)
    return out


def summary(values: list) -> tuple:
    """(median, q1, q3, spread) with Python's default quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def verdict(a: list, b: list, bound: float, lower_better: bool) -> str:
    med_a, q1_a, q3_a, spread_a = summary(a)
    med_b, q1_b, q3_b, spread_b = summary(b)
    sign = 1.0 if lower_better else -1.0
    # positive = B worse than A, as a share of A's median
    worse_by = sign * (med_b - med_a) / med_a
    all_better = (max(b) < min(a)) if lower_better else (min(b) > max(a))
    if max(spread_a, spread_b) > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    clear = (q3_b < q1_a) if lower_better else (q1_b > q3_a)
    if -worse_by > spread_a and clear:
        return "better"
    return "unchanged"


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sets = [load_set(Path(arg)) for arg in argv]
    workloads = [w["name"] for w in spec["workloads"]]
    flagged = []
    for workload in workloads:
        if not all(workload in s for s in sets):
            print(f"{workload}: missing from a set")
            continue
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cells = []
            for s in sets:
                med, q1, q3, spread = summary(s[workload][name])
                cells.append(f"{med:10.4f} [{q1:.4f}, {q3:.4f}] spread "
                             f"{spread:6.1%} n={len(s[workload][name])}")
                if len(sets) == 1 and spread > bound:
                    flagged.append(f"{workload} {name}")
            line = f"{workload:15s} {name:13s} " + " | ".join(cells)
            if len(sets) == 2:
                v = verdict(sets[0][workload][name], sets[1][workload][name],
                            bound, metric["better"] == "lower")
                line += f" | {v} (bound {bound:.0%})"
                if v in ("worse", "unresolved"):
                    flagged.append(f"{workload} {name}: {v}")
            print(line)
    for item in flagged:
        print(f"flagged: {item}")
    return 1 if any(f.endswith("worse") or len(sets) == 1
                    for f in flagged) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
