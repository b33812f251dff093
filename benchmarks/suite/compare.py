"""Compare two result files of the suite: ``compare.py A.json B.json``.

Each file is what ``run.py --runs N --out FILE`` wrote: N runs per
workload.  Per workload and metric the table gives both medians, the
relative change of B against its base A, the bound, and a verdict:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  the spread of either side's own runs (distance between
                the quartiles, as a share of the median) is wider than
                the bound, so the pair of medians decides nothing
``same`` / ``differs``  exact counts without a bound, compared run by run

Exact counts with a bound (``write_amp`` ...) are judged run by run too:
the runs of both files use the same seeds in the same order, and a count
repeats exactly under one seed, so its spread across seeds is no noise.

Metrics without a bound are listed with their change only.  The exit
code is non-zero if any row is ``worse``, ``unresolved`` or ``differs``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional

from . import metrics as m

CATALOGUE = {metric.name: metric for metric in m.END_TO_END + m.PER_LAYER}


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def column(runs: List[dict], name: str) -> List[float]:
    return [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]


def change(base: float, new: float) -> float:
    """Relative change of ``new`` against its base."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    return (new - base) / abs(base)


def worse_by(metric: m.Metric, base: float, new: float) -> float:
    """:func:`change` with the sign that makes positive mean worse."""
    return -change(base, new) if metric.better == "higher" else change(base, new)


def verdict(metric: m.Metric, a: List[float], b: List[float]) -> Dict[str, object]:
    base, new = statistics.median(a), statistics.median(b)
    row = {
        "a": base, "b": new, "bound": metric.bound,
        "change": change(base, new),
        "spread": max(spread(a), spread(b)),
    }
    if metric.count:
        # an exact count repeats under one seed, so how it varies from
        # seed to seed is no noise: judge it run by run
        row["spread"] = 0.0
        if metric.bound is None:
            row["verdict"] = "same" if a == b else "differs"
        else:
            worst = max(worse_by(metric, x, y) for x, y in zip(a, b))
            row["verdict"] = "worse" if worst > metric.bound else "ok"
    elif metric.bound is None:
        row["verdict"] = "-"
    elif row["spread"] > metric.bound:
        row["verdict"] = "unresolved"
    else:
        worse = worse_by(metric, base, new) > metric.bound
        row["verdict"] = "worse" if worse else "ok"
    return row


def compare(a: dict, b: dict) -> Dict[str, Dict[str, dict]]:
    """``{workload: {metric: row}}`` for every metric both files hold
    and that is defined on the workload."""
    table: Dict[str, Dict[str, dict]] = {}
    for workload in m.WORKLOAD_NAMES:
        runs_a = a["workloads"].get(workload, [])
        runs_b = b["workloads"].get(workload, [])
        rows = {}
        for name, metric in CATALOGUE.items():
            if not metric.defined_on(workload):
                continue
            col_a, col_b = column(runs_a, name), column(runs_b, name)
            if col_a and col_b:
                rows[name] = verdict(metric, col_a, col_b)
        table[workload] = rows
    return table


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    files = []
    for path in argv:
        with open(path) as handle:
            files.append(json.load(handle))
    bad = 0
    for workload, rows in compare(*files).items():
        print(workload)
        for name, row in rows.items():
            bound = "" if row["bound"] is None else f"{row['bound']:.0%}"
            print(
                f"  {name:<44} {row['a']:>14.6g} {row['b']:>14.6g} "
                f"{row['change']:>+8.2%} of A  spread {row['spread']:>6.2%}  "
                f"bound {bound:>4}  {row['verdict']}"
            )
            bad += row["verdict"] in ("worse", "unresolved", "differs")
    print(f"{bad} row(s) worse, unresolved or differing" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
