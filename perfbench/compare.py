"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of result files written by run.py (its out/
directory in two checkouts, or copies of it), one file per workload, seed and
trace setting. For every workload and metric the script prints each side's
median and quartiles over the seeds, the change of the median, and for the
gated end-to-end metrics the bound from BENCHMARK.json and a verdict:

- "worse"       the new median is worse than the base median by more than the bound;
- "unresolved"  the base runs spread by more than the bound, and not every new run
                is better than every base run;
- "better"      every new run is better than every base run and the medians differ
                by more than the base spread;
- "same"        otherwise.

Per-leg figures (descent_s, scan_states_per_s_w2, ...) are printed without a verdict.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """(workload, trace) -> metric -> list of values, plus the failed share."""
    table = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], record["trace"])
        result = record["result"]
        for name, metric in result["metrics"].items():
            table[key][(name, metric["unit"])].append(metric["value"])
        for name, metric in record["legs"].items():
            table[key][("leg:" + name, metric["unit"])].append(metric["value"])
        table[key][("failed_share", "ratio")].append(result["failed"] / result["attempted"])
    return table


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list, new: list, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * change > 0 means worse
    q1, med, q3 = quartiles(base)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    change = (statistics.median(new) - med) / abs(med) if med else float("inf")
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if all_better and abs(change) > spread:
        return "better"
    if spread > bound:
        return "unresolved"
    return "worse" if sign * change > bound else "same"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    base, new = (load(Path(a)) for a in argv)
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): base n={len(next(iter(base[key].values())))}, "
              f"new n={len(next(iter(new[key].values())))}")
        for name, unit in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][(name, unit)], new[key][(name, unit)]
            bq, nq = quartiles(b), quartiles(n)
            change = f"{100 * (nq[1] - bq[1]) / abs(bq[1]):+7.2f}%" if bq[1] else f"{nq[1] - bq[1]:+.3g}"
            line = (f"  {name:<42} {bq[1]:>12.5g} [{bq[0]:.5g}, {bq[2]:.5g}] -> "
                    f"{nq[1]:>12.5g} [{nq[0]:.5g}, {nq[2]:.5g}] {unit:<12} {change}")
            if trace == 0 and name in gated:
                v = verdict(b, n, gated[name]["bound"], gated[name]["better"])
                worse += v == "worse"
                line += f"  bound {100 * gated[name]['bound']:.0f}%: {v}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
