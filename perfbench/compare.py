"""Compare two result sets of the benchmark, parent against change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the JSON lines that ``perfbench/run.py --record FILE``
appends, one per run.  For every (workload, end-to-end metric) this prints
each side's median and quartiles, the share of pairs the change won, and a
verdict under the rule of the choosing-metrics guide, section 8:

  improved    the change won at least 9/10 of at least 10 pairs, and the
              medians differ, in the better direction, by more than the
              parent's own quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's quartile spread is wider than the bound, unless
              every change run reads better than every parent run;
  unchanged   otherwise.

Runs pair up by seed when both sides ran the same seeds, else in order.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def pair_wins(parent: list[float], change: list[float], better: str) -> float:
    """Share of pairs the change won; ties count for neither side."""
    pairs = list(zip(parent, change))
    if not pairs:
        return 0.0
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    sign = 1 if better == "higher" else -1
    gain = sign * (c_med - p_med)                     # > 0: change is better
    if gain < 0 and -gain > bound * p_med:
        return "regressed"
    if (len(parent) >= 10 and pair_wins(parent, change, better) >= 0.9
            and gain > p_q3 - p_q1):
        return "improved"
    all_better = (min(change) > max(parent)) if better == "higher" else (max(change) < min(parent))
    if spread(parent) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def load(path: str) -> dict[str, list[dict]]:
    """Untraced runs by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path) as fd:
        for line in fd:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def paired(parent: list[dict], change: list[dict]) -> tuple[list[dict], list[dict]]:
    by_seed = {r["seed"]: r for r in change}
    if len(by_seed) == len(change) and all(r["seed"] in by_seed for r in parent):
        return parent, [by_seed[r["seed"]] for r in parent]
    n = min(len(parent), len(change))
    return parent[:n], change[:n]


def compare(parent_path: str, change_path: str) -> list[dict]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    parent, change = load(parent_path), load(change_path)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = paired(parent[workload], change[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["result"]["metrics"][name]["value"] for r in p_runs]
            c = [r["result"]["metrics"][name]["value"] for r in c_runs]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": quartiles(p), "change": quartiles(c), "pairs": len(p),
                "wins": pair_wins(p, c, metric["better"]),
                "verdict": verdict(p, c, metric["better"], metric["bound"]),
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(f"{'workload':18s} {'metric':20s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'pairs':>5s} {'wins':>5s}  verdict")
    for r in compare(*argv):
        fmt = "/".join(f"{v:.4g}" for v in r["parent"]), "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:18s} {r['metric']:20s} {fmt[0]:>30s} {fmt[1]:>30s} "
              f"{r['pairs']:5d} {r['wins']:5.2f}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
