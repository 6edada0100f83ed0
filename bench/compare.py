"""Compare benchmark results of a parent commit and a change.

    python bench/compare.py --parent P1.json ... --change C1.json ...

Each file is one ``bench/run.py --out`` result. A parent file and a change
file with the same seed form a pair, and successive pairs must alternate
which side ran first. For every workload and end-to-end metric in BENCHMARK.json it
prints each side's median and quartiles, the fraction of pairs the change
wins (ties count for neither), and a verdict:

- ``unresolved``: the parent's own spread (quartile distance over median)
  exceeds the metric's bound, and not every change run beats every parent
  run;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's quartile distance;
- ``unchanged``: otherwise.

Exits 1 if any metric regressed, 2 if the runs cannot be compared (fewer
than 10 pairs, unpaired seeds, pairs not alternating, different
settings), else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: list[Path]) -> list[dict[str, Any]]:
    return [json.loads(p.read_text()) for p in paths]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict[str, Any]:
    """Apply the comparison rules to one metric's paired values."""
    sign = 1.0 if better == "lower" else -1.0  # positive gain = change better
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change)) / len(parent)
    worse_by = sign * (cm - pm) / pm
    spread = (p3 - p1) / pm
    all_better = min(sign * (p - c) for p in parent for c in change) > 0
    if spread > bound and not all_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regressed"
    elif wins >= WIN_SHARE and sign * (pm - cm) > p3 - p1:
        outcome = "improved"
    else:
        outcome = "unchanged"
    return {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "wins": wins,
        "worse_by": worse_by,
        "spread": spread,
        "verdict": outcome,
    }


def pair_up(
    parents: list[dict[str, Any]], changes: list[dict[str, Any]]
) -> tuple[list[tuple[dict[str, Any], dict[str, Any]]], str | None]:
    """The (parent, change) pairs in the order they ran, or why these runs
    cannot be compared."""
    by_seed = [{r["seed"]: r for r in side} for side in (parents, changes)]
    if len(by_seed[0]) != len(parents) or len(by_seed[1]) != len(changes):
        return [], "each side needs one file per seed"
    if by_seed[0].keys() != by_seed[1].keys():
        return [], "the two sides ran different seeds"
    if len(parents) < MIN_PAIRS:
        return [], f"need {MIN_PAIRS}+ pairs, got {len(parents)}"
    if len({(r["seconds"], r["trace"], r["smoke"]) for r in parents + changes}) != 1:
        return [], "runs used different settings (--seconds, --trace or --smoke)"
    pairs = sorted(
        ((by_seed[0][s], by_seed[1][s]) for s in by_seed[0]),
        key=lambda pc: min(pc[0]["started"], pc[1]["started"]),
    )
    firsts = [p["started"] < c["started"] for p, c in pairs]
    if any(a == b for a, b in zip(firsts, firsts[1:])):
        return [], "pairs do not alternate which side ran first"
    return pairs, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    pairs, problem = pair_up(load(args.parent), load(args.change))
    if problem:
        print(f"compare: {problem}", file=sys.stderr)
        return 2
    parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    regressed = False
    print(f"{'workload':20} {'metric':18} {'parent median [q1,q3]':32} "
          f"{'change median [q1,q3]':32} {'worse_by':>9} {'wins':>5}  verdict")
    workloads = [w for w in parents[0]["workloads"] if all(w in r["workloads"] for r in parents + changes)]
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            try:
                p = [r["workloads"][workload]["metrics"][name]["value"] for r in parents]
                c = [r["workloads"][workload]["metrics"][name]["value"] for r in changes]
            except KeyError:
                print(f"{workload:20} {name:18} missing from some run (a run failed?)")
                regressed = True
                continue
            row = verdict(p, c, metric["better"], metric["bound"])
            regressed |= row["verdict"] == "regressed"
            print(
                f"{workload:20} {name:18} "
                f"{'%.6g [%.6g,%.6g]' % row['parent']:32} {'%.6g [%.6g,%.6g]' % row['change']:32} "
                f"{row['worse_by']:+9.2%} {row['wins']:5.0%}  {row['verdict']}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
