"""Summarise the run records in bench/results/ per workload.

    python3 bench/report.py [bench/results]

For each workload: the number of untraced runs, then for every end-to-end
metric its median, first and third quartile and the spread (third minus first
quartile, as a share of the median); the tracing overhead (median traced
`trace.wall_s` minus median untraced `wall_s`, both on the host-speed clock);
and each operation's share of the untraced `wall_s`.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    folder = Path(argv[0]) if argv else Path(__file__).resolve().parent / "results"
    records = [json.loads(p.read_text()) for p in sorted(folder.glob("*.json"))]
    by_workload = defaultdict(lambda: {0: [], 1: []})
    for rec in records:
        by_workload[rec["workload"]][rec["trace"]].append(rec)

    for workload, runs in sorted(by_workload.items()):
        plain, traced = runs[0], runs[1]
        print(f"## {workload}: {len(plain)} untraced run(s), {len(traced)} traced run(s)")
        if plain:
            seeds = sorted(r["seed"] for r in plain)
            failed = {(r["failed"], r["attempted"]) for r in plain}
            print(f"seeds {seeds}; failed/attempted {sorted(failed)}; "
                  f"all correct: {all(r['correct'] for r in plain)}")
            print("| metric | unit | median | Q1 | Q3 | spread (Q3-Q1)/median |")
            print("|---|---|---|---|---|---|")
            for name, meta in plain[0]["metrics"].items():
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in plain])
                print(f"| {name} | {meta['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                      f"{(q3 - q1) / med:.2%} |")
            shares = defaultdict(list)
            for r in plain:
                total = sum(r["operation_median_s"].values())
                for op, sec in r["operation_median_s"].items():
                    shares[op].append(sec / total)
            if len(shares) > 1:
                print("\n| operation | share of wall_s (median over runs) |")
                print("|---|---|")
                for op, vals in shares.items():
                    print(f"| {op} | {statistics.median(vals):.1%} |")
        if plain and traced:
            untraced = statistics.median(r["metrics"]["wall_s"]["value"] for r in plain)
            tr = statistics.median(r["metrics"]["trace.wall_s"]["value"] for r in traced)
            print(f"\ntracing overhead: {tr - untraced:+.3f} s "
                  f"({(tr - untraced) / untraced:+.1%} of the untraced wall_s {untraced:.3f} s)")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
