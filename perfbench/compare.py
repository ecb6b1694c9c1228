"""Compare two sets of benchmark records, metric by metric and layer by layer.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as written by ``run.py --out`` or ``suite.py``.
For every workload and end-to-end metric it prints each side's median and
quartiles over the untraced runs, and the change of the medians as a share of
the base median. A change worse than the metric's bound in BENCHMARK.json is
flagged WORSE; where the base runs spread wider than the bound the metric is
UNRESOLVED unless every new run beats every base run. The per-layer metrics
of the traced runs follow side by side (medians), so a saving can be placed in
the layer that produced it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_values(records, workload, trace):
    """metric name -> list of values over the matching runs."""
    out = defaultdict(list)
    for rec in records:
        if rec["workload"] == workload and rec["trace"] == trace:
            for name, m in rec["metrics"].items():
                out[name].append(m["value"])
    return out


def summary(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def fail_ratio(records, workload):
    runs = [r for r in records if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(base, new, bound, better):
    b_med, _, _, b_spread = summary(base)
    n_med = summary(new)[0]
    sign = 1 if better == "lower" else -1
    change = sign * (n_med - b_med) / b_med
    beats_all = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if beats_all:
        return "better"
    if b_spread > bound:
        return "UNRESOLVED"
    if change > bound:
        return "WORSE"
    return "ok"


def fmt(v):
    return f"{v:.4g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    base, new = load_records(args.base), load_records(args.new)
    worse = 0
    for wl in [w["name"] for w in bench["workloads"]]:
        b_e2e, n_e2e = metric_values(base, wl, 0), metric_values(new, wl, 0)
        if not b_e2e and not n_e2e:
            continue
        print(f"== {wl}   fail_ratio base {fmt(fail_ratio(base, wl))}  new {fmt(fail_ratio(new, wl))}")
        print(f"{'metric':<14} {'unit':<4} {'base median [q1, q3]':<30} {'new median [q1, q3]':<30} "
              f"{'change':>8}  bound  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            if not b_e2e.get(name) or not n_e2e.get(name):
                continue
            bs, ns = summary(b_e2e[name]), summary(n_e2e[name])
            change = (ns[0] - bs[0]) / bs[0]
            v = verdict(b_e2e[name], n_e2e[name], m["bound"], m["better"])
            worse += v == "WORSE"
            print(f"{name:<14} {m['unit']:<4} "
                  f"{fmt(bs[0]) + ' [' + fmt(bs[1]) + ', ' + fmt(bs[2]) + ']':<30} "
                  f"{fmt(ns[0]) + ' [' + fmt(ns[1]) + ', ' + fmt(ns[2]) + ']':<30} "
                  f"{change:+8.1%}  {m['bound']:.2f}   {v}")
        b_tr, n_tr = metric_values(base, wl, 1), metric_values(new, wl, 1)
        if b_tr and n_tr:
            print(f"  per layer (traced medians; rows where either side is non-zero)")
            for m in bench["per_layer"]:
                name = m["name"]
                if name not in b_tr or name not in n_tr:
                    continue
                b, n = statistics.median(b_tr[name]), statistics.median(n_tr[name])
                if b == 0 and n == 0:
                    continue
                rel = f"{(n - b) / b:+.1%}" if b else "new"
                print(f"  {name:<42} {m['unit']:<10} {fmt(b):>12} {fmt(n):>12} {n - b:>+12.4g} {rel:>8}")
        print()
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
