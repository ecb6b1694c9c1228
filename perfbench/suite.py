"""Run every workload over several seeds and print every metric with its unit.

    python3 perfbench/suite.py --seeds 1-10 --out results.jsonl
    python3 perfbench/suite.py --seeds 1-3 --trace 1 --out traced.jsonl

Each run is a fresh ``run.py`` process, so peak memory belongs to one
workload. Workloads are interleaved seed by seed. The table gives, per
workload and metric, the median, the quartiles and their distance as a share
of the median (the spread); a spread above a third of the metric's bound is
marked ``noisy``. ``fail_ratio`` is failed tasks over attempted tasks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import BENCHMARK, fail_ratio, fmt, load_records, summary

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all", help="comma-separated names, or all")
    ap.add_argument("--seeds", default="1-3", help="e.g. 1-10 or 1,5,9")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="JSONL file the run records are appended to")
    args = ap.parse_args(argv)
    workloads = names if args.workloads == "all" else args.workloads.split(",")

    ok = True
    for seed in parse_seeds(args.seeds):
        for wl in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                ok = False
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"{wl} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            ok = ok and result["correct"]

    records = [r for r in load_records(args.out) if r["trace"] == args.trace]
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    for wl in workloads:
        runs = [r for r in records if r["workload"] == wl]
        if not runs:
            continue
        print(f"\n== {wl}: {len(runs)} runs, fail_ratio {fmt(fail_ratio(runs, wl))}")
        if args.trace == 0:
            tail = runs[-1]["task_s"]
            print(f"   task_s.tail is p{tail['tail_percentile']:.1f} of {tail['tasks']} tasks")
        for m in specs:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if not values:
                continue
            med, q1, q3, spread = summary(values)
            note = ""
            if "bound" in m and spread > m["bound"] / 3:
                note = "  noisy"
            print(f"   {m['name']:<42} {m['unit']:<10} median {fmt(med):>10}  "
                  f"[{fmt(q1)}, {fmt(q3)}]  spread {spread:6.1%}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
