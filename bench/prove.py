"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py --seeds 10                     # every workload
    python3 bench/prove.py --workloads library --seeds 5
    python3 bench/prove.py --seeds 10 --out bench/baseline.json

Seeds run 1..N, each for BENCHMARK.json's run_seconds.  For every workload and end-to-end metric it prints the median over seeds,
the quartiles (statistics.quantiles(values, n=4)) and the interquartile
range as a share of the median, next to the metric's bound from
BENCHMARK.json.  A spread above a third of its bound is flagged.  --out
writes every run's result line, its children's scaled and raw wall times
and kernel times, and these summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", help="write runs and summaries to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"command": spec["command"], "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            started = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            took = time.monotonic() - started
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            text = proc.stdout.strip().splitlines()
            line = json.loads(text[-1])
            children = {key: next(t for t in text if t.startswith(f"{key} ")).split()[1:]
                        for key in ("walls_s", "raw_walls_s", "kernels_s")}
            runs.append({"seed": seed, "run_s": took, "child_walls_s": children["walls_s"],
                         "child_raw_walls_s": children["raw_walls_s"],
                         "child_kernels_s": children["kernels_s"], "result": line})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()
                              if k in bounds)
            print(f"{workload} seed {seed}: {took:.0f} s correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} {values}", flush=True)
        summary = {}
        if len(runs) >= 2:
            for metric, bound in bounds.items():
                stats = spread([r["result"]["metrics"][metric]["value"] for r in runs])
                stats["bound"] = bound
                summary[metric] = stats
                flag = "" if stats["iqr_share"] < bound / 3 else "  <-- above a third of bound"
                steady &= not flag or metric == "setup_s"
                print(f"{workload} {metric}: median {stats['median']:.4g} "
                      f"IQR/median {stats['iqr_share']:.3f} (bound {bound}){flag}")
        doc["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print("steady" if steady else "not steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
