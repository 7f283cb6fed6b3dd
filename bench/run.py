"""permap benchmark: cold-process runs of the paper's workloads, checked and timed.

    python3 bench/run.py --workload tables --seed 1 --seconds 60 --trace 0

Each run spawns fresh interpreters one after another (one sequential load
generator, never two children at once) until --seconds is used up, with a
floor of MIN_CHILDREN.  Every child imports permap from this checkout's
``src``, runs the whole workload once and checks every output (workloads.py).
A cold process is the point: every ``permap table`` call and every new
library session pays the table builds again, and a warm-up would hide them.

--trace 0 prints the end-to-end metrics: medians over the children of
wall_s (first request to last checked output, scaled to a reference
machine speed by calibrate.py), setup_s (spawn to ``import permap,
permap.cli`` done) and peak_rss_mb (RUSAGE_SELF read inside each child).  --trace 1 cycles
through plain and traced children and prints the per-layer metrics of the
traced ones (tracing.py), with trace_overhead_s = traced minus plain
median wall.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 means the checkout
holds no permap sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "library")
MIN_CHILDREN = 3      # plain children per trace-0 run, whatever --seconds says
CHILD_TIMEOUT = 170   # seconds; a run must end within 180
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LIMITS = ("file cache not dropped and CPUs not pinned: both need machine "
          "settings this benchmark does not change")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_names() -> list[str]:
    names = []
    for fn in tracing.REPORTED:
        names += [f"{fn}.{m}" for m in tracing.FUNCTION_METRICS]
        if fn in tracing.TABLE_ENGINES:
            names += [f"{fn}.{m}" for m in tracing.ENGINE_METRICS]
    names += [f"{layer}.self_s" for layer in tracing.LAYERS]
    return names + ["exact.memo_entries", "trace.top_busy_s", "trace.wall_s",
                    "trace_overhead_s"]


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PERMAP_CACHE", None)  # the on-disk cache must do no work
    env.pop("PYTHONPATH", None)    # the child puts this checkout's src first itself
    return env


def spawn(workload: str, seed: int, trace: int, spans: Path, budget: float) -> dict:
    """One cold child, start to exit; returns its JSON result plus setup_s."""
    argv = [sys.executable, str(HERE / "child.py"), str(ROOT), workload, str(seed),
            str(trace), str(spans)]
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(budget, 5.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"{workload} child timed out after {budget:.0f} s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{workload} child exit {proc.returncode}: {err.strip()[-500:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    result["spawn_to_exit_s"] = time.monotonic() - start
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Spawn children until the time is used up; medians of what they report.

    A trace run alternates plain and traced children; trace_overhead_s is
    the traced median wall minus the plain one.
    """
    started = time.monotonic()
    deadline = started + seconds

    def left() -> float:
        return CHILD_TIMEOUT - (time.monotonic() - started)

    spans = HERE / "out" / f"spans-{workload}-{seed}.json"
    setups = []
    cycle_modes = (0, 1) if trace else (0,)
    children: dict[int, list[dict]] = {mode: [] for mode in cycle_modes}
    errors = []
    while not errors:
        for mode in cycle_modes:
            res = spawn(workload, seed, mode, spans, left())
            if "error" in res:
                errors.append(res["error"])
                break
            setups.append(res["setup_s"])
            children[mode].append(res)
        cycle = sum(statistics.median(r["spawn_to_exit_s"] for r in runs)
                    for runs in children.values() if runs)
        now = time.monotonic()
        enough = trace or len(children[0]) >= MIN_CHILDREN
        if (enough and now + cycle > deadline) or now - started + cycle > CHILD_TIMEOUT - 5:
            break

    plain = children[0]
    everyone = [r for runs in children.values() for r in runs]
    attempted = sum(r["attempted"] for r in everyone) + len(errors)
    failed = sum(r["failed"] for r in everyone) + len(errors)
    report = {
        "workload": workload, "seed": seed, "children": len(plain),
        "traced_children": len(everyone) - len(plain), "attempted": attempted,
        "failed": failed,
        "ops_per_child": plain[0]["attempted"] if plain else 0,
        "pmfs_checked_per_child": plain[0]["pmfs_checked"] if plain else 0,
        "problems": (errors + [p for r in everyone for p in r["problems"]])[:20],
        "versions": plain[0]["versions"] if plain else {}, "seconds": time.monotonic() - started,
        "walls": [r["wall_s"] for r in plain],
        "raw_walls": [r["raw_wall_s"] for r in plain],
        "kernels": [statistics.median(r["kernel_s"]) for r in plain],
        "cpus": [r["cpu_s"] for r in plain],
        "setups": setups,
    }
    if not plain:
        return report
    report["metrics"] = {
        "wall_s": statistics.median(report["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if trace and children[1]:
        timed = children[1]
        layers = {name: statistics.median(r["layers"][name] for r in timed)
                  for name in timed[0]["layers"]}
        layers["trace_overhead_s"] = (statistics.median(r["wall_s"] for r in timed)
                                      - report["metrics"]["wall_s"])
        report["layers"] = layers
        report["tail_labels"] = timed[-1]["tail_labels"]
        report["top_busy_ok"] = all(r["layers"]["trace.top_busy_s"] <= r["layers"]["trace.wall_s"]
                                    for r in timed)
        report["memo_stats_present"] = timed[-1]["memo_stats_present"]
        report["spans_file"] = str(spans.relative_to(ROOT))
    return report


def environment(versions: dict) -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in BLAS_ENV)
    pins = " ".join(f"{k}={v}" for k, v in versions.items())
    return f"nproc={os.cpu_count()} cpu={cpu!r} {pins} {blas}"


def describe(report: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    lines = [f"workload {report['workload']} seed {report['seed']}: "
             f"{report['children']} plain + {report['traced_children']} traced cold "
             f"children, sequential, {report['seconds']:.1f} s",
             f"env {environment(report['versions'])}", f"note {LIMITS}",
             f"note wall_s is operation time scaled to a calibration kernel time of "
             f"{calibrate.REFERENCE_S} s; raw_walls_s is as measured, kernels_s is "
             f"each child's median kernel time"]
    rate = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    lines.append(f"ops {report['ops_per_child']} per child ({report['attempted']} attempted, "
                 f"{report['pmfs_checked_per_child']} PMFs checked per child)")
    lines.append(f"error_rate {rate:.6g} (failed/attempted = {report['failed']}/"
                 f"{report['attempted']})")
    for name, unit in END_TO_END.items():
        if name in report.get("metrics", {}):
            lines.append(f"{name} {report['metrics'][name]:.6g} {unit}")
    lines.append("walls_s " + " ".join(f"{w:.3f}" for w in report["walls"]))
    lines.append("raw_walls_s " + " ".join(f"{w:.3f}" for w in report["raw_walls"]))
    lines.append("kernels_s " + " ".join(f"{k:.4f}" for k in report["kernels"]))
    lines.append("cpus_s " + " ".join(f"{c:.3f}" for c in report["cpus"]))
    lines.append("setups_s " + " ".join(f"{s:.3f}" for s in report["setups"]))
    if trace and "layers" in report:
        for name, value in report["layers"].items():
            label = ""
            if name.endswith(".tail_ms"):
                label = f"  [{report['tail_labels'].get(name[:-len('.tail_ms')], '')}]"
            lines.append(f"layer {name} {value:.6g} {unit_of(name)}{label}")
        lines.append(f"top-level busy <= wall in every traced child: {report['top_busy_ok']}")
        if not report["memo_stats_present"]:
            lines.append("exact.memo_stats is gone: exact.memo_entries reads 0")
        lines.append(f"spans written to {report['spans_file']}")
    for problem in report["problems"]:
        lines.append(f"problem {problem}")
    return lines


def result_line(report: dict, trace: bool) -> dict:
    correct = (report["failed"] == 0 and "metrics" in report
               and (not trace or report.get("top_busy_ok", False)))
    if trace:
        names = per_layer_names()
        layers = report.get("layers", {})
        metrics = {n: {"value": layers.get(n, 0.0), "unit": unit_of(n)} for n in names}
    else:
        metrics = {n: {"value": report.get("metrics", {}).get(n, 0.0), "unit": u}
                   for n, u in END_TO_END.items()}
    return {"correct": correct, "attempted": max(report["attempted"], 1),
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/permap/__init__.py", "tests/reference_tables.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: nothing to measure, {', '.join(missing)} not found under {ROOT}",
              file=sys.stderr)
        return 2

    trace = bool(args.trace)
    report = run_workload(args.workload, args.seed, args.seconds, trace)
    for line in describe(report, trace):
        print(line, flush=True)
    print(json.dumps(result_line(report, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
