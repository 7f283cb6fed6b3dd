"""One cold benchmark process: import permap, run one workload, print the result.

    python3 bench/child.py ROOT WORKLOAD SEED TRACE SPANS_PATH

ROOT is the checkout whose ``src/permap`` is measured.  TRACE 1 records
spans around permap's public functions (tracing.py) and writes them to
SPANS_PATH.  The last line of standard output is one JSON object; run.py
spawns this script and reads it.  Times are CLOCK_MONOTONIC stamps,
comparable with the parent's.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    root, workload, seed, trace, spans_path = argv
    sys.path.insert(0, os.path.join(root, "src"))
    import permap
    import permap.cli
    ready = time.monotonic()

    src = os.path.realpath(os.path.join(root, "src", "permap"))
    if os.path.dirname(os.path.realpath(permap.__file__)) != src:
        print(f"permap imported from {permap.__file__}, not {src}", file=sys.stderr)
        return 2
    import runpy

    import numpy
    import scipy

    import calibrate
    import tracing
    import workloads

    refs = runpy.run_path(os.path.join(root, "tests", "reference_tables.py"))
    modules = {layer: sys.modules[f"permap.{layer}"] for layer in tracing.LAYERS}
    tracer = None
    if trace == "1":
        tracer = tracing.Tracer(memory=tracing.RssSampler())
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in tracing.public_functions(module, layer):
                wrappers[name] = (fn, tracer.wrap(name, fn))
        tracing.install(wrappers)
    observer = workloads.Observer()
    checked = {}
    for name in workloads.OBSERVED:
        layer, attr = name.split(".")
        current = getattr(modules[layer], attr)
        checked[name] = (current, observer.wrap(current))
    tracing.install(checked)

    ops = workloads.build(workload, int(seed), refs)
    calibrator = calibrate.Calibrator()
    first, cpu = time.monotonic(), time.process_time()
    attempted, failed, problems = workloads.run_ops(ops, observer, calibrator.after_op)
    calibrator.close()
    last, cpu = time.monotonic(), time.process_time() - cpu

    result = {"ready": ready, "versions": {"python": sys.version.split()[0],
                                           "numpy": numpy.__version__,
                                           "scipy": scipy.__version__}}
    kernels = [before for _, before, _ in calibrator.segments] + [calibrator.last]
    result.update(first=first, last=last, cpu_s=cpu, attempted=attempted, failed=failed,
                  wall_s=calibrator.scaled_s(), raw_wall_s=calibrator.raw_s(),
                  kernel_s=kernels,
                  problems=problems, pmfs_checked=observer.checked,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.memory.close()
        metrics, labels = tracer.function_metrics(tracing.REPORTED)
        metrics.update(tracer.layer_self_s())
        memo_stats = getattr(modules["exact"], "memo_stats", None)
        metrics["exact.memo_entries"] = sum(memo_stats().values()) if memo_stats else 0
        metrics["trace.top_busy_s"] = tracer.top_busy_s()
        metrics["trace.wall_s"] = calibrator.raw_s()
        result["layers"] = metrics
        result["tail_labels"] = labels
        result["memo_stats_present"] = memo_stats is not None
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as handle:
            json.dump({"workload": workload, "seed": int(seed), "first": first,
                       "last": last, "spans": tracer.span_records()}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
