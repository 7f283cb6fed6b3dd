"""Tests of the benchmark's own logic.  Run: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import random
import runpy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from permap import exact, stats  # noqa: E402
from permap.kinds import ObjectKind, Side  # noqa: E402


@pytest.fixture(scope="module")
def refs() -> dict:
    return runpy.run_path(str(ROOT / "tests" / "reference_tables.py"))


# ---------------------------------------------------------------------------
# tail percentile rule

def test_tail_needs_ten_samples_beyond_it() -> None:
    assert tracing.tail_percentile(range(1, 20)) == (None, 0.0, 19)
    # 20 samples: p50 is rank 10, with 10 beyond it
    assert tracing.tail_percentile(range(1, 21)) == (50.0, 10, 20)
    # 100 samples: p90 is rank 90 with exactly 10 beyond; p99 has only 1
    assert tracing.tail_percentile(range(1, 101)) == (90.0, 90, 100)
    assert tracing.tail_percentile(range(1, 1000)) == (90.0, 900, 999)
    assert tracing.tail_percentile(range(1, 1001)) == (99.0, 990, 1000)


def test_tail_is_order_free() -> None:
    samples = [5, 1, 4, 2, 3] * 8
    assert tracing.tail_percentile(samples) == tracing.tail_percentile(sorted(samples))


# ---------------------------------------------------------------------------
# grow / reuse classification

def test_grow_classifier_on_a_hand_made_stream() -> None:
    clf = tracing.GrowClassifier()
    stream = [(("m", "L", 2), 100, True), (("m", "L", 2), 50, False),
              (("m", "L", 2), 100, False), (("m", "S", 2), 50, True),
              (("m", "L", 3), 10, True), (("m", "L", 2), 101, True),
              (("m", "L", 2), 101, False), (("p", "L", 2), 5, True)]
    assert [clf.classify(key, n) for key, n, _ in stream] == [g for _, _, g in stream]


def test_traced_engine_calls_split_into_grow_and_reuse() -> None:
    tracer = tracing.Tracer()
    fn = tracer.wrap("exact.pmf_float", exact.pmf_float)
    M = ObjectKind.MAPPING
    for n in (10, 5, 12, 12):
        fn(M, n, 2, Side.LARGEST)
    fn(kind=M, n=3, r=2, side=Side.SMALLEST)
    m, _ = tracer.function_metrics(["exact.pmf_float"])
    assert m["exact.pmf_float.calls"] == 5
    assert m["exact.pmf_float.grow_calls"] == 3
    assert m["exact.pmf_float.grow_s"] + m["exact.pmf_float.reuse_s"] == pytest.approx(
        m["exact.pmf_float.busy_s"])


def test_spans_nest_and_self_time_adds_up() -> None:
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("stats.summarize", lambda x: x)
    outer = tracer.wrap("cli.main", lambda: inner(1) + inner(2))
    outer()
    spans = tracer.span_records()
    assert [s["name"] for s in spans] == ["cli.main", "stats.summarize", "stats.summarize"]
    assert [s["parent"] for s in spans] == [None, 0, 0]
    # outer 0..5, inners 1..2 and 3..4: outer self time is 5 - 2
    assert tracer.layer_self_s()["cli.self_s"] == 3.0
    assert tracer.layer_self_s()["stats.self_s"] == 2.0
    assert tracer.top_busy_s() == 5.0


def test_install_rebinds_names_imported_elsewhere() -> None:
    import permap.cli
    tracer = tracing.Tracer()
    original = stats.summarize
    wrappers = {"stats.summarize": (original, tracer.wrap("stats.summarize", original))}
    try:
        assert tracing.install(wrappers) >= 3  # stats, cli, the package namespace
        assert permap.cli.summarize is wrappers["stats.summarize"][1]
        permap.cli.main(["table", "--kind", "permute", "--rank", "2", "--n", "5",
                         "--engine", "exact", "--format", "csv"])
        assert len(tracer.spans) == 2
    finally:
        tracing.install({"x": (wrappers["stats.summarize"][1], original)})
    assert permap.cli.summarize is original


# ---------------------------------------------------------------------------
# output checks and error_rate

def test_injected_wrong_reference_is_one_failed_operation(refs) -> None:
    bad = dict(refs)
    bad["MAP_STATS_R4"] = dict(refs["MAP_STATS_R4"])
    row = list(bad["MAP_STATS_R4"][100])
    row[0] += 1e-3
    bad["MAP_STATS_R4"][100] = tuple(row)
    ops = [workloads._table_op("mapping", "exact-float", 4, (100,), bad,
                               workloads.map_row_problems),
           workloads._constants_op(refs)]
    attempted, failed, problems = workloads.run_ops(ops, workloads.Observer())
    assert (attempted, failed) == (2, 1)
    assert "L_mu_norm" in problems[0]


def test_raising_operation_counts_as_failed() -> None:
    def boom() -> list[str]:
        raise ValueError("bad request")
    attempted, failed, problems = workloads.run_ops(
        [("ok", lambda: []), ("boom", boom)], workloads.Observer())
    assert (attempted, failed) == (2, 1)
    assert "ValueError" in problems[0]


def test_outside_pmf_check_flags_length_sign_and_mass() -> None:
    good = exact.pmf_float(ObjectKind.MAPPING, 6, 2, Side.SMALLEST)
    assert workloads.pmf_problems(good) == []
    assert workloads.pmf_problems(exact.pmf(ObjectKind.PERMUTATION, 6, 2, Side.LARGEST)) == []
    short = stats.ComponentPMF(good.kind, 6, 2, Side.SMALLEST, good.probs[:-1])
    assert any("length" in p for p in workloads.pmf_problems(short))
    probs = list(good.probs)
    probs[1] -= 1e-6
    probs[2] += 1e-6 - 1e-3
    skew = stats.ComponentPMF(good.kind, 6, 2, Side.SMALLEST, tuple(probs))
    found = workloads.pmf_problems(skew)
    assert any("mass" in p for p in found)
    probs[3] = -0.5
    assert any("negative" in p for p in workloads.pmf_problems(
        stats.ComponentPMF(good.kind, 6, 2, Side.SMALLEST, tuple(probs))))


def test_scan_stream_grows_only_at_anchors_for_every_seed() -> None:
    for seed in (1, 2, 3):
        stream = workloads.scan_stream(random.Random(seed))
        assert len(stream) == 2 * 4 * 2 * workloads.SCAN_N
        clf = tracing.GrowClassifier()
        grows = [n for kind, n, r, side in stream if clf.classify((kind, r, side), n)]
        assert sorted(set(grows)) == list(workloads.SCAN_ANCHORS)
        assert len(grows) == 16 * len(workloads.SCAN_ANCHORS)
    assert (workloads.scan_stream(random.Random(1))
            != workloads.scan_stream(random.Random(2)))


# ---------------------------------------------------------------------------
# calibration

def test_calibrator_scales_each_segment_by_its_own_kernels() -> None:
    kernels = iter([0.09, 0.18, 0.09])
    cal = calibrate.Calibrator(clock=lambda: next(kernels), warmup=0)
    for seconds in (0.3, 0.3, 0.2):  # one segment of 0.6 s (>= SEGMENT_S), then 0.2 s
        cal.after_op(seconds)
    cal.close()
    assert cal.segments == [(0.6, 0.09, 0.18), (0.2, 0.18, 0.09)]
    assert cal.raw_s() == pytest.approx(0.8)
    # kernels averaging 0.135 s: the machine ran at 2/3 of the reference speed
    ref = calibrate.REFERENCE_S
    assert cal.scaled_s() == pytest.approx(0.8 * ref / 0.135)
    cal.close()  # nothing new ran: no empty segment
    assert len(cal.segments) == 2


def test_run_ops_reports_each_operation_time() -> None:
    seen = []
    workloads.run_ops([("a", lambda: []), ("b", lambda: ["bad"])], workloads.Observer(),
                      seen.append)
    assert len(seen) == 2 and all(s >= 0 for s in seen)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints

def test_benchmark_json_matches_the_runner() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert len(spec["per_layer"]) <= 128


def test_rss_sampler_sees_a_table_held_during_the_call() -> None:
    import numpy as np
    sampler = tracing.RssSampler()
    tracer = tracing.Tracer(memory=sampler)
    held = []
    build = tracer.wrap("exact.pmf_float", lambda kind, n, r, side: held.append(np.ones(n)))
    try:
        build(ObjectKind.MAPPING, 8 * 2**20, 2, Side.LARGEST)  # 64 MiB of float64
    finally:
        sampler.close()
    metrics, _ = tracer.function_metrics(["exact.pmf_float"])
    assert metrics["exact.pmf_float.peak_alloc_mb"] > 60
