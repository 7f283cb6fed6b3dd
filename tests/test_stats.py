"""Summary statistics: conventions for mean, variance, median, mode."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from permap.exact import pmf
from permap.kinds import ObjectKind, Side
from permap.stats import ComponentPMF, summarize

P = ObjectKind.PERMUTATION
M = ObjectKind.MAPPING
L = Side.LARGEST
S = Side.SMALLEST


def synthetic(probs, *, kind=P, n=50, rank=2, side=L) -> ComponentPMF:
    return ComponentPMF(kind, n, rank, side, tuple(probs))


def test_small_exact_moments() -> None:
    got = summarize(pmf(P, 4, 2, L))
    assert got.mean == Fraction(7, 8)
    assert got.variance == Fraction(23, 64)
    assert got.mode == 1
    assert got.normalized_mean == Fraction(7, 8) / 4
    assert got.normalized_variance == Fraction(23, 64) / 16


def test_median_is_floor_of_cdf_crossing() -> None:
    # the greatest k whose CDF is still below one half
    assert summarize(synthetic([0.3, 0.3, 0.4])).median == 0
    assert summarize(synthetic([0.1, 0.2, 0.3, 0.4])).median == 1
    assert summarize(synthetic([0.1, 0.1, 0.1, 0.7])).median == 2
    assert summarize(synthetic([0.6, 0.4])).median == 0
    # when the CDF lands exactly on 1/2 the node itself is not below it
    assert summarize(synthetic([Fraction(1, 2), Fraction(1, 2)])).median == 0
    assert summarize(synthetic([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])).median == 0
    assert summarize(synthetic([0.25, 0.25, 0.5])).median == 0  # a float CDF on 0.5 exactly
    # a CDF below one half throughout: the last index
    assert summarize(synthetic([0.1, 0.1, 0.1])).median == 2


def test_median_transition_small_permutations() -> None:
    # raw median of the second-smallest cycle steps from 1 to 2 after n=17
    assert summarize(pmf(P, 17, 2, S)).median == 1
    assert summarize(pmf(P, 18, 2, S)).median == 2


def test_mode_prefers_least_maximizer() -> None:
    assert summarize(synthetic([0.4, 0.4, 0.2])).mode == 0
    assert summarize(synthetic([0.2, 0.4, 0.4])).mode == 1
    assert summarize(synthetic([1.0])).mode == 0


def test_largest_side_normalization() -> None:
    got = summarize(synthetic([0.0, 0.5, 0.25, 0.25], kind=P, n=50, side=L))
    mean = 0.5 + 0.5 + 0.75
    var = (0.5 + 1.0 + 2.25) - mean * mean
    assert math.isclose(got.normalized_mean, mean / 50)
    assert math.isclose(got.normalized_variance, var / 2500)
    assert math.isclose(got.normalized_median, got.median / 50)
    assert got.normalized_mode == got.mode / 50


def test_smallest_side_normalization_permutation() -> None:
    got = summarize(synthetic([0.0, 0.5, 0.25, 0.25], kind=P, n=50, rank=3, side=S))
    mean = 0.5 + 0.5 + 0.75
    var = (0.5 + 1.0 + 2.25) - mean * mean
    log = math.log(50)
    assert math.isclose(got.normalized_mean, mean / log**3)
    assert math.isclose(got.normalized_variance, var / (50 * log**2))
    assert math.isclose(got.normalized_median, got.median / 50)
    assert got.normalized_mode == got.mode  # reported raw


def test_smallest_side_normalization_mapping() -> None:
    got = summarize(synthetic([0.0, 0.5, 0.25, 0.25], kind=M, n=50, rank=2, side=S))
    mean = 0.5 + 0.5 + 0.75
    var = (0.5 + 1.0 + 2.25) - mean * mean
    log = math.log(50)
    assert math.isclose(got.normalized_mean, mean / (math.sqrt(50) * log))
    assert math.isclose(got.normalized_variance, var / (50**1.5 * log))


def test_smallest_side_normalization_past_the_float_range() -> None:
    # log(1000)^368 overflows a float, yet mean / log(n)^r is ~4e-307; at
    # n = 2, log(2)^2500 underflows to 0 beside a mean of exactly 0
    probs = [0.0] * 500 + [1.0]
    got = summarize(synthetic(probs, n=1000, rank=368, side=S))
    want = Decimal(500) / Decimal(math.log(1000)) ** 368
    assert math.isclose(got.normalized_mean, float(want), rel_tol=1e-9)
    assert got.normalized_variance == 0.0
    for kind in (P, M):
        got = summarize(synthetic([1.0], kind=kind, n=2, rank=2500, side=S))
        assert (got.normalized_mean, got.normalized_variance) == (0.0, 0.0)


def test_single_node_smallest_normalization_is_nan() -> None:
    got = summarize(pmf(P, 1, 2, S))
    assert math.isnan(got.normalized_mean)


def test_cdf_method_matches_cumulative_sums() -> None:
    dist = pmf(P, 6, 2, L)
    acc = Fraction(0)
    for k, p in enumerate(dist.probs):
        acc += p
        assert dist.cdf()[k] == acc
