"""Standalone invariant suite.

Covers the structural properties promised by the library: exact mass
conservation, support bounds, rank monotonicity, the Stirling identity for
the harmonic correction term, normalization of the limit densities, and
the ordering/range of the Dickman family -- plus randomized checks of the
small algebraic helpers.  Runnable on its own: `pytest tests/test_properties.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from permap import exact
from permap.asymptotics import density_f, density_g, dickman, largest_cdf
from permap.kinds import (
    ObjectKind,
    Side,
    first_component_split,
    total_count,
)
from permap.ktp import delta, harmonic, stirling_cycle
from permap.stats import ComponentPMF, summarize
from test_kinds import first_component_split_exact

P = ObjectKind.PERMUTATION
M = ObjectKind.MAPPING
L = Side.LARGEST
S = Side.SMALLEST

N_FULL = 60


# ---------------------------------------------------------------------------
# exact-engine structure


def test_mass_conservation_full_grid() -> None:
    for kind in (P, M):
        for r in (1, 2, 3, 4):
            for n in range(0, N_FULL + 1):
                total = total_count(kind, n)
                largest = exact.largest_poly(kind, n, (0,) * r)
                smallest = exact.smallest_poly(kind, n, (exact.INFINITY,) * r)
                assert sum(largest.coeffs) == total, (kind, r, n, "largest")
                assert sum(smallest.coeffs) == total, (kind, r, n, "smallest")


def test_support_bounds_and_attainment() -> None:
    for kind in (P, M):
        for r in (1, 2, 3, 4):
            for n in range(1, N_FULL + 1):
                largest = exact.pmf(kind, n, r, L).probs
                assert len(largest) == n // r + 1
                assert largest[n // r] > 0  # the bound is tight
                smallest = exact.pmf(kind, n, r, S).probs
                assert len(smallest) == max(n - r + 2, 1)
                if n >= r:
                    assert smallest[n - r + 1] > 0


def test_rank_monotonicity_of_largest_cdf() -> None:
    # the (r+1)-th largest component never exceeds the r-th largest, so its
    # CDF dominates pointwise
    for kind in (P, M):
        for n in range(1, 41):
            for r in (1, 2, 3):
                lo = exact.pmf(kind, n, r, L).cdf()
                hi = exact.pmf(kind, n, r + 1, L).cdf()
                for k in range(min(len(lo), len(hi))):
                    assert hi[k] >= lo[k], (kind, n, r, k)


def test_float_engine_agreement_full_grid() -> None:
    for kind in (P, M):
        for r in (1, 2, 3, 4):
            for n in range(1, N_FULL + 1):
                want = exact.pmf(kind, n, r, L).probs
                got = exact.pmf_float(kind, n, r, L).probs
                assert max(abs(a - float(b)) for a, b in zip(got, want)) <= 1e-10
                want = exact.pmf(kind, n, r, S).probs
                got = exact.pmf_float(kind, n, r, S).probs
                assert max(abs(a - float(b)) for a, b in zip(got, want)) <= 1e-10


# ---------------------------------------------------------------------------
# correction-term identity


def test_stirling_identity_to_200() -> None:
    for r in (2, 3, 4):
        for n in range(r, 201):
            assert delta(r, 1, n) == stirling_cycle(n, r), (r, n)


# ---------------------------------------------------------------------------
# limit densities and the Dickman family


def breakpoints(lo: float, hi: float) -> list[float]:
    # the densities are piecewise smooth with joints where 1/x - 1 is an integer
    return [1 / (m + 1) for m in range(1, 60) if lo < 1 / (m + 1) < hi]


def test_density_f_integrates_to_one() -> None:
    total, err = quad(density_f, 0.02, 1, points=breakpoints(0.02, 1), limit=200)
    # below 0.02 the integrand is smaller than the first-order function at
    # argument 49, which is far beyond any float tolerance
    assert abs(total - 1.0) <= 1e-9
    assert err <= 1e-9


def test_density_g_integrates_to_one() -> None:
    # g is supported on (0, 1/2] and, unlike f, keeps Theta(1) mass near the
    # origin: u * rho_2(u) -> e^gamma, so the CDF is ~ e^gamma * x for small
    # x.  Integrate over the tabulated window [1/40, 1/2] and require that
    # the density mass plus the left-tail CDF mass account for everything,
    # with the left tail itself close to its classical e^gamma/40 estimate.
    lo = 1.0 / 40.0
    total, err = quad(density_g, lo, 0.5, points=breakpoints(lo, 0.5), limit=200)
    left_mass = largest_cdf(2, lo)
    assert abs(total + left_mass - 1.0) <= 1e-8
    assert err <= 1e-8
    assert 0.95 < left_mass / (math.exp(np.euler_gamma) / 40.0) < 1.10


def test_density_f_unimodal_shape() -> None:
    rising = np.linspace(0.345, 0.495, 40)
    for a, b in zip(rising, rising[1:]):
        assert density_f(float(a)) < density_f(float(b))
    falling = np.linspace(0.505, 0.995, 40)
    for a, b in zip(falling, falling[1:]):
        assert density_f(float(a)) > density_f(float(b))


def test_dickman_range_and_ordering_on_grid() -> None:
    grid = np.arange(0.0, 40.0001, 0.25)
    values = {r: [dickman(r, float(x)) for x in grid] for r in (1, 2, 3, 4)}
    for r in (1, 2, 3, 4):
        for v in values[r]:
            assert 0.0 <= v <= 1.0
        # nonincreasing in x
        for a, b in zip(values[r], values[r][1:]):
            assert b <= a + 1e-12
    for r in (2, 3, 4):
        for low, high in zip(values[r - 1], values[r]):
            assert high >= low - 1e-12


# ---------------------------------------------------------------------------
# randomized algebraic properties


finite_windows = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6)
sizes = st.integers(min_value=1, max_value=25)


@given(finite_windows, st.integers(min_value=1, max_value=40))
@settings(max_examples=100, deadline=None)
def test_promote_drops_smallest(window, j) -> None:
    got = exact.promote(window, j)
    pool = sorted(window + [j])
    assert len(got) == len(window)
    assert list(got) == sorted(got)
    assert sorted(list(got) + [pool[0]]) == pool


@given(finite_windows, st.integers(min_value=1, max_value=40))
@settings(max_examples=100, deadline=None)
def test_demote_drops_largest(window, j) -> None:
    got = exact.demote(window, j)
    pool = sorted(window + [j])
    assert len(got) == len(window)
    assert list(got) == sorted(got)
    assert sorted(list(got) + [pool[-1]]) == pool


@given(st.integers(min_value=1, max_value=300))
@settings(max_examples=60, deadline=None)
def test_harmonic_matches_direct_sum(j) -> None:
    assert harmonic(j) == sum(Fraction(1, i) for i in range(1, j + 1))


@given(st.sampled_from([P, M]), sizes)
@settings(max_examples=60, deadline=None)
def test_first_component_split_is_a_distribution(kind, n) -> None:
    exact_split = first_component_split_exact(kind, n)
    assert sum(exact_split) == 1
    floats = first_component_split(kind, n)
    assert abs(sum(floats) - 1.0) <= 1e-12


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12).filter(lambda w: sum(w) > 0))
@settings(max_examples=150, deadline=None)
def test_median_and_mode_conventions(weights) -> None:
    total = sum(weights)
    probs = tuple(Fraction(w, total) for w in weights)
    dist = ComponentPMF(P, len(weights), 1, L, probs)
    got = summarize(dist)
    # median: the greatest node whose CDF is still strictly below one half
    reference = 0
    acc = Fraction(0)
    for k, p in enumerate(probs):
        acc += p
        if acc < Fraction(1, 2):
            reference = k
        else:
            break
    assert got.median == reference
    # mode: the least maximizer
    peak = max(probs)
    assert got.mode == min(k for k, p in enumerate(probs) if p == peak)

