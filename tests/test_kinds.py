"""Connected/total counts and the first-component size split."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from permap.kinds import (
    ObjectKind,
    Side,
    connected_count,
    exp_log_weights,
    first_component_split,
    total_count,
)

P = ObjectKind.PERMUTATION
M = ObjectKind.MAPPING

CONNECTED_MAPPINGS = {1: 1, 2: 3, 3: 17, 4: 142, 5: 1569}


def first_component_split_exact(kind: ObjectKind, n: int) -> tuple[Fraction, ...]:
    """The split P_n(j) = c_j C(n-1, j-1) t_{n-j} / t_n as exact rationals."""
    den = total_count(kind, n)
    return tuple(
        Fraction(connected_count(kind, j) * math.comb(n - 1, j - 1) * total_count(kind, n - j), den)
        for j in range(1, n + 1)
    )


def test_connected_permutations_are_single_cycles() -> None:
    for n in range(1, 12):
        assert connected_count(P, n) == math.factorial(n - 1)


def test_connected_mapping_counts() -> None:
    for n, expected in CONNECTED_MAPPINGS.items():
        assert connected_count(M, n) == expected


def test_connected_mapping_matches_term_sum() -> None:
    # The all-integer rearrangement sum_{j=1}^{n} (n-1)!/(n-j)! * n^(n-j)
    # must agree with a direct rational evaluation of n! * n^(n-j-1)/(n-j)!
    # (whose final term has the negative exponent that forces rationals).
    for n in range(1, 30):
        rational = sum(
            Fraction(math.factorial(n)) * Fraction(n) ** (n - j - 1) / math.factorial(n - j)
            for j in range(1, n + 1)
        )
        assert rational.denominator == 1
        assert connected_count(M, n) == rational.numerator


def test_connected_rejects_empty_object() -> None:
    for kind in (P, M):
        with pytest.raises(ValueError):
            connected_count(kind, 0)


def test_total_counts() -> None:
    assert total_count(P, 4) == 24
    assert total_count(M, 4) == 256
    assert total_count(M, 0) == 1
    assert total_count(P, 0) == 1
    for n in range(0, 10):
        assert total_count(P, n) == math.factorial(n)
        assert total_count(M, n) == (n**n if n else 1)


def test_first_component_split_exact_sums_to_one() -> None:
    for kind in (P, M):
        for n in range(1, 40):
            split = first_component_split_exact(kind, n)
            assert len(split) == n
            assert sum(split) == 1
            assert all(term > 0 for term in split)


def test_first_component_split_permutation_is_uniform() -> None:
    # The component containing a marked element of a random permutation has
    # size j with probability exactly 1/n for every j.
    for n in range(1, 20):
        assert first_component_split_exact(P, n) == tuple([Fraction(1, n)] * n)


def test_first_component_split_float_matches_exact() -> None:
    for kind in (P, M):
        for n in (1, 2, 3, 7, 25, 100, 400):
            floats = first_component_split(kind, n)
            exact = first_component_split_exact(kind, n)
            assert len(floats) == n
            for got, want in zip(floats, exact):
                assert got == pytest.approx(float(want), abs=1e-16, rel=1e-13)


def test_first_component_split_is_the_direct_formula_bit_for_bit() -> None:
    # the direct formula: comb for the binomial, powers and factorial
    # quotients recomputed per term, one shift-division per entry
    def connected(j: int) -> int:
        fact = math.factorial(j - 1)
        return sum(fact // math.factorial(j - i) * j ** (j - i) for i in range(1, j + 1))

    for n in range(1, 81):
        den = n**n
        want = tuple(
            math.ldexp((connected(j) * math.comb(n - 1, j - 1) * (n - j) ** (n - j) << 64) // den, -64)
            for j in range(1, n + 1)
        )
        assert first_component_split(M, n) == want


def test_first_component_split_rejects_empty() -> None:
    for kind in (P, M):
        with pytest.raises(ValueError):
            first_component_split(kind, 0)


def test_exp_log_weights_give_the_first_component_split() -> None:
    # q[j] tau[m-j] / (m tau[m]) is the split; tau from exp(log tau) is off
    # by about 2e-12 relative at m = 800 and fails this bound
    q, tau = exp_log_weights(M, 800)
    for m in (1, 2, 3, 25, 100, 434, 800):
        j = np.arange(1, m + 1)
        got = q[j] * tau[m - j] / (m * tau[m])
        want = np.array(first_component_split(M, m))
        assert np.max(np.abs(got / want - 1)) <= 1e-13, m
    q, tau = exp_log_weights(P, 60)
    for m in range(1, 61):
        j = np.arange(1, m + 1)
        assert np.all(q[j] * tau[m - j] / (m * tau[m]) == 1 / m)


def test_exp_log_weights_tend_to_the_type() -> None:
    # q_j -> a: 1 for permutations, 1/2 for mappings
    q, _ = exp_log_weights(M, 800)
    assert q[800] == pytest.approx(0.49530, abs=1e-5)
    assert np.all(np.diff(q[1:]) > 0) and q[800] < 0.5
    assert np.all(exp_log_weights(P, 800)[0][1:] == 1.0)


def test_enums_are_disjoint() -> None:
    assert P is not M
    assert Side.LARGEST is not Side.SMALLEST
