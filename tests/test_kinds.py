"""Connected/total counts and the first-component size split."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from permap import exact
from permap.exact import largest_poly, pmf, pmf_float, smallest_poly, support_length
from permap.kinds import ObjectKind, Side, connected_count, exp_log_weights, total_count
from permap.ktp import pmf_from_tables, pmf_from_tables_float
from permap.oracle import decompose, enumerate_pmf

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


def first_component_split(kind: ObjectKind, n: int) -> tuple[float, ...]:
    """Probabilities that the component containing the lowest label has size j.

    Entry j-1 of the returned tuple is
        P_n(j) = c_j * C(n-1, j-1) * t_{n-j} / t_n,   j = 1..n,
    the exact ratio rounded once to float.  These sum to 1: conditioning on
    the component of the lowest label decomposes every object uniquely.
    For permutations P_n(j) = 1/n for every j.
    """
    if n < 1:
        raise ValueError(f"first_component_split requires n >= 1, got {n}")
    if kind is ObjectKind.PERMUTATION:
        return tuple([1.0 / n] * n)
    den = total_count(kind, n)
    probs = []
    binom = 1  # C(n-1, j-1), advanced one j at a time
    for j in range(1, n + 1):
        num = connected_count(kind, j) * binom * total_count(kind, n - j)
        # float(Fraction) would gcd-reduce huge integers; shift-divide instead
        probs.append(math.ldexp((num << 64) // den, -64))
        binom = binom * (n - j) // j
    return tuple(probs)


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
    # True == 1.0 == 1 and False == 0: a bool or a float would be served, and
    # cached, as the int it equals, even once that int's count is cached
    for kind in (P, M):
        assert connected_count(kind, 1) == total_count(kind, 1) == total_count(kind, 0) == 1
        for bad in (True, 1.0, 2.0, np.float64(2), -1):
            with pytest.raises(ValueError, match="size n"):
                connected_count(kind, bad)
        for bad in (True, False, 0.0, 2.0, -1):
            with pytest.raises(ValueError, match="size n"):
                total_count(kind, bad)


def test_exp_log_weights_refuses_bad_sizes() -> None:
    # True gave arrays of length 2, -1 an IndexError and 2.0 a TypeError
    for kind in (P, M):
        for bad in (True, -1, 2.0):
            with pytest.raises(ValueError, match="exp_log_weights: size m_max"):
                exp_log_weights(kind, bad)
        assert [len(a) for a in exp_log_weights(kind, 0)] == [1, 1]


def test_numpy_int_sizes_give_exact_python_int_counts() -> None:
    # a numpy size overflows past n = 15, and lru_cache would serve its
    # value to the equal int key afterwards
    connected_count.cache_clear()
    total_count.cache_clear()
    for n in (4, 20):
        direct = sum(math.factorial(n - 1) // math.factorial(n - j) * n ** (n - j)
                     for j in range(1, n + 1))
        for size in (np.int64(n), n):
            assert type(connected_count(M, size)) is int
            assert connected_count(M, size) == direct
            assert type(total_count(M, size)) is int
            assert total_count(M, size) == n**n


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


# each route checks its kind and its side alone, and a string, None or the
# other enum must be refused by name: "largest" was served as the smallest
# side, "permutation" as a mapping (connected_count 17 at n = 3, decompose
# (2,)).  Keyed by case: (route, argument, call)
_ALONE = {
    "connected_count": ("connected_count", "kind", lambda bad: connected_count(bad, 3)),
    "total_count": ("total_count", "kind", lambda bad: total_count(bad, 3)),
    "exp_log_weights": ("exp_log_weights", "kind", lambda bad: exp_log_weights(bad, 3)),
    "decompose": ("decompose", "kind", lambda bad: decompose(bad, [1, 1])),
    "support_length": ("support_length", "side", lambda bad: support_length(10, 2, bad)),
    "largest_poly": ("largest_poly", "kind", lambda bad: largest_poly(bad, 3, (0, 0))),
    "smallest_poly": ("smallest_poly", "kind", lambda bad: smallest_poly(bad, 3, (0, 0))),
    "pmf-kind": ("pmf", "kind", lambda bad: pmf(bad, 3, 2, Side.LARGEST)),
    "pmf-side": ("pmf", "side", lambda bad: pmf(P, 3, 2, bad)),
    "pmf_float-kind": ("pmf_float", "kind", lambda bad: pmf_float(bad, 3, 2, Side.SMALLEST)),
    "pmf_float-side": ("pmf_float", "side", lambda bad: pmf_float(M, 3, 2, bad)),
    "pmf_from_tables": ("pmf_from_tables", "side", lambda bad: pmf_from_tables(2, 3, bad)),
    "pmf_from_tables_float": ("pmf_from_tables_float", "side",
                              lambda bad: pmf_from_tables_float(2, 3, bad)),
    "enumerate_pmf-kind": ("enumerate_pmf", "kind",
                           lambda bad: enumerate_pmf(bad, 3, 2, Side.LARGEST)),
    "enumerate_pmf-side": ("enumerate_pmf", "side", lambda bad: enumerate_pmf(P, 3, 2, bad)),
}
_NON_MEMBERS = {"kind": ("permutation", None, Side.LARGEST), "side": ("largest", None, P)}


@pytest.mark.parametrize("case", list(_ALONE))
def test_routes_taking_a_kind_or_side_alone_refuse_non_members(monkeypatch, case) -> None:
    route, name, call = _ALONE[case]
    monkeypatch.setattr(exact, "_TABLES", {})
    cached = (connected_count.cache_info().currsize, total_count.cache_info().currsize)
    for bad in _NON_MEMBERS[name]:
        with pytest.raises(ValueError, match=f"{route}: {name} must be a member of"):
            call(bad)
    assert not exact._TABLES
    assert (connected_count.cache_info().currsize, total_count.cache_info().currsize) == cached
