"""Rank-window recursion: polynomial fixtures, window ops, float engine."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from permap.exact import (
    INFINITY,
    PrecisionError,
    _build_chain,
    demote,
    largest_poly,
    memo_stats,
    pmf,
    pmf_float,
    promote,
    smallest_poly,
    support_length,
)
from permap.kinds import ObjectKind, Side, total_count

P = ObjectKind.PERMUTATION
M = ObjectKind.MAPPING
L = Side.LARGEST
S = Side.SMALLEST


def trimmed(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# window operators


def test_promote_examples() -> None:
    assert promote((0, 0), 1) == (0, 1)
    assert promote((1, 2), 3) == (2, 3)
    assert promote((5, 5), 1) == (5, 5)


def test_demote_examples() -> None:
    assert demote((INFINITY, INFINITY), 1) == (1, INFINITY)
    assert demote((1, 2), 3) == (1, 2)
    assert demote((1, INFINITY), 2) == (1, 2)


def test_window_ops_preserve_length_and_order() -> None:
    windows = [(0,), (0, 0, 0), (1, 4), (2, 2, 5, 9), (3, INFINITY), (INFINITY,) * 4]
    for window in windows:
        for j in (1, 2, 7):
            up = promote(window, j)
            down = demote(window, j)
            assert len(up) == len(window)
            assert len(down) == len(window)
            assert list(up) == sorted(up)
            assert list(down) == sorted(down)


# ---------------------------------------------------------------------------
# full-window polynomial fixtures (second-ranked component, n = 3 and 4)


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        (P, 4, (6, 15, 3)),
        (M, 4, (142, 87, 27)),
        (P, 3, (2, 4)),
        (M, 3, (17, 10)),
    ],
)
def test_largest_second_rank_polynomials(kind, n, expected) -> None:
    assert trimmed(largest_poly(kind, n, (0, 0)).coeffs) == expected


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        (P, 4, (6, 7, 3, 8)),
        (M, 4, (142, 19, 27, 68)),
        (P, 3, (2, 1, 3)),
        (M, 3, (17, 1, 9)),
    ],
)
def test_smallest_second_rank_polynomials(kind, n, expected) -> None:
    assert trimmed(smallest_poly(kind, n, (INFINITY, INFINITY)).coeffs) == expected


# ---------------------------------------------------------------------------
# intermediate-window fixtures: hand expansions in terms of the connected
# counts c_1, c_2, c_3 (permutations: 1,1,2; mappings: 1,3,17)


@pytest.mark.parametrize("kind,c", [(P, (1, 1, 2)), (M, (1, 3, 17))])
def test_largest_intermediate_windows(kind, c) -> None:
    c1, c2, c3 = c
    cases = [
        ((2, (1, 1)), (0, c1 * c1 + c2)),
        ((3, (0, 1)), (0, c1**3 + 3 * c1 * c2 + c3)),
        ((2, (0, 2)), (0, c1 * c1, c2)),
        ((1, (1, 2)), (0, c1)),
        ((0, (1, 3)), (0, 1)),
        ((0, (0, 4)), (1,)),
    ]
    for (n, window), expected in cases:
        assert trimmed(largest_poly(kind, n, window).coeffs) == trimmed(expected)


@pytest.mark.parametrize("kind,c", [(P, (1, 1, 2)), (M, (1, 3, 17))])
def test_smallest_intermediate_windows(kind, c) -> None:
    c1, c2, c3 = c
    cases = [
        ((3, (1, INFINITY)), (0, c1**3 + 3 * c1 * c2, 0, c3)),
        ((2, (2, INFINITY)), (0, c1 * c1, c2)),
        ((1, (3, INFINITY)), (0, 0, 0, c1)),
        ((0, (4, INFINITY)), (1,)),
        ((2, (1, 1)), (0, c1 * c1 + c2)),
        ((1, (1, 2)), (0, c1)),
        ((0, (1, 3)), (0, 0, 0, 1)),
    ]
    for (n, window), expected in cases:
        assert trimmed(smallest_poly(kind, n, window).coeffs) == trimmed(expected)


def test_row_polynomial_metadata() -> None:
    row = largest_poly(P, 4, (0, 0))
    assert row.n == 4
    assert row.side is L
    row = smallest_poly(P, 4, (INFINITY, INFINITY))
    assert row.side is S


# ---------------------------------------------------------------------------
# window validation


def test_largest_rejects_infinite_entries() -> None:
    with pytest.raises(ValueError):
        largest_poly(P, 3, (0, INFINITY))


def test_windows_reject_bad_entries() -> None:
    with pytest.raises(ValueError):
        largest_poly(P, 3, ())
    with pytest.raises(ValueError):
        largest_poly(P, 3, (-1, 0))
    with pytest.raises(ValueError):
        smallest_poly(P, 3, (1.5, INFINITY))


# ---------------------------------------------------------------------------
# PMFs


def test_pmf_fixtures() -> None:
    got = pmf(P, 4, 2, L)
    assert got.probs == (Fraction(6, 24), Fraction(15, 24), Fraction(3, 24))
    got = pmf(M, 4, 2, S)
    assert got.probs == (
        Fraction(142, 256),
        Fraction(19, 256),
        Fraction(27, 256),
        Fraction(68, 256),
    )
    assert pmf(P, 1, 2, L).probs == (Fraction(1),)


def test_pmf_rejects_degenerate_arguments() -> None:
    with pytest.raises(ValueError):
        pmf(P, 0, 2, L)
    with pytest.raises(ValueError):
        pmf(P, 4, 0, L)


def test_support_length_bounds() -> None:
    assert support_length(10, 2, L) == 6  # sizes 0..5
    assert support_length(10, 3, L) == 4
    assert support_length(10, 2, S) == 10  # sizes 0..9
    assert support_length(1, 4, S) == 1
    for n in range(1, 30):
        for r in range(1, 5):
            for side in (L, S):
                probs = pmf(P, n, r, side).probs
                assert len(probs) == support_length(n, r, side)


def test_pmf_mass_is_exactly_one() -> None:
    for kind in (P, M):
        for n in (1, 2, 3, 5, 9):
            for r in (1, 2, 3, 4):
                for side in (L, S):
                    assert pmf(kind, n, r, side).mass() == 1


def test_polynomial_mass_equals_total_count() -> None:
    for kind in (P, M):
        for n in range(0, 15):
            assert sum(largest_poly(kind, n, (0, 0)).coeffs) == total_count(kind, n)
            assert sum(smallest_poly(kind, n, (INFINITY,) * 2).coeffs) == total_count(kind, n)


# ---------------------------------------------------------------------------
# float engine


def test_pmf_float_matches_exact_small() -> None:
    for kind in (P, M):
        for n in (1, 2, 4, 7, 12, 25):
            for r in (1, 2, 3, 4, 5, 6):
                for side in (L, S):
                    want = pmf(kind, n, r, side)
                    got = pmf_float(kind, n, r, side)
                    assert len(got.probs) == len(want.probs)
                    for a, b in zip(got.probs, want.probs):
                        assert abs(a - float(b)) <= 1e-12


def test_pmf_float_mass_within_tolerance() -> None:
    for kind, n in ((P, 150), (M, 150), (M, 210)):
        got = pmf_float(kind, n, 2, S)
        assert abs(got.mass() - 1.0) <= 1e-9


def test_pmf_float_extended_precision_path() -> None:
    # mapping tables past n=200 were once built in extended precision; the
    # float64 chain must keep the mass continuous across that former switch
    lo = pmf_float(M, 200, 2, L)
    hi = pmf_float(M, 201, 2, L)
    assert abs(sum(lo.probs) - 1.0) <= 1e-11
    assert abs(sum(hi.probs) - 1.0) <= 1e-11


def test_mapping_chain_rows_do_not_depend_on_the_table_width() -> None:
    # each cell sums over the new component's size in one fixed order, so
    # row n of a table built for a larger n_max holds a one-size build's bits
    for side in (L, S):
        for r in (1, 2, 3, 4):
            grown = _build_chain(M, side, r, 160)
            for n in range(1, 161):
                alone = _build_chain(M, side, r, n)
                assert np.array_equal(grown[n, : alone.shape[1]], alone[n]), (side, r, n)


def test_precision_error_is_arithmetic_error() -> None:
    assert issubclass(PrecisionError, ArithmeticError)


def test_memo_stats_reports_sizes() -> None:
    largest_poly(P, 6, (0, 0))
    sizes = memo_stats()
    assert any(count > 0 for count in sizes.values())
