"""Cumulative cycle-count recursions and the harmonic correction term."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from permap import exact, ktp
from permap.exact import PrecisionError
from permap.kinds import ObjectKind, Side
from permap.ktp import (
    delta,
    harmonic,
    longest_table,
    pmf_from_tables,
    pmf_from_tables_float,
    shortest_table,
    stirling_cycle,
)
from permap.stats import summarize

P = ObjectKind.PERMUTATION
M = ObjectKind.MAPPING
L = Side.LARGEST
S = Side.SMALLEST


# ---------------------------------------------------------------------------
# harmonic numbers


def test_harmonic_values() -> None:
    assert harmonic(0) == 0
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(2, 2) == Fraction(5, 4)
    assert harmonic(2, 3) == Fraction(9, 8)
    for j in range(1, 40):
        assert harmonic(j) - harmonic(j - 1) == Fraction(1, j)


# ---------------------------------------------------------------------------
# count-at-most table u


def test_u_second_rank_fixture() -> None:
    table = longest_table(2, 3, 4)
    assert [table.counts[k][4] for k in (0, 1, 2)] == [6, 21, 24]
    assert table.counts[1][3] == 6
    assert not table.conjectural


def test_u_first_rank_boundaries() -> None:
    table = longest_table(1, 2, 8)
    assert table.counts[0][0] == 1
    assert all(table.counts[0][n] == 0 for n in range(1, 9))
    assert all(table.counts[1][n] == 1 for n in range(0, 9))


def test_u_saturation_and_monotonicity() -> None:
    for r in (1, 2, 3, 4):
        table = longest_table(r, 12, 12)
        for n in range(0, 13):
            bound = math.factorial(n)
            prev = 0
            for k in range(0, 13):
                value = table.counts[k][n]
                assert 0 <= value <= bound
                assert value >= prev
                if k >= n // r:
                    assert value == bound
                prev = value


# ---------------------------------------------------------------------------
# count-at-least table v and the correction term


def test_v_second_rank_fixture() -> None:
    table = shortest_table(2, 4, 4)
    assert [table.counts[k][4] for k in (1, 2, 3)] == [18, 11, 8]
    assert table.counts[1][3] == 4
    assert table.counts[1][2] == 1
    assert table.conjectural


def test_v_first_rank_fixture() -> None:
    table = shortest_table(1, 4, 3)
    assert table.counts[2][3] == 2
    assert table.counts[3][3] == 2
    assert not table.conjectural


def test_v_boundaries_and_monotonicity() -> None:
    for r in (1, 2, 3, 4):
        table = shortest_table(r, 13, 12)
        for n in range(0, 13):
            bound = math.factorial(n)
            assert table.counts[0][n] == bound
            prev = bound
            for k in range(0, 14):
                value = table.counts[k][n]
                assert 0 <= value <= bound
                assert value <= prev
                # k=0 is the all-objects column (n!) even at n=0, and rank 1
                # keeps the all-ones empty-product column at n=0
                if k > max(n - r + 1, 0) and not (r == 1 and n == 0):
                    assert value == 0
                prev = value


def test_delta_fixtures() -> None:
    assert delta(2, 1, 4) == 11
    assert delta(2, 2, 4) == 9
    assert delta(2, 3, 4) == 6
    assert delta(2, 1, 2) == 1


def test_delta_closed_form_second_rank() -> None:
    for n in range(2, 40):
        for k in range(1, n):
            want = math.factorial(n - 1) * harmonic(n - k)
            assert delta(2, k, n) == want


def test_delta_matches_stirling_at_k_one() -> None:
    for r in (2, 3, 4):
        for n in range(r, 61):
            assert delta(r, 1, n) == stirling_cycle(n, r)


def test_delta_rejects_unsupported_ranks() -> None:
    with pytest.raises(ValueError):
        delta(1, 1, 5)
    with pytest.raises(ValueError):
        delta(5, 1, 5)


def test_stirling_recurrence() -> None:
    # c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k)
    for n in range(2, 30):
        for k in range(1, 5):
            assert stirling_cycle(n, k) == stirling_cycle(n - 1, k - 1) + (n - 1) * stirling_cycle(n - 1, k)


# ---------------------------------------------------------------------------
# PMFs from cumulative tables


def test_pmf_from_tables_fixtures() -> None:
    got = pmf_from_tables(2, 4, L)
    assert got.probs == (Fraction(6, 24), Fraction(15, 24), Fraction(3, 24))
    got = pmf_from_tables(2, 4, S)
    assert got.probs == (Fraction(6, 24), Fraction(7, 24), Fraction(3, 24), Fraction(8, 24))
    assert got.conjectural
    assert pmf_from_tables(2, 1, L).probs == (Fraction(1),)


def test_pmf_from_tables_matches_rank_window_engine() -> None:
    for r in (1, 2, 3, 4):
        for side in (L, S):
            for n in range(1, 26):
                assert pmf_from_tables(r, n, side).probs == exact.pmf(P, n, r, side).probs


# ---------------------------------------------------------------------------
# normalized float tables


def test_normalized_u_matches_exact() -> None:
    # the largest-side float table is the threshold chain's, [n, k] for k <= 40//r
    for r in (1, 2, 3, 4):
        table = longest_table(r, 20, 40)
        norm = exact._build_chain(P, L, r, 40)
        for n in (1, 7, 23, 40):
            bound = math.factorial(n)
            for k in range(0, min(20, 40 // r) + 1):
                want = table.counts[k][n] / bound
                assert norm[n, k] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_normalized_v_matches_exact() -> None:
    for r in (1, 2, 3, 4):
        table = shortest_table(r, 20, 40)
        norm = ktp._v_norm(r, 20, 40)
        for n in (1, 7, 23, 40):
            bound = math.factorial(n)
            for k in range(0, 21):
                want = table.counts[k][n] / bound
                assert norm[n, k] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_pmf_float_route_matches_exact_route() -> None:
    for r in (2, 3, 4):
        for side in (L, S):
            for n in (10, 25, 40):
                want = pmf_from_tables(r, n, side).probs
                got = pmf_from_tables_float(r, n, side).probs
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert abs(a - float(b)) <= 1e-12


@pytest.mark.parametrize("side, read", [
    (L, lambda n, r: exact.pmf_float(P, n, r, L)),  # threshold chain, CDF rows
    (S, lambda n, r: exact.pmf_float(M, n, r, S)),  # threshold chain, tail rows
    (S, lambda n, r: pmf_from_tables_float(r, n, S)),  # conjectural recursion
], ids=["chain-P-largest", "chain-M-smallest", "v_norm-P-smallest"])
def test_float_read_paths_are_guarded(monkeypatch, side, read) -> None:
    n, r = 30, 2
    monkeypatch.setattr(exact, "_TABLES", {})
    read(n, r)  # fills the store with the one table this path reads
    ((key, (sizes, table)),) = exact._TABLES.items()
    doctored = table.copy()
    # one mass entry < 0: P{2nd largest <= 0}, or the tail P{2nd smallest >= n-1}
    doctored[n, 0 if side is L else n - r + 1] = -1e-6
    monkeypatch.setitem(exact._TABLES, key, (sizes, doctored))
    with pytest.raises(PrecisionError):
        read(n, r)


@pytest.mark.parametrize("module, builder, read", [
    (exact, "_build_chain", lambda n: exact.pmf_float(P, n, 2, L).probs),
    (ktp, "_v_norm", lambda n: pmf_from_tables_float(2, n, S).probs),
    (ktp, "_u_rows", lambda n: pmf_from_tables(1, n, L).probs),
], ids=["chain", "v_norm", "exact-counts"])
def test_grown_tables_grow_by_five_quarters(monkeypatch, module, builder, read) -> None:
    build, sizes = getattr(module, builder), []

    def counted(*args):
        sizes.append(args[-1])
        return build(*args)

    monkeypatch.setattr(module, builder, counted)
    monkeypatch.setattr(exact, "_TABLES", {})
    grown = [read(n) for n in range(1, 101)]
    # an exact-size regrow would build 100 times
    assert sizes == [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 18, 22, 27, 33, 41, 51, 63, 78, 97, 121]
    for n in (1, 9, 50, 99, 100):
        monkeypatch.setattr(exact, "_TABLES", {})
        assert read(n) == grown[n - 1], n  # bit for bit: no cell depends on the table size


def test_conjectural_recursion_matches_proven_chain_at_published_size() -> None:
    # the published permutation tables run from n = 1000; the smallest side
    # there comes from the conjectural recursion, checked here against the
    # proven threshold chain (the largest sides share one kernel).  Largest
    # first: the n = 1000 columns are read from the n = 1500 tables.
    for n in (1500, 1000):
        for r in (2, 3, 4):
            proven = exact.pmf_float(P, n, r, S).probs
            conjectural = pmf_from_tables_float(r, n, S).probs
            assert len(proven) == len(conjectural)
            assert max(abs(a - b) for a, b in zip(proven, conjectural)) <= 1e-12, (n, r)


def _column_major_delta_norm(r, k_max, n_max, lower):
    # the float correction table D[k, n] as the column-major builder made it
    h1, h2, h3 = (ktp._harmonic_float(n_max, power) for power in (1, 2, 3))
    D = np.zeros((k_max + 1, n_max + 1))
    ks = np.arange(k_max + 1)
    for n in range(1, n_max + 1):
        t = min(n, k_max)
        kk = ks[1 : t + 1]
        if r == 2:
            D[kk, n] = h1[n - kk] / n
        else:
            if r == 3:
                head = (h1[n - 1] ** 2 - h2[n - 1]) / (2 * n)
            else:
                head = (h1[n - 1] ** 3 - 3 * h1[n - 1] * h2[n - 1] + 2 * h3[n - 1]) / (6 * n)
            D[1, n] = head
            if t >= 2:
                steps = lower[2 : t + 1, n] / (n - ks[2 : t + 1] + 1)
                D[2 : t + 1, n] = head - np.cumsum(steps)
    return D


def _column_major_v_norm(r, k_max, n_max):
    # the shortest-side float recursion on C-order [k, n] tables, one column per step
    ks = np.arange(k_max + 1)
    cum_prev = D = Z = None
    for q in range(1, r + 1):
        D = _column_major_delta_norm(q, k_max, n_max, D) if q >= 2 else None
        Z = np.zeros((k_max + 1, n_max + 1))
        cum = np.zeros((k_max + 1, n_max + 2))
        Z[:, 0] = 1.0 if q == 1 else 0.0
        Z[0, :] = 1.0
        cum[:, 1] = Z[:, 0]
        for n in range(1, n_max + 1):
            t = min(n if q == 1 else n - q + 1, k_max)
            col = Z[:, n]
            if t >= 1:
                kk = ks[1 : t + 1]
                idx = n - kk + 1
                own = cum[kk, idx]
                if q == 1:
                    col[1 : t + 1] = own / n
                else:
                    col[1 : t + 1] = D[kk, n] + (cum_prev[kk, n] - cum_prev[kk, idx] + own) / n
            cum[:, n + 1] = cum[:, n] + col
        cum_prev = cum
    return Z


def test_v_norm_is_the_column_major_recursion_bit_for_bit() -> None:
    # the row-major, row-streamed builder must round every cell as the
    # column-major one did: same operations, same order
    for r in (1, 2, 3, 4):
        for n_max in (1, 2, 5, 37, 200):
            for k_max in {max(n_max - r + 2, 1), max(n_max // 3, 1), n_max + 4}:
                got = ktp._v_norm(r, k_max, n_max).T
                want = _column_major_v_norm(r, k_max, n_max)
                assert got.shape == want.shape
                assert np.array_equal(got, want), (r, k_max, n_max)


def test_smallest_cycle_median_thresholds() -> None:
    # raw medians of the r-th shortest cycle settle on small integers:
    # rank 3 reaches 7 just past n=370, rank 4 reaches 19 just past n=1482
    assert summarize(pmf_from_tables_float(3, 370, S)).median == 6
    assert summarize(pmf_from_tables_float(3, 371, S)).median == 7
    assert summarize(pmf_from_tables_float(4, 1482, S)).median == 18
    assert summarize(pmf_from_tables_float(4, 1483, S)).median == 19


def test_smallest_cycle_mode_thresholds() -> None:
    # rank 3 mode settles at 2 past n=49; rank 4 at 3 past n=666
    assert summarize(pmf_from_tables_float(3, 50, S)).mode == 2
    assert summarize(pmf_from_tables_float(3, 60, S)).mode == 2
    assert summarize(pmf_from_tables_float(4, 667, S)).mode == 3
