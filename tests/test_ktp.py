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


def _falling(n, m):
    # [(n-1)!/(n-1-i)! for i = 0..m], the weights of the defining sums
    out = [1]
    for i in range(1, m + 1):
        out.append(out[-1] * (n - i))
    return out


def _sum_form_u(r, k_max, n_max):
    # u_r by its defining sum, O(n) products per cell
    fact = [math.factorial(i) for i in range(n_max + 1)]
    prev = _sum_form_u(r - 1, k_max, n_max) if r > 1 else None
    rows = [[1] + [0] * n_max for _ in range(k_max + 1)]
    for n in range(1, n_max + 1):
        ff = _falling(n, n - 1)
        cut = n if r == 1 else n // r
        for k in range(k_max + 1):
            row = rows[k]
            if k >= cut:
                row[n] = fact[n]
                continue
            acc = 0
            for m in range(k):
                acc += ff[m] * row[n - 1 - m]
            if r > 1:
                pk = prev[k]
                for m in range(k, n):
                    acc += ff[m] * pk[n - 1 - m]
            row[n] = acc
    return rows


def _sum_form_v(r, k_max, n_max):
    # v_r by its defining sum plus the correction term, O(n) products per cell
    fact = [math.factorial(i) for i in range(n_max + 1)]
    prev = _sum_form_v(r - 1, k_max, n_max) if r > 1 else None
    rows = [[0] * (n_max + 1) for _ in range(k_max + 1)]
    rows[0] = fact[:]
    for k in range(1, k_max + 1):
        rows[k][0] = 1 if r == 1 else 0
    for n in range(1, n_max + 1):
        ff = _falling(n, n - 1)
        hi = n if r == 1 else n - r + 1
        for k in range(1, min(hi, k_max) + 1):
            row = rows[k]
            acc = 0 if r == 1 else delta(r, k, n)
            if r > 1:
                pk = prev[k]
                for m in range(k - 1):
                    acc += ff[m] * pk[n - 1 - m]
            for m in range(k - 1, n):
                acc += ff[m] * row[n - 1 - m]
            row[n] = acc
    return rows


@pytest.mark.parametrize("k_max, n_max", [(0, 0), (1, 0), (0, 5), (4, 4), (13, 12), (2, 8),
                                          (20, 40), (60, 60), (75, 70)])
def test_exact_tables_are_the_sum_form(monkeypatch, k_max, n_max) -> None:
    # the three-term recurrences must give the defining sums integer for
    # integer, past k_max > n_max and at the first nonzero v cell n = k + r - 1
    monkeypatch.setattr(exact, "_TABLES", {})
    for table, reference in ((longest_table, _sum_form_u), (shortest_table, _sum_form_v)):
        for r in (1, 2, 3, 4):
            got = [list(column) for column in table(r, k_max, n_max).counts]
            assert got == reference(r, k_max, n_max), (table.__name__, r)


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


def test_delta_is_the_stirling_form_at_every_k() -> None:
    # delta(r, k, n) = (n-1)!/(n-k)! c(n-k+1, r), and 0 past k = n
    for r in (2, 3, 4):
        for n in range(1, 81):
            for k in range(1, n + 1):
                want = math.factorial(n - 1) // math.factorial(n - k) * stirling_cycle(n - k + 1, r)
                assert delta(r, k, n) == want, (r, k, n)
            assert delta(r, n + 1, n) == 0


def test_delta_obeys_its_defining_recursion() -> None:
    # delta_r(k) = delta_r(k-1) - delta_{r-1}(k)/(n-k+1), the division exact
    for r in (3, 4):
        for n in range(2, 61):
            for k in range(2, n + 1):
                step, rem = divmod(delta(r - 1, k, n), n - k + 1)
                assert rem == 0, (r, k, n)
                assert delta(r, k, n) == delta(r, k - 1, n) - step, (r, k, n)


def test_float_correction_rows_match_delta() -> None:
    # row n of D_q in _v_norm reads e_{q-1}[n-k]/n, which must be delta(q, k, n)/n!
    n_max = 200
    e = ktp._elementary(*(ktp._harmonic_float(n_max, power) for power in (1, 2, 3)))
    for q in (2, 3, 4):
        for n in range(q, n_max + 1):
            for k in range(1, n - q + 2):  # the cells the recursion reads
                want = delta(q, k, n) / math.factorial(n)
                assert abs(e[q - 2][n - k] / n - want) <= 1e-13 * want, (q, k, n)


def test_stirling_and_delta_do_not_recurse_deeply(monkeypatch) -> None:
    # one Python frame per size would pass the default recursion limit of 1000 here
    monkeypatch.setattr(ktp, "_STIRLING", [(1, 0, 0, 0, 0, 0)])
    monkeypatch.setattr(ktp, "_ELEMENTARY", {})
    assert stirling_cycle(1500, 2) == math.factorial(1499) * harmonic(1499)
    want = math.factorial(699) // math.factorial(100) * stirling_cycle(101, 3)
    assert delta(3, 600, 700) == want


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


def test_exact_counts_past_rank_n_max_plus_one_are_all_n_factorial(monkeypatch) -> None:
    # an n-permutation has at most n cycles, so from rank n_max + 1 on every
    # cell u_r(k, n) counts all n! permutations, whatever the rank
    for n_max in range(31):
        monkeypatch.setattr(exact, "_TABLES", {})
        fact = [math.factorial(n) for n in range(n_max + 1)]
        for r in (n_max + 1, n_max + 2, n_max + 5, 3 * n_max + 7):
            assert ktp._u_rows(r, n_max) == [fact] * (n_max // r + 1), (r, n_max)
            counts = longest_table(r, n_max, n_max).counts
            assert counts == (tuple(fact),) * (n_max + 1), (r, n_max)


@pytest.mark.parametrize("table, args", [
    (longest_table, (2, 3, -1)),
    (longest_table, (2, -1, 3)),
    (shortest_table, (2, 3, -2)),
    (shortest_table, (2, -1, 3)),
    (longest_table, (True, 2, 2)),
    (shortest_table, (True, 2, 2)),
    (longest_table, (0, 2, 2)),
    (shortest_table, (5, 2, 2)),
], ids=["long-n", "long-k", "short-n", "short-k", "long-bool", "short-bool", "long-0",
        "short-5"])
def test_bad_table_requests_are_refused_before_the_store(monkeypatch, table, args) -> None:
    def refuse(*args):
        raise AssertionError("a refused request reached the store")

    monkeypatch.setattr(exact, "_stored", refuse)
    with pytest.raises(ValueError):
        table(*args)


def test_builders_never_call_the_store(monkeypatch) -> None:
    # each builder is a pure function of its rank and n_max: it runs its
    # lower ranks itself instead of reading them from the store
    monkeypatch.setattr(exact, "_TABLES", {})
    tables = {}
    for r in (1, 2, 3, 4):
        for name in ("_u_rows", "_v_rows"):
            tables[name, r] = exact._stored(getattr(ktp, name), (r,), 12)

    def refuse(*args):
        raise AssertionError("a table builder called the store")

    monkeypatch.setattr(exact, "_stored", refuse)
    for r in (1, 2, 3, 4):
        for side in (L, S):
            for kind in (P, M):
                width = exact.top_threshold(12, r, side) + 1
                assert exact._build_chain(kind, side, r, 12).shape == (13, width)
        assert ktp._v_norm(r, 12).shape == (13, 14 - r)
        for name in ("_u_rows", "_v_rows"):
            assert getattr(ktp, name)(r, 12) == tables[name, r]


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
        norm = ktp._v_norm(r, 40)
        for n in (1, 7, 23, 40):
            bound = math.factorial(n)
            for k in range(1, 21):  # column t = k - 1 holds v_r(k, n)/n!
                want = table.counts[k][n] / bound
                assert norm[n, k - 1] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_pmf_float_route_matches_exact_route() -> None:
    # n < r reads length-1 rows: the whole mass at 0, from the tail cell k = 1
    for r in (2, 3, 4):
        for side in (L, S):
            for n in (1, 2, 3, 4, 5, 6, 10, 25, 40):
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
    ((key, (held, table)),) = exact._TABLES.items()
    doctored = table.copy()
    # one mass entry < 0: P{2nd largest <= 0}, or the tail P{2nd smallest > n-2}
    doctored[n, 0 if side is L else n - r] = -1e-6
    monkeypatch.setitem(exact._TABLES, key, (held, doctored))
    with pytest.raises(PrecisionError):
        read(n, r)


@pytest.mark.parametrize("module, builder, read", [
    (exact, "_build_chain", lambda n, r: exact.pmf_float(P, n, r, L).probs),
    (ktp, "_v_norm", lambda n, r: pmf_from_tables_float(r, n, S).probs),
    (ktp, "_u_rows", lambda n, r: pmf_from_tables(r, n, L).probs),
    (ktp, "_v_rows", lambda n, r: pmf_from_tables(r, n, S).probs),
], ids=["chain", "v_norm", "exact-counts", "exact-tail-counts"])
def test_grown_tables_grow_by_five_quarters(monkeypatch, module, builder, read) -> None:
    # one held size per table: thresholds that grow faster or slower than n
    # (n - r + 1, n // r) must not regrow the table out of step with n
    build, sizes = getattr(module, builder), []

    def counted(*args):
        sizes.append(args[-1])
        return build(*args)

    monkeypatch.setattr(module, builder, counted)
    for r in (1, 2, 3, 4):
        sizes.clear()
        monkeypatch.setattr(exact, "_TABLES", {})
        grown = [read(n, r) for n in range(1, 101)]
        # an exact-size regrow would build 100 times
        assert sizes == [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 18, 22, 27, 33, 41, 51, 63, 78, 97,
                         121], r
        for n in (1, 9, 50, 99, 100):  # bit for bit: no cell depends on the table size
            monkeypatch.setattr(exact, "_TABLES", {})
            assert read(n, r) == grown[n - 1], (r, n)


def test_conjectural_recursion_matches_proven_chain_at_published_size() -> None:
    # the published permutation tables run from n = 1000; the smallest side
    # there comes from the conjectural recursion, checked here against the
    # proven threshold chain (the largest sides share one kernel).  Largest
    # first: the smaller columns are read from the n = 2500 tables.
    for n in (2500, 2000, 1500, 1000):
        for r in (2, 3, 4):
            proven = exact.pmf_float(P, n, r, S).probs
            conjectural = pmf_from_tables_float(r, n, S).probs
            assert len(proven) == len(conjectural)
            assert max(abs(a - b) for a, b in zip(proven, conjectural)) <= 1e-12, (n, r)


def _column_major_delta_norm(r, k_max, n_max):
    # the float correction table D[k, n] = delta(r, k, n)/n! = e_{r-1}[n-k]/n, in full
    h1, h2, h3 = (ktp._harmonic_float(n_max, power) for power in (1, 2, 3))
    e = (h1, (h1**2 - h2) / 2, (h1**3 - 3 * h1 * h2 + 2 * h3) / 6)[r - 2]
    D = np.zeros((k_max + 1, n_max + 1))
    for n in range(1, n_max + 1):
        kk = np.arange(1, min(n, k_max) + 1)
        D[kk, n] = e[n - kk] / n
    return D


def _column_major_v_norm(r, k_max, n_max):
    # the shortest-side float recursion on C-order [k, n] tables, one column per step
    ks = np.arange(k_max + 1)
    cum_prev = D = Z = None
    for q in range(1, r + 1):
        D = _column_major_delta_norm(q, k_max, n_max) if q >= 2 else None
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
    # column-major one did: same operations, same order; its column t is
    # the reference's k = t + 1, and the all-ones k = 0 is not built
    for r in (1, 2, 3, 4):
        for n_max in (1, 2, 5, 37, 200):
            got = ktp._v_norm(r, n_max).T
            want = _column_major_v_norm(r, max(n_max - r + 2, 1), n_max)[1:]
            assert got.shape == want.shape
            assert np.array_equal(got, want), (r, n_max)


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
