"""Cumulative cycle-count recursions and the harmonic correction term."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from fractions import Fraction
from functools import cache, partial

import numpy as np
import pytest

from permap import exact, ktp
from permap.exact import PrecisionError
from permap.kinds import ObjectKind, Side
from permap.ktp import (
    delta,
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
# harmonic numbers: the exact reference forms of the correction term

_HARMONIC: dict[int, list[Fraction]] = {}


def harmonic(m: int, power: int = 1) -> Fraction:
    """Generalised harmonic number sum_{i=1}^{m} 1/i^power, exact.

    Each power's sums are one grown list, not a recursion: a test reads
    m = 1499, past the default recursion limit.
    """
    seq = _HARMONIC.setdefault(power, [Fraction(0)])
    while len(seq) <= m:
        i = len(seq)
        seq.append(seq[-1] + Fraction(1, i**power))
    return seq[m]


@cache
def harmonic_e(q: int, m: int) -> Fraction:
    """e_q(1, 1/2, ..., 1/m), from the power sums harmonic(m, i) by Newton's identities.

    j e_j = sum_{i=1}^{j} (-1)^(i-1) e_{j-i} p_i.  delta multiplies Stirling
    numbers instead, so (n-1)! e_{r-1}(1, ..., 1/(n-k)) is an independent
    form of it.
    """
    p = {i: harmonic(m, i) for i in range(1, q + 1)}
    e = [Fraction(1)]
    for j in range(1, q + 1):
        e.append(sum((-1) ** (i - 1) * e[j - i] * p[i] for i in range(1, j + 1)) / j)
    return e[q]


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
    # delta(r, 1, n) = c(n, r) = (n-1)! e_{r-1}(1, 1/2, ..., 1/(n-1))
    for r in (2, 3, 4):
        for n in range(r, 61):
            assert delta(r, 1, n) == math.factorial(n - 1) * harmonic_e(r - 1, n - 1)


def test_delta_is_the_harmonic_form_at_every_k() -> None:
    # delta(r, k, n) = (n-1)! e_{r-1}(1, 1/2, ..., 1/(n-k)), and 0 past k = n
    for r in (2, 3, 4):
        for n in range(1, 81):
            for k in range(1, n + 1):
                want = math.factorial(n - 1) * harmonic_e(r - 1, n - k)
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
    e = ktp._elementary(n_max, 7)
    for q in range(2, 9):
        # Newton's alternating sums lose most where e_{q-1} is smallest: e_7
        # of seven values, 1/7!, is off by 1.6e-13 relative (6e-16 absolute)
        bound = 1e-13 if q <= 4 else 1e-12
        for n in range(q, n_max + 1):
            for k in range(1, n - q + 2):  # the cells the recursion reads
                want = delta(q, k, n) / math.factorial(n)
                assert abs(e[q - 1, n - k] / n - want) <= bound * want, (q, k, n)


def test_stirling_and_delta_do_not_recurse_deeply(monkeypatch) -> None:
    # one Python frame per size would pass the default recursion limit of 1000 here
    monkeypatch.setattr(exact, "_TABLES", {})
    assert stirling_cycle(1500, 2) == math.factorial(1499) * harmonic(1499)
    monkeypatch.setattr(exact, "_TABLES", {})
    assert delta(3, 600, 700) == math.factorial(699) * harmonic_e(2, 100)


def test_delta_rejects_unsupported_ranks() -> None:
    with pytest.raises(ValueError):
        delta(1, 1, 5)
    # every rank r >= 2 is served: at k = 1 delta is c(n, r)
    assert delta(5, 1, 5) == 1
    assert delta(9, 1, 12) == stirling_cycle(12, 9)


def test_stirling_recurrence() -> None:
    # c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k) from c(0, 0) = 1, with
    # c(n, 0) = 0 for n >= 1 and c(n, k) = 0 for k > n
    assert stirling_cycle(0, 0) == 1
    for n in range(1, 201):
        assert stirling_cycle(n, 0) == 0
        assert stirling_cycle(n, 1) == math.factorial(n - 1)
        for k in range(1, 9):
            assert stirling_cycle(n, k) == stirling_cycle(n - 1, k - 1) + (n - 1) * stirling_cycle(n - 1, k)
    for n in range(9):
        assert stirling_cycle(n, n) == 1
        for k in range(n + 1, 9):
            assert stirling_cycle(n, k) == 0, (n, k)
    assert stirling_cycle(4, 6) == 0  # every k >= 0 is served


def test_stirling_columns_live_in_the_store(monkeypatch) -> None:
    # column k is kept by exact's store under its one grow rule, and every
    # k past n + 1 reads column n + 1; a column built from the held column
    # k - 1 is the cold one, and the held column is read, never written
    monkeypatch.setattr(exact, "_TABLES", {})
    assert stirling_cycle(10, 3) == 1172700
    assert stirling_cycle(3, 10**6) == 0
    assert set(exact._TABLES) == {(ktp._stirling, 3), (ktp._stirling, 4)}
    for k in range(1, 9):
        lower = ktp._stirling(k - 1, 30)
        assert ktp._stirling(k, 25, lower) == ktp._stirling(k, 25)
        assert lower == ktp._stirling(k - 1, 30)


def _local_stirling(n_max: int, k_max: int) -> list[list[int]]:
    """c[n][k] for n <= n_max, k <= k_max, by the recurrence, apart from the package's."""
    c = [[1] + [0] * k_max]
    for n in range(1, n_max + 1):
        c.append([0] + [c[-1][k - 1] + (n - 1) * c[-1][k] for k in range(1, k_max + 1)])
    return c


def test_correction_is_the_stirling_sum_of_the_proof() -> None:
    # the proof in ktp's docstring: the correction sum_{j=0}^{n-k} (n-1)!/j!
    # c(j, r-1), over the cycles through element n of size n - j >= k,
    # equals (n-1)!/(n-k)! c(n-k+1, r) at every rank, and delta through rank 4
    c = _local_stirling(151, 8)
    for r in range(2, 9):
        for n in range(1, 151):
            fall = math.factorial(n - 1)
            total = 0
            for k in range(n, 0, -1):  # term j = n - k joins the sum
                total += fall // math.factorial(n - k) * c[n - k][r - 1]
                assert total == fall // math.factorial(n - k) * c[n - k + 1][r], (r, k, n)
                if r <= 4 and n <= 60:
                    assert delta(r, k, n) == total, (r, k, n)


@pytest.mark.parametrize("r, top", [(5, 24), (6, 20), (7, 20), (8, 20)])
def test_shortest_counts_past_rank_four_match_the_window_recursion(r, top) -> None:
    # the proven recursion holds at every rank: the exact tables, read as
    # PMFs by exact's differencing rule, are the window recursion's
    rows = ktp._v_rows(r, top)
    for n in range(1, top + 1):
        fact = math.factorial(n)
        cells = [rows[t][n] for t in range(exact._top_threshold(n, r, S) + 1)]
        got = tuple(Fraction(count, fact) for count in exact._differences(cells, fact, S))
        assert got == exact.pmf(P, n, r, S).probs, (r, n)


@pytest.mark.parametrize("call, name, outside", [
    (lambda v: delta(v, 1, 4), "rank r", (1,)),
    (lambda v: delta(2, v, 4), "threshold k", (0,)),
    (lambda v: delta(2, 1, v), "size n", (0,)),
    (lambda v: stirling_cycle(v, 2), "size n", (-1,)),
    (lambda v: stirling_cycle(4, v), "cycles k", (-1,)),
], ids=["delta-r", "delta-k", "delta-n", "stirling-n", "stirling-k"])
def test_helpers_refuse_bools_and_non_integers(call, name, outside) -> None:
    # True == 1 would be served as 1, and a float index fails inside the tables
    for bad in (True, False, 2.0, np.float64(2), Fraction(2), "2", None):
        with pytest.raises(ValueError):
            call(bad)
    # the message names the argument, an int outside its range included
    for bad in (True, 2.0, *outside):
        with pytest.raises(ValueError, match=name):
            call(bad)
    assert call(np.int64(2)) == call(2)
    assert type(call(np.int64(2))) is type(call(2))


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
    for r in range(5, 9):  # the smallest side past the paper's ranks
        for n in range(1, 21):
            assert pmf_from_tables(r, n, S).probs == exact.pmf(P, n, r, S).probs, (r, n)


def test_shortest_table_serves_ranks_past_four() -> None:
    # v_r(k, n) counts the n-permutations whose r-th shortest cycle is >= k,
    # the window recursion's tail; fewer than r cycles is digest 0 < k
    for r in range(5, 9):
        table = shortest_table(r, 14, 12)
        assert table.conjectural
        for n in range(1, 13):
            counts = [p * math.factorial(n) for p in exact.pmf(P, n, r, S).probs]
            for k in range(1, 15):
                assert table.counts[k][n] == sum(counts[k:]), (r, k, n)


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


@pytest.mark.parametrize("table, args, name", [
    (longest_table, (2, 3, -1), "n_max"),
    (longest_table, (2, -1, 3), "k_max"),
    (shortest_table, (2, 3, -2), "n_max"),
    (shortest_table, (2, -1, 3), "k_max"),
    (longest_table, (True, 2, 2), "rank r"),
    (shortest_table, (True, 2, 2), "rank r"),
    (longest_table, (0, 2, 2), "rank r"),
    (longest_table, (2.0, 3, 4), "rank r"),
    (shortest_table, (2.0, 3, 4), "rank r"),
    (longest_table, (2, 3.0, 4), "k_max"),
    (shortest_table, (2, 3, 4.0), "n_max"),
    (longest_table, (2, True, 4), "k_max"),
    (shortest_table, (2, 3, "4"), "n_max"),
    (longest_table, (2, 3, 4.0), "n_max"),
    (longest_table, (2, 3, True), "n_max"),
    (shortest_table, (0, 2, 2), "rank r"),
    (shortest_table, (2, 3.0, 4), "k_max"),
    (shortest_table, (2, True, 4), "k_max"),
    (shortest_table, (2, 3, False), "n_max"),
], ids=["long-n", "long-k", "short-n", "short-k", "long-bool", "short-bool", "long-0",
        "long-float-r", "short-float-r", "long-float-k", "short-float-n",
        "long-bool-k", "short-str-n", "long-float-n", "long-bool-n", "short-0",
        "short-float-k", "short-bool-k", "short-bool-n"])
def test_bad_table_requests_are_refused_before_the_store(monkeypatch, table, args, name) -> None:
    def refuse(*args):
        raise AssertionError("a refused request reached the store")

    monkeypatch.setattr(exact, "_stored", refuse)
    with pytest.raises(ValueError, match=name):
        table(*args)


_READS = [
    lambda n, r: exact.pmf(P, n, r, L),
    lambda n, r: exact.pmf_float(M, n, r, S),
    lambda n, r: pmf_from_tables(r, n, L),
    lambda n, r: pmf_from_tables_float(r, n, L),
    lambda n, r: pmf_from_tables_float(r, n, S),
]
_READ_IDS = ["exact", "exact-float", "ktp", "ktp-float-largest", "ktp-float-smallest"]


@pytest.mark.parametrize("read", _READS, ids=_READ_IDS)
def test_bool_ranks_are_refused_before_the_store(monkeypatch, read) -> None:
    # the store reads rank r - 1 from a key, and True == 1: a bool rank
    # would be served, and held, as rank 1; numpy reads row True of a table
    # as a mask, and a bool size would be served as size 1; a float or a
    # string would fail deep inside a builder
    def refuse(*args):
        raise AssertionError("a refused request reached the store")

    monkeypatch.setattr(exact, "_stored", refuse)
    for r in (True, False, 0, -1, 2.0, np.float64(2), Fraction(2), "2", None):
        with pytest.raises(ValueError, match="rank"):
            read(3, r)
    for n in (True, False, 0, -1, 5.0, np.float64(5), Fraction(5), "5", None):
        with pytest.raises(ValueError, match="size"):
            read(n, 2)


_SIDED_READS = [
    lambda kind, side: exact.pmf(kind, 5, 2, side),
    lambda kind, side: exact.pmf_float(kind, 5, 2, side),
    lambda kind, side: pmf_from_tables(2, 5, side),
    lambda kind, side: pmf_from_tables_float(2, 5, side),
]
_SIDED_IDS = ["exact", "exact-float", "ktp", "ktp-float"]


@pytest.mark.parametrize("read", _SIDED_READS, ids=_SIDED_IDS)
def test_sides_that_are_not_a_side_are_refused_before_the_store(monkeypatch, read) -> None:
    # every branch tests the side with `is`: "largest" would be served as
    # the smallest side, and stored under a key of its own
    def refuse(*args):
        raise AssertionError("a refused request reached the store")

    monkeypatch.setattr(exact, "_stored", refuse)
    for side in ("largest", "smallest", None, 0):
        with pytest.raises(ValueError, match="Side"):
            read(P, side)


@pytest.mark.parametrize("read", _SIDED_READS[:2], ids=_SIDED_IDS[:2])
def test_kinds_that_are_not_a_kind_are_refused_before_the_store(monkeypatch, read) -> None:
    # "permutation" would be served as a mapping, under the permutation label
    def refuse(*args):
        raise AssertionError("a refused request reached the store")

    monkeypatch.setattr(exact, "_stored", refuse)
    for kind in ("permutation", "mapping", None):
        for side in (L, S):
            with pytest.raises(ValueError, match="ObjectKind"):
                read(kind, side)


@pytest.mark.parametrize("read", _READS, ids=_READ_IDS)
def test_numpy_integer_sizes_and_ranks_are_served(read) -> None:
    got = read(np.int64(5), np.int64(2))
    assert got.probs == read(5, 2).probs


@pytest.mark.parametrize("table, last", [(longest_table, 5), (shortest_table, 10)])
def test_rows_past_the_stored_columns_are_one_object(monkeypatch, table, last) -> None:
    # past the stored table's last column every row is that column, built
    # into a tuple once; k_max far past n_max costs one reference per row
    monkeypatch.setattr(exact, "_TABLES", {})
    counts = table(2, 100_000, 10).counts
    assert len(counts) == 100_001
    assert all(row is counts[last] for row in counts[last:])
    assert len({id(row) for row in counts}) == last + 1
    assert counts[: last + 1] == table(2, last, 10).counts


def test_builders_never_call_the_store(monkeypatch) -> None:
    # each builder is a pure function of its rank, n_max and an optional
    # rank r-1 table: it runs its ranks itself, from rank 0 or from that
    # table, instead of reading them from the store
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
                width = exact._top_threshold(12, r, side) + 1
                top, tau = exact._build_chain(kind, side, r, 12)
                assert top.shape == (13, width) and tau.shape == (13,)
                if r > 1:
                    lower = exact._build_chain(kind, side, r - 1, 12)
                    assert exact._build_chain(kind, side, r, 12, lower)[0].shape == (13, width)
        assert ktp._v_norm(r, 12).shape == (13, 14 - r)
        for name in ("_u_rows", "_v_rows"):
            assert getattr(ktp, name)(r, 12) == tables[name, r]
            if r > 1:
                assert getattr(ktp, name)(r, 12, tables[name, r - 1]) == tables[name, r]


@pytest.mark.parametrize("name", ["_u_rows", "_v_rows", "_v_norm"])
def test_builds_from_the_rank_below_are_cold_builds_bit_for_bit(name) -> None:
    # the rank r-1 table of a larger, taller and wider build starts the
    # rank r build; every cell must keep the bits of the build from the
    # all-zero rank 0, including past r - 1 >= n_max + 1 (exact counts to
    # rank 6; the float correction's written-out e_q end at rank 4), and
    # the held table must not change
    build = getattr(ktp, name)
    for n_max in (1, 2, 3, 5, 37, 200):
        for r in range(2, 5 if name == "_v_norm" else 7):
            lower = build(r - 1, n_max * 5 // 4 + 2)
            held = [list(column) for column in lower] if name != "_v_norm" else lower.copy()
            cold, warm = build(r, n_max), build(r, n_max, lower)
            if name == "_v_norm":
                assert warm.shape == cold.shape, (n_max, r)
                assert np.array_equal(warm, cold), (n_max, r)
                assert np.array_equal(lower, held), (n_max, r)
            else:
                assert warm == cold, (n_max, r)
                assert lower == held, (n_max, r)


@pytest.mark.parametrize("name", ["chain-largest", "chain-smallest", "_v_norm"])
def test_permutation_builds_hold_their_output_and_at_most_the_level_below(name) -> None:
    # a warm build from a larger held rank r-1 table allocates the table it
    # returns and a few rows; a cold one also the level below: no prefix
    # table of either level is held beside them
    if name == "_v_norm":
        build, table = ktp._v_norm, lambda out: out
    else:
        build = partial(exact._build_chain, P, L if name == "chain-largest" else S)
        table = lambda out: out[0]  # noqa: E731
    held = build(2, 500)
    for r, lower, bound in ((3, held, 1.1), (2, None, 2.1)):
        tracemalloc.start()
        try:
            out = build(r, 400, lower)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * table(out).nbytes, (r, peak / table(out).nbytes)


def _route_pmfs(r, n):
    # every float and exact PMF route of one rank at one size
    out = {}
    for side in (L, S):
        out["chain-P", side] = exact.pmf_float(P, n, r, side).probs
        out["chain-M", side] = exact.pmf_float(M, n, r, side).probs
        out["ktp", side] = pmf_from_tables(r, n, side).probs
        out["ktp-float", side] = pmf_from_tables_float(r, n, side).probs
    return out


def test_rank_order_does_not_move_a_bit(monkeypatch) -> None:
    # ranks asked in ascending order start from the rank below, in
    # descending order from rank 0, shuffled a mix of both; sizes asked
    # in turn leave the rank below held smaller than asked at times.
    # Every PMF keeps its bits
    warm = []
    for module, name in ((exact, "_build_chain"), (ktp, "_u_rows"), (ktp, "_v_rows"),
                         (ktp, "_v_norm")):
        def counted(*args, build=getattr(module, name)):
            warm.append(args[-1] is not None)
            return build(*args)

        monkeypatch.setattr(module, name, counted)
    orders = [(1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3), (3, 1, 4, 2)]
    results = []
    for order in orders:
        monkeypatch.setattr(exact, "_TABLES", {})
        warm.clear()
        results.append({(r, n): _route_pmfs(r, n) for n in (30, 1, 2, 5, 61, 44)
                        for r in order})
        assert any(warm) == (order != (4, 3, 2, 1)), order  # a smaller held rank is unused
    for got in results[1:]:
        assert got == results[0]


def test_no_build_past_rank_n_plus_one_starts_from_the_rank_below(monkeypatch) -> None:
    # past rank n + 1 every cell at sizes <= n is settled, so the store
    # builds no table past rank n + 1: ranks 7 and 8 at n = 5 read the rank
    # 6 table, which is built from rank 0
    monkeypatch.setattr(exact, "_TABLES", {})
    builds = []
    for module, name in ((exact, "_build_chain"), (ktp, "_u_rows")):
        def recorded(*args, build=getattr(module, name)):
            builds.append((build.__name__, args[-3], args[-2], args[-1] is None))
            return build(*args)

        monkeypatch.setattr(module, name, recorded)
    n = 5
    for r in (6, 7, 8):
        for kind in (P, M):
            for side in (L, S):
                assert exact.pmf_float(kind, n, r, side).probs == (1.0,), (kind, side, r)
        assert pmf_from_tables(r, n, L).probs == (Fraction(1),), r
    # one chain build per kind and side, and one exact table build, all at rank 6
    assert sorted(builds) == [("_build_chain", n + 1, n, True)] * 4 + [("_u_rows", n + 1, n, True)]


# ---------------------------------------------------------------------------
# normalized float tables


def test_normalized_u_matches_exact() -> None:
    # the largest-side float table is the threshold chain's, [n, k] for k <= 40//r
    for r in (1, 2, 3, 4):
        table = longest_table(r, 20, 40)
        top, tau = exact._build_chain(P, L, r, 40)  # the raw level, scaled by tau
        for n in (1, 7, 23, 40):
            bound = math.factorial(n)
            for k in range(0, min(20, 40 // r) + 1):
                want = table.counts[k][n] / bound
                assert top[n, k] / tau[n] == pytest.approx(want, rel=1e-12, abs=1e-15)


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
    ((key, (held, value)),) = exact._TABLES.items()
    chain = isinstance(value, tuple)  # the chain's raw level and its tau
    table, tau = value if chain else (value, np.ones(n + 1))
    doctored = table.copy()
    # one mass entry < 0 once read: P{2nd largest <= 0}, or the tail
    # P{2nd smallest > n-2}, the raw cell less the row's top cell, over tau_n
    t = 0 if side is L else n - r
    doctored[n, t] = -1e-6 * tau[n] + (0.0 if side is L else table[n, t + 1])
    monkeypatch.setitem(exact._TABLES, key, (held, (doctored, tau) if chain else doctored))
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
    position = 3 if builder == "_build_chain" else 1  # n_max, after (kind, side, r) or (r,)

    def counted(*args):
        sizes.append(args[position])
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
        for r in range(2, 9):
            proven = exact.pmf_float(P, n, r, S).probs
            conjectural = pmf_from_tables_float(r, n, S).probs
            assert len(proven) == len(conjectural)
            assert max(abs(a - b) for a, b in zip(proven, conjectural)) <= 1e-12, (n, r)


def test_float_recursion_takes_overflowing_power_sums_silently() -> None:
    # rank 150 reads e_149, whose power sum p_149 holds j^149 = inf from
    # j = 118: 1/j^i is taken as 0.0, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conjectural = pmf_from_tables_float(150, 300, S).probs
    proven = exact.pmf_float(P, 300, 150, S).probs
    assert len(proven) == len(conjectural)
    assert max(abs(a - b) for a, b in zip(proven, conjectural)) <= 1e-12


def _column_major_delta_norm(r, k_max, n_max):
    # the float correction table D[k, n] = delta(r, k, n)/n! = e_{r-1}[n-k]/n, in full
    e = ktp._elementary(n_max, r - 1)[r - 1]
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
