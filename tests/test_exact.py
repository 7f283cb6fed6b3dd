"""Rank-window recursion: polynomial fixtures, window ops, float engine."""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from permap import exact, ktp
from permap.exact import (
    INFINITY,
    PrecisionError,
    _build_chain,
    _top_threshold,
    largest_poly,
    memo_stats,
    pmf,
    pmf_float,
    smallest_poly,
    support_length,
)
from permap.kinds import ObjectKind, Side, total_count
from permap.oracle import _spectrum
from permap.stats import summarize
from test_properties import demote, promote

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


def test_every_small_window_matches_enumeration() -> None:
    # the canonical states drop the entries that can never move: from w_k
    # on where m < (k-1)(w_k+1) on the largest side, leading entries <= 1
    # and all but the last m + 1 on the smallest; the r-th ranked size of
    # window + components is the digest
    for kind, n_top in ((P, 6), (M, 5)):
        for n in range(n_top + 1):
            spectrum = _spectrum(kind, n) if n else Counter({(): 1})  # the one empty table
            for r in (1, 2, 3, 4):
                for side, entries in ((L, range(n + 3)), (S, [*range(n + 3), INFINITY])):
                    for window in itertools.combinations_with_replacement(entries, r):
                        tally = Counter()
                        for sizes, count in spectrum.items():
                            merged = sorted(window + sizes)
                            digest = merged[-r] if side is L else merged[r - 1]
                            tally[0 if digest == INFINITY else digest] += count
                        want = tuple(tally[k] for k in range(max(tally) + 1))
                        poly = largest_poly if side is L else smallest_poly
                        got = poly(kind, n, window).coeffs
                        assert trimmed(got) == want, (kind, n, side, window)


def test_row_polynomial_metadata() -> None:
    row = largest_poly(P, 4, (0, 0))
    assert row.n == 4
    assert row.side is L
    row = smallest_poly(P, 4, (INFINITY, INFINITY))
    assert row.side is S


# ---------------------------------------------------------------------------
# window validation


def test_largest_rejects_infinite_entries() -> None:
    with pytest.raises(ValueError, match="rank window entry INFINITY"):
        largest_poly(P, 3, (0, INFINITY))


def test_windows_reject_bad_entries() -> None:
    # every refusal names the entry
    with pytest.raises(ValueError, match="rank window must have at least one entry"):
        largest_poly(P, 3, ())
    with pytest.raises(ValueError, match="rank window entry must be an int >= 0, got -1"):
        largest_poly(P, 3, (-1, 0))
    with pytest.raises(ValueError, match="rank window entry must be an int >= 0, got 1.5"):
        smallest_poly(P, 3, (1.5, INFINITY))
    with pytest.raises(ValueError, match="rank window entry must be an int >= 0, got True"):
        largest_poly(P, 3, (True, 0))
    with pytest.raises(ValueError, match="rank window entry must be an int >= 0, got True"):
        smallest_poly(P, 3, [True])


def test_numpy_int_window_entries_are_served_as_ints() -> None:
    # as on every other route, by the one argument rule (kinds.whole)
    for kind in (P, M):
        for window in ((0, 0), (1, 2), (0, 3)):
            for cast in (np.int64, np.int32):
                wide = tuple(cast(entry) for entry in window)
                assert largest_poly(kind, 5, wide) == largest_poly(kind, 5, window)
                assert smallest_poly(kind, 5, wide) == smallest_poly(kind, 5, window)
                assert (smallest_poly(kind, 5, (*wide, INFINITY))
                        == smallest_poly(kind, 5, (*window, INFINITY)))


@pytest.mark.parametrize("poly", [largest_poly, smallest_poly])
def test_row_polynomials_refuse_bad_kinds_and_sizes(poly) -> None:
    # a string kind is served as a mapping; a bool size as 1; a float fails deep inside
    window = (INFINITY,) * 2 if poly is smallest_poly else (0, 0)
    for kind in ("permutation", None):
        with pytest.raises(ValueError, match="ObjectKind"):
            poly(kind, 4, window)
    for n in (True, False, 4.0, np.float64(4), "4", -1):
        with pytest.raises(ValueError, match="size"):
            poly(P, n, window)
    assert poly(P, np.int64(4), window) == poly(P, 4, window)
    assert poly(P, 0, window).coeffs == poly(P, np.int64(0), window).coeffs


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


def test_support_length_refuses_bools_floats_and_values_below_range() -> None:
    for bad in (True, 2.0, -1):
        with pytest.raises(ValueError, match="size n"):
            support_length(bad, 2, L)
    for bad in (True, 2.0, 0):
        with pytest.raises(ValueError, match="rank r"):
            support_length(10, bad, L)


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
                # the top threshold is the largest possible digest on both sides
                assert support_length(n, r, side) == _top_threshold(n, r, side) + 1
                assert probs[-1] > 0


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


def test_pmf_float_mass_is_continuous_at_n_200_and_201() -> None:
    # the mapping chain's mass stays within 1e-11 of 1 at two adjacent sizes
    lo = pmf_float(M, 200, 2, L)
    hi = pmf_float(M, 201, 2, L)
    assert abs(sum(lo.probs) - 1.0) <= 1e-11
    assert abs(sum(hi.probs) - 1.0) <= 1e-11


def test_pmf_float_probabilities_lie_in_the_unit_interval() -> None:
    # mapping q_1 = gammaincc(1, 1) and tau_1 = exp(-1) round apart, which
    # once left 1.0000000000000002 at n = 1 and a negative variance
    for kind in (P, M):
        for side in (L, S):
            for r in (1, 2, 3, 4):
                for n in range(1, 61):
                    got = pmf_float(kind, n, r, side)
                    assert all(0.0 <= p <= 1.0 for p in got.probs), (kind, side, r, n)
                    assert summarize(got).variance >= 0.0, (kind, side, r, n)


def test_mapping_chain_rows_do_not_depend_on_the_table_width() -> None:
    # each cell sums over the new component's size in one fixed order, so
    # row n of a table built for a larger n_max holds a one-size build's
    # bits, and so does its scale tau_n: the read of row n is the same.
    # Each one-size build starts from the one-size build of the rank below,
    # where the store would (r <= n + 1)
    for side in (L, S):
        below = {}
        for r in (1, 2, 3, 4):
            grown, grown_tau = _build_chain(M, side, r, 160)
            for n in range(1, 161):
                below[n] = _build_chain(M, side, r, n, below.get(n) if r <= n + 1 else None)
                alone, tau = below[n]
                assert np.array_equal(grown[n, : alone.shape[1]], alone[n]), (side, r, n)
                assert grown_tau[n] == tau[n], (side, r, n)


def test_permutation_chain_rows_do_not_depend_on_the_table_width() -> None:
    # the prefix-sum diagonal steps by width - 1 flat cells, so a stride
    # off by one would make row n depend on the table width
    for side in (L, S):
        for r in (1, 2, 3, 4):
            grown, grown_tau = _build_chain(P, side, r, 160)
            for n in range(1, 161):
                alone, tau = _build_chain(P, side, r, n)
                assert np.array_equal(grown[n, : alone.shape[1]], alone[n]), (side, r, n)
                assert grown_tau[n] == tau[n] == 1.0, (side, r, n)


def _gather_chain(side, r, n_max, tails):
    # the permutation chain with every prefix-sum read as a fancy gather
    # through an index array: the reference for the strided-view reads.
    # Its top level is raw, or with tails the smallest side less each row's
    # P{fewer than r cycles}, the reference for the read rule
    largest = side is L
    k_max = n_max // r if largest else max(n_max - r + 2, 1)
    ks = np.arange(k_max + 1)
    cut = ks if largest else np.maximum(ks - 1, 0)
    width, rows = k_max + 1, n_max + 1
    out = np.empty((rows, width))
    out[0] = 1.0
    col = np.empty(width)
    level = np.zeros((rows + 1, width))
    for c in range(r):
        prev, level = level, np.zeros((rows + 1, width))
        low, high = (level, prev) if largest else (prev, level)
        level[1] = 1.0
        low_flat, high_flat = low.reshape(-1), high.reshape(-1)
        for m in range(1, rows):
            idx = (m - np.minimum(cut, m)) * width + ks
            np.subtract(low[m], low_flat[idx], out=col)
            col += high_flat[idx]
            col /= m
            np.add(level[m], col, out=level[m + 1])
            if c == r - 1:
                out[m] = col
    if tails and not largest:
        sizes = np.arange(rows)
        out -= out[sizes, np.maximum(sizes - r + 2, 1)][:, None]
    return out


def _gathered(side, r, n_max, tails=False):
    # the gathered chain on the built table's thresholds: the smallest side's
    # column k is threshold t = k - 1, and its column k = 0 is not built
    want = _gather_chain(side, r, n_max, tails)
    return want if side is L else want[:, 1:]


def _gathered_pmf(cells, side):
    # the digest's PMF from CDF cells (largest side) or tail cells (smallest)
    steps = np.diff(cells)
    first = cells[0] if side is L else 1.0 - cells[0]
    return np.clip(np.concatenate(([first], steps if side is L else -steps)), 0.0, 1.0)


def test_permutation_chain_is_the_gathered_chain_bit_for_bit() -> None:
    # widths 1 and 2 and thresholds past m: the strided reads must round
    # every cell as the gathers did, and the read rule must give the
    # gathered tails' PMF
    for side in (L, S):
        for r in (1, 2, 3, 4):
            for n_max in (1, 2, 3, 5, 37, 200):
                got, tau = _build_chain(P, side, r, n_max)
                want = _gathered(side, r, n_max)
                assert got.shape == want.shape
                assert np.array_equal(got, want), (side, r, n_max)
                assert np.array_equal(tau, np.ones(n_max + 1))
                tails = _gathered(side, r, n_max, tails=True)
                for n in range(1, n_max + 1):
                    read = exact._row_pmf(got, n, r, side, tau[n])
                    want_pmf = _gathered_pmf(tails[n, : support_length(n, r, side)], side)
                    assert np.array_equal(read, want_pmf), (side, r, n_max, n)


def test_chain_ranks_past_n_max_plus_one_give_its_table() -> None:
    # an m-object has at most m components, so levels past n_max + 1 change
    # no bit of any cell: the rank rule by which the store serves every rank
    # past n + 1 from the rank n + 1 table.  The builder and the gathered
    # chain both run every level they are asked for
    for kind in (P, M):
        for side in (L, S):
            for n_max in (1, 2, 3, 5, 17):
                want, want_tau = _build_chain(kind, side, n_max + 1, n_max)
                for r in (n_max + 2, n_max + 5):
                    got, tau = _build_chain(kind, side, r, n_max)
                    assert np.array_equal(got, want), (r, n_max)
                    assert np.array_equal(tau, want_tau), (r, n_max)
                    if kind is P and r == n_max + 2:
                        assert np.array_equal(_gathered(side, r, n_max), want), (r, n_max)


def test_one_column_chain_rows_are_the_wider_rows_bit_for_bit() -> None:
    # a one-column table sums each cell over j = 1..m row by row, as a wider
    # one does, though numpy's np.sum adds one contiguous column of 8 or more
    # rows pairwise; a permutation table reads its anti-diagonals from row 0
    # at every step.  Row n of the one-column rank n + 1 table at n_max = n
    # (blocks of up to n rows) holds the bits of row n of the rank n + 1
    # table grown to 5n/4 + 1
    for kind in (P, M):
        for side in (L, S):
            for n in range(1, 41):
                wide, _ = _build_chain(kind, side, n + 1, n * 5 // 4 + 1)
                alone, _ = _build_chain(kind, side, n + 1, n)
                assert alone.shape[1] == 1 < wide.shape[1], (kind, side, n)
                assert np.array_equal(wide[n, :1], alone[n]), (kind, side, n)


def _store_reads(kind: ObjectKind, side: Side) -> dict:
    """Each route that reads a rank at size n from the store: (read(r, n), sizes)."""
    reads = {"pmf_float": (lambda r, n: pmf_float(kind, n, r, side).probs, (120,))}
    if kind is P and side is L:
        reads["pmf_from_tables"] = (lambda r, n: ktp.pmf_from_tables(r, n, L).probs, (120,))
        reads["longest_table"] = (lambda r, n: ktp.longest_table(r, n + 3, n).counts, (0, 120))
    if kind is P and side is S:
        reads["pmf_from_tables"] = (lambda r, n: ktp.pmf_from_tables(r, n, S).probs, (1, 2, 120))
        reads["pmf_from_tables_float"] = (
            lambda r, n: ktp.pmf_from_tables_float(r, n, S).probs, (1, 2, 120))
        reads["shortest_table"] = (lambda r, n: ktp.shortest_table(r, n + 3, n).counts,
                                   (0, 1, 2, 120))
    return reads


@pytest.mark.parametrize("kind", [P, M])
@pytest.mark.parametrize("side", [L, S])
def test_ranks_past_n_plus_one_read_the_rank_n_plus_one_table(monkeypatch, kind, side) -> None:
    # an n-object has at most n components, so every rank past n + 1 has the
    # rank n + 1 PMF and table rows, and is served from that table: no key
    # is added.  At n = 0 that is rank 2, since the shortest-side counts of
    # rank 1 hold the recursion's base case 1 where rank 2 holds 0
    for name, (read, sizes) in _store_reads(kind, side).items():
        for n in sizes:
            monkeypatch.setattr(exact, "_TABLES", {})
            base = max(n, 1) + 1
            want = read(base, n)
            keys = set(exact._TABLES)
            for r in (base + 1, base + 6, 10**6):
                assert read(r, n) == want, (name, n, r)
            assert set(exact._TABLES) == keys, (name, n)
    if kind is P and side is S:
        assert ktp.shortest_table(1, 1, 0).counts != ktp.shortest_table(2, 1, 0).counts


def test_chain_from_the_rank_below_is_the_cold_chain_bit_for_bit() -> None:
    # the rank r-1 table of a larger, taller and wider build starts the
    # rank r build at its top level, for r <= n_max + 1 as the store passes
    # it; every cell and tau_n must keep the bits of the build from the
    # all-zero rank 0, and the held table must not change
    for kind in (P, M):
        for side in (L, S):
            for n_max in (1, 2, 3, 5, 37, 200):
                for r in range(2, min(7, n_max + 2)):
                    lower = _build_chain(kind, side, r - 1, n_max * 5 // 4 + 2)
                    held = lower[0].copy()
                    cold, cold_tau = _build_chain(kind, side, r, n_max)
                    warm, warm_tau = _build_chain(kind, side, r, n_max, lower)
                    assert warm.shape == cold.shape, (kind, side, n_max, r)
                    assert np.array_equal(warm, cold), (kind, side, n_max, r)
                    assert np.array_equal(warm_tau, cold_tau), (kind, side, n_max, r)
                    assert np.array_equal(lower[0], held), (kind, side, n_max, r)
                    assert not np.shares_memory(warm, lower[0]), (kind, side, n_max, r)


def test_precision_error_is_arithmetic_error() -> None:
    assert issubclass(PrecisionError, ArithmeticError)


def test_window_recursion_restores_the_recursion_limit(monkeypatch) -> None:
    # the limit is raised for the recursive call only, and put back after it
    monkeypatch.setattr(exact, "_MEMO", {})
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(500)
    try:
        # a final window returns without recursing: the limit must not move
        assert largest_poly(P, 300, (300,)).coeffs[-1] == math.factorial(300)
        assert sys.getrecursionlimit() == 500
        # 4n + 200 = 560 frames are allowed for this call, then 500 again
        assert sum(smallest_poly(P, 90, (INFINITY,)).coeffs) == math.factorial(90)
        assert sys.getrecursionlimit() == 500
    finally:
        sys.setrecursionlimit(before)


def test_memo_stats_reports_sizes(monkeypatch) -> None:
    largest_poly(P, 6, (0, 0))
    sizes = memo_stats()
    assert any(count > 0 for count in sizes.values())
    # canonical states: raw windows held 46,977 and 17,338 entries here,
    # and rank-4 windows alone, before ranks shared rows, 11,163 and 10,023
    monkeypatch.setattr(exact, "_MEMO", {})
    pmf(P, 40, 4, L)
    pmf(P, 40, 4, S)
    sizes = memo_stats()
    assert sizes["permutation/largest"] <= 3_184
    assert sizes["permutation/smallest"] <= 9_176
    # packed bits at 192-bit slots, the smallest multiple of 64 that holds
    # bits(40!) + 2: 12,284,999 and 21,279,132 before ranks shared rows
    bits = {side: sum(row.bit_length() for row in exact._MEMO[P, side][1].values())
            for side in (L, S)}
    assert bits[L] <= 3_710_390
    assert bits[S] <= 19_400_477


@pytest.mark.parametrize("kind,top", [(P, 25), (M, 15)])
@pytest.mark.parametrize("side", [L, S])
def test_window_pmfs_do_not_depend_on_the_order_of_requests(monkeypatch, kind, top, side) -> None:
    # ranks share rows: a row first built for one rank is read by another,
    # so every order must give the same PMFs and the same row at every key
    runs = []
    for ranks in ((1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1), (1, 6, 2, 5, 3, 4)):
        monkeypatch.setattr(exact, "_MEMO", {})
        got = {(n, r): pmf(kind, n, r, side).probs for r in ranks for n in range(1, top + 1)}
        runs.append((got, *exact._MEMO[kind, side]))
    for (got, width, rows), (again, width_again, rows_again) in itertools.combinations(runs, 2):
        assert got == again
        assert width == width_again
        shared = rows.keys() & rows_again.keys()
        assert shared
        assert all(rows[key] == rows_again[key] for key in shared)


def test_pmf_serves_ranks_far_past_n() -> None:
    # at most n components: the window is built with n + 1 entries, never r
    for side in (L, S):
        assert pmf(P, 3, 10**12, side).probs == (Fraction(1),)


def test_unpack_rejects_a_carried_row() -> None:
    coeffs = (0, 3, 0, 5, 1)

    def packed(width: int) -> int:
        return sum(c << (k * width) for k, c in enumerate(coeffs))

    assert exact._unpack(packed(4), 4, 9) == coeffs
    # 2-bit slots hold 3 but not 5: slot 3 carries into slot 4
    with pytest.raises(ArithmeticError):
        exact._unpack(packed(2), 2, 9)


@pytest.mark.parametrize("kind,small,large", [(P, 12, 45), (M, 8, 20)])
@pytest.mark.parametrize("side", [L, S])
def test_window_rows_do_not_depend_on_the_slot_width(monkeypatch, kind, small, large, side) -> None:
    monkeypatch.setattr(exact, "_MEMO", {})
    alone = pmf(kind, small, 3, side).probs
    narrow = exact._MEMO[kind, side][0]
    assert narrow == 64
    pmf(kind, large, 2, side)
    # the larger request widened the slots to the smallest multiple of 64
    # bits that holds bits(t_n) + 2: 192 for P at n = 45, 128 for M at n = 20
    assert exact._MEMO[kind, side][0] == -(-(total_count(kind, large).bit_length() + 2) // 64) * 64
    assert exact._MEMO[kind, side][0] == {P: 192, M: 128}[kind]
    assert pmf(kind, small, 3, side).probs == alone
    exact._MEMO.clear()
    assert sum(memo_stats().values()) == 0
