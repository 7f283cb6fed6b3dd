"""Brute-force enumeration oracle and its agreement with the recursions."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permap import exact, oracle
from permap.kinds import ObjectKind, Side, connected_count
from permap.oracle import decompose, enumerate_pmf

P = ObjectKind.PERMUTATION
M = ObjectKind.MAPPING
L = Side.LARGEST
S = Side.SMALLEST


def test_decompose_permutation_cycles() -> None:
    assert decompose(P, [2, 1, 3]) == (1, 2)
    assert decompose(P, [1, 2]) == (1, 1)
    assert decompose(P, [2, 3, 1]) == (3,)
    assert decompose(P, [1]) == (1,)


def test_decompose_mapping_components() -> None:
    assert decompose(M, [1, 1]) == (2,)
    assert decompose(M, [1, 2]) == (1, 1)
    # 1 -> 2 -> 3 -> 2 is one component; 4 -> 4 another
    assert decompose(M, [2, 3, 2, 4]) == (1, 3)


def test_decompose_returns_ascending_sizes() -> None:
    sizes = decompose(P, [2, 1, 4, 3, 5, 7, 6])
    assert sizes == tuple(sorted(sizes))
    assert sum(sizes) == 7


def test_decompose_rejects_non_bijective_permutation() -> None:
    with pytest.raises(ValueError):
        decompose(P, [1, 1])


def test_decompose_rejects_out_of_range_images() -> None:
    with pytest.raises(ValueError):
        decompose(M, [0, 1])
    with pytest.raises(ValueError):
        decompose(M, [3, 1])
    with pytest.raises(ValueError):
        decompose(P, [0, 1])
    with pytest.raises(ValueError):
        decompose(P, [2, 3])


@pytest.mark.parametrize("kind", [P, M])
def test_decompose_rejects_entries_that_are_not_integers(kind) -> None:
    for table in ([1.5, 2], [1.0, 2.0], [2.0, 1], [True], [2, True], [False, 1]):
        with pytest.raises(ValueError):
            decompose(kind, table)


def bfs_sizes(f: list[int]) -> tuple[int, ...]:
    """Component sizes by breadth-first search over the undirected graph i -- f(i)."""
    n = len(f)
    adjacent = [[] for _ in range(n)]
    for i, v in enumerate(f):
        adjacent[i].append(v - 1)
        adjacent[v - 1].append(i)
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for node in queue:
            for other in adjacent[node]:
                if not seen[other]:
                    seen[other] = True
                    queue.append(other)
        sizes.append(len(queue))
    return tuple(sorted(sizes))


@st.composite
def rho_tables(draw) -> list[int]:
    """A tail into a cycle: order[0] -> ... -> order[-1] -> order[j]."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(1, n + 1)))
    j = draw(st.integers(0, n - 1))
    f = [0] * n
    for a, b in zip(order, order[1:] + [order[j]]):
        f[a - 1] = b
    return f


mapping_tables = st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(1, max(n, 1)), min_size=n, max_size=n))
permutation_tables = st.integers(0, 12).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(list))


@given(st.one_of(st.tuples(st.just(M), mapping_tables | rho_tables()),
                 st.tuples(st.just(P), permutation_tables)))
def test_decompose_matches_breadth_first_search(case) -> None:
    kind, f = case
    assert decompose(kind, f) == bfs_sizes(f)


def test_permutation_spectrum_is_cauchys_cycle_type_count() -> None:
    # n! / prod_k k^{m_k} m_k! permutations have m_k cycles of length k
    for n in range(1, 9):
        spectrum = oracle._spectrum(P, n)
        assert sum(spectrum.values()) == math.factorial(n)
        for sizes, count in spectrum.items():
            assert sum(sizes) == n
            stabiliser = math.prod(k ** m * math.factorial(m)
                                   for k, m in Counter(sizes).items())
            assert count == math.factorial(n) // stabiliser, sizes


def test_mapping_spectrum_totals_and_connected_counts() -> None:
    # connected mappings on n labelled nodes, OEIS A001865
    connected = (1, 3, 17, 142, 1569, 21576, 355081)
    for n in range(1, 8):
        spectrum = oracle._spectrum(M, n)
        assert sum(spectrum.values()) == n ** n
        assert spectrum[(n,)] == connected[n - 1]


def test_enumeration_holds_one_block_of_tables_at_a_time() -> None:
    # a blocked pass holds a few (rows, n) int arrays of one block (about
    # 5.5 block_bytes at 4096 rows); an unblocked one holds them for all
    # 46656 tables of M n=6
    n = 6
    assert n ** n > 4 * oracle._BLOCK
    block_bytes = oracle._BLOCK * n * 8
    oracle._spectrum.cache_clear()
    tracemalloc.start()
    try:
        oracle._spectrum(M, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        oracle._spectrum.cache_clear()
    assert peak < 10 * block_bytes, peak


def test_decompose_empty_object() -> None:
    assert decompose(P, []) == ()
    assert decompose(M, []) == ()


def test_enumeration_budget() -> None:
    with pytest.raises(ValueError):
        enumerate_pmf(P, 9, 2, L)
    with pytest.raises(ValueError):
        enumerate_pmf(M, 8, 2, L)


def test_bool_sizes_and_ranks_are_refused() -> None:
    # True == 1: a bool would be served as size or rank 1; a float or a
    # string size would fail inside the enumeration
    for n, r in ((3, True), (True, 1), (3, False), (False, 1), (0, 1), (3, 0), (5.0, 2), (5, 2.0),
                 (np.float64(5), 2), ("5", 2), (5, None)):
        with pytest.raises(ValueError):
            enumerate_pmf(P, n, r, L)
    for bad in (True, 2.0, 0):  # the message names the argument
        with pytest.raises(ValueError, match="size n"):
            enumerate_pmf(P, bad, 1, L)
        with pytest.raises(ValueError, match="rank r"):
            enumerate_pmf(P, 3, bad, L)
    with pytest.raises(ValueError, match="size n"):  # past the enumeration budget
        enumerate_pmf(P, 9, 1, L)
    assert enumerate_pmf(M, np.int64(4), np.int64(2), S) == enumerate_pmf(M, 4, 2, S)


def test_kinds_and_sides_that_are_not_members_are_refused() -> None:
    # a string kind or side would be served as the other one; the refusal names it
    for kind, side, bad in (("permutation", L, "kind"), (P, "largest", "side"),
                            (P, "smallest", "side"), (None, S, "kind")):
        with pytest.raises(ValueError, match=f"enumerate_pmf: {bad} must be a member of"):
            enumerate_pmf(kind, 5, 2, side)


def test_enumerated_fixture_distributions() -> None:
    got = enumerate_pmf(P, 4, 2, L)
    assert got.probs == (Fraction(6, 24), Fraction(15, 24), Fraction(3, 24))
    got = enumerate_pmf(M, 4, 2, S)
    assert got.probs == (
        Fraction(142, 256),
        Fraction(19, 256),
        Fraction(27, 256),
        Fraction(68, 256),
    )


def test_single_cycle_probability_is_one_over_n() -> None:
    for n in range(1, 7):
        dist = enumerate_pmf(P, n, 1, L)
        assert dist.probs[n] == Fraction(1, n)


def connected_tally(kind: ObjectKind, n: int) -> int:
    """Number of enumerated n-objects having a single component."""
    return sum(count for sizes, count in oracle._spectrum(kind, n).items() if len(sizes) == 1)


def test_connected_tally_matches_closed_counts() -> None:
    for n in range(1, 7):
        assert connected_tally(P, n) == connected_count(P, n)
    for n in range(1, 6):
        assert connected_tally(M, n) == connected_count(M, n)


def test_recursion_agrees_with_enumeration_small() -> None:
    for kind, n_top in ((P, 6), (M, 5)):
        for n in range(1, n_top + 1):
            for r in (1, 2, 3, 4):
                for side in (L, S):
                    want = enumerate_pmf(kind, n, r, side)
                    got = exact.pmf(kind, n, r, side)
                    assert got.probs == want.probs, (kind, n, r, side)
