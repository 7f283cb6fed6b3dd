"""Brute-force ground truth by exhaustive enumeration.

Walks every n-permutation (n <= 8) or every function table on {1..n}
(n <= 7, so at most 7^7 = 823543 mappings), splits each into weakly
connected components of its functional graph, and tallies exact rational
PMFs of the r-th largest/smallest component size.  Slow and dumb on
purpose: this module shares no code path with the recursion engines, so
agreement with them is evidence, not tautology.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Sequence

from .exact import support_length
from .kinds import ObjectKind, Side, total_count
from .stats import ComponentPMF

_MAX_N = {ObjectKind.PERMUTATION: 8, ObjectKind.MAPPING: 7}


def decompose(kind: ObjectKind, f: Sequence[int]) -> tuple[int, ...]:
    """Component sizes of the functional graph of f, ascending.

    f maps i+1 to f[i] on {1..n}.  Permutation inputs must be bijective;
    for them the components are exactly the cycles.
    """
    n = len(f)
    if any(not 1 <= v <= n for v in f):
        raise ValueError("function table must map {1..n} into itself")
    if kind is ObjectKind.PERMUTATION and len(set(f)) != n:
        raise ValueError("permutation table must be a bijection")
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, v in enumerate(f):
        a, b = find(i), find(v - 1)
        if a != b:
            parent[a] = b
    sizes = Counter(find(i) for i in range(n))
    return tuple(sorted(sizes.values()))


@cache
def _spectrum(kind: ObjectKind, n: int) -> Counter:
    """Counter of ascending component-size tuples over all n-objects."""
    if kind is ObjectKind.PERMUTATION:
        tables = itertools.permutations(range(1, n + 1))
    else:
        tables = itertools.product(range(1, n + 1), repeat=n)
    return Counter(decompose(kind, f) for f in tables)


def enumerate_pmf(kind: ObjectKind, n: int, r: int, side: Side) -> ComponentPMF:
    """Exact PMF of the r-th ranked component size, by full enumeration."""
    if n < 1 or r < 1:
        raise ValueError("enumerate_pmf requires n >= 1 and r >= 1")
    if n > _MAX_N[kind]:
        raise ValueError(f"enumeration budget is n <= {_MAX_N[kind]} for {kind.name}")
    tally = [0] * support_length(n, r, side)
    for sizes, count in _spectrum(kind, n).items():
        if r > len(sizes):
            k = 0
        elif side is Side.LARGEST:
            k = sizes[-r]
        else:
            k = sizes[r - 1]
        tally[k] += count
    total = total_count(kind, n)
    probs = tuple(Fraction(c, total) for c in tally)
    return ComponentPMF(kind, n, r, side, probs)


def connected_tally(kind: ObjectKind, n: int) -> int:
    """Number of enumerated n-objects having a single component."""
    return sum(count for sizes, count in _spectrum(kind, n).items() if len(sizes) == 1)
