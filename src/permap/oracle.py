"""Brute-force ground truth by exhaustive enumeration.

Walks every n-permutation (n <= 8) or every function table on {1..n}
(n <= 7, so at most 7^7 = 823543 mappings), splits each into weakly
connected components of its functional graph, and tallies exact rational
PMFs of the r-th largest/smallest component size.

The tables are enumerated in fixed-size blocks, each an (rows, n) array
of 0-based images, so memory stays bounded by the block whatever n is.
Each block is decomposed at once by pointer jumping: after k rounds of
``label = min(label, label[g]); g = g[g]``, g is f applied 2^k times and
label[i] is the least node among the first 2^k on i's path.  Once 2^k >= n,
which ceil(log2 n) rounds reach, g sends every node past its tail (fewer
than n nodes) onto its component's cycle (at most n nodes), so
``label[g[i]]`` is the least node of that cycle and names i's component.
Counting names per row gives the component sizes.

This module shares no code path with the recursion engines, so agreement
with them is evidence, not tautology.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from .kinds import ObjectKind, Side, member, total_count, whole
from .stats import ComponentPMF

_MAX_N = {ObjectKind.PERMUTATION: 8, ObjectKind.MAPPING: 7}
_BLOCK = 4096  # tables decomposed per numpy pass


def _sizes(block: np.ndarray) -> Counter:
    """Counter of ascending component-size tuples over the rows of block.

    Each row is a table of 0-based images on {0..n-1}.
    """
    rows, n = block.shape
    g = block
    label = np.broadcast_to(np.arange(n), block.shape)
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, np.take_along_axis(label, g, axis=1))
        g = np.take_along_axis(g, g, axis=1)
    names = np.take_along_axis(label, g, axis=1) + n * np.arange(rows)[:, None]
    sizes = np.bincount(names.ravel(), minlength=rows * n).reshape(rows, n)
    sizes.sort(axis=1)
    codes = sizes @ (n + 1) ** np.arange(n)  # sorted row as base-(n+1) digits
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return Counter({tuple(s for s in sizes[i].tolist() if s): int(c)
                    for i, c in zip(first, counts)})


def decompose(kind: ObjectKind, f: Sequence[int]) -> tuple[int, ...]:
    """Component sizes of the functional graph of f, ascending.

    f maps i+1 to f[i] on {1..n}.  Permutation inputs must be bijective;
    for them the components are exactly the cycles.
    """
    n = len(f)
    f = [whole(v, 1, "a function table entry", n) for v in f]  # f maps {1..n} into itself
    if member(kind, ObjectKind, "decompose: kind") is ObjectKind.PERMUTATION and len(set(f)) != n:
        raise ValueError("permutation table must be a bijection")
    (sizes,) = _sizes(np.array([f], dtype=np.intp) - 1)
    return sizes


@cache
def _spectrum(kind: ObjectKind, n: int) -> Counter:
    """Counter of ascending component-size tuples over all n-objects."""
    if kind is ObjectKind.PERMUTATION:
        tables = itertools.permutations(range(n))
    else:
        tables = itertools.product(range(n), repeat=n)
    tally = Counter()
    while True:
        block = itertools.chain.from_iterable(itertools.islice(tables, _BLOCK))
        flat = np.fromiter(block, dtype=np.intp)
        if not flat.size:
            return tally
        tally.update(_sizes(flat.reshape(-1, n)))


def enumerate_pmf(kind: ObjectKind, n: int, r: int, side: Side) -> ComponentPMF:
    """Exact PMF of the r-th ranked component size, by full enumeration."""
    member(kind, ObjectKind, "enumerate_pmf: kind")
    member(side, Side, "enumerate_pmf: side")
    n = whole(n, 1, "enumerate_pmf: size n (the enumeration budget)", _MAX_N[kind])
    r = whole(r, 1, "enumerate_pmf: rank r")
    # r components of size > n // r do not fit; an r-th smallest of size m needs r - 1 others
    tally = [0] * (n // r + 1 if side is Side.LARGEST else max(n - r + 2, 1))
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
