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

from .kinds import ObjectKind, Side, total_count
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
    if any(isinstance(v, bool) or not isinstance(v, int) for v in f):
        raise ValueError("function table entries must be integers")
    if any(not 1 <= v <= n for v in f):
        raise ValueError("function table must map {1..n} into itself")
    if kind is ObjectKind.PERMUTATION and len(set(f)) != n:
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
    if n < 1 or r < 1:
        raise ValueError("enumerate_pmf requires n >= 1 and r >= 1")
    if n > _MAX_N[kind]:
        raise ValueError(f"enumeration budget is n <= {_MAX_N[kind]} for {kind.name}")
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


def connected_tally(kind: ObjectKind, n: int) -> int:
    """Number of enumerated n-objects having a single component."""
    return sum(count for sizes, count in _spectrum(kind, n).items() if len(sizes) == 1)
