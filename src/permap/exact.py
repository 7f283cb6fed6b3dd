"""Exact distribution engine: the rank-list polynomial recursion.

Components of a random n-object are generated one at a time, each new
component being the one containing the lowest unused label; a component
of size j can be completed in c_j * C(n-1, j-1) ways when n nodes
remain.  A "rank window" -- a sorted length-r list -- tracks the r
largest (or r smallest) component sizes produced so far.  When nothing
remains, the window's minimum (resp. maximum) entry is the size of the
r-th largest (resp. r-th smallest) component, recorded as the exponent
of a monomial.  Summing over the recursion therefore yields a
polynomial whose k-th coefficient counts objects whose r-th ranked
component has size exactly k.

On the largest side the window starts as r zeros (placeholders below
any real size); on the smallest side it starts as r copies of INFINITY
(placeholders above any real size), and a surviving INFINITY digest
means the object had fewer than r components, reported as size 0.

The float engine runs the same recursion normalised by the total count
t_n.  Tracking whole windows in floating point is hopeless at table
sizes (the window space grows like n^r per level), but for one fixed
threshold k the window projects onto a tiny sufficient statistic: the
number of window entries beyond k.  Inserting j and dropping the
minimum changes the count of >k entries by [j > k], capped at r, no
matter what the window was, so the projection commutes with the window
update (dually for the smallest side, where the pair "components so
far, entries below k" is tracked).  The projected chain is run for
every threshold at once as a numpy table, giving CDF columns whose
differences are the PMF.  It is the exp-log schema of Flajolet and
Sedgewick, Analytic Combinatorics, II and VII, on a small graph of
levels: one (level, m) step is a masked mat-vec over the size of the
new component, and with the uniform permutation split 1/m it becomes
the prefix sums of Knuth and Trabb Pardo (1976).  The chain runs in
float64 for both kinds and every n; ktp reads its longest-side float
tables from it.

All computations are deterministic: summation orders are fixed, and
results do not depend on call order, with one exception.  A mapping
float table is built by BLAS mat-vecs, which round a cell according to
the table's width, so pmf_float(MAPPING, ...) read from a table grown
for a larger n can differ from a one-size build in the last digits (up
to 8.9e-15 relative seen; the test suite bounds it at 1e-13).
Permutation tables and ktp's tables hold the same bits at every size.

Engines keyed by (kind, side) share module-level memo tables, and every
grown table of this module and of ktp lives in one store (_stored) with
one grow rule; create none of your own state here.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .kinds import ObjectKind, Side, connected_count, first_component_split, total_count
from .stats import ComponentPMF

INFINITY: float = float("inf")

RankEntry = int | float  # int size or the INFINITY placeholder


class PrecisionError(ArithmeticError):
    """A float run drifted past the acceptable mass-sum tolerance."""


@dataclass(frozen=True)
class RowPolynomial:
    """One row of the recursion: coefficient k counts objects with digest k."""

    coeffs: tuple[int, ...]
    n: int
    side: Side


def promote(ranks: Sequence[RankEntry], j: int) -> tuple[RankEntry, ...]:
    """Insert size j into the window, keep the r largest entries."""
    return tuple(sorted(tuple(ranks) + (j,))[1:])


def demote(ranks: Sequence[RankEntry], j: int) -> tuple[RankEntry, ...]:
    """Insert size j into the window, keep the r smallest entries."""
    return tuple(sorted(tuple(ranks) + (j,))[:-1])


# ---------------------------------------------------------------------------
# exact engine

_MEMO: dict[tuple[ObjectKind, Side], dict] = {}
_PASCAL: dict[int, list[int]] = {}


def _pascal_row(m: int) -> list[int]:
    row = _PASCAL.get(m)
    if row is None:
        row = [1]
        for i in range(m):
            row.append(row[-1] * (m - i) // (i + 1))
        _PASCAL[m] = row
    return row


def _validate_window(ranks, allow_infinite: bool) -> tuple[RankEntry, ...]:
    window = tuple(sorted(ranks))
    if not window:
        raise ValueError("rank window must have at least one entry")
    for entry in window:
        if entry == INFINITY:
            if not allow_infinite:
                raise ValueError("INFINITY entries only make sense on the smallest side")
        elif not isinstance(entry, int) or entry < 0:
            raise ValueError(f"rank window entries must be integers >= 0, got {entry!r}")
    return window


def _row_coeffs(kind: ObjectKind, side: Side, n: int, window) -> tuple[int, ...]:
    memo = _MEMO.setdefault((kind, side), {})
    step = promote if side is Side.LARGEST else demote
    conn = [0] + [connected_count(kind, j) for j in range(1, n + 1)]
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 200))

    def rec(m: int, ranks) -> tuple[int, ...]:
        key = (m, ranks)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if m == 0:
            digest = ranks[0] if side is Side.LARGEST else ranks[-1]
            if digest == INFINITY:  # fewer than r components ever appeared
                digest = 0
            out = (0,) * digest + (1,)
        else:
            acc: list[int] = []
            row = _pascal_row(m - 1)
            for j in range(1, m + 1):
                weight = conn[j] * row[j - 1]
                child = rec(m - j, step(ranks, j))
                if len(child) > len(acc):
                    acc.extend([0] * (len(child) - len(acc)))
                for i, coef in enumerate(child):
                    if coef:
                        acc[i] += weight * coef
            out = tuple(acc)
        memo[key] = out
        return out

    return rec(n, window)


def largest_poly(kind: ObjectKind, n: int, ranks: Sequence[RankEntry]) -> RowPolynomial:
    """Row polynomial for the largest side; the window must be all finite.

    largest_poly(kind, n, (0,)*r) generates the distribution of the r-th
    largest component size over all n-objects of the kind.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    window = _validate_window(ranks, allow_infinite=False)
    return RowPolynomial(_row_coeffs(kind, Side.LARGEST, n, window), n, Side.LARGEST)


def smallest_poly(kind: ObjectKind, n: int, ranks: Sequence[RankEntry]) -> RowPolynomial:
    """Row polynomial for the smallest side; INFINITY entries are placeholders.

    smallest_poly(kind, n, (INFINITY,)*r) generates the distribution of the
    r-th smallest component size, with fewer-than-r-components reported as 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    window = _validate_window(ranks, allow_infinite=True)
    return RowPolynomial(_row_coeffs(kind, Side.SMALLEST, n, window), n, Side.SMALLEST)


def support_length(n: int, r: int, side: Side) -> int:
    """Number of possible sizes (0..bound) of the r-th ranked component."""
    if side is Side.LARGEST:
        return n // r + 1  # r components larger than n/r will not fit
    return max(n - r + 2, 1)  # r-th smallest <= n - (r-1) singleton companions


def pmf(kind: ObjectKind, n: int, r: int, side: Side) -> ComponentPMF:
    """Exact distribution of the r-th ranked component size, as Fractions."""
    if n < 1:
        raise ValueError("pmf requires n >= 1")
    if r < 1:
        raise ValueError("pmf requires r >= 1")
    if side is Side.LARGEST:
        coeffs = largest_poly(kind, n, (0,) * r).coeffs
    else:
        coeffs = smallest_poly(kind, n, (INFINITY,) * r).coeffs
    length = support_length(n, r, side)
    if len(coeffs) > length:
        raise AssertionError(f"support bound violated: {len(coeffs)} > {length}")
    den = total_count(kind, n)
    probs = tuple(Fraction(c, den) for c in coeffs) + (Fraction(0),) * (length - len(coeffs))
    return ComponentPMF(kind, n, r, side, probs)


def memo_stats() -> dict[str, int]:
    """Measured memo sizes per (kind, side) engine, for capacity planning."""
    return {f"{kind.value}/{side.value}": len(memo) for (kind, side), memo in _MEMO.items()}


def clear_memo() -> None:
    for memo in _MEMO.values():
        memo.clear()


# ---------------------------------------------------------------------------
# float engine: the threshold-projected chain

_MASS_TOL = 1e-9


def _chain_levels(side: Side, r: int) -> tuple[dict, object]:
    """Level graph of the projected chain, and its top level.

    Each level maps to (low, high, start): the level that a new component
    of size j <= cut[k] leads to, the level that a larger one leads to
    (None: the identically-zero level), and the level's value on the empty
    object.  Every edge goes to a level that sorts no later, so sorted()
    order is a dependency order; the only cycles are self-loops.
    """
    if side is Side.LARGEST:
        # level b: at most b components of size > k
        return {b: (b, b - 1 if b else None, 1.0) for b in range(r)}, r - 1
    # level (a, b): at least a components, fewer than b of size < k
    graph: dict = {}
    stack = [(r, r)]
    while stack:
        a, b = stack.pop()
        if (a, b) in graph:
            continue
        below = max(a - 1, 0)
        low = (below, b - 1) if b > 1 else None  # component below the threshold
        graph[(a, b)] = (low, (below, b), 1.0 if a == 0 else 0.0)
        stack += [t for t in (low, (below, b)) if t is not None]
    return graph, (r, r)


def _build_chain(kind: ObjectKind, side: Side, r: int, n_max: int) -> np.ndarray:
    """Top level of the chain as a table[m, k], sizes m = 0..n_max.

    Largest side: level b holds P{an m-object has at most b components of
    size > k}, for b = 0..r-1 and thresholds k = 0..n_max//r.  Row n of
    the top level r-1 is the CDF of the r-th largest size at n.

    Smallest side: level (a, b) holds P{at least a components and fewer
    than b components of size < k}, for k = 0..max(n_max-r+2, 1); the top
    level (r, r) at k >= 1 is P{r-th smallest >= k}, with the
    fewer-than-r-components digest 0.

    One (level, m) step is a masked mat-vec over the sizes j of the new
    component; with the uniform permutation split 1/m it is a pair of
    gathers from prefix sums along m instead.  Levels are built in
    dependency order and dropped once their last reader is done.
    """
    k_max = n_max // r if side is Side.LARGEST else max(n_max - r + 2, 1)
    graph, top = _chain_levels(side, r)
    order = sorted(graph)
    last_read = {t: i for i, level in enumerate(order) for t in graph[level][:2] if t is not None}
    ks = np.arange(k_max + 1)
    cut = ks if side is Side.LARGEST else np.maximum(ks - 1, 0)
    width, rows = k_max + 1, n_max + 1
    uniform = kind is ObjectKind.PERMUTATION
    if uniform:
        out = np.empty((rows, width))
    else:
        mask = np.arange(1, rows)[:, None] <= cut[None, :]  # mask[j-1, k]: j <= cut[k]
        splits = [None] + [np.asarray(first_component_split(kind, m)) for m in range(1, rows)]
        blocks = np.empty((n_max, width))  # reused: a fresh array per step costs page faults
    built: dict = {}
    for i, level in enumerate(order):
        low, high, start = graph[level]
        if uniform:
            # built[level][i] = sum of the level's values at sizes < i
            cum = built[level] = np.zeros((rows + 1, width))
            cum[1] = start
            lo, hi = built.get(low), built.get(high)
            lo_flat = None if lo is None else lo.reshape(-1)
            hi_flat = None if hi is None else hi.reshape(-1)
            col = np.empty(width)
            for m in range(1, rows):
                idx = (m - np.minimum(cut, m)) * width + ks  # flat index of row m - min(cut, m)
                col[:] = 0.0
                if lo is not None:
                    col += lo[m] - lo_flat[idx]  # j = 1..min(cut, m)
                if hi is not None:
                    col += hi_flat[idx]  # j = min(cut, m)+1..m
                col /= m
                np.add(cum[m], col, out=cum[m + 1])
                if level == top:
                    out[m] = col
            if level == top:
                out[0] = start
        else:
            tab = built[level] = np.zeros((rows, width))
            tab[0] = start
            lo, hi = built.get(low), built.get(high)
            for m in range(1, rows):
                # block[j-1, k]: the value after a new component of size j
                block = blocks[:m]
                np.copyto(block, 0.0 if hi is None else hi[m - 1 :: -1])
                np.copyto(block, 0.0 if lo is None else lo[m - 1 :: -1], where=mask[:m])
                tab[m] = splits[m] @ block
        for t in (low, high):
            if t is not None and t != top and last_read[t] == i:
                del built[t]
    return out if uniform else built[top]


def _checked_probs(probs: np.ndarray) -> np.ndarray:
    """Clip rounding-level negatives; PrecisionError beyond the mass tolerance."""
    if probs.min() < -_MASS_TOL:
        raise PrecisionError(f"negative probability {probs.min()!r} from differencing")
    np.clip(probs, 0.0, None, out=probs)
    if abs(probs.sum() - 1.0) > _MASS_TOL:
        raise PrecisionError(f"mass-sum check failed: total = {probs.sum()!r}")
    return probs


# ---------------------------------------------------------------------------
# grown tables: one store, one grow rule

_TABLES: dict[tuple, tuple[tuple[int, ...], object]] = {}


def _stored(build, args: tuple, sizes: tuple[int, ...]):
    """build(*args, *sizes), kept per (build, args) and reused while big enough.

    sizes are the largest indices a request reads, one per table
    dimension.  A stored table too small for a request in any dimension is
    rebuilt at max(asked, 5/4 of held) in each dimension, so requests for
    n = 1..N in ascending order cost O(log N) builds.  The store holds
    tables and computes nothing.
    """
    key = (build, *args)
    hit = _TABLES.get(key)
    if hit is not None:
        held, table = hit
        if all(s <= h for s, h in zip(sizes, held)):
            return table
        sizes = tuple(max(s, h * 5 // 4) for s, h in zip(sizes, held))
    table = build(*args, *sizes)
    _TABLES[key] = (sizes, table)
    return table


def _row_pmf(table: np.ndarray, n: int, r: int, side: Side) -> np.ndarray:
    """Guarded PMF of the r-th ranked size at n, from row n of a float table[n, k].

    Largest side: the row is the CDF P{digest <= k}.  Smallest side: the
    row at k >= 1 is the tail P{digest >= k}, with the
    fewer-than-r-components digest 0.
    """
    length = support_length(n, r, side)
    if side is Side.LARGEST:
        cdf = table[n, :length]
        if abs(float(cdf[-1]) - 1.0) > _MASS_TOL:
            raise PrecisionError(f"mass-sum check failed: CDF top = {float(cdf[-1])!r}")
        probs = np.diff(cdf, prepend=0.0)
    else:
        tail = table[n, : length + 1]
        probs = np.empty(length)
        probs[0] = 1.0 - tail[1] if length > 1 else 1.0
        if length > 1:
            probs[1:] = tail[1:length] - tail[2 : length + 1]
    return _checked_probs(probs)


def pmf_float(kind: ObjectKind, n: int, r: int, side: Side) -> ComponentPMF:
    """Float distribution of the r-th ranked component size.

    Same recursion as pmf, projected onto thresholds and run in float64 on
    counts normalised by t_n; agrees with the exact engine to near machine
    precision and raises PrecisionError if the mass-sum check drifts beyond
    1e-9.  Feasible far beyond the exact engine (mappings into the high
    hundreds, permutations into the thousands, in seconds).
    """
    if n < 1:
        raise ValueError("pmf_float requires n >= 1")
    if r < 1:
        raise ValueError("pmf_float requires r >= 1")
    probs = _row_pmf(_stored(_build_chain, (kind, side, r), (n,)), n, r, side)
    return ComponentPMF(kind, n, r, side, tuple(float(p) for p in probs))
