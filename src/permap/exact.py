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
update.  The smallest side counts components below k the same way, and
its tail P{r-th smallest >= k} is P{fewer than r components below k}
minus P{fewer than r components}; that difference of two values near 1
costs about 1e-14 of absolute accuracy.  The projected chain is run for
every threshold at once as a numpy table of r levels, one per count.
Both kinds are exp-log classes (Flajolet and Sedgewick, Analytic
Combinatorics, II and VII): a new component has size j with probability
q_j tau_{m-j} / (m tau_m) (kinds), so on levels scaled by tau one
(level, m) step is m W[m] = sum_j q_j W'[m-j].  For permutations
q = tau = 1 and the sums are the prefix sums of Knuth and Trabb Pardo
(1976).  The chain runs in float64; ktp reads its longest-side float
tables from it.

All computations are deterministic: summation orders are fixed, and
results do not depend on call order.

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

from .kinds import ObjectKind, Side, connected_count, exp_log_weights, total_count
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


def _build_chain(kind: ObjectKind, side: Side, r: int, n_max: int) -> np.ndarray:
    """Top level of the chain as a table[m, k], sizes m = 0..n_max.

    Level c = 0..r-1 holds P{an m-object has at most c counted
    components}.  The largest side counts components of size > k, for
    thresholds k = 0..n_max//r, and row n of the top level r-1 is the CDF
    of the r-th largest size at n.  The smallest side counts components
    of size < k, for k = 0..max(n_max-r+2, 1).  Its top level is
    P{fewer than r components below k}; subtracting P{fewer than r
    components}, which is row m's own value at k = max(m-r+2, 1) (r
    components put the r-th smallest below m-r+2), leaves
    P{r-th smallest >= k}, with the fewer-than-r-components digest 0.

    A new component of size j <= cut[k] leads to the same level on the
    largest side and to level c-1 on the smallest; a larger one the other
    way round.  On levels scaled by tau, one (level, m) step sums q_j
    times the level after size j over the rows j of a reused block, in the
    same order at every table width, and divides by m; for permutations
    (q = tau = 1) it is a pair of gathers from prefix sums along m.  Only
    level c and level c-1 are alive.
    """
    largest = side is Side.LARGEST
    k_max = n_max // r if largest else max(n_max - r + 2, 1)
    ks = np.arange(k_max + 1)
    cut = ks if largest else np.maximum(ks - 1, 0)
    width, rows = k_max + 1, n_max + 1
    q, tau = exp_log_weights(kind, n_max)
    uniform = kind is ObjectKind.PERMUTATION  # q = 1: sums over j are prefix sums
    if uniform:
        out = np.empty((rows, width))
        out[0] = 1.0
        col = np.empty(width)
        shape = (rows + 1, width)  # a level as prefix sums: [i] sums its values at sizes < i
    else:
        mask = np.arange(1, rows)[:, None] <= cut[None, :]  # mask[j-1, k]: j <= cut[k]
        blocks = np.empty((n_max, width))  # reused: a fresh array per step costs page faults
        shape = (rows, width)
    level = np.zeros(shape)  # level -1 is identically zero
    for c in range(r):
        prev, level = level, np.zeros(shape)
        low, high = (level, prev) if largest else (prev, level)
        if uniform:
            level[1] = 1.0  # the empty object
            low_flat, high_flat = low.reshape(-1), high.reshape(-1)
            for m in range(1, rows):
                idx = (m - np.minimum(cut, m)) * width + ks  # flat index of row m - min(cut, m)
                np.subtract(low[m], low_flat[idx], out=col)  # j = 1..min(cut, m)
                col += high_flat[idx]  # j = min(cut, m)+1..m
                col /= m
                np.add(level[m], col, out=level[m + 1])
                if c == r - 1:
                    out[m] = col
        else:
            level[0] = 1.0  # the empty object
            for m in range(1, rows):
                # block[j-1, k]: the value after a new component of size j
                block = blocks[:m]
                np.copyto(block, high[m - 1 :: -1])
                np.copyto(block, low[m - 1 :: -1], where=mask[:m])
                block *= q[1 : m + 1, None]
                np.sum(block, axis=0, out=level[m])  # row by row: the same order at any width
                level[m] /= m
    top = out if uniform else level
    top /= tau[:, None]
    if not largest:
        sizes = np.arange(rows)
        top -= top[sizes, np.maximum(sizes - r + 2, 1)][:, None]
    return top


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
