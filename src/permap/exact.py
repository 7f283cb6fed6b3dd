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

The memo keys a row on m, the number of nodes left, and a canonical
window; later components have size <= m.  Largest side: once the minimum
is >= m the row is t_m x^min; otherwise an entry >= m is never displaced,
and is the digest only beside one size-m component: it is stored as m.
Smallest side, m >= 1: the next component displaces a maximum >= m, or
ties it, so the maximum is stored as INFINITY.

Rows are packed by Kronecker substitution (Schoenhage 1982): a row
polynomial is stored as one int, coefficient k in slot k, B bits wide,
so a step sums weight * child rows in big-integer arithmetic, and each
request unpacks its row once.  Every coefficient of a row at
(m, window) lies in 0..t_m, so slots of bits(t_n) + 2 bits never carry
for a request of size n; the unpacked row must still sum to t_n (a
carry would lower the sum), or ArithmeticError is raised.  A packed row
is valid at its own slot width only: each memo holds one width, a power
of two >= 64, and a request that needs wider slots starts a fresh memo
rather than mixing widths, so an ascending sweep rebuilds O(log n) times.

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
(1976).  The chain runs in float64; ktp's longest-side float PMFs are
pmf_float's.

All computations are deterministic: summation orders are fixed, and
results do not depend on call order.

Engines keyed by (kind, side) share module-level memo tables, and every
grown table of this module and of ktp lives in one store (_stored) with
one grow rule; create none of your own state here.  A table builder is a
pure function of its rank and sizes: it runs its lower ranks itself and
never calls the store.  An object of size <= n has at most n components,
so a rank past n + 1 changes no digest: the chain and ktp's exact counts
run at most n_max + 1 ranks, and the window recursion keeps at most n + 1
entries.  Row n of every cumulative table, exact or float, is read as a
PMF by one differencing rule (_differences).
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from .kinds import ObjectKind, Side, connected_count, exp_log_weights, total_count
from .stats import ComponentPMF

INFINITY: float = float("inf")

RankEntry = int | float  # int size or the INFINITY placeholder


class PrecisionError(ArithmeticError):
    """A float result failed its guard: mass sum, probability range or quadrature error."""


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

_MEMO: dict[tuple[ObjectKind, Side], tuple[int, dict]] = {}


@cache
def _weights(kind: ObjectKind, m: int) -> tuple[int, ...]:
    """Ways c_j * C(m-1, j-1) to complete a new component of size j = 1..m."""
    out, binom = [], 1
    for j in range(1, m + 1):
        out.append(connected_count(kind, j) * binom)
        binom = binom * (m - j) // j
    return tuple(out)


def _unpack(row: int, width: int, total: int) -> tuple[int, ...]:
    """Slots 0..top of a packed row; raises if they do not sum to total.

    The row is sum_k c_k 2^(k width) exactly, so its slots are the c_k
    unless some c_k >= 2^width carried into the next slot, and each carry
    lowers the slot sum by 2^width - 1.
    """
    mask = (1 << width) - 1
    coeffs = tuple((row >> shift) & mask for shift in range(0, row.bit_length(), width))
    if sum(coeffs) != total:
        raise ArithmeticError(f"packed row carried: slots sum to {sum(coeffs)}, not {total}")
    return coeffs


def _row_coeffs(kind: ObjectKind, side: Side, n: int, window: tuple) -> tuple[int, ...]:
    # coefficients of a row at m <= n are at most t_m <= t_n
    need = total_count(kind, n).bit_length() + 2
    width, rows = _MEMO.get((kind, side), (0, {}))
    if width < need:  # rows are valid at one width: start afresh, never mix
        width, rows = max(64, 1 << (need - 1).bit_length()), {}
        _MEMO[kind, side] = width, rows
    totals = [total_count(kind, m) for m in range(n + 1)]
    r = len(window)

    # largest/smallest(m, ranks) run one step from a canonical window that
    # is not final; each child is made canonical inline and looked up
    # before recursing, so a memo hit costs no call
    def largest(m: int, ranks: tuple) -> int:
        acc = 0
        for j, weight in enumerate(_weights(kind, m), 1):
            i = bisect_right(ranks, j)
            child = ranks[1:i] + (j,) + ranks[i:] if i else ranks
            left = m - j
            if child[0] >= left:  # sizes <= left displace nothing: the window is final
                acc += (weight * totals[left]) << (child[0] * width)
                continue
            k = bisect_left(child, left)
            if k < r:
                child = child[:k] + (left,) * (r - k)
            row = rows.get((left, child))
            acc += weight * (largest(left, child) if row is None else row)
        rows[m, ranks] = acc
        return acc

    def smallest(m: int, ranks: tuple) -> int:
        acc = 0
        for j, weight in enumerate(_weights(kind, m), 1):
            i = bisect_right(ranks, j)
            child = ranks[:i] + (j,) + ranks[i:-1] if i < r else ranks
            left = m - j
            high = child[-1]
            if left == 0:  # an INFINITY digest: fewer than r components, size 0
                acc += weight if high == INFINITY else weight << (high * width)
                continue
            if left <= high < INFINITY:
                child = child[:-1] + (INFINITY,)
            row = rows.get((left, child))
            acc += weight * (smallest(left, child) if row is None else row)
        rows[m, ranks] = acc
        return acc

    if side is Side.LARGEST:
        if window[0] >= n:
            return (0,) * window[0] + (totals[n],)
        k = bisect_left(window, n)
        window = window[:k] + (n,) * (r - k)
        rec = largest
    else:
        if n == 0:
            return (1,) if window[-1] == INFINITY else (0,) * window[-1] + (1,)
        if n <= window[-1] < INFINITY:
            window = window[:-1] + (INFINITY,)
        rec = smallest
    row = rows.get((n, window))
    if row is None:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 4 * n + 200))
        try:
            row = rec(n, window)
        finally:
            sys.setrecursionlimit(limit)
    return _unpack(row, width, totals[n])


def _poly(kind: ObjectKind, side: Side, n: int, ranks: Sequence[RankEntry]) -> RowPolynomial:
    if n < 0:
        raise ValueError("n must be >= 0")
    window = tuple(sorted(ranks))
    if not window:
        raise ValueError("rank window must have at least one entry")
    for entry in window:
        if entry == INFINITY and side is Side.LARGEST:
            raise ValueError("INFINITY entries only make sense on the smallest side")
        integer = isinstance(entry, int) and not isinstance(entry, bool)
        if entry != INFINITY and (not integer or entry < 0):
            raise ValueError(f"rank window entries must be integers >= 0, got {entry!r}")
    return RowPolynomial(_row_coeffs(kind, side, n, window), n, side)


def largest_poly(kind: ObjectKind, n: int, ranks: Sequence[RankEntry]) -> RowPolynomial:
    """Row polynomial for the largest side; the window must be all finite.

    largest_poly(kind, n, (0,)*r) generates the distribution of the r-th
    largest component size over all n-objects of the kind.
    """
    return _poly(kind, Side.LARGEST, n, ranks)


def smallest_poly(kind: ObjectKind, n: int, ranks: Sequence[RankEntry]) -> RowPolynomial:
    """Row polynomial for the smallest side; INFINITY entries are placeholders.

    smallest_poly(kind, n, (INFINITY,)*r) generates the distribution of the
    r-th smallest component size, with fewer-than-r-components reported as 0.
    """
    return _poly(kind, Side.SMALLEST, n, ranks)


def top_threshold(n: int, r: int, side: Side) -> int:
    """Last threshold k that a cumulative table reads at size n.

    Largest side: the CDF P{digest <= k} is 1 from k = n//r on, since r
    components larger than n/r will not fit.  Smallest side: the tail
    P{digest >= k} is 0 from k = max(n-r+2, 1) on, since the r-th smallest
    is at most n - (r-1) singleton companions.
    """
    if side is Side.LARGEST:
        return n // r
    return max(n - r + 2, 1)


def support_length(n: int, r: int, side: Side) -> int:
    """Number of possible sizes (0..bound) of the r-th ranked component."""
    top = top_threshold(n, r, side)
    return top + 1 if side is Side.LARGEST else top


def pmf(kind: ObjectKind, n: int, r: int, side: Side) -> ComponentPMF:
    """Exact distribution of the r-th ranked component size, as Fractions."""
    if n < 1:
        raise ValueError("pmf requires n >= 1")
    if r < 1:
        raise ValueError("pmf requires r >= 1")
    slots = min(r, n + 1)  # at most n components: a wider window keeps the digest 0
    if side is Side.LARGEST:
        coeffs = largest_poly(kind, n, (0,) * slots).coeffs
    else:
        coeffs = smallest_poly(kind, n, (INFINITY,) * slots).coeffs
    length = support_length(n, r, side)
    if len(coeffs) > length:
        raise AssertionError(f"support bound violated: {len(coeffs)} > {length}")
    den = total_count(kind, n)
    probs = tuple(Fraction(c, den) for c in coeffs) + (Fraction(0),) * (length - len(coeffs))
    return ComponentPMF(kind, n, r, side, probs)


def memo_stats() -> dict[str, int]:
    """Rows held per (kind, side) memo at its current slot width, for capacity planning."""
    return {f"{kind.value}/{side.value}": len(rows) for (kind, side), (_, rows) in _MEMO.items()}


def clear_memo() -> None:
    _MEMO.clear()


# ---------------------------------------------------------------------------
# float engine: the threshold-projected chain

_MASS_TOL = 1e-9


def _build_chain(kind: ObjectKind, side: Side, r: int, n_max: int) -> np.ndarray:
    """Top level of the chain as a table[m, k], sizes m = 0..n_max.

    Level c = 0..r-1 holds P{an m-object has at most c counted
    components}, for thresholds k = 0..top_threshold(n_max, r, side).  The
    largest side counts components of size > k, and row n of the top
    level r-1 is the CDF of the r-th largest size at n.  The smallest side
    counts components of size < k.  Its top level is P{fewer than r
    components below k}; subtracting P{fewer than r components}, which is
    row m's own value at k = top_threshold(m, r, side), leaves
    P{r-th smallest >= k}, with the fewer-than-r-components digest 0.
    Levels past n_max, where every m-object has at most c components,
    change no cell, so at most n_max + 1 levels run.

    A new component of size j <= cut[k] (k on the largest side, max(k-1, 0)
    on the smallest) leads to the same level on the largest side and to
    level c-1 on the smallest; a larger one the other way round.  On
    levels scaled by tau, one (level, m) step sums q_j times the level
    after size j over the rows j of a reused block, in the same order at
    every table width, and divides by m; for permutations (q = tau = 1)
    it reads prefix sums at rows m - cut[k], an anti-diagonal of the
    row-major table read as one strided view; off it lie the columns with
    cut[k] >= m (row 0, all zero) and the smallest side's k = 0 (cut 0:
    every j takes the other level).  Only level c and level c-1 are alive.
    """
    largest = side is Side.LARGEST
    width, rows = top_threshold(n_max, r, side) + 1, n_max + 1
    levels = min(r, rows)
    q, tau = exp_log_weights(kind, n_max)
    uniform = kind is ObjectKind.PERMUTATION  # q = 1: sums over j are prefix sums
    if uniform:
        out = np.empty((rows, width))
        out[0] = 1.0
        scratch = np.empty(width)
        shape = (rows + 1, width)  # a level as prefix sums: [i] sums its values at sizes < i
        k0 = 0 if largest else 1  # cut[k] = k - k0 for k >= k0, and cut[0] = 0
        stride = min(1 - width, -1)  # flat step from [i, k] to [i - 1, k + 1]; one cell at width 1
    else:
        ks = np.arange(width)
        cut = ks if largest else np.maximum(ks - 1, 0)
        mask = np.arange(1, rows)[:, None] <= cut[None, :]  # mask[j-1, k]: j <= cut[k]
        blocks = np.empty((n_max, width))  # reused: a fresh array per step costs page faults
        shape = (rows, width)
    level = np.zeros(shape)  # level -1 is identically zero
    for c in range(levels):
        prev, level = level, np.zeros(shape)
        low, high = (level, prev) if largest else (prev, level)
        if uniform:
            level[1] = 1.0  # the empty object
            low_flat, high_flat = low.reshape(-1), high.reshape(-1)
            for m in range(1, rows):
                # columns k0 <= k < end read rows m + k0 - k >= 1 of the prefix
                # sums, one anti-diagonal; later ones would read the zero row 0
                end, start = min(m + k0, width), m * width + k0
                diag = slice(start, start + (end - k0) * stride, stride)
                col = out[m] if c == levels - 1 else scratch
                np.subtract(low[m, k0:end], low_flat[diag], out=col[k0:end])  # j <= cut
                col[k0:end] += high_flat[diag]  # j > cut
                col[end:] = low[m, end:]
                if k0:
                    col[0] = high[m, 0]  # cut 0: every j > cut
                col /= m
                np.add(level[m], col, out=level[m + 1])
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
        top -= top[range(rows), [top_threshold(m, r, side) for m in range(rows)]][:, None]
    return top


# ---------------------------------------------------------------------------
# grown tables: one store, one grow rule

_TABLES: dict[tuple, tuple[tuple[int, ...], object]] = {}


def _stored(build, args: tuple, sizes: tuple[int, ...]):
    """build(*args, *sizes), kept per (build, args) and reused while big enough.

    sizes are the largest indices a request reads, one per table
    dimension.  A stored table too small for a request in any dimension is
    rebuilt at max(asked, 5/4 of held) in each dimension, so requests for
    n = 1..N in ascending order cost O(log N) builds.  The store holds
    tables and computes nothing, and build never calls it: a builder runs
    its lower ranks itself, at most n_max + 1 of them where ranks are
    unbounded, so every build is one call whose sizes are known up front.
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


def _differences(row: Sequence, total, side: Side) -> list:
    """The digest's PMF times total, from cells k = 0..top_threshold of row n.

    Largest side: the cells are total P{digest <= k}.  Smallest side: cell
    k >= 1 is total P{digest >= k}, 0 at the top threshold, with the
    fewer-than-r-components digest 0; cell 0 is not read.  total is n! for
    exact counts and 1.0 for float tables; ints stay exact.
    """
    if side is Side.LARGEST:
        return [row[0]] + [row[k] - row[k - 1] for k in range(1, len(row))]
    return [total - row[1]] + [row[k] - row[k + 1] for k in range(1, len(row) - 1)]


def _row_pmf(table: np.ndarray, n: int, r: int, side: Side) -> np.ndarray:
    """Guarded PMF of the r-th ranked size at n, from row n of a float table[n, k].

    Rounding-level values outside [0, 1] are clipped into it; a value
    further out, or a mass sum off 1 by more than the tolerance, raises
    PrecisionError.
    """
    row = table[n, : top_threshold(n, r, side) + 1].tolist()
    probs = np.array(_differences(row, 1.0, side))
    if probs.min() < -_MASS_TOL or probs.max() > 1.0 + _MASS_TOL:
        raise PrecisionError(f"probability {probs.min()!r}..{probs.max()!r} from differencing")
    np.clip(probs, 0.0, 1.0, out=probs)
    if abs(probs.sum() - 1.0) > _MASS_TOL:
        raise PrecisionError(f"mass-sum check failed: total = {probs.sum()!r}")
    return probs


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
    return ComponentPMF(kind, n, r, side, tuple(probs.tolist()))
