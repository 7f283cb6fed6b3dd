"""Cumulative cycle-count recursions for random permutations.

Knuth/Trabb Pardo-style tables, permutations only.  Two families:

  longest side   u_r(k, n) = number of n-permutations whose r-th longest
                 cycle has at most k nodes (equivalently, fewer than r
                 cycles longer than k).
  shortest side  v_r(k, n) = number of n-permutations whose r-th shortest
                 cycle has at least k nodes, where a permutation with
                 fewer than r cycles has r-th shortest size 0.

Stored tables index both families by exact's one threshold t, from 0 to
the largest possible digest _top_threshold(n_max, r, side): column t of
u_r is k = t (fewer than r cycles longer than t), and column t of v_r is
k = t + 1 (r-th shortest longer than t).  So v_r(0, n) = n!, which
nothing reads, is not stored; shortest_table puts that row back.  The
n = 0 cells of rank 1 break the fewer-than-r rule above: v_1(k, 0) = 1
for every k >= 1, the recursion's base case (the empty permutation has no
cycle shorter than k), where the rule gives 0, as v_r(k, 0) is for
r >= 2.  No PMF reads n = 0.

u_r obeys a proven recursion.  v_r (r >= 2) obeys a recursion with an
additive correction term, delta (see _v_rows): proven; flag kept pending
the north-star update, so every table derived from it is still flagged
conjectural.  The proof: let A_r(k, n) count the n-permutations with
fewer than r cycles of size < k, and B_r(n) those with fewer than r
cycles in all, so that v_r(k, n) = A_r(k, n) - B_r(n) for n >= 1.  Split
by the cycle through element n, of size m + 1, in F(n, m) =
(n-1)!/(n-1-m)! ways.  A_r obeys the defining sum of v_r without the
correction, and B_r(n) = sum_m F(n, m) B_{r-1}(n-1-m), with A_0 = B_0 = 0
and A_r(k, 0) = B_r(0) = 1.  Subtracting, A_r - B_r obeys that sum with
the correction sum_{m >= k-1} F(n, m) [B_r - B_{r-1}](n-1-m) =
sum_{j=0}^{n-k} (n-1)!/j! c(j, r-1), since B_r - B_{r-1} counts the
permutations with exactly r - 1 cycles; c is the Stirling cycle number.
That is (n-1)!/(n-k)! c(n-k+1, r) = delta_r(k, n), by the identity
c(N+1, r) = sum_{j=0}^{N} N!/j! c(j, r-1) (Graham, Knuth and Patashnik,
Concrete Mathematics, ch. 6), the same split of an (N+1)-permutation by
the cycle through N + 1.  Mind n = 0, where A_r - B_r is 0 but v_1(k, 0)
= 1: at r = 1 that cell stands in for the correction, whose one term
j = 0 is (n-1)!, so delta_1 = 0; from r = 2 on the sums read rank r-1
only at sizes >= 1, and rank r at size 0, where v_r(k, 0) = 0 (_v_rows).
The correction has two closed forms (see delta), and each route takes
its own: the exact tables multiply integers, (n-1)!/(n-k)! c(n-k+1, r),
and the float tables use (n-1)! e_{r-1}(1, 1/2, ..., 1/(n-k)), e_q from
harmonic sums by Newton's identities, so that the two routes check each
other.

Every route here verifies exact.pmf_float, the one production engine.
The exact tables are built by the three-term recurrences that their
defining sums telescope to (see _u_rows); adjacent differences of a
column give the exact PMF of the r-th ranked cycle size, which must (and
does, in tests) match the rank-window engine.  The float tables hold
counts normalised by n!, where the falling-factorial weights collapse to
1/n and partial column sums make every cell O(1); n = 2500 tables build in
seconds.  The longest-side float PMF is exact's threshold chain
(pmf_float), which covers the same counts; the shortest-side float
recursion is built here, apart from that kernel, so that
pmf_from_tables_float is the check of the conjectural recursion against
the proven chain.  It runs one rank at a time on row-major [n, t] value
tables, one contiguous row per size n, and returns the requested rank's.
A step takes its partial column sums from running rows, each advanced by
one add a step, from row n-1 or its anti-diagonal read as a strided
view, as exact's permutation chain does.  Built from a held rank r-1
table, which it reads in place, it holds only the table it returns;
built from rank 0, also the rank below.

Every builder here keeps the builder and store protocol stated in
exact._stored.  Every table, exact or float, the Stirling cycle numbers
included, lives in exact's one store and grows by its one rule, and row n
of each is read by exact's one differencing rule, as Fractions over n! or
as a guarded float PMF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .kinds import ObjectKind, Side, whole
from .exact import _top_threshold
from .stats import ComponentPMF


@dataclass(frozen=True)
class CycleCountTable:
    rank: int
    side: Side
    k_max: int
    n_max: int
    counts: tuple[tuple[int, ...], ...]  # counts[k][n]
    conjectural: bool


# ---------------------------------------------------------------------------
# Stirling cycle numbers, the correction term

def _stirling(k: int, n_max: int, lower: list | None = None) -> list[int]:
    """Column k of the Stirling cycle numbers, c(m, k) for m = 0..n_max.

    c(m, k) = c(m-1, k-1) + (m-1) c(m-1, k), from column 0, c(m, 0) = 1 at
    m = 0 and 0 after, or from lower, column k - 1 held at a size >= n_max.
    """
    column = [1] + [0] * n_max if lower is None else lower
    for _ in range(0 if lower is None else k - 1, k):
        prev, column = column, [0] * (n_max + 1)
        for m in range(1, n_max + 1):
            column[m] = prev[m - 1] + (m - 1) * column[m - 1]
    return column


def stirling_cycle(n: int, k: int) -> int:
    """Number c(n, k) of n-permutations with exactly k cycles, for every k >= 0.

    Column k lives in exact's store, whose rank rule serves c(n, k) = 0
    for k > n from column n + 1 (column 2 at n = 0).
    """
    n, k = whole(n, 0, "stirling_cycle: size n"), whole(k, 0, "stirling_cycle: cycles k")
    return exact._stored(_stirling, (k,), n)[n]


def _elementary(n_max: int, q_max: int) -> np.ndarray:
    """e[q, m] = e_q(1, 1/2, ..., 1/m) for q = 0..q_max and m = 0..n_max, in float.

    Newton's identities, q e_q = sum_{i=1}^{q} (-1)^(i-1) e_{q-i} p_i, over
    the harmonic power sums p_i[m] = sum_{j<=m} 1/j^i, held with their
    signs, so that the float route reaches the correction term by another
    closed form than delta.  Where j^i overflows, 1/j^i is 0.0 to double
    precision.  e_q of fewer than q values is 0, and is left so: only the
    columns m >= q are summed.
    """
    p, e = np.zeros((2, q_max + 1, n_max + 1))
    j = np.arange(1.0, n_max + 1)
    for i in range(1, q_max + 1):  # one row at a time: no (q_max x n_max) temporaries
        with np.errstate(over="ignore"):
            np.cumsum(1.0 / j**i, out=p[i, 1:])
        p[i, 1:] *= (-1.0) ** (i - 1)
    e[0] = 1.0
    for q in range(1, q_max + 1):
        e[q, q:] = np.sum(e[q - 1 :: -1, q:] * p[1 : q + 1, q:], axis=0) / q
    return e


def delta(r: int, k: int, n: int) -> int:
    """Correction term of the shortest-side recursion, an integer.

    delta(r, k, n) = (n-1)! e_{r-1}(1, 1/2, ..., 1/(n-k)) for k <= n, e_q
    the elementary symmetric polynomial, and 0 for k > n.  The defining
    recursion delta_r(k) = delta_r(k-1) - delta_{r-1}(k)/(n-k+1), from the
    head delta_r(1, n), telescopes to it, because adding 1/m to the set
    gives e_q(m) = e_q(m-1) + e_{q-1}(m-1)/m.  Since c(m+1, r) =
    m! e_{r-1}(1, ..., 1/m), this is (n-1)!/(n-k)! c(n-k+1, r), which is
    how it is computed, in integers; at k = 1 it is the Stirling cycle
    number c(n, r).  It is the correction that the proof in the module
    docstring derives: sum_{j=0}^{n-k} (n-1)!/j! c(j, r-1), one term per
    size n - j >= k of the cycle through element n, is (n-1)!/(n-k)! times
    c(N+1, r) = sum_{j=0}^{N} N!/j! c(j, r-1) at N = n - k.
    """
    r = whole(r, 2, "delta: rank r")
    k, n = whole(k, 1, "delta: threshold k"), whole(n, 1, "delta: size n")
    if k > n:
        return 0
    return math.perm(n - 1, k - 1) * stirling_cycle(n - k + 1, r)


# ---------------------------------------------------------------------------
# exact tables

def _u_rows(r: int, n_max: int, lower: list | None = None) -> list[list[int]]:
    """u_r by columns k = 0..n_max // r, the top threshold.

    u_0 = 0 and F(n, m) = (n-1)!/(n-1-m)! (0 for m >= n).  As (n-1)
    F(n-1, m-1) = F(n, m), (n-1) u_r(k, n-1) is the defining sum u_r(k, n) =
    sum_{m<k} F(n, m) u_r(k, n-1-m) + sum_{k<=m<n} F(n, m) u_{r-1}(k, n-1-m)
    with each m raised by one; the difference telescopes to
    u_r(k, n) = n u_r(k, n-1) - F(n, k) [u_r(k, n-1-k) - u_{r-1}(k, n-1-k)].
    Each column runs ranks 1..r in turn from u_0, or rank r alone from
    column k of lower, a rank r-1 table held at a size >= n_max.
    """
    fact = [math.factorial(i) for i in range(n_max + 1)]
    done = 0 if lower is None else r - 1  # ranks the held table ran
    rows = []
    for k in range(_top_threshold(n_max, r, Side.LARGEST) + 1):
        falling = [fact[n - 1] // fact[n - 1 - k] if n > k else 0 for n in range(n_max + 1)]
        row = [0] * (n_max + 1) if lower is None else lower[k][: n_max + 1]
        for _ in range(done, r):
            low, row = row, [1] + [0] * n_max
            for n in range(1, n_max + 1):
                row[n] = n * row[n - 1]
                if n > k:
                    row[n] -= falling[n] * (row[n - 1 - k] - low[n - 1 - k])
        rows.append(row)
    return rows


def _v_rows(r: int, n_max: int, lower: list | None = None) -> list[list[int]]:
    """v_r by columns t = 0..max(n_max-r+1, 0): column t holds v_r(t+1, n).

    v_0 = delta_1 = 0 and F is as in _u_rows.  The defining sum v_r(k, n)
    = delta_r(k, n) + sum_{m<k-1} F(n, m) v_{r-1}(k, n-1-m) +
    sum_{k-1<=m<n} F(n, m) v_r(k, n-1-m) gives the cells n >= k + r - 1
    (others hold 0, or 1 at r = 1, n = 0).  It is proven (module
    docstring): for n >= 1, v_r = A_r - B_r, and at these cells, n - 1 - m
    >= n - k + 1 >= r in the first sum, so rank r-1 is read only at sizes
    >= 1, where it is A_{r-1} - B_{r-1}; the second sum reads rank r at
    size 0, where v_r(k, 0) = 0 = A_r - B_r for r >= 2.  At r = 1 the cell
    v_1(k, 0) = 1 reads as the correction's one term, (n-1)! at m = n - 1,
    and delta_1 = 0.  Less delta_r it is s, which telescopes as in
    _u_rows; s starts at n = k + r - 1 from 0 because at n = k + r - 2
    every term of the sum vanishes: delta_r(k, n) = F(n, k-1) c(n-k+1, r)
    (see delta), and c(r-1, r) = 0 there; each table read is a zero cell.
    Column t, k = t + 1, adds F(n, t) c(n-t, q) at rank q, in integers,
    with the F(n, t) it already holds; the Stirling columns 0..r are built
    here by _stirling, since a builder never calls the store.  Each column
    runs ranks q = 1..r in turn, or rank r alone from column t of lower, a
    rank r-1 table held at a size >= n_max.  The column k = 0,
    v_r(0, n) = n!, is not held.
    """
    fact = [math.factorial(i) for i in range(n_max + 1)]
    cycles = [_stirling(0, n_max)]
    for q in range(1, r + 1):
        cycles.append(_stirling(q, n_max, cycles[-1]))
    rows = []
    for t in range(_top_threshold(n_max, r, Side.SMALLEST) + 1):
        falling = [fact[n - 1] // fact[n - 1 - t] if n > t else 0 for n in range(n_max + 1)]
        row = [0] * (n_max + 1) if lower is None else lower[t][: n_max + 1]
        for q in range(1 if lower is None else r, r + 1):
            low, row = row, [1 if q == 1 else 0] + [0] * n_max
            s = 0
            for n in range(t + q, n_max + 1):
                s = (n - 1) * s + low[n - 1] + falling[n] * (row[n - 1 - t] - low[n - 1 - t])
                row[n] = s + falling[n] * cycles[q][n - t] if q > 1 else s
        rows.append(row)
    return rows


def _stored_rows(build, r: int, first: int, k_max: int, n_max: int) -> tuple:
    """Rows k = first..k_max, n = 0..n_max of a public table: stored column k - first.

    Past the stored table's last column, row k is that last column, one
    tuple repeated by reference (see the callers for why it holds every
    later one).  A k_max or n_max that is not an int >= 0 is refused before
    the store is touched.
    """
    k_max, n_max = whole(k_max, 0, "k_max"), whole(n_max, 0, "n_max")
    count = k_max - first + 1
    columns = [tuple(row[: n_max + 1]) for row in exact._stored(build, (r,), n_max)[:count]]
    return tuple(columns + columns[-1:] * (count - len(columns)))


def longest_table(r: int, k_max: int, n_max: int) -> CycleCountTable:
    """Exact counts of n-permutations whose r-th longest cycle is <= k."""
    whole(r, 1, "longest_table: rank r")
    # the last column, k = held n // r >= n_max // r, counts all n! at every
    # n <= n_max: r cycles longer than n // r do not fit
    counts = _stored_rows(_u_rows, r, 0, k_max, n_max)
    return CycleCountTable(r, Side.LARGEST, k_max, n_max, counts, conjectural=False)


def shortest_table(r: int, k_max: int, n_max: int) -> CycleCountTable:
    """Counts of n-permutations whose r-th shortest cycle is >= k.

    Exact for r = 1; produced by the corrected recursion (flagged
    conjectural) for every rank r >= 2.  Row k = 0 counts all n!
    permutations and is not stored; row k >= 1 is the stored column t =
    k - 1.  At n = 0, rank 1 counts the empty permutation in every row (it
    has no cycle shorter than k), where every higher rank counts 0 from
    k = 1 on: the base case of the recursion, not the fewer-than-r rule of
    the module docstring.  No PMF reads n = 0.
    """
    whole(r, 1, "shortest_table: rank r")
    # the last column, t = max(held n - r + 1, 0), is 0 at every n >= 1: no
    # n-permutation has an r-th shortest cycle longer than n - r + 1 <= t, and
    # the fewer-than-r digest 0 is not either; the n = 0 cell is the same in
    # every column
    counts = _stored_rows(_v_rows, r, 1, k_max, n_max)
    fact = tuple(math.factorial(n) for n in range(n_max + 1))
    return CycleCountTable(r, Side.SMALLEST, k_max, n_max, (fact,) + counts, conjectural=r > 1)


def pmf_from_tables(r: int, n: int, side: Side) -> ComponentPMF:
    """Exact PMF of the r-th ranked cycle size, by differencing a table column."""
    exact._check_rank(r, "pmf_from_tables", n, ObjectKind.PERMUTATION, side)
    rows = exact._stored(_u_rows if side is Side.LARGEST else _v_rows, (r,), n)
    fact = math.factorial(n)
    cells = [rows[t][n] for t in range(_top_threshold(n, r, side) + 1)]
    counts = exact._differences(cells, fact, side)
    conj = side is Side.SMALLEST and r > 1
    return ComponentPMF(ObjectKind.PERMUTATION, n, r, side,
                        tuple(Fraction(c, fact) for c in counts), conjectural=conj)


# ---------------------------------------------------------------------------
# normalised float tables

def _v_norm(r: int, n_max: int, lower: np.ndarray | None = None) -> np.ndarray:
    """The conjectural shortest-side recursion on counts normalised by n!.

    Returns the row-major table z[n, t], t = 0..max(n_max-r+1, 0), whose
    column t holds v_r(t+1, n)/n!, so that each step n reads and writes
    contiguous rows; callers keep it in exact's store.  Step n of rank q
    writes the columns t below the top threshold of (n, q) (later ones
    hold 0), and each needs partial sums of column t: of rank q's values
    at sizes < n - t, an anti-diagonal, and from q = 2 on of rank q-1's
    values at sizes < n and < n - t.  Each is a running vector of width W
    that one add a step advances, by row n-1 or by its anti-diagonal read
    as one strided view (exact._add_anti_diagonal), so column t sums
    sizes 0, 1, 2, ... in order from 0.0 at every table width.  The
    correction D_q[k, n] = delta(q, k, n)/n! is (n-1)! e_{q-1}(1, ...,
    1/(n-k))/n! = e_{q-1}[n-k]/n (see delta), so e_1..e_{r-1} are built
    once from the harmonic sums (_elementary) and row n of D_q is a
    reversed view of a slice of one of them; no D table is held.  Ranks
    run from q = 1 over the all-zero rank 0, or rank r alone from lower, a
    rank r-1 table held at a size >= n_max, read in place through its own
    width and never written, whose rows and columns up to this table's are
    the bits the ranks below r would give.  So a warm build holds only the
    table it returns, and a cold one also the rank below: each rank's table
    is allocated after the rank two below it is dropped.  Besides them, e
    and the power sums hold r rows of n_max + 1 each.  Each step writes
    through out= ufuncs into the table's row and one scratch row, and
    allocates no array memory.

    Kept apart from the threshold-chain kernel in exact: it is the route
    that the proven chain validates.
    """
    width = _top_threshold(n_max, r, Side.SMALLEST) + 1
    e = _elementary(n_max, r - 1)
    d = np.empty(width)  # D_q[t+1, n] for t < end
    z = lower  # the rank below; None before rank 1
    for q in range(1 if lower is None else r, r + 1):
        below = z  # drops rank q - 2 before rank q is allocated
        z = np.zeros((n_max + 1, width))
        z[0] = 1.0 if q == 1 else 0.0  # the empty permutation
        diag, below_row, below_diag = np.zeros((3, width))
        for n in range(1, n_max + 1):
            k = min(n, width)  # columns t < n: cell [n-1-t, t] exists
            exact._add_anti_diagonal(diag, z, n - 1, k)
            if q > 1:
                below_row += below[n - 1, :width]
                exact._add_anti_diagonal(below_diag, below, n - 1, k)
            end = min(_top_threshold(n, q, Side.SMALLEST), width)
            cell = z[n, :end]
            if q == 1:
                np.divide(diag[:end], n, out=cell)
            elif end:  # (below_row - below_diag + diag) / n + D_q[t+1, n]
                np.divide(e[q - 1, n - end : n][::-1], n, out=d[:end])
                np.subtract(below_row[:end], below_diag[:end], out=cell)
                cell += diag[:end]
                cell /= n
                cell += d[:end]
    return z


def pmf_from_tables_float(r: int, n: int, side: Side) -> ComponentPMF:
    """Float PMF of the r-th ranked cycle size, any rank r >= 1: the conjecture check.

    The largest side is exact.pmf_float, the production engine, itself;
    the smallest side runs the conjectural recursion, with e_q for q < r
    from _elementary, to be compared with exact.pmf_float's proven chain.
    Both raise PrecisionError when the mass-sum or probability-range check
    fails.
    """
    exact._check_rank(r, "pmf_from_tables_float", n, ObjectKind.PERMUTATION, side)
    if side is Side.LARGEST:
        return exact.pmf_float(ObjectKind.PERMUTATION, n, r, side)
    table = exact._stored(_v_norm, (r,), n)
    probs = exact._row_pmf(table, n, r, side, 1.0).tolist()
    return ComponentPMF(ObjectKind.PERMUTATION, n, r, side, tuple(probs), conjectural=r > 1)
