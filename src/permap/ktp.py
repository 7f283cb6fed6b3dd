"""Cumulative cycle-count recursions for random permutations.

Knuth/Trabb Pardo-style tables, permutations only.  Two families:

  longest side   u_r(k, n) = number of n-permutations whose r-th longest
                 cycle has at most k nodes (equivalently, fewer than r
                 cycles longer than k).
  shortest side  v_r(k, n) = number of n-permutations whose r-th shortest
                 cycle has at least k nodes, where a permutation with
                 fewer than r cycles has r-th shortest size 0.

Stored tables index both families by exact's one threshold t, from 0 to
the largest possible digest top_threshold(n_max, r, side): column t of
u_r is k = t (fewer than r cycles longer than t), and column t of v_r is
k = t + 1 (r-th shortest longer than t).  So v_r(0, n) = n!, which
nothing reads, is not stored; shortest_table puts that row back.

u_r obeys a proven recursion.  v_r (r >= 2) obeys a recursion with an
additive correction term, conjectural beyond the ranges on which it has
been verified; every table derived from it is flagged as such.  Both
routes evaluate the correction in closed form, (n-1)! e_{r-1}(1, 1/2, ...,
1/(n-k)), which explains why it is the Stirling cycle number c(n, r) at
k = 1 (see delta; the tests check that against c's own recurrence).

The exact tables, a verification route, are built by the three-term
recurrences that their defining sums telescope to (see _u_rows); adjacent
differences of a column give the exact PMF of the r-th ranked cycle size,
which must (and does, in tests) match the rank-window engine.  The float
tables hold counts normalised by n!, where the falling-factorial weights
collapse to 1/n and prefix sums make every cell O(1); n = 2500 tables
build in seconds.  The longest-side float PMF is exact's threshold chain
(pmf_float), which covers the same counts; the shortest-side float
recursion is built here, apart from that kernel, so that the proven chain
can validate it.  It runs one rank at a time over row-major [n, t] prefix
sums, one contiguous row per size n, whose step reads one anti-diagonal of
the prefix sums as a strided view; it keeps a full value table for the
requested rank only, and returns it as [n, t].

Every builder here takes its rank and n_max only, runs ranks 1..r itself
from the all-zero rank 0 and never calls the store; every table, exact or
float, lives in exact's one store and grows by its one rule, and row n of
each is read by exact's one differencing rule, as Fractions over n! or as
a guarded float PMF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .kinds import ObjectKind, Side
from .exact import top_threshold
from .stats import ComponentPMF

_MAX_RANK = 4  # correction closed forms are only established through rank 4


@dataclass(frozen=True)
class CycleCountTable:
    rank: int
    side: Side
    k_max: int
    n_max: int
    counts: tuple[tuple[int, ...], ...]  # counts[k][n]
    conjectural: bool


# ---------------------------------------------------------------------------
# harmonic numbers, Stirling cycle numbers, the correction term

_HARMONIC: dict[int, list[Fraction]] = {}


def harmonic(m: int, power: int = 1) -> Fraction:
    """Generalised harmonic number sum_{i=1}^{m} 1/i^power, exact."""
    if m < 0:
        raise ValueError("harmonic requires m >= 0")
    seq = _HARMONIC.setdefault(power, [Fraction(0)])
    while len(seq) <= m:
        i = len(seq)
        seq.append(seq[-1] + Fraction(1, i**power))
    return seq[m]


_STIRLING: list[tuple[int, ...]] = [(1, 0, 0, 0, 0, 0)]  # row n holds c(n, 0..5)


def stirling_cycle(n: int, k: int) -> int:
    """Number of n-permutations with exactly k cycles (k <= 5 supported)."""
    if n < 0 or k < 0:
        raise ValueError("stirling_cycle requires n, k >= 0")
    if k > 5:
        raise ValueError("only k <= 5 is tabulated")
    rows = _STIRLING
    while len(rows) <= n:  # c(m, j) = c(m-1, j-1) + (m-1) c(m-1, j)
        m, prev = len(rows), rows[-1]
        rows.append(tuple((prev[j - 1] if j else 0) + (m - 1) * prev[j] for j in range(6)))
    return rows[n][k]


def _elementary(p1, p2, p3):
    """e_1, e_2, e_3 from the power sums p_1, p_2, p_3 by Newton's identities.

    Works on Fractions and on float arrays alike.
    """
    return p1, (p1**2 - p2) / 2, (p1**3 - 3 * p1 * p2 + 2 * p3) / 6


_ELEMENTARY: dict[tuple[int, int], Fraction] = {}  # (q, m) -> e_q(1, 1/2, ..., 1/m)


def delta(r: int, k: int, n: int) -> int:
    """Correction term of the shortest-side recursion; always an integer.

    delta(r, k, n) = (n-1)! e_{r-1}(1, 1/2, ..., 1/(n-k)) for k <= n, e_q
    the elementary symmetric polynomial, and 0 for k > n.  The defining
    recursion delta_r(k) = delta_r(k-1) - delta_{r-1}(k)/(n-k+1), from the
    head delta_r(1, n), telescopes to it, because adding 1/m to the set
    gives e_q(m) = e_q(m-1) + e_{q-1}(m-1)/m.  Since c(m+1, r) =
    m! e_{r-1}(1, ..., 1/m), this is (n-1)!/(n-k)! c(n-k+1, r); at k = 1,
    the Stirling cycle number c(n, r).  Integrality is checked on every
    call rather than assumed.
    """
    if r < 2 or r > _MAX_RANK:
        raise ValueError(f"correction term defined for ranks 2..{_MAX_RANK}")
    if k < 1 or n < 1:
        raise ValueError("delta requires k >= 1 and n >= 1")
    if k > n:
        return 0
    return _delta(r, k, n, math.factorial(n - 1))


def _delta(r: int, k: int, n: int, fact: int) -> int:
    """delta(r, k, n) for valid 1 <= k <= n, given fact = (n-1)!."""
    m = n - k
    if (r - 1, m) not in _ELEMENTARY:
        for q, e in enumerate(_elementary(*(harmonic(m, power) for power in (1, 2, 3))), 1):
            _ELEMENTARY[q, m] = e
    e = _ELEMENTARY[r - 1, m]
    val, rem = divmod(fact * e.numerator, e.denominator)
    if rem:
        raise ArithmeticError(f"correction term not integral at (r={r}, k={k}, n={n})")
    return val


# ---------------------------------------------------------------------------
# exact tables

def _u_rows(r: int, n_max: int) -> list[list[int]]:
    """u_r by columns k = 0..n_max // r, the top threshold.

    u_0 = 0 and F(n, m) = (n-1)!/(n-1-m)! (0 for m >= n).  As (n-1)
    F(n-1, m-1) = F(n, m), (n-1) u_r(k, n-1) is the defining sum u_r(k, n) =
    sum_{m<k} F(n, m) u_r(k, n-1-m) + sum_{k<=m<n} F(n, m) u_{r-1}(k, n-1-m)
    with each m raised by one; the difference telescopes to
    u_r(k, n) = n u_r(k, n-1) - F(n, k) [u_r(k, n-1-k) - u_{r-1}(k, n-1-k)].
    Each column runs ranks 1..r in turn; an n-permutation has at most n
    cycles, so ranks past n_max + 1 (every cell n!) are not run.
    """
    fact = [math.factorial(i) for i in range(n_max + 1)]
    rows = []
    for k in range(top_threshold(n_max, r, Side.LARGEST) + 1):
        falling = [fact[n - 1] // fact[n - 1 - k] if n > k else 0 for n in range(n_max + 1)]
        row = [0] * (n_max + 1)
        for _ in range(min(r, n_max + 1)):
            low, row = row, [1] + [0] * n_max
            for n in range(1, n_max + 1):
                row[n] = n * row[n - 1]
                if n > k:
                    row[n] -= falling[n] * (row[n - 1 - k] - low[n - 1 - k])
        rows.append(row)
    return rows


def _v_rows(r: int, n_max: int) -> list[list[int]]:
    """v_r by columns t = 0..max(n_max-r+1, 0): column t holds v_r(t+1, n).

    v_0 = delta_1 = 0 and F is as in _u_rows.  The defining sum v_r(k, n) =
    delta_r(k, n) + sum_{m<k-1} F(n, m) v_{r-1}(k, n-1-m) + sum_{k-1<=m<n}
    F(n, m) v_r(k, n-1-m) gives the cells n >= k + r - 1 (others hold 0, or
    1 at r = 1, n = 0).  Less delta_r it is s, which telescopes as in
    _u_rows; s starts at n = k + r - 1 from 0 because at n = k + r - 2
    every term of the sum vanishes: delta_r is (n-1)! e_{r-1} of r - 2
    reciprocals, and each table read is a zero cell.  Each column runs
    ranks q = 1..r in turn.  The column k = 0, v_r(0, n) = n!, is not held.
    """
    fact = [math.factorial(i) for i in range(n_max + 1)]
    rows = []
    for t in range(top_threshold(n_max, r, Side.SMALLEST) + 1):
        falling = [fact[n - 1] // fact[n - 1 - t] if n > t else 0 for n in range(n_max + 1)]
        row = [0] * (n_max + 1)
        for q in range(1, r + 1):
            low, row = row, [1 if q == 1 else 0] + [0] * n_max
            s = 0
            for n in range(t + q, n_max + 1):
                s = (n - 1) * s + low[n - 1] + falling[n] * (row[n - 1 - t] - low[n - 1 - t])
                row[n] = s + (_delta(q, t + 1, n, fact[n - 1]) if q > 1 else 0)
        rows.append(row)
    return rows


def _stored_rows(build, r: int, first: int, k_max: int, n_max: int) -> tuple:
    """Rows k = first..k_max, n = 0..n_max of a public table: stored column k - first.

    Past the stored table's last column, row k reads that last column (see
    the callers for why it holds every later one).  A bool rank and
    negative sizes are refused before the store is touched.
    """
    if isinstance(r, bool) or min(k_max, n_max) < 0:
        raise ValueError(f"bad table request: rank {r!r}, k_max {k_max}, n_max {n_max}")
    rows = exact._stored(build, (r,), n_max)
    return tuple(tuple(rows[min(k - first, len(rows) - 1)][: n_max + 1])
                 for k in range(first, k_max + 1))


def longest_table(r: int, k_max: int, n_max: int) -> CycleCountTable:
    """Exact counts of n-permutations whose r-th longest cycle is <= k."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    # the last column, k = held n // r >= n_max // r, counts all n! at every
    # n <= n_max: r cycles longer than n // r do not fit
    counts = _stored_rows(_u_rows, r, 0, k_max, n_max)
    return CycleCountTable(r, Side.LARGEST, k_max, n_max, counts, conjectural=False)


def shortest_table(r: int, k_max: int, n_max: int) -> CycleCountTable:
    """Counts of n-permutations whose r-th shortest cycle is >= k.

    Exact for r = 1; produced by the corrected recursion (conjectural) for
    ranks 2..4.  Row k = 0 counts all n! permutations and is not stored;
    row k >= 1 is the stored column t = k - 1.
    """
    if r < 1 or r > _MAX_RANK:
        raise ValueError(f"rank must be in 1..{_MAX_RANK}")
    # the last column, t = max(held n - r + 1, 0), is 0 at every n >= 1: no
    # n-permutation has an r-th shortest cycle longer than n - r + 1 <= t, and
    # the fewer-than-r digest 0 is not either; the n = 0 cell is the same in
    # every column
    counts = _stored_rows(_v_rows, r, 1, k_max, n_max)
    fact = tuple(math.factorial(n) for n in range(n_max + 1))
    return CycleCountTable(r, Side.SMALLEST, k_max, n_max, (fact,) + counts, conjectural=r > 1)


def pmf_from_tables(r: int, n: int, side: Side) -> ComponentPMF:
    """Exact PMF of the r-th ranked cycle size, by differencing a table column."""
    if n < 1 or r < 1:
        raise ValueError("pmf_from_tables requires n >= 1 and r >= 1")
    if side is Side.SMALLEST and r > _MAX_RANK:
        raise ValueError(f"the shortest-side recursion covers ranks 1..{_MAX_RANK}")
    rows = exact._stored(_u_rows if side is Side.LARGEST else _v_rows, (r,), n)
    fact = math.factorial(n)
    cells = [rows[t][n] for t in range(top_threshold(n, r, side) + 1)]
    counts = exact._differences(cells, fact, side)
    conj = side is Side.SMALLEST and r > 1
    return ComponentPMF(ObjectKind.PERMUTATION, n, r, side,
                        tuple(Fraction(c, fact) for c in counts), conjectural=conj)


# ---------------------------------------------------------------------------
# normalised float tables

def _harmonic_float(n_max: int, power: int) -> np.ndarray:
    out = np.zeros(n_max + 1)
    out[1:] = np.cumsum(1.0 / np.arange(1, n_max + 1, dtype=np.float64) ** power)
    return out


def _v_norm(r: int, n_max: int) -> np.ndarray:
    """The conjectural shortest-side recursion on counts normalised by n!.

    Returns the row-major table z[n, t], t = 0..max(n_max-r+1, 0), whose
    column t holds v_r(t+1, n)/n!, so that each step n reads and writes
    contiguous rows; callers keep it in exact's store.  Rank q keeps only
    its prefix sums cum[i, t] = sum of its values at sizes < i, and step n
    reads cum[n-t, t] for t below the top threshold of (n, q), an
    anti-diagonal, as one strided view of the flat table (columns from
    that threshold on hold 0 and are not written at n); the rank-r values
    are the only full table.  The correction D_q[k, n] = delta(q, k, n)/n!
    is (n-1)! e_{q-1}(1, ..., 1/(n-k))/n! = e_{q-1}[n-k]/n (see delta), so
    e_1..e_3 are built once from the harmonic sums and row n of D_q is a
    reversed slice of one of them; no D table is held.

    Kept apart from the threshold-chain kernel in exact: it is the route
    that the proven chain validates.
    """
    width = top_threshold(n_max, r, Side.SMALLEST) + 1
    stride = min(1 - width, -1)  # flat step from [i, t] to [i - 1, t + 1]; one cell at width 1
    e = _elementary(*(_harmonic_float(n_max, power) for power in (1, 2, 3)))
    cum_prev = prev_flat = None
    for q in range(1, r + 1):
        cum = np.zeros((n_max + 2, width))
        cum[1] = 1.0 if q == 1 else 0.0
        flat = cum.reshape(-1)
        if q == r:
            z = np.zeros((n_max + 1, width))
            z[0] = cum[1]  # the empty permutation
        else:
            row = np.zeros(width)  # entries past end are never written: end grows with n
        for n in range(1, n_max + 1):
            end = min(top_threshold(n, q, Side.SMALLEST), width)
            out = z[n] if q == r else row
            if end:  # cum[n-t, t] for t < end: an anti-diagonal
                diag = slice(n * width, n * width + end * stride, stride)
                own = flat[diag]
                if q == 1:
                    out[:end] = own / n
                else:
                    d = e[q - 2][n - end : n][::-1] / n  # D_q[t+1, n] for t < end
                    out[:end] = d + (cum_prev[n, :end] - prev_flat[diag] + own) / n
            np.add(cum[n], out, out=cum[n + 1])
        cum_prev, prev_flat = cum, flat
    return z


def pmf_from_tables_float(r: int, n: int, side: Side) -> ComponentPMF:
    """Float PMF of the r-th ranked cycle size from the normalised tables.

    The largest side is exact.pmf_float's threshold chain; the smallest
    side runs the conjectural recursion.  Both raise PrecisionError when
    the mass-sum or probability-range check fails.
    """
    if n < 1 or r < 1:
        raise ValueError("pmf_from_tables_float requires n >= 1 and r >= 1")
    if side is Side.LARGEST:
        return exact.pmf_float(ObjectKind.PERMUTATION, n, r, side)
    if r > _MAX_RANK:
        raise ValueError(f"the shortest-side recursion covers ranks 1..{_MAX_RANK}")
    table = exact._stored(_v_norm, (r,), n)
    probs = exact._row_pmf(table, n, r, side).tolist()
    return ComponentPMF(ObjectKind.PERMUTATION, n, r, side, tuple(probs), conjectural=r > 1)
