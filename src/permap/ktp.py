"""Cumulative cycle-count recursions for random permutations.

Knuth/Trabb Pardo-style tables, permutations only.  Two families:

  longest side   u_r(k, n) = number of n-permutations whose r-th longest
                 cycle has at most k nodes (equivalently, fewer than r
                 cycles longer than k).
  shortest side  v_r(k, n) = number of n-permutations whose r-th shortest
                 cycle has at least k nodes, where a permutation with
                 fewer than r cycles has r-th shortest size 0.

u_r obeys a proven recursion.  v_r (r >= 2) obeys a recursion with an
additive correction term, conjectural beyond the ranges on which it has
been verified; every table derived from it is flagged as such.  The
correction at k = 1 coincides with the unsigned Stirling cycle numbers,
which is checked, not explained, by the test suite.

Adjacent differences of a table column give the exact PMF of the r-th
ranked cycle size, which must (and does, in tests) match the rank-window
engine.  The float tables hold counts normalised by n!, where the
falling-factorial weights collapse to 1/n and prefix sums make every cell
O(1); n = 2500 tables build in seconds.  The longest-side float table is
the threshold-chain kernel of exact (its uniform-split path); the
shortest-side float recursion is built here, apart from that kernel, so
that the proven chain can validate it.  It runs one rank at a time over
row-major [n, k] prefix sums, one contiguous row per size n, keeps a
full value table for the requested rank only, and returns it as [n, k].

Every table here, exact or float, lives in exact's one store and grows
by its one rule; exact's row reader turns a float table's row n into a
guarded PMF, while the exact tables keep their own Fraction differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import exact
from .kinds import ObjectKind, Side
from .exact import support_length
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


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple[int, ...]:
    """Unsigned Stirling cycle numbers c(n, 0..5)."""
    if n == 0:
        return (1, 0, 0, 0, 0, 0)
    prev = _stirling_row(n - 1)
    return tuple((prev[k - 1] if k else 0) + (n - 1) * prev[k] for k in range(6))


def stirling_cycle(n: int, k: int) -> int:
    """Number of n-permutations with exactly k cycles (k <= 5 supported)."""
    if n < 0 or k < 0:
        raise ValueError("stirling_cycle requires n, k >= 0")
    if k > 5:
        raise ValueError("only k <= 5 is tabulated")
    return _stirling_row(n)[k]


def _delta2_int(k: int, n: int) -> int:
    if k > n:
        return 0
    fact = math.factorial(n - 1)
    return sum(fact // i for i in range(1, n - k + 1))


@lru_cache(maxsize=None)
def _delta_frac(r: int, k: int, n: int) -> Fraction:
    if r == 2:
        return Fraction(_delta2_int(k, n))
    if k == 1:
        h1 = harmonic(n - 1)
        if r == 3:
            val = (h1**2 - harmonic(n - 1, 2)) / 2
        else:
            val = (h1**3 - 3 * h1 * harmonic(n - 1, 2) + 2 * harmonic(n - 1, 3)) / 6
        return math.factorial(n - 1) * val
    if n >= k:
        return _delta_frac(r, k - 1, n) - _delta_frac(r - 1, k, n) / (n - k + 1)
    return Fraction(0)


def delta(r: int, k: int, n: int) -> int:
    """Correction term of the shortest-side recursion; always an integer.

    delta(r, 1, n) equals stirling_cycle(n, r).  Integrality of the general
    case is checked on every call rather than assumed.
    """
    if r < 2 or r > _MAX_RANK:
        raise ValueError(f"correction term defined for ranks 2..{_MAX_RANK}")
    if k < 1 or n < 1:
        raise ValueError("delta requires k >= 1 and n >= 1")
    val = _delta_frac(r, k, n)
    if val.denominator != 1:
        raise ArithmeticError(f"correction term not integral at (r={r}, k={k}, n={n}): {val}")
    return val.numerator


# ---------------------------------------------------------------------------
# exact tables

def _falling(n: int, m: int) -> list[int]:
    """[ (n-1)!/(n-1-i)! for i = 0..m ] -- weights of the m-loop."""
    out = [1]
    for i in range(1, m + 1):
        out.append(out[-1] * (n - i))
    return out


def _u_rows(r: int, k_max: int, n_max: int) -> list[list[int]]:
    fact = [math.factorial(i) for i in range(n_max + 1)]
    prev = _exact_rows(Side.LARGEST, r - 1, k_max, n_max) if r > 1 else None
    rows = [[1] + [0] * n_max for _ in range(k_max + 1)]
    for n in range(1, n_max + 1):
        ff = _falling(n, n - 1)
        cut = n if r == 1 else n // r
        for k in range(k_max + 1):
            row = rows[k]
            if k >= cut:
                row[n] = fact[n]
                continue
            acc = 0
            for m in range(k):
                acc += ff[m] * row[n - 1 - m]
            if r > 1:
                pk = prev[k]
                for m in range(k, n):
                    acc += ff[m] * pk[n - 1 - m]
            row[n] = acc
    return rows


def _v_rows(r: int, k_max: int, n_max: int) -> list[list[int]]:
    fact = [math.factorial(i) for i in range(n_max + 1)]
    prev = _exact_rows(Side.SMALLEST, r - 1, k_max, n_max) if r > 1 else None
    rows = [[0] * (n_max + 1) for _ in range(k_max + 1)]
    rows[0] = fact[:]
    for k in range(1, k_max + 1):
        rows[k][0] = 1 if r == 1 else 0
    for n in range(1, n_max + 1):
        ff = _falling(n, n - 1)
        hi = n if r == 1 else n - r + 1
        for k in range(1, min(hi, k_max) + 1):
            row = rows[k]
            acc = 0 if r == 1 else delta(r, k, n)
            if r > 1:
                pk = prev[k]
                for m in range(k - 1):
                    acc += ff[m] * pk[n - 1 - m]
            for m in range(k - 1, n):
                acc += ff[m] * row[n - 1 - m]
            row[n] = acc
    return rows


def _exact_rows(side: Side, r: int, k_max: int, n_max: int) -> list[list[int]]:
    build = _u_rows if side is Side.LARGEST else _v_rows
    return exact._stored(build, (r,), (k_max, n_max))


def longest_table(r: int, k_max: int, n_max: int) -> CycleCountTable:
    """Exact counts of n-permutations whose r-th longest cycle is <= k."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    rows = _exact_rows(Side.LARGEST, r, k_max, n_max)
    counts = tuple(tuple(rows[k][: n_max + 1]) for k in range(k_max + 1))
    return CycleCountTable(r, Side.LARGEST, k_max, n_max, counts, conjectural=False)


def shortest_table(r: int, k_max: int, n_max: int) -> CycleCountTable:
    """Counts of n-permutations whose r-th shortest cycle is >= k.

    Exact for r = 1; produced by the corrected recursion (conjectural) for
    ranks 2..4.
    """
    if r < 1 or r > _MAX_RANK:
        raise ValueError(f"rank must be in 1..{_MAX_RANK}")
    rows = _exact_rows(Side.SMALLEST, r, k_max, n_max)
    counts = tuple(tuple(rows[k][: n_max + 1]) for k in range(k_max + 1))
    return CycleCountTable(r, Side.SMALLEST, k_max, n_max, counts, conjectural=r > 1)


def pmf_from_tables(r: int, n: int, side: Side) -> ComponentPMF:
    """Exact PMF of the r-th ranked cycle size, by differencing a table column."""
    if n < 1 or r < 1:
        raise ValueError("pmf_from_tables requires n >= 1 and r >= 1")
    fact = math.factorial(n)
    length = support_length(n, r, side)
    if side is Side.LARGEST:
        rows = _exact_rows(side, r, n // r, n)
        cdf = [rows[k][n] for k in range(length)]
        probs = [Fraction(cdf[0], fact)]
        probs += [Fraction(cdf[k] - cdf[k - 1], fact) for k in range(1, length)]
        conj = False
    else:
        rows = _exact_rows(side, r, max(n - r + 2, 1), n)
        tail = [rows[k][n] for k in range(length + 1)] if length > 1 else [fact, 0]
        probs = [Fraction(fact - tail[1], fact)]
        probs += [Fraction(tail[k] - tail[k + 1], fact) for k in range(1, length)]
        conj = r > 1
    return ComponentPMF(ObjectKind.PERMUTATION, n, r, side, tuple(probs), conjectural=conj)


# ---------------------------------------------------------------------------
# normalised float tables

def _harmonic_float(n_max: int, power: int) -> np.ndarray:
    out = np.zeros(n_max + 1)
    out[1:] = np.cumsum(1.0 / np.arange(1, n_max + 1, dtype=np.float64) ** power)
    return out


def _delta_row(q: int, n: int, t: int, h: tuple, lower: np.ndarray | None,
               ks: np.ndarray) -> np.ndarray:
    """Row n of D_q, D_q[k, n] = delta(q, k, n)/n!, for k = 1..t (entry 0 unused).

    h holds the harmonic sums of powers 1..3, lower is row n of D_{q-1}
    (None at q = 2) reaching at least to k = t, and ks = 0, 1, 2, ...
    """
    h1, h2, h3 = h
    out = np.empty(t + 1)
    kk = ks[1 : t + 1]
    if q == 2:
        out[1:] = h1[n - kk] / n
        return out
    if q == 3:
        head = (h1[n - 1] ** 2 - h2[n - 1]) / (2 * n)
    else:
        head = (h1[n - 1] ** 3 - 3 * h1[n - 1] * h2[n - 1] + 2 * h3[n - 1]) / (6 * n)
    out[1] = head
    if t >= 2:
        out[2:] = head - (lower[2 : t + 1] / (n - kk[1:] + 1)).cumsum()
    return out


def _v_norm(r: int, k_max: int, n_max: int) -> np.ndarray:
    """The conjectural shortest-side recursion on counts normalised by n!.

    Returns the row-major table z[n, k], so that each step n reads and
    writes contiguous rows; callers keep it in exact's store.  Rank q
    keeps only its prefix sums cum[i, k] = sum of its values at sizes < i,
    and the step reads cum[n-k+1, k] through one flat index; the rank-r
    values are the only full table.  Row n of the correction D_q is recomputed from
    D_{q-1}'s row n at each step, so no D table is held.

    Kept apart from the threshold-chain kernel in exact: it is the route
    that the proven chain validates.
    """
    width = k_max + 1
    ks = np.arange(width)
    step = ks * (width - 1)  # flat index of cum[n-k+1, k] is (n+1)*width - step[k]
    h = tuple(_harmonic_float(n_max, power) for power in (1, 2, 3))
    cum_prev = prev_flat = None
    for q in range(1, r + 1):
        cum = np.zeros((n_max + 2, width))
        cum[1] = 1.0 if q == 1 else 0.0
        cum[1, 0] = 1.0
        flat = cum.reshape(-1)
        if q == r:
            z = np.zeros((n_max + 1, width))
            z[0] = cum[1]  # the empty permutation
            z[:, 0] = 1.0
        else:
            row = np.zeros(width)  # entries past t are never written: t grows with n
            row[0] = 1.0
        for n in range(1, n_max + 1):
            t = min(n if q == 1 else n - q + 1, k_max)
            out = z[n] if q == r else row
            if t >= 1:
                idx = (n + 1) * width - step[1 : t + 1]
                own = flat[idx]
                if q == 1:
                    out[1 : t + 1] = own / n
                else:
                    d = None
                    for p in range(2, q + 1):
                        d = _delta_row(p, n, min(n - p + 1, k_max), h, d, ks)
                    out[1 : t + 1] = d[1 : t + 1] + (cum_prev[n, 1 : t + 1]
                                                     - prev_flat[idx] + own) / n
            np.add(cum[n], out, out=cum[n + 1])
        cum_prev, prev_flat = cum, flat
    return z


def pmf_from_tables_float(r: int, n: int, side: Side) -> ComponentPMF:
    """Float PMF of the r-th ranked cycle size from the normalised tables.

    The largest side reads the threshold-chain kernel; the smallest side
    runs the conjectural recursion.  Both raise PrecisionError when the
    mass-sum or negative-mass check fails.
    """
    if n < 1 or r < 1:
        raise ValueError("pmf_from_tables_float requires n >= 1 and r >= 1")
    if side is Side.LARGEST:
        table = exact._stored(exact._build_chain, (ObjectKind.PERMUTATION, side, r), (n,))
    elif r > _MAX_RANK:
        raise ValueError(f"the shortest-side recursion covers ranks 1..{_MAX_RANK}")
    else:
        table = exact._stored(_v_norm, (r,), (max(n - r + 2, 1), n))
    probs = exact._row_pmf(table, n, r, side)
    conj = side is Side.SMALLEST and r > 1
    return ComponentPMF(ObjectKind.PERMUTATION, n, r, side, tuple(float(p) for p in probs),
                        conjectural=conj)
