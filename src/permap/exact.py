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

The memo keys a row on one flat tuple (m, *window): m, the number of
nodes left, then a canonical window.  Later components number at most m
and have size <= m, so some entries can never be displaced or be the
digest; one rule per side (_largest_state, _smallest_state) drops them,
at the entry window and at every child alike.  A rank-r state so
becomes the lower-rank state with the same row, and the memo holds
windows of several lengths by design: ranks share their rows.  Every
canonical window has at most m + 1 entries.
Largest side: once the minimum is >= m the row is t_m x^min.  Otherwise
at most floor(m/(w+1)) later components exceed w, so if m < (k-1)(w_k+1)
for some k >= 2, at most k-2 of them exceed w_k, and the row of
(m; w_1..w_s) is the row of (m; w_1..w_k-1), taking the smallest such k.
Proof: let d be the (k-1)-th largest of w_1..w_k-1 and the later sizes.
At most k-2 of those exceed w_k, so d <= w_k; so w_k..w_s and the k-1
largest of the rest are s values >= d, and at most (s-k+1) + (k-2)
values exceed d: d is the s-th largest of all, the digest.  An entry
w_k >= m (k >= 2) is such a case, and so are zeros past the first m + 1.
Smallest side, m >= 1: the next component displaces a maximum >= m, or
ties it, so the maximum is stored as INFINITY.  An entry <= 1 lies at or
below every later size, so the s-th smallest of the window and the later
sizes is the (s-1)-th smallest of the rest: leading entries <= 1 are
dropped, keeping one entry.  And only the largest m + 1 entries are
kept.  Proof: let d be the (m+1)-th smallest of those entries and the
later sizes.  At most m later sizes come, so d is at least one of those
entries, and so at least each of the s-m-1 dropped ones; so at most
(s-m-1) + m values lie below d and at least s at or below it: d is the
s-th smallest of all, the digest.

Rows are packed by Kronecker substitution (Schoenhage 1982): a row
polynomial is stored as one int, coefficient k in slot k, B bits wide,
so a step sums weight * child rows in big-integer arithmetic, and each
request unpacks its row once.  Every coefficient of a row at
(m, window) lies in 0..t_m, so slots of bits(t_n) + 2 bits never carry
for a request of size n; the unpacked row must still sum to t_n (a
carry would lower the sum), or ArithmeticError is raised.  A packed row
is valid at its own slot width only: each memo holds one width, the
smallest multiple of 64 bits that holds bits(t_n) + 2, and a request
that needs wider slots starts a fresh memo rather than mixing widths, so
an ascending sweep rebuilds once per 64 bits of t_n: for permutations up
to n = 60 at n = 21, 34, 46 and 57 (320-bit slots), for mappings at
n = 16, 27, 37, 46 and 56 (384-bit slots at n = 60).

The float engine runs the same recursion normalised by the total count
t_n.  Tracking whole windows in floating point is hopeless at table
sizes (the window space grows like n^r per level), but for one fixed
threshold t the window projects onto a tiny sufficient statistic: the
number of window entries larger than t.  Inserting j and dropping the
minimum changes the count of >t entries by [j > t], capped at r, no
matter what the window was, so the projection commutes with the window
update.  The smallest side counts components of size <= t the same way,
and its tail P{r-th smallest > t} is P{fewer than r components of size
<= t} minus P{fewer than r components}; that difference of two values
near 1 costs about 1e-14 of absolute accuracy.  The projected chain is
run for every threshold at once as a numpy table of r levels, one per
count.  Both kinds are exp-log classes (Flajolet and Sedgewick, Analytic
Combinatorics, II and VII): a new component has size j with probability
q_j tau_{m-j} / (m tau_m) (kinds), so on levels scaled by tau one
(level, m) step is m W[m] = sum_j q_j W'[m-j].  For permutations
q = tau = 1 and the sums are partial column sums, as in Knuth and Trabb
Pardo (1976), each kept as one running row that a step advances by one
add.  So a build holds the table it returns and, when it runs from the
all-zero level rather than a held table, the level below.  The chain
runs in float64; ktp's longest-side float PMFs are pmf_float's.

All computations are deterministic: summation orders are fixed, and
results do not depend on call order.

Engines keyed by (kind, side) share module-level memo tables, and every
grown table of this module and of ktp, the Stirling cycle numbers
included, lives in one store (_stored) with one grow rule.  Create none of
your own state here.  The protocol between the table builders and the
store is stated once, in _stored.

Every cumulative table, exact or float, largest or smallest side, is
indexed by one threshold t = 0.._top_threshold(n_max, r, side), the
largest possible digest: a component is small when its size is <= t,
and cell t holds P{digest <= t} on the largest side and P{digest > t} on
the smallest.  A builder derives its thresholds from its rank and n_max,
so one size fixes a stored table.  Row n of every table is read as a PMF
by one differencing rule (_differences); a float table is first read by
one rule (_row_pmf): row n divided by its scale tau_n, less its own cell
at the top threshold on the smallest side.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from .kinds import ObjectKind, Side, connected_count, exp_log_weights, member, total_count, whole
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


def _largest_state(state: tuple) -> tuple:
    """Canonical largest-side state (m, w_1..w_k-1) of a state (m, w_1..w_s).

    The entries from w_k on are dropped at the smallest k >= 2 with m <
    (k-1)(w_k+1): at most k-2 future components exceed w_k, so those
    entries are never displaced and never the digest.
    """
    m = state[0]
    for k in range(2, len(state)):
        if m < (k - 1) * (state[k] + 1):
            return state[:k]
    return state


def _smallest_state(state: tuple) -> tuple:
    """Canonical smallest-side state of a state (m, w_1..w_s) with m >= 1.

    A maximum >= m is stored as INFINITY; then the leading entries <= 1,
    and all but the last m + 1 entries, are dropped, keeping at least one.
    """
    m, high = state[0], state[-1]
    if m <= high < INFINITY:
        state = state[:-1] + (INFINITY,)
    first = len(state) - m - 1  # the first of the last m + 1 entries
    if state[1] <= 1:
        first = max(first, bisect_right(state, 1, 1))
    first = min(first, len(state) - 1)
    return (m,) + state[first:] if first > 1 else state


def _row_coeffs(kind: ObjectKind, side: Side, n: int, window: tuple) -> tuple[int, ...]:
    # coefficients of a row at m <= n are at most t_m <= t_n
    need = total_count(kind, n).bit_length() + 2
    width, rows = _MEMO.get((kind, side), (0, {}))
    if width < need:  # rows are valid at one width: start afresh, never mix
        width, rows = -(-need // 64) * 64, {}
        _MEMO[kind, side] = width, rows
    totals = [total_count(kind, m) for m in range(n + 1)]

    # largest/smallest(state) run one step from a canonical state (m,
    # *window) that is not final; each child state (left, *window) is
    # built, made canonical and looked up before recursing, so a memo hit
    # costs no recursive call.  The window is state[1:], so bisects run
    # with lo=1, and the state itself is the row's one key
    def largest(state: tuple) -> int:
        acc = 0
        m = state[0]
        for j, weight in enumerate(_weights(kind, m), 1):
            i = bisect_right(state, j, 1)
            left = m - j
            child = (left,) + state[2:i] + (j,) + state[i:] if i > 1 else (left,) + state[1:]
            if child[1] >= left:  # sizes <= left displace nothing: the window is final
                acc += (weight * totals[left]) << (child[1] * width)
                continue
            child = _largest_state(child)
            row = rows.get(child)
            acc += weight * (largest(child) if row is None else row)
        rows[state] = acc
        return acc

    def smallest(state: tuple) -> int:
        acc = 0
        m = state[0]
        for j, weight in enumerate(_weights(kind, m), 1):
            i = bisect_right(state, j, 1)
            left = m - j
            child = ((left,) + state[1:i] + (j,) + state[i:-1] if j < state[-1]
                     else (left,) + state[1:])
            if left == 0:  # an INFINITY digest: fewer than r components, size 0
                high = child[-1]
                acc += weight if high == INFINITY else weight << (high * width)
                continue
            child = _smallest_state(child)
            row = rows.get(child)
            acc += weight * (smallest(child) if row is None else row)
        rows[state] = acc
        return acc

    if side is Side.LARGEST:
        if window[0] >= n:
            return (0,) * window[0] + (totals[n],)
        state, rec = _largest_state((n,) + window), largest
    else:
        if n == 0:
            return (1,) if window[-1] == INFINITY else (0,) * window[-1] + (1,)
        state, rec = _smallest_state((n,) + window), smallest
    row = rows.get(state)
    if row is None:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 4 * n + 200))
        try:
            row = rec(state)
        finally:
            sys.setrecursionlimit(limit)
    return _unpack(row, width, totals[n])


def _poly(kind: ObjectKind, side: Side, n: int, ranks: Sequence[RankEntry]) -> RowPolynomial:
    member(kind, ObjectKind, f"{side.value}_poly: kind")  # the side is the caller's own
    n = whole(n, 0, "size n")  # the big-integer recursion must not run on numpy ints
    window = tuple(sorted(entry if entry == INFINITY else whole(entry, 0, "rank window entry")
                          for entry in ranks))
    if not window:
        raise ValueError("rank window must have at least one entry")
    if window[-1] == INFINITY and side is Side.LARGEST:
        raise ValueError("rank window entry INFINITY only makes sense on the smallest side")
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


def _top_threshold(n: int, r: int, side: Side) -> int:
    """Largest possible digest at size n: the last threshold t a table reads.

    Largest side: r components larger than n/r will not fit, so the digest
    is at most n // r and the CDF P{digest <= t} is 1 from t = n // r on.
    Smallest side: the r-th smallest is at most n - (r-1) singleton
    companions, so the tail P{digest > t} is 0 from t = max(n-r+1, 0) on.
    It checks nothing: support_length is its checked public form, and only
    the table builders and readers, given checked arguments, call it.
    """
    if side is Side.LARGEST:
        return n // r
    return max(n - r + 1, 0)


def support_length(n: int, r: int, side: Side) -> int:
    """Number of possible sizes (0..bound) of the r-th ranked component."""
    return _top_threshold(whole(n, 0, "support_length: size n"),
                          whole(r, 1, "support_length: rank r"),
                          member(side, Side, "support_length: side")) + 1


def _check_rank(r: int, what: str, n: int, kind: ObjectKind, side: Side) -> None:
    """Refuse a bad request before it reaches a builder or the store.

    kind and side must be members of their enums, and the size n and the
    rank r ints >= 1, by the one rule of kinds.whole and kinds.member.
    """
    member(kind, ObjectKind, f"{what}: kind")
    member(side, Side, f"{what}: side")
    whole(r, 1, f"{what}: rank r")
    whole(n, 1, f"{what}: size n")


def pmf(kind: ObjectKind, n: int, r: int, side: Side) -> ComponentPMF:
    """Exact distribution of the r-th ranked component size, as Fractions."""
    _check_rank(r, "pmf", n, kind, side)
    # the canonical window keeps at most n + 1 entries of any wider one:
    # building no more spares an r-tuple at a rank far past n
    slots = min(r, n + 1)
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
    """Rows held per (kind, side) memo, for capacity planning.

    Each row is one packed int keyed by one canonical state (m, *window),
    at the memo's one slot width: the smallest multiple of 64 bits that
    holds bits(t_n) + 2 for the request of size n that last widened it.
    Windows of every length share one memo, so a row counts once however
    many ranks read it.
    """
    return {f"{kind.value}/{side.value}": len(rows) for (kind, side), (_, rows) in _MEMO.items()}


# ---------------------------------------------------------------------------
# float engine: the threshold-projected chain

_MASS_TOL = 1e-9


def _add_anti_diagonal(sums: np.ndarray, table: np.ndarray, row: int, count: int) -> None:
    """Add the cells table[row - t, t] to sums[t], for t < count <= row + 1.

    The cells are one strided view of the C-ordered table, stepping back
    width - 1 flat cells (one cell at width 1), so a held table wider and
    taller than a build is read through its own width, as it is.  When
    the last cell lies in row 0 the view's stop lies before the first
    cell; it is then None, since a negative stop would count from the end.
    """
    width = table.shape[1]
    stride = min(1 - width, -1)
    start = row * width
    stop = start + count * stride
    head = sums[:count]
    head += table.ravel()[start : stop if stop >= 0 else None : stride]


def _build_chain(kind: ObjectKind, side: Side, r: int, n_max: int,
                 lower: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Raw top level of the chain as a table[m, t], sizes m = 0..n_max, and tau.

    Both sides count the components that are large against threshold t,
    for t = 0.._top_threshold(n_max, r, side): the largest side those of
    size > t, the smallest side those of size <= t.  Level c = 0..r-1 holds
    tau_m P{an m-object has at most c counted components}, and the top
    level r-1 is returned as it is, scaled by tau and with nothing
    subtracted, so that it can start the rank r+1 build.  Its row n read by
    _row_pmf, divided by tau_n, is P{r-th largest <= t} on the largest
    side; on the smallest side it is P{fewer than r components of size
    <= t}, and subtracting P{fewer than r components}, the row's own value
    at t = _top_threshold(n, r, side), leaves P{r-th smallest > t}, with the
    fewer-than-r-components digest 0.  lower, the (table, tau) of a rank
    r-1 build at a size >= n_max, holds level r-2 on rows <= n_max and
    columns <= this table's last; level r-1 is run from it instead of from
    the all-zero level -1, with the same bits, since no cell depends on the
    table's size.

    Every level is a table of values [m, t], and only level c and level
    c-1 are alive: a cold build holds two tables, the one it returns and
    the level below, writing level c over level c-2; a warm build runs one
    level and holds only the table it returns, reading lower in place,
    through its own width, and never writing it.  A new component of size
    j <= t leads to the same level on the largest side and to level c-1 on
    the smallest; a larger one the other way round, so the two sides run
    one step on swapped (low, high) levels.  On levels scaled by tau, one
    (level, m) step sums q_j times the level after size j over the rows j
    of a reused block, row by row at every table width, and divides by m.
    For permutations (q = tau = 1) the step reads partial sums of each
    column t < m: of the low level's values at sizes < m, and of both
    levels' values at sizes < m - t, an anti-diagonal.  Each is a running
    vector of width W that one add a step advances, by row m-1 or by its
    anti-diagonal read as one strided view, so column t sums sizes 0, 1,
    2, ... in order from 0.0 at every table width; the columns t >= m
    take the whole row sum.
    """
    largest = side is Side.LARGEST
    width, rows = _top_threshold(n_max, r, side) + 1, n_max + 1
    q, tau = exp_log_weights(kind, n_max)
    uniform = kind is ObjectKind.PERMUTATION  # q = 1: sums over j are running sums
    if not uniform:
        mask = np.arange(1, rows)[:, None] <= np.arange(width)[None, :]  # mask[j-1, t]: j <= t
        blocks = np.empty((n_max, width))  # reused: a fresh array per step costs page faults
    # level -1 is all zero; a held level r-2 is read in place
    done, level = (0, np.zeros((rows, width))) if lower is None else (r - 1, lower[0])
    prev = np.empty((rows, width))  # level c is written over level c-2
    for c in range(done, r):  # one level when warm: lower is never written
        prev, level = level, prev
        level[0] = 1.0  # the empty object
        low, high = (level, prev) if largest else (prev, level)
        if uniform:
            low_row, low_diag, high_diag = np.zeros((3, width))
            for m in range(1, rows):
                k = min(m, width)  # columns t < m: cell [m-1-t, t] exists
                low_row += low[m - 1, :width]
                _add_anti_diagonal(low_diag, low, m - 1, k)
                _add_anti_diagonal(high_diag, high, m - 1, k)
                # j <= t: the low values at sizes m-t..m-1; j > t: the high
                # values at sizes < m-t.  Columns t >= m hold 0.0 anti-diagonal
                # sums, so they take the whole low row sum, as every j <= t
                col = level[m]
                np.subtract(low_row, low_diag, out=col)
                col += high_diag
                col /= m
        else:
            for m in range(1, rows):
                # block[j-1, t]: the value after a new component of size j
                block = blocks[:m]
                np.copyto(block, high[m - 1 :: -1, :width])
                np.copyto(block, low[m - 1 :: -1, :width], where=mask[:m])
                block *= q[1 : m + 1, None]
                # row by row: the same order at any width.  np.einsum('j,jt->t',
                # q[1:m+1], block) halved the n = 300, r = 2 builds on a 2-CPU
                # Xeon (largest 0.035 -> 0.017 s, smallest 0.067 -> 0.034 s),
                # but its sums depend on the width: the one-column n_max = 5,
                # r = 6 largest table differs between a cold build and one
                # started from the held two-column rank 5 table
                if width > 1:
                    np.sum(block, axis=0, out=level[m])
                else:  # np.sum adds one contiguous column pairwise
                    level[m] = np.cumsum(block)[-1]
                level[m] /= m
    return level, tau


# ---------------------------------------------------------------------------
# grown tables: one store, one grow rule

_TABLES: dict[tuple, tuple[int, object]] = {}


def _stored(build, args: tuple, n: int):
    """build(*args, n_max, lower), kept per (build, args) and reused while big enough.

    The protocol of every table builder, here and in ktp: a builder is a
    pure function of args, which end with the rank r, of n_max and of
    lower, None or a rank r-1 table of its own builder held at a size >=
    n_max.  It runs ranks 1..r from its rank 0 (all zero, but for the
    Stirling cycle numbers c(m, 0), whose rank is the cycle count), or
    rank r alone from lower, which it reads in place and never writes, and
    it never calls the store.  The store alone decides which table serves
    a request and when to pass the table below.

    n is the largest size a request reads.  The rank rule, applied here
    alone: an object of size m <= n has at most n components, so its r-th
    largest and r-th smallest sizes are 0 for every r > n, as is c(m, r),
    and rows 0..n of a table are the same at every rank past n + 1.  So
    the store serves rank r from the table of rank min(r, max(n, 1) + 1)
    and keeps none past it.  The floor is rank 2 at n = 0, where rank 1
    alone differs: ktp's shortest-side counts hold v_1(k, 0) = 1, the base
    case of their recursion, where every higher rank holds 0.

    Every table's thresholds are derived from its rank and n_max
    (_top_threshold), so one held size fixes the whole table.  A stored
    table held at a size below n is rebuilt at n_max = max(n, 5/4 of held),
    so requests for n = 1..N in ascending order cost O(log N) builds.  When
    the store holds the same builder's rank r-1 table at a size >= n_max,
    it passes that table as lower; otherwise lower is None.  The cells are
    the same either way, so a rank sweep r = 2, 3, 4 builds each rank
    once, and no table is kept beyond one per key.  The store holds tables
    and computes nothing, and build never calls it, so every build is one
    call whose size is known up front.
    """
    *head, r = args
    r = min(r, max(n, 1) + 1)
    key = (build, *head, r)
    held, table = _TABLES.get(key, (-1, None))  # -1: nothing held
    if n <= held:
        return table
    n = max(n, held * 5 // 4)
    lower_held, lower = _TABLES.get((build, *head, r - 1), (-1, None))
    table = build(*head, r, n, lower if lower_held >= n else None)
    _TABLES[key] = (n, table)
    return table


def _differences(row: Sequence, total, side: Side) -> list:
    """The digest's PMF times total, from cells t = 0.._top_threshold of row n.

    Largest side: cell t is total P{digest <= t}, so digest t is cell t
    less cell t-1.  Smallest side: cell t is total P{digest > t}, 0 at the
    top threshold, with the fewer-than-r-components digest 0; digest 0 is
    total less cell 0, and digest t >= 1 is cell t-1 less cell t.  total is
    n! for exact counts and 1.0 for float tables; ints stay exact.
    """
    if side is Side.LARGEST:
        return [row[0]] + [row[t] - row[t - 1] for t in range(1, len(row))]
    return [total - row[0]] + [row[t - 1] - row[t] for t in range(1, len(row))]


def _row_pmf(table: np.ndarray, n: int, r: int, side: Side, tau: float) -> np.ndarray:
    """Guarded PMF of the r-th ranked size at n, from row n of a float table[n, t].

    Row n holds tau times its probabilities: the chain's raw top level with
    its tau_n, a table of probabilities with 1.0.  On the smallest side the
    row's own cell at the top threshold, P{fewer than r components} (0.0
    in a table of tails), is subtracted from every cell.  Rounding-level
    values outside [0, 1] are clipped into it; a value further out, or a
    mass sum off 1 by more than the tolerance, raises PrecisionError.
    """
    row = table[n, : _top_threshold(n, r, side) + 1] / tau
    if side is Side.SMALLEST:
        row -= row[-1]
    probs = np.array(_differences(row.tolist(), 1.0, side))
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
    _check_rank(r, "pmf_float", n, kind, side)
    top, tau = _stored(_build_chain, (kind, side, r), n)
    probs = _row_pmf(top, n, r, side, tau[n])
    return ComponentPMF(kind, n, r, side, tuple(probs.tolist()))
