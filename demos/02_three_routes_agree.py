"""Three independent computation routes produce identical integers.

1. rank-window polynomials: build the object one component at a time,
   keeping a window of the r largest (or smallest) sizes so far; each new
   size is inserted and the entry it displaces dropped, and every state is
   made canonical, dropping the entries that can no longer move, so that
   ranks share memo rows;
2. cumulative cycle-count recursions (Knuth/Trabb Pardo style): count
   permutations whose r-th longest cycle is <= k (proved) or whose r-th
   shortest is >= k (with a correction term at every rank; flagged
   conjectural for r >= 2);
3. brute force: decompose every single object.

The first two run on exact big integers, so agreement is exact equality,
not a tolerance.  Along the way the correction term of route 2 reveals a
classical surprise.  Its defining recursion telescopes to
Delta_r(k, n) = (n-1)! e_{r-1}(1, 1/2, ..., 1/(n-k)), and since
c(m+1, r) = m! e_{r-1}(1, ..., 1/m) that is an unsigned Stirling cycle
number scaled by a falling factorial, Delta_r(k, n) = (n-1)!/(n-k)! c(n-k+1, r);
at k = 1, Delta_r(1, n) = c(n, r).  The package computes Delta from that
Stirling form; the demo checks it against the harmonic form, with e_q
built in exact fractions from harmonic power sums by Newton's identities,
a route of its own: the package's float tables build e_q by the one-value
recurrence e_q(m) = e_q(m-1) + e_{q-1}(m-1)/m instead.
"""

import math
from fractions import Fraction

from permap import (
    ObjectKind,
    Side,
    delta,
    enumerate_pmf,
    pmf,
    pmf_from_tables,
)

P = ObjectKind.PERMUTATION

print("route agreement for permutations, r-th longest and shortest cycle:")
for n in (6, 9, 12):
    for r in (1, 2, 3):
        for side in (Side.LARGEST, Side.SMALLEST):
            a = pmf(P, n, r, side).probs
            b = pmf_from_tables(r, n, side).probs
            rows = [a == b]
            tag = "window == cumulative"
            if n <= 7:
                c = enumerate_pmf(P, n, r, side).probs
                rows.append(a == c)
                tag += " == brute force"
            status = "OK" if all(rows) else "MISMATCH"
            print(f"  n={n:2d} r={r} {side.value:9s} {tag}: {status}")
print()



def harmonic(m, power):
    """sum_{i=1}^{m} 1/i^power, exact."""
    return sum((Fraction(1, i**power) for i in range(1, m + 1)), Fraction(0))


def elementary(q, m):
    """e_q(1, 1/2, ..., 1/m) from the power sums harmonic(m, i), by Newton's identities."""
    e = [Fraction(1)]
    for j in range(1, q + 1):
        e.append(sum((-1) ** (i - 1) * e[j - i] * harmonic(m, i) for i in range(1, j + 1)) / j)
    return e[q]


print("the scaled Stirling cycle numbers are the harmonic form at every k:")
print(f"  {'r':>2s} {'k':>3s} {'n':>3s} {'Delta_r(k,n)':>20s} {'(n-1)! e_{r-1}(1..1/(n-k))':>28s}")
for r, k, n in ((2, 1, 8), (2, 3, 8), (3, 1, 12), (3, 5, 12), (4, 1, 16), (4, 7, 16)):
    d = delta(r, k, n)
    form = math.factorial(n - 1) * elementary(r - 1, n - k)
    assert d == form
    print(f"  {r:2d} {k:3d} {n:3d} {d:20d} {int(form):28d}")
print()
print("(delta from Stirling cycle numbers, the other column from harmonic sums;")
print(" equality is exact.)")
