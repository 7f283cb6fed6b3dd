"""A distribution whose most likely value jumps at n = 434.

For random mappings, the second-smallest component size K has a probability
mass function pi_2(k, n) whose leading entries race each other as n grows:
k = 0 (fewer than two components) dominates for small n, but loses to k = 2
between n = 433 and n = 434.  The median makes a related move from 18 to 19
between n = 443 and n = 444.  Both effects live far beyond brute force, and
exact big-integer arithmetic there is expensive, so this demo uses the
production engine, pmf_float: the float64 projection of the rank-window
recursion onto thresholds.  Every PMF it returns has passed its guard,
which raises PrecisionError if the mass sum is off 1 by more than 1e-9,
and the tests check it against the exact engine to 1e-12 for n <= 25.
No check measures its error at these sizes.
"""

from permap import ObjectKind, Side, pmf_float, summarize

M, S = ObjectKind.MAPPING, Side.SMALLEST

print("pi_2(k, n) = P(second-smallest component size = k), mappings:")
header = "  ".join(f"{f'k={k}':>11s}" for k in range(5))
print(f"  {'n':>4s} {header}   argmax")
for n in range(432, 436):
    dist = pmf_float(M, n, 2, S)
    head = dist.probs[:5]
    row = "  ".join(f"{p:11.7f}" for p in head)
    mode = summarize(dist).mode
    print(f"  {n:4d} {row}   k={mode}")
print()

print("and the median's move just after n = 443:")
for n in (443, 444):
    stats = summarize(pmf_float(M, n, 2, S))
    print(f"  n={n}: median = {stats.median}")
print()
print("(the median touches 19 at n = 444 and keeps growing slowly with n;")
print("by n = 600 it reaches 20.)")
