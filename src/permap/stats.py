"""Distribution container and summary statistics for ranked component sizes.

A ComponentPMF is the distribution of the size of the r-th largest (or
r-th smallest) component of a random n-object.  Index k of ``probs`` is
P{size = k}; k = 0 carries the convention that an object with fewer than
r components has r-th ranked size 0.

Normalisations follow the finite-n table conventions:

    largest side:   mean/n, variance/n^2, median/n, mode/n
    smallest side:  permutations  mean/log(n)^r,        variance/(n log(n)^(r-1))
                    mappings      mean/(sqrt(n) log(n)^(r-1)),
                                  variance/(n^(3/2) log(n)^(r-1))
                    median/n; the mode is reported raw (no table normalises it)

The median is read from ComponentPMF.cdf(): the greatest k whose CDF is
still below one half (0 if there is none) -- the floor of the point
where the cumulative distribution crosses 1/2.  The finite-n reference
medians (both sides, both kinds, transition claims included) all follow
this convention and not the usual least k with CDF >= 1/2, which lands
one node higher whenever the crossing falls strictly inside a step.  A
Fraction compares exactly with the float 0.5, so one test serves exact
and float PMFs.  The mode is read from the probabilities: the least
maximiser.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .kinds import ObjectKind, Side

Prob = Union[Fraction, float]


@dataclass(frozen=True)
class ComponentPMF:
    kind: ObjectKind
    n: int
    rank: int
    side: Side
    probs: tuple[Prob, ...]  # index k = P{ranked component size = k}
    conjectural: bool = False  # True when produced by the conjectured recursion

    def mass(self) -> Prob:
        return sum(self.probs)

    def cdf(self) -> list[Prob]:
        out, acc = [], 0
        for p in self.probs:
            acc += p
            out.append(acc)
        return out


@dataclass(frozen=True)
class SummaryStats:
    mean: Prob
    variance: Prob
    median: int
    mode: int
    normalized_mean: float
    normalized_variance: float
    normalized_median: float
    normalized_mode: float


def _per_log_power(value: float, factor: float, logn: float, power: int) -> float:
    """value / (factor * logn**power), in logarithms when logn**power is no float.

    Past rank n all the mass sits at 0 and value is 0, but logn**power
    overflows (or, at n = 2, underflows to 0) long before that matters.
    """
    if abs(power * math.log(logn)) < 700:  # logn**power lies within 1e-304..1e304
        return value / (factor * logn ** power)
    if value == 0.0:
        return 0.0
    exponent = math.log(abs(value)) - math.log(factor) - power * math.log(logn)
    return math.copysign(math.exp(exponent), value)


def summarize(pmf: ComponentPMF) -> SummaryStats:
    """Mean, variance, median, mode of a ComponentPMF, raw and normalised."""
    probs = pmf.probs
    mean = sum(k * p for k, p in enumerate(probs))
    second = sum(k * k * p for k, p in enumerate(probs))
    variance = second - mean * mean
    median = max(bisect_left(pmf.cdf(), 0.5) - 1, 0)
    mode = probs.index(max(probs))

    n, r = pmf.n, pmf.rank
    logn = math.log(n)
    if pmf.side is Side.LARGEST:
        norm_mean = float(mean) / n
        norm_var = float(variance) / n**2
        norm_median = median / n
        norm_mode = mode / n
    else:
        if logn == 0.0:
            norm_mean = norm_var = math.nan  # n = 1: no meaningful scale
        elif pmf.kind is ObjectKind.PERMUTATION:
            norm_mean = _per_log_power(float(mean), 1, logn, r)
            norm_var = _per_log_power(float(variance), n, logn, r - 1)
        else:
            norm_mean = _per_log_power(float(mean), math.sqrt(n), logn, r - 1)
            norm_var = _per_log_power(float(variance), n ** 1.5, logn, r - 1)
        norm_median = median / n
        norm_mode = float(mode)
    return SummaryStats(mean, variance, median, mode,
                        norm_mean, norm_var, norm_median, norm_mode)
