"""Combinatorial object kinds and their component counting sequences.

Both structures decompose into connected components on labelled nodes:
a permutation of [n] splits into cycles, a mapping (arbitrary function
from [n] to [n], viewed as a functional graph) splits into connected
components.  Everything downstream only needs two integer sequences per
kind: the number c_n of connected objects on n labelled nodes and the
total number t_n of objects on n labelled nodes.

    permutations:  c_n = (n-1)!            t_n = n!
    mappings:      c_n = sum_{j=1}^{n} (n-1)!/(n-j)! * n^(n-j)
                   t_n = n^n

The mapping sum is the all-integer rearrangement of the classical
n! * sum_j n^(n-j-1)/(n-j)! (the j = n term of the classical form is
fractional; multiplying through by n/n makes every term an integer).
First values: 1, 3, 17, 142, 1569.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache


class ObjectKind(Enum):
    PERMUTATION = "permutation"
    MAPPING = "mapping"


class Side(Enum):
    """Which end of the sorted component-size list a rank counts from."""

    LARGEST = "largest"
    SMALLEST = "smallest"


@lru_cache(maxsize=None)
def connected_count(kind: ObjectKind, n: int) -> int:
    """Number of connected objects of the given kind on n labelled nodes.

    n must be >= 1: there is no empty connected object.
    """
    if n < 1:
        raise ValueError(f"connected_count requires n >= 1, got {n}")
    if kind is ObjectKind.PERMUTATION:
        return math.factorial(n - 1)
    # Horner in n: term j is a_i * n^i with i = n - j and a_i = (n-1)!/i!
    acc, a_i = 0, 1
    for i in range(n - 1, -1, -1):
        acc = acc * n + a_i
        a_i *= i
    return acc


@lru_cache(maxsize=None)
def total_count(kind: ObjectKind, n: int) -> int:
    """Total number of objects of the given kind on n labelled nodes (t_0 = 1)."""
    if n < 0:
        raise ValueError(f"total_count requires n >= 0, got {n}")
    if kind is ObjectKind.PERMUTATION:
        return math.factorial(n)
    return n**n if n > 0 else 1  # 0^0 = 1: the empty mapping


@lru_cache(maxsize=None)
def first_component_split(kind: ObjectKind, n: int) -> tuple[float, ...]:
    """Probabilities that the component containing the lowest label has size j.

    Entry j-1 of the returned tuple is
        P_n(j) = c_j * C(n-1, j-1) * t_{n-j} / t_n,   j = 1..n,
    the exact ratio rounded once to float.  These sum to 1: conditioning on
    the component of the lowest label decomposes every object uniquely.
    For permutations P_n(j) = 1/n for every j.
    """
    if n < 1:
        raise ValueError(f"first_component_split requires n >= 1, got {n}")
    if kind is ObjectKind.PERMUTATION:
        return tuple([1.0 / n] * n)
    den = total_count(kind, n)
    probs = []
    binom = 1  # C(n-1, j-1), advanced one j at a time
    for j in range(1, n + 1):
        num = connected_count(kind, j) * binom * total_count(kind, n - j)
        # float(Fraction) would gcd-reduce huge integers; shift-divide instead
        probs.append(math.ldexp((num << 64) // den, -64))
        binom = binom * (n - j) // j
    return tuple(probs)


def first_component_split_exact(kind: ObjectKind, n: int) -> tuple[Fraction, ...]:
    """Exact-rational version of first_component_split, for validation."""
    if n < 1:
        raise ValueError(f"first_component_split_exact requires n >= 1, got {n}")
    den = total_count(kind, n)
    return tuple(
        Fraction(connected_count(kind, j) * math.comb(n - 1, j - 1) * total_count(kind, n - j), den)
        for j in range(1, n + 1)
    )
