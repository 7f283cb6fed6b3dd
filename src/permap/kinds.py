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

Both are exp-log classes of type a = 1 (permutations) or 1/2 (mappings).
With q_j = c_j e^-j/(j-1)!, which tends to a, and tau_m = t_m e^-m/m!, the
lowest label's component has size j with probability q_j tau_{m-j}/(m tau_m).
Permutations have q = tau = 1; mappings q_j = P{Poisson(j) < j} and
tau_m = m^m e^-m/m!.

Every route imports this module, so it is also the one home of the
argument rule that every public entry point applies: whole for integer
arguments, real for real ones and member for a kind or a side, each
checked alone.
"""

from __future__ import annotations

import math
import numbers
import operator
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.special import gammaincc


class ObjectKind(Enum):
    PERMUTATION = "permutation"
    MAPPING = "mapping"


class Side(Enum):
    """Which end of the sorted component-size list a rank counts from."""

    LARGEST = "largest"
    SMALLEST = "smallest"


def whole(value, low: int, what: str, high: int | None = None) -> int:
    """value as an int in low..high (no upper bound if high is None), numpy ints included.

    The one argument rule of every public route, applied before any store,
    memo or cache is touched: a bool, a non-integer or a value out of range
    is refused with a ValueError whose message names what.  True == 1
    would be served, and cached, as 1 (numpy reads table[True] as a mask),
    and a float would fail deep inside a builder.
    """
    try:
        got = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        got = None
    if got is None or got < low or (high is not None and got > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{what} must be an int {span}, got {value!r}")
    return got


def real(value, what: str) -> float:
    """value as a float: a numbers.Real that is not a bool, Fractions and numpy floats included.

    float() would parse a string and serve a bool as 1.0, and None or a
    complex would fail with a TypeError that names nothing; each is refused
    with a ValueError whose message names what.  NaN passes, to be refused
    by the caller's own range check.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def member(value, enum: type[Enum], what: str):
    """value if it is a member of enum, such as a kind or a side.

    Every branch tests a kind or a side with `is`, so anything else is
    refused with a ValueError that names what: a string, None or the other
    enum would be served as one of the members, and stored under a key of
    its own.
    """
    if not isinstance(value, enum):
        raise ValueError(f"{what} must be a member of {enum.__name__}, got {value!r}")
    return value


# typed: a bool or a float equal to a cached int (True == 1.0 == 1) would be
# served that int's count without reaching the check
@lru_cache(maxsize=None, typed=True)
def connected_count(kind: ObjectKind, n: int) -> int:
    """Number of connected objects of the given kind on n labelled nodes.

    n must be >= 1: there is no empty connected object.
    """
    n = whole(n, 1, "connected_count: size n")  # numpy ints overflow here
    if member(kind, ObjectKind, "connected_count: kind") is ObjectKind.PERMUTATION:
        return math.factorial(n - 1)
    # Horner in n: term j is a_i * n^i with i = n - j and a_i = (n-1)!/i!
    acc, a_i = 0, 1
    for i in range(n - 1, -1, -1):
        acc = acc * n + a_i
        a_i *= i
    return acc


@lru_cache(maxsize=None, typed=True)  # as connected_count
def total_count(kind: ObjectKind, n: int) -> int:
    """Total number of objects of the given kind on n labelled nodes (t_0 = 1)."""
    n = whole(n, 0, "total_count: size n")
    if member(kind, ObjectKind, "total_count: kind") is ObjectKind.PERMUTATION:
        return math.factorial(n)
    return n**n if n > 0 else 1  # 0^0 = 1: the empty mapping


def exp_log_weights(kind: ObjectKind, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays q[0..m_max] (q[0] = 0) and tau[0..m_max], as described above.

    tau[m] is the product of the ratios tau[i]/tau[i-1], each
    exp((i-1) log1p(1/(i-1)) - 1); exp(log tau[m]) would lose digits.
    """
    m_max = whole(m_max, 0, "exp_log_weights: size m_max")
    q, tau = np.ones(m_max + 1), np.ones(m_max + 1)
    q[0] = 0.0
    if member(kind, ObjectKind, "exp_log_weights: kind") is ObjectKind.MAPPING:
        j = np.arange(1, m_max + 1, dtype=np.float64)
        q[1:] = gammaincc(j, j)
        p = j - 1  # m - 1 for m = 1..m_max; the ratio at m = 1 is 1/e
        tau[1:] = np.cumprod(np.exp(p * np.log1p(1 / np.maximum(p, 1)) - 1))
    return q, tau
