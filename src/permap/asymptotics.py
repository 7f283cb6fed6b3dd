"""Limit laws for scaled extreme component sizes.

Everything here lives at n = infinity: the exponential integral kernel
E(x), the generalised Dickman functions rho_r solving the delay equation

    x rho_r'(x) + rho_r(x-1) = rho_{r-1}(x-1),    rho_r = 1 on [0, 1],

with rho_0 = 0, the densities of the scaled longest and second-longest
cycle, their medians xi_r and mode x0, and the moment constants that the
finite-n normalised statistics converge to.

rho_r(1/x) is the limiting CDF of the r-th longest cycle length divided
by n.  The delay structure makes the equation integrable interval by
interval: on [m, m+1] the right side only involves values on [m-1, m],
already known, so each unit interval is a single Chebyshev quadrature of
a smooth function.  No stepping error accumulates beyond the interpolant
truncation, which at degree 32 sits far below the 1e-10 target.

Moment constants are adaptive Gauss-Kronrod quadratures of kernels built
from E(x); the x = t*t substitution removes the algebraic part of the
endpoint singularity at 0.  Closed forms exist only for the smallest-side
h = a case, e^{-h gamma} a^{r-1} / r!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np
from numpy.polynomial import chebyshev
from numpy.polynomial.chebyshev import Chebyshev
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import exp1

from .exact import PrecisionError
from .kinds import Side

_EULER_GAMMA = float(np.euler_gamma)
_X_MAX = 40  # xi_4 needs rho_4 at 1/xi_4 ~ 36.9
_DEGREE = 32
_QUAD_TOL = 1e-11
_RHO_TOL = 1e-10  # the Dickman tables' documented absolute accuracy


# ---------------------------------------------------------------------------
# exponential integral

def exp_integral(x: float) -> float:
    """E(x) = integral of e^(-t)/t from x to infinity, for x > 0 (scipy's exp1)."""
    x = float(x)
    if x <= 0.0 or math.isnan(x):
        raise ValueError("exp_integral requires x > 0")
    return float(exp1(x))


# ---------------------------------------------------------------------------
# Dickman functions

@dataclass(frozen=True)
class DickmanTable:
    """Piecewise-Chebyshev representation of rho_r on [0, x_max]."""
    r: int
    x_max: float
    pieces: tuple[Chebyshev, ...]  # pieces[m] covers [m, m+1]

    def value(self, x: float) -> float:
        """rho_r(x); raises PrecisionError if a piece leaves [0, 1] beyond _RHO_TOL."""
        if x < 0.0 or x > self.x_max:
            raise ValueError(f"x={x} outside table range [0, {self.x_max}]")
        m = min(int(x), len(self.pieces) - 1)
        val = float(self.pieces[m](x))
        if not -_RHO_TOL <= val <= 1.0 + _RHO_TOL:
            raise PrecisionError(f"rho_{self.r}({x}) = {val!r} lies outside [0, 1]")
        # clamp: far past the mass the polynomial tail dips ~1e-17 below 0
        return min(1.0, max(0.0, val))


def _build_table(r: int, x_max: int) -> DickmanTable:
    lower = _table(r - 1) if r > 1 else None
    pieces: list[Chebyshev] = [Chebyshev([1.0], domain=[0.0, 1.0])]
    for m in range(1, x_max):
        dom = [float(m), float(m + 1)]
        own_prev = pieces[m - 1]
        low_prev = lower.pieces[m - 1] if lower is not None else None

        def integrand(u: np.ndarray) -> np.ndarray:
            t = 0.5 * ((dom[1] - dom[0]) * u + dom[0] + dom[1])
            val = own_prev(t - 1.0)
            if low_prev is not None:
                val = val - low_prev(t - 1.0)
            return val / t

        hpoly = Chebyshev(chebyshev.chebinterpolate(integrand, _DEGREE), domain=dom)
        start = Chebyshev([float(own_prev(float(m)))], domain=dom)
        pieces.append(start - hpoly.integ(lbnd=float(m)))
    return DickmanTable(r=r, x_max=float(x_max), pieces=tuple(pieces))


@cache
def _table(r: int) -> DickmanTable:
    if r < 1 or r > 4:
        raise ValueError("order must be in 1..4")
    return _build_table(r, _X_MAX)


def dickman(r: int, x: float) -> float:
    """rho_r(x) for 1 <= r <= 4 and 0 <= x <= 40, absolute error <= 1e-10."""
    if x < 0.0:
        raise ValueError("dickman requires x >= 0")
    return _table(r).value(float(x))


def _rho_tail(r: int, x: float) -> float:
    # lenient variant for density formulas: beyond the table rho_r is far
    # below double precision (rho_1(40) ~ 1e-60), so 0 is exact enough
    if x >= _X_MAX:
        return 0.0
    return _table(r).value(x)


def largest_cdf(r: int, x: float) -> float:
    """Limiting P{(r-th longest cycle) < x*n} = rho_r(1/x), for 0 < x <= 1."""
    if not 0.0 < x <= 1.0:
        raise ValueError("largest_cdf requires 0 < x <= 1")
    return dickman(r, 1.0 / x)


# ---------------------------------------------------------------------------
# densities of the scaled longest and second-longest cycle

def density_f(x: float) -> float:
    """Density of (longest cycle)/n on (0, 1): rho_1(1/x - 1)/x."""
    if not 0.0 < x < 1.0:
        raise ValueError("density_f is defined on the open interval (0, 1)")
    return _rho_tail(1, 1.0 / x - 1.0) / x


def density_g(x: float) -> float:
    """Density of (second-longest cycle)/n on (0, 1/2)."""
    if not 0.0 < x < 0.5:
        raise ValueError("density_g is defined on the open interval (0, 1/2)")
    y = 1.0 / x - 1.0
    return (_rho_tail(2, y) - _rho_tail(1, y)) / x


def _g_slope(x: float) -> float:
    # d/dx of density_g, after cancelling the delay equation terms
    y = 1.0 / x
    lead = (_rho_tail(1, y - 1.0) - _rho_tail(2, y - 1.0)) / (x * x)
    trail = (2.0 * _rho_tail(1, y - 2.0) - _rho_tail(2, y - 2.0)) / (x * x * (1.0 - x))
    return lead - trail


def mode_x0() -> float:
    """Location of the unique maximum of density_g on (0, 1/2)."""
    return float(brentq(_g_slope, 0.1, 0.5, xtol=1e-12, rtol=8.9e-16))


def median_xi(r: int) -> float:
    """Limiting scaled median of the r-th longest cycle: rho_r(1/xi) = 1/2."""
    table = _table(r)
    lo, hi = float(max(r, 1)), table.x_max - 1e-9
    root = brentq(lambda y: table.value(y) - 0.5, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return 1.0 / float(root)


# ---------------------------------------------------------------------------
# moment constants

@dataclass(frozen=True)
class MomentConstant:
    a: Fraction         # exp-log parameter: 1 permutations, 1/2 mappings
    r: int
    h: int
    side: Side
    value: float
    corrected: bool     # sqrt(2) mapping factor applied
    error: float        # achieved quadrature bound (0 for closed forms)


_MOMENTS: dict[tuple, MomentConstant] = {}


def _quad_pair(f) -> tuple[float, float]:
    """Integrate f over (0, inf): t*t substitution on (0,1), direct beyond."""
    head = quad(lambda t: 2.0 * t * f(t * t), 0.0, 1.0,
                epsabs=1e-13, epsrel=1e-13, limit=400, full_output=1)
    tail = quad(f, 1.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400,
                full_output=1)
    value = head[0] + tail[0]
    err = head[1] + tail[1]
    if err > _QUAD_TOL:
        raise PrecisionError(f"quadrature achieved only {err:.2e} absolute error")
    return value, err


def _check_params(a, r: int, h: int) -> Fraction:
    a = Fraction(a)
    if a not in (Fraction(1), Fraction(1, 2)):
        raise ValueError("exp-log parameter must be 1 or 1/2")
    if not 2 <= r <= 4:
        raise ValueError("rank must be in 2..4")
    if h not in (1, 2):
        raise ValueError("moment height must be 1 or 2")
    return a


def moment_L(a, r: int, h: int) -> MomentConstant:
    """Limit constant of the normalised h-th moment, r-th largest component."""
    a = _check_params(a, r, h)
    key = (Side.LARGEST, a, r, h)
    if key not in _MOMENTS:
        af = float(a)

        def f(x: float) -> float:
            e = exp_integral(x)
            return x ** (h - 1) * e ** (r - 1) * math.exp(-af * e - x)

        front = math.gamma(af + 1.0) * af ** (r - 1) / (
            math.gamma(af + h) * math.factorial(r - 1))
        val, err = _quad_pair(f)
        _MOMENTS[key] = MomentConstant(a, r, h, Side.LARGEST, front * val,
                                       corrected=False, error=front * err)
    return _MOMENTS[key]


def moment_S(a, r: int, h: int, corrected: bool = False) -> MomentConstant:
    """Limit constant of the normalised h-th moment, r-th smallest component.

    h = a has the closed form e^{-h gamma} a^{r-1} / r!; h > a integrates
    x^{h-1} exp[a E(x) - x].  corrected=True applies the sqrt(2) factor that
    the mapping (a = 1/2) statistics empirically need.
    """
    a = _check_params(a, r, h)
    if Fraction(h) < a:
        raise ValueError("moment height below the exp-log parameter diverges")
    if corrected and a != Fraction(1, 2):
        raise ValueError("the sqrt(2) correction applies to mappings (a = 1/2) only")
    key = (Side.SMALLEST, a, r, h, corrected)
    if key not in _MOMENTS:
        af = float(a)
        if Fraction(h) == a:
            val = math.exp(-h * _EULER_GAMMA) * af ** (r - 1) / math.factorial(r)
            err = 0.0
        else:
            def f(x: float) -> float:
                return x ** (h - 1) * math.exp(af * exp_integral(x) - x)

            front = math.gamma(af + 1.0) / (
                math.factorial(h - 1) * math.factorial(r - 1))
            val, err = _quad_pair(f)
            val, err = front * val, front * err
        if corrected:
            val, err = math.sqrt(2.0) * val, math.sqrt(2.0) * err
        _MOMENTS[key] = MomentConstant(a, r, h, Side.SMALLEST, val, corrected, err)
    return _MOMENTS[key]


def constants_catalog() -> list[tuple[str, float, float]]:
    """Every limit constant as (name, value, achieved error), display order."""
    out: list[tuple[str, float, float]] = []
    for label, a in (("1", 1), ("1/2", Fraction(1, 2))):
        for r in (2, 3, 4):
            first = moment_L(a, r, 1)
            second = moment_L(a, r, 2)
            out.append((f"LG_{label}({r},1)", first.value, first.error))
            out.append((f"LG_{label}({r},2)-LG_{label}({r},1)^2",
                        second.value - first.value**2,
                        second.error + 2 * abs(first.value) * first.error))
    for r in (2, 3, 4):
        closed = moment_S(1, r, 1)
        out.append((f"exp(-gamma)/{math.factorial(r)}", closed.value, closed.error))
        grown = moment_S(1, r, 2)
        out.append((f"SG_1({r},2)", grown.value, grown.error))
    for r in (2, 3, 4):
        for h in (1, 2):
            fixed = moment_S(Fraction(1, 2), r, h, corrected=True)
            out.append((f"sqrt2*SG_1/2({r},{h})", fixed.value, fixed.error))
    for r in (1, 2, 3, 4):
        out.append((f"xi_{r}", median_xi(r), 1e-11))
    out.append(("x_0", mode_x0(), 1e-11))
    return out
