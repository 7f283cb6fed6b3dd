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
from numpy.polynomial import polyutils as pu
from numpy.polynomial.chebyshev import Chebyshev
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import exp1

from .exact import PrecisionError
from .kinds import Side, real, whole

_EULER_GAMMA = float(np.euler_gamma)
_X_MAX = 40  # xi_4 needs rho_4 at 1/xi_4 ~ 36.9
_DEGREE = 32
_QUAD_TOL = 1e-11
_RHO_TOL = 1e-10  # the Dickman tables' documented absolute accuracy


# ---------------------------------------------------------------------------
# exponential integral

def exp_integral(x: float) -> float:
    """E(x) = integral of e^(-t)/t from x to infinity, for x > 0 (scipy's exp1)."""
    x = real(x, "exp_integral: x")
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
        if not 0.0 <= x <= self.x_max:  # NaN included
            raise ValueError(f"x={x} outside table range [0, {self.x_max}]")
        m = min(int(x), len(self.pieces) - 1)
        val = float(self.pieces[m](x))
        if not -_RHO_TOL <= val <= 1.0 + _RHO_TOL:
            raise PrecisionError(f"rho_{self.r}({x}) = {val!r} lies outside [0, 1]")
        # clamp: far past the mass the polynomial tail dips ~1e-17 below 0
        return min(1.0, max(0.0, val))


def _build_table(r: int) -> DickmanTable:
    """rho_r on [0, _X_MAX], one piece per unit interval, each from the one before.

    On [m, m+1], rho_r(x) = rho_r(m) - integral from m to x of
    (rho_r(t-1) - rho_{r-1}(t-1))/t dt: the integrand is interpolated at
    the degree + 1 Chebyshev points of the first kind (chebinterpolate's
    nodes, Vandermonde matrix and scaling), integrated from m and
    subtracted from rho_r(m).  The steps run on coefficient arrays and
    map x to each piece's window by mapparms, as the Chebyshev class
    does, with the same bits; only the finished pieces are wrapped.  The
    previous piece is evaluated once, at the nodes and at x = m.
    """
    lower = _table(r - 1).pieces if r > 1 else None
    window = Chebyshev.window
    nodes = chebyshev.chebpts1(_DEGREE + 1)
    vander = chebyshev.chebvander(nodes, _DEGREE)
    coefs = [np.array([1.0])]  # rho_r = 1 on [0, 1]
    for m in range(1, _X_MAX):
        lo, hi = float(m), float(m + 1)
        t = 0.5 * ((hi - lo) * nodes + lo + hi)
        # t - 1 and m in the window of the previous pieces, which cover [m-1, m]
        at = pu.mapdomain(np.append(t - 1.0, lo), (lo - 1.0, lo), window)
        own = chebyshev.chebval(at, coefs[-1])
        val = own[:-1]
        if lower is not None:
            val = val - chebyshev.chebval(at[:-1], lower[m - 1].coef)
        c = np.dot(vander.T, val / t)
        c[0] /= _DEGREE + 1
        c[1:] /= 0.5 * (_DEGREE + 1)
        off, scl = pu.mapparms((lo, hi), window)
        integral = chebyshev.chebint(c, lbnd=off + scl * lo, scl=1.0 / scl)
        coefs.append(chebyshev.chebsub(own[-1:], integral))
    pieces = tuple(Chebyshev(c, domain=(float(m), float(m + 1))) for m, c in enumerate(coefs))
    return DickmanTable(r=r, x_max=float(_X_MAX), pieces=pieces)


@cache
def _table(r: int) -> DickmanTable:
    return _build_table(r)


def dickman(r: int, x: float) -> float:
    """rho_r(x) for 1 <= r <= 4 and 0 <= x <= 40, absolute error <= 1e-10."""
    r, x = whole(r, 1, "dickman: order r", 4), real(x, "dickman: x")
    return _table(r).value(x)


def _rho_tail(r: int, x: float) -> float:
    # lenient variant for density formulas: beyond the table rho_1 is far
    # below double precision (rho_1(40) ~ 1e-60), so 0 is exact enough; rho_2
    # is not (rho_2(40) = 0.0457), and density_g refuses the x that reach it
    if x >= _X_MAX:
        return 0.0
    return _table(r).value(x)


def largest_cdf(r: int, x: float) -> float:
    """Limiting P{(r-th longest cycle) < x*n} = rho_r(1/x), for 1/40 <= x <= 1.

    1/x must lie in the Dickman tables' range [0, 40].
    """
    r, x = whole(r, 1, "largest_cdf: order r", 4), real(x, "largest_cdf: x")
    if not (0.0 < x <= 1.0 and 1.0 / x <= _X_MAX):  # NaN included
        raise ValueError(f"largest_cdf requires 1/{_X_MAX} <= x <= 1, got x={x!r}")
    return dickman(r, 1.0 / x)


# ---------------------------------------------------------------------------
# densities of the scaled longest and second-longest cycle

def density_f(x: float) -> float:
    """Density of (longest cycle)/n on (0, 1): rho_1(1/x - 1)/x."""
    x = real(x, "density_f: x")
    if not 0.0 < x < 1.0:
        raise ValueError("density_f is defined on the open interval (0, 1)")
    return _rho_tail(1, 1.0 / x - 1.0) / x


def density_g(x: float) -> float:
    """Density of (second-longest cycle)/n, for 1/41 < x < 1/2.

    It reads rho_2 at 1/x - 1, and the rho_2 table ends at 40; past it
    rho_2 is far from 0 (rho_2(40) = 0.0457).
    """
    x = real(x, "density_g: x")
    if not (0.0 < x < 0.5 and 1.0 / x - 1.0 < _X_MAX):  # NaN included
        raise ValueError(f"density_g is defined on (1/{_X_MAX + 1}, 1/2), got x={x!r}")
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
    r = whole(r, 1, "median_xi: order r", 4)
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


def _check_params(a, r: int, h: int, what: str) -> tuple[Fraction, int, int]:
    """a as a Fraction, 1 or 1/2 (never a bool or a string), and r in 2..4, h in 1..2 as ints."""
    if isinstance(a, bool) or a not in (1, Fraction(1, 2)):
        raise ValueError(f"{what}: exp-log parameter a must be 1 or 1/2, got {a!r}")
    a = Fraction(1) if a == 1 else Fraction(1, 2)  # Fraction(a) refuses numpy float32
    return a, whole(r, 2, f"{what}: rank r", 4), whole(h, 1, f"{what}: height h", 2)


def moment_L(a, r: int, h: int) -> MomentConstant:
    """Limit constant of the normalised h-th moment, r-th largest component."""
    return _moment_L(*_check_params(a, r, h, "moment_L"))


@cache
def _moment_L(a: Fraction, r: int, h: int) -> MomentConstant:
    af = float(a)

    def f(x: float) -> float:
        e = exp_integral(x)
        return x ** (h - 1) * e ** (r - 1) * math.exp(-af * e - x)

    front = math.gamma(af + 1.0) * af ** (r - 1) / (math.gamma(af + h) * math.factorial(r - 1))
    val, err = _quad_pair(f)
    return MomentConstant(a, r, h, Side.LARGEST, front * val, corrected=False, error=front * err)


def moment_S(a, r: int, h: int, corrected: bool = False) -> MomentConstant:
    """Limit constant of the normalised h-th moment, r-th smallest component.

    h = a has the closed form e^{-h gamma} a^{r-1} / r!; h > a integrates
    x^{h-1} exp[a E(x) - x].  corrected=True applies the sqrt(2) factor of
    the mapping (a = 1/2) statistics, derived: the numbers of components
    of sizes j <= m tend to independent Poisson variables of means q_j/j
    (q from kinds.exp_log_weights), and the tail P{r-th smallest > m}
    carries the factor e^{-sum_{j<=m} q_j/j}.  The integral takes that sum
    as a(ln m + gamma) + o(1), as for permutations.  The mapping EGF
    1/(1 - T(z)) behaves like (2(1 - ez))^{-1/2}, so for mappings the sum
    less (ln m + gamma)/2 tends to -(ln 2)/2, and e^{(ln 2)/2} = sqrt(2).
    """
    a, r, h = _check_params(a, r, h, "moment_S")
    if not isinstance(corrected, bool):  # 1 == True would share, and set, its cache entry
        raise ValueError(f"moment_S: corrected must be a bool, got {corrected!r}")
    if corrected and a != Fraction(1, 2):
        raise ValueError("the sqrt(2) correction applies to mappings (a = 1/2) only")
    return _moment_S(a, r, h, corrected)


@cache
def _moment_S(a: Fraction, r: int, h: int, corrected: bool) -> MomentConstant:
    af = float(a)
    if Fraction(h) == a:
        val = math.exp(-h * _EULER_GAMMA) * af ** (r - 1) / math.factorial(r)
        err = 0.0
    else:
        def f(x: float) -> float:
            return x ** (h - 1) * math.exp(af * exp_integral(x) - x)

        front = math.gamma(af + 1.0) / (math.factorial(h - 1) * math.factorial(r - 1))
        val, err = _quad_pair(f)
        val, err = front * val, front * err
    if corrected:
        val, err = math.sqrt(2.0) * val, math.sqrt(2.0) * err
    return MomentConstant(a, r, h, Side.SMALLEST, val, corrected, err)


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
