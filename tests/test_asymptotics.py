"""Limit machinery: exponential integral, Dickman family, modes, moments.

Derived expectations are checked against independent high-precision
oracles: mpmath quadrature of the defining integral equations, and two
classical identities (the integral of the first-order function equals
e^gamma; one minus the integral of rho_r(u)/u^2 over u >= 1 equals the
limiting mean of the scaled r-th longest cycle).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import chebyshev
from numpy.polynomial.chebyshev import Chebyshev

from permap import asymptotics
from permap.asymptotics import (
    DickmanTable,
    constants_catalog,
    density_f,
    density_g,
    dickman,
    exp_integral,
    largest_cdf,
    median_xi,
    mode_x0,
    moment_L,
    moment_S,
)
from permap.exact import PrecisionError
from permap.kinds import ObjectKind, connected_count, exp_log_weights

from reference_tables import (
    LARGEST_MOMENTS,
    MEDIANS_AND_MODE,
    SMALLEST_CLOSED_FORMS,
    SMALLEST_CORRECTED,
    SMALLEST_SECOND_MOMENTS,
)


def gauss_unit_intervals(fn, a: int, b: int, nodes: int = 60) -> float:
    """Gauss-Legendre integration per unit interval (integrand smooth there)."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for m in range(a, b):
        mid = m + 0.5
        total += 0.5 * float(sum(w * fn(mid + 0.5 * x) for x, w in zip(xs, ws)))
    return total


# ---------------------------------------------------------------------------
# exponential integral


def test_exp_integral_unit_value() -> None:
    assert exp_integral(1.0) == pytest.approx(0.21938393439552027368, abs=1e-15)


def test_exp_integral_against_reference() -> None:
    # mpmath, not scipy: exp_integral is scipy's exp1
    for x in np.geomspace(1e-12, 700, 250):
        with mp.workdps(30):
            want = float(mp.e1(float(x)))
        got = exp_integral(float(x))
        # a 1e-15 absolute bound is below one ulp once E(x) exceeds ~4.5,
        # so grade the bound by the representable precision at that value
        tol = max(1e-15, 4 * math.ulp(max(abs(want), 1e-300)))
        assert abs(got - want) <= tol, (x, got, want)


def test_exp_integral_bracketed_by_classical_bounds() -> None:
    # e^-x/(x+1) < E(x) < e^-x/x for x > 0
    for x in (0.5, 1.0, 2.0, 10.0, 50.0, 300.0):
        value = exp_integral(x)
        assert math.exp(-x) / (x + 1) < value < math.exp(-x) / x


def test_exp_integral_rejects_nonpositive() -> None:
    for x in (0.0, -1.0):
        with pytest.raises(ValueError):
            exp_integral(x)


# ---------------------------------------------------------------------------
# Dickman family: closed forms and mpmath oracles


def mp_rho1(u: float) -> mp.mpf:
    if u <= 1:
        return mp.mpf(1)
    if u <= 2:
        return 1 - mp.log(u)
    return (1 - mp.log(2)) - mp.quad(lambda t: (1 - mp.log(t - 1)) / t, [2, u])


@lru_cache(maxsize=None)
def mp_rho2_at3() -> mp.mpf:
    return 1 - mp.quad(lambda t: mp.log(t - 1) / t, [2, 3])


def mp_rho2(u: float) -> mp.mpf:
    if u <= 2:
        return mp.mpf(1)
    if u <= 3:
        return 1 - mp.quad(lambda t: mp.log(t - 1) / t, [2, u])
    return mp_rho2_at3() - mp.quad(lambda t: (mp_rho2(t - 1) - mp_rho1(t - 1)) / t, [3, u])


def test_dickman_is_one_below_its_order() -> None:
    for r in (1, 2, 3, 4):
        for x in np.linspace(0.0, float(r), 17):
            assert dickman(r, float(x)) == pytest.approx(1.0, abs=1e-14)


def test_dickman_first_order_closed_forms() -> None:
    assert dickman(1, 2.0) == pytest.approx(1 - math.log(2), abs=1e-13)
    assert dickman(1, 1.5) == pytest.approx(1 - math.log(1.5), abs=1e-13)
    assert dickman(1, 1.25) == pytest.approx(1 - math.log(1.25), abs=1e-13)


def test_dickman_against_quadrature_oracle() -> None:
    mp.mp.dps = 30
    assert dickman(1, 2.5) == pytest.approx(float(mp_rho1(2.5)), abs=1e-10)
    assert dickman(2, 3.0) == pytest.approx(float(mp_rho2(3.0)), abs=1e-10)
    assert dickman(2, 3.5) == pytest.approx(float(mp_rho2(3.5)), abs=1e-10)


def test_dickman_integral_identity() -> None:
    # integral of the first-order function over [0, inf) equals e^gamma
    total = gauss_unit_intervals(lambda u: dickman(1, u), 0, 40)
    assert total == pytest.approx(math.exp(np.euler_gamma), abs=1e-10)


def test_dickman_ties_to_golomb_dickman_mean() -> None:
    # 1 - int_1^inf rho_1(u)/u^2 du equals the limiting normalized mean of
    # the longest cycle (the Golomb-Dickman constant), computed here by a
    # completely different quadrature.  rho_1 decays super-exponentially, so
    # truncating the integral at u = 40 is harmless.
    golomb_dickman = 0.6243299885435508710
    tail = gauss_unit_intervals(lambda u: dickman(1, u) / (u * u), 1, 40)
    assert 1 - tail == pytest.approx(golomb_dickman, abs=1e-9)


def test_dickman_higher_rank_tail_mass() -> None:
    # For r >= 2 the same identity holds only in the limit u -> inf: unlike
    # rho_1, the function rho_r has a heavy Theta((log u)^{r-2} / u) tail
    # (there is non-negligible probability that the r-th longest cycle is
    # o(n); e.g. u * rho_2(u) -> e^gamma).  Truncating at u = 40 therefore
    # OVERSTATES the mean by roughly the omitted tail mass
    #   int_40^inf rho_r(u)/u^2 du  ~=  rho_r(40)/80
    # when u * rho_r(u) varies slowly.  Check both the sign and the size.
    for r in (2, 3, 4):
        truncated = 1 - gauss_unit_intervals(
            lambda u: dickman(r, u) / (u * u), 1, 40
        )
        gap = truncated - LARGEST_MOMENTS[f"LG_1({r},1)"]
        crude_tail = dickman(r, 40.0) / 80.0
        assert gap > 0
        assert 0.75 < gap / crude_tail < 1.5


def test_dickman_rejects_out_of_domain() -> None:
    with pytest.raises(ValueError):
        dickman(5, 1.0)
    with pytest.raises(ValueError):
        dickman(0, 1.0)
    with pytest.raises(ValueError):
        dickman(1, -0.5)
    with pytest.raises(ValueError):
        dickman(1, 40.5)
    with pytest.raises(ValueError, match="x=nan"):  # not "cannot convert float NaN to integer"
        dickman(1, math.nan)
    for bad in (True, 2.0, 0):  # the message names the order
        for call in (lambda: dickman(bad, 1.0), lambda: median_xi(bad)):
            with pytest.raises(ValueError, match="order r"):
                call()
    # largest_cdf names itself, not dickman, and checks r before x
    for bad in (True, 2.0, 0, 5):
        for x in (0.5, 7.0):
            with pytest.raises(ValueError, match="largest_cdf: order r"):
                largest_cdf(bad, x)


_REAL_X = [
    (exp_integral, 0.3),
    (lambda x: dickman(2, x), 2.5),
    (lambda x: largest_cdf(2, x), 0.3),
    (density_f, 0.3),
    (density_g, 0.3),
]


@pytest.mark.parametrize("call, x", _REAL_X,
                         ids=["exp_integral", "dickman", "largest_cdf", "density_f", "density_g"])
def test_real_arguments_follow_one_rule(call, x) -> None:
    # a string was parsed, a bool served as 1.0, and None or a complex raised
    # a TypeError that named nothing; each is refused before a Dickman table is read
    tables = asymptotics._table.cache_info()
    for bad in (str(x), True, False, None, complex(x, 0)):
        with pytest.raises(ValueError, match="x must be a real number"):
            call(bad)
    assert asymptotics._table.cache_info() == tables
    for good in (Fraction(x), np.float64(x), np.float32(x)):
        assert call(good) == call(float(good))
    assert call(Fraction(x)) == call(x)


def _chebyshev_object_pieces(r: int, lower: tuple | None) -> tuple:
    """rho_r's pieces built with Chebyshev objects and chebinterpolate: the reference."""
    pieces = [Chebyshev([1.0], domain=[0.0, 1.0])]
    for m in range(1, asymptotics._X_MAX):
        dom = [float(m), float(m + 1)]
        own_prev = pieces[m - 1]
        low_prev = lower[m - 1] if lower is not None else None

        def integrand(u: np.ndarray) -> np.ndarray:
            t = 0.5 * ((dom[1] - dom[0]) * u + dom[0] + dom[1])
            val = own_prev(t - 1.0)
            if low_prev is not None:
                val = val - low_prev(t - 1.0)
            return val / t

        hpoly = Chebyshev(chebyshev.chebinterpolate(integrand, asymptotics._DEGREE), domain=dom)
        start = Chebyshev([float(own_prev(float(m)))], domain=dom)
        pieces.append(start - hpoly.integ(lbnd=float(m)))
    return tuple(pieces)


def test_dickman_pieces_are_the_chebyshev_object_build_bit_for_bit() -> None:
    # every limit constant read from rho_r rests on these coefficients
    lower = None
    for r in (1, 2, 3, 4):
        want = _chebyshev_object_pieces(r, lower)
        got = asymptotics._table(r).pieces
        assert len(got) == len(want) == asymptotics._X_MAX
        for piece, ref in zip(got, want):
            assert isinstance(piece, Chebyshev)
            assert piece.coef.tobytes() == ref.coef.tobytes()
            assert piece.domain.tobytes() == ref.domain.tobytes()
            assert piece.window.tobytes() == ref.window.tobytes()
        lower = want


def test_dickman_table_clamps_rounding_and_refuses_a_broken_piece() -> None:
    # rho_1 dips 3.0e-17 below 0 far past its mass: clamped; a piece that
    # leaves [0, 1] beyond the 1e-10 accuracy is an error, not a clamp
    assert DickmanTable(1, 1.0, (Chebyshev([-3e-17], domain=[0.0, 1.0]),)).value(0.5) == 0.0
    assert DickmanTable(1, 1.0, (Chebyshev([1 + 5e-11], domain=[0.0, 1.0]),)).value(0.5) == 1.0
    broken = DickmanTable(1, 2.0, (Chebyshev([1.0], domain=[0.0, 1.0]),
                                   Chebyshev([1.5], domain=[1.0, 2.0])))
    assert broken.value(0.5) == 1.0
    with pytest.raises(PrecisionError):
        broken.value(1.5)


# ---------------------------------------------------------------------------
# the limiting CDF and densities


def test_largest_cdf_basic_values() -> None:
    assert largest_cdf(1, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert largest_cdf(2, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert largest_cdf(1, 0.5) == pytest.approx(1 - math.log(2), abs=1e-13)


def test_largest_cdf_rejects_out_of_domain() -> None:
    for x in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            largest_cdf(2, x)
    # 1/x past the Dickman tables' 40: the message names x, not 1/x
    for x in (0.02, 1 / 40.5, math.nan):
        with pytest.raises(ValueError, match=f"x={x!r}"):
            largest_cdf(2, x)
    assert largest_cdf(2, 1 / 40) == dickman(2, 40.0)


def test_density_f_closed_forms() -> None:
    assert density_f(0.75) == pytest.approx(4 / 3, abs=1e-12)
    assert density_f(0.5) == pytest.approx(2.0, abs=1e-12)
    # just above 1/2 the delayed argument is below 1, where rho_1 is flat
    assert density_f(0.51) == pytest.approx(1 / 0.51, abs=1e-12)
    # just below 1/2 it crosses 1 and the logarithmic branch takes over
    assert density_f(0.49) == pytest.approx((1 - math.log(1 / 0.49 - 1)) / 0.49, abs=1e-12)


def test_density_g_closed_form() -> None:
    # on (1/3, 1/2) the difference of the two functions reduces to a log
    for x in (0.42, 0.45, 0.48):
        assert density_g(x) == pytest.approx(math.log(1 / x - 1) / x, abs=1e-12)


def test_densities_reject_endpoints() -> None:
    for x in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            density_f(x)
    for x in (0.0, 0.5, 0.7):
        with pytest.raises(ValueError):
            density_g(x)
    # rho_2 at 1/x - 1 >= 40 lies past its table, where it is far from 0
    # (rho_2(40) = 0.0457): such x are refused, not read as density 0
    for x in (1 / 41, 1 / 50, 1e-9, math.nan):
        with pytest.raises(ValueError, match=f"x={x!r}"):
            density_g(x)
    x = 1 / 40.9  # just above 1/41, where the density is near e^gamma
    assert density_g(x) == pytest.approx(dickman(2, 1 / x - 1) / x, rel=1e-9)
    assert 1.8 < density_g(x) < 1.9


def test_mode_is_a_local_maximum_of_g() -> None:
    x0 = mode_x0()
    assert density_g(x0) > density_g(x0 - 0.01)
    assert density_g(x0) > density_g(x0 + 0.01)


def test_mode_and_median_values() -> None:
    assert mode_x0() == pytest.approx(MEDIANS_AND_MODE["x_0"], abs=1e-8)
    assert median_xi(1) == pytest.approx(1 / math.sqrt(math.e), abs=1e-12)
    for r in (2, 3, 4):
        assert median_xi(r) == pytest.approx(MEDIANS_AND_MODE[f"xi_{r}"], abs=1e-8)


def test_median_halves_the_limit_cdf() -> None:
    for r in (1, 2, 3, 4):
        assert largest_cdf(r, median_xi(r)) == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# moment constants


def test_largest_moment_values() -> None:
    for label, a in (("1", 1), ("1/2", Fraction(1, 2))):
        for r in (2, 3, 4):
            first = moment_L(a, r, 1)
            second = moment_L(a, r, 2)
            assert first.value == pytest.approx(LARGEST_MOMENTS[f"LG_{label}({r},1)"], abs=1e-10)
            variance = second.value - first.value**2
            assert variance == pytest.approx(
                LARGEST_MOMENTS[f"LG_{label}({r},2)-LG_{label}({r},1)^2"], abs=1e-10
            )
            assert first.error <= 1e-11
            assert second.error <= 1e-11


def test_largest_moment_against_quadrature_oracle() -> None:
    mp.mp.dps = 25
    want = mp.quad(lambda x: mp.e1(x) * mp.exp(-mp.e1(x) - x), [0, 1, mp.inf])
    got = moment_L(1, 2, 1)
    assert got.value == pytest.approx(float(want), abs=1e-12)


def test_smallest_moment_closed_forms() -> None:
    for r, key in ((2, "exp(-gamma)/2"), (3, "exp(-gamma)/6"), (4, "exp(-gamma)/24")):
        got = moment_S(1, r, 1)
        assert got.value == pytest.approx(SMALLEST_CLOSED_FORMS[key], abs=1e-14)
        assert got.error == 0.0
        assert not got.corrected


def test_smallest_second_moments() -> None:
    for r in (2, 3, 4):
        got = moment_S(1, r, 2)
        assert got.value == pytest.approx(SMALLEST_SECOND_MOMENTS[f"SG_1({r},2)"], abs=1e-10)
        assert got.error <= 1e-11


def test_smallest_corrected_constants() -> None:
    half = Fraction(1, 2)
    for r in (2, 3, 4):
        for h in (1, 2):
            plain = moment_S(half, r, h)
            fixed = moment_S(half, r, h, corrected=True)
            assert fixed.corrected
            assert fixed.value == pytest.approx(math.sqrt(2) * plain.value, rel=1e-15)
            assert fixed.value == pytest.approx(
                SMALLEST_CORRECTED[f"sqrt2*SG_1/2({r},{h})"], abs=1e-11
            )


def test_sqrt2_is_the_limit_of_the_mapping_poisson_means() -> None:
    # sum_{j<=m} q_j/j - (ln m + gamma)/2 -> -(ln 2)/2 from above; the tail
    # sum_{j>m} (q_j - 1/2)/j predicts sqrt(m) gap -> 2/(3 sqrt(2 pi)) = 0.266
    q, _ = exp_log_weights(ObjectKind.MAPPING, 10**6)
    means = q[1:] / np.arange(1, 10**6 + 1)
    sums = np.cumsum(means)
    for m in (10**3, 10**4, 10**5, 10**6):
        gap = sums[m - 1] - (math.log(m) + np.euler_gamma) / 2 + math.log(2) / 2
        assert 0 < gap <= 0.3 / math.sqrt(m), (m, gap)
    # the means are c_j e^-j/j!, from the exact counts, not from q's own formula
    for j in range(1, 21):
        want = float(Fraction(connected_count(ObjectKind.MAPPING, j), math.factorial(j)))
        want *= math.exp(-j)
        assert abs(means[j - 1] - want) <= 1e-14 * want, j


def test_moment_parameter_validation() -> None:
    with pytest.raises(ValueError):
        moment_L(Fraction(1, 4), 2, 1)
    with pytest.raises(ValueError):
        moment_L(1, 5, 1)
    with pytest.raises(ValueError):
        moment_L(1, 2, 3)
    with pytest.raises(ValueError):
        moment_S(1, 2, 1, corrected=True)  # correction applies to a=1/2 only
    # a is compared as it is, never parsed: a string is refused by name, not read as a Fraction
    for moment in (moment_L, moment_S):
        for bad in ("1/2", "1", None, True):
            with pytest.raises(ValueError, match="exp-log parameter a"):
                moment(bad, 2, 1)
        for a, want in ((1, Fraction(1)), (1.0, Fraction(1)), (0.5, Fraction(1, 2)),
                        (Fraction(1, 2), Fraction(1, 2)), (np.float64(0.5), Fraction(1, 2)),
                        (np.float32(0.5), Fraction(1, 2))):
            got = moment(a, 2, 1)
            assert got.a == want and type(got.a) is Fraction
            assert got == moment(want, 2, 1)
    for moment in (moment_L, moment_S):  # the message names the argument
        for bad in (True, 2.0, 1):
            with pytest.raises(ValueError, match="rank r"):
                moment(1, bad, 1)
        for bad in (True, 2.0, 0):
            with pytest.raises(ValueError, match="height h"):
                moment(1, 2, bad)
    # corrected is a bool: 1 and 0 equal True and False and would share, and
    # set the .corrected of, their cache entries; '' and None are only falsy
    for bad in (1, 0, "", None):
        with pytest.raises(ValueError, match="corrected"):
            moment_S(Fraction(1, 2), 2, 1, corrected=bad)


def test_bool_and_float_arguments_are_refused_before_the_caches(monkeypatch) -> None:
    # True == 1.0 == 1: moment_L(1, 2, True) was served, and cached, with
    # h = True, moment_S(True, 2, 1) as a = 1, and dickman(True, x) and
    # median_xi(True) as order 1; moment_L(1, 2.0, 1) failed with a TypeError
    caches = (asymptotics._moment_L, asymptotics._moment_S)
    for cached in caches:
        cached.cache_clear()
    empty = [cached.cache_info() for cached in caches]
    asymptotics._table(1)  # a cached order-1 table would serve the order True
    tables = asymptotics._table.cache_info()
    for call in (lambda: moment_L(1, 2, True), lambda: moment_L(1, 2.0, 1),
                 lambda: moment_S(True, 2, 1), lambda: dickman(True, 0.5),
                 lambda: median_xi(True)):
        with pytest.raises(ValueError):
            call()
        assert [cached.cache_info() for cached in caches] == empty
        assert asymptotics._table.cache_info() == tables
    h = moment_L(1, 2, 1).h
    assert h == 1 and type(h) is int


def test_constants_catalog_is_complete_and_tight() -> None:
    got = dict((name, (value, err)) for name, value, err in constants_catalog())
    for name, want in {
        **LARGEST_MOMENTS,
        **SMALLEST_CLOSED_FORMS,
        **SMALLEST_SECOND_MOMENTS,
        **SMALLEST_CORRECTED,
        **MEDIANS_AND_MODE,
    }.items():
        assert name in got, name
        value, err = got[name]
        assert value == pytest.approx(want, abs=1e-8)
        assert err <= 1e-8
    assert got["xi_1"][0] == pytest.approx(1 / math.sqrt(math.e), abs=1e-12)
