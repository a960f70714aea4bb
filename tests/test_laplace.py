"""The Laplace-domain put transform: roots, coefficient tables, evaluation,
and the positive Bessel series of its exponential part.

The reference point used throughout: sigma = 0.1, nu = 0.2 (so
mu = -0.005), strike K = 20, lam = 5.  Frozen oracle values below were
computed from the numerical Laplace transform of the zero-rate
Black-Scholes put, int_0^inf BSput(s) e^{-lam s} ds, evaluated with
adaptive quadrature (the oracle is also recomputed inline).
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import vgpricer.laplace as laplace
from vgpricer import (
    VgParams,
    build_coeff_table,
    eval_m,
    eval_m_dx,
    eval_m_exponential_part,
    log_bessel_series,
    theta_roots,
)

P = VgParams(0.1, 0.2)
LAM = 5.0
K = 20.0

# frozen oracle values (see module docstring)
THETA1 = 32.126729201736936
M_AT_LN18 = 0.40214258079324705
M_EXP_PART_LN18 = 0.0021425807932470525


def _bs_put(x: float, strike: float, s: float) -> float:
    # independent zero-rate Black-Scholes put (oracle-local, scipy.stats)
    vol = P.sigma * math.sqrt(s)
    d1 = (x - math.log(strike)) / vol + 0.5 * vol
    d2 = d1 - vol
    return strike * norm.cdf(-d2) - math.exp(x) * norm.cdf(-d1)


# ---------------------------------------------------------------------------
# characteristic roots


def test_theta_roots_reference_point():
    r = theta_roots(LAM, P)
    assert r.theta1 == pytest.approx(THETA1, rel=1e-13)
    assert r.theta2 == pytest.approx(1.0 - THETA1, rel=1e-13)  # Vieta sum = -2mu/sig^2 = 1
    assert r.theta1 > 0 > r.theta2


def test_theta_roots_against_polynomial_solver():
    rng = np.random.default_rng(3)
    sig2 = P.sigma**2
    for _ in range(25):
        lam = float(rng.uniform(0.05, 80.0))
        r = theta_roots(lam, P)
        roots = np.roots([0.5 * sig2, P.mu, -lam])
        assert r.theta1 == pytest.approx(float(max(roots)), rel=1e-10)
        assert r.theta2 == pytest.approx(float(min(roots)), rel=1e-10)
        # characteristic equation residual
        for th in (r.theta1, r.theta2):
            assert 0.5 * sig2 * th * th + P.mu * th - lam == pytest.approx(0.0, abs=1e-10 * lam)


def test_theta_roots_vieta_identities():
    for lam in (0.1, 1.0, 5.0, 42.0):
        r = theta_roots(lam, P)
        sig2 = P.sigma**2
        assert r.theta1 + r.theta2 == pytest.approx(-2.0 * P.mu / sig2, rel=1e-12)
        assert r.theta1 * r.theta2 == pytest.approx(-2.0 * lam / sig2, rel=1e-12)


def test_table_roots_are_theta_roots():
    for lam in (0.1, 1.0 / 0.2, 42.0):
        assert build_coeff_table(lam, K, P, max_level=2).roots == theta_roots(lam, P)


def test_theta_roots_domain():
    with pytest.raises(ValueError):
        theta_roots(0.0, P)
    with pytest.raises(ValueError):
        theta_roots(-1.0, P)


# ---------------------------------------------------------------------------
# base level: the transform itself


def test_transform_matches_laplace_oracle_itm():
    table = build_coeff_table(LAM, K, P, max_level=0)
    got = eval_m(table, 0, math.log(18.0))
    assert got == pytest.approx(M_AT_LN18, rel=1e-12)
    oracle, _ = quad(lambda s: _bs_put(math.log(18.0), K, s) * math.exp(-LAM * s),
                     0.0, 60.0, limit=200, epsabs=1e-13, epsrel=1e-12)
    assert got == pytest.approx(oracle, abs=5e-11)


def test_transform_matches_laplace_oracle_otm():
    table = build_coeff_table(LAM, K, P, max_level=0)
    x = math.log(22.0)
    got = eval_m(table, 0, x)
    oracle, _ = quad(lambda s: _bs_put(x, K, s) * math.exp(-LAM * s),
                     0.0, 60.0, limit=200, epsabs=1e-13, epsrel=1e-12)
    assert got == pytest.approx(oracle, abs=5e-11)


def test_transform_limits():
    table = build_coeff_table(LAM, K, P, max_level=0)
    deep_itm = eval_m(table, 0, math.log(K) - 40.0)
    assert deep_itm == pytest.approx(K / LAM, rel=1e-12)
    assert eval_m(table, 0, math.log(K) + 30.0) < 1e-12


def test_transform_scale_bounds():
    table = build_coeff_table(LAM, K, P, max_level=0)
    for x in np.linspace(math.log(5.0), math.log(60.0), 41):
        m = eval_m(table, 0, float(x))
        assert 0.0 <= m <= K / LAM + 1e-15


def test_exponential_part_reference_values():
    table = build_coeff_table(LAM, K, P, max_level=0)
    got = eval_m_exponential_part(table, 0, math.log(18.0))
    assert got == pytest.approx(M_EXP_PART_LN18, rel=1e-12)
    # ITM: exponential part = full transform minus power-law terms
    full = eval_m(table, 0, math.log(18.0))
    assert full - got == pytest.approx((K - 18.0) / LAM, rel=1e-12)
    # OTM: no power-law terms, the two evaluations coincide
    x = math.log(22.0)
    assert eval_m_exponential_part(table, 0, x) == eval_m(table, 0, x)


def test_exponential_part_superpolynomial_decay_in_lam():
    # off the strike the exponential part decays like e^{-c sqrt(lam)}:
    # faster than lam^{-p} for every p (check p = 6 across two decades)
    x = math.log(18.0)
    vals = []
    for lam in (1e2, 1e3, 1e4):
        t = build_coeff_table(lam, K, P, max_level=0)
        vals.append(abs(eval_m_exponential_part(t, 0, x)))
    assert vals[1] < vals[0] * (1e2 / 1e3) ** 6
    assert vals[2] < vals[1] * (1e3 / 1e4) ** 6


# ---------------------------------------------------------------------------
# higher levels


def test_level_one_tail_coefficients_follow_back_substitution():
    # first extension step in closed form: the z-linear coefficient of
    # level 1 equals the level-0 constant divided by mu + sigma^2 theta_i
    table = build_coeff_table(LAM, K, P, max_level=1)
    sig2 = P.sigma**2
    a0 = table.levels_itm[0][0]
    w1 = P.mu + sig2 * table.roots.theta1
    w2 = P.mu + sig2 * table.roots.theta2
    assert table.levels_itm[1][1] == pytest.approx(a0 / w1, rel=1e-13)
    assert table.levels_otm[1][1] == pytest.approx(a0 / w2, rel=1e-13)


@pytest.mark.parametrize("n", range(9))
def test_c1_matching_through_level_eight(n):
    table = build_coeff_table(LAM, K, P, max_level=8)
    # value matching: the two constant coefficients are the same number
    assert table.levels_itm[n][0] == table.levels_otm[n][0]
    # slope matching at the strike
    assert table.c1_residual(n) < 1e-9


def test_derivative_chain_against_finite_differences():
    # eval_m(n) must be the lam-derivative of eval_m(n-1); central
    # differences with h = 1e-5 give ~1e-10 relative truncation error
    h = 1e-5
    for x in (math.log(18.0), math.log(20.0), math.log(22.0)):
        for n in range(1, 7):
            up = build_coeff_table(LAM + h, K, P, n - 1)
            dn = build_coeff_table(LAM - h, K, P, n - 1)
            fd = (eval_m(up, n - 1, x) - eval_m(dn, n - 1, x)) / (2.0 * h)
            table = build_coeff_table(LAM, K, P, n)
            analytic = eval_m(table, n, x)
            assert analytic == pytest.approx(fd, rel=1e-5)


def test_sign_alternates_with_level():
    # m^(n) = (-1)^n int u(s,x) s^n e^{-lam s} ds, and u >= 0
    table = build_coeff_table(LAM, K, P, max_level=6)
    for x in (math.log(15.0), math.log(19.0), math.log(20.0), math.log(25.0)):
        for n in range(7):
            assert (-1.0) ** n * eval_m(table, n, x) >= 0.0


def _second_dx(table, n, x):
    # analytic d^2/dx^2 from the piecewise representation (test-local)
    z = x - math.log(table.strike)
    if z <= 0.0:
        coeffs = table.levels_itm[n]
        theta = table.roots.theta1
        extra = -((-1.0) ** n) * math.factorial(n) * math.exp(x) / table.lam ** (n + 1)
    else:
        coeffs = table.levels_otm[n]
        theta = table.roots.theta2
        extra = 0.0
    poly = sum(c * z**k for k, c in enumerate(coeffs))
    dpoly = sum(k * c * z ** (k - 1) for k, c in enumerate(coeffs) if k >= 1)
    ddpoly = sum(k * (k - 1) * c * z ** (k - 2) for k, c in enumerate(coeffs) if k >= 2)
    return (ddpoly + 2.0 * theta * dpoly + theta * theta * poly) * math.exp(theta * z) + extra


def test_transform_solves_the_pricing_ode():
    # lam m - (K - e^x)^+ = mu m' + (sigma^2/2) m'' pointwise, both branches
    table = build_coeff_table(LAM, K, P, max_level=0)
    worst = 0.0
    for x in np.linspace(math.log(10.0), math.log(40.0), 50):
        x = float(x)
        m = eval_m(table, 0, x)
        m1 = eval_m_dx(table, 0, x)
        m2 = _second_dx(table, 0, x)
        res = LAM * m - max(K - math.exp(x), 0.0) - P.mu * m1 - 0.5 * P.sigma**2 * m2
        worst = max(worst, abs(res))
    assert worst < 1e-8 * K


def test_strike_point_belongs_to_itm_branch_and_branches_agree():
    table = build_coeff_table(LAM, K, P, max_level=3)
    x = math.log(K)
    for n in range(4):
        itm_poly = table.levels_itm[n][0]   # z = 0: constant term only
        otm_poly = table.levels_otm[n][0]
        assert itm_poly == otm_poly
        # power-law terms vanish at the strike, so eval_m equals the
        # shared constant no matter the branch
        assert eval_m(table, n, x) == pytest.approx(itm_poly, rel=1e-15)


# ---------------------------------------------------------------------------
# table mechanics


def test_level_access_requires_built_level():
    t0 = build_coeff_table(LAM, K, P, max_level=0)
    with pytest.raises(ValueError):
        eval_m(t0, 1, math.log(18.0))
    with pytest.raises(ValueError):
        eval_m(t0, -1, math.log(18.0))


def test_level_cap():
    with pytest.raises(ValueError):
        build_coeff_table(LAM, K, P, max_level=laplace.MAX_LEVEL + 1)
    top = build_coeff_table(LAM, K, P, max_level=laplace.MAX_LEVEL)
    assert top.max_level == laplace.MAX_LEVEL


def test_table_domain_validation():
    with pytest.raises(ValueError):
        build_coeff_table(0.0, K, P)
    with pytest.raises(ValueError):
        build_coeff_table(LAM, -20.0, P)


def test_deep_levels_stay_in_double_precision_here():
    table = build_coeff_table(LAM, K, P, max_level=40)
    assert max(table.c1_residual(n) for n in range(41)) < 1e-9


def test_power_law_factor_never_overflows():
    # (-1)^n n!/lam^(n+1) is a running product: at a huge lam it
    # underflows towards zero where lam ** (n + 1) used to overflow
    table = build_coeff_table(1e200, K, P, max_level=laplace.MAX_LEVEL)
    assert table.power_law[0] == 1e-200
    assert table.power_law[laplace.MAX_LEVEL] == 0.0
    assert all(math.isfinite(eval_m(table, n, math.log(18.0))) for n in (0, 50, 100))
    # and it is the n-th derivative of 1/lam, sign included
    small = build_coeff_table(0.5, K, P, max_level=5)
    for n in range(6):
        want = (-1.0) ** n * math.factorial(n) / 0.5 ** (n + 1)
        assert small.power_law[n] == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# one deep table serves every shallower level


def _bits(table):
    """Everything a table holds, with every number as raw float64 bytes,
    so equal means bit-identical rather than ==."""
    numbers = [table.roots.theta1, table.roots.theta2, *table.power_law]
    numbers += [c for lv in table.levels_itm + table.levels_otm for c in lv]
    raw = b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in numbers)
    return table.max_level, raw


def _prefix(table, n):
    """The levels 0..n of ``table`` as a table of its own."""
    return dataclasses.replace(
        table,
        levels_itm=table.levels_itm[: n + 1],
        levels_otm=table.levels_otm[: n + 1],
        power_law=table.power_law[: n + 1],
    )


@pytest.mark.parametrize("sigma,nu,strike", [(0.1, 0.2, 20.0), (0.45, 0.07, 130.0), (0.6, 1.0, 55.0)])
def test_a_deeper_table_holds_the_levels_of_a_shallower_build(sigma, nu, strike):
    # so the integer-t/nu rows of one strike can all read one table built
    # to the deepest level they need
    params = VgParams(sigma=sigma, nu=nu)
    lam = 1.0 / nu
    top = build_coeff_table(lam, strike, params, max_level=laplace.MAX_LEVEL)
    for n in (0, 1, 4, 7, 40, 63, laplace.MAX_LEVEL):
        assert _bits(_prefix(top, n)) == _bits(build_coeff_table(lam, strike, params, max_level=n))


def test_the_first_level_that_trips_the_c1_check_raises(monkeypatch):
    # pick a tolerance that levels 0..a meet and some level in a+1..b does
    # not, so the trip happens above the levels a shallower build holds
    a, b = 4, 8
    residuals = [build_coeff_table(LAM, K, P, max_level=b).c1_residual(n) for n in range(b + 1)]
    tol = max(residuals[: a + 1])
    assert max(residuals[a + 1:]) > tol
    monkeypatch.setattr(laplace, "_C1_RTOL", tol)
    build_coeff_table(LAM, K, P, max_level=a)  # levels 0..a still pass
    with pytest.raises(ArithmeticError) as fresh:
        build_coeff_table(LAM, K, P, max_level=b)
    first = next(n for n in range(b + 1) if residuals[n] > tol)
    assert str(fresh.value).startswith(f"level {first} fails the C^1 check")


# ---------------------------------------------------------------------------
# the positive Bessel series of the exponential part


def _from_series(lam, strike, params, n, x):
    """Exponential part of m^(n) rebuilt from log_bessel_series."""
    z = x - math.log(strike)
    log_sum = log_bessel_series(np.array([lam]), z, params, n)[0]
    log_mag = (
        math.log(strike * params.sigma / math.sqrt(2.0 * math.pi))
        - params.mu * z / params.sigma**2
        + math.lgamma(n + 1.0) - (n + 1.0) * math.log(lam) + log_sum
    )
    return (-1.0) ** n * math.exp(log_mag)


@pytest.mark.parametrize("sigma,nu,strike", [(0.1, 0.2, 20.0), (0.45, 0.07, 130.0),
                                             (0.6, 1.0, 55.0), (0.03, 0.02, 100.0)])
def test_series_matches_the_tables_through_level_forty(sigma, nu, strike):
    params = VgParams(sigma=sigma, nu=nu)
    worst = 0.0
    for lam in (1.0 / nu, 3.0 / nu, 0.7, 40.0):
        table = build_coeff_table(lam, strike, params, max_level=40)
        for moneyness in (0.8, 0.98, 1.0, 1.03, 1.4):
            x = math.log(strike * moneyness)
            for n in range(41):
                want = eval_m_exponential_part(table, n, x)
                got = _from_series(lam, strike, params, n, x)
                worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-12


def _mp_log_series(lam, z, params, n):
    """log sum_k lam^k r^(k+1/2) K_(k+1/2)(a sqrt(s)) / k! at 30 digits.

    mpmath's besselk gives the orders up to 40; past them the forward
    recurrence K_(v+1) = K_(v-1) + (2v/x) K_v continues in 30 digits (it
    is stable for K, and besselk itself takes seconds per call at
    orders near 1000).  At z = 0 the terms are the limit
    Gamma(k+1/2)/(2 s^(k+1/2)).
    """
    import mpmath

    with mpmath.workdps(30):
        lam, z = mpmath.mpf(lam), mpmath.mpf(z)
        sigma, mu = mpmath.mpf(params.sigma), mpmath.mpf(params.mu)
        s = lam + mu**2 / (2 * sigma**2)
        a = abs(z) * mpmath.sqrt(2) / sigma
        x = a * mpmath.sqrt(s)
        r = a / (2 * mpmath.sqrt(s))
        total, weight = mpmath.mpf(0), mpmath.mpf(1)  # weight = lam^k / k!
        bessel = []
        for k in range(n + 1):
            v = k + mpmath.mpf(0.5)
            if z == 0:
                term = mpmath.gamma(v) / (2 * s**v)
            else:
                if k <= 40:
                    bessel.append(mpmath.besselk(v, x))
                else:
                    bessel.append(bessel[-2] + 2 * (v - 1) / x * bessel[-1])
                term = r**v * bessel[-1]
            total += weight * term
            weight = weight * lam / (k + 1)
        return mpmath.log(total)


def test_series_matches_mpmath_besselk():
    # seeded (lam, z, n): a quarter at the strike, lam log-uniform up to
    # 1e6, n up to 1000.  Off the strike z is drawn through a sqrt(s),
    # log-uniform on [0.1, 200]: past that, the rounding of the float
    # inputs alone moves e^(-a sqrt(s)) by more than a sqrt(s) * 1e-16
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for i in range(32):
        params = VgParams(sigma=float(rng.uniform(0.03, 1.0)), nu=float(rng.uniform(0.02, 2.0)))
        lam = float(10.0 ** rng.uniform(-1.0, 6.0))
        n = int(rng.choice([0, 1, 2, 7, 40, 300, 1000, 1000]))
        if i % 4 == 0:
            z = 0.0
        else:
            root_s = math.sqrt(lam + params.mu**2 / (2.0 * params.sigma**2))
            target = math.exp(rng.uniform(math.log(0.1), math.log(200.0)))
            z = float(rng.choice([-1.0, 1.0])) * target * params.sigma / (math.sqrt(2.0) * root_s)
        got = float(log_bessel_series(np.array([lam]), z, params, n)[0])
        want = float(_mp_log_series(lam, z, params, n))
        worst = max(worst, abs(got - want))  # = relative error of the sum
    assert worst <= 1e-13


def test_series_terms_stay_finite_far_out():
    # a sqrt(s) in the thousands at n = 1000: the shift keeps every term
    # finite, and where p_0 underflows the log is -inf, not a warning
    params = VgParams(sigma=0.03, nu=0.02)
    lam = 50.0 * np.exp(np.linspace(0.0, 140.0, 57))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for z in (0.0, -1.6, 1.6):
            for n in (0, 5, 1000):
                out = log_bessel_series(lam, z, params, n)
                assert not np.isnan(out).any() and (out < np.inf).all()
                if z == 0.0:
                    assert np.isfinite(out).all()
    # the log falls with lam, so no node is spuriously large
    out = log_bessel_series(lam, -1.6, params, 1000)
    finite = out[np.isfinite(out)]
    assert (np.diff(finite) < 0.0).all()


def test_series_validates_its_input():
    with pytest.raises(ValueError):
        log_bessel_series(np.array([1.0, 0.0]), 0.1, P, 3)
    with pytest.raises(ValueError):
        log_bessel_series(np.array([1.0, np.inf]), 0.1, P, 3)
    with pytest.raises(ValueError):
        log_bessel_series(np.ones((2, 2)), 0.1, P, 3)
    with pytest.raises(ValueError):
        log_bessel_series(np.array([1.0]), 0.1, P, -1)
    with pytest.raises(ValueError):
        log_bessel_series(np.array([1.0]), np.zeros((2, 2)), P, 3)


def test_series_rows_are_the_floats_of_each_z_alone():
    # one row per z, far out and at the strike alike; a group of rows all
    # at the strike takes the strike loop, mixed rows the general one
    params = VgParams(sigma=0.03, nu=0.02)
    lam = 50.0 * np.exp(np.linspace(0.0, 140.0, 57))
    for zs in ([-1.6, 0.0, 0.2, 1.6], [0.0, 0.0], [0.05]):
        for n in (0, 1, 7, 300):
            rows = log_bessel_series(lam, np.array(zs), params, n)
            assert rows.shape == (len(zs), lam.size)
            alone = [log_bessel_series(lam, z, params, n) for z in zs]
            assert [r.tobytes() for r in rows] == [a.tobytes() for a in alone]
