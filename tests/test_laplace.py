"""The Laplace-domain put transform: roots, coefficient tables, evaluation.

The reference point used throughout: sigma = 0.1, nu = 0.2 (so
mu = -0.005), strike K = 20, lam = 5.  Frozen oracle values below were
computed from the numerical Laplace transform of the zero-rate
Black-Scholes put, int_0^inf BSput(s) e^{-lam s} ds, evaluated with
adaptive quadrature (the oracle is also recomputed inline).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import vgpricer.laplace as laplace
from vgpricer import (
    VgParams,
    base_level,
    build_coeff_table,
    eval_m,
    eval_m_dx,
    eval_m_exponential_part,
    extend_to_level,
    make_vg_params,
    theta_roots,
)

P = make_vg_params(0.1, 0.2)
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


def test_theta_roots_domain():
    with pytest.raises(ValueError):
        theta_roots(0.0, P)
    with pytest.raises(ValueError):
        theta_roots(-1.0, P)


# ---------------------------------------------------------------------------
# base level: the transform itself


def test_transform_matches_laplace_oracle_itm():
    table = base_level(LAM, K, P)
    got = eval_m(table, 0, math.log(18.0))
    assert got == pytest.approx(M_AT_LN18, rel=1e-12)
    oracle, _ = quad(lambda s: _bs_put(math.log(18.0), K, s) * math.exp(-LAM * s),
                     0.0, 60.0, limit=200, epsabs=1e-13, epsrel=1e-12)
    assert got == pytest.approx(oracle, abs=5e-11)


def test_transform_matches_laplace_oracle_otm():
    table = base_level(LAM, K, P)
    x = math.log(22.0)
    got = eval_m(table, 0, x)
    oracle, _ = quad(lambda s: _bs_put(x, K, s) * math.exp(-LAM * s),
                     0.0, 60.0, limit=200, epsabs=1e-13, epsrel=1e-12)
    assert got == pytest.approx(oracle, abs=5e-11)


def test_transform_limits():
    table = base_level(LAM, K, P)
    deep_itm = eval_m(table, 0, math.log(K) - 40.0)
    assert deep_itm == pytest.approx(K / LAM, rel=1e-12)
    assert eval_m(table, 0, math.log(K) + 30.0) < 1e-12


def test_transform_scale_bounds():
    table = base_level(LAM, K, P)
    for x in np.linspace(math.log(5.0), math.log(60.0), 41):
        m = eval_m(table, 0, float(x))
        assert 0.0 <= m <= K / LAM + 1e-15


def test_exponential_part_reference_values():
    table = base_level(LAM, K, P)
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
        t = base_level(lam, K, P)
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
    table = base_level(LAM, K, P)
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


def test_extend_returns_new_table_and_preserves_prefix():
    t0 = base_level(LAM, K, P)
    t3 = extend_to_level(t0, 3)
    assert t0.max_level == 0 and t3.max_level == 3
    assert t3.levels_itm[0] == t0.levels_itm[0]
    assert extend_to_level(t3, 2) is t3  # already present


def test_level_access_requires_built_level():
    t0 = base_level(LAM, K, P)
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
    assert not table.extended
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
# vectorised tables: one recursion over an array of lam


LAMS = np.array([0.3, 5.0, 80.0, 1e4, 1e9])


def test_array_table_matches_scalar_tables():
    # same arithmetic entry by entry; numpy's exp and sqrt may differ
    # from math's by an ulp, hence the few-ulp tolerance
    n_max = 8
    vec = build_coeff_table(LAMS, K, P, max_level=n_max)
    assert vec.max_level == n_max and not vec.extended.any()
    for i, lam in enumerate(LAMS):
        one = build_coeff_table(float(lam), K, P, max_level=n_max)
        assert vec.roots.theta1[i] == pytest.approx(one.roots.theta1, rel=1e-15)
        assert vec.roots.theta2[i] == pytest.approx(one.roots.theta2, rel=1e-15)
        for n in range(n_max + 1):
            assert vec.power_law[n][i] == pytest.approx(one.power_law[n], rel=1e-15)
            for got, want in zip(vec.levels_itm[n], one.levels_itm[n]):
                assert got[i] == pytest.approx(want, rel=1e-14, abs=1e-300)
            for got, want in zip(vec.levels_otm[n], one.levels_otm[n]):
                assert got[i] == pytest.approx(want, rel=1e-14, abs=1e-300)
            assert vec.c1_residual(n)[i] <= 1e-9
        for x in (math.log(15.0), math.log(20.0), math.log(26.0)):
            for n in (0, 3, n_max):
                assert eval_m_exponential_part(vec, n, x)[i] == pytest.approx(
                    eval_m_exponential_part(one, n, x), rel=1e-14, abs=1e-300
                )
                assert eval_m(vec, n, x)[i] == pytest.approx(
                    eval_m(one, n, x), rel=1e-14, abs=1e-300
                )


def test_array_table_rebuilds_only_the_nodes_that_fail(monkeypatch):
    # report a C^1 failure at the second and fourth lam only
    flagged = np.array([False, True, False, True, False])
    plain = build_coeff_table(LAMS, K, P, max_level=3)
    monkeypatch.setattr(
        laplace.CoeffTable, "c1_residual", lambda self, n: np.where(flagged, 1.0, 0.0)
    )
    table = build_coeff_table(LAMS, K, P, max_level=3)
    monkeypatch.undo()
    assert (table.extended == flagged).all()
    for n in range(4):
        for got, want in zip(table.levels_itm[n], plain.levels_itm[n]):
            assert (got[~flagged] == want[~flagged]).all()
            assert got[flagged] == pytest.approx(want[flagged], rel=1e-12)
        assert table.power_law[n] == pytest.approx(plain.power_law[n], rel=1e-14)


def test_array_lam_validation():
    with pytest.raises(ValueError):
        build_coeff_table(np.array([1.0, 0.0]), K, P)
    with pytest.raises(ValueError):
        build_coeff_table(np.array([1.0, np.inf]), K, P)
    with pytest.raises(ValueError):
        build_coeff_table(np.ones((2, 2)), K, P)


def test_extended_precision_backend_agrees_with_floats():
    import mpmath

    with mpmath.workdps(60):
        th1, th2, lv1, lv2 = laplace._build_levels(LAM, K, P, 6, mp_ctx=mpmath)
    flt = build_coeff_table(LAM, K, P, max_level=6)
    assert float(th1) == pytest.approx(flt.roots.theta1, rel=1e-14)
    for n in range(7):
        for a, b in zip(lv1[n], flt.levels_itm[n]):
            assert float(a) == pytest.approx(b, rel=1e-12)
        for a, b in zip(lv2[n], flt.levels_otm[n]):
            assert float(a) == pytest.approx(b, rel=1e-12)


def test_extended_precision_fallback_is_flagged(monkeypatch):
    # force the residual check to fail so the mpmath rebuild engages
    monkeypatch.setattr(laplace, "_C1_RTOL", -1.0)
    table = build_coeff_table(LAM, K, P, max_level=2)
    assert table.extended
    plain = VgParams(sigma=0.1, nu=0.2)
    monkeypatch.undo()
    ref = build_coeff_table(LAM, K, plain, max_level=2)
    for n in range(3):
        for a, b in zip(table.levels_itm[n], ref.levels_itm[n]):
            assert a == pytest.approx(b, rel=1e-12)
