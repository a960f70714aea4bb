"""Put pricing under the variance-gamma model, four routes cross-checked.

The closed-form route (``cgz``) is pinned against reference prices and
required to agree with two structurally independent computations — the
gamma-weighted Black-Scholes average and damped Fourier inversion — to
far tighter than the reference-table rounding.  Monte Carlo acts as a
statistical backstop.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from vgpricer import (
    McConfig,
    OptionSpec,
    PriceQuote,
    QuadratureAccuracyError,
    VgParams,
    black_scholes_put,
    call_from_put,
    fourier_put_ladder,
    gamma_maturity_density,
    make_vg_params,
    price_put_cgz,
    price_put_fourier,
    price_put_mc,
    price_put_mixture,
    vg_charfunc,
)

P1 = make_vg_params(0.1, 0.2)    # reference set: near-strike puts
P2 = make_vg_params(0.2, 0.25)   # deep out-of-the-money, short maturity
P3 = make_vg_params(0.2, 0.5)


def _spec(spot, strike, t):
    return OptionSpec(spot=spot, strike=strike, maturity=t)


# ---------------------------------------------------------------------------
# conditional Black-Scholes building block


def test_black_scholes_put_against_direct_formula():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spot = float(rng.uniform(5.0, 50.0))
        strike = float(rng.uniform(5.0, 50.0))
        s = float(rng.uniform(0.01, 4.0))
        vol = P1.sigma * math.sqrt(s)
        d1 = (math.log(spot / strike)) / vol + 0.5 * vol
        want = strike * norm.cdf(-(d1 - vol)) - spot * norm.cdf(-d1)
        got = black_scholes_put(math.log(spot), strike, s, P1)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-300)


def test_black_scholes_put_array_matches_scalar():
    s = np.array([0.05, 0.2, 1.0, 3.0])
    got = black_scholes_put(math.log(18.0), 20.0, s, P1)
    want = [black_scholes_put(math.log(18.0), 20.0, float(si), P1) for si in s]
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_black_scholes_put_limits():
    # vanishing variance pins the intrinsic value
    assert black_scholes_put(math.log(10.0), 20.0, 1e-12, P1) == pytest.approx(10.0, rel=1e-9)
    assert black_scholes_put(math.log(40.0), 20.0, 1e-12, P1) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        black_scholes_put(math.log(18.0), 20.0, 0.0, P1)
    with pytest.raises(ValueError):
        black_scholes_put(math.log(18.0), 20.0, -1.0, P1)


# ---------------------------------------------------------------------------
# characteristic function


def test_charfunc_normalization_and_martingale():
    assert vg_charfunc(0.0, 0.7, P1) == pytest.approx(1.0 + 0.0j, abs=1e-15)
    # E[e^{X}] = phi(-i) = 1: the drift correction makes e^X a martingale
    assert vg_charfunc(-1.0j, 0.7, P1) == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert vg_charfunc(-1.0j, 3.0, P2) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_charfunc_against_conditioning_oracle():
    # E[e^{iuX}] = int E[e^{iuX} | clock = s] g(s) ds with a normal
    # conditional law; integrate the real and imaginary parts directly
    t = 0.6
    for u in (0.5, 1.7, -3.0):
        def integrand_re(s):
            return math.exp(-0.5 * u * u * P1.sigma**2 * s) * math.cos(
                u * P1.mu * s
            ) * gamma_maturity_density(s, t, P1.nu)

        def integrand_im(s):
            return math.exp(-0.5 * u * u * P1.sigma**2 * s) * math.sin(
                u * P1.mu * s
            ) * gamma_maturity_density(s, t, P1.nu)

        re, _ = quad(integrand_re, 0.0, 50.0, limit=200, epsabs=1e-13, epsrel=1e-12)
        im, _ = quad(integrand_im, 0.0, 50.0, limit=200, epsabs=1e-13, epsrel=1e-12)
        got = vg_charfunc(u, t, P1)
        assert got.real == pytest.approx(re, abs=1e-11)
        assert got.imag == pytest.approx(im, abs=1e-11)


def test_charfunc_against_simulation():
    t, u = 0.4, 1.3
    rng = np.random.default_rng(17)
    n = 400_000
    clock = rng.gamma(t / P1.nu, scale=P1.nu, size=n)
    x = P1.mu * clock + P1.sigma * np.sqrt(clock) * rng.standard_normal(n)
    samples = np.exp(1j * u * x)
    est = samples.mean()
    se_re = samples.real.std(ddof=1) / math.sqrt(n)
    se_im = samples.imag.std(ddof=1) / math.sqrt(n)
    want = vg_charfunc(u, t, P1)
    assert abs(est.real - want.real) < 3.0 * se_re
    assert abs(est.imag - want.imag) < 3.0 * se_im


def test_charfunc_vectorizes():
    u = np.array([0.0, 1.0, -2.0, 5.0])
    got = vg_charfunc(u, 0.5, P1)
    want = [vg_charfunc(float(ui), 0.5, P1) for ui in u]
    np.testing.assert_allclose(got, want, rtol=1e-14)


# ---------------------------------------------------------------------------
# closed-form route


def test_cgz_reference_prices():
    cases = [
        (_spec(18.0, 20.0, 0.5), P1, 2.0492),   # integer clock shape
        (_spec(22.0, 20.0, 1.0), P1, 0.1903),   # out of the money
        (_spec(50.0, 35.0, 0.10), P2, 0.0020),  # sub-unit clock shape
        (_spec(50.0, 35.0, 0.05), P3, 0.0026),
    ]
    for spec, params, want in cases:
        q = price_put_cgz(spec, params)
        assert q.method == "cgz"
        assert abs(q.value - want) <= 5e-4


def test_cgz_integer_shape_has_no_quadrature_error():
    q = price_put_cgz(_spec(18.0, 20.0, 0.2), P1)  # t/nu = 1
    assert q.diagnostics is None
    assert q.value == pytest.approx(2.010712903966235, rel=1e-12)


def test_cgz_fractional_shape_reports_quadrature_error():
    q = price_put_cgz(_spec(18.0, 20.0, 0.5), P2)  # t/nu = 2
    assert q.diagnostics is None
    q = price_put_cgz(_spec(18.0, 20.0, 0.3), P1)  # t/nu = 1.5
    assert q.diagnostics is not None
    assert 0.0 < q.diagnostics < 1e-6


def test_cgz_handles_clock_shape_below_one():
    # t/nu < 1 exercises the negative fractional order
    q = price_put_cgz(_spec(50.0, 35.0, 0.10), P2)  # shape 0.4
    ref = price_put_mixture(_spec(50.0, 35.0, 0.10), P2)
    assert q.value == pytest.approx(ref.value, abs=1e-8)


def test_cgz_continuous_across_integer_shapes():
    # maturities a hair on either side of an exact integer shape must
    # price within the quadrature tolerance of the integer branch
    for k in (1, 3):
        t_int = k * P1.nu
        base = price_put_cgz(_spec(18.0, 20.0, t_int), P1).value
        lo = price_put_cgz(_spec(18.0, 20.0, t_int * (1.0 - 1e-6)), P1)
        hi = price_put_cgz(_spec(18.0, 20.0, t_int * (1.0 + 1e-6)), P1)
        assert lo.diagnostics is not None  # fractional path taken
        assert hi.diagnostics is not None
        assert abs(lo.value - base) < 1e-4
        assert abs(hi.value - base) < 1e-4


def test_cgz_rejects_calls():
    with pytest.raises(ValueError):
        price_put_cgz(OptionSpec(18.0, 20.0, 0.5, side="call"), P1)


def test_put_price_monotonicity():
    strikes = np.linspace(12.0, 30.0, 20)
    prices = [price_put_cgz(_spec(18.0, float(k), 0.5), P1).value for k in strikes]
    assert all(b >= a - 1e-12 for a, b in zip(prices, prices[1:]))
    spots = np.linspace(12.0, 30.0, 20)
    prices = [price_put_cgz(_spec(float(s), 20.0, 0.5), P1).value for s in spots]
    assert all(b <= a + 1e-12 for a, b in zip(prices, prices[1:]))


def test_put_price_within_arbitrage_bounds():
    for spot in (10.0, 18.0, 20.0, 35.0):
        q = price_put_cgz(_spec(spot, 20.0, 0.7), P1)
        assert q.value >= max(20.0 - spot, 0.0) - 1e-9
        assert q.value <= 20.0 + 1e-9


# ---------------------------------------------------------------------------
# gamma-mixture route


def test_mixture_reference_prices():
    assert abs(price_put_mixture(_spec(18.0, 20.0, 0.5), P1).value - 2.0492) <= 5e-4
    assert abs(price_put_mixture(_spec(22.0, 20.0, 0.6), P1).value - 0.0919) <= 5e-4
    assert abs(price_put_mixture(_spec(50.0, 35.0, 0.14), P2).value - 0.0034) <= 5e-4


def test_mixture_agrees_with_cgz_on_integer_shapes():
    # both routes are deterministic quadratures; on integer shapes the
    # closed form is exact so the mixture must land on it
    for t in (0.2, 0.4, 0.6, 0.8, 1.0):
        a = price_put_cgz(_spec(18.0, 20.0, t), P1).value
        b = price_put_mixture(_spec(18.0, 20.0, t), P1).value
        assert abs(a - b) <= 1e-7


def test_mixture_shape_one_branch():
    # t = nu makes the clock exponential: the no-split code path
    q = price_put_mixture(_spec(18.0, 20.0, P1.nu), P1)
    assert q.value == pytest.approx(2.010712903966235, abs=1e-9)


def test_mixture_rejects_calls():
    with pytest.raises(ValueError):
        price_put_mixture(OptionSpec(18.0, 20.0, 0.5, side="call"), P1)


# ---------------------------------------------------------------------------
# Fourier route


def test_fourier_agrees_with_mixture_off_strike():
    for spot, t in [(18.0, 0.2), (18.0, 1.0), (22.0, 0.6)]:
        a = price_put_fourier(_spec(spot, 20.0, t), P1).value
        b = price_put_mixture(_spec(spot, 20.0, t), P1).value
        assert abs(a - b) <= 1e-6


def test_fourier_at_the_money_uses_undamped_phase():
    # log-moneyness zero: the oscillatory weight degenerates, exercising
    # the plain semi-infinite integration path
    a = price_put_fourier(_spec(20.0, 20.0, 0.5), P1).value
    b = price_put_mixture(_spec(20.0, 20.0, 0.5), P1).value
    assert abs(a - b) <= 1e-6


def test_fourier_short_maturity_small_price():
    a = price_put_fourier(_spec(50.0, 35.0, 0.10), P2).value
    b = price_put_mixture(_spec(50.0, 35.0, 0.10), P2).value
    assert abs(a - b) <= 1e-6


def test_fourier_explicit_damping_and_moment_bound():
    q = price_put_fourier(_spec(18.0, 20.0, 0.5), P1, damping=2.0)
    assert abs(q.value - 2.0492) <= 5e-4
    # sigma^2 nu a(a+1)/2 >= 1 rejects the exponent outright
    bad = make_vg_params(1.0, 2.0)
    with pytest.raises((ValueError, ArithmeticError, QuadratureAccuracyError)):
        price_put_fourier(_spec(18.0, 20.0, 0.5), bad, damping=10.0)


def test_fourier_failure_names_every_damping_exponent():
    # nu sigma^2 = 2 leaves no exponent of the sweep inside the moment bound
    with pytest.raises(ValueError) as exc:
        price_put_fourier(_spec(18.0, 20.0, 1.0), make_vg_params(1.0, 2.0))
    message = str(exc.value)
    for a in (1.5, 0.75, 2.5):
        assert f"damping {a!r}: violates the moment condition" in message
    assert message.index("1.5") < message.index("0.75") < message.index("2.5")


def test_fourier_ladder_brackets_single_strike_prices():
    strikes, puts = fourier_put_ladder(18.0, 0.5, P1)
    assert strikes.shape == puts.shape == (4096,)
    assert np.all(np.diff(strikes) > 0.0)
    for target in (18.0, 20.0, 23.0):
        i = int(np.argmin(np.abs(strikes - target)))
        single = price_put_fourier(_spec(18.0, float(strikes[i]), 0.5), P1).value
        assert abs(puts[i] - single) <= 5e-4


def test_fourier_ladder_validates_grid():
    with pytest.raises(ValueError):
        fourier_put_ladder(18.0, 0.5, P1, n_points=1000)  # not a power of two
    with pytest.raises(ValueError):
        fourier_put_ladder(18.0, 0.5, P1, n_points=8)


# ---------------------------------------------------------------------------
# Monte Carlo route


def test_mc_brackets_closed_form():
    spec = _spec(18.0, 20.0, 0.5)
    exact = price_put_cgz(spec, P1).value
    q = price_put_mc(spec, P1, McConfig(path_count=1_000_000, seed=42))
    assert q.method == "mc"
    assert q.diagnostics is not None and q.diagnostics > 0.0
    assert abs(q.value - exact) < 3.0 * q.diagnostics


def test_mc_without_antithetic_pairing():
    spec = _spec(18.0, 20.0, 0.5)
    exact = price_put_cgz(spec, P1).value
    q = price_put_mc(spec, P1, McConfig(path_count=1_000_000, seed=4, antithetic=False))
    assert abs(q.value - exact) < 3.0 * q.diagnostics
    paired = price_put_mc(spec, P1, McConfig(path_count=1_000_000, seed=4))
    assert paired.diagnostics < q.diagnostics  # pairing reduces the error bar


def test_mc_is_reproducible_and_seed_sensitive():
    spec = _spec(18.0, 20.0, 0.5)
    a = price_put_mc(spec, P1, McConfig(path_count=50_000, seed=7))
    b = price_put_mc(spec, P1, McConfig(path_count=50_000, seed=7))
    c = price_put_mc(spec, P1, McConfig(path_count=50_000, seed=8))
    assert a.value == b.value
    assert a.value != c.value


def test_mc_chunking_does_not_change_the_estimate():
    # straddling the chunk boundary must not perturb determinism
    spec = _spec(18.0, 20.0, 0.5)
    small = price_put_mc(spec, P1, McConfig(path_count=100_000, seed=3))
    big = price_put_mc(spec, P1, McConfig(path_count=2_100_000, seed=3))
    assert small.value != big.value  # different sample sizes, same law
    exact = price_put_cgz(spec, P1).value
    assert abs(big.value - exact) < 3.0 * big.diagnostics


def test_mc_degenerate_clock_recovers_black_scholes():
    # nu -> 0 freezes the clock at its mean t; compare against the
    # conditional Black-Scholes price at s = t
    params = make_vg_params(0.1, 1e-4)
    spec = _spec(18.0, 20.0, 0.5)
    bs = black_scholes_put(math.log(18.0), 20.0, 0.5, params)
    mix = price_put_mixture(spec, params).value
    assert mix == pytest.approx(bs, abs=2e-4)
    q = price_put_mc(spec, params, McConfig(path_count=500_000, seed=5))
    assert abs(q.value - mix) < 3.0 * q.diagnostics


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(path_count=0)
    with pytest.raises(ValueError):
        McConfig(path_count=100, seed=-1)
    with pytest.raises(ValueError):
        McConfig(path_count=100, seed=2**64)


def test_mc_rejects_calls():
    with pytest.raises(ValueError):
        price_put_mc(OptionSpec(18.0, 20.0, 0.5, side="call"), P1)


# ---------------------------------------------------------------------------
# parity and quote invariants


def test_call_from_put_parity():
    assert call_from_put(2.010712903966235, 18.0, 20.0) == pytest.approx(
        0.010712903966235, rel=1e-10
    )
    # round trip against an independently priced call bound: C <= S
    assert call_from_put(0.1903, 22.0, 20.0) <= 22.0
    with pytest.raises(ValueError):
        call_from_put(-0.01, 18.0, 20.0)


def test_price_quote_invariants():
    with pytest.raises(ValueError):
        PriceQuote(1.0, "magic")
    with pytest.raises(ValueError):
        PriceQuote(-1.0, "cgz")
    with pytest.raises(ValueError):
        PriceQuote(float("nan"), "cgz")
    q = PriceQuote(1.0, "cgz", None, 0.01)
    assert q.value == 1.0 and q.elapsed == 0.01
