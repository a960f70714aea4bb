"""Put pricing under the variance-gamma model, four routes cross-checked.

The closed-form route (``cgz``) is pinned against reference prices and
required to agree with two structurally independent computations — the
gamma-weighted Black-Scholes average and damped Fourier inversion — to
far tighter than the reference-table rounding.  Monte Carlo acts as a
statistical backstop.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from vgpricer import (
    McConfig,
    OptionSpec,
    PriceQuote,
    QuadratureConfig,
    VgParams,
    black_scholes_put,
    call_from_put,
    fourier_put_ladder,
    price,
    price_cgz_group,
    price_put_cgz,
    price_put_fourier,
    price_put_mc,
    price_put_mixture,
    vg_charfunc,
)
from vgpricer import pricing

P1 = VgParams(0.1, 0.2)    # reference set: near-strike puts
P2 = VgParams(0.2, 0.25)   # deep out-of-the-money, short maturity
P3 = VgParams(0.2, 0.5)


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


def test_black_scholes_put_limits():
    # vanishing variance pins the intrinsic value
    assert black_scholes_put(math.log(10.0), 20.0, 1e-12, P1) == pytest.approx(10.0, rel=1e-9)
    assert black_scholes_put(math.log(40.0), 20.0, 1e-12, P1) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        black_scholes_put(math.log(18.0), 20.0, 0.0, P1)
    with pytest.raises(ValueError):
        black_scholes_put(math.log(18.0), 20.0, -1.0, P1)


def test_black_scholes_put_against_mpmath():
    # 40-digit reference from the exact float inputs; clock values down to
    # 1e-10, where d1 and d2 run far into the tails
    rng = np.random.default_rng(2024)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(500):
            strike = float(rng.uniform(1.0, 200.0))
            x = math.log(strike) + float(rng.uniform(math.log(0.2), math.log(5.0)))
            s = math.exp(float(rng.uniform(math.log(1e-10), math.log(50.0))))
            params = VgParams(float(rng.uniform(0.05, 1.0)), 0.3)
            vol = mpmath.mpf(params.sigma) * mpmath.sqrt(s)
            d1 = (mpmath.mpf(x) - mpmath.log(strike)) / vol + vol / 2
            want = strike * mpmath.ncdf(vol - d1) - mpmath.exp(x) * mpmath.ncdf(-d1)
            got = black_scholes_put(x, strike, s, params)
            worst = max(worst, float(abs(got - want)) / strike)
    assert worst <= 1e-15


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
            ) * gamma_dist.pdf(s, t / P1.nu, scale=P1.nu)

        def integrand_im(s):
            return math.exp(-0.5 * u * u * P1.sigma**2 * s) * math.sin(
                u * P1.mu * s
            ) * gamma_dist.pdf(s, t / P1.nu, scale=P1.nu)

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


def test_charfunc_at_an_integral_exponent_stays_finite():
    # t/nu = 100: a repeated product of the base would overflow to inf
    # and return nan, where the power itself is ~1e-318
    u = 500.0 - 2.5j
    params = VgParams(0.2, 0.3)
    got = vg_charfunc(u, 30.0, params)
    with mpmath.workdps(40):
        w = 1j * mpmath.mpc(u) * mpmath.mpf(params.mu) - mpmath.mpf(0.2) ** 2 * mpmath.mpc(u) ** 2 / 2
        want = complex((1 - mpmath.mpf(0.3) * w) ** -100)
    assert got == pytest.approx(want, rel=1e-9)
    arr = vg_charfunc(np.array([u, 1.0]), 30.0, params)
    assert np.isfinite(arr).all()
    assert arr[0] == pytest.approx(got, rel=1e-14)


def test_charfunc_on_the_fourier_contour_against_mpmath():
    # u = v - i(a+1) for damping exponents across the Fourier route's
    # range (0, 3], on parameters inside each exponent's moment bound
    rng = np.random.default_rng(2025)
    worst = 0.0
    with mpmath.workdps(40):
        for a in (0.1, 0.75, 1.5, 2.5, 3.0):
            done = 0
            while done < 100:
                sigma = float(rng.uniform(0.05, 0.6))
                nu = float(rng.uniform(0.05, 1.0))
                if nu * sigma**2 * a * (a + 1.0) / 2.0 >= 1.0:
                    continue
                params = VgParams(sigma, nu)
                t = nu * float(rng.uniform(0.05, 25.0))
                v = math.exp(float(rng.uniform(-5.0, 6.0)))
                got = vg_charfunc(complex(v, -(a + 1.0)), t, params)
                u = mpmath.mpc(v, -(a + 1.0))
                w = 1j * u * mpmath.mpf(params.mu) - mpmath.mpf(sigma) ** 2 * u * u / 2
                want = (1 - mpmath.mpf(nu) * w) ** (-mpmath.mpf(t) / mpmath.mpf(nu))
                worst = max(worst, float(abs(got - want) / abs(want)))
                done += 1
    assert worst <= 1e-12


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


def test_cgz_group_prices_fractional_puts_of_one_maturity():
    # and any other cgz puts that share the parameters, in row order: the
    # fractional rows of one maturity share quadrature nodes and the
    # integer rows of one strike one table, and each such batch is timed
    # alone, its time split evenly over its rows
    params = VgParams(0.2, 0.3)
    ladder = [_spec(100.0, strike, 0.765) for strike in (90.0, 100.0, 110.0)]  # t/nu 2.55
    exact = [_spec(100.0, 90.0, 0.3 * k) for k in (2, 40, 102)]  # the last past MAX_LEVEL
    specs = [ladder[0], exact[0], _spec(100.0, 100.0, 0.9), ladder[1], exact[1],
             ladder[2], exact[2], _spec(100.0, 110.0, 0.6)]
    quotes = price_cgz_group(specs, params)
    assert [(q.value, q.diagnostics) for q in quotes] == [
        (q.value, q.diagnostics) for q in (price_put_cgz(s, params) for s in specs)]
    for batch in ([0, 3, 5], [1, 4, 6], [2], [7]):
        elapsed = {quotes[i].elapsed for i in batch}
        assert len(elapsed) == 1 and min(elapsed) > 0.0
    assert price_cgz_group([], params) == []
    with pytest.raises(ValueError):
        price_cgz_group([OptionSpec(100.0, 100.0, 0.765, side="call")], params)
    # a row fails alone, with the exception that price_put_cgz raises: t/nu
    # overflows at nu 1e-320, and 1/nu at nu 1e-310 (the table and the
    # series each reject lam0 = inf in their own words)
    for nu, maturities in ((1e-320, (1.0, 2.0)), (1e-310, (3e-310, 6e-310, 5e-308))):
        specs = [_spec(100.0, 90.0, t) for t in maturities]
        alone = []
        for spec in specs:
            with pytest.raises((ValueError, ArithmeticError)) as exc:
                price_put_cgz(spec, VgParams(0.2, nu))
            alone.append((exc.type, str(exc.value)))
        got = price_cgz_group(specs, VgParams(0.2, nu))
        assert [(type(q), str(q)) for q in got] == alone
    assert alone[0] != alone[2]


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


@pytest.mark.parametrize("t", [0.1, P1.nu, 0.5], ids=["shape<1", "shape=1", "shape>1"])
def test_mixture_error_estimate_covers_the_cut(t):
    # the integral stops at the 1 - 1e-12 clock quantile, and the put is
    # at most K, so the estimate must allow for 1e-12 K
    q = price_put_mixture(_spec(18.0, 20.0, t), P1)
    assert q.diagnostics >= 1e-12 * 20.0


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
    q = price_put_fourier(_spec(18.0, 20.0, 0.5), P1)
    assert abs(q.value - 2.0492) <= 5e-4
    # sigma^2 nu a(a+1)/2 >= 1 rejects an explicit ladder exponent outright
    with pytest.raises(ValueError):
        fourier_put_ladder(18.0, 0.5, VgParams(1.0, 2.0), damping=10.0)
    # the chosen exponent lies inside the moment strip, capped at 3
    rng = np.random.default_rng(18)
    for _ in range(200):
        params = VgParams(float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.001, 5.0)))
        spec = _spec(100.0 * math.exp(rng.uniform(-3.0, 3.0)), 100.0,
                     params.nu * math.exp(rng.uniform(-7.0, 7.6)))
        c = params.nu * params.sigma**2 / 2.0
        a = pricing._fourier_damping(spec, params)
        assert 0.0 < a < min((math.sqrt(1.0 + 4.0 / c) - 1.0) / 2.0, 3.0)
        assert pricing._moment_bound_ok(a, params)


def test_fourier_evaluates_each_node_once(monkeypatch):
    # off the money the sin-weighted QAWF call revisits the cos-weighted
    # call's nodes; the inversion evaluates the integrand once per node
    seen = []
    charfunc = pricing.vg_charfunc

    def recording(u, t, params):
        seen.append(u)
        return charfunc(u, t, params)

    monkeypatch.setattr(pricing, "vg_charfunc", recording)
    spec, params = _spec(90.0, 100.0, 0.73), VgParams(0.3, 0.4)
    q = price_put_fourier(spec, params)
    assert len(seen) > 100
    assert len(set(seen)) == len(seen)
    monkeypatch.undo()
    assert q == price_put_fourier(spec, params)


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
    # int() would price 4096.9 as 4096 points
    with pytest.raises(ValueError, match="must be an integer"):
        fourier_put_ladder(18.0, 0.5, P1, n_points=4096.9)
    # unchecked, a negative step gives descending strikes, a negative
    # maturity negative puts, damping 0 NaN puts and damping -0.5 puts
    # down to -17.99 (both dampings pass the moment condition)
    for bad in ({"grid_step": -0.25}, {"grid_step": 0.0}, {"maturity": -0.5},
                {"maturity": 0.0}, {"spot": -18.0}, {"spot": math.inf},
                {"damping": 0.0}, {"damping": -0.5}):
        args = {"spot": 18.0, "maturity": 0.5, **bad}
        with pytest.raises(ValueError, match="must be positive"):
            fourier_put_ladder(params=P1, **args)


# ---------------------------------------------------------------------------
# Monte Carlo route


def test_mc_brackets_closed_form():
    spec = _spec(18.0, 20.0, 0.5)
    exact = price_put_cgz(spec, P1).value
    q = price_put_mc(spec, P1, McConfig(path_count=1_000_000, seed=42))
    assert q.method == "mc"
    assert q.diagnostics is not None and q.diagnostics > 0.0
    assert abs(q.value - exact) < 3.0 * q.diagnostics


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


# float.hex of (value, standard error) for seed 11 + contract index,
# frozen so that any drift of the simulated payoff in the last bits shows
MC_CONTRACTS = [
    (_spec(18.0, 20.0, 0.5), P1),
    (_spec(22.0, 20.0, 1.0), P1),
    (_spec(100.0, 130.0, 0.1), P2),
    (_spec(100.0, 80.0, 0.35), P3),
]
MC_FROZEN = {
    # (contract, path_count, antithetic): (value, stderr); paths always
    # come in antithetic pairs
    (0, 100_000, True): ("0x1.06440b57e1a22p+1", "0x1.397b85d824e45p-11"),
    (0, 1_000_001, True): ("0x1.064ca30f6ac9fp+1", "0x1.8d2eaab790710p-13"),
    (1, 100_000, True): ("0x1.83294d90ad10fp-3", "0x1.c204fa9df9542p-10"),
    (1, 1_000_001, True): ("0x1.855bed8d96a36p-3", "0x1.1e19d9aac739dp-11"),
    (2, 100_000, True): ("0x1.e0614f5760152p+4", "0x1.d4084df63e189p-10"),
    (2, 1_000_001, True): ("0x1.e05fc635eb69bp+4", "0x1.24dd1f7376a3cp-11"),
    (3, 100_000, True): ("0x1.28dd6497a9191p-2", "0x1.8ddfa3f7a2461p-8"),
    (3, 1_000_001, True): ("0x1.2de73a94d00aap-2", "0x1.fbac58046d436p-10"),
}


@pytest.mark.parametrize("key", sorted(MC_FROZEN), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_mc_values_are_frozen(key):
    # 1 000 001 antithetic paths take two chunks (500 001 pairs)
    idx, paths, _ = key
    spec, params = MC_CONTRACTS[idx]
    q = price_put_mc(spec, params, McConfig(paths, seed=11 + idx))
    assert (q.value.hex(), q.diagnostics.hex()) == MC_FROZEN[key]


# fractional-t/nu cgz, frozen as float.hex so that any change to the
# tanh-sinh rule or the Bessel series in the last bits shows; each row
# also fixes how many series evaluations (f_second calls) it takes
TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)
CGZ_FRACTIONAL_FROZEN = [
    # (S, K, t), (sigma, nu), cfg: value, diagnostics, series calls
    # t/nu 0.06 at the money: the first call's nodes past _T_CORE are used
    ((100.0, 100.0, 0.021), (0.25, 0.35), None,
     "0x1.29194a18cb64fp-1", "0x1.291b020b316f6p-47", 1),
    # t/nu 0.05 off the money: settles at level 4, taken in the first call
    ((110.0, 100.0, 0.03), (0.15, 0.6), None,
     "0x1.aad49c70bf793p-5", "0x1.aad8e91d6be14p-51", 1),
    ((90.0, 100.0, 0.12), (0.2, 0.3), None,
     "0x1.4a4cf300ffc39p+3", "0x1.d23bea59f078bp-37", 1),
    # t/nu 0.02 at a tight tolerance: level 5 takes a second call
    ((99.9, 100.0, 0.01), (0.3, 0.5), TIGHT,
     "0x1.8700da9e716b7p-2", "0x1.209ae67f71873p-48", 2),
    ((95.0, 100.0, 6.09), (0.2, 0.3), None,
     "0x1.57c68289fb1a0p+4", "0x1.97a3e38bef2ddp-39", 1),
    ((100.0, 100.0, 6.15), (0.2, 0.3), None,
     "0x1.3764f6538d66ap+4", "0x1.820280ad57e43p-40", 1),
    # t/nu 497.3: order 0.3 >= 0 does not evaluate level 4 ahead, and
    # this row needs it
    ((104.0, 100.0, 9.946), (0.2, 0.02), None,
     "0x1.749a422d50b91p+4", "0x1.3bcae6c18b9f3p-39", 2),
    # deep out of the money: a sqrt(s) passes 600, so the series shifts
    ((1000.0, 100.0, 2.5), (0.1, 0.3), None,
     "0x1.6c52651730e2cp-60", "0x1.5feb43632cf6ep-94", 1),
]


@pytest.mark.parametrize("row", CGZ_FRACTIONAL_FROZEN, ids=lambda r: "-".join(map(str, r[0])))
def test_fractional_cgz_values_are_frozen(row, monkeypatch):
    (spot, strike, t), (sigma, nu), cfg, value, diag, want_calls = row
    calls = []
    series = pricing.log_bessel_series

    def counted(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(pricing, "log_bessel_series", counted)
    q = price_put_cgz(_spec(spot, strike, t), VgParams(sigma, nu), cfg or QuadratureConfig())
    assert (q.value.hex(), q.diagnostics.hex()) == (value, diag)
    assert len(calls) == want_calls


def test_mc_degenerate_clock_recovers_black_scholes():
    # nu -> 0 freezes the clock at its mean t; compare against the
    # conditional Black-Scholes price at s = t
    params = VgParams(0.1, 1e-4)
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
    # unchecked, numpy raises TypeError only once the route draws
    for bad in ({"path_count": 2.5}, {"seed": 1.5}, {"seed": 3.0}, {"seed": "3"}):
        with pytest.raises(ValueError, match="must be an integer"):
            McConfig(**bad)


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
    # a call may dip below zero by Monte Carlo noise; a put may not
    assert PriceQuote(-1e-4, "mc", 1e-4, 0.0, "call").value == -1e-4
    with pytest.raises(ValueError):
        PriceQuote(float("inf"), "mc", None, 0.0, "call")


# ---------------------------------------------------------------------------
# the entry point


PUT_PRICERS = {
    "cgz": lambda spec, params: price_put_cgz(spec, params),
    "mixture": lambda spec, params: price_put_mixture(spec, params),
    "fourier": lambda spec, params: price_put_fourier(spec, params),
    "mc": lambda spec, params: price_put_mc(spec, params, McConfig(20_000, seed=3)),
}


@pytest.mark.parametrize("method", sorted(PUT_PRICERS))
def test_price_matches_the_put_pricer_and_parity(method):
    params = P1
    mc = McConfig(20_000, seed=3)
    for t in (0.2, 0.3):  # integer and fractional t/nu
        want = PUT_PRICERS[method](_spec(18.0, 20.0, t), params)
        assert want.elapsed == 0.0  # the pricers leave timing to price()
        put = price(_spec(18.0, 20.0, t), params, method, mc=mc)
        assert (put.value, put.method, put.diagnostics, put.side) == (
            want.value, method, want.diagnostics, "put")
        assert put.elapsed > 0.0
        call = price(OptionSpec(18.0, 20.0, t, side="call"), params, method, mc=mc)
        assert call.value == call_from_put(want.value, 18.0, 20.0)
        assert (call.diagnostics, call.side) == (want.diagnostics, "call")


def test_price_passes_its_options_through():
    spec = _spec(18.0, 20.0, 0.3)
    loose = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-8)
    assert price(spec, P1, "mixture", loose).value == price_put_mixture(spec, P1, loose).value
    assert price(spec, P1, "mc", mc=McConfig(5_000, seed=9)).value == (
        price_put_mc(spec, P1, McConfig(5_000, seed=9)).value)


def test_price_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="method must be one of"):
        price(_spec(18.0, 20.0, 0.3), P1, "magic")


def test_deep_in_the_money_mc_call_may_read_below_zero():
    spec = OptionSpec(10.0, 20.0, 0.1, side="call")
    q = price(spec, P1, "mc", mc=McConfig(20_000, seed=3))
    assert -3.0 * q.diagnostics < q.value < 0.0
