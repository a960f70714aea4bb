"""European put prices under the variance gamma model, four independent ways.

``price_put_cgz``
    The closed-form route.  The key observation: a gamma-distributed
    maturity turns the time integral into a Laplace transform, so the
    put price is a fractional lambda-derivative of the Brownian put
    transform m(lam, x) at lam = 1/nu.  With rho = t/nu and
    n <= rho - 1 < n + 1,

        P = (1/nu)^rho / Gamma(rho) * (-1)^{n+1}
            * D^{rho-1-n} m^(n)(lam, log S) |_{lam = 1/nu},

    which is fully closed-form when rho is a positive integer
    (D^0 = -identity), read from the coefficient table of m at level n
    where the float tables reach it and from the Bessel series below
    elsewhere, and needs one well-behaved quadrature otherwise.  For
    rho < 1 the same expression is used with n = 0 and a negative order
    rho - 1.
    The fractional derivative splits exactly: the power-law terms of
    m^(n) go through the power rule, which returns the intrinsic value
    K - S on the in-the-money side, and the exponentially decaying
    remainder through the f''-quadrature with f'' = (exponential part
    of) m^(n+2).  That is a tanh-sinh rule whose nodes lam0/y go
    together, as one numpy array (usually one per price, or one per
    group of prices that share t, sigma and nu), through the
    positive half-integer Bessel series of the exponential part
    (``laplace.log_bessel_series``: the recurrence DLMF 10.29.1 on the
    transform A&S 29.3.84), so no level cap and no cancellation.

``price_put_mixture``
    Direct gamma-weighted average of zero-rate Black-Scholes prices
    over the random clock.

``price_put_fourier``
    Damped-payoff Fourier inversion of the variance gamma
    characteristic function (strike-damped call, put by parity), at one
    damping exponent chosen from the contract inside the moment strip.

``price_put_mc``
    Monte Carlo over the time-changed Brownian motion.

``price`` is the entry point: it picks one of these routes, prices a
call as the put of the same contract plus zero-rate parity
C = P + S - K, and times the pricer.  ``price_cgz_group`` prices with
``cgz`` puts that share their parameters, and shares work inside: the
fractional-t/nu rows of one maturity, such as a strike ladder, share
the quadrature nodes, so the first series call covers every row as one
(rows x nodes) array and each row then converges on its own; the
integer-t/nu rows of one strike, such as a maturity ladder, read one
coefficient table.  ``price_put_cgz`` is its group of one.
"""

from __future__ import annotations

import cmath
import math
import operator
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import gamma as gamma_dist

from .fracderiv import (
    DEFAULT_QUADRATURE,
    QuadratureAccuracyError,
    QuadratureConfig,
    frac_deriv_quadrature,
)
from .laplace import MAX_LEVEL, build_coeff_table, eval_m, log_bessel_series
from .model import OptionSpec, VgParams

__all__ = [
    "METHODS",
    "PriceQuote",
    "McConfig",
    "black_scholes_put",
    "vg_charfunc",
    "price_put_cgz",
    "price_put_mixture",
    "price_put_fourier",
    "fourier_put_ladder",
    "price_put_mc",
    "call_from_put",
    "price",
    "price_cgz_group",
]

METHODS = ("cgz", "mixture", "fourier", "mc")

# t/nu within this relative distance of an integer takes the exact branch
_INTEGER_RTOL = 1e-9

# slack on the hard no-arbitrage bounds (K - S)^+ <= P <= K
_BOUND_SLACK = 1e-9

# Fourier damping exponent: at most this, found in this many bisection
# steps; a = 5 already fails to converge on some moderate contracts
_DAMPING_CAP = 3.0
_DAMPING_STEPS = 30

# paths per Monte Carlo chunk (one RNG substream each)
_MC_CHUNK = 1_000_000

# Phi(-d) = erfc(d sqrt(1/2)) / 2; math.sqrt(0.5) is the correctly rounded
# constant (1 / math.sqrt(2) is one ulp low, which deep-tail puts magnify)
_SQRT_HALF = math.sqrt(0.5)

# the gamma-mixture integral is cut at this clock quantile; the put is at
# most K, so the cut drops at most (1 - quantile) K
_MIXTURE_TAIL = 1e-12


@dataclass(frozen=True)
class PriceQuote:
    """A price with its provenance.

    diagnostics is the method's own accuracy handle: a propagated
    quadrature error estimate, the Monte Carlo standard error, or None
    for exact closed-form evaluation.  elapsed is the wall time in
    seconds that ``price`` measured around the pricer; the put pricers
    leave it 0.  A put must be non-negative; a call from ``price`` may
    dip below zero by the Monte Carlo error of its put.
    """

    value: float
    method: str
    diagnostics: float | None = None
    elapsed: float = 0.0
    side: str = "put"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not math.isfinite(self.value) or (
            self.side == "put" and self.value < -_BOUND_SLACK
        ):
            raise ValueError(f"price must be finite and non-negative, got {self.value!r}")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo knobs: total paths and RNG seed."""

    path_count: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name, v in (("path_count", self.path_count), ("seed", self.seed)):
            try:
                operator.index(v)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {v!r}") from None
        if self.path_count < 1:
            raise ValueError(f"path_count must be >= 1, got {self.path_count}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit an unsigned 64-bit integer, got {self.seed!r}")


def _require_put(spec: OptionSpec) -> None:
    if spec.side != "put":
        raise ValueError(
            f"this routine prices puts; got side={spec.side!r} "
            f"(use call_from_put for calls)"
        )


def _check_put_bounds(value: float, spec: OptionSpec, method: str) -> None:
    intrinsic = max(spec.strike - spec.spot, 0.0)
    slack = _BOUND_SLACK * max(1.0, spec.strike)
    if not (intrinsic - slack <= value <= spec.strike + slack):
        raise ArithmeticError(
            f"{method} price {value!r} violates no-arbitrage bounds "
            f"[{intrinsic!r}, {spec.strike!r}]"
        )


def black_scholes_put(x: float, strike: float, s: float, params: VgParams):
    """Zero-rate Black-Scholes put at log-spot x, variance sigma^2 s.

    With the martingale drift, exp(X(s)) has mean e^x and log-variance
    sigma^2 s, so

        P = K Phi(-d2) - e^x Phi(-d1),
        d1 = (x - log K)/(sigma sqrt(s)) + sigma sqrt(s)/2,
        d2 = d1 - sigma sqrt(s),

    with Phi(-d) = erfc(d/sqrt 2)/2.  The formula runs on Python floats
    (``math``), since the mixture quadrature calls it once per node.
    """
    if s <= 0.0:
        raise ValueError("clock value s must be positive")
    vol = params.sigma * math.sqrt(s)
    d1 = (x - math.log(strike)) / vol + 0.5 * vol
    d2 = d1 - vol
    return 0.5 * (
        strike * math.erfc(d2 * _SQRT_HALF) - math.exp(x) * math.erfc(d1 * _SQRT_HALF)
    )


def vg_charfunc(u, t: float, params: VgParams):
    """Characteristic function of X(gamma(t)) (log return over maturity t):

        E[e^{iu X(gamma(t))}] = (1 - nu (iu mu - sigma^2 u^2 / 2))^{-t/nu}.

    Accepts a real or complex Python scalar, on which it is plain complex
    arithmetic (the Fourier quadrature calls it once per node), or a
    numpy array, on which the same expression runs elementwise.  For the
    complex arguments used by damped Fourier inversion the base stays in
    the right half-plane whenever nu sigma^2 a (a+1) / 2 < 1, so the
    principal power is the correct branch.  The power is taken as
    exp(-(t/nu) log base): Python's ``**`` multiplies repeatedly for an
    integral exponent up to 100, and that product overflows to inf (and
    its reciprocal to nan) where the power itself is tiny.
    """
    w = 1j * u * params.mu - 0.5 * params.sigma**2 * u * u
    base = 1.0 - params.nu * w
    if isinstance(base, np.ndarray):
        return np.exp(-(t / params.nu) * np.log(base))
    return cmath.exp(-(t / params.nu) * cmath.log(base))


# ---------------------------------------------------------------------------
# closed-form route


def _integer_shape(maturity: float, nu: float) -> int | None:
    """The gamma clock's shape t/nu as an int when it lies within 1e-9
    relative of a positive integer, where ``cgz`` prices exactly; else None.
    """
    rho = maturity / nu
    k = round(rho)
    if k >= 1 and abs(rho - k) <= _INTEGER_RTOL * max(1.0, rho):
        return k
    return None


def price_put_cgz(
    spec: OptionSpec,
    params: VgParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> PriceQuote:
    """Closed-form price via the fractional derivative of the put transform.

    Exact (diagnostics None) when t/nu is a positive integer; otherwise
    one tanh-sinh quadrature on (0, 1) with a propagated error estimate.
    Its integrand, the exponential part of m^(n+2), comes from the
    positive Bessel series (DLMF 10.29.1, A&S 29.3.84; see ``laplace``)
    over the whole array of nodes at once, with the factor
    (1/nu)^rho/Gamma(rho) (n+2)! lam^-(n+3) folded into one exponent per
    node, so fractional t/nu prices without overflow up to ~1000 and
    beyond.  At integer t/nu = n + 1 the price reads level n of the
    coefficient table at lam = 1/nu; past ``MAX_LEVEL``, or where a
    level up to n fails the table's C^1 check, it takes the same series
    on the one node 1/nu instead.  The price is that of
    ``price_cgz_group`` on a group of one.
    """
    _require_put(spec)
    exact = _integer_shape(spec.maturity, params.nu) is not None
    quote = (_integer_cgz([spec], params) if exact else _fractional_cgz([spec], params, cfg))[0]
    if isinstance(quote, Exception):
        raise quote
    return quote


def _integer_cgz(puts: list[OptionSpec], params: VgParams) -> list[PriceQuote | Exception]:
    """``cgz`` puts at integer t/nu that share their strike and ``params``,
    one quote or one exception per row.

    Level n = t/nu - 1 of the coefficient table at lam0 = 1/nu prices a
    row, and a deeper table holds the same levels 0..n, so the rows read
    one table built to the deepest level up to ``MAX_LEVEL`` they need.
    Should that build raise, say at a level that fails the C^1 check,
    each row builds its own, so a row reads a table wherever its own
    levels pass and a row that fails fails by itself.  Rows past
    ``MAX_LEVEL``, or whose own table fails, take the Bessel series on
    the one node lam0.
    """
    lam0 = 1.0 / params.nu
    strike = puts[0].strike
    levels = [round(spec.maturity / params.nu) - 1 for spec in puts]
    deepest = max((n for n in levels if n <= MAX_LEVEL), default=None)
    table = None
    if deepest is not None:
        try:
            table = build_coeff_table(lam0, strike, params, max_level=deepest)
        except (ValueError, ArithmeticError) as exc:
            if len(puts) > 1:  # each row alone, so that a row that fails fails by itself
                return [q for spec in puts for q in _integer_cgz([spec], params)]
            if isinstance(exc, ValueError):
                return [exc]
            # a level up to n fails the C^1 check: the row prices on the series
    quotes: list[PriceQuote | Exception] = []
    for spec, n in zip(puts, levels):
        rho = spec.maturity / params.nu
        x = spec.log_spot
        z = x - math.log(strike)
        try:
            if table is not None and n <= MAX_LEVEL:
                # (1/nu)^rho / Gamma(rho), kept in log space (rho may reach ~1000)
                log_pref = rho * math.log(lam0) - gammaln(rho)
                value = math.exp(log_pref) * (-1.0) ** n * eval_m(table, n, x)
            else:
                # here (1/nu)^rho/Gamma(rho) n! lam0^-(n+1) is exactly 1; the
                # power rule on the power-law terms of m^(n) gives exactly the
                # intrinsic value: the factorials and the powers of lam0 cancel
                intrinsic = strike - spec.spot if z <= 0.0 else 0.0
                log_series = log_bessel_series(np.array([lam0]), z, params, n)[0]
                value = intrinsic + math.exp(
                    log_series - params.mu * z / params.sigma**2
                    + math.log(strike * params.sigma / math.sqrt(2.0 * math.pi))
                )
            _check_put_bounds(value, spec, "cgz")
            quotes.append(PriceQuote(value, "cgz", None))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            quotes.append(exc)
    return quotes


def _fractional_cgz(puts: list[OptionSpec], params: VgParams,
                    cfg: QuadratureConfig) -> list[PriceQuote | Exception]:
    """``cgz`` puts that share a fractional t/nu and ``params``, one quote
    or one exception per row.

    Their quadratures share the nodes lam0/y, so the first ``f_second``
    call evaluates the series for every row at once, as a (rows x
    nodes) array; a row that needs a further level evaluates its own new
    nodes (a 2-d first call to ``frac_deriv_quadrature``).  Should that shared
    call raise, each row is priced alone, so that a row that fails
    fails by itself.
    """
    lam0 = 1.0 / params.nu
    rho = puts[0].maturity / params.nu
    n = max(math.floor(rho - 1.0), 0)
    alpha = rho - 1.0 - n
    # (1/nu)^rho / Gamma(rho), kept in log space (rho may reach ~1000),
    # times (n+2)!
    log_fact = rho * math.log(lam0) - gammaln(rho) + math.lgamma(n + 3.0)
    zs, log_coefs, intrinsics = [], [], []
    for spec in puts:
        strike = spec.strike
        z = spec.log_spot - math.log(strike)
        zs.append(z)
        # f'' is (1/nu)^rho/Gamma(rho) |exponential part of m^(n+2)|; its
        # sign (-1)^n times the formula's (-1)^(n+1) is the minus below
        log_coefs.append(
            log_fact - params.mu * z / params.sigma**2
            + math.log(strike * params.sigma / math.sqrt(2.0 * math.pi))
        )
        # the power rule on the power-law terms of m^(n) gives exactly the
        # intrinsic value: the factorials and the powers of lam0 cancel
        intrinsics.append(strike - spec.spot if z <= 0.0 else 0.0)
    group_z, group_coef = np.array(zs), np.array(log_coefs)[:, None]

    def f_second(lam: np.ndarray, row: int | None = None) -> np.ndarray:
        z, coef = (group_z, group_coef) if row is None else (zs[row], log_coefs[row])
        log_series = log_bessel_series(lam, z, params, n + 2)
        return np.exp(coef - (n + 3.0) * np.log(lam) + log_series)

    try:
        settled = frac_deriv_quadrature(f_second, alpha, lam0, cfg)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        if len(puts) == 1:
            return [exc]
        return [q for spec in puts for q in _fractional_cgz([spec], params, cfg)]
    quotes: list[PriceQuote | Exception] = []
    for spec, intrinsic, result in zip(puts, intrinsics, settled):
        if not isinstance(result, Exception):
            d_exp, qerr = result
            value = intrinsic - d_exp
            try:
                _check_put_bounds(value, spec, "cgz")
                result = PriceQuote(value, "cgz", qerr)
            except (ValueError, ArithmeticError) as exc:
                result = exc
        quotes.append(result)
    return quotes


# ---------------------------------------------------------------------------
# gamma-mixture baseline


def price_put_mixture(
    spec: OptionSpec,
    params: VgParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> PriceQuote:
    """Average Black-Scholes over the gamma clock:

        P = int_0^inf BSput(s) dGamma(s; t/nu, 1/nu).

    The integration domain is cut at the 1 - 1e-12 quantile; for shape
    > 1 it is split at the density mode, for shape < 1 the integrable
    s^{shape-1} endpoint singularity is handled by weighted quadrature.
    diagnostics is the summed QUADPACK error estimate plus 1e-12 K, the
    most the cut can drop.
    """
    _require_put(spec)
    shape = spec.maturity / params.nu
    rate = 1.0 / params.nu
    x = spec.log_spot
    strike = spec.strike
    upper = float(gamma_dist.ppf(1.0 - _MIXTURE_TAIL, shape, scale=params.nu))
    log_norm = shape * math.log(rate) - gammaln(shape)

    def density_integrand(s: float) -> float:
        return black_scholes_put(x, strike, s, params) * math.exp(
            log_norm + (shape - 1.0) * math.log(s) - rate * s
        )

    if shape >= 1.0:
        mode = (shape - 1.0) * params.nu
        edges = (0.0, mode, upper) if shape > 1.0 else (0.0, upper)
        pieces = [
            quad(density_integrand, lo, hi,
                 epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                 limit=cfg.max_subdivisions, full_output=True)
            for lo, hi in zip(edges, edges[1:])
        ]
    else:
        # pull the singular factor s^{shape-1} into the quadrature weight;
        # the weighted rule probes s = 0, where the smooth factor tends to
        # the intrinsic value times the normalization
        intrinsic = max(strike - spec.spot, 0.0)

        def smooth_part(s: float) -> float:
            if s <= 0.0:
                return intrinsic * math.exp(log_norm)
            return black_scholes_put(x, strike, s, params) * math.exp(
                log_norm - rate * s
            )

        pieces = [
            quad(smooth_part, 0.0, upper, weight="alg", wvar=(shape - 1.0, 0.0),
                 epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                 limit=cfg.max_subdivisions, full_output=True)
        ]

    value = sum(p[0] for p in pieces)
    err = sum(p[1] for p in pieces) + _MIXTURE_TAIL * strike
    if any(len(p) > 3 for p in pieces) or not math.isfinite(value):
        raise QuadratureAccuracyError(
            "gamma-mixture quadrature did not converge", value, err
        )
    _check_put_bounds(value, spec, "mixture")
    return PriceQuote(value, "mixture", err)


# ---------------------------------------------------------------------------
# Fourier baseline


def _moment_bound_ok(a: float, params: VgParams) -> bool:
    # E[S^{a+1}] < inf, and the damped characteristic function stays on
    # the principal branch along the integration contour
    return 1.0 - params.nu * params.sigma**2 * a * (a + 1.0) / 2.0 > 0.0


def _fourier_damping(spec: OptionSpec, params: VgParams) -> float:
    """Damping exponent for ``price_put_fourier``, chosen from the contract.

    It minimises the log of the damped integrand at v = 0 (Lord & Kahl
    2007), g(a) = a m - (t/nu) log(1 - c a(a+1)) - log(a(a+1)) with
    m = log(S/K) and c = nu sigma^2/2, over the moment strip
    0 < a < (sqrt(1 + 4/c) - 1)/2 capped at ``_DAMPING_CAP``.  g is
    convex, so bisection on the sign of g' finds the minimiser.
    """
    m = spec.log_spot - spec.log_strike
    rho = spec.maturity / params.nu
    c = 0.5 * params.nu * params.sigma**2
    lo, hi = 0.0, min(0.5 * (math.sqrt(1.0 + 4.0 / c) - 1.0), _DAMPING_CAP)
    for _ in range(_DAMPING_STEPS):
        a = 0.5 * (lo + hi)
        q = a * (a + 1.0)
        slope = m + (2.0 * a + 1.0) * (rho * c / (1.0 - c * q) - 1.0 / q)  # g'(a)
        if slope > 0.0:
            hi = a
        else:
            lo = a
    return 0.5 * (lo + hi)


def price_put_fourier(
    spec: OptionSpec,
    params: VgParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> PriceQuote:
    """Damped Fourier inversion: strike-damped call integral, put by parity.

    One inversion, at the exponent of ``_fourier_damping``; off the money
    (|log(S/K)| >= 1e-3) the integral is the cos- and sin-weighted QAWF pair.
    """
    _require_put(spec)
    a = _fourier_damping(spec, params)
    t = spec.maturity
    rel_strike = spec.log_spot - spec.log_strike  # log-moneyness m

    # the sin-weighted QAWF call below revisits the cos-weighted call's nodes
    seen: dict[float, complex] = {}

    def eta(v: float) -> complex:
        value = seen.get(v)
        if value is None:
            u = v - 1j * (a + 1.0)
            denom = a * a + a - v * v + 1j * (2.0 * a + 1.0) * v
            value = seen[v] = vg_charfunc(u, t, params) / denom
        return value

    prefactor = spec.spot * math.exp(a * rel_strike) / math.pi
    # aim one order below the propagated target so the price error sits
    # near cfg.abs_tol * K after multiplication
    epsabs = max(1e-13, cfg.abs_tol * max(1.0, spec.strike) / max(prefactor, 1.0))

    if abs(rel_strike) >= 1e-3:
        omega = abs(rel_strike)
        sign = 1.0 if rel_strike > 0 else -1.0
        rc = quad(lambda v: eta(v).real, 0.0, np.inf, weight="cos", wvar=omega,
                  epsabs=epsabs, limit=cfg.max_subdivisions, limlst=200,
                  full_output=True)
        rs = quad(lambda v: eta(v).imag, 0.0, np.inf, weight="sin", wvar=omega,
                  epsabs=epsabs, limit=cfg.max_subdivisions, limlst=200,
                  full_output=True)
        integral = rc[0] - sign * rs[0]
        err = rc[1] + rs[1]
        failed = len(rc) > 3 or len(rs) > 3
    else:
        def integrand(v: float) -> float:
            return (cmath.exp(1j * rel_strike * v) * eta(v)).real

        r = quad(integrand, 0.0, np.inf,
                 epsabs=epsabs, epsrel=cfg.rel_tol,
                 limit=cfg.max_subdivisions, full_output=True)
        integral, err = r[0], r[1]
        failed = len(r) > 3

    call = prefactor * integral
    err *= prefactor
    if failed or not math.isfinite(call):
        raise QuadratureAccuracyError("Fourier inversion did not converge", call, err)
    value = call - spec.spot + spec.strike
    _check_put_bounds(value, spec, "fourier")
    # inversion noise may dip a hair below zero
    return PriceQuote(max(value, 0.0), "fourier", err)


def fourier_put_ladder(
    spot: float,
    maturity: float,
    params: VgParams,
    n_points: int = 4096,
    grid_step: float = 0.25,
    damping: float = 1.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Price a whole log-strike ladder in one FFT pass.

    Discretizes the damped call integral on a frequency grid of
    ``n_points`` nodes spaced ``grid_step`` apart (Simpson weights) and
    reads prices off the conjugate log-strike grid centered at the
    spot.  Returns (strikes, put_prices), both ascending.  Accuracy is
    grid-limited; use price_put_fourier for a single tight price.
    """
    for name, v in (("spot", spot), ("maturity", maturity), ("grid_step", grid_step)):
        if not (v > 0.0) or not math.isfinite(v):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")
    if not damping > 0.0:
        raise ValueError(f"damping exponent must be positive, got {damping!r}")
    if not _moment_bound_ok(damping, params):
        raise ValueError(f"damping exponent {damping!r} violates the moment condition")
    try:
        n = operator.index(n_points)
    except TypeError:
        raise ValueError(f"n_points must be an integer, got {n_points!r}") from None
    if n < 16 or n & (n - 1):
        raise ValueError(f"n_points must be a power of two >= 16, got {n_points!r}")
    a = damping
    t = maturity
    x = math.log(spot)
    v = grid_step * np.arange(n)
    lam_k = 2.0 * math.pi / (n * grid_step)  # log-strike spacing
    b = 0.5 * n * lam_k
    log_strikes = x - b + lam_k * np.arange(n)

    u = v - 1j * (a + 1.0)
    psi = vg_charfunc(u, t, params) / (
        a * a + a - v * v + 1j * (2.0 * a + 1.0) * v
    )
    # Simpson weights h/3 * (1, 4, 2, 4, ...); the damped-call transform of
    # the log-spot carries the real factor e^{(a+1) x} alongside the phase
    weights = np.full(n, grid_step / 3.0)
    weights[1::2] *= 4.0
    weights[2::2] *= 2.0
    transformed = np.fft.fft(np.exp(1j * v * b) * psi * weights)
    calls = np.exp((a + 1.0) * x - a * log_strikes) / math.pi * transformed.real
    strikes = np.exp(log_strikes)
    puts = calls - spot + strikes
    return strikes, puts


# ---------------------------------------------------------------------------
# Monte Carlo baseline


def price_put_mc(
    spec: OptionSpec,
    params: VgParams,
    cfg: McConfig = McConfig(),
) -> PriceQuote:
    """Simulate the time-changed Brownian motion and average the payoff.

    Paths are drawn in fixed-size chunks, each from its own RNG
    substream spawned from (seed, chunk index), so results do not
    depend on how the chunks are scheduled.  Paths are drawn in
    antithetic pairs: the averaging unit is the pair mean and the
    standard error is estimated across pairs.  The payoff is computed in place in the
    chunk's clock, normal and drift buffers, with the same operations in
    the same order as the plain expression, so it allocates no
    temporaries and gives the same bits.
    """
    _require_put(spec)
    shape = spec.maturity / params.nu
    units_total = (cfg.path_count + 1) // 2
    unit_chunk = _MC_CHUNK // 2
    n_chunks = (units_total + unit_chunk - 1) // unit_chunk
    streams = np.random.SeedSequence(cfg.seed).spawn(n_chunks)

    total = 0.0
    total_sq = 0.0
    done = 0
    for idx in range(n_chunks):
        m = min(unit_chunk, units_total - done)
        rng = np.random.default_rng(streams[idx])
        clock = rng.gamma(shape, scale=params.nu, size=m)
        z = rng.standard_normal(m)
        drift = np.multiply(params.mu, clock)
        # shock = sigma sqrt(clock) in the clock's buffer, shock * z in z's
        np.sqrt(clock, out=clock)
        np.multiply(params.sigma, clock, out=clock)
        np.multiply(clock, z, out=z)
        units = _put_payoff(spec, np.add(drift, z, out=clock))
        pay_anti = _put_payoff(spec, np.subtract(drift, z, out=drift))
        np.add(units, pay_anti, out=units)
        np.multiply(0.5, units, out=units)
        total += float(units.sum())
        total_sq += float(np.square(units, out=z).sum())
        done += m

    mean = total / units_total
    if units_total > 1:
        var = max(total_sq - units_total * mean * mean, 0.0) / (units_total - 1)
        stderr = math.sqrt(var / units_total)
    else:
        stderr = float("inf")
    return PriceQuote(mean, "mc", stderr)


def _put_payoff(spec: OptionSpec, log_return: np.ndarray) -> np.ndarray:
    """max(K - S e^y, 0) for y = log_return, computed in the buffer of y."""
    np.exp(log_return, out=log_return)
    np.multiply(spec.spot, log_return, out=log_return)
    np.subtract(spec.strike, log_return, out=log_return)
    return np.maximum(log_return, 0.0, out=log_return)


def call_from_put(put: float, spot: float, strike: float) -> float:
    """Zero-rate put-call parity: C = P + S - K."""
    if put < 0.0:
        raise ValueError(f"put price must be non-negative, got {put!r}")
    return put + spot - strike


# ---------------------------------------------------------------------------
# entry point


def price(
    spec: OptionSpec,
    params: VgParams,
    method: str = "cgz",
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    mc: McConfig = McConfig(),
) -> PriceQuote:
    """Price ``spec`` (put or call) with one of ``METHODS``, timed.

    A call is the put of the same contract plus parity
    (``call_from_put``).  ``cfg`` reaches the three deterministic
    routes and ``mc`` the Monte Carlo one.  The quote's ``elapsed`` is
    the wall time of the put pricer on a monotonic clock.
    """
    put = spec if spec.side == "put" else replace(spec, side="put")
    t0 = time.perf_counter()
    if method == "cgz":
        quote = price_put_cgz(put, params, cfg)
    elif method == "mixture":
        quote = price_put_mixture(put, params, cfg)
    elif method == "fourier":
        quote = price_put_fourier(put, params, cfg)
    elif method == "mc":
        quote = price_put_mc(put, params, mc)
    else:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    elapsed = time.perf_counter() - t0
    value = quote.value if put is spec else call_from_put(quote.value, spec.spot, spec.strike)
    return PriceQuote(value, method, quote.diagnostics, elapsed, spec.side)


def price_cgz_group(
    specs: list[OptionSpec],
    params: VgParams,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> list[PriceQuote | Exception]:
    """Price with ``cgz`` puts that share ``params``, sharing the work
    that rows of one maturity or one strike have in common.

    Fractional-t/nu rows of one maturity, such as a strike ladder, share
    the quadrature nodes lam0/y: the first series call evaluates every
    row at once and one quadrature runs per row from there on.
    Integer-t/nu rows of one strike, such as a maturity ladder, read one
    coefficient table.  Each quote has the value and diagnostics that
    ``price`` gives the row.  Returns, in row order, a quote or the
    ``ValueError``, ``ArithmeticError`` or ``RuntimeError`` that row
    raised.  Each batch of rows that share work is timed on its own,
    and each of its quotes' ``elapsed`` is that time split evenly over
    the batch, so a row that shares nothing reports its own time.
    """
    batches: dict[tuple, list[int]] = {}
    quotes: list[PriceQuote | Exception | None] = [None] * len(specs)
    for i, spec in enumerate(specs):
        _require_put(spec)
        try:
            exact = _integer_shape(spec.maturity, params.nu) is not None
        except OverflowError as exc:  # t/nu overflows to inf
            quotes[i] = exc
            continue
        batches.setdefault((exact, spec.strike if exact else spec.maturity), []).append(i)
    for (exact, _), rows in batches.items():
        batch = [specs[i] for i in rows]
        t0 = time.perf_counter()
        got = _integer_cgz(batch, params) if exact else _fractional_cgz(batch, params, cfg)
        elapsed = (time.perf_counter() - t0) / len(rows)
        for i, q in zip(rows, got):
            quotes[i] = q if isinstance(q, Exception) else replace(q, elapsed=elapsed)
    return quotes
