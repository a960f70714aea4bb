"""Laplace transform of the Brownian put value and its lambda-derivatives.

Let u(s, x) = E[(K - exp(X(s)))^+ | X(0) = x] be the zero-rate put value
under the Brownian component alone (drift mu, volatility sigma).  Its
Laplace transform in time,

    m(lam, x) = int_0^inf u(s, x) exp(-lam s) ds,

solves the second-order ODE

    lam m - (K - e^x)^+ = mu m' + (sigma^2/2) m''

with m -> K/lam as x -> -inf and m -> 0 as x -> +inf.  Writing
z = x - log K, the solution is piecewise exponential around the strike:

    m(lam, x) = A e^{theta1 z} + (K - e^x)/lam      for z <= 0,
    m(lam, x) = A e^{theta2 z}                      for z >  0,

where theta1 > 0 > theta2 are the roots of sigma^2 th^2/2 + mu th = lam
and A = K / (lam (theta1 - theta2)) makes the two branches C^1 at the
strike.

Every lambda-derivative m^(n) = d^n m / d lam^n keeps this shape with
polynomial prefactors in z:

    m^(n)(lam, x) = P_n(z) e^{theta1 z} + (-1)^n n! (K - e^x)/lam^{n+1}
                                                     for z <= 0,
    m^(n)(lam, x) = Q_n(z) e^{theta2 z}              for z >  0,

deg P_n = deg Q_n = n.  Differentiating the ODE n times yields

    lam m^(n) + n m^(n-1) = mu (m^(n))' + (sigma^2/2) (m^(n))'',

and matching powers of z gives, per branch i with w_i = mu + sigma^2
theta_i (so w_1 = +sqrt(mu^2 + 2 lam sigma^2), w_2 = -sqrt(...), never
zero), the back-substitution recursion for the coefficients a_{ij} of
z^{j-1}:

    n a_{ij}^{(n-1)} = j w_i a_{i(j+1)}^{(n)}
                       + (sigma^2/2) (j+1) j a_{i(j+2)}^{(n)},   j = n..1,

solved downward from a_{i(n+1)}^{(n)} = a_{in}^{(n-1)} / w_i.  The two
constant terms are equal (value matching at z = 0; the power-law terms
vanish there) and are fixed by slope matching:

    a^{(n)}_{11} = a^{(n)}_{21}
                 = [a^{(n)}_{22} - a^{(n)}_{12} + (-1)^n n! K / lam^{n+1}]
                   / (theta1 - theta2).

The recentered variable z is essential: coefficients on e^{theta_i x}
instead of e^{theta_i z} would carry K^{-theta_i} factors, which
overflow already at theta ~ 30 (typical for lam = 5, sigma = 0.1).

Coefficient tables are built level by level in double precision up to
``MAX_LEVEL``, for one lam or for a numpy array of them at once (the
fractional-derivative quadrature needs m^(n) at every node lam0/y of
its rule).  The power-law factor (-1)^n n!/lam^{n+1} is carried as a
running product, so it underflows gracefully at huge lam instead of
overflowing in lam^{n+1}.  If the C^1 slope residual of a freshly built
level exceeds 1e-9 relative (deep factorial cancellation at high
levels), the stack is rebuilt in extended precision via mpmath, for
each offending lam separately, and flagged in ``extended``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import VgParams

__all__ = [
    "ThetaRoots",
    "CoeffTable",
    "MAX_LEVEL",
    "theta_roots",
    "base_level",
    "extend_to_level",
    "build_coeff_table",
    "eval_m",
    "eval_m_dx",
    "eval_m_exponential_part",
]

MAX_LEVEL = 100

# relative C^1 slope residual above which a level triggers the
# extended-precision rebuild
_C1_RTOL = 1e-9

_MP_DPS = 60


@dataclass(frozen=True)
class ThetaRoots:
    """Roots of (sigma^2/2) th^2 + mu th = lam, ordered theta1 > 0 > theta2.

    Floats, or arrays matching the lam array of a vectorised table.
    """

    theta1: float | np.ndarray
    theta2: float | np.ndarray


def theta_roots(lam: float, params: VgParams) -> ThetaRoots:
    """Solve the characteristic equation of the Laplace-domain ODE.

    Vieta: theta1 + theta2 = -2 mu / sigma^2,
           theta1 * theta2 = -2 lam / sigma^2.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    sig2 = params.sigma * params.sigma
    disc = math.sqrt(params.mu * params.mu + 2.0 * lam * sig2)
    return ThetaRoots(
        theta1=(-params.mu + disc) / sig2,
        theta2=(-params.mu - disc) / sig2,
    )


@dataclass(frozen=True)
class CoeffTable:
    """Polynomial coefficients of m^(0..N) in the recentered variable z.

    ``levels_itm[n]`` / ``levels_otm[n]`` hold the coefficients
    (a_{i1}, ..., a_{i(n+1)}) of z^0..z^n multiplying e^{theta_i z} on
    the in-the-money branch (x <= log K, i = 1) and the out-of-the-money
    branch (x > log K, i = 2).  The power-law terms on the ITM branch,
    (-1)^n n! (K - e^x)/lam^{n+1}, are ``power_law[n] * (K - e^x)``.
    When ``lam`` is a 1-d array, every coefficient, root and power-law
    factor is an array over it, and ``extended`` flags each lam rebuilt
    in extended precision.  Immutable; extension returns a new table.
    """

    lam: float | np.ndarray
    strike: float
    params: VgParams
    roots: ThetaRoots
    levels_itm: tuple[tuple, ...]
    levels_otm: tuple[tuple, ...]
    power_law: tuple
    extended: bool | np.ndarray = False

    @property
    def max_level(self) -> int:
        return len(self.levels_itm) - 1

    def c1_residual(self, n: int):
        """Relative mismatch of the two branch slopes at z = 0 at level n
        (an array over lam for a vectorised table)."""
        _require_level(self, n)
        s1, s2 = _branch_slopes(self, n)
        if isinstance(s1, np.ndarray):
            scale = np.maximum(np.maximum(abs(s1), abs(s2)), 1e-300)
        else:
            scale = max(abs(s1), abs(s2), 1e-300)
        return abs(s1 - s2) / scale


def _require_level(table: CoeffTable, n: int) -> None:
    if n < 0:
        raise ValueError(f"derivative level must be >= 0, got {n}")
    if n > table.max_level:
        raise ValueError(
            f"table holds levels 0..{table.max_level}, level {n} requested; "
            f"extend it first"
        )


def _branch_slopes(table: CoeffTable, n: int):
    """d/dx of both branches at z = 0 (the C^1 matching quantities)."""
    a1 = table.levels_itm[n]
    a2 = table.levels_otm[n]
    pw_slope = table.power_law[n] * table.strike
    lin1 = a1[1] if n >= 1 else 0.0
    lin2 = a2[1] if n >= 1 else 0.0
    s1 = a1[0] * table.roots.theta1 + lin1 - pw_slope
    s2 = a2[0] * table.roots.theta2 + lin2
    return s1, s2


def _next_tail(prev, jw, sig2, n):
    """Coefficients a_{i2}..a_{i(n+1)} of level n from level n-1 (branch i).

    ``jw[j]`` is j * w_i.  Index k of the returned list holds a_{i(k+1)};
    slot 0 (the constant a_{i1}) is filled by C^1 matching afterwards.
    Works unchanged on floats, numpy arrays and mpmath numbers.
    """
    cur = [None] * (n + 1)
    for j in range(n, 0, -1):
        t = n * prev[j - 1]
        if j + 1 <= n:
            t = t - 0.5 * sig2 * (j + 1) * j * cur[j + 1]
        cur[j] = t / jw[j]
    return cur


def _power_law(lam, max_n: int) -> list:
    """(-1)^n n! / lam^(n+1) for n = 0..max_n as a running product, so no
    lam^(n+1) can overflow; generic over float / numpy array / mpmath."""
    powers = [1.0 / lam]
    for n in range(1, max_n + 1):
        powers.append(powers[-1] * -n / lam)
    return powers


def _build_levels(lam, strike, params: VgParams, max_n: int, mp_ctx=None):
    """Levels 0..max_n of both branches; generic over float / numpy
    array / mpmath."""
    if mp_ctx is None:
        mu = params.mu
        sig2 = params.sigma * params.sigma
        lam_ = lam
        strike_ = strike
    else:
        mu = mp_ctx.mpf(params.mu)
        sig2 = mp_ctx.mpf(params.sigma) ** 2
        lam_ = mp_ctx.mpf(lam)
        strike_ = mp_ctx.mpf(strike)
    disc = (mu * mu + 2.0 * lam_ * sig2) ** 0.5
    th1 = (-mu + disc) / sig2
    th2 = (-mu - disc) / sig2
    w1 = mu + sig2 * th1  # = +disc
    w2 = mu + sig2 * th2  # = -disc
    if isinstance(w1, np.ndarray):
        degenerate = not (w1.all() and w2.all())
    else:
        degenerate = w1 == 0 or w2 == 0
    if degenerate:
        # impossible for lam > 0 (w_i = +-sqrt(mu^2 + 2 lam sigma^2))
        raise ArithmeticError("degenerate characteristic roots: mu + sigma^2 theta = 0")
    jw1 = [j * w1 for j in range(max_n + 1)]
    jw2 = [j * w2 for j in range(max_n + 1)]
    powers = _power_law(lam_, max_n)

    levels1: list[list] = []
    levels2: list[list] = []
    for n in range(max_n + 1):
        if n == 0:
            a0 = strike_ / (lam_ * (th1 - th2))
            cur1, cur2 = [a0], [a0]
        else:
            cur1 = _next_tail(levels1[n - 1], jw1, sig2, n)
            cur2 = _next_tail(levels2[n - 1], jw2, sig2, n)
            a = (cur2[1] - cur1[1] + powers[n] * strike_) / (th1 - th2)
            cur1[0] = a
            cur2[0] = a
        levels1.append(cur1)
        levels2.append(cur2)
    return th1, th2, levels1, levels2


def _extended_levels(lam: float, strike: float, params: VgParams, max_n: int):
    """_build_levels at _MP_DPS digits, rounded back to floats."""
    import mpmath

    with mpmath.workdps(_MP_DPS):
        th1, th2, lv1, lv2 = _build_levels(
            lam, strike, params, max_n, mp_ctx=mpmath
        )
        pw = _power_law(mpmath.mpf(lam), max_n)
        return (
            float(th1),
            float(th2),
            [[float(c) for c in cs] for cs in lv1],
            [[float(c) for c in cs] for cs in lv2],
            [float(p) for p in pw],
        )


def _check_lam(lam) -> None:
    if isinstance(lam, np.ndarray):
        if lam.ndim != 1 or not np.all((lam > 0.0) & np.isfinite(lam)):
            raise ValueError("lam must be a 1-d array of positive finite values")
    elif not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"lam must be positive and finite, got {lam!r}")


def build_coeff_table(lam, strike: float, params: VgParams, max_level: int = 0) -> CoeffTable:
    """Build the coefficient table for levels 0..max_level at this lam.

    ``lam`` is a positive float, or a 1-d numpy array of them: one
    recursion then serves every entry.  Double precision first; any lam
    whose C^1 slope residual exceeds tolerance at some level is rebuilt
    in extended precision and flagged in ``extended``.
    """
    _check_lam(lam)
    if not (strike > 0.0) or not math.isfinite(strike):
        raise ValueError(f"strike must be positive and finite, got {strike!r}")
    if not 0 <= max_level <= MAX_LEVEL:
        raise ValueError(
            f"level must be between 0 and {MAX_LEVEL}, got {max_level}"
        )

    def table(th1, th2, lv1, lv2, pw, extended):
        return CoeffTable(
            lam=lam,
            strike=strike,
            params=params,
            roots=ThetaRoots(th1, th2),
            levels_itm=tuple(tuple(c) for c in lv1),
            levels_otm=tuple(tuple(c) for c in lv2),
            power_law=tuple(pw),
            extended=extended,
        )

    built = _build_levels(lam, strike, params, max_level) + (_power_law(lam, max_level),)
    if not isinstance(lam, np.ndarray):
        plain = table(*built, extended=False)
        if all(plain.c1_residual(n) <= _C1_RTOL for n in range(max_level + 1)):
            return plain
        # factorial cancellation broke double precision; redo in mpmath once
        return table(*_extended_levels(lam, strike, params, max_level), extended=True)

    ok = np.ones(lam.shape, dtype=bool)
    plain = table(*built, extended=~ok)
    for n in range(max_level + 1):
        ok &= plain.c1_residual(n) <= _C1_RTOL
    if ok.all():
        return plain
    th1, th2, lv1, lv2, pw = built
    # every coefficient is a fresh array except the constant shared by
    # both branches, so writing each node in place is safe
    for i in np.flatnonzero(~ok):
        e_th1, e_th2, e_lv1, e_lv2, e_pw = _extended_levels(
            float(lam[i]), strike, params, max_level
        )
        th1[i], th2[i] = e_th1, e_th2
        for n in range(max_level + 1):
            pw[n][i] = e_pw[n]
            for k in range(n + 1):
                lv1[n][k][i] = e_lv1[n][k]
                lv2[n][k][i] = e_lv2[n][k]
    return table(th1, th2, lv1, lv2, pw, extended=~ok)


def base_level(lam: float, strike: float, params: VgParams) -> CoeffTable:
    """Table holding level 0 only: the transform m itself."""
    return build_coeff_table(lam, strike, params, max_level=0)


def extend_to_level(table: CoeffTable, n: int) -> CoeffTable:
    """Return a table holding levels 0..n (a new object; input unchanged)."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n <= table.max_level:
        return table
    return build_coeff_table(table.lam, table.strike, table.params, max_level=n)


def _horner(coeffs, z: float):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _horner_dz(coeffs, z: float):
    acc = 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * z + k * coeffs[k]
    return acc


def _exp(v):
    # math.exp keeps the scalar path on plain floats
    return np.exp(v) if isinstance(v, np.ndarray) else math.exp(v)


def eval_m(table: CoeffTable, n: int, x: float):
    """m^(n)(lam, x): the n-th lambda-derivative of the put transform.

    Sign alternates with n, since m^(n) = (-1)^n int_0^inf u s^n e^{-lam s} ds.
    The strike point x = log K belongs to the ITM branch; both branches
    agree there by construction.  An array over lam for a vectorised table.
    """
    _require_level(table, n)
    z = x - math.log(table.strike)
    if z <= 0.0:
        poly = _horner(table.levels_itm[n], z)
        pw = table.power_law[n] * (table.strike - math.exp(x))
        return poly * _exp(table.roots.theta1 * z) + pw
    poly = _horner(table.levels_otm[n], z)
    return poly * _exp(table.roots.theta2 * z)


def eval_m_exponential_part(table: CoeffTable, n: int, x: float):
    """The exponentially decaying part of m^(n): eval_m without the
    power-law terms on the ITM branch (on the OTM branch they coincide).

    This part decays super-polynomially in lam (like e^{-c sqrt(lam)}
    off the strike), which is what makes fractional differentiation of
    it by quadrature viable.  An array over lam for a vectorised table.
    """
    _require_level(table, n)
    z = x - math.log(table.strike)
    if z <= 0.0:
        return _horner(table.levels_itm[n], z) * _exp(table.roots.theta1 * z)
    return _horner(table.levels_otm[n], z) * _exp(table.roots.theta2 * z)


def eval_m_dx(table: CoeffTable, n: int, x: float):
    """Analytic d/dx of eval_m (same branch conventions)."""
    _require_level(table, n)
    z = x - math.log(table.strike)
    if z <= 0.0:
        coeffs = table.levels_itm[n]
        theta = table.roots.theta1
        pw_dx = -table.power_law[n] * math.exp(x)
        poly = _horner(coeffs, z)
        dpoly = _horner_dz(coeffs, z)
        return (dpoly + theta * poly) * _exp(theta * z) + pw_dx
    coeffs = table.levels_otm[n]
    theta = table.roots.theta2
    poly = _horner(coeffs, z)
    dpoly = _horner_dz(coeffs, z)
    return (dpoly + theta * poly) * _exp(theta * z)
