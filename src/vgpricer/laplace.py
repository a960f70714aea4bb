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
``MAX_LEVEL``.  The power-law factor (-1)^n n!/lam^{n+1} is carried as a
running product, so it underflows gracefully at huge lam instead of
overflowing in lam^{n+1}.  Every new level must pass a C^1 check: a
level whose slope residual at the strike exceeds 1e-9 relative (deep
factorial cancellation at high levels) raises ``ArithmeticError``.
Where the tables do not reach, past ``MAX_LEVEL`` or past a level that
fails the check, the integer-t/nu price comes from the Bessel series
below instead.

Level n only needs level n-1, so a table is extended incrementally:
``extend_to_level`` continues the recursion from a table's top level
and C^1-checks the new levels only, giving the same table a fresh build
to that level would.  At integer t/nu the price needs one level of the
table at lam = 1/nu, so one table per (strike, sigma, nu) is shared and
extended across the integer-t/nu ``cgz`` rows of one
``bench.run_scenarios`` call.

The exponential part alone has a second, cancellation-free form.  With
D = sqrt(mu^2 + 2 sigma^2 lam) it is, on both branches,

    (K sigma^2/2) e^{-mu z/sigma^2} e^{-D|z|/sigma^2} / (lam D)
        = (K sigma/sqrt(8)) e^{-mu z/sigma^2} e^{-a sqrt(s)}/(lam sqrt(s)),

where s = lam + mu^2/(2 sigma^2) and a = |z| sqrt(2)/sigma.  The factor
e^{-a sqrt(s)}/sqrt(s) is the Laplace transform of (pi t)^{-1/2}
e^{-a^2/(4t)} (Abramowitz & Stegun 29.3.84), so its k-th s-derivative
is (-1)^k (2/sqrt(pi)) r^{k+1/2} K_{k+1/2}(a sqrt(s)) with r = a/(2 sqrt(s)).
Leibniz's rule against (1/lam)^(j) = (-1)^j j!/lam^{j+1} then gives

    exponential part of m^(n)
        = (-1)^n (K sigma/sqrt(2 pi)) e^{-mu z/sigma^2} n! lam^{-(n+1)}
          * sum_{k=0..n} p_k,      p_k = lam^k r^{k+1/2} K_{k+1/2}(a sqrt(s)) / k!,

and the Bessel recurrence K_{v+1} = K_{v-1} + (2v/x) K_v (DLMF 10.29.1)
turns into one for the p_k:

    p_0     = sqrt(pi) e^{-a sqrt(s)} / (2 sqrt(s)),
    p_1     = lam (r + 1/(2s)) p_0,
    p_{k+1} = lam (k+1/2)/((k+1) s) p_k + lam^2 r^2/(k(k+1)) p_{k-1}.

Every term is positive, so the sum has no cancellation and needs no
C^1 check and no level cap.  ``log_bessel_series`` evaluates its
logarithm over an array of lam in O(n), for one z or for a row per z:
this is how the fractional-derivative quadrature of ``price_put_cgz``
evaluates m^(n+2) at all of its nodes (for every contract of a
``price_cgz_group`` group at once), and how it prices an integer t/nu
that the tables do not reach, on the one node lam = 1/nu.  It is the
half-integer Bessel structure behind the closed form of Madan, Carr &
Chang (1998).
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
    "extend_to_level",
    "build_coeff_table",
    "eval_m",
    "eval_m_dx",
    "eval_m_exponential_part",
    "log_bessel_series",
]

MAX_LEVEL = 100

# relative C^1 slope residual above which a level fails the check
_C1_RTOL = 1e-9

# log_bessel_series runs its recurrence on p_k e^shift with shift =
# a sqrt(s) - _X_LO clipped to [0, _X_HI]: p_0 e^shift stays at or above
# e^-_X_LO sqrt(pi)/(2 sqrt(s)) up to a sqrt(s) = _X_LO + _X_HI, and no
# term overflows, since every p_k is below sqrt(pi)/(2 sqrt(s))
_X_LO = 600.0
_X_HI = 650.0


@dataclass(frozen=True)
class ThetaRoots:
    """Roots of (sigma^2/2) th^2 + mu th = lam, ordered theta1 > 0 > theta2."""

    theta1: float
    theta2: float


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
    Immutable; extension returns a new table.
    """

    lam: float
    strike: float
    params: VgParams
    roots: ThetaRoots
    levels_itm: tuple[tuple, ...]
    levels_otm: tuple[tuple, ...]
    power_law: tuple

    @property
    def max_level(self) -> int:
        return len(self.levels_itm) - 1

    def c1_residual(self, n: int) -> float:
        """Relative mismatch of the two branch slopes at z = 0 at level n."""
        _require_level(self, n)
        s1, s2 = _branch_slopes(self, n)
        return abs(s1 - s2) / max(abs(s1), abs(s2), 1e-300)


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
    """
    cur = [None] * (n + 1)
    for j in range(n, 0, -1):
        t = n * prev[j - 1]
        if j + 1 <= n:
            t = t - 0.5 * sig2 * (j + 1) * j * cur[j + 1]
        cur[j] = t / jw[j]
    return cur


def _check_lam(lam: float) -> None:
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"lam must be positive and finite, got {lam!r}")


def _check_level(n: int) -> None:
    if not 0 <= n <= MAX_LEVEL:
        raise ValueError(f"level must be between 0 and {MAX_LEVEL}, got {n}")


def _grow(lam: float, strike: float, params: VgParams, max_level: int, base=None) -> CoeffTable:
    """Levels 0..max_level at lam: built from level 0, or the recursion
    continued from the top level of ``base``.

    The power-law factor (-1)^n n!/lam^(n+1) is a running product, so no
    lam^(n+1) can overflow.  Only the new levels go through the C^1
    check, since the levels of ``base`` passed it when they were built.
    The first that fails it raises ``ArithmeticError``: factorial
    cancellation has broken double precision there.  An extension raises
    at the same level, with the same message, as a fresh build.
    """
    mu = params.mu
    sig2 = params.sigma * params.sigma
    if base is None:
        disc = (mu * mu + 2.0 * lam * sig2) ** 0.5
        th1 = (-mu + disc) / sig2
        th2 = (-mu - disc) / sig2
        first, prev1, prev2, power = 0, None, None, None
    else:
        th1, th2 = base.roots.theta1, base.roots.theta2
        first = base.max_level + 1
        prev1, prev2 = base.levels_itm[-1], base.levels_otm[-1]
        power = base.power_law[-1]
    w1 = mu + sig2 * th1  # = +disc
    w2 = mu + sig2 * th2  # = -disc
    if w1 == 0 or w2 == 0:
        # impossible for lam > 0 (w_i = +-sqrt(mu^2 + 2 lam sigma^2))
        raise ArithmeticError("degenerate characteristic roots: mu + sigma^2 theta = 0")
    jw1 = [j * w1 for j in range(max_level + 1)]
    jw2 = [j * w2 for j in range(max_level + 1)]

    levels1: list[tuple] = []
    levels2: list[tuple] = []
    powers: list = []
    for n in range(first, max_level + 1):
        if n == 0:
            power = 1.0 / lam
            a0 = strike / (lam * (th1 - th2))
            cur1, cur2 = [a0], [a0]
        else:
            power = power * -n / lam
            cur1 = _next_tail(prev1, jw1, sig2, n)
            cur2 = _next_tail(prev2, jw2, sig2, n)
            a = (cur2[1] - cur1[1] + power * strike) / (th1 - th2)
            cur1[0] = a
            cur2[0] = a
        levels1.append(tuple(cur1))
        levels2.append(tuple(cur2))
        powers.append(power)
        prev1, prev2 = cur1, cur2
    # tuple concatenation: the levels of ``base`` are not copied
    table = CoeffTable(
        lam=lam,
        strike=strike,
        params=params,
        roots=ThetaRoots(th1, th2),
        levels_itm=(base.levels_itm if base else ()) + tuple(levels1),
        levels_otm=(base.levels_otm if base else ()) + tuple(levels2),
        power_law=(base.power_law if base else ()) + tuple(powers),
    )
    for n in range(first, max_level + 1):
        residual = table.c1_residual(n)
        if not residual <= _C1_RTOL:
            raise ArithmeticError(
                f"level {n} fails the C^1 check: slope residual {residual!r} > {_C1_RTOL!r}"
            )
    return table


def build_coeff_table(lam: float, strike: float, params: VgParams, max_level: int = 0) -> CoeffTable:
    """Build the coefficient table for levels 0..max_level at this lam.

    Double precision throughout.  Raises ``ArithmeticError`` at the
    first level whose C^1 slope residual exceeds tolerance.
    """
    _check_lam(lam)
    if not (strike > 0.0) or not math.isfinite(strike):
        raise ValueError(f"strike must be positive and finite, got {strike!r}")
    _check_level(max_level)
    return _grow(lam, strike, params, max_level)


def extend_to_level(table: CoeffTable, n: int) -> CoeffTable:
    """Return a table holding levels 0..n.

    ``table`` itself when it already holds level n; otherwise a new
    table that continues the recursion from ``table``'s top level, so
    the cost is that of the new levels only.  The result is
    bit-identical to ``build_coeff_table(table.lam, table.strike,
    table.params, n)``, and a new level that fails the C^1 check raises
    the same ``ArithmeticError`` as that build.  This is how one table
    per (strike, sigma, nu) serves every integer-t/nu ``cgz`` row that
    shares it.
    """
    _check_level(n)
    if n <= table.max_level:
        return table
    return _grow(table.lam, table.strike, table.params, n, base=table)


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


def eval_m(table: CoeffTable, n: int, x: float):
    """m^(n)(lam, x): the n-th lambda-derivative of the put transform.

    Sign alternates with n, since m^(n) = (-1)^n int_0^inf u s^n e^{-lam s} ds.
    The strike point x = log K belongs to the ITM branch; both branches
    agree there by construction.
    """
    _require_level(table, n)
    z = x - math.log(table.strike)
    if z <= 0.0:
        poly = _horner(table.levels_itm[n], z)
        pw = table.power_law[n] * (table.strike - math.exp(x))
        return poly * math.exp(table.roots.theta1 * z) + pw
    poly = _horner(table.levels_otm[n], z)
    return poly * math.exp(table.roots.theta2 * z)


def eval_m_exponential_part(table: CoeffTable, n: int, x: float):
    """The exponentially decaying part of m^(n): eval_m without the
    power-law terms on the ITM branch (on the OTM branch they coincide).

    This part decays super-polynomially in lam (like e^{-c sqrt(lam)}
    off the strike), which is what makes fractional differentiation of
    it by quadrature viable.  ``log_bessel_series`` gives the same
    quantity without a table.
    """
    _require_level(table, n)
    z = x - math.log(table.strike)
    if z <= 0.0:
        return _horner(table.levels_itm[n], z) * math.exp(table.roots.theta1 * z)
    return _horner(table.levels_otm[n], z) * math.exp(table.roots.theta2 * z)


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
        return (dpoly + theta * poly) * math.exp(theta * z) + pw_dx
    coeffs = table.levels_otm[n]
    theta = table.roots.theta2
    poly = _horner(coeffs, z)
    dpoly = _horner_dz(coeffs, z)
    return (dpoly + theta * poly) * math.exp(theta * z)


def log_bessel_series(lam, z, params: VgParams, n: int) -> np.ndarray:
    """log sum_{k=0..n} p_k(lam) over a 1-d array of lam (module docstring).

    The exponential part of m^(n) at log-moneyness z = x - log K is
    (-1)^n (K sigma/sqrt(2 pi)) e^{-mu z/sigma^2} n! lam^{-(n+1)} times
    the exponential of this, so a caller can fold its own factors into
    one exponent per lam.  A float z gives one value per lam; a 1-d
    array of z, one per row of contracts that share (sigma, nu), gives
    a (rows x lam) array, row i at z[i].  One pass of the three-term
    recurrence over the whole array: O(n) numpy operations for any
    number of rows, each writing into a buffer allocated before the
    loop.  Row i holds the floats that z[i] alone gives.

    Off the strike the loop runs on the p_k scaled by e^shift (see
    ``_X_LO``) and the shift leaves again in log space, so nothing
    overflows and p_0 does not underflow before the terms it seeds
    become negligible.  At the strike (z = 0) p_0 = sqrt(pi)/(2 sqrt(s))
    needs no shift and r = 0 drops the second addend of the recurrence,
    so for a float z at the strike a shorter loop skips both.  An
    array of z always runs the general loop, which gives the same
    floats at z = 0.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or (lam.size and not (lam.min() > 0.0 and math.isfinite(lam.max()))):
        raise ValueError("lam must be a 1-d array of positive finite values")
    if n < 0:
        raise ValueError(f"series level must be >= 0, got {n}")
    z = np.asarray(z, dtype=float)
    if z.ndim > 1:
        raise ValueError("z must be a float or a 1-d array")
    sig2 = params.sigma * params.sigma
    s = lam + params.mu * params.mu / (2.0 * sig2)
    root_s = np.sqrt(s)
    # one row of a per z: shape (1,) for a float z, (rows, 1) for an array
    a = np.abs(z)[..., None] * math.sqrt(2.0) / params.sigma
    prev = 0.5 * math.sqrt(math.pi) / root_s
    if z.ndim == 0 and a[0] == 0.0:
        # at the strike e^(shift - x) = 1, and with r = 0 the second addend
        # of every p_(k+1) is 0, so p_(k+1) = lam (k+1/2)/((k+1) s) p_k
        total = prev.copy()
        if n >= 1:
            ratio = lam / s
            cur = lam * (0.5 / s) * prev
            total += cur
            for k in range(1, n):
                np.multiply((k + 0.5) / (k + 1), cur, out=cur)
                np.multiply(ratio, cur, out=cur)
                total += cur
        return np.log(total, out=total)
    x = a * root_s
    shift = np.minimum(np.maximum(x - _X_LO, 0.0), _X_HI)
    prev = np.multiply(prev, np.exp(np.subtract(shift, x, out=x), out=x), out=x)
    total = prev.copy()
    if n >= 1:
        r = a / (2.0 * root_s)
        ratio = lam / s
        lam_r2 = np.square(lam * r)
        cur = lam * (r + 0.5 / s) * prev
        total += cur
        # p_(k+1) is built in a scratch buffer and the one p_(k-1) held
        scratch = np.empty_like(total)
        for k in range(1, n):
            # each product is one positive addend of p_(k+1), so none overflows
            np.multiply((k + 0.5) / (k + 1), cur, out=scratch)
            np.multiply(ratio, scratch, out=scratch)
            np.divide(prev, k * (k + 1), out=prev)
            np.multiply(lam_r2, prev, out=prev)
            np.add(scratch, prev, out=prev)
            prev, cur = cur, prev
            total += cur
    # p_0 underflows only past a sqrt(s) ~ 1300, where for n <= 1000
    # every term is below e^-300 times its bound; -inf stands for that
    out = np.full(total.shape, -np.inf)
    np.log(total, out=out, where=total > 0.0)
    return np.subtract(out, shift, out=out)
