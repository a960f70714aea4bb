"""Independent reference prices for the benchmark's checks.

Both references evaluate the gamma-mixture form of the variance gamma put,

    P = int_0^inf BSput(s) g(s) ds,   g = Gamma(shape t/nu, scale nu) density,

where BSput(s) is the zero-rate Black-Scholes put at integrated variance
sigma^2 s.  Neither shares code with the library's pricers.

``mpmath_put`` evaluates it at raised precision with mpmath's tanh-sinh
quadrature; it is slow (tens to hundreds of ms a price) and serves a
seeded subset of rows.  ``mixture_put_batch`` applies one fixed
tanh-sinh rule to many rows at once in numpy; it agrees with the closed
form to about 1e-13 K over the benchmark's boxes and is cheap enough to
check every price a run makes.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import gammaln, ndtr

# the integrand decays like e^{-s/nu}; cutting at nu (k + 12 sqrt(k) + 40)
# leaves a tail below e^{-40} of the density's mass
_TAIL_PAD = 40.0
_TAIL_SDS = 12.0

# tanh-sinh step: 1/32 reaches ~1e-13 K on the boxes, 1/16 only ~1e-7 K
_STEP = 1.0 / 32.0


def mpmath_put(spot, strike, maturity, sigma, nu, dps=30):
    """Put price from the gamma-mixture integral at ``dps`` digits."""
    with mpmath.workdps(dps):
        S, K, t = mpmath.mpf(spot), mpmath.mpf(strike), mpmath.mpf(maturity)
        sig, v = mpmath.mpf(sigma), mpmath.mpf(nu)
        k = t / v
        log_norm = -k * mpmath.log(v) - mpmath.loggamma(k)
        moneyness = mpmath.log(S / K)

        intrinsic = max(K - S, 0)

        # the density integrates to 1, so only the time value BSput - (K-S)^+
        # is integrated: it vanishes at s = 0, which tames the s^(k-1)
        # singularity whose mass sits below any node when k is small
        def integrand(s):
            if s == 0:
                return mpmath.mpf(0)
            vol = sig * mpmath.sqrt(s)
            d1 = moneyness / vol + vol / 2
            put = K * mpmath.ncdf(vol - d1) - S * mpmath.ncdf(-d1)
            density = mpmath.exp(log_norm + (k - 1) * mpmath.log(s) - s / v)
            return (put - intrinsic) * density

        sd = mpmath.sqrt(t * v)
        cut = v * (k + _TAIL_SDS * mpmath.sqrt(k) + _TAIL_PAD)
        points = sorted({mpmath.mpf(0), t, t + 4 * sd, cut})
        return float(intrinsic + mpmath.quad(integrand, points + [mpmath.inf]))


def mixture_put_batch(spot, strike, maturity, sigma, nu):
    """Put prices of many rows from one tanh-sinh rule on (0, cut).

    Arguments are equal-length sequences.  The substitution
    s = cut / (1 + exp(-pi sinh tau)) clusters nodes double-exponentially
    at both ends, which absorbs the s^(t/nu - 1) endpoint singularity for
    any shape.  The tau range reaches s / cut ~ e^-40 at both ends, and
    further towards s = 0 as the smallest shape falls below 1, where the
    density packs its mass against the origin.
    """
    cols = [np.asarray(a, dtype=float)[:, None] for a in (spot, strike, maturity, sigma, nu)]
    S, K, t, sig, v = cols
    k = t / v
    tau_max = math.asinh(_TAIL_PAD / (math.pi * min(float(k.min()), 1.0)))
    tau = np.arange(-tau_max, tau_max + _STEP / 2, _STEP)[None, :]
    u = math.pi * np.sinh(tau)
    log_frac = -np.logaddexp(0.0, -u)  # log(s / cut)
    log_rest = -np.logaddexp(0.0, u)  # log(1 - s / cut)
    cut = v * (k + _TAIL_SDS * np.sqrt(k) + _TAIL_PAD)
    log_s = np.log(cut) + log_frac
    # ds = s (1 - s/cut) pi cosh(tau) dtau, so the density's s^(k-1) becomes s^k
    log_weight = (
        k * log_s - np.exp(log_s) / v - k * np.log(v) - gammaln(k)
        + log_rest + np.log(math.pi * _STEP * np.cosh(tau))
    )
    vol = sig * np.exp(0.5 * log_s)
    d1 = np.log(S / K) / vol + 0.5 * vol
    put = K * ndtr(vol - d1) - S * ndtr(-d1)
    return (put * np.exp(log_weight)).sum(axis=1)
