"""A 40-digit gamma-mixture put: the reference that closed-form gates
compare against.

Conditioned on the gamma clock, the variance gamma put is an average of
zero-rate Black-Scholes puts,

    P = (K - S)^+ + int_0^inf [BSput(s) - (K - S)^+] g(s) ds,

with g the density of Gamma(shape t/nu, scale nu) and BSput(s) the put
at integrated variance sigma^2 s.  The density integrates to 1, so only
the time value BSput - (K - S)^+ is integrated; it vanishes at s = 0,
which tames the s^(t/nu - 1) factor of the density there.  mpmath's
tanh-sinh quadrature evaluates it at 40 digits, split at the maturity,
four clock standard deviations past it and a cut in the far tail, so
every piece is smooth inside.  Nothing here shares code with the
library or the benchmark.
"""

import mpmath

DPS = 40

# a quadrature error estimate above this times K raises
_MAX_ERROR = 1e-20


def gamma_mixture_put(spot, strike, maturity, sigma, nu):
    """Put price at ``DPS`` digits, rounded to a float.

    Raises ``ArithmeticError`` when mpmath's own error estimate exceeds
    1e-20 K, so a price that is returned is good to the last float digit.
    """
    with mpmath.workdps(DPS):
        S, K, t, sig, v = (mpmath.mpf(a) for a in (spot, strike, maturity, sigma, nu))
        shape = t / v
        log_norm = -shape * mpmath.log(v) - mpmath.loggamma(shape)
        z = mpmath.log(S / K)
        intrinsic = max(K - S, 0)

        def time_value(s):
            if s == 0:
                return mpmath.mpf(0)
            vol = sig * mpmath.sqrt(s)
            d1 = z / vol + vol / 2
            put = K * mpmath.ncdf(vol - d1) - S * mpmath.ncdf(-d1)
            density = mpmath.exp(log_norm + (shape - 1) * mpmath.log(s) - s / v)
            return (put - intrinsic) * density

        sd = mpmath.sqrt(t * v)
        # past the last cut the density holds less than e^-40 of its mass
        cut = v * (shape + 12 * mpmath.sqrt(shape) + 40)
        points = [mpmath.mpf(0), t, t + 4 * sd, cut, mpmath.inf]
        value, error = mpmath.quad(time_value, points, error=True)
        if error > _MAX_ERROR * K:
            raise ArithmeticError(f"reference quadrature error {float(error):.3g} exceeds 1e-20 K")
        return float(intrinsic + value)
