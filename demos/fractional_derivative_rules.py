"""The fractional derivative: closed-form rules vs tanh-sinh quadrature.

The operator used by the pricer is, for order alpha < 1,

    D^alpha f(x) = 1/Gamma(1-alpha) d/dx int_x^inf (t-x)^(-alpha) f(t) dt.

Its two defining properties: D^0 f = -f and D^1 f = +f'.  On the two
function families the pricer needs there are exact rules,

    exponentials:  D^alpha e^(-lam x)  = -lam^alpha e^(-lam x)
    powers:        D^alpha x^(-beta)   = -Gamma(alpha+beta)/Gamma(beta) x^(-alpha-beta)

and a change of variables turns the defining integral into a weighted
integral over (0, 1) of the second derivative, which is what the
pricer evaluates when no rule applies.
"""

import math

import numpy as np

from vgpricer import frac_deriv_exp, frac_deriv_power, frac_deriv_quadrature

# ---- the integer endpoints ------------------------------------------------
lam, x = 2.0, 1.0
print("order 0 is minus the identity:")
print(f"  D^0 e^(-2x) at x=1: {frac_deriv_exp(0.0, lam, x):+.12f}  "
      f"(-e^-2 = {-math.exp(-2.0):+.12f})")
print("order -> 1 is the ordinary derivative:")
print(f"  D^1 e^(-2x) at x=1: {frac_deriv_exp(1.0 - 1e-12, lam, x):+.12f}  "
      f"(-2e^-2 = {-2.0 * math.exp(-2.0):+.12f})")

# ---- half-order values ----------------------------------------------------
print("\nhalf orders interpolate between the two:")
for alpha in (-0.5, 0.0, 0.25, 0.5, 0.75):
    print(f"  alpha = {alpha:+.2f}: D^alpha e^(-2x) / e^(-2x) = "
          f"{frac_deriv_exp(alpha, lam, x) / math.exp(-lam * x):+.6f} "
          f"(= -2^alpha = {-(2.0 ** alpha):+.6f})")

# ---- quadrature route vs both rules ---------------------------------------
# f'' is all the quadrature needs; for e^(-lam t) that is lam^2 e^(-lam t),
# evaluated on a numpy array of nodes at a time
print("\ntanh-sinh quadrature against the exact rules (relative error):")
rng = np.random.default_rng(2)
worst_exp = worst_pow = 0.0
for _ in range(50):
    alpha = float(rng.uniform(-0.9, 0.99))
    lam = float(rng.uniform(0.1, 50.0))
    x = float(rng.uniform(0.02, 10.0))
    got, err = frac_deriv_quadrature(lambda t: lam * lam * np.exp(-lam * t), alpha, x)
    want = frac_deriv_exp(alpha, lam, x)
    worst_exp = max(worst_exp, abs(got - want) / abs(want))
    beta = float(rng.uniform(max(1.05 - alpha, 0.2), 6.0))
    got, err = frac_deriv_quadrature(
        lambda t: beta * (beta + 1.0) * t ** (-beta - 2.0), alpha, x)
    want = frac_deriv_power(alpha, beta, x)
    worst_pow = max(worst_pow, abs(got - want) / abs(want))
print(f"  exponential family, 50 random cases: worst {worst_exp:.2e}")
print(f"  power family,       50 random cases: worst {worst_pow:.2e}")

# ---- orders above one -----------------------------------------------------
# D^(1+a) f = D^a f', so feeding the quadrature f''' instead of f''
# shifts the order up by one (the pricer uses this to reach any t/nu)
lam, x, a = 2.0, 1.5, 0.5
val, _ = frac_deriv_quadrature(lambda t: -lam**3 * np.exp(-lam * t), a, x)
print(f"\norder 1.5 via the differentiated integrand: {val:+.10f}  "
      f"(+lam^1.5 e^(-lam x) = {lam**1.5 * math.exp(-lam * x):+.10f})")
