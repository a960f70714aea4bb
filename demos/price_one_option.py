"""Price one European put four independent ways and compare.

The reference contract: spot 18, strike 20, maturity 0.2 years, with
variance-gamma dynamics sigma = 0.1, nu = 0.2.  At this maturity the
gamma clock has integer shape t/nu = 1, so the closed form is exact --
no quadrature at all -- and the other three routes should land on it.
"""

from vgpricer import (
    McConfig,
    OptionSpec,
    VgParams,
    call_from_put,
    price_put_cgz,
    price_put_fourier,
    price_put_mc,
    price_put_mixture,
)

spec = OptionSpec(spot=18.0, strike=20.0, maturity=0.2)
params = VgParams(sigma=0.1, nu=0.2)  # drift is pinned by the martingale condition
print(f"params: {params}  (mu = -sigma^2/2 = {params.mu})")
print(f"option: {spec}\n")

quotes = [
    price_put_cgz(spec, params),
    price_put_mixture(spec, params),
    price_put_fourier(spec, params),
    price_put_mc(spec, params, McConfig(path_count=2_000_000, seed=1)),
]

print(f"{'method':<10}{'put price':>14}{'diagnostics':>14}{'elapsed':>12}")
for q in quotes:
    diag = f"{q.diagnostics:.2e}" if q.diagnostics is not None else "exact"
    print(f"{q.method:<10}{q.value:>14.8f}{diag:>14}{q.elapsed * 1e3:>10.2f} ms")

# the three deterministic routes agree to ~1e-12 here; Monte Carlo is
# statistical, so judge it in units of its own standard error
exact = quotes[0].value
mc = quotes[3]
print(f"\ncross-method spread (deterministic): "
      f"{max(q.value for q in quotes[:3]) - min(q.value for q in quotes[:3]):.2e}")
print(f"monte carlo distance: {abs(mc.value - exact) / mc.diagnostics:.2f} standard errors")

# zero-rate put-call parity gives the call for free
print(f"\ncall by parity: {call_from_put(exact, spec.spot, spec.strike):.8f}")

# a fractional maturity just switches the closed form to one tanh-sinh
# quadrature; the quote then carries a propagated error estimate
frac = price_put_cgz(OptionSpec(18.0, 20.0, 0.3), params)
print(f"t = 0.3 (t/nu = 1.5): put {frac.value:.8f}, quadrature error ~{frac.diagnostics:.1e}")
