"""How fast is each route, and what do you pay for accuracy?

Times the four pricing methods over a full reference table (median of
repeated calls per row), then shows the FFT ladder pricing thousands of
strikes in one pass.  Absolute numbers vary with hardware; the shape of
the comparison does not.  On integer clock shapes (t/nu whole) the
closed form is pure arithmetic and runs in ~0.1 ms; the fractional
shapes timed here pay for one tanh-sinh quadrature.  The mixture and
Fourier integrals take roughly 0.4-1 ms each, since their QUADPACK
integrands run on Python floats; Monte Carlo costs whatever the path
budget says.
"""

import time

import numpy as np

from vgpricer import OptionSpec, VgParams, fourier_put_ladder, price_put_fourier
from vgpricer.bench import builtin_table_rows, emit_report, run_scenarios

# ---- per-method timing over table T2 (fractional clock shapes) -------------
report = run_scenarios(builtin_table_rows("T2", ("cgz", "mixture", "fourier", "mc")),
                       repetitions=5, seed=7, mc_paths=200_000)
print(emit_report(report, "text"))

summary = report.summary()
print("median cost per price:")
for method, agg in sorted(summary["per_method"].items()):
    print(f"  {method:<9} {agg['elapsed_ns'] / agg['rows'] / 1e6:8.3f} ms")

# ---- one FFT pass vs many single inversions ---------------------------------
params = VgParams(sigma=0.1, nu=0.2)
t0 = time.perf_counter()
strikes, puts = fourier_put_ladder(18.0, 0.5, params, n_points=4096)
ladder_s = time.perf_counter() - t0

# compare against direct inversion on a band of strikes around the spot
mask = (strikes > 14.0) & (strikes < 27.0)
sample = np.flatnonzero(mask)[:: max(1, mask.sum() // 12)]
t0 = time.perf_counter()
singles = [price_put_fourier(OptionSpec(18.0, float(strikes[i]), 0.5), params).value
           for i in sample]
single_s = time.perf_counter() - t0

worst = max(abs(puts[i] - s) for i, s in zip(sample, singles))
print(f"\nFFT ladder: {len(strikes)} strikes in {ladder_s * 1e3:.1f} ms "
      f"({ladder_s / len(strikes) * 1e6:.1f} us per strike)")
print(f"direct inversion: {len(sample)} strikes in {single_s * 1e3:.1f} ms "
      f"({single_s / len(sample) * 1e3:.2f} ms per strike)")
print(f"ladder vs direct, worst abs diff on the band: {worst:.2e} "
      f"(grid-limited; tighten grid_step to push it down)")
