"""Reproduce all six built-in reference tables and report the deviations.

Each table fixes (S, K, sigma, nu) and sweeps maturity; the expected
column holds reference prices rounded to 4 decimals, so agreement is
judged at 5e-4.  T1/T2 are near-strike puts, T3/T4 the out-of-the-money
mirror, T5/T6 short-maturity deep-out-of-the-money contracts whose
clock shape t/nu drops to 0.1.
"""

from vgpricer.bench import BUILTIN_TABLES, builtin_table_rows, emit_report, run_scenarios

worst = 0.0
for table_id in sorted(BUILTIN_TABLES):
    # cgz + the two deterministic cross-checks; add "mc" for the full sweep
    report = run_scenarios(builtin_table_rows(table_id, ("cgz", "mixture", "fourier")))
    print(emit_report(report, "text"))
    summary = report.summary()
    worst = max(worst, summary["max_expected_dev"])
    assert summary["errors"] == 0

print(f"worst deviation from the reference prices, all tables: {worst:.2e}")

# the same run is available as machine-readable CSV -- this is exactly
# what `vgp table T1 --format csv` prints
print()
print(emit_report(run_scenarios(builtin_table_rows("T1", ("cgz",))), "csv"))
