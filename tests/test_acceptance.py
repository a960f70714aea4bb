"""Release gates: every headline guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
``[ACCEPTANCE]`` summary lines.  Each test checks one shipped claim at
its stated tolerance:

  * the six reference tables reproduce to 5e-4,
  * the closed form, the gamma mixture and the Fourier inversion agree
    to 1e-5 across every table row,
  * the fractional-derivative quadrature matches both closed-form rules
    to 1e-7 over a 200-case randomized sweep,
  * the transform solves its pricing ODE and stays C^1 at the strike,
  * a 10^7-path Monte Carlo run brackets the closed form everywhere,
  * the closed form prices a seeded sweep of the whole parameter box,
    integer and fractional t/nu up to 100, within 1e-9 K of the gamma
    mixture, and its quadrature error estimate covers that gap.
"""

import math
import time

import numpy as np
import pytest

from vgpricer import (
    McConfig,
    OptionSpec,
    VgParams,
    build_coeff_table,
    builtin_table_rows,
    eval_m,
    eval_m_dx,
    frac_deriv_exp,
    frac_deriv_power,
    frac_deriv_quadrature,
    price_put_cgz,
    price_put_fourier,
    price_put_mc,
    price_put_mixture,
)
from vgpricer.bench import BUILTIN_TABLES, np_seed_for_row

SWEEP_SEED = 20260818
MC_BASE_SEED = 7
BOX_SEED = 20261018

# the gated parameter box
SIGMA_BOX = (0.05, 0.6)
NU_BOX = (0.05, 1.0)
RHO_BOX = (0.05, 100.0)  # t/nu
MONEYNESS_BOX = (0.5, 2.0)  # S/K


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _all_rows():
    rows = []
    for tid in sorted(BUILTIN_TABLES):
        rows.extend(builtin_table_rows(tid))
    return rows


def _spec_of(row) -> OptionSpec:
    return OptionSpec(spot=row.spot, strike=row.strike, maturity=row.maturity)


def _params_of(row) -> VgParams:
    return VgParams(sigma=row.sigma, nu=row.nu)


def _table_dev(table_id: str) -> float:
    worst = 0.0
    for row in builtin_table_rows(table_id):
        got = price_put_cgz(_spec_of(row), _params_of(row)).value
        worst = max(worst, abs(got - row.expected))
    return worst


def test_integer_clock_table_reproduces_within_tolerance_and_time():
    t0 = time.perf_counter()
    worst = _table_dev("T1")
    elapsed = time.perf_counter() - t0
    _report(
        "T1 near-strike integer shapes",
        worst <= 5e-4 and elapsed < 1.0,
        f"max dev {worst:.2e} <= 5e-4, {len(builtin_table_rows('T1'))} prices in {elapsed * 1e3:.0f} ms < 1 s",
    )


def test_fractional_clock_table_reproduces():
    worst = _table_dev("T2")
    # the shortest maturity sits below one clock unit: negative order
    sub_unit = price_put_cgz(
        OptionSpec(18.0, 20.0, 0.1), VgParams(sigma=0.1, nu=0.2)
    )
    _report(
        "T2 fractional shapes incl. t/nu = 0.5",
        worst <= 5e-4 and sub_unit.diagnostics is not None,
        f"max dev {worst:.2e} <= 5e-4, quadrature branch engaged at t=0.1",
    )


def test_out_of_the_money_tables_reproduce():
    worst = max(_table_dev("T3"), _table_dev("T4"))
    _report("T3/T4 out-of-the-money", worst <= 5e-4, f"max dev {worst:.2e} <= 5e-4")


def test_short_maturity_tables_reproduce_without_errors():
    devs = []
    min_shape = math.inf
    for tid in ("T5", "T6"):
        for row in builtin_table_rows(tid):
            min_shape = min(min_shape, row.maturity / row.nu)
            got = price_put_cgz(_spec_of(row), _params_of(row)).value  # must not raise
            devs.append(abs(got - row.expected))
    worst = max(devs)
    _report(
        "T5/T6 short maturity",
        worst <= 5e-4 and min_shape <= 0.1 + 1e-12,
        f"max dev {worst:.2e} <= 5e-4, all priced down to t/nu = {min_shape:.2f}",
    )


def test_three_deterministic_methods_agree():
    worst = 0.0
    for row in _all_rows():
        spec, params = _spec_of(row), _params_of(row)
        a = price_put_cgz(spec, params).value
        b = price_put_mixture(spec, params).value
        c = price_put_fourier(spec, params).value
        worst = max(worst, abs(a - b), abs(a - c))
    _report(
        "cross-method agreement",
        worst < 1e-5,
        f"max |cgz - mixture|, |cgz - fourier| = {worst:.2e} < 1e-5 over {len(_all_rows())} rows",
    )


def test_quadrature_matches_closed_form_rules_across_200_cases():
    rng = np.random.default_rng(SWEEP_SEED)
    worst_exp = worst_pow = 0.0
    for _ in range(200):
        alpha = float(rng.uniform(-0.9, 0.99))
        lam = float(rng.uniform(0.1, 50.0))
        x = float(rng.uniform(0.02, 10.0))
        got, _ = frac_deriv_quadrature(
            lambda t: lam * lam * np.exp(-lam * t), alpha, x
        )
        want = frac_deriv_exp(alpha, lam, x)
        worst_exp = max(worst_exp, abs(got - want) / max(abs(want), 1e-300))
        beta = float(rng.uniform(max(1.05 - alpha, 0.2), 6.0))
        got_p, _ = frac_deriv_quadrature(
            lambda t: beta * (beta + 1.0) * t ** (-beta - 2.0), alpha, x
        )
        want_p = frac_deriv_power(alpha, beta, x)
        worst_pow = max(worst_pow, abs(got_p - want_p) / abs(want_p))
    _report(
        "fractional-operator rules, 200-case sweep",
        worst_exp < 1e-7 and worst_pow < 1e-7,
        f"rel err: exponential {worst_exp:.2e}, power {worst_pow:.2e}, both < 1e-7",
    )


def test_transform_structure():
    params = VgParams(sigma=0.1, nu=0.2)
    lam, strike = 5.0, 20.0
    table = build_coeff_table(lam, strike, params, max_level=8)

    # the transform solves  lam m - (K - e^x)^+ = mu m' + (sigma^2/2) m''
    def second_dx(n, x):
        z = x - math.log(strike)
        if z <= 0.0:
            coeffs, theta = table.levels_itm[n], table.roots.theta1
            extra = -((-1.0) ** n) * math.factorial(n) * math.exp(x) / lam ** (n + 1)
        else:
            coeffs, theta = table.levels_otm[n], table.roots.theta2
            extra = 0.0
        poly = sum(c * z**j for j, c in enumerate(coeffs))
        dpoly = sum(j * c * z ** (j - 1) for j, c in enumerate(coeffs) if j >= 1)
        ddpoly = sum(j * (j - 1) * c * z ** (j - 2) for j, c in enumerate(coeffs) if j >= 2)
        return (ddpoly + 2.0 * theta * dpoly + theta**2 * poly) * math.exp(theta * z) + extra

    pde_worst = 0.0
    for x in np.linspace(math.log(10.0), math.log(40.0), 50):
        x = float(x)
        res = (
            lam * eval_m(table, 0, x)
            - max(strike - math.exp(x), 0.0)
            - params.mu * eval_m_dx(table, 0, x)
            - 0.5 * params.sigma**2 * second_dx(0, x)
        )
        pde_worst = max(pde_worst, abs(res))

    c1_worst = max(table.c1_residual(n) for n in range(9))

    chain_worst = 0.0
    h = 1e-5
    for x in (math.log(18.0), math.log(20.0), math.log(22.0)):
        for n in range(1, 7):
            up = build_coeff_table(lam + h, strike, params, n - 1)
            dn = build_coeff_table(lam - h, strike, params, n - 1)
            fd = (eval_m(up, n - 1, x) - eval_m(dn, n - 1, x)) / (2.0 * h)
            analytic = eval_m(table, n, x)
            chain_worst = max(chain_worst, abs(analytic - fd) / abs(fd))

    ok = pde_worst < 1e-8 * strike and c1_worst <= 1e-9 and chain_worst <= 1e-5
    _report(
        "transform structure (ODE, C1, derivative chain)",
        ok,
        f"ODE residual {pde_worst:.2e} < {1e-8 * strike:.0e}, "
        f"C1 mismatch {c1_worst:.2e} <= 1e-9 (n <= 8), "
        f"d/dlam chain {chain_worst:.2e} <= 1e-5 (n <= 6)",
    )


def test_monte_carlo_brackets_closed_form_everywhere():
    t0 = time.perf_counter()
    worst_z = 0.0
    rows = _all_rows()
    for idx, row in enumerate(rows):
        spec, params = _spec_of(row), _params_of(row)
        exact = price_put_cgz(spec, params).value
        q = price_put_mc(
            spec, params,
            McConfig(path_count=10_000_000, seed=np_seed_for_row(MC_BASE_SEED, idx)),
        )
        worst_z = max(worst_z, abs(q.value - exact) / q.diagnostics)
    elapsed = time.perf_counter() - t0
    _report(
        "Monte Carlo concordance, 1e7 paths/row",
        worst_z < 3.0 and elapsed < 120.0,
        f"worst |mc - cgz| = {worst_z:.2f} standard errors < 3 "
        f"over {len(rows)} rows in {elapsed:.0f} s < 120 s",
    )


def _box_cases(seed: int, count: int, integers: bool = True):
    """Seeded (spec, params) draws from the box.  With ``integers`` every
    other t/nu is an integer in 1..100 (the exact branch), the rest are
    log-uniform over RHO_BOX (the quadrature branch).  Every fourth row is
    exactly at the money, where the quadrature's integrand decays slowest."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        sigma = float(rng.uniform(*SIGMA_BOX))
        nu = float(rng.uniform(*NU_BOX))
        if integers and i % 2:
            rho = float(rng.integers(1, int(RHO_BOX[1]) + 1))
        else:
            rho = math.exp(rng.uniform(*np.log(RHO_BOX)))
        moneyness = 1.0 if i % 4 == 0 else math.exp(rng.uniform(*np.log(MONEYNESS_BOX)))
        strike = 100.0
        cases.append((OptionSpec(strike * moneyness, strike, rho * nu), VgParams(sigma, nu)))
    return cases


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_prices_the_whole_box():
    cases = _box_cases(BOX_SEED, 200)
    worst = 0.0
    top_rho = 0.0
    for spec, params in cases:
        a = price_put_cgz(spec, params).value  # must not raise or warn
        b = price_put_mixture(spec, params).value
        worst = max(worst, abs(a - b) / spec.strike)
        top_rho = max(top_rho, spec.maturity / params.nu)
    _report(
        "cgz over the whole box",
        worst <= 1e-9,
        f"max |cgz - mixture| = {worst:.2e} K <= 1e-9 K over {len(cases)} rows, "
        f"t/nu up to {top_rho:.1f}, no warnings",
    )


def test_closed_form_error_estimate_is_honest():
    cases = [
        (_spec_of(row), _params_of(row))
        for tid in ("T2", "T4", "T5", "T6")
        for row in builtin_table_rows(tid)
        if abs(row.maturity / row.nu - round(row.maturity / row.nu)) > 1e-6
    ]
    cases += _box_cases(BOX_SEED + 1, 100, integers=False)
    bad = []
    for spec, params in cases:
        c = price_put_cgz(spec, params)
        m = price_put_mixture(spec, params)
        slack = c.diagnostics + m.diagnostics + 1e-12 * spec.strike
        if not (0.0 < c.diagnostics < 1e-6) or abs(c.value - m.value) > slack:
            bad.append((spec, params, c.value, c.diagnostics, m.value, m.diagnostics))
    _report(
        "cgz quadrature error estimate",
        not bad,
        f"0 < diagnostics < 1e-6 and |cgz - mixture| <= both diagnostics + 1e-12 K "
        f"on {len(cases) - len(bad)}/{len(cases)} fractional rows; failures: {bad[:3]}",
    )
