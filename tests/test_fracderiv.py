"""Fractional differentiation: closed-form rules and the quadrature route.

Cross-checks: the exponential and power rules against values computed
from their defining expressions, the quadrature representation against
both rules over a seeded parameter sweep, and the semigroup behaviour
that lets orders above one be reached by differentiating the integrand.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as spgamma

from vgpricer import (
    DEFAULT_QUADRATURE,
    QuadratureAccuracyError,
    QuadratureConfig,
    frac_deriv_exp,
    frac_deriv_power,
    frac_deriv_quadrature,
)

# ---------------------------------------------------------------------------
# exponential rule: D^alpha e^{-lam x} = -lam^alpha e^{-lam x}


def test_exp_rule_integer_endpoints():
    # order 0 is minus the identity, order 1 is d/dx
    assert frac_deriv_exp(0.0, 2.0, 1.0) == pytest.approx(-math.exp(-2.0), rel=1e-15)
    lam, x = 3.0, 0.7
    h = 1e-7
    fd = (math.exp(-lam * (x + h)) - math.exp(-lam * (x - h))) / (2 * h)
    assert frac_deriv_exp(1.0 - 1e-14, lam, x) == pytest.approx(fd, rel=1e-6)


def test_exp_rule_fractional_values():
    assert frac_deriv_exp(0.5, 2.0, 1.0) == pytest.approx(-math.sqrt(2.0) * math.exp(-2.0), rel=1e-15)
    assert frac_deriv_exp(-0.5, 1.0, 0.0) == pytest.approx(-1.0, rel=1e-15)
    # negative order divides by lam^|alpha|
    assert frac_deriv_exp(-1.0, 4.0, 0.5) == pytest.approx(-math.exp(-2.0) / 4.0, rel=1e-15)


def test_exp_rule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        frac_deriv_exp(1.0 + 1e-12, 2.0, 1.0)
    with pytest.raises(ValueError):
        frac_deriv_exp(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        frac_deriv_exp(0.5, -2.0, 1.0)


# ---------------------------------------------------------------------------
# power rule: D^alpha lam^{-beta} = -Gamma(alpha+beta)/Gamma(beta) lam^{-alpha-beta}
# (the variable here is lam itself)


def test_power_rule_integer_orders():
    # order 0: minus the function
    assert frac_deriv_power(0.0, 1.0, 5.0) == pytest.approx(-0.2, rel=1e-15)
    # order ~1: d/dlam lam^{-1} = -lam^{-2}, rule gives -beta lam^{-beta-1}
    assert frac_deriv_power(1.0 - 1e-15, 1.0, 2.0) == pytest.approx(-0.25, rel=1e-12)


def test_power_rule_half_orders():
    assert frac_deriv_power(0.5, 1.0, 1.0) == pytest.approx(-spgamma(1.5), rel=1e-14)
    assert frac_deriv_power(-0.5, 2.0, 4.0) == pytest.approx(
        -spgamma(1.5) / spgamma(2.0) * 4.0 ** (-1.5), rel=1e-14
    )


def test_power_rule_large_beta_uses_log_gamma():
    # Gamma(40.5)/Gamma(40) overflows if formed naively term by term at
    # much larger beta; check the ratio against mpmath at beta = 40 and 170
    for beta in (40.0, 170.0):
        got = frac_deriv_power(0.5, beta, 1.0)
        with mpmath.workdps(50):
            want = -mpmath.gamma(beta + 0.5) / mpmath.gamma(beta)
        assert got == pytest.approx(float(want), rel=1e-12)


def test_power_rule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        frac_deriv_power(1.5, 1.0, 2.0)  # order must stay below one
    with pytest.raises(ValueError):
        frac_deriv_power(0.5, -1.0, 2.0)  # beta > 0 required
    with pytest.raises(ValueError):
        frac_deriv_power(-0.5, 0.4, 2.0)  # alpha + beta must stay positive
    with pytest.raises(ValueError):
        frac_deriv_power(0.5, 1.0, 0.0)  # lam > 0 required


# ---------------------------------------------------------------------------
# quadrature representation


def _quad_exp(alpha, lam, x, cfg=DEFAULT_QUADRATURE):
    value, _ = frac_deriv_quadrature(
        lambda t: lam * lam * np.exp(-lam * t), alpha, x, cfg
    )
    return value


def test_quadrature_matches_exp_rule_fixed_cases():
    for alpha, lam, x in [(0.5, 2.0, 1.0), (0.25, 5.0, 0.3), (-0.5, 1.0, 2.0),
                          (0.9, 0.5, 4.0), (-0.85, 10.0, 0.1)]:
        assert _quad_exp(alpha, lam, x) == pytest.approx(
            frac_deriv_exp(alpha, lam, x), rel=1e-9
        )


def test_quadrature_matches_power_rule_fixed_cases():
    # f(lam) = lam^{-beta}, differentiate in lam: f'' = beta(beta+1) lam^{-beta-2}
    for alpha, beta, lam in [(0.5, 2.0, 3.0), (0.25, 1.5, 0.8), (-0.3, 3.0, 5.0),
                             (0.9, 0.7, 2.0)]:
        value, _ = frac_deriv_quadrature(
            lambda t: beta * (beta + 1.0) * t ** (-beta - 2.0), alpha, lam
        )
        assert value == pytest.approx(frac_deriv_power(alpha, beta, lam), rel=1e-9)


def test_quadrature_sweep_against_both_rules():
    # forty randomized cases; the full two-hundred-case sweep runs in the
    # acceptance suite
    rng = np.random.default_rng(99)
    for _ in range(40):
        alpha = float(rng.uniform(-0.9, 0.99))
        lam = float(rng.uniform(0.1, 50.0))
        x = float(rng.uniform(0.02, 10.0))
        got = _quad_exp(alpha, lam, x)
        want = frac_deriv_exp(alpha, lam, x)
        assert abs(got - want) <= 1e-7 * max(abs(want), 1e-300)
        beta = float(rng.uniform(max(1.05 - alpha, 0.2), 6.0))
        value, _ = frac_deriv_quadrature(
            lambda t: beta * (beta + 1.0) * t ** (-beta - 2.0), alpha, x
        )
        want_p = frac_deriv_power(alpha, beta, x)
        assert abs(value - want_p) <= 1e-7 * abs(want_p)


def test_quadrature_order_zero_is_negated_identity():
    lam, x = 3.0, 0.8
    assert _quad_exp(0.0, lam, x) == pytest.approx(-math.exp(-lam * x), rel=1e-9)


def test_orders_above_one_via_differentiated_integrand():
    # D^{1+a} f = D^a f'; for f = e^{-lam x} pass f''' as the second
    # derivative of f', picking up one sign from the inner d/dx
    lam, x = 2.0, 1.5
    value, _ = frac_deriv_quadrature(
        lambda t: -lam**3 * np.exp(-lam * t), 0.5, x
    )
    assert value == pytest.approx(-lam * frac_deriv_exp(0.5, lam, x), rel=1e-9)
    assert value == pytest.approx(lam**1.5 * math.exp(-lam * x), rel=1e-9)
    # two steps: order 2.3 via f'''' and alpha = 0.3
    value2, _ = frac_deriv_quadrature(
        lambda t: lam**4 * np.exp(-lam * t), 0.3, x
    )
    assert value2 == pytest.approx(-lam**2.3 * math.exp(-lam * x), rel=1e-9)


def test_quadrature_is_linear():
    lam1, lam2, x, alpha = 1.5, 4.0, 0.9, 0.4

    def f2(t):
        return 2.0 * lam1**2 * np.exp(-lam1 * t) - 3.0 * lam2**2 * np.exp(-lam2 * t)

    value, _ = frac_deriv_quadrature(f2, alpha, x)
    want = 2.0 * frac_deriv_exp(alpha, lam1, x) - 3.0 * frac_deriv_exp(alpha, lam2, x)
    assert value == pytest.approx(want, rel=1e-9)


def test_quadrature_error_estimate_is_honest():
    value, err = frac_deriv_quadrature(
        lambda t: 4.0 * np.exp(-2.0 * t), 0.5, 1.0
    )
    assert err >= 0.0
    assert abs(value - frac_deriv_exp(0.5, 2.0, 1.0)) <= max(err, 1e-12) * 10.0


def test_quadrature_evaluates_arrays_of_new_nodes_only():
    # each node of the rule goes to f_second once, in a few array calls;
    # the error estimate never reads zero
    calls = []

    def f2(t):
        calls.append(np.array(t))
        return 4.0 * np.exp(-2.0 * t)

    value, err = frac_deriv_quadrature(f2, 0.5, 1.0)
    assert value == pytest.approx(frac_deriv_exp(0.5, 2.0, 1.0), rel=1e-12)
    assert 0.0 < err < 1e-9 * abs(value)
    assert 1 <= len(calls) <= 4
    assert all(c.ndim == 1 and c.size > 1 for c in calls)
    # nodes within round-off of y = 1 all land on x itself
    nodes = np.concatenate(calls)
    inner = nodes[nodes != 1.0]
    assert len(np.unique(inner)) == len(inner)


def test_quadrature_failure_raises_with_diagnostics():
    # one subdivision cannot resolve the endpoint singularities
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=1)
    with pytest.raises(QuadratureAccuracyError) as exc:
        frac_deriv_quadrature(lambda t: 25.0 * np.exp(-5.0 * t), 0.5, 2.0, cfg)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.error_estimate > 0.0


def test_quadrature_domain_validation():
    f2 = lambda t: np.exp(-t)
    with pytest.raises(ValueError):
        frac_deriv_quadrature(f2, 1.0, 1.0)  # order must be < 1
    with pytest.raises(ValueError):
        frac_deriv_quadrature(f2, 0.5, 0.0)  # x must be positive
    with pytest.raises(ValueError):
        frac_deriv_quadrature(f2, 0.5, -1.0)
    with pytest.raises(ValueError):
        frac_deriv_quadrature(f2, float("nan"), 1.0)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=1e-10, abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=0)
    cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-10, max_subdivisions=50)
    assert cfg.rel_tol == 1e-8
