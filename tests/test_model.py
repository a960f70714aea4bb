"""Parameter objects and option contracts."""

import math

import pytest

from vgpricer import OptionSpec, VgParams


def test_drift_is_derived_from_sigma():
    p = VgParams(0.1, 0.2)
    assert p.mu == -0.5 * 0.1**2
    assert p.sigma == 0.1 and p.nu == 0.2


def test_drift_is_not_an_argument_so_one_model_is_one_value():
    with pytest.raises(TypeError):
        VgParams(0.1, 0.2, mu=-0.005)
    a, b = VgParams(0.1, 0.2), VgParams(sigma=0.1, nu=0.2)
    assert a == b and hash(a) == hash(b)


def test_martingale_identity_on_clock_grid():
    p = VgParams(0.3, 0.7)
    for s in (0.01, 0.5, 1.0, 7.0):
        assert math.exp((p.mu + 0.5 * p.sigma**2) * s) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("sigma,nu", [(0.0, 0.2), (-0.1, 0.2), (0.1, 0.0), (0.1, -1.0),
                                      (float("nan"), 0.2), (0.1, float("inf"))])
def test_parameter_validation(sigma, nu):
    with pytest.raises(ValueError):
        VgParams(sigma=sigma, nu=nu)


def test_option_spec_validation():
    spec = OptionSpec(spot=18.0, strike=20.0, maturity=0.2)
    assert spec.side == "put"
    assert spec.log_spot == math.log(18.0)
    assert spec.log_strike == math.log(20.0)
    with pytest.raises(ValueError):
        OptionSpec(spot=-1.0, strike=20.0, maturity=0.2)
    with pytest.raises(ValueError):
        OptionSpec(spot=18.0, strike=0.0, maturity=0.2)
    with pytest.raises(ValueError):
        OptionSpec(spot=18.0, strike=20.0, maturity=0.0)
    with pytest.raises(ValueError):
        OptionSpec(spot=18.0, strike=20.0, maturity=0.2, side="straddle")
