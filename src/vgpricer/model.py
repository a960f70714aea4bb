"""Model parameters and option contracts.

The underlying is an exponential variance gamma process: arithmetic
Brownian motion X with drift mu and volatility sigma, run on an
independent gamma clock gamma(t) with unit mean rate and variance rate
nu, so that

    S(t) = S(0) * exp( X(gamma(t)) ),
    gamma(t) ~ Gamma(shape = t/nu, rate = 1/nu).

Rates are zero throughout, so the spot itself must be a martingale.
Conditioning on the clock gives E[exp(X(s))] = exp((mu + sigma^2/2) s),
hence the drift is pinned at

    mu = -sigma^2 / 2

exactly.  ``VgParams`` takes sigma and nu only and derives mu from
sigma, so there is no way to build a parameter set that breaks the
martingale property, and one model is one value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["VgParams", "OptionSpec"]


@dataclass(frozen=True)
class VgParams:
    """Parameters of the time-changed Brownian motion.

    sigma : volatility of the Brownian component, > 0
    nu    : variance rate of the gamma clock, > 0
    mu    : drift of the Brownian component, derived as -sigma^2/2; not
            an argument
    """

    sigma: float
    nu: float
    mu: float = field(init=False)

    def __post_init__(self):
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not (self.nu > 0.0) or not math.isfinite(self.nu):
            raise ValueError(f"nu must be positive and finite, got {self.nu!r}")
        object.__setattr__(self, "mu", -0.5 * self.sigma * self.sigma)


@dataclass(frozen=True)
class OptionSpec:
    """A European option on the variance gamma spot.

    spot, strike and maturity must be positive; side is 'put' or 'call'.
    """

    spot: float
    strike: float
    maturity: float
    side: str = "put"

    def __post_init__(self):
        for name in ("spot", "strike", "maturity"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if self.side not in ("put", "call"):
            raise ValueError(f"side must be 'put' or 'call', got {self.side!r}")

    @property
    def log_spot(self) -> float:
        return math.log(self.spot)

    @property
    def log_strike(self) -> float:
        return math.log(self.strike)

