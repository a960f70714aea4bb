"""Fractional differentiation of decaying functions on (0, inf).

The operator used throughout is, for order alpha < 1,

    D^alpha f(x) = 1/Gamma(1-alpha) * d/dx int_x^inf (t - x)^{-alpha} f(t) dt.

It reproduces ordinary calculus in a slightly twisted way:

    D^0 f      = -f,
    D^alpha e^{-lam x}  = -lam^alpha e^{-lam x}          (lam > 0),
    D^alpha x^{-beta}   = -(Gamma(alpha+beta)/Gamma(beta)) x^{-alpha-beta}
                                                         (beta > 0, alpha+beta > 0),

the power rule being the analytic continuation of the defining integral
(which itself only converges for alpha + beta > 1).  Orders above 1 are
taken by composition: for n < alpha < n+1, apply d^n/dx^n first and
D^{alpha-n} to the result.

For a twice-differentiable f whose value and slope decay fast enough
that the boundary terms of two integrations by parts vanish (true for
exponentially decaying f, and for powers x^{-beta} when alpha+beta > 1),
the operator collapses to a single well-behaved integral over the unit
interval involving only f'':

    D^alpha f(x) = -x^{2-alpha}/Gamma(2-alpha)
                   * int_0^1 y^{alpha-3} (1 - y)^{1-alpha} f''(x/y) dy.

``frac_deriv_quadrature`` evaluates exactly that with the tanh-sinh
rule (Takahasi & Mori 1974): y = 1/(1 + e^{-pi sinh t}) clusters nodes
double-exponentially at both ends, which absorbs the y^{alpha-3} and
(1-y)^{1-alpha} endpoint behaviour; the singularity at y = 0 is
integrable because f''(x/y) decays there faster than y^{alpha-3} grows.
The rule has fixed nodes: their abscissa data is computed once per
level for the whole process, f'' is evaluated on a whole array of them
per call, and halving the step reuses every node already evaluated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

__all__ = [
    "QuadratureConfig",
    "QuadratureAccuracyError",
    "DEFAULT_QUADRATURE",
    "frac_deriv_exp",
    "frac_deriv_power",
    "frac_deriv_quadrature",
]

# switch Gamma-function ratios to log space above this argument
_LOG_GAMMA_CUTOVER = 30.0

# tanh-sinh abscissae span |t| <= _T_MAX, where y and 1 - y reach
# e^-140 (~1e-61): beyond, even the slowest integrand the pricer hands in
# (algebraic in y at the strike) is below round-off, and y^(alpha-2)
# stays far from overflow.  The first call evaluates all of them, but
# only |t| <= _T_CORE (y, 1 - y >= e^-46 ~ 1e-20) enters the sum unless
# the terms there have not decayed: the nodes past it (a quarter of the
# rule) sit at lam = x/y > 1e20 x, where the pricer's integrand, the
# Bessel series of m^(n+2), is below round-off unless the spot sits at
# the strike.  Evaluating them along costs less than a second call.
_T_MAX = math.asinh(140.0 / math.pi)
_T_CORE = math.asinh(46.0 / math.pi)
# coarsest step of the rule, and the level (halvings of it) the first
# f_second call reaches: one call then settles most integrands, and at
# alpha < 0 it reaches one level further
_H0 = 0.5
_FIRST_LEVEL = 3
# terms left out at either end add up to at most this share of the total
_TAIL_RTOL = 1e-17
# a difference this small (relative to int |integrand|) is round-off
_ROUNDOFF = 64.0 * sys.float_info.epsilon
# past this many halvings (~2300 new nodes on the last one) a
# difference that has not settled is not going to settle; more nodes
# would only cost memory
_MAX_HALVINGS = 8

# ``_rule``'s abscissa data, one entry per level: the nodes depend on the
# level alone, so every call shares them
_RULE: dict[int, np.ndarray] = {}


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy knobs shared by every quadrature in the package.

    max_subdivisions caps the subintervals of SciPy's adaptive ``quad``
    (mixture, Fourier) and the step halvings of the tanh-sinh rule in
    ``frac_deriv_quadrature`` (which never takes more than 8).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0.0) or not (self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureConfig()


class QuadratureAccuracyError(RuntimeError):
    """Raised when adaptive quadrature fails to reach the requested accuracy.

    Carries the best available estimate and its achieved error bound.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(
            f"{message} (best estimate {estimate!r}, achieved error {error_estimate!r})"
        )
        self.estimate = estimate
        self.error_estimate = error_estimate


def _check_order(alpha: float) -> None:
    if not (alpha < 1.0) or not math.isfinite(alpha):
        raise ValueError(f"fractional order must satisfy alpha < 1, got {alpha!r}")


def frac_deriv_exp(alpha: float, lam: float, x: float) -> float:
    """D^alpha applied to e^{-lam t}, evaluated at x:  -lam^alpha e^{-lam x}."""
    _check_order(alpha)
    if not (lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam!r}")
    return -(lam**alpha) * math.exp(-lam * x)


def frac_deriv_power(alpha: float, beta: float, lam: float) -> float:
    """D^alpha applied to t^{-beta}, evaluated at lam:
    -(Gamma(alpha+beta)/Gamma(beta)) lam^{-alpha-beta}.

    Valid for beta > 0 and alpha + beta > 0 by analytic continuation.
    The Gamma ratio moves to log space once either argument is large
    enough that the direct quotient risks overflow.
    """
    _check_order(alpha)
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta!r}")
    if not (alpha + beta > 0.0):
        raise ValueError(
            f"alpha + beta must be positive, got alpha={alpha!r}, beta={beta!r}"
        )
    if not (lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam!r}")
    if max(beta, alpha + beta) > _LOG_GAMMA_CUTOVER:
        ratio = math.exp(gammaln(alpha + beta) - gammaln(beta))
    else:
        ratio = math.gamma(alpha + beta) / math.gamma(beta)
    return -ratio * lam ** (-(alpha + beta))


def _rule(level: int) -> np.ndarray:
    """The abscissa data of one level of the rule, built on first use.

    Rows 1 + e^{-u}, log y, log(1 - y) and pi cosh t at t = step m, with
    u = pi sinh t and step = _H0 / 2^level.  Up to _FIRST_LEVEL, m runs
    over every integer with |t| <= _T_MAX (a first call's nodes); past
    it, over the odd m only, the nodes a halving adds, out to the
    _FIRST_LEVEL grid's last node.  The step is a power of two, so every
    t is the float the rule reaches by halving.
    """
    nodes = _RULE.get(level)
    if nodes is None:
        step = _H0 / 2**level
        if level <= _FIRST_LEVEL:
            k_max = int(_T_MAX / step)
            m = np.arange(-k_max, k_max + 1)
        else:
            half = int(_T_MAX / (_H0 / 2**_FIRST_LEVEL)) << (level - _FIRST_LEVEL)
            m = np.arange(1 - half, half, 2)
        t = step * m
        u = math.pi * np.sinh(t)
        nodes = np.array([
            1.0 + np.exp(-u),
            -np.logaddexp(0.0, -u),
            -np.logaddexp(0.0, u),
            math.pi * np.cosh(t),
        ])
        nodes.flags.writeable = False
        _RULE[level] = nodes
    return nodes


def _weighted_terms(f_second, alpha: float, x: float, nodes: np.ndarray) -> np.ndarray:
    """Integrand times the tanh-sinh weight at the abscissae whose
    ``_rule`` columns are ``nodes``: one f_second call, one row of terms
    per row of integrands it returns.

    y = 1 / (1 + e^{-u}) with u = pi sinh t, so dy/dt = pi cosh t y (1 - y);
    y and 1 - y come from their logarithms, exact at both ends.
    """
    scale, log_y, log_rest, pi_cosh = nodes
    f2 = np.asarray(f_second(x * scale), dtype=float)
    return pi_cosh * np.exp((alpha - 2.0) * log_y + (2.0 - alpha) * log_rest) * f2


def frac_deriv_quadrature(
    f_second: Callable[..., np.ndarray],
    alpha: float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[float, float] | list[tuple[float, float] | QuadratureAccuracyError]:
    """D^alpha f at x from the second derivative of f alone.

    ``f_second`` must be the exact second derivative of a function whose
    value and slope decay fast enough that the two integrations by parts
    underlying the reduction carry no boundary terms.  It is called on a
    1-d numpy array of points and must return an array of the same
    shape, never twice at one node of the rule.  The first call takes
    levels 0..3 of the rule over the whole range (at alpha < 0 also
    level 4); each later level takes one call on its new nodes inside
    the range the earlier levels left.

    The rule is tanh-sinh on (0, 1).  Its step starts at 1/2 and halves
    until two successive sums differ by at most max(rel_tol |I|,
    abs_tol int |integrand|), or by no more than round-off; at most
    min(cfg.max_subdivisions, 8) halvings.  Returns the value and an
    error estimate: that last difference plus the round-off floor and
    the truncated tails, so never 0 for a nonzero integrand.  Raises
    QuadratureAccuracyError when the halvings run out first.

    When the first call, ``f_second(lam)``, returns an (R x len(lam))
    array instead, it differentiates R functions at the same x and
    order, whose nodes are therefore the same: one integrand per row.
    Each row then cuts its own range, runs its own convergence test and
    error estimate, and takes its further levels alone, through
    ``f_second(lam, i)`` for row i.  Row i gets the floats a 1-d call
    would on its integrand.  Returns a list of R entries in row order:
    (value, error estimate), or the QuadratureAccuracyError of a row
    that did not converge.
    """
    _check_order(alpha)
    if not (x > 0.0):
        raise ValueError(f"x must be positive, got {x!r}")

    prefactor = -(x ** (2.0 - alpha)) / math.gamma(2.0 - alpha)

    # one f_second call covers levels 0.._FIRST_LEVEL at once, out to
    # _T_MAX, for every row.  At alpha < 0 the same call also takes the
    # next level's nodes over the whole range, since those integrands
    # often need that level.
    max_level = min(cfg.max_subdivisions, _MAX_HALVINGS)
    base_level = min(_FIRST_LEVEL, max_level)
    base_step = _H0 / 2**base_level
    nodes = _rule(base_level)
    width = nodes.shape[1]
    look_ahead = alpha < 0.0 and base_level < max_level
    if look_ahead:
        nodes = np.concatenate((nodes, _rule(base_level + 1)), axis=1)
    first_terms = _weighted_terms(f_second, alpha, x, nodes)

    def settle(terms: np.ndarray, f_row) -> tuple[float, float]:
        """One row from its first call's terms to convergence."""
        level, step = base_level, base_step
        terms, ahead = terms[:width], (terms[width:] if look_ahead else None)
        # a side keeps its nodes past _T_CORE only when its outermost core
        # term is not negligible.  The range is then cut where the terms
        # left out on either side add up to below _TAIL_RTOL of the total,
        # keeping one such term per side as the edge for later levels.
        mags = np.abs(terms)
        k_max, k_core = width // 2, int(_T_CORE / step)
        first, last = k_max - k_core, k_max + k_core
        edge = _TAIL_RTOL * mags[first : last + 1].sum()
        first = 0 if mags[first] > edge else first
        last = width - 1 if mags[last] > edge else last
        terms, mags = terms[first : last + 1], mags[first : last + 1]
        lo, hi = 0, len(terms)
        tail_tol = _TAIL_RTOL * mags.sum()
        if tail_tol > 0.0:
            left = int(mags.cumsum().searchsorted(tail_tol, side="right"))
            right = int(mags[::-1].cumsum().searchsorted(tail_tol, side="right"))
            lo, hi = max(left - 1, 0), hi - max(right - 1, 0)
        tail = step * float(mags[:lo].sum() + mags[hi:].sum())
        terms, mags = terms[lo:hi], mags[lo:hi]
        # the range runs from column `first` of the first level's grid, whose
        # node sits at k = first - k_max
        first += lo
        intervals = len(terms) - 1

        total, total_abs = float(terms.sum()), float(mags.sum())
        prev = 2.0 * step * float(terms[(first - k_max) % 2 :: 2].sum())
        value = step * total
        while True:
            diff = abs(value - prev)
            floor = _ROUNDOFF * step * total_abs + tail
            if not math.isfinite(value):
                break
            if diff <= max(cfg.rel_tol * abs(value), cfg.abs_tol * step * total_abs, floor):
                return prefactor * value, abs(prefactor) * (diff + floor)
            if level == max_level:
                break
            level += 1
            step /= 2.0
            # this level's new nodes inside the range, as columns of its rule
            start = first << (level - _FIRST_LEVEL - 1)
            new = slice(start, start + intervals)
            if ahead is not None:
                terms, ahead = ahead[new], None
            else:
                terms = _weighted_terms(f_row, alpha, x, _rule(level)[:, new])
            intervals *= 2
            total += float(terms.sum())
            total_abs += float(np.abs(terms).sum())
            prev, value = value, step * total
        raise QuadratureAccuracyError(
            "fractional-derivative quadrature did not converge",
            prefactor * value,
            abs(prefactor) * (diff + floor),
        )

    if first_terms.ndim == 1:
        return settle(first_terms, f_second)
    results: list = []
    for i, row_terms in enumerate(first_terms):
        try:
            results.append(settle(row_terms, lambda lam, i=i: f_second(lam, i)))
        except QuadratureAccuracyError as exc:
            results.append(exc)
    return results
