"""Seeded inputs of the three workloads.

Each workload turns a seed into one *round*: a fixed list of requests,
each request a list of rows priced by one ``bench.run_scenarios`` call.
A run repeats the round whole until its time is up, so every run prices
the same operations in the same proportions whatever its length, and
per-price counts from two traced runs of one seed agree exactly.

Rows are plain tuples here; the worker turns them into
``vgpricer.bench.ScenarioRow`` after the library is imported (this module
imports numpy only, so it can be loaded without touching the library).

Every box stays inside the domain where all four routes price today:
fractional t/nu below ~26 (above, ``laplace._build_levels`` overflows),
integer t/nu up to 64 (``laplace.MAX_LEVEL``), and nu*sigma^2 <= 0.36,
well inside the Fourier damping sweep's moment condition.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

ALL_METHODS = ("cgz", "mixture", "fourier", "mc")

SIGMA_BOX = (0.05, 0.6)
NU_BOX = (0.05, 1.0)
MONEYNESS_BOX = (0.5, 2.0)  # S/K
SPOT = 100.0

# frac_ladders: 96 ladders with t/nu in geometric strata over (0.05, 24)
# and sigma, nu in Latin-hypercube strata; each ladder prices three
# strikes at one spot and the middle strike at a second spot
FRAC_LADDERS = 96
FRAC_RHO = (0.05, 24.0)
# keep fractional t/nu at least this far from an integer (exact branch)
MIN_FRACTION = 0.02

# mixed_book: 166 seeded rows plus the 34 built-in anchors, 4 rows a request
MIXED_ROWS = 166
MIXED_RHO_MAX = 5.0
MIXED_INTEGER_SHARE = 1.0 / 3.0
MIXED_ROWS_PER_REQUEST = 4

# exact_book: 200 maturity ladders of 32 rows, t/nu = o, o+2, ..., o+62
EXACT_LADDERS = 200
EXACT_LEVELS = 32


class Row(NamedTuple):
    table: str
    maturity: float
    spot: float
    strike: float
    sigma: float
    nu: float
    methods: tuple[str, ...]
    expected: float | None = None


def _rng(seed: int, workload: str) -> np.random.Generator:
    salt = sum(ord(c) << (8 * i) for i, c in enumerate(workload[:7]))
    return np.random.default_rng([seed, salt])


def _fractional(draw) -> float:
    """Redraw until the value is at least MIN_FRACTION from any integer."""
    while True:
        rho = draw()
        if abs(rho - round(rho)) >= MIN_FRACTION:
            return rho


def _strata(rng, n, lo, hi):
    """One value in each of n equal strata of (lo, hi), in seeded order."""
    return lo + (rng.permutation(n) + rng.random(n)) * (hi - lo) / n


def frac_ladders(seed: int) -> list[list[Row]]:
    rng = _rng(seed, "frac_ladders")
    n = FRAC_LADDERS
    edges = np.log(np.geomspace(*FRAC_RHO, n + 1))
    sigmas = _strata(rng, n, *SIGMA_BOX)
    nus = _strata(rng, n, *NU_BOX)
    requests = []
    for i in range(n):
        rho = _fractional(lambda: math.exp(rng.uniform(edges[i], edges[i + 1])))
        sigma, nu = float(sigmas[i]), float(nus[i])
        t = rho * nu
        half = rng.uniform(0.1, 0.35)  # log-moneyness half-width of the strikes
        second_spot = SPOT * math.exp(rng.uniform(0.02, 0.15))
        rows = [Row("frac", t, SPOT, SPOT * math.exp(m), sigma, nu, ("cgz",))
                for m in (-half, 0.0, half)]
        rows.append(Row("frac", t, second_spot, SPOT, sigma, nu, ("cgz",)))
        requests.append(rows)
    order = rng.permutation(n)
    return [requests[i] for i in order]


def mixed_book(seed: int, anchors: list[Row]) -> list[list[Row]]:
    rng = _rng(seed, "mixed_book")
    rows = []
    for _ in range(MIXED_ROWS):
        if rng.random() < MIXED_INTEGER_SHARE:
            rho = float(rng.integers(1, int(MIXED_RHO_MAX) + 1))
        else:
            rho = _fractional(lambda: rng.uniform(FRAC_RHO[0], MIXED_RHO_MAX))
        sigma = rng.uniform(*SIGMA_BOX)
        nu = rng.uniform(*NU_BOX)
        moneyness = math.exp(rng.uniform(*np.log(MONEYNESS_BOX)))
        rows.append(Row("mixed", rho * nu, SPOT, SPOT / moneyness, sigma, nu, ALL_METHODS))
    keys = {(r.maturity, r.sigma, r.nu) for r in rows}
    if len(keys) != len(rows):
        raise ValueError("mixed_book rows must not share (t, sigma, nu)")
    book = rows + list(anchors)
    order = rng.permutation(len(book))
    book = [book[i] for i in order]
    step = MIXED_ROWS_PER_REQUEST
    return [book[i:i + step] for i in range(0, len(book), step)]


def exact_book(seed: int) -> list[list[Row]]:
    rng = _rng(seed, "exact_book")
    requests = []
    for i in range(EXACT_LADDERS):
        sigma = rng.uniform(*SIGMA_BOX)
        nu = rng.uniform(*NU_BOX)
        moneyness = math.exp(rng.uniform(*np.log(MONEYNESS_BOX)))
        strike = SPOT / moneyness
        first = 1 + i % 2
        requests.append([
            Row("exact", (first + 2 * j) * nu, SPOT, strike, sigma, nu, ("cgz",))
            for j in range(EXACT_LEVELS)
        ])
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


WORKLOADS = ("frac_ladders", "mixed_book", "exact_book")
