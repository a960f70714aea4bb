"""Correctness checks on every price a run made, run outside the timed region.

``verify`` takes a ``worker.Run`` (the round of requests, and the value
and diagnostics of every price of every repetition of the round) and
returns a list of problems, empty when every check passes.  Prices the
library reported as failed (NaN here) are not checked; the run counts
them apart.

Checks, each on every price unless noted:

* no-arbitrage bounds: (K - S)^+ <= P <= K (Monte Carlo: 0 <= P <= K);
* the numpy gamma-mixture reference within AGREE_TOL * K (cgz, mixture,
  fourier);
* cgz, mixture and fourier within AGREE_TOL * K of each other, on every
  row of mixed_book; on the cgz-only workloads a seeded subset of rows
  is repriced by mixture (fourier is left out there: at t/nu above the
  mixed box it raises for large nu sigma^2, a known fault);
* the mpmath reference within AGREE_TOL * K on a seeded subset;
* built-in table rows within ANCHOR_TOL of their quoted references;
* Monte Carlo within MC_SDS standard errors of cgz, plus MC_FLOOR_PATHS
  paths' worth of payoff (K / paths each): the standard error of a
  deep out-of-the-money put is estimated from the few paths that end in
  the money, and reads 0 when none does;
* ladders (frac_ladders): puts convex in strike with slope in [0, 1]
  at each spot, and convex in spot with slope in [-1, 0] at each strike;
* maturity ladders (exact_book): puts non-decreasing in maturity.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from reference import mixture_put_batch, mpmath_put

AGREE_TOL = 1e-8
ANCHOR_TOL = 5e-4
BOUND_SLACK = 1e-9
MC_SDS = 5.0
MC_FLOOR_PATHS = 10.0
MPMATH_ROWS = 3
CROSS_ROWS = 24
MAX_LISTED = 8


class _Problems(list):
    """Problem messages; only the first MAX_LISTED of each kind are kept."""

    def __init__(self):
        super().__init__()
        self.seen: defaultdict = defaultdict(int)

    def add(self, kind: str, msg: str) -> None:
        self.seen[kind] += 1
        if self.seen[kind] <= MAX_LISTED:
            self.append(f"{kind}: {msg}")


def _where(i, j, row):
    return (f"request {i} row {j} (t={row.maturity:.6g} S={row.spot:.6g} "
            f"K={row.strike:.6g} sigma={row.sigma:.6g} nu={row.nu:.6g})")


def verify(workload, run, seed, mc_paths) -> list[str]:
    problems = _Problems()
    requests = run.requests
    rows = [(i, j, row) for i, req in enumerate(requests) for j, row in enumerate(req)]
    row_index = {(i, j): n for n, (i, j, _) in enumerate(rows)}
    col = {key: c for c, key in enumerate(run.keys)}
    at = np.array([row_index[(i, j)] for i, j, _ in run.keys])
    method = np.array([m for _, _, m in run.keys])
    strike = np.array([r.strike for _, _, r in rows])[at]
    spot = np.array([r.spot for _, _, r in rows])[at]
    expected = np.array([np.nan if r.expected is None else r.expected for _, _, r in rows])[at]
    ref = mixture_put_batch(*zip(*[(r.spot, r.strike, r.maturity, r.sigma, r.nu)
                                   for _, _, r in rows]))[at]
    values = np.array(run.values)
    diags = np.array(run.diagnostics)

    def flag(kind, bad, what):
        # NaN (failed) prices compare False, so they are never flagged
        for r, c in zip(*np.nonzero(bad)):
            i, j, m = run.keys[c]
            problems.add(kind, f"round {r} {_where(i, j, requests[i][j])}: {m} "
                               f"{values[r, c]!r} {what(r, c)}")

    def other(r, c, m):
        return values[r, col[run.keys[c][:2] + (m,)]]

    mc = method == "mc"
    det = ~mc
    low = np.where(mc, 0.0, np.maximum(strike - spot, 0.0))
    slack = BOUND_SLACK * np.maximum(1.0, strike)
    flag("bounds", (values < low - slack) | (values > strike + slack),
         lambda r, c: f"outside [{low[c]!r}, {strike[c]!r}]")
    flag("reference", det & (np.abs(values - ref) > AGREE_TOL * strike),
         lambda r, c: f"vs numpy reference {ref[c]!r}")
    flag("anchor", det & (np.abs(values - expected) > ANCHOR_TOL),
         lambda r, c: f"vs quoted {expected[c]!r}")
    for a, b in (("cgz", "mixture"), ("cgz", "fourier"), ("mixture", "fourier"), ("mc", "cgz")):
        pairs = [(c, col[(i, j, b)]) for c, (i, j, m) in enumerate(run.keys)
                 if m == a and (i, j, b) in col]
        if not pairs:
            continue
        ca, cb = np.array(pairs).T
        if a == "mc":
            tol = MC_SDS * diags[:, ca] + MC_FLOOR_PATHS * strike[ca] / mc_paths
        else:
            tol = AGREE_TOL * strike[ca]
        bad = np.zeros(values.shape, dtype=bool)
        bad[:, ca] = np.abs(values[:, ca] - values[:, cb]) > tol
        flag("mc" if a == "mc" else "agreement", bad,
             lambda r, c, b=b: f"(+- {diags[r, c]!r}) vs {b} {other(r, c, b)!r}")

    for i, req in enumerate(requests):
        cols = [col[(i, j, "cgz")] for j in range(len(req))]
        for r in range(len(values)):
            if workload == "frac_ladders":
                _check_ladder(problems, f"round {r} request {i}", req, values[r, cols])
            elif workload == "exact_book":
                _check_maturity_ladder(problems, f"round {r} request {i}", req, values[r, cols])

    rng = np.random.default_rng([seed, 0x5EED])
    first = values[0]
    for n in rng.choice(len(rows), size=min(MPMATH_ROWS, len(rows)), replace=False):
        i, j, row = rows[n]
        cgz = first[col[(i, j, "cgz")]]
        mp = mpmath_put(row.spot, row.strike, row.maturity, row.sigma, row.nu)
        if abs(cgz - mp) > AGREE_TOL * row.strike:
            problems.add("mpmath", f"{_where(i, j, row)}: cgz {cgz!r} vs mpmath {mp!r}")
    if workload != "mixed_book":
        for n in rng.choice(len(rows), size=min(CROSS_ROWS, len(rows)), replace=False):
            i, j, row = rows[n]
            cgz = first[col[(i, j, "cgz")]]
            if np.isfinite(cgz):
                _cross_price(problems, i, j, row, cgz)
    if problems.seen:
        problems.append("counts: " + ", ".join(f"{k}={v}" for k, v in sorted(problems.seen.items())))
    return problems


def _check_ladder(problems, where, req, values):
    """Strike ladders at each spot and spot ladders at each strike."""
    by_spot, by_strike = defaultdict(list), defaultdict(list)
    for row, v in zip(req, values):
        if np.isfinite(v):
            by_spot[row.spot].append((row.strike, v))
            by_strike[row.strike].append((row.spot, v))
    for spot, pts in by_spot.items():
        _check_slopes(problems, f"{where} spot {spot:.6g}, along strike", pts, 0.0, 1.0)
    for strike, pts in by_strike.items():
        _check_slopes(problems, f"{where} strike {strike:.6g}, along spot", pts, -1.0, 0.0)


def _check_slopes(problems, where, pts, low, high):
    """Slopes within [low, high] and non-decreasing (convexity), to tolerance."""
    if len(pts) < 2:
        return
    x, v = np.array(sorted(pts)).T
    dx = np.diff(x)
    slopes = np.diff(v) / dx
    slope_tol = 2.0 * AGREE_TOL * max(x.max(), v.max()) / dx.min()
    if np.any(slopes < low - slope_tol) or np.any(slopes > high + slope_tol):
        problems.add("ladder", f"{where}: slopes {slopes.tolist()} outside [{low}, {high}]")
    if np.any(np.diff(slopes) < -slope_tol):
        problems.add("ladder", f"{where}: prices {v.tolist()} not convex")


def _check_maturity_ladder(problems, where, req, values):
    pts = sorted((row.maturity, v) for row, v in zip(req, values) if np.isfinite(v))
    v = np.array([p[1] for p in pts])
    if np.any(np.diff(v) < -AGREE_TOL * req[0].strike):
        problems.add("maturity", f"{where}: puts decrease in maturity {v.tolist()}")


def _cross_price(problems, i, j, row, cgz_value):
    from vgpricer import OptionSpec, VgParams, price_put_mixture

    try:
        value = price_put_mixture(OptionSpec(row.spot, row.strike, row.maturity),
                                  VgParams(row.sigma, row.nu)).value
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        problems.add("agreement", f"{_where(i, j, row)}: mixture raised {exc!r}")
        return
    if abs(value - cgz_value) > AGREE_TOL * row.strike:
        problems.add("agreement", f"{_where(i, j, row)}: cgz {cgz_value!r} vs mixture {value!r}")
