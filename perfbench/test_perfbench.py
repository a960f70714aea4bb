"""Self-test of the benchmark (about two minutes):

    python3 -m pytest perfbench -q

It checks the references against the paper's table T1, that every
workload runs and prints every metric BENCHMARK.json names, that the
checks reject a price moved by 1e-6 K, and that the command refuses to
run without the library's source.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import worker  # noqa: E402
from reference import mixture_put_batch, mpmath_put  # noqa: E402

WORKLOADS = ("frac_ladders", "mixed_book", "exact_book")

# per-layer metrics that must read above 0 on a workload; every other
# per-layer metric may read 0 there, because the workload makes no such
# call (no Monte Carlo in frac_ladders, no quadrature in exact_book, ...)
EXERCISED = {
    "frac_ladders": {
        "pricing.cgz.p50_ms", "pricing.cgz.p90_ms",
        "laplace.build_coeff_table.calls_per_price",
        "laplace.build_coeff_table.ms_per_price", "laplace.c1_residual.ms_per_price",
        "laplace.eval_m_exponential_part.ms_per_price",
        "fracderiv.frac_deriv_quadrature.self_ms_per_price",
        "fracderiv.quad.neval_per_price",
    },
    "mixed_book": {
        "pricing.cgz.p50_ms", "pricing.mixture.p50_ms", "pricing.fourier.p50_ms",
        "pricing.mc.p50_ms", "pricing.mixture.quad_neval_per_price",
        "pricing.fourier.quad_neval_per_price", "pricing.mc.paths_per_s",
    },
    "exact_book": {
        "pricing.cgz.p50_ms", "laplace.build_coeff_table.calls_per_price",
        "laplace.build_coeff_table.ms_per_price", "laplace.eval_m.ms_per_price",
    },
}
ALWAYS = {"bench.overhead_us_per_price", "trace.prices_per_s", "import.vgpricer_ms",
          "import.scipy_stats_ms", "import.scipy_integrate_ms"}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_mpmath_reference_reproduces_table_t1():
    from vgpricer.bench import BUILTIN_TABLES

    tb = BUILTIN_TABLES["T1"]
    for t, expected in zip(tb.maturities, tb.expected):
        assert abs(mpmath_put(tb.spot, tb.strike, t, tb.sigma, tb.nu) - expected) <= 5e-4


def test_numpy_reference_matches_mpmath_across_shapes():
    rng = np.random.default_rng(7)
    rows = [(100.0, 100.0 / math.exp(rng.uniform(-0.69, 0.69)), rho * nu, sigma, nu)
            for rho, sigma, nu in [(0.05, 0.3, 0.5), (0.7, 0.05, 1.0), (3.5, 0.6, 0.05),
                                   (23.9, 0.2, 0.3), (64.0, 0.5, 0.9)]]
    # deep in the money at t/nu ~ 0.055: the density's mass sits below 1e-20
    rows.append((100.0, 118.923, 0.0241582, 0.318347, 0.43626))
    batch = mixture_put_batch(*zip(*rows))
    for row, value in zip(rows, batch):
        assert abs(value - mpmath_put(*row)) <= 1e-10 * row[1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = _spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] >= 0.0
        if not trace or m["name"] in EXERCISED[workload] | ALWAYS:
            assert got["value"] > 0.0, m["name"]


def _priced_round(bench, workload, seed, count):
    """A Run holding one repetition of the first ``count`` requests."""
    requests, scenarios = worker.build_requests(bench, workload, seed)
    run = worker.Run(requests[:count])
    run.record([bench.run_scenarios(rows, seed=i, mc_paths=worker.MC_PATHS)
                for i, rows in enumerate(scenarios[:count])])
    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_a_price_moved_by_1e6_strike(workload):
    from vgpricer import bench

    run = _priced_round(bench, workload, seed=5, count=6)
    assert checks.verify(workload, run, 5, worker.MC_PATHS) == []
    rng = np.random.default_rng(11)
    deterministic = [c for c, key in enumerate(run.keys) if key[2] != "mc"]
    for sign in (1.0, -1.0):
        c = int(rng.choice(deterministic))
        i, j, _ = run.keys[c]
        original = run.values[0][c]
        run.values[0][c] = original + sign * 1e-6 * run.requests[i][j].strike
        try:
            assert checks.verify(workload, run, 5, worker.MC_PATHS) != []
        finally:
            run.values[0][c] = original


def test_command_fails_without_library_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_book", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
