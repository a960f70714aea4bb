"""One benchmark run in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

The clock for ``setup_s`` starts just before ``import vgpricer`` and stops
after one untimed warm-up request, so nothing else may import numpy or
scipy first: this file imports only the standard library at the top.
The timed loop then repeats the workload's round of requests, each one
``vgpricer.bench.run_scenarios`` call timed from outside, until the run
has lasted ``--seconds`` and holds at least MIN_REQUESTS requests.
Checks run afterwards.  The last line of standard output is one JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

MC_PATHS = 100_000  # run_scenarios' default, passed explicitly for paths_per_s
MIN_REQUESTS = 100  # enough for a p90 with ten samples beyond it

# warm-up request: the first row of a built-in table with the workload's
# methods (T1 is exact for cgz, T2 fractional)
WARM_UP = {"frac_ladders": "T2", "mixed_book": "T2", "exact_book": "T1"}

PRICER_SPANS = {
    "cgz": "pricing.price_put_cgz",
    "mixture": "pricing.price_put_mixture",
    "fourier": "pricing.price_put_fourier",
    "mc": "pricing.price_put_mc",
}


def import_library(workload: str):
    """Import the library from the checkout and run the warm-up request.

    Returns (bench module, seconds taken)."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import vgpricer
    from vgpricer import bench

    if not os.path.abspath(vgpricer.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"vgpricer imported from {vgpricer.__file__}, not from {SRC}")
    methods = ("cgz",) if workload != "mixed_book" else bench.METHODS
    warm = bench.builtin_table_rows(WARM_UP[workload], methods)[:1]
    bench.run_scenarios(warm, seed=0, mc_paths=MC_PATHS)
    return bench, time.perf_counter() - start


def build_requests(bench, workload: str, seed: int):
    """The workload's round as (rows per request, ScenarioRows per request)."""
    import workloads

    if workload == "frac_ladders":
        requests = workloads.frac_ladders(seed)
    elif workload == "exact_book":
        requests = workloads.exact_book(seed)
    else:
        anchors = [
            workloads.Row(s.table, s.maturity, s.spot, s.strike, s.sigma, s.nu,
                          workloads.ALL_METHODS, s.expected)
            for tid in sorted(bench.BUILTIN_TABLES)
            for s in bench.builtin_table_rows(tid)
        ]
        requests = workloads.mixed_book(seed, anchors)
    scenarios = [[bench.ScenarioRow(*row) for row in req] for req in requests]
    return requests, scenarios


class Run:
    """What one timed loop produced.

    ``keys`` lists (request, row, method) for one round; ``values`` and
    ``diagnostics`` hold one array per repetition of the round in that
    order, NaN where the library reported a failure.  Only these flat
    arrays outlive each round, so memory does not grow with the number
    of rounds a run manages.
    """

    def __init__(self, requests):
        self.requests = requests
        self.keys = [(i, j, m) for i, req in enumerate(requests)
                     for j, row in enumerate(req) for m in row.methods]
        self.values: list[array] = []
        self.diagnostics: list[array] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.peak_rss_mb = 0.0

    def record(self, reports) -> None:
        values, diagnostics = array("d"), array("d")
        for rep in reports:
            for row in rep.rows:
                for method in row.scenario.methods:
                    quote = row.quotes.get(method)
                    if quote is None:
                        self.failed += 1
                        values.append(math.nan)
                        diagnostics.append(math.nan)
                    else:
                        values.append(quote.value)
                        diag = quote.diagnostics
                        diagnostics.append(math.nan if diag is None else diag)
        self.values.append(values)
        self.diagnostics.append(diagnostics)

    @property
    def attempted(self) -> int:
        return len(self.keys) * len(self.values)

    @property
    def prices_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.latencies)


def run_workload(bench, workload, seed, seconds, tracer=None) -> Run:
    requests, scenarios = build_requests(bench, workload, seed)
    request_seeds = [seed * 100_003 + i for i in range(len(scenarios))]
    run = Run(requests)
    start = time.perf_counter()
    while True:
        reports = []
        for i, rows in enumerate(scenarios):
            if tracer is not None:
                tracer.request = len(run.latencies)
            t0 = time.perf_counter()
            rep = bench.run_scenarios(rows, seed=request_seeds[i], mc_paths=MC_PATHS)
            run.latencies.append(time.perf_counter() - t0)
            reports.append(rep)
        run.record(reports)
        if time.perf_counter() - start >= seconds and len(run.latencies) >= MIN_REQUESTS:
            break
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run


def _quantile(values, q: int) -> float:
    """The q-th decile of values (statistics' default exclusive method)."""
    return statistics.quantiles(values, n=10)[q - 1]


def end_to_end_metrics(run: Run) -> dict:
    return {
        "prices_per_s": run.prices_per_s,
        "request.p50_ms": 1e3 * statistics.median(run.latencies),
        "request.p90_ms": 1e3 * _quantile(run.latencies, 9),
        "peak_rss_mb": run.peak_rss_mb,
    }


def layer_metrics(run: Run, tracer) -> dict:
    """Per-layer metrics from a traced run; 0 where the workload makes no such call."""
    calls, total, counts = tracer.calls, tracer.total, tracer.counts

    def n(method):
        return calls[PRICER_SPANS[method]]

    def per(value, method, scale=1.0):
        return scale * value / n(method) if n(method) else 0.0

    def pct(method, q):
        durs = tracer.durations[PRICER_SPANS[method]]
        if not durs:
            return 0.0
        return 1e3 * (statistics.median(durs) if q == 5 else _quantile(durs, q))

    in_pricers = sum(total[span] for span in PRICER_SPANS.values())
    prices = run.attempted - run.failed
    mc_time = total[PRICER_SPANS["mc"]]
    return {
        "pricing.cgz.p50_ms": pct("cgz", 5),
        "pricing.cgz.p90_ms": pct("cgz", 9),
        "pricing.mixture.p50_ms": pct("mixture", 5),
        "pricing.fourier.p50_ms": pct("fourier", 5),
        "pricing.mc.p50_ms": pct("mc", 5),
        "laplace.build_coeff_table.calls_per_price":
            per(calls["laplace.build_coeff_table"], "cgz"),
        "laplace.build_coeff_table.ms_per_price":
            per(total["laplace.build_coeff_table"], "cgz", 1e3),
        "laplace.c1_residual.ms_per_price": per(total["laplace.c1_residual"], "cgz", 1e3),
        "laplace.eval_m_exponential_part.ms_per_price":
            per(total["laplace.eval_m_exponential_part"], "cgz", 1e3),
        "laplace.eval_m.ms_per_price": per(total["laplace.eval_m"], "cgz", 1e3),
        "fracderiv.frac_deriv_quadrature.self_ms_per_price":
            per(tracer.self_time["fracderiv.frac_deriv_quadrature"], "cgz", 1e3),
        "fracderiv.quad.neval_per_price":
            per(counts["fracderiv.frac_deriv_quadrature.quad_neval"], "cgz"),
        "pricing.mixture.quad_neval_per_price":
            per(counts["pricing.price_put_mixture.quad_neval"], "mixture"),
        "pricing.fourier.quad_neval_per_price":
            per(counts["pricing.price_put_fourier.quad_neval"], "fourier"),
        "pricing.mc.paths_per_s": n("mc") * MC_PATHS / mc_time if mc_time else 0.0,
        "bench.overhead_us_per_price":
            1e6 * (total["bench.run_scenarios"] - in_pricers) / prices,
        "trace.prices_per_s": run.prices_per_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("frac_ladders", "mixed_book", "exact_book"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    bench, setup_s = import_library(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sys.path.insert(0, HERE)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        restore = spans.install(tracer)
    try:
        run = run_workload(bench, args.workload, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            restore()
    if tracer is not None:
        metrics = layer_metrics(run, tracer)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = end_to_end_metrics(run)

    import checks

    problems = checks.verify(args.workload, run, args.seed, MC_PATHS)
    for p in problems:
        print("check failed:", p, file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "rounds": len(run.values),
        "requests": len(run.latencies),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
