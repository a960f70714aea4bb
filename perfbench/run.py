"""Pricing benchmark: one run of one workload, or a repeat summary.

    python3 perfbench/run.py --workload frac_ladders --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload exact_book --seed 1 --seconds 30 --repeat 10

Run from the root of a checkout; the library is imported from its
``src``.  Every interpreter started here has numeric-library threads
pinned to one.  A run with ``--trace 0`` starts SETUP_PROBES
interpreters that only import the library and price one warm-up
request, then one interpreter for the workload (worker.py), and prints
the end-to-end metrics; ``setup_s`` is the median of the probes' and the
workload interpreter's set-up times.  ``--trace 1`` runs the workload
with the layer tracer installed, times the imports with
``python3 -X importtime`` IMPORT_PROBES times, and prints the per-layer
metrics.  The last line of standard output is the result as one JSON
object.  The exit code is 0 when every check passed, 1 when a check
failed, and 2 when the run could not be made.

``--repeat K`` makes K runs on seeds seed..seed+K-1 and prints, for each
metric, the median, the quartiles and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json.  The summary
is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("frac_ladders", "mixed_book", "exact_book")

SETUP_PROBES = 4
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60
RUN_BUDGET_S = 170  # one run, probes included, must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORTS = {
    "import.vgpricer_ms": "vgpricer",
    "import.scipy_stats_ms": "scipy.stats",
    "import.scipy_integrate_ms": "scipy.integrate",
}


class RunError(Exception):
    """A run that could not be made (as opposed to one whose checks failed)."""


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _spawn(args, timeout, stderr=None) -> subprocess.CompletedProcess:
    """Run one child interpreter to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), text=True,
                              stdout=subprocess.PIPE, stderr=stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{args[:2]} did not finish within {timeout:.0f} s") from exc


def _worker(args, timeout) -> dict:
    proc = _spawn([os.path.join(HERE, "worker.py"), *args], timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _import_times() -> dict:
    """Cumulative import times (ms) of IMPORTS, from ``-X importtime``."""
    proc = _spawn(["-X", "importtime", "-c", "import vgpricer"], PROBE_TIMEOUT_S,
                  stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise RunError("import vgpricer failed")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            cumulative.setdefault(name.strip(), cum.strip())
    try:
        return {metric: int(cumulative[mod]) / 1e3 for metric, mod in IMPORTS.items()}
    except (KeyError, ValueError) as exc:
        raise RunError(f"no import time for {exc}") from exc


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: probes plus the workload interpreter; returns the result object."""
    deadline = time.monotonic() + RUN_BUDGET_S
    setups, imports = [], []
    if trace:
        imports = [_import_times() for _ in range(IMPORT_PROBES)]
    else:
        for _ in range(SETUP_PROBES):
            probe = _worker(["--workload", workload, "--setup-only"], PROBE_TIMEOUT_S)
            setups.append(probe["setup_s"])
    res = _worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)], deadline - time.monotonic())
    metrics = res["metrics"]
    if trace:
        for metric in IMPORTS:
            metrics[metric] = statistics.median(i[metric] for i in imports)
    else:
        metrics["setup_s"] = statistics.median(setups + [res["setup_s"]])
    units = _units()
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _units() -> dict:
    spec = _benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def repeat(workload: str, seed: int, seconds: float, trace: int, k: int) -> dict:
    """K runs on consecutive seeds; per metric median, quartiles and spread."""
    bounds = {m["name"]: m["bound"] for m in _benchmark_spec()["end_to_end"]}
    results = []
    for i in range(k):
        res = run_once(workload, seed + i, seconds, trace)
        results.append(res)
        print(f"run {i + 1}/{k} seed {seed + i}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound:.2f} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:48s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"spread {100 * spread:5.2f}%{flag}")
    failed_share = {r["failed"] / r["attempted"] for r in results}
    doc = {"workload": workload, "seeds": [seed, seed + k - 1], "seconds": seconds,
           "trace": trace, "all_correct": all(r["correct"] for r in results),
           "failed_shares": sorted(failed_share), "metrics": summary}
    os.makedirs(OUT, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(OUT, f"repeat-{workload}-trace{trace}-{stamp}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, metavar="K",
                    help="make K runs on consecutive seeds and summarise them")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "vgpricer", "__init__.py")):
        print(f"no library source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.repeat:
            doc = repeat(args.workload, args.seed, args.seconds, args.trace, args.repeat)
            print(json.dumps({k: doc[k] for k in ("workload", "all_correct", "failed_shares")}))
            return 0 if doc["all_correct"] else 1
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
