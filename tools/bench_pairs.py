"""Alternating parent/change pairs of benchmark runs, summarised in one file.

    python3 tools/bench_pairs.py --label NAME --parent HEAD \\
        --workloads frac_ladders,exact_book --seed 1001

The change side is this checkout's working tree.  The parent side is
the committed files of ``--parent``, extracted with ``git archive`` into
a temporary directory that is removed on exit (an extracted tree leaves
nothing behind in ``.git``, even when the runner is killed).  Each
workload gets ten pairs, the fewest the gain rule below accepts; pair i
(i = 0..9) runs

    python3 perfbench/run.py --workload W --seed SEED+i --seconds T --trace 0

in both trees, with T the ``run_seconds`` of ``BENCHMARK.json`` and both
sides on the same seed; the parent runs first in
even pairs and the change first in odd ones, so a drift of the
machine's speed falls on both sides alike.

The summary goes to ``BENCH_<label>.json`` at the root of the checkout
(the workloads of an earlier call with the same label are kept unless
run again).  For each workload and each end-to-end metric of
``BENCHMARK.json`` it holds every run's value on either side, the
medians and quartiles, the pairs the change won (ties count for
neither side) and a verdict:

* ``gain``: the change won at least 9/10 of the pairs and its median is
  better than the parent's by more than the parent's quartile spread;
* ``worse``: its median is worse than the parent's by more than the
  metric's bound;
* ``unresolved``: neither, and the parent's quartile spread is wider
  than the bound, unless every run of the change reads better than
  every run of the parent;
* ``within bound``: otherwise;
* ``gain void``: the metric alone reads as a gain, but a run of the
  change was not correct or the change failed a larger share of its
  prices than the parent.

Each workload's summary also lists under ``more_failures`` every seed
at which the change failed a larger share of its prices than the
parent, with the failed and attempted prices of both sides, so a void
gain names the runs to rerun by hand.

The file also records the seeds, the command, the CPU count and the
Python, numpy and SciPy versions.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300
PAIRS = 10
GAIN_SHARE = 0.9


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None) -> dict:
    """Compare one metric over pairs: parent[i] and change[i] come from pair i."""
    if len(parent) != len(change) or len(parent) < PAIRS:
        raise ValueError(f"need at least {PAIRS} pairs, with one value per side each")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0.0)
    # quartiles as ``perfbench/run.py --repeat`` computes them
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    gain = sign * (c_med - p_med)  # > 0 when the change's median is better
    spread = p_q3 - p_q1
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if wins >= GAIN_SHARE * len(parent) and gain > spread:
        verdict = "gain"
    elif bound is not None and -gain > bound * abs(p_med):
        verdict = "worse"
    elif bound is not None and spread > bound * abs(p_med) and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "better": better,
        "bound": bound,
        "parent": {"values": parent, "median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"values": change, "median": c_med, "q1": c_q1, "q3": c_q3},
        "ratio": c_med / p_med if p_med else None,
        "wins": f"{wins}/{len(parent)}",
        "verdict": verdict,
    }


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def _extract(rev: str, dest: str) -> None:
    """Write the committed files of ``rev`` under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev)), mode="r:") as tar:
        tar.extractall(dest, filter="data")


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} in {tree} could not run")
    return json.loads(lines[-1])


def _versions() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def summarize_runs(runs: list[dict], metrics: list[dict]) -> dict:
    """Summarise every metric over the pairs of one workload.

    A gain is void when a run of the change was not correct or the
    change failed a larger share of its prices than the parent.
    """
    summary = {
        m["name"]: summarize([r["parent"]["metrics"][m["name"]] for r in runs],
                             [r["change"]["metrics"][m["name"]] for r in runs],
                             m["better"], m.get("bound"))
        for m in metrics
    }
    share = {side: sum(r[side]["failed"] for r in runs)
             / sum(r[side]["attempted"] for r in runs)
             for side in ("parent", "change")}
    void = (not all(r["change"]["correct"] for r in runs)
            or share["change"] > share["parent"])
    for s in summary.values():
        if void and s["verdict"] == "gain":
            s["verdict"] = "gain void"
    summary["failed_share"] = summarize(
        [r["parent"]["failed"] / r["parent"]["attempted"] for r in runs],
        [r["change"]["failed"] / r["change"]["attempted"] for r in runs],
        "lower", None)
    return summary


def more_failures(runs: list[dict]) -> list[dict]:
    """The pairs whose change run failed a larger share of its prices than
    the parent run of the same seed, with both sides' counts."""
    return [
        {"seed": r["seed"],
         **{side: {k: r[side][k] for k in ("failed", "attempted")}
            for side in ("parent", "change")}}
        for r in runs
        if r["change"]["failed"] * r["parent"]["attempted"]
        > r["parent"]["failed"] * r["change"]["attempted"]
    ]


def run_pairs(trees: dict, workload: str, seeds: list[int], seconds: float,
              metrics: list[dict]) -> dict:
    """Alternate the two trees over ``seeds``; summarise every metric."""
    runs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"seed": seed, "first": order[0]}
        for side in order:
            res = _run(trees[side], workload, seed, seconds)
            run[side] = {k: res[k] for k in ("correct", "attempted", "failed")}
            run[side]["metrics"] = {m["name"]: res["metrics"][m["name"]]["value"]
                                    for m in metrics}
            print(f"{workload} seed {seed} {side}: prices_per_s "
                  f"{run[side]['metrics']['prices_per_s']:.5g}", file=sys.stderr, flush=True)
        runs.append(run)
    return {"runs": runs, "metrics": summarize_runs(runs, metrics),
            "more_failures": more_failures(runs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    seeds = list(range(args.seed, args.seed + PAIRS))
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    doc = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    parent_sha = _git("rev-parse", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        _extract(parent_sha, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in args.workloads.split(","):
            result = run_pairs(trees, workload, seeds, seconds, metrics)
            doc["workloads"][workload] = {"seeds": seeds, "seconds": seconds,
                                          "parent": parent_sha, **result}
            doc.update({
                "label": args.label,
                "change": "working tree of " + _git("rev-parse", "HEAD").decode().strip(),
                "command": "python3 perfbench/run.py --workload W --seed S "
                           "--seconds T --trace 0",
                "rule": "gain: change wins >= 9/10 pairs, the medians differ by "
                        "more than the parent's quartile spread, every change run "
                        "is correct and the change fails no larger share",
                "machine": _versions(),
            })
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            for name, s in result["metrics"].items():
                print(f"{workload:13s} {name:16s} {s['parent']['median']:10.5g} -> "
                      f"{s['change']['median']:10.5g}  wins {s['wins']:>5s}  {s['verdict']}")
            for m in result["more_failures"]:
                print(f"{workload:13s} seed {m['seed']}: the change failed "
                      f"{m['change']['failed']}/{m['change']['attempted']} prices, "
                      f"the parent {m['parent']['failed']}/{m['parent']['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
