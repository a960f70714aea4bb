"""Command-line front end.

    vgp price --spot 18 --strike 20 --maturity 0.2 --sigma 0.1 --nu 0.2 \
              --side put --method cgz
    vgp table T1 --format csv --output t1.csv
    vgp bench --scenarios rows.csv --reps 5 --format json

Global options (before or after the subcommand): --format csv|json|text,
--output PATH, --seed N.  The seed also reads the VGP_SEED environment
variable; the flag wins.  Exit codes: 0 success, 1 at least one row
failed to price, 2 bad configuration (arguments, files, formats).

Every subcommand prices through ``pricing.price``; ``price --format
csv`` renders its quote as a one-row report, in the layout of ``table``
and ``bench``.

Scenario CSV files use the identifying columns of the report header:
``table,t,S,K,sigma,nu`` (``table`` optional), plus optional ``method``
(semicolon-separated list; empty means all) and ``expected`` columns.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .bench import (
    BUILTIN_TABLES,
    BenchReport,
    RowResult,
    ScenarioRow,
    builtin_table_rows,
    emit_report,
    run_scenarios,
)
from .fracderiv import DEFAULT_QUADRATURE, QuadratureConfig
from .model import OptionSpec, VgParams
from .pricing import METHODS, McConfig, price

__all__ = ["main", "build_parser"]

_ENV_SEED = "VGP_SEED"


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same options live on the root parser (with real defaults) and on
    # each subparser (defaulting to SUPPRESS so they never mask root values)
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--format", choices=("csv", "json", "text"),
                        default=d if suppress else "text",
                        help="output format (default: text)")
    parser.add_argument("--output", default=d if suppress else None,
                        metavar="PATH", help="write output to PATH instead of stdout")
    parser.add_argument("--seed", type=int, default=d if suppress else None,
                        metavar="N", help=f"RNG seed (env {_ENV_SEED}; flag wins)")


def _path_count(raw: str) -> int:
    """The type of ``--paths``: an int of at least 1."""
    try:
        paths = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if paths < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {paths}")
    return paths


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="vgp",
        description="Variance gamma European option pricing and benchmarks.",
    )
    _add_global_options(root, suppress=False)
    sub = root.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_price = sub.add_parser("price", help="price a single option")
    _add_global_options(p_price, suppress=True)
    p_price.add_argument("--spot", type=float, required=True)
    p_price.add_argument("--strike", type=float, required=True)
    p_price.add_argument("--maturity", type=float, required=True)
    p_price.add_argument("--sigma", type=float, required=True)
    p_price.add_argument("--nu", type=float, required=True)
    p_price.add_argument("--side", choices=("put", "call"), default="put")
    p_price.add_argument("--method", choices=METHODS, default="cgz")
    p_price.add_argument("--tol", type=float, default=None,
                         help="quadrature tolerance override (sets rel=tol, abs=tol/100)")
    p_price.add_argument("--paths", type=_path_count, default=1_000_000,
                         help="Monte Carlo paths (mc method only)")

    p_table = sub.add_parser("table", help="reproduce a built-in table")
    _add_global_options(p_table, suppress=True)
    p_table.add_argument("table_id", choices=sorted(BUILTIN_TABLES),
                         metavar="TABLE", help="one of " + ", ".join(sorted(BUILTIN_TABLES)))
    p_table.add_argument("--methods", default=",".join(METHODS),
                         help="comma-separated subset of " + ",".join(METHODS))
    p_table.add_argument("--reps", type=int, default=1,
                         help="timing repetitions per call (median reported)")
    p_table.add_argument("--paths", type=_path_count, default=100_000,
                         help="Monte Carlo paths per row")

    p_bench = sub.add_parser("bench", help="price scenarios from a CSV file")
    _add_global_options(p_bench, suppress=True)
    p_bench.add_argument("--scenarios", required=True, metavar="FILE")
    p_bench.add_argument("--reps", type=int, default=1,
                         help="timing repetitions per call (median reported)")
    p_bench.add_argument("--methods", default=None,
                         help="override methods for every row (comma-separated)")
    p_bench.add_argument("--paths", type=_path_count, default=100_000,
                         help="Monte Carlo paths per row")
    return root


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    else:
        raw = os.environ.get(_ENV_SEED)
        if raw is None:
            return 0
        try:
            seed = int(raw)
        except ValueError:
            print(f"vgp: {_ENV_SEED}={raw!r} is not an integer", file=sys.stderr)
            raise _ConfigError() from None
    if not 0 <= seed < 2**64:
        print(f"vgp: seed must fit an unsigned 64-bit integer, got {seed}",
              file=sys.stderr)
        raise _ConfigError()
    return seed


class _ConfigError(Exception):
    pass


def _parse_methods(raw: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in raw.split(",") if m.strip())
    bad = [m for m in methods if m not in METHODS]
    if bad or not methods:
        print(f"vgp: unknown methods {bad or raw!r}; valid: {','.join(METHODS)}",
              file=sys.stderr)
        raise _ConfigError()
    return methods


def _quad_config(args: argparse.Namespace) -> QuadratureConfig:
    tol = getattr(args, "tol", None)
    if tol is None:
        return DEFAULT_QUADRATURE
    if not tol > 0:
        print(f"vgp: --tol must be positive, got {tol}", file=sys.stderr)
        raise _ConfigError()
    return QuadratureConfig(rel_tol=tol, abs_tol=tol / 100.0)


def _read_scenarios(path: str, methods_override: tuple[str, ...] | None) -> list[ScenarioRow]:
    try:
        fh = open(path, newline="")
    except OSError as exc:
        print(f"vgp: cannot read scenarios: {exc}", file=sys.stderr)
        raise _ConfigError() from None
    rows = []
    with fh:
        reader = csv.DictReader(fh)
        fields = set(reader.fieldnames or ())
        required = {"t", "S", "K", "sigma", "nu"}
        missing = required - fields
        if missing:
            print(f"vgp: scenario file lacks columns: {', '.join(sorted(missing))}",
                  file=sys.stderr)
            raise _ConfigError()
        for lineno, rec in enumerate(reader, start=2):
            try:
                methods = methods_override
                if methods is None:
                    raw = (rec.get("method") or "").replace(";", ",")
                    methods = _parse_methods(raw) if raw.strip() else METHODS
                expected = rec.get("expected")
                rows.append(
                    ScenarioRow(
                        table=rec.get("table") or f"row{lineno - 1}",
                        maturity=float(rec["t"]),
                        spot=float(rec["S"]),
                        strike=float(rec["K"]),
                        sigma=float(rec["sigma"]),
                        nu=float(rec["nu"]),
                        methods=methods,
                        expected=float(expected) if expected else None,
                    )
                )
            except (ValueError, KeyError, TypeError) as exc:
                print(f"vgp: scenario line {lineno}: {exc}", file=sys.stderr)
                raise _ConfigError() from None
    if not rows:
        print("vgp: scenario file holds no rows", file=sys.stderr)
        raise _ConfigError()
    return rows


def _deliver(text: str, args: argparse.Namespace) -> None:
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_price(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    cfg = _quad_config(args)
    spec = OptionSpec(spot=args.spot, strike=args.strike,
                      maturity=args.maturity, side=args.side)
    params = VgParams(sigma=args.sigma, nu=args.nu)
    try:
        mc = McConfig(path_count=args.paths, seed=seed) if args.method == "mc" else McConfig()
        quote = price(spec, params, args.method, cfg, mc)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"vgp: pricing failed: {exc}", file=sys.stderr)
        return 1
    if args.format == "text":
        diag = f", err~{quote.diagnostics:.2e}" if quote.diagnostics is not None else ""
        _deliver(
            f"{args.side} {quote.value:.10f} (method={args.method}{diag}, "
            f"{quote.elapsed * 1e3:.3f} ms)\n",
            args,
        )
    elif args.format == "json":
        _deliver(json.dumps({
            "side": args.side, "price": quote.value, "method": args.method,
            "S": args.spot, "K": args.strike, "t": args.maturity,
            "sigma": args.sigma, "nu": args.nu,
            "diagnostics": quote.diagnostics,
            "elapsed_ns": int(quote.elapsed * 1e9),
        }, indent=2, sort_keys=True) + "\n", args)
    else:
        # the price column carries the requested side
        row = ScenarioRow(table="-", maturity=args.maturity, spot=args.spot,
                          strike=args.strike, sigma=args.sigma, nu=args.nu,
                          methods=(args.method,))
        report = BenchReport([RowResult(row, {args.method: quote})])
        _deliver(emit_report(report, "csv"), args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """``table`` and ``bench``: price rows into a report."""
    seed = _resolve_seed(args)
    if args.command == "table":
        rows = builtin_table_rows(args.table_id, _parse_methods(args.methods))
    else:
        override = _parse_methods(args.methods) if args.methods else None
        rows = _read_scenarios(args.scenarios, override)
    report = run_scenarios(rows, repetitions=args.reps, seed=seed, mc_paths=args.paths)
    _deliver(emit_report(report, args.format), args)
    return 1 if report.error_count else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "price":
            return _cmd_price(args)
        return _cmd_report(args)
    except _ConfigError:
        return 2
    except (ValueError, OSError) as exc:
        print(f"vgp: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
