"""Benchmark harness: built-in price tables, scenario runs, report emission.

Six built-in tables cover the standard test grid: an in-the-money put
(S=18, K=20) and an out-of-the-money put (S=22, K=20) at sigma=0.1,
nu=0.2, each on an integer-t/nu grid and on a fractional one, plus two
short-maturity out-of-the-money grids (S=50, K=35) at sigma=0.2 with
nu=0.25 and nu=0.5 where t/nu drops as low as 0.1.  Expected values are
reference prices quoted to 4 decimals.

``run_scenarios`` prices rows with any subset of methods through
``pricing.price``, captures per-row errors instead of aborting the run,
and reports per method the median of the repetitions' ``elapsed`` (a
warm-up call is excluded whenever more than one repetition is
requested).  Its ``cgz`` rows that share (sigma, nu) go together
through ``pricing.price_cgz_group``, which shares the work of rows of
one maturity or one strike, and each such row reports its batch's
median time split evenly over the batch.  ``emit_report`` renders a
report as aligned text, CSV (fixed header: table,t,S,K,sigma,nu,
method,price,expected,abs_diff,elapsed_ns), or JSON.  Identical configuration and
seeds give byte-identical CSV except for the elapsed_ns column.
"""

from __future__ import annotations

import io
import json
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from .fracderiv import DEFAULT_QUADRATURE, QuadratureConfig
from .model import OptionSpec, VgParams
from .pricing import METHODS, McConfig, PriceQuote, price, price_cgz_group

__all__ = [
    "BUILTIN_TABLES",
    "ScenarioRow",
    "RowResult",
    "BenchReport",
    "builtin_table_rows",
    "run_scenarios",
    "emit_report",
    "CSV_HEADER",
]

CSV_HEADER = "table,t,S,K,sigma,nu,method,price,expected,abs_diff,elapsed_ns"


@dataclass(frozen=True)
class _Table:
    spot: float
    strike: float
    sigma: float
    nu: float
    maturities: tuple[float, ...]
    expected: tuple[float, ...]


BUILTIN_TABLES: dict[str, _Table] = {
    "T1": _Table(18.0, 20.0, 0.1, 0.2,
                 (0.2, 0.4, 0.6, 0.8, 1.0),
                 (2.0107, 2.0339, 2.0662, 2.1038, 2.1441)),
    "T2": _Table(18.0, 20.0, 0.1, 0.2,
                 (0.1, 0.3, 0.5, 0.7, 0.9),
                 (2.0037, 2.0209, 2.0492, 2.0845, 2.1237)),
    "T3": _Table(22.0, 20.0, 0.1, 0.2,
                 (0.2, 0.4, 0.6, 0.8, 1.0),
                 (0.0163, 0.0489, 0.0919, 0.1401, 0.1903)),
    "T4": _Table(22.0, 20.0, 0.1, 0.2,
                 (0.1, 0.3, 0.5, 0.7, 0.9),
                 (0.0058, 0.0309, 0.0695, 0.1156, 0.1650)),
    "T5": _Table(50.0, 35.0, 0.2, 0.25,
                 (0.10, 0.12, 0.14, 0.16, 0.18, 0.20),
                 (0.0020, 0.0027, 0.0034, 0.0043, 0.0052, 0.0063)),
    "T6": _Table(50.0, 35.0, 0.2, 0.5,
                 (0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19),
                 (0.0026, 0.0038, 0.0051, 0.0065, 0.0081, 0.0097, 0.0115, 0.0134)),
}


@dataclass(frozen=True)
class ScenarioRow:
    """One pricing task: raw market numbers plus the methods to run.

    Parameters stay raw floats (not validated objects) so that an
    invalid row surfaces as a row-level error in the report rather than
    killing the whole run.
    """

    table: str
    maturity: float
    spot: float
    strike: float
    sigma: float
    nu: float
    methods: tuple[str, ...] = METHODS
    expected: float | None = None
    expected_source: str | None = None

    def __post_init__(self):
        if not self.methods:
            raise ValueError("a scenario needs at least one method")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; valid: {METHODS}")


@dataclass
class RowResult:
    scenario: ScenarioRow
    quotes: dict[str, PriceQuote] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    def max_pairwise_diff(self) -> float | None:
        vals = [q.value for q in self.quotes.values()]
        if len(vals) < 2:
            return None
        return max(vals) - min(vals)

    def expected_dev(self) -> float | None:
        if self.scenario.expected is None or not self.quotes:
            return None
        return max(abs(q.value - self.scenario.expected) for q in self.quotes.values())


@dataclass
class BenchReport:
    rows: list[RowResult]

    @property
    def error_count(self) -> int:
        return sum(len(r.errors) for r in self.rows)

    def summary(self) -> dict:
        diffs = [d for r in self.rows if (d := r.max_pairwise_diff()) is not None]
        devs = [d for r in self.rows if (d := r.expected_dev()) is not None]
        per_method: dict[str, dict] = {}
        for r in self.rows:
            for m, q in r.quotes.items():
                agg = per_method.setdefault(m, {"rows": 0, "elapsed_ns": 0})
                agg["rows"] += 1
                agg["elapsed_ns"] += int(q.elapsed * 1e9)
        return {
            "rows": len(self.rows),
            "errors": self.error_count,
            "max_pairwise_diff": max(diffs) if diffs else None,
            "max_expected_dev": max(devs) if devs else None,
            "per_method": per_method,
        }

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "scenario": {
                        "table": r.scenario.table,
                        "t": r.scenario.maturity,
                        "S": r.scenario.spot,
                        "K": r.scenario.strike,
                        "sigma": r.scenario.sigma,
                        "nu": r.scenario.nu,
                        "expected": r.scenario.expected,
                        "expected_source": r.scenario.expected_source,
                    },
                    "quotes": {
                        m: {
                            "value": q.value,
                            "diagnostics": q.diagnostics,
                            "elapsed_ns": int(q.elapsed * 1e9),
                        }
                        for m, q in r.quotes.items()
                    },
                    "errors": dict(r.errors),
                }
                for r in self.rows
            ],
            "summary": self.summary(),
        }


def builtin_table_rows(table_id: str, methods: tuple[str, ...] = METHODS) -> list[ScenarioRow]:
    """Scenario rows of one built-in table, expected prices attached."""
    if table_id not in BUILTIN_TABLES:
        raise KeyError(
            f"unknown table {table_id!r}; valid: {', '.join(sorted(BUILTIN_TABLES))}"
        )
    tb = BUILTIN_TABLES[table_id]
    return [
        ScenarioRow(
            table=table_id,
            maturity=t,
            spot=tb.spot,
            strike=tb.strike,
            sigma=tb.sigma,
            nu=tb.nu,
            methods=tuple(methods),
            expected=exp,
            expected_source=f"reference-{table_id}",
        )
        for t, exp in zip(tb.maturities, tb.expected)
    ]


def run_scenarios(
    rows: list[ScenarioRow],
    repetitions: int = 1,
    seed: int = 0,
    mc_paths: int = 100_000,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> BenchReport:
    """Price every row with its methods; capture errors per row.

    Each method is priced ``repetitions`` times through ``price``, and
    the quote carries the median of their ``elapsed``; with more than
    one repetition a warm-up call runs first and is discarded.  Monte
    Carlo rows derive their seed from (seed, row index) so runs are
    reproducible however the rows are batched; rows without ``mc``
    derive none.  Quotes and errors come back in row order.

    ``cgz`` rows that share (sigma, nu) with another row of the call
    are priced together by ``price_cgz_group``, with the same prices and
    the same errors as one by one: a fractional-t/nu strike ladder
    shares its quadrature nodes, an integer-t/nu maturity ladder its
    coefficient table.  The whole group is repeated ``repetitions``
    times (after a warm-up when more than one), and each of its rows
    reports the median of the times ``price_cgz_group`` gave it: its
    batch's time split evenly over the batch's rows.  Nothing is kept
    from one repetition, or one call, to the next.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    results: list[RowResult] = []
    contracts: list[tuple] = []  # (spec, params) per row, None for an invalid row
    for row in rows:
        res = RowResult(scenario=row)
        results.append(res)
        try:
            contracts.append((
                OptionSpec(spot=row.spot, strike=row.strike, maturity=row.maturity, side="put"),
                VgParams(sigma=row.sigma, nu=row.nu),
            ))
        except (ValueError, ArithmeticError) as exc:
            res.errors["*"] = f"{type(exc).__name__}: {exc}"
            contracts.append(None)
    grouped = _grouped_cgz(rows, contracts, cfg, repetitions)
    for idx, (row, res, contract) in enumerate(zip(rows, results, contracts)):
        if contract is None:
            continue
        spec, params = contract
        # only mc draws random numbers, so only its rows derive a seed
        row_seed = np_seed_for_row(seed, idx) if "mc" in row.methods else None
        for method in row.methods:
            try:
                quote = grouped.get(idx) if method == "cgz" else None
                if quote is None:
                    quote = _median_quote(
                        method, spec, params, cfg, row_seed, mc_paths, repetitions
                    )
                elif isinstance(quote, Exception):
                    raise quote
                res.quotes[method] = quote
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                res.errors[method] = f"{type(exc).__name__}: {exc}"
    return BenchReport(rows=results)


def np_seed_for_row(seed: int, row_index: int) -> int:
    """Stable 64-bit per-row seed derived from (seed, row index)."""
    return int(np.random.SeedSequence([seed, row_index]).generate_state(1)[0])


def _grouped_cgz(rows, contracts, cfg, repetitions) -> dict:
    """The ``cgz`` outcome (quote or exception) of every row that prices in
    a group, by row index: rows that share (sigma, nu) with another row."""
    groups: dict[tuple, list[int]] = {}
    for idx, (row, contract) in enumerate(zip(rows, contracts)):
        if contract is not None and "cgz" in row.methods:
            groups.setdefault((row.sigma, row.nu), []).append(idx)
    grouped: dict = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        params = contracts[members[0]][1]
        specs = [contracts[i][0] for i in members]
        if repetitions > 1:
            price_cgz_group(specs, params, cfg)  # warm-up, excluded from timing
        runs = [price_cgz_group(specs, params, cfg) for _ in range(repetitions)]
        for j, (idx, quote) in enumerate(zip(members, runs[-1])):
            if repetitions > 1 and not isinstance(quote, Exception):
                quote = replace(quote, elapsed=statistics.median(run[j].elapsed for run in runs))
            grouped[idx] = quote
    return grouped


def _median_quote(method, spec, params, cfg, seed, mc_paths, repetitions):
    mc = McConfig(path_count=mc_paths, seed=seed) if method == "mc" else McConfig()
    if repetitions > 1:
        price(spec, params, method, cfg, mc)  # warm-up, excluded from timing
    quotes = [price(spec, params, method, cfg, mc) for _ in range(repetitions)]
    if repetitions == 1:
        return quotes[0]
    return replace(quotes[-1], elapsed=statistics.median(q.elapsed for q in quotes))


# ---------------------------------------------------------------------------
# rendering


def _fmt(v: float | None, spec_: str = "%.10g") -> str:
    return "" if v is None else spec_ % v


def _csv(report: BenchReport) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in report.rows:
        s = r.scenario
        base = (
            f"{s.table},{_fmt(s.maturity, '%.6g')},{_fmt(s.spot, '%.6g')},"
            f"{_fmt(s.strike, '%.6g')},{_fmt(s.sigma, '%.6g')},{_fmt(s.nu, '%.6g')}"
        )
        for method in s.methods:
            if method in r.quotes:
                q = r.quotes[method]
                diff = "" if s.expected is None else "%.6e" % abs(q.value - s.expected)
                out.write(
                    f"{base},{method},{_fmt(q.value, '%.12g')},"
                    f"{_fmt(s.expected, '%.6g')},{diff},{int(q.elapsed * 1e9)}\n"
                )
            else:
                out.write(f"{base},{method},,{_fmt(s.expected, '%.6g')},,\n")
    return out.getvalue()


def _text(report: BenchReport) -> str:
    out = io.StringIO()
    methods = sorted({m for r in report.rows for m in r.scenario.methods})
    header = (
        f"{'table':<6}{'t':>6}{'S':>7}{'K':>7}{'sigma':>7}{'nu':>6}"
        + "".join(f"{m:>12}" for m in methods)
        + f"{'expected':>12}{'maxdiff':>11}"
    )
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for r in report.rows:
        s = r.scenario
        cells = ""
        for m in methods:
            if m in r.quotes:
                cells += f"{r.quotes[m].value:>12.6f}"
            elif m in r.errors or "*" in r.errors:
                cells += f"{'ERROR':>12}"
            else:
                cells += f"{'':>12}"
        expected = f"{s.expected:>12.4f}" if s.expected is not None else f"{'':>12}"
        diff = r.max_pairwise_diff()
        diff_cell = f"{diff:>11.2e}" if diff is not None else f"{'':>11}"
        out.write(
            f"{s.table:<6}{s.maturity:>6.2f}{s.spot:>7.2f}{s.strike:>7.2f}"
            f"{s.sigma:>7.3f}{s.nu:>6.2f}{cells}{expected}{diff_cell}\n"
        )
    summ = report.summary()
    out.write("\n")
    if summ["max_expected_dev"] is not None:
        out.write(f"max deviation from expected: {summ['max_expected_dev']:.2e}\n")
    if summ["max_pairwise_diff"] is not None:
        out.write(f"max cross-method spread:     {summ['max_pairwise_diff']:.2e}\n")
    for m, agg in summ["per_method"].items():
        mean_ms = agg["elapsed_ns"] / agg["rows"] / 1e6
        out.write(f"{m:<9} {agg['rows']} rows, {mean_ms:10.3f} ms/row median\n")
    if report.error_count:
        out.write(f"errors: {report.error_count}\n")
        for r in report.rows:
            for m, msg in r.errors.items():
                out.write(f"  {r.scenario.table} t={r.scenario.maturity} {m}: {msg}\n")
    return out.getvalue()


def emit_report(report: BenchReport, fmt: str = "text") -> str:
    """Render a report as 'text', 'csv' or 'json'."""
    if fmt == "csv":
        return _csv(report)
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        return _text(report)
    raise ValueError(f"unknown format {fmt!r}; expected 'text', 'csv' or 'json'")
