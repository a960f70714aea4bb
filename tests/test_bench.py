"""The benchmark harness: built-in tables, scenario runs, report rendering."""

import csv
import importlib.util
import io
import json
import math
import random
import statistics
import types
from pathlib import Path

import numpy as np
import pytest

import vgpricer.laplace as laplace
import vgpricer.pricing as pricing
from vgpricer import OptionSpec, VgParams, price_put_cgz
from vgpricer.bench import (
    BUILTIN_TABLES,
    CSV_HEADER,
    BenchReport,
    RowResult,
    ScenarioRow,
    builtin_table_rows,
    emit_report,
    np_seed_for_row,
    run_scenarios,
)

FAST = ("cgz", "mixture")


# ---------------------------------------------------------------------------
# built-in tables


def test_builtin_tables_inventory():
    sizes = {tid: len(rows.maturities) for tid, rows in BUILTIN_TABLES.items()}
    assert sizes == {"T1": 5, "T2": 5, "T3": 5, "T4": 5, "T5": 6, "T6": 8}
    for tb in BUILTIN_TABLES.values():
        assert len(tb.maturities) == len(tb.expected)
        assert all(a < b for a, b in zip(tb.maturities, tb.maturities[1:]))


def test_builtin_table_rows_carry_expected_prices():
    rows = builtin_table_rows("T1")
    assert [r.maturity for r in rows] == [0.2, 0.4, 0.6, 0.8, 1.0]
    assert rows[0].expected == 2.0107
    assert rows[0].spot == 18.0 and rows[0].strike == 20.0
    assert rows[0].sigma == 0.1 and rows[0].nu == 0.2
    t5 = builtin_table_rows("T5")
    assert t5[0].spot == 50.0 and t5[0].strike == 35.0
    assert t5[0].sigma == 0.2 and t5[0].nu == 0.25


def test_unknown_table_id():
    with pytest.raises(KeyError):
        builtin_table_rows("T9")


def test_run_builtin_table_prices_match_references():
    report = run_scenarios(builtin_table_rows("T1", FAST))
    assert report.error_count == 0
    assert len(report.rows) == 5
    for r in report.rows:
        assert r.expected_dev() <= 5e-4
        assert r.max_pairwise_diff() <= 1e-7


# ---------------------------------------------------------------------------
# scenario rows and error capture


def test_scenario_row_validates_methods():
    with pytest.raises(ValueError):
        ScenarioRow("X", 0.5, 18.0, 20.0, 0.1, 0.2, methods=())
    with pytest.raises(ValueError):
        ScenarioRow("X", 0.5, 18.0, 20.0, 0.1, 0.2, methods=("cgz", "magic"))


def test_invalid_row_is_reported_not_raised():
    rows = [
        ScenarioRow("ok", 0.5, 18.0, 20.0, 0.1, 0.2, methods=FAST),
        ScenarioRow("bad", 0.5, 18.0, 20.0, 0.0, 0.2, methods=FAST),  # sigma = 0
    ]
    report = run_scenarios(rows)
    assert len(report.rows) == 2
    assert not report.rows[0].errors and report.rows[0].quotes
    assert report.rows[1].errors.get("*", "").startswith("ValueError")
    assert not report.rows[1].quotes
    assert report.error_count == 1
    # t/nu overflows at nu 1e-320: each row of the group reports it
    rows = [ScenarioRow("tiny", 1.0, 100.0, k, 0.2, 1e-320, ("cgz",)) for k in (90.0, 100.0)]
    report = run_scenarios(rows)
    assert [r.errors["cgz"].split(":")[0] for r in report.rows] == ["OverflowError"] * 2


def _series_fails(monkeypatch):
    """Make the Bessel series raise, so that every cgz row it prices fails:
    all fractional rows, and integer rows past the coefficient tables'
    level cap."""

    def refuse(lam, z, params, n):
        raise ValueError("series refused")

    monkeypatch.setattr(pricing, "log_bessel_series", refuse)


def test_per_method_failure_leaves_other_methods_alive(monkeypatch):
    # t/nu = 102 lies past the tables' level cap, so cgz prices it on
    # the series, which fails here; the mixture integral does not use it
    _series_fails(monkeypatch)
    rows = [ScenarioRow("deep", 20.4, 18.0, 20.0, 0.1, 0.2, methods=FAST)]
    report = run_scenarios(rows)
    r = report.rows[0]
    assert "cgz" in r.errors and "ValueError" in r.errors["cgz"]
    assert "mixture" in r.quotes


def test_non_integer_mc_paths_fail_the_mc_rows_only():
    rows = [ScenarioRow("r", 0.5, 18.0, 20.0, 0.1, 0.2, methods=("cgz", "mc"))]
    r = run_scenarios(rows, mc_paths=2500.5).rows[0]
    assert "cgz" in r.quotes
    assert r.errors == {"mc": "ValueError: path_count must be an integer, got 2500.5"}


def test_row_seeds_are_stable_and_distinct():
    assert np_seed_for_row(7, 0) == np_seed_for_row(7, 0)
    seeds = {np_seed_for_row(7, i) for i in range(64)}
    assert len(seeds) == 64
    assert np_seed_for_row(7, 0) != np_seed_for_row(8, 0)


def test_mc_rows_reproduce_for_a_fixed_seed():
    rows = builtin_table_rows("T1", methods=("mc",))[:2]
    a = run_scenarios(rows, seed=7, mc_paths=20_000)
    b = run_scenarios(rows, seed=7, mc_paths=20_000)
    c = run_scenarios(rows, seed=9, mc_paths=20_000)
    av = [r.quotes["mc"].value for r in a.rows]
    bv = [r.quotes["mc"].value for r in b.rows]
    cv = [r.quotes["mc"].value for r in c.rows]
    assert av == bv
    assert av != cv
    assert av[0] != av[1]  # rows use distinct substreams


def test_rows_without_mc_derive_no_seed(monkeypatch):
    import vgpricer.bench as bench

    def refuse(seed, row_index):
        raise AssertionError("a row without mc derived a seed")

    monkeypatch.setattr(bench, "np_seed_for_row", refuse)
    rows = builtin_table_rows("T1", methods=("cgz",)) + builtin_table_rows("T2", methods=FAST)
    report = run_scenarios(rows, repetitions=2, seed=3)
    assert report.error_count == 0


def test_mc_seeds_follow_the_row_index_in_a_mixed_row_list():
    # np_seed_for_row(11, i) for rows 0..4, frozen: seeds depend on the
    # row's index in the whole list, not on how many earlier rows ran mc
    frozen = [1926383459, 592467769, 621272063, 520846937, 961975133]
    assert [np_seed_for_row(11, i) for i in range(5)] == frozen
    rows = [
        ScenarioRow("a", 0.2, 18.0, 20.0, 0.1, 0.2, methods=("cgz",)),
        ScenarioRow("b", 0.4, 22.0, 20.0, 0.1, 0.2, methods=("mc", "cgz")),
        ScenarioRow("c", 0.3, 18.0, 20.0, 0.1, 0.2, methods=("mixture",)),
        ScenarioRow("d", 0.5, 18.0, 20.0, 0.1, 0.2, methods=("cgz", "mc")),
        ScenarioRow("e", 0.6, 22.0, 20.0, 0.2, 0.3, methods=("mc",)),
    ]
    report = run_scenarios(rows, seed=11, mc_paths=4_000)
    for idx in (1, 3, 4):
        row = rows[idx]
        spec = OptionSpec(spot=row.spot, strike=row.strike, maturity=row.maturity)
        params = VgParams(sigma=row.sigma, nu=row.nu)
        want = pricing.price_put_mc(spec, params, pricing.McConfig(4_000, seed=frozen[idx]))
        got = report.rows[idx].quotes["mc"]
        assert (got.value, got.diagnostics) == (want.value, want.diagnostics)


def test_repetitions_report_median_timing():
    rows = builtin_table_rows("T1", methods=("cgz",))[:1]
    report = run_scenarios(rows, repetitions=3)
    q = report.rows[0].quotes["cgz"]
    assert q.elapsed > 0.0
    with pytest.raises(ValueError):
        run_scenarios(rows, repetitions=0)


def test_row_time_is_the_median_of_the_quotes_elapsed(monkeypatch):
    import vgpricer.bench as bench

    # the first call is the warm-up and is discarded
    elapsed = iter([9.0, 1.0, 5.0, 3.0, 4.0, 8.0, 2.0, 6.0])

    def fake_price(spec, params, method, cfg=None, mc=None):
        return pricing.PriceQuote(1.0, method, None, next(elapsed))

    monkeypatch.setattr(bench, "price", fake_price)
    rows = builtin_table_rows("T1", methods=("mixture",))[:2]
    report = run_scenarios(rows, repetitions=3)
    assert [r.quotes["mixture"].elapsed for r in report.rows] == [3.0, 6.0]


# ---------------------------------------------------------------------------
# coefficient tables shared across the integer-t/nu cgz rows of one run

# levels n (t/nu = n + 1), ascending
LEVELS = [0, 1, 2, 5, 9, 17, 30, 31, 47, 63, 80]
STRIKES = (20.0, 26.0)
VOLS = ((0.1, 0.2), (0.35, 0.6))  # (sigma, nu)


def _ladder(levels):
    """cgz rows at each level for two strikes times two (sigma, nu),
    the four contracts interleaved."""
    return [
        ScenarioRow("share", (n + 1) * nu, 22.0, strike, sigma, nu, methods=("cgz",))
        for n in levels
        for strike in STRIKES
        for sigma, nu in VOLS
    ]


def _bits(quote):
    diag = quote.diagnostics
    return quote.value.hex(), None if diag is None else diag.hex()


def _separately(rows):
    return [
        _bits(price_put_cgz(OptionSpec(r.spot, r.strike, r.maturity), VgParams(r.sigma, r.nu)))
        for r in rows
    ]


def _shared(rows):
    report = run_scenarios(rows)
    assert report.error_count == 0
    return [_bits(r.quotes["cgz"]) for r in report.rows]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_shared_tables_price_like_separate_calls(order):
    levels = list(LEVELS)
    if order == "descending":
        levels.reverse()
    elif order == "shuffled":
        random.Random(5).shuffle(levels)
    rows = _ladder(levels)
    # a fractional row in the middle leaves the shared tables alone
    rows.insert(len(rows) // 2, ScenarioRow("frac", 2.5 * 0.2, 22.0, 20.0, 0.1, 0.2, ("cgz",)))
    assert _shared(rows) == _separately(rows)


def test_shared_tables_price_like_separate_calls_across_the_series_fallback(monkeypatch):
    # every level from 12 up fails the C^1 check, so rows there price on
    # the Bessel series and rows below from the tables, in any order
    real = laplace.CoeffTable.c1_residual
    monkeypatch.setattr(
        laplace.CoeffTable, "c1_residual", lambda self, n: 1.0 if n >= 12 else real(self, n)
    )
    rows = _ladder([20, 3, 13, 11, 25, 0])
    assert _shared(rows) == _separately(rows)


def test_row_past_the_level_cap_fails_alone_mid_ladder(monkeypatch):
    # the row past the cap prices on the series, which fails here; the
    # rows around it keep extending the shared tables
    _series_fails(monkeypatch)
    rows = _ladder([3, 40, 101, 50, 20, 70])
    report = run_scenarios(rows)
    failed = [r for r in report.rows if r.errors]
    assert [round(r.scenario.maturity / r.scenario.nu) for r in failed] == [102] * 4
    assert all(r.errors["cgz"] == "ValueError: series refused" for r in failed)
    priced = [r for r in report.rows if not r.errors]
    assert [_bits(r.quotes["cgz"]) for r in priced] == _separately([r.scenario for r in priced])


def _spy_builds(monkeypatch):
    """Record (strike, sigma, nu, level) of every coefficient table built."""
    builds = []
    real = pricing.build_coeff_table

    def counting(lam, strike, params, max_level=0):
        builds.append((strike, params.sigma, params.nu, max_level))
        return real(lam, strike, params, max_level)

    monkeypatch.setattr(pricing, "build_coeff_table", counting)
    return builds


def test_runs_share_no_tables(monkeypatch):
    builds = _spy_builds(monkeypatch)
    rows = _ladder([2, 9, 4])
    first = _shared(rows)
    # one build per (strike, sigma, nu), to the deepest level of its rows
    assert sorted(builds) == sorted((k, s, v, 9) for k in STRIKES for s, v in VOLS)
    second = _shared(rows)
    assert builds[4:] == builds[:4]  # the second run starts from nothing
    assert first == second


def test_a_run_builds_one_table_per_strike_to_its_deepest_level(monkeypatch):
    builds = _spy_builds(monkeypatch)
    # 500 strikes at t/nu 1: one level-0 table each, so a run's cost grows
    # linearly in its rows however many contracts it holds
    strikes = [round(80.0 + 0.01 * i, 2) for i in range(500)]
    rows = [ScenarioRow("many", 0.2, 80.0, k, 0.1, 0.2, ("cgz",)) for k in strikes]
    assert run_scenarios(rows).error_count == 0
    assert builds == [(k, 0.1, 0.2, 0) for k in strikes]
    # each repetition, and the warm-up, builds its own tables to time them
    builds.clear()
    assert run_scenarios(rows[:3], repetitions=2).error_count == 0
    assert sorted(builds) == sorted(3 * [(k, 0.1, 0.2, 0) for k in strikes[:3]])
    # a maturity ladder of the exact_book workload: one table, 32 rows
    ladder = _workload("exact_book", 1)[0]
    builds.clear()
    assert run_scenarios(ladder).error_count == 0
    levels = [round(r.maturity / r.nu) - 1 for r in ladder]
    assert builds == [(ladder[0].strike, ladder[0].sigma, ladder[0].nu, max(levels))]
    assert len(ladder) == 32 and len(set(levels)) == 32


def test_an_integer_ladder_reports_its_time_split_evenly(monkeypatch):
    # one batch reads the clock twice: one table for every row
    clock = iter([0.0, 8.0])
    monkeypatch.setattr(pricing, "time", types.SimpleNamespace(perf_counter=clock.__next__))
    rows = _ladder([3, 1, 7])[::4]  # one contract, three maturities
    report = run_scenarios(rows)
    assert next(clock, None) is None
    assert [r.quotes["cgz"].elapsed for r in report.rows] == [8.0 / 3] * 3


def test_fractional_rows_of_distinct_maturities_keep_their_own_times(monkeypatch):
    # T2's five maturities share (sigma, nu), so they go as one group, but
    # share no work: each is a batch of its own and reads the clock alone
    clock = iter([0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0, 5.0])
    monkeypatch.setattr(pricing, "time", types.SimpleNamespace(perf_counter=clock.__next__))
    sizes = _spy_groups(monkeypatch)
    report = run_scenarios(builtin_table_rows("T2", methods=("cgz",)))
    assert sizes == [5] and next(clock, None) is None
    assert [r.quotes["cgz"].elapsed for r in report.rows] == [1.0, 2.0, 3.0, 4.0, 5.0]


# ---------------------------------------------------------------------------
# fractional cgz rows that share (maturity, sigma, nu) price as one group

# t/nu 2.55 at sigma 0.2, nu 0.3: strikes around a spot of 100
LADDER_STRIKES = (80.0, 90.0, 100.0, 110.0, 120.0)


def _frac_ladder(sigma=0.2, nu=0.3, strikes=LADDER_STRIKES, methods=("cgz",)):
    return [ScenarioRow("ladder", 2.55 * nu, 100.0, k, sigma, nu, methods) for k in strikes]


def _spy_groups(monkeypatch):
    """Record the size of every group ``run_scenarios`` prices together."""
    import vgpricer.bench as bench

    sizes = []
    real = bench.price_cgz_group

    def spy(specs, params, cfg):
        sizes.append(len(specs))
        return real(specs, params, cfg)

    monkeypatch.setattr(bench, "price_cgz_group", spy)
    return sizes


def test_a_row_that_fails_mid_group_fails_alone(monkeypatch):
    rows = _frac_ladder()
    want = _separately(rows)
    # the series refuses the z of the 110 strike, alone or in an array
    bad_z = math.log(100.0) - math.log(110.0)
    real = pricing.log_bessel_series
    shapes = []

    def refuse_one(lam, z, params, n):
        shapes.append(np.ndim(z))
        if np.any(np.asarray(z) == bad_z):
            raise ValueError("series refused")
        return real(lam, z, params, n)

    monkeypatch.setattr(pricing, "log_bessel_series", refuse_one)
    sizes = _spy_groups(monkeypatch)
    report = run_scenarios(rows)
    assert sizes == [5] and shapes[0] == 1  # the group's shared call was tried
    assert [list(r.errors) for r in report.rows] == [[], [], [], ["cgz"], []]
    assert report.rows[3].errors["cgz"] == "ValueError: series refused"
    got = [_bits(r.quotes["cgz"]) for r in report.rows if not r.errors]
    assert got == want[:3] + want[4:]


def test_groups_keep_row_order_and_mc_seeds_among_other_rows(monkeypatch):
    a, b = _frac_ladder(), _frac_ladder(0.35, 0.6, (95.0, 105.0))
    rows = [
        a[0],
        ScenarioRow("int", 0.6, 100.0, 90.0, 0.2, 0.3, ("cgz", "mc")),  # t/nu 2
        b[0],
        ScenarioRow("mc", a[1].maturity, 100.0, 90.0, 0.2, 0.3, ("mc",)),
        ScenarioRow("bad", a[2].maturity, 100.0, 90.0, 0.0, 0.3, ("cgz",)),
        a[1],
        ScenarioRow("both", a[2].maturity, 100.0, 100.0, 0.2, 0.3, ("mc", "cgz")),
        b[1],
        a[3],
    ]
    sizes = _spy_groups(monkeypatch)
    report = run_scenarios(rows, seed=13, mc_paths=4_000)
    assert sorted(sizes) == [2, 5]  # ladder a with the "int" and "both" rows, and ladder b
    assert [r.scenario for r in report.rows] == rows
    assert [sorted(r.errors) for r in report.rows] == [[]] * 4 + [["*"]] + [[]] * 4
    cgz = [i for i, row in enumerate(rows) if "cgz" in row.methods and i != 4]
    assert [_bits(report.rows[i].quotes["cgz"]) for i in cgz] == _separately(
        [rows[i] for i in cgz])
    for idx in (1, 3, 6):
        row = rows[idx]
        spec = OptionSpec(spot=row.spot, strike=row.strike, maturity=row.maturity)
        mc = pricing.McConfig(4_000, seed=np_seed_for_row(13, idx))
        want = pricing.price_put_mc(spec, VgParams(sigma=row.sigma, nu=row.nu), mc)
        got = report.rows[idx].quotes["mc"]
        assert (got.value, got.diagnostics) == (want.value, want.diagnostics)
    # each row keeps the order of its own methods
    assert list(report.rows[6].quotes) == ["mc", "cgz"]


def test_a_group_reports_its_median_time_split_over_its_rows(monkeypatch):
    # four group calls (a warm-up and three repetitions) read the clock
    # twice each; the warm-up's 100 s is discarded
    clock = iter([0.0, 100.0, 0.0, 8.0, 0.0, 2.0, 0.0, 12.0])
    monkeypatch.setattr(pricing, "time", types.SimpleNamespace(perf_counter=clock.__next__))
    rows = _frac_ladder(strikes=(90.0, 100.0, 110.0, 120.0))
    report = run_scenarios(rows, repetitions=3)
    assert next(clock, None) is None
    median = statistics.median([8.0, 2.0, 12.0])
    assert [r.quotes["cgz"].elapsed for r in report.rows] == [median / len(rows)] * len(rows)


def _workload(name, seed):
    """The requests of one of the benchmark's ladder workloads, loaded by
    path (the module imports numpy only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [[ScenarioRow(*row) for row in req] for req in getattr(workloads, name)(seed)]


def test_frac_ladders_take_one_series_call_per_ladder(monkeypatch):
    requests = _workload("frac_ladders", 1)
    rows = [row for req in requests for row in req]
    real = pricing.log_bessel_series
    shapes = []

    def counted(lam, z, params, n):
        shapes.append(np.ndim(z))
        return real(lam, z, params, n)

    monkeypatch.setattr(pricing, "log_bessel_series", counted)
    for row in rows:  # alone: one call per price, plus one per extra level
        price_put_cgz(OptionSpec(row.spot, row.strike, row.maturity), VgParams(row.sigma, row.nu))
    extra_levels = len(shapes) - len(rows)
    shapes.clear()
    for req in requests:
        assert run_scenarios(req).error_count == 0
    # one shared call per ladder, and each row's extra levels on its own
    assert shapes.count(1) == len(requests) == 96
    assert shapes.count(0) == extra_levels
    assert len(shapes) / len(rows) <= 0.3


# ---------------------------------------------------------------------------
# rendering


def _small_report() -> BenchReport:
    return run_scenarios(builtin_table_rows("T3", FAST))


def test_csv_layout():
    text = emit_report(_small_report(), "csv")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 5 * len(FAST)  # one line per (row, method)
    reader = csv.DictReader(io.StringIO(text))
    for rec in reader:
        assert rec["table"] == "T3"
        assert float(rec["S"]) == 22.0
        assert rec["method"] in FAST
        assert float(rec["abs_diff"]) <= 5e-4
        assert int(rec["elapsed_ns"]) >= 0


def test_csv_error_rows_have_empty_price_cells():
    rows = [ScenarioRow("bad", 0.5, 18.0, 20.0, 0.0, 0.2, methods=("cgz",))]
    text = emit_report(run_scenarios(rows), "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    rec = next(csv.DictReader(io.StringIO(text)))
    assert rec["price"] == "" and rec["abs_diff"] == "" and rec["elapsed_ns"] == ""


def test_csv_is_deterministic_up_to_timing():
    def strip_elapsed(text: str) -> list[str]:
        return [line.rsplit(",", 1)[0] for line in text.strip().split("\n")]

    a = emit_report(run_scenarios(builtin_table_rows("T5", ("cgz",))), "csv")
    b = emit_report(run_scenarios(builtin_table_rows("T5", ("cgz",))), "csv")
    assert strip_elapsed(a) == strip_elapsed(b)


def test_empty_report_renders_headers_only():
    assert emit_report(BenchReport(rows=[]), "csv") == CSV_HEADER + "\n"
    json.loads(emit_report(BenchReport(rows=[]), "json"))


def test_json_round_trips_the_report_dict():
    report = _small_report()
    parsed = json.loads(emit_report(report, "json"))
    assert parsed == json.loads(json.dumps(report.to_dict()))
    assert parsed["summary"]["rows"] == 5
    assert parsed["summary"]["errors"] == 0
    assert parsed["summary"]["max_expected_dev"] <= 5e-4
    first = parsed["rows"][0]
    assert first["scenario"]["table"] == "T3"
    assert set(first["quotes"]) == set(FAST)


def test_text_rendering_mentions_rows_and_summary():
    text = emit_report(_small_report(), "text")
    assert "T3" in text
    assert "max deviation from expected" in text
    assert "cgz" in text and "mixture" in text


def test_text_rendering_marks_errors():
    rows = [ScenarioRow("bad", 0.5, 18.0, 20.0, 0.0, 0.2, methods=("cgz",))]
    text = emit_report(run_scenarios(rows), "text")
    assert "ERROR" in text
    assert "errors: 1" in text


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(_small_report(), "yaml")


def test_row_result_aggregates():
    r = RowResult(scenario=ScenarioRow("x", 0.5, 18.0, 20.0, 0.1, 0.2))
    assert r.max_pairwise_diff() is None
    assert r.expected_dev() is None
