"""End-to-end command-line checks, run through fresh interpreter processes."""

import csv
import io
import json
import os
import subprocess
import sys

PRICE_ARGS = ["price", "--spot", "18", "--strike", "20", "--maturity", "0.2",
              "--sigma", "0.1", "--nu", "0.2"]


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("VGP_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "vgpricer.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_price_put_text():
    r = run_cli(*PRICE_ARGS)
    assert r.returncode == 0, r.stderr
    assert "put 2.0107129" in r.stdout
    assert "method=cgz" in r.stdout


def test_price_call_by_parity():
    r = run_cli(*PRICE_ARGS, "--side", "call")
    assert r.returncode == 0, r.stderr
    assert "call 0.0107129" in r.stdout


def test_price_json_format():
    r = run_cli("--format", "json", *PRICE_ARGS, "--method", "mixture")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert abs(doc["price"] - 2.0107129) < 5e-6
    assert doc["method"] == "mixture"
    assert doc["elapsed_ns"] > 0


def test_price_csv_format_single_row():
    r = run_cli(*PRICE_ARGS, "--format", "csv")
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader(io.StringIO(r.stdout)))
    assert len(rows) == 1
    assert rows[0]["table"] == "-"
    assert abs(float(rows[0]["price"]) - 2.0107129) < 1e-6


def test_price_invalid_parameters_exit_2():
    r = run_cli("price", "--spot", "18", "--strike", "20", "--maturity", "0.2",
                "--sigma", "0", "--nu", "0.2")
    assert r.returncode == 2
    assert "sigma" in r.stderr


def test_paths_below_one_exit_2(tmp_path):
    # rejected when the arguments are parsed, not as a failed price per row
    f = tmp_path / "rows.csv"
    _write_scenarios(f, [["a", 0.2, 18, 20, 0.1, 0.2, "mc", ""]])
    for argv in (
        (*PRICE_ARGS, "--method", "mc", "--paths", "0"),
        ("table", "T1", "--methods", "mc", "--paths", "0"),
        ("bench", "--scenarios", str(f), "--paths", "-5"),
    ):
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert "argument --paths: must be >= 1" in r.stderr
        assert r.stdout == ""


def test_price_tol_override():
    r = run_cli(*PRICE_ARGS, "--maturity", "0.3", "--tol", "1e-6")
    assert r.returncode == 0, r.stderr
    r2 = run_cli(*PRICE_ARGS, "--maturity", "0.3", "--tol", "-1")
    assert r2.returncode == 2


def test_table_csv_to_file(tmp_path):
    out = tmp_path / "t1.csv"
    r = run_cli("table", "T1", "--methods", "cgz,mixture",
                "--format", "csv", "--output", str(out))
    assert r.returncode == 0, r.stderr
    assert r.stdout == ""
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("table,t,S,K,sigma,nu,method,price")
    assert len(lines) == 11  # header + 5 maturities x 2 methods
    for rec in csv.DictReader(io.StringIO(out.read_text())):
        assert float(rec["abs_diff"]) <= 5e-4


def test_table_global_flags_accepted_before_subcommand(tmp_path):
    out = tmp_path / "t3.json"
    r = run_cli("--format", "json", "--output", str(out), "table", "T3",
                "--methods", "cgz")
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["summary"]["rows"] == 5
    assert doc["summary"]["errors"] == 0


def test_table_unknown_id_exit_2():
    r = run_cli("table", "T9", "--methods", "cgz")
    assert r.returncode == 2
    r = run_cli("table", "T1", "--methods", "cgz,magic")
    assert r.returncode == 2
    assert "unknown methods" in r.stderr


def _write_scenarios(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["table", "t", "S", "K", "sigma", "nu", "method", "expected"])
        w.writerows(rows)


def test_bench_runs_scenario_file(tmp_path):
    f = tmp_path / "rows.csv"
    _write_scenarios(f, [
        ["a", 0.2, 18, 20, 0.1, 0.2, "cgz;mixture", 2.0107],
        ["b", 0.5, 22, 20, 0.1, 0.2, "cgz", ""],
    ])
    r = run_cli("bench", "--scenarios", str(f), "--format", "csv")
    assert r.returncode == 0, r.stderr
    recs = list(csv.DictReader(io.StringIO(r.stdout)))
    assert len(recs) == 3
    assert recs[0]["method"] == "cgz" and float(recs[0]["abs_diff"]) <= 5e-4
    assert recs[2]["table"] == "b" and recs[2]["expected"] == ""


def test_bench_row_failure_exits_1_but_still_reports(tmp_path):
    f = tmp_path / "rows.csv"
    _write_scenarios(f, [
        ["good", 0.2, 18, 20, 0.1, 0.2, "cgz", ""],
        ["bad", 0.2, 18, 20, 0.0, 0.2, "cgz", ""],
    ])
    out = tmp_path / "report.csv"
    r = run_cli("bench", "--scenarios", str(f), "--format", "csv",
                "--output", str(out))
    assert r.returncode == 1
    recs = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(recs) == 2
    assert recs[0]["price"] != "" and recs[1]["price"] == ""


def test_bench_missing_file_exit_2(tmp_path):
    r = run_cli("bench", "--scenarios", str(tmp_path / "nope.csv"))
    assert r.returncode == 2
    assert "cannot read scenarios" in r.stderr


def test_bench_missing_columns_exit_2(tmp_path):
    f = tmp_path / "rows.csv"
    f.write_text("t,S,K\n0.2,18,20\n")
    r = run_cli("bench", "--scenarios", str(f))
    assert r.returncode == 2
    assert "lacks columns" in r.stderr


def test_bench_methods_override(tmp_path):
    f = tmp_path / "rows.csv"
    _write_scenarios(f, [["a", 0.2, 18, 20, 0.1, 0.2, "mc", ""]])
    r = run_cli("bench", "--scenarios", str(f), "--methods", "cgz",
                "--format", "csv")
    assert r.returncode == 0, r.stderr
    recs = list(csv.DictReader(io.StringIO(r.stdout)))
    assert [rec["method"] for rec in recs] == ["cgz"]


def _mc_price(*argv, env_extra=None):
    r = run_cli(*PRICE_ARGS, "--method", "mc", "--paths", "20000",
                "--format", "json", *argv, env_extra=env_extra)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)["price"]


def test_seed_env_and_flag_precedence():
    via_flag = _mc_price("--seed", "5")
    via_env = _mc_price(env_extra={"VGP_SEED": "5"})
    assert via_flag == via_env  # env supplies the same generator seed
    flag_beats_env = _mc_price("--seed", "9", env_extra={"VGP_SEED": "5"})
    assert flag_beats_env != via_env
    assert _mc_price("--seed", "9") == flag_beats_env


def test_bad_seed_values_exit_2():
    r = run_cli(*PRICE_ARGS, "--seed", "-3")
    assert r.returncode == 2
    r = run_cli(*PRICE_ARGS, env_extra={"VGP_SEED": "abc"})
    assert r.returncode == 2
    assert "not an integer" in r.stderr


def test_entry_point_installed():
    import shutil

    exe = shutil.which("vgp")
    if exe is None:
        import pytest

        pytest.skip("console script not on PATH")
    r = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0
    for sub in ("price", "table", "bench"):
        assert sub in r.stdout
