"""Byte-identity gate on what `vgp table` and `vgp price` print.

``tests/data`` holds, with the timing field cut off:

* ``table_T1.csv`` .. ``table_T6.csv``: ``vgp table T<n> --format csv``
  with all four methods and the default seed;
* ``price_T2.json``: the 24 outputs of ``vgp price`` at the T2 contract
  (S 18, K 20, t 0.3, sigma 0.1, nu 0.2, ``--paths 20000``), one per
  method, side and format.

A change that moves prices on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden_outputs.py`` and says so.
"""

import contextlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from vgpricer import BUILTIN_TABLES, METHODS
from vgpricer.cli import main

DATA = Path(__file__).resolve().parent / "data"
PRICE_ARGS = ("price", "--spot", "18", "--strike", "20", "--maturity", "0.3",
              "--sigma", "0.1", "--nu", "0.2", "--paths", "20000")
SIDES = ("put", "call")
FORMATS = ("text", "json", "csv")


def _untimed(text: str, fmt: str) -> str:
    """The output with its timing field cut off."""
    if fmt == "text":
        return re.sub(r", [0-9.]+ ms\)$", ")", text, flags=re.M)
    if fmt == "json":
        return re.sub(r'^ *"elapsed_ns": \d+,?\n', "", text, flags=re.M)
    # the last CSV column is elapsed_ns
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def table_output(table_id: str) -> str:
    code, text = _cli("table", table_id, "--methods", ",".join(METHODS),
                      "--format", "csv")
    assert code == 0
    return _untimed(text, "csv")


def price_outputs(method: str) -> dict[str, str]:
    outputs = {}
    for side in SIDES:
        for fmt in FORMATS:
            code, text = _cli(*PRICE_ARGS, "--method", method, "--side", side,
                              "--format", fmt)
            assert code == 0
            outputs[f"{method}-{side}-{fmt}"] = _untimed(text, fmt)
    return outputs


@pytest.fixture(autouse=True)
def _default_seed(monkeypatch):
    monkeypatch.delenv("VGP_SEED", raising=False)


@pytest.mark.parametrize("table_id", sorted(BUILTIN_TABLES))
def test_table_csv_is_byte_identical(table_id):
    assert table_output(table_id) == (DATA / f"table_{table_id}.csv").read_text()


@pytest.mark.parametrize("method", METHODS)
def test_price_outputs_are_byte_identical(method):
    frozen = json.loads((DATA / "price_T2.json").read_text())
    got = price_outputs(method)
    assert got == {k: v for k, v in frozen.items() if k.startswith(method + "-")}


def test_timing_is_what_gets_cut():
    assert _untimed("put 2.0 (method=cgz, 0.042 ms)\n", "text") == "put 2.0 (method=cgz)\n"
    assert _untimed('{\n  "a": 1,\n  "elapsed_ns": 5,\n  "z": 2\n}\n', "json") == (
        '{\n  "a": 1,\n  "z": 2\n}\n')
    assert _untimed("a,b,elapsed_ns\n1,2,345\n", "csv") == "a,b\n1,2\n"


if __name__ == "__main__":
    os.environ.pop("VGP_SEED", None)
    DATA.mkdir(exist_ok=True)
    for tid in sorted(BUILTIN_TABLES):
        (DATA / f"table_{tid}.csv").write_text(table_output(tid))
    frozen = {}
    for m in METHODS:
        frozen.update(price_outputs(m))
    (DATA / "price_T2.json").write_text(json.dumps(frozen, indent=2) + "\n")
