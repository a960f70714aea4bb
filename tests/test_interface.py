"""The package's module boundaries and the names the benchmark relies on.

* No module imports a private name (``_x``) from a sibling module: a
  name another module needs belongs in the public surface.
* Every ``__all__`` entry resolves.  ``perfbench/spans.py`` wraps each
  of them with ``getattr``, so a stale entry breaks a traced run.
* The package exports the library modules' ``__all__`` and nothing else.
* The names ``perfbench/`` imports or patches exist with the shape it
  uses.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import vgpricer

PACKAGE = Path(vgpricer.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__main__")


def _private_sibling_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [f"from {'.' * node.level}{node.module or ''} import {a.name}"
                      for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = {
        name: bad for name in MODULES
        if (bad := _private_sibling_imports((PACKAGE / f"{name}.py").read_text()))
    }
    assert offenders == {}


def test_private_import_scan_sees_every_form():
    src = ("from .bench import _PRICERS\nfrom . import _x\n"
           "from .a import b, _c\nfrom os import _exit\nfrom .d import e\n")
    assert _private_sibling_imports(src) == [
        "from .bench import _PRICERS", "from . import _x", "from .a import _c"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(
        "vgpricer" if name == "__init__" else f"vgpricer.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_exports_the_library_modules_all():
    from vgpricer import bench, fracderiv, laplace, model, pricing

    modules = (model, laplace, fracderiv, pricing, bench)
    want = [n for mod in modules for n in mod.__all__] + ["__version__"]
    assert vgpricer.__all__ == want
    assert len(set(want)) == len(want)


def test_names_the_benchmark_uses_exist():
    from scipy.integrate import quad

    from vgpricer import bench, laplace, pricing

    for name in ("OptionSpec", "VgParams", "price_put_mixture"):
        assert hasattr(vgpricer, name)
    params = inspect.signature(bench.run_scenarios).parameters
    assert {"rows", "seed", "mc_paths"} <= set(params)
    assert callable(bench.builtin_table_rows)
    assert bench.METHODS == ("cgz", "mixture", "fourier", "mc")
    assert set(bench.BUILTIN_TABLES) == {"T1", "T2", "T3", "T4", "T5", "T6"}
    fields = [f.name for f in bench.ScenarioRow.__dataclass_fields__.values()]
    assert fields == ["table", "maturity", "spot", "strike", "sigma", "nu",
                      "methods", "expected", "expected_source"]
    for method in bench.METHODS:
        assert f"price_put_{method}" in pricing.__all__
    assert pricing.quad is quad
    assert callable(laplace.CoeffTable.c1_residual)


def test_import_loads_scipy_stats():
    # perfbench/run.py reads the import time of scipy.stats from the
    # `-X importtime` trace of `import vgpricer`, and exits if it is absent
    code = "import sys, vgpricer; assert 'scipy.stats' in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_pricing_never_loads_mpmath():
    # a table that fails the C^1 check at t/nu 30, and t/nu 500 past the
    # level cap, both price on the Bessel series in double precision
    code = (
        "import sys\n"
        "from vgpricer import OptionSpec, VgParams, price_put_cgz\n"
        "price_put_cgz(OptionSpec(90.0, 100.0, 30 * 3.040), VgParams(1.795, 3.040))\n"
        "price_put_cgz(OptionSpec(90.0, 100.0, 500 * 0.3), VgParams(0.2, 0.3))\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
