"""European option pricing under the variance gamma model.

The centerpiece is a closed-form pricer built from the Laplace
transform of the Brownian put value and a fractional derivative in the
transform variable; gamma-mixture, Fourier and Monte Carlo routes are
provided as independent cross-checks, plus a benchmark harness for the
built-in reference tables.
"""

from .model import OptionSpec, VgParams
from .laplace import (
    MAX_LEVEL,
    CoeffTable,
    ThetaRoots,
    build_coeff_table,
    eval_m,
    eval_m_dx,
    eval_m_exponential_part,
    log_bessel_series,
    theta_roots,
)
from .fracderiv import (
    DEFAULT_QUADRATURE,
    QuadratureAccuracyError,
    QuadratureConfig,
    frac_deriv_exp,
    frac_deriv_power,
    frac_deriv_quadrature,
)
from .pricing import (
    METHODS,
    McConfig,
    PriceQuote,
    black_scholes_put,
    call_from_put,
    fourier_put_ladder,
    price,
    price_cgz_group,
    price_put_cgz,
    price_put_fourier,
    price_put_mc,
    price_put_mixture,
    vg_charfunc,
)
from .bench import (
    BUILTIN_TABLES,
    CSV_HEADER,
    BenchReport,
    RowResult,
    ScenarioRow,
    builtin_table_rows,
    emit_report,
    run_scenarios,
)

__version__ = "0.1.0"

__all__ = [
    "OptionSpec",
    "VgParams",
    "MAX_LEVEL",
    "CoeffTable",
    "ThetaRoots",
    "build_coeff_table",
    "eval_m",
    "eval_m_dx",
    "eval_m_exponential_part",
    "log_bessel_series",
    "theta_roots",
    "DEFAULT_QUADRATURE",
    "QuadratureAccuracyError",
    "QuadratureConfig",
    "frac_deriv_exp",
    "frac_deriv_power",
    "frac_deriv_quadrature",
    "METHODS",
    "McConfig",
    "PriceQuote",
    "black_scholes_put",
    "call_from_put",
    "fourier_put_ladder",
    "price",
    "price_cgz_group",
    "price_put_cgz",
    "price_put_fourier",
    "price_put_mc",
    "price_put_mixture",
    "vg_charfunc",
    "BUILTIN_TABLES",
    "CSV_HEADER",
    "BenchReport",
    "RowResult",
    "ScenarioRow",
    "builtin_table_rows",
    "emit_report",
    "run_scenarios",
    "__version__",
]
