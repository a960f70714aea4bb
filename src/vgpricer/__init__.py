"""European option pricing under the variance gamma model.

The centerpiece is a closed-form pricer built from the Laplace
transform of the Brownian put value and a fractional derivative in the
transform variable; gamma-mixture, Fourier and Monte Carlo routes are
provided as independent cross-checks, plus a benchmark harness for the
built-in reference tables.

The package exports the ``__all__`` of its five library modules and
``__version__``.
"""

from . import model, laplace, fracderiv, pricing, bench
from .model import *
from .laplace import *
from .fracderiv import *
from .pricing import *
from .bench import *

__version__ = "0.1.0"

__all__ = [
    *model.__all__, *laplace.__all__, *fracderiv.__all__, *pricing.__all__,
    *bench.__all__, "__version__",
]
