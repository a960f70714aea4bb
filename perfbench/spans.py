"""In-memory spans and counts around calls into the library's layers.

The tracer lives in the benchmark, not in the library: ``install`` swaps
the public functions of ``bench``, ``pricing``, ``laplace`` and
``fracderiv`` for timing wrappers in every ``vgpricer`` namespace that
holds them (so calls made through ``from .laplace import ...`` aliases
and through dispatch tables are traced too), and ``undo`` puts the
originals back.

Two functions are left unwrapped on purpose: ``black_scholes_put`` and
``vg_charfunc`` run once per quadrature node inside the mixture and
Fourier integrands, so wrapping them would mostly time the wrapper.
SciPy's ``quad`` as seen from ``pricing`` and ``fracderiv`` is counted,
not timed: each call adds its ``neval`` to the innermost traced pricer
or fractional-derivative frame, and its time stays in that frame's self
time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

# span names whose spans are stored one by one (and whose durations are
# kept for percentiles); every other traced function is aggregated only,
# which keeps memory flat at ~10^4 calls per price
KEPT = frozenset({
    "bench.run_scenarios",
    "pricing.price_put_cgz",
    "pricing.price_put_mixture",
    "pricing.price_put_fourier",
    "pricing.price_put_mc",
    "fracderiv.frac_deriv_quadrature",
})

# functions called per quadrature node; see the module docstring
UNWRAPPED = frozenset({"black_scholes_put", "vg_charfunc"})

# frames a quad call is charged to, innermost first
_QUAD_OWNERS = (
    "fracderiv.frac_deriv_quadrature",
    "pricing.price_put_mixture",
    "pricing.price_put_fourier",
)

MAX_STORED_SPANS = 200_000


class Tracer:
    """Records (id, name, start, end, parent, request) spans and counts."""

    def __init__(self):
        self.stack: list[list] = []  # open frames: [name, child_seconds, span_id]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()
        self.request = -1
        self._next_id = 0

    def wrap(self, name: str, fn):
        stack = self.stack
        keep = name in KEPT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    self.durations[name].append(dur)
                    self._store(span_id, name, start, end)

        return traced

    def _store(self, span_id, name, start, end):
        if len(self.spans) >= MAX_STORED_SPANS:
            self.dropped += 1
            return
        parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
        self.spans.append((span_id, name, start, end, parent, self.request))

    def count_quad(self, quad):
        stack = self.stack

        @functools.wraps(quad)
        def counted(*args, **kwargs):
            res = quad(*args, **kwargs)
            if kwargs.get("full_output") and len(res) >= 3:
                open_names = [f[0] for f in stack]
                for owner in _QUAD_OWNERS:
                    if owner in open_names:
                        self.counts[owner + ".quad_neval"] += res[2]["neval"]
                        break
            return res

        return counted

    def dump(self, path) -> None:
        """Write spans and aggregates as one JSON document."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer):
    """Wrap the library's layer functions; returns a callable that undoes it."""
    import vgpricer
    from vgpricer import bench, cli, fracderiv, laplace, model, pricing

    namespaces = [vgpricer, bench, cli, fracderiv, laplace, model, pricing]
    swaps: dict[int, tuple] = {}  # id(original) -> (original, replacement)
    for mod in (bench, pricing, laplace, fracderiv):
        layer = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and name not in UNWRAPPED:
                swaps[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    quad = pricing.quad
    swaps[id(quad)] = (quad, tracer.count_quad(quad))

    undo: list = []
    for ns in namespaces:
        for attr, val in list(vars(ns).items()):
            if id(val) in swaps and swaps[id(val)][0] is val:
                setattr(ns, attr, swaps[id(val)][1])
                undo.append((setattr, ns, attr, val))
            elif isinstance(val, dict) and not attr.startswith("__"):
                for key, item in list(val.items()):
                    if id(item) in swaps and swaps[id(item)][0] is item:
                        val[key] = swaps[id(item)][1]
                        undo.append((dict.__setitem__, val, key, item))

    c1 = laplace.CoeffTable.c1_residual
    laplace.CoeffTable.c1_residual = tracer.wrap("laplace.c1_residual", c1)
    undo.append((setattr, laplace.CoeffTable, "c1_residual", c1))

    def restore():
        for setter, target, key, original in reversed(undo):
            setter(target, key, original)

    return restore
