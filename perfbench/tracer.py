"""Span tracer that wraps crackbem's public functions from outside the package.

A function is looked up by the module that calls it, so every module
attribute that refers to a traced function is replaced, not only the one in
the defining module: `crackbem.cracks.double_conormal_kernel`,
`crackbem.forward.lu_solve` and `crackbem.cli.solve_cracked` are all
separate bindings.  Public methods (plus `__init__` and `__call__`) of the
package's classes are wrapped on the class.

Each span is named `<module>.<qualname>` after the module that defines the
function; scipy's `lu_factor` and `lu_solve` count as `forward`, the only
module that calls them.  Self time is a span's duration minus the time of
the spans it called directly.  Spans are aggregated in memory while they
close and read out once with `layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

import numpy as np

MODULES = ("mesh", "kernels", "forward", "chebyshev", "cracks", "asymptotics", "cli")

# name in `forward` -> span name, for the foreign functions traced there
FOREIGN = {"lu_factor": "forward.lu_factor", "lu_solve": "forward.lu_solve"}

# kernel span -> components per evaluated (x, y) pair in its result
KERNELS = {
    "kernels.kelvin_matrix": 4,
    "kernels.kelvin_gradient": 8,
    "kernels.dlp_traction_kernel": 4,
    "kernels.dlp_traction_gradient": 8,
    "kernels.double_conormal_kernel": 4,
}

# per-layer metrics named by function: (span name, stat)
FUNCTION_METRICS = [(name, "self_s") for name in KERNELS] + [
    ("forward.assemble_double_layer", "self_s"),
    ("forward.assemble_single_layer", "self_s"),
    ("forward.lu_factor", "self_s"),
    ("forward.lu_solve", "self_s"),
    ("forward.lu_solve", "calls"),
    ("forward.BackgroundField.stress", "self_s"),
    ("forward.BoundarySolver.neumann_conormal_row", "self_s"),
    ("chebyshev.invert_finite_part_operator", "self_s"),
    ("chebyshev.ChebyshevUExpansion.polynomial_part", "self_s"),
    ("cracks.solve_cracked", "self_s"),
    ("asymptotics.stress_intensity_from_stress", "calls"),
    ("asymptotics.stress_intensity_from_stress", "self_s"),
    ("asymptotics.neumann_perturbation", "self_s"),
]


def _traced_functions(package):
    """Yield (owner, attribute, function, span name) for every binding to wrap."""
    modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
    by_id = {}
    for short, module in modules.items():
        for value in vars(module).values():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                if not value.__name__.startswith("_"):
                    by_id[id(value)] = f"{short}.{value.__qualname__}"
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for meth, fn in vars(value).items():
                    public = not meth.startswith("_") or meth in ("__init__", "__call__")
                    if public and inspect.isfunction(fn):
                        yield value, meth, fn, f"{short}.{value.__qualname__}.{meth}"
    forward = modules["forward"]
    for attr, span in FOREIGN.items():
        by_id[id(getattr(forward, attr))] = span
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                yield module, attr, value, by_id[id(value)]


class Tracer:
    """Context manager that patches the package, records spans, then restores it.

    `clock` is injectable so tests can drive the self-time arithmetic with a
    fake clock.  Not thread-safe: trace single-threaded runs only.
    """

    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.stats = {}  # span name -> [calls, self seconds]
        self.pairs = 0
        self.bytes_computed = 0
        self.picard_sweeps = 0
        self.contraction_ratios = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, fn, span in _traced_functions(self.package):
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(span, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, span, fn):
        stack, stats, clock = self._stack, self.stats, self.clock
        components = KERNELS.get(span)
        after = self._after_solve if span == "cracks.solve_cracked" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry = stats.setdefault(span, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if components is not None and isinstance(result, np.ndarray):
                self.bytes_computed += result.nbytes
                if parent is None or parent[0] not in KERNELS:
                    self.pairs += result.size // components
            elif after is not None:
                after(args[0], args[1], result)
            return result

        return traced

    def _after_solve(self, background, crack, solution):
        """Count Picard sweeps and compare the contraction with (L/d)^2."""
        self.picard_sweeps += solution.diagnostics["iterations"]
        history = solution.diagnostics["update_history"]
        if len(history) >= 2 and history[0] > 0.0:
            rate = (history[-1] / history[0]) ** (1.0 / (len(history) - 1))
            points = background.solver.mesh.points
            d = float(np.min(np.hypot(*(points - np.asarray(crack.center)).T)))
            self.contraction_ratios.append(rate / (crack.length / d) ** 2)

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for module in MODULES:
            spans = [v for k, v in self.stats.items() if k.split(".", 1)[0] == module]
            out[f"{module}.self_s"] = (sum((v[1] for v in spans), 0.0), "s")
            out[f"{module}.calls"] = (sum(v[0] for v in spans), "count")
        for span, stat in FUNCTION_METRICS:
            calls, self_s = self.stats.get(span, (0, 0.0))
            out[f"{span}.{stat}"] = (self_s, "s") if stat == "self_s" else (calls, "count")
        out["kernels.pairs"] = (self.pairs, "count")
        out["kernels.bytes_computed"] = (self.bytes_computed, "B")
        out["cracks.picard_sweeps"] = (self.picard_sweeps, "count")
        ratios = self.contraction_ratios
        out["cracks.contraction_vs_predicted"] = (
            statistics.median(ratios) if ratios else 0.0, "ratio"
        )
        return out
