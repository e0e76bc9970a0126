"""Spans and counters recorded around the calls into chaosde's modules.

The benchmark measures the library from the outside: `instrument` replaces
each traced function at every name a chaosde module binds it to, so the
callers inside the library reach the wrapper without any change to the
library source.  Spans nest on one stack (the traced commands run on one
thread, with `workers=1`); a span's self time is its duration minus the
durations of the spans it directly contains.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import sys
import time

#: (span name, module, attribute) for every traced module-level function.
FUNCTIONS = (
    ("wiener.sample_omega", "chaosde.wiener", "sample_omega"),
    ("chaos.taylor_shift", "chaosde.chaos", "taylor_shift"),
    ("hermite.build_kernels", "chaosde.hermite", "build_kernels"),
    ("hermite.simulate_paths", "chaosde.hermite", "simulate_paths"),
    ("hermite.export_kernels", "chaosde.hermite", "export_kernels"),
    ("sde.solve_euler", "chaosde.sde", "solve_euler"),
    ("sde.solve_theta_all", "chaosde.sde", "solve_theta_all"),
    ("young.rs_integral_hvalued", "chaosde.young", "rs_integral_hvalued"),
    ("malliavin.solution_derivative", "chaosde.malliavin", "solution_derivative"),
    ("malliavin.malliavin_matrix", "chaosde.malliavin", "malliavin_matrix"),
    ("malliavin.directional_quotient", "chaosde.malliavin", "directional_quotient"),
    ("density.run_ensemble", "chaosde.density", "run_ensemble"),
    ("density.kde", "chaosde.density", "kde"),
    ("density.dump_csv", "chaosde.density", "dump_csv"),
)

#: GridDriver methods, traced on the class itself.
GRID_DRIVER_METHODS = (
    ("hermite.GridDriver.init", "__init__"),
    ("hermite.GridDriver.values", "values"),
    ("hermite.GridDriver.deriv_vectors", "deriv_vectors"),
)

ROOT = "cli.command"


class Tracer:
    """In-memory span statistics and exact counters for one process."""

    def __init__(self):
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.counters = collections.Counter()
        self._child_time = []

    def wrap(self, name, fn, on_result=None):
        """Return fn wrapped in a span; on_result may replace the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - children
            return on_result(result) if on_result is not None else result

        return traced

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


def _counting(tracer, fn):
    def counted(x):
        tracer.counters["sde.coeff_calls"] += 1
        return fn(x)

    return counted


def _hooks(tracer):
    """Counters read from the results of traced calls (sizes are computed)."""

    def kernels(field):
        tracer.counters["hermite.kernel_bytes"] += field.blocks.nbytes
        return field

    def theta(bundle):
        tracer.counters["sde.theta_bytes"] += bundle.theta.nbytes
        return bundle

    def young(result):
        tracer.counters["young.levels"] += result.refinement_levels
        return result

    def ensemble(result):
        tracer.counters["density.excluded"] += result.excluded
        return result

    return {
        "hermite.build_kernels": kernels,
        "sde.solve_theta_all": theta,
        "young.rs_integral_hvalued": young,
        "density.run_ensemble": ensemble,
    }


def _counting_preset(tracer, preset):
    """`preset` returning coefficients whose callbacks count their calls.

    No span: config validation looks a preset up on every command, which is
    not SDE work.
    """

    @functools.wraps(preset)
    def counted(name):
        coeffs, x0 = preset(name)
        return dataclasses.replace(
            coeffs,
            b=_counting(tracer, coeffs.b),
            sigma=_counting(tracer, coeffs.sigma),
            db=_counting(tracer, coeffs.db),
            dsigma=_counting(tracer, coeffs.dsigma),
        ), x0

    return counted


def instrument(tracer: Tracer):
    """Install the span wrappers into the imported chaosde modules."""
    import chaosde.cli  # noqa: F401  (imports every traced module)

    modules = [mod for name, mod in list(sys.modules.items())
               if name == "chaosde" or name.startswith("chaosde.")]

    def replace(original, wrapped):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)

    hooks = _hooks(tracer)
    for span, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        replace(original, tracer.wrap(span, original, hooks.get(span)))
    preset = sys.modules["chaosde.sde"].preset
    replace(preset, _counting_preset(tracer, preset))
    from chaosde.hermite import GridDriver

    for span, method in GRID_DRIVER_METHODS:
        setattr(GridDriver, method, tracer.wrap(span, getattr(GridDriver, method)))
