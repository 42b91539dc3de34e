"""Spans around the calls into each layer of spindyn, recorded from outside.

``Tracer.install`` replaces each public function listed in ``TARGETS`` at
the names where the program looks it up (a module global such as
``spindyn.cli.run_nested`` or a class attribute such as
``CoefficientField.drift_all``) with a wrapper that records one span per
call: [id, name, start, end, parent id, run id, work units].  Spans stay in
memory until the child process writes them out.  ``layer_metrics`` turns
the spans of one run into the per-layer metrics of the benchmark.
"""

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from contextlib import contextmanager


def _size(name):
    return lambda b: b.arguments[name].size


def _noise_draws(b):
    return len(b.arguments["site_ids"]) * b.arguments["n_steps"]


def _rep_site_steps(b):
    n_steps = b.arguments.get("n_steps")
    if n_steps is None:
        n_steps = b.arguments["plan"].n_steps
    return b.arguments["init_states"].size * n_steps


def _mala_chain_steps(b):
    chain = b.arguments["chain"]
    steps = chain.steps if b.arguments["collect"] else 1
    return b.arguments["init"].shape[0] * (chain.burn_in + steps)


def _sites(b):
    return b.arguments["config"].n_sites


# span name -> (the places it is looked up, work units of one call or None)
TARGETS = {
    "geometry.build_graph": ([("spindyn.geometry", "build_graph")], _sites),
    "geometry.configuration_from_csv": ([("spindyn.geometry", "configuration_from_csv")], None),
    "geometry.graph_to_csv": ([("spindyn.geometry", "graph_to_csv")], None),
    "rng.noise_matrix": ([("spindyn.engine", "noise_matrix"),
                          ("spindyn.gibbs", "noise_matrix")], _noise_draws),
    "engine.RandomInit.draw": ([("spindyn.engine", "RandomInit.draw")], None),
    "coeffs.drift_all": ([("spindyn.coeffs", "CoefficientField.drift_all")], _size("state")),
    "coeffs.diffusion_all": ([("spindyn.coeffs", "CoefficientField.diffusion_all")],
                             _size("state")),
    "coeffs.make_field": ([("spindyn.cli", "make_field")], None),
    "coeffs.validate_assumptions": ([("spindyn.gibbs", "validate_assumptions")], None),
    "engine.run_nested": ([("spindyn.cli", "run_nested")], None),
    "engine.integrate_ensemble": ([("spindyn.engine", "integrate_ensemble"),
                                   ("spindyn.gibbs", "integrate_ensemble")], _rep_site_steps),
    "engine.cauchy_gap": ([("spindyn.cli", "cauchy_gap")], None),
    "engine.moment_p": ([("spindyn.cli", "moment_p")], None),
    "ovsbound.gronwall_bound": ([("spindyn.ovsbound", "gronwall_bound")], None),
    "ovsbound.estimate_L": ([("spindyn.ovsbound", "estimate_L")], None),
    "ovsbound.induced_matrix": ([("spindyn.ovsbound", "induced_matrix")], None),
    "ovsbound.k_series": ([("spindyn.ovsbound", "k_series")], None),
    "gibbs.make_model": ([("spindyn.cli", "make_model")], None),
    "gibbs.kernel_sample": ([("spindyn.gibbs", "kernel_sample")], None),
    "gibbs.sample_window_measure": ([("spindyn.gibbs", "sample_window_measure")], None),
    "gibbs.mala": ([("spindyn.gibbs", "_mala_run")], _mala_chain_steps),
    "gibbs.dlr_residual": ([("spindyn.gibbs", "dlr_residual")], None),
    "gibbs.energy_distance_test": ([("spindyn.gibbs", "energy_distance_test")], None),
    "gibbs.gradient_dynamics_field": ([("spindyn.gibbs", "gradient_dynamics_field")], None),
    "gibbs.reversibility_test": ([("spindyn.gibbs", "reversibility_test")], None),
}

# (metric, span name, what to take from the spans, unit, better)
_TOTAL, _CALLS, _RATE, _SELF = "total", "calls", "rate", "self"
METRICS = [
    ("geometry.build_graph.s", "geometry.build_graph", _TOTAL, "s", "lower"),
    ("geometry.build_graph.sites_per_s", "geometry.build_graph", _RATE, "1/s", "higher"),
    ("geometry.configuration_from_csv.s", "geometry.configuration_from_csv", _TOTAL, "s", "lower"),
    ("geometry.graph_to_csv.s", "geometry.graph_to_csv", _TOTAL, "s", "lower"),
    ("rng.noise_matrix.s", "rng.noise_matrix", _TOTAL, "s", "lower"),
    ("rng.noise_matrix.calls", "rng.noise_matrix", _CALLS, "count", "lower"),
    ("rng.noise_matrix.draws_per_s", "rng.noise_matrix", _RATE, "1/s", "higher"),
    ("engine.RandomInit.draw.s", "engine.RandomInit.draw", _TOTAL, "s", "lower"),
    ("coeffs.drift_all.s", "coeffs.drift_all", _TOTAL, "s", "lower"),
    ("coeffs.drift_all.site_evals_per_s", "coeffs.drift_all", _RATE, "1/s", "higher"),
    ("coeffs.diffusion_all.s", "coeffs.diffusion_all", _TOTAL, "s", "lower"),
    ("coeffs.diffusion_all.site_evals_per_s", "coeffs.diffusion_all", _RATE, "1/s", "higher"),
    ("coeffs.make_field.s", "coeffs.make_field", _TOTAL, "s", "lower"),
    ("coeffs.validate_assumptions.s", "coeffs.validate_assumptions", _TOTAL, "s", "lower"),
    ("engine.run_nested.s", "engine.run_nested", _TOTAL, "s", "lower"),
    ("engine.integrate_ensemble.s", "engine.integrate_ensemble", _TOTAL, "s", "lower"),
    ("engine.integrate_ensemble.self_s", "engine.integrate_ensemble", _SELF, "s", "lower"),
    ("engine.integrate_ensemble.rep_site_steps_per_s", "engine.integrate_ensemble", _RATE,
     "1/s", "higher"),
    ("engine.cauchy_gap.s", "engine.cauchy_gap", _TOTAL, "s", "lower"),
    ("engine.moment_p.s", "engine.moment_p", _TOTAL, "s", "lower"),
    ("engine.moment_p.calls", "engine.moment_p", _CALLS, "count", "lower"),
    ("ovsbound.gronwall_bound.s", "ovsbound.gronwall_bound", _TOTAL, "s", "lower"),
    ("ovsbound.estimate_L.s", "ovsbound.estimate_L", _TOTAL, "s", "lower"),
    ("ovsbound.estimate_L.calls", "ovsbound.estimate_L", _CALLS, "count", "lower"),
    ("ovsbound.induced_matrix.s", "ovsbound.induced_matrix", _TOTAL, "s", "lower"),
    ("ovsbound.k_series.s", "ovsbound.k_series", _TOTAL, "s", "lower"),
    ("gibbs.make_model.s", "gibbs.make_model", _TOTAL, "s", "lower"),
    ("gibbs.kernel_sample.s", "gibbs.kernel_sample", _TOTAL, "s", "lower"),
    ("gibbs.sample_window_measure.s", "gibbs.sample_window_measure", _TOTAL, "s", "lower"),
    ("gibbs.mala.chain_steps_per_s", "gibbs.mala", _RATE, "1/s", "higher"),
    ("gibbs.dlr_residual.s", "gibbs.dlr_residual", _TOTAL, "s", "lower"),
    ("gibbs.energy_distance_test.s", "gibbs.energy_distance_test", _TOTAL, "s", "lower"),
    ("gibbs.gradient_dynamics_field.s", "gibbs.gradient_dynamics_field", _TOTAL, "s", "lower"),
    ("gibbs.reversibility_test.s", "gibbs.reversibility_test", _TOTAL, "s", "lower"),
    ("cli.cmd.s", "cli.cmd", _TOTAL, "s", "lower"),
    ("cli.cmd.self_s", "cli.cmd", _SELF, "s", "lower"),
]
# Metrics that do not come from the spans of one traced run.
OUT_MB = ("cli.out_mb", "MiB", "lower")
OVERHEAD = ("trace.overhead_s", "s", "lower")


class Tracer:
    """Records spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.run_id = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, units=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([span_id, name, start, end, parent, self.run_id, units])

    def _wrap(self, name, fn, units):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = units(sig.bind(*args, **kwargs)) if units else None
            with self.span(name, work):
                return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every target that exists; a missing name leaves its
        metrics at 0."""
        for name, (places, units) in TARGETS.items():
            for module_name, attr in places:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None)
                if fn is not None:
                    setattr(owner, leaf, self._wrap(name, fn, units))


def layer_metrics(spans) -> dict:
    """Per-layer values of one traced run, keyed by metric name.

    A span counts towards its name's total only when no enclosing span has
    the same name; self time is a span's duration less that of its direct
    children (which, within one thread, do not overlap).
    """
    by_id = {s[0]: s for s in spans}
    total, calls, units, child_time = {}, {}, {}, {}
    for span_id, name, start, end, parent, _run, work in spans:
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        ancestor, nested = parent, False
        while ancestor is not None:
            if by_id[ancestor][1] == name:
                nested = True
                break
            ancestor = by_id[ancestor][4]
        if not nested:
            total[name] = total.get(name, 0.0) + (end - start)
            units[name] = units.get(name, 0) + (work or 0)
    self_time = {}
    for span_id, name, start, end, *_ in spans:
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
    out = {}
    for metric, name, kind, _unit, _better in METRICS:
        if kind == _TOTAL:
            out[metric] = total.get(name, 0.0)
        elif kind == _CALLS:
            out[metric] = calls.get(name, 0)
        elif kind == _SELF:
            out[metric] = self_time.get(name, 0.0)
        else:
            t = total.get(name, 0.0)
            out[metric] = units.get(name, 0) / t if t > 0 else 0.0
    return out
