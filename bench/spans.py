"""In-memory spans around calls into torusnlw's modules, and the per-layer
metrics derived from them.

A span is ``[name, start, end, parent, extra]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``extra`` a per-call count that
some layers add (grid points of a product, integrator steps of a
trajectory).  ``install`` rebinds every public function of the library
modules, in every module namespace that binds it, to a wrapper that
records one span per call.  The rebinding matters because ``montecarlo``
and ``energy`` import their callees by name.  It also rebinds the FFT
routines that ``spectral`` imports, so a product's grid is read off the
arrays it transforms rather than recomputed here.  Nothing under ``src/``
is changed; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

import numpy as np

LIBRARY_MODULES = ("spectral", "sampling", "dynamics", "energy", "measures",
                   "montecarlo")
FFT_PACKAGES = ("scipy.fft", "numpy.fft")
ROOT = "cli.main"

# name -> unit, in the order the traced run reports them
LAYER_METRICS = {
    "spectral.inner_product.calls": "count",
    "spectral.inner_product.self_s": "s",
    "spectral.pointwise_product.calls": "count",
    "spectral.pointwise_product.self_s": "s",
    "spectral.pointwise_product.grid_points": "count",
    "spectral.truncated_cube.calls": "count",
    "spectral.truncated_cube.self_s": "s",
    "spectral.apply_multiplier.self_s": "s",
    "spectral.project_ball.self_s": "s",
    "sampling.sample.calls": "count",
    "sampling.sample.self_s": "s",
    "energy.energy_rate_terms.self_s": "s",
    "energy.quartic_correction.calls": "count",
    "energy.quartic_correction.self_s": "s",
    "energy.chaos_components.self_s": "s",
    "energy.truncated_energy.calls": "count",
    "energy.truncated_energy.self_s": "s",
    "energy.hamiltonian.self_s": "s",
    "energy.renormalized_energy.self_s": "s",
    "dynamics.steps": "count",
    "dynamics.linear_propagator.self_s": "s",
    "dynamics.trajectory.self_s": "s",
    "montecarlo.collect_values.self_s": "s",
    "montecarlo.states_evaluated": "count",
    "montecarlo.resolve_radius.s": "s",
    "montecarlo.pilot_states": "count",
    "montecarlo.estimate.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "spectral.self_s": "s",
    "sampling.self_s": "s",
    "energy.self_s": "s",
    "measures.self_s": "s",
    "dynamics.self_s": "s",
    "montecarlo.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans in memory; one tracer per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list = []
        self._stack: list = []
        self._clock = clock

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._clock(), 0.0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self._clock()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, name: str, fn, extra=None):
        """A stand-in for fn that records a span per call.  extra(args,
        kwargs) gives the span's count; a generator function gets one
        span per item it produces, and extra(args, kwargs, item, state)
        counts the work that produced it (state is a dict kept across the
        items of one call)."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                state: dict = {}
                while True:
                    index = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    if extra is not None:
                        self.spans[index][4] = extra(args, kwargs, item, state)
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                if extra is not None:
                    self.spans[index][4] = extra(args, kwargs)
        return wrapper

    def observe_grid(self, fn, within: str):
        """A stand-in for an FFT routine that records no span of its own.
        When the innermost open span is named `within`, it keeps there the
        largest array (in points) that the routine was given."""
        @functools.wraps(fn)
        def transform(x, *args, **kwargs):
            if self._stack and isinstance(x, np.ndarray):
                span = self.spans[self._stack[-1]]
                if span[0] == within:
                    span[4] = max(span[4], x.size)
            return fn(x, *args, **kwargs)
        return transform


def _trajectory_steps(args, kwargs, item, state) -> int:
    """Integrator steps taken to reach the yielded time: full steps of dt
    plus a final short step when t_final is not a multiple of dt."""
    integ = args[3] if len(args) > 3 else kwargs["integ"]
    done = math.ceil(abs(item[0]) / integ.dt - 1e-9)
    steps = done - state.get("done", 0)
    state["done"] = done
    return steps


EXTRA = {
    "dynamics.trajectory": _trajectory_steps,
}


def install(tracer: Tracer) -> None:
    """Wrap every public library function where any module binds it,
    including the package namespace and torusnlw.cli."""
    modules = {short: importlib.import_module(f"torusnlw.{short}")
               for short in LIBRARY_MODULES}
    namespaces = list(modules.values()) + [importlib.import_module("torusnlw"),
                                           importlib.import_module("torusnlw.cli")]
    wrappers: dict = {}
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{short}.{attr}"
            wrappers[obj] = tracer.wrap(name, obj, EXTRA.get(name))
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(namespace, attr, wrappers[obj])
    spectral = modules["spectral"]
    for attr, obj in list(vars(spectral).items()):
        if callable(obj) and getattr(obj, "__module__", "").startswith(FFT_PACKAGES):
            setattr(spectral, attr, tracer.observe_grid(obj, "spectral.pointwise_product"))


# -- arithmetic over a finished trace ------------------------------------------


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def _under(spans, index: int, ancestor: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, bytes_written: int) -> dict:
    """Every LAYER_METRICS value of one traced command except
    trace.overhead_s, which needs an untraced run to compare against."""
    own = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    extra: dict = {}
    total_s: dict = {}
    for index, (name, start, end, _, count) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[index]
        extra[name] = extra.get(name, 0) + count
        total_s[name] = total_s.get(name, 0.0) + (end - start)

    def module_self(module: str) -> float:
        return sum((v for k, v in self_s.items() if k.startswith(module + ".")), 0.0)

    sample_spans = [i for i, span in enumerate(spans) if span[0] == "sampling.sample"]
    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer, 0)
        elif kind == "self_s" and layer.count(".") == 1:
            out[metric] = self_s.get(layer, 0.0)
    out["spectral.pointwise_product.grid_points"] = extra.get("spectral.pointwise_product", 0)
    out["dynamics.steps"] = extra.get("dynamics.trajectory", 0)
    out["montecarlo.states_evaluated"] = sum(
        _under(spans, i, "montecarlo.collect_values") for i in sample_spans)
    out["montecarlo.pilot_states"] = sum(
        _under(spans, i, "montecarlo.resolve_radius") for i in sample_spans)
    out["montecarlo.resolve_radius.s"] = total_s.get("montecarlo.resolve_radius", 0.0)
    out["montecarlo.estimate.self_s"] = (
        module_self("montecarlo") - self_s.get("montecarlo.collect_values", 0.0)
        - self_s.get("montecarlo.resolve_radius", 0.0))
    out["cli.self_s"] = self_s.get(ROOT, 0.0)
    out["cli.bytes_written"] = bytes_written
    for module in LIBRARY_MODULES:
        out[f"{module}.self_s"] = module_self(module)
    return out
