"""Span tracing of the modalmr layers, installed from outside the package.

The layers are the package's modules.  ``traced(tracer)`` replaces every
public function of each layer with a wrapper that records a span, at every
module attribute that binds the function: ``harness`` and ``robustness``
call ``fit_hq`` through their own imported name, ``risk`` calls
``predict`` the same way, so patching only the defining module would miss
those calls.  ``HypothesisKernel.cross`` is a method and is patched on its
class.  Leaving the context restores every original binding.

Spans are kept in memory as (name, start, end, parent, request, attrs) and
written out by the caller when the run ends.  A span's self time is its
duration minus the durations of its direct children; nothing runs in
parallel inside a traced command (``--jobs 1``), so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "harness", "kernels", "markov", "solver", "risk", "robustness")

# Public functions that share one span name; every other public function
# gets the span name "<layer>.<function>".
SPAN_GROUPS = {
    ("harness", "learning_curve"): "harness.experiment",
    ("harness", "gamma_sweep"): "harness.experiment",
    ("harness", "robustness_comparison"): "harness.experiment",
    ("harness", "read_dataset_file"): "harness.io",
    ("harness", "write_dataset_file"): "harness.io",
    ("harness", "write_csv"): "harness.io",
    ("harness", "write_manifest"): "harness.io",
    ("markov", "stationary_distribution"): "markov.spectral",
    ("markov", "absolute_spectral_gap"): "markov.spectral",
    ("markov", "spectral_gap_reversible"): "markov.spectral",
    ("markov", "pseudo_spectral_gap"): "markov.spectral",
    ("solver", "save_model"): "solver.model_io",
    ("solver", "load_model"): "solver.model_io",
    ("robustness", "fit_hq_multistart"): "robustness.multistart",
    ("robustness", "contamination_experiment"): "robustness.contamination",
}

# Span names whose calls and self time are always reported, zero when unused.
REPORTED_SPANS = (
    "cli.main",
    "harness.generate_dataset",
    "harness.experiment",
    "harness.io",
    "kernels.cross",
    "markov.sample_chain",
    "markov.spectral",
    "solver.fit_hq",
    "solver.fit_gradient",
    "solver.objective",
    "solver.predict",
    "solver.model_io",
    "risk.excess_risk",
    "robustness.multistart",
    "robustness.breakdown_N",
    "robustness.contamination",
)

# Relative slack allowed when checking that an objective trace never
# decreases: one part in 1e12 of the objective's size, i.e. rounding only.
MONOTONE_RTOL = 1e-12


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.problems: list[str] = []
        self.request = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), math.nan, parent, self.request))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self.spans[index].end = self.clock()

    def to_json(self, first: int = 0) -> list:
        return [
            [s.name, s.start, s.end, s.parent, s.request, s.attrs]
            for s in self.spans[first:]
        ]


def self_times(spans: list[Span], first: int = 0) -> list[float]:
    """Self time of spans[first:]: duration minus direct children's durations."""
    own = [s.end - s.start for s in spans[first:]]
    for s in spans[first:]:
        if s.parent >= first:
            own[s.parent - first] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], first: int = 0) -> dict:
    """Per-layer metrics of spans[first:], one traced workload iteration."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(float))
    starts = 0
    for s, own in zip(spans[first:], self_times(spans, first)):
        calls[s.name] += 1
        busy[s.name] += own
        for key, value in s.attrs.items():
            attrs[s.name][key] += value
        if s.name == "solver.fit_hq" and s.parent >= first:
            starts += spans[s.parent].name == "robustness.multistart"
    out = {}
    for name in REPORTED_SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = busy[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in busy.items() if k.startswith(layer + "."))
    cross = attrs["kernels.cross"]
    out["kernels.cross.entries"] = cross["entries"]
    out["kernels.cross.gbytes_computed"] = cross["bytes"] / 1e9
    out["harness.io.bytes"] = attrs["harness.io"]["bytes"]
    out["markov.sample_chain.steps"] = attrs["markov.sample_chain"]["steps"]
    for fit in ("solver.fit_hq", "solver.fit_gradient"):
        a = attrs[fit]
        out[f"{fit}.iters"] = a["iters"]
        out[f"{fit}.capped"] = a["capped"]
        out[f"{fit}.failed"] = a["failed"]
        n = calls[fit]
        out[f"{fit}.converged_ratio"] = (n - a["capped"] - a["failed"]) / n if n else 0.0
        out[f"{fit}.distinct_ratio"] = a["distinct"] / a["m"] if a["m"] else 0.0
    out["robustness.starts"] = starts
    out["robustness.useful_start_ratio"] = (
        calls["robustness.multistart"] / starts if starts else 0.0
    )
    return out


def _bind(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _fit_hook(tracer, fn, name):
    arguments = _bind(fn)

    def hook(attrs, args, kwargs, model):
        trace = np.asarray(model.objective_trace, dtype=float)
        iters = len(trace) - 1
        if name == "solver.fit_gradient":
            cap = arguments(args, kwargs)["max_iters"]
            # fit_gradient's own default when max_iters is not given
            cap = max(model.config.max_hq_iters, 2000) if cap is None else cap
        else:
            cap = model.config.max_hq_iters
        steps = np.diff(trace)
        slack = MONOTONE_RTOL * np.maximum(1.0, np.abs(trace[1:]))
        if np.any(steps < -slack):
            tracer.problems.append(
                f"{name}: objective trace decreases by {-steps.min():.3e}"
            )
        inputs = model.train_inputs
        if inputs is None:
            inputs = np.asarray(arguments(args, kwargs)["gram"])
        attrs.update(
            iters=iters,
            capped=int(iters >= cap),
            m=model.m,
            distinct=len(np.unique(inputs, axis=0)),
        )

    return hook


def _io_hook(fn):
    arguments = _bind(fn)

    def hook(attrs, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(arguments(args, kwargs)["path"])

    return hook


def _cross_hook(attrs, args, kwargs, matrix):
    attrs.update(entries=matrix.size, bytes=matrix.nbytes)


def _chain_hook(attrs, args, kwargs, states):
    attrs["steps"] = len(states)


def _hook_for(tracer, name, fn):
    if name in ("solver.fit_hq", "solver.fit_gradient"):
        return _fit_hook(tracer, fn, name)
    if name == "harness.io":
        return _io_hook(fn)
    if name == "markov.sample_chain":
        return _chain_hook
    if name == "kernels.cross":
        return _cross_hook
    return None


def _wrap(tracer, fn, name):
    hook = _hook_for(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.spans[index].attrs["failed"] = 1
            raise
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer.spans[index].attrs, args, kwargs, result)
        return result

    return wrapper


def public_functions(module) -> list[str]:
    """Names of the functions a layer module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if isinstance(getattr(module, n, None), types.FunctionType)
        and getattr(module, n).__module__ == module.__name__
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every layer's public functions, then restore."""
    modules = {layer: importlib.import_module(f"modalmr.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for fname in public_functions(module):
            fn = getattr(module, fname)
            name = SPAN_GROUPS.get((layer, fname), f"{layer}.{fname}")
            wrappers[id(fn)] = (fn, _wrap(tracer, fn, name))
    patches = []
    try:
        for modname, module in list(sys.modules.items()):
            if modname != "modalmr" and not modname.startswith("modalmr."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, entry[1])
        kernel_class = modules["kernels"].HypothesisKernel
        patches.append((kernel_class, "cross", kernel_class.cross))
        kernel_class.cross = _wrap(tracer, kernel_class.cross, "kernels.cross")
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
