"""In-memory span recorder and the wrappers that put spans around
kirchlab's layers.

The wrappers replace, for the duration of one traced repetition, the
module attributes through which ``kirchlab.harness`` reaches the other
layers (``ig.solve_hyperbolic``, ``en.energy_suite``, ...), plus the
harness's own writers and the model's scalar functions. Model calls are
far too frequent for spans, so they are counted, and each count is
charged to the innermost open span.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("integrate", "energies", "analysis", "harness", "svgplot")


class Tracer:
    """Spans of one traced repetition: name, start, end, parent, plan.

    Times are seconds since the tracer was created.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.plan = None
        self.outside = {"m_evals": 0, "b_evals": 0}
        self._stack = []

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "plan": self.plan,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "m_evals": 0,
            "b_evals": 0,
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.origin
        self._stack.pop()

    def counter(self, key: str):
        stack = self._stack
        outside = self.outside

        def bump():
            (stack[-1] if stack else outside)[key] += 1

        return bump


def _spanned(tracer: Tracer, fn, name: str, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, **(before(*args, **kwargs) if before else {}))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after:
            span.update(after(*args, **kwargs))
        return result

    return wrapper


def _counted(fn, bump):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bump()
        return fn(*args, **kwargs)

    return wrapper


def _targets(kl) -> list:
    """(owner, attribute, span name, before, after) for every wrapped call."""
    ig, en, ana, harness, svg = kl.integrate, kl.energies, kl.analysis, kl.harness, kl.svgplot
    hyperbolic = lambda spec, nl, dis, eps, u0, u1, settings=ig.IntegratorSettings(): {
        "solver": "solve_hyperbolic", "eps": eps, "t_end": settings.grid.t_end,
    }
    parabolic = lambda solver: lambda spec, nl, dis, u0, settings=ig.IntegratorSettings(): {
        "solver": solver, "t_end": settings.grid.t_end,
    }
    cells = lambda traj, *a, **k: {"cells": int(traj.u.size)}
    csv_bytes = lambda path, *a, **k: {"bytes": os.path.getsize(path)}
    return [
        (ig, "solve_hyperbolic", "integrate.solve", hyperbolic, None),
        (ig, "solve_parabolic_reparam", "integrate.solve", parabolic("solve_parabolic_reparam"), None),
        (ig, "solve_parabolic_direct", "integrate.solve", parabolic("solve_parabolic_direct"), None),
        (ig, "corrector", "integrate.corrector", None, None),
        (ig, "residual_norm", "integrate.residual", None, None),
        (en, "energy_suite", "energies.suite", cells, None),
        (en, "apriori_margin", "energies.apriori", None, None),
        (en, "apriori_satisfied", "energies.apriori", None, None),
        (ana, "hamiltonian_floor", "analysis.floor", None, None),
        (ana, "perturbation_errors", "analysis.errors", None, None),
        (ana, "fit_eps_order", "analysis.fit", None, None),
        (ana, "predicted_bounds", "analysis.verify", None, None),
        (ana, "verify_bounds", "analysis.verify", None, None),
        (harness, "load_config", "harness.load_config", None, None),
        (harness, "run_plan", "harness.run_plan", None, None),
        (harness, "_write_rows", "harness.csv", None, csv_bytes),
        (harness, "_write_json", "harness.json", None, None),
        (svg.LineChart, "write", "svgplot.write", None, None),
    ]


@contextmanager
def traced(tracer: Tracer, kl):
    """Install the span and count wrappers; restore the originals on exit.

    A missing attribute raises AttributeError: a renamed function must
    stop the benchmark rather than silently drop out of the trace.
    """
    model = kl.model
    swaps = [
        (owner, attr, _spanned(tracer, getattr(owner, attr), name, before, after))
        for owner, attr, name, before, after in _targets(kl)
    ]
    for key, classes, attr in (
        ("m_evals", (model.PowerNonlinearity, model.LipschitzTable), "value"),
        ("b_evals", (model.PowerLawDissipation, model.ConstantDissipation), "b"),
    ):
        bump = tracer.counter(key)
        swaps += [(cls, attr, _counted(getattr(cls, attr), bump)) for cls in classes]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in swaps]
    try:
        for owner, attr, wrapper in swaps:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def self_times(spans: list) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(tracer: Tracer, window: float) -> dict:
    """Per-layer figures of one traced repetition spanning ``window`` seconds.

    Layer self times plus ``uncovered_s`` add up to ``window``.
    """
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s["name"].split(".")[0]] += own[s["id"]]
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    solves = [s for s in spans if s["name"] == "integrate.solve"]
    return {
        "total": dict(total),
        "calls": dict(calls),
        "layer_self": layer_self,
        "uncovered_s": window - covered,
        "run_plan_self_s": sum(own[s["id"]] for s in spans if s["name"] == "harness.run_plan"),
        "solve_m_evals": sum(s["m_evals"] for s in solves),
        "m_evals": sum(s["m_evals"] for s in spans) + tracer.outside["m_evals"],
        "b_evals": sum(s["b_evals"] for s in spans) + tracer.outside["b_evals"],
        "csv_bytes": sum(s.get("bytes", 0) for s in spans),
        "cells": sum(s.get("cells", 0) for s in spans),
    }
