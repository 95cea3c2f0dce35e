import importlib
import importlib.util
import math
import pkgutil
import sys
from pathlib import Path

import pytest

import kirchlab

MODULES = ["kirchlab"] + [
    f"kirchlab.{info.name}" for info in pkgutil.iter_modules(kirchlab.__path__)
]

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def _bench_module(name, monkeypatch):
    """A module of bench/ loaded by path, without writing its bytecode.
    The bench modules it imports by name leave sys.modules, and its
    entry leaves sys.path, at teardown."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for added in set(sys.modules) - before:
        if Path(getattr(sys.modules[added], "__file__", None) or "").parent == BENCH:
            monkeypatch.setitem(sys.modules, added, sys.modules.pop(added))
    return module


def test_bench_finds_what_it_needs(monkeypatch):
    # The benchmark wraps kirchlab's functions by name and runs its
    # plans through load_config; a src/ change that breaks either shows
    # here, not only when the benchmark runs.
    spans = _bench_module("spans", monkeypatch)
    workloads = _bench_module("workloads", monkeypatch)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in spans._targets(kirchlab)
        if not hasattr(owner, attr)
    ]
    assert missing == []
    # Probes go before every call of these; a hook that is gone is
    # skipped silently, so the probes would thin without a failure.
    run = _bench_module("run", monkeypatch)
    gone = [(module, attr) for module, attr in run.probe.HOOKS
            if not hasattr(getattr(kirchlab, module), attr)]
    assert gone == []
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for text in workloads.make_plans(workload, 0, size):
                plan = kirchlab.load_config(text)
                # What --trace 1 reads of every second-order solve.
                for eps in {"simulate": (plan.eps,), "sweep_eps": plan.eps_list}.get(plan.kind, ()):
                    steps = run.cap_steps(plan, eps)
                    assert math.isfinite(steps) and steps > 0.0
