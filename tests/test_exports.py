import importlib
import importlib.util
import json
import math
import os
import pkgutil
import subprocess
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


# A small plan of every kind; b = (1+t)^-0.5, so the corrector integrates
# its decay factor by quadrature.
_MODEL = {
    "spectrum": {"kind": "explicit", "values": [1.0, 4.0]},
    "m": {"kind": "power", "gamma": 1.0},
    "b": {"kind": "power", "p": 0.5},
    "u0": [0.4, 0.2],
}
_SETTINGS = {"settings": {"grid": {"kind": "log", "count": 21, "t_end": 1.0}}}
_PLANS = {
    "simulate": {**_MODEL, **_SETTINGS, "eps": 0.1, "u1": [0.0, 0.1]},
    "limit": {**_MODEL, **_SETTINGS},
    "corrector": {**_MODEL, **_SETTINGS, "eps": 0.1, "u1": [0.0, 0.1]},
    "sweep_eps": {**_MODEL, **_SETTINGS, "eps_list": [0.1, 0.05], "u1": [0.0, 0.1]},
    "regime_grid": {"grid_gammas": [1.0], "grid_ps": [0.5]},
    "verify": {**_MODEL, **_SETTINGS},
}

# Run in a fresh process: prints which of the ``heavy`` modules are
# loaded after load_config of every plan, after run_plan of a simulate
# and a limit plan, and after run_plan of an eps sweep.
_IMPORT_SCRIPT = """
import json, sys
import kirchlab

out, plans = sys.argv[1], json.loads(sys.argv[2])
heavy = ("scipy.integrate", "concurrent.futures")
loaded = lambda: [name for name in heavy if name in sys.modules]
parsed = {kind: kirchlab.load_config(json.dumps({"kind": kind, **cfg}))
          for kind, cfg in plans.items()}
seen = {"load_config": loaded()}
kirchlab.run_plan(parsed["simulate"], out)
kirchlab.run_plan(parsed["limit"], out)
seen["run_plan"] = loaded()
kirchlab.run_plan(parsed["sweep_eps"], out, jobs=1)
seen["sweep"] = loaded()
print(json.dumps(seen))
"""


def test_runs_import_only_what_they_use(tmp_path):
    # ``import kirchlab`` and load_config load numpy and the standard
    # library; scipy's quadrature comes in with the first corrector that
    # needs it (p > 0), the process pool only with a parallel sweep.
    assert set(_PLANS) == set(kirchlab.harness.PLAN_KINDS)
    src = str(Path(kirchlab.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_SCRIPT, str(tmp_path), json.dumps(_PLANS)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    seen = json.loads(out.stdout)
    assert seen["load_config"] == seen["run_plan"] == []
    assert "scipy.integrate" in seen["sweep"]  # which loads concurrent.futures itself
