import ast
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import orjson
import pytest

import kirchlab

from helpers import EXACT_SWEEP_PLAN

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
# loaded after load_config of every plan, then after run_plan of each
# plan in turn, with jobs=1.
_IMPORT_SCRIPT = """
import json, sys
import kirchlab

out, plans = sys.argv[1], json.loads(sys.argv[2])
heavy = ("scipy", "concurrent.futures")
loaded = lambda: [name for name in heavy if name in sys.modules]
parsed = {kind: kirchlab.load_config(json.dumps({"kind": kind, **cfg}))
          for kind, cfg in plans.items()}
seen = {"load_config": loaded()}
for kind, plan in parsed.items():
    kirchlab.run_plan(plan, out, jobs=1)
    seen[kind] = loaded()
print(json.dumps(seen))
"""


def test_runs_import_only_what_they_use(tmp_path):
    # ``import kirchlab``, load_config and every plan run with jobs=1
    # load numpy and the standard library only: no run loads scipy, not
    # even the p = 0.5 corrector and sweep, whose decay integrals are
    # kirchlab's own quadrature; the process pool comes in only with a
    # parallel sweep.
    assert set(_PLANS) == set(kirchlab.harness.PLAN_KINDS)
    assert _PLANS["corrector"]["b"] == {"kind": "power", "p": 0.5}
    src = str(Path(kirchlab.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_SCRIPT, str(tmp_path), json.dumps(_PLANS)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert json.loads(out.stdout) == dict.fromkeys(["load_config", *_PLANS], [])


def test_no_module_imports_scipy():
    # Nor numpy.polynomial, which is heavier to import than the two
    # Gauss-Legendre tables the corrector needs from it.
    banned = ("scipy", "numpy.polynomial")
    found = []
    for path in sorted(Path(kirchlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [(path.name, name) for name in names
                      if any(name == b or name.startswith(b + ".") for b in banned)]
    assert found == []


def _plan(kind):
    return kirchlab.load_config(json.dumps({"kind": kind, **_PLANS[kind]}))


@pytest.mark.parametrize("kind", sorted(_PLANS))
def test_compute_steps_write_nothing(kind, tmp_path, monkeypatch):
    # A compute step only marks its solves and hands its files to
    # run_plan, whose one writer writes exactly those.
    harness = kirchlab.harness
    stages = []

    @contextmanager
    def stage(name):
        stages.append(name)
        yield

    def refuse(*args, **kwargs):
        raise AssertionError("a compute step wrote a file")

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_write_rows", refuse)
        patch.setattr(harness, "_write_json", refuse)
        patch.setattr(kirchlab.svgplot.LineChart, "write", refuse)
        patch.chdir(tmp_path)
        verdicts, _, files = harness.PLAN_KINDS[kind].compute(_plan(kind), 1, stage)
    assert list(tmp_path.iterdir()) == []
    assert set(stages) <= {"solve"}
    bundle = kirchlab.run_plan(_plan(kind), tmp_path, jobs=1)
    assert list(bundle.manifest["files"]) == sorted(files)
    assert bundle.manifest["verdicts"] == verdicts


@pytest.mark.parametrize("kind", [*sorted(_PLANS), "exact_sweep"])
def test_every_bundle_json_is_strict(kind, tmp_path):
    # NaN and +-inf are not JSON, so the writer writes them as null; the
    # exact sweep's ratio was written as Infinity.
    exact = kind == "exact_sweep"
    plan = kirchlab.load_config(json.dumps(EXACT_SWEEP_PLAN)) if exact else _plan(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the exact sweep's degenerate data
        bundle = kirchlab.run_plan(plan, tmp_path, jobs=1)
    names = sorted(path.name for path in bundle.directory.glob("*.json"))
    assert "manifest.json" in names
    for name in names:
        orjson.loads((bundle.directory / name).read_bytes())


def test_bench_trace_sees_every_layer(tmp_path, monkeypatch):
    # --trace 1 sees a layer only through the module attributes that
    # bench/spans.py wraps: a call that bypasses one (a writer bound at
    # import, say) drops its span without an error.
    spans = _bench_module("spans", monkeypatch)
    tracer = spans.Tracer()
    with spans.traced(tracer, kirchlab):
        for kind in _PLANS:
            kirchlab.run_plan(_plan(kind), tmp_path, jobs=1)
    closed = {span["name"] for span in tracer.spans if span["end"] is not None}
    assert {
        "integrate.solve", "integrate.corrector", "energies.suite", "analysis.verify",
        "harness.csv", "harness.json", "svgplot.write",
    } <= closed
