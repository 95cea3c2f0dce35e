#!/usr/bin/env python3
"""kirchlab benchmark: seeded plan workloads run through load_config -> run_plan.

    python3 bench/run.py --workload hyperbolic-decay --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

Run from the repository root (any directory works; paths are resolved
from this file). kirchlab is imported from ../src, never from an installed
copy. One run repeats the workload's plans until another repetition
would end past --seconds:

--trace 0   end-to-end metrics from plain timed repetitions; host-speed
            probes (probe.py) run between stretches of every plan run,
            and wall and CPU time are reported relative to them;
--trace 1   per-layer metrics: repetitions alternate untraced and traced,
            and the traced ones record spans around each layer call.
--workload all runs every workload with --trace 0 and then --trace 1 in a
            child process each, and prints every metric.
Every plan runs with jobs=1, so all of its work is in this process.

Every metric is printed as "<name> <value> <unit>"; the last line of
standard output is one JSON object with correct/attempted/failed/metrics.
Result and span files go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
from workloads import SIZES, WORKLOADS, make_plans  # noqa: E402

# Fresh-process set-ups per run; setup_s is the fastest. One follows each
# of the first repetitions, so that they sample more of the run than its
# first seconds; the rest follow the last repetition. Not the median: on a
# shared host the median follows how busy the neighbours were (run-set
# medians 20 minutes apart differed by up to 37%), while the fastest of 8
# moved by at most 17%; work added to set-up raises both.
SETUP_RUNS = {"full": 8, "tiny": 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_rel": "probe",
    "cpu_rel": "probe",
    "peak_rss_mb": "MB",
    "bundle_mb": "MB",
}

PER_LAYER_UNITS = {
    "integrate.solve_s": "s",
    "integrate.solve_calls": "count",
    "integrate.m_evals": "count",
    "integrate.steps_est": "count",
    "integrate.cap_steps": "count",
    "integrate.corrector_s": "s",
    "integrate.residual_s": "s",
    "energies.suite_s": "s",
    "energies.apriori_s": "s",
    "energies.cells": "count",
    "analysis.floor_s": "s",
    "analysis.errors_s": "s",
    "analysis.verify_s": "s",
    "harness.csv_s": "s",
    "harness.csv_bytes": "bytes",
    "harness.json_s": "s",
    "harness.load_config_s": "s",
    "harness.run_plan_self_s": "s",
    "svgplot.write_s": "s",
    "model.m_evals": "count",
    "model.b_evals": "count",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "trace.uncovered_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Span name -> per-layer metric holding its summed duration.
SPAN_SECONDS = {
    "integrate.solve": "integrate.solve_s",
    "integrate.corrector": "integrate.corrector_s",
    "integrate.residual": "integrate.residual_s",
    "energies.suite": "energies.suite_s",
    "energies.apriori": "energies.apriori_s",
    "analysis.floor": "analysis.floor_s",
    "analysis.errors": "analysis.errors_s",
    "analysis.verify": "analysis.verify_s",
    "harness.csv": "harness.csv_s",
    "harness.json": "harness.json_s",
    "harness.load_config": "harness.load_config_s",
    "svgplot.write": "svgplot.write_s",
}


def import_kirchlab():
    """kirchlab from this checkout's src/, or exit without a result."""
    if not (SRC / "kirchlab" / "__init__.py").is_file():
        sys.exit(f"bench: kirchlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import kirchlab
    import kirchlab.harness  # noqa: F401  (submodules are wrapped by attribute)

    if not Path(kirchlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: kirchlab imported from {kirchlab.__file__}, not {SRC}")
    return kirchlab


def setup_seconds(texts: list) -> float:
    """One fresh-process (import kirchlab + load_config) time."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
        input=json.dumps(texts),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def digests(bundle: Path) -> dict:
    """sha256 of every payload file; the manifest carries a timestamp."""
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(bundle.iterdir())
        if f.is_file() and f.name != "manifest.json"
    }


def run_repetition(kl, texts, plans, rep_dir: Path, tracer, probed=False) -> dict:
    """Run every plan once into rep_dir, with jobs=1.

    wall_s and cpu_s sum the plans' run_plan calls (with ``plans`` given,
    the untraced end-to-end mode) or their load_config plus run_plan calls.
    With ``probed`` a probe.Meter cuts the plan runs into stretches at
    host-speed probes, gives wall_s and cpu_s without the probes' time, and
    gives wall_rel and cpu_rel relative to the probes.
    """
    harness = kl.harness
    outcomes = []
    meter = probe.Meter() if probed else None
    wall = cpu = 0.0
    with probe.hooked(meter, kl) if probed else nullcontext():
        for i, text in enumerate(texts):
            if tracer is not None:
                tracer.plan = i
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            try:
                plan = plans[i] if plans else harness.load_config(text)
                bundle = harness.run_plan(plan, rep_dir / f"plan{i}", jobs=1)
                outcomes.append({"dir": bundle.directory, "exit_code": bundle.exit_code, "error": None})
            except Exception:  # a plan that raises is a failed plan, not a failed run
                outcomes.append({"dir": None, "exit_code": None, "error": traceback.format_exc()})
            wall += time.perf_counter() - start
            cpu += cpu_seconds() - cpu0
            if meter:
                meter.mark(force=True)
    rep = {"wall_s": wall, "cpu_s": cpu, "outcomes": outcomes, "traced": tracer is not None}
    if meter:
        rep.update(
            wall_s=meter.wall, cpu_s=meter.cpu, wall_rel=meter.wall_rel, cpu_rel=meter.cpu_rel,
            probe_s=meter.probes,
        )
    return rep


def cap_steps(plan, eps: float) -> float:
    """t_end / h_max of a hyperbolic solve, from the plan's public settings."""
    lam = plan.spectrum.eigenvalues
    sigma0 = float(lam @ (plan.u0 * plan.u0))
    h_max = plan.settings.max_step_factor * (
        eps / (plan.spectrum.lambda_max * plan.nl.value(sigma0) + eps)
    ) ** 0.5
    return plan.settings.grid.t_end / h_max


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def find_failures(raw: list, reps: list) -> list:
    """(repetition, plan, message) for every failed plan run.

    Run outside the timed region: the independent checks read the first
    repetition's bundles, and every later repetition must reproduce them
    byte for byte.
    """
    failures = []
    for i, plan in enumerate(raw):
        first = reps[0]["outcomes"][i]
        if first["dir"] is not None:
            ref = checks.reference_final_state(plan) if plan["kind"] == "simulate" else None
            failures += [(0, i, msg) for msg in checks.check_plan(first["dir"], plan, ref)]
        for r, rep in enumerate(reps):
            out = rep["outcomes"][i]
            if out["error"] is not None:
                failures.append((r, i, out["error"].strip().splitlines()[-1]))
            elif out["exit_code"] != 0:
                failures.append((r, i, f"exit code {out['exit_code']}"))
            elif r and rep["digests"][i] != reps[0]["digests"][i]:
                failures.append((r, i, "bundle differs from the first repetition"))
    return failures


def measure(kl, workload: str, seed: int, seconds: float, trace: bool, size: str, work: Path) -> dict:
    """Repeat the workload for ``seconds``; check outputs; return the record."""
    texts = make_plans(workload, seed, size)
    raw = [json.loads(t) for t in texts]
    plans = [kl.harness.load_config(t) for t in texts]

    setups = []
    reps = []
    tracers = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        traced = trace and len(reps) % 2 == 1
        rep_dir = work / f"rep{len(reps)}"
        tracer = spans.Tracer() if traced else None
        with spans.traced(tracer, kl) if traced else nullcontext():
            rep = run_repetition(kl, texts, None if trace else plans, rep_dir, tracer, probed=not trace)
        rep["bundle_bytes"] = tree_bytes(rep_dir)
        rep["digests"] = [digests(o["dir"]) if o["dir"] else None for o in rep["outcomes"]]
        if reps:
            shutil.rmtree(rep_dir)
        reps.append(rep)
        if traced:
            tracers.append((tracer, rep["wall_s"]))
        if not trace and len(setups) < SETUP_RUNS[size]:
            setups.append(setup_seconds(texts))
        # Stop when another repetition as long as this one would end past
        # the time budget; a traced run needs one repetition of each kind.
        now = time.perf_counter()
        if now + (now - rep_start) > start + seconds and len(reps) >= (2 if trace else 1):
            break
    while not trace and len(setups) < SETUP_RUNS[size]:
        setups.append(setup_seconds(texts))
    rss = peak_rss_mb()

    failures = find_failures(raw, reps)
    attempted = len(texts) * len(reps)
    failed = len({(r, i) for r, i, _ in failures})

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "plan_shape": WORKLOADS[workload][0],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [{"repetition": r, "plan": i, "message": m} for r, i, m in failures],
        "repetitions": [
            {k: rep[k] for k in ("wall_s", "cpu_s", "wall_rel", "cpu_rel", "probe_s", "bundle_bytes", "traced") if k in rep}
            for rep in reps
        ],
    }
    if not trace:
        record["metrics"] = {
            "setup_s": min(setups),
            "wall_rel": statistics.median(rep["wall_rel"] for rep in reps),
            "cpu_rel": statistics.median(rep["cpu_rel"] for rep in reps),
            "peak_rss_mb": rss,
            "bundle_mb": statistics.median(rep["bundle_bytes"] for rep in reps) / 1e6,
        }
        # Plain seconds, printed for reading but not bounded: on a shared
        # host they follow the host's speed as much as the program's.
        record["seconds_unscaled"] = {
            "wall_s": statistics.median(rep["wall_s"] for rep in reps),
            "cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
            "probe_s": statistics.median(p for rep in reps for p in rep["probe_s"]),
        }
        record["setups_s"] = setups
        record["wall_rel_quartiles"] = quartiles([rep["wall_rel"] for rep in reps])
    else:
        record.update(per_layer(plans, reps, tracers))
    return record


def per_layer(plans, reps, tracers) -> dict:
    """Per-layer metrics as means over the traced repetitions, so that
    layer self times plus uncovered time add up to trace.wall_s."""
    summaries = [spans.summarize(t, wall) for t, wall in tracers]

    def mean(fn):
        return sum(fn(s) for s in summaries) / len(summaries)

    solves = [
        {
            "plan": s["plan"],
            "solver": s["solver"],
            "eps": s.get("eps"),
            "seconds": s["end"] - s["start"],
            "m_evals": s["m_evals"],
            "steps_est": s["m_evals"] / 6,
            "cap_steps": cap_steps(plans[s["plan"]], s["eps"]) if s["solver"] == "solve_hyperbolic" else 0.0,
        }
        for s in tracers[0][0].spans
        if s["name"] == "integrate.solve"
    ]
    untraced = [rep["wall_s"] for rep in reps if not rep["traced"]]
    traced = [wall for _, wall in tracers]
    m = {metric: mean(lambda s, k=name: s["total"].get(k, 0.0)) for name, metric in SPAN_SECONDS.items()}
    m.update(
        {
            "integrate.solve_calls": mean(lambda s: s["calls"].get("integrate.solve", 0)),
            "integrate.m_evals": mean(lambda s: s["solve_m_evals"]),
            "integrate.steps_est": mean(lambda s: s["solve_m_evals"]) / 6,
            "integrate.cap_steps": sum(s["cap_steps"] for s in solves),
            "energies.cells": mean(lambda s: s["cells"]),
            "harness.csv_bytes": mean(lambda s: s["csv_bytes"]),
            "harness.run_plan_self_s": mean(lambda s: s["run_plan_self_s"]),
            "model.m_evals": mean(lambda s: s["m_evals"]),
            "model.b_evals": mean(lambda s: s["b_evals"]),
            **{f"{layer}.self_s": mean(lambda s, k=layer: s["layer_self"][k]) for layer in spans.LAYERS},
            "trace.uncovered_s": mean(lambda s: s["uncovered_s"]),
            "trace.wall_s": sum(traced) / len(traced),
            "trace.overhead_s": sum(traced) / len(traced) - sum(untraced) / len(untraced),
        }
    )
    return {
        "metrics": {name: m[name] for name in PER_LAYER_UNITS},
        "solves": solves,
        "spans": [{"repetition": k, "spans": tracer.spans} for k, (tracer, _) in enumerate(tracers)],
    }


def emit(record: dict, units: dict) -> None:
    """Write the result (and span) files; print the metric lines and the
    final JSON line."""
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}"
    if record["size"] != "full":
        stem += f"-{record['size']}"
    spans_list = record.pop("spans", None)
    if spans_list is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans_list) + "\n")
    (OUT / f"results-{stem}-trace{record['trace']}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for f in record["failures"]:
        print(f"FAIL repetition {f['repetition']} plan {f['plan']}: {f['message']}")
    for s in record.get("solves", []):
        print(
            f"solve plan {s['plan']} {s['solver']} eps={s['eps']} "
            f"steps_est {s['steps_est']:.0f} cap_steps {s['cap_steps']:.0f}"
        )
    for name, value in record["metrics"].items():
        print(f"{record['workload']} {name} {value:.6g} {units[name]}")
    if not record["trace"]:
        print(f"{record['workload']} fail_ratio {record['fail_ratio']:.6g} ratio")
        for name, value in record["seconds_unscaled"].items():
            print(f"{record['workload']} {name} {value:.6g} s (unscaled, not bounded)")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in record["metrics"].items()},
            }
        )
    )


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size,
            ]
            code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny: smoke-test plan sizes")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    kl = import_kirchlab()
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        record = measure(kl, args.workload, args.seed, args.seconds, bool(args.trace), args.size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(record, PER_LAYER_UNITS if args.trace else END_TO_END_UNITS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
