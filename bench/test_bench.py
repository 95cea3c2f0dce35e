"""Smoke test of the benchmark at tiny plan sizes (a few seconds each).

    python3 -m pytest bench/test_bench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import make_plans, why  # noqa: E402

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_records_each_workload_shape():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w: why(w) for w in WORKLOADS}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == named
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    for name in named:
        assert f"{workload} {name} " in done.stdout


# One CSV value to change per workload: (plan, file, column, row).
CORRUPTIONS = {
    "hyperbolic-decay": (0, "trajectory.csv", "u_1", 20),
    "eps-sweep": (0, "corrector_1.csv", "thetap_2", 3),
    "wide-spectrum": (0, "parabolic_direct.csv", "u_1", 40),
}


def _change_value(path: Path, column: str, row: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index(column)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * 1.001 + 1e-9)
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_bundle_raises_fail_ratio(workload, tmp_path):
    kl = run.import_kirchlab()
    texts = make_plans(workload, 3, "tiny")
    raw = [json.loads(t) for t in texts]
    reps = [run.run_repetition(kl, texts, None, tmp_path, None)]
    assert run.find_failures(raw, reps) == []

    plan, name, column, row = CORRUPTIONS[workload]
    _change_value(reps[0]["outcomes"][plan]["dir"] / name, column, row)
    failures = run.find_failures(raw, reps)
    failed = len({(r, i) for r, i, _ in failures})
    assert failed / len(texts) > 0, failures
