import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kirchlab.cli as cli
import kirchlab.harness as harness
import kirchlab.integrate as ig
from kirchlab import ConfigurationError, load_config, run_plan
from kirchlab.harness import ArtifactBundle


def simulate_config(**overrides):
    cfg = {
        "kind": "simulate",
        "spectrum": {"kind": "explicit", "values": [1.0, 4.0]},
        "m": {"kind": "power", "gamma": 1.0},
        "b": {"kind": "power", "p": 0.0},
        "eps": 0.05,
        "u0": [1.0, 0.5],
        "u1": [0.0, 0.0],
        "settings": {"grid": {"kind": "log", "count": 201, "t_end": 5.0}},
    }
    cfg.update(overrides)
    return cfg


def sweep_config(eps_list, **overrides):
    cfg = simulate_config(kind="sweep_eps", eps_list=eps_list, **overrides)
    del cfg["eps"]
    return cfg


def grid_config(**grid):
    return simulate_config(settings={"grid": {"kind": "log", "count": 201, "t_end": 5.0, **grid}})


SWEEP_PLAN = {
    "kind": "sweep_eps",
    "spectrum": {"kind": "explicit", "values": [1.0, 4.0]},
    "m": {"kind": "power", "gamma": 1.0},
    "b": {"kind": "power", "p": 0.0},
    "eps_list": [3e-2, 1e-2],
    "u0": [0.4, 0.2],
    "u1": [0.0, 0.1],
    "settings": {"grid": {"kind": "log", "count": 101, "t_end": 1.0}},
}

# Plans that are well formed JSON but carry data no solver can run:
# (CLI subcommand, plan, field the error must name). Each must fail in
# load_config, before solving.
INVALID_PLANS = {
    "nan_u0": ("simulate", simulate_config(u0=[math.nan, 0.5]), "u0"),
    "infinite_u1": ("simulate", simulate_config(u1=[math.inf, 0.0]), "u1"),
    "eps_zero": ("simulate", simulate_config(eps=0.0), "eps"),
    "eps_negative": ("simulate", simulate_config(eps=-1.0), "eps"),
    "corrector_eps_nan": ("corrector", simulate_config(kind="corrector", eps=math.nan), "eps"),
    "verify_eps_zero": ("verify", simulate_config(kind="verify", eps=0.0), "eps"),
    "verify_u1_without_eps": (
        "verify", {k: v for k, v in simulate_config(kind="verify").items() if k != "eps"},
        "config.eps and config.u1",
    ),
    "verify_eps_without_u1": (
        "verify", {k: v for k, v in simulate_config(kind="verify").items() if k != "u1"},
        "config.eps and config.u1",
    ),
    "eps_list_nan": ("sweep", sweep_config([math.nan, 1e-2, 1e-3]), "eps_list"),
    # Values of the wrong type are named errors, not tracebacks.
    "eps_string": ("simulate", simulate_config(eps="abc"), "config.eps"),
    "eps_null": ("simulate", simulate_config(eps=None), "config.eps"),
    "u0_non_numeric": ("simulate", simulate_config(u0=["a", 1]), "u0"),
    "u0_nested": ("simulate", simulate_config(u0=[[1.0], [0.5]]), "u0 must be a flat list"),
    "gamma_string": ("simulate", simulate_config(m={"kind": "power", "gamma": "2"}), "m.gamma"),
    "kind_not_a_string": ("simulate", {"kind": ["simulate"]}, "config.kind"),
    "eps_list_not_list": ("sweep", sweep_config(0.1), "config.eps_list"),
    "coercive_string": (
        "verify", simulate_config(kind="verify", analysis={"coercive": "false"}),
        "analysis.coercive",
    ),
    # No silent coercion: fractional counts and a negative mu.
    "count_fractional": ("simulate", grid_config(count=2.7), "settings.grid.count"),
    "mu_negative": (
        "simulate",
        simulate_config(m={"kind": "table", "points": [[0.0, 1.0]], "mu": -1}),
        "mu",
    ),
    # Regime lattices are built from every entry, so each must be finite.
    "grid_gammas_nan": (
        "grid", {"kind": "regime_grid", "grid_gammas": [math.nan], "grid_ps": [0.0]},
        "grid_gammas",
    ),
    "grid_ps_infinite": (
        "grid", {"kind": "regime_grid", "grid_gammas": [1.0], "grid_ps": [math.inf]},
        "grid_ps",
    ),
    # Below 100 machine epsilons scipy would run a looser tolerance.
    "rel_tol_below_floor": (
        "simulate",
        simulate_config(settings={"rel_tol": 1e-15, "grid": {"count": 201, "t_end": 5.0}}),
        "settings.rel_tol",
    ),
    # Analysis options: finite, and inside the range their use needs.
    "ks_nan": ("simulate", simulate_config(analysis={"ks": [math.nan]}), "analysis.ks"),
    # lambda^k of a kernel mode is inf at k < 0.
    "ks_negative": (
        "simulate",
        simulate_config(spectrum={"kind": "explicit", "values": [0.0, 1.0]}, analysis={"ks": [-1]}),
        "analysis.ks",
    ),
    "window_infinite": (
        "verify", simulate_config(kind="verify", analysis={"window": [1.0, math.inf]}),
        "analysis.window",
    ),
    "window_negative": (
        "verify", simulate_config(kind="verify", analysis={"window": [-5.0, 10.0]}),
        "analysis.window",
    ),
    # Keys a kind does not read are unknown keys, among them the removed
    # plan-level worker count and verification thresholds.
    "jobs_string": ("simulate", simulate_config(jobs="x"), "unknown key 'jobs'"),
    "jobs_fractional": ("simulate", simulate_config(jobs=2.5), "unknown key 'jobs'"),
    "tol_exponent_nan": (
        "verify", simulate_config(kind="verify", analysis={"tol_exponent": math.nan}),
        "unknown key 'tol_exponent' in analysis",
    ),
    "tol_exponent_negative": (
        "verify", simulate_config(kind="verify", analysis={"tol_exponent": -0.1}),
        "unknown key 'tol_exponent' in analysis",
    ),
    "slope_target_infinite": (
        "sweep", sweep_config([1e-2, 1e-3], analysis={"slope_target": -math.inf}),
        "unknown key 'analysis'",
    ),
    "slope_tol_nan": (
        "sweep", sweep_config([1e-2, 1e-3], analysis={"slope_tol": math.nan}),
        "unknown key 'analysis'",
    ),
    "slope_tol_negative": (
        "verify", simulate_config(kind="verify", analysis={"slope_tol": -1}),
        "unknown key 'slope_tol' in analysis",
    ),
    "ratio_bound_infinite": (
        "verify", simulate_config(kind="verify", analysis={"ratio_bound": math.inf}),
        "unknown key 'ratio_bound' in analysis",
    ),
    "ratio_bound_zero": (
        "sweep", sweep_config([1e-2, 1e-3], analysis={"ratio_bound": 0}),
        "unknown key 'analysis'",
    ),
    "grid_top_level_coercive": (
        "grid",
        {"kind": "regime_grid", "grid_gammas": [2.0], "grid_ps": [0.9], "coercive": True},
        "unknown key 'coercive' in config",
    ),
    "coercive_on_simulate": (
        "simulate", simulate_config(analysis={"coercive": True}),
        "unknown key 'coercive' in analysis",
    ),
    "window_on_simulate": (
        "simulate", simulate_config(analysis={"window": [1.0, 5.0]}),
        "unknown key 'window' in analysis",
    ),
    "analysis_on_corrector": (
        "corrector", simulate_config(kind="corrector", analysis={"ks": [0.0]}),
        "unknown key 'analysis'",
    ),
    "analysis_on_sweep": (
        "sweep", sweep_config([1e-2, 1e-3], analysis={}), "unknown key 'analysis'",
    ),
    "settings_on_grid": (
        "grid",
        {"kind": "regime_grid", "grid_gammas": [1.0], "grid_ps": [0.5], "settings": {}},
        "unknown key 'settings'",
    ),
}


class TestLoadConfig:
    def test_minimal_simulate(self):
        plan = load_config(json.dumps(simulate_config()))
        assert plan.kind == "simulate"
        assert plan.eps == 0.05
        assert plan.settings.rel_tol == 1e-10
        assert plan.spectrum.size == 2

    def test_sweep_valid(self):
        cfg = simulate_config(kind="sweep_eps", eps_list=[1e-2, 1e-3, 1e-4, 1e-5])
        del cfg["eps"]
        plan = load_config(json.dumps(cfg))
        assert plan.eps_list == (1e-2, 1e-3, 1e-4, 1e-5)

    def test_vector_length_mismatch_names_key(self):
        cfg = simulate_config(u0=[1.0, 2.0, 3.0])
        with pytest.raises(ConfigurationError, match="u0"):
            load_config(json.dumps(cfg))

    def test_unknown_key_named(self):
        cfg = simulate_config(bogus=1)
        with pytest.raises(ConfigurationError, match="bogus"):
            load_config(json.dumps(cfg))

    def test_nested_unknown_key(self):
        cfg = simulate_config()
        cfg["settings"]["wild"] = 1
        with pytest.raises(ConfigurationError, match="wild"):
            load_config(json.dumps(cfg))

    def test_kind_mismatch(self):
        with pytest.raises(ConfigurationError, match="expects"):
            load_config(json.dumps(simulate_config()), expected_kind="limit")

    def test_eps_list_must_decrease(self):
        cfg = simulate_config(kind="sweep_eps", eps_list=[1e-3, 1e-2])
        del cfg["eps"]
        with pytest.raises(ConfigurationError, match="decreasing"):
            load_config(json.dumps(cfg))

    @pytest.mark.parametrize("name", sorted(INVALID_PLANS))
    def test_invalid_data_rejected(self, name):
        _, cfg, field = INVALID_PLANS[name]
        with pytest.raises(ConfigurationError, match=field):
            load_config(json.dumps(cfg))

    def test_not_json(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            load_config("{nope")

    def test_default_grid_density(self):
        cfg = simulate_config()
        cfg["settings"] = {"grid": {"t_end": 99.0}}
        plan = load_config(json.dumps(cfg))
        # about 400 samples per decade of (1+t): two decades here
        assert plan.settings.grid.count == 801


class TestRunPlan:
    def test_simulate_bundle(self, tmp_path):
        plan = load_config(json.dumps(simulate_config()))
        bundle = run_plan(plan, tmp_path)
        assert bundle.exit_code == 0
        names = {p.name for p in bundle.directory.iterdir()}
        assert {"trajectory.csv", "energies.csv", "apriori.csv",
                "hamiltonian_floor.csv", "simulate_report.json",
                "simulate.svg", "manifest.json"} <= names

    def test_diagnostic_csv_headers(self, tmp_path):
        bundle = run_plan(load_config(json.dumps(simulate_config())), tmp_path)
        headers = {
            name: (bundle.directory / name).read_text().split("\n", 1)[0]
            for name in ("apriori.csv", "hamiltonian_floor.csv")
        }
        assert headers == {
            "apriori.csv": "t,lhs_basic,lhs_basic_plus,b",
            "hamiltonian_floor.csv": "t,H,floor,margin",
        }

    def test_manifest_lists_every_file(self, tmp_path):
        plan = load_config(json.dumps(simulate_config()))
        bundle = run_plan(plan, tmp_path)
        on_disk = {p.name for p in bundle.directory.iterdir()} - {"manifest.json"}
        assert set(bundle.manifest["files"]) == on_disk

    def test_determinism_across_reruns(self, tmp_path):
        plan = load_config(json.dumps(simulate_config()))
        b1 = run_plan(plan, tmp_path / "a")
        b2 = run_plan(plan, tmp_path / "b")
        assert b1.manifest["files"] == b2.manifest["files"]
        for name in b1.manifest["files"]:
            assert (b1.directory / name).read_bytes() == (b2.directory / name).read_bytes()

    @pytest.mark.parametrize("cfg", [simulate_config(), SWEEP_PLAN], ids=["simulate", "sweep"])
    def test_manifest_timings(self, tmp_path, cfg):
        plan = load_config(json.dumps(cfg))
        bundles = [run_plan(plan, tmp_path / side) for side in "ab"]
        for bundle in bundles:
            timings = bundle.manifest["timings"]
            assert set(timings) == {"solve", "diagnostics", "csv", "json_svg", "hashing"}
            assert all(v >= 0.0 for v in timings.values())
            assert timings["solve"] > 0.0 and timings["csv"] > 0.0
            assert sum(timings.values()) <= bundle.manifest["elapsed_seconds"]
            on_disk = json.loads((bundle.directory / "manifest.json").read_text())
            assert on_disk["timings"] == timings
        a, b = (bundle.directory for bundle in bundles)
        assert bundles[0].manifest["files"] == bundles[1].manifest["files"]
        for name in bundles[0].manifest["files"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_limit_plan(self, tmp_path):
        cfg = {
            "kind": "limit",
            "spectrum": {"kind": "power", "a": 1.0, "q": 2.0, "n": 3},
            "m": {"kind": "power", "gamma": 1.0},
            "b": {"kind": "power", "p": 0.5},
            "u0": [1.0, -0.5, 0.25],
            "settings": {"grid": {"kind": "log", "count": 201, "t_end": 50.0}},
        }
        bundle = run_plan(load_config(json.dumps(cfg)), tmp_path)
        assert bundle.exit_code == 0
        report = json.loads((bundle.directory / "limit_report.json").read_text())
        assert report["verdict"] == "pass"
        assert report["max_deviation"] <= 1e-6

    def test_solver_stats_in_manifest(self, tmp_path):
        bundle = run_plan(load_config(json.dumps(simulate_config())), tmp_path)
        manifest = json.loads((bundle.directory / "manifest.json").read_text())
        assert set(manifest["solver_stats"]) == set(manifest["solver_status"]) == {"hyperbolic"}
        stats = manifest["solver_stats"]["hyperbolic"]
        assert stats["method"] == "dp5"
        assert stats["jac_evals"] == stats["lu_decompositions"] == 0
        assert stats["accepted"] == stats["cap_limited"] + stats["error_limited"]
        assert stats["rhs_evals"] == 2 + 6 * (stats["accepted"] + stats["rejected"])
        # The CSV bytes depend on the float formatter's version.
        assert manifest["versions"]["orjson"] == orjson.__version__

    def test_verify_plan(self, tmp_path):
        cfg = {
            "kind": "verify",
            "spectrum": {"kind": "explicit", "values": [1.0]},
            "m": {"kind": "power", "gamma": 1.0},
            "b": {"kind": "power", "p": 0.0},
            "u0": [1.0],
            "settings": {"grid": {"kind": "log", "count": 1201, "t_end": 1e4}},
        }
        bundle = run_plan(load_config(json.dumps(cfg)), tmp_path)
        assert bundle.exit_code == 0
        report = json.loads((bundle.directory / "verify_report.json").read_text())
        assert report["worst"] == "pass"
        assert report["config"]["kind"] == "verify"

    def test_sweep_jobs_isolation(self, tmp_path):
        plan = load_config(json.dumps(SWEEP_PLAN))
        serial = run_plan(plan, tmp_path / "serial", jobs=1)
        parallel = run_plan(plan, tmp_path / "parallel", jobs=2)
        assert serial.manifest["files"] == parallel.manifest["files"]
        assert serial.manifest["solver_stats"] == parallel.manifest["solver_stats"]
        assert set(serial.manifest["solver_stats"]) == {"hyperbolic_0", "hyperbolic_1", "parabolic"}

    def test_sweep_stiff_members_share_one_run(self, tmp_path):
        # t_end 1, m0 = 0.32: eps 1e-1 is underdamped (DP5); B(1)/eps is
        # 8284 at eps 1e-4 (Radau), so every overdamped member shares its
        # run: eps 1e-2 (B/eps 83) and 3e-4 join it.
        cfg = {
            **SWEEP_PLAN,
            "b": {"kind": "power", "p": 0.5},
            "eps_list": [1e-1, 1e-2, 3e-4, 1e-4],
        }
        plan = load_config(json.dumps(cfg))
        serial = run_plan(plan, tmp_path / "serial", jobs=1)
        parallel = run_plan(plan, tmp_path / "parallel", jobs=2)
        assert serial.exit_code == 0
        assert serial.manifest["files"] == parallel.manifest["files"]
        stats = serial.manifest["solver_stats"]
        assert stats == parallel.manifest["solver_stats"]
        assert (stats["hyperbolic_0"]["method"], stats["hyperbolic_0"]["members"]) == ("dp5", 1)
        assert stats["hyperbolic_1"] == stats["hyperbolic_2"] == stats["hyperbolic_3"]
        assert (stats["hyperbolic_1"]["method"], stats["hyperbolic_1"]["members"]) == ("radau", 3)
        assert stats["parabolic"]["members"] == 1

    @pytest.mark.parametrize("jobs,pools", [(500, [2]), (2, [2]), (1, [])])
    def test_sweep_workers_capped_at_members(self, tmp_path, monkeypatch, jobs, pools):
        # The fork start method launches max_workers processes on the
        # first submit, so the pool must be no larger than the sweep.
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        run_plan(load_config(json.dumps(SWEEP_PLAN)), tmp_path, jobs=jobs)
        assert made == pools

    def test_regime_grid_plan(self, tmp_path):
        cfg = {
            "kind": "regime_grid",
            "grid_gammas": [1.0, 2.0],
            "grid_ps": [0.5, 1.5],
        }
        bundle = run_plan(load_config(json.dumps(cfg)), tmp_path)
        text = (bundle.directory / "regime_grid.csv").read_text().splitlines()
        assert text[0] == "gamma,p,tag,p_gamma"
        tags = {tuple(line.split(",")[:2]): line.split(",")[2] for line in text[1:]}
        assert tags[("1", "0.5")] == "parabolic"
        assert tags[("2", "1.5")] == "hyperbolic"
        # p_gamma cells in the CSV cell form: p_gamma(1) = 1, p_gamma(2) = 5/7.
        assert text[1:] == [
            "1,0.5,parabolic,1", "1,1.5,hyperbolic,1",
            f"2,0.5,parabolic,{5 / 7!r}", f"2,1.5,hyperbolic,{5 / 7!r}",
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_corrector_overflow_reported(self, tmp_path):
        # w0 = u1 + m A u0 / b0 overflows on b0 = 1e-310 while the
        # second-order members still complete.
        plan = load_config(json.dumps({**SWEEP_PLAN, "b": {"kind": "constant", "delta": 1e-310}}))
        bundle = run_plan(plan, tmp_path, jobs=1)
        statuses = bundle.manifest["solver_status"]
        assert statuses["hyperbolic_0"] == ig.COMPLETED
        assert statuses["corrector_0"] == statuses["corrector_1"] == ig.STEP_UNDERFLOW
        assert bundle.exit_code == 2

    @pytest.mark.parametrize("coercive,tag", [(True, "parabolic"), (False, "no_mans_land")])
    def test_regime_grid_reads_analysis_coercive(self, tmp_path, coercive, tag):
        cfg = {
            "kind": "regime_grid",
            "grid_gammas": [2.0],
            "grid_ps": [0.9],
            "analysis": {"coercive": coercive},
        }
        bundle = run_plan(load_config(json.dumps(cfg)), tmp_path)
        report = json.loads((bundle.directory / "grid_report.json").read_text())
        assert report["cells"] == [{"gamma": 2.0, "p": 0.9, "tag": tag}]

    def test_corrector_plan(self, tmp_path):
        cfg = simulate_config(kind="corrector")
        bundle = run_plan(load_config(json.dumps(cfg)), tmp_path)
        header = (bundle.directory / "corrector.csv").read_text().splitlines()[0]
        assert header == "t,theta_1,theta_2,thetap_1,thetap_2"

    def test_solver_failure_exit_code(self, tmp_path):
        cfg = simulate_config(eps=1.0)
        cfg["settings"]["blowup_threshold"] = 1.0  # below the initial state norm
        bundle = run_plan(load_config(json.dumps(cfg)), tmp_path)
        assert bundle.exit_code == 2
        assert bundle.manifest["solver_status"]["hyperbolic"] == "blew_up"

    def test_exit_code_priority(self):
        bundle = ArtifactBundle(None, {
            "solver_status": {"a": "completed"},
            "verdicts": {"x": "pass", "y": "fail"},
        })
        assert bundle.exit_code == 1

    def test_energy_sentinels_render_empty(self, tmp_path):
        # A run that drives sigma to (numerical) zero leaves undefined
        # quotient channels, which the CSV stores as empty fields.
        cfg = {
            "kind": "verify",
            "spectrum": {"kind": "explicit", "values": [1.0]},
            "m": {"kind": "table", "points": [[0.0, 1.0]], "mu": 1.0},
            "b": {"kind": "power", "p": 0.0},
            "u0": [1e-160],
            "settings": {"grid": {"kind": "log", "count": 401, "t_end": 400.0}},
        }
        bundle = run_plan(load_config(json.dumps(cfg)), tmp_path)
        body = (bundle.directory / "energies.csv").read_text()
        assert ",," in body or body.rstrip().endswith(",")

    def test_verify_hyperbolic_run(self, tmp_path):
        cfg = {
            "kind": "verify",
            "spectrum": {"kind": "explicit", "values": [1.0]},
            "m": {"kind": "table", "points": [[0.0, 1.0]], "mu": 1.0},
            "b": {"kind": "power", "p": 0.5},
            "eps": 1e-2,
            "u0": [1.0],
            "u1": [0.0],
            "analysis": {"coercive": False},
            "settings": {"grid": {"kind": "log", "count": 801, "t_end": 50.0}},
        }
        bundle = run_plan(load_config(json.dumps(cfg)), tmp_path)
        report = json.loads((bundle.directory / "verify_report.json").read_text())
        kinds = {e["kind"] for e in report["entries"]}
        assert "integral_upper" in kinds
        assert report["worst"] == "pass"
        assert bundle.exit_code == 0

    def test_trajectory_csv_roundtrips_doubles_exactly(self, tmp_path):
        import numpy as np

        import kirchlab as kl

        plan = load_config(json.dumps(simulate_config()))
        bundle = run_plan(plan, tmp_path)
        traj = kl.solve_hyperbolic(
            plan.spectrum, plan.nl, plan.dis, plan.eps, plan.u0, plan.u1, plan.settings
        )
        data = np.genfromtxt(bundle.directory / "trajectory.csv", delimiter=",", names=True)
        np.testing.assert_array_equal(data["t"], traj.times)
        np.testing.assert_array_equal(data["u_1"], traj.u[:, 0])
        np.testing.assert_array_equal(data["up_2"], traj.uprime[:, 1])


def _significant_digits(cell: str) -> int:
    return len(cell.lower().split("e")[0].lstrip("-").replace(".", "").strip("0"))


def _assert_cells_exact(path, table):
    """The CSV at path holds table in the cell contract."""
    lines = path.read_text().split("\n")
    assert lines[-1] == "" and len(lines) == len(table) + 2
    for line, row in zip(lines[1:-1], table):
        cells = line.split(",")
        assert len(cells) == len(row)
        for cell, x in zip(cells, row.tolist()):
            if math.isnan(x):
                assert cell == ""
            elif math.isinf(x):
                assert cell == ("inf" if x > 0 else "-inf")
            else:
                assert np.float64(cell).view(np.uint64) == np.float64(x).view(np.uint64), cell
                assert _significant_digits(cell) <= _significant_digits(repr(x)), cell
                assert not cell.endswith(".0")


def _write_table(path, table):
    # A 1-D first column next to a 2-D block, as the trajectory writers pass them.
    columns = [table[:, 0]] + ([table[:, 1:]] if table.shape[1] > 1 else [])
    harness._write_rows(path, [f"c{j}" for j in range(table.shape[1])], columns)


class TestCsvCells:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 4)),
                      elements=st.floats(width=64)))
    def test_round_trip_across_blocks(self, table):
        # Blocks of 6 cells: every table of more than 6 cells crosses a boundary.
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(harness, "_BLOCK_CELLS", 6):
            path = Path(tmp) / "t.csv"
            _write_table(path, table)
            _assert_cells_exact(path, table)

    def test_random_bit_patterns_full_blocks(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = 2 * (harness._BLOCK_CELLS // 3) + 5  # three blocks of 3 columns
        table = rng.integers(0, 2**64, (rows, 3), dtype=np.uint64).view(np.float64).copy()
        table[::97, 1] = np.nan
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 1.0, 100.0, 1e16]
        table[:len(special), 2] = special
        table[-1, 0], table[-3, 2] = np.inf, -np.inf  # infs in the last block only
        path = tmp_path / "t.csv"
        _write_table(path, table)
        _assert_cells_exact(path, table)

    def test_pinned_row(self, tmp_path):
        path = tmp_path / "t.csv"
        row = [0.0, -0.0, 1.0, 0.1, 1e-7, 5e-324, np.inf, -np.inf, np.nan]
        _write_table(path, np.array([row]))
        assert path.read_text() == (
            "c0,c1,c2,c3,c4,c5,c6,c7,c8\n0,-0,1,0.1,1e-7,5e-324,inf,-inf,\n"
        )

    def test_import_does_not_load_orjson(self):
        # orjson is imported by the CSV writer, not by ``import kirchlab``.
        import kirchlab

        src = str(Path(kirchlab.__file__).parents[1])
        code = "import sys, kirchlab; print('orjson' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"


class TestCli:
    def test_simulate_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(simulate_config()))
        code = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "runs")])
        assert code == 0
        out = capsys.readouterr().out
        assert "hyperbolic: completed" in out
        assert "bundle:" in out

    def test_config_error_exit_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(simulate_config(bogus=1)))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(INVALID_PLANS))
    def test_invalid_data_exit_3_without_bundle(self, tmp_path, capsys, name):
        command, cfg, field = INVALID_PLANS[name]
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "runs"
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err
        assert re.search(field, err)
        assert not out.exists()

    def test_config_error_while_running_exit_3_without_bundle(
        self, tmp_path, capsys, monkeypatch
    ):
        def runner(plan, outdir, jobs, stage):
            (outdir / "trajectory.csv").write_text("t\n")
            raise ConfigurationError("data rejected mid-run")

        entry = dataclasses.replace(harness.PLAN_KINDS["simulate"], runner=runner)
        monkeypatch.setitem(harness.PLAN_KINDS, "simulate", entry)
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(simulate_config()))
        out = tmp_path / "runs"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "config error: data rejected mid-run" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate"],
            ["nope", "--config", "plan.json"],
            ["grid", "--config", "plan.json", "--jobs", "abc"],
            ["grid", "--config", "plan.json", "--jobs", "0"],
            ["sweep", "--config", "plan.json", "--jobs", "-3"],
        ],
    )
    def test_usage_error_exit_3(self, argv, capsys):
        assert cli.main(argv) == 3
        assert "usage:" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        assert all(entry.subcommand in out for entry in harness.PLAN_KINDS.values())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_corrector_overflow_reported(self, tmp_path, capsys):
        # m(sigma0) = 2^1e6 overflows, so w0 = u1 + m A u0 / b0 is not finite.
        cfg = simulate_config(
            kind="corrector",
            spectrum={"kind": "explicit", "values": [0.0, 2.0]},
            m={"kind": "power", "gamma": 1e6},
            eps=0.1, u0=[0.0, 1.0], u1=[0.0, 1.0],
        )
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["corrector", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]
        assert cli.main(argv) == 2
        assert "corrector: step_underflow" in capsys.readouterr().out
        (bundle,) = (tmp_path / "runs").iterdir()
        rows = (bundle / "corrector.csv").read_text().splitlines()
        assert rows == ["t,theta_1,theta_2,thetap_1,thetap_2"]

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["grid", "--config", str(tmp_path / "nope.json")]) == 3

    def test_subcommand_kind_check(self, tmp_path, capsys):
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(simulate_config()))
        assert cli.main(["limit", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
