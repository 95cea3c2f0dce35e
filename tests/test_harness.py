import json
import math

import pytest

import kirchlab.cli as cli
from kirchlab import ConfigurationError, load_config, plan_hash, run_plan
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
    "eps_list_nan": ("sweep", sweep_config([math.nan, 1e-2, 1e-3]), "eps_list"),
    # Values of the wrong type are named errors, not tracebacks.
    "eps_string": ("simulate", simulate_config(eps="abc"), "config.eps"),
    "eps_null": ("simulate", simulate_config(eps=None), "config.eps"),
    "u0_non_numeric": ("simulate", simulate_config(u0=["a", 1]), "u0"),
    "u0_nested": ("simulate", simulate_config(u0=[[1.0], [0.5]]), "u0 must be a flat list"),
    "jobs_string": ("simulate", simulate_config(jobs="x"), "config.jobs"),
    "gamma_string": ("simulate", simulate_config(m={"kind": "power", "gamma": "2"}), "m.gamma"),
    "eps_list_not_list": ("sweep", sweep_config(0.1), "config.eps_list"),
    "coercive_string": (
        "simulate", simulate_config(analysis={"coercive": "false"}), "analysis.coercive"
    ),
    # No silent coercion: fractional counts and a negative mu.
    "count_fractional": ("simulate", grid_config(count=2.7), "settings.grid.count"),
    "jobs_fractional": ("simulate", simulate_config(jobs=2.5), "config.jobs"),
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
    "window_infinite": (
        "verify", simulate_config(kind="verify", analysis={"window": [1.0, math.inf]}),
        "analysis.window",
    ),
    "window_negative": (
        "verify", simulate_config(kind="verify", analysis={"window": [-5.0, 10.0]}),
        "analysis.window",
    ),
    "tol_exponent_nan": (
        "verify", simulate_config(kind="verify", analysis={"tol_exponent": math.nan}),
        "analysis.tol_exponent",
    ),
    "tol_exponent_negative": (
        "verify", simulate_config(kind="verify", analysis={"tol_exponent": -0.1}),
        "analysis.tol_exponent",
    ),
    "slope_target_infinite": (
        "sweep", sweep_config([1e-2, 1e-3], analysis={"slope_target": -math.inf}),
        "analysis.slope_target",
    ),
    "slope_tol_nan": (
        "sweep", sweep_config([1e-2, 1e-3], analysis={"slope_tol": math.nan}),
        "analysis.slope_tol",
    ),
    "slope_tol_negative": (
        "sweep", sweep_config([1e-2, 1e-3], analysis={"slope_tol": -1}),
        "analysis.slope_tol",
    ),
    "ratio_bound_infinite": (
        "sweep", sweep_config([1e-2, 1e-3], analysis={"ratio_bound": math.inf}),
        "analysis.ratio_bound",
    ),
    "ratio_bound_zero": (
        "sweep", sweep_config([1e-2, 1e-3], analysis={"ratio_bound": 0}),
        "analysis.ratio_bound",
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
        cfg = {
            "kind": "sweep_eps",
            "spectrum": {"kind": "explicit", "values": [1.0, 4.0]},
            "m": {"kind": "power", "gamma": 1.0},
            "b": {"kind": "power", "p": 0.0},
            "eps_list": [3e-2, 1e-2],
            "u0": [0.4, 0.2],
            "u1": [0.0, 0.1],
            "settings": {"grid": {"kind": "log", "count": 101, "t_end": 1.0}},
        }
        plan = load_config(json.dumps(cfg))
        serial = run_plan(plan, tmp_path / "serial", jobs=1)
        parallel = run_plan(plan, tmp_path / "parallel", jobs=2)
        assert serial.manifest["files"] == parallel.manifest["files"]
        assert serial.manifest["solver_stats"] == parallel.manifest["solver_stats"]
        assert set(serial.manifest["solver_stats"]) == {"hyperbolic_0", "hyperbolic_1", "parabolic"}

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

    def test_corrector_plan(self, tmp_path):
        cfg = simulate_config(kind="corrector")
        bundle = run_plan(load_config(json.dumps(cfg)), tmp_path)
        header = (bundle.directory / "corrector.csv").read_text().splitlines()[0]
        assert header == "t,theta_1,theta_2,thetap_1,thetap_2"

    def test_hash_ignores_jobs(self):
        a = load_config(json.dumps(simulate_config()))
        b = load_config(json.dumps(simulate_config(jobs=4)))
        assert plan_hash(a) == plan_hash(b)

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
        command, cfg, _ = INVALID_PLANS[name]
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "runs"
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["grid", "--config", str(tmp_path / "nope.json")]) == 3

    def test_subcommand_kind_check(self, tmp_path, capsys):
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(simulate_config()))
        assert cli.main(["limit", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
