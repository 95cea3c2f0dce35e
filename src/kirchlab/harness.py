"""Experiment orchestration: configuration ingestion, plan execution,
flat-file persistence, and plot emission.

A plan is a validated JSON document. Executing it writes one directory
named by the hash of the configuration, containing CSV payloads, JSON
reports, SVG charts, and a manifest listing every emitted file with its
content hash. Reruns of the same plan are byte-identical except for the
manifest timestamp; CSV files are the reproducibility contract.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
import sys
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import analysis as ana
from . import energies as en
from . import integrate as ig
from . import svgplot
from .model import (
    Dissipation,
    Nonlinearity,
    PowerLawDissipation,
    PowerNonlinearity,
    classify_regime,
    dissipation_from_config,
    nonlinearity_from_config,
    p_gamma,
)
from .spectral import (
    ConfigurationError,
    Spectrum,
    _as_flag,
    _as_integer,
    _as_list,
    _as_number,
    _as_numbers,
    _reject_unknown,
    as_modal,
    coercivity,
    spectrum_from_config,
)

__all__ = [
    "AnalysisOptions",
    "ExperimentPlan",
    "ArtifactBundle",
    "PlanKind",
    "load_config",
    "run_plan",
    "plan_hash",
    "PLAN_KINDS",
]


@dataclass(frozen=True)
class AnalysisOptions:
    """Energy orders, fit window and coercivity flag read by the runners."""

    ks: tuple = (0.0, 1.0)
    window: tuple | None = None
    coercive: bool | None = None


@dataclass(frozen=True)
class ExperimentPlan:
    kind: str
    raw: dict
    spectrum: Spectrum | None = None
    nl: Nonlinearity | None = None
    dis: Dissipation | None = None
    eps: float | None = None
    eps_list: tuple | None = None
    u0: np.ndarray | None = None
    u1: np.ndarray | None = None
    settings: ig.IntegratorSettings = field(default_factory=ig.IntegratorSettings)
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    grid_gammas: tuple | None = None
    grid_ps: tuple | None = None

    def coercive_flag(self) -> bool:
        if self.analysis.coercive is not None:
            return self.analysis.coercive
        return self.spectrum is not None and coercivity(self.spectrum) > 0.0


@dataclass(frozen=True)
class PlanKind:
    """A plan kind: its subcommand, the top-level keys besides ``kind``
    and the analysis keys it reads, and ``runner(plan, outdir, jobs)``,
    which writes the payload files and returns (verdicts, trajectories,
    summary); ``jobs`` bounds the worker processes of a sweep."""

    subcommand: str
    help: str
    runner: Callable
    required: frozenset
    optional: frozenset = frozenset()
    analysis: frozenset = frozenset()


@dataclass
class ArtifactBundle:
    directory: Path
    manifest: dict

    @property
    def exit_code(self) -> int:
        statuses = self.manifest.get("solver_status", {})
        if any(s != ig.COMPLETED for s in statuses.values()):
            return 2
        verdicts = self.manifest.get("verdicts", {})
        if any(v == "fail" for v in verdicts.values()):
            return 1
        return 0


def _parse_eps(value, context: str) -> float:
    eps = _as_number(value, context)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ConfigurationError(f"{context} must be finite and positive")
    return eps


def _parse_grid(cfg: dict) -> ig.OutputGrid:
    _reject_unknown(cfg, {"kind", "count", "t_end"}, "settings.grid")
    if "t_end" not in cfg:
        raise ConfigurationError("settings.grid.t_end is required")
    t_end = _as_number(cfg["t_end"], "settings.grid.t_end")
    kind = cfg.get("kind", "log")
    if "count" in cfg:
        count = _as_integer(cfg["count"], "settings.grid.count")
    else:
        # Default density: about 400 samples per decade of (1+t).
        count = max(2, int(round(400.0 * math.log10(1.0 + t_end))) + 1)
    return ig.OutputGrid(kind=kind, count=count, t_end=t_end)


def _parse_settings(cfg: dict) -> ig.IntegratorSettings:
    _reject_unknown(
        cfg,
        {"rel_tol", "abs_tol", "max_step_factor", "blowup_threshold", "grid"},
        "settings",
    )
    kwargs = {}
    for key in ("rel_tol", "abs_tol", "max_step_factor", "blowup_threshold"):
        if key in cfg:
            kwargs[key] = _as_number(cfg[key], f"settings.{key}")
    if "grid" in cfg:
        kwargs["grid"] = _parse_grid(cfg["grid"])
    return ig.IntegratorSettings(**kwargs)


def _parse_analysis(cfg: dict, allowed: frozenset) -> AnalysisOptions:
    _reject_unknown(cfg, allowed, "analysis")
    kwargs = {}
    if "ks" in cfg:
        kwargs["ks"] = _as_numbers(cfg["ks"], "analysis.ks")
    if "window" in cfg:
        kwargs["window"] = _as_numbers(cfg["window"], "analysis.window", 2)
    for key, value in kwargs.items():
        if not np.all(np.isfinite(value)):
            raise ConfigurationError(f"analysis.{key} must be finite")
    if any(k < 0.0 for k in kwargs.get("ks", ())):
        raise ConfigurationError("analysis.ks must be nonnegative")
    if "window" in kwargs:
        lo, hi = kwargs["window"]
        if lo < 0.0:
            raise ConfigurationError("analysis.window must be nonnegative")
        if not lo < hi:
            raise ConfigurationError("analysis.window must satisfy lo < hi")
    if "coercive" in cfg:
        kwargs["coercive"] = _as_flag(cfg["coercive"], "analysis.coercive")
    return AnalysisOptions(**kwargs)


def load_config(text: str, expected_kind: str | None = None) -> ExperimentPlan:
    """Parse and fully validate a JSON plan document.

    Each kind accepts the keys its ``PLAN_KINDS`` entry names; defaults
    are filled, any other key is rejected by name, and vector lengths
    are checked against the spectrum.
    """
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")

    kind = cfg.get("kind", expected_kind)
    if not isinstance(kind, str) or kind not in PLAN_KINDS:
        raise ConfigurationError(f"config.kind must be one of {tuple(PLAN_KINDS)}, got {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise ConfigurationError(
            f"config.kind is {kind!r} but the subcommand expects {expected_kind!r}"
        )
    entry = PLAN_KINDS[kind]
    _reject_unknown(cfg, entry.required | entry.optional | {"kind"}, "config")
    missing = sorted(entry.required - set(cfg))
    if missing:
        raise ConfigurationError(f"config.{missing[0]} is required")

    settings = _parse_settings(cfg.get("settings", {}))
    options = _parse_analysis(cfg.get("analysis", {}), entry.analysis)
    plan_kwargs = dict(kind=kind, raw=cfg, settings=settings, analysis=options)

    if kind == "regime_grid":
        gammas = _as_numbers(cfg["grid_gammas"], "config.grid_gammas")
        ps = _as_numbers(cfg["grid_ps"], "config.grid_ps")
        if not gammas or not ps:
            raise ConfigurationError("grid_gammas and grid_ps must be nonempty")
        if not all(math.isfinite(g) and g > 0.0 for g in gammas):
            raise ConfigurationError("grid_gammas must be finite and positive")
        if not all(math.isfinite(p) and p >= 0.0 for p in ps):
            raise ConfigurationError("grid_ps must be finite and nonnegative")
        return ExperimentPlan(grid_gammas=gammas, grid_ps=ps, **plan_kwargs)

    spec = spectrum_from_config(cfg["spectrum"])
    nl = nonlinearity_from_config(cfg["m"])
    dis = dissipation_from_config(cfg["b"])
    u0 = as_modal(spec, cfg["u0"], "u0")
    u1 = as_modal(spec, cfg["u1"], "u1") if "u1" in cfg else None
    eps = _parse_eps(cfg["eps"], "config.eps") if "eps" in cfg else None
    if kind == "verify" and ("eps" in cfg) != ("u1" in cfg):
        raise ConfigurationError("config.eps and config.u1 go together in a verify plan")

    eps_list = None
    if "eps_list" in cfg:
        eps_list = tuple(
            _parse_eps(e, f"config.eps_list[{i}]")
            for i, e in enumerate(_as_list(cfg["eps_list"], "config.eps_list"))
        )
        if len(eps_list) < 2:
            raise ConfigurationError("eps_list needs at least two values")
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ConfigurationError("eps_list must be strictly decreasing")

    return ExperimentPlan(
        spectrum=spec, nl=nl, dis=dis, eps=eps, eps_list=eps_list, u0=u0, u1=u1,
        **plan_kwargs,
    )


# ----------------------------------------------------------------------
# Serialization helpers (CSV contract: 17 significant digits, NaN -> "")

def _cell(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return format(float(x), ".17g")


def _write_rows(path: Path, header: list, columns: list) -> None:
    # One template per table; "%.17g" formats a float exactly as _cell
    # does, so only rows with a NaN need _cell's empty cells. Rows are
    # converted one at a time: a whole-table list costs far more memory
    # than the array.
    table = np.column_stack(columns).astype(float, copy=False)
    template = ",".join(["%.17g"] * table.shape[1]) + "\n"
    has_nan = np.isnan(table).any(axis=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row, nan in zip(table, has_nan.tolist()):
            values = row.tolist()
            if nan:
                fh.write(",".join(_cell(x) for x in values) + "\n")
            else:
                fh.write(template % tuple(values))


def write_trajectory_csv(path: Path, traj: ig.Trajectory) -> None:
    k = range(1, traj.spectrum.size + 1)
    header = ["t"] + [f"u_{i}" for i in k] + [f"up_{i}" for i in k]
    cols = [traj.times, traj.u, traj.uprime]
    if traj.alpha is not None:
        header.append("alpha")
        cols.append(traj.alpha)
    _write_rows(path, header, cols)


def write_series_csv(path: Path, series) -> None:
    """One column per channel of an energy or error series, after ``t``."""
    names = list(series.channels)
    _write_rows(path, ["t"] + names, [series.times] + [series.channels[k] for k in names])


def write_corrector_csv(path: Path, corr: ig.CorrectorTrajectory) -> None:
    k = range(1, corr.theta.shape[1] + 1)
    header = ["t"] + [f"theta_{i}" for i in k] + [f"thetap_{i}" for i in k]
    _write_rows(path, header, [corr.times, corr.theta, corr.theta_prime])


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def plan_hash(plan: ExperimentPlan) -> str:
    """Hash of the canonical configuration."""
    blob = json.dumps(plan.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------------------
# Plan runners

def _run_simulate(plan: ExperimentPlan, outdir: Path, jobs: int) -> tuple:
    traj = ig.solve_hyperbolic(
        plan.spectrum, plan.nl, plan.dis, plan.eps, plan.u0, plan.u1, plan.settings
    )
    series = en.energy_suite(traj, plan.spectrum, plan.nl, plan.eps, plan.analysis.ks)
    margins = en.apriori_margin(traj, plan.spectrum, plan.nl, plan.dis, plan.eps)
    floor = ana.hamiltonian_floor(series, plan.dis, plan.eps)

    write_trajectory_csv(outdir / "trajectory.csv", traj)
    write_series_csv(outdir / "energies.csv", series)
    write_series_csv(outdir / "apriori.csv", margins)
    write_series_csv(outdir / "hamiltonian_floor.csv", floor)

    H = floor["H"]
    slack = 10.0 * plan.settings.rel_tol
    monotone = bool(np.all(H[1:] <= H[:-1] * (1.0 + slack)))
    residual = (
        ig.residual_norm(traj, plan.spectrum, plan.nl, plan.dis, plan.eps)
        if traj.times.size >= 3
        else None
    )
    report = {
        "status": traj.status,
        "t_stop": traj.t_stop,
        "H0": float(H[0]),
        "hamiltonian_monotone": monotone,
        "hamiltonian_slack": slack,
        "floor_min_margin": float(np.min(floor["margin"])),
        "apriori_satisfied": en.apriori_satisfied(margins, plan.eps),
        "residual": residual,
    }
    _write_json(outdir / "simulate_report.json", report)

    chart = svgplot.LineChart(
        title="state norms", xlabel="1+t", ylabel="value", logx=True, logy=True
    )
    if "E_1" in series:
        chart.add_line(1.0 + traj.times, series["E_1"], "|A^1/2 u|^2")
    chart.add_line(1.0 + traj.times, series["v"], "|u'|^2")
    chart.add_line(1.0 + floor.times, H, "H")
    chart.write(outdir / "simulate.svg")

    verdicts = {"hamiltonian_monotone": "pass" if monotone else "fail"}
    return verdicts, {"hyperbolic": traj}, report


def _run_limit(plan: ExperimentPlan, outdir: Path, jobs: int) -> tuple:
    t_r = ig.solve_parabolic_reparam(plan.spectrum, plan.nl, plan.dis, plan.u0, plan.settings)
    t_d = ig.solve_parabolic_direct(plan.spectrum, plan.nl, plan.dis, plan.u0, plan.settings)
    write_trajectory_csv(outdir / "parabolic_reparam.csv", t_r)
    write_trajectory_csv(outdir / "parabolic_direct.csv", t_d)
    series = en.energy_suite(t_r, plan.spectrum, plan.nl, 0.0, plan.analysis.ks)
    write_series_csv(outdir / "energies.csv", series)

    scale = math.sqrt(float(plan.u0 @ plan.u0))
    shared = min(t_r.times.size, t_d.times.size)
    dev = float(np.max(np.abs(t_r.u[:shared] - t_d.u[:shared]))) / max(scale, 1e-300)
    tol = 1e-6
    ok = dev <= tol and t_r.status == ig.COMPLETED and t_d.status == ig.COMPLETED
    report = {
        "max_deviation": dev,
        "tolerance": tol,
        "verdict": "pass" if ok else "fail",
        "status_reparam": t_r.status,
        "status_direct": t_d.status,
    }
    _write_json(outdir / "limit_report.json", report)

    chart = svgplot.LineChart(
        title="first-order limit", xlabel="1+t", ylabel="E_1", logx=True, logy=True
    )
    if "E_1" in series:
        chart.add_line(1.0 + t_r.times, series["E_1"], "reparametrized")
    chart.write(outdir / "limit.svg")
    return {"oracle_equivalence": report["verdict"]}, {"reparam": t_r, "direct": t_d}, report


def _run_corrector(plan: ExperimentPlan, outdir: Path, jobs: int) -> tuple:
    corr = ig.corrector(
        plan.spectrum, plan.nl, plan.dis, plan.eps, plan.u0, plan.u1,
        plan.settings.grid.times(),
    )
    write_corrector_csv(outdir / "corrector.csv", corr)
    chart = svgplot.LineChart(
        title="corrector", xlabel="t", ylabel="|theta'|", logy=True
    )
    norm = np.sqrt(np.sum(corr.theta_prime**2, axis=1))
    chart.add_line(corr.times, norm, "|theta'|")
    chart.write(outdir / "corrector.svg")
    return {}, {"corrector": corr}, {"t_end": float(corr.times[-1]) if corr.times.size else None}


def _sweep_member(args):
    spec, nl, dis, eps, u0, u1, settings = args
    traj = ig.solve_hyperbolic(spec, nl, dis, eps, u0, u1, settings)
    corr = ig.corrector(spec, nl, dis, eps, u0, u1, settings.grid.times())
    return traj, corr


def _run_sweep(plan: ExperimentPlan, outdir: Path, jobs: int) -> tuple:
    par = ig.solve_parabolic_reparam(
        plan.spectrum, plan.nl, plan.dis, plan.u0, plan.settings
    )
    write_trajectory_csv(outdir / "parabolic.csv", par)

    member_args = [
        (plan.spectrum, plan.nl, plan.dis, eps, plan.u0, plan.u1, plan.settings)
        for eps in plan.eps_list
    ]
    # The fork start method launches every worker on the first submit.
    workers = min(jobs, len(member_args))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            members = list(pool.map(_sweep_member, member_args))
    else:
        members = [_sweep_member(a) for a in member_args]

    trajectories = {}
    sup_rho, sup_rp, sup_w = [], [], []
    per_eps = []
    for i, (eps, (traj, corr)) in enumerate(zip(plan.eps_list, members)):
        trajectories[f"hyperbolic_{i}"] = traj
        write_trajectory_csv(outdir / f"hyperbolic_{i}.csv", traj)
        write_corrector_csv(outdir / f"corrector_{i}.csv", corr)
        if corr.status != ig.COMPLETED:
            trajectories[f"corrector_{i}"] = corr
        if traj.status != ig.COMPLETED or corr.status != ig.COMPLETED:
            continue
        errors = ana.perturbation_errors(traj, par, corr, plan.dis)
        write_series_csv(outdir / f"errors_{i}.csv", errors)
        sup_rho.append(errors.sup("rho_sq"))
        sup_rp.append(errors.sup("r_prime_sq"))
        sup_w.append(errors.sup("half_rho_sq_weighted"))
        per_eps.append(
            {
                "eps": eps,
                "sup_rho_sq": sup_rho[-1],
                "sup_r_prime_sq": sup_rp[-1],
                "sup_half_rho_sq_weighted": sup_w[-1],
            }
        )
    trajectories["parabolic"] = par

    verdicts = {}
    report = {"eps_list": list(plan.eps_list), "per_eps": per_eps}
    complete = len(per_eps) == len(plan.eps_list)
    if complete:
        eps_arr = np.array(plan.eps_list)
        # Order fits need 4+ values over 2+ decades; shorter sweeps
        # still report sups and the weighted ratio.
        fittable = eps_arr.size >= 4 and eps_arr.max() / eps_arr.min() >= 100.0 * (1 - 1e-12)
        fit_rho = ana.fit_eps_order(eps_arr, sup_rho) if fittable else None
        fit_rp = ana.fit_eps_order(eps_arr, sup_rp) if fittable else None
        ratios = np.array(sup_w) / eps_arr**2
        ratio = float(ratios.max() / ratios.min()) if np.all(ratios > 0.0) else math.inf
        for name, fit in (("rho_sq", fit_rho), ("r_prime_sq", fit_rp)):
            if fit is None:
                verdicts[f"slope_{name}"] = "skipped"
                report[f"slope_{name}"] = None
            else:
                ok = abs(fit.exponent - ana.SLOPE_TARGET) <= ana.SLOPE_TOL
                verdicts[f"slope_{name}"] = "pass" if ok else "fail"
                report[f"slope_{name}"] = fit.exponent
        verdicts["weighted_ratio"] = "pass" if ratio <= ana.RATIO_BOUND else "fail"
        report["weighted_sup_over_eps_sq_ratio"] = ratio
        report["slope_target"] = ana.SLOPE_TARGET
        report["slope_tol"] = ana.SLOPE_TOL
        report["ratio_bound"] = ana.RATIO_BOUND

        chart = svgplot.LineChart(
            title="perturbation sweep", xlabel="eps", ylabel="sup of squared norm",
            logx=True, logy=True,
        )
        chart.add_line(eps_arr, sup_rho, "sup |rho|^2")
        chart.add_line(eps_arr, sup_rp, "sup |r'|^2")
        chart.write(outdir / "sweep.svg")
    _write_json(outdir / "sweep_report.json", report)
    return verdicts, trajectories, report


def _run_grid(plan: ExperimentPlan, outdir: Path, jobs: int) -> tuple:
    rows = []
    for g in plan.grid_gammas:
        for p in plan.grid_ps:
            nl = PowerNonlinearity(g)
            regime = classify_regime(nl, PowerLawDissipation(p), plan.coercive_flag())
            rows.append((g, p, regime.tag, regime.threshold))
    with open(outdir / "regime_grid.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("gamma,p,tag,p_gamma\n")
        for g, p, tag, thr in rows:
            fh.write(f"{_cell(g)},{_cell(p)},{tag},{_cell(thr)}\n")

    chart = svgplot.LineChart(title="regime map", xlabel="gamma", ylabel="p")
    g_lo, g_hi = min(plan.grid_gammas), max(plan.grid_gammas)
    curve_g = np.linspace(g_lo, g_hi, 200)
    chart.add_line(curve_g, [p_gamma(g) for g in curve_g], "threshold")
    chart.add_line([g_lo, g_hi], [1.0, 1.0], "p = 1")
    colors = {
        "parabolic": "#2ca02c",
        "no_mans_land": "#ff7f0e",
        "hyperbolic": "#d62728",
        "no_theory": "#7f7f7f",
    }
    for tag, color in colors.items():
        pts = [(g, p) for g, p, t, _ in rows if t == tag]
        if pts:
            chart.add_points([g for g, _ in pts], [p for _, p in pts], tag, color)
    chart.write(outdir / "regime_grid.svg")
    report = {"cells": [{"gamma": g, "p": p, "tag": t} for g, p, t, _ in rows]}
    _write_json(outdir / "grid_report.json", report)
    return {}, {}, report


def _run_verify(plan: ExperimentPlan, outdir: Path, jobs: int) -> tuple:
    coercive = plan.coercive_flag()
    ks = tuple(sorted(set(plan.analysis.ks) | {1.0, 2.0}))
    if plan.eps is not None:
        traj = ig.solve_hyperbolic(
            plan.spectrum, plan.nl, plan.dis, plan.eps, plan.u0, plan.u1, plan.settings
        )
        series = en.energy_suite(traj, plan.spectrum, plan.nl, plan.eps, ks)
        bounds = ana.predicted_bounds(plan.nl, plan.dis, coercive, hyperbolic_run=True)
        status_key = "hyperbolic"
    else:
        traj = ig.solve_parabolic_reparam(
            plan.spectrum, plan.nl, plan.dis, plan.u0, plan.settings
        )
        series = en.energy_suite(traj, plan.spectrum, plan.nl, 0.0, ks)
        bounds = ana.predicted_bounds(plan.nl, plan.dis, coercive, hyperbolic_run=False)
        status_key = "parabolic"

    report = ana.verify_bounds(series, bounds, plan.analysis.window)
    write_trajectory_csv(outdir / "trajectory.csv", traj)
    write_series_csv(outdir / "energies.csv", series)
    payload = {"config": plan.raw, **report.to_dict()}
    _write_json(outdir / "verify_report.json", payload)

    chart = svgplot.LineChart(
        title="decay channels", xlabel="1+t", ylabel="value", logx=True, logy=True
    )
    chart.add_line(1.0 + series.times, series["E_1"], "E_half")
    chart.add_line(1.0 + series.times, series["E_2"], "E_one")
    chart.add_line(1.0 + series.times, series["v"], "V")
    chart.write(outdir / "verify.svg")

    verdicts = {
        f"{e.quantity}:{e.kind}": e.verdict for e in report.entries
    }
    verdicts["overall"] = report.worst
    return verdicts, {status_key: traj}, payload


_MODEL = frozenset({"spectrum", "m", "b", "u0"})
_RUN = frozenset({"settings", "analysis"})
# kind -> subcommand, help, runner, required keys, optional keys, analysis keys
PLAN_KINDS = {
    "simulate": PlanKind("simulate", "second-order run with energies and floor diagnostics",
                         _run_simulate, _MODEL | {"eps", "u1"}, _RUN, frozenset({"ks"})),
    "limit": PlanKind("limit", "both first-order solvers plus the equivalence report",
                      _run_limit, _MODEL, _RUN, frozenset({"ks"})),
    "corrector": PlanKind("corrector", "boundary-layer corrector samples",
                          _run_corrector, _MODEL | {"eps", "u1"}, frozenset({"settings"})),
    "sweep_eps": PlanKind("sweep", "eps sweep with error series and order fits",
                          _run_sweep, _MODEL | {"eps_list", "u1"}, frozenset({"settings"})),
    "regime_grid": PlanKind("grid", "regime classification over a (gamma, p) lattice",
                            _run_grid, frozenset({"grid_gammas", "grid_ps"}),
                            frozenset({"analysis"}), frozenset({"coercive"})),
    "verify": PlanKind("verify", "decay-rate verification against predicted bounds",
                       _run_verify, _MODEL, _RUN | {"eps", "u1"},
                       frozenset({"ks", "window", "coercive"})),
}


def run_plan(
    plan: ExperimentPlan,
    out_dir,
    jobs: int | None = None,
) -> ArtifactBundle:
    """Execute a plan into out_dir/<config hash>/ and write the manifest."""
    start = time.perf_counter()
    outdir = Path(out_dir) / plan_hash(plan)
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.iterdir():
        if stale.is_file():
            stale.unlink()

    runner = PLAN_KINDS[plan.kind].runner
    verdicts, trajectories, summary = runner(plan, outdir, jobs or os.cpu_count() or 1)
    statuses = {key: tr.status for key, tr in trajectories.items()}
    stats = {key: tr.stats and asdict(tr.stats) for key, tr in trajectories.items()}
    del trajectories  # free the samples before the payload files are hashed

    files = {}
    for path in sorted(outdir.iterdir()):
        if path.is_file() and path.name != "manifest.json":
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()

    from . import __version__

    manifest = {
        "schema": "kirchlab.bundle@1",
        "plan": plan.raw,
        "plan_hash": plan_hash(plan),
        "versions": {
            "kirchlab": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - start,
        "verdicts": verdicts,
        "solver_status": statuses,
        "solver_stats": stats,
        "summary": summary,
        "files": files,
    }
    _write_json(outdir / "manifest.json", manifest)
    return ArtifactBundle(outdir, manifest)
