"""Experiment orchestration: configuration ingestion, plan execution,
flat-file persistence, and plot emission.

A plan is a validated JSON document. Executing it writes one directory
named by the hash of the configuration, containing CSV payloads, JSON
reports, SVG charts, and a manifest listing every emitted file with its
content hash. Reruns of the same plan are byte-identical except for the
manifest's timestamp and timings; CSV files are the reproducibility
contract. A numeric CSV cell is the shortest decimal that reads back as
the same double, so every payload value is exact.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
import shutil
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import energies as en
from . import integrate as ig
from . import svgplot
from .model import (
    ConstantDissipation,
    Dissipation,
    LipschitzTable,
    Nonlinearity,
    PowerLawDissipation,
    PowerNonlinearity,
    classify_regime,
    p_gamma,
)
from .spectral import ConfigurationError, Spectrum, as_modal

__all__ = [
    "AnalysisOptions",
    "ExperimentPlan",
    "ArtifactBundle",
    "PlanKind",
    "SectionKind",
    "load_config",
    "run_plan",
    "plan_hash",
    "PLAN_KINDS",
    "MODEL_SECTIONS",
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
        return self.spectrum is not None and bool(self.spectrum.eigenvalues[0] > 0.0)


@dataclass(frozen=True)
class PlanKind:
    """A plan kind: its subcommand, the top-level keys besides ``kind``
    and the analysis keys it reads, and ``runner(plan, outdir, jobs,
    stage)``, which writes the payload files, its report among them, and
    returns (verdicts, trajectories) for the manifest; ``jobs`` bounds
    the worker processes of a sweep, and ``with stage("solve" | "csv" |
    "json_svg"):`` times the runner's solves and file writes for the
    manifest's ``timings``."""

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


# ----------------------------------------------------------------------
# Plan field readers. JSON gives numbers as int or float; NaN, +-Infinity,
# strings, booleans, null and containers where a number belongs are
# errors that name the field, never a silent conversion.

def _check_keys(cfg: dict, allowed, context: str, required=()) -> None:
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{context} must be a mapping")
    extra = sorted(set(cfg) - set(allowed))
    if extra:
        raise ConfigurationError(f"unknown key {extra[0]!r} in {context}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigurationError(f"{context}.{missing[0]} is required")


def _lookup_kind(table: dict, kind, context: str):
    if not isinstance(kind, str) or kind not in table:
        raise ConfigurationError(f"{context}.kind must be one of {tuple(table)}, got {kind!r}")
    return table[kind]


def _as_number(value, name: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer literal beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


def _as_integer(value, name: str) -> int:
    x = _as_number(value, name)
    if not x.is_integer():
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(x)


def _as_flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    return value


def _as_list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{name} must be a list")
    return list(value)


def _as_numbers(value, name: str, length: int | None = None) -> tuple:
    items = _as_list(value, name)
    if length is not None and len(items) != length:
        raise ConfigurationError(f"{name} must hold exactly {length} numbers")
    return tuple(_as_number(v, f"{name}[{i}]") for i, v in enumerate(items))


def _as_points(value, name: str) -> tuple:
    return tuple(_as_numbers(pt, f"{name}[{i}]", 2) for i, pt in enumerate(_as_list(value, name)))


# ----------------------------------------------------------------------
# Model sections. A spectrum constructor also takes ``lengths``, the
# plan's vector lengths by name, and checks them against its size before
# a power spectrum allocates its n eigenvalues.

def _check_lengths(size: int, lengths: dict) -> None:
    for name, length in lengths.items():
        if length != size:
            raise ConfigurationError(f"{name} has length {length}, spectrum has {size} modes")


def _explicit_spectrum(values: tuple, lengths: dict) -> Spectrum:
    _check_lengths(len(values), lengths)
    return Spectrum(values)


def _power_spectrum(a: float, q: float, n: int, lengths: dict) -> Spectrum:
    """lambda_k = a k^q, k = 1..n, ascending: for q < 0 from k = n to 1."""
    if n < 1:
        raise ConfigurationError("spectrum.n must be at least 1")
    if a < 0.0:
        raise ConfigurationError("spectrum.a must be nonnegative")
    _check_lengths(n, lengths)
    k = np.arange(1, n + 1, dtype=float)
    return Spectrum(a * (k[::-1] if q < 0.0 else k) ** q)


@dataclass(frozen=True)
class SectionKind:
    """A kind of a model section: ``build(**fields)`` makes it from the
    fields ``keys`` reads (key -> reader(value, name)); every key not in
    ``optional`` is required."""

    build: Callable
    keys: dict
    optional: frozenset = frozenset()


# The single source of the model sections' kinds and keys.
MODEL_SECTIONS = {
    "spectrum": {
        "explicit": SectionKind(_explicit_spectrum, {"values": _as_numbers}),
        "power": SectionKind(_power_spectrum, {"a": _as_number, "q": _as_number, "n": _as_integer}),
    },
    "m": {
        "power": SectionKind(PowerNonlinearity, {"gamma": _as_number}),
        "table": SectionKind(LipschitzTable, {"points": _as_points, "mu": _as_number},
                             frozenset({"mu"})),
    },
    "b": {
        "power": SectionKind(PowerLawDissipation, {"p": _as_number}),
        "constant": SectionKind(ConstantDissipation, {"delta": _as_number}),
    },
}


def _model_section(section: str, cfg, **context):
    """Build one model section by its ``MODEL_SECTIONS`` entry;
    ``context`` (a spectrum's ``lengths``) goes to the constructor
    beside the fields."""
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{section} must be a mapping")
    entry = _lookup_kind(MODEL_SECTIONS[section], cfg.get("kind"), section)
    _check_keys(cfg, {"kind", *entry.keys}, section, set(entry.keys) - entry.optional)
    fields = {key: read(cfg[key], f"{section}.{key}") for key, read in entry.keys.items()
              if key in cfg}
    return entry.build(**fields, **context)


def _parse_eps(value, context: str) -> float:
    eps = _as_number(value, context)
    if not eps > 0.0:
        raise ConfigurationError(f"{context} must be positive")
    return eps


def _parse_grid(cfg: dict) -> ig.OutputGrid:
    _check_keys(cfg, {"kind", "count", "t_end"}, "settings.grid", {"t_end"})
    t_end = _as_number(cfg["t_end"], "settings.grid.t_end")
    count = _as_integer(cfg["count"], "settings.grid.count") if "count" in cfg else None
    return ig.OutputGrid(kind=cfg.get("kind", "log"), count=count, t_end=t_end)


def _parse_settings(cfg: dict) -> ig.IntegratorSettings:
    numbers = ("rel_tol", "abs_tol", "max_step_factor", "blowup_threshold")
    _check_keys(cfg, {*numbers, "grid"}, "settings")
    kwargs = {key: _as_number(cfg[key], f"settings.{key}") for key in numbers if key in cfg}
    if "grid" in cfg:
        kwargs["grid"] = _parse_grid(cfg["grid"])
    return ig.IntegratorSettings(**kwargs)


def _parse_analysis(cfg: dict, allowed: frozenset) -> AnalysisOptions:
    _check_keys(cfg, allowed, "analysis")
    kwargs = {}
    if "ks" in cfg:
        kwargs["ks"] = _as_numbers(cfg["ks"], "analysis.ks")
    if "window" in cfg:
        kwargs["window"] = _as_numbers(cfg["window"], "analysis.window", 2)
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
    are checked against the spectrum's size before it is built.
    """
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigurationError("config nests too deeply to parse") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")

    kind = cfg.get("kind", expected_kind)
    entry = _lookup_kind(PLAN_KINDS, kind, "config")
    if expected_kind is not None and kind != expected_kind:
        raise ConfigurationError(
            f"config.kind is {kind!r} but the subcommand expects {expected_kind!r}"
        )
    _check_keys(cfg, entry.required | entry.optional | {"kind"}, "config", entry.required)

    settings = _parse_settings(cfg.get("settings", {}))
    options = _parse_analysis(cfg.get("analysis", {}), entry.analysis)
    plan_kwargs = dict(kind=kind, raw=cfg, settings=settings, analysis=options)

    if kind == "regime_grid":
        gammas = _as_numbers(cfg["grid_gammas"], "config.grid_gammas")
        ps = _as_numbers(cfg["grid_ps"], "config.grid_ps")
        if not gammas or not ps:
            raise ConfigurationError("grid_gammas and grid_ps must be nonempty")
        if not all(g > 0.0 for g in gammas):
            raise ConfigurationError("grid_gammas must be positive")
        if not all(p >= 0.0 for p in ps):
            raise ConfigurationError("grid_ps must be nonnegative")
        return ExperimentPlan(grid_gammas=gammas, grid_ps=ps, **plan_kwargs)

    lengths = {name: len(_as_list(cfg[name], name)) for name in ("u0", "u1") if name in cfg}
    spec = _model_section("spectrum", cfg["spectrum"], lengths=lengths)
    nl = _model_section("m", cfg["m"])
    dis = _model_section("b", cfg["b"])
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
# Serialization helpers. CSV cell contract: the shortest decimal that
# reads back as the same double, a whole number without ".0", NaN as an
# empty cell, +-inf as inf / -inf.

# Cells per orjson call: large enough to amortize the call, small enough
# that the writer holds no copy of a whole table.
_BLOCK_CELLS = 1 << 16


def _csv_rows(block: np.ndarray) -> bytes:
    """CSV rows (each ending in a newline) of a 2-D float64 block."""
    # Imported here, not at module level: ``import kirchlab`` should not
    # pay for loading orjson.
    import orjson

    rows = [orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] for row in block]
    # A shortest-form cell ends in ".0" only when it is a whole number, so
    # only the rows that hold one are rewritten.
    with np.errstate(invalid="ignore"):
        whole = (block == np.trunc(block)).any(axis=1)
    for i in np.flatnonzero(whole):
        row = rows[i].replace(b".0,", b",")
        rows[i] = row[:-2] if row.endswith(b".0") else row
    rows.append(b"")
    text = b"\n".join(rows)
    if np.isfinite(block).all():
        return text
    # orjson writes NaN and +-inf as null.
    text = text.replace(b"null", b"")
    inf = np.isinf(block)
    if not inf.any():
        return text
    lines = text.split(b"\n")
    for i in np.flatnonzero(inf.any(axis=1)):
        cells = lines[i].split(b",")
        for j in np.flatnonzero(inf[i]):
            cells[j] = b"inf" if block[i, j] > 0 else b"-inf"
        lines[i] = b",".join(cells)
    return b"\n".join(lines)


def _write_rows(path: Path, header: list, columns: list) -> None:
    # Blocks are stacked from column slices, so no full-table copy is made.
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    n_rows = len(columns[0])
    n_cols = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    step = max(1, _BLOCK_CELLS // n_cols)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, n_rows, step):
            fh.write(_csv_rows(np.column_stack([c[lo:lo + step] for c in columns])))


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

def _run_simulate(plan: ExperimentPlan, outdir: Path, jobs: int, stage) -> tuple:
    with stage("solve"):
        traj = ig.solve_hyperbolic(
            plan.spectrum, plan.nl, plan.dis, plan.eps, plan.u0, plan.u1, plan.settings
        )
    series = en.energy_suite(traj, plan.nl, plan.eps, plan.analysis.ks)
    margins = en.apriori_margin(traj, plan.nl, plan.dis, plan.eps)
    floor = ana.hamiltonian_floor(series, plan.dis, plan.eps)

    with stage("csv"):
        write_trajectory_csv(outdir / "trajectory.csv", traj)
        write_series_csv(outdir / "energies.csv", series)
        write_series_csv(outdir / "apriori.csv", margins)
        write_series_csv(outdir / "hamiltonian_floor.csv", floor)

    H = floor["H"]
    slack = 10.0 * plan.settings.rel_tol
    monotone = bool(np.all(H[1:] <= H[:-1] * (1.0 + slack)))
    residual = (
        ig.residual_norm(traj, plan.nl, plan.dis, plan.eps)
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
    chart = svgplot.LineChart(
        title="state norms", xlabel="1+t", ylabel="value", logx=True, logy=True
    )
    if "E_1" in series:
        chart.add_line(1.0 + traj.times, series["E_1"], "|A^1/2 u|^2")
    chart.add_line(1.0 + traj.times, series["v"], "|u'|^2")
    chart.add_line(1.0 + floor.times, H, "H")
    with stage("json_svg"):
        _write_json(outdir / "simulate_report.json", report)
        chart.write(outdir / "simulate.svg")

    verdicts = {"hamiltonian_monotone": "pass" if monotone else "fail"}
    return verdicts, {"hyperbolic": traj}


def _run_limit(plan: ExperimentPlan, outdir: Path, jobs: int, stage) -> tuple:
    with stage("solve"):
        t_r = ig.solve_parabolic_reparam(plan.spectrum, plan.nl, plan.dis, plan.u0, plan.settings)
        t_d = ig.solve_parabolic_direct(plan.spectrum, plan.nl, plan.dis, plan.u0, plan.settings)
    series = en.energy_suite(t_r, plan.nl, 0.0, plan.analysis.ks)
    with stage("csv"):
        write_trajectory_csv(outdir / "parabolic_reparam.csv", t_r)
        write_trajectory_csv(outdir / "parabolic_direct.csv", t_d)
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
    chart = svgplot.LineChart(
        title="first-order limit", xlabel="1+t", ylabel="E_1", logx=True, logy=True
    )
    if "E_1" in series:
        chart.add_line(1.0 + t_r.times, series["E_1"], "reparametrized")
    with stage("json_svg"):
        _write_json(outdir / "limit_report.json", report)
        chart.write(outdir / "limit.svg")
    return {"oracle_equivalence": report["verdict"]}, {"reparam": t_r, "direct": t_d}


def _run_corrector(plan: ExperimentPlan, outdir: Path, jobs: int, stage) -> tuple:
    with stage("solve"):
        corr = ig.corrector(
            plan.spectrum, plan.nl, plan.dis, plan.eps, plan.u0, plan.u1,
            plan.settings.grid.times(),
        )
    with stage("csv"):
        write_corrector_csv(outdir / "corrector.csv", corr)
    chart = svgplot.LineChart(
        title="corrector", xlabel="t", ylabel="|theta'|", logy=True
    )
    norm = np.sqrt(np.sum(corr.theta_prime**2, axis=1))
    chart.add_line(corr.times, norm, "|theta'|")
    with stage("json_svg"):
        chart.write(outdir / "corrector.svg")
    return {}, {"corrector": corr}


def _run_sweep(plan: ExperimentPlan, outdir: Path, jobs: int, stage) -> tuple:
    with stage("solve"):
        par = ig.solve_parabolic_reparam(
            plan.spectrum, plan.nl, plan.dis, plan.u0, plan.settings
        )
    with stage("csv"):
        write_trajectory_csv(outdir / "parabolic.csv", par)

    with stage("solve"):
        trajs = ig.solve_hyperbolic_sweep(
            plan.spectrum, plan.nl, plan.dis, plan.eps_list, plan.u0, plan.u1, plan.settings,
            jobs,
        )
        times = plan.settings.grid.times()
        corrs = [
            ig.corrector(plan.spectrum, plan.nl, plan.dis, eps, plan.u0, plan.u1, times)
            for eps in plan.eps_list
        ]

    trajectories = {}
    per_eps = []
    for i, (eps, traj, corr) in enumerate(zip(plan.eps_list, trajs, corrs)):
        trajectories[f"hyperbolic_{i}"] = traj
        with stage("csv"):
            write_trajectory_csv(outdir / f"hyperbolic_{i}.csv", traj)
            write_corrector_csv(outdir / f"corrector_{i}.csv", corr)
        if corr.status != ig.COMPLETED:
            trajectories[f"corrector_{i}"] = corr
        if traj.status != ig.COMPLETED or corr.status != ig.COMPLETED:
            continue
        errors = ana.perturbation_errors(traj, par, corr, plan.dis)
        with stage("csv"):
            write_series_csv(outdir / f"errors_{i}.csv", errors)
        sups = {
            f"sup_{name}": float(np.max(errors[name]))
            for name in ("rho_sq", "r_prime_sq", "half_rho_sq_weighted")
        }
        per_eps.append({"eps": eps, **sups})
    trajectories["parabolic"] = par

    verdicts = {}
    report = {"eps_list": list(plan.eps_list), "per_eps": per_eps}
    complete = len(per_eps) == len(plan.eps_list)
    if complete:
        eps_arr = np.array(plan.eps_list)
        sup_rho = [row["sup_rho_sq"] for row in per_eps]
        sup_rp = [row["sup_r_prime_sq"] for row in per_eps]
        ratios = np.array([row["sup_half_rho_sq_weighted"] for row in per_eps]) / eps_arr**2
        ratio = float(ratios.max() / ratios.min()) if np.all(ratios > 0.0) else math.inf
        # Sweeps too short to fit an order still report sups and the ratio.
        for name, sup in (("rho_sq", sup_rho), ("r_prime_sq", sup_rp)):
            fit = ana.fit_eps_order(eps_arr, sup)
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
        with stage("json_svg"):
            chart.write(outdir / "sweep.svg")
    with stage("json_svg"):
        _write_json(outdir / "sweep_report.json", report)
    return verdicts, trajectories


def _run_grid(plan: ExperimentPlan, outdir: Path, jobs: int, stage) -> tuple:
    rows = []
    for g in plan.grid_gammas:
        for p in plan.grid_ps:
            nl = PowerNonlinearity(g)
            regime = classify_regime(nl, PowerLawDissipation(p), plan.coercive_flag())
            rows.append((g, p, regime.tag, regime.threshold))
    with stage("csv"), open(outdir / "regime_grid.csv", "wb") as fh:
        fh.write(b"gamma,p,tag,p_gamma\n")
        numeric = _csv_rows(np.array([(g, p, thr) for g, p, _, thr in rows], dtype=np.float64))
        for line, (_, _, tag, _) in zip(numeric.splitlines(), rows):
            g, p, thr = line.split(b",")
            fh.write(b",".join((g, p, tag.encode(), thr)) + b"\n")

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
    report = {"cells": [{"gamma": g, "p": p, "tag": t} for g, p, t, _ in rows]}
    with stage("json_svg"):
        chart.write(outdir / "regime_grid.svg")
        _write_json(outdir / "grid_report.json", report)
    return {}, {}


def _run_verify(plan: ExperimentPlan, outdir: Path, jobs: int, stage) -> tuple:
    coercive = plan.coercive_flag()
    ks = tuple(sorted(set(plan.analysis.ks) | {1.0, 2.0}))
    hyperbolic = plan.eps is not None
    with stage("solve"):
        if hyperbolic:
            traj = ig.solve_hyperbolic(
                plan.spectrum, plan.nl, plan.dis, plan.eps, plan.u0, plan.u1, plan.settings
            )
        else:
            traj = ig.solve_parabolic_reparam(
                plan.spectrum, plan.nl, plan.dis, plan.u0, plan.settings
            )
    series = en.energy_suite(traj, plan.nl, plan.eps if hyperbolic else 0.0, ks)
    bounds = ana.predicted_bounds(plan.nl, plan.dis, coercive, hyperbolic_run=hyperbolic)
    status_key = "hyperbolic" if hyperbolic else "parabolic"

    report = ana.verify_bounds(series, bounds, plan.analysis.window)
    with stage("csv"):
        write_trajectory_csv(outdir / "trajectory.csv", traj)
        write_series_csv(outdir / "energies.csv", series)
    payload = {"config": plan.raw, **report.to_dict()}

    chart = svgplot.LineChart(
        title="decay channels", xlabel="1+t", ylabel="value", logx=True, logy=True
    )
    chart.add_line(1.0 + series.times, series["E_1"], "E_half")
    chart.add_line(1.0 + series.times, series["E_2"], "E_one")
    chart.add_line(1.0 + series.times, series["v"], "V")
    with stage("json_svg"):
        _write_json(outdir / "verify_report.json", payload)
        chart.write(outdir / "verify.svg")

    verdicts = {
        f"{e.quantity}:{e.kind}": e.verdict for e in report.entries
    }
    verdicts["overall"] = report.worst
    return verdicts, {status_key: traj}


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
    """Execute a plan into out_dir/<config hash>/ and write the manifest.

    An ``out_dir`` under which that directory cannot be made (a file,
    say) is a ``ConfigurationError``. A ``ConfigurationError`` raised by
    the runner removes the half-written bundle directory before it
    propagates. So does a ``MemoryError``: a plan too large for memory
    is reported as a configuration error.
    """
    start = time.perf_counter()
    outdir = Path(out_dir) / plan_hash(plan)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot make a bundle directory under {out_dir}: {exc}") from None
    for stale in outdir.iterdir():
        if stale.is_file():
            stale.unlink()

    # Wall seconds per stage; "diagnostics" is the runner's untimed rest.
    timings = dict.fromkeys(("solve", "diagnostics", "csv", "json_svg", "hashing"), 0.0)

    @contextmanager
    def stage(name: str):
        lap = time.perf_counter()
        yield
        timings[name] += time.perf_counter() - lap

    runner = PLAN_KINDS[plan.kind].runner
    runner_start = time.perf_counter()
    try:
        verdicts, trajectories = runner(plan, outdir, jobs or os.cpu_count() or 1, stage)
    except (ConfigurationError, MemoryError) as exc:
        shutil.rmtree(outdir, ignore_errors=True)
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"plan too large for memory: {exc}") from exc
    timings["diagnostics"] = time.perf_counter() - runner_start - sum(timings.values())
    statuses = {key: tr.status for key, tr in trajectories.items()}
    stats = {key: tr.stats and asdict(tr.stats) for key, tr in trajectories.items()}
    del trajectories  # free the samples before the payload files are hashed

    files = {}
    with stage("hashing"):
        for path in sorted(outdir.iterdir()):
            if path.is_file() and path.name != "manifest.json":
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()

    import orjson  # its version is recorded: the CSV bytes depend on it
    import scipy  # its version is recorded: the corrector's quadrature is scipy's

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
            "orjson": orjson.__version__,
        },
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - start,
        "timings": timings,
        "verdicts": verdicts,
        "solver_status": statuses,
        "solver_stats": stats,
        "files": files,
    }
    _write_json(outdir / "manifest.json", manifest)
    return ArtifactBundle(outdir, manifest)
