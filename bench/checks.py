"""Output checks computed by benchmark code, independently of kirchlab.

Every check reads a bundle's CSV payloads and recomputes a quantity with
numpy/scipy from the plan's JSON. A check returns a list of failure
messages; an empty list means the plan's outputs are correct.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

# Criterion-4 slack: a sample may exceed its predecessor by this share.
MONOTONE_SLACK = 1e-8
# Recomputed energies against energies.csv: summation order only.
ENERGY_RTOL = 1e-11
# Closed-form corrector velocity and recomputed error series.
CLOSED_FORM_RTOL = 1e-10
# Final state against the DOP853 reference, relative to |(u0, u1)|. The
# rel_tol=1e-10 DP5 runs of hyperbolic-decay deviate by ~3e-15 (seeds 0
# and 7); the bound leaves room for any integrator that meets rel_tol.
FINAL_STATE_RTOL = 1e-9
# The reparametrized and direct first-order solvers, relative to |u0|.
LIMIT_PAIR_RTOL = 1e-6
REFERENCE_RTOL = 1e-12
REFERENCE_ATOL = 1e-14

_E_COLUMN = re.compile(r"^E_(\d+(?:\.\d+)?)$")


def read_csv(path: Path) -> tuple[list, np.ndarray]:
    """Header names and a (rows, columns) array; empty cells become NaN."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    return header, data


def eigenvalues(plan: dict) -> np.ndarray:
    spec = plan["spectrum"]
    if spec["kind"] == "explicit":
        return np.array(spec["values"], dtype=float)
    k = np.arange(1, spec["n"] + 1, dtype=float)
    return spec["a"] * k ** spec["q"]


def _table(plan: dict) -> tuple[np.ndarray, np.ndarray]:
    pts = np.array(plan["m"]["points"], dtype=float)
    return pts[:, 0], pts[:, 1]


def m_value(plan: dict, sigma):
    if plan["m"]["kind"] == "power":
        return np.asarray(sigma, dtype=float) ** plan["m"]["gamma"]
    xs, ms = _table(plan)
    return np.interp(sigma, xs, ms)


def m_primitive(plan: dict, sigma) -> np.ndarray:
    """M(sigma) = integral of m from 0 to sigma."""
    sigma = np.asarray(sigma, dtype=float)
    if plan["m"]["kind"] == "power":
        g = plan["m"]["gamma"]
        return sigma ** (g + 1.0) / (g + 1.0)
    xs, ms = _table(plan)
    # Trapezoids are exact on the linear pieces; append sigma to the grid.
    out = np.empty_like(sigma)
    for i, s in enumerate(sigma.ravel()):
        knots = np.append(xs[xs < s], s)
        out.ravel()[i] = np.trapezoid(np.interp(knots, xs, ms), knots)
    return out


def b_value(plan: dict, t):
    """b(t) = (1+t)^(-p), the dissipation of every workload."""
    return (1.0 + np.asarray(t, dtype=float)) ** -plan["b"]["p"]


def b_primitive_half(plan: dict, t: np.ndarray) -> np.ndarray:
    """Closed form B(t) = 2 (sqrt(1+t) - 1) of b = (1+t)^(-1/2)."""
    if plan["b"] != {"kind": "power", "p": 0.5}:
        raise ValueError("the corrector check covers b = (1+t)^(-1/2) only")
    return 2.0 * (np.sqrt(1.0 + t) - 1.0)


def _columns(header: list, data: np.ndarray, prefix: str, n: int) -> np.ndarray:
    idx = [header.index(f"{prefix}_{k + 1}") for k in range(n)]
    return data[:, idx]


def _trajectory(path: Path, n: int):
    header, data = read_csv(path)
    return data[:, header.index("t")], _columns(header, data, "u", n), _columns(header, data, "up", n)


def _nonincreasing(name: str, values: np.ndarray) -> list:
    bad = np.flatnonzero(values[1:] > values[:-1] * (1.0 + MONOTONE_SLACK))
    if bad.size:
        return [f"{name} increases at sample {bad[0] + 1}"]
    return []


def _close(name: str, got, want, rtol: float) -> list:
    got = np.asarray(got)
    want = np.asarray(want)
    err = np.abs(got - want)
    bad = ~(err <= rtol * np.abs(want) + 1e-300)
    if np.any(bad):
        i = np.unravel_index(np.argmax(np.where(bad, err, -1.0)), err.shape)
        return [f"{name} differs at {tuple(int(j) for j in i)}: {float(got[i])!r} vs {float(want[i])!r}"]
    return []


def check_hamiltonian(path: Path, plan: dict, eps: float) -> list:
    """eps |u'|^2 + M(|A^(1/2)u|^2) is nonincreasing (eps = 0: M(sigma))."""
    lam = eigenvalues(plan)
    _, u, up = _trajectory(path, lam.size)
    H = eps * np.sum(up * up, axis=1) + m_primitive(plan, (u * u) @ lam)
    return _nonincreasing(f"{path.name}: Hamiltonian", H)


def check_energies(energies: Path, trajectory: Path, plan: dict) -> list:
    """Every E_k column equals sum_j lambda_j^k u_j^2 of the trajectory."""
    lam = eigenvalues(plan)
    _, u, _ = _trajectory(trajectory, lam.size)
    header, data = read_csv(energies)
    ks = [(name, float(m.group(1))) for name in header if (m := _E_COLUMN.match(name))]
    if not ks:
        return [f"{energies.name}: no E_k column"]
    fails = []
    for name, k in ks:
        fails += _close(f"{energies.name}:{name}", data[:, header.index(name)], (u * u) @ lam**k, ENERGY_RTOL)
    return fails


def check_corrector(path: Path, plan: dict, eps: float) -> list:
    """theta' = w0 exp(-B(t)/eps), w0 = u1 + m(sigma0) A u0 / b(0)."""
    lam = eigenvalues(plan)
    u0 = np.array(plan["u0"])
    w0 = np.array(plan["u1"]) + m_value(plan, lam @ (u0 * u0)) / b_value(plan, 0.0) * lam * u0
    header, data = read_csv(path)
    t = data[:, header.index("t")]
    want = w0[None, :] * np.exp(-b_primitive_half(plan, t) / eps)[:, None]
    return _close(f"{path.name}: theta'", _columns(header, data, "thetap", lam.size), want, CLOSED_FORM_RTOL)


def check_errors(errors: Path, hyperbolic: Path, parabolic: Path, plan: dict) -> list:
    """rho_sq equals |u_eps - u|^2 from the two trajectories."""
    lam = eigenvalues(plan)
    _, u_eps, _ = _trajectory(hyperbolic, lam.size)
    _, u_par, _ = _trajectory(parabolic, lam.size)
    header, data = read_csv(errors)
    rho = u_eps - u_par
    return _close(f"{errors.name}: rho_sq", data[:, header.index("rho_sq")], np.sum(rho * rho, axis=1), CLOSED_FORM_RTOL)


def check_limit_pair(reparam: Path, direct: Path, plan: dict) -> list:
    """The two first-order solvers give the same trajectory."""
    n = eigenvalues(plan).size
    t_r, u_r, _ = _trajectory(reparam, n)
    t_d, u_d, _ = _trajectory(direct, n)
    if not np.array_equal(t_r, t_d):
        return [f"{reparam.name} and {direct.name} have different sample times"]
    dev = float(np.max(np.abs(u_r - u_d))) / float(np.linalg.norm(plan["u0"]))
    if not dev <= LIMIT_PAIR_RTOL:
        return [f"{reparam.name} and {direct.name} differ by {dev:.3e} (relative)"]
    return []


def reference_final_state(plan: dict) -> np.ndarray:
    """(u, u') at t_end of a simulate plan, by scipy's DOP853."""
    lam = eigenvalues(plan)
    n = lam.size
    eps = plan["eps"]

    def rhs(t, y):
        u = y[:n]
        w = y[n:]
        return np.concatenate([w, -(b_value(plan, t) * w + m_value(plan, lam @ (u * u)) * lam * u) / eps])

    y0 = np.concatenate([plan["u0"], plan["u1"]])
    t_end = plan["settings"]["grid"]["t_end"]
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y[:, -1]


def check_final_state(path: Path, plan: dict, reference: np.ndarray) -> list:
    lam = eigenvalues(plan)
    t, u, up = _trajectory(path, lam.size)
    if t[-1] != plan["settings"]["grid"]["t_end"]:
        return [f"{path.name}: stops at t={t[-1]!r}"]
    scale = math.sqrt(float(np.sum(np.square(plan["u0"])) + np.sum(np.square(plan["u1"]))))
    dev = float(np.linalg.norm(np.concatenate([u[-1], up[-1]]) - reference)) / scale
    if not dev <= FINAL_STATE_RTOL:
        return [f"{path.name}: final state off the DOP853 reference by {dev:.3e} (relative)"]
    return []


def check_plan(bundle: Path, plan: dict, reference=None) -> list:
    """All independent checks that apply to one plan's bundle."""
    kind = plan["kind"]
    if kind == "simulate":
        traj = bundle / "trajectory.csv"
        return (
            check_hamiltonian(traj, plan, plan["eps"])
            + check_energies(bundle / "energies.csv", traj, plan)
            + check_final_state(traj, plan, reference)
        )
    if kind == "sweep_eps":
        par = bundle / "parabolic.csv"
        fails = check_hamiltonian(par, plan, 0.0)
        for i, eps in enumerate(plan["eps_list"]):
            hyp = bundle / f"hyperbolic_{i}.csv"
            fails += check_hamiltonian(hyp, plan, eps)
            fails += check_corrector(bundle / f"corrector_{i}.csv", plan, eps)
            fails += check_errors(bundle / f"errors_{i}.csv", hyp, par, plan)
        return fails
    if kind == "limit":
        traj = bundle / "parabolic_reparam.csv"
        direct = bundle / "parabolic_direct.csv"
        return (
            check_hamiltonian(traj, plan, 0.0)
            + check_hamiltonian(direct, plan, 0.0)
            + check_limit_pair(traj, direct, plan)
            + check_energies(bundle / "energies.csv", traj, plan)
        )
    if kind == "verify" and "eps" not in plan:
        traj = bundle / "trajectory.csv"
        return check_hamiltonian(traj, plan, 0.0) + check_energies(bundle / "energies.csv", traj, plan)
    raise ValueError(f"no checks for a {kind} plan")
