"""Acceptance suite: one test per criterion, in order, each ending with
an explicit PASS/FAIL line (run with -s to see them live).

Every criterion that produces data does so through a plan bundle; the
final determinism criterion reruns each recorded plan and compares the
CSV payloads byte for byte.
"""

import json
import math

import numpy as np
import pytest

import kirchlab as kl
from kirchlab import load_config, run_plan

from helpers import hamiltonian, sobolev_norm_sq


REPORT_LINES = []


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def load_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class PlanBook:
    """Executes plans once and remembers them for the determinism pass."""

    def __init__(self, base):
        self.base = base
        self.entries = []

    def run(self, name, cfg):
        text = json.dumps(cfg)
        bundle = run_plan(load_config(text), self.base / name)
        self.entries.append((name, text, bundle))
        return bundle


@pytest.fixture(scope="session")
def book(tmp_path_factory):
    return PlanBook(tmp_path_factory.mktemp("acceptance"))


def _spectrum(values):
    return {"kind": "explicit", "values": list(values)}


def _grid(count, t_end, kind="log"):
    return {"kind": kind, "count": count, "t_end": t_end}


def test_criterion_1_closed_form_parabolic_oracle(book):
    cfg = {
        "kind": "limit",
        "spectrum": _spectrum([1.0]),
        "m": {"kind": "power", "gamma": 1.0},
        "b": {"kind": "power", "p": 0.0},
        "u0": [1.0],
        "settings": {"grid": _grid(400, 1e4)},
    }
    bundle = book.run("c1", cfg)
    data = load_csv(bundle.directory / "parabolic_reparam.csv")
    exact = 1.0 / (1.0 + 2.0 * data["t"])
    rel = np.max(np.abs(data["u_1"] ** 2 - exact) / exact)
    elapsed = bundle.manifest["elapsed_seconds"]
    _report(
        1,
        "closed-form parabolic oracle",
        rel < 1e-8 and elapsed < 1.0,
        f"sup rel err {rel:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence(book):
    rng = np.random.default_rng(2024)
    elapsed = 0.0
    worst = 0.0
    ok = True
    for i in range(30):
        n = int(rng.integers(1, 9))
        lam = np.sort(rng.uniform(0.2, 6.0, n))
        u0 = rng.uniform(-1.0, 1.0, n)
        if math.sqrt(float(lam @ (u0 * u0))) < 0.1:
            u0[0] += 0.5
        cfg = {
            "kind": "limit",
            "spectrum": _spectrum(lam),
            "m": {"kind": "power", "gamma": float(rng.choice([0.5, 1.0, 2.0]))},
            "b": {"kind": "power", "p": float(rng.choice([0.0, 0.5, 1.0]))},
            "u0": list(u0),
            "settings": {"grid": _grid(201, 100.0)},
        }
        bundle = book.run(f"c2_{i:02d}", cfg)
        report = json.loads((bundle.directory / "limit_report.json").read_text())
        worst = max(worst, report["max_deviation"])
        ok = ok and report["verdict"] == "pass"
        elapsed += bundle.manifest["elapsed_seconds"]
    _report(
        2,
        "oracle equivalence x30",
        ok and elapsed < 30.0,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_decay_exponent_table(book):
    elapsed = 0.0

    # (i) power gamma=1, p=0, coercive: E_half -> -1, V -> -3
    cfg1 = {
        "kind": "verify",
        "spectrum": _spectrum([1.0]),
        "m": {"kind": "power", "gamma": 1.0},
        "b": {"kind": "power", "p": 0.0},
        "u0": [1.0],
        "settings": {"grid": _grid(1601, 1e5)},
    }
    b1 = book.run("c3_i", cfg1)
    r1 = json.loads((b1.directory / "verify_report.json").read_text())
    fitted = {(e["quantity"], e["kind"]): e["fitted_exponent"] for e in r1["entries"]}
    ok1 = (
        r1["worst"] == "pass"
        and abs(fitted[("E_half", "poly_upper")] + 1.0) <= 0.07
        and abs(fitted[("V", "poly_upper")] + 3.0) <= 0.07
    )
    elapsed += b1.manifest["elapsed_seconds"]

    # (ii) power gamma=2, p=1, coercive: E_half -> -1
    cfg2 = dict(cfg1, m={"kind": "power", "gamma": 2.0}, b={"kind": "power", "p": 1.0})
    b2 = book.run("c3_ii", cfg2)
    r2 = json.loads((b2.directory / "verify_report.json").read_text())
    fit2 = {(e["quantity"], e["kind"]): e["fitted_exponent"] for e in r2["entries"]}
    ok2 = r2["worst"] == "pass" and abs(fit2[("E_half", "poly_upper")] + 1.0) <= 0.07
    elapsed += b2.manifest["elapsed_seconds"]

    # (iii) nondegenerate m == 1, p=0, coercive single mode: exponential
    # rate alpha within 5% of 2*lambda. The decay e^{-2t} underflows
    # float64 past t ~ 354, so this case runs to t_end = 100.
    cfg3 = {
        "kind": "verify",
        "spectrum": _spectrum([1.0]),
        "m": {"kind": "table", "points": [[0.0, 1.0]], "mu": 1.0},
        "b": {"kind": "power", "p": 0.0},
        "u0": [1.0],
        "settings": {"grid": _grid(801, 100.0)},
    }
    b3 = book.run("c3_iii", cfg3)
    r3 = json.loads((b3.directory / "verify_report.json").read_text())
    exp_entries = [e for e in r3["entries"] if e["kind"] == "exp_upper" and e["quantity"] == "E_half"]
    alpha = -exp_entries[0]["fitted_exponent"]
    ok3 = r3["worst"] == "pass" and abs(alpha - 2.0) <= 0.05 * 2.0
    elapsed += b3.manifest["elapsed_seconds"]

    _report(
        3,
        "decay exponents vs predictions",
        ok1 and ok2 and ok3 and elapsed < 60.0,
        f"(i) {fitted[('E_half', 'poly_upper')]:.3f}/{fitted[('V', 'poly_upper')]:.3f}, "
        f"(ii) {fit2[('E_half', 'poly_upper')]:.3f}, (iii) alpha {alpha:.4f}, {elapsed:.1f}s",
    )


def _criterion4_cases():
    rng = np.random.default_rng(7)
    cases = []
    for i in range(20):
        p = (0.0, 0.5, 2.0)[i % 3]
        if p == 2.0:
            eps = float(np.exp(rng.uniform(math.log(3e-3), math.log(1e-1))))
        else:
            eps = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e-1))))
        n = int(rng.integers(1, 5))
        lam = np.sort(rng.uniform(0.3, 5.0, n))
        u0 = rng.normal(0.0, 1.0, n)
        u0 *= 0.8 / math.sqrt(float(u0 @ u0))
        u1 = 0.5 * rng.normal(0.0, 1.0, n)
        if i % 5 == 4:
            m_cfg = {"kind": "table", "points": [[0.0, 1.0]], "mu": 1.0}
        else:
            m_cfg = {"kind": "power", "gamma": float(rng.choice([0.5, 1.0, 2.0]))}
        cases.append((p, eps, lam, u0, u1, m_cfg))
    return cases


def test_criterion_4_hamiltonian_monotonicity_and_floor(book):
    elapsed = 0.0
    ok = True
    details = []
    for i, (p, eps, lam, u0, u1, m_cfg) in enumerate(_criterion4_cases()):
        t_end = 100.0 if p == 2.0 else 20.0
        cfg = {
            "kind": "simulate",
            "spectrum": _spectrum(lam),
            "m": m_cfg,
            "b": {"kind": "power", "p": p},
            "eps": eps,
            "u0": list(u0),
            "u1": list(u1),
            "settings": {"grid": _grid(301, t_end)},
        }
        bundle = book.run(f"c4_{i:02d}", cfg)
        report = json.loads((bundle.directory / "simulate_report.json").read_text())
        elapsed += bundle.manifest["elapsed_seconds"]
        if report["status"] != "completed":
            ok = False
            details.append(f"run {i} {report['status']}")
            continue

        # Independent recomputation of the Hamiltonian from the CSV.
        spec = kl.Spectrum(lam)
        nl = kl.harness._model_section("m", m_cfg)
        data = load_csv(bundle.directory / "trajectory.csv")
        n = spec.size
        u = np.column_stack([data[f"u_{k+1}"] for k in range(n)])
        up = np.column_stack([data[f"up_{k+1}"] for k in range(n)])
        H = np.array(
            [hamiltonian(spec, nl, eps, u[j], up[j]) for j in range(u.shape[0])]
        )
        if not np.all(H[1:] <= H[:-1] * (1.0 + 1e-8)):
            ok = False
            details.append(f"run {i} H not monotone")
        if not report["hamiltonian_monotone"]:
            ok = False
            details.append(f"run {i} solver slack violated")

        if p == 2.0:
            H0 = report["H0"]
            if report["floor_min_margin"] < -1e-8 * H0:
                ok = False
                details.append(f"run {i} floor violated")
            sigma = np.array([sobolev_norm_sq(spec, u[j], 0.5) for j in range(u.shape[0])])
            q = np.sum(up * up, axis=1) + sigma
            m_scale = max(nl.value(s) for s in sigma)
            lower = 0.5 * H0 * math.exp(-2.0 / eps) / max(1.0, m_scale)
            if not (lower > 0.0 and np.min(q) >= lower):
                ok = False
                details.append(f"run {i} non-decay bound violated")
    _report(
        4,
        "hamiltonian monotonicity and floor x20",
        ok and elapsed < 60.0,
        "; ".join(details) or f"{elapsed:.1f}s",
    )


_SWEEP_EPS = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
_SWEEP_U0 = [0.3, 0.15]
_SWEEP_U1 = [0.05, -0.08]


def test_criterion_5_perturbation_order(book):
    cfg = {
        "kind": "sweep_eps",
        "spectrum": _spectrum([1.0, 4.0]),
        "m": {"kind": "power", "gamma": 1.0},
        "b": {"kind": "power", "p": 0.0},
        "eps_list": _SWEEP_EPS,
        "u0": _SWEEP_U0,
        "u1": _SWEEP_U1,
        "settings": {"grid": _grid(401, 1.0)},
    }
    bundle = book.run("c5", cfg)
    report = json.loads((bundle.directory / "sweep_report.json").read_text())
    s_rho = report["slope_rho_sq"]
    s_rp = report["slope_r_prime_sq"]
    slopes_ok = abs(s_rho - 2.0) <= 0.3 and abs(s_rp - 2.0) <= 0.3

    # Corrector channel against the by-hand decay factor (p=0: B(t)=t).
    lam = np.array([1.0, 4.0])
    u0 = np.array(_SWEEP_U0)
    u1 = np.array(_SWEEP_U1)
    sigma0 = float(lam @ (u0 * u0))
    w0 = u1 + sigma0 * lam * u0
    corr_ok = True
    for i, eps in enumerate(_SWEEP_EPS):
        data = load_csv(bundle.directory / f"corrector_{i}.csv")
        decay = np.exp(-data["t"] / eps)
        for k in range(2):
            exact = w0[k] * decay
            err = np.abs(data[f"thetap_{k+1}"] - exact)
            if not np.all(err <= 1e-10 * np.abs(exact) + 1e-300):
                corr_ok = False
    elapsed = bundle.manifest["elapsed_seconds"]
    _report(
        5,
        "perturbation order (slope 2)",
        slopes_ok and corr_ok and elapsed < 120.0,
        f"slope rho {s_rho:.3f}, slope r' {s_rp:.3f}, corrector exact {corr_ok}, {elapsed:.1f}s",
    )


def test_criterion_6_weighted_decay_error_bounded(book):
    cfg = {
        "kind": "sweep_eps",
        "spectrum": _spectrum([1.0, 4.0]),
        "m": {"kind": "table", "points": [[0.0, 1.0]], "mu": 1.0},
        "b": {"kind": "power", "p": 0.5},
        "eps_list": _SWEEP_EPS,
        "u0": _SWEEP_U0,
        "u1": _SWEEP_U1,
        "settings": {"grid": _grid(401, 10.0)},
    }
    bundle = book.run("c6", cfg)
    report = json.loads((bundle.directory / "sweep_report.json").read_text())
    ratio = report["weighted_sup_over_eps_sq_ratio"]
    elapsed = bundle.manifest["elapsed_seconds"]
    _report(
        6,
        "weighted decay-error boundedness",
        ratio <= 10.0 and elapsed < 120.0,
        f"max/min ratio {ratio:.3f}, {elapsed:.1f}s",
    )


_DECADES_EPS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]


@pytest.mark.parametrize(
    "shape, radau_from",
    [
        # Criterion 5: b = 1, t_end 1, so B(t_end)/eps = 1/eps; eps 1e-3
        # (1000 stability-bound DP5 steps) stays below the lone threshold,
        # but every member is overdamped (b^2 = 1 >= 2.88 eps), so all
        # seven join the shared run of the Radau members.
        ({"m": {"kind": "power", "gamma": 1.0}, "b": {"kind": "power", "p": 0.0},
          "settings": {"grid": _grid(401, 1.0)}}, 1e-2),
        # Criterion 6: B(10)/eps = 4.63/eps from eps 1e-3 down; eps 1e-2
        # is overdamped up to t = 5.25 (stiff stretch 299), so it joins.
        ({"m": {"kind": "table", "points": [[0.0, 1.0]], "mu": 1.0},
          "b": {"kind": "power", "p": 0.5}, "settings": {"grid": _grid(401, 10.0)}}, 1e-2),
    ],
    ids=["criterion5_shape", "criterion6_shape"],
)
def test_sweep_over_seven_decades(tmp_path, shape, radau_from):
    # The eps^2 order holds from eps 1e-2 down to 1e-8, which only the
    # stiff path makes affordable (DP5 would take ~1e8 steps at 1e-8).
    cfg = {
        "kind": "sweep_eps",
        "spectrum": _spectrum([1.0, 4.0]),
        "eps_list": _DECADES_EPS,
        "u0": _SWEEP_U0,
        "u1": _SWEEP_U1,
        **shape,
    }
    bundle = run_plan(load_config(json.dumps(cfg)), tmp_path)
    report = json.loads((bundle.directory / "sweep_report.json").read_text())
    assert bundle.exit_code == 0
    assert set(bundle.manifest["verdicts"].values()) == {"pass"}
    assert abs(report["slope_rho_sq"] - 2.0) <= 0.3
    assert abs(report["slope_r_prime_sq"] - 2.0) <= 0.3
    methods = [bundle.manifest["solver_stats"][f"hyperbolic_{i}"]["method"]
               for i in range(len(_DECADES_EPS))]
    assert methods == ["radau" if eps <= radau_from else "dp5" for eps in _DECADES_EPS]
    for stats in bundle.manifest["solver_stats"].values():
        if stats["method"] == "radau":
            assert stats["jac_evals"] > 0 and stats["lu_decompositions"] > 0
            assert isinstance(stats["rejected"], int)  # Radau counts its rejections too
    assert bundle.manifest["solver_stats"]["parabolic"]["method"] == "dp5"


def test_criterion_7_regime_map(book):
    cfg = {
        "kind": "regime_grid",
        "grid_gammas": [0.25, 0.5, 1.0, 2.0, 4.0],
        "grid_ps": [0.0, 0.2, 0.71, 0.72, 1.0, 1.01, 1.5],
    }
    bundle = book.run("c7", cfg)
    lines = (bundle.directory / "regime_grid.csv").read_text().splitlines()[1:]
    tags = {}
    for line in lines:
        g, p, tag, _ = line.split(",")
        tags[(float(g), float(p))] = tag

    P, N, H = "parabolic", "no_mans_land", "hyperbolic"
    expected = {
        0.25: [P, N, N, N, N, H, H],
        0.5: [P, P, N, N, N, H, H],
        1.0: [P, P, P, P, P, H, H],
        2.0: [P, P, P, N, N, H, H],
        4.0: [P, P, P, P, N, H, H],
    }
    ps = [0.0, 0.2, 0.71, 0.72, 1.0, 1.01, 1.5]
    mismatches = [
        (g, p, tags[(g, p)], want)
        for g, row in expected.items()
        for p, want in zip(ps, row)
        if tags[(g, p)] != want
    ]
    elapsed = bundle.manifest["elapsed_seconds"]
    _report(
        7,
        "regime map",
        not mismatches and elapsed < 1.0,
        f"mismatches {mismatches}, {elapsed:.2f}s" if mismatches else f"{elapsed:.2f}s",
    )


def test_criterion_8_determinism(book):
    assert book.entries, "criteria 1-7 must run first"
    mismatched = []
    for name, text, bundle in book.entries:
        rerun = run_plan(load_config(text), book.base / "rerun" / name)
        csvs = [f for f in bundle.manifest["files"] if f.endswith(".csv")]
        for f in csvs:
            if (bundle.directory / f).read_bytes() != (rerun.directory / f).read_bytes():
                mismatched.append(f"{name}/{f}")
    _report(
        8,
        "byte-identical CSV payloads on rerun",
        not mismatched,
        f"{len(book.entries)} plans rechecked" if not mismatched else str(mismatched),
    )
