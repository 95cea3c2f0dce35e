"""Post-processing channels against per-sample reference formulas.

The oracles below evaluate every channel one sample at a time, with
compensated (math.fsum) modal sums. The package forms the same sums as
plain row sums of one modal_sums table per trajectory, so values may
differ in the last bits: every channel must agree at rtol 1e-12, and the
NaN sentinels must fall on the same samples.
"""

import math

import numpy as np
import pytest

from kirchlab import (
    LipschitzTable,
    PowerLawDissipation,
    PowerNonlinearity,
    Spectrum,
    apriori_margin,
    energy_suite,
    hamiltonian_floor,
    residual_norm,
)
from kirchlab.integrate import COMPLETED, Trajectory

RTOL = 1e-12
KS = (0.0, 1.0, 2.0)
DIS = PowerLawDissipation(0.5)
KINDS = ("power", "table")


def fsum_norm(lam, x, power):
    return math.fsum(lam**power * x * x)


def ref_energy_suite(traj, lam, nl, eps, ks):
    out = {}
    for i in range(traj.times.size):
        u, up = traj.u[i], traj.uprime[i]
        sigma = fsum_norm(lam, u, 1)
        c = nl.value(sigma)
        v = fsum_norm(lam, up, 0)
        one_u = fsum_norm(lam, u, 2)
        row = {}
        if eps > 0.0:
            row["H_eps"] = eps * v + nl.integral(sigma)
            for k in ks:
                row[f"E_eps_{k:g}"] = (
                    eps * fsum_norm(lam, up, k) / c + fsum_norm(lam, u, k + 1)
                    if c > 0.0
                    else math.nan
                )
            row["G_eps"] = v / (c * c) if c * c > 0.0 else math.nan
            if c > 0.0 and sigma > 0.0:
                cross = math.fsum(lam * u * up)
                gram = sigma * fsum_norm(lam, up, 1) - cross * cross
                row["P_eps"] = (eps / c) * gram / (sigma * sigma) + one_u / sigma
            else:
                row["P_eps"] = math.nan
            den_q = c * c * sigma
            row["Q_eps"] = v / den_q if den_q > 0.0 else math.nan
        for k in ks:
            row[f"E_{k:g}"] = fsum_norm(lam, u, k)
        row["P_par"] = one_u / sigma if sigma > 0.0 else math.nan
        row["c_eps"] = c
        row["v"] = v
        for name, value in row.items():
            out.setdefault(name, []).append(value)
    return {name: np.array(values) for name, values in out.items()}


def ref_apriori(traj, lam, nl, dis, eps):
    basic, plus, rhs = [], [], []
    for t, u, up in zip(traj.times, traj.u, traj.uprime):
        sigma = fsum_norm(lam, u, 1)
        norm_au = math.sqrt(fsum_norm(lam, u, 2))
        norm_up = math.sqrt(fsum_norm(lam, up, 0))
        mval = nl.value(sigma)
        mprime = nl.derivative(sigma)
        plus.append(eps * norm_au * norm_up / sigma if sigma > 0.0 else math.nan)
        if mval > 0.0:
            basic.append(eps * abs(mprime) / mval * norm_au * norm_up)
        else:
            basic.append(math.nan)
        rhs.append(dis.b(t))
    return np.array(basic), np.array(plus), np.array(rhs)


def ref_hamiltonian(traj, lam, nl, eps):
    return np.array(
        [
            eps * fsum_norm(lam, up, 0) + nl.integral(fsum_norm(lam, u, 1))
            for u, up in zip(traj.u, traj.uprime)
        ]
    )


def ref_residual(traj, lam, nl, dis, eps):
    ts = traj.times
    worst = 0.0
    for i in range(1, ts.size - 1):
        h1, h2 = ts[i] - ts[i - 1], ts[i + 1] - ts[i]
        w = (-h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2), h1 / (h2 * (h1 + h2)))
        x = traj.u if eps == 0.0 else traj.uprime
        dx = w[0] * x[i - 1] + w[1] * x[i] + w[2] * x[i + 1]
        u, up = traj.u[i], traj.uprime[i]
        drive = nl.value(fsum_norm(lam, u, 1)) * (lam * u)
        if eps == 0.0:
            res = dis.b(ts[i]) * dx + drive
        else:
            res = eps * dx + dis.b(ts[i]) * up + drive
        scale = 1.0 + math.sqrt(fsum_norm(lam, u, 0)) + math.sqrt(fsum_norm(lam, up, 0))
        worst = max(worst, math.sqrt(math.fsum(res * res)) / scale)
    return worst


def random_case(n, kind):
    """A random trajectory with a sample of vanishing sigma (row 3) and,
    for the table nonlinearity, a sample with sigma > 0 but m(sigma) = 0
    (row 5)."""
    rng = np.random.default_rng([n, KINDS.index(kind)])
    spec = Spectrum(np.sort(rng.uniform(0.1, 5.0, n)))
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.0, 23))))
    u = rng.normal(size=(24, n))
    up = rng.normal(size=(24, n))
    u[3] = 0.0
    u[5] *= 1e-3
    if kind == "power":
        nl = PowerNonlinearity(0.5)
    else:
        s5 = fsum_norm(spec.eigenvalues, u[5], 1)
        nl = LipschitzTable(((0.0, 0.0), (2.0 * s5, 0.0), (4.0 * s5, 1.5)))
        assert nl.value(s5) == 0.0
    return Trajectory(spec, times, u, up, COMPLETED), spec, nl


CASES = [(n, kind) for n in (1, 8, 512) for kind in KINDS]


@pytest.mark.parametrize("n,kind", CASES)
@pytest.mark.parametrize("eps", [0.3, 0.0])
def test_energy_suite_matches_reference(n, kind, eps):
    traj, spec, nl = random_case(n, kind)
    got = energy_suite(traj, nl, eps, KS)
    ref = ref_energy_suite(traj, spec.eigenvalues, nl, eps, KS)
    assert list(got.channels) == list(ref)
    assert np.isnan(ref["P_par"][3])
    if eps > 0.0 and kind == "table":
        assert np.isnan(ref["E_eps_0"][5]) and not np.isnan(ref["P_par"][5])
    for name, values in ref.items():
        np.testing.assert_allclose(got[name], values, rtol=RTOL, atol=0.0, err_msg=name)


@pytest.mark.parametrize("n,kind", CASES)
def test_apriori_margin_matches_reference(n, kind):
    traj, spec, nl = random_case(n, kind)
    got = apriori_margin(traj, nl, DIS, 0.3)
    basic, plus, rhs = ref_apriori(traj, spec.eigenvalues, nl, DIS, 0.3)
    assert np.isnan(basic[3]) and np.isnan(plus[3])
    np.testing.assert_allclose(got["lhs_basic"], basic, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(got["lhs_basic_plus"], plus, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(got["b"], rhs, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("n,kind", CASES)
def test_hamiltonian_floor_matches_reference(n, kind):
    traj, spec, nl = random_case(n, kind)
    eps = 0.3
    got = hamiltonian_floor(energy_suite(traj, nl, eps), DIS, eps)
    H = ref_hamiltonian(traj, spec.eigenvalues, nl, eps)
    floor = H[0] * np.exp([-2.0 * DIS.primitive(t) / eps for t in traj.times])
    np.testing.assert_allclose(got["H"], H, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(got["floor"], floor, rtol=RTOL, atol=0.0)
    # The margin is a difference that can cancel: compare it on the scale of H.
    assert np.all(np.abs(got["margin"] - (H - floor)) <= RTOL * np.abs(H))


@pytest.mark.parametrize("n,kind", CASES)
@pytest.mark.parametrize("eps", [0.3, 0.0])
def test_residual_norm_matches_reference(n, kind, eps):
    traj, spec, nl = random_case(n, kind)
    got = residual_norm(traj, nl, DIS, eps)
    ref = ref_residual(traj, spec.eigenvalues, nl, DIS, eps)
    assert got == pytest.approx(ref, rel=RTOL, abs=0.0)
