import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp
from scipy.integrate._ivp import radau
from scipy.sparse import csc_matrix

import kirchlab as kl
from kirchlab import (
    BLEW_UP,
    COMPLETED,
    STEP_UNDERFLOW,
    IntegratorSettings,
    LipschitzTable,
    OutputGrid,
    PowerLawDissipation,
    PowerNonlinearity,
    Spectrum,
    compute_w0,
    corrector,
    residual_norm,
    solve_hyperbolic,
    solve_hyperbolic_shared,
    solve_parabolic_direct,
    solve_parabolic_reparam,
)
from kirchlab.spectral import sigma_half

from helpers import hamiltonian, stiffness_matrix

M_ONE = LipschitzTable(((0.0, 1.0),))  # m == 1
P0 = PowerLawDissipation(0.0)


def settings(kind="log", count=401, t_end=100.0, **kw):
    return IntegratorSettings(grid=OutputGrid(kind, count, t_end), **kw)


class TestOutputGrid:
    def test_log_grid_shape(self):
        t = OutputGrid("log", 5, 99.0).times()
        assert t[0] == 0.0 and t[-1] == 99.0
        np.testing.assert_allclose(np.diff(np.log1p(t)), np.log(10.0) / 2.0, rtol=1e-12)

    def test_linear_grid(self):
        t = OutputGrid("linear", 3, 2.0).times()
        np.testing.assert_allclose(t, [0.0, 1.0, 2.0])

    def test_validation(self):
        with pytest.raises(kl.ConfigurationError):
            OutputGrid("log", 1, 1.0)
        with pytest.raises(kl.ConfigurationError):
            OutputGrid("weird", 10, 1.0)


class TestHyperbolic:
    def test_damped_oscillator_closed_form(self):
        # eps=1, b=1, m=1, lambda=1: u'' + u' + u = 0, u(0)=1, u'(0)=0.
        # By hand: u = e^{-t/2}(cos wt + sin(wt)/(2w)), u' = -e^{-t/2} sin(wt)/w,
        # with w = sqrt(3)/2.
        traj = solve_hyperbolic(
            Spectrum([1.0]), M_ONE, P0, 1.0, [1.0], [0.0], settings("linear", 201, 20.0)
        )
        w = math.sqrt(3.0) / 2.0
        t = traj.times
        u_exact = np.exp(-t / 2) * (np.cos(w * t) + np.sin(w * t) / (2 * w))
        up_exact = -np.exp(-t / 2) * np.sin(w * t) / w
        assert traj.status == COMPLETED
        assert np.max(np.abs(traj.u[:, 0] - u_exact)) < 1e-8
        assert np.max(np.abs(traj.uprime[:, 0] - up_exact)) < 1e-8

    def test_stationary_zero(self):
        with pytest.warns(UserWarning, match="degenerate"):
            traj = solve_hyperbolic(
                Spectrum([1.0, 2.0]),
                PowerNonlinearity(1.0),
                P0,
                0.5,
                [0.0, 0.0],
                [0.0, 0.0],
                settings(t_end=5.0),
            )
        assert np.all(traj.u == 0.0)
        assert np.all(traj.uprime == 0.0)

    def test_zero_mode_preserved_exactly(self):
        traj = solve_hyperbolic(
            Spectrum([1.0, 4.0]),
            PowerNonlinearity(1.0),
            P0,
            0.1,
            [1.0, 0.0],
            [0.0, 0.0],
            settings(t_end=5.0),
        )
        assert np.all(traj.u[:, 1] == 0.0)
        assert np.all(traj.uprime[:, 1] == 0.0)

    def test_hamiltonian_monotone_along_samples(self):
        spec = Spectrum([1.0, 3.0])
        nl = PowerNonlinearity(1.0)
        traj = solve_hyperbolic(
            spec, nl, PowerLawDissipation(0.5), 1e-2, [1.0, -0.4], [0.3, 0.2],
            settings(t_end=50.0),
        )
        H = np.array(
            [
                hamiltonian(spec, nl, 1e-2, traj.u[i], traj.uprime[i])
                for i in range(traj.times.size)
            ]
        )
        assert traj.status == COMPLETED
        assert np.all(H[1:] <= H[:-1] * (1.0 + 10.0 * 1e-10))

    def test_blowup_reported_as_data(self):
        # The first oscillation converts stiffness energy into |u'|^2 of
        # order |A^{1/2}u0|^2 * sqrt(lambda m), past a low threshold.
        traj = solve_hyperbolic(
            Spectrum([1.0]),
            PowerNonlinearity(1.0),
            P0,
            1.0,
            [3.0],
            [0.0],
            settings(t_end=10.0, blowup_threshold=20.0),
        )
        assert traj.status == BLEW_UP
        assert traj.t_stop is not None and traj.t_stop < 10.0
        assert traj.times[-1] == traj.t_stop
        state_sq = traj.u[-1] @ traj.u[-1] + traj.uprime[-1] @ traj.uprime[-1]
        assert state_sq > 20.0

    def test_step_underflow_reported(self, monkeypatch):
        # The right-hand side turns NaN once the solution has decayed into
        # the hole, so no step from there is accepted.
        spec, _, dis, u0, u1 = SWEEP_SHAPE
        force_stepper(monkeypatch, "dp5")
        traj = solve_hyperbolic(
            spec, HoledNonlinearity(), dis, 1e-2, 2.0 * u0, u1, settings(t_end=10.0)
        )
        assert traj.stats.method == "dp5"
        assert traj.status == STEP_UNDERFLOW
        assert 0.0 < traj.t_stop < 10.0
        assert traj.times[-1] == traj.t_stop
        assert np.all(np.diff(traj.times) > 0.0)

    @pytest.mark.parametrize("solver", ["hyperbolic", "reparam", "direct"])
    def test_overflowing_m_at_launch_reported(self, solver):
        # m(2) = 2^1e6 overflows: the launch derivative is not finite
        # (inf * 0 on the zero mode), so no step can be taken.
        args = (Spectrum([0.0, 2.0]), PowerNonlinearity(1e6), P0)
        s = settings(count=5, t_end=1.0)
        with np.errstate(invalid="ignore"):
            if solver == "hyperbolic":
                traj = solve_hyperbolic(*args, 0.1, [0.0, 1.0], [0.0, 0.0], s)
            elif solver == "reparam":
                traj = solve_parabolic_reparam(*args, [0.0, 1.0], s)
            else:
                traj = solve_parabolic_direct(*args, [0.0, 1.0], s)
        assert traj.status == STEP_UNDERFLOW
        assert traj.t_stop == 0.0 and traj.times.tolist() == [0.0]

    def test_eps_consistency_monotone(self):
        # On a fixed horizon the gap to the first-order limit shrinks with eps.
        spec = Spectrum([1.0])
        nl = PowerNonlinearity(1.0)
        s = settings(count=201, t_end=1.0)
        par = solve_parabolic_reparam(spec, nl, P0, [1.0], s)
        sups = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            hyp = solve_hyperbolic(spec, nl, P0, eps, [1.0], [0.0], s)
            sups.append(np.max(np.abs(hyp.u - par.u)))
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_deterministic_outputs(self):
        kwargs = (Spectrum([1.0, 2.0]), PowerNonlinearity(2.0), PowerLawDissipation(0.5))
        a = solve_hyperbolic(*kwargs, 1e-2, [1.0, 0.5], [0.0, 0.1], settings(t_end=10.0))
        b = solve_hyperbolic(*kwargs, 1e-2, [1.0, 0.5], [0.0, 0.1], settings(t_end=10.0))
        assert np.array_equal(a.u, b.u) and np.array_equal(a.uprime, b.uprime)


def dop853_reference(spec, nl, dis, eps, u0, u1, times, rtol=1e-12):
    """Independent tight reference: scipy's DOP853 on the same system,
    as a (samples, 2N) array of (u, u') at ``times``."""
    lam = spec.eigenvalues
    n = spec.size

    def f(t, y):
        u, w = y[:n], y[n:]
        m = nl.value(math.fsum(lam * u * u))
        return np.concatenate([w, -(dis.b(t) * w + m * lam * u) / eps])

    sol = solve_ivp(
        f, (0.0, times[-1]), np.concatenate([u0, u1]), method="DOP853",
        rtol=rtol, atol=1e-14, t_eval=times,
    )
    assert sol.success
    return sol.y.T


class CountingNonlinearity:
    """Delegates to a nonlinearity and counts the m evaluations."""

    def __init__(self, nl):
        self.nl = nl
        self.calls = 0

    def value(self, sigma):
        self.calls += 1
        return self.nl.value(sigma)


class TestStepCap:
    """The cap follows m at the current state: a fixed fraction of the
    fastest oscillation period, which shortens as |A^(1/2)u|^2 grows and
    lengthens as it decays."""

    N = 64
    LAM = np.arange(1, N + 1, dtype=float) ** 2

    def run_against_reference(self, u0, u1, t_end):
        spec = Spectrum(self.LAM)
        nl = PowerNonlinearity(1.0)
        dis = PowerLawDissipation(0.5)
        traj = solve_hyperbolic(spec, nl, dis, 1e-2, u0, u1, settings(count=201, t_end=t_end))
        assert traj.status == COMPLETED
        ref = dop853_reference(spec, nl, dis, 1e-2, u0, u1, traj.times)
        dev = np.abs(np.hstack([traj.u, traj.uprime]) - ref)
        assert np.max(dev) <= 1e-8 * math.sqrt(u0 @ u0 + u1 @ u1)
        return traj, ref

    def test_barely_excited_top_mode_resolved(self):
        # Energy in mode 1; the top mode (period ~ 1e-2) carries 1e-8.
        u0 = np.zeros(self.N)
        u0[0], u0[-1] = 1.0, 1e-8
        traj, ref = self.run_against_reference(u0, np.zeros(self.N), 1.0)
        assert np.max(np.abs(traj.u[:, -1] - ref[:, self.N - 1])) <= 1e-4 * 1e-8

    def test_cap_tightens_as_sigma_grows(self):
        # Near-zero launch data give a launch cap of about max_step_factor
        # whatever lambda_max is; the velocity then drives sigma up by
        # more than ten orders of magnitude and the cap must follow.
        u0 = np.full(self.N, 1e-8)
        u1 = np.zeros(self.N)
        u1[0] = 300.0
        traj, _ = self.run_against_reference(u0, u1, 1.0)
        sigma = traj.u**2 @ self.LAM
        assert sigma[0] < 1e-10 and sigma.max() > 1.0
        assert traj.stats.cap_limited > traj.stats.accepted / 2

    def test_decay_run_not_cap_dominated(self):
        # The hyperbolic-decay benchmark shape: m = s, b = (1+t)^-1/2.
        spec = Spectrum(np.arange(1, 9, dtype=float) ** 2)
        dis = PowerLawDissipation(0.5)
        u0 = 1.0 / np.arange(1, 9) ** 2
        u1 = 0.5 * np.ones(8) / math.sqrt(8.0)
        s = settings(count=801)
        for eps in (1e-1, 1e-2):
            nl = CountingNonlinearity(PowerNonlinearity(1.0))
            traj = solve_hyperbolic(spec, nl, dis, eps, u0, u1, s)
            stats = traj.stats
            assert traj.status == COMPLETED
            assert stats.accepted == stats.cap_limited + stats.error_limited
            assert stats.rhs_evals == 2 + 6 * (stats.accepted + stats.rejected)
            # The cap adds no m evaluation: one launch value, one per rhs call.
            assert nl.calls == 1 + stats.rhs_evals
            # 14% at eps 1e-1 and 0% at eps 1e-2; a cap frozen at launch
            # sets more than 90% of the steps.
            assert stats.cap_limited < 0.2 * stats.accepted
            # Samples are read from dense output between integration nodes.
            ref = dop853_reference(spec, nl.nl, dis, eps, u0, u1, traj.times, rtol=1e-13)
            dev = np.abs(np.hstack([traj.u, traj.uprime]) - ref)
            assert np.max(dev) <= 1e-9 * math.sqrt(u0 @ u0 + u1 @ u1)
            H = np.array(
                [hamiltonian(spec, nl.nl, eps, u, up) for u, up in zip(traj.u, traj.uprime)]
            )
            assert np.all(H[1:] <= H[:-1] * (1.0 + 10.0 * s.rel_tol))


class TestParabolicReparam:
    def test_heat_semigroup(self):
        spec = Spectrum([1.0, 4.0])
        traj = solve_parabolic_reparam(spec, M_ONE, P0, [1.0, -0.5], settings(t_end=10.0))
        np.testing.assert_allclose(traj.alpha, traj.times, rtol=0, atol=1e-12)
        expected = np.array([1.0, -0.5])[None, :] * np.exp(
            -np.outer(traj.times, spec.eigenvalues)
        )
        np.testing.assert_allclose(traj.u, expected, rtol=1e-9, atol=1e-300)

    def test_closed_form_cubic(self):
        # u' = -u^3 gives u(t)^2 = 1/(1+2t).
        traj = solve_parabolic_reparam(
            Spectrum([1.0]), PowerNonlinearity(1.0), P0, [1.0], settings(count=400, t_end=1e4)
        )
        exact = 1.0 / (1.0 + 2.0 * traj.times)
        rel = np.abs(traj.u[:, 0] ** 2 - exact) / exact
        assert np.max(rel) < 1e-8

    def test_closed_form_weak_dissipation(self):
        # u' = -(1+t)^(1/2) u^3 gives u^2 = [1 + (4/3)((1+t)^{3/2}-1)]^{-1}.
        traj = solve_parabolic_reparam(
            Spectrum([1.0]),
            PowerNonlinearity(1.0),
            PowerLawDissipation(0.5),
            [1.0],
            settings(count=400, t_end=100.0),
        )
        exact = 1.0 / (1.0 + (4.0 / 3.0) * ((1.0 + traj.times) ** 1.5 - 1.0))
        rel = np.abs(traj.u[:, 0] ** 2 - exact) / exact
        assert np.max(rel) < 1e-8

    def test_reparametrization_exactness(self):
        spec = Spectrum([0.5, 1.0, 2.5])
        u0 = np.array([1.0, -0.7, 0.3])
        traj = solve_parabolic_reparam(
            spec, PowerNonlinearity(2.0), PowerLawDissipation(1.0), u0, settings(t_end=1e3)
        )
        # u_k e^{lambda_k alpha} must reproduce u0_k wherever it is finite.
        for k, lam in enumerate(spec.eigenvalues):
            back = traj.u[:, k] * np.exp(lam * traj.alpha)
            ok = np.isfinite(back)
            np.testing.assert_allclose(back[ok], u0[k], rtol=1e-12)

    # Seed 5 separates a plain from a compensated sum of these terms,
    # seed 13 the orders (lam * u0) * u0 and lam * (u0 * u0).
    @pytest.mark.parametrize("seed", [5, 13])
    def test_launch_velocity_from_sigma_half_bit_for_bit(self, seed):
        # At alpha = 0 the clock's sigma is sigma_half(lam, u0) exactly, so
        # u'(0) = -(m(sigma0) / b(0)) lam u0 as the corrector's w0 has it.
        rng = np.random.default_rng(seed)
        spec = Spectrum(np.sort(rng.uniform(0.1, 100.0, 64)))
        u0 = rng.normal(size=64)
        nl, dis = PowerNonlinearity(1.0), PowerLawDissipation(0.5)
        traj = solve_parabolic_reparam(spec, nl, dis, u0, settings(count=11, t_end=1.0))
        lam = spec.eigenvalues
        sigma0 = np.array([sigma_half(lam, u0)])
        aprime0 = nl.value(sigma0) / dis.b(np.zeros(1))
        np.testing.assert_array_equal(traj.uprime[0], -aprime0 * lam * u0)

    def test_alpha_nondecreasing_from_zero(self):
        traj = solve_parabolic_reparam(
            Spectrum([1.0]), PowerNonlinearity(0.5), PowerLawDissipation(0.5), [2.0],
            settings(t_end=50.0),
        )
        assert traj.alpha[0] == 0.0
        assert np.all(np.diff(traj.alpha) >= 0.0)


class TestParabolicDirect:
    def test_trivial_exponential(self):
        # Relative accuracy degrades to the absolute-tolerance floor as
        # the solution decays; compare against the initial scale.
        traj = solve_parabolic_direct(
            Spectrum([2.0]), M_ONE, P0, [1.0], settings(count=201, t_end=10.0)
        )
        assert np.max(np.abs(traj.u[:, 0] - np.exp(-2.0 * traj.times))) < 1e-9

    def test_step_end_sample_is_the_state(self):
        # t_end ends the last step, so its sample is RK45's state itself,
        # not the dense-output polynomial evaluated there.
        spec, dis = Spectrum([0.3, 1.0, 4.0, 9.7]), PowerLawDissipation(0.5)
        u0, s = np.array([2.0, 1.0, -0.5, 0.3]), settings("linear", 3, 5.0)
        traj = solve_parabolic_direct(spec, M_ONE, dis, u0, s)
        lam = spec.eigenvalues
        ref = RK45(
            lambda t, y: -(1.0 / dis.b(t)) * (lam * y), 0.0, u0, 5.0,
            rtol=s.rel_tol, atol=s.abs_tol,
        )
        while ref.status == "running":
            ref.step()
        np.testing.assert_array_equal(traj.u[-1], ref.y)

    def test_zero_data(self):
        traj = solve_parabolic_direct(
            Spectrum([1.0, 2.0]), PowerNonlinearity(1.0), P0, [0.0, 0.0], settings(t_end=5.0)
        )
        assert np.all(traj.u == 0.0) and np.all(traj.uprime == 0.0)

    def test_oracle_equivalence_random(self):
        from helpers import random_parabolic_instance

        rng = np.random.default_rng(7)
        s = settings(count=301, t_end=100.0)
        for _ in range(6):
            spec, nl, dis, u0 = random_parabolic_instance(rng)
            tr = solve_parabolic_reparam(spec, nl, dis, u0, s)
            td = solve_parabolic_direct(spec, nl, dis, u0, s)
            assert tr.status == COMPLETED and td.status == COMPLETED
            scale = math.sqrt(float(u0 @ u0))
            assert np.max(np.abs(tr.u - td.u)) / scale < 1e-6


class TestCorrector:
    def test_constant_b_closed_form(self):
        # eps=0.1, w0=(1): theta = 0.1(1-e^{-10t}), theta' = e^{-10t}.
        times = np.linspace(0.0, 2.0, 21)
        corr = corrector(
            Spectrum([1.0]), PowerNonlinearity(1.0), P0, 0.1, [0.0], [1.0], times
        )
        np.testing.assert_allclose(
            corr.theta[:, 0], 0.1 * (1.0 - np.exp(-10.0 * times)), rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            corr.theta_prime[:, 0], np.exp(-10.0 * times), rtol=1e-12, atol=1e-300
        )

    def test_zero_velocity_jump(self):
        times = np.linspace(0.0, 1.0, 5)
        corr = corrector(
            Spectrum([1.0]),
            LipschitzTable(((0.0, 1.0),)),
            P0,
            0.5,
            [1.0],
            [-1.0],
            times,
        )
        assert np.all(corr.theta == 0.0) and np.all(corr.theta_prime == 0.0)

    def test_harmonic_decay_quadrature(self):
        # p=1, eps=1: theta' = w0/(1+t) and theta = w0 log(1+t).
        times = np.linspace(0.0, 5.0, 26)
        spec = Spectrum([1.0])
        dis = PowerLawDissipation(1.0)
        corr = corrector(spec, PowerNonlinearity(1.0), dis, 1.0, [0.0], [1.0], times)
        np.testing.assert_allclose(corr.theta_prime[:, 0], 1.0 / (1.0 + times), rtol=1e-12)
        np.testing.assert_allclose(corr.theta[:, 0], np.log1p(times), atol=1e-12)

    def test_initial_conditions(self):
        corr = corrector(
            Spectrum([1.0, 2.0]),
            PowerNonlinearity(1.0),
            PowerLawDissipation(0.5),
            0.01,
            [1.0, 1.0],
            [0.5, -0.5],
            OutputGrid("log", 101, 10.0).times(),
        )
        w0 = kl.compute_w0(
            Spectrum([1.0, 2.0]), PowerNonlinearity(1.0), PowerLawDissipation(0.5),
            [1.0, 1.0], [0.5, -0.5],
        )
        assert np.all(corr.theta[0] == 0.0)
        np.testing.assert_array_equal(corr.theta_prime[0], w0)


class TestResidual:
    def test_stationary_zero(self):
        traj = kl.Trajectory(
            Spectrum([1.0]),
            np.array([0.0, 1.0, 2.0]),
            np.zeros((3, 1)),
            np.zeros((3, 1)),
            COMPLETED,
        )
        assert residual_norm(traj, Spectrum([1.0]), PowerNonlinearity(1.0), P0, 1.0) == 0.0

    def test_oscillator_self_consistency(self):
        traj = solve_hyperbolic(
            Spectrum([1.0]), M_ONE, P0, 1.0, [1.0], [0.0], settings("log", 801, 20.0)
        )
        assert residual_norm(traj, Spectrum([1.0]), M_ONE, P0, 1.0) <= 1e-4

    def test_detects_corruption(self):
        traj = solve_hyperbolic(
            Spectrum([1.0]), M_ONE, P0, 1.0, [1.0], [0.0], settings("log", 801, 20.0)
        )
        traj.u[len(traj.times) // 2, 0] += 0.1
        assert residual_norm(traj, Spectrum([1.0]), M_ONE, P0, 1.0) > 1e-2

    def test_parabolic_residual(self):
        traj = solve_parabolic_reparam(
            Spectrum([1.0]), PowerNonlinearity(1.0), P0, [1.0], settings("log", 801, 100.0)
        )
        assert residual_norm(traj, Spectrum([1.0]), PowerNonlinearity(1.0), P0, 0.0) <= 1e-4

    def test_too_few_samples(self):
        traj = kl.Trajectory(
            Spectrum([1.0]), np.array([0.0, 1.0]), np.zeros((2, 1)), np.zeros((2, 1)),
            COMPLETED,
        )
        with pytest.raises(ValueError):
            residual_norm(traj, Spectrum([1.0]), PowerNonlinearity(1.0), P0, 1.0)


def force_stepper(monkeypatch, method):
    monkeypatch.setattr(kl.integrate, "_stepper", lambda *args: method)


# Stiff-path shapes, all with b = (1+t)^-1/2 and |A^(1/2)u0|^2 = 0.18, so
# the overdamped condition holds from eps 1e-3 on at t_end 10: the
# eps-sweep benchmark shape (lambda 1, 4; m = 1) and a nonlinear one
# (m = s, N = 8, lambda = k^2).
SWEEP_SHAPE = (
    Spectrum([1.0, 4.0]), M_ONE, PowerLawDissipation(0.5),
    np.array([0.3, 0.15]), np.array([0.05, -0.08]),
)
_LAM8 = np.arange(1, 9, dtype=float) ** 2
_U8 = 1.0 / np.arange(1, 9) ** 2
NONLINEAR_SHAPE = (
    Spectrum(_LAM8), PowerNonlinearity(1.0), PowerLawDissipation(0.5),
    _U8 * math.sqrt(0.18 / (_LAM8 @ (_U8 * _U8))), np.full(8, 0.1 / math.sqrt(8.0)),
)
# Two modes with m = s: Newton needs the rank-one m' term of the
# Jacobian here (about 360 LU factorisations with it at eps 1e-5, 7700
# without).
KIRCHHOFF2_SHAPE = (
    Spectrum([1.0, 4.0]), PowerNonlinearity(1.0), PowerLawDissipation(0.5),
    np.array([0.3, 0.15]), np.array([0.05, -0.08]),
)
SHAPES = {"sweep": SWEEP_SHAPE, "nonlinear": NONLINEAR_SHAPE, "kirchhoff2": KIRCHHOFF2_SHAPE}


class HoledNonlinearity:
    """m = 1 for sigma >= 0.05 and NaN below: a right-hand side that
    turns non-finite once the solution has decayed far enough."""

    mu = 0.0

    def value(self, sigma):
        return 1.0 if sigma >= 0.05 else math.nan

    def derivative(self, sigma):
        return 0.0


class TestStiffPath:
    """Radau IIA for overdamped small-eps runs, checked against the DP5
    driver and scipy's DOP853 at rtol 1e-12."""

    @pytest.mark.parametrize("shape", ["sweep", "nonlinear"])
    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_agrees_with_dp5_and_dop853(self, monkeypatch, shape, eps):
        spec, nl, dis, u0, u1 = SHAPES[shape]
        s = settings(count=201, t_end=2.0)
        force_stepper(monkeypatch, "radau")
        stiff = solve_hyperbolic(spec, nl, dis, eps, u0, u1, s)
        force_stepper(monkeypatch, "dp5")
        dp5 = solve_hyperbolic(spec, nl, dis, eps, u0, u1, s)
        assert stiff.status == dp5.status == COMPLETED
        assert (stiff.stats.method, dp5.stats.method) == ("radau", "dp5")
        np.testing.assert_array_equal(stiff.times, dp5.times)
        ref = dop853_reference(spec, nl, dis, eps, u0, u1, stiff.times)
        got = np.hstack([stiff.u, stiff.uprime])
        scale = math.sqrt(u0 @ u0 + u1 @ u1)
        assert np.max(np.abs(got - np.hstack([dp5.u, dp5.uprime]))) <= 1e-9 * scale
        assert np.max(np.abs(got - ref)) <= 1e-9 * scale

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    def test_cost_independent_of_eps(self, shape, eps):
        # DP5 would need ~B(10)/eps = 4.6e6 / 4.6e8 stability-bound steps.
        spec, nl, dis, u0, u1 = SHAPES[shape]
        traj = solve_hyperbolic(spec, nl, dis, eps, u0, u1, settings(count=401, t_end=10.0))
        assert traj.status == COMPLETED
        assert traj.stats.method == "radau"
        assert traj.stats.rhs_evals < 30000
        assert traj.stats.lu_decompositions < 2000

    def test_blowup_reported_as_data(self):
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        traj = solve_hyperbolic(
            spec, nl, dis, 1e-4, u0, u1, settings(t_end=10.0, blowup_threshold=0.01)
        )
        assert traj.stats.method == "radau"
        assert traj.status == BLEW_UP
        assert traj.t_stop is not None and 0.0 < traj.t_stop < 10.0
        assert traj.times[-1] == traj.t_stop
        assert traj.u[-1] @ traj.u[-1] + traj.uprime[-1] @ traj.uprime[-1] > 0.01

    def test_step_underflow_reported(self):
        spec, _, dis, u0, u1 = SWEEP_SHAPE
        traj = solve_hyperbolic(
            spec, HoledNonlinearity(), dis, 1e-4, 2.0 * u0, u1, settings(t_end=10.0)
        )
        assert traj.stats.method == "radau"
        assert traj.status == STEP_UNDERFLOW
        assert 0.0 < traj.t_stop < 10.0
        assert traj.times[-1] == traj.t_stop
        assert np.all(np.diff(traj.times) > 0.0)

    def test_deterministic_outputs(self):
        spec, nl, dis, u0, u1 = NONLINEAR_SHAPE
        a = solve_hyperbolic(spec, nl, dis, 1e-5, u0, u1, settings(count=201, t_end=10.0))
        b = solve_hyperbolic(spec, nl, dis, 1e-5, u0, u1, settings(count=201, t_end=10.0))
        assert a.stats.method == "radau"
        assert np.array_equal(a.u, b.u) and np.array_equal(a.uprime, b.uprime)
        assert a.stats == b.stats

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_zero_mode_preserved_exactly(self, gamma):
        traj = solve_hyperbolic(
            Spectrum([1.0, 4.0, 9.0]), PowerNonlinearity(gamma), P0, 1e-4,
            [0.5, 0.0, 0.2], [0.0, 0.0, 0.1], settings(count=101, t_end=5.0),
        )
        assert traj.status == COMPLETED and traj.stats.method == "radau"
        assert np.all(traj.u[:, 1] == 0.0) and np.all(traj.uprime[:, 1] == 0.0)

    def test_hamiltonian_monotone_along_samples(self):
        spec, nl, dis, u0, u1 = NONLINEAR_SHAPE
        eps = 1e-4
        traj = solve_hyperbolic(spec, nl, dis, eps, u0, u1, settings(count=801, t_end=10.0))
        assert traj.status == COMPLETED and traj.stats.method == "radau"
        H = np.array(
            [hamiltonian(spec, nl, eps, u, up) for u, up in zip(traj.u, traj.uprime)]
        )
        assert np.all(H[1:] <= H[:-1] * (1.0 + 10.0 * 1e-10))

    @pytest.mark.parametrize(
        "lam_max, m0, t_end, eps, method",
        [
            # hyperbolic-decay benchmark plans: underdamped, B/eps 181 and 1810.
            (64.0, 1.0, 100.0, 1e-1, "dp5"),
            (64.0, 1.0, 100.0, 1e-2, "dp5"),
            # eps-sweep benchmark members: B/eps 463, 1543, 4633, 15433, 46330.
            (4.0, 1.0, 10.0, 1e-2, "dp5"),
            (4.0, 1.0, 10.0, 3e-3, "dp5"),
            (4.0, 1.0, 10.0, 1e-3, "radau"),
            (4.0, 1.0, 10.0, 3e-4, "radau"),
            (4.0, 1.0, 10.0, 1e-4, "radau"),
            # Underdamped at the horizon although B/eps = 18100: oscillation,
            # not stability, bounds the explicit steps.
            (64.0, 1.0, 100.0, 1e-3, "dp5"),
        ],
    )
    def test_selector_routing(self, lam_max, m0, t_end, eps, method):
        assert kl.integrate._stepper(eps, lam_max, m0, PowerLawDissipation(0.5), t_end) == method


# The stiff direct-path shape: N=3, a decreasing m table (kappa < 0),
# b = (1+t)^-1.999, t_end 100. DP5 needs about 4.5M rhs evaluations here.
_FOUND_LIMIT = {
    "kind": "limit",
    "spectrum": {"kind": "power", "a": 1.753, "q": 0.729, "n": 3},
    "m": {"kind": "table", "points": [[0, 1.597], [1, 1]]},
    "b": {"kind": "power", "p": 1.999},
    "u0": [-1.0 / 3.0, -1.0, 0.621],
}


def _wide_limit(n):
    # The wide-spectrum benchmark's limit plan (lambda_k = k, m = s) at
    # its full and tiny sizes.
    return {
        "kind": "limit",
        "spectrum": {"kind": "power", "a": 1.0, "q": 1.0, "n": n},
        "m": {"kind": "power", "gamma": 1.0},
        "b": {"kind": "power", "p": 0.5},
        "u0": list(1.0 / np.arange(1.0, n + 1.0) ** 2),
        "settings": {"grid": {"kind": "log", "count": 81, "t_end": 1e4}},
    }


def _plan(cfg):
    return kl.harness.load_config(json.dumps(cfg))


def _direct_args(cfg):
    plan = _plan(cfg)
    return plan.spectrum, plan.nl, plan.dis, plan.u0, plan.settings


def true_jacobian_lu(monkeypatch, jac):
    """Hand every Radau run the true Jacobian ``jac(t, y)`` and scipy's
    own LU, in place of the scalar Newton matrix and the closed-form
    solves."""

    class TrueJacobianRadau(radau.Radau):
        def __init__(self, *args, **kw):
            super().__init__(*args, **dict(kw, jac=jac))

    monkeypatch.setattr(kl.integrate, "Radau", TrueJacobianRadau)
    monkeypatch.setattr(kl.integrate, "_closed_form_newton", lambda *args: None)


def hyperbolic_jacobian(spec, nl, dis, eps):
    """The true Jacobian [[0, I], [-K, -(b/eps) I]] of a lone second-order run."""
    lam, n = spec.eigenvalues, spec.size
    eye = np.eye(n)

    def jac(t, y):
        K = stiffness_matrix(nl, lam, y[:n], eps)
        return np.block([[np.zeros((n, n)), eye], [-K, -(dis.b(t) / eps) * eye]])

    return jac


def refuse_scipy_lu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy's LU called on a stiff run")

    for name in ("lu_factor", "lu_solve", "splu"):
        monkeypatch.setattr(radau, name, refuse)


def record_newton_matrices(monkeypatch):
    """A list that gets the shape of every Newton matrix reaching the
    hook ``lu`` of a Radau run started afterwards."""
    shapes = []
    install = kl.integrate._closed_form_newton

    def spy(solver, linearise, factor):
        install(solver, linearise, factor)
        lu = solver.lu

        def recording_lu(A):
            shapes.append(np.shape(A))
            return lu(A)

        solver.lu = recording_lu

    monkeypatch.setattr(kl.integrate, "_closed_form_newton", spy)
    return shapes


def _stiff_runs(kind):
    """A lone, direct or shared stiff run, as a list of trajectories."""
    if kind == "lone":
        spec, nl, dis, u0, u1 = KIRCHHOFF2_SHAPE
        return [solve_hyperbolic(spec, nl, dis, 1e-4, u0, u1, settings(count=101, t_end=10.0))]
    if kind == "direct":
        return [solve_parabolic_direct(*_direct_args(_FOUND_LIMIT))]
    spec, nl, dis, u0, u1 = SWEEP_SHAPE
    return solve_hyperbolic_shared(
        spec, nl, dis, STIFF_EPS, u0, u1, settings(count=101, t_end=10.0)
    )


# Radau runs at N = 1024 on short horizons (lambda_k = k, u0 ~ k^-2,
# rel_tol 1e-6). Their (rhs_evals, accepted, jac_evals, lu_decompositions)
# equal those of runs that hand scipy a dense zero stand-in for J.
_N = 1024
_LAM = np.arange(1.0, _N + 1.0)


def _large_n_run(kind):
    s = IntegratorSettings(
        rel_tol=1e-6, abs_tol=1e-8,
        grid=OutputGrid("log", 11, 2.0 if kind == "direct" else 0.1),
    )
    spec, nl, dis = Spectrum(_LAM), PowerNonlinearity(1.0), PowerLawDissipation(0.5)
    u0 = 0.3 / _LAM**2
    if kind == "lone":
        return [solve_hyperbolic(spec, nl, dis, 1e-5, u0, np.zeros(_N), s)]
    if kind == "direct":
        table = LipschitzTable(((0.0, 1.5), (1.0, 1.0)))
        return [solve_parabolic_direct(spec, table, PowerLawDissipation(1.5), 1.0 / _LAM**2, s)]
    return solve_hyperbolic_shared(spec, nl, dis, (3e-5, 1e-5, 3e-6), u0, np.zeros(_N), s)


class TestNewtonHooks:
    """The closed-form Newton solves replace scipy's LU and agree with
    it. scipy forms every Newton matrix MU/h I - J from I = 1 and J = 0,
    so what reaches the hooks is the scalar c = MU/h."""

    def test_scipy_lu_never_called(self, monkeypatch):
        refuse_scipy_lu(monkeypatch)
        for kind in ("lone", "direct", "shared"):
            shapes = record_newton_matrices(monkeypatch)
            trajs = _stiff_runs(kind)
            assert len(trajs) == (3 if kind == "shared" else 1)
            for traj in trajs:
                assert traj.status == COMPLETED and traj.stats.method == "radau"
                assert traj.stats.lu_decompositions > 0
                assert traj.stats.members == len(trajs)
            # Only scalars reach lu, one per counted factorisation.
            assert shapes == [()] * trajs[0].stats.lu_decompositions

    @pytest.mark.parametrize("kind", ["lone", "direct", "shared"])
    def test_guard_fails_without_hooks(self, monkeypatch, kind):
        # Negative control: with the hooks bypassed, the guard above fails.
        refuse_scipy_lu(monkeypatch)
        monkeypatch.setattr(kl.integrate, "_closed_form_newton", lambda *args: None)
        with pytest.raises(AssertionError, match="scipy's LU"):
            _stiff_runs(kind)

    def test_lu_refuses_a_matrix(self):
        # A scipy that formed c I - J as a matrix must fail loudly, not
        # solve with its [0, 0] entry or a broadcast.
        solver = kl.integrate._closed_form_radau(
            lambda t, y: -y, np.ones(2), 1.0, lambda t, y: None,
            lambda c: lambda r: r / (c + 1.0), 1e-6, 1e-8,
        )
        for A in (np.eye(2), np.array([2.0]), csc_matrix(np.eye(2))):
            with pytest.raises(TypeError, match="scalar"):
                solver.lu(A)
        assert solver.nlu == 0
        assert solver.solve_lu(solver.lu(2.0), np.array([3.0, 6.0])).tolist() == [1.0, 2.0]
        assert solver.nlu == 1

    @pytest.mark.parametrize(
        "kind, counts",
        [
            ("lone", (232, 32, 1, 42)),
            ("direct", (464, 57, 15, 60)),
            ("shared", (351, 49, 1, 58)),
        ],
        ids=["lone", "direct", "shared"],
    )
    def test_large_n_allocates_no_matrix(self, kind, counts):
        # One dense N x N matrix of doubles is 8 MB at N = 1024, and from a
        # dense stand-in for J scipy forms two 2N x 2N Newton matrices per
        # lone factorisation (a traced peak of 135 MB). The bound, 1 kB per
        # state component, admits no such matrix (about 0.45 kB is used).
        tracemalloc.start()
        try:
            trajs = _large_n_run(kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stats = trajs[0].stats
        assert all(traj.status == COMPLETED for traj in trajs)
        assert stats.method == "radau" and stats.members == len(trajs)
        assert (stats.rhs_evals, stats.accepted, stats.jac_evals, stats.lu_decompositions) == counts
        state_size = sum(traj.u.shape[1] + traj.uprime.shape[1] for traj in trajs)
        if kind == "direct":
            state_size //= 2  # u' is derived, not integrated
        assert peak <= 1024 * state_size

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("shift", ["real", "complex"])
    @pytest.mark.parametrize(
        "nl, sign",
        [
            (PowerNonlinearity(1.0), 1.0),  # kappa > 0
            (PowerNonlinearity(0.5), 0.0),  # kappa = 0: the gamma < 1 kink at sigma = 0
            (LipschitzTable(((0.0, 1.597), (1.0, 1.0))), -1.0),  # kappa < 0
        ],
    )
    def test_structured_solves_match_dense(self, n, shift, nl, sign):
        rng = np.random.default_rng(n)
        lam = np.sort(rng.uniform(0.5, 60.0, n))
        if n > 1:
            lam[n // 2] = 0.0  # a zero mode
        u = rng.uniform(-1.0, 1.0, n)
        if sign == 0.0:
            u[lam > 0.0] = 0.0  # sigma = 0
        else:
            u *= math.sqrt(0.3 / float(lam @ (u * u)))
        h = 1e-2
        c = (radau.MU_REAL if shift == "real" else radau.MU_COMPLEX) / h
        eps, b = 1e-4, 0.7

        stiff = kl.integrate._StiffnessTerm(nl, lam, u, eps)
        assert np.sign(stiff.kappa) == sign
        eye = np.eye(n)
        K = stiffness_matrix(nl, lam, u, eps)
        J = np.block([[np.zeros((n, n)), eye], [-K, -(b / eps) * eye]])
        rhs = rng.standard_normal(2 * n)
        if shift == "complex":
            rhs = rhs + 1j * rng.standard_normal(2 * n)
        got = kl.integrate._second_order_newton(stiff, b / eps, c)(rhs)
        ref = np.linalg.solve(c * np.eye(2 * n) - J, rhs)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

        stiff = kl.integrate._StiffnessTerm(nl, lam, u, b)
        got = stiff.shifted_solver(c)(rhs[:n])
        ref = np.linalg.solve(c * eye + stiffness_matrix(nl, lam, u, b), rhs[:n])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_hyperbolic_matches_dense_lu(self, monkeypatch, shape, eps):
        spec, nl, dis, u0, u1 = SHAPES[shape]
        s = settings(count=201, t_end=10.0)
        fast = solve_hyperbolic(spec, nl, dis, eps, u0, u1, s)
        true_jacobian_lu(monkeypatch, hyperbolic_jacobian(spec, nl, dis, eps))
        ref = solve_hyperbolic(spec, nl, dis, eps, u0, u1, s)
        assert fast.stats.method == "radau" and fast.stats == ref.stats
        got, want = np.hstack([fast.u, fast.uprime]), np.hstack([ref.u, ref.uprime])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [3, 64])
    def test_direct_agrees_with_dense_lu(self, monkeypatch, n):
        # Step control turns the rounding-level differences of the solves
        # into a few different steps here (6648 against 6713 rhs
        # evaluations at n = 3), so the runs agree to the integration
        # tolerance, not to rounding.
        cfg = dict(_FOUND_LIMIT)
        if n != 3:
            # The limit shape lambda = k, m table [[0, 1.5], [1, 1]], p = 1.5.
            cfg.update(
                spectrum={"kind": "power", "a": 1.0, "q": 1.0, "n": n},
                m={"kind": "table", "points": [[0, 1.5], [1, 1]]},
                b={"kind": "power", "p": 1.5},
                u0=list(1.0 / np.arange(1.0, n + 1.0)),
                settings={"grid": {"kind": "log", "count": 201, "t_end": 100.0}},
            )
        spec, nl, dis, u0, s = _direct_args(cfg)
        fast = solve_parabolic_direct(spec, nl, dis, u0, s)
        true_jacobian_lu(
            monkeypatch, lambda t, y: -stiffness_matrix(nl, spec.eigenvalues, y, dis.b(t))
        )
        ref = solve_parabolic_direct(spec, nl, dis, u0, s)
        assert fast.stats.method == ref.stats.method == "radau"
        assert abs(fast.stats.rhs_evals - ref.stats.rhs_evals) <= 0.02 * ref.stats.rhs_evals
        assert np.max(np.abs(fast.u - ref.u)) <= 1e-10 * np.max(np.abs(ref.u))


def radau_reference(spec, nl, dis, eps, u0, u1, times, rtol=1e-13):
    """Independent tight reference for a stiff run: scipy's Radau with its
    own dense LU, compensated sums and a Jacobian without the m' term
    (exact for a constant m), as a (samples, 2N) array of (u, u')."""
    lam = spec.eigenvalues
    n = spec.size

    def f(t, y):
        u, w = y[:n], y[n:]
        m = nl.value(math.fsum(lam * u * u))
        return np.concatenate([w, -(dis.b(t) * w + m * lam * u) / eps])

    def jac(t, y):
        m = nl.value(math.fsum(lam * y[:n] * y[:n]))
        return np.block([
            [np.zeros((n, n)), np.eye(n)],
            [-np.diag(m * lam / eps), -(dis.b(t) / eps) * np.eye(n)],
        ])

    sol = solve_ivp(
        f, (0.0, times[-1]), np.concatenate([u0, u1]), method="Radau",
        rtol=rtol, atol=1e-15, t_eval=times, jac=jac,
    )
    assert sol.success
    return sol.y.T


def assert_same_run(got, want):
    assert (got.status, got.t_stop, got.stats) == (want.status, want.t_stop, want.stats)
    for name in ("times", "u", "uprime"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


# The stiff members of the eps-sweep benchmark shape.
STIFF_EPS = (1e-3, 3e-4, 1e-4)


@pytest.fixture(scope="module")
def sweep_runs_t10():
    """(shared, lone) runs of the STIFF_EPS members, t_end 10, 401 samples."""
    spec, nl, dis, u0, u1 = SWEEP_SHAPE
    s = settings(count=401, t_end=10.0)
    shared = solve_hyperbolic_shared(spec, nl, dis, STIFF_EPS, u0, u1, s)
    lone = [solve_hyperbolic(spec, nl, dis, eps, u0, u1, s) for eps in STIFF_EPS]
    return shared, lone


# The eps-sweep benchmark plan (SWEEP_SHAPE at eps 1e-2 ... 1e-4, t_end 10,
# 401 samples) at two seeds of its initial data, and the (accepted,
# rhs_evals) of its shared Radau run.
BENCH_EPS = (1e-2, 3e-3) + STIFF_EPS
BENCH_SWEEP_DATA = {
    0: ([0.33767335340815613, 0.12842965623064875], [0.08349429756518721, -0.05503364674538633]),
    7: ([-0.3822181739491623, -0.0920723458794332], [0.08808515941238794, -0.04733925106393432]),
}
BENCH_SWEEP_WORK = {0: (2125, 15325), 7: (2079, 15006)}


@pytest.fixture(scope="module", params=sorted(BENCH_SWEEP_DATA))
def bench_sweep(request):
    """(seed, runs, shared run's trajectories, u0, u1) of the eps-sweep
    benchmark plan."""
    spec, nl, dis = SWEEP_SHAPE[:3]
    u0, u1 = (np.array(v) for v in BENCH_SWEEP_DATA[request.param])
    s = settings(count=401, t_end=10.0)
    runs = kl.integrate.sweep_runs(spec, nl, dis, BENCH_EPS, u0, s)
    shared = solve_hyperbolic_shared(spec, nl, dis, [BENCH_EPS[i] for i in runs[0]], u0, u1, s)
    return request.param, runs, shared, u0, u1


class TestSharedRun:
    """The stiff members of an eps sweep in one stacked Radau run."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shift", ["real", "complex"])
    @pytest.mark.parametrize(
        "nl, sign",
        [
            (PowerNonlinearity(1.0), 1.0),  # kappa > 0
            (PowerNonlinearity(0.5), 0.0),  # kappa = 0: the gamma < 1 kink at sigma = 0
            (LipschitzTable(((0.0, 1.597), (1.0, 1.0))), -1.0),  # kappa < 0
        ],
    )
    def test_block_solve_matches_dense(self, k, shift, nl, sign):
        n = 4
        rng = np.random.default_rng(10 * k + n)
        lam = np.sort(rng.uniform(0.5, 60.0, n))
        lam[1] = 0.0  # a zero mode
        lam.sort()
        u = rng.uniform(-1.0, 1.0, (k, n))
        if sign == 0.0:
            u[:, lam > 0.0] = 0.0  # sigma = 0
        else:
            u *= np.sqrt(rng.uniform(0.1, 0.6, (k, 1)) / ((u * u) @ lam)[:, None])
        eps = np.logspace(-2, -6, k)[:, None]  # a different eps per member
        c = (radau.MU_REAL if shift == "real" else radau.MU_COMPLEX) / 1e-2
        b = 0.7

        stiff = kl.integrate._StiffnessTerm(nl, lam, u, eps)
        assert np.all(np.sign(stiff.kappa) == sign)
        blocks = []
        for i in range(k):
            K = stiffness_matrix(nl, lam, u[i], eps[i, 0])
            J = np.block([[np.zeros((n, n)), np.eye(n)], [-K, -(b / eps[i, 0]) * np.eye(n)]])
            blocks.append(c * np.eye(2 * n) - J)
        A = np.zeros((2 * k * n, 2 * k * n), dtype=complex)
        for i, block in enumerate(blocks):
            A[2 * n * i:2 * n * (i + 1), 2 * n * i:2 * n * (i + 1)] = block
        rhs = rng.standard_normal(2 * k * n)
        if shift == "complex":
            rhs = rhs + 1j * rng.standard_normal(2 * k * n)
        got = kl.integrate._second_order_newton(stiff, b / eps, c)(rhs)
        ref = np.linalg.solve(A, rhs)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_one_member_is_the_lone_run(self, shape):
        spec, nl, dis, u0, u1 = SHAPES[shape]
        s = settings(count=201, t_end=10.0)
        (got,) = solve_hyperbolic_shared(spec, nl, dis, [1e-4], u0, u1, s)
        assert_same_run(got, solve_hyperbolic(spec, nl, dis, 1e-4, u0, u1, s))
        assert got.stats.method == "radau" and got.stats.members == 1

    @pytest.mark.parametrize(
        "shape, counts",
        [
            # (rhs_evals, accepted, jac_evals, lu_decompositions) of the lone
            # Radau run at eps 1e-4, t_end 10, 201 samples, as before runs
            # could be shared.
            ("sweep", (11015, 1463, 252, 570)),
            ("nonlinear", (9414, 1290, 121, 306)),
            ("kirchhoff2", (6805, 910, 139, 342)),
        ],
    )
    def test_lone_counts_unchanged(self, shape, counts):
        spec, nl, dis, u0, u1 = SHAPES[shape]
        stats = solve_hyperbolic(spec, nl, dis, 1e-4, u0, u1, settings(count=201, t_end=10.0)).stats
        assert stats.method == "radau" and stats.members == 1
        assert (stats.rhs_evals, stats.accepted, stats.jac_evals, stats.lu_decompositions) == counts

    def test_members_meet_reference(self, sweep_runs_t10):
        shared, lone = sweep_runs_t10
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        scale = math.sqrt(u0 @ u0 + u1 @ u1)
        for eps, traj in zip(STIFF_EPS, shared):
            assert traj.status == COMPLETED
            assert traj.stats.method == "radau" and traj.stats.members == 3
            ref = radau_reference(spec, nl, dis, eps, u0, u1, traj.times)
            got = np.hstack([traj.u, traj.uprime])
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale

    def test_work_at_most_half_of_lone_runs(self, sweep_runs_t10):
        # Counts, not seconds: deterministic on any host.
        shared, lone = sweep_runs_t10
        assert all(traj.stats is shared[0].stats for traj in shared)
        assert all(traj.stats.method == "radau" for traj in lone)
        assert shared[0].stats.rhs_evals <= 0.5 * sum(traj.stats.rhs_evals for traj in lone)

    def test_blowup_measured_per_member(self):
        # Alone, each member completes under a threshold of 0.6, so it
        # stays within 0.6 of a threshold of 1; the stacked norm y @ y
        # passes 1, and the shared run must still complete.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        s = settings(count=101, t_end=10.0, blowup_threshold=0.6)
        assert all(
            solve_hyperbolic(spec, nl, dis, eps, u0, u1, s).status == COMPLETED
            for eps in STIFF_EPS
        )
        s = settings(count=101, t_end=10.0, blowup_threshold=1.0)
        shared = solve_hyperbolic_shared(spec, nl, dis, STIFF_EPS, u0, u1, s)
        stacked = sum(np.sum(t.u**2, 1) + np.sum(t.uprime**2, 1) for t in shared)
        assert np.max(stacked) > s.blowup_threshold
        for traj in shared:
            assert traj.status == COMPLETED and traj.stats.members == 3

    def test_stop_gives_lone_runs(self):
        # The initial layer's peak of |(u, u')|^2 grows as eps falls, and
        # only the two smaller eps cross 0.55, so the shared run stops.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        s = settings(count=101, t_end=10.0, blowup_threshold=0.55)
        shared = solve_hyperbolic_shared(spec, nl, dis, STIFF_EPS, u0, u1, s)
        lone = [solve_hyperbolic(spec, nl, dis, eps, u0, u1, s) for eps in STIFF_EPS]
        assert [t.status for t in lone] == [COMPLETED, BLEW_UP, BLEW_UP]
        for got, want in zip(shared, lone):
            assert_same_run(got, want)
            assert got.stats.members == 1

    @pytest.mark.parametrize(
        "rel_tol, runs", [(3e-14, [(0,), (1,), (2,)]), (3.5e-14, [(0, 1), (2,)])]
    )
    def test_tolerance_floor_splits_the_run(self, rel_tol, runs):
        # rel_tol / sqrt(k) must not fall below 100 machine epsilons,
        # where scipy raises the tolerance with a UserWarning. At t_end 1
        # these three members go to Radau.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        eps_values = (3e-4, 1e-4, 3e-5)
        s = settings(count=51, t_end=1.0, rel_tol=rel_tol)
        assert kl.integrate.sweep_runs(spec, nl, dis, eps_values, u0, s) == runs
        with pytest.raises(kl.ConfigurationError, match="too small"):
            solve_hyperbolic_shared(spec, nl, dis, eps_values, u0, u1, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            for run in runs:
                shared = solve_hyperbolic_shared(
                    spec, nl, dis, [eps_values[i] for i in run], u0, u1, s
                )
                for traj in shared:
                    assert traj.status == COMPLETED and traj.stats.members == len(run)

    @pytest.mark.parametrize("rel_tol", [2.3e-14, 3e-14, 3.5e-14, 5e-14, 1e-13, 1e-10, 1e-2, 0.1])
    @pytest.mark.parametrize("members", [0, 1, 3, 8])
    def test_most_members_keep_the_floor(self, rel_tol, members):
        most = kl.integrate._max_shared(rel_tol, members)
        floor = kl.integrate._MIN_REL_TOL
        assert 1 <= most <= max(members, 1)
        assert most == 1 or rel_tol / math.sqrt(most) >= floor
        assert most == max(members, 1) or rel_tol / math.sqrt(most + 1) < floor

    def test_dp5_member_rejected(self):
        # eps 1e-2 is underdamped at t_end 10 and goes to DP5; a shared run
        # takes only overdamped members.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        with pytest.raises(kl.ConfigurationError, match="overdamped"):
            solve_hyperbolic_shared(spec, nl, dis, (1e-2, 1e-4), u0, u1, settings(t_end=10.0))

    def test_no_members_rejected(self):
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        with pytest.raises(kl.ConfigurationError, match="at least one"):
            solve_hyperbolic_shared(spec, nl, dis, [], u0, u1, settings(t_end=10.0))

    def test_sweep_routing(self):
        # The eps-sweep benchmark members: eps 3e-3 (B/eps 1543, below the
        # lone threshold) is overdamped and joins the three Radau members;
        # eps 1e-2 is underdamped and stays a lone DP5 run.
        spec, nl, dis, u0, _ = SWEEP_SHAPE
        eps_list = (1e-2, 3e-3) + STIFF_EPS
        runs = kl.integrate.sweep_runs(spec, nl, dis, eps_list, u0, settings(t_end=10.0))
        assert runs == [(1, 2, 3, 4), (0,)]
        assert kl.integrate.sweep_runs(spec, nl, dis, (1e-2, 3e-3), u0, settings(t_end=10.0)) == [
            (0,), (1,)
        ]

    def test_no_lone_radau_member_stays_dp5(self):
        # Both members are overdamped at t_end 10, but neither passes the
        # lone threshold (B/eps 926 and 1543), so there is no shared run.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        eps_list = (5e-3, 3e-3)
        s = settings(count=101, t_end=10.0)
        lam_max, m0 = spec.lambda_max, 1.0
        assert all(kl.integrate._overdamped(e, lam_max, m0, dis, 10.0) for e in eps_list)
        assert kl.integrate.sweep_runs(spec, nl, dis, eps_list, u0, s) == [(0,), (1,)]
        assert all(
            solve_hyperbolic(spec, nl, dis, e, u0, u1, s).stats.method == "dp5" for e in eps_list
        )

    def test_underdamped_member_never_joins(self, monkeypatch):
        # N = 8, lambda = k^2, m = s, t_end 10: overdamped only for
        # eps <= 2e-3, so eps 1e-1 stays a lone DP5 run (389 steps). Forced
        # into the shared run, its oscillation sets the steps of all
        # members: 1675 shared steps become 1979.
        spec, nl, dis, u0, u1 = NONLINEAR_SHAPE
        eps_list = (1e-1, 1e-3, 1e-4)
        s = settings(count=101, t_end=10.0)
        assert kl.integrate.sweep_runs(spec, nl, dis, eps_list, u0, s) == [(1, 2), (0,)]
        with pytest.raises(kl.ConfigurationError, match="overdamped"):
            solve_hyperbolic_shared(spec, nl, dis, eps_list, u0, u1, s)
        shared = solve_hyperbolic_shared(spec, nl, dis, eps_list[1:], u0, u1, s)
        monkeypatch.setattr(kl.integrate, "_overdamped", lambda *args: True)
        forced = solve_hyperbolic_shared(spec, nl, dis, eps_list, u0, u1, s)
        assert shared[0].stats.accepted < forced[0].stats.accepted

    def test_bench_sweep_layout_and_work(self, bench_sweep):
        # Counts, not seconds: a routing change shows on any host.
        seed, runs, shared, _, _ = bench_sweep
        assert runs == [(1, 2, 3, 4), (0,)]
        stats = shared[0].stats
        assert (stats.method, stats.members) == ("radau", 4)
        assert (stats.accepted, stats.rhs_evals) == BENCH_SWEEP_WORK[seed]

    def test_joined_member_meets_reference(self, bench_sweep):
        # eps 3e-3 joins below the lone threshold; it stays as close to
        # an rtol 1e-13 reference as the lone-Radau members (1.0e-11 and
        # 1.1e-11 of |(u0, u1)| measured; lone DP5 5.6e-11 and 4.0e-11).
        _, runs, shared, u0, u1 = bench_sweep
        spec, nl, dis = SWEEP_SHAPE[:3]
        joined = shared[runs[0].index(1)]
        assert joined.status == COMPLETED
        ref = radau_reference(spec, nl, dis, BENCH_EPS[1], u0, u1, joined.times)
        got = np.hstack([joined.u, joined.uprime])
        assert np.max(np.abs(got - ref)) <= 1e-10 * math.sqrt(u0 @ u0 + u1 @ u1)


class TestDirectStiffPath:
    @pytest.mark.parametrize(
        "cfg, method",
        [
            # lambda_max mu t_end / b(t_end) = 3.9e6.
            (_FOUND_LIMIT, "radau"),
            # m = s: mu = 0, so both wide-spectrum sizes stay on DP5.
            (_wide_limit(512), "dp5"),
            (_wide_limit(32), "dp5"),
        ],
    )
    def test_selector_routing(self, cfg, method):
        plan = _plan(cfg)
        got = kl.integrate._direct_stepper(
            plan.spectrum.lambda_max, plan.nl.mu, plan.dis, plan.settings.grid.t_end
        )
        assert got == method

    def test_stiff_limit_plan(self, tmp_path):
        bundle = kl.harness.run_plan(_plan(_FOUND_LIMIT), tmp_path)
        manifest = json.loads((bundle.directory / "manifest.json").read_text())
        report = json.loads((bundle.directory / "limit_report.json").read_text())
        direct = manifest["solver_stats"]["direct"]
        assert report["status_direct"] == COMPLETED
        assert direct["method"] == "radau" and direct["rhs_evals"] < 10_000
        assert report["max_deviation"] <= 1e-6 and report["verdict"] == "pass"


class TestPlainModalSums:
    """The solvers and the corrector launch sum only nonnegative terms
    lambda_k u_k^2, so none of them calls math.fsum."""

    @pytest.fixture(autouse=True)
    def no_fsum(self, monkeypatch):
        def fsum(_):
            raise AssertionError("math.fsum called on a solver path")

        monkeypatch.setattr(math, "fsum", fsum)

    @pytest.mark.parametrize("method", ["dp5", "radau"])
    def test_hyperbolic(self, monkeypatch, method):
        spec, nl, dis, u0, u1 = NONLINEAR_SHAPE
        force_stepper(monkeypatch, method)
        traj = solve_hyperbolic(spec, nl, dis, 1e-3, u0, u1, settings(count=21, t_end=0.5))
        assert traj.status == COMPLETED
        assert traj.stats.method == method

    @pytest.mark.parametrize("solve", [solve_parabolic_reparam, solve_parabolic_direct])
    def test_first_order(self, solve):
        spec, nl, dis, u0, _ = NONLINEAR_SHAPE
        assert solve(spec, nl, dis, u0, settings(count=21, t_end=10.0)).status == COMPLETED

    def test_corrector_launch_velocity(self):
        spec, nl, dis, u0, u1 = NONLINEAR_SHAPE
        assert np.all(np.isfinite(compute_w0(spec, nl, dis, u0, u1)))
