import math

import numpy as np
import pytest

import kirchlab as kl
from kirchlab import (
    LipschitzTable,
    PowerLawDissipation,
    PowerNonlinearity,
    Spectrum,
    apriori_margin,
    apriori_satisfied,
    energy_suite,
)
from kirchlab.integrate import COMPLETED, IntegratorSettings, OutputGrid, Trajectory

from helpers import hamiltonian, sobolev_norm_sq

M_ONE = LipschitzTable(((0.0, 1.0),))
P0 = PowerLawDissipation(0.0)


def make_traj(spec, times, u, uprime):
    return Trajectory(spec, np.asarray(times, float), np.asarray(u, float),
                      np.asarray(uprime, float), COMPLETED)


class TestHamiltonian:
    def test_linear_m(self):
        # M(sigma) = sigma^2/2 for m(s)=s: 0.5*1 + M(1) = 1.0
        assert hamiltonian(Spectrum([1.0]), PowerNonlinearity(1.0), 0.5, [1.0], [1.0]) == 1.0

    def test_zero_state(self):
        assert hamiltonian(Spectrum([2.0]), PowerNonlinearity(2.0), 1.0, [0.0], [0.0]) == 0.0

    def test_constant_m(self):
        # M(sigma) = sigma for m == 1: M(|A^{1/2}u|^2) = 4
        assert hamiltonian(Spectrum([4.0]), M_ONE, 1.0, [1.0], [0.0]) == 4.0


class TestEnergySuite:
    def test_single_mode_values(self):
        spec = Spectrum([1.0])
        traj = make_traj(spec, [0.0], [[1.0]], [[0.0]])
        s = energy_suite(traj, PowerNonlinearity(1.0), 1.0, ks=(0,))
        assert s["c_eps"][0] == 1.0
        assert s["E_eps_0"][0] == 1.0
        assert s["G_eps"][0] == 0.0
        assert s["P_eps"][0] == 1.0
        assert s["Q_eps"][0] == 0.0
        assert s["H_eps"][0] == 0.5

    def test_parabolic_heat_channels(self):
        spec = Spectrum([1.0])
        t = np.linspace(0.0, 3.0, 7)
        u = np.exp(-t)[:, None]
        traj = make_traj(spec, t, u, -u)
        s = energy_suite(traj, M_ONE, 0.0, ks=(0, 1))
        np.testing.assert_allclose(s["E_0"], np.exp(-2 * t))
        np.testing.assert_allclose(s["P_par"], 1.0)
        assert "H_eps" not in s and "G_eps" not in s

    def test_gram_determinant_lower_bound(self):
        # The Gram term is a sum of nonnegative terms, so P_eps >= P_par
        # holds exactly, also where u' is nearly parallel to u.
        rng = np.random.default_rng(3)
        for n in (1, 4, 64):
            spec = Spectrum(np.sort(rng.uniform(0.1, 5.0, n)))
            u = rng.normal(size=(40, n))
            up = rng.normal(size=(40, n))
            up[::2] = rng.uniform(-2.0, 2.0, (20, 1)) * u[::2] + 1e-9 * up[::2]
            traj = make_traj(spec, np.arange(40.0), u, up)
            s = energy_suite(traj, PowerNonlinearity(1.0), rng.uniform(0.01, 10.0), ks=(0,))
            assert np.all(np.isfinite(s["P_eps"]))
            assert np.all(s["P_eps"] >= s["P_par"])

    @pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    def test_near_parallel_velocity_against_mpmath(self, delta):
        # eps / m = 4e12 multiplies the Gram term, which is of order
        # delta^2 against products of order 1: a difference of those
        # products would keep only its rounding error.
        import mpmath

        spec = Spectrum([1.0, 1.0])
        u, up = [1.0, 1.0], [1.0, 1.0 + delta]
        s = energy_suite(make_traj(spec, [0.0], [u], [up]),
                         LipschitzTable(((0.0, 1e-12),)), 4.0, ks=(0,))
        with mpmath.workdps(50):
            U, V = map(mpmath.matrix, (u, up))
            sigma, cross = (U.T * U)[0], (U.T * V)[0]
            gram = sigma * (V.T * V)[0] - cross**2
            ref = 4 / mpmath.mpf(1e-12) * gram / sigma**2 + 1
            assert abs(s["P_eps"][0] - ref) <= 1e-14 * ref

    def test_undefined_sentinels(self):
        spec = Spectrum([1.0])
        traj = make_traj(spec, [0.0, 1.0], [[1.0], [0.0]], [[0.0], [1.0]])
        s = energy_suite(traj, PowerNonlinearity(1.0), 1.0, ks=(0,))
        # second sample has sigma = 0 hence c_eps = 0
        assert math.isnan(s["P_par"][1])
        assert math.isnan(s["G_eps"][1])
        assert math.isnan(s["E_eps_0"][1])
        assert math.isnan(s["Q_eps"][1])
        assert s["c_eps"][1] == 0.0

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(11)
        spec = Spectrum(np.sort(rng.uniform(0.1, 3.0, 3)))
        u = rng.normal(size=(4, 3))
        up = rng.normal(size=(4, 3))
        a = energy_suite(make_traj(spec, np.arange(4.0), u, up),
                         PowerNonlinearity(2.0), 0.7, ks=(0, 1))
        b = energy_suite(make_traj(spec, np.arange(4.0), -u, -up),
                         PowerNonlinearity(2.0), 0.7, ks=(0, 1))
        for name in a.channels:
            np.testing.assert_array_equal(a[name], b[name])

    def test_velocity_channel(self):
        spec = Spectrum([1.0, 2.0])
        traj = make_traj(spec, [0.0], [[0.0, 0.0]], [[3.0, 4.0]])
        s = energy_suite(traj, M_ONE, 0.0, ks=(0,))
        assert s["v"][0] == 25.0


class TestDissipationIdentities:
    def test_hamiltonian_rate_hyperbolic(self):
        # dH/dt = -2 b(t) |u'|^2, checked with divided differences on a
        # refined uniform grid.
        spec = Spectrum([1.0, 2.0])
        nl = PowerNonlinearity(1.0)
        dis = PowerLawDissipation(0.5)
        eps = 0.05
        # The grid step must be well below the layer scale eps.
        s = IntegratorSettings(grid=OutputGrid("linear", 16001, 4.0))
        traj = kl.solve_hyperbolic(spec, nl, dis, eps, [1.0, -0.3], [0.2, 0.1], s)
        t = traj.times
        H = np.array([hamiltonian(spec, nl, eps, traj.u[i], traj.uprime[i])
                      for i in range(t.size)])
        dd = np.diff(H) / np.diff(t)
        tm = 0.5 * (t[1:] + t[:-1])
        v_m = 0.5 * (np.sum(traj.uprime[1:] ** 2, axis=1) + np.sum(traj.uprime[:-1] ** 2, axis=1))
        rhs = -2.0 * (1.0 + tm) ** -0.5 * v_m
        scale = np.max(np.abs(rhs))
        mask = np.abs(rhs) > 1e-3 * scale
        rel = np.abs(dd[mask] - rhs[mask]) / np.abs(rhs[mask])
        assert np.max(rel) < 1e-3

    def test_stiffness_primitive_rate_parabolic(self):
        # d/dt M(|A^{1/2}u|^2) = -2 b(t) |u'|^2 along first-order runs.
        spec = Spectrum([1.0, 3.0])
        nl = PowerNonlinearity(2.0)
        dis = P0
        s = IntegratorSettings(grid=OutputGrid("linear", 2001, 2.0))
        traj = kl.solve_parabolic_reparam(spec, nl, dis, [1.0, 0.5], s)
        t = traj.times
        sig = np.array([sobolev_norm_sq(spec, traj.u[i], 0.5) for i in range(t.size)])
        M = np.array([nl.integral(x) for x in sig])
        dd = np.diff(M) / np.diff(t)
        v_m = 0.5 * (np.sum(traj.uprime[1:] ** 2, axis=1) + np.sum(traj.uprime[:-1] ** 2, axis=1))
        rhs = -2.0 * v_m
        scale = np.max(np.abs(rhs))
        mask = np.abs(rhs) > 1e-3 * scale
        rel = np.abs(dd[mask] - rhs[mask]) / np.abs(rhs[mask])
        assert np.max(rel) < 1e-3

    def test_p_par_constant_single_mode(self):
        spec = Spectrum([2.5])
        s = IntegratorSettings(grid=OutputGrid("log", 101, 10.0))
        traj = kl.solve_parabolic_reparam(spec, PowerNonlinearity(1.0), P0, [1.0], s)
        series = energy_suite(traj, PowerNonlinearity(1.0), 0.0, ks=(0,))
        np.testing.assert_allclose(series["P_par"], 2.5, rtol=1e-12)


class TestApriori:
    def test_constant_m_zero_lhs(self):
        spec = Spectrum([1.0])
        traj = make_traj(spec, [0.0, 1.0], [[1.0], [0.5]], [[0.1], [0.2]])
        m = apriori_margin(traj, M_ONE, P0, 0.5)
        np.testing.assert_array_equal(m["lhs_basic"], 0.0)
        np.testing.assert_array_equal(m["b"], 1.0)

    def test_power_ratio_is_gamma(self):
        # sigma m'/m = gamma, so lhs_basic = gamma * lhs_basic_plus.
        rng = np.random.default_rng(5)
        spec = Spectrum(np.sort(rng.uniform(0.5, 4.0, 3)))
        u = rng.normal(size=(5, 3))
        up = rng.normal(size=(5, 3))
        traj = make_traj(spec, np.arange(5.0), u, up)
        for gamma in (0.5, 2.0):
            m = apriori_margin(traj, PowerNonlinearity(gamma), P0, 0.01)
            np.testing.assert_allclose(m["lhs_basic"], gamma * m["lhs_basic_plus"], rtol=1e-12)

    def test_reference_run_inside_regime(self):
        spec = Spectrum([1.0])
        nl = PowerNonlinearity(1.0)
        dis = PowerLawDissipation(0.5)
        eps = 1e-3
        s = IntegratorSettings(grid=OutputGrid("log", 401, 50.0))
        traj = kl.solve_hyperbolic(spec, nl, dis, eps, [1.0], [0.0], s)
        margins = apriori_margin(traj, nl, dis, eps)
        assert apriori_satisfied(margins, eps)

    def test_degenerate_samples_are_nan(self):
        spec = Spectrum([1.0])
        traj = make_traj(spec, [0.0], [[0.0]], [[1.0]])
        m = apriori_margin(traj, PowerNonlinearity(0.5), P0, 0.1)
        assert math.isnan(m["lhs_basic"][0]) and math.isnan(m["lhs_basic_plus"][0])
