import collections
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp
from scipy.integrate._ivp import radau

import kirchlab as kl
from kirchlab import (
    BLEW_UP,
    COMPLETED,
    STEP_UNDERFLOW,
    ConstantDissipation,
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
    solve_hyperbolic_sweep,
    solve_parabolic_direct,
    solve_parabolic_reparam,
)
from kirchlab.spectral import sigma_half

from helpers import bessel_p1, hamiltonian, stiffness_matrix

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
        # A count that is not an integer fails here, not later in times().
        for count in (3.0, 2.5, math.nan):
            with pytest.raises(kl.ConfigurationError, match="must be an integer"):
                OutputGrid("log", count, 1.0)
        assert OutputGrid("linear", np.int64(3), 1.0).times().size == 3


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

    @pytest.mark.parametrize("solver", ["hyperbolic", "hyperbolic-radau", "reparam", "direct"])
    def test_overflowing_m_at_launch_reported(self, solver):
        # m(2) = 2^1e6 overflows: the launch derivative is not finite
        # (inf * 0 on the zero mode), so no step can be taken.
        args = (Spectrum([0.0, 2.0]), PowerNonlinearity(1e6), P0)
        s = settings(count=5, t_end=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            if solver == "hyperbolic":
                traj = solve_hyperbolic(*args, 0.1, [0.0, 1.0], [0.0, 0.0], s)
            elif solver == "hyperbolic-radau":
                # sigma overflows, so m0 = m(inf) = 0 sends the run to Radau,
                # and the launch derivative is 0 * inf.
                nl = LipschitzTable(((0.0, 1.0), (1.0, 0.0)))
                with pytest.warns(UserWarning, match="vanishes"):
                    traj = solve_hyperbolic(
                        Spectrum([1e10]), nl, ConstantDissipation(1.0), 1e-6, [1e300], [0.0], s
                    )
                assert traj.stats.method == "radau"
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


# The hyperbolic-decay benchmark plans (N = 8, lambda = k^2, m = s,
# b = (1+t)^-1/2, t_end 100, 801 log samples) at two seeds of their
# initial data, and the (accepted, rhs_evals, cap_limited, rejected) of
# their DP5 runs at eps 1e-1 and 1e-2.
BENCH_DECAY_DATA = {
    0: (
        [0.3810768518473625, 0.12900518141739456, 0.06043958787507592, -0.04328130125982906,
         0.08803408135207952, -0.07891917171620344, 0.05298749694956448, -0.05151148495609688],
        [0.44708023235203875, -0.17078342274099956, 0.0874268647532129, 0.07565316820813967,
         0.03465447968116992, 0.03412424538638802, 0.05484690723776424, -0.04703030403579657],
    ),
    7: (
        [0.3575932900876643, -0.22204083781103778, -0.13515198091565503, -0.057623826768801664,
         -0.050863967179981456, -0.0727602694215168, 0.022941479569603275, 0.052491369744895953],
        [-0.4320591216281317, 0.18672894267028423, -0.10806813335361753, 0.10754240916446987,
         0.04133140612222337, 0.0317898782319039, -0.04591706482279096, -0.01964351902668392],
    ),
}
BENCH_DECAY_WORK = {
    0: {1e-1: (911, 5474, 145, 1), 1e-2: (2626, 15764, 0, 1)},
    7: {1e-1: (833, 5000, 151, 0), 1e-2: (2676, 16064, 0, 1)},
}


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

    @pytest.mark.parametrize("seed", sorted(BENCH_DECAY_DATA))
    def test_bench_decay_work(self, seed):
        # Counts, not seconds: a change to the step control or the cap
        # shows on any host. The work varies with the seed.
        spec = Spectrum(np.arange(1, 9, dtype=float) ** 2)
        u0, u1 = BENCH_DECAY_DATA[seed]
        for eps, work in BENCH_DECAY_WORK[seed].items():
            traj = solve_hyperbolic(
                spec, PowerNonlinearity(1.0), PowerLawDissipation(0.5), eps, u0, u1,
                settings(count=801),
            )
            stats = traj.stats
            assert traj.status == COMPLETED and stats.method == "dp5"
            assert (stats.accepted, stats.rhs_evals, stats.cap_limited, stats.rejected) == work


class TwinStepper(kl.integrate._DormandPrince):
    """kirchlab's DP5 stepper with scipy's RK45 stepped beside it on the
    same right-hand side. After every step the two must agree bit for
    bit: time, state, FSAL derivative, rhs count, rejected attempts and
    the dense output at interior times. The cap is handed to RK45 after
    each step as solve_hyperbolic hands it to its stepper; the
    right-hand side's last call is then RK45's FSAL stage, at the same
    state as ours."""

    def __init__(self, rhs, y0, s, step_cap=None):
        super().__init__(rhs, y0, s, step_cap)
        self.ref = RK45(rhs, 0.0, y0, s.grid.t_end, rtol=s.rel_tol, atol=s.abs_tol)
        self.ref.max_step = self.max_step
        self.steps = 0
        np.testing.assert_array_equal(self.h_abs, self.ref.h_abs)  # NaN too

    def step(self):
        super().step()
        ref = self.ref
        ref.step()
        self.steps += 1
        if self.step_cap is not None:
            ref.max_step = self.step_cap()
        assert self.t == ref.t and self.t_old == ref.t_old
        np.testing.assert_array_equal(self.y, ref.y)
        assert self.f.tobytes() == ref.f.tobytes()
        assert self.nfev == ref.nfev
        # RK45 evaluates twice at launch and six times per attempt.
        assert self.rejected == (ref.nfev - 2) // 6 - self.steps
        inside = self.t_old + (self.t - self.t_old) * np.array([0.1, 0.5, 0.9])
        np.testing.assert_array_equal(self.dense_output()(inside), ref.dense_output()(inside))


class TestDormandPrince:
    """``_DormandPrince`` is scipy's RK45, bit for bit, in each of its
    three uses: the second-order run with its moving cap, the reparam
    clock and the direct limit run."""

    @pytest.fixture
    def twin(self, monkeypatch):
        made = []

        def make(*args):
            made.append(TwinStepper(*args))
            return made[-1]

        monkeypatch.setattr(kl.integrate, "_DormandPrince", make)
        return made

    def check(self, twin, traj):
        (stepper,) = twin
        assert traj.status == COMPLETED and stepper.ref.status == "finished"
        assert traj.stats.accepted == stepper.steps
        return traj.stats

    def test_hyperbolic_decay_shape(self, twin):
        # The hyperbolic-decay benchmark shape at eps 1e-1: 1056 steps,
        # 144 of them set by the cap, one rejected.
        spec = Spectrum(np.arange(1, 9, dtype=float) ** 2)
        u0 = 1.0 / np.arange(1, 9) ** 2
        u1 = 0.5 * np.ones(8) / math.sqrt(8.0)
        traj = solve_hyperbolic(
            spec, PowerNonlinearity(1.0), PowerLawDissipation(0.5), 1e-1, u0, u1,
            settings(count=201),
        )
        stats = self.check(twin, traj)
        assert stats.cap_limited > 0 and stats.error_limited > 0 and stats.rejected > 0

    def test_reparam_clock(self, twin):
        traj = solve_parabolic_reparam(
            Spectrum([1.0, 3.0, 7.0]), PowerNonlinearity(1.5), PowerLawDissipation(0.5),
            [1.0, -0.6, 0.3], settings(count=201),
        )
        self.check(twin, traj)

    def test_direct_run(self, twin):
        # Stability-bound on DP5 (50 t_end = 1500 stays below the Radau
        # threshold), so steps are rejected all along the run.
        nl = LipschitzTable(((0.0, 1.0), (1.0, 2.0)))
        traj = solve_parabolic_direct(
            Spectrum([1.0, 50.0]), nl, P0, [1.0, 1.0], settings(count=201, t_end=30.0)
        )
        assert self.check(twin, traj).rejected > 10

    def test_overflowing_launch_derivative(self, twin):
        # f0 / scale = -1e163 squares past the float range: the launch
        # norm is infinite, the first step probe is 0 and the first step
        # is scipy's smallest, 10 ulp(0); the state then blows up.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            traj = solve_hyperbolic(
                Spectrum([1.0]), PowerNonlinearity(1.0), ConstantDissipation(1.0), 0.1,
                [1e50], [0.0], settings(count=5, t_end=1.0),
            )
        (stepper,) = twin
        assert traj.status == BLEW_UP and stepper.steps == traj.stats.accepted == 1
        assert traj.t_stop == 10 * math.ulp(0.0)

    @pytest.fixture
    def rhs_of(self, monkeypatch):
        """The (rhs, y0) each solve hands to its DP5 stepper."""
        made, real = [], kl.integrate._DormandPrince

        def make(rhs, y0, *args):
            made.append((rhs, y0))
            return real(rhs, y0, *args)

        monkeypatch.setattr(kl.integrate, "_DormandPrince", make)
        return made

    @staticmethod
    def check_out_row(rhs, states):
        # A row of a 2-D buffer, as the stepper's stage rows: the same bits
        # as a fresh array, the row itself returned, its neighbours untouched.
        for t, y in states:
            fresh = rhs(t, y)
            buf = np.full((3, y.size), np.nan)
            row = buf[1]
            assert rhs(t, y, row) is row
            assert row.tobytes() == fresh.tobytes()
            assert np.isnan(buf[::2]).all()

    @pytest.mark.parametrize("n", [8, 512])
    @pytest.mark.parametrize("solve", ["hyperbolic", "reparam", "direct"])
    def test_rhs_out_row(self, rhs_of, solve, n):
        spec = Spectrum(np.arange(1, n + 1, dtype=float))
        rng = np.random.default_rng(n)
        u0 = rng.uniform(-1.0, 1.0, n) / spec.eigenvalues
        nl, dis, s = PowerNonlinearity(1.0), PowerLawDissipation(0.5), settings(count=2, t_end=1e-3)
        if solve == "hyperbolic":
            solve_hyperbolic(spec, nl, dis, 1e-1, u0, 0.1 * u0, s)
        elif solve == "reparam":
            solve_parabolic_reparam(spec, nl, dis, u0, s)
        else:
            solve_parabolic_direct(spec, nl, dis, u0, s)
        (rhs, y0), = rhs_of
        moved = y0 + 0.01 * rng.uniform(-1.0, 1.0, y0.size)
        self.check_out_row(rhs, [(0.0, y0), (0.37, moved)])

    def test_rhs_out_row_overflowing_launch(self, rhs_of):
        # The launch of test_overflowing_launch_derivative.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            solve_hyperbolic(
                Spectrum([1.0]), PowerNonlinearity(1.0), ConstantDissipation(1.0), 0.1,
                [1e50], [0.0], settings(count=5, t_end=1.0),
            )
            (rhs, y0), = rhs_of
            self.check_out_row(rhs, [(0.0, y0), (1e-300, np.array([1e300, -1e300]))])

    def test_tableau_is_scipys(self):
        ours = kl.integrate._DormandPrince
        assert ours.n_stages == RK45.n_stages
        for name in ("C", "A", "B", "E", "P"):
            mine, scipys = getattr(ours, name), getattr(RK45, name)
            np.testing.assert_array_equal(mine, scipys)
            assert mine.dtype == scipys.dtype == np.float64


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

    def test_velocity_matches_per_sample_loop(self):
        # The velocity's sigma series is one array expression over all
        # samples; it must give the bits of a sum taken sample by sample.
        lam = np.arange(1.0, 513.0)
        u0 = np.random.default_rng(3).uniform(0.5, 1.5, 512) / lam**2
        nl, dis = PowerNonlinearity(1.0), PowerLawDissipation(0.5)
        traj = solve_parabolic_reparam(Spectrum(lam), nl, dis, u0, settings(count=201, t_end=1e4))
        sigma = np.array(
            [float(np.add.reduce(lam * (u0 * u0 * np.exp(-2.0 * lam * a)))) for a in traj.alpha]
        )
        aprime = nl.value(sigma) / dis.b(traj.times)
        np.testing.assert_array_equal(traj.uprime, -aprime[:, None] * lam[None, :] * traj.u)

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

    @pytest.mark.parametrize(
        "nl, ulps",
        [
            (PowerNonlinearity(1.0), 0),
            (LipschitzTable(((0.0, 1.5), (1.0, 1.0))), 0),
            # numpy's array power can round otherwise than the float power.
            (PowerNonlinearity(1.5), 4),
            (PowerNonlinearity(0.5), 4),
        ],
        ids=["s", "table", "s^1.5", "s^0.5"],
    )
    def test_velocity_matches_per_sample_loop(self, nl, ulps):
        # The velocity series is one stage evaluation over all samples; it
        # must give the right-hand side taken sample by sample. The table
        # runs on Radau, the powers (mu = 0) on DP5.
        lam = np.arange(1.0, 65.0)
        dis = PowerLawDissipation(0.5)
        s = settings(count=51, t_end=100.0)
        traj = solve_parabolic_direct(Spectrum(lam), nl, dis, 0.5 / lam, s)
        want = np.array([
            -(nl.value(sigma_half(lam, y)) / dis.b(t)) * (lam * y)
            for t, y in zip(traj.times, traj.u)
        ])
        if ulps:
            np.testing.assert_allclose(traj.uprime, want, rtol=ulps * np.finfo(float).eps, atol=0)
        else:
            assert traj.uprime.tobytes() == want.tobytes()

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


def _mp_decay_integrals(p, eps, times):
    """Integral of exp(-B(s)/eps) from 0 to each of ``times`` (ascending),
    B the primitive of (1+s)^-p with p != 1, by mpmath at 25 digits."""
    import mpmath

    with mpmath.workdps(25):
        q, e = 1 - mpmath.mpf(p), mpmath.mpf(eps)
        f = lambda s: mpmath.exp(-mpmath.expm1(q * mpmath.log1p(s)) / (q * e))
        times = [float(t) for t in times]
        scales = [eps * 2.0**k for k in range(-4, 60) if eps * 2.0**k < times[-1]]
        edges = sorted({0.0, *scales, *times})
        total, at = mpmath.mpf(0), {}
        for a, b in zip(edges[:-1], edges[1:]):
            total += mpmath.quad(f, [a, b])
            at[b] = float(total)
        return [at[t] for t in times]


class TestCorrector:
    def test_constant_b_closed_form(self):
        # b == delta, eps=0.1, w0=(1): theta' = e^{-delta t/eps} and
        # theta = (eps/delta)(1-e^{-delta t/eps}).
        times = np.linspace(0.0, 2.0, 21)
        for dis, delta in ((P0, 1.0), (ConstantDissipation(2.5), 2.5)):
            corr = corrector(
                Spectrum([1.0]), PowerNonlinearity(1.0), dis, 0.1, [0.0], [1.0], times
            )
            decay = np.exp(-delta * times / 0.1)
            np.testing.assert_allclose(
                corr.theta[:, 0], (0.1 / delta) * (1.0 - decay), rtol=1e-12, atol=1e-15
            )
            np.testing.assert_allclose(corr.theta_prime[:, 0], decay, rtol=1e-12, atol=1e-300)

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

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_small_eps_closed_form(self, eps):
        # p=1: theta' = w0 (1+t)^(-1/eps) and
        # theta = w0 ((1+t)^(1-1/eps) - 1) / (1 - 1/eps), w0 = 1. At
        # eps 1e-8 the decay factor underflows at every node of the first
        # sample interval: only the breakpoints at eps 2^k keep both
        # rules from agreeing on 0.
        times = OutputGrid("log", 401, 10.0).times()
        corr = corrector(
            Spectrum([1.0]), PowerNonlinearity(1.0), PowerLawDissipation(1.0), eps,
            [0.0], [1.0], times,
        )
        a = 1.0 - 1.0 / eps
        np.testing.assert_allclose(
            corr.theta[:, 0], np.expm1(a * np.log1p(times)) / a, rtol=1e-13, atol=0.0
        )

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.9, 1.5, 3.0])
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
    def test_quadrature_against_mpmath(self, p, eps):
        times = OutputGrid("log", 201, 1e4).times()
        corr = corrector(
            Spectrum([1.0]), PowerNonlinearity(1.0), PowerLawDissipation(p), eps,
            [0.0], [1.0], times,
        )
        picks = [1, 60, 200]
        want = _mp_decay_integrals(p, eps, times[picks])
        np.testing.assert_allclose(corr.theta[picks, 0], want, rtol=1e-13, atol=0.0)

    def test_gauss_legendre_tables_are_numpys(self):
        from numpy.polynomial.legendre import leggauss

        for n, rule in ((20, kl.quadrature._GL20), (10, kl.quadrature._GL10)):
            for mine, numpys in zip(rule, leggauss(n)):
                np.testing.assert_array_equal(mine, numpys)
                assert mine.dtype == numpys.dtype == np.float64

    @pytest.mark.parametrize(
        "p, eps, t_end",
        [(0.5, 1e-300, 10.0), (0.5, 0.1, 1e300), (3.0, 0.1, 10.0), (3.0, 1e-300, 1e300),
         (1.01, 10.0, 1e300)],  # the last reaches the round cap on two samples
    )
    def test_quadrature_work_is_bounded(self, p, eps, t_end):
        sizes = []

        class Counted(PowerLawDissipation):
            def primitive(self, t):
                if np.ndim(t) == 2:  # a round of the quadrature
                    sizes.append(t.size)
                return super().primitive(t)

        for times in (np.array([0.0, t_end]), OutputGrid("log", 101, t_end).times()):
            sizes.clear()
            corr = corrector(
                Spectrum([1.0]), PowerNonlinearity(1.0), Counted(p), eps, [0.0], [1.0], times
            )
            assert 1 <= len(sizes) <= kl.quadrature._QUAD_ROUNDS and sum(sizes) < 200_000
            theta = corr.theta[:, 0]
            assert np.all(np.isfinite(theta)) and np.all(np.diff(theta) >= 0.0) and theta[-1] > 0.0

    def test_times_must_not_decrease(self):
        args = (Spectrum([1.0]), PowerNonlinearity(1.0), PowerLawDissipation(0.5), 0.1, [0.0], [1.0])
        with pytest.raises(kl.ConfigurationError, match="decrease"):
            corrector(*args, [0.0, 2.0, 1.0])
        corr = corrector(*args, [0.0, 1.0, 1.0, 2.0])  # a repeated time is an empty interval
        assert corr.theta[1, 0] == corr.theta[2, 0] > 0.0

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

    def test_jump_cancels_exactly(self):
        # r'(0) = u1 - u'(0) - w0, with u'(0) from the reparametrized limit,
        # vanishes in floats: w0 is formed as the limit forms u'(0).
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            spec = Spectrum(np.sort(rng.uniform(0.0, 50.0, n)))
            if rng.random() < 0.5:
                nl = PowerNonlinearity(float(rng.choice([0.5, 1.0, 1.5, 2.3])))
            else:
                grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 40.0, 3))])
                nl = LipschitzTable(tuple(zip(grid, rng.uniform(0.5, 3.0, 4))))
            if rng.random() < 0.5:
                dis = PowerLawDissipation(float(rng.choice([0.0, 0.5, 1.0, 1.5])))
            else:
                dis = kl.ConstantDissipation(float(rng.uniform(0.1, 3.0)))
            u0, u1 = rng.normal(size=n), rng.normal(size=n)
            s = settings(count=int(rng.integers(2, 901)), t_end=1.0)
            par = solve_parabolic_reparam(spec, nl, dis, u0, s)
            np.testing.assert_array_equal(
                u1 - par.uprime[0] - compute_w0(spec, nl, dis, u0, u1), 0.0
            )


class TestResidual:
    def test_stationary_zero(self):
        traj = kl.Trajectory(
            Spectrum([1.0]),
            np.array([0.0, 1.0, 2.0]),
            np.zeros((3, 1)),
            np.zeros((3, 1)),
            COMPLETED,
        )
        assert residual_norm(traj, PowerNonlinearity(1.0), P0, 1.0) == 0.0

    def test_oscillator_self_consistency(self):
        traj = solve_hyperbolic(
            Spectrum([1.0]), M_ONE, P0, 1.0, [1.0], [0.0], settings("log", 801, 20.0)
        )
        assert residual_norm(traj, M_ONE, P0, 1.0) <= 1e-4

    def test_detects_corruption(self):
        traj = solve_hyperbolic(
            Spectrum([1.0]), M_ONE, P0, 1.0, [1.0], [0.0], settings("log", 801, 20.0)
        )
        traj.u[len(traj.times) // 2, 0] += 0.1
        assert residual_norm(traj, M_ONE, P0, 1.0) > 1e-2

    def test_parabolic_residual(self):
        traj = solve_parabolic_reparam(
            Spectrum([1.0]), PowerNonlinearity(1.0), P0, [1.0], settings("log", 801, 100.0)
        )
        assert residual_norm(traj, PowerNonlinearity(1.0), P0, 0.0) <= 1e-4

    def test_too_few_samples(self):
        traj = kl.Trajectory(
            Spectrum([1.0]), np.array([0.0, 1.0]), np.zeros((2, 1)), np.zeros((2, 1)),
            COMPLETED,
        )
        with pytest.raises(ValueError):
            residual_norm(traj, PowerNonlinearity(1.0), P0, 1.0)


DP5, RADAU = kl.integrate._second_order_dp5, kl.integrate._second_order_radau
STEPPERS = {"dp5": DP5, "radau": RADAU}


def force_stepper(monkeypatch, method):
    """Route every second-order member to ``method``'s stepper, alone."""
    monkeypatch.setattr(
        kl.integrate, "_sweep_runs",
        lambda eps_values, *args: [(STEPPERS[method], (i,)) for i in range(len(eps_values))],
    )


def sweep_runs(spec, nl, dis, eps_values, u0, s):
    """The runs ``_sweep_runs`` gives a sweep with these data."""
    m0 = nl.value(sigma_half(spec.eigenvalues, np.asarray(u0, dtype=float)))
    return kl.integrate._sweep_runs(eps_values, spec.lambda_max, m0, dis, s.grid.times(), s.rel_tol)


def shared_run(spec, nl, dis, eps_values, u0, u1, s):
    """One Radau run of ``eps_values`` side by side (``_second_order_run``),
    rerun member by member if it stops."""
    u0, u1 = np.asarray(u0, dtype=float), np.asarray(u1, dtype=float)
    m0 = nl.value(sigma_half(spec.eigenvalues, u0))
    return kl.integrate._second_order_run(
        spec, nl, dis, u0, u1, m0, s, s.grid.times(), (RADAU, tuple(eps_values))
    )


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
    turns non-finite once the solution has decayed far enough. Like the
    model's nonlinearities it takes a float or an array of sigma."""

    mu = 0.0

    def value(self, sigma):
        return np.where(sigma >= 0.05, 1.0, math.nan)

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
            # hyperbolic-decay benchmark plans: never overdamped, stiff stretch 0.
            (64.0, 1.0, 100.0, 1e-1, "dp5"),
            (64.0, 1.0, 100.0, 1e-2, "dp5"),
            # eps-sweep benchmark members, alone: stiff stretch 299 (overdamped
            # up to t = 5.25), then B(10)/eps 1544, 4633, 15444, 46332.
            (4.0, 1.0, 10.0, 1e-2, "dp5"),
            (4.0, 1.0, 10.0, 3e-3, "dp5"),
            (4.0, 1.0, 10.0, 1e-3, "radau"),
            (4.0, 1.0, 10.0, 3e-4, "radau"),
            (4.0, 1.0, 10.0, 1e-4, "radau"),
            # Overdamped only up to t = 2.9: stiff stretch 1944 although
            # B(100)/eps = 18100; oscillation, not stability, bounds the
            # explicit steps after that.
            (64.0, 1.0, 100.0, 1e-3, "dp5"),
        ],
    )
    def test_selector_routing(self, lam_max, m0, t_end, eps, method):
        times = OutputGrid(t_end=t_end).times()
        runs = kl.integrate._sweep_runs((eps,), lam_max, m0, PowerLawDissipation(0.5), times, 1e-10)
        assert runs == [(STEPPERS[method], (0,))]

    @pytest.mark.parametrize(
        "nl",
        [PowerNonlinearity(1.0), LipschitzTable(((0.0, 1.5), (1.0, 1.0)))],
        ids=["m=s", "table"],
    )
    def test_large_n_overdamped_launch_goes_to_radau(self, nl):
        # N = 1024, lambda = k, u0 ~ k^-2 with |A^(1/2)u0|^2 = 1, eps 1e-4,
        # t_end 10: overdamped only up to t = 1.44, underdamped at the
        # horizon, stiff stretch 11166. Radau takes 1,161 (m = s) and 1,389
        # (table) steps there, DP5 19,395 and 78,507.
        lam = np.arange(1.0, 1025.0)
        u0 = lam**-2 / math.sqrt(lam @ lam**-4)
        m0 = nl.value(sigma_half(lam, u0))
        times = OutputGrid("log", 201, 10.0).times()
        dis = PowerLawDissipation(0.5)
        assert kl.integrate._sweep_runs((1e-4,), lam[-1], m0, dis, times, 1e-10) == [(RADAU, (0,))]

    def test_lone_run_routed_by_its_overdamped_stretch(self):
        # SWEEP_SHAPE at eps 1e-3, t_end 1000: underdamped at the horizon,
        # but overdamped up to t = 61.5 (stiff stretch 13352). DP5 took
        # 130,639 steps when the horizon routed this run.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        traj = solve_hyperbolic(spec, nl, dis, 1e-3, u0, u1, settings(count=101, t_end=1000.0))
        assert traj.status == COMPLETED
        assert (traj.stats.method, traj.stats.accepted) == ("radau", 1448)


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
    """Step every Radau run with scipy's own Radau, handed the true
    Jacobian ``jac(t, y)`` and its dense LU, in place of kirchlab's
    stepper and its closed-form solves. scipy counts no rejected steps."""

    class DenseLURadau(radau.Radau):
        method, rejected = "radau", None

        def __init__(self, y0, t_end, rtol, atol, newton, stages):
            rhs = lambda t, y: stages((t,), y[None])[0]
            super().__init__(rhs, 0.0, y0, t_end, rtol=rtol, atol=atol, jac=jac)

    monkeypatch.setattr(kl.integrate, "_RadauIIA", DenseLURadau)


def hyperbolic_jacobian(spec, nl, dis, eps):
    """The true Jacobian [[0, I], [-K, -(b/eps) I]] of a lone second-order run."""
    lam, n = spec.eigenvalues, spec.size
    eye = np.eye(n)

    def jac(t, y):
        K = stiffness_matrix(nl, lam, y[:n], eps)
        return np.block([[np.zeros((n, n)), eye], [-K, -(dis.b(t) / eps) * eye]])

    return jac


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
    return shared_run(spec, nl, dis, (3e-5, 1e-5, 3e-6), u0, np.zeros(_N), s)


class TestNewtonHooks:
    """The closed-form Newton solves of ``_RadauIIA`` agree with dense
    LU: solve by solve, and run by run with scipy's Radau stepped on the
    true Jacobian."""

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

    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    @pytest.mark.parametrize("shift", ["real", "complex"])
    @pytest.mark.parametrize(
        "nl",
        [PowerNonlinearity(1.0), PowerNonlinearity(1.5), LipschitzTable(((0.0, 1.5), (1.0, 1.0)))],
        ids=["s", "s^1.5", "table"],
    )
    def test_one_row_stack_solves_as_its_vector(self, n, shift, nl):
        # A lone run linearises one modal vector, a shared run the rows of
        # a stack: a member must get the same Newton solves either way.
        rng = np.random.default_rng(n)
        for _ in range(50):
            lam = np.sort(rng.uniform(0.5, 60.0, n))
            u = rng.uniform(-1.0, 1.0, n)
            u *= math.sqrt(rng.uniform(0.1, 2.0) / float(lam @ (u * u)))
            s = rng.uniform(1e-5, 1.0)
            mu = radau.MU_REAL if shift == "real" else radau.MU_COMPLEX
            c = mu / rng.uniform(1e-4, 1e-1)
            r = rng.standard_normal(n)
            if shift == "complex":
                r = r + 1j * rng.standard_normal(n)
            vector = kl.integrate._StiffnessTerm(nl, lam, u, s).shifted_solver(c)(r)
            stack = kl.integrate._StiffnessTerm(nl, lam, u[None], np.array([[s]]))
            row = stack.shifted_solver(c)(r[None])
            assert row.shape == (1, n) and row[0].tobytes() == vector.tobytes()

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_hyperbolic_matches_dense_lu(self, monkeypatch, shape, eps):
        spec, nl, dis, u0, u1 = SHAPES[shape]
        s = settings(count=201, t_end=10.0)
        fast = solve_hyperbolic(spec, nl, dis, eps, u0, u1, s)
        true_jacobian_lu(monkeypatch, hyperbolic_jacobian(spec, nl, dis, eps))
        ref = solve_hyperbolic(spec, nl, dis, eps, u0, u1, s)
        assert fast.stats.method == "radau" and replace(fast.stats, rejected=None) == ref.stats
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


def hooked_radau(rhs, y0, t_end, rtol, atol, newton):
    """scipy's Radau with the Newton solves of ``newton(t, y)`` (see
    ``_RadauIIA``) hooked in. scipy forms every Newton matrix as
    MU/h I - J, so with I = 1 and J = 0 its ``lu`` receives the scalar
    c = MU/h and returns the closed-form solve."""
    latest = None

    def validation_jac(t, y):
        nonlocal latest
        latest = newton(t, y)
        return np.zeros((y.size, y.size))

    ref = radau.Radau(rhs, 0.0, y0, t_end, jac=validation_jac, rtol=rtol, atol=atol)

    def jac(t, y, _f=None):
        nonlocal latest
        ref.njev += 1
        latest = newton(t, y)
        return 0.0

    def lu(c):
        assert np.ndim(c) == 0
        ref.nlu += 1
        return latest(c)

    ref.I, ref.J, ref.jac, ref.lu = 1.0, 0.0, jac, lu
    ref.solve_lu = lambda solve, b: solve(b)
    return ref


class TwinRadau(kl.integrate._RadauIIA):
    """kirchlab's Radau stepper with scipy's (``hooked_radau``) stepped
    beside it on the same right-hand side and Newton solves. After every
    step the two must agree bit for bit: time, state, the counts of rhs
    evaluations, Jacobians and factorisations, and the dense output at
    interior times.

    ``branches`` counts scipy's Newton iterations that converged or
    failed, and two calls at the start of a step: ``jac`` (a Jacobian
    refreshed after a failed iteration) and the right-hand side (the
    error estimate evaluated again after a rejection). Stage and step-end
    calls are at later times."""

    def __init__(self, y0, t_end, rtol, atol, newton, stages, *, branches):
        super().__init__(y0, t_end, rtol, atol, newton, stages)
        self.ref = ref = hooked_radau(self.rhs, y0, t_end, rtol, atol, newton)
        self.steps = 0
        np.testing.assert_array_equal(self.h_abs, ref.h_abs)

        def at_step_start(name, call):
            def counted(t, y, *rest):
                branches[name] += t == ref.t
                return call(t, y, *rest)

            return counted

        ref.fun = at_step_start("reevaluated", ref.fun)
        ref.jac = at_step_start("refreshed", ref.jac)

    def step(self):
        super().step()
        ref = self.ref
        ref.step()
        assert self.status == "running" and ref.status != "failed"
        self.steps += 1
        assert self.t == ref.t and self.t_old == ref.t_old
        np.testing.assert_array_equal(self.y, ref.y)
        assert (self.nfev, self.njev, self.nlu) == (ref.nfev, ref.njev, ref.nlu)
        inside = self.t_old + (self.t - self.t_old) * np.array([0.1, 0.5, 0.9])
        np.testing.assert_array_equal(self.dense_output()(inside), ref.dense_output()(inside))


def _twin_run(kind):
    """The trajectories of one stiff run of each kind TestRadauIIA twins."""
    s = settings(count=101, t_end=10.0)
    if kind == "lone":
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        return [solve_hyperbolic(spec, nl, dis, 1e-4, u0, u1, s)]
    if kind == "direct":
        return [solve_parabolic_direct(*_direct_args(_FOUND_LIMIT))]
    if kind == "shared":
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        return shared_run(spec, nl, dis, STIFF_EPS, u0, u1, s)
    spec, nl, dis, u0, u1 = NONLINEAR_SHAPE  # "power": m = s, stages fused
    return shared_run(spec, nl, dis, (1e-3, 1e-4, 1e-5), u0, u1, s)


class TestRadauIIA:
    """``_RadauIIA`` is scipy's Radau, bit for bit, in each of its uses:
    the lone second-order run, the direct limit run and the shared run
    of a sweep, whose three collocation stages go to one call, with
    m = 1 and with a power m."""

    @pytest.fixture
    def twin(self, monkeypatch):
        made, branches = [], collections.Counter()
        newton = radau.solve_collocation_system

        def counted_newton(*args):
            result = newton(*args)
            branches["converged" if result[0] else "failed"] += 1
            return result

        def make(*args):
            made.append(TwinRadau(*args, branches=branches))
            return made[-1]

        monkeypatch.setattr(radau, "solve_collocation_system", counted_newton)
        monkeypatch.setattr(kl.integrate, "_RadauIIA", make)
        return made, branches

    @pytest.mark.parametrize(
        "kind, hit",
        [
            # Branches each run takes (the other counts are 0): a Jacobian
            # refreshed after Newton failed, a step halved after Newton
            # failed with a fresh Jacobian, and the error re-evaluated
            # after a rejection.
            ("lone", {"reevaluated"}),
            ("direct", {"refreshed", "halved", "reevaluated"}),
            ("shared", {"reevaluated"}),
            ("power", {"refreshed", "reevaluated"}),
        ],
    )
    def test_twin(self, twin, kind, hit):
        trajs = _twin_run(kind)
        (stepper,), branches = twin
        assert stepper.ref.status == "finished"
        for traj in trajs:
            assert traj.status == COMPLETED and traj.stats.method == "radau"
            assert traj.stats.accepted == stepper.steps
        branches["halved"] = branches["failed"] - branches["refreshed"]
        assert {name for name in ("refreshed", "halved", "reevaluated") if branches[name]} == hit
        # A rejected attempt either fails the error test (Newton converged
        # but the step is not accepted) or is halved.
        assert stepper.rejected == branches["converged"] - stepper.steps + branches["halved"]

    def test_catches_a_rounding_change(self, monkeypatch, twin):
        # Negative control: one ulp more on every error norm (the norms
        # of 1-D arrays once the twin is built) must fail the comparison.
        made, _ = twin
        norm = kl.integrate._rms

        def off_by_an_ulp(x):
            value = norm(x)
            return np.nextafter(value, np.inf) if x.ndim == 1 and made else value

        monkeypatch.setattr(kl.integrate, "_rms", off_by_an_ulp)
        with pytest.raises(AssertionError):
            _twin_run("lone")

    def test_tableau_is_scipys(self):
        ours = kl.integrate._RadauIIA
        for name in ("C", "E", "T", "TI", "TI_REAL", "TI_COMPLEX", "P"):
            np.testing.assert_array_equal(getattr(ours, name), getattr(radau, name))
        assert (ours.MU_REAL, ours.MU_COMPLEX) == (radau.MU_REAL, radau.MU_COMPLEX)
        assert ours.NEWTON_MAXITER == radau.NEWTON_MAXITER


class TestClosedFormP1:
    """Second-order runs against the closed form at p = 1 with m == 1 and
    eps = 1/(2j) (``bessel_p1``), within 1e-9 |(u0, u1)| at every sample."""

    SPEC, DIS = Spectrum([1.0, 4.0]), PowerLawDissipation(1.0)
    U0, U1 = np.array([1.0, 0.5]), np.array([0.3, -0.2])
    SETTINGS = settings(count=201, t_end=100.0)

    def assert_matches(self, traj, j):
        assert traj.status == COMPLETED
        u, up = bessel_p1(self.SPEC.eigenvalues, self.U0, self.U1, j, traj.times)
        tol = 1e-9 * np.linalg.norm(np.concatenate([self.U0, self.U1]))
        assert np.max(np.abs(traj.u - u)) <= tol
        assert np.max(np.abs(traj.uprime - up)) <= tol

    def run(self, j):
        return solve_hyperbolic(
            self.SPEC, M_ONE, self.DIS, 1.0 / (2 * j), self.U0, self.U1, self.SETTINGS
        )

    @pytest.mark.parametrize("j", [1, 2, 5, 10])
    def test_lone_dp5(self, j):
        traj = self.run(j)
        assert traj.stats.method == "dp5"
        self.assert_matches(traj, j)

    def test_lone_radau(self, monkeypatch):
        force_stepper(monkeypatch, "radau")
        traj = self.run(5)
        assert traj.stats.method == "radau"
        self.assert_matches(traj, 5)

    def test_shared_run(self):
        js = (1, 2, 5)
        trajs = shared_run(
            self.SPEC, M_ONE, self.DIS, [1.0 / (2 * j) for j in js], self.U0, self.U1,
            self.SETTINGS,
        )
        for traj, j in zip(trajs, js):
            assert (traj.stats.method, traj.stats.members) == ("radau", 3)
            self.assert_matches(traj, j)


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
    shared = shared_run(spec, nl, dis, STIFF_EPS, u0, u1, s)
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
BENCH_SWEEP_WORK = {0: (2299, 16474), 7: (2250, 16134)}


@pytest.fixture(scope="module", params=sorted(BENCH_SWEEP_DATA))
def bench_sweep(request):
    """(seed, runs, shared run's trajectories, u0, u1) of the eps-sweep
    benchmark plan."""
    spec, nl, dis = SWEEP_SHAPE[:3]
    u0, u1 = (np.array(v) for v in BENCH_SWEEP_DATA[request.param])
    s = settings(count=401, t_end=10.0)
    runs = sweep_runs(spec, nl, dis, BENCH_EPS, u0, s)
    shared = shared_run(spec, nl, dis, [BENCH_EPS[i] for i in runs[0][1]], u0, u1, s)
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
        # The state is [U; W]: member i's u at rows i n ... (i+1) n - 1,
        # its u' k n rows further on.
        A = np.zeros((2 * k * n, 2 * k * n), dtype=complex)
        for i in range(k):
            K = stiffness_matrix(nl, lam, u[i], eps[i, 0])
            J = np.block([[np.zeros((n, n)), np.eye(n)], [-K, -(b / eps[i, 0]) * np.eye(n)]])
            rows = np.r_[i * n:(i + 1) * n, (k + i) * n:(k + i + 1) * n]
            A[np.ix_(rows, rows)] = c * np.eye(2 * n) - J
        rhs = rng.standard_normal(2 * k * n)
        if shift == "complex":
            rhs = rhs + 1j * rng.standard_normal(2 * k * n)
        got = kl.integrate._second_order_newton(stiff, b / eps, c)(rhs)
        ref = np.linalg.solve(A, rhs)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shape", ["sweep", "nonlinear"])
    @pytest.mark.parametrize("k", [2, 5])
    def test_stacked_stages_are_member_stages(self, shape, k):
        # The [U; W] stack: each member reads only its own rows of the two
        # halves, so its stages are those of a one-member stack (the lone
        # state (u, u')) at the same (t, u, u'), bit for bit. With m = s a
        # member that read another member's u would get another m.
        spec, nl, dis = SHAPES[shape][:3]
        lam, n = spec.eigenvalues, spec.size
        rng = np.random.default_rng(k)
        eps = np.logspace(-2, -5, k)[:, None]
        times = np.array([0.1, 0.4, 0.7])
        u, w = rng.uniform(-0.5, 0.5, (2, 3, k, n))
        stages = kl.integrate._second_order_stages
        stacked = stages(nl, lam, dis, eps)(times, np.hstack([u.reshape(3, -1), w.reshape(3, -1)]))
        halves = stacked.reshape(3, 2, k, n)
        for i in range(k):
            one = stages(nl, lam, dis, eps[i:i + 1])(times, np.hstack([u[:, i], w[:, i]]))
            np.testing.assert_array_equal(halves[:, :, i].reshape(3, 2 * n), one)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_one_member_is_the_lone_run(self, shape):
        spec, nl, dis, u0, u1 = SHAPES[shape]
        s = settings(count=201, t_end=10.0)
        (got,) = shared_run(spec, nl, dis, [1e-4], u0, u1, s)
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
        # passes 1, so the shared run stops, and each member is its lone
        # run, which completes.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        s = settings(count=101, t_end=10.0, blowup_threshold=0.6)
        assert all(
            solve_hyperbolic(spec, nl, dis, eps, u0, u1, s).status == COMPLETED
            for eps in STIFF_EPS
        )
        s = settings(count=101, t_end=10.0, blowup_threshold=1.0)
        shared = shared_run(spec, nl, dis, STIFF_EPS, u0, u1, s)
        stacked = sum(np.sum(t.u**2, 1) + np.sum(t.uprime**2, 1) for t in shared)
        assert np.max(stacked) > s.blowup_threshold
        for eps, traj in zip(STIFF_EPS, shared):
            assert traj.status == COMPLETED and traj.stats.members == 1
            assert_same_run(traj, solve_hyperbolic(spec, nl, dis, eps, u0, u1, s))

    def test_stop_gives_lone_runs(self):
        # The initial layer's peak of |(u, u')|^2 grows as eps falls, and
        # only the two smaller eps cross 0.55, so the shared run stops.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        s = settings(count=101, t_end=10.0, blowup_threshold=0.55)
        shared = shared_run(spec, nl, dis, STIFF_EPS, u0, u1, s)
        lone = [solve_hyperbolic(spec, nl, dis, eps, u0, u1, s) for eps in STIFF_EPS]
        assert [t.status for t in lone] == [COMPLETED, BLEW_UP, BLEW_UP]
        for got, want in zip(shared, lone):
            assert_same_run(got, want)
            assert got.stats.members == 1

    def test_underflow_gives_lone_runs(self):
        # m turns NaN once sigma falls below 0.05: the shared run's steps
        # underflow at t = 0.833437, and each member is its lone run, which
        # underflows at its own time (0.833461, 0.833442 and 0.833437).
        spec, _, dis, u0, u1 = SWEEP_SHAPE
        nl, u0 = HoledNonlinearity(), 2.0 * u0
        s = settings(count=101, t_end=10.0)
        m0 = nl.value(sigma_half(spec.eigenvalues, u0))
        bare = RADAU(spec, nl, dis, STIFF_EPS, u0, u1, s, s.grid.times())
        assert bare[0].status == STEP_UNDERFLOW
        assert bare[0].t_stop == pytest.approx(0.83344, abs=1e-5)
        shared = kl.integrate._second_order_run(
            spec, nl, dis, u0, u1, m0, s, s.grid.times(), (RADAU, STIFF_EPS)
        )
        stops = set()
        for eps, got in zip(STIFF_EPS, shared):
            assert got.status == STEP_UNDERFLOW and got.stats.members == 1
            assert_same_run(got, solve_hyperbolic(spec, nl, dis, eps, u0, u1, s))
            stops.add(got.t_stop)
        assert len(stops) == len(STIFF_EPS)

    @pytest.mark.parametrize(
        "rel_tol, runs",
        [
            (3e-14, [(RADAU, (0,)), (RADAU, (1,)), (RADAU, (2,))]),
            (3.5e-14, [(RADAU, (0,)), (RADAU, (1,)), (RADAU, (2,))]),
            (5e-14, [(RADAU, (0, 1, 2))]),
        ],
    )
    def test_tolerance_floor_splits_the_run(self, rel_tol, runs):
        # rel_tol / sqrt(k) must not fall below 100 machine epsilons,
        # where scipy raises the tolerance with a UserWarning. At t_end 1
        # these three members go to Radau: in one shared run if the floor
        # holds all three, else each alone.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        eps_values = (3e-4, 1e-4, 3e-5)
        s = settings(count=51, t_end=1.0, rel_tol=rel_tol)
        assert sweep_runs(spec, nl, dis, eps_values, u0, s) == runs
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            for _, run in runs:
                shared = shared_run(
                    spec, nl, dis, [eps_values[i] for i in run], u0, u1, s
                )
                for traj in shared:
                    assert traj.status == COMPLETED and traj.stats.members == len(run)

    @pytest.mark.parametrize("eps, method", [(3e-3, "dp5"), (1e-3, "radau")])
    def test_lone_run_is_a_sweep_of_one(self, eps, method):
        # The eps-sweep shape at t_end 10: stiff stretch 1544 at eps 3e-3
        # and 4633 at 1e-3, on either side of _STIFF_STEPS.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        s = settings(count=401, t_end=10.0)
        (got,) = solve_hyperbolic_sweep(spec, nl, dis, (eps,), u0, u1, s)
        assert (got.stats.method, got.stats.members) == (method, 1)
        assert_same_run(solve_hyperbolic(spec, nl, dis, eps, u0, u1, s), got)

    def test_empty_sweep(self):
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        assert solve_hyperbolic_sweep(spec, nl, dis, (), u0, u1, settings(t_end=1.0)) == []

    def test_floor_member_runs_as_routed_alone(self):
        # test_tolerance_floor_splits_the_run's setting with eps 3e-3 last:
        # its stiff stretch (276) passes ln(1/rel_tol) = 31 but not
        # _STIFF_STEPS. The floor cannot hold a shared run of three, so
        # every member runs as a sweep of one, and eps 3e-3 on DP5.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        eps_values = (3e-4, 1e-4, 3e-3)
        s = settings(count=51, t_end=1.0, rel_tol=3.5e-14)
        assert sweep_runs(spec, nl, dis, eps_values, u0, s) == [
            (RADAU, (0,)), (RADAU, (1,)), (DP5, (2,))
        ]
        got = solve_hyperbolic_sweep(spec, nl, dis, eps_values, u0, u1, s)
        for eps, traj in zip(eps_values, got):
            assert traj.status == COMPLETED and traj.stats.members == 1
            assert_same_run(traj, solve_hyperbolic(spec, nl, dis, eps, u0, u1, s))
        assert got[2].stats.method == "dp5"

    @pytest.mark.parametrize("rel_tol", [2.3e-14, 3e-14, 3.5e-14, 5e-14, 1e-13, 1e-10, 1e-2, 0.1])
    @pytest.mark.parametrize("members", [0, 1, 3, 8])
    def test_most_members_keep_the_floor(self, rel_tol, members):
        # ``members`` stiff members (eps 1e-4 ... 1e-5 on the eps-sweep
        # shape at t_end 10): one shared run that keeps the floor, or lone
        # runs only, each on Radau as a sweep of one.
        spec, nl, dis, u0, _ = SWEEP_SHAPE
        eps_values = tuple(np.geomspace(1e-4, 1e-5, members))
        s = settings(t_end=10.0, rel_tol=rel_tol)
        runs = sweep_runs(spec, nl, dis, eps_values, u0, s)
        floor = kl.integrate._MIN_REL_TOL
        if len(runs) == 1 and members > 1:
            ((stepper, shared),) = runs
            assert stepper is RADAU and shared == tuple(range(members))
            assert rel_tol / math.sqrt(members) >= floor
        else:
            assert runs == [(RADAU, (i,)) for i in range(members)]
            assert members <= 1 or rel_tol / math.sqrt(members) < floor

    def test_sweep_routing(self):
        # The eps-sweep benchmark members: eps 3e-3 (stiff stretch 1544,
        # below the lone threshold) and eps 1e-2 (299: overdamped up to
        # t = 5.25, underdamped at the horizon) pass ln(1/rel_tol) = 23
        # and join the three Radau members.
        spec, nl, dis, u0, _ = SWEEP_SHAPE
        eps_list = (1e-2, 3e-3) + STIFF_EPS
        runs = sweep_runs(spec, nl, dis, eps_list, u0, settings(t_end=10.0))
        assert runs == [(RADAU, (0, 1, 2, 3, 4))]
        assert sweep_runs(spec, nl, dis, (1e-2, 3e-3), u0, settings(t_end=10.0)) == [
            (DP5, (0,)), (DP5, (1,))
        ]

    def test_no_lone_radau_member_stays_dp5(self):
        # Both members are overdamped at t_end 10, but neither passes the
        # lone threshold (stiff stretch 926 and 1544), so there is no
        # shared run.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        eps_list = (5e-3, 3e-3)
        s = settings(count=101, t_end=10.0)
        lam_max, m0, times = spec.lambda_max, 1.0, s.grid.times()
        assert all(dis.b(10.0) ** 2 >= 4.0 * e * lam_max * m0 for e in eps_list)
        assert all(
            kl.integrate._sweep_runs((e,), lam_max, m0, dis, times, s.rel_tol) == [(DP5, (0,))]
            for e in eps_list
        )
        assert sweep_runs(spec, nl, dis, eps_list, u0, s) == [(DP5, (0,)), (DP5, (1,))]
        assert all(
            solve_hyperbolic(spec, nl, dis, e, u0, u1, s).stats.method == "dp5" for e in eps_list
        )

    def test_underdamped_member_never_joins(self):
        # N = 8, lambda = k^2, m = s, t_end 10: overdamped only for
        # eps <= 2e-3, so eps 1e-1 stays a lone DP5 run (389 steps). Forced
        # into the shared run, its oscillation sets the steps of all
        # members: 1675 shared steps become 1979.
        spec, nl, dis, u0, u1 = NONLINEAR_SHAPE
        eps_list = (1e-1, 1e-3, 1e-4)
        s = settings(count=101, t_end=10.0)
        assert sweep_runs(spec, nl, dis, eps_list, u0, s) == [(RADAU, (1, 2)), (DP5, (0,))]
        shared = shared_run(spec, nl, dis, eps_list[1:], u0, u1, s)
        forced = shared_run(spec, nl, dis, eps_list, u0, u1, s)
        assert shared[0].stats.accepted < forced[0].stats.accepted

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_returns_members_in_given_order(self, jobs):
        # The bench members out of order: the shared run takes all five
        # in the order given, and each member is its run's trajectory.
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        eps_list = (3e-4, 1e-2, 1e-4, 3e-3, 1e-3)
        s = settings(count=101, t_end=10.0)
        runs = sweep_runs(spec, nl, dis, eps_list, u0, s)
        assert runs == [(RADAU, (0, 1, 2, 3, 4))]
        got = solve_hyperbolic_sweep(spec, nl, dis, eps_list, u0, u1, s, jobs)
        assert len(got) == len(eps_list)
        for _, run in runs:
            want = shared_run(spec, nl, dis, tuple(eps_list[i] for i in run), u0, u1, s)
            for i, traj in zip(run, want):
                assert_same_run(got[i], traj)
                assert got[i].stats.members == len(run)

    def test_sweep_on_degenerate_data_warns(self):
        # u0 = 0: m0 vanishes, every member is overdamped and B/eps passes
        # the lone threshold, so both share one Radau run, which does not
        # look at the launch stiffness itself.
        eps_list = (1e-4, 1e-5)
        with pytest.warns(UserWarning, match="degenerate"):
            got = solve_hyperbolic_sweep(
                Spectrum([1.0, 2.0]), PowerNonlinearity(1.0), P0, eps_list,
                [0.0, 0.0], [0.0, 0.0], settings(count=11, t_end=1.0),
            )
        for traj in got:
            assert traj.status == COMPLETED and traj.stats.members == 2
            assert np.all(traj.u == 0.0) and np.all(traj.uprime == 0.0)

    def test_degenerate_sweep_warns_once_at_the_callers_line(self):
        # Every member is a lone DP5 run (B/eps at most 1000): the sweep
        # warns once, not once per run. A lone solve_hyperbolic call warns
        # at its caller's line too.
        spec, nl, u0, u1 = Spectrum([1.0, 4.0]), PowerNonlinearity(1.0), [0.0, 0.0], [0.3, -0.2]
        s = settings(count=11, t_end=1.0)
        eps_list = (1e-1, 1e-2, 1e-3)
        assert sweep_runs(spec, nl, P0, eps_list, u0, s) == [(DP5, (0,)), (DP5, (1,)), (DP5, (2,))]
        for solve in (
            lambda: solve_hyperbolic_sweep(spec, nl, P0, eps_list, u0, u1, s),
            lambda: solve_hyperbolic(spec, nl, P0, 1e-1, u0, u1, s),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solve()
            assert len(caught) == 1
            assert "degenerate" in str(caught[0].message) and caught[0].filename == __file__

    def test_sweep_rejects_nonpositive_eps(self):
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        for eps in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(kl.ConfigurationError, match="eps"):
                solve_hyperbolic_sweep(spec, nl, dis, (1e-2, eps), u0, u1, settings(t_end=1.0))

    def test_bench_sweep_layout_and_work(self, bench_sweep):
        # Counts, not seconds: a routing change shows on any host.
        seed, runs, shared, _, _ = bench_sweep
        assert runs == [(RADAU, (0, 1, 2, 3, 4))]
        stats = shared[0].stats
        assert (stats.method, stats.members) == ("radau", 5)
        assert (stats.accepted, stats.rhs_evals) == BENCH_SWEEP_WORK[seed]

    def test_joined_member_meets_reference(self, bench_sweep):
        # eps 1e-2 and 3e-3 join below the lone threshold; they stay as
        # close to an rtol 1e-13 reference as the lone-Radau members
        # (eps 1e-2: 1.3e-11 and 1.1e-11 of |(u0, u1)| measured at seeds 0
        # and 7, against 4.3e-11 and 3.1e-11 on lone DP5; eps 3e-3: 7.9e-12
        # and 4.0e-12, against 5.6e-11 and 4.0e-11).
        _, runs, shared, u0, u1 = bench_sweep
        spec, nl, dis = SWEEP_SHAPE[:3]
        for member in (0, 1):
            joined = shared[runs[0][1].index(member)]
            assert joined.status == COMPLETED
            ref = radau_reference(spec, nl, dis, BENCH_EPS[member], u0, u1, joined.times)
            got = np.hstack([joined.u, joined.uprime])
            assert np.max(np.abs(got - ref)) <= 1e-10 * math.sqrt(u0 @ u0 + u1 @ u1)

    def test_long_horizon_sweep_is_one_radau_run(self):
        # t_end 1000: both members are underdamped at the horizon, so the
        # horizon sent both to DP5. eps 1e-4 is overdamped up to t = 624
        # (stiff stretch 4.8e5) and eps 1e-2 up to t = 5.25 (291), so
        # they share one Radau run (2.3e-11 and 6.7e-12 of |(u0, u1)| from
        # the reference measured).
        spec, nl, dis, u0, u1 = SWEEP_SHAPE
        eps_list = (1e-2, 1e-4)
        s = settings(count=101, t_end=1000.0)
        assert sweep_runs(spec, nl, dis, eps_list, u0, s) == [(RADAU, (0, 1))]
        scale = math.sqrt(u0 @ u0 + u1 @ u1)
        for eps, traj in zip(eps_list, solve_hyperbolic_sweep(spec, nl, dis, eps_list, u0, u1, s)):
            assert traj.status == COMPLETED
            stats = traj.stats
            assert (stats.method, stats.members, stats.accepted) == ("radau", 2, 1907)
            ref = radau_reference(spec, nl, dis, eps, u0, u1, traj.times)
            got = np.hstack([traj.u, traj.uprime])
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale


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

    def test_overflowing_data_with_flat_m_completes(self):
        # |lambda u|^2 overflows where m' = 0 (kappa = 0): the Newton
        # solves drop the rank-one term instead of forming 0 * inf, and
        # the run completes. With NaN increments it crawled for minutes.
        spec, nl = Spectrum([1.0, 3000.0]), LipschitzTable(((0.0, 1.0), (1.0, 2.0)))
        u0 = np.array([1e160, 0.0])
        with np.errstate(over="ignore"):
            stiff = kl.integrate._StiffnessTerm(nl, spec.eigenvalues, u0, 1.0)
            assert stiff.kappa == 0.0
            assert np.all(np.isfinite(stiff.shifted_solver(5.0)(u0)))
            traj = solve_parabolic_direct(spec, nl, P0, u0, settings(count=21, t_end=1.0))
        assert traj.status == COMPLETED and traj.stats.method == "radau"
        assert (traj.stats.accepted, traj.stats.rhs_evals) == (182, 1282)

    def test_stiff_limit_plan(self, tmp_path):
        bundle = kl.harness.run_plan(_plan(_FOUND_LIMIT), tmp_path)
        manifest = json.loads((bundle.directory / "manifest.json").read_text())
        report = json.loads((bundle.directory / "limit_report.json").read_text())
        direct = manifest["solver_stats"]["direct"]
        assert report["status_direct"] == COMPLETED
        assert direct["method"] == "radau" and direct["rhs_evals"] < 10_000
        assert report["max_deviation"] <= 1e-6 and report["verdict"] == "pass"


class TestPlainModalSums:
    """The package sums only nonnegative terms such as lambda_k u_k^2:
    the solvers, the corrector launch and the energy channels, P_eps's
    Gram term included. So no path calls math.fsum."""

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

    def test_energy_suite(self):
        spec, nl, dis, u0, u1 = NONLINEAR_SHAPE
        traj = solve_hyperbolic(spec, nl, dis, 1e-2, u0, u1, settings(count=21, t_end=0.5))
        series = kl.energy_suite(traj, nl, 1e-2)
        assert np.all(np.isfinite(series["P_eps"]))
