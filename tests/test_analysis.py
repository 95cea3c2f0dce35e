import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import kirchlab as kl
from kirchlab import (
    BoundEntry,
    LipschitzTable,
    PowerLawDissipation,
    PowerNonlinearity,
    Spectrum,
    default_window,
    energy_suite,
    fit_eps_order,
    fit_exponential_rate,
    fit_power_rate,
    hamiltonian_floor,
    perturbation_errors,
    predicted_bounds,
    verify_bounds,
)
from kirchlab.energies import EnergySeries
from kirchlab.integrate import (
    COMPLETED,
    CorrectorTrajectory,
    IntegratorSettings,
    OutputGrid,
    Trajectory,
)

from helpers import bessel_p1

M_ONE = LipschitzTable(((0.0, 1.0),))
P0 = PowerLawDissipation(0.0)


def log_times(t_end=1e4, count=400):
    return OutputGrid("log", count, t_end).times()


class TestPowerFit:
    def test_exact_power_law(self):
        t = log_times()
        fit = fit_power_rate(t, (1.0 + t) ** -2, (1.0, 1e4))
        assert fit.exponent == pytest.approx(-2.0, abs=1e-6)
        assert fit.rms_residual < 1e-9

    def test_perturbed_power_law(self):
        t = log_times(1e4, 1000)
        vals = 5.0 * (1.0 + t) ** -1 * (1.0 + 0.01 * np.sin(t))
        fit = fit_power_rate(t, vals, (100.0, 1e4))
        assert fit.exponent == pytest.approx(-1.0, abs=0.01)

    def test_constant_values(self):
        t = log_times(100.0, 100)
        fit = fit_power_rate(t, np.full_like(t, 3.0), (1.0, 100.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_skipped(self):
        t = log_times(100.0, 100)
        assert fit_power_rate(t, np.zeros_like(t), (1.0, 100.0)) is None

    def test_too_few_samples_skipped(self):
        assert fit_power_rate([1.0, 2.0], [1.0, 0.5], (0.0, 3.0)) is None


class TestExponentialFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 200)
        fit = fit_exponential_rate(t, np.exp(-2.0 * (1.0 + t)), 0.0, (0.0, 10.0))
        assert -fit.exponent == pytest.approx(2.0, abs=1e-6)

    def test_heat_mode(self):
        t = np.linspace(0.0, 20.0, 300)
        fit = fit_exponential_rate(t, np.exp(-2.0 * t), 0.0, (0.0, 20.0))
        assert -fit.exponent == pytest.approx(2.0, abs=1e-9)

    def test_model_selection_residuals(self):
        # On polynomial data the exponential model must lose.
        t = log_times(1e3, 300)
        vals = (1.0 + t) ** -1.5
        window = (1.0, 1e3)
        rms_exp = fit_exponential_rate(t, vals, 0.0, window).rms_residual
        rms_poly = fit_power_rate(t, vals, window).rms_residual
        assert rms_exp > 10.0 * rms_poly


class TestEpsOrderFit:
    def test_quadratic(self):
        eps = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
        fit = fit_eps_order(eps, eps**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)

    def test_linear(self):
        eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        fit = fit_eps_order(eps, 3.0 * eps)
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)

    def test_zero_sup_skipped(self):
        eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        assert fit_eps_order(eps, [1.0, 1.0, 0.0, 1.0]) is None

    def test_preconditions(self):
        # Fewer than 4 values, or less than two decades: skipped.
        assert fit_eps_order([1e-1, 1e-2, 1e-3], [1, 1, 1]) is None
        assert fit_eps_order([1e-1, 8e-2, 5e-2, 3e-2], [1, 1, 1, 1]) is None


class TestPredictedBounds:
    def test_coercive_linear_sandwich(self):
        bs = predicted_bounds(PowerNonlinearity(1.0), P0, True)
        half = {e.kind: e.exponent for e in bs.entries if e.quantity == "E_half"}
        assert half == {"poly_lower": -1.0, "poly_upper": -1.0}
        v = [e for e in bs.entries if e.quantity == "V"]
        assert len(v) == 1 and v[0].kind == "poly_upper" and v[0].exponent == -3.0

    def test_noncoercive_quadratic(self):
        # Largest p still inside the parabolic regime for gamma = 2.
        p = kl.p_gamma(2.0)
        bs = predicted_bounds(PowerNonlinearity(2.0), PowerLawDissipation(p), False)
        half = {e.kind: e.exponent for e in bs.entries if e.quantity == "E_half"}
        assert half["poly_lower"] == pytest.approx(-6.0 / 7.0)
        assert half["poly_upper"] == pytest.approx(-4.0 / 7.0)
        one = [e for e in bs.entries if e.quantity == "E_one"]
        assert len(one) == 1 and one[0].exponent == pytest.approx(-6.0 / 7.0)
        v = [e for e in bs.entries if e.quantity == "V"][0]
        assert v.exponent == pytest.approx(-12.0 / 7.0)

    def test_nondegenerate_noncoercive(self):
        nl = LipschitzTable(((0.0, 2.0),), mu=2.0)
        bs = predicted_bounds(nl, PowerLawDissipation(1.0), False)
        kinds = {(e.quantity, e.kind): e.exponent for e in bs.entries}
        assert kinds[("E_half", "poly_upper")] == -2.0
        assert kinds[("E_one", "poly_upper")] == -4.0
        assert kinds[("V", "poly_upper")] == -2.0
        assert ("E_half", "exp_lower") in kinds

    def test_outside_parabolic_regime_empty(self):
        bs = predicted_bounds(PowerNonlinearity(1.0), PowerLawDissipation(1.5), True)
        assert bs.entries == ()
        assert bs.regime.tag == "hyperbolic"
        nml = predicted_bounds(PowerNonlinearity(2.0), PowerLawDissipation(0.9), False)
        assert nml.entries == () and nml.regime.tag == "no_mans_land"

    def test_degenerate_table_has_no_rate_table(self):
        nl = LipschitzTable(((0.0, 0.0), (1.0, 1.0)))
        bs = predicted_bounds(nl, P0, False)
        assert bs.regime.tag == "parabolic" and bs.entries == ()

    def test_hyperbolic_run_extras(self):
        nl = LipschitzTable(((0.0, 1.0),), mu=1.0)
        bs = predicted_bounds(nl, PowerLawDissipation(0.5), False, hyperbolic_run=True)
        integrals = [e for e in bs.entries if e.kind == "integral_upper"]
        assert {e.weight_exponent for e in integrals} == {0.5, 2.0}


class TestVerifyBounds:
    @staticmethod
    def _series_from_run(nl, dis, spec, u0, t_end=1e5):
        s = IntegratorSettings(grid=OutputGrid("log", 2001, t_end))
        traj = kl.solve_parabolic_reparam(spec, nl, dis, u0, s)
        return kl.energy_suite(traj, nl, 0.0, ks=(0, 1, 2))

    def test_closed_form_sandwich_passes(self):
        nl = PowerNonlinearity(1.0)
        series = self._series_from_run(nl, P0, Spectrum([1.0]), [1.0])
        report = verify_bounds(series, predicted_bounds(nl, P0, True))
        assert report.worst == "pass"
        fitted = {e.quantity: e.fitted_exponent for e in report.entries}
        assert fitted["E_half"] == pytest.approx(-1.0, abs=0.01)
        assert fitted["V"] == pytest.approx(-3.0, abs=0.01)

    def test_undefined_channel_skipped(self):
        t = log_times(100.0, 50)
        series = EnergySeries(
            t,
            {
                "E_1": np.full_like(t, math.nan),
                "E_2": np.full_like(t, math.nan),
                "v": np.full_like(t, math.nan),
            },
        )
        bounds = predicted_bounds(PowerNonlinearity(1.0), P0, True)
        report = verify_bounds(series, bounds)
        assert report.worst == "skipped"
        assert all(e.verdict == "skipped" for e in report.entries)

    def test_failing_bound_detected(self):
        # Claim a faster decay than the data shows: must fail.
        t = log_times(1e4, 500)
        series = EnergySeries(t, {"v": (1.0 + t) ** -1})
        bounds = kl.BoundSet(
            (BoundEntry("V", "poly_upper", -2.0),),
            kl.Regime("parabolic", None),
        )
        report = verify_bounds(series, bounds)
        assert report.worst == "fail"


def _check(channels, entries, t, window):
    """Verify synthetic channels against hand-written bound entries."""
    bounds = kl.BoundSet(tuple(entries), kl.Regime("parabolic", None))
    return verify_bounds(EnergySeries(t, channels), bounds, window).entries


def _rise_then_drop(t, window):
    # (1+t)^-2 times a weight that climbs across the window and falls
    # back to its value at the window's first sample at the last one:
    # the fitted slope misses a -2 upper bound, the weighted end point
    # does not.
    w = 1.0 + np.log1p(t)
    w[-1] = w[np.argmax(t >= window[0])]
    return (1.0 + t) ** -2 * w


class TestVerifyBranches:
    WINDOW = (1.0, 1e4)

    def test_lone_upper_rise_then_drop_not_rescued(self):
        t = log_times(1e4, 500)
        (e,) = _check({"v": _rise_then_drop(t, self.WINDOW)}, [BoundEntry("V", "poly_upper", -2.0)],
                      t, self.WINDOW)
        assert e.verdict == "fail"
        assert e.margin < 0.0 and e.fitted_exponent > -2.0 + 0.07

    def test_sandwiched_upper_not_rescued(self):
        t = log_times(1e4, 500)
        entries = [BoundEntry("V", "poly_lower", -2.0), BoundEntry("V", "poly_upper", -2.0)]
        lower, upper = _check({"v": _rise_then_drop(t, self.WINDOW)}, entries, t, self.WINDOW)
        assert lower.verdict == "pass" and lower.margin > 0.0
        assert upper.verdict == "fail" and upper.margin < 0.0

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_exponential_pair_residual_dominance(self, weight):
        # q = p + 1 = 1.5; V carries the (1+t)^weight prefactor.
        t = np.linspace(0.0, 20.0, 300)
        window = (0.0, 20.0)
        entries = [
            BoundEntry("V", "exp_lower", 1.5, weight_exponent=weight),
            BoundEntry("V", "exp_upper", 1.5, weight_exponent=weight),
        ]
        exponential = (1.0 + t) ** weight * np.exp(-0.5 * (1.0 + t) ** 1.5)
        polynomial = (1.0 + t) ** (weight - 1.5)
        for values, verdict in ((exponential, "pass"), (polynomial, "fail")):
            got = _check({"v": values}, entries, t, window)
            assert [e.kind for e in got] == ["exp_lower", "exp_upper"]
            assert {e.verdict for e in got} == {verdict}
            assert all((e.margin > 0.0) == (verdict == "pass") for e in got)
        assert got[0].fitted_exponent == got[1].fitted_exponent

    def test_integral_upper_on_slope(self):
        t = log_times(1e4, 400)
        fast = BoundEntry("E_half", "integral_upper", 0.0, weight_exponent=1.0)
        slow = BoundEntry("E_one", "integral_upper", 0.0, weight_exponent=0.5)
        channels = {"E_1": (1.0 + t) ** -2.5, "E_2": (1.0 + t) ** -1.0}
        passed, failed = _check(channels, [fast, slow], t, self.WINDOW)
        assert passed.verdict == "pass"
        assert passed.margin == pytest.approx(0.43, abs=1e-6)
        assert failed.verdict == "fail"
        assert failed.margin == pytest.approx(-0.57, abs=1e-6)

    def test_integral_upper_converged_cumulative(self):
        # 1e-20 except a spike at the first sample of the window: the slope
        # misses -1 - tol, the cumulative integral has converged.
        t = log_times(1e4, 400)
        values = np.full_like(t, 1e-20)
        values[np.argmax(t >= self.WINDOW[0])] = 1.0
        entry = BoundEntry("V", "integral_upper", 0.0, weight_exponent=0.0)
        (e,) = _check({"v": values}, [entry], t, self.WINDOW)
        assert e.verdict == "pass"
        assert e.margin < 0.0

    def test_missing_channel_skipped(self):
        t = log_times(1e4, 200)
        entries = [BoundEntry("E_half", "poly_upper", -1.0), BoundEntry("E_one", "poly_upper", -1.0)]
        half, one = _check({"E_1": (1.0 + t) ** -1.0}, entries, t, self.WINDOW)
        assert half.verdict == "pass"
        assert one.verdict == "skipped" and one.fitted_exponent is None
        assert math.isnan(one.margin)

    @pytest.mark.parametrize("hyperbolic_run", [False, True])
    @pytest.mark.parametrize("coercive", [False, True])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("nl", [
        PowerNonlinearity(0.5),
        PowerNonlinearity(2.0),
        LipschitzTable(((0.0, 1.0), (1.0, 3.0))),
        LipschitzTable(((0.0, 0.0), (1.0, 1.0))),
    ], ids=["power-0.5", "power-2", "table", "degenerate-table"])
    def test_sets_grouped_by_quantity(self, nl, p, coercive, hyperbolic_run):
        # Every table is written in report order, and a second-order run of
        # a nondegenerate model carries no bound of the limit's exp law.
        bounds = predicted_bounds(nl, PowerLawDissipation(p), coercive, hyperbolic_run)
        order = [("E_half", "E_one", "V").index(e.quantity) for e in bounds.entries]
        assert order == sorted(order)
        if hyperbolic_run and nl.mu > 0.0:
            assert bounds.entries and not any(e.kind.startswith("exp") for e in bounds.entries)
        t = log_times(1e4, 200)
        channels = {name: (1.0 + t) ** -1.0 for name in ("E_1", "E_2", "v")}
        got = verify_bounds(EnergySeries(t, channels), bounds, self.WINDOW).entries
        assert [(e.quantity, e.kind) for e in got] == [(e.quantity, e.kind) for e in bounds.entries]


class TestClosedFormP1:
    """The hyperbolic table against the closed form at p = 1, m == 1,
    eps = 1/(2j), where every channel decays like (1+t)^(-1/eps)."""

    @pytest.mark.parametrize("j, failing", [
        (5, []),
        (2, [("E_one", "integral_upper")]),
        (1, [
            ("E_half", "integral_upper"),
            ("E_one", "poly_upper"),
            ("E_one", "integral_upper"),
            ("V", "integral_upper"),
        ]),
    ])
    def test_eps_hypothesis(self, j, failing):
        # E_one's bounds need eps < 1/4, those of E_half and V eps < 1/2.
        spec = Spectrum([1.0, 4.0])
        t = log_times(1e4, 1601)
        u, up = bessel_p1(spec.eigenvalues, [1.0, 0.5], [0.0, 0.0], j, t)
        traj = Trajectory(spec, t, u, up, COMPLETED)
        series = energy_suite(traj, M_ONE, 1.0 / (2 * j), ks=(1, 2))
        bounds = predicted_bounds(M_ONE, PowerLawDissipation(1.0), True, hyperbolic_run=True)
        report = verify_bounds(series, bounds)
        assert report.window == pytest.approx((99.01, 1e4))
        assert [(e.quantity, e.kind) for e in report.entries if e.verdict == "fail"] == failing
        assert all(e.verdict in ("pass", "fail") for e in report.entries)

    def test_sweep_error_series(self):
        # The remainders of a solved sweep against the same norms of the
        # closed forms: u_eps from bessel_p1, the limit
        # u = u0 exp(-lambda((1+t)^2 - 1)/2) and theta' = w0 (1+t)^(-2j).
        spec = Spectrum([1.0, 4.0])
        lam = spec.eigenvalues
        u0, u1 = np.array([1.0, 0.5]), np.array([0.3, -0.2])
        dis = PowerLawDissipation(1.0)
        js = (1, 2, 5, 10)
        s = IntegratorSettings(grid=OutputGrid("log", 201, 100.0))
        t = s.grid.times()
        hyps = kl.solve_hyperbolic_sweep(spec, M_ONE, dis, [1.0 / (2 * j) for j in js], u0, u1, s)
        par = kl.solve_parabolic_reparam(spec, M_ONE, dis, u0, s)
        u = u0 * np.exp(-np.multiply.outer((1.0 + t) ** 2 - 1.0, lam) / 2.0)
        up = -lam * (1.0 + t)[:, None] * u
        w0 = u1 + lam * u0
        tol = 1e-9 * (u0 @ u0 + u1 @ u1)
        for j, hyp in zip(js, hyps):
            eps = 1.0 / (2 * j)
            corr = kl.corrector(spec, M_ONE, dis, eps, u0, u1, t)
            es = perturbation_errors(hyp, par, corr, dis)
            u_eps, up_eps = bessel_p1(lam, u0, u1, j, t)
            rho = u_eps - u
            r_prime = up_eps - up - np.multiply.outer((1.0 + t) ** (-2.0 * j), w0)
            expected = {
                "rho_sq": rho**2 @ np.ones(2),
                "half_rho_sq": rho**2 @ lam,
                "one_rho_sq": rho**2 @ lam**2,
                "r_prime_sq": r_prime**2 @ np.ones(2),
                "half_r_prime_sq": r_prime**2 @ lam,
            }
            for name, ref in expected.items():
                np.testing.assert_allclose(es[name], ref, rtol=0.0, atol=tol,
                                           err_msg=f"{name}, j={j}")


class TestPerturbationErrors:
    def _inputs(self, n=2, m=9):
        spec = Spectrum(np.linspace(1.0, 2.0, n))
        t = np.linspace(0.0, 2.0, m)
        u = np.ones((m, n))
        up = np.zeros((m, n))
        traj_e = Trajectory(spec, t, u.copy(), up.copy(), COMPLETED)
        traj_p = Trajectory(spec, t, u.copy(), up.copy(), COMPLETED)
        corr = CorrectorTrajectory(t, np.zeros((m, n)), np.zeros((m, n)))
        return traj_e, traj_p, corr

    def test_identical_runs_all_zero(self):
        es = perturbation_errors(*self._inputs(), P0)
        for name, vals in es.channels.items():
            np.testing.assert_array_equal(vals, 0.0, err_msg=name)

    def test_initial_conditions_exact(self):
        spec = Spectrum([1.0, 4.0])
        nl = PowerNonlinearity(1.0)
        u0, u1 = [0.5, 0.25], [0.1, -0.2]
        s = IntegratorSettings(grid=OutputGrid("log", 101, 1.0))
        hyp = kl.solve_hyperbolic(spec, nl, P0, 1e-2, u0, u1, s)
        par = kl.solve_parabolic_reparam(spec, nl, P0, u0, s)
        corr = kl.corrector(spec, nl, P0, 1e-2, u0, u1, s.grid.times())
        es = perturbation_errors(hyp, par, corr, P0)
        assert es["rho_sq"][0] == es["r_prime_sq"][0] == 0.0

    def test_grid_mismatch_rejected(self):
        traj_e, traj_p, corr = self._inputs()
        bad = CorrectorTrajectory(
            traj_e.times[:-1], corr.theta[:-1], corr.theta_prime[:-1]
        )
        with pytest.raises(ValueError):
            perturbation_errors(traj_e, traj_p, bad, P0)

    def test_weighted_channels_and_integrals(self):
        spec = Spectrum([1.0])
        t = np.array([0.0, 1.0, 3.0])
        rho = np.array([[0.0], [1.0], [1.0]])
        traj_e = Trajectory(spec, t, rho, np.zeros((3, 1)), COMPLETED)
        traj_p = Trajectory(spec, t, np.zeros((3, 1)), np.zeros((3, 1)), COMPLETED)
        corr = CorrectorTrajectory(t, np.zeros((3, 1)), np.zeros((3, 1)))
        es = perturbation_errors(traj_e, traj_p, corr, PowerLawDissipation(1.0))
        np.testing.assert_allclose(es.channels["half_rho_sq_weighted"],
                                   (1.0 + t) ** 2 * np.array([0.0, 1.0, 1.0]))
        # trapezoid of (1+t)^1 * (0 + half_rho_sq): segments by hand
        seg1 = 0.5 * (0.0 + 2.0 * 1.0) * 1.0
        seg2 = 0.5 * (2.0 * 1.0 + 4.0 * 1.0) * 2.0
        np.testing.assert_allclose(es.channels["cum_int_p"], [0.0, seg1, seg1 + seg2])


def _trapezoid_inputs():
    t = log_times(1e4, 801)
    # exp(-t) passes through the subnormals to 0 well before t = 1e4.
    falling = np.exp(-t) * (1.0 + t) ** 2
    wavy = (1.0 + t) ** -1.3 * (1.5 + np.sin(t))
    wavy[::7] = 0.0  # dropped by the mask, as a nonpositive value
    wavy[::11] = np.nan  # dropped too
    masked = kl.analysis._masked(t, wavy, kl.default_window(t))
    return {
        "log_grid_underflow": (t, falling),
        "masked_window": masked,
        "two_points": (np.array([0.0, 0.3]), np.array([1.0, 1.0 / 3.0])),
        "one_point": (np.array([2.0]), np.array([5.0])),
    }


@pytest.mark.parametrize("case", sorted(_trapezoid_inputs()))
def test_cumulative_trapezoid_is_scipys(case):
    t, v = _trapezoid_inputs()[case]
    ours = kl.analysis._cumulative_trapezoid(v, t)
    scipys = cumulative_trapezoid(v, t, initial=0.0)
    np.testing.assert_array_equal(ours, scipys)
    assert ours.dtype == scipys.dtype and ours.shape == scipys.shape == t.shape


class TestHamiltonianFloor:
    def test_zero_data(self):
        spec = Spectrum([1.0])
        traj = Trajectory(spec, np.array([0.0, 1.0]), np.zeros((2, 1)),
                          np.zeros((2, 1)), COMPLETED)
        series = energy_suite(traj, PowerNonlinearity(1.0), 0.5)
        fs = hamiltonian_floor(series, P0, 0.5)
        np.testing.assert_array_equal(fs["H"], 0.0)
        np.testing.assert_array_equal(fs["floor"], 0.0)
        np.testing.assert_array_equal(fs["margin"], 0.0)

    def test_constant_dissipation_shape(self):
        spec = Spectrum([1.0])
        nl = M_ONE
        eps = 0.5
        s = IntegratorSettings(grid=OutputGrid("linear", 41, 2.0))
        traj = kl.solve_hyperbolic(spec, nl, P0, eps, [1.0], [0.0], s)
        fs = hamiltonian_floor(energy_suite(traj, nl, eps), P0, eps)
        np.testing.assert_allclose(
            fs["floor"], fs["H"][0] * np.exp(-2.0 * traj.times / eps), rtol=1e-12
        )
        assert np.min(fs["margin"]) >= -1e-8 * fs["H"][0]

    def test_integrable_dissipation_floor_positive(self):
        spec = Spectrum([2.0])
        nl = PowerNonlinearity(1.0)
        dis = PowerLawDissipation(2.0)
        eps = 0.1
        s = IntegratorSettings(grid=OutputGrid("log", 401, 100.0))
        traj = kl.solve_hyperbolic(spec, nl, dis, eps, [1.0], [0.5], s)
        fs = hamiltonian_floor(energy_suite(traj, nl, eps), dis, eps)
        # total dissipation is below 1, so the terminal floor is at least
        # H0 e^{-20} and the margin stays nonnegative
        assert fs["floor"][-1] >= fs["H"][0] * math.exp(-2.0 / eps) * (1.0 - 1e-12)
        assert np.min(fs["margin"]) >= -1e-8 * fs["H"][0]


def test_default_window_last_two_decades():
    t = log_times(1e4, 100)
    lo, hi = default_window(t)
    assert hi == 1e4
    assert lo == pytest.approx((1.0 + 1e4) / 100.0 - 1.0)
    assert default_window(np.array([0.0, 1.0, 50.0]))[0] == 0.0
