"""Time integration for the second-order problem, its first-order limit,
and the boundary-layer corrector.

Every solve steps one of two integrators through one loop,
``_integrate``, and identical inputs give bit-identical outputs. Steps
follow the integrator's own control and are not clamped to the output
grid: each output time inside an accepted step is read from that
step's dense output, and an output time that is also a step end takes
the state itself. Every run reports which stepper it used and how much
work it took (``SolverStats``).

- kirchlab's own DP5 stepper, ``_DormandPrince``: the Dormand-Prince
  5(4) pair (Hairer-Norsett-Wanner, Solving ODEs I, II.4-II.5; samples
  are its quartic interpolants) with scipy's RK45 step control, bit for
  bit, but without scipy's per-step wrappers. Its tableau is a copy of
  RK45's, literal for literal as scipy's ``rk.py`` writes it. It runs
  the reparametrized clock and every N-dimensional run that is not
  stiff, and counts its rejected steps. Second-order steps are capped at
  a fixed fraction of the fastest oscillation period of the current
  state.
- kirchlab's own Radau IIA stepper of order 5, ``_RadauIIA``
  (Hairer-Wanner, Solving ODEs II, IV.8; samples are its collocation
  cubics) with scipy's Radau step control, bit for bit, but without
  scipy's per-step wrappers, and with an analytic Jacobian. It runs the
  runs whose explicit steps would be stability-bound: small-eps
  second-order runs with a long overdamped stretch, and direct
  first-order runs whose decay rate lambda m / b outgrows the horizon,
  and counts its rejected steps. Both Jacobians are a diagonal part plus
  one rank-one term, so each Newton system is solved in closed form, by
  block elimination and Sherman-Morrison (Golub-Van Loan, Matrix
  Computations, 2.1): O(N) operations per factorisation and per solve,
  in place of a dense LU. No matrix is formed: the Jacobian is kept as
  its diagonal and rank-one parts (``_StiffnessTerm``, of a modal vector
  or a stack's rows), so work and memory are O(N) per step at any N.

Every second-order solve is an eps sweep, ``solve_hyperbolic`` one of a
single member, and one router, ``_sweep_runs``, gives each run its
stepper, ``_second_order_dp5`` or ``_second_order_radau``. The members
of a stiff sweep that are damped out before they can oscillate share
one Radau run, if the tolerance floor can hold them all. Every
second-order Radau run, lone or shared, is a stack of k members, stored
as [U; W]: all members' u, then all their u', two contiguous (k, N)
blocks; one member is the lone state (u, u'). Radau is built from its
stage function alone, which evaluates the three collocation stages of a
Newton iteration in one call. Every run has one blow-up test, on its
whole state's squared norm; a shared run that stops is rerun member by
member, so every stop is a lone run's.

The corrector's decay integral is kirchlab's own too
(``quadrature.decay_integrals``), so no module imports scipy.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import Dissipation, Nonlinearity, compute_w0
from .quadrature import decay_integrals
from .spectral import ConfigurationError, Spectrum, as_modal, modal_sums, sigma_half

__all__ = [
    "OutputGrid",
    "IntegratorSettings",
    "SolverStats",
    "Trajectory",
    "CorrectorTrajectory",
    "COMPLETED",
    "BLEW_UP",
    "STEP_UNDERFLOW",
    "solve_hyperbolic",
    "solve_hyperbolic_sweep",
    "solve_parabolic_reparam",
    "solve_parabolic_direct",
    "corrector",
    "residual_norm",
]

COMPLETED = "completed"
BLEW_UP = "blew_up"
STEP_UNDERFLOW = "step_underflow"

_EPS = float(np.finfo(float).eps)
_MIN_REL_TOL = 100.0 * _EPS


@dataclass(frozen=True)
class OutputGrid:
    """Sampling grid on [0, t_end]. Log grids are uniform in log(1+t),
    which matches decay laws that are polynomial in (1+t). The default
    count is about 400 samples per decade of (1+t); a given count must
    be an integer of at least 2."""

    kind: str = "log"
    count: int | None = None
    t_end: float = 100.0

    def __post_init__(self):
        if self.kind not in ("log", "linear"):
            raise ConfigurationError("settings.grid.kind must be 'log' or 'linear'")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ConfigurationError("settings.grid.t_end must be positive")
        if self.count is None:
            count = max(2, int(round(400.0 * math.log10(1.0 + self.t_end))) + 1)
            object.__setattr__(self, "count", count)
        if not isinstance(self.count, numbers.Integral):
            raise ConfigurationError(f"settings.grid.count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise ConfigurationError("settings.grid.count must be at least 2")

    def times(self) -> np.ndarray:
        if self.kind == "log":
            t = np.expm1(np.linspace(0.0, math.log1p(self.t_end), self.count))
        else:
            t = np.linspace(0.0, self.t_end, self.count)
        t[0] = 0.0
        t[-1] = self.t_end
        return t


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances and guards for both steppers, DP5 and Radau.

    rel_tol must be at least 100 machine epsilons, the floor below which
    scipy's RK45 and Radau, whose step controls DP5 and Radau repeat,
    would silently raise it. max_step_factor applies to
    second-order DP5 runs only: it caps their steps at
    c * sqrt(eps / (lambda_max * m + eps)), a fixed fraction of the
    fastest oscillation period; m is the stiffness coefficient
    m(|A^(1/2)u|^2) of the latest accepted state (of the initial datum
    for the first step), so the cap loosens as the solution decays and
    tightens as it grows. Radau steps are not capped.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step_factor: float = 0.5
    blowup_threshold: float = 1e8
    grid: OutputGrid = field(default_factory=OutputGrid)

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step_factor", "blowup_threshold"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigurationError(f"settings.{name} must be positive")
        if self.rel_tol < _MIN_REL_TOL:
            raise ConfigurationError(f"settings.rel_tol must be at least {_MIN_REL_TOL!r}")


@dataclass(frozen=True)
class SolverStats:
    """Work done by one run of a stepper.

    ``method`` is ``"dp5"`` (``_DormandPrince``) or ``"radau"``
    (``_RadauIIA``), both kirchlab's own steppers. Both count right-hand
    side evaluations, accepted steps and rejected attempts. DP5 also
    files each accepted step under the bound that set its size, the step
    cap or the error control, so ``accepted == cap_limited +
    error_limited`` and ``rhs_evals == 2 + 6 * (accepted + rejected)``;
    Radau's steps are not capped, and these two counts are ``None``
    there. Radau rejects a step that fails the error test or whose
    Newton iteration does not converge with a fresh Jacobian (the step
    is halved). It counts its Jacobian evaluations and, in
    ``lu_decompositions``, the factorisations of its Newton matrices
    c I - J, c = MU/h: closed-form solves, not LU, of a Jacobian kept in
    parts, counted where scipy's Radau counts its Jacobians and LU
    factorisations, so the counts equal those of a run with the true
    Jacobian and dense LU. DP5 evaluates no Jacobian.
    ``members`` is the number of eps values the run integrated side by
    side: 1 for a lone run, k for a shared Radau run of a sweep
    (``solve_hyperbolic_sweep``), whose counts are those of the whole
    stacked run.
    """

    method: str
    rhs_evals: int
    accepted: int
    rejected: int
    cap_limited: int | None
    error_limited: int | None
    jac_evals: int = 0
    lu_decompositions: int = 0
    members: int = 1


@dataclass
class Trajectory:
    """Sampled solution of one run.

    ``times`` starts at 0 and is strictly increasing; ``u`` and
    ``uprime`` are (len(times), N) coefficient arrays. If the run did
    not complete, ``times`` ends at ``t_stop`` before the grid end.
    ``alpha`` is populated only by the reparametrized first-order
    solver and is nondecreasing with alpha(0) = 0. ``stats`` describes
    the stepper run that produced the samples.
    """

    spectrum: Spectrum
    times: np.ndarray
    u: np.ndarray
    uprime: np.ndarray
    status: str
    t_stop: float | None = None
    alpha: np.ndarray | None = None
    stats: SolverStats | None = None


@dataclass
class CorrectorTrajectory:
    """Boundary-layer corrector samples: theta(0) = 0, theta'(0) = w0.
    A w0 that is not finite gives no samples and ``step_underflow``."""

    times: np.ndarray
    theta: np.ndarray
    theta_prime: np.ndarray
    status: str = COMPLETED
    stats: None = None  # no stepper runs


def _rms(x):
    # RMS norm as scipy's, of a state or of Radau's (3, n) Newton increment:
    # np.linalg.norm takes the same square root of x.dot(x). It stays a
    # numpy float, so an infinite norm divides as in scipy (0.0 / 0.0 is
    # NaN with a warning, not ZeroDivisionError).
    x = x.ravel()
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(rhs, y0, f0, t_end, rtol, atol, order):
    """Hairer's initial step on [0, t_end] for an error estimate of order
    ``order`` (Hairer-Norsett-Wanner, Solving ODEs I, II.4), as scipy's
    ``select_initial_step`` without a step bound; f0 = rhs(0, y0), and
    one more evaluation probes the step."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = _rms((rhs(h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, t_end)


class _DormandPrince:
    """Dormand-Prince 5(4) with scipy's RK45 step control (Hairer-Norsett-
    Wanner, Solving ODEs I, II.4-II.5), without scipy's per-step wrappers.

    It repeats RK45's arithmetic operation for operation, so states,
    dense-output samples and counts are RK45's bit for bit
    (TestDormandPrince): RK45's tableau, Hairer's initial step as in
    scipy's ``select_initial_step``, the RMS error norm, safety factor
    0.9, step factors in [0.2, 10] with exponent -1/5, a smallest step
    of 10 ulp(t) and the quartic dense output.

    ``rhs(t, y, out=None)`` fills and returns ``out`` when one is given,
    and returns a fresh array otherwise, with the same bits either way;
    it keeps no reference to ``y`` or ``out``. The stepper hands it the
    stage rows of ``K`` (``K[-1]`` for the FSAL stage), whose views it
    builds once per run, and copies the accepted derivative into ``f``
    once per step; the launch probes take fresh arrays.

    ``step_cap()``, if given, sets ``max_step`` right after the launch
    derivative rhs(0, y0) and after each accepted step, right after the
    FSAL stage (the step's last ``rhs`` call), so a cap built from values
    the right-hand side computes reads them at the launch or accepted
    state at no extra evaluation. The stepper counts its rejected
    attempts and, in ``cap_limited``, the accepted steps at least
    cap * (1 - 1e-12) long (the tolerance absorbs the rounding of
    t_new - t).
    """

    method = "dp5"
    # RK45's tableau as scipy's rk.py writes it; P is the quartic dense
    # output at Shampine's optimum c_6 (Some Practical Runge-Kutta
    # Formulas, Math. Comp. 46, 1986).
    n_stages = 6
    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
    ])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608,
         -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933,
         87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304,
         -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408,
         701980252875 / 199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

    def __init__(self, rhs, y0, settings: IntegratorSettings, step_cap=None):
        self.rhs, self.step_cap = rhs, step_cap
        self.t_end, self.rtol, self.atol = settings.grid.t_end, settings.rel_tol, settings.abs_tol
        self.t, self.y, self.n = 0.0, y0, y0.size
        self.t_old = self.y_old = None
        self.status = "running"  # or "failed", as scipy's solvers say it
        self.rejected = self.cap_limited = 0
        self.K = K = np.empty((self.n_stages + 1, y0.size))
        # Stage plan, built once per run: (K[:s].T, row of A, node, K[s])
        # for stages 1..5.
        self._plan = tuple(
            (K[:s].T, self.A[s, :s], self.C[s], K[s]) for s in range(1, self.n_stages)
        )
        self._KT_B, self._KT = K[:-1].T, K.T
        self.f = f0 = rhs(0.0, y0)
        self.max_step = math.inf if step_cap is None else step_cap()
        self.h_abs = _initial_step(rhs, y0, f0, self.t_end, self.rtol, self.atol, 4)
        self.nfev = 2

    def step(self):
        """One accepted step, or ``status = "failed"`` once the step
        would fall below 10 ulp(t)."""
        t, y, K, cap, rhs = self.t, self.y, self.K, self.max_step, self.rhs
        min_step = 10 * math.ulp(t)
        h_abs = cap if self.h_abs > cap else max(self.h_abs, min_step)
        rejected = 0
        K[0] = self.f
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return
            t_new = min(t + h_abs, self.t_end)
            h = t_new - t
            for KsT, a, c, Ks in self._plan:
                rhs(t + c * h, y + np.dot(KsT, a) * h, Ks)
            y_new = y + h * np.dot(self._KT_B, self.B)
            rhs(t + h, y_new, K[-1])
            self.nfev += 6
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms(np.dot(self._KT, self.E) * h / scale)
            if error_norm < 1:
                break
            h_abs = h * max(0.2, 0.9 * error_norm ** -0.2)
            rejected += 1
        factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
        self.h_abs = h * (min(1, factor) if rejected else factor)
        self.rejected += rejected
        if h >= cap * (1.0 - 1e-12):
            self.cap_limited += 1
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f = t_new, y_new, K[-1].copy()
        if self.step_cap is not None:
            self.max_step = self.step_cap()

    def dense_output(self):
        """RK45's quartic interpolant on the last accepted step, as a
        function of an array of times."""
        t_old, y_old, h = self.t_old, self.y_old, self.t - self.t_old
        Q = self._KT.dot(self.P)

        def interpolant(times):
            x = (times - t_old) / h
            xx = x * x
            xxx = xx * x
            y = h * np.dot(Q, np.array([x, xx, xxx, xxx * x]))  # scipy's cumulative powers
            y += y_old[:, None]
            return y

        return interpolant


class _RadauIIA:
    """Radau IIA of order 5 with scipy's Radau step control (Hairer-Wanner,
    Solving ODEs II, IV.8), without scipy's per-step wrappers and with
    closed-form Newton solves.

    It repeats scipy 1.17.1's ``Radau`` operation for operation, so
    states, dense-output samples and counts are scipy's bit for bit
    (TestRadauIIA): the tableau and its eigen-transformation as scipy's
    source writes them, Hairer's initial step for an order-3 error
    estimate, ``newton_tol``, the simplified Newton iteration of the
    collocation system (at most 6 iterations, stopped by the rate
    test), the embedded error estimate with its extra evaluation after a
    rejection, the step factors of ``_predict_factor``, the Jacobian
    refresh rules and the cubic collocation interpolant, which also
    starts the Newton iteration of the next step.

    ``newton(t, y)`` linearises the right-hand side at (t, y) and returns
    ``factor(c)``, the solver of (c I - J) x = r for c = MU/h real or
    complex; ``njev`` and ``nlu`` count the calls of the two, where
    scipy counts its Jacobians and LU factorisations. ``stages(times,
    Y)`` is the right-hand side, row i of the (len(times), n) array Y
    at times[i]: the stepper calls it on the three collocation stages
    at once (three evaluations), and ``rhs(t, y)``, the derivative at
    one state, is its call on one row (one evaluation). The stepper
    counts its rejected attempts: steps that fail the error test and
    steps halved because Newton did not converge with a fresh Jacobian.
    """

    method = "radau"
    S6 = 6 ** 0.5
    C = np.array([(4 - S6) / 10, (4 + S6) / 10, 1])
    E = np.array([-13 - 7 * S6, -13 + 7 * S6, -1]) / 3
    MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
    MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
                  - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
    T = np.array([
        [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
        [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
        [1, 1, 0]])
    TI = np.array([
        [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
        [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
        [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
    TI_REAL = TI[0]
    TI_COMPLEX = TI[1] + 1j * TI[2]
    P = np.array([
        [13/3 + 7*S6/3, -23/3 - 22*S6/3, 10/3 + 5 * S6],
        [13/3 - 7*S6/3, -23/3 + 22*S6/3, 10/3 - 5 * S6],
        [1/3, -8/3, 10/3]])
    NEWTON_MAXITER = 6

    def __init__(self, y0, t_end, rtol, atol, newton, stages):
        self.jac, self.stages = newton, stages
        self.rhs = lambda t, y: stages((t,), y[None])[0]
        self.t_end, self.rtol, self.atol = t_end, rtol, atol
        self.t, self.y, self.n = 0.0, y0, y0.size
        self.t_old = self.y_old = self.Q = None
        self.status = "running"  # or "failed", as scipy's solvers say it
        self.rejected = 0
        self.f = f0 = self.rhs(0.0, y0)
        self.h_abs = _initial_step(self.rhs, y0, f0, t_end, rtol, atol, 3)
        self.h_abs_old = self.error_norm_old = None
        self.newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
        self.J = newton(0.0, y0)
        self.nfev, self.njev, self.nlu = 2, 1, 0
        self.current_jac = True
        self.LU_real = self.LU_complex = None

    def _collocation(self, t, y, h, Z0, scale, LU_real, LU_complex):
        """scipy's solve_collocation_system: (converged, iterations, Z,
        rate) of the simplified Newton iteration from Z0."""
        maxiter, tol = self.NEWTON_MAXITER, self.newton_tol
        M_real = self.MU_REAL / h
        M_complex = self.MU_COMPLEX / h
        W = self.TI.dot(Z0)
        Z = Z0
        times = t + h * self.C
        dW_norm_old = None
        dW = np.empty_like(W)
        converged = False
        rate = None
        for k in range(maxiter):
            # y + Z0 is Fortran-ordered, and numpy would then sum a stacked
            # right-hand side's rows in another order than a lone state's.
            F = self.stages(times, np.add(y, Z, order="C"))
            self.nfev += 3
            if not np.isfinite(F).all():
                break
            f_real = F.T.dot(self.TI_REAL) - M_real * W[0]
            f_complex = F.T.dot(self.TI_COMPLEX) - M_complex * (W[1] + 1j * W[2])
            dW_real = LU_real(f_real)
            dW_complex = LU_complex(f_complex)
            dW[0] = dW_real
            dW[1] = dW_complex.real
            dW[2] = dW_complex.imag
            dW_norm = _rms(dW / scale)
            if dW_norm_old is not None:
                rate = dW_norm / dW_norm_old
            if rate is not None and (
                rate >= 1 or rate ** (maxiter - k) / (1 - rate) * dW_norm > tol
            ):
                break
            W += dW
            Z = self.T.dot(W)
            if dW_norm == 0 or rate is not None and rate / (1 - rate) * dW_norm < tol:
                converged = True
                break
            dW_norm_old = dW_norm
        return converged, k + 1, Z, rate

    def step(self):
        """One accepted step, or ``status = "failed"`` once the step
        would fall below 10 ulp(t)."""
        t, y, f = self.t, self.y, self.f
        min_step = 10 * math.ulp(t)
        if self.h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        else:
            h_abs, h_abs_old, error_norm_old = self.h_abs, self.h_abs_old, self.error_norm_old
        J, LU_real, LU_complex = self.J, self.LU_real, self.LU_complex
        current_jac = self.current_jac
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return
            t_new = min(t + h_abs, self.t_end)
            h_abs = h = t_new - t
            if self.Q is None:
                Z0 = np.zeros((3, self.n))
            else:
                Z0 = self._interpolate(t + h * self.C).T - y
            scale = self.atol + np.abs(y) * self.rtol
            converged = False
            while not converged:
                if LU_real is None:
                    LU_real, LU_complex = J(self.MU_REAL / h), J(self.MU_COMPLEX / h)
                    self.nlu += 2
                converged, n_iter, Z, rate = self._collocation(
                    t, y, h, Z0, scale, LU_real, LU_complex
                )
                if not converged:
                    if current_jac:
                        break
                    J = self.jac(t, y)
                    self.njev += 1
                    current_jac = True
                    LU_real = LU_complex = None
            if not converged:
                h_abs *= 0.5
                LU_real = LU_complex = None
                self.rejected += 1
                continue
            y_new = y + Z[-1]
            ZE = Z.T.dot(self.E) / h
            error = LU_real(f + ZE)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms(error / scale)
            safety = 0.9 * (2 * self.NEWTON_MAXITER + 1) / (2 * self.NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                error = LU_real(self.rhs(t, y + error) + ZE)
                self.nfev += 1
                error_norm = _rms(error / scale)
            if error_norm > 1:  # so a NaN norm is accepted, as in scipy
                factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
                h_abs *= max(0.2, safety * factor)
                LU_real = LU_complex = None
                rejected = True
                self.rejected += 1
            else:
                break

        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(10, safety * factor)
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            LU_real = LU_complex = None
        f_new = self.rhs(t_new, y_new)
        self.nfev += 1
        if recompute_jac:
            J = self.jac(t_new, y_new)
            self.njev += 1
        current_jac = recompute_jac
        self.h_abs_old, self.error_norm_old = self.h_abs, error_norm
        self.h_abs = h_abs * factor
        self.t_old, self.y_old, self.h = t, y, h
        self.t, self.y, self.f = t_new, y_new, f_new
        self.Q = np.dot(Z.T, self.P)
        self.J, self.LU_real, self.LU_complex = J, LU_real, LU_complex
        self.current_jac = current_jac

    def _interpolate(self, times):
        x = (times - self.t_old) / self.h
        xx = x * x
        y = np.dot(self.Q, np.array([x, xx, xx * x]))  # scipy's cumulative powers
        y += self.y_old[:, None]
        return y

    def dense_output(self):
        """The collocation cubic on the last accepted step, as a function
        of an array of times."""
        return self._interpolate


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    # scipy's predict_factor (Hairer-Wanner, IV.8): Gustafsson's
    # two-step control once the last step's figures are known. A zero
    # error norm gives scipy's infinite factor without its warning.
    if error_norm == 0:
        return math.inf
    if error_norm_old is None or h_abs_old is None:
        multiplier = 1
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1, multiplier) * error_norm ** -0.25


def _integrate(solver, out_times, blowup_threshold=None):
    """Step a ``_DormandPrince`` or a ``_RadauIIA`` through every time
    in ``out_times``.

    Output times inside an accepted step are read from the step's dense
    output; one that is the step end takes the state.

    Returns (times, samples, status, t_stop, stats). Blow-up (squared
    state norm y @ y above the threshold) and a solver failure end the
    run with a status, not an exception; the returned arrays then end
    with the state at the stopping time. The test reads the whole state,
    so a shared run's stack blows up on the sum of its members' norms.
    """
    samples = np.empty((out_times.size, solver.n))
    samples[0] = solver.y
    status = COMPLETED
    t_stop = None
    accepted = 0
    i_out = 1
    if math.isnan(solver.h_abs):
        # Both steppers take a NaN first step from a non-finite launch
        # derivative and would retry it forever.
        status, t_stop = STEP_UNDERFLOW, solver.t
    while status == COMPLETED and i_out < out_times.size:
        solver.step()
        if solver.status == "failed":
            status, t_stop = STEP_UNDERFLOW, solver.t
            break
        accepted += 1
        t, y = solver.t, solver.y
        if blowup_threshold is not None and float(y @ y) > blowup_threshold:
            status, t_stop = BLEW_UP, t
            break
        if t >= out_times[i_out]:  # most steps reach no output time
            j = int(np.searchsorted(out_times, t, side="right"))
            samples[i_out:j] = solver.dense_output()(out_times[i_out:j]).T
            if out_times[j - 1] == t:
                samples[j - 1] = y
            i_out = j

    times = out_times[:i_out]
    samples = samples[:i_out]
    if status != COMPLETED and times[-1] != t_stop:
        times = np.append(times, t_stop)
        samples = np.vstack([samples, solver.y])
    if solver.method == "radau":
        stats = SolverStats(
            "radau", solver.nfev, accepted, solver.rejected, None, None, solver.njev,
            solver.nlu,
        )
    else:
        stats = SolverStats(
            "dp5", solver.nfev, accepted, solver.rejected, solver.cap_limited,
            accepted - solver.cap_limited,
        )
    return times, samples, status, t_stop, stats


class _StiffnessTerm:
    """The linearisation K = diag(m(sigma) lambda / scale) + kappa w w^T
    of m(|A^(1/2)u|^2) A u / scale at u, with w = lambda u and
    kappa = 2 m'(sigma) / scale. The rank-one m' term keeps Newton
    converging when m varies; kappa is 0 only where m' is infinite (the
    gamma < 1 kink at sigma = 0).

    ``u`` is one modal vector or a (members x N) stack, one row per
    member (``scale`` a float or a column); K is then block-diagonal.
    Sums and dot products run over the last axis and keep it, so a
    one-row stack gets its vector's solves bit for bit.

    K is kept as its parts and never assembled: the Newton solves of
    ``_RadauIIA`` need only ``shifted_solver``.
    """

    def __init__(self, nl: Nonlinearity, lam: np.ndarray, u: np.ndarray, scale):
        # Summed as sigma_half sums, row by row.
        sigma = np.add.reduce(lam * (u * u), axis=-1, keepdims=True)
        with np.errstate(divide="ignore", over="ignore"):  # m' saturates at inf
            dm = nl.derivative(sigma)
            self.kappa = np.where(np.isfinite(dm), 2.0 * dm / scale, 0.0)
        self.diag = (nl.value(sigma) / scale) * lam
        self.w = lam * u

    def shifted_solver(self, shift):
        """Solver of (K + shift I) x = r, shift real or complex (a column
        of shifts for stacked members), by Sherman-Morrison: O(N) per
        member to set up and per solve. A member with kappa = 0 has a
        diagonal K and no rank-one term, which would otherwise form
        0 * inf once |lambda u|^2 overflows. The dot products conjugate
        their first factor, the real w, which leaves it unchanged."""
        d = self.diag + shift
        kappa, w = self.kappa, self.w
        if not np.any(kappa):
            return lambda r: r / d
        if not np.all(kappa):
            w = np.where(kappa == 0.0, 0.0, w)
        dw = w / d
        coef = kappa / (1.0 + kappa * np.vecdot(w, dw, keepdims=True))

        def solve(r):
            x = r / d
            x -= dw * (coef * np.vecdot(w, x, keepdims=True))
            return x

        return solve


def _second_order_newton(stiff: _StiffnessTerm, damp, c):
    """Solver of A (x, y) = (r, s) for the Newton matrix A = c I - J of
    the second-order system, J = [[0, I], [-K, -damp I]]. A is
    [[c I, -I], [K, d I]] with d = c + damp, so y = c x - r and
    (K + c d I) x = s + d r. For a stack of members (``damp`` a column)
    the state is [U; W], all members' u, then all their u', so x, y, r
    and s are contiguous (members x N) blocks, A is block-diagonal in
    each member, and each member's block is eliminated on its row."""
    d = c + damp
    solve_x = stiff.shifted_solver(c * d)
    shape = (2,) + stiff.w.shape

    def solve(rhs):
        r, s = rhs.reshape(shape)
        x = solve_x(s + d * r)
        return np.concatenate([x, c * x - r]).ravel()

    return solve


# A run goes to Radau when explicit DP5 would need more stability-bound
# steps than this. While a run is overdamped, DP5's stable step is a few
# eps/b, so the stiff stretch (``_stiff_stretch``) counts those steps up
# to a constant. Radau takes ~10^4 rhs evaluations whatever eps is;
# below this count DP5 is cheaper and stays the oracle.
_STIFF_STEPS = 2000.0


def _stiff_stretch(eps: float, lam_max: float, m0: float, dis: Dissipation, times) -> float:
    """S = B(t_od)/eps, B the primitive of b, t_od the last of ``times``
    with b(t)^2 >= 4 eps lambda_max m0 (overdamped; m0 the launch
    stiffness coefficient), 0 if none. Overdamped modes relax without
    oscillating, so explicit steps are stability-bound, and by t_od the
    launch transient, damped at the rate b/eps, has decayed by exp(-S)."""
    b = dis.b(times)
    overdamped = np.flatnonzero(b * b >= 4.0 * eps * lam_max * m0)
    return float(dis.primitive(times[overdamped[-1]])) / eps if overdamped.size else 0.0


def _direct_stepper(lam_max: float, mu: float, dis: Dissipation, t_end: float) -> str:
    """``"radau"`` for a stiff direct first-order run, else ``"dp5"``.

    The fastest mode of b u' = -m A u decays at the rate lambda_max m / b,
    at least lambda_max mu / b with mu the certified inf m, and explicit
    steps are stability-bound at a few times its inverse. Stiff means
    more than ``_STIFF_STEPS`` such steps at the horizon's rate,
    lambda_max mu t_end / b(t_end). A degenerate m (mu = 0) stays on
    DP5. A pure function of the plan's data.
    """
    return "radau" if lam_max * mu * t_end / dis.b(t_end) > _STIFF_STEPS else "dp5"


def _second_order_stages(nl: Nonlinearity, lam: np.ndarray, dis: Dissipation, eps_col):
    """The second-order right-hand side on [U; W] stacks with eps
    ``eps_col`` (a column), row i of Y at times[i]. Each member reads its
    own rows of the two halves, in a lone state's operations and order;
    b is a scalar per time, as numpy's array power can round otherwise."""
    k, n = eps_col.shape[0], lam.size

    def stages(times, y):
        halves = y.reshape(len(times), 2, k, n)
        u, w = halves[:, 0], halves[:, 1]
        m = nl.value(np.add.reduce(lam * (u * u), axis=2))[..., None]
        b = np.array([dis.b(t) for t in times])[:, None, None]
        out = np.empty(halves.shape)
        out[:, 0] = w
        out[:, 1] = -(b * w + m * (lam * u)) / eps_col
        return out.reshape(len(times), -1)

    return stages


def _second_order_radau(spec, nl, dis, eps_values, u0v, u1v, settings, times) -> list:
    """One ``_RadauIIA`` run of the second-order system at the k
    ``eps_values`` side by side: a ``Trajectory`` per member, with the
    run's status, stopping time and ``SolverStats`` (``members = k``).

    The state is the [U; W] stack (one member: the lone (u, u')), with
    rel_tol / sqrt(k) and abs_tol / sqrt(k). The error norm is the RMS
    over all components, so every member meets its own tolerance on
    every accepted step. The Jacobian is block-diagonal with blocks
    [[0, I], [-K_i, -(b/eps_i) I]], K_i the stiffness term at u_i over
    eps_i; it is never assembled (``_second_order_newton``)."""
    k, n, lam = len(eps_values), spec.size, spec.eigenvalues
    eps_col = np.array(eps_values)[:, None]
    stages = _second_order_stages(nl, lam, dis, eps_col)
    # One member is linearised as one vector, so its solves take scalars.
    shape, scale = ((n,), eps_values[0]) if k == 1 else ((k, n), eps_col)

    def newton(t, y):
        stiff = _StiffnessTerm(nl, lam, y[:k * n].reshape(shape), scale)
        return functools.partial(_second_order_newton, stiff, dis.b(t) / scale)

    root = math.sqrt(k)
    solver = _RadauIIA(
        np.concatenate([np.tile(u0v, k), np.tile(u1v, k)]), settings.grid.t_end,
        settings.rel_tol / root, settings.abs_tol / root, newton, stages,
    )
    times, samples, status, t_stop, stats = _integrate(solver, times, settings.blowup_threshold)
    stats = replace(stats, members=k)
    halves = samples.reshape(times.size, 2, k, n)
    return [
        Trajectory(spec, times, halves[:, 0, i], halves[:, 1, i], status, t_stop, stats=stats)
        for i in range(k)
    ]


def _second_order_dp5(spec, nl, dis, eps_values, u0v, u1v, settings, times) -> list:
    """One ``_DormandPrince`` run of the second-order system at the one
    eps in ``eps_values``: a one-member list of its ``Trajectory``.

    The state is (u, u'). Steps are capped at max_step_factor *
    sqrt(eps / (lambda_max m + eps)), m the stiffness coefficient of the
    latest right-hand side evaluation (``IntegratorSettings``)."""
    (eps,) = eps_values
    lam, n = spec.eigenvalues, spec.size
    bw = np.empty(n)
    m_now = None

    def rhs(t, y, out=None):
        nonlocal m_now
        u = y[:n]
        w = y[n:]
        m_now = nl.value(sigma_half(lam, u))
        # (b w + m (lam u)) / -eps, operation for operation, into out.
        out = np.empty(2 * n) if out is None else out
        out[:n] = w
        du = out[n:]
        np.multiply(lam, u, out=du)
        np.multiply(m_now, du, out=du)
        np.add(np.multiply(dis.b(t), w, out=bw), du, out=du)
        np.divide(du, -eps, out=du)
        return out

    # m_now is m at the state of the latest rhs call: at launch, the launch
    # state, and after each accepted step, the new state (_DormandPrince).
    factor, lam_max = settings.max_step_factor, spec.lambda_max

    def step_cap():
        return factor * math.sqrt(eps / (lam_max * m_now + eps))

    solver = _DormandPrince(rhs, np.concatenate([u0v, u1v]), settings, step_cap)
    times, samples, status, t_stop, stats = _integrate(solver, times, settings.blowup_threshold)
    return [Trajectory(spec, times, samples[:, :n], samples[:, n:], status, t_stop, stats=stats)]


def solve_hyperbolic(
    spec: Spectrum,
    nl: Nonlinearity,
    dis: Dissipation,
    eps: float,
    u0,
    u1,
    settings: IntegratorSettings = IntegratorSettings(),
) -> Trajectory:
    """Integrate eps u'' + b(t) u' + m(|A^(1/2)u|^2) A u = 0.

    The run is a sweep of one member (``solve_hyperbolic_sweep``): it
    uses Radau IIA (``_second_order_radau``) when its stiff stretch
    passes ``_STIFF_STEPS`` (``_sweep_runs``), DP5 (``_second_order_dp5``)
    otherwise. Blow-up (squared state norm above the threshold) and step
    underflow are reported through the trajectory status, not raised.
    Coefficients whose initial data vanish stay exactly zero: the
    right-hand side is diagonal, and the Radau Jacobian couples such a
    mode to no other. Degenerate data (m vanishing at u0) warn.
    """
    return _solve_second_order(spec, nl, dis, (eps,), u0, u1, settings)[0]


def _sweep_runs(eps_values, lam_max: float, m0: float, dis: Dissipation, times, rel_tol) -> list:
    """Stepper runs of the second-order members at ``eps_values``, as
    (stepper, indices into ``eps_values``) pairs; the stepper is
    ``_second_order_radau`` or ``_second_order_dp5``. This is the one
    router of second-order runs, a pure function of the plan's data: m0
    is the launch stiffness coefficient, ``times`` the output times.

    Once one member's stiff stretch (``_stiff_stretch``) passes
    ``_STIFF_STEPS``, every member whose stretch is at least
    ln(1/rel_tol) goes into one shared Radau run, listed first because
    it is the dearest; every other member is a lone DP5 run. So a sweep
    of one member runs on Radau exactly when its stretch passes
    ``_STIFF_STEPS``. A joined member's launch transient has decayed
    below the tolerance before it can oscillate, so it brings no live
    oscillation into the shared run, and, as Radau's work barely depends
    on eps, it costs the run less than its own DP5 steps. DP5's work
    grows like 1/eps, so a shared explicit run would make its cheap
    members pay for the steps of the dearest one. A sweep has at most
    one shared run: if its k members would take the run's rel_tol /
    sqrt(k) below the floor of ``IntegratorSettings``, there is none,
    and every member is routed as a sweep of one. The runs do not
    depend on how many workers will take them, so neither do the
    samples.
    """
    stretch = [_stiff_stretch(eps, lam_max, m0, dis, times) for eps in eps_values]
    join_at = -math.log(rel_tol) if max(stretch, default=0.0) > _STIFF_STEPS else math.inf
    shared = tuple(i for i, s in enumerate(stretch) if s >= join_at)
    if rel_tol / math.sqrt(len(shared) or 1) < _MIN_REL_TOL:
        return [(_second_order_radau if s > _STIFF_STEPS else _second_order_dp5, (i,))
                for i, s in enumerate(stretch)]
    runs = [(_second_order_radau, shared)] if shared else []
    return runs + [(_second_order_dp5, (i,)) for i, s in enumerate(stretch) if s < join_at]


def _second_order_run(spec, nl, dis, u0v, u1v, m0, settings, times, run) -> list:
    """One run of ``_sweep_runs``, given as (stepper, eps values): one
    ``Trajectory`` per eps value.

    A shared run that does not complete (its stack's norm passes the
    blow-up threshold, or the steps underflow) is rerun member by
    member, each routed as a sweep of one. So every stop is a lone
    run's: a member that blows up or underflows has its own status,
    stopping time and samples, and a shared run's samples go only to
    members that all complete.
    """
    stepper, eps_values = run
    trajs = stepper(spec, nl, dis, eps_values, u0v, u1v, settings, times)
    if len(eps_values) == 1 or trajs[0].status == COMPLETED:
        return trajs
    lone = []
    for eps in eps_values:
        ((stepper, _),) = _sweep_runs((eps,), spec.lambda_max, m0, dis, times, settings.rel_tol)
        lone += stepper(spec, nl, dis, (eps,), u0v, u1v, settings, times)
    return lone


def solve_hyperbolic_sweep(
    spec: Spectrum,
    nl: Nonlinearity,
    dis: Dissipation,
    eps_values,
    u0,
    u1,
    settings: IntegratorSettings = IntegratorSettings(),
    jobs: int = 1,
) -> list:
    """Integrate one problem at several eps values: one ``Trajectory``
    per eps value, in the order given.

    The members are grouped into stepper runs (``_sweep_runs``): the
    members of a stiff sweep with a long overdamped stretch share one
    Radau run, every other member is a lone run. The runs go to up to
    ``jobs`` worker processes; the samples do not depend on how many.
    Degenerate data (m vanishing at u0) warn once per sweep.
    """
    return _solve_second_order(spec, nl, dis, tuple(eps_values), u0, u1, settings, jobs)


def _solve_second_order(spec, nl, dis, eps_values, u0, u1, settings, jobs=1) -> list:
    """Every second-order solve, lone or swept: the data checked and m0
    evaluated once, the runs of ``_sweep_runs`` on up to ``jobs`` worker
    processes, one ``Trajectory`` per eps value in the order given. The
    degenerate-data warning names the line that called the public
    solver."""
    for eps in eps_values:
        if not (math.isfinite(eps) and eps > 0.0):
            raise ConfigurationError("eps must be positive")
    u0v = as_modal(spec, u0, "u0")
    u1v = as_modal(spec, u1, "u1")
    m0 = nl.value(sigma_half(spec.eigenvalues, u0v))
    if m0 == 0.0:
        warnings.warn(
            "initial stiffness coefficient vanishes (really degenerate data); "
            "no existence theory applies",
            stacklevel=3,
        )
    times = settings.grid.times()
    runs = _sweep_runs(eps_values, spec.lambda_max, m0, dis, times, settings.rel_tol)
    groups = [(stepper, tuple(eps_values[i] for i in indices)) for stepper, indices in runs]
    run = functools.partial(_second_order_run, spec, nl, dis, u0v, u1v, m0, settings, times)
    # The fork start method launches every worker on the first submit.
    workers = min(jobs, len(groups))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, groups))
    else:
        results = [run(group) for group in groups]
    members = dict(zip(sum((indices for _, indices in runs), ()), sum(results, [])))
    return [members[i] for i in range(len(eps_values))]


def solve_parabolic_reparam(
    spec: Spectrum,
    nl: Nonlinearity,
    dis: Dissipation,
    u0,
    settings: IntegratorSettings = IntegratorSettings(),
) -> Trajectory:
    """Integrate the first-order limit through its exact reparametrization.

    The solution is a time change of the constant-coefficient decay
    flow: u_k(t) = u0_k exp(-lambda_k alpha(t)) where the clock alpha
    solves the scalar problem b(t) alpha' = m(sum_k lambda_k u0_k^2
    exp(-2 lambda_k alpha)), alpha(0) = 0. Only the clock is integrated
    numerically; every mode is reconstructed exactly from it. The clock
    is nondecreasing and the modes contract, so blow-up is impossible.
    """
    u0v = as_modal(spec, u0, "u0")
    lam = spec.eigenvalues
    u0_sq = u0v * u0v
    rate = -2.0 * lam

    def sigma_of_alpha(alpha):
        # Summed as sigma_half sums (row by row for an array of clocks), so
        # at alpha = 0 this is sigma_half(lam, u0) bit for bit, as in w0.
        terms = np.multiply.outer(alpha, rate)
        np.exp(terms, out=terms)
        np.multiply(u0_sq, terms, out=terms)
        np.multiply(lam, terms, out=terms)
        return np.add.reduce(terms, axis=-1)

    def rhs(t, y, out=None):
        out = np.empty(1) if out is None else out
        out[0] = nl.value(float(sigma_of_alpha(y[0]))) / dis.b(t)
        return out

    solver = _DormandPrince(rhs, np.array([0.0]), settings)
    times, samples, status, t_stop, stats = _integrate(solver, settings.grid.times())
    alpha = samples[:, 0]
    u = u0v[None, :] * np.exp(-np.outer(alpha, lam))
    with np.errstate(over="ignore"):  # m saturates at inf, as in rhs
        aprime = nl.value(sigma_of_alpha(alpha)) / dis.b(times)
    uprime = -aprime[:, None] * lam[None, :] * u
    return Trajectory(spec, times, u, uprime, status, t_stop, alpha=alpha, stats=stats)


def solve_parabolic_direct(
    spec: Spectrum,
    nl: Nonlinearity,
    dis: Dissipation,
    u0,
    settings: IntegratorSettings = IntegratorSettings(),
) -> Trajectory:
    """Integrate b(t) u' + m(|A^(1/2)u|^2) A u = 0 as an N-dim system.

    Cross-validation oracle for the reparametrized solver: same
    adaptive driver, but the full coefficient vector is the state.
    Stiff runs (see ``_direct_stepper``) use Radau IIA with the
    Jacobian -K, K the stiffness term over b(t); all others DP5. u' is
    the stage function at all samples at once.
    """
    u0v = as_modal(spec, u0, "u0")
    lam = spec.eigenvalues

    def rhs(t, y, out=None):
        mval = nl.value(sigma_half(lam, y))
        out = np.multiply(lam, y, out=out)
        return np.multiply(-(mval / dis.b(t)), out, out=out)

    def stages(times, Y):
        # rhs of each row, in its operations and order.
        m = nl.value(np.add.reduce(lam * (Y * Y), axis=1))[:, None]
        b = np.array([dis.b(t) for t in times])[:, None]
        return -(m / b) * (lam * Y)

    t_end = settings.grid.t_end
    if _direct_stepper(spec.lambda_max, nl.mu, dis, t_end) == "dp5":
        solver = _DormandPrince(rhs, u0v, settings)
    else:
        # The Newton matrix c I - J is K + c I.
        solver = _RadauIIA(
            u0v, t_end, settings.rel_tol, settings.abs_tol,
            lambda t, y: _StiffnessTerm(nl, lam, y, dis.b(t)).shifted_solver, stages,
        )
    times, samples, status, t_stop, stats = _integrate(solver, settings.grid.times())
    return Trajectory(spec, times, samples, stages(times, samples), status, t_stop, stats=stats)


def corrector(
    spec: Spectrum,
    nl: Nonlinearity,
    dis: Dissipation,
    eps: float,
    u0,
    u1,
    times,
) -> CorrectorTrajectory:
    """Solve eps theta'' + b(t) theta' = 0, theta(0) = 0, theta'(0) = w0.

    theta'(t) = w0 exp(-B(t)/eps) exactly, with B the closed-form
    primitive of b. theta itself is w0 times the integral of that decay
    factor: closed form when b is constant; otherwise the factor's
    integral over each sample interval (``quadrature.decay_integrals``),
    summed from t = 0. ``times`` start at 0 and do not decrease.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ConfigurationError("eps must be positive")
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or ts[0] != 0.0:
        raise ConfigurationError("times must start at 0")
    if not np.all(np.diff(ts) >= 0.0):
        raise ConfigurationError("times must not decrease")
    w0 = compute_w0(spec, nl, dis, u0, u1)
    if not np.all(np.isfinite(w0)):
        # m(sigma0) A u0 / b0 overflows; the solvers stop on such data too.
        empty = np.empty((0, w0.size))
        return CorrectorTrajectory(ts[:0], empty, empty, STEP_UNDERFLOW)

    decay = np.exp(-dis.primitive(ts) / eps)
    theta_prime = w0[None, :] * decay[:, None]

    if dis.p == 0.0:
        d = dis.b(0.0)
        integral = (eps / d) * (-np.expm1(-d * ts / eps))
    else:
        integral = np.concatenate([[0.0], np.cumsum(decay_integrals(dis, eps, ts))])
    theta = w0[None, :] * integral[:, None]
    return CorrectorTrajectory(ts, theta, theta_prime)


def residual_norm(
    traj: Trajectory,
    nl: Nonlinearity,
    dis: Dissipation,
    eps: float,
) -> float:
    """Maximum normalized equation defect over interior samples.

    Time derivatives are formed with centered three-point divided
    differences on the (generally nonuniform) sample grid; eps = 0
    selects the first-order equation. The defect at each interior
    sample is divided by 1 + |u| + |u'|.

    The figure measures how well the sample grid resolves the run, not
    the solver defect: on log grids it is dominated by the error of the
    divided differences. On the hyperbolic-decay benchmark plans (N=8,
    lambda_k=k^2, m(s)=s, 801 log samples to t=100) it reads 0.0137 at
    eps=1e-1 and 0.0442 at eps=1e-2 for solutions accurate to 1e-12.
    """
    spec, ts = traj.spectrum, traj.times
    if ts.size < 3:
        raise ValueError("residual needs at least 3 samples")
    # Divided difference of u (first order) or u' (second order) at every
    # interior sample, then the defect of the equation in place.
    h = np.diff(ts)[:, None]
    h1, h2 = h[:-1], h[1:]
    x = traj.u if eps == 0.0 else traj.uprime
    res = -h2 / (h1 * (h1 + h2)) * x[:-2]
    res += (h2 - h1) / (h1 * h2) * x[1:-1]
    res += h1 / (h2 * (h1 + h2)) * x[2:]
    u, up = traj.u[1:-1], traj.uprime[1:-1]
    sigma, u_sq = modal_sums(spec, u, [0.5, 0.0]).T
    mval = nl.value(sigma)[:, None]
    b = dis.b(ts[1:-1])[:, None]
    if eps == 0.0:
        res *= b
    else:
        res *= eps
        res += b * up
    res += mval * (spec.eigenvalues * u)
    scale = 1.0 + np.sqrt(u_sq) + np.sqrt(modal_sums(spec, up, [0.0])[:, 0])
    defect = np.sqrt(modal_sums(spec, res, [0.0])[:, 0])
    return float(np.max(defect / scale))
