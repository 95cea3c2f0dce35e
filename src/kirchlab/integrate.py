"""Time integration for the second-order problem, its first-order limit,
and the boundary-layer corrector.

Every solve steps a scipy integrator through one loop, ``_integrate``,
and identical inputs give bit-identical outputs. Steps follow the
integrator's own control and are not clamped to the output grid: each
output time inside an accepted step is read from that step's dense
output, and an output time that is also a step end takes the state
itself. Every run reports which stepper it used and how much work it
took (``SolverStats``).

- scipy's RK45, the Dormand-Prince 5(4) pair (Hairer-Norsett-Wanner,
  Solving ODEs I, II.4; samples are its quartic interpolants), for the
  reparametrized clock and for every N-dimensional run that is not
  stiff. Second-order steps are capped at a fixed fraction of the
  fastest oscillation period of the current state.
- scipy's Radau IIA of order 5 (Hairer-Wanner, Solving ODEs II, IV.8)
  with an analytic Jacobian, for the runs whose explicit steps would be
  stability-bound: overdamped second-order runs at small eps, and
  direct first-order runs whose decay rate lambda m / b outgrows the
  horizon. Samples are collocation interpolants. Both Jacobians are a
  diagonal part plus one rank-one term, so each Newton system is
  solved in closed form, by block elimination and Sherman-Morrison
  (Golub-Van Loan, Matrix Computations, 2.1): O(N) operations per
  factorisation and per solve, in place of scipy's dense LU. No
  matrix is formed: ``jac`` records the Jacobian's diagonal and rank-one
  parts (``_StiffnessTerm``), and scipy, which uses J and I only to
  form the Newton matrix MU/h I - J, gets I = 1 and J = 0, so the hooks
  receive the scalar c = MU/h and solve with the recorded parts
  (``_closed_form_radau``). Work and memory are O(N) per step at any
  N; TestNewtonHooks fails if a Newton matrix ever reaches scipy's own
  LU or is not a scalar.

The overdamped members of a stiff eps sweep share one Radau run
(``sweep_runs``, ``solve_hyperbolic_shared``): their states are
stacked, and the Newton matrix is block-diagonal with one block per
member. Where a lone run and a shared run go through the same code
(``_integrate``, ``_StiffnessTerm``, ``_second_order_radau``), the lone
run keeps its own branch: a flat modal vector and ``y @ y``. Row sums
over a member axis add in another order and cost an extra numpy call,
and the branch keeps every lone run bit-identical to a run without
that axis.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45, Radau, quad
from scipy.sparse import csc_matrix

from .model import Dissipation, Nonlinearity, compute_w0
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
    "solve_hyperbolic_shared",
    "sweep_runs",
    "solve_parabolic_reparam",
    "solve_parabolic_direct",
    "corrector",
    "residual_norm",
]

COMPLETED = "completed"
BLEW_UP = "blew_up"
STEP_UNDERFLOW = "step_underflow"

_MIN_REL_TOL = 100.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class OutputGrid:
    """Sampling grid on [0, t_end]. Log grids are uniform in log(1+t),
    which matches decay laws that are polynomial in (1+t)."""

    kind: str = "log"
    count: int = 801
    t_end: float = 100.0

    def __post_init__(self):
        if self.kind not in ("log", "linear"):
            raise ConfigurationError("grid.kind must be 'log' or 'linear'")
        if self.count < 2:
            raise ConfigurationError("grid.count must be at least 2")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ConfigurationError("grid.t_end must be positive")

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
    """Tolerances and guards for both steppers.

    rel_tol must be at least 100 machine epsilons, the floor below which
    scipy's steppers would silently raise it. max_step_factor applies to
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

    ``method`` is ``"dp5"`` or ``"radau"``. Both count right-hand side
    evaluations and accepted steps. DP5 also counts rejected steps and
    files each accepted step under the bound that set its size, the
    step cap or the error control, so ``accepted == cap_limited +
    error_limited``. Radau counts its Jacobian evaluations and, in
    ``lu_decompositions``, the factorisations of its Newton matrices.
    These are closed-form solves set up from the scalar c = MU/h
    (``_closed_form_radau``), not LU, and the Jacobian is only recorded
    in parts, never formed. Both are counted where scipy counts them,
    so the counts equal those of a run with the true Jacobian and dense
    LU.
    scipy's stepper does not report rejected steps, so the three DP5
    step counts are ``None`` there, and DP5 evaluates no Jacobian.
    ``members`` is the number of eps values the run integrated side by
    side: 1 for a lone run, k for a shared Radau run
    (``solve_hyperbolic_shared``), whose counts are those of the whole
    stacked run.
    """

    method: str
    rhs_evals: int
    accepted: int
    rejected: int | None
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


def _row_dot(a, b):
    # Row-wise dot products of two (members x N) arrays, as a column.
    return np.add.reduce(a * b, axis=1, keepdims=True)


def _integrate(solver, out_times, blowup_threshold=None, step_cap=None, members=1):
    """Step a scipy ``OdeSolver`` through every time in ``out_times``.

    Output times inside an accepted step are read from the step's dense
    output; one that is the step end takes the state. ``step_cap()``, if
    given, becomes the solver's ``max_step`` after each accepted step.
    RK45's last ``rhs`` call in a step is the FSAL stage at the accepted
    state, so a cap built from values the right-hand side already
    computes costs no extra evaluation.

    Returns (times, samples, status, t_stop, stats). Blow-up (squared
    state norm above the threshold) and a solver failure end the run
    with a status, not an exception; the returned arrays then end with
    the state at the stopping time. A state of ``members`` stacked
    members blows up when one member's squared norm is above the
    threshold.
    """
    samples = np.empty((out_times.size, solver.n))
    samples[0] = solver.y
    status = COMPLETED
    t_stop = None
    accepted = cap_limited = 0
    i_out = 1
    if math.isnan(solver.h_abs):
        # scipy takes a NaN first step from a non-finite launch derivative
        # and would retry it forever.
        status, t_stop = STEP_UNDERFLOW, solver.t
    while status == COMPLETED and i_out < out_times.size:
        cap = solver.max_step
        solver.step()
        if solver.status == "failed":
            status, t_stop = STEP_UNDERFLOW, solver.t
            break
        accepted += 1
        t, y = solver.t, solver.y
        # The tolerance absorbs the rounding of t_new - t.
        if t - solver.t_old >= cap * (1.0 - 1e-12):
            cap_limited += 1
        if blowup_threshold is not None:
            if members == 1:
                norm_sq = float(y @ y)
            else:
                rows = y.reshape(members, -1)
                norm_sq = float(np.max(_row_dot(rows, rows)))
            if norm_sq > blowup_threshold:
                status, t_stop = BLEW_UP, t
                break
        if step_cap is not None:
            # An undocumented attribute that scipy's RungeKutta reads on
            # every step; TestStepCap fails if that ever stops.
            solver.max_step = step_cap()
        j = int(np.searchsorted(out_times, t, side="right"))
        if j > i_out:
            samples[i_out:j] = solver.dense_output()(out_times[i_out:j]).T
            if out_times[j - 1] == t:
                samples[j - 1] = y
            i_out = j

    times = out_times[:i_out]
    samples = samples[:i_out]
    if status != COMPLETED and times[-1] != t_stop:
        times = np.append(times, t_stop)
        samples = np.vstack([samples, solver.y])
    if isinstance(solver, Radau):
        stats = SolverStats(
            "radau", solver.nfev, accepted, None, None, None, solver.njev, solver.nlu,
            members,
        )
    else:
        # RK45 reuses the last stage (FSAL): one launch evaluation, one
        # initial-step probe, six per attempted step.
        rejected = (solver.nfev - 2) // 6 - accepted
        stats = SolverStats(
            "dp5", solver.nfev, accepted, rejected, cap_limited, accepted - cap_limited
        )
    return times, samples, status, t_stop, stats


class _StiffnessTerm:
    """The linearisation K = diag(m(sigma) lambda / scale) + kappa w w^T
    of m(|A^(1/2)u|^2) A u / scale at u, with w = lambda u and
    kappa = 2 m'(sigma) / scale. The rank-one m' term keeps Newton
    converging when m varies; kappa is 0 only where m' is infinite (the
    gamma < 1 kink at sigma = 0).

    ``u`` is one modal vector (``scale`` a float) or a (members x N)
    array with one row per member (``scale`` a column); K is then
    block-diagonal, one block per row, and every attribute has a row
    per member.

    K is kept as its parts and never assembled: the Newton solves need
    only ``shifted_solver`` (see ``_closed_form_radau``).
    """

    def __init__(self, nl: Nonlinearity, lam: np.ndarray, u: np.ndarray, scale):
        if u.ndim == 1:
            sigma = sigma_half(lam, u)
            dm = nl.derivative(sigma)
            self.kappa = 2.0 * dm / scale if math.isfinite(dm) else 0.0
            self._dot = operator.matmul
        else:
            # Summed as sigma_half sums, row by row.
            sigma = np.add.reduce(lam * (u * u), axis=1)[:, None]
            with np.errstate(divide="ignore", over="ignore"):  # m' saturates at inf
                dm = nl.derivative(sigma)
            self.kappa = np.where(np.isfinite(dm), 2.0 * dm / scale, 0.0)
            self._dot = _row_dot
        self.diag = (nl.value(sigma) / scale) * lam
        self.w = lam * u

    def shifted_solver(self, shift):
        """Solver of (K + shift I) x = r, shift real or complex (a column
        of shifts for stacked members), by Sherman-Morrison: O(N) per
        member to set up and per solve."""
        d = self.diag + shift
        w, dot = self.w, self._dot
        dw = w / d
        coef = self.kappa / (1.0 + self.kappa * dot(w, dw))

        def solve(r):
            x = r / d
            x -= dw * (coef * dot(w, x))
            return x

        return solve


def _second_order_newton(stiff: _StiffnessTerm, damp, c):
    """Solver of A (x, y) = (r, s) for the Newton matrix A = c I - J of
    the second-order system, J = [[0, I], [-K, -damp I]]. A is
    [[c I, -I], [K, d I]] with d = c + damp, so y = c x - r and
    (K + c d I) x = s + d r. For stacked members (``damp`` a column)
    the state is member by member, (u_i, u_i') for each, so A is
    block-diagonal and each member's block is eliminated on its row."""
    d = c + damp
    solve_x = stiff.shifted_solver(c * d)
    n = stiff.w.shape[-1]
    shape = stiff.w.shape[:-1] + (2 * n,)

    def solve(rhs):
        pair = rhs.reshape(shape)
        r = pair[..., :n]
        x = solve_x(pair[..., n:] + d * r)
        return np.concatenate([x, c * x - r], axis=-1).ravel()

    return solve


def _closed_form_radau(rhs, y0, t_end, linearise, factor, rtol, atol) -> Radau:
    """scipy's Radau with closed-form Newton solves in place of dense LU.

    ``linearise(t, y)`` records the Jacobian's parts at (t, y), and
    ``factor(c)`` returns the solve with the Newton matrix c I - J of
    the latest linearisation, c = MU/h real or complex, as a function
    of the right-hand side. scipy's ``Radau.__init__`` makes one
    validation call of ``jac``, answered with an empty sparse matrix so
    that scipy's set-up allocates no dense identity, and assigns the
    instance attributes that the stepper reads: ``jac``, ``J``, ``I``
    and the hooks ``lu(A)`` and ``solve_lu(LU, b)``. The stepper forms
    every Newton matrix as MU/h * I - J, so with I = 1.0 and J = 0.0 it
    is the scalar c, which ``lu`` passes to ``factor``. The new ``jac``
    and ``lu`` count ``njev`` and ``nlu`` as scipy's do. ``lu`` refuses
    anything but a scalar, so a scipy that formed the matrix another way
    fails loudly; TestNewtonHooks fails if scipy stops calling the hooks.
    """

    def validation_jac(t, y):
        linearise(t, y)
        return csc_matrix((y.size, y.size))

    solver = Radau(rhs, 0.0, y0, t_end, jac=validation_jac, rtol=rtol, atol=atol)
    _closed_form_newton(solver, linearise, factor)
    return solver


def _closed_form_newton(solver: Radau, linearise, factor) -> None:
    """Install the scalar Newton matrix and the hooks of
    ``_closed_form_radau`` on ``solver``."""

    def jac(t, y, _f=None):
        solver.njev += 1
        linearise(t, y)
        return 0.0

    def lu(c):
        if np.ndim(c) != 0:
            raise TypeError("the closed-form Newton solves take the scalar c = MU/h, not a matrix")
        solver.nlu += 1
        return factor(c)

    solver.I, solver.J, solver.jac = 1.0, 0.0, jac
    solver.lu = lu
    solver.solve_lu = lambda solve, rhs: solve(rhs)


# A run goes to Radau when explicit DP5 would need more stability-bound
# steps than this. DP5's stable step under damping b/eps is a few eps/b,
# so B(t_end)/eps (B the primitive of b) counts its steps up to a
# constant. Radau takes ~10^4 rhs evaluations whatever eps is; below
# this count DP5 is cheaper and stays the oracle.
_STIFF_STEPS = 2000.0


def _overdamped(eps: float, lam_max: float, m0: float, dis: Dissipation, t_end: float) -> bool:
    """Whether a second-order run is overdamped at the horizon,
    b(t_end)^2 >= 4 eps lambda_max m0 with m0 the launch stiffness
    coefficient: every mode then relaxes without oscillating, so
    explicit steps are limited by stability, not accuracy."""
    b_end = dis.b(t_end)
    return b_end * b_end >= 4.0 * eps * lam_max * m0


def _stepper(eps: float, lam_max: float, m0: float, dis: Dissipation, t_end: float) -> str:
    """``"radau"`` for a stiff second-order run, else ``"dp5"``.

    Stiff means overdamped at the horizon (``_overdamped``) and more
    than ``_STIFF_STEPS`` stability-bound steps, B(t_end)/eps. A pure
    function of the plan's data.
    """
    stiff = _overdamped(eps, lam_max, m0, dis, t_end) and dis.primitive(t_end) / eps > _STIFF_STEPS
    return "radau" if stiff else "dp5"


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


def _second_order_radau(rhs, y0, nl, lam, dis, eps, settings, members=1) -> Radau:
    """scipy's Radau on the second-order system of ``members`` stacked
    members (``eps`` a float for one, a column for several), each state
    (u_i, u_i') in turn, with tolerances rel_tol / sqrt(members) and
    abs_tol / sqrt(members) and closed-form Newton solves. The Jacobian
    is block-diagonal with blocks [[0, I], [-K_i, -(b/eps_i) I]] (K_i
    the stiffness term at u_i over eps_i).

    The Jacobian is never assembled: the Newton matrix reaches the hooks
    as the scalar c (``_closed_form_radau``), and each solve uses K and
    b/eps of the latest linearisation."""
    n = lam.size
    stiff = damp = None  # K and b/eps at the latest linearisation point

    def linearise(t, y):
        nonlocal stiff, damp
        u = y[:n] if members == 1 else y.reshape(members, 2 * n)[:, :n]
        stiff = _StiffnessTerm(nl, lam, u, eps)
        damp = dis.b(t) / eps

    root = math.sqrt(members)
    return _closed_form_radau(
        rhs, y0, settings.grid.t_end, linearise,
        lambda c: _second_order_newton(stiff, damp, c),
        settings.rel_tol / root, settings.abs_tol / root,
    )


def _launch_stiffness(nl: Nonlinearity, lam: np.ndarray, u0: np.ndarray) -> float:
    """m(|A^(1/2)u0|^2), with a warning where it vanishes."""
    m0 = nl.value(sigma_half(lam, u0))
    if m0 == 0.0:
        warnings.warn(
            "initial stiffness coefficient vanishes (really degenerate data); "
            "no existence theory applies",
            stacklevel=3,
        )
    return m0


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

    The state is the first-order pair (u, u'). Stiff runs (see
    ``_stepper``) use Radau IIA, all others RK45 (DP5). Blow-up
    (squared state norm above the threshold) and step underflow are
    reported through the trajectory status, not raised. Coefficients
    whose initial data vanish stay exactly zero: the right-hand side is
    diagonal, and the Radau Jacobian couples such a mode to no other.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ConfigurationError("eps must be positive")
    u0v = as_modal(spec, u0, "u0")
    u1v = as_modal(spec, u1, "u1")
    lam = spec.eigenvalues
    n = spec.size

    m_now = _launch_stiffness(nl, lam, u0v)

    def rhs(t, y):
        nonlocal m_now
        u = y[:n]
        w = y[n:]
        m_now = nl.value(sigma_half(lam, u))
        out = np.empty(2 * n)
        out[:n] = w
        out[n:] = -(dis.b(t) * w + m_now * (lam * u)) / eps
        return out

    # m_now is m at the state of the latest rhs call; _integrate reads the
    # cap right after the FSAL stage, i.e. at the newly accepted state.
    factor, lam_max = settings.max_step_factor, spec.lambda_max

    def step_cap():
        return factor * math.sqrt(eps / (lam_max * m_now + eps))

    y0 = np.concatenate([u0v, u1v])
    t_end = settings.grid.t_end
    if _stepper(eps, lam_max, m_now, dis, t_end) == "radau":
        solver, cap = _second_order_radau(rhs, y0, nl, lam, dis, eps, settings), None
    else:
        # The cap at the launch state: RK45's set-up moves m_now off it.
        # Assigned, not passed, because scipy rejects the 0.0 that an
        # overflowing m gives; that run then fails its first step.
        launch_cap = step_cap()
        solver = RK45(rhs, 0.0, y0, t_end, rtol=settings.rel_tol, atol=settings.abs_tol)
        cap = step_cap
        solver.max_step = launch_cap
    times, samples, status, t_stop, stats = _integrate(
        solver, settings.grid.times(), settings.blowup_threshold, cap
    )
    return Trajectory(
        spec, times, samples[:, :n], samples[:, n:], status, t_stop, stats=stats
    )


def _max_shared(rel_tol: float, members: int) -> int:
    """Most of ``members`` members one shared run may hold (at least 1):
    the run's rel_tol / sqrt(k) must stay at or above the floor below
    which scipy raises it."""
    most = max(members, 1)
    while most > 1 and rel_tol / math.sqrt(most) < _MIN_REL_TOL:
        most -= 1
    return most


def sweep_runs(
    spec: Spectrum,
    nl: Nonlinearity,
    dis: Dissipation,
    eps_values,
    u0,
    settings: IntegratorSettings = IntegratorSettings(),
) -> list:
    """Stepper runs of an eps sweep, as tuples of indices into ``eps_values``.

    Once one member is stiff enough for a lone Radau run (``_stepper``),
    every member that is overdamped at the horizon (``_overdamped``)
    goes into one shared run (``solve_hyperbolic_shared``), listed first
    because it is the dearest; every other member is a lone DP5 run.
    Radau's work barely depends on eps, so an overdamped member costs
    the shared run less than its own stability-bound DP5 steps, even
    below the lone threshold. An underdamped member's oscillation would
    set the shared run's steps, and DP5's work grows like B(t_end)/eps,
    so a shared explicit run would make its cheap members pay for the
    steps of the dearest one. More shared members than ``rel_tol``
    allows (``_max_shared``) are split into several shared runs. The
    runs do not depend on how many workers will take them, so neither
    do the samples.
    """
    m0 = nl.value(sigma_half(spec.eigenvalues, as_modal(spec, u0, "u0")))
    lam_max, t_end = spec.lambda_max, settings.grid.t_end
    joins = [_overdamped(eps, lam_max, m0, dis, t_end) for eps in eps_values]
    if all(_stepper(eps, lam_max, m0, dis, t_end) == "dp5" for eps in eps_values):
        joins = [False] * len(eps_values)
    shared = [i for i, joined in enumerate(joins) if joined]
    most = _max_shared(settings.rel_tol, len(shared))
    runs = [tuple(shared[lo:lo + most]) for lo in range(0, len(shared), most)]
    return runs + [(i,) for i, joined in enumerate(joins) if not joined]


def solve_hyperbolic_shared(
    spec: Spectrum,
    nl: Nonlinearity,
    dis: Dissipation,
    eps_values,
    u0,
    u1,
    settings: IntegratorSettings = IntegratorSettings(),
) -> list:
    """Integrate one problem at several eps values in one Radau run.

    Returns one ``Trajectory`` per eps value. The members' states are
    stacked, each as its pair (u, u'), and stepped together, with
    ``rel_tol / sqrt(k)`` and ``abs_tol / sqrt(k)`` for k members:
    scipy's error norm is the RMS over all components, so an accepted
    step has sum_i RMS_i^2 <= 1 and every member meets its own tolerance
    on every step. The Newton matrix is block-diagonal, and each block
    is solved in closed form as in a lone run (``_second_order_newton``).
    Every member reports the shared run's ``SolverStats`` (``members =
    k``).

    A shared run that does not complete (one member blows up by its own
    norm, or the steps underflow) is rerun member by member, so
    statuses, stopping times and samples are then those of lone runs.
    A single eps value is ``solve_hyperbolic``'s lone run, and none is a
    ``ConfigurationError``. Several must all be overdamped at the
    horizon (``_overdamped``), and no more than ``rel_tol`` allows;
    ``sweep_runs`` groups a sweep so.
    """
    eps_values = tuple(eps_values)
    for eps in eps_values:
        if not (math.isfinite(eps) and eps > 0.0):
            raise ConfigurationError("eps must be positive")
    k = len(eps_values)
    if k == 0:
        raise ConfigurationError("a shared run needs at least one eps value")
    if k == 1:
        return [solve_hyperbolic(spec, nl, dis, eps_values[0], u0, u1, settings)]
    if _max_shared(settings.rel_tol, k) < k:
        raise ConfigurationError(f"rel_tol {settings.rel_tol!r} is too small for {k} members")

    u0v = as_modal(spec, u0, "u0")
    u1v = as_modal(spec, u1, "u1")
    lam = spec.eigenvalues
    n = spec.size
    m0 = _launch_stiffness(nl, lam, u0v)
    t_end = settings.grid.t_end
    if not all(_overdamped(eps, spec.lambda_max, m0, dis, t_end) for eps in eps_values):
        raise ConfigurationError("a shared run takes only eps values overdamped at the horizon")
    shape = (k, 2, n)
    eps_col = np.array(eps_values)[:, None]

    def rhs(t, y):
        pair = y.reshape(shape)
        u, w = pair[:, 0], pair[:, 1]
        m = nl.value(np.add.reduce(lam * (u * u), axis=1))[:, None]
        out = np.empty(shape)
        out[:, 0] = w
        out[:, 1] = -(dis.b(t) * w + m * (lam * u)) / eps_col
        return out.ravel()

    y0 = np.tile(np.concatenate([u0v, u1v]), k)
    solver = _second_order_radau(rhs, y0, nl, lam, dis, eps_col, settings, k)
    times, samples, status, t_stop, stats = _integrate(
        solver, settings.grid.times(), settings.blowup_threshold, members=k
    )
    if status != COMPLETED:
        return [solve_hyperbolic(spec, nl, dis, eps, u0, u1, settings) for eps in eps_values]
    samples = samples.reshape((times.size,) + shape)
    return [
        Trajectory(spec, times, samples[:, i, 0], samples[:, i, 1], status, stats=stats)
        for i in range(k)
    ]


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

    def sigma_of_alpha(alpha: float) -> float:
        # Summed as sigma_half sums, so at alpha = 0 this is
        # sigma_half(lam, u0) bit for bit, as in the corrector's w0.
        return float(np.add.reduce(lam * (u0_sq * np.exp(rate * alpha))))

    def rhs(t, y):
        return np.array([nl.value(sigma_of_alpha(y[0])) / dis.b(t)])

    solver = RK45(
        rhs, 0.0, np.array([0.0]), settings.grid.t_end,
        rtol=settings.rel_tol, atol=settings.abs_tol,
    )
    times, samples, status, t_stop, stats = _integrate(solver, settings.grid.times())
    alpha = samples[:, 0]
    u = u0v[None, :] * np.exp(-np.outer(alpha, lam))
    with np.errstate(over="ignore"):  # m saturates at inf, as in rhs
        aprime = nl.value(np.array([sigma_of_alpha(a) for a in alpha])) / dis.b(times)
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
    Jacobian -K, K the stiffness term over b(t); all others RK45 (DP5).
    """
    u0v = as_modal(spec, u0, "u0")
    lam = spec.eigenvalues

    def rhs(t, y):
        mval = nl.value(sigma_half(lam, y))
        return -(mval / dis.b(t)) * (lam * y)

    t_end = settings.grid.t_end
    tols = {"rtol": settings.rel_tol, "atol": settings.abs_tol}
    if _direct_stepper(spec.lambda_max, nl.mu, dis, t_end) == "dp5":
        solver = RK45(rhs, 0.0, u0v, t_end, **tols)
    else:
        stiff = None  # K at the latest linearisation point

        def linearise(t, y):
            nonlocal stiff
            stiff = _StiffnessTerm(nl, lam, y, dis.b(t))

        # The Newton matrix is K + c I.
        solver = _closed_form_radau(
            rhs, u0v, t_end, linearise, lambda c: stiff.shifted_solver(c), **tols
        )
    times, samples, status, t_stop, stats = _integrate(solver, settings.grid.times())
    uprime = np.array([rhs(t, y) for t, y in zip(times, samples)])
    return Trajectory(spec, times, samples, uprime, status, t_stop, stats=stats)


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
    factor: closed form when b is constant, cumulative adaptive
    quadrature (absolute tolerance 1e-12 of the factor, i.e. 1e-12|w0|
    after scaling) otherwise.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ConfigurationError("eps must be positive")
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or ts[0] != 0.0:
        raise ConfigurationError("times must start at 0")
    w0 = compute_w0(spec, nl, dis, u0, u1)
    if not np.all(np.isfinite(w0)):
        # m(sigma0) A u0 / b0 overflows; the solvers stop on such data too.
        empty = np.empty((0, w0.size))
        return CorrectorTrajectory(ts[:0], empty, empty, STEP_UNDERFLOW)

    decay = np.exp(-dis.primitive(ts) / eps)
    theta_prime = w0[None, :] * decay[:, None]

    if dis.p == 0.0:
        d = dis.b0
        integral = (eps / d) * (-np.expm1(-d * ts / eps))
    else:
        integrand = lambda s: math.exp(-dis.primitive(s) / eps)
        vals = [0.0]
        for a, b_ in zip(ts[:-1], ts[1:]):
            seg, _ = quad(integrand, a, b_, epsabs=1e-15, epsrel=1e-13, limit=200)
            vals.append(vals[-1] + seg)
        integral = np.array(vals)
    theta = w0[None, :] * integral[:, None]
    return CorrectorTrajectory(ts, theta, theta_prime)


def residual_norm(
    traj: Trajectory,
    spec: Spectrum,
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
    ts = traj.times
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
