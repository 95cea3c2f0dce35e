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
  Solving ODEs I, II.4; samples are its quartic interpolants), for
  every first-order solve and for every second-order run that is not
  stiff. Second-order steps are capped at a fixed fraction of the
  fastest oscillation period of the current state.
- scipy's Radau IIA of order 5 (Hairer-Wanner, Solving ODEs II, IV.8)
  with an analytic Jacobian, for overdamped second-order runs whose
  explicit steps would be stability-bound (small eps); samples are
  collocation interpolants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45, Radau, quad

from .model import ConstantDissipation, Dissipation, Nonlinearity, compute_w0
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
    error_limited``. Radau counts its Jacobian evaluations and the LU
    factorisations of its Newton matrices; scipy's stepper does not
    report rejected steps, so the three DP5 step counts are ``None``
    there, and DP5 evaluates no Jacobian.
    """

    method: str
    rhs_evals: int
    accepted: int
    rejected: int | None
    cap_limited: int | None
    error_limited: int | None
    jac_evals: int = 0
    lu_decompositions: int = 0


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


def _integrate(solver, out_times, blowup_threshold=None, step_cap=None):
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
    the state at the stopping time.
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
        if blowup_threshold is not None and float(y @ y) > blowup_threshold:
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
            "radau", solver.nfev, accepted, None, None, None, solver.njev, solver.nlu
        )
    else:
        # RK45 reuses the last stage (FSAL): one launch evaluation, one
        # initial-step probe, six per attempted step.
        rejected = (solver.nfev - 2) // 6 - accepted
        stats = SolverStats(
            "dp5", solver.nfev, accepted, rejected, cap_limited, accepted - cap_limited
        )
    return times, samples, status, t_stop, stats


# A run goes to Radau when explicit DP5 would need more stability-bound
# steps than this. DP5's stable step under damping b/eps is a few eps/b,
# so B(t_end)/eps (B the primitive of b) counts its steps up to a
# constant. Radau takes ~10^4 rhs evaluations whatever eps is; below
# this count DP5 is cheaper and stays the oracle.
_STIFF_STEPS = 2000.0


def _stepper(eps: float, lam_max: float, m0: float, dis: Dissipation, t_end: float) -> str:
    """``"radau"`` for a stiff second-order run, else ``"dp5"``.

    Stiff means overdamped at the horizon, b(t_end)^2 >= 4 eps
    lambda_max m0 with m0 the launch stiffness coefficient (every mode
    then relaxes without oscillating, so explicit steps are limited by
    stability, not accuracy), and more than ``_STIFF_STEPS`` such
    steps, B(t_end)/eps. A pure function of the plan's data.
    """
    b_end = dis.b(t_end)
    overdamped = b_end * b_end >= 4.0 * eps * lam_max * m0
    return "radau" if overdamped and dis.primitive(t_end) / eps > _STIFF_STEPS else "dp5"


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

    m_now = nl.value(sigma_half(lam, u0v))
    if m_now == 0.0:
        warnings.warn(
            "initial stiffness coefficient vanishes (really degenerate data); "
            "no existence theory applies",
            stacklevel=2,
        )

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

    eye = np.eye(n)

    def jac(t, y):
        # [[0, I], [-(m Lambda + m'(sigma) (Lambda u)(2 Lambda u)^T) / eps,
        # -(b/eps) I]]. The rank-one m' term keeps Newton converging when
        # m varies; it is left out only where m' is infinite (the
        # gamma < 1 kink at sigma = 0).
        u = y[:n]
        sigma = sigma_half(lam, u)
        out = np.zeros((2 * n, 2 * n))
        out[:n, n:] = eye
        out[n:, n:] = (-dis.b(t) / eps) * eye
        block = np.diag((-nl.value(sigma) / eps) * lam)
        dm = nl.derivative(sigma)
        if math.isfinite(dm):
            lam_u = lam * u
            block -= (2.0 * dm / eps) * np.outer(lam_u, lam_u)
        out[n:, :n] = block
        return out

    y0 = np.concatenate([u0v, u1v])
    t_end = settings.grid.t_end
    tols = {"rtol": settings.rel_tol, "atol": settings.abs_tol}
    if _stepper(eps, lam_max, m_now, dis, t_end) == "radau":
        solver, cap = Radau(rhs, 0.0, y0, t_end, jac=jac, **tols), None
    else:
        # The cap at the launch state: RK45's set-up moves m_now off it.
        # Assigned, not passed, because scipy rejects the 0.0 that an
        # overflowing m gives; that run then fails its first step.
        launch_cap = step_cap()
        solver, cap = RK45(rhs, 0.0, y0, t_end, **tols), step_cap
        solver.max_step = launch_cap
    times, samples, status, t_stop, stats = _integrate(
        solver, settings.grid.times(), settings.blowup_threshold, cap
    )
    return Trajectory(
        spec, times, samples[:, :n], samples[:, n:], status, t_stop, stats=stats
    )


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
    w = lam * u0v * u0v

    def sigma_of_alpha(alpha: float) -> float:
        return math.fsum(w * np.exp(-2.0 * lam * alpha))

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
    """
    u0v = as_modal(spec, u0, "u0")
    lam = spec.eigenvalues

    def rhs(t, y):
        mval = nl.value(sigma_half(lam, y))
        return -(mval / dis.b(t)) * (lam * y)

    solver = RK45(
        rhs, 0.0, u0v, settings.grid.t_end, rtol=settings.rel_tol, atol=settings.abs_tol
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

    constant_b = isinstance(dis, ConstantDissipation) or dis.p == 0.0
    if constant_b:
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
