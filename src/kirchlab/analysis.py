"""Decay-exponent fitting, theoretical bound tables, verification of
fitted rates against predictions, singular-perturbation error series,
and the Hamiltonian floor check.

Fits are ordinary least squares in transformed coordinates: log value
against log(1+t) for polynomial laws, log value against (1+t)^(p+1) for
exponential laws, log sup against log eps for perturbation orders.
Verification compares exponents only; the theory never pins the
multiplicative constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .energies import EnergySeries
from .integrate import CorrectorTrajectory, Trajectory
from .model import Dissipation, Nonlinearity, PowerNonlinearity, Regime, classify_regime
from .spectral import modal_sums

__all__ = [
    "RateFit",
    "BoundEntry",
    "BoundSet",
    "VerificationEntry",
    "VerificationReport",
    "fit_power_rate",
    "fit_exponential_rate",
    "fit_eps_order",
    "predicted_bounds",
    "verify_bounds",
    "perturbation_errors",
    "hamiltonian_floor",
    "default_window",
    "PASS",
    "FAIL",
    "SKIPPED",
]

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

# Channel of the energy suite backing each bound quantity.
_QUANTITY_CHANNEL = {"E_half": "E_1", "E_one": "E_2", "V": "v"}


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope in the fit coordinates, with the intercept,
    the time window used, and the rms of the log residuals."""

    exponent: float
    log_coefficient: float
    window: tuple
    rms_residual: float


@dataclass(frozen=True)
class BoundEntry:
    """One predicted bound.

    quantity: "E_half" (|A^(1/2)u|^2), "E_one" (|Au|^2) or "V" (|u'|^2).
    kind: poly_upper / poly_lower carry the exponent of (1+t);
    exp_upper / exp_lower carry the exponent of (1+t) inside the
    exponential (always p+1), with weight_exponent holding an optional
    polynomial prefactor power; integral_upper asserts a finite weighted
    time integral and carries the weight power in weight_exponent.
    """

    quantity: str
    kind: str
    exponent: float
    weight_exponent: float | None = None


@dataclass(frozen=True)
class BoundSet:
    """Predicted bounds for one configuration; empty outside the
    parabolic regime (nothing is claimed there)."""

    entries: tuple
    regime: Regime


@dataclass
class VerificationEntry:
    quantity: str
    kind: str
    predicted_exponent: float
    fitted_exponent: float | None
    verdict: str
    margin: float

    def to_dict(self) -> dict:
        return {**asdict(self), "margin": None if math.isnan(self.margin) else self.margin}


@dataclass
class VerificationReport:
    entries: list
    window: tuple
    regime: Regime

    @property
    def worst(self) -> str:
        verdicts = {e.verdict for e in self.entries}
        if FAIL in verdicts:
            return FAIL
        if PASS in verdicts:
            return PASS
        return SKIPPED

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "regime": self.regime.tag,
            "worst": self.worst,
            "entries": [e.to_dict() for e in self.entries],
        }


def default_window(times: np.ndarray) -> tuple:
    """Last two decades of (1+t): rates are asymptotic and transients
    pollute early windows."""
    t_hi = float(times[-1])
    t_lo = (1.0 + t_hi) / 100.0 - 1.0
    return (max(t_lo, 0.0), t_hi)


def _masked(times, values, window):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = (t >= window[0]) & (t <= window[1]) & np.isfinite(v) & (v > 0.0)
    return t[mask], v[mask]


def _cumulative_trapezoid(v, t):
    # scipy's cumulative_trapezoid(v, t, initial=0.0), operation for
    # operation, so the sums are its bits.
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (v[1:] + v[:-1]) / 2.0)))


def _log_fit(x, v, window) -> RateFit:
    """Least-squares line through (x, log v) and the rms of its residuals."""
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateFit(float(slope), float(intercept), window, rms)


def fit_power_rate(times, values, window) -> RateFit | None:
    """Fit values ~ C (1+t)^beta over the window; exponent is beta.

    Returns None (skipped) when fewer than 8 strictly positive finite
    samples fall inside the window.
    """
    t, v = _masked(times, values, window)
    if t.size < 8:
        return None
    return _log_fit(np.log1p(t), v, tuple(window))


def fit_exponential_rate(times, values, p, window) -> RateFit | None:
    """Fit values ~ C exp(-alpha (1+t)^(p+1)) over the window.

    The stored exponent is the raw slope against (1+t)^(p+1), so the
    decay rate is alpha = -exponent. Skip rules as for the power fit.
    """
    t, v = _masked(times, values, window)
    if t.size < 8:
        return None
    return _log_fit((1.0 + t) ** (p + 1.0), v, tuple(window))


# The error is of order eps^2: a sweep passes when the fitted orders of
# sup |rho|^2 and sup |r'|^2 are SLOPE_TARGET +- SLOPE_TOL, and the
# weighted sup over eps^2 varies by at most a factor RATIO_BOUND.
SLOPE_TARGET = 2.0
SLOPE_TOL = 0.3
RATIO_BOUND = 10.0


def fit_eps_order(eps_list, sup_values) -> RateFit | None:
    """Slope of log(sup) against log(eps) across a perturbation sweep.

    Returns None (skipped) unless at least 4 values of eps span at least
    two decades, and when a sup vanishes (exact coincidence of solutions).
    """
    e = np.asarray(eps_list, dtype=float)
    s = np.asarray(sup_values, dtype=float)
    if e.size < 4 or e.max() / e.min() < 100.0 * (1.0 - 1e-12):
        return None
    if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
        return None
    return _log_fit(np.log(e), s, (float(e.min()), float(e.max())))


def predicted_bounds(
    nl: Nonlinearity,
    dis: Dissipation,
    coercive: bool,
    hyperbolic_run: bool = False,
) -> BoundSet:
    """Decay bounds implied by the regime classification, grouped by
    quantity in the order E_half, E_one, V.

    Outside the parabolic regime the set is empty. Inside it, the
    first-order limit's table is keyed by nondegenerate-vs-power
    nonlinearity and by coercivity; a degenerate table carries no
    closed-form prediction (empty set). A second-order run of a
    nondegenerate model (mu > 0) is held to the hyperbolic decay theory
    alone: polynomial and weighted integral upper bounds.

    Unstated hypotheses: (1) eps is small. At p = 1 with constant m
    every channel of a second-order run decays like (1+t)^(-1/eps), so
    the E_one bounds need eps < 1/4 and those of E_half and V eps < 1/2;
    at equality the polynomial bounds hold, the integral ones do not.
    (2) The noncoercive power upper bound -(p+1)/(gamma+1), sharp at beta = 1,
    assumes beta = (c-1)/a > 1 for lambda_j = j^-a, lambda_j u0_j^2 ~ j^-c.
    """
    regime = classify_regime(nl, dis, coercive)
    if regime.tag != "parabolic":
        return BoundSet((), regime)
    p = dis.p
    q = p + 1.0
    power = isinstance(nl, PowerNonlinearity)
    g = nl.gamma if power else None

    if hyperbolic_run and nl.mu > 0.0:
        entries = (
            BoundEntry("E_half", "poly_upper", -q),
            BoundEntry("E_half", "integral_upper", 0.0, weight_exponent=p),
            BoundEntry("E_one", "poly_upper", -2.0 * q),
            BoundEntry("E_one", "integral_upper", 0.0, weight_exponent=2.0 * p + 1.0),
            BoundEntry("V", "poly_upper", -2.0),
            BoundEntry("V", "integral_upper", 0.0, weight_exponent=p),
        )
    elif power and coercive:
        entries = (
            BoundEntry("E_half", "poly_lower", -q / g),
            BoundEntry("E_half", "poly_upper", -q / g),
            BoundEntry("E_one", "poly_lower", -q / g),
            BoundEntry("E_one", "poly_upper", -q / g),
            BoundEntry("V", "poly_upper", -(2.0 + q / g)),
        )
    elif power:
        entries = (
            BoundEntry("E_half", "poly_lower", -q / g),
            BoundEntry("E_half", "poly_upper", -q / (g + 1.0)),
            BoundEntry("E_one", "poly_upper", -q / g),
            BoundEntry("V", "poly_upper", -(2.0 * g * g + (1.0 - p) * g + p + 1.0) / (g * g + g)),
        )
    elif nl.mu > 0.0 and coercive:
        entries = (
            BoundEntry("E_half", "exp_lower", q),
            BoundEntry("E_half", "exp_upper", q),
            BoundEntry("E_one", "exp_lower", q),
            BoundEntry("E_one", "exp_upper", q),
            BoundEntry("V", "exp_lower", q, weight_exponent=2.0 * p),
            BoundEntry("V", "exp_upper", q, weight_exponent=2.0 * p),
        )
    elif nl.mu > 0.0:
        entries = (
            BoundEntry("E_half", "exp_lower", q),
            BoundEntry("E_half", "poly_upper", -q),
            BoundEntry("E_one", "poly_upper", -2.0 * q),
            BoundEntry("V", "poly_upper", -2.0),
        )
    else:  # degenerate table: parabolic only at p = 0, no rate table
        entries = ()
    return BoundSet(entries, regime)


TOL_EXPONENT = 0.07  # slack of a fitted decay exponent against a predicted one


def _check(entry: BoundEntry, times, values, window):
    """(fitted exponent, margin, passed) of one bound, or None when the
    fit it needs is undefined over the window (skipped)."""
    if entry.kind in ("poly_lower", "poly_upper"):
        fit = fit_power_rate(times, values, window)
        if fit is None:
            return None
        if entry.kind == "poly_lower":
            margin = fit.exponent - (entry.exponent - TOL_EXPONENT)
            return fit.exponent, margin, margin >= 0.0
        margin = (entry.exponent + TOL_EXPONENT) - fit.exponent
        return fit.exponent, margin, margin >= 0.0

    if entry.kind in ("exp_lower", "exp_upper"):
        if entry.weight_exponent:
            values = values / (1.0 + times) ** entry.weight_exponent
        exp_fit = fit_exponential_rate(times, values, entry.exponent - 1.0, window)
        poly_fit = fit_power_rate(times, values, window)
        if exp_fit is None or poly_fit is None:
            return None
        margin = poly_fit.rms_residual - exp_fit.rms_residual
        return exp_fit.exponent, margin, margin >= 0.0

    # integral_upper
    weighted = values * (1.0 + times) ** (entry.weight_exponent or 0.0)
    fit = fit_power_rate(times, weighted, window)
    if fit is None:
        return None
    margin = (-1.0 - TOL_EXPONENT) - fit.exponent
    passed = margin >= 0.0
    if not passed:
        t, v = _masked(times, weighted, window)
        cum = _cumulative_trapezoid(v, t)
        passed = cum[-1] > 0.0 and (cum[-1] - cum[t.size // 2]) <= 0.01 * cum[-1]
    return fit.exponent, margin, passed


def verify_bounds(
    series: EnergySeries, bounds: BoundSet, window: tuple | None = None
) -> VerificationReport:
    """Compare fitted decay exponents against a bound set.

    A polynomial lower bound passes when the fitted exponent is at
    least bound - tol, an upper one when it is at most bound + tol
    (tol = TOL_EXPONENT), so a sandwich requires the fit inside
    [lower - tol, upper + tol].
    Exponential bounds are checked by residual dominance: the
    exponential model must fit at least as well as the polynomial one.
    Integral bounds pass when the weighted integrand decays strictly
    faster than 1/(1+t) or the cumulative integral has visibly
    converged. Quantities undefined over the window are skipped.
    Entries are reported in the order of the bound set.
    """
    if window is None:
        window = default_window(series.times)
    entries = []
    for e in bounds.entries:
        values = series.channels.get(_QUANTITY_CHANNEL.get(e.quantity))
        result = None if values is None else _check(e, series.times, values, window)
        fitted, margin, passed = result or (None, math.nan, False)
        verdict = SKIPPED if result is None else PASS if passed else FAIL
        entries.append(VerificationEntry(e.quantity, e.kind, e.exponent, fitted, verdict, margin))
    return VerificationReport(entries, tuple(window), bounds.regime)


def perturbation_errors(
    traj_eps: Trajectory,
    traj_par: Trajectory,
    corr: CorrectorTrajectory,
    dis: Dissipation,
) -> EnergySeries:
    """Pointwise remainders of the singular perturbation on a shared grid.

    With rho = u_eps - u and r' = u_eps' - u' - theta' (second-order run,
    first-order limit, corrector), the channels are the norms the error
    theory bounds: rho_sq, half_rho_sq, one_rho_sq, r_prime_sq,
    half_r_prime_sq; their decay-weighted versions (weights (1+t)^(p+1),
    (1+t)^(2(p+1)), (1+t)^2); and two cumulative trapezoid integrals,
    cum_int_p of (1+t)^p (r_prime_sq + half_rho_sq) and cum_int_2p1 of
    (1+t)^(2p+1) (half_r_prime_sq + one_rho_sq).

    All three inputs must carry identical output grids; reuse the same
    settings object when producing them.
    """
    if not (
        np.array_equal(traj_eps.times, traj_par.times)
        and np.array_equal(traj_eps.times, corr.times)
    ):
        raise ValueError("trajectories and corrector must share one output grid")
    t = traj_eps.times
    p = dis.p

    rho = traj_eps.u - traj_par.u
    r_prime = traj_eps.uprime - traj_par.uprime - corr.theta_prime
    rho_sums = modal_sums(traj_eps.spectrum, rho, [0.0, 0.5, 1.0])
    r_prime_sums = modal_sums(traj_eps.spectrum, r_prime, [0.0, 0.5])
    ch = {
        "rho_sq": rho_sums[:, 0],
        "half_rho_sq": rho_sums[:, 1],
        "one_rho_sq": rho_sums[:, 2],
        "r_prime_sq": r_prime_sums[:, 0],
        "half_r_prime_sq": r_prime_sums[:, 1],
    }
    w1 = (1.0 + t) ** (p + 1.0)
    ch["half_rho_sq_weighted"] = w1 * ch["half_rho_sq"]
    ch["one_rho_sq_weighted"] = w1 * w1 * ch["one_rho_sq"]
    ch["r_prime_sq_weighted"] = (1.0 + t) ** 2 * ch["r_prime_sq"]

    f1 = (1.0 + t) ** p * (ch["r_prime_sq"] + ch["half_rho_sq"])
    f2 = (1.0 + t) ** (2.0 * p + 1.0) * (ch["half_r_prime_sq"] + ch["one_rho_sq"])
    ch["cum_int_p"] = _cumulative_trapezoid(f1, t)
    ch["cum_int_2p1"] = _cumulative_trapezoid(f2, t)
    return EnergySeries(t.copy(), ch)


def hamiltonian_floor(series: EnergySeries, dis: Dissipation, eps: float) -> EnergySeries:
    """Hamiltonian against its exponential floor H(0) exp(-2B(t)/eps).

    Reads H from the ``H_eps`` channel of a second-order energy suite.
    Whenever the initial Hamiltonian is positive the margin must stay
    nonnegative; with integrable dissipation the floor has a positive
    limit, which is exactly why nonzero solutions cannot decay there.
    """
    H = series["H_eps"]
    floor = H[0] * np.exp(-2.0 * dis.primitive(series.times) / eps)
    return EnergySeries(series.times.copy(), {"H": H, "floor": floor, "margin": H - floor})
