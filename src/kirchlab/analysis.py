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
from dataclasses import dataclass, field

import numpy as np

from .energies import EnergySeries
from .integrate import CorrectorTrajectory, Trajectory
from .model import (
    Dissipation,
    Nonlinearity,
    PowerLawDissipation,
    PowerNonlinearity,
    Regime,
    classify_regime,
)
from .spectral import modal_sums

__all__ = [
    "RateFit",
    "BoundEntry",
    "BoundSet",
    "VerificationEntry",
    "VerificationReport",
    "ErrorSeries",
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

    @property
    def applicable(self) -> bool:
        return len(self.entries) > 0


@dataclass
class VerificationEntry:
    quantity: str
    kind: str
    predicted_exponent: float
    fitted_exponent: float | None
    verdict: str
    margin: float

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "kind": self.kind,
            "predicted_exponent": self.predicted_exponent,
            "fitted_exponent": self.fitted_exponent,
            "verdict": self.verdict,
            "margin": None if math.isnan(self.margin) else self.margin,
        }


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

    Requires at least 4 values of eps spanning at least two decades.
    Returns None when a sup vanishes (exact coincidence of solutions).
    """
    e = np.asarray(eps_list, dtype=float)
    s = np.asarray(sup_values, dtype=float)
    if e.size < 4:
        raise ValueError("need at least 4 eps values")
    if e.max() / e.min() < 100.0 * (1.0 - 1e-12):
        raise ValueError("eps values must span at least two decades")
    if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
        return None
    return _log_fit(np.log(e), s, (float(e.min()), float(e.max())))


def predicted_bounds(
    nl: Nonlinearity,
    dis: Dissipation,
    coercive: bool,
    hyperbolic_run: bool = False,
) -> BoundSet:
    """Decay bounds implied by the regime classification.

    Outside the parabolic regime the set is empty. Inside it, the four
    blocks are keyed by nondegenerate-vs-power nonlinearity and by
    coercivity; a degenerate table in the parabolic regime carries no
    closed-form prediction and also yields an empty set. For
    second-order runs of nondegenerate models the weighted-sup and
    integral bounds of the global decay theory are appended.
    """
    regime = classify_regime(nl, dis, coercive)
    if regime.tag != "parabolic":
        return BoundSet((), regime)
    p = dis.p if isinstance(dis, PowerLawDissipation) else 0.0
    q = p + 1.0
    entries = []

    if isinstance(nl, PowerNonlinearity):
        g = nl.gamma
        if coercive:
            entries += [
                BoundEntry("E_half", "poly_lower", -q / g),
                BoundEntry("E_half", "poly_upper", -q / g),
                BoundEntry("E_one", "poly_lower", -q / g),
                BoundEntry("E_one", "poly_upper", -q / g),
                BoundEntry("V", "poly_upper", -(2.0 + q / g)),
            ]
        else:
            entries += [
                BoundEntry("E_half", "poly_lower", -q / g),
                BoundEntry("E_half", "poly_upper", -q / (g + 1.0)),
                BoundEntry("E_one", "poly_upper", -q / g),
                BoundEntry(
                    "V",
                    "poly_upper",
                    -(2.0 * g * g + (1.0 - p) * g + p + 1.0) / (g * g + g),
                ),
            ]
    elif nl.mu > 0.0:
        if coercive:
            entries += [
                BoundEntry("E_half", "exp_lower", q),
                BoundEntry("E_half", "exp_upper", q),
                BoundEntry("E_one", "exp_lower", q),
                BoundEntry("E_one", "exp_upper", q),
                BoundEntry("V", "exp_lower", q, weight_exponent=2.0 * p),
                BoundEntry("V", "exp_upper", q, weight_exponent=2.0 * p),
            ]
        else:
            entries += [
                BoundEntry("E_half", "exp_lower", q),
                BoundEntry("E_half", "poly_upper", -q),
                BoundEntry("E_one", "poly_upper", -2.0 * q),
                BoundEntry("V", "poly_upper", -2.0),
            ]
    # else: degenerate table, parabolic only at p = 0, no rate table.

    if hyperbolic_run and nl.mu > 0.0:
        entries += [
            BoundEntry("E_half", "poly_upper", -q),
            BoundEntry("E_one", "poly_upper", -2.0 * q),
            BoundEntry("V", "poly_upper", -2.0),
            BoundEntry("E_half", "integral_upper", 0.0, weight_exponent=p),
            BoundEntry("V", "integral_upper", 0.0, weight_exponent=p),
            BoundEntry("E_one", "integral_upper", 0.0, weight_exponent=2.0 * p + 1.0),
        ]

    # Drop duplicates while preserving order.
    return BoundSet(tuple(dict.fromkeys(entries)), regime)


def _weighted_nonincreasing(t, v, exponent) -> bool:
    # Bounded weighted sup, tolerating integrator-level wiggle.
    w = (1.0 + t) ** (-exponent) * v
    peak = np.maximum.accumulate(w)
    return bool(np.all(w <= peak * (1.0 + 1e-9)) and w[-1] <= w[0] * (1.0 + 1e-9))


TOL_EXPONENT = 0.07  # slack of a fitted decay exponent against a predicted one


def verify_bounds(
    series: EnergySeries, bounds: BoundSet, window: tuple | None = None
) -> VerificationReport:
    """Compare fitted decay exponents against a bound set.

    Sandwiches require the fitted exponent to land inside
    [lower - tol, upper + tol], tol = TOL_EXPONENT. A lone upper bound
    passes when the fitted exponent is at most bound + tol, or as a
    fallback when the bound-weighted channel is nonincreasing over the
    window. Exponential bounds are checked by residual dominance: the
    exponential model must fit at least as well as the polynomial one.
    Integral bounds pass when the weighted integrand decays strictly
    faster than 1/(1+t) or the cumulative integral has visibly
    converged. Quantities undefined over the window are skipped.
    """
    if window is None:
        window = default_window(series.times)
    entries = []
    by_quantity = {}
    for e in bounds.entries:
        by_quantity.setdefault(e.quantity, []).append(e)

    for quantity, group in by_quantity.items():
        channel = _QUANTITY_CHANNEL.get(quantity)
        values = series.channels.get(channel) if channel else None
        poly_fit = (
            fit_power_rate(series.times, values, window) if values is not None else None
        )

        lowers = [e for e in group if e.kind == "poly_lower"]
        uppers = [e for e in group if e.kind == "poly_upper"]
        sandwich = bool(lowers) and bool(uppers)

        for e in group:
            if values is None:
                entries.append(
                    VerificationEntry(quantity, e.kind, e.exponent, None, SKIPPED, math.nan)
                )
                continue
            if e.kind in ("poly_lower", "poly_upper"):
                if poly_fit is None:
                    entries.append(
                        VerificationEntry(quantity, e.kind, e.exponent, None, SKIPPED, math.nan)
                    )
                    continue
                beta = poly_fit.exponent
                if e.kind == "poly_lower":
                    margin = beta - (e.exponent - TOL_EXPONENT)
                    ok = margin >= 0.0
                else:
                    margin = (e.exponent + TOL_EXPONENT) - beta
                    ok = margin >= 0.0
                    if not ok and not sandwich:
                        t, v = _masked(series.times, values, window)
                        if t.size >= 2 and _weighted_nonincreasing(t, v, e.exponent):
                            ok = True
                entries.append(
                    VerificationEntry(
                        quantity, e.kind, e.exponent, beta, PASS if ok else FAIL, margin
                    )
                )
            elif e.kind in ("exp_lower", "exp_upper"):
                vals = values
                if e.weight_exponent:
                    vals = values / (1.0 + series.times) ** e.weight_exponent
                p = e.exponent - 1.0
                exp_fit = fit_exponential_rate(series.times, vals, p, window)
                poly_ref = fit_power_rate(series.times, vals, window)
                if exp_fit is None or poly_ref is None:
                    entries.append(
                        VerificationEntry(quantity, e.kind, e.exponent, None, SKIPPED, math.nan)
                    )
                    continue
                margin = poly_ref.rms_residual - exp_fit.rms_residual
                ok = margin >= 0.0
                entries.append(
                    VerificationEntry(
                        quantity,
                        e.kind,
                        e.exponent,
                        exp_fit.exponent,
                        PASS if ok else FAIL,
                        margin,
                    )
                )
            else:  # integral_upper
                w = e.weight_exponent or 0.0
                weighted = values * (1.0 + series.times) ** w
                fit = fit_power_rate(series.times, weighted, window)
                if fit is None:
                    entries.append(
                        VerificationEntry(quantity, e.kind, e.exponent, None, SKIPPED, math.nan)
                    )
                    continue
                margin = (-1.0 - TOL_EXPONENT) - fit.exponent
                ok = margin >= 0.0
                if not ok:
                    t, v = _masked(series.times, weighted, window)
                    cum = np.concatenate(
                        ([0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t)))
                    )
                    if cum[-1] > 0.0:
                        half = int(t.size // 2)
                        ok = (cum[-1] - cum[half]) <= 0.01 * cum[-1]
                entries.append(
                    VerificationEntry(
                        quantity, e.kind, e.exponent, fit.exponent, PASS if ok else FAIL, margin
                    )
                )
    return VerificationReport(entries, tuple(window), bounds.regime)


@dataclass
class ErrorSeries:
    """Differences between a second-order run, its first-order limit,
    and the corrector, with the norm channels that the error theory
    bounds.

    rho = u_eps - u, r = rho - theta, r_prime = u_eps' - u' - theta'.
    Channels: rho_sq, half_rho_sq, one_rho_sq, r_prime_sq,
    half_r_prime_sq; their decay-weighted versions (weights (1+t)^(p+1),
    (1+t)^(2(p+1)), (1+t)^2); and two cumulative trapezoid integrals,
    cum_int_p of (1+t)^p (r_prime_sq + half_rho_sq) and cum_int_2p1 of
    (1+t)^(2p+1) (half_r_prime_sq + one_rho_sq).
    """

    times: np.ndarray
    rho: np.ndarray
    r: np.ndarray
    r_prime: np.ndarray
    channels: dict = field(default_factory=dict)

    def sup(self, name: str) -> float:
        return float(np.max(self.channels[name]))


def perturbation_errors(
    traj_eps: Trajectory,
    traj_par: Trajectory,
    corr: CorrectorTrajectory,
    dis: Dissipation,
) -> ErrorSeries:
    """Pointwise remainders of the singular perturbation on a shared grid.

    All three inputs must carry identical output grids; reuse the same
    settings object when producing them.
    """
    if not (
        np.array_equal(traj_eps.times, traj_par.times)
        and np.array_equal(traj_eps.times, corr.times)
    ):
        raise ValueError("trajectories and corrector must share one output grid")
    t = traj_eps.times
    p = dis.p if isinstance(dis, PowerLawDissipation) else 0.0

    rho = traj_eps.u - traj_par.u
    r = rho - corr.theta
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
    for name, f in (("cum_int_p", f1), ("cum_int_2p1", f2)):
        ch[name] = np.concatenate(
            ([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t)))
        )
    return ErrorSeries(t.copy(), rho, r, r_prime, ch)


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
