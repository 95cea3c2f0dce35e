"""Model ingredients: stiffness nonlinearity, dissipation coefficient,
scalar constants, corrector launch velocity, and the regime classifier.

The equation under study is

    eps * u'' + b(t) * u' + m(|A^(1/2) u|^2) * A u = 0

with either a power nonlinearity m(s) = s^gamma or a piecewise-linear
nondecreasing-grid table, and with dissipation b(t) = (1+t)^(-p) or a
positive constant. Only these model families are supported: they keep
the primitive of b in closed form and make the regime classifier total.
Every coefficient method (m, M, m', b, B) takes a float or a numpy array
and returns the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .spectral import (
    ConfigurationError,
    Spectrum,
    _as_list,
    _as_number,
    _as_numbers,
    _reject_unknown,
    apply_A,
    as_modal,
    sigma_half,
)

__all__ = [
    "PowerNonlinearity",
    "LipschitzTable",
    "Nonlinearity",
    "PowerLawDissipation",
    "ConstantDissipation",
    "Dissipation",
    "Regime",
    "p_gamma",
    "classify_regime",
    "compute_w0",
    "nonlinearity_from_config",
    "dissipation_from_config",
]

PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
NO_MANS_LAND = "no_mans_land"
NO_THEORY = "no_theory"


def _power(x, y: float):
    # A float power raises on overflow and on 0.0 to a negative power;
    # m, M and m' saturate at inf, as numpy's array power does.
    try:
        return x**y
    except (OverflowError, ZeroDivisionError):
        return math.inf


@dataclass(frozen=True)
class PowerNonlinearity:
    """m(s) = s^gamma with gamma > 0. Degenerate: m(0) = 0, so mu = 0."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ConfigurationError("gamma must be a positive finite real")

    @property
    def mu(self) -> float:
        return 0.0

    def value(self, sigma):
        return _power(sigma, self.gamma)

    def integral(self, sigma):
        return _power(sigma, self.gamma + 1.0) / (self.gamma + 1.0)

    def derivative(self, sigma):
        # At sigma = 0 the derivative is 0, 1 or +inf as gamma is above,
        # at or below 1 (0^0 = 1); the +inf sentinel flags the
        # non-Lipschitz kink (gamma < 1).
        return self.gamma * _power(sigma, self.gamma - 1.0)


@dataclass(frozen=True)
class LipschitzTable:
    """Piecewise-linear nonlinearity given by (sigma, m) breakpoints.

    The grid starts at sigma = 0, is strictly increasing, and the table
    extends constantly past the last breakpoint so m stays bounded and
    Lipschitz on the whole half line. ``mu`` is the certified lower
    bound inf m; ``None`` selects the smallest tabulated value.
    """

    points: tuple
    mu: float | None = None

    def __post_init__(self):
        pts = tuple((float(s), float(m)) for s, m in self.points)
        if len(pts) < 1:
            raise ConfigurationError("table needs at least one breakpoint")
        sigmas = [s for s, _ in pts]
        values = [m for _, m in pts]
        if sigmas[0] != 0.0:
            raise ConfigurationError("table grid must start at sigma = 0")
        if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
            raise ConfigurationError("table grid must be strictly increasing")
        if any(m < 0.0 or not math.isfinite(m) for m in values):
            raise ConfigurationError("table values must be finite and nonnegative")
        mu = min(values) if self.mu is None else float(self.mu)
        if not mu >= 0.0 or any(m < mu for m in values):
            raise ConfigurationError("table values must dominate mu >= 0")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "_sigmas", np.array(sigmas))
        object.__setattr__(self, "_values", np.array(values))
        # Cumulative exact integrals of the linear segments.
        seg = 0.5 * (self._values[:-1] + self._values[1:]) * np.diff(self._sigmas)
        object.__setattr__(self, "_cum", np.concatenate(([0.0], np.cumsum(seg))))
        # Right slope of each segment; 0 in the constant extension.
        slopes = np.diff(self._values) / np.diff(self._sigmas)
        object.__setattr__(self, "_slopes", np.append(slopes, 0.0))

    def _segment(self, sigma):
        # Index of the breakpoint at or left of sigma; the last one past the grid.
        return np.searchsorted(self._sigmas, sigma, side="right") - 1

    def value(self, sigma):
        return np.interp(sigma, self._sigmas, self._values)

    def integral(self, sigma):
        # Exact on the segment holding sigma; past the grid m is constant,
        # so the trapezoid there is a rectangle.
        j = self._segment(sigma)
        return self._cum[j] + 0.5 * (self._values[j] + self.value(sigma)) * (sigma - self._sigmas[j])

    def derivative(self, sigma):
        # One-sided right derivative.
        return self._slopes[self._segment(sigma)]


Nonlinearity = Union[PowerNonlinearity, LipschitzTable]


@dataclass(frozen=True)
class PowerLawDissipation:
    """b(t) = (1+t)^(-p) with p >= 0; weak dissipation for p > 0."""

    p: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 0.0):
            raise ConfigurationError("p must be a nonnegative finite real")

    @property
    def b0(self) -> float:
        return 1.0

    def b(self, t):
        return (1.0 + t) ** (-self.p)

    def primitive(self, t):
        if self.p == 1.0:
            return np.log1p(t)
        return ((1.0 + t) ** (1.0 - self.p) - 1.0) / (1.0 - self.p)


@dataclass(frozen=True)
class ConstantDissipation:
    """b(t) = delta > 0."""

    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ConfigurationError("delta must be a positive finite real")

    @property
    def b0(self) -> float:
        return self.delta

    def b(self, t):
        return np.full(t.shape, self.delta) if isinstance(t, np.ndarray) else self.delta

    def primitive(self, t):
        return self.delta * t


Dissipation = Union[PowerLawDissipation, ConstantDissipation]


@dataclass(frozen=True)
class Regime:
    """Classification tag plus, for power nonlinearities, the threshold
    exponent separating the parabolic region from the unresolved band."""

    tag: str
    threshold: float | None = None


def p_gamma(gamma: float) -> float:
    """Largest dissipation exponent with proven parabolic behavior in the
    degenerate noncoercive power case.

    Equals (gamma^2+1)/(gamma^2+2*gamma-1) for gamma >= 1 and
    gamma/(gamma+2) for gamma in (0,1). The value is at most 1 for
    gamma >= 1, with equality exactly at gamma = 1, and tends to 1 from
    below as gamma grows.
    """
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be positive")
    if gamma >= 1.0:
        return (gamma * gamma + 1.0) / (gamma * gamma + 2.0 * gamma - 1.0)
    return gamma / (gamma + 2.0)


def classify_regime(nl: Nonlinearity, dis: Dissipation, coercive: bool) -> Regime:
    """Place a model configuration on the regime map.

    Constant dissipation counts as p = 0. Above p = 1 the dissipation is
    integrable and nonzero solutions cannot decay (hyperbolic). At or
    below p = 1: nondegenerate nonlinearities and coercive power cases
    are parabolic; noncoercive power cases are parabolic only up to the
    threshold exponent, with an unresolved band up to 1; degenerate
    tables under genuinely weak dissipation have no supporting theory.
    """
    p = dis.p if isinstance(dis, PowerLawDissipation) else 0.0
    threshold = p_gamma(nl.gamma) if isinstance(nl, PowerNonlinearity) else None
    if p > 1.0:
        return Regime(HYPERBOLIC, threshold)
    if nl.mu > 0.0:
        return Regime(PARABOLIC, threshold)
    if isinstance(nl, PowerNonlinearity):
        if coercive or p <= threshold:
            return Regime(PARABOLIC, threshold)
        return Regime(NO_MANS_LAND, threshold)
    # Degenerate table: theory exists only for constant dissipation.
    if p > 0.0:
        return Regime(NO_THEORY, threshold)
    return Regime(PARABOLIC, threshold)


def compute_w0(spec: Spectrum, nl: Nonlinearity, dis: Dissipation, u0, u1) -> np.ndarray:
    """Launch velocity of the boundary-layer corrector.

    w0 = u1 + m(|A^(1/2)u0|^2) * A u0 / b(0), which is exactly the jump
    between the initial velocity of the second-order problem and the
    initial velocity inherited by the first-order limit problem.
    """
    u0v = as_modal(spec, u0, "u0")
    u1v = as_modal(spec, u1, "u1")
    sigma0 = sigma_half(spec.eigenvalues, u0v)
    return u1v + (nl.value(sigma0) / dis.b0) * apply_A(spec, u0v)


def nonlinearity_from_config(cfg: dict) -> Nonlinearity:
    """Build a nonlinearity from {"kind": "power", "gamma": g} or
    {"kind": "table", "points": [[s, m], ...], "mu": optional}."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("m must be a mapping")
    kind = cfg.get("kind")
    if kind == "power":
        _reject_unknown(cfg, {"kind", "gamma"}, "m")
        if "gamma" not in cfg:
            raise ConfigurationError("m.gamma is required")
        return PowerNonlinearity(_as_number(cfg["gamma"], "m.gamma"))
    if kind == "table":
        _reject_unknown(cfg, {"kind", "points", "mu"}, "m")
        if "points" not in cfg:
            raise ConfigurationError("m.points is required")
        pts = tuple(
            _as_numbers(pt, f"m.points[{i}]", 2)
            for i, pt in enumerate(_as_list(cfg["points"], "m.points"))
        )
        return LipschitzTable(pts, _as_number(cfg["mu"], "m.mu") if "mu" in cfg else None)
    raise ConfigurationError(f"m.kind must be 'power' or 'table', got {kind!r}")


def dissipation_from_config(cfg: dict) -> Dissipation:
    """Build a dissipation from {"kind": "power", "p": p} or
    {"kind": "constant", "delta": d}."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("b must be a mapping")
    kind = cfg.get("kind")
    if kind == "power":
        _reject_unknown(cfg, {"kind", "p"}, "b")
        if "p" not in cfg:
            raise ConfigurationError("b.p is required")
        return PowerLawDissipation(_as_number(cfg["p"], "b.p"))
    if kind == "constant":
        _reject_unknown(cfg, {"kind", "delta"}, "b")
        if "delta" not in cfg:
            raise ConfigurationError("b.delta is required")
        return ConstantDissipation(_as_number(cfg["delta"], "b.delta"))
    raise ConfigurationError(f"b.kind must be 'power' or 'constant', got {kind!r}")
