"""Diagonal model of a nonnegative self-adjoint operator.

The operator is represented purely by its eigenvalues; eigenvectors are
implicit coordinates. Coefficient vectors ("modal vectors") live in that
basis, so every fractional power acts diagonally and every Sobolev-type
norm reduces to a weighted sum of squared coefficients. Zero eigenvalues
are allowed and model an operator with a kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigurationError",
    "Spectrum",
    "as_modal",
    "sobolev_norm_sq",
    "sigma_half",
    "modal_sums",
    "apply_A",
    "coercivity",
    "spectrum_from_config",
]


class ConfigurationError(ValueError):
    """Inputs violate a documented shape or schema contract."""


@dataclass(frozen=True)
class Spectrum:
    """Nondecreasing list of nonnegative eigenvalues.

    Multiplicity is expressed by repetition. The coercivity constant is
    the smallest eigenvalue; the operator is coercive exactly when it is
    strictly positive.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size < 1:
            raise ConfigurationError("spectrum needs at least one eigenvalue")
        if not np.all(np.isfinite(lam)):
            raise ConfigurationError("eigenvalues must be finite")
        if lam[0] < 0.0:
            raise ConfigurationError("eigenvalues must be nonnegative")
        if np.any(np.diff(lam) < 0.0):
            raise ConfigurationError("eigenvalues must be nondecreasing")
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def size(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def as_modal(spec: Spectrum, x, name: str = "vector") -> np.ndarray:
    """Validate and return ``x`` as a modal coefficient vector of ``spec``."""
    try:
        arr = np.asarray(x)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise ConfigurationError(f"{name} must be a flat list of numbers")
    arr = arr.astype(float, copy=False)
    if arr.size != spec.size:
        raise ConfigurationError(
            f"{name} has length {arr.size}, spectrum has {spec.size} modes"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} must be finite")
    return arr


def sobolev_norm_sq(spec: Spectrum, x, order: float) -> float:
    """Squared norm of the fractional power ``order`` applied to ``x``.

    Computes sum_k lambda_k^(2*order) x_k^2 with the convention 0^0 = 1,
    so kernel modes contribute x_k^2 at order 0 and nothing at any
    positive order. Summation is compensated.
    """
    xv = as_modal(spec, x, "x")
    if order < 0.0:
        raise ValueError("order must be nonnegative")
    # IEEE pow gives 0.0**0.0 == 1.0, which is exactly the convention needed.
    weights = spec.eigenvalues ** (2.0 * order)
    return math.fsum(weights * xv * xv)


def sigma_half(lam: np.ndarray, u: np.ndarray) -> float:
    """Compensated sum of lambda_k u_k^2, the squared half-order norm.

    ``sobolev_norm_sq(., 0.5)`` without the validation, bit for bit.
    Shared by every solver and by the corrector launch velocity so that
    quantities that cancel by construction cancel exactly in floats.
    """
    return math.fsum(lam * u * u)


def modal_sums(spec: Spectrum, x: np.ndarray, orders) -> np.ndarray:
    """Weighted row sums of a (samples x modes) array of modal vectors.

    Column j holds sum_k lambda_k^(2*orders[j]) x[i, k]^2 for every row
    i, with the 0^0 = 1 convention of ``sobolev_norm_sq``. These are
    plain floating-point sums, not compensated ones. The contraction
    runs without a (samples x modes) temporary, so large spectra cost no
    extra copy of the trajectory.
    """
    weights = spec.eigenvalues[:, None] ** (2.0 * np.asarray(orders, dtype=float))
    return np.einsum("ij,ij,jk->ik", x, x, weights)


def apply_A(spec: Spectrum, x) -> np.ndarray:
    """Diagonal action of the operator: coefficient k maps to lambda_k x_k."""
    xv = as_modal(spec, x, "x")
    return spec.eigenvalues * xv


def coercivity(spec: Spectrum) -> float:
    """Smallest eigenvalue; strictly positive iff the operator is coercive."""
    return float(spec.eigenvalues[0])


def spectrum_from_config(cfg: dict) -> Spectrum:
    """Build a spectrum from its configuration mapping.

    Two forms are accepted:
      {"kind": "explicit", "values": [l1, ..., lN]}
      {"kind": "power", "a": a, "q": q, "n": N}   # lambda_k = a * k^q
    """
    if not isinstance(cfg, dict):
        raise ConfigurationError("spectrum must be a mapping")
    kind = cfg.get("kind")
    if kind == "explicit":
        _reject_unknown(cfg, {"kind", "values"}, "spectrum")
        if "values" not in cfg:
            raise ConfigurationError("spectrum.values is required")
        return Spectrum(np.array(_as_numbers(cfg["values"], "spectrum.values")))
    if kind == "power":
        _reject_unknown(cfg, {"kind", "a", "q", "n"}, "spectrum")
        missing = sorted({"a", "q", "n"} - set(cfg))
        if missing:
            raise ConfigurationError(f"spectrum.{missing[0]} is required")
        a = _as_number(cfg["a"], "spectrum.a")
        q = _as_number(cfg["q"], "spectrum.q")
        n = _as_integer(cfg["n"], "spectrum.n")
        if n < 1:
            raise ConfigurationError("spectrum.n must be at least 1")
        if a < 0.0:
            raise ConfigurationError("spectrum.a must be nonnegative")
        k = np.arange(1, n + 1, dtype=float)
        return Spectrum(a * k**q)
    raise ConfigurationError(f"spectrum.kind must be 'explicit' or 'power', got {kind!r}")


def _reject_unknown(cfg: dict, allowed: set, context: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{context} must be a mapping")
    extra = sorted(set(cfg) - allowed)
    if extra:
        raise ConfigurationError(f"unknown key {extra[0]!r} in {context}")


# Plan field readers. JSON gives numbers as int or float; strings,
# booleans, null and containers where a number belongs are errors that
# name the field, never a silent conversion.

def _as_number(value, name: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ConfigurationError(f"{name} must be a number, got {value!r}")


def _as_integer(value, name: str) -> int:
    x = _as_number(value, name)
    if not x.is_integer():
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(x)


def _as_flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    return value


def _as_list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{name} must be a list")
    return list(value)


def _as_numbers(value, name: str, length: int | None = None) -> tuple:
    items = _as_list(value, name)
    if length is not None and len(items) != length:
        raise ConfigurationError(f"{name} must hold exactly {length} numbers")
    return tuple(_as_number(v, f"{name}[{i}]") for i, v in enumerate(items))
