"""Diagonal model of a nonnegative self-adjoint operator.

The operator is represented purely by its eigenvalues; eigenvectors are
implicit coordinates. Coefficient vectors ("modal vectors") live in that
basis, so every fractional power acts diagonally and every Sobolev-type
norm reduces to a weighted sum of squared coefficients. Zero eigenvalues
are allowed and model an operator with a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigurationError",
    "Spectrum",
    "as_modal",
    "sigma_half",
    "modal_sums",
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


def sigma_half(lam: np.ndarray, u: np.ndarray) -> float:
    """Sum of lambda_k u_k^2, the squared half-order norm |A^(1/2)u|^2.

    Shared by every solver and by the corrector launch velocity so that
    quantities that cancel by construction cancel exactly in floats.

    The terms are nonnegative, so a plain sum of N of them is accurate
    to (N-1) machine epsilons relative (Higham, Accuracy and Stability
    of Numerical Algorithms, 4.2). It is numpy's pairwise ``add.reduce``,
    not a BLAS dot, whose bits can change with the thread count.
    """
    return float(np.add.reduce(lam * (u * u)))


def modal_sums(spec: Spectrum, x: np.ndarray, orders) -> np.ndarray:
    """Weighted row sums of a (samples x modes) array of modal vectors.

    Column j holds sum_k lambda_k^(2*orders[j]) x[i, k]^2 for every row
    i, with the convention 0^0 = 1, so kernel modes count at order 0
    and at no positive order. Like ``sigma_half`` these are plain sums
    of nonnegative terms, which cannot cancel; they may differ from it
    in the last bits, since the contraction adds in another order. It
    runs without a (samples x modes) temporary, so large spectra cost no
    extra copy of the trajectory.
    """
    weights = spec.eigenvalues[:, None] ** (2.0 * np.asarray(orders, dtype=float))
    return np.einsum("ij,ij,jk->ik", x, x, weights)
