"""Energy functionals evaluated along trajectories, and the a-priori
inequality diagnostics that separate the tractable dissipation regimes.

Channels that divide by a quantity that can legitimately vanish along
degenerate runs (the stiffness coefficient, or the half-order norm)
carry NaN sentinels at the affected samples instead of raising; the
analysis layer needs to see where a run degenerates.

The modal norms of a trajectory come from ``modal_sums`` tables and
the coefficients m, M, m' and b are evaluated on whole columns of them.
Those norms, like the solvers' sigma (``spectral.sigma_half``), are sums
of nonnegative terms, which cannot cancel, so they are plain sums. So
is the Gram difference inside P_eps: it is formed as
sigma |A^(1/2)r|^2, with r the part of u' orthogonal to u, instead of
as a difference of near-equal products. On the benchmark plans the
plain row sums move the channels by at most 2.3e-15 relative; the tests
bound the difference at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrate import Trajectory
from .model import Dissipation, Nonlinearity
from .spectral import modal_sums

__all__ = [
    "UNDEFINED",
    "EnergySeries",
    "energy_suite",
    "apriori_margin",
    "apriori_satisfied",
]

UNDEFINED = float("nan")


@dataclass
class EnergySeries:
    """Named scalar channels sampled on a common time grid."""

    times: np.ndarray
    channels: dict

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]

    def __contains__(self, name: str) -> bool:
        return name in self.channels


def energy_suite(
    traj: Trajectory,
    nl: Nonlinearity,
    eps: float,
    ks=(0, 1),
) -> EnergySeries:
    """Evaluate the energy channels at every sample of a trajectory.

    With eps > 0 (second-order run) the full set is produced: the
    Hamiltonian, the stiffness-normalized energies E_eps_k and G_eps,
    the second-energy pair P_eps / Q_eps, the plain norms E_k, the
    parabolic quotient P_par, the coefficient channel c_eps, and the
    squared velocity v. With eps = 0 only the first-order channels
    (E_k, P_par, v) are kept.

    The modal norms come from one ``modal_sums`` table per trajectory.
    P_eps = ((eps / c) |A^(1/2)r|^2 + |Au|^2) / sigma, where
    r = u' - ((A^(1/2)u, A^(1/2)u') / sigma) u is the part of u'
    orthogonal to u, so sigma |A^(1/2)r|^2 is the Gram difference
    sigma |A^(1/2)u'|^2 - (A^(1/2)u, A^(1/2)u')^2 without cancellation,
    and P_eps >= P_par holds exactly.
    """
    spec = traj.spectrum
    parabolic = eps == 0.0
    half_ks = [k / 2.0 for k in ks]
    next_ks = [] if parabolic else [(k + 1.0) / 2.0 for k in ks]
    sigma, one_u, *norm_u = modal_sums(spec, traj.u, [0.5, 1.0, *half_ks, *next_ks]).T
    v, *norm_up = modal_sums(spec, traj.uprime, [0.0] + ([] if parabolic else half_ks)).T

    out = {}
    with np.errstate(all="ignore"):
        c = nl.value(sigma)
        if not parabolic:
            out["H_eps"] = eps * v + nl.integral(sigma)
            for k, up_k, u_k1 in zip(ks, norm_up, norm_u[len(ks) :]):
                out[f"E_eps_{k:g}"] = np.where(c > 0.0, eps * up_k / c + u_k1, UNDEFINED)
            # Guard the composed denominators too: they can underflow to 0.0
            # on deeply decayed samples even while c and sigma stay positive.
            c_sq = c * c
            out["G_eps"] = np.where(c_sq > 0.0, v / c_sq, UNDEFINED)
            cross = np.einsum("ij,ij,j->i", traj.u, traj.uprime, spec.eigenvalues)
            r = traj.uprime - (cross / sigma)[:, None] * traj.u
            norm_r = modal_sums(spec, r, [0.5])[:, 0]
            p_eps = ((eps / c) * norm_r + one_u) / sigma
            out["P_eps"] = np.where((c > 0.0) & (sigma > 0.0), p_eps, UNDEFINED)
            den_q = c_sq * sigma
            out["Q_eps"] = np.where(den_q > 0.0, v / den_q, UNDEFINED)
        for k, u_k in zip(ks, norm_u):
            out[f"E_{k:g}"] = u_k
        out["P_par"] = np.where(sigma > 0.0, one_u / sigma, UNDEFINED)
    out["c_eps"] = c
    out["v"] = v
    return EnergySeries(traj.times.copy(), out)


def apriori_margin(
    traj: Trajectory,
    nl: Nonlinearity,
    dis: Dissipation,
    eps: float,
) -> EnergySeries:
    """Both sides of the a-priori dissipation inequalities per sample.

    lhs_basic   = eps |m'(sigma)| / m(sigma) * |Au| * |u'|
    lhs_basic_plus = eps |Au| |u'| / sigma          (sigma = |A^(1/2)u|^2)
    b           = b(t), the right-hand side of both

    For powers, sigma m'(sigma)/m(sigma) = gamma so lhs_basic is exactly
    gamma times lhs_basic_plus. Vanishing denominators give NaN. A run
    sits inside the tractable regime when lhs_basic <= b at every sample
    past the boundary layer (t >= 10 eps); see ``apriori_satisfied``.
    """
    spec = traj.spectrum
    sigma, au_sq = modal_sums(spec, traj.u, [0.5, 1.0]).T
    norm_au = np.sqrt(au_sq)
    norm_up = np.sqrt(modal_sums(spec, traj.uprime, [0.0])[:, 0])
    with np.errstate(all="ignore"):
        mval = nl.value(sigma)
        plus = np.where(sigma > 0.0, eps * norm_au * norm_up / sigma, UNDEFINED)
        basic = eps * np.abs(nl.derivative(sigma)) / mval * norm_au * norm_up
        basic = np.where(mval > 0.0, basic, UNDEFINED)
    channels = {"lhs_basic": basic, "lhs_basic_plus": plus, "b": dis.b(traj.times)}
    return EnergySeries(traj.times.copy(), channels)


def apriori_satisfied(margins: EnergySeries, eps: float) -> bool:
    """True when lhs_basic <= b(t) at every defined sample with t >= 10 eps."""
    mask = margins.times >= 10.0 * eps
    lhs = margins["lhs_basic"][mask]
    rhs = margins["b"][mask]
    defined = np.isfinite(lhs)
    return bool(np.all(lhs[defined] <= rhs[defined]))
