"""Shared fixtures for randomized instances, and scalar oracles.

All draws go through an explicit numpy Generator so every test that uses
them is reproducible from its seed.
"""

import math

import numpy as np
from scipy.special import spherical_jn, spherical_yn

import kirchlab as kl
from kirchlab.spectral import as_modal, sigma_half


def random_spectrum(rng, n_max=8, lam_lo=0.2, lam_hi=6.0):
    n = int(rng.integers(1, n_max + 1))
    return kl.Spectrum(np.sort(rng.uniform(lam_lo, lam_hi, n)))


def random_data(rng, n, sigma_min=0.05):
    """Initial positions scaled so the half-order norm is bounded away
    from zero (the mildly degenerate guard)."""
    u0 = rng.uniform(-1.0, 1.0, n)
    if not np.any(u0):
        u0[0] = 0.5
    return u0


def random_parabolic_instance(rng):
    spec = random_spectrum(rng)
    gamma = float(rng.choice([0.5, 1.0, 2.0]))
    p = float(rng.choice([0.0, 0.5, 1.0]))
    u0 = random_data(rng, spec.size)
    return spec, kl.PowerNonlinearity(gamma), kl.PowerLawDissipation(p), u0


def sobolev_norm_sq(spec, x, order):
    """Oracle for |A^order x|^2 = sum_k lambda_k^(2 order) x_k^2, with
    0^0 = 1, so kernel modes count at order 0 and at no positive order.
    Validates ``x`` like the solvers do; at order 0.5 it is
    ``spectral.sigma_half`` bit for bit."""
    xv = as_modal(spec, x, "x")
    if order < 0.0:
        raise ValueError("order must be nonnegative")
    # IEEE pow gives 0.0**0.0 == 1.0, which is exactly the convention needed.
    weights = spec.eigenvalues ** (2.0 * order)
    return float(np.add.reduce(weights * (xv * xv)))


def hamiltonian(spec, nl, eps, u, uprime):
    """Oracle for eps |u'|^2 + M(|A^(1/2)u|^2), M the primitive of m.

    Nonincreasing along second-order solutions; its decay rate is
    exactly -2 b(t) |u'(t)|^2. The velocity term is a compensated sum.
    """
    uv = as_modal(spec, u, "u")
    upv = as_modal(spec, uprime, "uprime")
    return eps * math.fsum(upv * upv) + nl.integral(sigma_half(spec.eigenvalues, uv))


def stiffness_matrix(nl, lam, u, scale):
    """Oracle for the dense stiffness term K = diag(m lambda / scale) +
    kappa w w^T, the linearisation of m(|A^(1/2)u|^2) A u / scale at u,
    with w = lambda u and kappa = 2 m'(sigma) / scale (0 where m' is
    infinite). sigma is a compensated sum."""
    lam = np.asarray(lam, dtype=float)
    u = np.asarray(u, dtype=float)
    sigma = math.fsum(lam * u * u)
    dm = nl.derivative(sigma)
    kappa = 2.0 * dm / scale if math.isfinite(dm) else 0.0
    w = lam * u
    return np.diag(nl.value(sigma) * lam / scale) + kappa * np.outer(w, w)


def bessel_p1(lam, u0, u1, j, t):
    """Closed form (u, u') of eps u'' + (1+t)^-1 u' + lambda u = 0 at
    eps = 1/(2j), the second-order problem at p = 1 with m == 1.

    Each mode is u_k = s^(1-j) [A j_(j-1)(w_k s) + B y_(j-1)(w_k s)] with
    s = 1+t and w_k = sqrt(2 j lambda_k), spherical Bessel functions of
    the first and second kind; A and B match u0 and u1 at s = 1. Needs
    every lambda_k > 0.
    """
    lam, u0, u1 = (np.asarray(x, dtype=float) for x in (lam, u0, u1))
    w = np.sqrt(2.0 * j * lam)
    n = j - 1

    def basis(s):
        # The two basis solutions and their t-derivatives, one row per time.
        x = np.multiply.outer(s, w)
        jn, yn = spherical_jn(n, x), spherical_yn(n, x)
        djn, dyn = spherical_jn(n, x, derivative=True), spherical_yn(n, x, derivative=True)
        pw = (s ** (1.0 - j))[:, None]
        dpw = ((1.0 - j) * s ** -float(j))[:, None]
        return pw * jn, pw * yn, dpw * jn + pw * w * djn, dpw * yn + pw * w * dyn

    fj, fy, dfj, dfy = (f[0] for f in basis(np.ones(1)))
    det = fj * dfy - fy * dfj
    a = (u0 * dfy - u1 * fy) / det
    b = (fj * u1 - dfj * u0) / det
    fj, fy, dfj, dfy = basis(1.0 + np.asarray(t, dtype=float))
    return a * fj + b * fy, a * dfj + b * dfy
