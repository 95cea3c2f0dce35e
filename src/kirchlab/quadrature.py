"""Integrals of the corrector's decay factor exp(-B(s)/eps), B the
primitive of b, over the intervals of a sample grid: one adaptive
Gauss-Legendre pass over every interval at once, in numpy alone.
"""

from __future__ import annotations

import numpy as np

from .model import Dissipation

__all__ = ["decay_integrals"]

# Gauss-Legendre rules of 20 and 10 nodes on [-1, 1] (Abramowitz-Stegun,
# 25.4.29), literal for literal as numpy's ``leggauss`` gives them, so
# numpy.polynomial is not imported: each row holds the positive nodes,
# then their weights; the rules are symmetric about 0.
_GL20_HALF = np.array([
    [0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
     0.5108670019508271, 0.636053680726515, 0.7463319064601508,
     0.8391169718222188, 0.912234428251326, 0.9639719272779138,
     0.993128599185095],
    [0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
     0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
     0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
     0.017614007139150893]])
_GL10_HALF = np.array([
    [0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
     0.8650633666889845, 0.9739065285171717],
    [0.2955242247147528, 0.2692667193099965, 0.219086362515982,
     0.1494513491505804, 0.06667134430868814]])
# Each rule as (nodes, weights), nodes ascending, as leggauss(n) returns it.
_GL20, _GL10 = (
    (np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w]))
    for x, w in (_GL20_HALF, _GL10_HALF)
)
_GL_NODES = np.concatenate([_GL20[0], _GL10[0]])
_QUAD_ROUNDS = 200  # quad's limit of subintervals


def decay_integrals(dis: Dissipation, eps: float, ts: np.ndarray) -> np.ndarray:
    """Integral of f = exp(-B(s)/eps) over each interval of the
    nondecreasing grid ``ts``, by one adaptive Gauss-Legendre pass.

    The grid is split at the sample times and at eps 2^k, k = -4..10,
    where f falls from 1 to underflow: without these the 20- and
    10-node rules both see f = 0 on a first interval that is long
    against eps, and agree on 0. Both rules are applied to every piece
    in one array call; a piece is accepted where they differ by at most
    max(1e-15, 1e-13 |Q20|), and the others are bisected for the next
    round. (f > 0, so a rounding floor of 50 ulp times the rule's sum of
    w |f| would stay below 1e-13 |Q20|.) After ``_QUAD_ROUNDS`` rounds
    the pieces still open take Q20, so the work stays bounded. Accepted
    pieces are summed into their sample interval.
    """
    breaks = [eps * 2.0**k for k in range(-4, 11)]
    edges = np.unique(np.concatenate([ts, [x for x in breaks if 0.0 < x < ts[-1]]]))
    a, b = edges[:-1], edges[1:]
    interval = np.searchsorted(ts, a, side="right") - 1
    owners, values = [], []
    for round_ in range(1, _QUAD_ROUNDS + 1):
        h = 0.5 * (b - a)
        mid = a + h
        f = np.exp(-dis.primitive(mid[:, None] + h[:, None] * _GL_NODES) / eps)
        q20 = h * (f[:, :20] @ _GL20[1])
        q10 = h * (f[:, 20:] @ _GL10[1])
        tol = np.maximum(1e-15, 1e-13 * np.abs(q20))
        done = (np.abs(q20 - q10) <= tol) | (round_ == _QUAD_ROUNDS)
        owners.append(interval[done])
        values.append(q20[done])
        if done.all():
            break
        open_ = ~done
        a, mid, b, interval = a[open_], mid[open_], b[open_], interval[open_]
        a, b, interval = np.concatenate([a, mid]), np.concatenate([mid, b]), np.tile(interval, 2)
    return np.bincount(np.concatenate(owners), np.concatenate(values), minlength=ts.size - 1)
