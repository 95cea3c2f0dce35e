"""Seeded plan generators for the kirchlab benchmark workloads.

Each workload is a fixed plan shape; only the initial data u0/u1 are
drawn from the seed. The draws are normalized (fixed half-order norm
|A^(1/2)u0|^2 and fixed |u1|) so the launch step cap, and with it the
solver work, is the same for every seed: seeds vary the data a run
sees, not the amount of work it does.
"""

from __future__ import annotations

import json
import math

import numpy as np

SIZES = ("full", "tiny")

# Workload name -> (plan shape, reason it was chosen). "<shape>; data
# from --seed; <reason>" is the workload's "why" in BENCHMARK.json.
WORKLOADS = {
    "hyperbolic-decay": (
        "2 simulate plans: N=8, lambda=k^2, m=s, b=(1+t)^-0.5, eps 1e-1 and 1e-2, "
        "t_end 100, 801 log samples",
        "decay use case; DP5 pinned by the launch step cap",
    ),
    "eps-sweep": (
        "1 sweep_eps plan: lambda 1,4, m=1, b=(1+t)^-0.5, eps 1e-2..1e-4 (5), "
        "t_end 10, 401 log samples",
        "small-eps use case; stability-bound DP5, corrector, 16 small CSV files",
    ),
    "wide-spectrum": (
        "limit + parabolic verify plans: N=512, lambda=k, m=s, b=(1+t)^-0.5, "
        "t_end 1e4, 801 log samples",
        "large-N exact instance; energy loops and CSV writing dominate",
    ),
}

def _draw(rng, lam: np.ndarray, envelope: float) -> np.ndarray:
    """Random signs and amplitudes (1 +- 0.5) * k^(-envelope)."""
    k = np.arange(1, lam.size + 1, dtype=float)
    amp = (1.0 + 0.5 * rng.uniform(-1.0, 1.0, lam.size)) * k**-envelope
    return np.where(rng.random(lam.size) < 0.5, -amp, amp)


def _scaled(v: np.ndarray, weights: np.ndarray, target: float) -> list:
    """v scaled so that sum(weights * v^2) == target."""
    return [float(x) for x in v * math.sqrt(target / float(weights @ (v * v)))]


def _grid(count: int, t_end: float) -> dict:
    return {"settings": {"grid": {"kind": "log", "count": count, "t_end": t_end}}}


def _hyperbolic_decay(rng, tiny: bool) -> list:
    n = 8
    lam = np.arange(1, n + 1, dtype=float) ** 2
    u0 = _scaled(_draw(rng, lam, 1.0), lam, 1.0)
    u1 = _scaled(_draw(rng, lam, 1.0), np.ones(n), 0.25)
    base = {
        "kind": "simulate",
        "spectrum": {"kind": "power", "a": 1.0, "q": 2.0, "n": n},
        "m": {"kind": "power", "gamma": 1.0},
        "b": {"kind": "power", "p": 0.5},
        "u0": u0,
        "u1": u1,
        **(_grid(41, 2.0) if tiny else _grid(801, 100.0)),
    }
    return [{**base, "eps": eps} for eps in (1e-1, 1e-2)]


def _eps_sweep(rng, tiny: bool) -> list:
    lam = np.array([1.0, 4.0])
    eps_list = [1e-2, 3e-3, 1e-3] if tiny else [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
    return [
        {
            "kind": "sweep_eps",
            "spectrum": {"kind": "explicit", "values": [1.0, 4.0]},
            "m": {"kind": "table", "points": [[0.0, 1.0]], "mu": 1.0},
            "b": {"kind": "power", "p": 0.5},
            "eps_list": eps_list,
            "u0": _scaled(_draw(rng, lam, 1.0), lam, 0.18),
            "u1": _scaled(_draw(rng, lam, 1.0), np.ones(2), 0.01),
            **(_grid(41, 1.0) if tiny else _grid(401, 10.0)),
        }
    ]


def _wide_spectrum(rng, tiny: bool) -> list:
    n = 32 if tiny else 512
    lam = np.arange(1, n + 1, dtype=float)
    # Envelope k^-2 keeps the lowest mode dominant on every draw, so the
    # fitted decay exponents sit inside the verify tolerance for any seed.
    base = {
        "spectrum": {"kind": "power", "a": 1.0, "q": 1.0, "n": n},
        "m": {"kind": "power", "gamma": 1.0},
        "b": {"kind": "power", "p": 0.5},
        "u0": _scaled(_draw(rng, lam, 2.0), lam, 1.0),
        **(_grid(81, 1e4) if tiny else _grid(801, 1e4)),
    }
    return [{"kind": "limit", **base}, {"kind": "verify", **base}]


_GENERATORS = {
    "hyperbolic-decay": _hyperbolic_decay,
    "eps-sweep": _eps_sweep,
    "wide-spectrum": _wide_spectrum,
}


def make_plans(workload: str, seed: int, size: str = "full") -> list:
    """The workload's plans as JSON texts, drawn from ``seed``."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return [json.dumps(p) for p in _GENERATORS[workload](rng, size == "tiny")]


def why(workload: str) -> str:
    shape, reason = WORKLOADS[workload]
    return f"{shape}; data from --seed; {reason}"
