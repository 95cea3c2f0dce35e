"""Host-speed probe: a fixed piece of benchmark-owned work, timed between
stretches of a plan run so that end-to-end times can be given relative
to it.

On a shared host the same code can run at half speed, in stretches of a
fraction of a second to tens of seconds, while neighbours are busy; the
probe slows down with it. The probe never calls kirchlab, so a change to
kirchlab cannot change the probe's time. Its parts mimic kirchlab's hot
paths: an explicit Runge-Kutta loop on a small state vector (the
solvers), float-to-text row formatting (the CSV writers) and per-sample
vector reductions over a wide spectrum (the energy loops), in
comparable shares of its time.

``Meter`` cuts a plan run into stretches at probes: at every plan boundary
and, once at least ``MIN_GAP`` seconds of plan work have passed since the
last probe, before the next solver call or CSV write that ``harness`` makes
through a module attribute. Probe time is left out of the plan's time.
"""

from __future__ import annotations

import io
import time
from contextlib import contextmanager

import numpy as np

_LAM = np.arange(1, 9, dtype=float) ** 2
_ROWS = np.random.default_rng(0).standard_normal((2000, 17)).tolist()
_WIDE = np.arange(1, 513, dtype=float)


def _rk_loop(steps: int = 1200) -> float:
    """Classical RK4 (plus two spare stages, as in DP5) on a damped
    Kirchhoff-type system of 8 modes."""
    y = np.concatenate([1.0 / np.arange(1, 9), np.zeros(8)])

    def f(t, y):
        u, v = y[:8], y[8:]
        s = float(_LAM @ (u * u))
        return np.concatenate([v, (-((1.0 + t) ** -0.5) * v - s / (1.0 + s) * _LAM * u) / 0.1])

    h, t = 1e-3, 0.0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        k5 = f(t + h, y + h * k4)
        f(t + h, y + h * k5)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return float(y[0])


def _csv_loop() -> int:
    fh = io.StringIO()
    for row in _ROWS:
        fh.write(",".join(repr(x) for x in row) + "\n")
    return fh.tell()


def _wide_loop(samples: int = 1800) -> float:
    u = 1.0 / _WIDE
    acc = 0.0
    for i in range(samples):
        w = u * np.exp(-_WIDE * (i * 1e-3))
        acc += float(_WIDE @ (w * w)) + float(np.sum(_WIDE * _WIDE * w * w))
    return acc


def seconds() -> float:
    """Wall time of one probe (0.1-0.2 s on a 2-vCPU Xeon guest)."""
    start = time.perf_counter()
    _rk_loop()
    _csv_loop()
    _wide_loop()
    return time.perf_counter() - start


# Least plan work, in seconds, between two probes inside a plan run.
MIN_GAP = 0.5

# (module, attribute) of the calls before which a probe may run.
HOOKS = (
    ("integrate", "solve_hyperbolic"),
    ("integrate", "solve_parabolic_reparam"),
    ("integrate", "solve_parabolic_direct"),
    ("integrate", "corrector"),
    ("harness", "_write_rows"),
)


class Meter:
    """Plan time, raw and relative to the probe, summed over stretches.

    A stretch's wall and CPU time are divided by the mean of the two probes
    around it; ``wall_rel`` and ``cpu_rel`` are the sums of those ratios.
    """

    def __init__(self):
        self.wall = self.cpu = self.wall_rel = self.cpu_rel = 0.0
        self.probes = []
        self._probe()

    def _probe(self) -> None:
        self.probes.append(seconds())
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def mark(self, force: bool = False) -> None:
        """End the current stretch with a probe, if it is at least MIN_GAP
        long or ``force`` is set."""
        wall = time.perf_counter() - self._wall0
        if wall < MIN_GAP and not force:
            return
        cpu = time.process_time() - self._cpu0
        before = self.probes[-1]
        self._probe()
        ref = (before + self.probes[-1]) / 2
        self.wall += wall
        self.cpu += cpu
        self.wall_rel += wall / ref
        self.cpu_rel += cpu / ref


@contextmanager
def hooked(meter: Meter, kl):
    """Let ``meter`` probe before every HOOKS call; restore them on exit.

    A hook that kirchlab no longer has is skipped: probes get sparser, the
    measured plan time stays the same.
    """
    swaps = []
    for module, attr in HOOKS:
        owner = getattr(kl, module)
        fn = getattr(owner, attr, None)
        if fn is not None:
            swaps.append((owner, attr, fn))
    try:
        for owner, attr, fn in swaps:
            setattr(owner, attr, _marking(meter, fn))
        yield meter
    finally:
        for owner, attr, fn in swaps:
            setattr(owner, attr, fn)


def _marking(meter: Meter, fn):
    def wrapper(*args, **kwargs):
        meter.mark()
        return fn(*args, **kwargs)

    return wrapper
