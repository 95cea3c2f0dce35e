"""Fuzz of load_config -> run_plan through the CLI on tiny plans: every
plan either runs to a documented exit code or is rejected with exit 3,
and no exception escapes."""

import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import kirchlab.cli as cli

SUBCOMMAND = {
    "simulate": "simulate",
    "limit": "limit",
    "corrector": "corrector",
    "sweep_eps": "sweep",
    "regime_grid": "grid",
    "verify": "verify",
}

# Magnitudes are bounded so that lambda_max m / eps, which sets the DP5
# step count of an underdamped run, stays small.
def unit(lo=-1.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False)


def numeric_leaves(node, path=()):
    """Paths of every number in a plan, for one-field corruptions."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, float) else []
    return [leaf for key, value in items for leaf in numeric_leaves(value, path + (key,))]


@st.composite
def plans(draw):
    kind = draw(st.sampled_from(sorted(SUBCOMMAND)))
    cfg = {
        "kind": kind,
        "jobs": 1,
        "settings": {
            "rel_tol": draw(st.sampled_from([1e-10, 1e-6, 1e-13])),
            "blowup_threshold": draw(st.sampled_from([1e8, 1.0])),
            "grid": {
                "kind": draw(st.sampled_from(["log", "linear"])),
                "count": draw(st.integers(2, 21)),
                "t_end": draw(st.floats(0.01, 2.0)),
            },
        },
    }
    if kind == "regime_grid":
        cfg["grid_gammas"] = draw(st.lists(unit(0.1, 3.0), min_size=1, max_size=3))
        cfg["grid_ps"] = draw(st.lists(unit(0.0, 2.0), min_size=1, max_size=3))
        cfg["coercive"] = draw(st.booleans())
    else:
        n = draw(st.integers(1, 4))
        if draw(st.booleans()):
            values = draw(st.lists(unit(0.0, 16.0), min_size=n, max_size=n))
            cfg["spectrum"] = {"kind": "explicit", "values": sorted(values)}
        else:
            cfg["spectrum"] = {
                "kind": "power", "a": draw(unit(0.0, 2.0)), "q": draw(unit(0.0, 1.5)), "n": n,
            }
        if draw(st.booleans()):
            cfg["m"] = {"kind": "power", "gamma": draw(unit(0.25, 1.5))}
        else:
            cfg["m"] = {"kind": "table", "points": [[0.0, draw(unit(0.0, 2.0))], [1.0, 1.0]]}
        if draw(st.booleans()):
            cfg["b"] = {"kind": "power", "p": draw(unit(0.0, 2.0))}
        else:
            cfg["b"] = {"kind": "constant", "delta": draw(unit(0.01, 2.0))}
        cfg["u0"] = draw(st.lists(unit(), min_size=n, max_size=n))
        if kind != "limit":
            cfg["u1"] = draw(st.lists(unit(), min_size=n, max_size=n))
        eps = st.one_of(st.sampled_from([1e-3, 1e-2, 0.1, 1.0]), unit(1e-3, 1.0))
        if kind == "sweep_eps":
            grid = [1.0, 0.3, 0.1, 0.03, 1e-2, 3e-3, 1e-3]
            cfg["eps_list"] = sorted(
                draw(st.lists(st.sampled_from(grid), min_size=2, max_size=5, unique=True)),
                reverse=True,
            )
        elif kind in ("simulate", "corrector") or kind == "verify" and draw(st.booleans()):
            cfg["eps"] = draw(eps)
    # One plan in four gets one number replaced by a value the loader
    # must reject or the run must survive.
    if draw(st.integers(0, 3)) == 0:
        *parents, key = draw(st.sampled_from(numeric_leaves(cfg)))
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = draw(st.sampled_from([math.nan, math.inf, -1.0, 0.0, 1e-15, 1e6]))
    return cfg


@settings(max_examples=60)
@given(plans())
def test_cli_runs_or_rejects_every_plan(cfg):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = Path(tmp) / "plan.json"
        path.write_text(json.dumps(cfg))
        argv = [SUBCOMMAND[cfg["kind"]], "--config", str(path), "--out", str(Path(tmp) / "runs")]
        assert cli.main(argv) in (0, 1, 2, 3)
