"""Fuzz of load_config -> run_plan through the CLI on tiny plans: every
plan either runs to a documented exit code or is rejected with exit 3,
a plan with no corrupted number is never rejected, and no exception
escapes. Kinds, subcommands and the keys each kind accepts come from
``harness.PLAN_KINDS``."""

import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import kirchlab.cli as cli
from kirchlab.harness import PLAN_KINDS

SECTIONS = {"settings", "analysis"}


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
def model_keys(draw):
    """spectrum, m, b and vectors of one length for u0 and u1."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        values = draw(st.lists(unit(0.0, 16.0), min_size=n, max_size=n))
        spectrum = {"kind": "explicit", "values": sorted(values)}
    else:
        spectrum = {"kind": "power", "a": draw(unit(0.0, 2.0)), "q": draw(unit(0.0, 1.5)), "n": n}
    if draw(st.booleans()):
        m = {"kind": "power", "gamma": draw(unit(0.25, 1.5))}
    else:
        m = {"kind": "table", "points": [[0.0, draw(unit(0.0, 2.0))], [1.0, 1.0]]}
    if draw(st.booleans()):
        b = {"kind": "power", "p": draw(unit(0.0, 2.0))}
    else:
        b = {"kind": "constant", "delta": draw(unit(0.01, 2.0))}
    vector = st.lists(unit(), min_size=n, max_size=n)
    return {"spectrum": spectrum, "m": m, "b": b, "u0": draw(vector), "u1": draw(vector)}


@st.composite
def analysis_section(draw, keys):
    values = {
        "ks": st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=3),
        "window": st.sampled_from([[0.0, 1.0], [0.1, 2.0], [0.5, 100.0]]),
        "coercive": st.booleans(),
    }
    return {key: draw(values[key]) for key in sorted(keys) if draw(st.booleans())}


@st.composite
def plans(draw, kind):
    entry = PLAN_KINDS[kind]
    keys = set(entry.required)
    # verify reads eps and u1 together: a second-order run or none.
    extras = entry.optional - SECTIONS
    if extras and draw(st.booleans()):
        keys |= extras
    # Settings keep every run tiny; the default grid runs to t = 100.
    keys |= entry.optional & {"settings"}
    if "analysis" in entry.optional and draw(st.booleans()):
        keys.add("analysis")

    eps_grid = [1.0, 0.3, 0.1, 0.03, 1e-2, 3e-3, 1e-3]
    values = {
        "settings": st.fixed_dictionaries({
            "rel_tol": st.sampled_from([1e-10, 1e-6, 1e-13]),
            "blowup_threshold": st.sampled_from([1e8, 1.0]),
            "grid": st.fixed_dictionaries({
                "kind": st.sampled_from(["log", "linear"]),
                "count": st.integers(2, 21),
                "t_end": st.floats(0.01, 2.0),
            }),
        }),
        "analysis": analysis_section(entry.analysis),
        "eps": st.one_of(st.sampled_from([1e-3, 1e-2, 0.1, 1.0]), unit(1e-3, 1.0)),
        "eps_list": st.lists(st.sampled_from(eps_grid), min_size=2, max_size=5, unique=True).map(
            lambda e: sorted(e, reverse=True)
        ),
        "grid_gammas": st.lists(unit(0.1, 3.0), min_size=1, max_size=3),
        "grid_ps": st.lists(unit(0.0, 2.0), min_size=1, max_size=3),
    }
    model = draw(model_keys())
    cfg = {"kind": kind}
    for key in sorted(keys):
        cfg[key] = model[key] if key in model else draw(values[key])
    # One plan in four gets one number replaced by a value the loader
    # must reject or the run must survive.
    corrupted = draw(st.integers(0, 3)) == 0 and bool(numeric_leaves(cfg))
    if corrupted:
        *parents, key = draw(st.sampled_from(numeric_leaves(cfg)))
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = draw(st.sampled_from([math.nan, math.inf, -1.0, 0.0, 1e-15, 1e6]))
    return cfg, corrupted


# Every example draws one plan of each kind: a drawn kind would leave
# the last kinds of the table nearly unsampled.
@settings(max_examples=10)
@given(st.data())
def test_cli_runs_or_rejects_every_plan(data):
    for kind, entry in PLAN_KINDS.items():
        cfg, corrupted = data.draw(plans(kind), label=kind)
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = Path(tmp) / "plan.json"
            path.write_text(json.dumps(cfg))
            runs = str(Path(tmp) / "runs")
            code = cli.main([entry.subcommand, "--config", str(path), "--out", runs, "--jobs", "1"])
            assert code in (0, 1, 2, 3)
            assert corrupted or code != 3
