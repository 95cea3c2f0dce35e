"""Command-line interface.

Subcommands map one-to-one onto plan kinds:

    simulate   second-order run with energies and floor diagnostics
    limit      both first-order solvers plus the equivalence report
    corrector  boundary-layer corrector samples
    sweep      eps sweep with error series and order fits
    grid       regime classification over a (gamma, p) lattice
    verify     decay-rate verification against predicted bounds

Exit codes: 0 all pass, 1 verification failures, 2 solver failure,
3 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import load_config, run_plan
from .spectral import ConfigurationError

_SUBCOMMAND_KIND = {
    "simulate": "simulate",
    "limit": "limit",
    "corrector": "corrector",
    "sweep": "sweep_eps",
    "grid": "regime_grid",
    "verify": "verify",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirchlab",
        description="Spectral laboratory for weakly dissipated Kirchhoff dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _SUBCOMMAND_KIND.items():
        p = sub.add_parser(name, help=f"run a {kind} plan")
        p.add_argument("--config", required=True, help="path to the JSON plan")
        p.add_argument("--out", default="runs", help="parent directory for bundles")
        p.add_argument("--jobs", type=int, default=None, help="parallel workers")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    kind = _SUBCOMMAND_KIND[args.command]
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        plan = load_config(text, expected_kind=kind)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    bundle = run_plan(plan, args.out, jobs=args.jobs)
    for key, status in bundle.manifest["solver_status"].items():
        print(f"{key}: {status}")
    for key, verdict in bundle.manifest["verdicts"].items():
        print(f"{key}: {verdict}")
    print(f"bundle: {bundle.directory}")
    return bundle.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
