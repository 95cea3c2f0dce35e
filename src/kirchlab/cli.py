"""Command-line interface.

There is one subcommand per plan kind, named by the kind's entry in
``harness.PLAN_KINDS``; ``kirchlab --help`` lists them.

Exit codes: 0 all pass, 1 verification failures, 2 solver failure,
3 configuration or usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import PLAN_KINDS, load_config, run_plan
from .spectral import ConfigurationError


def workers(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirchlab",
        description="Spectral laboratory for weakly dissipated Kirchhoff dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, entry in PLAN_KINDS.items():
        p = sub.add_parser(entry.subcommand, help=entry.help)
        p.set_defaults(kind=kind)
        p.add_argument("--config", required=True, help="path to the JSON plan")
        p.add_argument("--out", default="runs", help="parent directory for bundles")
        p.add_argument("--jobs", type=workers, default=None, help="parallel workers")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, but 2
        # means a solver failure here.
        return 3 if exc.code else 0
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        plan = load_config(text, expected_kind=args.kind)
        bundle = run_plan(plan, args.out, jobs=args.jobs)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    for key, status in bundle.manifest["solver_status"].items():
        print(f"{key}: {status}")
    for key, verdict in bundle.manifest["verdicts"].items():
        print(f"{key}: {verdict}")
    print(f"bundle: {bundle.directory}")
    return bundle.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
