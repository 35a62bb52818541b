"""The argparse parser that ``torusiso.cli.parse_args`` replaced, kept as a
reference for the parity test: ``build_parser().parse_args(argv)`` is what
every command line meant before.

``build_parser`` below is the replaced function, unchanged.
"""

import argparse
from functools import cache

from torusiso.cli import cmd_bounds, cmd_critical, cmd_profile, cmd_verify


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Parsing leaves the parser as it was: the repeatable ``--curve`` action
    copies its default list before appending to it.
    """
    parser = argparse.ArgumentParser(
        prog="torusiso",
        description=(
            "Isoperimetric profiles, critical volumes and bound bands for "
            "products of flat circle factors with Euclidean space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="evaluate the candidate envelope profile")
    p.add_argument("spec", help="manifold spec JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--v", type=float, help="single volume to evaluate")
    group.add_argument("--grid", help="volume grid lo:hi:count[,log|lin]")
    p.set_defaults(func=cmd_profile)

    c = sub.add_parser("critical", help="emit the critical-volume report")
    c.add_argument("spec", help="manifold spec JSON file")
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.set_defaults(func=cmd_critical)

    b = sub.add_parser("bounds", help="emit the lower/upper bound band")
    b.add_argument("spec", help="manifold spec JSON file")
    b.add_argument("--grid", required=True, help="volume grid lo:hi:count[,log|lin]")
    b.add_argument(
        "--curve",
        action="append",
        default=[],
        help="certified lower-bound curve CSV (repeatable)",
    )
    b.set_defaults(func=cmd_bounds)

    v = sub.add_parser("verify", help="run the oracle suite against the spec")
    v.add_argument("spec", help="manifold spec JSON file")
    v.set_defaults(func=cmd_verify)
    return parser
