"""The argparse parser of the command line, built from ``cli._COMMANDS``.

It reads every line that ``cli.parse_args`` does not read itself: help,
usage errors and every spelling other than ``command spec --option value
...``. It is a module of its own so that a usual command line loads no
argparse and does not compile this module: a cold command compiles each
module it imports when no bytecode is cached.
"""

import argparse

from .cli import _COMMANDS

_DESCRIPTION = (
    "Isoperimetric profiles, critical volumes and bound bands for\n"
    "products of flat circle factors with Euclidean space."
)


def parse(tokens) -> dict:
    """The arguments argparse reads from a command line, by name.

    argparse reads ``--opt=--`` as an empty list; that is refused here as an
    option without its value, through the command's own parser. It is the
    one line this parser reads otherwise than argparse.
    """
    parser = argparse.ArgumentParser(prog="torusiso", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for command, (summary, run, one_of, options) in _COMMANDS.items():
        p = parsers[command] = sub.add_parser(command, help=summary, description=summary)
        p.add_argument("spec", help="manifold spec JSON file")
        # One option of one_of is required by itself, two or more as a group.
        group = p.add_mutually_exclusive_group(required=True) if len(one_of) > 1 else p
        for name, (kind, text) in options.items():
            if kind is float:
                read = {"type": float}
            elif type(kind) is tuple:
                read = {"choices": kind, "default": kind[0]}
            elif kind is list:
                read = {"action": "append", "default": []}
            else:
                read = {}
            into = group if name in one_of else p
            into.add_argument(name, required=one_of == (name,), help=text, **read)
        p.set_defaults(func=run)
    args = vars(parser.parse_args(tokens))
    for name, (kind, _) in _COMMANDS[args["command"]][3].items():
        values = args[name[2:]] if kind is list else [args[name[2:]]]
        if [] in values:
            parsers[args["command"]].error(f"argument {name}: expected one argument")
    return args
