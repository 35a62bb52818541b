"""Help and usage text of the command line, drawn from ``cli._COMMANDS``.

Only ``-h`` and usage errors need it. It is a module of its own so that a
command line that parses does not compile it: a cold command compiles each
module it imports when no bytecode is cached.
"""

from .cli import _COMMANDS

_DESCRIPTION = (
    "Isoperimetric profiles, critical volumes and bound bands for\n"
    "products of flat circle factors with Euclidean space."
)


def usage(command) -> str:
    """The usage line of the tool (command None) or of one command."""
    if command is None:
        return "usage: torusiso [-h] {" + ",".join(_COMMANDS) + "} ...\n"
    _, _, one_of, options = _COMMANDS[command]
    forms = {name: f"{name} {_metavar(name, kind)}" for name, (kind, _) in options.items()}
    words = [command, "[-h]"]
    if one_of:
        group = " | ".join(forms.pop(name) for name in one_of)
        words.append(f"({group})" if len(one_of) > 1 else group)
    words += [f"[{form}]" for form in forms.values()]
    return f"usage: torusiso {' '.join(words)} spec\n"


def help_text(command) -> str:
    """The usage line, a summary and one line per argument."""
    if command is None:
        summary = _DESCRIPTION
        rows = [(name, row[0]) for name, row in _COMMANDS.items()]
    else:
        summary, _, _, options = _COMMANDS[command]
        rows = [("spec", "manifold spec JSON file")]
        rows += [(f"{name} {_metavar(name, kind)}", text) for name, (kind, text) in options.items()]
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows)
    lines = "".join(f"  {left:<{width}}  {text}\n" for left, text in rows)
    return f"{usage(command)}\n{summary}\n\n{lines}"


def _metavar(name: str, kind) -> str:
    return "{" + ",".join(kind) + "}" if type(kind) is tuple else name[2:].upper()
