"""Line ledger: the function-body lines of src/ that no tier-1 test runs.

The tier-1 suite runs in this process under a sys.settrace hook that
records every line the package's functions execute. A function-body line is
one that the function's compiled code maps an instruction to, other than
its ``def`` line. Each such line that no test ran is printed, except
``continue`` lines, which compile to a jump the trace does not report.
Module-level lines are not function-body lines: that includes the only
lines a child process alone runs, ``__main__.py`` and the
``sys.exit(main())`` at the foot of ``cli.py``.

    python tests/linecov.py

Standard library only, besides pytest itself. Exits 0 when the suite
passes and every function-body line ran, 1 otherwise.
"""

from __future__ import annotations

import ast
import sys
import time
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "torusiso"


def _function_lines(path: Path) -> set[int]:
    """Lines an instruction of a function in ``path`` maps to, def lines and continues left out."""
    source = path.read_text(encoding="utf-8")
    pending = list(compile(source, str(path), "exec").co_consts)
    lines: set[int] = set()
    while pending:
        code = pending.pop()
        if not isinstance(code, CodeType):
            continue
        pending.extend(code.co_consts)
        if code.co_name == "<module>" or not code.co_flags & 0x1:  # CO_OPTIMIZED: a function
            continue
        lines.update(line for *_, line in code.co_lines() if line is not None)
        lines.discard(code.co_firstlineno)
    tree = ast.parse(source)
    return lines - {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Continue)}


def main() -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    start = time.monotonic()
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"the tier-1 suite failed under the trace (pytest exit {status})")
        return 1
    unrun = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(_function_lines(path) - ran[name]):
            print(f"{path.relative_to(ROOT).as_posix()}:{line}: {text[line - 1].strip()}")
            unrun += 1
    print(f"{unrun} function-body lines of src/ unrun, {time.monotonic() - start:.0f} s")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
