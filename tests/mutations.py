"""Mutation gate: each mutation below must make its listed test files fail.

A mutation is an exact substitution that must match its file once. For each
one, src/, tests/ and pyproject.toml are copied to a temporary directory,
the substitution is made in the copy, and the listed test files run there
with PYTHONPATH set to the copy's src/ (so conftest.SRC points at the copy
as well). A mutation whose tests still pass has survived. The listed files
first run once on an unmutated copy, which must pass.

    python tests/mutations.py

Standard library only, besides pytest itself. Exits 0 when every mutation
is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (what the mutation breaks, file, old text, new text, test files that must fail).
MUTATIONS = (
    (
        "positive_finite accepts zero",
        "src/torusiso/errors.py",
        "not (value > 0.0)",
        "not (value >= 0.0)",
        ("tests/test_refusals.py",),
    ),
    (
        "_exact_cut puts a row on v_lo inside the band",
        "src/torusiso/bounds.py",
        "return bisect_right(grid, v_lo)",
        "return bisect_left(grid, v_lo)",
        ("tests/test_cli.py",),
    ),
    (
        "_winning_segment gives a tie to the later curve",
        "src/torusiso/profiles.py",
        "if best is None or value < area:",
        "if best is None or value <= area:",
        ("tests/test_grid_path.py",),
    ),
    (
        "_table fills every row with the first block's format",
        "src/torusiso/cli.py",
        'template = template.replace(" ", tail, len(columns[0]))',
        'template = template.replace(" ", tail)',
        ("tests/test_cli.py",),
    ),
    (
        "_usual reads a value that starts with '-'",
        "src/torusiso/cli.py",
        'if name not in options or value[:1] == "-":',
        "if name not in options:",
        ("tests/test_cli.py",),
    ),
    (
        "positive_finite accepts an infinite value",
        "src/torusiso/errors.py",
        "if not (value > 0.0) or not math.isfinite(value):",
        "if not (value > 0.0):",
        ("tests/test_cli.py",),
    ),
    (
        "main gives a ConsistencyError the guard exit code",
        "src/torusiso/cli.py",
        "return EXIT_SOLVER",
        "return EXIT_GUARD",
        ("tests/test_cli.py",),
    ),
    (
        "_grid accepts one volume past the grid count cap",
        "src/torusiso/cli.py",
        "_MAX_GRID_COUNT = 10**6",
        "_MAX_GRID_COUNT = 10**6 + 1",
        ("tests/test_cli.py",),
    ),
    (
        "parse_grid hands out the cached volumes themselves",
        "src/torusiso/cli.py",
        "return list(_grid(text)[0])",
        "return _grid(text)[0]",
        ("tests/test_cli.py",),
    ),
    (
        "CriticalReport keeps a writable dict of its constants",
        "src/torusiso/criticals.py",
        "constants = MappingProxyType(dict(constants))",
        "constants = dict(constants)",
        ("tests/test_criticals.py",),
    ),
    (
        "_ordered refuses thresholds that meet in double precision",
        "src/torusiso/criticals.py",
        "if lo <= hi:",
        "if lo < hi:",
        ("tests/test_criticals.py",),
    ),
    (
        "a sub-report's refusal drops its key, radii and n",
        "src/torusiso/criticals.py",
        'f"{exc}; in sub-report {key} of radii {spec.radii!r}, n = {n}"',
        'f"{exc}"',
        ("tests/test_criticals.py",),
    ),
    (
        "read_curve caches curves by path, not by content",
        "src/torusiso/bounds.py",
        "def read_curve(path) -> TabulatedCurve:",
        "@_profile_cache\ndef read_curve(path) -> TabulatedCurve:",
        ("tests/test_bounds.py",),
    ),
    (
        "_parse_curve blames every bad sample on the first data line",
        "src/torusiso/bounds.py",
        'line_no = line_nos[int(where.removeprefix("point "))]',
        "line_no = line_nos[0]",
        ("tests/test_bounds.py",),
    ),
    (
        "solve_piecewise_gap drops its probe at twice the root",
        "src/torusiso/roots.py",
        "if upper(probe) - lower(probe) <= target:",
        "if False:",
        ("tests/test_roots.py",),
    ),
    (
        "_root_left_of skips a window whose gap falls short of the target",
        "src/torusiso/roots.py",
        "_SKIP_MARGIN = 16 * 2.0**-53",
        "_SKIP_MARGIN = -16 * 2.0**-53",
        ("tests/test_roots.py",),
    ),
    (
        "_tangents takes slopes that tie within rounding as decided",
        "src/torusiso/bounds.py",
        "_SCAN_MARGIN = 20 * 2.0**-53",
        "_SCAN_MARGIN = 0.0",
        ("tests/test_bounds.py",),
    ),
    (
        "an envelope hands the rows next to a cut to the interval's winner",
        "src/torusiso/profiles.py",
        "_CUT_MARGIN = 1e-9",
        "_CUT_MARGIN = 0.0",
        ("tests/test_grid_path.py",),
    ),
    (
        "_gap drops the regime of every circle-slab crossing",
        "src/torusiso/criticals.py",
        "regime = None if named_by is None else named_by.segment_at(found.root).regime",
        "regime = None",
        ("tests/test_criticals.py",),
    ),
    (
        "_gap_target accepts a NaN target",
        "src/torusiso/roots.py",
        "if target < 0.0 or not math.isfinite(target):",
        "if target < 0.0 or math.isinf(target):",
        ("tests/test_refusals.py",),
    ),
    (
        "_ratio_power lets an overflowing power escape",
        "src/torusiso/profiles.py",
        "except (OverflowError, ZeroDivisionError):",
        "except ZeroDivisionError:",
        ("tests/test_roots.py",),
    ),
    (
        "power_gap_stationary_point returns a stationary point of inf",
        "src/torusiso/roots.py",
        "if not x_min < math.inf:",
        "if False:",
        ("tests/test_roots.py",),
    ),
    (
        "solve_piecewise_gap probes at twice a root past half the largest double",
        "src/torusiso/roots.py",
        "if probe == math.inf:",
        "if False:",
        ("tests/test_criticals.py",),
    ),
    (
        "_make builds a record past __new__",
        "src/torusiso/records.py",
        "return cls(*iterable)",
        "return tuple.__new__(cls, iterable)",
        ("tests/test_records.py",),
    ),
    (
        "_ulp_root iterates on a bracket without a sign change",
        "src/torusiso/roots.py",
        "if not r_lo < 0.0 <= r_hi:",
        "if False:",
        ("tests/test_roots.py",),
    ),
    (
        "_ulp_root blames the lower end of a bracket whose upper end left",
        "src/torusiso/roots.py",
        "if not hi > _MIN_NORMAL else",
        "if hi > _MIN_NORMAL else",
        ("tests/test_roots.py",),
    ),
    (
        "solve_power_gap's refusals drop the gap's target",
        "src/torusiso/roots.py",
        'return f"{c1!r} x^{p1!r} - {c2!r} x^{p2!r} = {target!r}"',
        'return f"{c1!r} x^{p1!r} - {c2!r} x^{p2!r}"',
        ("tests/test_roots.py",),
    ),
    (
        "_window_root solves an equal-exponent gap that has no root",
        "src/torusiso/roots.py",
        "if target == 0.0 or sa.coeff <= sb.coeff:",
        "if False:",
        ("tests/test_roots.py",),
    ),
    (
        "_window_root keeps a closed-form root outside its window",
        "src/torusiso/roots.py",
        "if not lo <= root < hi:",
        "if False:",
        ("tests/test_roots.py",),
    ),
    (
        "dir(torusiso) leaves out the lazy exports",
        "src/torusiso/__init__.py",
        "return sorted([*globals(), *_EXPORTS])",
        "return sorted(globals())",
        ("tests/test_cli.py",),
    ),
    (
        "band folds tangent-right before tangent-left",
        "src/torusiso/bounds.py",
        'for anchor, side in ((lo_anchor, "left"), (hi_anchor, "right")):',
        'for anchor, side in ((hi_anchor, "right"), (lo_anchor, "left")):',
        ("tests/test_grid_path.py",),
    ),
    (
        "_chord clamps with < for <=",
        "src/torusiso/bounds.py",
        "<= top * touch else chord",
        "< top * touch else chord",
        ("tests/test_grid_path.py",),
    ),
    (
        "band raises the last offence, not the first",
        "src/torusiso/bounds.py",
        "j, value, label = min(offences, key=itemgetter(0))",
        "j, value, label = offences[-1]",
        ("tests/test_grid_path.py",),
    ),
    (
        "_columns takes a block's regime from the previous block",
        "src/torusiso/profiles.py",
        "regimes += [seg.regime] * (stop - first)",
        "regimes += [regimes[-1] if regimes else seg.regime] * (stop - first)",
        ("tests/test_grid_path.py",),
    ),
    (
        "_t2_report drops its v_star <= v0_1 < v_dstar chain check",
        "src/torusiso/criticals.py",
        "if not v_star <= v0_1.value < v_dstar:",
        "if False:",
        ("tests/test_criticals.py",),
    ),
)


def _copy_tree(destination: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, destination / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", destination / "pyproject.toml")


def _tests_pass(tree: Path, test_files) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_files]
    result = subprocess.run(
        command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    return result.returncode == 0


def main() -> int:
    problems = []
    for what, path, old, new, _ in MUTATIONS:
        found = (ROOT / path).read_text(encoding="utf-8").count(old)
        if found != 1:
            problems.append(f"{what}: {old!r} occurs {found} times in {path}, not once")
    if problems:
        print("\n".join(problems))
        return 1
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="torusiso-mutations-") as scratch:
        base = Path(scratch) / "unmutated"
        _copy_tree(base)
        files = sorted({name for *_, test_files in MUTATIONS for name in test_files})
        if not _tests_pass(base, files):
            print(f"the unmutated tree fails {' '.join(files)}; no mutation was run")
            return 1
        survivors = 0
        for index, (what, path, old, new, test_files) in enumerate(MUTATIONS):
            tree = Path(scratch) / f"mutation-{index}"
            _copy_tree(tree)
            target = tree / path
            target.write_text(
                target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8"
            )
            killed = not _tests_pass(tree, test_files)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {what} ({path})")
    print(f"{len(MUTATIONS) - survivors} of {len(MUTATIONS)} killed in {time.monotonic() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
