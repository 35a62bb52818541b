"""Golden CLI transcripts: the exact stdout of ``profile``, ``bounds`` and ``critical``.

Every spec in CASES has a transcript ``<name>.txt``. For each command run on
that spec it holds a ``$ torusiso ...`` line followed by the command's
stdout. The spec also has two curve files, ``<name>.curve1.csv`` and
``<name>.curve2.csv``, which its ``bounds --curve`` runs read. The commands
cover:

* ``critical --format json`` and ``critical --format csv``;
* ``profile --grid`` on a log grid across both thresholds;
* ``profile --v`` on every special volume;
* ``bounds --grid`` on the same log grid and on a one-volume grid at every
  special volume, each run with and without the two curves.

The special volumes are every envelope breakpoint, every beta(m, r) a
candidate family breaks at, and both thresholds. Each one comes with its
two ``nextafter`` neighbours.

``reports.json`` holds, for REPORT_COUNT seeded two- and three-circle
specs (half with radii in [1e-3, 1e3], half in [0.1, 10]), the hex of
every constant and residual of ``full_report`` with its regime, sub-reports
included, or the class and message of the error it raised.

The float bits of these files depend on more than the source: the
interpreter and libc's math functions, whose ``log10`` and ``pow`` lay out
the log grids, and whose ``pow`` gives the residuals every threshold is
solved to the last ulp of. Every grid here, the curve files' sample volumes included,
is built by ``cli.parse_grid`` through ``tests/grids.py``, in pure Python,
so no byte depends on numpy: with numpy's AVX-512 paths masked
(``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``) or numpy not
importable at all, a rewrite leaves every file as it is. Masking glibc's own
FMA/AVX2 variants
(``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F,-AVX512DQ,-FMA4``)
changes 2 transcripts, 1 curve file and 29 of the 400 reports in
``reports.json`` on an x86-64 host. ``environment.json`` records the numeric environment of the
host that wrote the files, and a transcript or report mismatch prints it
beside the current host's, so a difference of host is told apart from a
change of code. It is a record, not a check: a different
environment alone fails nothing.

``tests/test_cli.py`` and ``tests/test_criticals.py`` require the current
output to equal these files byte for byte. Rewrite them only when an output
change is intended, and only with

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import platform
import random
import sys
import tempfile
from pathlib import Path

from torusiso import (
    TorusIsoError,
    TorusProductSpec,
    beta,
    cli,
    envelope_piecewise,
    full_report,
)
from torusiso.mensuration import EUCLID_DIM_RANGES

HERE = Path(__file__).resolve().parent
# Run as a script, this file sees only its own directory on sys.path; the
# grid helper it shares with the tests is one level up.
sys.path.insert(0, str(HERE.parent))
from grids import log_grid  # noqa: E402
REGEN_COMMAND = "PYTHONPATH=src python tests/golden/regen.py"

_SQRT_PI_RADIUS = 1.0 / math.sqrt(math.pi)
CASES = [
    *(TorusProductSpec((_SQRT_PI_RADIUS, _SQRT_PI_RADIUS), n) for n in (2, 3, 4, 5)),
    *(TorusProductSpec((0.7, 1.9), n) for n in (2, 3, 4, 5)),
    *(TorusProductSpec((1.0, 1.0, 1.0), n) for n in (2, 3, 4)),
    *(TorusProductSpec((0.6, 1.1, 2.3), n) for n in (2, 3, 4)),
]

_GRID_POINTS = 41

ENVIRONMENT_PATH = HERE / "environment.json"
REPORTS_PATH = HERE / "reports.json"
REPORT_COUNT = 400
_REPORT_SEED = 12
# (circle count, radius range) of each quarter of the report specs.
_REPORT_GROUPS = ((2, (1e-3, 1e3)), (2, (0.1, 10.0)), (3, (1e-3, 1e3)), (3, (0.1, 10.0)))


def case_name(spec: TorusProductSpec) -> str:
    return f"k{spec.circle_count}-n{spec.euclid_dim}-r{spec.radii[0]:.3g}"


def _thresholds(spec: TorusProductSpec) -> tuple[float, float]:
    report = full_report(spec)
    if spec.circle_count == 2:
        return report.v_star, report.v_dstar
    return report.u_star, report.u_dstar


def special_volumes(spec: TorusProductSpec) -> list[float]:
    """Breakpoints, betas and thresholds, each with its nextafter neighbours."""
    n = spec.euclid_dim
    points = set(envelope_piecewise(spec).breakpoints())
    points.update(_thresholds(spec))
    for r in spec.radii:
        for m in (n, n + 1, n + 2):
            points.add(beta(m, r))
    volumes = set()
    for p in points:
        volumes.update((math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)))
    return sorted(volumes)


def curve_texts(spec: TorusProductSpec) -> list[str]:
    """Two valid lower-bound curves: scaled samples of the candidate envelope."""
    v_lo, v_hi = _thresholds(spec)
    texts = []
    for scale, count in ((0.97, 9), (0.5, 25)):
        ws = log_grid(v_lo / 2.0, v_hi * 2.0, count)
        areas, _ = envelope_piecewise(spec).values(ws)
        lines = [f"# label: envelope x {scale}", "# certified_lower_bound: yes", "v,area"]
        lines += [f"{w!r},{scale * area!r}" for w, area in zip(ws, areas)]
        texts.append("\n".join(lines) + "\n")
    return texts


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"torusiso {' '.join(argv)} exited with {code}")
    return out.getvalue()


def transcript(spec: TorusProductSpec, curve_dir: Path) -> str:
    """Every command's stdout for one spec; curves are read from curve_dir."""
    name = case_name(spec)
    curves = [f"{name}.curve{i}.csv" for i in (1, 2)]
    v_lo, v_hi = _thresholds(spec)
    log_grid = f"{v_lo / 30.0!r}:{v_hi * 30.0!r}:{_GRID_POINTS},log"
    singles = special_volumes(spec)

    commands = [["critical", "--format", "json"], ["critical", "--format", "csv"]]
    commands.append(["profile", "--grid", log_grid])
    commands += [["profile", "--v", repr(v)] for v in singles]
    for grid in [log_grid, *(f"{v!r}:{v!r}:1" for v in singles)]:
        commands.append(["bounds", "--grid", grid])
        commands.append(["bounds", "--grid", grid, *(a for c in curves for a in ("--curve", c))])

    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(
            json.dumps({"radii": list(spec.radii), "euclid_dim": spec.euclid_dim}),
            encoding="utf-8",
        )
        parts = []
        for command in commands:
            argv = [command[0], str(spec_path)]
            for arg in command[1:]:
                argv.append(str(curve_dir / arg) if arg in curves else arg)
            parts.append(f"$ torusiso {command[0]} spec.json {' '.join(command[1:])}\n")
            parts.append(_run(argv))
    return "".join(parts)


def report_specs() -> list[TorusProductSpec]:
    """REPORT_COUNT specs, log-uniform radii and uniform dimensions, from one seed."""
    rng = random.Random(_REPORT_SEED)
    specs = []
    for k, (lo, hi) in _REPORT_GROUPS:
        for _ in range(REPORT_COUNT // len(_REPORT_GROUPS)):
            radii = [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(k)]
            specs.append(TorusProductSpec(tuple(radii), rng.randint(*EUCLID_DIM_RANGES[k])))
    return specs


def _records(report) -> dict:
    fingerprint = {
        name: [record.value.hex(), record.residual.hex(), record.regime]
        for name, record in report.constants.items()
    }
    for key, sub in report.sub_reports.items():
        fingerprint[key] = _records(sub)
    return fingerprint


def report_fingerprint(spec: TorusProductSpec) -> dict:
    """Every constant and residual of full_report(spec), or the error it raised."""
    entry = {"radii": [r.hex() for r in spec.radii], "euclid_dim": spec.euclid_dim}
    try:
        entry["constants"] = _records(full_report(spec))
    except TorusIsoError as exc:
        entry["error"] = [type(exc).__name__, str(exc)]
    return entry


def reports_text() -> str:
    entries = [
        json.dumps(report_fingerprint(spec), separators=(",", ":")) for spec in report_specs()
    ]
    return "[\n" + ",\n".join(entries) + "\n]\n"


def numeric_environment() -> dict:
    """Python, libc and machine here."""
    return {
        "python": platform.python_version(),
        "libc": list(platform.libc_ver()),
        "machine": platform.machine(),
    }


def environment_text() -> str:
    return json.dumps(numeric_environment(), indent=2) + "\n"


def environment_note() -> str:
    """The recorded and the current numeric environment, for a mismatch message."""
    try:
        recorded = ENVIRONMENT_PATH.read_text(encoding="utf-8")
    except OSError:
        recorded = "(none recorded)\n"
    return (
        f"recorded numeric environment:\n{recorded}"
        f"current numeric environment:\n{environment_text()}"
    )


def main() -> int:
    ENVIRONMENT_PATH.write_text(environment_text(), encoding="utf-8", newline="")
    print(f"wrote {ENVIRONMENT_PATH.name}")
    REPORTS_PATH.write_text(reports_text(), encoding="utf-8", newline="")
    print(f"wrote {REPORTS_PATH.name}")
    for spec in CASES:
        name = case_name(spec)
        for i, text in enumerate(curve_texts(spec), start=1):
            (HERE / f"{name}.curve{i}.csv").write_text(text, encoding="utf-8", newline="")
        (HERE / f"{name}.txt").write_text(
            transcript(spec, HERE), encoding="utf-8", newline=""
        )
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
