"""Seeded inputs, operations and output checks for the four workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. An operation (op) is

  grid-band    one in-process ``torusiso.cli.main`` call, ``profile --grid``
               or ``bounds --grid`` over 1,000 log-spaced volumes, on four
               specs (two with k=2, two with k=3): 8 ops per cycle.
  band-curves  one in-process ``bounds --grid`` call over 400 volumes with
               two ``--curve`` files of 500 samples, on four specs: 4 ops.
               The grid puts half its rows between the two thresholds, the
               only rows where curves are scanned, so the curve path's share
               of the work is the same for every seed.
  spec-sweep   ``full_report(spec)`` then ``band(spec, 8 volumes, report=)``
               for one spec of a stream of 1,000 distinct specs: 1,000 ops.
               600 specs have k=2 and 400 have k=3, in seeded order: a k=3
               op costs about twice a k=2 op, and with these shares the
               median falls inside the k=2 ops and the 90th percentile
               inside the k=3 ops, not in the gap between them.
  cli-cold     one ``python -m torusiso`` process (``profile --v 10``,
               ``critical --format json``, ``bounds --grid 0.5:100:64,log``,
               ``verify``) on a k=2 and a k=3 spec file: 8 ops.

Ops are kept to tens of milliseconds so that each is timed against the
host-speed calibration at its side (calibrate.py) and seldom straddles a
change in the host's speed; the row loops still do nearly all the work.

ROADMAP baseline rows these replace: grid-band's rows_per_s replaces
"scalar envelope_profile loop, 1e4 volumes" and "band, 1e4 rows";
band-curves adds the curve path, which had no row; spec-sweep's op
latencies replace "two_torus_criticals / three_torus_criticals" and
"band, k=2, 64 rows"; cli-cold's op latencies replace "CLI ... cold
process" and, in the traced run, "import torusiso (of which numpy)" and
"verify_spec".

Inputs depend only on the seed. Specs for grid-band, band-curves and
cli-cold keep every circle within a factor 1.5 of the smallest, so the
share of band rows between the two thresholds (the costly ones) varies
little from seed to seed; spec-sweep draws radii log-uniformly from
[0.1, 10] over every supported dimension, a range in which every spec gets
a full report at the parent commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

# Euclidean dimensions each circle count's threshold pipeline accepts.
PIPELINE_N = {2: (2, 5), 3: (2, 4)}
BAND_SLOTS = (2, 2, 3, 3)  # circle counts of the four grid-band/band-curves specs
CURVE_FRACTION = 0.5  # curve area / envelope area; concavity keeps it below the band
ORACLE_RTOL = 1e-9
ERROR_CLASSES = ("GuardError", "DomainError", "ConvergenceError", "ConsistencyError")

# "tiny" is for the benchmark's own smoke tests.
SIZES = {
    "full": {"grid": 1_000, "curve_grid": 400, "curve_samples": 500, "sweep": 1_000},
    "tiny": {"grid": 200, "curve_grid": 100, "curve_samples": 50, "sweep": 20},
}
SAMPLE_ROWS = 48  # rows per CLI table checked against the oracle
VERIFY_EVERY = 40  # every 40th spec-sweep report is checked with verify_report


class OpFailure(Exception):
    """An op that returned without raising but did not succeed.

    ``argv`` is set for a CLI command that exited non-zero, so the error
    behind the exit code can be named (``failure_class``).
    """

    def __init__(self, kind: str, detail: str = "", argv: list[str] | None = None):
        super().__init__(detail)
        self.kind = kind
        self.argv = argv


@dataclass
class Op:
    key: str
    kind: str
    rows: int  # table rows (profile points or band rows) the op produces
    run: Callable[[], object]
    render: Callable[[object], bytes]  # exact output bytes, for the digest
    check: Callable[[object, random.Random], list[str]]  # violations found


@dataclass
class Inputs:
    directory: Path
    specs: list[dict] = field(default_factory=list)
    paths: list[Path] = field(default_factory=list)
    grids: list[str] = field(default_factory=list)
    curves: list[list[Path]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Seeded generation.


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _round6(x: float) -> float:
    return float(f"{x:.6g}")


def shaped_spec(rng: random.Random, k: int) -> dict:
    """A k-circle spec with every radius within a factor 1.5 of the smallest."""
    n = rng.randint(*PIPELINE_N[k])
    r1 = _log_uniform(rng, 0.5, 2.0)
    radii = [r1] + [r1 * _log_uniform(rng, 1.0, 1.5) for _ in range(k - 1)]
    return {"radii": [_round6(r) for r in radii], "euclid_dim": n}


def sweep_spec(rng: random.Random, k: int) -> dict:
    n = rng.randint(*PIPELINE_N[k])
    return {"radii": [_round6(_log_uniform(rng, 0.1, 10.0)) for _ in range(k)], "euclid_dim": n}


def _unit_ball(m: int) -> float:
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def candidate_area(spec: dict, v: float) -> float:
    """Least boundary area over circle-subset x ball candidates at volume v.

    The benchmark's own mensuration, so generated curves do not depend on
    the code under test.
    """
    radii, n = spec["radii"], spec["euclid_dim"]
    k = len(radii)
    best = math.inf
    for mask in range(1 << k):
        measure = 1.0
        for i in range(k):
            if mask >> i & 1:
                measure *= 2 * math.pi * radii[i]
        m = k - bin(mask).count("1") + n
        radius = (v / (measure * _unit_ball(m))) ** (1 / m)
        best = min(best, measure * m * _unit_ball(m) * radius ** (m - 1))
    return best


def thresholds(report) -> tuple[float, float]:
    """Certified lower and upper threshold volumes of a critical report."""
    c = report.criticals
    return (c.v_star, c.v_dstar) if report.kind == "two-torus" else (c.u_star, c.u_dstar)


def _spec_obj(torusiso, spec: dict):
    return torusiso.TorusProductSpec(tuple(spec["radii"]), spec["euclid_dim"])


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    return path


def _write_curve(path: Path, label: str, spec: dict, volumes: list[float]) -> Path:
    lines = [f"# label: {label}", "# certified_lower_bound: yes", "v,area"]
    lines += [f"{v!r},{CURVE_FRACTION * candidate_area(spec, v)!r}" for v in volumes]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _grid(lo: float, hi: float, count: int, pad: float) -> str:
    """Log grid from pad times below the lower threshold to pad times above the upper."""
    return f"{lo / pad:.6g}:{hi * pad:.6g}:{count},log"


def _grid_bounds(grid: str) -> tuple[float, float]:
    lo, hi, _ = grid.partition(",")[0].split(":")
    return float(lo), float(hi)


def generate(torusiso, workload: str, seed: int, directory: Path, size: str) -> Inputs:
    """Write one workload's inputs for a seed; the same seed gives the same bytes."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[size]
    inputs = Inputs(directory)
    if workload in ("grid-band", "band-curves"):
        count = sizes["grid"] if workload == "grid-band" else sizes["curve_grid"]
        for slot, k in enumerate(BAND_SLOTS):
            spec = shaped_spec(rng, k)
            path = _write_json(directory / f"spec{slot}.json", spec)
            lo, hi = thresholds(torusiso.full_report(_spec_obj(torusiso, spec)))
            # grid-band: a decade either side of the thresholds. band-curves:
            # half the rows between them, where the curve path runs, for
            # every spec alike.
            pad = 10.0 if workload == "grid-band" else math.sqrt(hi / lo)
            grid = _grid(lo, hi, count, pad)
            inputs.specs.append(spec)
            inputs.paths.append(path)
            inputs.grids.append(grid)
            if workload == "band-curves":
                lo, hi = _grid_bounds(grid)
                samples = sizes["curve_samples"]
                random_vols = sorted({_log_uniform(rng, lo, hi) for _ in range(samples)})
                spaced = [lo * (hi / lo) ** (i / (samples - 1)) for i in range(samples)]
                inputs.curves.append(
                    [
                        _write_curve(directory / f"curve{slot}a.csv", "half-envelope-random", spec, random_vols),
                        _write_curve(directory / f"curve{slot}b.csv", "half-envelope-spaced", spec, spaced),
                    ]
                )
                _check_curves(torusiso, spec, grid, inputs.curves[-1])
    elif workload == "spec-sweep":
        count = sizes["sweep"]
        circles = [2] * (count * 3 // 5) + [3] * (count - count * 3 // 5)
        rng.shuffle(circles)
        specs = [sweep_spec(rng, k) for k in circles]
        path = directory / "specs.jsonl"
        path.write_text("".join(json.dumps(s) + "\n" for s in specs), encoding="utf-8")
        inputs.paths.append(path)
        inputs.specs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    elif workload == "cli-cold":
        for slot, k in enumerate((2, 3)):
            spec = shaped_spec(rng, k)
            inputs.specs.append(spec)
            inputs.paths.append(_write_json(directory / f"spec{slot}.json", spec))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def _check_curves(torusiso, spec: dict, grid: str, curve_paths: list[Path]) -> None:
    """Reject generated curves that the band would refuse as above the envelope."""
    lo, hi = _grid_bounds(grid)
    volumes = [lo * (hi / lo) ** (i / 199) for i in range(200)]
    curves = [torusiso.read_curve(p) for p in curve_paths]
    torusiso.band(_spec_obj(torusiso, spec), volumes, curves)  # raises DomainError


# ---------------------------------------------------------------------------
# Operations.


def _in_process_cli(cli_module, argv: list[str]) -> Callable[[], str]:
    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_module.main(argv)
        if rc != 0:
            raise OpFailure("nonzero_exit", f"exit {rc}: {err.getvalue().strip()}", argv)
        return out.getvalue()

    return run


def failure_class(argv: list[str]) -> str:
    """Name of the package error behind a CLI command's non-zero exit.

    ``torusiso.cli.main`` turns errors into exit codes, so the command is
    run again in this process with a trace hook that sees the exception
    reach ``main``. The commands are deterministic, so a cold process that
    failed fails the same way here. A non-zero exit that no error explains
    (``verify`` finding a failed check) is ``nonzero_exit``.
    """
    import torusiso
    import torusiso.cli as cli_module

    seen = []

    def hook(frame, event, arg):
        if (
            event == "exception"
            and frame.f_code.co_name == "main"
            and frame.f_globals.get("__name__") == cli_module.__name__
            and issubclass(arg[0], torusiso.TorusIsoError)
        ):
            seen.append(arg[0].__name__)
        return hook

    sink = io.StringIO()
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli_module.main(argv)
    except Exception:  # an error main lets through, e.g. a crash of a cold process
        return "other"
    finally:
        sys.settrace(previous)
    return seen[-1] if seen and seen[-1] in ERROR_CLASSES else "nonzero_exit"


def cold_command(root: Path, argv: list[str], tracer=None, scratch: Path | None = None):
    """A ``python -m torusiso`` run against ``root/src``; with a tracer, a traced child."""
    env = child_env(root)

    def run() -> str:
        if tracer is None:
            cmd = [sys.executable, "-m", "torusiso", *argv]
        else:
            summary_path = scratch / "child-summary.json"
            summary_path.unlink(missing_ok=True)  # never book an earlier child's summary
            child = Path(__file__).with_name("coldchild.py")
            cmd = [sys.executable, "-X", "importtime", str(child), str(summary_path), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, timeout=150)
        wall = time.perf_counter() - start
        if tracer is not None and summary_path.is_file():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
            summary.update(
                command=argv[0],
                wall_process_s=wall,
                importtime=proc.stderr.decode("utf-8", "replace"),
            )
            tracer.book_child(wall, summary)
        if proc.returncode != 0:
            raise OpFailure("nonzero_exit", f"exit {proc.returncode}: {proc.stderr[-500:]!r}", argv)
        if tracer is not None and not summary_path.is_file():
            raise OpFailure("other", "the traced child wrote no summary")
        return proc.stdout.decode("utf-8")

    return run


def child_env(root: Path) -> dict:
    """Environment that makes a child python import torusiso from root/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _text(output: str) -> bytes:
    return output.encode("utf-8")


def make_ops(torusiso, workload: str, inputs: Inputs, root: Path, tracer=None) -> list[Op]:
    """The ops of one cycle, in order."""
    import torusiso.cli as cli_module

    ops = []
    if workload == "grid-band":
        for slot, (spec, path, grid) in enumerate(zip(inputs.specs, inputs.paths, inputs.grids)):
            count = int(grid.split(":")[2].partition(",")[0])
            for command in ("profile", "bounds"):
                ops.append(
                    Op(
                        f"{command}:{slot}",
                        command,
                        count,
                        _in_process_cli(cli_module, [command, str(path), "--grid", grid]),
                        _text,
                        _table_checker(torusiso, spec, command, count),
                    )
                )
    elif workload == "band-curves":
        for slot, (spec, path, grid, curves) in enumerate(
            zip(inputs.specs, inputs.paths, inputs.grids, inputs.curves)
        ):
            count = int(grid.split(":")[2].partition(",")[0])
            argv = ["bounds", str(path), "--grid", grid]
            for curve in curves:
                argv += ["--curve", str(curve)]
            ops.append(
                Op(
                    f"bounds:{slot}",
                    "bounds",
                    count,
                    _in_process_cli(cli_module, argv),
                    _text,
                    _table_checker(torusiso, spec, "bounds", count),
                )
            )
    elif workload == "spec-sweep":
        for index, spec in enumerate(inputs.specs):
            ops.append(
                Op(
                    f"sweep:{index}",
                    "sweep",
                    8,
                    _sweep_op(torusiso, _spec_obj(torusiso, spec)),
                    _render_sweep,
                    _sweep_checker(torusiso, index % VERIFY_EVERY == 0),
                )
            )
    elif workload == "cli-cold":
        commands = (
            ("profile", ["--v", "10"], 1),
            ("critical", ["--format", "json"], 0),
            ("bounds", ["--grid", "0.5:100:64,log"], 64),
            ("verify", [], 0),
        )
        for slot, (spec, path) in enumerate(zip(inputs.specs, inputs.paths)):
            for command, extra, rows in commands:
                argv = [command, str(path), *extra]
                ops.append(
                    Op(
                        f"{command}:{slot}",
                        command,
                        rows,
                        cold_command(root, argv, tracer, inputs.directory),
                        _text,
                        _cold_checker(torusiso, spec, command, rows),
                    )
                )
    return ops


def warm_up_ops(torusiso, workload: str, inputs: Inputs, root: Path) -> list[Op]:
    """One small op of each kind, so lazy set-up is done before timing starts.

    cli-cold has none: set-up's cold import has already read every file a
    cold command reads.
    """
    small = replace(
        inputs,
        specs=inputs.specs[:4],
        grids=[g.partition(",")[0].rsplit(":", 1)[0] + ":8,log" for g in inputs.grids],
    )
    if workload == "cli-cold":
        return []
    ops = make_ops(torusiso, workload, small, root)
    kinds = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op)
    return [op for group in kinds.values() for op in group[:4 if workload == "spec-sweep" else 1]]


@dataclass
class SweepResult:
    report: object
    band: object


def _sweep_op(torusiso, spec):
    def run() -> SweepResult:
        report = torusiso.full_report(spec)
        lo, hi = thresholds(report)
        lo, hi = lo / 10, hi * 10
        volumes = [lo * (hi / lo) ** (i / 7) for i in range(8)]
        return SweepResult(report, torusiso.band(spec, volumes, report=report.criticals))

    return run


def _render_report(report, prefix: str, lines: list[str]) -> None:
    for name, record in report.constants.items():
        lines.append(f"{prefix}{name},{record.value:.17g}")
    for key, sub in report.sub_reports.items():
        _render_report(sub, f"{prefix}{key}.", lines)


def _render_sweep(result: SweepResult) -> bytes:
    lines: list[str] = []
    _render_report(result.report, "", lines)
    for row in result.band.rows:
        lines.append(f"{row.v:.17g},{row.upper:.17g},{row.lower:.17g}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Output checks. Each returns the violations found (empty when correct).


def _check_rows(torusiso, spec_obj, rows: list[tuple[float, float, float | None]]) -> list[str]:
    bad = []
    for v, upper, lower in rows:
        reference, _ = torusiso.candidate_min_area(spec_obj, v)
        gap = abs(upper - reference) / reference
        if not gap <= ORACLE_RTOL:
            bad.append(f"v={v!r}: upper {upper!r} is {gap:.2e} from the oracle")
        if lower is not None and not lower <= upper:
            bad.append(f"v={v!r}: lower {lower!r} > upper {upper!r}")
    return bad


def _parse_table(text: str, header: str, count: int) -> tuple[list[list[str]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"header {lines[:1]!r} != {header!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != count:
        return rows, [f"{len(rows)} rows, expected {count}"]
    return rows, []


_HEADERS = {"profile": "v,area,regime", "bounds": "v,upper,lower,upper_regime,lower_source"}


def _table_checker(torusiso, spec: dict, command: str, count: int):
    spec_obj = _spec_obj(torusiso, spec)

    def check(output: str, rng: random.Random) -> list[str]:
        rows, bad = _parse_table(output, _HEADERS[command], count)
        if bad:
            return bad
        picked = rng.sample(rows, min(SAMPLE_ROWS, len(rows)))
        values = [
            (float(r[0]), float(r[1]), float(r[2]) if command == "bounds" else None)
            for r in picked
        ]
        return _check_rows(torusiso, spec_obj, values)

    return check


def _sweep_checker(torusiso, verify: bool):
    def check(result: SweepResult, rng: random.Random) -> list[str]:
        checks = torusiso.verify_report(result.report) if verify else []
        bad = [f"verify_report {c.name}: {c.detail}" for c in checks if not c.ok]
        rows = [(row.v, row.upper, row.lower) for row in result.band.rows]
        return bad + _check_rows(torusiso, result.report.spec, rows)

    return check


def _cold_checker(torusiso, spec: dict, command: str, rows: int):
    spec_obj = _spec_obj(torusiso, spec)
    table = _table_checker(torusiso, spec, command, rows) if command in _HEADERS else None

    def check(output: str, rng: random.Random) -> list[str]:
        if table is not None:
            return table(output, rng)
        if command == "critical":
            payload = json.loads(output)
            expected = torusiso.full_report(spec_obj)
            got = {name: c["value"] for name, c in payload["constants"].items()}
            want = {name: r.value for name, r in expected.constants.items()}
            return [] if got == want else [f"critical constants differ: {got} != {want}"]
        last = output.strip().splitlines()[-1:]
        ok = bool(last) and last[0].startswith("all ") and last[0].endswith(" checks passed")
        return [] if ok else [f"verify ended with {last!r}"]

    return check
