"""Command line surface: manifold spec JSON in, CSV/JSON tables out.

Exit codes are part of the interface: 0 success, 1 parse failure (spec
file, curve file or grid syntax), 2 guard/domain violation or usage error,
3 solver or verification failure.

Each command imports the modules it runs when it runs, so a cold
``critical`` or ``profile`` does not load the bound or oracle modules.
A command line in the usual spelling (``command spec --option value ...``)
is read by ``parse_args`` from the ``_COMMANDS`` table, so such a cold
command loads no argparse, gettext or locale. Every other line, help and
each usage error go to the argparse parser that ``usage.py`` builds from
the same table; it is imported only then.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import accumulate
from operator import gt
from types import SimpleNamespace

from .errors import (
    ConsistencyError,
    CurveParseError,
    DomainError,
    GuardError,
    SpecFileError,
)
from .mensuration import TorusProductSpec
from .profiles import _profile_cache, envelope_piecewise

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GUARD = 2
EXIT_SOLVER = 3

# Most volumes a grid may hold. An in-process bounds --grid over 1e6 rows
# took 1.8-2.1 s and 333 MiB peak RSS on an x86-64 host, and the cost grows
# linearly, so larger counts are refused before any grid is built. A grid
# at the cap stays in memory after its command, as an entry of _grid's
# cache: about 51 MB.
_MAX_GRID_COUNT = 10**6

# 10.0 ** y overflows from this exponent up, the log10 of the largest double
# having rounded up.
_LOG10_MAX = math.log10(sys.float_info.max)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _spec_float(value: int | float, field: str) -> float:
    # JSON integers are unbounded; one past the double range is a file error.
    try:
        return float(value)
    except OverflowError:
        raise SpecFileError(
            f"spec field {field!r} holds an integer too large for a double"
        ) from None


def load_spec_file(path: str) -> TorusProductSpec:
    """Read a manifold spec JSON file into its spec.

    An optional numeric ``tolerance`` field is checked and ignored: the
    solvers return ulp-exact roots, so no tolerance changes the output.
    """
    try:
        # utf-8-sig drops the byte order mark that some editors save first
        # (RFC 8259 section 8.1 lets a parser ignore it).
        with open(path, "r", encoding="utf-8-sig") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past int_max_str_digits
        raise SpecFileError(f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecFileError("spec file must contain a JSON object")
    radii = data.get("radii")
    if not isinstance(radii, list) or not radii:
        raise SpecFileError("spec field 'radii' must be a non-empty list of numbers")
    for r in radii:
        if isinstance(r, bool) or not isinstance(r, (int, float)):
            raise SpecFileError(f"spec field 'radii' must contain numbers, got {r!r}")
    euclid_dim = data.get("euclid_dim")
    if isinstance(euclid_dim, bool) or not isinstance(euclid_dim, int):
        raise SpecFileError("spec field 'euclid_dim' must be an integer")
    tolerance = data.get("tolerance", 0.0)
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
        raise SpecFileError("spec field 'tolerance' must be a number")
    _spec_float(tolerance, "tolerance")
    return TorusProductSpec(tuple(_spec_float(r, "radii") for r in radii), euclid_dim)


def parse_grid(text: str) -> list[float]:
    """Parse 'lo:hi:count[,log|lin]' into a sorted volume grid.

    Each text is parsed once per process (see _grid); every call returns a
    new list of those volumes, so no caller's edit reaches another.
    """
    return list(_grid(text)[0])


@_profile_cache
def _grid(text: str) -> tuple[tuple[float, ...], str]:
    """The volumes of one grid text and their printed column, built once per text.

    The column is every volume's ``%.17g`` followed by a space, in order:
    the tables bake it into their row templates (see _table), so no command
    formats a grid's volumes again. The key is the exact text; refusals
    raise and are never stored. An entry holds about 51 bytes per volume:
    32 for the volumes and 19 for the column.
    """
    body, comma, mode = text.partition(",")
    if comma and mode not in ("log", "lin"):
        raise SpecFileError(f"grid mode must be 'log' or 'lin', got {mode!r}")
    parts = body.split(":")
    if len(parts) != 3:
        raise SpecFileError(f"grid must look like lo:hi:count, got {body!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise SpecFileError(f"could not parse grid numbers from {body!r}") from None
    if count < 1:
        raise SpecFileError(f"grid count must be at least 1, got {count}")
    if count > _MAX_GRID_COUNT:
        raise SpecFileError(f"grid count must be at most {_MAX_GRID_COUNT}, got {count}")
    if not (0.0 < lo <= hi) or not math.isfinite(hi):
        raise SpecFileError(f"grid range must satisfy 0 < lo <= hi, got ({lo}, {hi})")
    if count == 1:
        grid = [lo]
    elif mode == "lin":
        grid = _spaced(lo, hi, count)
    else:
        # The linear layout of the exponents (as _spaced lays them out),
        # mapped back through libm's pow, between the ends themselves.
        y_lo = math.log10(lo)
        step = (math.log10(hi) - y_lo) / (count - 1)
        grid = [lo]
        grid += [10.0**y if (y := i * step + y_lo) < _LOG10_MAX else hi for i in range(1, count - 1)]
        grid.append(hi)
    # With ends a few ulps apart, or a subnormal step, rounding can put an
    # interior point past an end. A running maximum capped at hi orders such
    # a grid and leaves an ascending one as it is.
    if any(map(gt, grid, grid[1:])):
        grid = [min(v, hi) for v in accumulate(grid, max)]
    grid = tuple(grid)
    return grid, "%.17g " * count % grid


def _spaced(lo: float, hi: float, count: int) -> list[float]:
    """``i * step + lo`` for i < count - 1, then hi: count points from lo to hi."""
    step = (hi - lo) / (count - 1)
    points = [i * step + lo for i in range(count - 1)]
    points.append(hi)
    return points


def _table(header: str, labels: str, *blocks) -> str:
    """A CSV table whose volume column is printed already, in one format call.

    ``labels`` holds each row's volume followed by a space (see _grid), and
    neither ``header`` nor a tail holds a space. Each block is a row format
    ``tail`` and the block's other columns, in row order: the block's
    spaces become its tail, and its columns are
    interleaved into one flat list of cells by slice assignment. So the one
    ``%`` formats only those cells; on 1,000-row tables it costs about
    0.65 us per float written, against about 0.8 us with a ``%`` and a tuple
    per row (x86-64). "%.17g" gives the bytes of _fmt, and the labels are
    those bytes.
    """
    template, size = header + labels, 0
    for tail, *columns in blocks:
        template = template.replace(" ", tail, len(columns[0]))
        size += len(columns) * len(columns[0])
    # One list of every block's cells: a 10^6-row table makes no second copy.
    cells, start = [None] * size, 0
    for _, *columns in blocks:
        width = len(columns)
        stop = start + width * len(columns[0])
        for i, column in enumerate(columns):
            cells[start + i : stop : width] = column
        start = stop
    return template % tuple(cells)


def cmd_profile(args) -> int:
    envelope = envelope_piecewise(load_spec_file(args.spec))
    if args.v is not None:
        areas, (segment,) = envelope.values([args.v])
        labels, regimes = "%.17g " % args.v, [segment.regime]
    else:
        # The grid's volumes are positive, finite and ascending already.
        grid, labels = _grid(args.grid)
        areas, _, regimes = envelope._columns(grid)
    sys.stdout.write(_table("v,area,regime\n", labels, (",%.17g,%s\n", areas, regimes)))
    return EXIT_OK


def _report_payload(report) -> dict:
    payload = {
        "radii": list(report.spec.radii),
        "euclid_dim": report.spec.euclid_dim,
        "kind": report.kind,
        "constants": {
            name: {
                "value": record.value,
                "residual": record.residual,
                "equation": record.equation,
                "regime": record.regime,
            }
            for name, record in report.constants.items()
        },
    }
    if report.sub_reports:
        payload["sub_reports"] = {
            key: _report_payload(sub) for key, sub in report.sub_reports.items()
        }
    return payload


def _report_csv(report, prefix: str = "") -> list[list[str]]:
    rows = []
    for name, record in report.constants.items():
        rows.append(
            [
                prefix + name,
                _fmt(record.value),
                _fmt(record.residual),
                record.equation,
                record.regime or "",
            ]
        )
    for key, sub in report.sub_reports.items():
        rows.extend(_report_csv(sub, prefix=f"{prefix}{key}."))
    return rows


def cmd_critical(args) -> int:
    from .criticals import full_report

    report = full_report(load_spec_file(args.spec))
    if args.format == "json":
        sys.stdout.write(json.dumps(_report_payload(report), indent=2))
        sys.stdout.write("\n")
    else:
        import csv
        import io
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["name", "value", "residual", "equation", "regime"])
        writer.writerows(_report_csv(report))
        sys.stdout.write(buffer.getvalue())
    return EXIT_OK


def cmd_bounds(args) -> int:
    from . import bounds
    from .criticals import full_report

    spec = load_spec_file(args.spec)
    grid, labels = _grid(args.grid)
    curves = [bounds.read_curve(path) for path in args.curve]
    report = full_report(spec)
    cut = bounds._exact_cut(grid, report)
    blocks = _band_blocks(*cut, *bounds.band(spec, grid, curves, report=report)[1:])
    sys.stdout.write(_table("v,upper,lower,upper_regime,lower_source\n", labels, *blocks))
    return EXIT_OK


def _band_blocks(first, stop, upper, lower, regimes, sources) -> tuple:
    """The blocks of a band's table for _table: the exact head, the inside
    rows and the exact tail, cut where band cuts them (bounds._exact_cut).

    An exact row's lower is its upper: its upper is formatted once and
    printed twice. The band's own columns are freed when this returns, so a
    10^6-row band does not hold them while its table is formatted.
    """
    inside = slice(first, stop)
    head, tail = (("%.17g " * len(tops) % tops).split() for tops in (upper[:first], upper[stop:]))
    return (
        (",%s,%s,%s,exact\n", head, head, regimes[:first]),
        (",%.17g,%.17g,%s,%s\n", upper[inside], lower[inside], regimes[inside], sources[inside]),
        (",%s,%s,%s,exact\n", tail, tail, regimes[stop:]),
    )


def cmd_verify(args) -> int:
    from . import oracle

    checks = oracle.verify_spec(load_spec_file(args.spec))
    first_failure = None
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        sys.stdout.write(f"{status} {check.name}\n")
        if not check.ok and first_failure is None:
            first_failure = check
    if first_failure is not None:
        raise ConsistencyError(
            f"verification failed at {first_failure.name}: {first_failure.detail}"
        )
    sys.stdout.write(f"all {len(checks)} checks passed\n")
    return EXIT_OK


# One row per command: its summary, its handler, the options of which exactly
# one must be given, and each option's kind and help. The kind says how a value
# is read: float converts it, a tuple lists the accepted values (the first is
# the default), list collects the repeats, str keeps it as given. parse_args
# reads the usual command lines by this table, and usage.py builds the argparse
# parser of every other line from it.
_GRID = (str, "volume grid lo:hi:count[,log|lin]")
_COMMANDS = {
    "profile": (
        "evaluate the candidate envelope profile", cmd_profile, ("--v", "--grid"),
        {"--v": (float, "single volume to evaluate"), "--grid": _GRID},
    ),
    "critical": (
        "emit the critical-volume report", cmd_critical, (),
        {"--format": (("json", "csv"), "report format")},
    ),
    "bounds": (
        "emit the lower/upper bound band", cmd_bounds, ("--grid",),
        {"--grid": _GRID, "--curve": (list, "certified lower-bound curve CSV (repeatable)")},
    ),
    "verify": ("run the oracle suite against the spec", cmd_verify, (), {}),
}


def parse_args(argv=None) -> SimpleNamespace:
    """Read a command line (``sys.argv[1:]`` by default) as argparse reads it.

    The result has ``command``, ``spec``, ``v``, ``grid``, ``format`` and
    ``curve`` (None where the command has no such option), and ``func``, the
    command's handler. A line in the usual spelling is read here (see
    _usual); argparse (usage.py) reads every other line, prints the help
    and reports each usage error: SystemExit(0) after help, SystemExit(2)
    after a usage error.
    """
    tokens = sys.argv[1:] if argv is None else list(argv)
    args = _usual(tokens)
    if args is None:
        from .usage import parse

        args = parse(tokens)
    return SimpleNamespace(**{**dict.fromkeys(("v", "grid", "format", "curve")), **args})


def _usual(tokens) -> dict | None:
    """The arguments of a line in the usual spelling, or None for any other.

    The usual spelling is the command, the spec, then whole ``--option
    value`` pairs with each name written in full, where neither the spec
    nor a value starts with "-" and every value is valid. argparse reads
    such a line the same way on every Python version.
    """
    if not tokens or len(tokens) % 2 or tokens[0] not in _COMMANDS:
        return None
    command, spec, *pairs = tokens
    _, run, one_of, options = _COMMANDS[command]
    args = {"command": command, "spec": spec, "func": run}
    for name, (kind, _) in options.items():
        args[name[2:]] = [] if kind is list else kind[0] if type(kind) is tuple else None
    given = set()
    for name, value in zip(pairs[::2], pairs[1::2]):
        if name not in options or value[:1] == "-":
            return None
        kind = options[name][0]
        if kind is float:
            try:
                value = float(value)
            except ValueError:
                return None
        elif type(kind) is tuple and value not in kind:
            return None
        if kind is list:
            args[name[2:]].append(value)
        else:
            args[name[2:]] = value
        given.add(name)
    if spec[:1] == "-" or len(given.intersection(one_of)) != bool(one_of):
        return None
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, CurveParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (GuardError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_GUARD
    except ConsistencyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
