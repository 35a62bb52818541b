"""Rigorous lower/upper bound envelopes between the certified thresholds.

Outside [v_star, v_dstar] the candidate envelope is the exact profile, so
the band collapses there. Inside, the profile is only known to be concave
(the products have nonnegative Ricci curvature), which makes two kinds of
lower bound valid:

  * the chord between the two exactly-known endpoint values,
  * any line from an exactly-known anchor point to a point on a certified
    lower-bound curve on the other side of the evaluation volume.

A third candidate, the circle-product profile shifted down by twice its
breakpoint volume, comes out of the mixed-slice case analysis; it is kept
as a separately tagged source and only enters the default band where it
does not exceed the upper envelope.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import cached_property
from operator import attrgetter, gt

from .criticals import CriticalReport, full_report
from .errors import CurveParseError, DomainError, positive_finite
from .mensuration import TorusProductSpec
from .profiles import _profile_cache, beta, circle_piecewise, envelope_piecewise
from .records import record

# Relative slack within which a lower bound above the envelope is taken as
# touching it (rounding), and clamped to it.
_TOUCH_RTOL = 1e-9

# Rounding margin of the tangent scan (_tangents), in units of M, the larger
# of the anchor area a0 and the largest admissible sample area. Let
# u = 2**-53 and let every input lie in _SCAN_RANGE, so that all are
# positive and each operation below is exact or rounds to a normal double
# within a relative u.
#   * A line's value c + (a0 - c) * (v - w) / (v0 - w) takes six roundings.
#     Its quotient term is (a0 - c) times a factor in [0, 1], as v lies
#     between v0 and w, and the value lies between c and a0, so the
#     computed value is within 6u*M of the exact one: about 6 ulps.
#   * A slope s = (c - a0) / (w - v0) takes three roundings, so it is within
#     3u*|s|, and |v - v0| * |s| <= |c - a0| <= M: 3u*M at the scale of a
#     value.
#   * The exact value is a0 + (v - v0) * s. If the best and second-best
#     computed slopes differ by g in the row's direction, every other
#     sample's exact value lies below the best sample's by at least
#     |v - v0| * g - 6u*M, and its computed value lies below the best
#     sample's computed value once that exceeds the two values' errors,
#     12u*M: that is, once |v - v0| * g > 18u*M.
# The test's own product |v - v0| * g and the bound 20u*M are within 3u and
# u of their exact values, which 20u rather than 18u covers.
_SCAN_MARGIN = 20 * 2.0**-53

# Magnitudes of anchors, volumes and areas within which every intermediate
# of the scan, differences down to one ulp and slopes up to 2**565
# included, is zero or a normal double. A row whose volume, anchor or
# admissible samples leave it takes the exact maximum.
_SCAN_RANGE = (2.0**-256, 2.0**256)


class TabulatedCurve(record("TabulatedCurve", "points label")):
    """A certified comparison curve ingested as (volume, area) samples.

    The tool never verifies that the curve really lower-bounds the true
    profile; the file format forces the user to declare it. ``volumes``
    and ``areas`` are the samples as float columns, built once from points.
    """

    def __new__(cls, points: tuple[tuple[float, float], ...], label: str = ""):
        points = tuple(points)
        # One column per entry of a point, so a point that is not a pair
        # fails the strict zip or the unpacking with a ValueError.
        columns = zip(*points, strict=True) if points else ((), ())
        volumes, areas = (tuple(map(float, column)) for column in columns)
        # The one check of every sample, in point order; read_curve relabels
        # the "point i" of a failure with the line it came from.
        previous = 0.0
        for index, (v, a) in enumerate(zip(volumes, areas)):
            if not 0.0 < v < math.inf:
                problem = f"volume must be positive and finite, got {v!r}"
            elif v <= previous:
                problem = "volumes must be strictly increasing"
            elif not 0.0 < a < math.inf:
                problem = f"area must be positive and finite, got {a!r}"
            else:
                previous = v
                continue
            raise DomainError(f"point {index}: {problem}")
        if len(points) < 2:
            raise DomainError("a tabulated curve needs at least 2 points")
        self = tuple.__new__(cls, (tuple(zip(volumes, areas)), label))
        object.__setattr__(self, "volumes", volumes)
        object.__setattr__(self, "areas", areas)
        # The curve is immutable, so its hash, a walk over every sample,
        # is taken once; _slope_table's cache hashes it on every lookup.
        object.__setattr__(self, "_hash", tuple.__hash__(self))
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Copies and unpickled curves are built through __new__, so the hash
        # is the current process's: a stored one would follow the string
        # hashing of the process that pickled the label.
        return type(self), tuple(self)


class BandRow(record("BandRow", "v upper lower upper_regime lower_source")):
    """One row of a BoundBand: three floats, then two names."""

    __slots__ = ()


class BoundBand(record("BoundBand", "v upper lower upper_regime lower_source")):
    """Bound columns over a volume grid; lower <= upper holds on every row.

    Row i is ``(v[i], upper[i], lower[i], upper_regime[i], lower_source[i])``.
    ``rows`` builds those rows as BandRow objects on first use.
    """

    def __new__(cls, v, upper, lower, upper_regime, lower_source):
        columns = (v, upper, lower, upper_regime, lower_source)
        if len({len(column) for column in columns}) != 1:
            raise DomainError(
                f"band columns differ in length: {[len(column) for column in columns]}"
            )
        if any(map(gt, lower, upper)):
            i = list(map(gt, lower, upper)).index(True)
            raise DomainError(
                f"invalid band row at v={v[i]}: lower {lower[i]} > upper {upper[i]}"
            )
        return tuple.__new__(cls, columns)

    @cached_property
    def rows(self) -> tuple[BandRow, ...]:
        return tuple(
            map(BandRow, self.v, self.upper, self.lower, self.upper_regime, self.lower_source)
        )


def read_curve(path) -> TabulatedCurve:
    """Parse a tabulated-curve CSV; failures carry the offending line number.

    Expected layout: comment lines ``# label: <text>`` and
    ``# certified_lower_bound: yes``, then the header ``v,area``, then the
    strictly-increasing data rows. The file is read on every call, so a
    missing, unreadable or edited file is seen at once; its text is parsed
    once per content (see _parse_curve).
    """
    try:
        # utf-8-sig drops the byte order mark that spreadsheet exports put first.
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CurveParseError(f"cannot read curve file {str(path)!r}: {exc}") from exc
    return _parse_curve(text)


@_profile_cache
def _parse_curve(text: str) -> TabulatedCurve:
    """The curve a decoded file's text holds, built once per text.

    The reader checks only the syntax; the samples are checked once, by
    TabulatedCurve, after the whole text is read, so a syntax or declaration
    fault anywhere wins over a bad sample. The key is the exact text, so any
    edit is parsed again; refusals raise and are never stored, and a hit
    returns the shared curve, which is immutable.
    """
    label = ""
    certified = False
    header_seen = False
    points: list[tuple[float, float]] = []
    line_nos: list[int] = []  # the line each point was read from
    # The lines a file handle gives: split at "\n" only, where
    # str.splitlines() would also split at form feeds and other separators
    # and shift the line numbers of later faults.
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("label:"):
                label = body.partition(":")[2].strip()
            elif body.startswith("certified_lower_bound:"):
                flag = body.partition(":")[2].strip().lower()
                if flag != "yes":
                    raise CurveParseError(
                        f"line {line_no}: certified_lower_bound must be 'yes'",
                        line_no,
                    )
                certified = True
            continue
        if not header_seen:
            if line.replace(" ", "") != "v,area":
                raise CurveParseError(
                    f"line {line_no}: expected header 'v,area', got {line!r}", line_no
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise CurveParseError(
                f"line {line_no}: expected two comma-separated values", line_no
            )
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise CurveParseError(
                f"line {line_no}: could not parse numbers from {line!r}", line_no
            ) from None
        line_nos.append(line_no)
    if not certified:
        raise CurveParseError(
            "missing '# certified_lower_bound: yes' declaration", None
        )
    if not header_seen:
        raise CurveParseError("missing 'v,area' header", None)
    try:
        return TabulatedCurve(tuple(points), label)
    except DomainError as exc:
        where, _, problem = str(exc).partition(": ")
        if not where.startswith("point "):
            raise CurveParseError(str(exc), None) from exc
        line_no = line_nos[int(where.removeprefix("point "))]
        raise CurveParseError(f"line {line_no}: {problem}", line_no) from exc


def _thresholds(report: CriticalReport) -> tuple[float, float]:
    if report.kind == "two-torus":
        return report.v_star, report.v_dstar
    return report.u_star, report.u_dstar


def _exact_cut(grid: Sequence[float], report: CriticalReport) -> tuple[int, int]:
    """(first, stop): a sorted grid's rows strictly inside the open threshold
    interval are grid[first:stop], and band's exact rows are the ones outside."""
    v_lo, v_hi = _thresholds(report)
    return bisect_right(grid, v_lo), bisect_left(grid, v_hi)


def _chord(lo_anchor: tuple[float, float], hi_anchor: tuple[float, float], v: float) -> float:
    """Chord between the two exactly-known threshold points; valid by concavity."""
    (v_lo, y_lo), (v_hi, y_hi) = lo_anchor, hi_anchor
    t = (v - v_lo) / (v_hi - v_lo)
    return y_lo + t * (y_hi - y_lo)


def _tangents(
    anchor: tuple[float, float], side: str, curve: TabulatedCurve, volumes: Sequence[float]
) -> list[float | None]:
    """Best anchor line through each volume's admissible samples; None where there are none.

    Admissible samples sit on the far side of v from the anchor, so v lies
    between the sample and the anchor and concavity makes each line a valid
    lower bound at v. ``side="left"`` is an anchor below the volumes, whose
    admissible samples are ``w >= v``; ``side="right"`` an anchor above them,
    with samples ``w <= v``. The volumes must lie strictly on that side of
    the anchor, so no line divides by zero.

    Each value has the bits of the largest ``c + (a0 - c) * (v - w) / (v0 - w)``
    over the admissible samples. That line is ``a0 + (v - v0) * s`` with
    slope ``s = (c - a0) / (w - v0)``, so the best sample is the one of the
    largest slope (left) or the smallest (right). The admissible samples of a
    row are the first k of _slope_table's scan, whose entry k holds the best
    signed slope, the second best, the best's index and the rounding bound
    of those k samples. A row whose volume lies in _SCAN_RANGE takes its
    best sample's value where the gap between the two slopes, times
    ``|v - v0|``, exceeds its entry's bound, and the exact maximum over its
    samples elsewhere; no row depends on which other rows share the call.
    """
    v0, a0 = anchor
    ws, cs = curve.volumes, curve.areas
    left = side == "left"
    # Each row's admissible samples are the first k of the scan order.
    if left:
        counts = [len(ws) - bisect_left(ws, v) for v in volumes]
    else:
        counts = [bisect_right(ws, v) for v in volumes]
    if not any(counts):
        return [None] * len(counts)
    tops = _slope_table(v0, a0, left, curve)
    # Negating a quotient or a difference is exact, so a right anchor's
    # signed slope (a0 - c) / (w - v0) and distance v0 - v are the left
    # formulas' negations, bit for bit.
    sign = 1.0 if left else -1.0
    low, high = _SCAN_RANGE
    values: list[float | None] = []
    for v, k in zip(volumes, counts):
        if not k:
            values.append(None)
            continue
        best, second, i, bound = tops[k]
        if low <= v <= high and sign * (v - v0) * (best - second) > bound:
            w, c = ws[i], cs[i]
            values.append(c + (a0 - c) * (v - w) / (v0 - w))
        else:
            first, stop = (len(ws) - k, len(ws)) if left else (0, k)
            samples = zip(ws[first:stop], cs[first:stop])
            values.append(max([c + (a0 - c) * (v - w) / (v0 - w) for w, c in samples]))
    return values


@_profile_cache
def _slope_table(
    v0: float, a0: float, left: bool, curve: TabulatedCurve
) -> tuple[tuple[float, float, int, float], ...]:
    """The tangent scan of a curve from the anchor (v0, a0), built once per anchor and curve.

    The scan covers every sample strictly beyond the anchor on its far side:
    down from the last sample (left) or up from the first (right). Entry k
    is ``(best, second, index, bound)`` after its first k samples: the best
    signed slope, the second best and the best's index (``-inf, -inf, -1``
    before any), and the rounding margin of a row that admits those k
    samples, ``_SCAN_MARGIN * max(a0, their areas)``, or inf once the anchor
    or one of them leaves _SCAN_RANGE. Entry k depends on those k samples
    alone, never on how far the scan runs, so one table serves the rows of
    any grid.
    """
    ws, cs = curve.volumes, curve.areas
    if left:
        scan = range(len(ws) - 1, bisect_right(ws, v0) - 1, -1)
    else:
        scan = range(bisect_left(ws, v0))
    sign = 1.0 if left else -1.0  # _tangents' signed slopes: the best is the largest
    low, high = _SCAN_RANGE
    best = second = -math.inf
    index = -1
    # The largest area so far, by comparisons: a max() per sample costs more
    # than the scan itself. Once inf, it stays inf.
    scale = a0 if low <= v0 <= high and low <= a0 <= high else math.inf
    bound = _SCAN_MARGIN * scale
    tops = [(best, second, index, bound)]
    for i in scan:
        w, c = ws[i], cs[i]
        slope = sign * (c - a0) / (w - v0)
        if slope > best:
            best, second, index = slope, best, i
        elif slope > second:
            second = slope
        if not (low <= w <= high and low <= c <= high):
            scale = bound = math.inf
        elif c > scale:
            scale, bound = c, _SCAN_MARGIN * c
        tops.append((best, second, index, bound))
    return tuple(tops)


def _offsets(spec: TorusProductSpec, grid: list[float]) -> list[float]:
    """Circle-product profiles shifted down by twice their breakpoint volumes.

    Max over both circle factors, clamped at zero, at every volume of a
    checked ascending grid (as band's inside rows are); PiecewiseProfile's
    _columns gives wrong rows on an unsorted one.
    """
    n = spec.euclid_dim
    best = [0.0] * len(grid)
    for r in spec.radii:
        shift = 2.0 * beta(n, r)
        areas, _ = circle_piecewise(n + 1, r)._columns(grid)
        best = [a - shift if a - shift > b else b for a, b in zip(areas, best)]
    return best


def band(
    spec: TorusProductSpec,
    grid: Sequence[float],
    curves: Sequence[TabulatedCurve] | None = None,
    *,
    report: CriticalReport | None = None,
) -> BoundBand:
    """Bound band over a sorted positive volume grid.

    Upper is the candidate envelope (exact outside the open threshold
    interval). Lower is the best of chord, tangent-to-curve and offset
    sources inside the interval, and equals the upper value outside it.
    ``report``, when given, must be the spec's own: another spec's
    thresholds would give invalid lower bounds.
    """
    curves = tuple(curves or ())
    grid = [float(v) for v in grid]
    for v in grid:
        if not (v > 0.0) or not math.isfinite(v):
            positive_finite(v, "grid volume")
    if any(map(gt, grid, grid[1:])):
        raise DomainError("grid volumes must be sorted ascending")
    if report is None:
        report = full_report(spec)
    elif report.spec != spec:
        raise DomainError(f"band for {spec} was given the report of {report.spec}")
    v_lo, v_hi = _thresholds(report)
    envelope = envelope_piecewise(spec)
    lo_anchor = (v_lo, envelope(v_lo))
    hi_anchor = (v_hi, envelope(v_hi))
    tops, segs = envelope._columns(grid)
    # The exact rows outside the inside slice take the upper value as their lower.
    first, stop = _exact_cut(grid, report)
    inside = grid[first:stop]
    # Each curve's tangent columns over the inside rows, in the fold's order.
    tangents = []
    for curve in curves:
        label = curve.label or "unlabeled"
        tangents.append((label, "tangent-left", _tangents(lo_anchor, "left", curve, inside)))
        tangents.append((label, "tangent-right", _tangents(hi_anchor, "right", curve, inside)))
    two_circles = spec.circle_count == 2
    if two_circles:
        offsets = _offsets(spec, inside)

    lowers, sources = [], []
    for j, v in enumerate(inside):
        top = tops[first + j]
        lower = _chord(lo_anchor, hi_anchor, v)
        if top < lower <= top * (1.0 + _TOUCH_RTOL):
            lower = top  # the rounded chord touches the envelope
        source = "chord"
        for label, tag, values in tangents:
            value = values[j]
            if value is None:
                continue
            if value > top:
                if value > top * (1.0 + _TOUCH_RTOL):
                    # A genuine lower-bound curve can never push the band
                    # above the candidate envelope.
                    raise DomainError(
                        f"curve {label!r} yields lower bound {value} above "
                        f"the envelope {top} at v={v}; it cannot be a "
                        "valid lower bound for this manifold"
                    )
                value = top  # envelope touch, within rounding
            if value > lower:
                lower, source = value, tag
        if two_circles:
            offset = offsets[j]
            if lower < offset <= top:
                lower, source = offset, "cylinder-offset"
        lowers.append(lower)
        sources.append(source)
    return BoundBand(
        tuple(grid),
        tuple(tops),
        (*tops[:first], *lowers, *tops[stop:]),
        tuple(map(attrgetter("regime"), segs)),
        ("exact",) * first + tuple(sources) + ("exact",) * (len(grid) - stop),
    )
