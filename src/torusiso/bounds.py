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

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, gt
from typing import TYPE_CHECKING, Sequence

from .criticals import T2Criticals, T3Criticals, full_report
from .errors import CurveParseError, DomainError
from .mensuration import TorusProductSpec
from .profiles import beta, circle_piecewise, envelope_piecewise
from .roots import DEFAULT_TOLERANCE

if TYPE_CHECKING:
    import numpy as np

# Relative slack within which a lower bound above the envelope is taken as
# touching it (rounding), and clamped to it.
_TOUCH_RTOL = 1e-9

# Elements per block of the tangent kernel. Smaller blocks pay more numpy
# calls per element, larger ones spill their temporaries out of cache: over
# 200 rows and two 500-sample curves on an x86-64 host, band took 2.95, 2.84,
# 3.10 and 3.75 ms at 2**13, 2**14, 2**15 and 2**16, and 4.14, 3.80, 3.65
# and 4.74 ms in a slower phase of the same shared host.
_BLOCK = 2**14


@dataclass(frozen=True)
class TabulatedCurve:
    """A certified comparison curve ingested as (volume, area) samples.

    The tool never verifies that the curve really lower-bounds the true
    profile; the file format forces the user to declare it.
    """

    points: tuple[tuple[float, float], ...]
    label: str = ""

    def __post_init__(self):
        pts = tuple((float(v), float(a)) for v, a in self.points)
        if len(pts) < 2:
            raise DomainError("a tabulated curve needs at least 2 points")
        for index, (v, a) in enumerate(pts):
            if not (v > 0.0) or not math.isfinite(v):
                raise DomainError(
                    f"curve volumes must be positive and finite, got {v!r} at point {index}"
                )
            if not (a > 0.0) or not math.isfinite(a):
                raise DomainError(
                    f"curve areas must be positive and finite, got {a!r} at point {index}"
                )
        for (v1, _), (v2, _) in zip(pts, pts[1:]):
            if not v1 < v2:
                raise DomainError("curve volumes must be strictly increasing")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class BandRow:
    v: float
    upper: float
    lower: float
    upper_regime: str
    lower_source: str


@dataclass(frozen=True)
class BoundBand:
    """Bound columns over a volume grid; lower <= upper holds on every row.

    Row i is ``(v[i], upper[i], lower[i], upper_regime[i], lower_source[i])``.
    ``rows`` builds those rows as BandRow objects on first use.
    """

    v: tuple[float, ...]
    upper: tuple[float, ...]
    lower: tuple[float, ...]
    upper_regime: tuple[str, ...]
    lower_source: tuple[str, ...]

    def __post_init__(self):
        columns = (self.v, self.upper, self.lower, self.upper_regime, self.lower_source)
        if len({len(column) for column in columns}) != 1:
            raise DomainError(
                f"band columns differ in length: {[len(column) for column in columns]}"
            )
        if any(map(gt, self.lower, self.upper)):
            i = list(map(gt, self.lower, self.upper)).index(True)
            raise DomainError(
                f"invalid band row at v={self.v[i]}: "
                f"lower {self.lower[i]} > upper {self.upper[i]}"
            )

    @cached_property
    def rows(self) -> tuple[BandRow, ...]:
        return tuple(
            map(BandRow, self.v, self.upper, self.lower, self.upper_regime, self.lower_source)
        )


def read_curve(path) -> TabulatedCurve:
    """Parse a tabulated-curve CSV; failures carry the offending line number.

    Expected layout: comment lines ``# label: <text>`` and
    ``# certified_lower_bound: yes``, then the header ``v,area``, then the
    strictly-increasing data rows.
    """
    label = ""
    certified = False
    header_seen = False
    points: list[tuple[float, float]] = []
    try:
        # utf-8-sig drops the byte order mark that spreadsheet exports put first.
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CurveParseError(f"cannot read curve file {str(path)!r}: {exc}") from exc
    for line_no, raw in enumerate(lines, start=1):
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
            v, a = float(parts[0]), float(parts[1])
        except ValueError:
            raise CurveParseError(
                f"line {line_no}: could not parse numbers from {line!r}", line_no
            ) from None
        if not (v > 0.0) or not math.isfinite(v):
            raise CurveParseError(
                f"line {line_no}: volume must be positive and finite, got {v!r}",
                line_no,
            )
        if points and v <= points[-1][0]:
            raise CurveParseError(
                f"line {line_no}: volumes must be strictly increasing", line_no
            )
        if not (a > 0.0) or not math.isfinite(a):
            raise CurveParseError(
                f"line {line_no}: area must be positive and finite, got {a!r}",
                line_no,
            )
        points.append((v, a))
    if not certified:
        raise CurveParseError(
            "missing '# certified_lower_bound: yes' declaration", None
        )
    if not header_seen:
        raise CurveParseError("missing 'v,area' header", None)
    try:
        return TabulatedCurve(tuple(points), label)
    except DomainError as exc:
        raise CurveParseError(str(exc), None) from exc


def _thresholds(report: T2Criticals | T3Criticals) -> tuple[float, float]:
    if isinstance(report, T2Criticals):
        return report.v_star, report.v_dstar
    return report.u_star, report.u_dstar


def _chord(lo_anchor: tuple[float, float], hi_anchor: tuple[float, float], v: float) -> float:
    """Chord between the two exactly-known threshold points; valid by concavity."""
    (v_lo, y_lo), (v_hi, y_hi) = lo_anchor, hi_anchor
    t = (v - v_lo) / (v_hi - v_lo)
    return y_lo + t * (y_hi - y_lo)


def _samples(curve: TabulatedCurve) -> tuple[np.ndarray, np.ndarray]:
    """A curve's sample volumes and areas as two arrays."""
    import numpy as np  # only curves need arrays: band() without one runs without numpy

    return np.array([w for w, _ in curve.points]), np.array([c for _, c in curve.points])


def _tangents(
    anchor: tuple[float, float], side: str, samples, volumes: Sequence[float]
) -> list[float | None]:
    """Best anchor line through each volume's admissible samples; None where there are none.

    Admissible samples sit on the far side of v from the anchor, so v lies
    between the sample and the anchor and concavity makes each line a valid
    lower bound at v. ``side="left"`` is an anchor below the volumes, whose
    admissible samples are ``w >= v``; ``side="right"`` an anchor above them,
    with samples ``w <= v``. The volumes must be sorted ascending and lie
    strictly on that side of the anchor.

    Blocks of at most ``_BLOCK`` elements (a chunk of rows times the samples
    admissible for any row in it, or one row) are evaluated at once, and each
    row masks its inadmissible entries to -inf before the row maximum. No
    block holds a sample at the anchor's volume, so nothing divides by zero.
    Numpy's elementwise + - * / are correctly rounded and max is exact, so
    each value has the bits of the same expression evaluated sample by sample.
    """
    import numpy as np

    v0, a0 = anchor
    w, c = samples
    v = np.array(volumes, dtype=float)
    cuts = np.searchsorted(w, v, side=side)
    peaks = np.full(v.size, -np.inf)
    step = max(1, _BLOCK // w.size)
    for start in range(0, v.size, step):
        rows = slice(start, start + step)
        # The samples admissible for some row of the chunk: from its first
        # row's cut on (w >= v), or up to its last row's (w <= v).
        if side == "left":
            lo, hi = int(cuts[start]), w.size
        else:
            lo, hi = 0, int(cuts[rows][-1])
        if lo == hi:
            continue
        ws, cs, vs = w[lo:hi], c[lo:hi], v[rows, None]
        admissible = ws >= vs if side == "left" else ws <= vs
        values = (a0 - cs) * (vs - ws) / (v0 - ws) + cs
        peaks[rows] = np.where(admissible, values, -np.inf).max(axis=1)
    found = cuts < w.size if side == "left" else cuts > 0
    return [p if f else None for p, f in zip(peaks.tolist(), found.tolist())]


def _offsets(spec: TorusProductSpec, grid: list[float]) -> list[float]:
    """Circle-product profiles shifted down by twice their breakpoint volumes.

    Max over both circle factors, clamped at zero, at every (checked) grid
    volume.
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
    report: T2Criticals | T3Criticals | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BoundBand:
    """Bound band over a sorted positive volume grid.

    Upper is the candidate envelope (exact outside the open threshold
    interval). Lower is the best of chord, tangent-to-curve and offset
    sources inside the interval, and equals the upper value outside it.
    """
    curves = tuple(curves or ())
    grid = [float(v) for v in grid]
    for v in grid:
        if not (v > 0.0) or not math.isfinite(v):
            raise DomainError(f"grid volumes must be positive, got {v!r}")
    if any(map(gt, grid, grid[1:])):
        raise DomainError("grid volumes must be sorted ascending")
    if report is None:
        report = full_report(spec, tolerance=tolerance).criticals
    v_lo, v_hi = _thresholds(report)
    envelope = envelope_piecewise(spec)
    lo_anchor = (v_lo, envelope(v_lo))
    hi_anchor = (v_hi, envelope(v_hi))
    tops, segs = envelope._columns(grid)
    # The grid is sorted, so the rows strictly inside (v_lo, v_hi) are one
    # slice; the exact rows outside it take the upper value as their lower.
    first, stop = bisect_right(grid, v_lo), bisect_left(grid, v_hi)
    inside = grid[first:stop]
    # Each curve's tangent columns over the inside rows, in the fold's order.
    tangents = []
    for curve in curves:
        samples, label = _samples(curve), curve.label or "unlabeled"
        tangents.append((label, "tangent-left", _tangents(lo_anchor, "left", samples, inside)))
        tangents.append((label, "tangent-right", _tangents(hi_anchor, "right", samples, inside)))
    if spec.circle_count == 2:
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
        if spec.circle_count == 2:
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
