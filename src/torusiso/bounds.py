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
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
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


def _samples(curve: TabulatedCurve) -> tuple[list[float], np.ndarray, np.ndarray]:
    """A curve's sample volumes as a list (for bisect) and volumes and areas as arrays."""
    import numpy as np  # only curves need arrays: band() without one runs without numpy

    volumes = [w for w, _ in curve.points]
    return volumes, np.array(volumes), np.array([c for _, c in curve.points])


def _tangent(anchor: tuple[float, float], samples, v: float) -> float | None:
    """Best anchor line through the admissible samples at v; None if there are none.

    Admissible samples sit on the far side of v from the anchor, so v lies
    between the sample and the anchor and concavity makes each line a valid
    lower bound at v. Numpy's elementwise + - * / and max are correctly rounded, so this is
    bit-identical to the same expression evaluated sample by sample.
    """
    v0, a0 = anchor
    volumes, w, c = samples
    if v < v0:
        cut = slice(0, bisect_right(volumes, v))  # samples w <= v
    else:
        cut = slice(bisect_left(volumes, v), None)  # samples w >= v
    w, c = w[cut], c[cut]
    if not w.size:
        return None
    return float((c + (a0 - c) * (v - w) / (v0 - w)).max())


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
    samples = [_samples(curve) for curve in curves]
    if spec.circle_count == 2:
        offsets = _offsets(spec, grid[first:stop])

    lowers, sources = [], []
    for i in range(first, stop):
        v, top = grid[i], tops[i]
        lower = _chord(lo_anchor, hi_anchor, v)
        if top < lower <= top * (1.0 + _TOUCH_RTOL):
            lower = top  # the rounded chord touches the envelope
        source = "chord"
        for curve, curve_samples in zip(curves, samples):
            for anchor, tag in ((lo_anchor, "tangent-left"), (hi_anchor, "tangent-right")):
                value = _tangent(anchor, curve_samples, v)
                if value is None:
                    continue
                if value > top:
                    if value > top * (1.0 + _TOUCH_RTOL):
                        # A genuine lower-bound curve can never push the band
                        # above the candidate envelope.
                        label = curve.label or "unlabeled"
                        raise DomainError(
                            f"curve {label!r} yields lower bound {value} above "
                            f"the envelope {top} at v={v}; it cannot be a "
                            "valid lower bound for this manifold"
                        )
                    value = top  # envelope touch, within rounding
                if value > lower:
                    lower, source = value, tag
        if spec.circle_count == 2:
            offset = offsets[i - first]
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
