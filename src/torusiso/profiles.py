"""Closed-form isoperimetric profiles as exact piecewise power laws.

Every candidate family handled here (balls, circle-cross-ball cylinders,
torus-cross-ball slabs) has boundary area  coeff * v^p  as a function of
enclosed volume v, so a profile is a finite list of power segments. Keeping
the (coeff, exponent) pairs symbolic lets the threshold pipelines solve
profile differences per segment instead of differentiating numerically.

The single-circle product profile is the two-branch curve

    area(v) = (1+n)^(n/(1+n)) w_n^(1/(1+n)) v^(n/(1+n))        v <= beta_n(r)
    area(v) = n^((n-1)/n) (2 pi r w_(n-1))^(1/n) v^((n-1)/n)   v >  beta_n(r)

with w_n the unit n-sphere area and beta_n(r) the volume where balls stop
winning and round cylinders take over:

    beta_n(r) = n^((n-1)(n+1)) (2 pi r w_(n-1))^(n+1) (1+n)^(-n^2) w_n^(-n)

valid for 2 <= n <= 7. Slab profiles (full torus cross ball) are single
power segments; the spheres-cylinders-planes envelope is the pointwise
minimum over the candidate families and is both the conjectured profile and
a proven upper bound for the true one. Every profile is a PiecewiseProfile,
which is the only evaluator: see its docstring for the breakpoint rule.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from bisect import bisect_left, bisect_right

from .errors import DomainError, GuardError, positive_finite
from .mensuration import (
    EUCLID_DIM_RANGES,
    TWO_PI,
    TorusProductSpec,
    unit_ball_volume,
    unit_sphere_area,
)
from .records import record

# Relative tolerance for the continuity check at piecewise breakpoints.
_CONTINUITY_RTOL = 1e-9

# Relative margin around every point minimum_envelope keeps (the envelope's
# cuts, its candidates' breakpoints and the crossings it found) within which
# values() evaluates a row on its own through segment_at's rule, which
# compares all the candidates; every other row takes the law of the
# candidate segment that wins its interval. Let u = 2**-53, and let any two
# overlapping segments of two candidates differ in exponent by at least
# d = _EXPONENT_GAP = 2**-7 (other envelopes evaluate every row on its own;
# the package's families have exponents (m-1)/m, m <= 10, which lie at
# least 1/90 apart).
#   * A computed area coeff * v**p that is a normal double is within 2u of
#     its exact value (pow within an ulp, one product), so two computed
#     areas compare as the exact ones do once these differ by more than 8u
#     relative: about 4 units of roundoff per compared area.
#   * At relative distance t from their crossing x, two laws d apart in
#     exponent differ by a relative (1 + t)**d - 1, about d*t, so their
#     order is decided beyond t = 8u/d = 2**10 u, about 1.2e-13.
#   * The closed-form crossing x = (b/a) ** (1/(p - q)) takes one rounding
#     in the ratio, two in 1/(p - q) and one in the pow, so log x is off by
#     at most 2u*|log x| + u/d + 2u. Whatever the coefficient ratio, a
#     normal double x has |log x| < 710, so x is within (1420 + 128 + 2) u,
#     about 1.8e-13, relative of the exact crossing.
#   * minimum_envelope drops a point within 1e-12 relative above the last
#     point it kept, so a winner can change, or a candidate's segment end,
#     up to 1e-12 past a kept point.
# Together that is under 1.4e-12, so 1e-9 is safe about 700 times over, and
# almost no grid row falls so close to a cut. The same bounds make the probe
# of an interval wide enough to hold such rows, which lies beyond the
# margins, pick the exact winner of those rows, provided the probe is a
# normal volume and its winning area lies in _AREA_RANGE: every other area
# there is at least as large, so normal or infinite, and compares as the
# exact one does. An interval whose probe is not keeps no piece; an area
# that overflows or underflows at the probe can hand the tie to the wrong
# candidate. Volumes outside the normal doubles, where a crossing can lose
# its relative accuracy or overflow, and rows whose winning area is not a
# normal double, take all the candidates too. (For a normal volume v,
# v**p lies between v and 1, so it is a normal double as well.)
_CUT_MARGIN = 1e-9
_EXPONENT_GAP = 2.0**-7

# The winning areas of a row block that compare within the roundoff above:
# twice the smallest normal double up to half the largest, so that every
# area of an ascending block lies in the normal range.
_AREA_RANGE = (2.0 * sys.float_info.min, 0.5 * sys.float_info.max)

# Euclidean profile dimensions accepted.
EUCLIDEAN_DIM_RANGE = (2, 9)

# The cache of beta, circle_piecewise, slab_piecewise, the per-spec
# builders behind envelope_piecewise and criticals.full_report,
# bounds._parse_curve, which builds a curve once per file text,
# bounds._slope_table, which scans a curve's tangent slopes once per anchor,
# and cli._grid, which builds a volume grid once per grid text.
# full_report on a three-circle spec builds 13 distinct betas, circle
# profiles and slabs, and band then asks for some of them again; a repeated
# band, bounds or profile call on one spec skips its solves and its envelope
# build, a curve file read again with the same content skips its parse
# and, from the same anchors, its tangent scans, and a grid text seen before
# skips its parse. Keys include
# argument types, so n = 3.0 is never served the entry for n = 3 and still
# meets its guard; refusals raise, so they are never stored. Each builder
# keeps at most 32 entries, which bounds the memory, so a stream of distinct
# specs reuses nothing across specs. Every cached builder is listed in
# _cached_builders.
_cached_builders = []


def _profile_cache(builder):
    cached = functools.lru_cache(maxsize=32, typed=True)(builder)
    _cached_builders.append(cached)
    return cached


REGIME_BALL = "ball"
REGIME_CYLINDER = "cylinder"
REGIME_SLAB = "slab"


class PowerSegment(record("PowerSegment", "coeff exponent v_lo v_hi regime")):
    """One power law coeff * v^exponent on the interval (v_lo, v_hi].

    The interval is closed on the right: a volume exactly on a breakpoint
    belongs to the segment that ends there (see PiecewiseProfile).
    """

    __slots__ = ()

    def __new__(cls, coeff: float, exponent: float, v_lo: float, v_hi: float, regime: str):
        positive_finite(coeff, "segment coefficient")
        if not 0.0 < exponent <= 1.0:
            raise DomainError(f"segment exponent must be in (0, 1], got {exponent!r}")
        if not (0.0 <= v_lo < v_hi):
            raise DomainError(f"bad segment domain ({v_lo}, {v_hi}]")
        return tuple.__new__(cls, (coeff, exponent, v_lo, v_hi, regime))

    def value(self, v):
        """Evaluate the power law at v."""
        return self.coeff * v**self.exponent

    def solve_value(self, area: float) -> float:
        """Volume at which this power law takes the given area value.

        A volume past the largest double is refused by name.
        """
        try:
            volume = (area / self.coeff) ** (1.0 / self.exponent)
        except OverflowError:
            volume = math.inf
        if volume == math.inf:
            raise DomainError(
                f"the volume where the profile reaches area {area!r} is past the largest double"
            )
        return volume


class PiecewiseProfile(record("PiecewiseProfile", "segments candidates")):
    """Ordered power segments covering (0, inf) with no gaps or overlaps.

    One breakpoint rule decides which power law gives the value at v:

    * a volume exactly on a breakpoint takes the left segment (the ball
      branch at v = beta, as in ``v <= beta``);
    * a minimum envelope (``candidates`` set, see minimum_envelope) is
      evaluated through its candidates and takes the first minimal one, so
      a tie goes to the earlier curve. Its ``segments`` record where each
      candidate wins, for solving and for listing regimes; equality and
      hashing read the segments alone.

    ``segment_at`` applies it and gives the winning power law; ``__call__``
    is that law's area at one volume, and ``values`` gives each row of a
    volume grid the same pair as ``(areas, segments)`` columns
    (``segment.regime`` names the winning family). For radii (1, 1), n = 2
    at v = beta(3, 1) each gives area 224.84192526231706 from the ball
    segment. ``values`` evaluates an envelope interval through the
    candidate that wins it, and only the rows within _CUT_MARGIN of a cut
    one at a time through ``segment_at``'s rule.
    """

    # (lo, hi, segment) triples, see _columns: a plain profile's segments,
    # set in __new__, or minimum_envelope's; an envelope with none sends
    # every row through _segment.
    _pieces: tuple = ()

    def __new__(cls, segments: tuple[PowerSegment, ...], candidates: tuple = ()):
        segs = tuple(segments)
        if not segs:
            raise DomainError("a piecewise profile needs at least one segment")
        if segs[0].v_lo != 0.0:
            raise DomainError("segments must start at volume 0")
        if not math.isinf(segs[-1].v_hi):
            raise DomainError("segments must extend to infinite volume")
        for left, right in itertools.pairwise(segs):
            if left.v_hi != right.v_lo:
                raise DomainError(
                    f"gap or overlap between segments at {left.v_hi} vs {right.v_lo}"
                )
            a = left.value(left.v_hi)
            b = right.value(left.v_hi)
            if abs(a - b) > _CONTINUITY_RTOL * max(abs(a), abs(b)):
                raise DomainError(
                    f"discontinuity at breakpoint {left.v_hi}: {a} vs {b}"
                )
        self = tuple.__new__(cls, (segs, candidates))
        object.__setattr__(self, "_cuts", tuple(seg.v_hi for seg in segs[:-1]))
        if not candidates:
            object.__setattr__(self, "_pieces", tuple((s.v_lo, s.v_hi, s) for s in segs))
        return self

    def __eq__(self, other):
        return type(other) is type(self) and self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)

    def segment_at(self, v: float) -> PowerSegment:
        """The segment whose power law gives the profile's value at v.

        For a minimum envelope this is a segment of the winning candidate.
        """
        return self._segment(positive_finite(float(v), "volume"))

    def _segment(self, v: float) -> PowerSegment:
        # segment_at at a checked volume.
        if self.candidates:
            return _winning_segment(self.candidates, v)
        return self.segments[bisect_left(self._cuts, v)]

    def __call__(self, v: float) -> float:
        """The area at a positive finite volume v: the law of segment_at(v)."""
        v = positive_finite(float(v), "volume")
        seg = self._segment(v)
        return seg.coeff * v**seg.exponent

    def values(self, volumes) -> tuple[list[float], list[PowerSegment]]:
        """Evaluate a volume grid as two columns, ``(areas, segments)``.

        Row i has the bits of ``__call__`` and ``segment_at`` at
        ``volumes[i]``. Areas use Python float pow: a vectorised array pow
        can differ from it in the last bit, which would change printed
        digits. Unsorted volumes are evaluated one row at a time.
        """
        volumes = [positive_finite(float(v), "volume") for v in volumes]
        if volumes == sorted(volumes):
            return self._columns(volumes)
        return self._compared(volumes)

    def _columns(self, volumes: list[float]) -> tuple[list[float], list[PowerSegment]]:
        # values() on checked volumes in ascending order. The pieces are
        # found by bisection, so an unsorted list gives wrong rows without an
        # error: values() sends those to _compared, and parse_grid and band
        # order and check their grids. A piece (lo, hi, segment) gives the
        # segment's law to the rows lo < v <= hi, one slice of the grid. A
        # plain profile's pieces are its segments; an envelope's come from
        # minimum_envelope, and the rows between them go through _compared.
        areas: list[float] = []
        segs: list[PowerSegment] = []
        start = 0
        for lo, hi, seg in self._pieces:
            first = bisect_right(volumes, lo, start)
            stop = bisect_right(volumes, hi, first)
            if first == stop:
                continue
            coeff, exponent = seg.coeff, seg.exponent
            won = [coeff * v**exponent for v in volumes[first:stop]]
            # An envelope's ascending block whose areas are not all normal
            # doubles is left to the candidates.
            if self.candidates and not (_AREA_RANGE[0] <= won[0] and won[-1] <= _AREA_RANGE[1]):
                continue
            if start < first:
                near_areas, near_segs = self._compared(volumes[start:first])
                areas += near_areas
                segs += near_segs
            areas += won
            segs += [seg] * (stop - first)
            start = stop
        if start < len(volumes):
            near_areas, near_segs = self._compared(volumes[start:])
            areas += near_areas
            segs += near_segs
        return areas, segs

    def _compared(self, volumes: list[float]) -> tuple[list[float], list[PowerSegment]]:
        # values() on checked volumes in any order, one row at a time
        # through _segment: _winning_segment alone compares candidates.
        segs = [self._segment(v) for v in volumes]
        return [seg.coeff * v**seg.exponent for v, seg in zip(volumes, segs)], segs

    def breakpoints(self) -> tuple[float, ...]:
        return self._cuts

    def solve_value(self, area: float) -> float:
        """Volume at which this (strictly increasing) profile reaches ``area``."""
        positive_finite(area, "area")
        for seg in self.segments[:-1]:
            if area <= seg.value(seg.v_hi):
                return seg.solve_value(area)
        return self.segments[-1].solve_value(area)


def _winning_segment(curves, v: float) -> PowerSegment:
    """The segment of the first minimal curve at a checked volume v.

    Each curve is evaluated once, and a later curve wins only when its area
    is strictly smaller.
    """
    best = area = None
    for curve in curves:
        seg = curve._segment(v)
        value = seg.coeff * v**seg.exponent
        if best is None or value < area:
            best, area = seg, value
    return best


def _check_range(value: int, lo_hi: tuple[int, int], what: str) -> int:
    lo, hi = lo_hi
    if not isinstance(value, int) or isinstance(value, bool) or not lo <= value <= hi:
        raise GuardError(f"{what} requires {lo} <= n <= {hi}, got {value!r}")
    return value


def tube_area_coefficient(circle_measure: float, m: int) -> float:
    """Coefficient of the area law for (circles) x B^m regions.

    A region made of circle factors of total measure ``circle_measure``
    crossed with an m-ball has boundary area coeff * v^((m-1)/m) at volume
    v, with coeff = m * (circle_measure * b_m)^(1/m). circle_measure = 1
    gives the plain Euclidean ball law.
    """
    return m * (circle_measure * unit_ball_volume(m)) ** (1.0 / m)


def euclidean_piecewise(m: int) -> PiecewiseProfile:
    """Profile of R^m: the round-ball law, one segment with exponent (m-1)/m.

    Built once per dimension; only a checked int reaches the table.
    """
    return _euclidean_piecewise(_check_range(m, EUCLIDEAN_DIM_RANGE, "the Euclidean profile"))


@functools.cache
def _euclidean_piecewise(m: int) -> PiecewiseProfile:
    seg = PowerSegment(
        tube_area_coefficient(1.0, m), (m - 1.0) / m, 0.0, math.inf, REGIME_BALL
    )
    return PiecewiseProfile((seg,))


@_profile_cache
def beta(n: int, r: float) -> float:
    """Critical volume in the circle-cross-R^n product where cylinders take over.

    Below this volume round balls minimize boundary area, above it the
    circle-cross-ball cylinders do; the value is the unique crossing of the
    two power laws. Radii so extreme that this volume overflows or
    underflows to a subnormal are refused.
    """
    _check_range(n, EUCLID_DIM_RANGES[1], "the circle-product profile")
    r = positive_finite(float(r), "radius")
    w_prev = unit_sphere_area(n - 1)
    w_n = unit_sphere_area(n)
    try:
        volume = (
            float(n) ** ((n - 1) * (n + 1))
            * (TWO_PI * r * w_prev) ** (n + 1)
            * float(1 + n) ** (-(n * n))
            * w_n ** (-n)
        )
    except OverflowError:
        volume = math.inf
    if not sys.float_info.min <= volume < math.inf:
        # The (n+1)-th power of 2 pi r w_(n-1) leaves the double range long
        # before beta does: root each factor apart and take the power once.
        try:
            volume = (
                float(n) ** (n - 1)
                * (TWO_PI * r * w_prev)
                / (float(1 + n) ** (n * n / (n + 1.0)) * w_n ** (n / (n + 1.0)))
            ) ** (n + 1)
        except OverflowError:
            volume = math.inf
    if not (volume >= sys.float_info.min) or not math.isfinite(volume):
        raise DomainError(
            f"the breakpoint volume beta(n={n}, r={r!r}) is not a normal positive "
            f"double (got {volume!r})"
        )
    return volume


# ---------------------------------------------------------------------------
# Piecewise decompositions.


@_profile_cache
def circle_piecewise(n: int, r: float) -> PiecewiseProfile:
    """Profile of the circle-cross-R^n product: ball branch up to beta(n, r),
    cylinder branch beyond it."""
    bp = beta(n, r)
    ball = PowerSegment(
        tube_area_coefficient(1.0, n + 1), n / (n + 1.0), 0.0, bp, REGIME_BALL
    )
    cylinder = PowerSegment(
        tube_area_coefficient(TWO_PI * r, n), (n - 1.0) / n, bp, math.inf, REGIME_CYLINDER
    )
    return PiecewiseProfile((ball, cylinder))


@_profile_cache
def slab_piecewise(spec: TorusProductSpec) -> PiecewiseProfile:
    """Area of (full torus) x B^n: one power law with exponent (n-1)/n.

    Radii whose product of circumferences drives the coefficient past the
    double range are refused by name.
    """
    if spec.circle_count < 2:
        raise GuardError(
            f"slab_piecewise needs 2 or 3 circle factors, got {spec.circle_count}"
        )
    n = spec.euclid_dim
    measure = spec.torus_measure()
    coeff = tube_area_coefficient(measure, n)
    if not 0.0 < coeff < math.inf:
        raise DomainError(
            f"the slab area coefficient for radii {spec.radii!r}, n = {n} is not a "
            f"positive finite double (torus measure {measure!r}, coefficient {coeff!r})"
        )
    seg = PowerSegment(coeff, (n - 1.0) / n, 0.0, math.inf, REGIME_SLAB)
    return PiecewiseProfile((seg,))


def _segment_crossing(a: PowerSegment, b: PowerSegment) -> float | None:
    """Unique positive crossing of two distinct power laws, or None.

    None also when the crossing overflows, or when the coefficient ratio
    underflows to 0.0 under a negative power: the crossing then lies beyond
    every double volume, so it cannot split a segment.
    """
    if a.exponent == b.exponent:
        return None
    try:
        return (b.coeff / a.coeff) ** (1.0 / (a.exponent - b.exponent))
    except (OverflowError, ZeroDivisionError):
        return None


def _probe_point(lo: float, hi: float) -> float:
    if math.isinf(hi):
        return max(2.0 * lo, 1.0)
    if lo == 0.0:
        return 0.5 * hi
    return math.sqrt(lo) * math.sqrt(hi)  # lo * hi can leave the double range


def minimum_envelope(
    curves: list[PiecewiseProfile], spec: TorusProductSpec | None = None
) -> PiecewiseProfile:
    """Pointwise minimum of piecewise power-law profiles, as a new profile.

    Breakpoints are the curves' own breakpoints plus the closed-form
    crossings of overlapping segment pairs; the winner on each interval is
    decided at an interior probe point. The result keeps ``curves`` as its
    candidates, in the given order, and is evaluated through them (see
    PiecewiseProfile); each interval's winning segment alone gives the grid
    rows farther than _CUT_MARGIN from its ends, unless two overlapping
    segments of two curves lie within _EXPONENT_GAP in exponent or a curve
    is itself an envelope. A last breakpoint past half the largest double
    leaves no volume to probe beyond it, and is refused by name; ``spec``,
    when given, names the radii it came from.
    """
    points: dict[float, str] = {}  # each breakpoint and what it is
    # Whether the winner of an interval gives its rows (see _CUT_MARGIN):
    # no curve is an envelope, and no two overlapping segments of two
    # curves lie within _EXPONENT_GAP in exponent.
    separated = True
    for curve in curves:
        separated = separated and not curve.candidates
        for left, right in itertools.pairwise(curve.segments):
            points.setdefault(left.v_hi, f"{left.regime}/{right.regime} breakpoint")
    for ca, cb in itertools.combinations(curves, 2):
        for sa in ca.segments:
            for sb in cb.segments:
                lo = max(sa.v_lo, sb.v_lo)
                hi = min(sa.v_hi, sb.v_hi)
                if hi <= lo:
                    continue
                separated = separated and abs(sa.exponent - sb.exponent) >= _EXPONENT_GAP
                x = _segment_crossing(sa, sb)
                if x is not None and lo < x < hi:
                    points.setdefault(x, f"{sa.regime}/{sb.regime} crossing")
    ordered = []
    for p in sorted(points):
        if not ordered or p - ordered[-1] > 1e-12 * p:
            ordered.append(p)
    edges = [0.0, *ordered, math.inf]
    low, high = sys.float_info.min, sys.float_info.max
    grow, shrink = 1.0 + _CUT_MARGIN, 1.0 - _CUT_MARGIN
    segments, pieces = [], []
    for lo, hi in itertools.pairwise(edges):
        probe = _probe_point(lo, hi)
        if probe == math.inf:
            where = "" if spec is None else f" for radii {spec.radii!r}, n = {spec.euclid_dim}"
            raise DomainError(
                f"the envelope's {points[lo]} v = {lo!r}{where} is past half the largest "
                "double, so no volume beyond it can be probed"
            )
        src = _winning_segment(curves, positive_finite(float(probe), "volume"))
        segments.append(PowerSegment(src.coeff, src.exponent, lo, hi, src.regime))
        # The interval's normal volumes farther than _CUT_MARGIN from its
        # ends take src's law, if the probe is a normal volume whose winning
        # area lies in _AREA_RANGE (see _CUT_MARGIN).
        a = (lo if lo > low else low) * grow
        b = (hi if hi < high else high) * shrink
        won = src.coeff * probe**src.exponent
        if separated and a < b and probe >= low and _AREA_RANGE[0] <= won <= _AREA_RANGE[1]:
            pieces.append((a, b, src))
    merged: list[PowerSegment] = []
    for seg in segments:
        if merged and (
            merged[-1].coeff == seg.coeff
            and merged[-1].exponent == seg.exponent
            and merged[-1].regime == seg.regime
        ):
            merged[-1] = merged[-1]._replace(v_hi=seg.v_hi)
        else:
            merged.append(seg)
    result = PiecewiseProfile(tuple(merged), tuple(curves))
    if pieces:  # (lo, hi, segment) triples, see _columns
        object.__setattr__(result, "_pieces", tuple(pieces))
    return result


def _retag(profile: PiecewiseProfile, regime: str) -> PiecewiseProfile:
    return PiecewiseProfile(tuple(s._replace(regime=regime) for s in profile.segments))


def envelope_piecewise(spec: TorusProductSpec) -> PiecewiseProfile:
    """Candidate-family envelope for one, two or three circle factors.

    k = 1 is the known circle-product profile. k = 2 is the
    spheres-cylinders-planes envelope: the minimum of the smallest-circle
    product profile and the slab profile, ties going to the circle-product
    branch. k = 3 is the minimum over one-circle cylinders, two-circle slabs
    one dimension up (tagged "slab2") and the full three-circle slab. For
    k >= 2 the envelope is the conjectured isoperimetric profile and a proven
    upper bound everywhere; the criticals pipeline certifies where it is
    exact. Built once per spec (see _profile_cache); the profile is
    immutable, so every caller shares it.
    """
    return _envelope_piecewise(spec)


@_profile_cache
def _envelope_piecewise(spec: TorusProductSpec) -> PiecewiseProfile:
    k = spec.circle_count
    n = spec.euclid_dim
    if k == 1:
        return circle_piecewise(n, spec.radii[0])
    if k == 2:
        circle = circle_piecewise(n + 1, spec.radii[0])
        return minimum_envelope([circle, slab_piecewise(spec)], spec)
    r1, r2, _ = spec.radii
    two_up = TorusProductSpec((r1, r2), n + 1)
    return minimum_envelope(
        [
            circle_piecewise(n + 2, r1),
            _retag(slab_piecewise(two_up), "slab2"),
            slab_piecewise(spec),
        ],
        spec,
    )

