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
a proven upper bound for the true one.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np

from .errors import DomainError, GuardError
from .mensuration import (
    TWO_PI,
    TorusProductSpec,
    unit_ball_volume,
    unit_sphere_area,
)

# Relative tolerance for the continuity check at piecewise breakpoints.
_CONTINUITY_RTOL = 1e-9

# Circle-product profiles are only known on this dimension range.
CIRCLE_DIM_RANGE = (2, 7)
# The two-circle envelope and threshold pipeline range.
SCP_DIM_RANGE = (2, 5)
# The three-circle pipeline range.
THREE_TORUS_DIM_RANGE = (2, 4)
# Euclidean profile dimensions accepted.
EUCLIDEAN_DIM_RANGE = (2, 9)

REGIME_BALL = "ball"
REGIME_CYLINDER = "cylinder"
REGIME_SLAB = "slab"


@dataclass(frozen=True)
class ProfileValue:
    """A profile evaluation: the area and the candidate family that wins."""

    area: float
    regime: str


@dataclass(frozen=True)
class PowerSegment:
    """One power law coeff * v^exponent on the half-open interval [v_lo, v_hi)."""

    coeff: float
    exponent: float
    v_lo: float
    v_hi: float
    regime: str

    def __post_init__(self):
        if not (self.coeff > 0.0) or not math.isfinite(self.coeff):
            raise DomainError(f"segment coefficient must be positive, got {self.coeff!r}")
        # Exponent 0 (a constant segment) only arises for the degenerate
        # one-dimensional slab; everything else lies in (0, 1].
        if not 0.0 <= self.exponent <= 1.0:
            raise DomainError(f"segment exponent must be in [0, 1], got {self.exponent!r}")
        if not (0.0 <= self.v_lo < self.v_hi):
            raise DomainError(f"bad segment domain [{self.v_lo}, {self.v_hi})")

    def value(self, v):
        """Evaluate the power law; accepts scalars and numpy arrays."""
        return self.coeff * v**self.exponent

    def contains(self, v: float) -> bool:
        return self.v_lo <= v < self.v_hi

    def solve_value(self, area: float) -> float:
        """Volume at which this power law takes the given area value."""
        if self.exponent == 0.0:
            raise DomainError("a constant segment cannot be inverted")
        return (area / self.coeff) ** (1.0 / self.exponent)


@dataclass(frozen=True)
class PiecewiseProfile:
    """Ordered power segments covering (0, inf) with no gaps or overlaps.

    ``candidates`` is set when the profile is the pointwise minimum of
    those curves (see minimum_envelope); only values() reads it.

    Two tie-breaks coexist at breakpoints. ``__call__``, ``value`` and
    ``segment_at`` use the half-open segments [v_lo, v_hi), so a volume
    exactly on a breakpoint takes the right segment. values() follows the
    scalar profile functions instead, so a grid gives the same bits as a
    loop over envelope_profile: a volume on a breakpoint takes the left
    segment (circle_profile's ``v <= beta``), and a minimum envelope takes
    its first minimal candidate (the scalar ``min``). The two differ in the
    last bit and in the regime tag: for radii (1, 1), n = 2 at
    v = beta(3, 1), the scalar path gives ``ball 224.84192526231706`` and
    ``segment_at`` gives ``cylinder 224.84192526231703``.
    """

    segments: tuple[PowerSegment, ...]
    candidates: tuple[PiecewiseProfile, ...] = field(
        default=(), compare=False, repr=False
    )

    def __post_init__(self):
        segs = tuple(self.segments)
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
        object.__setattr__(self, "segments", segs)

    def segment_at(self, v: float) -> PowerSegment:
        if not (v > 0.0) or not math.isfinite(v):
            raise DomainError(f"volume must be positive, got {v!r}")
        for seg in self.segments:
            if seg.contains(v):
                return seg
        return self.segments[-1]

    def __call__(self, v):
        """Evaluate the profile at a positive scalar volume or numpy array."""
        if isinstance(v, np.ndarray):
            if not np.all(v > 0.0):
                raise DomainError("volumes must be positive")
            out = np.empty(v.shape, dtype=float)
            for seg in self.segments:
                mask = (v >= seg.v_lo) & (v < seg.v_hi)
                out[mask] = seg.value(v[mask])
            return out
        return self.segment_at(float(v)).value(float(v))

    def value(self, v: float) -> ProfileValue:
        seg = self.segment_at(float(v))
        return ProfileValue(seg.value(float(v)), seg.regime)

    def values(self, volumes) -> list[ProfileValue]:
        """Evaluate a volume grid, bit for bit as the scalar profile functions.

        A minimum envelope takes the first minimal value of its candidates
        row by row, as the scalar ``min`` does; any other profile bisects
        its breakpoints with the scalar tie-break. Areas use Python float
        pow: numpy's array pow differs from it in the last bit for some
        volumes, which would change the printed digits.
        """
        volumes = [_check_volume(v) for v in volumes]
        return [ProfileValue(area, regime) for area, regime in self._rows(volumes)]

    def _rows(self, volumes: list[float]) -> list[tuple[float, str]]:
        # (area, regime) pairs for checked volumes: plain tuples keep the
        # candidate columns of a minimum envelope cheap.
        if self.candidates:
            columns = [c._rows(volumes) for c in self.candidates]
            return [min(row, key=itemgetter(0)) for row in zip(*columns)]
        cuts = self.breakpoints()
        segments = self.segments
        rows = []
        for v in volumes:
            seg = segments[bisect_left(cuts, v)]
            rows.append((seg.coeff * v**seg.exponent, seg.regime))
        return rows

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(seg.v_hi for seg in self.segments[:-1])

    def solve_value(self, area: float) -> float:
        """Volume at which this (strictly increasing) profile reaches ``area``."""
        if not (area > 0.0) or not math.isfinite(area):
            raise DomainError(f"area must be positive, got {area!r}")
        for seg in self.segments[:-1]:
            if area <= seg.value(seg.v_hi):
                return seg.solve_value(area)
        return self.segments[-1].solve_value(area)


def _check_volume(v: float) -> float:
    v = float(v)
    if not (v > 0.0) or not math.isfinite(v):
        raise DomainError(f"volume must be a positive finite real, got {v!r}")
    return v


def _check_radius(r: float) -> float:
    r = float(r)
    if not (r > 0.0) or not math.isfinite(r):
        raise DomainError(f"radius must be a positive finite real, got {r!r}")
    return r


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


def euclidean_profile(m: int, v: float) -> ProfileValue:
    """Boundary area of the round m-ball of volume v (the profile of R^m)."""
    _check_range(m, EUCLIDEAN_DIM_RANGE, "the Euclidean profile")
    v = _check_volume(v)
    coeff = tube_area_coefficient(1.0, m)
    return ProfileValue(coeff * v ** ((m - 1.0) / m), REGIME_BALL)


def beta(n: int, r: float) -> float:
    """Critical volume in the circle-cross-R^n product where cylinders take over.

    Below this volume round balls minimize boundary area, above it the
    circle-cross-ball cylinders do; the value is the unique crossing of the
    two power laws.
    """
    _check_range(n, CIRCLE_DIM_RANGE, "the circle-product profile")
    r = _check_radius(r)
    w_prev = unit_sphere_area(n - 1)
    w_n = unit_sphere_area(n)
    return (
        float(n) ** ((n - 1) * (n + 1))
        * (TWO_PI * r * w_prev) ** (n + 1)
        * float(1 + n) ** (-(n * n))
        * w_n ** (-n)
    )


def _circle_segments(n: int, r: float) -> tuple[PowerSegment, PowerSegment]:
    bp = beta(n, r)
    ball = PowerSegment(
        tube_area_coefficient(1.0, n + 1), n / (n + 1.0), 0.0, bp, REGIME_BALL
    )
    cylinder = PowerSegment(
        tube_area_coefficient(TWO_PI * r, n), (n - 1.0) / n, bp, math.inf, REGIME_CYLINDER
    )
    return ball, cylinder


def circle_profile(n: int, r: float, v: float) -> ProfileValue:
    """Profile of the circle-cross-R^n product: ball branch up to beta(n, r),
    cylinder branch beyond it."""
    v = _check_volume(v)
    ball, cylinder = _circle_segments(n, r)
    if v <= ball.v_hi:
        return ProfileValue(ball.value(v), REGIME_BALL)
    return ProfileValue(cylinder.value(v), REGIME_CYLINDER)


def alpha(n: int, r: float) -> float:
    """Profile value at the breakpoint beta(n, r), where both branches agree."""
    return circle_profile(n, r, beta(n, r)).area


def _slab_value(spec: TorusProductSpec, v: float) -> float:
    n = spec.euclid_dim
    coeff = tube_area_coefficient(spec.torus_measure(), n)
    return coeff * v ** ((n - 1.0) / n)


def slab2_profile(spec: TorusProductSpec, v: float) -> ProfileValue:
    """Area of (two-circle torus) x B^n at volume v.

    A single power law with exponent (n-1)/n; for n = 1 it degenerates to
    the constant 2 * (torus area), the two flat copies bounding a slab.
    """
    if spec.circle_count != 2:
        raise GuardError(f"slab2_profile needs exactly 2 circle factors, got {spec.circle_count}")
    return ProfileValue(_slab_value(spec, _check_volume(v)), REGIME_SLAB)


def slab3_profile(spec: TorusProductSpec, v: float) -> ProfileValue:
    """Area of (three-circle torus) x B^n at volume v; same law as slab2_profile."""
    if spec.circle_count != 3:
        raise GuardError(f"slab3_profile needs exactly 3 circle factors, got {spec.circle_count}")
    return ProfileValue(_slab_value(spec, _check_volume(v)), REGIME_SLAB)


def scp_profile(spec: TorusProductSpec, v: float) -> ProfileValue:
    """Spheres-cylinders-planes envelope for a two-circle product.

    The pointwise minimum of the smallest-circle product profile and the
    slab profile. This is the conjectured isoperimetric profile and a proven
    upper bound everywhere; the criticals pipeline certifies where it is
    exact. Ties go to the circle-product branch.
    """
    if spec.circle_count != 2:
        raise GuardError(f"scp_profile needs exactly 2 circle factors, got {spec.circle_count}")
    n = _check_range(spec.euclid_dim, SCP_DIM_RANGE, "the two-circle envelope")
    v = _check_volume(v)
    circle = circle_profile(n + 1, spec.radii[0], v)
    slab = slab2_profile(spec, v)
    return circle if circle.area <= slab.area else slab


def envelope_profile(spec: TorusProductSpec, v: float) -> ProfileValue:
    """Candidate-family envelope for one, two or three circle factors.

    k = 1 is the known circle-product profile; k = 2 the scp envelope;
    k = 3 the minimum over one-circle cylinders, two-circle slabs one
    dimension up (tagged "slab2") and the full three-circle slab.
    """
    k = spec.circle_count
    n = spec.euclid_dim
    v = _check_volume(v)
    if k == 1:
        _check_range(n, CIRCLE_DIM_RANGE, "the circle-product profile")
        return circle_profile(n, spec.radii[0], v)
    if k == 2:
        return scp_profile(spec, v)
    if k == 3:
        _check_range(n, THREE_TORUS_DIM_RANGE, "the three-circle envelope")
        r1, r2, _ = spec.radii
        two_up = TorusProductSpec((r1, r2), n + 1)
        candidates = [
            circle_profile(n + 2, r1, v),
            ProfileValue(_slab_value(two_up, v), "slab2"),
            slab3_profile(spec, v),
        ]
        return min(candidates, key=lambda p: p.area)
    raise GuardError(f"no candidate envelope for {k} circle factors")


# ---------------------------------------------------------------------------
# Piecewise decompositions.


def euclidean_piecewise(m: int) -> PiecewiseProfile:
    _check_range(m, EUCLIDEAN_DIM_RANGE, "the Euclidean profile")
    seg = PowerSegment(
        tube_area_coefficient(1.0, m), (m - 1.0) / m, 0.0, math.inf, REGIME_BALL
    )
    return PiecewiseProfile((seg,))


def circle_piecewise(n: int, r: float) -> PiecewiseProfile:
    return PiecewiseProfile(_circle_segments(n, r))


def slab2_piecewise(spec: TorusProductSpec) -> PiecewiseProfile:
    if spec.circle_count != 2:
        raise GuardError(f"slab2_piecewise needs exactly 2 circle factors, got {spec.circle_count}")
    n = spec.euclid_dim
    seg = PowerSegment(
        tube_area_coefficient(spec.torus_measure(), n),
        (n - 1.0) / n,
        0.0,
        math.inf,
        REGIME_SLAB,
    )
    return PiecewiseProfile((seg,))


def slab3_piecewise(spec: TorusProductSpec) -> PiecewiseProfile:
    if spec.circle_count != 3:
        raise GuardError(f"slab3_piecewise needs exactly 3 circle factors, got {spec.circle_count}")
    n = spec.euclid_dim
    seg = PowerSegment(
        tube_area_coefficient(spec.torus_measure(), n),
        (n - 1.0) / n,
        0.0,
        math.inf,
        REGIME_SLAB,
    )
    return PiecewiseProfile((seg,))


def _segment_crossing(a: PowerSegment, b: PowerSegment) -> float | None:
    """Unique positive crossing of two distinct power laws, or None."""
    if a.exponent == b.exponent:
        return None
    return (b.coeff / a.coeff) ** (1.0 / (a.exponent - b.exponent))


def _probe_point(lo: float, hi: float) -> float:
    if math.isinf(hi):
        return max(2.0 * lo, 1.0)
    if lo == 0.0:
        return 0.5 * hi
    return math.sqrt(lo * hi)


def minimum_envelope(curves: list[PiecewiseProfile]) -> PiecewiseProfile:
    """Pointwise minimum of piecewise power-law profiles, as a new profile.

    Breakpoints are the curves' own breakpoints plus the closed-form
    crossings of overlapping segment pairs; the winner on each interval is
    decided at an interior probe point. The result keeps ``curves`` as its
    candidates, in the given order, so values() takes the same minimum row
    by row as a scalar ``min`` over the same list.
    """
    points: set[float] = set()
    for curve in curves:
        points.update(curve.breakpoints())
    for ca, cb in itertools.combinations(curves, 2):
        for sa in ca.segments:
            for sb in cb.segments:
                lo = max(sa.v_lo, sb.v_lo)
                hi = min(sa.v_hi, sb.v_hi)
                if hi <= lo:
                    continue
                x = _segment_crossing(sa, sb)
                if x is not None and lo < x < hi:
                    points.add(x)
    ordered = []
    for p in sorted(points):
        if not ordered or p - ordered[-1] > 1e-12 * p:
            ordered.append(p)
    edges = [0.0, *ordered, math.inf]
    segments = []
    for lo, hi in itertools.pairwise(edges):
        probe = _probe_point(lo, hi)
        winner = min(curves, key=lambda c: c(probe))
        src = winner.segment_at(probe)
        segments.append(PowerSegment(src.coeff, src.exponent, lo, hi, src.regime))
    merged: list[PowerSegment] = []
    for seg in segments:
        if merged and (
            merged[-1].coeff == seg.coeff
            and merged[-1].exponent == seg.exponent
            and merged[-1].regime == seg.regime
        ):
            merged[-1] = replace(merged[-1], v_hi=seg.v_hi)
        else:
            merged.append(seg)
    return PiecewiseProfile(tuple(merged), tuple(curves))


def _retag(profile: PiecewiseProfile, regime: str) -> PiecewiseProfile:
    return PiecewiseProfile(tuple(replace(s, regime=regime) for s in profile.segments))


def scp_piecewise(spec: TorusProductSpec) -> PiecewiseProfile:
    """Exact segment decomposition of the two-circle scp envelope."""
    if spec.circle_count != 2:
        raise GuardError(f"scp_piecewise needs exactly 2 circle factors, got {spec.circle_count}")
    n = _check_range(spec.euclid_dim, SCP_DIM_RANGE, "the two-circle envelope")
    return minimum_envelope([circle_piecewise(n + 1, spec.radii[0]), slab2_piecewise(spec)])


def envelope_piecewise(spec: TorusProductSpec) -> PiecewiseProfile:
    """Piecewise form of envelope_profile for one, two or three circles."""
    k = spec.circle_count
    n = spec.euclid_dim
    if k == 1:
        _check_range(n, CIRCLE_DIM_RANGE, "the circle-product profile")
        return circle_piecewise(n, spec.radii[0])
    if k == 2:
        return scp_piecewise(spec)
    if k == 3:
        _check_range(n, THREE_TORUS_DIM_RANGE, "the three-circle envelope")
        r1, r2, _ = spec.radii
        two_up = TorusProductSpec((r1, r2), n + 1)
        return minimum_envelope(
            [
                circle_piecewise(n + 2, r1),
                _retag(slab2_piecewise(two_up), "slab2"),
                slab3_piecewise(spec),
            ]
        )
    raise GuardError(f"no candidate envelope for {k} circle factors")


_SELECTORS = {
    "euclidean": lambda spec, n, r: euclidean_piecewise(n),
    "circle": lambda spec, n, r: circle_piecewise(n, r),
    "slab2": lambda spec, n, r: slab2_piecewise(spec),
    "slab3": lambda spec, n, r: slab3_piecewise(spec),
    "scp": lambda spec, n, r: scp_piecewise(spec),
    "envelope": lambda spec, n, r: envelope_piecewise(spec),
}


def as_piecewise(
    selector: str,
    spec: TorusProductSpec | None = None,
    *,
    n: int | None = None,
    r: float | None = None,
) -> PiecewiseProfile:
    """Exact segment decomposition of a named profile.

    "euclidean" needs n (the ball dimension), "circle" needs n and r, the
    slab/scp/envelope selectors need a spec.
    """
    try:
        builder = _SELECTORS[selector]
    except KeyError:
        raise DomainError(
            f"unsupported profile selector {selector!r}; "
            f"expected one of {sorted(_SELECTORS)}"
        ) from None
    if selector == "euclidean":
        if n is None:
            raise DomainError("as_piecewise('euclidean') needs n")
    elif selector == "circle":
        if n is None or r is None:
            raise DomainError("as_piecewise('circle') needs n and r")
    elif spec is None:
        raise DomainError(f"as_piecewise({selector!r}) needs a spec")
    return builder(spec, n, r)
