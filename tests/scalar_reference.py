"""Scalar references: closed-form profiles one volume at a time, and the gap solver.

The library evaluates every profile through PiecewiseProfile. These are the
ball, cylinder and slab laws written out per volume, with the same float
operations, so a PiecewiseProfile row must equal them bit for bit. Ties
follow the rule the library documents: a volume on beta takes the ball
branch, and an envelope takes the first minimal candidate (Python's ``min``).
Each profile function returns an ``(area, regime)`` pair.

For a whole PiecewiseProfile, first_minimal_segment is the all-candidates
rule written out: every candidate's own segment at v, the first minimal one
kept. The CLI tables have per-row writers here, one format(x, ".17g") per
float, that the block writer must match byte for byte.

The threshold solver has its reference here too: the gap solved in every
segment window, whose largest admissible root solve_piecewise_gap must
return bit for bit.

band_rows is band's former row loop, kept as it was: each tangent source as
a column of values (tangent_values) and the chord per row (chord_row), then
every source weighed row by row, refusing the first row, curve and anchor
whose line rises above the envelope. band's per-source passes must give its
five columns, and its refusals, bit for bit. tangent_column reads one of
those passes (bounds._tangents) back as a column of values.
"""

import math
from bisect import bisect_left, bisect_right
from operator import attrgetter

from torusiso import (
    BoundBand,
    ConsistencyError,
    DomainError,
    RootResult,
    TorusProductSpec,
    beta,
    envelope_piecewise,
    full_report,
    solve_power_gap,
)
from torusiso import bounds
from torusiso.mensuration import TWO_PI
from torusiso.profiles import tube_area_coefficient


def circle_profile(n: int, r: float, v: float) -> tuple[float, str]:
    """Circle-cross-R^n product: ball law up to beta(n, r), cylinder law beyond."""
    if v <= beta(n, r):
        return tube_area_coefficient(1.0, n + 1) * v ** (n / (n + 1.0)), "ball"
    coeff = tube_area_coefficient(TWO_PI * r, n)
    return coeff * v ** ((n - 1.0) / n), "cylinder"


def slab_area(spec: TorusProductSpec, v: float) -> float:
    """Full torus x B^n."""
    n = spec.euclid_dim
    return tube_area_coefficient(spec.torus_measure(), n) * v ** ((n - 1.0) / n)


def envelope_profile(spec: TorusProductSpec, v: float) -> tuple[float, str]:
    """First minimal candidate for one, two or three circle factors."""
    n = spec.euclid_dim
    if spec.circle_count == 1:
        return circle_profile(n, spec.radii[0], v)
    if spec.circle_count == 2:
        candidates = [
            circle_profile(n + 1, spec.radii[0], v),
            (slab_area(spec, v), "slab"),
        ]
    else:
        r1, r2, _ = spec.radii
        candidates = [
            circle_profile(n + 2, r1, v),
            (slab_area(TorusProductSpec((r1, r2), n + 1), v), "slab2"),
            (slab_area(spec, v), "slab"),
        ]
    return min(candidates, key=lambda p: p[0])


def first_minimal_segment(profile, v: float):
    """The PowerSegment that gives the profile's value at v, from all its candidates.

    Each candidate (the profile itself if it has none) looks up its own
    segment, a volume on a breakpoint taking the left one, and a candidate
    that is an envelope looks through its own candidates; a later candidate
    wins only with a strictly smaller area.
    """
    best = area = None
    for candidate in profile.candidates or (profile,):
        if candidate.candidates:
            seg = first_minimal_segment(candidate, v)
        else:
            seg = next(s for s in candidate.segments if v <= s.v_hi)
        value = seg.coeff * v**seg.exponent
        if best is None or value < area:
            best, area = seg, value
    return best


def profile_table(grid, areas, segments) -> str:
    """The profile CSV, one row at a time."""
    lines = ["v,area,regime\n"]
    for v, area, seg in zip(grid, areas, segments):
        lines.append(f"{format(v, '.17g')},{format(area, '.17g')},{seg.regime}\n")
    return "".join(lines)


def bounds_table(result) -> str:
    """The bounds CSV of a BoundBand, one row at a time."""
    lines = ["v,upper,lower,upper_regime,lower_source\n"]
    for v, upper, lower, regime, source in zip(*result):
        numbers = ",".join(format(x, ".17g") for x in (v, upper, lower))
        lines.append(f"{numbers},{regime},{source}\n")
    return "".join(lines)


def chord_row(lo_anchor, hi_anchor, v):
    """Chord between the two exactly-known threshold points; valid by concavity."""
    (v_lo, y_lo), (v_hi, y_hi) = lo_anchor, hi_anchor
    t = (v - v_lo) / (v_hi - v_lo)
    return y_lo + t * (y_hi - y_lo)


def tangent_values(anchor, side, curve, volumes):
    """Best anchor line through each volume's admissible samples; None where there are none.

    The former bounds._tangents: the same slope table, the same per-row
    test of its entry, and the same exact maximum where the test fails.
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
    tops = bounds._slope_table(v0, a0, left, curve)
    sign = 1.0 if left else -1.0
    low, high = bounds._SCAN_RANGE
    values = []
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


def band_rows(spec, grid, curves=None, *, report=None):
    """The former band: every lower-bound source weighed one row at a time."""
    curves = tuple(curves or ())
    grid = [float(v) for v in grid]
    if report is None:
        report = full_report(spec)
    v_lo, v_hi = bounds._thresholds(report)
    envelope = envelope_piecewise(spec)
    lo_anchor = (v_lo, envelope(v_lo))
    hi_anchor = (v_hi, envelope(v_hi))
    tops, segs = envelope.values(grid)
    # The exact rows outside the inside slice take the upper value as their lower.
    first, stop = bounds._exact_cut(grid, report)
    inside = grid[first:stop]
    # Each curve's tangent columns over the inside rows, in the fold's order.
    tangents = []
    for curve in curves:
        label = curve.label or "unlabeled"
        tangents.append((label, "tangent-left", tangent_values(lo_anchor, "left", curve, inside)))
        tangents.append((label, "tangent-right", tangent_values(hi_anchor, "right", curve, inside)))
    two_circles = spec.circle_count == 2
    if two_circles:
        offsets = bounds._offsets(spec, inside)

    lowers, sources = [], []
    for j, v in enumerate(inside):
        top = tops[first + j]
        lower = chord_row(lo_anchor, hi_anchor, v)
        if top < lower <= top * (1.0 + bounds._TOUCH_RTOL):
            lower = top  # the rounded chord touches the envelope
        source = "chord"
        for label, tag, values in tangents:
            value = values[j]
            if value is None:
                continue
            if value > top:
                if value > top * (1.0 + bounds._TOUCH_RTOL):
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


def tangent_column(anchor, side, curve, volumes):
    """bounds._tangents' lines over ascending volumes, None where a row admits no sample.

    The pass folds into a lower column of -inf under an infinite envelope,
    so every row that admits a sample takes its line as computed.
    """
    lowers, sources = [-math.inf] * len(volumes), [None] * len(volumes)
    tops = [math.inf] * len(volumes)
    assert bounds._tangents(anchor, side, curve, volumes, tops, lowers, sources) is None
    assert set(sources) <= {None, f"tangent-{side}"}
    return [None if source is None else lower for lower, source in zip(lowers, sources)]


def solve_piecewise_gap_every_window(upper, lower, target):
    """solve_piecewise_gap's reference: solve every window, keep the largest admissible root.

    Each overlapping segment pair's gap is solved in closed form or by
    solve_power_gap, whatever its window; the roots inside their own windows
    are collected and the largest is returned, after the same refusals and
    the same probe at twice the root as the library. A last window whose
    gap meets the target only past the largest double is refused by name.
    """
    if target < 0.0:
        raise DomainError(f"target must be nonnegative, got {target}")
    admissible = []
    for sa in upper.segments:
        for sb in lower.segments:
            lo = max(sa.v_lo, sb.v_lo)
            hi = min(sa.v_hi, sb.v_hi)
            if hi <= lo:
                continue
            if sa.exponent == sb.exponent:
                if sa.coeff == sb.coeff:
                    if target == 0.0:
                        raise ConsistencyError("gap is identically zero on part of the domain")
                    continue
                if target == 0.0 or sa.coeff < sb.coeff:
                    continue
                try:
                    root = (target / (sa.coeff - sb.coeff)) ** (1.0 / sa.exponent)
                except OverflowError:
                    root = math.inf
                if root == hi == math.inf:
                    raise DomainError(
                        "the gap never meets the target at a double: "
                        f"{sa.coeff!r} v^{sa.exponent!r} - {sb.coeff!r} v^{sb.exponent!r} = "
                        f"{target!r} holds only past the largest double"
                    )
                if lo <= root < hi:
                    lead = sa.value(root)
                    residual = (lead - sb.value(root)) - target
                    admissible.append(RootResult(root, residual, 0, (root, root), max(abs(target), lead)))
                continue
            if sa.exponent < sb.exponent:
                continue
            result = solve_power_gap(sa.coeff, sa.exponent, sb.coeff, sb.exponent, target)
            if lo <= result.root < hi:
                admissible.append(result)
    if not admissible:
        raise DomainError("the gap never meets the target inside any segment window")
    best = max(admissible, key=lambda res: res.root)
    probe = 2.0 * best.root
    if upper(probe) - lower(probe) <= target:
        raise ConsistencyError(f"gap does not stay above the target past the root {best.root}")
    return best
