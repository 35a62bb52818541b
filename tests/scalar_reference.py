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
"""

from torusiso import (
    ConsistencyError,
    DomainError,
    RootResult,
    TorusProductSpec,
    beta,
    solve_power_gap,
)
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


def solve_piecewise_gap_every_window(upper, lower, target):
    """solve_piecewise_gap's reference: solve every window, keep the largest admissible root.

    Each overlapping segment pair's gap is solved in closed form or by
    solve_power_gap, whatever its window; the roots inside their own windows
    are collected and the largest is returned, after the same refusals and
    the same probe at twice the root as the library.
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
                root = (target / (sa.coeff - sb.coeff)) ** (1.0 / sa.exponent)
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
