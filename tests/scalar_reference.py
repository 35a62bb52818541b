"""Scalar references: closed-form profiles one volume at a time, and the gap solver.

The library evaluates every profile through PiecewiseProfile. These are the
ball, cylinder and slab laws written out per volume, with the same float
operations, so a PiecewiseProfile row must equal them bit for bit. Ties
follow the rule the library documents: a volume on beta takes the ball
branch, and an envelope takes the first minimal candidate (Python's ``min``).
Each profile function returns an ``(area, regime)`` pair.

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
from torusiso.roots import DEFAULT_TOLERANCE


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


def solve_piecewise_gap_every_window(upper, lower, target, *, tolerance=DEFAULT_TOLERANCE):
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
                    residual = (sa.value(root) - sb.value(root)) - target
                    scale = max(1.0, max(abs(target), sb.value(root)))
                    admissible.append(RootResult(root, residual, 0, (root, root), tolerance, scale))
                continue
            if sa.exponent < sb.exponent:
                continue
            result = solve_power_gap(
                sa.coeff, sa.exponent, sb.coeff, sb.exponent, target, tolerance=tolerance
            )
            if lo <= result.root < hi:
                admissible.append(result)
    if not admissible:
        raise DomainError("the gap never meets the target inside any segment window")
    best = max(admissible, key=lambda res: res.root)
    probe = 2.0 * best.root
    if upper(probe) - lower(probe) <= target:
        raise ConsistencyError(f"gap does not stay above the target past the root {best.root}")
    return best
