"""Scalar closed-form profiles, one volume at a time: the grid path's reference.

The library evaluates every profile through PiecewiseProfile. These are the
ball, cylinder and slab laws written out per volume, with the same float
operations, so a PiecewiseProfile row must equal them bit for bit. Ties
follow the rule the library documents: a volume on beta takes the ball
branch, and an envelope takes the first minimal candidate (Python's ``min``).
Each function returns an ``(area, regime)`` pair.
"""

from torusiso import TorusProductSpec, beta
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
