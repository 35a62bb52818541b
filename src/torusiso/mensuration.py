"""Exact dimensional constants and mensuration of circle-product regions.

Every gamma evaluation needed here happens at a half-integer argument, so
the values are computed from the exact closed forms (integer factorials and
a single sqrt(pi) factor) instead of a general-purpose approximation. All
results are deterministic and bit-identical across runs and platforms.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Iterable

from .errors import DomainError, GuardError, positive_finite
from .records import record

TWO_PI = 2.0 * math.pi

# Euclidean dimensions n each circle count k is supported on: the k = 1
# profile is known for 2 <= n <= 7, the two- and three-circle envelopes and
# threshold pipelines for the smaller ranges. TorusProductSpec enforces this
# one table, so every spec downstream code sees is in range.
EUCLID_DIM_RANGES = {1: (2, 7), 2: (2, 5), 3: (2, 4)}


def _gamma_half(twice_x: int) -> float:
    """Gamma(twice_x / 2) for an integer twice_x >= 2, in closed form.

    Integer arguments reduce to a factorial; half-integer arguments use
    Gamma(k + 1/2) = (2k)! / (4^k k!) * sqrt(pi), evaluated with exact
    integer arithmetic before the final float conversion. The callers check
    their dimensions, so they pass n + 1 >= 2 and m + 2 >= 3.
    """
    if twice_x % 2 == 0:
        return float(math.factorial(twice_x // 2 - 1))
    k = (twice_x - 1) // 2
    return math.factorial(2 * k) / (4**k * math.factorial(k)) * math.sqrt(math.pi)


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit n-sphere: 2 pi^((n+1)/2) / Gamma((n+1)/2).

    Computed once per dimension; only a checked int reaches the table.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"sphere dimension must be a positive integer, got {n!r}")
    return _sphere_area(n)


def unit_ball_volume(m: int) -> float:
    """Volume of the unit m-ball: pi^(m/2) / Gamma(m/2 + 1).

    Satisfies unit_ball_volume(m) == unit_sphere_area(m - 1) / m. Computed
    once per dimension; only a checked int reaches the table.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise DomainError(f"ball dimension must be a positive integer, got {m!r}")
    return _ball_volume(m)


@functools.cache
def _sphere_area(n: int) -> float:
    return 2.0 * math.pi ** ((n + 1) / 2.0) / _gamma_half(n + 1)


@functools.cache
def _ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / _gamma_half(m + 2)


class TorusProductSpec(record("TorusProductSpec", "radii euclid_dim")):
    """A Riemannian product of circle factors with a Euclidean factor.

    ``radii`` are the circle radii, stored sorted ascending (a circle of
    radius r has circumference 2 pi r); ``euclid_dim`` is the dimension of
    the Euclidean factor. Exactly the (circle count, euclid_dim) pairs of
    EUCLID_DIM_RANGES are accepted: outside them the downstream formulas are
    unvalidated, so construction fails loudly instead.
    """

    __slots__ = ()

    def __new__(cls, radii: tuple[float, ...], euclid_dim: int):
        radii = tuple(float(r) for r in radii)
        k = len(radii)
        if k == 0:
            raise GuardError("at least 1 circle factor is required, got 0")
        if k not in EUCLID_DIM_RANGES:
            raise GuardError(
                f"at most {max(EUCLID_DIM_RANGES)} circle factors are supported, got {k}"
            )
        for r in radii:
            positive_finite(r, "circle radius")
        n = euclid_dim
        if not isinstance(n, int) or isinstance(n, bool):
            raise DomainError(f"euclid_dim must be an integer, got {n!r}")
        lo, hi = EUCLID_DIM_RANGES[k]
        if not lo <= n <= hi:
            raise GuardError(f"a {k}-circle spec requires {lo} <= euclid_dim <= {hi}, got {n}")
        return tuple.__new__(cls, (tuple(sorted(radii)), n))

    @property
    def circle_count(self) -> int:
        return len(self.radii)

    @property
    def dimension(self) -> int:
        """Dimension of the product manifold."""
        return self.circle_count + self.euclid_dim

    def torus_measure(self, indices: Iterable[int] | None = None) -> float:
        """Product of circumferences over the chosen circle factors.

        With no indices, all circle factors are used; the empty selection
        yields 1.0 (no circle factor contributes).
        """
        chosen = self.radii if indices is None else [self.radii[i] for i in indices]
        measure = 1.0
        for r in chosen:
            measure *= TWO_PI * r
        return measure


class CandidateRegion(record("CandidateRegion", "circle_indices ball_radius")):
    """Some of a spec's circle factors crossed with a ball filling the rest.

    ``circle_indices`` (ints) index into the spec's sorted radii. The ball,
    of float radius ``ball_radius``, fills every dimension no chosen circle
    takes: (circle_count - len(circle_indices)) + euclid_dim >= euclid_dim.
    """

    __slots__ = ()


def _ball_dim(spec: TorusProductSpec, region: CandidateRegion) -> int:
    """Check the region against the spec and return its ball's dimension."""
    indices = region.circle_indices
    if len(set(indices)) != len(indices):
        raise DomainError(f"duplicate circle indices in region: {indices}")
    for i in indices:
        if not 0 <= i < spec.circle_count:
            raise DomainError(
                f"circle index {i} out of range for {spec.circle_count} factors"
            )
    positive_finite(region.ball_radius, "ball radius")
    return spec.circle_count - len(indices) + spec.euclid_dim


def region_volume(spec: TorusProductSpec, region: CandidateRegion) -> float:
    """Volume of the region: (product of circumferences) * b_m * R^m."""
    return _region_measure(spec, region, 0)


def region_boundary_area(spec: TorusProductSpec, region: CandidateRegion) -> float:
    """Boundary area of the region: (product of circumferences) * m * b_m * R^(m-1).

    Equals the derivative of region_volume with respect to the ball radius.
    """
    return _region_measure(spec, region, 1)


def _region_measure(spec: TorusProductSpec, region: CandidateRegion, drop: int) -> float:
    """(product of circumferences) * m^drop * b_m * R^(m - drop) for the region's m.

    The volume for drop 0, the boundary area for drop 1. When a factor or
    the product leaves the normal doubles (a huge torus times the
    underflowed power of a tiny ball, say), the factors' logarithms are
    summed instead, so the result is 0.0 or inf only when it really lies
    past the double range.
    """
    m = _ball_dim(spec, region)
    coeff = m**drop
    factor = spec.torus_measure(region.circle_indices) * coeff * unit_ball_volume(m)
    try:
        power = region.ball_radius ** (m - drop)
    except OverflowError:
        power = math.inf
    product = factor * power
    if all(sys.float_info.min <= x < math.inf for x in (factor, power, product)):
        return product
    log_product = (
        sum(math.log(TWO_PI) + math.log(spec.radii[i]) for i in region.circle_indices)
        + math.log(coeff * unit_ball_volume(m))
        + (m - drop) * math.log(region.ball_radius)
    )
    try:
        return math.exp(log_product)
    except OverflowError:
        return math.inf
