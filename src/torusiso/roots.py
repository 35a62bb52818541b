"""Deterministic scalar solvers for the two equation shapes the profiles generate.

Both shapes are solved by plain bisection on a monotone bracket: convergence
is guaranteed, the cost is irrelevant at this scale, and reruns are
bit-identical. The shapes are

  * strictly increasing expressions, e.g.  a * x^p + x = b  with 0 < p < 1,
  * power-law gaps  c1 * x^p1 - c2 * x^p2 = b  with p1 > p2 > 0 and b >= 0,
    which dip below zero, bottom out at an analytic stationary point and
    then increase through the unique admissible root.

Residuals are checked against a conditioning-aware scale: for a gap
equation the two power terms can dwarf the target (b may even be 0), so the
achievable residual is relative to the term magnitude, not to b alone.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

from .errors import ConsistencyError, ConvergenceError, DomainError
from .profiles import PiecewiseProfile, PowerSegment
from .records import record

DEFAULT_TOLERANCE = 1e-12
# Looser tolerances break the solver contract, so requests above it are refused.
MAX_TOLERANCE = 1e-6
# The tightest relative tolerance bisection meets in double precision: on a
# seeded probe (200 specs, k = 2 and 3, radii 0.1-10) the criticals pipelines
# converged for all 200 at 1e-15 and failed for 198 of them at 1e-16.
MIN_TOLERANCE = 1e-15
# Function evaluations one solve may spend, bracketing included.
_MAX_ITER = 200
_MAX_DOUBLINGS = 60

# Rounding margin of the window skip (_root_left_of), relative to
# s = a + b + target + 1 with a = c1 * lo**p1 and b = c2 * lo**p2 computed
# as phi computes them. Let u = 2**-53, let libm's pow be within one ulp,
# and let A(x), B(x) be the exact terms c1 x^p1, c2 x^p2.
#   * phi(x) = c1 * x**p1 - c2 * x**p2 is within 5u(A + B) of A - B, and
#     the solver's scale max(1, target, c2 * x**p2) is at most
#     1 + target + (1 + 3u)B. A returned root x has
#     |phi(x) - target| <= tol * scale, so A - B - target is at most
#     6u(A + B) + tol'(1 + target + B) there, with tol' = tol(1 + 5u).
#   * For x = t * lo with t >= 1, A(x) = A t^p1 and B(x) = B t^p2, and
#     t^p1 >= t^p2 >= 1 as p1 > p2 > 0. So if
#     H = (1 - 6u)A - (1 + 6u + tol')B - (1 + tol') target - tol' > 0 at
#     lo, it stays above zero at every x >= lo: no root at or past lo can
#     be returned, and phi(x) > target there.
#   * The test (a - b) - target > (tol + 16u) * s holds only if H > 0: the
#     computed difference is within 5u(A + B + target) of the exact one,
#     A + B is within 4u of a + b, and 6u + 5u + 4u plus the roundings of
#     s and of the product, all second order in u or tol, stay below 16u
#     for tol <= MAX_TOLERANCE.
_SKIP_MARGIN = 16 * 2.0**-53
_QUARTER_MAX = sys.float_info.max / 4
# A skipped solve must be one that would not have raised. Its doubling is
# checked directly. Its bisection then starts at most _MAX_DOUBLINGS
# evaluations in, on a bracket at most 2**60 times as wide as its lower end
# when the stationary point is at least 2**-60. With a tolerance of at least
# 64u, at most 60 + 47 halvings meet the width bound, the residual bound
# holds a few halvings later (at one ulp the residual is within 33u of the
# scale), and the whole solve stays within _MAX_ITER evaluations.
_SKIP_MIN_STATIONARY = 2.0**-60
_SKIP_MIN_TOLERANCE = 64 * 2.0**-53


class RootResult(record("RootResult", "root residual iterations bracket tolerance scale")):
    """One solved root with the evidence needed to audit it.

    ``residual`` is lhs(root) - target; ``scale`` is the magnitude the
    residual is measured against (at least max(1, |target|), plus the size
    of any cancelling terms). ``iterations`` counts function evaluations
    (an int), ``bracket`` is the final (lo, hi) pair; the rest are floats.
    """

    __slots__ = ()

    def __new__(cls, root, residual, iterations, bracket, tolerance=DEFAULT_TOLERANCE, scale=1.0):
        lo, hi = bracket
        if not lo <= root <= hi:
            raise ConsistencyError(f"root {root} escaped its bracket [{lo}, {hi}]")
        if not abs(residual) <= tolerance * scale:
            raise ConsistencyError(f"residual {residual} exceeds {tolerance} * {scale}")
        return tuple.__new__(cls, (root, residual, iterations, bracket, tolerance, scale))


def _validate_request(tolerance: float) -> None:
    # Below MIN_TOLERANCE bisection runs out of iterations instead of
    # converging, so such requests are refused before any work is done.
    if not MIN_TOLERANCE <= tolerance <= MAX_TOLERANCE:
        raise DomainError(
            f"tolerance must be in [{MIN_TOLERANCE}, {MAX_TOLERANCE}], got {tolerance!r}"
        )


def _bisect(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tolerance: float,
    scale_at: Callable[[float], float],
    iterations: int,
) -> RootResult:
    """Bisect f(x) = target on [lo, hi] given f(lo) <= target <= f(hi).

    Stops once the bracket is relatively tight and the residual meets the
    scale-aware bound; keeps halving down to one ulp when the bound needs
    more than the bracket criterion alone.
    """
    # Each midpoint is computed once: the root tested after a halving is
    # the next halving's midpoint. The loop also ends once no double lies
    # strictly inside the bracket.
    root = 0.5 * (lo + hi)
    while iterations < _MAX_ITER and lo < root < hi:
        iterations += 1
        if f(root) <= target:
            lo = root
        else:
            hi = root
        root = 0.5 * (lo + hi)
        size = abs(root)
        if hi - lo <= tolerance * (1e-300 if size < 1e-300 else size):
            iterations += 1
            residual = f(root) - target
            scale = max(1.0, abs(target), scale_at(root))
            if abs(residual) <= tolerance * scale:
                return RootResult(root, residual, iterations, (lo, hi), tolerance, scale)
    residual = f(root) - target
    scale = max(1.0, abs(target), scale_at(root))
    if abs(residual) <= tolerance * scale and lo <= root <= hi:
        return RootResult(root, residual, iterations, (lo, hi), tolerance, scale)
    raise ConvergenceError(
        f"bisection did not converge within {_MAX_ITER} evaluations", bracket=(lo, hi)
    )


def solve_increasing(
    f: Callable[[float], float],
    target: float,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RootResult:
    """Unique root of a strictly increasing, unbounded expression on (0, inf).

    Brackets by doubling (or halving) from 1, then bisects. Raises
    DomainError when the target sits below the expression's infimum and
    ConvergenceError when bracketing or bisection runs out of budget.
    """
    _validate_request(tolerance)
    x = 1.0
    fx = f(x)
    iterations = 1
    if fx <= target:
        lo = hi = x
        for _ in range(_MAX_DOUBLINGS):
            hi *= 2.0
            iterations += 1
            if f(hi) >= target:
                break
            lo = hi
        else:
            raise ConvergenceError(
                "no upper bracket found while doubling", bracket=(lo, hi)
            )
    else:
        lo = hi = x
        for _ in range(_MAX_DOUBLINGS):
            lo *= 0.5
            iterations += 1
            if f(lo) <= target:
                break
            hi = lo
        else:
            raise DomainError(
                f"target {target} lies below the expression's infimum"
            )
    return _bisect(f, target, lo, hi, tolerance, lambda x: 0.0, iterations)


def power_gap_stationary_point(c1: float, p1: float, c2: float, p2: float) -> float:
    """Analytic minimizer of c1 x^p1 - c2 x^p2 for p1 > p2 > 0.

    A minimizer whose power overflows is refused by name.
    """
    try:
        return ((c2 * p2) / (c1 * p1)) ** (1.0 / (p1 - p2))
    except OverflowError:
        raise DomainError(
            f"the stationary point of c1 x^p1 - c2 x^p2 with c1 = {c1!r}, p1 = {p1!r}, "
            f"c2 = {c2!r}, p2 = {p2!r} is past the largest double"
        ) from None


def solve_power_gap(
    c1: float,
    p1: float,
    c2: float,
    p2: float,
    target: float,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RootResult:
    """Terminal root of phi(x) = c1 x^p1 - c2 x^p2 = target, p1 > p2 > 0.

    phi decreases from 0 to its analytic minimum and increases without
    bound afterwards, so for target >= 0 there is exactly one root on the
    increasing side; bracketing starts just right of the stationary point.
    """
    _validate_request(tolerance)
    for name, c in (("c1", c1), ("c2", c2)):
        if not (c > 0.0) or not math.isfinite(c):
            raise DomainError(f"{name} must be a positive finite real, got {c!r}")
    if not p1 > p2 > 0.0:
        raise DomainError(f"exponents must satisfy p1 > p2 > 0, got {p1}, {p2}")
    if target < 0.0:
        raise DomainError(f"target must be nonnegative, got {target}")

    def phi(x: float) -> float:
        return c1 * x**p1 - c2 * x**p2

    x_min = power_gap_stationary_point(c1, p1, c2, p2)
    lo = x_min
    hi = max(1.0, 2.0 * x_min)
    iterations = 1
    for _ in range(_MAX_DOUBLINGS):
        if phi(hi) >= target:
            break
        lo = hi
        hi *= 2.0
        iterations += 1
    else:
        raise ConvergenceError("no upper bracket found while doubling", bracket=(lo, hi))
    return _bisect(phi, target, lo, hi, tolerance, lambda x: c2 * x**p2, iterations)


def _window_root(
    sa: PowerSegment, sb: PowerSegment, lo: float, hi: float, target: float, tolerance: float
) -> RootResult | None:
    """Root of sa(v) - sb(v) = target inside the window [lo, hi), or None."""
    if sa.exponent == sb.exponent:
        # Equal coefficients with a zero target were refused by the caller.
        if target == 0.0 or sa.coeff <= sb.coeff:
            return None
        root = (target / (sa.coeff - sb.coeff)) ** (1.0 / sa.exponent)
        if not lo <= root < hi:
            return None
        residual = (sa.value(root) - sb.value(root)) - target
        scale = max(1.0, abs(target), sb.value(root))
        return RootResult(root, residual, 0, (root, root), tolerance, scale)
    if sa.exponent < sb.exponent:
        # The terminal crossing cannot sit on a pair whose gap is
        # eventually decreasing; those pairs never host it here.
        return None
    gap = (sa.coeff, sa.exponent, sb.coeff, sb.exponent, target)
    if lo > 0.0 and _root_left_of(*gap, tolerance, lo):
        return None
    result = solve_power_gap(*gap, tolerance=tolerance)
    return result if lo <= result.root < hi else None


def _root_left_of(
    c1: float, p1: float, c2: float, p2: float, target: float, tolerance: float, lo: float
) -> bool:
    """True only if solve_power_gap on this gap returns a root below lo.

    Then solving a window that starts at lo is wasted. The gap exceeds the
    target at lo by the rounding margin (see _SKIP_MARGIN), so every root
    the bisection can return lies below lo. And the solve cannot raise: its
    doubling from max(1, 2 x_min) reaches lo within _MAX_DOUBLINGS steps
    without overflow, the gap there already exceeds the target, and its
    bisection converges (see _SKIP_MIN_STATIONARY). A False answer only
    means the window is solved as before.
    """
    if tolerance < _SKIP_MIN_TOLERANCE:
        return False
    a = c1 * lo**p1
    b = c2 * lo**p2
    size = a + b + target + 1.0
    # Up to twice lo the terms stay finite, so phi never turns into NaN.
    if not (a - b - target > (tolerance + _SKIP_MARGIN) * size and size <= _QUARTER_MAX):
        return False
    x_min = power_gap_stationary_point(c1, p1, c2, p2)
    if not _SKIP_MIN_STATIONARY <= x_min < lo:
        return False
    # The doubling tests start * 2**i for i < _MAX_DOUBLINGS; the first of
    # those at or past lo is start * 2**j.
    m_start, e_start = math.frexp(max(1.0, 2.0 * x_min))
    m_lo, e_lo = math.frexp(lo)
    j = max(0, e_lo - e_start + (m_start < m_lo))
    return j < _MAX_DOUBLINGS and e_start + j <= sys.float_info.max_exp


def solve_piecewise_gap(
    upper: PiecewiseProfile,
    lower: PiecewiseProfile,
    target: float,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RootResult:
    """Terminal root of upper(v) - lower(v) = target over piecewise profiles.

    Each overlapping segment pair spans one window [lo, hi), and the
    windows are disjoint. They are scanned from the right: a window's gap
    is solved in closed form or by solve_power_gap, and the first root that
    lands inside its own window is returned. Every root in a window lies
    below every root in the windows right of it, so that root is the
    largest admissible one, and the windows left of it are never solved.
    The gap must stay above the target past that root (checked at twice
    the root); a failure there, or a gap that is identically zero on any
    window, checked over all of them before the scan, signals that the
    structural assumptions behind the pipeline were violated.
    """
    _validate_request(tolerance)
    if target < 0.0:
        raise DomainError(f"target must be nonnegative, got {target}")
    windows = []  # ascending: both profiles' segments are in volume order
    for sa in upper.segments:
        for sb in lower.segments:
            lo = max(sa.v_lo, sb.v_lo)
            hi = min(sa.v_hi, sb.v_hi)
            if hi <= lo:
                continue
            if target == 0.0 and sa.exponent == sb.exponent and sa.coeff == sb.coeff:
                raise ConsistencyError("gap is identically zero on part of the domain")
            windows.append((sa, sb, lo, hi))
    for window in reversed(windows):
        best = _window_root(*window, target, tolerance)
        if best is not None:
            break
    else:
        raise DomainError("the gap never meets the target inside any segment window")
    probe = 2.0 * best.root
    if upper(probe) - lower(probe) <= target:
        raise ConsistencyError(
            f"gap does not stay above the target past the root {best.root}"
        )
    return best
