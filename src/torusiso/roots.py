"""Deterministic scalar solvers for the two equation shapes the profiles generate.

The shapes are

  * balance equations  s * (c * x^p) + x = b  with s, c, p > 0 and b > 0,
    strictly increasing from 0,
  * power-law gaps  c1 * x^p1 - c2 * x^p2 = b  with p1 > p2 > 0 and b >= 0,
    which dip below zero, bottom out at an analytic stationary point and
    then increase through the unique admissible root.

Past the stationary point both are increasing and convex in log x, and
both have closed-form brackets. One loop (_ulp_root) solves them: Newton
and secant steps in log x, safeguarded by bisecting the bit patterns of the
bracket. It ends on two adjacent doubles whose computed residuals change
sign and returns the one with the smaller |residual|, so a root depends on
no tolerance or budget. It does depend on the bracket and on the fixed
step rule: near a root the computed residual can change sign more than
once within a few doubles, and the steps decide which change the loop
lands on. Any change to a bracket or to the step rule can move roots by
ulps and so change output bytes.

Residuals are checked against the equation's own terms: the larger of |b|
and the leading power term at the root. For a gap equation the two power
terms can dwarf the target (b may even be 0), so the achievable residual is
relative to the term magnitude, not to b alone; no absolute floor makes a
tiny root look solved.
"""

from __future__ import annotations

import math
import struct
import sys

from .errors import ConsistencyError, DomainError, positive_finite
from .profiles import PiecewiseProfile, PowerSegment, _ratio_power
from .records import record

# The residual check of every RootResult, relative to its scale. An
# ulp-exact root's residual is a few ulps of the scale.
RESIDUAL_RTOL = 1e-12

_MIN_NORMAL = sys.float_info.min
_MAX = sys.float_info.max
# Positive finite doubles have bit patterns below 2**63, so a bracket of
# them is at most 2**63 patterns wide. Every round of _ulp_root at least
# halves the width (rounding up) in at most three evaluations, so after the
# two at the ends the loop ends within 3 * 63 more.
MAX_EVALUATIONS = 2 + 3 * 63

# A positive double's int64 bit pattern orders like its value.
_pack_double = struct.Struct("<d").pack
_unpack_double = struct.Struct("<d").unpack
_pack_int64 = struct.Struct("<q").pack
_unpack_int64 = struct.Struct("<q").unpack

# Rounding margin of the window skip (_root_left_of). Let u = 2**-53, let
# libm's pow be within one ulp, and let A(x), B(x) be the exact terms
# c1 x^p1, c2 x^p2 of a gap, with a = c1 * x**p1 and b = c2 * x**p2 the
# computed ones at the double x just below the window start lo.
#   * At any double y the computed residual (c1 * y**p1 - c2 * y**p2) - T
#     has the sign of an exact value within 5u(A(y) + B(y)) of
#     A(y) - B(y) - T. So it is positive wherever
#     E(y) = (1 - 5u)A(y) - (1 + 5u)B(y) - T > 0.
#   * For y = t x with t >= 1, A(y) = A(x) t^p1 and B(y) = B(x) t^p2, and
#     t^p1 >= t^p2 >= 1 as p1 > p2 > 0, so E(y) >= t^p2 E(x) + (t^p2 - 1)T
#     >= E(x): if E(x) > 0, the computed residual is positive at x and at
#     every double past it where the terms stay finite.
#   * The test (a - b) - T > 16u * (a + b + T) holds only if E(x) > 0: the
#     computed left side is within 2u(a + b + T) of a - b - T, the computed
#     right side is at least 16u(1 - 3u)(a + b + T), and A, B are within 3u
#     of a, b, so E(x) > (16u - 2u - 8u - O(u^2))(a + b + T) > 0.
# The solver returns one of two adjacent doubles d0 < d1 whose computed
# residuals are negative at d0 and not at d1, so d0 < x and d1 <= x < lo:
# the root it returns is never lo itself. (Past x a residual may be NaN,
# where both terms overflow; the solver takes that as not negative.)
_SKIP_MARGIN = 16 * 2.0**-53


class RootResult(record("RootResult", "root residual iterations bracket scale")):
    """One solved root with the evidence needed to audit it.

    ``residual`` is lhs(root) - target; ``scale`` is the magnitude the
    residual is measured against: the larger of |target| and the leading
    power term at the root. ``iterations`` counts function evaluations (an
    int), ``bracket`` is the final (lo, hi) pair, two adjacent doubles for
    an iterated root; the rest are floats.
    """

    __slots__ = ()

    def __new__(cls, root, residual, iterations, bracket, scale):
        lo, hi = bracket
        if not lo <= root <= hi:
            raise ConsistencyError(f"root {root} escaped its bracket [{lo}, {hi}]")
        if not abs(residual) <= RESIDUAL_RTOL * scale:
            raise ConsistencyError(f"residual {residual} exceeds {RESIDUAL_RTOL} * {scale}")
        return tuple.__new__(cls, (root, residual, iterations, bracket, scale))


def _ulp_root(evaluate, target: float, lo: float, hi: float, equation) -> RootResult:
    """Root of an increasing, log-convex residual between two normal doubles.

    ``evaluate(x)`` returns the residual at x, x times its derivative and
    the leading term. The residual must be negative at lo and nonnegative
    at hi (else DomainError naming ``equation()``). Steps come in rounds:
    a Newton step in log x from the end with the smaller |residual|, then
    a secant step in log x across the bracket, then the bit-pattern
    midpoint. A round ends as soon as the bracket is at most half as many
    bit patterns wide as at its start. A Newton step that leaves the
    bracket gives way to the secant step, and a step that lands on an end
    moves one double inside, as the last step onto a sign change does. At
    most MAX_EVALUATIONS evaluations.
    """
    if not (_MIN_NORMAL <= lo < hi <= _MAX):
        end = f"upper end {hi!r}" if not hi > _MIN_NORMAL else f"lower end {lo!r}"
        raise DomainError(f"the bracket of {equation()} leaves the normal doubles at its {end}")
    r_lo, s_lo, a_lo = evaluate(lo)
    r_hi, s_hi, a_hi = evaluate(hi)
    if not r_lo < 0.0 <= r_hi:
        raise DomainError(
            f"the residuals of {equation()} at its bracket [{lo!r}, {hi!r}] are "
            f"{r_lo!r} and {r_hi!r}, not a sign change"
        )
    evaluations = 2
    (i_lo,), (i_hi,) = _unpack_int64(_pack_double(lo)), _unpack_int64(_pack_double(hi))
    width = round_width = i_hi - i_lo
    step = 0  # within a round: 0 Newton, 1 secant, 2 midpoint
    while width > 1:
        y = math.nan
        if step == 0:
            if -r_lo < r_hi:
                x, r, s = lo, r_lo, s_lo
            else:
                x, r, s = hi, r_hi, s_hi
            if s > 0.0:
                try:
                    y = x * math.exp(-r / s)
                except OverflowError:  # far past hi; the secant step follows
                    pass
            if not lo <= y <= hi:
                step = 1
        if step == 1:
            y = lo * (hi / lo) ** (r_lo / (r_lo - r_hi))
        if not lo < y < hi:
            if y == lo:
                y = math.nextafter(lo, hi)
            elif y == hi:
                y = math.nextafter(hi, lo)
            else:
                (y,) = _unpack_double(_pack_int64(i_lo + width // 2))
                step = 2
        r, s, a = evaluate(y)
        evaluations += 1
        if r < 0.0:
            lo, r_lo, s_lo, a_lo = y, r, s, a
            (i_lo,) = _unpack_int64(_pack_double(y))
        else:
            hi, r_hi, s_hi, a_hi = y, r, s, a
            (i_hi,) = _unpack_int64(_pack_double(y))
        width = i_hi - i_lo
        if step == 2 or 2 * width <= round_width:
            step, round_width = 0, width
        else:
            step += 1
    if -r_lo < r_hi:
        return RootResult(lo, r_lo, evaluations, (lo, hi), max(abs(target), a_lo))
    return RootResult(hi, r_hi, evaluations, (lo, hi), max(abs(target), a_hi))


def solve_balance(scale: float, coeff: float, p: float, target: float) -> RootResult:
    """Unique root of the balance equation scale * (coeff * x^p) + x = target.

    The left side increases from 0 without bound, so a positive target has
    one root, bracketed in closed form: at lo = min(T/4, (T/(4 s c))^(1/p))
    both terms sum to at most T/2, and at hi = min(2T, (2T/(s c))^(1/p)) one
    of them alone is at least T. Ends outside the normal doubles are moved
    to the nearest normal double, where the residual must still have its
    sign. The terms are evaluated as written, so with scale = pi * r this
    repeats ``pi * r * ball(x) + x`` float for float.
    """
    for name, value in ("scale", scale), ("coeff", coeff), ("p", p), ("target", target):
        positive_finite(value, name)
    sc = scale * coeff
    lo = max(min(0.25 * target, _ratio_power(target, 4.0 * sc, 1.0 / p)), _MIN_NORMAL)
    hi = min(2.0 * target, _ratio_power(2.0 * target, sc, 1.0 / p), _MAX)

    def evaluate(x: float):
        a = scale * (coeff * x**p)
        return (a + x) - target, p * a + x, a

    def equation() -> str:
        return f"{scale!r} * ({coeff!r} * x^{p!r}) + x = {target!r}"

    return _ulp_root(evaluate, target, lo, hi, equation)


def _gap_target(target: float) -> None:
    """Refuse a gap target that is not a nonnegative finite real (0.0 and -0.0 pass)."""
    if target < 0.0 or not math.isfinite(target):
        raise DomainError(f"target must be a nonnegative finite real, got {target!r}")


def power_gap_stationary_point(c1: float, p1: float, c2: float, p2: float) -> float:
    """Analytic minimizer of c1 x^p1 - c2 x^p2 for p1 > p2 > 0.

    A minimizer past the largest double, or one that is NaN because c1 * p1
    and c2 * p2 both overflow, is refused by name.
    """
    x_min = _ratio_power(c2 * p2, c1 * p1, 1.0 / (p1 - p2))
    if not x_min < math.inf:
        raise DomainError(
            f"the stationary point of c1 x^p1 - c2 x^p2 with c1 = {c1!r}, p1 = {p1!r}, "
            f"c2 = {c2!r}, p2 = {p2!r} is "
            + ("past the largest double" if x_min == math.inf else "NaN: c1 p1 and c2 p2 overflow")
        )
    return x_min


def solve_power_gap(c1: float, p1: float, c2: float, p2: float, target: float) -> RootResult:
    """Terminal root of phi(x) = c1 x^p1 - c2 x^p2 = target, p1 > p2 > 0.

    phi decreases from 0 to its analytic minimum at x_min and increases
    without bound afterwards, so for target >= 0 there is exactly one root
    on the increasing side. It lies above lo = x_min and below
    hi = 2 x0 (1 + T / (c2 xl^p2))^(1/(p1 - p2)), where
    x0 = (c2/c1)^(1/(p1 - p2)) is the zero of phi and xl = max(x0,
    (T/c1)^(1/p1)): hi is at least twice xl, and there
    phi = c2 hi^p2 ((hi/x0)^(p1 - p2) - 1) exceeds T. hi is computed as
    2 ((c2 + T / xl^p2) / c1)^(1/(p1 - p2)), so that an x0 that underflows
    does not take it along. Ends outside the normal doubles are moved to the
    nearest normal double, where the residual must still have its sign.
    """
    positive_finite(c1, "c1")
    positive_finite(c2, "c2")
    if not p1 > p2 > 0.0:
        raise DomainError(f"exponents must satisfy p1 > p2 > 0, got {p1}, {p2}")
    _gap_target(target)
    d = p1 - p2
    x_min = power_gap_stationary_point(c1, p1, c2, p2)
    xl = max(_ratio_power(c2, c1, 1.0 / d), _ratio_power(target, c1, 1.0 / p1))
    hi = 2.0 * _ratio_power(c2 + target / xl**p2, c1, 1.0 / d) if xl > 0.0 else 0.0
    # Past the largest double the end is the largest double itself, which
    # lies past the root if any double does.
    hi = min(hi, _MAX)

    def evaluate(x: float):
        a = c1 * x**p1
        b = c2 * x**p2
        return (a - b) - target, p1 * a - p2 * b, a

    def equation() -> str:
        return f"{c1!r} x^{p1!r} - {c2!r} x^{p2!r} = {target!r}"

    return _ulp_root(evaluate, target, max(x_min, _MIN_NORMAL), hi, equation)


def _window_root(
    sa: PowerSegment, sb: PowerSegment, lo: float, hi: float, target: float
) -> RootResult | None:
    """Root of sa(v) - sb(v) = target inside the window [lo, hi), or None."""
    if sa.exponent == sb.exponent:
        # Equal coefficients with a zero target were refused by the caller.
        if target == 0.0 or sa.coeff <= sb.coeff:
            return None
        root = _ratio_power(target, sa.coeff - sb.coeff, 1.0 / sa.exponent)
        if root == hi == math.inf:
            raise DomainError(
                f"the gap never meets the target at a double: {sa.coeff!r} v^{sa.exponent!r} "
                f"- {sb.coeff!r} v^{sb.exponent!r} = {target!r} holds only past the largest double"
            )
        if not lo <= root < hi:
            return None
        lead = sa.value(root)
        residual = (lead - sb.value(root)) - target
        return RootResult(root, residual, 0, (root, root), max(abs(target), lead))
    if sa.exponent < sb.exponent:
        # The terminal crossing cannot sit on a pair whose gap is
        # eventually decreasing; those pairs never host it here.
        return None
    gap = (sa.coeff, sa.exponent, sb.coeff, sb.exponent, target)
    if lo > 0.0 and _root_left_of(*gap, lo):
        return None
    result = solve_power_gap(*gap)
    return result if lo <= result.root < hi else None


def _root_left_of(c1: float, p1: float, c2: float, p2: float, target: float, lo: float) -> bool:
    """True only if any root solve_power_gap returns for this gap lies below lo.

    Then solving a window that starts at lo is wasted. The gap exceeds the
    target by the rounding margin (see _SKIP_MARGIN) at the double just
    below lo, so every computed residual from there on is positive and the
    root the solver returns lies below that double. A solve that would
    refuse its bracket instead (an end or the root outside the normal
    doubles) is skipped too. A False answer only means the window is
    solved as before.
    """
    x = math.nextafter(lo, 0.0)
    a = c1 * x**p1
    b = c2 * x**p2
    return a - b - target > _SKIP_MARGIN * (a + b + target)


def solve_piecewise_gap(
    upper: PiecewiseProfile, lower: PiecewiseProfile, target: float
) -> RootResult:
    """Terminal root of upper(v) - lower(v) = target over piecewise profiles.

    Each overlapping segment pair spans one window [lo, hi), and the
    windows are disjoint. They are scanned from the right: a window's gap
    is solved in closed form or by solve_power_gap, and the first root that
    lands inside its own window is returned. Every root in a window lies
    below every root in the windows right of it, so that root is the
    largest admissible one, and the windows left of it are never solved.
    The gap must stay above the target past that root (checked at twice
    the root, so a root past half the largest double is refused by name);
    a failure there, or a gap that is identically zero on any
    window, checked over all of them before the scan, signals that the
    structural assumptions behind the pipeline were violated.
    """
    _gap_target(target)
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
        best = _window_root(*window, target)
        if best is not None:
            break
    else:
        raise DomainError("the gap never meets the target inside any segment window")
    probe = 2.0 * best.root
    if probe == math.inf:
        raise DomainError(
            f"the gap's root {best.root!r} is past half the largest double, so no volume "
            "beyond it can be probed"
        )
    if upper(probe) - lower(probe) <= target:
        raise ConsistencyError(
            f"gap does not stay above the target past the root {best.root}"
        )
    return best
