"""Brute-force verification paths, independent of the closed-form profiles.

``candidate_min_area`` never touches the profile algebra: it enumerates
every circle-subset candidate, solves the ball radius from the requested
volume and measures the boundary directly, so agreement with the profile
modules is a meaningful cross-check. ``gap_crossings`` enumerates every
sign change of a profile difference exactly, and ``bisect_verify`` checks a
reported constant against its defining residual; neither calls the root
solvers.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from collections.abc import Callable

from . import profiles
from .criticals import CriticalReport, full_report
from .errors import DomainError, positive_finite
from .mensuration import (
    TWO_PI,
    CandidateRegion,
    TorusProductSpec,
    region_boundary_area,
    region_volume,
    unit_ball_volume,
)
from .records import record

# verify_spec's fixed effort: profile-vs-oracle volumes, and the relative
# tolerance for every reported constant and crossing.
_PROFILE_POINTS = 160
_CHECK_TOLERANCE = 1e-9


class CheckResult(record("CheckResult", "name ok detail", ("",))):
    """One named check: whether it passed (a bool) and a detail string."""

    __slots__ = ()


def candidate_min_area(
    spec: TorusProductSpec, v: float
) -> tuple[float, CandidateRegion]:
    """Smallest boundary area over all circle-subset candidates at volume v.

    Enumerates the 2^k subsets of circle factors, solves the ball radius
    from region volume = v, and measures each boundary through mensuration
    only.
    """
    v = positive_finite(float(v), "volume")
    best: tuple[float, CandidateRegion] | None = None
    for size in range(spec.circle_count + 1):
        for indices in itertools.combinations(range(spec.circle_count), size):
            m = spec.circle_count - size + spec.euclid_dim
            measure = spec.torus_measure(indices)
            # Root each factor apart: the quotient leaves the double range
            # for tiny or huge tori long before the radius does.
            scale = (measure * unit_ball_volume(m)) ** (1.0 / m)
            if scale == 0.0:
                raise DomainError(
                    f"circle subset {indices}: its measure times the unit "
                    f"{m}-ball volume underflows to 0.0 (measure {measure!r}, m = {m})"
                )
            radius = v ** (1.0 / m) / scale
            region = CandidateRegion(indices, radius)
            area = region_boundary_area(spec, region)
            if best is None or area < best[0]:
                best = (area, region)
    assert best is not None
    return best


def gap_crossings(
    upper: profiles.PiecewiseProfile,
    lower: profiles.PiecewiseProfile,
    target: float,
    lo: float,
    hi: float,
) -> list[tuple[float, float]]:
    """Every sign change of upper(v) - lower(v) - target on [lo, hi].

    Between the profiles' breakpoints the gap is c1 v^p1 - c2 v^p2 - target,
    monotone on either side of its one stationary point. The range ends,
    the breakpoints and those points cut [lo, hi] into monotone pieces, and
    a piece whose ends differ in sign holds exactly one crossing: it is
    narrowed to two adjacent doubles, or to (x, x) where the gap is exactly
    zero. Crossings come in ascending order; a zero on a cut counts once,
    and only if the sign changes across it, so a gap that is zero at every
    cut gives [].
    """
    if not (0.0 < lo < hi < math.inf):
        raise DomainError(f"crossing range must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")
    edges = sorted(
        {lo, hi, *(b for b in (*upper.breakpoints(), *lower.breakpoints()) if lo < b < hi)}
    )
    cuts = set(edges)
    for a, b in itertools.pairwise(edges):
        # Segments are closed on the right, so the pair at b holds on (a, b];
        # the gap is stationary where c1 p1 v^p1 = c2 p2 v^p2.
        s1, s2 = upper.segment_at(b), lower.segment_at(b)
        if s1.exponent == s2.exponent:
            continue
        try:
            x = (s2.coeff * s2.exponent / (s1.coeff * s1.exponent)) ** (
                1.0 / (s1.exponent - s2.exponent)
            )
        except (OverflowError, ZeroDivisionError):  # beyond every double
            continue
        if a < x < b:
            cuts.add(x)

    def sign(v: float) -> int:
        gap = upper(v) - lower(v) - target
        return (gap > 0.0) - (gap < 0.0)

    crossings = []
    last = zero = None  # last cut with a nonzero gap and its sign; first zero since
    for x in sorted(cuts):
        s = sign(x)
        if s == 0:
            zero = x if zero is None else zero
            continue
        if last is not None and last[1] != s:
            crossings.append((zero, zero) if zero is not None else _narrow(sign, last[0], x))
        last, zero = (x, s), None
    return crossings


def _narrow(sign: Callable[[float], int], a: float, b: float) -> tuple[float, float]:
    # Bisect the int64 bit patterns of positive doubles, which order them by
    # value, down to two adjacent doubles: at most 63 halvings.
    sign_a = sign(a)
    ia, ib = struct.unpack("<2q", struct.pack("<2d", a, b))
    while ib - ia > 1:
        mid = (ia + ib) // 2
        (x,) = struct.unpack("<d", struct.pack("<q", mid))
        s = sign(x)
        if s == 0:
            return x, x
        ia, ib = (mid, ib) if s == sign_a else (ia, mid)
    return struct.unpack("<2d", struct.pack("<2q", ia, ib))


def bisect_verify(residual: Callable[[float], float], root: float, tolerance: float) -> bool:
    """True when a claimed root checks out against its defining residual.

    Passes on an exact zero at the root, or on a sign change across
    root * (1 -+ 10 tolerance): a relative test, so it holds at any scale.
    """
    r_lo = residual(root * (1.0 - 10.0 * tolerance))
    r_hi = residual(root * (1.0 + 10.0 * tolerance))
    # Signs, not their product, which underflows to 0.0 at tiny scales.
    return residual(root) == 0.0 or min(r_lo, r_hi) <= 0.0 <= max(r_lo, r_hi)


# ---------------------------------------------------------------------------
# The defining relations of the critical reports.


def _relations(report: CriticalReport) -> tuple[dict, dict]:
    """The relations that define a report's constants: (residuals, gaps).

    ``gaps`` maps each gap root, in scan order, to its (upper, lower, target)
    triple: the root is where upper - lower crosses target. ``residuals``
    maps every other constant to its residual. The max and min relations
    read their terms from the sub-reports and sibling records, never from
    the constant they define; the embedding volumes are region_volume's.
    """
    spec, n = report.spec, report.spec.euclid_dim
    if report.kind == "two-torus":
        r1, r2 = spec.radii
        b1, b2 = profiles.beta(n, r1), profiles.beta(n, r2)
        circ1, circ2 = (profiles.circle_piecewise(n + 1, r) for r in spec.radii)
        slab = profiles.slab_piecewise(spec)
        ball = profiles.euclidean_piecewise(n + 1)
        # Circle r1 times the (n+1)-ball of radius pi r2, and the (n+2)-ball of radius pi r1.
        v_s_value = min(
            region_volume(spec, CandidateRegion((0,), math.pi * r2)),
            region_volume(spec, CandidateRegion((), math.pi * r1)),
        )
        k_value = max(TWO_PI * r1 * ball(report.theta_star), TWO_PI * r2 * ball(report.sigma_star))
        residuals = {
            "theta_star": lambda x: math.pi * r1 * ball(x) + x - b2,
            "sigma_star": lambda x: math.pi * r2 * ball(x) + x - b1,
            "K_star": lambda x: x - k_value,
            "c_n": lambda x: circ1(x) - report.K_star,
            "v_s": lambda x: x - v_s_value,
            "v_star": lambda x: x - min(report.v_s, report.c_n, report.v0_1),
            "v_dstar": lambda x: x - max(report.a_n, report.b_n),
        }
        # Each circle's law meets the slab law at v0_i and clears it by 2 beta at a_n/b_n.
        gaps = {
            "v0_1": (circ1, slab, 0.0),
            "a_n": (circ1, slab, 2.0 * b1),
            "v0_2": (circ2, slab, 0.0),
            "b_n": (circ2, slab, 2.0 * b2),
        }
        return residuals, gaps
    sub_n = report.sub_reports["n"]
    sub_up = report.sub_reports["n_plus_1"]
    r1, r2, r3 = spec.radii
    circ1 = profiles.circle_piecewise(n + 2, r1)
    ball = profiles.euclidean_piecewise(n + 2)
    w_value = min(sub_n.v_star, profiles.beta(n + 1, r1))
    # Circle r1 times the (n+2)-ball of radius pi r2.
    realizable = region_volume(spec, CandidateRegion((0,), math.pi * r2))
    residuals = {
        "w_star": lambda x: x - w_value,
        "eta_star": lambda x: math.pi * r3 * ball(x) + x - report.w_star,
        "C_star": lambda x: x - 2.0 * (report.w_star - report.eta_star),
        "u0": lambda x: circ1(x) - report.C_star,
        "u_star": lambda x: x - min(report.u0, sub_up.v_star, realizable),
        "u_dstar": lambda x: x - max(sub_up.v_dstar, report.u_slab_crossing),
    }
    slab_up = profiles.slab_piecewise(TorusProductSpec((r1, r2), n + 1))
    gaps = {"u_slab_crossing": (slab_up, profiles.slab_piecewise(spec), 2.0 * sub_n.v_dstar)}
    return residuals, gaps


def report_residuals(report: CriticalReport) -> dict[str, Callable[[float], float]]:
    """Every constant's defining residual; a gap root's is upper(x) - lower(x) - target."""
    residuals, gaps = _relations(report)
    for name, (upper, lower, target) in gaps.items():
        residuals[name] = lambda x, u=upper, l=lower, t=target: u(x) - l(x) - t
    return residuals


def _walk(report: CriticalReport, checks) -> list[CheckResult]:
    """checks(report), then each sub-report's walk, its names as sub[<key>]:<name>."""
    results = checks(report)
    for key, sub in report.sub_reports.items():
        results += [c._replace(name=f"sub[{key}]:{c.name}") for c in _walk(sub, checks)]
    return results


def verify_report(report: CriticalReport) -> list[CheckResult]:
    """bisect_verify every reported constant against its defining residual."""
    return _walk(report, _constant_checks)


def _constant_checks(report: CriticalReport) -> list[CheckResult]:
    residuals = report_residuals(report)
    results = []
    for name, record in report.constants.items():
        residual = residuals[name]
        ok = bisect_verify(residual, record.value, _CHECK_TOLERANCE)
        detail = f"value={record.value!r} residual_at_value={residual(record.value):.3e}"
        results.append(CheckResult(f"constant:{name}", ok, detail))
    return results


def _gap_scans(report: CriticalReport) -> list[CheckResult]:
    """A scan of each of the report's own gap roots, in the table's order."""
    _, gaps = _relations(report)
    return [
        _scan_check(name, *triple, report.constants[name].value, 1e2)
        for name, triple in gaps.items()
    ]


def _scan_check(
    name: str, upper, lower, target: float, root: float, spread: float
) -> CheckResult:
    # The last crossing on [root / spread, root * spread] must be the reported
    # root within tolerance; with no crossing the NaN bracket fails.
    crossings = gap_crossings(upper, lower, target, root / spread, root * spread)
    a, b = crossings[-1] if crossings else (math.nan, math.nan)
    ok = a * (1.0 - _CHECK_TOLERANCE) <= root <= b * (1.0 + _CHECK_TOLERANCE)
    return CheckResult(f"scan:{name}", ok, f"crossings={crossings}")


def _profile_agreement(spec: TorusProductSpec) -> CheckResult:
    # Log-spaced volumes from three decades below the envelope's first
    # breakpoint to three above its last, so every regime is sampled at any
    # scale; clamped to the normal doubles.
    envelope = profiles.envelope_piecewise(spec)
    cuts = envelope.breakpoints()
    log_lo = math.log(max(cuts[0] * 1e-3, sys.float_info.min))
    log_hi = math.log(min(cuts[-1] * 1e3, sys.float_info.max))
    step = (log_hi - log_lo) / (_PROFILE_POINTS - 1)
    volumes = [math.exp(log_lo + i * step) for i in range(_PROFILE_POINTS)]
    worst, compared = 0.0, 0
    closed_areas, _ = envelope.values(volumes)
    for v, closed in zip(volumes, closed_areas):
        brute, _ = candidate_min_area(spec, v)
        # Skip volumes where an under- or overflowed candidate area won the minimum.
        if sys.float_info.min <= brute < math.inf:
            worst, compared = max(worst, abs(closed - brute) / brute), compared + 1
    if not compared:
        return CheckResult("profile-vs-oracle", False, "no sampled oracle area is a normal double")
    return CheckResult("profile-vs-oracle", worst <= 1e-9, f"max relative gap {worst:.3e}")


def verify_spec(spec: TorusProductSpec) -> list[CheckResult]:
    """Full oracle suite for one spec: profiles, constants and crossings.

    Uses fixed internal tolerances; the point is to check the reported
    numbers, not to re-derive them.
    """
    checks = [_profile_agreement(spec)]
    if spec.circle_count == 1:
        return checks

    report = full_report(spec)
    checks.extend(verify_report(report))

    n = spec.euclid_dim
    if spec.circle_count == 2:
        for label, r in (("r1", spec.radii[0]), ("r2", spec.radii[1])):
            # The whole ball and cylinder laws, each as a one-segment profile.
            ball, cyl = (
                profiles.PiecewiseProfile((seg._replace(v_lo=0.0, v_hi=math.inf),))
                for seg in profiles.circle_piecewise(n, r).segments
            )
            checks.append(_scan_check(f"beta({label})", ball, cyl, 0.0, profiles.beta(n, r), 1e3))
    checks.extend(_walk(report, _gap_scans))
    return checks
