"""Brute-force verification paths, independent of the closed-form profiles.

``candidate_min_area`` never touches the profile algebra: it enumerates
every circle-subset candidate, solves the ball radius from the requested
volume and measures the boundary directly, so agreement with the profile
modules is a meaningful cross-check. ``crossing_scan`` and
``bisect_verify`` are the matching scan/sign-change oracles for the root
solvers and the reported constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from . import profiles
from .criticals import CriticalReport, T2Criticals, full_report
from .errors import DomainError
from .mensuration import (
    TWO_PI,
    CandidateRegion,
    TorusProductSpec,
    region_boundary_area,
    unit_ball_volume,
)
from .roots import DEFAULT_TOLERANCE

# verify_spec's fixed effort: profile-vs-oracle volumes, points per
# sign-change scan, and the residual tolerance for every reported constant.
_PROFILE_POINTS = 160
_SCAN_STEPS = 200_000
_CHECK_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a log-grid sign-change scan.

    When no sign change is found the report flags it instead of raising;
    the consuming test turns that into an assertion failure.
    """

    found: bool
    estimate: float
    bracket: tuple[float, float]
    step: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def candidate_min_area(
    spec: TorusProductSpec, v: float
) -> tuple[float, CandidateRegion]:
    """Smallest boundary area over all circle-subset candidates at volume v.

    Enumerates the 2^k subsets of circle factors, solves the ball radius
    from region volume = v, and measures each boundary through mensuration
    only.
    """
    v = float(v)
    if not (v > 0.0) or not math.isfinite(v):
        raise DomainError(f"volume must be positive, got {v!r}")
    best: tuple[float, CandidateRegion] | None = None
    for size in range(spec.circle_count + 1):
        for indices in itertools.combinations(range(spec.circle_count), size):
            m = spec.circle_count - size + spec.euclid_dim
            measure = spec.torus_measure(indices)
            # Root each factor apart: the quotient leaves the double range
            # for tiny or huge tori long before the radius does.
            radius = v ** (1.0 / m) / (measure * unit_ball_volume(m)) ** (1.0 / m)
            region = CandidateRegion(indices, m, radius)
            area = region_boundary_area(spec, region)
            if best is None or area < best[0]:
                best = (area, region)
    assert best is not None
    return best


def crossing_scan(f, g, lo: float, hi: float, steps: int) -> ScanReport:
    """Scan a log-spaced grid for the (single) sign change of f - g.

    f and g must accept numpy arrays. The caller guarantees at most one
    crossing on the range; the first sign change found is reported with its
    bracketing grid pair and the geometric midpoint as the estimate.
    """
    if not (0.0 < lo < hi):
        raise DomainError(f"scan range must satisfy 0 < lo < hi, got ({lo}, {hi})")
    if steps < 2:
        raise DomainError(f"scan needs at least 2 steps, got {steps}")
    import numpy as np  # loaded on first use: scalar-only commands start without it

    xs = np.geomspace(lo, hi, steps)
    diff = np.asarray(f(xs), dtype=float) - np.asarray(g(xs), dtype=float)
    step = (hi / lo) ** (1.0 / (steps - 1))
    signs = np.sign(diff)
    nonzero = np.nonzero(signs != 0)[0]
    if nonzero.size == 0:
        # Identically zero difference: nothing crosses anything.
        return ScanReport(False, math.nan, (math.nan, math.nan), step)
    flips = np.nonzero(signs[nonzero[:-1]] != signs[nonzero[1:]])[0]
    if flips.size == 0:
        return ScanReport(False, math.nan, (math.nan, math.nan), step)
    i, j = int(nonzero[flips[0]]), int(nonzero[flips[0] + 1])
    if j > i + 1:
        # The crossing landed exactly on a grid point between the two
        # opposite-sign samples.
        x = float(xs[i + 1])
        return ScanReport(True, x, (x, x), step)
    a, b = float(xs[i]), float(xs[j])
    return ScanReport(True, math.sqrt(a * b), (a, b), step)


def bisect_verify(residual: Callable[[float], float], root: float, tolerance: float) -> bool:
    """True when a claimed root checks out against its defining residual.

    Passes when the residual at the root is already within tolerance, or
    when it changes sign across the bracket widened by 10x the tolerance.
    """
    r0 = residual(root)
    if abs(r0) <= tolerance:
        return True
    r_lo = residual(root * (1.0 - 10.0 * tolerance))
    r_hi = residual(root * (1.0 + 10.0 * tolerance))
    return r_lo * r_hi <= 0.0


# ---------------------------------------------------------------------------
# Residual systems for the critical reports.


def t2_residuals(
    spec: TorusProductSpec, crit: T2Criticals
) -> dict[str, Callable[[float], float]]:
    """Defining-equation residuals for every two-circle constant."""
    r1, r2 = spec.radii
    n = spec.euclid_dim
    b1 = profiles.beta(n, r1)
    b2 = profiles.beta(n, r2)
    circ1 = profiles.circle_piecewise(n + 1, r1)
    circ2 = profiles.circle_piecewise(n + 1, r2)
    slab = profiles.slab_piecewise(spec)
    ball = profiles.euclidean_piecewise(n + 1)

    v_s_value = min(
        TWO_PI * r1 * unit_ball_volume(n + 1) * (math.pi * r2) ** (n + 1),
        unit_ball_volume(n + 2) * (math.pi * r1) ** (n + 2),
    )
    k_value = max(
        TWO_PI * r1 * ball(crit.theta_star),
        TWO_PI * r2 * ball(crit.sigma_star),
    )
    return {
        "theta_star": lambda x: math.pi * r1 * ball(x) + x - b2,
        "sigma_star": lambda x: math.pi * r2 * ball(x) + x - b1,
        "K_star": lambda x: x - k_value,
        "c_n": lambda x: circ1(x) - crit.K_star,
        "v_s": lambda x: x - v_s_value,
        "v0_1": lambda x: circ1(x) - slab(x),
        "v0_2": lambda x: circ2(x) - slab(x),
        "v_star": lambda x: x - min(crit.v_s, crit.c_n, crit.v0_1),
        "a_n": lambda x: circ1(x) - slab(x) - 2.0 * b1,
        "b_n": lambda x: circ2(x) - slab(x) - 2.0 * b2,
        "v_dstar": lambda x: x - max(crit.a_n, crit.b_n),
    }


def t3_residuals(report: CriticalReport) -> dict[str, Callable[[float], float]]:
    """Defining-equation residuals for every constant of a three-circle report.

    The max and min relations read their terms from the sub-reports and
    sibling records, never from the constant they define.
    """
    spec, crit = report.spec, report.criticals
    sub_n = report.sub_reports["n"].criticals
    sub_up = report.sub_reports["n_plus_1"].criticals
    crossing = report.constants["u_slab_crossing"].value
    r1, r2, r3 = spec.radii
    n = spec.euclid_dim
    circ1 = profiles.circle_piecewise(n + 2, r1)
    two_up = TorusProductSpec((r1, r2), n + 1)
    slab_up = profiles.slab_piecewise(two_up)
    slab3 = profiles.slab_piecewise(spec)
    ball = profiles.euclidean_piecewise(n + 2)

    w_value = min(sub_n.v_star, profiles.beta(n + 1, r1))
    realizable = TWO_PI * r1 * unit_ball_volume(n + 2) * (math.pi * r2) ** (n + 2)
    return {
        "w_star": lambda x: x - w_value,
        "eta_star": lambda x: math.pi * r3 * ball(x) + x - crit.w_star,
        "C_star": lambda x: x - 2.0 * (crit.w_star - crit.eta_star),
        "u0": lambda x: circ1(x) - crit.C_star,
        "u_star": lambda x: x - min(crit.u0, sub_up.v_star, realizable),
        "u_slab_crossing": lambda x: slab_up(x) - slab3(x) - 2.0 * sub_n.v_dstar,
        "u_dstar": lambda x: x - max(sub_up.v_dstar, crossing),
    }


def report_residuals(report: CriticalReport) -> dict[str, Callable[[float], float]]:
    if report.kind == "two-torus":
        return t2_residuals(report.spec, report.criticals)
    return t3_residuals(report)


def verify_report(
    report: CriticalReport, *, tolerance: float = _CHECK_TOLERANCE
) -> list[CheckResult]:
    """bisect_verify every reported constant against its defining residual."""
    residuals = report_residuals(report)
    results = []
    for name, record in report.constants.items():
        residual = residuals[name]
        ok = bisect_verify(residual, record.value, tolerance)
        detail = f"value={record.value!r} residual_at_value={residual(record.value):.3e}"
        results.append(CheckResult(f"constant:{name}", ok, detail))
    for key, sub in report.sub_reports.items():
        for res in verify_report(sub, tolerance=tolerance):
            results.append(CheckResult(f"sub[{key}]:{res.name}", res.ok, res.detail))
    return results


def _profile_agreement(spec: TorusProductSpec) -> CheckResult:
    import numpy as np

    volumes = [float(v) for v in np.geomspace(1e-3, 1e6, _PROFILE_POINTS)]
    worst = 0.0
    closed_areas, _ = profiles.envelope_piecewise(spec).values(volumes)
    for v, closed in zip(volumes, closed_areas):
        brute, _ = candidate_min_area(spec, v)
        worst = max(worst, abs(closed - brute) / brute)
    return CheckResult(
        "profile-vs-oracle", worst <= 1e-9, f"max relative gap {worst:.3e}"
    )


def verify_spec(spec: TorusProductSpec) -> list[CheckResult]:
    """Full oracle suite for one spec: profiles, constants and scans.

    Uses fixed internal tolerances regardless of what a spec file asked
    for; the point is to check the reported numbers, not to re-derive them.
    """
    checks = [_profile_agreement(spec)]
    if spec.circle_count == 1:
        return checks

    report = full_report(spec, tolerance=DEFAULT_TOLERANCE)
    checks.extend(verify_report(report))

    import numpy as np

    n = spec.euclid_dim
    if spec.circle_count == 2:
        crit = report.criticals
        circ1 = profiles.circle_piecewise(n + 1, spec.radii[0])
        slab = profiles.slab_piecewise(spec)
        for label, r in (("r1", spec.radii[0]), ("r2", spec.radii[1])):
            target = profiles.beta(n, r)
            ball, cyl = profiles.circle_piecewise(n, r).segments
            scan = crossing_scan(
                ball.value, cyl.value, target * 1e-3, target * 1e3, _SCAN_STEPS
            )
            ok = scan.found and scan.bracket[0] <= target <= scan.bracket[1]
            checks.append(
                CheckResult(f"scan:beta({label})", ok, f"bracket={scan.bracket}")
            )
        for name, root, offset in (
            ("v0_1", crit.v0_1, 0.0),
            ("a_n", crit.a_n, 2.0 * profiles.beta(n, spec.radii[0])),
        ):
            scan = crossing_scan(
                lambda x, off=offset: circ1(x) - slab(x),
                lambda x, off=offset: np.full_like(x, off),
                root * 1e-2,
                root * 1e2,
                _SCAN_STEPS,
            )
            ok = scan.found and scan.bracket[0] <= root <= scan.bracket[1]
            checks.append(CheckResult(f"scan:{name}", ok, f"bracket={scan.bracket}"))
    else:
        crossing = report.constants["u_slab_crossing"].value
        r1, r2, _ = spec.radii
        slab_up = profiles.slab_piecewise(TorusProductSpec((r1, r2), n + 1))
        slab3 = profiles.slab_piecewise(spec)
        target = 2.0 * report.sub_reports["n"].criticals.v_dstar
        scan = crossing_scan(
            lambda x: slab_up(x) - slab3(x),
            lambda x: np.full_like(x, target),
            crossing * 1e-2,
            crossing * 1e2,
            _SCAN_STEPS,
        )
        ok = scan.found and scan.bracket[0] <= crossing <= scan.bracket[1]
        checks.append(CheckResult("scan:u_slab_crossing", ok, f"bracket={scan.bracket}"))
    return checks
