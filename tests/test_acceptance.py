"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import random
import time

from torusiso import (
    PiecewiseProfile,
    TorusProductSpec,
    band,
    beta,
    candidate_min_area,
    circle_piecewise,
    envelope_piecewise,
    full_report,
    slab_piecewise,
    solve_power_gap,
    verify_report,
)
from torusiso.oracle import bisect_verify, gap_crossings, report_residuals

from grids import log_grid
from refvalues import SQRT_PI_RADIUS


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def report_line(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def example_spec():
    return TorusProductSpec((SQRT_PI_RADIUS, SQRT_PI_RADIUS), 2)


def random_two_circle_specs(count, seed):
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        radii = tuple(sorted(rng.uniform(0.5, 2.5) for _ in range(2)))
        specs.append(TorusProductSpec(radii, rng.randint(2, 5)))
    return specs


def random_three_circle_specs(count, seed):
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        radii = tuple(sorted(rng.uniform(0.5, 2.5) for _ in range(3)))
        specs.append(TorusProductSpec(radii, rng.randint(2, 4)))
    return specs


def test_criterion_1_example_reproduction():
    start = time.perf_counter()
    crit = full_report(example_spec())
    elapsed = time.perf_counter() - start
    ok = (
        abs(crit.v_star - 2.70) <= 0.05
        and abs(crit.v_dstar - 55.84) <= 0.10
        and elapsed < 1.0
    )
    report_line(1, "example-torus thresholds", ok)


def test_criterion_2_sphere_cylinder_constant():
    # T^2 x R^1: spheres hand over to cylinders about r1 at beta(2, r1).
    value = beta(2, SQRT_PI_RADIUS)
    exact = 32 * math.pi ** 2.5 / 81
    report_line(2, "sphere/cylinder crossing constant", rel(value, exact) <= 1e-9)


def test_criterion_3_slab_closed_form():
    spec = example_spec()
    ok = True
    for v in log_grid(1e-3, 1e6, 100):
        ok = ok and rel(slab_piecewise(spec)(v), 4 * math.pi * math.sqrt(v)) <= 1e-12
    report_line(3, "slab profile closed form", ok)


def test_criterion_4_breakpoint_scan_agreement():
    ok = True
    for n in range(2, 8):
        for r in (0.1, SQRT_PI_RADIUS, 1.0, 2.0):
            target = beta(n, r)
            ball, cylinder = circle_piecewise(n, r).segments
            # Each branch's whole power law, as a one-segment profile.
            laws = [
                PiecewiseProfile((s._replace(v_lo=0.0, v_hi=math.inf),))
                for s in (ball, cylinder)
            ]
            crossings = gap_crossings(*laws, 0.0, target * 1e-3, target * 1e3)
            ok = ok and bool(crossings) and rel(crossings[-1][1], target) <= 1e-9
            ok = ok and rel(ball.value(target), cylinder.value(target)) <= 1e-9
    report_line(4, "breakpoint volumes vs scan oracle", ok)


def test_criterion_5_solver_oracle_equivalence():
    ok = True
    for spec in random_two_circle_specs(10, seed=101):
        results = verify_report(full_report(spec))
        ok = ok and all(check.ok for check in results)
    for spec in random_three_circle_specs(10, seed=202):
        results = verify_report(full_report(spec))
        ok = ok and all(check.ok for check in results)
    rng = random.Random(303)
    for _ in range(100):
        n = rng.randint(2, 6)
        p1, p2 = n / (n + 1), (n - 1) / n
        c1 = rng.uniform(0.1, 50.0)
        # Draw the zero crossing directly so the instance stays conditioned
        # like the pipeline's own gap equations.
        crossing = 10 ** rng.uniform(-1, 3)
        c2 = c1 * crossing ** (p1 - p2)
        b = 10 ** rng.uniform(-3, 3)
        x0 = solve_power_gap(c1, p1, c2, p2, 0.0).root
        x1 = solve_power_gap(c1, p1, c2, p2, b).root
        phi = lambda x: c1 * x**p1 - c2 * x**p2
        ok = ok and rel(x0, crossing) <= 1e-9
        ok = ok and x0 < x1
        ok = ok and all(phi(f * x1) > b for f in (1.01, 2.0, 10.0))
    report_line(5, "solver/oracle equivalence", ok)


def test_criterion_6_profile_oracle_equality():
    ok = True
    for spec in random_two_circle_specs(10, seed=404):
        for v in log_grid(1e-3, 1e6, 200):
            closed = envelope_piecewise(spec)(v)
            brute, _ = candidate_min_area(spec, v)
            ok = ok and rel(closed, brute) <= 1e-9
    report_line(6, "envelope equals brute-force oracle", ok)


def test_criterion_7_band_validity():
    ok = True
    specs = [example_spec(), *random_two_circle_specs(5, seed=505)]
    for spec in specs:
        crit = full_report(spec)
        grid = log_grid(crit.v_star / 10.0, crit.v_dstar * 10.0, 120)
        result = band(spec, grid, report=crit)
        for row in result.rows:
            ok = ok and row.lower <= row.upper
            if row.v <= crit.v_star or row.v >= crit.v_dstar:
                exact = envelope_piecewise(spec)(row.v)
                ok = ok and rel(row.lower, exact) <= 1e-12
                ok = ok and rel(row.upper, exact) <= 1e-12
    report_line(7, "band validity and exactness regions", ok)


def test_criterion_8_documented_discrepancy():
    spec = TorusProductSpec((1.0, 1.0), 2)
    report = full_report(spec)
    ok = abs(report.K_star / 70.12 - 1.0) <= 0.005
    # The pipeline's own large-volume threshold for this torus, emitted and
    # oracle-verified; the headline targets stay with the example torus.
    residuals = report_residuals(report)
    ok = ok and bisect_verify(residuals["v_dstar"], report.v_dstar, 1e-9)
    ok = ok and bisect_verify(residuals["a_n"], report.a_n, 1e-9)
    circle = circle_piecewise(3, 1.0)
    slab = slab_piecewise(spec)
    crossings = gap_crossings(
        circle, slab, 2 * beta(2, 1.0), report.v_dstar * 1e-2, report.v_dstar * 1e2
    )
    ok = ok and bool(crossings) and rel(crossings[-1][1], report.v_dstar) <= 1e-9
    ok = ok and abs(report.v_dstar - 551.0) < 1.0
    report_line(8, "unit-torus K_star interpretation", ok)


def test_criterion_9_three_torus_property_suite():
    spec = TorusProductSpec((1.0, 1.0, 1.0), 2)
    start = time.perf_counter()
    crit = full_report(spec)
    elapsed = time.perf_counter() - start
    sub = full_report(TorusProductSpec((1.0, 1.0), 2))
    ok = crit.w_star <= sub.v_star
    ok = ok and rel(crit.C_star, 2 * (crit.w_star - crit.eta_star)) <= 1e-9
    ok = ok and crit.u_star <= crit.u0
    ok = ok and crit.u_star <= crit.u_dstar
    results = verify_report(full_report(spec))
    ok = ok and all(check.ok for check in results)
    ok = ok and elapsed < 2.0
    report_line(9, "three-circle property suite", ok)
