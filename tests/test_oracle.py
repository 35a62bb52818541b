import dataclasses
import math

import numpy as np
import pytest

from torusiso import (
    DomainError,
    TorusProductSpec,
    beta,
    candidate_min_area,
    envelope_piecewise,
    full_report,
    scp_piecewise,
    verify_report,
    verify_spec,
)
from torusiso.oracle import bisect_verify, crossing_scan

from refvalues import BETA_2_SQ, EUCLID4_AT_1, SQRT_PI_RADIUS, THETA_EXAMPLE, VDSTAR_EXAMPLE


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


class TestCandidateMinArea:
    def test_small_volume_ball_wins(self, example_spec):
        area, winner = candidate_min_area(example_spec, 1.0)
        assert rel(area, EUCLID4_AT_1) < 1e-12
        assert winner.circle_indices == ()

    def test_large_volume_slab_wins(self, example_spec):
        area, winner = candidate_min_area(example_spec, 1e6)
        assert rel(area, 4 * math.pi * 1e3) < 1e-12
        assert winner.circle_indices == (0, 1)

    def test_tie_at_breakpoint(self):
        from torusiso import unit_ball_volume
        from torusiso.mensuration import CandidateRegion, region_boundary_area

        spec = TorusProductSpec((1.0,), 2)
        v = beta(2, 1.0)
        ball_radius = (v / unit_ball_volume(3)) ** (1 / 3)
        ball = region_boundary_area(spec, CandidateRegion.for_spec(spec, (), ball_radius))
        cyl_radius = (v / (2 * math.pi * unit_ball_volume(2))) ** 0.5
        cylinder = region_boundary_area(
            spec, CandidateRegion.for_spec(spec, (0,), cyl_radius)
        )
        assert rel(ball, cylinder) < 1e-9
        area, _ = candidate_min_area(spec, v)
        assert rel(area, min(ball, cylinder)) < 1e-12

    def test_volume_validation(self, example_spec):
        with pytest.raises(DomainError):
            candidate_min_area(example_spec, 0.0)

    @pytest.mark.parametrize("radii", [(1e-70, 1e-70), (1e40, 1e40)])
    def test_extreme_tori_over_the_double_range(self, radii):
        # The ball radius stays a normal double even where the volume over
        # the torus measure does not; the envelope evaluates every volume.
        spec = TorusProductSpec(radii, 2)
        envelope = envelope_piecewise(spec)
        for e in range(-300, 301, 2):
            v = 10.0**e
            area, _ = candidate_min_area(spec, v)
            assert rel(area, envelope(v)) < 1e-12, v


class TestCrossingScan:
    def test_brackets_breakpoint_volume(self):
        from torusiso import circle_piecewise

        ball, cylinder = circle_piecewise(2, 1.0).segments
        scan = crossing_scan(ball.value, cylinder.value, 1.0, 1000.0, 1_000_000)
        assert scan.found
        target = 32 * math.pi**4 / 81
        assert scan.bracket[0] <= target <= scan.bracket[1]
        assert rel(scan.estimate, target) < 1e-4

    def test_equal_curves_report_failure(self):
        scan = crossing_scan(lambda x: x, lambda x: x, 1.0, 10.0, 1000)
        assert not scan.found
        assert math.isnan(scan.estimate)

    def test_brackets_large_threshold(self, example_spec):
        from torusiso import circle_piecewise, slab_piecewise

        circle = circle_piecewise(3, SQRT_PI_RADIUS)
        slab = slab_piecewise(example_spec)
        target = 2 * BETA_2_SQ
        scan = crossing_scan(
            lambda x: circle(x) - slab(x),
            lambda x: target + 0.0 * x,
            1.0,
            1e4,
            500_000,
        )
        assert scan.found
        assert scan.bracket[0] <= VDSTAR_EXAMPLE <= scan.bracket[1]

    def test_range_validation(self):
        with pytest.raises(DomainError):
            crossing_scan(lambda x: x, lambda x: 1.0 + 0.0 * x, -1.0, 10.0, 100)
        with pytest.raises(DomainError):
            crossing_scan(lambda x: x, lambda x: 1.0 + 0.0 * x, 1.0, 10.0, 1)


class TestBisectVerify:
    def test_trivial_root(self):
        assert bisect_verify(lambda x: x - 7.0, 7.0, 1e-9)

    def test_balance_equation_at_reported_root(self, example_spec):
        coeff = math.pi * SQRT_PI_RADIUS * 3 * (4 * math.pi / 3) ** (1 / 3)
        residual = lambda t: coeff * t ** (2 / 3) + t - BETA_2_SQ
        assert bisect_verify(residual, THETA_EXAMPLE, 1e-9)

    def test_perturbed_root_rejected(self):
        coeff = math.pi * SQRT_PI_RADIUS * 3 * (4 * math.pi / 3) ** (1 / 3)
        residual = lambda t: coeff * t ** (2 / 3) + t - BETA_2_SQ
        assert not bisect_verify(residual, THETA_EXAMPLE * 1.01, 1e-9)


class TestVerification:
    def test_example_report_passes(self, example_spec):
        report = full_report(example_spec)
        results = verify_report(report, tolerance=1e-9)
        assert results
        assert all(check.ok for check in results)

    def test_three_torus_report_passes(self, unit_spec3):
        report = full_report(unit_spec3)
        results = verify_report(report, tolerance=1e-9)
        names = {check.name for check in results}
        assert any(name.startswith("sub[n]") for name in names)
        assert all(check.ok for check in results)

    def test_verify_spec_clean(self, example_spec):
        checks = verify_spec(example_spec)
        assert all(check.ok for check in checks)

    def test_verify_spec_k1(self):
        checks = verify_spec(TorusProductSpec((1.2,), 3))
        assert all(check.ok for check in checks)

    def test_verify_spec_k3_scans_slab_crossing(self):
        checks = verify_spec(TorusProductSpec((0.6, 1.1, 2.3), 3))
        assert "scan:u_slab_crossing" in {check.name for check in checks}
        assert all(check.ok for check in checks)


def _tampered(report, name, path=()):
    """``report`` with constant ``name`` of the sub-report at ``path`` scaled by
    1 + 1e-6, in its record and in the same-named criticals field if any."""
    if path:
        key, *rest = path
        subs = {**report.sub_reports, key: _tampered(report.sub_reports[key], name, rest)}
        return dataclasses.replace(report, sub_reports=subs)
    record = report.constants[name]
    wrong = record.value * (1.0 + 1e-6)
    constants = {**report.constants, name: dataclasses.replace(record, value=wrong)}
    criticals = report.criticals
    if name in {f.name for f in dataclasses.fields(criticals)}:
        criticals = dataclasses.replace(criticals, **{name: wrong})
    return dataclasses.replace(report, criticals=criticals, constants=constants)


def _constant_paths(report, path=()):
    for name in report.constants:
        yield path, name
    for key, sub in report.sub_reports.items():
        yield from _constant_paths(sub, (*path, key))


class TestTamperedReports:
    # No residual may be defined by its own reported value: moving any one
    # constant off its defining relation must fail that constant's check.
    @pytest.mark.parametrize("fixture", ["example_spec", "unit_spec3"])
    def test_every_scaled_constant_fails_its_check(self, fixture, request):
        report = full_report(request.getfixturevalue(fixture))
        for path, name in _constant_paths(report):
            check = "".join(f"sub[{key}]:" for key in path) + f"constant:{name}"
            results = {r.name: r.ok for r in verify_report(_tampered(report, name, path))}
            assert results[check] is False, check


class TestOracleAgreement:
    def test_randomized_two_circle_specs(self):
        import random

        rng = random.Random(7)
        for _ in range(3):
            radii = sorted(rng.uniform(0.5, 2.5) for _ in range(2))
            n = rng.randint(2, 5)
            spec = TorusProductSpec(tuple(radii), n)
            for v in np.geomspace(1e-3, 1e6, 60):
                closed = scp_piecewise(spec)(float(v))
                brute, _ = candidate_min_area(spec, float(v))
                assert rel(closed, brute) < 1e-9
