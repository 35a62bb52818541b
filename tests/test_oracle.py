import math

import pytest

from torusiso import (
    DomainError,
    PiecewiseProfile,
    PowerSegment,
    TorusProductSpec,
    beta,
    candidate_min_area,
    envelope_piecewise,
    full_report,
    verify_report,
    verify_spec,
)
from torusiso import oracle
from torusiso.oracle import bisect_verify, gap_crossings

from grids import log_grid
from refvalues import BETA_2_SQ, EUCLID4_AT_1, SQRT_PI_RADIUS, THETA_EXAMPLE, VDSTAR_EXAMPLE


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def law(coeff, exponent):
    """The power law coeff * v^exponent on all of (0, inf), as a profile."""
    return PiecewiseProfile((PowerSegment(coeff, exponent, 0.0, math.inf, "slab"),))


def whole(segment):
    """A profile segment's power law extended to all of (0, inf)."""
    return PiecewiseProfile((segment._replace(v_lo=0.0, v_hi=math.inf),))


def grid_scan_crossings(upper, lower, target, lo, hi, steps=200_000):
    """The log-grid sign-change scan ``verify`` used before: a crossing per
    sign flip between neighbouring grid points, as the bracketing pair."""
    xs = log_grid(lo, hi, steps)
    gaps = [upper(x) - lower(x) - target for x in xs]
    signs = [(gap > 0) - (gap < 0) for gap in gaps]
    return [(xs[i], xs[i + 1]) for i in range(steps - 1) if signs[i] != signs[i + 1]]


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
        ball = region_boundary_area(spec, CandidateRegion((), ball_radius))
        cyl_radius = (v / (2 * math.pi * unit_ball_volume(2))) ** 0.5
        cylinder = region_boundary_area(
            spec, CandidateRegion((0,), cyl_radius)
        )
        assert rel(ball, cylinder) < 1e-9
        area, _ = candidate_min_area(spec, v)
        assert rel(area, min(ball, cylinder)) < 1e-12

    def test_ball_wins_where_torus_candidates_once_underflowed(self):
        # R^(m-1) of the candidates over the 1.1e275 circle underflows to 0.0
        # although their areas are normal doubles (near 1e-138 and 1e-149),
        # so a 0.0 once won the minimum over the ball's 7.85e-201.
        spec = TorusProductSpec((2.449358874805687e-34, 1.1311864152620641e275), 5)
        v = 2.79e-235
        area, winner = candidate_min_area(spec, v)
        assert winner.circle_indices == ()
        assert rel(area, envelope_piecewise(spec)(v)) < 1e-12
        assert 7.8e-201 < area < 7.9e-201

    def test_volume_validation(self, example_spec):
        with pytest.raises(DomainError):
            candidate_min_area(example_spec, 0.0)

    def test_subset_measure_that_underflows_is_refused(self):
        # The measure of both circles, 4 pi^2 1e-400, underflows to 0.0, which
        # once ended in a bare ZeroDivisionError.
        with pytest.raises(DomainError) as refusal:
            candidate_min_area(TorusProductSpec((1e-200, 1e-200), 2), 1.0)
        assert str(refusal.value) == (
            "circle subset (0, 1): its measure times the unit 2-ball volume "
            "underflows to 0.0 (measure 0.0, m = 2)"
        )
        # One circle of that size still has a measure, and an answer.
        area, region = candidate_min_area(TorusProductSpec((1e-200, 1.0), 2), 1.0)
        assert region.circle_indices == (0, 1) and 0.0 < area < math.inf

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
        crossings = gap_crossings(whole(ball), whole(cylinder), 0.0, 1.0, 1000.0)
        target = 32 * math.pi**4 / 81
        assert len(crossings) == 1
        a, b = crossings[0]
        assert b == a or b == math.nextafter(a, math.inf)
        assert rel(b, target) < 1e-12

    def test_equal_curves_report_failure(self):
        profile = envelope_piecewise(TorusProductSpec((0.7, 1.9), 3))
        assert gap_crossings(profile, profile, 0.0, 1.0, 1e4) == []
        assert gap_crossings(law(2.0, 0.5), law(2.0, 0.5), 0.0, 1e-3, 1e3) == []

    def test_brackets_large_threshold(self, example_spec):
        from torusiso import circle_piecewise, slab_piecewise

        circle = circle_piecewise(3, SQRT_PI_RADIUS)
        slab = slab_piecewise(example_spec)
        crossings = gap_crossings(circle, slab, 2 * BETA_2_SQ, 1.0, 1e4)
        assert crossings
        assert rel(crossings[-1][1], VDSTAR_EXAMPLE) < 1e-9

    def test_range_validation(self):
        for lo, hi in [(-1.0, 10.0), (0.0, 10.0), (10.0, 10.0), (10.0, 1.0), (1.0, math.inf)]:
            with pytest.raises(DomainError):
                gap_crossings(law(1.0, 1.0), law(1.0, 0.5), 1.0, lo, hi)

    @pytest.mark.parametrize("eps, scan_finds", [(0.19, 2), (1e-10, 0)])
    def test_two_crossings_in_one_window(self, eps, scan_finds):
        # v - 2 sqrt(v) + 1 - eps dips to -eps at v = 1 and is zero at
        # v = (1 -+ sqrt(eps))^2. At eps = 1e-10 the two crossings are
        # 4e-5 apart relative, closer than a 200,000-point log grid over
        # [1e-3, 1e3] (step 6.9e-5), which misses both.
        upper, lower, target = law(1.0, 1.0), law(2.0, 0.5), eps - 1.0
        crossings = gap_crossings(upper, lower, target, 1e-3, 1e3)
        assert len(crossings) == 2
        for (a, b), root in zip(crossings, [(1 - eps**0.5) ** 2, (1 + eps**0.5) ** 2]):
            assert a <= b <= math.nextafter(a, math.inf)
            assert rel(b, root) < 1e-9
        assert len(grid_scan_crossings(upper, lower, target, 1e-3, 1e3)) == scan_finds

    def test_crossings_across_breakpoints_in_order(self):
        # The envelope's cylinder law scaled by 0.999 lies below the envelope
        # only on the cylinder window, so it crosses the envelope once on the
        # ball window and once on the slab window, in ascending order.
        spec = TorusProductSpec((0.7, 1.9), 3)
        envelope = envelope_piecewise(spec)
        ball_to_cylinder, cylinder_to_slab = envelope.breakpoints()
        cylinder = envelope.segments[1]
        shifted = law(cylinder.coeff * 0.999, cylinder.exponent)
        crossings = gap_crossings(envelope, shifted, 0.0, 1e-3, 1e6)
        assert len(crossings) == 2
        (a1, b1), (a2, b2) = crossings
        assert b1 < ball_to_cylinder < cylinder_to_slab < a2
        for a, b in crossings:
            assert rel(envelope(b), shifted(b)) < 1e-12

    def test_exact_zero_on_a_cut_counts_once(self):
        # Equal exponents: the gap 3 v^0.5 - v^0.5 - 4 is exactly zero at the
        # double v = 4, which is also a breakpoint of the upper profile.
        upper = PiecewiseProfile(
            (
                PowerSegment(3.0, 0.5, 0.0, 4.0, "ball"),
                PowerSegment(3.0, 0.5, 4.0, math.inf, "slab"),
            )
        )
        assert gap_crossings(upper, law(1.0, 0.5), 4.0, 1.0, 100.0) == [(4.0, 4.0)]

    def test_stationary_ratio_that_underflows_is_no_cut(self):
        # The stationary point's coefficient ratio underflows to 0.0 under the
        # power -4, which raised ZeroDivisionError: the point lies past every
        # double, so the window keeps no cut, and the gap never reaches zero.
        assert gap_crossings(law(1e300, 0.5), law(1e-300, 0.75), 0.0, 1.0, 10.0) == []


class TestScanCheck:
    # verify's crossing checks hold the reported root to the last crossing.
    def two_crossings(self):
        eps = 0.19
        roots = [(1 - eps**0.5) ** 2, (1 + eps**0.5) ** 2]
        return law(1.0, 1.0), law(2.0, 0.5), eps - 1.0, roots

    def test_terminal_crossing_passes(self):
        upper, lower, target, roots = self.two_crossings()
        check = oracle._scan_check("x", upper, lower, target, roots[1], 1e2)
        assert check.name == "scan:x"
        assert check.ok, check.detail

    def test_first_of_two_crossings_fails(self):
        upper, lower, target, roots = self.two_crossings()
        assert not oracle._scan_check("x", upper, lower, target, roots[0], 1e2).ok

    def test_off_root_and_no_crossing_fail(self):
        upper, lower, target, roots = self.two_crossings()
        assert not oracle._scan_check("x", upper, lower, target, roots[1] * (1 + 1e-8), 1e2).ok
        check = oracle._scan_check("x", law(2.0, 0.5), law(1.0, 0.5), 0.0, 1.0, 1e2)
        assert not check.ok
        assert check.detail == "crossings=[]"


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

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_the_check_is_relative(self, scale):
        # A wrong root fails at every scale: no residual is small enough to
        # pass by itself, and two tiny residuals of one sign, whose product
        # underflows to 0.0, are no sign change.
        residual = lambda x: x - scale
        assert bisect_verify(residual, scale, 1e-9)
        assert bisect_verify(residual, scale * (1 + 1e-9), 1e-9)
        assert not bisect_verify(residual, scale * 1.5, 1e-9)
        assert not bisect_verify(lambda x: 1e-300 * (x - 1.0), 2.0, 1e-9)

    @pytest.mark.parametrize("radii", [(1e-30, 3e-30), (0.7, 1.9)])
    def test_constants_moved_off_by_half_fail_at_every_scale(self, radii):
        # Every constant of the report moved to 1.5 times its value fails
        # its check, with the terms its relation reads left in place (moved
        # together, min(v_s, c_n, v0_1) would move with v_star). At radii
        # (1e-30, 3e-30) all 11 once passed: their residuals were below an
        # absolute 1e-9.
        report = full_report(TorusProductSpec(radii, 3))
        for name, record in report.constants.items():
            constants = {**report.constants, name: record._replace(value=1.5 * record.value)}
            checks = {c.name: c.ok for c in verify_report(report._replace(constants=constants))}
            assert len(checks) == 11
            assert checks[f"constant:{name}"] is False, name


class TestVerification:
    def test_example_report_passes(self, example_spec):
        report = full_report(example_spec)
        results = verify_report(report)
        assert results
        assert all(check.ok for check in results)

    def test_three_torus_report_passes(self, unit_spec3):
        report = full_report(unit_spec3)
        results = verify_report(report)
        names = {check.name for check in results}
        assert any(name.startswith("sub[n]") for name in names)
        assert all(check.ok for check in results)

    def test_verify_spec_clean(self, example_spec):
        checks = verify_spec(example_spec)
        assert all(check.ok for check in checks)

    def test_verify_spec_k1(self):
        checks = verify_spec(TorusProductSpec((1.2,), 3))
        assert all(check.ok for check in checks)

    def test_verify_spec_k1_breakpoint_near_the_double_limit(self):
        # beta(7, 9.24e36) is about 1e300: a normal double whose direct
        # product form overflows, so verify once refused the spec.
        spec = TorusProductSpec((9.24e36,), 7)
        checks = verify_spec(spec)
        assert checks and all(check.ok for check in checks)
        assert 1e299 < envelope_piecewise(spec).breakpoints()[0] < 1e301

    GAP_SCANS = ["scan:v0_1", "scan:a_n", "scan:v0_2", "scan:b_n"]

    def test_verify_spec_k2_scans_every_gap_root(self, example_spec):
        checks = verify_spec(example_spec)
        scans = [check.name for check in checks if check.name.startswith("scan:")]
        assert scans == ["scan:beta(r1)", "scan:beta(r2)", *self.GAP_SCANS]
        assert all(check.ok for check in checks)

    def test_verify_spec_k3_scans_slab_crossing(self):
        # The crossing, then every gap root of both two-circle sub-reports.
        checks = verify_spec(TorusProductSpec((0.6, 1.1, 2.3), 3))
        scans = [check.name for check in checks if "scan:" in check.name]
        assert scans == [
            "scan:u_slab_crossing",
            *(f"sub[{key}]:{name}" for key in ("n", "n_plus_1") for name in self.GAP_SCANS),
        ]
        assert all(check.ok for check in checks)

    @pytest.mark.parametrize(
        "radii, key",
        [((0.7, 1.9), None), ((0.6, 1.1, 2.3), "n"), ((0.6, 1.1, 2.3), "n_plus_1")],
        ids=["k2", "k3-sub-n", "k3-sub-n_plus_1"],
    )
    def test_b_n_off_its_root_fails_its_scan(self, radii, key, monkeypatch):
        # b_n sets v_dstar, so its scan is the one that shows a b_n solved to
        # another sign change; moved 1% off, it fails, in a sub-report too.
        def moved(report):
            record = report.constants["b_n"]
            constants = {**report.constants, "b_n": record._replace(value=1.01 * record.value)}
            return report._replace(constants=constants)

        spec = TorusProductSpec(radii, 3)
        report = full_report(spec)
        if key is None:
            report = moved(report)
        else:
            subs = {**report.sub_reports, key: moved(report.sub_reports[key])}
            report = report._replace(sub_reports=subs)
        monkeypatch.setattr(oracle, "full_report", lambda s: report)
        failed = {c.name for c in verify_spec(spec) if not c.ok and "scan:" in c.name}
        assert failed == {"scan:b_n" if key is None else f"sub[{key}]:scan:b_n"}


class TestProfileAgreementWindow:
    # Homothety by lam moves every breakpoint by lam^(k+n), so the sampled
    # volumes must follow the envelope: every regime is compared at any scale.
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize(
        "radii, n", [((1.2,), 3), ((0.7, 1.9), 3), ((0.6, 1.1, 2.3), 2)]
    )
    def test_every_regime_sampled(self, radii, n, lam, monkeypatch):
        spec = TorusProductSpec(tuple(r * lam for r in radii), n)
        sampled = []
        brute = oracle.candidate_min_area
        monkeypatch.setattr(
            oracle, "candidate_min_area", lambda s, v: sampled.append(v) or brute(s, v)
        )
        check = oracle._profile_agreement(spec)
        assert check.ok, check.detail
        envelope = envelope_piecewise(spec)
        _, segments = envelope.values(sampled)
        assert {seg.regime for seg in segments} == {seg.regime for seg in envelope.segments}

    @pytest.mark.parametrize("bad", [0.0, 5e-324, math.inf])
    def test_volumes_with_an_abnormal_oracle_area_are_skipped(self, bad, monkeypatch):
        # Every other oracle area is replaced by one that under- or overflowed:
        # those volumes are left out, and the rest still agree.
        brute = oracle.candidate_min_area
        calls = []

        def every_other(spec, v):
            calls.append(v)
            area, region = brute(spec, v)
            return (bad if len(calls) % 2 else area), region

        monkeypatch.setattr(oracle, "candidate_min_area", every_other)
        check = oracle._profile_agreement(TorusProductSpec((0.7, 1.9), 3))
        assert check.ok, check.detail

    def test_no_normal_oracle_area_fails_by_name(self, monkeypatch):
        # An oracle whose area underflows to 0.0 at every sampled volume.
        brute = oracle.candidate_min_area
        monkeypatch.setattr(oracle, "candidate_min_area", lambda s, v: (0.0, brute(s, v)[1]))
        check = oracle._profile_agreement(TorusProductSpec((0.7, 1.9), 3))
        assert not check.ok
        assert check.detail == "no sampled oracle area is a normal double"

    def test_tiny_ball_against_a_huge_torus_is_compared(self):
        # The candidates over the huge circle once underflowed to 0.0 at
        # every sampled volume; their areas are now normal doubles, and the
        # tiny ball wins as the envelope says.
        spec = TorusProductSpec((2.449358874805687e-34, 1.1311864152620641e275), 5)
        check = oracle._profile_agreement(spec)
        assert check.ok, check.detail


def _tampered(report, name, path=()):
    """``report`` with the record of constant ``name`` of the sub-report at
    ``path`` scaled by 1 + 1e-6."""
    if path:
        key, *rest = path
        subs = {**report.sub_reports, key: _tampered(report.sub_reports[key], name, rest)}
        return report._replace(sub_reports=subs)
    record = report.constants[name]
    wrong = record.value * (1.0 + 1e-6)
    constants = {**report.constants, name: record._replace(value=wrong)}
    return report._replace(constants=constants)


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
            for v in log_grid(1e-3, 1e6, 60):
                closed = envelope_piecewise(spec)(v)
                brute, _ = candidate_min_area(spec, v)
                assert rel(closed, brute) < 1e-9
