import itertools
import json
import math

import pytest

from torusiso import (
    DomainError,
    GuardError,
    PiecewiseProfile,
    PowerSegment,
    TorusProductSpec,
    beta,
    candidate_min_area,
    circle_piecewise,
    envelope_piecewise,
    euclidean_piecewise,
    slab_piecewise,
    unit_ball_volume,
    unit_sphere_area,
)
from torusiso import profiles
from torusiso.mensuration import (
    TWO_PI,
    CandidateRegion,
    region_boundary_area,
    region_volume,
)
from torusiso.oracle import gap_crossings

from grids import log_grid
from refvalues import (
    BETA_2_1,
    BETA_2_SQ,
    BETA_3_1,
    BETA_3_SQ,
    CN_EXAMPLE,
    EUCLID4_AT_1,
    K_EXAMPLE,
    SLAB_AT_VDSTAR_EXAMPLE,
    SQRT_PI_RADIUS,
    V0_EXAMPLE,
    V0_UNIT,
    VDSTAR_EXAMPLE,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def whole(segment):
    """A profile segment's power law extended to all of (0, inf)."""
    return PiecewiseProfile((segment._replace(v_lo=0.0, v_hi=math.inf),))


def ball_area_oracle(m, v):
    # Mensuration-only path: solve the radius from the volume, measure the boundary.
    spec = TorusProductSpec((1.0,), m - 1)
    radius = (v / unit_ball_volume(m)) ** (1.0 / m)
    return region_boundary_area(spec, CandidateRegion((), radius))


class TestEuclideanProfile:
    def test_unit_ball(self):
        (area,), (seg,) = euclidean_piecewise(3).values([4 * math.pi / 3])
        assert math.isclose(area, 4 * math.pi, rel_tol=1e-12)
        assert seg.regime == "ball"

    def test_dim4_against_mensuration_oracle(self):
        assert rel(ball_area_oracle(4, 1.0), EUCLID4_AT_1) < 1e-12
        assert rel(euclidean_piecewise(4)(1.0), EUCLID4_AT_1) < 1e-12

    def test_scaling_from_unit_ball(self):
        area = euclidean_piecewise(3)(8 * math.pi / 3)
        assert math.isclose(area, 4 * math.pi * 2 ** (2 / 3), rel_tol=1e-12)

    def test_guards(self):
        with pytest.raises(GuardError):
            euclidean_piecewise(1)
        with pytest.raises(GuardError):
            euclidean_piecewise(10)
        with pytest.raises(DomainError):
            euclidean_piecewise(3)(0.0)
        with pytest.raises(DomainError):
            euclidean_piecewise(3)(-1.0)


class TestBeta:
    def test_exact_values(self):
        assert rel(beta(2, 1.0), 32 * math.pi**4 / 81) < 1e-13
        assert rel(beta(2, 1.0), BETA_2_1) < 1e-13
        assert rel(beta(2, SQRT_PI_RADIUS), BETA_2_SQ) < 1e-13
        assert rel(beta(3, 1.0), 6561 * math.pi**2 / 512) < 1e-13
        assert rel(beta(3, 1.0), BETA_3_1) < 1e-13
        assert rel(beta(3, SQRT_PI_RADIUS), BETA_3_SQ) < 1e-13

    def test_crossing_scan_oracle(self):
        # The breakpoint is where the two branch power laws cross.
        ball, cylinder = map(whole, circle_piecewise(2, 1.0).segments)
        crossings = gap_crossings(ball, cylinder, 0.0, 1.0, 1000.0)
        assert crossings
        assert rel(crossings[-1][1], beta(2, 1.0)) < 1e-9

    @pytest.mark.parametrize("lam", [0.5, 2.0, math.pi])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_scaling_law(self, n, lam):
        assert rel(beta(n, lam * 0.8), lam ** (n + 1) * beta(n, 0.8)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_normal_breakpoints_at_the_ends_of_the_double_range(self, n):
        # At n = 7 the (n+1)-th power in the direct product overflowed from
        # beta ~ 1e256 on, so normal breakpoint volumes were refused as inf.
        for e in [*range(240, 309, 4), 308, *range(-240, -308, -4), -307]:
            r = (10.0**e / beta(n, 1.0)) ** (1.0 / (n + 1))
            assert rel(beta(n, r), 10.0**e) < 1e-12, e

    def test_direct_product_bits_kept_where_finite(self):
        # Below the overflow the rooted fallback is never taken.
        n, r = 7, (1e250 / beta(7, 1.0)) ** (1 / 8)
        w_prev, w_n = unit_sphere_area(n - 1), unit_sphere_area(n)
        direct = (
            float(n) ** ((n - 1) * (n + 1))
            * (TWO_PI * r * w_prev) ** (n + 1)
            * float(1 + n) ** (-(n * n))
            * w_n ** (-n)
        )
        assert beta(n, r) == direct

    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("lam, volume", [(2.0, 1e308), (1.0, 1e-310)])
    def test_breakpoints_outside_the_normal_doubles_refused(self, n, lam, volume):
        # beta about 2^(n+1) * 1e308 overflows; 1e-310 is subnormal.
        r = lam * (volume / beta(n, 1.0)) ** (1.0 / (n + 1))
        with pytest.raises(DomainError, match="not a normal positive double"):
            beta(n, r)

    def test_guards(self):
        with pytest.raises(GuardError):
            beta(1, 1.0)
        with pytest.raises(GuardError):
            beta(8, 1.0)
        with pytest.raises(DomainError):
            beta(2, 0.0)


class TestProfileCaches:
    def test_float_dimension_is_refused_after_the_int_is_cached(self):
        # 3.0 == 3 and they hash alike: the caches must still tell them apart.
        circle_piecewise(3, 1.0)
        beta(3, 1.0)
        with pytest.raises(GuardError):
            circle_piecewise(3.0, 1.0)
        with pytest.raises(GuardError):
            beta(3.0, 1.0)

    def test_repeated_calls_share_one_profile(self):
        spec = TorusProductSpec((0.7, 1.9), 3)
        assert circle_piecewise(4, 0.7) is circle_piecewise(4, 0.7)
        assert slab_piecewise(spec) is slab_piecewise(TorusProductSpec((1.9, 0.7), 3))

    def test_refusals_are_not_stored(self):
        spec = TorusProductSpec((5.2e31, 1.7e158, 3.2e263), 2)
        stored = slab_piecewise.cache_info().currsize
        for _ in range(2):
            with pytest.raises(DomainError, match="slab area coefficient"):
                slab_piecewise(spec)
        assert slab_piecewise.cache_info().currsize == stored
        refusals = []
        for _ in range(2):
            with pytest.raises(DomainError) as refusal:
                envelope_piecewise(spec)
            refusals.append(str(refusal.value))
        assert refusals[0] == refusals[1]
        assert profiles._envelope_piecewise.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "spec",
        [
            TorusProductSpec((0.7,), 5),
            TorusProductSpec((SQRT_PI_RADIUS, SQRT_PI_RADIUS), 2),
            TorusProductSpec((0.7, 1.9), 3),
            TorusProductSpec((0.6, 1.1, 2.3), 2),
            TorusProductSpec((1e-70, 1e-70), 2),
        ],
    )
    def test_repeated_envelope_has_the_bits_of_a_fresh_build(self, spec, clear_spec_caches):
        # repr round-trips every float, and the envelope's pieces decide which
        # rows values() gives from one segment.
        def bits(profile):
            return repr(profile), repr(profile._pieces)

        first = envelope_piecewise(spec)
        assert envelope_piecewise(spec) is first
        clear_spec_caches()
        fresh = envelope_piecewise(spec)
        assert fresh is not first and bits(fresh) == bits(first)

    def test_euclidean_law_built_once_per_dimension(self):
        for m in range(2, 10):
            assert euclidean_piecewise(m) is euclidean_piecewise(m)
        for bad in (3.0, True, 10):
            with pytest.raises(GuardError):
                euclidean_piecewise(bad)


class TestEnvelopeRefusals:
    # A derived constant that leaves the double range is refused with the
    # radii and the constant it is.
    def test_slab_coefficient_overflow(self):
        spec = TorusProductSpec((5.2e31, 1.7e158, 3.2e263), 2)
        with pytest.raises(DomainError) as refusal:
            envelope_piecewise(spec)
        assert str(refusal.value) == (
            "the slab area coefficient for radii (5.2e+31, 1.7e+158, 3.2e+263), n = 2 is "
            "not a positive finite double (torus measure inf, coefficient inf)"
        )

    def test_breakpoint_past_half_the_largest_double(self):
        spec = TorusProductSpec((6.96e50, 5.79e219), 4)
        with pytest.raises(DomainError) as refusal:
            envelope_piecewise(spec)
        assert str(refusal.value) == (
            f"the envelope's ball/cylinder breakpoint v = {beta(5, 6.96e50)!r} for radii "
            "(6.96e+50, 5.79e+219), n = 4 is past half the largest double, so no volume "
            "beyond it can be probed"
        )

    def test_crossing_past_half_the_largest_double(self):
        radii = (2.692288181761831e46, 2.1758675160978405e47, 2.1729705376913883e70)
        spec = TorusProductSpec(radii, 2)
        with pytest.raises(DomainError, match=r"slab2/slab crossing v = 9\.13\d*e\+307 for radii"):
            envelope_piecewise(spec)


class TestAlphaAndContinuity:
    @pytest.mark.parametrize("r", [0.1, SQRT_PI_RADIUS, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_branches_agree_at_breakpoint(self, n, r):
        bp = beta(n, r)
        ball, cylinder = circle_piecewise(n, r).segments
        assert rel(ball.value(bp), cylinder.value(bp)) < 1e-9
        assert rel(circle_piecewise(n, r)(bp), ball.value(bp)) < 1e-12

    def test_alpha_closed_form(self):
        expected = (36 * math.pi) ** (1 / 3) * (32 * math.pi**4 / 81) ** (2 / 3)
        assert rel(circle_piecewise(2, 1.0)(beta(2, 1.0)), expected) < 1e-12


class TestCircleProfile:
    def test_small_volume_equals_euclidean(self):
        (area,), (seg,) = circle_piecewise(3, SQRT_PI_RADIUS).values([1.0])
        assert seg.regime == "ball"
        assert rel(area, EUCLID4_AT_1) < 1e-12
        brute, _ = candidate_min_area(TorusProductSpec((SQRT_PI_RADIUS,), 3), 1.0)
        assert rel(area, brute) < 1e-12

    def test_cylinder_branch_closed_form(self):
        (area,), (seg,) = circle_piecewise(2, 1.0).values([100.0])
        assert seg.regime == "cylinder"
        assert rel(area, 20 * math.pi * math.sqrt(2)) < 1e-12

    def test_breakpoint_assignment(self):
        bp = beta(3, 1.0)
        assert circle_piecewise(3, 1.0).segment_at(bp).regime == "ball"
        assert circle_piecewise(3, 1.0).segment_at(bp * (1 + 1e-12)).regime == "cylinder"

    @pytest.mark.parametrize("n", [2, 3])
    def test_monotone_in_radius(self, n):
        radii = [0.3, 0.7, 1.0, 1.9, 4.0]
        for v in log_grid(1e-2, 1e4, 25):
            areas = [circle_piecewise(n, r)(v) for r in radii]
            for a, b in itertools.pairwise(areas):
                assert a <= b * (1 + 1e-12)
        # Below every breakpoint the value is radius-independent.
        v_small = 0.5 * beta(n, radii[0])
        areas = {circle_piecewise(n, r)(v_small) for r in radii}
        assert max(areas) - min(areas) < 1e-12 * max(areas)


class TestSlabProfiles:
    def test_example_torus_closed_form(self, example_spec):
        for v in log_grid(1e-3, 1e6, 20):
            (area,), (seg,) = slab_piecewise(example_spec).values([v])
            assert seg.regime == "slab"
            assert rel(area, 4 * math.pi * math.sqrt(v)) < 1e-12

    def test_unit_torus_value(self, unit_spec):
        area = slab_piecewise(unit_spec)(4 * math.pi**4)
        assert rel(area, 8 * math.pi ** 3.5) < 1e-12

    def test_slab3_radius_one(self, unit_spec3):
        v = (2 * math.pi) ** 3 * math.pi
        area = slab_piecewise(unit_spec3)(v)
        assert rel(area, (2 * math.pi) ** 3 * 2 * math.pi) < 1e-12

    def test_slab3_against_mensuration(self, unit_spec3):
        for v in log_grid(0.5, 1e5, 12):
            radius = (v / (unit_spec3.torus_measure() * unit_ball_volume(2))) ** 0.5
            region = CandidateRegion((0, 1, 2), radius)
            assert rel(region_volume(unit_spec3, region), v) < 1e-12
            oracle = region_boundary_area(unit_spec3, region)
            assert rel(slab_piecewise(unit_spec3)(v), oracle) < 1e-12

    def test_slab3_power_law_shape(self, unit_spec3):
        (segment,) = slab_piecewise(unit_spec3).segments
        assert segment.exponent == pytest.approx(0.5)

    def test_guards(self, example_spec):
        with pytest.raises(GuardError):
            slab_piecewise(TorusProductSpec((1.0,), 2))
        with pytest.raises(DomainError):
            slab_piecewise(example_spec)(-1.0)


class TestScpProfile:
    def test_small_volume_ball(self, example_spec):
        (area,), (seg,) = envelope_piecewise(example_spec).values([1.0])
        assert seg.regime == "ball"
        assert rel(area, EUCLID4_AT_1) < 1e-12

    def test_large_volume_slab(self, example_spec):
        (area,), (seg,) = envelope_piecewise(example_spec).values([1e6])
        assert seg.regime == "slab"
        assert rel(area, 4 * math.pi * 1e3) < 1e-12

    def test_value_near_first_threshold(self, example_spec):
        (area,), (seg,) = envelope_piecewise(example_spec).values([CN_EXAMPLE])
        assert seg.regime == "ball"
        assert rel(area, K_EXAMPLE) < 1e-12
        assert rel(area, 4 * math.pi) < 1e-4

    def test_matches_brute_force_on_grid(self, example_spec):
        for v in log_grid(1e-3, 1e6, 60):
            closed = envelope_piecewise(example_spec)(v)
            brute, winner = candidate_min_area(example_spec, v)
            assert rel(closed, brute) < 1e-9

    def test_guards(self, example_spec):
        with pytest.raises(GuardError):
            envelope_piecewise(TorusProductSpec((1.0, 1.0), 1))


class TestPiecewise:
    def test_circle_decomposition(self):
        profile = circle_piecewise(3, 1.0)
        assert len(profile.segments) == 2
        assert profile.breakpoints() == (beta(3, 1.0),)
        assert [s.regime for s in profile.segments] == ["ball", "cylinder"]

    def test_slab_decomposition(self, example_spec):
        profile = slab_piecewise(example_spec)
        assert len(profile.segments) == 1
        assert profile.segments[0].exponent == pytest.approx(0.5)

    def test_scp_decomposition_example_torus(self, example_spec):
        profile = envelope_piecewise(example_spec)
        assert [s.regime for s in profile.segments] == ["ball", "cylinder", "slab"]
        b1, b2 = profile.breakpoints()
        assert rel(b1, BETA_3_SQ) < 1e-12
        assert rel(b2, V0_EXAMPLE) < 1e-12
        # Verify the cylinder/slab breakpoint with the crossing oracle.
        cylinder = whole(profile.segments[1])
        slab = whole(profile.segments[2])
        crossings = gap_crossings(cylinder, slab, 0.0, 1.0, 1e4)
        assert crossings
        assert rel(crossings[-1][1], b2) < 1e-9

    def test_euclidean_selector(self):
        # The R^4 profile is one ball power law with exponent 3/4.
        (small, large), (small_seg, large_seg) = euclidean_piecewise(4).values([1.0, 16.0])
        assert math.log(large / small, 16.0) == pytest.approx(0.75)
        assert small_seg.regime == large_seg.regime == "ball"

    def test_strictly_increasing(self, example_spec):
        for profile in (
            envelope_piecewise(example_spec),
            circle_piecewise(4, 2.0),
            envelope_piecewise(TorusProductSpec((1.0, 1.0, 1.0), 2)),
        ):
            areas, _ = profile.values(log_grid(1e-4, 1e8, 400))
            assert all(a < b for a, b in itertools.pairwise(areas))

    def test_segment_validation(self):
        with pytest.raises(DomainError):
            PowerSegment(-1.0, 0.5, 0.0, math.inf, "slab")
        with pytest.raises(DomainError):
            PowerSegment(1.0, 1.5, 0.0, math.inf, "slab")
        with pytest.raises(DomainError):
            PowerSegment(1.0, 0.0, 0.0, math.inf, "slab")
        with pytest.raises(DomainError):
            PowerSegment(1.0, 0.5, 2.0, 1.0, "slab")

    def test_profile_validation(self):
        good = PowerSegment(1.0, 0.5, 0.0, math.inf, "slab")
        with pytest.raises(DomainError):
            PiecewiseProfile(())
        with pytest.raises(DomainError):
            PiecewiseProfile((PowerSegment(1.0, 0.5, 1.0, math.inf, "slab"),))
        with pytest.raises(DomainError):
            PiecewiseProfile((PowerSegment(1.0, 0.5, 0.0, 2.0, "slab"),))
        with pytest.raises(DomainError):
            # Massive jump at the breakpoint.
            PiecewiseProfile(
                (
                    PowerSegment(1.0, 0.5, 0.0, 2.0, "ball"),
                    PowerSegment(50.0, 0.5, 2.0, math.inf, "slab"),
                )
            )
        # (0, 1] then (2, inf) leaves (1, 2] uncovered; (0, 2] then (1, inf)
        # covers it twice.
        for v_hi, v_lo in ((1.0, 2.0), (2.0, 1.0)):
            with pytest.raises(DomainError, match=f"overlap between segments at {v_hi} vs {v_lo}"):
                PiecewiseProfile(
                    (
                        PowerSegment(1.0, 0.5, 0.0, v_hi, "ball"),
                        PowerSegment(1.0, 0.5, v_lo, math.inf, "slab"),
                    )
                )
        for area in (0.0, math.nan):
            with pytest.raises(DomainError, match="area must be a positive finite real"):
                PiecewiseProfile((good,)).solve_value(area)
        assert PiecewiseProfile((good,))(4.0) == pytest.approx(2.0)

    def test_solve_value_round_trip(self, example_spec):
        profile = envelope_piecewise(example_spec)
        for v in log_grid(1e-3, 1e5, 30):
            area = profile(v)
            assert rel(profile.solve_value(area), v) < 1e-12


class TestEnvelope:
    def test_k1_is_circle_profile(self):
        spec = TorusProductSpec((1.3,), 3)
        for v in log_grid(0.1, 1e4, 12):
            left = envelope_piecewise(spec).values([v])
            right = circle_piecewise(3, 1.3).values([v])
            assert left == right

    def test_minimum_envelope_is_pointwise_min(self):
        import random

        from torusiso import minimum_envelope

        rng = random.Random(31)
        grid = log_grid(1e-4, 1e7, 300)
        for _ in range(6):
            n = rng.randint(2, 5)
            radii = sorted(rng.uniform(0.3, 3.0) for _ in range(2))
            spec = TorusProductSpec(tuple(radii), n)
            curves = [circle_piecewise(n + 1, radii[0]), slab_piecewise(spec)]
            envelope = minimum_envelope(curves)
            (first, _), (second, _) = curves[0].values(grid), curves[1].values(grid)
            assert envelope.values(grid)[0] == [min(a, b) for a, b in zip(first, second)]

    def test_k0_envelope_rejected(self):
        with pytest.raises(GuardError):
            envelope_piecewise(TorusProductSpec((), 3))

    def test_k3_against_brute_force(self, unit_spec3):
        for v in log_grid(1e-2, 1e6, 40):
            closed = envelope_piecewise(unit_spec3)(v)
            brute, _ = candidate_min_area(unit_spec3, v)
            assert rel(closed, brute) < 1e-9

    def test_k3_segment_tags(self, unit_spec3):
        regimes = [s.regime for s in envelope_piecewise(unit_spec3).segments]
        assert regimes == ["ball", "cylinder", "slab2", "slab"]


def test_numpy_imported_after_torusiso_keeps_scalar_dispatch(fresh_python):
    # numpy scalars are volumes like any other: np.float64 and np.int64 give
    # the bits of the equal Python float, whether or not numpy came first.
    pytest.importorskip("numpy")
    spec = TorusProductSpec((0.7, 1.9), 3)
    profile = envelope_piecewise(spec)
    volumes = [1e-3, 0.5, beta(3, 0.7), beta(4, 0.7), 55.0, 1e4]
    source = f"""
import json, sys
import torusiso
assert "numpy" not in sys.modules
import numpy as np
profile = torusiso.envelope_piecewise(torusiso.TorusProductSpec({spec.radii!r}, {spec.euclid_dim}))
scalars = [profile(np.float64(v)) for v in {volumes!r}] + [profile(np.int64(7))]
print(json.dumps([[type(a).__name__, a.hex()] for a in scalars]))
"""
    result = json.loads(fresh_python(source))
    expected = [["float", profile(v).hex()] for v in [*volumes, 7.0]]
    assert result == expected


def test_closed_form_reference_values_are_correctly_rounded():
    # Each closed-form value in refvalues is the double nearest its
    # 50-digit value: float() of an mpf rounds to nearest.
    mpmath = pytest.importorskip("mpmath")
    mpf, pi = mpmath.mpf, mpmath.pi
    with mpmath.workdps(50):
        closed_forms = {
            "EUCLID4_AT_1": (EUCLID4_AT_1, 4 * (pi**2 / 2) ** (mpf(1) / 4)),
            "BETA_2_1": (BETA_2_1, 32 * pi**4 / 81),
            "BETA_2_SQ": (BETA_2_SQ, 32 * pi ** (mpf(5) / 2) / 81),
            "BETA_3_1": (BETA_3_1, 6561 * pi**2 / 512),
            "BETA_3_SQ": (BETA_3_SQ, mpf(6561) / 512),
            "V0_EXAMPLE": (V0_EXAMPLE, 64 * pi**3 / 81),
            "V0_UNIT": (V0_UNIT, 64 * pi**5 / 81),
            "SLAB_AT_VDSTAR_EXAMPLE": (
                SLAB_AT_VDSTAR_EXAMPLE, 4 * pi * mpmath.sqrt(mpf(VDSTAR_EXAMPLE))
            ),
        }
        for name, (frozen, exact) in closed_forms.items():
            assert frozen == float(exact), name
