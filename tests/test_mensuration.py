import decimal
import math
import sys

import pytest

from torusiso import (
    DomainError,
    GuardError,
    TorusProductSpec,
    unit_ball_volume,
    unit_sphere_area,
)
from torusiso.mensuration import (
    EUCLID_DIM_RANGES,
    CandidateRegion,
    region_boundary_area,
    region_volume,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def test_unit_sphere_areas():
    assert math.isclose(unit_sphere_area(1), 2 * math.pi, rel_tol=1e-14)
    assert math.isclose(unit_sphere_area(2), 4 * math.pi, rel_tol=1e-14)
    assert math.isclose(unit_sphere_area(3), 2 * math.pi**2, rel_tol=1e-14)


def test_unit_ball_volumes():
    assert math.isclose(unit_ball_volume(2), math.pi, rel_tol=1e-14)
    assert math.isclose(unit_ball_volume(3), 4 * math.pi / 3, rel_tol=1e-14)
    assert math.isclose(unit_ball_volume(4), math.pi**2 / 2, rel_tol=1e-14)
    assert math.isclose(unit_ball_volume(4), unit_sphere_area(3) / 4, rel_tol=1e-14)


def test_ball_sphere_identity_up_to_dim_12():
    # m = 1 would need the 0-sphere, which the area function rejects by
    # contract; its ball volume is checked directly instead.
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    for m in range(2, 13):
        assert rel(unit_ball_volume(m), unit_sphere_area(m - 1) / m) < 1e-14


@pytest.mark.parametrize("bad", [0, -1, -7])
def test_dimension_domain_errors(bad):
    with pytest.raises(DomainError):
        unit_sphere_area(bad)
    with pytest.raises(DomainError):
        unit_ball_volume(bad)


def test_non_integer_dimensions_rejected():
    with pytest.raises(DomainError):
        unit_sphere_area(2.0)
    with pytest.raises(DomainError):
        unit_ball_volume(True)


def test_region_volume_examples(example_spec):
    both = CandidateRegion((0, 1), 1.0)
    assert math.isclose(region_volume(example_spec, both), 4 * math.pi**2, rel_tol=1e-12)

    ball = CandidateRegion((), 2.0)
    assert math.isclose(region_volume(TorusProductSpec((1.0,), 2), ball),
                        (4 * math.pi / 3) * 8, rel_tol=1e-12)

    spec3 = TorusProductSpec((1.0, 1.0, 1.0), 2)
    slab = CandidateRegion((0, 1, 2), 1.0)
    assert math.isclose(region_volume(spec3, slab), (2 * math.pi) ** 3 * math.pi,
                        rel_tol=1e-12)


def test_region_boundary_area_examples(example_spec):
    both = CandidateRegion((0, 1), 1.0)
    assert math.isclose(region_boundary_area(example_spec, both), 8 * math.pi**2,
                        rel_tol=1e-12)

    spec13 = TorusProductSpec((1.0,), 3)
    cyl = CandidateRegion((0,), 1.0)
    assert math.isclose(region_boundary_area(spec13, cyl), 8 * math.pi**2, rel_tol=1e-12)

    # Ball of volume 4*pi/3 in R^3 has area 4*pi.
    spec12 = TorusProductSpec((1.0,), 2)
    radius = ((4 * math.pi / 3) / unit_ball_volume(3)) ** (1 / 3)
    ball = CandidateRegion((), radius)
    assert math.isclose(region_boundary_area(spec12, ball), 4 * math.pi, rel_tol=1e-12)


def test_boundary_area_is_volume_derivative():
    spec = TorusProductSpec((0.7, 1.3, 2.1), 3)
    for indices in [(), (0,), (0, 2), (0, 1, 2)]:
        radius = 1.37
        region = CandidateRegion(indices, radius)
        h = 1e-6 * radius
        up = region_volume(spec, CandidateRegion(indices, radius + h))
        down = region_volume(spec, CandidateRegion(indices, radius - h))
        finite_diff = (up - down) / (2 * h)
        assert rel(finite_diff, region_boundary_area(spec, region)) < 1e-6


@pytest.mark.parametrize(
    "radii, n, indices, radius",
    [
        # R^5 underflows to 0.0, the huge circle brings the area back to ~1e-149.
        ((2.449358874805687e-34, 1.1311864152620641e275), 5, (1,), 6.507766536172047e-86),
        # R^6 overflows, the tiny circle brings the area back to ~1e161.
        ((1e-200,), 7, (0,), 1e60),
    ],
)
def test_boundary_area_whose_factors_leave_the_double_range(radii, n, indices, radius):
    spec = TorusProductSpec(radii, n)
    m = spec.circle_count - len(indices) + n
    factor = spec.torus_measure(indices) * m * unit_ball_volume(m)
    with decimal.localcontext() as context:
        context.prec = 50
        exact = float(decimal.Decimal(factor) * decimal.Decimal(radius) ** (m - 1))
    area = region_boundary_area(spec, CandidateRegion(indices, radius))
    assert sys.float_info.min < area < math.inf
    assert rel(area, exact) < 1e-12


def test_volume_whose_factors_leave_the_double_range():
    # The torus measure (2 pi 1e-300)^2 underflows to 0.0, and the ball's
    # power brings the volume back to 4 pi^3 1e-298; the 5-ball of radius
    # 1e200 lies past the largest double, where R^5 raises OverflowError.
    spec = TorusProductSpec((1e-300, 1e-300), 2)
    volume = region_volume(spec, CandidateRegion((0, 1), 1e150))
    assert math.isclose(volume, 1.2402510672118e-298, rel_tol=1e-12)
    assert region_volume(TorusProductSpec((1.0, 2.0), 3), CandidateRegion((), 1e200)) == math.inf


@pytest.mark.parametrize("radii, n", [((0.7,), 7), ((0.7, 1.3), 2), ((1e-30, 1e30, 2.1), 4)])
def test_direct_product_bits_where_every_factor_is_normal(radii, n):
    # (product of circumferences) * m^drop * b_m * R^(m - drop), in that order.
    spec = TorusProductSpec(radii, n)
    for size in range(spec.circle_count + 1):
        indices = tuple(range(size))
        m = spec.circle_count - size + n
        for radius in (1e-20, 0.37, 1.0, 4.5e12):
            region = CandidateRegion(indices, radius)
            measure = spec.torus_measure(indices)
            b_m = unit_ball_volume(m)
            assert region_volume(spec, region) == measure * b_m * radius**m
            assert region_boundary_area(spec, region) == measure * m * b_m * radius ** (m - 1)


@pytest.mark.parametrize("lam", [0.5, 2.0, math.pi])
def test_scaling_laws(lam):
    spec = TorusProductSpec((1.0, 2.0), 4)
    base = CandidateRegion((0,), 0.9)
    scaled = CandidateRegion((0,), lam * 0.9)
    m = 5  # the ball fills R^4 and the circle not chosen
    assert rel(region_volume(spec, scaled), lam**m * region_volume(spec, base)) < 1e-12
    assert rel(
        region_boundary_area(spec, scaled),
        lam ** (m - 1) * region_boundary_area(spec, base),
    ) < 1e-12


def test_spec_sorts_radii():
    spec = TorusProductSpec((2.0, 0.5, 1.0), 2)
    assert spec.radii == (0.5, 1.0, 2.0)
    assert spec.circle_count == 3
    assert spec.dimension == 5


@pytest.mark.parametrize("k", range(5))
def test_spec_accepts_exactly_the_support_table(k):
    for n in range(9):
        if k in EUCLID_DIM_RANGES and EUCLID_DIM_RANGES[k][0] <= n <= EUCLID_DIM_RANGES[k][1]:
            assert TorusProductSpec((1.0,) * k, n).circle_count == k
            continue
        with pytest.raises(GuardError) as refusal:
            TorusProductSpec((1.0,) * k, n)
        if k in EUCLID_DIM_RANGES:
            lo, hi = EUCLID_DIM_RANGES[k]
            assert f"{lo} <= euclid_dim <= {hi}" in str(refusal.value)


def test_spec_guards():
    with pytest.raises(GuardError, match="at most 3 circle factors are supported, got 4"):
        TorusProductSpec((1.0, 1.0, 1.0, 1.0), 2)
    with pytest.raises(GuardError, match="at least 1 circle factor is required, got 0"):
        TorusProductSpec((), 2)
    with pytest.raises(GuardError):
        TorusProductSpec((1.0,), 8)
    with pytest.raises(GuardError):
        TorusProductSpec((1.0,), 0)
    with pytest.raises(DomainError):
        TorusProductSpec((-1.0,), 2)
    with pytest.raises(DomainError):
        TorusProductSpec((0.0, 1.0), 2)
    # Radii are checked before the Euclidean dimension's range.
    with pytest.raises(DomainError):
        TorusProductSpec((-1.0, 1.0), 6)
    with pytest.raises(DomainError):
        TorusProductSpec((1.0,), 2.0)


def test_torus_measure():
    spec = TorusProductSpec((0.5, 2.0), 3)
    assert math.isclose(spec.torus_measure(), (math.pi) * (4 * math.pi), rel_tol=1e-14)
    assert math.isclose(spec.torus_measure((0,)), math.pi, rel_tol=1e-14)
    assert spec.torus_measure(()) == 1.0


def test_region_consistency_errors(example_spec):
    with pytest.raises(DomainError):
        region_volume(example_spec, CandidateRegion((0, 0), 1.0))
    with pytest.raises(DomainError):
        region_volume(example_spec, CandidateRegion((5,), 1.0))
    with pytest.raises(DomainError):
        region_volume(example_spec, CandidateRegion((0,), -2.0))
