import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusiso import (
    CurveParseError,
    DomainError,
    TabulatedCurve,
    TorusProductSpec,
    band,
    beta,
    candidate_min_area,
    chord_bound,
    circle_piecewise,
    cylinder_offset_bound,
    read_curve,
    scp_piecewise,
    slab_piecewise,
    two_torus_criticals,
)

from refvalues import (
    K_EXAMPLE,
    SLAB_AT_VDSTAR_EXAMPLE,
    VDSTAR_EXAMPLE,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


@pytest.fixture
def example_report(example_spec):
    return two_torus_criticals(example_spec)


class TestChordBound:
    def test_endpoints(self, example_spec, example_report):
        low = chord_bound(example_report, example_spec, example_report.v_star)
        assert rel(low, K_EXAMPLE) < 1e-11
        assert abs(low - 12.57) < 0.01
        high = chord_bound(example_report, example_spec, example_report.v_dstar)
        assert rel(high, SLAB_AT_VDSTAR_EXAMPLE) < 1e-11
        assert rel(high, 4 * math.pi * math.sqrt(VDSTAR_EXAMPLE)) < 1e-11

    def test_midpoint_is_mean(self, example_spec, example_report):
        mid = 0.5 * (example_report.v_star + example_report.v_dstar)
        left = chord_bound(example_report, example_spec, example_report.v_star)
        right = chord_bound(example_report, example_spec, example_report.v_dstar)
        assert rel(chord_bound(example_report, example_spec, mid), 0.5 * (left + right)) < 1e-12

    def test_outside_interval(self, example_spec, example_report):
        with pytest.raises(DomainError):
            chord_bound(example_report, example_spec, example_report.v_star / 2)
        with pytest.raises(DomainError):
            chord_bound(example_report, example_spec, example_report.v_dstar * 2)


class TestTangentBound:
    def test_degenerate_curve_reproduces_chord(self, example_spec, example_report):
        from torusiso import tangent_bound

        v_lo, v_hi = example_report.v_star, example_report.v_dstar
        curve = TabulatedCurve(
            (
                (v_lo, scp_piecewise(example_spec).value(v_lo).area),
                (v_hi, scp_piecewise(example_spec).value(v_hi).area),
            )
        )
        anchor = (v_hi, scp_piecewise(example_spec).value(v_hi).area)
        for v in (5.0, 20.0, 40.0):
            assert rel(
                tangent_bound(anchor, curve, v),
                chord_bound(example_report, example_spec, v),
            ) < 1e-12

    def test_anchor_volume_returns_anchor_area(self):
        from torusiso import tangent_bound

        curve = TabulatedCurve(((1.0, 1.0), (2.0, 1.5)))
        assert tangent_bound((10.0, 7.0), curve, 10.0) == 7.0

    def test_matches_direct_discrete_maximum(self, example_spec, example_report):
        from torusiso import tangent_bound

        v_hi = example_report.v_dstar
        anchor = (v_hi, scp_piecewise(example_spec).value(v_hi).area)
        ws = np.geomspace(1.0, 50.0, 17)
        points = tuple((float(w), 0.93 * scp_piecewise(example_spec).value(float(w)).area) for w in ws)
        curve = TabulatedCurve(points)
        v = 30.0
        expected = max(
            c + (anchor[1] - c) * (v - w) / (anchor[0] - w)
            for w, c in points
            if w <= v
        )
        assert rel(tangent_bound(anchor, curve, v), expected) < 1e-12

    def test_beats_chord_with_interior_knowledge(self, example_spec, example_report):
        from torusiso import tangent_bound

        v_lo, v_hi = example_report.v_star, example_report.v_dstar
        mid = math.sqrt(v_lo * v_hi)
        curve = TabulatedCurve(
            (
                (v_lo, scp_piecewise(example_spec).value(v_lo).area),
                (mid, 0.999 * scp_piecewise(example_spec).value(mid).area),
                (v_hi, scp_piecewise(example_spec).value(v_hi).area),
            )
        )
        anchor = (v_hi, scp_piecewise(example_spec).value(v_hi).area)
        assert tangent_bound(anchor, curve, mid) > chord_bound(
            example_report, example_spec, mid
        )

    def test_empty_far_side(self):
        from torusiso import tangent_bound

        curve = TabulatedCurve(((5.0, 1.0), (6.0, 1.2)))
        with pytest.raises(DomainError):
            tangent_bound((10.0, 3.0), curve, 2.0)


class TestCylinderOffsetBound:
    def test_equals_slab_at_v_dstar_for_equal_radii(self, example_spec, example_report):
        value = cylinder_offset_bound(example_spec, example_report.v_dstar)
        slab = slab_piecewise(example_spec).value(example_report.v_dstar).area
        assert rel(value, slab) < 1e-9

    def test_clamped_to_zero_at_small_volume(self, example_spec):
        assert cylinder_offset_bound(example_spec, 1e-3) == 0.0

    def test_positive_below_envelope(self, example_spec):
        value = cylinder_offset_bound(example_spec, 30.0)
        upper = scp_piecewise(example_spec).value(30.0).area
        brute, _ = candidate_min_area(example_spec, 30.0)
        assert 0.0 < value < upper
        assert rel(upper, brute) < 1e-9

    def test_closed_form(self, example_spec):
        v = 30.0
        r = example_spec.radii[0]
        expected = circle_piecewise(3, r).value(v).area - 2 * beta(2, r)
        assert rel(cylinder_offset_bound(example_spec, v), expected) < 1e-12


class TestBand:
    def test_example_torus_structure(self, example_spec, example_report):
        grid = np.geomspace(0.1, 200.0, 80)
        result = band(example_spec, grid)
        for row in result.rows:
            assert row.lower <= row.upper
            exact = scp_piecewise(example_spec).value(row.v).area
            assert rel(row.upper, exact) < 1e-12
            if row.v <= example_report.v_star or row.v >= example_report.v_dstar:
                assert row.lower_source == "exact"
                assert rel(row.lower, exact) < 1e-12
            else:
                assert row.lower_source in {"chord", "cylinder-offset"}

    def test_offset_source_appears(self, example_spec):
        grid = np.geomspace(25.0, 50.0, 12)
        result = band(example_spec, grid)
        assert any(row.lower_source == "cylinder-offset" for row in result.rows)

    def test_curve_never_hurts(self, example_spec, example_report):
        grid = np.geomspace(0.5, 100.0, 40)
        v_lo, v_hi = example_report.v_star, example_report.v_dstar
        ws = np.geomspace(v_lo, v_hi, 9)
        curve = TabulatedCurve(
            tuple((float(w), 0.98 * scp_piecewise(example_spec).value(float(w)).area) for w in ws)
        )
        bare = band(example_spec, grid)
        with_curve = band(example_spec, grid, curve)
        for before, after in zip(bare.rows, with_curve.rows):
            assert after.lower >= before.lower - 1e-12 * before.lower

    def test_single_point_grid(self, example_spec):
        result = band(example_spec, [1.0])
        (row,) = result.rows
        exact = scp_piecewise(example_spec).value(1.0).area
        assert row.lower == row.upper
        assert rel(row.lower, exact) < 1e-12
        assert row.lower_source == "exact"

    def test_three_torus_band(self, unit_spec3):
        grid = np.geomspace(1.0, 1e5, 30)
        result = band(unit_spec3, grid)
        for row in result.rows:
            assert row.lower <= row.upper
            assert row.lower_source in {"exact", "chord"}

    def test_grid_validation(self, example_spec):
        with pytest.raises(DomainError):
            band(example_spec, [2.0, 1.0])
        with pytest.raises(DomainError):
            band(example_spec, [-1.0, 2.0])

    def test_impossible_curve_rejected(self, example_spec, example_report):
        # A "certified" curve above the envelope is provably not a lower
        # bound; the band refuses to emit rows built from it.
        mid = math.sqrt(example_report.v_star * example_report.v_dstar)
        curve = TabulatedCurve(
            (
                (example_report.v_star, 2.0 * scp_piecewise(example_spec).value(example_report.v_star).area),
                (mid, 2.0 * scp_piecewise(example_spec).value(mid).area),
            )
        )
        with pytest.raises(DomainError, match="cannot be a valid lower bound"):
            band(example_spec, [mid], curve, report=example_report)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    r1=st.floats(min_value=0.5, max_value=2.0),
    r2=st.floats(min_value=0.5, max_value=2.0),
    n=st.integers(min_value=2, max_value=5),
    scale=st.floats(min_value=0.3, max_value=1.0),
)
def test_band_validity_property(r1, r2, n, scale):
    spec = TorusProductSpec((r1, r2), n)
    crit = two_torus_criticals(spec)
    grid = np.geomspace(crit.v_star / 5.0, crit.v_dstar * 5.0, 35)
    ws = np.geomspace(crit.v_star / 2.0, crit.v_dstar * 2.0, 11)
    curve = TabulatedCurve(
        tuple((float(w), scale * scp_piecewise(spec).value(float(w)).area) for w in ws)
    )
    result = band(spec, grid, curve, report=crit)
    for row in result.rows:
        assert row.lower <= row.upper
        if row.v <= crit.v_star or row.v >= crit.v_dstar:
            assert row.lower == row.upper


class TestCurveFile:
    GOOD = (
        "# label: comparison profile\n"
        "# certified_lower_bound: yes\n"
        "v,area\n"
        "1.0,2.0\n"
        "2.5,3.5\n"
        "7.0,5.0\n"
    )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(self.GOOD)
        curve = read_curve(path)
        assert curve.label == "comparison profile"
        assert curve.points == ((1.0, 2.0), (2.5, 3.5), (7.0, 5.0))

    def test_missing_certification(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("# label: x\nv,area\n1.0,2.0\n2.0,3.0\n")
        with pytest.raises(CurveParseError):
            read_curve(path)

    def test_non_increasing_volumes(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(
            "# certified_lower_bound: yes\nv,area\n1.0,2.0\n1.0,3.0\n"
        )
        with pytest.raises(CurveParseError) as err:
            read_curve(path)
        assert err.value.line_no == 4

    def test_bad_number(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("# certified_lower_bound: yes\nv,area\n1.0,two\n")
        with pytest.raises(CurveParseError) as err:
            read_curve(path)
        assert err.value.line_no == 3

    # Data rows that must be refused, with the line the error must name.
    BAD_ROWS = {
        "negative-volume": ("-1,0.5\n2,1.0\n", 3),
        "zero-volume": ("0,0.5\n2,1.0\n", 3),
        "nan-volume-first": ("nan,0.5\n2,1.0\n", 3),
        "nan-volume-later": ("1,0.5\nnan,1.0\n", 4),
        "infinite-volume-and-area": ("1,0.5\ninf,inf\n", 4),
        "infinite-area": ("1,0.5\n2,inf\n", 4),
        "nan-area": ("1,0.5\n2,nan\n", 4),
    }

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_rejects_bad_samples_with_line_number(self, tmp_path, case):
        rows, line_no = self.BAD_ROWS[case]
        path = tmp_path / "curve.csv"
        path.write_text("# certified_lower_bound: yes\nv,area\n" + rows)
        with pytest.raises(CurveParseError) as err:
            read_curve(path)
        assert err.value.line_no == line_no
        assert f"line {line_no}" in str(err.value)

    def test_curve_validation(self):
        with pytest.raises(DomainError):
            TabulatedCurve(((1.0, 2.0),))
        with pytest.raises(DomainError):
            TabulatedCurve(((1.0, 2.0), (0.5, 1.0)))
        with pytest.raises(DomainError):
            TabulatedCurve(((1.0, -2.0), (2.0, 1.0)))
        for bad in (
            ((-1.0, 0.5), (2.0, 1.0)),
            ((0.0, 0.5), (2.0, 1.0)),
            ((1.0, 0.5), (math.nan, 1.0)),
            ((1.0, 0.5), (math.inf, math.inf)),
            ((1.0, 0.5), (2.0, math.inf)),
        ):
            with pytest.raises(DomainError):
                TabulatedCurve(bad)
