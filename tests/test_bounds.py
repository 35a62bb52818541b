import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusiso import (
    BandRow,
    BoundBand,
    CurveParseError,
    DomainError,
    TabulatedCurve,
    TorusProductSpec,
    band,
    beta,
    candidate_min_area,
    circle_piecewise,
    full_report,
    read_curve,
    scp_piecewise,
    slab_piecewise,
)
from torusiso import bounds as bounds_mod

from refvalues import (
    K_EXAMPLE,
    SLAB_AT_VDSTAR_EXAMPLE,
    VDSTAR_EXAMPLE,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


@pytest.fixture
def example_report(example_spec):
    return full_report(example_spec).criticals


def band_row(spec, report, v, curves=None):
    """The one band row at volume v."""
    (row,) = band(spec, [v], curves, report=report).rows
    return row


def anchors(spec, report):
    """The exactly-known (volume, area) points at both thresholds."""
    envelope = scp_piecewise(spec)
    return tuple((v, envelope(v)) for v in (report.v_star, report.v_dstar))


# Each lower bound is checked on band rows whose lower_source names it; the
# per-row helpers are called directly only where another source wins every
# row at the volumes a check needs.


class TestChordBound:
    def test_endpoints(self, example_spec, example_report):
        # One ulp inside each threshold the row is the chord, not the exact value.
        inside_lo = math.nextafter(example_report.v_star, math.inf)
        inside_hi = math.nextafter(example_report.v_dstar, 0.0)
        low = band_row(example_spec, example_report, inside_lo)
        high = band_row(example_spec, example_report, inside_hi)
        assert low.lower_source == high.lower_source == "chord"
        assert rel(low.lower, K_EXAMPLE) < 1e-11
        assert abs(low.lower - 12.57) < 0.01
        assert rel(high.lower, SLAB_AT_VDSTAR_EXAMPLE) < 1e-11
        assert rel(high.lower, 4 * math.pi * math.sqrt(VDSTAR_EXAMPLE)) < 1e-11

    def test_midpoint_is_mean(self, example_spec, example_report):
        # The offset bound wins the band row at the midpoint.
        lo_anchor, hi_anchor = anchors(example_spec, example_report)
        mid = 0.5 * (example_report.v_star + example_report.v_dstar)
        left = bounds_mod._chord(lo_anchor, hi_anchor, example_report.v_star)
        right = bounds_mod._chord(lo_anchor, hi_anchor, example_report.v_dstar)
        assert rel(left, lo_anchor[1]) < 1e-15 and rel(right, hi_anchor[1]) < 1e-15
        chord = bounds_mod._chord(lo_anchor, hi_anchor, mid)
        assert rel(chord, 0.5 * (left + right)) < 1e-12


class TestTangentBound:
    def test_degenerate_curve_reproduces_chord(self, example_spec, example_report):
        # A curve through the two anchors spans the chord from either anchor.
        # The offset bound wins the rows at 20 and 40, so the right anchor's
        # line is read from the per-row helper there.
        lo_anchor, hi_anchor = anchors(example_spec, example_report)
        curve = TabulatedCurve((lo_anchor, hi_anchor))
        row = band_row(example_spec, example_report, 5.0, [curve])
        assert row.lower_source == "tangent-left"
        assert rel(row.lower, bounds_mod._chord(lo_anchor, hi_anchor, 5.0)) < 1e-12
        volumes = (5.0, 20.0, 40.0)
        values = bounds_mod._tangents(hi_anchor, "right", bounds_mod._samples(curve), volumes)
        for v, value in zip(volumes, values):
            assert rel(value, bounds_mod._chord(lo_anchor, hi_anchor, v)) < 1e-12

    def test_matches_direct_discrete_maximum(self, example_spec, example_report):
        _, anchor = anchors(example_spec, example_report)
        ws = np.geomspace(1.0, 50.0, 17)
        points = tuple((float(w), 0.93 * scp_piecewise(example_spec)(float(w))) for w in ws)
        curve = TabulatedCurve(points)
        v = 30.0
        expected = max(
            c + (anchor[1] - c) * (v - w) / (anchor[0] - w)
            for w, c in points
            if w <= v
        )
        row = band_row(example_spec, example_report, v, [curve])
        assert row.lower_source == "tangent-right"
        assert rel(row.lower, expected) < 1e-12

    def test_beats_chord_with_interior_knowledge(self, example_spec, example_report):
        v_lo, v_hi = example_report.v_star, example_report.v_dstar
        mid = math.sqrt(v_lo * v_hi)
        curve = TabulatedCurve(
            (
                (v_lo, scp_piecewise(example_spec)(v_lo)),
                (mid, 0.999 * scp_piecewise(example_spec)(mid)),
                (v_hi, scp_piecewise(example_spec)(v_hi)),
            )
        )
        bare = band_row(example_spec, example_report, mid)
        row = band_row(example_spec, example_report, mid, [curve])
        assert bare.lower_source == "chord"
        assert row.lower_source.startswith("tangent")
        assert row.lower > bare.lower

    def test_empty_far_side(self, example_spec, example_report):
        # Every sample lies above v, so the right anchor has no admissible
        # sample and the left anchor's lines fall below the chord: the row
        # keeps the chord.
        lo_anchor, hi_anchor = anchors(example_spec, example_report)
        curve = TabulatedCurve(((60.0, 1.0), (70.0, 1.2)))
        samples = bounds_mod._samples(curve)
        assert bounds_mod._tangents(hi_anchor, "right", samples, [5.0]) == [None]
        row = band_row(example_spec, example_report, 5.0, [curve])
        assert row == band_row(example_spec, example_report, 5.0)
        assert row.lower_source == "chord"
        assert row.lower == bounds_mod._chord(lo_anchor, hi_anchor, 5.0)


class TestCylinderOffsetBound:
    def test_equals_slab_at_v_dstar_for_equal_radii(self, example_spec, example_report):
        # At v_dstar itself the row is exact; the offset meets the slab there.
        (value,) = bounds_mod._offsets(example_spec, [example_report.v_dstar])
        slab = slab_piecewise(example_spec)(example_report.v_dstar)
        assert rel(value, slab) < 1e-9

    def test_clamped_to_zero_at_small_volume(self, example_spec):
        # 1e-3 is below v_star, where every row is exact.
        assert bounds_mod._offsets(example_spec, [1e-3]) == [0.0]

    def test_positive_below_envelope(self, example_spec, example_report):
        row = band_row(example_spec, example_report, 30.0)
        brute, _ = candidate_min_area(example_spec, 30.0)
        assert row.lower_source == "cylinder-offset"
        assert 0.0 < row.lower < row.upper
        assert row.upper == scp_piecewise(example_spec)(30.0)
        assert rel(row.upper, brute) < 1e-9

    def test_closed_form(self, example_spec, example_report):
        v = 30.0
        r = example_spec.radii[0]
        expected = circle_piecewise(3, r)(v) - 2 * beta(2, r)
        row = band_row(example_spec, example_report, v)
        assert row.lower_source == "cylinder-offset"
        assert rel(row.lower, expected) < 1e-12


class TestBand:
    def test_example_torus_structure(self, example_spec, example_report):
        grid = np.geomspace(0.1, 200.0, 80)
        result = band(example_spec, grid)
        for row in result.rows:
            assert row.lower <= row.upper
            exact = scp_piecewise(example_spec)(row.v)
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
            tuple((float(w), 0.98 * scp_piecewise(example_spec)(float(w))) for w in ws)
        )
        bare = band(example_spec, grid)
        with_curve = band(example_spec, grid, [curve])
        for before, after in zip(bare.rows, with_curve.rows):
            assert after.lower >= before.lower - 1e-12 * before.lower

    def test_single_point_grid(self, example_spec):
        result = band(example_spec, [1.0])
        (row,) = result.rows
        exact = scp_piecewise(example_spec)(1.0)
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
                (example_report.v_star, 2.0 * scp_piecewise(example_spec)(example_report.v_star)),
                (mid, 2.0 * scp_piecewise(example_spec)(mid)),
            )
        )
        with pytest.raises(DomainError, match="cannot be a valid lower bound"):
            band(example_spec, [mid], [curve], report=example_report)

    def test_tangent_memory_stays_in_blocks(self, example_spec, example_report):
        # 2,000 inside rows x 5,000 samples in one block would take ~150 MiB.
        v_lo, v_hi = example_report.v_star, example_report.v_dstar
        grid = np.geomspace(v_lo, v_hi, 2002)[1:-1].tolist()
        envelope = scp_piecewise(example_spec)
        curve = TabulatedCurve(
            tuple(
                (float(w), 0.5 * envelope(float(w)))
                for w in np.geomspace(v_lo / 2.0, v_hi * 2.0, 5000)
            )
        )
        tracemalloc.start()
        try:
            result = band(example_spec, grid, [curve], report=example_report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "exact" not in result.lower_source
        assert peak < 4 * 2**20


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    r1=st.floats(min_value=0.5, max_value=2.0),
    r2=st.floats(min_value=0.5, max_value=2.0),
    n=st.integers(min_value=2, max_value=5),
    scale=st.floats(min_value=0.3, max_value=1.0),
)
def test_band_validity_property(r1, r2, n, scale):
    spec = TorusProductSpec((r1, r2), n)
    crit = full_report(spec).criticals
    grid = np.geomspace(crit.v_star / 5.0, crit.v_dstar * 5.0, 35)
    ws = np.geomspace(crit.v_star / 2.0, crit.v_dstar * 2.0, 11)
    curve = TabulatedCurve(
        tuple((float(w), scale * scp_piecewise(spec)(float(w))) for w in ws)
    )
    result = band(spec, grid, [curve], report=crit)
    for row in result.rows:
        assert row.lower <= row.upper
        if row.v <= crit.v_star or row.v >= crit.v_dstar:
            assert row.lower == row.upper


class TestBoundBand:
    def test_refusal_names_the_first_offending_row(self):
        message = r"^invalid band row at v=2\.0: lower 6\.0 > upper 5\.0$"
        with pytest.raises(DomainError, match=message):
            BoundBand(
                (1.0, 2.0, 3.0),
                (5.0, 5.0, 5.0),
                (4.0, 6.0, 7.0),
                ("ball",) * 3,
                ("chord",) * 3,
            )

    def test_columns_must_have_one_length(self):
        with pytest.raises(DomainError, match="differ in length"):
            BoundBand((1.0, 2.0), (5.0, 5.0), (4.0,), ("ball",) * 2, ("chord",) * 2)

    def test_rows_are_the_zipped_columns(self, example_spec, example_report):
        result = band(example_spec, np.geomspace(0.1, 200.0, 40), report=example_report)
        columns = (result.v, result.upper, result.lower, result.upper_regime, result.lower_source)
        assert all(isinstance(column, tuple) for column in columns)
        assert isinstance(result.rows, tuple)
        assert all(type(row) is BandRow for row in result.rows)
        assert result.rows == tuple(BandRow(*row) for row in zip(*columns))
        assert result.rows is result.rows


# Specs whose rounded chord lies a few ulps above the envelope just inside a
# threshold (it touches the envelope there); the band clamps it to the
# envelope instead of refusing the row.
CHORD_TOUCH_SPECS = [
    TorusProductSpec((0.46373542652131605, 4.53029577031198), 5),
    TorusProductSpec((0.29580361049067844, 1.1055546140145887, 1.119819119425284), 4),
]


@pytest.mark.parametrize("spec", CHORD_TOUCH_SPECS, ids=["k2-n5", "k3-n4"])
def test_chord_touching_the_envelope_is_clamped(spec):
    report = full_report(spec).criticals
    lo, hi = bounds_mod._thresholds(report)
    grid = set()
    for threshold, inward in ((lo, math.inf), (hi, 0.0)):
        v = threshold
        for _ in range(50):
            v = math.nextafter(v, inward)
            grid.add(v)
    result = band(spec, sorted(grid), report=report)
    assert set(result.lower_source) <= {"chord", "cylinder-offset"}
    assert all(lower <= upper for lower, upper in zip(result.lower, result.upper))


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
