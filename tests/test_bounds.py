import bisect
import copy
import math
import os
import pickle
import random
import tracemalloc

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
    envelope_piecewise,
    full_report,
    read_curve,
    slab_piecewise,
)
from torusiso import bounds as bounds_mod

from grids import log_grid
from scalar_reference import band_rows, tangent_column
from refvalues import (
    K_EXAMPLE,
    SLAB_AT_VDSTAR_EXAMPLE,
    VDSTAR_EXAMPLE,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


@pytest.fixture
def example_report(example_spec):
    return full_report(example_spec)


def band_row(spec, report, v, curves=None):
    """The one band row at volume v."""
    (row,) = band(spec, [v], curves, report=report).rows
    return row


def anchors(spec, report):
    """The exactly-known (volume, area) points at both thresholds."""
    envelope = envelope_piecewise(spec)
    return tuple((v, envelope(v)) for v in (report.v_star, report.v_dstar))


# Each lower bound is checked on band rows whose lower_source names it; the
# chord column and the tangent passes are called directly only where another
# source wins every row at the volumes a check needs.


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
        volumes = [example_report.v_star, example_report.v_dstar, mid]
        # Under an infinite envelope no row is clamped.
        left, right, chord = bounds_mod._chord(lo_anchor, hi_anchor, volumes, [math.inf] * 3)
        assert rel(left, lo_anchor[1]) < 1e-15 and rel(right, hi_anchor[1]) < 1e-15
        assert rel(chord, 0.5 * (left + right)) < 1e-12


class TestTangentBound:
    def test_degenerate_curve_reproduces_chord(self, example_spec, example_report):
        # A curve through the two anchors spans the chord from either anchor.
        # The offset bound wins the rows at 20 and 40, so the right anchor's
        # line is read from its tangent pass there.
        lo_anchor, hi_anchor = anchors(example_spec, example_report)
        curve = TabulatedCurve((lo_anchor, hi_anchor))
        row = band_row(example_spec, example_report, 5.0, [curve])
        assert row.lower_source == "tangent-left"
        volumes = [5.0, 20.0, 40.0]
        chords = bounds_mod._chord(lo_anchor, hi_anchor, volumes, [math.inf] * 3)
        assert rel(row.lower, chords[0]) < 1e-12
        values = tangent_column(hi_anchor, "right", curve, volumes)
        for value, chord in zip(values, chords):
            assert rel(value, chord) < 1e-12

    def test_matches_direct_discrete_maximum(self, example_spec, example_report):
        _, anchor = anchors(example_spec, example_report)
        ws = log_grid(1.0, 50.0, 17)
        points = tuple((w, 0.93 * envelope_piecewise(example_spec)(w)) for w in ws)
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
                (v_lo, envelope_piecewise(example_spec)(v_lo)),
                (mid, 0.999 * envelope_piecewise(example_spec)(mid)),
                (v_hi, envelope_piecewise(example_spec)(v_hi)),
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
        assert tangent_column(hi_anchor, "right", curve, [5.0]) == [None]
        row = band_row(example_spec, example_report, 5.0, [curve])
        assert row == band_row(example_spec, example_report, 5.0)
        assert row.lower_source == "chord"
        assert [row.lower] == bounds_mod._chord(lo_anchor, hi_anchor, [5.0], [row.upper])


class TestSlopeTable:
    """The tangent scans cached per anchor and curve (bounds._slope_table)."""

    @staticmethod
    def band_and_tangents(spec, report, curve, grid):
        """The band, and both anchors' tangent passes over its inside rows as band runs them."""
        envelope = envelope_piecewise(spec)
        v_lo, v_hi = report.v_star, report.v_dstar
        inside = [v for v in grid if v_lo < v < v_hi]
        return (
            band(spec, grid, [curve], report=report),
            tangent_column((v_lo, envelope(v_lo)), "left", curve, inside),
            tangent_column((v_hi, envelope(v_hi)), "right", curve, inside),
        )

    def cold(self, clear_spec_caches, spec, curve, grid):
        """band_and_tangents from empty caches."""
        clear_spec_caches()
        return self.band_and_tangents(spec, full_report(spec), curve, grid)

    def test_a_second_grid_has_the_bits_of_a_cold_band(self, example_spec, clear_spec_caches):
        report = full_report(example_spec)
        v_lo, v_hi = report.v_star, report.v_dstar
        envelope = envelope_piecewise(example_spec)
        ws = log_grid(v_lo * 1.5, v_hi / 1.5, 60)
        curve = TabulatedCurve(tuple((w, 0.98 * envelope(w)) for w in ws))
        # The narrow grid comes first, so the wide one needs entries that
        # no row of the first asked for. The wide grid has rows on samples
        # and rows past the samples on either side, which get None.
        narrow = log_grid(ws[20], ws[40], 25)
        wide = sorted({*log_grid(v_lo / 2.0, v_hi * 2.0, 80), *ws[::7]})
        assert set(ws) & set(wide)
        grids = (narrow, wide)
        warm = [self.band_and_tangents(example_spec, report, curve, grid) for grid in grids]
        info = bounds_mod._slope_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 6, 2)
        wide_band, left, right = warm[1]
        assert left[-1] is None and right[0] is None
        assert left[0] is not None and right[-1] is not None
        assert {"tangent-left", "tangent-right"} <= set(wide_band.lower_source)
        for grid, hot in zip(grids, warm):
            assert repr(hot) == repr(self.cold(clear_spec_caches, example_spec, curve, grid))

    def test_one_curve_under_two_specs_gets_a_table_per_anchor(self, clear_spec_caches):
        specs = (TorusProductSpec((1.0, 1.3), 2), TorusProductSpec((1.2, 1.3), 2))
        reports = [full_report(spec) for spec in specs]
        lo = min(report.v_star for report in reports)
        hi = max(report.v_dstar for report in reports)
        envelopes = [envelope_piecewise(spec) for spec in specs]
        curve = TabulatedCurve(
            tuple((w, 0.5 * min(e(w) for e in envelopes)) for w in log_grid(lo, hi, 90))
        )
        grid = log_grid(lo, hi, 70)
        warm = [
            self.band_and_tangents(spec, report, curve, grid)
            for spec, report in zip(specs, reports)
        ]
        assert bounds_mod._slope_table.cache_info().currsize == 4
        for spec, hot in zip(specs, warm):
            assert repr(hot) == repr(self.cold(clear_spec_caches, spec, curve, grid))

    @staticmethod
    def sample_loop(anchor, curve, v):
        """The largest line from the anchor through v's admissible samples, or None."""
        v0, a0 = anchor
        side = [(w, c) for w, c in curve.points if (w <= v if v < v0 else w >= v)]
        return max([c + (a0 - c) * (v - w) / (v0 - w) for w, c in side], default=None)

    def test_entry_bounds_are_those_of_their_own_samples(self, clear_spec_caches):
        # Entry k's bound is the margin at the scale of the anchor and the
        # scan's first k areas, and inf from the first sample out of range on.
        margin, (low, high) = bounds_mod._SCAN_MARGIN, bounds_mod._SCAN_RANGE
        ws = [1.0 + i for i in range(12)]
        cs = [3.0 * w**0.6 for w in ws]
        cs[8] = 2.0**300
        curve = TabulatedCurve(tuple(zip(ws, cs)))
        for v0, a0, left in ((0.5, 1.0, True), (20.0, 40.0, False), (20.0, 2.0**-300, False)):
            scan = range(11, -1, -1) if left else range(12)
            tops = bounds_mod._slope_table(v0, a0, left, curve)
            assert len(tops) == 13
            for k, (*_, bound) in enumerate(tops):
                areas = [cs[i] for i in scan[:k]]
                if all(low <= a <= high for a in [a0, *areas]):
                    assert bound == margin * max([a0, *areas]), (v0, k)
                else:
                    assert bound == math.inf, (v0, k)
            # The out-of-range sample is the 9th of the upward scan and the
            # 4th of the downward one; a tiny anchor leaves no finite entry.
            finite = sum(math.isfinite(bound) for *_, bound in tops)
            assert finite == {1.0: 4, 40.0: 9, 2.0**-300: 0}[a0]

    def test_rows_short_of_a_huge_sample_keep_a_finite_bound(self, clear_spec_caches):
        # The right anchor's scan runs up from the first sample, so only the
        # rows at or past the last sample, of area 2**300, admit it.
        ws = log_grid(1.0, 100.0, 200)
        curve = TabulatedCurve(tuple((w, 3.0 * w**0.6) for w in ws[:-1]) + ((ws[-1], 2.0**300),))
        right, left = (150.0, 60.0), (0.5, 1.0)
        tops = bounds_mod._slope_table(*right, False, curve)
        narrow = log_grid(5.0, 50.0, 40)
        wide = sorted({*log_grid(0.6, 140.0, 120), *ws[::9], ws[-1]})
        for grid in (narrow, wide):
            got = tangent_column(right, "right", curve, grid)
            assert got == [self.sample_loop(right, curve, v) for v in grid]
            got = tangent_column(left, "left", curve, grid)
            assert got == [self.sample_loop(left, curve, v) for v in grid]
            for v in grid:
                k = bisect.bisect_right(ws, v)
                assert math.isfinite(tops[k][3]) == (k < len(ws)), v
        assert max(wide) > ws[-1] > max(narrow)

    def test_curve_hash_is_the_field_tuples(self, fresh_python, monkeypatch):
        points = tuple((1.0 + i, 2.0 + i / 3.0) for i in range(50))
        curve = TabulatedCurve(points, "label")
        assert hash(curve) == tuple.__hash__(curve)
        assert hash(TabulatedCurve(list(points), "label")) == hash(curve)
        for twin in (copy.copy(curve), copy.deepcopy(curve), pickle.loads(pickle.dumps(curve))):
            assert twin == curve
            assert hash(twin) == tuple.__hash__(twin) == hash(curve)
        # A curve pickled where strings hash otherwise hashes as this process's.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        payload = fresh_python(
            "import pickle, sys\n"
            "from torusiso import TabulatedCurve\n"
            f"curve = TabulatedCurve({points!r}, 'label')\n"
            "sys.stdout.write(pickle.dumps(curve).hex())\n"
        )
        loaded = pickle.loads(bytes.fromhex(payload))
        assert loaded == curve
        assert hash(loaded) == tuple.__hash__(loaded) == hash(curve)


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
        assert row.upper == envelope_piecewise(example_spec)(30.0)
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
        grid = log_grid(0.1, 200.0, 80)
        result = band(example_spec, grid)
        for row in result.rows:
            assert row.lower <= row.upper
            exact = envelope_piecewise(example_spec)(row.v)
            assert rel(row.upper, exact) < 1e-12
            if row.v <= example_report.v_star or row.v >= example_report.v_dstar:
                assert row.lower_source == "exact"
                assert rel(row.lower, exact) < 1e-12
            else:
                assert row.lower_source in {"chord", "cylinder-offset"}

    def test_offset_source_appears(self, example_spec):
        grid = log_grid(25.0, 50.0, 12)
        result = band(example_spec, grid)
        assert any(row.lower_source == "cylinder-offset" for row in result.rows)

    def test_curve_never_hurts(self, example_spec, example_report):
        grid = log_grid(0.5, 100.0, 40)
        v_lo, v_hi = example_report.v_star, example_report.v_dstar
        ws = log_grid(v_lo, v_hi, 9)
        curve = TabulatedCurve(
            tuple((w, 0.98 * envelope_piecewise(example_spec)(w)) for w in ws)
        )
        bare = band(example_spec, grid)
        with_curve = band(example_spec, grid, [curve])
        for before, after in zip(bare.rows, with_curve.rows):
            assert after.lower >= before.lower - 1e-12 * before.lower

    def test_single_point_grid(self, example_spec):
        result = band(example_spec, [1.0])
        (row,) = result.rows
        exact = envelope_piecewise(example_spec)(1.0)
        assert row.lower == row.upper
        assert rel(row.lower, exact) < 1e-12
        assert row.lower_source == "exact"

    def test_three_torus_band(self, unit_spec3):
        grid = log_grid(1.0, 1e5, 30)
        result = band(unit_spec3, grid)
        for row in result.rows:
            assert row.lower <= row.upper
            assert row.lower_source in {"exact", "chord"}

    def test_grid_validation(self, example_spec):
        with pytest.raises(DomainError):
            band(example_spec, [2.0, 1.0])
        with pytest.raises(DomainError):
            band(example_spec, [-1.0, 2.0])

    @pytest.mark.parametrize(
        "spec, other, grid",
        [
            (TorusProductSpec((0.7, 1.9), 3), TorusProductSpec((0.7, 1.9), 4), [400.0, 1.5e4]),
            (TorusProductSpec((0.6, 1.1, 2.3), 2), TorusProductSpec((0.7, 1.9), 3), [100.0, 1.5e4]),
        ],
        ids=["k2", "k3"],
    )
    def test_report_of_another_spec_is_refused(self, spec, other, grid):
        # Another spec's thresholds once went unchecked and labelled rows
        # exact: for the k3 spec both rows, with lower bounds 262.70 and
        # 8424.7 where its own report gives chords at 79.92 and 7700.7.
        with pytest.raises(DomainError) as refusal:
            band(spec, grid, report=full_report(other))
        assert str(spec) in str(refusal.value) and str(other) in str(refusal.value)
        assert band(spec, grid, report=full_report(spec)) == band(spec, grid)

    def test_impossible_curve_rejected(self, example_spec, example_report):
        # A "certified" curve above the envelope is provably not a lower
        # bound; the band refuses to emit rows built from it.
        mid = math.sqrt(example_report.v_star * example_report.v_dstar)
        envelope = envelope_piecewise(example_spec)
        curve = TabulatedCurve(
            (
                (example_report.v_star, 2.0 * envelope(example_report.v_star)),
                (mid, 2.0 * envelope(mid)),
            )
        )
        with pytest.raises(DomainError, match="cannot be a valid lower bound"):
            band(example_spec, [mid], [curve], report=example_report)

    def test_tangent_memory_stays_in_blocks(self, example_spec, example_report):
        # 2,000 inside rows x 5,000 samples as one array would take ~150 MiB;
        # the scan keeps one record per sample and one value per row.
        v_lo, v_hi = example_report.v_star, example_report.v_dstar
        grid = log_grid(v_lo, v_hi, 2002)[1:-1]
        envelope = envelope_piecewise(example_spec)
        curve = TabulatedCurve(
            tuple(
                (w, 0.5 * envelope(w))
                for w in log_grid(v_lo / 2.0, v_hi * 2.0, 5000)
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
    crit = full_report(spec)
    grid = log_grid(crit.v_star / 5.0, crit.v_dstar * 5.0, 35)
    ws = log_grid(crit.v_star / 2.0, crit.v_dstar * 2.0, 11)
    curve = TabulatedCurve(
        tuple((w, scale * envelope_piecewise(spec)(w)) for w in ws)
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
        result = band(example_spec, log_grid(0.1, 200.0, 40), report=example_report)
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
    report = full_report(spec)
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
    # The clamped rows, and every other column, are the former row loop's.
    assert any(
        source == "chord" and lower == upper
        for lower, upper, source in zip(result.lower, result.upper, result.lower_source)
    )
    assert repr(result) == repr(band_rows(spec, sorted(grid), report=report))


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

    INCREASING = "volumes must be strictly increasing"
    # One fault per file: (the field it replaces, 0 volume or 1 area, the new
    # text given the previous row's volume text, the problem both labelings
    # must carry).
    FAULTS = {
        "volume -1": (0, lambda before: "-1", "volume must be positive and finite, got -1.0"),
        "volume 0": (0, lambda before: "0", "volume must be positive and finite, got 0.0"),
        "volume nan": (0, lambda before: "nan", "volume must be positive and finite, got nan"),
        "volume inf": (0, lambda before: "inf", "volume must be positive and finite, got inf"),
        "duplicate volume": (0, lambda before: before, INCREASING),
        "decreasing volume": (0, lambda before: repr(float(before) / 2.0), INCREASING),
        "area 0": (1, lambda before: "0", "area must be positive and finite, got 0.0"),
        "area nan": (1, lambda before: "nan", "area must be positive and finite, got nan"),
        "area inf": (1, lambda before: "inf", "area must be positive and finite, got inf"),
    }

    @staticmethod
    def valid_rows(rng, count):
        volumes = sorted(rng.sample(range(1, 10_000), count))
        return [[repr(v / 7.0), repr(rng.uniform(0.1, 50.0))] for v in volumes]

    @staticmethod
    def curve_text(rng, rows):
        """A certified curve file with blank and comment lines strewn among the rows.

        Returns the text and the line number of every data row.
        """
        lines = ["# label: injected", "# certified_lower_bound: yes", "v,area"]
        line_nos = []
        for fields in rows:
            while rng.random() < 0.3:
                lines.append(rng.choice(["", "# a note", "   "]))
            lines.append(",".join(fields))
            line_nos.append(len(lines))
        return "\n".join(lines) + "\n", line_nos

    def test_single_fault_named_by_line_and_by_point(self, tmp_path):
        rng = random.Random(13)
        path = tmp_path / "curve.csv"
        for trial in range(90):
            name = sorted(self.FAULTS)[trial % len(self.FAULTS)]
            field, inject, problem = self.FAULTS[name]
            rows = self.valid_rows(rng, rng.randint(2, 30))
            # An order fault needs a row before it.
            index = rng.randrange(problem == self.INCREASING, len(rows))
            rows[index][field] = inject(rows[index - 1][0])
            text, line_nos = self.curve_text(rng, rows)
            path.write_text(text)
            with pytest.raises(CurveParseError) as err:
                read_curve(path)
            assert str(err.value) == f"line {line_nos[index]}: {problem}", name
            assert err.value.line_no == line_nos[index], name
            with pytest.raises(DomainError) as direct:
                TabulatedCurve(tuple((float(v), float(a)) for v, a in rows))
            assert str(direct.value) == f"point {index}: {problem}", name

    def test_syntax_fault_wins_over_an_earlier_sample_fault(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(
            "# certified_lower_bound: yes\nv,area\n1.0,2.0\n0.5,3.0\n4.0,5.0\n6.0,seven\n"
        )
        with pytest.raises(CurveParseError) as err:
            read_curve(path)
        assert err.value.line_no == 6
        assert str(err.value) == "line 6: could not parse numbers from '6.0,seven'"

    @staticmethod
    def count_checks(monkeypatch):
        """The point count of every TabulatedCurve built from now on."""
        checked = []
        check = TabulatedCurve.__new__

        def counted(cls, points, label=""):
            checked.append(len(points))
            return check(cls, points, label)

        monkeypatch.setattr(TabulatedCurve, "__new__", counted)
        return checked

    def test_samples_checked_once_and_only_by_the_curve(self, tmp_path, monkeypatch):
        rng = random.Random(7)
        path = tmp_path / "curve.csv"
        path.write_text(self.curve_text(rng, self.valid_rows(rng, 500))[0])
        checked = self.count_checks(monkeypatch)
        assert len(read_curve(path).points) == 500
        assert checked == [500]
        # With the curve's check switched off a bad sample gets through:
        # read_curve holds no sample rule of its own.
        def unchecked(cls, points, label=""):
            return tuple.__new__(cls, (points, label))

        monkeypatch.setattr(TabulatedCurve, "__new__", unchecked)
        path.write_text("# certified_lower_bound: yes\nv,area\n2.0,1.0\n1.0,nan\n")
        first, second = read_curve(path).points
        assert first == (2.0, 1.0) and second[0] == 1.0 and math.isnan(second[1])

    def test_rewritten_file_gives_the_new_curve(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(self.GOOD)
        assert read_curve(path).points[1] == (2.5, 3.5)
        path.write_text(self.GOOD.replace("2.5,3.5", "2.5,3.25"))
        assert read_curve(path).points[1] == (2.5, 3.25)

    def test_same_bytes_in_two_files_are_parsed_once(self, tmp_path, monkeypatch):
        rng = random.Random(11)
        text = self.curve_text(rng, self.valid_rows(rng, 200))[0]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text(text)
        second.write_text(text)
        checked = self.count_checks(monkeypatch)
        assert read_curve(first) == read_curve(second)
        assert checked == [200]

    def test_refused_file_is_refused_again_and_never_stored(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("# certified_lower_bound: yes\nv,area\n1.0,2.0\n1.0,3.0\n")
        refusals = []
        for _ in range(2):
            with pytest.raises(CurveParseError) as err:
                read_curve(path)
            refusals.append((str(err.value), err.value.line_no))
        assert refusals == [("line 4: volumes must be strictly increasing", 4)] * 2
        assert bounds_mod._parse_curve.cache_info().currsize == 0

    def test_deleted_file_is_not_served_from_the_cache(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(self.GOOD)
        read_curve(path)
        path.unlink()
        with pytest.raises(CurveParseError, match="cannot read curve file"):
            read_curve(path)

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028", "\x0b", "\x1c", "\x85"])
    def test_line_numbers_count_newlines_only(self, tmp_path, separator):
        # str.splitlines() would also split the comment, and name line 6.
        path = tmp_path / "curve.csv"
        path.write_text(
            f"# certified_lower_bound: yes\n# a{separator}note\nv,area\n1.0,2.0\n1.0,3.0\n",
            encoding="utf-8",
        )
        with pytest.raises(CurveParseError) as err:
            read_curve(path)
        assert str(err.value) == "line 5: volumes must be strictly increasing"
        assert err.value.line_no == 5

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
