"""The grid path (band rows, profile/bounds --grid) against row-by-row scalar references.

band() and the --grid commands evaluate every row from one piecewise
envelope per call. These tests require them to equal, field for field and
bit for bit, a reference built one volume at a time from the scalar closed
forms in scalar_reference.py, with the chord, the tangent sample loop and
the offset closed form written out per volume, including at volumes placed exactly on every breakpoint and threshold,
where the tie-breaks decide the regime tag.
"""

import json
import math
import random
import re
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torusiso.bounds as bounds_mod
import torusiso.cli as cli_mod
import torusiso.profiles as profiles_mod
from torusiso import (
    DomainError,
    PiecewiseProfile,
    PowerSegment,
    TabulatedCurve,
    TorusProductSpec,
    band,
    beta,
    envelope_piecewise,
    full_report,
    minimum_envelope,
)

from grids import log_grid
from refvalues import SQRT_PI_RADIUS
from scalar_reference import circle_profile, envelope_profile, first_minimal_segment

SPECS = [
    *(TorusProductSpec((SQRT_PI_RADIUS, SQRT_PI_RADIUS), n) for n in (2, 3, 4, 5)),
    *(TorusProductSpec((0.7, 1.9), n) for n in (2, 3, 4, 5)),
    *(TorusProductSpec((1.0, 1.0, 1.0), n) for n in (2, 3, 4)),
    *(TorusProductSpec((0.6, 1.1, 2.3), n) for n in (2, 3, 4)),
]


def spec_id(spec):
    return f"k{spec.circle_count}-n{spec.euclid_dim}-r{spec.radii[0]:.3g}"


def thresholds(report):
    if report.kind == "two-torus":
        return report.v_star, report.v_dstar
    return report.u_star, report.u_dstar


def special_volumes(spec, report):
    """Every breakpoint, beta and threshold a grid row can sit on."""
    n = spec.euclid_dim
    points = set(envelope_piecewise(spec).breakpoints())
    points.update(thresholds(report))
    for r in spec.radii:
        for m in (n, n + 1, n + 2):
            points.add(beta(m, r))
    return sorted(points)


def grid_for(spec, report):
    """Log grid across both thresholds plus each special volume and its neighbours."""
    v_lo, v_hi = thresholds(report)
    volumes = set(log_grid(v_lo / 30.0, v_hi * 30.0, 120))
    for p in special_volumes(spec, report):
        volumes.update((p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)))
        volumes.update((p * (1 - 1e-12), p * (1 + 1e-12)))
    return sorted(volumes)


def curves_for(spec, report):
    """Two valid lower-bound curves: scaled copies of the candidate envelope."""
    v_lo, v_hi = thresholds(report)
    out = []
    for scale, count in ((0.97, 9), (0.5, 25)):
        ws = log_grid(v_lo / 2.0, v_hi * 2.0, count)
        out.append(
            TabulatedCurve(
                tuple((w, scale * envelope_profile(spec, w)[0]) for w in ws),
                f"envelope x {scale}",
            )
        )
    return out


def chord_reference(lo_anchor, hi_anchor, v):
    (v_lo, y_lo), (v_hi, y_hi) = lo_anchor, hi_anchor
    t = (v - v_lo) / (v_hi - v_lo)
    return y_lo + t * (y_hi - y_lo)


def tangent_reference(anchor, curve, v):
    """Best line from the anchor through the samples on the far side of v, or None."""
    v0, a0 = anchor
    side = [(w, c) for w, c in curve.points if (w <= v if v < v0 else w >= v)]
    if not side:
        return None
    best = -math.inf
    for w, c in side:
        value = c + (a0 - c) * (v - w) / (v0 - w)
        if value > best:
            best = value
    return best


def offset_reference(spec, v):
    n = spec.euclid_dim
    return max(
        0.0, *(circle_profile(n + 1, r, v)[0] - 2.0 * beta(n, r) for r in spec.radii)
    )


def reference_rows(spec, grid, curves, report):
    """The band assembled one row at a time from the scalar closed forms."""
    v_lo, v_hi = thresholds(report)
    lo_anchor = (v_lo, envelope_profile(spec, v_lo)[0])
    hi_anchor = (v_hi, envelope_profile(spec, v_hi)[0])
    rows = []
    for v in grid:
        top, regime = envelope_profile(spec, v)
        if v <= v_lo or v >= v_hi:
            rows.append((v, top, top, regime, "exact"))
            continue
        lower, source = chord_reference(lo_anchor, hi_anchor, v), "chord"
        if top < lower <= top * (1.0 + 1e-9):
            lower = top  # a rounded chord touching the envelope
        for curve in curves:
            for anchor, tag in ((lo_anchor, "tangent-left"), (hi_anchor, "tangent-right")):
                value = tangent_reference(anchor, curve, v)
                if value is None:
                    continue
                value = min(value, top)
                if value > lower:
                    lower, source = value, tag
        if spec.circle_count == 2:
            offset = offset_reference(spec, v)
            if lower < offset <= top:
                lower, source = offset, "cylinder-offset"
        rows.append((v, top, lower, regime, source))
    return rows


def as_tuples(result):
    return [(r.v, r.upper, r.lower, r.upper_regime, r.lower_source) for r in result.rows]


def csv_num(x):
    return format(x, ".17g")


def regime_rows(columns):
    """(areas, segments) columns from PiecewiseProfile.values as (area, regime) rows."""
    areas, segments = columns
    return [(area, seg.regime) for area, seg in zip(areas, segments)]


@pytest.mark.parametrize("with_curves", [False, True], ids=["bare", "two-curves"])
@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_band_rows_equal_scalar_reference(spec, with_curves):
    report = full_report(spec)
    grid = grid_for(spec, report)
    curves = curves_for(spec, report) if with_curves else []
    expected = reference_rows(spec, grid, curves, report)
    assert as_tuples(band(spec, grid, curves, report=report)) == expected
    if with_curves:
        assert any(row[4].startswith("tangent") for row in expected)


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_profile_values_equal_scalar_envelope(spec):
    grid = grid_for(spec, full_report(spec))
    rows = regime_rows(envelope_piecewise(spec).values(grid))
    assert rows == [envelope_profile(spec, v) for v in grid]


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"radii": list(spec.radii), "euclid_dim": spec.euclid_dim}))
    return str(path)


def cli_grids(spec, report):
    """A log grid plus one single-volume grid on each special volume (exact via repr)."""
    v_lo, v_hi = thresholds(report)
    grids = [f"{v_lo / 30.0!r}:{v_hi * 30.0!r}:97,log"]
    grids += [f"{p!r}:{p!r}:1" for p in special_volumes(spec, report)]
    return grids


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_cli_grid_csv_equals_scalar_reference(spec, tmp_path, capsys):
    path = write_spec(tmp_path, spec)
    report = full_report(spec)
    for grid_text in cli_grids(spec, report):
        grid = cli_mod.parse_grid(grid_text)

        assert cli_mod.main(["profile", path, "--grid", grid_text]) == 0
        expected = ["v,area,regime"]
        for v in grid:
            area, regime = envelope_profile(spec, v)
            expected.append(f"{csv_num(v)},{csv_num(area)},{regime}")
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

        assert cli_mod.main(["bounds", path, "--grid", grid_text]) == 0
        expected = ["v,upper,lower,upper_regime,lower_source"]
        for v, upper, lower, regime, source in reference_rows(spec, grid, [], report):
            expected.append(f"{csv_num(v)},{csv_num(upper)},{csv_num(lower)},{regime},{source}")
        assert capsys.readouterr().out == "\n".join(expected) + "\n"


def tangent_columns(anchor, curve, volumes):
    """The column kernel's values and tangent_reference's, over ascending volumes.

    Volumes below the anchor take the right-anchor side (samples w <= v),
    the others the left-anchor side (samples w >= v), as tangent_reference does.
    """
    volumes = sorted(volumes)
    below = [v for v in volumes if v < anchor[0]]
    above = volumes[len(below):]
    got = [
        *bounds_mod._tangents(anchor, "right", curve, below),
        *bounds_mod._tangents(anchor, "left", curve, above),
    ]
    return got, [tangent_reference(anchor, curve, v) for v in volumes]


def power_curve(ws):
    return TabulatedCurve(tuple((w, 3.0 * w**0.6) for w in ws))


def test_tangent_bound_equals_sample_loop():
    """The scan gives the bits of the per-sample loop, None rows included."""
    rng = random.Random(7)
    ws = sorted(rng.uniform(0.5, 80.0) for _ in range(300))
    curve = power_curve(ws)
    for anchor in ((2.0, 4.1), (60.0, 36.0)):
        # 0.5 and 80.0 lie past every sample, so one side admits none there.
        volumes = [0.5, 80.0, *(rng.uniform(0.6, 79.0) for _ in range(200)), *ws[::10]]
        got, expected = tangent_columns(anchor, curve, volumes)
        assert got == expected
        assert None in expected


def test_tangent_kernel_curve_longer_than_a_block():
    # 2**14 + 37 samples, longer than one block of the former array kernel.
    ws = log_grid(1.0, 100.0, 2**14 + 37)
    curve = power_curve(ws)
    volumes = [0.5, 1.0, 3.3, 50.0, ws[5000], 99.0, 100.0, 150.0]
    for anchor in ((0.2, 1.0), (200.0, 80.0)):
        got, expected = tangent_columns(anchor, curve, volumes)
        assert got == expected
        assert None in expected


def test_tangent_kernel_partial_last_chunk():
    # 300 samples under 169 rows, which left the former array kernel a
    # partial last chunk of rows.
    ws = log_grid(1.0, 100.0, 300)
    curve = power_curve(ws)
    for anchor in ((0.5, 1.0), (150.0, 60.0)):
        got, expected = tangent_columns(anchor, curve, log_grid(1.5, 99.0, 169))
        assert got == expected


def test_tangent_kernel_volumes_on_the_samples():
    # w == v is admissible from either side; the line through it gives its area.
    ws = log_grid(1.0, 100.0, 300)
    curve = power_curve(ws)
    for anchor in ((0.5, 1.0), (150.0, 60.0)):
        got, expected = tangent_columns(anchor, curve, ws)
        assert got == expected
        assert None not in expected


@st.composite
def anchored_curves(draw):
    """An anchor, a curve and volumes on both sides of the anchor.

    Samples lie on one line through the anchor (their slopes tie, up to
    rounding), share an area from a small pool, or are free. Volumes are
    free doubles or multiples of 1/8, on which many lines evaluate exactly.
    Anchor, volumes and areas may be scaled by 2**300 or 2**-300, outside
    the scan's range.
    """
    volume = st.one_of(st.floats(0.1, 100.0), st.integers(1, 800).map(lambda k: k / 8))
    v0, a0 = draw(volume), draw(st.floats(1.0, 50.0))
    slope = draw(st.one_of(st.floats(-0.5, 2.0), st.sampled_from([0.0, 0.5, 1.0])))
    pool = draw(st.lists(st.floats(0.5, 80.0), min_size=1, max_size=3))
    points = []
    for w in sorted(set(draw(st.lists(volume, min_size=2, max_size=60)))):
        kind = draw(st.sampled_from(["line", "line", "pool", "free"]))
        if kind == "line":
            c = a0 + slope * (w - v0)
        elif kind == "pool":
            c = draw(st.sampled_from(pool))
        else:
            c = draw(st.floats(0.5, 80.0))
        if c > 0.0:
            points.append((w, c))
    assume(len(points) >= 2)
    volumes = [v for v in draw(st.lists(volume, max_size=40)) if v != v0]
    volumes += [w for w, _ in points if w != v0]
    v_scale, a_scale = draw(st.sampled_from([(1.0, 1.0)] * 4 + [(2.0**300, 1.0), (1.0, 2.0**-300)]))
    return (
        (v0 * v_scale, a0 * a_scale),
        TabulatedCurve(tuple((w * v_scale, c * a_scale) for w, c in points)),
        [v * v_scale for v in volumes],
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(anchored_curves())
def test_tangent_scan_matches_sample_loop_on_ties(case):
    # The best slope's sample is taken only where the slopes' gap exceeds the
    # rounding margin: on tied or nearly tied slopes the rounded values of the
    # lines decide, as in the per-sample loop.
    anchor, curve, volumes = case
    got, expected = tangent_columns(anchor, curve, volumes)
    assert got == expected


@pytest.mark.parametrize("spec", [SPECS[0], SPECS[8]], ids=spec_id)
def test_curve_samples_at_the_thresholds(spec):
    # Samples at v_lo and v_hi carry the anchors' own areas: a line from an
    # anchor through its own sample is 0/0, which no row may evaluate, and
    # no warning may leak.
    report = full_report(spec)
    v_lo, v_hi = thresholds(report)
    inner = log_grid(v_lo, v_hi, 12)[1:-1]
    points = [(v_lo, envelope_profile(spec, v_lo)[0])]
    points += [(w, 0.9 * envelope_profile(spec, w)[0]) for w in inner]
    points.append((v_hi, envelope_profile(spec, v_hi)[0]))
    curves = [TabulatedCurve(tuple(points), "through the anchors")]
    grid = grid_for(spec, report)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = band(spec, grid, curves, report=report)
    expected = reference_rows(spec, grid, curves, report)
    assert as_tuples(result) == expected
    assert any(row[4].startswith("tangent") for row in expected)


def first_offence(spec, grid, curves, report):
    """(v, message) of the first row, curve and anchor, in that order, whose line
    rises above the envelope."""
    v_lo, v_hi = thresholds(report)
    anchors = [(v, envelope_profile(spec, v)[0]) for v in (v_lo, v_hi)]
    for v in grid:
        top = envelope_profile(spec, v)[0]
        for curve in curves:
            for anchor in anchors:
                value = tangent_reference(anchor, curve, v)
                if value is not None and value > top * (1.0 + 1e-9):
                    return v, (
                        f"curve {curve.label!r} yields lower bound {value} above "
                        f"the envelope {top} at v={v}"
                    )
    return None


def test_curves_above_the_envelope_refused_in_row_order():
    spec = SPECS[0]
    report = full_report(spec)
    v_lo, v_hi = thresholds(report)
    grid = log_grid(v_lo, v_hi, 42)[1:-1]

    def bumped(label, row):
        # A 0.9x envelope curve with one sample 1% above the envelope.
        scales = [1.01 if i == row else 0.9 for i in range(len(grid))]
        return TabulatedCurve(
            tuple((v, s * envelope_profile(spec, v)[0]) for v, s in zip(grid, scales)), label
        )

    late, early = bumped("late", 30), bumped("early", 10)
    # A curve-by-curve scan would name "late"; band scans row by row.
    early_v, _ = first_offence(spec, grid, [early], report)
    late_v, _ = first_offence(spec, grid, [late], report)
    assert early_v < late_v
    _, message = first_offence(spec, grid, [late, early], report)
    assert "'early'" in message
    with pytest.raises(DomainError, match=re.escape(message)):
        band(spec, grid, [late, early], report=report)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cylinder_offset_bound_equals_closed_form(n):
    spec = TorusProductSpec((0.7, 1.9), n)
    # _offsets takes an ascending grid, as band hands it the inside rows.
    volumes = log_grid(1e-2, 1e5, 300)
    volumes = sorted(volumes + [beta(n + 1, r) for r in spec.radii])
    assert bounds_mod._offsets(spec, volumes) == [offset_reference(spec, v) for v in volumes]


def test_breakpoint_tie_break_documented_values():
    spec = TorusProductSpec((1.0, 1.0), 2)
    v = beta(3, 1.0)
    profile = envelope_piecewise(spec)
    (grid_value,) = regime_rows(profile.values([v]))
    assert grid_value == (224.84192526231706, "ball")
    assert grid_value == envelope_profile(spec, v)
    segment = profile.segment_at(v)
    assert (segment.value(v), segment.regime) == (224.84192526231706, "ball")


def rule_volumes(profile):
    """Every breakpoint of the profile and of its candidates, with neighbours."""
    points = set(profile.breakpoints())
    for candidate in profile.candidates:
        points.update(candidate.breakpoints())
    volumes = set()
    for p in points:
        volumes.update((math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)))
    return sorted(volumes)


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_every_evaluator_follows_one_breakpoint_rule(spec):
    # Whole segments are compared: a re-cut envelope segment carries the
    # winner's law and regime but not its interval.
    profile = envelope_piecewise(spec)
    for v in rule_volumes(profile):
        (area,), (segment,) = profile.values([v])
        assert segment == profile.segment_at(v)
        assert area == segment.value(v) == float(profile(v))
        assert (area, segment.regime) == envelope_profile(spec, v)


RULE_SPECS = [
    TorusProductSpec((1.3,), 3),
    TorusProductSpec((1e-30,), 4),
    TorusProductSpec((1e30,), 2),
    TorusProductSpec((0.7, 1.9), 3),
    TorusProductSpec((1e-30, 3e-30), 2),
    TorusProductSpec((1e30, 1e30), 5),
    TorusProductSpec((0.6, 1.1, 2.3), 2),
    TorusProductSpec((1e-30, 2e-30, 5e-30), 3),
    TorusProductSpec((1e30, 1e30, 1e30), 4),
]


def near_cut_volumes(profile, seed):
    """Every cut of the envelope and of its candidates, 1-3 ulps either side,
    the cuts moved by the evaluation margin, and seeded log-uniform volumes."""
    cuts = set(profile.breakpoints())
    for candidate in profile.candidates:
        cuts.update(candidate.breakpoints())
    volumes = set()
    for p in cuts:
        below = above = p
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            volumes.update((below, above))
        volumes.add(p)
        for moved in (p * (1.0 - profiles_mod._CUT_MARGIN), p * (1.0 + profiles_mod._CUT_MARGIN)):
            volumes.update((math.nextafter(moved, 0.0), moved, math.nextafter(moved, math.inf)))
    rng = random.Random(seed)
    lo, hi = math.log(min(cuts) / 1e6), math.log(max(cuts) * 1e6)
    volumes.update(math.exp(rng.uniform(lo, hi)) for _ in range(300))
    return sorted(volumes)


@pytest.mark.parametrize("spec", RULE_SPECS, ids=spec_id)
def test_grid_rows_are_the_segments_of_the_single_volume_rule(spec):
    # values() evaluates an envelope interval through its winner and rows
    # near a cut through every candidate; row by row it must give the
    # PowerSegment of segment_at (the candidate's own, not the envelope's
    # re-cut copy), the area of __call__, and the segment of the
    # all-candidates reference. Returning the envelope's segments fails it.
    profile = envelope_piecewise(spec)
    assert profile._pieces or spec.circle_count == 1  # the winners' rows are exercised
    volumes = near_cut_volumes(profile, seed=len(spec.radii) * 10 + spec.euclid_dim)
    areas, segments = profile.values(volumes)
    for v, area, segment in zip(volumes, areas, segments):
        assert segment == profile.segment_at(v) == first_minimal_segment(profile, v), v
        assert area == profile(v) == segment.value(v), v
    # An unsorted grid, every 7th volume repeated, gives the same rows in
    # its own order.
    order = list(range(len(volumes)))
    order += order[::7]
    random.Random(5).shuffle(order)
    expected = ([areas[i] for i in order], [segments[i] for i in order])
    assert profile.values([volumes[i] for i in order]) == expected


def one_law(coeff, exponent, regime):
    return PiecewiseProfile((PowerSegment(coeff, exponent, 0.0, math.inf, regime),))


def assert_rows_follow_the_rule(profile, volumes):
    areas, segments = profile.values(volumes)
    for v, area, segment in zip(volumes, areas, segments):
        assert segment == profile.segment_at(v) == first_minimal_segment(profile, v), v
        assert area == profile(v), v


@pytest.mark.parametrize(
    "laws",
    [
        # One exponent, coefficients an ulp apart: the areas tie on some rows.
        [(1.0 + 2.0**-52, 0.5, "a"), (1.0, 0.5, "b")],
        # Exponents 2**-40 apart, crossing at exp(1/32): their areas compare
        # within rounding up to about 1e-3 relative from the crossing.
        [(1.0, 0.5, "a"), (1.0 + 2.0**-45, 0.5 - 2.0**-40, "b")],
    ],
    ids=["shared-exponent", "near-exponents"],
)
def test_envelopes_of_close_laws_take_every_candidate(laws):
    # Such laws can compare within rounding far from any cut, so every row
    # goes through all the candidates.
    profile = minimum_envelope([one_law(*law) for law in laws])
    assert profile._pieces == ()
    volumes = [*log_grid(1e-100, 1e100, 401), *log_grid(1.02, 1.04, 2001)]
    assert_rows_follow_the_rule(profile, sorted(volumes))


def test_envelopes_of_envelopes_take_every_candidate():
    inner = envelope_piecewise(TorusProductSpec((0.7, 1.9), 3))
    profile = minimum_envelope([inner, one_law(30.0, 0.5, "flat")])
    assert profile._pieces == ()
    assert_rows_follow_the_rule(profile, log_grid(1e-6, 1e9, 301))


OVERFLOWING = [(1e300, 0.5, "a"), (1e290, 0.75, "b")]
UNDERFLOWING = [(50 * 2.0**-1074, 0.05 + 2.0**-7, "a"), (51 * 2.0**-1074, 0.05, "b")]


@pytest.mark.parametrize(
    "laws, volumes, regimes",
    [
        # Both areas overflow past about 1e24, where the first candidate
        # wins the tie; below it the second is smaller. The piece's winner
        # alone would give the rows of one candidate throughout.
        (OVERFLOWING, log_grid(1e-300, 1e300, 601), {"a", "b"}),
        # The laws cross at 1e40. The probe of (0, 1e40) is 5e39, where both
        # areas overflow and the tie goes to "a", so that interval may keep
        # no piece: its rows below the overflow range would take "a"'s law.
        (OVERFLOWING, [1.0, 10.0], {"b"}),
        (OVERFLOWING, [1e-300, 1e-10, 1.0, 10.0, 1e6, 1e12, 1e15], {"b"}),
        # Coefficients of 50 and 51 smallest subnormals cross near 12.6, "b"
        # smaller beyond. At the probe 25.2 both areas are about 60 smallest
        # subnormals, 0.5% apart, and round to the same double, so the tie
        # goes to "a"; the rows from 1e290 up have normal areas.
        (UNDERFLOWING, [10.0**e for e in range(290, 309)], {"b"}),
    ],
    ids=["overflowing-areas", "overflowing-probe", "below-the-overflow", "underflowing-probe"],
)
def test_blocks_whose_areas_leave_the_normal_doubles_take_every_candidate(laws, volumes, regimes):
    profile = minimum_envelope([one_law(*law) for law in laws])
    assert_rows_follow_the_rule(profile, volumes)
    assert {segment.regime for segment in profile.values(volumes)[1]} == regimes


def test_crossing_whose_coefficient_ratio_underflows_leaves_one_segment():
    # The laws cross at 1e2400, past every double, but their coefficient
    # ratio underflows to 0.0 under the power -4, which raised
    # ZeroDivisionError. "b" is the smaller law on every double, in either order.
    a, b = one_law(1e300, 0.5, "a"), one_law(1e-300, 0.75, "b")
    for curves in ([a, b], [b, a]):
        profile = minimum_envelope(curves)
        assert [segment.regime for segment in profile.segments] == ["b"]


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_candidate_segment_lookup_follows_the_breakpoint_rule(spec):
    # Profiles that are not envelopes look their segment up directly.
    for candidate in envelope_piecewise(spec).candidates:
        for v in rule_volumes(candidate):
            assert candidate.segment_at(v) == candidate.values([v])[1][0]


def test_values_rejects_bad_volumes():
    profile = envelope_piecewise(TorusProductSpec((1.0, 1.0), 2))
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            profile.values([1.0, bad])


@pytest.fixture
def envelope_builds(monkeypatch):
    """Counts envelope_piecewise builds made by band() and the CLI."""
    calls = []
    original = envelope_piecewise

    def counting(spec):
        calls.append(spec)
        return original(spec)

    for module in (bounds_mod, cli_mod):
        monkeypatch.setattr(module, "envelope_piecewise", counting)
    return calls


@pytest.mark.parametrize(
    "spec",
    [TorusProductSpec((0.7, 1.9), 3), TorusProductSpec((0.6, 1.1, 2.3), 2)],
    ids=spec_id,
)
def test_envelope_builds_do_not_grow_with_the_grid(spec, envelope_builds, tmp_path, capsys):
    report = full_report(spec)
    v_lo, v_hi = thresholds(report)
    for size in (10, 1000):
        envelope_builds.clear()
        band(spec, log_grid(v_lo / 10.0, v_hi * 10.0, size), report=report)
        assert envelope_builds == [spec]

    path = write_spec(tmp_path, spec)
    for size in (10, 1000):
        envelope_builds.clear()
        assert cli_mod.main(["profile", path, "--grid", f"0.01:1e6:{size},log"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == size + 1
        assert envelope_builds == [spec]
