import inspect
import json
import math
import random
import re
from collections import Counter

import pytest

from torusiso import (
    ConsistencyError,
    DomainError,
    GuardError,
    TorusIsoError,
    TorusProductSpec,
    beta,
    circle_piecewise,
    envelope_piecewise,
    euclidean_piecewise,
    full_report,
    slab_piecewise,
    solve_power_gap,
    unit_ball_volume,
    verify_spec,
)
from torusiso import bounds, cli, criticals, profiles
from torusiso.mensuration import EUCLID_DIM_RANGES
from torusiso.oracle import bisect_verify, gap_crossings

from golden import regen
from refvalues import (
    BETA_2_SQ,
    BETA_3_SQ,
    CN_EXAMPLE,
    C_STAR_UNIT3,
    ETA_UNIT3,
    K_EXAMPLE,
    K_UNIT,
    SQRT_PI_RADIUS,
    THETA_EXAMPLE,
    U0_UNIT3,
    U_SLAB_UNIT3,
    V0_EXAMPLE,
    V0_UNIT,
    VDSTAR_EXAMPLE,
    VDSTAR_UNIT,
    VDSTAR_UNIT_N3,
    VS_EXAMPLE,
    VSTAR_UNIT,
    VSTAR_UNIT_N3,
    W_STAR_UNIT3,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


class TestExampleTorus:
    def test_headline_thresholds(self, example_spec):
        crit = full_report(example_spec)
        assert abs(crit.v_star - 2.70) < 0.05
        assert abs(crit.v_dstar - 55.84) < 0.10
        assert rel(crit.v_star, CN_EXAMPLE) < 1e-11
        assert rel(crit.v_dstar, VDSTAR_EXAMPLE) < 1e-11

    def test_small_volume_constants(self, example_spec):
        small = full_report(example_spec)
        assert rel(small.theta_star, THETA_EXAMPLE) < 1e-11
        assert rel(small.sigma_star, THETA_EXAMPLE) < 1e-11
        assert rel(small.K_star, K_EXAMPLE) < 1e-11
        assert rel(small.v_s, VS_EXAMPLE) < 1e-12
        assert rel(small.v0_1, V0_EXAMPLE) < 1e-11
        assert small.v_star == small.c_n

    def test_k_star_equals_ball_area_at_c(self, example_spec):
        # c sits on the ball branch, so the 4-ball area law reproduces K.
        small = full_report(example_spec)
        assert rel(euclidean_piecewise(4)(small.c_n), small.K_star) < 1e-11
        assert small.c_n < BETA_3_SQ

    def test_balance_identity(self, example_spec):
        small = full_report(example_spec)
        lhs = 2 * (BETA_2_SQ - small.theta_star)
        rhs = 2 * math.pi * SQRT_PI_RADIUS * euclidean_piecewise(3)(small.theta_star)
        assert rel(lhs, rhs) < 1e-9

    def test_symmetry_of_equal_radii(self, example_spec):
        large = full_report(example_spec)
        assert large.a_n == large.b_n
        assert large.v_dstar == large.a_n

    def test_branch_at_v_dstar(self, example_spec):
        report = full_report(example_spec)
        assert report.constants["v_dstar"].regime == "cylinder"
        assert report.v_dstar > beta(3, SQRT_PI_RADIUS)


class TestUnitTorus:
    def test_k_star_value(self, unit_spec):
        crit = full_report(unit_spec)
        assert rel(crit.K_star, K_UNIT) < 1e-11
        assert abs(crit.K_star - 70.1) < 0.5

    def test_thresholds(self, unit_spec):
        crit = full_report(unit_spec)
        assert rel(crit.v_star, VSTAR_UNIT) < 1e-11
        assert rel(crit.v_dstar, VDSTAR_UNIT) < 1e-11
        assert rel(crit.v0_1, V0_UNIT) < 1e-11

    def test_v_dstar_against_scan_oracle(self, unit_spec):
        crit = full_report(unit_spec)
        circle = circle_piecewise(3, 1.0)
        slab = slab_piecewise(unit_spec)
        target = 2 * beta(2, 1.0)
        crossings = gap_crossings(circle, slab, target, 10.0, 1e5)
        assert crossings
        assert rel(crossings[-1][1], crit.v_dstar) < 1e-9


class TestSphereCylinderCrossing:
    # In T^2 x R^1 spheres hand over to round cylinders about the smaller
    # circle r1 at beta(2, r1): the 3-ball law against the circle-cross-disk law.
    def test_reference_torus(self):
        value = beta(2, SQRT_PI_RADIUS)
        assert rel(value, 32 * math.pi**2.5 / 81) < 1e-9

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
    def test_scaling(self, lam):
        base = beta(2, SQRT_PI_RADIUS)
        scaled = beta(2, lam * SQRT_PI_RADIUS)
        assert rel(scaled, lam**3 * base) < 1e-9

    def test_matches_power_gap_directly(self):
        sphere_coeff = 3 * unit_ball_volume(3) ** (1 / 3)
        cyl_coeff = 2 * (2 * math.pi * 0.8 * math.pi) ** 0.5
        direct = solve_power_gap(sphere_coeff, 2 / 3, cyl_coeff, 0.5, 0.0)
        assert rel(beta(2, 0.8), direct.root) < 1e-12


class TestOrderingInvariants:
    def test_sampled_specs(self):
        rng = random.Random(2024)
        for _ in range(8):
            radii = sorted(rng.uniform(0.5, 2.5) for _ in range(2))
            n = rng.randint(2, 5)
            crit = full_report(TorusProductSpec(tuple(radii), n))
            assert crit.v0_1 < crit.a_n
            assert crit.v0_2 < crit.b_n
            assert crit.v_star <= crit.v0_1 < crit.v_dstar
            assert crit.v_star < crit.v_dstar
            assert 0 < crit.theta_star < beta(n, radii[1])
            assert 0 < crit.sigma_star < beta(n, radii[0])

    def test_radius_swap_invariance(self):
        a = full_report(TorusProductSpec((0.7, 1.8), 3))
        b = full_report(TorusProductSpec((1.8, 0.7), 3))
        assert a == b


class TestThreeTorus:
    def test_unit_cubic_torus(self, unit_spec3):
        crit = full_report(unit_spec3)
        assert rel(crit.w_star, W_STAR_UNIT3) < 1e-11
        assert rel(crit.eta_star, ETA_UNIT3) < 1e-11
        assert rel(crit.C_star, C_STAR_UNIT3) < 1e-11
        assert rel(crit.u0, U0_UNIT3) < 1e-11
        assert crit.u_star == crit.u0
        assert rel(crit.u_dstar, U_SLAB_UNIT3) < 1e-11

    def test_invariants(self, unit_spec3):
        crit = full_report(unit_spec3)
        sub = full_report(TorusProductSpec((1.0, 1.0), 2))
        assert crit.w_star <= sub.v_star
        assert crit.C_star > 0
        assert crit.u_star <= crit.u0
        assert crit.u_star <= crit.u_dstar
        lhs = crit.C_star
        rhs = 2 * math.pi * euclidean_piecewise(4)(crit.eta_star)
        assert rel(lhs, rhs) < 1e-9

    def test_eta_decreases_with_third_radius(self):
        etas = [
            full_report(TorusProductSpec((1.0, 1.0, r3), 2)).eta_star
            for r3 in (1.0, 2.0, 4.0)
        ]
        assert etas[0] > etas[1] > etas[2]

    def test_uses_dim_up_subreport(self, unit_spec3):
        report = full_report(unit_spec3)
        up = report.sub_reports["n_plus_1"]
        assert rel(up.v_star, VSTAR_UNIT_N3) < 1e-11
        assert rel(up.v_dstar, VDSTAR_UNIT_N3) < 1e-11

    def test_guards(self):
        with pytest.raises(GuardError):
            full_report(TorusProductSpec((1.0, 1.0, 1.0), 5))


class TestFullReport:
    def test_guard_message_names_range(self):
        with pytest.raises(GuardError, match="2 <= euclid_dim <= 5"):
            full_report(TorusProductSpec((1.0, 1.0), 6))
        with pytest.raises(GuardError):
            full_report(TorusProductSpec((1.0,), 2))

    def test_two_torus_provenance(self, example_spec):
        report = full_report(example_spec)
        assert report.kind == "two-torus"
        expected = {
            "theta_star", "sigma_star", "K_star", "c_n", "v_s",
            "v0_1", "v0_2", "v_star", "a_n", "b_n", "v_dstar",
        }
        assert set(report.constants) == expected
        for record in report.constants.values():
            assert abs(record.residual) < 1e-8
            assert record.equation

    def test_values_match_example(self, example_spec):
        report = full_report(example_spec)
        assert abs(report.v_star - 2.70) < 0.05
        assert abs(report.v_dstar - 55.84) < 0.10

    def test_constants_pass_bisect_verify(self, example_spec):
        from torusiso.oracle import report_residuals

        report = full_report(example_spec)
        residuals = report_residuals(report)
        for name, record in report.constants.items():
            assert bisect_verify(residuals[name], record.value, 1e-9), name

    def test_three_torus_report_shape(self, unit_spec3):
        report = full_report(unit_spec3)
        assert report.kind == "three-torus"
        assert set(report.sub_reports) == {"n", "n_plus_1"}
        assert "u_slab_crossing" in report.constants

    def test_solver_consistency_guard(self, example_spec):
        # The envelope at v_star equals the circle branch there, tying the
        # report to the profile surface.
        report = full_report(example_spec)
        (area,), (seg,) = envelope_piecewise(example_spec).values([report.v_star])
        assert seg.regime == "ball"
        assert rel(area, report.K_star) < 1e-11


def _seeded_specs(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        k = 2 if i % 2 == 0 else 3
        n = rng.randint(2, 5 if k == 2 else 4)
        yield TorusProductSpec(tuple(math.exp(rng.uniform(-1.0, 1.0)) for _ in range(k)), n)


class TestReportParity:
    # Each value is read off its record, a rebuilt report is equal, and a
    # sub-report is the report of its sub-spec.
    @pytest.mark.parametrize("spec", list(_seeded_specs(11, 6)))
    def test_criticals_records_and_entry_points_agree(self, spec):
        report = full_report(spec)
        for r in (report, *report.sub_reports.values()):
            for name, record in r.constants.items():
                assert getattr(r, name) == record.value, name
        assert full_report(spec) == report
        for sub in report.sub_reports.values():
            assert sub == full_report(sub.spec)
        if report.sub_reports:
            r1, r2, _ = spec.radii
            n = spec.euclid_dim
            assert report.sub_reports["n"].spec == TorusProductSpec((r1, r2), n)
            assert report.sub_reports["n_plus_1"].spec == TorusProductSpec((r1, r2), n + 1)


# The two-circle spec whose computed a_n lies 12 ulps below its v0_1.
_ORDERING_REFUSED = TorusProductSpec((0.004511543985897641, 9.225445621467033), 5)


class TestReportCache:
    # full_report solves each spec once: every call gets the one read-only
    # report, and a refusal is raised again, never stored.
    @pytest.mark.parametrize("spec", [*_seeded_specs(23, 4), _ORDERING_REFUSED])
    def test_repeated_report_has_the_bits_of_a_fresh_solve(self, spec, clear_spec_caches):
        first, again = regen.report_fingerprint(spec), regen.report_fingerprint(spec)
        clear_spec_caches()
        assert first == again == regen.report_fingerprint(spec)

    @pytest.mark.parametrize(
        "spec", [TorusProductSpec((0.7, 1.9), 3), TorusProductSpec((0.6, 1.1, 2.3), 2)]
    )
    def test_edits_to_a_returned_report_never_reach_the_next(self, spec, clear_spec_caches):
        whole = regen.report_fingerprint(spec)
        edited = full_report(spec)
        assert full_report(spec) is edited
        reports = [edited, *edited.sub_reports.values()]
        for r in reports:
            for name, record in r.constants.items():
                with pytest.raises(TypeError):
                    r.constants[name] = record._replace(value=2.0 * record.value)
                with pytest.raises(TypeError):
                    del r.constants[name]
            with pytest.raises(TypeError):
                r.sub_reports["n"] = edited
        assert regen.report_fingerprint(spec) == whole
        for r in reports:
            with pytest.raises(AttributeError):
                r.constants.clear()
            with pytest.raises(AttributeError):
                r.sub_reports.clear()
        assert regen.report_fingerprint(spec) == whole
        clear_spec_caches()
        assert regen.report_fingerprint(spec) == whole

    @pytest.mark.parametrize(
        "spec",
        [
            _ORDERING_REFUSED,
            TorusProductSpec((5.2e31, 1.7e158, 3.2e263), 2),  # beta past the doubles
            TorusProductSpec((1.0,), 2),  # one circle: no report
        ],
    )
    def test_refusal_is_raised_again_and_never_stored(self, spec):
        refusals = []
        for _ in range(2):
            with pytest.raises(TorusIsoError) as refusal:
                full_report(spec)
            refusals.append((type(refusal.value), str(refusal.value)))
        assert refusals[0] == refusals[1]
        assert criticals._report.cache_info().currsize == 0

    def test_each_cache_keeps_the_last_32_specs(self):
        specs = list(_seeded_specs(31, 33))
        assert len(set(specs)) == 33
        for spec in specs:
            full_report(spec)
            envelope_piecewise(spec)
        # 33 distinct curve texts for the curve builder, which is keyed on them.
        texts = [
            f"# certified_lower_bound: yes\nv,area\n1.0,{i + 1}.0\n2.0,{i + 2}.0\n"
            for i in range(33)
        ]
        for text in texts:
            bounds._parse_curve(text)
        # 33 distinct anchors for the slope tables, which are keyed on them.
        curve = bounds.TabulatedCurve(((1.0, 1.0), (2.0, 2.0)))
        anchors = [(0.5 - i / 100.0, 1.0, True, curve) for i in range(33)]
        for anchor in anchors:
            bounds._slope_table(*anchor)
        # 33 distinct grid texts for the grid builder, which is keyed on them.
        grids = [f"1:{i + 2}:5" for i in range(33)]
        for text in grids:
            cli.parse_grid(text)
        caches = {cached.__name__: cached.cache_info() for cached in profiles._cached_builders}
        assert set(caches) == {
            "beta",
            "circle_piecewise",
            "slab_piecewise",
            "_envelope_piecewise",
            "_report",
            "_parse_curve",
            "_slope_table",
            "_grid",
        }
        for name, info in caches.items():
            assert info.maxsize == info.currsize == 32, name
        # The oldest spec, text, anchor and grid text were evicted; the newest
        # are served from the cache.
        for cached, call, keys in (
            (criticals._report, full_report, specs),
            (bounds._parse_curve, bounds._parse_curve, texts),
            (bounds._slope_table, lambda anchor: bounds._slope_table(*anchor), anchors),
            (cli._grid, cli.parse_grid, grids),
        ):
            hits = cached.cache_info().hits
            call(keys[-1])
            assert cached.cache_info().hits == hits + 1
            call(keys[0])
            assert cached.cache_info().hits == hits + 1

    def test_cached_entry_points_stay_plain_functions(self):
        # Tracers that wrap a module's functions skip lru_cache wrappers.
        assert inspect.isfunction(criticals.full_report)
        assert inspect.isfunction(profiles.envelope_piecewise)
        assert inspect.isfunction(profiles.euclidean_piecewise)
        assert inspect.isfunction(cli.parse_grid)


def test_a_n_meeting_v0_1_in_double_precision_is_refused():
    # The fixture spec whose a_n solve once ran out of doublings now gets a
    # report. Thresholds that meet in double precision are reported: the
    # second spec's computed a_n equals its v0_1. Only a computed a_n below
    # v0_1 is refused, by a message that gives both values, n and r2/r1.
    crit = full_report(TorusProductSpec((0.05173511256826572, 413.81304840881614), 4))
    assert crit.v0_1 < crit.a_n
    crit = full_report(TorusProductSpec((0.005789682520628809, 53.87644709258186), 5))
    assert crit.a_n == crit.v0_1
    with pytest.raises(ConsistencyError) as refusal:
        full_report(_ORDERING_REFUSED)
    assert str(refusal.value) == (
        "expected v0_1 <= a_n: a_n = 26143878.35939773 is 12 ulps below "
        "v0_1 = 26143878.359397776 (n = 5, r2/r1 = 2044.85)"
    )


def test_three_circle_refusal_names_its_sub_report_and_spec():
    # The n_plus_1 sub-report (n = 5) of this n = 4 spec has a computed a_n
    # 7 ulps below its v0_1. The refusal keeps the sub-report's message and
    # appends the sub-report key, the three radii and the spec's own n.
    radii = (0.001228498388285208, 45.15908759053932, 141.8574330961932)
    with pytest.raises(ConsistencyError) as refusal:
        full_report(TorusProductSpec(radii, 4))
    assert str(refusal.value) == (
        "expected v0_1 <= a_n: a_n = 97941385158.51955 is 7 ulps below "
        "v0_1 = 97941385158.51965 (n = 5, r2/r1 = 36759.6); in sub-report n_plus_1 of "
        "radii (0.001228498388285208, 45.15908759053932, 141.8574330961932), n = 4"
    )
    assert _ORDERING_REFUSAL[3].fullmatch(str(refusal.value))
    with pytest.raises(ConsistencyError) as sub_refusal:
        full_report(TorusProductSpec(radii[:2], 5))
    assert str(refusal.value).startswith(f"{sub_refusal.value}; ")


def test_v_dstar_at_v0_1_breaks_the_chain(monkeypatch, unit_spec):
    # Nothing rules out a computed a_n equal to v0_1 with b_n at or below it:
    # _ordered passes a_n == v0_1. Then v_dstar = v0_1 and the chain check
    # refuses. The gaps are solved in the order v0_1, v0_2, a_n, b_n; here
    # a_n and b_n are given v0_1's root.
    solve = criticals.solve_piecewise_gap
    found = []

    def pinned(upper, lower, target):
        found.append(solve(upper, lower, target))
        return found[0] if len(found) > 2 else found[-1]

    monkeypatch.setattr(criticals, "solve_piecewise_gap", pinned)
    with pytest.raises(ConsistencyError, match=r"^expected v_star <= v0_1 < v_dstar$"):
        full_report(unit_spec)
    assert len(found) == 4


def test_slab_crossing_past_half_the_largest_double_is_refused():
    # u_slab_crossing lies past half the largest double, so the probe at
    # twice it overflows; once refused as "volume must be a positive finite
    # real, got inf".
    radii = (1.9450022466248223e57, 1.702981133695231e37, 1.2439526350866184e-20)
    with pytest.raises(DomainError) as refusal:
        full_report(TorusProductSpec(radii, 4))
    assert str(refusal.value) == (
        "the gap's root 1.0019081083106504e+308 is past half the largest double, "
        "so no volume beyond it can be probed"
    )


def test_reports_match_golden_fixture():
    # Every constant, residual and regime bit, and every refusal message, of
    # the seeded fixture specs; rewrite the fixture only for an intended change.
    expected = json.loads(regen.REPORTS_PATH.read_text(encoding="utf-8"))
    specs = regen.report_specs()
    assert len(expected) == len(specs) == regen.REPORT_COUNT
    for spec, entry in zip(specs, expected):
        assert regen.report_fingerprint(spec) == entry, (
            f"full_report({spec}) changed; if the change is intended, rewrite the fixture "
            f"with `{regen.REGEN_COMMAND}`\n{regen.environment_note()}"
        )


def _draw_spec(rng: random.Random, k: int, lo: float, hi: float) -> TorusProductSpec:
    """k radii log-uniform in [lo, hi], n uniform over the supported range."""
    radii = tuple(math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(k))
    return TorusProductSpec(radii, rng.randint(*EUCLID_DIM_RANGES[k]))


def _log_uniform_specs(seed: int, k: int, count: int, lo: float, hi: float):
    rng = random.Random(seed)
    return [_draw_spec(rng, k, lo, hi) for _ in range(count)]


# The one refusal left to a spec whose envelope lies in the doubles: a
# computed threshold a few ulps below the one it must not pass. A k = 3
# refusal comes from a two-circle sub-report, so it must also name that
# sub-report and the three-circle spec; a k = 2 refusal must not.
_ORDERING = (
    r"expected \w+ <= [\w(), ]+: .+ = \S+ is \d+ ulps below \w+ = \S+ "
    r"\(n = \d, r2/r1 = \S+\)"
)
_ORDERING_REFUSAL = {
    2: re.compile(_ORDERING),
    3: re.compile(
        _ORDERING + r"; in sub-report (n|n_plus_1) of radii \(\S+, \S+, \S+\), n = \d"
    ),
}
# A DomainError that names a value past the double range.
_PAST_THE_DOUBLES = re.compile(
    "past the largest double|is not a normal positive double|leaves the normal doubles"
    "|is not a positive finite double"
)


@pytest.mark.parametrize("k", [2, 3])
def test_probe_refuses_only_coinciding_thresholds(k):
    # 2,000 seeded specs over radii 1e+-3. Doubling brackets and a
    # tolerance stop once refused 384 (k=2) and 336 (k=3) of them, with
    # "no upper bracket", infimum and K_star messages, and strict orderings
    # 12 and 7; the only refusal left is a computed a_n below v0_1.
    refusals = Counter()
    for spec in _log_uniform_specs(0, k, 2000, 1e-3, 1e3):
        try:
            full_report(spec)
        except TorusIsoError as exc:
            refusals[type(exc).__name__, str(exc)] += 1
    for kind, message in refusals:
        assert kind == "ConsistencyError", message
        assert message.startswith("expected v0_1 <= a_n: a_n = "), message
        assert _ORDERING_REFUSAL[k].fullmatch(message), message
    assert sum(refusals.values()) <= 10


# Constants that are areas, or volumes of a (k+n-1)-dimensional factor.
_CODIMENSION_ONE = {"theta_star", "sigma_star", "K_star", "w_star", "eta_star", "C_star"}


def _assert_scaled(report, scaled, lam):
    dim = report.spec.circle_count + report.spec.euclid_dim
    for name, record in report.constants.items():
        power = dim - 1 if name in _CODIMENSION_ONE else dim
        assert rel(scaled.constants[name].value, lam**power * record.value) < 1e-9, name
    for key, sub in report.sub_reports.items():
        _assert_scaled(sub, scaled.sub_reports[key], lam)


def test_reports_are_homothety_covariant():
    # Scaling every radius by lam scales each volume by lam^(k+n) and each
    # area by lam^(k+n-1); a scaled spec is refused only if the unscaled
    # one is. Doubling from 1 once refused 23 of these scaled specs.
    rng = random.Random(7)
    for i in range(400):
        spec = _draw_spec(rng, 2 + i % 2, 0.1, 10.0)
        lam = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        try:
            report = full_report(spec)
        except TorusIsoError:
            continue
        scaled = full_report(TorusProductSpec(tuple(lam * r for r in spec.radii), spec.euclid_dim))
        _assert_scaled(report, scaled, lam)


def test_roots_match_fifty_digit_roots():
    # a_n and theta_star against 50-digit roots of the same double
    # coefficients and targets; bisection to a relative width once left
    # errors up to 4.5e-13 (a_n) and 4.8e-13 (theta_star).
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf

    def mp_root(f, x):
        lo, hi = mpf(x) * (1 - mpf(10) ** -9), mpf(x) * (1 + mpf(10) ** -9)
        return mpmath.findroot(f, (lo, hi), solver="anderson")

    with mpmath.workdps(50):
        for spec in _log_uniform_specs(3, 2, 300, 0.1, 10.0):
            r1, r2 = spec.radii
            n = spec.euclid_dim
            crit = full_report(spec)
            (ball,) = euclidean_piecewise(n + 1).segments
            s, c, p, t = (mpf(x) for x in (math.pi * r1, ball.coeff, ball.exponent, beta(n, r2)))
            theta = mp_root(lambda x: s * (c * x**p) + x - t, crit.theta_star)
            assert abs(crit.theta_star - theta) <= 1e-14 * theta, spec
            (slab,) = slab_piecewise(spec).segments
            circle = circle_piecewise(n + 1, r1).segment_at(crit.a_n)
            c1, p1, c2, p2, t = (
                mpf(x)
                for x in (circle.coeff, circle.exponent, slab.coeff, slab.exponent, 2.0 * beta(n, r1))
            )
            a_n = mp_root(lambda x: c1 * x**p1 - c2 * x**p2 - t, crit.a_n)
            assert abs(crit.a_n - a_n) <= 1e-14 * a_n, spec


@pytest.mark.parametrize("lo, hi", [(0.1, 10.0), (1e-30, 1e30)])
def test_k_star_matches_fifty_digit_value(lo, hi):
    # K_star against its 50-digit value from the same double coefficients
    # and targets: theta_star and sigma_star solved by 200 halvings of a
    # 1e-9 relative bracket (findroot's anderson solver does not converge
    # at 1e+-30), then K_star = max(2 pi r ball(root)) with the exact 2 pi.
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf

    def mp_root(f, x):
        a, b = mpf(x) * (1 - mpf(10) ** -9), mpf(x) * (1 + mpf(10) ** -9)
        negative_at_a = f(a) < 0
        assert negative_at_a != (f(b) < 0)
        for _ in range(200):
            mid = (a + b) / 2
            a, b = (mid, b) if (f(mid) < 0) == negative_at_a else (a, mid)
        return a

    with mpmath.workdps(50):
        for spec in _log_uniform_specs(5, 2, 100, lo, hi):
            n = spec.euclid_dim
            crit = full_report(spec)
            (ball,) = euclidean_piecewise(n + 1).segments
            c, p = mpf(ball.coeff), mpf(ball.exponent)
            areas = []
            for r, other, root in (
                (*spec.radii, crit.theta_star),
                (*spec.radii[::-1], crit.sigma_star),
            ):
                s, t = mpf(math.pi * r), mpf(beta(n, other))
                x = mp_root(lambda x: s * (c * x**p) + x - t, root)
                areas.append(2 * mpmath.pi * r * c * x**p)
            assert abs(crit.K_star - max(areas)) <= 4 * math.ulp(crit.K_star), spec


# Reports of test_extreme_radii_end_in_a_report_or_a_named_refusal: 2,998 and
# 73 of 3,000 on an x86-64 host. At 1e+-300 the rest have a breakpoint volume
# beta(n, r) or another value of the construction past the doubles.
_FEWEST_EXTREME_REPORTS = {1e30: 2995, 1e300: 60}


@pytest.mark.parametrize("lo, hi", [(1e-30, 1e30), (1e-300, 1e300)])
def test_extreme_radii_end_in_a_report_or_a_named_refusal(lo, hi):
    # 3,000 seeded specs per span: nothing but a TorusIsoError escapes. A
    # refusal is the ordering refusal or a DomainError naming a value past
    # the double range (2,095 specs at 1e+-30 were once refused, nearly all
    # because a K_star re-check cancelled), and every 10th report passes the
    # oracle suite.
    reports = []
    for k in (2, 3):
        for spec in _log_uniform_specs(1, k, 1500, lo, hi):
            try:
                reports.append(full_report(spec))
            except ConsistencyError as exc:
                assert _ORDERING_REFUSAL[k].fullmatch(str(exc)), (spec, str(exc))
            except DomainError as exc:
                assert _PAST_THE_DOUBLES.search(str(exc)), (spec, str(exc))
    for report in reports[::10]:
        assert all(check.ok for check in verify_spec(report.spec)), report.spec
    assert len(reports) >= _FEWEST_EXTREME_REPORTS[hi]


def test_balance_bracket_past_the_largest_double():
    # (2T / (s c)) ** (1/p) overflows for the first spec's theta_star
    # bracket, which must not escape as a bare OverflowError. The second
    # spec's tiny ball term once made that K_star re-check cancel. Each
    # spec's report (both once refused by the re-check) passes the oracle
    # suite.
    for spec in (
        TorusProductSpec((2.409878158451198e-34, 4.3877787823233855e54), 3),
        TorusProductSpec((8.133372518560809e-14, 1.9107829132335996), 2),
    ):
        assert full_report(spec).spec == spec
        checks = verify_spec(spec)
        assert checks and all(check.ok for check in checks), spec
