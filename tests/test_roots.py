import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusiso import (
    ConsistencyError,
    DomainError,
    PiecewiseProfile,
    PowerSegment,
    RootResult,
    TorusProductSpec,
    beta,
    circle_piecewise,
    slab_piecewise,
    solve_balance,
    solve_piecewise_gap,
    solve_power_gap,
)
from torusiso import roots
from torusiso.errors import TorusIsoError

from refvalues import (
    BETA_2_1,
    BETA_2_SQ,
    SQRT_PI_RADIUS,
    THETA_EXAMPLE,
    THETA_UNIT,
    V0_EXAMPLE,
    V0_UNIT,
    VDSTAR_EXAMPLE,
)
from scalar_reference import solve_piecewise_gap_every_window


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def grid_scan_bracket(f, lo, hi, step):
    """Additive-step scan oracle: bracket of the first sign change of f."""
    x, value = lo, f(lo)
    for i in range(1, math.ceil((hi - lo) / step)):
        x_next = lo + i * step
        value_next = f(x_next)
        if value * value_next < 0:
            return x, x_next
        x, value = x_next, value_next
    raise AssertionError("oracle scan found no sign change")


class TestSolveIncreasing:
    # solve_balance: s * (c * x^p) + x = target, increasing from 0.
    def test_identity(self):
        # A negligible power term leaves x = target.
        result = solve_balance(1e-300, 1.0, 0.5, 7.0)
        assert rel(result.root, 7.0) < 1e-12

    def test_balance_equation_example_torus(self):
        coeff = math.sqrt(math.pi) * (36 * math.pi) ** (1 / 3)
        f = lambda t: coeff * t ** (2 / 3) + t
        lo, hi = grid_scan_bracket(lambda t: f(t) - BETA_2_SQ, 1e-6, 2.0, 1e-6)
        result = solve_balance(1.0, coeff, 2 / 3, BETA_2_SQ)
        assert lo <= result.root <= hi
        assert rel(result.root, THETA_EXAMPLE) < 1e-11
        assert abs(result.root - 0.628) < 1e-3

    def test_balance_equation_unit_torus(self):
        coeff = math.pi * (36 * math.pi) ** (1 / 3)
        f = lambda t: coeff * t ** (2 / 3) + t
        lo, hi = grid_scan_bracket(lambda t: f(t) - BETA_2_1, 1e-6, 10.0, 1e-5)
        result = solve_balance(1.0, coeff, 2 / 3, BETA_2_1)
        assert lo <= result.root <= hi
        assert rel(result.root, THETA_UNIT) < 1e-11
        assert abs(result.root - 3.49) < 5e-3

    def test_target_below_infimum(self):
        # The left side's infimum is 0, so no target at or below it has a root.
        for target in (0.0, -1.0):
            with pytest.raises(DomainError, match="target must be a positive finite real"):
                solve_balance(1.0, 1.0, 0.5, target)


class TestSolvePowerGap:
    def test_exact_unit_root(self):
        result = solve_power_gap(1.0, 2 / 3, 1.0, 0.5, 0.0)
        assert rel(result.root, 1.0) < 1e-11

    def test_example_torus_large_threshold(self):
        c1 = 3 ** (2 / 3) * (8 * math.pi**1.5) ** (1 / 3)
        result = solve_power_gap(c1, 2 / 3, 4 * math.pi, 0.5, 2 * BETA_2_SQ)
        assert rel(result.root, VDSTAR_EXAMPLE) < 1e-11
        assert abs(result.root - 55.84) < 0.01

    def test_example_torus_crossing(self):
        c1 = 3 ** (2 / 3) * (8 * math.pi**1.5) ** (1 / 3)
        result = solve_power_gap(c1, 2 / 3, 4 * math.pi, 0.5, 0.0)
        assert rel(result.root, V0_EXAMPLE) < 1e-11
        assert rel(result.root, 64 * math.pi**3 / 81) < 1e-11

    def test_exponent_order_required(self):
        with pytest.raises(DomainError):
            solve_power_gap(1.0, 0.5, 1.0, 2 / 3, 1.0)
        with pytest.raises(DomainError):
            solve_power_gap(1.0, 0.5, 1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            solve_power_gap(-1.0, 2 / 3, 1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            solve_power_gap(1.0, 2 / 3, 1.0, 0.5, -1.0)

    def test_determinism(self):
        a = solve_power_gap(2.7, 3 / 4, 1.9, 2 / 3, 14.5)
        b = solve_power_gap(2.7, 3 / 4, 1.9, 2 / 3, 14.5)
        assert a.root == b.root
        assert a.residual == b.residual
        assert a.iterations == b.iterations

    def test_residual_contract(self):
        result = solve_power_gap(2.7, 3 / 4, 1.9, 2 / 3, 14.5)
        assert abs(result.residual) <= roots.RESIDUAL_RTOL * result.scale
        assert result.bracket[0] <= result.root <= result.bracket[1]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    c1=st.floats(min_value=0.1, max_value=50.0),
    crossing=st.floats(min_value=0.1, max_value=1e3),
    b=st.floats(min_value=1e-3, max_value=1e3),
)
def test_power_gap_unimodal_structure(n, c1, crossing, b):
    # The gap vanishes once, then stays positive; with a positive target the
    # root moves right and the gap stays above the target past it. The zero
    # crossing is drawn directly so the instance stays as well conditioned
    # as the pipeline's own gap equations.
    p1, p2 = n / (n + 1), (n - 1) / n
    c2 = c1 * crossing ** (p1 - p2)
    x0 = solve_power_gap(c1, p1, c2, p2, 0.0).root
    x1 = solve_power_gap(c1, p1, c2, p2, b).root
    assert abs(x0 - crossing) <= 1e-9 * crossing
    assert x0 < x1
    phi = lambda x: c1 * x**p1 - c2 * x**p2
    for factor in (1.01, 2.0, 10.0):
        assert phi(factor * x1) > b


class TestRootResult:
    def test_contract_enforced(self):
        with pytest.raises(ConsistencyError):
            RootResult(5.0, 0.0, 1, (1.0, 2.0), 1.0)
        with pytest.raises(ConsistencyError):
            RootResult(1.5, 1.0, 1, (1.0, 2.0), 1.0)


class TestSolvePiecewiseGap:
    def test_example_torus_terminal_root(self, example_spec):
        circle = circle_piecewise(3, SQRT_PI_RADIUS)
        slab = slab_piecewise(example_spec)
        result = solve_piecewise_gap(circle, slab, 2 * BETA_2_SQ)
        assert rel(result.root, VDSTAR_EXAMPLE) < 1e-11
        assert circle.segment_at(result.root).regime == "cylinder"

    def test_negative_target_is_refused(self):
        with pytest.raises(DomainError, match="target must be a nonnegative finite real, got -1.0"):
            solve_piecewise_gap(circle_piecewise(3, 1.0), circle_piecewise(3, 2.0), -1.0)

    def test_degenerate_equal_profiles(self, example_spec):
        slab = slab_piecewise(example_spec)
        with pytest.raises(ConsistencyError):
            solve_piecewise_gap(slab, slab, 0.0)

    def test_unit_torus_crossing(self, unit_spec):
        circle = circle_piecewise(3, 1.0)
        slab = slab_piecewise(unit_spec)
        result = solve_piecewise_gap(circle, slab, 0.0)
        assert rel(result.root, V0_UNIT) < 1e-11
        assert rel(result.root, 64 * math.pi**5 / 81) < 1e-11
        assert abs(result.root - 241.0) < 1.0
        assert circle.segment_at(result.root).regime == "cylinder"

    def test_equal_exponent_closed_form(self):
        # Slabs of one dimension over tori of different size share the
        # exponent, so their gap meets a positive target in closed form.
        upper = slab_piecewise(TorusProductSpec((1.0, 2.0), 3))
        lower = slab_piecewise(TorusProductSpec((0.5, 0.7), 3))
        (sa,), (sb,) = upper.segments, lower.segments
        assert sa.exponent == sb.exponent and sa.coeff > sb.coeff
        target = 40.0
        result = solve_piecewise_gap(upper, lower, target)
        assert result.root == (target / (sa.coeff - sb.coeff)) ** (1 / sa.exponent)
        assert result.iterations == 0
        assert rel(upper(result.root) - lower(result.root), target) < 1e-12

    def test_no_admissible_root(self, example_spec):
        circle = circle_piecewise(3, SQRT_PI_RADIUS)
        slab = slab_piecewise(example_spec)
        # The slab never exceeds the circle profile by any positive amount
        # in the long run, so the swapped gap has no terminal root.
        with pytest.raises(DomainError):
            solve_piecewise_gap(slab, circle, 1.0)

    def test_stationary_point_past_the_double_range_is_refused(self):
        # (c2 p2 / (c1 p1)) ** (1 / (p1 - p2)) overflows for this circle/slab
        # pair, which once escaped as a bare OverflowError.
        r = 7.107879596899953e-56
        circle = circle_piecewise(3, r)
        slab = slab_piecewise(TorusProductSpec((r, 2.8687792386193826e208), 2))
        pattern = r"stationary point of .* c1 = .*, p1 = .*, c2 = .*, p2 = .* past the largest double"
        with pytest.raises(DomainError, match=pattern):
            solve_piecewise_gap(circle, slab, 0.0)


def power_profile(*laws):
    """PiecewiseProfile from (coeff, exponent, v_hi) laws, each starting where the last ended."""
    segments, v_lo = [], 0.0
    for coeff, exponent, v_hi in laws:
        segments.append(PowerSegment(coeff, exponent, v_lo, v_hi, "ball"))
        v_lo = v_hi
    return PiecewiseProfile(tuple(segments))


# Upper profile for the window tests: 0.5 v^0.75 up to 256, 8 v^0.25 up to
# 65536, then v^0.75 / 32 (continuous). Against sqrt(v) its gap crosses zero
# at 16 in the first window, falls below zero in the second (skipped: its
# exponent is the smaller) and crosses again at 2^20 in the third.
THREE_WINDOWS = power_profile((0.5, 0.75, 256.0), (8.0, 0.25, 65536.0), (1 / 32, 0.75, math.inf))
SQRT = power_profile((1.0, 0.5, math.inf))


class TestWindowScan:
    def test_right_window_root_wins(self):
        result = solve_piecewise_gap(THREE_WINDOWS, SQRT, 0.0)
        assert rel(result.root, 2.0**20) < 1e-12
        assert result == solve_piecewise_gap_every_window(THREE_WINDOWS, SQRT, 0.0)
        # The left window holds a root too: the scan must not stop there.
        left = solve_power_gap(0.5, 0.75, 1.0, 0.5, 0.0)
        assert left.root < 256.0 and rel(left.root, 16.0) < 1e-12

    def test_inadmissible_right_root_falls_back_left(self):
        # Past 256 the upper law is 32 (v/256)^0.6, whose gap against sqrt(v)
        # vanishes below 1, outside its window: the left window is solved.
        upper = power_profile((0.5, 0.75, 256.0), (32.0 / 256.0**0.6, 0.6, math.inf))
        right = solve_power_gap(32.0 / 256.0**0.6, 0.6, 1.0, 0.5, 0.0)
        assert right.root < 256.0
        result = solve_piecewise_gap(upper, SQRT, 0.0)
        assert rel(result.root, 16.0) < 1e-12
        assert result == solve_piecewise_gap_every_window(upper, SQRT, 0.0)

    def test_window_left_of_its_root_is_not_solved(self, monkeypatch):
        # At 256, where the right window starts, the right law's gap is
        # already 16 above the target: its root lies left of the window, so
        # only the left window's gap reaches solve_power_gap.
        upper = power_profile((0.5, 0.75, 256.0), (32.0 / 256.0**0.6, 0.6, math.inf))
        solved = []

        def recorded(*args):
            solved.append(args)
            return solve_power_gap(*args)

        monkeypatch.setattr(roots, "solve_power_gap", recorded)
        result = solve_piecewise_gap(upper, SQRT, 0.0)
        assert solved == [(0.5, 0.75, 1.0, 0.5, 0.0)]
        assert result == solve_piecewise_gap_every_window(upper, SQRT, 0.0)

    def test_window_far_from_one_is_skipped_like_its_solve(self, monkeypatch):
        # The right window starts at 2^100 and the gap there exceeds the
        # target, so its root lies left of it. Solving it once doubled from 1
        # and ran out of doublings; its closed-form bracket solves it, so
        # the window is skipped, and the scan returns the left window's root
        # as the every-window reference does.
        lo = 2.0**100
        upper = power_profile((lo**-0.25, 1.0, lo), (1.0, 0.75, math.inf))
        target = lo**0.75 / 2.0
        assert upper(lo) - SQRT(lo) > 1.9 * target
        assert solve_power_gap(1.0, 0.75, 1.0, 0.5, target).root < lo
        solved = []

        def recorded(*args):
            solved.append(args)
            return solve_power_gap(*args)

        monkeypatch.setattr(roots, "solve_power_gap", recorded)
        result = solve_piecewise_gap(upper, SQRT, target)
        assert solved == [(lo**-0.25, 1.0, 1.0, 0.5, target)]
        assert result.root < lo
        assert result == solve_piecewise_gap_every_window(upper, SQRT, target)

    def test_zero_gap_in_a_left_window_raises(self):
        # Identical laws up to 1, a terminal root at 2^32 further right: the
        # zero gap is refused although the scan would stop before reaching it.
        upper = power_profile(
            (1.0, 0.5, 1.0), (1.0, 0.25, 65536.0), (16.0 / 65536.0**0.75, 0.75, math.inf)
        )
        with pytest.raises(ConsistencyError, match="identically zero"):
            solve_piecewise_gap(upper, SQRT, 0.0)
        with pytest.raises(ConsistencyError, match="identically zero"):
            solve_piecewise_gap_every_window(upper, SQRT, 0.0)
        # With a positive target the shared window is no refusal.
        assert solve_piecewise_gap(upper, SQRT, 1.0) == solve_piecewise_gap_every_window(
            upper, SQRT, 1.0
        )

    def test_root_a_few_ulps_past_a_window_start_is_solved(self):
        # v^0.75 split at 16, against sqrt(v), with the target the gap 8 ulps
        # past 16: just below 16 the computed gap is about 4u relative short
        # of the target, inside the skip margin's width, so only a margin
        # that demands a positive excess keeps the right window.
        upper = power_profile((1.0, 0.75, 16.0), (1.0, 0.75, math.inf))
        v = 16.0 + 8 * math.ulp(16.0)
        result = solve_piecewise_gap(upper, SQRT, upper(v) - SQRT(v))
        assert 16.0 < result.root <= 16.0 + 16 * math.ulp(16.0)
        assert result == solve_piecewise_gap_every_window(upper, SQRT, upper(v) - SQRT(v))

    def test_gap_that_falls_back_below_the_target_is_refused(self):
        # 2 v^0.9 up to 10, then a 0.1-exponent law, against v^0.8: the gap
        # meets the target at 9.5 in the left window, but at twice that root
        # the flat right law has fallen back below it.
        upper = power_profile((2.0, 0.9, 10.0), (2.0 * 10.0**0.8, 0.1, math.inf))
        lower = power_profile((1.0, 0.8, math.inf))
        target = upper(9.5) - lower(9.5)
        assert upper(19.0) - lower(19.0) < target
        with pytest.raises(ConsistencyError, match=r"stay above the target past the root 9\.5$"):
            solve_piecewise_gap(upper, lower, target)


_LOG_RADIUS = st.floats(min_value=math.log(1e-3), max_value=math.log(1e3))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    log_radii=st.tuples(_LOG_RADIUS, _LOG_RADIUS),
    which=st.integers(min_value=0, max_value=1),
    doubled_beta=st.booleans(),
)
def test_window_scan_equals_every_window_reference(n, log_radii, which, doubled_beta):
    # Circle/slab pairs as the two-circle pipeline draws them, at target 0
    # (v0_i) and 2*beta (a_n, b_n): wherever the every-window reference
    # returns, the right-to-left scan returns the same six fields.
    spec = TorusProductSpec(tuple(math.exp(x) for x in log_radii), n)
    r = spec.radii[which]
    circle = circle_piecewise(n + 1, r)
    slab = slab_piecewise(spec)
    target = 2.0 * beta(n, r) if doubled_beta else 0.0
    try:
        expected = solve_piecewise_gap_every_window(circle, slab, target)
    except (ConsistencyError, DomainError):
        return
    result = solve_piecewise_gap(circle, slab, target)
    assert tuple(result) == tuple(expected)


def _outcome(solve, *args):
    """The solver's six result fields, or the class and message of its refusal."""
    try:
        return tuple(solve(*args))
    except TorusIsoError as exc:
        return type(exc).__name__, str(exc)


_WIDE_LOG_RADIUS = st.floats(min_value=math.log(1e-30), max_value=math.log(1e30))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    log_radii=st.tuples(_WIDE_LOG_RADIUS, _WIDE_LOG_RADIUS),
    which=st.integers(min_value=0, max_value=1),
    doubled_beta=st.booleans(),
)
def test_window_scan_keeps_every_result_and_refusal(n, log_radii, which, doubled_beta):
    # As above over radii 1e+-30, where many right-hand windows are skipped
    # and many solves run out of doublings: the scan returns the reference's
    # six fields, or raises its error class with its message.
    spec = TorusProductSpec(tuple(math.exp(x) for x in log_radii), n)
    r = spec.radii[which]
    try:
        circle = circle_piecewise(n + 1, r)
        slab = slab_piecewise(spec)
        target = 2.0 * beta(n, r) if doubled_beta else 0.0
    except DomainError:  # beta or the slab left the double range
        return
    assert _outcome(solve_piecewise_gap, circle, slab, target) == _outcome(
        solve_piecewise_gap_every_window, circle, slab, target
    )


def _gap_residual(c1, p1, c2, p2, target):
    return lambda x: (c1 * x**p1 - c2 * x**p2) - target


def _balance_residual(scale, coeff, p, target):
    return lambda x: (scale * (coeff * x**p) + x) - target


def assert_ulp_exact(result, residual):
    """The bracket is two adjacent doubles with a computed sign change, the root its better end."""
    lo, hi = result.bracket
    assert math.nextafter(lo, math.inf) == hi
    r_lo, r_hi = residual(lo), residual(hi)
    assert r_lo < 0.0 <= r_hi
    assert result.root == (lo if -r_lo < r_hi else hi)
    assert result.residual == residual(result.root)
    assert result.iterations <= roots.MAX_EVALUATIONS


_LOG_COEFF = st.floats(min_value=math.log(1e-3), max_value=math.log(1e3))
_LOG_TARGET = st.floats(min_value=math.log(1e-6), max_value=math.log(1e6))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    log_c=st.tuples(_LOG_COEFF, _LOG_COEFF),
    p1=st.floats(min_value=0.2, max_value=1.0),
    gap=st.floats(min_value=0.05, max_value=0.15),
    log_target=st.one_of(st.none(), _LOG_TARGET),
)
def test_power_gap_root_is_ulp_exact(log_c, p1, gap, log_target):
    # Exponent gaps of at least 0.05 keep every root of these coefficients
    # within 1e+-200.
    c1, c2 = (math.exp(x) for x in log_c)
    p2 = p1 - gap
    target = 0.0 if log_target is None else math.exp(log_target)
    result = solve_power_gap(c1, p1, c2, p2, target)
    assert_ulp_exact(result, _gap_residual(c1, p1, c2, p2, target))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    log_c=st.tuples(_LOG_COEFF, _LOG_COEFF),
    p=st.floats(min_value=0.5, max_value=1.0),
    log_target=_LOG_TARGET,
)
def test_balance_root_is_ulp_exact(log_c, p, log_target):
    scale, coeff = (math.exp(x) for x in log_c)
    target = math.exp(log_target)
    result = solve_balance(scale, coeff, p, target)
    assert_ulp_exact(result, _balance_residual(scale, coeff, p, target))


class TestUlpLoop:
    def test_tiny_root_is_measured_against_its_own_terms(self):
        # The root is 1e-120. A residual scale floored at 1.0 once accepted
        # 6.22e-61 here, after 200 evaluations.
        args = (1.0, 0.8, 1e-120**0.05, 0.75, 0.0)
        result = solve_power_gap(*args)
        assert rel(result.root, 1e-120) < 1e-12
        assert result.iterations < 30
        assert result.scale < 1e-90
        assert_ulp_exact(result, _gap_residual(*args))

    def test_newton_stall_runs_the_midpoint_safeguard(self, monkeypatch):
        # With p1 - p2 = 1e-4 the gap is flat near its root at 1, where its
        # computed residual is rounding noise for about 1e4 doubles: Newton
        # and secant steps stall there, and bit-pattern midpoints finish.
        midpoints = []

        def counted(bits):
            midpoints.append(bits)
            return pack(bits)

        pack = roots._pack_int64
        monkeypatch.setattr(roots, "_pack_int64", counted)
        args = (1.0, 0.75, 1.0, 0.7499, 0.0)
        result = solve_power_gap(*args)
        assert len(midpoints) >= 5
        assert result.iterations <= roots.MAX_EVALUATIONS
        assert rel(result.root, 1.0) < 1e-11
        assert_ulp_exact(result, _gap_residual(*args))

    def test_bracket_end_outside_the_normal_doubles_is_refused(self):
        # The root, near 1e-1200, lies far below the smallest normal double.
        with pytest.raises(DomainError, match="the bracket .* leaves the normal doubles"):
            solve_balance(1e300, 1e300, 0.75, 1e-300)

    def test_zero_of_the_gap_below_the_doubles_leaves_the_upper_end(self):
        # (c2/c1)^(1/(p1 - p2)) underflows to 0 here, but the root, where
        # c1 x^p1 alone about meets the target, is a normal double.
        args = (8.738523995264478, 6 / 7, 1.0212585495799893e-19, 0.8, 3.219999511144148e-36)
        result = solve_power_gap(*args)
        assert rel(result.root, (args[4] / args[0]) ** (7 / 6)) < 1e-9
        assert_ulp_exact(result, _gap_residual(*args))
