"""Critical-volume threshold pipelines for two- and three-circle products.

For a two-circle product T x R^n (2 <= n <= 5) the report certifies two
thresholds: below ``v_star`` the true isoperimetric profile equals the
smallest-circle product profile (balls, then round cylinders); above
``v_dstar`` it equals the slab profile. The constants in between:

  theta_star, sigma_star  volumes balancing a half-circumference times the
                          Euclidean ball area against the breakpoint volume
                          of the other circle factor,
  K_star                  the area floor forced on any region whose slice
                          volumes straddle both breakpoints; any such mixed
                          region has boundary area at least K_star,
  c_n                     volume where the circle-product profile reaches
                          K_star,
  v_s                     largest volume at which the circle-product
                          minimizers still embed in the torus product,
  v0_1, v0_2              crossing volumes of each circle-product profile
                          with the slab profile,
  a_n, b_n                volumes where each circle-product profile exceeds
                          the slab profile by twice the matching breakpoint
                          volume.

Then v_star = min(v_s, c_n, v0_1) and v_dstar = max(a_n, b_n).

The three-circle pipeline replays the same construction one dimension up,
bootstrapping from the two-circle reports at n and n+1; its thresholds are
``u_star`` and ``u_dstar``.

Each pipeline builds one CriticalReport as it solves: a ConstantRecord per
constant (value, defining relation, residual, active branch), with the two
two-circle reports nested as sub-reports of a three-circle one. The records
are the only store of the values; ``report.v_star`` reads
``report.constants["v_star"].value``, and so on for every constant,
``u_slab_crossing`` (the slab crossing that enters ``u_dstar``) included.
"""

from __future__ import annotations

import math
import struct
from types import MappingProxyType

from .errors import ConsistencyError, DomainError, GuardError
from .mensuration import TWO_PI, TorusProductSpec, unit_ball_volume
from .profiles import (
    PiecewiseProfile,
    _profile_cache,
    beta,
    circle_piecewise,
    euclidean_piecewise,
    slab_piecewise,
)
from .records import record
from .roots import solve_balance, solve_piecewise_gap


class ConstantRecord(record("ConstantRecord", "value equation residual regime", (None,))):
    """Provenance of one reported constant: defining relation and residual.

    ``value`` and ``residual`` are floats; ``regime`` names the active branch, or is None.
    """

    __slots__ = ()


class CriticalReport(record("CriticalReport", "spec kind constants sub_reports")):
    """Every constant of a threshold report, with its provenance.

    ``kind`` is "two-torus" or "three-torus"; ``constants`` maps names to
    ConstantRecords, and ``report.name`` is ``report.constants[name].value``;
    ``sub_reports`` maps keys to nested reports (by default none). Both are
    read-only views of copies of the given mappings, so a report can be
    shared: a caller's later edits of its own dicts never reach it, and an
    edit through the report raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, spec, kind, constants, sub_reports=None):
        constants = MappingProxyType(dict(constants))
        sub_reports = MappingProxyType(dict(sub_reports or {}))
        return tuple.__new__(cls, (spec, kind, constants, sub_reports))

    def __reduce__(self):
        # A read-only view cannot be pickled: copies and unpickled reports
        # are built through __new__ from plain dicts.
        spec, kind, constants, sub_reports = self
        return type(self), (spec, kind, dict(constants), dict(sub_reports))

    def __getattr__(self, name):
        try:
            return self.constants[name].value
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None

    @property
    def criticals(self):
        """The report itself, for readers of the deleted criticals bundle.

        Its only reader outside the tests is perfbench/workloads.py; ROADMAP
        item 6 deletes it.
        """
        return self


def _balance(equation: str, radius: float, ball: PiecewiseProfile, target: float):
    """Record of the root of pi * radius * ball(x) + x = target, for a one-segment ball law.

    For the positive finite x the solver passes, ``coeff * x**exponent`` is
    ball(x) bit for bit.
    """
    (segment,) = ball.segments
    found = solve_balance(math.pi * radius, segment.coeff, segment.exponent, target)
    return ConstantRecord(found.root, equation, found.residual)


def _gap(equation: str, upper, lower, target: float, named_by: PiecewiseProfile | None = None):
    """Record of the terminal root of upper - lower = target, in ``named_by``'s regime if given."""
    found = solve_piecewise_gap(upper, lower, target)
    regime = None if named_by is None else named_by.segment_at(found.root).regime
    return ConstantRecord(found.root, equation, found.residual, regime)


def _level(equation: str, profile: PiecewiseProfile, area: float):
    """Record of the volume where ``profile`` reaches ``area``, with the branch it lies on."""
    x = profile.solve_value(area)
    return ConstantRecord(x, equation, profile(x) - area, profile.segment_at(x).regime)


def _pi_r_power(r: float, m: int) -> float:
    """(pi r)^m, a factor of the embedding volumes; refused by name past the largest double."""
    try:
        return (math.pi * r) ** m
    except OverflowError:
        raise DomainError(f"(pi * {r!r})^{m} is past the largest double") from None


def _ordered(spec: TorusProductSpec, lo_name: str, lo: float, hi_name: str, hi: float) -> None:
    """Refuse lo > hi with a ConsistencyError: thresholds that meet in double precision pass."""
    if lo <= hi:
        return
    bits_lo, bits_hi = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    raise ConsistencyError(
        f"expected {lo_name} <= {hi_name}: {hi_name} = {hi!r} is {bits_lo - bits_hi} ulps below "
        f"{lo_name} = {lo!r} (n = {spec.euclid_dim}, r2/r1 = {spec.radii[1] / spec.radii[0]:.6g})"
    )


def _t2_report(spec: TorusProductSpec) -> CriticalReport:
    r1, r2 = spec.radii
    n = spec.euclid_dim
    beta_1 = beta(n, r1)
    beta_2 = beta(n, r2)

    # The shorter circumference is balanced against the larger factor's
    # breakpoint volume, and vice versa; for equal radii both coincide.
    ball = euclidean_piecewise(n + 1)
    theta = _balance("pi*r1 * ball_area(n+1, x) + x = beta(n, r2)", r1, ball, beta_2)
    sigma = _balance("pi*r2 * ball_area(n+1, x) + x = beta(n, r1)", r2, ball, beta_1)

    k_star = max(TWO_PI * r1 * ball(theta.value), TWO_PI * r2 * ball(sigma.value))

    v_s = min(
        TWO_PI * r1 * unit_ball_volume(n + 1) * _pi_r_power(r2, n + 1),
        unit_ball_volume(n + 2) * _pi_r_power(r1, n + 2),
    )

    circle_1 = circle_piecewise(n + 1, r1)
    circle_2 = circle_piecewise(n + 1, r2)
    slab = slab_piecewise(spec)

    c_n = _level("circle_area(n+1, r1, x) = K_star", circle_1, k_star)
    v0_1 = _gap("circle_area(n+1, r1, x) = slab_area(x)", circle_1, slab, 0.0, circle_1)
    v0_2 = _gap("circle_area(n+1, r2, x) = slab_area(x)", circle_2, slab, 0.0, circle_2)
    a_n = _gap(
        "circle_area(n+1, r1, x) - slab_area(x) = 2*beta(n, r1)",
        circle_1, slab, 2.0 * beta_1, circle_1,
    )
    b_n = _gap(
        "circle_area(n+1, r2, x) - slab_area(x) = 2*beta(n, r2)",
        circle_2, slab, 2.0 * beta_2, circle_2,
    )

    v_star = min(v_s, c_n.value, v0_1.value)
    v_dstar = max(a_n.value, b_n.value)
    # Only orderings can fail here: the roots are normal doubles, K_star
    # has passed solve_value's positive-finite check, and v_star < v_dstar
    # follows from the chain.
    _ordered(spec, "theta_star", theta.value, "beta(n, r2)", beta_2)
    _ordered(spec, "sigma_star", sigma.value, "beta(n, r1)", beta_1)
    if not v_star <= v0_1.value < v_dstar:
        raise ConsistencyError("expected v_star <= v0_1 < v_dstar")
    _ordered(spec, "v0_1", v0_1.value, "a_n", a_n.value)
    _ordered(spec, "v0_2", v0_2.value, "b_n", b_n.value)
    return CriticalReport(spec, "two-torus", {
        "theta_star": theta,
        "sigma_star": sigma,
        "K_star": ConstantRecord(
            k_star,
            "max(2*pi*r1 * ball_area(n+1, theta_star), 2*pi*r2 * ball_area(n+1, sigma_star))",
            0.0,
        ),
        "c_n": c_n,
        "v_s": ConstantRecord(
            v_s,
            "min(volume(circle r1 x ball(n+1, pi*r2)), volume(ball(n+2, pi*r1)))",
            0.0,
        ),
        "v0_1": v0_1,
        "v0_2": v0_2,
        "v_star": ConstantRecord(v_star, "min(v_s, c_n, v0_1)", 0.0),
        "a_n": a_n,
        "b_n": b_n,
        "v_dstar": ConstantRecord(
            v_dstar, "max(a_n, b_n)", 0.0, circle_1.segment_at(v_dstar).regime
        ),
    })


def _t3_report(spec: TorusProductSpec) -> CriticalReport:
    r1, r2, r3 = spec.radii
    n = spec.euclid_dim
    subs = {}
    for key, m in (("n", n), ("n_plus_1", n + 1)):
        try:
            subs[key] = _t2_report(TorusProductSpec((r1, r2), m))
        except ConsistencyError as exc:
            raise ConsistencyError(
                f"{exc}; in sub-report {key} of radii {spec.radii!r}, n = {n}"
            ) from None
    sub_n, sub_up = subs["n"], subs["n_plus_1"]

    w_star = min(sub_n.v_star, beta(n + 1, r1))
    eta = _balance(
        "pi*r3 * ball_area(n+2, x) + x = w_star", r3, euclidean_piecewise(n + 2), w_star
    )
    c_star = 2.0 * (w_star - eta.value)
    u0 = _level("circle_area(n+2, r1, x) = C_star", circle_piecewise(n + 2, r1), c_star)

    # Largest volume at which the one-circle minimizers embed: the ball
    # factor must fit within half the second circumference, radius pi * r2.
    realizable = TWO_PI * r1 * unit_ball_volume(n + 2) * _pi_r_power(r2, n + 2)

    slab_crossing = _gap(
        "two_circle_slab_area(n+1, x) - three_circle_slab_area(n, x) = 2*v_dstar(r1, r2; n)",
        slab_piecewise(TorusProductSpec((r1, r2), n + 1)),
        slab_piecewise(spec),
        2.0 * sub_n.v_dstar,
    )

    u_star = min(u0.value, sub_up.v_star, realizable)
    u_dstar = max(sub_up.v_dstar, slab_crossing.value)
    # w_star and u_star are minima led by a value that is not NaN, so they
    # lie at or below it; C_star has passed solve_value's check.
    if not u_star <= u_dstar:
        raise ConsistencyError("expected u_star <= u_dstar")
    return CriticalReport(spec, "three-torus", {
        "w_star": ConstantRecord(w_star, "min(v_star(r1, r2; n), beta(n+1, r1))", 0.0),
        "eta_star": eta,
        "C_star": ConstantRecord(c_star, "2*(w_star - eta_star)", 0.0),
        "u0": u0,
        "u_star": ConstantRecord(
            u_star,
            "min(u0, v_star(r1, r2; n+1), 2*pi*r1 * volume(ball(n+2, pi*r2)))",
            0.0,
        ),
        "u_slab_crossing": slab_crossing,
        "u_dstar": ConstantRecord(u_dstar, "max(v_dstar(r1, r2; n+1), u_slab_crossing)", 0.0),
    }, subs)


def full_report(spec: TorusProductSpec) -> CriticalReport:
    """Aggregate report for a two- or three-circle spec, with provenance.

    Each constant carries its defining relation, the solver residual at the
    reported value (0.0 for a constant evaluated from its formula), and the
    active profile branch where one is meaningful.

    The report is solved once per spec (see profiles._profile_cache), and
    every call returns that one report: it is read-only, sub-reports
    included, so no caller's edit can reach another.
    """
    return _report(spec)


@_profile_cache
def _report(spec: TorusProductSpec) -> CriticalReport:
    if spec.circle_count == 2:
        return _t2_report(spec)
    if spec.circle_count == 3:
        return _t3_report(spec)
    raise GuardError(
        f"critical reports are defined for 2 or 3 circle factors, got {spec.circle_count}"
    )
