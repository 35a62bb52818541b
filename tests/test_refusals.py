"""Every positive-finite refusal names its parameter in one form.

Each entry point below checks its input with errors.positive_finite, so
zero, negative zero, a negative value, nan and both infinities are refused
with a DomainError that reads "<name> must be a positive finite real, got
<value>". The check converts nothing: a string is refused by the caller's
own float() (ValueError) or by the comparison with 0.0 (TypeError).

Two more refusals name their value in one form each: a gap target that is
not a nonnegative finite real, and a level volume past the largest double.
"""

import math

import pytest

from torusiso import (
    DomainError,
    PowerSegment,
    TorusProductSpec,
    band,
    beta,
    candidate_min_area,
    circle_piecewise,
    envelope_piecewise,
    euclidean_piecewise,
    slab_piecewise,
    solve_piecewise_gap,
)
from torusiso.mensuration import CandidateRegion, region_volume
from torusiso.roots import solve_balance, solve_power_gap

SPEC = TorusProductSpec((0.7, 1.9), 3)

BAD = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]

# Entry point -> (the parameter's name in the message, a call with bad value x).
ENTRY_POINTS = {
    "segment_at": ("volume", lambda x: envelope_piecewise(SPEC).segment_at(x)),
    "__call__": ("volume", lambda x: envelope_piecewise(SPEC)(x)),
    "values": ("volume", lambda x: envelope_piecewise(SPEC).values([1.0, x])),
    "beta": ("radius", lambda x: beta(2, x)),
    "PowerSegment": (
        "segment coefficient",
        lambda x: PowerSegment(x, 0.5, 0.0, math.inf, "ball"),
    ),
    "solve_value": ("area", lambda x: euclidean_piecewise(3).solve_value(x)),
    "solve_balance scale": ("scale", lambda x: solve_balance(x, 1.0, 0.5, 2.0)),
    "solve_balance coeff": ("coeff", lambda x: solve_balance(1.0, x, 0.5, 2.0)),
    "solve_balance p": ("p", lambda x: solve_balance(1.0, 1.0, x, 2.0)),
    "solve_balance target": ("target", lambda x: solve_balance(1.0, 1.0, 0.5, x)),
    "solve_power_gap c1": ("c1", lambda x: solve_power_gap(x, 1.0, 1.0, 0.5, 1.0)),
    "solve_power_gap c2": ("c2", lambda x: solve_power_gap(1.0, 1.0, x, 0.5, 1.0)),
    "candidate_min_area": ("volume", lambda x: candidate_min_area(SPEC, x)),
    "region_volume": ("ball radius", lambda x: region_volume(SPEC, CandidateRegion((0,), x))),
    "TorusProductSpec": ("circle radius", lambda x: TorusProductSpec((1.0, x), 2)),
    "band": ("grid volume", lambda x: band(SPEC, [1.0, x])),
}


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_refusal_names_the_parameter(entry, value):
    name, call = ENTRY_POINTS[entry]
    with pytest.raises(DomainError) as caught:
        call(value)
    assert str(caught.value) == f"{name} must be a positive finite real, got {value!r}"


# A string where a number belongs: the exception type each entry point raised
# before the check was shared, and still raises.
STRINGS = {
    "PowerSegment coefficient": (
        TypeError,
        lambda: PowerSegment("1.0", 0.5, 0.0, math.inf, "ball"),
    ),
    "solve_value area": (TypeError, lambda: euclidean_piecewise(3).solve_value("4.0")),
    "solve_balance scale": (TypeError, lambda: solve_balance("1.0", 1.0, 0.5, 2.0)),
    "region_volume ball radius": (
        TypeError,
        lambda: region_volume(SPEC, CandidateRegion((0,), "1.0")),
    ),
    "__call__ volume": (ValueError, lambda: envelope_piecewise(SPEC)("one")),
    "candidate_min_area volume": (ValueError, lambda: candidate_min_area(SPEC, "one")),
    "band volume": (ValueError, lambda: band(SPEC, ["one"])),
    "TorusProductSpec radius": (ValueError, lambda: TorusProductSpec(("one", 1.0), 2)),
}


@pytest.mark.parametrize("entry", STRINGS)
def test_string_is_refused_as_before(entry):
    expected, call = STRINGS[entry]
    with pytest.raises(Exception) as caught:
        call()
    # DomainError is a ValueError too: the type must be the plain one.
    assert type(caught.value) is expected


def test_float_callers_still_read_numeric_strings():
    profile = envelope_piecewise(SPEC)
    assert profile("2.5") == profile(2.5)
    assert candidate_min_area(SPEC, "2.5") == candidate_min_area(SPEC, 2.5)
    assert TorusProductSpec(("1.9", 0.7), 3) == SPEC


# Both gap solvers share one check of the target.
GAP_SOLVERS = {
    "solve_power_gap": lambda t: solve_power_gap(2.0, 0.9, 1.0, 0.5, t),
    "solve_piecewise_gap": lambda t: solve_piecewise_gap(
        circle_piecewise(4, 0.7), slab_piecewise(SPEC), t
    ),
}


@pytest.mark.parametrize("value", [-1.0, -math.inf, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("entry", GAP_SOLVERS)
def test_gap_target_refusal_names_the_target(entry, value):
    with pytest.raises(DomainError) as caught:
        GAP_SOLVERS[entry](value)
    assert str(caught.value) == f"target must be a nonnegative finite real, got {value!r}"


@pytest.mark.parametrize("entry", GAP_SOLVERS)
def test_gap_target_of_either_zero_is_solved(entry):
    assert GAP_SOLVERS[entry](-0.0) == GAP_SOLVERS[entry](0.0)


# A finite area whose volume is past the largest double: the power raises
# OverflowError, or the quotient area / coeff is already infinite.
LEVELS = {
    "circle_piecewise": lambda: circle_piecewise(3, 1.0).solve_value(1e300),
    "euclidean_piecewise": lambda: euclidean_piecewise(9).solve_value(1e300),
    "PowerSegment": lambda: PowerSegment(1e-10, 0.5, 0.0, math.inf, "ball").solve_value(1e300),
}


@pytest.mark.parametrize("entry", LEVELS)
def test_volume_past_the_largest_double_is_refused_by_name(entry):
    with pytest.raises(DomainError) as caught:
        LEVELS[entry]()
    assert str(caught.value) == (
        "the volume where the profile reaches area 1e+300 is past the largest double"
    )
