"""The record contract every input and result class keeps.

Each record is immutable, equal only to a record of its own class with equal
fields (with equal hashes), and checks its fields on construction and on
every changed copy, with the same error class and message either way.
"""

import copy
import math
import pickle
from types import MappingProxyType

import pytest

import torusiso
from torusiso import (
    BandRow,
    BoundBand,
    CheckResult,
    ConsistencyError,
    ConstantRecord,
    CriticalReport,
    DomainError,
    GuardError,
    PiecewiseProfile,
    PowerSegment,
    RootResult,
    TabulatedCurve,
    TorusProductSpec,
    full_report,
)
from torusiso.mensuration import CandidateRegion

BALL = PowerSegment(2.0, 0.5, 0.0, math.inf, "ball")
# Continuous at v = 4: 2 * 4**0.5 == 2**1.5 * 4**0.25.
TWO_SEGMENTS = (
    PowerSegment(2.0, 0.5, 0.0, 4.0, "ball"),
    PowerSegment(2.0**1.5, 0.25, 4.0, math.inf, "cylinder"),
)

# class -> (fields, a valid change, an invalid change or None, the error it
# raises, values derived from the fields that a changed copy must rebuild)
CASES = {
    TorusProductSpec: (
        {"radii": (2.0, 1.0), "euclid_dim": 3},
        {"radii": (3, 0.5)},
        {"euclid_dim": 6},
        (GuardError, "a 2-circle spec requires 2 <= euclid_dim <= 5, got 6"),
        None,
    ),
    CandidateRegion: (
        {"circle_indices": (0,), "ball_radius": 1.5}, {"ball_radius": 2.0}, None, None, None
    ),
    PowerSegment: (
        {"coeff": 2.0, "exponent": 0.5, "v_lo": 0.0, "v_hi": math.inf, "regime": "ball"},
        {"v_lo": 1.0},
        {"exponent": 1.5},
        (DomainError, "segment exponent must be in (0, 1], got 1.5"),
        None,
    ),
    PiecewiseProfile: (
        {"segments": (BALL,)},
        {"segments": TWO_SEGMENTS},
        {"segments": ()},
        (DomainError, "a piecewise profile needs at least one segment"),
        lambda profile: (profile.breakpoints(), profile(9.0)),
    ),
    RootResult: (
        {"root": 1.0, "residual": 0.0, "iterations": 3, "bracket": (0.5, 2.0), "scale": 1.0},
        {"root": 1.5},
        {"root": 3.0},
        (ConsistencyError, "root 3.0 escaped its bracket [0.5, 2.0]"),
        None,
    ),
    ConstantRecord: (
        {"value": 1.0, "equation": "x = 1", "residual": 0.0}, {"regime": "ball"}, None, None, None
    ),
    CriticalReport: (
        {
            "spec": TorusProductSpec((1.0, 2.0), 3),
            "kind": "two-torus",
            "constants": {"v_star": ConstantRecord(8.0, "min(v_s, c_n, v0_1)", 0.0)},
        },
        {"kind": "three-torus"},
        None,
        None,
        None,
    ),
    CheckResult: ({"name": "constant:v_star", "ok": True}, {"ok": False}, None, None, None),
    TabulatedCurve: (
        {"points": ((1.0, 2.0), (2.0, 3.0)), "label": "c"},
        {"points": [(1, 2), (3, 4), (5, 6)]},
        {"points": ((2.0, 1.0), (1.0, 1.0))},
        (DomainError, "point 1: volumes must be strictly increasing"),
        lambda curve: (curve.points, curve.volumes, curve.areas),
    ),
    BandRow: (
        {"v": 1.0, "upper": 2.0, "lower": 1.5, "upper_regime": "ball", "lower_source": "chord"},
        {"lower": 2.0},
        None,
        None,
        None,
    ),
    BoundBand: (
        {
            "v": (1.0, 2.0),
            "upper": (2.0, 3.0),
            "lower": (1.0, 3.0),
            "upper_regime": ("ball", "ball"),
            "lower_source": ("chord", "exact"),
        },
        {"lower": (2.0, 3.0)},
        {"lower": (1.0, 4.0)},
        (DomainError, "invalid band row at v=2.0: lower 4.0 > upper 3.0"),
        lambda band: band.rows,
    ),
}


def replace(record, **changes):
    """A changed copy through the record's validating ``_replace``.

    A frozen dataclass has the same contract through ``dataclasses.replace``,
    so the tests also run against such an implementation.
    """
    if hasattr(record, "_replace"):
        return record._replace(**changes)
    import dataclasses

    return dataclasses.replace(record, **changes)


cases = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
checked_cases = pytest.mark.parametrize(
    "cls", [cls for cls, case in CASES.items() if case[2]], ids=lambda cls: cls.__name__
)


def test_every_record_class_is_covered():
    records = {
        getattr(torusiso, name)
        for name in torusiso.__all__
        if isinstance(getattr(torusiso, name), type)
        and not issubclass(getattr(torusiso, name), Exception)
    }
    assert records | {CandidateRegion} == set(CASES)


@checked_cases
def test_invalid_fields_raise_on_construction_and_on_replace(cls):
    fields, _, bad, error, _ = CASES[cls]
    kind, message = error
    with pytest.raises(kind) as built:
        cls(**{**fields, **bad})
    with pytest.raises(kind) as replaced:
        replace(cls(**fields), **bad)
    assert str(built.value) == str(replaced.value) == message


@cases
def test_replace_builds_a_checked_copy(cls):
    fields, change, _, _, derived = CASES[cls]
    record = cls(**fields)
    before = derived(record) if derived else None  # cached values must not carry over
    copy = replace(record, **change)
    expected = cls(**{**fields, **change})
    assert copy == expected and type(copy) is cls
    assert record == cls(**fields)
    if derived:
        assert derived(copy) == derived(expected) != before


@cases
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields = CASES[cls][0]
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**fields)


@cases
def test_equal_fields_give_equal_records(cls):
    fields = CASES[cls][0]
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    if cls is not CriticalReport:  # holds dicts, so it has no hash
        assert hash(a) == hash(b)
    values = tuple(getattr(a, name) for name in fields)
    assert a != values and values != a
    assert a != replace(a, **CASES[cls][1])


def test_profile_equality_ignores_candidates():
    plain = PiecewiseProfile(TWO_SEGMENTS)
    envelope = PiecewiseProfile(TWO_SEGMENTS, (plain, PiecewiseProfile((BALL,))))
    assert envelope == plain and hash(envelope) == hash(plain)
    assert envelope.candidates and not plain.candidates


def test_reports_built_without_sub_reports_do_not_share_a_dict():
    fields = CASES[CriticalReport][0]
    a, b = CriticalReport(**fields), CriticalReport(**fields)
    assert a.sub_reports == {} and a.sub_reports is not b.sub_reports


def test_reports_do_not_alias_the_dicts_they_are_built_from():
    fields = CASES[CriticalReport][0]
    sub = CriticalReport(**fields)
    constants, subs = dict(fields["constants"]), {"n": sub}
    built = CriticalReport(fields["spec"], "three-torus", constants, subs)
    replaced = sub._replace(constants=constants, sub_reports=subs)
    constants.clear()
    subs.clear()
    for report in (built, replaced):
        assert report.constants == fields["constants"] and report.sub_reports == {"n": sub}
        with pytest.raises(TypeError):
            report.constants["v_star"] = None
        with pytest.raises(TypeError):
            report.sub_reports["n"] = None


def _read_only(report):
    """Whether ``report`` and its sub-reports hold only read-only mappings."""
    return (
        isinstance(report.constants, MappingProxyType)
        and isinstance(report.sub_reports, MappingProxyType)
        and all(map(_read_only, report.sub_reports.values()))
    )


@pytest.mark.parametrize(
    "spec", [TorusProductSpec((0.7, 1.9), 3), TorusProductSpec((1.0, 1.0, 1.0), 2)], ids=["k2", "k3"]
)
def test_report_values_read_off_their_records(spec):
    report = full_report(spec)
    for r in (report, *report.sub_reports.values()):
        assert r.constants
        for name, record in r.constants.items():
            assert getattr(r, name) is record.value, name
    for name in ("v_dstar_typo", "value", "_fields_", "__deepcopy__"):
        with pytest.raises(AttributeError, match=name):
            getattr(report, name)
    assert not hasattr(report, "u_star" if report.kind == "two-torus" else "v_star")
    assert _read_only(report)
    for again in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert again == report and type(again) is CriticalReport
        assert _read_only(again)
    assert report.criticals is report
