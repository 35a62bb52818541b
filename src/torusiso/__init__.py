"""Isoperimetric profiles of flat-torus x Euclidean products.

Closed-form candidate profiles, certified critical-volume thresholds and
rigorous bound bands for S^1_{r1} x ... x S^1_{rk} x R^n, k <= 3.
"""

from .bounds import (
    BandRow,
    BoundBand,
    TabulatedCurve,
    band,
    chord_bound,
    cylinder_offset_bound,
    read_curve,
    tangent_bound,
)
from .criticals import (
    ConstantRecord,
    CriticalReport,
    T2Criticals,
    T3Criticals,
    full_report,
    sphere_cylinder_crossing,
    three_torus_criticals,
    two_torus_criticals,
)
from .errors import (
    ConsistencyError,
    ConvergenceError,
    CurveParseError,
    DomainError,
    GuardError,
    SpecFileError,
    TorusIsoError,
)
from .mensuration import (
    CandidateRegion,
    TorusProductSpec,
    candidate_regime,
    region_boundary_area,
    region_volume,
    unit_ball_volume,
    unit_sphere_area,
)
from .oracle import (
    CheckResult,
    ScanReport,
    bisect_verify,
    candidate_min_area,
    crossing_scan,
    verify_report,
    verify_spec,
)
from .profiles import (
    PiecewiseProfile,
    PowerSegment,
    ProfileValue,
    alpha,
    beta,
    circle_piecewise,
    envelope_piecewise,
    euclidean_piecewise,
    euclidean_profile,
    minimum_envelope,
    scp_piecewise,
    slab_piecewise,
)
from .roots import (
    RootResult,
    solve_increasing,
    solve_piecewise_gap,
    solve_power_gap,
)

__version__ = "0.1.0"
