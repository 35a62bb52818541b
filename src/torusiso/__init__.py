"""Isoperimetric profiles of flat-torus x Euclidean products.

Closed-form candidate profiles, certified critical-volume thresholds and
rigorous bound bands for S^1_{r1} x ... x S^1_{rk} x R^n, k <= 3.

Each public name is resolved from its module on first use, so ``import
torusiso`` loads no submodule and a CLI command loads only what it runs.
"""

import sys
from importlib import import_module

# Public name -> the submodule that defines it.
_EXPORTS = {
    "BandRow": "bounds",
    "BoundBand": "bounds",
    "TabulatedCurve": "bounds",
    "band": "bounds",
    "read_curve": "bounds",
    "ConstantRecord": "criticals",
    "CriticalReport": "criticals",
    "full_report": "criticals",
    "ConsistencyError": "errors",
    "CurveParseError": "errors",
    "DomainError": "errors",
    "GuardError": "errors",
    "SpecFileError": "errors",
    "TorusIsoError": "errors",
    "TorusProductSpec": "mensuration",
    "unit_ball_volume": "mensuration",
    "unit_sphere_area": "mensuration",
    "CheckResult": "oracle",
    "candidate_min_area": "oracle",
    "verify_report": "oracle",
    "verify_spec": "oracle",
    "PiecewiseProfile": "profiles",
    "PowerSegment": "profiles",
    "beta": "profiles",
    "circle_piecewise": "profiles",
    "envelope_piecewise": "profiles",
    "euclidean_piecewise": "profiles",
    "minimum_envelope": "profiles",
    "slab_piecewise": "profiles",
    "RootResult": "roots",
    "solve_balance": "roots",
    "solve_piecewise_gap": "roots",
    "solve_power_gap": "roots",
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    # Resolved on every access and never cached in this namespace, so a patch
    # of the defining module is also seen through the package root. A loaded
    # module is taken from sys.modules; a missing one, or one still running
    # its own imports, goes through import_module, which waits for it.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{_EXPORTS[name]}"
    module = sys.modules.get(qualified)
    if module is None or getattr(module.__spec__, "_initializing", False):
        module = import_module(qualified)
    return getattr(module, name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
