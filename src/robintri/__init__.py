"""Numerical toolkit for the lowest Robin eigenvalue on triangles.

Closed-form equilateral data, transplanted trial-function bounds, a P1
finite-element reference solver, and parameter-plane scans with certificate
output.

import robintri loads the closed forms only: errors, geometry and
equilateral.  The certificates (robintri.trial), the scans (robintri.scan,
which imports trial) and the finite-element oracle (robintri.fem) load on
first use (PEP 562): each of their public names, and each module's own name,
is a key of the _LAZY map below, and the module __getattr__ imports the
module it names when the name is first read.  A FEM scan mode imports fem
when it runs, and robintri.cli imports scan.

fem is the only module that imports SciPy.  So import robintri, the closed
forms, the certificates, the region scans, the monotonicity scan, robintri
equilateral and robintri verify --suite monotone never load SciPy.

NumPy loads on first use as well.  Outside fem and the quadrature module
_quad, only the two quadratures of the certificates import it: u0's volume
norm (closed_form_norms, which the transplant certificate reads) and the side
norms of the corner exponential (sector_bound).  So import robintri, lambda0,
constant_bound, sector_condition, the g-curve, constant-region,
condition-region and monotonicity scans and robintri equilateral never load
NumPy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

from .errors import DomainError, NumericError, ResourceError
from .geometry import (
    TriangleGeometry,
    b0,
    c0,
    make_triangle,
    perimeter_min_over_a,
    perimeter_normalizer,
)
from .equilateral import (
    EquilateralSolution,
    HessianBounds,
    T0,
    closed_form_norms,
    coupling_elasticity,
    g_root,
    g_threshold,
    hessian_upper_bounds,
    lambda0,
    local_optimality_alpha_bound,
    solve_equilateral,
)

__all__ = [
    "DomainError",
    "EigenResult",
    "EquilateralSolution",
    "FemMesh",
    "HessianBounds",
    "MODES",
    "NumericError",
    "ResourceError",
    "ScanConfig",
    "ScanResult",
    "ShapeDerivatives",
    "T0",
    "TriangleGeometry",
    "assemble",
    "b0",
    "build_mesh",
    "c0",
    "closed_form_norms",
    "constant_bound",
    "coupling_elasticity",
    "delta_transplant",
    "dump_mesh",
    "eigenvalue_converged",
    "emit_csv",
    "emit_svg",
    "g_root",
    "g_threshold",
    "hessian_upper_bounds",
    "lambda0",
    "lambda0_lower_bound",
    "local_optimality_alpha_bound",
    "make_triangle",
    "parse_config",
    "perimeter_min_over_a",
    "perimeter_normalizer",
    "run_scan",
    "sector_bound",
    "sector_closed_upper",
    "sector_condition",
    "shape_coefficient",
    "shape_derivatives",
    "small_coupling_functions",
    "solve_at_level",
    "solve_equilateral",
    "soundness_sweep",
    "strictly_below",
    "transplant_verdict",
    "__version__",
]


#: each public name that loads on first use -> the module that defines it, and
#: each of those modules' own name -> itself
_LAZY = {
    **dict.fromkeys((
        "trial", "constant_bound", "delta_transplant", "lambda0_lower_bound",
        "sector_bound", "sector_closed_upper", "sector_condition", "shape_coefficient",
        "small_coupling_functions", "strictly_below", "transplant_verdict",
    ), "trial"),
    **dict.fromkeys((
        "scan", "MODES", "ScanConfig", "ScanResult", "emit_csv", "emit_svg",
        "parse_config", "run_scan", "soundness_sweep",
    ), "scan"),
    **dict.fromkeys((
        "fem", "EigenResult", "FemMesh", "ShapeDerivatives", "assemble", "build_mesh",
        "dump_mesh", "eigenvalue_converged", "shape_derivatives", "solve_at_level",
    ), "fem"),
}


def __getattr__(name: str):
    """A name of _LAZY, resolved by importing its module on first use."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not a "from . import" statement: its hasattr check on this
    # package would call __getattr__ again
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__all__})
