"""Numerical toolkit for the lowest Robin eigenvalue on triangles.

Closed-form equilateral data, transplanted trial-function bounds, a P1
finite-element reference solver, and parameter-plane scans with certificate
output.

The finite-element module, robintri.fem, is the only one that imports SciPy.
It loads on first use (PEP 562): the names of __all__ that this module does not
import, all of them fem's, and robintri.fem itself resolve through the module
__getattr__ below, and a FEM scan mode imports it when it runs.  So import
robintri, the closed forms, the certificates, the region scans, the
monotonicity scan, robintri equilateral and robintri verify --suite monotone
never load SciPy.

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
from .trial import (
    constant_bound,
    delta_transplant,
    lambda0_lower_bound,
    sector_bound,
    sector_closed_upper,
    sector_condition,
    shape_coefficient,
    small_coupling_functions,
    strictly_below,
    transplant_verdict,
)
from .scan import (
    MODES,
    ScanConfig,
    ScanResult,
    emit_csv,
    emit_svg,
    parse_config,
    run_scan,
    soundness_sweep,
)

__all__ = [
    "DomainError",
    "EigenResult",
    "EquilateralSolution",
    "FemMesh",
    "FemSystem",
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
    "mass_residual",
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


def __getattr__(name: str):
    """robintri.fem and its public names, imported on first use: a name in
    __all__ that is not a module global can only be one of fem's."""
    if name == "fem" or name in __all__:
        # import_module, not "from . import fem": that statement's hasattr
        # check on this package would call __getattr__ again
        fem = importlib.import_module(".fem", __name__)
        return fem if name == "fem" else getattr(fem, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "fem", *__all__})
