"""Grid scans and verification suites over the triangle family.

Batch layer on top of the closed-form, trial-function, and finite-element
modules: it evaluates one predicate per grid cell (certificate sign, bound
value, or eigenvalue comparison), isolates per-cell failures, and serialises
the outcome as deterministic CSV plus an optional two-colour SVG heatmap.

Modes
-----
g-curve             sign profile of the threshold function g along t
transplant-region   delta(alpha, a) certificate of the transplanted field
constant-region     constant trial function: alpha*perimeter/area vs lambda0
condition-region    closed sufficient condition for the corner trial field
sector-region       Rayleigh quotient of the corner exponential vs lambda0
fem-conjecture      FEM level values (conforming upper bounds) vs lambda0 on an (a, c) grid
local-optimality    exact discrete gradient/Hessian report at the equilateral point
perimeter-variant   fixed-perimeter chain: FEM level values of the rescaled triangle vs its lambda0
monotonicity        sign of the closed area derivative of lambda0, at S/2, S and 2S

Every cell row carries the numeric evidence its verdict was derived from, a
verdict flag, and a status tag ("ok", "undecided", "unconverged", "unresolved",
"no-claim", "domain-error", "numeric-error").  The two FEM comparison modes
decide by a level value strictly below the target, else read "undecided".
Headers echo only the config fields the mode reads and the package version,
so identical configs give byte-identical files.

run_scan and soundness_sweep, one entry per kind of grid (ScanConfig ranges,
listed (alpha, a) values), both run through one sweep core, _sweep, the only
place that builds a ScanResult.  Each entry point checks its global inputs
(ranges, couplings, grid values, area, tolerance, cell count) by the rules of
errors.py before any cell runs, and _sweep owns the axis rules (none empty, no
value repeated).  _sweep runs every cell through one isolation boundary,
_isolated: a robintri error becomes a typed failure row, and any other
exception propagates.

SciPy loads with robintri.fem, which this module imports only inside its FEM
evaluators (_cell_fem, _cell_perimeter, _cell_local and the soundness oracle
_raw_upper_bound), so g-curve, the four region modes and monotonicity never
load it.  This module imports no NumPy
either: _grid builds each axis in plain floats, so a mode loads NumPy only
through the certificates it calls (transplant-region and sector-region).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields
from functools import lru_cache, partial

from .equilateral import (
    _area_derivative,
    _lambda0_drop,
    g_threshold,
    hessian_upper_bounds,
    lambda0,
    local_optimality_alpha_bound,
    solve_equilateral,
)
from .errors import (DomainError, NumericError, ResourceError, check_area, check_coupling,
                     check_finite, check_length, check_rel_tol, check_unit_interval)
from .geometry import c0, make_triangle, perimeter_normalizer
from .trial import (
    constant_bound,
    lambda0_lower_bound,
    sector_bound,
    sector_closed_upper,
    sector_condition,
    strictly_below,
    transplant_verdict,
)

_MODE_COLUMNS = {
    "g-curve": ("t", "g_value", "verdict", "status"),
    "transplant-region": ("alpha", "a", "delta", "verdict", "status"),
    "constant-region": ("alpha", "a", "bound", "lambda0", "verdict", "status"),
    "condition-region": ("alpha", "a", "closed_upper", "lower_bound", "verdict", "status"),
    "sector-region": ("alpha", "a", "rayleigh", "closed_upper", "lambda0", "verdict", "status"),
    "fem-conjecture": ("alpha", "a", "c", "lambda_fem", "fem_error", "lambda0",
                       "margin", "verdict", "status"),
    "local-optimality": ("alpha", "grad_a", "grad_c", "hess_aa", "hess_cc", "hess_ac",
                         "bound_aa", "bound_cc", "C", "claimed", "verdict", "status"),
    "perimeter-variant": ("a", "c", "gamma", "lambda_fem", "fem_error", "lambda0_scaled",
                          "lambda0", "margin_link1", "margin_link2", "margin",
                          "verdict", "status"),
    "monotonicity": ("alpha", "lambda0_half", "lambda0_base", "lambda0_twice", "dlambda0_dS",
                     "verdict", "status"),
    # reached only through soundness_sweep, which takes no ScanConfig
    "soundness": ("alpha", "a", "delta", "constant_ok", "condition_ok", "certified",
                  "lambda_fem", "fem_error", "lambda0", "sound", "verdict", "status"),
}

MODES = tuple(m for m in _MODE_COLUMNS if m != "soundness")

# per mode: every config field it reads, with the _check_range keywords of a
# range field (None for a scalar; the rule holds at both endpoints).  Any other
# field must keep its default, and the CSV header records exactly these fields.
# mode, output_path and emit_svg are read by run_scan for every mode.
_NEG_OR_ONE = {"rule": check_coupling, "collapsed_ok": True}
_AC_GRID = {"a_range": {}, "c_range": {"rule": check_length}, "S": None, "fem_rel_tol": None}
_REGION = {"alpha_range": {"rule": check_coupling}, "a_range": {}, "c_fixed": None, "S": None}
_MODE_FIELDS = {
    "g-curve": {"a_range": {"rule": check_unit_interval}},  # g_threshold's t rule
    **dict.fromkeys(("transplant-region", "constant-region", "condition-region"), _REGION),
    "sector-region": {**_REGION, "anchor_left": None},
    "fem-conjecture": {"alpha_range": _NEG_OR_ONE, **_AC_GRID},
    "local-optimality": {"alpha_range": _NEG_OR_ONE, "S": None},
    "perimeter-variant": {"alpha_range": {"rule": check_coupling, "single": True}, **_AC_GRID},
    "monotonicity": {"alpha_range": _NEG_OR_ONE, "S": None},
}
_READ_BY_EVERY_MODE = ("mode", "output_path", "emit_svg")

# far above the largest grid in use (the 60 x 60 default); a larger product
# of point counts is refused before _grid builds an axis
_MAX_CELLS = 10**7
# the soundness oracle's ladder tolerance, recorded as fem_rel_tol in its provenance
_SOUND_REL_TOL = 1e-3

_SQRT3 = math.sqrt(3.0)
_NAN = float("nan")


def _check_range(name: str, rng, *, rule=None, collapsed_ok=False, single=False) -> None:
    try:
        lo, hi, n = rng
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a (lo, hi, n) triple, got {rng!r}")
    if not (isinstance(n, numbers.Integral)  # float(n) overflows past float64
            or isinstance(n, numbers.Real) and float(n).is_integer()):
        raise DomainError(f"{name}: the point count n must be a whole number, got {rng!r}")
    n = int(n)
    if single and n != 1:
        raise DomainError(f"{name}: this mode uses a single value (collapsed range), got {rng!r}")
    check_finite(f"{name}: endpoints", lo, hi)
    if n >= 2:
        if not lo < hi:
            raise DomainError(f"{name}: need lo < hi for n >= 2, got {rng!r}")
    elif n == 1 and (collapsed_ok or single):
        if lo != hi:
            raise DomainError(f"{name}: collapsed range needs lo == hi, got {rng!r}")
    else:
        raise DomainError(f"{name}: need n >= 2 (or a collapsed single value), got {rng!r}")
    if rule is not None:
        rule(name, lo, hi)


def _count_text(n: int) -> str:
    """'%g' % n for an integer n >= 0 in integer arithmetic (float(n) overflows)."""
    if n < 10**6:
        return str(n)
    digits = str(round(n, 6 - len(str(n))))  # six significant digits, half to even
    return f"{digits[0]}.{digits[1:6]}".rstrip("0").rstrip(".") + f"e+{len(digits) - 1:02d}"


def _check_cells(mode: str, counts: list[int]) -> None:
    """ResourceError when a grid of these point counts has more than _MAX_CELLS cells."""
    if math.prod(counts) > _MAX_CELLS:
        raise ResourceError(f"the {mode} grid of {' x '.join(map(_count_text, counts))}"
                            f" points exceeds the cap of {_MAX_CELLS} cells")


def _grid(rng) -> tuple[float, ...]:
    """The n points of np.linspace(lo, hi, n), bit for bit, in plain floats:
    i*step + lo with the last point set to hi, (i/(n - 1))*(hi - lo) + lo
    where step underflows to 0, and 0*(hi - lo) + lo for n = 1 (which is not
    lo when lo is -0.0)."""
    lo, hi, n = rng
    lo, hi, n = float(lo), float(hi), int(n)
    delta = hi - lo
    div = max(n - 1, 1)
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    if n > 1:
        points[-1] = hi
    return tuple(points)


@dataclass(frozen=True)
class ScanConfig:
    """Declarative description of one scan run.

    alpha_range / a_range / c_range are (lo, hi, n) triples; axes a mode does
    not grid over may be collapsed to a single value (n = 1, lo == hi).  For
    g-curve the a_range supplies the t axis and must lie inside (0, 1).  Left
    unset, a_range resolves per mode: the t axis (0.05, 0.995, 95), which
    spans the sign change of g, for g-curve, and (0, 5, 60) for every other
    mode that reads it.  c_fixed defaults to the equilateral half-base c0(S)
    when left unset.  A field the mode does not read (see _MODE_FIELDS) must
    keep its default.  emit_svg writes to svg_path, which may not be
    output_path itself.  A grid of more than _MAX_CELLS cells, the product
    of the point counts of the ranges the mode reads, raises ResourceError.
    """

    mode: str
    alpha_range: tuple[float, float, int] = (-10.0, -0.01, 60)
    a_range: tuple[float, float, int] | None = None
    c_fixed: float | None = None
    c_range: tuple[float, float, int] | None = None
    S: float = 1.0 / _SQRT3
    fem_rel_tol: float = 1e-6
    output_path: str = "scan.csv"
    emit_svg: bool = False
    anchor_left: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}; choose one of {', '.join(MODES)}")
        reads = _MODE_FIELDS[self.mode]
        for f in fields(self):
            if (f.name not in reads and f.name not in _READ_BY_EVERY_MODE
                    and getattr(self, f.name) != f.default):
                raise DomainError(f"mode {self.mode} does not read {f.name}; leave it unset")
        if "S" in reads:
            check_area(self.S)
        if "fem_rel_tol" in reads:
            check_rel_tol("fem_rel_tol", self.fem_rel_tol)
        if "c_fixed" in reads:
            check_length("c_fixed", self.resolved_c())
        if not self.output_path:
            raise DomainError("output_path must be non-empty")
        if self.emit_svg and self.svg_path == self.output_path:
            raise DomainError(f"the SVG heatmap would overwrite the CSV at {self.output_path}; "
                              "give output_path an extension other than .svg")
        if self.a_range is None and "a_range" in reads:
            default = (0.05, 0.995, 95) if self.mode == "g-curve" else (0.0, 5.0, 60)
            object.__setattr__(self, "a_range", default)
        ranges = [name for name, rule in reads.items() if rule is not None]
        for name in ranges:
            _check_range(name, getattr(self, name), **reads[name])
        _check_cells(self.mode, [int(getattr(self, name)[2]) for name in ranges])

    def resolved_c(self) -> float:
        return self.c_fixed if self.c_fixed is not None else c0(self.S)

    @property
    def svg_path(self) -> str:
        """output_path with its extension replaced by .svg."""
        return os.path.splitext(self.output_path)[0] + ".svg"


@dataclass(frozen=True)
class ScanResult:
    """In-memory scan outcome: tabular payload plus axes and provenance.

    verdict_grid is derived from the rows: row-major over (second axis, first
    axis); scans with a third (alpha) axis reduce it by logical AND, which the
    provenance notes.
    """

    mode: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    axes: dict[str, tuple[float, ...]]
    provenance: dict[str, str]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise DomainError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )

    @property
    def verdict_grid(self) -> tuple[tuple[int, ...], ...]:
        """Row verdicts for one axis, else their AND over the first two axes (0 if no row)."""
        vi = self.columns.index("verdict")
        names = list(self.axes)
        if len(names) == 1:
            return (tuple(int(r[vi]) for r in self.rows),)
        xs, ys = self.axes[names[0]], self.axes[names[1]]
        xi, yi = self.columns.index(names[0]), self.columns.index(names[1])
        xpos = {v: i for i, v in enumerate(xs)}
        ypos = {v: i for i, v in enumerate(ys)}
        cells: dict[tuple[int, int], int] = {}
        for row in self.rows:
            key = (ypos[row[yi]], xpos[row[xi]])
            cells[key] = min(cells.get(key, 1), int(row[vi]))
        return tuple(tuple(cells.get((iy, ix), 0) for ix in range(len(xs)))
                     for iy in range(len(ys)))


# ---------------------------------------------------------------------------
# the isolation boundary and the per-cell evaluators, which only compute their
# row (top-level, so that bench/layers.py can wrap them by name)

_CELL_ERRORS = (DomainError, NumericError, ResourceError)
_FLAGS = frozenset(("verdict", "constant_ok", "condition_ok", "certified", "sound", "claimed"))


def _failure_row(mode: str, task, exc: Exception) -> tuple:
    """The task's values, then 0 in flag columns and NaN elsewhere, then the status."""
    lead = task if isinstance(task, tuple) else (task,)
    rest = _MODE_COLUMNS[mode][len(lead):-1]
    status = "domain-error" if isinstance(exc, DomainError) else "numeric-error"
    return (*lead, *(0 if name in _FLAGS else _NAN for name in rest), status)


def _isolated(mode: str, fn, task) -> tuple:
    """fn(task), or its failure row if fn raises a robintri error; others propagate."""
    try:
        return fn(task)
    except _CELL_ERRORS as exc:
        return _failure_row(mode, task, exc)


def _cell_g(t: float) -> tuple:
    g = g_threshold(t)
    return (t, g, int(g < 0.0), "ok")


def _cell_transplant(task, *, shape, S: float) -> tuple:
    alpha, a = task
    delta, ok = transplant_verdict(alpha, shape(a))
    return (alpha, a, delta, int(ok), "ok")


def _cell_constant(task, *, shape, S: float) -> tuple:
    alpha, a = task
    bound, ok = constant_bound(alpha, shape(a))
    return (alpha, a, bound, lambda0(alpha, S), int(ok), "ok")


def _cell_condition(task, *, shape, S: float) -> tuple:
    alpha, a = task
    tri = shape(a)
    closed = sector_closed_upper(alpha, tri.theta_star, tri.L_prime)
    lower = lambda0_lower_bound(alpha, S)
    try:
        ok, status = sector_condition(alpha, tri, bounds=(closed, lower)), "ok"
    except DomainError:  # vacuous at the equilateral corner of the grid
        ok, status = False, "domain-error"
    return (alpha, a, closed, lower, int(ok), status)


def _cell_sector(task, *, shape, S: float, anchor_left: bool) -> tuple:
    alpha, a = task
    tri = shape(a)
    ray, closed = sector_bound(alpha, tri, anchor_vertex=0 if anchor_left else None)
    lam0 = lambda0(alpha, S)
    return (alpha, a, ray, closed, lam0, int(strictly_below(ray, lam0)), "ok")


def _cell_fem(task, *, S: float, rel_tol: float) -> tuple:
    from .fem import eigenvalue_converged

    alpha, a, c = task
    res = eigenvalue_converged(make_triangle(a, c, S), alpha, rel_tol=rel_tol)
    lam0 = lambda0(alpha, S)
    # each history value is a checked conforming upper bound: one below lam0 proves the cell
    ok = any(strictly_below(v, lam0) for v in res.history)
    return (alpha, a, c, res.lambda1, res.residual, lam0, res.lambda1 - lam0, int(ok),
            "ok" if ok else "undecided")


def _cell_perimeter(task, *, alpha: float, S: float, rel_tol: float) -> tuple:
    from .fem import eigenvalue_converged

    a, c = task
    tri = make_triangle(a, c, S)
    gamma = perimeter_normalizer(tri)
    scaled = make_triangle(gamma * a, gamma * c, gamma * gamma * S)
    res = eigenvalue_converged(scaled, alpha, rel_tol=rel_tol)
    sol_scaled, sol_ref = solve_equilateral(alpha, gamma * gamma * S), solve_equilateral(alpha, S)
    lam0_scaled, lam0_ref = sol_scaled.lambda0, sol_ref.lambda0
    # link 1 by a level value; link 2 holds as gamma <= 1 and lambda0 rises with S
    ok = any(strictly_below(v, lam0_scaled) for v in res.history)
    return (a, c, gamma, res.lambda1, res.residual, lam0_scaled, lam0_ref,
            res.lambda1 - lam0_scaled, _lambda0_drop(sol_scaled, sol_ref), res.lambda1 - lam0_ref,
            int(ok), "ok" if ok else "undecided")


def _cell_local(alpha: float, *, S: float) -> tuple:
    from .fem import shape_derivatives

    simple, _improved = local_optimality_alpha_bound(S)
    claimed = int(alpha >= simple)
    cc = c0(S)
    try:
        d = shape_derivatives(make_triangle(0.0, cc, S), alpha)
        hb = hessian_upper_bounds(alpha, S)
    except _CELL_ERRORS as exc:
        # claimed depends on (alpha, S) alone: a failed claimed row must still say so
        row = _failure_row("local-optimality", alpha, exc)
        return row[:9] + (claimed,) + row[10:]
    half_span = math.sqrt(0.25 * (d.hess_aa - d.hess_cc) ** 2 + d.hess_ac**2)
    eig_max = 0.5 * (d.hess_aa + d.hess_cc) + half_span
    C = -0.5 * eig_max
    lam = lambda0(alpha, S)
    tol_g = 1e-3 * abs(lam) / cc
    tol_h = 1e-3 * abs(lam) / cc**2
    flat = abs(d.grad_a) < tol_g and abs(d.grad_c) < tol_g and abs(d.hess_ac) < tol_h
    concave = d.hess_aa < 0.0 and d.hess_cc < 0.0 and C > 0.0
    bounded = d.hess_aa <= hb.bound_aa + tol_h and d.hess_cc <= hb.bound_cc + tol_h
    verdict = int(bool(claimed) and d.converged and flat and concave and bounded)
    status = "unconverged" if not d.converged else "ok" if claimed else "no-claim"
    return (alpha, d.grad_a, d.grad_c, d.hess_aa, d.hess_cc, d.hess_ac,
            hb.bound_aa, hb.bound_cc, C, claimed, verdict, status)


def _cell_monotone(alpha: float, *, S: float) -> tuple:
    sols = [solve_equilateral(alpha, s) for s in (0.5 * S, S, 2.0 * S)]
    # the derivative's sign from its factors, so it holds where the product underflows
    ok = all(sol.K > 0.0 and sol.t > 0.0 and math.isfinite(sol.log_one_minus_t)
             for sol in sols)
    return (alpha, *(sol.lambda0 for sol in sols), _area_derivative(sols[1]), int(ok), "ok")


def _provenance(cfg: ScanConfig) -> dict[str, str]:
    """Header entries for exactly the config fields the mode reads; c_fixed
    is recorded as the resolved c, a range as 'lo,hi,n'."""
    out = {}
    for name, rule in _MODE_FIELDS[cfg.mode].items():
        value = getattr(cfg, name)
        if name == "c_fixed":
            out["c"] = _format_cell(cfg.resolved_c())
        elif rule is not None:
            lo, hi, n = value
            out[name] = f"{_format_cell(lo)},{_format_cell(hi)},{int(n)}"
        elif isinstance(value, bool):
            out[name] = str(value).lower()
        else:
            out[name] = _format_cell(value)
    return out


def _sweep(mode: str, fn, tasks, axes: dict[str, tuple[float, ...]],
           provenance: dict[str, str]) -> ScanResult:
    """Evaluate fn on every task, in task order, and assemble the ScanResult.

    Each cell runs through _isolated.  An empty axis among the first two
    leaves no cell, and a value repeated on one would make two cells share one
    verdict-grid slot, so both are rejected before any cell runs.
    """
    from . import __version__

    names = list(axes)[:2]
    if not all(axes[name] for name in names):
        raise DomainError(f"empty ({', '.join(names)}) grid: "
                          + ", ".join(f"{name} values {axes[name]}" for name in names))
    for name in names:
        if len(set(axes[name])) != len(axes[name]):
            raise DomainError(f"axis {name} repeats a value: {axes[name]}")
    rows = tuple(_isolated(mode, fn, task) for task in tasks)
    prov = {"version": __version__, "mode": mode, **provenance}
    if len(axes) > 2:
        prov["verdict_grid_reduction"] = "and-over-" + "-".join(list(axes)[2:])
    return ScanResult(mode=mode, columns=_MODE_COLUMNS[mode], rows=rows, axes=axes,
                      provenance=prov)


def _plan(cfg: ScanConfig):
    """(cell function, tasks in row order, axes) for one validated config.
    Evaluators are looked up at call time, so wrappers on their names see every cell.

    The region modes' evaluators share one shape(a) = make_triangle(a, c, S),
    memoised without a size bound for this plan alone: each grid column's
    triangle is built once per scan, and a build that raises is not cached.
    The equilateral solve behind every row is memoised process-wide by
    solve_equilateral itself."""
    mode, S = cfg.mode, cfg.S
    if mode == "g-curve":
        ts = _grid(cfg.a_range)
        return _cell_g, ts, {"t": ts}
    alphas = _grid(cfg.alpha_range)
    if mode == "local-optimality":
        return partial(_cell_local, S=S), alphas, {"alpha": alphas}
    if mode == "monotonicity":
        return partial(_cell_monotone, S=S), alphas, {"alpha": alphas}
    avals = _grid(cfg.a_range)
    if mode in ("perimeter-variant", "fem-conjecture"):
        cvals = _grid(cfg.c_range)
        if mode == "perimeter-variant":
            fn = partial(_cell_perimeter, alpha=cfg.alpha_range[0], S=S, rel_tol=cfg.fem_rel_tol)
            return fn, [(a, c) for a in avals for c in cvals], {"a": avals, "c": cvals}
        tasks = [(al, a, c) for al in alphas for a in avals for c in cvals]
        axes = {"a": avals, "c": cvals}
        if len(alphas) > 1:
            axes["alpha"] = alphas
        return partial(_cell_fem, S=S, rel_tol=cfg.fem_rel_tol), tasks, axes
    shape = lru_cache(maxsize=None)(partial(make_triangle, c=cfg.resolved_c(), S=S))
    fn = {
        "transplant-region": partial(_cell_transplant, shape=shape, S=S),
        "constant-region": partial(_cell_constant, shape=shape, S=S),
        "condition-region": partial(_cell_condition, shape=shape, S=S),
        "sector-region": partial(_cell_sector, shape=shape, S=S, anchor_left=cfg.anchor_left),
    }[mode]
    return fn, [(al, a) for al in alphas for a in avals], {"a": avals, "alpha": alphas}


def run_scan(cfg: ScanConfig) -> ScanResult:
    """Evaluate one grid scan, write its CSV (and SVG on request), return it.

    A robintri error in a cell is recorded in its row's status and does not
    abort the scan; I/O failures and any other exception do.  Rows follow
    the deterministic nested loop over the axes.
    """
    result = _sweep(cfg.mode, *_plan(cfg), _provenance(cfg))
    emit_csv(result, cfg.output_path)
    if cfg.emit_svg:
        emit_svg(result, cfg.svg_path)
    return result


def soundness_sweep(alpha_values, a_values, c: float, S: float) -> ScanResult:
    """Cross-check every certificate against the FEM oracle on an (a, alpha) grid.

    For each cell the three trial-function certificates are evaluated; on the
    cells where at least one fires, the FEM upper bound must sit below the
    equilateral value by ten times its own error estimate, from a ladder that
    stops at _SOUND_REL_TOL = 1e-3 relative (_raw_upper_bound).  The verdict
    is 1 for uncertified and for certified-and-confirmed cells, else 0.  A
    settled verdict-0 cell whose bound is within ten error estimates of the
    equilateral value has status "unresolved"; with status "ok" it is a
    contradiction.  More than _MAX_CELLS cells raise ResourceError before any
    task is built.
    """
    alphas = tuple(float(x) for x in alpha_values)
    avals = tuple(float(x) for x in a_values)
    check_coupling("alpha values", *alphas)
    check_finite("a values", *avals)
    check_area(S)
    check_length("c", c)
    _check_cells("soundness", [len(alphas), len(avals)])
    fn = partial(_soundness_cell, c=c, S=S, rel_tol=_SOUND_REL_TOL)
    prov = {"c": _format_cell(c), "S": _format_cell(S),
            "fem_rel_tol": _format_cell(_SOUND_REL_TOL)}
    return _sweep("soundness", fn, [(al, a) for al in alphas for a in avals],
                  {"a": avals, "alpha": alphas}, prov)


def _raw_upper_bound(tri, alpha: float, rel_tol: float,
                     sound_target: float) -> tuple[float, float, bool]:
    """(lambda_h, correction_estimate, settled) from the raw mesh ladder, levels 3 to 9.

    lambda_h is the finest certified level's value itself — a conforming
    upper bound for the true eigenvalue regardless of extrapolation — and the
    estimate is fem._settle's last Richardson correction |extr - lambda_h|,
    the one-sided correction still expected below it.  Fewer than two
    certified levels raise _settle's NumericError.  The ladder stops once the
    estimate is at most rel_tol*|lambda_h|, or as soon as lambda_h +
    10*estimate <= sound_target: the true eigenvalue sits below the conforming
    value, so the comparison is already decided and further refinement can
    only reconfirm it.
    """
    from .fem import _settle, walk_levels

    def decided(vals, extrs):
        est = abs(extrs[-1] - vals[-1])
        return est <= rel_tol * abs(vals[-1]) or vals[-1] + 10.0 * est <= sound_target

    _, vals, extrs, settled = _settle(walk_levels(tri, alpha, 3, 9, []),
                                      lambda res: res.lambda1, decided)
    return vals[-1], abs(extrs[-1] - vals[-1]), settled


def _soundness_cell(task, *, c: float, S: float, rel_tol: float) -> tuple:
    alpha, a = task
    tri = make_triangle(a, c, S)
    delta, delta_ok = transplant_verdict(alpha, tri)
    _, const_ok = constant_bound(alpha, tri)
    try:
        cond_ok = sector_condition(alpha, tri)
    except DomainError:
        cond_ok = False
    certified = delta_ok or const_ok or cond_ok
    lam0 = lambda0(alpha, S)
    if not certified:
        return (alpha, a, delta, int(const_ok), int(cond_ok), 0,
                _NAN, _NAN, lam0, 1, 1, "ok")
    lam, err, settled = _raw_upper_bound(tri, alpha, rel_tol, sound_target=lam0)
    sound = lam <= lam0 - 10.0 * err
    if not settled:
        status = "unconverged"
    elif not sound and lam - 10.0 * err <= lam0:
        # lam0 lies inside the oracle's +-10 err band: no contradiction shown
        status = "unresolved"
    else:
        status = "ok"
    return (alpha, a, delta, int(const_ok), int(cond_ok), 1,
            lam, err, lam0, int(sound), int(sound), status)


# ---------------------------------------------------------------------------
# serialisation

def _format_cell(value) -> str:
    if type(value) is float:  # most cells: skip the isinstance checks below
        return "%.17g" % value
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):  # int, bool and NumPy's integers
        return str(int(value))
    return "%.17g" % float(value)


def emit_csv(result: ScanResult, path: str) -> None:
    """Write the scan table: '#'-prefixed provenance, header row, data rows.

    Floats are printed with 17 significant digits so re-parsing reproduces
    them bit-exactly; the bytes are a function of the config alone.  Every
    row goes through one template built from the columns: %d for a flag, %s
    for the status, %.17g otherwise, as _format_cell prints those cells.
    """
    lines = ["# robintri scan output"]
    lines.extend(f"# {key} = {result.provenance[key]}" for key in sorted(result.provenance))
    lines.append(",".join(result.columns))
    template = ",".join("%d" if name in _FLAGS else "%s" if name == "status" else "%.17g"
                        for name in result.columns)
    lines.extend(template % row for row in result.rows)
    _write_lines(path, lines)


def _write_lines(path: str, lines: list[str]) -> None:
    """Write ASCII lines through a temporary file, so path is never half-written."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


_SVG_OK = "#2d7f5e"
_SVG_BAD = "#b5443c"


def emit_svg(result: ScanResult, path: str) -> None:
    """Render the verdict grid as a two-colour SVG heatmap.

    Axis order follows the result's axes dict (first = horizontal).  The
    output is plain hand-assembled XML with fixed-precision coordinates, so a
    given result always serialises to identical bytes.
    """
    names = list(result.axes)
    xs = result.axes[names[0]]
    ys = result.axes[names[1]] if len(names) > 1 else (0.0,)
    ylabel = names[1] if len(names) > 1 else ""
    grid = result.verdict_grid
    width, height = 640, 480
    ml, mr, mt, mb = 80, 20, 36, 56
    pw, ph = width - ml - mr, height - mt - mb
    nx, ny = len(xs), len(ys)
    cw, ch = pw / nx, ph / ny
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="20" font-family="monospace" font-size="14" '
        f'text-anchor="middle">{result.mode}</text>',
    ]
    for iy in range(ny):
        for ix in range(nx):
            colour = _SVG_OK if grid[iy][ix] else _SVG_BAD
            x = ml + ix * cw
            # row 0 at the bottom so the vertical axis increases upward
            y = mt + (ny - 1 - iy) * ch
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
                f'fill="{colour}"/>'
            )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#000000" stroke-width="1"/>'
    )
    n_ticks = min(5, nx)
    for k in range(n_ticks):
        idx = round(k * (nx - 1) / max(1, n_ticks - 1)) if nx > 1 else 0
        x = ml + (idx + 0.5) * cw
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 18}" font-family="monospace" font-size="11" '
            f'text-anchor="middle">{xs[idx]:.4g}</text>'
        )
    if len(names) > 1:
        n_ticks = min(5, ny)
        for k in range(n_ticks):
            idx = round(k * (ny - 1) / max(1, n_ticks - 1)) if ny > 1 else 0
            y = mt + (ny - 1 - idx + 0.5) * ch
            parts.append(
                f'<text x="{ml - 8}" y="{y:.2f}" font-family="monospace" font-size="11" '
                f'text-anchor="end" dominant-baseline="middle">{ys[idx]:.4g}</text>'
            )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 14}" font-family="monospace" '
        f'font-size="13" text-anchor="middle">{names[0]}</text>'
    )
    if ylabel:
        parts.append(
            f'<text x="22" y="{mt + ph / 2:.1f}" font-family="monospace" font-size="13" '
            f'text-anchor="middle" transform="rotate(-90 22 {mt + ph / 2:.1f})">{ylabel}</text>'
        )
    parts.append("</svg>")
    _write_lines(path, parts)


# ---------------------------------------------------------------------------
# config files

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config(path: str, overrides: dict | None = None) -> ScanConfig:
    """Read a flat "key = value" config file into a ScanConfig.

    Keys match the ScanConfig fields exactly, and each value is read as its
    field's type: ranges are comma triples "lo,hi,n", booleans true/false
    (or 1/0, yes/no), mode and output_path strings and every other field a
    float.  Blank lines and '#' comments are ignored.  A key set twice raises
    DomainError.  Entries in overrides (CLI flags) replace file values.
    """
    kinds = {f.name: f.type for f in fields(ScanConfig)}  # annotation strings
    raw: dict[str, object] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"config {path} is not UTF-8 text: "
                          f"{exc.reason} at byte {exc.start}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        kind = kinds.get(key)
        if kind is None:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        if first_line.setdefault(key, lineno) != lineno:
            raise DomainError(f"{path}:{lineno}: {key} is already set on line {first_line[key]}")
        if kind == "str":
            raw[key] = value
        elif kind == "bool":
            if value.lower() not in _BOOLS:
                raise DomainError(f"{path}:{lineno}: {key} must be true/false")
            raw[key] = _BOOLS[value.lower()]
        elif kind.startswith("tuple") and value.count(",") != 2:
            raise DomainError(f"{path}:{lineno}: {key} needs 'lo,hi,n'")
        else:
            try:
                if kind.startswith("tuple"):
                    lo, hi, n = (float(x) for x in value.split(","))
                    # a whole count reads as int; _check_range refuses any other
                    raw[key] = (lo, hi, int(n) if n.is_integer() else n)
                else:
                    raw[key] = float(value)
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: bad {key}: {exc}") from exc
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    if "mode" not in raw:
        raise DomainError(f"config {path} does not set a mode")
    return ScanConfig(**raw)
