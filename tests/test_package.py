"""The package's public surface: __all__ and the imports of __init__.py agree,
every public name and top-level definition has a reader outside the tests,
and every public entry refuses bad inputs with the rule texts of
robintri.errors."""

import ast
import importlib
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import robintri
from robintri import equilateral


def test_all_lists_exactly_the_imported_public_names():
    """__init__.py keeps its import list, its lazy map _LAZY and __all__ by
    hand.  Each name of __all__ is imported or a key of _LAZY, and each key of
    _LAZY is a name of __all__ or the module it maps to.  A name listed twice,
    imported and lazy both, missing from __all__, or mapped to a module that
    does not define it fails here.  Each lazy name is its module's own object."""
    tree = ast.parse(inspect.getsource(robintri))
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names]
    public = [name for name in imported
              if not name.startswith("_") and not inspect.ismodule(getattr(robintri, name))]
    assert len(set(public)) == len(public)
    assert len(set(robintri.__all__)) == len(robintri.__all__)
    modules = set(robintri._LAZY.values())
    assert modules == {"trial", "scan", "fem"}
    assert all(robintri._LAZY[module] == module for module in modules)
    lazy = set(robintri._LAZY) - modules
    assert not lazy & set(public)
    assert set(robintri.__all__) == set(public) | lazy | {"__version__"}
    assert {"ShapeDerivatives", "constant_bound", "run_scan"} <= lazy
    for name in lazy:
        module = importlib.import_module(f"robintri.{robintri._LAZY[name]}")
        assert getattr(robintri, name) is vars(module)[name], name
    for module in modules:
        assert getattr(robintri, module) is importlib.import_module(f"robintri.{module}")


def _fresh(code: str, *flags: str) -> list[str]:
    """The stdout lines of code run in a fresh interpreter, with the
    interpreter flags given, on this checkout's package: pytest itself has
    loaded SciPy (pyproject's warning filters name scipy.sparse), so only a new
    process shows what an import loads."""
    path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.splitlines()


_LOADED = "import sys; print('numpy' in sys.modules, 'scipy.sparse' in sys.modules)"


@pytest.mark.parametrize("code, numpy", [
    ("import robintri", False),
    ("import robintri; robintri.lambda0(-1.0, 0.5); tri = robintri.make_triangle(1.0, 0.8, 0.5); "
     "robintri.constant_bound(-4.0, tri); robintri.sector_condition(-4.0, tri)", False),
    ("import robintri; robintri.run_scan(robintri.ScanConfig(mode='g-curve', "
     "a_range=(0.5, 0.9, 2), output_path={out!r}))", False),
    *((f"import robintri; robintri.run_scan(robintri.ScanConfig(mode={mode!r}, "
       "alpha_range=(-4.0, -1.0, 2), a_range=(0.0, 1.0, 2), output_path={out!r}))", numpy)
      for mode, numpy in (("transplant-region", True), ("constant-region", False),
                          ("condition-region", False), ("sector-region", True))),
    ("from robintri import cli; cli.main(['equilateral', '--alpha', '-1', '--area', '1'])", False),
    ("import robintri; robintri.run_scan(robintri.ScanConfig(mode='monotonicity', "
     "alpha_range=(-24.0, -0.5, 2), output_path={out!r}))", False),
    ("from robintri import cli; cli.main(['verify', '--suite', 'monotone', '--alpha=-24'])",
     False),
], ids=["import", "closed-forms", "g-curve", "transplant-region", "constant-region",
        "condition-region", "sector-region", "cli-equilateral", "monotonicity",
        "cli-verify-monotone"])
def test_closed_forms_and_region_scans_load_no_scipy(code, numpy, tmp_path):
    """SciPy loads with robintri.fem alone: importing the package, the closed
    forms and certificates, every region scan, the monotonicity scan, robintri
    equilateral and robintri verify --suite monotone leave it unloaded.  NumPy
    loads with the quadrature of u0's volume norm and of the sector field's
    side norms, so only transplant-region and sector-region load it; exact
    norms in their place (ROADMAP item 4(a)) would make these two read False."""
    code = code.format(out=str(tmp_path / "scan.csv"))
    assert _fresh(f"{code}; {_LOADED}")[-1] == f"{numpy} False"


@pytest.mark.parametrize("use", [
    "robintri.eigenvalue_converged", "from robintri import solve_at_level", "robintri.fem"])
def test_a_fem_name_loads_scipy_on_first_use(use):
    assert _fresh(f"import robintri; {_LOADED}; {use}; {_LOADED}") == ["False False",
                                                                        "True True"]


_LAYERS = ("import sys; print(sorted(m for m in sys.modules "
           "if m.startswith('robintri.')))")


@pytest.mark.parametrize("use, loaded", [
    ("", ["equilateral", "errors", "geometry"]),
    ("robintri.constant_bound", ["equilateral", "errors", "geometry", "trial"]),
    ("robintri.run_scan", ["equilateral", "errors", "geometry", "scan", "trial"]),
], ids=["import", "trial-name", "scan-name"])
def test_each_layer_loads_on_first_use(use, loaded):
    """import robintri loads the closed forms only; a certificate's name
    loads trial and no more, a scan's name scan and trial but not fem."""
    assert _fresh(f"import robintri\n{use}\n{_LAYERS}") == [
        str([f"robintri.{name}" for name in loaded])]


def test_lazy_names_are_their_modules_own_objects():
    """In a fresh interpreter, where nothing has touched the package first,
    every lazy name and lazy module read through robintri is the object its
    module defines."""
    code = ("import importlib, robintri\n"
            "print(all(getattr(robintri, n) is (importlib.import_module('robintri.' + m) "
            "if n == m else vars(importlib.import_module('robintri.' + m))[n]) "
            "for n, m in robintri._LAZY.items()))")
    assert _fresh(code) == ["True"]


def test_import_loads_no_numpy_scipy_or_multiprocessing():
    """The CI workflow's import check: import robintri loads neither NumPy nor
    SciPy, and no process pool either, since every scan runs in one process."""
    code = ("import sys, robintri; print([m for m in ('numpy', 'scipy.sparse', "
            "'multiprocessing') if m in sys.modules])")
    assert _fresh(code) == ["[]"]


def test_import_loads_no_dataclasses_inspect_or_typing():
    """The closed-form records are named tuples, so import robintri loads
    neither dataclasses (which loads inspect, ast, dis and tokenize) nor
    typing.  -S runs no site file, whose .pth files may preload typing."""
    code = ("import sys, robintri; print([m for m in ('dataclasses', 'inspect', 'typing') "
            "if m in sys.modules])")
    assert _fresh(code, "-S") == ["[]"]


# each closed-form record -> its one constructor and its fields, in order
_RECORDS = {
    "TriangleGeometry": (lambda: robintri.make_triangle(0.3, 0.8, 0.5), (
        "a", "c", "S", "vertices", "side_lengths", "perimeter", "theta_star", "L_prime",
        "apex_index", "corners")),
    "EquilateralSolution": (lambda: robintri.solve_equilateral(-1.0, 0.5), (
        "alpha", "S", "t", "K", "L", "M", "lambda0", "log_one_minus_t")),
    "HessianBounds": (lambda: robintri.hessian_upper_bounds(-1.0, 0.5), ("bound_aa", "bound_cc")),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_immutable_values(name):
    """Each record refuses a field assignment and any new attribute; equal
    inputs give equal records with equal hashes; its repr names the class and
    every field; and, as a named tuple, it equals the tuple of its fields in
    their declared order."""
    make, names = _RECORDS[name]
    record = make()
    equilateral._solve.cache_clear()  # the twin is solved afresh, not the cached record
    twin = make()
    assert type(record) is getattr(robintri, name) and record is not twin
    for field in names:
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0
    assert record == twin and hash(record) == hash(twin)
    assert re.fullmatch(rf"{name}\({', '.join(f'{f}=.+' for f in names)}\)", repr(record))
    assert record == tuple(getattr(record, field) for field in names)


@pytest.mark.parametrize("mode, axes", [
    ("g-curve", "a_range=(0.5, 0.9, 2)"),
    ("transplant-region", "alpha_range=(-4.0, -1.0, 2), a_range=(0.0, 1.0, 2)"),
], ids=["g-curve", "transplant-region"])
def test_a_scan_loads_no_multiprocessing(mode, axes, tmp_path):
    """A scan runs its cells in the calling process: running one, not only
    importing robintri, leaves multiprocessing unloaded."""
    out = str(tmp_path / "scan.csv")
    code = (f"import sys, robintri; robintri.run_scan(robintri.ScanConfig(mode={mode!r}, "
            f"{axes}, output_path={out!r})); print('multiprocessing' in sys.modules)")
    assert _fresh(code) == ["False"]


def test_dir_lists_the_lazy_names_and_star_import_binds_them():
    """dir(robintri) lists every name of __all__ before trial, scan or fem
    loads, and from robintri import * binds every one of them, the lazy
    modules' names included."""
    code = ("import sys, robintri\n"
            "print(set(robintri.__all__) <= set(dir(robintri)), [m for m in "
            "('robintri.trial', 'robintri.scan', 'robintri.fem') if m in sys.modules])\n"
            "names = {}\n"
            "exec('from robintri import *', names)\n"
            "print(all(getattr(robintri, n) is names[n] for n in robintri.__all__))")
    assert _fresh(code) == ["True []", "True"]


def test_every_public_callable_has_a_docstring():
    """Each class and function in __all__ says what it is in a docstring of its
    own (a class does not borrow object's)."""
    missing = [name for name in robintri.__all__
               if callable(getattr(robintri, name))
               and not (getattr(robintri, name).__doc__ or "").strip()]
    assert missing == []


REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = sorted((REPO / "src" / "robintri").glob("*.py"))


def test_distribution_is_robintri_at_the_package_version():
    """pyproject.toml names the distribution robintri, at the version that
    robintri.__version__ gives and every CSV header records.  Read by regex:
    Python 3.10 has no tomllib."""
    project = (REPO / "pyproject.toml").read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^name = "(.*)"$', project, re.M).group(1) == "robintri"
    assert re.search(r'^version = "(.*)"$', project, re.M).group(1) == robintri.__version__


# public names and top-level definitions that no package module or bench
# script reads yet, each kept for the ROADMAP item that will read it
_KEPT_UNREAD = {
    "T0": "the acceptance gate's threshold, read by test_acceptance.py",
    "coupling_elasticity": "item 4(a): u0's volume norm by Feynman-Hellmann",
    "perimeter_min_over_a": "item 9: the perimeter sublevel set of the global cover",
    "small_coupling_functions": "item 9: z, f1 and g1 of the global cover",
}


def test_every_public_name_and_definition_has_a_non_test_reader():
    """Each name in __all__, and each function and class defined at the top
    level of a package module, is read outside the tests: as a loaded name or
    an attribute in a package module other than __init__.py, or in a bench
    script.  A name only tests read is code no scan, CLI command or bench
    workload reaches; it leaves the package (a test oracle moves to
    tests/oracles.py) or joins _KEPT_UNREAD with a reason."""
    files = [path for path in SRC if path.name != "__init__.py"]
    files += sorted((REPO / "bench").glob("*.py"))
    assert files
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = {node.name for path in SRC
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"assemble", "_invariant_jet", "FemMesh"} <= defined
    assert set(_KEPT_UNREAD) <= set(robintri.__all__) | defined
    hooks = {"__getattr__", "__dir__"}  # __init__.py's module hooks, called by Python
    assert hooks <= defined
    assert sorted((set(robintri.__all__) | defined) - read - set(_KEPT_UNREAD) - hooks) == []


def test_no_module_imports_a_name_it_never_reads():
    """Each name that a package module other than __init__.py (which imports
    to re-export) or a test module imports is loaded somewhere in that module,
    alone or as the base of an attribute.  __future__ imports bind no name."""
    files = [path for path in SRC if path.name != "__init__.py"]
    files += sorted((REPO / "tests").glob("*.py"))
    unread = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.partition(".")[0], node.lineno)
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno)
                                for alias in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unread == []


S3 = 1.0 / math.sqrt(3.0)
TRI = robintri.make_triangle(0.3, 0.8, S3)
NAN, INF = math.nan, math.inf
NOT_TRIANGLES = (None, 1.0, "tri", tuple(TRI))     # a tuple of its fields is no triangle
COUPLINGS = (NAN, INF, -INF, 0.0, 1.0, "-1")       # fails: finite and strictly negative
POSITIVES = (NAN, INF, -INF, 0.0, -1.0, "1", True)  # fails: positive and finite
FINITES = (NAN, INF, -INF)
LEVELS = (2.5, 2.0, -1, "2", True)                 # fails: a non-negative integer
ALPHA = "alpha must be finite and strictly negative"
AREA = "area S must be positive and finite"

# entry/argument -> (call with the bad value, bad values, the rule's text); the
# sweep entries' scalars and the certificates' couplings have their own tests
# in test_scan.py and test_trial.py
_BAD_INPUTS = {
    "solve_equilateral/alpha": (lambda v: robintri.solve_equilateral(v, S3), COUPLINGS, ALPHA),
    "solve_equilateral/S": (lambda v: robintri.solve_equilateral(-1.0, v), POSITIVES, AREA),
    "lambda0/alpha": (lambda v: robintri.lambda0(v, S3), COUPLINGS, ALPHA),
    "hessian_upper_bounds/S": (lambda v: robintri.hessian_upper_bounds(-1.0, v), POSITIVES, AREA),
    "local_optimality_alpha_bound/S": (robintri.local_optimality_alpha_bound, POSITIVES, AREA),
    "c0/S": (robintri.c0, POSITIVES, AREA),
    "b0/S": (robintri.b0, POSITIVES, AREA),
    "make_triangle/a": (lambda v: robintri.make_triangle(v, 1.0, 1.0), FINITES + ("0",),
                        "a must be finite"),
    "make_triangle/c": (lambda v: robintri.make_triangle(0.0, v, 1.0), POSITIVES,
                        "c must be positive and finite"),
    "make_triangle/S": (lambda v: robintri.make_triangle(0.0, 1.0, v), POSITIVES, AREA),
    "perimeter_min_over_a/c": (lambda v: robintri.perimeter_min_over_a(v, 1.0), POSITIVES,
                               "c must be positive and finite"),
    "perimeter_min_over_a/S": (lambda v: robintri.perimeter_min_over_a(1.0, v), POSITIVES, AREA),
    "perimeter_normalizer/tri": (robintri.perimeter_normalizer, NOT_TRIANGLES,
                                 "expected a TriangleGeometry from make_triangle"),
    "g_threshold/t": (robintri.g_threshold, FINITES + (0.0, 1.0, -0.5), "t must be in (0, 1)"),
    "lambda0_lower_bound/S": (lambda v: robintri.lambda0_lower_bound(-1.0, v), POSITIVES, AREA),
    "sector_closed_upper/alpha": (lambda v: robintri.sector_closed_upper(v, 0.5, 1.0), COUPLINGS,
                                  ALPHA),
    "sector_closed_upper/l_prime": (lambda v: robintri.sector_closed_upper(-1.0, 0.5, v),
                                    POSITIVES, "l_prime must be positive and finite"),
    "assemble/alpha": (lambda v: robintri.assemble(robintri.build_mesh(TRI, 2), v), COUPLINGS,
                       ALPHA),
    "build_mesh/level": (lambda v: robintri.build_mesh(TRI, v), LEVELS,
                         "refinement level must be a non-negative integer"),
    "FemMesh/level": (lambda v: robintri.FemMesh(TRI, v), LEVELS,
                      "refinement level must be a non-negative integer"),
    "FemMesh/tri": (lambda v: robintri.FemMesh(v, 2), NOT_TRIANGLES,
                    "expected a TriangleGeometry from make_triangle"),
    "solve_at_level/alpha": (lambda v: robintri.solve_at_level(TRI, v, 2), COUPLINGS, ALPHA),
    "solve_at_level/level": (lambda v: robintri.solve_at_level(TRI, -1.0, v), LEVELS,
                             "refinement level must be a non-negative integer"),
    "solve_at_level/sigma0": (lambda v: robintri.solve_at_level(TRI, -1.0, 2, sigma0=v),
                              FINITES + ("x", True), "sigma0 must be finite"),
    "eigenvalue_converged/alpha": (lambda v: robintri.eigenvalue_converged(TRI, v), COUPLINGS,
                                   ALPHA),
    "eigenvalue_converged/max_level": (
        lambda v: robintri.eigenvalue_converged(TRI, -1.0, max_level=v), (5.5, 6.0, "6"),
        "max_level must be a non-negative integer"),
    "shape_derivatives/alpha": (lambda v: robintri.shape_derivatives(TRI, v), COUPLINGS, ALPHA),
    "shape_derivatives/tri": (lambda v: robintri.shape_derivatives(v, -1.0), NOT_TRIANGLES,
                              "expected a TriangleGeometry from make_triangle"),
    "ScanConfig/alpha_range": (
        lambda v: robintri.ScanConfig(mode="constant-region", alpha_range=(-2.0, v, 3)),
        (0.0, 1.0), "alpha_range must be finite and strictly negative"),
    "ScanConfig/c_range": (
        lambda v: robintri.ScanConfig(mode="fem-conjecture", c_range=(v, 1.0, 2)),
        (0.0, -1.0), "c_range must be positive and finite"),
    "ScanConfig/t": (lambda v: robintri.ScanConfig(mode="g-curve", a_range=(v, 0.9, 3)),
                     (0.0, -0.5), "a_range must be in (0, 1)"),
}


@pytest.mark.parametrize("entry", sorted(_BAD_INPUTS))
def test_every_entry_refuses_bad_inputs_with_the_rule_text(entry):
    """Each public entry checks its coupling, area, lengths, tolerance, levels
    and triangle through the one copy of each rule in robintri.errors: nan,
    +-inf, 0, a wrong sign, a non-integer level or a value of the wrong type is
    a DomainError carrying the rule's text, never a bare ValueError, TypeError
    or AttributeError, and never a returned nan."""
    call, values, text = _BAD_INPUTS[entry]
    for value in values:
        with pytest.raises(robintri.DomainError, match=re.escape(text)):
            call(value)
