"""Command-line front end.

Four subcommands: "equilateral" prints the closed-form ground-state data,
"eigen" runs the mesh-refined eigenvalue solver on one triangle, "scan"
drives a grid scan from a config file or flags, and "verify" runs one of the
bundled verification suites.

Exit codes: 0 on success, 1 for usage or domain errors, 2 when a numeric
computation or a verification claim fails.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
from collections import Counter

from .equilateral import solve_equilateral
from .errors import DomainError, NumericError, ResourceError
from .geometry import c0, make_triangle
from .scan import MODES, ScanConfig, parse_config, run_scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

SUITES = ("local", "perimeter", "monotone", "conjecture")


class _Parser(argparse.ArgumentParser):
    """Reads a negative decimal ("-1", "-1.", "-.5", "-1e-3") after a flag as
    its value, as in "--alpha=-1e-3"; argparse alone takes "-1e-3" for an option."""

    def _parse_optional(self, arg_string):
        if re.fullmatch(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", arg_string):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robintri",
        description="Robin eigenvalue bounds on the two-parameter triangle family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilateral", help="closed-form equilateral ground state")
    p_eq.add_argument("--alpha", type=float, required=True, help="boundary coupling, negative")
    p_eq.add_argument("--area", type=float, required=True, help="triangle area")

    p_ei = sub.add_parser("eigen", help="finite-element eigenvalue for one triangle")
    p_ei.add_argument("--a", type=float, required=True, help="apex abscissa")
    p_ei.add_argument("--c", type=float, required=True, help="half base width")
    p_ei.add_argument("--area", type=float, required=True, help="triangle area")
    p_ei.add_argument("--alpha", type=float, required=True, help="boundary coupling, negative")
    p_ei.add_argument("--tol", type=float, default=1e-6, help="relative tolerance")
    p_ei.add_argument("--max-level", type=int, default=9, help="finest refinement level")
    p_ei.add_argument("--dump-mesh", metavar="PATH", default=None,
                      help="write the final mesh to PATH as space-separated rows under "
                           "'# level', 'nodes', 'elements' and 'boundary_edges' headers")

    p_sc = sub.add_parser("scan", help="grid scan driven by a config file or flags")
    p_sc.add_argument("--config", default=None, help="flat key=value config file")
    p_sc.add_argument("--mode", choices=MODES, default=None, help="scan mode override")
    p_sc.add_argument("--out", dest="output_path", default=None, help="output CSV path override")
    p_sc.add_argument("--svg", dest="emit_svg", action="store_const", const=True,
                      help="also write an SVG heatmap")
    p_sc.add_argument("--anchor-left", dest="anchor_left", action="store_const", const=True,
                      help="anchor the corner trial field at the left base vertex")

    p_ve = sub.add_parser("verify", help="run one bundled verification suite")
    p_ve.add_argument("--suite", required=True, choices=SUITES)
    p_ve.add_argument("--alpha", type=float, required=True, help="boundary coupling, negative")
    p_ve.add_argument("--area", type=float, default=1.0 / math.sqrt(3.0), help="triangle area")
    return parser


def _cmd_equilateral(args) -> int:
    sol = solve_equilateral(args.alpha, args.area)
    print(f"t       = {sol.t:.15g}")
    print(f"K       = {sol.K:.15g}")
    print(f"L       = {sol.L:.15g}")
    print(f"M       = {sol.M:.15g}")
    print(f"lambda0 = {sol.lambda0:.15g}")
    return EXIT_OK


def _cmd_eigen(args) -> int:
    from .fem import build_mesh, dump_mesh, eigenvalue_converged

    tri = make_triangle(args.a, args.c, args.area)
    res = eigenvalue_converged(tri, args.alpha, rel_tol=args.tol, max_level=args.max_level)
    print(f"lambda1   = {res.lambda1:.15g}")
    print(f"error_est = {res.residual:.3g}")
    print(f"level     = {res.level}")
    print(f"converged = {res.converged}")
    print("history   = " + " ".join("%.12g" % v for v in res.history))
    if args.dump_mesh is not None:
        dump_mesh(build_mesh(tri, res.level), args.dump_mesh)
        print(f"mesh      -> {args.dump_mesh}")
    return EXIT_OK if res.converged else EXIT_NUMERIC


def _cmd_scan(args) -> int:
    overrides = {k: getattr(args, k) for k in ("mode", "output_path", "emit_svg", "anchor_left")}
    if args.config is not None:
        cfg = parse_config(args.config, overrides)
    else:
        if args.mode is None:
            print("scan needs --config or --mode", file=sys.stderr)
            return EXIT_USAGE
        cfg = ScanConfig(**{k: v for k, v in overrides.items() if v is not None})
    result = run_scan(cfg)
    statuses = sorted(Counter(row[-1] for row in result.rows).items())
    grid = result.verdict_grid
    certified = sum(sum(r) for r in grid)
    cells = sum(len(r) for r in grid)
    print(f"mode      = {cfg.mode}")
    print(f"rows      = {len(result.rows)} ({', '.join(f'{s} {n}' for s, n in statuses)})")
    print(f"verdicts  = {certified}/{cells} cells positive")
    print(f"csv       -> {cfg.output_path}")
    if cfg.emit_svg:
        print(f"svg       -> {cfg.svg_path}")
    return EXIT_OK


def _print_table(result) -> None:
    print(",".join(result.columns))
    for row in result.rows:
        print(",".join(v if isinstance(v, str) else "%r" % v for v in row))


def _suite_result(suite: str, alpha: float, S: float):
    """The ScanResult of one bundled suite; c0 refuses a bad area before any grid is built.

    Every suite is a ScanConfig preset at the single coupling alpha, scanned
    into a temporary directory, so robintri scan with the same config gives
    the same rows.
    """
    cc = c0(S)
    preset = {
        "local": {"mode": "local-optimality"},
        # the scaled chain holds near the equilateral, on both sides of c0
        "perimeter": {"mode": "perimeter-variant", "a_range": (0.0, 0.4 * cc, 3),
                      "c_range": (0.8 * cc, 1.3 * cc, 5)},
        "monotone": {"mode": "monotonicity"},
        # eigenvalue never exceeds the equilateral value on a sample grid
        "conjecture": {"mode": "fem-conjecture", "a_range": (0.0, 2.0 * cc, 5),
                       "c_range": (0.6 * cc, 1.8 * cc, 5), "fem_rel_tol": 1e-5},
    }[suite]
    with tempfile.TemporaryDirectory() as tmp:
        return run_scan(ScanConfig(alpha_range=(alpha, alpha, 1), S=S,
                                   output_path=os.path.join(tmp, suite + ".csv"), **preset))


def _cmd_verify(args) -> int:
    """Print the suite's table; it fails when a claimed row's verdict is not 1,
    and is unresolved when no row fails but a claimed row's status is not ok.
    An undecided row (no FEM level value below its target by the level cap)
    leaves it unresolved, never failed.  A result without a claimed column
    claims every row."""
    result = _suite_result(args.suite, args.alpha, args.area)
    _print_table(result)
    cols = result.columns
    claimed = [row for row in result.rows if "claimed" not in cols or row[cols.index("claimed")]]
    if not claimed:
        print(f"verify {args.suite}: no claim at this coupling")
        return EXIT_OK
    if any(row[cols.index("verdict")] != 1 and row[-1] != "undecided" for row in claimed):
        print(f"verify {args.suite}: FAILED")
        return EXIT_NUMERIC
    unsettled = Counter(row[-1] for row in claimed if row[-1] != "ok")
    if unsettled:
        counts = ", ".join(f"{k} of {len(claimed)} claimed rows {status}"
                           for status, k in sorted(unsettled.items()))
        print(f"verify {args.suite}: UNRESOLVED ({counts})")
        return EXIT_NUMERIC
    print(f"verify {args.suite}: OK")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "equilateral":
            return _cmd_equilateral(args)
        if args.command == "eigen":
            return _cmd_eigen(args)
        if args.command == "scan":
            return _cmd_scan(args)
        return _cmd_verify(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, ResourceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
