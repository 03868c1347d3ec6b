"""Command-line entry point tests, run in-process through cli.main."""

import math
import os
import re
from types import SimpleNamespace

import pytest

from robintri import cli, fem, scan
from robintri.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from robintri.equilateral import lambda0
from robintri.errors import NumericError
from robintri.fem import ShapeDerivatives, eigenvalue_converged
from robintri.geometry import make_triangle

S_THIRD = 1.0 / math.sqrt(3.0)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fields(out):
    """The ``key = value`` lines of a command's output."""
    return {k.strip(): v.strip() for k, _, v in
            (line.partition("=") for line in out.splitlines() if "=" in line)}


class TestEquilateral:
    def test_prints_solution_fields(self, capsys):
        code, out, _ = run(
            capsys, ["equilateral", "--alpha", "-0.5", "--area", str(S_THIRD)]
        )
        assert code == EXIT_OK
        values = {}
        for line in out.splitlines():
            key, _, val = line.partition("=")
            values[key.strip()] = float(val)
        assert set(values) == {"t", "K", "L", "M", "lambda0"}
        assert abs(values["lambda0"] - lambda0(-0.5, S_THIRD)) < 1e-12
        assert 0.0 < values["t"] < 1.0

    def test_rejects_positive_alpha(self, capsys):
        code, _, err = run(capsys, ["equilateral", "--alpha", "0.5", "--area", "1.0"])
        assert code == EXIT_USAGE
        assert err  # the reason lands on stderr

    def test_rejects_nonpositive_area(self, capsys):
        code, _, _ = run(capsys, ["equilateral", "--alpha", "-1.0", "--area", "0"])
        assert code == EXIT_USAGE


class TestEigen:
    def test_solves_small_triangle(self, capsys):
        code, out, _ = run(
            capsys,
            ["eigen", "--a", "0.3", "--c", "0.6", "--area", "0.5",
             "--alpha", "-1.0", "--tol", "1e-4"],
        )
        assert code == EXIT_OK
        printed = fields(out)
        assert printed["converged"] == "True"
        lam = float(printed["lambda1"])
        assert -9.5 < lam < -7.5

    def test_prints_the_finest_level_residual(self, capsys):
        """The printed keys, in order, and error_est, the ladder's own error
        estimate (EigenResult.residual, the change of the extrapolation over
        the finest refinement); no mass-matrix residual is printed."""
        code, out, _ = run(
            capsys,
            ["eigen", "--a", "0.3", "--c", "0.6", "--area", "0.5",
             "--alpha", "-1.0", "--tol", "1e-4"],
        )
        assert code == EXIT_OK
        keys = [line.partition("=")[0].strip() for line in out.splitlines()]
        assert keys == ["lambda1", "error_est", "level", "converged", "history"]
        printed = fields(out)
        res = eigenvalue_converged(make_triangle(0.3, 0.6, 0.5), -1.0, rel_tol=1e-4)
        assert printed["lambda1"] == f"{res.lambda1:.15g}"
        assert printed["error_est"] == f"{res.residual:.3g}"
        assert 0.0 < res.residual <= 1e-4 * abs(res.lambda1)
        assert printed["level"] == str(res.level)
        assert printed["history"] == " ".join("%.12g" % v for v in res.history)

    def test_all_dense_ladder(self, capsys):
        """--max-level 4 walks levels 2 to 4, every one of them dense (at most
        fem._DENSE_NODES nodes), and settles at level 4; the same run goes
        through the installed entry point in CI.  Its history is pinned to
        1e-12 relative, in print and in full precision."""
        code, out, _ = run(
            capsys,
            ["eigen", "--a", "0.3", "--c", "0.7", "--area", "0.5773502691896258",
             "--alpha=-0.5", "--tol", "1e-3", "--max-level", "4"],
        )
        assert code == EXIT_OK
        printed = fields(out)
        assert printed["converged"] == "True" and printed["level"] == "4"
        assert printed["history"] == "-3.53243879679 -3.56003725501 -3.56749421889"
        res = eigenvalue_converged(make_triangle(0.3, 0.7, 0.5773502691896258), -0.5,
                                   rel_tol=1e-3, max_level=4)
        assert res.iterations == 0 and (2**4 + 1) * (2**4 + 2) // 2 <= fem._DENSE_NODES
        want = (-3.532438796786418, -3.5600372550114936, -3.567494218889406)
        assert all(abs(got - lam) <= 1e-12 * abs(lam) for got, lam in zip(res.history, want))
        assert len(res.history) == len(want)

    def test_nonconvergence_exits_numeric(self, capsys):
        code, out, _ = run(
            capsys,
            ["eigen", "--a", "0.0", "--c", "3.0", "--area", str(S_THIRD),
             "--alpha", "-8.0", "--tol", "1e-8", "--max-level", "4"],
        )
        assert code == EXIT_NUMERIC
        assert "converged = False" in out

    def test_level_past_the_cap_is_a_numeric_failure(self, capsys):
        code, out, err = run(
            capsys,
            ["eigen", "--a", "0.0", "--c", "0.6", "--area", "0.5",
             "--alpha", "-1.0", "--max-level", "12"],
        )
        assert code == EXIT_NUMERIC
        assert out == "" and err.startswith("numeric failure:")

    def test_coupling_near_float64_range_is_a_numeric_failure(self, capsys):
        """At alpha = -1e307 no level solves (dense levels get no vector, sparse
        ones overflow the cold shift): exit 2 with a message, no traceback."""
        code, out, err = run(
            capsys,
            ["eigen", "--a", "0.3", "--c", "0.6", "--area", "0.5",
             "--alpha=-1e307", "--max-level", "6"],
        )
        assert code == EXIT_NUMERIC
        assert out == "" and err.startswith("numeric failure:")

    def test_pencil_past_float64_is_a_numeric_failure(self, capsys):
        """At alpha = -1.7e308 the level-2 boundary form overflows float64 and
        assemble refuses it; no two levels certify, so exit 2, no traceback."""
        code, out, err = run(
            capsys,
            ["eigen", "--a", "0", "--c", "0.15", "--area", "1",
             "--alpha=-1.7e308", "--max-level", "6"],
        )
        assert code == EXIT_NUMERIC
        assert out == "" and err.startswith("numeric failure:")

    def test_level_cap_below_four_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            ["eigen", "--a", "0.0", "--c", "0.6", "--area", "0.5",
             "--alpha", "-1.0", "--max-level", "3"],
        )
        assert code == EXIT_USAGE
        assert out == "" and "max_level" in err

    def test_tolerance_below_floor_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys,
            ["eigen", "--a", "0.0", "--c", "0.6", "--area", "0.5",
             "--alpha", "-1.0", "--tol", "1e-12"],
        )
        assert code == EXIT_USAGE

    def test_dump_mesh(self, capsys, tmp_path):
        path = tmp_path / "mesh.txt"
        code, _, _ = run(
            capsys,
            ["eigen", "--a", "0.0", "--c", "0.6", "--area", "0.5",
             "--alpha", "-1.0", "--tol", "1e-3", "--dump-mesh", str(path)],
        )
        assert code == EXIT_OK
        text = path.read_text()
        assert text.startswith("# level ")
        assert "boundary_edges" in text

    def test_degenerate_triangle_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys,
            ["eigen", "--a", "0.0", "--c", "0.6", "--area", "0",
             "--alpha", "-1.0"],
        )
        assert code == EXIT_USAGE


class TestScan:
    def test_flag_only_invocation(self, capsys, tmp_path):
        out_path = tmp_path / "g.csv"
        code, out, _ = run(
            capsys, ["scan", "--mode", "g-curve", "--out", str(out_path)]
        )
        assert code == EXIT_OK
        assert out_path.exists()
        assert str(out_path) in out

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--workers=2"]], ids=["spaced", "joined"])
    def test_workers_is_an_unknown_argument(self, flag, capsys, monkeypatch):
        """Every scan runs in one process, so --workers is no option: the scan
        exits 1 as an unknown argument before run_scan is called."""
        calls = []
        monkeypatch.setattr(cli, "run_scan", lambda cfg: calls.append(cfg))
        code, _, err = run(capsys, ["scan", "--mode", "g-curve", *flag])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --workers" in err
        assert calls == []

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "mode = g-curve\na_range = 0.91, 0.96, 4\noutput_path = ignored.csv\n"
        )
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, ["scan", "--config", str(cfg), "--out", str(out_path)]
        )
        assert code == EXIT_OK
        assert out_path.exists()

    def test_summary_counts_rows_per_status(self, capsys, tmp_path):
        """The condition is vacuous on the equilateral column a = 0."""
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("mode = condition-region\nalpha_range = -9, -1, 3\na_range = 0, 2.5, 4\n")
        code, out, _ = run(
            capsys, ["scan", "--config", str(cfg), "--out", str(tmp_path / "cond.csv")]
        )
        assert code == EXIT_OK
        assert "rows      = 12 (domain-error 3, ok 9)" in out.splitlines()

    @pytest.mark.parametrize("text,code,message", [
        (b"mode = g-curve\n# \xff\n", EXIT_USAGE, "error: config .* is not UTF-8 text"),
        (b"mode = g-curve\na_range = 0.1, 0.9, 1e300\n", EXIT_NUMERIC,
         "numeric failure: the g-curve grid of 1e[+]300 points exceeds the cap"),
        (b"mode = g-curve\nS = 0.5\nmode = constant-region\nS = 0.7\n", EXIT_USAGE,
         "error: .*:3: mode is already set on line 1"),
    ], ids=["not-utf8", "past-the-cell-cap", "repeated-key"])
    def test_bad_config_file_exits_with_a_message(self, text, code, message, capsys, tmp_path):
        """No traceback: a typed refusal, its exit code, and nothing written."""
        cfg = tmp_path / "scan.cfg"
        cfg.write_bytes(text)
        out_path = tmp_path / "x.csv"
        got, out, err = run(capsys, ["scan", "--config", str(cfg), "--out", str(out_path)])
        assert got == code and re.match(message, err) and out == ""
        assert not out_path.exists()

    def test_missing_mode_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["scan"])
        assert code == EXIT_USAGE
        assert err

    def test_unknown_mode_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["scan", "--mode", "nonsense", "--out", str(tmp_path / "x.csv")],
        )
        assert code == EXIT_USAGE

    def test_flags_reach_the_config(self, capsys, monkeypatch, tmp_path):
        """--out, --svg and --anchor-left set their ScanConfig fields, with and
        without a config file."""
        seen = []

        def record(cfg):
            seen.append(cfg)
            return SimpleNamespace(rows=[], verdict_grid=[])

        monkeypatch.setattr(cli, "run_scan", record)
        out_path = str(tmp_path / "s.csv")
        flags = ["--out", out_path, "--svg", "--anchor-left"]
        cfg_file = tmp_path / "scan.cfg"
        cfg_file.write_text("mode = sector-region\nanchor_left = no\n")
        assert run(capsys, ["scan", "--mode", "sector-region", *flags])[0] == EXIT_OK
        assert run(capsys, ["scan", "--config", str(cfg_file), *flags])[0] == EXIT_OK
        assert run(capsys, ["scan", "--config", str(cfg_file)])[0] == EXIT_OK
        assert [(c.output_path, c.emit_svg, c.anchor_left) for c in seen] == [
            (out_path, True, True), (out_path, True, True), ("scan.csv", False, False)]

    def test_gcurve_default_axis_is_the_same_on_every_path(self, capsys, tmp_path):
        """ScanConfig resolves the unset t axis itself, so the flag run, a config
        file holding only the mode and a Python run write the same bytes."""
        flag, conf, py = (tmp_path / name for name in ("flag.csv", "conf.csv", "py.csv"))
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("mode = g-curve\n")
        assert run(capsys, ["scan", "--mode", "g-curve", "--out", str(flag)])[0] == EXIT_OK
        assert run(capsys, ["scan", "--config", str(cfg_file), "--out", str(conf)])[0] == EXIT_OK
        scan.run_scan(scan.ScanConfig(mode="g-curve", output_path=str(py)))
        assert flag.read_bytes() == conf.read_bytes() == py.read_bytes()
        assert "# a_range = 0.050000000000000003,0.995,95" in flag.read_text().splitlines()

    def test_svg_over_the_csv_is_a_usage_error(self, capsys, monkeypatch, tmp_path):
        """--out X.svg --svg would write the CSV and then the heatmap over it:
        refused before any cell runs, and nothing is written."""
        calls = []
        monkeypatch.setattr(scan, "_cell_constant", lambda task, **_: calls.append(task))
        out_path = tmp_path / "heat.svg"
        code, out, err = run(capsys, ["scan", "--mode", "constant-region",
                                      "--out", str(out_path), "--svg"])
        assert code == EXIT_USAGE
        assert "would overwrite the CSV" in err and out == ""
        assert not calls and not out_path.exists()

    def test_output_in_a_missing_directory_is_an_io_failure(self, capsys, tmp_path):
        """The CSV cannot be opened: exit 1 with the reason on stderr, no traceback."""
        out_path = tmp_path / "missing" / "g.csv"
        code, out, err = run(capsys, ["scan", "--mode", "g-curve", "--out", str(out_path)])
        assert code == EXIT_USAGE
        assert err.startswith("i/o failure: ") and out == ""
        assert not out_path.parent.exists()

    def test_svg_flag_writes_image(self, capsys, tmp_path):
        out_path = tmp_path / "g.csv"
        code, _, _ = run(
            capsys,
            ["scan", "--mode", "g-curve", "--out", str(out_path), "--svg"],
        )
        assert code == EXIT_OK
        assert out_path.with_suffix(".svg").exists()


class TestVerify:
    @pytest.mark.parametrize("alpha", ["-0.5", "-24", "-40", "-170"])
    def test_monotone_suite_passes(self, alpha, capsys):
        """The closed area derivative decides the suite at strong coupling too,
        where lambda0 at S/2, S and 2S agrees to one ulp."""
        code, out, _ = run(capsys, ["verify", "--suite", "monotone", f"--alpha={alpha}"])
        assert code == EXIT_OK
        assert out.rstrip().endswith("verify monotone: OK")

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_every_suite_leaves_cwd_empty(self, suite, capsys, monkeypatch, tmp_path):
        """Every suite is a run_scan preset whose table goes to a temporary
        directory, not the cwd."""
        paths = []

        def fake_run_scan(cfg):
            paths.append(cfg.output_path)
            with open(cfg.output_path, "w") as fh:
                fh.write("stub\n")
            return SimpleNamespace(columns=("alpha", "verdict", "status"),
                                   rows=((-0.5, 1, "ok"),))

        monkeypatch.setattr(cli, "run_scan", fake_run_scan)
        assert os.getcwd() == str(tmp_path)
        code, out, _ = run(capsys, ["verify", "--suite", suite, "--alpha", "-0.5"])
        assert code == EXIT_OK
        assert out.rstrip().endswith("OK")
        assert len(paths) == 1 and not os.path.exists(paths[0])
        assert os.listdir(tmp_path) == []

    def test_local_suite_at_the_edge_of_the_claim(self, capsys):
        """alpha = -1.2 lies just inside the claimed range alpha >= -0.92/sqrt(S)."""
        code, out, _ = run(capsys, ["verify", "--suite", "local", "--alpha", "-1.2"])
        assert code == EXIT_OK
        header, row = out.splitlines()[:2]
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["claimed"], cells["verdict"], cells["status"]) == ("1", "1", "ok")
        assert out.rstrip().endswith("verify local: OK")

    def test_local_suite_at_weak_coupling(self, capsys):
        """At alpha = -1e-9 the derivative ladder settles: the gradient reads
        about 1e-22 where the lattice symmetry makes it 0, below the flatness
        tolerance 1e-3 |lambda0| / c0 (about 1e-11), because each level's
        stiffness acts on u - mean(u); on u itself it rounded to 4.8e-11."""
        code, out, _ = run(capsys, ["verify", "--suite", "local", "--alpha=-1e-9"])
        assert code == EXIT_OK
        cells = dict(zip(*(line.split(",") for line in out.splitlines()[:2])))
        assert (cells["claimed"], cells["verdict"], cells["status"]) == ("1", "1", "ok")
        assert out.rstrip().endswith("verify local: OK")

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_every_suite_refuses_a_bad_area(self, suite, capsys):
        """A bad area is a usage error before any cell runs, not a failed check."""
        code, out, err = run(capsys, ["verify", "--suite", suite, "--alpha", "-0.5",
                                      "--area", "-1"])
        assert code == EXIT_USAGE
        assert "area S" in err and out == ""

    def test_perimeter_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "perimeter", "--alpha", "-0.5"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("a,c,gamma,") and len(lines) == 1 + 15 + 1
        assert lines[-1] == "verify perimeter: OK"

    @pytest.mark.parametrize("alpha", ["-24", "-170"])
    def test_perimeter_link2_is_never_positive(self, alpha, capsys, monkeypatch):
        """margin_link2 = lambda0(gamma^2 S) - lambda0(S) is negative on every
        row with gamma < 1, also at strong coupling, where the two lambda0
        round to the same float and the true link is exponentially small.  The
        FEM ladder, which link 2 does not read, is stubbed, with a level value
        below the scaled lambda0 so that link 1 decides every row."""
        def ladder(tri, alpha, rel_tol):
            lam0 = lambda0(alpha, tri.S)
            return fem.EigenResult(lambda1=lam0, eigenvector=None, iterations=0,
                                   residual=0.0, history=(lam0 * (1.0 + 1e-6),))

        monkeypatch.setattr(fem, "eigenvalue_converged", ladder)
        code, out, _ = run(capsys, ["verify", "--suite", "perimeter", f"--alpha={alpha}"])
        assert code == EXIT_OK
        header, *rows, _ = out.splitlines()
        rows = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert len(rows) == 15 and all(float(row["gamma"]) < 1.0 for row in rows)
        assert [row["margin_link2"] for row in rows if not float(row["margin_link2"]) < 0.0] == []

    def test_unconverged_claimed_rows_leave_the_suite_unresolved(self, capsys, monkeypatch):
        """Claimed rows whose ladders stopped at their level cap with no level
        value below the target neither pass nor fail the suite: they read
        undecided, and the suite is UNRESOLVED and exits 2, although their
        extrapolations lie below lambda0.  The ladder is stubbed: on the a = 0
        column its levels stay within the margin above the scaled lambda0 and
        it is unconverged; elsewhere its last level clears lambda0."""
        def ladder(tri, alpha, rel_tol):
            lam0, capped = lambda0(alpha, tri.S), tri.a == 0.0
            last = lam0 * (1.0 + (1e-11 if capped else 1e-6))
            return fem.EigenResult(lambda1=lam0 * (1.0 + 1e-3), eigenvector=None, iterations=0,
                                   residual=0.0, converged=not capped,
                                   history=(0.9 * lam0, last))

        monkeypatch.setattr(fem, "eigenvalue_converged", ladder)
        code, out, _ = run(capsys, ["verify", "--suite", "perimeter", "--alpha", "-0.5"])
        assert code == EXIT_NUMERIC
        header, *rows, last = out.splitlines()
        rows = [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert sorted((float(row["a"]) == 0.0, row["verdict"], row["status"]) for row in rows) == (
            [(False, "1", "ok")] * 10 + [(True, "0", "undecided")] * 5)
        assert last == "verify perimeter: UNRESOLVED (5 of 15 claimed rows undecided)"

    def test_local_suite_past_the_claim_makes_no_claim(self, capsys, monkeypatch):
        """alpha = -1.5 lies past the simple threshold -0.92/sqrt(S) at the
        default area: the row is not claimed, and the suite passes with no
        claim.  The derivative ladder is stubbed."""
        def settled(tri, alpha):
            return ShapeDerivatives(lambda1=-7.0, grad_a=0.0, grad_c=0.0, hess_aa=-20.0,
                                    hess_cc=-240.0, hess_ac=0.0, converged=True)

        monkeypatch.setattr(fem, "shape_derivatives", settled)
        code, out, _ = run(capsys, ["verify", "--suite", "local", "--alpha=-1.5"])
        assert code == EXIT_OK
        cells = dict(zip(*(line.split(",") for line in out.splitlines()[:2])))
        assert (cells["claimed"], cells["verdict"], cells["status"]) == ("0", "0", "no-claim")
        assert out.splitlines()[-1] == "verify local: no claim at this coupling"

    def test_local_suite_fails_on_a_claimed_failing_row(self, capsys, monkeypatch):
        """A claimed row whose derivatives cannot be computed fails the suite."""
        def fail(tri, alpha):
            raise NumericError("forced failure")

        monkeypatch.setattr(fem, "shape_derivatives", fail)
        code, out, _ = run(capsys, ["verify", "--suite", "local", "--alpha", "-0.5"])
        assert code == EXIT_NUMERIC
        cells = dict(zip(*(line.split(",") for line in out.splitlines()[:2])))
        assert (cells["claimed"], cells["verdict"], cells["status"]) == ("1", "0", "numeric-error")
        assert out.rstrip().endswith("verify local: FAILED")

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run(capsys, ["verify", "--suite", "everything"])
        assert code == EXIT_USAGE


class TestTopLevel:
    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    def test_no_arguments_is_usage_error(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, capsys):
        code = main(["equilateral", "--alpha", "-1", "--area", "1", "--frobnicate"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["equilateral", "--alpha", "-1e-3", "--area", "1"],
        ["equilateral", "--alpha", "-1E-2", "--area", "1"],
        ["equilateral", "--alpha", "-1.", "--area", "1"],
        ["equilateral", "--alpha", "-.5e+1", "--area", "1"],
        ["equilateral", "--alpha", "-1", "--area", "-1e0"],
        ["eigen", "--a", "-2e-1", "--c", "0.6", "--area", "0.5", "--alpha", "-1e0",
         "--max-level", "4"],
        ["verify", "--suite", "local", "--alpha", "-1E-2"],
    ], ids=["exponent", "capital-exponent", "trailing-point", "point-and-plus",
            "negative-area", "eigen", "verify"])
    def test_a_negative_number_is_a_value(self, argv, capsys):
        """argparse alone takes -1e-3 and -1. for option names ("expected one
        argument").  Each flag followed by a negative number prints what its
        --flag=value form prints and exits the same way."""
        pairs = iter(argv[1:])
        joined = [argv[0], *(f"{flag}={value}" for flag, value in zip(pairs, pairs))]
        spaced = run(capsys, argv)
        assert spaced == run(capsys, joined)
        assert "expected one argument" not in spaced[2]

    def test_a_negative_non_number_is_still_an_option(self, capsys):
        code, _, err = run(capsys, ["equilateral", "--alpha", "-x", "--area", "1"])
        assert code == EXIT_USAGE
        assert "--alpha: expected one argument" in err
