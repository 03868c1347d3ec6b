"""Grid-scan driver tests: config validation, the per-mode sweeps,
deterministic CSV/SVG output, and the verification helpers."""

import math
from functools import partial
from itertools import islice

import numpy as np
import pytest
from oracles import exact_sector_quotient

import robintri
from robintri import equilateral, fem, geometry, scan, trial
from robintri.equilateral import c0, lambda0
from robintri.errors import DomainError, NumericError, ResourceError
from robintri.fem import ShapeDerivatives
from robintri.geometry import make_triangle
from robintri.scan import (
    MODES,
    ScanConfig,
    emit_csv,
    emit_svg,
    parse_config,
    run_scan,
    soundness_sweep,
)

S_THIRD = 1.0 / math.sqrt(3.0)


def _single_coupling_scan(mode: str, alpha: float, S: float = S_THIRD, **fields):
    """run_scan of a mode at the one coupling alpha, as the verify suites preset it."""
    return run_scan(ScanConfig(mode=mode, alpha_range=(alpha, alpha, 1), S=S, **fields))


# the smallest perimeter-variant grid: a and c are ranges of at least two points
_PERIMETER_AXES = {"a_range": (0.0, 0.4, 2), "c_range": (0.5, 0.6, 2)}


class TestScanConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(DomainError):
            ScanConfig(mode="spectral-flow")

    def test_alpha_range_must_stay_negative(self):
        for hi in (0.0, 0.5):
            with pytest.raises(DomainError):
                ScanConfig(mode="transplant-region", alpha_range=(-1.0, hi, 4))

    def test_rejects_reversed_range(self):
        with pytest.raises(DomainError):
            ScanConfig(mode="transplant-region", alpha_range=(-0.5, -2.0, 4))

    @pytest.mark.parametrize("field,rng", [
        ("a_range", (-math.inf, -1.0, 3)),
        ("a_range", (0.0, math.inf, 3)),
        ("a_range", (0.0, math.nan, 3)),
        ("alpha_range", (-math.inf, -1.0, 3)),
        ("alpha_range", (math.nan, -1.0, 3)),
    ])
    def test_range_endpoints_must_be_finite(self, field, rng, monkeypatch):
        """A non-finite endpoint would put NaN on an axis; the config is refused
        before any cell runs."""
        calls = []
        monkeypatch.setattr(scan, "_cell_constant", lambda task, **_: calls.append(task))
        with pytest.raises(DomainError, match="endpoints must be finite"):
            run_scan(ScanConfig(mode="constant-region", **{field: rng}))
        assert not calls

    def test_collapsed_range_needs_equal_endpoints(self):
        with pytest.raises(DomainError):
            ScanConfig(mode="monotonicity", alpha_range=(-2.0, -1.0, 1))
        # a genuinely collapsed range is fine where the mode permits it
        cfg = ScanConfig(mode="monotonicity", alpha_range=(-2.0, -2.0, 1))
        assert cfg.alpha_range == (-2.0, -2.0, 1)
        # region modes grid over alpha and refuse the collapse outright
        with pytest.raises(DomainError):
            ScanConfig(mode="transplant-region", alpha_range=(-2.0, -2.0, 1))

    @pytest.mark.parametrize("mode", ["local-optimality", "monotonicity"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, math.nan, math.inf, -math.inf])
    def test_single_coupling_must_be_finite_and_negative(self, mode, alpha):
        with pytest.raises(DomainError, match="alpha_range"):
            ScanConfig(mode=mode, alpha_range=(alpha, alpha, 1))

    def test_gcurve_axis_stays_inside_open_unit_interval(self):
        with pytest.raises(DomainError):
            ScanConfig(mode="g-curve", a_range=(0.5, 1.0, 8))
        with pytest.raises(DomainError):
            ScanConfig(mode="g-curve", a_range=(0.0, 0.5, 8))

    def test_region_modes_take_no_c_range(self):
        with pytest.raises(DomainError):
            ScanConfig(mode="transplant-region", c_range=(0.5, 1.0, 3))

    @pytest.mark.parametrize("mode,field,value", [
        ("transplant-region", "anchor_left", True),
        ("transplant-region", "fem_rel_tol", 1e-3),
        ("sector-region", "fem_rel_tol", 1e-3),
        ("g-curve", "alpha_range", (-2.0, -1.0, 3)),
        ("g-curve", "S", 1.0),
        ("local-optimality", "c_fixed", 0.8),
        ("monotonicity", "a_range", (0.0, 1.0, 3)),
        ("monotonicity", "fem_rel_tol", 1e-4),
        ("fem-conjecture", "c_fixed", 0.8),
        # values the reading modes refuse: the unread field is named, not the rule
        ("g-curve", "fem_rel_tol", math.nan),
        ("g-curve", "S", math.nan),
        ("monotonicity", "c_fixed", -1.0),
    ])
    def test_fields_the_mode_does_not_read_are_refused(self, mode, field, value):
        with pytest.raises(DomainError, match=f"does not read {field}"):
            ScanConfig(mode=mode, **{field: value})

    def test_unread_fields_at_their_defaults_are_accepted(self):
        ScanConfig(mode="transplant-region", anchor_left=False, fem_rel_tol=1e-6,
                   c_range=None, emit_svg=True)
        ScanConfig(mode="sector-region", anchor_left=True, c_fixed=0.8)

    def test_fem_conjecture_requires_c_range(self):
        with pytest.raises(DomainError):
            ScanConfig(mode="fem-conjecture")

    def test_perimeter_variant_needs_single_alpha(self):
        with pytest.raises(DomainError):
            ScanConfig(
                mode="perimeter-variant",
                alpha_range=(-2.0, -1.0, 3),
                c_range=(0.4, 0.7, 2),
            )

    def test_scalar_parameter_validation(self):
        with pytest.raises(DomainError):
            ScanConfig(mode="transplant-region", S=0.0)
        for c in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="c_fixed must be positive and finite"):
                ScanConfig(mode="transplant-region", c_fixed=c)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ScanConfig(mode="transplant-region", fem_rel_tol=tol)

    def test_range_count_must_be_whole(self):
        for n in (2.7, math.nan, math.inf, "3"):
            with pytest.raises(DomainError, match="whole number"):
                ScanConfig(mode="transplant-region", a_range=(0.0, 1.0, n))
        # an integral float count records the same header as the int
        whole = scan._provenance(ScanConfig(mode="transplant-region", a_range=(0.0, 1.0, 60.0)))
        assert whole == scan._provenance(ScanConfig(mode="transplant-region",
                                                    a_range=(0.0, 1.0, 60)))
        assert whole["a_range"] == "0,1,60"

    def test_grid_cell_count_is_capped(self):
        """The cap is on the product of the point counts of the ranges the mode
        reads, and is checked before any axis is built."""
        cap = scan._MAX_CELLS
        ScanConfig(mode="transplant-region", alpha_range=(-2.0, -1.0, cap // 1000),
                   a_range=(0.0, 1.0, 1000))
        for mode, ranges in [
            ("transplant-region", {"alpha_range": (-2.0, -1.0, cap // 1000 + 1),
                                   "a_range": (0.0, 1.0, 1000)}),
            # 60 default couplings times 500 x 500 (a, c) cells
            ("fem-conjecture", {"a_range": (0.0, 1.0, 500), "c_range": (0.5, 1.0, 500)}),
            ("g-curve", {"a_range": (0.1, 0.9, 1e300)}),
            # whole counts past float64's range
            ("g-curve", {"a_range": (0.1, 0.9, 10**400)}),
            ("fem-conjecture", {"c_range": (0.5, 1.0, 10**400)}),
        ]:
            with pytest.raises(ResourceError, match="points exceeds the cap of 10000000 cells"):
                ScanConfig(mode=mode, **ranges)
        with pytest.raises(ResourceError, match=r"grid of 60 x 60 x 1e\+400 points"):
            ScanConfig(mode="fem-conjecture", c_range=(0.5, 1.0, 10**400))

    def test_unset_a_range_resolves_per_mode(self):
        """g-curve's t axis spans the sign change of g; the (a, alpha) modes grid
        a over [0, 5]; a mode that reads no a_range keeps it unset."""
        assert ScanConfig(mode="g-curve").a_range == (0.05, 0.995, 95)
        assert ScanConfig(mode="transplant-region").a_range == (0.0, 5.0, 60)
        assert ScanConfig(mode="fem-conjecture", c_range=(0.5, 1.0, 2)).a_range == (0.0, 5.0, 60)
        assert ScanConfig(mode="monotonicity").a_range is None
        assert ScanConfig(mode="g-curve", a_range=(0.5, 0.6, 3)).a_range == (0.5, 0.6, 3)

    def test_svg_may_not_overwrite_the_csv(self, tmp_path, monkeypatch):
        """run_scan writes the heatmap to svg_path; an output_path that is
        already that path is refused before any cell runs."""
        calls = []
        monkeypatch.setattr(scan, "_cell_constant", lambda task, **_: calls.append(task))
        for path in ("heat.svg", str(tmp_path / "heat.svg")):
            with pytest.raises(DomainError, match="would overwrite the CSV"):
                run_scan(ScanConfig(mode="constant-region", output_path=path, emit_svg=True))
        assert not calls and not (tmp_path / "heat.svg").exists()
        # without the heatmap the CSV may take any name
        assert ScanConfig(mode="constant-region", output_path="heat.svg").svg_path == "heat.svg"
        assert ScanConfig(mode="g-curve", output_path="out/g.csv").svg_path == "out/g.svg"

    def test_empty_output_path_is_refused(self):
        with pytest.raises(DomainError, match="output_path must be non-empty"):
            ScanConfig(mode="g-curve", output_path="")

    def test_resolved_c_defaults_to_equilateral(self):
        cfg = ScanConfig(mode="transplant-region")
        assert abs(cfg.resolved_c() - c0(cfg.S)) < 1e-15
        assert ScanConfig(mode="transplant-region", c_fixed=0.9).resolved_c() == 0.9


class TestParseConfig:
    def _write(self, tmp_path, text):
        path = tmp_path / "scan.cfg"
        path.write_text(text)
        return str(path)

    def test_round_trip(self, tmp_path):
        path = self._write(
            tmp_path,
            "# demo config\n"
            "mode = transplant-region\n"
            "alpha_range = -4.0, -0.1, 12\n"
            "a_range = 0.0, 2.5, 9\n"
            "c_fixed = 0.8\n"
            "S = 1.0\n"
            "emit_svg = yes\n"
            "output_path = out/region.csv\n",
        )
        cfg = parse_config(path)
        assert cfg.mode == "transplant-region"
        assert cfg.alpha_range == (-4.0, -0.1, 12)
        assert cfg.a_range == (0.0, 2.5, 9)
        assert cfg.c_fixed == 0.8
        assert cfg.S == 1.0
        assert cfg.emit_svg is True
        assert cfg.output_path == "out/region.csv"

    @pytest.mark.parametrize("word,flag", [("true", True), ("1", True), ("Yes", True),
                                           ("false", False), ("0", False), ("no", False)])
    def test_every_field_kind(self, tmp_path, word, flag):
        """Each value is read as its ScanConfig field's type."""
        cfg = parse_config(self._write(
            tmp_path,
            f"mode = sector-region\nemit_svg = {word}\nanchor_left = {word}\nc_fixed = 0.8\n",
        ))
        assert (cfg.emit_svg, cfg.anchor_left, cfg.c_fixed) == (flag, flag, 0.8)
        assert type(cfg.emit_svg) is bool and type(cfg.anchor_left) is bool
        cfg = parse_config(self._write(
            tmp_path, "mode = fem-conjecture\nc_range = 0.5, 1.5, 3\nfem_rel_tol = 1e-5\n",
        ))
        assert cfg.c_range == (0.5, 1.5, 3) and type(cfg.c_range[2]) is int
        assert cfg.fem_rel_tol == 1e-5

    @pytest.mark.parametrize("line,text", [("anchor_left = maybe", "must be true/false"),
                                           ("c_range = 0.5, 1.5", "needs 'lo,hi,n'"),
                                           ("S = big", "bad S"),
                                           # the range rule's text, not a parse error
                                           ("c_range = 0.5, 1.5, 2.5", "must be a whole number"),
                                           ("c_range = 0.5, 1.5, nan", "must be a whole number"),
                                           ("version = 1", "unknown config key"),
                                           ("S 0.5", ":2: expected 'key = value'")])
    def test_error_texts(self, tmp_path, line, text):
        with pytest.raises(DomainError, match=text):
            parse_config(self._write(tmp_path, f"mode = fem-conjecture\n{line}\n"))

    def test_whole_point_count_reads_as_int_in_any_spelling(self, tmp_path):
        cfg = parse_config(self._write(tmp_path, "mode = constant-region\na_range = 0, 1, 60.0\n"))
        assert cfg.a_range == (0.0, 1.0, 60) and type(cfg.a_range[2]) is int
        assert scan._provenance(cfg)["a_range"] == "0,1,60"

    def test_file_that_is_not_utf8_is_refused(self, tmp_path):
        path = tmp_path / "scan.cfg"
        path.write_bytes(b"mode = g-curve\n# \xff\n")
        with pytest.raises(DomainError, match="is not UTF-8 text: invalid start byte at byte 17"):
            parse_config(str(path))

    def test_directory_is_refused(self, tmp_path):
        with pytest.raises(DomainError, match="cannot read config"):
            parse_config(str(tmp_path))

    def test_grid_past_the_cell_cap_is_refused(self, tmp_path):
        path = self._write(tmp_path, "mode = g-curve\na_range = 0.1, 0.9, 1e300\n")
        with pytest.raises(ResourceError, match="g-curve grid of 1e[+]300 points exceeds the cap"):
            parse_config(path)

    def test_repeated_key_is_refused(self, tmp_path):
        path = self._write(tmp_path, "mode = g-curve\nS = 0.5\nmode = constant-region\n"
                                     "S = 0.7\n")
        with pytest.raises(DomainError, match=":3: mode is already set on line 1"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self._write(tmp_path, "mode = g-curve\nmesh_budget = 12\n")
        with pytest.raises(DomainError):
            parse_config(path)

    def test_missing_mode_rejected(self, tmp_path):
        path = self._write(tmp_path, "a_range = 0.91, 0.96, 5\n")
        with pytest.raises(DomainError):
            parse_config(path)

    def test_overrides_replace_file_values(self, tmp_path):
        path = self._write(tmp_path, "mode = g-curve\na_range = 0.91, 0.96, 5\n")
        cfg = parse_config(path, overrides={"a_range": (0.5, 0.6, 3), "emit_svg": True})
        assert cfg.a_range == (0.5, 0.6, 3)
        assert cfg.emit_svg is True
        assert cfg.mode == "g-curve"
        # None-valued overrides (unset CLI flags) leave the file value alone
        cfg2 = parse_config(path, overrides={"a_range": None})
        assert cfg2.a_range == (0.91, 0.96, 5)

    def test_malformed_range_rejected(self, tmp_path):
        path = self._write(tmp_path, "mode = g-curve\na_range = 0.91, 0.96\n")
        with pytest.raises(DomainError):
            parse_config(path)

    def test_non_finite_tolerance_rejected(self, tmp_path):
        for value in ("nan", "inf"):
            path = self._write(tmp_path, f"mode = perimeter-variant\nfem_rel_tol = {value}\n")
            with pytest.raises(DomainError, match="finite"):
                parse_config(path)


class TestGCurve:
    def test_sign_flip_bracket(self):
        """The sign change of the threshold curve falls inside [0.94, 0.95]."""
        res = run_scan(ScanConfig(mode="g-curve", a_range=(0.90, 0.97, 29)))
        ts = [row[0] for row in res.rows]
        gs = [row[1] for row in res.rows]
        flips = [
            (ts[i], ts[i + 1])
            for i in range(len(gs) - 1)
            if gs[i] < 0.0 <= gs[i + 1]
        ]
        assert len(flips) == 1
        lo, hi = flips[0]
        assert 0.94 <= lo and hi <= 0.95

    def test_verdict_marks_negative_side(self):
        res = run_scan(ScanConfig(mode="g-curve", a_range=(0.5, 0.9, 5)))
        for t, g, verdict, status in res.rows:
            assert status == "ok"
            assert verdict == int(g < 0.0)


class TestRegionModes:
    @pytest.mark.parametrize("mode", ["transplant-region", "constant-region",
                                      "condition-region", "sector-region"])
    def test_each_coupling_solved_and_each_shape_built_once(self, mode, monkeypatch):
        """On the benchmark's 7x7 grid a scan solves the coupling equation at
        most once per alpha (solve_equilateral's memo, emptied first) and
        builds each triangle once per a (three corners, _plan's per-scan
        memo).  Each cell solving and building for itself makes 98 to 105
        solves on the transplant scan and 147 corners on every scan."""
        solve_t, corner = equilateral._solve_t, geometry.corner
        counts = {"solves": 0, "corners": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(equilateral, "_solve_t", counted("solves", solve_t))
        monkeypatch.setattr(geometry, "corner", counted("corners", corner))
        equilateral._solve.cache_clear()
        res = run_scan(ScanConfig(mode=mode, alpha_range=(-10.0, -0.01, 7),
                                  a_range=(0.0, 5.0, 7)))
        assert len(res.rows) == 49
        assert counts["solves"] <= 7  # condition-region solves none
        assert 0 < counts["corners"] <= 3 * 7

    def test_verdicts_are_dilation_invariant(self):
        """(alpha, S, a, c) -> (alpha/sqrt(k), k S, sqrt(k) a, sqrt(k) c)
        scales every eigenvalue by 1/k and leaves delta as it is.  On 300
        seeded cells (beta = -alpha sqrt(sqrt(3) S) = 10^U(-6, log10 20), one
        shape per cell, the first the flat-floor cell (0.5, 0.9) at beta =
        1e-6) at S = 1e-4, 1 and 1e4, every region mode gives the same
        verdicts and statuses, and values that agree to 1e-12 once scaled.  A
        margin with an absolute floor flips constant and sector verdicts at
        S = 1e4, where lambda0 is about -3.5e-10 at beta = 1e-6."""
        evaluators = {"transplant-region": scan._cell_transplant,
                      "constant-region": scan._cell_constant,
                      "condition-region": scan._cell_condition,
                      "sector-region": partial(scan._cell_sector, anchor_left=False)}
        gen = np.random.default_rng(20261020)
        for i in range(300):
            beta = 1e-6 if i == 0 else float(10.0 ** gen.uniform(-6.0, math.log10(20.0)))
            a, c = (0.5, 0.9) if i == 0 else (float(gen.uniform(-1.5, 1.5)),
                                              float(10.0 ** gen.uniform(-0.7, 0.5)))
            for mode, cell in evaluators.items():
                rows = {}
                for S in (1e-4, 1.0, 1e4):
                    r, alpha = math.sqrt(S), -beta / math.sqrt(math.sqrt(3.0) * S)
                    fn = partial(cell, shape=partial(make_triangle, c=c * r, S=S), S=S)
                    rows[S] = scan._isolated(mode, fn, (alpha, a * r))
                power = 0.0 if mode == "transplant-region" else 1.0
                base = rows[1.0]
                for S, row in rows.items():
                    assert row[-2:] == base[-2:], (mode, beta, a, c, S, row, base)
                    for v, w in zip(row[2:-2], base[2:-2]):
                        assert abs(v * S**power - w) <= 1e-12 * abs(w), (mode, beta, a, c, S)

    def test_transplant_weak_coupling_certifies_every_skew(self):
        res = run_scan(
            ScanConfig(
                mode="transplant-region",
                alpha_range=(-6.0, -0.05, 3),
                a_range=(0.0, 2.0, 7),
            )
        )
        weak = res.verdict_grid[-1]  # alpha = -0.05 is the last row
        assert weak[0] == 0  # equilateral cell is never strictly below
        assert all(v == 1 for v in weak[1:])
        strong = res.verdict_grid[0]  # alpha = -6
        assert sum(strong) < sum(weak)

    def test_transplant_delta_vanishes_at_equilateral(self):
        res = run_scan(
            ScanConfig(
                mode="transplant-region",
                alpha_range=(-2.0, -0.5, 2),
                a_range=(0.0, 1.0, 2),
            )
        )
        eq_rows = [row for row in res.rows if row[1] == 0.0]
        assert len(eq_rows) == 2
        for row in eq_rows:
            assert abs(row[2]) < 1e-10

    def test_transplant_reflection_symmetry(self):
        """A symmetric a-axis produces a palindromic verdict grid."""
        res = run_scan(
            ScanConfig(
                mode="transplant-region",
                alpha_range=(-1.5, -0.1, 3),
                a_range=(-1.2, 1.2, 7),
            )
        )
        for iy in range(len(res.verdict_grid)):
            row = res.verdict_grid[iy]
            assert row == tuple(reversed(row))

    def test_constant_region_grows_towards_weak_coupling(self):
        res = run_scan(
            ScanConfig(
                mode="constant-region",
                alpha_range=(-2.0, -0.05, 4),
                a_range=(0.0, 2.0, 5),
            )
        )
        counts = [sum(row) for row in res.verdict_grid]
        assert counts == sorted(counts)  # weaker coupling certifies at least as much
        assert counts[-1] > 0

    def test_condition_region_grows_towards_strong_coupling(self):
        res = run_scan(
            ScanConfig(
                mode="condition-region",
                alpha_range=(-9.0, -1.0, 4),
                a_range=(0.0, 2.5, 6),
            )
        )
        counts = [sum(row) for row in res.verdict_grid]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]
        # the equilateral column never satisfies the strict condition
        assert all(row[0] == 0 for row in res.verdict_grid)

    def test_condition_cells_evaluate_the_closed_chain_once(self, monkeypatch):
        """Each condition cell computes its closed sector bound and its lower
        bound once, wherever they are looked up, and reads the verdict off
        that printed pair; the equilateral column still prints its pair, with
        status domain-error."""
        calls = {"sector_closed_upper": 0, "lambda0_lower_bound": 0}

        def counting(name):
            orig = getattr(trial, name)

            def wrapper(*args):
                calls[name] += 1
                return orig(*args)
            return wrapper

        for name in calls:
            for module in (scan, trial):
                monkeypatch.setattr(module, name, counting(name))
        res = run_scan(ScanConfig(mode="condition-region", alpha_range=(-9.0, -1.0, 4),
                                  a_range=(0.0, 2.5, 5)))
        assert calls == {"sector_closed_upper": 20, "lambda0_lower_bound": 20}
        for _, a, closed, lower, verdict, status in res.rows:
            assert math.isfinite(closed) and math.isfinite(lower)
            assert status == ("domain-error" if a == 0.0 else "ok")
            assert verdict == int(status == "ok" and trial.strictly_below(closed, lower))

    def test_sector_rayleigh_never_beats_closed_value(self):
        res = run_scan(
            ScanConfig(
                mode="sector-region",
                alpha_range=(-9.0, -2.0, 3),
                a_range=(0.2, 2.0, 5),
            )
        )
        for _, _, rayleigh, closed, _, _, status in res.rows:
            assert status == "ok"
            assert rayleigh <= closed + 1e-9 * abs(closed)

    def test_underflowing_sector_cell_is_a_numeric_error_row(self):
        """A flat cell where the side quadrature finds no mass in the sector
        field's boundary layer, (50, 0.5, 1) at alpha -10, is one typed row;
        the scan and its other cells run on, and the flat cells (20, 0.5, 1)
        at -10 and (50, 0.5, 1) at -1 read the exact quotient."""
        res = run_scan(ScanConfig(mode="sector-region", alpha_range=(-10.0, -1.0, 2),
                                  a_range=(20.0, 50.0, 2), c_fixed=0.5, S=1.0))
        assert [(row[0], row[1], row[-1]) for row in res.rows] == [
            (-10.0, 20.0, "ok"), (-10.0, 50.0, "numeric-error"),
            (-1.0, 20.0, "ok"), (-1.0, 50.0, "ok")]
        for row in (res.rows[0], res.rows[3]):
            exact = exact_sector_quotient(row[0], make_triangle(row[1], 0.5, 1.0))
            assert abs(row[2] - exact) <= 1e-13 * abs(exact), row

    @pytest.mark.parametrize("mode", ["sector-region", "condition-region"])
    def test_zero_angle_cell_is_a_domain_error_row(self, mode):
        """At a = 1e17 the smallest angle rounds to 0, where the sector field
        has no rate: those cells are typed rows and the a = 0 cells read ok."""
        assert make_triangle(1e17, 0.5, 1.0).theta_star == 0.0
        res = run_scan(ScanConfig(mode=mode, alpha_range=(-2.0, -1.0, 2),
                                  a_range=(0.0, 1e17, 2), c_fixed=0.5, S=1.0))
        assert [(row[0], row[1], row[-1]) for row in res.rows] == [
            (-2.0, 0.0, "ok"), (-2.0, 1e17, "domain-error"),
            (-1.0, 0.0, "ok"), (-1.0, 1e17, "domain-error")]

    def test_overflowing_rate_square_is_a_domain_error_row(self):
        """At c = 1e-100 the closed sector value's squared rate overflows
        float64 on every cell: each is a typed row and the scan completes."""
        res = run_scan(ScanConfig(mode="condition-region", alpha_range=(-2.0, -1.0, 2),
                                  a_range=(0.0, 1.0, 2), c_fixed=1e-100, S=1.0))
        assert [(row[0], row[1], row[-1]) for row in res.rows] == [
            (-2.0, 0.0, "domain-error"), (-2.0, 1.0, "domain-error"),
            (-1.0, 0.0, "domain-error"), (-1.0, 1.0, "domain-error")]

    @pytest.mark.parametrize("mode", ["transplant-region", "constant-region"])
    def test_zero_height_cell_is_a_domain_error_row(self, mode):
        """At c = 1e100, S = 1e-300 the apex height S/c underflows to 0 and the
        triangle is a segment: every cell is a domain-error row, where delta
        and the constant bound would read -inf with verdict 1."""
        res = run_scan(ScanConfig(mode=mode, alpha_range=(-2.0, -1.0, 2),
                                  a_range=(0.0, 1.0, 2), c_fixed=1e100, S=1e-300))
        assert [(row[0], row[1], row[-2], row[-1]) for row in res.rows] == [
            (-2.0, 0.0, 0, "domain-error"), (-2.0, 1.0, 0, "domain-error"),
            (-1.0, 0.0, 0, "domain-error"), (-1.0, 1.0, 0, "domain-error")]

    @pytest.mark.parametrize("mode,alphas,c,S", [
        ("transplant-region", (-100.0, -50.0, 2), 1e-150, 1.0),
        ("constant-region", (-1e10, -5e9, 2), 1.0, 1e-300)])
    def test_certificate_past_float64_is_a_numeric_error_row(self, mode, alphas, c, S):
        """A delta or constant bound that leaves float64 (nan, inf or -inf) is a
        numeric-error row with verdict 0, never an ok row."""
        res = run_scan(ScanConfig(mode=mode, alpha_range=alphas, a_range=(0.0, 1.0, 2),
                                  c_fixed=c, S=S))
        assert [(row[-2], row[-1]) for row in res.rows] == [(0, "numeric-error")] * 4

    def test_zero_angle_soundness_cell_is_a_typed_row(self):
        """The zero-angle cell's sector condition is a domain error, which the
        sweep reads as no certificate.  The constant bound certifies the cell,
        and the FEM oracle refuses its degenerate mesh: one typed row."""
        (row,) = soundness_sweep([-2.0], [1e17], c=0.5, S=1.0).rows
        assert row[:2] == (-2.0, 1e17) and row[-1] == "numeric-error"


class TestFemModes:
    def test_conjecture_grid_margins(self):
        cc = c0(S_THIRD)
        res = run_scan(
            ScanConfig(
                mode="fem-conjecture",
                alpha_range=(-1.0, -1.0, 1),
                a_range=(0.0, 0.6, 2),
                c_range=(0.8 * cc, 1.2 * cc, 2),
                fem_rel_tol=1e-4,
            )
        )
        assert res.columns[3] == "lambda_fem" and res.columns[6] == "margin"
        for row in res.rows:
            assert row[-1] == "ok"
            assert row[-2] == 1
            lam_fem, err, lam0 = row[3], row[4], row[5]
            assert lam_fem <= lam0 + 10.0 * err + 1e-9 * abs(lam0)

    def test_perimeter_variant_chain(self):
        """Perimeter-normalised comparison splits into two negative links
        away from the equilateral, and both collapse to zero on it."""
        cc = c0(S_THIRD)
        res = _single_coupling_scan("perimeter-variant", -0.5, a_range=(0.0, 0.4, 2),
                                    c_range=(0.8 * cc, cc, 2))
        assert res.axes == {"a": (0.0, 0.4), "c": (0.8 * cc, cc)}
        assert [row[:2] for row in res.rows] == [
            (0.0, 0.8 * cc), (0.0, cc), (0.4, 0.8 * cc), (0.4, cc)]
        by_cell = {(row[0], row[1]): row for row in res.rows}
        eq = by_cell[(0.0, cc)]
        assert abs(eq[7]) < 1e-6  # lambda_fem - lambda0(scaled) at equilateral
        assert eq[8] == 0.0  # gamma = 1 so the dilation link vanishes
        # every level value of the equilateral triangle lies above lambda0
        assert eq[10:] == (0, "undecided")
        skew = by_cell[(0.4, 0.8 * cc)]
        assert skew[7] < 0.0 and skew[8] < 0.0 and skew[9] < 0.0
        assert all(row[10:] == (1, "ok") for cell, row in by_cell.items() if cell != (0.0, cc))

    def test_conjecture_verdict_reads_the_level_values(self, monkeypatch):
        """A fem-conjecture cell is decided exactly when one of its ladder's
        level values, each a conforming upper bound, lies strictly below
        lambda0.  The equilateral cell's values all lie above it, so the cell
        reads (0, "undecided"), whatever its extrapolation reads."""
        ladders = {}
        ladder = fem.eigenvalue_converged

        def recorded(tri, alpha, rel_tol):
            ladders[(tri.a, tri.c)] = res = ladder(tri, alpha, rel_tol=rel_tol)
            return res

        monkeypatch.setattr(fem, "eigenvalue_converged", recorded)
        cc = c0(S_THIRD)
        res = _single_coupling_scan("fem-conjecture", -1.0, a_range=(0.0, 0.4, 2),
                                    c_range=(cc, 1.2 * cc, 2), fem_rel_tol=1e-4)
        assert len(res.rows) == len(ladders) == 4
        lam0 = lambda0(-1.0, S_THIRD)
        for row in res.rows:
            _, a, c, lam_fem, err, row_lam0, margin, verdict, status = row
            history = ladders[(a, c)].history
            assert row_lam0 == lam0 and margin == lam_fem - lam0
            decided = any(trial.strictly_below(v, lam0) for v in history)
            assert (verdict, status) == ((1, "ok") if decided else (0, "undecided")), row
            if (a, c) == (0.0, cc):
                assert verdict == 0 and min(history) > lam0
        assert sum(row[-2] for row in res.rows) == 3

    @pytest.mark.parametrize("evaluator", ["fem-conjecture", "perimeter-variant"])
    @pytest.mark.parametrize("deciding", [True, False], ids=["deciding", "never-below"])
    def test_stubbed_ladder_decides_by_its_levels(self, evaluator, deciding, monkeypatch):
        """Only the history decides, not the extrapolation or converged: an
        unconverged ladder whose extrapolation lies above the target but whose
        last level lies below it reads (1, "ok"); a converged ladder whose
        extrapolation lies below the target but whose levels stay within the
        margin above it reads (0, "undecided")."""
        def ladder(tri, alpha, rel_tol):
            lam0 = lambda0(alpha, tri.S)
            last = lam0 * (1.0 + 1e-6) if deciding else lam0 * (1.0 + 1e-11)
            return fem.EigenResult(lambda1=lam0 * (1.0 - 1e-3 if deciding else 1.0 + 1e-3),
                                   eigenvector=None, iterations=0, residual=1e-3,
                                   converged=not deciding, history=(0.9 * lam0, last))

        monkeypatch.setattr(fem, "eigenvalue_converged", ladder)
        if evaluator == "fem-conjecture":
            row = scan._cell_fem((-2.0, 0.3, 0.7), S=S_THIRD, rel_tol=1e-6)
        else:
            row = scan._cell_perimeter((0.3, 0.7), alpha=-2.0, S=S_THIRD, rel_tol=1e-6)
        assert row[-2:] == ((1, "ok") if deciding else (0, "undecided"))

    def test_monotone_in_area(self):
        res = _single_coupling_scan("monotonicity", -0.5)
        (row,) = res.rows
        _, l_half, l_base, l_twice, slope, verdict, status = row
        assert status == "ok" and verdict == 1
        assert l_half < l_base < l_twice < 0.0
        assert slope > 0.0

    def test_monotone_rows_hold_at_every_coupling(self):
        """Verdict 1 and status ok from weak coupling to past alpha = -370,
        where the derivative underflows to 0 and lambda0 at S/2, S and 2S
        agrees to a few ulps: the verdict reads the derivative's factors."""
        res = run_scan(ScanConfig(mode="monotonicity", alpha_range=(-400.0, -1e-6, 41)))
        assert {row[-2:] for row in res.rows} == {(1, "ok")}
        assert res.rows[0][4] == 0.0 and res.rows[-1][4] > 0.0

    @pytest.mark.parametrize("alpha_values,a_values", [([], [0.5]), ([-1.0], [])],
                             ids=["empty-alpha", "empty-a"])
    def test_soundness_refuses_an_empty_axis(self, alpha_values, a_values, monkeypatch):
        """No cell at all is refused before any cell runs."""
        calls = []
        monkeypatch.setattr(scan, "_soundness_cell", lambda task, **_: calls.append(task))
        with pytest.raises(DomainError) as sound:
            soundness_sweep(alpha_values, a_values, c=S_THIRD, S=S_THIRD)
        assert str(sound.value) == (f"empty (a, alpha) grid: a values {tuple(a_values)}, "
                                    f"alpha values {tuple(alpha_values)}")
        assert not calls

    def test_soundness_rejects_a_repeated_axis_value(self, monkeypatch):
        """Two cells on one verdict-grid slot are refused before any cell runs."""
        calls = []
        monkeypatch.setattr(scan, "_soundness_cell", lambda task, **_: calls.append(task))
        with pytest.raises(DomainError, match="axis a"):
            soundness_sweep([-0.5], [0.0, 0.0], c=S_THIRD, S=S_THIRD)
        assert not calls

    def test_soundness_grid_past_the_cell_cap_is_refused(self, monkeypatch):
        """The cap of ScanConfig holds for the listed values too, checked
        before the task list is built."""
        calls = []

        def cell(task, **_):
            calls.append(task)
            return scan._failure_row("soundness", task, NumericError("stub"))

        monkeypatch.setattr(scan, "_soundness_cell", cell)
        monkeypatch.setattr(scan, "_MAX_CELLS", 3)
        with pytest.raises(ResourceError,
                           match=r"^the soundness grid of 2 x 2 points exceeds the cap of 3 cells$"):
            soundness_sweep([-0.5, -1.0], [0.0, 0.5], c=S_THIRD, S=S_THIRD)
        assert not calls
        monkeypatch.setattr(scan, "_MAX_CELLS", 4)
        soundness_sweep([-0.5, -1.0], [0.0, 0.5], c=S_THIRD, S=S_THIRD)
        assert len(calls) == 4

    def test_soundness_certified_cells_stay_sound(self):
        cc = c0(S_THIRD)
        res = soundness_sweep([-0.5, -6.0], [0.5, 2.0], cc, S_THIRD)
        assert res.provenance["fem_rel_tol"] == "0.001"
        assert len(res.rows) == 4
        certified = [row for row in res.rows if row[5] == 1]
        assert certified  # the sweep must actually exercise a certificate
        for row in res.rows:
            assert row[10] == 1  # verdict: no contradiction anywhere
            if row[5] == 1:
                assert row[9] == 1  # certified implies sound


class TestOutputs:
    def test_grid_is_linspace_bit_for_bit(self):
        """_grid, in plain floats, gives np.linspace's points to the last bit:
        on seeded ranges, collapsed ranges, n = 1 and 2, signed zeros, and a
        step that underflows to 0, where numpy scales i/(n - 1) by hi - lo."""
        rng = np.random.default_rng(20261019)
        los = rng.normal(0.0, 10.0, 400).tolist()
        widths = np.exp(rng.uniform(-40.0, 5.0, 400)).tolist()
        counts = rng.integers(2, 130, 400).tolist()
        ranges = [(lo, lo + w, n) for lo, w, n in zip(los, widths, counts) if w > 0.0]
        assert len(ranges) == 400
        denormal = (0.0, 1.5e-323, 8)  # step 3/7 of the least denormal rounds to 0
        assert denormal[1] / 7 == 0.0
        ranges += [denormal, (-2.5, -2.5, 1), (-0.0, 0.0, 1), (0.0, -0.0, 1), (1.0, 1.0, 3),
                   (0.0, 1.0, 2), (-0.0, 1.0, 3), (-1.0, 1e-300, 2), (1.0, 1.0 + 2**-52, 7),
                   (-5.0, -0.01, 60), (0.05, 0.995, 95)]
        for lo, hi, n in ranges:
            want = [x.hex() for x in np.linspace(lo, hi, n).tolist()]
            assert [x.hex() for x in scan._grid((lo, hi, n))] == want, (lo, hi, n)
        assert len(set(scan._grid(denormal))) > 2  # the i/(n - 1) branch, not lo + i*0

    @pytest.mark.parametrize("value, text", [
        (3, "3"), (np.int64(3), "3"), (True, "1"), (np.bool_(True), "1"),
        (np.int64(2**53 + 1), "9007199254740993"), (10**20, "100000000000000000000"),
        (0.1, "0.10000000000000001"), (np.float64(0.1), "0.10000000000000001"),
        (-0.0, "-0"), (math.nan, "nan"), ("ok", "ok"),
        (0.0, "0"), (math.inf, "inf"), (-math.inf, "-inf"), (5e-324, "4.9406564584124654e-324"),
        (-2.5e300, "-2.5000000000000001e+300"), (np.float64(1 / 3), "0.33333333333333331"),
        (False, "0"), (np.int64(-3), "-3")])
    def test_cell_text(self, value, text):
        """Integers of any kind print exactly, past 2^53 too, every other
        number with 17 significant digits, and text as itself.  Plain floats
        take their own branch first and print what the general one prints."""
        assert scan._format_cell(value) == text

    def test_row_of_the_wrong_width_is_refused(self):
        with pytest.raises(DomainError, match="row width 3 does not match 4 columns"):
            scan.ScanResult(mode="g-curve", columns=scan._MODE_COLUMNS["g-curve"],
                            rows=((0.5, -1.0, 1),), axes={"t": (0.5,)}, provenance={})

    def test_csv_is_byte_deterministic(self, tmp_path):
        cfg = ScanConfig(
            mode="transplant-region",
            alpha_range=(-3.0, -0.2, 3),
            a_range=(0.0, 1.5, 4),
        )
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        emit_csv(run_scan(cfg), str(first))
        emit_csv(run_scan(cfg), str(second))
        blob = first.read_bytes()
        assert blob == second.read_bytes()
        assert b"\r" not in blob
        assert blob.decode("ascii")  # pure ASCII by construction

    def test_csv_round_trips_floats_exactly(self, tmp_path):
        cfg = ScanConfig(
            mode="transplant-region",
            alpha_range=(-3.0, -0.2, 2),
            a_range=(0.0, 1.5, 3),
        )
        res = run_scan(cfg)
        # failure rows too: NaN values and a 0 flag
        failed = tuple(scan._failure_row(res.mode, (-1.0, 0.5), exc)
                       for exc in (DomainError("stub"), NumericError("stub")))
        res = scan.ScanResult(mode=res.mode, columns=res.columns, rows=res.rows + failed,
                              axes=res.axes, provenance=res.provenance)
        path = tmp_path / "rt.csv"
        emit_csv(res, str(path))
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert tuple(header) == res.columns
        assert lines[-2:] == ["-1,0.5,nan,0,domain-error", "-1,0.5,nan,0,numeric-error"]
        assert len(lines) == 1 + len(res.rows)
        for text_row, row in zip(lines[1:], res.rows):
            parts = text_row.split(",")
            for got, want in zip(parts, row):
                if isinstance(want, float):
                    assert float(got) == want or (
                        math.isnan(float(got)) and math.isnan(want)
                    )
                else:
                    assert got == str(want)

    def test_csv_header_carries_provenance(self, tmp_path):
        cfg = ScanConfig(mode="g-curve", a_range=(0.91, 0.96, 3))
        path = tmp_path / "g.csv"
        emit_csv(run_scan(cfg), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# robintri scan output"
        meta = [l for l in lines if l.startswith("# ") and " = " in l]
        keys = {l.split(" = ")[0][2:] for l in meta}
        assert "mode" in keys
        assert "timestamp" not in keys  # would break determinism

    def test_svg_deterministic_with_one_rect_per_cell(self, tmp_path):
        cfg = ScanConfig(
            mode="condition-region",
            alpha_range=(-9.0, -2.0, 3),
            a_range=(0.2, 2.0, 5),
        )
        first = tmp_path / "one.svg"
        second = tmp_path / "two.svg"
        emit_svg(run_scan(cfg), str(first))
        emit_svg(run_scan(cfg), str(second))
        text = first.read_text()
        assert text == second.read_text()
        # background + frame + one rect per grid cell
        assert text.count("<rect") == 3 * 5 + 2
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")

    def test_run_scan_writes_requested_files(self, tmp_path):
        out = tmp_path / "flow.csv"
        cfg = ScanConfig(
            mode="g-curve",
            a_range=(0.91, 0.96, 3),
            output_path=str(out),
            emit_svg=True,
        )
        run_scan(cfg)
        assert out.exists()
        assert out.with_suffix(".svg").exists()
        assert cfg.svg_path == str(out.with_suffix(".svg"))


class TestModeList:
    def test_every_mode_is_dispatchable(self):
        """Config construction succeeds for each advertised mode (the cheap
        sanity check that MODES and the validator stay in sync)."""
        cc = c0(S_THIRD)
        extra = {
            "fem-conjecture": dict(
                alpha_range=(-1.0, -1.0, 1), c_range=(0.8 * cc, 1.2 * cc, 2)
            ),
            "perimeter-variant": dict(
                alpha_range=(-0.5, -0.5, 1), c_range=(0.8 * cc, 1.2 * cc, 2)
            ),
            "g-curve": dict(a_range=(0.91, 0.96, 3)),
        }
        for mode in MODES:
            ScanConfig(mode=mode, **extra.get(mode, {}))


class TestSoundnessStatus:
    def test_margin_inside_oracle_error_is_unresolved(self):
        """Next to the equilateral triangle the transplant certificate fires but
        lambda_fem +- 10 err straddles lambda0: no contradiction is shown."""
        (row,) = soundness_sweep([-1.64], [0.015], c=S_THIRD, S=S_THIRD).rows
        certified, lam, err, lam0, sound, verdict, status = row[5:]
        assert certified == 1 and sound == 0 and verdict == 0
        assert lam - 10.0 * err <= lam0 < lam + 10.0 * err
        assert status == "unresolved"

    def test_clear_contradiction_keeps_ok_status(self, monkeypatch):
        def above_target(tri, alpha, rel_tol, sound_target):
            return sound_target + 1.0, 1e-3, True

        monkeypatch.setattr(scan, "_raw_upper_bound", above_target)
        (row,) = soundness_sweep([-0.5], [0.5], c0(S_THIRD), S_THIRD).rows
        assert row[5] == 1  # certified
        assert row[-3:] == (0, 0, "ok")

    def test_unsettled_oracle_is_unconverged(self, monkeypatch):
        """A certified cell whose oracle ladder hits its level cap unsettled
        keeps its sound verdict but reads unconverged."""
        def unsettled(tri, alpha, rel_tol, sound_target):
            return sound_target - 1.0, 1e-3, False

        monkeypatch.setattr(scan, "_raw_upper_bound", unsettled)
        (row,) = soundness_sweep([-0.5], [0.5], c0(S_THIRD), S_THIRD).rows
        assert row[5] == 1  # certified
        assert row[-3:] == (1, 1, "unconverged")


def _solve_levels_except(monkeypatch, failing):
    """Make fem.solve_at_level raise NumericError at every level where failing(level) holds."""
    solve = fem.solve_at_level

    def patched(tri, alpha, level, sigma0=None, **kwargs):
        if failing(level):
            raise NumericError(f"forced failure at level {level}")
        return solve(tri, alpha, level, sigma0=sigma0, **kwargs)

    monkeypatch.setattr(fem, "solve_at_level", patched)


class TestRawUpperBound:
    """The soundness ladder against a hand walk of walk_levels(tri, alpha, 3, 9, [])
    at S = c = 1/sqrt(3) with the sweep's rel_tol 1e-3 (scan._SOUND_REL_TOL)."""

    @pytest.mark.parametrize("alpha,a,rule", [(-4.0, 1.5, "target"), (-1.64, 0.015, "rel_tol")])
    def test_stops_at_level_5_by_one_rule(self, alpha, a, rule):
        tri, lam0 = make_triangle(a, S_THIRD, S_THIRD), lambda0(alpha, S_THIRD)
        lams = [res.lambda1 for res in islice(fem.walk_levels(tri, alpha, 3, 9, []), 3)]
        ests = [abs(new - old) / 3.0 for old, new in zip(lams, lams[1:])]

        def rules(lam, est):
            return est <= 1e-3 * abs(lam), lam + 10.0 * est <= lam0

        assert rules(lams[1], ests[0]) == (False, False)  # level 4 decides nothing
        assert rules(lams[2], ests[1]) == (rule == "rel_tol", rule == "target")
        lam, est, settled = scan._raw_upper_bound(tri, alpha, 1e-3, sound_target=lam0)
        assert lam == lams[2] and settled
        assert est == pytest.approx(ests[1], rel=1e-12, abs=0.0)

    def test_a_skipped_level_spans_the_gap(self, monkeypatch):
        """With level 4 skipped the level-5 estimate is |lambda_5 - lambda_3| / (4^2 - 1)."""
        _solve_levels_except(monkeypatch, lambda level: level == 4)
        tri, lam0 = make_triangle(1.5, S_THIRD, S_THIRD), lambda0(-4.0, S_THIRD)
        skipped = []
        lam3, lam5 = (res.lambda1 for res in islice(fem.walk_levels(tri, -4.0, 3, 9, skipped), 2))
        assert [level for level, _ in skipped] == [4]
        lam, est, settled = scan._raw_upper_bound(tri, -4.0, 1e-3, sound_target=lam0)
        assert lam == lam5 and settled
        assert est == pytest.approx(abs(lam5 - lam3) / 15.0, rel=1e-12, abs=0.0)

    def test_one_certified_level_is_a_numeric_error_row(self, monkeypatch):
        """One level gives no Richardson correction: the certified cell fails typed."""
        _solve_levels_except(monkeypatch, lambda level: level != 3)
        tri, lam0 = make_triangle(1.5, S_THIRD, S_THIRD), lambda0(-4.0, S_THIRD)
        with pytest.raises(NumericError, match="fewer than two mesh levels"):
            scan._raw_upper_bound(tri, -4.0, 1e-3, sound_target=lam0)
        (row,) = soundness_sweep([-4.0], [1.5], c=S_THIRD, S=S_THIRD).rows
        assert row[:2] == (-4.0, 1.5) and row[-1] == "numeric-error"


class TestLocalOptimality:
    def test_unsettled_claimed_row_is_unconverged(self, monkeypatch):
        """Derivatives that look fine but did not settle by the level cap give
        no verdict."""
        def unsettled(tri, alpha):
            return ShapeDerivatives(lambda1=-3.28, grad_a=0.0, grad_c=0.0, hess_aa=-2.05,
                                    hess_cc=-24.6, hess_ac=0.0, converged=False)

        monkeypatch.setattr(fem, "shape_derivatives", unsettled)
        row = scan._cell_local(-0.5, S=S_THIRD)
        assert row[9:] == (1, 0, "unconverged")
        assert row[3:5] == (-2.05, -24.6)


class TestOneProcess:
    def test_serial_scan_runs_without_an_affinity_call(self, monkeypatch, tmp_path):
        """Where os has no sched_getaffinity (macOS, Windows), a scan never
        asks for the cores and returns every row."""
        monkeypatch.delattr(scan.os, "sched_getaffinity", raising=False)
        result = run_scan(ScanConfig(mode="constant-region", alpha_range=(-2.0, -0.5, 2),
                                     a_range=(0.0, 1.0, 2), output_path=str(tmp_path / "c.csv")))
        assert len(result.rows) == 4
        assert all(row[-1] == "ok" for row in result.rows)

    def test_cells_run_in_task_order_in_this_process(self, monkeypatch, tmp_path):
        """Each cell is evaluated here, once, in the order of its row; the rows
        are those of the unpatched scan."""
        cfg = ScanConfig(mode="g-curve", a_range=(0.91, 0.96, 5), output_path=str(tmp_path / "g.csv"))
        want = run_scan(cfg).rows
        seen = []
        g = scan.g_threshold

        def recorded(t):
            seen.append(t)
            return g(t)

        monkeypatch.setattr(scan, "g_threshold", recorded)
        assert run_scan(cfg).rows == want
        assert seen == [row[0] for row in want]

    def test_run_scan_takes_no_worker_count(self):
        with pytest.raises(TypeError, match="workers"):
            run_scan(ScanConfig(mode="g-curve", a_range=(0.5, 0.9, 3)), workers=2)


# every mode's evaluator, and the header block it writes for _PIPELINE_CFG
_EVALUATORS = {
    "g-curve": "_cell_g",
    "transplant-region": "_cell_transplant",
    "constant-region": "_cell_constant",
    "condition-region": "_cell_condition",
    "sector-region": "_cell_sector",
    "fem-conjecture": "_cell_fem",
    "local-optimality": "_cell_local",
    "perimeter-variant": "_cell_perimeter",
    "monotonicity": "_cell_monotone",
}
_PIPELINE_CFG = {
    "g-curve": dict(a_range=(0.5, 0.9, 3)),
    "transplant-region": dict(alpha_range=(-2.0, -0.5, 2), a_range=(0.0, 1.0, 3)),
    "constant-region": dict(alpha_range=(-2.0, -0.5, 2), a_range=(0.0, 1.0, 3), c_fixed=0.75),
    "condition-region": dict(alpha_range=(-2.0, -0.5, 2), a_range=(0.0, 1.0, 3)),
    "sector-region": dict(alpha_range=(-2.0, -0.5, 2), a_range=(0.0, 1.0, 3), anchor_left=True),
    "fem-conjecture": dict(alpha_range=(-2.0, -1.0, 2), a_range=(0.0, 1.0, 2),
                           c_range=(0.5, 1.0, 2)),
    "local-optimality": dict(alpha_range=(-3.0, -0.5, 2)),
    "perimeter-variant": dict(alpha_range=(-0.5, -0.5, 1), a_range=(0.0, 1.0, 2),
                              c_range=(0.5, 1.0, 2)),
    "monotonicity": dict(alpha_range=(-1.0, -1.0, 1)),
}
_PINNED_HEADERS = {
    "g-curve": """\
# robintri scan output
# a_range = 0.5,0.90000000000000002,3
# mode = g-curve
# version = {version}
t,g_value,verdict,status
""",
    "transplant-region": """\
# robintri scan output
# S = 0.57735026918962584
# a_range = 0,1,3
# alpha_range = -2,-0.5,2
# c = 0.57735026918962584
# mode = transplant-region
# version = {version}
alpha,a,delta,verdict,status
""",
    "constant-region": """\
# robintri scan output
# S = 0.57735026918962584
# a_range = 0,1,3
# alpha_range = -2,-0.5,2
# c = 0.75
# mode = constant-region
# version = {version}
alpha,a,bound,lambda0,verdict,status
""",
    "condition-region": """\
# robintri scan output
# S = 0.57735026918962584
# a_range = 0,1,3
# alpha_range = -2,-0.5,2
# c = 0.57735026918962584
# mode = condition-region
# version = {version}
alpha,a,closed_upper,lower_bound,verdict,status
""",
    "sector-region": """\
# robintri scan output
# S = 0.57735026918962584
# a_range = 0,1,3
# alpha_range = -2,-0.5,2
# anchor_left = true
# c = 0.57735026918962584
# mode = sector-region
# version = {version}
alpha,a,rayleigh,closed_upper,lambda0,verdict,status
""",
    "fem-conjecture": """\
# robintri scan output
# S = 0.57735026918962584
# a_range = 0,1,2
# alpha_range = -2,-1,2
# c_range = 0.5,1,2
# fem_rel_tol = 9.9999999999999995e-07
# mode = fem-conjecture
# verdict_grid_reduction = and-over-alpha
# version = {version}
alpha,a,c,lambda_fem,fem_error,lambda0,margin,verdict,status
""",
    "local-optimality": """\
# robintri scan output
# S = 0.57735026918962584
# alpha_range = -3,-0.5,2
# mode = local-optimality
# version = {version}
alpha,grad_a,grad_c,hess_aa,hess_cc,hess_ac,bound_aa,bound_cc,C,claimed,verdict,status
""",
    "perimeter-variant": """\
# robintri scan output
# S = 0.57735026918962584
# a_range = 0,1,2
# alpha_range = -0.5,-0.5,1
# c_range = 0.5,1,2
# fem_rel_tol = 9.9999999999999995e-07
# mode = perimeter-variant
# version = {version}
a,c,gamma,lambda_fem,fem_error,lambda0_scaled,lambda0,margin_link1,margin_link2,margin,verdict,status
""",
    "monotonicity": """\
# robintri scan output
# S = 0.57735026918962584
# alpha_range = -1,-1,1
# mode = monotonicity
# version = {version}
alpha,lambda0_half,lambda0_base,lambda0_twice,dlambda0_dS,verdict,status
""",
}


class TestPipeline:
    @pytest.mark.parametrize("mode", MODES)
    def test_mode_runs_its_evaluator_and_pins_header(self, mode, monkeypatch, tmp_path):
        """run_scan must look the evaluator up by name at call time (wrappers
        installed on scan's names see every cell), and the header stays fixed."""
        width = len(scan._MODE_COLUMNS[mode])
        tasks = []

        def stub(task, **_):
            tasks.append(task)
            lead = task if isinstance(task, tuple) else (task,)
            return lead + (0.0,) * (width - len(lead) - 2) + (1, "ok")

        monkeypatch.setattr(scan, _EVALUATORS[mode], stub)
        out = tmp_path / "pinned.csv"
        res = run_scan(ScanConfig(mode=mode, output_path=str(out), **_PIPELINE_CFG[mode]))
        assert tasks and len(tasks) == len(res.rows)
        assert all(v == 1 for grid_row in res.verdict_grid for v in grid_row)
        # the pinned block runs from the first line through the column line
        assert out.read_text().startswith(
            _PINNED_HEADERS[mode].format(version=robintri.__version__))


# the callee through which each evaluator is made to fail, patched where the
# evaluator looks it up: scan's namespace, or fem's for the FEM evaluators,
# which import their fem names when they run
_FAILING_CALLEE = {
    "g-curve": (scan, "g_threshold"),
    "transplant-region": (scan, "transplant_verdict"),
    "constant-region": (scan, "constant_bound"),
    "condition-region": (scan, "sector_closed_upper"),
    "sector-region": (scan, "sector_bound"),
    "fem-conjecture": (fem, "eigenvalue_converged"),
    "local-optimality": (fem, "shape_derivatives"),
    "perimeter-variant": (fem, "eigenvalue_converged"),
    "monotonicity": (scan, "solve_equilateral"),
    "soundness": (scan, "make_triangle"),
}
# failure rows (repr) of the _PIPELINE_CFG runs, recorded from the per-evaluator
# handlers that _isolated replaced; {status} is the row's status
_REGION_TASKS = ("-2.0, 0.0", "-2.0, 0.5", "-2.0, 1.0", "-0.5, 0.0", "-0.5, 0.5", "-0.5, 1.0")
_FAILURE_ROWS = {
    "g-curve": ["(0.5, nan, 0, '{status}')", "(0.7, nan, 0, '{status}')",
                "(0.9, nan, 0, '{status}')"],
    "transplant-region": [f"({t}, nan, 0, '{{status}}')" for t in _REGION_TASKS],
    "constant-region": [f"({t}, nan, nan, 0, '{{status}}')" for t in _REGION_TASKS],
    "condition-region": [f"({t}, nan, nan, 0, '{{status}}')" for t in _REGION_TASKS],
    "sector-region": [f"({t}, nan, nan, nan, 0, '{{status}}')" for t in _REGION_TASKS],
    "fem-conjecture": [f"({al}, {a}, {c}, nan, nan, nan, nan, 0, '{{status}}')"
                       for al in ("-2.0", "-1.0") for a in ("0.0", "1.0") for c in ("0.5", "1.0")],
    "local-optimality": [
        "(-3.0, nan, nan, nan, nan, nan, nan, nan, nan, 0, 0, '{status}')",
        # claimed depends on (alpha, S) alone and survives the failure
        "(-0.5, nan, nan, nan, nan, nan, nan, nan, nan, 1, 0, '{status}')",
    ],
    "perimeter-variant": [f"({a}, {c}, nan, nan, nan, nan, nan, nan, nan, nan, 0, '{{status}}')"
                          for a in ("0.0", "1.0") for c in ("0.5", "1.0")],
    "monotonicity": ["(-1.0, nan, nan, nan, nan, 0, '{status}')"],
    "soundness": [f"({t}, nan, 0, 0, 0, nan, nan, nan, 0, 0, '{{status}}')"
                  for t in ("-2.0, 0.0", "-2.0, 1.0", "-0.5, 0.0", "-0.5, 1.0")],
}


def _raising(error):
    def fail(*args, **kwargs):
        raise error("forced failure")
    return fail


class TestFailurePath:
    @pytest.mark.parametrize("mode,error,status", [
        pytest.param(mode, error, status, id=f"{mode}-{error.__name__}-{status}")
        for mode in (*MODES, "soundness")
        for error, status in ((NumericError, "numeric-error"), (DomainError, "domain-error"))])
    def test_failure_rows_are_pinned(self, mode, error, status, monkeypatch, tmp_path):
        """A robintri error in any evaluator gives its typed failure row."""
        monkeypatch.setattr(*_FAILING_CALLEE[mode], _raising(error))
        if mode == "soundness":
            res = soundness_sweep([-2.0, -0.5], [0.0, 1.0], c=S_THIRD, S=S_THIRD)
        else:
            cfg = ScanConfig(mode=mode, output_path=str(tmp_path / "f.csv"), **_PIPELINE_CFG[mode])
            res = run_scan(cfg)
        assert [repr(row) for row in res.rows] == [
            row.format(status=status) for row in _FAILURE_ROWS[mode]]

    def test_failed_claimed_local_row_keeps_its_claim(self, monkeypatch):
        monkeypatch.setattr(scan, "hessian_upper_bounds", _raising(NumericError))
        row = scan._cell_local(-0.5, S=S_THIRD)
        assert row[9:] == (1, 0, "numeric-error")
        assert all(math.isnan(v) for v in row[1:9])

    def test_other_exceptions_propagate(self, monkeypatch):
        """Only robintri errors are cell failures; anything else is a bug."""
        monkeypatch.setattr(scan, "g_threshold", _raising(ValueError))
        with pytest.raises(ValueError, match="forced failure"):
            run_scan(ScanConfig(mode="g-curve", a_range=(0.5, 0.9, 3)))

    @pytest.mark.parametrize("call,cell", [
        (lambda S: _single_coupling_scan("local-optimality", -0.5, S), "_cell_local"),
        (lambda S: _single_coupling_scan("perimeter-variant", -0.5, S, **_PERIMETER_AXES),
         "_cell_perimeter"),
        (lambda S: _single_coupling_scan("monotonicity", -0.5, S), "_cell_monotone"),
        (lambda S: soundness_sweep([-0.5], [0.5], c=S_THIRD, S=S), "_soundness_cell"),
    ], ids=["local", "perimeter", "monotone", "soundness"])
    def test_helpers_refuse_a_bad_area_before_any_cell(self, call, cell, monkeypatch):
        calls = []
        monkeypatch.setattr(scan, cell, lambda task, **_: calls.append(task))
        for S in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="area S"):
                call(S)
        assert not calls

    def test_helpers_refuse_bad_tolerances_before_any_cell(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scan, "_soundness_cell", lambda task, **_: calls.append(task))
        monkeypatch.setattr(scan, "_cell_perimeter", lambda task, **_: calls.append(task))
        for tol in (math.inf, math.nan, 0.0):
            with pytest.raises(DomainError, match="fem_rel_tol"):
                _single_coupling_scan("perimeter-variant", -0.5, fem_rel_tol=tol,
                                      **_PERIMETER_AXES)
        for c in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="c must be positive and finite"):
                soundness_sweep([-2.0], [1.0], c=c, S=S_THIRD)
        assert not calls

    _NON_FINITE = ((math.nan, math.inf, -math.inf), "must be finite")

    @pytest.mark.parametrize("call,cell,bad", [
        (lambda v: _single_coupling_scan("local-optimality", v), "_cell_local", _NON_FINITE),
        (lambda v: _single_coupling_scan("perimeter-variant", v, **_PERIMETER_AXES),
         "_cell_perimeter", _NON_FINITE),
        (lambda v: _single_coupling_scan("monotonicity", v), "_cell_monotone", _NON_FINITE),
        (lambda v: soundness_sweep([-0.5, v], [0.5], c=S_THIRD, S=S_THIRD), "_soundness_cell",
         _NON_FINITE),
        (lambda v: _single_coupling_scan("perimeter-variant", -0.5, a_range=(0.0, v, 2),
                                         c_range=(0.5, 0.6, 2)), "_cell_perimeter", _NON_FINITE),
        # c is a length: a non-finite endpoint, and a finite one that is not positive
        (lambda v: _single_coupling_scan("perimeter-variant", -0.5, a_range=(0.0, 0.4, 2),
                                         c_range=(v, 0.6, 2)), "_cell_perimeter",
         ((math.nan, math.inf, -math.inf, -1.0, 0.0),
          r"c_range(: endpoints)? must be (finite|positive and finite)")),
        (lambda v: soundness_sweep([-0.5], [0.5, v], c=S_THIRD, S=S_THIRD), "_soundness_cell",
         _NON_FINITE),
    ], ids=["local", "perimeter", "monotone", "soundness",
            "perimeter-a", "perimeter-c", "soundness-a"])
    def test_helpers_refuse_a_non_finite_coupling_or_grid_value_before_any_cell(
            self, call, cell, bad, monkeypatch):
        calls = []
        monkeypatch.setattr(scan, cell, lambda task, **_: calls.append(task))
        values, text = bad
        for value in values:
            with pytest.raises(DomainError, match=text):
                call(value)
        assert not calls


class TestStrongCoupling:
    """Past beta ~ 175 the raw ground-state norms leave float64: typed rows, no crash."""

    def test_transplant_scan_keeps_every_row(self):
        res = run_scan(ScanConfig(mode="transplant-region", alpha_range=(-300.0, -100.0, 2),
                                  a_range=(0.0, 1.0, 2)))
        assert [(row[0], row[-1]) for row in res.rows] == [
            (-300.0, "numeric-error"), (-300.0, "numeric-error"), (-100.0, "ok"), (-100.0, "ok")]

    def test_soundness_cell_is_a_numeric_error(self):
        (row,) = soundness_sweep([-300.0], [0.5], c=S_THIRD, S=S_THIRD).rows
        assert row[-1] == "numeric-error"
