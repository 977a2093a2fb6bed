"""End-to-end tests of the command-line interface: output shapes, values,
and exit codes."""

import csv
import dataclasses
import io
import json
import math

import pytest

import coshroots.cli as cli
import coshroots.solvers as solvers
from coshroots import (
    BaseParameter,
    BracketProvenance,
    critical_constants,
    solve_all,
    x_star,
)
from coshroots.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in data]


class TestConstants:
    def test_csv_fifteen_digits(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        assert code == EXIT_OK
        (rec,) = parse_csv(out)
        c = critical_constants()
        for key, want in (
            ("q", c.q),
            ("sinh_q", c.sinh_q),
            ("a_min", c.a_min),
            ("a_max", c.a_max),
            ("x_dagger", c.x_dagger),
        ):
            assert float(rec[key]) == pytest.approx(want, rel=1e-14)

    def test_json_round_trip_residual(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        (rec,) = payload["records"]
        q = rec["q"]
        assert abs(1.0 / math.tanh(q) - q) <= 1e-12
        assert rec["a_min"] == pytest.approx(0.71793825, abs=5e-9)
        assert rec["a_max"] == pytest.approx(1.39287744, abs=5e-9)
        assert rec["x_dagger"] == pytest.approx(3.62034, abs=5e-6)


class TestClassify:
    def test_zero_base(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--a", "0", "--format", "json")
        assert code == EXIT_OK
        (rec,) = json.loads(out)["records"]
        assert rec["classification"] == "zero_base"
        assert rec["root"] == 0.0
        assert rec["by_convention"] is True

    def test_two_roots_brackets(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--a", "0.9", "--format", "json")
        (rec,) = json.loads(out)["records"]
        assert rec["classification"] == "two_roots"
        assert rec["x1_lo"] == 2.0
        assert rec["x2_lo"] == pytest.approx(21.4624, abs=5e-4)


class TestSolve:
    def test_table_base_09(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--a", "0.9")
        assert code == EXIT_OK
        (rec,) = parse_csv(out)
        assert float(rec["x1"]) == pytest.approx(2.0467, abs=5e-4)
        assert float(rec["x2"]) == pytest.approx(33.2488, abs=5e-4)

    def test_no_root_base_absent_markers(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--a", "0.6")
        assert code == EXIT_OK
        (rec,) = parse_csv(out)
        assert rec["classification"] == "no_root"
        assert rec["x1"] == "" and rec["x2"] == ""
        code, out, _ = run_cli(capsys, "solve", "--a", "0.6", "--format", "json")
        (jrec,) = json.loads(out)["records"]
        assert jrec["x1"] is None and jrec["x2"] is None

    def test_unit_base(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--a", "1")
        (rec,) = parse_csv(out)
        assert float(rec["x1"]) == 2.0
        assert rec["x2"] == ""

    def test_verify_flag(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--a", "0.9", "--verify")
        assert code == EXIT_OK
        (rec,) = parse_csv(out)
        assert rec["verified"] == "true"

    def test_verify_tangent_base(self, capsys):
        a = critical_constants().a_max
        code, out, _ = run_cli(capsys, "solve", "--a", repr(a), "--verify")
        assert code == EXIT_OK
        (rec,) = parse_csv(out)
        assert rec["classification"] == "tangent_root"
        assert rec["verified"] == "true"

    @pytest.mark.parametrize("a", ["1.0000000000005", "0.9999999999995"])
    def test_verify_unit_band(self, capsys, a):
        # |ln a| = 5e-13 <= UNIT_BASE_EPS: the far root near 6e13 is not
        # reported, so the scan must not look for it
        code, out, _ = run_cli(capsys, "solve", "--a", a, "--verify")
        assert code == EXIT_OK
        (rec,) = parse_csv(out)
        assert rec["classification"] == "unit_base"
        assert rec["verified"] == "true"

    def test_solver_failure_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--a", "1.000000001")
        assert code == EXIT_SOLVER
        assert out == ""  # no partial records
        assert "solver failure" in err

    def test_negative_base_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--a", "-3")
        assert code == EXIT_USAGE


class TestAbsentValues:
    """A non-finite float or an undecided verdict is an empty CSV cell and
    a JSON null."""

    def test_overflowing_f(self, capsys):
        argv = ("curve", "--a", "2", "--x-lo", "0", "--x-hi", "2000", "--steps", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert parse_csv(out)[-1] == {"x": "2000", "f": ""}  # f(2000) = inf
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["records"][-1] == {"x": 2000.0, "f": None}

    def test_zero_base_verify(self, capsys):
        # the scan cannot evaluate f at a = 0, so it gives no verdict
        code, out, _ = run_cli(capsys, "solve", "--a", "0", "--verify")
        assert code == EXIT_OK
        (rec,) = parse_csv(out)
        assert rec["classification"] == "zero_base" and rec["verified"] == ""
        code, out, _ = run_cli(
            capsys, "solve", "--a", "0", "--verify", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["records"][0]["verified"] is None


class TestBounds:
    def test_initial_bounds_108(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--a", "1.08")
        (rec,) = parse_csv(out)
        assert float(rec["x2_lo_initial"]) == pytest.approx(33.3978, abs=5e-4)
        assert float(rec["x2_hi_initial"]) == pytest.approx(64.7955, abs=5e-4)
        assert rec["x2_lo_refined"] == ""

    def test_refined_bounds_108(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--a", "1.08", "--x1", "2.0243")
        (rec,) = parse_csv(out)
        assert float(rec["x2_lo_refined"]) == pytest.approx(49.0845, abs=5e-4)
        assert float(rec["x2_hi_refined"]) == pytest.approx(64.7712, abs=5e-4)

    def test_refined_bounds_075(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--a", "0.75", "--x1", "2.5738")
        (rec,) = parse_csv(out)
        assert float(rec["x2_lo_refined"]) == pytest.approx(5.5954, abs=5e-4)
        assert float(rec["x2_hi_refined"]) == pytest.approx(6.6026, abs=5e-4)

    def test_out_of_regime_reports_classification(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--a", "2.0")
        assert code == EXIT_OK
        (rec,) = parse_csv(out)
        assert rec["classification"] == "no_root"
        assert rec["x1_lo"] == ""

    def test_invalid_x1_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--a", "0.9", "--x1", "50")
        assert code == EXIT_DOMAIN


# table values the implementation reproduces (see test_acceptance for the
# full golden comparison, including the two cells where the golden x1 for
# a = 1.39 fails the equation's own residual check)
GOLDEN_REPRODUCIBLE = {
    0.6: {"x2_lo_initial": 1.6959, "x2_hi_initial": 1.3918},
    0.75: {
        "x1": 2.5738,
        "x2": 6.3160,
        "x2_lo_initial": 4.5882,
        "x2_hi_initial": 7.1764,
        "x2_lo_refined": 5.5954,
        "x2_hi_refined": 6.6026,
    },
    0.9: {
        "x1": 2.0467,
        "x2": 33.2488,
        "x2_lo_initial": 21.4624,
        "x2_hi_initial": 40.9248,
        "x2_lo_refined": 31.1702,
        "x2_hi_refined": 40.8781,
    },
    1.08: {
        "x1": 2.0243,
        "x2": 51.1120,
        "x2_lo_initial": 33.3978,
        "x2_hi_initial": 64.7955,
        "x2_lo_refined": 49.0845,
        "x2_hi_refined": 64.7712,
    },
    1.39: {
        "x2": 3.9932,
        "x2_lo_initial": 3.6589,
        "x2_hi_initial": 5.3179,
        "x2_lo_refined": 3.8312,
    },
}

# independently computed at 40-digit precision
TRUE_139 = {"x1": 3.3136626896380942, "x2_hi_refined": 4.0042122336}


class TestTable:
    def test_reproducible_golden_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--full-precision")
        assert code == EXIT_OK
        rows = {float(r["a"]): r for r in parse_csv(out)}
        assert len(rows) == 5
        for a, cells in GOLDEN_REPRODUCIBLE.items():
            for col, want in cells.items():
                got = float(rows[a][col])
                assert got == pytest.approx(want, abs=5e-4), (a, col)

    def test_139_row_matches_true_roots(self, capsys):
        # where the golden fixture is off, the output must match the truth
        _, out, _ = run_cli(capsys, "table", "--full-precision")
        rows = {float(r["a"]): r for r in parse_csv(out)}
        assert float(rows[1.39]["x1"]) == pytest.approx(
            TRUE_139["x1"], abs=1e-9
        )
        assert float(rows[1.39]["x2_hi_refined"]) == pytest.approx(
            TRUE_139["x2_hi_refined"], abs=1e-6
        )

    def test_no_root_row_markers(self, capsys):
        _, out, _ = run_cli(capsys, "table")
        row = {float(r["a"]): r for r in parse_csv(out)}[0.6]
        assert row["classification"] == "no_root"
        assert row["x1"] == "" and row["x2"] == ""
        assert row["inverted"] == "true"
        # formally computed bounds print with lo > hi, signalling no root
        assert float(row["x2_lo_initial"]) > float(row["x2_hi_initial"])

    def test_json_nests_formal_bounds(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--format", "json")
        records = json.loads(out)["records"]
        by_a = {r["a"]: r for r in records}
        formal = by_a[0.6]["formal_bounds"]
        assert formal["inverted"] is True
        assert formal["x2_lo_initial"] == pytest.approx(1.6959, abs=5e-4)
        assert "formal_bounds" not in by_a[0.9]


class TestCurve:
    def test_unit_base_affine_samples(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--a", "1", "--x-lo", "0", "--x-hi", "4", "--steps", "5"
        )
        assert code == EXIT_OK
        values = [float(r["f"]) for r in parse_csv(out)]
        assert values == [2.0, 1.0, 0.0, -1.0, -2.0]

    def test_minimum_near_x_star(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "curve", "--a", "0.75", "--x-lo", "0", "--x-hi", "20",
            "--steps", "2001", "--full-precision",
        )
        recs = parse_csv(out)
        xs = [float(r["x"]) for r in recs]
        fs = [float(r["f"]) for r in recs]
        x_at_min = xs[fs.index(min(fs))]
        step = 20.0 / 2000
        assert abs(x_at_min - x_star(BaseParameter(0.75))) <= 2 * step

    def test_tangent_base_minimum_is_zero(self, capsys):
        a = critical_constants().a_max
        _, out, _ = run_cli(
            capsys,
            "curve", "--a", repr(a), "--x-lo", "3", "--x-hi", "4.5",
            "--steps", "5001", "--full-precision",
        )
        fs = [float(r["f"]) for r in parse_csv(out)]
        assert abs(min(fs)) <= 1e-6

    def test_coth_view(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve", "--a", "1.2", "--x-lo", "-1", "--x-hi", "1", "--steps", "3",
            "--coth-view", "--full-precision",
        )
        assert code == EXIT_OK
        recs = parse_csv(out)
        t = math.log(1.2)
        assert float(recs[0]["two_coth"]) == pytest.approx(2.0 / math.tanh(-t))
        assert recs[1]["two_coth"] == ""  # undefined at x = 0
        assert float(recs[2]["two_coth"]) == pytest.approx(2.0 / math.tanh(t))

    def test_unit_base_at_huge_x(self, capsys):
        # f = 2 - x at a = 1, also where |x| is too large for a Veltkamp split
        code, out, _ = run_cli(
            capsys,
            "curve", "--a", "1", "--x-lo", "0", "--x-hi", "1.7e308", "--steps", "3",
            "--full-precision",
        )
        assert code == EXIT_OK
        recs = parse_csv(out)
        assert len(recs) == 3 and float(recs[-1]["x"]) == 1.7e308
        assert all(float(r["f"]) == 2.0 - float(r["x"]) for r in recs)

    def test_zero_base_rejected(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--a", "0", "--x-lo", "0", "--x-hi", "1")
        assert code == EXIT_DOMAIN

    def test_unit_base_coth_view_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "curve", "--a", "1", "--x-lo", "0", "--x-hi", "1", "--coth-view"
        )
        assert code == EXIT_DOMAIN


class TestSweep:
    def test_critical_interval_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--a-lo", "0.72", "--a-hi", "1.39", "--steps", "100",
            "--full-precision",
        )
        assert code == EXIT_OK
        recs = parse_csv(out)
        assert len(recs) == 100
        assert [r["status"] for r in recs if r["status"] not in
                ("ok", "no_root", "x2_overflow", "solver_error")] == []
        x1_rows = [(float(r["a"]), float(r["x1"])) for r in recs if r["x1"]]
        a_at_min, x1_min = min(x1_rows, key=lambda p: p[1])
        # the first-root curve bottoms out at 2 near a = 1
        assert x1_min == pytest.approx(2.0, abs=1e-3)
        assert abs(a_at_min - 1.0) <= 0.05
        # near both edges the two roots approach the tangent value
        first, last = recs[0], recs[-1]
        for rec in (first, last):
            assert abs(float(rec["x1"]) - 3.62034) <= 0.5
            assert abs(float(rec["x2"]) - 3.62034) <= 0.5

    def test_rows_ascending_in_a(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--a-lo", "0.8", "--a-hi", "1.2", "--steps", "21"
        )
        a_values = [float(r["a"]) for r in parse_csv(out)]
        assert a_values == sorted(a_values)

    def test_no_root_range(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--a-lo", "2", "--a-hi", "3", "--steps", "5")
        recs = parse_csv(out)
        assert all(r["status"] == "no_root" for r in recs)
        assert all(r["x1"] == "" and r["x2"] == "" for r in recs)

    def test_x2_overflow_marker(self, capsys):
        # a grid point this close to 1 has x2 beyond the 1e9 cutoff
        _, out, _ = run_cli(
            capsys,
            "sweep", "--a-lo", "0.9999999995", "--a-hi", "1.0000000005",
            "--steps", "3",
        )
        recs = parse_csv(out)
        statuses = {r["status"] for r in recs}
        assert "x2_overflow" in statuses

    def test_usage_errors(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--a-lo", "0", "--a-hi", "1")
        assert code == EXIT_USAGE
        code, _, _ = run_cli(
            capsys, "sweep", "--a-lo", "1", "--a-hi", "2", "--steps", "1"
        )
        assert code == EXIT_USAGE


class TestExitCodesAndFormats:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_missing_required_argument(self, capsys):
        assert run_cli(capsys, "solve")[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_csv_is_rfc4180_parseable(self, capsys):
        _, out, _ = run_cli(capsys, "table")
        rows = list(csv.reader(io.StringIO(out)))
        assert len({len(r) for r in rows}) == 1  # rectangular

    def test_json_top_level_shape(self, capsys):
        for args in (["constants"], ["solve", "--a", "0.9"], ["table"]):
            _, out, _ = run_cli(capsys, *args, "--format", "json")
            payload = json.loads(out)
            assert set(payload) == {"command", "records"}
            assert isinstance(payload["records"], list)

    def test_full_precision_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--a", "0.9", "--full-precision")
        (rec,) = parse_csv(out)
        from coshroots import solve_all

        report = solve_all(BaseParameter(0.9))
        assert float(rec["x1"]) == report.roots[0].x
        assert float(rec["x2"]) == report.roots[1].x


class TestSharedParser:
    """main() reuses one parser per process; no call may leak into the next."""

    SEQUENCE = (
        ("solve", "--a", "0.9", "--verify", "--tol", "1e-10"),
        ("solve", "--a", "0.9"),
        ("sweep", "--a-lo", "0.8"),
        ("classify", "--a", "0.9"),
        ("--help",),
        ("solve", "--a", "0.9", "--format", "json"),
    )

    def test_sequence_matches_fresh_parsers(self, capsys, monkeypatch):
        shared = [run_cli(capsys, *argv) for argv in self.SEQUENCE]
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            fresh = [run_cli(capsys, *argv) for argv in self.SEQUENCE]
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]
        assert "verified" in parse_csv(shared[0][1])[0]
        assert "verified" not in parse_csv(shared[1][1])[0]
        assert "verified" not in json.loads(shared[5][1])["records"][0]
        assert cli._parser().parse_args(["solve", "--a", "0.9"]).tol is None

    def test_main_builds_parser_once(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser

        def counting_build():
            builds.append(None)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for argv in self.SEQUENCE:
                run_cli(capsys, *argv)
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()


class TestJsonRoundTrip:
    """--full-precision JSON parses back to exactly the doubles solve_all
    returned, near the regime edges and at a large x2 alike."""

    C = critical_constants()

    @staticmethod
    def assert_matches_solve_all(rec):
        report = solve_all(BaseParameter(rec["a"]))
        want = [r.x for r in report.roots]
        assert [rec["x1"], rec["x2"]] == want + [None] * (2 - len(want))
        return report

    @pytest.mark.parametrize(
        "a", [C.a_min * (1 + 1e-6), 0.9, 0.995, C.a_max * (1 - 1e-6)]
    )
    def test_solve(self, capsys, a):
        code, out, _ = run_cli(
            capsys, "solve", "--a", repr(a), "--full-precision", "--format", "json"
        )
        assert code == EXIT_OK
        (rec,) = json.loads(out)["records"]
        assert rec["a"] == a
        report = self.assert_matches_solve_all(rec)
        assert [rec["x1_residual"], rec["x2_residual"]] == [
            r.residual for r in report.roots
        ]

    @pytest.mark.parametrize(
        "lo, hi",
        [(C.a_min, C.a_min * 1.001), (0.99, 0.995), (C.a_max * 0.999, C.a_max)],
    )
    def test_sweep(self, capsys, lo, hi):
        code, out, _ = run_cli(
            capsys, "sweep", "--a-lo", repr(lo), "--a-hi", repr(hi),
            "--steps", "11", "--full-precision", "--format", "json",
        )
        assert code == EXIT_OK
        records = json.loads(out)["records"]
        assert [rec["status"] for rec in records] == ["ok"] * 11
        for rec in records:
            self.assert_matches_solve_all(rec)


class TestOneClassification:
    """Each command classifies each base once and builds its rows from that
    one result, whether it came from classify or from solve_all."""

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (("solve", "--a", "0.9", "--verify"), 1),
            (("table",), 5),
            (("bounds", "--a", "1.08", "--x1", "2.0243"), 1),
            (("classify", "--a", "0.9"), 1),
            (("sweep", "--a-lo", "0.8", "--a-hi", "0.9", "--steps", "5"), 5),
        ],
        ids=["solve-verify", "table", "bounds", "classify", "sweep"],
    )
    def test_classify_calls(self, capsys, monkeypatch, argv, calls):
        bases = []
        for module in (cli, solvers):
            real = module.classify

            def counting(base, *args, _real=real, **kwargs):
                bases.append(base.a)
                return _real(base, *args, **kwargs)

            monkeypatch.setattr(module, "classify", counting)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK and out
        assert len(bases) == calls
        assert len(set(bases)) == calls


class TestNonFiniteTolerance:
    def test_infinite_tol_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--a", "0.9", "--tol", "inf")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ") and "finite" in err


class TestNonFiniteRange:
    @pytest.mark.parametrize("x_lo, x_hi", [("0", "inf"), ("-inf", "1")])
    def test_curve_infinite_end_is_domain_error(self, capsys, x_lo, x_hi):
        code, out, err = run_cli(
            capsys, "curve", "--a", "0.9", f"--x-lo={x_lo}", f"--x-hi={x_hi}",
            "--steps", "3",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ")

    def test_sweep_error_names_the_given_range(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--a-lo", "0.5", "--a-hi", "inf", "--steps", "3"
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "[0.5, inf]" in err and "nan" not in err

    def test_curve_width_overflow_is_named(self, capsys):
        # x_lo < x_hi holds here; the width x_hi - x_lo is what overflows
        code, out, err = run_cli(
            capsys, "curve", "--a", "0.9", "--x-lo", "-1e308", "--x-hi", "1e308"
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "overflows" in err and "need x_lo < x_hi" not in err
        assert "[-1e+308, 1e+308]" in err


class TestSweepX1Seed:
    def test_x1_alone_matches_solve_all(self, capsys, monkeypatch):
        # A row whose x2 fails keeps the x1 it solved first, the double
        # solve_all reports, and solves nothing twice: one x1 solve and one
        # failed x2 solve, counted across the cli and solvers bindings.
        real = solvers.newton_refine
        calls = []

        def x2_fails(base, seed, bracket, *args, **kwargs):
            calls.append(bracket.provenance)
            if bracket.provenance is not BracketProvenance.AFFINE_MINORANT:
                raise solvers.SolverError("forced")
            return real(base, seed, bracket, *args, **kwargs)

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "newton_refine", x2_fails)
        monkeypatch.setattr(cli, "newton_refine", counted)
        code, out, _ = run_cli(
            capsys, "sweep", "--a-lo", "0.72", "--a-hi", "0.98", "--steps", "20",
            "--format", "json", "--full-precision",
        )
        monkeypatch.undo()
        assert code == EXIT_OK
        records = json.loads(out)["records"]
        assert len(records) == 20
        assert len(calls) == 2 * len(records)
        for rec in records:
            assert rec["classification"] == "two_roots"
            assert rec["status"] == "solver_error"
            assert rec["x1"] == solve_all(BaseParameter(rec["a"])).roots[0].x, rec


class TestNegativeExponentValues:
    """A token such as -1e-3 or -inf is a value, not an unknown option."""

    def test_separate_token_matches_equals_form(self, capsys):
        common = ("--x-hi", "1", "--steps", "3")
        spaced = run_cli(capsys, "curve", "--a", "0.9", "--x-lo", "-1e-3", *common)
        joined = run_cli(capsys, "curve", "--a", "0.9", "--x-lo=-1e-3", *common)
        assert spaced[0] == joined[0] == EXIT_OK
        assert spaced[1] == joined[1]

    def test_minus_inf_is_domain_error(self, capsys):
        common = ("--x-hi", "1", "--steps", "3")
        spaced = run_cli(capsys, "curve", "--a", "0.9", "--x-lo", "-inf", *common)
        joined = run_cli(capsys, "curve", "--a", "0.9", "--x-lo=-inf", *common)
        assert spaced == joined
        assert spaced[0] == EXIT_DOMAIN

    def test_negative_base_still_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--a", "-1e-3")
        assert code == EXIT_USAGE
        assert out == ""


def _verified(capsys, a):
    code, out, _ = run_cli(capsys, "solve", "--a", a, "--verify", "--format", "json")
    assert code == EXIT_OK
    (rec,) = json.loads(out)["records"]
    return rec["verified"]


class TestVerifyCanFail:
    """solve --verify reports false when the grid scan disagrees."""

    def _patch_scan(self, monkeypatch, change):
        real = cli.scan_roots

        def scan(*args):
            result = real(*args)
            return dataclasses.replace(
                result, refined_roots=change(result.refined_roots)
            )

        monkeypatch.setattr(cli, "scan_roots", scan)

    def test_scan_misses_a_root(self, capsys, monkeypatch):
        assert _verified(capsys, "0.9") is True
        self._patch_scan(monkeypatch, lambda roots: roots[:-1])
        assert _verified(capsys, "0.9") is False

    def test_scan_moves_a_root(self, capsys, monkeypatch):
        self._patch_scan(monkeypatch, lambda roots: (roots[0] + 1e-3,) + roots[1:])
        assert _verified(capsys, "0.9") is False

    def test_tangent_minimum_off_zero(self, capsys, monkeypatch):
        a = repr(critical_constants().a_max)
        assert _verified(capsys, a) is True
        x_dagger = critical_constants().x_dagger
        monkeypatch.setattr(cli, "min_scan", lambda *args: (x_dagger, 1e-3))
        assert _verified(capsys, a) is False


class TestSafetyPaths:
    def test_tangent_residual_above_tol_exits_solver_failure(self, capsys):
        a = repr(critical_constants().a_max)
        code, out, err = run_cli(capsys, "solve", "--a", a, "--tol", "1e-40")
        assert code == EXIT_SOLVER
        assert out == ""
        assert "tangent-root residual" in err

    def test_zero_base_residuals_are_null(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--a", "0", "--format", "json")
        assert code == EXIT_OK
        (rec,) = json.loads(out)["records"]
        assert rec["x1"] == 0.0
        assert rec["x1_residual"] is None
        assert rec["x2_residual"] is None
