import argparse
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import qslkit.bounds as bounds_mod
import qslkit.cli as cli_mod
import qslkit.model as model_mod
import qslkit.quad as quad_mod
import qslkit.scan as scan_mod
from qslkit.bounds import SPEED_UP_TOL, bures_comparator, qsl_ratio
from qslkit.cli import run
from qslkit.model import ModelParams, population_rate
from qslkit.quad import QuadratureError, QuadratureSpec
from qslkit.scan import default_delta_axis, default_gamma0_axis
from qslkit.smatrix import DensityMatrix2


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRatio:
    def test_csv_single_row(self, capsys):
        code, out, _ = invoke(capsys, "ratio", "--gamma0", "500", "--lambda", "50")
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:5] == ["gamma0", "delta", "lambda", "tau", "tau_d"]
        assert "ratio" in header and "stationary" in header
        assert len(lines) == 2
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["ratio"]) == pytest.approx(0.47146600298396024, abs=1e-9)
        assert row["stationary"] == "false"

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "ratio", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_float_repr_roundtrips(self, capsys):
        # 17 significant digits reproduce the binary double exactly.
        _, out, _ = invoke(capsys, "ratio", "--gamma0", "500")
        header, row = (line.split(",") for line in out.strip().split("\n"))
        ratio_txt = dict(zip(header, row))["ratio"]
        assert float(ratio_txt) == pytest.approx(0.47146600298396024, abs=1e-9)
        assert float(format(float(ratio_txt), ".17g")) == float(ratio_txt)

    @pytest.mark.parametrize("gamma0, delta, tau, rel_tol, n_failed", [
        (5.0, 0.0, 0.0, 1e-300, 2),  # both ratios fail
        (1.0, 200.0, 0.0, 1e-14, 1),  # only the trace ratio fails
        (5.0, 0.0, 0.3, 1e-300, 1),  # the trace ratio fails; no comparator off tau 0
    ])
    def test_failed_ratio_writes_its_row(self, capsys, gamma0, delta, tau, rel_tol, n_failed):
        # The row is written, with NaN for every value of a failed trace report, and
        # each failed ratio gets its record, carrying the one-cell call's message.
        code, out, err = invoke(capsys, "ratio", "--gamma0", repr(gamma0), "--delta",
                                repr(delta), "--tau", repr(tau), "--rel-tol", repr(rel_tol),
                                "--abs-tol", "0")
        header, *rows = (line.split(",") for line in out.strip().split("\n"))
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        p = ModelParams(gamma0, 50.0, delta)
        spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=0.0)
        calls = {"ratio": lambda: qsl_ratio(p, DensityMatrix2.excited(), 0.2, tau, spec).ratio}
        if tau == 0.0:
            calls["comparator_ratio"] = lambda: bures_comparator(p, 0.2, spec)
        else:
            assert row["comparator_ratio"] == "nan"
        expected = []
        for column, call in calls.items():
            try:
                value = call()
            except QuadratureError as exc:
                assert row[column] == "nan"
                expected.append((0, column, str(exc), exc.value))
            else:
                assert float(row[column]) == value
        records = [json.loads(line) for line in err.splitlines()]
        assert code == 1
        assert [(r["row"], r["column"], r["message"], r["partial_value"]) for r in records] == (
            expected)
        assert len(expected) == n_failed
        for column in ("lambda1", "lambda2", "lambda_inf", "d_measure", "tau_qsl", "quad_err"):
            assert row[column] == "nan"
        assert row["stationary"] == "false"


class TestScan:
    def test_header_and_row_count(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--n-gamma0", "5", "--n-delta", "3", "--tau-d", "0.2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "gamma0,delta,lambda,tau_d,ratio,classification,quad_err"
        assert len(lines) == 1 + 5 * 3
        classes = {line.split(",")[5] for line in lines[1:]}
        assert classes == {"speed_up", "no_speed_up"}

    def test_default_axes_are_the_scan_modules(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--lambda", "13.7", "--n-gamma0", "3", "--n-delta", "2", "--tau-d", "0.05"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [float(r[0]) for r in rows[::2]] == default_gamma0_axis(13.7, 3).tolist()
        assert [float(r[1]) for r in rows[:2]] == default_delta_axis(13.7, 2).tolist()

    def test_row_order_gamma0_major(self, capsys):
        _, out, _ = invoke(capsys, "scan", "--n-gamma0", "3", "--n-delta", "2")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        deltas = [float(r[1]) for r in rows]
        assert deltas == [0.0, 500.0] * 3

    def test_failed_cells_give_records(self, capsys):
        # Every cell fails at rel_tol 1e-16 without an absolute floor: the rows
        # are still written, each with NaN ratio and one record on stderr.
        argv = ("scan", "--rel-tol", "1e-16", "--abs-tol", "0", "--n-gamma0", "6",
                "--n-delta", "4")
        code, out, err = invoke(capsys, *argv)
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        records = [json.loads(line) for line in err.splitlines()]
        assert code == 1
        assert len(rows) == 24
        assert all(row[4] == "nan" and row[5] == "error" and row[6] == "nan" for row in rows)
        assert [(r["row"], r["column"]) for r in records] == [(i, "ratio") for i in range(24)]
        for row, record in zip(rows, records):
            p = ModelParams(float(row[0]), float(row[2]), float(row[1]))
            with pytest.raises(QuadratureError) as expected:
                qsl_ratio(p, DensityMatrix2.excited(), float(row[3]),
                          spec=QuadratureSpec(rel_tol=1e-16, abs_tol=0.0))
            assert record["error"] == "QuadratureError"
            assert record["subcommand"] == "scan"
            assert record["message"] == str(expected.value)
            assert record["partial_value"] == expected.value.value


class TestBoundary:
    def test_on_resonance_boundary_value(self, capsys):
        code, out, _ = invoke(
            capsys, "boundary", "--n-gamma0", "8", "--n-delta", "1", "--tau-d", "0.2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "delta,gamma0_boundary,flip_index"
        rows = [line.split(",") for line in lines[1:]]
        on_res = [r for r in rows if float(r[0]) == 0.0]
        assert len(on_res) == 1
        assert float(on_res[0][1]) == pytest.approx(32.2, rel=0.02)

    def test_failed_flip_gives_record(self, capsys, monkeypatch):
        # At max_depth 5 the bisection of the flip at delta = 150 fails, and so
        # do 13 scan cells at delta 400 to 500: each has its own row, written
        # with NaN, and its record follows the rows.
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0, max_depth=5)
        monkeypatch.setattr(cli_mod, "_quad_spec", lambda opts: spec)
        code, out, err = invoke(capsys, "boundary", "--n-gamma0", "7", "--gamma0-min", "5",
                                "--gamma0-max", "1000", "--n-delta", "11")
        grid = scan_mod.grid_scan(np.geomspace(5.0, 1000.0, 7), default_delta_axis(50.0, 11),
                                  50.0, 0.2, spec=spec)
        points = scan_mod.transition_boundary(grid, spec=spec)
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        records = [json.loads(line) for line in err.splitlines()]
        assert code == 1
        assert len(rows) == len(points) == 17
        failed = [k for k, (_, g, _) in enumerate(points) if isinstance(g, QuadratureError)]
        assert failed == [3, *range(4, 17)]
        assert sum(e is not None for row in grid.errors for e in row) == 13
        assert [(r["row"], r["column"]) for r in records] == [(k, "gamma0_boundary")
                                                               for k in failed]
        assert rows[3][:2] == ["150", "nan"]
        for row, (delta, g, index) in zip(rows, points):
            expected = "nan" if isinstance(g, QuadratureError) else format(g, ".17g")
            assert row == [format(delta, ".17g"), expected, str(index)]
        for k, record in zip(failed, records):
            assert record["message"] == str(points[k][1])
            assert record["partial_value"] == points[k][1].value

    def test_failed_cells_give_records(self, capsys):
        # Every cell of the inner scan fails: each is a row with NaN and a record.
        code, out, err = invoke(capsys, "boundary", "--rel-tol", "1e-16", "--abs-tol", "0",
                                "--n-gamma0", "6", "--n-delta", "4")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        records = [json.loads(line) for line in err.splitlines()]
        assert code == 1
        assert len(rows) == 24
        assert [row[1:] for row in rows] == [["nan", str(i)] for _ in range(4) for i in range(6)]
        assert [(r["row"], r["column"]) for r in records] == [(i, "gamma0_boundary")
                                                               for i in range(24)]
        assert all(r["error"] == "QuadratureError" for r in records)


class TestSweepTau:
    def test_header_and_weak_plateau(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep-tau", "--gamma0", "5", "--n-points", "11", "--tau-max", "1.0"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "tau,ratio"
        assert len(lines) == 12
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-6)


class TestDecayRate:
    def test_header_and_clip_flags(self, capsys):
        code, out, _ = invoke(
            capsys,
            "decay-rate",
            "--gamma0", "500",
            "--t-max", "0.5",
            "--n-points", "501",
            "--clip", "10",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,gamma_over_gamma0,clipped"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        flags = [line.split(",")[2] for line in lines[1:]]
        assert set(flags) <= {"true", "false"}
        assert "true" in flags
        assert max(abs(v) for v in values) <= 10.0


class TestGridEndingAtNegativeZero:
    # -0.0 passes the nonnegative checks; the grid still ends at +0.0.
    @pytest.mark.parametrize("argv, name", [
        (("decay-rate", "--t-max", "-0.0", "--n-points", "3"), "t"),
        (("sweep-tau", "--tau-max", "-0.0", "--n-points", "3"), "tau"),
    ])
    def test_last_time_prints_as_zero(self, capsys, argv, name):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == [name, "0", "0", "0"]
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        assert [row[name] for row in json.loads(out)] == [0.0] * 3
        assert out.count(f'"{name}": 0.0,') == 3 and f'"{name}": -0.0' not in out


@pytest.mark.parametrize("argv", [("ratio",), ("ratio", "--tau", "0.1"),
                                  ("compare-bounds", "--n-points", "8")])
def test_one_cell_set_per_request(capsys, monkeypatch, argv):
    # The trace and Bures ratios share one coefficient table and one kink search.
    calls = []

    def counted(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    table = counted("table", model_mod.coefficient_table)
    monkeypatch.setattr(model_mod, "coefficient_table", table)
    monkeypatch.setattr(bounds_mod, "coefficient_table", table)
    monkeypatch.setattr(quad_mod, "find_sign_changes_many",
                        counted("search", quad_mod.find_sign_changes_many))
    assert invoke(capsys, *argv)[0] == 0
    assert sorted(calls) == ["search", "table"]


def test_one_coefficient_row_per_model_point(capsys, monkeypatch):
    # 200 windows of one model point: its scalars are formed once.
    calls = []
    real = model_mod._coefficients
    monkeypatch.setattr(model_mod, "_coefficients", lambda p: calls.append(p) or real(p))
    assert invoke(capsys, "sweep-tau", "--n-points", "200")[0] == 0
    assert calls == [ModelParams(5.0, 50.0, 0.0)]


class TestCompareBounds:
    def test_header_and_plateaus(self, capsys):
        code, out, _ = invoke(
            capsys, "compare-bounds", "--n-points", "8", "--tau-d", "0.2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "gamma0,ratio_trace,ratio_bures"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-6)
        assert float(first[2]) == pytest.approx(1.0, abs=1e-6)
        last = lines[-1].split(",")
        assert float(last[1]) < 1.0 - 1e-6
        assert float(last[2]) < 1.0 - 1e-6

    def test_matches_point_by_point(self, capsys):
        _, out, _ = invoke(capsys, "compare-bounds", "--n-points", "8", "--delta", "200")
        rows = [tuple(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]
        expected = []
        for g0 in np.geomspace(1.0, 1000.0, 8).tolist():
            p = ModelParams(g0, 50.0, 200.0)
            expected.append((g0, qsl_ratio(p, DensityMatrix2.excited(), 0.2).ratio,
                             bures_comparator(p, 0.2)))
        assert rows == expected

    def test_closed_form_calls(self, capsys, closed_form_calls):
        # 30 points on one cell set: one batched call for its windows' end points,
        # the batched probes and bisection steps of its one kink search, and the
        # panels of both integrals.  An extra per-cell call would exceed the bound.
        code, _, _ = invoke(capsys, "compare-bounds", "--delta", "200", "--n-points", "30")
        assert code == 0
        assert len(closed_form_calls) <= 47
        assert all(len(s) == 2 for s in closed_form_calls)

    @pytest.mark.parametrize("delta, flow_back_cells", [("0", 15), ("200", 30), ("500", 30)])
    def test_bures_speeds_up_where_pdot_changes_sign(self, capsys, delta, flow_back_cells):
        # The paper's mechanism on the Bures path: of 30 cells, ratio_bures is below
        # 1 - SPEED_UP_TOL exactly where Pdot changes sign inside the window, read
        # on a uniform grid 16 times finer than the engine's probes, skipping
        # t = 0, where Pdot is 0.
        code, out, _ = invoke(capsys, "compare-bounds", "--delta", delta, "--n-points", "30")
        assert code == 0
        flat, flow_backs = 0.0, 0
        for line in out.splitlines()[1:]:
            gamma0, _, bures = map(float, line.split(","))
            p = ModelParams(gamma0, 50.0, float(delta))
            n = 16 * quad_mod.probe_count_for_period(p.complex_root.imag, 0.0, 0.2)
            sign = np.sign(population_rate(p, np.linspace(0.0, 0.2, n + 1)[1:]))
            flow_back = bool(np.any(sign[1:] * sign[:-1] < 0.0))
            assert (bures < 1.0 - SPEED_UP_TOL) == flow_back, (gamma0, bures)
            flow_backs += flow_back
            if not flow_back:
                flat = max(flat, abs(bures - 1.0))
        assert flow_backs == flow_back_cells
        # Measured: 3.2e-15.
        assert flat <= 1e-11

    @pytest.mark.parametrize(
        "delta, rel_tol, max_depth",
        # At delta 200 only the trace ratio of the ninth point fails; at
        # delta 300 both ratios of every point fail.
        [(200.0, 1e-11, 4), (300.0, 1e-10, 3)],
    )
    def test_failed_points_recorded(self, capsys, monkeypatch, delta, rel_tol, max_depth):
        # Every row is written; a failed ratio is NaN in its row, and its record
        # carries the one-cell call's message and partial value.
        spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=0.0, max_depth=max_depth)
        monkeypatch.setattr(cli_mod, "_quad_spec", lambda opts: spec)
        code, out, err = invoke(capsys, "compare-bounds", "--n-points", "12", "--delta",
                                repr(delta))
        records = [json.loads(line) for line in err.splitlines()]
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        expected_records = []
        for i, g0 in enumerate(np.geomspace(1.0, 1000.0, 12).tolist()):
            p = ModelParams(g0, 50.0, delta)
            assert float(rows[i][0]) == g0
            calls = (lambda: qsl_ratio(p, DensityMatrix2.excited(), 0.2, spec=spec).ratio,
                     lambda: bures_comparator(p, 0.2, spec=spec))
            for column, call, text in zip(("ratio_trace", "ratio_bures"), calls, rows[i][1:]):
                try:
                    value = call()
                except QuadratureError as exc:
                    assert text == "nan"
                    expected_records.append((i, column, str(exc), exc.value))
                else:
                    assert float(text) == value
        assert code == 1
        assert len(rows) == 12
        assert [(r["row"], r["column"], r["message"], r["partial_value"]) for r in records] == (
            expected_records)
        assert {r["error"] for r in records} == {"QuadratureError"}
        assert len(records) == (1 if delta == 200.0 else 24)


class TestOracleCheck:
    def test_reports_small_error(self, capsys):
        code, out, _ = invoke(
            capsys, "oracle-check", "--gamma0", "500", "--t-max", "0.2", "--step", "1e-4"
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["max_abs_error"]) < 1e-8

    def test_coarse_step_rejected_with_json_error(self, capsys):
        code, out, err = invoke(capsys, "oracle-check", "--step", "0.5")
        assert code == 1
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert record["subcommand"] == "oracle-check"


class TestConfigFile:
    def test_config_supplies_parameters(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma0 = 500\nlam = 50\ndelta = 0  # on resonance\ntau-d = 0.2\n")
        code, out, _ = invoke(capsys, "ratio", "--config", str(cfg))
        row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
        assert code == 0
        assert float(row["ratio"]) == pytest.approx(0.47146600298396024, abs=1e-9)

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma0 = 500\n")
        code, out, _ = invoke(capsys, "ratio", "--config", str(cfg), "--gamma0", "5")
        row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
        assert code == 0
        assert float(row["gamma0"]) == 5.0
        assert float(row["ratio"]) == pytest.approx(1.0, abs=1e-6)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = invoke(capsys, "ratio", "--config", str(cfg))
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"

    def test_unknown_format_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, out, err = invoke(capsys, "ratio", "--config", str(cfg))
        assert code == 1
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert "csv, json" in record["message"]


class TestOutputFile:
    def test_writes_file(self, capsys, tmp_path):
        for fmt in ("csv", "json"):
            path = tmp_path / f"out.{fmt}"
            code, out, _ = invoke(capsys, "ratio", "--format", fmt, "--output", str(path))
            assert code == 0
            assert out == ""
            _, stdout, _ = invoke(capsys, "ratio", "--format", fmt)
            assert path.read_bytes() == stdout.encode()

    def test_unwritable_path_gives_json_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = invoke(capsys, "ratio", "--output", str(path))
        assert (code, out) == (1, "")
        record = json.loads(err)
        assert record["error"] == "FileNotFoundError"
        assert record["subcommand"] == "ratio"
        assert not path.parent.exists()


SMALL_RUNS = {
    "ratio": ["--gamma0", "500"],
    "scan": ["--n-gamma0", "4", "--n-delta", "2"],
    "boundary": ["--n-gamma0", "4", "--n-delta", "1"],
    "sweep-tau": ["--gamma0", "500", "--n-points", "3"],
    "decay-rate": ["--gamma0", "500", "--n-points", "5"],
    "compare-bounds": ["--n-points", "3"],
    "oracle-check": ["--t-max", "0.05"],
}


def _printed(capsys, argv) -> tuple:
    """The exit code, stdout and stderr of run(argv), which argparse may end by SystemExit."""
    try:
        code = run(list(argv))
    except SystemExit as exited:
        code = exited.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserBuiltInPart:
    """The parser adds arguments only to the subcommand argv names; it must print what the
    parser with every subcommand's arguments prints."""

    @pytest.mark.parametrize("argv", [
        *((command, flag) for command in sorted(cli_mod._COMMANDS)
          for flag in ("--help", "--no-such-flag")),
        ("--help",), ("--help", "scan"), ("scan", "extra"), ("bogus",), (),
    ])
    def test_prints_what_the_full_parser_prints(self, capsys, monkeypatch, argv):
        printed = _printed(capsys, argv)
        full = cli_mod._build_parser
        monkeypatch.setattr(cli_mod, "_build_parser", lambda argv=None: full())
        assert _printed(capsys, argv) == printed
        assert printed[0] == (0 if "--help" in argv else 2)

    def test_arguments_only_for_the_named_subcommand(self, monkeypatch):
        calls = []
        real = argparse.ArgumentParser.add_argument
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                            lambda self, *a, **k: calls.append(a) or real(self, *a, **k))
        parser = cli_mod._build_parser(["sweep-tau", "--gamma0", "500"])
        # The -h of the program and of sweep-tau, and sweep-tau's own 11.
        assert len(calls) == 2 + 11
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for name, sp in sub.choices.items():
            assert {a.dest for a in sp._actions} == (set() if name != "sweep-tau" else {
                *cli_mod._COMMANDS[name].params, *cli_mod._COMMON, "config", "help"})
        calls.clear()
        cli_mod._build_parser()
        assert len(calls) == 79


class TestParameterScope:
    """A subcommand takes, by flag and config key, and its handler sees, exactly
    its _COMMANDS parameters and _COMMON."""

    @pytest.mark.parametrize("command", sorted(cli_mod._COMMANDS))
    def test_flags_are_the_declared_parameters(self, command):
        parser = cli_mod._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for a in sub.choices[command]._actions} - {"help"}
        assert dests == {*cli_mod._COMMANDS[command].params, *cli_mod._COMMON, "config"}

    def test_tolerances_are_taken_only_where_a_ratio_is_integrated(self):
        takes = {name for name, c in cli_mod._COMMANDS.items() if "rel_tol" in c.params}
        assert takes == {"ratio", "scan", "boundary", "sweep-tau", "compare-bounds"}
        assert all(("rel_tol" in c.params) == ("abs_tol" in c.params)
                   for c in cli_mod._COMMANDS.values())

    @pytest.mark.parametrize(
        "argv", [("decay-rate", "--rel-tol", "1e-3"), ("oracle-check", "--abs-tol", "0")]
    )
    def test_tolerance_flags_rejected_where_nothing_is_integrated(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            run(list(argv))
        captured = capsys.readouterr()
        assert exited.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err

    def test_config_key_of_another_subcommand_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma0 = 500\nn_gamma0 = -5\n")
        code, out, err = invoke(capsys, "ratio", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert [json.loads(line) for line in err.splitlines()] == [{
            "error": "ValueError", "message": "unknown config key 'n_gamma0' for ratio",
            "subcommand": "ratio",
        }]

    @pytest.mark.parametrize("command", sorted(cli_mod._COMMANDS))
    def test_handler_sees_exactly_its_parameters(self, capsys, monkeypatch, command):
        command_spec = cli_mod._COMMANDS[command]
        seen = []

        def handler(opts):
            seen.append(sorted(opts))
            return command_spec.handler(opts)

        monkeypatch.setitem(cli_mod._COMMANDS, command, command_spec._replace(handler=handler))
        assert invoke(capsys, command, *SMALL_RUNS[command])[0] == 0
        assert seen == [sorted({*command_spec.params, "output", "format"})]


class TestRowShape:
    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_json_keys_match_csv_header(self, capsys, command):
        code, out, _ = invoke(capsys, command, *SMALL_RUNS[command])
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        code, out, _ = invoke(capsys, command, *SMALL_RUNS[command], "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == len(lines) - 1 >= 1
        for row in rows:
            assert list(row) == header

    def test_boundary_without_flips(self, capsys):
        argv = ["boundary", "--n-gamma0", "3", "--n-delta", "1", "--gamma0-max", "2"]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out == "delta,gamma0_boundary,flip_index\n"
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == "[]\n"


class TestDeterminism:
    def run_scan(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qslkit.cli", "scan", "--n-gamma0", "6", "--n-delta", "4"],
            capture_output=True,
            check=True,
        )
        return proc.stdout

    def test_repeat_run_byte_identical(self):
        assert self.run_scan() == self.run_scan()

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--n-gamma0", "6", "--n-delta", "4"),
            ("boundary", "--n-gamma0", "8", "--n-delta", "4", "--format", "json"),
            ("compare-bounds", "--n-points", "8", "--delta", "200"),
            ("sweep-tau", "--gamma0", "1000", "--delta", "200", "--n-points", "20"),
            ("ratio", "--gamma0", "500", "--tau", "0.3"),
            # Failing points: the rows, the records and the exit code.
            ("sweep-tau", "--rel-tol", "1e-16", "--abs-tol", "0", "--gamma0", "1000",
             "--delta", "200", "--n-points", "20"),
            ("compare-bounds", "--rel-tol", "1e-16", "--abs-tol", "0", "--n-points", "10"),
            # 20,001 and 20,000 nodes of both forms: five amplitude_series chunks each.
            ("decay-rate", "--gamma0", "500", "--t-max", "2", "--n-points", "20001"),
            ("decay-rate", "--delta", "40", "--n-points", "20000"),
        ],
    )
    def test_batch_size_does_not_change_bytes(self, capsys, monkeypatch, argv):
        # One cell per engine call and one panel per round against the default,
        # then every probe evaluated: no exclusion bound, the full grids.
        default = invoke(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(quad_mod, "_CHUNK_POINTS", 1)
            m.setattr(quad_mod, "_PANELS_PER_ROUND", 1)
            assert invoke(capsys, *argv) == default
        full_grid = quad_mod.find_sign_changes_many
        monkeypatch.setattr(quad_mod, "find_sign_changes_many",
                            lambda f, a, b, n_probe, bound=None: full_grid(f, a, b, n_probe))
        assert invoke(capsys, *argv) == default


def _old_cell(v) -> str:
    # The per-value formatting the column writer replaced.
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def reference_text(names, columns, fmt: str) -> str:
    """The output of rows formatted one value at a time, or by json.dump."""
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns)))
    if fmt == "csv":
        return "".join(",".join(map(_old_cell, row)) + "\n" for row in [names, *rows])
    buf = io.StringIO()
    json.dump([dict(zip(names, row)) for row in rows], buf, indent=2, allow_nan=True)
    return buf.getvalue() + "\n"


def written_text(decl: str, columns, fmt: str) -> str:
    buf = io.StringIO()
    cli_mod._write_columns(buf, decl, columns, fmt)
    return buf.getvalue()


class TestColumnWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_matches_row_by_row_reference(self, capsys, command, fmt):
        argv = [command, *SMALL_RUNS[command], "--format", fmt]
        spec = cli_mod._COMMANDS[command]
        names, _ = cli_mod._parse_columns(spec.columns)
        opts = cli_mod._merge_options(cli_mod._build_parser().parse_args(argv))
        expected = reference_text(names, spec.handler(opts), fmt)
        assert invoke(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_edge_values(self, fmt):
        # Ten edge rows, then 10^5 rows whose floats have random bit patterns
        # (NaN payloads, subnormals and both signs included).
        edges = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1, 1e300, 5e-324, -1.5, 1e17]
        bits = np.random.default_rng(12).integers(0, 2**64, 10**5, dtype=np.uint64)
        reps = 1 + bits.size // 10
        columns = (
            np.concatenate([edges, bits.view(float)]),
            list(range(-4, 6)) * reps,
            [True, False] * 5 * reps,
            ["speed_up", 'quote"d', "back\\slash", "tab\t", "é", "", "a,b", "%s", "%%",
             "nul\x00"] * reps,
        )
        decl = "x n:int flag:bool label:str"
        names, _ = cli_mod._parse_columns(decl)
        assert written_text(decl, columns, fmt) == reference_text(names, columns, fmt)

    @pytest.mark.parametrize("delta", ["300", "-300"])
    def test_large_decay_rate_matches_reference(self, capsys, delta):
        argv = ["decay-rate", "--gamma0", "500", "--delta", delta, "--t-max", "1",
                "--n-points", "200000", "--clip", "inf"]
        spec = cli_mod._COMMANDS["decay-rate"]
        names, _ = cli_mod._parse_columns(spec.columns)
        opts = cli_mod._merge_options(cli_mod._build_parser().parse_args(argv))
        expected = reference_text(names, spec.handler(opts), "csv")
        assert invoke(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_rows(self, fmt):
        columns = ((), (), ())
        names = ("delta", "gamma0_boundary", "flip_index")
        expected = reference_text(names, columns, fmt)
        assert written_text("delta gamma0_boundary flip_index:int", columns, fmt) == expected
        assert expected == ("delta,gamma0_boundary,flip_index\n" if fmt == "csv" else "[]\n")

    def test_infinite_clip_prints_json_infinity(self, capsys):
        argv = ["decay-rate", "--gamma0", "500", "--t-max", "3", "--n-points", "3001",
                "--clip", "inf"]
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert any(row["gamma_over_gamma0"] == math.inf for row in rows)
        assert '"gamma_over_gamma0": Infinity,' in out
        _, csv_out, _ = invoke(capsys, *argv)
        assert ",inf,true\n" in csv_out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("decay-rate", "--gamma0", "500", "--t-max", "3", "--n-points", "1001",
             "--clip", "inf"),
            ("scan", "--n-gamma0", "3", "--n-delta", "2"),
            ("ratio", "--gamma0", "500"),
            ("boundary", "--n-gamma0", "3", "--n-delta", "1", "--gamma0-max", "2"),
        ],
    )
    def test_chunk_size_does_not_change_bytes(self, capsys, monkeypatch, argv, fmt):
        default = invoke(capsys, *argv, "--format", fmt)
        for rows in (1, 7):
            monkeypatch.setattr(cli_mod, "_CHUNK_ROWS", rows)
            assert invoke(capsys, *argv, "--format", fmt) == default


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (("ratio", "--tau", "nan"), "tau_start must be finite"),
            (("ratio", "--tau", "inf"), "tau_start must be finite"),
            (("ratio", "--tau-d", "nan"), "tau_d must be finite"),
            (("ratio", "--tau-d", "inf"), "tau_d must be finite"),
            (("sweep-tau", "--tau-max", "nan"), "tau_max must be finite"),
            (("sweep-tau", "--tau-d", "inf"), "tau_d must be finite"),
            (("scan", "--tau-d", "nan", "--n-gamma0", "2", "--n-delta", "2"),
             "tau_d must be finite"),
            (("boundary", "--tau-d", "nan", "--n-gamma0", "2", "--n-delta", "2"),
             "tau_d must be finite"),
            (("compare-bounds", "--tau-d", "nan", "--n-points", "3"), "tau_d must be finite"),
            (("oracle-check", "--t-max", "nan"), "t_max must be finite"),
            (("oracle-check", "--step", "nan"), "step must be positive"),
            (("decay-rate", "--t-max", "nan"), "t_max must be finite"),
            (("decay-rate", "--clip", "nan"), "clip must be positive"),
            (("ratio", "--rel-tol", "nan"), "rel_tol must be positive"),
            (("ratio", "--abs-tol", "nan"), "abs_tol must be nonnegative"),
            # Finite, but tau + tau_d rounds to tau: the window has no width.
            (("ratio", "--tau", "1e300"),
             "tau_start=1e+300 and tau_d=0.2 give a window with no width"),
            (("sweep-tau", "--tau-max", "1e300", "--n-points", "3"),
             "tau=5e+299 and tau_d=0.2 give a window with no width"),
            # Finite, but tau + tau_d overflows: the window has no finite end.
            (("ratio", "--tau", "1e308", "--tau-d", "1e308"),
             "tau_start=1e+308 and tau_d=1e+308 give a window whose end is not finite"),
            (("sweep-tau", "--tau-max", "1e308", "--tau-d", "1e308", "--n-points", "2"),
             "tau=1e+308 and tau_d=1e+308 give a window whose end is not finite"),
            # Grids larger than an array can hold, rejected before anything is allocated.
            (("oracle-check", "--t-max", "1e300"),
             "t_max=1e+300 and step=0.0001 ask for 1e+304 steps, more than an array can hold"),
            (("oracle-check", "--t-max", "1e300", "--step", "1e-10", "--lambda", "1"),
             "t_max=1e+300 and step=1e-10 ask for inf steps, more than an array can hold"),
            (("decay-rate", "--n-points", "100000000000000000000"),
             "n_points=100000000000000000000 asks for more points than an array can hold"),
            (("sweep-tau", "--n-points", "100000000000000000000"),
             "n_points=100000000000000000000 asks for more points than an array can hold"),
            (("compare-bounds", "--n-points", "100000000000000000000"),
             "n_points=100000000000000000000 asks for more points than an array can hold"),
            (("scan", "--n-gamma0", "100000000000000000000", "--n-delta", "2"),
             "n_gamma0=100000000000000000000 asks for more points than an array can hold"),
            (("boundary", "--n-gamma0", "2", "--n-delta", "100000000000000000000"),
             "n_delta=100000000000000000000 asks for more points than an array can hold"),
            # Sweep axes: sizes and gamma0 ends checked before numpy builds the axis.
            (("scan", "--n-gamma0", "-2"), "n_gamma0 must be at least 1"),
            (("scan", "--n-delta", "0"), "n_delta must be at least 1"),
            (("compare-bounds", "--n-points", "-1"), "n_points must be at least 1"),
            (("compare-bounds", "--n-points", "0"), "n_points must be at least 1"),
            (("sweep-tau", "--n-points", "1"), "n_points must be at least 2"),
            (("decay-rate", "--n-points", "1"), "n_points must be at least 2"),
            (("decay-rate", "--t-max", "-1"), "t_max must be nonnegative, got -1.0"),
            (("scan", "--gamma0-min", "0"), "gamma0_min must be finite and positive, got 0.0"),
            (("scan", "--gamma0-min", "-1"), "gamma0_min must be finite and positive"),
            (("compare-bounds", "--gamma0-min", "0"), "gamma0_min must be finite and positive"),
            (("scan", "--lambda", "0"), "lam must be finite and positive, got 0.0"),
            (("scan", "--lambda", "-5"), "lam must be finite and positive, got -5.0"),
            (("scan", "--lambda", "inf"), "lam must be finite and positive, got inf"),
            (("scan", "--gamma0-max", "inf"), "gamma0_max must be finite and positive, got inf"),
            (("boundary", "--gamma0-max", "inf"), "gamma0_max must be finite and positive"),
            (("compare-bounds", "--gamma0-max", "inf"), "gamma0_max must be finite and positive"),
            # A coupling so large that d overflows, or that no array holds a window's probes.
            (("ratio", "--gamma0", "1e308"),
             "gamma0=1e+308, lam=50.0 and delta=0.0 give a complex root d that is not finite"),
            (("decay-rate", "--gamma0", "1e308", "--n-points", "3"),
             "gamma0=1e+308, lam=50.0 and delta=0.0 give a complex root d that is not finite"),
            (("ratio", "--gamma0", "1e200"),
             "gamma0=1e+200, delta=0.0 and window [0.0, 0.2] ask for 2.03718e+101 probes, "
             "more than an array can hold"),
            (("sweep-tau", "--gamma0", "1e300", "--n-points", "3"),
             "gamma0=1e+300, delta=0.0 and window [0.0, 0.2] ask for 2.03718e+151 probes"),
            (("ratio", "--gamma0", "1e300", "--tau-d", "1e300"),
             "gamma0=1e+300, delta=0.0 and window [0.0, 1e+300] ask for inf probes"),
            (("sweep-tau", "--tau-max", "-1", "--n-points", "3"),
             "tau_max must be nonnegative, got -1.0"),
        ],
    )
    # A warning (numpy's RuntimeWarning, say) fails the test: stderr must hold
    # the one record and nothing else.
    @pytest.mark.filterwarnings("error")
    def test_rejected_with_a_named_error(self, capsys, argv, name):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert record["message"].startswith(name)

    @pytest.mark.parametrize("argv", [("decay-rate", "--t-max", "1e308", "--n-points", "3"),
                                      ("ratio", "--tau-d", "1e308"),
                                      ("sweep-tau", "--tau-d", "1e308", "--n-points", "3")])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_times_warn_nothing(self, capsys, argv):
        # d t / 2 overflows to inf, which selects the split form without a RuntimeWarning,
        # and panel and bisection midpoints are formed without adding the ends.
        code, _, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")


def _column(out: str, name: str) -> list[str]:
    """The CSV column name of a request's stdout, as text."""
    header, *rows = (line.split(",") for line in out.strip().split("\n"))
    return [row[header.index(name)] for row in rows]


class TestContractBreaks:
    """Requests that exit 0 with values the model contradicts.  Each is a strict xfail that
    names its FOUND in CHANGES.md, until that is mended."""

    @pytest.mark.xfail(strict=True, reason=(
        "subnormal-coupling FOUND: Cdot underflows to -0, so decay-rate prints -0 "
        "where gamma / gamma0 is about 1"))
    def test_subnormal_coupling_rate(self, capsys):
        # To first order in gamma0, gamma / gamma0 = 1 - e^(-lam t), 1 - 1.4e-11 at t = 0.5.
        code, out, _ = invoke(capsys, "decay-rate", "--gamma0", "5e-324", "--n-points", "3")
        assert code == 0
        assert [float(v) for v in _column(out, "gamma_over_gamma0")[1:]] == pytest.approx(
            [1.0, 1.0], rel=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "absolute-threshold FOUND: decay_rate reads |C| < 1e-12 as a zero of C, so the "
        "Markovian tail from t = 20 is clipped to 25"))
    def test_late_rows_are_the_markovian_tail(self, capsys):
        # Past t = 10.5, |C| < AMPLITUDE_SINGULAR_TOL; the rate has long settled at lam - Re d.
        code, out, _ = invoke(capsys, "decay-rate", "--t-max", "60", "--n-points", "7")
        p = ModelParams(5.0, 50.0, 0.0)
        tail = (p.lam - p.complex_root.real) / p.gamma0
        assert code == 0
        assert _column(out, "clipped") == ["false"] * 7
        assert [float(v) for v in _column(out, "gamma_over_gamma0")[1:]] == pytest.approx(
            [tail] * 6, rel=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "huge-window FOUND: the probes of [0, 1e308] miss the decay, every integral reads 0 "
        "and the window is reported stationary"))
    def test_huge_window_is_not_stationary(self, capsys):
        # P falls from 1 to 0 inside the window, so it is not stationary.
        code, out, _ = invoke(capsys, "ratio", "--tau-d", "1e308")
        assert code == 0
        assert _column(out, "stationary") == ["false"]
