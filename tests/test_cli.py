import dataclasses
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import ngramcast
from ngramcast.errors import NgramcastError
from ngramcast.cli import ingest_csv, main
from ngramcast.evaluation import GeneratorSpec, generate
from ngramcast.forecasting import ForecastConfig, HoltConfig


class TestIngestCsv:
    def test_single_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1\n2\n3\n")
        series, _ = ingest_csv(path)
        assert list(series.values) == [1, 2, 3]

    def test_two_column_with_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,count\n2021-01-01,7\n2021-01-02,9\n")
        series, _ = ingest_csv(path)
        assert list(series.values) == [7, 9]

    def test_parse_error_reports_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1\nabc\n")
        with pytest.raises(NgramcastError, match=r"^row 2: cannot parse 'abc'$"):
            ingest_csv(path)

    @pytest.mark.parametrize("row", [1, 2])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_row(self, tmp_path, bad, row):
        lines = ["1", "2"]
        lines[row - 1] = bad
        path = tmp_path / "s.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NgramcastError, match=rf"^row {row}: cannot parse '{bad}'$"):
            ingest_csv(path)

    def test_empty_input(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n")
        with pytest.raises(NgramcastError, match=f"^no data rows in {re.escape(str(path))}$"):
            ingest_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_csv(tmp_path / "nope.csv")


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["generate", "--kind", "sinusoid", "--noise", "0.15", "--seed", "7"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrip_is_exact(self, tmp_path):
        path = tmp_path / "s.csv"
        rc = main(
            ["generate", "--length", "100", "--noise", "0.15", "--seed", "3",
             "--output", str(path)]
        )
        assert rc == 0
        series, _ = ingest_csv(path)
        expected = generate(GeneratorSpec(length=100, noise=0.15, seed=3))
        assert np.array_equal(series.values, expected.values)

    def test_linear_kind_endpoint(self, tmp_path):
        path = tmp_path / "s.csv"
        rc = main(
            ["generate", "--kind", "sinusoid-linear", "--slope", "0.02",
             "--length", "100", "--output", str(path)]
        )
        assert rc == 0
        series, _ = ingest_csv(path)
        base = generate(GeneratorSpec(length=100)).values
        assert (series.values - base)[-1] == pytest.approx(2.0)

    def test_invalid_flag_combination(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "sinusoid", "--slope", "0.5"])
        assert rc != 0
        assert "slope" in capsys.readouterr().err


class TestForecastCommand:
    @pytest.fixture
    def fig2_csv(self, tmp_path):
        path = tmp_path / "fig2.csv"
        main(["generate", "--length", "100", "--output", str(path)])
        return path

    def test_forecast_writes_outputs(self, fig2_csv, tmp_path):
        out = tmp_path / "fc.csv"
        report = tmp_path / "report.json"
        plot = tmp_path / "plot.csv"
        rc = main(
            ["forecast", "--input", str(fig2_csv), "--horizon", "20",
             "--multiplier", "1", "--levels", "32", "--criterion", "difference",
             "--trend", "none", "--output", str(out), "--report", str(report),
             "--plot-data", str(plot)]
        )
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "index,value"
        assert len(rows) == 21
        assert rows[1].startswith("101,")

        data = json.loads(report.read_text())
        assert data["manifest"]["subcommand"] == "forecast"
        assert data["manifest"]["tool_version"]
        assert len(data["manifest"]["input_sha256"]) == 64
        assert data["matched_start"] == 56
        assert data["multiplier_check"]["ok"] is True
        assert len(data["forecast"]["values"]) == 20

        plot_rows = plot.read_text().strip().splitlines()
        kinds = {r.split(",")[0] for r in plot_rows[1:]}
        assert kinds == {"history", "forecast"}

    def test_too_short_names_minimum(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("\n".join(str(i % 7) for i in range(30)) + "\n")
        rc = main(["forecast", "--input", str(path), "--horizon", "20"])
        assert rc != 0
        assert "41" in capsys.readouterr().err

    def test_multiplier_warning_does_not_fail(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        main(["generate", "--length", "100", "--output", str(path)])
        rc = main(
            ["forecast", "--input", str(path), "--horizon", "3", "--multiplier", "1"]
        )
        assert rc == 0
        assert "(2, 5]" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--method", "holt", "--horizon", "3"],
                                       ["--horizon", "2", "--window", "4"]])
    def test_unused_multiplier_gives_no_warning(self, tmp_path, capsys, flags):
        # the multiplier sets no window length here, so its advisory range does not apply
        path = tmp_path / "s.csv"
        main(["generate", "--length", "100", "--output", str(path)])
        capsys.readouterr()
        rc = main(["forecast", "--input", str(path), "--multiplier", "1", *flags])
        assert rc == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["multiplier_check"] is None

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["forecast", "--input", str(tmp_path / "x.csv"), "--horizon", "5"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["directory", "utf16", "output-directory"])
    def test_unusable_path_is_one_line_error(self, fig2_csv, tmp_path, capsys, case):
        utf16 = tmp_path / "utf16.csv"
        utf16.write_bytes(b"\xff\xfe1\x00\n\x00")
        argv, expected = {
            "directory": (["--input", str(tmp_path)], f"error: cannot read {tmp_path}: "),
            "utf16": (["--input", str(utf16)], f"error: {utf16} is not UTF-8 text"),
            "output-directory": (["--input", str(fig2_csv), "--output", str(tmp_path)],
                                 f"error: cannot write {tmp_path}: "),
        }[case]
        rc = main(["forecast", "--horizon", "5"] + argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(expected)

    @pytest.mark.parametrize("subcommand", ["generate", "forecast"])
    def test_broken_pipe_on_stdout_is_one_line_error(self, fig2_csv, capsys, subcommand):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        argv = {"generate": ["generate", "--length", "10"],
                "forecast": ["forecast", "--input", str(fig2_csv), "--horizon", "5"]}[subcommand]
        with redirect_stdout(ClosedPipe()):
            rc = main(argv)
        assert rc == 1
        assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"

    def test_overflowing_window_length_is_one_line_error(self, fig2_csv, capsys):
        argv = ["forecast", "--input", str(fig2_csv), "--horizon", "5", "--multiplier", "1e308"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: multiplier 1e+308 times horizon 5 is too large:"
            " the window length must be below 2^53\n")
        # an explicit window takes no product, so the same multiplier runs
        assert main(argv + ["--window", "4"]) == 0

    def test_inexact_window_length_is_one_line_error(self, fig2_csv, capsys):
        # 5e300 and 1e16 are finite, but past 2^53 ceil no longer gives the exact product
        cases = [("5", "1e300", "1e+300"), ("4", "2.5e15", "2500000000000000.0")]
        for horizon, multiplier, shown in cases:
            argv = ["forecast", "--input", str(fig2_csv), "--horizon", horizon,
                    "--multiplier", multiplier]
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: multiplier {shown} times horizon {horizon} is too large:"
                " the window length must be below 2^53\n")

    @pytest.mark.parametrize("flags, message", [
        (["--horizon", "5", "--window", "1"], "window must be >= 2, got 1"),
        (["--horizon", "1", "--multiplier", "0.5"],
         "derived window length 1 is below 2 (horizon=1, multiplier=0.5)"),
        (["--horizon", "5", "--multiplier", "1e308"],
         "multiplier 1e+308 times horizon 5 is too large: the window length must be below 2^53"),
    ], ids=["window", "derived-window", "overflow"])
    def test_bad_window_fails_on_a_constant_series_too(self, tmp_path, capsys, flags, message):
        for name, rows in [("varied", range(30)), ("constant", [7] * 30)]:
            path = tmp_path / f"{name}.csv"
            path.write_text("".join(f"{v}\n" for v in rows))
            assert main(["forecast", "--input", str(path)] + flags) == 1, name
            assert capsys.readouterr().err == f"error: {message}\n", name

    def test_window_error_wins_over_a_too_short_series(self, tmp_path, capsys):
        # the config is checked before the series, in backtest as in forecast
        path = tmp_path / "short.csv"
        path.write_text("1\n2\n3\n")
        for subcommand in ("forecast", "backtest"):
            argv = [subcommand, "--input", str(path), "--horizon", "5", "--window", "1"]
            assert main(argv) == 1, subcommand
            assert capsys.readouterr().err == "error: window must be >= 2, got 1\n", subcommand

    @pytest.mark.parametrize("flags, message", [
        (["--window", "1"], "window must be >= 2, got 1"),
        (["--multiplier", "0.1"], "derived window length 1 is below 2"),
        (["--method", "holt", "--xi", "2"], "xi must be in [0, 1], got 2.0"),
    ], ids=["window", "derived-window", "xi"])
    def test_bad_flag_fails_before_the_input_is_read(self, tmp_path, capsys, flags, message):
        argv = ["backtest", "--input", str(tmp_path / "missing.csv"), "--horizon", "5", *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("rows, flags, message", [
        # max - min overflows float64
        (["1e308", "-1e308", "0"] * 20, [],
         "value range [-1e+308, 1e+308] is too wide: max - min overflows float64"),
        # the least-squares sums of the linear trend overflow float64
        ([repr(1e306 * k) for k in range(1, 61)], ["--trend", "linear"],
         "values up to 6e+307 are too large for the linear trend:"
         " its fit or its transfer overflows float64"),
    ], ids=["range", "linear-trend"])
    def test_too_large_values_are_one_line_error(self, tmp_path, rows, flags, message):
        # -W error turns any stray warning into a failure
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(rows) + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(ngramcast.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ngramcast.cli", "forecast",
             "--input", str(path), "--horizon", "5", *flags],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {message}"]

    def test_holdout_flag_is_gone(self, fig2_csv, capsys):
        # backtest is the one way to score against the held-out tail
        rc = main(["forecast", "--input", str(fig2_csv), "--horizon", "20", "--holdout"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ngramcast ")
        assert err.endswith("error: unrecognized arguments: --holdout\n")

    def test_input_is_read_once(self, fig2_csv, tmp_path, monkeypatch):
        # the manifest hashes the same bytes that were parsed
        reads = []
        for name in ("read_bytes", "read_text"):
            def counted(self, *args, _read=getattr(Path, name), **kwargs):
                if self == fig2_csv:
                    reads.append(_read.__name__)
                return _read(self, *args, **kwargs)
            monkeypatch.setattr(Path, name, counted)
        rc = main(["forecast", "--input", str(fig2_csv), "--horizon", "20",
                   "--report", str(tmp_path / "report.json")])
        assert rc == 0
        assert len(reads) == 1

    def test_unknown_flag_fails_fast(self, fig2_csv, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        rc = main(
            ["forecast", "--input", str(fig2_csv), "--horizon", "20",
             "--output", str(out), "--bogus"]
        )
        assert rc != 0
        assert not out.exists()

    def test_holt_method(self, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("\n".join(str(float(k)) for k in range(1, 31)) + "\n")
        report = tmp_path / "report.json"
        rc = main(
            ["forecast", "--input", str(path), "--horizon", "5",
             "--method", "holt", "--xi", "0.3", "--phi", "0.7",
             "--report", str(report)]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["method"] == "holt"
        assert data["forecast"]["values"] == pytest.approx([31, 32, 33, 34, 35])

    def test_byte_identical_runs(self, fig2_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            report = tmp_path / f"{name}.json"
            rc = main(
                ["forecast", "--input", str(fig2_csv), "--horizon", "20",
                 "--output", str(out), "--report", str(report)]
            )
            assert rc == 0
            outs.append((out.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]


class TestShortHorizonDefaults:
    """The default multiplier fits every horizon: no flag is needed below P = 5."""

    @pytest.fixture(scope="class")
    def paper_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("paper") / "paper.csv"
        assert main(["generate", "--length", "100", "--noise", "0.15", "--seed", "7",
                     "--output", str(path)]) == 0
        return path

    @pytest.mark.parametrize("subcommand", ["forecast", "backtest"])
    @pytest.mark.parametrize("horizon", [1, 2, 3, 4])
    def test_runs_quietly(self, paper_csv, capsys, subcommand, horizon):
        capsys.readouterr()
        assert main([subcommand, "--input", str(paper_csv), "--horizon", str(horizon)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert report["multiplier_check"] == {"ok": True, "message": "ok"}
        assert report["manifest"]["config"]["multiplier"] == ForecastConfig(horizon).multiplier

    @pytest.mark.parametrize("horizon, rows", [(1, 5), (2, 8), (3, 11), (4, 14)])
    def test_minimum_length(self, tmp_path, capsys, horizon, rows):
        # the default windows N = 3, 5, 7, 9 need N + P + 1 rows; a row fewer names the flag
        path = tmp_path / "short.csv"
        argv = ["forecast", "--input", str(path), "--horizon", str(horizon)]
        values = generate(GeneratorSpec(length=rows, noise=0.15, seed=7)).values.tolist()
        path.write_text("".join(f"{v!r}\n" for v in values))
        assert main(argv) == 0
        path.write_text("".join(f"{v!r}\n" for v in values[1:]))
        capsys.readouterr()
        assert main(argv) == 1
        too_short = f"error: series length {rows - 1} is below the minimum required length {rows}"
        assert capsys.readouterr().err == (
            f"{too_short}: the default --multiplier 2.25 makes a window of {2 * horizon + 1} at"
            f" --horizon {horizon}; a smaller --multiplier or a --window needs fewer rows\n")
        assert main(argv + ["--multiplier", "2.25"]) == 1  # a flag as given needs no hint
        assert capsys.readouterr().err == too_short + "\n"

    @pytest.mark.parametrize("flags, recorded", [([], None), (["--multiplier", "3"], 3.0)])
    def test_holt_manifest_records_the_flag_as_given(self, paper_csv, capsys, flags, recorded):
        # M sets nothing for Holt, so no default is filled in
        argv = ["forecast", "--input", str(paper_csv), "--horizon", "3", "--method", "holt"]
        assert main(argv + flags) == 0
        assert json.loads(capsys.readouterr().out)["manifest"]["config"]["multiplier"] == recorded


class TestBacktestCommand:
    def test_backtest_reports_metrics(self, tmp_path):
        path = tmp_path / "s.csv"
        main(["generate", "--length", "100", "--output", str(path)])
        report = tmp_path / "report.json"
        rc = main(
            ["backtest", "--input", str(path), "--horizon", "20",
             "--levels", "32", "--report", str(report)]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        metrics = data["metrics"]
        assert metrics["mae"] <= metrics["rmse"] + 1e-12
        assert metrics["rmse"] <= 0.125
        assert data["forecast"]["first_index"] == 81

    def test_large_constant_error_is_scored(self, tmp_path):
        # rounding puts MAE one ulp above RMSE here; the backtest must still succeed
        path = tmp_path / "s.csv"
        path.write_text("0\n" * 25 + "1e12\n" * 5)
        report = tmp_path / "report.json"
        rc = main(
            ["backtest", "--input", str(path), "--horizon", "5", "--method", "holt",
             "--report", str(report)]
        )
        assert rc == 0
        metrics = json.loads(report.read_text())["metrics"]
        assert metrics["mae"] == 1e12
        assert metrics["rmse"] == pytest.approx(1e12, rel=1e-15)

    @pytest.mark.parametrize("method", [["--method", "holt"], ["--multiplier", "3"]])
    def test_horizon_one_has_null_correlation(self, tmp_path, capsys, method):
        path = tmp_path / "s.csv"
        main(["generate", "--length", "50", "--noise", "0.1", "--output", str(path)])
        report = tmp_path / "report.json"
        rc = main(["backtest", "--input", str(path), "--horizon", "1", "--report", str(report),
                   *method])
        assert rc == 0
        assert "error" not in capsys.readouterr().err
        assert '"correlation": null' in report.read_text()

    def test_plot_data_includes_actual(self, tmp_path):
        path = tmp_path / "s.csv"
        main(["generate", "--length", "100", "--output", str(path)])
        plot = tmp_path / "plot.csv"
        rc = main(
            ["backtest", "--input", str(path), "--horizon", "20",
             "--plot-data", str(plot)]
        )
        assert rc == 0
        kinds = {r.split(",")[0] for r in plot.read_text().strip().splitlines()[1:]}
        assert kinds == {"history", "forecast", "actual"}

    @pytest.mark.parametrize("flags, message", [
        (["--horizon", "5", "--multiplier", "1"],
         "series length 7 is below the minimum required length 16"),
        (["--horizon", "6", "--method", "holt"],
         "series length 7 is below the minimum required length 8"),
        (["--horizon", "3"],
         "series length 7 is below the minimum required length 14: the default --multiplier"
         " 2.25 makes a window of 7 at --horizon 3; a smaller --multiplier or a --window needs"
         " fewer rows"),
    ], ids=["phrase", "holt", "default-multiplier"])
    def test_too_short_names_the_files_rows(self, tmp_path, capsys, flags, message):
        # the rows needed count the held-out tail, not just the training prefix
        path = tmp_path / "s.csv"
        main(["generate", "--length", "7", "--output", str(path)])
        capsys.readouterr()
        assert main(["backtest", "--input", str(path), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("horizon, rows", [(1, 6), (2, 10), (3, 14), (4, 18)])
    def test_minimum_length_on_the_defaults(self, tmp_path, capsys, horizon, rows):
        # the default windows N = 2P + 1 need 4P + 2 rows, held-out tail included
        path = tmp_path / "short.csv"
        argv = ["backtest", "--input", str(path), "--horizon", str(horizon)]
        values = generate(GeneratorSpec(length=rows, noise=0.15, seed=7)).values.tolist()
        path.write_text("".join(f"{v!r}\n" for v in values))
        assert main(argv) == 0
        path.write_text("".join(f"{v!r}\n" for v in values[1:]))
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: series length {rows - 1} is below the minimum required length {rows}: ")

    def test_constant_prefix_takes_the_shortcut(self, tmp_path, capsys):
        # a one-row constant prefix is forecast as the constant, not refused as too short
        path = tmp_path / "s.csv"
        path.write_text("4\n" * 6)
        assert main(["backtest", "--input", str(path), "--horizon", "5"]) == 0
        assert capsys.readouterr().err == (
            "warning: constant series: quantization skipped, forecast is the constant\n")


class TestMapeOverflow:
    """A backtest report holds a finite MAPE or null, never Infinity."""

    def backtest(self, tmp_path, capsys, rows, horizon):
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{row}\n" for row in rows))
        rc = main(["backtest", "--input", str(path), "--horizon", str(horizon),
                   "--method", "holt"])
        out, err = capsys.readouterr()
        return rc, out, err

    def test_mape_past_float64_is_null(self, tmp_path, capsys):
        rc, out, err = self.backtest(tmp_path, capsys, ["1e10"] * 10 + ["1e-300"], 1)
        assert (rc, err) == (0, "")
        assert json.loads(out, parse_constant=_reject)["metrics"]["mape"] is None

    def test_overflowing_ratio_gives_finite_mape(self, tmp_path, capsys):
        rc, out, err = self.backtest(tmp_path, capsys, ["10"] * 10 + ["1e-308"] + ["10"] * 999, 1000)
        assert (rc, err) == (0, "")
        assert json.loads(out, parse_constant=_reject)["metrics"]["mape"] == pytest.approx(1e308)

    def test_errors_past_float64_are_one_line_error(self, tmp_path, capsys):
        rc, out, err = self.backtest(tmp_path, capsys, ["1e308"] * 10 + ["-1e308"], 1)
        assert (rc, out) == (1, "")
        assert err == "error: the forecast errors are too large: RMSE overflows float64\n"


@pytest.mark.parametrize("argv", [
    ["forecast", "--input", "s.csv", "--horizon", "3", "--method", "holt", "--multiplier", "nan"],
    ["backtest", "--input", "s.csv", "--horizon", "3", "--xi", "nan"],
    ["forecast", "--input", "s.csv", "--horizon", "3", "--multiplier", "inf"],
    ["generate", "--noise", "nan"],
    ["generate", "--phase", "inf"],
])
def test_non_finite_float_flag_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # a report or manifest records every flag, and strict JSON has no nan or inf
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.csv").write_text("".join(f"{k % 5}\n" for k in range(40)))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    flag, value = argv[-2:]
    assert out == ""
    assert err.startswith("usage: ngramcast")
    assert err.endswith(f"error: argument {flag}: not a finite number: {float(value)!r}\n")


def _reject(constant):
    raise ValueError(f"{constant} is not valid JSON")


class TestLargeValues:
    @pytest.mark.parametrize("subcommand", ["forecast", "backtest"])
    @pytest.mark.parametrize("flags", [
        [], ["--trend", "linear"], ["--criterion", "correlation"],
        ["--criterion", "correlation", "--trend", "linear"], ["--method", "holt"],
    ], ids=["difference-none", "difference-linear", "correlation-none", "correlation-linear",
            "holt"])
    def test_quiet_and_finite_at_1e160(self, tmp_path, capsys, subcommand, flags):
        # squares of these values overflow float64; pearson and error_metrics recover from it
        values = generate(GeneratorSpec(noise=0.15, seed=7)).values * 1e160
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(map(repr, values.tolist())) + "\n")
        rc = main([subcommand, "--input", str(path), "--horizon", "20", *flags])
        out, err = capsys.readouterr()
        assert rc == 0
        assert "overflow" not in err
        report = json.loads(out, parse_constant=_reject)
        assert all(map(math.isfinite, report["forecast"]["values"]))
        if subcommand == "backtest":
            metrics = report["metrics"]
            assert all(math.isfinite(v) for v in metrics.values() if v is not None)
            # over 20 errors, MAE <= RMSE <= sqrt(20) * MAE
            assert metrics["mae"] <= metrics["rmse"] <= math.sqrt(20) * metrics["mae"]


class TestDefaults:
    """The CLI's defaults are the defaults of the library's config records."""

    def test_generate(self, capsys):
        assert main(["generate"]) == 0
        out, err = capsys.readouterr()
        assert out == "".join(f"{v!r}\n" for v in generate(GeneratorSpec()).values.tolist())
        assert json.loads(err)["config"] == dataclasses.asdict(GeneratorSpec())

    @pytest.mark.parametrize("subcommand", ["forecast", "backtest"])
    def test_forecast_and_backtest(self, tmp_path, capsys, subcommand):
        path = tmp_path / "s.csv"
        path.write_text("\n".join(map(repr, generate(GeneratorSpec()).values.tolist())) + "\n")
        assert main([subcommand, "--input", str(path), "--horizon", "7"]) == 0
        phrase, holt = ForecastConfig(7), HoltConfig(7)
        assert json.loads(capsys.readouterr().out)["manifest"]["config"] == {
            "input": str(path), "horizon": 7, "multiplier": phrase.multiplier,
            "window": phrase.window, "levels": phrase.levels,
            "criterion": phrase.criterion.value, "trend": phrase.trend_mode.value,
            "method": "linguistic", "xi": holt.xi, "phi": holt.phi,
            "holdout": subcommand == "backtest",
        }
