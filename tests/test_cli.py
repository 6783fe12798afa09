import argparse
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
from ngramcast.cli import build_parser, ingest_csv, main
from ngramcast.evaluation import GeneratorSpec, generate
from ngramcast.forecasting import ForecastConfig, HoltConfig
from ngramcast.series import NgramcastError


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

    @pytest.mark.parametrize("flags", [["--method", "holt", "--horizon", "3"],
                                       ["--method", "holt", "--horizon", "2"]])
    def test_unused_multiplier_gives_no_warning(self, tmp_path, capsys, flags):
        # Holt has no window for the multiplier to set, so its advisory range does not apply
        path = tmp_path / "s.csv"
        main(["generate", "--length", "100", "--output", str(path)])
        capsys.readouterr()
        rc = main(["forecast", "--input", str(path), "--multiplier", "1", *flags])
        assert rc == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["multiplier_check"] is None

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
            f" --horizon {horizon}; a smaller --multiplier needs fewer rows\n")
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

    def test_tiny_values_keep_rmse(self, tmp_path, capsys):
        # errors near 1e-200 square to below float64's range, yet RMSE is not 0
        path = tmp_path / "s.csv"
        values = (generate(GeneratorSpec(length=60)).values * 1e-200).tolist()
        path.write_text("".join(f"{v!r}\n" for v in values))
        assert main(["backtest", "--input", str(path), "--method", "holt", "--horizon", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        errors = [f - a for f, a in zip(report["forecast"]["values"], values[-5:])]
        exact = math.sqrt(sum((e * 1e200) ** 2 for e in errors) / 5) * 1e-200
        assert report["metrics"]["rmse"] >= report["metrics"]["mae"] > 0.0
        assert report["metrics"]["rmse"] == pytest.approx(exact, rel=1e-12)

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


def _text(values) -> str:  # one value a line, a float as its repr: the bytes generate writes
    return "".join(f"{v}\n" for v in values)


# the stderr table's inputs by name; "missing" names a file that is never written
SERIES = {
    "paper": _text(generate(GeneratorSpec(length=100)).values.tolist()),
    "paper-7": _text(generate(GeneratorSpec(length=7)).values.tolist()),
    "noisy-300": _text(generate(GeneratorSpec(length=300, noise=0.15, seed=7)).values.tolist()),
    "range-30": _text(range(30)),
    "sevens": _text([7] * 30),
    "mod-7": _text(k % 7 for k in range(30)),
    "mod-5": _text(k % 5 for k in range(40)),
    **{f"1-{n}": _text(range(1, n + 1)) for n in (2, 3, 5, 6)},
    "fours": _text([4] * 6),
    "sine-then-flat": _text([math.sin(k / 4) for k in range(1, 61)] + [0.5] * 20),
    "thirds": _text([1 / 3] * 11 + [0.9]),
    "huge-errors": _text(["1e308"] * 10 + ["-1e308"]),
    "huge-tail": _text([0.0] * 55 + [1.5e308] * 5),
    "huge-tail-then-zeros": _text([0.0] * 55 + [1.5e308] * 5 + [0.0] * 5),
}
_HUGE = 10**400  # past float64
_TOO_LARGE = ("error: multiplier {} times horizon {} is too large:"
              " the window length must be below 2^53\n")
_BELOW = "error: derived window length {} is below {} (horizon={}, multiplier={}){}\n"
_SHORT = "error: series length {} is below the minimum required length {}{}\n"
_SIGN = ": r of {} {}points is +1 or -1, so it would carry only a sign"
_HINT = (": the default --multiplier {} makes a window of {} at --horizon {};"
         " a smaller --multiplier needs fewer rows")


# Each row is (id, subcommands, flags, input, exit code, stderr), in README order; an exit-2
# row gives the last line of the usage error, and "{input}" stands for the input's path.
STDERR = [
    ("test_holdout_flag_is_gone", "forecast", "--horizon 20 --holdout", "paper", 2,
     "ngramcast: error: unrecognized arguments: --holdout"),
    ("test_unknown_flag_fails_fast", "forecast", "--horizon 20 --bogus", "paper", 2,
     "ngramcast: error: unrecognized arguments: --bogus"),
    # a report or manifest records every flag, and strict JSON has no nan or inf
    *((f"test_non_finite_float_flag_is_a_usage_error-{flag}-{value}", subcommand,
       f"{flags} --{flag} {value}", "mod-5", 2,
       f"ngramcast: error: argument --{flag}: not a finite number: {value}")
      for subcommand, flags, flag, value in [
          ("forecast", "--horizon 3 --method holt", "multiplier", "nan"),
          ("backtest", "--horizon 3", "xi", "nan"),
          ("forecast", "--horizon 3", "multiplier", "inf"),
          ("generate", "", "noise", "nan"),
          ("generate", "", "phase", "inf")]),
    ("test_invalid_flag_combination", "generate", "--kind sinusoid --slope 0.5", None, 1,
     "error: slope and quadratic must be 0 for kind 'sinusoid'\n"),
    ("length-past-2^53", "generate", f"--length {_HUGE}", None, 1,
     f"error: length must be at most 2^53, got {_HUGE}\n"),
    ("test_bad_levels_wins_over_a_missing_file", "forecast", "--horizon 5 --levels 0", "missing",
     1, "error: levels must be >= 1, got 0\n"),
    # 10^400 does not convert to float64; the config refuses it before the input is read
    *((f"test_integer_past_float64_is_one_line_error-{flag}-{series}", "forecast backtest",
       f"--horizon 5 --{flag} {_HUGE}", series, 1, stderr)
      for flag, stderr in [("levels", f"error: levels must be below 2^63, got {_HUGE}\n"),
                           ("horizon", _TOO_LARGE.format(1.0, _HUGE))]
      for series in ["paper", "missing"]),
    # 1e300 and 2.5e15 are finite, but past 2^53 ceil no longer gives the exact product
    *((f"test_{name}_window_length_is_one_line_error-{multiplier}", "forecast",
       f"--horizon {horizon} --multiplier {multiplier}", "paper", 1,
       _TOO_LARGE.format(float(multiplier), horizon))
      for name, horizon, multiplier in [("overflowing", 5, "1e308"), ("inexact", 5, "1e300"),
                                        ("inexact", 4, "2.5e15")]),
    *((f"test_bad_window_fails_on_a_constant_series_too-{case}-{series}", "forecast", flags,
       series, 1, stderr)
      for case, flags, stderr in [
          ("window", "--horizon 5 --multiplier 0.2", _BELOW.format(1, 2, 5, 0.2, "")),
          ("derived-window", "--horizon 1 --multiplier 0.5", _BELOW.format(1, 2, 1, 0.5, "")),
          ("overflow", "--horizon 5 --multiplier 1e308", _TOO_LARGE.format(1e308, 5)),
          ("zero-multiplier", "--horizon 5 --multiplier=0",
           "error: multiplier must be > 0, got 0.0\n")]
      for series in ["range-30", "sevens"]),
    *((f"test_bad_flag_fails_before_the_input_is_read-{case}", "backtest", f"--horizon 5 {flags}",
       "missing", 1, stderr)
      for case, flags, stderr in [
          ("window", "--multiplier 1e308", _TOO_LARGE.format(1e308, 5)),
          ("derived-window", "--multiplier 0.1", _BELOW.format(1, 2, 5, 0.1, "")),
          ("xi", "--method holt --xi 2", "error: xi must be in [0, 1], got 2.0\n")]),
    ("test_window_error_wins_over_a_too_short_series", "forecast backtest",
     "--horizon 5 --multiplier 0.1", "1-3", 1, _BELOW.format(1, 2, 5, 0.1, "")),
    # the matcher once picked start 296 here, with r = 1.0 from the rounding in flat residues
    ("test_window_of_2_under_a_linear_trend_is_one_line_error", "backtest",
     "--horizon 1 --multiplier 1.5 --criterion correlation --trend linear", "noisy-300", 1,
     _BELOW.format(2, 4, 1, 1.5, _SIGN.format(3, "detrended "))),
    ("window-of-2-under-correlation", "forecast backtest",
     "--horizon 1 --multiplier 1.5 --criterion correlation", "noisy-300", 1,
     _BELOW.format(2, 3, 1, 1.5, _SIGN.format(2, ""))),
    # the default multiplier 2.25 makes a window of 3 at --horizon 1: the line names it
    ("default-window-of-3-under-correlation-and-a-linear-trend", "forecast backtest",
     "--horizon 1 --criterion correlation --trend linear", "noisy-300", 1,
     _BELOW.format(3, 4, 1, 2.25, _SIGN.format(3, "detrended "))),
    ("test_missing_input_file", "forecast", "--horizon 5", "missing", 1,
     "error: file not found: {input}\n"),
    ("test_too_short_names_minimum", "forecast", "--horizon 20", "mod-7", 1,
     _SHORT.format(30, 41, _HINT.format(1.0, 20, 20))),
    # a backtest counts the held-out tail in the rows it needs; Holt starts from two rows
    *((f"test_too_short_names_the_files_rows-{case}", "backtest", flags, "paper-7", 1,
       _SHORT.format(7, minimum, hint))
      for case, flags, minimum, hint in [
          ("phrase", "--horizon 5 --multiplier 1", 16, ""),
          ("holt", "--horizon 6 --method holt", 8, ""),
          ("default-multiplier", "--horizon 3", 14, _HINT.format(2.25, 7, 3))]),
    # a backtest at --horizon 3 needs 4 rows whatever the window, so no --multiplier helps
    ("test_no_hint_when_no_window_sets_the_minimum", "backtest", "--horizon 3", "1-3", 1,
     _SHORT.format(3, 4, "")),
    *((f"test_holt_names_a_two_row_prefix-{rows}-{horizon}", "backtest",
       f"--method holt --horizon {horizon}", f"1-{rows}", 1, _SHORT.format(rows, minimum, ""))
      for rows, horizon, minimum in [(3, 5, 7), (5, 5, 7), (6, 5, 7), (2, 2, 4)]),
    # the query quantizes to one grid value; its r with a flat window was noise, 1.0 at start 66
    *((f"test_constant_query_under_correlation_is_one_line_error-{trend}", "forecast",
       f"--horizon 5 --multiplier 2 --levels 20 --criterion correlation --trend {trend}",
       "sine-then-flat", 1, "error: the query, the last 10 values, is constant: r is undefined\n")
      for trend in ["none", "linear"]),
    # both windows are ten values of 1/3, whose detrended rounding once scored r = 0.0474
    ("test_constant_candidates_under_correlation_are_one_line_error", "forecast",
     "--horizon 1 --multiplier 9.5 --criterion correlation --trend linear", "thirds", 1,
     "error: every candidate window was excluded under the correlation criterion\n"),
    # the best window's L1 score was Infinity in the report; a backtest holds out 5 zeros
    *((f"score-past-float64-{subcommand}", subcommand, "--horizon 5", series, 1,
       "error: values up to 1.5e+308 are too large for the difference criterion: the best"
       " window's score overflows float64\n")
      for subcommand, series in [("forecast", "huge-tail"), ("backtest", "huge-tail-then-zeros")]),
    ("test_errors_past_float64_are_one_line_error", "backtest", "--horizon 1 --method holt",
     "huge-errors", 1, "error: the forecast errors are too large: RMSE overflows float64\n"),
    ("test_multiplier_warning_does_not_fail", "forecast", "--horizon 3 --multiplier 1", "paper",
     0, "warning: multiplier 1.0 outside recommended range (2, 5] for horizon < 5\n"),
    # a one-row constant prefix is forecast as the constant, not refused as too short
    ("test_constant_prefix_takes_the_shortcut", "backtest", "--horizon 5", "fours", 0,
     "warning: constant series: quantization skipped, forecast is the constant\n"),
]


@pytest.mark.parametrize("subcommands, flags, series, code, stderr",
                         [pytest.param(*row, id=name) for name, *row in STDERR])
def test_stderr(tmp_path, capsys, subcommands, flags, series, code, stderr):
    # all of stderr, or for exit 2 the usage line and the last line; a refusal writes no file
    path, out, report = tmp_path / "s.csv", tmp_path / "out.csv", tmp_path / "report.json"
    if SERIES.get(series):
        path.write_text(SERIES[series])
    for subcommand in subcommands.split():
        source = [] if subcommand == "generate" else ["--input", str(path), "--report", str(report)]
        rc = main([subcommand, *source, *flags.split(), "--output", str(out)])
        stdout, err = capsys.readouterr()
        assert (rc, stdout) == (code, ""), subcommand
        if code == 2:
            assert err.startswith("usage: ngramcast ") and err.splitlines()[-1] == stderr
        else:
            assert err == stderr.replace("{input}", str(path)), subcommand
        assert code == 0 or not (out.exists() or report.exists()), subcommand


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) and"
                 " data type int64"),
     "out of memory (Unable to allocate 7.11 PiB for an array with shape (1000000000000000,)"
     " and data type int64)"),
    (MemoryError(), "out of memory"),  # a bare one has no text of its own
], ids=["numpy", "bare"])
def test_out_of_memory_is_one_line_error(tmp_path, monkeypatch, capsys, error, message):
    # generate raises as numpy does on an array that memory cannot hold; nothing is allocated
    def allocate(spec):
        raise error

    monkeypatch.setattr("ngramcast.cli.generate", allocate)
    out = tmp_path / "out.csv"
    assert main(["generate", "--length", "10", "--output", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


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
            "levels": phrase.levels, "criterion": phrase.criterion.value,
            "trend": phrase.trend_mode.value,
            "method": "linguistic", "xi": holt.xi, "phi": holt.phi,
            "holdout": subcommand == "backtest",
        }


def test_readme_names_only_real_flags():
    # every --flag the README mentions is an option of ngramcast or one of its subcommands
    parser = build_parser()
    options = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= set(subparser._option_string_actions)
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
    assert "--horizon" in flags
    assert sorted(flags - options) == []
