import argparse
import ast
import dataclasses
import errno
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import traceback
import warnings
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

import pytest

import ngramcast
from ngramcast import TimeSeries, forecast, holdout_backtest
from ngramcast.cli import _run_forecast, _run_generate, build_parser, main
from ngramcast.evaluation import GeneratorSpec, generate
from ngramcast.forecasting import ForecastConfig, HoltConfig
from mutants import MUTANTS
from test_refusals import (BELOW, EXCLUDED, HUGE, LINE, NOT_FINITE, REFUSALS, SHORT, SIGN,
                           TOO_LARGE)


def _values(**fields) -> list:
    return generate(GeneratorSpec(**fields)).values.tolist()


def _text(values) -> bytes:  # one value a line, a float as its repr: the bytes generate writes
    return "".join(f"{v}\n" for v in values).encode()


_TINY = [v * 1e-200 for v in _values(length=60)]
# the run table's inputs by name; "missing" names a file that is never written
SERIES = {
    "paper": _text(_values(length=100)),
    "paper-7": _text(_values(length=7)),
    "noisy-50": _text(_values(length=50, noise=0.1)),
    **{f"noisy-{n}": _text(_values(length=n, noise=0.15, seed=7))
       for n in (5, 6, 8, 10, 11, 14, 18, 100, 300)},
    **{f"noisy-{n}-but-its-first": _text(_values(length=n, noise=0.15, seed=7)[1:])
       for n in (5, 6, 8, 10, 11, 14, 18)},
    "labelled-noisy-100": b"date,value\n" + "".join(
        f"2021-{k},{v}\n" for k, v in enumerate(_values(length=100, noise=0.15, seed=7), 1)
    ).encode(),
    "noisy-100-at-1e160": _text(v * 1e160 for v in _values(noise=0.15, seed=7)),
    "tiny": _text(_TINY),
    "range-30": _text(range(30)),
    "sevens": _text([7] * 30),
    "mod-7": _text(k % 7 for k in range(30)),
    "mod-5": _text(k % 5 for k in range(40)),
    **{f"1-{n}": _text(range(1, n + 1)) for n in (2, 3, 5, 6, 30)},
    "fours": _text([4] * 6),
    "one-row": b"4.5\n",
    "labelled-one-row": b"date,value\n2021-01-01,4.5\n",
    "utf16": b"\xff\xfe1\x00\n\x00",
    "x-on-line-4": b"1\n\n2\nx\n",
    "header-only": b"date,value\n",
    "sine-then-flat": _text([math.sin(k / 4) for k in range(1, 61)] + [0.5] * 20),
    "thirds": _text([1 / 3] * 11 + [0.9]),
    "zeros-then-1e12": _text([0] * 25 + [1e12] * 5),
    "mape-past-float64": _text([1e10] * 10 + [1e-300]),
    "ratio-past-float64": _text([10] * 10 + [1e-308] + [10] * 999),
    "wide": _text(["1e308", "-1e308", "0"] * 20),
    "ramp-to-6e307": _text(1e306 * k for k in range(1, 61)),
    "huge-errors": _text(["1e308"] * 10 + ["-1e308"]),
    "huge-tail": _text([0.0] * 55 + [1.5e308] * 5),
    "huge-tail-then-zeros": _text([0.0] * 55 + [1.5e308] * 5 + [0.0] * 5),
}
_EISDIR = os.strerror(errno.EISDIR)
_HINT = (": the default --multiplier {} makes a window of {} at --horizon {};"
         " a smaller --multiplier needs fewer rows")
_CONSTANT = "warning: constant series: quantization skipped, forecast is the constant\n"
# the default windows N = 2P + 1 need N + P + 1 rows, a backtest P more for its held-out tail
_MINIMUM = [(name, subcommand, horizon, (2 + extra) * horizon + 2)
            for name, subcommand, extra in [
                ("TestShortHorizonDefaults.test_minimum_length", "forecast", 1),
                ("TestBacktestCommand.test_minimum_length_on_the_defaults", "backtest", 2)]
            for horizon in (1, 2, 3, 4)]
MODES = [("difference-none", ""), ("difference-linear", "--trend linear"),
         ("correlation-none", "--criterion correlation"),
         ("correlation-linear", "--criterion correlation --trend linear"),
         ("holt", "--method holt")]


def _error(template, *args, then="") -> str:
    """The stderr of a run that a library refusal ends: its message as one error line."""
    return f"error: {template.format(*args)}{then}\n"


def _on_a_constant_series_too(case, flags, stderr) -> list:
    """Two refused forecast runs: a bad flag fails on a ramp and on a constant series alike."""
    return [(f"test_bad_window_fails_on_a_constant_series_too-{case}-{series}", "forecast", flags,
             series, 1, stderr) for series in ["range-30", "sevens"]]


def _manifest(**fields) -> str:  # the line generate writes to stderr
    return json.dumps({"subcommand": "generate",
                       "config": dataclasses.asdict(GeneratorSpec(**fields)),
                       "input_sha256": None, "tool_version": ngramcast.__version__}) + "\n"


def _kinds(plot) -> set:
    return {row.split(",")[0] for row in plot.splitlines()[1:]}


def _writes_outputs(report, out, plot) -> bool:
    rows, manifest = out.splitlines(), report["manifest"]
    return (rows[0] == "index,value" and len(rows) == 21 and rows[1].startswith("101,")
            and manifest["subcommand"] == "forecast" and bool(manifest["tool_version"])
            and len(manifest["input_sha256"]) == 64 and report["matched_start"] == 56
            and report["multiplier_check"]["ok"] is True
            and len(report["forecast"]["values"]) == 20 and _kinds(plot) == {"history", "forecast"})


def _keeps_tiny_rmse(report, out, plot) -> bool:
    # errors near 1e-200 square to below float64's range, yet RMSE is not 0
    errors = [f - a for f, a in zip(report["forecast"]["values"], _TINY[-5:])]
    exact = math.sqrt(sum((e * 1e200) ** 2 for e in errors) / 5) * 1e-200
    rmse, mae = report["metrics"]["rmse"], report["metrics"]["mae"]
    return rmse >= mae > 0.0 and rmse == pytest.approx(exact, rel=1e-12)


def _reads_past_labels(report, out, plot) -> bool:
    # the labelled file's values are those of noisy-100, so its forecast is the library's on them
    series, config = TimeSeries(_values(length=100, noise=0.15, seed=7)), ForecastConfig(20)
    result = (holdout_backtest(series, config)[1] if report["manifest"]["config"]["holdout"]
              else forecast(series, config))
    return ((report["matched_start"], report["forecast"]["values"])
            == (result.matched_start, list(result.values)))


def _defaults(holdout) -> dict:  # the manifest of a run that gives only --input and --horizon 7
    phrase, holt = ForecastConfig(7), HoltConfig(7)
    return {"input": "s.csv", "horizon": 7, "multiplier": phrase.multiplier,
            "levels": phrase.levels, "criterion": phrase.criterion.value,
            "trend": phrase.trend_mode.value, "method": "linguistic", "xi": holt.xi,
            "phi": holt.phi, "holdout": holdout}


# Each row is (id, subcommands, flags, input, exit code, stderr[, check]): the refusals and
# warnings in README order, then the quiet runs. An exit-2 row gives the last line of the usage
# error. A check takes the report (strict JSON) and the texts of the output and plot files.
# An id names the one-off test the row replaced, with its class, or the rule it adds.
RUNS = [
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
    ("length-past-2^53", "generate", f"--length {HUGE}", None, 1,
     f"error: length must be at most 2^53, got {HUGE}\n"),
    # the flags are finite, but a value is not: generate names the flags, not the series
    *((f"generated-values-not-finite-{case}", "generate", flags, None, 1, _error(NOT_FINITE))
      for case, flags in [
          ("quadratic", "--kind sinusoid-quadratic --quadratic 1e300 --length 1000000"),
          ("period", "--period 1e-320")]),
    ("test_bad_levels_wins_over_a_missing_file", "forecast", "--horizon 5 --levels 0", "missing",
     1, "error: levels must be >= 1, got 0\n"),
    # 10^400 does not convert to float64; the config refuses it before the input is read
    *((f"test_integer_past_float64_is_one_line_error-{flag}-{series}", "forecast backtest",
       f"--horizon 5 --{flag} {HUGE}", series, 1, stderr)
      for flag, stderr in [("levels", f"error: levels must be below 2^63, got {HUGE}\n"),
                           ("horizon", _error(TOO_LARGE, 1.0, HUGE))]
      for series in ["paper", "missing"]),
    # 1e300 and 2.5e15 are finite, but past 2^53 ceil no longer gives the exact product
    *((f"test_{name}_window_length_is_one_line_error-{multiplier}", "forecast",
       f"--horizon {horizon} --multiplier {multiplier}", "paper", 1,
       _error(TOO_LARGE, float(multiplier), horizon))
      for name, horizon, multiplier in [("overflowing", 5, "1e308"), ("inexact", 5, "1e300"),
                                        ("inexact", 4, "2.5e15")]),
    *_on_a_constant_series_too("overflow", "--horizon 5 --multiplier 1e308",
                               _error(TOO_LARGE, 1e308, 5)),
    ("test_bad_flag_fails_before_the_input_is_read-window", "backtest",
     "--horizon 5 --multiplier 1e308", "missing", 1, _error(TOO_LARGE, 1e308, 5)),
    # Holt's steps 1..P are exact in float64 up to 2^53; past it the tuple would fill memory
    *((f"holt-horizon-past-2^53-{series}", "forecast backtest", f"--method holt --horizon {HUGE}",
       series, 1, f"error: horizon must be at most 2^53, got {HUGE}\n")
      for series in ["paper", "missing"]),
    *_on_a_constant_series_too("window", "--horizon 5 --multiplier 0.2",
                               _error(BELOW, 1, 2, 5, 0.2, "")),
    *_on_a_constant_series_too("derived-window", "--horizon 1 --multiplier 0.5",
                               _error(BELOW, 1, 2, 1, 0.5, "")),
    ("test_bad_flag_fails_before_the_input_is_read-derived-window", "backtest",
     "--horizon 5 --multiplier 0.1", "missing", 1, _error(BELOW, 1, 2, 5, 0.1, "")),
    ("test_window_error_wins_over_a_too_short_series", "forecast backtest",
     "--horizon 5 --multiplier 0.1", "1-3", 1, _error(BELOW, 1, 2, 5, 0.1, "")),
    ("window-of-2-under-a-linear-trend", "forecast backtest",
     "--horizon 1 --multiplier 1.5 --trend linear", "noisy-300", 1,
     _error(BELOW, 2, 3, 1, 1.5, LINE)),
    *_on_a_constant_series_too("zero-multiplier", "--horizon 5 --multiplier=0",
                               "error: multiplier must be > 0, got 0.0\n"),
    ("test_bad_flag_fails_before_the_input_is_read-xi", "backtest",
     "--horizon 5 --method holt --xi 2", "missing", 1, "error: xi must be in [0, 1], got 2.0\n"),
    ("window-of-2-under-correlation", "forecast backtest",
     "--horizon 1 --multiplier 1.5 --criterion correlation", "noisy-300", 1,
     _error(BELOW, 2, 3, 1, 1.5, SIGN.format(2, ""))),
    # the matcher once picked start 296 here, with r = 1.0 from the rounding in flat residues
    ("test_window_of_2_under_a_linear_trend_is_one_line_error", "backtest",
     "--horizon 1 --multiplier 1.5 --criterion correlation --trend linear", "noisy-300", 1,
     _error(BELOW, 2, 4, 1, 1.5, SIGN.format(3, "detrended "))),
    # the default multiplier 2.25 makes a window of 3 at --horizon 1: the line names it
    ("default-window-of-3-under-correlation-and-a-linear-trend", "forecast backtest",
     "--horizon 1 --criterion correlation --trend linear", "noisy-300", 1,
     _error(BELOW, 3, 4, 1, 2.25, SIGN.format(3, "detrended "))),
    ("test_missing_input_file", "forecast", "--horizon 5", "missing", 1,
     "error: file not found: s.csv\n"),
    ("TestForecastCommand.test_unusable_path_is_one_line_error-directory", "forecast",
     "--horizon 5 --input .", None, 1, f"error: cannot read .: {_EISDIR}\n"),
    ("TestForecastCommand.test_unusable_path_is_one_line_error-utf16", "forecast", "--horizon 5",
     "utf16", 1, "error: s.csv is not UTF-8 text\n"),
    # rows are counted without blank lines, a header included
    ("parse-error-names-the-row", "forecast backtest", "--horizon 5", "x-on-line-4", 1,
     "error: row 3: cannot parse 'x'\n"),
    ("no-data-rows", "forecast backtest", "--horizon 5", "header-only", 1,
     "error: no data rows in s.csv\n"),
    ("TestForecastCommand.test_too_large_values_are_one_line_error-range", "forecast",
     "--horizon 5", "wide", 1,
     "error: value range [-1e+308, 1e+308] is too wide: max - min overflows float64\n"),
    ("test_too_short_names_minimum", "forecast", "--horizon 20", "mod-7", 1,
     _error(SHORT, 30, 41, then=_HINT.format(1.0, 20, 20))),
    # a backtest counts the held-out tail in the rows it needs; Holt starts from two rows
    *((f"test_too_short_names_the_files_rows-{case}", "backtest", flags, "paper-7", 1,
       _error(SHORT, 7, minimum, then=hint))
      for case, flags, minimum, hint in [
          ("phrase", "--horizon 5 --multiplier 1", 16, ""),
          ("holt", "--horizon 6 --method holt", 8, ""),
          ("default-multiplier", "--horizon 3", 14, _HINT.format(2.25, 7, 3))]),
    # a row fewer than the default window needs names the flag, unless the flag is given
    *((f"{name}-{horizon}-{rows - 1}-rows{case}", subcommand, f"--horizon {horizon}{flag}",
       f"noisy-{rows}-but-its-first", 1,
       _error(SHORT, rows - 1, rows,
              then=_HINT.format(2.25, 2 * horizon + 1, horizon) if hint else ""))
      for name, subcommand, horizon, rows in _MINIMUM
      for case, flag, hint in [("", "", True), ("-multiplier-given", " --multiplier 2.25", False)]
      if subcommand == "forecast" or hint),
    # a backtest at --horizon 3 needs 4 rows whatever the window, so no --multiplier helps
    ("test_no_hint_when_no_window_sets_the_minimum", "backtest", "--horizon 3", "1-3", 1,
     _error(SHORT, 3, 4)),
    *((f"test_holt_names_a_two_row_prefix-{rows}-{horizon}", "backtest",
       f"--method holt --horizon {horizon}", f"1-{rows}", 1, _error(SHORT, rows, minimum))
      for rows, horizon, minimum in [(3, 5, 7), (5, 5, 7), (6, 5, 7), (2, 2, 4)]),
    # one data row is a one-point series, too short for Holt
    *((f"TestShortInputs.test_one_point_forecast_is_one_line_error-{series}", "forecast",
       "--horizon 1 --method holt", series, 1, _error(SHORT, 1, 2))
      for series in ["one-row", "labelled-one-row"]),
    # the query quantizes to one grid value; its r with a flat window was noise, 1.0 at start 66
    *((f"test_constant_query_under_correlation_is_one_line_error-{trend}", "forecast",
       f"--horizon 5 --multiplier 2 --levels 20 --criterion correlation --trend {trend}",
       "sine-then-flat", 1, "error: the query, the last 10 values, is constant: r is undefined\n")
      for trend in ["none", "linear"]),
    # both windows are ten values of 1/3, whose detrended rounding once scored r = 0.0474
    ("test_constant_candidates_under_correlation_are_one_line_error", "forecast",
     "--horizon 1 --multiplier 9.5 --criterion correlation --trend linear", "thirds", 1,
     _error(EXCLUDED)),
    # the least-squares sums of the linear trend overflow float64
    ("TestForecastCommand.test_too_large_values_are_one_line_error-linear-trend", "forecast",
     "--horizon 5 --trend linear", "ramp-to-6e307", 1, "error: values up to 6e+307 are too large"
     " for the linear trend: its fit or its transfer overflows float64\n"),
    # the best window's L1 score was Infinity in the report; a backtest holds out 5 zeros
    *((f"score-past-float64-{subcommand}", subcommand, "--horizon 5", series, 1,
       "error: values up to 1.5e+308 are too large for the difference criterion: the best"
       " window's score overflows float64\n")
      for subcommand, series in [("forecast", "huge-tail"), ("backtest", "huge-tail-then-zeros")]),
    ("test_errors_past_float64_are_one_line_error", "backtest", "--horizon 1 --method holt",
     "huge-errors", 1, "error: the forecast errors are too large: RMSE overflows float64\n"),
    ("TestForecastCommand.test_unusable_path_is_one_line_error-output-directory", "forecast",
     "--horizon 5 --output .", "paper", 1, f"error: cannot write .: {_EISDIR}\n"),
    ("test_multiplier_warning_does_not_fail", "forecast", "--horizon 3 --multiplier 1", "paper",
     0, "warning: multiplier 1.0 outside recommended range (2, 5] for horizon < 5\n"),
    # a one-row constant prefix is forecast as the constant, not refused as too short
    ("test_constant_prefix_takes_the_shortcut", "backtest", "--horizon 5", "fours", 0, _CONSTANT),
    ("TestShortInputs.test_one_point_phrase_forecast_is_the_constant", "forecast",
     "--horizon 2 --multiplier 3", "labelled-one-row", 0, _CONSTANT,
     lambda r, *_: r["forecast"]["values"] == [4.5, 4.5]),
    # the quiet runs; generate writes its manifest to stderr
    ("TestGenerate.test_roundtrip_is_exact", "generate", "--length 100 --noise 0.15 --seed 3", None,
     0, _manifest(noise=0.15, seed=3),
     lambda r, out, plot: list(map(float, out.split())) == _values(noise=0.15, seed=3)),
    ("TestGenerate.test_linear_kind_endpoint", "generate",
     "--kind sinusoid-linear --slope 0.02 --length 100", None, 0,
     _manifest(kind="sinusoid-linear", slope=0.02),
     lambda r, out, plot: float(out.split()[-1]) - _values()[-1] == pytest.approx(2.0)),
    # the CLI's defaults are the defaults of the library's config records
    ("TestDefaults.test_generate", "generate", "", None, 0, _manifest(),
     lambda r, out, plot: out.encode() == _text(_values())),
    *((f"TestDefaults.test_forecast_and_backtest-{subcommand}", subcommand, "--horizon 7", "paper",
       0, "", lambda r, *_, config=_defaults(subcommand == "backtest"):
       r["manifest"]["config"] == config) for subcommand in ["forecast", "backtest"]),
    ("labelled-file-is-read-past-its-labels", "forecast backtest", "--horizon 20",
     "labelled-noisy-100", 0, "", _reads_past_labels),
    ("TestForecastCommand.test_forecast_writes_outputs", "forecast",
     "--horizon 20 --multiplier 1 --levels 32 --criterion difference --trend none", "paper", 0,
     "", _writes_outputs),
    # Holt has no window for the multiplier to set, so its advisory range does not apply
    *((f"TestForecastCommand.test_unused_multiplier_gives_no_warning-{horizon}", "forecast",
       f"--multiplier 1 --method holt --horizon {horizon}", "paper", 0, "",
       lambda r, *_: r["multiplier_check"] is None) for horizon in (3, 2)),
    ("TestForecastCommand.test_holt_method", "forecast",
     "--horizon 5 --method holt --xi 0.3 --phi 0.7", "1-30", 0, "",
     lambda r, *_: r["method"] == "holt"
     and r["forecast"]["values"] == pytest.approx([31, 32, 33, 34, 35])),
    # the default multiplier fits every horizon: no flag is needed below P = 5
    *((f"TestShortHorizonDefaults.test_runs_quietly-{horizon}", "forecast backtest",
       f"--horizon {horizon}", "noisy-100", 0, "",
       lambda r, *_, m=ForecastConfig(horizon).multiplier: r["multiplier_check"] == {
           "ok": True, "message": "ok"} and r["manifest"]["config"]["multiplier"] == m)
      for horizon in (1, 2, 3, 4)),
    *((f"{name}-{horizon}-{rows}-rows", subcommand, f"--horizon {horizon}", f"noisy-{rows}", 0, "")
      for name, subcommand, horizon, rows in _MINIMUM),
    # M sets nothing for Holt, so no default is filled in
    *((f"TestShortHorizonDefaults.test_holt_manifest_records_the_flag_as_given-{recorded}",
       "forecast", f"--horizon 3 --method holt {flags}", "noisy-100", 0, "",
       lambda r, *_, recorded=recorded: r["manifest"]["config"]["multiplier"] == recorded)
      for flags, recorded in [("", None), ("--multiplier 3", 3.0)]),
    ("TestBacktestCommand.test_backtest_reports_metrics", "backtest", "--horizon 20 --levels 32",
     "paper", 0, "", lambda r, *_: r["metrics"]["mae"] <= r["metrics"]["rmse"] + 1e-12
     and r["metrics"]["rmse"] <= 0.125 and r["forecast"]["first_index"] == 81),
    # rounding puts MAE one ulp above RMSE here; the backtest must still succeed
    ("TestBacktestCommand.test_large_constant_error_is_scored", "backtest",
     "--horizon 5 --method holt", "zeros-then-1e12", 0, "",
     lambda r, *_: r["metrics"]["mae"] == 1e12
     and r["metrics"]["rmse"] == pytest.approx(1e12, rel=1e-15)),
    *((f"TestBacktestCommand.test_horizon_one_has_null_correlation-{case}", "backtest",
       f"--horizon 1 {flags}", "noisy-50", 0, "", lambda r, *_: r["metrics"]["correlation"] is None)
      for case, flags in [("holt", "--method holt"), ("multiplier-3", "--multiplier 3")]),
    ("TestBacktestCommand.test_plot_data_includes_actual", "backtest", "--horizon 20", "paper", 0,
     "", lambda r, out, plot: _kinds(plot) == {"history", "forecast", "actual"}),
    ("TestBacktestCommand.test_tiny_values_keep_rmse", "backtest", "--method holt --horizon 5",
     "tiny", 0, "", _keeps_tiny_rmse),
    # a backtest report holds a finite MAPE or null, never Infinity
    ("TestMapeOverflow.test_mape_past_float64_is_null", "backtest", "--horizon 1 --method holt",
     "mape-past-float64", 0, "", lambda r, *_: r["metrics"]["mape"] is None),
    ("TestMapeOverflow.test_overflowing_ratio_gives_finite_mape", "backtest",
     "--horizon 1000 --method holt", "ratio-past-float64", 0, "",
     lambda r, *_: r["metrics"]["mape"] == pytest.approx(1e308)),
    # squares of these values overflow float64; pearson and error_metrics recover from it: the
    # strict-JSON report holds only finite numbers, and over 20 errors MAE <= RMSE <= sqrt(20) MAE
    *((f"TestLargeValues.test_quiet_and_finite_at_1e160-{mode}", "forecast backtest",
       f"--horizon 20 {flags}", "noisy-100-at-1e160", 0, "",
       lambda r, *_: "metrics" not in r
       or r["metrics"]["mae"] <= r["metrics"]["rmse"] <= math.sqrt(20) * r["metrics"]["mae"])
      for mode, flags in MODES),
]


def run_argv(subcommand, flags) -> list:
    """A row's arguments: s.csv as the input, and every output file, before the row's flags."""
    source = [] if subcommand == "generate" else [
        "--input", "s.csv", "--report", "report.json", "--plot-data", "plot.csv"]
    return [subcommand, *source, "--output", "out.csv", *flags.split()]


def _reject(constant):
    raise ValueError(f"{constant} is not valid JSON")


@pytest.mark.parametrize("subcommands, flags, series, code, stderr, check", [
    pytest.param(*row, *[None] * (6 - len(row)), id=name) for name, *row in RUNS])
def test_cli_run(tmp_path, monkeypatch, capsys, subcommands, flags, series, code, stderr, check):
    # all of stderr, or for exit 2 the usage line and the last line. A refused run writes no
    # file; one that succeeds writes every file it is given, and a report in strict JSON.
    monkeypatch.chdir(tmp_path)  # so a line or a manifest names the input as s.csv
    if series in SERIES:
        Path("s.csv").write_bytes(SERIES[series])
    for subcommand in subcommands.split():
        names = ["out.csv"] if subcommand == "generate" else ["out.csv", "report.json", "plot.csv"]
        for name in names:
            Path(name).unlink(missing_ok=True)
        rc = main(run_argv(subcommand, flags))
        stdout, err = capsys.readouterr()
        assert (rc, stdout) == (code, ""), subcommand
        if code == 2:
            assert err.startswith("usage: ngramcast ") and err.splitlines()[-1] == stderr
        else:
            assert err == stderr, subcommand
        texts = [Path(name).read_text(encoding="utf-8") for name in names if Path(name).exists()]
        assert len(texts) == (0 if code else len(names)), subcommand
        out, report, plot = texts + [None] * (3 - len(texts))
        report = report and json.loads(report, parse_constant=_reject)
        assert check is None or check(report, out, plot), subcommand


def test_too_large_values_are_one_line_error(tmp_path):
    # the one run of the module's __main__ entry; -W error turns any stray warning into a failure
    (tmp_path / "wide.csv").write_bytes(SERIES["wide"])
    env = dict(os.environ, PYTHONPATH=str(Path(ngramcast.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ngramcast.cli", "forecast", "--input", "wide.csv",
         "--horizon", "5"], capture_output=True, text=True, env=env, cwd=tmp_path, check=False)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: value range [-1e+308, 1e+308] is too wide:"
                           " max - min overflows float64\n")


@pytest.mark.parametrize("subcommand", ["generate", "forecast"])
def test_broken_pipe_on_stdout_is_one_line_error(tmp_path, capsys, subcommand):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    path = tmp_path / "s.csv"
    path.write_bytes(SERIES["paper"])
    argv = {"generate": ["generate", "--length", "10"],
            "forecast": ["forecast", "--input", str(path), "--horizon", "5"]}[subcommand]
    with redirect_stdout(ClosedPipe()):
        rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"


def test_input_is_read_once(tmp_path, monkeypatch):
    # the manifest hashes the same bytes that were parsed
    path = tmp_path / "s.csv"
    path.write_bytes(SERIES["paper"])
    reads = []
    for name in ("read_bytes", "read_text"):
        def counted(self, *args, _read=getattr(Path, name), **kwargs):
            if self == path:
                reads.append(_read.__name__)
            return _read(self, *args, **kwargs)
        monkeypatch.setattr(Path, name, counted)
    rc = main(["forecast", "--input", str(path), "--horizon", "20",
               "--report", str(tmp_path / "report.json")])
    assert rc == 0
    assert len(reads) == 1


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


def _in_order(spans, messages):
    """Each message in order is the current span's or the next one's, and every span is used:
    a span stands for one or more consecutive messages, and "..." in it for any text."""
    patterns = [re.compile(".*".join(map(re.escape, span.split("...")))) for span in spans]
    at = -1
    for message in messages:
        if at < 0 or not patterns[at].fullmatch(message):
            at += 1
            assert at < len(spans) and patterns[at].fullmatch(message), (message, spans[at:][:1])
    assert at == len(spans) - 1, spans[at + 1 :]


def test_readme_lists_the_table_messages():
    """The backticked messages of the README's two library refusal lists are the messages of the
    REFUSALS rows of tests/test_refusals.py, and the backticked lines of its CLI error list are
    the stderr of the refused and warning rows of RUNS, in the tables' order. A library message
    is a span with a space in it; a CLI line begins with "error:", "warning:" or "ngramcast:
    error:"."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")

    def spans(after):  # the spans of the bullet list after the line ending in after
        bullets = readme.split(after + "\n\n", 1)[1].split("\n\n", 1)[0]
        return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", bullets)]

    library = spans("each a `ValueError`:") + spans("as named:")
    _in_order([span for span in library if " " in span], [row[3] for row in REFUSALS])
    cli = [span for span in spans("over a missing or too-short file.")
           if span.startswith(("error:", "warning:", "ngramcast: error:"))]
    _in_order(cli, [stderr.strip() for _, _, _, _, code, stderr, *_ in RUNS
                    if code or stderr.startswith("warning:")])


ROOT = Path(__file__).resolve().parent.parent


def test_readme_names_no_test():
    """Outside its Tests section the README is a user's document: no line names a test, a
    tests/ path, a mutant row, a CI job or the ROADMAP."""
    sections = re.split(r"^(?=## )", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.M)
    user = [section for section in sections if not section.startswith("## Tests\n")]
    assert len(user) == len(sections) - 1
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    names = [name for name, *_ in MUTANTS] + re.findall(r"^  ([\w-]+):$",
                                                         workflow.split("\njobs:\n")[1], re.M)
    named = re.compile(r"\btest_\w|\btests/|ROADMAP|" + "|".join(
        rf"(?<![\w-]){re.escape(name)}(?![\w-])" for name in names))
    assert [line for section in user for line in section.splitlines() if named.search(line)] == []


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    """The Library block runs as written, and so does each ngramcast command of the CLI block,
    in order, each exiting 0 with no warning."""
    monkeypatch.chdir(tmp_path)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (library,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    scope = {}
    exec(library, scope)
    assert len(scope["result"].values) == 20
    assert scope["report"].rmse >= scope["report"].mae
    assert scope["holt"].method == "holt"
    commands = [line for block in re.findall(r"^```sh\n(.*?)^```$", readme, re.M | re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("ngramcast ")]
    assert [command.split()[1] for command in commands] == ["generate", "forecast", "backtest"]
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
        assert "warning:" not in capsys.readouterr().err, command


PACKAGE = Path(ngramcast.__file__).resolve().parent


def raise_sites() -> dict:
    """{(file, first line): last line} of every raise statement in the package that names an
    exception, and of every call of one of its enums: the enum's own ValueError is raised there.
    A bare raise passes on an exception that another site raised."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    enums = {node.name for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and "enum.Enum" in map(ast.unparse, node.bases)}
    return {(str(path), node.lineno): node.end_lineno for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            or isinstance(node, ast.Call) and ast.unparse(node.func) in enums}


def _refused_run(subcommand, flags, series):
    """A refused RUNS row, run by the function main calls, so that its exception escapes."""
    Path("s.csv").unlink(missing_ok=True)
    if series in SERIES:
        Path("s.csv").write_bytes(SERIES[series])
    args = build_parser().parse_args(run_argv(subcommand, flags))
    (_run_generate if subcommand == "generate" else _run_forecast)(args)


def test_every_raise_site_is_reached(tmp_path, monkeypatch):
    """Each raise site is the innermost package frame of the exception of a REFUSALS row or of
    a refused run (exit 1) of RUNS: a new raise needs a row. Only the named row's exception has
    no package frame."""
    monkeypatch.chdir(tmp_path)
    sites = raise_sites()
    calls = [(name, call) for name, call, *_ in REFUSALS] + [
        (name, partial(_refused_run, subcommand, flags, series))
        for name, subcommands, flags, series, code, *_ in RUNS if code == 1
        for subcommand in subcommands.split()]
    reached, outside = set(), []
    for name, call in calls:
        with warnings.catch_warnings(), pytest.raises(Exception) as caught:
            warnings.simplefilter("error")
            call()
        frames = [f for f in traceback.extract_tb(caught.tb)
                  if Path(f.filename).resolve().parent == PACKAGE]
        if not frames:
            outside.append(name)
            continue
        reached |= {(path, first) for path, first in sites
                    if path == str(Path(frames[-1].filename).resolve())
                    and first <= frames[-1].lineno <= sites[path, first]}
    assert len(sites) == 51  # 48 raise statements and 3 enum calls
    assert sorted(set(sites) - reached) == []
    assert outside == ["test_values_are_immutable"]  # the one refusal numpy makes itself
