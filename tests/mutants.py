"""The mutant table: each row is a small change to src/ngramcast that named tests must catch.

Run it from any directory with `python tests/mutants.py`; it takes no flags and exits 0 only
when every check holds. A row is (id, file under src/ngramcast, the exact text it replaces, the
new text, the pytest node ids that must fail). The runner works on a copy of src/ in a
temporary directory, never on the checkout, and runs pytest from the repository root with the
copy as its pythonpath:

- the unmutated copy must pass every node id of the table, and the same run must fail when an
  import of the copy raises: so the copy is what the tests import;
- for each row, the old text must occur exactly once in its file, so a stale row fails, and
  with the new text in its place every node id of the row must fail.

PYTHONPATH is dropped from the child's environment, since a checkout's src/ on it would
shadow the copy, and no bytecode is written, so no stale .pyc of one mutant serves the next.
Hypothesis keeps its files, such as the patch of a failing example, in the temporary directory,
and does not shrink a failing example: the runner reads only that a node fails, and shrinking
is most of a hypothesis killer's time.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PICK = "tests/test_matching.py::test_pick[{}]".format
QUANTIZE = "tests/test_series.py::test_quantize[{}]".format
TREND = "tests/test_series.py::test_trend[{}]".format
PEARSON = "tests/test_series.py::test_pearson[{}]".format
METRICS = "tests/test_evaluation.py::test_metrics[{}]".format
HOLT = "tests/test_forecasting.py::test_holt[{}]".format
CONFIG = "tests/test_forecasting.py::test_config[{}]".format
PHRASE = "tests/test_forecasting.py::test_phrase_forecast[{}]".format
GENERATE = "tests/test_evaluation.py::test_generate[{}]".format
BACKTEST = "tests/test_evaluation.py::test_backtest[{}]".format
REFUSAL = "tests/test_refusals.py::test_refusal[{}]".format
CLI = "tests/test_cli.py::test_cli_run[{}]".format
INGEST = "tests/test_ingest.py::{}".format
EVERY_RAISE = "tests/test_cli.py::test_every_raise_site_is_reached"
MEMORY = "tests/test_matching.py::test_scan_memory_is_bounded[{}]".format
SMALL_CHUNK = [MEMORY(f"{c}-{t}") for c in ("difference", "correlation") for t in ("none", "linear")]

MUTANTS = [
    # the matcher's pick: the least key that is not nan, ties to the latest admissible start
    ("pick-ties-to-the-earliest-start", "matching.py",
     "start = keys.size - int(np.argmax((valid if math.isnan(least) else keys == least)[::-1]))",
     "start = 1 + int(np.argmax(valid if math.isnan(least) else keys == least))",
     [PICK("test_tie_breaks_to_most_recent"), PICK("test_full_range-ones"),
      PICK("test_periodic_exact_repeat-P-20"),
      PICK("test_difference_nan_and_inf_rule-inf-tie-last"),
      PICK("test_correlation_nan_and_flat_rule-equal-r-latest")]),
    ("pick-a-nan-key-can-win", "matching.py", "least = np.fmin.reduce(keys)",
     "least = np.min(keys)",
     [PICK(f"test_difference_nan_and_inf_rule-{case}")
      for case in ("inf-then-nan", "nan-then-inf", "inf-tie-then-nan")]
     + [PICK("test_correlation_nan_and_flat_rule-tie-across-nans")]
     + [PICK(f"test_overflowing_candidate_loses-{c}") for c in ("difference", "correlation")]),
    ("pick-skips-the-last-admissible-start", "matching.py",
     "sliding_window_view(values[: k - horizon], window)",
     "sliding_window_view(values[: k - horizon - 1], window)",
     [PICK("test_full_range-61"), PICK("test_boundary_candidates-2"),
      PICK("test_periodic_exact_repeat-P-76")]),
    ("pick-keeps-flat-windows-under-correlation", "matching.py",
     "valid[lo : lo + step] = (chunk != chunk[:, :1]).any(axis=1)", "valid[lo : lo + step] = True",
     [PICK("test_correlation_nan_and_flat_rule-all-nan-then-flat"),
      PICK("test_reference_keeps_the_documented_rules-flat-windows")]),
    ("pick-over-python-floats", "matching.py", "least = np.fmin.reduce(keys)",
     "least = np.fmin.reduce(np.array(keys.tolist()))", SMALL_CHUNK),
    # the chunked scan: a chunk's windows are scored with that chunk's validity flags, and the
    # scan holds 16 bytes a candidate plus 8 chunks of 2^14 values at most
    ("scan-chunk-flags-misaligned", "matching.py", "zip(chunk, valid[lo:])", "zip(chunk, valid)",
     ["tests/test_matching.py::test_scan_keeps_the_bits_of_a_window_loop[correlation]"]),
    ("scan-unchunked", "matching.py", "step = max(1, _CHUNK // window)", "step = keys.size",
     SMALL_CHUNK),
    ("scan-chunk-of-2^24-values", "matching.py", "_CHUNK = 1 << 14", "_CHUNK = 1 << 24",
     [MEMORY("difference-real-chunk-none")]),
    ("scan-flags-over-all-windows", "matching.py",
     "valid[lo : lo + step] = (chunk != chunk[:, :1]).any(axis=1)",
     "valid[lo : lo + step] = (rows != rows[:, :1]).any(axis=1)[lo : lo + step]",
     [MEMORY("correlation-none"), MEMORY("correlation-linear")]),
    # quantize: level floor((v - min) / step + 0.5), the top one pinned to max
    ("quantize-ties-go-down", "series.py", "idx = np.floor((series.values - vmin) / step + 0.5)",
     "idx = np.ceil((series.values - vmin) / step - 0.5)",
     [QUANTIZE("test_midpoint_ties_round_up")]),
    ("quantize-top-level-not-pinned", "series.py", "out = np.where(idx == levels, vmax, out)",
     "out = out",
     [QUANTIZE("test_endpoints_map_to_themselves-0"),
      QUANTIZE("test_error_bound_and_idempotence-1")]),
    ("quantize-top-quotient-unclipped", "series.py", "idx = np.clip(idx, 0, levels)", "pass",
     [QUANTIZE("top-quotient-past-the-last-level")]),
    # the least-squares line
    ("trend-variance-loses-a-mean", "series.py",
     "x_var = (x * x).sum() / x.size - x_mean * x_mean", "x_var = (x * x).sum() / x.size - x_mean",
     [TREND("test_exact_line"), TREND("test_normal_equations_hand_solution"),
      TREND("test_optimality_under_perturbation-0"),
      TREND("test_detrend_then_fit_slope_near_zero-0")]),
    # pearson: about a third of the affine rows give an unclamped r of +-1.0000000000000002
    ("pearson-not-clamped", "series.py", "return max(-1.0, min(1.0, r))", "return r",
     [PEARSON(f"test_range_and_affine_invariance-{draw}") for draw in (4, 10, 12)]),
    # error_metrics
    ("mape-counts-zero-actuals", "evaluation.py",
     "mean = float(ratio.mean() * 100.0) if nonzero.any() else None",
     "mean = float(ratio.sum() / a.size * 100.0) if nonzero.any() else None",
     [METRICS("test_mape_skips_zero_actuals"),
      METRICS("test_an_overflowing_error_keeps_the_small_ratios")]),
    ("rmse-over-n-minus-1", "evaluation.py",
     "rmse = math.ldexp(float(np.sqrt((unit * unit).mean())), e)",
     "rmse = math.ldexp(float(np.sqrt((unit * unit).sum() / max(unit.size - 1, 1))), e)",
     [METRICS("test_constant_offset"), METRICS("test_mae_never_exceeds_rmse-0")]),
    # Holt's recurrence starts from x_1 and the trend x_2 - x_1, and weighs each step by 1 - phi
    ("holt-trend-starts-at-0", "forecasting.py", "trend = x[1] - x[0]", "trend = 0.0",
     [HOLT("test_exact_on_lines-0.5-0.5"), HOLT("test_hand_computed_recurrence"),
      HOLT("test_forecast_runs_holt_for_a_holt_config-7")]),
    ("holt-slope-weighted-like-the-value", "forecasting.py",
     "trend = step_weight * (level - prev)", "trend = value_weight * (level - prev)",
     [HOLT("test_exact_on_lines-0.25-0.75"), HOLT("test_forecast_runs_holt_for_a_holt_config-7")]),
    # the forecasting pipeline: the window rule, the default multiplier, the trend transfer,
    # the holdout prefix and the generator's noise
    ("window-length-rounds-to-nearest", "forecasting.py",
     "return math.ceil(self.multiplier * self.horizon)",
     "return round(self.multiplier * self.horizon)",
     [CONFIG(f"test_default_fits_the_horizon-{case}") for case in ("1", "2", "1-linear")]),
    ("default-multiplier-2.5", "forecasting.py", "1.0 if self.horizon >= 5 else 2.25",
     "1.0 if self.horizon >= 5 else 2.5",
     [CONFIG(f"test_default_fits_the_horizon-{p}") for p in (1, 2, 3, 4)]),
    ("trend-transfer-sign-flipped", "forecasting.py",
     "values = values - trend_cand.at(positions) + trend_query.at(positions)",
     "values = values + trend_cand.at(positions) - trend_query.at(positions)",
     [PHRASE("test_pure_line_difference_extrapolates"), PHRASE("test_exact_limit_with_fine_grid"),
      PHRASE("test_trended_periodic_series-difference")]),
    ("holdout-prefix-one-row-longer", "evaluation.py",
     "forecast(TimeSeries(values[: values.size - horizon]), config)",
     "forecast(TimeSeries(values[: values.size - horizon + 1]), config)",
     [BACKTEST(case) for case in ("test_zero_noise_periodic_backtest", "test_holt_dispatch",
                                  "test_isolation_from_holdout")]),
    ("noise-subtracted", "evaluation.py",
     "values = values + uniform_noise(spec.noise, spec.length, spec.seed)",
     "values = values - uniform_noise(spec.noise, spec.length, spec.seed)",
     [GENERATE("test_determinism"), GENERATE("test_noise_bounds_and_mean"),
      GENERATE("noise-0-0.15")]),
    # refusals, each reached by a row
    ("generator-period-unchecked", "evaluation.py", "if not self.period > 0:",
     "if self.period < 0:",
     [REFUSAL("test_kind_validation-period-0"), REFUSAL("test_kind_validation-period-nan"),
      EVERY_RAISE]),
    ("quantize-wide-range-unchecked", "series.py", "if not math.isfinite(step):",
     "if math.isnan(step):", [REFUSAL("value-range-too-wide"), EVERY_RAISE]),
    # the CLI: the held-out indices, the hint, the manifest, the flags, the error lines, ingest
    ("backtest-first-index-not-held-out", "cli.py",
     "first_index = series.values.size + 1 - (horizon if holdout else 0)",
     "first_index = series.values.size + 1",
     [CLI("TestBacktestCommand.test_backtest_reports_metrics")]),
    ("hint-when-no-window-sets-the-minimum", "cli.py",
     "if args.multiplier is not None or exc.minimum <= config.MIN_ROWS + horizon:",
     "if args.multiplier is not None:", [CLI("test_no_hint_when_no_window_sets_the_minimum")]),
    ("manifest-records-the-flag-not-the-config", "cli.py",
     'settings["multiplier"] = config.multiplier', "pass",
     [CLI("TestShortHorizonDefaults.test_runs_quietly-1"),
      CLI("TestDefaults.test_forecast_and_backtest-forecast")]),
    # the whole line: `not math.isfinite(value)` is in ingest_csv too
    ("infinite-flag-accepted", "cli.py",
     "if isinstance(value, float) and not math.isfinite(value):",
     "if isinstance(value, float) and math.isnan(value):",
     [CLI("test_non_finite_float_flag_is_a_usage_error-multiplier-inf")]),
    ("unreadable-input-called-a-write", "cli.py",
     'verb = "read" if exc.filename and name == getattr(args, "input", None) else "write"',
     'verb = "write"', [CLI("TestForecastCommand.test_unusable_path_is_one_line_error-directory")]),
    ("bom-kept", "cli.py", 'data.decode("utf-8-sig")', 'data.decode("utf-8")',
     [INGEST("test_pinned_values[bom-values]")]),
    ("header-rows-not-counted", "cli.py", "row, parts = 1 + header, []", "row, parts = 1, []",
     [INGEST(r"test_first_bad_row_wins[t,v\nb,1\nc\n]")]),
    ("warnings-dropped", "cli.py", 'print(f"warning: {w.message}", file=sys.stderr)', "pass",
     [CLI("test_multiplier_warning_does_not_fail"),
      CLI("test_constant_prefix_takes_the_shortcut")]),
]


# pytest.main with a Hypothesis profile that does not shrink, loaded at pytest_configure: before
# the test modules make their settings, and after pytest's import hook is in place, since a
# hypothesis imported before pytest.main warns that it cannot be rewritten, an error under the
# repository's filterwarnings
CHILD = """
import sys
import pytest

class NoShrink:
    def pytest_configure(self, config):
        from hypothesis import Phase, settings
        settings.register_profile("no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate])
        settings.load_profile("no-shrink")

sys.exit(pytest.main(sys.argv[1:], plugins=[NoShrink()]))
"""


def run_pytest(src: Path, nodes) -> subprocess.CompletedProcess:
    """pytest on the node ids, from the repository root, importing ngramcast from src."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["HYPOTHESIS_STORAGE_DIRECTORY"] = str(src.parent / ".hypothesis")  # a killer's patches
    return subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "--tb=no", "-rf", "-o", f"pythonpath={src}",
         "-p", "no:cacheprovider", *nodes],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)


def last_line(run) -> str:
    return (run.stdout.strip().splitlines() or [run.stderr.strip()])[-1]


def main() -> int:
    failures = []
    nodes = sorted({node for *_, killers in MUTANTS for node in killers})
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        package = src / "ngramcast"
        init = package / "__init__.py"
        text = init.read_text(encoding="utf-8")
        init.write_text('raise ImportError("the copy is imported")\n' + text, encoding="utf-8")
        if run_pytest(src, nodes).returncode == 0:
            failures.append("the tests do not import the copy")
        init.write_text(text, encoding="utf-8")
        run = run_pytest(src, nodes)
        print(f"unmutated copy, {len(nodes)} node ids: {last_line(run)}")
        if run.returncode != 0:
            failures.append("the unmutated copy fails")
        for name, file, old, new, killers in MUTANTS:
            path = package / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                failures.append(f"{name}: its old text occurs {text.count(old)} times in {file}")
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                run = run_pytest(src, killers)
            finally:
                path.write_text(text, encoding="utf-8")
            failed = {line[len("FAILED "):].split(" - ")[0] for line in run.stdout.splitlines()
                      if line.startswith("FAILED ")}
            survivors = [node for node in killers if node not in failed]
            print(f"{name}: {last_line(run)}")
            if run.returncode != 1 or survivors:
                failures.append(f"{name} survives in {survivors or last_line(run)}")
    print(f"{len(MUTANTS)} mutants, {len(failures)} failed checks")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
