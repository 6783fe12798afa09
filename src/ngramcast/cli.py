"""Command-line front end: forecast, backtest and generate subcommands.

All diagnostics (errors, warnings) go to stderr; data goes to files or stdout.
Floats are serialized with Python's shortest round-trip repr so output files
are byte-stable across runs and platforms.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EmptyInput, NgramcastError, ParseError
from .evaluation import (
    SINUSOID,
    SINUSOID_LINEAR,
    SINUSOID_QUADRATIC,
    GeneratorSpec,
    generate,
    holdout_backtest,
)
from .forecasting import (
    ForecastConfig,
    HoltConfig,
    TrendMode,
    forecast,
    forecast_holt,
    validate_multiplier,
)
from .matching import SimilarityCriterion
from .series import TimeSeries


def ingest_csv(path) -> tuple[TimeSeries, list[str] | None]:
    """Read a series from a one-column (value) or two-column (label, value) CSV.

    A header row is auto-detected: if the value field of the first row is not
    numeric, the row is skipped. A nan or infinite value is a ParseError in
    any row, the first included. Labels are preserved for output but ignored
    for modeling. Returns (series, labels-or-None).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise NgramcastError(f"{path} is not UTF-8 text") from None
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise EmptyInput(f"no data rows in {path}")
    values: list[float] = []
    labels: list[str] = []
    two_column = "," in rows[0]
    for i, line in enumerate(rows, start=1):
        fields = line.split(",")
        if two_column and len(fields) == 2:
            label, field = fields[0].strip(), fields[1].strip()
        elif not two_column and len(fields) == 1:
            label, field = "", fields[0].strip()
        else:
            raise ParseError(i, line)
        try:
            value = float(field)
        except ValueError:
            if i == 1:
                continue  # header row
            raise ParseError(i, line) from None
        if not math.isfinite(value):
            raise ParseError(i, line)
        values.append(value)
        labels.append(label)
    if not values:
        raise EmptyInput(f"no data rows in {path}")
    return TimeSeries(np.asarray(values)), (labels if two_column else None)


def _write_csv(path, rows, header=None):
    lines = []
    if header:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _manifest(subcommand: str, config: dict, digest: str | None) -> dict:
    return {
        "subcommand": subcommand,
        "config": config,
        "input_sha256": digest,
        "tool_version": __version__,
    }


def _add_forecast_flags(parser):
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--output", help="forecast CSV output path")
    parser.add_argument("--plot-data", help="long-format plot data CSV path")
    parser.add_argument("--report", help="JSON report path (default: stdout)")
    parser.add_argument("--horizon", type=int, required=True, metavar="P")
    parser.add_argument("--multiplier", type=float, default=1.0, metavar="M")
    parser.add_argument("--window", type=int, metavar="N", help="overrides --multiplier")
    parser.add_argument("--levels", type=int, default=32, metavar="S")
    parser.add_argument("--criterion", choices=["difference", "correlation"], default="difference")
    parser.add_argument("--trend", choices=["none", "linear"], default="none")
    parser.add_argument("--method", choices=["linguistic", "holt"], default="linguistic")
    parser.add_argument("--xi", type=float, default=0.5, help="Holt value smoothing")
    parser.add_argument("--phi", type=float, default=0.5, help="Holt trend smoothing")
    parser.add_argument("--holdout", action="store_true", help="score against the held-out tail")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ngramcast")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_forecast = sub.add_parser("forecast", help="forecast a series from a CSV file")
    _add_forecast_flags(p_forecast)

    p_backtest = sub.add_parser("backtest", help="forecast with mandatory holdout scoring")
    _add_forecast_flags(p_backtest)

    p_gen = sub.add_parser("generate", help="write a synthetic series CSV")
    p_gen.add_argument(
        "--kind",
        choices=[SINUSOID, SINUSOID_LINEAR, SINUSOID_QUADRATIC],
        default=SINUSOID,
    )
    p_gen.add_argument("--length", type=int, default=100)
    p_gen.add_argument("--period", type=float, default=25.0)
    p_gen.add_argument("--amplitude", type=float, default=2.0)
    p_gen.add_argument("--slope", type=float, default=0.0)
    p_gen.add_argument("--quadratic", type=float, default=0.0)
    p_gen.add_argument("--phase", type=float, default=0.0)
    p_gen.add_argument("--noise", type=float, default=0.0, help="uniform noise half-width")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", help="output CSV path (default: stdout)")
    return parser


def _config_dict(args, holdout: bool) -> dict:
    return {
        "input": args.input,
        "horizon": args.horizon,
        "multiplier": args.multiplier,
        "window": args.window,
        "levels": args.levels,
        "criterion": args.criterion,
        "trend": args.trend,
        "method": args.method,
        "xi": args.xi,
        "phi": args.phi,
        "holdout": holdout,
    }


def _run_forecast(args, holdout: bool) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series, _ = ingest_csv(args.input)
        horizon = args.horizon
        mult_ok, mult_msg = validate_multiplier(horizon, args.multiplier)

        if args.method == "holt":
            config = HoltConfig(args.xi, args.phi)
        else:
            config = ForecastConfig(
                horizon=horizon,
                multiplier=args.multiplier,
                levels=args.levels,
                criterion=SimilarityCriterion(args.criterion),
                trend_mode=TrendMode(args.trend),
                window=args.window,
            )
        if holdout:
            backtest, result = holdout_backtest(series, config, horizon)
        elif args.method == "holt":
            result = forecast_holt(series, config, horizon)
        else:
            result = forecast(series, config)

        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    if not mult_ok:
        print(f"warning: {mult_msg}", file=sys.stderr)

    first_index = len(series) - horizon + 1 if holdout else len(series) + 1
    indices = list(range(first_index, first_index + horizon))
    if args.output:
        _write_csv(args.output, zip(indices, result.values), header=("index", "value"))

    if args.plot_data:
        history = series.values[: first_index - 1]
        rows = [("history", i + 1, float(v)) for i, v in enumerate(history)]
        rows += [("forecast", i, float(v)) for i, v in zip(indices, result.values)]
        if holdout:
            actual = series.values[first_index - 1 :]
            rows += [("actual", i, float(v)) for i, v in zip(indices, actual)]
        _write_csv(args.plot_data, rows, header=("series", "index", "value"))

    report = {
        "manifest": _manifest(
            "backtest" if holdout else "forecast",
            _config_dict(args, holdout),
            hashlib.sha256(Path(args.input).read_bytes()).hexdigest(),
        ),
        "method": result.method,
        "matched_start": result.matched_start,
        "score": result.score,
        "multiplier_check": {"ok": mult_ok, "message": mult_msg},
        "forecast": {"first_index": first_index, "values": list(result.values)},
    }
    if holdout:
        report["metrics"] = {
            "mae": backtest.mae,
            "rmse": backtest.rmse,
            "mape": backtest.mape,
            "mape_skipped": backtest.mape_skipped,
            "correlation": backtest.correlation,
        }
    payload = json.dumps(report, indent=2)
    if args.report:
        Path(args.report).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    return 0


def _run_generate(args) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        length=args.length,
        period=args.period,
        amplitude=args.amplitude,
        slope=args.slope,
        quadratic=args.quadratic,
        phase=args.phase,
        noise=args.noise,
        seed=args.seed,
    )
    series = generate(spec)
    lines = [repr(float(v)) for v in series.values]
    body = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)
    manifest = _manifest("generate", dataclasses.asdict(spec), None)
    print(json.dumps(manifest), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.subcommand == "generate":
            return _run_generate(args)
        return _run_forecast(args, holdout=(args.subcommand == "backtest" or args.holdout))
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        verb = "read" if exc.filename == getattr(args, "input", None) else "write"
        print(f"error: cannot {verb} {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except (NgramcastError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
