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
from itertools import chain, repeat
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
    rows = list(filter(str.strip, text.splitlines()))
    if not rows:
        raise EmptyInput(f"no data rows in {path}")
    commas = 1 if "," in rows[0] else 0
    header = rows[0].count(",") == commas and _row_value(rows[0], commas) is None
    body = rows[1:] if header else rows
    if not body:
        raise EmptyInput(f"no data rows in {path}")
    # Parse all rows with C-level calls; go row by row only to name the first bad row.
    labels, values, fields = None, None, body
    if commas:
        pieces = ",".join(body).split(",")  # label, value, ... when each row has one comma
        labels, fields = list(map(str.strip, pieces[0::2])), pieces[1::2]
    # float() rejects a comma, so only label,value rows need their commas counted.
    if not commas or set(map(str.count, body, repeat(","))) == {1}:
        try:
            values = np.array(list(map(float, map(str.strip, fields))))
        except ValueError:
            pass
    if values is None or not np.isfinite(values).all():
        for i, line in enumerate(body, start=2 if header else 1):
            value = _row_value(line, commas)
            if value is None or not math.isfinite(value):
                raise ParseError(i, line)
    return TimeSeries(values), labels


def _row_value(line: str, commas: int) -> float | None:
    """The number in the row's value field, or None (also for a wrong field count:
    the value field then holds a comma or is empty, and float() accepts neither)."""
    try:
        return float((line.partition(",")[2] if commas else line).strip())
    except ValueError:
        return None


def _write_csv(path, lines) -> None:
    """Write lines, each ending in a newline; %r of a float is its shortest repr."""
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
    indices = range(first_index, first_index + horizon)
    if args.output:
        _write_csv(args.output, chain(["index,value"],
                                      map("%d,%r".__mod__, zip(indices, result.values))))

    if args.plot_data:
        values = series.values.tolist()
        history, actual = values[: first_index - 1], values[first_index - 1 :]
        _write_csv(args.plot_data, chain(
            ["series,index,value"],
            map("history,%d,%r".__mod__, zip(range(1, first_index), history)),
            map("forecast,%d,%r".__mod__, zip(indices, result.values)),
            map("actual,%d,%r".__mod__, zip(indices, actual)) if holdout else (),
        ))

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
    body = "\n".join(map(repr, series.values.tolist())) + "\n"
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
