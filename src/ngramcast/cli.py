"""Command-line front end: forecast, backtest and generate subcommands.

All diagnostics (errors, warnings) go to stderr; data goes to files or stdout.
Floats are serialized with Python's shortest round-trip repr so output files
are byte-stable across runs and platforms. ingest_csv is the one CSV reader;
it keeps a label,value file's values, not its labels. Long series are streamed:
a CSV is parsed in pieces and written _BATCH lines at a time, so peak memory is
about the input text plus a few float64 arrays, not one Python object per row.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from contextlib import nullcontext
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NgramcastError, SeriesTooShort
from .evaluation import KINDS, GeneratorSpec, generate, holdout_backtest
from .forecasting import ForecastConfig, HoltConfig, TrendMode, forecast
from .matching import SimilarityCriterion
from .series import TimeSeries

# rows written per batch; a CSV is parsed in pieces of about this many characters
_BATCH = 1 << 14


def ingest_csv(path) -> tuple[TimeSeries, str]:
    """Read a series from a one-column (value) or two-column (label,value) CSV, and
    return it with the SHA-256 of the file's bytes: the file is read once.

    A header row is auto-detected: if the value field of the first row is not
    numeric, the row is skipped. A two-column row's value is the text after its
    first comma; the label before it is read past and not kept. A nan or infinite
    value in any row, the first included, is an error that names the row.
    """
    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")  # all of it, so a decoding error wins over a bad row
    except UnicodeDecodeError:
        raise NgramcastError(f"{path} is not UTF-8 text") from None
    del data  # free the bytes before the text is parsed
    batches = filter(None, (list(filter(str.strip, p.splitlines())) for p in _pieces(text)))
    first = next(batches, [])
    commas = 1 if first and "," in first[0] else 0
    header = bool(first) and first[0].count(",") == commas and _row_value(first[0], commas) is None
    row, parts = 1 + header, []
    # Parse a piece's rows with C-level calls; go row by row only to name the first bad row.
    # float() rejects an empty field and one that holds a comma: a wrong field count fails.
    for body in filter(None, chain([first[header:]], batches)):
        fields = (line.partition(",")[2] for line in body) if commas else body
        try:
            values = np.fromiter(map(float, map(str.strip, fields)), np.float64, len(body))
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            for i, line in enumerate(body, start=row):
                value = _row_value(line, commas)
                if value is None or not math.isfinite(value):
                    raise NgramcastError(f"row {i}: cannot parse {line!r}")
        parts.append(values)
        row += len(body)
    if not parts:
        raise NgramcastError(f"no data rows in {path}")
    return TimeSeries(np.concatenate(parts)), digest


def _pieces(text: str):
    """text in pieces of _BATCH characters or more, each but the last cut right after a
    newline, so that no line break is cut and the pieces' lines are the text's lines."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BATCH - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _row_value(line: str, commas: int) -> float | None:
    """The number in the row's value field, or None (also for a wrong field count:
    the value field then holds a comma or is empty, and float() accepts neither)."""
    try:
        return float((line.partition(",")[2] if commas else line).strip())
    except ValueError:
        return None


def _write_lines(path, lines) -> None:
    """Write lines to path (stdout if None), each ending in a newline, _BATCH lines at a
    time, so a long series is never one string; %r of a float is its shortest repr."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
        while batch := list(islice(lines, _BATCH)):
            out.write("\n".join(batch) + "\n")


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
    parser.add_argument("--multiplier", type=float, default=ForecastConfig.multiplier, metavar="M")
    parser.add_argument("--window", type=int, metavar="N", help="overrides --multiplier")
    parser.add_argument("--levels", type=int, default=ForecastConfig.levels, metavar="S")
    parser.add_argument("--criterion", choices=[c.value for c in SimilarityCriterion],
                        default=ForecastConfig.criterion.value)
    parser.add_argument("--trend", choices=[t.value for t in TrendMode],
                        default=ForecastConfig.trend_mode.value)
    parser.add_argument("--method", choices=["linguistic", "holt"], default="linguistic")
    parser.add_argument("--xi", type=float, default=HoltConfig.xi, help="Holt value smoothing")
    parser.add_argument("--phi", type=float, default=HoltConfig.phi, help="Holt trend smoothing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ngramcast")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_forecast = sub.add_parser("forecast", help="forecast a series from a CSV file")
    _add_forecast_flags(p_forecast)

    p_backtest = sub.add_parser("backtest", help="forecast with mandatory holdout scoring")
    _add_forecast_flags(p_backtest)

    p_gen = sub.add_parser("generate", help="write a synthetic series CSV")
    for field in dataclasses.fields(GeneratorSpec):
        p_gen.add_argument(
            f"--{field.name}", type=type(field.default), default=field.default,
            choices=KINDS if field.name == "kind" else None,
            help="uniform noise half-width" if field.name == "noise" else None,
        )
    p_gen.add_argument("--output", help="output CSV path (default: stdout)")
    return parser


# the forecast and backtest flags a report's manifest records, in report order
_MANIFEST_KEYS = ("input", "horizon", "multiplier", "window", "levels", "criterion", "trend",
                  "method", "xi", "phi")


def _run_forecast(args) -> int:
    holdout = args.subcommand == "backtest"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a config warns when it is made, so it is made in here
        horizon = args.horizon
        if args.method == "holt":
            config = HoltConfig(horizon, args.xi, args.phi)
        else:
            config = ForecastConfig(
                horizon=horizon,
                multiplier=args.multiplier,
                levels=args.levels,
                criterion=SimilarityCriterion(args.criterion),
                trend_mode=TrendMode(args.trend),
                window=args.window,
            )
        series, digest = ingest_csv(args.input)  # after the config: a bad flag fails first
        try:
            if holdout:
                backtest, result = holdout_backtest(series, config)
            else:
                result = forecast(series, config)
        except SeriesTooShort as exc:  # name the flag that sets the window the series lacks
            if args.method == "holt" or args.multiplier is not None or args.window is not None:
                raise
            raise NgramcastError(f"{exc}: the default --multiplier {config.multiplier} makes a"
                                 f" window of {config.window_length} at --horizon {horizon}; a"
                                 " smaller --multiplier or a --window needs fewer rows") from None

        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    check = None if args.method == "holt" else config.multiplier_check

    first_index = len(series) - horizon + 1 if holdout else len(series) + 1
    indices = range(first_index, first_index + horizon)
    if args.output:
        _write_lines(args.output, chain(["index,value"],
                                      map("%d,%r".__mod__, zip(indices, result.values))))

    if args.plot_data:
        values = memoryview(series.values)  # yields Python floats one at a time
        history, actual = values[: first_index - 1], values[first_index - 1 :]
        _write_lines(args.plot_data, chain(
            ["series,index,value"],
            map("history,%d,%r".__mod__, zip(range(1, first_index), history)),
            map("forecast,%d,%r".__mod__, zip(indices, result.values)),
            map("actual,%d,%r".__mod__, zip(indices, actual)) if holdout else (),
        ))

    settings = {key: getattr(args, key) for key in _MANIFEST_KEYS} | {"holdout": holdout}
    if args.method != "holt":  # a phrase run records the M its config holds
        settings["multiplier"] = config.multiplier
    report = {
        "manifest": _manifest(args.subcommand, settings, digest),
        "method": result.method,
        "matched_start": result.matched_start,
        "score": result.score,
        "multiplier_check": check and {"ok": check[0], "message": check[1]},
        "forecast": {"first_index": first_index, "values": list(result.values)},
    }
    if holdout:
        report["metrics"] = dataclasses.asdict(backtest)
    _write_lines(args.report, [json.dumps(report, indent=2)])
    return 0


def _run_generate(args) -> int:
    names = [field.name for field in dataclasses.fields(GeneratorSpec)]
    spec = GeneratorSpec(**{name: getattr(args, name) for name in names})
    _write_lines(args.output, map(repr, memoryview(generate(spec).values)))
    manifest = _manifest("generate", dataclasses.asdict(spec), None)
    print(json.dumps(manifest), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name, value in vars(args).items():  # a report or manifest holds no nan or inf
            if isinstance(value, float) and not math.isfinite(value):
                parser.error(f"argument --{name}: not a finite number: {value!r}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.subcommand == "generate":
            return _run_generate(args)
        return _run_forecast(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # one with no file name is a write to stdout
        name = exc.filename or "stdout"
        verb = "read" if exc.filename and name == getattr(args, "input", None) else "write"
        print(f"error: cannot {verb} {name}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except (NgramcastError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
