"""cli.main end to end on generated CSV bytes and drawn flags, warnings raised as errors.

Every run must end in exactly one of three ways:
- exit 0, with finite values in every output file and strict-JSON reports;
- exit 1, with exactly one `error:` line on stderr;
- exit 2, an argparse usage error.
The CSV is parsed and written in pieces of a few characters, so every input is
longer than one batch.
"""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from ngramcast import cli
from test_cli import _reject

GOOD = st.one_of(
    st.integers(-3, 3).map(str),  # few levels: exact ties are common
    st.floats(-10.0, 10.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # up to +-1.8e308
    st.integers(-9, 9).map(lambda k: f"{k}e300"),
    st.integers(-9, 9).map(lambda k: f"{k}e-300"),
)
HOSTILE = st.sampled_from(["nan", "-inf", "abc", "", "1,2,3", "1e400", "\udcff"])
# each flag's valid values, then values that a library record or argparse must refuse
FLAGS = {
    "--horizon": (["1", "2", "3", "5", "20"], ["0", "-1", "x"]),
    "--multiplier": (["1", "1.5", "2.5", "5", "0.01", "1e300", "1e308"],
                     ["0", "-1", "nan", "inf"]),
    "--levels": (["1", "2", "8", "32", "1000000000000000000"], ["0"]),
    "--criterion": (["difference", "correlation"], ["other"]),
    "--trend": (["none", "linear"], []),
    "--method": (["linguistic", "holt"], []),
    "--xi": (["0", "0.5", "1"], ["1.5", "nan"]),
    "--phi": (["0", "0.3", "1"], ["-0.1", "-inf"]),
}
GENERATE_FLAGS = {
    "--kind": (["sinusoid", "sinusoid-linear", "sinusoid-quadratic"], ["saw"]),
    "--length": (["1", "2", "7", "60"], ["0"]),
    "--period": (["25", "3.5", "1e-300"], ["0", "nan"]),
    "--amplitude": (["2", "1e308"], ["0"]),
    "--slope": (["0", "0.1", "1e308"], []),
    "--quadratic": (["0", "1e-3", "1e308"], []),
    "--phase": (["0", "1.5"], ["inf"]),
    "--noise": (["0", "0.15", "1e308"], ["-1", "nan"]),
    "--seed": (["0", "7", "-3", "18446744073709551617"], ["x"]),
}
ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_bytes(draw):
    """A one- or two-column CSV, maybe with a header, blank lines and one hostile row.

    The rows are a short pattern repeated, then a tail, so long series are common."""
    pattern = draw(st.lists(GOOD, min_size=1, max_size=8))
    rows = pattern * draw(st.integers(0, 25)) + draw(st.lists(GOOD, max_size=20))
    if rows and draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(HOSTILE))
    labelled = draw(st.booleans())
    if labelled:
        rows = [f"t{i},{row}" for i, row in enumerate(rows)]
    if draw(st.booleans()):
        rows.insert(0, "date,value" if labelled else "value")
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), "  ")
    end = draw(ENDS)
    data = "".join(row + end for row in rows).encode("utf-8", "surrogateescape")
    return b"\xff" + data if draw(st.integers(0, 30)) == 0 else data


@st.composite
def invocations(draw):
    """(subcommand, flags, outputs): outputs maps each output flag drawn to its file name.

    One call in four may draw refused flag values; the others draw valid ones only."""
    subcommand = draw(st.sampled_from(["forecast", "backtest", "generate"]))
    hostile = draw(st.integers(0, 3)) == 0
    flags = []
    for flag, (valid, refused) in (GENERATE_FLAGS if subcommand == "generate" else FLAGS).items():
        if flag == "--horizon" or draw(st.booleans()):
            flags += [flag, draw(st.sampled_from(valid + refused if hostile else valid))]
    names = ["--output"] if subcommand == "generate" else ["--output", "--plot-data", "--report"]
    outputs = {flag: flag.strip("-") + ".out" for flag in names if draw(st.booleans())}
    return subcommand, flags, outputs


def assert_finite_csv(text):
    """Every row after the header ends in a finite number, and the text ends in a newline."""
    assert text.endswith("\n")
    rows = text.splitlines()
    assert all(math.isfinite(float(row.rpartition(",")[2])) for row in rows[1:])


def assert_finite_report(text):
    report = json.loads(text, parse_constant=_reject)
    assert all(map(math.isfinite, report["forecast"]["values"]))


@seed(20221020)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=csv_bytes(), call=invocations(), batch=st.integers(1, 8))
# a 1e308 multiplier with the phrase method runs whatever the seeded draws hold
@example(data=b"1\n2\n3\n", call=("forecast", ["--horizon", "5", "--multiplier", "1e308"], {}),
         batch=2)
def test_every_run_ends_in_one_of_three_ways(data, call, batch, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_BATCH", batch)
    subcommand, flags, outputs = call
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        work = Path(work)
        (work / "in.csv").write_bytes(data)
        argv = [subcommand, *flags]
        if subcommand != "generate":
            argv += ["--input", str(work / "in.csv")]
        for flag, name in outputs.items():
            argv += [flag, str(work / name)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            rc = cli.main(argv)
        lines = err.getvalue().splitlines()
        if rc == 2:
            assert lines[0].startswith("usage: ngramcast")
            return
        if rc == 1:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            return
        assert rc == 0
        if subcommand == "generate":
            assert len(lines) == 1 and json.loads(lines[0], parse_constant=_reject)
            assert_finite_csv("value\n" + (work / outputs["--output"]).read_text()
                              if "--output" in outputs else "value\n" + out.getvalue())
            return
        assert all(line.startswith("warning: ") for line in lines), lines
        assert not any("encountered" in line for line in lines), lines
        report = (work / outputs["--report"]).read_text() if "--report" in outputs else out.getvalue()
        assert_finite_report(report)
        for flag in ("--output", "--plot-data"):
            if flag in outputs:
                assert_finite_csv((work / outputs[flag]).read_text())
