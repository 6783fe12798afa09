"""ingest_csv against a row-by-row reference parser, on fuzzed and pinned inputs.

reference_ingest_csv is the straightforward per-row parser: split every row at
its commas, strip the fields, parse the value with float(). ingest_csv must
give the same values bit for bit, the same SHA-256 of the file, and the same
error message, which names the first bad row and its text.
"""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from ngramcast import cli
from ngramcast.cli import ingest_csv, main
from ngramcast.errors import NgramcastError
from ngramcast.series import TimeSeries


def reference_ingest_csv(path):
    """Per-row reference: the first row is a header when its value field is not a number."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise NgramcastError(f"{path} is not UTF-8 text") from None
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise NgramcastError(f"no data rows in {path}")
    values = []
    two_column = "," in rows[0]
    for i, line in enumerate(rows, start=1):
        fields = line.split(",")
        if two_column and len(fields) == 2:
            field = fields[1].strip()
        elif not two_column and len(fields) == 1:
            field = fields[0].strip()
        else:
            raise NgramcastError(f"row {i}: cannot parse {line!r}")
        try:
            value = float(field)
        except ValueError:
            if i == 1:
                continue  # header row
            raise NgramcastError(f"row {i}: cannot parse {line!r}") from None
        if not math.isfinite(value):
            raise NgramcastError(f"row {i}: cannot parse {line!r}")
        values.append(value)
    if not values:
        raise NgramcastError(f"no data rows in {path}")
    return TimeSeries(np.asarray(values)), hashlib.sha256(data).hexdigest()


def outcome(parse, path):
    """What a parser makes of path: the values' bits and the file's digest, or the error."""
    try:
        series, digest = parse(path)
    except NgramcastError as exc:
        return ("error", str(exc))
    return ("ok", series.values.view(np.uint64).tolist(), digest)


VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "-1e400", " 2 ", "\t-0.0 ", "+3",
                     "1_000", "0x10", "1.5.2", "abc", "value", "", "7\u00a0", "\u0663.5",
                     "5\x1f"]),  # str.strip() removes U+001F, float() alone does not
)
LABELS = st.sampled_from(["", "a", " t1 ", "2021-01-01", "date", "1", "nan"])
HEADERS = {1: st.sampled_from(["value", " count ", "x"]),
           2: st.sampled_from(["date,value", "t, x", "label,1", "a,b"])}
BLANKS = st.sampled_from(["", " ", "\t", "  \t ", "\u2003"])
ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])


@st.composite
def csv_texts(draw):
    """CSV text: one or two columns, maybe a header, with blank and malformed rows mixed in."""
    columns = draw(st.sampled_from([1, 2]))
    lines = [draw(HEADERS[columns])] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "stray"]))
        if kind == "blank":
            lines.append(draw(BLANKS))
            continue
        width = columns if kind == "row" else draw(st.sampled_from([1, 2, 3]))
        lines.append(",".join([draw(LABELS) for _ in range(width - 1)] + [draw(VALUES)]))
    text = "".join(line + draw(ENDS) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last row
    return text


@seed(20221018)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_matches_reference_parser(text, tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(ingest_csv, path) == outcome(reference_ingest_csv, path)


@pytest.mark.parametrize("text", [
    "1\n2\nabc\nnan\n",
    "1\n2,3\nabc\n",
    "1\n2\ninf\nx\n",
    "a,1\nb,2\nc,nan\nd\n",
    "a,1\nb,x\nc,2,3\n",
    "a,1\nb,2,3\n4\n",  # as many commas as rows, but not one per row
    "t,v\nb,1\nc\n",
    "1\n\n  \n2\r\n3,4\r\n",
])
def test_first_bad_row_wins(text, tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(ingest_csv, path) == outcome(reference_ingest_csv, path)
    assert outcome(ingest_csv, path)[1].startswith("row ")


@seed(20221019)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), batch=st.integers(1, 6))
def test_matches_reference_parser_in_small_pieces(text, batch, tmp_path, monkeypatch):
    # a piece of a few characters holds a row or two, so every input spans many pieces
    monkeypatch.setattr(cli, "_BATCH", batch)
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(ingest_csv, path) == outcome(reference_ingest_csv, path)


@pytest.mark.parametrize("text", [
    "1\r\n2\r\n3.5\r\n-4\r\n",  # no cut falls between the "\r" and the "\n" of a row end
    "t,v\r\na,1\r\n\r\nb,2\r\nc,3",
    "1\r2\r3\r4\r",  # no "\n" at all: one piece
    "value\n\n \n\t\n\n",  # a header, then only blank lines
    "\n\n  \n\nvalue\n1\n2\n",  # blank pieces before the header
    "date,value\n\n\n\n\n",
    "1\n2\n3\n4\n5\n6\nabc\n",  # a bad row in the last piece
    "1\n2\n3\n4\n5\n6\n-inf\n",  # a non-finite row in the last piece
    "a,1\nb,2\nc,3\nd,4\ne,5,6\n",
    "a,1\nb,2\nc,3\nd,4\ne,nan",
])
def test_every_cut_matches_reference(text, tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(reference_ingest_csv, path)
    for batch in range(1, len(text) + 2):
        monkeypatch.setattr(cli, "_BATCH", batch)
        assert outcome(ingest_csv, path) == want, batch


@pytest.mark.parametrize("text", ["1\r\n2\r3\n\n4\u20285\n6", "\n\n\n", "x\r\n", "7"])
def test_pieces_are_cut_right_after_newlines(text, monkeypatch):
    for batch in range(1, len(text) + 2):
        monkeypatch.setattr(cli, "_BATCH", batch)
        pieces = list(cli._pieces(text))
        assert "".join(pieces) == text
        assert all(p.endswith("\n") for p in pieces[:-1])
        assert [line for p in pieces for line in p.splitlines()] == text.splitlines()


class TestShortInputs:
    """One data row is a one-point series: constant for the phrase method, too short for Holt."""

    def test_one_row_is_a_one_point_series(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("4.5\n")
        series, _ = ingest_csv(path)
        assert series.values.tolist() == [4.5]

    def test_header_and_one_row_is_a_one_point_series(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2021-01-01,4.5\n")
        series, _ = ingest_csv(path)
        assert series.values.tolist() == [4.5]

    @pytest.mark.parametrize("text", ["value\n", "date,value\n", "\n \n"])
    def test_header_only_is_empty(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(NgramcastError, match=f"^no data rows in {re.escape(str(path))}$"):
            ingest_csv(path)

    @pytest.mark.parametrize("text", ["4.5\n", "date,value\n2021-01-01,4.5\n"])
    def test_one_point_forecast_is_one_line_error(self, tmp_path, capsys, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        rc = main(["forecast", "--input", str(path), "--horizon", "1", "--method", "holt"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: series length 1 is below the minimum required length 2\n"

    def test_one_point_phrase_forecast_is_the_constant(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("date,value\n2021-01-01,4.5\n")
        report = tmp_path / "report.json"
        rc = main(["forecast", "--input", str(path), "--horizon", "2", "--multiplier", "3",
                   "--report", str(report)])
        assert rc == 0
        assert json.loads(report.read_text())["forecast"]["values"] == [4.5, 4.5]
        assert "warning: constant series" in capsys.readouterr().err
