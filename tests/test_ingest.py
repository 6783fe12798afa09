"""ingest_csv against a row-by-row reference parser, on fuzzed and pinned inputs.

reference_ingest_csv is the straightforward per-row parser: split every row at
its commas, strip the fields, parse the value with float(). ingest_csv must
give the same values bit for bit, the same SHA-256 of the file, and the same
error message, which names the first bad row and its text.
"""

import errno
import hashlib
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from ngramcast import cli
from ngramcast.cli import ingest_csv
from ngramcast.series import NgramcastError, TimeSeries


def reference_ingest_csv(path):
    """Per-row reference: the first row is a header when its value field is not a number."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")  # a leading byte order mark is not text
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
    """What a parser makes of path: the values' bits and the file's digest, or the name of the
    error's type and its message."""
    try:
        series, digest = parse(path)
    except (NgramcastError, OSError) as exc:
        return (type(exc).__name__, str(exc))
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


@seed(20221019)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), batch=st.integers(1, 6))
def test_matches_reference_parser_in_small_pieces(text, batch, tmp_path):
    """A piece of a few characters holds a row or two, so every input spans many pieces.
    The patch is undone after each example; a function-scoped monkeypatch is not."""
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(cli, "_BATCH", batch):
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
    "1\nabc\n",
    *(text for bad in ["nan", "inf", "-inf"] for text in [f"{bad}\n2\n", f"1\n{bad}\n"]),
])
def test_first_bad_row_wins(text, tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(ingest_csv, path) == outcome(reference_ingest_csv, path)
    assert outcome(ingest_csv, path)[1].startswith("row ")


# (id, text or None for a file never written, the values or the refusal (type, message)): a
# message names the file as PATH. An id names the test the row replaced.
PINNED = [
    ("single-column", "1\n2\n3\n", [1, 2, 3]),
    ("two-columns-with-header", "date,count\n2021-01-01,7\n2021-01-02,9\n", [7, 9]),
    # a BOM glued to the first value once made that row look like a header, and lost it
    ("bom-values", "\ufeff1.5\n2.5\n3.5\n", [1.5, 2.5, 3.5]),
    ("bom-header", "\ufeffvalue\n1.5\n2.5\n", [1.5, 2.5]),
    ("bom-two-columns", "\ufeffdate,value\na,1.5\n", [1.5]),
    # one data row is a one-point series; a header or blank lines alone hold no data
    ("TestShortInputs.test_one_row_is_a_one_point_series", "4.5\n", [4.5]),
    ("TestShortInputs.test_header_and_one_row_is_a_one_point_series",
     "date,value\n2021-01-01,4.5\n", [4.5]),
    *((f"TestShortInputs.test_header_only_is_empty-{case}", text,
       (NgramcastError, "no data rows in PATH"))
      for case, text in [("value", "value\n"), ("date-value", "date,value\n"),
                         ("blank-lines", "\n \n"), ("newline", "\n")]),
    ("test_missing_file", None,
     (FileNotFoundError, f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'PATH'")),
]


@pytest.mark.parametrize("text, expected", [
    pytest.param(*row, id=name) for name, *row in PINNED])
def test_pinned_values(text, expected, tmp_path):
    """ingest_csv gives the row's values and the SHA-256 of the file, or the row's refusal,
    and the reference parser gives the same."""
    path = tmp_path / "s.csv"
    if text is not None:
        path.write_bytes(text.encode("utf-8"))
    got = outcome(ingest_csv, path)
    assert got == outcome(reference_ingest_csv, path)
    if isinstance(expected, list):
        assert got == ("ok", np.array(expected, dtype=np.float64).view(np.uint64).tolist(),
                       hashlib.sha256(path.read_bytes()).hexdigest())
    else:
        assert got == (expected[0].__name__, expected[1].replace("PATH", str(path)))


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
