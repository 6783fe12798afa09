"""The CLI reads and writes long series in batches: same bytes, bounded memory.

Output written _BATCH lines at a time must equal the one-shot
"\\n".join(lines) + "\\n", at every row count around a batch boundary. Peak
traced memory must stay a small multiple of the file read or written, which
holding one Python object per row would exceed several times over.
"""

import json
import tracemalloc

import pytest

from ngramcast import cli
from ngramcast.evaluation import GeneratorSpec, generate
from test_cli import _reject

B = cli._BATCH
ROWS = [1, B - 1, B, B + 1, 3 * B + 1]


@pytest.mark.parametrize("rows", ROWS)
def test_generate_to_file_and_stdout_is_one_shot_bytes(rows, tmp_path, capsys):
    path = tmp_path / "s.csv"
    flags = ["generate", "--length", str(rows), "--noise", "0.15", "--seed", "7"]
    assert cli.main(flags + ["--output", str(path)]) == 0
    assert cli.main(flags) == 0
    values = generate(GeneratorSpec(length=rows, noise=0.15, seed=7)).values.tolist()
    want = "\n".join(map(repr, values)) + "\n"
    assert path.read_text() == capsys.readouterr().out == want


@pytest.mark.parametrize("rows", [B + 1, 2 * B + 20])
def test_plot_data_is_one_shot_bytes(rows, tmp_path):
    path, plot = tmp_path / "s.csv", tmp_path / "plot.csv"
    values = generate(GeneratorSpec(length=rows, noise=0.15, seed=3)).values.tolist()
    path.write_text("\n".join(map(repr, values)) + "\n")
    rc = cli.main(["backtest", "--input", str(path), "--horizon", "20", "--method", "holt",
                   "--plot-data", str(plot), "--report", str(tmp_path / "report.json")])
    assert rc == 0
    lines = plot.read_text().splitlines()
    history = [f"history,{i},{v!r}" for i, v in enumerate(values[:-20], start=1)]
    actual = [f"actual,{i},{v!r}" for i, v in enumerate(values[-20:], start=rows - 19)]
    assert lines[: rows - 19] == ["series,index,value"] + history
    assert [line.split(",")[0] for line in lines[rows - 19 : rows + 1]] == ["forecast"] * 20
    assert lines[rows + 1 :] == actual


def traced_peak(argv) -> int:
    """Peak bytes traced by tracemalloc while cli.main runs argv, which must succeed."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one Python float and one str per row put each step at 6-9 times the file size
GENERATE = ["generate", "--length", "100000", "--noise", "0.15", "--seed", "7"]


def test_generate_peak_memory_is_under_3x_its_output(tmp_path):
    series = tmp_path / "s.csv"
    peak = traced_peak(GENERATE + ["--output", str(series)])
    size = series.stat().st_size
    assert peak <= 3 * size, f"{peak / size:.1f} x"


def test_holt_backtest_peak_memory_is_under_4x_its_input(tmp_path):
    series = tmp_path / "s.csv"
    assert cli.main(GENERATE + ["--output", str(series)]) == 0
    peak = traced_peak(["backtest", "--input", str(series), "--horizon", "20", "--method", "holt",
                        "--plot-data", str(tmp_path / "plot.csv"),
                        "--report", str(tmp_path / "report.json")])
    json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject)  # strict JSON
    size = series.stat().st_size
    assert peak <= 4 * size, f"{peak / size:.1f} x"


def test_labelled_holt_backtest_peak_memory_is_under_3x_its_input(tmp_path):
    # the label column is read past: no per-row string is kept for it
    series = tmp_path / "s.csv"
    values = generate(GeneratorSpec(length=100_000, noise=0.15, seed=7)).values.tolist()
    series.write_text("date,value\n" + "".join(f"t{i},{v!r}\n" for i, v in enumerate(values)))
    peak = traced_peak(["backtest", "--input", str(series), "--horizon", "20", "--method", "holt",
                        "--plot-data", str(tmp_path / "plot.csv"),
                        "--report", str(tmp_path / "report.json")])
    json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject)  # strict JSON
    size = series.stat().st_size
    assert peak <= 3 * size, f"{peak / size:.1f} x"
