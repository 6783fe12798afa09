"""Golden CLI bytes: every output of forecast, backtest and generate is pinned.

golden/digests.json holds the SHA-256 of the forecast CSV, the report, the plot
data and stderr, plus the exit code, for each run on golden/input.csv (one
value column) and golden/labelled.csv (label,value rows with a header, CRLF
line ends and a blank line). For generate it holds the digests of the series
written to --output or to stdout, and of the manifest on stderr. The CLI runs
with the working directory set to a temporary directory and a relative
--input, so the report's manifest does not depend on where the tests live.
Update the digests only for an intended change of output bytes.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from ngramcast.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODES = ("difference-none", "difference-linear", "correlation-none", "correlation-linear", "holt")
OUTPUTS = ("fc.csv", "report.json", "plot.csv")


GENERATE = {
    "sinusoid": ["--seed", "7"],
    "sinusoid-linear": ["--slope", "0.013", "--seed", "-3"],
    "sinusoid-quadratic": ["--slope", "-0.01", "--quadratic", "2.5e-05",
                           "--seed", str(2**64 + 5)],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(workdir: Path, command: str, mode: str, capsys,
                source: str = "input.csv") -> dict:
    """Run the CLI once in workdir and return the exit code and output digests."""
    shutil.copyfile(GOLDEN / source, workdir / "input.csv")
    argv = [command, "--input", "input.csv", "--horizon", "20", "--multiplier", "1",
            "--levels", "32", "--output", OUTPUTS[0], "--report", OUTPUTS[1],
            "--plot-data", OUTPUTS[2]]
    if mode == "holt":
        argv += ["--method", "holt"]
    else:
        criterion, trend = mode.split("-")
        argv += ["--criterion", criterion, "--trend", trend]
    code = main(argv)
    digests = {name: sha256((workdir / name).read_bytes()) for name in OUTPUTS}
    digests["stderr"] = sha256(capsys.readouterr().err.encode())
    digests["exit"] = code
    return digests


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("command", ["forecast", "backtest"])
def test_cli_outputs_match_pinned_digests(command, mode, tmp_path, monkeypatch, capsys):
    expected = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert run_digests(tmp_path, command, mode, capsys) == expected[f"{command}/{mode}"]


def test_labelled_csv_forecast_matches_pinned_digests(tmp_path, monkeypatch, capsys):
    expected = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    digests = run_digests(tmp_path, "forecast", "difference-none", capsys, "labelled.csv")
    assert digests == expected["forecast/labelled/difference-none"]


def generate_digests(workdir: Path, kind: str, target: str, capsys) -> dict:
    """Run generate once, writing to --output or to stdout, and return the digests."""
    argv = ["generate", "--kind", kind, "--length", "500", "--period", "37",
            "--amplitude", "3", "--phase", "0.4", "--noise", "0.25", *GENERATE[kind]]
    if target == "output":
        argv += ["--output", "series.csv"]
    code = main(argv)
    captured = capsys.readouterr()
    series = (workdir / "series.csv").read_bytes() if target == "output" else captured.out.encode()
    return {"series": sha256(series), "stderr": sha256(captured.err.encode()), "exit": code}


@pytest.mark.parametrize("target", ["output", "stdout"])
@pytest.mark.parametrize("kind", sorted(GENERATE))
def test_generate_matches_pinned_digests(kind, target, tmp_path, monkeypatch, capsys):
    expected = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    digests = generate_digests(tmp_path, kind, target, capsys)
    assert digests == expected[f"generate/{kind}/{target}"]
