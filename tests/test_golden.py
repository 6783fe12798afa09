"""Golden CLI bytes: every output of forecast and backtest, in each method, is pinned.

golden/digests.json holds the SHA-256 of the forecast CSV, the report, the plot
data and stderr, plus the exit code, for each run on golden/input.csv. The CLI
runs with the working directory set to a temporary directory and a relative
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


def run_digests(workdir: Path, command: str, mode: str, capsys) -> dict:
    """Run the CLI once in workdir and return the exit code and output digests."""
    shutil.copyfile(GOLDEN / "input.csv", workdir / "input.csv")
    argv = [command, "--input", "input.csv", "--horizon", "20", "--multiplier", "1",
            "--levels", "32", "--output", OUTPUTS[0], "--report", OUTPUTS[1],
            "--plot-data", OUTPUTS[2]]
    if mode == "holt":
        argv += ["--method", "holt"]
    else:
        criterion, trend = mode.split("-")
        argv += ["--criterion", criterion, "--trend", trend]
    code = main(argv)
    digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in OUTPUTS}
    digests["stderr"] = hashlib.sha256(capsys.readouterr().err.encode()).hexdigest()
    digests["exit"] = code
    return digests


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("command", ["forecast", "backtest"])
def test_cli_outputs_match_pinned_digests(command, mode, tmp_path, monkeypatch, capsys):
    expected = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert run_digests(tmp_path, command, mode, capsys) == expected[f"{command}/{mode}"]
