"""The three workloads: how one op is made from the seed, run, and checked.

Every workload is a closed loop with one client. Op i draws its series from
numpy's generator seeded with (workload seed, i), so no two ops share a query.
Inputs are written before an op's clock starts; the check runs after it stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

HORIZON = 20  # P
MULTIPLIER = 1.0  # M, so the window N = P
LEVELS = 32  # S
WINDOW = math.ceil(MULTIPLIER * HORIZON)
PERIOD, AMPLITUDE, NOISE = 25.0, 2.0, 0.15
HOLT_XI = HOLT_PHI = 0.5  # the CLI defaults
KINDS = ("sinusoid", "sinusoid-linear", "sinusoid-quadratic")

# Runs the program's console-script entry point from the checkout's sources.
CLI_SHIM = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from ngramcast.cli import main; sys.exit(main())"
)


@dataclass
class Step:
    """One call into the program within an op."""

    name: str  # a phrase mode, "holt" or "generate"
    argv: list[str] | None = None  # CLI arguments; None for library calls
    facts: dict = field(default_factory=dict)  # sizes for per-layer rates and counts


@dataclass
class Op:
    index: int
    steps: list[Step]
    outputs: list[Path] = field(default_factory=list)
    data: dict = field(default_factory=dict)


@dataclass
class Record:
    """What one op did: wall time, resources, and the check's verdict."""

    op: Op
    traced: bool = False
    seconds: float = 0.0
    rss_kb: int = 0
    bytes_written: int = 0
    error: str | None = None
    step_spans: list[int] = field(default_factory=list)
    result: object = None  # library results, for the check


def series_params(rng: np.random.Generator, kind: str, length: int) -> dict:
    """Trend sizes scaled to the length, so the trend adds 2 to 6 over the series."""
    slope = quadratic = 0.0
    if kind == "sinusoid-linear":
        slope = rng.uniform(2.0, 6.0) / length
    elif kind == "sinusoid-quadratic":
        slope = rng.uniform(0.0, 2.0) / length
        quadratic = rng.uniform(2.0, 6.0) / length**2
    return {
        "kind": kind,
        "phase": rng.uniform(0.0, 2.0 * math.pi),
        "slope": slope,
        "quadratic": quadratic,
    }


def make_series(rng: np.random.Generator, kind: str, length: int) -> np.ndarray:
    p = series_params(rng, kind, length)
    k = np.arange(1, length + 1, dtype=np.float64)
    values = AMPLITUDE * np.sin(2.0 * math.pi * k / PERIOD + p["phase"])
    values += p["slope"] * k + p["quadratic"] * k * k
    return values + rng.uniform(-NOISE, NOISE, length)


def write_series(path: Path, values: np.ndarray) -> None:
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")


def _phrase_args(mode: str) -> list[str]:
    criterion, trend = mode.split("-")
    return ["--criterion", criterion, "--trend", trend]


class Workload:
    name = ""
    entry = "ngramcast.cli"  # what a fresh interpreter imports to start the program
    in_process = False  # True when the untraced run calls the library directly

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def prepare(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, record: Record) -> None:
        """Raise CheckFailed when an output disagrees with the reference."""
        raise NotImplementedError


class CheckFailed(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_report(paths: dict, values: np.ndarray, step: Step, holdout: bool) -> None:
    """Check one forecast/backtest run's report, forecast CSV and plot data."""
    k = values.size
    train = values[: k - HORIZON] if holdout else values
    report = json.loads(paths["report"].read_text(encoding="utf-8"))
    got = report["forecast"]["values"]
    first = k - HORIZON + 1 if holdout else k + 1
    _expect(report["forecast"]["first_index"] == first, "forecast first_index")
    lines = paths["output"].read_text(encoding="utf-8").splitlines()
    _expect(lines[0] == "index,value", "forecast CSV header")
    rows = [line.split(",") for line in lines[1:]]
    _expect([int(r[0]) for r in rows] == list(range(first, first + HORIZON)), "forecast CSV indices")
    _expect([float(r[1]) for r in rows] == got, "forecast CSV differs from the report")
    plot = paths["plot"].read_bytes()
    _expect(plot.startswith(b"series,index,value\n"), "plot-data header")
    want = {"history": train.size, "forecast": HORIZON, "actual": HORIZON if holdout else 0}
    counts = {label: plot.count(f"\n{label},".encode()) for label in want}
    _expect(counts == want and plot.count(b"\n") == 1 + sum(want.values()),
            f"plot-data row counts {counts}")

    if step.name == "holt":
        _expect(reference.close(got, reference.holt(train, HOLT_XI, HOLT_PHI, HORIZON)),
                "Holt forecast differs from the recurrence")
    else:
        q, idx = reference.quantize(train, LEVELS)
        scores = reference.Scores(q, idx, WINDOW, HORIZON, step.name)
        step.facts.update(candidates=scores.candidates, excluded=scores.excluded_count,
                          near_ties=scores.near_ties)
        start = report["matched_start"]
        _expect(scores.accepts(start, report["score"]),
                f"{step.name}: start {start} is not a best match")
        _expect(reference.close(got, reference.phrase_forecast(q, start, WINDOW, HORIZON, step.name)),
                f"{step.name}: forecast is not the matched follower")
    if holdout:
        metrics = report["metrics"]
        want_mae, want_rmse = reference.error_metrics(got, values[k - HORIZON :])
        _expect(reference.close([metrics["mae"], metrics["rmse"]], [want_mae, want_rmse]),
                "holdout metrics")


class CliPaper(Workload):
    """One `ngramcast forecast|backtest` process on a 100-point paper series."""

    name = "cli-paper"
    LENGTH = 100
    VARIANTS = reference.MODES + ("holt",)

    def prepare(self, index: int) -> Op:
        rng = self.rng(index)
        values = make_series(rng, KINDS[index % len(KINDS)], self.LENGTH)
        variant = self.VARIANTS[index % len(self.VARIANTS)]
        command = ("forecast", "backtest")[index % 2]
        w = self.workdir
        paths = {"input": w / "in.csv", "output": w / "fc.csv", "report": w / "report.json",
                 "plot": w / "plot.csv"}
        write_series(paths["input"], values)
        argv = [command, "--input", str(paths["input"]), "--horizon", str(HORIZON),
                "--multiplier", repr(MULTIPLIER), "--levels", str(LEVELS),
                "--output", str(paths["output"]), "--report", str(paths["report"]),
                "--plot-data", str(paths["plot"])]
        argv += ["--method", "holt"] if variant == "holt" else _phrase_args(variant)
        train = self.LENGTH - HORIZON if command == "backtest" else self.LENGTH
        step = Step(variant, argv, {"rows": self.LENGTH, "points": train})
        outputs = [paths["output"], paths["report"], paths["plot"]]
        return Op(index, [step], outputs, {"values": values, "paths": paths,
                                           "holdout": command == "backtest"})

    def check(self, op: Op, record: Record) -> None:
        check_report(op.data["paths"], op.data["values"], op.steps[0], op.data["holdout"])


class SearchLong(Workload):
    """In-process forecast() on one K = 10^4 series under all four phrase modes."""

    name = "search-long"
    entry = "ngramcast"
    in_process = True
    LENGTH = 10_000

    def prepare(self, index: int) -> Op:
        values = make_series(self.rng(index), KINDS[index % len(KINDS)], self.LENGTH)
        steps = [Step(mode) for mode in reference.MODES]
        return Op(index, steps, [], {"values": values})

    def check(self, op: Op, record: Record) -> None:
        q, idx = reference.quantize(op.data["values"], LEVELS)
        for step, result in zip(op.steps, record.result):
            scores = reference.Scores(q, idx, WINDOW, HORIZON, step.name)
            step.facts.update(candidates=scores.candidates, excluded=scores.excluded_count,
                              near_ties=scores.near_ties)
            start = result.matched_start
            _expect(scores.accepts(start, result.score),
                    f"{step.name}: start {start} is not a best match")
            want = reference.phrase_forecast(q, start, WINDOW, HORIZON, step.name)
            _expect(reference.close(result.values, want),
                    f"{step.name}: forecast is not the matched follower")


class IoLong(Workload):
    """`ngramcast generate` of 2x10^5 noisy points, then a Holt backtest of that file."""

    name = "io-long"
    LENGTH = 200_000

    def prepare(self, index: int) -> Op:
        rng = self.rng(index)
        p = series_params(rng, KINDS[index % len(KINDS)], self.LENGTH)
        p["seed"] = int(rng.integers(0, 2**63))
        w = self.workdir
        paths = {"input": w / "series.csv", "output": w / "fc.csv", "report": w / "report.json",
                 "plot": w / "plot.csv"}
        generate = ["generate", "--kind", p["kind"], "--length", str(self.LENGTH),
                    "--period", repr(PERIOD), "--amplitude", repr(AMPLITUDE),
                    "--phase", repr(p["phase"]), "--noise", repr(NOISE), "--seed", str(p["seed"]),
                    "--output", str(paths["input"])]
        if p["kind"] != "sinusoid":
            generate += ["--slope", repr(p["slope"])]
        if p["kind"] == "sinusoid-quadratic":
            generate += ["--quadratic", repr(p["quadratic"])]
        backtest = ["backtest", "--input", str(paths["input"]), "--horizon", str(HORIZON),
                    "--method", "holt", "--output", str(paths["output"]),
                    "--report", str(paths["report"]), "--plot-data", str(paths["plot"])]
        steps = [Step("generate", generate, {"samples": self.LENGTH}),
                 Step("holt", backtest, {"rows": self.LENGTH, "points": self.LENGTH - HORIZON})]
        outputs = [paths["input"], paths["output"], paths["report"], paths["plot"]]
        return Op(index, steps, outputs, {"params": p, "paths": paths})

    def check(self, op: Op, record: Record) -> None:
        p, paths = op.data["params"], op.data["paths"]
        values = np.array(paths["input"].read_text(encoding="utf-8").split(), dtype=np.float64)
        want = reference.generated(self.LENGTH, PERIOD, AMPLITUDE, p["phase"], p["slope"],
                                   p["quadratic"], NOISE, p["seed"])
        _expect(reference.close(values, want), "generated series differs from the reference")
        check_report(paths, values, op.steps[1], holdout=True)


WORKLOADS = {w.name: w for w in (CliPaper, SearchLong, IoLong)}


def child_env() -> dict:
    """The environment for child processes, with BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))
    return env


def run_child(cmd: list[str], env: dict, cwd: Path, stdout=subprocess.DEVNULL):
    """Run a process to completion: (wall seconds, exit code, peak RSS in KiB, stderr)."""
    err_path = cwd / "stderr.txt"
    with err_path.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss, err_path.read_text(errors="replace")


class Executor:
    """Runs the steps of an op: as CLI processes, or in-process through the package.

    Given a tracer, every odd-numbered op runs traced and the others untraced,
    so both kinds see the same drift in the host's speed.
    """

    def __init__(self, src: Path, workdir: Path, subprocesses: bool, tracer=None):
        self.src = src
        self.workdir = workdir
        self.subprocesses = subprocesses
        self.tracer = tracer
        self.env = child_env()
        self._configs = None
        self._tracing = False

    def _span(self, name: str):
        return self.tracer.span(name) if self._tracing else contextlib.nullcontext(-1)

    def run(self, op: Op) -> Record:
        record = Record(op, traced=self.tracer is not None and op.index % 2 == 1)
        for path in op.outputs:
            path.unlink(missing_ok=True)
        if record.traced:
            self.tracer.install()
            self.tracer.op_id = op.index
        self._tracing = record.traced
        try:
            with self._span("bench.op"):
                if op.steps[0].argv is None:
                    self._library_op(op, record)
                else:
                    for step in op.steps:
                        if not self._cli_step(step, record):
                            break
        finally:
            if record.traced:
                self.tracer.uninstall()
        record.bytes_written = sum(p.stat().st_size for p in op.outputs if p.exists())
        return record

    def _cli_step(self, step: Step, record: Record) -> bool:
        if self.subprocesses:
            cmd = [sys.executable, "-I", "-c", CLI_SHIM, str(self.src)] + step.argv
            seconds, code, rss, err = run_child(cmd, self.env, self.workdir)
            record.rss_kb = max(record.rss_kb, rss)
        else:
            import ngramcast.cli

            sink = io.StringIO()
            with self._span(f"bench.{step.name}") as span, contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    code = ngramcast.cli.main(step.argv)
                except Exception as exc:  # the op fails; the run goes on
                    code, sink = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
                seconds = time.perf_counter() - t0
            record.step_spans.append(span)
            err = sink.getvalue()
        record.seconds += seconds
        if code != 0:
            record.error = f"{step.name}: exit {code}: {err.strip()[-300:]}"
        return code == 0

    def _library_op(self, op: Op, record: Record) -> None:
        import ngramcast as ng

        if self._configs is None:
            self._configs = {}
            for mode in reference.MODES:
                criterion, trend = mode.split("-")
                self._configs[mode] = ng.ForecastConfig(
                    horizon=HORIZON, multiplier=MULTIPLIER, levels=LEVELS,
                    criterion=ng.SimilarityCriterion(criterion), trend_mode=ng.TrendMode(trend))
        results = []
        t0 = time.perf_counter()
        try:
            series = ng.TimeSeries(op.data["values"])
            for step in op.steps:
                with self._span(f"bench.{step.name}") as span:
                    results.append(ng.forecast(series, self._configs[step.name]))
                record.step_spans.append(span)
        except Exception as exc:  # the op fails; the run goes on
            record.error = f"{type(exc).__name__}: {exc}"
        record.seconds = time.perf_counter() - t0
        record.result = results
