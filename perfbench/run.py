"""ngramcast benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout (the sources are taken from ./src):

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop with one client; see workloads.py):
  cli-paper    one `ngramcast forecast|backtest` process on a 100-point series
  search-long  in-process forecast() on a 10^4-point series, all four phrase modes
  io-long      `ngramcast generate` of 2x10^5 points, then a Holt backtest of the file

--trace 0 measures the end-to-end metrics with no tracing. --trace 1 runs
every op in-process, every other op with each public ngramcast function
wrapped in a span, and reports the per-layer metrics. Every op is
checked against the independent reference in reference.py; the check is not
timed. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it give each metric
with its unit and direction, and the environment of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import reference
import spans
from workloads import WORKLOADS, CheckFailed, Executor, child_env, run_child

SETUP_REPS = 11  # fresh-interpreter imports per run, spread over the measuring time
MIN_OPS = 11  # so that a percentile with 10 ops beyond it exists
TRACE_MIN_OPS = 6  # three traced, three untraced
WALL_LIMIT_S = 150.0  # stop measuring here whatever the op count
SETUP_PROBE = (
    "import sys, time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "sys.path.insert(0, sys.argv[1]); __import__(sys.argv[2]); t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1)"
)
# Spans whose time is reported on its own; a self time excludes these.
MEASURED = {
    "cli.main", "cli.ingest_csv", "series.quantize", "matching.find_best_match",
    "forecasting.forecast", "forecasting.forecast_holt", "evaluation.uniform_noise",
    "evaluation.generate", "evaluation.error_metrics",
}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest rank with 10 samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


class SetupProbe:
    """Times a fresh interpreter importing numpy and then the workload's entry point.

    The host's speed drifts over tens of seconds, so the samples are spread
    over the whole measuring time rather than taken back to back.
    """

    def __init__(self, src: Path, entry: str, workdir: Path):
        self.cmd = [sys.executable, "-I", "-c", SETUP_PROBE, str(src), entry]
        self.env = child_env()
        self.out = workdir / "setup.txt"
        self.walls, self.numpy_s, self.package_s = [], [], []
        self._probe()  # warms the file cache and writes the bytecode; not kept

    def _probe(self) -> tuple[float, float, float]:
        with self.out.open("wb") as out:
            wall, code, _, err = run_child(self.cmd, self.env, self.out.parent, stdout=out)
        if code != 0:
            raise RuntimeError(f"import failed: {err.strip()[-300:]}")
        a, b = self.out.read_text().split()
        return wall, float(a), float(b)

    def sample(self) -> None:
        wall, a, b = self._probe()
        self.walls.append(wall)
        self.numpy_s.append(a)
        self.package_s.append(b)

    def metrics(self) -> dict:
        return {"setup_s": median(self.walls), "setup.import_numpy_s": median(self.numpy_s),
                "setup.import_ngramcast_s": median(self.package_s)}


def measure(workload, executor: Executor, seconds: float, min_ops: int, deadline: float,
            probe: SetupProbe) -> list:
    """Closed loop: prepare, run (timed), check, until the timed total reaches seconds.

    SETUP_REPS set-up samples are taken between ops, evenly spaced in timed seconds.
    """
    records = []
    busy = 0.0
    while (busy < seconds or len(records) < min_ops) and time.monotonic() < deadline:
        if len(probe.walls) < SETUP_REPS and busy >= len(probe.walls) * seconds / SETUP_REPS:
            probe.sample()
        op = workload.prepare(len(records))
        record = executor.run(op)
        if record.error is None:
            try:
                workload.check(op, record)
            except CheckFailed as exc:
                record.error = f"check: {exc}"
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                record.error = f"check: {type(exc).__name__}: {exc}"
        records.append(record)
        busy += record.seconds
    while len(probe.walls) < SETUP_REPS:
        probe.sample()
    return records


def end_to_end(records: list, setup: dict, rss_kb: int) -> tuple[dict, list[str]]:
    times = [r.seconds for r in records]
    tail_s, pct, beyond = tail(times)
    values = {
        "setup_s": setup["setup_s"],
        "op_p50_s": median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return values, [f"op_tail_s is p{pct:.1f} of {len(times)} ops, {beyond} beyond it"]


def per_layer(traced: list, untraced: list, tracer: spans.Tracer, setup: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans of the traced ops; 0 where a layer did no work."""
    steps = []  # (span index, Step) of the ops that passed their check
    for r in traced:
        if r.error is None:
            steps += zip(r.step_spans, r.op.steps)
    times = spans.self_times(tracer, MEASURED, [s for s, _ in steps])

    def total(span, name):
        return times[span].get(name, [0.0, 0.0])[0]

    def self_s(span, name):
        return times[span].get(name, [0.0, 0.0])[1]

    def over(name, pick, mode=None):
        """Median over the steps (of one mode, if given) that called name."""
        return median([pick(s, st) for s, st in steps
                       if name in times[s] and (mode is None or st.name == mode)])

    m = {}
    for mode in reference.MODES:
        fbm = "matching.find_best_match"
        m[f"{fbm}.s.{mode}"] = over(fbm, lambda s, st: total(s, fbm), mode)
        m[f"matching.ns_per_candidate.{mode}"] = over(
            fbm, lambda s, st: 1e9 * total(s, fbm) / st.facts["candidates"], mode)
        counts = [st.facts["candidates"] for s, st in steps if st.name == mode and fbm in times[s]]
        m[f"matching.candidates.{mode}"] = statistics.median_low(counts) if counts else 0
    for mode in ("correlation-none", "correlation-linear"):
        done = [st.facts for s, st in steps if st.name == mode and "candidates" in st.facts]
        attempts = sum(f["candidates"] for f in done)
        m[f"matching.excluded.{mode}"] = sum(f["excluded"] for f in done) / attempts if attempts else 0.0
    m["matching.near_ties"] = max([st.facts.get("near_ties", 0) for _, st in steps], default=0)
    m["series.quantize.s"] = over("series.quantize", lambda s, st: total(s, "series.quantize"))
    for mode in reference.MODES:
        m[f"forecasting.forecast.self_s.{mode}"] = over(
            "forecasting.forecast", lambda s, st: self_s(s, "forecasting.forecast"), mode)
    holt = "forecasting.forecast_holt"
    m[f"{holt}.s"] = over(holt, lambda s, st: total(s, holt))
    m[f"{holt}.points_per_s"] = over(holt, lambda s, st: st.facts["points"] / total(s, holt))
    noise = "evaluation.uniform_noise"
    m[f"{noise}.s"] = over(noise, lambda s, st: total(s, noise))
    m[f"{noise}.samples_per_s"] = over(noise, lambda s, st: st.facts["samples"] / total(s, noise))
    m["evaluation.generate.self_s"] = over(
        "evaluation.generate", lambda s, st: self_s(s, "evaluation.generate"))
    m["evaluation.error_metrics.s"] = over(
        "evaluation.error_metrics", lambda s, st: total(s, "evaluation.error_metrics"))
    ingest = "cli.ingest_csv"
    m[f"{ingest}.s"] = over(ingest, lambda s, st: total(s, ingest))
    m[f"{ingest}.rows_per_s"] = over(ingest, lambda s, st: st.facts["rows"] / total(s, ingest))
    m["cli.main.self_s"] = over("cli.main", lambda s, st: self_s(s, "cli.main"))
    cli_ops = [r.bytes_written for r in traced if r.op.steps[0].argv is not None]
    m["cli.bytes_written"] = statistics.median_low(cli_ops) if cli_ops else 0
    m["setup.import_numpy_s"] = setup["setup.import_numpy_s"]
    m["setup.import_ngramcast_s"] = setup["setup.import_ngramcast_s"]
    m["trace.overhead_s"] = median([r.seconds for r in traced]) - median([r.seconds for r in untraced])

    op_time = sum(r.seconds for r in traced)
    fbm_time = sum(total(s, "matching.find_best_match") for s, _ in steps)
    matching_spans = sum(1 for i in tracer.name if tracer.names[i].startswith("matching."))
    notes = [f"matching.find_best_match spans cover {fbm_time / op_time:.3f} of traced op time",
             f"matching.* spans recorded: {matching_spans}; spans in all: {len(tracer.start)}"]
    return m, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ngramcast" / "__init__.py").is_file():
        print(f"error: no ngramcast sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(src))
    started = time.monotonic()
    deadline = started + WALL_LIMIT_S
    load_before = os.getloadavg()
    work_root = root / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        import ngramcast

        if not Path(ngramcast.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: imported ngramcast from {ngramcast.__file__}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](args.seed, workdir)
        probe = SetupProbe(src, workload.entry, workdir)
        if args.trace == 0:
            executor = Executor(src, workdir, subprocesses=not workload.in_process)
            records = measure(workload, executor, args.seconds, MIN_OPS, deadline, probe)
            if workload.in_process:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                rss_kb = max(r.rss_kb for r in records)
            metrics, notes = end_to_end(records, probe.metrics(), rss_kb)
        else:
            tracer = spans.Tracer()
            executor = Executor(src, workdir, subprocesses=False, tracer=tracer)
            records = measure(workload, executor, args.seconds, TRACE_MIN_OPS, deadline, probe)
            traced = [r for r in records if r.traced]
            untraced = [r for r in records if not r.traced]
            metrics, notes = per_layer(traced, untraced, tracer, probe.metrics())
            trace_path = work_root / f"spans-{args.workload}.npz"
            tracer.save(trace_path)
            notes.append(f"wrapped {len(tracer.wrappers)} public functions; spans written to "
                         f"{trace_path.relative_to(root)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")

    failed = [r for r in records if r.error is not None]
    lines = [
        f"workload {args.workload}: closed loop, 1 client, seed {args.seed}, "
        f"{len(records)} ops, {len(failed)} failed, error_rate {len(failed) / len(records)!r}",
        f"nproc {len(os.sched_getaffinity(0))}; load average before {load_before}, "
        f"after {os.getloadavg()}",
        f"python {platform.python_version()}, numpy {np.__version__}; shared machine, no tuning",
        f"run wall time {time.monotonic() - started:.1f} s",
    ]
    lines += [f"{k} = {v!r} {declared[k]['unit']} ({declared[k]['better']} is better)"
              for k, v in metrics.items()]
    lines += notes + [f"op {r.op.index} failed: {r.error}" for r in failed[:5]]
    for line in lines:
        print("# " + line)
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": declared[k]["unit"]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
