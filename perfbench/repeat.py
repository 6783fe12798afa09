"""Run the benchmark once per seed and summarise each metric's median and quartiles.

Run from the root of a checkout:

    python3 perfbench/repeat.py --workloads cli-paper,io-long --seeds 1-10 --out summary.json

Seeds run in the outer loop and workloads in the inner one, so drift in the
host's speed falls on every workload alike. For each metric the spread is
(q3 - q1) / median over the seeds, with quartiles from
statistics.quantiles(values, n=4); it is compared with the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="a seed or an inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in seed_list(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["notes"] = [line[2:] for line in lines[:-1]]
            result["wall_s"] = float(result["notes"][3].split()[3])
            runs[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"wall {result['wall_s']} s", flush=True)

    summary = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for w, results in runs.items():
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = summarise(values) | {"unit": results[0]["metrics"][name]["unit"]}
        summary["workloads"][w] = {
            "seeds": [r["seed"] for r in results],
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "environment": [r["notes"][1:3] for r in results],
            "run_wall_s": [r["wall_s"] for r in results],
            "metrics": metrics,
        }
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None:
                flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{w:12s} {name:48s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {spread} {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
