"""Repeat the benchmark over seeds and summarise its spread.

    python3 perfbench/repeat.py --runs 10 [--workloads a,b] [--first-seed 1]
                                [--traced 1] [--out perfbench/baseline.json]

For each workload, runs ``run.py`` once per seed with tracing off (seeds
interleaved across workloads) and reports, per end-to-end metric, the median,
the quartiles and the spread (q3 - q1) / median against the metric's bound
from BENCHMARK.json. ``--traced N`` adds N traced runs per workload and
reports the median of each per-layer metric. ``--out`` writes the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed checks:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples = {w: {} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            for name, value in one_run(w, seed, args.seconds, 0).items():
                samples[w].setdefault(name, []).append(value)
            print(f"seed {seed} {w}: done", flush=True)

    summary = {"environment": run.environment(), "run_seconds": args.seconds,
               "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
               "workloads": {}}
    for w in workloads:
        rows = {name: summarise(values) for name, values in samples[w].items()}
        summary["workloads"][w] = {"end_to_end": rows}
        print(f"\n{w}")
        for name, row in rows.items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:<18} median {row['median']:12.5g}  q1 {row['q1']:12.5g}  "
                  f"q3 {row['q3']:12.5g}  spread {row['spread']:.4f}  "
                  f"bound {bounds[name]}{flag}")
    for w in workloads:
        traced = {}
        for i in range(args.traced):
            for name, value in one_run(w, args.first_seed + i, args.seconds, 1).items():
                traced.setdefault(name, []).append(value)
        if traced:
            summary["workloads"][w]["per_layer_median"] = {
                name: statistics.median(values) for name, values in traced.items()}

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
