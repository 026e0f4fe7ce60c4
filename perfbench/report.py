"""Run the benchmark over all workloads and write the results down.

    python3 perfbench/report.py traced [--seed 0] [--out FILE]
        untraced and traced run of every workload: end-to-end metrics,
        per-layer busy and self time, call counts and counters, and the
        tracing overhead (traced minus untraced sweep_s)
    python3 perfbench/report.py spread --seeds 10 [--out FILE]
        untraced runs on seeds 1..10 of every workload: median, quartiles
        and quartile spread over median of each end-to-end metric, against
        the bounds in BENCHMARK.json
    python3 perfbench/report.py digests
        record the records.csv and summary.json digests of the exact
        workloads at the default seed into perfbench/digests.json

Run from the repository root.  --workloads limits any mode to a subset.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(run.WORK_DIR, exist_ok=True)
    details = os.path.join(run.WORK_DIR, f"details-{workload}-{seed}-{trace}.json")
    command = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--details", details]
    proc = subprocess.run(command, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}")
    with open(details, encoding="utf-8") as handle:
        record = json.load(handle)
    os.remove(details)
    return record


def span_table(record: dict) -> dict:
    """Per-span busy, self and calls, median over the run's sweeps."""
    per_sweep = record["spans"]
    names = sorted({name for spans in per_sweep for name in spans["busy"]})
    task_s = statistics.median(s["busy"].get("experiments.task", 0.0) for s in per_sweep)
    table = {}
    for name in names:
        busy = statistics.median(s["busy"].get(name, 0.0) for s in per_sweep)
        table[name] = {
            "busy_s": busy,
            "self_s": statistics.median(s["self"].get(name, 0.0) for s in per_sweep),
            "calls": statistics.median(s["calls"].get(name, 0) for s in per_sweep),
            "share_of_task_busy": busy / task_s if task_s else 0.0,
        }
    counters = {name: statistics.median(s["counters"].get(name, 0) for s in per_sweep)
                for name in sorted({n for s in per_sweep for n in s["counters"]})}
    return {"spans": table, "counters": counters}


def traced(workloads, seed: int, seconds: float) -> dict:
    out = {}
    for workload in workloads:
        plain = run_once(workload, seed, seconds, 0)
        withspans = run_once(workload, seed, seconds, 1)
        overhead = withspans["metrics"]["trace.sweep_s"] - plain["metrics"]["sweep_s"]
        out[workload] = {
            "end_to_end": plain["metrics"],
            "failed_frac": plain["failed"] / plain["attempted"],
            "attempted": plain["attempted"],
            "task_samples": plain["task_samples"],
            "task_tail_percentile": plain["tail_percentile"],
            "sweeps": plain["sweeps"],
            "per_layer": withspans["metrics"],
            "traced_failed_frac": withspans["failed"] / withspans["attempted"],
            "tracing_overhead_s": overhead,
            "tracing_overhead_frac": overhead / plain["metrics"]["sweep_s"],
            **span_table(withspans),
            "digests": plain["digests"],
            "environment": plain["environment"],
        }
        print(f"\n== {workload} (seed {seed}, {plain['sweeps']} sweeps) ==")
        for name, value in plain["metrics"].items():
            print(f"  {name:14s} {value:10.4f} {plain['units'][name]}")
        print(f"  failed_frac    {out[workload]['failed_frac']:10.4f}"
              f"   ({plain['failed']} of {plain['attempted']})")
        print(f"  task_tail_s is p{plain['tail_percentile']:.1f} of {plain['task_samples']}"
              f" samples; tracing overhead {overhead:+.3f} s")
        print(f"  {'span':36s} {'busy_s':>9s} {'self_s':>9s} {'calls':>7s} {'share':>7s}")
        for name, row in out[workload]["spans"].items():
            print(f"  {name:36s} {row['busy_s']:9.3f} {row['self_s']:9.3f}"
                  f" {row['calls']:7.0f} {row['share_of_task_busy']:7.1%}")
        for name, value in out[workload]["counters"].items():
            print(f"  counter {name:28s} {value:.0f}")
    return out


def spread(workloads, seeds: int, seconds: float) -> dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    out = {}
    for workload in workloads:
        records = [run_once(workload, seed, seconds, 0) for seed in range(1, seeds + 1)]
        out[workload] = {"failed": sum(r["failed"] for r in records),
                         "attempted": sum(r["attempted"] for r in records)}
        print(f"\n== {workload}: {seeds} seeds, {out[workload]['failed']} of"
              f" {out[workload]['attempted']} failed ==")
        for name in records[0]["metrics"]:
            values = [r["metrics"][name] for r in records]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            out[workload][name] = {"values": values, "median": median, "q1": q1, "q3": q3,
                                   "spread": share, "bound": bounds.get(name)}
            print(f"  {name:14s} median {median:10.4f}  spread {share:6.3f}"
                  f"  bound {bounds.get(name)}")
    return out


def digests(workloads, seconds: float) -> dict:
    recorded = {}
    for workload in workloads:
        if run.WORKLOADS[workload]["exact"]:
            record = run_once(workload, 0, seconds, 0)
            if record["failed"]:
                raise SystemExit(f"{workload}: checks failed, not recording digests")
            recorded[workload] = {f"0/{index}": value
                                  for index, value in enumerate(record["digests"])}
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return recorded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("mode", choices=("traced", "spread", "digests"))
    parser.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS),
                        choices=list(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="write the results to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(BENCHMARK, encoding="utf-8") as handle:
            args.seconds = json.load(handle)["run_seconds"]
    if args.mode == "traced":
        result = traced(args.workloads, args.seed, args.seconds)
    elif args.mode == "spread":
        result = spread(args.workloads, args.seeds, args.seconds)
    else:
        result = digests(args.workloads, args.seconds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
