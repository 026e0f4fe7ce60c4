"""pctv benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload graph-tv --seed 0 --seconds 25 --trace 0

Run it from the repository root; it needs nothing but the sources under
src/.  The workload seed generates the experiment config; the program
receives only that config.  Each sweep runs in a fresh process (see
worker.py) with a pool of at most two threads and single-threaded BLAS.
A run makes a fixed number of sweeps for a given --seconds, so the work
per run stays the same when the program gets faster.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  README.md
says why each workload exists and which metrics it should move.
"""

from __future__ import annotations

import argparse
import copy
import csv
import glob
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
SEEN = os.path.join(WORK_DIR, "seen-digests.json")
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_SWEEPS = 3
POOL = 2
AGREEMENT_MIN = 0.90  # acceptance criterion 09's neck-cut agreement
CUT_RTOL = 1e-9  # reported against recomputed cut energy

_UNIT_BOX = {"shape": "unit-box", "dimension": 2}
_INDICATOR = {"name": "indicator"}
_UNIFORM = {"name": "uniform"}

# process_s is set-up plus sweep time of one worker process at the commit
# that introduced the benchmark, measured on a 2-core Xeon with a pool of 2.
WORKLOADS = {
    "graph-tv": {
        "experiment": "gtv-convergence",
        "tasks": 4,
        "process_s": 9.2,
        "exact": True,
        "config": {
            "domain": _UNIT_BOX,
            "density": _UNIFORM,
            "kernel": _INDICATOR,
            "function": {"coeffs": [1.0, 0.0]},
            "eps_rule": {"kind": "borderline", "c": 2.0},
            "n": [32000],
        },
    },
    "connectivity": {
        "experiment": "connectivity",
        "tasks": 8,
        "process_s": 6.4,
        "exact": True,
        "config": {
            "domain": _UNIT_BOX,
            "density": _UNIFORM,
            "kernel": _INDICATOR,
            "n": 10000,
            "factors": [0.3, 0.6, 1.0, 1.5, 3.0],
        },
    },
    "matching": {
        "experiment": "matching-scaling",
        "tasks": 6,
        "process_s": 8.3,
        "exact": True,
        "config": {"dimension": 2, "n": [4096]},
    },
    "bisect": {
        "experiment": "bisect",
        "tasks": 8,
        "process_s": 14.2,
        "exact": False,
        "config": {
            "domain": {"shape": "dumbbell"},
            "density": _UNIFORM,
            "kernel": _INDICATOR,
            "eps_rule": {"kind": "fixed", "value": 0.18},
            "n": [500],
            "restarts": 32,
            "reference_size": 500,
        },
    },
}

END_TO_END = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Spans whose busy time is reported as <span>.busy_s.
BUSY = [
    "config.validate_config",
    "geometry.sample_iid",
    "kernels.surface_tension",
    "continuum.weighted_tv_smooth",
    "graph.build_graph",
    "graph.graph_total_variation",
    "graph.component_labels",
    "graph.is_connected",
    "transport.bottleneck_distance",
    "transport.maximum_flow",
    "transport.tlp_distance",
    "transport.linear_sum_assignment",
    "bisection.local_search_bisection",
    "bisection.sweep_run",
    "experiments.task",
]
CALLS = [
    "graph.build_graph",
    "graph.component_labels",
    "transport.maximum_flow",
    "transport.linear_sum_assignment",
    "transport.linprog",
    "bisection.local_search_bisection",
]
WRITERS = ["experiments.write_records_csv", "svgplot.line_figure", "svgplot.scatter_figure"]


def make_config(workload: str, seed: int, sweep: int) -> dict:
    """The config of one sweep; each sweep of a run draws its own clouds."""
    spec = WORKLOADS[workload]
    config = copy.deepcopy(spec["config"])
    config["seeds"] = random.Random(f"{seed}/{sweep}").sample(range(1_000_000), spec["tasks"])
    return config


def sweep_count(workload: str, seconds: float) -> int:
    return max(MIN_SWEEPS, round(seconds / WORKLOADS[workload]["process_s"]))


def expected_rows(workload: str) -> int:
    spec = WORKLOADS[workload]
    return spec["tasks"] * len(spec["config"].get("factors", [None]))


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code without git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "pctv", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        caches[f"L{level} {kind}"] = _read(os.path.join(index, "size"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
    }


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PCTV_THREADS"] = str(threads)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_sweep(workload: str, config_path: str, out_dir: str, trace: int,
              env: dict, timeout: float):
    """One worker process; returns its result dict, or None if it produced none."""
    result_path = out_dir + ".json"
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               WORKLOADS[workload]["experiment"], config_path, out_dir, result_path,
               str(trace)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"sweep timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if not os.path.isfile(result_path):
        print(f"worker exited {proc.returncode} without a result:\n{proc.stderr}",
              file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["ready"] - spawned
    if result["error"]:
        print(f"sweep failed: {result['error']}", file=sys.stderr)
    return result


def load_digests(path: str, workload: str) -> dict:
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def save_seen(workload: str, seen: dict) -> None:
    everything = {}
    if os.path.isfile(SEEN):
        with open(SEEN, encoding="utf-8") as handle:
            everything = json.load(handle)
    everything[workload] = seen
    with open(SEEN + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(everything, handle, indent=1, sort_keys=True)
    os.replace(SEEN + ".tmp", SEEN)


def check_outputs(workload: str, out_dir: str, result: dict,
                  recorded: dict | None, seen: dict | None):
    """Check one sweep's artifacts.

    Returns the number of checks made, the names of those that failed,
    and the digests of records.csv and summary.json.
    """
    records = os.path.join(out_dir, "records.csv")
    summary = os.path.join(out_dir, "summary.json")
    if result["error"] or not (os.path.isfile(records) and os.path.isfile(summary)):
        return 1, ["completed"], None
    digests = {"records.csv": sha256(records), "summary.json": sha256(summary)}
    with open(records, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    checks = {"row-count": len(rows) == expected_rows(workload)}
    if WORKLOADS[workload]["exact"]:
        if recorded is not None:
            checks["recorded-digests"] = digests == recorded
        if seen is not None:
            checks["same-bytes-as-earlier-run"] = digests == seen
    else:
        checks.update(bisection_checks(rows, summary, result["bisections"]))
    return len(checks), [name for name, ok in checks.items() if not ok], digests


def bisection_checks(rows: list, summary: str, recomputed: list) -> dict:
    """The checks of one bisect sweep; README.md says why these."""
    by_seed = {entry["seed"]: entry for entry in recomputed}
    checks = {}
    for row in rows:
        again = by_seed.get(int(row["seed"]))
        energy = float(row["energy"])
        tag = f"seed{row['seed']}"
        checks[f"energy-nonnegative-{tag}"] = energy >= 0.0
        if again is None:  # no task returned this row's cloud
            checks[f"task-returned-{tag}"] = False
            continue
        checks[f"balanced-{tag}"] = again["balanced"]
        checks[f"same-cloud-{tag}"] = again["same_points"]
        checks[f"energy-is-cut-{tag}"] = math.isclose(
            energy, again["energy"], rel_tol=CUT_RTOL, abs_tol=CUT_RTOL)
        checks[f"agreement-is-neck-{tag}"] = float(row["agreement"]) == again["agreement"]
    with open(summary, encoding="utf-8") as handle:
        per_n = json.load(handle)["summary"]["per_n"]
    for group in per_n:
        checks[f"median-agreement-n{group['n']}"] = group["median_agreement"] >= AGREEMENT_MIN
    return checks


def tail(samples: list) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    With fewer than 20 samples that percentile lies below the median,
    which is no tail, so the median is reported instead (as p50).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(result: dict) -> dict:
    spans = result["spans"]
    busy, own, calls, counters = (spans[k] for k in ("busy", "self", "calls", "counters"))
    metrics = {"setup.import_s": result["import_s"], "trace.sweep_s": result["sweep_s"]}
    for name in BUSY:
        metrics[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name in CALLS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    build_s = busy.get("graph.build_graph", 0.0)
    edges = counters.get("graph.edges", 0)
    metrics["graph.edges"] = edges
    metrics["graph.edges_per_s"] = edges / build_s if build_s else 0.0
    metrics["geometry.points"] = counters.get("geometry.points", 0)
    metrics["transport.bottleneck_distance.self_s"] = own.get("transport.bottleneck_distance", 0.0)
    flows = calls.get("transport.maximum_flow", 0)
    feasible = counters.get("transport.maximum_flow.feasible", 0)
    metrics["transport.maximum_flow.feasible_frac"] = feasible / flows if flows else 0.0
    instances = calls.get("transport.bottleneck_distance", 0)
    metrics["transport.flow_solves_per_instance"] = flows / instances if instances else 0.0
    # The summary.json write is the self time of run_experiment.
    metrics["experiments.write.busy_s"] = (
        sum(busy.get(name, 0.0) for name in WRITERS)
        + own.get("experiments.run_experiment", 0.0))
    task_s = busy.get("experiments.task", 0.0)
    workers = min(result["workers"], len(result["latencies"])) or 1
    metrics["experiments.pool.busy_frac"] = task_s / (result["sweep_s"] * workers)
    metrics["trace.unattributed_frac"] = own.get("experiments.task", 0.0) / task_s if task_s else 0.0
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("frac"):
        return "frac"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload and return metrics, counts, environment and details."""
    started = time.monotonic()
    threads = max(1, min(POOL, len(os.sched_getaffinity(0))))
    env = worker_env(threads)
    # Exact workloads must repeat their bytes: against the digests recorded
    # in digests.json, and against earlier runs of the same seed in this
    # checkout (.perfbench/seen-digests.json).
    recorded = load_digests(DIGESTS, workload)
    seen = load_digests(SEEN, workload)
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    results, failures, digests = [], [], []
    attempted = failed = 0
    try:
        for index in range(sweep_count(workload, seconds)):
            key = f"{seed}/{index}"
            config_path = os.path.join(scratch, f"config{index}.json")
            with open(config_path, "w", encoding="utf-8") as handle:
                json.dump(make_config(workload, seed, index), handle)
            out_dir = os.path.join(scratch, f"sweep{index}")
            remaining = DEADLINE_S - (time.monotonic() - started)
            result = run_sweep(workload, config_path, out_dir, trace, env, remaining) \
                if remaining > 1.0 else None
            attempted += WORKLOADS[workload]["tasks"]
            if result is None:
                failed += WORKLOADS[workload]["tasks"]
                failures.append(f"sweep{index}: no result")
                break
            failed += result["task_errors"]
            results.append(result)
            checks, bad, sweep_digests = check_outputs(
                workload, out_dir, result, recorded.get(key), seen.get(key))
            attempted += checks
            failed += len(bad)
            failures += [f"sweep{index}: {name}" for name in bad]
            digests.append(sweep_digests)
            if WORKLOADS[workload]["exact"] and sweep_digests and key not in seen:
                seen[key] = sweep_digests
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if WORKLOADS[workload]["exact"]:
        save_seen(workload, seen)
    if not results:
        raise RuntimeError("no sweep finished its set-up; is src/pctv present and importable?")

    latencies = [x for r in results for x in r["latencies"]]
    if not latencies:
        raise RuntimeError("no task finished")
    tail_value, tail_pct = tail(latencies)
    # Local search is a heuristic: a few clouds miss the neck cut.  They are
    # counted here; the check is on each sweep's median agreement.
    clouds = [entry["agreement"] for r in results for entry in r["bisections"]]
    if trace:
        per_process = [layer_metrics(r) for r in results if r["spans"]]
        metrics = {name: statistics.median(m[name] for m in per_process)
                   for name in per_process[0]}
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "sweep_s": statistics.median(r["sweep_s"] for r in results),
            "task_p50_s": statistics.median(latencies),
            "task_tail_s": tail_value,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        units = dict(END_TO_END)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "sweeps": len(results),
        "tasks_per_sweep": WORKLOADS[workload]["tasks"],
        "task_samples": len(latencies),
        "tail_percentile": tail_pct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "neck_misses": sum(a < AGREEMENT_MIN for a in clouds),
        "bisections": len(clouds),
        "metrics": metrics,
        "units": units,
        "digests": digests,
        "environment": {
            **machine(),
            **results[0]["versions"],
            "threads": {k: env[k] for k in ("PCTV_THREADS", "OPENBLAS_NUM_THREADS",
                                            "OMP_NUM_THREADS")},
            "pool_workers": results[0]["workers"],
            "workload_seed": seed,
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
        },
        "spans": [r["spans"] for r in results] if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", help="also write the full record to this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "pctv", "experiments.py")):
        print("error: src/pctv is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['sweeps']} sweeps x {record['tasks_per_sweep']} tasks")
    for name, value in record["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {record['units'][name]}")
    if not record["trace"]:
        print(f"  task_tail_s is p{record['tail_percentile']:.1f} of "
              f"{record['task_samples']} task samples")
    print(f"  failed_frac {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} tasks and output checks)")
    if record["bisections"]:
        print(f"  {record['neck_misses']} of {record['bisections']} clouds below "
              f"{AGREEMENT_MIN} neck agreement (checked as each sweep's median)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(record["environment"], sort_keys=True))
    if args.details:
        with open(args.details, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
