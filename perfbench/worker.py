"""One experiment sweep in a fresh process; run.py starts one per sweep.

    python3 perfbench/worker.py EXPERIMENT CONFIG OUT_DIR RESULT TRACE

with the repository's src/ on PYTHONPATH.  The worker imports pctv,
loads and validates CONFIG, and notes the monotonic clock: that instant
ends the set-up that run.py measures from before it started the
process.  It then times ``run_experiment`` on the validated config,
timing each task that the experiments layer hands to its pool, and
writes its measurements to RESULT as JSON.  With TRACE=1 it also
records per-layer spans (see spans.py).  After the sweep, untimed, it
recomputes each bisection task's energy and neck agreement from the
labels it returned, for run.py to compare with records.csv.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def check_bisection(cfg, run):
    """What a bisection task should have reported, recomputed from its labels."""
    import numpy
    from pctv import experiments
    from pctv.bisection import agreement, bisection_energy, reference_partitions
    from pctv.geometry import sample_iid
    from pctv.graph import build_graph

    record, labels = run.record, run.labels
    domain, density, _ = experiments._setup(cfg)
    cloud = sample_iid(domain, density, record.n, seed=record.seed)
    graph = build_graph(cloud, experiments.kernel_from_config(cfg["kernel"]), record.eps)
    return {
        "seed": record.seed,
        "balanced": bool(2 * int(labels.sum()) == labels.size),
        "same_points": bool(numpy.array_equal(cloud.points, run.points)),
        "energy": bisection_energy(graph, labels),
        "agreement": max(agreement(labels, part)
                         for part in reference_partitions(domain, cloud.points)),
    }


def main(argv):
    experiment, config_path, out_dir, result_path, trace = argv
    start = time.perf_counter()
    import pctv  # noqa: F401  (the package import is part of set-up)
    from pctv import config, experiments

    import_s = time.perf_counter() - start
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    resolved = config.validate_config(experiment, config.load_config(config_path))
    ready = time.monotonic()

    latencies = []
    task_errors = []
    bisections = []
    pool_map = experiments._parallel_map

    def timed_map(fn, items):
        def task(item):
            begin = time.perf_counter()
            try:
                if tracer is None:
                    result = fn(item)
                else:
                    result = tracer.span("experiments.task", fn, item)
            except Exception:
                task_errors.append(item)
                raise
            finally:
                latencies.append(time.perf_counter() - begin)
            if getattr(result, "labels", None) is not None:  # a bisection run
                bisections.append(result)
            return result

        if tracer is None:
            return pool_map(task, items)
        return tracer.span("experiments.pool", pool_map, task, items)

    experiments._parallel_map = timed_map
    error = None
    begin = time.perf_counter()
    try:
        if tracer is None:
            experiments.run_experiment(experiment, resolved, out_dir)
        else:
            tracer.span("experiments.run_experiment",
                        experiments.run_experiment, experiment, resolved, out_dir)
    except Exception as exc:  # reported to run.py, which counts it as failed
        error = f"{type(exc).__name__}: {exc}"
    sweep_s = time.perf_counter() - begin

    result = {
        "ready": ready,
        "import_s": import_s,
        "sweep_s": sweep_s,
        "latencies": latencies,
        "task_errors": len(task_errors),
        "error": error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workers": experiments.worker_count(),
        "versions": versions(),
        "spans": tracer.snapshot() if tracer is not None else None,
    }
    # Recomputed after the measurements are taken, so it costs none of them.
    result["bisections"] = [check_bisection(resolved, run) for run in bisections]
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if error is None else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
