"""Seeded experiment sweeps and their CSV/JSON/SVG artifacts.

Every experiment runs the plan that ``config.plan`` made of its config:
the checked config with the domain, density, kernel, eps rule, function,
surface tension and nonlocal rules already built.  Each sweep task is a
top-level function of the plan, of constants computed once per run and of
one sweep item, so it pickles; the runner maps it over the worker pool and
reduces the rows to a summary.  The matching and bisection tasks hold
the interpreter lock, so their workers are forked processes; the other
tasks run in compiled code that releases it, on threads.  The output
goes into one directory: ``records.csv`` with one self-describing row
per run (a row's keys, in order, are its CSV columns), ``summary.json``
with the resolved config, package version, and aggregate statistics,
and (where a picture makes sense) small SVG figures.  Reruns with the
same config produce byte-identical CSV, and a run that fails leaves none
of these files.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from functools import partial

import numpy as np

from . import __version__, svgplot
from .bisection import sweep_reference, sweep_run
from .config import Plan, build, plan
from .continuum import nonlocal_tv, weighted_perimeter, weighted_tv_smooth
from .errors import ConfigError
from .geometry import grid_points, sample_iid
from .graph import cloud_total_variation, connected_at, connection_distance, connectivity_scale
from .kernels import KERNELS
from .transport import bottleneck_distance, scaling_ratio, tlp_distance

# ---------------------------------------------------------------------------
# sweep plumbing


def worker_count() -> int:
    """Worker pool size: PCTV_THREADS when it is set, else the CPU count up to 4."""
    env = os.environ.get("PCTV_THREADS", "").strip()
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0  # rejected below, with the same message
        if workers < 1:
            raise ConfigError(
                f"PCTV_THREADS: expected a positive integer, got {env!r}")
        return workers
    return max(1, min(4, os.cpu_count() or 1))


def _parallel_map(fn, items):
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


_pool = None  # the process pool of the running _forked_map


def _in_worker(task, item):
    return _pool.apply(task, (item,))


def _forked_map(task, items):
    """_parallel_map of task, with each call run in a forked worker process.

    For tasks that hold the interpreter lock.  The thread pool of
    _parallel_map still makes every call, so whatever wraps the callable
    it receives sees each call and result in this process; each thread
    hands its task and item, pickled, to a worker and waits.  The workers
    are forked before any thread of the map exists, so the caller must
    run no other threads, and one map at a time.  They ignore SIGINT, so
    an interrupt stops the map as it stops _parallel_map: the tasks
    running finish.  With one worker the tasks run here.
    """
    global _pool
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return _parallel_map(task, items)
    import multiprocessing  # a slow import, needed only here
    import signal

    _pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        return _parallel_map(partial(_in_worker, task), items)
    finally:
        _pool.close()
        _pool.join()
        _pool = None


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_records_csv(path: str, rows) -> None:
    """The first row's keys as the header, then one line per row.

    Every row must carry the header's keys; lines end in CRLF (RFC 4180).
    """
    header = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row[key]) for key in header])


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


# perfbench/worker.py rebuilds a bisection task's cloud and graph with these
def _setup(cfg: dict):
    planned = plan("bisect", cfg)
    return planned.domain, planned.density, planned.label


def kernel_from_config(spec: dict):
    return build(KERNELS, "name", spec)


def _sweep(cfg: dict):
    """The (n, seed) items of the schedule, n-major."""
    return [(n, s) for n in cfg["n"] for s in cfg["seeds"]]


def _per_n(rows, *keys, extra=None):
    """One summary entry per n, in first-seen order.

    An entry holds n, the first eps of its rows when they carry one,
    ``median_<key>`` for each key, and whatever ``extra(group)`` adds.
    """
    groups = {}
    for row in rows:
        groups.setdefault(row["n"], []).append(row)
    per_n = []
    for n, group in groups.items():
        entry = {"n": n}
        if "eps" in group[0]:
            entry["eps"] = group[0]["eps"]
        for key in keys:
            entry[f"median_{key}"] = float(np.median([row[key] for row in group]))
        if extra is not None:
            entry.update(extra(group))
        per_n.append(entry)
    return per_n


# ---------------------------------------------------------------------------
# experiment runners: each takes the plan of a validated config, maps its
# task over the pool, and returns (rows, summary); a row's keys, in order,
# are its CSV columns


def _below(axis: int, threshold: float, points):
    """The indicator of {x_axis < threshold} at the points."""
    return (points[:, axis] < threshold).astype(float)


def _graph_tv_task(plan: Plan, u, constants: dict, reference: float, item):
    n, seed = item
    eps = float(plan.eps(n))
    cloud = sample_iid(plan.domain, plan.density, n, seed=seed)
    value, edges = cloud_total_variation(cloud, plan.profile, eps, u(cloud.points))
    row = {
        "n": n,
        "eps": eps,
        "seed": seed,
        "kernel": plan.profile.name,
        "domain": plan.label,
        **constants,
        "gtv": value,
        "reference": reference,
        "rel_error": abs(value - reference) / (abs(reference) if reference else 1.0),
    }
    return row, edges == 0


def _run_graph_tv(plan: Plan, fig_dir: str):
    """Graph TV of u on sampled clouds against sigma times its continuum limit.

    With a ``set``, u is the indicator of {x_axis < threshold} and the
    limit its weighted perimeter; otherwise u is the config's function and
    the limit its weighted TV.
    """
    cfg, domain, density = plan.config, plan.domain, plan.density
    if "set" in cfg:
        axis, threshold = cfg["set"]["axis"], float(cfg["set"]["threshold"])
        u = partial(_below, axis, threshold)
        limit = weighted_perimeter(density, domain, axis, threshold)
        title, constants, extra = "graph perimeter", {"axis": axis, "threshold": threshold}, {}
    else:
        u = plan.function
        limit = weighted_tv_smooth(u, density, domain)
        title, constants, extra = "graph TV", {}, {"weighted_tv": limit}
    reference = plan.sigma * limit
    results = _parallel_map(partial(_graph_tv_task, plan, u, constants, reference), _sweep(cfg))
    rows = [row for row, _ in results]
    edgeless = {}
    for row, empty in results:
        edgeless.setdefault((row["n"], row["eps"]), []).append(empty)
    for (n, eps), flags in edgeless.items():
        if any(flags):
            print(f"warning: n={n}: {sum(flags)} of {len(flags)} graphs "
                  f"have no edges at eps={eps:.6g}", file=sys.stderr)
    per_n = _per_n(rows, "rel_error")
    medians = [entry["median_rel_error"] for entry in per_n]
    summary = {
        "reference": reference,
        "surface_tension": plan.sigma,
        "per_n": per_n,
        "median_rel_error_decreasing": _strictly_decreasing(medians),
        "final_median_rel_error": medians[-1],
        **extra,
    }
    svgplot.line_figure(os.path.join(fig_dir, "convergence.svg"),
                        [entry["n"] for entry in per_n], medians, "median",
                        f"{title} vs continuum limit", "n", "median relative error")
    return rows, summary


def _nonlocal_task(plan: Plan, reference: float, item):
    eps, rule = item
    value = nonlocal_tv(rule, plan.density)
    return {
        "eps": eps,
        "kernel": plan.profile.name,
        "domain": plan.label,
        "value": value,
        "reference": reference,
        "rel_error": abs(value - reference) / (abs(reference) if reference else 1.0),
    }


def _run_nonlocal(plan: Plan, fig_dir: str):
    reference = plan.sigma * weighted_tv_smooth(plan.function, plan.density, plan.domain)
    rows = _parallel_map(partial(_nonlocal_task, plan, reference),
                         zip([float(e) for e in plan.config["eps"]], plan.rules))
    errors = [row["rel_error"] for row in rows]
    summary = {
        "reference": reference,
        "monotone_approach": _strictly_decreasing(errors),
        "final_rel_error": errors[-1],
    }
    svgplot.line_figure(os.path.join(fig_dir, "convergence.svg"), [row["eps"] for row in rows],
                        errors, "relative error", "nonlocal TV vs weighted TV limit",
                        "eps", "relative error")
    return rows, summary


def _tl_distance_task(plan: Plan, ref_points, ref_values, item):
    n, seed = item
    p = float(plan.config["p"])
    cloud = sample_iid(plan.domain, plan.density, n, seed=seed)
    distance = tlp_distance(cloud.points, plan.function(cloud.points), ref_points, ref_values,
                            p=p)
    return {
        "n": n,
        "seed": seed,
        "p": p,
        "grid": plan.config["grid"],
        "domain": plan.label,
        "distance": distance,
    }


def _run_tl_distance(plan: Plan, fig_dir: str):
    cfg = plan.config
    ref_points = grid_points(cfg["grid"], plan.domain.dimension)
    rows = _parallel_map(partial(_tl_distance_task, plan, ref_points, plan.function(ref_points)),
                         _sweep(cfg))
    per_n = _per_n(rows, "distance")
    medians = [entry["median_distance"] for entry in per_n]
    summary = {
        "grid": cfg["grid"],
        "p": float(cfg["p"]),
        "per_n": per_n,
        "median_distance_decreasing": _strictly_decreasing(medians),
    }
    svgplot.line_figure(os.path.join(fig_dir, "distance.svg"), [entry["n"] for entry in per_n],
                        medians, "median", "TL distance to the grid discretization",
                        "n", "median distance")
    return rows, summary


def _matching_task(plan: Plan, grids: dict, item):
    n, seed = item
    d = plan.config["dimension"]
    cloud = sample_iid(plan.domain, plan.density, n, seed=seed)
    distance, _ = bottleneck_distance(cloud.points, grids[n])
    return {
        "n": n,
        "d": d,
        "seed": seed,
        "dist": distance,
        "ratio": scaling_ratio(n, d, distance),
    }


def _run_matching(plan: Plan, fig_dir: str):
    cfg = plan.config
    d = cfg["dimension"]
    grids = {n: grid_points(round(n ** (1.0 / d)), d) for n in cfg["n"]}
    rows = _forked_map(partial(_matching_task, plan, grids), _sweep(cfg))
    if len({row["n"] for row in rows}) >= 2:
        from scipy.stats import kendalltau  # a slow import, needed only here

        tau, pvalue = kendalltau([r["n"] for r in rows], [r["ratio"] for r in rows])
        tau = float(tau)
        pvalue = float(pvalue)
        one_sided = pvalue / 2.0 if tau > 0 else 1.0 - pvalue / 2.0
        increasing = bool(tau > 0 and one_sided < 0.05)
    else:
        tau = pvalue = one_sided = None
        increasing = False
    per_n = _per_n(rows, "ratio")
    summary = {
        "dimension": d,
        "per_n": per_n,
        "kendall_tau": tau,
        "pvalue_two_sided": pvalue,
        "pvalue_increasing": one_sided,
        "increasing_trend_significant": increasing,
    }
    svgplot.line_figure(os.path.join(fig_dir, "ratios.svg"), [entry["n"] for entry in per_n],
                        [entry["median_ratio"] for entry in per_n], "median",
                        "bottleneck distance over the matching rate", "n", "median ratio")
    return rows, summary


def _connectivity_task(plan: Plan, scale: float, seed):
    """Whether the cloud of this seed is connected at each factor times scale."""
    d = plan.domain.dimension
    distance = connection_distance(
        sample_iid(plan.domain, plan.density, plan.config["n"], seed=seed).points)
    return [connected_at(plan.profile, float(factor) * scale, distance, d)
            for factor in plan.config["factors"]]


def _run_connectivity(plan: Plan, fig_dir: str):
    cfg = plan.config
    n = cfg["n"]
    factors = [float(f) for f in cfg["factors"]]
    scale = connectivity_scale(n, plan.domain.dimension)
    per_seed = _parallel_map(partial(_connectivity_task, plan, scale), list(cfg["seeds"]))
    rows = [
        {
            "n": n,
            "factor": factor,
            "eps": factor * scale,
            "seed": seed,
            "kernel": plan.profile.name,
            "domain": plan.label,
            "connected": flags[fi],
        }
        for fi, factor in enumerate(factors)
        for seed, flags in zip(cfg["seeds"], per_seed)
    ]
    fractions = [float(np.mean([flags[fi] for flags in per_seed])) for fi in range(len(factors))]
    summary = {
        "n": n,
        "connectivity_scale": scale,
        "factors": factors,
        "connected_fraction": fractions,
        "fraction_non_decreasing": all(b >= a for a, b in zip(fractions, fractions[1:])),
    }
    svgplot.line_figure(os.path.join(fig_dir, "transition.svg"), factors, fractions,
                        "connected fraction", "connectivity transition",
                        "eps over (log n / n)^(1/d)", "connected fraction", log=False)
    return rows, summary


def _bisect_task(plan: Plan, reference, item):
    n, seed = item
    return sweep_run(plan.domain, plan.density, plan.profile, n, float(plan.eps(n)), seed,
                     reference, restarts=plan.config["restarts"])


def _run_bisect(plan: Plan, fig_dir: str):
    cfg, domain, density = plan.config, plan.domain, plan.density
    reference = sweep_reference(domain, density, cfg["reference_size"])
    rows = []
    for run in _forked_map(partial(_bisect_task, plan, reference), _sweep(cfg)):
        rec = run.record
        rows.append({"n": rec.n, "eps": rec.eps, "seed": rec.seed,
                     "kernel": plan.profile.name, "domain": plan.label, **asdict(rec)})
        if domain.dimension == 2:
            svgplot.scatter_figure(
                os.path.join(fig_dir, f"partition-n{rec.n}-seed{rec.seed}.svg"),
                run.points,
                run.labels,
                title=f"n={rec.n} eps={rec.eps:.4g} seed={rec.seed}",
            )
    per_n = _per_n(
        rows, "energy", "agreement", "tl1_distance",
        extra=lambda group: {
            "connected_fraction": float(np.mean([r["connected"] for r in group])),
            "zero_energy_fraction": float(np.mean([r["energy"] == 0.0 for r in group])),
        },
    )
    return rows, {"per_n": per_n}


RUNNERS = {
    "gtv-convergence": _run_graph_tv,
    "perimeter-convergence": _run_graph_tv,
    "nonlocal-convergence": _run_nonlocal,
    "tl-distance": _run_tl_distance,
    "matching-scaling": _run_matching,
    "connectivity": _run_connectivity,
    "bisect": _run_bisect,
}


def run_experiment(name: str, config: dict, out_dir: str) -> dict:
    """Validate, run, and write one experiment's artifacts.

    Returns the summary payload that was written to ``summary.json``.
    """
    planned = plan(name, config)
    worker_count()  # a malformed PCTV_THREADS fails here, before any work
    os.makedirs(out_dir, exist_ok=True)
    # Figures and tables are written into a hidden staging directory and
    # moved into out_dir only once all are complete, summary.json last, so
    # a run that fails leaves nothing and one killed midway no summary.json.
    staging = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    try:
        rows, summary = RUNNERS[name](planned, staging)
        payload = {
            "experiment": name,
            "version": __version__,
            "config": planned.config,
            "summary": summary,
        }
        write_records_csv(os.path.join(staging, "records.csv"), rows)
        with open(os.path.join(staging, "summary.json"), "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        tables = ["records.csv", "summary.json"]
        figures = sorted(set(os.listdir(staging)) - set(tables))
        for artifact in figures + tables:
            os.replace(os.path.join(staging, artifact), os.path.join(out_dir, artifact))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return payload
