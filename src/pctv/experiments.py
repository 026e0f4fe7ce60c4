"""Seeded experiment sweeps and their CSV/JSON/SVG artifacts.

Every experiment takes a validated config, runs a deterministic sweep,
and writes its output into one directory: ``records.csv`` with one
self-describing row per run, ``summary.json`` with the resolved config,
package version, and aggregate statistics, and (where a picture makes
sense) small SVG figures.  Reruns with the same config produce
byte-identical CSV.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.stats import kendalltau

from . import svgplot
from .bisection import sweep_reference, sweep_run
from .config import validate_config
from .continuum import (
    affine_function,
    halfplane_set,
    nonlocal_tv,
    weighted_perimeter,
    weighted_tv_smooth,
)
from .errors import ConfigError, UnsupportedConfigurationError
from .geometry import (
    Box,
    density_from_config,
    domain_from_config,
    grid_points,
    sample_iid,
    unit_box,
    uniform_density,
)
from .graph import build_graph, graph_total_variation, is_connected
from .kernels import from_config as kernel_from_config
from .kernels import surface_tension
from .transport import (
    DiscreteMeasure,
    LiftedFunction,
    bottleneck_distance,
    scaling_ratio,
    tlp_distance,
)

VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# length-scale rules


def critical_rate(n: int, d: int) -> float:
    """Largest graph scale rate with a consistency guarantee.

    In the plane the rate is (log n)^(3/4)/sqrt(n); in dimension three
    and up it matches the connectivity rate (log n/n)^(1/d).
    """
    if d == 2:
        return math.log(n) ** 0.75 / math.sqrt(n)
    return (math.log(n) / n) ** (1.0 / d)


def connectivity_scale(n: int, d: int) -> float:
    """The (log n / n)^(1/d) scale where random geometric graphs connect."""
    return (math.log(n) / n) ** (1.0 / d)


def eps_rule(spec: dict, d: int):
    """Turn a named rule config into a callable eps(n).

    Kinds: ``admissible`` is c * rate^gamma with gamma < 1, which decays
    slower than the critical rate; ``borderline`` is c * rate exactly;
    ``sub-connectivity`` is factor * (log n/n)^(1/d), below the
    connectivity scale when factor < 1; ``fixed`` ignores n.
    """
    kind = spec["kind"]
    if kind == "admissible":
        c = float(spec.get("c", 1.0))
        gamma = float(spec.get("gamma", 0.9))
        return lambda n: c * critical_rate(n, d) ** gamma
    if kind == "borderline":
        c = float(spec.get("c", 1.0))
        return lambda n: c * critical_rate(n, d)
    if kind == "sub-connectivity":
        factor = float(spec.get("factor", 0.3))
        return lambda n: factor * connectivity_scale(n, d)
    if kind == "fixed":
        if "value" not in spec:
            raise ConfigError("/eps_rule/value: the fixed rule needs a value")
        value = float(spec["value"])
        return lambda n: value
    raise ConfigError(f"/eps_rule/kind: unknown rule {kind!r}")


# ---------------------------------------------------------------------------
# sweep plumbing


def worker_count() -> int:
    """Bounded worker pool size; the PCTV_THREADS variable caps it."""
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


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_records_csv(path: str, columns, rows) -> None:
    """One header row plus one row per record, RFC-4180 line endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[col]) for col in columns])


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _non_decreasing(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def _domain_label(spec: dict) -> str:
    shape = spec["shape"]
    if shape == "unit-box":
        return f"unit-box-{int(spec.get('dimension', 2))}d"
    return shape


def _setup(cfg: dict):
    domain = domain_from_config(cfg["domain"])
    density = density_from_config(cfg["density"], domain)
    return domain, density, _domain_label(cfg["domain"])


def _median_curve(path: str, ns, medians, title: str, ylabel: str) -> None:
    if len(ns) < 2 or any(m <= 0 for m in medians):
        return
    svgplot.line_figure(
        path,
        [(ns, medians, "median")],
        title=title,
        xlabel="n",
        ylabel=ylabel,
        xscale="log",
        yscale="log",
    )


# ---------------------------------------------------------------------------
# experiment runners


def _per_n_summary(rows, value_key: str):
    per_n = []
    seen = []
    for row in rows:
        if row["n"] not in seen:
            seen.append(row["n"])
    for n in seen:
        values = [row[value_key] for row in rows if row["n"] == n]
        per_n.append(
            {
                "n": n,
                "eps": next(row["eps"] for row in rows if row["n"] == n),
                f"median_{value_key}": _median(values),
            }
        )
    return per_n


def _run_gtv(cfg: dict, out_dir: str):
    domain, density, domain_label = _setup(cfg)
    profile = kernel_from_config(cfg["kernel"])
    fn = affine_function(cfg["function"]["coeffs"], cfg["function"].get("offset", 0.0))
    if len(cfg["function"]["coeffs"]) != domain.dimension:
        raise ConfigError("/function/coeffs: length must match the domain dimension")
    sigma = surface_tension(profile, domain.dimension).value
    tv_value, _ = weighted_tv_smooth(fn, density, domain)
    reference = sigma * tv_value
    denom = abs(reference) if reference else 1.0
    rule = eps_rule(cfg["eps_rule"], domain.dimension)

    def one(task):
        n, seed = task
        eps = float(rule(n))
        cloud = sample_iid(domain, density, n, seed=seed)
        graph = build_graph(cloud, profile, eps)
        value = graph_total_variation(graph, fn(cloud.points))
        return {
            "n": n,
            "eps": eps,
            "seed": seed,
            "kernel": profile.name,
            "domain": domain_label,
            "gtv": value,
            "reference": reference,
            "rel_error": abs(value - reference) / denom,
        }

    rows = _parallel_map(one, [(n, s) for n in cfg["n"] for s in cfg["seeds"]])
    per_n = _per_n_summary(rows, "rel_error")
    medians = [entry["median_rel_error"] for entry in per_n]
    summary = {
        "reference": reference,
        "surface_tension": sigma,
        "weighted_tv": tv_value,
        "per_n": per_n,
        "median_rel_error_decreasing": _strictly_decreasing(medians),
        "final_median_rel_error": medians[-1] if medians else None,
    }
    _median_curve(
        os.path.join(out_dir, "convergence.svg"),
        [entry["n"] for entry in per_n],
        medians,
        "graph TV vs continuum limit",
        "median relative error",
    )
    columns = ["n", "eps", "seed", "kernel", "domain", "gtv", "reference", "rel_error"]
    return columns, rows, summary


def _run_perimeter(cfg: dict, out_dir: str):
    domain, density, domain_label = _setup(cfg)
    profile = kernel_from_config(cfg["kernel"])
    axis = int(cfg["set"]["axis"])
    threshold = float(cfg["set"]["threshold"])
    if axis >= domain.dimension:
        raise ConfigError("/set/axis: axis is outside the domain dimension")
    sigma = surface_tension(profile, domain.dimension).value
    region = halfplane_set(domain, axis, threshold)
    reference = sigma * weighted_perimeter(region, density, domain)
    denom = abs(reference) if reference else 1.0
    rule = eps_rule(cfg["eps_rule"], domain.dimension)

    def one(task):
        n, seed = task
        eps = float(rule(n))
        cloud = sample_iid(domain, density, n, seed=seed)
        graph = build_graph(cloud, profile, eps)
        indicator = (cloud.points[:, axis] < threshold).astype(float)
        value = graph_total_variation(graph, indicator)
        return {
            "n": n,
            "eps": eps,
            "seed": seed,
            "kernel": profile.name,
            "domain": domain_label,
            "axis": axis,
            "threshold": threshold,
            "gtv": value,
            "reference": reference,
            "rel_error": abs(value - reference) / denom,
        }

    rows = _parallel_map(one, [(n, s) for n in cfg["n"] for s in cfg["seeds"]])
    per_n = _per_n_summary(rows, "rel_error")
    medians = [entry["median_rel_error"] for entry in per_n]
    summary = {
        "reference": reference,
        "surface_tension": sigma,
        "per_n": per_n,
        "median_rel_error_decreasing": _strictly_decreasing(medians),
        "final_median_rel_error": medians[-1] if medians else None,
    }
    _median_curve(
        os.path.join(out_dir, "convergence.svg"),
        [entry["n"] for entry in per_n],
        medians,
        "graph perimeter vs continuum limit",
        "median relative error",
    )
    columns = [
        "n", "eps", "seed", "kernel", "domain", "axis", "threshold",
        "gtv", "reference", "rel_error",
    ]
    return columns, rows, summary


def _run_nonlocal(cfg: dict, out_dir: str):
    domain, density, domain_label = _setup(cfg)
    profile = kernel_from_config(cfg["kernel"])
    fn = affine_function(cfg["function"]["coeffs"], cfg["function"].get("offset", 0.0))
    if len(cfg["function"]["coeffs"]) != domain.dimension:
        raise ConfigError("/function/coeffs: length must match the domain dimension")
    sigma = surface_tension(profile, domain.dimension).value
    tv_value, _ = weighted_tv_smooth(fn, density, domain)
    reference = sigma * tv_value
    denom = abs(reference) if reference else 1.0
    method = cfg["method"]

    def one(task):
        index, eps = task
        estimate = nonlocal_tv(
            fn,
            density,
            domain,
            profile,
            eps,
            method=method,
            cells_per_eps=cfg["cells_per_eps"],
            samples=cfg["samples"],
            seed=cfg["seed"] + index,
        )
        return {
            "eps": eps,
            "method": method,
            "kernel": profile.name,
            "domain": domain_label,
            "value": estimate.value,
            "error_estimate": estimate.error_estimate,
            "reference": reference,
            "rel_error": abs(estimate.value - reference) / denom,
        }

    rows = _parallel_map(one, list(enumerate(float(e) for e in cfg["eps"])))
    records = [
        {
            "functional": "nonlocal-tv",
            "parameters": {
                "eps": row["eps"],
                "method": row["method"],
                "kernel": row["kernel"],
                "domain": row["domain"],
            },
            "value": row["value"],
            "error_estimate": row["error_estimate"],
        }
        for row in rows
    ]
    errors = [row["rel_error"] for row in rows]
    summary = {
        "reference": reference,
        "records": records,
        "rel_errors": errors,
        "monotone_approach": _strictly_decreasing(errors),
        "final_rel_error": errors[-1] if errors else None,
    }
    if len(rows) >= 2 and all(e > 0 for e in errors):
        svgplot.line_figure(
            os.path.join(out_dir, "convergence.svg"),
            [([row["eps"] for row in rows], errors, "relative error")],
            title="nonlocal TV vs weighted TV limit",
            xlabel="eps",
            ylabel="relative error",
            xscale="log",
            yscale="log",
        )
    columns = [
        "eps", "method", "kernel", "domain", "value",
        "error_estimate", "reference", "rel_error",
    ]
    return columns, rows, summary


def _run_tl_distance(cfg: dict, out_dir: str):
    domain, density, domain_label = _setup(cfg)
    lo, hi = domain.bounding_box()
    if not (
        isinstance(domain, Box)
        and np.allclose(lo, 0.0)
        and np.allclose(hi, 1.0)
    ):
        raise UnsupportedConfigurationError(
            "the tl-distance experiment compares against a unit-box grid"
        )
    fn = affine_function(cfg["function"]["coeffs"], cfg["function"].get("offset", 0.0))
    if len(cfg["function"]["coeffs"]) != domain.dimension:
        raise ConfigError("/function/coeffs: length must match the domain dimension")
    p = float(cfg["p"])
    k = int(cfg["grid"])
    ref_points = grid_points(k, domain.dimension)
    ref = LiftedFunction(DiscreteMeasure.uniform_on(ref_points), fn(ref_points))

    def one(task):
        n, seed = task
        cloud = sample_iid(domain, density, n, seed=seed)
        lifted = LiftedFunction(DiscreteMeasure.uniform_on(cloud.points), fn(cloud.points))
        distance, _ = tlp_distance(lifted, ref, p=p)
        return {
            "n": n,
            "seed": seed,
            "p": p,
            "grid": k,
            "domain": domain_label,
            "distance": distance,
        }

    rows = _parallel_map(one, [(n, s) for n in cfg["n"] for s in cfg["seeds"]])
    per_n = []
    for n in dict.fromkeys(row["n"] for row in rows):
        values = [row["distance"] for row in rows if row["n"] == n]
        per_n.append({"n": n, "median_distance": _median(values)})
    medians = [entry["median_distance"] for entry in per_n]
    summary = {
        "grid": k,
        "p": p,
        "per_n": per_n,
        "median_distance_decreasing": _strictly_decreasing(medians),
    }
    _median_curve(
        os.path.join(out_dir, "distance.svg"),
        [entry["n"] for entry in per_n],
        medians,
        "TL distance to the grid discretization",
        "median distance",
    )
    columns = ["n", "seed", "p", "grid", "domain", "distance"]
    return columns, rows, summary


def _run_matching(cfg: dict, out_dir: str):
    d = int(cfg["dimension"])
    domain = unit_box(d)
    density = uniform_density(domain)
    grids = {}
    for n in cfg["n"]:
        k = round(n ** (1.0 / d))
        if k ** d != n:
            raise ConfigError(f"/n: {n} is not a perfect {d}-th power")
        grids[n] = DiscreteMeasure.uniform_on(grid_points(k, d))

    def one(task):
        n, seed = task
        cloud = sample_iid(domain, density, n, seed=seed)
        sample = DiscreteMeasure.uniform_on(cloud.points)
        distance, _ = bottleneck_distance(sample, grids[n])
        return {
            "n": n,
            "d": d,
            "seed": seed,
            "dist": distance,
            "ratio": scaling_ratio(n, d, distance),
        }

    rows = _parallel_map(one, [(n, s) for n in cfg["n"] for s in cfg["seeds"]])
    if len({row["n"] for row in rows}) >= 2:
        tau, pvalue = kendalltau([r["n"] for r in rows], [r["ratio"] for r in rows])
        tau = float(tau)
        pvalue = float(pvalue)
        one_sided = pvalue / 2.0 if tau > 0 else 1.0 - pvalue / 2.0
        increasing = bool(tau > 0 and one_sided < 0.05)
    else:
        tau = pvalue = one_sided = None
        increasing = False
    per_n = []
    for n in dict.fromkeys(row["n"] for row in rows):
        values = [row["ratio"] for row in rows if row["n"] == n]
        per_n.append({"n": n, "median_ratio": _median(values)})
    summary = {
        "dimension": d,
        "per_n": per_n,
        "kendall_tau": tau,
        "pvalue_two_sided": pvalue,
        "pvalue_increasing": one_sided,
        "increasing_trend_significant": increasing,
    }
    medians = [entry["median_ratio"] for entry in per_n]
    _median_curve(
        os.path.join(out_dir, "ratios.svg"),
        [entry["n"] for entry in per_n],
        medians,
        "bottleneck distance over the matching rate",
        "median ratio",
    )
    columns = ["n", "d", "seed", "dist", "ratio"]
    return columns, rows, summary


def _run_connectivity(cfg: dict, out_dir: str):
    domain, density, domain_label = _setup(cfg)
    profile = kernel_from_config(cfg["kernel"])
    n = int(cfg["n"])
    factors = [float(f) for f in cfg["factors"]]
    scale = connectivity_scale(n, domain.dimension)

    def one(seed):
        cloud = sample_iid(domain, density, n, seed=seed)
        flags = []
        for factor in factors:
            graph = build_graph(cloud, profile, factor * scale)
            flags.append(is_connected(graph))
        return flags

    per_seed = _parallel_map(one, list(cfg["seeds"]))
    rows = []
    for fi, factor in enumerate(factors):
        for si, seed in enumerate(cfg["seeds"]):
            rows.append(
                {
                    "n": n,
                    "factor": factor,
                    "eps": factor * scale,
                    "seed": seed,
                    "kernel": profile.name,
                    "domain": domain_label,
                    "connected": per_seed[si][fi],
                }
            )
    fractions = [
        float(np.mean([per_seed[si][fi] for si in range(len(cfg["seeds"]))]))
        for fi in range(len(factors))
    ]
    summary = {
        "n": n,
        "connectivity_scale": scale,
        "factors": factors,
        "connected_fraction": fractions,
        "fraction_non_decreasing": _non_decreasing(fractions),
    }
    if len(factors) >= 2:
        svgplot.line_figure(
            os.path.join(out_dir, "transition.svg"),
            [(factors, fractions, "connected fraction")],
            title="connectivity transition",
            xlabel="eps over (log n / n)^(1/d)",
            ylabel="connected fraction",
        )
    columns = ["n", "factor", "eps", "seed", "kernel", "domain", "connected"]
    return columns, rows, summary


def _run_bisect(cfg: dict, out_dir: str):
    domain, density, domain_label = _setup(cfg)
    profile = kernel_from_config(cfg["kernel"])
    rule = eps_rule(cfg["eps_rule"], domain.dimension)
    reference = sweep_reference(domain, density, cfg["reference_size"])

    def one(task):
        n, seed = task
        return sweep_run(
            domain,
            density,
            profile,
            n,
            float(rule(n)),
            seed,
            reference,
            restarts=cfg["restarts"],
        )

    runs = _parallel_map(one, [(n, s) for n in cfg["n"] for s in cfg["seeds"]])
    rows = []
    records = []
    for run in runs:
        rec = run.record
        rows.append(
            {
                "n": rec.n,
                "eps": rec.eps,
                "seed": rec.seed,
                "kernel": profile.name,
                "domain": domain_label,
                "energy": rec.energy,
                "connected": rec.connected,
                "agreement": rec.agreement,
                "tl1_distance": rec.tl1_distance,
            }
        )
        records.append(
            {
                "n": rec.n,
                "eps": rec.eps,
                "seed": rec.seed,
                "energy": rec.energy,
                "connected": bool(rec.connected),
                "agreement": rec.agreement,
                "tl1_distance": rec.tl1_distance,
            }
        )
        if domain.dimension == 2:
            name = f"partition-n{rec.n}-seed{rec.seed}.svg"
            svgplot.scatter_figure(
                os.path.join(out_dir, name),
                run.points,
                run.labels,
                title=f"n={rec.n} eps={rec.eps:.4g} seed={rec.seed}",
            )
    per_n = []
    for n in dict.fromkeys(row["n"] for row in rows):
        group = [row for row in rows if row["n"] == n]
        per_n.append(
            {
                "n": n,
                "eps": group[0]["eps"],
                "median_energy": _median([r["energy"] for r in group]),
                "median_agreement": _median([r["agreement"] for r in group]),
                "median_tl1_distance": _median([r["tl1_distance"] for r in group]),
                "connected_fraction": float(np.mean([r["connected"] for r in group])),
                "zero_energy_fraction": float(
                    np.mean([r["energy"] == 0.0 for r in group])
                ),
            }
        )
    summary = {"records": records, "per_n": per_n}
    columns = [
        "n", "eps", "seed", "kernel", "domain",
        "energy", "connected", "agreement", "tl1_distance",
    ]
    return columns, rows, summary


RUNNERS = {
    "gtv-convergence": _run_gtv,
    "perimeter-convergence": _run_perimeter,
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
    resolved = validate_config(name, config)
    worker_count()  # a malformed PCTV_THREADS fails here, before any work
    os.makedirs(out_dir, exist_ok=True)
    columns, rows, summary = RUNNERS[name](resolved, out_dir)
    write_records_csv(os.path.join(out_dir, "records.csv"), columns, rows)
    payload = {
        "experiment": name,
        "version": VERSION,
        "config": resolved,
        "summary": summary,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
