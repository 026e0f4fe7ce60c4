"""Release acceptance checks.

Each test prints exactly one summary line, "acceptance NN name: PASS"
or "... FAIL", before asserting, so `pytest -s tests/test_acceptance.py`
gives a one-line verdict per criterion.  Criteria 04-08 and the first
part of 09 run the shipped `configs/*.json` through `run_experiment` and
judge the artifacts it writes; each asserts the schedule it is defined
on, so an edit under `configs/` cannot weaken it unnoticed.  The heavier
checks take seconds to tens of seconds, each within its stated budget.
"""

import csv
import math
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pctv.bisection import local_search_bisection
from pctv.config import load_config
from pctv.experiments import run_experiment
from pctv.geometry import (
    PointCloud,
    dumbbell,
    sample_iid,
    uniform_density,
)
from pctv.graph import (
    build_graph,
    component_labels,
    graph_total_variation,
    is_connected,
)
from pctv.kernels import gaussian, indicator, step_sum, surface_tension
from pctv.transport import tlp_distance

from oracles import (
    coarea_terms,
    cut_weight,
    exhaustive_bisection,
    exhaustive_tlp,
    surface_tension_grid_2d,
    surface_tension_mc_3d,
)

# an overflow anywhere in a shipped run fails its criterion
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LIMIT = 4.0 / 3.0
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num, name, ok, detail=""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_surface_tension_constants():
    t0 = time.perf_counter()
    sigma2 = surface_tension(indicator(), 2)
    sigma3 = surface_tension(indicator(), 3)
    grid = surface_tension_grid_2d(lambda r: np.where(r <= 1.0, 1.0, 0.0), 1.0)
    mc, stderr = surface_tension_mc_3d(
        lambda r: np.where(r <= 1.0, 1.0, 0.0), 1.0, samples=2_000_000
    )
    elapsed = time.perf_counter() - t0
    err2 = abs(sigma2 - 4.0 / 3.0)
    err3 = abs(sigma3 - math.pi / 2.0)
    ok = (
        err2 <= 1e-6
        and err3 <= 1e-4
        and abs(sigma2 - grid) <= 2e-3
        and abs(sigma3 - mc) <= 5.0 * stderr
        and elapsed < 5.0
    )
    _report(1, "surface tension constants", ok,
            f"err2={err2:.2e} err3={err3:.2e} {elapsed:.1f}s")


def test_criterion_02_exact_graph_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    profiles = [indicator(), gaussian(0.5), step_sum([0.5, 1.0], [1.0, 0.5])]
    worst = 0.0
    for trial in range(1000):
        d = int(rng.integers(1, 4))
        n = 2 * int(rng.integers(5, 101))
        eps = float(rng.uniform(0.15, 0.5))
        cloud = PointCloud(rng.uniform(size=(n, d)))
        graph = build_graph(cloud, profiles[trial % 3], eps)

        subset = np.zeros(n, dtype=bool)
        subset[rng.permutation(n)[: int(rng.integers(1, n))] ] = True
        lhs = graph_total_variation(graph, subset.astype(float))
        rhs = cut_weight(graph.ii, graph.jj, graph.ww, subset) / (n * n * eps)
        gap = abs(lhs - rhs) / max(abs(rhs), 1e-30)
        worst = max(worst, gap)
        assert gap <= 1e-14

        levels = rng.normal(size=3)
        u = levels[rng.integers(0, 3, size=n)]
        total = graph_total_variation(graph, u)
        rebuilt = sum(coarea_terms(u, partial(graph_total_variation, graph)))
        assert abs(rebuilt - total) <= 1e-14 * max(abs(total), 1e-30)

        v = rng.normal(size=n)
        w = rng.normal(size=n)
        tv_v = graph_total_variation(graph, v)
        shift = graph_total_variation(graph, v + rng.normal())
        assert abs(shift - tv_v) <= 1e-12 * max(tv_v, 1e-30)
        lam = float(rng.normal())
        scaled = graph_total_variation(graph, lam * v)
        assert abs(scaled - abs(lam) * tv_v) <= 1e-12 * max(abs(lam) * tv_v, 1e-30)
        both = graph_total_variation(graph, v + w)
        assert both <= tv_v + graph_total_variation(graph, w) + 1e-12
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _report(2, "exact graph identities", ok,
            f"1000 instances, worst identity gap {worst:.1e}, {elapsed:.1f}s")


def test_criterion_03_tlp_against_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        x = rng.uniform(size=(n, 2))
        y = rng.uniform(size=(n, 2))
        f = rng.normal(size=n)
        g = rng.normal(size=n)
        p = float(rng.choice([1.0, 2.0]))
        got = tlp_distance(x, f, y, g, p=p)
        worst = max(worst, abs(got - exhaustive_tlp(x, f, y, g, p)))
        assert worst <= 1e-10
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        fns = [(rng.uniform(size=(n, 2)), rng.normal(size=n)) for _ in range(3)]
        dab = tlp_distance(*fns[0], *fns[1], p=2)
        dba = tlp_distance(*fns[1], *fns[0], p=2)
        dac = tlp_distance(*fns[0], *fns[2], p=2)
        dcb = tlp_distance(*fns[2], *fns[1], p=2)
        same = tlp_distance(*fns[0], *fns[0], p=2)
        assert abs(dab - dba) <= 1e-12
        assert dab <= dac + dcb + 1e-10
        assert same == 0.0
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(3, "TLp distance vs exhaustive search", ok,
            f"500 optima within {worst:.1e}, 1000 triples, {elapsed:.1f}s")


def _shipped(name, tmp_path, **changes):
    """Run configs/<name>.json, with ``changes`` applied, into tmp_path.

    Returns the resolved config, the records.csv rows and the summary.
    """
    cfg = dict(load_config(str(CONFIG_DIR / f"{name}.json")), **changes)
    out = tmp_path / name
    payload = run_experiment(name, cfg, str(out))
    with open(out / "records.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return payload["config"], rows, payload["summary"]


def test_criterion_04_pointwise_nonlocal_convergence(tmp_path):
    t0 = time.perf_counter()
    cfg, rows, summary = _shipped("nonlocal-convergence", tmp_path)
    elapsed = time.perf_counter() - t0
    assert cfg["eps"] == [0.16, 0.08, 0.04, 0.02]
    assert abs(summary["reference"] - LIMIT) <= 1e-12
    errors = [float(row["rel_error"]) for row in rows]
    below = all(float(row["value"]) < LIMIT for row in rows)
    ok = (summary["monotone_approach"] and below
          and summary["final_rel_error"] < 0.03 and elapsed < 120.0)
    _report(4, "pointwise nonlocal convergence", ok,
            f"rel errors {', '.join(f'{e:.3f}' for e in errors)}, {elapsed:.1f}s")


def _graph_tv_consistency(num, title, name, tmp_path):
    """Criteria 05 and 06: the shipped borderline sweep on the unit square."""
    t0 = time.perf_counter()
    cfg, rows, summary = _shipped(name, tmp_path)
    elapsed = time.perf_counter() - t0
    assert cfg["n"] == [2000, 8000, 32000] and cfg["seeds"] == list(range(10))
    assert all(float(row["eps"]) == 2.0 * math.log(int(row["n"])) ** 0.75
               / math.sqrt(int(row["n"])) for row in rows)
    assert abs(summary["reference"] - LIMIT) <= 1e-12
    medians = [entry["median_rel_error"] for entry in summary["per_n"]]
    ok = (summary["median_rel_error_decreasing"] and medians[-1] < 0.10
          and elapsed < 600.0)
    _report(num, title, ok,
            f"medians {', '.join(f'{m:.3f}' for m in medians)}, {elapsed:.1f}s")


def test_criterion_05_graph_tv_consistency(tmp_path):
    _graph_tv_consistency(5, "graph TV consistency", "gtv-convergence", tmp_path)


def test_criterion_06_perimeter_consistency(tmp_path):
    _graph_tv_consistency(6, "perimeter consistency", "perimeter-convergence", tmp_path)


def test_criterion_07_matching_scaling(tmp_path):
    t0 = time.perf_counter()
    cfg2, _, plane = _shipped("matching-scaling", tmp_path / "d2")
    cfg3, _, space = _shipped("matching-scaling", tmp_path / "d3",
                              dimension=3, n=[512, 1728, 4096])
    elapsed = time.perf_counter() - t0
    assert cfg2["dimension"] == 2 and cfg2["n"] == [256, 1024, 4096, 16384]
    assert cfg2["seeds"] == cfg3["seeds"] == list(range(20))
    tau2, p2 = plane["kendall_tau"], plane["pvalue_increasing"]
    tau3, p3 = space["kendall_tau"], space["pvalue_increasing"]
    ok = p2 >= 0.05 and p3 >= 0.05 and elapsed < 900.0
    _report(7, "matching distance scaling", ok,
            f"tau2={tau2:.2f} p2={p2:.3f} tau3={tau3:.2f} p3={p3:.3f} "
            f"{elapsed:.0f}s")


def test_criterion_08_connectivity_transition(tmp_path):
    t0 = time.perf_counter()
    cfg, rows, _ = _shipped("connectivity", tmp_path)
    elapsed = time.perf_counter() - t0
    n = 10_000
    theta = math.sqrt(math.log(n) / n)
    factors = (0.3, 1.0, 3.0)
    assert cfg["n"] == n and cfg["seeds"] == list(range(50))
    assert set(factors) <= set(cfg["factors"])
    assert cfg["domain"] == {"shape": "unit-box"}  # unit_box defaults to the plane
    assert cfg["density"] == {"name": "uniform"} and cfg["kernel"] == {"name": "indicator"}
    connected = {f: [] for f in factors}
    for row in rows:
        factor = float(row["factor"])
        if factor in connected:
            assert float(row["eps"]) == factor * theta
            connected[factor].append(int(row["connected"]))
    assert all(len(flags) == 50 for flags in connected.values())
    fractions = [sum(connected[f]) / 50.0 for f in factors]
    monotone = all(a <= b for a, b in zip(fractions, fractions[1:]))
    ok = (fractions[0] < 0.5 and fractions[-1] > 0.95 and monotone
          and elapsed < 600.0)
    _report(8, "connectivity transition", ok,
            f"fractions {fractions}, {elapsed:.0f}s")


def test_criterion_09_dumbbell_bisection(tmp_path):
    t0 = time.perf_counter()
    cfg, rows, _ = _shipped("bisect", tmp_path)
    seeds = (7, 16, 36)
    assert cfg["n"] == [500] and cfg["seeds"] == list(seeds)
    assert cfg["eps_rule"] == {"kind": "fixed", "value": 0.18}
    agreements = [float(row["agreement"]) for row in rows]
    domain = dumbbell()
    density = uniform_density(domain)
    profile = indicator()

    zero_found = []
    for seed in seeds:
        cloud = sample_iid(domain, density, 500, seed=seed)
        graph = build_graph(cloud, profile, 0.1)
        assert not is_connected(graph)
        sizes = np.bincount(component_labels(graph))
        reachable = 1
        for size in sizes:
            reachable |= reachable << int(size)
        assert (reachable >> 250) & 1, "no balanced union of components"
        result = local_search_bisection(graph, seed=seed)
        zero_found.append(result.energy == 0.0)

    rng = np.random.default_rng(99)
    excess = 0.0
    for trial in range(20):
        n = 2 * int(rng.integers(4, 9))
        cloud = PointCloud(rng.uniform(size=(n, 2)))
        graph = build_graph(cloud, profile, 0.5)
        exact, _ = exhaustive_bisection(n, graph.ii, graph.jj, graph.ww, graph.eps)
        found = local_search_bisection(graph, seed=trial, restarts=8)
        assert found.energy >= exact - 1e-12
        excess = max(excess, found.energy - exact)

    elapsed = time.perf_counter() - t0
    ok = (all(a >= 0.90 for a in agreements) and all(zero_found)
          and excess <= 1e-9 and elapsed < 300.0)
    _report(9, "dumbbell bisection", ok,
            f"agreements {', '.join(f'{a:.3f}' for a in agreements)}, "
            f"zero-energy found {sum(zero_found)}/3, "
            f"heuristic excess {excess:.1e}, {elapsed:.0f}s")


def test_criterion_10_reproducibility(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    configs = {
        "gtv-convergence": {
            "domain": {"shape": "unit-box", "dimension": 2},
            "kernel": {"name": "indicator"},
            "function": {"coeffs": [1.0, 0.0]},
            "eps_rule": {"kind": "fixed", "value": 0.3},
            "n": [60, 120],
            "seeds": [0, 1],
        },
        "bisect": {
            "domain": {"shape": "dumbbell"},
            "kernel": {"name": "indicator"},
            "eps_rule": {"kind": "fixed", "value": 0.45},
            "n": [60],
            "seeds": [4, 5],
            "restarts": 4,
            "reference_size": 120,
        },
    }
    identical = True
    for name, cfg in configs.items():
        first = tmp_path / f"{name}-a"
        second = tmp_path / f"{name}-b"
        monkeypatch.setenv("PCTV_THREADS", "1")
        run_experiment(name, cfg, str(first))
        monkeypatch.setenv("PCTV_THREADS", "2")
        run_experiment(name, cfg, str(second))
        for artifact in ("records.csv", "summary.json"):
            identical &= (
                (first / artifact).read_bytes() == (second / artifact).read_bytes()
            )
    elapsed = time.perf_counter() - t0
    _report(10, "byte-identical reruns", identical and elapsed < 120.0,
            f"2 experiments x 2 artifacts, {elapsed:.1f}s")
