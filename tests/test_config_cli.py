"""Config validation, experiment runner plumbing, CLI, SVG output."""

import csv
import hashlib
import inspect
import itertools
import json
import math
import os
import pickle
import re
import sys
import tempfile
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

import pctv
from pctv import cli, config, continuum, experiments, kernels
from pctv.bisection import reference_partitions
from pctv.config import EXPERIMENTS, SCHEMAS, build, load_config, plan, validate_config
from pctv.errors import ConfigError
from pctv.experiments import run_experiment, worker_count, write_records_csv
from pctv.geometry import (
    DENSITIES,
    SHAPES,
    ConvexPolygon,
    affine_density,
    dumbbell,
    uniform_density,
    unit_box,
)
from pctv.graph import EPS_RULES, connectivity_scale, critical_rate
from pctv.kernels import KERNELS, surface_tension
from pctv.svgplot import line_figure, scatter_figure


def test_defaults_are_filled_in():
    cfg = validate_config("gtv-convergence", {
        "domain": {"shape": "unit-box", "dimension": 2},
        "kernel": {"name": "indicator"},
        "function": {"coeffs": [1.0, 0.0]},
        "eps_rule": {"kind": "admissible"},
        "n": [100],
        "seeds": [0],
    })
    assert cfg["density"] == {"name": "uniform"}
    assert cfg["eps_rule"]["kind"] == "admissible"
    assert validate_config("tl-distance", TL_CFG)["p"] == 2
    cfg = validate_config("bisect", {k: v for k, v in BISECT_CFG.items()
                                     if k not in ("restarts", "reference_size")})
    assert (cfg["restarts"], cfg["reference_size"]) == (32, 2000)
    cfg = validate_config("connectivity", RUNS["connectivity"][0])
    assert cfg["domain"] == {"shape": "unit-box"}


def test_gaussian_cutoff_takes_every_width_that_peaks_above_the_threshold():
    # r^d e^(-r^2/w^2) peaks at 3.7e-9 for w = 1e-4 (d = 2), and decays
    # past r = 1e3 for w = 200 (d = 2) and w = 150 (d = 3); at w = 1e-200
    # it peaks below the truncation threshold
    cube = {"domain": {"shape": "unit-box", "dimension": 3}, "function": {"coeffs": [1.0] * 3}}
    for width, cfg in ((1e-4, GTV_CFG), (200, GTV_CFG), (150, dict(GTV_CFG, **cube))):
        validate_config("gtv-convergence", dict(cfg, kernel={"name": "gaussian", "width": width}))
    with pytest.raises(ConfigError, match="^/kernel: .*below the truncation threshold"):
        validate_config("gtv-convergence",
                        dict(GTV_CFG, kernel={"name": "gaussian", "width": 1e-200}))


def test_unknown_experiment_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown experiment"):
        validate_config("spectral-clustering", {})


def test_error_messages_carry_json_pointers():
    base = {
        "domain": {"shape": "unit-box", "dimension": 2},
        "kernel": {"name": "indicator"},
        "function": {"coeffs": [1.0, 0.0]},
        "eps_rule": {"kind": "admissible"},
        "n": [100],
        "seeds": [0],
    }
    bad = json.loads(json.dumps(base))
    bad["kernel"]["name"] = "indicatr"
    with pytest.raises(ConfigError, match="^/kernel/name: "):
        validate_config("gtv-convergence", bad)
    extra = json.loads(json.dumps(base))
    extra["unknown_knob"] = 1
    with pytest.raises(ConfigError):
        validate_config("gtv-convergence", extra)
    missing = {k: v for k, v in base.items() if k != "seeds"}
    with pytest.raises(ConfigError, match="seeds"):
        validate_config("gtv-convergence", missing)


def test_experiment_names_are_stable():
    assert EXPERIMENTS == (
        "gtv-convergence",
        "perimeter-convergence",
        "nonlocal-convergence",
        "tl-distance",
        "matching-scaling",
        "connectivity",
        "bisect",
    )


def test_every_exported_name_resolves():
    missing = [name for name in pctv.__all__ if not hasattr(pctv, name)]
    assert missing == []
    assert len(set(pctv.__all__)) == len(pctv.__all__)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))
    good = tmp_path / "ok.json"
    good.write_text('{"a": 1}')
    assert load_config(str(good)) == {"a": 1}


def test_eps_rules_evaluate_their_formulas():
    rate2 = critical_rate(1000, 2)
    assert math.isclose(rate2, math.log(1000) ** 0.75 / math.sqrt(1000))
    rate3 = critical_rate(1000, 3)
    assert math.isclose(rate3, (math.log(1000) / 1000) ** (1 / 3))
    assert math.isclose(connectivity_scale(1000, 2),
                        math.sqrt(math.log(1000) / 1000))

    def eps_rule(spec, d):
        return build(EPS_RULES, "kind", spec, d)

    adm = eps_rule({"kind": "admissible", "c": 2.0, "gamma": 0.8}, 2)
    assert math.isclose(adm(1000), 2.0 * rate2 ** 0.8)
    assert math.isclose(eps_rule({"kind": "admissible"}, 3)(1000), rate3 ** 0.9)
    bord = eps_rule({"kind": "borderline", "c": 1.5}, 2)
    assert math.isclose(bord(1000), 1.5 * rate2)
    sub = eps_rule({"kind": "sub-connectivity", "factor": 0.25}, 2)
    assert math.isclose(sub(1000), 0.25 * connectivity_scale(1000, 2))
    fixed = eps_rule({"kind": "fixed", "value": 0.2}, 2)
    assert fixed(10) == 0.2 and fixed(100000) == 0.2


def test_worker_count_respects_environment(monkeypatch):
    monkeypatch.setenv("PCTV_THREADS", "2")
    assert worker_count() == 2
    monkeypatch.delenv("PCTV_THREADS")
    assert worker_count() >= 1


def test_records_csv_formats_cells(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(path, [{"n": 10, "flag": True, "value": 0.1},
                             {"n": 20, "flag": False, "value": 1.0 / 3.0}])
    text = path.read_bytes().decode()
    lines = text.split("\r\n")
    assert lines[0] == "n,flag,value"
    assert lines[1] == "10,1,0.1"
    assert lines[2] == "20,0," + repr(1.0 / 3.0)


GTV_CFG = {
    "domain": {"shape": "unit-box", "dimension": 2},
    "kernel": {"name": "indicator"},
    "function": {"coeffs": [1.0, 0.0]},
    "eps_rule": {"kind": "fixed", "value": 0.3},
    "n": [60, 120],
    "seeds": [0, 1],
}


def test_run_experiment_writes_the_standard_artifacts(tmp_path):
    out = tmp_path / "out"
    summary = run_experiment("gtv-convergence", GTV_CFG, str(out))
    assert (out / "records.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "convergence.svg").exists()
    stored = json.loads((out / "summary.json").read_text())
    assert stored["experiment"] == "gtv-convergence"
    assert stored["version"] == summary["version"]
    assert stored["config"]["density"] == {"name": "uniform"}


def test_a_failed_write_leaves_no_artifact(tmp_path, monkeypatch):
    def broken_writer(path, rows):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(rows[0]))  # half a file, then the disk fills up
        raise OSError("no space left on device")

    monkeypatch.setattr(experiments, "write_records_csv", broken_writer)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="no space left"):
        run_experiment("gtv-convergence", GTV_CFG, str(out))
    # The runner finished and drew its figure into the staging directory;
    # neither it nor any table nor the staging directory is left behind.
    assert os.listdir(out) == []


def test_edgeless_graphs_are_reported_on_stderr(tmp_path, capsys):
    cfg = dict(GTV_CFG, kernel={"name": "gaussian", "width": 1e-3})
    run_experiment("gtv-convergence", cfg, str(tmp_path / "out"))
    assert capsys.readouterr().err.splitlines() == [
        "warning: n=60: 2 of 2 graphs have no edges at eps=0.3",
        "warning: n=120: 2 of 2 graphs have no edges at eps=0.3",
    ]
    run_experiment("gtv-convergence", GTV_CFG, str(tmp_path / "edges"))
    assert capsys.readouterr().err == ""


def test_bisect_run_emits_partition_figures(tmp_path):
    cfg = {
        "domain": {"shape": "dumbbell"},
        "kernel": {"name": "indicator"},
        "eps_rule": {"kind": "fixed", "value": 0.45},
        "n": [60],
        "seeds": [4],
        "restarts": 4,
        "reference_size": 120,
    }
    out = tmp_path / "bisect"
    summary = run_experiment("bisect", cfg, str(out))
    assert (out / "partition-n60-seed4.svg").exists()
    with open(out / "records.csv", encoding="utf-8", newline="") as handle:
        (record,) = csv.DictReader(handle)
    assert sorted(record) == ["agreement", "connected", "domain", "energy", "eps",
                              "kernel", "n", "seed", "tl1_distance"]
    assert sorted(summary["summary"]) == ["per_n"]


def test_cli_success_and_error_paths(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(GTV_CFG))
    out = tmp_path / "cli-out"
    code = cli.main(["gtv-convergence", "--config", str(cfg_path),
                     "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "summary.json" in captured.out

    bad = tmp_path / "bad.json"
    bad_cfg = json.loads(json.dumps(GTV_CFG))
    bad_cfg["kernel"]["name"] = "indicatr"
    bad.write_text(json.dumps(bad_cfg))
    code = cli.main(["gtv-convergence", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: /kernel/name")

    code = cli.main(["gtv-convergence", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "y")])
    assert code in (1, 2)


def test_unreadable_config_files_are_config_errors(tmp_path, capsys):
    out = tmp_path / "out"
    for text, pointer in [("{\"eps\": [0.1]}".encode("utf-16"), "/"),  # not UTF-8
                          (json.dumps(dict(GTV_CFG, eps_rule={"kind": "fixed", "value": 0.125}))
                           .replace("0.125", "1e400").encode(), "/eps_rule/value")]:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(text)
        code = cli.main(["gtv-convergence", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {pointer}: ")
        assert not out.exists()


def test_bad_thread_count_is_a_config_error_before_any_work(tmp_path, capsys,
                                                            monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(GTV_CFG))
    out = tmp_path / "out"
    for value in ("abc", "0", "-4"):
        monkeypatch.setenv("PCTV_THREADS", value)
        with pytest.raises(ConfigError, match=f"^PCTV_THREADS: .*'{value}'"):
            worker_count()
        code = cli.main(["gtv-convergence", "--config", str(cfg_path),
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: PCTV_THREADS: ")
        assert not out.exists()


def test_overflowing_transport_costs_are_one_error_line(tmp_path, capsys):
    # at p = 1e6 the costs of 36 points against the 16-point grid overflow
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TL_CFG, p=1e6, n=[36])))
    out = tmp_path / "out"
    code = cli.main(["tl-distance", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: transport costs overflow at p = 1e+06\n"
    assert os.listdir(out) == []


BISECT_CFG = {
    "domain": {"shape": "dumbbell"},
    "kernel": {"name": "indicator"},
    "eps_rule": {"kind": "fixed", "value": 0.45},
    "n": [60],
    "seeds": [4],
    "restarts": 4,
    "reference_size": 120,
}
PERIMETER_CFG = dict(
    {k: v for k, v in GTV_CFG.items() if k != "function"},
    set={"axis": 0, "threshold": 0.5},
)
TL_CFG = {
    "domain": {"shape": "unit-box", "dimension": 2},
    "function": {"coeffs": [1.0, 0.0]},
    "grid": 4,
    "n": [16],
    "seeds": [0],
}
BAD_CONFIGS = [
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "box", "lo": [0, 0], "hi": [1, 0]}),
     "/domain"),
    ("gtv-convergence", dict(GTV_CFG, density={"name": "affine", "axis": 5}),
     "/density/axis"),
    ("bisect", dict(BISECT_CFG, n=[61]), "/n/0"),
    ("bisect", dict(BISECT_CFG, n=[60, 61]), "/n/1"),
    ("tl-distance", dict(TL_CFG, domain={"shape": "dumbbell"}), "/domain"),
    ("gtv-convergence", dict(GTV_CFG, function={"coeffs": [1.0, 0.0, 0.0]}),
     "/function/coeffs"),
    ("perimeter-convergence", dict(PERIMETER_CFG, set={"axis": 2, "threshold": 0.5}),
     "/set/axis"),
    ("gtv-convergence", dict(GTV_CFG, eps_rule={"kind": "fixed"}), "/eps_rule"),
    ("matching-scaling", {"dimension": 2, "n": [16, 10], "seeds": [0]}, "/n/1"),
    ("gtv-convergence",
     dict(GTV_CFG, kernel={"name": "step-sum", "radii": [0.5, 1.0], "heights": [1, -2]}),
     "/kernel/heights/1"),
    ("gtv-convergence",
     dict(GTV_CFG, domain={"shape": "polygon", "vertices": [[0, 0], [1, 1], [2, 2]]}),
     "/domain"),
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "dumbbell", "width": 2}), "/domain"),
    ("gtv-convergence", dict(GTV_CFG, density={"name": "affine", "slope": -5}), "/density"),
    ("gtv-convergence",
     dict(GTV_CFG, kernel={"name": "step-sum", "radii": [0.5, 1.0], "heights": [1]}),
     "/kernel"),
    ("bisect", dict(BISECT_CFG, domain={"shape": "box", "lo": [0, 0], "hi": [2, 1]}),
     "/domain"),
    ("gtv-convergence",  # an increasing profile breaks K2
     dict(GTV_CFG, kernel={"name": "step-sum", "radii": [0.5, 1.0], "heights": [1, 2]}),
     "/kernel"),
    ("gtv-convergence",  # eta(0) = 0 breaks K1 and builds edgeless graphs
     dict(GTV_CFG, kernel={"name": "step-sum", "radii": [1.0], "heights": [0]}),
     "/kernel"),
    ("bisect", dict(BISECT_CFG, restarts=0), "/restarts"),
    ("gtv-convergence", dict(GTV_CFG, n=[]), "/n"),
    ("perimeter-convergence", dict(PERIMETER_CFG, n=[]), "/n"),
    ("tl-distance", dict(TL_CFG, n=[]), "/n"),
    ("matching-scaling", {"dimension": 2, "n": [], "seeds": [0]}, "/n"),
    ("bisect", dict(BISECT_CFG, n=[]), "/n"),
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "unit-box", "dimension": 1},
                             function={"coeffs": [1.0]}), "/domain"),
    ("nonlocal-convergence",
     {"domain": {"shape": "unit-box", "dimension": 1}, "kernel": {"name": "indicator"},
      "function": {"coeffs": [1.0]}, "eps": [0.2]}, "/domain"),
    ("gtv-convergence", dict(GTV_CFG, kernel={"name": "gaussian", "width": 1e200}), "/kernel"),
    ("tl-distance", dict(TL_CFG, grid=32, n=[250, 30000]), "/n/1"),
    # box corners of different lengths
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "box", "lo": [0, 0], "hi": [1, 1, 1]}),
     "/domain"),
    # a 6-d domain has no spheres to integrate over, and two overlapping
    # cubes at eps = 1.12 make a nonlocal rule just past the size bound (at
    # eps = 1.11 it holds 0.95 of it)
    ("nonlocal-convergence",
     {"domain": {"shape": "unit-box", "dimension": 6}, "kernel": {"name": "indicator"},
      "function": {"coeffs": [1.0] + [0.0] * 5}, "eps": [0.2]}, "/domain"),
    ("nonlocal-convergence",
     {"domain": {"shape": "box-union", "boxes": [{"lo": [0, 0, 0], "hi": [1, 1, 1]},
                                                 {"lo": [0.5] * 3, "hi": [1.5] * 3}]},
      "kernel": {"name": "indicator"}, "function": {"coeffs": [1.0, 0.0, 0.0]},
      "eps": [0.5, 1.12]}, "/domain"),
    # eps^-2 overflows at every n
    ("gtv-convergence", dict(GTV_CFG, eps_rule={"kind": "fixed", "value": 1e-170}),
     "/eps_rule"),
    ("bisect", dict(BISECT_CFG, eps_rule={"kind": "fixed", "value": 1e-170}), "/eps_rule"),
    ("perimeter-convergence",
     dict(PERIMETER_CFG, eps_rule={"kind": "admissible", "c": 1e-300}), "/eps_rule"),
    # each kind must have its required keys and takes no key of another kind
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "box"}), "/domain"),
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "box-union"}), "/domain"),
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "polygon"}), "/domain"),
    ("gtv-convergence", dict(GTV_CFG, kernel={"name": "step-sum", "radii": [1.0]}),
     "/kernel"),
    ("gtv-convergence", dict(GTV_CFG, kernel={"name": "gaussian", "radius": 0.1}),
     "/kernel"),
    ("gtv-convergence", dict(GTV_CFG, kernel={"name": "indicator", "width": 3}),
     "/kernel"),
    ("bisect", dict(BISECT_CFG, domain={"shape": "dumbbell", "dimension": 3}), "/domain"),
    ("gtv-convergence", dict(GTV_CFG, density={"name": "uniform", "slope": 3}),
     "/density"),
    ("gtv-convergence", dict(GTV_CFG, eps_rule={"kind": "borderline", "factor": 0.5}),
     "/eps_rule"),
    # a sliver triangle fills 1.7e-7 of its bounding box, too little to sample
    ("perimeter-convergence",
     dict(PERIMETER_CFG, domain={"shape": "polygon", "vertices": [[0, 0], [3, 3], [3, 3.000001]]}),
     "/domain"),
    # a 30-axis box would hold 2^30 Gauss nodes, and its section 2^29
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "box", "lo": [0] * 30, "hi": [1] * 30},
                             function={"coeffs": [1.0] * 30}), "/domain/lo"),
    ("perimeter-convergence",
     dict(PERIMETER_CFG, domain={"shape": "box", "lo": [0] * 30, "hi": [1] * 30}), "/domain/lo"),
    # three overlapping 8-d boxes make a 5^8-cell grid, up to 1e8 Gauss nodes
    ("gtv-convergence",
     dict(GTV_CFG, domain={"shape": "box-union",
                           "boxes": [{"lo": [o] * 8, "hi": [o + 1] * 8} for o in (0, 0.3, 0.6)]},
          function={"coeffs": [1.0] * 8}), "/domain"),
    # a 2 x 2 square dented to its centre, at 1e-7 scale
    ("gtv-convergence",
     dict(GTV_CFG, domain={"shape": "polygon", "vertices": [[0, 0], [2e-7, 0], [2e-7, 2e-7],
                                                            [1e-7, 1e-7], [0, 2e-7]]}),
     "/domain"),
    # one box is a box however it is written: no reference cut off a cube
    ("bisect", dict(BISECT_CFG, domain={"shape": "box-union",
                                        "boxes": [{"lo": [0, 0], "hi": [2, 1]}]}), "/domain"),
    # TL1 scoring would need a 12000 x 2000 cost matrix
    ("bisect", {"domain": {"shape": "dumbbell"}, "kernel": {"name": "indicator"},
                "eps_rule": {"kind": "fixed", "value": 0.05}, "n": [12000], "seeds": [0],
                "restarts": 1}, "/n/0"),
    # a volume of 1e-320 is subnormal, and a density's 1 / volume overflows
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "box", "lo": [0, 0],
                                              "hi": [1e-160, 1e-160]}), "/domain"),
    # a gaussian this narrow peaks at 3.7e-15 r^2 e^(-r^2/w^2), below the
    # truncation threshold, so sigma would come out 0
    ("gtv-convergence", dict(GTV_CFG, kernel={"name": "gaussian", "width": 1e-7}), "/kernel"),
    # JSON Schema counts 1.0 as an integer; each of these crashed after
    # the output directory was made
    ("gtv-convergence", dict(GTV_CFG, seeds=[1.0]), "/seeds/0"),
    ("gtv-convergence", dict(GTV_CFG, n=[60.0, 120]), "/n/0"),
    ("bisect", dict(BISECT_CFG, restarts=4.0), "/restarts"),
    ("bisect", dict(BISECT_CFG, reference_size=120.0), "/reference_size"),
    # Python's json reads NaN, Infinity and 1e400; each of these ran, or
    # failed at another pointer
    ("nonlocal-convergence",
     dict({k: GTV_CFG[k] for k in ("domain", "kernel", "function")}, eps=[math.nan]), "/eps/0"),
    ("gtv-convergence", dict(GTV_CFG, eps_rule={"kind": "fixed", "value": math.inf}),
     "/eps_rule/value"),
    ("gtv-convergence", dict(GTV_CFG, eps_rule={"kind": "admissible", "c": math.nan}),
     "/eps_rule/c"),
    ("gtv-convergence", dict(GTV_CFG, function={"coeffs": [math.nan, 0.0]}),
     "/function/coeffs/0"),
    ("gtv-convergence", dict(GTV_CFG, function={"coeffs": [1.0, 0.0], "offset": math.inf}),
     "/function/offset"),
    ("perimeter-convergence", dict(PERIMETER_CFG, set={"axis": 0, "threshold": math.nan}),
     "/set/threshold"),
    ("tl-distance", dict(TL_CFG, p=math.inf), "/p"),
    ("connectivity", {"kernel": {"name": "indicator"}, "n": 200, "factors": [math.nan],
                      "seeds": [0]}, "/factors/0"),
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "box", "lo": [0, 0], "hi": [1, math.inf]}),
     "/domain/hi/1"),
    ("gtv-convergence",
     dict(GTV_CFG, kernel={"name": "step-sum", "radii": [0.5, math.nan], "heights": [1, 1]}),
     "/kernel/radii/1"),
    ("gtv-convergence", dict(GTV_CFG, density={"name": "affine", "slope": math.nan}),
     "/density/slope"),
    ("gtv-convergence",
     dict(GTV_CFG, domain={"shape": "polygon", "vertices": [[0, 0], [1, 0], [0, math.inf]]}),
     "/domain/vertices/2/1"),
    ("bisect", dict(BISECT_CFG, domain={"shape": "dumbbell", "length": float("1e400")}),
     "/domain/length"),
    # a ragged vertex list fails at its vertex, not inside numpy
    ("gtv-convergence",
     dict(GTV_CFG, domain={"shape": "polygon", "vertices": [[0, 0], [1, 0, 3], [0, 1]]}),
     "/domain/vertices/1"),
    # Python's json refuses an integer literal of over 4300 digits, so this
    # row is the file's text; each integer beyond the float range crashed
    # in float(...)
    ("gtv-convergence", json.dumps(GTV_CFG).replace("[60, 120]", "[1" + "0" * 5000 + "]"), "/"),
    ("gtv-convergence", dict(GTV_CFG, kernel={"name": "gaussian", "width": 10**400}),
     "/kernel/width"),
    ("matching-scaling", {"dimension": 2, "n": [10**400], "seeds": [0]}, "/n/0"),
    # this gaussian has a cut radius, but its sigma, about w^3, overflows
    ("gtv-convergence", dict(GTV_CFG, kernel={"name": "gaussian", "width": 1e110}), "/kernel"),
    # this one's moment integral is finite, but c_3 times it overflows
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "unit-box", "dimension": 3},
                             function={"coeffs": [1.0, 0.0, 0.0]},
                             kernel={"name": "gaussian", "width": 1e77}), "/kernel"),
    # 0.05^-3 times the peak height 1e305 overflows, so every weight would
    ("gtv-convergence", dict(GTV_CFG, domain={"shape": "unit-box", "dimension": 3},
                             function={"coeffs": [1.0, 0.0, 0.0]},
                             kernel={"name": "step-sum", "radii": [1.0], "heights": [1e305]},
                             eps_rule={"kind": "fixed", "value": 0.05}), "/eps_rule"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,cfg,pointer", BAD_CONFIGS,
                         ids=[f"{i:02d}-{case[2]}" for i, case in enumerate(BAD_CONFIGS)])
def test_bad_configs_fail_before_any_work(tmp_path, capsys, name, cfg, pointer):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    if isinstance(cfg, str):  # JSON text that no Python config stands for
        cfg_path.write_text(cfg)
        with pytest.raises(ConfigError, match=f"^{re.escape(pointer)}: "):
            load_config(str(cfg_path))
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(pointer)}: "):
            validate_config(name, cfg)
        with pytest.raises(ConfigError, match=f"^{re.escape(pointer)}: "):
            run_experiment(name, cfg, str(out))
        assert not out.exists()
        cfg_path.write_text(json.dumps(cfg))
    code = cli.main([name, "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {pointer}: ")
    assert not out.exists()


# Per experiment: a tiny config, its records.csv header, row count and figures.
RUNS = {
    "gtv-convergence": (GTV_CFG, "n,eps,seed,kernel,domain,gtv,reference,rel_error",
                        4, ["convergence.svg"]),
    "perimeter-convergence": (
        PERIMETER_CFG, "n,eps,seed,kernel,domain,axis,threshold,gtv,reference,rel_error",
        4, ["convergence.svg"]),
    "nonlocal-convergence": (
        dict({k: GTV_CFG[k] for k in ("domain", "kernel", "function")}, eps=[0.2, 0.1]),
        "eps,kernel,domain,value,reference,rel_error",
        2, ["convergence.svg"]),
    # n = 16 matches the 16-point grid (assignment), n = 36 does not (LP)
    "tl-distance": (dict(TL_CFG, n=[16, 36]), "n,seed,p,grid,domain,distance",
                    2, ["distance.svg"]),
    "matching-scaling": ({"dimension": 2, "n": [16, 64], "seeds": [0, 1]},
                         "n,d,seed,dist,ratio", 4, ["ratios.svg"]),
    "connectivity": ({"kernel": {"name": "indicator"}, "n": 200,
                      "factors": [0.5, 2.0], "seeds": [0, 1]},
                     "n,factor,eps,seed,kernel,domain,connected", 4, ["transition.svg"]),
    "bisect": (dict(BISECT_CFG, seeds=[4, 5]),
               "n,eps,seed,kernel,domain,energy,connected,agreement,tl1_distance",
               2, ["partition-n60-seed4.svg", "partition-n60-seed5.svg"]),
}


# sha256 of (records.csv, summary.json) for every RUNS config: the
# experiments that the benchmark's exact workloads run, perimeter-convergence,
# which shares their graph-TV sweep, tl-distance, whose two n take the
# assignment and the LP path, and nonlocal-convergence, whose values are
# exact.  A change that moves the benchmark's bytes also moves
# perfbench/digests.json.
PINNED = {
    "gtv-convergence": (
        "bb4566dfef4eb66b84be6d80100971396b3f6044be18bcaa495c9e5f86d23f7d",
        "f3891152a5b092929958b428df608b915f69e5d7c0758d061a903b45dcaa7c69"),
    "perimeter-convergence": (
        "44124c925db75d464a0f068594adf9d68417a66231a036782dbd63eafad4f894",
        "ecf9610d8c549ae58c1cd7b1b093bb47236c1d3811e6cd40a916a567a29f2888"),
    "matching-scaling": (
        "33908c031649418a6f355dc9318b74b3af0fb2b42aa63551804b3a6facce963e",
        "a8571ff3c55c0c14f16b6696680277b50789c14f95e07b7e8e7366b9fe526e47"),
    "connectivity": (
        "8a4d090c2ffb9416e2394f8cced35fe045f7310370ff64445d1382620b9ab576",
        "f3047f7dcc47fc1cc0948733bc6f659dc2177c89c162a13a3c50b87f6a06bbfc"),
    "nonlocal-convergence": (
        "6a2ccdc6254b29e1790c33893eaab77b8328bf5492e2dbf80769e8dbcf7f64a2",
        "f3f26d8c0c46ef2d0d3d3cf61812ec3753b5736469075fe0ab061f9e0c2f5cfe"),
    "tl-distance": (
        "a063c0a05465c65ab0d5a3d5d4fe4e08b00a5e6b721b509c3f3d7a1340462b8c",
        "c4285a3b789c42d1cf2666733ca8abc60486694697a0809ba862172b138c6fb3"),
    "bisect": (
        "e56c42e62ef9ffe353f819d58f2db3ba77b3d49bd568639171bfc3b67275fdaa",
        "e754982f73a6519128dd770b57025019992fe1d0616bb5a01025793348ef99fa"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_artifacts(tmp_path, monkeypatch, name):
    cfg, header, rows, figures = RUNS[name]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("PCTV_THREADS", "1")
    run_experiment(name, cfg, str(out1))
    monkeypatch.setenv("PCTV_THREADS", "2")
    run_experiment(name, cfg, str(out2))
    lines = (out1 / "records.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert sorted(os.listdir(out1)) == sorted(["records.csv", "summary.json", *figures])
    tables = [(out1 / artifact).read_bytes() for artifact in ("records.csv", "summary.json")]
    assert tables == [(out2 / artifact).read_bytes()
                      for artifact in ("records.csv", "summary.json")]
    assert tuple(hashlib.sha256(table).hexdigest() for table in tables) == PINNED[name]


def _pickled_map(fn, items):
    """The map of a process pool, in this process: fn, each item and each
    result cross a pickle round trip."""
    fn = pickle.loads(pickle.dumps(fn))
    return [pickle.loads(pickle.dumps(fn(pickle.loads(pickle.dumps(item))))) for item in items]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_task_pickles(tmp_path, monkeypatch, name):
    # each sweep task is a top-level function of its plan, so a process
    # pool can run it, and gives the same bytes
    monkeypatch.setattr(experiments, "_parallel_map", _pickled_map)
    run_experiment(name, RUNS[name][0], str(tmp_path))
    tables = [(tmp_path / artifact).read_bytes() for artifact in ("records.csv", "summary.json")]
    assert tuple(hashlib.sha256(table).hexdigest() for table in tables) == PINNED[name]


def _count_calls(monkeypatch, function):
    """Count the calls to function under every name a pctv module holds it by."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "pctv" or name.startswith("pctv."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_a_run_builds_each_object_once(tmp_path, monkeypatch):
    builders = [build, surface_tension, continuum.nonlocal_rule]
    calls = [_count_calls(monkeypatch, builder) for builder in builders]
    cfg = dict({k: GTV_CFG[k] for k in ("domain", "kernel", "function")}, eps=[0.2, 0.1, 0.05])
    run_experiment("nonlocal-convergence", cfg, str(tmp_path / "out"))
    # one build each of the domain, the density and the kernel
    assert [args[0] for args in calls[0]] == [SHAPES, DENSITIES, KERNELS]
    assert [len(c) for c in calls[1:]] == [1, 3]


def test_builder_keys_are_the_typed_schema_properties():
    # Every key a builder takes has a typed property, and every property
    # but the tag is some builder's key.
    for schema, tag, table in [(config._DOMAIN, "shape", SHAPES),
                               (config._DENSITY, "name", DENSITIES),
                               (config._KERNEL, "name", KERNELS),
                               (config._EPS_RULE, "kind", EPS_RULES)]:
        keys = {param.name for builder in table.values()
                for param in inspect.signature(builder).parameters.values()
                if param.kind is not param.POSITIONAL_ONLY}
        properties = schema["properties"]
        assert set(properties) - {tag} == keys
        assert all("type" in properties[key] for key in keys)


def test_shipped_configs_name_and_pass_every_experiment():
    config_dir = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(f[:-len(".json")] for f in os.listdir(config_dir) if f.endswith(".json"))
    assert names == sorted(EXPERIMENTS)
    for name in names:
        validate_config(name, load_config(os.path.join(config_dir, f"{name}.json")))


def test_shipped_plans_are_data():
    # A plan pickles, as a process pool would send it, and its kernel,
    # density and eps rule compare and hash by value: after the round trip
    # and against a second plan of the same config.
    config_dir = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    for name in EXPERIMENTS:
        cfg = load_config(os.path.join(config_dir, f"{name}.json"))
        planned, again = plan(name, cfg), plan(name, cfg)
        loaded = pickle.loads(pickle.dumps(planned))
        for field in ("profile", "density", "eps"):
            value = getattr(planned, field)
            for other in (getattr(loaded, field), getattr(again, field)):
                assert other == value and hash(other) == hash(value), (name, field)


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


def _kind_digests() -> dict:
    """sha256 of the float64 values of every kernel, density and eps rule kind,
    and of each kernel's surface tension at d = 2 and 3, on fixed probes."""
    base = np.concatenate([[0.0], np.geomspace(1e-4, 1e3, 400), np.linspace(0.0, 3.0, 301)])
    profiles = {  # each with a length scale that the probe radii also take
        "gaussian-0.05": (kernels.gaussian(0.05), 0.05),
        "gaussian-1": (kernels.gaussian(1), 1.0),
        "gaussian-1e-200": (kernels.gaussian(1e-200), 1e-200),
        "step-sum": (kernels.step_sum([0.5, 1.0, 1.5], [2.0, 1.0, 0.25]), 0.5),
        "indicator": (kernels.indicator(0.7), 0.7),
    }
    out = {}
    for key, (profile, scale) in profiles.items():
        radii = [base, scale * base]
        radii += [[np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)] for b in profile.breakpoints]
        out[f"kernel/{key}"] = _digest(profile(np.concatenate(radii)))
        if key != "gaussian-1e-200":  # peaks below the truncation threshold
            out[f"sigma/{key}"] = _digest([surface_tension(profile, d) for d in (2, 3)])
    domains = {"square": unit_box(2), "dumbbell": dumbbell(),
               "polygon": ConvexPolygon([[0.0, 0.0], [2.0, 0.5], [1.5, 1.75], [0.25, 1.0]])}
    for key, domain in domains.items():
        lo, hi = domain.bounding_box()
        points = np.concatenate([domain.quadrature()[0],
                                 lo + (hi - lo) * np.random.default_rng(7).random((500, 2))])
        for name, density in (("uniform", uniform_density(domain)),
                              ("affine-0", affine_density(domain, 0, 1.0)),
                              ("affine-1", affine_density(domain, 1, -0.3))):
            out[f"density/{key}/{name}"] = _digest([*density(points), density.upper])
    ns = np.unique(np.concatenate([np.arange(2, 1001), np.geomspace(2, 10 ** 6, 3000).round()]))
    for kind, args in (("admissible", {}), ("admissible", {"c": 0.7, "gamma": 0.6}),
                       ("borderline", {}), ("borderline", {"c": 2.5}),
                       ("sub-connectivity", {}), ("sub-connectivity", {"factor": 0.8}),
                       ("fixed", {"value": 0.125})):
        for d in (2, 3):
            rule = EPS_RULES[kind](d, **args)
            key = "-".join([kind, *map(str, args.values())])
            out[f"eps/{key}/d{d}"] = _digest([rule(int(n)) for n in ns])
    return out


# What _kind_digests() returns; an evaluation whose bits move changes one.
KIND_DIGESTS = {
    "kernel/gaussian-0.05": "f06f171bcf8cce3e",
    "sigma/gaussian-0.05": "6f7e25f63e07a354",
    "kernel/gaussian-1": "7fda4f54701665fa",
    "sigma/gaussian-1": "19fcd1d79f9fb920",
    "kernel/gaussian-1e-200": "dc1bda27503dbed0",
    "kernel/step-sum": "4ebf66b9e70ee429",
    "sigma/step-sum": "d584bb118626f1ad",
    "kernel/indicator": "4c6d0e630daab076",
    "sigma/indicator": "34808a28929338eb",
    "density/square/uniform": "8ea8d22d11020dfd",
    "density/square/affine-0": "f1958a605643a9c8",
    "density/square/affine-1": "7ad698d2676ad9e3",
    "density/dumbbell/uniform": "d22e5d5e15223b8f",
    "density/dumbbell/affine-0": "6e70a4dbb8c772af",
    "density/dumbbell/affine-1": "4649013b237be764",
    "density/polygon/uniform": "674cfc2ee83705ee",
    "density/polygon/affine-0": "f8ef228a145cf0fc",
    "density/polygon/affine-1": "424819243c25ffdc",
    "eps/admissible/d2": "0d35da609037a3e3",
    "eps/admissible/d3": "b2a08cb9f2981f8d",
    "eps/admissible-0.7-0.6/d2": "de96f4c244a82c1f",
    "eps/admissible-0.7-0.6/d3": "dd65858578ac234a",
    "eps/borderline/d2": "85be3862740cb14f",
    "eps/borderline/d3": "5f5915130d70edbd",
    "eps/borderline-2.5/d2": "87c1bfc2b727dd00",
    "eps/borderline-2.5/d3": "2e5cba97f6c4c4aa",
    "eps/sub-connectivity/d2": "06baaa02710640b0",
    "eps/sub-connectivity/d3": "ff23d9801a3e63a5",
    "eps/sub-connectivity-0.8/d2": "951ded0b0729eddc",
    "eps/sub-connectivity-0.8/d3": "8df98d32d37da70d",
    "eps/fixed-0.125/d2": "9c0b57a67b611fb8",
    "eps/fixed-0.125/d3": "9c0b57a67b611fb8",
}


def test_every_kind_keeps_its_bits():
    assert _kind_digests() == KIND_DIGESTS


def test_bisect_accepts_any_even_n():
    assert validate_config("bisect", dict(BISECT_CFG, n=[6002]))["n"] == [6002]


def test_one_shape_gets_one_answer(tmp_path):
    # The unit square written four ways is one domain: the same tl-distance
    # validation, the same two reference cuts and the same gtv-convergence
    # numbers; only the domain label in records.csv differs.
    squares = [{"shape": "unit-box", "dimension": 2},
               {"shape": "box", "lo": [0, 0], "hi": [1, 1]},
               {"shape": "box-union", "boxes": [{"lo": [0, 0], "hi": [1, 1]}]},
               {"shape": "box-union", "boxes": [{"lo": [0, 0], "hi": [0.5, 1]},
                                                {"lo": [0.5, 0], "hi": [1, 1]}]}]
    points = np.random.default_rng(0).random((40, 2))
    answers = []
    for i, square in enumerate(squares):
        planned = plan("tl-distance", dict(TL_CFG, domain=square))
        validated = planned.config
        cuts = reference_partitions(planned.domain, points)
        run_experiment("gtv-convergence", dict(GTV_CFG, domain=square), str(tmp_path / str(i)))
        with open(tmp_path / str(i) / "records.csv", encoding="utf-8", newline="") as handle:
            rows = [{k: v for k, v in row.items() if k != "domain"}
                    for row in csv.DictReader(handle)]
        answers.append(({k: v for k, v in validated.items() if k != "domain"},
                        [cut.tolist() for cut in cuts], rows))
    assert len(answers[0][1]) == 2
    assert all(answer == answers[0] for answer in answers[1:])
    # The square as a polygon is the same shape as well.  Its continuum
    # reference comes from the polygon's own quadrature and may differ in
    # the last bit, so only its validation and cuts are compared.
    polygon = {"shape": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    planned = plan("tl-distance", dict(TL_CFG, domain=polygon))
    validated = planned.config
    cuts = reference_partitions(planned.domain, points)
    assert ({k: v for k, v in validated.items() if k != "domain"},
            [cut.tolist() for cut in cuts]) == answers[0][:2]


_NUMBER = st.floats(min_value=-3.0, max_value=3.0)
_POSITIVE = st.floats(min_value=0.0, max_value=3.0, exclude_min=True)
_VECTOR = st.lists(_NUMBER, min_size=1, max_size=3)
_SCHEDULE = st.lists(st.integers(min_value=2, max_value=7000), max_size=3)
_SEEDS = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=2)


def _mostly(valid, anything):
    """Draw from valid three times in four, from anything otherwise.

    Most drawn configs then pass validation and run, and a share still
    exercises rejection.
    """
    return st.sampled_from([valid, valid, valid, anything]).flatmap(lambda s: s)


def _vectors(d):
    return st.lists(_NUMBER, min_size=d, max_size=d)


@st.composite
def _box(draw, d):
    """lo plus a positive extent on each axis.

    Every other box is a cube, the only box that bisect takes.
    """
    lo = draw(_vectors(d))
    extents = st.floats(0.1, 3.0)
    if draw(st.booleans()):
        extent = [draw(extents)] * d
    else:
        extent = draw(st.lists(extents, min_size=d, max_size=d))
    return {"lo": lo, "hi": [a + e for a, e in zip(lo, extent)]}


def _connected_boxes(d):
    """One to three boxes that all hold the cube [0.5, 0.6]^d, so their
    union is connected."""
    return st.lists(st.fixed_dictionaries({
        "lo": st.lists(st.floats(-1.0, 0.5), min_size=d, max_size=d),
        "hi": st.lists(st.floats(0.6, 2.0), min_size=d, max_size=d),
    }), min_size=1, max_size=3)


@st.composite
def _convex_polygon(draw):
    """Three to six points at increasing angles on a circle."""
    k = draw(st.integers(3, 6))
    cx, cy = draw(_NUMBER), draw(_NUMBER)
    r = draw(st.floats(0.1, 3.0))
    jitter = draw(st.lists(st.floats(0.0, 0.5), min_size=k, max_size=k))
    angles = [2.0 * math.pi * (i + j) / k for i, j in enumerate(jitter)]
    return [[cx + r * math.cos(a), cy + r * math.sin(a)] for a in angles]


def _domains(max_dim):
    """Domain specs of dimension at most max_dim.

    Most boxes, unions and polygons are valid; the rest are any corners
    and any vertices.
    """
    dims = st.integers(2, min(max_dim, 3))
    vector = st.lists(_NUMBER, min_size=1, max_size=min(max_dim, 3))
    corners = st.fixed_dictionaries({"lo": vector, "hi": vector})
    return st.one_of(
        st.fixed_dictionaries({"shape": st.just("unit-box")},
                              optional={"dimension": st.integers(1, max_dim)}),
        _mostly(dims.flatmap(_box), corners).map(lambda box: {"shape": "box", **box}),
        st.fixed_dictionaries({"shape": st.just("dumbbell")}, optional={
            "width": _mostly(st.floats(0.05, 1.0), _POSITIVE), "length": _POSITIVE}),
        st.fixed_dictionaries({
            "shape": st.just("box-union"),
            "boxes": _mostly(dims.flatmap(_connected_boxes),
                             st.lists(corners, min_size=1, max_size=3)),
        }),
        st.fixed_dictionaries({
            "shape": st.just("polygon"),
            "vertices": _mostly(_convex_polygon(), st.lists(vector, min_size=3, max_size=6)),
        }),
    )


def _dimension(domain):
    """The dimension a domain spec asks for."""
    shape = domain["shape"]
    if shape == "unit-box":
        return domain.get("dimension", 2)
    if shape == "box":
        return len(domain["lo"])
    if shape == "box-union":
        return len(domain["boxes"][0]["lo"])
    return 2


# Fields that depend on the domain are functions of its dimension d.
def _densities(d):
    return st.one_of(
        st.fixed_dictionaries({"name": st.just("uniform")}),
        st.fixed_dictionaries({"name": st.just("affine")}, optional={
            "axis": _mostly(st.integers(0, d - 1), st.integers(0, 4)),
            "slope": _mostly(st.floats(-0.1, 0.1), _NUMBER),
        }),
    )


def _functions(d):
    return st.fixed_dictionaries({"coeffs": _mostly(_vectors(d), _VECTOR)},
                                 optional={"offset": _NUMBER})


def _sets(d):
    return st.fixed_dictionaries({"axis": _mostly(st.integers(0, d - 1), st.integers(0, 3)),
                                  "threshold": _NUMBER})


@st.composite
def _step_sum(draw):
    """Positive increasing radii with positive non-increasing heights."""
    k = draw(st.integers(1, 3))
    steps = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    heights = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
    return {"name": "step-sum", "radii": list(itertools.accumulate(steps)),
            "heights": sorted(heights, reverse=True)}


_DOMAINS = _domains(8)
_UNIT_CUBES = st.fixed_dictionaries({"shape": st.just("unit-box")},
                                    optional={"dimension": st.integers(2, 3)})
_KERNELS = st.one_of(
    st.fixed_dictionaries({"name": st.just("indicator")}, optional={"radius": _POSITIVE}),
    st.fixed_dictionaries({"name": st.just("gaussian")}, optional={"width": _POSITIVE}),
    _mostly(_step_sum(), st.fixed_dictionaries({
        "name": st.just("step-sum"),
        "radii": st.lists(_NUMBER, min_size=1, max_size=3),
        "heights": st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    })),
)
_EPS_RULES = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("admissible")},
        optional={"c": _POSITIVE,
                  "gamma": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)}),
    st.fixed_dictionaries({"kind": st.just("borderline")}, optional={"c": _POSITIVE}),
    st.fixed_dictionaries({"kind": st.just("sub-connectivity")},
                          optional={"factor": _POSITIVE}),
    st.fixed_dictionaries({"kind": st.just("fixed"), "value": _POSITIVE}),
)
_COMMON = {"domain": _DOMAINS, "density": _densities, "kernel": _KERNELS}
_CONFIGS = {
    "gtv-convergence": dict(_COMMON, function=_functions, n=_SCHEDULE,
                            eps_rule=_EPS_RULES, seeds=_SEEDS),
    "perimeter-convergence": dict(_COMMON, n=_SCHEDULE, eps_rule=_EPS_RULES, seeds=_SEEDS,
                                  set=_sets),
    "nonlocal-convergence": dict(_COMMON, function=_functions,
                                 eps=st.lists(_POSITIVE, min_size=1, max_size=3)),
    # the experiment takes only unit boxes
    "tl-distance": dict(domain=_mostly(_UNIT_CUBES, _DOMAINS), density=_densities,
                        function=_functions, grid=st.integers(2, 6), n=_SCHEDULE,
                        seeds=_SEEDS),
    "matching-scaling": dict(dimension=st.integers(1, 8), n=_SCHEDULE, seeds=_SEEDS),
    "connectivity": dict(_COMMON, n=st.integers(2, 7000),
                         factors=st.lists(_POSITIVE, min_size=1, max_size=3),
                         seeds=_SEEDS),
    "bisect": dict(_COMMON, n=_SCHEDULE, eps_rule=_EPS_RULES, seeds=_SEEDS),
}
_OPTIONAL_KEYS = {"density", "domain"}


@st.composite
def _schema_valid(draw, name, **changes):
    """A config of the named experiment, with ``changes`` to its fields,
    that passes the experiment's schema.

    An optional domain or density is drawn or left out; a field that is a
    function of the dimension is drawn after the domain, for its dimension.
    """
    required = SCHEMAS[name]["required"]
    cfg = {}
    for key, field in dict(_CONFIGS[name], **changes).items():
        if key in _OPTIONAL_KEYS and key not in required and not draw(st.booleans()):
            continue
        if callable(field):
            field = field(_dimension(cfg.get("domain", {"shape": "unit-box"})))
        cfg[key] = draw(field)
    assume(jsonschema.Draft202012Validator(SCHEMAS[name]).is_valid(cfg))
    return cfg


_SMALL_SEEDS = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3)
_SMALL_N = st.lists(st.integers(2, 400), min_size=1, max_size=3)


@st.composite
def _small_matching_configs(draw):
    d = draw(st.integers(1, 8))
    sides = st.integers(1, math.floor(400 ** (1 / d) + 1e-9))
    return {"dimension": d, "n": draw(st.lists(sides.map(lambda k: k ** d),
                                               min_size=1, max_size=3)),
            "seeds": draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))}


def _run_or_config_error(name, cfg):
    with tempfile.TemporaryDirectory() as out:
        try:
            run_experiment(name, cfg, out)
        except ConfigError as exc:
            assert str(exc).startswith("/")
            assert os.listdir(out) == []
            event(f"config error at {str(exc).split(':')[0]}")
        else:
            assert {"records.csv", "summary.json"} <= set(os.listdir(out))
            event("ran")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(EXPERIMENTS).flatmap(
    lambda name: st.tuples(st.just(name), _schema_valid(name))))
@example(("gtv-convergence",  # the box volume underflows to 0.0
          dict(GTV_CFG, domain={"shape": "box", "lo": [0, 0], "hi": [1e-170, 1e-170]})))
def test_schema_valid_configs_pass_or_raise_config_errors(case):
    name, cfg = case
    try:
        resolved = validate_config(name, cfg)
    except ConfigError as exc:
        assert str(exc).startswith("/")
        event(f"{name} rejected")
    else:
        assert set(cfg) <= set(resolved)
        event(f"{name} valid")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_schema_valid("connectivity", n=st.integers(2, 400), seeds=_SMALL_SEEDS))
@example({"kernel": {"name": "indicator"}, "n": 9, "factors": [1.0, 5e-324], "seeds": [0]})
@example({"kernel": {"name": "indicator"}, "n": 2, "factors": [1e-161], "seeds": [0]})
def test_small_connectivity_configs_run_or_raise_config_errors(cfg):
    _run_or_config_error("connectivity", cfg)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_small_matching_configs())
def test_small_matching_configs_run_or_raise_config_errors(cfg):
    _run_or_config_error("matching-scaling", cfg)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_schema_valid("gtv-convergence", n=_SMALL_N, seeds=_SMALL_SEEDS))
@example(dict(GTV_CFG,  # sample_iid used to give up on this sliver mid-run
              domain={"shape": "polygon", "vertices": [[0, 0], [3, 3], [3, 3.000001]]}))
def test_small_gtv_configs_run_or_raise_config_errors(cfg):
    _run_or_config_error("gtv-convergence", cfg)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_schema_valid("perimeter-convergence", n=_SMALL_N, seeds=_SMALL_SEEDS))
def test_small_perimeter_configs_run_or_raise_config_errors(cfg):
    _run_or_config_error("perimeter-convergence", cfg)


# Planar domains.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_schema_valid("nonlocal-convergence", domain=_domains(2),
                     eps=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3)))
def test_small_nonlocal_configs_run_or_raise_config_errors(cfg):
    _run_or_config_error("nonlocal-convergence", cfg)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_schema_valid("tl-distance", domain=_mostly(_UNIT_CUBES, _domains(3)),
                     n=_SMALL_N, seeds=_SMALL_SEEDS))
def test_small_tl_distance_configs_run_or_raise_config_errors(cfg):
    _run_or_config_error("tl-distance", cfg)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_schema_valid("bisect", domain=_domains(3),
                     n=st.lists(st.integers(1, 50).map(lambda k: 2 * k), min_size=1, max_size=3),
                     seeds=_SMALL_SEEDS, restarts=st.integers(1, 4),
                     reference_size=st.integers(10, 100)))
def test_small_bisect_configs_run_or_raise_config_errors(cfg):
    _run_or_config_error("bisect", cfg)


def test_scatter_figures_are_valid_and_deterministic(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(size=(40, 2))
    labels = pts[:, 0] < 0.5
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    scatter_figure(p1, pts, labels, title="cut")
    scatter_figure(p2, pts, labels, title="cut")
    assert p1.read_bytes() == p2.read_bytes()
    root = ET.parse(p1).getroot()
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 40


def test_line_figures_support_log_axes(tmp_path):
    path = tmp_path / "curve.svg"
    line_figure(path, [100, 1000, 10000], [0.3, 0.1, 0.03], "median",
                title="error", xlabel="n", ylabel="err", log=True)
    root = ET.parse(path).getroot()
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert polylines


@pytest.mark.parametrize("xs,ys,log", [([100], [0.3], True), ([0.5], [0.3], False),
                                       ([100, 1000], [0.3, 0.0], True),
                                       ([100, 1000], [0.3, -0.1], True)])
def test_line_figures_skip_what_they_cannot_draw(tmp_path, xs, ys, log):
    # one point makes no line, and log axes have no place for a value <= 0
    path = tmp_path / "curve.svg"
    line_figure(path, xs, ys, "median", "error", "n", "err", log=log)
    assert not path.exists()
    line_figure(path, xs + [2000], [0.2] * (len(ys) + 1), "median", "error", "n", "err", log=log)
    assert path.exists()
