"""Experiment configuration: JSON schemas, validation, defaults, plans.

Each experiment name owns a schema, built from the one schema of each
key it takes, and its keys without a default are required.  Validation
failures surface as ConfigError with a JSON-pointer path to the
offending field, so a typo in a nested key points at itself rather than
at the whole file.  A domain shape, density, kernel or eps rule kind
takes the keys of its builder's signature, each default sits on the
schema property it fills, and every number must be finite.  After the
schema, ``plan`` builds the domain, density, kernel, eps rule, function,
surface tension and nonlocal rules the experiment uses and runs its own
checks on them, so config errors surface before any work starts.  The
run then uses the objects of that plan; nothing is built twice.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
import sys
from dataclasses import dataclass

import jsonschema
import numpy as np

from .bisection import reference_partitions
from .continuum import AffineFunction, affine_function, nonlocal_rule
from .errors import ConfigError, DivergentKernelError, PCTVError
from .geometry import (
    DENSITIES,
    MIN_ACCEPTANCE,
    SHAPES,
    Density,
    Domain,
    acceptance_rate,
    fills_bounding_box,
    uniform_density,
    unit_box,
)
from .graph import EPS_RULES, EpsRule, candidate_pair_bound, connectivity_scale
from .kernels import (
    KERNELS,
    KernelProfile,
    effective_support,
    scaled_from_distance,
    surface_tension,
)
from .transport import check_dense_costs


# A graph holds about 24 bytes per candidate pair at its peak (21-25
# measured at n = 32000): the pair search returns two int64 per pair, and
# the sorted key adds 4.  So 2^24 pairs, 2.5 times those of the largest
# shipped graph, take about 400 MB in each task.
MAX_PAIRS = 1 << 24

# A bisection holds one label cell per vertex and start: the descent's
# peak grows by about 48 bytes per cell (tracemalloc at n = 1000 and 4000,
# 8 to 64 starts), and by up to about 240 at n = 2, where each start's
# seed sequence, generator and row outweigh its vertices.  So 2^21 cells
# take about 100 MB in each task, and 500 MB at the smallest n.
MAX_LABEL_CELLS = 1 << 21


def _schema(properties: dict, required: list | None = None) -> dict:
    """Schema of an object of these properties and no other; by default the
    ones without a default are required."""
    if required is None:
        required = [key for key, prop in properties.items() if "default" not in prop]
    return {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


def _tagged(tag: str, table: dict, properties: dict) -> dict:
    """Schema of an object whose ``tag`` names a builder of table.

    A kind's keys are its builder's parameters that are not
    positional-only (the plan passes those), and the ones without a
    default are required; a kind takes no key of another kind.
    """
    kinds = {kind: [param for param in inspect.signature(builder).parameters.values()
                    if param.kind is not param.POSITIONAL_ONLY]
             for kind, builder in table.items()}
    return {
        **_schema({tag: {"enum": list(table)}, **properties}, [tag]),
        "allOf": [
            {
                "if": {"properties": {tag: {"const": kind}}, "required": [tag]},
                "then": {
                    "required": [param.name for param in params if param.default is param.empty],
                    "propertyNames": {"enum": [tag, *(param.name for param in params)]},
                },
            }
            for kind, params in kinds.items()
        ],
    }


_DOMAIN = _tagged("shape", SHAPES, {
    "dimension": {"type": "integer", "minimum": 1, "maximum": 8},
    "lo": {"type": "array", "items": {"type": "number"}, "minItems": 1, "maxItems": 8},
    "hi": {"type": "array", "items": {"type": "number"}, "minItems": 1, "maxItems": 8},
    "width": {"type": "number", "exclusiveMinimum": 0},
    "length": {"type": "number", "exclusiveMinimum": 0},
    "boxes": {
        "type": "array",
        "items": {
            "type": "object",
            "properties": {
                "lo": {"type": "array", "items": {"type": "number"}, "maxItems": 8},
                "hi": {"type": "array", "items": {"type": "number"}, "maxItems": 8},
            },
            "required": ["lo", "hi"],
            "additionalProperties": False,
        },
        "minItems": 1,
    },
    "vertices": {
        "type": "array",
        "items": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "minItems": 3,
    },
})

_DENSITY = {
    **_tagged("name", DENSITIES,
              {"axis": {"type": "integer", "minimum": 0}, "slope": {"type": "number"}}),
    "default": {"name": "uniform"},
}

_KERNEL = _tagged("name", KERNELS, {
    "radius": {"type": "number", "exclusiveMinimum": 0},
    "width": {"type": "number", "exclusiveMinimum": 0},
    "radii": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    "heights": {
        "type": "array",
        "items": {"type": "number", "minimum": 0},
        "minItems": 1,
    },
})

_EPS_RULE = _tagged("kind", EPS_RULES, {
    "c": {"type": "number", "exclusiveMinimum": 0},
    "gamma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "factor": {"type": "number", "exclusiveMinimum": 0},
    "value": {"type": "number", "exclusiveMinimum": 0},
})

_POSITIVE = {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1}

# The schema of every experiment key; an experiment takes some of them.
_KEYS = {
    "domain": _DOMAIN,
    "density": _DENSITY,
    "kernel": _KERNEL,
    "function": _schema({
        "coeffs": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "offset": {"type": "number"},
    }, ["coeffs"]),
    "set": _schema({"axis": {"type": "integer", "minimum": 0}, "threshold": {"type": "number"}}),
    "dimension": _DOMAIN["properties"]["dimension"],
    "n": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1},
    "eps_rule": _EPS_RULE,
    "eps": _POSITIVE,
    "p": {"type": "number", "minimum": 1, "default": 2},
    "grid": {"type": "integer", "minimum": 2},
    "factors": _POSITIVE,
    "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
    "restarts": {"type": "integer", "minimum": 1, "default": 32},
    "reference_size": {"type": "integer", "minimum": 10, "default": 2000},
}


def _experiment(*keys: str, **own: dict) -> dict:
    """Schema of an experiment of these keys, each from _KEYS unless own
    gives it; the keys without a default are required."""
    return _schema({key: own.get(key, _KEYS[key]) for key in keys})


SCHEMAS = {
    "gtv-convergence": _experiment("domain", "density", "kernel", "function", "n", "eps_rule",
                                   "seeds"),
    "perimeter-convergence": _experiment("domain", "density", "kernel", "set", "n", "eps_rule",
                                         "seeds"),
    "nonlocal-convergence": _experiment("domain", "density", "kernel", "function", "eps"),
    "tl-distance": _experiment("domain", "density", "function", "p", "grid", "n", "seeds"),
    "matching-scaling": _experiment("dimension", "n", "seeds"),
    "connectivity": _experiment("domain", "density", "kernel", "n", "factors", "seeds",
                                domain={**_DOMAIN, "default": {"shape": "unit-box"}},
                                n={"type": "integer", "minimum": 2}),
    "bisect": _experiment("domain", "density", "kernel", "n", "eps_rule", "seeds", "restarts",
                          "reference_size"),
}
EXPERIMENTS = tuple(SCHEMAS)

# JSON Schema counts 1.0 as an integer, but counts, seeds and indices
# must be Python ints before any work starts, so only JSON integers are.
# Python's json reads NaN, Infinity, 1e400 and integers of any size, and
# the runs take numbers and counts into float arithmetic, so an integer or
# number must lie within the finite float range.
_TYPES = jsonschema.Draft202012Validator.TYPE_CHECKER
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=_TYPES.redefine_many({
        "integer": lambda _, value: (isinstance(value, int) and not isinstance(value, bool)
                                     and abs(value) <= sys.float_info.max),
        "number": lambda _, value: (_TYPES.is_type(value, "number")
                                    and abs(value) <= sys.float_info.max),
    }),
)


def _pointer(error: jsonschema.exceptions.ValidationError) -> str:
    return "/" + "/".join(str(part) for part in error.absolute_path)


@dataclass(frozen=True)
class Plan:
    """A validated run: the config with its defaults, as summary.json prints
    it, and the objects built from it, which pickle: the profile, density
    and eps(n) rule ``eps`` compare by value, and ``rules`` holds one
    nonlocal rule per eps.  A field that the experiment does not use is None."""

    config: dict
    label: str | None = None
    domain: Domain | None = None
    density: Density | None = None
    profile: KernelProfile | None = None
    function: AffineFunction | None = None
    sigma: float | None = None
    eps: EpsRule | None = None
    rules: tuple | None = None


def plan(experiment: str, config: dict) -> Plan:
    """Validate a raw config and build what its run uses.

    Raises ConfigError whose message starts with the JSON-pointer path
    of the first (most specific) violation.
    """
    if experiment not in SCHEMAS:
        known = ", ".join(EXPERIMENTS)
        raise ConfigError(f"/: unknown experiment {experiment!r} (known: {known})")
    if not isinstance(config, dict):
        raise ConfigError("/: config must be a JSON object")
    schema = SCHEMAS[experiment]
    error = jsonschema.exceptions.best_match(_Validator(schema).iter_errors(config))
    if error is not None:
        raise ConfigError(f"{_pointer(error)}: {error.message}")
    resolved = copy.deepcopy(config)
    for key, prop in schema["properties"].items():
        if "default" in prop:
            resolved.setdefault(key, copy.deepcopy(prop["default"]))
    return _preflight(experiment, resolved)


def validate_config(experiment: str, config: dict) -> dict:
    """Validate a raw config and return a copy with defaults filled in."""
    return plan(experiment, config).config


def build(table: dict, tag: str, spec: dict, *args):
    """Call the builder of table that spec[tag] names, with args and the
    spec's other keys; a key the spec leaves out takes its default from
    the builder's signature."""
    return table[spec[tag]](*args, **{key: value for key, value in spec.items() if key != tag})


def _built(pointer: str, fn, *args):
    """Call fn, reporting its ValueError or PCTVError at pointer.

    A divergent kernel is reported at /kernel whichever check finds it.
    """
    try:
        return fn(*args)
    except DivergentKernelError as exc:
        raise ConfigError(f"/kernel: {exc}") from None
    except (ValueError, PCTVError) as exc:
        raise ConfigError(f"{pointer}: {exc}") from None


def _preflight(experiment: str, cfg: dict) -> Plan:
    """The checks that need built objects, and the plan of what they built.

    Nothing is sampled; the one integral is the kernel's surface tension,
    a few milliseconds, for the runs that compare against it.  The
    nonlocal rules are built, so their sizes are known, but not evaluated.
    """
    d = cfg.get("dimension")
    built = {"config": cfg}
    if "domain" in cfg:
        domain = _built("/domain", build, SHAPES, "shape", cfg["domain"])
        volume = domain.volume()
        if not volume >= np.finfo(float).tiny:  # a density would divide by it
            raise ConfigError(f"/domain: volume {volume:.3g} is below the smallest normal float")
        d = domain.dimension
        if "axis" in cfg["density"] and cfg["density"]["axis"] >= d:
            raise ConfigError("/density/axis: axis is outside the domain dimension")
        density = _built("/density", build, DENSITIES, "name", cfg["density"], domain)
        # At 10 * MIN_ACCEPTANCE sample_iid's 50000-proposal warmup expects
        # 50 acceptances and gives up only below 5.  Every run but the
        # nonlocal one samples.
        if (experiment != "nonlocal-convergence"
                and not acceptance_rate(domain, density) >= 10 * MIN_ACCEPTANCE):
            raise ConfigError("/domain: rejection sampling would accept under "
                              f"{10 * MIN_ACCEPTANCE:g} of the proposals in the bounding box")
        shape = cfg["domain"]["shape"]
        label = f"{shape}-{d}d" if shape == "unit-box" else shape
        built.update(label=label, domain=domain, density=density)
    if "kernel" in cfg:
        profile = built["profile"] = _built("/kernel", build, KERNELS, "name", cfg["kernel"])
        _built("/kernel", effective_support, profile, d)
        if experiment in ("gtv-convergence", "perimeter-convergence",
                          "nonlocal-convergence"):  # the runs that compare with sigma
            built["sigma"] = _built("/domain", surface_tension, profile, d)
    if "function" in cfg:
        if len(cfg["function"]["coeffs"]) != d:
            raise ConfigError("/function/coeffs: length must match the domain dimension")
        built["function"] = affine_function(**cfg["function"])
    if experiment == "nonlocal-convergence":
        for i, eps in enumerate(cfg["eps"]):
            _built(f"/eps/{i}", scaled_from_distance, profile, eps, 0.0, d)
        built["rules"] = tuple(_built("/domain", nonlocal_rule, domain, profile, eps,
                                      built["function"].coeffs) for eps in cfg["eps"])
    if "set" in cfg and cfg["set"]["axis"] >= d:
        raise ConfigError("/set/axis: axis is outside the domain dimension")
    if experiment == "tl-distance":
        lo, hi = domain.bounding_box()
        if not (fills_bounding_box(domain) and np.allclose(lo, 0.0)
                and np.allclose(hi, 1.0)):
            raise ConfigError(
                "/domain: the tl-distance experiment compares against a unit-box grid")
        for i, n in enumerate(cfg["n"]):
            _built(f"/n/{i}", check_dense_costs, n, cfg["grid"] ** d)
    if experiment == "matching-scaling":
        domain = unit_box(d)
        built.update(domain=domain, density=uniform_density(domain))
        for i, n in enumerate(cfg["n"]):
            if round(n ** (1.0 / d)) ** d != n:
                raise ConfigError(f"/n/{i}: {n} is not a perfect {d}-th power")
    # eps must be positive and eps^-d finite at every eps a run will use
    if experiment == "connectivity":
        scale = connectivity_scale(cfg["n"], d)
        for i, factor in enumerate(cfg["factors"]):
            _built(f"/factors/{i}", scaled_from_distance, profile, factor * scale, 0.0, d)
    if "eps_rule" in cfg:
        rule = built["eps"] = build(EPS_RULES, "kind", cfg["eps_rule"], d)
        # The graph TV and the bisection cut sums add at most n^2 terms, each
        # at most the peak weight times the range of u: 1 for a set or label
        # indicator, sum |a_k| (hi_k - lo_k) for an affine u on the bounding box.
        spread = 1.0
        if "function" in cfg:
            lo, hi = domain.bounding_box()
            spread = sum(abs(a) * (h - l) for a, l, h
                         in zip(built["function"].coeffs.tolist(), lo.tolist(), hi.tolist()))
        for i, n in enumerate(cfg["n"]):
            eps = rule(n)
            peak = float(_built("/eps_rule", scaled_from_distance, profile, eps, 0.0, d))
            # a product of Python floats overflows to inf, with no warning
            if not math.isfinite(float(n) * float(n) * peak * spread):
                raise ConfigError(f"/eps_rule: at n = {n} the graph TV sum can reach n^2 x "
                                  f"{peak:.3g} (peak weight) x {spread:.3g} (range of values), "
                                  "which overflows")
            pairs = candidate_pair_bound(n, d, profile, eps, density.upper)
            if pairs > MAX_PAIRS:
                raise ConfigError(f"/n/{i}: at eps = {eps:.3g} the graph of {n} points can "
                                  f"hold about {pairs:.3g} candidate pairs, over the limit "
                                  f"of {MAX_PAIRS} per graph")
    if experiment == "bisect":
        for i, n in enumerate(cfg["n"]):
            if n % 2:
                raise ConfigError(f"/n/{i}: bisection needs an even n, got {n}")
            # TL1 scoring holds an n x reference_size cost matrix
            _built(f"/n/{i}", check_dense_costs, n, cfg["reference_size"])
        _built("/domain", reference_partitions, domain, np.empty((0, d)))
        cells = max(cfg["n"]) * (cfg["restarts"] + 1)  # the restarts and one packed start
        if cells > MAX_LABEL_CELLS:
            raise ConfigError(f"/restarts: {cfg['restarts']} restarts at n = {max(cfg['n'])} "
                              f"hold {cells} label cells, over the limit of {MAX_LABEL_CELLS}")
    return Plan(**built)


def load_config(path: str) -> dict:
    """Read a JSON config file, wrapping parse errors as ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:  # bad JSON or UTF-8, or an integer of over 4300 digits
        raise ConfigError(f"/: {path} is not valid JSON ({exc})") from None
