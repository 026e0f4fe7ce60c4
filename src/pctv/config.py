"""Experiment configuration: JSON schemas, validation, defaults, plans.

Each experiment name owns a schema; validation failures surface as
ConfigError with a JSON-pointer path to the offending field, so a typo
in a nested key points at itself rather than at the whole file.  After
the schema, ``plan`` builds the domain, density, kernel, function,
surface tension and nonlocal rules the experiment uses and runs its own
checks on them, so config errors surface before any work starts.  The
run then uses the objects of that plan; nothing is built twice.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import jsonschema
import numpy as np

from .bisection import reference_partitions
from .continuum import AffineFunction, affine_function, nonlocal_rule
from .errors import ConfigError, DivergentKernelError, PCTVError
from .geometry import (
    MIN_ACCEPTANCE,
    Density,
    Domain,
    acceptance_rate,
    density_from_config,
    domain_from_config,
    fills_bounding_box,
)
from .graph import connectivity_scale, eps_rule
from .kernels import KernelProfile, effective_support, scaled_from_distance, surface_tension
from .kernels import from_config as kernel_from_config
from .transport import check_dense_costs

def _tagged(tag: str, kinds: dict, properties: dict) -> dict:
    """Schema of an object whose ``tag`` names its kind.

    kinds maps each kind to (required keys, optional keys); a kind must
    have all of its required keys and takes no key of another kind.
    """
    return {
        "type": "object",
        "properties": {tag: {"enum": list(kinds)}, **properties},
        "required": [tag],
        "additionalProperties": False,
        "allOf": [
            {
                "if": {"properties": {tag: {"const": kind}}, "required": [tag]},
                "then": {
                    "required": list(required),
                    "propertyNames": {"enum": [tag, *required, *optional]},
                },
            }
            for kind, (required, optional) in kinds.items()
        ],
    }


_DOMAIN = _tagged(
    "shape",
    {
        "unit-box": ((), ("dimension",)),
        "box": (("lo", "hi"), ()),
        "dumbbell": ((), ("width", "length")),
        "box-union": (("boxes",), ()),
        "polygon": (("vertices",), ()),
    },
    {
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
            "items": {"type": "array", "items": {"type": "number"}},
            "minItems": 3,
        },
    },
)

_DENSITY = _tagged(
    "name",
    {"uniform": ((), ()), "affine": ((), ("axis", "slope"))},
    {"axis": {"type": "integer", "minimum": 0}, "slope": {"type": "number"}},
)

_KERNEL = _tagged(
    "name",
    {
        "indicator": ((), ("radius",)),
        "gaussian": ((), ("width",)),
        "step-sum": (("radii", "heights"), ()),
    },
    {
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "radii": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "heights": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 1,
        },
    },
)

_EPS_RULE = _tagged(
    "kind",
    {
        "admissible": ((), ("c", "gamma")),
        "borderline": ((), ("c",)),
        "sub-connectivity": ((), ("factor",)),
        "fixed": (("value",), ()),
    },
    {
        "c": {"type": "number", "exclusiveMinimum": 0},
        "gamma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "factor": {"type": "number", "exclusiveMinimum": 0},
        "value": {"type": "number", "exclusiveMinimum": 0},
    },
)

_FUNCTION = {
    "type": "object",
    "properties": {
        "coeffs": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "offset": {"type": "number"},
    },
    "required": ["coeffs"],
    "additionalProperties": False,
}

_SEEDS = {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1}
_N_SCHEDULE = {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1}


def _schema(properties: dict, required: list) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


SCHEMAS = {
    "gtv-convergence": _schema(
        {
            "domain": _DOMAIN,
            "density": _DENSITY,
            "kernel": _KERNEL,
            "function": _FUNCTION,
            "n": _N_SCHEDULE,
            "eps_rule": _EPS_RULE,
            "seeds": _SEEDS,
        },
        ["domain", "kernel", "function", "n", "eps_rule", "seeds"],
    ),
    "perimeter-convergence": _schema(
        {
            "domain": _DOMAIN,
            "density": _DENSITY,
            "kernel": _KERNEL,
            "set": _schema(
                {
                    "axis": {"type": "integer", "minimum": 0},
                    "threshold": {"type": "number"},
                },
                ["axis", "threshold"],
            ),
            "n": _N_SCHEDULE,
            "eps_rule": _EPS_RULE,
            "seeds": _SEEDS,
        },
        ["domain", "kernel", "set", "n", "eps_rule", "seeds"],
    ),
    "nonlocal-convergence": _schema(
        {
            "domain": _DOMAIN,
            "density": _DENSITY,
            "kernel": _KERNEL,
            "function": _FUNCTION,
            "eps": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 1,
            },
        },
        ["domain", "kernel", "function", "eps"],
    ),
    "tl-distance": _schema(
        {
            "domain": _DOMAIN,
            "density": _DENSITY,
            "function": _FUNCTION,
            "p": {"type": "number", "minimum": 1},
            "grid": {"type": "integer", "minimum": 2},
            "n": _N_SCHEDULE,
            "seeds": _SEEDS,
        },
        ["domain", "function", "grid", "n", "seeds"],
    ),
    "matching-scaling": _schema(
        {
            "dimension": {"type": "integer", "minimum": 1, "maximum": 8},
            "n": _N_SCHEDULE,
            "seeds": _SEEDS,
        },
        ["dimension", "n", "seeds"],
    ),
    "connectivity": _schema(
        {
            "domain": _DOMAIN,
            "density": _DENSITY,
            "kernel": _KERNEL,
            "n": {"type": "integer", "minimum": 2},
            "factors": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 1,
            },
            "seeds": _SEEDS,
        },
        ["kernel", "n", "factors", "seeds"],
    ),
    "bisect": _schema(
        {
            "domain": _DOMAIN,
            "density": _DENSITY,
            "kernel": _KERNEL,
            "n": _N_SCHEDULE,
            "eps_rule": _EPS_RULE,
            "seeds": _SEEDS,
            "restarts": {"type": "integer", "minimum": 1},
            "reference_size": {"type": "integer", "minimum": 10},
        },
        ["domain", "kernel", "n", "eps_rule", "seeds"],
    ),
}
EXPERIMENTS = tuple(SCHEMAS)

DEFAULTS = {
    "gtv-convergence": {"density": {"name": "uniform"}},
    "perimeter-convergence": {"density": {"name": "uniform"}},
    "nonlocal-convergence": {"density": {"name": "uniform"}},
    "tl-distance": {"density": {"name": "uniform"}, "p": 2},
    "matching-scaling": {},
    "connectivity": {
        "domain": {"shape": "unit-box", "dimension": 2},
        "density": {"name": "uniform"},
    },
    "bisect": {
        "density": {"name": "uniform"},
        "restarts": 32,
        "reference_size": 2000,
    },
}


def _pointer(error: jsonschema.exceptions.ValidationError) -> str:
    return "/" + "/".join(str(part) for part in error.absolute_path)


@dataclass(frozen=True)
class Plan:
    """A validated run: the config with its defaults, as summary.json prints
    it, and the objects built from it, one nonlocal rule per eps in
    ``rules``.  A field that the experiment does not use is None."""

    config: dict
    label: str | None = None
    domain: Domain | None = None
    density: Density | None = None
    profile: KernelProfile | None = None
    function: AffineFunction | None = None
    sigma: float | None = None
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
    validator = jsonschema.Draft202012Validator(SCHEMAS[experiment])
    error = jsonschema.exceptions.best_match(validator.iter_errors(config))
    if error is not None:
        raise ConfigError(f"{_pointer(error)}: {error.message}")
    resolved = copy.deepcopy(config)
    for key, value in DEFAULTS[experiment].items():
        resolved.setdefault(key, copy.deepcopy(value))
    return _preflight(experiment, resolved)


def validate_config(experiment: str, config: dict) -> dict:
    """Validate a raw config and return a copy with defaults filled in."""
    return plan(experiment, config).config


def _built(pointer: str, build, *args):
    """Call a builder, reporting its ValueError or PCTVError at pointer.

    A divergent kernel is reported at /kernel whichever check finds it.
    """
    try:
        return build(*args)
    except DivergentKernelError as exc:
        raise ConfigError(f"/kernel: {exc}") from None
    except (ValueError, PCTVError) as exc:
        raise ConfigError(f"{pointer}: {exc}") from None


def _domain_label(spec: dict) -> str:
    d = int(spec.get("dimension", 2))
    return f"unit-box-{d}d" if spec["shape"] == "unit-box" else spec["shape"]


def _preflight(experiment: str, cfg: dict) -> Plan:
    """The checks that need built objects, and the plan of what they built.

    Nothing is sampled; the one integral is the kernel's surface tension,
    a few milliseconds, for the runs that compare against it.  The
    nonlocal rules are built, so their sizes are known, but not evaluated.
    """
    d = cfg.get("dimension")
    built = {"config": cfg}
    if "domain" in cfg:
        domain = _built("/domain", domain_from_config, cfg["domain"])
        volume = domain.volume()
        if not volume >= np.finfo(float).tiny:  # a density would divide by it
            raise ConfigError(f"/domain: volume {volume:.3g} is below the smallest normal float")
        d = domain.dimension
        if cfg["density"].get("axis", 0) >= d:
            raise ConfigError("/density/axis: axis is outside the domain dimension")
        density = _built("/density", density_from_config, cfg["density"], domain)
        # At 10 * MIN_ACCEPTANCE sample_iid's 50000-proposal warmup expects
        # 50 acceptances and gives up only below 5.  Every run but the
        # nonlocal one samples.
        if (experiment != "nonlocal-convergence"
                and not acceptance_rate(domain, density) >= 10 * MIN_ACCEPTANCE):
            raise ConfigError("/domain: rejection sampling would accept under "
                              f"{10 * MIN_ACCEPTANCE:g} of the proposals in the bounding box")
        built.update(label=_domain_label(cfg["domain"]), domain=domain, density=density)
    if "kernel" in cfg:
        profile = built["profile"] = _built("/kernel", kernel_from_config, cfg["kernel"])
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
        for i, n in enumerate(cfg["n"]):
            if round(n ** (1.0 / d)) ** d != n:
                raise ConfigError(f"/n/{i}: {n} is not a perfect {d}-th power")
    # eps must be positive and eps^-d finite at every eps a run will use
    if experiment == "connectivity":
        scale = connectivity_scale(cfg["n"], d)
        for i, factor in enumerate(cfg["factors"]):
            _built(f"/factors/{i}", scaled_from_distance, profile, factor * scale, 0.0, d)
    if "eps_rule" in cfg:
        rule = eps_rule(cfg["eps_rule"], d)
        for n in cfg["n"]:
            _built("/eps_rule", scaled_from_distance, profile, rule(n), 0.0, d)
    if experiment == "bisect":
        for i, n in enumerate(cfg["n"]):
            if n % 2:
                raise ConfigError(f"/n/{i}: bisection needs an even n, got {n}")
            # TL1 scoring holds an n x reference_size cost matrix
            _built(f"/n/{i}", check_dense_costs, n, cfg["reference_size"])
        _built("/domain", reference_partitions, domain, np.empty((0, d)))
    return Plan(**built)


def load_config(path: str) -> dict:
    """Read a JSON config file, wrapping parse errors as ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"/: {path} is not valid JSON ({exc})") from None
