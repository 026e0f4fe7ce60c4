"""Experiment configuration: JSON schemas, validation, defaults.

Each experiment name owns a schema; validation failures surface as
ConfigError with a JSON-pointer path to the offending field, so a typo
in a nested key points at itself rather than at the whole file.  After
the schema, validation builds the domain, density and kernel and runs
each experiment's own checks, so config errors surface before any work
starts.
"""

from __future__ import annotations

import copy
import json

import jsonschema
import numpy as np

from .bisection import reference_partitions
from .continuum import check_grid_sizes, halfplane_set
from .errors import ConfigError, DivergentKernelError, PCTVError
from .geometry import Box, density_from_config, domain_from_config
from .graph import connectivity_scale
from .kernels import effective_support, scaled_from_distance, surface_tension
from .kernels import from_config as kernel_from_config
from .transport import check_dense_costs

_DOMAIN = {
    "type": "object",
    "properties": {
        "shape": {"enum": ["unit-box", "box", "dumbbell", "box-union", "polygon"]},
        "dimension": {"type": "integer", "minimum": 1, "maximum": 8},
        "lo": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "hi": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "length": {"type": "number", "exclusiveMinimum": 0},
        "boxes": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "lo": {"type": "array", "items": {"type": "number"}},
                    "hi": {"type": "array", "items": {"type": "number"}},
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
    "required": ["shape"],
    "additionalProperties": False,
}

_DENSITY = {
    "type": "object",
    "properties": {
        "name": {"enum": ["uniform", "affine"]},
        "axis": {"type": "integer", "minimum": 0},
        "slope": {"type": "number"},
    },
    "required": ["name"],
    "additionalProperties": False,
}

_KERNEL = {
    "type": "object",
    "properties": {
        "name": {"enum": ["indicator", "gaussian", "step-sum"]},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "radii": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "heights": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 1,
        },
    },
    "required": ["name"],
    "additionalProperties": False,
}

_EPS_RULE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["admissible", "borderline", "sub-connectivity", "fixed"]},
        "c": {"type": "number", "exclusiveMinimum": 0},
        "gamma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "factor": {"type": "number", "exclusiveMinimum": 0},
        "value": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["kind"],
    "additionalProperties": False,
    "if": {"properties": {"kind": {"const": "fixed"}}, "required": ["kind"]},
    "then": {"required": ["value"]},
}

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
            "cells_per_eps": {"type": "integer", "minimum": 2},
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
    "nonlocal-convergence": {"density": {"name": "uniform"}, "cells_per_eps": 8},
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


def validate_config(experiment: str, config: dict) -> dict:
    """Validate a raw config and return a copy with defaults filled in.

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
    _preflight(experiment, resolved)
    return resolved


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


def _preflight(experiment: str, cfg: dict) -> None:
    """The checks that need built objects.

    Nothing is sampled; the one integral is the kernel's surface tension,
    a few milliseconds, for the runs that compare against it.  Quadrature
    grids are sized, not built.
    """
    d = cfg.get("dimension")
    if "domain" in cfg:
        domain = _built("/domain", domain_from_config, cfg["domain"])
        d = domain.dimension
        if cfg["density"].get("axis", 0) >= d:
            raise ConfigError("/density/axis: axis is outside the domain dimension")
        _built("/density", density_from_config, cfg["density"], domain)
    if "kernel" in cfg:
        profile = _built("/kernel", kernel_from_config, cfg["kernel"])
        _built("/kernel", effective_support, profile, d)
        if experiment in ("gtv-convergence", "perimeter-convergence",
                          "nonlocal-convergence"):  # the runs that compare with sigma
            _built("/domain", surface_tension, profile, d)
    if "function" in cfg and len(cfg["function"]["coeffs"]) != d:
        raise ConfigError("/function/coeffs: length must match the domain dimension")
    if experiment in ("gtv-convergence", "nonlocal-convergence"):  # weighted TV runs
        _built("/domain", check_grid_sizes, domain)
    if experiment == "nonlocal-convergence":
        for i, eps in enumerate(cfg["eps"]):
            _built(f"/eps/{i}", check_grid_sizes, domain, profile, eps, cfg["cells_per_eps"])
    if "set" in cfg:
        if cfg["set"]["axis"] >= d:
            raise ConfigError("/set/axis: axis is outside the domain dimension")
        _built("/set", halfplane_set, domain, cfg["set"]["axis"], cfg["set"]["threshold"])
    if experiment == "tl-distance":
        lo, hi = domain.bounding_box()
        if not (isinstance(domain, Box) and np.allclose(lo, 0.0) and np.allclose(hi, 1.0)):
            raise ConfigError(
                "/domain: the tl-distance experiment compares against a unit-box grid")
        for i, n in enumerate(cfg["n"]):
            _built(f"/n/{i}", check_dense_costs, n, cfg["grid"] ** d)
    if experiment == "matching-scaling":
        for i, n in enumerate(cfg["n"]):
            if round(n ** (1.0 / d)) ** d != n:
                raise ConfigError(f"/n/{i}: {n} is not a perfect {d}-th power")
    if experiment == "connectivity":
        scale = connectivity_scale(cfg["n"], d)
        for i, factor in enumerate(cfg["factors"]):  # eps must be positive, eps^-d finite
            _built(f"/factors/{i}", scaled_from_distance, profile, factor * scale, 0.0, d)
    if experiment == "bisect":
        for i, n in enumerate(cfg["n"]):
            if n % 2:
                raise ConfigError(f"/n/{i}: bisection needs an even n, got {n}")
        _built("/domain", reference_partitions, domain, np.empty((0, d)))


def load_config(path: str) -> dict:
    """Read a JSON config file, wrapping parse errors as ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"/: {path} is not valid JSON ({exc})") from None
