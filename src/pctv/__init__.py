"""Graph total variation on sampled point clouds and its continuum limits.

The package builds geometric graphs over random samples, evaluates
their scaled total variation, perimeter, and minimal bisection, and
compares them against the weighted continuum functionals they
approximate, with transportation metrics tying the discrete and
continuum objects together.
"""

__version__ = "0.1.0"

from .bisection import (
    Bisection,
    agreement,
    bisection_energy,
    local_search_bisection,
)
from .continuum import (
    affine_function,
    nonlocal_tv,
    weighted_perimeter,
    weighted_tv_smooth,
)
from .errors import (
    ConfigError,
    DivergentKernelError,
    EnvelopeError,
    PCTVError,
    UnsupportedConfigurationError,
)
from .geometry import (
    Box,
    BoxUnion,
    ConvexPolygon,
    Density,
    PointCloud,
    affine_density,
    dumbbell,
    grid_points,
    sample_iid,
    uniform_density,
    unit_box,
)
from .graph import (
    WeightedGraph,
    build_graph,
    cloud_total_variation,
    component_labels,
    graph_total_variation,
    is_connected,
)
from .kernels import (
    KernelProfile,
    effective_support,
    gaussian,
    indicator,
    step_sum,
    surface_tension,
)
from .transport import bottleneck_distance, tlp_distance

__all__ = [
    "__version__",
    "Bisection",
    "Box",
    "BoxUnion",
    "ConfigError",
    "ConvexPolygon",
    "Density",
    "DivergentKernelError",
    "EnvelopeError",
    "KernelProfile",
    "PCTVError",
    "PointCloud",
    "UnsupportedConfigurationError",
    "WeightedGraph",
    "affine_density",
    "affine_function",
    "agreement",
    "bisection_energy",
    "bottleneck_distance",
    "build_graph",
    "cloud_total_variation",
    "component_labels",
    "dumbbell",
    "effective_support",
    "gaussian",
    "graph_total_variation",
    "grid_points",
    "indicator",
    "is_connected",
    "local_search_bisection",
    "nonlocal_tv",
    "sample_iid",
    "step_sum",
    "surface_tension",
    "tlp_distance",
    "uniform_density",
    "unit_box",
    "weighted_perimeter",
    "weighted_tv_smooth",
]
