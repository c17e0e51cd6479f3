"""Sub-quadratic k-diameter algorithms for graphs of bounded distance
VC-dimension, with a geometric backend for convex-polygon intersection
graphs and brute-force oracles for verification."""

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    bfs_distances,
    diameter_naive,
    diameter_upto,
    distance_vc_shatter_check,
    from_edges,
    is_connected,
    k_diameter_naive,
    load_edge_list,
    neighborhood,
    save_edge_list,
)
from .order import order_from_membership
from .explicit import BallEncoding, expand_step, k_diameter_explicit, rebase
from .intervals import IntervalSets, canonicalize
from .nsds import MaskNeighbourSets
from .implicit import expand_balls, k_diameter_implicit, simulate_bfs
from .geometry import (
    ConvexPolygon,
    intersection_graph_naive,
    norm_value,
)
from .plane import PlaneStructure, geometric_nsds
from .stripes import stripe_init, stripe_list_differences

__version__ = "0.1.0"

__all__ = [
    "BallEncoding",
    "ConvexPolygon",
    "DisconnectedGraphError",
    "Graph",
    "GraphFormatError",
    "IntervalSets",
    "MaskNeighbourSets",
    "PlaneStructure",
    "bfs_distances",
    "canonicalize",
    "diameter_naive",
    "diameter_upto",
    "distance_vc_shatter_check",
    "expand_balls",
    "expand_step",
    "from_edges",
    "geometric_nsds",
    "intersection_graph_naive",
    "is_connected",
    "k_diameter_explicit",
    "k_diameter_implicit",
    "k_diameter_naive",
    "load_edge_list",
    "neighborhood",
    "norm_value",
    "order_from_membership",
    "rebase",
    "save_edge_list",
    "simulate_bfs",
    "stripe_init",
    "stripe_list_differences",
    "__version__",
]
