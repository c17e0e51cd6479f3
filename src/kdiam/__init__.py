"""Sub-quadratic k-diameter algorithms for graphs of bounded distance
VC-dimension, with a geometric backend for convex-polygon intersection
graphs and brute-force oracles for verification."""

from .graph import (
    DisconnectedGraphError,
    DistanceVector,
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
from .plane import (
    PlaneStructure,
    geometric_nsds,
    plane_init,
    plane_list_differences,
    plane_mark,
)
from .stripes import StripeVersion, stripe_init, stripe_list_differences

__version__ = "0.1.0"

__all__ = [
    "BallEncoding",
    "ConvexPolygon",
    "DisconnectedGraphError",
    "DistanceVector",
    "Graph",
    "GraphFormatError",
    "IntervalSets",
    "MaskNeighbourSets",
    "PlaneStructure",
    "StripeVersion",
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
    "plane_init",
    "plane_list_differences",
    "plane_mark",
    "rebase",
    "save_edge_list",
    "simulate_bfs",
    "stripe_init",
    "stripe_list_differences",
    "__version__",
]
