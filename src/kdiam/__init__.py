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
    distance_vc_shatter_check,
    from_edges,
    is_connected,
    k_diameter_naive,
    load_edge_list,
    neighborhood,
    save_edge_list,
)
from .order import (
    EdgeOrder,
    NetSchedule,
    build_spanning_tree,
    euler_order,
    order_from_membership,
    total_difference,
)
from .explicit import BallEncoding, expand_step, k_diameter_explicit, rebase
from .intervals import IntervalSets, canonicalize
from .nsds import NaiveNeighbourSets, NeighbourSetStructure, SetHandle
from .implicit import expand_balls, k_diameter_implicit, simulate_bfs
from .geometry import (
    AffineMap,
    ConvexPolygon,
    intersection_graph_naive,
    minkowski_sum,
    norm_value,
    normalize_polygon,
    symmetrize,
    trapezoid_decompose,
)
from .plane import (
    GeometricNeighbourSets,
    PlaneStructure,
    geometric_nsds,
    plane_init,
    plane_list_differences,
    plane_mark,
)
from .stripes import (
    StripeVersion,
    stripe_init,
    stripe_list_differences,
    stripe_mark,
    stripe_push,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "BallEncoding",
    "ConvexPolygon",
    "DisconnectedGraphError",
    "DistanceVector",
    "EdgeOrder",
    "GeometricNeighbourSets",
    "Graph",
    "GraphFormatError",
    "IntervalSets",
    "NaiveNeighbourSets",
    "NeighbourSetStructure",
    "NetSchedule",
    "PlaneStructure",
    "SetHandle",
    "StripeVersion",
    "bfs_distances",
    "build_spanning_tree",
    "canonicalize",
    "diameter_naive",
    "distance_vc_shatter_check",
    "euler_order",
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
    "minkowski_sum",
    "neighborhood",
    "norm_value",
    "normalize_polygon",
    "order_from_membership",
    "plane_init",
    "plane_list_differences",
    "plane_mark",
    "rebase",
    "save_edge_list",
    "simulate_bfs",
    "stripe_init",
    "stripe_list_differences",
    "stripe_mark",
    "stripe_push",
    "symmetrize",
    "total_difference",
    "trapezoid_decompose",
    "__version__",
]
