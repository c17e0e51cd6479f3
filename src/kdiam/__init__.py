"""Sub-quadratic k-diameter algorithms for graphs of bounded distance
VC-dimension, with a geometric backend for convex-polygon intersection
graphs and brute-force oracles for verification.

The package root exports the decide calls and what a caller needs to build
their input; everything else is imported from its module."""

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    diameter_naive,
    k_diameter_naive,
    load_edge_list,
)
from .explicit import k_diameter_explicit
from .nsds import MaskNeighbourSets
from .implicit import k_diameter_implicit
from .geometry import ConvexPolygon, intersection_graph_naive
from .plane import geometric_nsds

__version__ = "0.1.0"

__all__ = [
    "ConvexPolygon",
    "DisconnectedGraphError",
    "Graph",
    "GraphFormatError",
    "MaskNeighbourSets",
    "diameter_naive",
    "geometric_nsds",
    "intersection_graph_naive",
    "k_diameter_explicit",
    "k_diameter_implicit",
    "k_diameter_naive",
    "load_edge_list",
    "__version__",
]
