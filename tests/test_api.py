"""The package root exports exactly the decide API and what its input
needs; every other name is imported from its module."""

import kdiam

ROOT_NAMES = {
    "ConvexPolygon", "DisconnectedGraphError", "Graph", "GraphFormatError",
    "MaskNeighbourSets", "diameter_naive", "geometric_nsds",
    "intersection_graph_naive", "k_diameter_explicit", "k_diameter_implicit",
    "k_diameter_naive", "load_edge_list", "__version__",
}


def test_every_exported_name_resolves():
    missing = [name for name in kdiam.__all__ if not hasattr(kdiam, name)]
    assert missing == []
    assert len(set(kdiam.__all__)) == len(kdiam.__all__)


def test_root_exports_only_the_decide_api():
    assert set(kdiam.__all__) == ROOT_NAMES


def test_star_import():
    namespace = {}
    exec("from kdiam import *", namespace)
    assert set(kdiam.__all__) <= namespace.keys()
