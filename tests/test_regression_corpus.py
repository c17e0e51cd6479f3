"""Fixed instance files checked into the repo: every algorithm must agree on
all of them, for every k in range.  Guards against representation drift."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdiam.cli import _found_diameter, _load
from kdiam.explicit import k_diameter_explicit
from kdiam.gen import (default_box, random_connected_graph,
                       random_unit_square_points)
from kdiam.geometry import (axis_square, intersection_graph_naive,
                            load_points, load_polygon)
from kdiam.graph import Graph, diameter_naive, from_edges
from kdiam.implicit import k_diameter_implicit
from kdiam.nsds import MaskNeighbourSets
from kdiam.plane import geometric_nsds

DATA = Path(__file__).parent / "data"

CASES = [
    ("squares_small.csv", "points", None),
    ("squares_medium.csv", "points", None),
    ("graph_small.el", "graph", None),
    ("hexagon_points.csv", "points", "hexagon_points.poly.csv"),
    # |x| + |y| <= 0.5 on a 0.5-spaced lattice: every lattice neighbour
    # touches exactly.
    ("rotated_square_lattice.csv", "points",
     "rotated_square_lattice.poly.csv"),
    # The triangle (0,0), (1,0), (0,1) on the 6x6 integer grid: f - f is the
    # hexagon with vertices +-(1,0), +-(0,1), +-(1,-1), so those neighbours
    # touch exactly and (1,1) does not.
    ("triangle_lattice.csv", "points", "triangle_lattice.poly.csv"),
]


@pytest.mark.parametrize("name,kind,poly", CASES,
                         ids=[c[0] for c in CASES])
def test_all_algorithms_agree(name, kind, poly):
    inst = _load(DATA / name, DATA / poly if poly else None)
    assert isinstance(inst, tuple) == (kind == "points")
    for k in range(1, 5):
        answers = {}
        for algo in ("naive", "explicit", "implicit"):
            found = _found_diameter(algo, inst, k, 4, seed=7)[0]
            answers[algo] = found is not None and found <= k
        assert len(set(answers.values())) == 1, (name, k, answers)


def _permuted(inst, perm):
    """``inst`` with vertex v renamed perm[v]: an edge list relabelled, or
    the point rows reordered so that row perm[v] holds point v."""
    if isinstance(inst, Graph):
        return from_edges(inst.n, [(perm[u], perm[v])
                                   for u, v in inst.edges()])
    pts, shape = inst
    moved = np.empty_like(pts)
    moved[perm] = pts
    return moved, shape


@pytest.mark.parametrize("name,kind,poly", CASES,
                         ids=[c[0] for c in CASES])
def test_answers_survive_relabelling(name, kind, poly):
    # Renaming the vertices changes no distance, so for k = D - 1 and D
    # every algorithm must answer on 3 seeded relabellings as it does on
    # the file's own order.  Only the orders the fast paths draw change.
    inst = _load(DATA / name, DATA / poly if poly else None)
    g = inst if isinstance(inst, Graph) else intersection_graph_naive(*inst)
    diam = diameter_naive(g)
    ks = [k for k in (diam - 1, diam) if k >= 1]

    def answers(instance):
        out = {}
        for algo in ("naive", "explicit", "implicit"):
            found = _found_diameter(algo, instance, diam, 4, seed=7)[0]
            out[algo] = [found is not None and found <= k for k in ks]
        return out

    want = answers(inst)
    assert want == {algo: [k >= diam for k in ks] for algo in want}
    for seed in range(3):
        perm = np.random.default_rng([seed, g.n]).permutation(g.n).tolist()
        assert answers(_permuted(inst, perm)) == want, (name, seed)


@given(st.sampled_from(["sparse-graph", "unit-squares"]), st.integers(2, 60),
       st.integers(0, 2 ** 32 - 1))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_generated_answers_survive_relabelling(kind, n, seed):
    # The fast paths take their first order and every tie-break from a
    # locality rank of the input, so a relabelled input walks other
    # orders; the answers for k = D - 1 and D must not move.
    rng = np.random.default_rng(seed)
    if kind == "sparse-graph":
        m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 2 * n) + 1))
        inst = random_connected_graph(n, m, rng)
    else:
        inst = (random_unit_square_points(n, default_box(n), rng),
                axis_square(1.0))
    inst = _permuted(inst, rng.permutation(n).tolist())
    g = inst if isinstance(inst, Graph) else intersection_graph_naive(*inst)
    diam = diameter_naive(g)
    ks = [k for k in (diam - 1, diam) if k >= 1]
    for algo in ("naive", "explicit", "implicit"):
        found = _found_diameter(algo, inst, diam, 3, seed)[0]
        assert [found is not None and found <= k for k in ks] == \
            [k >= diam for k in ks], algo


@pytest.mark.parametrize("k", [1, 2, 3])
def test_disconnected_graph_answers_false(k):
    # Infinite diameter: no radius is ever full.  The locality rank must
    # still cover every component, or radius 0 has no position for some
    # vertex.
    g = from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert k_diameter_explicit(g, k, 3, np.random.default_rng(k)) is False
    assert k_diameter_implicit(lambda: MaskNeighbourSets.from_graph(g), g.n,
                               k, 3, np.random.default_rng(k)) is False


def test_numpy_vertex_ids_give_the_same_diameter():
    # Ids read from a numpy array are np.int64, whose shifts overflow past
    # bit 63; every mask is built from range(n), so a 70-vertex path built
    # from them has diameter 69 under every algorithm, as with Python ints.
    pairs = np.c_[np.arange(69), np.arange(1, 70)]
    for edges in (pairs.tolist(), [tuple(p) for p in pairs]):
        g = from_edges(70, edges)
        for algo in ("naive", "explicit", "implicit"):
            assert _found_diameter(algo, g, 69, 4, seed=7)[0] == 69, algo


POINT_CASES = [c for c in CASES if c[1] == "points"]


@pytest.mark.parametrize("name,kind,poly", POINT_CASES,
                         ids=[c[0] for c in POINT_CASES])
def test_every_closed_neighbourhood_matches_the_oracle(name, kind, poly):
    # On the rotated-square and triangle lattices every lattice neighbour
    # touches exactly.
    pts = load_points(DATA / name)
    shape = load_polygon(DATA / poly) if poly else axis_square(1.0)
    g = intersection_graph_naive(pts, shape)
    nsds = geometric_nsds(pts, shape)
    for v in range(len(pts)):
        h = nsds.add_neighbours(nsds.empty, v)
        got = nsds.list_differences(nsds.empty, h)
        assert len(got) == len(set(got))
        assert set(got) == set(g.adjacency[v]) | {v}, v


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotated_square_lattice_touches_are_edges(seed):
    pts = load_points(DATA / "rotated_square_lattice.csv")
    shape = load_polygon(DATA / "rotated_square_lattice.poly.csv")
    assert diameter_naive(intersection_graph_naive(pts, shape)) == 4
    for k, want in ((3, False), (4, True), (5, True)):
        got = k_diameter_implicit(lambda: geometric_nsds(pts, shape),
                                  len(pts), k, 3,
                                  np.random.default_rng(seed))
        assert got is want, (seed, k)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triangle_lattice_touches_are_edges(seed):
    pts = load_points(DATA / "triangle_lattice.csv")
    shape = load_polygon(DATA / "triangle_lattice.poly.csv")
    g = intersection_graph_naive(pts, shape)
    assert g.m == 85
    assert diameter_naive(g) == 10
    for k, want in ((9, False), (10, True), (11, True)):
        got = k_diameter_implicit(lambda: geometric_nsds(pts, shape),
                                  len(pts), k, 3,
                                  np.random.default_rng(seed))
        assert got is want, (seed, k)
