"""Fixed instance files checked into the repo: every algorithm must agree on
all of them, for every k in range.  Guards against representation drift."""

from pathlib import Path

import numpy as np
import pytest

from kdiam.cli import run_algorithm
from kdiam.geometry import (axis_square, intersection_graph_naive,
                            load_points, load_polygon)
from kdiam.graph import diameter_naive, load_edge_list
from kdiam.implicit import k_diameter_implicit
from kdiam.plane import geometric_nsds

DATA = Path(__file__).parent / "data"

CASES = [
    ("squares_small.csv", "points", None),
    ("squares_medium.csv", "points", None),
    ("graph_small.el", "graph", None),
    ("hexagon_points.csv", "points", "hexagon_points.poly.csv"),
    # |x| + |y| <= 0.5 on a 0.5-spaced lattice: every lattice neighbour
    # touches exactly, and the normalized frame rounds the touch outward.
    ("rotated_square_lattice.csv", "points",
     "rotated_square_lattice.poly.csv"),
]


@pytest.mark.parametrize("name,kind,poly", CASES,
                         ids=[c[0] for c in CASES])
def test_all_algorithms_agree(name, kind, poly):
    if kind == "graph":
        payload = load_edge_list(DATA / name)
    else:
        shape = load_polygon(DATA / poly) if poly else axis_square(1.0)
        payload = (load_points(DATA / name), shape)
    for k in range(1, 5):
        answers = {
            algo: run_algorithm(algo, kind, payload, k, 4, seed=7).answer
            for algo in ("naive", "explicit", "implicit")
        }
        assert len(set(answers.values())) == 1, (name, k, answers)


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
