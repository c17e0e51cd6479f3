import numpy as np
import pytest

from kdiam import _kernels
from kdiam.gen import random_connected_graph


# The test id is the kernels' BACKEND name.
@pytest.mark.parametrize("kernels", [_kernels], ids=[_kernels.BACKEND])
def test_bfs_small(kernels):
    g = random_connected_graph(12, 20, np.random.default_rng(0))
    indptr, indices = g.csr
    d = kernels.bfs_distances(indptr, indices, 0)
    assert d[0] == 0
    assert (d >= 0).all()


def test_disconnected_markers():
    indptr = np.array([0, 1, 2, 3, 4], np.int64)
    indices = np.array([1, 0, 3, 2], np.int64)
    d = _kernels.bfs_distances(indptr, indices, 0)
    assert d[2] == -1 and d[3] == -1
    ecc = _kernels.eccentricities(indptr, indices)
    assert (ecc == -1).all()
