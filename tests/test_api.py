"""The public names of the package resolve."""

import kdiam


def test_every_exported_name_resolves():
    missing = [name for name in kdiam.__all__ if not hasattr(kdiam, name)]
    assert missing == []
    assert len(set(kdiam.__all__)) == len(kdiam.__all__)


def test_star_import():
    namespace = {}
    exec("from kdiam import *", namespace)
    assert set(kdiam.__all__) <= namespace.keys()
