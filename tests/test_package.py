"""The package's export list."""

import trajcf


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from trajcf import *", namespace)
    assert [name for name in trajcf.__all__ if name not in namespace] == []
    assert len(set(trajcf.__all__)) == len(trajcf.__all__)
