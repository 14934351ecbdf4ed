"""The package's export list names only what the package defines."""
import bivas


def test_every_exported_name_resolves():
    assert len(set(bivas.__all__)) == len(bivas.__all__)
    for name in bivas.__all__:
        assert getattr(bivas, name, None) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from bivas import *", namespace)
    assert set(bivas.__all__) <= set(namespace)
