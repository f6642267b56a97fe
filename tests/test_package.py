import miscorr


def test_every_exported_name_resolves():
    missing = [name for name in miscorr.__all__ if not hasattr(miscorr, name)]
    assert missing == []
    assert len(set(miscorr.__all__)) == len(miscorr.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from miscorr import *", namespace)
    assert set(miscorr.__all__) <= set(namespace)
