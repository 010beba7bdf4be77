"""The package's public names: every export resolves, and a star import works."""

import uralid


def test_every_exported_name_resolves():
    missing = [name for name in uralid.__all__ if not hasattr(uralid, name)]
    assert missing == []
    assert len(set(uralid.__all__)) == len(uralid.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from uralid import *", namespace)
    assert set(uralid.__all__) <= set(namespace)
