"""The public API: every exported name exists."""

from __future__ import annotations

import algebroidkit


def test_every_exported_name_resolves():
    missing = [name for name in algebroidkit.__all__ if not hasattr(algebroidkit, name)]
    assert missing == []
    assert len(set(algebroidkit.__all__)) == len(algebroidkit.__all__)


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from algebroidkit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(algebroidkit.__all__)
