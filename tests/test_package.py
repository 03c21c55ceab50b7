"""The package root: every exported name exists."""

import caselink


def test_every_name_in_all_resolves():
    missing = [name for name in caselink.__all__ if not hasattr(caselink, name)]
    assert missing == []
    assert len(set(caselink.__all__)) == len(caselink.__all__)


def test_star_import_works():
    namespace: dict = {}
    exec("from caselink import *", namespace)
    assert set(caselink.__all__) <= set(namespace)
