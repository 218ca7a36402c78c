"""The package surface: every exported name exists."""

import importlib

import pytest

MODULES = [
    "ccrflow",
    "ccrflow.channels",
    "ccrflow.fock",
    "ccrflow.phase_space",
    "ccrflow.purity",
    "ccrflow.reports",
    "ccrflow.weyl_transform",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
