"""The package surface: every exported name exists and is declared."""

import ast
import importlib
from pathlib import Path

import pytest

import ccrflow

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


def _reexports():
    tree = ast.parse(Path(ccrflow.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield f"ccrflow.{node.module}", alias.name


def test_reexports_are_declared_by_their_modules():
    # a name the package re-exports is public in the module it comes from
    pairs = list(_reexports())
    assert pairs
    undeclared = [
        (module, name)
        for module, name in pairs
        if name not in importlib.import_module(module).__all__
    ]
    assert undeclared == []
