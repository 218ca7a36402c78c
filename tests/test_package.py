"""The package surface: every exported name exists, is declared and is used."""

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


LAYERS = [m for m in MODULES if m != "ccrflow"]

# Public names that no other src code calls, each kept for a stated reason.
UNCALLED_BY_DESIGN = {
    "cauchy_measure": "product-Cauchy family behind apply_spectral(kind='cauchy')",
    "weyl_generator": "closed-form reference for the displacement tests",
    "cb_distance_bound": "CB-distance check of measure channels",
    "load_report": "reads back the reports a run writes",
}


def _src_references() -> set:
    names = set()
    for path in Path(ccrflow.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_src_caller():
    # an export that only tests use is surface to maintain, not a feature
    used = _src_references() | set(UNCALLED_BY_DESIGN)
    uncalled = [
        (module, name)
        for module in LAYERS
        for name in importlib.import_module(module).__all__
        if name not in used
    ]
    assert uncalled == []
    # and the exemptions stay exact: one that gains a caller leaves the list
    assert not _src_references() & set(UNCALLED_BY_DESIGN)
