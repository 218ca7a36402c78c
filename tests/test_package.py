"""The package surface: every exported name exists, is declared and is used."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccrflow
from ccrflow import channels, cli, fock, phase_space, weyl_transform

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
    "cb_distance_bound": "CB-distance check of measure channels",
    "load_report": "reads back the reports a run writes",
}


def _shadowed(tree) -> set:
    """ids of the Name nodes inside a function that binds the same name,
    as an argument or an assignment: a local, not the module's export."""
    out = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
            bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            bound |= {n.id for n in names if isinstance(n.ctx, ast.Store)}
            out |= {id(n) for n in names if n.id in bound}
    return out


def _src_references() -> set:
    """Names src reads outside the bodies of the UNCALLED_BY_DESIGN
    functions: a name read only there has no caller either."""
    names = set()
    for path in Path(ccrflow.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        skipped = _shadowed(tree) | {
            id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in UNCALLED_BY_DESIGN
            for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_methods(module):
    """(Class.method, method) for the public, non-dunder methods and
    properties of the classes ``module`` exports."""
    for name in module.__all__:
        cls = getattr(module, name)
        if inspect.isclass(cls) and cls.__module__ == module.__name__:
            for attr, value in vars(cls).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(value) or isinstance(value, property)):
                    yield f"{name}.{attr}", attr


def test_every_export_has_a_src_caller():
    # an export (or a method of an exported class) that only tests use is
    # surface to maintain, not a feature
    used = _src_references() | set(UNCALLED_BY_DESIGN)
    uncalled = []
    for module in map(importlib.import_module, LAYERS):
        uncalled += [(module.__name__, name) for name in module.__all__
                     if name not in used]
        uncalled += [(module.__name__, label) for label, attr in _public_methods(module)
                     if attr not in used]
    assert uncalled == []
    # and the exemptions stay exact: one that gains a caller leaves the list
    assert not _src_references() & set(UNCALLED_BY_DESIGN)


class _Calls(ast.NodeVisitor):
    """(callee, module, innermost enclosing function) of every call in a
    src module, the function None at module level."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, [None], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        self.found.append((callee, self.module, self.scope[-1]))
        self.generic_visit(node)


def _src_callers(name: str) -> set:
    calls = []
    for path in Path(ccrflow.__file__).parent.glob("*.py"):
        visitor = _Calls(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        calls += visitor.found
    return {(module, fn) for callee, module, fn in calls if callee == name}


def test_quadrature_flow_has_one_path():
    # the heat flow runs by quadrature only through channels._quadrature_flow:
    # one site builds its substep channel, cli applies no channel itself, and
    # apply_quadrature's other caller is the general-measure CB check
    assert _src_callers("heat_channel") == {("channels", "_substep_channel")}
    assert _src_callers("apply_quadrature") == {
        ("channels", "_quadrature_flow"), ("channels", "cb_distance_bound")}
    assert _src_callers("_quadrature_flow") == {
        ("channels", "evolve_state"), ("channels", "generator_check"),
        ("cli", "check_eigen_relation"), ("cli", "check_conservation")}


def test_spectral_flow_has_one_path():
    # every operand is transformed once per time grid, by channels._spectral_flow;
    # the other transform is the grid's cached vacuum probe
    assert _src_callers("char_function") == {
        ("channels", "_spectral_flow"), ("weyl_transform", "_probe_round_trip_error")}
    assert _src_callers("inverse_transform") == {("channels", "_spectral_flow")}


def test_offset_gather_is_the_one_operand_layout():
    # the kernel apply, the exact flow and the transform read an operand's
    # offsets through the one strided gather
    assert _src_callers("_offset_gather") == {
        ("channels", "_apply_kernel"), ("channels", "exact_heat"),
        ("weyl_transform", "_offset_sums")}


def test_channel_kernel_has_one_reader():
    # Choi blocks sum the quadrature's nodes directly, so the kernel's
    # circle layout concerns the apply alone
    assert _src_callers("_channel_kernel") == {("channels", "apply_quadrature")}
    # kernels are cached by content behind _channel_kernel alone, so the
    # cache's cache_info() counts every build and every hit
    assert _src_callers("_content_kernel") == {("channels", "_channel_kernel")}


# Every functools.lru_cache in src, with its reuse under `ccrflow all`
# (hits/misses).  A cache earns its place by its traffic: one the run never
# reuses only pins memory, so a new cache joins this list on purpose.
CACHED = {
    "fock._position_eigensystem": ("147/4: every kernel, transform and displacement; "
                                   "its third table is the offset layout of V they read"),
    "weyl_transform._grid_classes": "42/2: the spectral grid's transforms",
    "weyl_transform._probe_round_trip_error": "25/2: the vacuum probe per grid",
    "channels._content_kernel": "46/6: equal channels share one kernel build",
    "phase_space._approximant_band": "4/1: the plateau profile, once per lemma run",
    "cli._lemma_rows": "one set of rows shared by the two lemma checks of a run",
}


def _is_lru_cache(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "lru_cache"


def test_the_caches_are_the_ones_the_traffic_reuses():
    found = set()
    for path in Path(ccrflow.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(map(_is_lru_cache, node.decorator_list)):
                found.add(f"{path.stem}.{node.name}")
    assert found == set(CACHED)


def _cached_values():
    """Each cache in CACHED, built at a small configuration (N = 12, delta 1)."""
    n, delta = 12, 1.0
    spectral, lemma = channels._spectral_grid(n), phase_space.default_lemma_grid(delta)
    ch = channels.heat_channel(0.25, n)
    weights = channels._masked_quadrature(ch, 1e-6)
    built = {
        "fock._position_eigensystem": fock._position_eigensystem(n),
        "weyl_transform._grid_classes": weyl_transform._grid_classes(spectral, n),
        "weyl_transform._probe_round_trip_error":
            weyl_transform._probe_round_trip_error(spectral, n),
        "channels._content_kernel": channels._content_kernel(
            n, ch.mu.grid, weights.dtype, weights.tobytes()),
        "phase_space._approximant_band": phase_space._approximant_band(lemma, delta),
        "cli._lemma_rows": cli._lemma_rows(delta, (1.0,), 0),
    }
    cli._lemma_rows.cache_clear()
    return built


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):  # NamedTuples too
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


def test_cached_tables_are_read_only():
    # every caller of a cache shares its tables: one write into one would
    # corrupt every later reader
    built = _cached_values()
    assert set(built) == set(CACHED)
    writeable = [name for name, value in built.items()
                 if any(a.flags.writeable for a in _arrays(value))]
    assert writeable == []
    assert len(list(_arrays(built["fock._position_eigensystem"]))) == 3


def _is_public_function_of(module, name: str) -> bool:
    fn = getattr(module, name, None)
    return (not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


def test_benchmark_spans_name_public_functions():
    # the benchmark's tracer opens a span per public layer function and per
    # cli check_*; renaming one loses its per-layer metric while every other
    # test stays green
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    cli = importlib.import_module("ccrflow.cli")
    checked, broken = 0, []
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if parts[:2] == ["cli", "check"]:
            ok = _is_public_function_of(cli, f"check_{parts[2]}")
        elif len(parts) == 3 and f"ccrflow.{parts[0]}" in LAYERS:
            module = importlib.import_module(f"ccrflow.{parts[0]}")
            if parts[:2] == ["reports", "save"]:  # the tracer wraps this method
                ok = inspect.isfunction(module.ExperimentReport.save)
            else:
                ok = _is_public_function_of(module, parts[1])
        else:
            continue  # run-wide figures such as trace.overhead_share
        checked += 1
        if not ok:
            broken.append(metric["name"])
    assert checked > 0
    assert broken == []


def _fresh_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    src = str(Path(ccrflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy(tmp_path):
    # the runtime needs numpy only; scipy.linalg alone is about half of
    # start-up that every command would pay
    code = ("import sys, ccrflow.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    run = _fresh_python(code, tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_heatflow_runs_without_scipy(tmp_path):
    # quadrature, spectral and generator engines, with scipy unimportable
    code = ("import sys; sys.modules['scipy'] = None; import ccrflow.cli; "
            "sys.exit(ccrflow.cli.main(['heatflow', '--truncation', '12', "
            "'--times', '0.1,0.2', '--out', 'out']))")
    run = _fresh_python(code, tmp_path)
    assert run.returncode == 0, run.stdout + run.stderr
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["checks"]


def test_first_quadrature_does_no_hidden_work(tmp_path):
    # in a fresh process the first application builds its own channel's
    # kernel and nothing else: no displacement matrix, no second kernel
    code = (
        "import ccrflow.channels as ch, ccrflow.fock as fock, numpy as np\n"
        "calls = []\n"
        "original = fock.displacement_batch\n"
        "def counting(*args, **kwargs):\n"
        "    calls.append(1)\n"
        "    return original(*args, **kwargs)\n"
        "fock.displacement_batch = counting\n"
        "ch.apply_quadrature(ch.heat_channel(0.25, 12),\n"
        "                    fock.FockOperator(np.eye(12, dtype=complex)))\n"
        "print(ch._content_kernel.cache_info().misses, len(calls))\n"
    )
    run = _fresh_python(code, tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "0"]
