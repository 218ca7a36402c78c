"""Span tracer installed into the ccrflow module namespaces at run time.

Every public function of the layer modules (and each ``check_*`` of the
CLI, plus ``ExperimentReport.save``) is replaced, in every ``ccrflow``
namespace that bound it, by a wrapper that records calls, inclusive time
and self time (inclusive minus the time covered by child spans).  Nothing
under ``src/`` is edited: the wrappers exist only in the traced process.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections.abc import Mapping
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "ccrflow"
LAYERS = ("fock", "channels", "weyl_transform", "phase_space", "purity", "reports")


class Stat:
    """Aggregate of one wrapped function's spans."""

    __slots__ = ("calls", "self_s", "incl_s", "active", "counters", "keys")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0  # outermost activations only, so recursion is not double counted
        self.active = 0
        self.counters: dict[str, float] = {}
        self.keys: dict[int, set] = {}  # displacement (z, N) keys seen, per N

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_dict(self) -> dict:
        out = {"calls": self.calls, "self_s": self.self_s, "incl_s": self.incl_s}
        out.update(self.counters)
        if self.keys:
            out["distinct"] = sum(len(s) for s in self.keys.values())
        return out


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.top_level_s = 0.0  # time inside spans opened with no span active
        self.counter_s = 0.0  # time spent in work counters, kept out of every span
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn, count=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            outermost = stat.active == 0
            stat.active += 1
            counted = self.counter_s
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # counters run by child spans are tracer work, not this span's
                elapsed = perf_counter() - t0 - (self.counter_s - counted)
                stat.active -= 1
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if outermost:
                    stat.incl_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
            if count is not None:
                t1 = perf_counter()
                count(stat, args, kwargs, result)
                self.counter_s += perf_counter() - t1
            return result

        return traced

    def to_dict(self) -> dict:
        return {"top_level_s": self.top_level_s, "counter_s": self.counter_s,
                "stats": {name: s.to_dict() for name, s in self.stats.items()}}


# --------------------------------------------------------------------------
# work counters, taken from the arguments after the span has closed; their
# time goes to Tracer.counter_s, not to any span

def _points(arg) -> int:
    return len(np.asarray(arg, dtype=float).reshape(-1, 2))


def _count_displacements(stat: Stat, args, kwargs, result) -> None:
    zs = np.asarray(args[0] if args else kwargs["zs"], dtype=float).reshape(-1, 2)
    n = result.shape[-1]
    stat.add("matrices", len(zs))
    stat.add("computed_bytes", len(zs) * n * n * 16)  # complex128 output, computed not measured
    stat.keys.setdefault(n, set()).update((zs[:, 0] + 1j * zs[:, 1]).tolist())


def _count_grid_points(stat: Stat, args, kwargs, result) -> None:
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    stat.add("points", grid.points_per_axis ** 2)


def _count_points(stat: Stat, args, kwargs, result) -> None:
    stat.add("points", _points(args[1] if len(args) > 1 else kwargs["points"]))


def _count_saved_bytes(stat: Stat, args, kwargs, result) -> None:
    report, base = args[0], Path(args[1] if len(args) > 1 else kwargs["base"])
    size = base.with_suffix(".json").stat().st_size
    if report.curve:
        size += base.with_suffix(".csv").stat().st_size
    stat.add("bytes", size)


COUNTERS = {
    "fock.displacement_batch": _count_displacements,
    "weyl_transform.char_function": _count_grid_points,
    "weyl_transform.char_values": _count_points,
    "phase_space.symplectic_ft_at": _count_points,
    "reports.save": _count_saved_bytes,
}


# --------------------------------------------------------------------------
# installation

def _public_functions(module) -> dict[str, object]:
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _targets() -> dict[int, tuple[str, object]]:
    """id(original) -> (span name, original) for every function to wrap."""
    targets = {}
    for layer in LAYERS:
        for name, fn in _public_functions(sys.modules[f"{PACKAGE}.{layer}"]).items():
            targets[id(fn)] = (f"{layer}.{name}", fn)
    for name, fn in _public_functions(sys.modules[f"{PACKAGE}.cli"]).items():
        if name.startswith("check_"):
            targets[id(fn)] = (f"cli.check.{name[len('check_'):]}", fn)
    return targets


def _swap(value, replace, depth: int = 0):
    """Return ``value`` with every target replaced, descending into the
    module-level dicts, lists and tuples (such as the CLI's runner table)."""
    if callable(value) and id(value) in replace:
        return replace[id(value)]
    if depth >= 3:
        return value
    if isinstance(value, tuple):
        swapped = tuple(_swap(v, replace, depth + 1) for v in value)
        return value if all(a is b for a, b in zip(swapped, value)) else swapped
    if isinstance(value, list):
        value[:] = [_swap(v, replace, depth + 1) for v in value]
    elif isinstance(value, dict):
        for key in list(value):
            value[key] = _swap(value[key], replace, depth + 1)
    return value


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> None:
    """Wrap every target in every ccrflow namespace.

    Raises RuntimeError when an original is still reachable afterwards, so
    a traced run never silently misses a layer.
    """
    targets = _targets()
    replace = {key: tracer.wrap(name, fn, COUNTERS.get(name))
               for key, (name, fn) in targets.items()}
    modules = _namespaces()
    for module in modules:
        for attr, value in list(vars(module).items()):
            if not attr.startswith("__"):
                setattr(module, attr, _swap(value, replace))
    report_cls = sys.modules[f"{PACKAGE}.reports"].ExperimentReport
    report_cls.save = tracer.wrap("reports.save", report_cls.save, COUNTERS["reports.save"])

    leftovers = sorted({
        f"{module.__name__}.{attr} -> {targets[id(found)][0]}"
        for module in modules
        for attr, value in vars(module).items() if not attr.startswith("__")
        for found in _reachable(value)
        if id(found) in targets and targets[id(found)][1] is found
    })
    if leftovers:
        raise RuntimeError("tracer left functions unwrapped: " + ", ".join(leftovers))


def _reachable(value, depth: int = 0):
    """Everything ``value`` holds, searched wider and deeper than ``_swap``
    replaces, so a binding the swap cannot reach shows up as a leftover."""
    yield value
    if depth >= 4:
        return
    if isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (tuple, list, set, frozenset)):
        for v in value:
            yield from _reachable(v, depth + 1)
