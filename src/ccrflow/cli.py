"""Batch experiment runner: wires every module into pass/fail reports.

Subcommands map to experiment families; each run writes one JSON (and,
when a curve is attached, one CSV) artifact per check plus a summary.
Artifacts are deterministic for a fixed config - timestamps and timings
live only in a separate metadata file.  Exit status: 0 all checks passed,
1 some check failed, 2 the config was invalid (nothing is written) or a
subcommand's numerics refused it (the summary and the metadata cover the
subcommands that finished and record the error).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import __version__
from .channels import (
    HeatFlowParams,
    MeasureChannel,
    _content_kernel,
    _quadrature_flow,
    _spectral_flow,
    _spectral_grid,
    _substep_channel,
    apply_spectral,
    choi_matrix,
    evolve_state,
    exact_heat,
    generator_check,
    point_mass_channel,
    spectral_levels,
)
from .fock import (
    DensityOperator,
    FockOperator,
    coherent_state,
    displacement_batch,
    number_state,
    trace_norm,
    weyl_operator,
)
from .phase_space import (
    GridMeasure,
    GridSpec,
    _approximant_band,
    _dft_half,
    _lattice_box,
    band_limited_approximant,
    convolve,
    default_gaussian_grid,
    default_lemma_grid,
    gaussian_measure,
    omega,
    sqrt_density_ft,
    symplectic_ft_at,
)
from .purity import (
    absorbing_state_probe,
    band_annihilated_distance,
    certified_bound,
    constraint_grid,
    decay_curve,
    DEFAULT_TIME_GRID,
)
from .reports import Condition, ExperimentReport, _json_fallback, _write_json
from .weyl_transform import _require_probe, riemann_lebesgue_profile

SUBCOMMANDS = ("weyl-check", "heatflow", "choi", "lemma37", "purity", "beurling")


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one experiment family."""

    truncation: int
    times: tuple
    delta: float
    epsilons: tuple
    budget: float
    probes: tuple
    out_dir: Path
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.truncation, int) or not 2 <= self.truncation <= 256:
            raise ConfigError(f"truncation must be an integer in [2, 256], got {self.truncation!r}")
        if len(self.times) == 0:
            raise ConfigError("time grid must not be empty")
        if any(not (math.isfinite(t) and t >= 0) for t in self.times):
            raise ConfigError("times must be finite and nonnegative")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("times must be strictly increasing")
        if not 0 < self.delta < 100:
            raise ConfigError(f"delta must lie in (0, 100), got {self.delta!r}")
        if len(self.epsilons) == 0 or any(not (0 < e < math.inf) for e in self.epsilons):
            raise ConfigError("epsilons must be positive and finite")
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise ConfigError(f"budget must be a positive number, got {self.budget!r}")
        if len(self.probes) == 0:
            raise ConfigError("need at least one probe state")
        for spec in self.probes:
            _parse_probe_spec(spec)  # raises ConfigError on nonsense
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")


def _parse_probe_spec(spec: str):
    """Probe specs: 'vacuum', 'one', 'number:k' (k >= 0), 'coherent:alpha'."""
    name = spec.strip().lower()
    kind, _, arg = {"vacuum": "number:0", "one": "number:1"}.get(name, name).partition(":")
    if kind == "number" and arg.isdecimal():
        return ("number", int(arg))
    if kind == "coherent" and arg:
        try:
            return ("coherent", complex(arg))
        except ValueError:
            pass
    raise ConfigError(f"bad probe spec {spec!r}")


def _build_probe(spec: str, n_levels: int) -> tuple[str, DensityOperator]:
    kind, arg = _parse_probe_spec(spec)
    state = number_state if kind == "number" else coherent_state
    return spec.strip().lower(), state(arg, n_levels)


# --------------------------------------------------------------------------
# config resolution: per-subcommand defaults <- config file <- flags

_DEFAULTS = {
    "weyl-check": dict(truncation=40, times=(0.25,)),
    "heatflow": dict(truncation=30, times=(0.25, 1.0)),
    "choi": dict(truncation=24, times=(0.5,)),
    "lemma37": dict(truncation=24, times=(1.0, 4.0, 16.0)),
    "purity": dict(truncation=40, times=DEFAULT_TIME_GRID),
    "beurling": dict(truncation=12, times=(0.25,)),
}
_COMMON = dict(
    delta=1.0,
    epsilons=(1.0, 0.5, 0.25),
    budget=1.5,
    probes=("vacuum", "one", "coherent:0.8"),
    out_dir=Path("ccrflow-out"),
    seed=2026,
)


def _parse_float_list(text: str, what: str) -> tuple:
    items = [p.strip() for p in str(text).split(",") if p.strip()]
    try:
        return tuple(float(p) for p in items)
    except ValueError:
        raise ConfigError(f"could not parse {what} list from {text!r}") from None


def _scalar(kind, key: str, hint: str = ""):
    def parse(text):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"bad {key} {text!r}{hint}") from None
    return parse


# Each setting once: key -> (RunConfig field, text parser, the subcommands
# whose checks read it).  `out` is read by no check: it is run-wide, set in
# [common] or by --out.
_SETTINGS = {
    "truncation": ("truncation", _scalar(int, "truncation"),
                   ("weyl-check", "heatflow", "choi", "purity", "beurling")),
    "times": ("times", lambda text: _parse_float_list(text, "times"),
              ("heatflow", "choi", "lemma37", "purity")),
    "delta": ("delta", _scalar(float, "delta", ": expected one band radius"),
              ("lemma37", "purity")),
    "epsilons": ("epsilons", lambda text: _parse_float_list(text, "epsilons"),
                 ("beurling",)),
    "budget": ("budget", _scalar(float, "budget"), ("purity",)),
    "probes": ("probes", lambda text: tuple(p.strip() for p in text.split(",") if p.strip()),
               ("purity",)),
    "out": ("out_dir", Path, ()),
    "seed": ("seed", _scalar(int, "seed"), ("weyl-check", "heatflow", "lemma37", "beurling")),
}
_CONFIG_KEYS = tuple(_SETTINGS)


def _apply_section(merged: dict, section, where: str, reader: str | None) -> None:
    """Parse the keys one config section (or the flags) sets into ``merged``.

    Each key must be read by a check of ``reader``, the subcommand the
    section speaks to; [common] and the flags of `ccrflow all` pass None.
    A value is parsed before its readers are checked, so a malformed value
    is reported as malformed wherever it sits.
    """
    unknown = sorted(set(section) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} {where}; "
                          "expected one of " + ", ".join(_CONFIG_KEYS))
    for key, (field, parse, readers) in _SETTINGS.items():
        if key not in section:
            continue
        merged[field] = parse(section[key])
        if reader is not None and reader not in readers:
            hint = (f"the checks of {', '.join(readers)} read it" if readers
                    else "it is run-wide: set it in [common] or with --out")
            raise ConfigError(f"{key!r} {where} is read by no {reader} check; {hint}")


def resolve_config(subcommand: str, args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file ([common] before [subcommand]), then flags."""
    merged = dict(_COMMON)
    merged.update(_DEFAULTS[subcommand])
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read_string(path.read_text(encoding="utf-8"))
        except configparser.Error as exc:
            raise ConfigError(f"could not parse config file: {exc}") from None
        names = [parser.default_section] * bool(parser.defaults()) + parser.sections()
        for name in sorted(names, key=lambda name: name != "common"):
            if name != "common" and name not in SUBCOMMANDS:
                raise ConfigError(
                    f"unknown config section [{name}]; expected [common] or one of "
                    + ", ".join(f"[{s}]" for s in SUBCOMMANDS)
                )
            _apply_section(merged if name in ("common", subcommand) else {},
                           parser[name], f"in [{name}]",
                           None if name == "common" else name)
    flags = {"truncation": args.truncation, "times": args.times, "delta": args.delta}
    reader = None if getattr(args, "subcommand", None) == "all" else subcommand
    _apply_section(merged, {k: v for k, v in flags.items() if v is not None},
                   "on the command line", reader)
    if args.out is not None:
        _apply_section(merged, {"out": args.out}, "on the command line", None)
    cfg = RunConfig(**merged)
    # at t = 0 the Gaussian is a point mass: lemma37 approximates every time, purity its last
    if 0 in {"lemma37": cfg.times, "purity": cfg.times[-1:]}.get(subcommand, ()):
        raise ConfigError(f"{subcommand} cannot take t = 0: no band-limited probability "
                          "measure approximates a point mass (TV distance 2)")
    # below N = 8 the Choi block (see _choi_report) has one level: the witness's pair sums to 0
    if subcommand == "choi" and cfg.truncation < 8:
        raise ConfigError("choi needs truncation at least 8 for a two-level Choi block, "
                          f"got {cfg.truncation}")
    if subcommand == "heatflow":  # else path_agreement's spectral grid fails its probe mid-run
        try:
            _require_probe(_spectral_grid(cfg.truncation), cfg.truncation,
                           "the grid follows from the truncation: choose another")
        except ValueError as exc:
            raise ConfigError(f"heatflow at truncation {cfg.truncation}: spectral {exc}") from None
    if subcommand in _SETTINGS["delta"][2]:  # else its lemma grid fails to allocate mid-run
        try:
            default_lemma_grid(cfg.delta)
        except ValueError as exc:
            raise ConfigError(f"{subcommand}: {exc}") from None
    # a probe the truncation cannot hold fails here, before any check runs
    for spec in cfg.probes if subcommand in _SETTINGS["probes"][2] else ():
        try:
            _build_probe(spec, cfg.truncation)
        except ValueError as exc:
            raise ConfigError(f"probe {spec!r} at truncation {cfg.truncation}: {exc}") from None
    return cfg


# --------------------------------------------------------------------------
# individual checks; each returns an ExperimentReport

def _rise(name: str, values, sense: str, bound: float) -> tuple[Condition, ...]:
    """The largest step between consecutive values, held against bound; none without a pair."""
    steps = [b - a for a, b in zip(values, values[1:])]
    return (Condition(name, max(steps), sense, bound),) if steps else ()


def _disk_points(rng: np.random.Generator, count: int, radius: float = 1.0) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, 2.0 * math.pi, count)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def check_weyl_relations(cfg: RunConfig) -> ExperimentReport:
    """Composition law of displacements on the first eleven basis states."""
    n = cfg.truncation
    rng = np.random.default_rng(cfg.seed)
    z1 = _disk_points(rng, 100)
    z2 = _disk_points(rng, 100)
    w1 = displacement_batch(z1, n)
    w2 = displacement_batch(z2, n)
    w12 = displacement_batch(z1 + z2, n)
    phases = np.exp(1j * omega(z1, z2))  # the paper's (1.3) with (1.4)
    n_cols = min(11, n)
    diff = w1 @ w2[:, :, :n_cols] - phases[:, None, None] * w12[:, :, :n_cols]
    defect = float(np.sqrt((np.abs(diff) ** 2).sum(axis=1)).max())
    unit = w1.conj().transpose(0, 2, 1) @ w1[:, :, :n_cols] - np.eye(n)[:, :n_cols]
    unit_defect = float(np.sqrt((np.abs(unit) ** 2).sum(axis=1)).max())
    return ExperimentReport(
        check="weyl_relations",
        params={"truncation": n, "pairs": len(z1), "max_radius": 1.0,
                "basis_states": n_cols, "seed": cfg.seed},
        conditions=(Condition("composition_defect", defect, "<=", 1e-6),
                    Condition("unitarity_defect", unit_defect, "<=", 1e-6)),
    )


def check_riemann_lebesgue(cfg: RunConfig) -> ExperimentReport:
    """Vacuum ring profile: exact Gaussian law, tiny beyond radius 4.3."""
    n = cfg.truncation
    vac = number_state(0, n)
    radii = [0.25 * k for k in range(1, 25)]
    profile = riemann_lebesgue_profile(vac, radii)
    reference = [math.exp(-r * r / 4.0) for r in radii]
    dev = max(abs(p - q) for p, q in zip(profile, reference))
    tail = max((p for r, p in zip(radii, profile) if r >= 4.3), default=0.0)
    return ExperimentReport(
        check="riemann_lebesgue",
        params={"truncation": n, "radii": radii},
        conditions=(Condition("max_deviation", dev, "<=", 1e-4),
                    Condition("tail_max_beyond_4p3", tail, "<=", 0.01)),
        curve=[{"radius": r, "ring_max": p, "reference": q}
               for r, p, q in zip(radii, profile, reference)],
    )


def check_eigen_relation(cfg: RunConfig) -> ExperimentReport:
    """The quadrature flow, substepped, damps each displacement by its Gaussian factor."""
    n = cfg.truncation
    t = cfg.times[0]
    k = spectral_levels(n)
    rng = np.random.default_rng(cfg.seed + 1)
    zs = np.vstack([[[1.0, 0.0], [0.0, 1.0], [0.6, -0.5]], _disk_points(rng, 7)])
    worst = 0.0
    curve = []
    for z in zs:
        w = weyl_operator(z, n)
        out, steps = _quadrature_flow(w.matrix, t)
        target = w.scaled(math.exp(-t * float(z[0] ** 2 + z[1] ** 2)))
        num = trace_norm((FockOperator(out) - target).leading_block(k))
        den = trace_norm(target.leading_block(k))
        rel = num / den
        worst = max(worst, rel)
        curve.append({"zx": float(z[0]), "zy": float(z[1]), "rel_error": float(rel)})
    return ExperimentReport(
        check="eigen_relation",
        params={"truncation": n, "t": t, "block": k, "substeps": steps, "seed": cfg.seed + 1},
        conditions=(Condition("max_rel_error", worst, "<=", 1e-3),),
        curve=curve,
    )


def _random_low_block_state(rng: np.random.Generator, block: int, n: int) -> DensityOperator:
    g = rng.standard_normal((block, block)) + 1j * rng.standard_normal((block, block))
    p = g @ g.conj().T
    p = p / np.trace(p).real
    full = np.zeros((n, n), dtype=complex)
    full[:block, :block] = p
    return DensityOperator(full)


def check_path_agreement(cfg: RunConfig) -> ExperimentReport:
    """Quadrature and spectral evolutions agree on the reconstructable block.

    The exact flow is a third column, exact on that block: each row records
    both engines' gaps to it, while the verdict stays quadrature against
    spectral.
    """
    n = cfg.truncation
    rng = np.random.default_rng(cfg.seed + 2)
    k = spectral_levels(n)
    states = [_random_low_block_state(rng, k, n) for _ in range(10)]
    spectral = [_spectral_flow(rho, cfg.times) for rho in states]  # one transform each
    worst = 0.0
    curve, drifts = [], []
    for j, t in enumerate(cfg.times):  # time first, so each channel is built once
        for i, rho in enumerate(states):
            quad = evolve_state(HeatFlowParams(t), rho, drifts).matrix[:k, :k]
            spec = spectral[i][j].matrix
            exact = exact_heat(rho.matrix, t, k)
            gap = trace_norm(quad - spec)
            worst = max(worst, gap)
            curve.append({"state": i, "t": t, "trace_norm_gap": float(gap),
                          "quadrature_exact_gap": trace_norm(quad - exact),
                          "spectral_exact_gap": trace_norm(spec - exact)})
    curve.sort(key=lambda row: row["state"])  # stable: state-major rows
    return ExperimentReport(
        check="path_agreement",
        params={"truncation": n, "times": list(cfg.times), "states": len(states),
                "block": k, "seed": cfg.seed + 2},
        conditions=(Condition("max_trace_norm_gap", worst, "<=", 2e-3),),
        details={"quadrature_exact_gap_max": max(r["quadrature_exact_gap"] for r in curve),
                 "spectral_exact_gap_max": max(r["spectral_exact_gap"] for r in curve),
                 "trace_renormalization_max": max(drifts, default=0.0)},
        curve=curve,
    )


def check_conservation(cfg: RunConfig) -> ExperimentReport:
    """The quadrature flow of a probability measure keeps the trace and the identity."""
    n = cfg.truncation
    block = max(2, min(8, n // 4))
    rng = np.random.default_rng(cfg.seed + 3)
    rho = _random_low_block_state(rng, block, n)
    worst = 0.0
    curve = []
    for t in cfg.times:
        out_state, steps = _quadrature_flow(rho.matrix, t)
        trace_drift = abs(complex(np.trace(out_state)) - 1.0)
        unital_drift = float(np.abs(_quadrature_flow(np.eye(n), t)[0] - np.eye(n)).max())
        worst = max(worst, trace_drift, unital_drift)
        curve.append({"t": t, "substeps": steps, "trace_drift": float(trace_drift),
                      "unital_drift": unital_drift})
    return ExperimentReport(
        check="conservation",
        params={"truncation": n, "times": list(cfg.times), "block": block,
                "seed": cfg.seed + 3},
        conditions=(Condition("max_drift", worst, "<=", 1e-6),),
        curve=curve,
    )


def check_semigroup_tv(cfg: RunConfig) -> ExperimentReport:
    """Measure-level semigroup law: the unit-time Gaussian squares to time 2."""
    g1 = gaussian_measure(1.0, default_gaussian_grid(1.0))
    conv = convolve(g1, g1)
    g2 = gaussian_measure(2.0, conv.grid)
    tv = (conv - g2).total_variation()
    return ExperimentReport(
        check="semigroup_tv",
        params={"t": 1.0, "grid_half_width": conv.grid.half_width,
                "grid_points": conv.grid.points_per_axis},
        conditions=(Condition("total_variation", tv, "<=", 1e-3),),
    )


def check_semigroup_composition(cfg: RunConfig) -> ExperimentReport:
    """Spectral path: s-step then t-step equals the (s+t)-step."""
    n = max(cfg.truncation, 40)
    s, t = 0.25, 0.5
    worst = 0.0
    curve = []
    for label, rho in [("vacuum", number_state(0, n)), ("coherent", coherent_state(0.8, n))]:
        joined, first = _spectral_flow(rho, (s + t, s))
        second = apply_spectral(HeatFlowParams(t), first.embedded(n))
        gap = trace_norm(joined - second)
        worst = max(worst, gap)
        curve.append({"state": label, "s": s, "t": t, "trace_norm_gap": float(gap)})
    return ExperimentReport(
        check="semigroup_composition",
        params={"truncation": n, "s": s, "t": t},
        conditions=(Condition("max_trace_norm_gap", worst, "<=", 2e-3),),
        curve=curve,
    )


def check_generator_scaling(cfg: RunConfig) -> ExperimentReport:
    """Finite-difference generator coefficient scales as minus |z| squared."""
    n = cfg.truncation
    base = (0.0125, 0.025)
    zs = [(1.0, 0.0), (0.6, 0.8), (1.2, 0.5)]
    # the first-order defect is ~ t |z|^4 / 2, so shrink times accordingly;
    # the Richardson step reads two times
    coeffs, residuals = map(list, zip(*(
        generator_check(z, n, tuple(t / (z[0] ** 2 + z[1] ** 2) ** 2 for t in base))
        for z in zs)))
    targets = [-(x * x + y * y) for x, y in zs]
    rel_devs = [abs(c - g) / abs(g) for c, g in zip(coeffs, targets)]
    return ExperimentReport(
        check="generator_scaling",
        params={"truncation": n, "base_t_values": list(base),
                "z_values": [list(z) for z in zs]},
        conditions=(Condition("max_rel_dev", max(rel_devs), "<=", 2e-2),
                    Condition("unit_z_abs_error", abs(coeffs[0] + 1.0), "<=", 1e-2),
                    Condition("max_fd_residual", max(residuals), "<=", 1e-2)),
        details={"fd_residuals": residuals},
        curve=[{"zx": z[0], "zy": z[1], "coefficient": c, "target": g, "rel_dev": float(dev)}
               for z, c, g, dev in zip(zs, coeffs, targets, rel_devs)],
    )


def _choi_report(check: str, ch: MeasureChannel, params: dict, sense: str,
                 bound: float) -> ExperimentReport:
    """The least eigenvalue of ``ch``'s Choi block, on a quarter of its
    levels and at most four, held against bound in sense."""
    block = min(4, ch.truncation // 4)
    eigs = np.linalg.eigvalsh(choi_matrix(ch, block))
    return ExperimentReport(
        check=check,
        params={"truncation": ch.truncation, "block": block, **params},
        conditions=(Condition("min_eigenvalue", eigs.min(), sense, bound),),
        details={"max_eigenvalue": float(eigs.max())},
    )


def check_choi_positivity(cfg: RunConfig) -> ExperimentReport:
    """Choi block of the Gaussian channel is positive semidefinite.

    A time beyond one quadrature step is checked on the substep channel
    evolve_state composes: the flow at t is the composition of its
    substeps, and a composition of completely positive maps is completely
    positive.
    """
    t = cfg.times[0]
    ch, steps = _substep_channel(t, cfg.truncation)
    return _choi_report("choi_positivity", ch, {"t": t, "substeps": steps}, ">=", -1e-8)


def check_choi_witness(cfg: RunConfig) -> ExperimentReport:
    """A signed measure produces a genuinely non-positive Choi block."""
    grid = GridSpec(half_width=2.0, points_per_axis=8)
    z0 = (0.5, 1.0)
    zs = np.array([z0, (-z0[0], -z0[1])])
    mu_signed = point_mass_channel(zs, [0.5, -0.5], grid, cfg.truncation)
    return _choi_report("choi_witness", mu_signed, {"z0": list(z0)}, "<=", -0.01)


def _offband_sample(delta: float, rng: np.random.Generator) -> np.ndarray:
    """400 off-lattice points with delta <= |z| <= 3*delta, plus 64 on the
    delta ring."""
    r = delta * (1.0 + 2.0 * rng.uniform(0.0, 1.0, 400))
    th = rng.uniform(0.0, 2.0 * math.pi, 400)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    ring_th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    ring = delta * 1.0000001 * np.column_stack([np.cos(ring_th), np.sin(ring_th)])
    return np.vstack([pts, ring])


def _lemma_row(t: float, delta: float, grid: GridSpec, sample: np.ndarray) -> dict:
    """One time's approximant, checked and dropped: its off-band sup on the
    lattice (moduli written over its complex half rows, no float copy) and
    at ``sample``, and its TV gap to the Gaussian."""
    nu = band_limited_approximant(t, delta, grid)
    # |nu_hat| on the conjugate lattice: its half rows, which the other rows mirror
    half = _dft_half(nu.weights)
    np.abs(half, out=half)
    disk, radius = _lattice_box(grid, delta)  # every node with |zeta| < delta
    half[disk.start:, disk][(radius < delta)[: len(half) - disk.start]] = 0.0
    on_lattice = float(half.real.max())
    del half
    sup = max(float(np.abs(symplectic_ft_at(nu, sample)).max()), on_lattice)
    gap = gaussian_measure(t, grid).weights
    gap -= nu.weights
    return {"t": t, "offband_sup": sup, "tv": float(np.abs(gap, out=gap).sum()),
            "points": len(sample)}


@lru_cache(maxsize=None)  # cleared after each subcommand run: both lemma checks read these
def _lemma_rows(delta: float, times: tuple, seed: int) -> tuple[dict, ...]:
    """The rows of both lemma checks, one approximant table alive at a time."""
    grid = default_lemma_grid(delta)
    rng = np.random.default_rng(seed + 4)
    return tuple(_lemma_row(t, delta, grid, _offband_sample(delta, rng)) for t in times)


def check_lemma_band_limit(cfg: RunConfig) -> ExperimentReport:
    """The surrogate's transform is dead off the delta disk, at every lattice node."""
    delta = cfg.delta
    grid = default_lemma_grid(delta)
    rows = _lemma_rows(delta, cfg.times, cfg.seed)
    radius = _lattice_box(grid, delta)[1]
    support = _approximant_band(grid, delta)[2]  # a disk: as many contiguous columns as rows
    return ExperimentReport(
        check="lemma_band_limit",
        params={"delta": delta, "times": list(cfg.times),
                "grid_half_width": grid.half_width,
                "grid_points": grid.points_per_axis, "seed": cfg.seed + 4},
        conditions=(Condition("offband_sup_max", max(r["offband_sup"] for r in rows), "<=", 1e-6),),
        details={"offband_lattice_nodes": grid.points_per_axis ** 2 - int((radius < delta).sum()),
                 "offlattice_points_per_time": rows[0]["points"],
                 "qhat_support_nodes": int(support.sum()),
                 "dual_band_columns": int(support.any(axis=0).sum())},
        curve=[{"t": r["t"], "offband_sup": r["offband_sup"]} for r in rows],
    )


def check_lemma_tv_sweep(cfg: RunConfig) -> ExperimentReport:
    """Distance from the Gaussian decays along the time sweep."""
    delta = cfg.delta
    grid = default_lemma_grid(delta)
    tvs = [r["tv"] for r in _lemma_rows(delta, cfg.times, cfg.seed)]
    return ExperimentReport(
        check="lemma_tv_sweep",
        params={"delta": delta, "times": list(cfg.times),
                "grid_half_width": grid.half_width,
                "grid_points": grid.points_per_axis},
        conditions=(Condition("final_tv", tvs[-1], "<=", 0.05),
                    *_rise("max_tv_rise", tvs, "<", 0.0)),
        details={"grid_nodes": grid.points_per_axis ** 2},
        curve=[{"t": t, "tv": v} for t, v in zip(cfg.times, tvs)],
    )


def check_lemma_ft_formula(cfg: RunConfig) -> ExperimentReport:
    """Closed form of the square-root-density transform vs direct quadrature.

    Checked at t = 1 where the relative scale stays well above roundoff;
    for large t both sides underflow and a relative test is meaningless.
    """
    t = 1.0
    half_width = 18.2 * math.sqrt(2.0 * t) * 1.05
    m = int(math.ceil(2.0 * half_width / 0.1 / 2.0) * 2)
    grid = GridSpec(half_width=half_width, points_per_axis=m)
    x, y = grid.mesh()
    vals = np.exp(-(x * x + y * y) / (32.0 * t)) / math.sqrt(16.0 * math.pi * t)
    sqrt_mu = GridMeasure(grid, vals * grid.cell_area())
    rng = np.random.default_rng(cfg.seed + 5)
    pts = _disk_points(rng, 200, radius=2.0)
    numeric = symplectic_ft_at(sqrt_mu, pts)
    closed = sqrt_density_ft(t, np.hypot(pts[:, 0], pts[:, 1]))
    rel = float((np.abs(numeric - closed) / np.abs(closed)).max())
    return ExperimentReport(
        check="lemma_ft_formula",
        params={"t": t, "grid_half_width": grid.half_width, "grid_points": m,
                "sample_points": len(pts), "seed": cfg.seed + 5},
        conditions=(Condition("max_rel_error", rel, "<=", 1e-6),),
    )


def check_purity_decay(cfg: RunConfig) -> ExperimentReport:
    """Distinguishability of the first two basis states dies under the flow."""
    n = cfg.truncation
    rows = decay_curve(number_state(0, n), number_state(1, n), cfg.times)
    d = [row["distance"] for row in rows]
    start_err = abs(d[0] - 2.0) if cfg.times[0] == 0 else 0.0
    inside = [dist for tt, dist in zip(cfg.times, d) if 0 < tt <= 10.0]
    final = inside[-1] if inside else d[-1]
    return ExperimentReport(
        check="purity_decay",
        params={"truncation": n, "times": list(cfg.times)},
        conditions=(Condition("final_distance", final, "<", 0.2),
                    Condition("initial_distance_error", start_err, "<=", 1e-8),
                    *_rise("max_distance_rise", d, "<", 0.0)),
        curve=list(rows),
    )


def check_purity_certificate(cfg: RunConfig) -> ExperimentReport:
    """Three-term certificate at the final time; pairing must vanish."""
    n = cfg.truncation
    return certified_bound(number_state(0, n), number_state(1, n), cfg.times[-1],
                           cfg.budget, cfg.delta)


def check_absorbing_probe(cfg: RunConfig) -> ExperimentReport:
    n = cfg.truncation
    probes = [_build_probe(spec, n) for spec in cfg.probes]
    return absorbing_state_probe((0.0, 1.0, 2.0), probes)


# Both Beurling checks solve at numerical rank: displacement rows on a disk
# are severely ill-conditioned, and machine-rank projections bury the
# trend under noise directions.
_BEURLING_RCOND = 1e-6


def _beurling_sweep(n: int, epsilons, seed: int, traceless: bool) -> list[dict]:
    """A random Hermitian N x N operand, traceless or of unit trace, and its
    band-annihilated distances over the epsilons, largest first."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = m + m.conj().T
    m = m - np.trace(m).real / n * np.eye(n) if traceless else m / np.trace(m).real
    a = FockOperator(m)
    rows = []
    for eps in sorted(epsilons, reverse=True):
        d, b = band_annihilated_distance(a, eps, constraint_grid(eps), rcond=_BEURLING_RCOND)
        rows.append({"epsilon": eps, "trace_norm_distance": float(d),
                     "hs_distance": float(np.linalg.norm(a.matrix - b.matrix))})
    return rows


def check_beurling_monotonicity(cfg: RunConfig) -> ExperimentReport:
    """Band-annihilated distance shrinks with the disk, for trace-zero input."""
    rows = _beurling_sweep(cfg.truncation, cfg.epsilons, cfg.seed + 6, traceless=True)
    ds = [r["trace_norm_distance"] for r in rows]
    return ExperimentReport(
        check="beurling_monotonicity",
        params={"truncation": cfg.truncation, "epsilons": [r["epsilon"] for r in rows],
                "seed": cfg.seed + 6, "rcond": _BEURLING_RCOND},
        conditions=(Condition("final_trace_norm_distance", ds[-1], "<=", ds[0]),
                    *_rise("max_trace_norm_rise", ds, "<=", 1e-9),
                    *_rise("max_hs_rise", [r["hs_distance"] for r in rows], "<=", 1e-9)),
        curve=rows,
    )


def check_beurling_trace_bound(cfg: RunConfig) -> ExperimentReport:
    """Unit-trace inputs stay at distance at least one from the band."""
    rows = _beurling_sweep(cfg.truncation, cfg.epsilons, cfg.seed + 7, traceless=False)
    return ExperimentReport(
        check="beurling_trace_bound",
        params={"truncation": cfg.truncation, "epsilons": [r["epsilon"] for r in rows],
                "seed": cfg.seed + 7, "rcond": _BEURLING_RCOND},
        conditions=(Condition("min_trace_norm_distance",
                              min(r["trace_norm_distance"] for r in rows), ">=", 1.0 - 1e-6),),
        curve=[{k: r[k] for k in ("epsilon", "trace_norm_distance")} for r in rows],
    )


_RUNNERS = {
    "weyl-check": (check_weyl_relations, check_riemann_lebesgue),
    "heatflow": (check_eigen_relation, check_path_agreement, check_conservation,
                 check_semigroup_tv, check_semigroup_composition,
                 check_generator_scaling),
    "choi": (check_choi_positivity, check_choi_witness),
    "lemma37": (check_lemma_band_limit, check_lemma_tv_sweep,
                check_lemma_ft_formula),
    "purity": (check_purity_decay, check_purity_certificate,
               check_absorbing_probe),
    "beurling": (check_beurling_monotonicity, check_beurling_trace_bound),
}


def run_subcommand(subcommand: str, cfg: RunConfig) -> list[tuple[ExperimentReport, dict]]:
    """Each check's report with its costs: wall time in seconds, and the
    channel-kernel builds and cache hits it adds, which depend on what ran
    before."""
    out = []
    try:
        for fn in _RUNNERS[subcommand]:
            start, before = time.perf_counter(), _content_kernel.cache_info()
            report = fn(cfg)
            after = _content_kernel.cache_info()
            out.append((report, {"wall_s": time.perf_counter() - start, "kernels": {
                "builds": after.misses - before.misses,
                "cache_hits": after.hits - before.hits}}))
    finally:
        _lemma_rows.cache_clear()
    return out


# --------------------------------------------------------------------------
# entry point

def _write_artifacts(out_dir: Path, subcommand: str, reports) -> None:
    target = out_dir / subcommand.replace("-", "_")
    for rep in reports:
        rep.save(target / rep.check)


def _write_summary(out_dir: Path, reports, error: dict | None) -> dict:
    keys = ("params", "measured", "bound", "pass")  # of each report's own JSON
    summary = {
        "version": __version__,
        "checks": [{"name": d["check"], **{k: d[k] for k in keys}}
                   for d in map(ExperimentReport.to_dict, reports)],
    }
    if error:
        summary["error"] = error
    _write_json(out_dir / "summary.json", summary)
    return summary


def _hugepage_mode() -> str | None:
    """The bracketed transparent huge page mode, which moves peak RSS;
    None where the kernel has no such setting."""
    try:
        text = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return None
    return text.partition("[")[2].partition("]")[0]


def _write_metadata(out_dir: Path, argv, wall_s: dict, kernels: dict, started: float,
                    error: dict | None) -> None:
    meta = {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "argv": list(argv),
        "package_version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "transparent_hugepage": _hugepage_mode(),
        "check_wall_s": wall_s,
        "check_kernels": kernels,
        "total_wall_s": time.perf_counter() - started,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
                        if resource else None),
    }
    if error:
        meta["error"] = error
    _write_json(out_dir / "run_metadata.json", meta)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccrflow",
        description="Heat-flow experiments on truncated oscillator space.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS + ("all",):
        p = sub.add_parser(name, help=f"run the {name} experiment family")
        p.add_argument("--config", metavar="PATH", default=None,
                       help="key = value config file with [common] and per-subcommand sections")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="artifact directory (default ccrflow-out)")
        p.add_argument("--truncation", metavar="N", type=int, default=None,
                       help="number of retained oscillator levels")
        p.add_argument("--times", metavar="a,b,c", default=None,
                       help="comma-separated time grid")
        p.add_argument("--delta", metavar="d", default=None,
                       help="band radius of the approximant and the certificate")
        p.add_argument("--json-summary", action="store_true",
                       help="print the summary JSON to stdout")
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    names = SUBCOMMANDS if args.subcommand == "all" else (args.subcommand,)
    try:
        configs = {name: resolve_config(name, args) for name in names}
    except ConfigError as exc:
        print(f"ccrflow: invalid config: {exc}", file=sys.stderr)
        return 2
    out_dir = configs[names[0]].out_dir
    all_reports, wall_s, kernels, error = [], {}, {}, None
    for name in names:
        try:
            timed = run_subcommand(name, configs[name])
        except ValueError as exc:
            # module preconditions double as config validation for the
            # parameters only the numerics can judge (truncation windows,
            # budgets); what finished before keeps its summary
            print(f"ccrflow: {name}: {exc}", file=sys.stderr)
            error = {"subcommand": name, "message": str(exc)}
            break
        reports = [rep for rep, _ in timed]
        wall_s.update((rep.check, costs["wall_s"]) for rep, costs in timed)
        kernels.update((rep.check, costs["kernels"]) for rep, costs in timed)
        _write_artifacts(out_dir, name, reports)
        all_reports.extend(reports)
        for rep in reports:
            print(rep.summary_line())
    summary = _write_summary(out_dir, all_reports, error)
    _write_metadata(out_dir, argv, wall_s, kernels, started, error)
    if args.json_summary:
        print(json.dumps(summary, sort_keys=True, default=_json_fallback))
    if error:
        return 2
    return 0 if all(rep.passed for rep in all_reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
