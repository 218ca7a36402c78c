"""Batch experiment runner: wires every module into pass/fail reports.

Subcommands map to experiment families; each run writes one JSON (and,
when a curve is attached, one CSV) artifact per check plus a summary.
Artifacts are deterministic for a fixed config - timestamps live only in
a separate metadata file.  Exit status: 0 all checks passed, 1 some check
failed, 2 the config was invalid.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channels import (
    HeatFlowParams,
    apply_quadrature,
    apply_spectral,
    choi_matrix,
    evolve_state,
    generator_check,
    heat_channel,
    point_mass_channel,
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
    band_limited_approximant,
    conjugate_lattice,
    convolve,
    default_gaussian_grid,
    default_lemma_grid,
    gaussian_measure,
    sqrt_density_ft,
    symplectic_ft_at,
)
from .purity import (
    absorbing_state_probe,
    band_annihilated_distance,
    certified_bound,
    decay_curve,
    DEFAULT_TIME_GRID,
)
from .reports import ExperimentReport, _json_fallback
from .weyl_transform import reliable_levels, riemann_lebesgue_profile

SUBCOMMANDS = ("weyl-check", "heatflow", "choi", "lemma37", "purity", "beurling")


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one experiment family."""

    truncation: int
    times: tuple
    deltas: tuple
    epsilons: tuple
    probes: tuple
    out_dir: Path
    seed: int
    grid: tuple | None = None  # (half_width, points_per_axis) override

    def __post_init__(self) -> None:
        if not isinstance(self.truncation, int) or not 2 <= self.truncation <= 256:
            raise ConfigError(f"truncation must be an integer in [2, 256], got {self.truncation!r}")
        if len(self.times) == 0:
            raise ConfigError("time grid must not be empty")
        if any(not (math.isfinite(t) and t >= 0) for t in self.times):
            raise ConfigError("times must be finite and nonnegative")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("times must be strictly increasing")
        if len(self.deltas) == 0 or any(not (0 < d < 100) for d in self.deltas):
            raise ConfigError("deltas must be positive")
        if len(self.epsilons) == 0 or any(not (e > 0) for e in self.epsilons):
            raise ConfigError("epsilons must be positive")
        if len(self.probes) == 0:
            raise ConfigError("need at least one probe state")
        for spec in self.probes:
            _parse_probe_spec(spec)  # raises ConfigError on nonsense
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.grid is not None:
            half_width, m = self.grid
            if not (half_width > 0 and math.isfinite(half_width)):
                raise ConfigError("grid half-width must be positive")
            if not (isinstance(m, int) and m >= 2 and m % 2 == 0):
                raise ConfigError("grid point count must be an even integer >= 2")

    def grid_spec(self) -> GridSpec | None:
        if self.grid is None:
            return None
        return GridSpec(half_width=self.grid[0], points_per_axis=self.grid[1])


def _parse_probe_spec(spec: str):
    """Probe specs: 'vacuum', 'one', 'number:k', 'coherent:alpha'."""
    name = spec.strip().lower()
    if name == "vacuum":
        return ("number", 0)
    if name == "one":
        return ("number", 1)
    kind, _, arg = name.partition(":")
    if kind == "number" and arg:
        try:
            return ("number", int(arg))
        except ValueError:
            raise ConfigError(f"bad probe spec {spec!r}") from None
    if kind == "coherent" and arg:
        try:
            return ("coherent", complex(arg))
        except ValueError:
            raise ConfigError(f"bad probe spec {spec!r}") from None
    raise ConfigError(f"unknown probe spec {spec!r}")


def _build_probe(spec: str, n_levels: int) -> tuple[str, DensityOperator]:
    kind, arg = _parse_probe_spec(spec)
    if kind == "number":
        return spec.strip().lower(), number_state(arg, n_levels)
    return spec.strip().lower(), coherent_state(arg, n_levels)


# --------------------------------------------------------------------------
# config resolution: per-subcommand defaults <- config file <- flags

_DEFAULTS = {
    "weyl-check": dict(truncation=40, times=(0.25,)),
    "heatflow": dict(truncation=30, times=(0.25, 1.0)),
    "choi": dict(truncation=24, times=(0.5,)),
    "lemma37": dict(truncation=24, times=(1.0, 4.0, 16.0)),
    "purity": dict(truncation=40, times=DEFAULT_TIME_GRID, epsilons=(1.5,)),
    "beurling": dict(truncation=12, times=(0.25,)),
}
_COMMON = dict(
    deltas=(1.0,),
    epsilons=(1.0, 0.5, 0.25),
    probes=("vacuum", "one", "coherent:0.8"),
    out_dir=Path("ccrflow-out"),
    seed=2026,
    grid=None,
)
_CONFIG_KEYS = ("truncation", "times", "delta", "epsilons", "probes", "out",
                "seed", "grid")


def _parse_float_list(text: str, what: str) -> tuple:
    items = [p.strip() for p in str(text).split(",") if p.strip()]
    try:
        return tuple(float(p) for p in items)
    except ValueError:
        raise ConfigError(f"could not parse {what} list from {text!r}") from None


def _parse_grid_arg(text: str) -> tuple:
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if len(parts) != 2:
        raise ConfigError(f"grid must be 'L,M', got {text!r}")
    try:
        return (float(parts[0]), int(parts[1]))
    except ValueError:
        raise ConfigError(f"grid must be 'L,M' with numeric entries, got {text!r}") from None


def _apply_section(merged: dict, section) -> None:
    """Parse the known keys of one config section (or of the flags)."""
    if "truncation" in section:
        try:
            merged["truncation"] = int(section["truncation"])
        except ValueError:
            raise ConfigError(f"bad truncation {section['truncation']!r}") from None
    if "times" in section:
        merged["times"] = _parse_float_list(section["times"], "times")
    if "delta" in section:
        merged["deltas"] = _parse_float_list(section["delta"], "delta")
    if "epsilons" in section:
        merged["epsilons"] = _parse_float_list(section["epsilons"], "epsilons")
    if "probes" in section:
        merged["probes"] = tuple(
            p.strip() for p in section["probes"].split(",") if p.strip()
        )
    if "out" in section:
        merged["out_dir"] = Path(section["out"])
    if "seed" in section:
        try:
            merged["seed"] = int(section["seed"])
        except ValueError:
            raise ConfigError(f"bad seed {section['seed']!r}") from None
    if "grid" in section:
        merged["grid"] = _parse_grid_arg(section["grid"])


def _check_config_file(parser: configparser.ConfigParser) -> None:
    """Reject sections and keys that no run reads, instead of ignoring them."""
    names = parser.sections()
    if parser.defaults():
        names.insert(0, parser.default_section)
    for name in names:
        if name != "common" and name not in SUBCOMMANDS:
            raise ConfigError(
                f"unknown config section [{name}]; expected [common] or one of "
                + ", ".join(f"[{s}]" for s in SUBCOMMANDS)
            )
        unknown = sorted(set(parser[name]) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(
                f"unknown config key {unknown[0]!r} in [{name}]; expected one of "
                + ", ".join(_CONFIG_KEYS)
            )


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
        _check_config_file(parser)
        for name in ("common", subcommand):
            if parser.has_section(name):
                _apply_section(merged, parser[name])
    flags = {"truncation": args.truncation, "times": args.times,
             "delta": args.delta, "out": args.out, "grid": args.grid}
    _apply_section(merged, {k: v for k, v in flags.items() if v is not None})
    return RunConfig(**merged)


# --------------------------------------------------------------------------
# individual checks; each returns an ExperimentReport

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
    phases = np.exp(0.5j * (z2[:, 0] * z1[:, 1] - z1[:, 0] * z2[:, 1]))
    diff = np.einsum("bij,bjk->bik", w1, w2) - phases[:, None, None] * w12
    n_cols = min(11, n)
    defect = float(np.sqrt((np.abs(diff[:, :, :n_cols]) ** 2).sum(axis=1)).max())
    unit = np.einsum("bji,bjk->bik", w1.conj(), w1) - np.eye(n)
    unit_defect = float(np.sqrt((np.abs(unit[:, :, :n_cols]) ** 2).sum(axis=1)).max())
    return ExperimentReport(
        check="weyl_relations",
        params={"truncation": n, "pairs": len(z1), "max_radius": 1.0,
                "basis_states": n_cols, "seed": cfg.seed},
        measured=defect,
        bound=1e-6,
        passed=bool(defect <= 1e-6 and unit_defect <= 1e-6),
        details={"unitarity_defect": unit_defect},
    )


def check_riemann_lebesgue(cfg: RunConfig) -> ExperimentReport:
    """Vacuum ring profile: exact Gaussian law, tiny beyond radius 4.3."""
    n = cfg.truncation
    vac = FockOperator(number_state(0, n).matrix)
    radii = [0.25 * k for k in range(1, 25)]
    profile = riemann_lebesgue_profile(vac, radii)
    reference = [math.exp(-r * r / 4.0) for r in radii]
    dev = max(abs(p - q) for p, q in zip(profile, reference))
    tail = max((p for r, p in zip(radii, profile) if r >= 4.3), default=0.0)
    return ExperimentReport(
        check="riemann_lebesgue",
        params={"truncation": n, "radii": radii},
        measured=float(dev),
        bound=1e-4,
        passed=bool(dev <= 1e-4 and tail <= 0.01),
        details={"tail_max_beyond_4p3": float(tail)},
        curve=[{"radius": r, "ring_max": p, "reference": q}
               for r, p, q in zip(radii, profile, reference)],
    )


def check_eigen_relation(cfg: RunConfig) -> ExperimentReport:
    """Quadrature channel damps each displacement by its Gaussian factor."""
    n = cfg.truncation
    t = cfg.times[0]
    ch = heat_channel(t, n, cfg.grid_spec())
    k = reliable_levels(ch.mu.grid, n)
    rng = np.random.default_rng(cfg.seed + 1)
    zs = np.vstack([[[1.0, 0.0], [0.0, 1.0], [0.6, -0.5]], _disk_points(rng, 7)])
    worst = 0.0
    curve = []
    for z in zs:
        w = weyl_operator(z, n)
        out = apply_quadrature(ch, w)
        target = w.scaled(math.exp(-t * float(z[0] ** 2 + z[1] ** 2)))
        num = trace_norm((out - target).leading_block(k))
        den = trace_norm(target.leading_block(k))
        rel = num / den
        worst = max(worst, rel)
        curve.append({"zx": float(z[0]), "zy": float(z[1]), "rel_error": float(rel)})
    return ExperimentReport(
        check="eigen_relation",
        params={"truncation": n, "t": t, "block": k, "seed": cfg.seed + 1},
        measured=float(worst),
        bound=1e-3,
        passed=bool(worst <= 1e-3),
        curve=curve,
    )


def _random_low_block_state(rng: np.random.Generator, block: int, n: int) -> DensityOperator:
    g = rng.standard_normal((block, block)) + 1j * rng.standard_normal((block, block))
    p = g @ g.conj().T
    p = p / np.trace(p).real
    full = np.zeros((n, n), dtype=complex)
    full[:block, :block] = p
    return DensityOperator(FockOperator(full))


def check_path_agreement(cfg: RunConfig) -> ExperimentReport:
    """Quadrature and spectral evolutions agree on the reconstructable block."""
    n = cfg.truncation
    rng = np.random.default_rng(cfg.seed + 2)
    probe = apply_spectral(HeatFlowParams(cfg.times[0]), FockOperator(number_state(0, n).matrix))
    k = probe.dim
    states = [_random_low_block_state(rng, k, n) for _ in range(10)]
    worst = 0.0
    curve = []
    for i, rho in enumerate(states):
        for t in cfg.times:
            quad = evolve_state(HeatFlowParams(t), rho).matrix[:k, :k]
            spec = apply_spectral(HeatFlowParams(t), FockOperator(rho.matrix), out_levels=k)
            gap = trace_norm(quad - spec.matrix)
            worst = max(worst, gap)
            curve.append({"state": i, "t": t, "trace_norm_gap": float(gap)})
    return ExperimentReport(
        check="path_agreement",
        params={"truncation": n, "times": list(cfg.times), "states": len(states),
                "block": k, "seed": cfg.seed + 2},
        measured=float(worst),
        bound=2e-3,
        passed=bool(worst <= 2e-3),
        curve=curve,
    )


def check_conservation(cfg: RunConfig) -> ExperimentReport:
    """Probability measures give trace-preserving, unital channels."""
    n = cfg.truncation
    block = max(2, min(8, n // 4))
    rng = np.random.default_rng(cfg.seed + 3)
    rho = _random_low_block_state(rng, block, n)
    eye = FockOperator(np.eye(n))
    worst = 0.0
    curve = []
    for t in cfg.times:
        ch = heat_channel(t, n, cfg.grid_spec())
        out_state = apply_quadrature(ch, FockOperator(rho.matrix))
        trace_drift = abs(complex(out_state.trace()) - 1.0)
        out_eye = apply_quadrature(ch, eye)
        unital_drift = float(np.abs(out_eye.matrix - np.eye(n)).max())
        worst = max(worst, trace_drift, unital_drift)
        curve.append({"t": t, "trace_drift": float(trace_drift),
                      "unital_drift": unital_drift})
    return ExperimentReport(
        check="conservation",
        params={"truncation": n, "times": list(cfg.times), "block": block,
                "seed": cfg.seed + 3},
        measured=float(worst),
        bound=1e-6,
        passed=bool(worst <= 1e-6),
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
        measured=float(tv),
        bound=1e-3,
        passed=bool(tv <= 1e-3),
    )


def check_semigroup_composition(cfg: RunConfig) -> ExperimentReport:
    """Spectral path: s-step then t-step equals the (s+t)-step."""
    n = max(cfg.truncation, 40)
    s, t = 0.25, 0.5
    worst = 0.0
    curve = []
    for label, rho in [("vacuum", number_state(0, n)), ("coherent", coherent_state(0.8, n))]:
        op = FockOperator(rho.matrix)
        joined = apply_spectral(HeatFlowParams(s + t), op)
        k = joined.dim
        first = apply_spectral(HeatFlowParams(s), op, out_levels=k)
        second = apply_spectral(HeatFlowParams(t), first.embedded(n), out_levels=k)
        gap = trace_norm(joined - second)
        worst = max(worst, gap)
        curve.append({"state": label, "s": s, "t": t, "trace_norm_gap": float(gap)})
    return ExperimentReport(
        check="semigroup_composition",
        params={"truncation": n, "s": s, "t": t},
        measured=float(worst),
        bound=2e-3,
        passed=bool(worst <= 2e-3),
        curve=curve,
    )


def check_generator_scaling(cfg: RunConfig) -> ExperimentReport:
    """Finite-difference generator coefficient scales as minus |z| squared."""
    n = cfg.truncation
    base = (0.1, 0.05, 0.025, 0.0125)
    zs = [(1.0, 0.0), (0.6, 0.8), (1.2, 0.5)]
    # the first-order defect is ~ t |z|^4 / 2, so shrink times accordingly
    reports = [
        generator_check(z, n, tuple(t / (z[0] ** 2 + z[1] ** 2) ** 2 for t in base))
        for z in zs
    ]
    rel_devs = [abs(r.measured - r.bound) / abs(r.bound) for r in reports]
    primary = reports[0]
    primary_err = abs(primary.measured - (-1.0))
    curve = []
    for z, r, dev in zip(zs, reports, rel_devs):
        curve.append({"zx": z[0], "zy": z[1], "coefficient": r.measured,
                      "target": r.bound, "rel_dev": float(dev)})
    passed = bool(primary_err <= 1e-2 and max(rel_devs) <= 2e-2
                  and all(r.passed for r in reports))
    return ExperimentReport(
        check="generator_scaling",
        params={"truncation": n, "base_t_values": list(base),
                "z_values": [list(z) for z in zs]},
        measured=float(max(rel_devs)),
        bound=2e-2,
        passed=passed,
        details={"coefficient_at_unit_z": primary.measured,
                 "unit_z_abs_error": float(primary_err),
                 "fd_residuals": [r.details["fd_residual_rel"] for r in reports]},
        curve=curve,
    )


def check_choi_positivity(cfg: RunConfig) -> ExperimentReport:
    """Choi block of the Gaussian channel is positive semidefinite."""
    n = cfg.truncation
    t = cfg.times[0]
    ch = heat_channel(t, n, cfg.grid_spec())
    block = min(4, n // 4)
    c = choi_matrix(ch, block)
    eigs = np.linalg.eigvalsh(c)
    return ExperimentReport(
        check="choi_positivity",
        params={"truncation": n, "t": t, "block": block},
        measured=float(eigs.min()),
        bound=-1e-8,
        passed=bool(eigs.min() >= -1e-8),
        details={"max_eigenvalue": float(eigs.max())},
    )


def check_choi_witness(cfg: RunConfig) -> ExperimentReport:
    """A signed measure produces a genuinely non-positive Choi block."""
    n = cfg.truncation
    grid = GridSpec(half_width=2.0, points_per_axis=8)
    z0 = (0.5, 1.0)
    zs = np.array([z0, (-z0[0], -z0[1])])
    mu_signed = point_mass_channel(zs, [0.5, -0.5], grid, n)
    block = min(4, n // 4)
    c = choi_matrix(mu_signed, block)
    eigs = np.linalg.eigvalsh(c)
    return ExperimentReport(
        check="choi_witness",
        params={"truncation": n, "z0": list(z0), "block": block},
        measured=float(eigs.min()),
        bound=-0.01,
        passed=bool(eigs.min() <= -0.01),
        details={"max_eigenvalue": float(eigs.max())},
    )


def _offband_sample(delta: float, rng: np.random.Generator) -> np.ndarray:
    """400 off-lattice points with delta <= |z| <= 3*delta, plus 64 on the
    delta ring."""
    r = delta * (1.0 + 2.0 * rng.uniform(0.0, 1.0, 400))
    th = rng.uniform(0.0, 2.0 * math.pi, 400)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    ring_th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    ring = delta * 1.0000001 * np.column_stack([np.cos(ring_th), np.sin(ring_th)])
    return np.vstack([pts, ring])


def check_lemma_band_limit(cfg: RunConfig) -> ExperimentReport:
    """The surrogate measure's transform is dead outside the delta disk."""
    delta = cfg.deltas[0]
    grid = default_lemma_grid(delta)
    rng = np.random.default_rng(cfg.seed + 4)
    worst = 0.0
    curve = []
    for t in cfg.times:
        nu = band_limited_approximant(t, delta, grid)
        pts = _offband_sample(delta, rng)
        sup = float(np.abs(symplectic_ft_at(nu, pts)).max())
        lattice = conjugate_lattice(grid)
        lx, ly = lattice.mesh()
        lat_pts = np.column_stack([lx.ravel(), ly.ravel()])
        keep = np.hypot(lat_pts[:, 0], lat_pts[:, 1]) >= delta
        lat_keep = lat_pts[keep]
        take = rng.choice(len(lat_keep), size=min(2000, len(lat_keep)), replace=False)
        lat_sup = float(np.abs(symplectic_ft_at(nu, lat_keep[take])).max())
        sup = max(sup, lat_sup)
        worst = max(worst, sup)
        curve.append({"t": t, "offband_sup": sup})
    return ExperimentReport(
        check="lemma_band_limit",
        params={"delta": delta, "times": list(cfg.times),
                "grid_half_width": grid.half_width,
                "grid_points": grid.points_per_axis, "seed": cfg.seed + 4},
        measured=float(worst),
        bound=1e-6,
        passed=bool(worst <= 1e-6),
        curve=curve,
    )


def check_lemma_tv_sweep(cfg: RunConfig) -> ExperimentReport:
    """Distance from the Gaussian decays along the time sweep."""
    delta = cfg.deltas[0]
    grid = default_lemma_grid(delta)
    tvs = []
    for t in cfg.times:
        nu = band_limited_approximant(t, delta, grid)
        mu = gaussian_measure(t, grid)
        tvs.append(float((mu - nu).total_variation()))
    decreasing = all(b < a for a, b in zip(tvs, tvs[1:]))
    final = tvs[-1]
    return ExperimentReport(
        check="lemma_tv_sweep",
        params={"delta": delta, "times": list(cfg.times),
                "grid_half_width": grid.half_width,
                "grid_points": grid.points_per_axis},
        measured=float(final),
        bound=0.05,
        passed=bool(decreasing and final <= 0.05),
        details={"tv_values": tvs, "strictly_decreasing": decreasing},
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
    sqrt_mu = GridMeasure(grid, (vals * grid.cell_area()).astype(complex))
    rng = np.random.default_rng(cfg.seed + 5)
    pts = _disk_points(rng, 200, radius=2.0)
    numeric = symplectic_ft_at(sqrt_mu, pts)
    closed = sqrt_density_ft(t, np.hypot(pts[:, 0], pts[:, 1]))
    rel = float((np.abs(numeric - closed) / np.abs(closed)).max())
    return ExperimentReport(
        check="lemma_ft_formula",
        params={"t": t, "grid_half_width": grid.half_width, "grid_points": m,
                "sample_points": len(pts), "seed": cfg.seed + 5},
        measured=rel,
        bound=1e-6,
        passed=bool(rel <= 1e-6),
    )


def check_purity_decay(cfg: RunConfig) -> ExperimentReport:
    """Distinguishability of the first two basis states dies under the flow."""
    n = cfg.truncation
    curve = decay_curve(number_state(0, n), number_state(1, n), cfg.times,
                        path="generator")
    d = curve.distances
    start_err = abs(d[0] - 2.0) if curve.times[0] == 0 else 0.0
    decreasing = all(b < a for a, b in zip(d, d[1:]))
    inside = [dist for tt, dist in zip(curve.times, d) if tt <= 10.0]
    final = inside[-1] if inside else d[-1]
    return ExperimentReport(
        check="purity_decay",
        params={"truncation": n, "times": list(curve.times)},
        measured=float(final),
        bound=0.2,
        passed=bool(start_err <= 1e-8 and decreasing and final < 0.2),
        details={"initial_distance_error": float(start_err),
                 "strictly_decreasing": decreasing},
        curve=[{"t": tt, "distance": dist} for tt, dist in zip(curve.times, d)],
    )


def check_purity_certificate(cfg: RunConfig) -> ExperimentReport:
    """Three-term certificate at the final time; pairing must vanish."""
    n = cfg.truncation
    t = cfg.times[-1]
    delta = cfg.deltas[0]
    epsilon = cfg.epsilons[0]
    cert = certified_bound(number_state(0, n), number_state(1, n), t, epsilon, delta)
    inner = cert.details["pairing_inner_product"]
    return ExperimentReport(
        check="purity_certificate",
        params={"truncation": n, "t": t, "delta": delta, "epsilon": epsilon},
        measured=cert.measured,
        bound=cert.term1 + cert.term2 + cert.term3 + 1e-6,
        passed=bool(cert.measured <= cert.bound + 1e-6 and inner <= 1e-8
                    and cert.slack > 0),
        details=cert.to_dict(),
    )


def check_absorbing_probe(cfg: RunConfig) -> ExperimentReport:
    n = cfg.truncation
    probes = [_build_probe(spec, n) for spec in cfg.probes]
    return absorbing_state_probe((0.0, 1.0, 2.0), probes)


def check_beurling_monotonicity(cfg: RunConfig) -> ExperimentReport:
    """Band-annihilated distance shrinks with the disk, for trace-zero input.

    Solved at numerical rank (cutoff 1e-6): displacement rows on a disk
    are severely ill-conditioned and machine-rank projections bury the
    trend under noise directions.
    """
    n = cfg.truncation
    rng = np.random.default_rng(cfg.seed + 6)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = m + m.conj().T
    m = m - np.trace(m).real / n * np.eye(n)
    a = FockOperator(m)
    eps_sorted = tuple(sorted(cfg.epsilons, reverse=True))
    rows = []
    for eps in eps_sorted:
        d, b = band_annihilated_distance(a, eps, GridSpec(eps, 8), rcond=1e-6)
        hs = float(np.linalg.norm(a.matrix - b.matrix))
        rows.append({"epsilon": eps, "trace_norm_distance": float(d),
                     "hs_distance": hs})
    ds = [r["trace_norm_distance"] for r in rows]
    hss = [r["hs_distance"] for r in rows]
    mono_tr = all(x >= y - 1e-9 for x, y in zip(ds, ds[1:]))
    mono_hs = all(x >= y - 1e-9 for x, y in zip(hss, hss[1:]))
    return ExperimentReport(
        check="beurling_monotonicity",
        params={"truncation": n, "epsilons": list(eps_sorted),
                "seed": cfg.seed + 6, "rcond": 1e-6},
        measured=float(ds[-1]),
        bound=float(ds[0]),
        passed=bool(mono_tr and mono_hs),
        details={"trace_norm_monotone": mono_tr, "hs_monotone": mono_hs},
        curve=rows,
    )


def check_beurling_trace_bound(cfg: RunConfig) -> ExperimentReport:
    """Unit-trace inputs stay at distance at least one from the band."""
    n = cfg.truncation
    rng = np.random.default_rng(cfg.seed + 7)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = m + m.conj().T
    m = m / np.trace(m).real
    a = FockOperator(m)
    rows = []
    for eps in sorted(cfg.epsilons, reverse=True):
        d, _ = band_annihilated_distance(a, eps, GridSpec(eps, 8), rcond=1e-6)
        rows.append({"epsilon": eps, "trace_norm_distance": float(d)})
    least = min(r["trace_norm_distance"] for r in rows)
    return ExperimentReport(
        check="beurling_trace_bound",
        params={"truncation": n, "epsilons": sorted(cfg.epsilons, reverse=True),
                "seed": cfg.seed + 7, "rcond": 1e-6},
        measured=float(least),
        bound=1.0 - 1e-6,
        passed=bool(least >= 1.0 - 1e-6),
        curve=rows,
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


def run_subcommand(subcommand: str, cfg: RunConfig) -> list[ExperimentReport]:
    out = []
    for fn in _RUNNERS[subcommand]:
        out.append(fn(cfg))
    return out


# --------------------------------------------------------------------------
# entry point

def _write_artifacts(out_dir: Path, subcommand: str, reports) -> None:
    target = out_dir / subcommand.replace("-", "_")
    for rep in reports:
        rep.save(target / rep.check)


def _write_summary(out_dir: Path, reports) -> dict:
    summary = {
        "version": __version__,
        "checks": [
            {
                "name": rep.check,
                "params": rep.params,
                "measured": rep.measured,
                "bound": rep.bound,
                "pass": bool(rep.passed),
            }
            for rep in reports
        ],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2, default=_json_fallback) + "\n",
        encoding="utf-8",
    )
    return summary


def _write_metadata(out_dir: Path, argv) -> None:
    meta = {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "argv": list(argv),
        "package_version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_metadata.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


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
        p.add_argument("--grid", metavar="L,M", default=None,
                       help="override quadrature grid: half-width L, M points per axis")
        p.add_argument("--times", metavar="a,b,c", default=None,
                       help="comma-separated time grid")
        p.add_argument("--delta", metavar="d", default=None,
                       help="band radius (comma-separated list accepted)")
        p.add_argument("--json-summary", action="store_true",
                       help="print the summary JSON to stdout")
    return parser


def main(argv=None) -> int:
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
    all_reports = []
    for name in names:
        try:
            reports = run_subcommand(name, configs[name])
        except ValueError as exc:
            # module preconditions double as config validation for the
            # parameters only the numerics can judge (grids, budgets)
            print(f"ccrflow: {name}: {exc}", file=sys.stderr)
            return 2
        _write_artifacts(out_dir, name, reports)
        all_reports.extend(reports)
        for rep in reports:
            print(rep.summary_line())
    summary = _write_summary(out_dir, all_reports)
    _write_metadata(out_dir, argv)
    if args.json_summary:
        print(json.dumps(summary, sort_keys=True, default=_json_fallback))
    return 0 if all(rep.passed for rep in all_reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
