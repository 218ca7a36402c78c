"""Operator Fourier transform on the truncated Fock space.

The transform of a trace-class operator is the phase-space function
``z -> trace(A W_z)``.  On the truncation it is trustworthy only while the
displacement amplitude stays inside the retained levels, i.e. for
|z| <= sqrt(2N); beyond that the entries of W_z are truncation artifacts.
Inversion is a quadrature of ``F(z) W_z^dagger`` against the phase-space
area element with the Plancherel constant 1/(2*pi).  The constant is not
taken on faith: before a grid inverts anything, the same constant must
reconstruct the vacuum from its own transform on that grid.

Neither direction builds a displacement matrix.  With z = rho(cos th, sin th)
and (lam, V) the eigensystem of Q (see fock.displacement_batch),

    W_z[i, j] = e^{i th (i - j)} sum_k V_ik V_jk e^{i rho lam_k},

so both sums separate into an offset d and an eigen-index k, through the
one offset layout that the channel kernel shares: fock._offset_gather's
read-only view of A[i, i + d] and fock._position_eigensystem's of V[i + d],
each read in place, with fock._offset_scatter back to a matrix.  The
nodes of a square-symmetry class (about an eighth of a grid) share a radius
and sit at angles q pi/2 +- th_f, where e^{i th d} = i^{q d} e^{+-i th_f d}
exactly, so both directions sum over classes, against class tables cached
per grid: 1.2 MB at N = 30 and 2.8 MB at N = 40.  The inverse sums only
the offsets and rows of the leading block it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    FockOperator,
    _class_sums,
    _class_tables,
    _lattice_classes,
    _offset_gather,
    _offset_scatter,
    _polar,
    _position_eigensystem,
    _quarter_powers,
    number_state,
    trace_norm,
)
from .phase_space import GridSpec

__all__ = [
    "CharFunction",
    "trust_radius",
    "reliable_levels",
    "char_function",
    "char_values",
    "inverse_transform",
    "riemann_lebesgue_profile",
    "INVERSION_CONSTANT",
]

INVERSION_CONSTANT = 1.0 / (2.0 * math.pi)


def trust_radius(n_levels: int) -> float:
    """Largest |z| whose displacement stays inside the truncation.

    |alpha|^2 = |z|^2 / 2 must not exceed the retained level count.
    """
    return math.sqrt(2.0 * n_levels)


@dataclass(frozen=True)
class CharFunction:
    """Sampled operator transform, tagged with the truncation it came from."""

    grid: GridSpec
    values: np.ndarray
    source_dim: int

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        m = self.grid.points_per_axis
        if v.shape != (m, m):
            raise ValueError("values shape does not match the grid")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("transform values must be finite")
        object.__setattr__(self, "values", v)
        if self.source_dim < 1:
            raise ValueError("source dimension must be positive")


@lru_cache(maxsize=2)
def _grid_classes(grid: GridSpec, n: int) -> tuple:
    """fock._lattice_classes of every node of ``grid``, class phases over
    the 2N - 1 offsets of truncation N, read-only: about 1.7 N^3 complex
    entries on the spectral grid, 1.2 MB at N = 30 and 2.8 MB at N = 40."""
    tables = _lattice_classes(grid.points_per_axis, grid.h, n, n - 1)
    for t in tables:
        t.setflags(write=False)
    return tables


def _offset_sums(a: np.ndarray, expo) -> np.ndarray:
    """The offset-d part of trace(A W_z) before its angle phase, per row of
    fock._class_tables' e^{i rho_f lam_k}: sum_k e^{i rho_f lam_k} c[d, k],
    c[d, k] = sum_i A[i, i+d] V_ik V_{i+d,k}, shape (rows, 2N - 1)."""
    n = a.shape[0]
    _, vec, layout = _position_eigensystem(n)
    return expo @ np.einsum("id,ik,ikd->kd", _offset_gather(a), vec, layout)


def char_values(a: FockOperator, points: np.ndarray) -> np.ndarray:
    """Transform of ``a`` at phase-space points (..., 2), one value per point."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    radius = np.hypot(pts[:, 0], pts[:, 1]).max(initial=0.0)
    limit = trust_radius(a.dim)
    if not radius <= limit + 1e-9:
        raise ValueError(
            f"point radius {radius:.3f} exceeds the trustworthy window "
            f"{limit:.3f} for dimension {a.dim}"
        )
    # each point is its own class, unreflected and unturned
    phase, expo = _class_tables(*_polar(pts), a.dim, a.dim - 1)
    return (phase * _offset_sums(a.matrix, expo)).sum(1)


def char_function(a: FockOperator, grid: GridSpec) -> CharFunction:
    """Sample the transform on every node of ``grid``.

    The grid's axis extent must fit inside the trustworthy window.  Corner
    nodes may stick out radially by a factor sqrt(2); their values carry
    proportionally larger truncation noise, which is acceptable because
    every quantitative use downstream weights them by a decaying transform.
    """
    limit = trust_radius(a.dim)
    if grid.half_width > limit + 1e-9:
        raise ValueError(
            f"grid half-width {grid.half_width:.3f} exceeds the trustworthy "
            f"window {limit:.3f} for dimension {a.dim}"
        )
    # e^{i th d} = i^{q d} e^{+-i th_f d} by reflection flag and quarter turn q
    phase, expo, cls, flip, quarter = _grid_classes(grid, a.dim)
    sums, powers = _offset_sums(a.matrix, expo), _quarter_powers(a.dim - 1)
    turned = np.stack([(phase * sums) @ powers, (phase[:, ::-1] * sums) @ powers], 1)
    vals = turned[cls, flip, quarter]
    m = grid.points_per_axis
    return CharFunction(grid, vals.reshape(m, m), a.dim)


def reliable_levels(grid: GridSpec, source_dim: int) -> int:
    """How many leading levels a quadrature window can reconstruct.

    The diagonal of the inversion integrand for level n is a Laguerre
    oscillation whose mass extends to |z|^2 about 8n; a window of radius R
    therefore resolves levels up to about R^2/8 and produces pure artifact
    beyond.  R is the inscribed disk radius, capped by the trustworthy
    window of the source truncation.  One level of safety margin keeps the
    retained top level an order of magnitude below the 1e-3 error scale.
    """
    r = min(grid.half_width, trust_radius(source_dim))
    return max(1, int(r * r / 8.0) - 1)


def _raw_inverse(values: np.ndarray, grid: GridSpec, n: int, levels: int) -> np.ndarray:
    """Leading ``levels`` block of the unnormalized quadrature sum of
    F(z) W_z^dagger over complete disks, W_z at truncation N.

    Nodes outside the inscribed disk (or the trustworthy window, whichever
    is smaller) are dropped: partial corner rings break the radial
    cancellation the reconstruction relies on, and beyond the window the
    sampled transform is a truncation artifact anyway.
    """
    xs, ys = grid.mesh()
    keep = np.hypot(xs, ys).ravel() <= min(
        grid.half_width, trust_radius(n)
    ) + 1e-12
    masked = np.where(keep, np.asarray(values, dtype=complex).ravel(), 0.0)
    # G[s, k] = sum_p F_p e^{-i th_p s} e^{-i rho_p lam_k} by node classes;
    # then out[i, j] = sum_k V_ik V_jk G[j - i, k]
    _, vec, layout = _position_eigensystem(n)
    phase, expo, cls, flip, quarter = _grid_classes(grid, n)
    kept = slice(n - levels, n + levels - 1)  # s = -(levels - 1)..levels - 1
    g = _class_sums(masked, cls, flip, quarter, phase[:, kept])[:, ::-1].T @ expo.conj()
    entries = np.einsum("ik,iks,sk->is", vec[:levels], layout[:levels, :, kept], g)
    return _offset_scatter(entries) * grid.cell_area()


@lru_cache(maxsize=32)
def _probe_round_trip_error(grid: GridSpec, source_dim: int) -> float:
    """Trace-norm error of the vacuum rebuilt on ``grid`` with
    INVERSION_CONSTANT: a wrong constant fails here as surely as a grid
    too coarse or too narrow for the reconstruction."""
    k = reliable_levels(grid, source_dim)
    p0 = number_state(0, source_dim)
    raw = _raw_inverse(char_function(p0, grid).values, grid, source_dim, k)
    return trace_norm(INVERSION_CONSTANT * raw - p0.matrix[:k, :k])


def _require_probe(grid: GridSpec, source_dim: int,
                   remedy: str = "refine the spacing or extend the window") -> None:
    """Refuse ``grid`` unless its vacuum round trip reconstructs to 1e-3,
    naming the caller's ``remedy``."""
    probe = _probe_round_trip_error(grid, source_dim)
    if probe > 1e-3:
        raise ValueError(f"grid fails the vacuum round-trip probe ({probe:.2e} > 1e-3); {remedy}")


def inverse_transform(f: CharFunction, n_levels: int) -> FockOperator:
    """Reconstruct the leading ``n_levels`` block from the sampled transform.

    The quadrature runs at the source truncation (where the Weyl matrices
    are trustworthy across the window) and sums only the requested
    block.  Three gates guard the output: the grid must resolve
    the Weyl-kernel oscillation (h * sqrt(2N) <= pi/2), the window must be
    wide enough to carry ``n_levels`` (see reliable_levels), and a cached
    vacuum round trip on the same grid, with the same constant, must
    reconstruct to 1e-3.
    """
    if n_levels < 1:
        raise ValueError("need at least one level")
    if n_levels > f.source_dim:
        raise ValueError("cannot reconstruct beyond the source dimension")
    limit = trust_radius(f.source_dim)
    if f.grid.h * limit > math.pi / 2.0 + 1e-9:
        raise ValueError(
            f"grid spacing {f.grid.h:.4f} aliases the Weyl kernel at "
            f"dimension {f.source_dim}; need h <= {math.pi / 2.0 / limit:.4f}"
        )
    k = reliable_levels(f.grid, f.source_dim)
    if n_levels > k:
        raise ValueError(
            f"window of radius {min(f.grid.half_width, limit):.2f} supports "
            f"only {k} levels; asked for {n_levels}"
        )
    _require_probe(f.grid, f.source_dim)
    raw = _raw_inverse(f.values, f.grid, f.source_dim, n_levels)
    return FockOperator(INVERSION_CONSTANT * raw)


def riemann_lebesgue_profile(a: FockOperator, radii) -> list[float]:
    """Ring maxima of |transform| at the given radii, over 64 directions.

    For fixed finite-rank operators the profile decays to zero; the decay
    rate is not asserted, only observed.
    """
    radii = np.array([float(r) for r in radii])
    angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    vals = char_values(a, radii[:, None, None] * dirs)
    return [float(v) for v in np.abs(vals).reshape(len(radii), 64).max(axis=1)]
