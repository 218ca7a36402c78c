"""Operator Fourier transform on the truncated Fock space.

The transform of a trace-class operator is the phase-space function
``z -> trace(A W_z)``.  On the truncation it is trustworthy only while the
displacement amplitude stays inside the retained levels, i.e. for
|z| <= sqrt(2N); beyond that the entries of W_z are truncation artifacts.
Inversion is a quadrature of ``F(z) W_z^dagger`` against the phase-space
area element with the Plancherel constant 1/(2*pi), which is confirmed by
a calibration fit before first use rather than taken on faith.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FockOperator, _displacement_chunks, number_state, trace_norm
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


def _trace_against_batch(a: np.ndarray, zs: np.ndarray, n: int) -> np.ndarray:
    """trace(A W_z) for each row z, chunked so the Weyl batch stays small."""
    out = np.empty(len(zs), dtype=complex)
    for sl, w in _displacement_chunks(zs, n):
        out[sl] = np.einsum("mn,bnm->b", a, w, optimize=True)
    return out


def char_values(a: FockOperator, points: np.ndarray) -> np.ndarray:
    """Transform of ``a`` at arbitrary phase-space points (B, 2)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    radius = np.hypot(pts[:, 0], pts[:, 1]).max(initial=0.0)
    limit = trust_radius(a.dim)
    if radius > limit + 1e-9:
        raise ValueError(
            f"point radius {radius:.3f} exceeds the trustworthy window "
            f"{limit:.3f} for dimension {a.dim}"
        )
    return _trace_against_batch(a.matrix, pts, a.dim)


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
    xs, ys = grid.mesh()
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    vals = _trace_against_batch(a.matrix, pts, a.dim)
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


def _raw_inverse(values: np.ndarray, grid: GridSpec, n: int) -> np.ndarray:
    """Unnormalized quadrature sum of F(z) W_z^dagger over complete disks.

    Nodes outside the inscribed disk (or the trustworthy window, whichever
    is smaller) are dropped: partial corner rings break the radial
    cancellation the reconstruction relies on, and beyond the window the
    sampled transform is a truncation artifact anyway.
    """
    xs, ys = grid.mesh()
    keep = np.hypot(xs, ys).ravel() <= min(
        grid.half_width, trust_radius(n)
    ) + 1e-12
    pts = np.column_stack([xs.ravel(), ys.ravel()])[keep]
    flat = np.asarray(values, dtype=complex).ravel()[keep]
    acc = np.zeros((n, n), dtype=complex)
    for sl, w in _displacement_chunks(pts, n):
        acc += np.einsum("b,bnm->mn", flat[sl], w.conj(), optimize=True)
    return acc * grid.cell_area()


@lru_cache(maxsize=1)
def _calibrated_constant() -> float:
    """Fit the inversion constant on a small vacuum round trip.

    Least-squares fit of c in c * quadrature = |0><0| under the
    Hilbert-Schmidt inner product on the reliable leading block; must land
    on 1/(2*pi) to 0.1% or the convention wiring is broken and inversion
    refuses to run.
    """
    n = 20
    grid = GridSpec(half_width=6.0, points_per_axis=64)
    k = reliable_levels(grid, n)
    p0 = number_state(0, n).matrix[:k, :k]
    f = char_function(FockOperator(number_state(0, n).matrix), grid)
    raw = _raw_inverse(f.values, grid, n)[:k, :k]
    c = float(np.real(np.vdot(raw, p0)) / np.real(np.vdot(raw, raw)))
    if abs(c * 2.0 * math.pi - 1.0) > 1e-3:
        raise RuntimeError(
            f"inversion constant calibration failed: fitted {c:.8f}, "
            f"expected {INVERSION_CONSTANT:.8f}"
        )
    return INVERSION_CONSTANT


@lru_cache(maxsize=32)
def _probe_round_trip_error(grid: GridSpec, source_dim: int) -> float:
    k = reliable_levels(grid, source_dim)
    p0 = number_state(0, source_dim).matrix
    f = char_function(FockOperator(p0), grid)
    raw = _raw_inverse(f.values, grid, source_dim)
    return trace_norm(INVERSION_CONSTANT * raw[:k, :k] - p0[:k, :k])


def inverse_transform(f: CharFunction, n_levels: int) -> FockOperator:
    """Reconstruct the leading ``n_levels`` block from the sampled transform.

    The quadrature runs at the source truncation (where the Weyl matrices
    are trustworthy across the window) and the result is cropped to the
    requested block.  Three gates guard the output: the grid must resolve
    the Weyl-kernel oscillation (h * sqrt(2N) <= pi/2), the window must be
    wide enough to carry ``n_levels`` (see reliable_levels), and a cached
    vacuum round-trip probe on the same grid must reconstruct to 1e-3.
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
    c = _calibrated_constant()
    probe = _probe_round_trip_error(f.grid, f.source_dim)
    if probe > 1e-3:
        raise ValueError(
            f"grid fails the vacuum round-trip probe ({probe:.2e} > 1e-3); "
            "refine the spacing or extend the window"
        )
    raw = _raw_inverse(f.values, f.grid, f.source_dim)
    return FockOperator(c * raw[:n_levels, :n_levels])


def riemann_lebesgue_profile(a: FockOperator, radii) -> list[float]:
    """Ring maxima of |transform| at the given radii, over 64 directions.

    For fixed finite-rank operators the profile decays to zero; the decay
    rate is not asserted, only observed.
    """
    radii = [float(r) for r in radii]
    if not radii:
        return []
    angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    out = []
    for r in radii:
        vals = char_values(a, r * dirs)
        out.append(float(np.abs(vals).max()))
    return out
