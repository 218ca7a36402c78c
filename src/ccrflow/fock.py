"""Truncated harmonic-oscillator operator core.

Everything acts on the span of the first ``N`` number states |0>, ..., |N-1>.
Operators are dense complex matrices in that basis; a state is one of them,
checked at construction to be positive with unit trace.  The displacement
(Weyl) unitary ``W_z = exp(i(x Q + y P))`` is built by two independent
routes: a matrix exponential of the truncated generator (exactly unitary,
fast via a cached eigendecomposition of the position operator) and the
closed amplitude formula in the number basis (the top-left block of the
untruncated operator, exact entrywise but not unitary at truncation).
Their agreement on leading blocks is the internal consistency oracle.

Truncation discipline: the last rows and columns of the truncated ladder
operators are wrong by construction, so every quantitative claim in this
package is made on a leading sub-block or on low number states only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .phase_space import _coords

__all__ = [
    "FockOperator",
    "DensityOperator",
    "alpha_of",
    "annihilation",
    "position",
    "weyl_operator",
    "displacement_batch",
    "trace_norm",
    "number_state",
    "coherent_state",
]

# node tables (nodes x width) are built in chunks of about 2^19 entries (8 MB)
_TABLE_ENTRIES = 1 << 19


def alpha_of(z) -> complex:
    """Displacement amplitude of the phase-space point z = (x, y).

    W_z = exp(i(xQ + yP)) equals the displacement operator D(alpha) with
    alpha = (ix - y)/sqrt(2); under this map Im(alpha1 * conj(alpha2))
    reproduces the symplectic form of the two points, which is what makes
    the two pictures interchangeable.
    """
    x, y = _coords(z)
    return complex(-y, x) / math.sqrt(2.0)


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on the truncated number basis.  Immutable value."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("operator must be a square matrix of size >= 1")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def leading_block(self, k: int) -> "FockOperator":
        if not 1 <= k <= self.dim:
            raise ValueError("block size out of range")
        return FockOperator(self.matrix[:k, :k])

    def embedded(self, dim: int) -> "FockOperator":
        """Zero-pad into a larger truncation."""
        if dim < self.dim:
            raise ValueError("target dimension smaller than operator")
        out = np.zeros((dim, dim), dtype=complex)
        out[: self.dim, : self.dim] = self.matrix
        return FockOperator(out)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.matrix - other.matrix)

    def scaled(self, c: complex) -> "FockOperator":
        return FockOperator(c * self.matrix)


_HERMITIAN_TOL = 1e-10
_EIGEN_TOL = 1e-10
_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class DensityOperator(FockOperator):
    """A state: an operator that is self-adjoint, positive semidefinite, of unit trace.

    Checked at construction, after FockOperator's checks, so downstream code
    can assume the invariants: hermiticity and trace within 1e-10, smallest
    eigenvalue >= -1e-10.  Differences and blocks of states are FockOperators.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        m = self.matrix
        herm = float(np.abs(m - m.conj().T).max())
        if herm > _HERMITIAN_TOL:
            raise ValueError(f"state is not self-adjoint (defect {herm:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"state trace is {tr}, expected 1")
        lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if lo < -_EIGEN_TOL:
            raise ValueError(f"state has negative eigenvalue {lo:.3e}")


# ---------------------------------------------------------------------------
# canonical operators


def annihilation(n_levels: int) -> FockOperator:
    """Ladder-down operator: entry sqrt(n) at (n-1, n)."""
    if n_levels < 1:
        raise ValueError("need at least one level")
    m = np.zeros((n_levels, n_levels), dtype=complex)
    ns = np.arange(1, n_levels)
    m[ns - 1, ns] = np.sqrt(ns)
    return FockOperator(m)


def position(n_levels: int) -> FockOperator:
    """Q = (a + a†)/sqrt(2)."""
    a = annihilation(n_levels).matrix
    return FockOperator((a + a.conj().T) / math.sqrt(2.0))


@lru_cache(maxsize=16)
def _position_eigensystem(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (lam, V, layout), lam ascending, of Q: the real symmetric
    tridiagonal matrix with zero diagonal and off-diagonal sqrt(m)/sqrt(2).

    V is the middle N rows of one table padded with N - 1 zero rows on each
    side, and layout is that table's (N, N, 2N - 1) window view: V[i + d, l]
    at [i, l, d + N - 1], laid out as _offset_gather, zero where row i + d
    leaves V.  The table holds (3N - 2) N reals, 0.4 MB at N = 128 and
    1.6 MB at N = 256, where a gathered copy holds N N (2N - 1)."""
    lam, vec = np.linalg.eigh(position(n).matrix.real)
    padded = np.zeros((3 * n - 2, n))
    padded[n - 1: 2 * n - 1] = vec
    lam.setflags(write=False)
    padded.setflags(write=False)
    layout = np.lib.stride_tricks.sliding_window_view(padded, 2 * n - 1, axis=0)
    return lam, padded[n - 1: 2 * n - 1], layout


def _skewed(x: np.ndarray, cols: int, shift: int) -> np.ndarray:
    """Read-only view of ``cols`` columns of x, row i starting i * shift places along."""
    rows, step = x.strides
    return np.lib.stride_tricks.as_strided(x, (len(x), cols), (rows + shift * step, step),
                                           writeable=False)


def _offset_gather(a: np.ndarray) -> np.ndarray:
    """A[i, i + d] at [i, d + N - 1], zero where column i + d leaves A: a
    read-only view of A padded with N - 1 zero columns on each side."""
    n = len(a)
    padded = np.zeros((n, 3 * n - 2), dtype=a.dtype)  # np.pad costs ten times as much
    padded[:, n - 1: 2 * n - 1] = a
    return _skewed(padded, 2 * n - 1, 1)


def _offset_scatter(entries: np.ndarray) -> np.ndarray:
    """The inverse of _offset_gather: entries[i, d + N - 1] back to (i, i + d)."""
    n = len(entries)
    return np.array(_skewed(entries[:, n - 1:], n, -1), dtype=complex)


def displacement_batch(
    zs: np.ndarray, n_levels: int, method: str = "exponential"
) -> np.ndarray:
    """Weyl unitaries for a batch of phase-space points, shape (B, N, N).

    ``exponential`` exponentiates the truncated generator.  Writing
    z = rho(cos th, sin th), the generator is i rho * Q_th where Q_th is the
    rotated quadrature diag-conjugate of Q by the number phases e^{i th n};
    one cached eigendecomposition of Q therefore serves every z, and the
    result is exactly unitary because the factors are.

    ``closed_form`` evaluates the untruncated matrix elements: first column
    e^{-|alpha|^2/2} alpha^m / sqrt(m!) (as a cumulative product, every
    partial product is a unitary matrix element and stays bounded), then
    the column recurrence
        D[m, n+1] = (sqrt(m) D[m-1, n] - conj(alpha) D[m, n]) / sqrt(n+1).
    Requires |alpha|^2 <= N: beyond that the displaced state lives outside
    the truncation and the recurrence output is meaningless, so it is
    rejected rather than flagged quietly.
    """
    zs = np.asarray(zs, dtype=float)
    if zs.ndim == 1:
        zs = zs[None, :]
    if zs.ndim != 2 or zs.shape[1] != 2:
        raise ValueError("zs must have shape (B, 2)")
    if method == "exponential":
        return _displacement_exponential(zs, n_levels)
    if method == "closed_form":
        return _displacement_closed(zs, n_levels)
    raise ValueError(f"unknown method {method!r}")


# Sums over W_z = Phi_th V e^{i rho Lam} V^T Phi_th^* that never build W_z
# (the transform, the quadrature kernel) share these: square-lattice symmetry
# classes, their sums and chunks of small tables.


def _node_slices(count: int, width: int):
    """Slices of a node axis, each short enough that a (nodes, width)
    complex table stays within _TABLE_ENTRIES entries (one node at least)."""
    step = max(1, _TABLE_ENTRIES // width)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _polar(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.hypot(zs[:, 0], zs[:, 1]), np.arctan2(zs[:, 1], zs[:, 0])


def _lattice_classes(m: int, step: float, n: int, top: int) -> tuple:
    """Classes of the nodes step * (a, b), a, b = -M/2..M/2 - 1, of an M x M
    grid (mesh order) under the symmetries of the square: class f holds
    (A, B) = (max(|a|,|b|), min(|a|,|b|)), and each node's reflection flag
    and quarter turn q, from signs and magnitudes alone, give
    arctan2(b, a) = q pi/2 + (-1)^flag arctan2(B, A) (mod 2 pi).  Returns
    the classes' _class_tables, then each node's class, flag and turn."""
    ia, ib = np.indices((m, m)).reshape(2, -1) - m // 2
    abs_a, abs_b = np.abs(ia), np.abs(ib)
    # the angle lies in the closed quadrant q; turned back, even q keeps
    # (|a|, |b|), odd q swaps them, and past the diagonal th reflects
    quad = np.where(ib >= 0, np.where(ia >= 0, 0, 1), np.where(ia < 0, 2, 3))
    flip = np.where(quad % 2 == 0, abs_b > abs_a, abs_a > abs_b).astype(np.int8)
    # every (A, B), B <= A <= M/2, occurs: class f counts them in order of A then B
    big, small = np.maximum(abs_a, abs_b), np.minimum(abs_a, abs_b)
    cls = big * (big + 1) // 2 + small
    rep_a, rep_b = np.tril_indices(m // 2 + 1)
    return (*_class_tables(step * np.hypot(rep_a, rep_b), np.arctan2(rep_b, rep_a),
                           n, top), cls, flip, ((quad + flip) % 4).astype(np.int8))


def _class_tables(rho, theta, n: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """e^{i theta_f s} for s = -top..top and e^{i rho_f lam_k}, one row per
    class.  The phase table is filled in place: exp of s = 0..top, then the
    negative offsets as conjugates of the positive ones."""
    phase = np.empty((len(theta), 2 * top + 1), dtype=complex)
    np.exp(1j * theta[:, None] * np.arange(top + 1), out=phase[:, top:])
    np.conjugate(phase[:, :top:-1], out=phase[:, :top])
    return phase, np.exp(1j * rho[:, None] * _position_eigensystem(n)[0])


def _quarter_powers(top: int) -> np.ndarray:
    """The exact table i^{q s}, shape (2 top + 1, 4), for s = -top..top."""
    return np.array([1, 1j, -1, -1j])[np.outer(np.arange(-top, top + 1), range(4)) % 4]


def _class_sums(weights, cls, flip, quarter, phase: np.ndarray) -> np.ndarray:
    """D[f, s] = sum_{p in f} w_p e^{i th_p s} for s = -top..top, through
    e^{i th_p s} = i^{q s} e^{+-i th_f s}: the weights gather by (class,
    flag, quarter turn), meet i^{q s} once and the class phases twice.
    Real weights gather in a real table, np.add.at's no-cast path."""
    gathered = np.zeros((len(phase), 2, 4), dtype=np.result_type(weights, np.float64))
    np.add.at(gathered, (cls, flip, quarter), weights)
    powers = _quarter_powers(phase.shape[1] // 2).T
    return phase * (gathered[:, 0] @ powers) + phase[:, ::-1] * (gathered[:, 1] @ powers)


def _displacement_exponential(zs: np.ndarray, n_levels: int) -> np.ndarray:
    lam, vec, _ = _position_eigensystem(n_levels)
    rho, theta = _polar(zs)
    expo = np.exp(1j * rho[:, None] * lam[None, :])        # (B, N)
    core = (vec[None, :, :] * expo[:, None, :]) @ vec.T    # (B, N, N)
    phase = np.exp(1j * theta[:, None] * np.arange(n_levels)[None, :])
    return phase[:, :, None] * core * phase.conj()[:, None, :]


def _displacement_closed(zs: np.ndarray, n_levels: int) -> np.ndarray:
    alphas = np.array([alpha_of(z) for z in zs], dtype=complex)
    asq = np.abs(alphas) ** 2
    if np.any(asq > n_levels):
        raise ValueError(
            "closed-form displacement overflows the truncation: "
            f"|alpha|^2 = {asq.max():.3g} exceeds N = {n_levels}"
        )
    out = np.empty((len(alphas), n_levels, n_levels), dtype=complex)
    out[:, :, 0] = _coherent_vectors(alphas, n_levels)
    conj_a = alphas.conj()
    sq = np.sqrt(np.arange(n_levels))
    for n in range(n_levels - 1):
        prev = out[:, :, n]
        nxt = -conj_a[:, None] * prev
        nxt[:, 1:] += sq[None, 1:] * prev[:, :-1]
        out[:, :, n + 1] = nxt / sq[n + 1]
    return out


def _coherent_vectors(alphas: np.ndarray, n_levels: int) -> np.ndarray:
    """e^{-|alpha|^2/2} alpha^m / sqrt(m!) for m < N, one row per alpha: the
    first column of D(alpha), as cumulative products of alpha / sqrt(m)
    with the Gaussian prefactor folded in from the start."""
    vec = np.empty((len(alphas), n_levels), dtype=complex)
    vec[:, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    vec[:, 1:] = vec[:, :1] * np.cumprod(alphas[:, None] / np.sqrt(np.arange(1, n_levels)), axis=1)
    return vec


def weyl_operator(z, n_levels: int) -> FockOperator:
    """The Weyl unitary W_z = exp(i(xQ + yP)) at truncation N."""
    return FockOperator(displacement_batch(np.array([_coords(z)]), n_levels)[0])


# ---------------------------------------------------------------------------
# norms and states


def trace_norm(a) -> float:
    """Sum of singular values; dominates |trace|.

    Those of a diagonal matrix are the moduli of its diagonal, summed
    without an SVD.  Past its first entry, the flat n x n matrix reshaped
    to (n - 1, n + 1) rows holds the diagonal in its last column, so the
    other columns are the off-diagonal entries, tested as one view.
    """
    m = a.matrix if isinstance(a, FockOperator) else np.ascontiguousarray(a, dtype=complex)
    n = len(m)
    if m.shape == (n, n) and not m.ravel()[1:].reshape(n - 1, n + 1)[:, :n].any():
        return float(np.abs(np.diagonal(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def number_state(n: int, n_levels: int) -> DensityOperator:
    if not 0 <= n < n_levels:
        raise ValueError("level index out of range")
    m = np.zeros((n_levels, n_levels), dtype=complex)
    m[n, n] = 1.0
    return DensityOperator(m)


_COHERENT_CAPTURE = 1e-8


def coherent_state(alpha: complex, n_levels: int) -> DensityOperator:
    """Projection onto the truncated coherent vector, renormalized.

    Rejected unless the truncation captures the state to 1 - 1e-8; the
    guard |alpha|^2 <= N/4 always suffices.
    """
    vec = _coherent_vectors(np.array([complex(alpha)]), n_levels)[0]
    capture = float(np.sum(np.abs(vec) ** 2))
    if capture < 1.0 - _COHERENT_CAPTURE:
        raise ValueError(
            f"truncation captures only {capture:.12f} of the coherent state; "
            "increase N or shrink |alpha|"
        )
    vec /= math.sqrt(capture)
    return DensityOperator(np.outer(vec, vec.conj()))
