"""Channels driven by phase-space measures, and the heat flow they generate.

A complex measure mu on the phase plane acts on operators by averaging
displaced conjugations,

    phi_mu(A) = sum_cells mu(cell) * W_{c * cell} A W_{c * cell}^dagger ,

with the conjugation scale c = 1/2: by the Weyl relations, conjugating W_z
by W_{c*zeta} multiplies it by e^{2i omega(c*zeta, z)}, so c = 1/2 makes the
channel act on Weyl operators as pointwise multiplication by the symplectic
transform of mu.  (Strictly, +1/2 produces the transform of the reflected
measure; every measure in this package's experiments is symmetric under
z -> -z, for which the two agree.)  The scale is an identity, not a run-time
value: the tests pin it on the quadrature and the Choi path, where a
two-atom measure would betray any other |c| through a wrong multiplier
frequency.

The heat flow is the channel family of the Gaussian measures.  Its spectral
path transforms an operand once per time grid and multiplies by e^{-t|z|^2}
at each time (see _spectral_flow); quadrature builds each time's kernel.
The two paths' agreement is one of the package's core checks.

No quadrature builds a displacement matrix.  Through the eigensystem
(lam, V) of Q (see weyl_transform), the cell sum factors, class by class of
symmetric nodes, into one per-channel kernel K[k, l, s] over the matrix
offsets s, read through the operand's offset gather and the eigensystem's
layout of V (strided views, not copies) as in both transform directions.
Applying K is a correlation along the offsets, so the channel caches its
spectrum on one circle, the origin node apart: N positions for a heat
channel, 4N for a measure without quarter-turn symmetry (see _build_kernel).
An operand costs O(N^4), one FFT pair per residue group of its offsets (see
_apply_kernel).  Kernels are cached by content in a functools.lru_cache of
two (_content_kernel), so equal channels share one build while their kernel
is among the two newest, and its cache_info() counts the builds and hits.
Choi blocks sum their nodes (see choi_matrix).

A third engine, exact_heat, is exact: any leading window of the flow is a
finite sum, offset by offset through the same gather.  It serves the
purity instruments and is the reference the other two are measured
against; quadrature stays the only path for general measures.

Truncation policy: quadrature nodes whose displacement c*zeta leaves the
trustworthy window |z| <= sqrt(2N) are dropped, and the dropped measure
mass must stay below a caller-visible tolerance (default 1e-6), keeping
trace accounting honest.  Time steps large enough to violate that are
split into substeps: see _quadrature_flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fock import (
    DensityOperator,
    FockOperator,
    _class_sums,
    _lattice_classes,
    _node_slices,
    _offset_gather,
    _offset_scatter,
    _polar,
    _position_eigensystem,
    weyl_operator,
)
from .phase_space import (
    _GAUSSIAN_CAPTURE,
    GridMeasure,
    GridSpec,
    default_gaussian_grid,
    gaussian_measure,
    measure_from_atoms,
)
from .reports import Condition, ExperimentReport
from .weyl_transform import (
    CharFunction,
    char_function,
    inverse_transform,
    reliable_levels,
    trust_radius,
)

__all__ = [
    "CONJUGATION_SCALE",
    "MeasureChannel",
    "HeatFlowParams",
    "heat_channel",
    "point_mass_channel",
    "apply_quadrature",
    "apply_spectral",
    "spectral_levels",
    "evolve_state",
    "exact_heat",
    "max_single_step",
    "generator_check",
    "choi_matrix",
    "cb_distance_bound",
    "heat_multiplier",
    "cauchy_multiplier",
]

CONJUGATION_SCALE = 0.5


@dataclass(frozen=True)
class MeasureChannel:
    """A measure and the truncation it acts on; every channel conjugates
    at the scale CONJUGATION_SCALE."""

    mu: GridMeasure
    truncation: int

    def __post_init__(self) -> None:
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")
        if not math.isfinite(self.mu.total_variation()):
            raise ValueError("measure must have finite total variation")


@dataclass(frozen=True)
class HeatFlowParams:
    """Time parameter of the flow; t = 0 is the identity channel."""

    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError("time must be finite and nonnegative")


def heat_multiplier(t: float, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return np.exp(-t * (pts[..., 0] ** 2 + pts[..., 1] ** 2))


def cauchy_multiplier(t: float, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return np.exp(-t * (np.abs(pts[..., 0]) + np.abs(pts[..., 1])))


def heat_channel(t: float, n_levels: int) -> MeasureChannel:
    """Quadrature channel of the Gaussian measure at time t, on
    default_gaussian_grid(t): the one grid every Gaussian channel uses, less
    its row and column at -L, which have no mirror at +L (renormalized), so
    the measure is quarter-turn symmetric (see _build_kernel).  That drops
    1.1e-10 of the mass at t = 0.0125, 7.1e-11 at 0.25 and 9.0e-12 at 16."""
    if t <= 0:
        raise ValueError("heat channel needs t > 0; t = 0 is the identity")
    grid = default_gaussian_grid(t)
    w = np.pad(gaussian_measure(t, grid).weights[1:, 1:], ((1, 0), (1, 0)))
    return MeasureChannel(GridMeasure(grid, w / w.sum()), n_levels)


def point_mass_channel(zs, weights, grid: GridSpec, n_levels: int) -> MeasureChannel:
    """Channel of a finite atomic measure; atoms must sit on grid nodes."""
    return MeasureChannel(measure_from_atoms(grid, zip(zs, weights)), n_levels)


def _masked_quadrature(ch: MeasureChannel, max_clipped: float) -> np.ndarray:
    """The measure's weights over its grid, zero where the displacement node
    leaves the trustworthy window.

    Rejects the measure when the clipped mass exceeds the tolerance: a
    channel that silently forgets weight is not the channel it claims.
    """
    xs, ys = ch.mu.grid.mesh()
    pts = np.column_stack([xs.ravel(), ys.ravel()]) * CONJUGATION_SCALE
    w = ch.mu.weights.ravel()
    keep = np.hypot(pts[:, 0], pts[:, 1]) <= trust_radius(ch.truncation) + 1e-12
    clipped = float(np.abs(w[~keep]).sum())
    if clipped > max_clipped:
        raise ValueError(
            f"measure support leaves the trustworthy window: clipped mass "
            f"{clipped:.3e} exceeds tolerance {max_clipped:.1e} "
            f"(truncation {ch.truncation})"
        )
    return np.where(keep, w, 0.0)


# class sums off s = 0 (mod 4) within _RESIDUE_FLOOR of the largest are roundoff;
# a channel loses at most _MAX_CLIPPED of its mass to the trust window by default
_RESIDUE_FLOOR, _MAX_CLIPPED = 1e-14, 1e-6


class _Kernel(NamedTuple):
    """A channel kernel: the origin node's weight and the read-only spectrum
    [k, l, position] on one circle of L = N or 4N positions (L / N residues s mod 4)."""

    origin: complex
    spectrum: np.ndarray


def _kernel_spectrum(weights: np.ndarray, grid: GridSpec, n: int) -> tuple:
    """_build_kernel's origin weight, e^{i rho_f lam_k} off the origin and spectrum."""
    phase, expo, cls, flip, quarter = _lattice_classes(
        grid.points_per_axis, CONJUGATION_SCALE * grid.h, n, 2 * n - 2)
    sums = _class_sums(weights, cls, flip, quarter, phase)
    # class 0 is the origin; sums hold s = -(2N - 2)..2N - 2 in order
    circle = np.zeros((len(sums) - 1, 4 * n), dtype=complex)
    circle[:, np.arange(2 - 2 * n, 2 * n - 1) % (4 * n)] = sums[1:]
    if np.abs(circle.reshape(-1, n, 4)[:, :, 1:]).max() <= _RESIDUE_FLOOR * np.abs(circle).max():
        circle = circle[:, ::4]
    return complex(sums[0, 0]), expo[1:], circle.shape[1] * np.fft.ifft(circle, axis=-1)


def _build_kernel(weights: np.ndarray, grid: GridSpec, n: int) -> _Kernel:
    """Spectrum along s of the channel kernel
    K[k, l, s] = sum_p w_p e^{i th_p s} e^{i rho_p (lam_k - lam_l)},
    |s| <= 2N - 2, with rho_p(cos th_p, sin th_p) = CONJUGATION_SCALE z_p
    for grid node z_p and (lam, V) the eigensystem of Q.

    The origin node has no angle and W_0 = I: its weight w_0 sits on every
    offset, so it is kept apart as the term w_0 A.  The other offsets lie at
    s mod 4N on a circle of 4N positions, which never aliases.  The four
    quarter turns of a node (W_{Rz} = e^{i pi N/2} W_z e^{-i pi N/2}) sum to
    a factor 1 + i^s + i^{2s} + i^{3s}, so where the class sums D[f, s] of
    fock._lattice_classes are roundoff (_RESIDUE_FLOOR) off s = 0 (mod 4),
    as for a quarter-turn-symmetric measure, the circle keeps s = 4j alone,
    at j mod N.  A heat channel's sums there are exact zeros, its nodes
    being exact multiples of h; the floor serves measures that are symmetric
    only to roundoff, such as a sum of np.rot90 turns.  The spectrum, L ifft
    along the circle's L positions, meets D before the pairs
    e^{i rho_f (lam_k - lam_l)}, so the build is one N^2 x L product per
    class.  It holds L N^2 complex entries: 0.43 MB at N = 30 and 34 MB at
    N = 128 for a heat channel.  The class tables die before the pairs loop,
    so beside the spectrum and the kernel the build holds one chunk of
    pairs: 2^19 complex entries at most (_TABLE_ENTRIES).
    """
    origin, expo, spectrum = _kernel_spectrum(weights, grid, n)
    kernel = np.zeros((spectrum.shape[1], n * n), dtype=complex)
    for sl in _node_slices(len(expo), n * n):
        kernel += spectrum[sl].T @ (
            expo[sl, :, None] * expo[sl, None, :].conj()).reshape(-1, n * n)
    kernel = np.ascontiguousarray(kernel.T).reshape(n, n, -1)
    kernel.setflags(write=False)
    return _Kernel(origin, kernel)


def _channel_kernel(ch: MeasureChannel, max_clipped: float) -> _Kernel:
    """The kernel of the channel's masked quadrature, keyed by its content
    (truncation, grid and weights), so equal channels share one build."""
    weights = _masked_quadrature(ch, max_clipped)
    return _content_kernel(ch.truncation, ch.mu.grid, weights.dtype, weights.tobytes())


# the two newest kernels stay cached: conservation reuses the two channels
# path_agreement built, and generator_scaling's second z the first z's pair
# of times
@lru_cache(maxsize=2)
def _content_kernel(truncation: int, grid: GridSpec, dtype: np.dtype, weights: bytes) -> _Kernel:
    return _build_kernel(np.frombuffer(weights, dtype=dtype), grid, truncation)


def _real_product(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """r @ c over the first axis of c, for real r and complex c: one real
    product on the interleaved parts."""
    c = np.ascontiguousarray(c)
    flat = c.reshape(len(c), -1).view(float)
    return (r @ flat).view(complex).reshape(len(r), *c.shape[1:])


def _apply_kernel(kernel: _Kernel, a: np.ndarray) -> np.ndarray:
    """sum_p w_p W_p A W_p^dagger from the channel's kernel, in O(N^4).

    With A_d the offset-d part of A (entries A[i, i+d]) and M_d = V^T A_d V,
    the output's offset-e part is the offset-e part of V Y_e V^T, where
    Y_e = sum_d M_d * K[:, :, d - e] elementwise: a correlation along the
    offsets, with M_d and Y_e at position p = d + N - 1.  K lives on
    s = 0 (mod G), G = 4N / L (see _build_kernel), so the positions p = r
    (mod G) form G residue groups that never meet: one of 2N - 1 on the
    circle of 4N for a general measure, four of at most ceil((2N - 1) / 4)
    on the circle of N for a heat channel (a prime-length FFT at N = 31).
    No offset wraps.  Each group reads its columns of the eigensystem's
    layout of V[i + d] (fetched once per apply) in place, a strided view,
    and runs one product, one FFT pair times the spectrum, in place, and one
    product: one array of L N^2 complex entries is alive at a time.
    """
    n = a.shape[0]
    _, vec, layout = _position_eigensystem(n)
    size = kernel.spectrum.shape[-1]
    groups = 4 * n // size
    entries = _offset_gather(a)
    out = np.empty_like(entries)
    for r in range(groups):
        cols = layout[:, :, r::groups]
        y = np.fft.fft(_real_product(vec.T, cols * entries[:, None, r::groups]), n=size, axis=-1)
        y *= kernel.spectrum
        np.fft.ifft(y, axis=-1, out=y)
        z = _real_product(vec, y[:, :, : cols.shape[-1]])  # (V Y_e)[i, l]
        out[:, r::groups] = np.einsum("ile,ile->ie", z, cols)
        del y, z  # one group's arrays alive at a time
    return _offset_scatter(out) + kernel.origin * a


def apply_quadrature(
    ch: MeasureChannel, a: FockOperator, max_clipped: float = _MAX_CLIPPED
) -> FockOperator:
    """Deterministic cell-sum application of the measure channel, through
    the channel's cached kernel (see _build_kernel).  It builds no kernel
    but that one, and no displacement matrix."""
    if a.dim != ch.truncation:
        raise ValueError("operator dimension does not match the channel truncation")
    return FockOperator(_apply_kernel(_channel_kernel(ch, max_clipped), a.matrix))


def _spectral_grid(source_dim: int) -> GridSpec:
    limit = trust_radius(source_dim)
    h_max = (math.pi / 2.0) / limit * 0.98
    m = int(math.ceil(2.0 * limit / h_max / 2.0)) * 2
    return GridSpec(half_width=limit, points_per_axis=m)


def spectral_levels(n_levels: int) -> int:
    """Size of the leading block the spectral path returns at truncation N:
    what its transform window can reconstruct (see reliable_levels)."""
    return reliable_levels(_spectral_grid(n_levels), n_levels)


def _spectral_flow(a: FockOperator, times, mult=heat_multiplier) -> list[FockOperator]:
    """Transform-side action at each time: the leading spectral_levels(N)
    block, the most the transform window can reconstruct, of the inverse of
    the operand's transform on _spectral_grid(N), taken once (it does not
    depend on t), times the time's multiplier."""
    times = [HeatFlowParams(t).t for t in times]  # every time, before any work
    grid, k = _spectral_grid(a.dim), spectral_levels(a.dim)
    f, pts = char_function(a, grid), np.stack(grid.mesh(), axis=-1)
    return [inverse_transform(CharFunction(grid, f.values * mult(t, pts), a.dim), k)
            for t in times]


def apply_spectral(params: HeatFlowParams, a: FockOperator, kind: str = "heat") -> FockOperator:
    """_spectral_flow's block at one time, by the heat or the Cauchy multiplier."""
    mult = {"heat": heat_multiplier, "cauchy": cauchy_multiplier}.get(kind)
    if mult is None:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    return _spectral_flow(a, (params.t,), mult)[0]


def max_single_step(n_levels: int) -> float:
    """Largest heat-flow time one quadrature step can carry at truncation N.

    The Gaussian grid captures mass 1 - _GAUSSIAN_CAPTURE within radius
    sqrt(16 t ln(1 / _GAUSSIAN_CAPTURE)) (18.2 sqrt(t) at 1e-9); after the
    half-scale displacement this must fit inside sqrt(2N), so the trust
    window clips no more than the capture leaves out.
    """
    return 0.98 * 8.0 * n_levels / (16.0 * math.log(1.0 / _GAUSSIAN_CAPTURE))


def _substep_channel(t: float, n_levels: int) -> tuple[MeasureChannel, int]:
    """heat_channel of the equal substeps, each within max_single_step(N), that carry
    time t at truncation N, and their count: none at t = 0, of the identity."""
    n_steps = int(math.ceil(t / max_single_step(n_levels)))
    if n_steps == 0:
        return point_mass_channel([(0.0, 0.0)], [1.0], GridSpec(1.0, 2), n_levels), 0
    return heat_channel(t / n_steps, n_levels), n_steps


def _quadrature_flow(a: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """The heat flow at time t of an N x N matrix by quadrature, and its
    substep count: the substeps of _substep_channel (the measures convolve
    exactly, so their composition is the flow at t), none at t = 0."""
    ch, n_steps = _substep_channel(t, a.shape[0])
    for _ in range(n_steps):
        a = apply_quadrature(ch, FockOperator(a)).matrix
    return a, n_steps


def evolve_state(params: HeatFlowParams, rho: DensityOperator, drifts=None) -> DensityOperator:
    """Predual heat-flow action on a state, by quadrature.

    The Gaussian measure is symmetric, so the state side uses the same
    conjugation average, carried through the substeps of _quadrature_flow.
    The output is renormalized for trace drift up to 1e-6 (more raises;
    the drift is appended to ``drifts`` when given), hermitized, and
    validated as a state by DensityOperator, which rejects an eigenvalue
    below -1e-10.
    """
    if params.t == 0:
        return rho
    out, _ = _quadrature_flow(rho.matrix, params.t)
    tr = float(np.real(np.trace(out)))
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"trace drift {abs(tr - 1.0):.3e} exceeds 1e-6")
    if drifts is not None:
        drifts.append(abs(tr - 1.0))
    out = out / tr
    return DensityOperator(0.5 * (out + out.conj().T))


def _log_factorials(size: int) -> np.ndarray:
    """log n! for n < size, as one cumulative sum."""
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, size)))])


def _transfer_table(levels: int, n_out: int, t: float) -> np.ndarray:
    """T[d, o, m]: the weight that takes entry (m, m + d) of an operator on
    ``levels`` levels, and (m + d, m) alike, to (o, o + d) of the n_out-level
    window at time t > 0.  Where m + d or o + d lies past its window, T holds
    the weight all the same, and exact_heat never reads it.

    Loss takes (m, m + d) to (m - k, m + d - k) with weight
    sqrt(C(m, k) C(m + d, k)) eta^(m - k + d/2) (1 - eta)^k, the amplifier
    (i, i + d) to (i + k, i + d + k) with
    sqrt(C(i + k, k) C(i + d + k, k)) eta^(i + d/2 + 1) (1 - eta)^k.  T
    holds min(levels, n_out) n_out levels reals: 35 kB for the basis pair
    in 1,089 levels, 134 MB for 256 levels in 256; no cache keeps it.
    """
    depth = min(levels, n_out)
    lf = _log_factorials(levels + n_out)
    log_g = math.log1p(2.0 * t)  # -log eta
    log_q = math.log(2.0 * t) - log_g  # log(1 - eta)
    mid = np.arange(depth)  # the levels between loss and amplifier
    table = np.empty((depth, n_out, levels))
    for sl in _node_slices(depth, n_out * levels):
        d = np.arange(sl.start, sl.stop)[:, None, None]

        def ladder(hi, lo):
            # log weights: a (hi, lo) plane plus two (d, level) rows; hi < lo
            # is zeroed after exp, as arithmetic on -inf is slower
            k = np.maximum(hi - lo, 0)
            plane = 0.5 * (lf[hi] - lf[lo]) - lf[k] + k * log_q - lo * log_g
            w = np.exp(plane + 0.5 * (lf[hi + d] - d * log_g) - 0.5 * lf[lo + d])
            return np.where(hi >= lo, w, 0.0)

        loss = ladder(np.arange(levels), mid[:, None])
        table[sl] = ladder(np.arange(n_out)[:, None], mid) @ loss / (1.0 + 2.0 * t)
    return table


def _occupied_levels(a: np.ndarray) -> int:
    """One past the highest level a nonzero entry of a touches, at least 1."""
    rows = np.flatnonzero((a != 0).any(axis=0) | (a != 0).any(axis=1))
    return int(rows[-1]) + 1 if rows.size else 1


def exact_heat(a: np.ndarray, t: float, n_out: int) -> np.ndarray:
    """The leading n_out levels of phi_t(a), for an N-level operator a.

    phi_t is the classical-noise Gaussian channel with 2t added quanta
    (Holevo and Werner, PRA 63 (2001) 032312): pure loss eta = 1/(1 + 2t),
    then the quantum-limited amplifier of gain 1/eta (Caruso, Giovannetti
    and Holevo, NJP 8 (2006) 310).  Both keep each matrix offset; loss
    moves a level only down and the amplifier only up, so the window is a
    finite sum with no truncation of the flow.  Only the levels and offsets
    a occupies are worked on, through one table built for the call and
    dropped with it (see _transfer_table).  phi_t preserves the trace, so
    the window misses tr a - tr exact_heat(a, t, n_out) of it.
    """
    HeatFlowParams(t)  # t finite and nonnegative
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be a square matrix, got shape {a.shape}")
    if n_out < 1:
        raise ValueError(f"n_out must be at least 1, got {n_out}")
    n = a.shape[0]
    if t == 0:
        return np.pad(a[:n_out, :n_out], (0, max(n_out - n, 0)))
    levels = _occupied_levels(a)
    table = _transfer_table(levels, n_out, float(t))
    # (m, m + d) at [d, m, 0] and (m + d, m) at [d, m, 1], d < len(table)
    cols = np.stack([_offset_gather(x)[:levels, n - 1: n - 1 + len(table)].T for x in (a, a.T)], -1)
    occupied = np.flatnonzero(cols.any(axis=(1, 2)))
    # one real product per offset on the interleaved parts of both columns
    evolved = (table[occupied] @ cols[occupied].view(float)).view(complex)
    out = np.zeros((n_out, n_out), dtype=complex)
    flat = out.reshape(-1)  # by n_out + 1: (o, o + d) from d, (o + d, o) from d n_out
    for d, band in zip(occupied, evolved):  # its two bands, n_out - d entries each
        flat[d:: n_out + 1][: n_out - d] = band[: n_out - d, 0]
        flat[d * n_out:: n_out + 1][: n_out - d] = band[: n_out - d, 1]
    return out


def _tail_window(a: np.ndarray, t: float, tol: float) -> int:
    """The least n_out that leaves at most tol of the output trace of each
    level a occupies above exact_heat(a, t, n_out).  The amplifier bounds
    it, loss only moving levels down first: it takes the top level j to
    j + K, K negative binomial, with P(K >= k) = P(Bin(j + k, eta) <= j)."""
    j = _occupied_levels(a) - 1
    if t == 0:
        return j + 1
    log_eta = -math.log1p(2.0 * t)
    log_q = math.log(2.0 * t) + log_eta
    # the tail decays about as (1 - eta)^k: 32 (1 + 2t) steps per level
    # usually reach the tolerance at once
    s, size = np.arange(j + 1)[:, None], 32 * (j + 1) * int(math.ceil(1.0 + 2.0 * t))
    while True:
        trials = np.arange(j, j + size)  # j + k for k = 0..size - 1
        lf = _log_factorials(j + size)
        tail = np.exp(lf[trials] - lf[s] - lf[trials - s]
                      + s * log_eta + (trials - s) * log_q).sum(axis=0)
        if (tail <= tol).any():
            return j + int(np.argmax(tail <= tol))
        size *= 2


def generator_check(z, n_levels: int, t_values) -> tuple[float, float]:
    """Finite-difference probe of the flow's generator on a Weyl operator.

    At the two smallest times, fit the coefficient g(t) in
    (phi_t - id)(W_z) = g W_z on the leading block, and return the
    Richardson extrapolation (t2 g(t1) - t1 g(t2)) / (t2 - t1) to t = 0 (its
    real part, to compare with -|z|^2) with the relative residual of the
    first-order fit at t1.
    """
    t_values = sorted({float(t) for t in t_values})
    if len(t_values) < 2 or not all(0 < t < math.inf for t in t_values):
        raise ValueError("need at least two time values, all positive and finite")
    x, y = float(z[0]), float(z[1])
    zsq = x * x + y * y
    w = weyl_operator((x, y), n_levels).matrix
    k = n_levels // 2
    wk = w[:k, :k]
    denom = float(np.real(np.vdot(wk, wk)))
    coeffs = []
    for t in t_values[:2]:
        diff = _quadrature_flow(w, t)[0][:k, :k] - wk
        coeffs.append(complex(np.vdot(wk, diff)) / denom / t)
        if t == t_values[0]:
            resid = diff / t + zsq * wk
            fd_residual_rel = float(np.linalg.norm(resid) / np.linalg.norm(wk))
    t1, t2 = t_values[:2]
    richardson = (t2 * coeffs[0] - t1 * coeffs[1]) / (t2 - t1)
    return float(richardson.real), fd_residual_rel


def choi_matrix(ch: MeasureChannel, n: int) -> np.ndarray:
    """Choi matrix of the channel compressed to the leading n-block:
    sum_p w_p v_p v_p^dagger over the nodes _masked_quadrature keeps (it
    rejects a measure that clips more than _MAX_CLIPPED of its mass), with
    v_p[j n + i] = e^{i th_p (i - j)} sum_k V_ik V_jk e^{i rho_p lam_k} the
    vectorized n-block of W at CONJUGATION_SCALE z_p = rho_p(cos th_p, sin th_p)
    and (lam, V) the eigensystem of Q: O(P n^2 N) for P nodes, and no kernel.
    Positive semidefinite exactly when the weights can be taken nonnegative.
    """
    if not 1 <= n <= ch.truncation // 4:
        raise ValueError(f"Choi block {n} must be 1 to a quarter of truncation {ch.truncation}")
    weights = _masked_quadrature(ch, _MAX_CLIPPED)
    nodes = np.flatnonzero(weights)
    xs, ys = ch.mu.grid.mesh()
    rho, theta = _polar(CONJUGATION_SCALE * np.column_stack([xs.ravel(), ys.ravel()])[nodes])
    lam, vec, _ = _position_eigensystem(ch.truncation)
    j, i = np.divmod(np.arange(n * n), n)  # column-major: r = j n + i
    u = vec[i] * vec[j]
    c = np.zeros((n * n, n * n), dtype=complex)
    for sl in _node_slices(len(nodes), ch.truncation):
        v = np.exp(1j * theta[sl, None] * (i - j)) * (np.exp(1j * rho[sl, None] * lam) @ u.T)
        c += (weights[nodes[sl], None] * v).T @ v.conj()
    return c


def cb_distance_bound(
    mu: GridMeasure,
    nu: GridMeasure,
    probes,
    n_levels: int,
    allow_clipping: bool = False,
) -> ExperimentReport:
    """Check ||(phi_mu - phi_nu)(A)|| <= TV(mu - nu) * ||A|| on probes.

    The inequality survives any common clipping of the two quadratures
    (each dropped node only removes a shared nonexpansive term), so wide
    measures may be probed with ``allow_clipping=True``.
    """
    diff = mu - nu  # raises unless the grids agree
    tv = diff.total_variation()
    ch = MeasureChannel(diff, n_levels)
    clip_tol = math.inf if allow_clipping else _MAX_CLIPPED
    ratios = []
    for a in probes:
        out = apply_quadrature(ch, a, max_clipped=clip_tol)
        gap = float(np.linalg.norm(out.matrix, 2))
        anorm = float(np.linalg.norm(a.matrix, 2))
        ratios.append(gap / (tv * anorm) if tv > 0 and anorm > 0 else 0.0)
    return ExperimentReport(
        check="cb_distance_bound",
        params={"n_levels": n_levels, "n_probes": len(ratios),
                "total_variation": tv},
        conditions=(Condition("max_ratio", max(ratios, default=0.0), "<=", 1.0 + 1e-6),),
        details={"ratios": [float(r) for r in ratios]},
    )
