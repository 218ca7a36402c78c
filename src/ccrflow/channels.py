"""Channels driven by phase-space measures, and the heat flow they generate.

A complex measure mu on the phase plane acts on operators by averaging
displaced conjugations,

    phi_mu(A) = sum_cells mu(cell) * W_{c * cell} A W_{c * cell}^dagger ,

with the conjugation scale c = 1/2: conjugating W_z by W_{c*zeta} multiplies
it by e^{2i omega(c*zeta, z)}, so c = 1/2 makes the channel act on Weyl
operators as pointwise multiplication by the symplectic transform of mu.
(Strictly, +1/2 produces the transform of the reflected measure; every
measure in this package's experiments is symmetric under z -> -z, for which
the two agree.  The scale's magnitude is what the oracle run before the
first quadrature or Choi block pins down: a two-atom measure would betray
any other |c| through a wrong multiplier frequency.)

The heat flow is the channel family of the Gaussian measures; its defining
spectral action multiplies the operator transform by e^{-t|z|^2}.  Both
computational paths (direct quadrature, transform multiplication) live
here, and their agreement is one of the package's core checks.

No quadrature builds a displacement matrix.  Through the eigensystem
(lam, V) of Q (see weyl_transform), the cell sum factors, class by class of
symmetric nodes, into one per-channel kernel K[k, l, s] over the matrix
offsets s, laid out by fock._offset_layout as in both transform directions.
Applying K is a correlation along the offsets, so the channel caches its
spectrum, one per residue s mod 4 on a circle of N offsets with the origin
node apart; a heat channel keeps residue 0 alone (see _build_kernel).
Quadrature runs one FFT pair per operand (see _apply_kernel), Choi blocks
transform back to K, and equal channels share one build: a further
operand costs O(N^4).

A third engine, exact_heat, is exact: any leading window of the flow is a
finite sum.  It serves the purity instruments and is the reference the
other two are measured against; quadrature stays the only path for
general measures.

Truncation policy: quadrature nodes whose displacement c*zeta leaves the
trustworthy window |z| <= sqrt(2N) are dropped, and the dropped measure
mass must stay below a caller-visible tolerance (default 1e-6), keeping
trace accounting honest.  Time steps large enough to violate that are
split into substeps: see evolve_state.
"""

from __future__ import annotations

import math
from collections import OrderedDict
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
    _offset_layout,
    _offset_scatter,
    _position_eigensystem,
    weyl_operator,
)
from .phase_space import (
    GridMeasure,
    GridSpec,
    default_gaussian_grid,
    gaussian_measure,
    measure_from_atoms,
    omega,
)
from .reports import ExperimentReport
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


# kernel spectra stay cached while together they hold at most 16 MB; the
# newest always stays
_KERNEL_CACHE_BYTES = 16 << 20
_kernels: OrderedDict = OrderedDict()
_kernel_counts = dict.fromkeys(("builds", "cache_hits", "residues_kept"), 0)  # since import
# a residue r > 0 whose class sums are within this share of the largest is skipped
_RESIDUE_FLOOR = 1e-14


class _Kernel(NamedTuple):
    """A channel kernel: the origin node's weight, the kept residues
    r = s mod 4 and their read-only spectra [residue, k, l, position]."""

    origin: complex
    residues: tuple
    spectra: np.ndarray


def _build_kernel(weights: np.ndarray, grid: GridSpec, n: int) -> _Kernel:
    """Spectra along s of the channel kernel
    K[k, l, s] = sum_p w_p e^{i th_p s} e^{i rho_p (lam_k - lam_l)},
    |s| <= 2N - 2, with rho_p(cos th_p, sin th_p) = CONJUGATION_SCALE z_p
    for grid node z_p and (lam, V) the eigensystem of Q.

    The origin node has no angle and W_0 = I: its weight w_0 sits on every
    offset, so it is kept apart as the term w_0 A.  The other offsets split
    by residue r = s mod 4: s = 4j + r takes at most N values of j, so
    Chat_r = N ifft_j(K[4j + r]), j at position j mod N, never aliases.
    The four quarter turns of a node (W_{Rz} = e^{i pi N/2} W_z e^{-i pi N/2})
    sum to a factor 1 + i^s + i^{2s} + i^{3s}, so a quarter-turn-symmetric
    measure keeps r = 0 alone: a residue whose class sums D[f, s] of
    fock._lattice_classes are roundoff (_RESIDUE_FLOOR) is skipped.  The
    transform meets D before the pairs e^{i rho_f (lam_k - lam_l)}, so the
    build is one N^2 x RN product per class for R kept residues.

    Each kept residue holds N N^2 complex entries: 0.43 MB at N = 30, 34 MB at N = 128.
    """
    phase, expo, cls, flip, quarter = _lattice_classes(
        grid.points_per_axis, CONJUGATION_SCALE * grid.h, n, 2 * n - 2)
    sums = _class_sums(weights, cls, flip, quarter, phase)
    # class 0 is the origin; sums hold s = -(2N - 2)..2N - 2 in order
    origin, sums, expo = complex(sums[0, 0]), sums[1:], expo[1:]
    s = np.arange(2 - 2 * n, 2 * n - 1)
    circles = np.zeros((len(sums), 4, n), dtype=complex)
    circles[:, s % 4, s // 4 % n] = sums  # s = 4j + r at position j mod N of circle r
    floor = _RESIDUE_FLOOR * np.abs(circles).max()
    residues = [r for r in range(4) if r == 0 or np.abs(circles[:, r]).max() > floor]
    spectra = (n * np.fft.ifft(circles[:, residues], axis=-1)).reshape(len(sums), -1)
    kernel = np.zeros((spectra.shape[1], n * n), dtype=complex)
    for sl in _node_slices(len(expo), n * n):
        pairs = (expo[sl, :, None] * expo[sl, None, :].conj()).reshape(-1, n * n)
        kernel += spectra[sl].T @ pairs
    kernel = np.ascontiguousarray(kernel.reshape(-1, n, n * n).transpose(0, 2, 1))
    kernel = kernel.reshape(-1, n, n, n)
    kernel.setflags(write=False)
    return _Kernel(origin, tuple(residues), kernel)


def _channel_kernel(ch: MeasureChannel, max_clipped: float) -> _Kernel:
    """The kernel of the channel's masked quadrature, built once per
    content (truncation, grid, conjugation scale and weights), so equal
    channels share one build."""
    weights = _masked_quadrature(ch, max_clipped)
    key = (ch.truncation, ch.mu.grid, CONJUGATION_SCALE, weights.tobytes())
    kernel = _kernels.pop(key, None)
    if kernel is None:
        kernel = _build_kernel(weights, ch.mu.grid, ch.truncation)
        _kernel_counts["builds"] += 1
        _kernel_counts["residues_kept"] += len(kernel.residues)
    else:
        _kernel_counts["cache_hits"] += 1
    _kernels[key] = kernel
    while len(_kernels) > 1 and (
        sum(k.spectra.nbytes for k in _kernels.values()) > _KERNEL_CACHE_BYTES
    ):
        _kernels.popitem(last=False)
    return kernel


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
    Y_e = sum_d M_d * K[:, :, d - e] elementwise.  That is a correlation
    along the offsets, so Y = ifft(fft(M) * Khat) on a circle of 4N, where
    Khat[q N + b] = sum_r e^{i pi r (q + b / N) / 2} Chat_r[b] for the kept
    residue spectra Chat_r (see _build_kernel).  M_d enters at position
    d + N - 1 and Y_e comes out there; the circle is long enough that no
    offset wraps onto another.  The FFT pair runs in place, so one array
    of 4N N^2 entries is alive at a time.
    """
    n = a.shape[0]
    _, vec = _position_eigensystem(n)
    shifted = _offset_layout(n)
    m = _real_product(vec.T, shifted * _offset_gather(a)[:, None, :])  # M_d[k, l]
    y = np.fft.fft(m, n=4 * n, axis=-1)
    del m
    quarters, b = y.reshape(n, n, 4, n), np.arange(n) / n
    for q in range(4):
        terms = [spec if r == 0 else spec * np.exp(0.5j * np.pi * r * (q + b))
                 for r, spec in zip(kernel.residues, kernel.spectra)]
        quarters[:, :, q] *= sum(terms[1:], terms[0])
    np.fft.ifft(y, axis=-1, out=y)
    z = _real_product(vec, y[:, :, : 2 * n - 1])              # (V Y_e)[i, l]
    return _offset_scatter(np.einsum("ile,ile->ie", z, shifted)) + kernel.origin * a


@lru_cache(maxsize=1)
def _ensure_scale() -> None:
    """Verify the conjugation scale on a symmetric two-atom measure.

    mu = (delta_a + delta_{-a})/2 must act on W_z as multiplication by
    cos(omega(z, a)).  A wrong scale magnitude shows up as a wrong
    multiplier frequency; 2^{-1/2}, for instance, fails by ~40%.  The
    oracle sums the conjugations through the channel kernel, below the
    guards that call it, so it never re-enters itself.  The cache keeps
    only a pass: a raise is not cached, so after a failure every guarded
    call raises again.
    """
    n = 24
    a = (0.5, 1.0)
    ch = point_mass_channel([a, (-a[0], -a[1])], [0.5, 0.5], GridSpec(2.0, 8), n)
    kernel = _channel_kernel(ch, 1e-6)
    k = n // 2
    worst = 0.0
    for z in [(0.8, -0.3), (1.0, 0.0), (0.4, 0.9)]:
        w = weyl_operator(z, n).matrix
        out = _apply_kernel(kernel, w)
        want = math.cos(omega(z, a)) * w
        worst = max(worst, float(np.abs(out[:k, :k] - want[:k, :k]).max()))
    if worst > 1e-8:
        raise RuntimeError(
            f"conjugation-scale oracle failed: multiplier defect {worst:.3e}"
        )


def apply_quadrature(
    ch: MeasureChannel, a: FockOperator, max_clipped: float = 1e-6
) -> FockOperator:
    """Deterministic cell-sum application of the measure channel, through
    the channel's cached kernel (see _build_kernel)."""
    if a.dim != ch.truncation:
        raise ValueError("operator dimension does not match the channel truncation")
    _ensure_scale()
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


def apply_spectral(
    params: HeatFlowParams, a: FockOperator, kind: str = "heat"
) -> FockOperator:
    """Transform-side action: multiply the operator transform, invert.

    Returns the leading spectral_levels(a.dim) block, the most the
    transform window can reconstruct.
    """
    if kind == "heat":
        mult = heat_multiplier
    elif kind == "cauchy":
        mult = cauchy_multiplier
    else:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    grid = _spectral_grid(a.dim)
    f = char_function(a, grid)
    xs, ys = grid.mesh()
    pts = np.stack([xs, ys], axis=-1)
    values = f.values * mult(params.t, pts)
    return inverse_transform(CharFunction(grid, values, a.dim), spectral_levels(a.dim))


def max_single_step(n_levels: int) -> float:
    """Largest heat-flow time one quadrature step can carry at truncation N.

    The Gaussian grid captures mass 1 - 1e-9 within radius 18.2 sqrt(t);
    after the half-scale displacement this must fit inside sqrt(2N).
    """
    return 0.98 * 8.0 * n_levels / (18.2 ** 2)


def _substep_channel(t: float, n_levels: int) -> tuple[MeasureChannel, int]:
    """heat_channel of the equal substeps that carry time t > 0 at truncation
    N, each within max_single_step(N), and their count."""
    n_steps = max(1, int(math.ceil(t / max_single_step(n_levels))))
    return heat_channel(t / n_steps, n_levels), n_steps


def evolve_state(params: HeatFlowParams, rho: DensityOperator, drifts=None) -> DensityOperator:
    """Predual heat-flow action on a state, by quadrature.

    The Gaussian measure is symmetric, so the state side uses the same
    conjugation average.  Times beyond the single-step window are split
    into equal substeps (the measures convolve exactly, so this is the same
    channel), each on the default Gaussian grid of the substep time.
    The output is renormalized for trace drift up to 1e-6 (more raises;
    the drift is appended to ``drifts`` when given), hermitized, and
    validated as a state by DensityOperator, which rejects an eigenvalue
    below -1e-10.
    """
    if params.t == 0:
        return rho
    ch, n_steps = _substep_channel(params.t, rho.dim)
    out = rho.matrix
    for _ in range(n_steps):
        out = apply_quadrature(ch, FockOperator(out)).matrix
    tr = float(np.real(np.trace(out)))
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"trace drift {abs(tr - 1.0):.3e} exceeds 1e-6")
    if drifts is not None:
        drifts.append(abs(tr - 1.0))
    out = out / tr
    return DensityOperator(FockOperator(0.5 * (out + out.conj().T)))


def _log_factorials(size: int) -> np.ndarray:
    """log n! for n < size, as one cumulative sum."""
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, size)))])


@lru_cache(maxsize=4)
def _transfer_table(levels: int, n_out: int, t: float) -> np.ndarray:
    """T[d, o, m], read-only: the weight that takes entry (m, m + d) of an
    operator on ``levels`` levels, and (m + d, m) alike, to (o, o + d) of the
    n_out-level window at time t > 0.  Where m + d or o + d lies past its
    window, T holds the weight all the same, and exact_heat never reads it.

    Loss takes (m, m + d) to (m - k, m + d - k) with weight
    sqrt(C(m, k) C(m + d, k)) eta^(m - k + d/2) (1 - eta)^k, the amplifier
    (i, i + d) to (i + k, i + d + k) with
    sqrt(C(i + k, k) C(i + d + k, k)) eta^(i + d/2 + 1) (1 - eta)^k.  T
    holds min(levels, n_out) n_out levels reals: 35 kB for the basis pair
    in 1,089 levels, 134 MB for 256 levels in 256.
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
    table.setflags(write=False)
    return table


def _offset_pairs(n: int, rows: int, depth: int) -> np.ndarray:
    """Flat indices in an n x n matrix of (m, m + d) at [d, m, 0] and of
    (m + d, m) at [d, m, 1], d < depth, m < rows; n^2 where m + d >= n."""
    d, m = np.arange(depth)[:, None], np.arange(rows)
    pairs = np.stack([d + m * (n + 1), d * n + m * (n + 1)], axis=-1)
    return np.where((m + d < n)[..., None], pairs, n * n)


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
    a occupies are worked on, through one table (see _transfer_table)
    shared by operands on as many levels.  phi_t preserves the trace, so
    the window misses tr a - tr exact_heat(a, t, n_out) of it.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if t == 0:
        return np.pad(a[:n_out, :n_out], (0, max(n_out - n, 0)))
    levels = _occupied_levels(a)
    table = _transfer_table(levels, n_out, float(t))
    cols = np.append(a.ravel(), 0j)[_offset_pairs(n, levels, len(table))]
    occupied = np.flatnonzero(cols.any(axis=(1, 2)))
    # one real product per offset on the interleaved parts of both columns
    evolved = (table[occupied] @ cols[occupied].view(float)).view(complex)
    out = np.zeros(n_out * n_out + 1, dtype=complex)
    out[_offset_pairs(n_out, n_out, len(table))[occupied]] = evolved
    return out[:-1].reshape(n_out, n_out)


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
    if len(t_values) < 2:
        raise ValueError("need at least two time values")
    x, y = float(z[0]), float(z[1])
    zsq = x * x + y * y
    w = weyl_operator((x, y), n_levels).matrix
    k = n_levels // 2
    wk = w[:k, :k]
    denom = float(np.real(np.vdot(wk, wk)))
    coeffs = []
    for t in t_values[:2]:
        ch = heat_channel(t, n_levels)
        diff = apply_quadrature(ch, FockOperator(w)).matrix[:k, :k] - wk
        coeffs.append(complex(np.vdot(wk, diff)) / denom / t)
        if t == t_values[0]:
            resid = diff / t + zsq * wk
            fd_residual_rel = float(np.linalg.norm(resid) / np.linalg.norm(wk))
    t1, t2 = t_values[:2]
    richardson = (t2 * coeffs[0] - t1 * coeffs[1]) / (t2 - t1)
    return float(richardson.real), fd_residual_rel


def choi_matrix(ch: MeasureChannel, n: int) -> np.ndarray:
    """Choi matrix of the channel compressed to the leading n-block.

    Built as sum_p w_p v_p v_p^dagger with v_p the vectorized n-block of
    the displacement unitary, read off the channel kernel: with
    U[(i, j), k] = V_ik V_jk, entry (r, r') is
    sum_{k,l} U[r, k] U[r', l] K[k, l, (i_r - j_r) - (i_r' - j_r')], with
    K the origin weight plus one forward FFT of each kept residue spectrum.
    Positive semidefinite exactly when the weights can be taken
    nonnegative.  Like apply_quadrature, it relies on the conjugation-scale
    oracle and rejects a measure that clips more than 1e-6 of its mass.
    """
    if n > ch.truncation // 4:
        raise ValueError("Choi block exceeds a quarter of the truncation")
    _ensure_scale()
    cached = _channel_kernel(ch, 1e-6)
    circles = np.zeros((4, *cached.spectra.shape[1:]), dtype=complex)
    circles[list(cached.residues)] = np.fft.fft(cached.spectra, axis=-1) / ch.truncation
    s = np.arange(2 - 2 * n, 2 * n - 1)  # K[s], |s| <= 2n - 2, at s + 2n - 2
    kernel = cached.origin + circles[s % 4, :, :, s // 4 % ch.truncation]
    _, vec = _position_eigensystem(ch.truncation)
    j, i = np.divmod(np.arange(n * n), n)  # column-major: r = j n + i
    u = vec[i] * vec[j]
    offset = i - j
    c = np.empty((n * n, n * n), dtype=complex)
    for r in range(n * n):
        c[r] = np.einsum("qkl,k,ql->q", kernel[offset[r] - offset + 2 * n - 2], u[r], u)
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
    clip_tol = math.inf if allow_clipping else 1e-6
    ratios = []
    for a in probes:
        out = apply_quadrature(ch, a, max_clipped=clip_tol)
        gap = float(np.linalg.norm(out.matrix, 2))
        anorm = float(np.linalg.norm(a.matrix, 2))
        ratios.append(gap / (tv * anorm) if tv > 0 and anorm > 0 else 0.0)
    measured = float(max(ratios)) if ratios else 0.0
    return ExperimentReport(
        check="cb_distance_bound",
        params={"n_levels": n_levels, "n_probes": len(ratios),
                "total_variation": tv},
        measured=measured,
        bound=1.0 + 1e-6,
        passed=bool(measured <= 1.0 + 1e-6),
        details={"ratios": [float(r) for r in ratios]},
    )
