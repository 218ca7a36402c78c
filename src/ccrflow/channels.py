"""Channels driven by phase-space measures, and the heat flow they generate.

A complex measure mu on the phase plane acts on operators by averaging
displaced conjugations,

    phi_mu(A) = sum_cells mu(cell) * W_{c * cell} A W_{c * cell}^dagger ,

with the conjugation scale c = 1/2: conjugating W_z by W_{c*zeta} multiplies
it by e^{2i omega(c*zeta, z)}, so c = 1/2 makes the channel act on Weyl
operators as pointwise multiplication by the symplectic transform of mu.
(Strictly, +1/2 produces the transform of the reflected measure; every
measure in this package's experiments is symmetric under z -> -z, for which
the two agree.  The scale's magnitude is what the startup oracle pins down:
a two-atom measure would betray any other |c| through a wrong multiplier
frequency.)

The heat flow is the channel family of the Gaussian measures; its defining
spectral action multiplies the operator transform by e^{-t|z|^2}.  Both
computational paths (direct quadrature, transform multiplication) live
here, and their agreement is one of the package's core checks.

A third engine exponentiates the flow's generator,
L(A) = -([Q,[Q,A]] + [P,[P,A]]), in its truncated GKSL form (see
_heat_generator).  It is exact at every time without substeps and serves
the purity instruments; quadrature stays the independent oracle and the
only path for general measures.

Truncation policy: quadrature nodes whose displacement c*zeta leaves the
trustworthy window |z| <= sqrt(2N) are dropped, and the dropped measure
mass must stay below a caller-visible tolerance (default 1e-6), keeping
trace accounting honest.  Time steps large enough to violate that are
split into substeps: see evolve_state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .fock import DensityOperator, FockOperator, _displacement_chunks, weyl_operator
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
    "evolve_state",
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


def heat_channel(t: float, n_levels: int, grid: GridSpec | None = None) -> MeasureChannel:
    """Quadrature channel of the Gaussian measure at time t."""
    if t <= 0:
        raise ValueError("heat channel needs t > 0; t = 0 is the identity")
    if grid is None:
        grid = default_gaussian_grid(t)
    return MeasureChannel(gaussian_measure(t, grid), n_levels)


def point_mass_channel(zs, weights, grid: GridSpec, n_levels: int) -> MeasureChannel:
    """Channel of a finite atomic measure; atoms must sit on grid nodes."""
    return MeasureChannel(measure_from_atoms(grid, zip(zs, weights)), n_levels)


_scale_verified = False


def _ensure_scale() -> None:
    """Verify the conjugation scale once, on a symmetric two-atom measure.

    mu = (delta_a + delta_{-a})/2 must act on W_z as multiplication by
    cos(omega(z, a)).  A wrong scale magnitude shows up as a wrong
    multiplier frequency; 2^{-1/2}, for instance, fails by ~40%.
    """
    global _scale_verified
    if _scale_verified:
        return
    _scale_verified = True  # set first: the oracle itself applies a channel
    try:
        n = 24
        grid = GridSpec(half_width=2.0, points_per_axis=8)
        a = (0.5, 1.0)
        ch = point_mass_channel([a, (-a[0], -a[1])], [0.5, 0.5], grid, n)
        worst = 0.0
        for z in [(0.8, -0.3), (1.0, 0.0), (0.4, 0.9)]:
            w = weyl_operator(z, n).matrix
            out = apply_quadrature(ch, FockOperator(w)).matrix
            want = math.cos(omega(z, a)) * w
            k = n // 2
            worst = max(worst, float(np.abs(out[:k, :k] - want[:k, :k]).max()))
        if worst > 1e-8:
            raise RuntimeError(
                f"conjugation-scale oracle failed: multiplier defect {worst:.3e}"
            )
    except Exception:
        _scale_verified = False
        raise


def _conjugation_sum(
    weights: np.ndarray, nodes: np.ndarray, a: np.ndarray, n: int
) -> np.ndarray:
    """sum_p w_p W_{node_p} A W_{node_p}^dagger, chunked."""
    acc = np.zeros((n, n), dtype=complex)
    for sl, w in _displacement_chunks(nodes, n):
        t = w @ a
        t *= weights[sl, None, None]
        acc += np.einsum("bij,bkj->ik", t, w.conj(), optimize=True)
    return acc


def _masked_quadrature(
    ch: MeasureChannel, max_clipped: float
) -> tuple[np.ndarray, np.ndarray]:
    """Displacement nodes and weights inside the trustworthy window.

    Rejects the measure when the clipped mass exceeds the tolerance: a
    channel that silently forgets weight is not the channel it claims.
    """
    xs, ys = ch.mu.grid.mesh()
    pts = np.column_stack([xs.ravel(), ys.ravel()]) * CONJUGATION_SCALE
    w = ch.mu.weights.ravel()
    live = w != 0
    pts, w = pts[live], w[live]
    keep = np.hypot(pts[:, 0], pts[:, 1]) <= trust_radius(ch.truncation) + 1e-12
    clipped = float(np.abs(w[~keep]).sum())
    if clipped > max_clipped:
        raise ValueError(
            f"measure support leaves the trustworthy window: clipped mass "
            f"{clipped:.3e} exceeds tolerance {max_clipped:.1e} "
            f"(truncation {ch.truncation})"
        )
    return pts[keep], w[keep]


def apply_quadrature(
    ch: MeasureChannel, a: FockOperator, max_clipped: float = 1e-6
) -> FockOperator:
    """Deterministic cell-sum application of the measure channel."""
    if a.dim != ch.truncation:
        raise ValueError("operator dimension does not match the channel truncation")
    _ensure_scale()
    nodes, weights = _masked_quadrature(ch, max_clipped)
    return FockOperator(_conjugation_sum(weights, nodes, a.matrix, a.dim))


def _spectral_grid(source_dim: int) -> GridSpec:
    limit = trust_radius(source_dim)
    h_max = (math.pi / 2.0) / limit * 0.98
    m = int(math.ceil(2.0 * limit / h_max / 2.0)) * 2
    return GridSpec(half_width=limit, points_per_axis=m)


def apply_spectral(
    params: HeatFlowParams,
    a: FockOperator,
    kind: str = "heat",
    out_levels: int | None = None,
) -> FockOperator:
    """Transform-side action: multiply the operator transform, invert.

    Returns the leading reconstructable block (see
    weyl_transform.reliable_levels); pass ``out_levels`` to crop further.
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
    k = reliable_levels(grid, a.dim)
    if out_levels is None:
        out_levels = k
    if out_levels > k:
        raise ValueError(f"window supports {k} levels; asked for {out_levels}")
    return inverse_transform(CharFunction(grid, values, a.dim), out_levels)


def max_single_step(n_levels: int) -> float:
    """Largest heat-flow time one quadrature step can carry at truncation N.

    The Gaussian grid captures mass 1 - 1e-9 within radius 18.2 sqrt(t);
    after the half-scale displacement this must fit inside sqrt(2N).
    """
    return 0.98 * 8.0 * n_levels / (18.2 ** 2)


def evolve_state(params: HeatFlowParams, rho: DensityOperator) -> DensityOperator:
    """Predual heat-flow action on a state, by quadrature.

    The Gaussian measure is symmetric, so the state side uses the same
    conjugation average.  Times beyond the single-step window are split
    into equal substeps (the measures convolve exactly, so this is the same
    channel), each on the default Gaussian grid of the substep time.
    Output is renormalized for trace drift up to 1e-6 and validated as a
    state; a PSD defect beyond 1e-8 means the truncation is inadequate and
    raises.
    """
    if params.t == 0:
        return rho
    n = rho.dim
    n_steps = max(1, int(math.ceil(params.t / max_single_step(n))))
    ch = heat_channel(params.t / n_steps, n)
    out = rho.matrix
    for _ in range(n_steps):
        out = apply_quadrature(ch, FockOperator(out)).matrix
    tr = float(np.real(np.trace(out)))
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"trace drift {abs(tr - 1.0):.3e} exceeds 1e-6")
    out = out / tr
    out = 0.5 * (out + out.conj().T)
    lo = float(np.linalg.eigvalsh(out).min())
    if lo < -1e-8:
        raise ValueError(
            f"evolved state has eigenvalue {lo:.3e}; truncation inadequate"
        )
    if lo < 0:
        # wash out the tolerated sliver of negativity so the constructor's
        # stricter gate (1e-10) accepts the state
        dim = out.shape[0]
        out = (out + (-lo) * np.eye(dim)) / (1.0 - lo * dim)
    return DensityOperator(FockOperator(out))


@lru_cache(maxsize=16)
def _generator_eigensystems(n_levels: int) -> tuple:
    """Eigensystems of the truncated generator, one per offset d = 0..N-1.

    L_N(A) = 2(a A a† + a† A a) - {a a† + a† a, A} maps each offset m-n=d
    to itself; on the entries (m, m+d) (and equally on (m+d, m)) it is the
    real symmetric tridiagonal matrix with diagonal -(D_m + D_{m+d}) and
    off-diagonal 2 sqrt((m+1)(m+1+d)), where D = a a† + a† a =
    diag(1, 3, ..., 2N-3, N-1) for the truncated a.  That last entry makes
    L_N trace-preserving and unital, as the quadrature channels are.
    """
    dd = np.arange(1, 2 * n_levels, 2, dtype=float)
    dd[-1] = n_levels - 1
    systems = []
    for d in range(n_levels):
        m = np.arange(n_levels - d)
        lam, vec = eigh_tridiagonal(
            -(dd[m] + dd[m + d]), 2.0 * np.sqrt(m[1:] * (m[1:] + d))
        )
        lam.setflags(write=False)
        vec.setflags(write=False)
        systems.append((lam, vec))
    return tuple(systems)


def _heat_generator(a: np.ndarray, t: float) -> np.ndarray:
    """e^{t L_N}(a): the heat flow at time t through its truncated generator.

    Each offset evolves independently as v (e^{t lambda} * (v^T x)), so
    every time is exact in one step.  e^{t L_N} is a trace-preserving,
    completely positive semigroup on the N-level space.
    """
    if t == 0:
        return np.array(a, dtype=complex)
    n = a.shape[0]
    out = np.empty((n, n), dtype=complex)
    for d, (lam, vec) in enumerate(_generator_eigensystems(n)):
        m = np.arange(n - d)
        cols = np.stack([a[m, m + d], a[m + d, m]], axis=1)
        evolved = vec @ (np.exp(t * lam)[:, None] * (vec.T @ cols))
        out[m, m + d] = evolved[:, 0]
        out[m + d, m] = evolved[:, 1]
    return out


def generator_check(z, n_levels: int, t_values) -> ExperimentReport:
    """Finite-difference probe of the flow's generator on a Weyl operator.

    For each t, fit the coefficient g(t) in (phi_t - id)(W_z) = g W_z on
    the leading block; Richardson-extrapolate the two smallest times and
    compare against -|z|^2.
    """
    t_values = sorted(float(t) for t in t_values)
    if len(t_values) < 2:
        raise ValueError("need at least two time values")
    x, y = float(z[0]), float(z[1])
    zsq = x * x + y * y
    if zsq == 0.0:
        return ExperimentReport(
            check="generator_coefficient",
            params={"z": [x, y], "n_levels": n_levels, "t_values": t_values},
            measured=0.0, bound=0.0, passed=True,
            details={"fd_residual_rel": 0.0},
            curve=[{"t": t, "coeff_re": 0.0, "coeff_im": 0.0} for t in t_values],
        )
    w = weyl_operator((x, y), n_levels).matrix
    k = n_levels // 2
    wk = w[:k, :k]
    denom = float(np.real(np.vdot(wk, wk)))
    coeffs = []
    fd_residual_rel = math.inf
    for t in t_values:
        ch = heat_channel(t, n_levels)
        diff = apply_quadrature(ch, FockOperator(w)).matrix[:k, :k] - wk
        coeffs.append(complex(np.vdot(wk, diff)) / denom / t)
        if t == t_values[0]:
            resid = diff / t + zsq * wk
            fd_residual_rel = float(
                np.linalg.norm(resid) / np.linalg.norm(wk)
            )
    extrapolated = 2.0 * coeffs[0] - coeffs[1]
    curve = [
        {"t": t, "coeff_re": float(c.real), "coeff_im": float(c.imag)}
        for t, c in zip(t_values, coeffs)
    ]
    return ExperimentReport(
        check="generator_coefficient",
        params={"z": [x, y], "n_levels": n_levels, "t_values": t_values},
        measured=float(extrapolated.real),
        bound=-zsq,
        passed=bool(fd_residual_rel <= 1e-2),
        details={
            "fd_residual_rel": fd_residual_rel,
            "extrapolated_re": float(extrapolated.real),
            "extrapolated_im": float(extrapolated.imag),
        },
        curve=curve,
    )


def choi_matrix(ch: MeasureChannel, n: int) -> np.ndarray:
    """Choi matrix of the channel compressed to the leading n-block.

    Built as sum_p w_p v_p v_p^dagger with v_p the vectorized n-block of
    the displacement unitary; positive semidefinite exactly when the
    weights can be taken nonnegative.  Like apply_quadrature, it rejects a
    measure that clips more than 1e-6 of its mass.
    """
    if n > ch.truncation // 4:
        raise ValueError("Choi block exceeds a quarter of the truncation")
    nodes, weights = _masked_quadrature(ch, 1e-6)
    c = np.zeros((n * n, n * n), dtype=complex)
    for sl, w in _displacement_chunks(nodes, ch.truncation):
        v = w[:, :n, :n].transpose(0, 2, 1).reshape(len(w), n * n)
        c += (weights[sl, None] * v).T @ v.conj()
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
