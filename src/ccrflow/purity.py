"""Purity experiments: decay of state distinguishability under the flow.

Three instruments:

* decay_curve - trace-norm distance between two evolved states over a time
  grid.  The exact path evolves the difference operator by the flow itself
  (channels.exact_heat), a trace-preserving completely positive semigroup,
  hence a trace-norm contraction, so non-increase is structural, not a
  numerical accident.  Its window holds all but _TAIL_TOL of each occupied
  level's evolved trace, and each row states the window and the trace
  above it.

* band_annihilated_distance - how far (in trace norm) an operator sits
  from the set of operators whose transform vanishes on a small disk.
  Solved as a Hilbert-Schmidt least-squares projection onto homogeneous
  linear constraints; the trace-norm figure of the projection is reported.
  With the origin among the constraint nodes, any feasible point has trace
  zero, which gives the unconditional lower bound d >= |trace A|.

* certified_bound - the three-term decomposition bounding the evolved
  distance: ||omega phi_t|| <= ||omega - omega0||_1
                               + ||omega0||_1 * ||mu_t - nu_t||
                               + 0,
  where omega0's transform dies on the delta-disk and nu_t's transform
  lives inside the (7/8 delta)-disk, so their pairing vanishes identically;
  the purity_certificate report it returns records the verified pairing.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import (
    HeatFlowParams,
    _spectral_flow,
    _tail_window,
    exact_heat,
    spectral_levels,
)
from .fock import DensityOperator, FockOperator, displacement_batch, trace_norm
from .phase_space import (
    GridSpec,
    band_limited_approximant,
    conjugate_lattice,
    default_lemma_grid,
    gaussian_measure,
    symplectic_ft_at,
)
from .reports import Condition, ExperimentReport
from .weyl_transform import char_values

__all__ = [
    "decay_curve",
    "DEFAULT_TIME_GRID",
    "band_annihilated_distance",
    "constraint_grid",
    "certified_bound",
    "absorbing_state_probe",
]

DEFAULT_TIME_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


# the output trace of each occupied level that decay_curve and certified_bound
# leave above their window: the basis pair's d(8) and d(16) then sit within
# 1.3e-13 relative of their closed form, on 553 and 1,089 levels
_TAIL_TOL = 1e-13


def _distance_row(omega: np.ndarray, t: float, out: np.ndarray) -> dict:
    """The decay row of omega evolved to out: trace-norm distance, window
    size and the trace that falls outside the window."""
    return {"t": t, "distance": trace_norm(out), "levels": len(out),
            "lost_trace": float(abs(np.trace(omega) - np.trace(out)))}


def _exact_row(omega: np.ndarray, t: float) -> dict:
    return _distance_row(omega, t, exact_heat(omega, t, _tail_window(omega, t, _TAIL_TOL)))


def decay_curve(
    rho1: DensityOperator,
    rho2: DensityOperator,
    times=DEFAULT_TIME_GRID,
    path: str = "exact",
) -> tuple:
    """The evolved pair at each time, as a tuple of rows: trace-norm
    ``distance``, the ``levels`` of the window it is taken on and the
    ``lost_trace`` that falls outside that window.

    The channel is linear, so the difference evolves as a single operator.
    ``exact`` evolves it by the flow itself, a trace-preserving completely
    positive semigroup, so the distance cannot increase, on the window
    _TAIL_TOL asks for; ``spectral`` transforms it once, then inverts each
    positive time on the leading spectral_levels(N) block.  Times are finite
    and increase strictly from 0 or later: the flow does not run backwards.
    """
    if rho1.dim != rho2.dim:
        raise ValueError("states must share a truncation")
    times = [float(t) for t in times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    if times and times[0] < 0:
        raise ValueError("negative time")
    for t in times:
        HeatFlowParams(t)  # finite too: inf and NaN pass the checks above
    omega = rho1.matrix - rho2.matrix
    if path == "exact":
        return tuple(_exact_row(omega, t) for t in times)
    if path == "spectral":
        op = FockOperator(omega)
        flowed = iter(_spectral_flow(op, [t for t in times if t]))  # one transform
        block = op.leading_block(spectral_levels(op.dim))  # t = 0 exactly
        return tuple(_distance_row(omega, t, (next(flowed) if t else block).matrix) for t in times)
    raise ValueError(f"unknown path {path!r}")


def band_annihilated_distance(
    a: FockOperator, epsilon: float, grid: GridSpec, rcond: float | None = None
) -> tuple[float, FockOperator]:
    """Distance from ``a`` to operators whose transform dies on a disk.

    Minimizes ||B - A|| in Hilbert-Schmidt norm subject to transform(B) = 0
    at every grid node with |z| <= epsilon, via least-norm correction along
    the constraint rows; returns the trace-norm distance and the minimizer
    (the Hilbert-Schmidt figure is the Frobenius norm of a - b).  The
    constraint sample must be dense (h <= epsilon/4) and small enough to
    leave freedom (fewer than N^2 constraints).

    ``rcond`` is the relative singular-value cutoff of the solver.  The
    default enforces the constraints to machine precision, which is what
    certificate pairing needs; displacement rows on a disk are severely
    ill-conditioned, so for noisy dense inputs a numerical-rank policy
    around 1e-6 gives a far more stable distance profile.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if grid.h > epsilon / 4 + 1e-12:
        raise ValueError(
            f"constraint sample too coarse: h = {grid.h:.4f} > epsilon/4 = "
            f"{epsilon / 4:.4f}"
        )
    if grid.half_width < epsilon:
        raise ValueError("grid does not cover the epsilon-disk")
    n = a.dim
    xs, ys = grid.mesh()
    keep = (np.hypot(xs, ys) <= epsilon + 1e-12).ravel()
    pts = np.column_stack([xs.ravel(), ys.ravel()])[keep]
    k = len(pts)
    if k >= n * n:
        raise ValueError(
            f"{k} constraints on an operator with {n * n} degrees of freedom; "
            "shrink epsilon or refine the truncation"
        )
    w = displacement_batch(pts, n)
    c = w.transpose(0, 2, 1).reshape(k, n * n)
    avec = a.matrix.ravel()
    target = c @ avec
    correction, *_ = np.linalg.lstsq(c, target, rcond=rcond)
    bvec = avec - correction
    b = FockOperator(bvec.reshape(n, n))
    return trace_norm(a - b), b


def constraint_grid(epsilon: float) -> GridSpec:
    """The coarsest constraint sample band_annihilated_distance accepts on
    the epsilon-disk: 8 nodes per axis over [-epsilon, epsilon), spacing
    epsilon/4."""
    return GridSpec(epsilon, 8)


def certified_bound(
    rho1: DensityOperator,
    rho2: DensityOperator,
    t: float,
    epsilon: float,
    delta: float,
) -> ExperimentReport:
    """The purity_certificate report: the three-term bound at time t.

    epsilon is the budget for the first term: if the band-annihilated
    projection cannot get that close, the pair (epsilon, delta) is
    infeasible and raises rather than being silently loosened.  The
    constraints sit on a delta/4 grid over the delta-disk; the measures
    live on default_lemma_grid(delta), where the TV gap to the Gaussian is
    one table beside nu, freed before the pairing transform.  The check
    passes when the bound exceeds the measured distance and the pairing
    vanishes (<= 1e-8); a violated bound is a failed report with negative
    slack, not an error.
    The details hold the terms, the slack and the receipts that no
    condition or param states.
    """
    if rho1.dim != rho2.dim:
        raise ValueError("states must share a truncation")
    HeatFlowParams(t)  # t finite and nonnegative, before any work
    n = rho1.dim
    omega = rho1 - rho2
    term1, omega0 = band_annihilated_distance(omega, delta, constraint_grid(delta))
    if term1 > epsilon:
        raise ValueError(
            f"infeasible (epsilon, delta): best band-annihilated distance "
            f"{term1:.6g} exceeds the budget {epsilon:.6g}"
        )
    lemma_grid = default_lemma_grid(delta)
    nu = band_limited_approximant(t, delta, lemma_grid)
    gap = gaussian_measure(t, lemma_grid).weights  # one table beside nu
    gap -= nu.weights
    tv_gap = float(np.abs(gap, out=gap).sum())
    del gap  # not alive through the pairing transform
    omega0_norm = trace_norm(omega0)
    term2 = omega0_norm * tv_gap

    # pairing nodes: a coarse sublattice of nu's conjugate lattice, spacing
    # <= delta/4, reaching twice the band radius; inside the delta-disk the
    # transform of omega0 is constrained to zero, outside nu's transform
    # vanishes exactly on lattice points, so the overlap dies identically
    lat = conjugate_lattice(lemma_grid)
    stride = max(1, int(math.floor((delta / 4.0) / lat.h)))
    reach = int(math.ceil(2.0 * delta / (stride * lat.h)))
    axis = lat.h * (stride * np.arange(-reach, reach + 1))  # the lattice's own node rule
    px, py = np.meshgrid(axis, axis, indexing="ij")
    pairing = np.column_stack([px.ravel(), py.ravel()])
    pairing = pairing[np.hypot(pairing[:, 0], pairing[:, 1]) <= 2.0 * delta]
    nu_hat = symplectic_ft_at(nu, pairing)
    omega0_hat = char_values(omega0, pairing)
    inner = complex(np.sum(nu_hat * omega0_hat))

    exact = _exact_row(omega.matrix, float(t))
    measured = exact["distance"]
    bound = term1 + term2  # the third term vanishes identically
    return ExperimentReport(
        check="purity_certificate",
        params={"truncation": n, "t": float(t), "delta": float(delta), "epsilon": float(epsilon)},
        conditions=(Condition("distance", measured, "<", bound),
                    Condition("pairing_inner_product", abs(inner), "<=", 1e-8)),
        details={"term1": term1, "term2": term2, "term3": 0.0, "slack": bound - measured,
                 "tv_gap": tv_gap, "omega0_trace_norm": omega0_norm,
                 "pairing_nodes": len(pairing), "levels": exact["levels"],
                 "lost_trace": exact["lost_trace"]},
    )


def absorbing_state_probe(times, probes) -> ExperimentReport:
    """No state survives the flow unchanged: ring transforms decay as e^{-t}.

    For each probe state and each time, the transform maximum on the unit
    ring (32 directions) must equal e^{-t} times its initial value
    (tolerance 1e-3), and no probe may show a time-independent transform.
    Each state evolves exactly on its own N levels; the trace the flow moves
    above them is each row's ``lost_trace``, and the deviation it causes is
    part of the measured one.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("negative time")
    probes = list(probes)
    angles = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    worst = 0.0
    curve = []
    stale = []
    for label, rho in probes:
        base = np.abs(char_values(rho, ring))
        moved = False
        for t in times:
            evolved = exact_heat(rho.matrix, t, rho.dim)
            vals = np.abs(char_values(FockOperator(evolved), ring)) if t else base
            expected = math.exp(-t) * base
            dev = float(np.abs(vals - expected).max())
            worst = max(worst, dev)
            if t > 0 and float(np.abs(vals - base).max()) > 1e-6:
                moved = True
            curve.append(
                {
                    "probe": label,
                    "t": t,
                    "ring_max": float(vals.max()),
                    "expected_max": float(expected.max()),
                    "deviation": dev,
                    "lost_trace": float(abs(rho.trace() - np.trace(evolved))),
                }
            )
        if any(t > 0 for t in times) and float(base.max()) > 1e-6 and not moved:
            stale.append(label)
    return ExperimentReport(
        check="absorbing_state_probe",
        params={"times": times, "n_probes": len(probes),
                "n_directions": len(ring)},
        conditions=(Condition("max_deviation", worst, "<=", 1e-3),
                    Condition("time_independent_probe_count", len(stale), "<=", 0)),
        details={"time_independent_probes": stale},
        curve=curve,
    )
