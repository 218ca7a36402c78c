"""Purity experiments: decay of state distinguishability under the flow.

Three instruments:

* decay_curve - trace-norm distance between two evolved states over a time
  grid.  The generator path evolves the difference operator by e^{tL_N},
  the exponential of the flow's truncated generator; that is a
  trace-preserving completely positive semigroup, hence a trace-norm
  contraction, so non-increase is structural, not a numerical accident.

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

from .channels import HeatFlowParams, _heat_generator, apply_spectral, spectral_levels
from .fock import DensityOperator, FockOperator, displacement_batch, trace_norm
from .phase_space import (
    GridSpec,
    band_limited_approximant,
    conjugate_lattice,
    default_lemma_grid,
    gaussian_measure,
    symplectic_ft_at,
)
from .reports import ExperimentReport
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


def decay_curve(
    rho1: DensityOperator,
    rho2: DensityOperator,
    times=DEFAULT_TIME_GRID,
    path: str = "generator",
) -> tuple:
    """Trace-norm distance of the evolved pair at each time, as a tuple.

    The channel is linear, so the difference evolves as a single operator.
    ``generator`` evolves it to each time by e^{tL_N}, a trace-preserving
    completely positive semigroup, so the distance cannot increase;
    ``spectral`` reconstructs independently per time on the leading
    spectral_levels(N) block.  Times must increase strictly from a
    nonnegative start: the generator blows up backwards in time.
    """
    if rho1.dim != rho2.dim:
        raise ValueError("states must share a truncation")
    times = [float(t) for t in times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    if times and times[0] < 0:
        raise ValueError("negative time")
    omega = rho1.matrix - rho2.matrix
    if path == "generator":
        dists = [trace_norm(_heat_generator(omega, t)) for t in times]
    elif path == "spectral":
        op = FockOperator(omega)
        dists = []
        for t in times:
            if t == 0:
                dists.append(trace_norm(op.leading_block(spectral_levels(op.dim))))
            else:
                dists.append(trace_norm(apply_spectral(HeatFlowParams(t), op)))
    else:
        raise ValueError(f"unknown path {path!r}")
    return tuple(float(d) for d in dists)


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
    if epsilon <= 0:
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
    live on default_lemma_grid(delta).  The check passes when the bound
    exceeds the measured distance and the pairing vanishes (<= 1e-8); a
    violated bound is a failed report with negative slack, not an error.
    The details hold the terms, the slack and the receipts.
    """
    if rho1.dim != rho2.dim:
        raise ValueError("states must share a truncation")
    n = rho1.dim
    omega = FockOperator(rho1.matrix - rho2.matrix)
    term1, omega0 = band_annihilated_distance(omega, delta, constraint_grid(delta))
    if term1 > epsilon:
        raise ValueError(
            f"infeasible (epsilon, delta): best band-annihilated distance "
            f"{term1:.6g} exceeds the budget {epsilon:.6g}"
        )
    lemma_grid = default_lemma_grid(delta)
    nu = band_limited_approximant(t, delta, lemma_grid)
    mu = gaussian_measure(t, lemma_grid)
    tv_gap = (mu - nu).total_variation()
    omega0_norm = trace_norm(omega0)
    term2 = omega0_norm * tv_gap

    # pairing nodes: a coarse sublattice of nu's conjugate lattice, spacing
    # <= delta/4, reaching twice the band radius; inside the delta-disk the
    # transform of omega0 is constrained to zero, outside nu's transform
    # vanishes exactly on lattice points, so the overlap dies identically
    lat = conjugate_lattice(lemma_grid)
    stride = max(1, int(math.floor((delta / 4.0) / lat.h)))
    spacing = stride * lat.h
    reach = int(math.ceil(2.0 * delta / spacing))
    axis = spacing * np.arange(-reach, reach + 1)
    px, py = np.meshgrid(axis, axis, indexing="ij")
    pairing = np.column_stack([px.ravel(), py.ravel()])
    pairing = pairing[np.hypot(pairing[:, 0], pairing[:, 1]) <= 2.0 * delta]
    nu_hat = symplectic_ft_at(nu, pairing)
    omega0_hat = char_values(omega0, pairing)
    inner = complex(np.sum(nu_hat * omega0_hat))

    measured = trace_norm(_heat_generator(omega.matrix, t))
    bound = term1 + term2  # the third term vanishes identically
    receipts = {"t": float(t), "delta": float(delta), "truncation": n,
                "tv_gap": tv_gap, "omega0_trace_norm": omega0_norm,
                "pairing_inner_product": abs(inner), "pairing_nodes": len(pairing)}
    return ExperimentReport(
        check="purity_certificate",
        params={"truncation": n, "t": float(t), "delta": float(delta), "epsilon": float(epsilon)},
        measured=measured,
        bound=bound,
        passed=bool(bound - measured > 0 and abs(inner) <= 1e-8),
        details={"epsilon": float(epsilon), "term1": term1, "term2": term2,
                 "term3": 0.0, "measured": measured, "bound": bound,
                 "slack": bound - measured, "details": receipts},
    )


def absorbing_state_probe(times, probes) -> ExperimentReport:
    """No state survives the flow unchanged: ring transforms decay as e^{-t}.

    For each probe state and each time, the transform maximum on the unit
    ring (32 directions) must equal e^{-t} times its initial value
    (tolerance 1e-3), and no probe may show a time-independent transform.
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
        base = np.abs(char_values(rho.op, ring))
        moved = False
        for t in times:
            if t == 0:
                vals = base
            else:
                evolved = FockOperator(_heat_generator(rho.matrix, t))
                vals = np.abs(char_values(evolved, ring))
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
                }
            )
        if any(t > 0 for t in times) and float(base.max()) > 1e-6 and not moved:
            stale.append(label)
    return ExperimentReport(
        check="absorbing_state_probe",
        params={"times": times, "n_probes": len(probes),
                "n_directions": len(ring)},
        measured=worst,
        bound=1e-3,
        passed=bool(worst <= 1e-3 and not stale),
        details={"time_independent_probes": stale},
        curve=curve,
    )
