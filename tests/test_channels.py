"""Measure-channel tests: multiplier action, paths, Choi blocks, guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrflow import (
    DensityOperator,
    FockOperator,
    GridSpec,
    HeatFlowParams,
    MeasureChannel,
    apply_quadrature,
    apply_spectral,
    cb_distance_bound,
    choi_matrix,
    coherent_state,
    default_gaussian_grid,
    evolve_state,
    gaussian_measure,
    generator_check,
    heat_channel,
    max_single_step,
    number_state,
    omega,
    point_mass_channel,
    reliable_levels,
    trace_norm,
    weyl_operator,
)
from ccrflow.channels import (
    _heat_generator,
    cauchy_multiplier,
    heat_multiplier,
)
from ccrflow.cli import _random_low_block_state

RNG = np.random.default_rng(31415)

ATOM_GRID = GridSpec(half_width=2.0, points_per_axis=8)  # h = 0.5, 0 on a node


def test_heat_channel_acts_as_gaussian_multiplier():
    # the flow's defining action: W_z is an eigenvector with e^{-t|z|^2}
    n, t = 24, 0.25
    ch = heat_channel(t, n)
    k = reliable_levels(ch.mu.grid, n)
    for z in [(0.7, -0.3), (1.0, 0.0), (0.2, 0.9)]:
        w = weyl_operator(z, n).matrix
        out = apply_quadrature(ch, FockOperator(w)).matrix
        want = math.exp(-t * (z[0] ** 2 + z[1] ** 2)) * w
        rel = trace_norm(out[:k, :k] - want[:k, :k]) / trace_norm(want[:k, :k])
        assert rel < 1e-3


def test_two_atom_channel_multiplies_by_cosine():
    # (delta_a + delta_{-a})/2 acts on W_z by cos(omega(z, a)); this pins the
    # conjugation scale independently of the startup oracle's choices
    n = 28
    a = (1.0, 0.5)
    ch = point_mass_channel([a, (-1.0, -0.5)], [0.5, 0.5], ATOM_GRID, n)
    k = n // 2
    for z in [(0.3, 0.4), (-0.6, 1.1)]:
        w = weyl_operator(z, n).matrix
        out = apply_quadrature(ch, FockOperator(w)).matrix
        want = math.cos(omega(z, a)) * w
        assert float(np.abs(out[:k, :k] - want[:k, :k]).max()) < 1e-8


def test_multiplier_formulas():
    pts = np.array([[1.0, 2.0], [-0.5, 0.25]])
    np.testing.assert_allclose(
        heat_multiplier(0.3, pts), np.exp(-0.3 * (pts[:, 0] ** 2 + pts[:, 1] ** 2))
    )
    np.testing.assert_allclose(
        cauchy_multiplier(0.3, pts),
        np.exp(-0.3 * (np.abs(pts[:, 0]) + np.abs(pts[:, 1]))),
    )


def test_params_and_channel_validation():
    with pytest.raises(ValueError):
        HeatFlowParams(-0.1)
    with pytest.raises(ValueError):
        HeatFlowParams(math.nan)
    HeatFlowParams(0.0)  # identity time is legal
    with pytest.raises(ValueError, match="t > 0"):
        heat_channel(0.0, 10)
    mu = gaussian_measure(0.25, default_gaussian_grid(0.25))
    with pytest.raises(ValueError, match="truncation"):
        MeasureChannel(mu, 0)


def test_apply_quadrature_guards():
    ch = heat_channel(0.25, 20)
    with pytest.raises(ValueError, match="dimension"):
        apply_quadrature(ch, FockOperator(np.eye(12, dtype=complex)))


def test_clipped_mass_rejection():
    # t = 1 needs displacement radius ~9.1, far beyond sqrt(24) ~ 4.9
    ch = heat_channel(1.0, 12)
    with pytest.raises(ValueError, match="trustworthy window"):
        apply_quadrature(ch, FockOperator(np.eye(12, dtype=complex)))


def test_spectral_path_matches_quadrature():
    n, t = 30, 0.25
    rho = number_state(1, n)
    spec = apply_spectral(HeatFlowParams(t), FockOperator(rho.matrix))
    k = spec.dim
    quad = apply_quadrature(heat_channel(t, n), FockOperator(rho.matrix))
    assert trace_norm(spec.matrix - quad.matrix[:k, :k]) < 1e-5


def test_spectral_rejects_unknown_kind_and_extra_levels():
    a = FockOperator(number_state(0, 20).matrix)
    with pytest.raises(ValueError, match="kind"):
        apply_spectral(HeatFlowParams(0.1), a, kind="levy")
    with pytest.raises(ValueError, match="supports"):
        apply_spectral(HeatFlowParams(0.1), a, out_levels=19)


def test_evolve_state_basics():
    n = 30
    rho = coherent_state(0.5 + 0.2j, n)
    assert evolve_state(HeatFlowParams(0.0), rho) is rho
    out = evolve_state(HeatFlowParams(1.0), rho)
    assert abs(np.trace(out.matrix) - 1.0) < 1e-12
    assert float(np.linalg.eigvalsh(out.matrix).min()) > -1e-10


def test_evolve_state_semigroup_within_quadrature_error():
    n = 30
    rho = number_state(1, n)
    one_jump = evolve_state(HeatFlowParams(0.5), rho)
    two_steps = evolve_state(
        HeatFlowParams(0.25), evolve_state(HeatFlowParams(0.25), rho)
    )
    k = 8
    gap = trace_norm(one_jump.matrix[:k, :k] - two_steps.matrix[:k, :k])
    assert gap < 2e-3


def test_generator_coefficient_unit_displacement():
    # times small enough that the first-order defect ~ t/2 clears the gate
    rep = generator_check((1.0, 0.0), 30, (0.0125, 0.025, 0.05, 0.1))
    assert rep.passed
    assert abs(rep.measured - (-1.0)) < 1e-2


def test_generator_check_edge_cases():
    rep = generator_check((0.0, 0.0), 16, (0.05, 0.1))
    assert rep.passed and rep.measured == 0.0
    with pytest.raises(ValueError, match="two time"):
        generator_check((1.0, 0.0), 16, (0.05,))


def test_choi_identity_channel_is_rank_one():
    ch = point_mass_channel([(0.0, 0.0)], [1.0], ATOM_GRID, 8)
    c = choi_matrix(ch, 2)
    eigs = np.sort(np.linalg.eigvalsh(c))
    np.testing.assert_allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_choi_gaussian_is_positive():
    ch = heat_channel(0.5, 24)
    c = choi_matrix(ch, 4)
    assert float(np.linalg.eigvalsh(c).min()) > -1e-8


def test_choi_signed_witness_is_negative():
    ch = point_mass_channel(
        [(0.0, 0.0), (0.5, 1.0)], [0.5, -0.5], ATOM_GRID, 16
    )
    c = choi_matrix(ch, 4)
    assert float(np.linalg.eigvalsh(c).min()) < -0.01


def test_choi_block_size_guard():
    ch = heat_channel(0.5, 24)
    with pytest.raises(ValueError, match="quarter"):
        choi_matrix(ch, 7)


def test_cb_distance_bound_holds_and_vanishes_at_equality():
    n = 20
    grid = GridSpec(half_width=10.0, points_per_axis=160)
    mu = gaussian_measure(0.25, grid)
    nu = gaussian_measure(0.3, grid)
    probes = [
        weyl_operator((0.3, 0.1), n),
        FockOperator(number_state(1, n).matrix),
    ]
    rep = cb_distance_bound(mu, nu, probes, n, allow_clipping=True)
    assert rep.passed and rep.measured <= 1.0 + 1e-6
    same = cb_distance_bound(mu, mu, probes, n, allow_clipping=True)
    assert same.measured == 0.0


def test_max_single_step_grows_with_truncation():
    steps = [max_single_step(n) for n in (10, 20, 40, 80)]
    assert all(b > a for a, b in zip(steps, steps[1:]))
    # capture radius at the step, after half-scaling, fits the trust window
    for n, t in zip((10, 20, 40, 80), steps):
        assert 0.5 * 18.2 * math.sqrt(t) <= math.sqrt(2 * n) + 1e-12


def test_generator_matches_quadrature_and_spectral_paths():
    # three independent engines of one flow: the generator exponential, the
    # quadrature conjugation average and the transform multiplier
    n = 30
    probe = FockOperator(number_state(0, n).matrix)
    k = apply_spectral(HeatFlowParams(0.25), probe).dim
    rng = np.random.default_rng(2718)
    states = [_random_low_block_state(rng, k, n) for _ in range(3)]
    for rho in states:
        for t in (0.25, 1.0):
            gen = _heat_generator(rho.matrix, t)
            quad = evolve_state(HeatFlowParams(t), rho).matrix
            assert trace_norm(gen[:10, :10] - quad[:10, :10]) <= 1e-8
            spec = apply_spectral(HeatFlowParams(t), FockOperator(rho.matrix))
            assert trace_norm(gen[:k, :k] - spec.matrix) <= 1e-6


def test_generator_tracks_quadrature_on_the_basis_pair():
    n, t = 32, 4.0
    omega = number_state(0, n).matrix - number_state(1, n).matrix
    n_steps = int(math.ceil(t / max_single_step(n)))
    ch = heat_channel(t / n_steps, n)
    quad = omega
    for _ in range(n_steps):
        quad = apply_quadrature(ch, FockOperator(quad)).matrix
    gap = trace_norm(_heat_generator(omega, t)) - trace_norm(quad)
    assert abs(gap) <= 1e-5


def _unit_hermitian(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g + g.conj().T
    return h / trace_norm(h)


TIMES = st.floats(0.0, 4.0)
GENERATOR_CASES = dict(n=st.integers(4, 24), seed=st.integers(0, 2**32 - 1), t=TIMES)


@settings(max_examples=40, deadline=None)
@given(**GENERATOR_CASES, s=TIMES)
def test_generator_semigroup_law(n, seed, s, t):
    a = _unit_hermitian(n, seed)
    twice = _heat_generator(_heat_generator(a, s), t)
    assert float(np.abs(twice - _heat_generator(a, s + t)).max()) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(**GENERATOR_CASES)
def test_generator_preserves_trace_identity_and_hermiticity(n, seed, t):
    a = _unit_hermitian(n, seed)
    out = _heat_generator(a, t)
    assert abs(np.trace(out) - np.trace(a)) <= 1e-11
    assert float(np.abs(out - out.conj().T).max()) <= 1e-15
    eye = _heat_generator(np.eye(n, dtype=complex), t)
    assert float(np.abs(eye - np.eye(n)).max()) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(**GENERATOR_CASES)
def test_generator_contracts_the_trace_norm(n, seed, t):
    a = _unit_hermitian(n, seed)
    assert trace_norm(_heat_generator(a, t)) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(**GENERATOR_CASES, theta=st.floats(-math.pi, math.pi))
def test_generator_is_rotation_covariant(n, seed, t, theta):
    # R = diag(e^{i theta n}) conjugation multiplies entry (m, k) by
    # e^{i theta (m - k)}
    a = _unit_hermitian(n, seed)
    phase = np.exp(1j * theta * np.subtract.outer(np.arange(n), np.arange(n)))
    gap = phase * _heat_generator(a, t) - _heat_generator(phase * a, t)
    assert float(np.abs(gap).max()) <= 1e-12
