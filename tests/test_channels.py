"""Measure-channel tests: multiplier action, paths, Choi blocks, guards."""

import math
import tracemalloc

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
    spectral_levels,
    trace_norm,
    weyl_operator,
)
from ccrflow import channels, phase_space
from ccrflow.channels import (
    _spectral_flow,
    _tail_window,
    _transfer_table,
    cauchy_multiplier,
    exact_heat,
    heat_multiplier,
)
from ccrflow.cli import _random_low_block_state
from ccrflow.fock import _position_eigensystem, position

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
    # (delta_a + delta_{-a})/2 acts on W_z by cos(omega(z, a)): conjugating
    # at a/2 multiplies W_z by e^{i omega(a, z)}, so this pins the
    # conjugation scale 1/2 on the apply path (2^{-1/2} misses the frequency)
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


def test_cauchy_spectral_path_matches_the_cauchy_quadrature():
    # the transform multiplier exp(-t(|a| + |b|)) against the conjugation
    # average over the product-Cauchy measure it is the transform of, on a
    # path_agreement state (seed 2026 + 2); the gap is 4.3e-3 in trace norm
    # against a move of 0.087, and the heat multiplier misses by 0.21
    n, t = 40, 0.02
    k = spectral_levels(n)
    rho = _random_low_block_state(np.random.default_rng(2028), k, n)
    ch = MeasureChannel(phase_space.cauchy_measure(t, GridSpec(12.0, 256)), n)
    quad = apply_quadrature(ch, rho).matrix[:k, :k]
    spec = apply_spectral(HeatFlowParams(t), rho, kind="cauchy").matrix
    move = trace_norm(spec - rho.matrix[:k, :k])
    assert trace_norm(quad - spec) <= move / 10.0
    assert trace_norm(quad - apply_spectral(HeatFlowParams(t), rho).matrix) > move / 10.0


def test_spectral_rejects_unknown_kind_and_extra_levels():
    a = FockOperator(number_state(0, 20).matrix)
    with pytest.raises(ValueError, match="kind"):
        apply_spectral(HeatFlowParams(0.1), a, kind="levy")


def test_spectral_flow_is_apply_spectral_at_each_time():
    # one transform serves every time; each time's arithmetic is the one-time
    # path's, so the blocks agree bitwise
    a = coherent_state(0.8, 30)
    times = (0.0, 0.25, 1.0)
    for t, block in zip(times, _spectral_flow(a, times)):
        assert np.array_equal(block.matrix, apply_spectral(HeatFlowParams(t), a).matrix)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_spectral_flow_checks_every_time_before_any_transform(monkeypatch, bad):
    # unchecked, NaN would surface as "transform values must be finite" and
    # -1 would amplify the transform silently
    def refuse(*args):
        raise AssertionError("transformed before the times were checked")

    monkeypatch.setattr(channels, "char_function", refuse)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        _spectral_flow(number_state(0, 20), (0.25, bad))


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
    coeff, fd_residual = generator_check((1.0, 0.0), 30, (0.0125, 0.025, 0.05, 0.1))
    assert fd_residual <= 1e-2
    assert abs(coeff - (-1.0)) < 1e-2
    # the extrapolation to t = 0 holds for any two times, not only t2 = 2 t1:
    # what it leaves is second order, about g'' t1 t2 / 2
    for times in [(0.0125, 0.025), (0.0375, 0.0125)]:
        assert abs(generator_check((1.0, 0.0), 30, times)[0] + 1.0) < 2e-4


def test_generator_check_edge_cases():
    # W_0 is the identity, which the unital channel leaves alone
    coeff, fd_residual = generator_check((0.0, 0.0), 16, (0.05, 0.1))
    assert abs(coeff) <= 1e-12 and fd_residual <= 1e-2
    with pytest.raises(ValueError, match="two time"):
        generator_check((1.0, 0.0), 16, (0.05,))
    with pytest.raises(ValueError, match="two time"):
        generator_check((1.0, 0.0), 16, (0.05, 0.05))
    with pytest.raises(ValueError, match="positive"):  # t = 0 has no difference quotient
        generator_check((1.0, 0.0), 16, (0.0, 0.05))
    # no substep count reaches an infinite or NaN time
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            generator_check((1.0, 0.0), 16, (0.01, bad))


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


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.5, -0.5)])
def test_two_atom_choi_conjugates_at_half_the_atom(weights):
    # the Choi path, summed node by node from Q's eigensystem, conjugates by
    # W_{z/2} with the literal scale 1/2: 2^{-1/2} would miss by 0.18 or more
    n, block = 24, 4
    atoms = [(0.5, 1.0), (-0.5, -1.0)]
    ch = point_mass_channel(atoms, list(weights), ATOM_GRID, n)
    want = np.zeros((block * block, block * block), dtype=complex)
    for (x, y), w in zip(atoms, weights):
        v = weyl_operator((x / 2, y / 2), n).matrix[:block, :block].ravel(order="F")
        want += w * np.outer(v, v.conj())
    assert float(np.abs(choi_matrix(ch, block) - want).max()) <= 1e-12


def test_choi_block_size_guard():
    ch = heat_channel(0.5, 24)
    with pytest.raises(ValueError, match="quarter"):
        choi_matrix(ch, 7)


def test_choi_refuses_an_empty_block():
    # below N = 4 the Choi checks' block min(4, N // 4) holds no level; the
    # refusal names the block and the truncation, not an empty reduction
    with pytest.raises(ValueError, match=r"Choi block 0 .* truncation 3"):
        choi_matrix(heat_channel(0.25, 3), 0)


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


@pytest.mark.parametrize("capture", [1e-9, 1e-11, 1e-13])
def test_max_single_step_clips_no_more_than_the_capture(monkeypatch, capture):
    # the step follows phase_space's capture radius, so a tighter capture
    # is not undone by the trust window's clip of a heat substep
    monkeypatch.setattr(phase_space, "_GAUSSIAN_CAPTURE", capture)
    monkeypatch.setattr(channels, "_GAUSSIAN_CAPTURE", capture)
    for n in (24, 30, 128):
        ch = heat_channel(max_single_step(n), n)
        assert 1.0 - channels._masked_quadrature(ch, math.inf).sum() <= capture


def test_quadrature_and_spectral_paths_match_the_exact_flow():
    # the quadrature conjugation average and the transform multiplier against
    # the flow itself, on the block the spectral path reconstructs
    n = 30
    k = spectral_levels(n)
    rng = np.random.default_rng(2718)
    states = [_random_low_block_state(rng, k, n) for _ in range(3)]
    for rho in states:
        for t in (0.25, 1.0):
            exact = exact_heat(rho.matrix, t, k)
            quad = evolve_state(HeatFlowParams(t), rho).matrix
            assert trace_norm(quad[:k, :k] - exact) <= 1e-8
            spec = apply_spectral(HeatFlowParams(t), FockOperator(rho.matrix))
            assert trace_norm(spec.matrix - exact) <= 1e-6


def test_quadrature_substeps_track_the_exact_flow_on_the_basis_pair():
    # each substep that carries the pair to t = 4 at N = 32 acts on the
    # trusted block as the flow does on the same input; composed, the six
    # drift by 8e-5 there, as the truncated channel keeps inside N the trace
    # the flow carries above it
    n, t = 32, 4.0
    n_steps = int(math.ceil(t / max_single_step(n)))
    ch = heat_channel(t / n_steps, n)
    k = spectral_levels(n)
    x = number_state(0, n).matrix - number_state(1, n).matrix
    for _ in range(n_steps):
        step = apply_quadrature(ch, FockOperator(x)).matrix
        assert trace_norm(step[:k, :k] - exact_heat(x, t / n_steps, k)) <= 1e-5
        x = step


def _unit_hermitian(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g + g.conj().T
    return h / trace_norm(h)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40))
def test_position_eigensystem_rebuilds_q(n):
    lam, vec, _ = _position_eigensystem(n)
    assert not (lam.flags.writeable or vec.flags.writeable)
    want = position(n).matrix.real
    assert np.abs((vec * lam) @ vec.T - want).max() <= 1e-12 * np.abs(want).max()


def kraus_heat(a: np.ndarray, t: float, n_out: int) -> np.ndarray:
    """Loss eta = 1/(1 + 2t), then the amplifier of gain 1/eta, each as an
    explicit Kraus sum; the n_out-level window of the result."""
    n = len(a)
    eta, q = 1.0 / (1.0 + 2.0 * t), 2.0 * t / (1.0 + 2.0 * t)
    lost = np.zeros((n, n), dtype=complex)
    for k in range(n):
        op = np.zeros((n, n))
        for m in range(k, n):
            op[m - k, m] = math.sqrt(math.comb(m, k) * eta ** (m - k) * q ** k)
        lost += op @ a @ op.T
    out = np.zeros((n_out, n_out), dtype=complex)
    for k in range(n_out):
        op = np.zeros((n_out, n))
        for j in range(min(n, n_out - k)):
            op[j + k, j] = math.sqrt(math.comb(j + k, k) * eta ** (j + 1) * q ** k)
        out += op @ lost @ op.T
    return out


@pytest.mark.parametrize("n, n_out, t", [
    (6, 6, 0.3), (5, 40, 2.0), (12, 8, 1.0), (3, 90, 8.0), (1, 4, 0.5)])
def test_exact_heat_is_loss_then_amplifier(n, n_out, t):
    a = np.random.default_rng(n).normal(size=(n, n, 2)) @ np.array([1.0, 1j])
    a /= trace_norm(a)
    gap = exact_heat(a, t, n_out) - kraus_heat(a, t, n_out)
    assert float(np.abs(gap).max()) <= 1e-13


@pytest.mark.parametrize("n_out", [4, 7, 12])
def test_exact_heat_writes_the_bands_of_gapped_offsets(n_out):
    # offsets 0 and 3 only, one of the offset-3 entries below the diagonal
    # with no partner above it; the window is below, at and above N = 7
    a = np.zeros((7, 7), dtype=complex)
    a[1, 1], a[4, 4], a[6, 6] = 0.5, 0.3, 0.2
    a[1, 4], a[4, 1], a[5, 2] = 0.1j, -0.1j, 0.05
    gap = exact_heat(a, 0.7, n_out) - kraus_heat(a, 0.7, n_out)
    assert float(np.abs(gap).max()) <= 1e-13


def test_exact_heat_works_on_the_levels_it_occupies(monkeypatch):
    # a pair on levels 0 and 1 of a 40-level space evolves through a
    # two-level table, as the pair on its own two levels does, and the zero
    # operator evolves to zero
    big = np.zeros((40, 40), dtype=complex)
    big[0, 0], big[1, 1] = 1.0, -1.0
    calls = []

    def spy(levels, n_out, t):
        calls.append((levels, n_out, t))
        return _transfer_table(levels, n_out, t)

    monkeypatch.setattr(channels, "_transfer_table", spy)
    np.testing.assert_array_equal(exact_heat(big, 2.0, 60), exact_heat(big[:2, :2], 2.0, 60))
    assert calls == [(2, 60, 2.0), (2, 60, 2.0)]
    assert not exact_heat(np.zeros((5, 5)), 1.0, 7).any()


def test_exact_heat_leaves_no_table_allocated():
    # the table a call builds dies with it; cached, the two 8 MB tables of
    # this state's 100 levels in 100 stayed alive
    a = coherent_state(0.8, 100).matrix
    tracemalloc.start()
    try:
        for t in (1.0, 2.0):
            exact_heat(a, t, 100)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 1e6


@pytest.mark.parametrize("a,n_out,match", [
    (np.eye(4), 0, "n_out must be at least 1"),
    (np.eye(4), -2, "n_out must be at least 1"),
    (np.ones((3, 4)), 4, "square matrix"),
    (np.ones(4), 4, "square matrix"),
])
def test_exact_heat_refuses_a_window_it_cannot_fill(a, n_out, match):
    with pytest.raises(ValueError, match=match):
        exact_heat(a, 1.0, n_out)


# Properties of the flow's semigroup e^{tL}, L its generator, which
# exact_heat computes on a window.
TIMES = st.floats(0.0, 4.0)
GENERATOR_CASES = dict(n=st.integers(4, 24), seed=st.integers(0, 2**32 - 1), t=TIMES)


@settings(max_examples=40, deadline=None)
@given(**GENERATOR_CASES, s=TIMES)
def test_generator_semigroup_law(n, seed, s, t):
    # the intermediate window reaches past the tail, so the second step
    # finds every level that loss brings down into the final window
    a = _unit_hermitian(n, seed)
    mid = exact_heat(a, s, _tail_window(a, s, 1e-13))
    twice = exact_heat(mid, t, n)
    assert float(np.abs(twice - exact_heat(a, s + t, n)).max()) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(**GENERATOR_CASES)
def test_generator_preserves_trace_identity_and_hermiticity(n, seed, t):
    # the trace up to the tail the window leaves out; phi_t(I) = I, so the
    # truncated identity evolves to at most I
    a = _unit_hermitian(n, seed)
    out = exact_heat(a, t, _tail_window(a, t, 1e-13))
    assert abs(np.trace(out) - np.trace(a)) <= 1e-11
    assert float(np.abs(out - out.conj().T).max()) <= 1e-15
    eye = exact_heat(np.eye(n), t, n)
    assert float(np.linalg.eigvalsh(eye).max()) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(**GENERATOR_CASES)
def test_generator_contracts_the_trace_norm(n, seed, t):
    a = _unit_hermitian(n, seed)
    assert trace_norm(exact_heat(a, t, n)) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(**GENERATOR_CASES, theta=st.floats(-math.pi, math.pi))
def test_generator_is_rotation_covariant(n, seed, t, theta):
    # R = diag(e^{i theta n}) conjugation multiplies entry (m, k) by
    # e^{i theta (m - k)}
    a = _unit_hermitian(n, seed)
    phase = np.exp(1j * theta * np.subtract.outer(np.arange(n), np.arange(n)))
    gap = phase * exact_heat(a, t, n) - exact_heat(phase * a, t, n)
    assert float(np.abs(gap).max()) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 12), t=st.floats(0.01, 3.0))
def test_generator_is_completely_positive(n, t):
    # the Choi matrix sum_ij |i><j| (x) phi_t(|i><j|) is positive semidefinite
    choi = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            choi[i, :, j, :] = exact_heat(unit, t, n)
    assert float(np.linalg.eigvalsh(choi.reshape(n * n, n * n)).min()) >= -1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.floats(0.0, 0.45),
       theta=st.floats(-math.pi, math.pi), t=st.floats(0.0, 0.5))
def test_generator_is_weyl_covariant_on_leading_blocks(seed, r, theta, t):
    # the flow commutes with conjugation by W_z; truncation spoils this only
    # near the edge, so a low-level operand is compared on the 8-block
    n = 40
    a = np.zeros((n, n), dtype=complex)
    a[:4, :4] = _unit_hermitian(4, seed)
    w = weyl_operator((r * math.cos(theta), r * math.sin(theta)), n).matrix
    before = w @ exact_heat(a, t, n) @ w.conj().T
    after = exact_heat(w @ a @ w.conj().T, t, n)
    assert float(np.abs(before - after)[:8, :8].max()) <= 1e-12
