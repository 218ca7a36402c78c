"""Operator transform tests: sampling, inversion gates, ring decay."""

import math

import numpy as np
import pytest

from ccrflow import (
    CharFunction,
    FockOperator,
    GridSpec,
    char_function,
    char_values,
    coherent_state,
    displacement_batch,
    inverse_transform,
    number_state,
    omega,
    reliable_levels,
    riemann_lebesgue_profile,
    trace_norm,
    trust_radius,
)
from ccrflow import channels, weyl_transform
from ccrflow.weyl_transform import INVERSION_CONSTANT

RNG = np.random.default_rng(20260814)


def naive_char(a: FockOperator, pts: np.ndarray) -> np.ndarray:
    # one displacement at a time, plain np.trace: independent contraction path
    out = np.empty(len(pts), dtype=complex)
    for i, z in enumerate(pts):
        w = displacement_batch(np.asarray(z, dtype=float)[None, :], a.dim)[0]
        out[i] = np.trace(a.matrix @ w)
    return out


def random_low_block(n: int, k: int) -> FockOperator:
    block = RNG.normal(size=(k, k)) + 1j * RNG.normal(size=(k, k))
    full = np.zeros((n, n), dtype=complex)
    full[:k, :k] = block
    return FockOperator(full)


def test_char_values_matches_naive_trace():
    a = random_low_block(25, 6)
    pts = RNG.normal(size=(40, 2))
    np.testing.assert_allclose(
        char_values(a, pts), naive_char(a, pts), atol=1e-12
    )


def test_char_at_origin_is_trace():
    a = random_low_block(20, 5)
    got = char_values(a, np.array([[0.0, 0.0]]))[0]
    assert abs(got - np.trace(a.matrix)) < 1e-13


def test_vacuum_char_is_gaussian():
    n = 35
    rho = number_state(0, n)
    pts = RNG.normal(size=(50, 2))
    got = char_values(FockOperator(rho.matrix), pts)
    want = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2) / 4.0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_conjugation_twists_transform_by_plane_wave():
    # tr(W_a A W_a^* W_z) = e^{-2i omega(a, z)} tr(A W_z)
    n = 30
    a_op = random_low_block(n, 6)
    avec = np.array([0.3, -0.2])
    wa = displacement_batch(avec[None, :], n)[0]
    conj = FockOperator(wa @ a_op.matrix @ wa.conj().T)
    pts = RNG.normal(size=(30, 2))
    got = char_values(conj, pts)
    want = np.exp(-2j * omega(avec, pts)) * char_values(a_op, pts)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_char_values_rejects_points_outside_trust_window():
    a = random_low_block(12, 3)
    far = np.array([[trust_radius(12) + 0.5, 0.0]])
    with pytest.raises(ValueError, match="trustworthy"):
        char_values(a, far)


def test_char_function_rejects_too_wide_grid():
    a = random_low_block(12, 3)
    with pytest.raises(ValueError, match="half-width"):
        char_function(a, GridSpec(half_width=8.0, points_per_axis=32))


def test_char_function_validation():
    grid = GridSpec(half_width=2.0, points_per_axis=8)
    with pytest.raises(ValueError, match="shape"):
        CharFunction(grid, np.zeros((4, 4), dtype=complex), 10)
    with pytest.raises(ValueError, match="finite"):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = np.nan
        CharFunction(grid, bad, 10)
    with pytest.raises(ValueError, match="dimension"):
        CharFunction(grid, np.zeros((8, 8), dtype=complex), 0)


def test_reliable_levels_formula():
    # inscribed radius 6, trust radius sqrt(40) ~ 6.32 -> 36/8 - 1 = 3
    assert reliable_levels(GridSpec(6.0, 64), 20) == 3
    # window capped by the truncation: r = sqrt(100) = 10 -> 100/8 - 1 = 11
    assert reliable_levels(GridSpec(12.0, 128), 50) == 11
    # floor at one level
    assert reliable_levels(GridSpec(1.0, 8), 4) == 1


def test_inversion_constant_value():
    assert abs(INVERSION_CONSTANT * 2.0 * math.pi - 1.0) < 1e-15


def test_round_trip_probe_refuses_a_wrong_inversion_constant(monkeypatch):
    # the per-grid vacuum probe is the one check of the constant
    n = 20
    grid = GridSpec(half_width=6.0, points_per_axis=64)
    f = char_function(FockOperator(number_state(1, n).matrix), grid)
    weyl_transform._probe_round_trip_error.cache_clear()
    monkeypatch.setattr(weyl_transform, "INVERSION_CONSTANT",
                        INVERSION_CONSTANT * (1.0 + 1e-2))
    try:
        with pytest.raises(ValueError, match="round-trip probe"):
            inverse_transform(f, 1)
    finally:
        weyl_transform._probe_round_trip_error.cache_clear()


def test_direct_probe_refusal_names_the_grid_remedy():
    # heatflow's spectral grid at N = 6 fails its probe (5.50e-3); heatflow
    # refuses it at config, naming another truncation, while a direct caller
    # chose the grid and is told to refine or widen it
    grid = channels._spectral_grid(6)
    f = char_function(FockOperator(number_state(0, 6).matrix), grid)
    with pytest.raises(ValueError, match="probe .*; refine the spacing or extend the window"):
        inverse_transform(f, 1)


def test_inverse_transform_round_trip_states():
    n = 20
    grid = GridSpec(half_width=6.0, points_per_axis=64)
    k = reliable_levels(grid, n)
    for rho in (number_state(1, n), coherent_state(0.6 + 0.3j, n)):
        f = char_function(FockOperator(rho.matrix), grid)
        back = inverse_transform(f, k)
        assert trace_norm(back.matrix - rho.matrix[:k, :k]) < 1e-3


def test_inverse_transform_gates():
    n = 20
    grid = GridSpec(half_width=6.0, points_per_axis=64)
    f = char_function(FockOperator(number_state(0, n).matrix), grid)
    with pytest.raises(ValueError, match="at least one"):
        inverse_transform(f, 0)
    with pytest.raises(ValueError, match="source dimension"):
        inverse_transform(f, n + 1)
    with pytest.raises(ValueError, match="supports"):
        inverse_transform(f, reliable_levels(grid, n) + 1)
    # same window, too few nodes: the Weyl kernel aliases
    coarse = GridSpec(half_width=6.0, points_per_axis=16)
    g = char_function(FockOperator(number_state(0, n).matrix), coarse)
    with pytest.raises(ValueError, match="alias"):
        inverse_transform(g, 1)


def test_riemann_lebesgue_profile_vacuum():
    n = 40
    rho = number_state(0, n)
    radii = [0.5, 1.0, 2.0, 3.0, 4.0]
    prof = riemann_lebesgue_profile(FockOperator(rho.matrix), radii)
    want = [math.exp(-r * r / 4.0) for r in radii]
    np.testing.assert_allclose(prof, want, atol=1e-10)
    assert all(b < a for a, b in zip(prof, prof[1:]))


def test_riemann_lebesgue_profile_empty():
    assert riemann_lebesgue_profile(random_low_block(10, 2), []) == []


def test_riemann_lebesgue_profile_rejects_a_ring_beyond_the_window():
    a = random_low_block(10, 2)
    with pytest.raises(ValueError, match="trustworthy window"):
        riemann_lebesgue_profile(a, [1.0, 1.01 * trust_radius(10), 2.0])
