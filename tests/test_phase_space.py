"""Phase-space measure algebra: grids, transforms, convolution, surgery.

Oracles here are deliberately dumb: O(M^2) direct sums for the transform,
atom bookkeeping for convolution, closed-form Gaussian integrals.
"""

import math

import numpy as np
import pytest

from ccrflow.phase_space import (
    GridMeasure,
    GridSpec,
    band_limited_approximant,
    cauchy_measure,
    conjugate_lattice,
    convolve,
    default_gaussian_grid,
    default_lemma_grid,
    gaussian_measure,
    inverse_symplectic_lattice,
    measure_from_atoms,
    omega,
    plateau_profile,
    sqrt_density_ft,
    symplectic_ft_at,
)

RNG = np.random.default_rng(1123)


def naive_ft(mu, points):
    """Direct double sum, the oracle for every transform test."""
    xs, ys = mu.grid.mesh()
    out = []
    for zx, zy in points:
        phase = np.exp(1j * 0.5 * (xs * zy - zx * ys))
        out.append((mu.weights * phase).sum())
    return np.array(out)


def test_omega_antisymmetry_and_value():
    z1, z2 = (0.3, -1.2), (0.7, 0.4)
    assert omega(z1, z2) == pytest.approx(-omega(z2, z1))
    # omega(z1, z2) = (x2*y1 - x1*y2)/2
    assert omega(z1, z2) == pytest.approx(0.5 * (0.7 * (-1.2) - 0.3 * 0.4))
    assert omega(z1, z1) == 0.0


def test_grid_spec_geometry():
    grid = GridSpec(half_width=2.0, points_per_axis=8)
    assert grid.h == pytest.approx(0.5)
    ax = grid.axis()
    assert ax[0] == pytest.approx(-2.0)
    assert ax[-1] == pytest.approx(1.5)
    assert grid.cell_area() == pytest.approx(0.25)
    assert grid.index_of((0.5, -1.0)) == (5, 2)
    with pytest.raises(ValueError):
        grid.index_of((0.3, 0.0))
    with pytest.raises(ValueError):
        GridSpec(half_width=1.0, points_per_axis=7)


def test_measure_algebra_and_total_variation():
    grid = GridSpec(half_width=1.0, points_per_axis=4)
    w = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    mu = GridMeasure(grid, w.astype(complex))
    assert mu.total_variation() == pytest.approx(np.abs(w).sum())
    assert complex(mu.total_mass()) == pytest.approx(complex(w.sum()))
    two = mu + mu
    np.testing.assert_allclose(two.weights, 2 * w)
    zero = mu - mu
    assert zero.total_variation() == 0.0
    np.testing.assert_allclose(mu.scaled(-2.0).weights, -2 * w)


def test_symplectic_ft_matches_naive_sum():
    grid = GridSpec(half_width=3.0, points_per_axis=12)
    w = RNG.standard_normal((12, 12)) + 1j * RNG.standard_normal((12, 12))
    mu = GridMeasure(grid, w.astype(complex))
    dual = GridSpec(half_width=1.5, points_per_axis=8)
    dx, dy = dual.mesh()
    pts = np.column_stack([dx.ravel(), dy.ravel()])
    at = symplectic_ft_at(mu, pts)
    np.testing.assert_allclose(at, naive_ft(mu, pts), atol=1e-12)


def test_inverse_lattice_round_trip():
    grid = GridSpec(half_width=4.0, points_per_axis=16)
    w = RNG.standard_normal((16, 16)) + 1j * RNG.standard_normal((16, 16))
    mu = GridMeasure(grid, w.astype(complex))
    lattice = conjugate_lattice(grid)
    lx, ly = lattice.mesh()
    pts = np.column_stack([lx.ravel(), ly.ravel()])
    values = naive_ft(mu, pts).reshape(lattice.points_per_axis, -1)
    density = inverse_symplectic_lattice(values, grid)
    np.testing.assert_allclose(density * grid.cell_area(), w, atol=1e-10)


def test_conjugate_lattice_spacing():
    grid = GridSpec(half_width=4.0, points_per_axis=16)
    lattice = conjugate_lattice(grid)
    assert lattice.h == pytest.approx(4 * math.pi / (16 * grid.h))


def test_gaussian_measure_transform_identity():
    # FT of the time-t density is exp(-t |zeta|^2)
    t = 0.25
    grid = default_gaussian_grid(t)
    mu = gaussian_measure(t, grid)
    assert complex(mu.total_mass()) == pytest.approx(1.0)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.5, -1.5], [3.0, 1.0]])
    got = symplectic_ft_at(mu, pts)
    want = np.exp(-t * (pts[:, 0] ** 2 + pts[:, 1] ** 2))
    np.testing.assert_allclose(got, want, atol=5e-9)


def test_gaussian_capture_rejects_narrow_grid():
    with pytest.raises(ValueError):
        gaussian_measure(1.0, GridSpec(half_width=4.0, points_per_axis=32))


def test_convolution_of_atoms_is_atom_sum():
    grid = GridSpec(half_width=2.0, points_per_axis=8)
    mu = measure_from_atoms(grid, [((0.5, 0.0), 1.0)])
    nu = measure_from_atoms(grid, [((-1.0, 0.5), 2.0)])
    conv = convolve(mu, nu)
    idx = conv.grid.index_of((-0.5, 0.5))
    assert conv.weights[idx] == pytest.approx(2.0)
    assert conv.total_variation() == pytest.approx(2.0)


def test_convolution_semigroup_total_variation():
    g1 = gaussian_measure(1.0, default_gaussian_grid(1.0))
    conv = convolve(g1, g1)
    g2 = gaussian_measure(2.0, conv.grid)
    assert (conv - g2).total_variation() < 1e-6


def test_convolve_incompatible_spacing_rejected():
    a = GridMeasure(GridSpec(2.0, 8), np.ones((8, 8), dtype=complex))
    b = GridMeasure(GridSpec(2.0, 16), np.ones((16, 16), dtype=complex))
    with pytest.raises(ValueError):
        convolve(a, b)


def test_cauchy_measure_transform():
    # product-Cauchy with per-axis scale 2t; FT exp(-t(|a| + |b|)).
    # 640/4096 keeps the heavy tails: deficit budget 1e-2, observed ~8.8e-4
    # transform error at this resolution (frozen from the sizing run).
    t = 0.25
    grid = GridSpec(half_width=640.0, points_per_axis=4096)
    mu = cauchy_measure(t, grid)
    pts = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    got = symplectic_ft_at(mu, pts)
    want = np.exp(-t * (np.abs(pts[:, 0]) + np.abs(pts[:, 1])))
    np.testing.assert_allclose(got, want, atol=2e-3)


def test_cauchy_capture_budget_enforced():
    with pytest.raises(ValueError):
        cauchy_measure(0.25, GridSpec(half_width=8.0, points_per_axis=64),
                       max_deficit=1e-6)


def test_plateau_profile_shape():
    delta = 8.0
    prof = plateau_profile(delta)
    disk, moll = 3 * delta / 8, delta / 16
    r = np.array([0.0, disk - moll, disk - moll / 2, disk + moll / 2,
                  disk + moll, 2 * delta])
    vals = prof(r)
    assert vals[0] == 1.0 and vals[1] == 1.0
    assert vals[-1] == 0.0 and vals[-2] == 0.0
    assert 0.0 < vals[2] < 1.0 and 0.0 < vals[3] < 1.0
    assert np.all(np.diff(vals) <= 1e-12)  # radially non-increasing


def test_band_limited_approximant_requires_fine_lattice():
    # h = 0.5 puts the conjugate lattice spacing at pi, far above delta/16
    with pytest.raises(ValueError, match="resolve delta/16"):
        band_limited_approximant(1.0, 1.0, GridSpec(2.0, 8))


def test_sqrt_density_transform_closed_form():
    # oracle: direct quadrature of the square root of the density
    t = 0.5
    half = 18.2 * math.sqrt(2 * t) * 1.05
    m = int(math.ceil(2 * half / 0.08 / 2) * 2)
    grid = GridSpec(half_width=half, points_per_axis=m)
    x, y = grid.mesh()
    vals = np.exp(-(x * x + y * y) / (32 * t)) / math.sqrt(16 * math.pi * t)
    mu = GridMeasure(grid, (vals * grid.cell_area()).astype(complex))
    r = np.array([0.0, 0.5, 1.0, 1.7, 2.0])
    pts = np.column_stack([r, np.zeros_like(r)])
    numeric = symplectic_ft_at(mu, pts)
    closed = sqrt_density_ft(t, r)
    np.testing.assert_allclose(numeric, closed, rtol=1e-7)
    assert closed[0] == pytest.approx(8 * math.sqrt(math.pi * t))


def _small_lemma_grid(delta):
    # miniature analogue of default_lemma_grid for cheap tests; the
    # conjugate lattice must reach past 7*delta/8 with spacing < delta/16,
    # and the grid edge must be far enough out that off-lattice transform
    # leakage (edge mass of the mollified kernel) stays below 1e-6
    half = 128.0 * math.pi / delta
    m = int(math.ceil(half / 0.25 / 4) * 4)
    return GridSpec(half_width=half, points_per_axis=m)


def test_band_limited_approximant_is_probability():
    delta = 8.0
    grid = _small_lemma_grid(delta)
    nu = band_limited_approximant(4.0, delta, grid)
    assert complex(nu.total_mass()) == pytest.approx(1.0)
    assert float(np.abs(nu.weights.imag).max()) == 0.0
    assert float(nu.weights.real.min()) >= 0.0


def test_band_limited_approximant_transform_dies_off_band():
    delta = 8.0
    grid = _small_lemma_grid(delta)
    nu = band_limited_approximant(4.0, delta, grid)
    lattice = conjugate_lattice(grid)
    ax = lattice.axis()
    # lattice points just beyond the band radius 7*delta/8
    ks = ax[np.abs(ax) >= 7 * delta / 8]
    pts = np.array([[k, 0.0] for k in ks[:40]] + [[0.0, k] for k in ks[:40]])
    vals = symplectic_ft_at(nu, pts)
    assert float(np.abs(vals).max()) <= 1e-6
    # and off-lattice, a ring just outside delta
    th = np.linspace(0, 2 * math.pi, 32, endpoint=False)
    ring = 1.01 * delta * np.column_stack([np.cos(th), np.sin(th)])
    assert float(np.abs(symplectic_ft_at(nu, ring)).max()) <= 1e-6


def test_band_limited_approximant_tracks_gaussian():
    # t*delta^2 sweeps 3.2 -> 16, where the gap moves from O(1) to ~0.01
    delta = 8.0
    grid = _small_lemma_grid(delta)
    tvs = []
    for t in (0.05, 0.1, 0.25):
        nu = band_limited_approximant(t, delta, grid)
        mu = gaussian_measure(t, grid)
        tvs.append((mu - nu).total_variation())
    assert tvs[0] > tvs[1] > tvs[2]


def test_default_lemma_grid_resolves_delta():
    grid = default_lemma_grid(1.0)
    lattice = conjugate_lattice(grid)
    assert lattice.h < 1.0 / 16
