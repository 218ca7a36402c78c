"""Phase-space measure algebra: grids, transforms, convolution, surgery.

Oracles here are deliberately dumb: O(M^2) direct sums for the transform,
atom bookkeeping for convolution, closed-form Gaussian integrals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrflow import channels, cli, phase_space
from ccrflow.cli import _offband_sample
from ccrflow.phase_space import (
    GridMeasure,
    GridSpec,
    band_limited_approximant,
    cauchy_measure,
    conjugate_lattice,
    convolve,
    default_gaussian_grid,
    default_lemma_grid,
    gaussian_density,
    gaussian_measure,
    measure_from_atoms,
    omega,
    plateau_profile,
    sqrt_density_ft,
    symplectic_ft_at,
)
from ccrflow.purity import constraint_grid

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


def assert_exactly_antisymmetric(grid):
    ax = grid.axis()
    assert ax[grid.points_per_axis // 2] == 0.0
    np.testing.assert_array_equal(ax[1:], -ax[:0:-1])


@settings(max_examples=60, deadline=None)
@given(half_width=st.floats(1e-3, 1e4), half_m=st.integers(1, 2000))
def test_grid_nodes_are_exact_multiples_of_h(half_width, half_m):
    grid = GridSpec(half_width, 2 * half_m)
    assert_exactly_antisymmetric(grid)
    np.testing.assert_array_equal(grid.axis(), grid.h * np.arange(-half_m, half_m))
    assert grid.index_of((0.0, grid.axis()[-1])) == (half_m, 2 * half_m - 1)


@pytest.mark.parametrize("n", [24, 30, 32, 40, 90, 128])
@pytest.mark.parametrize("t", [0.0125, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0])
def test_the_gaussian_grids_at_the_substep_times_are_exactly_antisymmetric(n, t):
    ch, _ = channels._substep_channel(t, n)
    assert_exactly_antisymmetric(ch.mu.grid)


def test_the_grids_the_cli_builds_are_exactly_antisymmetric():
    for n in range(2, 257):
        assert_exactly_antisymmetric(channels._spectral_grid(n))
    for delta in (0.3, 1.0, 1.005, 8.0, 20.0):
        grid = default_lemma_grid(delta)
        assert_exactly_antisymmetric(grid)
        assert_exactly_antisymmetric(conjugate_lattice(grid))
        assert_exactly_antisymmetric(constraint_grid(delta))
    assert_exactly_antisymmetric(default_gaussian_grid(1.0))


def test_measure_algebra_and_total_variation():
    grid = GridSpec(half_width=1.0, points_per_axis=4)
    w = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    mu = GridMeasure(grid, w.astype(complex))
    assert mu.total_variation() == pytest.approx(np.abs(w).sum())
    np.testing.assert_array_equal(mu.weights, w)
    two = GridMeasure(grid, 2 * w)
    zero = mu - mu
    assert zero.total_variation() == 0.0
    np.testing.assert_allclose((zero - two).weights, -2 * w)


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
    # the direct sums invert each other on the conjugate lattice's nodes,
    # which makes naive_inverse an oracle for the lattice steps
    grid = GridSpec(half_width=4.0, points_per_axis=16)
    w = RNG.standard_normal((16, 16)) + 1j * RNG.standard_normal((16, 16))
    mu = GridMeasure(grid, w.astype(complex))
    lattice = conjugate_lattice(grid)
    lx, ly = lattice.mesh()
    pts = np.column_stack([lx.ravel(), ly.ravel()])
    values = naive_ft(mu, pts).reshape(lattice.points_per_axis, -1)
    density = naive_inverse(values, grid)
    np.testing.assert_allclose(density * grid.cell_area(), w, atol=1e-10)


def test_lattice_transform_matches_point_transform():
    # the band-limit check's two readings of one transform: the lattice
    # moduli, against the off-lattice engine at randomly chosen nodes
    grid = GridSpec(half_width=6.0, points_per_axis=20)
    w = RNG.standard_normal((20, 20))
    lx, ly = conjugate_lattice(grid).mesh()
    ix, iy = RNG.integers(0, 20, size=(2, 50))
    at = symplectic_ft_at(GridMeasure(grid, w), np.column_stack([lx[ix, iy], ly[ix, iy]]))
    lattice = np.abs(mirrored(phase_space._dft_half(w))).T
    np.testing.assert_allclose(lattice[ix, iy], np.abs(at), atol=1e-11)


def test_conjugate_lattice_spacing():
    grid = GridSpec(half_width=4.0, points_per_axis=16)
    lattice = conjugate_lattice(grid)
    assert lattice.h == pytest.approx(4 * math.pi / (16 * grid.h))


def test_gaussian_measure_transform_identity():
    # FT of the time-t density is exp(-t |zeta|^2)
    t = 0.25
    grid = default_gaussian_grid(t)
    mu = gaussian_measure(t, grid)
    assert complex(mu.weights.sum()) == pytest.approx(1.0)
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


def test_convolve_matches_the_cell_sum():
    # unequal sizes on one spacing, weights without symmetry: a complex
    # pair, and a real one, which convolves to float64 weights
    rng = np.random.default_rng(8)
    small, large = GridSpec(2.0, 8), GridSpec(3.0, 12)
    for imag in (1j, 0.0):
        a = rng.normal(size=(8, 8)) + imag * rng.normal(size=(8, 8))
        b = rng.normal(size=(12, 12)) + imag * rng.normal(size=(12, 12))
        conv = convolve(GridMeasure(small, a), GridMeasure(large, b))
        assert conv.weights.dtype == np.result_type(a, b)
        want = np.zeros((20, 20), dtype=complex)
        for i in range(8):
            for j in range(8):
                want[i:i + 12, j:j + 12] += a[i, j] * b
        assert conv.grid == GridSpec(5.0, 20)
        err = float(np.abs(conv.weights - want).max())
        assert err <= 1e-12 * float(np.abs(want).max())


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


@pytest.mark.parametrize("radius", [0.3, 7.0 / 16.0, 10.0, 50.0])
def test_lattice_box_holds_every_node_within_its_radius(radius):
    # the radius 50 box is wider than the lattice (half-width 31.4): clipped
    grid = GridSpec(4.0, 40)
    box, r = phase_space._lattice_box(grid, radius)
    full = np.hypot(*conjugate_lattice(grid).mesh())
    np.testing.assert_array_equal(r, full[box, box])
    assert (r <= radius).sum() == (full <= radius).sum()


def test_band_limited_approximant_is_probability():
    delta = 8.0
    grid = _small_lemma_grid(delta)
    nu = band_limited_approximant(4.0, delta, grid)
    assert complex(nu.weights.sum()) == pytest.approx(1.0)
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


def test_lemma_grid_keeps_offband_samples_off_the_band_images():
    # a grid measure's transform repeats every 4 pi / h along each axis; the
    # off-band samples reach 3 delta and the band 7 delta / 8
    for delta in np.linspace(0.278, 21.13, 300):
        assert 3.0 * delta + 7.0 * delta / 8.0 < 4.0 * math.pi / default_lemma_grid(delta).h


@pytest.mark.parametrize("delta", [0.3, 0.5, 1.0, 2.0, 5.0, 5.8])
def test_lemma_grid_keeps_its_half_spacing_up_to_delta_5_8(delta):
    half_width = max(200.0, 64.0 * math.pi / delta)
    assert default_lemma_grid(delta) == GridSpec(
        half_width=half_width, points_per_axis=int(math.ceil(half_width / 0.25 / 4.0) * 4))


# ---------------------------------------------------------------------------
# The real engine: real tables go through one real transform, complex ones
# through it twice
# ---------------------------------------------------------------------------

def mirrored(half):
    """The (M, M) table from the half rows a0 <= M/2, mirrored by src's step."""
    m = half.shape[1]
    table = np.empty((m, m), dtype=half.dtype)
    table[: m // 2 + 1] = half
    return phase_space._mirror_half(table)


def naive_inverse(values, grid):
    """Direct double sum of the inverse lattice transform onto ``grid``."""
    lattice = conjugate_lattice(grid)
    lx, ly = lattice.mesh()
    xs, ys = grid.mesh()
    out = np.empty(xs.shape, dtype=complex)
    for idx in np.ndindex(xs.shape):
        phase = np.exp(-1j * 0.5 * (xs[idx] * ly - lx * ys[idx]))
        out[idx] = (values * phase).sum()
    return out * lattice.h ** 2 / (16.0 * math.pi ** 2)


@pytest.mark.parametrize("m", [12, 16, 20])
def test_real_weights_match_the_naive_sum(m):
    rng = np.random.default_rng(m)
    grid = GridSpec(half_width=0.25 * m, points_per_axis=m)
    mu = GridMeasure(grid, rng.standard_normal((m, m)))
    assert mu.weights.dtype == np.float64
    pts = rng.uniform(-2.0, 2.0, size=(40, 2))
    np.testing.assert_allclose(symplectic_ft_at(mu, pts), naive_ft(mu, pts),
                               atol=1e-12)
    lx, ly = conjugate_lattice(grid).mesh()
    full = naive_ft(mu, np.column_stack([lx.ravel(), ly.ravel()])).reshape(m, m)
    # row by, column bx of the half rows: the conjugate transform at node (bx, by)
    np.testing.assert_allclose(phase_space._dft_half(mu.weights),
                               full.T.conj()[: m // 2 + 1], atol=1e-11)


@pytest.mark.parametrize("m", [12, 16, 20])
def test_real_dual_values_round_trip_through_the_inverse(m):
    # real values on the conjugate lattice -> the inverse's half rows,
    # mirrored and scaled -> cell weights, whose naive transform gives the
    # values back
    rng = np.random.default_rng(100 + m)
    grid = GridSpec(half_width=0.25 * m, points_per_axis=m)
    values = rng.standard_normal((m, m))
    scale = conjugate_lattice(grid).h ** 2 / (16.0 * math.pi ** 2)
    density = mirrored(phase_space._block_half(values.T, slice(None), m)) * scale
    np.testing.assert_allclose(density, naive_inverse(values, grid), atol=1e-12)
    lx, ly = conjugate_lattice(grid).mesh()
    nodes = np.column_stack([lx.ravel(), ly.ravel()])
    back = naive_ft(GridMeasure(grid, density * grid.cell_area()), nodes)
    np.testing.assert_allclose(back.reshape(m, m), values, atol=1e-10)


def banded_tables(rng, m):
    """Real tables nonzero on one block each: off center, a single row, a
    single column, and row 0 and column 0 (the -L edge, which has no mirror)."""
    tables = []
    for rows, cols in [(slice(2, 5), slice(m // 2 + 1, m - 1)), (5, slice(None)),
                       (slice(None), m - 3), (0, slice(1, m // 2)), (slice(None), 0)]:
        w = np.zeros((m, m))
        w[rows, cols] = rng.standard_normal(w[rows, cols].shape)
        tables.append(w)
    return tables


@pytest.mark.parametrize("m", [12, 16, 20, 808])
def test_real_lattice_transforms_are_exactly_hermitian(m):
    # each half-row step on the tables src gives it: _dft_half on a dense
    # table, _block_half on banded tables and on the approximant's support
    # box (delta 1000/m is resolved: the lattice spacing is 8 pi / m)
    rng = np.random.default_rng(200 + m)
    grid = GridSpec(half_width=0.25 * m, points_per_axis=m)
    dense, tables, delta = rng.standard_normal((m, m)), banded_tables(rng, m), 1000.0 / m
    box = phase_space._approximant_band(grid, delta)[0]
    qhat = reference_qhat(1.0, delta, grid)[box, box]
    halves = ([phase_space._dft_half(dense)]
              + [phase_space._block_half(w, slice(None), m) for w in tables]
              + [phase_space._block_half(qhat.T, box, m)])
    mirror = -np.arange(m) % m
    for half in halves:
        table = mirrored(half)
        np.testing.assert_array_equal(table[mirror][:, mirror], table.conj())


@pytest.mark.parametrize("m", [12, 16, 20])
def test_block_inverse_matches_the_naive_sum_on_banded_tables(m):
    rng = np.random.default_rng(400 + m)
    grid = GridSpec(half_width=0.25 * m, points_per_axis=m)
    scale = conjugate_lattice(grid).h ** 2 / (16.0 * math.pi ** 2)
    for w in banded_tables(rng, m):
        full = mirrored(phase_space._block_half(w.T, slice(None), m)) * scale
        np.testing.assert_allclose(full, naive_inverse(w, grid), rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [12, 16, 20, 440, 808])
def test_unit_roots_are_within_an_epsilon_of_extended_precision(m):
    pi = np.longdouble("3.14159265358979323846264338327950288")
    angle = 2 * pi * np.arange(m, dtype=np.longdouble) / m
    roots = phase_space._unit_roots(m)
    eps = np.finfo(float).eps
    assert np.abs(roots.real - np.cos(angle)).max() <= eps
    assert np.abs(roots.imag - np.sin(angle)).max() <= eps


def test_mixed_weights_split_into_real_and_imaginary_parts():
    rng = np.random.default_rng(31)
    grid = GridSpec(half_width=4.0, points_per_axis=16)
    re, im = rng.standard_normal((2, 16, 16))
    pts = rng.uniform(-2.0, 2.0, size=(30, 2))

    def transform(w):
        return symplectic_ft_at(GridMeasure(grid, w), pts)

    whole = transform(re + 1j * im)
    parts = transform(re) + 1j * transform(im)
    np.testing.assert_allclose(whole, parts, rtol=0, atol=1e-14)


def test_grid_measure_keeps_real_data_real():
    grid = GridSpec(half_width=1.0, points_per_axis=4)
    real = GridMeasure(grid, np.ones((4, 4)))
    assert real.weights.dtype == np.float64
    assert GridMeasure(grid, np.ones((4, 4), dtype=int)).weights.dtype == np.float64
    assert GridMeasure(grid, np.ones((4, 4), dtype=np.float32)).weights.dtype == np.float64
    cplx = GridMeasure(grid, np.full((4, 4), 1j))
    assert cplx.weights.dtype == np.complex128
    assert (real - cplx).weights.dtype == np.complex128
    assert (cplx - real).weights.dtype == np.complex128
    assert (real - real).weights.dtype == np.float64


def test_positive_measure_families_have_real_weights():
    assert gaussian_measure(0.25, default_gaussian_grid(0.25)).weights.dtype == np.float64
    assert cauchy_measure(0.25, GridSpec(64.0, 256)).weights.dtype == np.float64
    nu = band_limited_approximant(1.0, 1.0, GridSpec(110.0, 440))
    assert nu.weights.dtype == np.float64


def reference_centered_dft(values, axis, sign):
    """The centered DFT pass of the complex construction, one axis at a time."""
    m = values.shape[axis]
    shape = [1] * values.ndim
    shape[axis] = m
    alt = ((-1.0) ** np.arange(m)).reshape(shape)
    if sign < 0:
        core = np.fft.fft(values * alt, axis=axis)
    else:
        core = np.fft.ifft(values * alt, axis=axis) * m
    return alt * core


def reference_qhat(t, delta, grid):
    """The approximant's q_hat, evaluated on the whole conjugate lattice."""
    r = np.hypot(*conjugate_lattice(grid).mesh())
    return plateau_profile(delta)(r.ravel()).reshape(r.shape) * sqrt_density_ft(t, r)


def reference_approximant(t, delta, grid):
    """band_limited_approximant by complex FFTs over the whole lattice."""
    qhat = reference_qhat(t, delta, grid)
    eta = conjugate_lattice(grid).h
    tmp = reference_centered_dft(qhat, axis=1, sign=-1)
    q = reference_centered_dft(tmp, axis=0, sign=+1).T * (eta * eta / (16.0 * math.pi**2))
    w = np.abs(q) ** 2 * grid.cell_area()
    return (w / w.sum()).astype(complex)


@pytest.mark.parametrize("t", [1.0, 4.0, 16.0])
def test_band_limited_approximant_matches_the_complex_construction(t):
    # the lattice spacing 4*pi/220 = 0.057 resolves delta/16 at delta = 1.
    # The block product and the complex FFTs differ by rounding: up to 6.1
    # float64 epsilons of the largest weight here, while each lies within
    # 4.1 of an extended-precision direct sum, so the tolerance is 8 epsilons
    grid = GridSpec(110.0, 440)
    got = band_limited_approximant(t, 1.0, grid).weights
    want = reference_approximant(t, 1.0, grid)
    gap = float(np.abs(got - want).max())
    assert gap <= 8 * np.finfo(float).eps * float(np.abs(want).max())


# ---------------------------------------------------------------------------
# The folded off-lattice transform, the approximant's support box and the
# separable Gaussian
# ---------------------------------------------------------------------------

def far_points(rng, count):
    """Dual points with |zeta| up to 8, the axes and the origin among them."""
    r = 8.0 * np.sqrt(rng.uniform(size=count))
    th = rng.uniform(0.0, 2.0 * math.pi, count)
    axes = [[8.0, 0.0], [0.0, -8.0], [-5.5, 0.0], [0.0, 0.0]]
    return np.vstack([np.column_stack([r * np.cos(th), r * np.sin(th)]), axes])


@pytest.mark.parametrize("m", [12, 16, 20, 22])
def test_folded_transform_matches_the_naive_sum(m):
    rng = np.random.default_rng(300 + m)
    grid = GridSpec(half_width=0.25 * m, points_per_axis=m)
    pts = far_points(rng, 40)
    dense = rng.standard_normal((m, m))
    # the edge node -L has no partner on the grid: tables that live only there
    edge_row, edge_col = np.zeros((2, m, m))
    edge_row[0] = rng.standard_normal(m)
    edge_col[:, 0] = rng.standard_normal(m)
    tables = (dense, dense + 1j * rng.standard_normal((m, m)), edge_row,
              edge_col, edge_row - 2j * edge_col)
    for w in tables:
        mu = GridMeasure(grid, w)
        np.testing.assert_allclose(symplectic_ft_at(mu, pts), naive_ft(mu, pts),
                                   rtol=0, atol=1e-12)


def extended_ft(mu, points):
    """Direct sum in extended precision over the nodes (k - M/2)*h."""
    m = mu.grid.points_per_axis
    x = (np.arange(m) - m // 2).astype(np.longdouble) * np.longdouble(mu.grid.h)
    w = mu.weights.astype(np.clongdouble)
    return np.array([np.exp(0.5j * np.longdouble(b) * x) @ w
                     @ np.exp(-0.5j * np.longdouble(a) * x) for a, b in points])


def test_folded_transform_on_the_lemma_grid_is_exact_to_roundoff():
    # the band-limit check's own grid (M = 808) and points, with a few inside
    # the band where the transform is near 1; phase arguments k*h on the
    # half axis keep the sum within 1e-15 of the exact one
    grid = default_lemma_grid(1.0)
    nu = band_limited_approximant(1.0, 1.0, grid)
    inside = [[0.0, 0.0], [0.3, -0.2], [-0.45, 0.1]]
    pts = np.vstack([_offband_sample(1.0, np.random.default_rng(5))[::23], inside])
    gap = np.abs(symplectic_ft_at(nu, pts) - extended_ft(nu, pts)).max()
    assert gap <= 1e-15


@pytest.mark.parametrize("m", [1, 2, 5])
def test_fold_is_the_zero_padded_sum_and_difference_bitwise(m):
    # up = v[M/2..M-1] then a zero, down = a zero then v[M/2-1..0]; signed
    # zeros among the values must come out as up + down and up - down do
    v = np.random.default_rng(m).choice([0.0, -0.0, 1.5, -2.0, 3e-300], size=(40, 3, 2 * m))
    zero = np.zeros_like(v[..., :1])
    up = np.concatenate([v[..., m:], zero], axis=-1)
    down = np.concatenate([zero, v[..., m - 1::-1]], axis=-1)
    for got, want in zip(phase_space._fold(v), (up + down, up - down)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_folded_transform_in_point_chunks_is_the_concatenation_of_single_chunks():
    # 170 points on the lemma grid (M = 808) take three chunks of at most 81
    grid = default_lemma_grid(1.0)
    nu = band_limited_approximant(1.0, 1.0, grid)
    step = phase_space._CHUNK_ENTRIES // grid.points_per_axis
    pts = far_points(np.random.default_rng(7), 166)
    assert step == 81 and len(pts) > 2 * step
    got = symplectic_ft_at(nu, pts)
    parts = [symplectic_ft_at(nu, pts[i:i + step]) for i in range(0, len(pts), step)]
    np.testing.assert_array_equal(got, np.concatenate(parts))
    assert np.abs(got[::8] - extended_ft(nu, pts[::8])).max() <= 1e-15


def full_table_offband_max(w, grid, delta):
    """The largest |transform| of w on the conjugate lattice off |zeta| < delta,
    from the mirrored (M, M) table: its moduli, transposed, the disk zeroed."""
    lattice = np.abs(mirrored(phase_space._dft_half(w))).T
    disk, radius = phase_space._lattice_box(grid, delta)
    lattice[disk, disk][radius < delta] = 0.0
    return float(lattice.max())


@pytest.mark.parametrize("delta", [0.3, 1.0, 1.005])
def test_lemma_row_reads_the_full_table_offband_max_from_half_rows_bitwise(monkeypatch, delta):
    grid = default_lemma_grid(delta)
    disk, radius = phase_space._lattice_box(grid, delta)
    inside = radius < delta
    # the box is centered on an exact node rule: a half-row value and its
    # mirror are in band together, so the plain disk mask serves both
    np.testing.assert_array_equal(inside, inside[::-1, ::-1])
    w = band_limited_approximant(1.0, delta, grid).weights
    monkeypatch.setattr(cli, "symplectic_ft_at", lambda nu, pts: np.zeros(len(pts)))
    monkeypatch.setattr(cli, "band_limited_approximant", lambda t, d, g: GridMeasure(g, w))
    want = full_table_offband_max(w, grid, delta)
    assert cli._lemma_row(1.0, delta, grid, np.zeros((1, 2)))["offband_sup"] == want


def test_plateau_profile_in_radius_chunks_is_the_one_shot_quadrature(monkeypatch):
    # 1,000 radii in the transition annulus take eight chunks of 128
    delta = 1.3
    r = np.linspace(0.0, delta / 2.0, 1200)
    annulus = np.abs(r - 3.0 * delta / 8.0) < delta / 16.0
    assert annulus.sum() > 2 * phase_space._CHUNK_ENTRIES // 512
    chunked = plateau_profile(delta)(r)
    monkeypatch.setattr(phase_space, "_CHUNK_ENTRIES", 512 * len(r))
    np.testing.assert_array_equal(chunked, plateau_profile(delta)(r))


@pytest.mark.parametrize("grid", [default_lemma_grid(1.0), GridSpec(110.0, 440),
                                  GridSpec(110.0, 8)])
def test_approximant_support_box_is_the_full_table_qhat_bitwise(grid):
    # the moduli of the support block's half rows against the full table,
    # |inverse(q_hat on the whole lattice)|^2 scaled and normalized, with the
    # approximant's scale eta^2 / (16 pi^2), eta = 4 pi / (M h).
    # GridSpec(110, 8): the lattice half-width 0.23 is inside the support
    # disk, so the box is the whole lattice
    m = grid.points_per_axis
    eta = 4.0 * math.pi / (m * grid.h)
    qhat = reference_qhat(4.0, 1.0, grid)
    want = np.abs(mirrored(phase_space._block_half(qhat.T, slice(None), m))
                  * (eta * eta / (16.0 * math.pi**2)))
    np.square(want, out=want)
    want *= grid.cell_area()
    want /= want.sum()
    got = band_limited_approximant(4.0, 1.0, grid).weights
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_all_zero_tables_transform_to_zero():
    zero = np.zeros((16, 16))
    np.testing.assert_array_equal(phase_space._dft_half(zero), np.zeros((9, 16)))


def full_table_dft_half(values):
    """_dft_half as one expression on full tables: the checkerboard-signed
    table, its rfft, the second pass in place, the output signs, the edges."""
    m = values.shape[0]
    alt = (-1.0) ** np.arange(m)
    half = np.fft.rfft(values * np.outer(alt, alt), axis=0)
    np.fft.ifft(half, axis=1, norm="forward", out=half)
    return phase_space._symmetrize_edges(half * np.outer(alt[: m // 2 + 1], alt))


@pytest.mark.parametrize("m", [4, 8, 12, 808])
def test_dft_half_in_blocks_is_the_full_table_form_bitwise(monkeypatch, m):
    # at M = 808 the blocks are 81 columns and 81 rows; blocks of three
    # leave a ragged last block at M = 4, 8 and 12.  Bits are compared as
    # integers, so the signs of zeros count too
    rng = np.random.default_rng(500 + m)
    tables = (rng.standard_normal((m, m)), np.zeros((m, m)))
    for chunk in [phase_space._CHUNK_ENTRIES] + ([3 * m] if m < 808 else []):
        monkeypatch.setattr(phase_space, "_CHUNK_ENTRIES", chunk)
        for values in tables:
            got, want = phase_space._dft_half(values), full_table_dft_half(values)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_separable_gaussian_matches_the_density_on_the_mesh(t):
    # the mesh form rounds exp(-(x^2 + y^2)/16t) with up to 4e-15 relative
    # error in the far corners, so the gap is measured on the largest weight
    grid = default_gaussian_grid(t)
    dense = gaussian_density(t, *grid.mesh())
    want = dense / dense.sum()
    got = gaussian_measure(t, grid).weights
    assert float(np.abs(got - want).max()) <= 1e-15 * float(want.max())
