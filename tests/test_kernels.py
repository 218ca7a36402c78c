"""The eigensystem kernels against their cell-by-cell definitions.

Quadrature and both transform directions are computed through the
eigensystem of Q without building a displacement matrix, summed over the
symmetry classes of the square lattice; Choi blocks sum the quadrature's
nodes through the same eigensystem, with no kernel.  The references here
do build the matrices, with the public displacement_batch, and sum the
definitions node by node.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrflow import (
    FockOperator,
    GridMeasure,
    GridSpec,
    HeatFlowParams,
    MeasureChannel,
    apply_quadrature,
    apply_spectral,
    cauchy_measure,
    char_function,
    char_values,
    choi_matrix,
    default_gaussian_grid,
    displacement_batch,
    gaussian_measure,
    heat_channel,
    point_mass_channel,
    reliable_levels,
    trust_radius,
    weyl_operator,
)
from ccrflow import channels, cli, fock, purity, weyl_transform

RNG = np.random.default_rng(271828)

ATOM_GRID = GridSpec(half_width=2.0, points_per_axis=8)
MEASURES = ("heat", "signed_atoms", "asymmetric_complex")


def random_matrix(n: int) -> np.ndarray:
    return RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))


def asymmetric_channel(n: int, seed: int) -> MeasureChannel:
    # every measure in the package is symmetric under z -> -z; this one is
    # not, so a sign slip in the offset arithmetic cannot hide
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    return MeasureChannel(GridMeasure(GridSpec(1.5, 6), weights), n)


def make_channel(kind: str, n: int) -> MeasureChannel:
    if kind == "heat":
        return heat_channel(0.1, n)
    if kind in ("signed_atoms", "even_atoms"):
        return point_mass_channel([(0.5, 1.0), (-0.5, -1.0)],
                                  [0.5, -0.5 if kind == "signed_atoms" else 0.5], ATOM_GRID, n)
    return asymmetric_channel(n, 5)


def window_batches(ch: MeasureChannel, size: int = 256):
    """(weights, Weyl unitaries) of the conjugation nodes inside the trust
    window, a few hundred nodes at a time."""
    xs, ys = ch.mu.grid.mesh()
    nodes = np.column_stack([xs.ravel(), ys.ravel()]) * channels.CONJUGATION_SCALE
    weights = ch.mu.weights.ravel()
    keep = np.hypot(nodes[:, 0], nodes[:, 1]) <= trust_radius(ch.truncation) + 1e-12
    nodes, weights = nodes[keep], weights[keep]
    for lo in range(0, len(nodes), size):
        yield weights[lo:lo + size], displacement_batch(nodes[lo:lo + size], ch.truncation)


def assert_close(got: np.ndarray, want: np.ndarray, rel: float = 1e-12) -> None:
    assert float(np.abs(got - want).max()) <= rel * float(np.abs(want).max())


# odd N mirror the heat channel's residue groups otherwise: group 3 on
# group 1, where even N mirror group 2 on group 0
@pytest.mark.parametrize("n", [8, 9, 24, 31, 40])
@pytest.mark.parametrize("kind", MEASURES)
def test_quadrature_matches_the_conjugation_sum(kind, n):
    ch = make_channel(kind, n)
    a = random_matrix(n)
    want = np.zeros((n, n), dtype=complex)
    for w, d in window_batches(ch):
        want += np.einsum("b,bij,jk,blk->il", w, d, a, d.conj(), optimize=True)
    assert_close(apply_quadrature(ch, FockOperator(a)).matrix, want)


@pytest.mark.parametrize("n", [8, 24, 40])
@pytest.mark.parametrize("kind", MEASURES)
def test_choi_matches_the_vectorized_sum(kind, n):
    ch = make_channel(kind, n)
    block = min(4, n // 4)
    want = np.zeros((block * block, block * block), dtype=complex)
    for w, d in window_batches(ch):
        v = d[:, :block, :block].transpose(0, 2, 1).reshape(len(d), -1)
        want += (w[:, None] * v).T @ v.conj()
    assert_close(choi_matrix(ch, block), want)


@pytest.mark.parametrize("n", [1, 2, 8, 24, 40])
def test_transform_matches_the_trace_against_each_displacement(n):
    a = random_matrix(n)
    pts = RNG.uniform(-1.0, 1.0, size=(200, 2)) * trust_radius(n) / math.sqrt(2.0)
    want = np.einsum("mn,bnm->b", a, displacement_batch(pts, n))
    assert_close(char_values(FockOperator(a), pts), want)


@pytest.mark.parametrize("n", [1, 2, 8, 24, 40])
def test_raw_inverse_matches_the_adjoint_displacement_sum(n):
    grid = GridSpec(half_width=0.9 * trust_radius(n), points_per_axis=24)
    values = random_matrix(24)
    xs, ys = grid.mesh()
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    keep = np.hypot(pts[:, 0], pts[:, 1]) <= grid.half_width + 1e-12
    want = np.einsum("b,bnm->mn", values.ravel()[keep],
                     displacement_batch(pts[keep], n).conj()) * grid.cell_area()
    # the inverse sums only the leading block it returns; levels = n is
    # the whole sum
    for levels in (1, reliable_levels(grid, n), n):
        got = weyl_transform._raw_inverse(values, grid, n, levels)
        assert got.shape == (levels, levels)
        assert_close(got, want[:levels, :levels])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_offset_scatter_undoes_the_gather(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n, 2)) @ np.array([1.0, 1j])
    entries = fock._offset_gather(a)
    # a read-only view spanning the N (3N - 2) entries of A padded with
    # N - 1 zero columns on each side
    assert entries.shape == (n, 2 * n - 1) and not entries.flags.writeable
    lo, hi = np.lib.array_utils.byte_bounds(entries)
    assert hi - lo == n * (3 * n - 2) * entries.itemsize
    want = np.zeros((n, 2 * n - 1), dtype=complex)
    for i in range(n):
        for d in range(-i, n - i):
            want[i, d + n - 1] = a[i, i + d]
    assert np.array_equal(entries, want)
    back = fock._offset_scatter(entries)
    assert back.dtype == complex and back.flags.writeable
    assert np.array_equal(back, a)
    assert not fock._position_eigensystem(n)[2].flags.writeable


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40))
def test_offset_layout_is_a_view_of_the_eigenvectors(n):
    # V[i + d, l] at [i, l, d + N - 1], zero where row i + d leaves V, read
    # through the one zero-padded table that holds V: (3N - 2) N reals, not
    # N N (2N - 1)
    lam, vec, got = fock._position_eigensystem(n)
    want = np.zeros((n, n, 2 * n - 1))
    for i in range(n):
        for d in range(1 - n, n):
            if 0 <= i + d < n:
                want[i, :, d + n - 1] = vec[i + d]
    assert got.shape == want.shape and np.array_equal(got, want)
    assert not (lam.flags.writeable or vec.flags.writeable or got.flags.writeable)
    assert np.shares_memory(vec, got) and np.array_equal(got[:, :, n - 1], vec)
    assert vec.flags.c_contiguous
    assert fock._position_eigensystem(n)[2] is got  # built once per truncation
    low, high = np.lib.array_utils.byte_bounds(got)
    assert high - low <= (3 * n - 2) * n * got.itemsize


def test_eigensystem_entry_holds_one_padded_table():
    # what a transform at N = 200 leaves cached: lam and the (3N - 2, N)
    # table that holds V and its offset layout, 960 kB; a separate layout
    # cache beside its own copy of V left 1.28 MB
    n = 200
    a = FockOperator(np.eye(n, dtype=complex))
    char_values(FockOperator(np.eye(5, dtype=complex)), np.zeros((1, 2)))
    fock._position_eigensystem.cache_clear()
    tracemalloc.start()
    try:
        char_values(a, np.zeros((1, 2)))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= (3 * n - 2) * n * 8 + n * 8 + 4096


def test_zero_measure_gives_exactly_zero():
    mu = gaussian_measure(0.25, default_gaussian_grid(0.25))
    ch = MeasureChannel(mu - mu, 24)
    out = apply_quadrature(ch, FockOperator(random_matrix(24)), max_clipped=math.inf)
    assert not np.any(out.matrix)


def test_kernel_paths_build_no_displacement_matrix(monkeypatch):
    n = 24
    ch = heat_channel(0.25, n)
    a = FockOperator(random_matrix(n))
    built = []
    original = fock.displacement_batch

    def counting(zs, n_levels, method="exponential"):
        out = original(zs, n_levels, method)
        built.append(len(out))
        return out

    for module in (fock, channels, weyl_transform, purity, cli):
        if hasattr(module, "displacement_batch"):
            monkeypatch.setattr(module, "displacement_batch", counting)
    apply_quadrature(ch, a)
    apply_spectral(HeatFlowParams(0.25), a)
    choi_matrix(ch, 4)
    char_function(a, GridSpec(half_width=4.0, points_per_axis=32))
    assert built == []
    weyl_operator((0.1, 0.2), n)  # the counter does see a Weyl operator
    assert built == [1]


@pytest.mark.parametrize("kind", ["heat", "witness"])
def test_choi_builds_and_reads_no_kernel(kind):
    # a Choi block sums its nodes directly: no build, no cache hit
    n = 24
    ch = (heat_channel(0.5, n) if kind == "heat" else
          point_mass_channel([(0.5, 1.0), (-0.5, -1.0)], [0.5, -0.5], ATOM_GRID, n))
    before = channels._content_kernel.cache_info()
    choi_matrix(ch, 4)
    assert channels._content_kernel.cache_info() == before


def test_equal_channels_share_one_kernel_build():
    channels._content_kernel.cache_clear()
    n = 12
    a = FockOperator(random_matrix(n))
    first = apply_quadrature(heat_channel(0.2, n), a)
    second = apply_quadrature(heat_channel(0.2, n), a)
    assert channels._content_kernel.cache_info()[:2] == (1, 1)  # hits, misses
    assert np.array_equal(first.matrix, second.matrix)
    apply_quadrature(heat_channel(0.3, n), a)
    assert channels._content_kernel.cache_info()[:2] == (1, 2)


def test_path_agreement_builds_each_channel_once(monkeypatch):
    # a cache that keeps only the newest kernel: the time-first loop still
    # builds one channel per time (both times at N = 24 take one step,
    # max_single_step(24) = 0.568), and its 20 applies hit it 18 times
    one_slot = functools.lru_cache(maxsize=1)(channels._content_kernel.__wrapped__)
    monkeypatch.setattr(channels, "_content_kernel", one_slot)
    cfg = cli.RunConfig(**{**cli._COMMON, **cli._DEFAULTS["heatflow"],
                           "truncation": 24, "times": (0.25, 0.5)})
    report = cli.check_path_agreement(cfg)
    assert one_slot.cache_info()[:2] == (18, 2)  # hits, misses
    assert [(row["state"], row["t"]) for row in report.curve] == [
        (i, t) for i in range(10) for t in (0.25, 0.5)]


def test_cache_keeps_the_two_newest_kernels():
    channels._content_kernel.cache_clear()
    n = 12
    a = FockOperator(random_matrix(n))
    chs = [heat_channel(t, n) for t in (0.1, 0.2, 0.3)]
    for ch in chs:
        apply_quadrature(ch, a)
    assert channels._content_kernel.cache_info()[1:] == (3, 2, 2)  # misses, maxsize, currsize
    apply_quadrature(chs[2], a)
    apply_quadrature(chs[1], a)
    assert channels._content_kernel.cache_info()[:2] == (2, 3)  # hits, misses
    apply_quadrature(chs[0], a)  # the oldest was dropped
    assert channels._content_kernel.cache_info()[:2] == (2, 4)


def test_kernel_build_holds_one_pairs_chunk():
    # the class tables die before the pairs loop and each chunk of pairs
    # dies with its product, so the traced peak (10.4 MB) stays below two
    # chunks
    n = 30
    ch = heat_channel(0.5, n)
    weights = channels._masked_quadrature(ch, 1e-6)
    fock._position_eigensystem(n)  # cached before the trace
    tracemalloc.start()
    try:
        kernel = channels._build_kernel(weights, ch.mu.grid, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.spectrum.nbytes == n**3 * 16
    assert peak < 2 * fock._TABLE_ENTRIES * 16


@pytest.mark.parametrize("kind,groups", [("cauchy", 1), ("signed_atoms", 1), ("heat", 4)])
def test_apply_runs_one_fft_pair_per_residue_group(kind, groups, monkeypatch):
    # a general measure runs one group on the circle of 4N, a heat channel
    # four on the circle of N
    n = 24
    ch = (MeasureChannel(cauchy_measure(0.01, GridSpec(8.0, 64)), n) if kind == "cauchy"
          else make_channel(kind, n))
    channels._channel_kernel(ch, 1e-6)  # built (with its own ifft) before counting
    lengths, inverses = [], []
    fft, ifft = np.fft.fft, np.fft.ifft

    def counting(x, n=None, axis=-1):
        lengths.append(n)
        return fft(x, n=n, axis=axis)

    def counting_inverse(x, axis=-1, out=None):
        inverses.append(x.shape[axis])
        return ifft(x, axis=axis, out=out)

    monkeypatch.setattr(np.fft, "fft", counting)
    monkeypatch.setattr(np.fft, "ifft", counting_inverse)
    apply_quadrature(ch, FockOperator(random_matrix(n)))
    assert lengths == inverses == [4 * n // groups] * groups


def node_kernel(ch: MeasureChannel) -> np.ndarray:
    """K[s + 2N - 2, k, l] = sum_p w_p e^{i th_p s} e^{i rho_p (lam_k - lam_l)}
    for |s| <= 2N - 2, node by node over the conjugation nodes."""
    n = ch.truncation
    xs, ys = ch.mu.grid.mesh()
    nodes = np.column_stack([xs.ravel(), ys.ravel()]) * channels.CONJUGATION_SCALE
    rho, theta = np.hypot(nodes[:, 0], nodes[:, 1]), np.arctan2(nodes[:, 1], nodes[:, 0])
    expo = np.exp(1j * rho[:, None] * fock._position_eigensystem(n)[0])
    pairs = (expo[:, :, None] * expo[:, None, :].conj()).reshape(len(expo), -1)
    turns = np.exp(1j * theta[:, None] * np.arange(2 - 2 * n, 2 * n - 1))
    weights = ch.mu.weights.ravel()
    return ((weights[:, None] * turns).T @ pairs).reshape(-1, n, n)


def loop_apply_kernel(kernel: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Y_e = sum_d M_d * K[d - e] with one Python step per offset, from K
    as node_kernel lays it out."""
    n = a.shape[0]
    _, vec, _ = fock._position_eigensystem(n)
    m = np.empty((2 * n - 1, n, n), dtype=complex)
    for d in range(1 - n, n):
        i = np.arange(max(0, -d), min(n, n - d))  # rows whose column i + d exists
        j = i + d
        m[d + n - 1] = (vec[i].T * a[i, j]) @ vec[j]
    out = np.empty((n, n), dtype=complex)
    for e in range(1 - n, n):
        y = np.einsum("dkl,dkl->kl", m, kernel[n - 1 - e: 3 * n - 2 - e])
        i = np.arange(max(0, -e), min(n, n - e))
        j = i + e
        out[i, j] = np.einsum("rl,rl->r", vec[i] @ y, vec[j])
    return out


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_spectral_apply_matches_the_offset_loop(n, seed):
    ch = asymmetric_channel(n, seed)
    a = np.random.default_rng(seed).normal(size=(n, n, 2)) @ np.array([1.0, 1j])
    got = channels._apply_kernel(channels._channel_kernel(ch, 1e-6), a)
    assert_close(got, loop_apply_kernel(node_kernel(ch), a))


def circle_kernel(kernel, n: int) -> np.ndarray:
    """K[s + 2N - 2] for |s| <= 2N - 2 summed straight from the kernel's
    spectrum, repeated until it fills the circle of 4N, plus the origin."""
    khat = np.tile(kernel.spectrum, 4 * n // kernel.spectrum.shape[-1])
    s = np.arange(2 - 2 * n, 2 * n - 1)
    dft = np.exp(-2j * np.pi * np.outer(s, np.arange(4 * n)) / (4 * n)) / (4 * n)
    return kernel.origin + np.einsum("sp,klp->skl", dft, khat)


@pytest.mark.parametrize("kind,n", [
    ("asymmetric_complex", 2), ("asymmetric_complex", 8), ("asymmetric_complex", 30),
    ("asymmetric_complex", 40),
    # a pair at +-z0, odd and even under z -> -z, but not quarter-turn
    # symmetric: the odd offsets live, and the even s = 2 (mod 4)
    ("signed_atoms", 24), ("even_atoms", 24),
])
def test_general_measures_take_the_circle_of_4n(kind, n):
    ch = make_channel(kind, n)
    kernel = channels._channel_kernel(ch, 1e-6)
    assert kernel.spectrum.shape == (n, n, 4 * n)
    assert not kernel.spectrum.flags.writeable
    assert_close(circle_kernel(kernel, n), node_kernel(ch))
    a = random_matrix(n)
    assert_close(channels._apply_kernel(kernel, a), loop_apply_kernel(node_kernel(ch), a))


@pytest.mark.parametrize("t", [0.0125, 0.25])
def test_heat_channel_keeps_one_residue_and_its_origin(t):
    # s = 4j alone, at position j of a circle of N
    n = 24
    ch = heat_channel(t, n)
    kernel = channels._channel_kernel(ch, 1e-6)
    assert kernel.spectrum.shape == (n, n, n)
    assert not kernel.spectrum.flags.writeable
    m = ch.mu.grid.points_per_axis // 2
    assert kernel.origin == ch.mu.weights[m, m]
    assert_close(circle_kernel(kernel, n), node_kernel(ch))


@pytest.mark.parametrize("t", [0.0044, 0.25, 1.0, 16.0])
def test_heat_channel_drops_only_the_unpaired_edge(t):
    gauss = gaussian_measure(t, default_gaussian_grid(t)).weights
    edge = float(gauss[0].sum() + gauss[1:, 0].sum())
    assert edge <= 1e-9
    kept = gauss.copy()
    kept[0], kept[:, 0] = 0.0, 0.0
    assert_close(heat_channel(t, 8).mu.weights, kept / (1.0 - edge))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 30), half=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_quarter_turn_symmetric_weights_keep_one_residue(n, half, seed):
    # random weights summed over the four turns of the grid without its
    # -L row and column, where the turns map nodes onto nodes
    inner = np.random.default_rng(seed).normal(size=(2 * half - 1, 2 * half - 1, 2))
    inner = inner @ np.array([1.0, 1j])
    weights = np.zeros((2 * half, 2 * half), dtype=complex)
    weights[1:, 1:] = sum(np.rot90(inner, q) for q in range(4))
    ch = MeasureChannel(GridMeasure(GridSpec(half * 0.25, 2 * half), weights), n)
    kernel = channels._channel_kernel(ch, 1e-6)
    assert kernel.spectrum.shape == (n, n, n)
    a = np.random.default_rng(seed + 1).normal(size=(n, n, 2)) @ np.array([1.0, 1j])
    assert_close(channels._apply_kernel(kernel, a), loop_apply_kernel(node_kernel(ch), a))


# every node of an even grid: the unpaired -L row and column, the axes,
# the diagonals and the origin
HALF_SIDES = st.integers(1, 30)


def node_phases(half: int, top: int) -> np.ndarray:
    """e^{i th_p s} node by node, from the float angles of a grid's nodes."""
    xs, ys = GridSpec(float(half), 2 * half).mesh()
    theta = np.arctan2(ys.ravel(), xs.ravel())
    return np.exp(1j * theta[:, None] * np.arange(-top, top + 1))


@settings(max_examples=40, deadline=None)
@given(half=HALF_SIDES, n=st.integers(2, 40))
def test_class_phases_turn_into_every_node_angle(half, n):
    top = 2 * n - 2
    phase, _, cls, flip, quarter = fock._lattice_classes(2 * half, 1.0, n, top)
    reflected = np.where(flip[:, None] == 1, phase[cls, ::-1], phase[cls])
    turned = fock._quarter_powers(top)[:, quarter].T * reflected
    assert float(np.abs(turned - node_phases(half, top)).max()) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(half=HALF_SIDES, n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_class_sums_match_the_node_sums(half, n, seed):
    rng = np.random.default_rng(seed)
    size = (2 * half) ** 2
    weights = rng.normal(size=size) + 1j * rng.normal(size=size)
    weights[rng.uniform(size=size) < 0.3] = 0.0  # a masked node set
    top = 2 * n - 2
    phase, _, cls, flip, quarter = fock._lattice_classes(2 * half, 1.0, n, top)
    want = np.zeros((len(phase), 2 * top + 1), dtype=complex)
    np.add.at(want, cls, weights[:, None] * node_phases(half, top))
    assert_close(fock._class_sums(weights, cls, flip, quarter, phase), want)


def sorted_classes(m: int, step: float, n: int, top: int) -> tuple:
    """_lattice_classes' tables and node classes with the classes numbered
    by np.unique over A * M + B, the sort the closed form replaced."""
    ia, ib = np.indices((m, m)).reshape(2, -1) - m // 2
    abs_a, abs_b = np.abs(ia), np.abs(ib)
    reps, cls = np.unique(np.maximum(abs_a, abs_b) * m + np.minimum(abs_a, abs_b),
                          return_inverse=True)
    rep_a, rep_b = np.divmod(reps, m)
    return (*fock._class_tables(step * np.hypot(rep_a, rep_b), np.arctan2(rep_b, rep_a), n, top),
            cls)


@settings(max_examples=40, deadline=None)
@given(half=st.integers(1, 200), n=st.integers(2, 12))
def test_classes_by_formula_are_the_sorted_classes_bitwise(half, n):
    got = fock._lattice_classes(2 * half, 0.37, n, 2 * n - 2)[:3]
    want = sorted_classes(2 * half, 0.37, n, 2 * n - 2)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("t", [0.25, 0.5])
def test_real_class_sums_equal_their_complex_cast_bitwise(t):
    # real weights gather in a real table; the sums must not move by a bit,
    # so the heat channels' kernels stay byte-identical
    grid = default_gaussian_grid(t)
    weights = gaussian_measure(t, grid).weights.ravel()
    assert weights.dtype == np.float64
    phase, _, cls, flip, quarter = fock._lattice_classes(
        grid.points_per_axis, channels.CONJUGATION_SCALE * grid.h, 30, 58)
    real = fock._class_sums(weights, cls, flip, quarter, phase)
    cast = fock._class_sums(weights.astype(complex), cls, flip, quarter, phase)
    np.testing.assert_array_equal(real, cast)


def stacked_char_function(a: FockOperator, grid: GridSpec) -> np.ndarray:
    """char_function's quarter turns as one batched product over the
    stacked (classes, 2, 2N - 1) table, the formulation it replaced."""
    phase, expo, cls, flip, quarter = weyl_transform._grid_classes(grid, a.dim)
    sums = weyl_transform._offset_sums(a.matrix, expo)
    turned = np.stack([phase * sums, phase[:, ::-1] * sums], 1) @ fock._quarter_powers(a.dim - 1)
    vals = turned[cls, flip, quarter]
    m = grid.points_per_axis
    return vals.reshape(m, m)


def stacked_class_sums(weights, cls, flip, quarter, phase: np.ndarray) -> np.ndarray:
    """fock._class_sums with the quarter turns as one batched product over
    the (classes, 2, 4) gathered table, the formulation it replaced."""
    gathered = np.zeros((len(phase), 2, 4), dtype=np.result_type(weights, np.float64))
    np.add.at(gathered, (cls, flip, quarter), weights)
    sums = gathered @ fock._quarter_powers(phase.shape[1] // 2).T
    return phase * sums[:, 0] + phase[:, ::-1] * sums[:, 1]


@pytest.mark.parametrize("n", [12, 30, 40])
def test_quarter_turns_match_the_stacked_product(n):
    grid = channels._spectral_grid(n)
    a = FockOperator(random_matrix(n))
    np.testing.assert_array_equal(char_function(a, grid).values,
                                  stacked_char_function(a, grid))
    # the class sums' turn products are equal too, but the phases now meet
    # contiguous sums, whose complex product numpy may round differently
    # (a fused multiply-add): a few units in the last place of the table
    heat_grid = default_gaussian_grid(0.25)
    phase, _, cls, flip, quarter = fock._lattice_classes(
        heat_grid.points_per_axis, channels.CONJUGATION_SCALE * heat_grid.h, n, 2 * n - 2)
    heat = gaussian_measure(0.25, heat_grid).weights.ravel()
    for weights in (heat, heat * np.exp(1j * RNG.uniform(0.0, 2.0 * math.pi, heat.size))):
        assert_close(fock._class_sums(weights, cls, flip, quarter, phase),
                     stacked_class_sums(weights, cls, flip, quarter, phase),
                     rel=4 * np.finfo(float).eps)


@pytest.mark.parametrize("n", [8, 24, 40])
def test_grid_transform_is_the_transform_at_its_nodes(n):
    # corners inside the trust window, so char_values takes every node
    grid = GridSpec(half_width=0.7 * trust_radius(n), points_per_axis=26)
    a = FockOperator(random_matrix(n))
    xs, ys = grid.mesh()
    at_nodes = char_values(a, np.column_stack([xs.ravel(), ys.ravel()]))
    assert_close(char_function(a, grid).values.ravel(), at_nodes)


def test_spectral_applications_share_one_class_table_build(monkeypatch):
    weyl_transform._grid_classes.cache_clear()
    builds = []
    original = weyl_transform._lattice_classes

    def counting(*args):
        builds.append(args[-1])
        return original(*args)

    monkeypatch.setattr(weyl_transform, "_lattice_classes", counting)
    a = FockOperator(random_matrix(12))
    first = apply_spectral(HeatFlowParams(0.1), a)
    for _ in range(3):
        again = apply_spectral(HeatFlowParams(0.1), a)
    assert len(builds) == 1
    assert np.array_equal(first.matrix, again.matrix)


def test_class_table_cache_stays_small():
    tables = weyl_transform._grid_classes
    for n in (8, 12, 30, 40):
        tables(channels._spectral_grid(n), n)
    assert tables.cache_info().maxsize == 2
    assert tables.cache_info().currsize <= 2
    spectral_40 = tables(channels._spectral_grid(40), 40)
    assert sum(t.nbytes for t in spectral_40) <= 3e6
    assert not any(t.flags.writeable for t in spectral_40)
