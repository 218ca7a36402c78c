"""Truncated oscillator space: displacement operators, states, norms.

The displacement construction is checked against scipy's dense matrix
exponential of the truncated generator, which is an entirely separate
code path.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from ccrflow import char_values, fock
from ccrflow.fock import (
    DensityOperator,
    FockOperator,
    alpha_of,
    annihilation,
    coherent_state,
    displacement_batch,
    number_state,
    position,
    trace_norm,
    weyl_operator,
)
from ccrflow.phase_space import omega

RNG = np.random.default_rng(7741)


def test_canonical_commutator_on_low_levels():
    n = 24
    q, a = position(n).matrix, annihilation(n).matrix
    p = -1j * (a - a.conj().T) / math.sqrt(2.0)
    comm = q @ p - p @ q
    # [Q, P] = iI away from the truncation edge
    np.testing.assert_allclose(comm[:-2, :-2], 1j * np.eye(n)[:-2, :-2],
                               atol=1e-12)


def test_annihilation_matrix_elements():
    a = annihilation(5).matrix
    want = np.zeros((5, 5))
    for k in range(1, 5):
        want[k - 1, k] = math.sqrt(k)
    np.testing.assert_allclose(a, want)


def test_displacement_equals_matrix_exponential():
    # W_z = exp(i(xQ + yP)), with P = -i(a - a^dagger)/sqrt(2)
    n = 25
    q, a = position(n).matrix, annihilation(n).matrix
    p = -1j * (a - a.conj().T) / math.sqrt(2.0)
    for x, y in [(0.5, 0.0), (0.0, -1.0), (1.3, 0.7), (-2.0, 1.1)]:
        fast = weyl_operator((x, y), n).matrix
        dense = expm(1j * (x * q + y * p))
        np.testing.assert_allclose(fast, dense, atol=1e-12)


def test_displacement_is_unitary():
    n = 30
    zs = RNG.normal(size=(20, 2))
    w = displacement_batch(zs, n)
    eye = np.eye(n)
    prods = np.einsum("bji,bjk->bik", w.conj(), w)
    assert float(np.abs(prods - eye).max()) < 1e-12


SLICE_WIDTH = 6
SLICE_STEP = 4


@pytest.mark.parametrize("b", [0, 1, SLICE_STEP - 1, SLICE_STEP, SLICE_STEP + 1,
                               2 * SLICE_STEP + 3])
def test_node_slices_cover_the_axis_in_order(monkeypatch, b):
    # shrink the table budget so a handful of nodes spans several slices;
    # the remainder checks that the step is a floor division
    monkeypatch.setattr(fock, "_TABLE_ENTRIES", SLICE_STEP * SLICE_WIDTH + 5)
    slices = fock._node_slices(b, SLICE_WIDTH)
    assert [i for sl in slices for i in range(b)[sl]] == list(range(b))
    assert all(len(range(b)[sl]) <= SLICE_STEP for sl in slices)
    # with the budget at its floor the transform still matches the trace
    # against each displacement (up to the rounding of differently shaped
    # products)
    monkeypatch.setattr(fock, "_TABLE_ENTRIES", 2 * SLICE_WIDTH - 1)
    rng = np.random.default_rng(b)
    shape = (SLICE_WIDTH, SLICE_WIDTH)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    zs = rng.normal(size=(b, 2))
    want = np.einsum("mn,bnm->b", a, displacement_batch(zs, SLICE_WIDTH))
    np.testing.assert_allclose(char_values(FockOperator(a), zs), want, atol=1e-13)


def test_closed_form_agrees_with_exponential():
    # The recurrence computes untruncated matrix elements while expm of the
    # clipped generator feels the corner, so the two only agree away from it:
    # compare leading blocks, with the block shrinking as |z| grows.
    n = 30
    rng = np.random.default_rng(7)

    def disk(count, radius):
        r = radius * np.sqrt(rng.uniform(size=count))
        th = rng.uniform(0.0, 2 * np.pi, size=count)
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

    zs = disk(12, 1.0)
    we = displacement_batch(zs, n, method="exponential")
    wc = displacement_batch(zs, n, method="closed_form")
    assert float(np.abs(we[:, :15, :15] - wc[:, :15, :15]).max()) < 1e-9

    zs_mid = disk(6, 2.0)
    we = displacement_batch(zs_mid, n, method="exponential")
    wc = displacement_batch(zs_mid, n, method="closed_form")
    assert float(np.abs(we[:, :8, :8] - wc[:, :8, :8]).max()) < 1e-7


def test_closed_form_rejects_far_displacement():
    # |alpha|^2 = |z|^2/2 beyond the truncation makes the recurrence junk
    with pytest.raises(ValueError):
        displacement_batch(np.array([[7.0, 0.0]]), 12, method="closed_form")


def test_vacuum_overlap_formula():
    n = 40
    zs = RNG.normal(size=(15, 2))
    w = displacement_batch(zs, n)
    got = w[:, 0, 0]
    want = np.exp(-(zs[:, 0] ** 2 + zs[:, 1] ** 2) / 4)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_weyl_composition_phase():
    n = 40
    z1, z2 = (0.4, -0.3), (0.8, 0.5)
    w1 = weyl_operator(z1, n).matrix
    w2 = weyl_operator(z2, n).matrix
    w12 = weyl_operator((z1[0] + z2[0], z1[1] + z2[1]), n).matrix
    lhs = (w1 @ w2)[:, :12]
    rhs = (np.exp(1j * omega(z1, z2)) * w12)[:, :12]
    assert float(np.abs(lhs - rhs).max()) < 1e-10


def test_conjugation_covariance_phase():
    # W_a W_z W_a^dagger = exp(2i omega(a, z)) W_z, checked on low blocks
    n = 40
    a, z = (0.6, 0.2), (-0.4, 0.9)
    wa = weyl_operator(a, n).matrix
    wz = weyl_operator(z, n).matrix
    lhs = (wa @ wz @ wa.conj().T)[:10, :10]
    rhs = (np.exp(2j * omega(a, z)) * wz)[:10, :10]
    assert float(np.abs(lhs - rhs).max()) < 1e-10


def test_alpha_of_convention():
    # the ladder amplitude <1|W_z|0> must equal alpha * exp(-|alpha|^2/2)
    z = (0.7, -0.2)
    alpha = alpha_of(z)
    w = weyl_operator(z, 20).matrix
    assert w[1, 0] == pytest.approx(alpha * math.exp(-abs(alpha) ** 2 / 2),
                                    abs=1e-13)


def test_number_state_basics():
    rho = number_state(3, 10)
    assert rho.dim == 10
    assert rho.matrix[3, 3] == 1.0
    assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        number_state(10, 10)


def test_coherent_state_statistics():
    alpha = 0.8
    rho = coherent_state(alpha, 30)
    # mean occupation |alpha|^2 for a coherent state
    mean_n = float(np.real(np.trace(np.diag(np.arange(30)) @ rho.matrix)))
    assert mean_n == pytest.approx(abs(alpha) ** 2, rel=1e-6)
    assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.8, 0.5 + 0.2j, 0.6 + 0.3j, -1.1j, 2.0 + 1.0j])
def test_coherent_state_is_the_closed_form_column(alpha):
    # bit for bit the cumulative product it was before it shared the closed
    # form's first column, on the amplitudes the package and its tests use
    n, alpha = 30, complex(alpha)
    vec = np.empty(n, dtype=complex)
    vec[0] = math.exp(-0.5 * abs(alpha) ** 2)
    vec[1:] = vec[0] * np.cumprod(alpha / np.sqrt(np.arange(1, n)))
    vec /= math.sqrt(float(np.sum(np.abs(vec) ** 2)))
    rho = coherent_state(alpha, n).matrix
    assert np.array_equal(rho, np.outer(vec, vec.conj()))
    z = (math.sqrt(2.0) * alpha.imag, -math.sqrt(2.0) * alpha.real)
    column = displacement_batch(np.array([z]), n, method="closed_form")[0][:, 0]
    column /= math.sqrt(float(np.sum(np.abs(column) ** 2)))
    assert np.array_equal(coherent_state(alpha_of(z), n).matrix, np.outer(column, column.conj()))
    assert coherent_state(0.0, 1).matrix.tolist() == [[1.0]]


@pytest.mark.parametrize("classes,top", [(820, 29), (561, 58), (7021, 89), (3, 0), (5, 1)])
def test_class_phase_table_is_the_conjugate_mirror_of_its_half(classes, top):
    # filled in place, bit for bit the concatenation of the conjugated
    # mirror of s = 1..top and the exp of s = 0..top
    rng = np.random.default_rng(classes)
    rho, theta = rng.uniform(0.0, 5.0, classes), rng.uniform(-math.pi, math.pi, classes)
    phase, _ = fock._class_tables(rho, theta, 10, top)
    half = np.exp(1j * theta[:, None] * np.arange(top + 1))
    assert np.array_equal(phase, np.concatenate([half[:, :0:-1].conj(), half], axis=1))


def test_coherent_state_rejects_poor_capture():
    with pytest.raises(ValueError):
        coherent_state(4.0, 8)


def test_density_operator_validation():
    bad_trace = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(bad_trace)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    skew[0, 0] = 1.0
    with pytest.raises(ValueError, match="self-adjoint"):
        DensityOperator(skew)
    neg = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityOperator(neg)
    # FockOperator's own checks run first
    with pytest.raises(ValueError, match="finite"):
        DensityOperator(np.diag([1.0, math.nan]))
    with pytest.raises(ValueError, match="square"):
        DensityOperator(np.full((2, 3), 1.0 / 3.0))


def test_a_state_is_an_operator():
    rho = coherent_state(0.6 - 0.3j, 16)
    assert isinstance(rho, FockOperator) and not hasattr(rho, "op")
    assert rho.dim == 16 and not rho.matrix.flags.writeable
    pts = np.random.default_rng(37).uniform(-2.0, 2.0, (40, 2))
    assert np.array_equal(char_values(rho, pts), char_values(FockOperator(rho.matrix), pts))
    # a difference or a block of states is an operator, not a state
    diff = rho - number_state(0, 16)
    assert type(diff) is FockOperator and type(rho.leading_block(4)) is FockOperator
    assert np.array_equal(diff.matrix, rho.matrix - number_state(0, 16).matrix)


def test_trace_norm_is_singular_value_sum():
    m = RNG.standard_normal((12, 12)) + 1j * RNG.standard_normal((12, 12))
    got = trace_norm(FockOperator(m))
    want = float(np.linalg.svd(m, compute_uv=False).sum())
    assert got == pytest.approx(want)
    # and on a Hermitian matrix it is the absolute eigenvalue sum
    h = m + m.conj().T
    assert trace_norm(h) == pytest.approx(float(np.abs(np.linalg.eigvalsh(h)).sum()))
    # a diagonal matrix skips the SVD; one entry anywhere off the diagonal,
    # or a transposed view, must not
    for n in (1, 2, 7):
        d = np.diag(RNG.standard_normal(n) + 1j * RNG.standard_normal(n))
        cases = [d]
        for i, j in [(0, n - 1), (n - 1, 0), (n - 1, n - 2)]:
            if i != j:
                near = d.copy()
                near[i, j] = 0.5j
                cases += [near, near.T]
        for c in cases:
            want = float(np.linalg.svd(c, compute_uv=False).sum())
            assert trace_norm(c) == pytest.approx(want, rel=1e-14)


def test_operator_algebra_helpers():
    m = RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))
    a = FockOperator(m)
    assert complex(a.trace()) == pytest.approx(complex(np.trace(m)))
    np.testing.assert_allclose(a.leading_block(3).matrix, m[:3, :3])
    np.testing.assert_allclose(a.embedded(8).matrix[:6, :6], m)
    assert a.embedded(8).matrix[7, 7] == 0.0
    np.testing.assert_allclose((a - a.scaled(2.0)).matrix, -m)
