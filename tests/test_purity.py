"""Distinguishability decay, band-annihilated distances, certified bounds."""

import math

import numpy as np
import pytest

from ccrflow import (
    FockOperator,
    GridSpec,
    absorbing_state_probe,
    band_annihilated_distance,
    certified_bound,
    char_values,
    decay_curve,
    exact_heat,
    number_state,
    trace_norm,
)
from ccrflow.purity import DEFAULT_TIME_GRID


def gue_traceless(n: int, seed: int) -> FockOperator:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2.0
    h -= np.trace(h) / n * np.eye(n)
    return FockOperator(h)


def pair_distance(t: float) -> float:
    """||phi_t(|0><0| - |1><1|)||_1 in closed form: with nbar = 2t added
    quanta the two evolved densities cross once, after level K = ceil(nbar) - 1,
    which leaves 2(K + 1) nbar^K / (1 + nbar)^(K + 2)."""
    if t == 0:
        return 2.0
    nbar = 2.0 * t
    k = math.ceil(nbar) - 1
    return 2.0 * (k + 1) * nbar ** k / (1.0 + nbar) ** (k + 2)


def test_fock_pair_decay_matches_closed_form():
    # |0><0| vs |1><1| has a closed-form distance curve; the first few
    # values are 2, 8/9, 1/2, 8/27
    rows = decay_curve(number_state(0, 40), number_state(1, 40))
    d = [row["distance"] for row in rows]
    np.testing.assert_allclose(d[:4], [2.0, 8.0 / 9.0, 0.5, 8.0 / 27.0], atol=1e-5)
    np.testing.assert_allclose(d, [pair_distance(t) for t in DEFAULT_TIME_GRID],
                               rtol=1e-12, atol=0.0)
    assert all(b < a for a, b in zip(d, d[1:]))
    # the window outgrows the truncation, and what it leaves out is stated
    assert [row["t"] for row in rows] == list(DEFAULT_TIME_GRID)
    assert rows[-1]["levels"] > 1000 and all(row["lost_trace"] <= 1e-13 for row in rows)


def test_spectral_path_agrees_on_fock_pair():
    # the spectral path reports the reliable leading block, so compare it
    # against the quadrature-evolved pair cropped to the same block
    from ccrflow import HeatFlowParams, evolve_state, spectral_levels

    n = 30
    rho1, rho2 = number_state(0, n), number_state(1, n)
    d = [row["distance"] for row in decay_curve(rho1, rho2, times=(0.0, 0.5), path="spectral")]
    assert abs(d[0] - 2.0) < 1e-9
    k = spectral_levels(n)
    e1 = evolve_state(HeatFlowParams(0.5), rho1).matrix
    e2 = evolve_state(HeatFlowParams(0.5), rho2).matrix
    block = trace_norm(e1[:k, :k] - e2[:k, :k])
    assert abs(d[1] - block) < 2e-3


def test_decay_curve_input_guards():
    with pytest.raises(ValueError, match="share a truncation"):
        decay_curve(number_state(0, 10), number_state(0, 12), times=(0.0,))
    with pytest.raises(ValueError, match="strictly increasing"):
        decay_curve(number_state(0, 10), number_state(1, 10), times=(0.5, 0.5))
    with pytest.raises(ValueError, match="unknown path"):
        decay_curve(number_state(0, 10), number_state(1, 10),
                    times=(0.0,), path="generator")
    # the flow is not defined backwards in time
    with pytest.raises(ValueError, match="negative time"):
        decay_curve(number_state(0, 10), number_state(1, 10), times=(-1.0, 0.0))


def test_band_annihilated_zero_input():
    grid = GridSpec(half_width=1.0, points_per_axis=8)
    d, b = band_annihilated_distance(
        FockOperator(np.zeros((8, 8), dtype=complex)), 1.0, grid
    )
    assert d == 0.0
    assert float(np.abs(b.matrix).max()) == 0.0


def test_band_annihilated_constraint_residual_is_tight():
    # default rcond keeps the constraints satisfied to machine scale
    from ccrflow import displacement_batch

    n = 12
    a = gue_traceless(n, 3)
    grid = GridSpec(half_width=1.0, points_per_axis=8)
    d, b = band_annihilated_distance(a, 1.0, grid)
    xs, ys = grid.mesh()
    keep = (np.hypot(xs, ys) <= 1.0 + 1e-12).ravel()
    pts = np.column_stack([xs.ravel(), ys.ravel()])[keep]
    w = displacement_batch(pts, n)
    resid = np.einsum("mn,bnm->b", b.matrix, w)
    assert float(np.abs(resid).max()) < 1e-10
    assert d > 0.0


def test_band_annihilated_trace_bound():
    # the origin constraint forces tr B = 0, so a trace-one input stays at
    # distance >= 1 in trace norm for every epsilon
    n = 12
    rng = np.random.default_rng(9)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2.0
    h = h / np.trace(h)
    a = FockOperator(h)
    for eps in (1.0, 0.5, 0.25):
        d, _ = band_annihilated_distance(
            a, eps, GridSpec(half_width=eps, points_per_axis=8), rcond=1e-6
        )
        assert d >= 1.0 - 1e-6


def test_band_annihilated_profile_monotone_with_regularized_solve():
    n = 12
    a = gue_traceless(n, 41)
    dists = []
    for eps in (1.0, 0.5, 0.25):
        d, _ = band_annihilated_distance(
            a, eps, GridSpec(half_width=eps, points_per_axis=8), rcond=1e-6
        )
        dists.append(d)
    assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))


def test_band_annihilated_guards():
    a = gue_traceless(4, 1)
    with pytest.raises(ValueError, match="positive"):
        band_annihilated_distance(a, 0.0, GridSpec(1.0, 8))
    with pytest.raises(ValueError, match="coarse"):
        band_annihilated_distance(a, 1.0, GridSpec(1.0, 4))
    with pytest.raises(ValueError, match="cover"):
        band_annihilated_distance(a, 2.0, GridSpec(1.0, 8))
    with pytest.raises(ValueError, match="degrees of freedom"):
        band_annihilated_distance(a, 1.0, GridSpec(1.0, 40))


@pytest.mark.parametrize("call,match", [
    (lambda: band_annihilated_distance(FockOperator(np.eye(6) / 6), math.nan, GridSpec(1, 8)),
     "epsilon must be positive"),
    (lambda: char_values(number_state(0, 8), [(math.nan, 0.0)]), "trustworthy window"),
    (lambda: exact_heat(np.eye(4), math.nan, 4), "finite and nonnegative"),
    (lambda: exact_heat(np.eye(4), math.inf, 4), "finite and nonnegative"),
    (lambda: decay_curve(number_state(0, 8), number_state(1, 8), (0.0, math.nan)),
     "finite and nonnegative"),
    (lambda: decay_curve(number_state(0, 8), number_state(1, 8), (0.0, math.inf)),
     "finite and nonnegative"),
    (lambda: certified_bound(number_state(0, 8), number_state(1, 8), math.nan, 1.5, 1.0),
     "finite and nonnegative"),
    (lambda: certified_bound(number_state(0, 8), number_state(1, 8), math.inf, 1.5, 1.0),
     "finite and nonnegative"),
], ids=["band_annihilated_distance", "char_values", "exact_heat_nan", "exact_heat_inf",
        "decay_curve_nan", "decay_curve_inf", "certified_bound_nan", "certified_bound_inf"])
def test_nan_fails_the_guards(call, match):
    # a NaN compares False both ways, so each guard is written to pass only
    # what it accepts
    with pytest.raises(ValueError, match=match):
        call()


def test_certificate_on_small_fock_pair():
    rep = certified_bound(
        number_state(0, 24), number_state(1, 24),
        t=4.0, epsilon=2.0, delta=1.0,
    )
    terms = rep.details
    assert rep.check == "purity_certificate"
    assert rep.params == {"truncation": 24, "t": 4.0, "delta": 1.0, "epsilon": 2.0}
    assert rep.measured <= terms["term1"] + terms["term2"] + 1e-6
    assert terms["slack"] > 0
    assert rep.conditions[1].name == "pairing_inner_product"
    assert rep.conditions[1].measured <= 1e-8
    assert rep.passed
    assert terms["term3"] == 0.0
    assert rep.bound == terms["term1"] + terms["term2"] + terms["term3"]


def test_certificate_rejects_too_small_budget():
    with pytest.raises(ValueError, match="budget"):
        certified_bound(
            number_state(0, 24), number_state(1, 24),
            t=4.0, epsilon=1.0, delta=1.0,
        )


def test_certificate_record_invariant(monkeypatch, tmp_path, capsys):
    # a violated bound is a report with negative slack that fails (exit 1)
    # instead of reading as an invalid config (exit 2)
    from ccrflow import cli, purity

    original = purity.exact_heat
    monkeypatch.setattr(purity, "exact_heat", lambda a, t, n_out: 1000.0 * original(a, t, n_out))
    cfg = cli.RunConfig(**{**cli._COMMON, **cli._DEFAULTS["purity"]})
    rep = cli.check_purity_certificate(cfg)
    assert rep.details["slack"] < 0
    assert rep.passed is False
    assert cli.main(["purity", "--out", str(tmp_path)]) == 1
    assert "[FAIL] purity_certificate" in capsys.readouterr().out


def test_absorbing_probe_sees_uniform_decay():
    rep = absorbing_state_probe(
        (0.0, 1.0), [("vacuum", number_state(0, 30))]
    )
    assert rep.passed
    assert rep.measured < 1e-3
