"""Acceptance suite: twelve gating criteria, one verdict line each.

Every test rebuilds its experiment from the command-line defaults, runs
the same check the CLI runs, and then asserts the numeric claims directly
rather than trusting the report's own flag.  Run with -s to see the
verdict lines on success; under plain pytest each test's PASSED/FAILED
line carries the same information.
"""

import time

from ccrflow.cli import (
    RunConfig,
    _COMMON,
    _DEFAULTS,
    check_beurling_monotonicity,
    check_beurling_trace_bound,
    check_choi_positivity,
    check_choi_witness,
    check_conservation,
    check_eigen_relation,
    check_generator_scaling,
    check_lemma_band_limit,
    check_lemma_ft_formula,
    check_lemma_tv_sweep,
    check_path_agreement,
    check_purity_certificate,
    check_purity_decay,
    check_riemann_lebesgue,
    check_semigroup_composition,
    check_semigroup_tv,
    check_weyl_relations,
)


def config_for(subcommand: str, **overrides) -> RunConfig:
    merged = {**_COMMON, **_DEFAULTS[subcommand], **overrides}
    return RunConfig(**merged)


def measured(rep, name: str) -> float:
    """The measured value of the report's condition called name."""
    return next(c.measured for c in rep.conditions if c.name == name)


def verdict(number: int, title: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {title}: {detail}")


def test_criterion_01_weyl_composition_law():
    cfg = config_for("weyl-check")
    start = time.perf_counter()
    rep = check_weyl_relations(cfg)
    elapsed = time.perf_counter() - start
    ok = rep.passed and rep.measured <= 1e-6 and elapsed <= 60.0
    verdict(1, "displacement composition",
            ok, f"defect {rep.measured:.3g} <= 1e-06 in {elapsed:.1f}s")
    assert rep.params["truncation"] == 40 and rep.params["pairs"] == 100
    assert ok


def test_criterion_02_gaussian_eigen_relation():
    cfg = config_for("heatflow")
    rep = check_eigen_relation(cfg)
    ok = rep.passed and rep.measured <= 1e-3
    verdict(2, "quadrature eigen-relation",
            ok, f"rel error {rep.measured:.3g} <= 1e-03")
    assert rep.params["t"] == 0.25
    assert ok


def test_criterion_03_path_agreement_on_states():
    cfg = config_for("heatflow")
    rep = check_path_agreement(cfg)
    ok = rep.passed and rep.measured <= 2e-3
    verdict(3, "quadrature vs spectral",
            ok, f"trace-norm gap {rep.measured:.3g} <= 2e-03")
    assert rep.params["states"] == 10 and rep.params["times"] == [0.25, 1.0]
    assert ok


def test_criterion_04_trace_and_unitality():
    cfg = config_for("heatflow")
    rep = check_conservation(cfg)
    ok = rep.passed and rep.measured <= 1e-6
    verdict(4, "trace and unitality drift",
            ok, f"worst drift {rep.measured:.3g} <= 1e-06")
    assert ok


def test_criterion_05_choi_positivity_and_witness():
    cfg = config_for("choi")
    pos = check_choi_positivity(cfg)
    wit = check_choi_witness(cfg)
    ok = (pos.passed and pos.measured >= -1e-8
          and wit.passed and wit.measured <= -0.01)
    verdict(5, "Choi block signs",
            ok, f"gaussian min eig {pos.measured:.3g} >= -1e-08, "
                f"signed witness min eig {wit.measured:.3g} <= -0.01")
    assert ok


def test_criterion_06_semigroup_laws():
    cfg = config_for("heatflow")
    tv = check_semigroup_tv(cfg)
    comp = check_semigroup_composition(cfg)
    ok = (tv.passed and tv.measured <= 1e-3
          and comp.passed and comp.measured <= 2e-3)
    verdict(6, "semigroup laws",
            ok, f"convolution TV {tv.measured:.3g} <= 1e-03, "
                f"composition gap {comp.measured:.3g} <= 2e-03")
    assert ok


def test_criterion_07_generator_coefficient_scaling():
    cfg = config_for("heatflow")
    rep = check_generator_scaling(cfg)
    unit_err = measured(rep, "unit_z_abs_error")
    ok = rep.passed and unit_err <= 1e-2 and rep.measured <= 2e-2
    verdict(7, "generator scaling",
            ok, f"unit-z coefficient error {unit_err:.3g} <= 1e-02, "
                f"scaling deviation {rep.measured:.3g} <= 2e-02")
    assert ok


def test_criterion_08_band_limited_approximant():
    cfg = config_for("lemma37")
    band = check_lemma_band_limit(cfg)
    sweep = check_lemma_tv_sweep(cfg)
    formula = check_lemma_ft_formula(cfg)
    ok = (band.passed and band.measured <= 1e-6
          and sweep.passed and measured(sweep, "max_tv_rise") < 0
          and sweep.measured <= 0.05
          and formula.passed and formula.measured <= 1e-6)
    verdict(8, "band-limited approximant",
            ok, f"off-band sup {band.measured:.3g} <= 1e-06, "
                f"TV at t=16 {sweep.measured:.3g} <= 0.05 decreasing, "
                f"closed-form rel {formula.measured:.3g} <= 1e-06")
    assert sweep.params["times"] == [1.0, 4.0, 16.0]
    assert ok


def test_criterion_09_distinguishability_decay():
    cfg = config_for("purity")
    rep = check_purity_decay(cfg)
    start_err = measured(rep, "initial_distance_error")
    ok = (rep.passed
          and start_err <= 1e-8
          and measured(rep, "max_distance_rise") < 0
          and rep.measured < 0.2)
    verdict(9, "distinguishability decay",
            ok, f"d(0) error {start_err:.3g} <= 1e-08, "
                f"strictly decreasing, d {rep.measured:.3g} < 0.2 by t <= 10")
    assert rep.params["truncation"] == 40
    assert ok


def test_criterion_10_certified_bound():
    cfg = config_for("purity")
    rep = check_purity_certificate(cfg)
    cert = rep.details
    inner = measured(rep, "pairing_inner_product")
    ok = (rep.passed
          and rep.measured <= cert["term1"] + cert["term2"] + 1e-6
          and inner <= 1e-8)
    verdict(10, "certified bound",
            ok, f"measured {rep.measured:.3g} <= "
                f"{cert['term1']:.3g} + {cert['term2']:.3g} + 1e-06, "
                f"pairing {inner:.3g} <= 1e-08")
    assert rep.params["t"] == 16.0 and rep.params["delta"] == 1.0
    assert ok


def test_criterion_11_band_annihilated_profiles():
    cfg = config_for("beurling")
    mono = check_beurling_monotonicity(cfg)
    floor = check_beurling_trace_bound(cfg)
    ok = (mono.passed and measured(mono, "max_trace_norm_rise") <= 1e-9
          and measured(mono, "max_hs_rise") <= 1e-9
          and floor.passed and floor.measured >= 1.0 - 1e-6)
    verdict(11, "band-annihilated profiles",
            ok, f"distance monotone over eps {mono.params['epsilons']}, "
                f"trace-one floor {floor.measured:.3g} >= 1 - 1e-06")
    assert mono.params["truncation"] == 12
    assert ok


def test_criterion_12_transform_ring_decay():
    cfg = config_for("weyl-check")
    rep = check_riemann_lebesgue(cfg)
    tail = measured(rep, "tail_max_beyond_4p3")
    ok = rep.passed and rep.measured <= 1e-4 and tail <= 0.01
    verdict(12, "transform ring decay",
            ok, f"profile error {rep.measured:.3g} <= 1e-04, "
                f"tail beyond 4.3 {tail:.3g} <= 0.01")
    assert ok
