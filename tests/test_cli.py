"""Command-line behavior: config resolution, artifacts, exit statuses."""

import argparse
import ast
import csv
import inspect
import json
import math
import re
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ccrflow import channels, cli, phase_space
from ccrflow.cli import (
    ConfigError,
    RunConfig,
    _COMMON,
    _DEFAULTS,
    _parse_float_list,
    _parse_probe_spec,
    check_generator_scaling,
    check_purity_certificate,
    main,
    resolve_config,
)


def make_args(**overrides) -> argparse.Namespace:
    base = dict(config=None, out=None, truncation=None,
                times=None, delta=None, json_summary=False)
    base.update(overrides)
    return argparse.Namespace(**base)


def test_parse_helpers():
    assert _parse_float_list("1, 2.5,  4", "times") == (1.0, 2.5, 4.0)
    with pytest.raises(ConfigError):
        _parse_float_list("1, nope", "times")


def test_probe_specs():
    assert _parse_probe_spec("vacuum") == ("number", 0)
    assert _parse_probe_spec("one") == ("number", 1)
    assert _parse_probe_spec("number:3") == ("number", 3)
    assert _parse_probe_spec("coherent:0.5+0.5j") == ("coherent", 0.5 + 0.5j)
    for bad in ("number:x", "coherent:?", "squeezed:1", "number:", "number:-1"):
        with pytest.raises(ConfigError):
            _parse_probe_spec(bad)


def test_run_config_validation():
    good = dict(_COMMON)
    good.update(_DEFAULTS["choi"])
    RunConfig(**good)
    for patch in (
        dict(truncation=1),
        dict(truncation=1000),
        dict(times=()),
        dict(times=(0.5, 0.25)),
        dict(times=(-1.0,)),
        dict(delta=0.0),
        dict(delta=-2.0),
        dict(delta=100.0),
        dict(epsilons=(0.0,)),
        dict(epsilons=(math.inf, 0.5)),
        dict(epsilons=(math.nan,)),
        dict(budget=0.0),
        dict(budget=-1.5),
        dict(budget=math.inf),
        dict(budget=math.nan),
        dict(probes=()),
        dict(probes=("nonsense:?",)),
        dict(seed=-1),
    ):
        with pytest.raises(ConfigError):
            RunConfig(**{**good, **patch})


def test_resolve_config_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[common]\n"
        "truncation = 20\n"
        "seed = 7\n"
        "[choi]\n"
        "truncation = 28\n"
        "times = 0.75\n"
    )
    # defaults only
    cfg = resolve_config("choi", make_args())
    assert cfg.truncation == _DEFAULTS["choi"]["truncation"]
    assert cfg.seed == _COMMON["seed"]
    # file: [common] applies, [choi] wins over it
    cfg = resolve_config("choi", make_args(config=str(cfg_file)))
    assert cfg.truncation == 28
    assert cfg.times == (0.75,)
    assert cfg.seed == 7
    # the [choi] section does not leak into other subcommands
    cfg = resolve_config("lemma37", make_args(config=str(cfg_file)))
    assert cfg.truncation == 20
    # flags beat the file
    cfg = resolve_config(
        "choi", make_args(config=str(cfg_file), truncation=32, times="0.1,0.2")
    )
    assert cfg.truncation == 32
    assert cfg.times == (0.1, 0.2)


def test_resolve_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        resolve_config("choi", make_args(config="/nonexistent/run.cfg"))


def test_main_choi_writes_artifacts_and_passes(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["choi", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "[PASS] choi_positivity" in captured
    assert "[PASS] choi_witness" in captured
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"version", "checks"}
    names = [c["name"] for c in summary["checks"]]
    assert names == ["choi_positivity", "choi_witness"]
    assert all(set(c) >= {"name", "params", "measured", "bound", "pass"}
               for c in summary["checks"])
    assert (out / "choi" / "choi_positivity.json").is_file()
    assert (out / "choi" / "choi_witness.json").is_file()
    assert (out / "run_metadata.json").is_file()


def test_choi_checks_a_long_time_on_its_substep_channel(tmp_path):
    # one quadrature step at t = 1 would clip more than 1e-6 of its mass at
    # N = 24; the check runs the substeps the flow composes
    out = tmp_path / "artifacts"
    assert main(["choi", "--times", "1", "--out", str(out)]) == 0
    rep = json.loads((out / "choi" / "choi_positivity.json").read_text())
    assert rep["params"]["substeps"] == 2
    assert rep["pass"] is True


def test_choi_checks_the_identity_time(tmp_path):
    # t = 0 is the identity channel: its Choi block is the rank-one
    # projector onto the vectorized identity, eigenvalues 0 and the block 4
    out = tmp_path / "artifacts"
    assert main(["choi", "--times", "0", "--out", str(out)]) == 0
    rep = json.loads((out / "choi" / "choi_positivity.json").read_text())
    assert rep["params"]["substeps"] == 0
    assert rep["pass"] is True
    assert abs(rep["details"]["max_eigenvalue"] - 4.0) <= 1e-12


@pytest.mark.parametrize("sub,times", [("lemma37", "0,1"), ("purity", "0"),
                                       ("all", "0")])
def test_approximant_families_refuse_the_identity_time_at_config(tmp_path, capsys,
                                                                 sub, times):
    # no band-limited probability measure approximates the point mass at
    # t = 0, so the refusal comes before any family writes an artifact
    out = tmp_path / "o"
    assert main([sub, "--times", times, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "t = 0" in err
    assert not out.exists()


def test_choi_refuses_a_one_level_block_at_config(tmp_path, capsys):
    # below N = 8 the block min(4, N // 4) has one level, where the witness's
    # balanced pair of atoms gives a zero Choi scalar; N = 8 has two levels
    out = tmp_path / "o"
    assert main(["choi", "--truncation", "7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "two-level Choi block" in err
    assert not out.exists()
    assert main(["choi", "--truncation", "8", "--out", str(out)]) == 0
    rep = json.loads((out / "choi" / "choi_witness.json").read_text())
    assert rep["params"]["block"] == 2
    assert rep["measured"] == pytest.approx(-0.626, abs=1e-3)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_heatflow_refuses_a_spectral_grid_that_fails_its_probe_at_config(tmp_path, capsys, n):
    # the vacuum round trip on _spectral_grid(N) reads 2.75e-1, 2.09e-3,
    # 4.05e-2 and 5.50e-3 against 1e-3, which path_agreement would meet
    # mid-run, after eigen_relation's artifacts
    out = tmp_path / "o"
    assert main(["heatflow", "--truncation", str(n), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and f"heatflow at truncation {n}" in err
    assert "vacuum round-trip probe" in err
    # heatflow derives its grid from the truncation: no flag refines or widens it
    assert "refine the spacing" not in err and "choose another" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["lemma37", "purity"])
@pytest.mark.parametrize("delta", ["1e-3", "0.01", "25", "1e-200", "1e-308", "5e-324"])
def test_a_delta_past_the_lemma_grid_bound_fails_at_config(tmp_path, capsys, subcommand, delta):
    # default_lemma_grid(1e-3) would hold 804,248^2 nodes (4.71 TiB a real table),
    # 0.01 80,428^2 and 25 (whose spacing keeps off-band samples off the
    # band's images) 3,428^2; none is allocated before the refusal.  Past
    # 1e-307 the node count is infinite, and at 1e-200 it has 200 digits:
    # the message names neither
    out = tmp_path / "o"
    assert main([subcommand, "--delta", delta, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and f"{subcommand}: delta {float(delta):g}" in err
    assert "takes delta from about 0.2777 to 21.13" in err
    assert not re.search(r"\d{6}", err)
    assert not out.exists()


def test_the_lemma_grid_bound_admits_delta_three_tenths():
    # 2,684 nodes per axis: lemma37 runs there with a peak of about 232 MB
    for subcommand in ("lemma37", "purity"):
        assert resolve_config(subcommand, make_args(delta="0.3")).delta == 0.3
    assert phase_space.default_lemma_grid(0.3).points_per_axis == 2684


def test_lemma_band_limit_holds_past_the_fixed_spacing_alias():
    # at spacing 0.5 the off-band samples (out to 3 delta) met the band's
    # images (within 7 delta / 8 of multiples of 4 pi / h) from delta 6.49;
    # delta 8 read 0.062 there, and its grid now takes 1,100 nodes per axis
    cli._lemma_rows.cache_clear()
    rep = cli.check_lemma_band_limit(resolve_config("lemma37", make_args(times="1", delta="8")))
    cli._lemma_rows.cache_clear()
    assert rep.params["grid_points"] == 1100
    assert rep.passed and rep.measured < 1e-14


def test_heatflow_runs_at_the_first_truncation_past_the_probe_refusals(tmp_path):
    # N = 5, 7 and 8 pass the probe and keep their generator_scaling verdicts
    assert main(["heatflow", "--truncation", "9", "--out", str(tmp_path)]) == 0


def test_spectral_checks_transform_each_operand_once(monkeypatch):
    # path_agreement's ten states at two times, and semigroup_composition's
    # two states at (s + t, s) plus the composed step on the first flow
    counts = []
    original = channels.char_function

    def counting(a, grid):
        counts[-1] += 1
        return original(a, grid)

    monkeypatch.setattr(channels, "char_function", counting)
    cfg = resolve_config("heatflow", make_args())
    for check in (cli.check_path_agreement, cli.check_semigroup_composition):
        counts.append(0)
        assert check(cfg).passed
    assert counts == [10, 4]


def test_purity_decay_reads_the_last_time_past_t_0(tmp_path):
    # d(0) = 2 by definition; with no time in (0, 10] the verdict reads the
    # last time, d(16) = 0.0226, and not the start
    out = tmp_path / "o"
    assert main(["purity", "--times", "0,16", "--out", str(out)]) == 0
    rep = json.loads((out / "purity" / "purity_decay.json").read_text())
    assert rep["pass"] is True
    assert rep["measured"] == pytest.approx(0.0226, abs=1e-4)


def test_purity_reads_t_0_before_its_last_time():
    cfg = resolve_config("purity", make_args(times="0,1"))
    assert cfg.times == (0.0, 1.0)


def test_main_artifacts_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["choi", "--out", str(out1)]) == 0
    assert main(["choi", "--out", str(out2)]) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        if rel.name == "run_metadata.json":
            continue  # the one deliberately non-reproducible file
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_run_metadata_times_every_check(tmp_path, monkeypatch):
    out = tmp_path / "a"
    assert main(["choi", "--out", str(out)]) == 0
    meta = json.loads((out / "run_metadata.json").read_text())
    summary = (out / "summary.json").read_text()
    names = [c["name"] for c in json.loads(summary)["checks"]]
    assert sorted(meta["check_wall_s"]) == sorted(names)
    assert all(seconds >= 0 for seconds in meta["check_wall_s"].values())
    assert meta["total_wall_s"] >= sum(meta["check_wall_s"].values())
    assert meta["blas"]["name"]
    assert all(key.endswith("_NUM_THREADS") for key in meta["thread_pins"])
    assert meta["peak_rss_mb"] > 0
    # the huge page mode moves peak RSS; None where the kernel has none
    thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    if thp.exists():
        assert f"[{meta['transparent_hugepage']}]" in thp.read_text()
    else:
        assert meta["transparent_hugepage"] is None
    # timings and the machine stay in the metadata, out of the
    # reproducible artifacts
    for text in (summary, *(path.read_text() for path in (out / "choi").iterdir())):
        assert "wall" not in text and "hugepage" not in text and "peak_rss" not in text
    # no peak memory where the resource module is missing
    monkeypatch.setattr(cli, "resource", None)
    assert main(["choi", "--out", str(tmp_path / "b")]) == 0
    assert json.loads((tmp_path / "b" / "run_metadata.json").read_text())["peak_rss_mb"] is None


def test_run_metadata_counts_kernel_builds_per_check(tmp_path):
    # from an empty cache: eigen_relation builds t = 0.25; path_agreement
    # adds t = 0.5; generator_scaling builds the four times its three z need
    channels._content_kernel.cache_clear()
    out = tmp_path / "a"
    assert main(["heatflow", "--out", str(out)]) == 0
    meta = json.loads((out / "run_metadata.json").read_text())
    counts = meta["check_kernels"]
    assert sorted(counts) == sorted(meta["check_wall_s"])
    builds = {check: c["builds"] for check, c in counts.items() if c["builds"]}
    assert builds == {"eigen_relation": 1, "path_agreement": 1, "generator_scaling": 4}
    assert all(set(c) == {"builds", "cache_hits"} for c in counts.values())
    assert counts["conservation"]["cache_hits"] > 0
    # each apply is one build or one cache hit
    applies = {check: c["builds"] + c["cache_hits"] for check, c in counts.items()
               if c["builds"] + c["cache_hits"]}
    assert applies == {"eigen_relation": 10, "path_agreement": 30, "conservation": 6,
                       "generator_scaling": 6}
    for path in (out / "heatflow").iterdir():
        assert "cache_hits" not in path.read_text()


def test_path_agreement_reports_the_trace_it_renormalizes():
    cfg = RunConfig(**{**_COMMON, **_DEFAULTS["heatflow"]})
    report = cli.check_path_agreement(cfg)
    drift = report.details["trace_renormalization_max"]
    assert 0.0 < drift <= 1e-6


def test_main_rejects_invalid_config(tmp_path, capsys):
    code = main(["choi", "--out", str(tmp_path), "--times", ""])
    assert code == 2
    assert "invalid config" in capsys.readouterr().err


def test_failed_subcommand_keeps_the_summary_of_those_that_finished(tmp_path, capsys):
    # weyl-check, heatflow, choi and lemma37 pass at N = 28; purity then
    # finds its budget infeasible (1.51502 > 1.5), after their artifacts
    # are on disk
    out = tmp_path / "o"
    assert main(["all", "--truncation", "28", "--out", str(out)]) == 2
    assert "ccrflow: purity" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    meta = json.loads((out / "run_metadata.json").read_text())
    names = [c["name"] for c in summary["checks"]]
    finished = ("weyl_check", "heatflow", "choi", "lemma37")
    assert sorted(names) == sorted({path.stem for sub in finished
                                    for path in (out / sub).iterdir()})
    assert sorted(meta["check_wall_s"]) == sorted(names)
    assert not (out / "purity").exists()
    assert summary["error"] == meta["error"]
    assert summary["error"]["subcommand"] == "purity"
    assert "exceeds the budget" in summary["error"]["message"]


def test_main_maps_numeric_preconditions_to_exit_2(tmp_path, capsys):
    # a config only the numerics can reject: valid shape, but beurling's
    # 47 constraints outnumber the 25 degrees of freedom of N = 5
    code = main(["beurling", "--out", str(tmp_path), "--truncation", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "ccrflow: beurling" in err
    assert "47 constraints" in err


def test_heatflow_runs_the_identity_time(tmp_path):
    # t = 0 is the identity: every check runs it, with no substep to build,
    # and alone it renormalizes no trace
    for times in ("0,0.25", "0"):
        out = tmp_path / times
        assert main(["heatflow", "--out", str(out), "--times", times]) == 0
        rep = json.loads((out / "heatflow" / "eigen_relation.json").read_text())
        assert rep["params"]["substeps"] == 0
    agreement = json.loads((out / "heatflow" / "path_agreement.json").read_text())
    assert agreement["details"]["trace_renormalization_max"] == 0.0


def test_heatflow_long_times_get_a_verdict_not_a_refusal(tmp_path, capsys):
    # t = 1.5 exceeds max_single_step(30) = 0.71: eigen_relation runs three
    # substeps, as evolve_state does, and misses its bound (6.1e-3 > 1e-3)
    # where a single step used to clip mass and exit 2
    assert main(["heatflow", "--out", str(tmp_path), "--times", "1.5,2"]) == 1
    line = next(x for x in capsys.readouterr().out.splitlines() if "eigen_relation" in x)
    assert line.startswith("[FAIL] eigen_relation: max_rel_error 0.00")
    assert line.endswith(" vs bound <= 0.001")
    summary = json.loads((tmp_path / "summary.json").read_text())
    verdicts = {c["name"]: c["pass"] for c in summary["checks"]}
    assert verdicts == {"eigen_relation": False, "path_agreement": True,
                        "conservation": True, "semigroup_tv": True,
                        "semigroup_composition": True, "generator_scaling": True}
    eigen = next(c for c in summary["checks"] if c["name"] == "eigen_relation")
    assert eigen["params"]["substeps"] == 3


def test_conservation_substeps_times_past_one_quadrature_step(tmp_path):
    # t = 2 exceeds max_single_step(30) = 0.71: three substeps, as in
    # evolve_state, where a single step used to clip mass and exit 2
    assert main(["heatflow", "--out", str(tmp_path), "--times", "0.25,2"]) == 0
    rows = (tmp_path / "heatflow" / "conservation.csv").read_text().split()
    assert [row.split(",")[1] for row in rows] == ["substeps", "1", "3"]


def test_main_reports_honest_failure_with_exit_1(tmp_path, capsys):
    # one lemma time: the t=1 approximant is nowhere near the 0.05 target,
    # so the sweep check fails while remaining a valid configuration
    code = main(["lemma37", "--out", str(tmp_path), "--times", "1"])
    assert code == 1
    captured = capsys.readouterr().out
    assert "[FAIL] lemma_tv_sweep" in captured
    summary = json.loads((tmp_path / "summary.json").read_text())
    verdicts = {c["name"]: c["pass"] for c in summary["checks"]}
    assert verdicts["lemma_tv_sweep"] is False
    assert verdicts["lemma_band_limit"] is True


def detail_violations(rep: dict, csv_path: Path) -> list[str]:
    """Where a report's details restate a condition, a param, a report key
    or a numeric CSV column, or are nested or boolean."""
    details = rep["details"]
    named = {c["name"] for c in rep["conditions"]} | set(rep["params"]) | set(rep)
    found = [f"restated {key}" for key in sorted(set(details) & named)]
    for key, value in details.items():
        if any(isinstance(x, (bool, dict, list))
               for x in (value if isinstance(value, list) else [value])):
            found.append(f"nested or boolean {key}")
    columns = []
    if csv_path.exists():
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for col in rows[0]:
            try:
                columns.append([float(row[col]) for row in rows])
            except ValueError:  # a label column
                pass
    found += [f"curve column {key}" for key, value in details.items() if value in columns]
    return found


def test_every_verdict_is_the_conjunction_of_its_conditions(tmp_path):
    senses = {"<=": lambda m, b: m <= b, "<": lambda m, b: m < b, ">=": lambda m, b: m >= b}
    assert main(["all", "--out", str(tmp_path)]) == 0
    artifacts = [p for p in tmp_path.rglob("*.json")
                 if p.name not in ("summary.json", "run_metadata.json")]
    assert len(artifacts) == 18
    for path in artifacts:
        rep = json.loads(path.read_text())
        assert rep["pass"] == all(c["pass"] for c in rep["conditions"]), path.name
        # the headline is the first condition
        first = rep["conditions"][0]
        assert (rep["measured"], rep["bound"]) == (first["measured"], first["bound"]), path.name
        for c in rep["conditions"]:
            assert set(c) == {"name", "measured", "sense", "bound", "pass"}
            assert c["pass"] == senses[c["sense"]](c["measured"], c["bound"]), c
            assert math.isfinite(c["measured"]) and math.isfinite(c["bound"]), c
        # each number is stated once: details hold flat, non-boolean values
        # that no condition, param, report key or curve column holds
        assert detail_violations(rep, path.with_suffix(".csv")) == [], path.name


def test_one_point_grids_keep_their_verdicts(tmp_path, capsys):
    # one time or one epsilon leaves no consecutive pair to be monotone over:
    # each check is still decided by the rest of its verdict
    def run(name, *argv):
        out = tmp_path / name
        code = main([name, "--out", str(out), *argv])
        summary = json.loads((out / "summary.json").read_text())
        return code, {c["name"]: c for c in summary["checks"]}

    code, checks = run("lemma37", "--times", "1")
    assert code == 1
    assert {k: c["pass"] for k, c in checks.items()} == {
        "lemma_band_limit": True, "lemma_tv_sweep": False, "lemma_ft_formula": True}
    sweep = json.loads((tmp_path / "lemma37" / "lemma37" / "lemma_tv_sweep.json").read_text())
    # one time has no rise to hold against 0
    assert [c["name"] for c in sweep["conditions"]] == ["final_tv"]
    assert sweep["measured"] > sweep["bound"] == 0.05  # the final TV alone fails

    code, checks = run("purity", "--times", "8")
    assert code == 0
    assert all(c["pass"] for c in checks.values()) and len(checks) == 3
    decay = json.loads((tmp_path / "purity" / "purity" / "purity_decay.json").read_text())
    assert [c["name"] for c in decay["conditions"]] == ["final_distance",
                                                         "initial_distance_error"]

    cfg_file = tmp_path / "one_epsilon.ini"
    cfg_file.write_text("[beurling]\nepsilons = 1\n")
    code, checks = run("beurling", "--config", str(cfg_file))
    assert code == 0
    mono = checks["beurling_monotonicity"]
    assert mono["pass"] and mono["measured"] == mono["bound"]
    assert checks["beurling_trace_bound"]["pass"]
    assert "[PASS] beurling_monotonicity: final_trace_norm_distance " in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["number:-1", "number:99"])
def test_bad_probe_fails_before_any_check_runs(tmp_path, capsys, spec):
    # number:99 parses but does not fit purity's N = 40
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"[purity]\nprobes = vacuum, {spec}\n")
    out = tmp_path / "o"
    assert main(["all", "--config", str(cfg_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and repr(spec) in err
    assert not out.exists()


def test_infinite_epsilon_fails_before_any_check_runs(tmp_path, capsys):
    # beurling runs last: only a config refusal stops the run before five subcommands write
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[beurling]\nepsilons = inf, 0.5\n")
    out = tmp_path / "o"
    assert main(["all", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "invalid config: epsilons must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_common_probe_binds_only_the_readers_of_probes(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[common]\nprobes = number:20\n")
    assert resolve_config("beurling", make_args(config=str(cfg_file))).truncation == 12
    resolve_config("purity", make_args(config=str(cfg_file)))
    with pytest.raises(ConfigError, match="probe 'number:20' at truncation 12"):
        resolve_config("purity", make_args(config=str(cfg_file), truncation=12))


def test_json_summary_flag(tmp_path, capsys):
    code = main(["choi", "--out", str(tmp_path), "--json-summary"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(lines[-1])
    assert payload["version"]
    assert [c["name"] for c in payload["checks"]] == [
        "choi_positivity", "choi_witness",
    ]


@pytest.mark.parametrize("text", [
    "[common]\ntruncaton = 3\n",        # misspelled key
    "[common]\ndeltas = 0.5\n",          # retired alias of delta
    "[purity]\nepsilon = 1.0\n",         # bad key in another subcommand's section
    "[lemma-37]\ntimes = 1\n",           # misspelled section
    "[all]\nseed = 3\n",                 # 'all' has no section of its own
    "[DEFAULT]\nseed = 3\n",
])
def test_config_rejects_unknown_sections_and_keys(tmp_path, capsys, text):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    with pytest.raises(ConfigError, match="unknown config"):
        resolve_config("choi", make_args(config=str(cfg_file)))
    code = main(["choi", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown config" in capsys.readouterr().err


def test_config_accepts_every_documented_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[common]\n"
        "truncation = 20\ntimes = 0.5\ndelta = 0.5\nepsilons = 1\nbudget = 2\n"
        "probes = vacuum\nout = elsewhere\nseed = 3\n"
        "[purity]\ntimes = 1, 2\n"
    )
    cfg = resolve_config("choi", make_args(config=str(cfg_file)))
    assert (cfg.truncation, cfg.times, cfg.delta) == (20, (0.5,), 0.5)
    assert (cfg.epsilons, cfg.probes, cfg.seed) == ((1.0,), ("vacuum",), 3)
    assert cfg.budget == 2.0
    assert cfg.out_dir == Path("elsewhere")


def test_delta_takes_one_band_radius(tmp_path, capsys):
    # every check reads one radius, so a list is refused, not truncated
    code = main(["choi", "--out", str(tmp_path / "o"), "--delta", "0.5,2"])
    assert code == 2
    assert "bad delta" in capsys.readouterr().err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[common]\ndelta = 0.5, 2\n")
    code = main(["choi", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bad delta" in capsys.readouterr().err


def test_certificate_budget_has_its_own_key(tmp_path, monkeypatch):
    # the disk radii of beurling no longer leak into purity's budget
    seen = []

    class Stop(Exception):
        pass

    def record(rho1, rho2, t, epsilon, delta):
        seen.append(epsilon)
        raise Stop

    monkeypatch.setattr(cli, "certified_bound", record)
    cfg_file = tmp_path / "run.cfg"
    for text in ("[common]\nepsilons = 0.3\n",
                 "[common]\nepsilons = 0.3\n[purity]\nbudget = 2.5\n"):
        cfg_file.write_text(text)
        cfg = resolve_config("purity", make_args(config=str(cfg_file)))
        with pytest.raises(Stop):
            check_purity_certificate(cfg)
    assert seen == [1.5, 2.5]
    cfg_file.write_text("[purity]\nbudget = 1, 2\n")
    with pytest.raises(ConfigError, match="bad budget"):
        resolve_config("purity", make_args(config=str(cfg_file)))


def test_generator_scaling_records_the_times_it_ran(monkeypatch):
    ran = []
    original = channels.heat_channel

    def record(t, n_levels):
        ran.append(t)
        return original(t, n_levels)

    monkeypatch.setattr(channels, "heat_channel", record)
    rep = check_generator_scaling(resolve_config("heatflow", make_args(truncation=12)))
    base = rep.params["base_t_values"]
    listed = [b / (x * x + y * y) ** 2 for x, y in rep.params["z_values"] for b in base]
    assert sorted(ran) == sorted(listed)


def test_lemma_checks_share_one_approximant_per_time(monkeypatch):
    built = []
    original = cli.band_limited_approximant

    def counting(t, delta, grid):
        built.append(t)
        return original(t, delta, grid)

    monkeypatch.setattr(cli, "band_limited_approximant", counting)
    cli._lemma_rows.cache_clear()
    cfg = resolve_config("lemma37", make_args(times="1,4"))
    names = [rep.check for rep, _ in cli.run_subcommand("lemma37", cfg)]
    assert names[:2] == ["lemma_band_limit", "lemma_tv_sweep"]
    assert built == [1.0, 4.0]  # once per time, across both checks
    assert cli._lemma_rows.cache_info().currsize == 0  # nothing outlives the run


def test_lemma_band_limit_holds_one_approximant_table_at_a_time():
    # three times on the 808 x 808 grid: each 5.2 MB table dies before the
    # next and no complex (M, M) table is built, 16.6 MB traced; keeping
    # every time's table beside full complex transforms takes 45 MB
    cfg = resolve_config("lemma37", make_args())
    cli._lemma_rows.cache_clear()
    tracemalloc.start()
    try:
        rep = cli.check_lemma_band_limit(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        cli._lemma_rows.cache_clear()
    assert rep.params["grid_points"] == 808 and len(rep.curve) == 3
    assert peak <= 20e6


def test_lemma_row_takes_the_lattice_moduli_in_place(monkeypatch):
    # with the approximant built beforehand and one off-band point (a full
    # sample's point chunks would peak above the lattice step), a row's peak
    # at delta 1 is the complex half of its transform (405 x 808, 5.2 MB) and
    # _dft_half's column blocks, 6.4 MB traced; moduli taken into a float
    # copy of the half added 1.6 MB (8.0 MB).  The bound leaves 1.5 MB over
    # the complex half
    delta = 1.0
    grid = phase_space.default_lemma_grid(delta)
    nu = phase_space.band_limited_approximant(1.0, delta, grid)
    monkeypatch.setattr(cli, "band_limited_approximant", lambda t, d, g: nu)
    tracemalloc.start()
    try:
        row = cli._lemma_row(1.0, delta, grid, np.array([[1.5 * delta, 0.0]]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = grid.points_per_axis
    assert m == 808 and row["offband_sup"] <= 1e-6
    assert peak <= (m // 2 + 1) * m * 16 + 1.5e6


def test_purity_certificate_holds_at_most_three_lemma_tables():
    # purity-long's certificate (N = 32, t = 8, delta 1) on the 808 x 808
    # lemma grid, one real table 5.2 MB: 13.9 MB traced.  A gap built beside
    # the Gaussian and kept through the pairing transform, and the
    # approximant's complex half beside its moduli and their mirror, took 19.1 MB
    cfg = resolve_config("purity", make_args(truncation=32, times="0,0.5,1,2,4,8"))
    tracemalloc.start()
    try:
        rep = check_purity_certificate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.params == {"truncation": 32, "t": 8.0, "delta": 1.0, "epsilon": 1.5}
    m = phase_space.default_lemma_grid(1.0).points_per_axis
    assert m == 808 and peak <= 3 * m * m * 8


def test_lemma_run_evaluates_the_plateau_profile_once(monkeypatch):
    calls = []
    original = phase_space.plateau_profile

    def counting(delta):
        calls.append(delta)
        return original(delta)

    monkeypatch.setattr(phase_space, "plateau_profile", counting)
    phase_space._approximant_band.cache_clear()
    cli._lemma_rows.cache_clear()
    cfg = resolve_config("lemma37", make_args(times="1,4,16"))
    reports = [rep for rep, _ in cli.run_subcommand("lemma37", cfg)]
    assert len(reports[0].curve) == 3
    assert calls == [cfg.delta]  # once for the grid and delta, not once per time
    # what the cache keeps is read-only and box-sized, no (M, M) table
    grid = phase_space.default_lemma_grid(cfg.delta)
    for a in phase_space._approximant_band(grid, cfg.delta)[1:]:
        assert not a.flags.writeable and a.size < grid.points_per_axis ** 2 // 100


def test_band_limit_counts_the_columns_the_dual_band_transforms(monkeypatch):
    blocks, phases = [], []
    rfft, centered_phases = np.fft.rfft, phase_space._centered_phases

    def recording_rfft(a, *args, **kwargs):
        blocks.append(a.copy())
        return rfft(a, *args, **kwargs)

    def recording_phases(m, a, b, sign):
        phases.append((len(a), len(b)))
        return centered_phases(m, a, b, sign)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    monkeypatch.setattr(phase_space, "_centered_phases", recording_phases)
    cli._lemma_rows.cache_clear()
    rep = cli.check_lemma_band_limit(resolve_config("lemma37", make_args(times="1")))
    cli._lemma_rows.cache_clear()
    # the approximant's inverse contracts one 27 x 27 block (the half lattice
    # against its rows, its columns against the whole lattice), and the rffts
    # are the dense forward transform of the approximant in column blocks
    m = rep.params["grid_points"]
    assert rep.details["dual_band_columns"] == 27
    # read off the boxes around the band and the delta disk, as on the lattice
    assert rep.details["qhat_support_nodes"] == 609
    assert rep.details["offband_lattice_nodes"] == 649_659
    assert phases == [(m // 2 + 1, 27), (27, m)]
    assert max(b.shape[1] for b in blocks) <= phase_space._CHUNK_ENTRIES // m
    # the signed blocks side by side are the whole table, each column once
    delta = rep.params["delta"]
    nu = phase_space.band_limited_approximant(1.0, delta, phase_space.default_lemma_grid(delta))
    np.testing.assert_array_equal(np.abs(np.hstack(blocks)), nu.weights)


@pytest.mark.parametrize("delta", ["0.3", "1.005"])
def test_band_limit_receipts_count_a_mirror_closed_disk(monkeypatch, delta):
    # with nodes at exact multiples of h the q_hat support is the delta-1
    # disk at delta 0.3 and 1.005 too; nodes at -L + k h read 611 and 613
    # nodes there, over 28 and 29 columns, as the box radii lost their mirror
    row = {"t": 1.0, "offband_sup": 0.0, "tv": 0.0, "points": 464}
    monkeypatch.setattr(cli, "_lemma_rows", lambda delta, times, seed: (row,))
    rep = cli.check_lemma_band_limit(resolve_config("lemma37", make_args(times="1", delta=delta)))
    grid = phase_space.default_lemma_grid(float(delta))
    inside = phase_space._lattice_box(grid, float(delta))[1] < float(delta)
    closed = inside & inside[::-1, ::-1]  # in band with its mirror
    assert rep.details["qhat_support_nodes"] == 609
    assert rep.details["dual_band_columns"] == 27
    assert rep.details["offband_lattice_nodes"] == grid.points_per_axis ** 2 - int(closed.sum())


# What each subcommand's checks read of the run configuration.
READS = {
    "weyl-check": {"truncation", "seed"},
    "heatflow": {"truncation", "times", "seed"},
    "choi": {"truncation", "times"},
    "lemma37": {"times", "delta", "seed"},
    "purity": {"truncation", "times", "delta", "budget", "probes"},
    "beurling": {"truncation", "epsilons", "seed"},
}
VALUES = {"truncation": "20", "times": "0.5", "delta": "0.5", "epsilons": "1",
          "budget": "2", "probes": "vacuum", "out": "elsewhere", "seed": "3"}
PARSED = {"truncation": 20, "times": (0.5,), "delta": 0.5, "epsilons": (1.0,),
          "budget": 2.0, "probes": ("vacuum",), "seed": 3}
UNREAD = [(sub, key) for sub in READS for key in VALUES if key not in READS[sub]]


def _cfg_reads(check) -> set:
    nodes = list(ast.walk(ast.parse(textwrap.dedent(inspect.getsource(check)))))
    reads = [n.attr for n in nodes if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id == "cfg"]
    # cfg is only ever read field by field, never handed on whole
    assert len(reads) == sum(isinstance(n, ast.Name) and n.id == "cfg" for n in nodes)
    return set(reads)


def test_settings_table_names_exactly_the_readers_of_each_key():
    # a check that starts reading a setting fails here until the table says so
    key_of = {field: key for key, (field, _, _) in cli._SETTINGS.items()}
    assert len(UNREAD) == 30  # 24 unread pairs, and `out` in all six sections
    assert cli._CONFIG_KEYS == tuple(VALUES)
    for sub, checks in cli._RUNNERS.items():
        fields = set().union(*(_cfg_reads(check) for check in checks))
        assert {key_of[f] for f in fields} == READS[sub], sub
        listed = {k for k, (_, _, readers) in cli._SETTINGS.items() if sub in readers}
        assert listed == READS[sub], sub


def test_subcommand_sections_set_what_their_checks_read(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    for sub, keys in READS.items():
        cfg_file.write_text(f"[{sub}]\n" + "".join(f"{k} = {VALUES[k]}\n" for k in keys))
        cfg = resolve_config(sub, make_args(config=str(cfg_file)))
        assert {k: getattr(cfg, k) for k in keys} == {k: PARSED[k] for k in keys}


@pytest.mark.parametrize("sub,key", UNREAD)
def test_subcommand_section_rejects_unread_keys(tmp_path, sub, key):
    # 24 unread pairs plus `out`, which is run-wide; the whole file is
    # checked, whichever subcommand runs
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"[{sub}]\n{key} = {VALUES[key]}\n")
    for runs in (sub, "heatflow" if sub != "heatflow" else "choi"):
        with pytest.raises(ConfigError, match=f"'{key}' in \\[{sub}\\] is read by no"):
            resolve_config(runs, make_args(config=str(cfg_file)))


def test_out_in_a_subcommand_section_is_not_dropped(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"[choi]\nout = {tmp_path / 'b_dir'}\n")
    code = main(["all", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "'out' in [choi]" in capsys.readouterr().err
    assert not (tmp_path / "b_dir").exists()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sub,key", [
    (sub, key) for sub, key in UNREAD if key in ("truncation", "times", "delta")
])
def test_single_subcommand_rejects_unread_flags(tmp_path, capsys, sub, key):
    code = main([sub, "--out", str(tmp_path), f"--{key}", VALUES[key]])
    assert code == 2
    err = capsys.readouterr().err
    assert f"'{key}' on the command line is read by no {sub} check" in err
    readers = ", ".join(s for s in READS if key in READS[s])
    assert f"the checks of {readers} read it" in err
    assert not (tmp_path / "summary.json").exists()


def test_all_and_common_reach_every_subcommand(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[common]\n" + "".join(f"{k} = {v}\n" for k, v in VALUES.items()))
    for sub in READS:
        cfg = resolve_config(sub, make_args(
            subcommand="all", config=str(cfg_file), truncation=24, times="1,2",
            delta="2", out=str(tmp_path / "o")))
        assert (cfg.truncation, cfg.times, cfg.delta) == (24, (1.0, 2.0), 2.0)
        assert (cfg.epsilons, cfg.budget, cfg.seed) == ((1.0,), 2.0, 3)
        assert cfg.out_dir == tmp_path / "o"


def test_certificate_report_records_the_bound_its_verdict_uses(monkeypatch):
    made = []
    original = cli.certified_bound

    def record(*args):
        made.append(original(*args))
        return made[-1]

    monkeypatch.setattr(cli, "certified_bound", record)
    rep = check_purity_certificate(resolve_config("purity", make_args(times="0,1")))
    assert rep is made[0]
    terms = rep.details
    assert rep.bound == terms["term1"] + terms["term2"] + terms["term3"]
    assert rep.conditions[1].name == "pairing_inner_product"
    assert rep.passed == (terms["slack"] > 0 and rep.conditions[1].measured <= 1e-8)
