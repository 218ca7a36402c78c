"""Command-line behavior: config resolution, artifacts, exit statuses."""

import argparse
import ast
import inspect
import json
import math
import textwrap
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from ccrflow import channels, cli
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


def test_run_metadata_times_every_check(tmp_path):
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
    # timings stay in the metadata, out of the reproducible artifacts
    assert "wall" not in summary
    for path in (out / "choi").iterdir():
        assert "wall" not in path.read_text()


def test_run_metadata_counts_kernel_builds_per_check(tmp_path, monkeypatch):
    # from an empty cache: eigen_relation builds the scale oracle's
    # two-atom channel (residues 0 and 2) and t = 0.25; path_agreement adds
    # t = 0.5; generator_scaling builds the four times its three z need
    channels._ensure_scale.cache_clear()
    monkeypatch.setattr(channels, "_kernels", OrderedDict())
    out = tmp_path / "a"
    assert main(["heatflow", "--out", str(out)]) == 0
    meta = json.loads((out / "run_metadata.json").read_text())
    counts = meta["check_kernels"]
    assert sorted(counts) == sorted(meta["check_wall_s"])
    builds = {check: c["builds"] for check, c in counts.items() if c["builds"]}
    assert builds == {"eigen_relation": 2, "path_agreement": 1, "generator_scaling": 4}
    assert counts["eigen_relation"]["residues_kept"] == 3
    assert counts["generator_scaling"]["residues_kept"] == 4
    assert counts["conservation"]["cache_hits"] > 0
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


def test_main_maps_numeric_preconditions_to_exit_2(tmp_path, capsys):
    # a grid only the numerics can reject: valid shape, but its first time
    # clips the Gaussian quadrature mass of eigen_relation's single step
    code = main([
        "heatflow", "--out", str(tmp_path), "--truncation", "8",
        "--times", "4.0,8.0",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "ccrflow: heatflow" in err
    assert "clipped mass" in err


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
        built.append(original(t, delta, grid))
        return built[-1]

    monkeypatch.setattr(cli, "band_limited_approximant", counting)
    cfg = resolve_config("lemma37", make_args(times="1,4"))
    names = [rep.check for rep, _ in cli.run_subcommand("lemma37", cfg)]
    assert names[:2] == ["lemma_band_limit", "lemma_tv_sweep"]
    assert len(built) == 2
    assert not any(nu.weights.flags.writeable for nu in built)
    assert cli._approximants == {}  # nothing outlives the run


def test_band_limit_counts_the_columns_the_dual_band_transforms(monkeypatch):
    widths = []
    original = np.fft.rfft

    def recording(a, *args, **kwargs):
        widths.append(a.shape[1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording)
    cli._approximants.clear()
    rep = cli.check_lemma_band_limit(resolve_config("lemma37", make_args(times="1")))
    cli._approximants.clear()
    # one approximant (its q_hat band) and one dense lattice transform
    assert rep.details["dual_band_columns"] == 27
    assert sorted(widths) == [27, rep.params["grid_points"]]


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
    assert rep.bound == terms["bound"] == terms["term1"] + terms["term2"] + terms["term3"]
    assert rep.passed == (terms["slack"] > 0
                          and terms["details"]["pairing_inner_product"] <= 1e-8)
