"""Command-line behavior: config resolution, artifacts, exit statuses."""

import argparse
import json
from pathlib import Path

import pytest

from ccrflow.cli import (
    ConfigError,
    RunConfig,
    _COMMON,
    _DEFAULTS,
    _parse_float_list,
    _parse_grid_arg,
    _parse_probe_spec,
    main,
    resolve_config,
)


def make_args(**overrides) -> argparse.Namespace:
    base = dict(config=None, out=None, truncation=None, grid=None,
                times=None, delta=None, json_summary=False)
    base.update(overrides)
    return argparse.Namespace(**base)


def test_parse_helpers():
    assert _parse_float_list("1, 2.5,  4", "times") == (1.0, 2.5, 4.0)
    with pytest.raises(ConfigError):
        _parse_float_list("1, nope", "times")
    assert _parse_grid_arg("6.5, 64") == (6.5, 64)
    with pytest.raises(ConfigError):
        _parse_grid_arg("6.5")
    with pytest.raises(ConfigError):
        _parse_grid_arg("a,b")


def test_probe_specs():
    assert _parse_probe_spec("vacuum") == ("number", 0)
    assert _parse_probe_spec("one") == ("number", 1)
    assert _parse_probe_spec("number:3") == ("number", 3)
    assert _parse_probe_spec("coherent:0.5+0.5j") == ("coherent", 0.5 + 0.5j)
    for bad in ("number:x", "coherent:?", "squeezed:1", "number:"):
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
        dict(deltas=()),
        dict(deltas=(-2.0,)),
        dict(epsilons=(0.0,)),
        dict(probes=()),
        dict(probes=("nonsense:?",)),
        dict(seed=-1),
        dict(grid=(0.0, 8)),
        dict(grid=(2.0, 7)),
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


def test_main_rejects_invalid_config(tmp_path, capsys):
    code = main(["choi", "--out", str(tmp_path), "--times", ""])
    assert code == 2
    assert "invalid config" in capsys.readouterr().err


def test_main_maps_numeric_preconditions_to_exit_2(tmp_path, capsys):
    # a grid only the numerics can reject: valid shape, but it clips the
    # Gaussian quadrature mass
    code = main([
        "heatflow", "--out", str(tmp_path), "--truncation", "8",
        "--times", "0.25,4.0",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "ccrflow: heatflow" in err


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
        "truncation = 20\ntimes = 0.5\ndelta = 0.5, 2\nepsilons = 1\n"
        "probes = vacuum\nout = elsewhere\nseed = 3\ngrid = 2, 8\n"
        "[purity]\ntimes = 1, 2\n"
    )
    cfg = resolve_config("choi", make_args(config=str(cfg_file)))
    assert (cfg.truncation, cfg.times, cfg.deltas) == (20, (0.5,), (0.5, 2.0))
    assert (cfg.epsilons, cfg.probes, cfg.seed) == ((1.0,), ("vacuum",), 3)
    assert (cfg.out_dir, cfg.grid) == (Path("elsewhere"), (2.0, 8))
