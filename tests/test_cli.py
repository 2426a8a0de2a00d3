"""Driver behavior: config resolution, exit codes, determinism, caching."""

import glob
import json
import os

import pytest

from transportlab import cli
from transportlab.cli import (RunConfig, RunReport, _downgrade, _parse_args,
                              _resolve_config, main, run)
from transportlab.errors import DomainError


def _cfg(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_resolve_config_precedence(tmp_path):
    cfg = _resolve_config(_parse_args(["verify", "gaussian", "--seed", "7"]))
    assert cfg.command == "verify"
    assert cfg.scenario == "gaussian"
    assert cfg.seed == 7
    assert cfg.formats == ("structured",)

    doc = _cfg(tmp_path, {"scenario": "wehrl", "seed": 3,
                          "params": {"probes": 50}, "format": "tabular",
                          "epsilon_schedule": [0.4, 0.2]})
    cfg = _resolve_config(_parse_args(["verify", "--config", doc]))
    assert cfg.scenario == "wehrl"
    assert cfg.seed == 3
    assert cfg.params == {"probes": 50}
    assert cfg.formats == ("tabular",)
    assert cfg.epsilon_schedule == (0.4, 0.2)

    # flags beat the config document; the positional beats both
    cfg = _resolve_config(_parse_args(
        ["verify", "gaussian", "--config", doc, "--seed", "9",
         "--epsilon-schedule", "0.5,0.1", "--format", "plotdata,structured"]))
    assert cfg.scenario == "gaussian"
    assert cfg.seed == 9
    assert cfg.epsilon_schedule == (0.5, 0.1)
    assert cfg.formats == ("plotdata", "structured")


def test_resolve_config_defaults_and_rejections(tmp_path):
    assert _resolve_config(_parse_args(["verify"])).scenario == "gaussian"
    assert _resolve_config(_parse_args(["geodesic"])).scenario == "wehrl"
    assert _resolve_config(_parse_args(["heatflow"])).scenario == "flow"
    assert _resolve_config(_parse_args(["selftest"])).scenario == "selftest"
    with pytest.raises(DomainError):
        _resolve_config(_parse_args(["scenario"]))
    with pytest.raises(DomainError):
        _resolve_config(_parse_args(["verify", "no_such_scenario"]))
    with pytest.raises(DomainError):
        _resolve_config(_parse_args(["verify", "gaussian",
                                     "--format", "yaml"]))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(DomainError):
        _resolve_config(_parse_args(["verify", "--config", str(bad)]))


def test_content_hash_covers_only_report_shaping_inputs():
    a = RunConfig(command="verify", scenario="gaussian", seed=1)
    b = RunConfig(command="verify", scenario="gaussian", seed=1,
                  out_dir="/tmp/x", cache_dir="/tmp/y",
                  formats=("tabular",))
    assert a.content_hash() == b.content_hash()
    c = RunConfig(command="verify", scenario="gaussian", seed=2)
    assert a.content_hash() != c.content_hash()


def test_exit_codes_from_verdict_mix():
    base = dict(config={}, config_hash="h")
    assert RunReport(**base).exit_code() == 0
    rep = RunReport(**base, certificates=[{"verdict": "pass"},
                                          {"verdict": "pass_with_slack"}])
    assert rep.exit_code() == 0
    rep = RunReport(**base, certificates=[{"verdict": "pass"},
                                          {"verdict": "inconclusive"}])
    assert rep.exit_code() == 2
    rep = RunReport(**base, certificates=[{"verdict": "inconclusive"},
                                          {"verdict": "fail"}])
    assert rep.exit_code() == 1
    rep = RunReport(**base, certificates=[{"verdict": "pass"}],
                    errors=[{"check": "x", "error": "boom"}])
    assert rep.exit_code() == 3


def test_downgrade_only_touches_passing_certificates():
    out = _downgrade({"verdict": "pass", "details": {}}, "mixing")
    assert out["verdict"] == "inconclusive"
    assert out["details"]["downgraded"] == "mixing"
    kept = _downgrade({"verdict": "fail", "details": {}}, "mixing")
    assert kept["verdict"] == "fail"


def test_main_maps_usage_and_execution_errors_to_3(tmp_path, capsys):
    assert main(["verify", "no_such_scenario"]) == 3
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 3
    assert main(["verify", "--bogus-flag"]) == 3
    assert main([]) == 3
    assert main(["--help"]) == 0
    # flow pairs have no transport verify suite; that is an execution error
    assert main(["verify", "flow"]) == 3
    capsys.readouterr()


def test_verify_gaussian_report_is_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        rc = main(["verify", "gaussian", "--seed", "4", "--out", str(d),
                   "--format", "structured,tabular,plotdata"])
        assert rc == 0
        outs.append(d)
    for name in ("report.json", "report.txt", "plotdata.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert (outs[0] / "timings.json").exists()
    doc = json.loads((outs[0] / "report.json").read_text())
    assert doc["exit_code"] == 0
    assert doc["verdicts"]["fail"] == 0
    assert {c["bound_name"] for c in doc["certificates"]} == {
        "trace", "lipschitz", "determinant", "lp_moment"}


def test_emit_writes_only_requested_formats(tmp_path):
    d = tmp_path / "out"
    rc = main(["verify", "gaussian", "--out", str(d),
               "--format", "plotdata"])
    assert rc == 0
    assert sorted(os.listdir(d)) == ["plotdata.json", "timings.json"]


def test_tabular_rendering_lists_verdicts():
    cfg = RunConfig(command="verify", scenario="gaussian",
                    formats=("tabular",))
    report, _ = run(cfg)
    text = report.tabular()
    assert "verdicts pass=" in text
    assert "determinant" in text and "lipschitz" in text
    with pytest.raises(DomainError):
        report.render("bogus")


def test_entropic_cache_reuses_stage_maps(tmp_path):
    cache = tmp_path / "cache"
    doc = _cfg(tmp_path, {"params": {"side": 48, "box_half": 2.4,
                                     "box_half_nu": 2.4}})
    args = ["scenario", "wehrl", "--config", doc,
            "--epsilon-schedule", "0.5,0.12", "--cache", str(cache)]
    rc1 = main(args + ["--out", str(tmp_path / "fresh")])
    assert rc1 == 0
    stage_files = glob.glob(str(cache / "gridmap-*.txt"))
    assert len(stage_files) == 2
    before = {p: os.path.getmtime(p) for p in stage_files}
    rc2 = main(args + ["--out", str(tmp_path / "cached")])
    assert rc2 == 0
    after = {p: os.path.getmtime(p) for p in glob.glob(
        str(cache / "gridmap-*.txt"))}
    assert before == after  # second run read the lattices instead of solving
    fresh = (tmp_path / "fresh" / "report.json").read_bytes()
    cached = (tmp_path / "cached" / "report.json").read_bytes()
    assert fresh == cached


def test_damaged_cache_lattice_is_a_miss(tmp_path):
    cache = tmp_path / "cache"
    doc = _cfg(tmp_path, {"params": {"side": 32, "box_half": 2.4,
                                     "box_half_nu": 2.4}})
    args = ["scenario", "wehrl", "--config", doc,
            "--epsilon-schedule", "0.5,0.12", "--cache", str(cache)]
    assert main(args + ["--out", str(tmp_path / "fresh")]) == 0
    victim = sorted(glob.glob(str(cache / "gridmap-*.txt")))[-1]
    text = open(victim).read()
    with open(victim, "w") as fh:
        fh.write(text[:len(text) // 2])     # a crash mid-write, say
    assert main(args + ["--out", str(tmp_path / "rerun")]) == 0
    fresh = (tmp_path / "fresh" / "report.json").read_bytes()
    assert (tmp_path / "rerun" / "report.json").read_bytes() == fresh
    assert open(victim).read() == text      # the miss rewrote the lattice
    assert glob.glob(str(cache / "*.tmp")) == []
    assert b"fallbacks" not in fresh and b"absorptions" not in fresh


def test_commands_registry_is_complete():
    assert set(cli._COMMAND_FNS) == set(cli.COMMANDS)
    assert cli.FORMATS == ("structured", "tabular", "plotdata")
