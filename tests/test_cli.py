"""Driver behavior: config resolution, exit codes, determinism, caching."""

import glob
import json
import math
import os
import threading
import time

import numpy as np
import pytest

from transportlab import (blas, brenier, calculus, cli, entropic, quadrature,
                          scenarios)
from transportlab.cli import (RunConfig, RunReport, _downgrade, _parse_args,
                              _resolve_config, main, run)
from transportlab.errors import DomainError, SupportError
from transportlab.verify import BoundCertificate, make_certificate


def _cfg(tmp_path, doc):
    """A config file holding doc, or doc itself when it is a str."""
    path = tmp_path / "config.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_parse_args_takes_every_flag_on_every_command(command):
    flags = ["--config", "c.json", "--seed", "5", "--out", "o",
             "--format", "tabular", "--epsilon-schedule", "0.5,0.1",
             "--cache", "d"]
    every = {"command": command, "name": "wehrl", "config": "c.json",
             "seed": 5, "out": "o", "format": "tabular",
             "epsilon_schedule": "0.5,0.1", "cache": "d"}
    # the scenario name before, among and after the options
    for argv in ([command, "wehrl", *flags], [command, *flags, "wehrl"],
                 [command, *flags[:4], "wehrl", *flags[4:]]):
        assert vars(_parse_args(argv)) == every
    assert vars(_parse_args([command])) == {
        **dict.fromkeys(every), "command": command}


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
    cert = make_certificate("sample_divergence", 4.0, 3.5, None,
                            {"solver": "entropic_sample", "epsilon": 0.1},
                            600, details={"fit_ok_fraction": 1.0})
    assert cert.verdict == "pass"
    out = _downgrade(cert, "mixing")
    assert isinstance(out, BoundCertificate)
    # only the verdict and the `downgraded` detail change in its JSON, and
    # the passing certificate stays as it was
    assert out.to_dict() == {
        **cert.to_dict(), "verdict": "inconclusive",
        "details": {"fit_ok_fraction": 1.0, "downgraded": "mixing"}}
    assert cert.details == {"fit_ok_fraction": 1.0}
    failed = make_certificate("sample_divergence", 4.0, 5.0, None,
                              {"solver": "entropic_sample"}, 600)
    assert _downgrade(failed, "mixing") is failed


KINDS = ("gaussian", "anisotropic", "wehrl", "coulomb", "fock", "lsh",
         "flow", "selftest")

# (command, scenario) -> the checks the table selects at default params
SUITE_MATRIX = {
    ("verify", "gaussian"): {"bounds"},
    ("verify", "anisotropic"): {"lipschitz_limit"},
    ("verify", "wehrl"): {"bounds"},
    ("verify", "coulomb"): {"laplacian"},
    ("verify", "fock"): {"growth_direct"},
    ("verify", "lsh"): {"growth_direct"},
    ("geodesic", "gaussian"): {"geodesic"},
    ("geodesic", "wehrl"): {"geodesic"},
    ("heatflow", "flow"): {"contraction"},
    ("scenario", "gaussian"): {"bounds", "geodesic"},
    ("scenario", "anisotropic"): {"lipschitz_limit"},
    ("scenario", "wehrl"): {"bounds", "geodesic"},
    ("scenario", "coulomb"): {"laplacian", "sample_route"},
    ("scenario", "fock"): {"growth_direct"},
    ("scenario", "lsh"): {"growth_direct"},
    ("scenario", "flow"): {"contraction"},
    ("selftest", "selftest"): {"a_gaussian_sharpness", "b_anisotropic",
                               "c_quantile", "d_semigroup", "e_sphere_rule",
                               "f_wehrl_radial", "g_heatflow"},
}

REJECTED_PAIRS = [(command, name)
                  for command in ("verify", "geodesic", "heatflow",
                                  "scenario", "selftest")
                  for name in KINDS if (command, name) not in SUITE_MATRIX]


def _selected(command, name, params=None, epsilon_schedule=None):
    cfg = RunConfig(command=command, scenario=name,
                    params=scenarios.resolve_params(name, params or {}),
                    epsilon_schedule=epsilon_schedule)
    built = scenarios.SCENARIO_BUILDERS[name](cfg.params)
    return {check for check, _ in cli._checks_for(cfg, built)}


def test_check_table_matrix():
    assert len(SUITE_MATRIX) == 17 and len(REJECTED_PAIRS) == 23
    for (command, name), expected in SUITE_MATRIX.items():
        assert _selected(command, name) == expected, (command, name)
    for command, name in REJECTED_PAIRS:
        with pytest.raises(DomainError, match=f"has no {command} suite"):
            _selected(command, name)
    # a given schedule selects the wehrl grid route, which swaps the
    # scenario's geodesic for the quadrature majorization; the geodesic
    # command stays radial, so it refuses a schedule that none of its
    # checks would read
    assert _selected("verify", "wehrl", epsilon_schedule=(0.5, 0.1)) == {
        "bounds"}
    assert _selected("scenario", "wehrl", epsilon_schedule=(0.5, 0.1)) == {
        "bounds", "majorization"}
    with pytest.raises(DomainError, match="^epsilon_schedule "):
        _selected("geodesic", "wehrl", epsilon_schedule=(0.5, 0.1))
    # scenario runs the geodesic only when alpha <= kappa
    narrow_source = {"sigma_source": 0.5, "sigma_target": 1.0}
    assert _selected("scenario", "gaussian", narrow_source) == {"bounds"}
    assert _selected("geodesic", "gaussian", narrow_source) == {"geodesic"}


def test_main_maps_usage_and_execution_errors_to_3(tmp_path, capsys):
    assert main(["verify", "no_such_scenario"]) == 3
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 3
    assert main(["verify", "--bogus-flag"]) == 3
    assert main(["verify", "--seed", "x"]) == 3
    assert main(["nonsense"]) == 3
    assert main([]) == 3
    assert main(["--help"]) == 0
    capsys.readouterr()
    # a pair the check table has no suite for is a typed execution error
    # raised before any check runs, so no report is written
    for command, name in REJECTED_PAIRS:
        out = tmp_path / f"{command}-{name}"
        assert main([command, name, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: DomainError")
        assert not (out / "report.json").exists()


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
    # the side channel names the BLAS: library, core, the thread count the
    # command was entered with and the one it ran at outside the solves
    timings = json.loads((outs[0] / "timings.json").read_text())
    entry = blas.threads()
    assert timings["blas"]["threads_at_entry"] == entry
    if entry is None:
        assert set(timings["blas"].values()) == {None}
    else:
        assert "openblas" in timings["blas"]["library"]
        assert timings["blas"]["core"]
        assert timings["blas"]["threads_outside_solvers"] == 1
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
    doc = _cfg(tmp_path, {"params": {"side": 48}})
    args = ["scenario", "wehrl", "--config", doc,
            "--epsilon-schedule", "0.5,0.12", "--cache", str(cache)]
    rc1 = main(args + ["--out", str(tmp_path / "fresh")])
    assert rc1 == 0
    stage_files = glob.glob(str(cache / "gridmap-*.npz"))
    assert len(stage_files) == 2
    before = {p: os.path.getmtime(p) for p in stage_files}
    rc2 = main(args + ["--out", str(tmp_path / "cached")])
    assert rc2 == 0
    after = {p: os.path.getmtime(p) for p in glob.glob(
        str(cache / "gridmap-*.npz"))}
    assert before == after  # second run read the stage maps instead of solving
    fresh = (tmp_path / "fresh" / "report.json").read_bytes()
    cached = (tmp_path / "cached" / "report.json").read_bytes()
    assert fresh == cached


def test_damaged_cache_lattice_is_a_miss(tmp_path, damaged_lattices):
    cache = tmp_path / "cache"
    doc = _cfg(tmp_path, {"params": {"side": 32}})
    args = ["scenario", "wehrl", "--config", doc,
            "--epsilon-schedule", "0.5,0.12", "--cache", str(cache)]
    assert main(args + ["--out", str(tmp_path / "fresh")]) == 0
    fresh = (tmp_path / "fresh" / "report.json").read_bytes()
    victim = sorted(glob.glob(str(cache / "gridmap-*.npz")))[-1]
    with open(victim, "rb") as fh:
        good = fh.read()
    # damaged, or intact but solved for another epsilon or grid
    for name, (data, _) in damaged_lattices(good).items():
        with open(victim, "wb") as fh:
            fh.write(data)
        assert main(args + ["--out", str(tmp_path / "rerun")]) == 0, name
        assert (tmp_path / "rerun" / "report.json").read_bytes() == fresh
        with open(victim, "rb") as fh:
            assert fh.read() == good, name  # the miss rewrote the file
    assert glob.glob(str(cache / "*.tmp")) == []
    assert b"fallbacks" not in fresh and b"absorptions" not in fresh


@pytest.mark.parametrize("field, wrong", [
    ("epsilon", "epsilon 0.25"), ("axis0", "axis0 -2.4 2.5"),
    ("axis1", "axis1 -2.5 2.4")])
def test_cache_lattice_for_another_request_is_a_miss(tmp_path, field, wrong):
    # a well-formed stage file at the right path, solved for another epsilon
    # or grid, is solved again and rewritten
    cache = tmp_path / "cache"
    doc = _cfg(tmp_path, {"params": {"side": 32}})
    args = ["scenario", "wehrl", "--config", doc,
            "--epsilon-schedule", "0.5,0.12", "--cache", str(cache)]
    assert main(args + ["--out", str(tmp_path / "fresh")]) == 0
    fresh = (tmp_path / "fresh" / "report.json").read_bytes()
    victim = sorted(glob.glob(str(cache / "gridmap-*.npz")))[0]
    with open(victim, "rb") as fh:
        good = fh.read()
    with np.load(victim) as npz:
        members = {key: npz[key] for key in npz.files}
    epsilon, axes = members["epsilon"], list(members["axes"])
    numbers = [float(x) for x in wrong.split()[1:]]
    if field == "epsilon":
        members["epsilon"] = np.float64(numbers[0])
    else:
        other = members["axes"].copy()
        other[int(field[-1])] = np.linspace(*numbers, other.shape[1])
        members["axes"] = other
    with open(victim, "wb") as fh:
        np.savez(fh, **members)
    # intact, but not the request
    brenier.load_grid_map(victim, members["epsilon"], list(members["axes"]))
    with pytest.raises(DomainError, match="another epsilon or grid"):
        brenier.load_grid_map(victim, epsilon, axes)
    assert main(args + ["--out", str(tmp_path / "rerun")]) == 0
    assert (tmp_path / "rerun" / "report.json").read_bytes() == fresh
    with open(victim, "rb") as fh:
        assert fh.read() == good          # the miss rewrote the file


def test_commands_registry_is_complete():
    # one dispatcher: every command runs what the table holds for it
    assert {command for command, _ in SUITE_MATRIX} == set(cli.COMMANDS)
    assert cli.FORMATS == ("structured", "tabular", "plotdata")


def test_radial_solve_failure_is_each_checks_error(tmp_path, monkeypatch):
    # a failed shared solve is the error of each check that needed the map;
    # every command still writes its report
    def failing(*args, **kwargs):
        raise SupportError("radial map resolved only to radius 1")

    monkeypatch.setattr(brenier, "solve_radial", failing)
    for command, failed in (("verify", ["bounds"]),
                            ("geodesic", ["geodesic"]),
                            ("scenario", ["bounds", "geodesic"])):
        out = tmp_path / command
        assert main([command, "wehrl", "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert [e["check"] for e in report["errors"]] == failed
        for err in report["errors"]:
            assert err["error"] == \
                "SupportError: radial map resolved only to radius 1"
        assert report["certificates"] == []
        assert report["exit_code"] == 3
        # the side channel keeps each failed check's traceback
        errors = json.loads((out / "timings.json").read_text())["errors"]
        assert sorted(errors) == failed
        for tb in errors.values():
            assert "brenier.solve_radial(" in tb
            assert tb.rstrip().endswith(
                "SupportError: radial map resolved only to radius 1")


def test_checks_run_in_table_order_on_the_calling_thread():
    # table order is not name order; a check that raises is its own error
    # and the next check still runs
    ran = []

    def check(name, fails=False):
        def fn():
            ran.append((name, threading.get_ident()))
            if fails:
                raise SupportError(f"{name} failed")
            return {"certificates": [make_certificate(
                "trace", 1.0, 0.5, 0.0, {"solver": "x"}, 1)],
                "summaries": {name: 1}}
        return name, fn

    checks = [check("zeta"), check("alpha", fails=True), check("mid")]
    report = RunReport(config={}, config_hash="")
    timings = {"checks": {}, "errors": {}}
    cli._run_checks(checks, report, timings)
    caller = threading.get_ident()
    assert ran == [("zeta", caller), ("alpha", caller), ("mid", caller)]
    assert list(timings["checks"]) == ["zeta", "alpha", "mid"]
    assert list(timings["errors"]) == ["alpha"]
    assert report.errors == [{"check": "alpha",
                              "error": "SupportError: alpha failed"}]
    assert [c["check"] for c in report.certificates] == ["mid", "zeta"]
    assert report.summaries == {"zeta": 1, "mid": 1}


def _observed(report):
    return [(c["check"], c["bound_name"], c["verdict"], c["observed"])
            for c in report.certificates]


@pytest.mark.parametrize("command", ["scenario", "verify", "geodesic"])
def test_displaced_state_takes_the_radial_route_about_its_centre(command):
    # a displaced mixture of number states is the centred instance
    # translated, so every certificate keeps its verdict and observed value
    centred = _observed(run(RunConfig(command, "wehrl"))[0])
    for center in ([0.5, -0.3], [1.7, 2.2]):
        report, _ = run(RunConfig(command, "wehrl",
                                  params={"center": center}))
        assert report.exit_code() == 0
        got = _observed(report)
        assert [c[:3] for c in got] == [c[:3] for c in centred]
        assert [c[3] for c in got] == pytest.approx(
            [c[3] for c in centred], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kind, calls", [("wehrl", 2), ("gaussian", 2)])
def test_bound_suite_evaluates_the_jacobian_once_on_its_probes(monkeypatch,
                                                               kind, calls):
    seen = []
    original = brenier.TransportMap.jacobian

    def counting(self, x):
        seen.append(np.array(x, dtype=float))
        return original(self, x)

    monkeypatch.setattr(brenier.TransportMap, "jacobian", counting)
    report, _ = run(RunConfig(command="verify", scenario=kind))
    assert {c["bound_name"] for c in report.certificates} == {
        "trace", "lipschitz", "determinant", "lp_moment"}
    # one Jacobian on the probes for the three pointwise bounds (and the
    # Gaussian pair's Monge-Ampere residual), one on the moment rule's nodes
    assert len(seen) == calls
    assert not np.array_equal(seen[0], seen[1])


def test_anisotropic_run_without_epsilons_is_refused(tmp_path, capsys):
    # a run that would certify nothing must not exit 0
    out = tmp_path / "out"
    doc = _cfg(tmp_path, {"params": {"epsilons": []}})
    assert main(["verify", "anisotropic", "--config", doc,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: DomainError")
    assert not (out / "report.json").exists()


# rows marked "fixed" name a size, box or tolerance that is a constant of
# the checks, not a param: the kind does not declare it, whatever its value
@pytest.mark.parametrize("argv, param, value, check", [
    (["geodesic", "gaussian"], "time_points", 1, "geodesic"),      # fixed
    (["scenario", "fock"], "probes", 0, "growth_direct"),          # fixed
    (["heatflow", "flow"], "record_every", 0, "contraction"),      # fixed
    (["verify", "wehrl", "--epsilon-schedule", "0.5,0.1"], "side", 1,
     "bounds"),
    (["heatflow", "flow"], "particles", 0, "contraction"),         # fixed
    (["verify", "coulomb"], "laplacian_probes", 0, "laplacian"),   # fixed
    (["scenario", "coulomb"], "fit_points", 0, "sample_route"),    # fixed
    (["scenario", "coulomb"], "thin", 0, "sample_route"),          # fixed
    (["scenario", "coulomb"], "burn", -1, "sample_route"),         # fixed
    # a name the kind does not declare
    (["heatflow", "flow"], "record_evry", 2, "contraction"),
    (["verify", "gaussian"], "order", 0, "bounds"),                # fixed
    (["geodesic", "gaussian"], "order", 0, "geodesic"),            # fixed
    (["verify", "gaussian"], "dim", 0, "bounds"),
    (["scenario", "fock"], "probes", 2.5, "growth_direct"),        # fixed
    # no tolerance is a param: a config could widen a certificate's pass
    # region with one
    (["geodesic", "gaussian"], "monotonicity_tol", -1, "geodesic"),  # fixed
    (["scenario", "coulomb"], "samples", 79, "sample_route"),      # fixed
    (["heatflow", "flow"], "particles", 199, "contraction"),       # fixed
    # the gas is quadratic only and its source constant is derived, so
    # neither a law nor a constant is a param
    (["scenario", "coulomb"], "confinement", [0.5], "sample_route"),
    (["scenario", "coulomb"], "kappa2", 2.0, "sample_route"),
    # the lsh builder refuses a poly key or value it cannot read
    (["scenario", "lsh"], "poly", {"a,b": 1}, "growth_direct"),
    (["scenario", "lsh"], "poly", {"-2,0": 1}, "growth_direct"),
    (["scenario", "lsh"], "poly", {"2,0": "x"}, "growth_direct"),
    # outside the domain of a declared param, where a fixed name stood
    (["verify", "coulomb"], "particles", 0, "laplacian"),
    (["verify", "coulomb"], "beta", 0, "laplacian"),
    (["verify", "wehrl"], "degrees", [-1], "bounds"),
    (["scenario", "lsh"], "beta", -1, "growth_direct"),
    (["geodesic", "gaussian"], "box_half", 0, "geodesic"),         # fixed
    (["geodesic", "wehrl"], "r_max", 0, "geodesic"),               # fixed
    # an int param refuses a fraction instead of truncating it
    (["verify", "gaussian"], "dim", 2.5, "bounds"),
    # every dim is bounded above, so no builder starts on a huge one
    (["verify", "gaussian"], "dim", 10 ** 30, "bounds"),
    (["verify", "anisotropic"], "dim", 10 ** 30, "lipschitz_limit"),
    (["verify", "lsh"], "dim", 10 ** 30, "growth_direct"),
    (["heatflow", "flow"], "dim", 10 ** 30, "contraction"),
    # a side whose side x side grid exceeds the tensor-grid budget
    (["verify", "wehrl", "--epsilon-schedule", "0.5,0.1"], "side", 5000,
     "bounds"),
    # the gas is built for N <= 3 only
    (["verify", "coulomb"], "particles", 4, "laplacian"),
])
def test_size_params_outside_their_domain_are_typed_errors(
        tmp_path, capsys, argv, param, value, check):
    # the param table (or the scenario's builder) refuses the config, so
    # `check`, which the command runs on a valid config, never starts
    schedule = (0.5, 0.1) if "--epsilon-schedule" in argv else None
    assert check in _selected(*argv[:2], epsilon_schedule=schedule)
    out = tmp_path / "out"
    doc = _cfg(tmp_path, {"params": {param: value}})
    t0 = time.perf_counter()
    assert main([*argv, "--config", doc, "--out", str(out)]) == 3
    assert time.perf_counter() - t0 < 0.5
    assert not (out / "report.json").exists()
    assert capsys.readouterr().err.startswith(
        f"error: DomainError: {param} ")


@pytest.mark.parametrize("doc, flags, name", [
    # an empty schedule is refused, not dropped back to the radial route
    ({"epsilon_schedule": []}, [], "epsilon_schedule"),
    ({}, ["--epsilon-schedule="], "epsilon_schedule"),
    ({"epsilon_schedule": "0.5,0.1"}, [], "epsilon_schedule"),
    ({"epsilon_schedule": 0.5}, [], "epsilon_schedule"),
    ({}, ["--epsilon-schedule", "0.5,abc"], "epsilon_schedule"),
    # a seed that is not an int is refused, not truncated or cast
    ({"seed": 2.7}, [], "seed"),
    ({"seed": True}, [], "seed"),
    ({"seed": "x"}, [], "seed"),
])
def test_config_seed_and_schedule_are_typed_errors(tmp_path, capsys, doc,
                                                   flags, name):
    out = tmp_path / "out"
    argv = ["verify", "wehrl", "--config", _cfg(tmp_path, doc), *flags,
            "--out", str(out)]
    assert main(argv) == 3
    assert not (out / "report.json").exists()
    assert capsys.readouterr().err.startswith(f"error: DomainError: {name} ")


@pytest.mark.parametrize("argv, doc, key", [
    # a key the config document does not declare
    (["verify", "gaussian"], {"sead": 3}, "sead"),
    (["verify", "gaussian"], {"param": {"dim": 0}}, "param"),
    # a key of another type
    (["verify", "gaussian"], {"format": 3}, "format"),
    (["verify", "gaussian"], {"params": [1]}, "params"),
    (["verify", "gaussian"], {"params": "x"}, "params"),
    # a negative seed
    (["verify", "gaussian", "--seed", "-1"], {}, "seed"),
    (["selftest"], {"seed": -2}, "seed"),
    # the selftest kind declares no params and is the only selftest kind
    (["selftest"], {"params": {"x": 1}}, "x"),
    (["selftest"], {"scenario": "gaussian"}, "scenario"),
    # a top-level schedule on a kind that declares none
    (["verify", "gaussian", "--epsilon-schedule", "0.5,0.1"], {},
     "epsilon_schedule"),
    (["heatflow", "flow", "--epsilon-schedule", "0.5,0.1"], {},
     "epsilon_schedule"),
    # a route is not a param: the schedule alone selects the grid route
    (["scenario", "wehrl", "--epsilon-schedule", "0.5,0.1"],
     {"params": {"solver": "radial"}}, "solver"),
    # a schedule that no check of the command reads
    (["geodesic", "wehrl", "--epsilon-schedule", "0.5,0.1"], {},
     "epsilon_schedule"),
    (["verify", "coulomb", "--epsilon-schedule", "0.5,0.1"], {},
     "epsilon_schedule"),
    # a non-finite float: json reads Infinity and NaN (the rows marked
    # "fixed" name a constant of the checks, refused whatever its value)
    (["scenario", "wehrl"], {"params": {"r_max": math.inf}},        # fixed
     "r_max"),
    (["verify", "gaussian"], {"params": {"box_half": math.inf}},    # fixed
     "box_half"),
    (["verify", "wehrl"], {"params": {"box_half": math.inf}},       # fixed
     "box_half"),
    (["scenario", "fock"], {"params": {"coefficients": [math.nan, 1]}},
     "coefficients"),
    (["scenario", "wehrl", "--epsilon-schedule", "inf,0.1"], {},
     "epsilon_schedule"),
    (["scenario", "lsh"], {"params": {"poly": {"2,0": -math.inf}}}, "poly"),
    (["verify", "gaussian"], {"params": {"sigma_source": math.inf}},
     "sigma_source"),
    (["verify", "wehrl"], {"params": {"center": [math.inf, 0.0]}}, "center"),
    # json reads an int of any size; one beyond the float range is not
    # finite either
    (["verify", "gaussian"], {"params": {"sigma_source": 10 ** 400}},
     "sigma_source"),
    (["verify", "wehrl"], {"params": {"center": [10 ** 400, 0.0]}},
     "center"),
    (["scenario", "lsh"], {"params": {"poly": {"2,0": 10 ** 400}}}, "poly"),
    # a document that is not JSON, or that holds an int past Python's
    # 4,300-digit conversion limit, names the document
    (["verify", "gaussian"], '{"seed": ', "config"),
    (["verify", "gaussian"], '{"seed": ' + "1" * 5000 + "}", "config"),
])
def test_inadmissible_config_is_refused_before_any_check(
        tmp_path, capsys, monkeypatch, argv, doc, key):
    ran = []
    monkeypatch.setattr(cli, "_run_checks", lambda *args: ran.append(args))
    out = tmp_path / "out"
    assert main([*argv, "--config", _cfg(tmp_path, doc),
                 "--out", str(out)]) == 3
    assert ran == []
    assert not (out / "report.json").exists()
    assert capsys.readouterr().err.startswith(f"error: DomainError: {key} ")


@pytest.mark.parametrize("argv, kind, param, value", [
    # the Gaussian pair picks the closed form
    (["verify", "gaussian"], "gaussian", "solver", "radial"),
    (["geodesic", "gaussian"], "gaussian", "r_max", 8.0),
    # a given schedule picks the grid route, whose map is always debiased
    # and discretizes the target on the source's box
    (["geodesic", "wehrl"], "wehrl", "solver", "entropic_grid"),
    (["scenario", "wehrl", "--epsilon-schedule", "0.5,0.1,0.05"], "wehrl",
     "box_half_nu", 2.6),
    (["scenario", "wehrl", "--epsilon-schedule", "0.5,0.1,0.05"], "wehrl",
     "debias", False),
    # the scenario command picks the Coulomb sample route
    (["scenario", "coulomb"], "coulomb", "sample_route", False),
])
def test_a_route_is_not_a_param(tmp_path, capsys, monkeypatch, argv, kind,
                                param, value):
    ran = []
    monkeypatch.setattr(cli, "_run_checks", lambda *args: ran.append(args))
    out = tmp_path / "out"
    doc = _cfg(tmp_path, {"params": {param: value}})
    assert main([*argv, "--config", doc, "--out", str(out)]) == 3
    assert ran == []
    assert not (out / "report.json").exists()
    assert capsys.readouterr().err.startswith(
        f"error: DomainError: {param} is not a {kind} param")


def test_a_schedule_under_params_acts_as_the_top_level_key(tmp_path, capsys):
    schedule = {"epsilon_schedule": [0.5, 0.1]}
    # on wehrl it selects the grid route, with the top-level key's results
    reports = []
    for doc in ({"params": {"side": 32}, **schedule},
                {"params": {"side": 32, **schedule}}):
        out = tmp_path / f"out-{len(reports)}"
        assert main(["verify", "wehrl", "--config", _cfg(tmp_path, doc),
                     "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    assert [c["provenance"]["solver"] for c in reports[1]["certificates"]] \
        == ["entropic_grid"]
    assert reports[0]["certificates"] == reports[1]["certificates"]
    # where no check reads it, the run stops before any check
    doc = _cfg(tmp_path, {"params": schedule})
    for argv in (["geodesic", "wehrl"], ["verify", "coulomb"]):
        out = tmp_path / f"out-{argv[0]}"
        assert main([*argv, "--config", doc, "--out", str(out)]) == 3
        assert not (out / "report.json").exists()
        assert capsys.readouterr().err.startswith(
            "error: DomainError: epsilon_schedule ")


# the expanding pair fails all three geodesic certificates; a huge
# tolerance would turn two of those fails into passes
EXPANDING = {"sigma_source": 0.5, "sigma_target": 1.0}


@pytest.mark.parametrize("argv, doc", [
    pytest.param(["geodesic", "gaussian"],
                 {**EXPANDING, "monotonicity_tol": 1e6},
                 id="monotonicity_tol"),
    pytest.param(["geodesic", "gaussian"],
                 {**EXPANDING, "majorization_atol": 1e6},
                 id="majorization_atol"),
    # a box, a time grid or a sample size picked where the bound holds
    pytest.param(["geodesic", "gaussian"], {**EXPANDING, "box_half": 0.1},
                 id="gaussian-box_half"),
    pytest.param(["geodesic", "gaussian"], {**EXPANDING, "time_points": 2},
                 id="gaussian-time_points"),
    pytest.param(["verify", "wehrl"], {"r_max": 2.0}, id="wehrl-r_max"),
    pytest.param(["verify", "wehrl"], {"box_half": 0.1},
                 id="wehrl-box_half"),
    pytest.param(["geodesic", "wehrl"], {"time_points": 2},
                 id="wehrl-time_points"),
    pytest.param(["scenario", "coulomb"], {"samples": 80},
                 id="coulomb-samples"),
    pytest.param(["verify", "fock"], {"probes": 1}, id="fock-probes"),
    pytest.param(["verify", "lsh"], {"probes": 1}, id="lsh-probes"),
    pytest.param(["heatflow", "flow"], {"particles": 200},
                 id="flow-particles")])
def test_no_config_loosens_a_certificate_tolerance(tmp_path, capsys, argv,
                                                   doc):
    out = tmp_path / "out"
    name = next(k for k in doc if k not in EXPANDING)
    assert main([*argv, "--config", _cfg(tmp_path, {"params": doc}),
                 "--out", str(out)]) == 3
    assert not (out / "report.json").exists()
    assert capsys.readouterr().err.startswith(
        f"error: DomainError: {name} is not a {argv[1]} param")


@pytest.mark.parametrize("argv, dim, failed", [
    (["scenario", "gaussian"], 4, "geodesic"),
    (["verify", "anisotropic"], 8, "lipschitz_limit")])
def test_a_grid_beyond_the_node_budget_is_the_checks_error(tmp_path, argv,
                                                           dim, failed):
    # the dim-4 geodesic rule holds 96^4 nodes, the dim-8 probe grid 9^8;
    # either would take gigabytes, so the check that builds it fails first
    out = tmp_path / "out"
    assert main([*argv, "--config", _cfg(tmp_path, {"params": {"dim": dim}}),
                 "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert [e["check"] for e in report["errors"]] == [failed]
    assert "nodes exceeds the budget" in report["errors"][0]["error"]
    # the checks whose grids fit still run and pass
    assert all(c["verdict"] == "pass" for c in report["certificates"])


def test_verify_gaussian_above_dim_2_keeps_the_pointwise_bounds(tmp_path):
    # the moment quadrature covers dim <= 2; its absence must not cost the
    # trace, Lipschitz and determinant certificates
    out = tmp_path / "out"
    assert main(["verify", "gaussian", "--config",
                 _cfg(tmp_path, {"params": {"dim": 3}}),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["errors"] == []
    certs = {c["bound_name"]: c for c in report["certificates"]}
    assert {name: c["verdict"] for name, c in certs.items()} == {
        "trace": "pass", "lipschitz": "pass", "determinant": "pass"}
    for name, observed, rhs in (("trace", 1.5, 1.5), ("lipschitz", 0.5, 1.5),
                                ("determinant", 0.125, 0.125)):
        assert certs[name]["observed"] == pytest.approx(observed)
        assert certs[name]["theoretical_rhs"] == pytest.approx(rhs)


@pytest.mark.parametrize("kind, solver", [("wehrl", "solve_radial"),
                                          ("gaussian", "solve_gaussian")])
def test_scenario_checks_share_one_solve(monkeypatch, kind, solver):
    calls = []
    original = getattr(brenier, solver)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(brenier, solver, counting)
    report, _ = run(RunConfig(command="scenario", scenario=kind))
    assert {c["check"] for c in report.certificates} >= {"bounds", "geodesic"}
    assert len(calls) == 1


def test_cache_key_ignores_command_and_seed(tmp_path):
    cache = tmp_path / "cache"
    doc = _cfg(tmp_path, {"params": {"side": 32}})
    common = ["wehrl", "--config", doc, "--epsilon-schedule", "0.5,0.12"]
    assert main(["scenario", *common, "--seed", "0",
                 "--cache", str(cache)]) == 0
    written = {p: os.path.getmtime(p)
               for p in glob.glob(str(cache / "gridmap-*.npz"))}
    assert len(written) == 2
    assert main(["verify", *common, "--seed", "1", "--cache", str(cache),
                 "--out", str(tmp_path / "cached")]) == 0
    assert {p: os.path.getmtime(p)
            for p in glob.glob(str(cache / "gridmap-*.npz"))} == written
    assert main(["verify", *common, "--seed", "1",
                 "--out", str(tmp_path / "fresh")]) == 0
    assert (tmp_path / "cached" / "report.json").read_bytes() == \
        (tmp_path / "fresh" / "report.json").read_bytes()


WEHRL_GRID = {"weights": [0.5, 0.5], "degrees": [0, 1], "side": 32}


@pytest.fixture
def grid_solves(monkeypatch):
    """Counts the entropic grid solves and the stage maps written."""
    counts = {"solves": 0, "writes": 0}
    solve, save = brenier.solve_entropic_schedule, brenier.save_grid_map

    def counting_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    def counting_save(*args, **kwargs):
        counts["writes"] += 1
        return save(*args, **kwargs)

    monkeypatch.setattr(brenier, "solve_entropic_schedule", counting_solve)
    monkeypatch.setattr(brenier, "save_grid_map", counting_save)
    return counts


# explicit ids: a row keeps its name when a row before it goes
@pytest.mark.parametrize("change", [
    pytest.param({"weights": [0.25, 0.75]}, id="change0"),
    pytest.param({"degrees": [1, 0]}, id="change1"),
    pytest.param({"center": [0.1, 0.0]}, id="change2"),
    pytest.param({"schedule": "0.4,0.12"}, id="change4"),
    pytest.param({"side": 34}, id="change5"),
    pytest.param({"schedule": "0.5,0.13"}, id="change7")])
def test_cache_key_splits_on_every_param_the_grid_solve_reads(
        tmp_path, grid_solves, change):
    # a param left out of the key would reuse a map solved for another
    # request: loading checks only the epsilon and the lattice axes
    cache = tmp_path / "cache"
    base = "0.5,0.12"

    def run_cached(params, schedule):
        return main(["scenario", "wehrl", "--epsilon-schedule", schedule,
                     "--config", _cfg(tmp_path, {"params": params}),
                     "--cache", str(cache)])

    assert run_cached(WEHRL_GRID, base) == 0
    params = {**WEHRL_GRID, **change}
    schedule = params.pop("schedule", base)
    assert run_cached(params, schedule) == 0
    assert grid_solves["solves"] == 2                    # a miss
    # the stages of an unchanged schedule prefix are shared
    shared = 0
    if "schedule" in change:
        shared = next(k for k, (old, new) in enumerate(
            zip(base.split(","), schedule.split(","))) if old != new)
    assert len(glob.glob(str(cache / "gridmap-*.npz"))) == 4 - shared


@pytest.mark.parametrize("kind", ["gaussian", "wehrl"])
def test_geodesic_suite_evaluates_jacobian_once_and_one_det_per_time(
        monkeypatch, kind):
    jacobians, stacks, dets = [], [], []
    jacobian = brenier.TransportMap.jacobian
    eigenvalues, det = calculus.symmetric_eigenvalues, np.linalg.det

    def counting_jacobian(self, x):
        jacobians.append(len(x))
        return jacobian(self, x)

    def counting_eigenvalues(a):
        # the Gauss-Legendre nodes take the eigenvalues of one matrix
        if np.ndim(a) == 3:
            stacks.append(np.shape(a))
        return eigenvalues(a)

    monkeypatch.setattr(brenier.TransportMap, "jacobian", counting_jacobian)
    monkeypatch.setattr(calculus, "symmetric_eigenvalues",
                        counting_eigenvalues)
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(a) or det(a))
    report, _ = run(RunConfig(command="geodesic", scenario=kind))
    assert [c["check"] for c in report.certificates] == ["geodesic"] * 3
    assert len(jacobians) == 1
    # one eigenvalue row per node, a block of rows per call; every det
    # J_t is a product of those eigenvalues
    assert sum(shape[0] for shape in stacks) == jacobians[0]
    assert max(shape[0] for shape in stacks) <= quadrature.EVAL_ROWS
    assert not dets


def test_lsh_runs_at_dim_3_and_refuses_mismatched_exponent_keys(tmp_path,
                                                                capsys):
    for command in ("scenario", "verify"):
        out = tmp_path / command
        assert main([command, "lsh", "--out", str(out), "--config",
                     _cfg(tmp_path, {"params": {"dim": 3}})]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [(c["bound_name"], c["verdict"])
                for c in report["certificates"]] == [
            ("lsh_growth_direct", "pass")]
    capsys.readouterr()
    assert main(["scenario", "lsh", "--config",
                 _cfg(tmp_path, {"params": {"poly": {"2,0,0": 1}}})]) == 3
    assert capsys.readouterr().err.startswith("error: DomainError")


def _python(tmp_path, code):
    """Run code in a fresh interpreter that imports the package under test."""
    import subprocess
    import sys

    import transportlab

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(transportlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_cli_start_up_and_runs_need_no_scipy(tmp_path):
    proc = _python(tmp_path, (
        "import sys\n"
        "import transportlab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

    proc = _python(tmp_path, (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from transportlab import cli\n"
        "rc = [cli.main(['selftest', '--out', 'a']),\n"
        "      cli.main(['scenario', 'coulomb', '--out', 'b'])]\n"
        "sys.exit(max(rc))\n"))
    assert proc.returncode == 0, proc.stderr
    for name in ("a", "b"):
        assert (tmp_path / name / "report.json").exists()


def test_cli_leaves_concurrent_futures_and_traceback_unloaded(tmp_path):
    # the checks run on the calling thread; only a failed check needs the
    # traceback module
    proc = _python(tmp_path, (
        "import sys\n"
        "import transportlab.cli as cli\n"
        "def loaded():\n"
        "    return [m in sys.modules\n"
        "            for m in ('concurrent.futures', 'traceback')]\n"
        "print(*loaded())\n"
        "rc = cli.main(['selftest', '--out', 'a'])\n"
        "print(rc, *loaded())\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "0", "False", "False"]


def test_growth_checks_leave_numpy_ma_unloaded(tmp_path):
    proc = _python(tmp_path, (
        "import sys\n"
        "from transportlab import cli\n"
        "rc = [cli.main(['scenario', 'fock', '--out', 'a']),\n"
        "      cli.main(['scenario', 'lsh', '--out', 'b'])]\n"
        "print(max(rc), 'numpy.ma' in sys.modules)\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_coulomb_sample_route_leaves_numpy_ma_unloaded(tmp_path):
    proc = _python(tmp_path, (
        "import sys\n"
        "from transportlab import cli\n"
        "rc = cli.main(['scenario', 'coulomb', '--out', 'a'])\n"
        "print(rc, 'numpy.ma' in sys.modules)\n"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("size", [1, 2, 7, 600])
def test_q95_equals_np_quantile(size):
    # numpy interpolates from the nearer order statistic; from the other
    # one the result differs in the last bit on 2-20% of these draws
    rng = np.random.default_rng(size)
    for _ in range(50):
        values = rng.lognormal(sigma=3.0, size=size)
        assert cli._q95(values) == np.quantile(values, 0.95)


@pytest.mark.parametrize("size", [1, 6, 7, 1000])
def test_growth_direct_median_margin_equals_np_median(size):
    from types import SimpleNamespace

    rng = np.random.default_rng(size)
    margins = rng.normal(size=size + 2)
    margins[[0, -1]] = [np.inf, np.nan]
    rng.shuffle(margins)
    inst = SimpleNamespace(
        nu=SimpleNamespace(sampler=lambda rng, n: np.zeros((n, 2))),
        direct_check=lambda probes: {"log_margins": margins})
    cfg = RunConfig("scenario", "fock",
                    params=scenarios.resolve_params("fock", {}))
    out = cli._growth_direct(cfg, {"instance": inst, "kind": "fock"})
    cert = out["certificates"][0].to_dict()
    finite = margins[np.isfinite(margins)]
    assert cert["details"]["median_margin"] == float(np.median(finite))
    assert cert["observed"] == -float(finite.min())


# Two certificates whose verdict still depends on the seed. Each test pins
# one failing seed; the rework of its certificate turns it into a pass.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the sampled divergence's q95 runs 4.06-4.41 over seeds, and seed 5 "
    "gives 4.403 against rhs 4 with slack 0.1 (ROADMAP item 1)"))
def test_coulomb_sample_divergence_passes_at_seed_5():
    report, _ = run(RunConfig(command="scenario", scenario="coulomb",
                              seed=5))
    certs = {c["bound_name"]: c for c in report.certificates}
    div = certs["sample_divergence"]
    assert div["verdict"] in ("pass", "pass_with_slack"), div["observed"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the moment z-test fails about 1% of seeds by construction; seed 7 "
    "gives 3.385 against 3 (ROADMAP item 2)"))
def test_flow_pushforward_moments_pass_at_seed_7():
    report, _ = run(RunConfig(command="heatflow", scenario="flow", seed=7))
    certs = {c["bound_name"]: c for c in report.certificates}
    push = certs["km_pushforward_moments"]
    assert push["verdict"] == "pass", push["observed"]


# the BLAS thread policy: a command runs at one thread, its entropic solves
# at the count it was entered with, and the count is back after it; every
# test reads the entry count from the library, so each holds at any
# OPENBLAS_NUM_THREADS (at 1 the entry count is 1) and without the library
# (every count reads None)
ONE = None if blas.threads() is None else 1


def test_a_check_run_through_main_sees_one_thread(tmp_path, monkeypatch):
    entry = blas.threads()
    seen = []
    check = cli._verify_gaussian

    def recording(*args):
        seen.append(blas.threads())
        return check(*args)

    monkeypatch.setattr(cli, "_verify_gaussian", recording)
    assert cli.main(["verify", "gaussian", "--out", str(tmp_path)]) == 0
    assert seen == [ONE]
    assert blas.threads() == entry


# the sample solve runs serially at the entry count; at an entry count of
# 2 or more the grid solve runs its self stages on a second thread, each
# thread at one BLAS thread, and at 1 (or without the library) serially
@pytest.mark.parametrize("argv, solver", [
    (["scenario", "coulomb"], entropic.SampleSinkhorn),
    (["scenario", "wehrl", "--epsilon-schedule", "0.5,0.1"],
     entropic.GridSinkhorn),
])
def test_the_entropic_solves_see_the_entry_count(tmp_path, monkeypatch,
                                                  argv, solver):
    entry = blas.threads()
    seen = []
    run = solver.run

    def recording(self, *args, **kwargs):
        seen.append((threading.get_ident(), blas.threads()))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(solver, "run", recording)
    doc = {"params": {"side": 32}} if solver is entropic.GridSinkhorn else {}
    assert cli.main([*argv, "--config", _cfg(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) in (0, 2)
    paired = solver is entropic.GridSinkhorn and (entry or 1) >= 2
    assert seen and {count for _, count in seen} == {ONE if paired else entry}
    assert len({ident for ident, _ in seen}) == (2 if paired else 1)
    assert blas.threads() == entry


def _no_map(*args, **kwargs):
    raise DomainError("no map")


@pytest.mark.parametrize("doc, patch, rc", [
    ({}, None, 0),                          # a clean run
    ({}, "solve_gaussian", 3),              # a check that raises
    ({"params": {"dim": 0}}, None, 3),      # a config refused inside run
])
def test_main_restores_the_entry_count(tmp_path, monkeypatch, doc, patch,
                                       rc):
    entry = blas.threads()
    if patch:
        monkeypatch.setattr(brenier, patch, _no_map)
    assert cli.main(["verify", "gaussian", "--config", _cfg(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == rc
    assert blas.threads() == entry
    # outside a command a solve keeps the count it finds
    with blas.entry_threads():
        assert blas.threads() == entry


def test_selftest_report_is_the_same_without_the_library(tmp_path,
                                                         monkeypatch):
    assert cli.main(["selftest", "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(blas, "_find", lambda: ())
    monkeypatch.setattr(blas, "_lib", None)
    assert cli.main(["selftest", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()
    timings = json.loads((tmp_path / "b" / "timings.json").read_text())
    assert timings["blas"] == {"library": None, "core": None,
                               "threads_at_entry": None,
                               "threads_outside_solvers": None,
                               "symmetric_product": None}
