"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import run
import tracing
import workloads


def _span(sid, name, parent, thread, start, end):
    return {"id": sid, "name": name, "parent": parent, "thread": thread,
            "start": start, "end": end, "cpu": 0.0, "attrs": {}}


def test_self_time_subtracts_only_children_on_the_same_thread():
    spans = [
        _span(1, "cli.run", None, "main", 0.0, 10.0),
        # two same-thread children that overlap each other: union is 4
        _span(2, "scenarios.build", 1, "main", 1.0, 3.0),
        _span(3, "verify.probe_points", 1, "main", 2.0, 5.0),
        # pooled checks overlap the parent and each other on other threads
        _span(4, "cli.check", 1, "pool-1", 0.5, 9.0),
        _span(5, "cli.check", 1, "pool-2", 0.5, 6.0),
        _span(6, "entropic.grid.run", 4, "pool-1", 1.0, 4.0),
        _span(7, "entropic.grid.run", 4, "pool-1", 3.0, 7.0),
        # a child that outlives its parent only counts inside the parent
        _span(8, "majorize.majorization", 5, "pool-2", 5.0, 8.0),
    ]
    own = tracing.self_times(spans)
    assert own[1] == 6.0
    assert own[4] == 8.5 - 6.0
    assert own[5] == 5.5 - 1.0
    assert own[6] == 3.0 and own[7] == 4.0 and own[8] == 3.0

    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.check_overlap"] == (8.5 + 5.5) / 10.0
    # outermost spans of one name add up even when they overlap in time
    assert metrics["entropic.grid.run_s"] == 7.0
    # layer spans (not the cli.* ones) cover [1, 8] of cli.run's [0, 10]
    assert metrics["trace.coverage"] == 0.7


def test_pooled_checks_keep_their_parent_across_threads():
    rec = tracing.Recorder()

    def check(name):
        return rec.call("verify.probe_points", lambda: name, (), {})

    def submit_all():
        parent = rec.current()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(rec.call, "cli.check", check, (name,), {},
                                   parent=parent) for name in "ab"]
            return [f.result() for f in futures]

    assert rec.call("cli.run", submit_all, (), {}) == ["a", "b"]
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s["name"], []).append(s)
    (root,) = by_name["cli.run"]
    assert root["thread"] == threading.get_ident()
    checks = by_name["cli.check"]
    assert [c["parent"] for c in checks] == [root["id"]] * 2
    assert all(c["thread"] != root["thread"] for c in checks)
    check_ids = {c["id"] for c in checks}
    assert {p["parent"] for p in by_name["verify.probe_points"]} == check_ids
    own = tracing.self_times(rec.spans)
    assert own[root["id"]] == root["end"] - root["start"]


def test_missing_wrapper_marks_its_metrics_absent(monkeypatch):
    fake = types.ModuleType("fakelab.brenier")

    def solve_radial():
        return "radial"

    fake.solve_radial = solve_radial
    monkeypatch.setattr(tracing, "PACKAGE", "fakelab")
    monkeypatch.setitem(sys.modules, "fakelab",
                        types.ModuleType("fakelab"))
    monkeypatch.setitem(sys.modules, "fakelab.brenier", fake)

    rec = tracing.Recorder()
    missing = tracing.install(rec)
    assert "entropic.GridSinkhorn2D.run" in missing
    assert "brenier.solve_radial" not in missing
    assert fake.solve_radial() == "radial"

    metrics = tracing.layer_metrics(rec.spans, missing)
    assert metrics["entropic.grid.run_s"] is None
    assert metrics["cli.cache_hit_ratio"] is None
    assert metrics["brenier.radial_s"] > 0.0
    assert set(metrics) == set(tracing.LAYER_METRICS)


def test_drift_is_relative_to_the_certificate_scale():
    ref = [[2.0, 1.0], [1e-10, 1e-4], [0.0, 0.0]]
    assert run.drift(ref, ref) == 0.0
    assert abs(run.drift([[2.002, 1.0]] + ref[1:], ref) - 1e-3) < 1e-12
    # a rounding-level observed value is measured against its bound
    assert abs(run.drift([ref[0], [2e-10, 1e-4], ref[2]], ref)
               - 1e-6) < 1e-15


def test_traced_run_writes_the_same_report(tmp_path):
    outputs = []
    for trace in (False, True):
        scratch = tmp_path / f"trace{int(trace)}"
        scratch.mkdir()
        (label, seed, argv), = [
            c for c in workloads.invocations("closed_forms", 2, str(scratch))
            if c[0] == "scenario-gaussian"]
        result = run.run_child(str(scratch), [argv], trace=trace)
        assert result["runs"][0]["rc"] == 0
        out_dir = argv[argv.index("--out") + 1]
        with open(f"{out_dir}/report.json", "rb") as fh:
            outputs.append(fh.read())
        if trace:
            assert result["missing"] == []
            names = {s["name"] for s in result["spans"]}
            assert {"cli.run", "cli.check", "verify.bound_check"} <= names
    assert outputs[0] == outputs[1]
