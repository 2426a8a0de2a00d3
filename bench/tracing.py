"""Spans recorded around transportlab's public functions, from outside.

The recorder wraps one function per layer boundary and patches every
binding of it inside the ``transportlab`` package, so a call is traced
whether the caller looks the name up as a module attribute
(``brenier.solve_radial``) or imported it by name (``cli.probe_points``,
``verify.map_statistics``).  Nothing in the package changes on disk.

A span records its name, id, parent id, thread, start, end and thread CPU
time, plus a few attributes read from the call's arguments or result
(Sinkhorn iterations, affine-fit successes, lattice bytes).  Check
functions submitted to the CLI's pool run on other threads; their spans
name the submitting span as parent, so the trace keeps its tree across
threads.

A wrapped name that no longer exists (say after a refactor folds the
Sinkhorn classes together) is listed as missing, and every metric built
from it is reported absent instead of crashing the run.

This module imports nothing from numpy or transportlab at import time:
``run.py`` uses the aggregation half without loading the program.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time

PACKAGE = "transportlab"


class Recorder:
    """Collects spans in memory; one per traced process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, parent=None, attrs=None,
             hook=None):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        span = {"id": sid, "name": name, "parent": parent,
                "thread": threading.get_ident(), "attrs": dict(attrs or {})}
        stack.append(sid)
        cpu0 = time.thread_time()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["attrs"]["error"] = type(exc).__name__
            raise
        else:
            if hook is not None:
                span["attrs"].update(hook(args, kwargs, result))
            return result
        finally:
            span["end"] = time.perf_counter()
            span["cpu"] = time.thread_time() - cpu0
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook=hook)
        return traced


# ---------------------------------------------------------------------------
# attribute hooks: read a few facts from a call's arguments or result


def _same_array(a, b):
    if a is b:
        return True
    shape = getattr(a, "shape", None)
    if shape is None or shape != getattr(b, "shape", None):
        return False
    return bool((a == b).all())


def _sinkhorn_grid(args, kwargs, result):
    solver = args[0]
    _, _, err, iters = result
    return {"iters": int(iters), "err": float(err),
            "self": _same_array(solver.log_a, solver.log_b)}


def _sinkhorn_sample(args, kwargs, result):
    solver = args[0]
    _, _, err, iters = result
    return {"iters": int(iters), "err": float(err),
            "self": _same_array(solver.xs, solver.ys)}


def _affine_fits(args, kwargs, result):
    ok = result[1]
    return {"ok": int(ok.sum()), "fits": int(ok.size)}


def _lattice_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _stage_maps(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {"cached": bool(cfg.cache_dir)}


# Layer boundaries: (span name, module, attribute path, hook).  Several
# functions may share one span name; a dotted path names a method.
TARGETS = (
    ("cli.run", "cli", "run", None),
    ("cli.emit", "cli", "emit", None),
    ("cli.entropic_stage_maps", "cli", "_entropic_stage_maps", _stage_maps),
    ("scenarios.coulomb_mcmc", "scenarios", "CoulombInstance.sample", None),
    ("entropic.grid.run", "entropic", "GridSinkhorn2D.run", _sinkhorn_grid),
    ("entropic.grid.run", "entropic", "GridSinkhorn1D.run", _sinkhorn_grid),
    ("entropic.grid.barycentric", "entropic", "GridSinkhorn2D.barycentric",
     None),
    ("entropic.grid.barycentric", "entropic", "GridSinkhorn1D.barycentric",
     None),
    ("entropic.sample.run", "entropic", "SampleSinkhorn.run",
     _sinkhorn_sample),
    ("entropic.sample.barycentric", "entropic", "SampleSinkhorn.barycentric",
     None),
    ("brenier.solve_entropic_schedule", "brenier", "solve_entropic_schedule",
     None),
    ("brenier.solve_entropic_sample", "brenier", "solve_entropic_sample",
     None),
    ("brenier.grid_measure", "brenier", "grid_measure", None),
    ("brenier.local_affine_jacobians", "brenier", "local_affine_jacobians",
     _affine_fits),
    ("brenier.solve_radial", "brenier", "solve_radial", None),
    ("brenier.save_grid_map", "brenier", "save_grid_map", _lattice_bytes),
    ("brenier.load_grid_map", "brenier", "load_grid_map", None),
    ("calculus.map_statistics", "calculus", "map_statistics", None),
    ("verify.probe_points", "verify", "probe_points", None),
    ("verify.bound_check", "verify", "check_trace_bound", None),
    ("verify.bound_check", "verify", "check_lipschitz_bound", None),
    ("verify.bound_check", "verify", "check_determinant_bound", None),
    ("verify.bound_check", "verify", "check_lp_moment_bound", None),
    ("majorize.geodesic", "majorize", "geodesic_monotonicity_check", None),
    ("majorize.majorization", "majorize", "majorization_from_densities",
     None),
    ("majorize.entropy_stability", "majorize", "entropy_stability_check",
     None),
    ("majorize.entropy_knn", "majorize", "entropy_knn", None),
    ("heatflow.integrate_flow", "heatflow", "integrate_flow", None),
    ("semigroup.apply", "semigroup", "apply", None),
)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _rebind_everywhere(original, traced):
    """Point every package-level binding of `original` at `traced`."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, traced)


def install(recorder):
    """Patch the already-imported package; returns the missing targets."""
    for span_name, module, path, hook in TARGETS:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        owner_name, _, attr = path.rpartition(".")
        owner = mod
        if mod is not None and owner_name:
            owner = getattr(mod, owner_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None or not callable(original):
            recorder.missing.append(f"{module}.{path}")
            continue
        traced = recorder.wrap(span_name, original, hook)
        if owner_name:
            setattr(owner, attr, traced)
        else:
            _rebind_everywhere(original, traced)
    _install_builders(recorder)
    _install_check_pool(recorder)
    return list(recorder.missing)


def _install_builders(recorder):
    scenarios = sys.modules.get(f"{PACKAGE}.scenarios")
    builders = getattr(scenarios, "SCENARIO_BUILDERS", None)
    if not isinstance(builders, dict):
        recorder.missing.append("scenarios.SCENARIO_BUILDERS")
        return
    for key, fn in list(builders.items()):
        builders[key] = recorder.wrap("scenarios.build", fn)


def _install_check_pool(recorder):
    """Give each pooled check a span parented to the submitting span."""
    cli = sys.modules.get(f"{PACKAGE}.cli")
    original = getattr(cli, "_run_checks", None)
    if original is None:
        recorder.missing.append("cli._run_checks")
        return

    def traced_checks(checks, *args, **kwargs):
        parent = recorder.current()

        def bind(name, fn):
            return lambda: recorder.call("cli.check", fn, (), {},
                                         parent=parent,
                                         attrs={"check": name})

        return original([(name, bind(name, fn)) for name, fn in checks],
                        *args, **kwargs)

    cli._run_checks = traced_checks


# ---------------------------------------------------------------------------
# aggregation: spans -> self times and per-layer metrics


def _union_length(intervals):
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _clip(intervals, lo, hi):
    return [(max(a, lo), min(b, hi)) for a, b in intervals
            if min(b, hi) > max(a, lo)]


def self_times(spans):
    """Span id -> wall time minus what its children on its thread cover.

    Children running on other threads (pooled checks) overlap the parent
    without blocking its thread's own work, so they are not subtracted.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = [(c["start"], c["end"]) for c in children.get(s["id"], ())
                   if c["thread"] == s["thread"]]
        covered = _clip(covered, s["start"], s["end"])
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(covered)
    return out


def span_summary(spans):
    """Per span name: calls, wall (outermost calls only), self and CPU."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "wall_s": 0.0,
                                           "self_s": 0.0, "cpu_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[s["id"]]
        if not _nested_in_same_name(s, by_id):
            row["wall_s"] += s["end"] - s["start"]
            row["cpu_s"] += s["cpu"]
    return table


def _nested_in_same_name(span, by_id):
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == span["name"]:
            return True
        parent = by_id.get(parent["parent"])
    return False


def _has_descendant(span, name, children):
    todo = list(children.get(span["id"], ()))
    while todo:
        s = todo.pop()
        if s["name"] == name:
            return True
        todo.extend(children.get(s["id"], ()))
    return False


def _coverage(spans, run_name="cli.run"):
    """Share of cli.run wall time covered by some layer span (any thread)."""
    runs = [(s["start"], s["end"]) for s in spans if s["name"] == run_name]
    layers = [(s["start"], s["end"]) for s in spans
              if not s["name"].startswith("cli.")]
    total = sum(hi - lo for lo, hi in runs)
    if total <= 0:
        return 0.0
    covered = sum(_union_length(_clip(layers, lo, hi)) for lo, hi in runs)
    return covered / total


def _ratio(num, den):
    return num / den if den else 0.0


def _solver_metrics(spans, prefix, wall):
    runs = [s for s in spans if s["name"] == f"{prefix}.run"]
    cross = sum(s["attrs"].get("iters", 0) for s in runs
                if not s["attrs"].get("self"))
    own = sum(s["attrs"].get("iters", 0) for s in runs
              if s["attrs"].get("self"))
    run_s = wall(f"{prefix}.run")
    errs = [s["attrs"]["err"] for s in runs if "err" in s["attrs"]]
    return {
        f"{prefix}.run_s": run_s,
        f"{prefix}.iters_cross": cross,
        f"{prefix}.iters_self": own,
        f"{prefix}.s_per_iter": _ratio(run_s, cross + own),
        f"{prefix}.barycentric_s": wall(f"{prefix}.barycentric"),
        f"{prefix}.marginal_err": max(errs, default=0.0),
    }


# Per-layer metric -> (unit, span names it is built from).
LAYER_METRICS = {
    "entropic.grid.run_s": ("s", ["entropic.grid.run"]),
    "entropic.grid.iters_cross": ("count", ["entropic.grid.run"]),
    "entropic.grid.iters_self": ("count", ["entropic.grid.run"]),
    "entropic.grid.s_per_iter": ("s", ["entropic.grid.run"]),
    "entropic.grid.barycentric_s": ("s", ["entropic.grid.barycentric"]),
    "entropic.grid.marginal_err": ("mass", ["entropic.grid.run"]),
    "entropic.sample.run_s": ("s", ["entropic.sample.run"]),
    "entropic.sample.iters_cross": ("count", ["entropic.sample.run"]),
    "entropic.sample.iters_self": ("count", ["entropic.sample.run"]),
    "entropic.sample.s_per_iter": ("s", ["entropic.sample.run"]),
    "entropic.sample.barycentric_s": ("s", ["entropic.sample.barycentric"]),
    "entropic.sample.marginal_err": ("mass", ["entropic.sample.run"]),
    "brenier.entropic_schedule_s": ("s", ["brenier.solve_entropic_schedule"]),
    "brenier.entropic_sample_s": ("s", ["brenier.solve_entropic_sample"]),
    "brenier.grid_measure_s": ("s", ["brenier.grid_measure"]),
    "brenier.affine_fits_s": ("s", ["brenier.local_affine_jacobians"]),
    "brenier.affine_fit_ok_frac": ("frac",
                                   ["brenier.local_affine_jacobians"]),
    "brenier.radial_s": ("s", ["brenier.solve_radial"]),
    "brenier.save_grid_map_s": ("s", ["brenier.save_grid_map"]),
    "brenier.load_grid_map_s": ("s", ["brenier.load_grid_map"]),
    "brenier.lattice_bytes_written": ("bytes", ["brenier.save_grid_map"]),
    "cli.cache_hits": ("count", ["cli.entropic_stage_maps",
                                 "brenier.solve_entropic_schedule"]),
    "cli.cache_misses": ("count", ["cli.entropic_stage_maps",
                                   "brenier.solve_entropic_schedule"]),
    "cli.cache_hit_ratio": ("ratio", ["cli.entropic_stage_maps",
                                      "brenier.solve_entropic_schedule"]),
    "calculus.map_statistics_s": ("s", ["calculus.map_statistics"]),
    "verify.probe_points_s": ("s", ["verify.probe_points"]),
    "verify.bound_checks_s": ("s", ["verify.bound_check"]),
    "majorize.geodesic_s": ("s", ["majorize.geodesic"]),
    "majorize.majorization_s": ("s", ["majorize.majorization"]),
    "majorize.entropy_stability_s": ("s", ["majorize.entropy_stability"]),
    "majorize.entropy_knn_s": ("s", ["majorize.entropy_knn"]),
    "heatflow.integrate_flow_s": ("s", ["heatflow.integrate_flow"]),
    "semigroup.apply_calls": ("count", ["semigroup.apply"]),
    "semigroup.apply_s": ("s", ["semigroup.apply"]),
    "scenarios.build_s": ("s", ["scenarios.build"]),
    "scenarios.coulomb_mcmc_s": ("s", ["scenarios.coulomb_mcmc"]),
    "cli.run_s": ("s", ["cli.run"]),
    "cli.emit_s": ("s", ["cli.emit"]),
    "cli.check_overlap": ("ratio", ["cli.run", "cli.check"]),
    "trace.coverage": ("frac", ["cli.run"]),
}


def missing_span_names(missing):
    """Span names none of whose wrappers could be installed."""
    gone = set(missing)
    wrapped = {name for name, module, path, _ in TARGETS
               if f"{module}.{path}" not in gone}
    names = {name for name, _, _, _ in TARGETS} - wrapped
    if "scenarios.SCENARIO_BUILDERS" in gone:
        names.add("scenarios.build")
    if "cli._run_checks" in gone:
        names.add("cli.check")
    return names


def layer_metrics(spans, missing=()):
    """Per-layer metric -> value, or None when its wrapper is missing."""
    summary = span_summary(spans)

    def wall(name):
        return summary.get(name, {}).get("wall_s", 0.0)

    values = {}
    values.update(_solver_metrics(spans, "entropic.grid", wall))
    values.update(_solver_metrics(spans, "entropic.sample", wall))

    fits = [s["attrs"] for s in spans
            if s["name"] == "brenier.local_affine_jacobians"]
    saves = [s for s in spans if s["name"] == "brenier.save_grid_map"]
    values.update({
        "brenier.entropic_schedule_s": wall("brenier.solve_entropic_schedule"),
        "brenier.entropic_sample_s": wall("brenier.solve_entropic_sample"),
        "brenier.grid_measure_s": wall("brenier.grid_measure"),
        "brenier.affine_fits_s": wall("brenier.local_affine_jacobians"),
        "brenier.affine_fit_ok_frac": _ratio(
            sum(a.get("ok", 0) for a in fits),
            sum(a.get("fits", 0) for a in fits)),
        "brenier.radial_s": wall("brenier.solve_radial"),
        "brenier.save_grid_map_s": wall("brenier.save_grid_map"),
        "brenier.load_grid_map_s": wall("brenier.load_grid_map"),
        "brenier.lattice_bytes_written": sum(
            s["attrs"].get("bytes", 0) for s in saves),
    })

    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    lookups = [s for s in spans if s["name"] == "cli.entropic_stage_maps"
               and s["attrs"].get("cached")]
    misses = sum(_has_descendant(s, "brenier.solve_entropic_schedule",
                                 children) for s in lookups)
    hits = len(lookups) - misses
    values.update({
        "cli.cache_hits": hits,
        "cli.cache_misses": misses,
        "cli.cache_hit_ratio": _ratio(hits, len(lookups)),
    })

    run_s = wall("cli.run")
    checks = sum(s["end"] - s["start"] for s in spans
                 if s["name"] == "cli.check")
    values.update({
        "calculus.map_statistics_s": wall("calculus.map_statistics"),
        "verify.probe_points_s": wall("verify.probe_points"),
        "verify.bound_checks_s": wall("verify.bound_check"),
        "majorize.geodesic_s": wall("majorize.geodesic"),
        "majorize.majorization_s": wall("majorize.majorization"),
        "majorize.entropy_stability_s": wall("majorize.entropy_stability"),
        "majorize.entropy_knn_s": wall("majorize.entropy_knn"),
        "heatflow.integrate_flow_s": wall("heatflow.integrate_flow"),
        "semigroup.apply_calls": summary.get("semigroup.apply",
                                             {}).get("calls", 0),
        "semigroup.apply_s": wall("semigroup.apply"),
        "scenarios.build_s": wall("scenarios.build"),
        "scenarios.coulomb_mcmc_s": wall("scenarios.coulomb_mcmc"),
        "cli.run_s": run_s,
        "cli.emit_s": wall("cli.emit"),
        "cli.check_overlap": _ratio(checks, run_s),
        "trace.coverage": _coverage(spans),
    })

    gone = missing_span_names(missing)
    for metric, (_, sources) in LAYER_METRICS.items():
        if gone.intersection(sources):
            values[metric] = None
    return values
