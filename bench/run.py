"""transportlab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 1 \
        --save bench/baseline.json

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Each repetition of a workload runs in a fresh Python
child (``child.py``), because a CLI user pays the import on every run and
an in-memory cache kept across repetitions must not count as a gain.
Repetitions run one after another; the runner starts no threads, and the
program keeps its own (the CLI's check pool and OpenBLAS).

Untraced (``--trace 0``) runs give the end-to-end metrics, as medians over
the run's repetitions:

  wall_s       wall time of one repetition's invocations
  cpu_s        user + system CPU time of the child over them, all threads
  setup_s      process start until ``transportlab.cli`` is imported
  peak_rss_mb  the child's maximum resident set size

Every invocation's exit code, verdicts and observed values are checked
against ``reference.json``: ``failed_frac`` counts invocations with a
wrong exit code or verdict list, ``observed_drift`` is the largest
relative change of a certificate's observed value.  The last line of
output is one JSON object: correct, attempted, failed and the metrics.

Traced (``--trace 1``) runs alternate an untraced and a traced repetition
and report the per-layer metrics of ``tracing.LAYER_METRICS``, plus
``trace.overhead_frac`` (traced over untraced wall time, minus 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference.json")
SCRATCH_ROOT = os.path.join(ROOT, ".bench_tmp")

# A "speedup" that loosens a solver tolerance or drops iterations moves
# observed values far more than this; rounding-level changes stay below.
DRIFT_TOL = 1e-6
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 160.0
RUN_LIMIT_S = 150.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program or reference)."""


# ---------------------------------------------------------------------------
# one child process


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(scratch, argvs, trace=False, environment=False):
    """Run child.py once; returns its result dict plus ``setup_s``."""
    spec_path = os.path.join(scratch, "spec.json")
    result_path = os.path.join(scratch, "result.json")
    with open(spec_path, "w") as fh:
        json.dump({"invocations": argvs, "trace": trace,
                   "environment": environment}, fh)
    with open(os.path.join(scratch, "child.err"), "w") as err:
        spawned = time.perf_counter()
        proc = subprocess.run([sys.executable, CHILD, spec_path, result_path],
                              cwd=scratch, env=_child_env(),
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=err,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(os.path.join(scratch, "child.err")) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
    with open(result_path) as fh:
        result = json.load(fh)
    if os.path.commonpath([result["cli_file"], SRC]) != SRC:
        raise BenchError(f"imported {result['cli_file']}, not the checkout")
    result["setup_s"] = result["ready"] - spawned
    return result


# ---------------------------------------------------------------------------
# correctness against the recorded reference


def load_reference():
    if not os.path.exists(REFERENCE):
        raise BenchError(f"missing {REFERENCE}")
    with open(REFERENCE) as fh:
        return json.load(fh)


def report_digest(path):
    """(exit code, [(check, bound, verdict)], [(observed, rhs)])."""
    with open(path) as fh:
        doc = json.load(fh)
    certs = doc["certificates"]
    return (doc["exit_code"],
            [[c["check"], c["bound_name"], c["verdict"]] for c in certs],
            [[c["observed"], c["theoretical_rhs"]] for c in certs])


def drift(observed, reference):
    """Largest change of an observed value, relative to its scale."""
    worst = 0.0
    for (obs, _), (ref, rhs) in zip(observed, reference):
        if obs == ref or (obs != obs and ref != ref):
            continue
        scale = max(abs(ref), abs(rhs or 0.0), 1e-12)
        worst = max(worst, abs(obs - ref) / scale)
    return worst


def check_invocation(expected, rc, out_dir):
    """(ok, drift) of one invocation against its reference entry."""
    path = os.path.join(out_dir, "report.json")
    if expected is None or not os.path.exists(path):
        return False, math.inf
    code, verdicts, observed = report_digest(path)
    if len(observed) != len(expected["observed"]):
        return False, math.inf
    ok = (rc == expected["exit_code"] == code
          and verdicts == expected["verdicts"])
    return ok, drift(observed, expected["observed"])


# ---------------------------------------------------------------------------
# repetitions and runs


def repetition(workload, seed, reference, parent, trace=False):
    scratch = tempfile.mkdtemp(prefix="rep-", dir=parent)
    try:
        calls = workloads.invocations(workload, seed, scratch)
        result = run_child(scratch, [argv for _, _, argv in calls],
                           trace=trace)
        checks = []
        for (label, at_seed, argv), run in zip(calls, result["runs"]):
            expected = reference.get(workload, {}).get(label, {}).get(
                str(at_seed))
            out_dir = argv[argv.index("--out") + 1]
            checks.append(check_invocation(expected, run["rc"], out_dir))
        result["checks"] = checks
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values):
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def measure(workload, seed, seconds, trace, reference, scratch):
    """One benchmark run of `workload`; returns the full result dict.

    Repetitions make and remove their own directories under `scratch`.
    """
    at_seed = workloads.program_seed(workload, seed)
    started = time.perf_counter()
    warm = tempfile.mkdtemp(prefix="warm-", dir=scratch)
    try:
        # compiles bytecode and warms the file cache; also reads the
        # environment, outside any timed repetition
        env = run_child(warm, [], environment=True)["environment"]
    finally:
        shutil.rmtree(warm, ignore_errors=True)

    plain, traced, durations = [], [], []
    begun = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(repetition(workload, at_seed, reference, scratch))
        if trace:
            traced.append(repetition(workload, at_seed, reference, scratch,
                                     trace=True))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - begun
        step = statistics.median(durations)
        if elapsed + step > seconds or \
                time.perf_counter() - started + step > RUN_LIMIT_S:
            break

    setups = [r["setup_s"] for r in plain + traced]
    probe = tempfile.mkdtemp(prefix="setup-", dir=scratch)
    try:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(probe, [])["setup_s"])
    finally:
        shutil.rmtree(probe, ignore_errors=True)

    checks = [c for r in plain + traced for c in r["checks"]]
    failed = sum(not ok for ok, _ in checks)
    worst = max(d for _, d in checks)
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    out = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "program_seed": at_seed,
        "seconds": seconds,
        "environment": env,
        "attempted": len(checks),
        "failed": failed,
        "failed_frac": failed / len(checks),
        "observed_drift": worst,
        "correct": failed == 0 and worst <= DRIFT_TOL,
        "end_to_end": {k: summarize(v) for k, v in samples.items()},
        "samples": samples,
    }
    if trace:
        out["layers"] = layer_summary(traced, samples["wall_s"])
    return out


def layer_summary(traced, plain_walls):
    per_rep = [tracing.layer_metrics(r["spans"], r["missing"])
               for r in traced]
    layers = {}
    for name in tracing.LAYER_METRICS:
        values = [m[name] for m in per_rep]
        layers[name] = (None if any(v is None for v in values)
                        else statistics.median(values))
    layers["trace.overhead_frac"] = (
        statistics.median([r["wall_s"] for r in traced])
        / statistics.median(plain_walls) - 1.0)
    spans = {}
    for r in traced:
        for name, row in tracing.span_summary(r["spans"]).items():
            spans.setdefault(name, []).append(row)
    return {
        "metrics": layers,
        "missing": sorted({m for r in traced for m in r["missing"]}),
        "spans": {name: {k: statistics.median(row[k] for row in rows)
                         for k in rows[0]}
                  for name, rows in sorted(spans.items())},
    }


# ---------------------------------------------------------------------------
# output


LAYER_UNITS = {name: unit
               for name, (unit, _) in tracing.LAYER_METRICS.items()}
LAYER_UNITS["trace.overhead_frac"] = "frac"


def metric_block(result, trace, prefix=""):
    if trace:
        return {f"{prefix}{name}": (
                    {"value": value, "unit": LAYER_UNITS[name]}
                    if value is not None else
                    {"value": None, "unit": LAYER_UNITS[name],
                     "absent": True})
                for name, value in result["layers"]["metrics"].items()}
    return {f"{prefix}{name}": {"value": result["end_to_end"][name]["median"],
                                "unit": unit}
            for name, unit in END_TO_END.items()}


def print_human(result):
    w = result["workload"]
    print(f"== {w} (seed {result['seed']} -> program seed "
          f"{result['program_seed']}): {result['why']}")
    for name, unit in END_TO_END.items():
        s = result["end_to_end"][name]
        print(f"  {name:12} median {s['median']:.4f} {unit:3}  "
              f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
    print(f"  failed_frac  {result['failed_frac']:.4f} "
          f"({result['failed']}/{result['attempted']} invocations)")
    print(f"  observed_drift {result['observed_drift']:.3e} "
          f"(limit {DRIFT_TOL:g})")
    if "layers" in result:
        for name, value in result["layers"]["metrics"].items():
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {name:34} {shown} {LAYER_UNITS[name]}")
        if result["layers"]["missing"]:
            print(f"  missing wrappers: {result['layers']['missing']}")
    print(f"  environment {json.dumps(result['environment'], sort_keys=True)}")
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--save", default=None,
                        help="also write the full results as JSON here")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "transportlab", "cli.py")):
        sys.stderr.write(f"benchmark error: no transportlab sources under "
                         f"{SRC}\n")
        return 2
    names = (list(workloads.WHY) if args.workload == "all"
             else [args.workload])
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT)
    results = []
    try:
        reference = load_reference()
        for name in names:
            results.append(measure(name, args.seed, args.seconds,
                                   bool(args.trace), reference, scratch))
            print_human(results[-1])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass  # another run still uses it

    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"drift_tol": DRIFT_TOL, "runs": results}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")

    single = args.workload != "all"
    metrics = {}
    for r in results:
        metrics.update(metric_block(
            r, args.trace, prefix="" if single else f"{r['workload']}."))
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
