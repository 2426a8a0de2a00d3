"""Record the benchmark's correctness reference from the current sources.

    python3 bench/record.py [WORKLOAD ...]

For every workload (default: all) and every program seed it ships, runs
one repetition and stores each invocation's exit code, verdict list and
observed values in ``bench/reference.json``.  Re-record only when a
change is meant to move observed values, and say so where the change is
described: the benchmark fails any run whose values drift from this file.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def record(workload, seed):
    scratch = tempfile.mkdtemp(prefix="record-", dir=run.SCRATCH_ROOT)
    try:
        calls = workloads.invocations(workload, seed, scratch)
        result = run.run_child(scratch, [argv for _, _, argv in calls])
        entries = {}
        for (label, at_seed, argv), outcome in zip(calls, result["runs"]):
            out_dir = argv[argv.index("--out") + 1]
            code, verdicts, observed = run.report_digest(
                os.path.join(out_dir, "report.json"))
            if outcome["rc"] != code:
                raise run.BenchError(f"{label}: exit {outcome['rc']} but "
                                     f"report says {code}")
            entry = {"exit_code": code, "verdicts": verdicts,
                     "observed": observed}
            if entries.setdefault((label, at_seed), entry) != entry:
                raise run.BenchError(f"{label} seed {at_seed}: repeated "
                                     "invocation disagrees with itself")
        return entries
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(names):
    reference = {}
    if os.path.exists(run.REFERENCE):
        reference = run.load_reference()
    os.makedirs(run.SCRATCH_ROOT, exist_ok=True)
    try:
        for workload in names or list(workloads.WHY):
            table = reference[workload] = {}
            for seed in workloads.PROGRAM_SEEDS[workload]:
                for (label, at_seed), entry in record(workload, seed).items():
                    table.setdefault(label, {})[str(at_seed)] = entry
                    print(f"{workload} {label} seed {at_seed}: exit "
                          f"{entry['exit_code']}", flush=True)
    finally:
        try:
            os.rmdir(run.SCRATCH_ROOT)
        except OSError:
            pass  # a benchmark run still uses it
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
