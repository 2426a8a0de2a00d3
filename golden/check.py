"""Golden reports: rerun a fixed set of CLI invocations and compare each
``report.json`` and exit code with the copy committed next to this file.

    python3 golden/check.py            # compare; exits 1 on any mismatch
    python3 golden/check.py --record   # rewrite the committed copies

The program is imported from the checkout's ``src``.  The set is every
(command, kind) pair of the CLI's check table plus nine configs: the grid
route on a 128-side lattice, ``verify wehrl`` with a schedule, a displaced
Wehrl state, the Fock mixture of degrees 0 and 1 through ``scenario`` and
``geodesic`` on the radial route, a three-coefficient Fock polynomial, and
``scenario coulomb`` at three particles, at two particles with beta 2 and
at beta 0.5.  Each runs at seeds 0 and 1, in this process, through
``cli.main``: 52 runs.

Exit codes, strings (verdicts among them), booleans, ints, nulls and the
shape of each report must match exactly.  Each float is counted as
bit-identical or not, and the check fails on one that moves by more than
RTOL * |recorded| + ATOL.  Those bounds sit above what a change of BLAS
kernel or thread count alone moves: certificate values by up to 1.6e-14
relative, the heat flow's ``route_agreement`` by 3e-15 absolute.  A change
to a solver or a check moves values by far more.

Re-recording is a declared change, as with ``bench/record.py``: say where
the change is described which reports moved and why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

GOLDEN = os.path.dirname(os.path.abspath(__file__))
REPORTS = os.path.join(GOLDEN, "reports")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")
sys.path.insert(0, os.path.join(os.path.dirname(GOLDEN), "src"))

from transportlab import cli  # noqa: E402

RTOL = 1e-12
ATOL = 1e-13
SEEDS = (0, 1)
SCHEDULE = "0.5,0.1,0.05"

# label -> (arguments before --seed and --out, config document or None)
CASES = {
    "verify-gaussian": (["verify", "gaussian"], None),
    "geodesic-gaussian": (["geodesic", "gaussian"], None),
    "scenario-gaussian": (["scenario", "gaussian"], None),
    "verify-anisotropic": (["verify", "anisotropic"], None),
    "scenario-anisotropic": (["scenario", "anisotropic"], None),
    "verify-wehrl": (["verify", "wehrl"], None),
    "geodesic-wehrl": (["geodesic", "wehrl"], None),
    "scenario-wehrl": (["scenario", "wehrl"], None),
    "verify-coulomb": (["verify", "coulomb"], None),
    "scenario-coulomb": (["scenario", "coulomb"], None),
    "verify-fock": (["verify", "fock"], None),
    "scenario-fock": (["scenario", "fock"], None),
    "verify-lsh": (["verify", "lsh"], None),
    "scenario-lsh": (["scenario", "lsh"], None),
    "heatflow-flow": (["heatflow", "flow"], None),
    "scenario-flow": (["scenario", "flow"], None),
    "selftest": (["selftest"], None),
    # the benchmark's grid_entropic invocation
    "scenario-wehrl-grid": (
        ["scenario", "wehrl", "--epsilon-schedule", SCHEDULE],
        {"params": {"weights": [0.5, 0.5], "degrees": [0, 1], "side": 128}}),
    "verify-wehrl-schedule": (
        ["verify", "wehrl", "--epsilon-schedule", SCHEDULE], None),
    "scenario-wehrl-displaced": (
        ["scenario", "wehrl"], {"params": {"center": [0.5, -0.3]}}),
    # a second radial state: the Fock mixture on the radial route
    "scenario-wehrl-mixture": (
        ["scenario", "wehrl"],
        {"params": {"weights": [0.5, 0.5], "degrees": [0, 1]}}),
    "geodesic-wehrl-mixture": (
        ["geodesic", "wehrl"],
        {"params": {"weights": [0.5, 0.5], "degrees": [0, 1]}}),
    # the only run through fock_norm's quadrature branch
    "scenario-fock-three": (
        ["scenario", "fock"],
        {"params": {"coefficients": [0.3, 0.2, 0.8], "p": 4.0}}),
    # the Coulomb chain and sample route at three particles and at beta 2
    "scenario-coulomb-three": (
        ["scenario", "coulomb"], {"params": {"particles": 3}}),
    "scenario-coulomb-beta2": (
        ["scenario", "coulomb"], {"params": {"particles": 2, "beta": 2.0}}),
    # the widest cloud: the gas at beta 0.5 spreads furthest
    "scenario-coulomb-beta-half": (
        ["scenario", "coulomb"], {"params": {"beta": 0.5}}),
}


def run_all(scratch):
    """{run name: (exit code, report.json text or None)} for every case and
    seed, each writing into its own directory under `scratch`."""
    runs = {}
    for label, (args, doc) in CASES.items():
        for seed in SEEDS:
            name = f"{label}-s{seed}"
            out = os.path.join(scratch, name)
            argv = args + ["--seed", str(seed), "--out", out]
            if doc is not None:
                config = os.path.join(scratch, f"{name}.json")
                with open(config, "w") as fh:
                    json.dump(doc, fh)
                argv += ["--config", config]
            rc = cli.main(argv)
            path = os.path.join(out, "report.json")
            text = None
            if os.path.exists(path):
                with open(path) as fh:
                    text = fh.read()
            runs[name] = (rc, text)
    return runs


class Tally:
    """Float counts and the mismatches met while comparing reports."""

    def __init__(self):
        self.floats = 0
        self.identical = 0
        self.worst_rel = 0.0
        self.worst_share = 0.0      # of RTOL * |recorded| + ATOL
        self.problems = []

    def compare(self, old, new, where):
        if type(old) is not type(new):
            self.problems.append(f"{where}: {old!r} became {new!r}")
        elif isinstance(old, dict):
            if sorted(old) != sorted(new):
                self.problems.append(f"{where}: keys {sorted(old)} became "
                                     f"{sorted(new)}")
                return
            for key in sorted(old):
                self.compare(old[key], new[key], f"{where}.{key}")
        elif isinstance(old, list):
            if len(old) != len(new):
                self.problems.append(f"{where}: length {len(old)} became "
                                     f"{len(new)}")
                return
            for i, (a, b) in enumerate(zip(old, new)):
                self.compare(a, b, f"{where}[{i}]")
        elif isinstance(old, float):
            self.floats += 1
            if repr(old) == repr(new):
                self.identical += 1
                return
            diff = abs(new - old)
            rel = diff / abs(old) if old != 0 else math.inf
            share = diff / (RTOL * abs(old) + ATOL)
            self.worst_rel = max(self.worst_rel, rel)
            self.worst_share = max(self.worst_share, share)
            if not share <= 1.0:
                self.problems.append(f"{where}: {old!r} became {new!r}")
        elif old != new:
            self.problems.append(f"{where}: {old!r} became {new!r}")


def record(runs):
    os.makedirs(REPORTS, exist_ok=True)
    for stale in set(os.listdir(REPORTS)) - {f"{n}.json" for n in runs}:
        os.remove(os.path.join(REPORTS, stale))
    for name, (rc, text) in runs.items():
        if text is None:
            raise SystemExit(f"{name}: exit {rc} and no report.json")
        with open(os.path.join(REPORTS, f"{name}.json"), "w") as fh:
            fh.write(text)
    with open(EXIT_CODES, "w") as fh:
        json.dump({name: rc for name, (rc, _) in runs.items()}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(runs)} runs into {os.path.relpath(GOLDEN)}")
    return 0


def check(runs):
    with open(EXIT_CODES) as fh:
        codes = json.load(fh)
    tally = Tally()
    if sorted(codes) != sorted(runs):
        tally.problems.append(f"recorded runs {sorted(codes)} but ran "
                              f"{sorted(runs)}")
    same_bytes = 0
    for name, (rc, text) in runs.items():
        if name not in codes:
            continue
        if rc != codes[name]:
            tally.problems.append(f"{name}: exit {codes[name]} became {rc}")
        if text is None:
            tally.problems.append(f"{name}: wrote no report.json")
            continue
        with open(os.path.join(REPORTS, f"{name}.json")) as fh:
            golden = fh.read()
        same_bytes += golden == text
        tally.compare(json.loads(golden), json.loads(text), name)
    for problem in tally.problems:
        print(problem)
    print(f"{len(runs)} runs: {same_bytes} report.json byte-identical; "
          f"{tally.identical} of {tally.floats} floats bit-identical, "
          f"largest relative difference {tally.worst_rel:.3g} "
          f"({tally.worst_share:.3g} of the tolerance); "
          f"{len(tally.problems)} mismatches")
    return 1 if tally.problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the committed reports and exit codes")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden-") as scratch:
        runs = run_all(scratch)
    return record(runs) if args.record else check(runs)


if __name__ == "__main__":
    sys.exit(main())
