"""The benchmark's workloads: which CLI invocations one repetition makes.

Every invocation writes all three report formats into its own directory
under the repetition's scratch directory, as a batch user would with
``--out``.  ``run.py`` maps its ``--seed`` onto one of the program seeds
listed here, for which ``reference.json`` holds the expected exit codes,
verdicts and observed values; the program sees that seed only as
``--seed``.
"""

import json
import os

FORMATS = "structured,tabular,plotdata"
SCHEDULE = "0.5,0.1,0.05"

WHY = {
    "grid_entropic": "criterion 10's wehrl instance on criterion 09's "
                     "128-side grid: the grid Sinkhorn takes over 90% of it",
    "sample_entropic": "criterion 11's Coulomb gas: the sample-cloud "
                       "Sinkhorn takes over 95% of it",
    "closed_forms": "eight commands that run no Sinkhorn: quadrature, "
                    "semigroup, radial and closed-form routes, CLI pool",
    "grid_cache_sweep": "the README's cache example: lattice writes, a hit "
                        "and a miss, the only user of the grid-map I/O",
}

# Program seeds with recorded references.  The Coulomb solve is pinned to
# criterion 11's seed 0: its Sinkhorn iteration count follows the MCMC
# draws (self stage 70, 155 and 113 iterations at seeds 0, 1 and 2), so
# runs at different seeds would not measure the same work.  The grid and
# closed-form workloads do the same work at every seed; only their probe
# points move.  closed_forms skips seed 7, where ``heatflow flow`` fails
# its pushforward-moment check (observed 3.385 against 3.0) at this
# commit: a failing invocation is a finding, not a workload.
PROGRAM_SEEDS = {
    "grid_entropic": tuple(range(10)),
    "sample_entropic": (0,),
    "closed_forms": (0, 1, 2, 3, 4, 5, 6, 8, 9, 10),
    "grid_cache_sweep": tuple(range(10)),
}

GRID_PARAMS = {"weights": [0.5, 0.5], "degrees": [0, 1], "side": 128}

CLOSED_FORMS = (
    ("selftest", ["selftest"]),
    ("scenario-gaussian", ["scenario", "gaussian"]),
    ("scenario-wehrl", ["scenario", "wehrl"]),
    ("geodesic-wehrl", ["geodesic", "wehrl"]),
    ("heatflow-flow", ["heatflow", "flow"]),
    ("scenario-fock", ["scenario", "fock"]),
    ("scenario-lsh", ["scenario", "lsh"]),
    ("verify-anisotropic", ["verify", "anisotropic"]),
)


def program_seed(workload, seed):
    seeds = PROGRAM_SEEDS[workload]
    return seeds[seed % len(seeds)]


def invocations(workload, seed, scratch):
    """[(label, program seed, argv)] for one repetition at program `seed`.

    `scratch` is an empty directory owned by the repetition; output and
    cache directories and config files go there.
    """
    calls = []

    def call(label, args, at_seed):
        out = os.path.join(scratch, f"{len(calls):02d}-{label}")
        calls.append((label, at_seed, args + [
            "--seed", str(at_seed), "--out", out, "--format", FORMATS]))

    if workload == "grid_entropic":
        config = os.path.join(scratch, "grid.json")
        with open(config, "w") as fh:
            json.dump({"params": GRID_PARAMS}, fh)
        call("scenario-wehrl-grid", ["scenario", "wehrl", "--config", config,
                                     "--epsilon-schedule", SCHEDULE], seed)
    elif workload == "sample_entropic":
        call("scenario-coulomb", ["scenario", "coulomb"], seed)
    elif workload == "closed_forms":
        for label, args in CLOSED_FORMS:
            call(label, list(args), seed)
    elif workload == "grid_cache_sweep":
        cache = os.path.join(scratch, "cache")
        cached = ["--epsilon-schedule", SCHEDULE, "--cache", cache]
        call("scenario-wehrl-cache", ["scenario", "wehrl"] + cached, seed)
        call("scenario-wehrl-cache", ["scenario", "wehrl"] + cached, seed)
        call("verify-wehrl-cache", ["verify", "wehrl"] + cached, seed + 1)
    else:
        raise KeyError(workload)
    return calls
