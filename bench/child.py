"""One repetition of a workload, in a fresh interpreter.

    python3 bench/child.py SPEC.json RESULT.json

``run.py`` starts this file with ``src`` on PYTHONPATH.  It imports
``transportlab.cli`` first, before anything else it needs, so that the
runner can time start-up up to a ready CLI.  It then calls
``cli.main(argv)`` for each invocation in SPEC and writes wall time, CPU
time (all threads), peak RSS, exit codes and, when SPEC asks for it, the
trace spans to RESULT.  An empty invocation list only measures start-up.
"""

import sys
import time

import transportlab.cli as cli

READY = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_runtime():
    """OpenBLAS core and thread count as loaded in this process."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("scipy_openblas", ""), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                core = getattr(lib, f"{prefix}_get_corename{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            threads.argtypes = []
            core.restype = ctypes.c_char_p
            core.argtypes = []
            return {"blas_threads": int(threads()),
                    "blas_core": core().decode()}
    return {"blas_threads": None, "blas_core": None}


def environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
    }
    env.update(_blas_runtime())
    return env


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    recorder = None
    if spec.get("trace"):
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    runs = []
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    for argv in spec["invocations"]:
        c0, w0 = _cpu_s(), time.perf_counter()
        rc = cli.main(argv)
        runs.append({"rc": rc, "wall_s": time.perf_counter() - w0,
                     "cpu_s": _cpu_s() - c0})
    wall = time.perf_counter() - wall0
    cpu = _cpu_s() - cpu0

    result = {
        "ready": READY,
        "cli_file": os.path.abspath(cli.__file__),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": runs,
    }
    if spec.get("environment"):
        result["environment"] = environment()
    if recorder is not None:
        result["spans"] = recorder.spans
        result["missing"] = recorder.missing
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
