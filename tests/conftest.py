"""Shared pytest wiring: one pass/fail line per acceptance criterion, and
the damaged grid-map files that the loader and the CLI cache refuse."""

import hashlib
import io

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter):
    tr = terminalreporter
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in tr.stats.get(outcome, []):
            if "test_acceptance" in rep.nodeid and rep.when == "call":
                rows.append((rep.nodeid.split("::")[-1], rep.passed))
    if not rows:
        return
    tr.write_sep("-", "acceptance criteria")
    for name, ok in sorted(rows):
        tr.write_line(f"{name}: {'pass' if ok else 'FAIL'}")


def _npz(**members):
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def _damaged_lattices(data):
    """name -> (bytes, reason): each way a stage file written by
    `brenier.save_grid_map` can be wrong on disk, or intact but solved for
    another request, with a pattern of the DomainError message that
    refuses it."""
    with np.load(io.BytesIO(data)) as npz:
        good = {key: npz[key] for key in npz.files}
    values = good["values"]

    def sealed(v):
        return _npz(**{**good, "values": v,
                       "sha256": hashlib.sha256(v.tobytes()).hexdigest()})
    flipped = bytearray(data)
    flipped[data.index(values.tobytes()) + values.nbytes // 3] ^= 0x01
    npy = io.BytesIO()
    np.save(npy, values)
    # the lattice format of earlier versions: a text header, raw values
    lattice = b"transportlab-gridmap 2\ndim 2\nvalues\n" + values.tobytes()
    return {
        "empty file": (b"", "EOFError"),
        "crash mid-write": (data[:len(data) // 2], "not a zip file"),
        "cut end record": (data[:-3], "not a zip file"),
        "flipped values byte": (bytes(flipped), "Bad CRC-32"),
        "bare npy": (npy.getvalue(), "not an npz"),
        "missing member": (_npz(**{k: v for k, v in good.items()
                                   if k != "axes"}),
                           "axes is not a file in the archive"),
        "values of another shape": (sealed(values[:-1]), "values of shape"),
        "values of another dtype": (sealed(values.astype("<f4")),
                                    "dtype float32"),
        "stale sha256": (_npz(**{**good, "sha256": hashlib.sha256(
            b"other").hexdigest()}), "fail their sha256 check"),
        "lattice file": (lattice, "pickled"),
        "another epsilon": (_npz(**{**good, "epsilon": good["epsilon"] / 2}),
                            "another epsilon or grid"),
        "other axes": (_npz(**{**good, "axes": good["axes"] * 1.01}),
                       "another epsilon or grid"),
    }


@pytest.fixture
def damaged_lattices():
    return _damaged_lattices
