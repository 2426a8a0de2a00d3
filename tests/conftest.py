"""Shared pytest wiring: one pass/fail line per acceptance criterion, and
the damaged grid-map lattices that the loader and the CLI cache refuse."""

import hashlib

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


def _damaged_lattices(data):
    """name -> (bytes, reason): each way a lattice file written by
    `brenier.save_grid_map` can be wrong on disk, with a pattern of the
    DomainError message that refuses it."""
    head, body = data.split(b"\nvalues\n", 1)
    lines = head.split(b"\n")
    at = {ln.split(b" ")[0]: i for i, ln in enumerate(lines)}
    short = lines[at[b"shape"]].split()
    short[-1] = b"%d" % (int(short[-1]) - 1)
    flipped = bytearray(body)
    flipped[len(body) // 3] ^= 0x01
    stale = b"sha256 " + hashlib.sha256(b"other").hexdigest().encode()
    # the text format of earlier versions: one repr row per lattice node
    dim = int(lines[at[b"dim"]].split()[1])
    rows = np.frombuffer(body, "<f8").reshape(-1, dim)
    v1 = [b"transportlab-gridmap 1", *lines[1:at[b"iterations"]], b"values"]
    v1 += [" ".join(repr(float(v)) for v in row).encode() for row in rows]

    def lattice(header, values=body):
        return b"\n".join(header) + b"\nvalues\n" + values

    def swap(key, line):
        return [line if i == at[key] else ln for i, ln in enumerate(lines)]
    return {
        "no values header": (head + b"\n" + body, "missing values header"),
        "truncated body": (lattice(lines, body[:len(body) // 2]),
                           "a body of .* disagrees with shape"),
        "truncated header": (b"\n".join(lines[:3]) + b"\n",
                             "missing values header"),
        "cut mid-value": (data[:-3], "a body of .* disagrees with shape"),
        "shape disagrees": (lattice(swap(b"shape", b" ".join(short))),
                            "a body of .* disagrees with shape"),
        "flipped body byte": (lattice(lines, bytes(flipped)),
                              "fails its sha256 check"),
        "stale sha256": (lattice(swap(b"sha256", stale)),
                         "fails its sha256 check"),
        "v1 text lattice": (b"\n".join(v1) + b"\n", "not a version 2"),
    }


@pytest.fixture
def damaged_lattices():
    return _damaged_lattices
