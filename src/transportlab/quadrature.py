"""Quadrature helpers: tensor Gauss-Legendre boxes, Gauss-Hermite grids,
cumulative integrals with monotone inversion, stratified uniform probes.

Every integral is a deterministic rule; the probe draws take an explicit
numpy Generator. Points are arrays of shape (m, n); weights of shape (m,).
The 1-D Gauss-Legendre and Gauss-Hermite rules are built once per order
and cached as read-only arrays, which every rule and check shares.

A cumulative integral's value at a point depends on that point alone, not
on the batch it sits in: its partial-panel sums run row by row, not
through BLAS. So a map that inverts it once per distinct radius (the
radial route) returns the bits it would return point by point.

A rule can hold far more points than any one evaluation needs in memory
(884,736 nodes for the geodesic box in dim 3). `blockwise` evaluates a
row-wise function over blocks of EVAL_ROWS rows into one preallocated
output, so the temporaries of a block (a few MB at most for dim <= 3) are
all that an evaluation adds to its result, whatever the size of the rule.
Reductions over the rule (sums against the weights) run on the whole
output afterwards, as they would in one batch.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from .errors import DomainError

# rows per evaluation block; in dim 3 a block holds 96 KiB of points and
# 288 KiB of Jacobians
EVAL_ROWS = 4096
# the most nodes a tensor grid may hold, 48 MB of points in dim 3; the
# largest in use is the geodesic rule of `geodesic gaussian` at dim 3,
# 96^3 = 884,736 nodes
MAX_GRID_NODES = 2 ** 21


@functools.cache
def _rule(build, order):
    """build(order), numpy's leggauss or hermegauss, built once per order
    and read-only, since every caller shares the arrays."""
    x, w = build(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def blockwise(fn, x, rows=EVAL_ROWS):
    """fn(x) for a row-wise fn, evaluated over blocks of `rows` rows of x.

    Row i of the result must depend on row i of x alone. The blocks'
    results are written into one output allocated from the first block,
    so only one block's temporaries are alive at a time. A batch of at
    most `rows` rows (none included) is one call, fn(x).
    """
    if len(x) <= rows:
        return fn(x)
    first = fn(x[:rows])
    out = np.empty((len(x),) + first.shape[1:], dtype=first.dtype)
    out[:rows] = first
    for lo in range(rows, len(x), rows):
        out[lo:lo + rows] = fn(x[lo:lo + rows])
    return out


def tensor_grid(axes):
    """Tensor product of 1-D node arrays, shape (prod of sizes, len(axes)),
    the last axis varying fastest (meshgrid's "ij" order). A grid of
    more than MAX_GRID_NODES nodes raises DomainError before any is
    built."""
    nodes = math.prod(len(a) for a in axes)
    if nodes > MAX_GRID_NODES:
        raise DomainError(f"a tensor grid of {nodes} nodes exceeds the "
                          f"budget of {MAX_GRID_NODES}")
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def gauss_legendre_1d(a, b, order=32, panels=4):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _rule(leggauss, order)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def box_gauss_legendre(box, order=32, panels=4):
    """Tensor Gauss-Legendre rule over a box.

    box: TruncationBox-like with .center (n,) and .half_widths (n,).
    Returns (points (m, n), weights (m,)). Intended for n <= 3.
    """
    center = np.asarray(box.center, dtype=float)
    half = np.asarray(box.half_widths, dtype=float)
    x_axes, w_axes = zip(*(gauss_legendre_1d(c - h, c + h, order=order,
                                             panels=panels)
                           for c, h in zip(center, half)))
    return tensor_grid(x_axes), tensor_grid(w_axes).prod(axis=1)


def gauss_hermite(dim, order=64):
    """Tensor Gauss-Hermite rule for the standard Gaussian weight.

    Returns (points (m, dim), weights (m,)) with sum(weights) == 1, so that
    sum(w * f(points)) approximates E_{N(0, Id)}[f].
    """
    x, w = _rule(hermegauss, order)
    w = w / np.sqrt(2.0 * np.pi)
    return tensor_grid([x] * dim), tensor_grid([w] * dim).prod(axis=1)


class CumulativeIntegral:
    """Cumulative integral F(x) = int_a^x f with monotone inversion.

    The interval is split into panels (optionally log-spaced away from `a`,
    the first edge at 1e-8 of the span), each integrated with Gauss-Legendre;
    queries integrate the partial panel, each point's sum on its own row,
    so F at a point does not depend on the rest of the batch. Assumes
    f >= 0 so F is nondecreasing.
    """

    def __init__(self, fn, a, b, panels=512, order=16, log_spaced=False):
        self.fn = fn
        self.a = float(a)
        self.b = float(b)
        if log_spaced:
            span = self.b - self.a
            t = np.geomspace(1e-8, 1.0, panels)
            edges = np.concatenate([[self.a], self.a + span * t])
        else:
            edges = np.linspace(self.a, self.b, panels + 1)
        self.edges = edges
        x, w = _rule(leggauss, order)
        self._gl_x, self._gl_w = x, w
        lo, hi = edges[:-1], edges[1:]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        nodes = mid[:, None] + half[:, None] * x[None, :]
        vals = fn(nodes.ravel()).reshape(nodes.shape)
        panel_ints = half * vals.dot(w)
        self.cum = np.concatenate([[0.0], np.cumsum(panel_ints)])
        self.total = float(self.cum[-1])

    def value(self, x):
        """F(x) for scalar or array x inside [a, b]."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x).astype(float)
        xf = np.clip(xf, self.a, self.b)
        idx = np.clip(np.searchsorted(self.edges, xf, side="right") - 1,
                      0, len(self.edges) - 2)
        lo = self.edges[idx]
        half = 0.5 * (xf - lo)
        mid = lo + half
        nodes = mid[:, None] + half[:, None] * self._gl_x[None, :]
        vals = self.fn(nodes.ravel()).reshape(nodes.shape)
        partial = half * (vals * self._gl_w).sum(axis=1)
        out = self.cum[idx] + partial
        return float(out[0]) if scalar else out

    def inverse(self, q):
        """Solve F(x) = q by bisection refined with Newton (f as derivative).

        Each point starts at the middle of the panel holding q and steps
        by Newton while the step lands strictly inside its bracket, by
        bisection otherwise (a step leaving the bracket, or f(x) = 0).
        A point stops, and later iterations skip it, once
          - a Newton step inside the bracket moves less than tol (1 + |x|),
          - F(x) == q exactly, and x is kept as it is, or
          - its bracket is narrower than tol (1 + |x|),
        with tol = 1e-13; at most 100 iterations run.
        """
        q = np.asarray(q, dtype=float)
        scalar = q.ndim == 0
        qf = np.atleast_1d(q).astype(float)
        qf = np.clip(qf, 0.0, self.total)
        idx = np.clip(np.searchsorted(self.cum, qf, side="right") - 1,
                      0, len(self.edges) - 2)
        lo = self.edges[idx].copy()
        hi = self.edges[idx + 1].copy()
        x = 0.5 * (lo + hi)
        act = np.arange(x.size)
        for _ in range(100):
            if act.size == 0:
                break
            xa, la, ha = x[act], lo[act], hi[act]
            fx = self.value(xa) - qf[act]
            too_low = fx < 0
            la = np.where(too_low, xa, la)
            ha = np.where(too_low, ha, xa)
            d = self.fn(xa)
            step_ok = d > 0
            xn = np.where(step_ok, xa - fx / np.where(step_ok, d, 1.0), xa)
            inside = (xn > la) & (xn < ha)
            hit = fx == 0
            x[act] = np.where(hit, xa, np.where(inside, xn, 0.5 * (la + ha)))
            lo[act], hi[act] = la, ha
            size = 1e-13 * (1.0 + np.abs(x[act]))
            done = (hit | (inside & (np.abs(xn - xa) < size))
                    | (ha - la < size))
            act = act[~done]
        return float(x[0]) if scalar else x


def stratified_uniform(box, count, rng):
    """Stratified uniform samples in a box (Latin hypercube per axis)."""
    center = np.asarray(box.center, dtype=float)
    half = np.asarray(box.half_widths, dtype=float)
    n = center.size
    u = (np.arange(count)[:, None] + rng.random((count, n))) / count
    for j in range(n):
        rng.shuffle(u[:, j])
    return center + (2.0 * u - 1.0) * half
