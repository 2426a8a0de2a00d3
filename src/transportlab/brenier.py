"""Transport-map solvers and the Monge-Ampere residual.

Four routes produce a TransportMap, tagged by provenance:

  closed_form_gaussian  exact affine map between Gaussians
  quantile_1d           CDF matching on an interval
  radial                cumulative mass matching for co-centered radial pairs
  entropic_grid         Sinkhorn on tensor grids + debiased barycentric map

A fifth, solve_entropic_sample, runs Sinkhorn on point clouds and returns
the debiased map's values at the source samples alone.

The two entropic solves run at the BLAS thread count the command was
entered with (blas.entry_threads); the rest of a command runs on one
thread. At a count of 2 or more the grid solve runs its self-transport on
a second Python thread beside the cross-transport, both at one BLAS
thread; the sample solve stays serial.

Exact routes carry analytic Jacobians; grid maps differentiate their lattice
values by stencils; sample-map Jacobians come from local affine models over
nearest neighbors. The Monge-Ampere residual log rho_mu(x) - log rho_nu(T x)
- log det DT(x) measures pushforward fidelity pointwise.

save_grid_map stores a grid map in numpy's .npz container (values, axes,
epsilon and the values' sha256), and load_grid_map returns it only when
it is intact and was solved for the requested epsilon and lattice axes.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import math
import os
import threading
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import blas, entropic, quadrature
from .errors import ConvexityViolationError, DomainError, SupportError

PROVENANCES = ("closed_form_gaussian", "quantile_1d", "radial",
               "entropic_grid")

# panels and Gauss-Legendre order of the CDF routes' cumulative integrals
_CDF_PANELS, _CDF_ORDER = 2048, 16
# the radial scan's coarse step toward its resolved radius
_BRACKET_STRIDE = 64
# Sinkhorn marginal tolerance and iteration cap per stage, by route
_GRID_TOL, _GRID_MAX_ITER = 1e-7, 2000
_SAMPLE_TOL, _SAMPLE_MAX_ITER = 1e-5, 1500


@dataclass
class TransportMap:
    """A map R^n -> R^n with an optional Jacobian evaluator.

    Both evaluators are row-wise and run over blocks of
    quadrature.EVAL_ROWS points; with `whole_batch` they take the whole
    batch and bound their own working set (the radial route shares work
    between rows of equal radius). `check_fn`, when given, refuses a batch
    outside the map's domain; it sees the whole batch before any block
    runs, so its error is the one batch's, wherever the offending row is.
    """

    dim: int
    provenance: str
    eval_fn: object
    jacobian_fn: object = None
    entropic_epsilon: float | None = None
    details: dict = field(default_factory=dict)
    check_fn: object = None
    whole_batch: bool = False

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise DomainError(f"unknown provenance {self.provenance!r}")

    def _blockwise(self, fn, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.check_fn is not None:
            self.check_fn(x)
        if self.whole_batch:
            return np.asarray(fn(x), dtype=float)
        return quadrature.blockwise(
            lambda b: np.asarray(fn(b), dtype=float), x)

    def __call__(self, x):
        return self._blockwise(self.eval_fn, x)

    def jacobian(self, x):
        if self.jacobian_fn is None:
            raise DomainError(
                f"{self.provenance} maps carry no Jacobian evaluator")
        return self._blockwise(self.jacobian_fn, x)


# ---------------------------------------------------------------------------
# closed-form Gaussian route


def _sqrtm_psd(M):
    evals, evecs = np.linalg.eigh(M)
    if evals.min() < -1e-12 * max(1.0, evals.max()):
        raise DomainError("matrix is not positive semidefinite")
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T


def solve_gaussian(mu, nu):
    """Affine optimal map between Gaussian densities."""
    if mu.kind != "gaussian" or nu.kind != "gaussian":
        raise DomainError("solve_gaussian needs Gaussian inputs")
    m0, c0 = mu.params["mean"], mu.params["cov"]
    m1, c1 = nu.params["mean"], nu.params["cov"]
    s = _sqrtm_psd(c0)
    s_inv = np.linalg.inv(s)
    middle = _sqrtm_psd(s @ c1 @ s)
    A = s_inv @ middle @ s_inv
    A = 0.5 * (A + A.T)

    def eval_fn(x):
        return m1 + (x - m0) @ A.T

    def jacobian_fn(x):
        return np.broadcast_to(A, (x.shape[0],) + A.shape).copy()

    return TransportMap(mu.dim, "closed_form_gaussian", eval_fn, jacobian_fn,
                        details={"matrix": A})


# ---------------------------------------------------------------------------
# one-dimensional quantile route


def solve_quantile_1d(mu, nu, box_mu, box_nu):
    """CDF-matching map T = G^{-1} o F between densities on R."""
    if mu.dim != 1 or nu.dim != 1:
        raise DomainError("quantile route is one-dimensional")
    F = quadrature.CumulativeIntegral(
        lambda r: np.exp(mu.logpdf(r[:, None])), box_mu.lower[0],
        box_mu.upper[0], panels=_CDF_PANELS, order=_CDF_ORDER)
    G = quadrature.CumulativeIntegral(
        lambda r: np.exp(nu.logpdf(r[:, None])), box_nu.lower[0],
        box_nu.upper[0], panels=_CDF_PANELS, order=_CDF_ORDER)
    ratio = G.total / F.total

    def eval_fn(x):
        q = F.value(x[:, 0]) * ratio
        return G.inverse(q)[:, None]

    def jacobian_fn(x):
        t = eval_fn(x)
        d = ratio * np.exp(mu.logpdf(x) - nu.logpdf(t))
        return d[:, None, None]

    return TransportMap(1, "quantile_1d", eval_fn, jacobian_fn,
                        details={"mass_mu": F.total, "mass_nu": G.total})


# ---------------------------------------------------------------------------
# radial route


def _radial_symmetry_error(dens, radii):
    rng = np.random.default_rng(7)
    worst = 0.0
    for r in radii:
        if dens.dim == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            d = rng.standard_normal((16, dens.dim))
            dirs = d / np.linalg.norm(d, axis=1, keepdims=True)
        vals = dens.logpdf(dens.center + r * dirs)
        worst = max(worst, float(vals.max() - vals.min()))
    return worst


def _last_below(t_of_r, radii, t_sat):
    """The last of the ascending radii with t(r) <= t_sat, or None.

    t(r) increases along the radii, so the radii that pass form a prefix:
    every _BRACKET_STRIDE-th radius brackets its end, and the radii up to
    the next coarse one after the last coarse pass are searched one by
    one. That inverts at most len / stride + stride - 1 radii instead of
    all of them, and lands on the radius a full scan would.
    """
    stride = _BRACKET_STRIDE
    with np.errstate(all="ignore"):
        ok = np.flatnonzero(t_of_r(radii[::stride]) <= t_sat)
        if ok.size == 0:
            return None
        lo = ok[-1] * stride
        fine = radii[lo + 1:lo + stride]
        tail = np.flatnonzero(t_of_r(fine) <= t_sat)
    return float(radii[lo] if tail.size == 0 else fine[tail[-1]])


def solve_radial(mu, nu, r_max):
    """Mass-matching map between co-centered radial densities.

    Works from the densities' radial profiles rho(r); the radial transport
    t(r) solves M_nu(t) = M_mu(r) for the cumulative masses with weight
    r^(n-1), on a log-spaced grid. The Jacobian has radial eigenvalue t'(r)
    and tangential eigenvalue t(r)/r.

    The map takes a batch whole: after the domain check it computes every
    point's radius and inverts M_nu once per distinct radius, since t(r)
    depends on r alone and a tensor rule symmetric about the center repeats
    each radius many times; values and Jacobians are then assembled per
    point, the Jacobians in blocks of quadrature.EVAL_ROWS rows. Which
    points share an inversion does not move a bit: M_mu and M_nu at a point
    depend on that point alone.
    """
    if mu.dim != nu.dim:
        raise DomainError("dimension mismatch")
    if mu.radial_profile is None or nu.radial_profile is None:
        raise DomainError("both densities need radial profiles")
    if np.linalg.norm(mu.center - nu.center) > 1e-12:
        raise DomainError("radial route needs a common center")
    n = mu.dim
    sym = max(_radial_symmetry_error(mu, [0.3 * r_max, 0.6 * r_max]),
              _radial_symmetry_error(nu, [0.3 * r_max, 0.6 * r_max]))
    if sym > 1e-8:
        raise DomainError(
            f"density is not radial about the center (log-density spread "
            f"{sym:.2e} over directions)")
    center = mu.center

    def mass_integrand(profile):
        def fn(r):
            r = np.asarray(r, dtype=float)
            return profile(r) * r ** (n - 1)
        return fn

    Mmu = quadrature.CumulativeIntegral(mass_integrand(mu.radial_profile),
                                        0.0, r_max, panels=_CDF_PANELS,
                                        order=_CDF_ORDER, log_spaced=True)
    Mnu = quadrature.CumulativeIntegral(mass_integrand(nu.radial_profile),
                                        0.0, r_max, panels=_CDF_PANELS,
                                        order=_CDF_ORDER, log_spaced=True)
    ratio = Mnu.total / Mmu.total
    r_floor = 1e-9 * r_max
    # radius whose mass-matching slope stands in for r <= r_floor
    r0 = max(10 * r_floor, 1e-7 * r_max)

    def t_of_r(r):
        return Mnu.inverse(Mmu.value(r) * ratio)

    # CDF matching stops resolving once either cumulative tail drops under
    # double precision; past that radius values and slopes are meaningless,
    # so the map refuses to evaluate there instead of returning noise. A
    # scan point whose own tail is under it is never reliable; the others
    # are candidates, and the reliable radius is the last one with
    # t(r) <= t_sat.
    scan = np.linspace(r_max / 4096.0, r_max, 4096)
    tail_mu = 1.0 - Mmu.value(scan) / Mmu.total
    tail_nu = 1.0 - Mnu.value(scan) / Mnu.total
    nu_ok = tail_nu > 1e-13
    t_sat = float(scan[nu_ok][-1]) if np.any(nu_ok) else r_max
    last = _last_below(t_of_r, scan[tail_mu > 1e-13], t_sat)
    r_reliable = r_max if last is None else last

    def check_fn(x):
        r = np.linalg.norm(x - center, axis=1)
        if r.size and float(r.max()) > r_reliable * (1 + 1e-12):
            raise SupportError(
                f"radial map resolved only to radius {r_reliable:.4g} "
                f"(cumulative tail under double precision); asked at "
                f"radius {float(r.max()):.4g}")

    def tprime(r, t):
        num = mu.radial_profile(r) * r ** (n - 1)
        den = nu.radial_profile(t) * t ** (n - 1)
        if np.any(den <= 0):
            raise DomainError("target radial profile vanished on the range")
        return ratio * num / den

    def radii(x):
        """d = x - center, r = |d| and t(r) for the whole batch, with one
        inversion per distinct radius (r0 standing in for r <= r_floor):
        a tensor rule symmetric about the center repeats each radius."""
        d = x - center
        r = np.linalg.norm(d, axis=1)
        distinct, row = np.unique(np.where(r > r_floor, r, r0),
                                  return_inverse=True)
        return d, r, t_of_r(distinct)[row]

    def eval_fn(x):
        d, r, t = radii(x)
        pos = r > r_floor
        d[pos] *= (t[pos] / r[pos])[:, None]
        d[~pos] = 0.0
        return center + d

    eye = np.eye(n)

    def jacobian_fn(x):
        d, r, t = radii(x)

        def block(rows):
            rb, tb = r[rows], t[rows]
            pos = rb > r_floor
            rp, tp = rb[pos], tb[pos]
            u = d[rows[pos]] / rp[:, None]
            P = np.einsum("mi,mj->mij", u, u)
            J = np.empty((rows.size, n, n))
            J[pos] = (tprime(rp, tp)[:, None, None] * P
                      + (tp / rp)[:, None, None] * (eye - P))
            # limit slope from mass matching on a tiny shell
            J[~pos] = (tb[~pos] / r0)[:, None, None] * eye
            return J
        return quadrature.blockwise(block, np.arange(len(x)))

    return TransportMap(n, "radial", eval_fn, jacobian_fn,
                        details={"r_max": r_max, "mass_mu": Mmu.total,
                                 "mass_nu": Mnu.total,
                                 "symmetry_error": sym,
                                 "reliable_radius": r_reliable},
                        check_fn=check_fn, whole_batch=True)


# ---------------------------------------------------------------------------
# entropic grid route


class GridMap:
    """Map values on a tensor grid, differentiated by stencils.

    A map holds its lattice axes and values alone: `jacobian` forms the
    stencil at the nodes it is asked for, so a map costs the same whether
    it was solved or loaded. `eval` and `jacobian` take points on the
    lattice; the TransportMap around them refuses any other batch with
    `_check_inside` first."""

    def __init__(self, axes, values):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.dim = len(self.axes)
        shape = tuple(a.size for a in self.axes)
        self.values = np.asarray(values, dtype=float).reshape(shape + (self.dim,))

    def _check_inside(self, x):
        """Refuse points off the lattice (1e-12 relative slack at the edges)
        rather than extrapolate its boundary values."""
        for axis, a in enumerate(self.axes):
            pad = 1e-12 * max(abs(a[0]), abs(a[-1]), a[-1] - a[0])
            inside = (x[:, axis] >= a[0] - pad) & (x[:, axis] <= a[-1] + pad)
            if not np.all(inside):
                bad = x[int(np.argmin(inside))]
                raise SupportError(
                    f"grid map covers [{a[0]:.6g}, {a[-1]:.6g}] on axis "
                    f"{axis}; asked at {bad.tolist()}")

    def _locate(self, x):
        idx = []
        frac = []
        for axis in range(self.dim):
            a = self.axes[axis]
            i = np.clip(np.searchsorted(a, x[:, axis]) - 1, 0, a.size - 2)
            idx.append(i)
            frac.append((x[:, axis] - a[i]) / (a[i + 1] - a[i]))
        return idx, frac

    def eval(self, x):
        """Multilinear interpolation over the lattice cell of each point."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        idx, frac = self._locate(x)
        t = [np.clip(f, 0.0, 1.0)[:, None] for f in frac]
        terms = []
        # the 2^dim cell corners, axis 0 varying fastest
        for corner in itertools.product((0, 1), repeat=self.dim):
            corner = corner[::-1]
            w = math.prod(t[axis] if c else 1 - t[axis]
                          for axis, c in enumerate(corner))
            terms.append(w * self.values[tuple(
                i + c for i, c in zip(idx, corner))])
        return sum(terms[1:], terms[0])

    def jacobian(self, x):
        """Stencil Jacobian at the nearest node of each point, entry for
        entry np.gradient's over the whole lattice (first-order edges)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        nearest = []
        for axis in range(self.dim):
            a = self.axes[axis]
            i = np.clip(np.searchsorted(a, x[:, axis]), 0, a.size - 1)
            left = np.clip(i - 1, 0, a.size - 1)
            use_left = np.abs(x[:, axis] - a[left]) <= np.abs(a[i] - x[:, axis])
            nearest.append(np.where(use_left, left, i))
        return np.stack([self._node_derivative(nearest, axis)
                         for axis in range(self.dim)], axis=-1)

    def _node_derivative(self, nodes, axis):
        """The values' derivative along `axis` at the nodes `nodes` (one
        index array per axis), by np.gradient's arithmetic: central
        differences when every step of the axis equals the first, else the
        weights a f[i-1] + b f[i] + c f[i+1] summed left to right, and
        one-sided differences at the two edges."""
        i = nodes[axis]
        last = self.axes[axis].size - 1
        steps = np.diff(self.axes[axis])
        lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, last)
        f_lo, f_i, f_hi = (self.values[(*nodes[:axis], k, *nodes[axis + 1:])]
                           for k in (lo, i, hi))
        edge = ((i == 0) | (i == last))[:, None]
        if (steps == steps[0]).all():
            return (f_hi - f_lo) / np.where(edge, steps[0], 2.0 * steps[0])
        dx1 = steps[lo][:, None]
        dx2 = steps[np.minimum(i, last - 1)][:, None]
        inner = (-dx2 / (dx1 * (dx1 + dx2)) * f_lo
                 + (dx2 - dx1) / (dx1 * dx2) * f_i
                 + dx1 / (dx2 * (dx1 + dx2)) * f_hi)
        return np.where(edge, (f_hi - f_lo) / dx1, inner)

    def transport_map(self, epsilon, **details):
        """The entropic grid TransportMap of these values, solved at
        `epsilon`; `details` gain the grid map itself."""
        return TransportMap(self.dim, "entropic_grid", self.eval,
                            self.jacobian, entropic_epsilon=epsilon,
                            details={**details, "grid_map": self},
                            check_fn=self._check_inside)


def grid_measure(dens, box, side):
    """Cell masses of a density on a tensor grid, normalized on the box."""
    axes = box.axis_nodes(side)
    logp = dens.logpdf(box.grid(side)).reshape([side] * box.dim)
    log_mass = logp - _logsumexp(logp)
    return axes, log_mass


def _logsumexp(a):
    m = a.max()
    return m + np.log(np.exp(a - m).sum())


def _check_schedule(schedule):
    schedule = [float(e) for e in schedule]
    if not schedule or any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("epsilon schedule must strictly decrease")
    return schedule


def _stages(axes, log_a, log_b, schedule):
    """The continuation between two measures on one lattice: each stage's
    epsilon, barycentric values and details (the fallbacks read after the
    barycentric values, which may add some), its solver dropped once they
    are read."""
    return itertools.starmap(
        lambda solver, Q, err, iters: (
            solver.eps, solver.barycentric(Q),
            {"marginal_error": err, "iterations": iters,
             "fallbacks": solver.fallbacks}),
        entropic.continuation(
            lambda eps: entropic.GridSinkhorn(axes, log_a, log_b, eps),
            schedule, _GRID_TOL, _GRID_MAX_ITER))


@contextlib.contextmanager
def _beside(stages):
    """Run the iterator `stages` on a worker thread, the calling thread
    and the worker at one BLAS thread each; yields `take`, which returns
    the next stage's item in order or raises that stage's exception.

    On exit the worker stops at its next stage boundary and is joined
    before the BLAS count is restored."""
    handed = collections.deque()
    ready = threading.Semaphore(0)
    stop = threading.Event()

    def work():
        try:
            for item in stages:
                handed.append((item, None))
                ready.release()
                if stop.is_set():
                    return
        except BaseException as exc:
            # `take` raises it on the calling thread; a failure left
            # uncaught here would leave `take` waiting
            handed.append((None, exc))
            ready.release()

    def take():
        ready.acquire()
        item, exc = handed.popleft()
        if exc is not None:
            raise exc
        return item

    with blas.one_thread():
        worker = threading.Thread(target=work, name="self-transport")
        worker.start()
        try:
            yield take
        finally:
            stop.set()
            worker.join()


def solve_entropic_schedule(mu, nu, schedule, box, side=128, debias=True):
    """Entropic maps between grid-discretized densities, one per epsilon.

    Both densities are discretized on `box` and renormalized there. The
    schedule must strictly decrease; each stage warm starts from the last
    (entropic.continuation). With debias the self-transport runs along the
    same schedule and corrects the barycentric projection:
    T(x) := x + (T_{mu->nu}(x) - T_{mu->mu}(x)).
    Returns the list of per-stage TransportMaps.

    The two continuations are independent. With debias, at a BLAS count of
    2 or more (the count the command was entered with), the self stages
    run on a worker thread beside the cross stages, each thread at one
    BLAS thread: at 128-side factors a second BLAS thread inside one
    product buys nothing, and its idle worker spins. So the solve uses no
    more cores than OPENBLAS_NUM_THREADS, and both threads run the same
    kernels as at count 1, which keeps every value bit for bit. Otherwise
    the self stages run inline at that count. Either way the first failure
    in stage order (cross 1, self 1, cross 2, ...) is the one raised.
    """
    schedule = _check_schedule(schedule)
    if mu.dim not in (1, 2):
        raise DomainError("grid route is limited to dim <= 2")
    if side < 2:
        raise DomainError(f"side must be at least 2, got {side}")
    with blas.entry_threads():
        axes, log_a = grid_measure(mu, box, side)
        _, log_b = grid_measure(nu, box, side)
        cross = _stages(axes, log_a, log_b, schedule)
        own = _stages(axes, log_a, log_a, schedule) if debias else iter(())
        nodes = box.grid(side).reshape([side] * mu.dim + [mu.dim])
        maps = []
        with (_beside(own) if debias and (blas.threads() or 1) >= 2
              else contextlib.nullcontext(own.__next__)) as take:
            for eps, values, details in cross:
                if debias:
                    _, own_values, own_details = take()
                    values = nodes + (values - own_values)
                    details["fallbacks"] += own_details["fallbacks"]
                maps.append(GridMap(axes, values).transport_map(
                    eps, side=side, debias=debias, box=box.to_dict(),
                    **details))
        return maps


# ---------------------------------------------------------------------------
# entropic sample route


def nearest(points, queries, k):
    """Exact k nearest neighbors among `points` of each query row.

    Returns (distances, indices), both (q, k) and sorted by distance. A
    brute-force scan, 16 query rows at a time. Squared coordinate
    differences are summed in the k-d tree's (cKDTree's) order: four
    running lanes over whole groups of four coordinates, the lanes added
    in order, then the leftover coordinates one by one (below dimension 8
    that is plain left-to-right order). The k smallest are picked by a
    partition (the first minimum when k = 1) and sorted stably, and the
    square root comes last, so the distances agree with the tree's bit
    for bit.
    """
    points = np.asarray(points, dtype=float)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    m, dim = points.shape
    if not 1 <= k <= m:
        raise DomainError(f"cannot take {k} nearest neighbors of {m} points")
    full = dim - dim % 4
    # sq[0] ends up holding the sum: lanes 1-3 and the leftovers join it
    into_first = [*range(1, min(dim, 4)), *range(max(full, 4), dim)]
    cols = np.ascontiguousarray(points.T)[:, None, :]
    # 16 rows keep the per-coordinate squares (1 MB at 2000 points in
    # dim 4) in cache; 32 or more rows ran slower
    block = 16
    buf = np.empty((dim, min(block, queries.shape[0]), m))
    dist = np.empty((queries.shape[0], k))
    idx = np.empty((queries.shape[0], k), dtype=np.intp)
    for lo in range(0, queries.shape[0], block):
        q = queries[lo:lo + block]
        sq = buf[:, :q.shape[0]]
        np.subtract(q.T[:, :, None], cols, out=sq)
        sq *= sq
        for j in range(4, full):
            sq[j % 4] += sq[j]
        for j in into_first:
            sq[0] += sq[j]
        if k == 1:
            pick = sq[0].argmin(axis=1)[:, None]
        else:
            pick = np.argpartition(sq[0], k - 1, axis=1)[:, :k]
        d2 = np.take_along_axis(sq[0], pick, axis=1)
        order = np.argsort(d2, axis=1, kind="stable")
        idx[lo:lo + block] = np.take_along_axis(pick, order, axis=1)
        dist[lo:lo + block] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return dist, idx


def local_affine_jacobians(xs, ts, queries, k, neighbors):
    """Least-squares affine fits of the map over k nearest neighbors.

    Returns (jacobians (m, n, n), ok_mask); rank-deficient neighborhoods
    (a singular-value ratio above 1e3) are flagged instead of raising,
    callers decide, and keep the identity. One batched SVD of the
    centered neighborhoods serves both the test and every kept fit.
    `neighbors` holds the rows of xs nearest each query as `nearest`
    orders them, at least k columns wide; the fits read its first k
    columns.
    """
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    n = xs.shape[1]
    if neighbors.shape[0] != queries.shape[0] or neighbors.shape[1] < k:
        raise DomainError(f"a neighbor table of shape {neighbors.shape} "
                          f"does not cover {queries.shape[0]} queries "
                          f"{k} wide")
    idx = neighbors[:, :k]
    X = xs[idx]
    Xc = X - X.mean(axis=1, keepdims=True)
    U, sv, Vt = np.linalg.svd(Xc, full_matrices=False)
    ok = ~((sv[:, 0] <= 0)
           | (sv[:, 0] / np.maximum(sv[:, -1], 1e-300) > 1e3))
    J = np.broadcast_to(np.eye(n), (len(idx), n, n)).copy()
    Y = ts[idx[ok]]
    Yc = Y - Y.mean(axis=1, keepdims=True)
    # the least-squares fit Xc A = Yc is A = V diag(1 / sv) U^T Yc, and
    # J = A^T; no singular value of a kept fit is small enough for
    # lstsq's cutoff to drop it
    J[ok] = (np.swapaxes(Yc, 1, 2) @ U[ok] / sv[ok, None, :]) @ Vt[ok]
    return J, ok


def solve_entropic_sample(xs, ys, schedule):
    """Entropic map between uniform point clouds, at the source samples.

    Returns (values, details): the debiased barycentric projection at each
    row of xs, and the cross-transport's final marginal_error and
    iterations with the fallbacks and absorptions of every stage.
    The cross-transport runs the strictly decreasing epsilon schedule with
    warm starts; the self-transport used for debiasing is only solved at
    the final epsilon, on the symmetric kernel exp(M) that `SampleSinkhorn`
    builds when its two clouds are one array (no absorptions, its mat-vecs
    on the kernel's lower triangle). Every stage of both builds its kernel
    in place in one buffer, so one kernel is alive at a time (32 MB at
    2000 points).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[1] != ys.shape[1]:
        raise DomainError("sample clouds disagree in dimension")
    schedule = _check_schedule(schedule)
    with blas.entry_threads():
        counts = {"fallbacks": 0, "absorptions": 0}
        m = xs.shape[0]
        # room for the m x k cross kernel and the m x m self-transport
        # kernel
        buf = np.empty(m * max(ys.shape[0], m))

        def final_map(targets, stages):
            """Barycentric map at the last stage, read before the buffer is
            rebuilt; every stage adds its counters."""
            kernel = buf[:m * targets.shape[0]].reshape(m, targets.shape[0])
            for solver, Q, err, iters in entropic.continuation(
                    lambda eps: entropic.SampleSinkhorn(xs, targets, eps,
                                                        kernel),
                    stages, _SAMPLE_TOL, _SAMPLE_MAX_ITER):
                if solver.eps == stages[-1]:
                    values = solver.barycentric(Q)
                counts["fallbacks"] += solver.fallbacks
                counts["absorptions"] += solver.absorptions
            return values, err, iters

        raw, err, iters = final_map(ys, schedule)
        # targets is xs: the symmetric self-transport
        tvals = xs + raw - final_map(xs, schedule[-1:])[0]
        return tvals, {"marginal_error": err, "iterations": iters, **counts}


# ---------------------------------------------------------------------------
# Monge-Ampere residual


@dataclass(frozen=True)
class MongeAmpereResidual:
    probes: np.ndarray
    residuals: np.ndarray
    sup_abs: float


def monge_ampere_residual(transport_map, mu, nu, probes, jacobians=None):
    """Pointwise log residual of the pushforward equation.

    residual(x) = log rho_mu(x) - log rho_nu(T x) - log det DT(x).
    Both densities must be normalized. Nonpositive determinants raise.
    `jacobians`, the map's Jacobians on the probes, skips their evaluation.
    """
    if not (mu.normalized and nu.normalized):
        raise DomainError("Monge-Ampere residual needs normalized densities")
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    J = transport_map.jacobian(probes) if jacobians is None else jacobians
    S = 0.5 * (J + np.swapaxes(J, -1, -2))
    det = np.linalg.det(S)
    if np.any(det <= 0):
        bad = int(np.argmax(det <= 0))
        raise ConvexityViolationError(
            "Jacobian determinant is not positive at a probe",
            probe=probes[bad])
    res = (mu.logpdf(probes) - nu.logpdf(transport_map(probes))
           - np.log(det))
    return MongeAmpereResidual(probes=probes, residuals=res,
                               sup_abs=float(np.abs(res).max()))


# ---------------------------------------------------------------------------
# serialization of grid maps

def save_grid_map(path, transport_map):
    """Write an entropic grid map as an npz with four members.

    `values` holds the map values as float64 of shape lattice + (dim,),
    `axes` the stacked lattice axes, `epsilon` the stage's epsilon and
    `sha256` the hex digest of the values' bytes. The file is written to a
    temporary file next to `path` and moved into place, so a crash never
    leaves a truncated file under `path`.
    """
    gm = transport_map.details.get("grid_map")
    if gm is None:
        raise DomainError("only grid-backed maps serialize to a grid-map file")
    values = np.ascontiguousarray(gm.values, dtype="<f8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, values=values, axes=np.stack(gm.axes),
                     epsilon=float(transport_map.entropic_epsilon),
                     sha256=hashlib.sha256(values.tobytes()).hexdigest())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_grid_map(path, epsilon, axes):
    """The grid map save_grid_map wrote to `path`, if it is the one solved
    for `epsilon` on the lattice `axes`; its values come back bit for bit.

    Each of these raises DomainError: a file that is not an npz, a missing
    member, a zip that fails to open or its CRC-32 check, values of another
    shape or dtype than the lattice's float64, values that fail their
    sha256, and a map solved for another epsilon or other axes.
    """
    try:
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise DomainError(f"{path}: not an npz grid map")
            values, found, eps, digest = (
                data[key] for key in ("values", "axes", "epsilon", "sha256"))
    except (OSError, EOFError, KeyError, ValueError,
            zipfile.BadZipFile) as exc:
        raise DomainError(f"{path}: unreadable grid map ({exc!r})") from exc
    shape = tuple(a.size for a in axes) + (len(axes),)
    if values.shape != shape or values.dtype != np.float64:
        raise DomainError(f"{path}: values of shape {values.shape} and dtype "
                          f"{values.dtype}, not float64 {shape}")
    if hashlib.sha256(values.tobytes()).hexdigest() != str(digest):
        raise DomainError(f"{path}: values fail their sha256 check")
    if not (np.array_equal(eps, epsilon)
            and np.array_equal(found, np.stack(axes))):
        raise DomainError(f"{path}: grid map was solved for another epsilon "
                          "or grid")
    return GridMap(axes, values).transport_map(float(epsilon))
