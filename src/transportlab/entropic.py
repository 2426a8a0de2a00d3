"""Sinkhorn solvers for quadratic-cost entropic transport.

Conventions: cost c(x, y) = |x - y|^2 / 2, kernel exponent M = -c / eps.
The plan is pi_ij = exp(M_ij + P_i + Q_j) where the scaled potentials P, Q
absorb the log-weights; the true dual potentials are
u = eps (P - log a), v = eps (Q - log b), which is how `continuation`
carries warm starts across epsilon stages. The log-domain loop
(`_Sinkhorn.run`) serves the sample kernel and any grid stage that the
scaling loop below hands over: P = log a - lse_q(Q), Q = log b - lse_p(P)
with lse_q(Q)_i = LSE_j(M_ij + Q_j), lse_p(P)_j = LSE_i(M_ij + P_i), and
the (exact) marginal identities give the convergence check.

Kernels work in the scaling domain: a contraction is a BLAS product of
exponentials less their maxima, log(exp(A - a_i) @ exp(H - h)) + a_i + h, so
no factor exceeds 1. Such a sum below TINY = exp(-600) may have lost its
leading terms to underflow; each such entry is recomputed by the exact
log-domain contraction and counted in `fallbacks`.

Grid route: both measures live on one tensor grid (the solvers take any
number of axes; `brenier` builds them in dim <= 2). The cost separates
per axis into a side x side factor E = exp(A), A_ij = -(x_i - x_j)^2 / 2
eps, so the full cost matrix is never formed. A is symmetric bit for bit
and peaks in each row at its diagonal, A_ii = 0, so E has a unit
diagonal, no entry above 1 and needs no shift, and one factor serves both
directions. Factor entries below the smallest normal float are zeroed,
since such a term is below 2^-1022 against a sum of at least TINY and
only slows the BLAS product. A log-sum-exp over the grid contracts one
axis at a time, last axis first, each with the per-entry fallback above
(the separable kernel of Solomon et al., "Convolutional Wasserstein
Distances", 2015).

The grid loop (`GridSinkhorn.run`) stays in the scaling domain for a whole
stage (the stabilized scaling iterations of Schmitzer, arXiv:1610.06519):
from V = exp(Q - max Q) it forms U = a / (E V), then V = b / (E U), where
E is the product of the axis factors. Each iteration is four BLAS
products (two in 1-D) and two divisions; P and Q take one log each when
the stage returns. A guard keeps the log domain's bound on mass lost to
underflow: every product E W must have all its sums at least
TINY * max(max W, 1), and U and V must be finite and, where the weights
are not zero, at least the smallest normal float. The first failure hands
the stage, from its last complete iteration and with its iteration count
and check schedule, to the log-domain loop, whose log-sum-exps all
contract axis by axis. `barycentric` forms its products from V under the
same guard, and contracts axis by axis where it refuses.

Sample route: uniform weights on point clouds. The stabilized kernel
K = exp(M + P0 + Q0) lives in one m x k float64 buffer (32 MB at 2000
points each) that a caller may hand to every solver of a solve, so one
kernel is alive at a time. Each epsilon stage builds K into it once: one
BLAS product x.y, then the elementwise passes in blocks of BLOCK_ROWS
rows, each block finished while it is in cache. Contractions are mat-vecs
with exp(Q - Q0) or exp(P - P0). A potential that drifts more than DRIFT
from its absorbed value is absorbed into P0 / Q0 and K is rebuilt in the
same buffer, counted in `absorptions` (Schmitzer, arXiv:1610.06519).

A self-transport (ys is xs, the debiasing term) needs none of that. Its
kernel E = exp(M) is symmetric and peaks in each row at its unit
diagonal, so it is built once into the buffer, without P0 or Q0, its
entries below the smallest normal float zeroed as on the grid. lse_q and
lse_p are then one contraction, log(E exp(H - s)) + s with s = max H,
whose sum is at least exp(H_i - s): only a potential range beyond 600
sends an entry to the exact fallback. Its mat-vecs read E's lower
triangle alone (`blas.symmetric_product`).
"""

from __future__ import annotations

import numpy as np

from . import blas
from .errors import ConvergenceError, DomainError

TINY = np.exp(-600.0)
NORMAL = np.finfo(float).tiny
DRIFT = 50.0
# rows of the sample kernel per elementwise pass: 1 MB at 2000 columns,
# so each block stays in L2 between passes
BLOCK_ROWS = 64


def _lse_rows(X):
    M = X.max(axis=1)
    safe = np.where(np.isfinite(M), M, 0.0)
    R = safe + np.log(np.exp(X - safe[:, None]).sum(axis=1))
    return np.where(np.isfinite(M), R, -np.inf)


def _log(X, on):
    """log X, and -inf off `on` (nowhere when None) without a log of 0."""
    return np.log(X) if on is None else \
        np.log(X, out=np.full(X.shape, -np.inf), where=on)


def _check_finite(S):
    if not np.isfinite(S).all():
        raise DomainError(
            "a kernel row lost all mass at this epsilon; use an epsilon "
            "schedule ending at the target value")


class _Sinkhorn:
    """The Sinkhorn loop shared by every kernel."""

    def run(self, P=None, Q=None, tol=1e-7, max_iter=2000, check_every=5,
            done=0):
        """Returns (P, Q, marginal_error, iterations). With `done`, Q is
        the potential after that many iterations, and the count and the
        check schedule go on from there."""
        P = self.log_a.copy() if P is None else P
        Q = self.log_b.copy() if Q is None else Q
        a, b = np.exp(self.log_a), np.exp(self.log_b)
        err = np.inf
        S = self.lse_q(Q)
        for it in range(done + 1, max_iter + 1):
            _check_finite(S)
            P = self.log_a - S
            T = self.lse_p(P)
            _check_finite(T)
            err_b = np.abs(np.exp(T + Q) - b).sum()
            Q = self.log_b - T
            # the next iteration's contraction; a check reads it as well
            S = self.lse_q(Q)
            if it % check_every == 0 or err_b <= tol:
                err_a = np.abs(np.exp(S + P) - a).sum()
                err = max(err_a, err_b)
                if err <= tol:
                    return P, Q, err, it
        raise self._unconverged(tol, max_iter, err)

    def _unconverged(self, tol, max_iter, err):
        return ConvergenceError(
            f"Sinkhorn did not reach marginal error {tol} in {max_iter} "
            f"iterations (last error {err:.3e})", residual=err,
            epsilon=self.eps, iteration=max_iter)


class GridSinkhorn(_Sinkhorn):
    """Sinkhorn between two measures on one tensor grid: the kernel
    separates into one symmetric side x side factor per axis, whose rows
    peak at its unit diagonal.

    `fallbacks` counts each stage handed from the scaling loop to the
    log-domain loop, and each entry that an axis contraction recomputes
    in the log domain."""

    def __init__(self, axes, log_a, log_b, epsilon):
        self.axes = [np.asarray(x, dtype=float) for x in axes]
        self.log_a, self.log_b = log_a, log_b
        # where the weights are nonzero; None where they are all nonzero
        self._on_a = None if np.isfinite(log_a).all() else log_a > -np.inf
        self._on_b = None if np.isfinite(log_b).all() else log_b > -np.inf
        self.eps = float(epsilon)
        self.fallbacks = 0
        self._factors = [self._factor(x) for x in self.axes]

    def _factor(self, x):
        A = -0.5 * (x[:, None] - x[None, :]) ** 2 / self.eps
        E = np.exp(A)
        E[E < NORMAL] = 0.0
        return A, E

    # the scaling loop

    def run(self, P=None, Q=None, tol=1e-7, max_iter=2000, check_every=5):
        """Returns (P, Q, marginal_error, iterations), the iterates of
        `_Sinkhorn.run` formed in the scaling domain; see the module
        docstring for the guard and the handover."""
        Q = self.log_b.copy() if Q is None else Q
        q0 = Q.max()
        Es = [E for _, E in self._factors]
        x = None
        if np.isfinite(q0):
            V = np.exp(Q - q0)
            x = self._guarded_product(Es, V, self._on_b)
        if x is None:
            return self._hand_over(P, Q, 0, tol, max_iter, check_every)
        a, b = np.exp(self.log_a), np.exp(self.log_b)
        # the guard catches every overflow
        with np.errstate(over="ignore"):
            err = np.inf
            for it in range(1, max_iter + 1):
                U = a / x
                y = self._guarded_product(Es, U, self._on_a)
                if y is None:
                    break
                r = y * V
                r -= b
                err_b = np.abs(r, out=r).sum()
                V_next = b / y
                # the next iteration's product; a check reads it as well
                x_next = self._guarded_product(Es, V_next, self._on_b)
                if x_next is None:
                    break
                V, x = V_next, x_next
                if it % check_every == 0 or err_b <= tol:
                    r = x * U
                    r -= a
                    err = max(np.abs(r, out=r).sum(), err_b)
                    if err <= tol:
                        P = _log(U, self._on_a)
                        P -= q0
                        Q = _log(V, self._on_b)
                        Q += q0
                        return P, Q, err, it
            else:
                raise self._unconverged(tol, max_iter, err)
        Q = _log(V, self._on_b)
        Q += q0
        return self._hand_over(None, Q, it - 1, tol, max_iter, check_every)

    def _hand_over(self, P, Q, done, tol, max_iter, check_every):
        self.fallbacks += 1
        return super().run(P, Q, tol, max_iter, check_every, done)

    def _guarded_product(self, Es, W, on):
        """Es applied to W, or None when W is not finite, is below the
        smallest normal float somewhere on `on` (everywhere when None), or
        the product has a sum below TINY * max(max W, 1)."""
        w_max = W.max()
        w_min = W.min() if on is None else W.min(where=on, initial=np.inf)
        if not (np.isfinite(w_max) and w_min >= NORMAL):
            return None
        D = self._product(Es, W)
        return D if D.min() >= TINY * max(w_max, 1.0) else None

    @staticmethod
    def _product(Es, V):
        """sum_j prod_ax Es[ax][i_ax, j_ax] V[j], the axes contracted last
        first."""
        W, tail = V, 1
        for E in reversed(Es[1:]):
            n, k = E.shape
            W = (W.reshape(-1, k) @ E.T if tail == 1
                 else np.matmul(E, W.reshape(-1, k, tail)))
            tail *= n
        D = Es[0] @ W.reshape(Es[0].shape[1], tail)
        return D.reshape([E.shape[0] for E in Es])

    def barycentric(self, Q):
        """Row-normalized plan expectation of the target point, shape
        grid + (dim,); P cancels in the normalization."""
        q0 = Q.max()
        if np.isfinite(q0):
            V = np.exp(Q - q0)
            Es = [E for _, E in self._factors]
            D = self._guarded_product(Es, V, self._on_b)
            if D is not None:
                return np.stack([
                    self._product(Es[:ax] + [Es[ax] * y[None, :]]
                                  + Es[ax + 1:], V) / D
                    for ax, y in enumerate(self.axes)], axis=-1)
        return np.stack([
            self._contract(ax, self._chain(Q, skip=ax), y=y)
            for ax, y in enumerate(self.axes)], axis=-1)

    # log domain, axis by axis: the exact route

    def lse_q(self, H):
        return self._chain(H)

    # the factors are symmetric, so both directions run one chain
    lse_p = lse_q

    def _contract(self, axis, H, y=None):
        """Contract `axis` of H against A: LSE_j(A_ij + H_j), or with y the
        plan-weighted mean sum_j softmax_j(A_ij + H_j) y_j."""
        A, E = self._factors[axis]
        Hm = np.moveaxis(H, axis, 0)
        H2 = Hm.reshape(Hm.shape[0], -1)
        h = H2.max(axis=0)
        h = np.where(np.isfinite(h), h, 0.0)
        V = np.exp(H2 - h)
        D = E @ V
        with np.errstate(divide="ignore", invalid="ignore"):
            R = np.log(D) + h if y is None else (E * y) @ V / D
        i, r = np.nonzero(~(D >= TINY))
        if i.size:
            L = A[i] + H2[:, r].T
            S = _lse_rows(L)
            R[i, r] = S if y is None else np.exp(L - S[:, None]) @ y
            self.fallbacks += i.size
        return np.moveaxis(R.reshape((-1,) + Hm.shape[1:]), 0, axis)

    def _chain(self, H, skip=None):
        for axis in reversed(range(len(self._factors))):
            if axis != skip:
                H = self._contract(axis, H)
        return H


# bench/tracing.py builds its entropic.grid spans by wrapping `run` and
# `barycentric` of GridSinkhorn2D and of GridSinkhorn1D. The alias puts
# the first pair on GridSinkhorn itself; the subclass, which no solve
# builds, takes the second pair, so no call is wrapped twice.
GridSinkhorn2D = GridSinkhorn


class GridSinkhorn1D(GridSinkhorn):
    """A name for the benchmark's tracer only; see above."""


class SampleSinkhorn(_Sinkhorn):
    """Sinkhorn between uniform point clouds on a stabilized kernel, or,
    when `ys is xs`, on the symmetric self-transport kernel.

    The kernel is built in place in `kernel`, an (m, k) C-contiguous
    float64 buffer (a fresh one by default); solvers may share a buffer as
    long as only the latest of them is used.
    """

    def __init__(self, xs, ys, epsilon, kernel=None):
        self.symmetric = ys is xs
        self.xs = np.asarray(xs, dtype=float)
        self.ys = self.xs if self.symmetric else np.asarray(ys, dtype=float)
        self.eps = float(epsilon)
        self.log_a = np.full(self.xs.shape[0], -np.log(self.xs.shape[0]))
        self.log_b = np.full(self.ys.shape[0], -np.log(self.ys.shape[0]))
        self._xe = self.xs / self.eps
        self._x2 = 0.5 * np.einsum("mi,mi->m", self.xs, self.xs) / self.eps
        self._y2 = 0.5 * np.einsum("mi,mi->m", self.ys, self.ys) / self.eps
        self.fallbacks = self.absorptions = 0
        self._K = (np.empty((self.xs.shape[0], self.ys.shape[0]))
                   if kernel is None else kernel)
        self._P0 = self._Q0 = None
        self._built = False

    def run(self, P=None, Q=None, tol=1e-5, max_iter=1500, check_every=8):
        return super().run(P, Q, tol, max_iter, check_every)

    def _blocks(self):
        for lo in range(0, self._K.shape[0], BLOCK_ROWS):
            yield slice(lo, lo + BLOCK_ROWS), self._K[lo:lo + BLOCK_ROWS]

    def _absorb(self, P0=None, Q0=None):
        """K = exp(M + P0 + Q0) in place, the side not given chosen so that
        each row (column) of K peaks at exactly 1.

        With M = x.y / eps - x2 - y2 (x2 = |x|^2 / 2 eps, y2 likewise),
        the squared norms ride in the potentials: K = exp(x.y / eps + p +
        q) with p = P0 - x2 and q = Q0 - y2, so a missing side is
        P0 = x2 - rowmax(x.y / eps + q) or Q0 = y2 - colmax(x.y / eps + p).
        One product of the prescaled xs / eps fills the buffer (a product
        per row block can round differently from the whole one); the two
        additions, the max and the exp then run block by block while the
        block is in cache."""
        self.absorptions += self._Q0 is not None
        np.matmul(self._xe, self.ys.T, out=self._K)
        if Q0 is None:
            # Q0 needs every row of x.y / eps + p before any block can finish
            p = P0 - self._x2
            colmax = np.full(self._K.shape[1], -np.inf)
            for rows, G in self._blocks():
                G += p[rows, None]
                np.maximum(colmax, G.max(axis=0), out=colmax)
            Q0 = self._y2 - colmax
            for _, G in self._blocks():
                G -= colmax[None, :]
                np.exp(G, out=G)
        else:
            q = Q0 - self._y2
            P0 = np.empty(self._K.shape[0])
            for rows, G in self._blocks():
                G += q[None, :]
                rowmax = G.max(axis=1)
                P0[rows] = self._x2[rows] - rowmax
                G -= rowmax[:, None]
                np.exp(G, out=G)
        self._P0, self._Q0 = P0, Q0

    def _build_symmetric(self):
        """E = exp(x.x / eps - x2 - x2) in place, block by block as in
        `_absorb`, with its entries below the smallest normal float
        zeroed."""
        np.matmul(self._xe, self.xs.T, out=self._K)
        for rows, G in self._blocks():
            G -= self._x2[rows, None]
            G -= self._x2[None, :]
            np.exp(G, out=G)
            G[G < NORMAL] = 0.0
        self._built = True

    def _contract(self, product, dH, R0, src, dst, h, src2, y=None):
        """Rows of K = exp(M + R0 + H0) against exp(dH), dH = H - H0, where
        product(V) is K @ V: the contraction LSE_j(M_ij + H_j), or with y
        the plan-weighted mean of the rows of y. h = H - |dst|^2 / 2 eps
        feeds the exact fallback."""
        s = dH.max()
        v = np.exp(dH - s)
        D = product(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            R = np.log(D) + s - R0 if y is None else \
                product(v[:, None] * y) / D[:, None]
        bad = np.flatnonzero(~(D >= TINY))
        if bad.size:
            L = h[None, :] + src[bad] @ dst.T / self.eps
            S = _lse_rows(L)
            R[bad] = S - src2[bad] if y is None else np.exp(L - S[:, None]) @ y
            self.fallbacks += bad.size
        return R

    def lse_q(self, Q, y=None):
        """LSE_j(M_ij + Q_j); with y, the plan-weighted mean of y's rows."""
        if self.symmetric:
            return self._contract_symmetric(Q, y)
        if self._Q0 is None or np.abs(Q - self._Q0).max() > DRIFT:
            self._absorb(Q0=Q)
        return self._contract(self._K.__matmul__, Q - self._Q0, self._P0,
                              self.xs, self.ys, Q - self._y2, self._x2, y)

    def lse_p(self, P):
        if self.symmetric:
            return self._contract_symmetric(P)
        if np.abs(P - self._P0).max() > DRIFT:
            self._absorb(P0=P)
        return self._contract(self._K.T.__matmul__, P - self._P0, self._Q0,
                              self.ys, self.xs, P - self._x2, self._y2)

    def _contract_symmetric(self, H, y=None):
        """LSE_j(M_ij + H_j) on E = exp(M), both directions at once."""
        if not self._built:
            self._build_symmetric()
        return self._contract(
            lambda V: blas.symmetric_product(self._K, V), H, 0.0, self.xs,
            self.xs, H - self._x2, self._x2, y)

    def barycentric(self, Q):
        return self.lse_q(Q, y=self.ys)


def rescale_potentials(P, Q, log_a, log_b, eps_old, eps_new):
    """Carry true dual potentials u, v to a new epsilon stage; a potential
    stays -inf where its log-weight is -inf."""
    ratio = eps_old / eps_new
    return tuple(
        np.subtract(R, w, out=np.full(R.shape, -np.inf), where=w > -np.inf)
        * ratio + w for R, w in ((P, log_a), (Q, log_b)))


def continuation(make_solver, stages, tol, max_iter):
    """Epsilon scaling: solve make_solver(eps) for each stage in order, each
    warm-started from the previous stage's potentials.

    Yields (solver, Q, marginal_error, iterations) per stage; the generator
    itself holds a solver only until the next stage starts.
    """
    P = Q = prev = None
    for eps in stages:
        solver = make_solver(eps)
        if prev is not None:
            P, Q = rescale_potentials(P, Q, solver.log_a, solver.log_b, prev,
                                      eps)
        P, Q, err, iters = solver.run(P=P, Q=Q, tol=tol, max_iter=max_iter)
        yield solver, Q, err, iters
        prev = eps
