"""Sinkhorn solvers for quadratic-cost entropic transport.

Conventions: cost c(x, y) = |x - y|^2 / 2, kernel exponent M = -c / eps.
The plan is pi_ij = exp(M_ij + P_i + Q_j) where the scaled potentials P, Q
absorb the log-weights; the true dual potentials are
u = eps (P - log a), v = eps (Q - log b), which is how `continuation`
carries warm starts across epsilon stages. One loop (`_Sinkhorn.run`) serves every
kernel: P = log a - lse_q(Q), Q = log b - lse_p(P) with
lse_q(Q)_i = LSE_j(M_ij + Q_j), lse_p(P)_j = LSE_i(M_ij + P_i), and the
(exact) marginal identities give the convergence check.

Kernels work in the scaling domain: a contraction is a BLAS product of
max-shifted exponentials, log(exp(A - a_i) @ exp(H - h)) + a_i + h, so no
factor exceeds 1. A shifted sum below TINY = exp(-600) may have lost its
leading terms to underflow; each such entry is recomputed by the exact
log-domain contraction and counted in `fallbacks`.

Grid route: measures live on tensor grids (dim <= 2); the cost separates
per axis, so a contraction runs axis by axis (last axis first) against
side x side factors and never forms the full cost matrix.

Sample route: uniform weights on point clouds. The stabilized kernel
K = exp(M + P0 + Q0) lives in one m x k float64 buffer (32 MB at 2000
points each) that a caller may hand to every solver of a solve, so one
kernel is alive at a time. Each epsilon stage builds K into it once: one
BLAS product x.y, then the elementwise passes in blocks of BLOCK_ROWS
rows, each block finished while it is in cache. Contractions are mat-vecs
with exp(Q - Q0) or exp(P - P0). A potential that drifts more than DRIFT
from its absorbed value is absorbed into P0 / Q0 and K is rebuilt in the
same buffer, counted in `absorptions` (Schmitzer, arXiv:1610.06519).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError

TINY = np.exp(-600.0)
DRIFT = 50.0
# rows of the sample kernel per elementwise pass: 1 MB at 2000 columns,
# so each block stays in L2 between passes
BLOCK_ROWS = 64


def _lse_rows(X):
    M = X.max(axis=1)
    safe = np.where(np.isfinite(M), M, 0.0)
    R = safe + np.log(np.exp(X - safe[:, None]).sum(axis=1))
    return np.where(np.isfinite(M), R, -np.inf)


def _check_finite(S):
    if np.any(~np.isfinite(S)):
        raise DomainError(
            "a kernel row lost all mass at this epsilon; use an epsilon "
            "schedule ending at the target value")


class _Sinkhorn:
    """The Sinkhorn loop shared by every kernel."""

    def run(self, P=None, Q=None, tol=1e-7, max_iter=2000, check_every=5):
        """Returns (P, Q, marginal_error, iterations)."""
        P = self.log_a.copy() if P is None else P
        Q = self.log_b.copy() if Q is None else Q
        err = np.inf
        S = self.lse_q(Q)
        for it in range(1, max_iter + 1):
            _check_finite(S)
            P = self.log_a - S
            T = self.lse_p(P)
            _check_finite(T)
            err_b = np.abs(np.exp(T + Q) - np.exp(self.log_b)).sum()
            Q = self.log_b - T
            # the next iteration's contraction; a check reads it as well
            S = self.lse_q(Q)
            if it % check_every == 0 or err_b <= tol:
                err_a = np.abs(np.exp(S + P) - np.exp(self.log_a)).sum()
                err = max(err_a, err_b)
                if err <= tol:
                    return P, Q, err, it
        raise ConvergenceError(
            f"Sinkhorn did not reach marginal error {tol} in {max_iter} "
            f"iterations (last error {err:.3e})", residual=err,
            epsilon=self.eps, iteration=max_iter)


class _GridKernel(_Sinkhorn):
    """Separable kernel on a tensor grid; one side x side factor per axis."""

    def __init__(self, axes_x, axes_y, log_a, log_b, epsilon):
        self.axes_y = [np.asarray(a, dtype=float) for a in axes_y]
        self.log_a, self.log_b = log_a, log_b
        self.eps = float(epsilon)
        self.fallbacks = 0
        Ms = [-0.5 * (np.asarray(x, dtype=float)[:, None] - y[None, :]) ** 2
              / self.eps for x, y in zip(axes_x, self.axes_y)]
        self._fwd = [self._factor(M) for M in Ms]
        self._bwd = [self._factor(M.T) for M in Ms]

    @staticmethod
    def _factor(A):
        a = A.max(axis=1)
        return A, np.exp(A - a[:, None]), a

    def _contract(self, factor, H, axis, y=None):
        """Contract `axis` of H against A: LSE_j(A_ij + H_j), or with y the
        plan-weighted mean sum_j softmax_j(A_ij + H_j) y_j."""
        A, E, a = factor
        Hm = np.moveaxis(H, axis, 0)
        H2 = Hm.reshape(Hm.shape[0], -1)
        h = H2.max(axis=0)
        h = np.where(np.isfinite(h), h, 0.0)
        V = np.exp(H2 - h)
        D = E @ V
        with np.errstate(divide="ignore", invalid="ignore"):
            R = np.log(D) + a[:, None] + h if y is None else (E * y) @ V / D
        i, r = np.nonzero(~(D >= TINY))
        if i.size:
            L = A[i] + H2[:, r].T
            S = _lse_rows(L)
            R[i, r] = S if y is None else np.exp(L - S[:, None]) @ y
            self.fallbacks += i.size
        return np.moveaxis(R.reshape((-1,) + Hm.shape[1:]), 0, axis)

    def _chain(self, factors, H, skip=None):
        for axis in reversed(range(len(factors))):
            if axis != skip:
                H = self._contract(factors[axis], H, axis)
        return H

    def lse_q(self, Q):
        return self._chain(self._fwd, Q)

    def lse_p(self, P):
        return self._chain(self._bwd, P)

    def barycentric(self, Q):
        """Row-normalized plan expectation of the target point, shape
        source grid + (dim,); P cancels in the normalization."""
        return np.stack([
            self._contract(self._fwd[ax], self._chain(self._fwd, Q, skip=ax),
                           ax, y=self.axes_y[ax])
            for ax in range(len(self._fwd))], axis=-1)


class GridSinkhorn2D(_GridKernel):
    """Separable Sinkhorn between two 2-d tensor-grid measures."""


class GridSinkhorn1D(_GridKernel):
    def __init__(self, ax, ay, log_a, log_b, epsilon):
        super().__init__([ax], [ay], log_a, log_b, epsilon)


class SampleSinkhorn(_Sinkhorn):
    """Sinkhorn between uniform point clouds on a stabilized kernel.

    The kernel is built in place in `kernel`, an (m, k) C-contiguous
    float64 buffer (a fresh one by default); solvers may share a buffer as
    long as only the latest of them is used.
    """

    def __init__(self, xs, ys, epsilon, kernel=None):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.eps = float(epsilon)
        self.log_a = np.full(self.xs.shape[0], -np.log(self.xs.shape[0]))
        self.log_b = np.full(self.ys.shape[0], -np.log(self.ys.shape[0]))
        self._x2 = 0.5 * np.einsum("mi,mi->m", self.xs, self.xs) / self.eps
        self._y2 = 0.5 * np.einsum("mi,mi->m", self.ys, self.ys) / self.eps
        self.fallbacks = self.absorptions = 0
        self._K = (np.empty((self.xs.shape[0], self.ys.shape[0]))
                   if kernel is None else kernel)
        self._P0 = self._Q0 = None

    def run(self, P=None, Q=None, tol=1e-5, max_iter=1500, check_every=8):
        return super().run(P, Q, tol, max_iter, check_every)

    def _blocks(self):
        for lo in range(0, self._K.shape[0], BLOCK_ROWS):
            yield slice(lo, lo + BLOCK_ROWS), self._K[lo:lo + BLOCK_ROWS]

    def _absorb(self, P0=None, Q0=None):
        """K = exp(M + P0 + Q0) in place, the side not given chosen so that
        each row (column) of K peaks at exactly 1.

        One product fills the buffer (a product per row block can round
        differently from the whole one); the elementwise passes then run
        block by block while the block is in cache."""
        self.absorptions += self._Q0 is not None
        np.matmul(self.xs, self.ys.T, out=self._K)
        if Q0 is None:
            # Q0 needs every row of M + P0 before any block can finish
            colmax = np.full(self._K.shape[1], -np.inf)
            for rows, G in self._blocks():
                self._shift(G, rows)
                G += P0[rows, None]
                np.maximum(colmax, G.max(axis=0), out=colmax)
            Q0 = -colmax
            for _, G in self._blocks():
                G += Q0[None, :]
                np.exp(G, out=G)
        else:
            P0 = np.empty(self._K.shape[0])
            for rows, G in self._blocks():
                self._shift(G, rows)
                G += Q0[None, :]
                P0[rows] = -G.max(axis=1)
                G += P0[rows, None]
                np.exp(G, out=G)
        self._P0, self._Q0 = P0, Q0

    def _shift(self, G, rows):
        """x.y / eps - |x|^2 / 2 eps - |y|^2 / 2 eps = M on one row block."""
        G /= self.eps
        G -= self._x2[rows, None]
        G -= self._y2[None, :]

    def _contract(self, K, dH, R0, src, dst, h, src2, y=None):
        """Rows of K = exp(M + R0 + H0) against exp(dH), dH = H - H0: the
        contraction LSE_j(M_ij + H_j), or with y the plan-weighted mean of
        the rows of y. h = H - |dst|^2 / 2 eps feeds the exact fallback."""
        s = dH.max()
        v = np.exp(dH - s)
        D = K @ v
        with np.errstate(divide="ignore", invalid="ignore"):
            R = np.log(D) + s - R0 if y is None else \
                K @ (v[:, None] * y) / D[:, None]
        bad = np.flatnonzero(~(D >= TINY))
        if bad.size:
            L = h[None, :] + src[bad] @ dst.T / self.eps
            S = _lse_rows(L)
            R[bad] = S - src2[bad] if y is None else np.exp(L - S[:, None]) @ y
            self.fallbacks += bad.size
        return R

    def lse_q(self, Q, y=None):
        """LSE_j(M_ij + Q_j); with y, the plan-weighted mean of y's rows."""
        if self._Q0 is None or np.abs(Q - self._Q0).max() > DRIFT:
            self._absorb(Q0=Q)
        return self._contract(self._K, Q - self._Q0, self._P0, self.xs,
                              self.ys, Q - self._y2, self._x2, y)

    def lse_p(self, P):
        if np.abs(P - self._P0).max() > DRIFT:
            self._absorb(P0=P)
        return self._contract(self._K.T, P - self._P0, self._Q0, self.ys,
                              self.xs, P - self._x2, self._y2)

    def barycentric(self, Q):
        return self.lse_q(Q, y=self.ys)


def rescale_potentials(P, Q, log_a, log_b, eps_old, eps_new):
    """Carry true dual potentials u, v to a new epsilon stage."""
    ratio = eps_old / eps_new
    return (log_a + (P - log_a) * ratio, log_b + (Q - log_b) * ratio)


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
