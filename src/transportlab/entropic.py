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

Grid route: measures live on tensor grids (the solvers take any number of
axes; `brenier` builds them in dim <= 2). The cost separates per axis into
side x side factors E = exp(A - a), so the full cost matrix is never
formed; factor entries below the smallest normal float are zeroed, since
such a term is below 2^-1022 against a sum of at least TINY and only slows
the BLAS product. A log-sum-exp over the grid contracts one axis at a time,
last axis first, each with the per-entry fallback above (the separable
kernel of Solomon et al., "Convolutional Wasserstein Distances", 2015).

The grid loop (`GridSinkhorn.run`) stays in the scaling domain for a whole
stage (the stabilized scaling iterations of Schmitzer, arXiv:1610.06519):
from V = exp(Q - max Q) it forms U = alpha / (E_fwd V), then
V = beta / (E_bwd U), with alpha = a exp(-fwd_shift) and
beta = b exp(-bwd_shift), where E_fwd, E_bwd are the products of the axis
factors and fwd_shift, bwd_shift the sums of their row maxima. Each
iteration is four BLAS products (two in 1-D) and two divisions; P and Q
take one log each when the stage returns. A guard keeps the log domain's
bound on mass lost to underflow: every product E W must have all its sums
at least TINY * max(max W, 1), and U and V must be finite and, where the
weights are not zero, at least the smallest normal float. The first
failure hands the stage, from its last complete iteration and with its
iteration count and check schedule, to the log-domain loop, whose
log-sum-exps all contract axis by axis. `barycentric` forms its products
from V under the same guard, and contracts axis by axis where it refuses.

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

import functools

import numpy as np

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
    """Sinkhorn between two measures on tensor grids of one dimension: the
    kernel separates into one side x side factor per axis.

    `fallbacks` counts each stage handed from the scaling loop to the
    log-domain loop, and each entry that an axis contraction recomputes
    in the log domain."""

    def __init__(self, axes_x, axes_y, log_a, log_b, epsilon):
        self.axes_y = [np.asarray(a, dtype=float) for a in axes_y]
        self.log_a, self.log_b = log_a, log_b
        # where the weights are nonzero; None where they are all nonzero
        self._on_a = None if np.isfinite(log_a).all() else log_a > -np.inf
        self._on_b = None if np.isfinite(log_b).all() else log_b > -np.inf
        self.eps = float(epsilon)
        self.fallbacks = 0
        Ms = [-0.5 * (np.asarray(x, dtype=float)[:, None] - y[None, :]) ** 2
              / self.eps for x, y in zip(axes_x, self.axes_y)]
        self._fwd = [self._factor(M) for M in Ms]
        self._bwd = [self._factor(M.T) for M in Ms]
        # sum over axes of the factors' row maxima, on the output grid
        self._fwd_shift = functools.reduce(np.add.outer,
                                           [a for _, _, a in self._fwd])
        self._bwd_shift = functools.reduce(np.add.outer,
                                           [a for _, _, a in self._bwd])

    @staticmethod
    def _factor(A):
        a = A.max(axis=1)
        E = np.exp(A - a[:, None])
        E[E < NORMAL] = 0.0
        return A, E, a

    # the scaling loop

    def run(self, P=None, Q=None, tol=1e-7, max_iter=2000, check_every=5):
        """Returns (P, Q, marginal_error, iterations), the iterates of
        `_Sinkhorn.run` formed in the scaling domain; see the module
        docstring for the guard and the handover."""
        Q = self.log_b.copy() if Q is None else Q
        q0 = Q.max()
        E_fwd = [E for _, E, _ in self._fwd]
        E_bwd = [E for _, E, _ in self._bwd]
        e_fwd, e_bwd = np.exp(self._fwd_shift), np.exp(self._bwd_shift)
        x = None
        if (np.isfinite(q0) and e_fwd.min() >= NORMAL
                and e_bwd.min() >= NORMAL):
            V = np.exp(Q - q0)
            x = self._guarded_product(E_fwd, V, self._on_b)
        if x is None:
            return self._hand_over(P, Q, 0, tol, max_iter, check_every)
        a, b = np.exp(self.log_a), np.exp(self.log_b)
        # the guard catches every overflow
        with np.errstate(over="ignore"):
            alpha = np.exp(self.log_a - self._fwd_shift)
            beta = np.exp(self.log_b - self._bwd_shift)
            err = np.inf
            for it in range(1, max_iter + 1):
                U = alpha / x
                y = self._guarded_product(E_bwd, U, self._on_a)
                if y is None:
                    break
                r = e_bwd * y
                r *= V
                r -= b
                err_b = np.abs(r, out=r).sum()
                V_next = beta / y
                # the next iteration's product; a check reads it as well
                x_next = self._guarded_product(E_fwd, V_next, self._on_b)
                if x_next is None:
                    break
                V, x = V_next, x_next
                if it % check_every == 0 or err_b <= tol:
                    r = e_fwd * x
                    r *= U
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
        source grid + (dim,); P cancels in the normalization."""
        q0 = Q.max()
        if np.isfinite(q0):
            V = np.exp(Q - q0)
            Es = [E for _, E, _ in self._fwd]
            D = self._guarded_product(Es, V, self._on_b)
            if D is not None:
                return np.stack([
                    self._product(Es[:ax] + [Es[ax] * y[None, :]]
                                  + Es[ax + 1:], V) / D
                    for ax, y in enumerate(self.axes_y)], axis=-1)
        return np.stack([
            self._contract(self._fwd[ax], self._chain(self._fwd, Q, skip=ax),
                           ax, y=self.axes_y[ax])
            for ax in range(len(self._fwd))], axis=-1)

    # log domain, axis by axis: the exact route

    def lse_q(self, Q):
        return self._chain(self._fwd, Q)

    def lse_p(self, P):
        return self._chain(self._bwd, P)

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


# bench/tracing.py builds its entropic.grid spans by wrapping `run` and
# `barycentric` of GridSinkhorn2D and of GridSinkhorn1D. The alias puts
# the first pair on GridSinkhorn itself; the subclass, which no solve
# builds, takes the second pair, so no call is wrapped twice.
GridSinkhorn2D = GridSinkhorn


class GridSinkhorn1D(GridSinkhorn):
    """A name for the benchmark's tracer only; see above."""


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
