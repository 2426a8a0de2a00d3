"""The scaling-domain Sinkhorn engine against an exact log-domain reference.

The reference below is the plain log-domain solver: every contraction
materializes the full logsumexp argument (a side^3 tensor on grids, cost
rows in blocks on point clouds). It lives here only, as the oracle.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transportlab import blas, brenier, entropic
from transportlab.errors import ConvergenceError
from transportlab.measures import TruncationBox, gaussian

ATOL = 1e-10


def _lse_rows(X):
    M = X.max(axis=1)
    safe = np.where(np.isfinite(M), M, 0.0)
    R = safe + np.log(np.exp(X - safe[:, None]).sum(axis=1))
    return np.where(np.isfinite(M), R, -np.inf)


def _lse_matmul(A, H):
    """R[i, r] = logsumexp_j (A[i, j] + H[j, r]) over a full 3-d tensor."""
    X = A[:, :, None] + H[None, :, :]
    M = X.max(axis=1)
    safe = np.where(np.isfinite(M), M, 0.0)
    R = safe + np.log(np.exp(X - safe[:, None, :]).sum(axis=1))
    return np.where(np.isfinite(M), R, -np.inf)


def _kernel(ax, ay, eps):
    return -0.5 * (ax[:, None] - ay[None, :]) ** 2 / eps


class _RefGrid:
    """Log-domain grid solver: axes_x, axes_y are lists of 1 or 2 axes."""

    def __init__(self, axes_x, axes_y, log_a, log_b, eps):
        self.Ms = [_kernel(x, y, eps) for x, y in zip(axes_x, axes_y)]
        self.axes_y, self.log_a, self.log_b = axes_y, log_a, log_b

    def lse_q(self, Q):
        if len(self.Ms) == 1:
            return _lse_matmul(self.Ms[0], Q[:, None])[:, 0]
        M1, M2 = self.Ms
        return _lse_matmul(M1, _lse_matmul(M2, Q.T).T)

    def lse_p(self, P):
        if len(self.Ms) == 1:
            return _lse_matmul(self.Ms[0].T, P[:, None])[:, 0]
        M1, M2 = self.Ms
        return _lse_matmul(M1.T, _lse_matmul(M2.T, P.T).T)

    def barycentric(self, Q):
        if len(self.Ms) == 1:
            L = self.Ms[0] + Q[None, :]
            L = L - _lse_rows(L)[:, None]
            return (np.exp(L) @ self.axes_y[0])[:, None]
        (M1, M2), (ay1, ay2) = self.Ms, self.axes_y
        W = _lse_matmul(M2, Q.T).T
        S = _lse_matmul(M1, W)
        E1 = np.exp(M1[:, :, None] + W[None, :, :] - S[:, None, :])
        R = _lse_matmul(M1, Q)
        E2 = np.exp(M2[None, :, :] + R[:, None, :] - S[:, :, None])
        return np.stack([np.einsum("ijr,j->ir", E1, ay1),
                         np.einsum("rij,j->ri", E2, ay2)], axis=-1)


class _RefSample:
    """Log-domain point-cloud solver with cost rows built in blocks."""

    def __init__(self, xs, ys, eps, block=7):
        self.xs, self.ys, self.eps, self.block = xs, ys, eps, block
        self.log_a = np.full(xs.shape[0], -np.log(xs.shape[0]))
        self.log_b = np.full(ys.shape[0], -np.log(ys.shape[0]))
        self.x2 = 0.5 * (xs * xs).sum(axis=1) / eps
        self.y2 = 0.5 * (ys * ys).sum(axis=1) / eps

    def _rows(self, src, dst, h, src2, y=None):
        out = np.empty((src.shape[0],) + (() if y is None else y.shape[1:]))
        for lo in range(0, src.shape[0], self.block):
            L = h[None, :] + src[lo:lo + self.block] @ dst.T / self.eps
            S = _lse_rows(L)
            out[lo:lo + self.block] = (S - src2[lo:lo + self.block]
                                       if y is None
                                       else np.exp(L - S[:, None]) @ y)
        return out

    def lse_q(self, Q):
        return self._rows(self.xs, self.ys, Q - self.y2, self.x2)

    def lse_p(self, P):
        return self._rows(self.ys, self.xs, P - self.x2, self.y2)

    def barycentric(self, Q):
        return self._rows(self.xs, self.ys, Q - self.y2, self.x2, y=self.ys)


def _ref_run(ref, P=None, Q=None, tol=1e-7, max_iter=2000, check_every=5):
    P = ref.log_a.copy() if P is None else P
    Q = ref.log_b.copy() if Q is None else Q
    for it in range(1, max_iter + 1):
        P = ref.log_a - ref.lse_q(Q)
        T = ref.lse_p(P)
        err_b = np.abs(np.exp(T + Q) - np.exp(ref.log_b)).sum()
        Q = ref.log_b - T
        if it % check_every == 0 or err_b <= tol:
            S2 = ref.lse_q(Q)
            err = max(np.abs(np.exp(S2 + P) - np.exp(ref.log_a)).sum(), err_b)
            if err <= tol:
                return P, Q, err, it
    raise ConvergenceError("reference did not converge")


def _log_weights(rng, shape):
    w = rng.normal(size=shape) * 0.7
    return w - np.log(np.exp(w).sum())


def _assert_same(solver, ref, run_kwargs=None, ref_kwargs=None):
    """Both solvers converge in the same number of iterations to the same
    potentials, marginal error and barycentric map, or both fail to
    converge. Returns the iteration count, None on a shared failure."""
    kw = dict(run_kwargs or {})
    try:
        expect = _ref_run(ref, **{**kw, **(ref_kwargs or {})})
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            solver.run(**kw)
        return None
    P, Q, err, iters = solver.run(**kw)
    assert iters == expect[3]
    np.testing.assert_allclose(P, expect[0], rtol=0, atol=ATOL)
    np.testing.assert_allclose(Q, expect[1], rtol=0, atol=ATOL)
    assert abs(err - expect[2]) <= ATOL
    np.testing.assert_allclose(solver.barycentric(Q),
                               ref.barycentric(expect[1]), rtol=0, atol=ATOL)
    return iters


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 40), st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
def test_grid_1d_matches_log_domain_reference(n, eps, seed):
    # both measures on one lattice of unevenly spaced nodes
    rng = np.random.default_rng(seed)
    ax = np.sort(rng.uniform(-2, 2, n))
    la, lb = _log_weights(rng, n), _log_weights(rng, n)
    _assert_same(entropic.GridSinkhorn([ax], la, lb, eps),
                 _RefGrid([ax], [ax], la, lb, eps), {"max_iter": 400})


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.floats(0.05, 2.0),
       st.integers(0, 2**32 - 1))
def test_grid_2d_matches_log_domain_reference(n1, n2, eps, seed):
    rng = np.random.default_rng(seed)
    axes = [np.linspace(-1.5, 1.0, n1), np.linspace(-1.0, 2.0, n2)]
    la, lb = _log_weights(rng, (n1, n2)), _log_weights(rng, (n1, n2))
    _assert_same(entropic.GridSinkhorn(axes, la, lb, eps),
                 _RefGrid(axes, axes, la, lb, eps), {"max_iter": 400})


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(2, 30), st.integers(1, 3),
       st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
def test_sample_matches_log_domain_reference(m, k, dim, eps, seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(m, dim))
    ys = rng.normal(size=(k, dim)) * 0.8 + 0.3
    _assert_same(entropic.SampleSinkhorn(xs, ys, eps),
                 _RefSample(xs, ys, eps),
                 {"max_iter": 400},
                 {"tol": 1e-5, "check_every": 8})


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(1, 3), st.floats(0.05, 2.0),
       st.integers(0, 2**32 - 1))
def test_sample_self_transport_matches_log_domain_reference(m, dim, eps,
                                                            seed):
    # ys is xs: the symmetric kernel, read through its lower triangle
    xs = np.random.default_rng(seed).normal(size=(m, dim))
    solver = entropic.SampleSinkhorn(xs, xs, eps)
    assert solver.symmetric
    _assert_same(solver, _RefSample(xs, xs, eps), {"max_iter": 400},
                 {"tol": 1e-5, "check_every": 8})
    assert solver.absorptions == 0


def test_sample_warm_start_across_stages_matches_reference():
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(60, 2)) * 1.5
    ys = rng.normal(size=(50, 2))
    stages = (0.5, 0.2, 0.08)
    solved = entropic.continuation(
        lambda eps: entropic.SampleSinkhorn(xs, ys, eps), stages,
        tol=1e-5, max_iter=1500)
    Pr = Qr = None
    prev = None
    for eps, (solver, Q, err, iters) in zip(stages, solved, strict=True):
        ref = _RefSample(xs, ys, eps)
        if prev is not None:
            Pr, Qr = entropic.rescale_potentials(Pr, Qr, ref.log_a,
                                                 ref.log_b, prev, eps)
        Pr, Qr, err_r, iters_r = _ref_run(ref, P=Pr, Q=Qr, tol=1e-5,
                                          max_iter=1500, check_every=8)
        assert solver.eps == eps
        assert iters == iters_r
        assert abs(err - err_r) <= ATOL
        np.testing.assert_allclose(Q, Qr, rtol=0, atol=ATOL)
        np.testing.assert_allclose(solver.barycentric(Q), ref.barycentric(Qr),
                                   rtol=0, atol=ATOL)
        prev = eps


def test_grid_contraction_falls_back_when_peaks_are_far_apart():
    # At eps 1e-3, A's row peak at x = -0.75 and H's column peak at
    # y = +0.75 make every shifted product term underflow.
    ax = np.linspace(-1.0, 1.0, 41)
    Q = -500.0 * (ax - 0.75) ** 2
    solver = entropic.GridSinkhorn([ax], Q, Q, 1e-3)
    got = solver.lse_q(Q)
    assert solver.fallbacks > 0
    expect = _lse_matmul(_kernel(ax, ax, 1e-3), Q[:, None])[:, 0]
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=ATOL)


def test_grid_contraction_is_exact_where_the_whole_grid_sum_underflows():
    # Per axis no sum falls below about e^-510, so no single entry falls
    # back; over both axes the row at (-1, -1) sums to about e^-1020,
    # which one product over the whole grid would lose.
    ax = np.linspace(-1.0, 1.0, 21)
    g0, g1 = np.meshgrid(ax, ax, indexing="ij")
    Q = -500.0 * ((g0 - 0.75) ** 2 + (g1 - 0.75) ** 2)
    solver = entropic.GridSinkhorn([ax, ax], Q, Q, 3e-3)
    got = solver.lse_q(Q)
    assert solver.fallbacks == 0
    expect = _RefGrid([ax, ax], [ax, ax], Q, Q, 3e-3).lse_q(Q)
    np.testing.assert_allclose(got, expect, rtol=1e-14, atol=ATOL)


def test_grid_factors_hold_no_subnormal_entries():
    # at eps 0.03 on [-8, 8] the factors' exp underflows through the
    # subnormal range, which slows every BLAS product that meets it
    ax = np.linspace(-8.0, 8.0, 128)
    lw = -0.5 * ax ** 2
    solver = entropic.GridSinkhorn([ax], lw, lw, 0.03)
    for _, E in solver._factors:
        assert (E == 0.0).any()
        assert not ((E > 0.0) & (E < np.finfo(float).tiny)).any()
    Q = np.random.default_rng(5).normal(size=ax.size) * 3.0
    expect = _lse_matmul(_kernel(ax, ax, 0.03), Q[:, None])[:, 0]
    np.testing.assert_allclose(solver.lse_q(Q), expect, rtol=1e-14,
                               atol=ATOL)
    assert solver.fallbacks == 0


def test_a_shared_axis_keeps_one_factor_with_the_unshared_bits():
    # one factor serves both directions and needs no row shift: on one
    # lattice A is symmetric bit for bit and each row peaks at its
    # diagonal, A_ii = -0.0, so the factor shifted by its row maxima, as a
    # factor between two lattices would be, has the same bits
    axes = [np.linspace(-2.0, 2.0, 12), np.linspace(-1.5, 1.0, 9),
            np.linspace(-8.0, 8.0, 128), np.linspace(-3.7, 5.1, 33)]
    lw = np.zeros([ax.size for ax in axes])
    for eps in (0.5, 0.05, 0.003):
        solver = entropic.GridSinkhorn(axes, lw, lw, eps)
        for A, E in solver._factors:
            assert A.tobytes() == A.T.tobytes()
            shift = A.max(axis=1)
            assert not shift.any()
            shifted = np.exp(A - shift[:, None])
            shifted[shifted < np.finfo(float).tiny] = 0.0
            assert E.tobytes() == shifted.tobytes()
            assert (np.diag(E) == 1.0).all() and E.max() == 1.0


def _record_handovers(monkeypatch):
    """The iteration counts at which grid stages enter the log-domain
    loop, and the whole-grid products each such stage forms there."""
    done, products = [], []
    inner = entropic._Sinkhorn.run

    def run(self, *args, **kwargs):
        done.append(args[5] if len(args) > 5 else kwargs.get("done", 0))
        products.append(0)
        product = self._product

        def counted(*product_args):
            products[-1] += 1
            return product(*product_args)

        self._product = counted
        try:
            return inner(self, *args, **kwargs)
        finally:
            del self._product

    monkeypatch.setattr(entropic._Sinkhorn, "run", run)
    return done, products


def _count_recomputed_entries(monkeypatch):
    """The entries that axis contractions recompute in the log domain."""
    rows = []
    inner = entropic._lse_rows

    def lse_rows(X):
        rows.append(X.shape[0])
        return inner(X)

    monkeypatch.setattr(entropic, "_lse_rows", lse_rows)
    return rows


def _two_peaks(axes, c, centers):
    grids = np.meshgrid(*axes, indexing="ij")
    lw = [-c * sum((g - m) ** 2 for g, m in zip(grids, mid))
          for mid in centers]
    return [w - np.log(np.exp(w).sum()) for w in lw]


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_stage_hands_over_mid_stage_and_matches_reference(dim,
                                                                monkeypatch):
    # far-apart peaks: the scaling loop runs a few iterations before a
    # product's sum falls below TINY (the forward product in 1-D, the
    # backward one in 2-D), and the log-domain loop finishes the stage
    if dim == 1:
        axes, eps = [np.linspace(-1.0, 1.0, 41)], 3e-3
        la, lb = _two_peaks(axes, 20.0, [(-0.75,), (0.75,)])
    else:
        axes, eps = [np.linspace(-1.0, 1.0, 11)] * 2, 5e-3
        la, lb = _two_peaks(axes, 20.0, [(-0.75, -0.6), (0.75, 0.5)])
    done, _ = _record_handovers(monkeypatch)
    solver = entropic.GridSinkhorn(axes, la, lb, eps)
    iters = _assert_same(solver, _RefGrid(axes, axes, la, lb, eps))
    assert len(done) == 1 and 0 < done[0] < iters
    assert solver.fallbacks > 0


@pytest.mark.parametrize("case", ["far_boxes", "subnormal_weights"])
def test_grid_stage_the_guard_refuses_runs_in_the_log_domain(case,
                                                             monkeypatch):
    if case == "far_boxes":
        # a warm start whose range spans about 800 along the first axis,
        # as a stage rescaled from a coarser epsilon can carry: V =
        # exp(Q - max Q) underflows on the support before any product
        rng = np.random.default_rng(6)
        axes = [np.linspace(-1.0, 1.0, 7), np.linspace(-1.0, 1.0, 6)]
        la, lb = _log_weights(rng, (7, 6)), _log_weights(rng, (7, 6))
        start = {"Q": lb - 400.0 * (axes[0] + 1.0)[:, None]}
        assert np.exp(start["Q"] - start["Q"].max()).min() \
            < np.finfo(float).tiny
    else:
        # the target's log-weights fall to about -740, so V = exp(Q - max Q)
        # is subnormal there and its log would lose Q's last digits
        axes = [np.linspace(-1.0, 1.0, 41)]
        la = -0.5 * axes[0] ** 2
        lb = -740.0 * ((axes[0] + 1.0) / 2.0) ** 2
        la, lb = la - np.log(np.exp(la).sum()), lb - np.log(np.exp(lb).sum())
        start = {}
    done, products = _record_handovers(monkeypatch)
    recomputed = _count_recomputed_entries(monkeypatch)
    solver = entropic.GridSinkhorn(axes, la, lb, 0.5)
    assert _assert_same(solver, _RefGrid(axes, axes, la, lb, 0.5), start)
    assert done == [0]
    # the handed-over stage contracts axis by axis only
    assert products == [0]
    assert solver.fallbacks == len(done) + sum(recomputed)


def test_grid_solve_with_fallbacks_matches_reference():
    ax = np.linspace(-1.0, 1.0, 41)
    la = -40.0 * (ax + 0.75) ** 2
    lb = -40.0 * (ax - 0.75) ** 2
    la, lb = la - np.log(np.exp(la).sum()), lb - np.log(np.exp(lb).sum())
    solver = entropic.GridSinkhorn([ax], la, lb, 1e-3)
    assert _assert_same(solver, _RefGrid([ax], [ax], la, lb, 1e-3))
    assert solver.fallbacks > 0


def test_grid_2d_solve_with_fallbacks_matches_reference():
    # the 2-d analogue of the solve above: far-apart peaks at eps 1e-3 send
    # the scaling-domain contractions to the exact per-axis route
    ax = np.linspace(-1.0, 1.0, 15)
    g0, g1 = np.meshgrid(ax, ax, indexing="ij")
    la = -40.0 * ((g0 + 0.75) ** 2 + (g1 + 0.6) ** 2)
    lb = -40.0 * ((g0 - 0.75) ** 2 + (g1 - 0.5) ** 2)
    la, lb = la - np.log(np.exp(la).sum()), lb - np.log(np.exp(lb).sum())
    solver = entropic.GridSinkhorn([ax, ax], la, lb, 1e-3)
    assert _assert_same(solver, _RefGrid([ax, ax], [ax, ax], la, lb, 1e-3))
    assert solver.fallbacks > 0


def _zero_mass_instance():
    """-inf log weights: whole axis-0 slices and single columns of zero
    mass."""
    rng = np.random.default_rng(3)
    axes = [np.linspace(-1.5, 1.0, 9), np.linspace(-1.0, 2.0, 7)]
    la, lb = _log_weights(rng, (9, 7)), _log_weights(rng, (9, 7))
    la[2, :] = la[:, 4] = -np.inf
    lb[0, :] = lb[5, :] = lb[:, 6] = -np.inf
    la, lb = la - np.log(np.exp(la).sum()), lb - np.log(np.exp(lb).sum())
    return axes, la, lb


# the reference's log of an all -inf row warns
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("eps", [0.3, 0.05])
def test_grid_2d_zero_mass_rows_and_columns_match_reference(eps):
    axes, la, lb = _zero_mass_instance()
    assert _assert_same(entropic.GridSinkhorn(axes, la, lb, eps),
                        _RefGrid(axes, axes, la, lb, eps))
    # the solver itself takes no log of zero and makes no NaN on the way
    with np.errstate(divide="raise", invalid="raise"):
        solver = entropic.GridSinkhorn(axes, la, lb, eps)
        P, Q, _, _ = solver.run()
        values = solver.barycentric(Q)
    assert not np.isnan(P).any() and not np.isnan(Q).any()
    assert np.isfinite(values).all()
    assert np.array_equal(np.isneginf(P), np.isneginf(la))


# the reference's log of an all -inf row warns
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_grid_zero_mass_schedule_matches_reference_stage_by_stage():
    # the warm start must keep -inf where a weight is zero, not make
    # -inf - (-inf)
    axes, la, lb = _zero_mass_instance()
    stages = (0.5, 0.1)
    with np.errstate(invalid="raise"):
        solved = list(entropic.continuation(
            lambda eps: entropic.GridSinkhorn(axes, la, lb, eps),
            stages, tol=1e-7, max_iter=2000))
    Pr = Qr = prev = None
    for eps, (solver, Q, err, iters) in zip(stages, solved, strict=True):
        ref = _RefGrid(axes, axes, la, lb, eps)
        if prev is not None:
            Pr, Qr = entropic.rescale_potentials(Pr, Qr, la, lb, prev, eps)
        Pr, Qr, err_r, iters_r = _ref_run(ref, P=Pr, Q=Qr)
        assert iters == iters_r
        assert abs(err - err_r) <= ATOL
        np.testing.assert_allclose(Q, Qr, rtol=0, atol=ATOL)
        assert np.array_equal(np.isneginf(Q), np.isneginf(lb))
        prev = eps


def test_grid_3d_contractions_match_full_logsumexp():
    # three axes against the full cost matrix over the product grid
    rng = np.random.default_rng(4)
    axes = [np.linspace(-1.0, 1.0, 4), np.linspace(-0.5, 1.5, 5),
            np.linspace(-2.0, 0.0, 3)]
    eps = 0.2
    la, lb = _log_weights(rng, (4, 5, 3)), _log_weights(rng, (4, 5, 3))
    solver = entropic.GridSinkhorn(axes, la, lb, eps)
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    M = -0.5 * ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1) / eps
    Q, P = rng.normal(size=lb.shape) * 3.0, rng.normal(size=la.shape) * 3.0
    np.testing.assert_allclose(solver.lse_q(Q).ravel(),
                               _lse_rows(M + Q.ravel()[None, :]),
                               rtol=0, atol=ATOL)
    np.testing.assert_allclose(solver.lse_p(P).ravel(),
                               _lse_rows(M.T + P.ravel()[None, :]),
                               rtol=0, atol=ATOL)
    L = M + Q.ravel()[None, :]
    plan = np.exp(L - _lse_rows(L)[:, None])
    np.testing.assert_allclose(solver.barycentric(Q).reshape(-1, 3),
                               plan @ X, rtol=0, atol=ATOL)
    assert solver.fallbacks == 0


def test_sample_outlier_row_falls_back_and_matches_reference():
    # K is built with its rows peaking at 1, so the far target point's row
    # of the transposed kernel (a column of K) is what underflows.
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(40, 2)) * 0.3
    ys = rng.normal(size=(40, 2)) * 0.3
    ys[0] = (6.0, -6.0)
    solver = entropic.SampleSinkhorn(xs, ys, 0.02)
    assert _assert_same(solver, _RefSample(xs, ys, 0.02), {"tol": 1e-3},
                        {"max_iter": 1500, "check_every": 8})
    assert solver.fallbacks > 0
    assert solver.absorptions > 0


def test_convergence_error_carries_epsilon_and_iteration():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(30, 2))
    solver = entropic.SampleSinkhorn(xs, xs + 1.0, 0.05)
    with pytest.raises(ConvergenceError) as info:
        solver.run(max_iter=1)
    assert info.value.epsilon == 0.05
    assert info.value.iteration == 1
    assert info.value.residual > 1e-5


def test_solvers_report_fallback_counters_in_details():
    mu = gaussian([0.0, 0.0], np.eye(2))
    nu = gaussian([0.3, 0.0], 0.5 * np.eye(2))
    grid = brenier.solve_entropic_schedule(
        mu, nu, [0.3], box=TruncationBox.cube(2, 4.0), side=24)[0]
    assert grid.details["fallbacks"] == 0
    rng = np.random.default_rng(1)
    _, sample = brenier.solve_entropic_sample(rng.normal(size=(80, 2)),
                                              rng.normal(size=(80, 2)),
                                              (0.5, 0.2))
    assert sample["fallbacks"] == 0
    assert sample["absorptions"] == 0


def _counting_lse_q(solver):
    calls = []
    inner = solver.lse_q

    def lse_q(Q, *args):
        calls.append(1)
        return inner(Q, *args)

    solver.lse_q = lse_q
    return calls


def _counting_forward_products(solver):
    """The grid loop's products against V; they alternate with those
    against U, the first against V."""
    calls = []
    inner = solver._product
    forward = itertools.cycle((True, False))

    def product(*args):
        if next(forward):
            calls.append(1)
        return inner(*args)

    solver._product = product
    return calls


@pytest.mark.parametrize("kind", ["grid", "sample"])
def test_failed_check_contraction_is_reused_bitwise(kind):
    rng = np.random.default_rng(11)
    if kind == "grid":
        axes = [np.linspace(-2, 2, 17), np.linspace(-1.5, 2.5, 13)]
        la, lb = _log_weights(rng, (17, 13)), _log_weights(rng, (17, 13))

        def make():
            return entropic.GridSinkhorn(axes, la, lb, 0.1)
        kw = {}
    else:
        xs, ys = rng.normal(size=(60, 2)), rng.normal(size=(50, 2)) + 0.4

        def make():
            return entropic.SampleSinkhorn(xs, ys, 0.1)
        kw = {"tol": 1e-5, "check_every": 8}
    # the same engine driven by the loop that contracts Q once more per
    # iteration after a failed check
    old = make()
    old_calls = _counting_lse_q(old)
    expect = _ref_run(old, **kw)
    new = make()
    if kind == "grid":
        # the scaling loop forms its own products, so it matches the
        # log-domain iterates to rounding, not bitwise
        new_calls = _counting_forward_products(new)
        got = new.run(**kw)
        assert got[3] == expect[3]
        np.testing.assert_allclose(got[0], expect[0], rtol=0, atol=ATOL)
        np.testing.assert_allclose(got[1], expect[1], rtol=0, atol=ATOL)
        assert abs(got[2] - expect[2]) <= ATOL
        assert new.fallbacks == 0
    else:
        new_calls = _counting_lse_q(new)
        got = new.run(**kw)
        assert got[3] == expect[3]
        assert np.array_equal(got[0], expect[0])
        assert np.array_equal(got[1], expect[1])
        assert got[2] == expect[2]
    # one contraction per iteration plus the passing check's own
    assert len(new_calls) == expect[3] + 1
    assert len(old_calls) - len(new_calls) >= 2


def _one_shot_kernel(solver, P0=None, Q0=None):
    """The kernel built in one piece over a fresh m x k array: the oracle
    for the in-place row-block build, x2 and y2 carried in the potentials."""
    G = solver._xe @ solver.ys.T
    if Q0 is None:
        G += (P0 - solver._x2)[:, None]
        colmax = G.max(axis=0)
        Q0 = solver._y2 - colmax
        G -= colmax[None, :]
    else:
        G += (Q0 - solver._y2)[None, :]
        rowmax = G.max(axis=1)
        P0 = solver._x2 - rowmax
        G -= rowmax[:, None]
    return np.exp(G, out=G), P0, Q0


def _shifted_kernel(solver, P0=None, Q0=None):
    """The kernel from the cost matrix M = x.y / eps - x2 - y2 itself, each
    missing potential minus the row (column) max of M plus the other."""
    G = solver.xs @ solver.ys.T
    G /= solver.eps
    G -= solver._x2[:, None]
    G -= solver._y2[None, :]
    if Q0 is None:
        G += P0[:, None]
        Q0 = -G.max(axis=0)
        G += Q0[None, :]
    else:
        G += Q0[None, :]
        P0 = -G.max(axis=1)
        G += P0[:, None]
    return np.exp(G, out=G), P0, Q0


@pytest.mark.parametrize("given", ["P0", "Q0"])
def test_row_block_kernel_build_matches_one_shot_build_bitwise(given):
    m, k = 150, 130
    # more than two blocks and a ragged tail block
    assert m > 2 * entropic.BLOCK_ROWS and m % entropic.BLOCK_ROWS
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(m, 3))
    ys = rng.normal(size=(k, 3)) * 0.8 + 0.2
    potential = rng.normal(size=m if given == "P0" else k) * 5.0
    solver = entropic.SampleSinkhorn(xs, ys, 0.07)
    buffer = solver._K
    solver._absorb(**{given: potential})
    K, P0, Q0 = _one_shot_kernel(solver, **{given: potential})
    assert solver._K is buffer
    assert np.array_equal(solver._K, K)
    assert np.array_equal(solver._P0, P0)
    assert np.array_equal(solver._Q0, Q0)
    assert solver.absorptions == 0
    # the same kernel as one shifted by the cost matrix, up to rounding
    K, P0, Q0 = _shifted_kernel(solver, **{given: potential})
    for got, want in ((solver._K, K), (solver._P0, P0), (solver._Q0, Q0)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    # each row (column) of the kernel still peaks at exactly 1
    assert np.all(solver._K.max(axis=1 if given == "Q0" else 0) == 1.0)
    # a rebuild reuses the buffer and counts as an absorption
    solver._absorb(**{given: potential + 1.0})
    assert solver._K is buffer and solver.absorptions == 1
    K, _, _ = _one_shot_kernel(solver, **{given: potential + 1.0})
    assert np.array_equal(solver._K, K)


def test_sample_absorption_over_many_blocks_rebuilds_in_place():
    # as in the outlier test, but over several row blocks
    rng = np.random.default_rng(2)
    m, k = 150, 140
    assert m > 2 * entropic.BLOCK_ROWS
    xs = rng.normal(size=(m, 2)) * 0.3
    ys = rng.normal(size=(k, 2)) * 0.3
    ys[0] = (6.0, -6.0)
    kernel = np.empty((m, k))
    solver = entropic.SampleSinkhorn(xs, ys, 0.02, kernel)
    assert _assert_same(solver, _RefSample(xs, ys, 0.02), {"tol": 1e-3},
                        {"max_iter": 1500, "check_every": 8})
    assert solver.absorptions > 0
    assert solver.fallbacks > 0
    assert solver._K is kernel


def _cluster_and_outliers():
    """A tight cluster and three points so far from it and from each other
    that their kernel rows hold only their unit diagonal."""
    rng = np.random.default_rng(3)
    xs = np.vstack([rng.normal(size=(37, 2)) * 0.3,
                    [(8.0, -8.0), (-9.0, 7.0), (10.0, 9.0)]])
    return xs, np.arange(37, 40)


def test_self_transport_falls_back_where_the_potential_range_passes_600():
    # a warm start 800 lower at the outliers: each outlier's sum is its
    # own term, exp(-800), which underflows to 0 < TINY, so only the
    # exact fallback gives those rows a finite value, and no other row
    # falls back
    xs, outliers = _cluster_and_outliers()
    eps = 0.05
    ref = _RefSample(xs, xs, eps)
    Q = ref.log_b.copy()
    Q[outliers] -= 800.0
    solver = entropic.SampleSinkhorn(xs, xs, eps)
    np.testing.assert_allclose(solver.lse_q(Q), ref.lse_q(Q), rtol=0,
                               atol=ATOL)
    assert solver.fallbacks == outliers.size
    np.testing.assert_allclose(solver.lse_p(Q), ref.lse_p(Q), rtol=0,
                               atol=ATOL)
    assert solver.fallbacks == 2 * outliers.size
    # the same plan as the reference's from that warm start
    solver = entropic.SampleSinkhorn(xs, xs, eps)
    assert _assert_same(solver, ref, {"Q": Q}, {"tol": 1e-5,
                                                 "check_every": 8})
    assert solver.fallbacks > 0 and solver.absorptions == 0


def test_self_transport_without_dsymv_matches_the_dsymv_path(monkeypatch):
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(300, 3))
    solver = entropic.SampleSinkhorn(xs, xs, 0.1)
    P, Q, err, iters = solver.run()
    values = solver.barycentric(Q)
    # numpy's product on the whole kernel
    monkeypatch.setattr(blas, "_find", lambda: ())
    monkeypatch.setattr(blas, "_lib", None)
    assert blas.info()["symmetric_product"] is None
    plain = entropic.SampleSinkhorn(xs, xs, 0.1)
    P2, Q2, err2, iters2 = plain.run()
    assert iters2 == iters
    np.testing.assert_allclose(P2, P, rtol=0, atol=1e-13)
    np.testing.assert_allclose(Q2, Q, rtol=0, atol=1e-13)
    assert abs(err2 - err) <= 1e-13
    np.testing.assert_allclose(plain.barycentric(Q2), values, rtol=0,
                               atol=1e-13)


@pytest.mark.skipif(not blas.info()["symmetric_product"],
                    reason="no dsymv in numpy's OpenBLAS")
def test_symmetric_product_reads_the_lower_triangle_alone():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(50, 50))
    A += A.T
    poisoned = A.copy()
    poisoned[np.triu_indices(50, 1)] = np.nan
    v, B = rng.normal(size=50), rng.normal(size=(50, 3))
    np.testing.assert_allclose(blas.symmetric_product(poisoned, v), A @ v,
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(blas.symmetric_product(poisoned, B), A @ B,
                               rtol=1e-13, atol=1e-13)
