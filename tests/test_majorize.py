"""Convex-order comparisons, geodesics, and entropy estimators."""

import math

import numpy as np
import pytest

from transportlab import brenier, quadrature
from transportlab.errors import ConvexityViolationError, DomainError
from transportlab.majorize import (Geodesic, default_convex_family,
                                   entropy_knn, entropy_quadrature,
                                   entropy_stability_check,
                                   geodesic_monotonicity_check,
                                   majorization_from_densities)
from transportlab.measures import TruncationBox, gaussian


def _pair():
    mu = gaussian(np.zeros(2), 4.0 * np.eye(2))
    nu = gaussian(np.zeros(2), np.eye(2))
    return mu, nu


def test_default_family_has_distinct_convex_probes():
    fam = default_convex_family(scale=2.0)
    names = [p.name for p in fam]
    assert len(names) == len(set(names))
    assert len(names) >= 5


def test_majorization_flat_below_peaked():
    # N(0, I) is majorized by N(0, I/4): the peaked density dominates
    # every convex integral
    flat, peaked = gaussian(np.zeros(2), np.eye(2)), \
        gaussian(np.zeros(2), 0.25 * np.eye(2))
    box = TruncationBox.cube(2, 8.0)
    rep = majorization_from_densities(flat, peaked, box)
    assert rep.passed
    assert rep.worst_margin <= 0.0
    rev = majorization_from_densities(peaked, flat, box)
    assert not rev.passed


def test_majorization_self_is_tight():
    dens = gaussian(np.zeros(2), np.eye(2))
    box = TruncationBox.cube(2, 8.0)
    rep = majorization_from_densities(dens, dens, box)
    assert rep.passed
    assert abs(rep.worst_margin) < 1e-12


@pytest.mark.parametrize("scale", [0.05, 1.0, 3.0])
def test_default_family_is_midpoint_convex_and_vanishes_at_zero(scale):
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0.0, 4.0 * scale, (2, 256))
    for probe in default_convex_family(scale):
        assert probe(np.zeros(1))[0] == 0.0, probe.name
        avg = 0.5 * (probe(a) + probe(b))
        slack = 1e-12 * max(1.0, float(np.abs(avg).max()))
        assert np.all(probe(0.5 * (a + b)) <= avg + slack), probe.name


def test_geodesic_between_gaussians_is_monotone():
    mu, nu = _pair()
    tmap = brenier.solve_gaussian(mu, nu)
    geo = Geodesic(mu, nu, tmap, TruncationBox.cube(2, 8.0))
    rep = geodesic_monotonicity_check(geo, tol=1e-9)
    assert rep.passed
    for seq in rep.values.values():
        assert seq.shape == (11,)
    # entropy decreases toward the more concentrated endpoint:
    # int rho log rho grows from source to target
    assert rep.entropy[-1] > rep.entropy[0]


def test_geodesic_entropy_endpoints_match_closed_forms():
    mu, nu = _pair()
    tmap = brenier.solve_gaussian(mu, nu)
    # 7 sigma for the wider endpoint keeps the rho log rho tail below 1e-9
    box = TruncationBox.cube(2, 14.0)
    geo = Geodesic(mu, nu, tmap, box, order=64)
    h0, h1 = geodesic_monotonicity_check(geo, times=[0.0, 1.0]).entropy
    # closed form: int rho log rho = -log(2 pi e s) for N(0, s I_2)
    assert h0 == pytest.approx(-math.log(2 * math.pi * math.e * 4.0),
                               abs=1e-8)
    assert h1 == pytest.approx(-math.log(2 * math.pi * math.e), abs=1e-8)
    assert h0 == pytest.approx(entropy_quadrature(mu, box, order=64),
                               abs=1e-10)


def test_expanding_map_breaks_monotonicity():
    nu, mu = _pair()  # N(0, I) -> N(0, 4I): doubling map
    tmap = brenier.solve_gaussian(mu, nu)
    geo = Geodesic(mu, nu, tmap, TruncationBox.cube(2, 8.0))
    rep = geodesic_monotonicity_check(geo, tol=1e-9)
    assert not rep.passed


def _constant_map(A):
    return brenier.TransportMap(
        2, "closed_form_gaussian", lambda x: x @ A.T,
        lambda x: np.broadcast_to(A, (x.shape[0], 2, 2)).copy())


def test_geodesic_detects_singular_interpolant():
    A = np.array([[-1.0, 0.0], [0.0, 1.0]])  # reflection: det J_t hits 0
    dens = gaussian(np.zeros(2), np.eye(2))
    with pytest.raises(ConvexityViolationError, match="at t=0.5$"):
        Geodesic(dens, dens, _constant_map(A), TruncationBox.cube(2, 4.0))


@pytest.mark.parametrize("times", [None, [0.0, 0.3, 0.4, 1.0]])
def test_interpolant_singular_between_the_sampled_times_is_refused(times):
    # DT = -2 I: J_t = (1 - 3t) I is singular at t = 1/3, which neither the
    # default 11 times nor the given ones hit
    dens = gaussian(np.zeros(2), np.eye(2))
    with pytest.raises(ConvexityViolationError, match="at t=0.333333$"):
        geo = Geodesic(dens, dens, _constant_map(-2.0 * np.eye(2)),
                       TruncationBox.cube(2, 4.0))
        geodesic_monotonicity_check(geo, times=times)


def _sheared_geodesic(dim, order=8):
    """A geodesic along x -> x A^T + sin(x) / 20, whose DT is not
    symmetric and varies from node to node."""
    rng = np.random.default_rng(dim)
    A = np.eye(dim) + 0.2 * rng.normal(size=(dim, dim))
    tmap = brenier.TransportMap(
        dim, "closed_form_gaussian", lambda x: x @ A.T + 0.05 * np.sin(x),
        lambda x: A + 0.05 * np.cos(x)[:, :, None] * np.eye(dim))
    dens = gaussian(np.zeros(dim), np.eye(dim))
    geo = Geodesic(dens, dens, tmap, TruncationBox.cube(dim, 3.0),
                   order=order)
    J = tmap.jacobian(geo.points)
    return geo, J, 0.5 * (J + np.swapaxes(J, -1, -2))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_det_jt_and_stability_integrand_match_lu_det_and_frobenius(dim):
    geo, J, sym = _sheared_geodesic(dim)
    assert (dim == 1) == np.array_equal(J, sym)
    eye = np.eye(dim)
    for t in (0.0, 0.1, 0.5, 0.9, 1.0):
        want = np.linalg.det((1.0 - t) * eye + t * sym)
        np.testing.assert_allclose(geo._det_jt(t), want, rtol=1e-13, atol=0)
    frob = ((sym - eye) ** 2).sum(axis=(1, 2))
    np.testing.assert_allclose(((geo.eig - 1.0) ** 2).sum(axis=1), frob,
                               rtol=1e-13, atol=0)
    wmu = geo.weights * geo.rho_mu
    rep = entropy_stability_check(geo)
    assert rep.stability_rhs == pytest.approx(
        float(np.dot(wmu / wmu.sum(), frob)) / (2.0 * dim * dim),
        rel=1e-13, abs=0)


def test_singular_interpolant_names_its_first_node_as_the_probe():
    dens = gaussian(np.zeros(2), np.eye(2))
    box = TruncationBox.cube(2, 4.0)
    ident = brenier.TransportMap(
        2, "closed_form_gaussian", lambda x: x,
        lambda x: np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy())
    points = Geodesic(dens, dens, ident, box, order=8).points
    bad = points[[37, 90]]
    flip = np.diag([-1.0, 1.0])

    def jacobian(x):
        J = np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()
        J[(x[:, None, :] == bad[None]).all(axis=2).any(axis=1)] = flip
        return J

    tmap = brenier.TransportMap(2, "closed_form_gaussian", lambda x: x,
                                jacobian)
    # J_t = diag(1 - 2t, 1) at the two flipped nodes and Id elsewhere
    with pytest.raises(ConvexityViolationError, match="at t=0.5$") as err:
        Geodesic(dens, dens, tmap, box, order=8)
    assert np.array_equal(err.value.probe, points[37])


def test_entropy_quadrature_gaussian_closed_form():
    for s in (0.5, 1.0, 2.0):
        dens = gaussian(np.zeros(2), s * np.eye(2))
        half = 8.0 * math.sqrt(s)
        got = entropy_quadrature(dens, TruncationBox.cube(2, half), order=64)
        assert got == pytest.approx(-math.log(2 * math.pi * math.e * s),
                                    abs=1e-9)


def test_entropy_knn_matches_gaussian_value():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(4000, 2))
    got = entropy_knn(xs)
    assert abs(got - (-math.log(2 * math.pi * math.e))) < 0.06


def test_entropy_knn_bootstrap_survives_duplicate_rows():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(1500, 2))
    # MCMC-style output: rejected proposals repeat the previous state
    xs[::7] = xs[1::7]
    value, half_ci = entropy_knn(xs, bootstrap=24, seed=3)
    assert np.isfinite(value) and np.isfinite(half_ci)
    assert 0.0 < half_ci < 0.5


def test_entropy_knn_refuses_a_sample_without_kth_neighbor():
    xs = np.random.default_rng(0).normal(size=(4, 2))
    with pytest.raises(DomainError):
        entropy_knn(xs, k=4)
    with pytest.raises(DomainError):
        entropy_knn(xs[:3], k=2, bootstrap=4)


def _bootstrap_by_brute_force(xs, k, bootstrap, seed):
    """Half-CI of entropy_knn with an independent search per subsample."""
    from scipy.spatial import cKDTree

    m, n = xs.shape
    vol_unit = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    rng = np.random.default_rng(seed)
    sub = max(k + 2, m // 2)
    reps = []
    for _ in range(bootstrap):
        pts = xs[rng.choice(m, sub, replace=False)]
        r = np.maximum(cKDTree(pts).query(pts, k=k + 1)[0][:, k], 1e-300)
        reps.append(-(n * np.mean(np.log(r)) + np.log(vol_unit)
                      + math.fsum(1.0 / j for j in range(k, sub))))
    return 1.96 * float(np.std(reps, ddof=1)) * math.sqrt(sub / m)


def test_entropy_knn_bootstrap_falls_back_when_the_table_runs_out(
        monkeypatch):
    from transportlab import majorize

    # tight clusters with repeated rows; k = 1 keeps the shared table
    # 16 wide, so some subsample rows hold fewer than 2 members
    rng = np.random.default_rng(11)
    centers = rng.normal(scale=4.0, size=(40, 2))
    xs = centers[rng.integers(0, 40, 1200)] + rng.normal(scale=0.05,
                                                         size=(1200, 2))
    xs[::5] = xs[1::5]
    calls = []

    def counting(points, queries, k):
        calls.append(np.atleast_2d(queries).shape[0])
        return brenier.nearest(points, queries, k)

    monkeypatch.setattr(majorize, "nearest", counting)
    value, half_ci = entropy_knn(xs, k=1, bootstrap=48, seed=2)
    assert len(calls) > 1, "no subsample row ran out of table members"
    assert half_ci == _bootstrap_by_brute_force(xs, 1, 48, 2)
    assert 0.0 < half_ci < np.inf


def test_entropy_stability_on_gaussian_pair():
    mu, nu = _pair()
    tmap = brenier.solve_gaussian(mu, nu)
    rep = entropy_stability_check(
        Geodesic(mu, nu, tmap, TruncationBox.cube(2, 14.0), order=64))
    # gap = log 4 for variance ratio 4; rhs = |DT - I|_F^2/(2 n^2) = 1/16
    assert rep.gap == pytest.approx(math.log(4.0), abs=1e-8)
    assert rep.stability_rhs == pytest.approx(1.0 / 16.0, abs=1e-10)
    assert rep.gap >= rep.stability_rhs
    assert rep.certificate.verdict == "pass"
    assert rep.certificate.details["negated_lower_bound"]


def test_dim_3_geodesic_blocks_equal_one_batch():
    # 13,824 nodes: the eigenvalues of the symmetrized DT run over four
    # blocks and equal their one-batch form
    cov = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
    mu = gaussian(np.zeros(3), cov)
    nu = gaussian(np.zeros(3), np.eye(3))
    tmap = brenier.solve_gaussian(mu, nu)
    geo = Geodesic(mu, nu, tmap, TruncationBox.cube(3, 5.0), order=12)
    assert geo.points.shape[0] > 3 * quadrature.EVAL_ROWS
    J = tmap.jacobian(geo.points)
    sym = 0.5 * (J + np.swapaxes(J, -1, -2))
    assert np.array_equal(geo.eig, np.linalg.eigvalsh(sym))
    for t in (0.0, 0.3, 1.0):
        want = np.linalg.det((1.0 - t) * np.eye(3) + t * sym)
        np.testing.assert_allclose(geo._det_jt(t), want, rtol=1e-13, atol=0)
