"""Quadrature and polynomial-times-Gaussian engine oracles.

Everything downstream leans on these two modules, so the oracles here are
independent closed forms (Gaussian moments, hand-expanded polynomials,
finite differences), not calls back into the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transportlab import brenier, measures, quadrature
from transportlab.errors import DomainError
from transportlab.measures import TruncationBox
from transportlab.polyexp import (PolyExp, gaussian_poly_expectations,
                                  holomorphic_to_real_poly,
                                  modulus_squared_poly, poly_deriv,
                                  poly_eval)
from transportlab.scenarios import (WehrlState, build_wehrl_instance,
                                    fock_coefficients)


def test_gauss_legendre_exact_for_polynomials():
    # order-16 panels integrate degree-5 exactly
    nodes, w = quadrature.gauss_legendre_1d(-1.0, 3.0, order=16, panels=1)
    for k in range(6):
        got = float(np.dot(w, nodes ** k))
        want = (3.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_box_rule_total_weight_is_volume():
    box = TruncationBox.cube(2, 1.5)
    _, w = quadrature.box_gauss_legendre(box, order=8, panels=2)
    assert abs(w.sum() - 9.0) < 1e-12


def test_gauss_hermite_standard_moments():
    pts, w = quadrature.gauss_hermite(2, order=24)
    assert abs(w.sum() - 1.0) < 1e-12
    assert abs(float(w @ (pts[:, 0] ** 2)) - 1.0) < 1e-12
    assert abs(float(w @ (pts[:, 0] ** 4)) - 3.0) < 1e-11
    assert abs(float(w @ (pts[:, 0] * pts[:, 1]))) < 1e-13


def _meshgrid_rows(axes):
    """The tensor grid as each site spelt it before tensor_grid."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _meshgrid_weights(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.prod(np.stack([g.ravel() for g in mesh], axis=0), axis=0)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tensor_grid_sites_match_their_meshgrid_formulas_bitwise(dim):
    box = TruncationBox(np.linspace(-0.3, 0.4, dim),
                        np.linspace(1.1, 2.9, dim))
    side = 7
    axes = box.axis_nodes(side)
    assert _same_bits(box.grid(side), _meshgrid_rows(axes))
    assert _same_bits(box.interior_grid(side),
                      _meshgrid_rows([a[1:side - 1] for a in axes]))
    assert _same_bits(box.grid(side).reshape([side] * dim + [dim]),
                      np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))

    pts, w = quadrature.box_gauss_legendre(box, order=6, panels=3)
    rules = [quadrature.gauss_legendre_1d(lo, hi, order=6, panels=3)
             for lo, hi in zip(box.lower, box.upper)]
    assert _same_bits(pts, _meshgrid_rows([x for x, _ in rules]))
    assert _same_bits(w, _meshgrid_weights([wi for _, wi in rules]))

    pts, w = quadrature.gauss_hermite(dim, order=12)
    x, wx = np.polynomial.hermite_e.hermegauss(12)
    wx = wx / np.sqrt(2.0 * np.pi)
    if dim == 1:
        assert _same_bits(pts, x[:, None]) and _same_bits(w, wx)
    assert _same_bits(pts, _meshgrid_rows([x] * dim))
    assert _same_bits(w, _meshgrid_weights([wx] * dim))

    dens = measures.gaussian(np.full(dim, 0.2), 0.7 * np.eye(dim))
    got_axes, log_mass = brenier.grid_measure(dens, box, side)
    logp = dens.logpdf(_meshgrid_rows(axes)).reshape([side] * dim)
    assert all(_same_bits(g, a) for g, a in zip(got_axes, axes))
    assert _same_bits(log_mass, logp - brenier._logsumexp(logp))


def test_tensor_grid_refuses_more_nodes_than_its_budget():
    # one axis of budget + 1 nodes is 16 MB; the refusal comes before
    # meshgrid, and a grid at the budget is built
    nodes = quadrature.MAX_GRID_NODES + 1
    with pytest.raises(DomainError, match=f"grid of {nodes} nodes"):
        quadrature.tensor_grid([np.zeros(nodes)])
    with pytest.raises(DomainError, match=f"grid of {2 * nodes - 2} nodes"):
        quadrature.tensor_grid([np.zeros(2), np.zeros(nodes - 1)])
    grid = quadrature.tensor_grid([np.zeros(nodes - 1)])
    assert grid.shape == (nodes - 1, 1)


def test_cumulative_integral_matches_gaussian_cdf():
    from scipy.stats import norm
    ci = quadrature.CumulativeIntegral(
        lambda r: norm.pdf(r), 0.0, 8.0, panels=1024)
    # value() accumulates from the left endpoint
    for r in (0.3, 1.0, 2.5):
        assert abs(ci.value(np.array([r]))[0]
                   - (norm.cdf(r) - 0.5)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.02, max_value=0.97))
def test_cumulative_integral_inverse_roundtrip(q):
    ci = quadrature.CumulativeIntegral(
        lambda r: np.exp(-r), 0.0, 20.0, panels=512)
    target = q * ci.total
    x = ci.inverse(np.array([target]))[0]
    assert abs(ci.value(np.array([x]))[0] - target) < 1e-9 * ci.total


def test_cumulative_inverse_keeps_an_exact_hit():
    # f piecewise constant on the panels, so F is piecewise linear; q is
    # F at the first iterate, the middle of the panel holding q
    ci = quadrature.CumulativeIntegral(
        lambda r: np.where(r < 1.0, 1.0, 3.0), 0.0, 2.0, panels=2)
    q = ci.value(np.array([1.5]))
    x = ci.inverse(q)
    assert x[0] == 1.5
    # a hit among other points keeps its own value too
    qs = np.concatenate([q, ci.value(np.array([0.3, 1.9]))])
    xs = ci.inverse(qs)
    assert xs[0] == 1.5
    assert np.allclose(xs[1:], [0.3, 1.9], rtol=0, atol=1e-13)


def test_cumulative_inverse_bisects_where_the_density_vanishes():
    # f = 0 on [1, 2]; the middle panel straddles the end of the support,
    # so the first iterate of q near the total has f(x) = 0
    ci = quadrature.CumulativeIntegral(
        lambda r: np.maximum(1.0 - r, 0.0) ** 2, 0.0, 2.0, panels=3)
    roots = np.array([0.999, 0.99999])
    q = ci.value(roots)
    assert q.max() < ci.total
    x = ci.inverse(q)
    lo, hi = ci.edges[1], ci.edges[2]
    assert np.all((lo <= x) & (x <= hi))
    assert np.allclose(ci.value(x), q, rtol=0, atol=1e-15)
    assert np.allclose(x, roots, rtol=0, atol=1e-6)
    # at the total F is flat on the last panel; any point there solves it
    x_top = ci.inverse(ci.total)
    assert ci.edges[2] <= x_top <= ci.b and ci.value(x_top) == ci.total


def test_cumulative_inverse_stops_after_newton_converges():
    ci = quadrature.CumulativeIntegral(
        lambda r: np.exp(-r), 0.0, 20.0, panels=512)
    calls = []
    value = ci.value

    def counting(x):
        calls.append(np.size(x))
        return value(x)

    ci.value = counting
    q = np.array([0.05, 0.3, 0.5, 0.7, 0.95]) * ci.total
    x = ci.inverse(q)
    assert len(calls) <= 8
    assert np.allclose(np.exp(-x), 1.0 - q, rtol=1e-12, atol=0)


def test_cumulative_value_at_a_point_ignores_the_rest_of_the_batch():
    # one order-16 panel, so F(x) is the partial-panel sum itself, at
    # 12,325 random points: a row's bits are its one-row value's, for every
    # batch size and position (a BLAS matrix-vector product gives the last
    # rows of a batch other bits), so one inversion per distinct radius
    # loses nothing
    ci = quadrature.CumulativeIntegral(
        lambda r: r * np.exp(-math.pi * r * r), 0.0, 8.0, panels=1,
        order=16)
    x = np.random.default_rng(3).uniform(0.0, 8.0, 12325)
    whole = ci.value(x)
    for m in range(1, 18):
        batch = ci.value(x[:m])
        assert np.array_equal(batch, whole[:m])
        assert np.array_equal(batch, [ci.value(x[i:i + 1])[0]
                                      for i in range(m)])
    assert np.array_equal(whole[-17:], [ci.value(v) for v in x[-17:]])
    pieces = [ci.value(x[lo:lo + 333]) for lo in range(0, x.size, 333)]
    assert np.array_equal(np.concatenate(pieces), whole)


@pytest.mark.parametrize("build", [np.polynomial.legendre.leggauss,
                                   np.polynomial.hermite_e.hermegauss])
def test_cached_gauss_rules_are_numpys_and_read_only(build):
    for order in (6, 16, 48):
        x, w = quadrature._rule(build, order)
        want_x, want_w = build(order)
        assert _same_bits(x, want_x) and _same_bits(w, want_w)
        # one build per order: every caller shares the same arrays
        again = quadrature._rule(build, order)
        assert again[0] is x and again[1] is w
        for a in (x, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
            with pytest.raises(ValueError):
                a *= 2.0
        assert _same_bits(x, want_x) and _same_bits(w, want_w)


# ---------------------------------------------------------------------------
# polynomial dictionaries


def test_poly_eval_and_deriv():
    poly = {(2, 0): 1.0, (1, 1): -3.0, (0, 0): 2.0}
    x = np.array([[1.0, 2.0], [0.5, -1.0]])
    got = poly_eval(poly, x)
    want = x[:, 0] ** 2 - 3 * x[:, 0] * x[:, 1] + 2.0
    assert np.allclose(got, want, atol=1e-14)
    dx = poly_deriv(poly, 0)
    assert np.allclose(poly_eval(dx, x), 2 * x[:, 0] - 3 * x[:, 1])


def test_gaussian_poly_expectations_against_moments():
    # E[x^2] = sigma^2 + m^2, E[x^4] = 3 sigma^4 + 6 sigma^2 m^2 + m^4
    mean = np.array([[0.7, -0.2]])
    cov = np.diag([2.0, 0.5])
    vals = gaussian_poly_expectations(
        [{(2, 0): 1.0}, {(4, 0): 1.0}, {(1, 1): 1.0}], mean, cov)
    assert abs(vals[0][0] - (2.0 + 0.49)) < 1e-12
    assert abs(vals[1][0] - (3 * 4.0 + 6 * 2.0 * 0.49 + 0.49 ** 2)) < 1e-11
    assert abs(vals[2][0] - 0.7 * (-0.2)) < 1e-12


def test_modulus_squared_poly_hand_expansion():
    # |1 + z|^2 = (1 + x)^2 + y^2
    msq = modulus_squared_poly([1.0, 1.0])
    x = np.array([[0.3, -1.2], [2.0, 0.1]])
    want = (1 + x[:, 0]) ** 2 + x[:, 1] ** 2
    assert np.allclose(poly_eval(msq, x), want, atol=1e-13)


def test_holomorphic_real_poly_abs():
    coeffs = [0.5, -1.0, 0.0, 2.0]  # 0.5 - z + 2 z^3
    cpoly = holomorphic_to_real_poly(coeffs)
    pts = np.array([[0.4, 0.9], [-1.1, 0.2]])
    z = pts[:, 0] + 1j * pts[:, 1]
    f = 0.5 - z + 2 * z ** 3
    got = sum(c * pts[:, 0] ** a * pts[:, 1] ** b
              for (a, b), c in cpoly.items())
    assert np.allclose(got, f, atol=1e-12)


# ---------------------------------------------------------------------------
# PolyExp families


def _fd_log_derivs(fam, x, h=1e-5):
    n = x.shape[1]
    logf = lambda p: np.log(fam.value(p))
    grad = np.zeros_like(x)
    hess = np.zeros((x.shape[0], n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        grad[:, i] = (logf(x + ei) - logf(x - ei)) / (2 * h)
        for j in range(n):
            ej = np.zeros(n)
            ej[j] = h
            hess[:, i, j] = (logf(x + ei + ej) - logf(x + ei - ej)
                             - logf(x - ei + ej) + logf(x - ei - ej)) / (4 * h * h)
    return grad, hess


def test_polyexp_log_derivs_match_finite_differences():
    fam = PolyExp.poly_times_gaussian(
        2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 0.3}, beta=0.8)
    x = np.array([[0.4, -0.7], [1.2, 0.5]])
    _, grad, hess = fam.log_derivs(x)
    fd_g, fd_h = _fd_log_derivs(fam, x)
    assert np.allclose(grad, fd_g, atol=1e-6)
    assert np.allclose(hess, fd_h, atol=1e-4)


def test_log_value_is_the_value_of_log_derivs_bitwise():
    x = np.random.default_rng(9).normal(size=(300, 2)) * 1.5
    one = PolyExp.poly_times_gaussian(
        2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 0.3}, beta=0.8)
    mix = PolyExp.mixture(
        [one, PolyExp.quadratic_exponent(2, beta=1.2, b=[0.3, -0.2])],
        [0.4, 0.6])
    for fam in (one, mix):
        assert np.array_equal(fam.log_value(x), fam.log_derivs(x)[0])
    # a displaced two-state Husimi density against its centred family
    states = [WehrlState((0.5, 0.5), (tuple(fock_coefficients(0)),
                                      tuple(fock_coefficients(1))),
                         center=c) for c in ((0.0, 0.0), (0.7, 0.4))]
    (centred, _, _), (displaced, _, _) = map(build_wehrl_instance, states)
    assert displaced.family is None
    assert np.array_equal(
        displaced.logpdf(x),
        centred.family.log_derivs(x - displaced.center)[0])


def test_log_value_raises_where_log_derivs_raises():
    x = np.array([[0.5, 0.2], [0.0, 1.0]])
    # x_1 vanishes at the second point
    zero = PolyExp.poly_times_gaussian(2, {(1, 0): 1.0}, beta=1.0)
    # 1 - 2 exp(-|x|^2 / 2) is negative near the origin
    negative = PolyExp.mixture([PolyExp.quadratic_exponent(2, beta=0.0),
                                PolyExp.quadratic_exponent(2, beta=1.0)],
                               [1.0, -2.0])
    for fam, message in ((zero, "zero of the weight"),
                         (negative, "not positive")):
        for evaluate in (fam.log_value, fam.log_derivs):
            with pytest.raises(DomainError, match=message):
                evaluate(x)


def test_polyexp_multiply_is_pointwise_product():
    a = PolyExp.poly_times_gaussian(2, {(1, 0): 1.0, (0, 0): 2.0}, beta=0.5)
    b = PolyExp.quadratic_exponent(2, beta=0.3, c=-0.2)
    x = np.random.default_rng(5).normal(size=(20, 2))
    assert np.allclose(a.multiply(b).value(x), a.value(x) * b.value(x),
                       rtol=1e-12)


def test_polyexp_mixture_weights():
    # beta = 0 is the constant function 1
    parts = [PolyExp.quadratic_exponent(2, beta=0.0),
             PolyExp.quadratic_exponent(2, beta=1.0)]
    mix = PolyExp.mixture(parts, [0.25, 0.75])
    x = np.array([[0.3, 0.4]])
    want = 0.25 + 0.75 * math.exp(-0.5 * 0.25)
    assert abs(mix.value(x)[0] - want) < 1e-14


def test_smoothed_log_derivs_gaussian_weight_closed_form():
    # int e^{-beta|z + sqrt(s) y|^2/2} dgamma(y)
    #   = (1 + beta s)^{-n/2} exp(-beta |z|^2 / (2 (1 + beta s)))
    beta, s, n = 1.7, 0.6, 2
    fam = PolyExp.quadratic_exponent(n, beta=beta)
    z = np.array([[0.5, -1.1], [2.0, 0.3]])
    logv, grad, hess = fam.smoothed_log_derivs(z, s)
    c = beta / (1.0 + beta * s)
    want_log = (-n / 2) * math.log1p(beta * s) \
        - 0.5 * c * np.einsum("mi,mi->m", z, z)
    assert np.allclose(logv, want_log, atol=1e-12)
    assert np.allclose(grad, -c * z, atol=1e-12)
    assert np.allclose(hess, -c * np.eye(n)[None], atol=1e-12)


def test_gamma_weighted_expectations_vs_hermite():
    fam = PolyExp.poly_times_gaussian(2, {(2, 0): 1.0, (0, 2): 1.0}, beta=0.4)
    got = fam.gamma_weighted_expectations([{(0, 0): 1.0}, {(2, 0): 1.0}])
    pts, w = quadrature.gauss_hermite(2, order=48)
    fv = fam.value(pts)
    assert abs(got[0] - float(w @ fv)) < 1e-10
    assert abs(got[1] - float(w @ (fv * pts[:, 0] ** 2))) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=0.1, max_value=2.0))
def test_smoothed_value_agrees_with_hermite(zx, zy, s):
    fam = PolyExp.poly_times_gaussian(2, {(2, 0): 1.0, (0, 0): 0.5}, beta=0.9)
    z = np.array([[zx, zy]])
    got = np.exp(fam.smoothed_log_derivs(z, s)[0])[0]
    pts, w = quadrature.gauss_hermite(2, order=32)
    want = float(w @ fam.value(z + math.sqrt(s) * pts))
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_polyexp_rejects_mismatched_dims():
    a = PolyExp.quadratic_exponent(2, beta=0.0)
    b = PolyExp.quadratic_exponent(3, beta=0.0)
    with pytest.raises(Exception):
        a.multiply(b)


def test_polyexp_rejects_exponent_keys_of_another_dim():
    for key in ((2, 0, 0), (2,)):
        with pytest.raises(DomainError):
            PolyExp.poly_times_gaussian(2, {key: 1.0})
    PolyExp.poly_times_gaussian(2, {(2, 0): 1.0})
