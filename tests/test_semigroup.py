"""Ornstein-Uhlenbeck smoothing: closed forms, bounds, mollification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transportlab import polyexp, quadrature, scenarios, semigroup
from transportlab.errors import DomainError
from transportlab.measures import Density, TruncationBox
from transportlab.polyexp import PolyExp
from transportlab.semigroup import (apply, check_smoothing_bounds,
                                    mollified_kappa, mollify)


def _gaussian_weight(beta, dim=2):
    return PolyExp.quadratic_exponent(dim, beta=beta)


def test_kernel_params():
    a, s = semigroup.kernel_params(0.7)
    assert a == pytest.approx(math.exp(-0.7))
    assert s == pytest.approx(1.0 - math.exp(-1.4))


def test_gaussian_weight_closed_form_value_and_hessian():
    # P_t e^{-beta |x|^2/2} = (1 + beta s)^{-n/2}
    #   * exp(-beta a^2 |x|^2 / (2 (1 + beta s)))
    for beta in (0.5, 1.0, 3.0):
        f = _gaussian_weight(beta)
        for t in (0.1, 0.4, 1.0, 2.0):
            a, s = semigroup.kernel_params(t)
            x = np.random.default_rng(7).normal(size=(20, 2))
            ev = apply(f, t, x)
            c = beta * a * a / (1.0 + beta * s)
            want = (1.0 + beta * s) ** -1.0 \
                * np.exp(-0.5 * c * np.einsum("mi,mi->m", x, x))
            assert np.allclose(ev.value, want, rtol=1e-12)
            assert np.allclose(ev.hess_log, -c * np.eye(2)[None], atol=1e-12)


def test_closed_form_agrees_with_hermite_quadrature():
    f = PolyExp.poly_times_gaussian(
        2, {(2, 0): 1.0, (0, 2): 1.0}, beta=0.6)
    x = np.array([[0.5, -0.8], [1.5, 0.2]])
    ev_cf = apply(f, 0.7, x, method="closed_form")
    ev_gh = apply(f, 0.7, x, method="gauss_hermite")
    assert np.allclose(ev_cf.value, ev_gh.value, rtol=1e-10)
    assert np.allclose(ev_cf.grad_log, ev_gh.grad_log, atol=1e-8)
    assert np.allclose(ev_cf.hess_log, ev_gh.hess_log, atol=1e-7)


def _selftest_family():
    # the selftest's semigroup weight, the Fock-1 Husimi density
    msq = polyexp.modulus_squared_poly(scenarios.fock_coefficients(1))
    return PolyExp.poly_times_gaussian(2, msq, B=2.0 * math.pi * np.eye(2))


def test_hermite_blocks_equal_one_batch(monkeypatch):
    x = np.random.default_rng(0).standard_normal((40, 2))
    blocked = apply(_selftest_family(), 0.7, x, method="gauss_hermite")
    monkeypatch.setattr(quadrature, "EVAL_ROWS", 10 ** 9)
    one = apply(_selftest_family(), 0.7, x, method="gauss_hermite")
    for name in ("value", "grad_log", "hess_log"):
        assert np.array_equal(getattr(blocked, name), getattr(one, name))


def test_hermite_working_set_does_not_hold_the_whole_rule():
    # one batch of 40 probes on the order-128 rule held 655,360 points and
    # peaked at 42 MB; a block holds one probe's 16,384, and the gradient
    # must not copy the 40 x 16,384 values (5.2 MB): the peak is 7.3 MB
    import tracemalloc

    x = np.random.default_rng(0).standard_normal((40, 2))
    f = _selftest_family()
    tracemalloc.start()
    try:
        apply(f, 0.7, x, method="gauss_hermite")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


def test_weight_without_family_above_dim_2_is_refused():
    # no closed form and no tensor rule: a typed refusal, not an estimate
    dens = Density(3, lambda x: -0.5 * np.einsum("mi,mi->m", x, x))
    with pytest.raises(DomainError, match="dim <= 2"):
        apply(dens, 0.5, np.zeros((2, 3)))
    with pytest.raises(DomainError, match="dim <= 2"):
        check_smoothing_bounds(dens, 0.5, np.zeros((2, 3)))
    # the same weight with its family takes the closed form
    fam = PolyExp.quadratic_exponent(3, beta=1.0)
    ev = apply(Density(3, dens._log_density, family=fam), 0.5,
               np.zeros((2, 3)))
    assert ev.method == "closed_form"


def test_smoothing_bounds_pass_for_gaussian_weights():
    # P_t e^{-beta|x|^2/2} has hess log = -beta a^2/(1 + beta s) Id, above
    # the floor -(a^2/s) Id by a^2/(s (1 + beta s))
    probes = np.random.default_rng(0).normal(size=(50, 2))
    for beta in (0.5, 1.0, 3.0):
        f = _gaussian_weight(beta)
        for t in (0.2, 0.8):
            cert = check_smoothing_bounds(f, t, probes)
            assert cert.verdict == "pass", (beta, t, cert.observed)
            a, s = semigroup.kernel_params(t)
            assert cert.theoretical_rhs == a * a / s
            assert cert.observed == pytest.approx(
                beta * a * a / (1.0 + beta * s), rel=1e-12)


def test_cross_term_weight_has_positive_laplacian():
    # f = e^{x1 x2}: quadratic exponent with B = [[0,-1],[-1,0]]
    f = PolyExp.quadratic_exponent(2, B=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    probes = np.random.default_rng(4).normal(size=(40, 2)) * 1.5
    for t in (0.1, 0.5, 1.0):
        ev = apply(f, t, probes)
        lap = np.trace(ev.hess_log, axis1=1, axis2=2)
        assert np.all(np.isfinite(lap))
        assert np.all(lap > 0.0), t


def test_mollified_kappa_formula_and_decay():
    # closed form at k = 1: kappa e^{-2} / (1 + kappa (1 - e^{-2}))
    kappa = 2.0
    e = math.exp(-2.0)
    assert mollified_kappa(kappa, 1) == pytest.approx(
        kappa * e / (1 + kappa * (1 - e)))
    # monotone recovery toward kappa
    vals = [mollified_kappa(kappa, k) for k in (1, 2, 5, 20, 100)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(kappa, rel=1e-1)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.05, max_value=8.0),
       st.integers(min_value=5, max_value=200))
def test_mollified_kappa_gap_bound(kappa, k):
    gap = kappa - mollified_kappa(kappa, k)
    assert gap <= kappa * (kappa + 1.0) * (2.0 / k) + 1e-12


def test_mollify_pair_matches_formula_constants():
    from transportlab.measures import gaussian
    mu = gaussian(np.zeros(2), 4.0 * np.eye(2))
    nu = gaussian(np.zeros(2), np.eye(2))
    pair = mollify(mu, nu, alpha=0.25, kappa=1.0, k=5,
                   validation_box=TruncationBox.cube(2, 2.5), probes=32)
    assert pair.kappa_k == pytest.approx(mollified_kappa(1.0, 5))
    # smoothed Gaussian target is still Gaussian: sampled hessian of the
    # potential must sit exactly at kappa_k
    x = np.random.default_rng(2).normal(size=(30, 2))
    eigs = np.linalg.eigvalsh(-pair.target.hess_log(x))
    assert np.allclose(eigs.min(axis=1), pair.kappa_k, rtol=1e-6)


def test_validating_a_mollified_pair_smooths_each_density_once(monkeypatch):
    # the certificate check reads Delta V and the smallest eigenvalue off one
    # Hessian, so each of the two densities costs one apply of its probes
    calls = []
    own_apply = semigroup.apply

    def apply(f, t, x, method="auto"):
        calls.append(np.atleast_2d(x).shape[0])
        return own_apply(f, t, x, method)

    monkeypatch.setattr(semigroup, "apply", apply)
    mollify(*scenarios.gaussian_pair(2.0, 1.0), 0.25, 1.0, 4)
    assert calls == [64, 64]


@pytest.mark.parametrize("r", [1.0, 100.0])
def test_mollified_log_density_is_read_in_log_space(r):
    # P_t of the N(0, Id) density is (1 + s)^{-1} e^{-a^2 |x|^2/(2 (1 + s))}
    # / (2 pi); at |x| = 100 its value e^{-1129} underflows, its log does not
    k = 2
    pair = mollify(*scenarios.gaussian_pair(2.0, 1.0), 0.25, 1.0, k)
    a, s = semigroup.kernel_params(1.0 / k)
    x = np.array([[r, 0.0]])
    want = (-math.log(2.0 * math.pi) - math.log(1.0 + s)
            - a * a * r * r / (2.0 * (1.0 + s)))
    assert pair.target.logpdf(x)[0] == pytest.approx(want, rel=1e-12)


def test_covariance_identity_at_probe():
    # hess log P_t f(x) = (a^2/s) (Cov[p] / s - Id) with p(y) proportional to
    # f(y) exp(-|y - a x|^2 / (2 s)); the tilted covariance comes from a
    # Gauss-Hermite grid centered at a x, settled by doubling its order
    f = PolyExp.poly_times_gaussian(2, {(2, 0): 1.0, (0, 0): 0.5}, beta=0.7)
    t, x = 0.6, np.array([[0.4, -0.2]])
    a, s = semigroup.kernel_params(t)

    def tilted_cov(order):
        y, w = quadrature.gauss_hermite(2, order)
        pts = a * x[0] + math.sqrt(s) * y
        p = f.value(pts) * w
        p = p / p.sum()
        d = pts - p @ pts
        return np.einsum("k,ki,kj->ij", p, d, d)

    cov = tilted_cov(128)
    assert np.abs(tilted_cov(64) - cov).max() < 1e-8
    want = (a * a / s) * (cov / s - np.eye(2))
    for method in ("gauss_hermite", "closed_form"):
        ev = apply(f, t, x, method=method)
        assert np.linalg.norm(ev.hess_log[0] - want) < 1e-8, method


def test_apply_rejects_negative_time():
    with pytest.raises(DomainError):
        semigroup.kernel_params(-0.1)
