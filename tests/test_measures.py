"""Density containers, truncation boxes, and convexity certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transportlab.errors import CertificateConflictError, DomainError
from transportlab.measures import (ConvexityCertificate, Density,
                                   TruncationBox, check_certificate, gaussian)
from transportlab.polyexp import PolyExp
from transportlab.quadrature import box_gauss_legendre


def test_gaussian_logpdf_matches_scipy():
    from scipy.stats import multivariate_normal
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    mean = np.array([0.5, -1.0])
    dens = gaussian(mean, cov)
    x = np.random.default_rng(3).normal(size=(40, 2))
    ref = multivariate_normal(mean, cov).logpdf(x)
    assert np.allclose(dens.logpdf(x), ref, atol=1e-12)


def test_gaussian_derivatives_and_certificate():
    sigma2 = 4.0
    dens = gaussian(np.zeros(2), sigma2 * np.eye(2))
    x = np.array([[1.0, -2.0]])
    assert np.allclose(dens.hess_log(x), -np.eye(2)[None] / sigma2)
    # potential V = -log density has hessian I/sigma^2
    assert dens.certificate.alpha == pytest.approx(1.0 / sigma2)
    assert dens.certificate.kappa == pytest.approx(1.0 / sigma2)
    assert np.allclose(dens.potential_laplacian(x), 2.0 / sigma2)
    assert np.allclose(dens.potential_hessian_min_eig(x), 1.0 / sigma2)


def test_gaussian_sampler_moments():
    dens = gaussian(np.array([1.0, 0.0]), np.diag([1.0, 4.0]))
    rng = np.random.default_rng(11)
    draws = dens.sampler(rng, 20000)
    assert np.allclose(draws.mean(axis=0), [1.0, 0.0], atol=0.05)
    assert np.allclose(draws.var(axis=0), [1.0, 4.0], rtol=0.05)


def test_box_membership_and_grids():
    box = TruncationBox.cube(2, 2.0)
    assert box.dim == 2
    assert bool(box.contains(np.array([[1.9, -1.9]]))[0])
    assert not bool(box.contains(np.array([[2.1, 0.0]]))[0])
    g = box.grid(5)
    assert g.shape == (25, 2)
    inner = box.interior_grid(5)
    assert np.all(np.abs(inner) < 2.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.5, max_value=5.0))
def test_box_uniform_samples_stay_inside(dim, half):
    box = TruncationBox.cube(dim, half)
    rng = np.random.default_rng(0)
    pts = box.sample_uniform(200, rng)
    assert np.all(box.contains(pts))


def test_mass_on_wide_box_is_one():
    dens = gaussian(np.zeros(2), np.eye(2))
    pts, w = box_gauss_legendre(TruncationBox.cube(2, 7.0), order=48, panels=4)
    assert abs(w @ dens.pdf(pts) - 1.0) < 1e-10


def test_derivatives_without_evaluators_are_refused():
    # no finite-difference stand-in: the refusal names the density's kind
    dens = Density(2, lambda x: -0.5 * np.einsum("mi,mi->m", x, x),
                   kind="bare")
    x = np.zeros((3, 2))
    assert np.allclose(dens.logpdf(x), 0.0)
    with pytest.raises(DomainError, match="bare density has no Hessian"):
        dens.hess_log(x)
    with pytest.raises(DomainError, match="bare density has no Hessian"):
        dens.potential_laplacian(x)


def test_check_certificate_accepts_honest_gaussian():
    dens = gaussian(np.zeros(2), 2.0 * np.eye(2))
    box = TruncationBox.cube(2, 3.0)
    check_certificate(dens, box)  # should not raise


def test_check_certificate_rejects_false_kappa():
    base = gaussian(np.zeros(2), 2.0 * np.eye(2))  # true kappa = 0.5
    lying = Density(2, base._log_density, hess_log=base._hess_log,
                    normalized=True,
                    certificate=ConvexityCertificate(None, 2.0))
    box = TruncationBox.cube(2, 3.0)
    with pytest.raises(CertificateConflictError):
        check_certificate(lying, box)


def test_polyexp_backed_density_roundtrip():
    fam = PolyExp.quadratic_exponent(2, beta=1.0, c=-math.log(2 * math.pi))
    dens = Density(
        2,
        lambda x: np.log(fam.value(x)),
        hess_log=lambda x: fam.log_derivs(x)[2],
        normalized=True,
        certificate=ConvexityCertificate(1.0, 1.0),
        family=fam,
    )
    ref = gaussian(np.zeros(2), np.eye(2))
    x = np.random.default_rng(1).normal(size=(10, 2))
    assert np.allclose(dens.logpdf(x), ref.logpdf(x), atol=1e-12)
    assert dens.family is fam
