"""Sphere-average second difference and Jacobian statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transportlab.calculus import (SphereRule, delta_epsilon,
                                   delta_epsilon_bound_rhs,
                                   delta_epsilon_limit_check, map_statistics,
                                   symmetric_eigenvalues)
from transportlab.errors import DomainError


def test_sphere_rule_nodes_are_unit_and_symmetric():
    for dim in (1, 2, 3):
        rule = SphereRule.make(dim, angles=16, frames=8, seed=2)
        r = np.linalg.norm(rule.points, axis=1)
        assert np.allclose(r, 1.0, atol=1e-12)
        # antipodal symmetry kills odd moments exactly
        assert np.allclose(rule.weights @ rule.points, 0.0, atol=1e-14)
        assert abs(rule.weights.sum() - 1.0) < 1e-13


def test_sphere_rule_second_moment():
    for dim in (1, 2, 3):
        rule = SphereRule.make(dim, angles=32, frames=16, seed=0)
        m2 = np.einsum("k,ki,kj->ij", rule.weights, rule.points,
                       rule.points)
        assert np.allclose(m2, np.eye(dim) / dim, atol=1e-12)


def test_delta_epsilon_exact_on_half_square():
    # f = |x|^2/2 has delta_eps f = eps^2/2 for every rule
    f = lambda x: 0.5 * np.einsum("mi,mi->m", x, x)
    for dim in (1, 2):
        rule = SphereRule.make(dim, angles=16, frames=4, seed=1)
        x = np.array([[0.7] * dim, [-1.2] * dim])
        for eps in (0.1, 0.5, 2.0):
            got = delta_epsilon(f, x, eps, rule)
            assert np.allclose(got, eps ** 2 / 2.0, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-2, max_value=2),
       st.floats(min_value=-2, max_value=2),
       st.floats(min_value=-2, max_value=2),
       st.floats(min_value=0.05, max_value=1.5))
def test_delta_epsilon_exact_on_quadratics(a11, a22, a12, eps):
    # any quadratic: delta_eps f = trace(A) eps^2 / (2 n), exactly
    A = np.array([[a11, a12], [a12, a22]])
    b = np.array([0.3, -0.8])
    f = lambda x: 0.5 * np.einsum("mi,ij,mj->m", x, A, x) + x @ b
    rule = SphereRule.make(2, angles=16, frames=4, seed=5)
    x = np.array([[0.4, -1.0]])
    got = float(delta_epsilon(f, x, eps, rule)[0])
    want = np.trace(A) * eps ** 2 / 4.0
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_limit_check_order_for_smooth_function():
    f = lambda x: np.cos(x[:, 0]) + np.exp(0.3 * x[:, 1])
    x = np.array([[0.2, -0.4]])
    lap = -np.cos(0.2) + 0.09 * np.exp(0.3 * -0.4)
    rule = SphereRule.make(2, angles=64, frames=32, seed=0)
    chk = delta_epsilon_limit_check(f, lap, x, [0.4, 0.2, 0.1, 0.05], rule)
    assert chk.fitted_order >= 1.9
    assert chk.errors[-1] < chk.errors[0]


def test_limit_check_needs_three_epsilons():
    rule = SphereRule.make(2, angles=8, frames=4, seed=0)
    with pytest.raises(DomainError):
        delta_epsilon_limit_check(lambda x: x[:, 0], 0.0,
                                  np.zeros((1, 2)), [0.1, 0.05], rule)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=4.0),
       st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=-3, max_value=3),
       st.floats(min_value=-3, max_value=3))
def test_concave_quadratic_respects_transfer_bound(ell, eps, x1, x2):
    # Delta f = -ell: the sphere average obeys (Delta f / n) eps^2 / 2
    f = lambda x: -0.25 * ell * np.einsum("mi,mi->m", x, x)
    rule = SphereRule.make(2, angles=16, frames=8, seed=3)
    got = float(delta_epsilon(f, np.array([[x1, x2]]), eps, rule)[0])
    rhs = delta_epsilon_bound_rhs(-ell, 2, eps)
    assert got <= rhs + 1e-12


def test_map_statistics_exact_affine():
    A = np.array([[0.5, 0.1], [0.1, 0.8]])

    class Affine:
        def __call__(self, x):
            return x @ A.T

        def jacobian(self, x):
            return np.broadcast_to(A, (x.shape[0], 2, 2)).copy()

    stats = map_statistics(Affine(), np.zeros((3, 2)))
    assert np.allclose(stats.trace, np.trace(A))
    assert np.allclose(stats.determinant, np.linalg.det(A))
    w = np.linalg.eigvalsh(A)
    assert np.allclose(stats.operator_norm, w[-1])
    assert np.allclose(stats.min_eigenvalue, w[0])
    assert np.allclose(stats.asymmetry, 0.0)


def test_map_statistics_symmetrizes_and_reports_asymmetry():
    A = np.array([[1.0, 0.4], [0.0, 1.0]])

    class Affine:
        def jacobian(self, x):
            return np.broadcast_to(A, (x.shape[0], 2, 2)).copy()

    stats = map_statistics(Affine(), np.zeros((1, 2)))
    sym = 0.5 * (A + A.T)
    assert np.allclose(stats.determinant, np.linalg.det(sym))
    assert stats.asymmetry[0] > 0.1


def _stacks_2x2(rng, size=20000):
    """Symmetric 2 x 2 stacks: random over forty decades, diagonal,
    repeated eigenvalues and near-singular rank-one."""
    A = rng.standard_normal((size, 2, 2)) * np.exp(
        rng.uniform(-20.0, 20.0, (size, 1, 1)))
    random = 0.5 * (A + A.transpose(0, 2, 1))
    diagonal = random * np.eye(2)
    repeated = np.einsum("m,ij->mij", random[:, 0, 0], np.eye(2))
    v = rng.standard_normal((size, 2))
    singular = np.einsum("mi,mj->mij", v, v)
    singular[:, 1, 1] += 1e-12 * rng.standard_normal(size)
    return {"random": random, "diagonal": diagonal, "repeated": repeated,
            "near_singular": singular}


@pytest.mark.parametrize("kind", ["random", "diagonal", "repeated",
                                  "near_singular"])
def test_closed_form_2x2_eigenvalues_agree_with_lapack(kind):
    S = _stacks_2x2(np.random.default_rng(8))[kind]
    got, want = symmetric_eigenvalues(S), np.linalg.eigvalsh(S)
    assert got.shape == want.shape
    assert np.all(got[:, 0] <= got[:, 1])
    ulp = np.spacing(np.abs(want).max(axis=1))
    assert np.all(np.abs(got - want) <= 4 * ulp[:, None])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_eigenvalues_leave_n_other_than_2_to_lapack(monkeypatch,
                                                              n):
    calls = []
    own = np.linalg.eigvalsh

    def eigvalsh(a):
        calls.append(np.shape(a))
        return own(a)

    A = np.random.default_rng(n).standard_normal((5, n, n))
    S = A + A.transpose(0, 2, 1)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    got = symmetric_eigenvalues(S)
    assert calls == ([] if n == 2 else [(5, n, n)])
    assert got.shape == (5, n)
    if n != 2:
        assert np.array_equal(got, own(S))
