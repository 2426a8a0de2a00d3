"""The evaluation kernels' contractions run through BLAS products.

Each contraction that was a multi-operand `np.einsum` (numpy's unoptimized
path) is now a product of two arrays at a time; here each one matches its
old einsum form on random inputs, through the package function where its
output shows the contraction directly, and a scan of the package keeps the multi-operand form
from coming back.
"""

import ast
import pathlib

import numpy as np
import pytest

from transportlab import semigroup
from transportlab.measures import gaussian
from transportlab.polyexp import PolyExp, PolyExpTerm, poly_eval

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "transportlab"
RTOL = 1e-13


def _spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def _sandwich(rng, n):
    # polyexp.PolyExp.smoothed_log_derivs: Minv inner Minv at each point
    Minv = np.linalg.inv(_spd(rng, n))
    inner = rng.normal(size=(53, n, n))
    inner = inner + np.swapaxes(inner, 1, 2)
    return (np.einsum("ik,mkl,lj->mij", Minv, inner, Minv),
            Minv @ inner @ Minv)


def _flow_jacobian_rhs(rng, n):
    # heatflow.integrate_flow: d/dt DX = hess(drift) DX at each particle
    dhess, jac = rng.normal(size=(2, 61, n, n))
    return np.einsum("mij,mjk->mik", dhess, jac), dhess @ jac


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("case", [_sandwich, _flow_jacobian_rhs])
def test_blas_contraction_matches_its_einsum_form(case, n):
    old, new = case(np.random.default_rng(n), n)
    assert new.shape == old.shape
    # entries that cancel to near zero are held to the array's scale
    np.testing.assert_allclose(new, old, rtol=RTOL,
                               atol=RTOL * np.abs(old).max())


def test_quadratic_forms_in_the_package_match_the_einsum_form():
    rng = np.random.default_rng(4)
    n = 3
    x = rng.normal(size=(300, n))
    B = 0.5 * _spd(rng, n)
    b = rng.normal(size=n)
    poly = {(0, 0, 0): 1.5, (2, 0, 0): 1.0, (0, 1, 1): 0.25}
    fam = PolyExp(n, [PolyExpTerm(poly, 0.3, b, B)])
    expo = 0.3 + x @ b - 0.5 * np.einsum("mi,ij,mj->m", x, B, x)
    q = poly_eval(poly, x)
    np.testing.assert_allclose(fam.value(x), np.exp(expo) * q, rtol=RTOL)
    np.testing.assert_allclose(fam.log_value(x), expo + np.log(q),
                               rtol=RTOL)
    mean, cov = rng.normal(size=n), _spd(rng, n)
    prec = np.linalg.inv(cov)
    d = x - mean
    want = (-0.5 * n * np.log(2.0 * np.pi)
            - 0.5 * np.linalg.slogdet(cov)[1]
            - 0.5 * np.einsum("mi,ij,mj->m", d, prec, d))
    np.testing.assert_allclose(gaussian(mean, cov).logpdf(x), want,
                               rtol=RTOL)


def test_gauss_hermite_hessian_matches_the_einsum_form():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9, 2))
    fn = gaussian(np.zeros(2), np.diag([2.0, 0.5])).pdf
    a, s, order = 0.8, 0.4, 12
    P, grad, hess = semigroup._gh_eval(fn, x, a, s, order)
    y, w = semigroup.quadrature.gauss_hermite(2, order)
    vals = fn(((a * x)[:, None, :] + np.sqrt(s) * y[None]).reshape(-1, 2))
    vals = vals.reshape(len(x), -1)
    yy = np.einsum("ki,kj->kij", y, y) - np.eye(2)[None, :, :]
    H = (a * a / s) * np.einsum("mk,k,kij->mij", vals, w, yy)
    want = H / P[:, None, None] - np.einsum("mi,mj->mij", grad, grad)
    np.testing.assert_allclose(hess, want, rtol=RTOL,
                               atol=RTOL * np.abs(want).max())


def _multi_operand_einsums(source, name):
    for node in ast.walk(ast.parse(source, filename=name)):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum"
                and len(node.args) > 3):
            yield f"{name}:{node.lineno}"


def test_no_einsum_in_the_package_takes_more_than_two_operands():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _multi_operand_einsums(path.read_text(), path.name)]
    assert not found, ("numpy's einsum takes its unoptimized path on more "
                       f"than two operands; use BLAS products: {found}")


def test_the_einsum_scan_flags_three_operands_only():
    code = ('a = np.einsum("mi,mi->m", x @ B, x)\n'
            'b = np.einsum("mi,ij,mj->m", x, B, x)\n')
    assert list(_multi_operand_einsums(code, "probe.py")) == ["probe.py:2"]
