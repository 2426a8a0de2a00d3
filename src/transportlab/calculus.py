"""Spherical finite differences and Jacobian statistics.

The operator of interest is the sphere average

    delta_eps f(x) = mean over the radius-eps sphere of f(x + y) - f(x),

whose eps^2-normalized limit is Delta f(x) / (2 n). Quadrature rules are
reflection symmetric with exact unit-sphere second moments Id/n, which makes
delta_eps exact on quadratics: delta_eps f = (Delta f / (2n)) eps^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class SphereRule:
    """Unit-sphere quadrature nodes and weights.

    Dimension 1 uses the two endpoints with weights 1/2; dimension 2 uses
    equally spaced angles; dimension >= 3 averages signed axis vectors over
    seeded random orthonormal frames. Weights sum to one and nodes come in
    antipodal pairs, so odd moments vanish identically.
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray
    kind: str

    @classmethod
    def make(cls, dim, angles=64, frames=32, seed=0):
        if dim == 1:
            pts = np.array([[1.0], [-1.0]])
            w = np.array([0.5, 0.5])
            return cls(1, pts, w, "two_point")
        if dim == 2:
            if angles % 2 != 0:
                raise DomainError("angle count must be even for reflection symmetry")
            theta = 2.0 * np.pi * np.arange(angles) / angles
            pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            w = np.full(angles, 1.0 / angles)
            return cls(2, pts, w, "uniform_angles")
        rng = np.random.default_rng(seed)
        pts = []
        for _ in range(frames):
            a = rng.standard_normal((dim, dim))
            q, r = np.linalg.qr(a)
            q = q * np.sign(np.diag(r))
            pts.append(q.T)
            pts.append(-q.T)
        pts = np.concatenate(pts, axis=0)
        w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        return cls(dim, pts, w, "random_frames")


def delta_epsilon(f, x, eps, rule):
    """Sphere-average increment of f at points x with radius eps.

    f maps (m, n) -> (m,); x has shape (m, n) or (n,).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != rule.dim:
        raise DomainError("rule dimension does not match the points")
    m = x.shape[0]
    k = rule.points.shape[0]
    nodes = x[:, None, :] + eps * rule.points[None, :, :]
    vals = f(nodes.reshape(m * k, rule.dim)).reshape(m, k)
    base = f(x)
    return (vals - base[:, None]) @ rule.weights


@dataclass(frozen=True)
class LimitCheck:
    """Result of comparing delta_eps f / eps^2 against Delta f / (2n)."""

    epsilons: np.ndarray
    target: float
    errors: np.ndarray
    fitted_order: float


def delta_epsilon_limit_check(f, laplacian_value, x, epsilons, rule):
    """Fit the convergence order of delta_eps f / eps^2 -> Delta f / (2n).

    laplacian_value is Delta f at x (caller-supplied); x is a single point.
    The order is the slope of log error against log eps over the given
    epsilons (at least three required).
    """
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.size < 3:
        raise DomainError("need at least three epsilons to fit an order")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    target = float(laplacian_value) / (2.0 * rule.dim)
    vals = np.array([float(delta_epsilon(f, x, e, rule)[0]) / e ** 2
                     for e in epsilons])
    errors = np.abs(vals - target)
    mask = errors > 1e-15 * max(1.0, abs(target))
    if mask.sum() >= 2:
        slope = np.polyfit(np.log(epsilons[mask]), np.log(errors[mask]), 1)[0]
    else:
        slope = np.inf  # errors at roundoff: the limit is exact
    return LimitCheck(epsilons=epsilons, target=target, errors=errors,
                      fitted_order=float(slope))


def delta_epsilon_bound_rhs(ell, dim, eps):
    """Transfer of Delta f <= ell to the sphere average: (ell/n) eps^2 / 2."""
    return (float(ell) / float(dim)) * eps ** 2 / 2.0


def symmetric_eigenvalues(S):
    """Ascending eigenvalues of stacked symmetric matrices S (..., n, n).

    At n = 2 they take the closed form mid -+ hypot(h, b), with mid and h
    the half-sum and half-difference of the diagonal and b the lower
    off-diagonal entry (the triangle np.linalg.eigvalsh reads), so a stack
    costs a few elementwise passes instead of one LAPACK call per matrix.
    Every other n goes to np.linalg.eigvalsh.
    """
    S = np.asarray(S, dtype=float)
    if S.shape[-1] != 2:
        return np.linalg.eigvalsh(S)
    a, b, c = S[..., 0, 0], S[..., 1, 0], S[..., 1, 1]
    mid = 0.5 * (a + c)
    r = np.hypot(0.5 * (a - c), b)
    return np.stack([mid - r, mid + r], axis=-1)


@dataclass(frozen=True)
class MapStatistics:
    """Statistics of the symmetrized Jacobian at probe points.

    All four statistics come from one symmetric-part eigendecomposition;
    the asymmetric part's norm is kept as a quality diagnostic only.
    """

    trace: np.ndarray
    operator_norm: np.ndarray
    min_eigenvalue: np.ndarray
    determinant: np.ndarray
    asymmetry: np.ndarray


def map_statistics(transport_map, x):
    """Evaluate MapStatistics for a map (anything with .jacobian) at x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    jac = transport_map.jacobian if hasattr(transport_map, "jacobian") else transport_map
    J = np.asarray(jac(x), dtype=float)
    if J.ndim == 2:
        J = J[None, :, :]
    S = 0.5 * (J + np.swapaxes(J, -1, -2))
    A = 0.5 * (J - np.swapaxes(J, -1, -2))
    evals = symmetric_eigenvalues(S)
    return MapStatistics(
        trace=evals.sum(axis=-1),
        operator_norm=np.abs(evals).max(axis=-1),
        min_eigenvalue=evals[:, 0],
        determinant=evals.prod(axis=-1),
        asymmetry=np.linalg.norm(A, axis=(-2, -1)),
    )
