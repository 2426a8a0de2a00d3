"""Probability measures with convexity bookkeeping.

A Density bundles vectorized evaluators for log rho and its Hessian,
together with a ConvexityCertificate recording the source-side constant
alpha (Laplacian of the potential V = -log rho bounded by alpha*n) and the
target-side constant kappa (Hessian of V bounded below by kappa*Id). Every
check reads log rho or the Hessian, so a density carries no gradient.

Evaluator contract: log_density maps (m, n) -> (m,), hess_log maps
(m, n) -> (m, n, n); every evaluator after log_density is passed by
keyword. The Hessian is the caller's to supply: asking a density built
without one for it raises DomainError; there is no finite-difference
fallback. Densities are immutable after construction; derived quantities
are cached, never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus, quadrature
from .errors import AccuracyError, CertificateConflictError, DomainError

_HESS_SYM_TOL = 1e-8


@dataclass(frozen=True)
class ConvexityCertificate:
    """Declared convexity constants, each derived analytically.

    alpha bounds the potential's Laplacian (Delta V <= alpha * dim);
    kappa bounds the potential's Hessian from below (hess V >= kappa * Id).
    """

    alpha: float | None
    kappa: float | None


@dataclass(frozen=True)
class TruncationBox:
    """Axis-aligned working box for quadrature, grids and probe sets."""

    center: np.ndarray
    half_widths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center",
                           np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "half_widths",
                           np.atleast_1d(np.asarray(self.half_widths, dtype=float)))
        if self.center.shape != self.half_widths.shape:
            raise DomainError("box center and half_widths disagree in shape")
        if np.any(self.half_widths <= 0):
            raise DomainError("box half_widths must be positive")

    @classmethod
    def cube(cls, dim, half_width):
        """The cube of half-width `half_width` centered at the origin."""
        return cls(np.zeros(dim), np.full(dim, float(half_width)))

    @property
    def dim(self):
        return self.center.size

    @property
    def lower(self):
        return self.center - self.half_widths

    @property
    def upper(self):
        return self.center + self.half_widths

    def contains(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all(np.abs(x - self.center) <= self.half_widths, axis=1)

    def axis_nodes(self, points_per_axis):
        return [np.linspace(lo, hi, points_per_axis)
                for lo, hi in zip(self.lower, self.upper)]

    def grid(self, points_per_axis):
        """Full tensor grid, shape (points_per_axis**dim, dim)."""
        return quadrature.tensor_grid(self.axis_nodes(points_per_axis))

    def interior_grid(self, points_per_axis):
        """The tensor grid without its boundary nodes."""
        return quadrature.tensor_grid(
            [a[1:points_per_axis - 1]
             for a in self.axis_nodes(points_per_axis)])

    def sample_uniform(self, count, rng):
        return quadrature.stratified_uniform(self, count, rng)

    def to_dict(self):
        return {"center": self.center.tolist(),
                "half_widths": self.half_widths.tolist()}


class Density:
    """Immutable density on R^n; see module docstring for the contract.

    `params` holds constructor data a solver reads back; only gaussian()
    sets it, with the mean and covariance that solve_gaussian reads.
    """

    def __init__(self, dim, log_density, *, hess_log=None, normalized=False,
                 certificate=None, sampler=None, singular_tube=None,
                 radial_profile=None, center=None, kind="custom",
                 params=None, family=None):
        self.dim = int(dim)
        self._log_density = log_density
        self._hess_log = hess_log
        self.normalized = bool(normalized)
        self.certificate = certificate
        self.sampler = sampler            # sampler(rng, size) -> (size, dim)
        self.singular_tube = singular_tube  # (m, dim) -> bool mask of bad rows
        self.radial_profile = radial_profile  # r -> density value
        self.center = (np.zeros(self.dim) if center is None
                       else np.asarray(center, dtype=float))
        self.kind = kind
        self.params = dict(params or {})
        # optional exact polynomial-times-Gaussian form of the (unnormalized)
        # density value; unlocks closed-form semigroup smoothing
        self.family = family

    # evaluators ------------------------------------------------------------

    def logpdf(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise DomainError(f"points have dim {x.shape[1]}, density has {self.dim}")
        return np.asarray(self._log_density(x), dtype=float)

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def hess_log(self, x):
        if self._hess_log is None:
            raise DomainError(f"{self.kind} density has no Hessian evaluator")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        H = np.asarray(self._hess_log(x), dtype=float)
        asym = np.abs(H - np.swapaxes(H, -1, -2)).max()
        scale = max(1.0, float(np.abs(H).max()))
        if asym > _HESS_SYM_TOL * scale:
            raise AccuracyError(
                f"Hessian asymmetry {asym:.3e} exceeds tolerance", estimate=asym)
        return 0.5 * (H + np.swapaxes(H, -1, -2))

    # derived ---------------------------------------------------------------

    def potential_laplacian(self, x):
        """Delta V with V = -log rho, per probe point."""
        H = self.hess_log(x)
        return -np.trace(H, axis1=-2, axis2=-1)

    def potential_hessian_min_eig(self, x):
        H = self.hess_log(x)
        return calculus.symmetric_eigenvalues(-H)[:, 0]


# ---------------------------------------------------------------------------
# constructors


def gaussian(mean, cov):
    """Gaussian density with analytic Hessian and certificate.

    The certificate records alpha = trace(cov^-1)/n (the potential's
    Laplacian is constant) and kappa = lambda_min(cov^-1).
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    n = mean.size
    if cov.shape != (n, n):
        raise DomainError("covariance shape does not match the mean")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise DomainError("covariance must be symmetric")
    evals, evecs = np.linalg.eigh(cov)
    if evals.min() <= 0:
        raise DomainError("covariance must be positive definite")
    prec = (evecs / evals) @ evecs.T
    logdet = float(np.sum(np.log(evals)))
    const = -0.5 * n * np.log(2.0 * np.pi) - 0.5 * logdet
    chol = np.linalg.cholesky(cov)

    def log_density(x):
        d = x - mean
        return const - 0.5 * np.einsum("mi,mi->m", d @ prec, d)

    def hess_log(x):
        return np.broadcast_to(-prec, (x.shape[0], n, n)).copy()

    def sampler(rng, size):
        return mean + rng.standard_normal((size, n)) @ chol.T

    prec_evals = 1.0 / evals
    cert = ConvexityCertificate(alpha=float(np.sum(prec_evals) / n),
                                kappa=float(prec_evals.min()))
    from .polyexp import PolyExp
    pm = prec @ mean
    family = PolyExp.quadratic_exponent(
        n, B=prec, b=pm, c=const - 0.5 * float(mean @ pm))
    radial = None
    if np.allclose(cov, evals.mean() * np.eye(n), atol=1e-14 * max(1.0, evals.max())):
        sig2 = float(evals.mean())

        def radial(r, _s=sig2, _n=n):
            r = np.asarray(r, dtype=float)
            return np.exp(-0.5 * r ** 2 / _s) / (2.0 * np.pi * _s) ** (_n / 2.0)

    return Density(n, log_density, hess_log=hess_log, normalized=True,
                   certificate=cert, sampler=sampler,
                   radial_profile=radial, center=mean, kind="gaussian",
                   params={"mean": mean, "cov": cov}, family=family)


def check_certificate(density, box, probes=128, seed=1234):
    """Probe a declared certificate; conflicts raise CertificateConflictError."""
    cert = density.certificate
    if cert is None:
        raise DomainError("density has no certificate to check")
    rng = np.random.default_rng(seed)
    pts = box.sample_uniform(probes, rng)
    if density.singular_tube is not None:
        pts = pts[~density.singular_tube(pts)]
    # one Hessian serves both constants: Delta V = -tr H, and the potential
    # Hessian -H has the smallest eigenvalue kappa bounds
    H = density.hess_log(pts)
    if cert.alpha is not None:
        worst = float((-np.trace(H, axis1=-2, axis2=-1)).max()) / density.dim
        if worst > cert.alpha * (1 + 1e-6) + 1e-12:
            raise CertificateConflictError(
                f"probed alpha {worst} exceeds declared {cert.alpha}")
    if cert.kappa is not None:
        worst = float(calculus.symmetric_eigenvalues(-H)[:, 0].min())
        if worst < cert.kappa * (1 - 1e-6) - 1e-12:
            raise CertificateConflictError(
                f"probed kappa {worst} is below declared {cert.kappa}")
    return True
