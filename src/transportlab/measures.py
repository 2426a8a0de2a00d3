"""Probability measures with convexity bookkeeping.

A Density bundles vectorized evaluators for log rho, its gradient and
Hessian, together with a ConvexityCertificate recording the source-side
constant alpha (Laplacian of the potential V = -log rho bounded by alpha*n)
and the target-side constant kappa (Hessian of V bounded below by kappa*Id).

Evaluator contract: log_density maps (m, n) -> (m,), grad_log maps
(m, n) -> (m, n), hess_log maps (m, n) -> (m, n, n). Missing derivative
evaluators fall back to central finite differences with step
eps^(1/3) * (1 + |x_i|) per axis. Densities are immutable after
construction; derived quantities are cached, never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import AccuracyError, CertificateConflictError, DomainError

_FD_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)
_HESS_SYM_TOL = 1e-8


@dataclass(frozen=True)
class ConvexityCertificate:
    """Declared convexity constants with their provenance.

    alpha bounds the potential's Laplacian (Delta V <= alpha * dim);
    kappa bounds the potential's Hessian from below (hess V >= kappa * Id).
    Sampled certificates keep the probe set and the empirical worst case;
    the empirical worst case never violates the declared constant.
    """

    alpha: float | None
    kappa: float | None
    provenance: str  # "analytic" or "sampled"
    probe_count: int = 0
    probe_seed: int | None = None
    empirical_alpha: float | None = None
    empirical_kappa: float | None = None

    def __post_init__(self):
        if self.provenance not in ("analytic", "sampled"):
            raise DomainError(f"unknown certificate provenance {self.provenance!r}")
        if self.empirical_alpha is not None and self.alpha is not None:
            if self.empirical_alpha > self.alpha * (1 + 1e-9) + 1e-12:
                raise CertificateConflictError(
                    f"probed alpha {self.empirical_alpha} exceeds declared "
                    f"{self.alpha}")
        if self.empirical_kappa is not None and self.kappa is not None:
            if self.empirical_kappa < self.kappa * (1 - 1e-9) - 1e-12:
                raise CertificateConflictError(
                    f"probed kappa {self.empirical_kappa} is below declared "
                    f"{self.kappa}")

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "kappa": self.kappa,
            "provenance": self.provenance,
            "probe_count": self.probe_count,
            "probe_seed": self.probe_seed,
            "empirical_alpha": self.empirical_alpha,
            "empirical_kappa": self.empirical_kappa,
        }


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
    def cube(cls, dim, half_width, center=0.0):
        return cls(np.full(dim, float(center)), np.full(dim, float(half_width)))

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
        axes = self.axis_nodes(points_per_axis)
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)

    def interior_grid(self, points_per_axis, margin_cells=1):
        axes = [a[margin_cells:points_per_axis - margin_cells]
                for a in self.axis_nodes(points_per_axis)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)

    def sample_uniform(self, count, rng):
        return quadrature.stratified_uniform(self, count, rng)

    def scaled(self, factor):
        return TruncationBox(self.center, self.half_widths * float(factor))

    def to_dict(self):
        return {"center": self.center.tolist(),
                "half_widths": self.half_widths.tolist()}


def _fd_grad(fn, x):
    x = np.atleast_2d(x)
    m, n = x.shape
    out = np.empty((m, n))
    for i in range(n):
        h = _FD_EPS * (1.0 + np.abs(x[:, i]))
        xp = x.copy()
        xm = x.copy()
        xp[:, i] += h
        xm[:, i] -= h
        out[:, i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return out


def _fd_hess(fn, x):
    x = np.atleast_2d(x)
    m, n = x.shape
    out = np.empty((m, n, n))
    f0 = fn(x)
    steps = [np.sqrt(_FD_EPS) * (1.0 + np.abs(x[:, i])) for i in range(n)]
    for i in range(n):
        hi = steps[i]
        xp = x.copy(); xp[:, i] += hi
        xm = x.copy(); xm[:, i] -= hi
        out[:, i, i] = (fn(xp) - 2.0 * f0 + fn(xm)) / hi ** 2
        for j in range(i + 1, n):
            hj = steps[j]
            xpp = x.copy(); xpp[:, i] += hi; xpp[:, j] += hj
            xpm = x.copy(); xpm[:, i] += hi; xpm[:, j] -= hj
            xmp = x.copy(); xmp[:, i] -= hi; xmp[:, j] += hj
            xmm = x.copy(); xmm[:, i] -= hi; xmm[:, j] -= hj
            val = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4.0 * hi * hj)
            out[:, i, j] = val
            out[:, j, i] = val
    return out


class Density:
    """Immutable density on R^n; see module docstring for the contract."""

    def __init__(self, dim, log_density, grad_log=None, hess_log=None,
                 normalized=False, log_partition=None, support_note="full_space",
                 certificate=None, sampler=None, singular_tube=None,
                 radial_profile=None, center=None, kind="custom", params=None,
                 family=None):
        self.dim = int(dim)
        self._log_density = log_density
        self._grad_log = grad_log
        self._hess_log = hess_log
        self.normalized = bool(normalized)
        self.log_partition = (0.0 if normalized and log_partition is None
                              else log_partition)
        self.support_note = support_note
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

    def grad_log(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self._grad_log is not None:
            return np.asarray(self._grad_log(x), dtype=float)
        return _fd_grad(self.logpdf, x)

    def hess_log(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self._hess_log is not None:
            H = np.asarray(self._hess_log(x), dtype=float)
        else:
            H = _fd_hess(self.logpdf, x)
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
        return np.linalg.eigvalsh(-H)[:, 0]

    def mass_on(self, box, order=48, panels=4):
        """integral of the (normalized) density over the box."""
        if not self.normalized:
            raise DomainError("mass_on needs a normalized density")
        return quadrature.integrate_box(self.pdf, box, order=order, panels=panels)

    def compute_log_partition(self, box, order=48, panels=4):
        """log integral exp(log_density) over the box (Lebesgue).

        Tensor Gauss-Legendre in dim <= 2; above, a DomainError.
        """
        if self.dim > 2:
            raise DomainError("the partition tensor rule needs dim <= 2")
        probes = box.grid(9)
        if self.singular_tube is not None:
            probes = probes[~self.singular_tube(probes)]
        shift = float(np.max(self.logpdf(probes)))
        val = quadrature.integrate_box(
            lambda p: np.exp(self.logpdf(p) - shift), box,
            order=order, panels=panels)
        return float(np.log(val) + shift)

    def normalized_on(self, box, order=48, panels=4):
        """New Density with the box partition constant folded in."""
        return self.normalized_with(self.compute_log_partition(
            box, order=order, panels=panels))

    def normalized_with(self, logz):
        """New Density with the log partition constant `logz` folded in."""
        return Density(
            self.dim,
            lambda x, _lz=logz: self._log_density(x) - _lz,
            grad_log=self._grad_log, hess_log=self._hess_log,
            normalized=True, log_partition=0.0,
            support_note=self.support_note, certificate=self.certificate,
            sampler=self.sampler, singular_tube=self.singular_tube,
            radial_profile=(None if self.radial_profile is None else
                            lambda r, _lz=logz: self.radial_profile(r) * np.exp(-_lz)),
            center=self.center, kind=self.kind,
            params={**self.params, "log_partition_folded": logz},
            family=None if self.family is None else self.family.shifted(-logz))


# ---------------------------------------------------------------------------
# constructors


def gaussian(mean, cov):
    """Gaussian density with analytic derivatives and certificate.

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
        return const - 0.5 * np.einsum("mi,ij,mj->m", d, prec, d)

    def grad_log(x):
        return -(x - mean) @ prec

    def hess_log(x):
        return np.broadcast_to(-prec, (x.shape[0], n, n)).copy()

    def sampler(rng, size):
        return mean + rng.standard_normal((size, n)) @ chol.T

    prec_evals = 1.0 / evals
    cert = ConvexityCertificate(alpha=float(np.sum(prec_evals) / n),
                                kappa=float(prec_evals.min()),
                                provenance="analytic")
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

    return Density(n, log_density, grad_log, hess_log, normalized=True,
                   support_note="full_space", certificate=cert, sampler=sampler,
                   radial_profile=radial, center=mean, kind="gaussian",
                   params={"mean": mean, "cov": cov}, family=family)


def check_certificate(density, box, probes=128, seed=1234, rtol=1e-6):
    """Probe a declared certificate; conflicts raise CertificateConflictError."""
    cert = density.certificate
    if cert is None:
        raise DomainError("density has no certificate to check")
    rng = np.random.default_rng(seed)
    pts = box.sample_uniform(probes, rng)
    if density.singular_tube is not None:
        pts = pts[~density.singular_tube(pts)]
    lap = density.potential_laplacian(pts)
    mineig = density.potential_hessian_min_eig(pts)
    if cert.alpha is not None:
        worst = float(lap.max()) / density.dim
        if worst > cert.alpha * (1 + rtol) + 1e-12:
            raise CertificateConflictError(
                f"probed alpha {worst} exceeds declared {cert.alpha}")
    if cert.kappa is not None:
        worst = float(mineig.min())
        if worst < cert.kappa * (1 - rtol) - 1e-12:
            raise CertificateConflictError(
                f"probed kappa {worst} is below declared {cert.kappa}")
    return True


def estimate_certificate(density, box, probes=512, seed=1234):
    """Sampled ConvexityCertificate from a stratified probe set.

    Probes inside a configured tube around singular sets are excluded.
    The declared constants equal the empirical worst case.
    """
    rng = np.random.default_rng(seed)
    grid_side = max(2, int(round(probes ** (1.0 / density.dim) / 2)))
    pts = [box.grid(grid_side)] if grid_side ** density.dim <= probes else []
    used = sum(p.shape[0] for p in pts)
    if probes - used > 0:
        pts.append(box.sample_uniform(probes - used, rng))
    pts = np.concatenate(pts, axis=0)
    if density.singular_tube is not None:
        pts = pts[~density.singular_tube(pts)]
    if pts.shape[0] == 0:
        raise DomainError("no probe points survive the singular-tube filter")
    lap = density.potential_laplacian(pts)
    mineig = density.potential_hessian_min_eig(pts)
    alpha = float(lap.max()) / density.dim
    kappa = float(mineig.min())
    return ConvexityCertificate(alpha=alpha, kappa=kappa, provenance="sampled",
                                probe_count=pts.shape[0], probe_seed=seed,
                                empirical_alpha=alpha, empirical_kappa=kappa)
