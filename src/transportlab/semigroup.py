"""The Ornstein-Uhlenbeck smoothing semigroup and its curvature floor.

One kernel does all the work: H_s f(x) = E_{N(x, s Id)}[f]. The
Ornstein-Uhlenbeck semigroup is the change of variables

    P_t f(x) = H_s f(a x),   a = e^{-t},  s = 1 - e^{-2t}.

Evaluation routes:

  closed_form     f is a PolyExp, or a Density with a polynomial-Gaussian
                  family; exact values and log-derivatives.
  gauss_hermite   any other f in dim <= 2 (above, a DomainError): tensor
                  Gauss-Hermite through derivative-free score identities,
                  accepted when twice the order agrees to CHECK_RTOL.
                  f runs over blocks of whole probes, as many as fit in
                  quadrature.EVAL_ROWS points (one probe at a time when
                  its rule is larger), and the rule's sums run on all
                  probes at once.

Smoothing holds every positive f to one curvature floor,

    hess log P_t f >= -(a^2/s) Id,

which check_smoothing_bounds certifies on a probe set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus, quadrature
from .errors import AccuracyError, DomainError
from .measures import (ConvexityCertificate, Density, TruncationBox,
                       check_certificate)
from .polyexp import PolyExp
from .verify import make_certificate

CHECK_RTOL = 1e-7  # Gauss-Hermite order-doubling acceptance
_GH_ORDER = 64     # the Gauss-Hermite order, checked against twice itself


def kernel_params(t):
    """(a, s) with P_t f(x) = H_s f(a x)."""
    t = float(t)
    if t < 0:
        raise DomainError("time must be nonnegative")
    return float(np.exp(-t)), float(-np.expm1(-2.0 * t))


@dataclass(frozen=True)
class SemigroupEvaluation:
    value: np.ndarray
    log_smoothed: np.ndarray
    grad_log: np.ndarray
    hess_log: np.ndarray
    method: str


def _as_callable(f):
    if isinstance(f, PolyExp):
        return lambda pts: f.value(pts)
    if isinstance(f, Density):
        return lambda pts: np.exp(f.logpdf(pts))
    return f


def _family_of(f):
    if isinstance(f, PolyExp):
        return f
    if isinstance(f, Density) and f.family is not None:
        return f.family
    return None


def apply(f, t, x, method="auto"):
    """Evaluate P_t f with its log and log-derivatives at points x.

    method "auto" takes the closed form when f has a family, else
    Gauss-Hermite, whose error estimate is the order-doubling gap.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a, s = kernel_params(t)
    family = _family_of(f)

    if method == "auto":
        method = "closed_form" if family is not None else "gauss_hermite"

    if method == "closed_form":
        if family is None:
            raise DomainError("closed form needs a polynomial-Gaussian family")
        logv, grad, hess = family.smoothed_log_derivs(a * x, s)
        return SemigroupEvaluation(np.exp(logv), logv, a * grad,
                                   a * a * hess, "closed_form")

    fn = _as_callable(f)
    if s == 0.0:
        raise DomainError("t = 0 needs the closed form (derivatives of f)")

    if method != "gauss_hermite":
        raise DomainError(f"unknown evaluation method {method!r}")
    if x.shape[1] > 2:
        raise DomainError("tensor Gauss-Hermite is limited to dim <= 2")
    val, grad, hess = _gh_eval(fn, x, a, s, _GH_ORDER)
    val2, grad2, hess2 = _gh_eval(fn, x, a, s, 2 * _GH_ORDER)
    num = np.abs(val - val2).max() + np.abs(hess - hess2).max()
    den = max(np.abs(val2).max(), 1e-300)
    err = float(num / den + np.abs(grad - grad2).max()
                / max(1.0, np.abs(grad2).max()))
    if err > CHECK_RTOL:
        raise AccuracyError(
            f"Gauss-Hermite order-doubling check failed ({err:.2e})",
            estimate=err)
    return SemigroupEvaluation(val2, np.log(val2), grad2, hess2,
                               "gauss_hermite")


def _gh_eval(fn, x, a, s, order):
    """Derivative-free evaluation through Gaussian score identities.

    With u = a x + sqrt(s) y, y ~ N(0, Id), each expectation taken by the
    tensor Gauss-Hermite rule of the given order:
      P f(x)        = E[f(u)]
      grad P f(x)   = (a/sqrt(s)) E[y f(u)]
      hess P f(x)   = (a^2/s) E[(y y^T - Id) f(u)]
    """
    n = x.shape[1]
    y, w = quadrature.gauss_hermite(n, order)
    k = y.shape[0]
    shift = np.sqrt(s) * y[None, :, :]

    def probe_vals(xb):
        pts = (a * xb)[:, None, :] + shift
        return fn(pts.reshape(-1, n)).reshape(-1, k)

    vals = quadrature.blockwise(probe_vals, x,
                                rows=max(1, quadrature.EVAL_ROWS // k))
    P = vals @ w
    if np.any(P <= 0):
        raise DomainError("semigroup value is not positive at a probe")
    wy = y * w[:, None]
    G = (a / np.sqrt(s)) * (vals @ wy)                     # (m, n)
    yy = np.einsum("ki,kj->kij", y, y) - np.eye(n)[None, :, :]
    wyy = w[:, None] * yy.reshape(k, -1)                   # (k, n n)
    H = (a * a / s) * (vals @ wyy).reshape(-1, n, n)
    grad_log = G / P[:, None]
    hess_log = H / P[:, None, None] - np.einsum("mi,mj->mij", grad_log, grad_log)
    return P, grad_log, hess_log


# ---------------------------------------------------------------------------
# the curvature-floor certificate


def check_smoothing_bounds(f, t, probes):
    """Certificate for the curvature floor hess log P_t f >= -(a^2/s) Id
    on the probe set, recorded with both sides negated (see verify module
    docstring)."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    a, s = kernel_params(t)
    if s == 0.0:
        raise DomainError("bounds need t > 0")
    ev = apply(f, t, probes)
    evals = calculus.symmetric_eigenvalues(ev.hess_log)
    observed = float((-evals[:, 0]).max())
    prov = {"solver": f"semigroup_{ev.method}", "t": float(t)}
    return make_certificate("smoothing_hessian_lower", a * a / s, observed,
                            0.0, prov, probes.shape[0],
                            details={"negated_lower_bound": True})


# ---------------------------------------------------------------------------
# mollification


@dataclass(frozen=True)
class MollifiedPair:
    k: int
    source: Density
    target: Density
    kappa_k: float
    alpha: float


def mollified_kappa(kappa, k):
    """Strong convexity constant surviving time-1/k smoothing."""
    e = np.exp(-2.0 / k)
    return float(kappa * e / (1.0 + kappa * (1.0 - e)))


def mollify(mu, nu, alpha, kappa, k, validation_box=None, probes=64):
    """Smooth a source/target pair for time 1/k along the OU semigroup.

    Source: V_k = (1 - 1/k)(-log P_{1/k} e^{-V}) + (1/k) alpha |x|^2 / 2,
    which keeps Delta V_k <= alpha n. Target: W_k = -log P_{1/k} e^{-W},
    which is kappa_k-strongly convex with
    kappa_k = kappa e^{-2/k} / (1 + kappa (1 - e^{-2/k})).
    Both certificates are probed on `validation_box` (default the cube of
    half-width 3) before the pair is returned.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    t = 1.0 / float(k)
    lam = 1.0 - t

    def smooth_density(dens, mix_quadratic):
        def log_density(x, _d=dens):
            out = apply(_d, t, x).log_smoothed
            if mix_quadratic:
                out = lam * out - t * 0.5 * alpha * np.einsum("mi,mi->m", x, x)
            return out

        def hess_log(x, _d=dens):
            h = apply(_d, t, x).hess_log
            if mix_quadratic:
                h = lam * h - t * alpha * np.eye(x.shape[1])[None, :, :]
            return h

        return log_density, hess_log

    src_log, src_hess = smooth_density(mu, True)
    tgt_log, tgt_hess = smooth_density(nu, False)
    kappa_k = mollified_kappa(kappa, k)
    src_cert = ConvexityCertificate(alpha=alpha, kappa=None)
    tgt_cert = ConvexityCertificate(alpha=None, kappa=kappa_k)
    source = Density(mu.dim, src_log, hess_log=src_hess, normalized=False,
                     certificate=src_cert, center=mu.center,
                     kind="mollified_source")
    target = Density(nu.dim, tgt_log, hess_log=tgt_hess, normalized=False,
                     certificate=tgt_cert, center=nu.center,
                     kind="mollified_target")
    pair = MollifiedPair(k=int(k), source=source, target=target,
                         kappa_k=kappa_k, alpha=float(alpha))
    box = validation_box or TruncationBox.cube(mu.dim, 3.0)
    check_certificate(source, box, probes=probes, seed=99)
    check_certificate(target, box, probes=probes, seed=99)
    return pair
