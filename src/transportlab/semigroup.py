"""Gaussian smoothing semigroups and their convexity transfer.

One kernel does all the work: H_s f(x) = E_{N(x, s Id)}[f]. The
Ornstein-Uhlenbeck action is the change of variables

    P_t f(x) = H_{1 - e^{-2t}} f(e^{-t} x),

so both kinds share one implementation. Evaluation routes:

  closed_form     f is a PolyExp, or a Density with a polynomial-Gaussian
                  family; exact values and log-derivatives.
  gauss_hermite   any other f in dim <= 2 (above, a DomainError): tensor
                  Gauss-Hermite through derivative-free score identities,
                  accepted when twice the order agrees to CHECK_RTOL.
                  f runs over blocks of whole probes, as many as fit in
                  quadrature.EVAL_ROWS points (one probe at a time when
                  its rule is larger), and the rule's sums run on all
                  probes at once.

Transfer facts (s = 1 - e^{-2t}, a = e^{-t} for the OU kind; s = t, a = 1
for heat), checked for the OU kind by check_smoothing_bounds:

  unconditional   hess log P_t f >= -(a^2/s) Id
  log_concave     hess log f <= c Id  =>  hess log P_t f <= c a^2/(1-cs) Id,
                  valid while 1 - cs > 0 (a finite time window when c > 1)
  log_convex      hess log f >= c Id  =>  same expression as a lower bound
  log_subharmonic Delta log f >= c n  =>  Delta log P_t f >= c n a^2/(1-cs)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quadrature
from .errors import AccuracyError, DomainError
from .measures import (ConvexityCertificate, Density, TruncationBox,
                       check_certificate)
from .polyexp import PolyExp
from .verify import make_certificate

CHECK_RTOL = 1e-7  # Gauss-Hermite order-doubling acceptance
_GH_ORDER = 64     # the Gauss-Hermite order, checked against twice itself


class SemigroupKind(str, Enum):
    ORNSTEIN_UHLENBECK = "ornstein_uhlenbeck"
    HEAT = "heat"


def kernel_params(kind, t):
    """(a, s) with P_t f(x) = H_s f(a x)."""
    t = float(t)
    if t < 0:
        raise DomainError("time must be nonnegative")
    if kind == SemigroupKind.HEAT or kind == "heat":
        return 1.0, t
    if kind == SemigroupKind.ORNSTEIN_UHLENBECK or kind == "ornstein_uhlenbeck":
        return float(np.exp(-t)), float(-np.expm1(-2.0 * t))
    raise DomainError(f"unknown semigroup kind {kind!r}")


@dataclass(frozen=True)
class SemigroupEvaluation:
    value: np.ndarray
    grad_log: np.ndarray
    hess_log: np.ndarray
    method: str
    kind: str
    t: float


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


def apply(kind, f, t, x, method="auto"):
    """Evaluate P_t f (or H_t f) with log-derivatives at points x.

    method "auto" takes the closed form when f has a family, else
    Gauss-Hermite, whose error estimate is the order-doubling gap.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a, s = kernel_params(kind, t)
    kind_str = kind.value if isinstance(kind, SemigroupKind) else str(kind)
    family = _family_of(f)

    if method == "auto":
        method = "closed_form" if family is not None else "gauss_hermite"

    if method == "closed_form":
        if family is None:
            raise DomainError("closed form needs a polynomial-Gaussian family")
        logv, grad, hess = family.smoothed_log_derivs(a * x, s)
        return SemigroupEvaluation(np.exp(logv), a * grad, a * a * hess,
                                   "closed_form", kind_str, float(t))

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
    return SemigroupEvaluation(val2, grad2, hess2, "gauss_hermite",
                               kind_str, float(t))


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
# smoothing-bound certificates


def smoothing_rhs(klass, c, kind, t):
    """Theoretical matrix/trace coefficient for the smoothing bounds."""
    a, s = kernel_params(kind, t)
    if s == 0.0:
        raise DomainError("bounds need t > 0")
    if klass == "unconditional":
        return -(a * a) / s
    if c is None:
        raise DomainError(f"class {klass!r} needs the constant c")
    denom = 1.0 - c * s
    if denom <= 0:
        raise DomainError(
            f"the {klass} transfer is valid only while 1 - c s > 0; "
            f"got c={c}, s={s} (finite time window for c > 1)")
    return c * a * a / denom


def check_smoothing_bounds(f, klass, t, probes, c=None):
    """Certificate for one smoothing bound of the Ornstein-Uhlenbeck
    semigroup on the probe set.

    klass is one of unconditional, log_concave, log_convex,
    log_subharmonic. Lower bounds are recorded with both sides negated
    (see verify module docstring).
    """
    kind = SemigroupKind.ORNSTEIN_UHLENBECK
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    ev = apply(kind, f, t, probes)
    rhs_coeff = smoothing_rhs(klass, c, kind, t)
    evals = np.linalg.eigvalsh(ev.hess_log)
    prov = {"solver": f"semigroup_{ev.method}", "kind": ev.kind, "t": float(t),
            "class": klass, "c": c}
    if klass == "log_concave":
        observed = float(evals[:, -1].max())
        return make_certificate("smoothing_hessian_upper", rhs_coeff, observed,
                                0.0, prov, probes.shape[0])
    if klass in ("unconditional", "log_convex"):
        observed = float((-evals[:, 0]).max())
        name = ("smoothing_hessian_lower" if klass == "unconditional"
                else "smoothing_hessian_lower_convex")
        return make_certificate(name, -rhs_coeff, observed, 0.0, prov,
                                probes.shape[0],
                                details={"negated_lower_bound": True})
    if klass == "log_subharmonic":
        trace = evals.sum(axis=1)
        observed = float((-trace).max())
        n = probes.shape[1]
        return make_certificate("smoothing_trace_lower", -rhs_coeff * n,
                                observed, 0.0, prov, probes.shape[0],
                                details={"negated_lower_bound": True})
    raise DomainError(f"unknown smoothing class {klass!r}")


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
    kind = SemigroupKind.ORNSTEIN_UHLENBECK

    def smooth_density(dens, mix_quadratic):
        def log_density(x, _d=dens):
            ev = apply(kind, _d, t, x)
            out = np.log(ev.value)
            if mix_quadratic:
                out = lam * out - t * 0.5 * alpha * np.einsum("mi,mi->m", x, x)
            return out

        def hess_log(x, _d=dens):
            ev = apply(kind, _d, t, x)
            h = ev.hess_log
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
