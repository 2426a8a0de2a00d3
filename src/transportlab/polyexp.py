"""Polynomial-times-Gaussian-exponent functions and their exact Gaussian
smoothing.

A PolyExp is a finite mixture  f(x) = sum_k q_k(x) exp(c_k + b_k.x - x.B_k.x/2)
with real polynomials q_k. The class supports exact evaluation of

    (H_s f)(loc) = E_{u ~ N(loc, s Id)}[f(u)]

together with gradient and Hessian of log H_s f in loc, which is what the
semigroup and flow modules consume. The reduction is the standard Gaussian
conjugation: completing the square gives a new Gaussian N(m, M^{-1}) with
M = B + Id/s, and polynomial factors reduce to Gaussian moments evaluated
with the recursion E[u^a] = m_i E[u^{a-e_i}] + sum_j C_ij (a-e_i)_j
E[u^{a-e_i-e_j}].

Polynomials are dicts mapping exponent tuples to float coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DomainError

# ---------------------------------------------------------------------------
# dict-backed polynomials


def poly_eval(poly, x):
    """Evaluate a dict polynomial at points x of shape (m, n)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[0])
    for expo, coeff in poly.items():
        term = np.full(x.shape[0], float(coeff))
        for axis, e in enumerate(expo):
            if e:
                term = term * x[:, axis] ** e
        out += term
    return out


def poly_deriv(poly, axis):
    out = {}
    for expo, coeff in poly.items():
        e = expo[axis]
        if e == 0:
            continue
        new = list(expo)
        new[axis] = e - 1
        key = tuple(new)
        out[key] = out.get(key, 0.0) + coeff * e
    return out


def poly_degree(poly):
    return max((sum(e) for e in poly), default=0)


def poly_scale(poly, factor):
    return {e: c * factor for e, c in poly.items()}


def gaussian_poly_expectations(polys, mean, cov):
    """E_{N(mean_i, cov)}[q] for each dict polynomial q and each mean row.

    mean: (m, n); cov: (n, n). Returns list of (m,) arrays. Moments are
    shared across the polynomial list through one cache.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    m, n = mean.shape
    cache = {tuple([0] * n): np.ones(m)}

    def moment(alpha):
        got = cache.get(alpha)
        if got is not None:
            return got
        i = next(j for j, a in enumerate(alpha) if a > 0)
        beta = list(alpha)
        beta[i] -= 1
        beta_t = tuple(beta)
        val = mean[:, i] * moment(beta_t)
        for j in range(n):
            if beta[j] > 0:
                gamma = list(beta)
                gamma[j] -= 1
                val = val + cov[i, j] * beta[j] * moment(tuple(gamma))
        cache[alpha] = val
        return val

    results = []
    for q in polys:
        acc = np.zeros(m)
        for expo, coeff in q.items():
            acc = acc + coeff * moment(expo)
        results.append(acc)
    return results


# ---------------------------------------------------------------------------
# complex polynomial helpers (phase-space weights |f(q+ip)|^2)


def holomorphic_to_real_poly(coeffs):
    """Expand f(q + i p) = sum_m coeffs[m] z^m into a complex (q, p) dict."""
    out = {(0, 0): 0.0 + 0.0j}
    for mdeg, a in enumerate(coeffs):
        if a == 0:
            continue
        # (q + i p)^m
        for j in range(mdeg + 1):
            key = (mdeg - j, j)
            out[key] = out.get(key, 0.0 + 0.0j) + a * comb(mdeg, j) * (1j ** j)
    return {k: v for k, v in out.items() if v != 0}


def modulus_squared_poly(coeffs):
    """|f(q + i p)|^2 as a real dict polynomial in (q, p)."""
    p = holomorphic_to_real_poly(coeffs)
    pc = {k: np.conjugate(v) for k, v in p.items()}
    prod = _poly_mul(p, pc)
    out = {}
    for key, val in prod.items():
        if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
            raise DomainError("modulus expansion produced a complex residue")
        if val.real != 0.0:
            out[key] = float(val.real)
    return out


# ---------------------------------------------------------------------------
# PolyExp mixtures


@dataclass(frozen=True)
class PolyExpTerm:
    poly: dict | None   # None means the constant polynomial 1
    c: float
    b: np.ndarray
    B: np.ndarray


class PolyExp:
    """Mixture of polynomial-times-Gaussian-exponent terms."""

    def __init__(self, dim, terms):
        self.dim = int(dim)
        clean = []
        for t in terms:
            b = np.zeros(dim) if t.b is None else np.asarray(t.b, dtype=float)
            B = np.zeros((dim, dim)) if t.B is None else np.asarray(t.B, dtype=float)
            if B.shape != (dim, dim) or not np.allclose(B, B.T, atol=1e-12):
                raise DomainError("quadratic exponent matrix must be symmetric")
            if t.poly is not None and any(len(k) != dim for k in t.poly):
                raise DomainError(f"polynomial exponent keys must have "
                                  f"{dim} entries")
            clean.append(PolyExpTerm(t.poly, float(t.c), b, 0.5 * (B + B.T)))
        self.terms = tuple(clean)

    # constructors ---------------------------------------------------------

    @classmethod
    def quadratic_exponent(cls, dim, B=None, beta=None, b=None, c=0.0):
        """exp(c + b.x - x.B.x/2); beta is shorthand for B = beta*Id."""
        if B is None:
            B = float(beta) * np.eye(dim)
        return cls(dim, [PolyExpTerm(None, c, b, np.asarray(B, dtype=float))])

    @classmethod
    def poly_times_gaussian(cls, dim, poly, B=None, beta=0.0, c=0.0):
        """q(x) exp(c - x.B.x/2); beta is shorthand for B = beta*Id."""
        if B is None:
            B = float(beta) * np.eye(dim)
        return cls(dim, [PolyExpTerm(dict(poly), c, None, np.asarray(B, dtype=float))])

    @classmethod
    def mixture(cls, parts, weights):
        terms = []
        for f, w in zip(parts, weights):
            terms.extend(t for t in f.scaled(w).terms)
        dim = parts[0].dim
        return cls(dim, terms)

    def scaled(self, factor):
        factor = float(factor)
        if factor == 0.0:
            raise DomainError("zero-scaled term")
        terms = []
        for t in self.terms:
            if factor > 0 and t.poly is None:
                terms.append(PolyExpTerm(None, t.c + np.log(factor), t.b, t.B))
            else:
                poly = {(0,) * self.dim: 1.0} if t.poly is None else t.poly
                terms.append(PolyExpTerm(poly_scale(poly, factor), t.c, t.b, t.B))
        return PolyExp(self.dim, terms)

    def multiply(self, other):
        """Pointwise product, again a PolyExp."""
        if other.dim != self.dim:
            raise DomainError("dimension mismatch in product")
        terms = []
        for t1 in self.terms:
            for t2 in other.terms:
                if t1.poly is None:
                    poly = t2.poly
                elif t2.poly is None:
                    poly = t1.poly
                else:
                    poly = _poly_mul(t1.poly, t2.poly)
                terms.append(PolyExpTerm(poly, t1.c + t2.c, t1.b + t2.b,
                                         t1.B + t2.B))
        return PolyExp(self.dim, terms)

    # evaluation -----------------------------------------------------------

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        for t in self.terms:
            expo = t.c + x @ t.b - 0.5 * np.einsum("mi,mi->m", x @ t.B, x)
            amp = np.exp(expo)
            if t.poly is not None:
                amp = amp * poly_eval(t.poly, x)
            out += amp
        return out

    def log_value(self, x):
        """log f at points x, the first entry of log_derivs(x) alone."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        logs, signs, _ = zip(*(_term_log(t, x) for t in self.terms))
        return _log_mixture(logs, signs)[0]

    def log_derivs(self, x):
        """(log f, grad log f, hess log f) at points x, exactly."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        parts = []
        for t in self.terms:
            logv, sign, q = _term_log(t, x)
            grad = t.b[None, :] - x @ t.B
            hess = np.broadcast_to(-t.B, (x.shape[0],) + t.B.shape).copy()
            if q is not None:
                gq = np.stack([poly_eval(poly_deriv(t.poly, i), x)
                               for i in range(self.dim)], axis=-1)
                hq = np.stack([
                    np.stack([poly_eval(poly_deriv(poly_deriv(t.poly, i), j), x)
                              for j in range(self.dim)], axis=-1)
                    for i in range(self.dim)], axis=-2)
                gq = gq / q[:, None]
                grad = grad + gq
                hess = hess + hq / q[:, None, None] \
                    - np.einsum("mi,mj->mij", gq, gq)
            parts.append((logv, sign, grad, hess))
        return _combine_log_terms(parts)

    def smoothed_log_derivs(self, loc, s):
        """(log H_s f, grad, hess) at loc, H_s f(x) = E_{N(x, s Id)} f."""
        loc = np.atleast_2d(np.asarray(loc, dtype=float))
        s = float(s)
        if s < 1e-14:
            return self.log_derivs(loc)
        n = self.dim
        eye = np.eye(n)
        parts = []
        for t in self.terms:
            M = t.B + eye / s
            evals = np.linalg.eigvalsh(M)
            if evals.min() <= 0:
                raise DomainError(
                    "Gaussian smoothing diverges: exponent matrix B + Id/s "
                    "is not positive definite at this smoothing scale")
            Minv = np.linalg.inv(M)
            logdet_sM = float(np.linalg.slogdet(s * M)[1])
            xi = t.b[None, :] + loc / s                       # (m, n)
            mean = xi @ Minv                                   # (m, n)
            logv = (t.c - 0.5 * np.einsum("mi,mi->m", loc, loc) / s
                    + 0.5 * np.einsum("mi,mi->m", xi, mean)
                    - 0.5 * logdet_sM)
            grad = (mean - loc) / s
            hess_q = (Minv / s - eye) / s
            hess = np.broadcast_to(hess_q, (loc.shape[0],) + hess_q.shape).copy()
            sign = np.ones(loc.shape[0])
            if t.poly is not None:
                polys = [t.poly]
                polys += [poly_deriv(t.poly, i) for i in range(n)]
                polys += [poly_deriv(poly_deriv(t.poly, i), j)
                          for i in range(n) for j in range(n)]
                ex = gaussian_poly_expectations(polys, mean, Minv)
                G = ex[0]
                if np.any(G == 0):
                    raise DomainError("smoothed weight vanished at a probe")
                gG = np.stack(ex[1:1 + n], axis=-1) / G[:, None]
                HG = np.stack([np.stack(ex[1 + n + i * n:1 + n + (i + 1) * n],
                                        axis=-1)
                               for i in range(n)], axis=-2) / G[:, None, None]
                sign = np.sign(G)
                logv = logv + np.log(np.abs(G))
                grad = grad + (gG @ Minv) / s
                inner = HG - np.einsum("mi,mj->mij", gG, gG)
                hess = hess + Minv @ inner @ Minv / s ** 2
            parts.append((logv, sign, grad, hess))
        return _combine_log_terms(parts)

    def gamma_weighted_expectations(self, polys):
        """integral p(x) f(x) dgamma(x) for each dict polynomial p."""
        n = self.dim
        eye = np.eye(n)
        total = [0.0 for _ in polys]
        for t in self.terms:
            M = t.B + eye
            evals = np.linalg.eigvalsh(M)
            if evals.min() <= 0:
                raise DomainError("gamma-weighted integral diverges")
            Minv = np.linalg.inv(M)
            m0 = (Minv @ t.b)[None, :]
            logmass = (t.c + 0.5 * float(t.b @ Minv @ t.b)
                       - 0.5 * float(np.linalg.slogdet(M)[1]))
            want = list(polys)
            if t.poly is not None:
                want = [_poly_mul(p, t.poly) for p in want]
            ex = gaussian_poly_expectations(want, m0, Minv)
            for i, e in enumerate(ex):
                total[i] += float(e[0]) * np.exp(logmass)
        return total


def _poly_mul(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _term_log(t, x):
    """(log |t|, sign, q) at points x; q is the term's polynomial factor,
    None for a pure exponential."""
    logv = t.c + x @ t.b - 0.5 * np.einsum("mi,mi->m", x @ t.B, x)
    if t.poly is None:
        return logv, np.ones(x.shape[0]), None
    q = poly_eval(t.poly, x)
    if np.any(q == 0):
        raise DomainError("log evaluated at a zero of the weight")
    return logv + np.log(np.abs(q)), np.sign(q), q


def _log_mixture(logs, signs):
    """log sum_k signs_k exp(logs_k) over the k per-term arrays, and each
    term's (k, m) share of that sum (None for one term)."""
    if len(logs) == 1:
        if np.any(signs[0] <= 0):
            raise DomainError("mixture value is not positive")
        return logs[0], None
    logs = np.stack(logs, axis=0)                          # (k, m)
    lmax = logs.max(axis=0)
    rel = np.stack(signs, axis=0) * np.exp(logs - lmax[None, :])
    S = rel.sum(axis=0)
    if np.any(S <= 0):
        raise DomainError("mixture value is not positive")
    return lmax + np.log(S), rel / S[None, :]


def _combine_log_terms(parts):
    """Combine per-term (log|v|, sign, grad log, hess log) into mixture logs."""
    logv, r = _log_mixture([p[0] for p in parts], [p[1] for p in parts])
    if r is None:
        return logv, parts[0][2], parts[0][3]
    grads = np.stack([p[2] for p in parts], axis=0)       # (k, m, n)
    hesss = np.stack([p[3] for p in parts], axis=0)       # (k, m, n, n)
    grad = np.einsum("km,kmn->mn", r, grads)
    second = np.einsum("km,kmij->mij", r,
                       hesss + np.einsum("kmi,kmj->kmij", grads, grads))
    hess = second - np.einsum("mi,mj->mij", grad, grad)
    return logv, grad, hess
