"""Worked instances: entire-function growth, log-subharmonic weights,
phase-space Husimi states, and 2-D Coulomb gases.

Each builder assembles a (source, target) density pair whose convexity
certificate is analytic (for entire functions only the target), plus
whatever transport-free direct check the construction admits.  Builders reject inputs that break the standing
hypotheses (non-orthonormal state vectors, weights that are not
log-subharmonic at probe points, coinciding Coulomb particles) rather
than silently producing a pair the theorems do not cover.

Conventions fixed here:
  * entire-function p-norm: ||f||^p = (p / (2 pi s)) * integral of
    (|f(z)| exp(-|z|^2 / (2 s)))^p over C, so ||1|| = 1 for every p, s.
  * Husimi density of a mixed state with Bargmann vectors ft_j:
    rho(q, p) = 2^(-1/2) * sum_j w_j |ft_j(q + i p)|^2 * exp(-pi (q^2 + p^2)),
    one degree of freedom, h = 1.
  * Coulomb gas on C^N, coordinates (Re z_1, Im z_1, ..., Re z_N, Im z_N):
    log density = -beta N sum_j Q(z_j) + beta sum_{i<j} log|z_i - z_j| - log Z.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import measures, polyexp, quadrature
from .errors import AccuracyError, CertificateConflictError, DomainError
from .measures import ConvexityCertificate, Density, TruncationBox
from .polyexp import PolyExp

__all__ = [
    "FockInstance", "build_fock_instance", "fock_norm",
    "LshInstance", "build_lsh_instance",
    "WehrlState", "fock_coefficients", "gram_matrix", "build_wehrl_instance",
    "glauber_entropy",
    "CoulombSpec", "CoulombInstance", "split_rhat",
    "gaussian_pair", "anisotropic_pair", "flow_gaussian_weight",
    "Param", "PARAMS", "resolve", "resolve_params", "SCENARIO_BUILDERS",
]


# ---------------------------------------------------------------------------
# entire-function growth


def fock_norm(coeffs, p, sigma):
    """p-norm of the entire polynomial sum_k coeffs[k] z^k.

    Monomials get the closed form |c|^p Gamma(m p / 2 + 1) (2 s / p)^(m p / 2);
    everything else falls back to tensor quadrature on a box wide enough that
    the Gaussian tail is negligible at the polynomial's degree.
    """
    c = np.asarray(coeffs, dtype=complex)
    if p <= 0 or sigma <= 0:
        raise DomainError("p and sigma must be positive")
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        raise DomainError("zero entire function has no normalization")
    if nz.size == 1:
        m = int(nz[0])
        amp = abs(c[m]) ** p
        val = amp * math.gamma(m * p / 2.0 + 1.0) * (2.0 * sigma / p) ** (m * p / 2.0)
        return val ** (1.0 / p)
    deg = int(nz[-1])
    half = math.sqrt(sigma) * (math.sqrt(2.0 * deg + 1.0) + 8.0 / math.sqrt(p))
    box = TruncationBox.cube(2, half)
    pts, wts = quadrature.box_gauss_legendre(box, order=48, panels=4)
    z = pts[:, 0] + 1j * pts[:, 1]
    vals = np.abs(np.polynomial.polynomial.polyval(z, c))
    integrand = vals ** p * np.exp(-p * (pts ** 2).sum(axis=1) / (2.0 * sigma))
    total = p / (2.0 * math.pi * sigma) * float(wts @ integrand)
    return total ** (1.0 / p)


@dataclass(frozen=True)
class FockInstance:
    """Growth-bound data for an entire polynomial f of unit p-norm.

    The bound is the transport determinant bound for the pair
    (|f|^p gamma_{sigma/p}, gamma_{sigma/p}); direct_check tests it without
    a transport, so only the target nu is built, by measures.gaussian (the
    one constructor that sets Density.params).
    """

    p: float
    sigma: float
    coeffs: tuple
    nu: Density

    def direct_check(self, z):
        """Bound |f(z)| <= exp(|z|^2 / (2 sigma)) without any transport.

        Accepts complex points or an (m, 2) real array; returns log-scale
        margins |z|^2/(2 sigma) - log|f(z)| (never negative when the bound
        holds; +inf at zeros of f).
        """
        z = np.asarray(z)
        if z.ndim == 2 and z.shape[1] == 2 and not np.iscomplexobj(z):
            z = z[:, 0] + 1j * z[:, 1]
        z = np.atleast_1d(z).astype(complex)
        fvals = np.abs(np.polynomial.polynomial.polyval(z, np.asarray(self.coeffs)))
        with np.errstate(divide="ignore"):
            logf = np.log(fvals)
        margins = np.abs(z) ** 2 / (2.0 * self.sigma) - logf
        return {
            "points": z,
            "log_margins": margins,
            "min_margin": float(margins.min()),
            "passed": bool(margins.min() >= -1e-9),
        }


def build_fock_instance(p, sigma, entire_poly):
    """Growth data for `entire_poly` scaled to unit p-norm.

    The pair is (|f|^p gamma_{sigma/p}, gamma_{sigma/p}). The source
    potential has Laplacian exactly 2 p / sigma away from the zeros of f
    (log|f| is harmonic there), so alpha = kappa = p / sigma and the growth
    bound |f| <= exp(|z|^2 / (2 sigma)) is the transport determinant bound
    specialized to this pair. The target is measures.gaussian, which alone
    sets Density.params.
    """
    p = float(p)
    sigma = float(sigma)
    coeffs = np.asarray(entire_poly, dtype=complex)
    if not np.any(coeffs):
        raise DomainError("zero entire function rejected")
    coeffs = coeffs / fock_norm(coeffs, p, sigma)
    nu = measures.gaussian(np.zeros(2), (sigma / p) * np.eye(2))
    return FockInstance(p=p, sigma=sigma, coeffs=tuple(coeffs), nu=nu)


# ---------------------------------------------------------------------------
# log-subharmonic weights


@dataclass(frozen=True)
class LshInstance:
    """Growth-bound pair for a log-subharmonic weight of unit gamma-mass."""

    beta: float
    dim: int
    mu: Density
    nu: Density
    certificate: ConvexityCertificate
    log_weight: object = field(repr=False)

    def direct_check(self, x):
        """Bound f(x) <= (beta + 1)^(n/2) exp(|x|^2 / 2), transport-free."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        margins = (0.5 * self.dim * math.log(self.beta + 1.0)
                   + 0.5 * (x ** 2).sum(axis=1) - self.log_weight(x))
        return {
            "points": x,
            "log_margins": margins,
            "min_margin": float(np.min(margins)),
            "passed": bool(np.min(margins) >= -1e-9),
        }


def _probe_subharmonicity(density, beta, dim):
    rng = np.random.default_rng(717)
    pts = rng.standard_normal((256, dim)) * 1.5
    # Delta log f = Delta log rho + n  (rho = f * gamma)
    lap = np.trace(density.hess_log(pts), axis1=-2, axis2=-1) + dim
    worst = float(lap.min())
    if worst < -beta * dim - 1e-8 * max(1.0, abs(beta * dim)):
        raise CertificateConflictError(
            f"weight fails (-beta n)-log-subharmonicity: Delta log f = "
            f"{worst:.6g} < {-beta * dim:.6g} at a probe point")
    return worst


def build_lsh_instance(weight, beta=0.0, dim=2):
    """Pair (f gamma, gamma) for f >= 0 with gamma-mass 1 and
    Delta log f >= -beta n.

    `weight` is a polynomial-Gaussian PolyExp, normalized exactly through
    Gaussian moment integrals, so the source density has exact
    log-derivatives.  Subharmonicity is probed at 256 seeded Gaussian points;
    violations raise rather than producing an uncovered instance.
    """
    beta = float(beta)
    if beta < 0:
        raise DomainError("beta must be nonnegative")
    dim = int(dim)
    if weight.dim != dim:
        raise DomainError("weight dimension disagrees with dim")
    gauss_const = -0.5 * dim * math.log(2.0 * math.pi)
    unit_poly = {(0,) * dim: 1.0}
    mass = float(weight.gamma_weighted_expectations([unit_poly])[0])
    if not (mass > 0 and np.isfinite(mass)):
        raise DomainError("weight has nonpositive gamma-mass")
    fam = weight.scaled(1.0 / mass)
    gamma_part = PolyExp.quadratic_exponent(dim, beta=1.0, c=gauss_const)
    family = fam.multiply(gamma_part)

    log_weight, log_density = fam.log_value, family.log_value

    def hess_log(x):
        _, _, h = family.log_derivs(x)
        return h

    cert = ConvexityCertificate(alpha=beta + 1.0, kappa=1.0)
    mu = Density(dim, log_density, hess_log=hess_log, normalized=True,
                 certificate=cert, kind="lsh_growth", family=family)
    nu = measures.gaussian(np.zeros(dim), np.eye(dim))
    _probe_subharmonicity(mu, beta, dim)
    return LshInstance(beta=beta, dim=dim, mu=mu, nu=nu, certificate=cert,
                       log_weight=log_weight)


# ---------------------------------------------------------------------------
# Husimi densities of finite-rank states


@dataclass(frozen=True)
class WehrlState:
    """Finite-rank mixed state given by Bargmann-side polynomial vectors.

    components[j] is the coefficient tuple of the j-th vector's monomial
    expansion ft_j(z) = sum_m c_m z^m; weights are the mixture weights.
    center = (q0, p0) displaces the state in phase space.
    """

    weights: tuple
    components: tuple
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must be a nonempty vector")
        if np.any(w < -1e-15):
            raise DomainError("mixture weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"mixture weights sum to {w.sum():.12g}, not 1")
        if len(self.components) != w.size:
            raise DomainError("weights and components disagree in length")
        for c in self.components:
            if not np.any(np.asarray(c, dtype=complex)):
                raise DomainError("zero state vector rejected")
        if len(self.center) != 2:
            raise DomainError("only one degree of freedom is supported")

    def max_degree(self):
        return max(len(c) - 1 for c in self.components)


def fock_coefficients(m):
    """Bargmann coefficients of the m-th number state: one monomial with
    c_m = 2^(1/4) pi^(m/2) / sqrt(m!)."""
    if m < 0:
        raise DomainError("number state index must be nonnegative")
    c = np.zeros(int(m) + 1, dtype=complex)
    c[m] = 2.0 ** 0.25 * math.pi ** (m / 2.0) / math.sqrt(math.factorial(int(m)))
    return c


def gram_matrix(state):
    """Exact pairwise overlaps of the state vectors.

    Monomial moments give G_jk = 2^(-1/2) sum_a conj(c_k[a]) c_j[a] a!/pi^a;
    the vectors are admissible only when G is the identity.
    """
    comps = [np.asarray(c, dtype=complex) for c in state.components]
    r = len(comps)
    G = np.zeros((r, r), dtype=complex)
    for j in range(r):
        for k in range(r):
            amax = min(comps[j].size, comps[k].size)
            a = np.arange(amax)
            moments = np.array([math.factorial(int(i)) / math.pi ** int(i)
                                for i in a])
            G[j, k] = (2.0 ** -0.5
                       * np.sum(np.conjugate(comps[k][:amax]) * comps[j][:amax]
                                * moments))
    return G


def glauber_entropy(d=1):
    """Differential entropy integral rho log rho of a coherent-state
    Husimi density with d degrees of freedom (h = 1)."""
    return -float(d)


def build_wehrl_instance(state):
    """Husimi density pair (rho_state, displaced Gaussian) with
    alpha = kappa = 2 pi.

    Rejects non-orthonormal component vectors (Gram off-identity beyond
    1e-8) and densities whose Husimi values exceed 1 at probe points; checks
    the total mass by quadrature before trusting the analytic normalization.
    """
    if not isinstance(state, WehrlState):
        raise DomainError("expected a WehrlState")
    G = gram_matrix(state)
    dev = float(np.abs(G - np.eye(G.shape[0])).max())
    if dev > 1e-8:
        raise DomainError(
            f"state vectors are not orthonormal (Gram deviation {dev:.3e})")

    weights = np.asarray(state.weights, dtype=float)
    comps = [np.asarray(c, dtype=complex) for c in state.components]
    center = np.array([state.center[0], -state.center[1]])

    parts = [PolyExp.poly_times_gaussian(
        2, polyexp.modulus_squared_poly(c), B=2.0 * math.pi * np.eye(2))
        for c in comps]
    keep = weights > 0
    fam = PolyExp.mixture([p for p, k in zip(parts, keep) if k],
                          (2.0 ** -0.5) * weights[keep])

    def log_density(x):
        return fam.log_value(x - center)

    def hess_log(x):
        return fam.log_derivs(x - center)[2]

    # mass and pointwise-bound probes on a box covering the state
    half = math.sqrt((state.max_degree() + 4.0) / math.pi) + 1.5
    box = TruncationBox(center, np.full(2, half))
    pts, wts = quadrature.box_gauss_legendre(box, order=48, panels=3)
    vals = np.exp(log_density(pts))
    mass = float(wts @ vals)
    if abs(mass - 1.0) > 1e-6:
        raise AccuracyError(
            f"Husimi mass {mass:.8f} deviates from 1 beyond 1e-06",
            estimate=abs(mass - 1.0))
    grid = box.grid(64)
    peak = float(np.exp(log_density(grid)).max())
    if peak > 1.0 + 1e-9:
        raise DomainError(
            f"Husimi density exceeds 1 at a probe point (max {peak:.6g})")

    # a mixture of number states is radial about its centre
    radial_profile = None
    if all(np.count_nonzero(c) == 1 for c in comps):
        degs = [int(np.nonzero(c)[0][0]) for c in comps]
        amps = [abs(c[d]) ** 2 for c, d in zip(comps, degs)]

        def radial_profile(r, _w=weights, _d=degs, _a=amps):
            r = np.asarray(r, dtype=float)
            out = np.zeros_like(r)
            for w, d, a in zip(_w, _d, _a):
                out = out + w * (2.0 ** -0.5) * a * r ** (2 * d)
            return out * np.exp(-math.pi * r ** 2)

    poly_scale = max(float(np.abs(c).max()) ** 2 for c in comps)

    def singular_tube(x):
        u = x - center
        z = u[:, 0] + 1j * u[:, 1]
        tot = np.zeros(z.shape[0])
        for w, c in zip(weights, comps):
            tot += w * np.abs(np.polynomial.polynomial.polyval(z, c)) ** 2
        return tot <= 1e-10 * poly_scale

    cert = ConvexityCertificate(alpha=2.0 * math.pi, kappa=2.0 * math.pi)
    mu = Density(2, log_density, hess_log=hess_log, normalized=True,
                 certificate=cert, singular_tube=singular_tube,
                 radial_profile=radial_profile, center=center, kind="husimi",
                 # the closed-form semigroup reads the family about 0
                 family=fam if not np.any(center) else None)
    nu = measures.gaussian(center, np.eye(2) / (2.0 * math.pi))
    return mu, nu, cert


# ---------------------------------------------------------------------------
# 2-D Coulomb gas


@dataclass(frozen=True)
class CoulombSpec:
    """N particles in C at inverse temperature beta, held by the quadratic
    potential Q(z) = |z|^2 / 2; at beta = 2 this is the law of the Ginibre
    eigenvalues. Only a quadratic Q has a bounded Laplacian, so no other
    gives the gas a finite source constant."""

    particles: int
    beta: float = 1.0

    def __post_init__(self):
        if self.particles < 1:
            raise DomainError("need at least one particle")
        if self.particles > 3:
            raise DomainError("only N <= 3 is supported")
        if self.beta <= 0:
            raise DomainError("beta must be positive")

    @property
    def dim(self):
        return 2 * self.particles


class CoulombInstance:
    """Gas law pair with an analytic Hessian and a chain sampler.

    The target is the Gaussian N(0, I / (beta N)), the gas without its pair
    term. The source certificate only carries alpha: the pairwise
    interaction is harmonic away from collisions, so the potential
    Laplacian equals n * beta * N exactly off the diagonal tube, while its
    Hessian has no useful lower bound there.
    """

    def __init__(self, spec):
        self.spec = spec
        N, beta = spec.particles, spec.beta
        n = spec.dim

        self.certificate = ConvexityCertificate(alpha=beta * N, kappa=None)

        self.mu = Density(
            n, self._log_density, hess_log=self._hess_log, normalized=False,
            certificate=self.certificate, singular_tube=self._singular_tube,
            kind="coulomb_gas")
        self.nu = measures.gaussian(np.zeros(n), np.eye(n) / (beta * N))

    # density pieces --------------------------------------------------------

    def _split(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x.reshape(x.shape[0], self.spec.particles, 2)

    def _pair_indices(self):
        N = self.spec.particles
        return [(i, j) for i in range(N) for j in range(i + 1, N)]

    def _log_density(self, x):
        """log rho of each row of `x`, -inf where two particles are closer
        than 1e-8. Each pair's r^2 is formed once from columns of `x` and
        feeds both; `sample` forms the same terms in the same order on
        floats."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        N, beta = self.spec.particles, self.spec.beta
        pts = self._split(x)
        out = -beta * N * (0.5 * (pts * pts).sum(axis=2)).sum(axis=1)
        closest = np.inf
        pairs = self._pair_indices()
        with np.errstate(divide="ignore"):
            for i, j in pairs:
                dx = x[:, 2 * i] - x[:, 2 * j]
                dy = x[:, 2 * i + 1] - x[:, 2 * j + 1]
                r2 = dx * dx + dy * dy
                out = out + 0.5 * beta * np.log(r2)
                closest = np.minimum(closest, r2)
        # pairs 1e-7 apart pass the collision test; sqrt is monotone, so
        # the closest pair decides it for the rest
        if pairs and closest.min() < 1e-14:
            out = np.where(np.sqrt(closest) >= 1e-8, out, -np.inf)
        return out

    def _hess_log(self, x):
        pts = self._split(x)
        m = pts.shape[0]
        N, beta = self.spec.particles, self.spec.beta
        n = self.spec.dim
        H = np.zeros((m, n, n))
        for jp in range(N):
            H[:, 2 * jp:2 * jp + 2, 2 * jp:2 * jp + 2] = -beta * N * np.eye(2)
        for i, j in self._pair_indices():
            d = pts[:, i, :] - pts[:, j, :]
            r2 = (d ** 2).sum(axis=1)[:, None, None]
            outer = np.einsum("mi,mj->mij", d, d)
            blk = beta * (np.eye(2) / r2 - 2.0 * outer / r2 ** 2)
            si, sj = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
            H[:, si, si] += blk
            H[:, sj, sj] += blk
            H[:, si, sj] -= blk
            H[:, sj, si] -= blk
        return H

    def _min_pair_distance(self, x):
        pts = self._split(x)
        if self.spec.particles == 1:
            return np.full(pts.shape[0], np.inf)
        dists = [np.sqrt(((pts[:, i, :] - pts[:, j, :]) ** 2).sum(axis=1))
                 for i, j in self._pair_indices()]
        return np.min(dists, axis=0)

    def _singular_tube(self, x):
        return self._min_pair_distance(np.atleast_2d(x)) < 1e-6

    # sampling ----------------------------------------------------------------

    def sample(self, size, seed=0, burn=1500, thin=3):
        """Random-walk chain draws from the gas; returns (samples, diagnostics).

        Each of 4 chains discards `burn` steps, then keeps every `thin`-th
        state. diagnostics carry the split-chain mixing statistic and
        acceptance rate; a statistic above 1.1 sets quality_warning instead
        of raising, so downstream checks can downgrade to inconclusive.

        A step runs on Python floats: with 4 chains of at most 6
        coordinates, numpy's cost per call exceeds the arithmetic. It forms
        `_log_density`'s terms in its order and takes both logs with
        one numpy call each per step (math.log may differ from numpy's in
        the last bit), so the draws keep the array form's bits.
        """
        if thin < 1:
            raise DomainError(f"thin must be at least 1, got {thin}")
        if burn < 0:
            raise DomainError(f"burn must be at least 0, got {burn}")
        rng = np.random.default_rng(seed)
        spec = self.spec
        n = spec.dim
        chains, rhat_limit = 4, 1.1
        scale = 1.0 / math.sqrt(spec.beta * spec.particles)
        step = 0.45 * scale
        per_chain = -(-int(size) // chains)
        state = 1.5 * scale * rng.standard_normal((chains, n))
        bad = self._min_pair_distance(state) < 1e-6
        while np.any(bad):
            state[bad] = 1.5 * scale * rng.standard_normal((int(bad.sum()), n))
            bad = self._min_pair_distance(state) < 1e-6
        logp = self._log_density(state).tolist()
        state = state.tolist()
        draws = np.empty((chains, per_chain, n))
        accepted = 0
        steps = burn + per_chain * thin
        quad, half_beta = -spec.beta * spec.particles, 0.5 * spec.beta
        pairs = [(2 * i, 2 * j) for i, j in self._pair_indices()]
        per = len(pairs)
        with np.errstate(divide="ignore"):
            for it in range(steps):
                noise = rng.standard_normal((chains, n)).tolist()
                props = [[x + step * z for x, z in zip(row, dz)]
                         for row, dz in zip(state, noise)]
                r2 = [(p[a] - p[b]) * (p[a] - p[b])
                      + (p[a + 1] - p[b + 1]) * (p[a + 1] - p[b + 1])
                      for p in props for a, b in pairs]
                logs = iter(np.log(r2).tolist())
                log_u = np.log(rng.random(chains)).tolist()
                # pairs 1e-7 apart pass the 1e-8 collision test, so a
                # chain is tested only when some pair is closer
                near = per and min(r2) < 1e-14
                for c, p in enumerate(props):
                    q = 0.5 * (p[0] * p[0] + p[1] * p[1])
                    for a in range(2, n, 2):
                        q += 0.5 * (p[a] * p[a] + p[a + 1] * p[a + 1])
                    lp = quad * q
                    for _ in pairs:
                        lp = lp + half_beta * next(logs)
                    if near and math.sqrt(
                            min(r2[c * per:(c + 1) * per])) < 1e-8:
                        lp = -math.inf
                    if log_u[c] < lp - logp[c]:
                        state[c], logp[c] = p, lp
                        accepted += 1
                if it >= burn and (it - burn) % thin == 0:
                    draws[:, (it - burn) // thin, :] = state
        rhat = split_rhat(draws)
        diagnostics = {
            "rhat": float(rhat),
            "acceptance": accepted / (chains * steps),
            "chains": chains,
            "per_chain": per_chain,
            "quality_warning": bool(rhat > rhat_limit),
        }
        if diagnostics["quality_warning"]:
            diagnostics["note"] = (
                f"split-chain statistic {rhat:.3f} exceeds {rhat_limit}; "
                "treat sampled conclusions as inconclusive")
        samples = draws.reshape(-1, n)
        rng.shuffle(samples)
        return samples[:int(size)], diagnostics


def split_rhat(draws):
    """Split-chain mixing statistic, maximized over coordinates.

    draws has shape (chains, length, dim); each chain is halved, and the
    statistic compares between-sequence to within-sequence variance.
    """
    chains, length, dim = draws.shape
    if length < 4:
        raise DomainError("need at least 4 draws per chain")
    half = length // 2
    seqs = np.concatenate([draws[:, :half, :], draws[:, half:2 * half, :]],
                          axis=0)
    means = seqs.mean(axis=1)
    variances = seqs.var(axis=1, ddof=1)
    W = variances.mean(axis=0)
    B = half * means.var(axis=0, ddof=1)
    var_plus = (half - 1) / half * W + B / half
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(var_plus / W)
    r = np.where(W <= 0, 1.0, r)
    return float(np.max(r))


# ---------------------------------------------------------------------------
# closed-form pairs for sharpness and limit studies


def gaussian_pair(sigma_source, sigma_target, dim=2):
    """Isotropic pair N(0, s0^2 I) -> N(0, s1^2 I); the transport trace and
    determinant bounds are equalities for every such pair."""
    mu = measures.gaussian(np.zeros(dim), sigma_source ** 2 * np.eye(dim))
    nu = measures.gaussian(np.zeros(dim), sigma_target ** 2 * np.eye(dim))
    return mu, nu


def anisotropic_pair(epsilon, dim=2):
    """Pair N(0, S^2) -> N(0, I) with S = diag(1/n, 1/eps, ..., 1/eps).

    The transport map is x -> S^(-1) x with operator norm exactly n, while
    the Lipschitz bound evaluates to n sqrt(alpha) with
    alpha = (n^2 + (n-1) eps^2) / n; the gap shrinks as eps decreases but
    never closes, which is the sense in which the bound's dimensional factor
    is asymptotically tight.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    n = int(dim)
    diag = np.full(n, 1.0 / epsilon)
    diag[0] = 1.0 / n
    mu = measures.gaussian(np.zeros(n), np.diag(diag ** 2))
    nu = measures.gaussian(np.zeros(n), np.eye(n))
    alpha = (n ** 2 + (n - 1) * epsilon ** 2) / n
    mu.certificate = ConvexityCertificate(alpha=alpha, kappa=None)
    return mu, nu, alpha


def flow_gaussian_weight(sigma, dim=2):
    """Gaussian-to-Gaussian interpolation data: the weight f = d mu / d gamma
    for mu = N(0, sigma^2 I), as an exact quadratic-exponent family."""
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    beta = 1.0 / sigma ** 2 - 1.0
    f = PolyExp.quadratic_exponent(dim, beta=beta, c=-dim * math.log(sigma))
    mu = measures.gaussian(np.zeros(dim), sigma ** 2 * np.eye(dim))
    alpha = 1.0 / sigma ** 2
    return f, mu, alpha


# ---------------------------------------------------------------------------
# registry used by the command line driver


class Param(NamedTuple):
    """One param of a scenario kind: its type, default and domain.

    `type` is int, float, str or object, a "list of" one (never empty),
    or alternatives joined by " or ". `domain` is "> x" or ">= x", with
    an optional ", <= y", for a number (each element of a list), the
    allowed strings for a str, or "" for any."""

    type: str
    default: object
    domain: str = ""


# the largest dim of any kind, so a huge one is refused before a builder
# allocates for it (the lsh default poly alone holds dim^2 exponents)
MAX_DIM = 64

PARAMS = {
    "gaussian": {
        "sigma_source": Param("float", 2.0, "> 0"),
        "sigma_target": Param("float", 1.0, "> 0"),
        "dim": Param("int", 2, f">= 1, <= {MAX_DIM}"),
    },
    "anisotropic": {
        "epsilons": Param("list of float", (1.0, 0.1, 0.01), "> 0"),
        "dim": Param("int", 2, f">= 1, <= {MAX_DIM}"),
    },
    "wehrl": {
        "weights": Param("list of float", (1.0,), ">= 0"),
        "degrees": Param("list of int", (1,), ">= 0"),
        "center": Param("list of float", (0.0, 0.0)),
        "epsilon_schedule": Param("list of float", (0.5, 0.1, 0.05), "> 0"),
        # a side x side grid within the tensor-grid budget (1448)
        "side": Param("int", 96,
                      f">= 2, <= {math.isqrt(quadrature.MAX_GRID_NODES)}"),
    },
    "coulomb": {
        "particles": Param("int", 2, ">= 1, <= 3"),
        "beta": Param("float", 1.0, "> 0"),
        "epsilon_schedule": Param("list of float", (0.5, 0.2, 0.1), "> 0"),
    },
    "fock": {
        "p": Param("float", 2.0, "> 0"),
        "sigma": Param("float", 1.0, "> 0"),
        "coefficients": Param("list of float", (0.0, 1.0)),
    },
    "lsh": {
        "dim": Param("int", 2, f">= 1, <= {MAX_DIM}"),
        "poly": Param("object or null", None),
        "beta": Param("float", 0.0, ">= 0"),
    },
    "flow": {
        "sigma": Param("float", 0.5, "> 0"),
        "dim": Param("int", 2, f">= 1, <= {MAX_DIM}"),
    },
    # the closed-form oracle battery fixes its own instances
    "selftest": {},
}

_FORMS = {"int": int, "float": (int, float), "str": str, "object": dict,
          "null": type(None)}
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _in_domain(domain, v):
    if isinstance(v, str):
        return v in domain.split(", ")
    if v is None or not domain.startswith(">"):
        return True
    return all(_BOUNDS[op](v, float(bound))
               for op, bound in map(str.split, domain.split(", ")))


def _typed(name, spec, value):
    """value checked against spec's type and domain; an int given for a
    float becomes a float, and a float must be finite (json reads
    Infinity, NaN and ints beyond the float range)."""
    for form in spec.type.split(" or "):
        elem = form.removeprefix("list of ")
        if elem == form:
            items = [value]
        elif isinstance(value, (list, tuple)) and value:
            items = list(value)
        else:
            continue
        if all(isinstance(v, _FORMS[elem]) and not isinstance(v, bool)
               for v in items):
            try:
                items = [float(v) if elem == "float" else v for v in items]
            except OverflowError:   # an int beyond the float range
                items = [math.inf]
            if elem == "float" and not all(map(math.isfinite, items)):
                raise DomainError(f"{name} must be finite, got {value!r}")
            if not all(_in_domain(spec.domain, v) for v in items):
                one_of = "one of " if elem == "str" else ""
                raise DomainError(f"{name} must be {one_of}{spec.domain}, "
                                  f"got {value!r}")
            return items if elem != form else items[0]
    raise DomainError(f"{name} must be {spec.type}, got {value!r}")


def resolve_params(kind, raw):
    """Every param `kind` declares, typed, from `raw` or its default."""
    return resolve(PARAMS[kind], raw, f"{kind} param")


def resolve(table, raw, what):
    """Every name `table` declares, typed, from `raw` or its default.

    A name the table does not declare, or a value of another type or
    outside its domain, raises DomainError naming it; a default is not
    typed, so a None default stays None."""
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise DomainError(f"{unknown[0]} is not a {what}; it takes "
                          f"{', '.join(sorted(table)) or 'none'}")
    return {name: _typed(name, spec, raw[name]) if name in raw
            else spec.default for name, spec in table.items()}


def _scenario_gaussian(p):
    mu, nu = gaussian_pair(p["sigma_source"], p["sigma_target"], dim=p["dim"])
    return {"kind": "gaussian", "mu": mu, "nu": nu}


def _scenario_anisotropic(p):
    rows = [anisotropic_pair(e, dim=p["dim"]) for e in p["epsilons"]]
    return {"kind": "anisotropic", "epsilons": list(p["epsilons"]),
            "pairs": rows}


def _scenario_wehrl(p):
    comps = tuple(tuple(fock_coefficients(d)) for d in p["degrees"])
    state = WehrlState(tuple(p["weights"]), comps, center=tuple(p["center"]))
    mu, nu, cert = build_wehrl_instance(state)
    return {"kind": "wehrl", "state": state, "mu": mu, "nu": nu,
            "certificate": cert}


def _scenario_coulomb(p):
    spec = CoulombSpec(particles=p["particles"], beta=p["beta"])
    inst = CoulombInstance(spec)
    return {"kind": "coulomb", "instance": inst, "mu": inst.mu, "nu": inst.nu}


def _scenario_fock(p):
    inst = build_fock_instance(p["p"], p["sigma"], p["coefficients"])
    return {"kind": "fock", "instance": inst}


def _poly_param(raw):
    """The lsh `poly` object, {"i,j,...": coefficient}, as
    {(i, j, ...): float}; a key that is not a comma list of ints >= 0 or a
    value that is not a finite number raises DomainError naming poly."""
    poly = {}
    for key, v in raw.items():
        parts = key.split(",")
        if not all(k.strip().isdecimal() for k in parts):
            raise DomainError(f"poly keys must be comma lists of ints >= 0, "
                              f"got {key!r}")
        poly[tuple(int(k) for k in parts)] = _typed(
            "poly", Param("float", None), v)
    return poly


def _scenario_lsh(p):
    dim, poly = p["dim"], p["poly"]
    if poly is None:
        poly = {tuple(2 if j == i else 0 for j in range(dim)): 1.0 / dim
                for i in range(dim)}
    else:
        poly = _poly_param(poly)
    weight = PolyExp.poly_times_gaussian(dim, poly)
    inst = build_lsh_instance(weight, beta=p["beta"], dim=dim)
    return {"kind": "lsh", "instance": inst, "mu": inst.mu, "nu": inst.nu}


def _scenario_flow(p):
    f, mu, alpha = flow_gaussian_weight(p["sigma"], dim=p["dim"])
    return {"kind": "flow", "weight": f, "mu": mu, "alpha": alpha}


SCENARIO_BUILDERS = {
    "gaussian": _scenario_gaussian,
    "anisotropic": _scenario_anisotropic,
    "wehrl": _scenario_wehrl,
    "coulomb": _scenario_coulomb,
    "fock": _scenario_fock,
    "lsh": _scenario_lsh,
    "flow": _scenario_flow,
    "selftest": lambda p: {"kind": "selftest"},
}
