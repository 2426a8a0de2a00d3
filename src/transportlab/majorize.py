"""Majorization tests, displacement geodesics, and entropy comparisons.

h majorizes g when int phi(g) <= int phi(h) for every convex phi on the
nonnegative reals with phi(0) = 0. We test a finite family of convex probes
(power laws, x log x, hinge functions scaled to the density's range); a pass
is evidence, a failure with positive margin is a disproof up to quadrature
error.

Displacement interpolation rho_t = ((1-t) Id + t T)_# mu is evaluated in
source coordinates: with J_t = (1-t) Id + t DT,

    int phi(rho_t) dx = int phi(rho_mu(x) / det J_t(x)) det J_t(x) dx,

so no inversion of the interpolated map is needed. Entropy is int rho log
rho (the negative differential entropy), computed by quadrature for grid
densities and by nearest-neighbor spacing estimates for samples.

The geodesic keeps the eigenvalues lambda_i of the symmetrized DT at
each node, one eigvalsh per node over blocks of quadrature.EVAL_ROWS
nodes. Every det J_t = prod_i ((1-t) + t lambda_i) and the stability
integrand |DT - Id|_F^2 = sum_i (lambda_i - 1)^2 are then elementwise;
the integrals against the rule's weights run on the whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .brenier import nearest
from .errors import ConvexityViolationError, DomainError
from .verify import make_certificate

# the tensor Gauss-Legendre rule of the box integrals: order x panels
_BOX_ORDER, _BOX_PANELS = 48, 2


# ---------------------------------------------------------------------------
# convex test family


@dataclass(frozen=True)
class ConvexProbe:
    name: str
    fn: object

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _xlogx(x):
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def default_convex_family(scale=1.0):
    """Convex probes phi with phi(0) = 0, hinges scaled to the density sup."""
    probes = [
        ConvexProbe("xlogx", _xlogx),
        ConvexProbe("square", lambda x: x ** 2),
        ConvexProbe("p32", lambda x: x ** 1.5),
        ConvexProbe("excess_sq", lambda x: np.maximum(x - 1.0, 0.0) ** 2),
    ]
    for c in (0.1, 0.5, 1.0):
        thr = c * scale
        probes.append(ConvexProbe(f"hinge_{c:g}",
                                  lambda x, t=thr: np.maximum(x - t, 0.0)))
    return probes


def convex_integral(probe, density_values, weights):
    """int phi(rho) against the quadrature weights of the probes' locations."""
    return float(np.dot(weights, probe(np.asarray(density_values, float))))


# ---------------------------------------------------------------------------
# majorization check


@dataclass(frozen=True)
class MajorizationReport:
    passed: bool
    margins: dict
    worst_probe: str
    worst_margin: float
    atol: float


def majorization_check(g_values, h_values, weights_g, weights_h, atol=0.0):
    """Test int phi(g) <= int phi(h) + atol over the default probe family,
    its hinges scaled to the larger density value.

    Values are density evaluations at quadrature nodes carrying `weights_*`
    (Lebesgue weights, not probability weights). Margins are the signed
    violations int phi(g) - int phi(h); all must be <= atol to pass.
    """
    scale = float(max(np.max(g_values), np.max(h_values)))
    margins = {}
    for probe in default_convex_family(scale):
        lhs = convex_integral(probe, g_values, weights_g)
        rhs = convex_integral(probe, h_values, weights_h)
        margins[probe.name] = lhs - rhs
    worst = max(margins, key=lambda k: margins[k])
    return MajorizationReport(passed=bool(margins[worst] <= atol),
                              margins=margins, worst_probe=worst,
                              worst_margin=float(margins[worst]), atol=atol)


def majorization_from_densities(g, h, box, atol=0.0):
    """Majorization test for two normalized densities on a common box."""
    pts, w = quadrature.box_gauss_legendre(box, order=_BOX_ORDER,
                                           panels=_BOX_PANELS)
    return majorization_check(g.pdf(pts), h.pdf(pts), w, w, atol=atol)


# ---------------------------------------------------------------------------
# displacement geodesics


class Geodesic:
    """Displacement interpolation from mu along a transport map toward nu.

    One tensor rule on the box carries every integral of the geodesic
    suite: both densities and the eigenvalues `eig` (m, n) of the
    symmetrized DT are evaluated once at its nodes. The interpolant's
    Jacobian J_t = (1-t) Id + t DT at the source point is taken with DT
    symmetrized (a Brenier map's DT is a Hessian), so its eigenvalues are
    (1-t) + t lambda_i. A node with some lambda_i <= 0 makes J_t singular
    at t = 1 / (1 - lambda_i) in (0, 1], so the constructor refuses it.
    """

    def __init__(self, mu, nu, transport_map, box, order=_BOX_ORDER):
        if not mu.normalized:
            raise DomainError("geodesics need a normalized source density")
        self.dim = mu.dim
        self.map = transport_map
        self.points, self.weights = quadrature.box_gauss_legendre(
            box, order=order, panels=_BOX_PANELS)
        self.rho_mu = mu.pdf(self.points)
        self.rho_nu = nu.pdf(self.points)
        self.eig = quadrature.blockwise(
            lambda J: np.linalg.eigvalsh(0.5 * (J + np.swapaxes(J, -1, -2))),
            transport_map.jacobian(self.points))
        # eigvalsh sorts ascending: column 0 is each node's smallest
        low = self.eig[:, 0]
        if np.any(low <= 0):
            bad = int(np.argmax(low <= 0))
            raise ConvexityViolationError(
                f"interpolant Jacobian is singular at "
                f"t={1.0 / (1.0 - low[bad]):.6g}", probe=self.points[bad])

    def _det_jt(self, t):
        return np.prod((1.0 - t) + t * self.eig, axis=1)


@dataclass(frozen=True)
class GeodesicReport:
    times: np.ndarray
    values: dict
    entropy: np.ndarray
    monotone: dict
    passed: bool
    tol: float


def geodesic_monotonicity_check(geodesic, times=None, tol=1e-9):
    """Convex functionals along the geodesic must be monotone in t.

    When the endpoint map satisfies the trace bound trace DT <= n (so every
    intermediate-to-later map is volume contracting), each int phi(rho_t)
    is non-decreasing from source to target. Monotone here means
    non-decreasing up to `tol` relative wiggle. Each time point costs one
    det J_t, which also gives the entropy int rho_t log rho_t along the
    path.
    """
    if times is None:
        times = np.linspace(0.0, 1.0, 11)
    times = np.asarray(times, dtype=float)
    family = default_convex_family(float(geodesic.rho_mu.max()))
    w = geodesic.weights
    series = np.empty((len(family), times.size))
    entropy = np.empty(times.size)
    for k, t in enumerate(times):
        det = geodesic._det_jt(t)
        rho_t = geodesic.rho_mu / det
        for p, probe in enumerate(family):
            series[p, k] = np.dot(w, probe(rho_t) * det)
        entropy[k] = np.dot(w * det, _xlogx(rho_t))
    values = {probe.name: seq for probe, seq in zip(family, series)}
    monotone = {}
    for name, seq in values.items():
        slack = tol * max(1.0, float(np.abs(seq).max()))
        monotone[name] = bool(np.all(np.diff(seq) >= -slack))
    return GeodesicReport(times=times, values=values, entropy=entropy,
                          monotone=monotone, passed=all(monotone.values()),
                          tol=tol)


# ---------------------------------------------------------------------------
# entropy


def entropy_quadrature(density, box, order=_BOX_ORDER):
    """int rho log rho over the box (negative differential entropy)."""
    pts, w = quadrature.box_gauss_legendre(box, order=order,
                                           panels=_BOX_PANELS)
    return float(np.dot(w, _xlogx(density.pdf(pts))))


def entropy_knn(samples, table, k=4, bootstrap=0, seed=0):
    """Nearest-neighbor estimate of int rho log rho from samples.

    Kozachenko-Leonenko differential entropy h, returned negated to match
    the quadrature convention. With bootstrap > 0, returns (value, half_ci)
    using resampled standard error times 1.96.

    `table` is the caller's exact `nearest(samples, samples, w)` of any
    width w >= min(m, 8 (k + 1)); the estimate reads its first
    min(m, 8 (k + 1)) columns, so every such w gives the same bits. The
    table serves every subsample: a point's k-th neighbor within a
    subsample is the (k + 1)-th subsample member along its row, itself
    included. Rows that hold fewer members than that are searched again
    within the subsample.
    """
    samples = np.asarray(samples, dtype=float)
    m, n = samples.shape
    if m <= k:
        raise DomainError(f"{m} samples hold no {k}-th nearest neighbor")
    width = min(m, 8 * (k + 1))
    if table[1].shape[0] != m or table[1].shape[1] < width:
        raise DomainError(f"a neighbor table of shape {table[1].shape} "
                          f"does not cover {m} rows {width} wide")
    dist, idx = table[0][:, :width], table[1][:, :width]
    log_unit = np.log(math.pi ** (n / 2) / math.gamma(n / 2 + 1))

    def estimate(r, digamma_gap):
        r = np.maximum(r, 1e-300)
        return -(n * np.mean(np.log(r)) + log_unit + digamma_gap)

    def harmonic(cnt):
        # digamma(cnt) - digamma(k), a finite harmonic sum at integers
        return math.fsum(1.0 / j for j in range(k, cnt))

    value = estimate(dist[:, k], harmonic(m))
    if bootstrap <= 0:
        return value
    rng = np.random.default_rng(seed)
    # resampling with replacement duplicates points, which zeroes the
    # k-th neighbor distance and wrecks the log; subsample without
    # replacement and rescale the spread back to the full sample size
    sub = max(k + 2, m // 2)
    if sub > m:
        raise DomainError(f"{m} samples leave no subsample of {sub} "
                          f"for a {k}-neighbor bootstrap")
    # every rep draws `sub` rows, so one harmonic sum serves them all
    sub_harmonic = harmonic(sub)
    member = np.zeros(m, dtype=bool)
    reps = []
    for _ in range(bootstrap):
        pick = rng.choice(m, sub, replace=False)
        member[:] = False
        member[pick] = True
        seen = np.cumsum(member[idx[pick]], axis=1)
        r = dist[pick, np.argmax(seen > k, axis=1)]
        short = seen[:, -1] <= k
        if short.any():
            r[short] = nearest(samples[pick], samples[pick[short]],
                               k + 1)[0][:, k]
        reps.append(estimate(r, sub_harmonic))
    half_ci = 1.96 * float(np.std(reps, ddof=1)) * math.sqrt(sub / m)
    return value, half_ci


@dataclass(frozen=True)
class EntropyReport:
    entropy_source: float
    entropy_target: float
    gap: float
    stability_rhs: float
    certificate: object


def entropy_stability_check(geodesic):
    """Entropy gap against the quantitative stability lower bound.

    int rho_nu log rho_nu - int rho_mu log rho_mu
        >= (1 / 2 n^2) int |DT - Id|_F^2 dmu,

    every integral on the geodesic's rule. The certificate records the
    negated inequality (lower bounds are stored as upper bounds on the
    negation): observed = -gap, rhs = -stability_rhs.
    """
    n = geodesic.dim
    w = geodesic.weights
    h_mu = float(np.dot(w, _xlogx(geodesic.rho_mu)))
    h_nu = float(np.dot(w, _xlogx(geodesic.rho_nu)))
    wmu = w * geodesic.rho_mu
    wmu = wmu / wmu.sum()
    frob = ((geodesic.eig - 1.0) ** 2).sum(axis=1)
    rhs = float(np.dot(wmu, frob)) / (2.0 * n * n)
    gap = h_nu - h_mu
    cert = make_certificate("entropy_stability", rhs=-rhs, observed=-gap,
                            slack=None,
                            provenance={"solver": geodesic.map.provenance},
                            probe_count=geodesic.points.shape[0],
                            details={"negated_lower_bound": True,
                                     "entropy_source": h_mu,
                                     "entropy_target": h_nu})
    return EntropyReport(entropy_source=h_mu, entropy_target=h_nu, gap=gap,
                         stability_rhs=rhs, certificate=cert)
