"""Bound certificates for transport maps.

Every check produces a BoundCertificate comparing an observed statistic
against a theoretical right-hand side. The verdict rule is directional:

    pass             observed <= rhs + 1e-9 |rhs| + atol
    pass_with_slack  observed <= rhs + slack |rhs| + atol, and the epsilon
                     trend (when present) is non-increasing
    inconclusive     neither, but the provenance is entropic and the trend
                     is decreasing (refining the regularization helps)
    fail             otherwise

Lower-bound theorems are recorded with both sides negated so this single
rule applies; such certificates say so in their details. Checks whose
contract includes an additive tolerance carry it in `atol`, printed next
to the comparison in reports.

Slack defaults by map provenance: exact routes (closed-form, quantile,
radial) get 0, entropic grid maps 5%, entropic sample maps 10%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .calculus import map_statistics
from .errors import ConvexityViolationError, DomainError

PASS = "pass"
PASS_WITH_SLACK = "pass_with_slack"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

DEFAULT_SLACK = {
    "closed_form_gaussian": 0.0,
    "quantile_1d": 0.0,
    "radial": 0.0,
    "entropic_grid": 0.05,
    "entropic_sample": 0.10,
}


def slack_for(provenance):
    return DEFAULT_SLACK.get(provenance, 0.0)


def trend_non_increasing(trend, rtol=1e-9):
    t = np.asarray(trend, dtype=float)
    if t.size < 2:
        return True
    scale = max(1.0, float(np.abs(t).max()))
    return bool(np.all(np.diff(t) <= rtol * scale))


def trend_decreasing(trend, rtol=1e-9):
    t = np.asarray(trend, dtype=float)
    if t.size < 2:
        return False
    scale = max(1.0, float(np.abs(t).max()))
    return bool(t[-1] < t[0] - rtol * scale)


@dataclass(frozen=True)
class BoundCertificate:
    bound_name: str
    theoretical_rhs: float
    observed: float
    slack: float
    verdict: str
    provenance: dict
    probe_count: int
    atol: float = 0.0
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "bound_name": self.bound_name,
            "theoretical_rhs": self.theoretical_rhs,
            "observed": self.observed,
            "slack": self.slack,
            "atol": self.atol,
            "verdict": self.verdict,
            "provenance": _jsonable(self.provenance),
            "probe_count": self.probe_count,
            "details": _jsonable(self.details),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def make_certificate(bound_name, rhs, observed, slack, provenance,
                     probe_count, atol=0.0, epsilon_trend=None, details=None):
    """Assemble a certificate, applying the verdict rule."""
    rhs = float(rhs)
    observed = float(observed)
    details = dict(details or {})
    prov = dict(provenance or {})
    if slack is None:
        slack = slack_for(prov.get("solver", ""))
    if epsilon_trend is not None:
        prov["epsilon_trend"] = [float(v) for v in epsilon_trend]
    entropic = str(prov.get("solver", "")).startswith("entropic")
    trend_ok = epsilon_trend is None or trend_non_increasing(epsilon_trend,
                                                             rtol=1e-6)
    if observed <= rhs + 1e-9 * abs(rhs) + atol:
        verdict = PASS
    elif observed <= rhs + slack * abs(rhs) + atol and trend_ok:
        verdict = PASS_WITH_SLACK
    elif entropic and epsilon_trend is not None and \
            trend_decreasing(epsilon_trend, rtol=1e-6):
        verdict = INCONCLUSIVE
    else:
        verdict = FAIL
    return BoundCertificate(bound_name=bound_name, theoretical_rhs=rhs,
                            observed=observed, slack=float(slack),
                            verdict=verdict, provenance=prov,
                            probe_count=int(probe_count), atol=float(atol),
                            details=details)


# ---------------------------------------------------------------------------
# probe sets


def probe_points(mu, box, grid_per_axis=17, random_count=1000, seed=1234):
    """Interior tensor grid plus seeded mu-distributed random points."""
    parts = [box.interior_grid(grid_per_axis)]
    if random_count > 0:
        rng = np.random.default_rng(seed)
        if mu is not None and mu.sampler is not None:
            draws = mu.sampler(rng, random_count)
        elif mu is not None and mu.dim <= 2:
            draws = _grid_multinomial(mu, box, random_count, rng)
        else:
            draws = box.sample_uniform(random_count, rng)
        draws = draws[box.contains(draws)]
        parts.append(draws)
    pts = np.concatenate(parts, axis=0)
    if mu is not None and mu.singular_tube is not None:
        pts = pts[~mu.singular_tube(pts)]
    return pts


def _grid_multinomial(mu, box, count, rng):
    side = 96
    nodes = box.grid(side)
    w = np.exp(mu.logpdf(nodes))
    w = w / w.sum()
    idx = rng.choice(nodes.shape[0], size=count, p=w)
    cell = 2.0 * box.half_widths / (side - 1)
    return nodes[idx] + (rng.random((count, box.dim)) - 0.5) * cell


# ---------------------------------------------------------------------------
# pair bounds for a transport map between certified densities


def _map_provenance(transport_map):
    prov = {"solver": getattr(transport_map, "provenance", "unknown")}
    eps = getattr(transport_map, "entropic_epsilon", None)
    if eps is not None:
        prov["entropic_epsilon"] = float(eps)
    return prov


def _stats_or_raise(transport_map, probes):
    stats = map_statistics(transport_map, probes)
    if np.any(stats.determinant <= 0):
        bad = int(np.argmax(stats.determinant <= 0))
        raise ConvexityViolationError(
            "transport Jacobian determinant is not positive at a probe",
            probe=np.atleast_2d(probes)[bad])
    return stats


def _jacobian_check(bound_name, statistic, rhs, transport_map, alpha, kappa,
                    probes, stats):
    """sup over the probes of one Jacobian statistic against rhs(n)."""
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if stats is None:
        stats = _stats_or_raise(transport_map, probes)
    return make_certificate(
        bound_name, rhs(probes.shape[1]),
        float(getattr(stats, statistic).max()), None,
        _map_provenance(transport_map), probes.shape[0],
        details={"alpha": alpha, "kappa": kappa,
                 "max_asymmetry": float(stats.asymmetry.max())})


def check_trace_bound(transport_map, alpha, kappa, probes, stats=None):
    """sup of the map's Jacobian trace against n sqrt(alpha/kappa).

    `stats`, the map's statistics on the probes, skips their computation.
    """
    return _jacobian_check("trace", "trace",
                           lambda n: n * np.sqrt(alpha / kappa),
                           transport_map, alpha, kappa, probes, stats)


def check_lipschitz_bound(transport_map, alpha, kappa, probes, stats=None):
    """sup of the Jacobian operator norm against n sqrt(alpha/kappa)."""
    return _jacobian_check("lipschitz", "operator_norm",
                           lambda n: n * np.sqrt(alpha / kappa),
                           transport_map, alpha, kappa, probes, stats)


def check_determinant_bound(transport_map, alpha, kappa, probes, stats=None):
    """sup of the Jacobian determinant against (alpha/kappa)^(n/2)."""
    return _jacobian_check("determinant", "determinant",
                           lambda n: (alpha / kappa) ** (n / 2.0),
                           transport_map, alpha, kappa, probes, stats)


def check_jacobian_bounds(transport_map, alpha, kappa, probes,
                          jacobians=None):
    """The trace, Lipschitz and determinant certificates, in that order,
    from one evaluation of the map's Jacobian on the probes.

    `jacobians`, the map's Jacobians on the probes, skips that evaluation.
    """
    stats = _stats_or_raise(
        transport_map if jacobians is None else (lambda _: jacobians),
        probes)
    return [check(transport_map, alpha, kappa, probes, stats=stats)
            for check in (check_trace_bound, check_lipschitz_bound,
                          check_determinant_bound)]


def check_lp_moment_bound(transport_map, alpha, kappa, p, mu, box):
    """L^(p+1)(mu) norm of (trace J)^2 against n^2 alpha / kappa.

    Integrates against mu with a tensor Gauss-Legendre rule on the box,
    so mu must have dim <= 2. The slack is the map provenance's default.
    """
    if p <= 0:
        raise DomainError("p must be positive")
    if mu.dim > 2:
        raise DomainError("the moment quadrature needs a box of dim <= 2")
    pts, w = quadrature.box_gauss_legendre(box, order=32, panels=4)
    weights = w * np.exp(mu.logpdf(pts))
    stats = _stats_or_raise(transport_map, pts)
    integrand = stats.trace ** (2.0 * (p + 1.0))
    total_mass = float(np.sum(weights))
    moment = float(np.dot(weights, integrand)) / total_mass
    observed = moment ** (1.0 / (p + 1.0))
    rhs = pts.shape[1] ** 2 * alpha / kappa
    return make_certificate(
        "lp_moment", rhs, observed, None, _map_provenance(transport_map),
        pts.shape[0],
        details={"alpha": alpha, "kappa": kappa, "p": p,
                 "quadrature_mass": total_mass})
