"""Batch driver: solve transport pairs, run bound checks, emit reports.

Subcommands
  verify    solve a pair and check the trace / Lipschitz / determinant /
            moment bounds
  geodesic  displacement interpolation: convex-integral monotonicity,
            majorization, entropy stability
  heatflow  semigroup interpolation flow and its volume contraction
  scenario  build a named instance and run its full check suite
  selftest  deterministic closed-form oracle battery (the `selftest` kind)

All five run one dispatcher over one table, `_SUITES`: scenario kind ->
[(check name, commands that run it, thunk)].  A pair with no entry raises
DomainError before any check runs; each thunk solves its own map, so a
solver failure is that check's error in the report.

Common flags: --config (JSON document), --seed, --out, --format
(comma list from structured,tabular,plotdata), --epsilon-schedule,
--cache.  The document's keys are declared in `CONFIG` and typed by the
same resolver as each kind's params; the positional name and each flag
override their key.  Reports are byte-stable for a fixed config and seed;
anything time-dependent goes to a sibling timings file (or stderr).  Exit
status: 0 all checks pass, 1 any failure, 2 inconclusive without
failures, 3 execution error.  No interactive mode, no plot rendering
(plotdata is the raw series), no network services.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import (brenier, calculus, heatflow, majorize, measures, polyexp,
               scenarios, semigroup, verify)
from .errors import DomainError
from .measures import TruncationBox
from .verify import (FAIL, INCONCLUSIVE, PASS, PASS_WITH_SLACK,
                     make_certificate, probe_points)

FORMATS = ("structured", "tabular", "plotdata")
COMMANDS = ("verify", "geodesic", "heatflow", "scenario", "selftest")
_DEFAULT_SCENARIO = {"verify": "gaussian", "geodesic": "wehrl",
                     "heatflow": "flow", "selftest": "selftest"}

# Fixed sizes and tolerances of the checks; no config sets them.  The
# other checks' tolerances are their library defaults.
LP_POWER = 1.0                      # the moment bound's L^p power
LAPLACIAN_PROBES = 1500             # Coulomb potential-Laplacian probes
FIT_POINTS = 600                    # Coulomb sample-route affine fits
RECORD_EVERY = 4                    # heat-flow schedule steps per frame
CONTRACTION_ATOL = 1e-6             # heat-flow contraction integrator atol
ENTROPIC_MAJORIZATION_ATOL = 1e-3   # wehrl grid-route majorization atol


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: everything the run depends on, nothing else."""

    command: str
    scenario: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    epsilon_schedule: tuple | None = None
    formats: tuple = ("structured",)
    out_dir: str | None = None
    cache_dir: str | None = None

    def canonical(self):
        """The determinism scope: config content that shapes the report."""
        return {
            "command": self.command,
            "scenario": self.scenario,
            "params": verify._jsonable(self.params),
            "seed": int(self.seed),
            "epsilon_schedule": (None if self.epsilon_schedule is None
                                 else [float(e) for e in self.epsilon_schedule]),
        }

    def content_hash(self):
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class RunReport:
    """Everything a run produced, ready for the three output formats."""

    config: dict
    config_hash: str
    certificates: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def verdict_counts(self):
        counts = {PASS: 0, PASS_WITH_SLACK: 0, INCONCLUSIVE: 0, FAIL: 0}
        for cert in self.certificates:
            counts[cert["verdict"]] = counts.get(cert["verdict"], 0) + 1
        return counts

    def exit_code(self):
        if self.errors:
            return 3
        counts = self.verdict_counts()
        if counts.get(FAIL, 0):
            return 1
        if counts.get(INCONCLUSIVE, 0):
            return 2
        return 0

    def as_dict(self):
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "certificates": self.certificates,
            "tables": self.tables,
            "series": self.series,
            "summaries": self.summaries,
            "errors": self.errors,
            "verdicts": self.verdict_counts(),
            "exit_code": self.exit_code(),
        }

    def structured(self):
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def tabular(self):
        lines = [f"# {self.config['command']} scenario={self.config['scenario']} "
                 f"seed={self.config['seed']}"]
        header = (f"{'check':34} {'bound':26} {'verdict':15} "
                  f"{'observed':>14} {'rhs':>14} {'slack':>8} {'atol':>10}")
        lines.append(header)
        lines.append("-" * len(header))
        for cert in self.certificates:
            lines.append(
                f"{cert['check']:34} {cert['bound_name']:26} "
                f"{cert['verdict']:15} {cert['observed']:>14.6e} "
                f"{cert['theoretical_rhs']:>14.6e} {cert['slack']:>8.3g} "
                f"{cert['atol']:>10.3g}")
        for key in sorted(self.summaries):
            lines.append(f"summary {key} = "
                         f"{json.dumps(self.summaries[key], sort_keys=True)}")
        for err in self.errors:
            lines.append(f"error {err['check']}: {err['error']}")
        counts = self.verdict_counts()
        lines.append("verdicts " + " ".join(
            f"{k}={counts[k]}" for k in (PASS, PASS_WITH_SLACK,
                                         INCONCLUSIVE, FAIL)))
        return "\n".join(lines) + "\n"

    def plotdata(self):
        return json.dumps({"config_hash": self.config_hash,
                           "series": self.series},
                          sort_keys=True, indent=2) + "\n"

    def render(self, fmt):
        if fmt == "structured":
            return self.structured()
        if fmt == "tabular":
            return self.tabular()
        if fmt == "plotdata":
            return self.plotdata()
        raise DomainError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# check execution


def _run_checks(checks, report, timings):
    """Run (name, fn) pairs concurrently; assemble results by check name.

    Each fn returns a dict with optional keys certificates / tables /
    series / summaries.  A check that raises is recorded as an error and
    the run continues.
    """
    results = {}

    def wrap(name, fn):
        t0 = time.perf_counter()
        try:
            out = fn() or {}
            return name, out, None, time.perf_counter() - t0
        except Exception as exc:
            return (name, None, f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - t0)

    with ThreadPoolExecutor(max_workers=min(8, max(1, len(checks)))) as pool:
        futures = [pool.submit(wrap, name, fn) for name, fn in checks]
        for fut in futures:
            name, out, err, dt = fut.result()
            timings["checks"][name] = dt
            results[name] = (out, err)

    for name in sorted(results):
        out, err = results[name]
        if err is not None:
            report.errors.append({"check": name, "error": err})
            continue
        for cert in out.get("certificates", ()):
            d = cert.to_dict()
            d["check"] = name
            report.certificates.append(d)
        report.tables.update(out.get("tables", {}))
        report.series.update(out.get("series", {}))
        report.summaries.update(out.get("summaries", {}))
    report.certificates.sort(key=lambda c: (c["check"], c["bound_name"]))
    report.errors.sort(key=lambda e: e["check"])


def _downgrade(cert, reason):
    """Weaken a passing certificate to inconclusive (sampler quality)."""
    if cert.verdict not in (PASS, PASS_WITH_SLACK):
        return cert
    return replace(cert, verdict=INCONCLUSIVE,
                   details={**cert.details, "downgraded": reason})


# ---------------------------------------------------------------------------
# transport solve helpers


def _box_for(density, half):
    return TruncationBox(np.asarray(density.center, dtype=float),
                         np.full(density.dim, half))


def _cache_path(cfg, schedule, stage):
    """One stage's grid map, keyed by the scenario, the params that shape
    the grid solve and the schedule up to that stage: neither the command,
    the seed nor a param the solve does not read splits the cache."""
    shaping = {name: cfg.params[name] for name, spec
               in scenarios.PARAMS[cfg.scenario].items() if spec.shapes}
    key = json.dumps([cfg.scenario, shaping, schedule[:stage + 1]],
                     sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:20]
    return os.path.join(cfg.cache_dir, f"gridmap-{digest}.npz")


def _entropic_stage_maps(cfg, mu, nu, box):
    """Schedule solve on `box` with optional on-disk reuse of each stage's
    map."""
    schedule = list(cfg.params["epsilon_schedule"])
    side = cfg.params["side"]
    if cfg.cache_dir:
        paths = [_cache_path(cfg, schedule, k) for k in range(len(schedule))]
        if all(os.path.exists(p) for p in paths):
            axes = box.axis_nodes(side)
            try:
                return [brenier.load_grid_map(p, eps, axes)
                        for p, eps in zip(paths, schedule)], schedule
            except DomainError:
                pass    # a damaged or mismatched stage file is a miss
    maps = brenier.solve_entropic_schedule(mu, nu, schedule, box, side=side)
    if cfg.cache_dir:
        os.makedirs(cfg.cache_dir, exist_ok=True)
        for path, tmap in zip(paths, maps):
            brenier.save_grid_map(path, tmap)
    return maps, schedule


def _pair_constants(mu, nu):
    alpha = mu.certificate.alpha if mu.certificate else None
    kappa = nu.certificate.kappa if nu.certificate else None
    if alpha is None or kappa is None:
        raise DomainError("pair lacks analytic convexity constants")
    return alpha, kappa


def _solve_closed_or_radial(cfg, mu, nu):
    """The closed form for a Gaussian pair, else the radial map, which
    refuses a pair that is not radial or not co-centred."""
    if mu.kind == "gaussian" and nu.kind == "gaussian":
        return brenier.solve_gaussian(mu, nu)
    return brenier.solve_radial(mu, nu, r_max=cfg.params["r_max"])


def _shared_solve(cfg, mu, nu):
    """One closed or radial solve for all checks of a run: the first call
    solves under a lock and later calls reuse the map. A failed solve is
    not kept, so every check that asks records its own error."""
    lock = threading.Lock()
    solved = []

    def solve():
        with lock:
            if not solved:
                solved.append(_solve_closed_or_radial(cfg, mu, nu))
        return solved[0]
    return solve


# ---------------------------------------------------------------------------
# checks


def _growth_direct(cfg, built):
    inst = built["instance"]
    rng = np.random.default_rng(cfg.seed)
    probes = inst.nu.sampler(rng, cfg.params["probes"])
    margins = np.asarray(inst.direct_check(probes)["log_margins"],
                         dtype=float)
    finite = np.sort(margins[np.isfinite(margins)])
    mid = finite.size // 2
    # np.median would import numpy.ma (about 18 ms) on first use
    median = finite[mid] if finite.size % 2 else \
        (finite[mid - 1] + finite[mid]) / 2
    cert = make_certificate(
        f"{built['kind']}_growth_direct", 0.0, -float(finite.min()), 0.0,
        {"solver": "direct"}, int(finite.size),
        details={"negated_margin": True, "median_margin": float(median)})
    return {"certificates": [cert]}


def _bound_suite(cfg, mu, nu, solve, half):
    """Trace, Lipschitz, determinant and moment bounds on the exact map.

    The moment bound's tensor quadrature covers dim <= 2 only; above that
    the suite carries the three pointwise certificates alone.
    """
    alpha, kappa = _pair_constants(mu, nu)
    tmap = solve()
    box = _box_for(mu, half)
    probes = probe_points(mu, box, seed=cfg.seed)
    J = tmap.jacobian(probes)
    certs = verify.check_jacobian_bounds(tmap, alpha, kappa, probes,
                                         jacobians=J)
    if mu.dim <= 2:
        certs.append(verify.check_lp_moment_bound(tmap, alpha, kappa,
                                                  LP_POWER, mu, box=box))
    return certs, tmap, probes, J


def _verify_gaussian(cfg, mu, nu, solve):
    certs, tmap, probes, J = _bound_suite(cfg, mu, nu, solve,
                                          cfg.params["box_half"])
    res = brenier.monge_ampere_residual(tmap, mu, nu, probes, jacobians=J)
    return {"certificates": certs,
            "summaries": {"monge_ampere_sup_residual": res.sup_abs}}


def _verify_anisotropic(cfg, built):
    certs, rows, gaps = [], [], []
    for eps, (mu, nu, alpha) in zip(built["epsilons"], built["pairs"]):
        tmap = brenier.solve_gaussian(mu, nu)
        box = TruncationBox.cube(mu.dim, 4.0)
        probes = probe_points(mu, box, grid_per_axis=9, random_count=200,
                              seed=cfg.seed)
        cert = verify.check_lipschitz_bound(tmap, alpha, 1.0, probes)
        certs.append(cert)
        gap = cert.theoretical_rhs - cert.observed
        rows.append([float(eps), cert.observed, cert.theoretical_rhs, gap])
        gaps.append(gap)
    monotone = bool(np.all(np.diff(gaps) <= 1e-12))
    return {
        "certificates": certs,
        "tables": {"lipschitz_gap": {
            "columns": ["epsilon", "observed", "rhs", "gap"], "rows": rows}},
        "series": {"lipschitz_gap_vs_epsilon":
                   [[r[0], r[3]] for r in rows]},
        "summaries": {"lipschitz_gap_monotone": monotone,
                      "lipschitz_gap_limit": gaps[-1] if gaps else None},
    }


def _wehrl_entropic_bounds(cfg, mu, nu):
    alpha, kappa = _pair_constants(mu, nu)
    box = _box_for(mu, cfg.params["box_half"]["entropic"])
    maps, schedule = _entropic_stage_maps(cfg, mu, nu, box)
    probes = probe_points(mu, box, grid_per_axis=13, random_count=400,
                          seed=cfg.seed)
    trend = [float(calculus.map_statistics(tmap, probes).determinant.max())
             for tmap in maps]
    cert = make_certificate(
        "determinant", (alpha / kappa) ** (mu.dim / 2.0), trend[-1], None,
        {"solver": "entropic_grid", "epsilon": schedule[-1],
         "schedule": schedule}, probes.shape[0],
        epsilon_trend=trend,
        details={"alpha": alpha, "kappa": kappa})
    return {"certificates": [cert],
            "series": {"determinant_vs_epsilon":
                       [[e, v] for e, v in zip(schedule, trend)]}}


def _wehrl_majorization(cfg, mu, nu):
    box = _box_for(mu, cfg.params["box_half"]["entropic"])
    maj = majorize.majorization_from_densities(
        mu, nu, box, atol=ENTROPIC_MAJORIZATION_ATOL)
    return {"certificates": [make_certificate(
        "majorization", 0.0, maj.worst_margin, 0.0, {"solver": "quadrature"},
        7, atol=maj.atol)]}


def _verify_coulomb(cfg, built):
    inst = built["instance"]
    mu = inst.mu
    rng = np.random.default_rng(cfg.seed)
    probes = inst.nu.sampler(rng, LAPLACIAN_PROBES)
    keep = ~mu.singular_tube(probes)
    lap = mu.potential_laplacian(probes[keep]) / mu.dim
    cert = make_certificate(
        "potential_laplacian", inst.certificate.alpha, float(lap.max()), 0.0,
        {"solver": "analytic"}, int(keep.sum()),
        details={"off_tube_fraction": float(keep.mean())})
    perm = np.arange(mu.dim).reshape(-1, 2)[::-1].reshape(-1)
    swap_err = float(np.abs(mu.logpdf(probes[keep])
                            - mu.logpdf(probes[keep][:, perm])).max())
    return {"certificates": [cert],
            "summaries": {"exchangeability_error": swap_err}}


def _geodesic_suite(cfg, mu, nu, solve, half):
    times = np.linspace(0.0, 1.0, cfg.params["time_points"])
    tmap = solve()
    geo = majorize.Geodesic(mu, nu, tmap, _box_for(mu, half))
    geo_report = majorize.geodesic_monotonicity_check(geo, times=times)
    worst_drop = 0.0
    scale = 1.0
    series = {}
    for name, seq in sorted(geo_report.values.items()):
        drops = np.maximum(-np.diff(seq), 0.0)
        worst_drop = max(worst_drop, float(drops.max()))
        scale = max(scale, float(np.abs(seq).max()))
        series[f"convex_integral:{name}"] = [
            [float(t), float(v)] for t, v in zip(times, seq)]
    geo_cert = make_certificate(
        "geodesic_monotonicity", 0.0, worst_drop, 0.0,
        {"solver": tmap.provenance}, times.size,
        atol=geo_report.tol * scale,
        details={"per_probe_monotone": geo_report.monotone})

    maj = majorize.majorization_check(geo.rho_mu, geo.rho_nu, geo.weights,
                                      geo.weights)
    maj_cert = make_certificate(
        "majorization", 0.0, maj.worst_margin, 0.0,
        {"solver": tmap.provenance},
        len(maj.margins), atol=maj.atol,
        details={"worst_probe": maj.worst_probe, "margins": maj.margins})

    ent = majorize.entropy_stability_check(geo)
    series["entropy_along"] = [
        [float(t), float(h)] for t, h in zip(times, geo_report.entropy)]
    return {
        "certificates": [geo_cert, maj_cert, ent.certificate],
        "series": series,
        "summaries": {"entropy_source": ent.entropy_source,
                      "entropy_target": ent.entropy_target,
                      "entropy_gap": ent.gap},
    }


def _heatflow_suite(cfg, built):
    f, mu, alpha = built["weight"], built["mu"], built["alpha"]
    rng = np.random.default_rng(cfg.seed)
    particles = mu.sampler(rng, cfg.params["particles"])
    states = heatflow.integrate_flow(f, particles,
                                     schedule=heatflow.FlowSchedule(),
                                     record_every=RECORD_EVERY)
    # Gaussian weights achieve the contraction bound exactly, so the
    # certificate carries the integrator tolerance explicitly
    contraction = heatflow.check_km_contraction(states, alpha, f=f,
                                                atol=CONTRACTION_ATOL)
    push = heatflow.km_pushforward_check(states)
    certs = [contraction, push]
    series = {
        "sup_determinant_vs_t": [
            [float(st.t), float(st.determinants.max())] for st in states],
        "contraction_rhs_vs_t": [
            [float(st.t), heatflow.km_bound_rhs(alpha, st.t, mu.dim)]
            for st in states],
    }
    summaries = {
        "route_agreement": max(float(st.route_agreement()) for st in states),
        "terminal_sup_determinant":
            contraction.details["terminal_sup_det"],
        "tail_error_bar": contraction.details["tail_error_bar"],
    }
    return {"certificates": certs, "series": series, "summaries": summaries}


def _q95(values):
    """np.quantile(values, 0.95), its linear interpolation bit for bit;
    np.quantile would import numpy.ma (15-18 ms) on first use."""
    v = np.sort(values)
    if np.isnan(v[-1]):
        return np.nan
    pos = (v.size - 1) * 0.95
    lo = int(pos)
    if lo >= v.size - 1:
        return v[-1]
    frac = pos - lo
    a, b = v[lo], v[lo + 1]
    # numpy's lerp: from the nearer end
    return b - (b - a) * (1 - frac) if frac >= 0.5 else a + (b - a) * frac


def _coulomb_sample_suite(cfg, built):
    inst = built["instance"]
    n = inst.mu.dim
    count = cfg.params["samples"]
    xs, diag = inst.sample(count, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    ys = inst.nu.sampler(rng, count)
    schedule = list(cfg.params["epsilon_schedule"])
    tvals, _ = brenier.solve_entropic_sample(xs, ys, schedule)
    jac, ok = brenier.local_affine_jacobians(
        xs, tvals, xs[:FIT_POINTS], 4 * n + 56)
    div = np.einsum("mii->m", jac[ok])
    q95 = float(_q95(div))
    cert = make_certificate(
        "sample_divergence", float(n), q95, None,
        {"solver": "entropic_sample", "epsilon": schedule[-1]},
        int(ok.sum()),
        details={"divergence_mean": float(div.mean()),
                 "fit_ok_fraction": float(ok.mean()),
                 "sampler": diag})
    certs = [cert]
    if diag.get("quality_warning"):
        certs = [_downgrade(cert, diag.get("note", "sampler mixing"))]

    h_nu = -0.5 * n * math.log(
        2.0 * math.pi * math.e / (inst.spec.beta * inst.spec.particles))
    h_mu, ci = majorize.entropy_knn(xs, bootstrap=24, seed=cfg.seed)
    return {
        "certificates": certs,
        "summaries": {
            "entropy_gap_estimate": {
                "value": h_nu - h_mu, "ci": ci,
                "target_entropy": h_nu, "source_entropy_estimate": h_mu,
                "note": "reported as estimate only; no verdict attached"},
            "sampler_diagnostics": diag,
        },
    }


# ---------------------------------------------------------------------------
# selftest battery


def _selftest_gaussian():
    mu, nu = scenarios.gaussian_pair(2.0, 1.0)
    tmap = brenier.solve_gaussian(mu, nu)
    A = tmap.details["matrix"]
    trace_cert = make_certificate(
        "trace", 1.0, float(np.trace(A)), 0.0,
        {"solver": "closed_form_gaussian"}, 1,
        details={"sharp": True, "gap": abs(float(np.trace(A)) - 1.0)})
    det_cert = make_certificate(
        "determinant", 0.25, float(np.linalg.det(A)), 0.0,
        {"solver": "closed_form_gaussian"}, 1,
        details={"sharp": True, "gap": abs(float(np.linalg.det(A)) - 0.25)})
    return {"certificates": [trace_cert, det_cert]}


def _selftest_anisotropic(seed):
    mu, nu, alpha = scenarios.anisotropic_pair(0.1)
    tmap = brenier.solve_gaussian(mu, nu)
    box = TruncationBox.cube(2, 4.0)
    probes = probe_points(mu, box, grid_per_axis=9, random_count=100,
                          seed=seed)
    cert = verify.check_lipschitz_bound(tmap, alpha, 1.0, probes)
    return {"certificates": [cert]}


def _selftest_quantile():
    mu = measures.gaussian(np.zeros(1), 4.0 * np.eye(1))
    nu = measures.gaussian(np.zeros(1), np.eye(1))
    box = TruncationBox.cube(1, 12.0)
    tmap = brenier.solve_quantile_1d(mu, nu, box, box)
    xs = np.linspace(-3.0, 3.0, 61)[:, None]
    err = float(np.abs(tmap(xs)[:, 0] - xs[:, 0] / 2.0).max())
    cert = make_certificate("quantile_map_error", 1e-4, err, 0.0,
                            {"solver": "quantile_1d"}, xs.shape[0])
    return {"certificates": [cert]}


def _selftest_semigroup(seed):
    msq = polyexp.modulus_squared_poly(scenarios.fock_coefficients(1))
    fam = polyexp.PolyExp.poly_times_gaussian(
        2, msq, B=2.0 * math.pi * np.eye(2))
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((40, 2))
    closed = semigroup.apply("ornstein_uhlenbeck", fam, 0.7, xs,
                             method="closed_form")
    quad = semigroup.apply("ornstein_uhlenbeck", fam, 0.7, xs,
                           method="gauss_hermite")
    err = float(np.abs(closed.value - quad.value).max())
    cert = make_certificate("semigroup_closed_form_error", 1e-8, err, 0.0,
                            {"solver": "gauss_hermite"}, xs.shape[0])
    return {"certificates": [cert]}


def _selftest_sphere_rule(seed):
    rule = calculus.SphereRule.make(2, angles=32)
    x = np.array([0.3, -0.7])

    def f(p):
        return (p[:, 0] ** 4 + 0.5 * p[:, 0] ** 2 * p[:, 1] ** 2
                + p[:, 1] ** 4)

    def lap(p):
        return 13.0 * (p[:, 0] ** 2 + p[:, 1] ** 2)

    check = calculus.delta_epsilon_limit_check(
        f, float(lap(x[None])[0]), x, [0.4, 0.2, 0.1, 0.05], rule)
    cert = make_certificate(
        "sphere_mean_limit_order", -1.9, -float(check.fitted_order), 0.0,
        {"solver": "sphere_rule"}, 4,
        details={"negated_lower_bound": True,
                 "order": float(check.fitted_order)})
    return {"certificates": [cert]}


def _selftest_wehrl(seed):
    built = scenarios.SCENARIO_BUILDERS["wehrl"](
        scenarios.resolve_params("wehrl", {}))
    mu, nu = built["mu"], built["nu"]
    tmap = brenier.solve_radial(mu, nu, r_max=8.0)
    box = TruncationBox.cube(2, 2.2)
    probes = probe_points(mu, box, grid_per_axis=13, random_count=200,
                          seed=seed)
    cert = verify.check_trace_bound(tmap, 2.0 * math.pi, 2.0 * math.pi,
                                    probes)
    return {"certificates": [cert]}


def _selftest_heatflow():
    f, mu, alpha = scenarios.flow_gaussian_weight(0.5)
    grid = TruncationBox.cube(2, 1.5).grid(7)
    schedule = heatflow.FlowSchedule(t_max=6.0, steps=64)
    states = heatflow.integrate_flow(f, grid, schedule=schedule,
                                     record_every=8)
    cert = heatflow.check_km_contraction(states, alpha, f=f, atol=1e-6)
    return {"certificates": [cert]}


# ---------------------------------------------------------------------------
# the table: scenario kind -> [(check name, commands that run it, thunk)]


def _gaussian_checks(cfg, built):
    mu, nu = built["mu"], built["nu"]
    alpha, kappa = _pair_constants(mu, nu)
    solve = _shared_solve(cfg, mu, nu)
    return [
        ("bounds", ("verify", "scenario"),
         lambda: _verify_gaussian(cfg, mu, nu, solve)),
        # the full suite adds the geodesic only when the pair contracts
        ("geodesic", ("geodesic", "scenario") if alpha <= kappa
         else ("geodesic",), lambda: _geodesic_suite(
             cfg, mu, nu, solve, cfg.params["box_half"])),
    ]


def _wehrl_checks(cfg, built):
    mu, nu, p = built["mu"], built["nu"], cfg.params
    # a given schedule selects the grid route
    entropic = cfg.epsilon_schedule is not None
    if cfg.command == "geodesic" and entropic:
        raise DomainError("epsilon_schedule is read by no geodesic check: "
                          "the geodesic runs the radial map")
    solve = _shared_solve(cfg, mu, nu)
    return [
        ("bounds", ("verify", "scenario"),
         (lambda: _wehrl_entropic_bounds(cfg, mu, nu)) if entropic
         else lambda: {"certificates": _bound_suite(
             cfg, mu, nu, solve, p["box_half"]["radial"])[0]}),
        ("geodesic", () if entropic else ("geodesic", "scenario"),
         lambda: _geodesic_suite(cfg, mu, nu, solve,
                                 p["box_half"]["radial"])),
        ("majorization", ("scenario",) if entropic else (),
         lambda: _wehrl_majorization(cfg, mu, nu)),
    ]


def _coulomb_checks(cfg, built):
    if cfg.epsilon_schedule is not None and cfg.command != "scenario":
        raise DomainError("epsilon_schedule is read by the sample route "
                          "alone, which runs only under scenario")
    return [
        ("laplacian", ("verify", "scenario"),
         lambda: _verify_coulomb(cfg, built)),
        ("sample_route", ("scenario",),
         lambda: _coulomb_sample_suite(cfg, built)),
    ]


def _selftest_checks(cfg, built):
    seed = cfg.seed
    return [(name, ("selftest",), fn) for name, fn in (
        ("a_gaussian_sharpness", _selftest_gaussian),
        ("b_anisotropic", lambda: _selftest_anisotropic(seed)),
        ("c_quantile", _selftest_quantile),
        ("d_semigroup", lambda: _selftest_semigroup(seed)),
        ("e_sphere_rule", lambda: _selftest_sphere_rule(seed)),
        ("f_wehrl_radial", lambda: _selftest_wehrl(seed)),
        ("g_heatflow", _selftest_heatflow))]


def _growth_checks(cfg, built):
    return [("growth_direct", ("verify", "scenario"),
             lambda: _growth_direct(cfg, built))]


_SUITES = {
    "gaussian": _gaussian_checks,
    "anisotropic": lambda cfg, built: [
        ("lipschitz_limit", ("verify", "scenario"),
         lambda: _verify_anisotropic(cfg, built))],
    "wehrl": _wehrl_checks,
    "coulomb": _coulomb_checks,
    "fock": _growth_checks,
    "lsh": _growth_checks,
    "flow": lambda cfg, built: [
        ("contraction", ("heatflow", "scenario"),
         lambda: _heatflow_suite(cfg, built))],
    "selftest": _selftest_checks,
}


def _checks_for(cfg, built):
    """(name, thunk) pairs the table holds for cfg.command; none runs."""
    kind = built["kind"]
    checks = [(name, fn) for name, commands, fn in _SUITES[kind](cfg, built)
              if cfg.command in commands]
    if not checks:
        raise DomainError(f"scenario kind {kind!r} has no {cfg.command} "
                          "suite")
    return checks


# ---------------------------------------------------------------------------
# driver


def run(cfg):
    """Resolve the kind's params, build it and run the checks the table
    holds for cfg.command; returns (RunReport, timings dict).

    A top-level schedule joins the raw params before they are resolved, so
    a kind that declares no epsilon_schedule refuses it.  A schedule given
    either way is the checks' cfg.epsilon_schedule, which selects routes;
    a default leaves it None.  The checks see every declared param typed
    and defaulted; the report keeps the config as given.
    """
    timings = {"checks": {}}
    t0 = time.perf_counter()
    report = RunReport(config=cfg.canonical(), config_hash=cfg.content_hash())
    raw = dict(cfg.params)
    if cfg.epsilon_schedule is not None:
        raw["epsilon_schedule"] = list(cfg.epsilon_schedule)
    params = scenarios.resolve_params(cfg.scenario, raw)
    given = "epsilon_schedule" in raw
    resolved = replace(cfg, params=params, epsilon_schedule=tuple(
        params["epsilon_schedule"]) if given else None)
    built = scenarios.SCENARIO_BUILDERS[cfg.scenario](resolved.params)
    _run_checks(_checks_for(resolved, built), report, timings)
    timings["total_s"] = time.perf_counter() - t0
    return report, timings


def emit(report, timings, cfg):
    """Write or print the requested formats; timings never enter a report."""
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        names = {"structured": "report.json", "tabular": "report.txt",
                 "plotdata": "plotdata.json"}
        for fmt in cfg.formats:
            path = os.path.join(cfg.out_dir, names[fmt])
            with open(path, "w") as fh:
                fh.write(report.render(fmt))
        with open(os.path.join(cfg.out_dir, "timings.json"), "w") as fh:
            json.dump(timings, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        for fmt in cfg.formats:
            sys.stdout.write(report.render(fmt))
        sys.stderr.write(f"timings total_s={timings['total_s']:.3f}\n")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="transportlab",
        description="transport bound verification runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("name", nargs="?", default=None,
                       help="registered scenario name")
        p.add_argument("--config", default=None,
                       help="JSON config document")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", default=None,
                       help="comma list from structured,tabular,plotdata")
        p.add_argument("--epsilon-schedule", default=None,
                       help="comma list of decreasing epsilons")
        p.add_argument("--cache", default=None,
                       help="directory for grid-map stage reuse")
    return parser.parse_args(argv)


# the config document's keys; a null scenario is the command's default
CONFIG = {
    "scenario": scenarios.Param("str or null", None,
                                ", ".join(scenarios.PARAMS)),
    "seed": scenarios.Param("int", 0, ">= 0"),
    "epsilon_schedule": scenarios.Param("list of float or null", None, "> 0"),
    "format": scenarios.Param("list of str", ("structured",),
                              ", ".join(FORMATS)),
    # not {}: a dict default would be one value per route
    "params": scenarios.Param("object", None),
}


def _resolve_config(args):
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise DomainError("config document must be a JSON object")
    flags = {"scenario": args.name, "seed": args.seed, "format": args.format}
    raw = {**doc, **{k: v for k, v in flags.items() if v is not None}}
    if isinstance(raw.get("format"), str):
        raw["format"] = raw["format"].split(",")
    if args.epsilon_schedule is not None:
        try:
            raw["epsilon_schedule"] = [
                float(v) for v in args.epsilon_schedule.split(",")]
        except ValueError:
            raise DomainError("epsilon_schedule must be a comma list of "
                              f"numbers, got {args.epsilon_schedule!r}") \
                from None
    keys = scenarios.resolve(CONFIG, raw, "config key")
    scenario = keys["scenario"] or _DEFAULT_SCENARIO.get(args.command)
    if scenario is None:
        raise DomainError("scenario name required (positional or config)")
    schedule = keys["epsilon_schedule"]
    return RunConfig(command=args.command, scenario=scenario,
                     params=keys["params"] or {}, seed=keys["seed"],
                     epsilon_schedule=schedule and tuple(schedule),
                     formats=tuple(keys["format"]), out_dir=args.out,
                     cache_dir=args.cache)


def main(argv=None):
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse exits with status 2 on usage errors, but 2 is reserved
        # for inconclusive runs; report usage problems as execution errors.
        return 0 if exc.code in (0, None) else 3
    try:
        cfg = _resolve_config(args)
        report, timings = run(cfg)
        emit(report, timings, cfg)
        return report.exit_code()
    except Exception as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
