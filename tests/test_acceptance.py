"""Acceptance battery: one test per advertised guarantee.

Each criterion pins a sharpness, convergence, or pipeline property at its
stated tolerance; the terminal summary prints one line per criterion.
"""

import math
import time

import numpy as np
import pytest

from transportlab import (brenier, calculus, cli, heatflow, majorize,
                          scenarios, semigroup, verify)
from transportlab.measures import TruncationBox
from transportlab.polyexp import PolyExp, modulus_squared_poly
from transportlab.quadrature import box_gauss_legendre
from transportlab.verify import probe_points


def _gaussian_probe_set():
    mu, nu = scenarios.gaussian_pair(2.0, 1.0)
    probes = probe_points(mu, TruncationBox.cube(2, 6.0), seed=0)
    return mu, nu, probes


def test_criterion_01_gaussian_trace_bound_is_an_equality():
    t0 = time.perf_counter()
    mu, nu, probes = _gaussian_probe_set()
    tmap = brenier.solve_gaussian(mu, nu)
    cert = verify.check_trace_bound(tmap, 0.25, 1.0, probes)
    assert cert.verdict == "pass"
    assert abs(cert.observed - 1.0) <= 1e-10
    assert abs(cert.theoretical_rhs - 1.0) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_gaussian_determinant_bound_is_an_equality():
    mu, nu, probes = _gaussian_probe_set()
    tmap = brenier.solve_gaussian(mu, nu)
    cert = verify.check_determinant_bound(tmap, 0.25, 1.0, probes)
    assert cert.verdict == "pass"
    assert abs(cert.observed - 0.25) <= 1e-10
    assert abs(cert.theoretical_rhs - 0.25) <= 1e-10


def test_criterion_03_anisotropic_lipschitz_gap_shrinks_but_never_closes():
    gaps = []
    for eps in (1.0, 0.1, 0.01):
        mu, nu, alpha = scenarios.anisotropic_pair(eps)
        tmap = brenier.solve_gaussian(mu, nu)
        probes = probe_points(mu, TruncationBox.cube(2, 6.0), seed=0)
        cert = verify.check_lipschitz_bound(tmap, alpha, 1.0, probes)
        assert cert.verdict == "pass"
        # the map stretches the first axis by exactly n = 2
        assert abs(cert.observed - 2.0) <= 1e-9
        gap = cert.theoretical_rhs - cert.observed
        want = 2.0 * math.sqrt((4.0 + eps ** 2) / 2.0) - 2.0
        assert abs(gap - want) <= 1e-9
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_criterion_04_sphere_average_limit_and_transfer_bound():
    # |x|^2/2 turns the sphere average into eps^2/2 exactly, any dimension
    f_sq = lambda x: 0.5 * np.einsum("mi,mi->m", x, x)
    for n in (1, 2):
        rule = calculus.SphereRule.make(n, angles=64, frames=32, seed=0)
        x = np.array([[0.6] * n, [-1.1] * n])
        for eps in (0.3, 0.7):
            got = calculus.delta_epsilon(f_sq, x, eps, rule)
            assert np.allclose(got, eps ** 2 / 2.0, atol=1e-13)
    # smooth non-quadratic: rescaled averages converge at quadratic order
    rule = calculus.SphereRule.make(2, angles=64, frames=32, seed=0)
    f = lambda x: np.cos(x[:, 0]) + np.exp(0.3 * x[:, 0] + 0.2 * x[:, 1])
    lap = -math.cos(0.3) + 0.13 * math.exp(0.3 * 0.3 - 0.2 * 0.2)
    chk = calculus.delta_epsilon_limit_check(
        f, lap, np.array([[0.3, -0.2]]), [0.4, 0.2, 0.1, 0.05], rule)
    assert chk.fitted_order >= 1.9
    # concave quadratics never exceed the (Delta f / n) eps^2 / 2 ceiling
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = rng.normal(size=(2, 2))
        A = -(m @ m.T) - 0.1 * np.eye(2)
        b = rng.normal(size=2)
        f_q = lambda x, A=A, b=b: (0.5 * np.einsum("mi,ij,mj->m", x, A, x)
                                   + x @ b)
        x = rng.normal(size=(1, 2)) * 1.5
        eps = float(rng.uniform(0.05, 1.5))
        got = float(calculus.delta_epsilon(f_q, x, eps, rule)[0])
        rhs = calculus.delta_epsilon_bound_rhs(float(np.trace(A)), 2, eps)
        assert got <= rhs + 1e-12


def test_criterion_05_smoothing_hessians_match_and_obey_the_floor():
    rng = np.random.default_rng(5)
    probes = rng.normal(size=(50, 2)) * 1.2
    # Gaussian weights: quadrature Hessian equals -beta a^2/(1 + beta s) Id
    for beta in (0.5, 1.0, 3.0):
        f = PolyExp.quadratic_exponent(2, beta=beta)
        for t in (0.1, 0.3, 0.7, 1.5, 3.0):
            a, s = semigroup.kernel_params(t)
            ev = semigroup.apply(f, t, probes, method="gauss_hermite")
            want = -(beta * a * a / (1.0 + beta * s)) * np.eye(2)
            assert np.abs(ev.hess_log - want).max() <= 1e-8
    saddle = PolyExp.quadratic_exponent(
        2, B=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    weights = [
        PolyExp.quadratic_exponent(2, beta=0.5),
        PolyExp.quadratic_exponent(2, beta=1.0),
        PolyExp.quadratic_exponent(2, beta=3.0),
        saddle,
        PolyExp.poly_times_gaussian(
            2, modulus_squared_poly(scenarios.fock_coefficients(1)),
            beta=2.0 * math.pi),
        PolyExp.poly_times_gaussian(
            2, {(0, 0): 1 / 3, (2, 0): 1 / 3, (0, 2): 1 / 3}),
        scenarios.flow_gaussian_weight(0.5)[0],
    ]
    floor_probes = rng.normal(size=(40, 2)) * 1.2
    for f in weights:
        for t in (0.1, 0.5, 1.0):
            cert = semigroup.check_smoothing_bounds(f, t, floor_probes)
            assert cert.verdict == "pass"
            assert cert.theoretical_rhs - cert.observed >= -1e-8
    # the saddle weight smooths to a strictly positive log-Laplacian
    for t in (0.1, 0.5, 1.0):
        ev = semigroup.apply(saddle, t, floor_probes)
        traces = np.trace(ev.hess_log, axis1=-2, axis2=-1)
        assert traces.min() > 0.0


def test_criterion_06_mollified_targets_keep_the_stated_convexity():
    mu, nu = scenarios.gaussian_pair(2.0, 1.0)
    rng = np.random.default_rng(6)
    probes = rng.normal(size=(64, 2)) * 1.2
    for k in (2, 5, 20):
        pair = semigroup.mollify(mu, nu, 0.25, 1.0, k)
        kk = semigroup.mollified_kappa(1.0, k)
        assert pair.kappa_k == pytest.approx(kk, abs=1e-15)
        eigs = pair.target.potential_hessian_min_eig(probes)
        assert np.abs(eigs - kk).max() <= 1e-6
        if k >= 5:
            # kappa - kappa_k <= kappa (kappa + 1) (2 / k)
            assert 1.0 - kk <= 4.0 / k + 1e-12


def test_criterion_07_heat_flow_tracks_the_contraction_closed_form():
    t0 = time.perf_counter()
    f, mu, alpha = scenarios.flow_gaussian_weight(0.5)
    rng = np.random.default_rng(7)
    particles = mu.sampler(rng, 1000)
    sched = heatflow.FlowSchedule(t_max=8.0, steps=76)
    states = heatflow.integrate_flow(f, particles, schedule=sched,
                                     record_every=4)
    assert len(states) == 20
    for st in states:
        rhs = heatflow.km_bound_rhs(alpha, st.t, 2)
        assert np.allclose(st.determinants, rhs, rtol=1e-6)
        assert st.route_agreement() <= 1e-6
    term, bar = heatflow.terminal_determinants(states, f)
    assert bar == 0.0
    assert np.abs(term - 4.0).max() <= 1e-5
    cert = heatflow.check_km_contraction(states, alpha, f=f, atol=1e-6)
    assert cert.verdict == "pass"
    assert cert.details["terminal_rhs"] == pytest.approx(4.0)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_08_first_number_state_full_pipeline():
    t0 = time.perf_counter()
    one = scenarios.WehrlState((1.0,),
                               (tuple(scenarios.fock_coefficients(1)),))
    mu, nu, cert = scenarios.build_wehrl_instance(one)
    assert cert.alpha == pytest.approx(2.0 * math.pi)
    assert cert.kappa == pytest.approx(2.0 * math.pi)
    tmap = brenier.solve_radial(mu, nu, r_max=8.0)
    box = TruncationBox.cube(2, 2.25)
    probes = probe_points(mu, box, seed=0)
    probes = probes[~mu.singular_tube(probes)]
    trace = verify.check_trace_bound(tmap, cert.alpha, cert.kappa, probes)
    assert trace.theoretical_rhs == pytest.approx(2.0)
    assert trace.observed <= 2.0 + 1e-6
    maj = majorize.majorization_from_densities(mu, nu, box)
    assert maj.passed and maj.worst_margin <= 1e-12
    geo = majorize.Geodesic(mu, nu, tmap, box)
    rep = majorize.geodesic_monotonicity_check(geo, tol=1e-6)
    assert rep.passed and rep.times.size == 11
    ent = majorize.entropy_stability_check(geo)
    assert ent.certificate.verdict == "pass"
    assert ent.gap >= ent.stability_rhs > 0.0
    coherent, _, _ = scenarios.build_wehrl_instance(
        scenarios.WehrlState((1.0,),
                             (tuple(scenarios.fock_coefficients(0)),)))
    h = majorize.entropy_quadrature(coherent, TruncationBox.cube(2, 3.0))
    assert abs(h - scenarios.glauber_entropy(1)) <= 1e-8
    assert time.perf_counter() - t0 < 30.0


def test_criterion_09_entropic_grid_maps_converge_to_the_affine_map():
    mu, nu = scenarios.gaussian_pair(2.0, 1.0)
    maps = brenier.solve_entropic_schedule(
        mu, nu, [0.5, 0.1, 0.03], box=TruncationBox.cube(2, 8.0), side=128,
        debias=False)
    probe_box = TruncationBox.cube(2, 6.0)
    probes = probe_points(mu, probe_box, seed=0)
    sups = [brenier.monge_ampere_residual(m, mu, nu, probes).sup_abs
            for m in maps]
    # measured on this grid: roughly [1.27, 0.29, 0.088]
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 0.1
    pts, w = box_gauss_legendre(probe_box, order=48, panels=2)
    wm = w * mu.pdf(pts)
    diff = maps[-1](pts) - 0.5 * pts
    num = math.sqrt(float((wm * (diff ** 2).sum(axis=1)).sum()))
    den = math.sqrt(float((wm * 0.25 * (pts ** 2).sum(axis=1)).sum()))
    assert num / den <= 0.02


def test_criterion_10_entropic_pipeline_reports_slack_and_trend():
    cfg = cli.RunConfig(command="scenario", scenario="wehrl",
                        params={"weights": [0.5, 0.5], "degrees": [0, 1]},
                        seed=0, epsilon_schedule=(0.5, 0.1, 0.05))
    report, _ = cli.run(cfg)
    assert not report.errors
    certs = {c["bound_name"]: c for c in report.certificates}
    det = certs["determinant"]
    assert det["verdict"] in ("pass", "pass_with_slack")
    assert det["slack"] == pytest.approx(0.05)
    trend = det["provenance"]["epsilon_trend"]
    assert len(trend) == 3
    assert trend[0] < trend[1] < trend[2] <= 1.0 + 1e-6
    assert np.allclose(trend, [0.9536, 0.9676, 0.9705], atol=0.02)
    maj = certs["majorization"]
    assert maj["verdict"] == "pass"
    assert maj["atol"] == pytest.approx(1e-3)
    assert report.exit_code() == 0


def test_criterion_11_sampled_coulomb_divergence_stays_within_slack():
    report, _ = cli.run(cli.RunConfig(command="scenario", scenario="coulomb",
                                      params={}, seed=0))
    assert not report.errors
    certs = {c["bound_name"]: c for c in report.certificates}
    lap = certs["potential_laplacian"]
    assert lap["verdict"] == "pass"
    assert lap["theoretical_rhs"] == pytest.approx(2.0)
    assert lap["observed"] <= 2.0 + 1e-9
    div = certs["sample_divergence"]
    assert div["theoretical_rhs"] == pytest.approx(4.0)
    assert div["slack"] == pytest.approx(0.10)
    assert div["verdict"] in ("pass", "pass_with_slack")
    assert div["observed"] <= 4.0 * 1.1
    gap = report.summaries["entropy_gap_estimate"]
    assert {"value", "ci", "note"} <= set(gap)
    assert "no verdict" in gap["note"]
    # the sampled route never promotes its entropy estimate to a certificate
    assert not any("entropy" in c["bound_name"] for c in report.certificates)
    assert report.exit_code() == 0


def test_criterion_12_direct_growth_checks_pass_for_ten_instances():
    rng = np.random.default_rng(12)
    focks = ([1.0], [0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0],
             [0.3, 0.2j, 0.8])
    for coeffs in focks:
        inst = scenarios.build_fock_instance(2.0, 1.0, coeffs)
        chk = inst.direct_check(inst.nu.sampler(rng, 1000))
        assert chk["passed"] and chk["min_margin"] >= -1e-9
    third = {k: v / 3.0 for k, v in modulus_squared_poly([1.0, 1.0]).items()}
    lshs = [
        (PolyExp.poly_times_gaussian(2, {(2, 0): 0.5, (0, 2): 0.5}), 0.0),
        (PolyExp.poly_times_gaussian(
            2, {(4, 0): 0.125, (2, 2): 0.25, (0, 4): 0.125}), 0.0),
        (PolyExp.quadratic_exponent(2, beta=0.5), 0.5),
        (PolyExp.poly_times_gaussian(
            2, {(0, 0): 1 / 3, (2, 0): 1 / 3, (0, 2): 1 / 3}), 0.0),
        (PolyExp.poly_times_gaussian(2, third), 0.0),
    ]
    for weight, beta in lshs:
        inst = scenarios.build_lsh_instance(weight, beta=beta)
        chk = inst.direct_check(inst.nu.sampler(rng, 1000))
        assert chk["passed"] and chk["min_margin"] >= -1e-9


def test_criterion_13_selftest_reports_are_byte_identical(tmp_path):
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = cli.main(["selftest", "--out", str(out),
                       "--format", "structured"])
        assert rc == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
