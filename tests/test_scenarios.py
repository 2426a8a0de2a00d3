"""Worked instances: entire-function growth, Husimi states, Coulomb gas."""

import json
import math
import pathlib

import numpy as np
import pytest

from transportlab import brenier, cli, scenarios
from transportlab.errors import (AccuracyError, CertificateConflictError,
                                 DomainError)
from transportlab.majorize import entropy_quadrature
from transportlab.measures import TruncationBox
from transportlab.polyexp import PolyExp
from transportlab.quadrature import box_gauss_legendre
from transportlab.scenarios import (SCENARIO_BUILDERS, CoulombInstance,
                                    CoulombSpec, WehrlState, anisotropic_pair,
                                    build_fock_instance, build_lsh_instance,
                                    build_wehrl_instance, flow_gaussian_weight,
                                    fock_coefficients, fock_norm,
                                    gaussian_pair, glauber_entropy,
                                    gram_matrix, resolve_params, split_rhat)


# ---------------------------------------------------------------------------
# entire-function norms and growth instances


def test_fock_norm_of_constants_is_one():
    for p in (1.0, 2.0, 3.5):
        for sigma in (0.5, 1.0, 2.0):
            assert fock_norm([1.0], p, sigma) == pytest.approx(1.0)


def test_fock_norm_p2_multiterm_uses_monomial_orthogonality():
    # p = 2 cross terms vanish: ||c0 + c1 z||^2 = |c0|^2 + |c1|^2 sigma
    for sigma in (0.7, 1.3):
        got = fock_norm([1.0, 1.0], 2.0, sigma)
        assert got == pytest.approx(math.sqrt(1.0 + sigma), rel=1e-9)


def test_fock_norm_quadrature_agrees_with_monomial_closed_form():
    closed = fock_norm([0.0, 0.0, 2.0], 4.0, 1.5)
    assert closed == pytest.approx((16.0 * 24.0 * 0.75 ** 4) ** 0.25, rel=1e-12)
    # a negligible extra coefficient forces the quadrature route
    quad = fock_norm([1e-9, 0.0, 2.0], 4.0, 1.5)
    assert quad == pytest.approx(closed, rel=1e-8)


def test_fock_norm_rejects_bad_inputs():
    with pytest.raises(DomainError):
        fock_norm([0.0], 2.0, 1.0)
    with pytest.raises(DomainError):
        fock_norm([1.0], -2.0, 1.0)
    with pytest.raises(DomainError):
        fock_norm([1.0], 2.0, 0.0)


def test_fock_instance_linear_function():
    inst = build_fock_instance(2.0, 1.0, [0.0, 1.0])
    assert np.abs(inst.coeffs[1]) == pytest.approx(1.0)
    # margin |z|^2/2 - log|z| is minimized at |z| = 1 with value 1/2
    rs = np.append(np.linspace(0.05, 3.0, 241), 1.0)
    chk = inst.direct_check(np.column_stack([rs, np.zeros_like(rs)]))
    assert chk["passed"]
    assert chk["min_margin"] == pytest.approx(0.5, abs=1e-12)
    one = inst.direct_check(np.array([1.0 + 0.0j]))
    assert one["log_margins"][0] == pytest.approx(0.5, abs=1e-12)
    # unit norm: |f|^p gamma_{sigma/p} integrates to 1, with p = 2, sigma = 1
    pts, w = box_gauss_legendre(TruncationBox.cube(2, 7.0), order=48, panels=4)
    z = pts[:, 0] + 1j * pts[:, 1]
    f = np.polynomial.polynomial.polyval(z, np.asarray(inst.coeffs))
    gamma = np.exp(-(pts ** 2).sum(axis=1)) / math.pi
    assert w @ (np.abs(f) ** 2 * gamma) == pytest.approx(1.0, abs=1e-8)


def test_fock_instance_constant_function_equality_point():
    # a unit-norm constant meets the growth bound at the origin only
    inst = build_fock_instance(2.0, 1.0, [3.0])
    chk = inst.direct_check(np.array([0.0 + 0.0j, 0.5, 1.0j]))
    assert chk["log_margins"][0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(chk["log_margins"][1:] > 0.0)


def test_fock_instance_rejects_bad_polynomials():
    with pytest.raises(DomainError):
        build_fock_instance(2.0, 1.0, [0.0, 0.0])


# ---------------------------------------------------------------------------
# log-subharmonic weights


def test_lsh_gaussian_weight_is_the_equality_case():
    weight = PolyExp.quadratic_exponent(2, beta=0.5)
    inst = build_lsh_instance(weight, beta=0.5)
    assert inst.certificate.alpha == pytest.approx(1.5)
    assert inst.certificate.kappa == pytest.approx(1.0)
    pts, w = box_gauss_legendre(TruncationBox.cube(2, 9.0), order=48, panels=4)
    assert w @ inst.mu.pdf(pts) == pytest.approx(1.0, abs=1e-9)
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, -1.1]])
    chk = inst.direct_check(x)
    # normalized weight is (1+beta) e^{-beta |x|^2/2}: margin (1+beta)|x|^2/2
    want = 0.75 * (x ** 2).sum(axis=1)
    assert np.allclose(chk["log_margins"], want, atol=1e-10)
    assert chk["min_margin"] == pytest.approx(0.0, abs=1e-12)


def test_lsh_polynomial_weight_margins():
    poly = {(0, 0): 1.0 / 3.0, (2, 0): 1.0 / 3.0, (0, 2): 1.0 / 3.0}
    inst = build_lsh_instance(PolyExp.poly_times_gaussian(2, poly), beta=0.0)
    rs = np.linspace(0.0, 3.0, 301)
    chk = inst.direct_check(np.column_stack([rs, np.zeros_like(rs)]))
    assert chk["passed"]
    # margin |x|^2/2 - log((1+|x|^2)/3) dips to 1/2 + log(3/2) at |x| = 1
    assert chk["min_margin"] == pytest.approx(0.5 + math.log(1.5), abs=1e-6)


def test_lsh_rejects_weights_with_negative_log_laplacian():
    with pytest.raises(CertificateConflictError):
        build_lsh_instance(PolyExp.poly_times_gaussian(2, {(2, 0): 1.0}),
                           beta=0.0)
    with pytest.raises(DomainError):
        build_lsh_instance(PolyExp.quadratic_exponent(2, beta=0.5), beta=-1.0)


# ---------------------------------------------------------------------------
# Husimi densities


def test_wehrl_state_validation():
    f1 = tuple(fock_coefficients(1))
    with pytest.raises(DomainError):
        WehrlState((0.7, 0.7), (f1, tuple(fock_coefficients(0))))
    with pytest.raises(DomainError):
        WehrlState((1.5, -0.5), (f1, tuple(fock_coefficients(0))))
    with pytest.raises(DomainError):
        WehrlState((1.0,), ((0.0, 0.0),))
    with pytest.raises(DomainError):
        WehrlState((1.0,), (f1,), center=(1.0, 2.0, 3.0))
    st = WehrlState((0.5, 0.5), (tuple(fock_coefficients(0)), f1))
    assert st.max_degree() == 1


def test_fock_coefficients_and_gram_identity():
    with pytest.raises(DomainError):
        fock_coefficients(-1)
    c2 = fock_coefficients(2)
    assert c2[2] == pytest.approx(2.0 ** 0.25 * math.pi / math.sqrt(2.0))
    st = WehrlState((0.25, 0.25, 0.5),
                    tuple(tuple(fock_coefficients(m)) for m in (0, 1, 2)))
    G = gram_matrix(st)
    assert np.abs(G - np.eye(3)).max() < 1e-14


def test_wehrl_rejects_non_orthonormal_components():
    dup = tuple(fock_coefficients(0))
    with pytest.raises(DomainError):
        build_wehrl_instance(WehrlState((0.5, 0.5), (dup, dup)))
    scaled = tuple(2.0 * c for c in fock_coefficients(1))
    with pytest.raises(DomainError):
        build_wehrl_instance(WehrlState((1.0,), (scaled,)))


def test_wehrl_radial_profiles_match_closed_forms():
    mu1, nu1, cert = build_wehrl_instance(
        WehrlState((1.0,), (tuple(fock_coefficients(1)),)))
    assert cert.alpha == pytest.approx(2.0 * math.pi)
    assert cert.kappa == pytest.approx(2.0 * math.pi)
    r = np.linspace(0.0, 2.5, 26)
    want1 = math.pi * r ** 2 * np.exp(-math.pi * r ** 2)
    assert np.allclose(mu1.radial_profile(r), want1, atol=1e-12)
    rp = r[r > 0]  # the density itself vanishes at the Bargmann zero
    assert np.allclose(mu1.pdf(np.column_stack([rp, np.zeros_like(rp)])),
                       math.pi * rp ** 2 * np.exp(-math.pi * rp ** 2),
                       atol=1e-12)
    mixed, _, _ = build_wehrl_instance(
        WehrlState((0.5, 0.5), (tuple(fock_coefficients(0)),
                                tuple(fock_coefficients(1)))))
    want_mix = 0.5 * (1.0 + math.pi * r ** 2) * np.exp(-math.pi * r ** 2)
    assert np.allclose(mixed.radial_profile(r), want_mix, atol=1e-12)
    # the Gaussian target leaves variance 1/(2 pi) per axis
    assert np.allclose(np.diag(nu1.params["cov"]), 1.0 / (2.0 * math.pi)) \
        if "cov" in nu1.params else True


def test_coherent_state_peaks_at_one_with_entropy_minus_d():
    mu, _, _ = build_wehrl_instance(
        WehrlState((1.0,), (tuple(fock_coefficients(0)),)))
    assert mu.pdf(np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-12)
    ent = entropy_quadrature(mu, TruncationBox.cube(2, 3.0), order=48)
    assert ent == pytest.approx(glauber_entropy(1), abs=1e-8)
    assert glauber_entropy(3) == -3.0


def test_wehrl_displacement_moves_the_pair():
    base, _, _ = build_wehrl_instance(
        WehrlState((1.0,), (tuple(fock_coefficients(1)),)))
    moved, nu, _ = build_wehrl_instance(
        WehrlState((1.0,), (tuple(fock_coefficients(1)),), center=(0.7, -0.4)))
    # phase-space center (q0, p0) lands at (q0, -p0) in density coordinates
    assert np.allclose(moved.center, [0.7, 0.4])
    assert np.allclose(nu.center, [0.7, 0.4])
    probe = np.array([[0.3, -0.2], [1.0, 0.5]])
    assert np.allclose(moved.pdf(probe + moved.center), base.pdf(probe),
                       atol=1e-12)
    # a displaced mixture of number states is radial about its centre
    r = np.linspace(0.0, 2.5, 26)
    assert np.array_equal(moved.radial_profile(r), base.radial_profile(r))


# ---------------------------------------------------------------------------
# Coulomb gas


def test_coulomb_spec_validation():
    with pytest.raises(DomainError):
        CoulombSpec(particles=0)
    with pytest.raises(DomainError):
        CoulombSpec(particles=4)
    with pytest.raises(DomainError):
        CoulombSpec(particles=2, beta=0.0)
    assert CoulombSpec(particles=3).dim == 6


def _fd(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (fn(xp[None, :])[0] - fn(xm[None, :])[0]) / (2.0 * h)
    return out


def test_coulomb_derivatives_match_finite_differences():
    inst = CoulombInstance(CoulombSpec(particles=2, beta=1.0))
    x0 = np.array([0.8, 0.1, -0.5, 0.6])
    g = inst.mu.grad_log(x0[None, :])[0]
    assert np.allclose(g, _fd(inst.mu.logpdf, x0), atol=1e-7)
    H = inst.mu.hess_log(x0[None, :])[0]
    H_fd = np.stack([_fd(lambda p: inst.mu.grad_log(p)[:, i], x0)
                     for i in range(4)])
    assert np.allclose(H, 0.5 * (H_fd + H_fd.T), atol=1e-6)


def test_coulomb_potential_laplacian_is_flat_off_the_diagonal():
    inst = CoulombInstance(CoulombSpec(particles=2, beta=1.0))
    rng = np.random.default_rng(2)
    pts = rng.normal(scale=0.8, size=(64, 4))
    pts = pts[~inst.mu.singular_tube(pts)]
    lap = inst.mu.potential_laplacian(pts) / 4.0
    # interaction term is harmonic: Delta V / n = beta N exactly
    assert np.allclose(lap, 2.0, atol=1e-9)
    swapped = pts[:, [2, 3, 0, 1]]
    assert np.allclose(inst.mu.logpdf(pts), inst.mu.logpdf(swapped),
                       atol=1e-12)


def test_coulomb_diagonal_is_singular():
    inst = CoulombInstance(CoulombSpec(particles=2, beta=1.0))
    collide = np.array([[0.3, 0.4, 0.3, 0.4]])
    assert inst.mu.singular_tube(collide)[0]
    assert inst.mu.logpdf(collide)[0] == -np.inf
    apart = np.array([[0.3, 0.4, -0.3, -0.4]])
    assert not inst.mu.singular_tube(apart)[0]
    assert np.isfinite(inst.mu.logpdf(apart)[0])


def test_coulomb_sampler_reports_diagnostics():
    inst = CoulombInstance(CoulombSpec(particles=2, beta=1.0))
    samples, diag = inst.sample(200, seed=3, burn=400, thin=2)
    assert samples.shape == (200, 4)
    assert 0.05 < diag["acceptance"] < 0.95
    assert diag["rhat"] >= 1.0 - 1e-6
    assert diag["chains"] == 4


def _reference_log_density(inst, x):
    """The gas log density term by term, as the module docstring states it:
    -beta N sum_j |z_j|^2 / 2 + beta sum_{i<j} log|z_i - z_j|."""
    N, beta = inst.spec.particles, inst.spec.beta
    pts = x.reshape(x.shape[0], N, 2)
    q = 0.5 * (pts.reshape(-1, 2) ** 2).sum(axis=1)
    out = -beta * N * q.reshape(-1, N).sum(axis=1)
    for i, j in inst._pair_indices():
        out = out + 0.5 * beta * np.log(
            ((pts[:, i, :] - pts[:, j, :]) ** 2).sum(axis=1))
    return out


def _reference_chain(inst, size, seed, burn, thin, chains=4):
    """The random-walk chain step by step through `_reference_log_density`
    and `_min_pair_distance`, with the sampler's RNG calls in its order."""
    rng = np.random.default_rng(seed)
    n, spec = inst.spec.dim, inst.spec
    scale = 1.0 / math.sqrt(spec.beta * spec.particles)
    step = 0.45 * scale
    per_chain = -(-int(size) // chains)
    state = 1.5 * scale * rng.standard_normal((chains, n))
    bad = inst._min_pair_distance(state) < 1e-6
    while np.any(bad):
        state[bad] = 1.5 * scale * rng.standard_normal((int(bad.sum()), n))
        bad = inst._min_pair_distance(state) < 1e-6
    logp = _reference_log_density(inst, state)
    draws = np.empty((chains, per_chain, n))
    accepted = 0
    for it in range(burn + per_chain * thin):
        prop = state + step * rng.standard_normal((chains, n))
        ok = inst._min_pair_distance(prop) >= 1e-8
        with np.errstate(divide="ignore"):
            logp_prop = np.where(ok, _reference_log_density(inst, prop),
                                 -np.inf)
        take = np.log(rng.random(chains)) < logp_prop - logp
        state = np.where(take[:, None], prop, state)
        logp = np.where(take, logp_prop, logp)
        accepted += int(take.sum())
        if it >= burn and (it - burn) % thin == 0:
            draws[:, (it - burn) // thin, :] = state
    rhat = split_rhat(draws)
    samples = draws.reshape(-1, n)
    rng.shuffle(samples)
    return samples[:int(size)], accepted / (chains * (burn + per_chain * thin)), rhat


@pytest.mark.parametrize("spec", [
    {"particles": 1}, {"particles": 2}, {"particles": 3},
    {"particles": 2, "beta": 2.0}])
def test_coulomb_chain_matches_reference_loop_bitwise(spec):
    inst = CoulombInstance(CoulombSpec(**spec))
    samples, diag = inst.sample(240, seed=7, burn=300, thin=2)
    ref, acceptance, rhat = _reference_chain(inst, 240, 7, 300, 2)
    assert np.array_equal(samples, ref)
    assert diag["acceptance"] == acceptance
    assert type(diag["acceptance"]) is float
    assert diag["rhat"] == rhat


def test_coulomb_chain_rejects_colliding_proposals():
    inst = CoulombInstance(CoulombSpec(particles=3))
    prop = np.array([[0.1, 0.2, 0.1 + 5e-9, 0.2, -0.4, 0.3],
                     [0.1, 0.2, 0.1 + 5e-8, 0.2, -0.4, 0.3],
                     [0.1, 0.2, 0.5, 0.2, 0.1, 0.2],
                     [0.1, 0.2, 0.5, 0.2, -0.4, 0.3]])
    pairs = inst._pair_indices()
    with np.errstate(divide="ignore"):
        expect = np.where(inst._min_pair_distance(prop) >= 1e-8,
                          _reference_log_density(inst, prop), -np.inf)
        assert np.array_equal(inst._chain_log_density(prop, pairs), expect)
        assert np.array_equal(inst.mu.logpdf(prop), expect)
        # one proposal at a time, so no other row decides the test
        for row, value in zip(prop, expect):
            got = inst._chain_log_density(row[None, :], pairs)
            assert np.array_equal(got, [value])
    assert expect[0] == expect[2] == -np.inf and np.isfinite(expect[1])


def test_split_rhat_flags_stuck_chains():
    rng = np.random.default_rng(0)
    mixed = rng.normal(size=(4, 200, 2))
    assert split_rhat(mixed) < 1.05
    stuck = rng.normal(size=(4, 200, 1))
    stuck[2:] += 10.0
    assert split_rhat(stuck) > 1.5
    with pytest.raises(DomainError):
        split_rhat(rng.normal(size=(4, 3, 1)))


# ---------------------------------------------------------------------------
# closed-form pairs and the registry


def test_anisotropic_pair_certificate_and_operator_norm():
    mu, nu, alpha = anisotropic_pair(0.1)
    assert alpha == pytest.approx((4.0 + 0.01) / 2.0)
    assert mu.certificate.alpha == pytest.approx(alpha)
    tmap = brenier.solve_gaussian(mu, nu)
    J = tmap.jacobian(np.zeros((1, 2)))[0]
    assert np.linalg.norm(J, 2) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(DomainError):
        anisotropic_pair(0.0)


def test_flow_gaussian_weight_matches_density_ratio():
    f, mu, alpha = flow_gaussian_weight(0.5)
    assert alpha == pytest.approx(4.0)
    val, _, _ = f.log_derivs(np.zeros((1, 2)))
    gamma0 = 1.0 / (2.0 * math.pi)
    assert val[0] == pytest.approx(math.log(mu.pdf(np.zeros((1, 2)))[0]
                                            / gamma0), abs=1e-12)
    with pytest.raises(DomainError):
        flow_gaussian_weight(0.0)


def test_scenario_registry_builds_every_kind():
    assert set(SCENARIO_BUILDERS) == set(scenarios.PARAMS) == {
        "gaussian", "anisotropic", "wehrl", "coulomb", "fock", "lsh", "flow",
        "selftest"}
    for name, builder in SCENARIO_BUILDERS.items():
        out = builder(resolve_params(name, {}))
        assert out["kind"] == name
        assert "mu" in out or "pairs" in out or "instance" in out \
            or name == "selftest"   # the battery builds its own instances
    mu, nu = gaussian_pair(2.0, 1.0)
    assert mu.dim == nu.dim == 2


def _readme_param_tables():
    """kind -> [(param, type, default, domain)] from the README's tables;
    the config document's table is kind "config"."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    tables, kind = {}, None
    for line in readme.read_text().splitlines():
        if line.startswith("#"):
            kind = line.split("`")[1] if line.startswith("#### `") else (
                "config" if line == "### Config document" else None)
            if kind:
                tables[kind] = []
        elif kind and line.startswith("| `"):
            tables[kind].append(tuple(
                cell.strip() for cell in line.strip().strip("|").split("|")))
    return tables


def test_readme_param_tables_match_the_declared_table():
    declared = {
        kind: [(f"`{name}`", spec.type, f"`{json.dumps(spec.default)}`",
                spec.domain or "any") for name, spec in table.items()]
        for kind, table in {**scenarios.PARAMS,
                            "config": cli.CONFIG}.items()}
    assert _readme_param_tables() == declared


def test_resolve_params_types_defaults_and_routes():
    values = resolve_params("wehrl", {"box_half": 2, "side": 48})
    assert values["box_half"] == {"radial": 2.0, "entropic": 2.0}
    assert isinstance(values["box_half"]["radial"], float)
    assert resolve_params("wehrl", {})["box_half"] == {
        "radial": 2.25, "entropic": 2.6}
    assert values["side"] == 48
    assert resolve_params("lsh", {"poly": {"2,0": 1}})["poly"] == {"2,0": 1}
    assert resolve_params("wehrl", {})["box_half"] is not \
        scenarios.PARAMS["wehrl"]["box_half"].default
    for kind, raw, message in (
            ("coulomb", {"particles": True}, "particles must be int"),
            ("anisotropic", {"epsilons": [0.1, 0.0]}, "epsilons must be > 0"),
            ("anisotropic", {"epsilons": 0.1}, "epsilons must be list"),
            ("wehrl", {"probes": 50}, "probes is not a wehrl param")):
        with pytest.raises(DomainError, match=f"^{message}"):
            resolve_params(kind, raw)
