"""Transport map solvers against closed-form and frozen numeric oracles."""

import math
import sys
import threading

import numpy as np
import pytest

from transportlab import blas, brenier, entropic, quadrature
from transportlab.errors import ConvergenceError, DomainError, SupportError
from transportlab.measures import Density, TruncationBox, gaussian
from transportlab.quadrature import box_gauss_legendre
from transportlab.scenarios import (WehrlState, build_wehrl_instance,
                                    fock_coefficients)


def _pair(sigma0=2.0, sigma1=1.0, dim=2):
    mu = gaussian(np.zeros(dim), sigma0 ** 2 * np.eye(dim))
    nu = gaussian(np.zeros(dim), sigma1 ** 2 * np.eye(dim))
    return mu, nu


def test_gaussian_solver_is_half_map():
    mu, nu = _pair()
    tmap = brenier.solve_gaussian(mu, nu)
    x = np.random.default_rng(0).normal(size=(20, 2))
    assert np.allclose(tmap(x), 0.5 * x, atol=1e-14)
    assert np.allclose(tmap.jacobian(x), 0.5 * np.eye(2)[None], atol=1e-14)
    assert tmap.provenance == "closed_form_gaussian"


def test_gaussian_solver_anisotropic_means():
    mu = gaussian(np.array([1.0, -1.0]), np.diag([4.0, 0.25]))
    nu = gaussian(np.array([0.0, 2.0]), np.eye(2))
    tmap = brenier.solve_gaussian(mu, nu)
    # pushing the source mean lands on the target mean
    assert np.allclose(tmap(np.array([[1.0, -1.0]])), [[0.0, 2.0]],
                       atol=1e-12)
    assert np.allclose(tmap.jacobian(np.zeros((1, 2)))[0],
                       np.diag([0.5, 2.0]), atol=1e-12)


def test_monge_ampere_residual_vanishes_for_exact_map():
    mu, nu = _pair()
    tmap = brenier.solve_gaussian(mu, nu)
    probes = np.random.default_rng(1).normal(size=(50, 2))
    res = brenier.monge_ampere_residual(tmap, mu, nu, probes)
    assert res.sup_abs < 1e-12


def test_monge_ampere_residual_reuses_given_jacobians():
    mu = gaussian(np.array([0.3, -0.2]), np.array([[2.0, 0.4], [0.4, 1.0]]))
    nu = gaussian(np.zeros(2), np.array([[0.5, -0.1], [-0.1, 0.8]]))
    tmap = brenier.solve_gaussian(mu, nu)
    probes = np.random.default_rng(2).normal(size=(40, 2))
    J = tmap.jacobian(probes)
    own = brenier.monge_ampere_residual(tmap, mu, nu, probes)
    given = brenier.monge_ampere_residual(
        brenier.TransportMap(2, tmap.provenance, tmap.eval_fn), mu, nu,
        probes, jacobians=J)        # a map with no Jacobian evaluator
    assert np.array_equal(given.residuals, own.residuals)
    assert given.sup_abs == own.sup_abs


def test_quantile_map_matches_linear_oracle():
    mu, nu = _pair(dim=1)
    box = TruncationBox.cube(1, 12.0)
    tmap = brenier.solve_quantile_1d(mu, nu, box, box)
    x = np.linspace(-3.0, 3.0, 61)[:, None]
    assert np.max(np.abs(tmap(x) - 0.5 * x)) < 1e-4
    assert np.max(np.abs(tmap.jacobian(x).ravel() - 0.5)) < 1e-3


def test_quantile_jacobian_matches_the_maps_own_slope_on_a_truncated_box():
    # N(0, 4) cut to [-2, 2] holds 68% of its mass against nu's whole mass,
    # so T = G^{-1}(ratio F) and DT = ratio f_mu / f_nu(T): 0.732 at 0,
    # where f_mu / f_nu(T) alone reads 0.5
    mu, nu = _pair(dim=1)
    tmap = brenier.solve_quantile_1d(mu, nu, TruncationBox.cube(1, 2.0),
                                     TruncationBox.cube(1, 12.0))
    x = np.linspace(-1.8, 1.8, 19)[:, None]
    h = 1e-5
    slope = (tmap(x + h) - tmap(x - h)).ravel() / (2 * h)
    assert np.allclose(tmap.jacobian(x).ravel(), slope, rtol=1e-6, atol=0.0)
    assert tmap.jacobian(np.zeros((1, 1))).item() == pytest.approx(
        0.7324, abs=1e-4)


def test_radial_solver_on_husimi_pair():
    # Fock-1 state: T(r) solves pi r^2 e^{-pi r^2} mass matching against
    # the Gaussian with variance 1/(2 pi); closed form via cdf inversion
    inst = build_wehrl_instance(WehrlState((1.0,), (fock_coefficients(1),)))
    mu, nu, _ = inst
    tmap = brenier.solve_radial(mu, nu, r_max=8.0)
    # F_mu(r) = 1 - (1 + pi r^2) e^{-pi r^2}; F_nu(r) = 1 - e^{-pi r^2}
    r = np.array([0.5, 1.0, 1.5])
    want = np.sqrt(-np.log((1.0 + math.pi * r ** 2)
                           * np.exp(-math.pi * r ** 2)) / math.pi)
    pts = np.stack([r, np.zeros(3)], axis=-1)
    got = np.linalg.norm(tmap(pts), axis=1)
    assert np.allclose(got, want, atol=1e-8)


def test_radial_solver_refuses_unresolved_radii():
    inst = build_wehrl_instance(WehrlState((1.0,), (fock_coefficients(1),)))
    mu, nu, _ = inst
    tmap = brenier.solve_radial(mu, nu, r_max=8.0)
    rr = float(tmap.details["reliable_radius"])
    assert 2.5 < rr < 8.0
    with pytest.raises(SupportError):
        tmap(np.array([[rr + 0.5, 0.0]]))
    with pytest.raises(SupportError):
        tmap.jacobian(np.array([[rr + 0.5, 0.0]]))


def _radial_fock_1():
    mu, nu, _ = build_wehrl_instance(
        WehrlState((1.0,), (fock_coefficients(1),)))
    return brenier.solve_radial(mu, nu, r_max=8.0)


def test_radial_map_blocks_equal_one_batch():
    # the moment check's rule and the geodesic's rule on the default
    # `wehrl` box, evaluated in batches of 333, 1000 and EVAL_ROWS rows:
    # a point's value and Jacobian do not depend on the batch it sits in
    tmap = _radial_fock_1()
    for order, panels in ((32, 4), (48, 2)):
        x, _ = box_gauss_legendre(TruncationBox.cube(2, 2.25), order=order,
                                  panels=panels)
        assert x.shape[0] > 2 * quadrature.EVAL_ROWS
        values, jacobians = tmap(x), tmap.jacobian(x)
        for rows in (333, 1000, quadrature.EVAL_ROWS):
            starts = range(0, len(x), rows)
            assert np.array_equal(
                np.concatenate([tmap(x[lo:lo + rows]) for lo in starts]),
                values)
            assert np.array_equal(
                np.concatenate([tmap.jacobian(x[lo:lo + rows])
                                for lo in starts]), jacobians)


def test_radial_map_inverts_each_distinct_radius_once(monkeypatch):
    # the geodesic's 9,216-node rule on the default `wehrl` box is
    # symmetric about the center: its nodes have 1,176 distinct radii
    tmap = _radial_fock_1()
    x, _ = box_gauss_legendre(TruncationBox.cube(2, 2.25), order=48,
                              panels=2)
    inverse = quadrature.CumulativeIntegral.inverse
    inverted = []

    def counting(self, q):
        inverted.append(np.size(q))
        return inverse(self, q)

    monkeypatch.setattr(quadrature.CumulativeIntegral, "inverse", counting)
    assert x.shape[0] == 9216
    tmap.jacobian(x)
    assert inverted == [1176]
    assert np.unique(np.linalg.norm(x, axis=1)).size == 1176


def test_radial_map_at_the_center_takes_the_shell_slope():
    # points within r_floor = 1e-9 r_max of the center map to it, with the
    # tangential slope t(r0)/r0 of the shell r0 = 1e-7 r_max, alone or
    # among other points
    tmap = _radial_fock_1()
    r0 = 1e-7 * 8.0
    x = np.array([[0.0, 0.0], [5e-9, 0.0], [0.5, 0.0], [0.0, -1e-9]])
    values, J = tmap(x), tmap.jacobian(x)
    assert np.array_equal(values[[0, 1, 3]], np.zeros((3, 2)))
    slope = tmap(np.array([[r0, 0.0]]))[0, 0] / r0
    for i in (0, 1, 3):
        assert np.array_equal(J[i], tmap.jacobian(x[i:i + 1])[0])
        assert J[i][0, 1] == J[i][1, 0] == 0.0
        assert J[i][0, 0] == J[i][1, 1] == pytest.approx(slope, rel=1e-12)
    assert np.array_equal(J[2], tmap.jacobian(x[2:3])[0])


@pytest.mark.parametrize("rows", [0, 1])
def test_map_batches_of_zero_and_one_rows_keep_their_shapes(rows):
    x = np.full((rows, 2), 0.3)
    for tmap in (_radial_fock_1(), brenier.solve_gaussian(*_pair())):
        assert tmap(x).shape == (rows, 2)
        assert tmap.jacobian(x).shape == (rows, 2, 2)


def test_radial_refusal_names_the_largest_radius_of_the_batch():
    # unresolved radii only in the second and third blocks, the larger
    # in the third: the error is the one-batch error, naming that one
    tmap = _radial_fock_1()
    rr = float(tmap.details["reliable_radius"])
    x = np.full((3 * quadrature.EVAL_ROWS, 2), 0.1)
    x[quadrature.EVAL_ROWS + 5] = [rr + 0.5, 0.0]
    x[2 * quadrature.EVAL_ROWS + 7] = [0.0, -(rr + 1.25)]
    want = (f"radial map resolved only to radius {rr:.4g} (cumulative "
            f"tail under double precision); asked at radius "
            f"{rr + 1.25:.4g}")
    for evaluate in (tmap, tmap.jacobian):
        with pytest.raises(SupportError) as err:
            evaluate(x)
        assert str(err.value) == want


def test_grid_refusal_is_the_one_batch_refusal():
    # off the lattice on axis 1 in the first block and on axis 0 in the
    # second: the whole batch's check names axis 0
    mu, nu = _pair()
    tmap = brenier.solve_entropic_schedule(
        mu, nu, [0.5], box=TruncationBox.cube(2, 6.0), side=12)[0]
    x = np.zeros((2 * quadrature.EVAL_ROWS, 2))
    x[3] = [0.0, 7.0]
    x[quadrature.EVAL_ROWS + 3] = [-8.0, 0.0]
    with pytest.raises(SupportError) as one_batch:
        tmap.details["grid_map"]._check_inside(x)
    assert "on axis 0" in str(one_batch.value)
    for evaluate in (tmap, tmap.jacobian):
        with pytest.raises(SupportError) as err:
            evaluate(x)
        assert str(err.value) == str(one_batch.value)


def test_radial_solver_rejects_asymmetric_density():
    mu = gaussian(np.zeros(2), np.diag([4.0, 1.0]))
    nu = gaussian(np.zeros(2), np.eye(2))
    with pytest.raises(DomainError):
        brenier.solve_radial(mu, nu, r_max=6.0)


def _plan_slope(s0, s1, eps):
    # cross-covariance of the entropic plan between N(0,s0) and N(0,s1)
    # with cost |x-y|^2/2: C = sqrt(s0 s1 + eps^2/4) - eps/2; slope C/s0
    return (math.sqrt(s0 * s1 + eps ** 2 / 4.0) - eps / 2.0) / s0


def test_entropic_grid_1d_slope_oracle():
    mu, nu = _pair(dim=1)
    box = TruncationBox.cube(1, 10.0)
    xs = np.linspace(-1.0, 1.0, 9)[:, None]
    for eps in (0.5, 0.1, 0.03):
        raw = _plan_slope(4.0, 1.0, eps)
        tmap = brenier.solve_entropic_schedule(mu, nu, [eps], box=box,
                                               side=64, debias=False)[0]
        got = float(np.polyfit(xs.ravel(), tmap(xs).ravel(), 1)[0])
        assert abs(got - raw) < 2e-3, (eps, got, raw)
        # debiasing adds x - T_{mu->mu}(x); for Gaussians that is exactly
        # 1 - self slope, pulling the map back toward the Brenier slope
        deb = raw + 1.0 - _plan_slope(4.0, 4.0, eps)
        tmap_d = brenier.solve_entropic_schedule(mu, nu, [eps], box=box,
                                                 side=64)[0]
        got_d = float(np.polyfit(xs.ravel(), tmap_d(xs).ravel(), 1)[0])
        assert abs(got_d - deb) < 2e-3, (eps, got_d, deb)
        assert abs(got_d - 0.5) < abs(got - 0.5)


def test_entropic_schedule_warm_start_matches_cold_final():
    mu, nu = _pair(dim=1)
    box = TruncationBox.cube(1, 9.0)
    stages = brenier.solve_entropic_schedule(mu, nu, (0.4, 0.1), box=box,
                                             side=64)
    cold = brenier.solve_entropic_schedule(mu, nu, [0.1], box=box,
                                           side=64)[0]
    x = np.linspace(-2, 2, 21)[:, None]
    assert stages[-1].entropic_epsilon == pytest.approx(0.1)
    assert np.max(np.abs(stages[-1](x) - cold(x))) < 1e-6


def test_entropic_schedule_discretizes_each_density_once(monkeypatch):
    calls = []
    grid_measure = brenier.grid_measure

    def counting(*args, **kwargs):
        calls.append(args[0])
        return grid_measure(*args, **kwargs)

    monkeypatch.setattr(brenier, "grid_measure", counting)
    mu, nu = _pair()
    maps = brenier.solve_entropic_schedule(
        mu, nu, (0.5, 0.3, 0.2), box=TruncationBox.cube(2, 6.0), side=16)
    assert [m.entropic_epsilon for m in maps] == [0.5, 0.3, 0.2]
    assert len(calls) == 2 and calls[0] is mu and calls[1] is nu


# At a BLAS count of 2 or more a debiased grid solve runs its self stages
# on a worker thread beside the cross stages, each thread at one BLAS
# thread; at 1 it runs them inline. The count is forced on the library,
# so these tests need numpy's OpenBLAS.
needs_openblas = pytest.mark.skipif(blas.threads() is None,
                                    reason="no OpenBLAS thread count")


def _strip_density():
    """N(0, 4 I) in dim 2 with zero mass where the first coordinate
    exceeds 1.5: whole lattice slices of -inf log weight."""
    return Density(2, lambda x: np.where(x[:, 0] <= 1.5,
                                         -0.125 * (x ** 2).sum(axis=1),
                                         -np.inf))


def _recording_runs(monkeypatch):
    """The (thread, BLAS count, self?) of every grid stage solved."""
    seen = []
    run = entropic.GridSinkhorn.run

    def recording(self, *args, **kwargs):
        seen.append((threading.get_ident(), blas.threads(),
                     self.log_a is self.log_b))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(entropic.GridSinkhorn, "run", recording)
    return seen


def _solve_at(count, mu, nu, debias=True):
    """The schedule (0.5, 0.2, 0.1) solved at BLAS count `count`, which
    the solve restores, as it leaves no thread behind."""
    threads = threading.active_count()
    with blas._threads_at(count):
        try:
            return brenier.solve_entropic_schedule(
                mu, nu, (0.5, 0.2, 0.1), box=TruncationBox.cube(mu.dim, 4.0),
                side=24, debias=debias)
        finally:
            assert blas.threads() == count
            assert threading.active_count() == threads


@needs_openblas
@pytest.mark.parametrize("mu, nu", [_pair(dim=1), _pair(dim=2),
                                    (_strip_density(), _pair()[1])],
                         ids=["dim1", "dim2", "zero-mass"])
def test_paired_grid_solve_matches_the_serial_one_bit_for_bit(
        monkeypatch, mu, nu):
    seen = _recording_runs(monkeypatch)
    serial = _solve_at(1, mu, nu)
    assert {thread for thread, _, _ in seen} == {threading.get_ident()}
    del seen[:]
    # the two threads trade the interpreter lock as often as it allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        paired = _solve_at(2, mu, nu)
    finally:
        sys.setswitchinterval(interval)
    # every self stage on the worker, every cross stage here, all at 1
    assert {(thread == threading.get_ident(), own)
            for thread, _, own in seen} == {(True, False), (False, True)}
    assert {count for _, count, _ in seen} == {1}
    assert len(seen) == 6
    for a, b in zip(serial, paired, strict=True):
        assert np.array_equal(a.details["grid_map"].values,
                              b.details["grid_map"].values)
        assert {k: v for k, v in a.details.items() if k != "grid_map"} == \
            {k: v for k, v in b.details.items() if k != "grid_map"}
    if mu.kind == "custom":
        assert np.isneginf(brenier.grid_measure(
            mu, TruncationBox.cube(2, 4.0), 24)[1]).any()


class _StageFailure(Exception):
    pass


@needs_openblas
@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("failing, first", [
    ({("cross", 0.2)}, ("cross", 0.2)),
    ({("self", 0.5)}, ("self", 0.5)),
    # the first failure in stage order: cross 1, self 1, cross 2, ...
    ({("self", 0.5), ("cross", 0.2)}, ("self", 0.5)),
    ({("cross", 0.2), ("self", 0.2)}, ("cross", 0.2)),
])
def test_a_failing_grid_stage_raises_the_first_failure_in_stage_order(
        monkeypatch, count, failing, first):
    run = entropic.GridSinkhorn.run
    # a failing cross stage 2 waits for self stage 2 to start, so the
    # worker is inside a stage when the solve unwinds
    self_2 = threading.Event()

    def failing_run(self, *args, **kwargs):
        stage = ("self" if self.log_a is self.log_b else "cross", self.eps)
        if stage == ("self", 0.2):
            self_2.set()
        if stage == ("cross", 0.2) and count == 2:
            assert self_2.wait(10)
        if stage in failing:
            kind = ConvergenceError if stage[0] == "cross" else _StageFailure
            raise kind(f"{stage[0]} stage at {stage[1]}")
        return run(self, *args, **kwargs)

    monkeypatch.setattr(entropic.GridSinkhorn, "run", failing_run)
    mu, nu = _pair()
    with pytest.raises((ConvergenceError, _StageFailure)) as err:
        _solve_at(count, mu, nu)
    assert type(err.value) is (ConvergenceError if first[0] == "cross"
                               else _StageFailure)
    assert str(err.value) == f"{first[0]} stage at {first[1]}"


@needs_openblas
@pytest.mark.parametrize("count, debias", [(1, True), (2, False)])
def test_no_thread_starts_at_one_blas_thread_or_without_debias(
        monkeypatch, count, debias):
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self))
    seen = _recording_runs(monkeypatch)
    mu, nu = _pair()
    maps = _solve_at(count, mu, nu, debias=debias)
    assert not started
    assert {count for _, count, _ in seen} == {count}
    assert len(seen) == (6 if debias else 3) and len(maps) == 3


@pytest.mark.parametrize("schedule", [(0.1, 0.5), (0.5, 0.5, 0.1), ()])
def test_both_entropic_routes_reject_a_schedule_not_strictly_decreasing(
        schedule):
    mu, nu = _pair()
    with pytest.raises(DomainError, match="strictly decrease"):
        brenier.solve_entropic_schedule(mu, nu, schedule,
                                        box=TruncationBox.cube(2, 6.0),
                                        side=8)
    xs = np.random.default_rng(6).normal(size=(20, 2))
    with pytest.raises(DomainError, match="strictly decrease"):
        brenier.solve_entropic_sample(xs, 0.5 * xs, schedule)


def test_grid_map_roundtrip_through_lattice_file(tmp_path):
    mu, nu = _pair()
    box = TruncationBox.cube(2, 6.0)
    tmap = brenier.solve_entropic_schedule(mu, nu, [0.3], box=box,
                                           side=48)[0]
    path = tmp_path / "map.npz"
    brenier.save_grid_map(path, tmap)
    gm = tmap.details["grid_map"]
    loaded = brenier.load_grid_map(path, 0.3, box.axis_nodes(48))
    x = np.random.default_rng(3).normal(size=(30, 2))
    assert loaded.entropic_epsilon == 0.3
    assert loaded.provenance == tmap.provenance
    got = loaded.details["grid_map"]
    assert np.array_equal(got.values, gm.values)
    assert all(np.array_equal(a, b) for a, b in zip(got.axes, gm.axes))
    assert np.array_equal(loaded(x), tmap(x))
    assert np.array_equal(loaded.jacobian(x), tmap.jacobian(x))
    # numpy's own container: four members, the values as 8-byte floats
    with np.load(path) as data:
        assert sorted(data.files) == ["axes", "epsilon", "sha256", "values"]
        assert data["values"].dtype == np.float64
        assert data["values"].shape == (48, 48, 2)


def test_load_grid_map_rejects_damaged_lattices(tmp_path, damaged_lattices):
    mu, nu = _pair()
    box = TruncationBox.cube(2, 6.0)
    tmap = brenier.solve_entropic_schedule(mu, nu, [0.5], box=box,
                                           side=12)[0]
    path = tmp_path / "map.npz"
    brenier.save_grid_map(path, tmap)
    assert [p.name for p in tmp_path.iterdir()] == ["map.npz"]
    axes = box.axis_nodes(12)
    brenier.load_grid_map(path, 0.5, axes)
    damaged = damaged_lattices(path.read_bytes())
    assert len({data for data, _ in damaged.values()}) == len(damaged) == 12
    for name, (data, reason) in damaged.items():
        bad = tmp_path / "bad.npz"
        bad.write_bytes(data)
        with pytest.raises(DomainError, match=reason):
            brenier.load_grid_map(bad, 0.5, axes)
    # an intact file is refused for another request too
    for epsilon, request in ((0.25, axes), (0.5, box.axis_nodes(13)),
                             (0.5, TruncationBox.cube(2, 6.5).axis_nodes(12))):
        with pytest.raises(DomainError):
            brenier.load_grid_map(path, epsilon, request)


def test_grid_map_refuses_points_off_the_lattice(tmp_path):
    mu, nu = _pair()
    box = TruncationBox.cube(2, 6.0)
    tmap = brenier.solve_entropic_schedule(mu, nu, [0.5], box=box,
                                           side=12)[0]
    path = tmp_path / "map.npz"
    brenier.save_grid_map(path, tmap)
    loaded = brenier.load_grid_map(path, 0.5, box.axis_nodes(12))
    edge = np.array([[6.0, -6.0], [6.0 * (1 + 1e-13), 0.0]])
    for m in (tmap, loaded):
        assert np.all(np.isfinite(m(edge)))
        assert np.all(np.isfinite(m.jacobian(edge)))
        for x in ([6.0 * (1 + 1e-9), 0.0], [0.0, -6.01], [np.nan, 0.0]):
            with pytest.raises(SupportError):
                m(np.array([x]))
            with pytest.raises(SupportError):
                m.jacobian(np.array([x]))


def test_grid_map_reproduces_an_affine_lattice_in_dim_3():
    A = np.array([[0.6, 0.2, -0.1], [0.1, 0.9, 0.3], [-0.2, 0.0, 0.5]])
    b = np.array([0.25, -0.5, 0.125])
    axes = [np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 1.5, 7),
            np.linspace(0.0, 2.0, 4)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    gm = brenier.GridMap(axes, nodes @ A.T + b)
    rng = np.random.default_rng(3)
    x = rng.uniform([-1.0, -0.5, 0.0], [1.0, 1.5, 2.0], size=(500, 3))
    x = np.vstack([x, nodes.reshape(-1, 3)[::7], [[1.0, 1.5, 2.0]]])
    assert np.allclose(gm.eval(x), x @ A.T + b, rtol=0.0, atol=1e-15)


def test_save_grid_map_rejects_closed_form():
    mu, nu = _pair()
    tmap = brenier.solve_gaussian(mu, nu)
    with pytest.raises(DomainError):
        brenier.save_grid_map("/tmp/nope.txt", tmap)


def test_local_affine_jacobians_recover_exact_matrix():
    A = np.array([[0.6, 0.2], [0.1, 0.9]])
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(400, 2))
    ts = xs @ A.T + 0.5
    _, idx = brenier.nearest(xs, xs[:50], 12)
    jac, ok = brenier.local_affine_jacobians(xs, ts, xs[:50], 12, idx)
    assert ok.all()
    assert np.allclose(jac, A[None], atol=1e-10)


def _per_row_affine_reference(xs, ts, queries, k, cond_limit=1e3):
    """One svd and one lstsq per query row."""
    _, idx = brenier.nearest(xs, queries, k)
    n = xs.shape[1]
    J = np.empty((len(idx), n, n))
    ok = np.ones(len(idx), dtype=bool)
    for i in range(len(idx)):
        X, Y = xs[idx[i]], ts[idx[i]]
        Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
        sv = np.linalg.svd(Xc, compute_uv=False)
        if sv[0] <= 0 or sv[0] / max(sv[-1], 1e-300) > cond_limit:
            ok[i] = False
            J[i] = np.eye(n)
            continue
        A, *_ = np.linalg.lstsq(Xc, Yc, rcond=None)
        J[i] = A.T
    return J, ok


def test_local_affine_jacobians_match_per_row_fits():
    rng = np.random.default_rng(9)
    cloud = rng.normal(size=(300, 2))
    # a far collinear cluster: its neighborhoods are rank-deficient
    line = np.array([20.0, 20.0]) + np.linspace(0, 1, 30)[:, None] * [1, 2]
    xs = np.vstack([cloud, line])
    ts = np.tanh(xs) + 0.1 * xs ** 2
    queries = np.vstack([cloud[:40], line[10:13], rng.normal(size=(5, 2))])
    _, idx = brenier.nearest(xs, queries, 12)
    jac, ok = brenier.local_affine_jacobians(xs, ts, queries, 12, idx)
    ref_jac, ref_ok = _per_row_affine_reference(xs, ts, queries, 12)
    assert ok.sum() == 45 and not ok[40:43].any()
    assert np.array_equal(ok, ref_ok)
    # one batched product against one lstsq per row: the same fits to
    # rounding, and the refused rows keep their identity bit for bit
    np.testing.assert_allclose(jac, ref_jac, rtol=1e-12, atol=0)
    assert np.array_equal(jac[~ok], ref_jac[~ok])


def test_local_affine_jacobians_on_a_wider_shared_table_keep_their_bits():
    xs = np.random.default_rng(0).normal(size=(800, 2))
    # chain-style repeats: duplicates tie, and may swap within a row
    xs[::6] = xs[1::6]
    ts = np.tanh(xs) + 0.1 * xs ** 2
    _, own = brenier.nearest(xs, xs[:100], 12)
    jac, ok = brenier.local_affine_jacobians(xs, ts, xs[:100], 12, own)
    _, idx = brenier.nearest(xs, xs, 64)
    assert (idx[:100, :12] != own).any()
    shared = brenier.local_affine_jacobians(xs, ts, xs[:100], 12,
                                            neighbors=idx[:100])
    assert np.array_equal(shared[0], jac) and np.array_equal(shared[1], ok)
    with pytest.raises(DomainError):
        brenier.local_affine_jacobians(xs, ts, xs[:100], 12,
                                       neighbors=idx[:100, :11])


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 9])
def test_nearest_matches_kdtree_bitwise(dim):
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(dim)
    points = rng.normal(size=(257, dim))
    queries = np.vstack([rng.normal(size=(70, dim)), points[:30]])
    tree = cKDTree(points)
    for k in (1, 5, 40):
        dist, idx = brenier.nearest(points, queries, k)
        ref_d, ref_i = tree.query(queries, k=k)
        assert np.array_equal(dist, ref_d.reshape(-1, k))
        assert np.array_equal(idx, ref_i.reshape(-1, k))
    # k equal to the number of points ranks the whole cloud
    small = points[:9]
    dist, idx = brenier.nearest(small, queries, 9)
    ref_d, ref_i = cKDTree(small).query(queries, k=9)
    assert np.array_equal(dist, ref_d) and np.array_equal(idx, ref_i)
    # a single query point is one row
    dist, idx = brenier.nearest(points, queries[0], 3)
    ref_d, ref_i = tree.query(queries[0], k=3)
    assert dist.shape == idx.shape == (1, 3)
    assert np.array_equal(dist[0], ref_d) and np.array_equal(idx[0], ref_i)


def test_nearest_refuses_more_neighbors_than_points():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(10, 2))
    with pytest.raises(DomainError):
        brenier.nearest(xs, xs, 11)
    with pytest.raises(DomainError):
        brenier.nearest(xs, xs, 0)
    with pytest.raises(DomainError):
        brenier.local_affine_jacobians(xs, xs, xs[:3], 20,
                                       brenier.nearest(xs, xs[:3], 10)[1])


def test_sample_solver_shrinks_toward_half_map():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(600, 2)) * 2.0
    ys = rng.normal(size=(600, 2))
    tvals, _ = brenier.solve_entropic_sample(xs, ys, (0.5, 0.2, 0.1))
    q = xs[:200]
    rel = np.linalg.norm(tvals[:200] - 0.5 * q, axis=1)
    scale = np.linalg.norm(0.5 * q, axis=1).mean()
    assert rel.mean() / scale < 0.2


@pytest.mark.parametrize("m, k", [(300, 300), (300, 240)])
def test_sample_solve_keeps_one_kernel_alive(m, k):
    import tracemalloc

    rng = np.random.default_rng(6)
    xs = rng.normal(size=(m, 2)) * 1.5
    ys = rng.normal(size=(k, 2))
    tracemalloc.start()
    try:
        _, details = brenier.solve_entropic_sample(xs, ys, (0.5, 0.2, 0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the cross stages and the debiasing self-transport share one buffer
    assert peak < 1.5 * m * max(m, k) * 8
    assert details["iterations"] > 0


def test_pushforward_moments_of_gaussian_map():
    mu, nu = _pair()
    tmap = brenier.solve_gaussian(mu, nu)
    # moments of T_# mu by the mu-weighted tensor rule on a wide box
    pts, w = box_gauss_legendre(TruncationBox.cube(2, 14.0), order=48)
    w = w * mu.pdf(pts)
    w = w / w.sum()
    img = tmap(pts)
    mean = w @ img
    d = img - mean
    cov = np.einsum("m,mi,mj->ij", w, d, d)
    assert np.allclose(mean, 0.0, atol=1e-10)
    assert np.allclose(cov, np.eye(2), atol=1e-8)
