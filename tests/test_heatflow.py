"""Heat-flow integration, determinant routes, and contraction certificates."""

import numpy as np
import pytest

from transportlab import cli, heatflow, semigroup
from transportlab.errors import (AccuracyError, ConvexityViolationError,
                                 DomainError)
from transportlab.heatflow import (FlowSchedule, FlowState,
                                   check_km_contraction,
                                   integrate_flow, km_bound_rhs,
                                   km_pushforward_check, tail_log_det,
                                   terminal_determinants)
from transportlab.polyexp import PolyExp
from transportlab.scenarios import flow_gaussian_weight


def _sigma_half_flow(m=9, steps=64, seed=5):
    f, mu, alpha = flow_gaussian_weight(0.5)
    rng = np.random.default_rng(seed)
    pts = mu.sampler(rng, m) if m > 16 else rng.normal(scale=0.5, size=(m, 2))
    sched = FlowSchedule(t_max=8.0, steps=steps)
    return integrate_flow(f, pts, schedule=sched), f, alpha


def test_schedule_rejects_bad_parameters():
    with pytest.raises(DomainError):
        FlowSchedule(t_max=2.0)
    with pytest.raises(DomainError):
        FlowSchedule(steps=32)
    sched = FlowSchedule(t_max=6.0, steps=100)
    assert sched.times[0] == 0.0 and sched.times[-1] == 6.0
    assert sched.times.size == 101


def test_km_bound_rhs_closed_form():
    assert km_bound_rhs(4.0, 0.0, 2) == pytest.approx(1.0)
    assert km_bound_rhs(4.0, 50.0, 2) == pytest.approx(4.0)
    s = -np.expm1(-2.0 * 0.7)
    assert km_bound_rhs(4.0, 0.7, 3) == pytest.approx((3.0 * s + 1.0) ** 1.5)
    # alpha = 1 is the fixed point: no contraction bound at any time
    assert np.allclose(km_bound_rhs(1.0, [0.1, 1.0, 9.0], 2), 1.0)


def test_gaussian_weight_flow_matches_closed_form():
    states, f, alpha = _sigma_half_flow()
    assert states[0].t == 0.0 and states[-1].t == 8.0
    for st in states:
        rhs = km_bound_rhs(alpha, st.t, 2)
        # Gaussian weights saturate the volume bound at every time
        assert np.allclose(st.determinants, rhs, rtol=1e-6)
        assert st.route_agreement() <= 1e-6
    term, bar = terminal_determinants(states, f)
    assert bar == 0.0
    assert np.allclose(term, 4.0, rtol=1e-5)


def test_contraction_certificate_on_sigma_half_flow():
    states, f, alpha = _sigma_half_flow()
    cert = check_km_contraction(states, alpha, f=f, atol=1e-6)
    assert cert.verdict == "pass"
    assert cert.observed == pytest.approx(1.0, abs=1e-6)
    assert cert.details["terminal_rhs"] == pytest.approx(4.0)
    assert cert.details["tail_error_bar"] == 0.0
    assert len(cert.details["per_time"]) == len(states)
    # understating the convexity constant must flip the verdict
    bad = check_km_contraction(states, 2.0, f=f, atol=1e-6)
    assert bad.verdict == "fail"
    assert bad.observed > 1.5


@pytest.mark.parametrize("weight", ["gaussian", "polynomial"])
def test_flow_evaluates_the_semigroup_once_per_field_evaluation(
        monkeypatch, weight):
    # recording a frame reads the stepper's output and evaluates nothing
    if weight == "gaussian":
        f, _, _ = flow_gaussian_weight(0.5)
    else:
        f = PolyExp.poly_times_gaussian(2, {(2, 0): 1.0, (0, 0): 0.5},
                                        beta=0.7)
    counts = {"apply": 0, "rhs": 0}
    own_apply, own_rk45 = semigroup.apply, heatflow._rk45

    def apply(*args, **kwargs):
        counts["apply"] += 1
        return own_apply(*args, **kwargs)

    def rk45(fun, *args):
        def counted(t, y):
            counts["rhs"] += 1
            return fun(t, y)
        return own_rk45(counted, *args)

    monkeypatch.setattr(semigroup, "apply", apply)
    monkeypatch.setattr(heatflow, "_rk45", rk45)
    pts = np.random.default_rng(3).normal(scale=0.5, size=(5, 2))
    states = integrate_flow(f, pts, schedule=FlowSchedule(t_max=4.0),
                            record_every=8)
    assert len(states) == 9
    assert counts["rhs"] > 0
    assert counts["apply"] == counts["rhs"]


def test_each_recorded_state_takes_one_determinant(monkeypatch):
    # the positivity check, the stepper's route check and the report's
    # route_agreement summary share one determinant per state
    calls = []
    own_det = np.linalg.det

    def det(a):
        calls.append(np.shape(a))
        return own_det(a)

    monkeypatch.setattr(np.linalg, "det", det)
    report, _ = cli.run(cli.RunConfig(command="heatflow", scenario="flow",
                                      seed=0))
    frames = report.series["sup_determinant_vs_t"]
    assert len(frames) > 1
    assert len(calls) == len(frames)
    assert "route_agreement" in report.summaries


@pytest.mark.parametrize("record_every", [0, -1])
def test_integrate_flow_refuses_a_record_step_below_one(record_every):
    f, _, _ = flow_gaussian_weight(0.5)
    with pytest.raises(DomainError, match="record_every"):
        integrate_flow(f, np.zeros((2, 2)), FlowSchedule(),
                       record_every=record_every)


def test_pushforward_moments_reach_standard_gaussian():
    states, _, _ = _sigma_half_flow(m=400)
    cert = km_pushforward_check(states)
    assert cert.verdict == "pass"
    assert cert.theoretical_rhs == 3.0
    assert cert.observed < 3.0
    with pytest.raises(DomainError):
        km_pushforward_check(states, moments=5)


def test_tail_log_det_quadratic_is_exact():
    f, _, _ = flow_gaussian_weight(0.5)
    inc, bar = tail_log_det(f, 8.0)
    s = -np.expm1(-16.0)
    assert bar == 0.0
    assert inc == pytest.approx(np.log(4.0) - np.log(1.0 + 3.0 * s),
                                abs=1e-15)


def test_tail_log_det_general_weight_needs_positions():
    f = PolyExp.poly_times_gaussian(2, {(2, 0): 1.0, (0, 0): 0.5}, beta=0.7)
    with pytest.raises(DomainError):
        tail_log_det(f, 8.0)
    inc, bar = tail_log_det(f, 8.0, positions=np.zeros((3, 2)))
    assert inc == 0.0
    assert 0.0 <= bar < 1e-5


def test_flow_state_guards():
    pos = np.zeros((2, 2))
    good = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
    bad = good.copy()
    bad[1, 0, 0] = -1.0
    with pytest.raises(ConvexityViolationError):
        FlowState(t=0.5, positions=pos, jacobians=bad, log_dets=np.zeros(2))
    with pytest.raises(DomainError):
        FlowState(t=0.5, positions=pos, jacobians=good,
                  log_dets=np.array([0.0, np.inf]))


def test_rk45_matches_solve_ivp_bitwise_on_a_linear_system():
    from scipy.integrate import solve_ivp

    A = np.array([[-0.5, 2.0, 0.0], [-2.0, -0.1, 0.3], [0.0, -0.3, -1.0]])
    y0 = np.array([1.0, -0.5, 0.25])
    t_eval = np.linspace(0.0, 7.0, 29)
    for rtol, atol in ((1e-3, 1e-6), (1e-8, 1e-9)):
        ref = solve_ivp(lambda t, y: A @ y, (0.0, 7.0), y0, method="RK45",
                        t_eval=t_eval, rtol=rtol, atol=atol)
        got = heatflow._rk45(lambda t, y: A @ y, 7.0, y0, t_eval, rtol, atol)
        assert np.array_equal(got, ref.y)


def test_rk45_matches_solve_ivp_bitwise_on_the_selftest_flow(monkeypatch):
    from scipy.integrate import solve_ivp

    own = heatflow._rk45
    compared = []

    def both(fun, t_end, y0, t_eval, rtol, atol):
        got = own(fun, t_end, y0, t_eval, rtol, atol)
        ref = solve_ivp(fun, (0.0, t_end), y0, method="RK45", t_eval=t_eval,
                        rtol=rtol, atol=atol)
        compared.append(np.array_equal(got, ref.y))
        return got

    monkeypatch.setattr(heatflow, "_rk45", both)
    cli._selftest_heatflow()
    assert compared == [True]


@pytest.mark.parametrize("t_bad", [0.0, 0.5])
def test_rk45_raises_when_the_field_turns_nan(t_bad):
    def rhs(t, y):
        return -y if t < t_bad else np.full_like(y, np.nan)

    with pytest.raises(AccuracyError):
        heatflow._rk45(rhs, 2.0, np.ones(3), np.linspace(0.0, 2.0, 5),
                       1e-6, 1e-9)
