"""Certificate verdict rule and the four transport bound checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transportlab import brenier
from transportlab.measures import TruncationBox, gaussian
from transportlab.verify import (DEFAULT_SLACK, check_determinant_bound,
                                 check_jacobian_bounds, check_lipschitz_bound,
                                 check_lp_moment_bound, check_trace_bound,
                                 make_certificate, probe_points, slack_for,
                                 trend_decreasing, trend_non_increasing)


def _cert(observed, rhs=1.0, slack=0.05, solver="entropic_grid",
          trend=None, atol=0.0):
    return make_certificate("trace", rhs, observed, slack,
                            {"solver": solver}, 10, atol=atol,
                            epsilon_trend=trend)


def test_verdict_pass_region():
    assert _cert(1.0).verdict == "pass"
    assert _cert(1.0 + 5e-10).verdict == "pass"
    assert _cert(0.2).verdict == "pass"


def test_verdict_slack_region_requires_non_increasing_trend():
    assert _cert(1.03).verdict == "pass_with_slack"
    assert _cert(1.03, trend=[1.3, 1.1, 1.03]).verdict == "pass_with_slack"
    # an increasing trend disqualifies the slack verdict
    assert _cert(1.03, trend=[0.9, 1.0, 1.03]).verdict == "fail"


def test_verdict_inconclusive_needs_entropic_decreasing_trend():
    assert _cert(1.4, trend=[1.9, 1.6, 1.4]).verdict == "inconclusive"
    assert _cert(1.4, trend=[1.4, 1.4, 1.4]).verdict == "fail"
    assert _cert(1.4).verdict == "fail"
    c = _cert(1.4, solver="closed_form_gaussian", trend=[1.9, 1.6, 1.4],
              slack=0.0)
    assert c.verdict == "fail"


def test_verdict_atol_is_additive():
    assert _cert(1.5, slack=0.0, atol=0.6).verdict == "pass"
    assert _cert(1.5, slack=0.0, atol=0.4).verdict == "fail"


def test_slack_defaults_by_provenance():
    assert DEFAULT_SLACK["closed_form_gaussian"] == 0.0
    assert DEFAULT_SLACK["quantile_1d"] == 0.0
    assert DEFAULT_SLACK["radial"] == 0.0
    assert DEFAULT_SLACK["entropic_grid"] == 0.05
    assert DEFAULT_SLACK["entropic_sample"] == 0.10
    assert slack_for("anything_else") == 0.0
    c = make_certificate("trace", 1.0, 1.02, None,
                         {"solver": "entropic_grid"}, 5)
    assert c.slack == 0.05 and c.verdict == "pass_with_slack"


def test_trend_helpers_tolerate_relative_wiggle():
    assert trend_non_increasing([3.0, 2.0, 2.0 + 1e-9], rtol=1e-6)
    assert not trend_non_increasing([1.0, 2.0])
    assert trend_decreasing([3.0, 2.0, 1.5])
    assert not trend_decreasing([2.0, 2.0])


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=0.5))
def test_verdict_regions_partition(observed, slack):
    c = _cert(observed, rhs=1.0, slack=slack)
    if observed <= 1.0 + 1e-9:
        assert c.verdict == "pass"
    elif observed <= 1.0 + slack:
        assert c.verdict == "pass_with_slack"
    else:
        assert c.verdict == "fail"


def test_certificate_serialization_carries_everything():
    c = _cert(1.03, trend=[1.2, 1.1, 1.03])
    d = c.to_dict()
    assert d["bound_name"] == "trace"
    assert d["verdict"] == "pass_with_slack"
    assert d["provenance"]["epsilon_trend"] == [1.2, 1.1, 1.03]
    assert d["atol"] == 0.0
    assert d["probe_count"] == 10


def test_probe_points_respect_box_and_tube():
    mu = gaussian(np.zeros(2), np.eye(2))
    box = TruncationBox.cube(2, 2.0)
    pts = probe_points(mu, box, grid_per_axis=9, random_count=200, seed=0)
    assert np.all(box.contains(pts))

    tube = lambda x: np.abs(x[:, 0]) < 0.1
    mu_t = gaussian(np.zeros(2), np.eye(2))
    object.__setattr__(mu_t, "singular_tube", tube)
    pts_t = probe_points(mu_t, box, grid_per_axis=9, random_count=200, seed=0)
    assert np.all(np.abs(pts_t[:, 0]) >= 0.1)


def test_gaussian_pair_bounds_are_sharp():
    mu = gaussian(np.zeros(2), 4.0 * np.eye(2))
    nu = gaussian(np.zeros(2), np.eye(2))
    tmap = brenier.solve_gaussian(mu, nu)
    alpha, kappa = 0.25, 1.0
    probes = probe_points(mu, TruncationBox.cube(2, 5.0), random_count=100)

    trace = check_trace_bound(tmap, alpha, kappa, probes)
    assert trace.verdict == "pass"
    assert trace.observed == pytest.approx(trace.theoretical_rhs, abs=1e-12)
    assert trace.theoretical_rhs == pytest.approx(1.0)

    det = check_determinant_bound(tmap, alpha, kappa, probes)
    assert det.observed == pytest.approx(0.25, abs=1e-12)
    assert det.theoretical_rhs == pytest.approx(0.25)

    lip = check_lipschitz_bound(tmap, alpha, kappa, probes)
    assert lip.observed == pytest.approx(0.5, abs=1e-12)
    assert lip.verdict == "pass"

    # the three pointwise certificates from one Jacobian evaluation
    shared = check_jacobian_bounds(tmap, alpha, kappa, probes)
    assert [c.to_dict() for c in shared] == [
        c.to_dict() for c in (trace, lip, det)]

    mom = check_lp_moment_bound(tmap, alpha, kappa, 1.0, mu,
                                box=TruncationBox.cube(2, 12.0))
    assert mom.verdict == "pass"
    assert mom.observed == pytest.approx(1.0, rel=1e-6)
    assert mom.theoretical_rhs == pytest.approx(1.0)


def test_trace_bound_flags_violation():
    # a map that expands: x -> 1.2 x against constants forcing rhs = 1
    A = 1.2 * np.eye(2)
    tmap = brenier.TransportMap(
        2, "closed_form_gaussian", lambda x: x @ A.T,
        lambda x: np.broadcast_to(A, (x.shape[0], 2, 2)).copy())
    cert = check_trace_bound(tmap, 0.25, 1.0, np.zeros((1, 2)))
    assert cert.verdict == "fail"
    assert cert.observed == pytest.approx(2.4)
