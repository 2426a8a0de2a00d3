"""Heat-flow transport toward a standard Gaussian target.

The flow F_t solves dF_t/dt = -grad log P_t f(F_t) with F_0 = x and
f = d mu / d gamma, driven by the Ornstein-Uhlenbeck semigroup. As t grows,
P_t f -> 1 and F_t pushes mu to the Gaussian. Jacobians ride along via

    dJ_t/dt      = -hess log P_t f(F_t) J_t,
    d log det/dt = -lap  log P_t f(F_t),

and the scalar log-det route must agree with det of the matrix route at
every recorded time; disagreement signals stepper failure, not physics.
The one stepper is adaptive Dormand-Prince 5(4) with dense output.

Each stage of the stepper evaluates the field through semigroup.apply,
except for a weight with one quadratic-exponent term and no polynomial
factor (every Gaussian flow): there P_t f is again Gaussian, so one n x n
inverse per stage gives the drift and the Hessian that all particles
share, and the Jacobians advance in one GEMM. Its bits are apply's.

The flow is truncated at t_max. For a pure quadratic-exponent f the missing
tail of the log-determinant has a closed form; otherwise the field frozen at
t_max bounds the tail and is reported as an error bar.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import semigroup
from .errors import AccuracyError, ConvexityViolationError, DomainError
from .polyexp import PolyExp, poly_degree
from .verify import make_certificate


@dataclass(frozen=True)
class FlowState:
    """Particles, Jacobians, and log-determinants at one flow time."""

    t: float
    positions: np.ndarray       # (m, n)
    jacobians: np.ndarray       # (m, n, n)
    log_dets: np.ndarray        # (m,)
    _route_gap: float = field(init=False, repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.log_dets)):
            raise DomainError("log-determinants must stay finite")
        det = np.linalg.det(self.jacobians)
        if np.any(det <= 0):
            bad = int(np.argmax(det <= 0))
            raise ConvexityViolationError(
                f"flow Jacobian determinant is not positive at t={self.t}",
                probe=self.positions[bad])
        d2 = np.exp(self.log_dets)
        object.__setattr__(
            self, "_route_gap",
            float(np.abs(det - d2).max() / max(d2.max(), 1e-300)))

    @property
    def determinants(self):
        return np.exp(self.log_dets)

    def route_agreement(self):
        """Relative gap between det(J) and exp(log-det ODE), taken from
        the one determinant the positivity check computed."""
        return self._route_gap


@dataclass(frozen=True)
class FlowSchedule:
    t_max: float = 8.0
    steps: int = 64

    def __post_init__(self):
        if self.t_max < 3.0:
            raise DomainError("t_max below 3 leaves a visible e^{-2t} tail")
        if self.steps < 64:
            raise DomainError("use at least 64 recording steps")

    @property
    def times(self):
        return np.linspace(0.0, self.t_max, self.steps + 1)


def _field_parts(f, t, x):
    ev = semigroup.apply(f, t, x)
    lap = np.trace(ev.hess_log, axis1=-2, axis2=-1)
    return -ev.grad_log, -ev.hess_log, -lap


def _semigroup_field(f, t, x, jac):
    """(dx/dt, dJ/dt, d log det/dt) at flow time t, through apply."""
    drift, dhess, dlap = _field_parts(f, t, x)
    return drift, dhess @ jac, dlap


def _gaussian_field(f, t_max):
    """The flow field of f = exp(c + b.x - x.B x / 2) without a
    semigroup.apply per stage, or None for any other weight.

    P_t f(x) = H_s f(a x) is again a Gaussian exponent. With
    M = B + Id/s, one inverse gives the drift
    -a ((b + a x / s) M^{-1} - a x) / s at each particle and the Hessian
    -a^2 (M^{-1}/s - Id) / s that all of them share, so the Jacobians
    advance in one GEMM and the log-determinants by one trace. These are
    the operations of PolyExp.smoothed_log_derivs and apply one for one,
    so every bit is the one _semigroup_field gives; the unsmoothed branch
    of s < 1e-14 (t = 0) stays with apply. The eigenvalues of M fall as s
    grows, so M is positive definite at every stage when it is at t_max;
    when it is not, this returns None, and apply raises its DomainError
    at the stage where M fails.
    """
    term = _one_term(f)
    if term is None or term.poly is not None:
        return None
    n = term.B.shape[0]
    eye = np.eye(n)
    _, s_max = semigroup.kernel_params(t_max)
    if np.linalg.eigvalsh(term.B + eye / s_max).min() <= 0:
        return None

    def gaussian(t, x, jac):
        a, s = semigroup.kernel_params(t)
        if s < 1e-14:
            return _semigroup_field(f, t, x, jac)
        Minv = np.linalg.inv(term.B + eye / s)
        loc = a * x
        mean = (term.b[None, :] + loc / s) @ Minv
        hess = a * a * ((Minv / s - eye) / s)
        m = x.shape[0]
        # the (n, m n) matrix of every J side by side, times -hess
        djac = -hess @ jac.transpose(1, 0, 2).reshape(n, m * n)
        return (-(a * ((mean - loc) / s)),
                djac.reshape(n, m, n).transpose(1, 0, 2),
                np.full(m, -np.trace(hess)))

    return gaussian


def _pack(pos, jac, logdet):
    return np.concatenate([pos.ravel(), jac.ravel(), logdet])


def _unpack(y, m, n):
    pos = y[:m * n].reshape(m, n)
    jac = y[m * n:m * n + m * n * n].reshape(m, n, n)
    logdet = y[m * n + m * n * n:]
    return pos, jac, logdet


# Dormand-Prince 5(4): nodes, stages, fifth-order weights, error weights
# (fifth minus fourth order, with the FSAL stage) and the quartic dense
# output with Shampine's optimal c_6 (Hairer, Norsett & Wanner, Solving
# ODEs I, II.4-5), entry for entry those of the reference RK45 solver.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _rk45(fun, t_end, y0, t_eval, rtol, atol):
    """Adaptive Dormand-Prince 5(4) from t = 0 to t_end, read at t_eval.

    Steps advance with the fifth-order solution. The RMS of the embedded
    error over atol + rtol max(|y_old|, |y_new|) must stay below 1; the
    next step scales by 0.9 err^(-1/5), clipped to [0.2, 10], and not up
    after a rejection. The first step follows Hairer, Norsett & Wanner
    (II.4). Each accepted step evaluates its quartic interpolant at the
    t_eval points it covers. Every operation is the one the reference
    solve_ivp(method="RK45") performs, so the results agree bit for bit.
    Returns the states as the columns of a (len(y0), len(t_eval)) array;
    a step below ten ulps of t raises AccuracyError.
    """
    t, y = 0.0, y0
    f = fun(t, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_end)

    K = np.empty((7, y.size))
    out = np.empty((y.size, t_eval.size))
    done = 0
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise AccuracyError(
                    f"flow integration failed: step size {h_abs:.2e} "
                    f"fell below {min_step:.2e} at t={t:.6g}")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, _DP_A[s, :s]) * h
                K[s] = fun(t + _DP_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[-1] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(K.T, _DP_E) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[-1].copy()
        stop = np.searchsorted(t_eval, t, side="right")
        if stop > done:
            x = (t_eval[done:stop] - t_old) / h
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            out[:, done:stop] = h * np.dot(K.T.dot(_DP_P), p) + y_old[:, None]
            done = stop
    return out


def integrate_flow(f, particles, schedule, record_every=1):
    """Joint integration of positions, Jacobians, and log-determinants.

    Returns a list of FlowState at every record_every-th schedule time
    and t_max. The stepper runs at rtol 1e-8 and atol 1e-9. The two
    determinant routes are compared at each recorded state; divergence
    beyond 10x the stepper's rtol raises AccuracyError.
    """
    if record_every < 1:
        raise DomainError(
            f"record_every must be at least 1, got {record_every}")
    particles = np.atleast_2d(np.asarray(particles, dtype=float))
    m, n = particles.shape
    eye = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    y0 = _pack(particles, eye, np.zeros(m))
    t_rec = schedule.times[::record_every]
    if t_rec[-1] != schedule.t_max:
        t_rec = np.append(t_rec, schedule.t_max)

    flow_field = (_gaussian_field(f, schedule.t_max)
                  or functools.partial(_semigroup_field, f))

    def rhs(t, y):
        pos, jac, _ = _unpack(y, m, n)
        return _pack(*flow_field(t, pos, jac))

    rtol = 1e-8
    ys = _rk45(rhs, schedule.t_max, y0, t_rec, rtol, 1e-9)
    agree_tol = 10.0 * rtol
    states = []
    for i, t in enumerate(t_rec):
        pos, jac, logdet = _unpack(ys[:, i], m, n)
        st = FlowState(t=float(t), positions=pos, jacobians=jac,
                       log_dets=logdet)
        gap = st.route_agreement()
        if gap > agree_tol:
            raise AccuracyError(
                f"determinant routes disagree by {gap:.2e} at t={t:.3f}; "
                "tighten the stepper tolerance", estimate=gap)
        states.append(st)
    return states


# ---------------------------------------------------------------------------
# tail handling past t_max


def _one_term(f):
    """The term of f's polynomial-Gaussian family when it has one, or None."""
    fam = f if isinstance(f, PolyExp) else getattr(f, "family", None)
    if fam is None or len(fam.terms) != 1:
        return None
    return fam.terms[0]


def _pure_quadratic_exponent(f):
    """B from f = const * exp(c + b.x - x.B x / 2), or None."""
    term = _one_term(f)
    if term is None or term.poly is not None and poly_degree(term.poly) > 0:
        return None
    return term.B


def tail_log_det(f, t_max, positions=None):
    """(tail log-det increment, error bar) for the flow past t_max.

    Quadratic-exponent f: the increment int_{t_max}^inf -lap log P_t f dt
    is (1/2) [logdet(I + B) - logdet(I + s B)] with s = 1 - e^{-2 t_max},
    exact and position-free. Otherwise the Laplacian frozen at t_max decays
    at least like e^{-2(t - t_max)}, so |lap|/2 bounds the tail.
    """
    B = _pure_quadratic_exponent(f)
    if B is not None:
        n = B.shape[0]
        s = -np.expm1(-2.0 * t_max)
        eye = np.eye(n)
        sign1, ld1 = np.linalg.slogdet(eye + B)
        sign2, ld2 = np.linalg.slogdet(eye + s * B)
        if sign1 <= 0 or sign2 <= 0:
            raise DomainError("quadratic exponent leaves the Gaussian cone")
        return 0.5 * (ld1 - ld2), 0.0
    if positions is None:
        raise DomainError("general f needs positions for the frozen-tail bound")
    _, _, dlap = _field_parts(f, t_max, positions)
    bar = float(np.abs(dlap).max()) / 2.0
    return 0.0, bar


def terminal_determinants(states, f):
    """(terminal dets including the tail factor, error bar on log det)."""
    last = states[-1]
    inc, bar = tail_log_det(f, last.t, positions=last.positions)
    return np.exp(last.log_dets + inc), bar


# ---------------------------------------------------------------------------
# certificates


def km_bound_rhs(alpha, t, n):
    """[(1 - e^{-2t})(alpha - 1) + 1]^{n/2}, the per-time volume bound."""
    s = -np.expm1(-2.0 * np.asarray(t, dtype=float))
    return (s * (alpha - 1.0) + 1.0) ** (n / 2.0)


def check_km_contraction(states, alpha, f, atol=0.0):
    """Volume-contraction certificate for an integrated flow.

    Observed is the worst ratio sup_x det J_t(x) / rhs(t) over recorded
    times, including the terminal time against alpha^{n/2} (with the tail
    factor of the weight f); the bound holds iff the ratio is <= 1.
    """
    n = states[0].positions.shape[1]
    per_time = []
    worst = -np.inf
    for st in states:
        rhs_t = km_bound_rhs(alpha, st.t, n)
        sup_det = float(st.determinants.max())
        per_time.append({"t": st.t, "sup_det": sup_det, "rhs": float(rhs_t)})
        worst = max(worst, sup_det / rhs_t)
    terminal_rhs = float(alpha) ** (n / 2.0)
    term_det, bar = terminal_determinants(states, f)
    term_sup = float(term_det.max())
    worst = max(worst, term_sup / terminal_rhs)
    return make_certificate(
        "km_volume_contraction", rhs=1.0, observed=float(worst),
        slack=None, provenance={"solver": "heat_flow",
                                 "stepper": "recorded_states"},
        probe_count=states[0].positions.shape[0], atol=atol,
        details={"per_time": per_time, "terminal_sup_det": term_sup,
                 "terminal_rhs": terminal_rhs, "tail_error_bar": bar,
                 "alpha": float(alpha), "dim": n})


def km_pushforward_check(states, moments=2):
    """Moment check of the terminal particles against the Gaussian target.

    Particles must be mu-distributed draws. Componentwise moments up to the
    requested order are compared in standard-error units; observed is the
    worst |discrepancy| / SE and the bound is 3.
    """
    last = states[-1]
    pts = last.positions
    m, n = pts.shape
    if m < 100 * moments:
        raise DomainError(
            f"{m} particles cannot support order-{moments} moment checks")
    worst = 0.0
    rows = []
    for order_ in range(1, moments + 1):
        emp = (pts ** order_).mean(axis=0)
        se = (pts ** order_).std(axis=0, ddof=1) / np.sqrt(m)
        ref = _gaussian_moment(order_)
        z = np.abs(emp - ref) / np.maximum(se, 1e-300)
        worst = max(worst, float(z.max()))
        rows.append({"order": order_, "empirical": emp.tolist(),
                     "reference": ref, "z": z.tolist()})
    return make_certificate(
        "km_pushforward_moments", rhs=3.0, observed=float(worst), slack=0.0,
        provenance={"solver": "heat_flow", "route": "monte_carlo"},
        probe_count=m, details={"rows": rows, "t": last.t})


def _gaussian_moment(order_):
    if order_ % 2 == 1:
        return 0.0
    k = order_ // 2
    val = 1.0
    for i in range(1, 2 * k, 2):
        val *= i
    return float(val)
