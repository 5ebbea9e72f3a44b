"""Adaptive integration of the phase-plane equation, with event capture.

The phase equation w'(s) = (et + ep*w^2)(1 - w*h(s)) is integrated with an
embedded Runge-Kutta pair (scipy's DOP853 by default) in two directions:

* toward_infinity: raw arclength s up to a configured ceiling;
* toward_zero: in the substituted variable t = log s, which turns the
  coordinate singularity at s = 0 into an infinite horizon and lets the
  integrator coast to s = 1e-10 and beyond without step collapse.

Integrations record phase-plane events (crossing the critical line,
touching a barrier within machine tolerance, step collapse) and classify
how each end terminated: reaching the span end, reaching the s -> 0
cutoff, or blowing up.  Blow-up locations are extrapolated from the tail
samples with the first-order pole model w ~ +-1/(s* - s), refined by
eliminating the leading error term linearly in 1/|w|.

The regular-at-center solution (slope vanishing at s = 0) is started from
its Taylor series; the coefficient recursion lives here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from enum import Enum
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .core import (
    BARRIER_TOL,
    FlowParams,
    PhaseState,
    Termination,
    TerminationKind,
    Trajectory,
    _scalar_or_array,
    critical_line,
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control and span settings shared by all integrations."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 1.0
    min_step: float = 1e-14
    escape_threshold: float = 1e8
    s_max: float = 100.0
    s_min_eps: float = 1e-10
    method: str = "DOP853"

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.s_min_eps < self.s_max:
            raise ValueError("need 0 < s_min_eps < s_max")
        if self.escape_threshold <= 1:
            raise ValueError("escape threshold must exceed the barrier scale")


class EventKind(Enum):
    CROSSED_LINE_R = "crossed_line_r"
    TOUCHED_BARRIER = "touched_barrier"
    STEP_COLLAPSE = "step_collapse"


@dataclass(frozen=True)
class EventRecord:
    """A located phase-plane event: what happened and where."""

    kind: EventKind
    s: float
    w: float


DIRECTIONS = ("toward_zero", "toward_infinity")


def _constant_trajectory(params: FlowParams, s0: float, w0: float,
                         direction: str, cfg: IntegratorConfig) -> Trajectory:
    # Barrier lines are exact solutions; skip the solver entirely.
    if direction == "toward_zero":
        s = np.geomspace(cfg.s_min_eps, s0, 33)
        left = Termination(TerminationKind.DOMAIN_BOUNDARY_ZERO, s=cfg.s_min_eps, value=w0)
        right = None
    else:
        s = np.linspace(s0, cfg.s_max, 33)
        left = None
        right = Termination(TerminationKind.REACHED_S_MAX, s=cfg.s_max, value=w0)
    w = np.full_like(s, w0)

    def dense(q):
        return _scalar_or_array(np.full_like(np.asarray(q, dtype=float), w0))

    return Trajectory(params, s, w, termination_left=left,
                      termination_right=right, dense=dense)


def _extrapolate_pole(s_tail: np.ndarray, w_tail: np.ndarray, side: int) -> float:
    """Pole location from tail samples, side = +1 for a pole to the right.

    Each sample gives the first-order estimate s_k + side/|w_k|; the exact
    location differs by O(1/w^2), so a linear fit in x = 1/|w| taken to
    x -> 0 removes the leading error.
    """
    x = 1.0 / np.abs(w_tail)
    e = s_tail + side * x
    if len(e) < 2 or abs(x[-1] - x[-2]) == 0.0:
        return float(e[-1])
    # two-point linear extrapolation from the deepest pair
    slope = (e[-1] - e[-2]) / (x[-1] - x[-2])
    return float(e[-1] - slope * x[-1])


def integrate(params: FlowParams, init: PhaseState | Tuple[float, float],
              direction: str, cfg: IntegratorConfig = IntegratorConfig(),
              stop_on_line_crossing: bool = False) -> Trajectory:
    """Integrate the phase equation one-sidedly from init.

    direction is "toward_zero" or "toward_infinity".  Toward zero the
    equation is integrated in t = log s.  The returned Trajectory is
    ordered by increasing s, carries dense output over its span, the
    located events, and a Termination at the far end (the near end stays
    None).  stop_on_line_crossing makes the critical-line crossing
    terminal (used by bisection decision runs, where crossing below the
    line already decides global existence).
    """
    s0, w0 = float(init[0]), float(init[1])
    if not (s0 > 0.0 and math.isfinite(s0)):
        raise ValueError(f"initial s must be positive and finite, got {s0}")
    if not math.isfinite(w0):
        raise ValueError(f"initial slope must be finite, got {w0}")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")

    if params.has_barriers and (abs(w0 - 1.0) <= BARRIER_TOL or abs(w0 + 1.0) <= BARRIER_TOL):
        return _constant_trajectory(params, s0, round(w0), direction, cfg)

    et, ep, c = params.eps_tilde, params.eps_prime, params.fiber_coeff
    log_mode = direction == "toward_zero"
    # Rejected trial stages can overshoot far past the escape threshold;
    # clamping there keeps the arithmetic finite without touching any
    # state the integration can actually accept.
    z_cap = 100.0 * cfg.escape_threshold

    if log_mode:
        span = (math.log(s0), math.log(cfg.s_min_eps))

        def f(t, y):
            z = min(max(y[0], -z_cap), z_cap)
            # s * w'(s) under s = e^t keeps the vector field bounded near 0
            return [(et + ep * z * z) * (math.exp(t) - et * c * z)]

        def s_of(t):
            return np.exp(t)
    else:
        span = (s0, cfg.s_max)

        def f(t, y):
            z = min(max(y[0], -z_cap), z_cap)
            return [(et + ep * z * z) * (1.0 - z * et * c / t)]

        def s_of(t):
            return np.asarray(t, dtype=float)

    def ev_cross_r(t, y):
        return y[0] - float(critical_line(params, float(s_of(t))))

    def ev_escape_pos(t, y):
        return y[0] - cfg.escape_threshold

    def ev_escape_neg(t, y):
        return y[0] + cfg.escape_threshold

    def ev_barrier_pos(t, y):
        return abs(y[0]) - (1.0 - BARRIER_TOL)

    def ev_barrier_neg(t, y):
        return abs(y[0]) - (1.0 + BARRIER_TOL)

    ev_escape_pos.terminal = True
    ev_escape_neg.terminal = True
    if stop_on_line_crossing:
        ev_cross_r.terminal = True
    events = [ev_cross_r, ev_escape_pos, ev_escape_neg]
    if params.has_barriers:
        events += [ev_barrier_pos, ev_barrier_neg]

    sol = solve_ivp(f, span, [w0], method=cfg.method, rtol=cfg.rel_tol,
                    atol=cfg.abs_tol, max_step=cfg.max_step,
                    dense_output=True, events=events)

    s_samples = np.asarray(s_of(sol.t), dtype=float)
    w_samples = sol.y[0].copy()

    records: List[EventRecord] = []
    for idx, kind in ((0, EventKind.CROSSED_LINE_R),
                      (3, EventKind.TOUCHED_BARRIER),
                      (4, EventKind.TOUCHED_BARRIER)):
        if idx >= len(sol.t_events):
            continue
        for te, ye in zip(sol.t_events[idx], sol.y_events[idx]):
            records.append(EventRecord(kind, float(s_of(te)), float(ye[0])))

    escaped = any(len(sol.t_events[i]) for i in (1, 2))
    solver_died = sol.status == -1
    # A square-root pole w ~ (s*-s)^(-1/2) outruns double precision: the
    # step collapses at |w| ~ 1/sqrt(eps) before a 1e8 threshold can be
    # crossed.  Step collapse far outside the regular range is blow-up.
    pole_scale = 1000.0 * max(1.0, cfg.s_max / params.fiber_coeff)
    if solver_died and not escaped:
        if abs(w_samples[-1]) > pole_scale:
            escaped = True
        else:
            raise RuntimeError(
                f"integrator failed before any terminal event: {sol.message}")

    stopped_by_crossing = (stop_on_line_crossing and sol.status == 1
                           and not escaped and len(sol.t_events[0]) > 0)

    far_termination: Optional[Termination]
    if escaped:
        side = -1 if direction == "toward_zero" else +1
        tail = slice(max(0, len(s_samples) - 4), None)
        s_star = _extrapolate_pole(s_samples[tail], w_samples[tail], side)
        sign = +1 if w_samples[-1] > 0 else -1
        far_termination = Termination(TerminationKind.BLOW_UP, s=s_star, sign=sign)
        if len(s_samples) >= 2:
            last_step = abs(s_samples[-1] - s_samples[-2])
            if last_step < cfg.min_step * max(1.0, abs(s_samples[-1])):
                records.append(EventRecord(EventKind.STEP_COLLAPSE,
                                           float(s_samples[-1]), float(w_samples[-1])))
    elif stopped_by_crossing:
        far_termination = None
    elif direction == "toward_zero":
        far_termination = Termination(TerminationKind.DOMAIN_BOUNDARY_ZERO,
                                      s=float(s_samples[-1]), value=float(w_samples[-1]))
    else:
        far_termination = Termination(TerminationKind.REACHED_S_MAX,
                                      s=float(s_samples[-1]), value=float(w_samples[-1]))

    interpolant = sol.sol

    def dense(q):
        q = np.asarray(q, dtype=float)
        return _scalar_or_array(interpolant(np.log(q) if log_mode else q)[0])

    if direction == "toward_zero":
        order = np.argsort(s_samples)
        s_samples, w_samples = s_samples[order], w_samples[order]
        left, right = far_termination, None
    else:
        left, right = None, far_termination

    # collapse occasional duplicate nodes produced by event endpoints
    keep = np.concatenate(([True], np.diff(s_samples) > 0))
    traj = Trajectory(params, s_samples[keep], w_samples[keep],
                      termination_left=left, termination_right=right,
                      events=sorted(records, key=lambda r: r.s), dense=dense)
    return traj


def _handoff(below: Callable, above: Callable, r: float,
            hi: Optional[float] = None) -> Callable:
    """Evaluator reading below() left of r and above() from r on, each
    called only with arguments on its own side (and at most hi)."""
    def evaluate(q):
        q = np.asarray(q, dtype=float)
        return _scalar_or_array(np.where(q < r, below(np.minimum(q, r)),
                                         above(np.clip(q, r, hi))))
    return evaluate


def merge_bidirectional(down: Trajectory, up: Trajectory) -> Trajectory:
    """Join a toward-zero arc and a toward-infinity arc sharing a start point."""
    if down.params != up.params:
        raise ValueError("cannot merge trajectories with different parameters")
    s_join = down.s[-1]
    if abs(s_join - up.s[0]) > 1e-9 * max(1.0, abs(s_join)):
        raise ValueError("trajectories do not share their anchor point")
    s = np.concatenate([down.s, up.s[1:]])
    w = np.concatenate([down.w, up.w[1:]])
    dn, un = down.dense, up.dense
    # without dense output Trajectory.w_at interpolates the samples
    dense = None if dn is None or un is None else _handoff(dn, un, s_join)
    return Trajectory(down.params, s, w,
                      termination_left=down.termination_left,
                      termination_right=up.termination_right,
                      events=sorted(down.events + up.events, key=lambda r: r.s),
                      dense=dense)


def bowl_series_coeffs(params: FlowParams, order: int) -> np.ndarray:
    """Taylor coefficients at s = 0 of the bowl-type slope w(s).

    The unique solution with w(0) = 0 regular at the center is odd; writing
    w = s*v(x) with x = s^2 and matching powers in the phase equation gives

        b_0 = et / (1 + c),
        (2j + 1 + c) b_j = ep*([x^(j-1)] v^2  -  et*c*[x^(j-1)] v^3),

    with v = sum b_j x^j.  Returns the full array a[0..order] with
    a[2j+1] = b_j and zeros in the even slots.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    et, ep, c = params.eps_tilde, params.eps_prime, params.fiber_coeff
    J = (order - 1) // 2
    b = np.zeros(J + 1)
    b[0] = et / (1.0 + c)
    for j in range(1, J + 1):
        head = b[:j]
        v2 = np.convolve(head, head)[j - 1]
        v3 = np.convolve(np.convolve(head, head), head)[j - 1]
        b[j] = ep * (v2 - et * c * v3) / (2 * j + 1 + c)
    a = np.zeros(order + 1)
    a[1::2] = b
    return a


def eval_series(coeffs: np.ndarray, s):
    """Evaluate a Taylor polynomial with ascending coefficients at s."""
    return np.polynomial.polynomial.polyval(s, coeffs)


def integrate_series(coeffs: np.ndarray, const: float = 0.0) -> np.ndarray:
    """Antiderivative coefficients: term a_k s^k maps to a_k s^(k+1)/(k+1)."""
    out = np.zeros(len(coeffs) + 1)
    out[0] = const
    out[1:] = np.asarray(coeffs) / np.arange(1, len(coeffs) + 1)
    return out


def _series_anchored(params: FlowParams, start: PhaseState, order: int,
                     cfg: IntegratorConfig) -> Trajectory:
    """Center-regular trajectory: its order-`order` center series below
    start.s (48 geometric sample nodes from cfg.s_min_eps on), forward
    integration from start, which must sit on the series, beyond it."""
    coeffs = bowl_series_coeffs(params, order)
    up = integrate(params, start, "toward_infinity", cfg)
    s_head = np.geomspace(cfg.s_min_eps, start.s, 49)[:-1]
    w_head = eval_series(coeffs, s_head)
    left = Termination(TerminationKind.DOMAIN_BOUNDARY_ZERO, s=float(s_head[0]),
                       value=float(w_head[0]))
    return Trajectory(params, np.concatenate([s_head, up.s]),
                      np.concatenate([w_head, up.w]), termination_left=left,
                      termination_right=up.termination_right, events=up.events,
                      dense=_handoff(partial(eval_series, coeffs), up.dense, start.s))


def bowl_start(params: FlowParams, s_start: float, order: int = 13,
               abs_tol: float = 1e-12) -> PhaseState:
    """Series-start state for the bowl-type solution at a small s_start.

    Estimates the truncation error from the first omitted term and refuses
    to hand out a state less accurate than abs_tol.  s_start = 0 returns
    the center boundary condition itself.
    """
    if s_start < 0.0:
        raise ValueError("series start needs s_start >= 0")
    if s_start == 0.0:
        return PhaseState(0.0, 0.0)
    a_ext = bowl_series_coeffs(params, order + 2)
    next_term = abs(a_ext[-1] if (order + 2) % 2 == 1 else a_ext[-2])
    k_next = order + 2 if (order + 2) % 2 == 1 else order + 1
    if next_term * s_start ** k_next > abs_tol:
        raise ValueError(
            f"series truncation {next_term * s_start ** k_next:.3e} at "
            f"s = {s_start} exceeds {abs_tol:.1e}; lower s_start or raise order")
    w = float(eval_series(a_ext[:order + 1], s_start))
    return PhaseState(s_start, w)


def detect_blowup(traj: Trajectory) -> Optional[Tuple[float, int]]:
    """Extrapolated pole (s*, sign) if the trajectory ended in blow-up, else None."""
    for term in (traj.termination_right, traj.termination_left):
        if term is not None and term.kind is TerminationKind.BLOW_UP:
            return float(term.s), int(term.sign)
    return None


def comparison_blowup_bound(params: FlowParams, s0: float, w0: float) -> float:
    """Upper bound on the blow-up location for a lower-outer-region start.

    For the spacelike form (et = +1, ep = -1) and w0 < -1, the factor
    (1 - w h) exceeds 1, so w lies below the solution of z' = 1 - z^2
    through (s0, w0), namely z = coth(s - s0 + arccoth(w0)); the pole of
    that comparison solution bounds s* from above.
    """
    if not (params.eps_tilde == +1 and params.eps_prime == -1):
        raise ValueError("comparison bound requires the spacelike form et=+1, ep=-1")
    if not w0 < -1.0:
        raise ValueError("comparison bound applies below the lower barrier only")
    if s0 <= 0.0:
        raise ValueError("base coordinate s must be positive")
    arccoth = 0.5 * math.log((w0 + 1.0) / (w0 - 1.0))
    return s0 - arccoth
