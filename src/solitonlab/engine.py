"""Lockstep adaptive integration of the phase-plane equation, with events.

The phase equation w'(s) = (et + ep*w^2)(1 - w*h(s)) is integrated by one
stepper: DOP853 with scipy's tableau (a vendored copy, _dop853, so the
engine imports numpy only) and scipy's step control, ported lane by lane
(Hairer-Norsett-Wanner, Solving ODEs I, II.4-6).  It advances N initial
conditions ("lanes") of one direction in lockstep, each with its own step
size, so every lane takes scipy's step sequence up to rounding, and the
same one whether it runs alone or among others.
integrate() is a batch of one.  The two directions:

* toward_infinity: raw arclength s up to a configured ceiling;
* toward_zero: in the substituted variable t = log s, which turns the
  coordinate singularity at s = 0 into an infinite horizon and lets the
  integrator coast to s = 1e-10 and beyond without step collapse.

Each lane carries its own dense output (the seventh-degree DOP853
interpolant of every accepted step), solver counters, and its events:
crossing the critical line, located on the step's interpolant (Shampine &
Thompson, "Event location for ODEs", 2000).  A lane that fails (step
collapse) comes back as its own exception and does not stop the others.
Barrier starts are exact constant solutions and skip the stepper.

Each end is classified by how it terminated: reaching the span end,
reaching the s -> 0 cutoff, or blowing up, where the chart w fails.  One
chart rule holds in both directions: a lane is in the chart
q = 1/w^2 of its sign sigma whenever |w| >= max(10, 2s/c), where
q' = -2(et*q + ep)(sigma*sqrt(q) - h(s)), and in the w chart otherwise.
Past that level |w| is monotone.  In the direction where it grows without
bound (forward when et*ep = -1, toward zero otherwise) a lane passes from
the w chart to the q chart at the level and ends at q = 1e-12, within
about 1e-12 of its pole (q ~ (2c/s)(s* - s)): that is its BLOW_UP s.  In
the other direction a lane passes from the q chart back to the w chart at
the level; a private entry starts lanes at a pole itself, q = 0.  The
arcs of the two charts are joined at the switch.

The regular-at-center solution (slope vanishing at s = 0) is started from
its Taylor series, and the separatrix of the strip form is ended by its
far-field asymptotic series; both coefficient recursions live here, as
does the join of a series part and an integrated arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _dop853
from .core import (
    BARRIER_TOL,
    FlowParams,
    PhaseState,
    SolverStats,
    Termination,
    TerminationKind,
    Trajectory,
    _scalar_or_array,
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control and span settings shared by all integrations."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 1.0
    s_max: float = 100.0
    s_min_eps: float = 1e-10

    def __post_init__(self) -> None:
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0 < self.s_min_eps < self.s_max < math.inf:
            raise ValueError("need 0 < s_min_eps < s_max < inf")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")


class EventKind(Enum):
    CROSSED_LINE_R = "crossed_line_r"


@dataclass(frozen=True)
class EventRecord:
    """A located phase-plane event: what happened and where."""

    kind: EventKind
    s: float
    w: float


DIRECTIONS = ("toward_zero", "toward_infinity")

# DOP853: 12 stages, the step-end slope as a 13th, 3 more for dense output
_NS = _dop853.N_STAGES
_A_ROWS = [_dop853.A[i, :i] for i in range(_NS)]
_B = _dop853.B
_C = np.append(_dop853.C[:_NS], 1.0)
_E = np.stack([_dop853.E5, _dop853.E3])
_A_DENSE = _dop853.A[_NS + 1:]
_C_DENSE = _dop853.C[_NS + 1:]
_D = _dop853.D
# scipy's step control; the error estimate is of order 7
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0
# an error norm below this is as good as zero: the growth clamp wins
_TINY = 1e-300
_EPS = np.finfo(float).eps
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# event columns: the line crossing and the chart switch in the w chart, the
# end of the q chart; only the crossing is recorded, as an EventRecord
_CROSS, _SWITCH, _END = 0, 1, 0
# a lane is in the q chart while |w| >= max(_W_SWITCH, 2s/c); where |w|
# grows it ends at q = 1/w^2 = _Q_END (|w| = 1e6), its pole
_W_SWITCH = 10.0
_Q_END = 1e-12
# trial stages of a rejected step can overshoot far; the w chart reads
# slopes beyond this as this, which keeps the arithmetic finite
_W_CAP = 1e10

Result = Union[Trajectory, Exception]


class _Field:
    """The phase equation in the stepping variable x and one chart.

    Toward infinity x = s and the field is the s-derivative; toward zero
    x = log s and it is s times that, which stays bounded near 0.  The w
    chart (sigma = 0) carries w, read clamped at +-_W_CAP; the q chart
    carries q = 1/w^2 of lanes with sign w = sigma, read clamped at 0.
    The clamps keep wild trial stages finite.  grows says whether |w|
    grows without bound in the stepping direction.

    Event columns: the critical line w = s*et/c and, where |w| grows, the
    switch level |w| - max(_W_SWITCH, 2s/c) in the w chart; in the q chart
    q - _Q_END where |w| grows, else q - 1/max(_W_SWITCH, 2s/c)^2.  kinds
    says what each records; terminal is the one that ends the chart, see
    stopped().
    """

    def __init__(self, params: FlowParams, log_mode: bool, sigma: float = 0.0,
                 grows: bool = False) -> None:
        self.et, self.ep, self.c = (float(params.eps_tilde), params.eps_prime,
                                    params.fiber_coeff)
        self.etc = params.eps_tilde * params.fiber_coeff
        self.log_mode = log_mode
        self.sigma = sigma
        self.grows = grows
        self.kinds = (None,) if sigma else (EventKind.CROSSED_LINE_R,) + (None,) * grows
        self.terminal = [_END] if sigma else [_SWITCH] * grows

    def s_of(self, x):
        return _libm(math.exp, x) if self.log_mode else x

    def __call__(self, s, z, out=None):
        if self.sigma:
            # -2(et*q + ep)(sigma*sqrt(q) - h(s))
            a = -2.0 * (self.et * z + self.ep)
            r = self.sigma * np.sqrt(np.maximum(z, 0.0))
            if self.log_mode:
                return np.multiply(a, r * s - self.etc, out=out)
            return np.multiply(a, r - self.etc / s, out=out)
        z = np.minimum(np.maximum(z, -_W_CAP), _W_CAP)
        zz = z * z
        q = self.et - zz if self.ep < 0 else self.et + zz    # et + ep*z^2
        if self.log_mode:
            return np.multiply(q, s - z * self.etc, out=out)
        return np.multiply(q, 1.0 - z * self.etc / s, out=out)

    def step_cap(self, y, f):
        """The longest step from chart values y with slope f.  q is not
        smooth at the pole (its next term goes like (s* - s)^(3/2)), so no
        q-chart step toward it goes past 0.7 of the way to where the
        tangent meets q = _Q_END/2; the tangent overshoots the pole by less
        than 1.3x."""
        return 0.7 * (y - 0.5 * _Q_END) / np.abs(f) if self.sigma and self.grows else math.inf

    def to_w(self, y):
        """The slope at chart values y (in the q chart at most 1e6 in size)."""
        return self.sigma / np.sqrt(np.maximum(y, _Q_END)) if self.sigma else y

    def level(self, s):
        """The switch level max(_W_SWITCH, 2s/c) at s."""
        return np.maximum(_W_SWITCH, 2.0 * s / self.c)

    def past_level(self, x, w):
        """Whether slopes w at points x lie at or past the switch level."""
        far = np.abs(w) >= _W_SWITCH
        if np.count_nonzero(far):
            far &= np.abs(w) >= 2.0 * self.s_of(x) / self.c
        return far

    def stopped(self, x, y):
        """Whether points (x, y) lie at or past the end of the chart."""
        if not self.sigma:
            return self.past_level(x, y) if self.grows else np.zeros(y.shape, dtype=bool)
        return y <= _Q_END if self.grows else y >= self.level(self.s_of(x)) ** -2.0

    def events(self, x, y):
        """The event functions at points (x, y), one column each."""
        if self.sigma:
            end = _Q_END if self.grows else self.level(self.s_of(x)) ** -2.0
            return (y - end)[..., None]
        s = self.s_of(x)
        cols = [y - s * self.et / self.c]
        if self.grows:
            cols.append(np.abs(y) - self.level(s))
        return np.stack(cols, axis=-1)


def _libm(fn, x):
    """A math-module function element by element.  numpy's SIMD exp and
    power differ from libm in the last bit now and then, and the error
    estimate, a sum that cancels to ~1e-10 of its terms, would blow that
    up into the step sizes; libm keeps each lane on scipy's steps."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _straddles(g_old, g_new):
    """scipy's event activity test: g reaches or crosses zero."""
    return np.sign(g_old) * np.sign(g_new) <= 0.0


@dataclass
class _Steps:
    """Accepted steps grouped by lane, each lane's in the order taken.

    F holds the seven dense-output coefficient rows of every step.
    """

    lane: np.ndarray
    x0: np.ndarray
    h: np.ndarray
    y0: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    F: np.ndarray


def _interpolate(F, x0, h, y0, x):
    """The DOP853 dense output of each step at x (arrays aligned by step)."""
    u = (x - x0) / h
    out = np.zeros_like(u)
    for i in range(F.shape[1]):
        out += F[:, -1 - i]
        out *= u if i % 2 == 0 else 1.0 - u
    return out + y0


def _initial_step(field: _Field, x0, y0, f0, bound: float, direction: float,
                  rtol: float, cfg: IntegratorConfig):
    """scipy's select_initial_step for an order-7 error estimate, per lane."""
    span = np.abs(bound - x0)
    scale = cfg.abs_tol + np.abs(y0) * rtol
    d0, d1 = np.abs(y0) / scale, np.abs(f0) / scale
    flat0 = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.minimum(np.where(flat0, 1e-6, 0.01 * d0 / np.where(flat0, 1.0, d1)), span)
    h0 = np.where(h0 > 0.0, h0, 1e-6)    # only lanes already at the bound
    y1 = y0 + h0 * direction * f0
    f1 = field(field.s_of(x0 + h0 * direction), y1)
    d2 = np.abs(f1 - f0) / scale / h0
    dmax = np.maximum(d1, d2)
    flat1 = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat1, np.maximum(1e-6, h0 * 1e-3),
                  _libm(lambda v: v ** -_EXPONENT, 0.01 / np.where(flat1, 1.0, dmax)))
    return np.minimum(np.minimum(np.minimum(100 * h0, h1), span), cfg.max_step)


# how a lane's stepping ended
_FINISHED, _TERMINAL, _COLLAPSED = range(3)


def _stages(field: _Field, heads, cols, s_stage, y, h):
    """The DOP853 stages of one step into cols (cols[0] holds f(y)):
    scipy's rk_step, each stage sum a vecdot on lane rows, the one dot
    product per lane that scipy makes, whatever the batch around it."""
    for i in range(1, _NS):
        dy = np.vecdot(heads[i], _A_ROWS[i]) * h
        field(s_stage[i], y + dy, cols[i])
    y_new = y + h * np.vecdot(heads[_NS], _B)
    return y_new, field(s_stage[_NS], y_new, cols[_NS])


def _advance(field: _Field, x, y, bound: float, direction: float,
             cfg: IntegratorConfig, stop_on_crossing: bool):
    """Step all lanes in lockstep until each one is done.

    Lane by lane this is scipy's RungeKutta._step_impl for DOP853: the
    initial step, error norm, SAFETY 0.9, factor clamp [0.2, 10], no
    growth right after a rejection, max_step, and a minimum step of 10
    ulp(x).  A lane stops at the bound, at the end of the chart (see
    _Field.stopped), at the line crossing when stop_on_crossing, or at
    step collapse.

    Returns the steps (_Steps), and per lane: how it ended, attempts and
    accepted steps.
    """
    n = x.size
    rtol = max(cfg.rel_tol, 100 * _EPS)
    outcome = np.full(n, _FINISHED)
    attempts = np.zeros(n, dtype=int)
    accepted = np.zeros(n, dtype=int)
    records = []

    f = field(field.s_of(x), y)
    h_abs = _initial_step(field, x, y, f, bound, direction, rtol, cfg)
    lane = np.flatnonzero(x != bound)
    x, y, f, h_abs = x[lane], y[lane], f[lane], h_abs[lane]
    # growth cap of the next step: 10x, or 1x right after a rejection
    grow_cap, capped = np.full(lane.size, _MAX_FACTOR), False
    rejects = np.zeros(lane.size, dtype=int)
    g_cross = field.events(x, y)[:, _CROSS] if stop_on_crossing else None
    toward = direction * np.inf
    clip_to_bound = np.minimum if direction > 0 else np.maximum
    # no lane's minimum step 10*ulp(x) can exceed this
    min_step_cap = 10.0 * 2.0 ** -52 * max(abs(bound), float(np.max(np.abs(x), initial=0.0)))
    it = 0

    def buffers(m):
        K = np.empty((m, _NS + 1))
        return K, [K[:, i] for i in range(_NS + 1)], [K[:, :i] for i in range(_NS + 1)]

    K, cols, heads = buffers(lane.size)
    while lane.size:
        it += 1
        h_abs = np.minimum(h_abs, np.minimum(field.step_cap(y, f), cfg.max_step))
        stuck = None
        if np.count_nonzero(h_abs < min_step_cap):
            min_step = 10.0 * np.abs(np.nextafter(x, toward) - x)
            stuck = (grow_cap < _MAX_FACTOR) & (h_abs < min_step)    # on a retry
            h_abs = np.maximum(h_abs, min_step)
        x_new = clip_to_bound(x + h_abs * direction, bound)
        h = x_new - x
        h_abs = np.abs(h)

        s_stage = field.s_of(x + _C[:, None] * h)
        cols[0][:] = f
        y_new, f_new = _stages(field, heads, cols, s_stage, y, h)

        y_big = np.maximum(np.abs(y), np.abs(y_new))
        err = np.vecdot(K[:, None, :], _E) / (cfg.abs_tol + y_big * rtol)[:, None]
        err *= err
        e5 = err[:, 0]
        denom = np.maximum(e5 + 0.01 * err[:, 1], _TINY)   # 0 only when e5 is
        norm = h_abs * e5 / np.sqrt(denom)
        ok = norm < 1.0
        if stuck is not None:
            ok &= ~stuck
        grow = _libm(lambda v: _SAFETY * max(v, _TINY) ** _EXPONENT, norm)
        # accepted steps grow at most to the cap, rejected ones shrink to 0.2x at most
        h_abs = h_abs * np.minimum(np.maximum(grow, _MIN_FACTOR), grow_cap)

        step = (lane, x, h, y, x_new, y_new, K.copy())
        if np.count_nonzero(ok) == ok.size:
            records.append(step)
            x, y, f = x_new, y_new, step[-1][:, _NS]
            if capped:
                grow_cap, capped = np.full(lane.size, _MAX_FACTOR), False
        else:
            records.append(tuple(a[ok] for a in step))
            x, y, f = np.where(ok, x_new, x), np.where(ok, y_new, y), np.where(ok, f_new, f)
            grow_cap, capped = np.where(ok, _MAX_FACTOR, 1.0), True
            rejects += ~ok if stuck is None else ~ok & ~stuck

        done = ok & (x_new == bound)
        hit = ok & field.stopped(x_new, y_new)
        if stop_on_crossing:
            g_new = field.events(x_new, y_new)[:, _CROSS]
            hit |= ok & _straddles(g_cross, g_new)
            g_cross = np.where(ok, g_new, g_cross)
        stop = done | hit
        if stuck is not None:
            stop |= stuck
        if not np.count_nonzero(stop):
            continue
        outcome[lane[stop]] = np.where(hit, _TERMINAL, np.where(done, _FINISHED, _COLLAPSED))[stop]
        tries = it - (stuck[stop] if stuck is not None else 0)
        attempts[lane[stop]] = tries
        accepted[lane[stop]] = tries - rejects[stop]
        keep = ~stop
        lane, x, y, f, h_abs, grow_cap, rejects = (
            a[keep] for a in (lane, x, y, f, h_abs, grow_cap, rejects))
        if stop_on_crossing:
            g_cross = g_cross[keep]
        K, cols, heads = buffers(lane.size)

    return _collect(field, records), outcome, attempts, accepted


def _collect(field: _Field, records: list) -> _Steps:
    """Group the accepted steps by lane and build their dense output:
    scipy's Dop853DenseOutput coefficients, for all steps at once."""
    if not records:
        records = [(np.zeros(0, dtype=int),) + (np.zeros(0),) * 5 + (np.zeros((0, _NS + 1)),)]
    parts = list(zip(*records))
    records.clear()    # the steps live on in parts, and only until copied
    lane, x0, h, y0, x1, y1 = (np.concatenate(a) for a in parts[:6])
    Kd = np.empty((lane.size, _NS + 1 + len(_C_DENSE)))
    np.concatenate(parts.pop(), out=Kd[:, :_NS + 1])
    del parts
    for i, (a, c) in enumerate(zip(_A_DENSE, _C_DENSE), start=_NS + 1):
        dy = np.vecdot(Kd[:, :i], a[:i]) * h
        Kd[:, i] = field(field.s_of(x0 + c * h), y0 + dy)
    dy = y1 - y0
    F = np.empty((lane.size, 3 + len(_D)))
    F[:, 0] = dy
    F[:, 1] = h * Kd[:, 0] - dy
    F[:, 2] = 2 * dy - h * (Kd[:, _NS] + Kd[:, 0])
    F[:, 3:] = h[:, None] * np.vecdot(Kd[:, None, :], _D)
    order = np.argsort(lane, kind="stable")
    return _Steps(*(a[order] for a in (lane, x0, h, y0, x1, y1, F)))


def _event_roots(field: _Field, steps: _Steps, m: np.ndarray, col: np.ndarray):
    """Zeros of event column col[j] on the interpolant of step m[j].

    Illinois false position on each bracket [x0, x1] down to scipy's
    4 eps, each iteration on the brackets still open, so a root does not
    depend on the others.  A bracket the interpolant does not straddle
    (rounding at its end) gives the end nearer zero.  Returns (x, y) of
    the roots.
    """
    F, x0, h, y0 = steps.F[m], steps.x0[m], steps.h[m], steps.y0[m]

    def g(x, j):
        y = _interpolate(F[j], x0[j], h[j], y0[j], x)
        return np.take_along_axis(field.events(x, y), col[j, None], axis=1)[:, 0]

    every = np.arange(m.size)
    a, b = x0.copy(), steps.x1[m]
    ga, gb = g(a, every), g(b, every)
    root = np.where(np.abs(ga) <= np.abs(gb), a, b)
    kept = np.zeros(m.size, dtype=int)    # +1: a kept last time, -1: b kept
    j = np.flatnonzero((ga != 0.0) & (gb != 0.0) & (np.sign(ga) != np.sign(gb)))
    for _ in range(200):
        if not j.size:
            break
        aj, bj, gaj, gbj = a[j], b[j], ga[j], gb[j]
        mid = bj - gbj * (bj - aj) / (gbj - gaj)
        mid = np.where((mid - aj) * (mid - bj) < 0.0, mid, 0.5 * (aj + bj))
        gm = g(mid, j)
        root[j] = mid
        right = np.sign(gm) == np.sign(gaj)    # the zero lies in [mid, b]
        ga[j] = np.where(~right & (kept[j] == 1), 0.5 * gaj, gaj)
        gb[j] = np.where(right & (kept[j] == -1), 0.5 * gbj, gbj)
        a[j[right]], ga[j[right]] = mid[right], gm[right]
        b[j[~right]], gb[j[~right]] = mid[~right], gm[~right]
        kept[j] = np.where(right, -1, 1)
        j = j[(gm != 0.0) & (np.abs(b[j] - a[j]) > 4 * _EPS * (1.0 + np.abs(mid)))]
    return root, _interpolate(F, x0, h, y0, root)


def _dense_output(field: _Field, x_nodes, steps: _Steps, lo: int, hi: int,
                  y_start: float) -> Callable:
    """w(s) of one lane from its step interpolants, picking the segment of
    a point as scipy's OdeSolution does (the step that starts there), read
    in the field's chart."""
    F, x0, h, y0 = (a[lo:hi].copy() for a in (steps.F, steps.x0, steps.h, steps.y0))
    last = hi - lo - 1
    ascending = not field.log_mode
    ordered = x_nodes if ascending else x_nodes[::-1]

    def dense(q):
        q = np.asarray(q, dtype=float)
        x = (np.log(q) if field.log_mode else q).ravel()
        if last < 0:
            return _scalar_or_array(np.full(q.shape, field.to_w(y_start)))
        seg = np.searchsorted(ordered, x, side="right" if ascending else "left") - 1
        seg = np.clip(seg, 0, last)
        if not ascending:
            seg = last - seg
        w = field.to_w(_interpolate(F[seg], x0[seg], h[seg], y0[seg], x))
        return _scalar_or_array(w.reshape(q.shape))
    return dense


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


def _checked_start(init, direction: str, cfg: IntegratorConfig) -> Tuple[float, float]:
    s0, w0 = float(init[0]), float(init[1])
    if not (s0 > 0.0 and math.isfinite(s0)):
        raise ValueError(f"initial s must be positive and finite, got {s0}")
    if not math.isfinite(w0):
        raise ValueError(f"initial slope must be finite, got {w0}")
    if direction == "toward_zero" and s0 < cfg.s_min_eps:
        raise ValueError(f"initial s {s0} lies below the cutoff s_min_eps = {cfg.s_min_eps}")
    if direction == "toward_infinity" and s0 > cfg.s_max:
        raise ValueError(f"initial s {s0} lies beyond the span ceiling s_max = {cfg.s_max}")
    return s0, w0


def _arcs(params: FlowParams, field: _Field, x_start, y_start, bound: float,
          cfg: IntegratorConfig, stop_on_crossing: bool = False):
    """Step the lanes of one chart together, then cut each lane's arc out.

    Returns the arcs (a Trajectory, or the RuntimeError of a step
    collapse) and per lane its terminal event (column, x, y), or None.  An
    arc ends at its terminal event: BLOW_UP at q = _Q_END where |w| grows,
    else open.
    """
    log_mode = field.log_mode
    sign = -1.0 if log_mode else 1.0
    steps, outcome, attempts, accepted = _advance(field, x_start, y_start, bound,
                                                  sign, cfg, stop_on_crossing)
    terminal = field.terminal + [_CROSS] * stop_on_crossing
    g = _straddles(field.events(steps.x0, steps.y0), field.events(steps.x1, steps.y1))
    m, col = np.nonzero(g)
    ev_x, ev_y = _event_roots(field, steps, m, col)
    step_of_lane = np.searchsorted(steps.lane, np.arange(x_start.size + 1))
    event_of_step = np.searchsorted(m, step_of_lane)

    arcs: List[Result] = []
    stops: List[Optional[Tuple[int, float, float]]] = []
    for k in range(x_start.size):
        stops.append(None)
        if outcome[k] == _COLLAPSED:
            arcs.append(RuntimeError(
                f"integrator failed before any terminal event: {_TOO_SMALL_STEP}"))
            continue
        lo, hi = step_of_lane[k], step_of_lane[k + 1]
        e_lo, e_hi = event_of_step[k], event_of_step[k + 1]
        e_m, e_col, e_x, e_y = m[e_lo:e_hi], col[e_lo:e_hi], ev_x[e_lo:e_hi], ev_y[e_lo:e_hi]
        xs = np.concatenate(([x_start[k]], steps.x1[lo:hi]))
        ys = np.concatenate(([y_start[k]], steps.y1[lo:hi]))
        seg_hi = hi
        if outcome[k] == _TERMINAL:
            # scipy's handle_events: the last step's events in the order
            # met, up to the first terminal one, which ends the samples
            last = np.flatnonzero(e_m == hi - 1)
            order = last[np.argsort(sign * e_x[last])]
            stop = order[np.isin(e_col[order], terminal)][0]
            drop = order[np.flatnonzero(order == stop)[0] + 1:]
            keep = np.setdiff1d(np.arange(e_m.size), drop)
            stops[k] = (int(e_col[stop]), float(e_x[stop]), float(e_y[stop]))
            if e_x[stop] == steps.x0[hi - 1]:
                xs, ys, seg_hi = xs[:-1], ys[:-1], hi - 1
            else:
                xs[-1], ys[-1] = e_x[stop], e_y[stop]
            e_m, e_col, e_x, e_y = e_m[keep], e_col[keep], e_x[keep], e_y[keep]
        # numpy's exp and argsort, as the samples of scipy's solution were
        # mapped and sorted
        s_samples = np.exp(xs) if log_mode else xs
        ws = field.to_w(ys)
        e_s = field.s_of(e_x)
        records = [EventRecord(field.kinds[e_col[j]], float(e_s[j]), float(e_y[j]))
                   for j in np.lexsort((e_m, e_col)) if field.kinds[e_col[j]] is not None]
        far = None    # open at the line crossing and at the switch
        if stops[k] is None:
            far = Termination(TerminationKind.DOMAIN_BOUNDARY_ZERO if log_mode else
                              TerminationKind.REACHED_S_MAX, s=float(s_samples[-1]),
                              value=float(ws[-1]))
        elif field.sigma and field.grows:
            far = Termination(TerminationKind.BLOW_UP, s=float(field.s_of(stops[k][1])),
                              sign=int(field.sigma))

        dense = _dense_output(field, xs, steps, lo, seg_hi, float(ys[0]))
        if log_mode:
            order = np.argsort(s_samples)
            s_samples, ws = s_samples[order], ws[order]
            left, right = far, None
        else:
            left, right = None, far
        # collapse occasional duplicate nodes
        keep = np.concatenate(([True], np.diff(s_samples) > 0))
        n_try, n_ok = int(attempts[k]), int(accepted[k])
        stats = SolverStats(n_ok, n_try - n_ok, 2 + _NS * n_try + len(_C_DENSE) * n_ok)
        arcs.append(Trajectory(params, s_samples[keep], ws[keep], termination_left=left,
                               termination_right=right,
                               events=sorted(records, key=lambda r: r.s),
                               dense=dense, stats=stats))
    return arcs, stops


def _lane_results(params: FlowParams, s0: Sequence[float], w0: Sequence[float],
                  direction: str, cfg: IntegratorConfig,
                  stop_on_line_crossing: bool) -> List[Result]:
    """Step the lanes together in the w chart and, at or past the switch
    level, in the q chart of their sign, then join each lane's arcs.  A
    slope w0 = +-inf starts a lane at a pole, q = 0."""
    log_mode = direction == "toward_zero"
    # the direction in which |w| can grow without bound
    grows = params.has_barriers != log_mode
    x = np.array([math.log(s) for s in s0] if log_mode else s0, dtype=float)
    w = np.array(w0, dtype=float)
    bound = math.log(cfg.s_min_eps) if log_mode else cfg.s_max
    in_q = _Field(params, log_mode).past_level(x, w)

    out: List[Optional[Result]] = [None] * x.size
    # lanes that passed to their second chart, which starts at x, w
    switched = np.zeros(x.size, dtype=bool)
    for q_chart in ((False, True) if grows else (True, False)):
        todo = (in_q if q_chart else ~in_q) | switched
        for sigma in ((1.0, -1.0) if q_chart else (0.0,)):
            lanes = np.flatnonzero(todo & (np.sign(w) == sigma) if sigma else todo)
            if not lanes.size:
                continue
            field = _Field(params, log_mode, sigma, grows)
            y = 1.0 / (w[lanes] * w[lanes]) if sigma else w[lanes]
            if sigma and grows:    # a start beyond |w| = 1e6 is at its pole already
                y = np.maximum(y, _Q_END)
            arcs, stops = _arcs(params, field, x[lanes], y, bound, cfg,
                                stop_on_line_crossing and not sigma)
            for k, arc, stop in zip(lanes, arcs, stops):
                if out[k] is not None and not isinstance(arc, Exception):
                    arc = merge_bidirectional(*((arc, out[k]) if log_mode else (out[k], arc)))
                out[k] = arc
                if stop is not None and stop[0] in field.terminal:
                    x[k], w[k], switched[k] = stop[1], field.to_w(stop[2]), True
    return out


def _pole_batch(params: FlowParams, s0: float, sigmas: Sequence[float],
                cfg: IntegratorConfig) -> List[Result]:
    """Lanes leaving a pole at s0 (q = 0) with sign w = sigma each, in the
    direction where |w| shrinks: toward zero when et*ep = -1, else toward
    infinity."""
    direction = DIRECTIONS[0] if params.has_barriers else DIRECTIONS[1]
    return _lane_results(params, [s0] * len(sigmas), [sig * math.inf for sig in sigmas],
                         direction, cfg, False)


def _first(results: List[Result]):
    """The result of a batch of one, raising it if it is a lane error."""
    (res,) = results
    if isinstance(res, Exception):
        raise res
    return res


def integrate_batch(params: FlowParams,
                    starts: Sequence[PhaseState | Tuple[float, float]],
                    direction: str, cfg: IntegratorConfig = IntegratorConfig(),
                    stop_on_line_crossing: bool = False) -> List[Result]:
    """Integrate the phase equation one-sidedly from every start at once.

    Returns one entry per start, in order: what integrate() returns for
    it, or the exception integrate() would raise for it (ValueError for a
    bad start, RuntimeError for a step collapse).  A lane
    gets the same samples, events and termination bit for bit whatever
    other lanes share its batch.  A bad direction raises at once.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    out: List[Optional[Result]] = [None] * len(starts)
    lanes, s0, w0 = [], [], []
    for i, init in enumerate(starts):
        try:
            s, w = _checked_start(init, direction, cfg)
        except ValueError as exc:
            out[i] = exc
            continue
        if params.has_barriers and (abs(w - 1.0) <= BARRIER_TOL or abs(w + 1.0) <= BARRIER_TOL):
            out[i] = _constant_trajectory(params, s, round(w), direction, cfg)
        else:
            lanes.append(i)
            s0.append(s)
            w0.append(w)
    if lanes:
        results = _lane_results(params, s0, w0, direction, cfg, stop_on_line_crossing)
        for i, res in zip(lanes, results):
            out[i] = res
    return out


def integrate(params: FlowParams, init: PhaseState | Tuple[float, float],
              direction: str, cfg: IntegratorConfig = IntegratorConfig(),
              stop_on_line_crossing: bool = False) -> Trajectory:
    """Integrate the phase equation one-sidedly from init.

    direction is "toward_zero" or "toward_infinity".  Toward zero the
    equation is integrated in t = log s.  The returned Trajectory is
    ordered by increasing s, carries dense output over its span, the
    located events, its solver counters (summed over both charts of a
    lane that blew up), and a Termination at the far end (the near end
    stays None).  stop_on_line_crossing makes the critical-line crossing
    terminal (used by decision runs, where crossing below the line
    already decides global existence).  A batch of one of
    integrate_batch().
    """
    return _first(integrate_batch(params, [init], direction, cfg, stop_on_line_crossing))


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
    """Join two arcs that meet at one point: down ends there, up starts
    there (a toward-zero and a toward-infinity arc from one start, or the
    two charts of one lane)."""
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
                      dense=dense, stats=down.stats + up.stats)


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
    s_head = np.geomspace(cfg.s_min_eps, start.s, 49)
    w_head = eval_series(coeffs, s_head)
    left = Termination(TerminationKind.DOMAIN_BOUNDARY_ZERO, s=float(s_head[0]),
                       value=float(w_head[0]))
    head = Trajectory(params, s_head, w_head, termination_left=left,
                      dense=partial(eval_series, coeffs))
    return merge_bidirectional(head, integrate(params, start, "toward_infinity", cfg))


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


def separatrix_series_coeffs(params: FlowParams, order: int) -> np.ndarray:
    """Far-field coefficients of the upper separatrix of the strip form.

    The solution that follows the critical line w = s/c has the asymptotic
    expansion w ~ s/c + sum_{k>=1} a_k s^(1-2k).  Matching powers in
    w' = (1 - w^2)(1 - c*w/s) gives a_1 = 1 and, for k >= 2,

        a_k = (c(3 - 2k) + c^2) a_{k-1} - 2c sum_{i+j=k} a_i a_j
              - c^2 sum_{i+j+l=k} a_i a_j a_l.

    Returns b[0..order] with b_0 = 1/c and b_k = a_k, so that
    w ~ s * sum_k b_k s^(-2k).  The series diverges: a truncation is only
    trusted from some s on (see _far_field).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not (params.eps_tilde == +1 and params.eps_prime == -1):
        raise ValueError("the far-field series needs the strip form et=+1, ep=-1")
    c = params.fiber_coeff
    a = np.zeros(order + 1)
    a[1] = 1.0
    for k in range(2, order + 1):
        head = a[:k]
        sq = np.convolve(head, head)
        a[k] = ((c * (3 - 2 * k) + c * c) * a[k - 1] - 2.0 * c * sq[k]
                - c * c * np.convolve(sq, head)[k])
    a[0] = 1.0 / c
    return a


def _far_series(coeffs: np.ndarray, s):
    """The far-field series s * sum_k b_k s^(-2k) at s."""
    s = np.asarray(s, dtype=float)
    return _scalar_or_array(s * eval_series(coeffs, 1.0 / (s * s)))


# terms a_k kept of the separatrix's far-field series
_FAR_ORDER = 30


def _far_field(params: FlowParams, abs_tol: float,
               s_max: float) -> Tuple[PhaseState, np.ndarray]:
    """Start of the backward separatrix trace and the far-field series
    coefficients to use from there on.

    A truncation after a_K leaves a defect of about |a_{K+1}| s^(-2K)
    times the slope scale 1/c in the phase equation, and a value error of
    about |a_{K+1}| s^(-2K-1).  s_far is where the first two omitted terms
    of the order-_FAR_ORDER series, read as that defect, sum to abs_tol
    (one fixed-point step from the one-term root, which lands just beyond
    the two-term one); past s_far the series satisfies the equation to
    abs_tol relative and its value is off by less than abs_tol / s_far.
    The start is at min(s_far, s_max).  Below s_far a fixed order would
    let the omitted terms grow like (s_far/s)^(2K+1), so there the series
    is cut before its smallest term at s_max, the most accurate
    truncation it has.
    """
    b = separatrix_series_coeffs(params, _FAR_ORDER + 2)
    first, second = abs(b[-2]), abs(b[-1])
    s = (first / abs_tol) ** (0.5 / _FAR_ORDER)
    s = ((first + second / (s * s)) / abs_tol) ** (0.5 / _FAR_ORDER)
    if s <= s_max:
        b = b[:_FAR_ORDER + 1]
    else:
        s = s_max
        k = np.arange(1, _FAR_ORDER + 2)
        b = b[:int(k[np.argmin(np.abs(b[k]) * s ** (-2.0 * k))])]
    return PhaseState(float(s), float(_far_series(b, s))), b


def separatrix_start(params: FlowParams, abs_tol: float = 1e-12) -> PhaseState:
    """Series start on the separatrix at s_far, the nearest s where its
    order-30 far-field series can be trusted to abs_tol (see _far_field).
    For rotational(n), n = 2..5, s_far is about 8.3, 11.2, 13.1 and 14.9.
    """
    return _far_field(params, abs_tol, math.inf)[0]


def _far_anchored(params: FlowParams, cfg: IntegratorConfig) -> Trajectory:
    """The separatrix over [s_min_eps, s_max]: its far-field series beyond
    s_far, with samples at most cfg.max_step apart, and backward
    integration from min(s_far, s_max).

    Nearby solutions contract onto the separatrix at rate s/c going
    backward, which makes that integration stiff for an explicit stepper
    at large s; starting it at s_far keeps its cost independent of s_max.
    """
    start, coeffs = _far_field(params, cfg.abs_tol, cfg.s_max)
    back = integrate(params, start, "toward_zero", cfg)
    if start.s == cfg.s_max:
        return back
    series = partial(_far_series, coeffs)
    nodes = max(1, math.ceil((cfg.s_max - start.s) / cfg.max_step))
    s_tail = np.linspace(start.s, cfg.s_max, nodes + 1)
    w_tail = series(s_tail)
    right = Termination(TerminationKind.REACHED_S_MAX, s=float(s_tail[-1]),
                        value=float(w_tail[-1]))
    return merge_bidirectional(back, Trajectory(params, s_tail, w_tail,
                                                termination_right=right, dense=series))


def detect_blowup(traj: Trajectory) -> Optional[Tuple[float, int]]:
    """The pole (s*, sign) if the trajectory ended in blow-up, else None."""
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
