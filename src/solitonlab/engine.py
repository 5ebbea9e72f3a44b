"""Lockstep adaptive integration of the phase-plane equation, with events.

The phase equation w'(s) = (et + ep*w^2)(1 - w*h(s)) is integrated by one
stepper: DOP853 with scipy's tableau (a vendored copy, _dop853, so the
engine imports numpy only) and scipy's step control, ported lane by lane
(Hairer-Norsett-Wanner, Solving ODEs I, II.4-6).  It advances N initial
conditions ("lanes") in one lockstep loop, each with its own step size,
direction and chart, so every lane takes scipy's step sequence up to
rounding, and the same one whether it runs alone or among others.
integrate() is a batch of one.  The two directions:

* toward_infinity: raw arclength s up to a configured ceiling;
* toward_zero: in the substituted variable t = log s, which turns the
  coordinate singularity at s = 0 into an infinite horizon and lets the
  integrator coast to s = 1e-10 and beyond without step collapse.

Each lane carries its own dense output (the seventh-degree DOP853
interpolant of every stepped step, the tail formula of a closed one),
solver counters, and its events: crossing the critical line, located on
the step's dense output after the loop (Shampine & Thompson, "Event
location for ODEs", 2000).  A lane that fails (step collapse) comes back
as its own exception and does not stop the others.

Each end is classified by how it terminated: reaching the span end,
reaching the s -> 0 cutoff, or blowing up, where the chart w fails.  One
chart rule holds in both directions: a lane is in the chart of
p = 1/w, which steps p and carries s, with
ds/dp = -p / ((et*p^2 + ep)(p - h(s))), whenever |w| is at or past the
switch level (_switch_level), and in the w chart otherwise.  The level is
2 where w has the sign -et: the critical line w = s*et/c never reaches
that side, so ds/dp has no singular point there and |w| is monotone past
1.  On the line's side it is max(2, 2s/c), which keeps the p chart off
the line.  s(p) is regular at p = 0, where the w chart has its pole.  In
the direction where |w| grows without bound (forward when et*ep = -1,
toward zero otherwise) a lane passes from the w chart to the p chart at
the level and steps p to 0: the step end s(0) is its BLOW_UP s, and its
last sample sits on that step at |w| = 1e6, about 1e-12 short of the
pole.  In the other direction a lane passes from the p chart back to the
w chart at the level; a start at w0 = +-inf leaves a pole, p = +-0.  A lane switches at
the end of its first accepted step at or past the level, a point of the
solution as accurate as any located one, and goes on in its next chart
from there within the same loop, so a batch of any directions and charts
is one loop; the arcs of the two charts are joined at that step end.

The barriers w = +-1 of the patterns with et*ep = -1 are exact solutions,
and most strip solutions settle onto one, in either direction.  With
u = w - sigma near the barrier sigma, the linearised equation has the
closed solution u(s) = u1*exp(2*ep*sigma*((s - s1) - sigma*et*c*ln(s/s1)))
from (s1, sigma + u1); the dropped O(u^2) terms move w by about u1^2.
Once an accepted w-chart step of a lane ends where that solution stays
within u* = sqrt(abs_tol) of the barrier up to the lane's bound, the lane
ends in one closed step to its bound, written from the formula, not
stepped: its samples, its dense output and the critical-line events on it
all come from the formula (libm's exp and log, taken in log space, so no
term overflows and the bits do not depend on numpy's dispatch), and its
cost does not depend on s_max.  A step that ends at w = +-1.0 exactly,
where the field is 0, is the case u1 = 0, and reads the barrier exactly.
Where the line crossing is terminal, that step ends the lane at the
crossing if the critical line meets the tail on the way.  A start within
BARRIER_TOL of a barrier is put on it, w0 = +-1.0, and is a lane like any
other: its first step lands on the barrier.

The regular-at-center solution (slope vanishing at s = 0) is started from
its Taylor series, and the separatrix of the strip form is ended by its
far-field asymptotic series; both coefficient recursions live here, as
does the join of a series part and an integrated arc.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
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

# a lane is in the p chart, p = 1/w, while |w| is at or past _switch_level
_W_SWITCH = 2.0
# a p-chart arc samples its pole end, p = 0, at |p| = _P_END (|w| = 1e6)
_P_END = 1e-6
# trial stages of a rejected step can overshoot far; the w chart reads
# slopes beyond this as this, which keeps the arithmetic finite
_W_CAP = 1e10

Result = Union[Trajectory, Exception]


def _switch_level(params: FlowParams, s, w):
    """The |w| at and past which a lane at (s, w) is in the p chart:
    _W_SWITCH where w has the sign -et, which the critical line
    w = s*et/c never reaches (there ds/dp has no singular point and |w| is
    monotone past 1), and max(_W_SWITCH, 2s/c) on the line's side, which
    keeps the p chart off the line, p*s = et*c."""
    return np.where(np.asarray(w) * params.eps_tilde < 0.0, _W_SWITCH,
                    np.maximum(_W_SWITCH, 2.0 * np.asarray(s) / params.fiber_coeff))


class _Field:
    """The phase equation at a set of points, each in its own stepping
    variable and chart, told apart by masks over the points.

    In the w chart the state is w.  Toward infinity x = s and the field is
    the s-derivative; toward zero (log) x = log s and it is s times that,
    which stays bounded near 0.  Both are one expression in (L, D) = (1, s),
    or (s, 1) in log s, so points of one chart share one evaluation
    whatever their directions; w is read clamped at +-_W_CAP, which keeps
    wild trial stages finite.  In the p chart (in_p) x = p = 1/w in either
    direction and the state is s, with
    ds/dp = -p*s / ((et*p^2 + ep)(p*s - et*c)), regular at the pole p = 0.
    Where all points share a chart the field is computed in that chart
    alone, else in both, each point reading its own.  |w| grows without
    bound forward where et*ep = -1, else toward zero.

    events() is the critical line w = s*et/c, in the w chart only (NaN in
    the p chart); ended() tells the end of every chart another follows.
    """

    def __init__(self, params: FlowParams, log: np.ndarray, in_p: np.ndarray) -> None:
        self.params, self.log, self.in_p = params, log, in_p
        self.et, self.ep, self.c = (float(params.eps_tilde), params.eps_prime,
                                    params.fiber_coeff)
        self.etc = params.eps_tilde * params.fiber_coeff
        # the points whose x is log s
        self.exp = log & ~in_p
        n_exp = np.count_nonzero(self.exp)
        self.any_log, self.all_log = n_exp > 0, n_exp == log.size
        n_p = np.count_nonzero(in_p)
        self.any_p, self.all_p = n_p > 0, n_p == in_p.size
        self.grows = log != params.has_barriers

    def s_of(self, x, at=slice(None)):
        """s at w-chart stepping-variable values x of the points at (all of
        them); p-chart values pass through."""
        if self.all_log or not self.any_log:
            return _libm(math.exp, x) if self.all_log else x
        log = self.exp[at]
        s = x.copy()
        s[..., log] = _libm(math.exp, x[..., log])
        return s

    def at(self, x):
        """What rate() reads of stepping-variable values x: (L, D) at s,
        None for 1 where all points share it, and p = x."""
        # p-chart points read as s = 1 in the w chart
        s = np.where(self.in_p, 1.0, self.s_of(x)) if self.any_p else self.s_of(x)
        if self.all_log or not self.any_log:
            return (s, None, x) if self.all_log else (None, s, x)
        return np.where(self.exp, s, 1.0), np.where(self.exp, 1.0, s), x

    def __call__(self, x, z, out=None):
        return self.rate(*self.at(x), z, out)

    def rate(self, L, D, p, z, out=None):
        """The field at chart values z, with (L, D, p) from at():
        (et + ep*w^2)(L - w*etc/D) in the w chart,
        -p*s / ((et*p^2 + ep)(p*s - etc)) in the p chart."""
        if not self.all_p:
            w = np.minimum(np.maximum(z, -_W_CAP), _W_CAP)
            ww = w * w
            a = self.et - ww if self.ep < 0 else self.et + ww
            t = w * self.etc
            out = np.multiply(a, (1.0 if L is None else L) - (t if D is None else t / D), out=out)
            if not self.any_p:
                return out
            # w-chart points read as p = s = 0, where the field is 0
            p, z = np.where(self.in_p, p, 0.0), np.where(self.in_p, z, 0.0)
        f = np.divide(-p * z, (self.et * p * p + self.ep) * (p * z - self.etc),
                      out=out if self.all_p else None)
        if self.all_p:
            return f
        np.copyto(out, f, where=self.in_p)
        return out

    def heading(self, x, cfg: IntegratorConfig):
        """Each point's direction in its stepping variable and the bound
        its steps stop at: s up to s_max, log s down to log s_min_eps, and
        p to the pole 0 where |w| grows, else away from it up to
        |p| = 1/_W_SWITCH, at or past every switch level."""
        away = np.copysign(1.0, x)
        direction = np.where(self.in_p, np.where(self.grows, -away, away),
                             np.where(self.log, -1.0, 1.0))
        bound = np.where(self.in_p, np.where(self.grows, 0.0, away / _W_SWITCH),
                         np.where(self.log, math.log(cfg.s_min_eps), cfg.s_max))
        return direction, bound

    def ended(self, x, y):
        """Whether points (x, y) lie at or past the end of a chart that
        another follows: |w| at or past _switch_level in the w chart where
        |w| grows, |p| at or past its inverse in the p chart where |w|
        shrinks."""
        end = self.grows & ~self.in_p & (np.abs(y) >= _W_SWITCH)
        if np.count_nonzero(end):
            at = np.flatnonzero(end)
            end[at] = np.abs(y[at]) >= _switch_level(self.params, self.s_of(x[at], at), y[at])
        at = np.flatnonzero(~self.grows & self.in_p)
        if at.size:
            end[at] = np.abs(x[at]) * _switch_level(self.params, y[at], x[at]) >= 1.0
        return end

    def events(self, x, y):
        """The critical line w - s*et/c at points (x, y), NaN in the p chart."""
        cross = y - self.s_of(x) * self.et / self.c
        return np.where(self.in_p, np.nan, cross) if self.any_p else cross


def _switch(field: _Field, x, y):
    """(x, y, in_p) of the points of field in their other chart: from the
    w chart p = 1/w and s, from the p chart s (log s where log) and 1/p."""
    s = np.where(field.in_p, y, field.s_of(x))
    inverse = 1.0 / np.where(field.in_p, x, y)
    x_new = np.where(field.in_p, s, inverse)
    back = field.in_p & field.log
    x_new[back] = _libm(math.log, s[back])
    return x_new, np.where(field.in_p, inverse, s), ~field.in_p


def _libm(fn, x):
    """A math-module function element by element.  numpy's SIMD exp, log
    and power differ from libm in the last bit now and then, and which
    SIMD path runs depends on the CPU.  The error estimate, a sum that
    cancels to ~1e-10 of its terms, would blow such a bit up into the step
    sizes; libm keeps each lane on scipy's steps.  Every exp and log that
    reaches a sample goes through here, so the bits do not depend on
    numpy's dispatch."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _straddles(g_old, g_new):
    """scipy's event activity test: g reaches or crosses zero."""
    return np.sign(g_old) * np.sign(g_new) <= 0.0


def _tail_rows(params: FlowParams, s1, y1):
    """The rows F of closed steps from (s1, y1), w = y1 near a barrier
    sigma = +-1, one row per step as _dense gives them: sigma,
    u1 = y1 - sigma, s1, 2*ep*sigma, sigma*et*c, ln|u1| (0 at u1 = 0)
    and 0.  Linearised about the barrier, u = w - sigma solves
    u' = 2*ep*sigma*u*(1 - sigma*et*c/s), so u(s) = u1*exp(E(s)) with
    E(s) = 2*ep*sigma*((s - s1) - sigma*et*c*ln(s/s1)); the dropped O(u^2)
    terms move w by about u1^2."""
    sigma = np.copysign(1.0, y1)
    F = np.zeros((y1.size, 3 + len(_D)))
    F[:, 0], F[:, 1], F[:, 2] = sigma, y1 - sigma, s1
    F[:, 3] = 2.0 * params.eps_prime * sigma
    F[:, 4] = sigma * params.eps_tilde * params.fiber_coeff
    F[:, 5] = _libm(lambda u: math.log(u) if u else 0.0, np.abs(F[:, 1]))
    return F


def _tail_exponent(F, s):
    """E(s) of closed steps with rows F (F[k] aligned with s)."""
    return F[3] * ((s - F[2]) - F[4] * _libm(math.log, s / F[2]))


def _tail_peak(F, s_end):
    """ln of the largest |u| of closed steps with rows F on their way to
    s_end, -inf at u1 = 0.  In a barrier pattern E'' = -2c/s^2, so E is
    concave, and its largest value over the span lies at s1 (E = 0), at
    s_end, or at its stationary point sigma*et*c clipped into the span."""
    top = np.clip(F[4], np.minimum(F[2], s_end), np.maximum(F[2], s_end))
    peak = np.maximum(np.maximum(_tail_exponent(F, s_end), _tail_exponent(F, top)), 0.0)
    return np.where(F[1] != 0.0, F[5] + peak, -math.inf)


def _tail(F, s):
    """w at s on closed steps with rows F: sigma + u1*exp(E(s)), taken in
    log space so that no term overflows.  On a step |u| stays below u*;
    beyond its ends the exponent is read no higher than 0, |u| <= 1.
    Where |u| < e^-40, sigma + u rounds to sigma, and w is sigma without a
    call to libm.  Those points are found from a bound on E that takes no
    logarithm: E = 2*ep*sigma*(s - s1) + 2c*ln(s/s1) in a barrier pattern,
    and ln(s/s1) < q*ln 2 where frexp splits s/s1 into f*2^q with f < 1."""
    w = np.array(F[0], dtype=float)
    q = np.frexp(s / F[2])[1]
    live = (F[1] != 0.0) & (F[5] + F[3] * (s - F[2]) - F[3] * F[4] * math.log(2.0) * q >= -40.0)
    if np.count_nonzero(live):
        u = _libm(math.exp, np.minimum(F[5][live] + _tail_exponent(F[:, live], s[live]), 0.0))
        w[live] += np.copysign(u, F[1][live])
    return w


# accepted steps grouped by arc, each arc's in the order taken, with the
# seven dense-output coefficient rows F of every step; on a closed step
# (closed) F holds its tail (_tail_rows) instead
_Steps = namedtuple("_Steps", "arc x0 h y0 x1 y1 F closed")

# how a lane's stepping in one chart ended: at its bound, at a terminal
# event, at step collapse, or past the end of the chart, open at its last
# sample, where the lane goes on in the next chart
_FINISHED, _TERMINAL, _COLLAPSED, _SWITCHED = range(4)

# one chart of one lane: its direction and chart, its start (x, y), how
# stepping ended, attempts and accepted steps
_Arc = namedtuple("_Arc", "lane log in_p x0 y0 outcome attempts accepted",
                  defaults=(_FINISHED, 0, 0))


def _arc_field(params: FlowParams, arcs: List[_Arc], ids) -> _Field:
    """The field at points of the arcs ids."""
    log, in_p = (np.array(a, dtype=bool)[ids] for a in list(zip(*arcs))[1:3])
    return _Field(params, log, in_p)


def _interpolate(F, x0, h, y0, x):
    """The DOP853 dense output at x of steps with coefficient rows F[0..6]
    (arrays aligned by step, or the floats of one step)."""
    u = (x - x0) / h
    out = 0.0
    for i in range(7):
        out = (out + F[6 - i]) * (u if i % 2 == 0 else 1.0 - u)
    return out + y0


def _initial_step(field: _Field, x0, y0, f0, bound, direction, rtol: float,
                  cfg: IntegratorConfig):
    """scipy's select_initial_step for an order-7 error estimate, per lane."""
    span = np.abs(bound - x0)
    scale = cfg.abs_tol + np.abs(y0) * rtol
    d0, d1 = np.abs(y0) / scale, np.abs(f0) / scale
    flat0 = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.minimum(np.where(flat0, 1e-6, 0.01 * d0 / np.where(flat0, 1.0, d1)), span)
    h0 = np.where(h0 > 0.0, h0, 1e-6)    # only lanes already at the bound
    y1 = y0 + h0 * direction * f0
    f1 = field(x0 + h0 * direction, y1)
    d2 = np.abs(f1 - f0) / scale / h0
    dmax = np.maximum(d1, d2)
    flat1 = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat1, np.maximum(1e-6, h0 * 1e-3),
                  _libm(lambda v: v ** -_EXPONENT, 0.01 / np.where(flat1, 1.0, dmax)))
    return np.minimum(np.minimum(np.minimum(100 * h0, h1), span), cfg.max_step)


def _stages(field: _Field, heads, cols, at, y, h):
    """The DOP853 stages of one step into cols (cols[0] holds f(y)), with
    field.at() of the stage points: scipy's rk_step, each stage sum a
    vecdot on lane rows, the one dot product per lane that scipy makes,
    whatever the batch around it."""
    for i in range(1, _NS + 1):
        y_i = y + (np.vecdot(heads[i], _A_ROWS[i]) * h if i < _NS else
                   h * np.vecdot(heads[_NS], _B))
        field.rate(*(None if a is None else a[i] for a in at), y_i, cols[i])
    return y_i, cols[_NS]


def _advance(params: FlowParams, x, y, log, in_p, cfg: IntegratorConfig,
             stop_on_crossing: bool):
    """Step all lanes in lockstep until each one is done.

    Lane by lane this is scipy's RungeKutta._step_impl for DOP853: the
    initial step, error norm (in the p chart against abs_tol alone),
    SAFETY 0.9, factor clamp [0.2, 10], no growth right after a
    rejection, max_step, and a minimum step of 10 ulp(x).  Each lane has
    its direction (log: toward zero) and chart (in_p), masks of one _Field
    over all lanes still stepping, and steps its x toward its bound
    (_Field.heading).  A lane stops at step
    collapse, at the line crossing when stop_on_crossing, and at its
    bound, except in the p chart where |w| shrinks; in the p chart also
    where s leaves the span, and where |w| grows the bound is its pole,
    p = 0.  Line crossings are located after the loop.  A step that ends
    at or past the end of a chart that another chart follows (the w chart
    where |w| grows, the p chart where it shrinks) ends its arc there,
    open, and the lane goes on from that step end in the other chart with
    a fresh initial step, as a new arc.  In a barrier pattern a lane
    settles once its accepted w-chart step ends within u* = sqrt(abs_tol)
    of a barrier sigma and the linearised tail from there (_tail_rows)
    stays within u* of it up to the bound; a step that ends at w = +-1.0
    exactly, where the field is 0, is the case u1 = 0.  One closed step to
    the bound follows, written from the tail's formula, counted as one
    attempt and one accepted step, and finishes the arc, or ends it as
    terminal when stop_on_crossing and the critical line changes sign
    between the step's ends (the line is monotone in s and the tail stays
    within u* of sigma, so they meet at most once).  After a
    step where a lane stops or switches, the stopped lanes are dropped and
    the field is rebuilt.

    Returns the steps (_Steps) and the arcs (_Arc): lane k's first arc at
    index k, later arcs after all first ones.
    """
    rtol = max(cfg.rel_tol, 100 * _EPS)
    arcs = list(map(_Arc, range(x.size), log.tolist(), in_p.tolist(), x.tolist(), y.tolist()))
    arc, switch = np.arange(x.size), np.zeros(x.size, dtype=bool)
    f, h_abs, g_cross, grow_cap, rejects, start_it = (np.zeros(x.size) for _ in range(6))
    x_min = math.log(cfg.s_min_eps)
    # no lane's minimum step 10*ulp(x) can exceed this
    min_step_cap = 10.0 * 2.0 ** -52 * float(np.max(np.abs(np.append(x, (cfg.s_max, x_min)))))
    # the lanes to go on with after a step where lanes stopped or switched, else None
    # (a p-chart lane never starts at its bound)
    keep, records, tails, it = (np.flatnonzero(in_p | (x != np.where(log, x_min, cfg.s_max))),
                                [], [], 0)
    # u*: a tail's dropped O(u^2) terms move w by about u*^2 = abs_tol
    u_star = math.sqrt(cfg.abs_tol)
    ln_u_star = math.log(u_star)
    while keep is None or keep.size:
        if keep is not None:
            # copies: the last step's arrays are on record
            arc, x, y, f, h_abs, g_cross, grow_cap, rejects, start_it, log, in_p, switch = (
                a[keep] for a in (arc, x, y, f, h_abs, g_cross, grow_cap, rejects, start_it,
                                  log, in_p, switch))
            # lanes that start a chart: all at first, then the switched ones
            new = np.flatnonzero(switch) if it else np.arange(arc.size)
            if it:
                x[new], y[new], in_p[new] = _switch(_Field(params, log[new], in_p[new]),
                                                    x[new], y[new])
                for k in new.tolist():
                    arcs.append(_Arc(arcs[arc[k]].lane, bool(log[k]), bool(in_p[k]),
                                     float(x[k]), float(y[k])))
                    arc[k] = len(arcs) - 1
            field = _Field(params, log, in_p)
            direction, bound = field.heading(x, cfg)
            if new.size:    # the growth cap of a step is 10x, or 1x right after a rejection
                at = _Field(params, log[new], in_p[new])
                f[new] = at(x[new], y[new])
                h_abs[new] = _initial_step(at, x[new], y[new], f[new], bound[new],
                                           direction[new], rtol, cfg)
                if stop_on_crossing:
                    g_cross[new] = at.events(x[new], y[new])
                grow_cap[new], rejects[new], start_it[new] = _MAX_FACTOR, 0, it
            capped, keep = True, None
            K = np.empty((arc.size, _NS + 1))
            cols, heads = [K[:, i] for i in range(_NS + 1)], [K[:, :i] for i in range(_NS + 1)]

        it += 1
        h_abs = np.minimum(h_abs, cfg.max_step)
        stuck = None
        if np.count_nonzero(h_abs < min_step_cap):
            min_step = 10.0 * np.abs(np.nextafter(x, direction * np.inf) - x)
            stuck = (grow_cap < _MAX_FACTOR) & (h_abs < min_step)    # on a retry
            h_abs = np.maximum(h_abs, min_step)
        # the step end, cut at the bound (min or max: direction is +-1)
        x_new = direction * np.minimum(direction * (x + h_abs * direction), direction * bound)
        h = x_new - x
        h_abs = np.abs(h)

        cols[0][:] = f
        y_new, f_new = _stages(field, heads, cols, field.at(x + _C[:, None] * h), y, h)

        y_big = np.maximum(np.abs(y), np.abs(y_new))
        if field.any_p:
            # w = 1/p hangs on s - s(0), which is O(p^2 s), not on s: a
            # p-chart step holds the error of s to abs_tol alone
            y_big = np.where(field.in_p, 0.0, y_big)
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

        step = (arc, x, h, y, x_new, y_new, K.copy())
        if np.count_nonzero(ok) == ok.size:
            records.append(step)
            x, y, f = x_new, y_new, step[-1][:, _NS]
            if capped:
                grow_cap, capped = np.full(arc.size, _MAX_FACTOR), False
        else:
            records.append(tuple(a[ok] for a in step))
            x, y, f = np.where(ok, x_new, x), np.where(ok, y_new, y), np.where(ok, f_new, f)
            grow_cap, capped = np.where(ok, _MAX_FACTOR, 1.0), True
            rejects += ~ok if stuck is None else ~ok & ~stuck

        done = ok & (x_new == bound)
        if field.any_p:
            # a p lane is done at its pole or where s leaves the span; where
            # |w| shrinks its bound lies past the switch
            done = np.where(field.in_p, done & field.grows | ok & np.where(
                log, y_new <= cfg.s_min_eps, y_new >= cfg.s_max), done)
        ended = ok & field.ended(x_new, y_new)
        hit = np.zeros(ok.size, dtype=bool)
        if stop_on_crossing:
            g_new = field.events(x_new, y_new)
            hit = ok & _straddles(g_cross, g_new)
            g_cross = np.where(ok, g_new, g_cross)
        # a lane whose linearised tail stays within u* of its barrier settles
        settled = False
        if params.has_barriers:
            near = ok & ~done & ~hit & ~in_p & (np.abs(np.abs(y_new) - 1.0) < u_star)
            near = np.flatnonzero(near)
            if near.size:
                tail = _tail_rows(params, field.s_of(x_new[near], near), y_new[near])
                s_end = np.where(log[near], cfg.s_min_eps, cfg.s_max)
                closes = _tail_peak(tail.T, s_end) <= ln_u_star
                settled, near = np.zeros(ok.size, dtype=bool), near[closes]
                settled[near] = True
        stop = done | hit | settled
        if stuck is not None:
            stop |= stuck
        switch = ended & ~stop
        if not np.count_nonzero(stop | switch):
            continue
        # a settled lane ends in one closed step to its bound
        tries = it - start_it - (0 if stuck is None else stuck) + settled
        if np.count_nonzero(settled):
            tail, y_end = tail[closes], y_new.copy()
            y_end[near] = _tail(tail.T, s_end[closes])
            tails.append((arc[near], x_new[near], (bound - x_new)[near], y_new[near],
                          bound[near], y_end[near], tail))
            if stop_on_crossing:    # the critical line meets the tail on the way
                hit |= settled & _straddles(g_new, field.events(bound, y_end))
        outcome = np.select([hit, done | settled, switch], [_TERMINAL, _FINISHED, _SWITCHED],
                            _COLLAPSED)
        for k in np.flatnonzero(stop | switch):
            arcs[arc[k]] = arcs[arc[k]]._replace(outcome=int(outcome[k]), attempts=int(tries[k]),
                                                 accepted=int(tries[k] - rejects[k]))
        keep = np.flatnonzero(~stop)
    return _collect(params, arcs, records, tails), arcs


def _collect(params: FlowParams, arcs: List[_Arc], records: list, tails: list) -> _Steps:
    """Group the accepted steps by arc and build their dense output, for
    all stepped steps (records, with their stages) at once; closed steps
    (tails, with their rows F) come last in their arcs."""
    if not records:
        records = [(np.zeros(0, dtype=int),) + (np.zeros(0),) * 5 + (np.zeros((0, _NS + 1)),)]
    parts = list(zip(*records))
    records.clear()    # the steps live on in parts, and only until copied
    arc, x0, h, y0, x1, y1 = (np.concatenate(a) for a in parts[:6])
    Kd = np.empty((arc.size, _NS + 1 + len(_C_DENSE)))
    np.concatenate(parts.pop(), out=Kd[:, :_NS + 1])
    del parts
    F = _dense(_arc_field(params, arcs, arc), x0, h, y0, y1, Kd)
    steps = [arc, x0, h, y0, x1, y1, F, np.zeros(arc.size, dtype=bool)]
    if tails:
        closed = list(map(np.concatenate, zip(*tails)))
        steps = [np.concatenate(a) for a in zip(steps, closed + [np.ones(closed[0].size, bool)])]
    order = np.argsort(steps[0], kind="stable")
    return _Steps(*(a[order] for a in steps))


def _dense(field: _Field, x0, h, y0, y1, Kd):
    """scipy's Dop853DenseOutput coefficients of steps whose stages fill
    the first _NS + 1 columns of Kd; the rest of Kd is scratch."""
    for i, (a, c) in enumerate(zip(_A_DENSE, _C_DENSE), start=_NS + 1):
        dy = np.vecdot(Kd[:, :i], a[:i]) * h
        field(x0 + c * h, y0 + dy, Kd[:, i])
    dy = y1 - y0
    F = np.empty((h.size, 3 + len(_D)))
    F[:, 0] = dy
    F[:, 1] = h * Kd[:, 0] - dy
    F[:, 2] = 2 * dy - h * (Kd[:, _NS] + Kd[:, 0])
    F[:, 3:] = h[:, None] * np.vecdot(Kd[:, None, :], _D)
    return F


def _illinois(g, a, b):
    """Zeros on [a, b] of g, a batch of functions evaluated together
    (g(x)[k] at x[k]), all at once by Illinois false position down to
    scipy's 4 eps.  Where g does not change sign (rounding at an end), the
    end nearer zero."""
    ga, gb = g(a), g(b)
    root = np.where(np.abs(ga) <= np.abs(gb), a, b)
    at = np.flatnonzero((ga != 0.0) & (gb != 0.0) & ((ga > 0.0) != (gb > 0.0)))
    a, b, ga, gb = a[at], b[at], ga[at], gb[at]
    kept = np.zeros(at.size)    # +1: a kept last time, -1: b kept
    for _ in range(200):
        if not at.size:
            break
        mid = b - gb * (b - a) / (gb - ga)
        mid = np.where((mid - a) * (mid - b) < 0.0, mid, 0.5 * (a + b))
        root[at] = mid
        gm = g(root)[at]
        right = (gm > 0.0) == (ga > 0.0)    # the zero lies in [mid, b]
        gb = np.where(right & (kept == -1), 0.5 * gb, gb)
        ga = np.where(~right & (kept == 1), 0.5 * ga, ga)
        a, b = np.where(right, mid, a), np.where(right, b, mid)
        ga, gb = np.where(right, gm, ga), np.where(right, gb, gm)
        kept = np.where(right, -1.0, 1.0)
        go = (gm != 0.0) & (np.abs(b - a) > 4 * _EPS * (1.0 + np.abs(mid)))
        at, a, b, ga, gb, kept = (v[go] for v in (at, a, b, ga, gb, kept))
    return root


def _step_events(field: _Field, steps: _Steps):
    """The line crossings met on steps: step index and the (x, y) of each,
    located on the step's interpolant, or its tail on a closed step
    (_illinois), each step's in the order met."""
    m = np.flatnonzero(_straddles(field.events(steps.x0, steps.y0),
                                  field.events(steps.x1, steps.y1)))
    met = _Field(field.params, field.log[m], field.in_p[m])
    F, tail = steps.F[m].T, steps.closed[m]
    stepped = F[:, ~tail], steps.x0[m][~tail], steps.h[m][~tail], steps.y0[m][~tail]

    def w(x):
        y = np.empty(x.shape)
        y[~tail] = _interpolate(*stepped, x[~tail])
        y[tail] = _tail(F[:, tail], met.s_of(x[tail], tail))
        return y

    root = _illinois(lambda x: met.events(x, w(x)), steps.x0[m], steps.x1[m])
    y = w(root)
    order = np.lexsort((np.where(met.log, -root, root), m))
    return m[order], root[order], y[order]


def _dense_output(arc: _Arc, steps: _Steps, lo: int, hi: int, starts) -> Callable:
    """w(s) of one arc from its step interpolants, picking the segment of
    a point as scipy's OdeSolution does (the step that starts there; starts
    holds where each step of the batch starts, in x or in p, signed to
    increase along its arc).  A closed step reads its tail, which holds
    past its end too.  In the p chart a step's s(p) is monotone, and
    _illinois inverts it.  A w-chart arc toward zero, stepped in log s,
    refuses s <= 0.  It holds copies of its own steps, so that no result
    keeps the steps of its whole batch alive."""
    F, x0, h, y0, closed, starts = (a[lo:hi].copy() for a in (
        steps.F, steps.x0, steps.h, steps.y0, steps.closed, starts))
    last, sign = hi - lo - 1, -1.0 if arc.log else 1.0

    def dense(q):
        q = np.asarray(q, dtype=float)
        if last < 0:
            return _scalar_or_array(np.full(q.shape, arc.y0))
        if arc.log and not arc.in_p and np.any(q <= 0.0):
            raise ValueError(f"w_at({float(q[q <= 0.0][0])!r}): s must be positive on "
                             "an arc integrated toward zero")
        x = q.ravel() if arc.in_p or not arc.log else _libm(math.log, q.ravel())
        seg = np.clip(np.searchsorted(starts, sign * x, side="right") - 1, 0, last)
        step = F[seg].T, x0[seg], h[seg], y0[seg]
        if not arc.in_p:
            tail = closed[seg]
            if not tail.any():
                return _scalar_or_array(_interpolate(*step, x).reshape(q.shape))
            w = np.empty(x.shape)
            w[~tail] = _interpolate(*(a[..., ~tail] for a in step), x[~tail])
            w[tail] = _tail(step[0][:, tail], q.ravel()[tail])
            return _scalar_or_array(w.reshape(q.shape))
        p = _illinois(lambda p: _interpolate(*step, p) - x, x0[seg], x0[seg] + h[seg])
        with np.errstate(divide="ignore"):    # at a pole w is +-inf
            return _scalar_or_array((1.0 / p).reshape(q.shape))
    return dense


def _checked_start(params: FlowParams, init, direction: str,
                   cfg: IntegratorConfig) -> Tuple[float, float]:
    """(s0, w0) of a start; w0 = +-inf, a pole, is a start only in the
    direction where |w| shrinks."""
    s0, w0 = float(init[0]), float(init[1])
    if not (s0 > 0.0 and math.isfinite(s0)):
        raise ValueError(f"initial s must be positive and finite, got {s0}")
    if not (math.isfinite(w0) or math.isinf(w0)
            and (direction == "toward_zero") == params.has_barriers):    # leaving a pole
        raise ValueError(f"initial slope must be finite, got {w0}")
    if direction == "toward_zero" and s0 < cfg.s_min_eps:
        raise ValueError(f"initial s {s0} lies below the cutoff s_min_eps = {cfg.s_min_eps}")
    if direction == "toward_infinity" and s0 > cfg.s_max:
        raise ValueError(f"initial s {s0} lies beyond the span ceiling s_max = {cfg.s_max}")
    return s0, w0


def _p_samples(arc: _Arc, steps: _Steps, lo: int, hi: int, xs, ys, dense: Callable,
               cfg: IntegratorConfig):
    """The samples (p, s) of a p-chart arc, in place, and its BLOW_UP end
    if it has one.  A finished arc ends at its pole s(0) where |w| grows,
    unless s left the span before: then its last sample moves back to the
    span end, read from its dense output.  A pole end, p = 0, is sampled
    at |p| = _P_END on its step's interpolant (at the step's other end
    where that is nearer)."""
    def sample(k, i, p):
        xs[k], ys[k] = p, _interpolate(steps.F[i], steps.x0[i], steps.h[i], steps.y0[i], p)

    if xs[0] == 0.0:    # leaving a pole
        sample(0, lo, math.copysign(min(_P_END, abs(steps.x1[lo])), xs[0]))
    if arc.outcome != _FINISHED:
        return None
    s_end = cfg.s_min_eps if arc.log else cfg.s_max
    if xs[-1] == 0.0 and (ys[-1] >= s_end if arc.log else ys[-1] <= s_end):
        far = Termination(TerminationKind.BLOW_UP, s=float(ys[-1]), sign=int(np.sign(arc.x0)))
        sample(-1, hi - 1, math.copysign(min(_P_END, abs(steps.x0[hi - 1])), arc.x0))
        return far
    xs[-1], ys[-1] = 1.0 / dense(s_end), s_end
    return None


def _refusing(dense: Callable, end: float, below: bool, where: str) -> Callable:
    """dense, refusing the points below end (below) or above it, where an
    arc's steps say nothing, but for a rounding sliver of 1e-12 relative;
    where names the place, with {} for end."""
    slack = 1e-12 * abs(end)

    def bounded(q):
        q = np.asarray(q, dtype=float)
        past = q < end - slack if below else q > end + slack
        if past.any():
            raise ValueError(f"w_at({float(q[past][0])!r}): s lies {where.format(end)}")
        return dense(q)
    return bounded


def _arcs(params: FlowParams, steps: _Steps, arcs: List[_Arc], s0: List[float],
          group: Sequence[int], cfg: IntegratorConfig) -> List[Result]:
    """One result per group of lanes, built in one pass over all arcs: a
    Trajectory through the arcs of its lanes in increasing s, or the
    RuntimeError of a step collapse in any of them.  Lane k starts at s0[k]
    and belongs to group[k]; the lanes of a group are consecutive, a lane
    toward zero (its arcs reversed) before one toward infinity.

    An arc ends at its terminal line crossing, at its bound (toward zero at
    exactly s_min_eps, not at exp(log s_min_eps)), at its pole (_p_samples),
    or open at its last sample, where its lane switched chart.  A w-chart
    arc starts at exactly the s its lane starts it at (s0 of its lane, or
    the last sample of the arc before), not at exp(log s).  The arcs join
    as merge_bidirectional joins them: each arc's samples with occasional
    duplicate nodes collapsed and, but for the lowest arc, without its
    first sample, the join; one _piecewise evaluator of the arcs' dense
    outputs; the events of all arcs in order of s; the counters summed.
    """
    lane, log, in_p, x0, y0, outcome, attempts, accepted = map(np.array, zip(*arcs))
    step_log, step_p = log[steps.arc], in_p[steps.arc]
    m, ev_x, ev_y = _step_events(_Field(params, step_log, step_p), steps)
    step_of_arc = np.searchsorted(steps.arc, np.arange(len(arcs) + 1))
    lo, hi = step_of_arc[:-1], step_of_arc[1:]
    event_of_step = np.searchsorted(m, step_of_arc)
    # the samples of all arcs, each arc's start and then its step ends, at [b[k], e[k])
    b = lo + np.arange(len(arcs))
    e, seg_hi = hi + np.arange(1, len(arcs) + 1), hi.copy()
    X, Y, step_end = np.empty(e[-1]), np.empty(e[-1]), np.ones(e[-1], dtype=bool)
    X[b], Y[b], step_end[b] = x0, y0, False
    X[step_end], Y[step_end] = steps.x1, steps.y1

    # the arcs of each live group in increasing s: by lane, then in stepping
    # order toward infinity and against it toward zero
    group = np.asarray(group)
    dead = np.zeros(group[-1] + 1, dtype=bool)
    dead[group[lane[outcome == _COLLAPSED]]] = True
    out: List[Optional[Result]] = [RuntimeError(
        "integrator failed before any terminal event: Required step size is less than "
        "spacing between numbers.") if d else None for d in dead.tolist()]
    index = np.arange(len(arcs))
    P = np.lexsort((np.where(log, -index, index), lane))
    P = P[~dead[group[lane[P]]]]
    if not P.size:
        return out
    piece_of = np.full(len(arcs), -1)
    piece_of[P] = np.arange(P.size)
    g_of = group[lane[P]]
    first = np.concatenate(([0], np.flatnonzero(g_of[1:] != g_of[:-1]) + 1, [P.size]))

    ev_keep = np.ones(m.size, dtype=bool)
    for k in P[outcome[P] == _TERMINAL].tolist():
        # scipy's handle_events: the last step's first crossing ends the samples
        own = np.arange(event_of_step[k], event_of_step[k + 1])
        stop = own[m[own] == hi[k] - 1][0]
        ev_keep[stop + 1:own[-1] + 1] = False
        if ev_x[stop] == steps.x0[hi[k] - 1]:
            e[k], seg_hi[k] = e[k] - 1, hi[k] - 1
        else:
            X[e[k] - 1], Y[e[k] - 1] = ev_x[stop], ev_y[stop]
    # where a point's segment starts, increasing along each arc
    starts = np.where(step_log, -1.0, 1.0) * np.where(step_p, steps.y0, steps.x0)
    dense, far = [], []
    for k, l0, l1, h1, b0, e0 in zip(P.tolist(), lo[P].tolist(), seg_hi[P].tolist(),
                                     hi[P].tolist(), b[P].tolist(), e[P].tolist()):
        arc = arcs[k]
        dense.append(_dense_output(arc, steps, l0, l1, starts))
        far.append(_p_samples(arc, steps, l0, h1, X[b0:e0], Y[b0:e0], dense[-1], cfg)
                   if arc.in_p else None)

    # the samples of all pieces in increasing s: s, and w = 1/p in the p chart
    n = e[P] - b[P]
    off, rev, p_chart = np.cumsum(n) - n, log[P], in_p[P]
    j = np.arange(off[-1] + n[-1]) - np.repeat(off, n)
    at = np.where(np.repeat(rev, n), np.repeat(e[P] - 1, n) - j, np.repeat(b[P], n) + j)
    xs, w = X[at], Y[at]
    p_at = np.repeat(p_chart, n)
    s = np.where(p_at, w, xs)
    exp_at = np.flatnonzero(np.repeat(rev & ~p_chart, n))
    s[exp_at] = _libm(math.exp, xs[exp_at])
    w[p_at] = 1.0 / xs[p_at]
    # each piece's first and last sample in stepping order
    head, tail = np.where(rev, off + n - 1, off), np.where(rev, off, off + n - 1)
    # a lane's later arcs (after the first ones, at index lane) start where
    # the arc before them ends: the next piece toward zero, else the one before
    s_start = np.array(s0)[lane[P]]
    up = np.flatnonzero(P >= len(s0))
    s_start[up] = s[tail[up + np.where(rev[up], 1, -1)]]
    s[head[~p_chart]] = s_start[~p_chart]
    ended = [i for i in np.flatnonzero(outcome[P] == _FINISHED).tolist() if far[i] is None]
    s[tail[ended]] = np.where(rev[ended], cfg.s_min_eps, cfg.s_max)
    for i, s_end, value in zip(ended, s[tail[ended]].tolist(), w[tail[ended]].tolist()):
        far[i] = Termination(TerminationKind.DOMAIN_BOUNDARY_ZERO if rev[i] else
                             TerminationKind.REACHED_S_MAX, s=s_end, value=value)
    ends = s[tail]
    # collapse occasional duplicate nodes within an arc; drop each join's second copy
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.greater(s[1:], s[:-1], out=keep[1:])
    keep[off] = False
    keep[off[first[:-1]]] = True
    kept = np.concatenate(([0], np.cumsum(keep)))
    s, w = s[keep], w[keep]
    joins = s[kept[off + n] - 1]

    for i, (k, l0, l1) in enumerate(zip(P.tolist(), lo[P].tolist(), seg_hi[P].tolist())):
        arc, end = arcs[k], far[i]
        if arc.log and end is not None and end.kind is TerminationKind.BLOW_UP:
            dense[i] = _refusing(dense[i], end.s, True, "below the pole {} of an arc that "
                                                        "blew up toward zero")
        elif (not arc.log and arc.outcome != _SWITCHED and l1 > l0
              and not steps.closed[l1 - 1]):
            dense[i] = _refusing(dense[i], ends[i] if end is None else end.s, False,
                                 "past the far end {} of an arc that did not settle")

    # events: each group's in order of s, ties in the order of its arcs
    records, event_of_group = [], [0] * first.size
    ev = np.flatnonzero(ev_keep & (piece_of[steps.arc[m]] >= 0))
    if ev.size:
        ev_piece = piece_of[steps.arc[m[ev]]]
        ev_s = ev_x[ev]
        ev_log = np.flatnonzero(rev[ev_piece])
        ev_s[ev_log] = _libm(math.exp, ev_s[ev_log])
        ev_group = np.searchsorted(first, ev_piece, side="right") - 1
        order = np.lexsort((ev_piece, ev_s, ev_group))
        records = [EventRecord(EventKind.CROSSED_LINE_R, a, c)
                   for a, c in zip(ev_s[order].tolist(), ev_y[ev][order].tolist())]
        event_of_group = np.searchsorted(ev_group[order], np.arange(first.size)).tolist()

    closed = np.concatenate(([0], np.cumsum(steps.closed)))
    counts = np.array((accepted, attempts - accepted,
                       2 + _NS * attempts + len(_C_DENSE) * accepted, closed[hi] - closed[lo]))
    stats = np.add.reduceat(counts[:, P], first[:-1], axis=1).T.tolist()
    bounds = kept[off[first[:-1]]].tolist() + [s.size]
    first = first.tolist()
    for gi, (g, st) in enumerate(zip(g_of[first[:-1]].tolist(), stats)):
        i, t = first[gi], first[gi + 1] - 1
        out[g] = Trajectory(params, s[bounds[gi]:bounds[gi + 1]], w[bounds[gi]:bounds[gi + 1]],
                            termination_left=far[i] if rev[i] else None,
                            termination_right=None if rev[t] else far[t],
                            events=records[event_of_group[gi]:event_of_group[gi + 1]],
                            dense=dense[i] if i == t else _piecewise(dense[i:t + 1],
                                                                     joins[i:t]),
                            stats=SolverStats(*st))
    return out


def _integrate_lanes(params: FlowParams, starts: Sequence,
                     directions: Sequence[Tuple[str, ...]], cfg: IntegratorConfig,
                     stop_on_line_crossing: bool = False) -> List[Result]:
    """integrate() of each start in each of its directions (a tuple in the
    order of DIRECTIONS), all lanes in one lockstep run: per start one
    Trajectory over all its lanes and their arcs (_arcs), as
    merge_bidirectional would join them, or the first exception
    integrate() would raise for one of its directions.  A lane starts in
    the w chart or, at or past the switch level (past it where |w|
    shrinks, where the p chart ends at the level), in the p chart at
    p = 1/w0 (+-0 from a pole, w0 = +-inf).  A start within BARRIER_TOL of
    a barrier starts on it."""
    out: List[Optional[Result]] = [None] * len(starts)
    lanes, slots = [], []
    for i, (init, sides) in enumerate(zip(starts, directions)):
        try:
            checked = [(_checked_start(params, init, d, cfg), d == DIRECTIONS[0]) for d in sides]
        except ValueError as exc:
            out[i] = exc
            continue
        for (s, w), log in checked:
            if params.has_barriers and abs(abs(w) - 1.0) <= BARRIER_TOL:
                w = math.copysign(1.0, w)
            lanes.append((len(slots), math.log(s) if log else s, s, w, log))
        slots.append(i)
    if not lanes:
        return out
    group, x, s, y, log = (np.array(a) for a in zip(*lanes))
    level = _switch_level(params, s, y)
    in_p = np.where(log != params.has_barriers, np.abs(y) >= level, np.abs(y) > level)
    x[in_p], y[in_p] = 1.0 / y[in_p], s[in_p]
    steps, arcs = _advance(params, x, y, log, in_p, cfg, stop_on_line_crossing)
    for i, res in zip(slots, _arcs(params, steps, arcs, s.tolist(), group, cfg)):
        out[i] = res
    return out


def _pole_batch(params: FlowParams, s0: float, sigmas: Sequence[float],
                cfg: IntegratorConfig) -> List[Result]:
    """Lanes leaving a pole at s0 (p = +-0) with sign w = sigma each, in the
    direction where |w| shrinks: toward zero when et*ep = -1, else toward
    infinity."""
    direction = DIRECTIONS[0] if params.has_barriers else DIRECTIONS[1]
    return _integrate_lanes(params, [(s0, sig * math.inf) for sig in sigmas],
                            [(direction,)] * len(sigmas), cfg)


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
    return _integrate_lanes(params, starts, [(direction,)] * len(starts), cfg,
                            stop_on_line_crossing)


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
    already decides global existence).  A slope of +-inf starts at a
    pole, in the direction where |w| shrinks.  A batch of one of
    integrate_batch().
    """
    return _first(integrate_batch(params, [init], direction, cfg, stop_on_line_crossing))


def _piecewise(pieces: Sequence[Callable], joins) -> Callable:
    """Evaluator reading pieces[i] from joins[i - 1] on and left of joins[i]
    (joins non-decreasing; the first piece below joins[0], the last from
    joins[-1] on, NaN included), as nested two-piece joins would: each
    piece called only on the points on its own part, in order, and on q
    itself where they all are (as a scalar always is)."""
    joins = [float(r) for r in joins]
    kind = np.min_scalar_type(len(joins))

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        if q.ndim == 0 or not q.size:
            x = float(q) if q.size else math.nan
            return _scalar_or_array(np.asarray(pieces[sum(not x < r for r in joins)](q)))
        # each point's piece: the number of joins it does not lie left of
        which = np.zeros(q.shape, dtype=kind)
        for r in joins:
            which += ~(q < r)
        lo, hi = int(which.min()), int(which.max())
        if lo == hi:
            return _scalar_or_array(np.asarray(pieces[lo](q)))
        out = np.empty(q.shape)
        for i in range(lo, hi + 1):
            on = which == i
            if on.any():
                out[on] = pieces[i](q[on])
        return out
    return evaluate


def merge_bidirectional(down: Trajectory, up: Trajectory) -> Trajectory:
    """Join two trajectories that meet at one point: down ends there, up
    starts there (the one-sided runs toward zero and toward infinity from
    one start, or a series part and an integrated arc).  The batched
    integrations join the arcs of each start this way, in one pass
    (_arcs)."""
    if down.params != up.params:
        raise ValueError("cannot merge trajectories with different parameters")
    s_join = down.s[-1]
    if abs(s_join - up.s[0]) > 1e-9 * max(1.0, abs(s_join)):
        raise ValueError("trajectories do not share their anchor point")
    s = np.concatenate([down.s, up.s[1:]])
    w = np.concatenate([down.w, up.w[1:]])
    dn, un = down.dense, up.dense
    # without dense output Trajectory.w_at interpolates the samples
    dense = None if dn is None or un is None else _piecewise((dn, un), (s_join,))
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
    s_head = _libm(math.exp, np.linspace(math.log(cfg.s_min_eps), math.log(start.s), 49))
    s_head[[0, -1]] = cfg.s_min_eps, start.s
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


def _far_field(params: FlowParams, abs_tol: float) -> Tuple[PhaseState, np.ndarray]:
    """Start of the backward separatrix trace, at s_far, and the far-field
    series coefficients to use from there on.

    A truncation after a_K leaves a defect of about |a_{K+1}| s^(-2K)
    times the slope scale 1/c in the phase equation, and a value error of
    about |a_{K+1}| s^(-2K-1).  s_far is where the first two omitted terms
    of the order-_FAR_ORDER series, read as that defect, sum to abs_tol
    (one fixed-point step from the one-term root, which lands just beyond
    the two-term one); past s_far the series satisfies the equation to
    abs_tol relative and its value is off by less than abs_tol / s_far.
    Below s_far the omitted terms grow like (s_far/s)^(2K+1), so the trace
    starts there and nowhere nearer, whatever the span.
    """
    b = separatrix_series_coeffs(params, _FAR_ORDER + 2)
    first, second = abs(b[-2]), abs(b[-1])
    s = (first / abs_tol) ** (0.5 / _FAR_ORDER)
    s = ((first + second / (s * s)) / abs_tol) ** (0.5 / _FAR_ORDER)
    return PhaseState(float(s), float(_far_series(b[:-2], s))), b[:-2]


def separatrix_start(params: FlowParams, abs_tol: float = 1e-12) -> PhaseState:
    """Series start on the separatrix at s_far, the nearest s where its
    order-30 far-field series can be trusted to abs_tol (see _far_field).
    For rotational(n), n = 2..5, s_far is about 8.3, 11.2, 13.1 and 14.9.
    """
    return _far_field(params, abs_tol)[0]


def _far_anchored(params: FlowParams, cfg: IntegratorConfig) -> Trajectory:
    """The separatrix over [s_min_eps, s_max]: backward integration from
    its far-field series at s_far, joined where s_far < s_max to the
    series itself, with samples at most cfg.max_step apart, and cut at
    s_max: the samples below s_max, a last one read from the dense output
    there, and the events up to s_max.

    Nearby solutions contract onto the separatrix at rate s/c going
    backward, which makes that integration stiff for an explicit stepper
    at large s; starting it at s_far keeps its cost independent of s_max.
    """
    start, coeffs = _far_field(params, cfg.abs_tol)
    traj = integrate(params, start, "toward_zero", cfg)
    if start.s < cfg.s_max:
        series = partial(_far_series, coeffs)
        nodes = max(1, math.ceil((cfg.s_max - start.s) / cfg.max_step))
        s_tail = np.linspace(start.s, cfg.s_max, nodes + 1)
        traj = merge_bidirectional(traj, Trajectory(params, s_tail, series(s_tail), dense=series))
    k, w_end = np.searchsorted(traj.s, cfg.s_max), float(traj.w_at(cfg.s_max))
    end = Termination(TerminationKind.REACHED_S_MAX, s=float(cfg.s_max), value=w_end)
    return replace(traj, s=np.append(traj.s[:k], cfg.s_max), w=np.append(traj.w[:k], w_end),
                   termination_right=end, events=[e for e in traj.events if e.s <= cfg.s_max])


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
