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
interpolant of every accepted step), solver counters, and its events:
crossing the critical line, located on the step's interpolant after the
loop (Shampine & Thompson, "Event location for ODEs", 2000).  A lane that
fails (step collapse) comes back as its own exception and does not stop
the others.

Each end is classified by how it terminated: reaching the span end,
reaching the s -> 0 cutoff, or blowing up, where the chart w fails.  One
chart rule holds in both directions: a lane is in the chart of
p = 1/w, which steps p and carries s, with
ds/dp = -p / ((et*p^2 + ep)(p - h(s))), whenever |w| >= max(10, 2s/c), and
in the w chart otherwise.  Past that level |w| is monotone, and s(p) is
regular at p = 0, where the w chart has its pole.  In the direction where
|w| grows without bound (forward when et*ep = -1, toward zero otherwise)
a lane passes from the w chart to the p chart at the level and steps p to
0: the step end s(0) is its BLOW_UP s, and its last sample sits on that
step at |w| = 1e6, about 1e-12 short of the pole.  In the other
direction a lane passes from the p chart back to the w chart at the
level; a start at w0 = +-inf leaves a pole, p = +-0.  A lane switches at
the end of its first accepted step at or past the level, a point of the
solution as accurate as any located one, and goes on in its next chart
from there within the same loop, so a batch of any directions and charts
is one loop; the arcs of the two charts are joined at that step end.

The barriers w = +-1 of the patterns with et*ep = -1 are exact solutions,
and most strip solutions settle onto one.  Once an accepted w-chart step
of such a lane ends at w = +-1.0 exactly, the field there is exactly 0,
and the lane ends in one closed step along the barrier to its bound, with
stage rows 0: its dense output reads +-1 exactly, its events are located
on it like on any step, and its cost does not depend on s_max.  Where the
line crossing is terminal, that step ends the lane at the crossing if the
critical line meets the barrier on the way.  A start within BARRIER_TOL
of a barrier is put on it, w0 = +-1.0, and is a lane like any other: its
first step lands on the barrier.

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

# a lane is in the p chart, p = 1/w, while |w| >= max(_W_SWITCH, 2s/c)
_W_SWITCH = 10.0
# a p-chart arc samples its pole end, p = 0, at |p| = _P_END (|w| = 1e6)
_P_END = 1e-6
# trial stages of a rejected step can overshoot far; the w chart reads
# slopes beyond this as this, which keeps the arithmetic finite
_W_CAP = 1e10

Result = Union[Trajectory, Exception]


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
        another follows: |w| >= max(_W_SWITCH, 2s/c) in the w chart where
        |w| grows, |p| >= 1/max(_W_SWITCH, 2s/c) in the p chart where it
        shrinks."""
        end = self.grows & ~self.in_p & (np.abs(y) >= _W_SWITCH)
        if np.count_nonzero(end):
            at = np.flatnonzero(end)
            end[at] = np.abs(y[at]) >= 2.0 * self.s_of(x[at], at) / self.c
        at = np.flatnonzero(~self.grows & self.in_p)
        if at.size:
            end[at] = np.abs(x[at]) * np.maximum(_W_SWITCH, 2.0 * y[at] / self.c) >= 1.0
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


# accepted steps grouped by arc, each arc's in the order taken, with the
# seven dense-output coefficient rows F of every step
_Steps = namedtuple("_Steps", "arc x0 h y0 x1 y1 F")

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
    rejection, max_step, and a minimum step of 10 ulp(x).  Each lane has its direction (log: toward zero) and chart
    (in_p), masks of one _Field over all lanes still stepping, and steps
    its x toward its bound (_Field.heading).  A lane stops at step
    collapse, at the line crossing when stop_on_crossing, and at its
    bound, except in the p chart where |w| shrinks; in the p chart also
    where s leaves the span, and where |w| grows the bound is its pole,
    p = 0.  Line crossings are located after the loop.  A step that ends
    at or past the end of a chart that another chart follows (the w chart
    where |w| grows, the p chart where it shrinks) ends its arc there,
    open, and the lane goes on from that step end in the other chart with
    a fresh initial step, as a new arc.  In a barrier pattern a w-chart
    step that ends at w = +-1.0 exactly lands the lane on the barrier,
    where the field is 0: one closed step to its bound follows, with zero
    stage rows, counted as one attempt and one accepted step, and finishes
    its arc, or ends it as terminal when stop_on_crossing and the critical
    line changes sign between the landing point and the bound.  After a
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
    keep, records, it = np.flatnonzero(in_p | (x != np.where(log, x_min, cfg.s_max))), [], 0
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
        landed = (ok & ~done & ~hit & ~in_p & (np.abs(y_new) == 1.0)
                  if params.has_barriers else False)
        stop = done | hit | landed
        if stuck is not None:
            stop |= stuck
        switch = ended & ~stop
        if not np.count_nonzero(stop | switch):
            continue
        # a landed lane ends in one closed step to its bound, with stage rows 0
        tries = it - start_it - (0 if stuck is None else stuck) + landed
        if np.count_nonzero(landed):
            records.append(tuple(a[landed] for a in (arc, x_new, bound - x_new, y_new, bound,
                                                     y_new, np.zeros_like(K))))
            if stop_on_crossing:    # the critical line meets the barrier on the way
                hit |= landed & _straddles(g_new, field.events(bound, y_new))
        outcome = np.select([hit, done | landed, switch], [_TERMINAL, _FINISHED, _SWITCHED],
                            _COLLAPSED)
        for k in np.flatnonzero(stop | switch):
            arcs[arc[k]] = arcs[arc[k]]._replace(outcome=int(outcome[k]), attempts=int(tries[k]),
                                                 accepted=int(tries[k] - rejects[k]))
        keep = np.flatnonzero(~stop)
    return _collect(params, arcs, records), arcs


def _collect(params: FlowParams, arcs: List[_Arc], records: list) -> _Steps:
    """Group the accepted steps by arc and build their dense output, for
    all steps at once."""
    if not records:
        records = [(np.zeros(0, dtype=int),) + (np.zeros(0),) * 5 + (np.zeros((0, _NS + 1)),)]
    parts = list(zip(*records))
    records.clear()    # the steps live on in parts, and only until copied
    arc, x0, h, y0, x1, y1 = (np.concatenate(a) for a in parts[:6])
    Kd = np.empty((arc.size, _NS + 1 + len(_C_DENSE)))
    np.concatenate(parts.pop(), out=Kd[:, :_NS + 1])
    del parts
    F = _dense(_arc_field(params, arcs, arc), x0, h, y0, y1, Kd)
    order = np.argsort(arc, kind="stable")
    return _Steps(*(a[order] for a in (arc, x0, h, y0, x1, y1, F)))


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
    located on the step's interpolant (_illinois), each step's in the
    order met."""
    m = np.flatnonzero(_straddles(field.events(steps.x0, steps.y0),
                                  field.events(steps.x1, steps.y1)))
    met = _Field(field.params, field.log[m], field.in_p[m])
    F, x0, h, y0 = steps.F[m].T, steps.x0[m], steps.h[m], steps.y0[m]
    root = _illinois(lambda x: met.events(x, _interpolate(F, x0, h, y0, x)), x0, steps.x1[m])
    y = _interpolate(F, x0, h, y0, root)
    order = np.lexsort((np.where(met.log, -root, root), m))
    return m[order], root[order], y[order]


def _dense_output(arc: _Arc, steps: _Steps, lo: int, hi: int) -> Callable:
    """w(s) of one arc from its step interpolants, picking the segment of
    a point as scipy's OdeSolution does (the step that starts there).  In
    the p chart a step's s(p) is monotone, and _illinois inverts it.  A
    w-chart arc toward zero, stepped in log s, refuses s <= 0."""
    F, x0, h, y0 = (a[lo:hi].copy() for a in (steps.F, steps.x0, steps.h, steps.y0))
    last, sign = hi - lo - 1, -1.0 if arc.log else 1.0
    starts = sign * (y0 if arc.in_p else x0)

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
            return _scalar_or_array(_interpolate(*step, x).reshape(q.shape))
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


def _arcs(params: FlowParams, steps: _Steps, arcs: List[_Arc], s0: List[float],
          cfg: IntegratorConfig) -> List[Result]:
    """Cut each arc out of the steps: a Trajectory, or the RuntimeError of
    a step collapse.  An arc ends at its terminal line crossing, at its
    bound (toward zero at exactly s_min_eps, not at exp(log s_min_eps)),
    at its pole (_p_samples), or open at its last sample, where its lane
    switched chart.  A w-chart arc starts at exactly the s its lane starts
    it at (s0 of lane k, or the last sample of the arc before), not at
    exp(log s)."""
    m, ev_x, ev_y = _step_events(_arc_field(params, arcs, steps.arc), steps)
    step_of_arc = np.searchsorted(steps.arc, np.arange(len(arcs) + 1))
    event_of_step = np.searchsorted(m, step_of_arc)
    s0 = list(s0)

    out: List[Result] = []
    for k, arc in enumerate(arcs):
        if arc.outcome == _COLLAPSED:
            out.append(RuntimeError("integrator failed before any terminal event: Required "
                                    "step size is less than spacing between numbers."))
            continue
        lo, hi = step_of_arc[k], step_of_arc[k + 1]
        e_m, e_x, e_y = (a[event_of_step[k]:event_of_step[k + 1]] for a in (m, ev_x, ev_y))
        xs = np.concatenate(([arc.x0], steps.x1[lo:hi]))
        ys = np.concatenate(([arc.y0], steps.y1[lo:hi]))
        seg_hi = hi
        if arc.outcome == _TERMINAL:
            # scipy's handle_events: the last step's first crossing ends the samples
            stop = np.flatnonzero(e_m == hi - 1)[0]
            e_x, e_y = e_x[:stop + 1], e_y[:stop + 1]
            if e_x[stop] == steps.x0[hi - 1]:
                xs, ys, seg_hi = xs[:-1], ys[:-1], hi - 1
            else:
                xs[-1], ys[-1] = e_x[stop], e_y[stop]
        far, dense = None, _dense_output(arc, steps, lo, seg_hi)
        if arc.in_p:    # far: the pole; else open at the line crossing and the switch
            far = _p_samples(arc, steps, lo, hi, xs, ys, dense, cfg)
            s_samples, ws = ys, 1.0 / xs
        else:
            s_samples, ws = _libm(math.exp, xs) if arc.log else xs, ys
            s_samples[0] = s0[arc.lane]
        s0[arc.lane] = s_samples[-1]    # where a next arc starts
        if arc.outcome == _FINISHED and far is None:
            s_samples[-1] = cfg.s_min_eps if arc.log else cfg.s_max
            far = Termination(TerminationKind.DOMAIN_BOUNDARY_ZERO if arc.log else
                              TerminationKind.REACHED_S_MAX, s=float(s_samples[-1]),
                              value=float(ws[-1]))
        records = [EventRecord(EventKind.CROSSED_LINE_R, float(s), float(w))
                   for s, w in zip(_libm(math.exp, e_x) if arc.log else e_x, e_y)]
        if arc.log:    # stepping order, monotone in s
            s_samples, ws = s_samples[::-1], ws[::-1]
        left, right = (far, None) if arc.log else (None, far)
        # collapse occasional duplicate nodes
        keep = np.concatenate(([True], np.diff(s_samples) > 0))
        stats = SolverStats(arc.accepted, arc.attempts - arc.accepted,
                            2 + _NS * arc.attempts + len(_C_DENSE) * arc.accepted)
        out.append(Trajectory(params, s_samples[keep], ws[keep], termination_left=left,
                              termination_right=right,
                              events=sorted(records, key=lambda r: r.s),
                              dense=dense, stats=stats))
    return out


def _integrate_lanes(params: FlowParams, starts: Sequence, directions: Sequence[str],
                     cfg: IntegratorConfig, stop_on_line_crossing: bool = False) -> List[Result]:
    """integrate() of each start in its own direction, all in one lockstep
    run: per start its Trajectory, or the exception integrate() would
    raise.  A lane starts in the w chart or, at or past the switch level
    (past it where |w| shrinks, where the p chart ends at the level), in
    the p chart at p = 1/w0 (+-0 from a pole, w0 = +-inf), and its arcs
    are joined.  A start within BARRIER_TOL of a barrier starts on it."""
    out: List[Optional[Result]] = [None] * len(starts)
    lanes = []
    for i, (init, direction) in enumerate(zip(starts, directions)):
        try:
            s, w = _checked_start(params, init, direction, cfg)
        except ValueError as exc:
            out[i] = exc
            continue
        if params.has_barriers and abs(abs(w) - 1.0) <= BARRIER_TOL:
            w = math.copysign(1.0, w)
        lanes.append((i, math.log(s) if direction == "toward_zero" else s, s, w,
                      direction == "toward_zero"))
    if not lanes:
        return out
    index, x, s, y, log = (np.array(a) for a in zip(*lanes))
    level = np.maximum(_W_SWITCH, 2.0 * s / params.fiber_coeff)
    in_p = np.where(log != params.has_barriers, np.abs(y) >= level, np.abs(y) > level)
    x[in_p], y[in_p] = 1.0 / y[in_p], s[in_p]
    steps, arcs = _advance(params, x, y, log, in_p, cfg, stop_on_line_crossing)
    for arc, res in zip(arcs, _arcs(params, steps, arcs, s.tolist(), cfg)):
        k = index[arc.lane]
        if out[k] is not None and not isinstance(res, Exception):
            res = merge_bidirectional(*((res, out[k]) if arc.log else (out[k], res)))
        out[k] = res
    return out


def _pole_batch(params: FlowParams, s0: float, sigmas: Sequence[float],
                cfg: IntegratorConfig) -> List[Result]:
    """Lanes leaving a pole at s0 (p = +-0) with sign w = sigma each, in the
    direction where |w| shrinks: toward zero when et*ep = -1, else toward
    infinity."""
    direction = DIRECTIONS[0] if params.has_barriers else DIRECTIONS[1]
    return _integrate_lanes(params, [(s0, sig * math.inf) for sig in sigmas],
                            [direction] * len(sigmas), cfg)


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
    return _integrate_lanes(params, starts, [direction] * len(starts), cfg,
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


def _handoff(below: Callable, above: Callable, r: float) -> Callable:
    """Evaluator reading below() left of r and above() from r on, each
    called only on the points on its own side (on q itself where they
    all are, as a scalar always is)."""
    def evaluate(q):
        q = np.asarray(q, dtype=float)
        left = q < r
        if not left.any() or left.all():
            return _scalar_or_array(np.asarray((below if left.any() else above)(q)))
        out = np.empty(q.shape)
        out[left], out[~left] = below(q[left]), above(q[~left])
        return out
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
