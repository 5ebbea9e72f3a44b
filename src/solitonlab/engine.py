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
location for ODEs", 2000).  An event is a record, never an end: every
lane runs to its bound, its pole or a step collapse.  The one exception is
the decision lanes of a join (_Join), the separatrix's decision shots:
the join carries a stop test, and each of its lanes ends at the first
accepted step that gives it a verdict and returns that verdict, no
trajectory.  They start from a w given at some s, in a loop that may
have no other lanes, or from one lane's w at s, read on that lane's step
that passes s, at the iteration after it, so that the first separatrix
shots share the loop of the trace they start from.  A lane that fails
(step collapse) comes back as its own exception and does not stop the
others.

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
closed solution u1*e^E, E(s) = 2*ep*sigma*((s - s1) - sigma*et*c*ln(s/s1)),
from (s1, sigma + u1).  The tail adds the second-order term of the
regular perturbation series in u1 (Bender & Orszag 1978, ch. 7),
u1^2*e^E*[(3*sigma/2)*(e^E - 1) - 2*ep*I(s)], with I the integral of e^E
from s1 to s, an incomplete gamma function, summed in closed form where
2c is a whole number up to 256 (_tail_rows, _tail_integral); the dropped
O(u1^3) terms move w by about u1^3.  Once an accepted w-chart step of a
lane ends where that tail stays within u* = abs_tol^(1/3) of the barrier
up to the lane's bound, the lane ends in one closed step to its bound,
written from the formula, not stepped: its samples, its dense output and
the critical-line events on it all come from the formula (libm's exp and
log, taken in log space, so no term overflows and the bits do not depend
on numpy's dispatch), and its cost does not depend on s_max.  For other c
the tail is the linear one, and u* = sqrt(abs_tol) (_u_star).  A step that
ends at w = +-1.0 exactly, where the field is 0, is the case u1 = 0, and
reads the barrier exactly.
A start within BARRIER_TOL of a barrier is put on it, w0 = +-1.0, and is
a lane like any other: its first step lands on the barrier.

The center-regular solution (slope vanishing at s = 0) of any sign
pattern, the bowl and every center-regular profile, is one lane: its
Taylor series up to a handoff it picks itself, then forward integration
(_series_lane).  The separatrix of the strip form is ended by the
diagonal Padé approximant of its divergent far-field series, which stays
accurate much nearer the origin than the series (separatrix_start: from
s of about 3.1, 4.3, 4.9 and 5.7 for rotational n = 2..5, where the
order-30 series needs 8.3 to 14.9); both coefficient recursions live
here, as do the approximant and the join of a closed formula and an
integrated arc.  Each of the two is one ordinary lane (_Lane) and the
assembly of the reference from that lane's run, so a caller can run it
alone or among other lanes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial
from itertools import repeat
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    s_max: float = 100.0
    s_min_eps: float = 1e-10

    def __post_init__(self) -> None:
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0 < self.s_min_eps < self.s_max < math.inf:
            raise ValueError("need 0 < s_min_eps < s_max < inf")


class EventKind(Enum):
    CROSSED_LINE_R = "crossed_line_r"


@dataclass(frozen=True)
class EventRecord:
    """A located phase-plane event: what happened and where."""

    kind: EventKind
    s: float
    w: float


DIRECTIONS = ("toward_zero", "toward_infinity")


def _f64(value) -> np.ndarray:
    """value as a read-only float64 0-d array."""
    a = np.array(value, dtype=float)
    a.setflags(write=False)
    return a


# Constants that enter a numpy call once per stage, per lockstep iteration
# or per Illinois iteration are float64 0-d arrays, built once: here at
# module level, per params in _coeffs, per config in _advance.  numpy
# applies the same float64 operation to a Python float operand (NEP 50),
# so no bit moves, but it converts the float on every call, and at the
# 1-128 lanes of a batch that doubles the call (about 1.0 against 0.5 us).
# They are read-only, since every integration in the process shares them.
# Python-level arithmetic and math-module arguments stay Python floats.
_ZERO, _HALF, _ONE, _TWO, _MINUS_ONE = map(_f64, (0.0, 0.5, 1.0, 2.0, -1.0))
_NAN, _NEG_INF = _f64(math.nan), _f64(-math.inf)

# DOP853: 12 stages, the step-end slope as a 13th, 3 more for dense output
_NS = _dop853.N_STAGES
_A_ROWS = [_dop853.A[i, :i] for i in range(_NS)]
_B = _dop853.B
_C = np.append(_dop853.C[:_NS], 1.0)
# the abscissae of stages 1.._NS - 1; stage _NS reads the last, _C[_NS - 1] == _C[_NS]
_C_AT = _C[1:_NS, None]
# the row of those abscissae each stage reads
_STAGE_ROW = [min(i, _NS - 1) - 1 for i in range(_NS + 1)]
_E = np.stack([_dop853.E5, _dop853.E3])
_A_DENSE = _dop853.A[_NS + 1:]
_C_DENSE = _dop853.C[_NS + 1:]
_D = _dop853.D
# scipy's step control; the error estimate is of order 7, its norm weighs
# the third-order estimate by _E3_WEIGHT
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = map(_f64, (0.9, 0.2, 10.0))
_EXPONENT = -1.0 / 8.0
_E3_WEIGHT = _f64(0.01)
# scipy's max_step: no step is longer in its stepping variable, and the
# separatrix's series samples lie no farther apart
_MAX_STEP = _f64(1.0)
# an error norm below this is as good as zero: the growth clamp wins
_TINY = _f64(1e-300)
_EPS = np.finfo(float).eps
# scipy's select_initial_step: the norms below which a start is flat (d0
# and d1, then d1 and d2), the step taken there, its factor 0.01, and the
# factors 1e-3 and 100 on its first guess h0
_FLAT0, _FLAT1, _H_FLAT = map(_f64, (1e-5, 1e-15, 1e-6))
_H0_FACTOR, _H_SHRINK, _H_GROW = map(_f64, (0.01, 1e-3, 100.0))
# _illinois stops where its bracket is narrower than this times 1 + |x|
_ILLINOIS_TOL = _f64(4 * _EPS)

# a lane is in the p chart, p = 1/w, while |w| is at or past _switch_level
_W_SWITCH = _f64(2.0)
# a p-chart arc samples its pole end, p = 0, at |p| = _P_END (|w| = 1e6)
_P_END = 1e-6
# trial stages of a rejected step can overshoot far; the w chart reads
# slopes beyond this as this, which keeps the arithmetic finite
_W_CAP, _NEG_W_CAP = _f64(1e10), _f64(-1e10)
# a closed step reads |u| below e^_TAIL_FLOOR as 0 (_tail)
_TAIL_FLOOR, _LN2 = _f64(-40.0), _f64(math.log(2.0))
# a tail has its second-order term where m = 2c is a whole number up to
# _TAIL_M_MAX, which bounds the terms of _tail_integral's sums
_TAIL_M_MAX, _THREE_HALVES = map(_f64, (256.0, 1.5))
# the series takes ceil(sqrt(_SERIES_SCALE*m)) + _SERIES_EXTRA terms (_series_terms)
_SERIES_SCALE, _SERIES_EXTRA = map(_f64, (80.0, 12.0))

Result = Union[Trajectory, Exception]


@lru_cache(maxsize=64)
def _coeffs(params: FlowParams) -> Tuple[np.ndarray, ...]:
    """et, ep, et*c, c and 2*ep of params, as float64 0-d arrays (_f64)."""
    et, ep, c = params.eps_tilde, params.eps_prime, params.fiber_coeff
    return tuple(map(_f64, (et, ep, et * c, c, 2.0 * ep)))


def _switch_level(params: FlowParams, s, w):
    """The |w| at and past which a lane at (s, w) is in the p chart:
    _W_SWITCH where w has the sign -et, which the critical line
    w = s*et/c never reaches (there ds/dp has no singular point and |w| is
    monotone past 1), and max(_W_SWITCH, 2s/c) on the line's side, which
    keeps the p chart off the line, p*s = et*c."""
    et, _, _, c, _ = _coeffs(params)
    return np.where(np.asarray(w) * et < _ZERO, _W_SWITCH,
                    np.maximum(_W_SWITCH, _TWO * np.asarray(s) / c))


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
        self.et, self.ep, self.etc, self.c, _ = _coeffs(params)
        self.ep_negative = params.eps_prime < 0
        self.in_w = ~in_p
        # the points whose x is log s
        self.exp = log & self.in_w
        n_exp = np.count_nonzero(self.exp)
        self.any_log, self.all_log = n_exp > 0, n_exp == log.size
        n_p = np.count_nonzero(in_p)
        self.any_p, self.all_p = n_p > 0, n_p == in_p.size
        self.grows = log != params.has_barriers
        # ended() reads the w-chart points where |w| grows, the p-chart ones where it shrinks
        self.w_grows = (self.grows & self.in_w).nonzero()[0]
        self.p_shrinks = (in_p & ~self.grows).nonzero()[0]

    def s_of(self, x, at=slice(None)):
        """s at w-chart stepping-variable values x of the points at (all of
        them); p-chart values pass through."""
        if self.all_log or not self.any_log:
            return _libm(math.exp, x) if self.all_log else x
        log = self.exp[at]
        if not np.count_nonzero(log):
            return x
        s = x.copy()
        s[..., log] = _libm(math.exp, x[..., log])
        return s

    def at(self, x):
        """What rate() reads of stepping-variable values x: (L, D) at s,
        None for 1 where all points share it, and p = x."""
        # p-chart points read as s = 1 in the w chart
        s = np.where(self.in_p, _ONE, self.s_of(x)) if self.any_p else self.s_of(x)
        if self.all_log or not self.any_log:
            return (s, None, x) if self.all_log else (None, s, x)
        return np.where(self.exp, s, _ONE), np.where(self.exp, _ONE, s), x

    def __call__(self, x, z, out=None):
        return self.rate(*self.at(x), z, out)

    def rate(self, L, D, p, z, out=None):
        """The field at chart values z, with (L, D, p) from at():
        (et + ep*w^2)(L - w*etc/D) in the w chart,
        -p*s / ((et*p^2 + ep)(p*s - etc)) in the p chart."""
        if not self.all_p:
            w = np.minimum(np.maximum(z, _NEG_W_CAP), _W_CAP)
            ww = w * w
            a = self.et - ww if self.ep_negative else self.et + ww
            t = w * self.etc
            out = np.multiply(a, (_ONE if L is None else L) - (t if D is None else t / D), out=out)
            if not self.any_p:
                return out
            # w-chart points read as p = s = 0, where the field is 0
            p, z = np.where(self.in_p, p, _ZERO), np.where(self.in_p, z, _ZERO)
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
        end, at = np.zeros(y.size, dtype=bool), self.w_grows
        if at.size:
            at = at[np.abs(y[at]) >= _W_SWITCH]
        if at.size:
            end[at] = np.abs(y[at]) >= _switch_level(self.params, self.s_of(x[at], at), y[at])
        at = self.p_shrinks
        if at.size:
            end[at] = np.abs(x[at]) * _switch_level(self.params, y[at], x[at]) >= _ONE
        return end

    def events(self, x, y, s=None, at=slice(None)):
        """The critical line w - s*et/c at points (x, y) (of the points at,
        at their s if given), NaN in the p chart."""
        cross = y - (self.s_of(x, at) if s is None else s) * self.et / self.c
        return np.where(self.in_p[at], _NAN, cross) if self.any_p else cross


def _switch(field: _Field, x, y):
    """(x, y, in_p) of the points of field in their other chart: from the
    w chart p = 1/w and s, from the p chart s (log s where log) and 1/p."""
    s = np.where(field.in_p, y, field.s_of(x))
    inverse = 1.0 / np.where(field.in_p, x, y)
    x_new = np.where(field.in_p, s, inverse)
    back = field.in_p & field.log
    x_new[back] = _libm(math.log, s[back])
    return x_new, np.where(field.in_p, inverse, s), ~field.in_p


def _libm(fn, x, *const):
    """A math-module function element by element, with any further
    arguments the same for every element.  numpy's SIMD exp, log
    and power differ from libm in the last bit now and then, and which
    SIMD path runs depends on the CPU.  The error estimate, a sum that
    cancels to ~1e-10 of its terms, would blow such a bit up into the step
    sizes; libm keeps each lane on scipy's steps.  Every exp and log that
    reaches a sample, and every power, goes through here, so the bits do
    not depend on numpy's dispatch."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist(), *map(repeat, const)), float,
                       x.size).reshape(x.shape)


def _growth(norm):
    """scipy's step factor SAFETY * max(norm, _TINY)**(-1/8), libm's pow."""
    return _SAFETY * _libm(math.pow, np.maximum(norm, _TINY), _EXPONENT)


def _straddles(g_old, g_new):
    """scipy's event activity test: g reaches or crosses zero."""
    return np.sign(g_old) * np.sign(g_new) <= _ZERO


def _tail_rows(params: FlowParams, s1, y1, s_end):
    """The rows F of closed steps from (s1, y1) to s_end, w = y1 near a
    barrier sigma = +-1, one row per step as _dense gives them: sigma,
    u1 = y1 - sigma, s1, k = 2*ep*sigma, sigma*et*c, ln|u1| (0 at u1 = 0)
    and s_end.

    With u = w - sigma the phase equation reads u' = a*u + b*u^2 + c*u^3/s,
    where a = E'(s) for E(s) = k*((s - s1) - sigma*et*c*ln(s/s1)) and
    b = (3*sigma/2)*E' - 2*ep.  In a barrier pattern -k*sigma*et*c = 2c = m,
    so e^E(r) = e^(k(r - s1))*(r/s1)^m.  The regular perturbation series in
    u1 (Bender & Orszag 1978, ch. 7) gives, to second order, u = L + L*B:
    the linear part L = u1*e^E (_tail_linear) and
    B = (3*sigma/2)*(L - u1) - 2*ep*V, with V = u1 times the integral of
    e^E(r) from s1 to s (_tail_integral).  The dropped terms are O(u1^3).
    Where m is not a whole number in [1, _TAIL_M_MAX] (_whole), the tail is
    L alone, whose dropped terms are O(u1^2) (_u_star)."""
    et, _, _, c, two_ep = _coeffs(params)
    sigma = np.copysign(_ONE, y1)
    F = np.zeros((y1.size, 3 + len(_D)))
    F[:, 0], F[:, 1], F[:, 2] = sigma, y1 - sigma, s1
    F[:, 3] = two_ep * sigma
    F[:, 4] = sigma * et * c
    F[:, 5] = _libm(lambda u: math.log(u) if u else 0.0, np.abs(F[:, 1]))
    F[:, 6] = s_end
    return F


def _whole(m):
    """Whether tails with m = 2c have their second-order term: m a whole
    number in [1, _TAIL_M_MAX]."""
    return (m >= _ONE) & (m <= _TAIL_M_MAX) & (m == np.floor(m))


def _u_star(params: FlowParams, abs_tol: float) -> float:
    """The |u| within which a lane's tail must stay up to its bound for the
    lane to close: abs_tol^(1/3) where the tail has its second-order term,
    whose dropped O(u^3) terms then move w by about abs_tol, else
    sqrt(abs_tol), where the linear tail's O(u^2) terms do."""
    return abs_tol ** (1.0 / 3.0) if _whole(2.0 * params.fiber_coeff) else math.sqrt(abs_tol)


def _tail_exponent(F, s):
    """E(s) of closed steps with rows F (F[k] aligned with s)."""
    return F[3] * ((s - F[2]) - F[4] * _libm(math.log, s / F[2]))


def _tail_linear(F, s):
    """The linear part L = u1*exp(E(s)) of closed steps with rows F, taken
    in log space so that no term overflows, its exponent read no higher
    than 0 (|L| <= 1)."""
    return np.copysign(_libm(math.exp, np.minimum(F[5] + _tail_exponent(F, s), _ZERO)), F[1])


def _tail_integral(F, s, L):
    """V = u1 times the integral of e^E(r) from s1 to s, on closed steps
    with rows F that have a second-order term at s (_tail), L their linear
    part at s.  The integral is a difference of incomplete gamma
    functions.  Each of its two forms below is read at s and at s1, with
    terms no larger than the integral of |u1*e^E| they sum to, which the
    closed step bounds, so V does not cancel:

    * where |k|*r <= m over the span (e^E rises with r there), the Kummer
      series of u1 times the integral from 0 to r,
      r*L(r) * sum_n (-k*r)^n / ((m + 1)(m + 2)...(m + 1 + n)),
      whose terms fall by |k*r|/(m + 1 + n) < 1 each: its first
      _series_terms(m) + 1 of them leave out less than 1e-17 of it.  It is
      not read where |k|*r > m, past the span's far end;
    * elsewhere the finite sum, the exact antiderivative,
      L(r) * sum_j (-1)^j m!/(m - j)! / (k^(j + 1) r^j), j = 0..m:
      where k < 0 its terms have one sign, u1 times minus the integral
      from r to infinity; where k > 0 toward zero, k*s1 > m and they fall
      from the first; where k > 0 toward infinity the tail grows, and a
      u1 small enough to close keeps them below u*/k.

    The terms of both are running products of the first (_running_sum), so
    none overflows where the sum does not, and a row's bits depend on that
    row alone."""
    m, k = -F[3] * F[4], F[3]
    series = np.abs(k) * np.maximum(F[2], F[6]) <= m
    r, X = np.stack((s, F[2])), np.stack((L, F[1]))
    y = (-k * r)[..., None]
    size = np.where(series, _series_terms(m), m)
    j, m = np.arange(np.max(size)), m[:, None]
    ratio = np.where(series[:, None], y / (m + _TWO + j), (m - j) / y)
    total = _running_sum(np.where(series, r * X / (m[:, 0] + _ONE), X / k), ratio,
                         size.astype(int))
    return total[0] - total[1]


def _series_terms(m):
    """How many terms past the first the series of _tail_integral takes:
    where |k*r| <= m they fall by m/(m + 1 + n) at most, and within
    sqrt(80*m) + 12 of them leave out less than 1e-17 of the sum, for every
    whole m from 1 to _TAIL_M_MAX (checked in mpmath)."""
    return np.ceil(np.sqrt(_SERIES_SCALE * m)) + _SERIES_EXTRA


def _running_sum(first, ratios, size):
    """Per row k (the last but one axis), the sum of the terms first,
    first*ratios[0], first*ratios[0]*ratios[1], ..., up to the one of
    size[k] ratios: each term the one before it times its ratio, summed
    from the first on, so that no ratio past a row's size reaches it."""
    terms = np.cumprod(np.concatenate((first[..., None], ratios), axis=-1), axis=-1)
    return np.cumsum(terms, axis=-1)[..., np.arange(size.size), size]


def _tail_peak(F):
    """A bound on ln|u| of closed steps with rows F on their way to s_end,
    -inf at u1 = 0.  In a barrier pattern E'' = -2c/s^2, so E is concave.
    Where E falls from s1 on (E'(s1) points away from the span), the
    largest ln|L| over the span, P, is ln|u1|; elsewhere it lies at s1
    (E = 0), at s_end, or at E's stationary point sigma*et*c clipped into
    the span.  Where the tail has its second-order term and P <= 0,
    |L - u1| <= e^P and |V| <= |V(s_end)|, so ln|u| <= P + x with
    x = 1.5*e^P + |k*V(s_end)| (ln(1 + x) <= x): where E falls, E lies
    below its tangent at s1 and |V(s_end)| <= |u1/E'(s1)|; elsewhere V(s_end)
    is taken in full (_tail_integral)."""
    s_end, m = F[6], -F[3] * F[4]
    slope = F[3] + m / F[2]    # E'(s1)
    falls = slope * (s_end - F[2]) < _ZERO
    second = _whole(m)
    ln_u = np.where(F[1] != _ZERO, F[5], _NEG_INF)
    ln_u += np.where(falls & second, np.abs(F[1]) * (
        _THREE_HALVES + np.abs(F[3] / np.where(falls, slope, _ONE))), _ZERO)
    rest = (~falls).nonzero()[0]
    if rest.size:
        G, s_end = F[:, rest], s_end[rest]
        E_end = _tail_exponent(G, s_end)
        top = np.minimum(np.maximum(G[4], np.minimum(G[2], s_end)), np.maximum(G[2], s_end))
        ln_u[rest] += np.maximum(np.maximum(E_end, _tail_exponent(G, top)), _ZERO)
        at = rest[second[rest] & (ln_u[rest] <= _ZERO) & (G[1] != _ZERO)]
        if at.size:
            G, s_end = F[:, at], F[6][at]
            V = _tail_integral(G, s_end, _tail_linear(G, s_end))
            ln_u[at] += _THREE_HALVES * _libm(math.exp, ln_u[at]) + np.abs(G[3] * V)
    return ln_u


def _tail(F, s):
    """w at s on closed steps with rows F: sigma + L + L*B (_tail_rows),
    L taken in log space so that no term overflows.  A step's tail is read
    on its side of s1: on the step, where |u| stays below u*, and past its
    far end, where the exponent of L is read no higher than 0, |L| <= 1,
    and a series form of V is not read past |k|*s = m, where B is 0.
    There |B| < 1, so where |L| < e^-40, sigma + u rounds to sigma, and w is
    sigma without a call to libm.  Those points are found from a bound on
    E that takes no logarithm: E = k*(s - s1) + m*ln(s/s1) in a barrier
    pattern, and ln(s/s1) < q*ln 2 where frexp splits s/s1 into f*2^q with
    f < 1."""
    w = np.array(F[0], dtype=float)
    q = np.frexp(s / F[2])[1]
    live = (F[1] != _ZERO) & (F[5] + F[3] * (s - F[2]) - F[3] * F[4] * _LN2 * q >= _TAIL_FLOOR)
    if np.count_nonzero(live):
        F, s = F[:, live], s[live]
        u = _tail_linear(F, s)
        # the points with a second-order term: m whole, u1 != 0, and s
        # where _tail_integral reads its form
        m, k = -F[3] * F[4], np.abs(F[3])
        at = (_whole(m) & (F[1] != _ZERO)
              & ((k * np.maximum(F[2], F[6]) > m) | (k * s <= m))).nonzero()[0]
        if at.size:
            G, L = F[:, at], u[at]
            V = _tail_integral(G, s[at], L)
            u[at] = L + L * (G[0] * (_THREE_HALVES * (L - G[1]) - G[3] * V))
        w[live] += u
    return w


# accepted steps grouped by arc, each arc's in the order taken, with the
# seven dense-output coefficient rows F of every step; on a closed step
# (closed) F holds its tail (_tail_rows) instead; s1 is _Field.s_of(x1)
_Steps = namedtuple("_Steps", "arc x0 h y0 x1 y1 F closed s1")

# how a lane's stepping in one chart ended: at its bound, at step
# collapse, past the end of the chart, open at its last sample, where
# the lane goes on in the next chart, or at the step that gave a decision
# lane (_Join) its verdict
_FINISHED, _COLLAPSED, _SWITCHED, _DECIDED = range(4)

# one chart of one lane: its direction and chart, its start (x, y), how
# stepping ended (_FINISHED, _COLLAPSED, _SWITCHED or _DECIDED), attempts
# and accepted steps
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
    out = _ZERO
    for i in range(7):
        out = (out + F[6 - i]) * (u if i % 2 == 0 else _ONE - u)
    return out + y0


def _initial_step(field: _Field, x0, y0, f0, bound, direction, abs_tol, rtol):
    """scipy's select_initial_step for an order-7 error estimate, per lane."""
    span = np.abs(bound - x0)
    scale = abs_tol + np.abs(y0) * rtol
    d0, d1 = np.abs(y0) / scale, np.abs(f0) / scale
    flat0 = (d0 < _FLAT0) | (d1 < _FLAT0)
    h0 = np.minimum(np.where(flat0, _H_FLAT, _H0_FACTOR * d0 / np.where(flat0, _ONE, d1)), span)
    h0 = np.where(h0 > _ZERO, h0, _H_FLAT)    # only lanes already at the bound
    y1 = y0 + h0 * direction * f0
    f1 = field(x0 + h0 * direction, y1)
    d2 = np.abs(f1 - f0) / scale / h0
    dmax = np.maximum(d1, d2)
    flat1 = (d1 <= _FLAT1) & (d2 <= _FLAT1)
    h1 = np.where(flat1, np.maximum(_H_FLAT, h0 * _H_SHRINK),
                  _libm(math.pow, _H0_FACTOR / np.where(flat1, _ONE, dmax), -_EXPONENT))
    return np.minimum(np.minimum(np.minimum(_H_GROW * h0, h1), span), _MAX_STEP)


def _stages(field: _Field, heads, cols, at, y, h):
    """The DOP853 stages of one step into cols (cols[0] holds f(y)), with
    field.at() of the stage points at _C_AT: scipy's rk_step, each stage
    sum a vecdot on lane rows, the one dot product per lane that scipy
    makes, whatever the batch around it."""
    L, D, p = at
    for i in range(1, _NS + 1):
        y_i = y + (np.vecdot(heads[i], _A_ROWS[i]) * h if i < _NS else
                   h * np.vecdot(heads[_NS], _B))
        j = _STAGE_ROW[i]
        field.rate(None if L is None else L[j], None if D is None else D[j],
                   p[j] if field.any_p else None, y_i, cols[i])
    return y_i, cols[_NS]


class _Join(NamedTuple):
    """Decision lanes that join a lockstep loop (_advance), each stopped at
    the first step to which decide, their stop test, gives a verdict.  They
    start toward infinity at s, at the slopes rule(w) gives (an array),
    where w is the w at s of lane, a w-chart lane of the loop, as its
    Trajectory.w_at reads it there.  Where that is known before the loop
    (w is given: read off a reference, or off a formula past the start of
    the reference's lane), they start at the first iteration, and the
    loop needs no lanes of its own."""

    lane: int
    s: float
    rule: Callable
    decide: Callable
    w: Optional[float] = None


def _start_charts(params: FlowParams, s, w, log):
    """(x, y, in_p) of lanes that start at (s, w), toward zero where log: on
    the barrier where w lies within BARRIER_TOL of one, then in the w chart
    or, at or past the switch level (past it where |w| shrinks, where the p
    chart ends at the level), in the p chart at p = 1/w (+-0 from a pole,
    w = +-inf)."""
    s, w = np.array(s, dtype=float), np.array(w, dtype=float)
    if params.has_barriers:
        w = np.where(np.abs(np.abs(w) - 1.0) <= BARRIER_TOL, np.copysign(1.0, w), w)
    level = _switch_level(params, s, w)
    in_p = np.where(log != params.has_barriers, np.abs(w) >= level, np.abs(w) > level)
    x, log = s.copy(), np.broadcast_to(log, s.shape)
    x[log] = _libm(math.log, s[log])
    x[in_p], w[in_p] = 1.0 / w[in_p], s[in_p]
    return x, w, in_p


def _read_step(params: FlowParams, log: bool, step, k: int, x) -> float:
    """w at x on the w-chart step of lane k of a lockstep iteration,
    step = (arc, x0, h, y0, x1, y1, stages), as the lane's _dense_output
    reads it: the interpolant of _dense, by _interpolate."""
    x0, h, y0, _, y1, K = (a[k:k + 1] for a in step[1:])
    Kd = np.empty((1, _NS + 1 + len(_C_DENSE)))
    Kd[:, :_NS + 1] = K
    F = _dense(_Field(params, np.array([log]), np.zeros(1, dtype=bool)), x0, h, y0, y1, Kd)
    return float(_interpolate(F.T, x0, h, y0, np.array([x]))[0])


def _advance(params: FlowParams, x, y, log, in_p, cfg: IntegratorConfig,
             join: Optional[_Join] = None):
    """Step all lanes in lockstep until each one is done.

    Lane by lane this is scipy's RungeKutta._step_impl for DOP853: the
    initial step, error norm (in the p chart against abs_tol alone),
    SAFETY 0.9, factor clamp [0.2, 10], no growth right after a
    rejection, _MAX_STEP, and a minimum step of 10 ulp(x).  Each lane has
    its direction (log: toward zero) and chart (in_p), masks of one _Field
    over all lanes still stepping, and steps its x toward its bound
    (_Field.heading).  A lane stops at step collapse and at its bound,
    except in the p chart where |w| shrinks; in the p chart also where s
    leaves the span, and where |w| grows the bound is its pole, p = 0.
    Line crossings are located after the loop.  A step that ends at or
    past the end of a chart that another chart follows (the w chart
    where |w| grows, the p chart where it shrinks) ends its arc there,
    open, and the lane goes on from that step end in the other chart with
    a fresh initial step, as a new arc.  In a barrier pattern a lane
    settles once its accepted w-chart step ends within u* (_u_star:
    abs_tol^(1/3), or sqrt(abs_tol) where 2c is not whole) of a barrier
    sigma and the tail from there (_tail_rows) stays within u* of it up to
    the bound (_tail_peak); a step that ends at w = +-1.0 exactly, where
    the field is 0, is the case u1 = 0.  One closed step to the bound
    follows, written from the tail's formula, counted as one attempt and
    one accepted step, and finishes the arc.  After a step
    where a lane stops or switches, the stopped lanes are dropped and the
    field is rebuilt.

    join, if given, adds decision lanes (_Join), numbered after the lanes
    of x.  They wait on the w-chart steps of lane join.lane, for the
    accepted step whose segment holds x = log s (s where that lane runs
    toward infinity) by the rule of _dense_output: from its start up to
    but not including its end, in the lane's stepping order; or the closed
    step the lane settles in from an end at or before s.  w at s is read
    on that step's interpolant (_read_step) or tail, and at the next
    iteration the lanes start from (s, rule(w)) in their charts
    (_start_charts) with fresh initial steps, as a lane that switches
    chart does.  Where join.w is given they start at the first iteration,
    and x may be empty.  A lane that collapses before s starts none of
    them.

    join.decide, the stop test, is called as decide(field, ok, x0, y0, x1,
    y1) on every step of the decision lanes, the lanes of field, each step
    from (x0, y0) to (x1, y1) in its lane's stepping variable and chart,
    and returns a verdict per lane: 0 where the step decides nothing, and
    0 wherever ok, the mask of the steps it reads, is False.  It reads the
    accepted steps, and where a lane settles, its closed step as well,
    unless the step before it decided.  A decision lane ends, outcome
    _DECIDED, at the first step that gives it a verdict; a collapse before
    that still ends it as _COLLAPSED, and one that reaches its end
    undecided ends as it would without the test.  A decision lane keeps no
    steps.

    Returns (steps, verdicts, arcs): the steps (_Steps) of the lanes of x,
    None where x is empty; each lane's verdict, 0 on the lanes of x and on
    a decision lane that ended undecided; and the arcs (_Arc): lane k's
    first arc at index k, later arcs and the first arcs of the decision
    lanes after all first ones of x.
    """
    rtol = max(cfg.rel_tol, 100 * _EPS)
    arcs = list(map(_Arc, range(x.size), log.tolist(), in_p.tolist(), x.tolist(), y.tolist()))
    own = x.size
    arc, switch = np.arange(own), np.zeros(own, dtype=bool)
    # the decision lanes: those that join
    decides = np.zeros(own, dtype=bool)
    f, h_abs, grow_cap, rejects, start_it = (np.zeros(own) for _ in range(5))
    x_min = math.log(cfg.s_min_eps)
    # no lane's minimum step 10*ulp(x) can exceed this
    min_step_cap = 10.0 * 2.0 ** -52 * float(np.max(np.abs(np.append(x, (cfg.s_max, x_min)))))
    # the lanes to go on with after a step where lanes stopped or switched, else None
    # (a p-chart lane never starts at its bound)
    keep, records, tails, it = (np.flatnonzero(in_p | (x != np.where(log, x_min, cfg.s_max))),
                                [], [], 0)
    verdicts = np.zeros(own, dtype=int)
    # the join: the position of the lane it waits on (None once it has
    # passed s or stopped), that lane's x at s, and w at s once read
    source = x_at = None
    joined = None if join is None else join.w
    if join is not None and joined is None:
        source = join.lane
        toward = -1.0 if log[source] else 1.0
        x_at = math.log(join.s) if log[source] else float(join.s)

    def read(ok, *ends):
        """The stop test on the steps of the decision lanes, 0 on the others."""
        if not mixed:
            return join.decide(field, ok, *ends)
        verdict = np.zeros(ok.size, dtype=int)
        verdict[deciding] = join.decide(deciders, ok[deciding], *(a[deciding] for a in ends))
        return verdict

    u_star = _u_star(params, cfg.abs_tol)
    # the config as the loop's operands (_f64)
    abs_tol, rtol, s_min, s_max, min_step_cap, ln_u_star, u_star = map(_f64, (
        cfg.abs_tol, rtol, cfg.s_min_eps, cfg.s_max, min_step_cap, math.log(u_star), u_star))
    while keep is None or keep.size or joined is not None:
        if keep is not None:
            if source is not None:
                source = int(np.searchsorted(keep, source)) if source in keep else None
            # copies: the last step's arrays are on record
            arc, x, y, f, h_abs, grow_cap, rejects, start_it, log, in_p, switch, decides = (
                a[keep] for a in (arc, x, y, f, h_abs, grow_cap, rejects, start_it, log, in_p,
                                  switch, decides))
            # lanes that start a chart: all at first, then the switched ones
            new = switch.nonzero()[0] if it else np.arange(arc.size)
            if it and new.size:
                x[new], y[new], in_p[new] = _switch(_Field(params, log[new], in_p[new]),
                                                    x[new], y[new])
                for k in new.tolist():
                    arcs.append(_Arc(arcs[arc[k]].lane, bool(log[k]), bool(in_p[k]),
                                     float(x[k]), float(y[k])))
                    arc[k] = len(arcs) - 1
            if joined is not None:
                w0 = np.asarray(join.rule(joined), dtype=float)
                x0, y0, p0 = _start_charts(params, np.full(w0.size, join.s), w0, False)
                lanes = np.arange(verdicts.size, verdicts.size + w0.size)
                verdicts = np.append(verdicts, np.zeros(w0.size, dtype=int))
                new = np.append(new, np.arange(arc.size, arc.size + w0.size))
                arc = np.append(arc, np.arange(len(arcs), len(arcs) + w0.size))
                arcs.extend(map(_Arc, lanes.tolist(), repeat(False), p0.tolist(), x0.tolist(),
                                y0.tolist()))
                x, y, in_p = np.append(x, x0), np.append(y, y0), np.append(in_p, p0)
                log, switch = (np.append(a, np.zeros(w0.size, dtype=bool)) for a in (log, switch))
                decides = np.append(decides, np.ones(w0.size, dtype=bool))
                f, h_abs, grow_cap, rejects, start_it = (
                    np.append(a, np.zeros(w0.size)) for a in (f, h_abs, grow_cap, rejects,
                                                              start_it))
                joined = None
            n_decide = np.count_nonzero(decides)
            mixed = 0 < n_decide < arc.size
            if mixed:    # decide reads its lanes alone
                deciding = decides.nonzero()[0]
                deciders = _Field(params, log[deciding], in_p[deciding])
            field = _Field(params, log, in_p)
            direction, bound = field.heading(x, cfg)
            dir_bound = direction * bound
            if new.size:    # the growth cap of a step is 10x, or 1x right after a rejection
                at = _Field(params, log[new], in_p[new])
                f[new] = at(x[new], y[new])
                h_abs[new] = _initial_step(at, x[new], y[new], f[new], bound[new],
                                           direction[new], abs_tol, rtol)
                grow_cap[new], rejects[new], start_it[new] = _MAX_FACTOR, 0, it
            capped, keep = True, None
            K = np.empty((arc.size, _NS + 1))
            cols, heads = [K[:, i] for i in range(_NS + 1)], [K[:, :i] for i in range(_NS + 1)]

        it += 1
        h_abs = np.minimum(h_abs, _MAX_STEP)
        stuck = None
        if np.count_nonzero(h_abs < min_step_cap):
            min_step = 10.0 * np.abs(np.nextafter(x, direction * np.inf) - x)
            stuck = (grow_cap < _MAX_FACTOR) & (h_abs < min_step)    # on a retry
            h_abs = np.maximum(h_abs, min_step)
        # the step end, cut at the bound (min or max: direction is +-1)
        x_new = direction * np.minimum(direction * (x + h_abs * direction), dir_bound)
        h = x_new - x
        h_abs = np.abs(h)

        cols[0][:] = f
        y_new, f_new = _stages(field, heads, cols, field.at(x + _C_AT * h), y, h)

        y_big = np.maximum(np.abs(y), np.abs(y_new))
        if field.any_p:
            # w = 1/p hangs on s - s(0), which is O(p^2 s), not on s: a
            # p-chart step holds the error of s to abs_tol alone
            y_big = np.where(field.in_p, _ZERO, y_big)
        err = np.vecdot(K[:, None, :], _E) / (abs_tol + y_big * rtol)[:, None]
        err *= err
        e5 = err[:, 0]
        denom = np.maximum(e5 + _E3_WEIGHT * err[:, 1], _TINY)   # 0 only when e5 is
        norm = h_abs * e5 / np.sqrt(denom)
        ok = norm < _ONE
        if stuck is not None:
            ok &= ~stuck
        grow = _growth(norm)
        # accepted steps grow at most to the cap, rejected ones shrink to 0.2x at most
        h_abs = h_abs * np.minimum(np.maximum(grow, _MIN_FACTOR), grow_cap)

        step = (arc, x, h, y, x_new, y_new, K.copy())
        whole = np.count_nonzero(ok) == ok.size
        if n_decide:
            verdict = read(ok, x, y, x_new, y_new)
        if n_decide < ok.size:
            if whole and not mixed:
                records.append(step)
            else:
                kept = ok & ~decides if mixed else ok
                records.append(tuple(a[kept] for a in step))
        if whole:
            x, y, f = x_new, y_new, step[-1][:, _NS]
            if capped:
                grow_cap, capped = np.full(arc.size, _MAX_FACTOR), False
        else:
            x, y, f = np.where(ok, x_new, x), np.where(ok, y_new, y), np.where(ok, f_new, f)
            grow_cap, capped = np.where(ok, _MAX_FACTOR, _ONE), True
            rejects += ~ok if stuck is None else ~ok & ~stuck

        done = ok & (x_new == bound)
        if field.any_p:
            # a p lane is done at its pole or where s leaves the span; where
            # |w| shrinks its bound lies past the switch
            done = np.where(field.in_p, done & field.grows | ok & np.where(
                log, y_new <= s_min, y_new >= s_max), done)
        ended = ok & field.ended(x_new, y_new)
        stop = done
        # a lane whose linearised tail stays within u* of its barrier settles
        settled = False
        if params.has_barriers:
            near = (np.abs(np.abs(y_new) - _ONE) < u_star).nonzero()[0]
            if near.size:
                near = near[(ok & ~stop & field.in_w)[near]]
            if near.size:
                s_end = np.where(log[near], s_min, s_max)
                tail = _tail_rows(params, field.s_of(x_new[near], near), y_new[near], s_end)
                closes = _tail_peak(tail.T) <= ln_u_star
                settled, near = np.zeros(ok.size, dtype=bool), near[closes]
                settled[near] = True
                stop = stop | settled
                if near.size:
                    tail, y_end = tail[closes], y_new.copy()
                    y_end[near] = _tail(tail.T, s_end[closes])
        if source is not None and ok[source] and not in_p[source]:
            # the join's segment: the step that ends past s, else the closed
            # step the lane settles in from a step end at or before s
            if toward * x_at < toward * x_new[source]:
                joined = _read_step(params, bool(log[source]), step, source, x_at)
            elif np.count_nonzero(settled) and settled[source]:
                row = int(np.searchsorted(near, source))
                joined = float(_tail(tail[row:row + 1].T, np.array([float(join.s)]))[0])
            source = None if joined is not None else source
        if n_decide:
            if np.count_nonzero(settled):
                # a settled lane's closed step is one more accepted step
                settled = settled & (verdict == 0)
                verdict = np.where(settled, read(settled, x_new, y_new, bound, y_end), verdict)
            decided = verdict != 0
            stop = stop | decided
        if stuck is not None:
            stop = stop | stuck
        # lanes switch where they ended and did not stop
        if not (np.count_nonzero(stop) or np.count_nonzero(ended)) and joined is None:
            continue
        switch = ended & ~stop
        # a settled lane ends in one closed step to its bound
        tries = it - start_it - (0 if stuck is None else stuck) + settled
        if n_decide < ok.size and np.count_nonzero(settled):
            kept = near[~decides[near]] if mixed else near
            if kept.size:
                rows = tail[~decides[near]] if mixed else tail
                tails.append((arc[kept], x_new[kept], (bound - x_new)[kept], y_new[kept],
                              bound[kept], y_end[kept], rows))
        outcome = np.where(done | settled, _FINISHED, np.where(switch, _SWITCHED, _COLLAPSED))
        if n_decide:
            outcome[decided] = _DECIDED
            for k in decided.nonzero()[0].tolist():
                verdicts[arcs[arc[k]].lane] = verdict[k]
        for k in (stop | switch).nonzero()[0].tolist():
            arcs[arc[k]] = arcs[arc[k]]._replace(outcome=int(outcome[k]), attempts=int(tries[k]),
                                                 accepted=int(tries[k] - rejects[k]))
        keep = (~stop).nonzero()[0]
    return _collect(params, arcs, records, tails) if own else None, verdicts, arcs


def _collect(params: FlowParams, arcs: List[_Arc], records: list, tails: list) -> _Steps:
    """Group the accepted steps by arc and build their dense output, for
    all stepped steps (records, with their stages) at once; closed steps
    (tails, with their rows F) come last in their arcs; s1 is taken here,
    once per batch."""
    if not records:
        records = [(np.zeros(0, dtype=int),) + (np.zeros(0),) * 5 + (np.zeros((0, _NS + 1)),)]
    parts = list(zip(*records))
    records.clear()    # the steps live on in parts, and only until copied
    arc, x0, h, y0, x1, y1 = (np.concatenate(a) for a in parts[:6])
    Kd = np.empty((arc.size, _NS + 1 + len(_C_DENSE)))
    np.concatenate(parts.pop(), out=Kd[:, :_NS + 1])
    del parts
    field = _arc_field(params, arcs, arc)
    F = _dense(field, x0, h, y0, y1, Kd)
    steps = [arc, x0, h, y0, x1, y1, F, np.zeros(arc.size, dtype=bool)]
    if tails:
        closed = list(map(np.concatenate, zip(*tails)))
        steps = [np.concatenate(a) for a in zip(steps, closed + [np.ones(closed[0].size, bool)])]
        field = _arc_field(params, arcs, steps[0])
    steps.append(field.s_of(steps[4]))
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
    at = np.flatnonzero((ga != _ZERO) & (gb != _ZERO) & ((ga > _ZERO) != (gb > _ZERO)))
    a, b, ga, gb = a[at], b[at], ga[at], gb[at]
    kept = np.zeros(at.size)    # +1: a kept last time, -1: b kept
    for _ in range(200):
        if not at.size:
            break
        mid = b - gb * (b - a) / (gb - ga)
        mid = np.where((mid - a) * (mid - b) < _ZERO, mid, _HALF * (a + b))
        root[at] = mid
        gm = g(root)[at]
        right = (gm > _ZERO) == (ga > _ZERO)    # the zero lies in [mid, b]
        gb = np.where(right & (kept == _MINUS_ONE), _HALF * gb, gb)
        ga = np.where(~right & (kept == _ONE), _HALF * ga, ga)
        a, b = np.where(right, mid, a), np.where(right, b, mid)
        ga, gb = np.where(right, gm, ga), np.where(right, gb, gm)
        kept = np.where(right, _MINUS_ONE, _ONE)
        go = (gm != _ZERO) & (np.abs(b - a) > _ILLINOIS_TOL * (_ONE + np.abs(mid)))
        at, a, b, ga, gb, kept = (v[go] for v in (at, a, b, ga, gb, kept))
    return root


def _step_events(field: _Field, steps: _Steps):
    """The line crossings met on steps: step index and the (w, s) of
    each, located on the step's interpolant, or its tail on a closed step
    (_illinois), each step's in the order met.  A step starts where the
    one before it in its arc ends."""
    g1 = field.events(steps.x1, steps.y1, steps.s1)
    g0, head = np.empty_like(g1), np.ones(g1.size, dtype=bool)
    g0[1:], head[1:] = g1[:-1], steps.arc[1:] != steps.arc[:-1]
    head = head.nonzero()[0]
    g0[head] = field.events(steps.x0[head], steps.y0[head], at=head)
    m = _straddles(g0, g1).nonzero()[0]
    if not m.size:
        return m, np.zeros(0), np.zeros(0)
    met = _Field(field.params, field.log[m], field.in_p[m])
    F, tail = steps.F[m].T, steps.closed[m]
    stepped = F[:, ~tail], steps.x0[m][~tail], steps.h[m][~tail], steps.y0[m][~tail]
    closed = np.count_nonzero(tail)

    def w(x):
        if not closed:
            return _interpolate(*stepped, x)
        y = np.empty(x.shape)
        y[~tail] = _interpolate(*stepped, x[~tail])
        y[tail] = _tail(F[:, tail], met.s_of(x[tail], tail))
        return y

    root = _illinois(lambda x: met.events(x, w(x)), steps.x0[m], steps.x1[m])
    y = w(root)
    order = np.lexsort((np.where(met.log, -root, root), m))
    return m[order], y[order], met.s_of(root[order], order)


def _extent(arc: _Arc, steps: _Steps, lo: int, hi: int, params: FlowParams,
            cfg: IntegratorConfig):
    """An arc's pole, and the one span of s where its steps say nothing.

    The pole is s(0) of a finished p-chart arc whose last step ends at
    p = 0 with s in the span, else None.  The span is (edge, below, why):
    s below edge (below) or above it, and the reason; None where the arc
    reads at every s.  A w-chart arc toward zero, stepped in log s,
    refuses s <= 0, and an arc that blew up toward zero s below its pole.
    A finished arc toward infinity refuses s past its far end, its pole or
    else s_max, unless it settled: its last step is closed, or it took no
    step and starts on a barrier, w0 = +-1.0, which it reads past its end
    as a closed step reads its tail.  Past a pole or a far end a rounding
    sliver of 1e-12 relative still reads."""
    pole = None
    if arc.in_p and arc.outcome == _FINISHED and steps.x1[hi - 1] == 0.0:
        s = float(steps.y1[hi - 1])
        pole = s if (s >= cfg.s_min_eps if arc.log else s <= cfg.s_max) else None
    if arc.log and not arc.in_p:    # s below the least positive float is s <= 0
        return None, (math.ulp(0.0), True, "s must be positive on an arc integrated toward zero")
    if arc.log:
        return pole, None if pole is None else (
            pole - 1e-12 * abs(pole), True,
            f"s lies below the pole {pole} of an arc that blew up toward zero")
    if arc.outcome != _FINISHED or (steps.closed[hi - 1] if hi > lo else
                                    params.has_barriers and abs(arc.y0) == 1.0):
        return pole, None
    end = float(cfg.s_max) if pole is None else pole
    return pole, (end + 1e-12 * abs(end), False,
                  f"s lies past the far end {end} of an arc that did not settle")


def _dense_output(arc: _Arc, steps: _Steps, lo: int, hi: int, starts, refused) -> Callable:
    """w(s) of one arc from its step interpolants, picking the segment of
    a point as scipy's OdeSolution does (the step that starts there; starts
    holds where each step of the batch starts, in x or in p, signed to
    increase along its arc).  A closed step reads its tail, which holds
    past its end too.  In the p chart a step's s(p) is monotone, and
    _illinois inverts it.  An arc with no step reads its start.  Before
    all that, a query in the arc's refused span (refused, from _extent)
    raises a ValueError that names it.  It holds copies of its own steps,
    so that no result keeps the steps of its whole batch alive."""
    F, x0, h, y0, closed, starts = (a[lo:hi].copy() for a in (
        steps.F, steps.x0, steps.h, steps.y0, steps.closed, starts))
    last, sign = hi - lo - 1, -1.0 if arc.log else 1.0
    edge, below, why = refused or (None, None, None)

    def dense(q):
        q = np.asarray(q, dtype=float)
        if refused:
            past = q < edge if below else q > edge
            if past.any():
                raise ValueError(f"w_at({float(q[past][0])!r}): {why}")
        if last < 0:
            return _scalar_or_array(np.full(q.shape, arc.y0))
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
               pole: Optional[float], cfg: IntegratorConfig):
    """The samples (p, s) of a p-chart arc, in place, and its BLOW_UP end
    if it has one.  A finished arc ends at its pole (_extent) where |w|
    grows, unless s left the span before: then its last sample moves back
    to the span end, read from its dense output.  A pole end, p = 0, is
    sampled at |p| = _P_END on its step's interpolant (at the step's other
    end where that is nearer)."""
    def sample(k, i, p):
        xs[k], ys[k] = p, _interpolate(steps.F[i], steps.x0[i], steps.h[i], steps.y0[i], p)

    if xs[0] == 0.0:    # leaving a pole
        sample(0, lo, math.copysign(min(_P_END, abs(steps.x1[lo])), xs[0]))
    if pole is not None:
        sample(-1, hi - 1, math.copysign(min(_P_END, abs(steps.x0[hi - 1])), arc.x0))
        return Termination(TerminationKind.BLOW_UP, s=pole, sign=int(np.sign(arc.x0)))
    if arc.outcome == _FINISHED:
        s_end = cfg.s_min_eps if arc.log else cfg.s_max
        xs[-1], ys[-1] = 1.0 / dense(s_end), s_end
    return None


def _arcs(params: FlowParams, steps: _Steps, arcs: List[_Arc], s0: List[float],
          group: Sequence[int], cfg: IntegratorConfig) -> List[Result]:
    """One result per group of lanes, built in one pass over all arcs: a
    Trajectory through the arcs of its lanes in increasing s, or the
    RuntimeError of a step collapse in any of them.  Lane k starts at s0[k]
    and belongs to group[k]; the lanes of a group are consecutive, a lane
    toward zero (its arcs reversed) before one toward infinity.

    An arc ends at its bound (toward zero at exactly s_min_eps, not at
    exp(log s_min_eps)), at its pole (_extent), or open at its last
    sample, where its lane switched chart.  A w-chart arc starts at
    exactly the s its lane starts it at (s0 of its lane, or the last
    sample of the arc before), not at exp(log s).  The arcs join as
    merge_bidirectional joins them: each arc's samples with occasional
    duplicate nodes collapsed and, but for the lowest arc, without its
    first sample, the join; one _piecewise evaluator of the arcs' dense
    outputs; the events of all arcs in order of s; the counters summed.
    """
    lane, log, in_p, x0, y0, outcome, attempts, accepted = map(np.array, zip(*arcs))
    step_log, step_p = log[steps.arc], in_p[steps.arc]
    m, ev_y, ev_s = _step_events(_Field(params, step_log, step_p), steps)
    step_of_arc = np.searchsorted(steps.arc, np.arange(len(arcs) + 1))
    lo, hi = step_of_arc[:-1], step_of_arc[1:]
    # the samples of all arcs, each arc's start and then its step ends, at
    # [b[k], e[k]), and their s in the w chart (an arc's start s is set below)
    b = lo + np.arange(len(arcs))
    e = hi + np.arange(1, len(arcs) + 1)
    X, Y, S = np.empty(e[-1]), np.empty(e[-1]), np.empty(e[-1])
    step_end = np.ones(e[-1], dtype=bool)
    X[b], Y[b], S[b], step_end[b] = x0, y0, x0, False
    X[step_end], Y[step_end], S[step_end] = steps.x1, steps.y1, steps.s1

    # the arcs of each live group in increasing s: by lane, then in stepping
    # order toward infinity and against it toward zero
    group = np.asarray(group)
    # the lanes of the groups: those that join a loop come after them
    own = lane < group.size
    dead = np.zeros(group[-1] + 1, dtype=bool)
    dead[group[lane[(outcome == _COLLAPSED) & own]]] = True
    out: List[Optional[Result]] = [_collapse() if d else None for d in dead.tolist()]
    index = np.arange(len(arcs))
    P = np.lexsort((np.where(log, -index, index), lane))
    P = P[own[P]]
    P = P[~dead[group[lane[P]]]]
    if not P.size:
        return out
    piece_of = np.full(len(arcs), -1)
    piece_of[P] = np.arange(P.size)
    g_of = group[lane[P]]
    first = np.concatenate(([0], np.flatnonzero(g_of[1:] != g_of[:-1]) + 1, [P.size]))

    # where a point's segment starts, increasing along each arc
    starts = np.where(step_log, -1.0, 1.0) * np.where(step_p, steps.y0, steps.x0)
    dense, far = [], []
    for k, l0, l1, b0, e0 in zip(P.tolist(), lo[P].tolist(), hi[P].tolist(), b[P].tolist(),
                                 e[P].tolist()):
        arc = arcs[k]
        pole, refused = _extent(arc, steps, l0, l1, params, cfg)
        dense.append(_dense_output(arc, steps, l0, l1, starts, refused))
        far.append(_p_samples(arc, steps, l0, l1, X[b0:e0], Y[b0:e0], dense[-1], pole, cfg)
                   if arc.in_p else None)

    # the samples of all pieces in increasing s: s, and w = 1/p in the p chart
    n = e[P] - b[P]
    off, rev, p_chart = np.cumsum(n) - n, log[P], in_p[P]
    j = np.arange(off[-1] + n[-1]) - np.repeat(off, n)
    at = np.where(np.repeat(rev, n), np.repeat(e[P] - 1, n) - j, np.repeat(b[P], n) + j)
    xs, w = X[at], Y[at]
    p_at = np.repeat(p_chart, n)
    s = np.where(p_at, w, S[at])
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
    # collapse occasional duplicate nodes within an arc; drop each join's second copy
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.greater(s[1:], s[:-1], out=keep[1:])
    keep[off] = False
    keep[off[first[:-1]]] = True
    kept = np.concatenate(([0], np.cumsum(keep)))
    s, w = s[keep], w[keep]
    joins = s[kept[off + n] - 1]

    # events: each group's in order of s, ties in the order of its arcs
    records, event_of_group = [], [0] * first.size
    ev = np.flatnonzero(piece_of[steps.arc[m]] >= 0)
    if ev.size:
        ev_piece, ev_s = piece_of[steps.arc[m[ev]]], ev_s[ev]
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


def _collapse() -> RuntimeError:
    """The error of a lane that failed by step collapse."""
    return RuntimeError("integrator failed before any terminal event: Required step size "
                        "is less than spacing between numbers.")


def _integrate_lanes(params: FlowParams, starts: Sequence,
                     directions: Sequence[Tuple[str, ...]], cfg: IntegratorConfig,
                     join: Optional[_Join] = None) -> List[Union[Result, int]]:
    """integrate() of each start in each of its directions (a tuple in the
    order of DIRECTIONS), all lanes in one lockstep run: per start one
    Trajectory over all its lanes and their arcs (_arcs), as
    merge_bidirectional would join them, or the first exception
    integrate() would raise for one of its directions.  Each lane starts
    in its chart (_start_charts).  The decision lanes of a join (see
    _advance), where given, share the run; join.lane numbers the starts'
    lanes in order of starts and directions, and each decision lane's
    verdict (0 where it ended undecided), or the RuntimeError of its step
    collapse, follows the starts' results.  Where join.w is given there
    may be no starts."""
    out: List[Optional[Result]] = [None] * len(starts)
    lanes, slots = [], []
    for i, (init, sides) in enumerate(zip(starts, directions)):
        try:
            checked = [(_checked_start(params, init, d, cfg), d == DIRECTIONS[0]) for d in sides]
        except ValueError as exc:
            out[i] = exc
            continue
        lanes.extend((len(slots), s, w, log) for (s, w), log in checked)
        slots.append(i)
    if not lanes and (join is None or join.w is None):
        return out
    group, s, w, log = np.array(lanes, dtype=float).reshape(-1, 4).T
    group, log = group.astype(int), log.astype(bool)
    x, y, in_p = _start_charts(params, s, w, log)
    steps, verdicts, arcs = _advance(params, x, y, log, in_p, cfg, join)
    if lanes:
        for i, res in zip(slots, _arcs(params, steps, arcs, s.tolist(), group, cfg)):
            out[i] = res
    collapsed = {a.lane for a in arcs if a.outcome == _COLLAPSED}
    return out + [_collapse() if k in collapsed else v
                  for k, v in enumerate(verdicts[s.size:].tolist(), s.size)]


def _first(results: List[Result]):
    """The result of a batch of one, raising it if it is a lane error."""
    (res,) = results
    if isinstance(res, Exception):
        raise res
    return res


def integrate_batch(params: FlowParams,
                    starts: Sequence[PhaseState | Tuple[float, float]],
                    direction: str, cfg: IntegratorConfig = IntegratorConfig()
                    ) -> List[Result]:
    """Integrate the phase equation one-sidedly from every start at once.

    Returns one entry per start, in order: what integrate() returns for
    it, or the exception integrate() would raise for it (ValueError for a
    bad start, RuntimeError for a step collapse).  A lane
    gets the same samples, events and termination bit for bit whatever
    other lanes share its batch.  A bad direction raises at once.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return _integrate_lanes(params, starts, [(direction,)] * len(starts), cfg)


def integrate(params: FlowParams, init: PhaseState | Tuple[float, float],
              direction: str, cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the phase equation one-sidedly from init.

    direction is "toward_zero" or "toward_infinity".  Toward zero the
    equation is integrated in t = log s.  The returned Trajectory is
    ordered by increasing s, carries dense output over its span, the
    located events, its solver counters (summed over both charts of a
    lane that blew up), and a Termination at the far end (the near end
    stays None).  A slope of +-inf starts at a pole, in the direction
    where |w| shrinks.  A batch of one of integrate_batch().
    """
    return _first(integrate_batch(params, [init], direction, cfg))


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


class _Lane(NamedTuple):
    """A reference trajectory as one ordinary lane: the equation and
    config it runs under, where and which way it runs, and assemble,
    which makes the reference from that lane's Trajectory.  A caller may
    run the lane among others (_integrate_lanes); the lane's bits do not
    depend on its batch.  far, where given, is the reference's closed
    formula from the lane's start on, against its direction, where the
    reference reads no step of its lane."""

    params: FlowParams
    start: PhaseState
    direction: str
    cfg: IntegratorConfig
    assemble: Callable[[Trajectory], Trajectory]
    far: Optional[Callable] = None

    def run(self) -> Trajectory:
        """The reference from a run of the lane alone."""
        return self.assemble(integrate(self.params, self.start, self.direction, self.cfg))


# a center-regular lane's series order, and its farthest handoff
_SERIES_ORDER, _HANDOFF = 12, 0.5


def _omitted(params: FlowParams, order: int) -> Tuple[np.ndarray, float, int]:
    """The center series to `order`, and |a_k| and k of its first omitted
    term |a_k| s^k, the estimate of its truncation error."""
    a = bowl_series_coeffs(params, order + 2)
    k = order + 1 + order % 2
    return a[:order + 1], abs(float(a[k])), k


def _series_lane(params: FlowParams, cfg: IntegratorConfig) -> _Lane:
    """The center-regular trajectory of any sign pattern: its center series
    to order _SERIES_ORDER up to the handoff (48 geometric nodes from
    cfg.s_min_eps on), then forward integration.  The handoff is
    min(_HANDOFF, s_max/2), moved in to where the first omitted term meets
    abs_tol if it exceeds it there (0.5 for every c >= 1 and the default
    abs_tol).  The patterns (et, ep) and (-et, -ep) give mirror lanes, bit
    for bit."""
    a, next_term, k = _omitted(params, _SERIES_ORDER)
    s_h = min(_HANDOFF, cfg.s_max / 2)
    if next_term * s_h ** k > cfg.abs_tol:
        s_h = (cfg.abs_tol / next_term) ** (1.0 / k)
    if not cfg.s_min_eps < s_h:
        raise ValueError(f"s_min_eps = {cfg.s_min_eps} must lie below the center "
                         f"series handoff at s = {s_h}")

    def assemble(tail: Trajectory) -> Trajectory:
        s_head = _libm(math.exp, np.linspace(math.log(cfg.s_min_eps), math.log(s_h), 49))
        s_head[[0, -1]] = cfg.s_min_eps, s_h
        w_head = eval_series(a, s_head)
        left = Termination(TerminationKind.DOMAIN_BOUNDARY_ZERO, s=float(s_head[0]),
                           value=float(w_head[0]))
        head = Trajectory(params, s_head, w_head, termination_left=left,
                          dense=partial(eval_series, a))
        return merge_bidirectional(head, tail)
    start = PhaseState(s_h, float(eval_series(a, s_h)))
    return _Lane(params, start, "toward_infinity", cfg, assemble)


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
    a, next_term, k = _omitted(params, order)
    if next_term * s_start ** k > abs_tol:
        raise ValueError(
            f"series truncation {next_term * s_start ** k:.3e} at "
            f"s = {s_start} exceeds {abs_tol:.1e}; lower s_start or raise order")
    return PhaseState(s_start, float(eval_series(a, s_start)))


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


# orders of the far-field series and of the diagonal Padé approximant that
# resums it from coefficients b_0..b_(2*_PADE)
_FAR_ORDER, _PADE = 30, 18
# the trace's start is the first of this many nodes, evenly spaced over
# (0, s_far], from which the approximant passes the start rule (_far_field)
_START_NODES = 400


class _FarFormula(NamedTuple):
    """The separatrix beyond the trace's start as one closed formula,
    w(s) = s * P(t) / Q(t) in t = scale / s^2: the diagonal Padé
    approximant of the far-field series (Baker & Graves-Morris, Padé
    Approximants, 2nd ed. 1996), or the truncated series itself, Q = 1.
    p and q are ascending coefficients in t."""

    p: np.ndarray
    q: np.ndarray
    scale: float

    def _at(self, s):
        t = self.scale / (s * s)
        return t, eval_series(self.p, t), eval_series(self.q, t)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        _, P, Q = self._at(s)
        return _scalar_or_array(s * (P / Q))

    def defect(self, c: float, s: np.ndarray) -> np.ndarray:
        """|w' - f(s, w)| / |w'| of the formula at s > 0, in closed form:
        w' = r - 2t r_t with r = P/Q, and f = (1 - w^2)(1 - c*w/s) on the
        strip form, where 1 - c*w/s = (Q - c*P)/Q is taken from that
        polynomial with its constant term 1 - c*b_0 = 0 dropped, so the
        defect is not lost to cancellation as s grows."""
        t, P, Q = self._at(s)
        dP = eval_series(np.polynomial.polynomial.polyder(self.p), t)
        dQ = eval_series(np.polynomial.polynomial.polyder(self.q), t)
        gap = np.polynomial.polynomial.polysub(self.q, c * self.p)
        gap[0] = 0.0
        r = P / Q
        slope = r - 2.0 * t * (dP * Q - P * dQ) / (Q * Q)
        w = s * r
        rhs = (1.0 - w * w) * (eval_series(gap, t) / Q)
        return np.abs(slope - rhs) / np.abs(slope)


def _pade(a: np.ndarray, scale: float) -> _FarFormula:
    """The [_PADE/_PADE] approximant of sum a_k t^k, from a[0..2*_PADE]:
    Q = 1 + q_1 t + ... makes Q * sum a_k t^k - P vanish through t^(2*_PADE),
    a Toeplitz system for q_1..q_M, and P is the product's head."""
    m = _PADE
    k = np.arange(m + 1, 2 * m + 1)
    q = np.append(1.0, np.linalg.solve(a[k[:, None] - np.arange(1, m + 1)], -a[k]))
    return _FarFormula(np.convolve(a[:m + 1], q)[:m + 1], q, scale)


def _far_field(params: FlowParams, abs_tol: float) -> Tuple[PhaseState, _FarFormula]:
    """Start of the backward separatrix trace, and the closed formula the
    trace joins beyond it.

    The far-field series truncated after a_K leaves a defect of about
    |a_{K+1}| s^(-2K) times the slope scale 1/c in the phase equation.
    s_far is where the first two omitted terms of the order-_FAR_ORDER
    series, read as that defect, sum to abs_tol (one fixed-point step from
    the one-term root, which lands just beyond the two-term one); below it
    the omitted terms grow like (s_far/s)^(2K+1).

    The diagonal Padé approximant of the same series, through b_(2*_PADE),
    stays accurate much nearer the origin.  It is built in float64 in
    t = scale/s^2, with scale = max_k |b_k|^(1/k), which brings every
    coefficient to at most 1 in size.  Its start is chosen a posteriori:
    the smallest node s of _START_NODES evenly over (0, s_far] from which
    on, up to s_far, its closed-form defect (_FarFormula.defect) is within
    abs_tol relative (a NaN fails), and beyond the s = sqrt(scale/t) of
    every real zero t > 0 of its denominator (a zero within sqrt(eps)
    relative of the axis counts as real: rounding splits a double zero by
    about that much).  Beyond s_far it agrees with the series to far below
    abs_tol.  Where the rule finds no node below s_far (as where a real
    pole lies past it), the trace starts at s_far on the order-_FAR_ORDER
    series, written as the formula with Q = 1.  For rotational(n), n = 2..5,
    the start is about 3.1, 4.3, 4.9 and 5.7, against s_far 8.3, 11.2, 13.1
    and 14.9.  Either way the start does not depend on the span.
    """
    c = params.fiber_coeff
    b = separatrix_series_coeffs(params, 2 * _PADE)
    first, second = abs(b[_FAR_ORDER + 1]), abs(b[_FAR_ORDER + 2])
    s_far = (first / abs_tol) ** (0.5 / _FAR_ORDER)
    s_far = ((first + second / (s_far * s_far)) / abs_tol) ** (0.5 / _FAR_ORDER)
    # libm's pow, as in _libm: numpy's SIMD power would move the formula's bits
    scale = max(abs(x) ** (1.0 / k) for k, x in enumerate(b.tolist()) if k)
    a = np.array([x / scale ** k for k, x in enumerate(b.tolist())])
    start, formula = s_far, _FarFormula(a[:_FAR_ORDER + 1], np.ones(1), scale)
    s = s_far * np.arange(1, _START_NODES + 1) / _START_NODES
    pade = _pade(a, scale)
    poles = np.roots(pade.q[::-1])
    real = poles[(np.abs(poles.imag) <= math.sqrt(_EPS) * np.abs(poles)) & (poles.real > 0)]
    # the nodes where the approximant fails, and those at or below a real pole
    bad = (~(pade.defect(c, s) <= abs_tol)
           | (s * s <= scale / np.min(real.real, initial=math.inf)))
    j = _START_NODES - int(np.argmax(bad[::-1])) if bad.any() else 0
    if j < _START_NODES - 1:
        start, formula = float(s[j]), pade
    return PhaseState(float(start), float(formula(start))), formula


def separatrix_start(params: FlowParams, abs_tol: float = 1e-12) -> PhaseState:
    """Start on the separatrix of the backward trace: the nearest s from
    which its far-field formula, the diagonal Padé approximant of the
    far-field series, satisfies the phase equation to abs_tol relative
    (see _far_field), and the formula's value there.  For rotational(n),
    n = 2..5, s is about 3.1, 4.3, 4.9 and 5.7; where the approximant gains
    nothing it is s_far, where the order-30 series is trusted.
    """
    return _far_field(params, abs_tol)[0]


def _far_lane(params: FlowParams, cfg: IntegratorConfig) -> _Lane:
    """The separatrix over [s_min_eps, s_max]: backward integration from
    its far-field formula's start (_far_field), joined where the start lies
    below s_max to the formula itself, with samples at most _MAX_STEP
    apart, and cut at s_max: the samples below s_max, a last one read from
    the dense output there, and the events up to s_max.

    Nearby solutions contract onto the separatrix at rate s/c going
    backward, which makes that integration stiff for an explicit stepper
    at large s; starting it where the formula is trusted keeps its cost
    independent of s_max.
    """
    start, formula = _far_field(params, cfg.abs_tol)

    def assemble(traj: Trajectory) -> Trajectory:
        if start.s < cfg.s_max:
            nodes = max(1, math.ceil((cfg.s_max - start.s) / _MAX_STEP))
            s_tail = np.linspace(start.s, cfg.s_max, nodes + 1)
            traj = merge_bidirectional(traj, Trajectory(params, s_tail, formula(s_tail),
                                                        dense=formula))
        k, w_end = np.searchsorted(traj.s, cfg.s_max), float(traj.w_at(cfg.s_max))
        end = Termination(TerminationKind.REACHED_S_MAX, s=float(cfg.s_max), value=w_end)
        return replace(traj, s=np.append(traj.s[:k], cfg.s_max),
                       w=np.append(traj.w[:k], w_end), termination_right=end,
                       events=[e for e in traj.events if e.s <= cfg.s_max])
    return _Lane(params, start, "toward_zero", cfg, assemble, formula)


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
