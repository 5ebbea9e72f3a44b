"""Profile curves and glued fields built from phase-plane solutions.

Three kinds of geometric output:

* graph profiles f(s): quadrature of a slope trajectory, with dense
  evaluators (cubic Hermite between fine samples, and the integrated
  Taylor series inside the handoff of a center-regular lane);
* wing profiles alpha(y): an apex (alpha' = 0) is a pole of the graph
  slope w = f'(s), so each arm is a graph solution leaving that pole,
  integrated by the engine; alpha(y) is the inverse of its height, and
  the arms are also the monotone branches f(s); spindles are wings whose
  both ends reach the rotation axis with lightlike slope;
* the hybrid field u(x, y) = f1(sqrt(x^2-y^2)) / f2(sqrt(y^2-x^2)) on a
  Lorentzian plane, glued across the lightcone x = +-y from the two
  center-regular profiles of the boost reduction.  Because both pieces
  are even with matched Taylor data, u = q(x^2 - y^2) for one analytic q
  and the gluing is smooth; a sign flip on f2 breaks exactly that.

The timelike boost family with |slope| < 1 mirrors the spacelike strip
classification under q = -f; timelike_family_from_strip builds its
members from the canonical strip solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import (
    FlowParams,
    Trajectory,
    _scalar_or_array,
    boost,
    rhs_wing,
)
from .classify import (
    SolutionClassTag,
    _separatrix_trace,
    compute_bowl,
    integrate_bidirectional,
)
from .engine import (
    DIRECTIONS,
    IntegratorConfig,
    _SERIES_ORDER,
    _piecewise,
    _series_lane,
    bowl_series_coeffs,
    detect_blowup,
    eval_series,
    integrate_batch,
    integrate_series,
)
from .verify import GridField, _row_blocks


@dataclass
class ProfileCurve:
    """A sampled profile in graph form (s, f, w = f') or wing form (y, alpha, alpha').

    Graph curves may carry dense evaluators f_dense/w_dense valid on the
    sampled span (and down to s = 0 for series-anchored curves).
    truncated marks graphs clipped by a slope blow-up; contact marks wing
    ends that reached the axis floor, with the lightlike touch location
    extrapolated in contact_y.
    """

    kind: str
    params: FlowParams
    s: Optional[np.ndarray] = None
    f: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    alpha: Optional[np.ndarray] = None
    alpha_prime: Optional[np.ndarray] = None
    f0: float = 0.0
    truncated: bool = False
    apex: Optional[Tuple[float, float]] = None
    contact: Tuple[bool, bool] = (False, False)
    contact_y: Tuple[Optional[float], Optional[float]] = (None, None)
    arm_stop: Tuple[str, str] = ("span", "span")
    f_dense: Optional[Callable] = None
    w_dense: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.kind not in ("graph", "wing"):
            raise ValueError(f"kind must be 'graph' or 'wing', got {self.kind!r}")
        if self.kind == "graph" and (self.s is None or self.f is None or self.w is None):
            raise ValueError("graph curves need s, f and w sample arrays")
        if self.kind == "wing" and (self.y is None or self.alpha is None
                                    or self.alpha_prime is None):
            raise ValueError("wing curves need y, alpha and alpha_prime arrays")


def _evaluator(fn: Callable, sign: float = 1.0,
               hi: Optional[float] = None) -> Callable:
    """sign * fn, returning floats for scalar input; given hi, points
    outside [0, hi] are refused, but for a rounding sliver above hi that
    is read at hi."""
    def evaluate(q):
        q = np.asarray(q, dtype=float)
        if hi is not None:
            if np.any(q < 0.0) or np.any(q > hi * (1 + 1e-12)):
                raise ValueError(f"profile evaluator domain is [0, {hi}]")
            q = np.minimum(q, hi)
        return _scalar_or_array(sign * np.asarray(fn(q), dtype=float))
    return evaluate


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy's cumulative_simpson(y, x=x, initial=0.0), bit for bit.

    Each interval's integral is the three-point Simpson formula for
    unequal spacing: forward from its left neighbour pair on even
    intervals, backward (the same formula on the reversed arrays) on odd
    ones and on the last.  The running sum starts at 0.
    """
    def forward(f, d):
        x21, x32 = d[:-1], d[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * f[:-2]
                          + (3 + x21x21_x31x32 + x21_x31) * f[1:-1]
                          + -x21x21_x31x32 * f[2:])

    dx = np.diff(x)
    backward = forward(y[::-1], dx[::-1])[::-1]
    parts = np.empty(len(y))
    parts[0] = 0.0
    parts[1:-1:2] = forward(y, dx)[::2]
    parts[2::2] = backward[::2]
    parts[-1] = backward[-1]
    return np.cumsum(parts)


def _knot_index(x: np.ndarray, uniform: bool) -> Callable:
    """The interval of each query on knots x: the last knot at or below it,
    clipped to 0 .. len(x) - 2, as np.searchsorted(x, q, "right") - 1
    gives it (NaN goes past the end).

    uniform says x is np.linspace(x[0], x[-1], len(x)).  There the interval
    is floor((q - x[0])/h), clipped, and one exact comparison with each of
    its two knots corrects a rounding off by one; the work is in place
    over one float array and integer arrays.  Knots closer than 1e4
    doubles apart, where the quotient could be off by more, are searched.
    """
    last = len(x) - 2
    lo, step = x[0], (x[-1] - x[0]) / (last + 1)
    if not (uniform and step > 1e4 * np.spacing(max(abs(x[0]), abs(x[-1])))):
        return lambda q: np.clip(np.searchsorted(x, q, "right") - 1, 0, last)

    def index(q):
        t = np.subtract(q, lo, out=np.empty(q.shape))
        with np.errstate(over="ignore"):    # far points go to +-inf, then clipped
            t /= step
        np.fmin(t, last, out=t)    # NaN and points past hi: the last interval
        np.fmax(t, 0, out=t)
        i = t.astype(np.intp)
        del t
        i -= (q < x[i]) & (i > 0)
        i += (q >= x[i + 1]) & (i < last)
        return i
    return index


def _hermite(x: np.ndarray, y: np.ndarray, dydx: np.ndarray,
             uniform: bool = False) -> Callable:
    """scipy's CubicHermiteSpline(x, y, dydx), bit for bit, extrapolating
    from the end intervals.

    The coefficients are the spline's PPoly ones (ck multiplies the k-th
    power of the offset from the interval's left node), held in a copy;
    a point is evaluated on the interval whose left node is the last one
    at or below it, in the term order of PPoly's evaluation.  uniform
    marks knots built by np.linspace, whose intervals are computed rather
    than searched (_knot_index).
    """
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(dydx))):
        raise ValueError("Hermite data must be finite")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = np.stack((y[:-1], dydx[:-1], (slope - dydx[:-1]) / dx - t,
                               t / dx))
    interval = _knot_index(x, uniform)

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        i = interval(q)
        d = q - x[i]
        d2 = d * d
        return c0[i] + c1[i] * d + c2[i] * d2 + c3[i] * (d2 * d)
    return evaluate


def _profile(traj: Trajectory, lo: float, hi: float, samples: int,
             f0: float = 0.0, series: Optional[np.ndarray] = None) -> ProfileCurve:
    """The height profile of a slope trajectory; every graph builder ends here.

    f is the cumulative Simpson integral of traj.w_at over
    linspace(lo, hi, samples), anchored to f(lo) = f0, with a cubic
    Hermite interpolant between the nodes.  series, the center slope
    series of a center-regular traj handing off at lo, anchors f(0) = f0
    instead; below lo the height then comes from the integrated series,
    and both evaluators refuse points outside [0, hi].
    """
    s_grid = np.linspace(lo, hi, samples)
    w_grid = np.asarray(traj.w_at(s_grid), dtype=float)
    fc = None if series is None else integrate_series(series, f0)
    f_lo = f0 if fc is None else float(eval_series(fc, lo))
    f_grid = f_lo + _cumulative_simpson(w_grid, s_grid)
    spline = _hermite(s_grid, f_grid, w_grid, uniform=True)
    if fc is None:
        f_dense, w_dense = _evaluator(spline), traj.w_at
    else:
        f_dense = _evaluator(_piecewise((partial(eval_series, fc), spline), (lo,)), hi=hi)
        w_dense = _evaluator(traj.w_at, hi=hi)
    return ProfileCurve(kind="graph", params=traj.params, s=s_grid, f=f_grid,
                        w=w_grid, f0=f0, truncated=detect_blowup(traj) is not None,
                        f_dense=f_dense, w_dense=w_dense)


# resampling nodes of a graph profile (build_graph, the wing and its
# branches), of the bowl, which seeds finite-difference fields, and of a
# center-regular profile
_GRAPH_SAMPLES, _BOWL_SAMPLES, _CENTER_SAMPLES = 4001, 20001, 6001


def build_graph(trajectory: Trajectory, f0: float = 0.0) -> ProfileCurve:
    """Integrate a slope trajectory into a height profile f(s).

    f is the cumulative Simpson integral of the dense slope over a fine
    uniform resampling, anchored to f(left end) = f0, with a cubic
    Hermite interpolant for off-node evaluation.  Trajectories that ended
    in blow-up yield a curve flagged truncated (the graph is clipped at
    the last resolved sample before the pole).
    """
    s0, s1 = trajectory.s_span
    return _profile(trajectory, s0, s1, _GRAPH_SAMPLES, f0)


def _center_curve(params: FlowParams, cfg: IntegratorConfig, samples: int,
                  traj: Optional[Trajectory] = None) -> ProfileCurve:
    """The center-regular profile on [0, cfg.s_max] from its lane
    (engine._series_lane), the series below the lane's handoff; traj is
    the lane's run when the caller holds it already."""
    lane = _series_lane(params, cfg)
    return _profile(lane.run() if traj is None else traj, lane.start.s, cfg.s_max,
                    samples, series=bowl_series_coeffs(params, _SERIES_ORDER))


def bowl_curve(params: FlowParams, cfg: IntegratorConfig = IntegratorConfig()) -> ProfileCurve:
    """The bowl profile with evaluators valid on all of [0, s_max]: the
    center-regular profile (_center_curve) of the cached bowl trajectory.
    The sampling is dense enough that interpolation error stays near
    rounding, which matters when the curve seeds finite-difference fields.
    """
    return _center_curve(params, cfg, _BOWL_SAMPLES, traj=compute_bowl(params, cfg))


@dataclass
class WingResult:
    """A wing profile with its monotone branches inverted to graphs."""

    wing: ProfileCurve
    branches: Tuple[ProfileCurve, ...]


# an arm stops where its slope |alpha'| = 1/|w| reaches this, just short of
# a vertical tangent of alpha(y), past which y turns back
_STEEP = 1e6
# the branches of a wing leave out the nodes within this of its apex
_APEX_PAD = 1e-3
# a wing arm that reaches the axis stops at this height above it (contact)
_ALPHA_FLOOR = 1e-4


def _steep_end(traj: Trajectory, sigma: float, d: float) -> Optional[float]:
    """The first s from the apex on where sigma*w falls to 1/_STEEP,
    bisected on the dense output, or None where it does not."""
    s, w = (traj.s, traj.w) if d > 0 else (traj.s[::-1], traj.w[::-1])
    below = np.flatnonzero(sigma * w <= 1.0 / _STEEP)
    if not below.size:
        return None
    a, b = s[below[0] - 1], s[below[0]]
    while (mid := 0.5 * (a + b)) not in (a, b):
        a, b = (a, mid) if sigma * traj.w_at(mid) <= 1.0 / _STEEP else (mid, b)
    return float(b)


def _arm_nodes(traj: Trajectory, s0: float, d: float, sigma: float, t_end: float):
    """An arm at _GRAPH_SAMPLES nodes uniform in t = sqrt(|s - s0|) on
    [0, t_end]: t, s, w, u = |y| and du/dt.  With s = s0 + d*t^2,
    u = int 2t*|w| dt, whose integrand is smooth and is sqrt(2*s0/c) at
    the apex, the pole of w.  Nodes whose s rounds onto s0 (t = 0, and
    more on a short arm) take these apex limits."""
    t = np.linspace(0.0, t_end, _GRAPH_SAMPLES)
    s = s0 + d * t * t
    off = s != s0
    w = np.full(t.shape, sigma * math.inf)
    du = np.full(t.shape, math.sqrt(2.0 * s0 / traj.params.fiber_coeff))
    w[off] = traj.w_at(s[off])
    du[off] = 2.0 * sigma * t[off] * w[off]
    return t, s, w, _cumulative_simpson(du, t), du


def _wing_arms(params: FlowParams, s0: float, cfg: IntegratorConfig, span: float):
    """The arm where y falls and the one where it rises, each as its
    trajectory, _arm_nodes up to its stop, and the stop.

    Each arm is the graph solution w(s) leaving the pole at s0 in the
    direction d where |w| shrinks (the two as one batch), so alpha = s
    falls from a maximum apex (et*ep = -1) and rises from a minimum.  It
    stops at the axis floor _ALPHA_FLOOR (contact), at the ceiling s_max,
    at |alpha'| = _STEEP (steep) or at |y| = span, whichever comes first.
    As |y| >= |s - s0| while |w| >= 1, the arms run to |s - s0| = span
    first, and further only where that falls short.
    """
    d = -1.0 if params.has_barriers else 1.0
    direction = DIRECTIONS[0] if d < 0 else DIRECTIONS[1]
    # w near 0 at a steep end needs a finer absolute tolerance, and the
    # height of a steep arm a finer relative one
    tight = replace(cfg, abs_tol=cfg.abs_tol * 1e-4, rel_tol=cfg.rel_tol * 0.1,
                    s_min_eps=_ALPHA_FLOOR)
    arms = {}
    for reach in (span, math.inf):
        todo = [sigma for sigma in (-d, d) if sigma not in arms]
        if not todo:
            break
        if d < 0:
            run = replace(tight, s_min_eps=max(_ALPHA_FLOOR, s0 - reach))
        else:
            run = replace(tight, s_max=min(cfg.s_max, s0 + reach))
        full = (run.s_min_eps, run.s_max) == (_ALPHA_FLOOR, cfg.s_max)
        poles = [(s0, sigma * math.inf) for sigma in todo]
        for sigma, traj in zip(todo, integrate_batch(params, poles, direction, run)):
            if isinstance(traj, Exception):
                raise traj
            s_end, stop = _steep_end(traj, sigma, d), "steep"
            if s_end is None:
                s_end, stop = (traj.s[0], "contact") if d < 0 else (traj.s[-1], "ceiling")
            arm = _arm_nodes(traj, s0, d, sigma, math.sqrt(abs(s_end - s0)))
            t, u, du = arm[0], arm[3], arm[4]
            if u[-1] >= span:
                t_span = float(_hermite(u, t, 1.0 / du)(span))
                arm, stop = _arm_nodes(traj, s0, d, sigma, t_span), "span"
            elif stop != "steep" and not full:
                continue
            arms[sigma] = (traj, arm, stop)
    return d, (arms[-d], arms[d])


def build_wing(params: FlowParams, s0: float,
               cfg: IntegratorConfig = IntegratorConfig(),
               y_span: Optional[float] = None) -> WingResult:
    """Wing profile through the apex (0, s0), with inverted branches.

    The apex is at y = 0 (the wing equation does not involve y), a strict
    extremum (alpha''(0) = ep*et*c/s0) and a pole of the graph slope
    w = 1/alpha'.  Each arm is the graph solution leaving that pole, by the
    engine; its height y = int w ds is Simpson quadrature in
    t = sqrt(|s - s0|), where the integrand is smooth, and alpha(y) on
    _GRAPH_SAMPLES // 2 points per arm is the cubic Hermite inverse.  Arms
    stop at the axis floor alpha = 1e-4 (lightlike contact, extrapolated
    touch point recorded), at the height ceiling s_max, at a vertical
    tangent (|alpha'| = 1e6; the wing continues past it only as a graph
    over the height, i.e. in the inverted branch), or at y = +-y_span;
    arm_stop records which.  s0 must lie between the floor and s_max, and
    y_span, if given, be positive and finite.  The branches are the arms
    as graphs f(s) at their nodes more than _APEX_PAD = 1e-3 from the
    apex, with the engine's dense slope.

    The translation direction breaks the y -> -y symmetry, so the two
    arms differ: a rotational spindle, for instance, is egg-shaped rather
    than mirror-symmetric.
    """
    if not _ALPHA_FLOOR < s0 < cfg.s_max:
        raise ValueError(f"apex height s0 = {s0} must lie between the axis floor "
                         f"{_ALPHA_FLOOR} and s_max = {cfg.s_max}")
    if y_span is not None and not 0.0 < y_span < math.inf:
        raise ValueError(f"y_span must be positive and finite, got {y_span}")
    span = cfg.s_max if y_span is None else float(y_span)
    d, arms = _wing_arms(params, s0, cfg, span)
    parts, contact_y, branches = [], [], []
    for side, (traj, (t, s, w, u, du), stop) in zip((-1.0, 1.0), arms):
        y = 0.0 + side * u    # the apex height 0.0 turns the left arm's -0.0 into 0.0
        y_g = np.linspace(0.0, side * span if stop == "span" else y[-1], _GRAPH_SAMPLES // 2)
        t_g = _hermite(u, t, 1.0 / du)(np.abs(y_g))
        a_g = s0 + d * t_g * t_g
        parts.append((y_g, a_g, np.where(t_g > 0.0, 1.0 / traj.w_at(a_g), 0.0)))
        contact_y.append(float(y[-1] - s[-1] * w[-1]) if stop == "contact" else None)
        keep = (np.abs(s - s0) > _APEX_PAD) & (u > _APEX_PAD)
        if np.count_nonzero(keep) >= 8:
            s_b, f_b, w_b = (a[keep][::int(d)] for a in (s, y, w))    # ascending in s
            branches.append(ProfileCurve(kind="graph", params=params, s=s_b, f=f_b, w=w_b,
                                         f0=float(f_b[0]),
                                         f_dense=_evaluator(_hermite(s_b, f_b, w_b)),
                                         w_dense=_evaluator(traj.w_at)))
    (y_l, a_l, ap_l), (y_r, a_r, ap_r) = parts
    wing = ProfileCurve(kind="wing", params=params, y=np.concatenate([y_l[:0:-1], y_r]),
                        alpha=np.concatenate([a_l[:0:-1], a_r]),
                        alpha_prime=np.concatenate([ap_l[:0:-1], ap_r]), apex=(0.0, s0),
                        contact=tuple(stop == "contact" for *_, stop in arms),
                        contact_y=tuple(contact_y), arm_stop=tuple(stop for *_, stop in arms))
    return WingResult(wing=wing, branches=tuple(branches))


def build_spindle(params: FlowParams, s0: float,
                  cfg: IntegratorConfig = IntegratorConfig()) -> ProfileCurve:
    """Closed wing profile touching the axis at both ends.

    Requires an apex that is a strict maximum (rhs_wing(s0, 0) < 0, the
    rotational timelike regime); both arms then descend to the axis at
    finite height with slope tending to a lightlike +-1.  The arms, from
    the apex at y = 0, are searched out to |y| = s_max.  The profile is
    reported down to alpha = 1e-4 with the two axis touch points
    extrapolated linearly.
    """
    if rhs_wing(params, s0, 0.0) >= 0.0:
        raise ValueError("no spindle: the apex is not a maximum for these "
                         "parameters (rhs_wing(s0, 0) >= 0)")
    wing = build_wing(params, s0, cfg).wing
    if not all(wing.contact):
        raise ValueError("no spindle: the arms stopped at {} and {}, not both at the "
                         "axis, within |y| <= {:g}".format(*wing.arm_stop, cfg.s_max))
    return wing


def resample_wing(curve: ProfileCurve, samples: int) -> Tuple[np.ndarray, np.ndarray]:
    """(y, alpha) of a wing curve at samples heights spread evenly over its
    y span, alpha read linearly between the curve's nodes."""
    y = np.linspace(curve.y[0], curve.y[-1], samples)
    return y, np.interp(y, curve.y, curve.alpha)


def quadrant_of(x, y):
    """Lightcone quadrant index: 1 right, 2 top, 3 left, 4 bottom, 0 on cone."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = x * x - y * y
    q = np.zeros(np.broadcast(x, y).shape, dtype=int)
    q[(t > 0) & (x > 0)] = 1
    q[(t < 0) & (y > 0)] = 2
    q[(t > 0) & (x < 0)] = 3
    q[(t < 0) & (y < 0)] = 4
    return q


_ADJACENT_PAIRS = ({1, 2}, {2, 3}, {3, 4}, {4, 1})


def _validate_mask(mask: Sequence[int]) -> Tuple[int, ...]:
    qs = tuple(sorted(set(int(q) for q in mask)))
    if not set(qs) <= {1, 2, 3, 4}:
        raise ValueError(f"quadrant mask entries must be in 1..4, got {mask}")
    if len(qs) < 2:
        raise ValueError("hybrid gluing needs at least two quadrants")
    if len(qs) == 2 and set(qs) not in _ADJACENT_PAIRS:
        raise ValueError(f"quadrants {qs} are not cyclically adjacent; opposite "
                         "pieces only meet at the origin and cannot be glued")
    return qs


@dataclass
class HybridField:
    """Glued lightcone-invariant graph on the Lorentzian plane.

    u(x, y) is f1(sqrt(x^2-y^2)) on the included side quadrants,
    f2_sign * f2(sqrt(y^2-x^2)) on the included top/bottom ones, and 0 on
    the lightcone; outside the mask it evaluates to NaN.  u_tilde lifts
    to higher dimension by rotational symmetry in the spatial slot:
    u_tilde(xvec, y) = u(|xvec|, y).  coeffs_f1/coeffs_f2 are the height
    Taylor coefficients at the origin, to order 13 (f2 as built, before
    any sign flip).
    The profiles hold on the square [-extent, extent]^2, and sample(nodes)
    reads u on a grid over it: one field, built once by hybrid_field,
    samples any number of grids.
    """

    mask: Tuple[int, ...]
    f2_sign: int
    coeffs_f1: np.ndarray
    coeffs_f2: np.ndarray
    params_side: FlowParams
    params_topbottom: FlowParams
    extent: float
    u: Callable = field(repr=False)
    u_tilde: Callable = field(repr=False)

    def sample(self, nodes: int) -> GridField:
        """u on a nodes x nodes grid over [-extent, extent]^2, as a GridField
        with Lorentzian signature (+, -), masked on a tube _TUBE_CELLS = 3
        cells wide around the lightcone and on excluded quadrants."""
        if nodes < 5:
            raise ValueError("need nodes >= 5 for a grid sample")
        ax = np.linspace(-self.extent, self.extent, nodes)
        h = float(ax[1] - ax[0])
        values = np.empty((nodes, nodes))
        gmask = np.empty((nodes, nodes), dtype=bool)
        for lo, hi in _row_blocks(values.shape):
            x, block = ax[lo:hi, None], values[lo:hi]
            block[...] = self.u(x, ax)
            dist_cone = np.minimum(np.abs(x - ax), np.abs(x + ax)) / math.sqrt(2.0)
            # u is NaN exactly on the excluded quadrants off the cone
            np.logical_or(dist_cone <= _TUBE_CELLS * h, np.isnan(block), out=gmask[lo:hi])
        return GridField(axes=(ax, ax), signature=(+1, -1), eps_prime=+1,
                         values=values, mask=gmask)


# the lightcone tube masked in a hybrid grid sample is this many cells wide
_TUBE_CELLS = 3


def center_profile_eval(params: FlowParams, r_max: float = 5.0,
                        cfg: IntegratorConfig = IntegratorConfig()) -> Tuple[Callable, Callable]:
    """Dense (height, slope) evaluators on [0, max(r_max, 1)] for the
    center-regular profile of any sign pattern, with barriers or without:
    its lane (_center_curve, the order-12 center series up to the handoff)
    run to max(r_max, 1) in place of s_max.  Forward integration is stable
    toward the large-s attractor for every pattern.
    """
    run_cfg = replace(cfg, s_max=max(r_max, 1.0))
    curve = _center_curve(params, run_cfg, _CENTER_SAMPLES)
    return curve.f_dense, curve.w_dense


def _as_posed(curve: ProfileCurve, params: FlowParams) -> ProfileCurve:
    """A graph built on the canonical strip, mapped back to the timelike
    pattern params, which mirrors onto it under f -> -f: the canonical
    profile negated.  This is the one place where profiles are flipped."""
    return ProfileCurve(kind="graph", params=params, s=curve.s, f=-curve.f,
                        w=-curve.w, f0=-curve.f0, truncated=curve.truncated,
                        f_dense=_evaluator(curve.f_dense, -1.0),
                        w_dense=_evaluator(curve.w_dense, -1.0))


def center_regular_profile(params: FlowParams, span: float,
                           cfg: IntegratorConfig = IntegratorConfig()
                           ) -> Tuple[Callable, Callable]:
    """Dense (height, slope) evaluators, valid at least on [0, span], for
    the center-regular profile of any sign pattern as posed:
    center_profile_eval out to a little beyond span.  The timelike lane
    mirrors the canonical one bit for bit, so nothing is flipped here."""
    return center_profile_eval(params, r_max=span * 1.01 + 0.5, cfg=cfg)


def hybrid_field(mask: Sequence[int] = (1, 2, 3, 4), extent: float = 2.0,
                 cfg: IntegratorConfig = IntegratorConfig(),
                 f2_sign: int = +1) -> HybridField:
    """The glued lightcone-invariant graph on [-extent, extent]^2.

    The two pieces are the center-regular profiles of the boost reduction
    on the spacelike and timelike sides of the cone (both with vanishing
    center slope, read from center_profile_eval), each built once here.
    extent may not pass cfg.s_max, as a profile's span may not: the
    pieces run to a little beyond it.  mask picks 2, 3 or 4
    cyclically adjacent quadrants.  f2_sign = -1 deliberately breaks the
    gluing (a control for the smoothness scan: the order-2 transverse
    jump then persists under refinement instead of decaying).
    """
    qs = _validate_mask(mask)
    if f2_sign not in (-1, +1):
        raise ValueError("f2_sign must be +-1")
    if not 0.0 < extent <= cfg.s_max:
        raise ValueError(f"extent must lie in (0, s_max = {cfg.s_max:g}]; raise --s-max")
    p1, p2 = boost(2, "spacelike"), boost(2, "timelike")
    f1, f2 = (center_profile_eval(p, extent * 1.05 + 0.5, cfg)[0] for p in (p1, p2))

    def u(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        t = x * x - y * y
        r = np.sqrt(np.abs(t))
        out = np.where(t == 0.0, 0.0, np.nan)
        on = np.isin(quadrant_of(x, y), qs)
        side, top = on & (t > 0.0), on & (t < 0.0)
        out[side] = f1(r[side])
        out[top] = f2_sign * f2(r[top])
        return _scalar_or_array(out)

    def u_tilde(xvec, y):
        xvec = np.asarray(xvec, dtype=float)
        r_sp = np.sqrt(np.sum(xvec * xvec, axis=-1))
        return u(r_sp, y)

    return HybridField(mask=qs, f2_sign=f2_sign,
                       coeffs_f1=integrate_series(bowl_series_coeffs(p1, _SERIES_ORDER)),
                       coeffs_f2=integrate_series(bowl_series_coeffs(p2, _SERIES_ORDER)),
                       params_side=p1, params_topbottom=p2, extent=float(extent),
                       u=u, u_tilde=u_tilde)


def build_hybrid(mask: Sequence[int] = (1, 2, 3, 4), extent: float = 2.0,
                 nodes: int = 201, cfg: IntegratorConfig = IntegratorConfig(),
                 f2_sign: int = +1) -> Tuple[HybridField, GridField]:
    """hybrid_field(mask, extent, cfg, f2_sign) and its sample on a
    nodes x nodes grid (HybridField.sample)."""
    if nodes < 5:
        raise ValueError("need nodes >= 5 for a grid sample")
    hyb = hybrid_field(mask, extent, cfg, f2_sign)
    return hyb, hyb.sample(nodes)


def timelike_family_from_strip(params: FlowParams,
                               class_request: "SolutionClassTag | str",
                               cfg: IntegratorConfig = IntegratorConfig()) -> ProfileCurve:
    """A timelike-boost profile realizing a requested strip class.

    The timelike pattern (et = -1, ep = +1) maps onto the canonical strip
    under q = -f, so each strip class has a timelike graph realization:
    the profile is built on the canonical side and flipped back.  The
    representative is the canonical solution itself for bowl, separatrix
    and the constants, else a midline point between the bowl (or the
    separatrix) and the relevant barrier.
    """
    if not (params.eps_tilde == -1 and params.eps_prime == +1):
        raise ValueError("timelike family needs boost-timelike parameters "
                         "(eps_tilde=-1, eps_prime=+1)")
    tag = (class_request if isinstance(class_request, SolutionClassTag)
           else SolutionClassTag(str(class_request)))
    canon = params.canonical_strip()[0]
    c = canon.fiber_coeff

    if tag is SolutionClassTag.BOWL:
        base = bowl_curve(canon, cfg)
    elif tag is SolutionClassTag.SEPARATRIX:
        base = build_graph(_separatrix_trace(canon, cfg))
    else:
        bowl = compute_bowl(canon, cfg)
        wb = float(bowl.w_at(c))
        if tag is SolutionClassTag.BELOW_BOWL:
            state = (c, 0.5 * (wb - 1.0))
        elif tag is SolutionClassTag.ABOVE_BOWL:
            state = (c, 0.5 * (wb + 1.0))
        elif tag is SolutionClassTag.GAMMA_MINUS_BLOWUP:
            state = (c, -2.0)
        elif tag is SolutionClassTag.CONSTANT_PLUS:
            state = (c, 1.0)
        elif tag is SolutionClassTag.CONSTANT_MINUS:
            state = (c, -1.0)
        else:
            # the trace's value at the anchor: a start O(1) off it needs no bracket
            ws = float(_separatrix_trace(canon, cfg).w_at(c))
            state = (c, 0.5 * (1.0 + ws) if tag is SolutionClassTag.GAMMA_PLUS_GLOBAL
                     else ws + 1.0)
        traj = integrate_bidirectional(canon, state[0], state[1], cfg)
        base = build_graph(traj)

    return _as_posed(base, params)
