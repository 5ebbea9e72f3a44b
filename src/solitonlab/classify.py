"""Classification of phase-plane solutions for the spacelike strip form.

For the sign pattern et = +1, ep = -1 (rotationally invariant spacelike
profiles, and the timelike boost family after its slope flip) the phase
plane splits into the invariant strip |w| < 1 and the outer regions
above and below.  The distinguished solutions are

* the bowl: the unique strip solution with w -> 0 as s -> 0, the
  center-regular lane (engine._series_lane) of the strip form;
* the separatrix: the unique outer solution above w = +1 that stays
  above the critical line w = s/c for all s and grows along it; it
  divides blow-up from global existence in the upper outer region.

classify() names the solution through an initial condition by comparing
against these two, or by its region, and reads its evidence off the
start's own run both ways, a barrier start's too, or the reference it
lies on (_evidence); a gamma_minus verdict also carries the comparison
bound on its pole (blowup_bound).  classify_as_posed_batch() is the one
place where the timelike pattern is flipped onto the strip and its
evidence flipped back.

Each entry point has a batched form (integrate_bidirectional_batch,
classify_batch, classify_as_posed_batch) that takes a list of starts,
integrates both directions of all of them in one lockstep loop, and
returns one verdict, or that start's error, per start.  The scalar
functions are batches of one.  classify_batch reads the bowl and the
separatrix trace, each looked up at most once, from their caches; one
that is not cached is one more lane of that loop (a lane's bits do not
depend on its batch), assembled from it and cached.  A classify needs
the separatrix only at s0, so it never shoots the bracket.

The separatrix is traced backward.  Forward shooting cannot hold it for
long (nearby solutions diverge like exp(s^2/2c)), and backward
integration contracts onto it at the same rate, which makes a long
backward run stiff.  Far out it is its own asymptotic series,
w ~ s/c + sum_k a_k s^(1-2k) (engine.separatrix_series_coeffs), which
diverges; its diagonal Padé approximant is trusted from about s = 3.1,
4.3, 4.9 and 5.7 for n = 2..5 on (see engine.separatrix_start), where
the series itself needs s_far = 8.3 to 14.9.  Beyond that start the
trajectory is samples of the approximant, and the integration runs
backward from its value there, so its cost does not depend on s_max;
where the start lies beyond s_max the trace is cut there.  The traced
value at the anchor s = c, where the critical line crosses the barrier,
is right to about 2e-12 or better, so at the default tolerance one
batched pair of forward shots at traced +-0.49*tol, split into global
and blow-up, is the bracket.  Else one loop widens that window 1e3-fold
until its ends split, then narrows it by k-section rounds of as many
starts as bring it below the tolerance.  A shot is a forward lane that
stops at the first step that decides it: a step across the critical
line, below which it never crosses back and exists globally, or a step
end from which a fence argument proves that it blows up.  Where the
trace is not cached, the first pair joins the trace's own loop at the
step that passes c, so a cold bracket is one loop.
"""

from __future__ import annotations

import inspect
import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial, wraps
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    FlowParams,
    PhaseState,
    Region,
    Trajectory,
    causal_signs,
    region_of,
)
from .engine import (
    DIRECTIONS,
    EventKind,
    IntegratorConfig,
    _far_lane,
    _Field,
    _first,
    _integrate_lanes,
    _Join,
    _Lane,
    _series_lane,
    _straddles,
    comparison_blowup_bound,
    detect_blowup,
)

# starts per k-section round of compute_separatrix
_SHOTS = 64
# the verdicts of a decision shot (_shot_verdicts): it exists globally, or it blows up
_GLOBAL, _BLOWS_UP = 1, 2
# a forward point with w > 1 blows up where the field is at least w/s;
# the blow-up verdict asks for this many times that (see compute_separatrix)
_FENCE_MARGIN = 2.0
# a strip start within this of the bowl is the bowl; an upper start within
# this, relative to max(1, |w|), of the separatrix is the separatrix
_BOWL_TOL = 1e-9
_SEPARATRIX_TOL = 1e-9


class SolutionClassTag(Enum):
    CONSTANT_PLUS = "constant_plus"
    CONSTANT_MINUS = "constant_minus"
    BOWL = "bowl"
    BELOW_BOWL = "below_bowl"
    ABOVE_BOWL = "above_bowl"
    GAMMA_MINUS_BLOWUP = "gamma_minus_blowup"
    SEPARATRIX = "separatrix"
    GAMMA_PLUS_GLOBAL = "gamma_plus_global"
    GAMMA_PLUS_BLOWUP = "gamma_plus_blowup"


class LimitsReport(NamedTuple):
    """Endpoint evidence of a bidirectional trajectory.

    at_zero / at_infinity are the slope values at the integration cutoffs
    (s_left, s_right).  An end that blew up (the right one when
    et*ep = -1, else the left one) reads +-inf, its s is the pole, and
    blowup records (s*, sign).
    """

    at_zero: float
    at_infinity: float
    s_left: float
    s_right: float
    blowup: Optional[Tuple[float, int]]


@dataclass(frozen=True)
class SolutionClass:
    """Classification verdict plus the numeric evidence that backs it.

    margin is w0 minus the bowl's (inner strip) or the separatrix's (upper
    region) value at s0, on the canonical strip as the tag is, and
    margin_tol the tolerance it was compared with: within it the start is
    that solution, else its sign picks the side.  Both are None where no
    reference decides the tag (the barrier constants and gamma_minus).
    blowup_bound is comparison_blowup_bound() at the canonical start, an
    upper bound on the pole s of a gamma_minus_blowup start; None for
    every other tag.
    """

    tag: SolutionClassTag
    init: PhaseState
    limit_at_zero: float
    limit_at_infinity: float
    critical_points: Tuple[float, ...]
    blowup: Optional[Tuple[float, int]]
    causal: int
    margin: Optional[float] = None
    margin_tol: Optional[float] = None
    blowup_bound: Optional[float] = None


@dataclass(frozen=True)
class SeparatrixResult:
    """Threshold solution data at the anchor, with the traced trajectory.

    value is the midpoint of the final bracket for w(anchor); the traced
    value when the first pair splits.  bracket is that (global, blow-up)
    pair, of width <= the requested tolerance; shots counts the decision
    shots fired.  The bracket holds the engine's discretised shots, which
    run at the config's tolerances, to tol.  At the default tol it holds
    the equation's value too; at tol of about 1e-11 and below it can miss
    it, since the shots' own error moves a start's fate by about 1e-11.
    """

    value: float
    bracket: Tuple[float, float]
    anchor: float
    trajectory: Trajectory
    shots: int

    def asymptote_defect(self, s_from: float) -> float:
        """max of |c*w(s) - s|, the asymptote gap, over s_from itself (read
        from the dense output) and the samples beyond it.  s_from must lie
        in the trajectory's span."""
        traj = self.trajectory
        if not traj.s[0] <= s_from <= traj.s[-1]:
            raise ValueError(f"defect start s = {s_from} lies outside the span "
                             f"[{traj.s[0]}, {traj.s[-1]}]")
        m = traj.s > s_from
        s = np.concatenate(([s_from], traj.s[m]))
        w = np.concatenate(([traj.w_at(s_from)], traj.w[m]))
        return float(np.max(np.abs(traj.params.fiber_coeff * w - s)))


def _require_strip_form(params: FlowParams, what: str) -> None:
    if not (params.eps_tilde == +1 and params.eps_prime == -1):
        raise ValueError(
            f"{what} requires the spacelike strip form (et=+1, ep=-1); "
            "map timelike-boost parameters through canonical_strip() first")


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Store:
    """A least-recently-used store of computed references, keyed on the
    arguments that computed them, safe to share between threads as an
    lru_cache is.  get() counts a hit or a miss, as a call of an
    lru_cache does; put() files a value computed elsewhere."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize, self.data, self.hits, self.misses = maxsize, OrderedDict(), 0, 0
        self.lock = threading.Lock()

    def get(self, key):
        """The value filed under key, else None."""
        with self.lock:
            value = self.data.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self.data.move_to_end(key)
            return value

    def put(self, key, value):
        with self.lock:
            self.data[key] = value
            self.data.move_to_end(key)
            if len(self.data) > self.maxsize:
                self.data.popitem(last=False)
            return value

    def info(self) -> _CacheInfo:
        with self.lock:
            return _CacheInfo(self.hits, self.misses, self.maxsize, len(self.data))

    def clear(self) -> None:
        with self.lock:
            self.data.clear()
            self.hits = self.misses = 0


# the bowls, the separatrix traces and the bracketed separatrices; classify
# reads the first two itself, not through the functions that fill them
_BOWLS, _TRACES, _SEPARATRICES = _Store(32), _Store(32), _Store(8)


def _cached(store: _Store, *also: _Store):
    """Cache a function in store, keyed on its arguments with their
    defaults filled in, so that every spelling of one call is one entry.
    cache_info() and __wrapped__ as lru_cache's; cache_clear() empties
    store and the stores in also."""
    def decorate(fn):
        signature = inspect.signature(fn)

        @wraps(fn)
        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = bound.args
            value = store.get(key)
            return store.put(key, fn(*key)) if value is None else value

        def cache_clear() -> None:
            for each in (store, *also):
                each.clear()
        call.cache_info, call.cache_clear = store.info, cache_clear
        return call
    return decorate


def _bowl_lane(params: FlowParams, cfg: IntegratorConfig) -> _Lane:
    """The bowl as the strip form's center-regular lane (_series_lane)."""
    _require_strip_form(params, "compute_bowl")
    return _series_lane(params, cfg)


def _trace_lane(params: FlowParams, cfg: IntegratorConfig) -> _Lane:
    """The separatrix trace as one backward lane from its far-field
    start (_far_lane), for a span that holds the anchor s = c."""
    _require_strip_form(params, "compute_separatrix")
    if not cfg.s_min_eps < params.fiber_coeff < cfg.s_max:
        raise ValueError("anchor s = c must lie inside the integration span")
    return _far_lane(params, cfg)


# the tag of a start its region alone names
_FIXED_TAGS = {Region.BARRIER_PLUS: SolutionClassTag.CONSTANT_PLUS,
               Region.BARRIER_MINUS: SolutionClassTag.CONSTANT_MINUS,
               Region.GAMMA_MINUS: SolutionClassTag.GAMMA_MINUS_BLOWUP}

# per region, the cache of the reference its starts are read against and
# that reference's lane
_REFERENCES = {Region.INNER_STRIP: (_BOWLS, _bowl_lane),
               Region.GAMMA_PLUS: (_TRACES, _trace_lane)}


@_cached(_BOWLS)
def compute_bowl(params: FlowParams, cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """The bowl trajectory over [s_min_eps, s_max], series-anchored at the center.

    The center limit w -> 0 is backward-unstable, so below the handoff of
    its center-regular lane (engine._series_lane, s = 0.5 for c >= 1) the
    trajectory is its Taylor series and integration only runs outward.
    Results are cached per (params, config).
    """
    return _bowl_lane(params, cfg).run()


@_cached(_TRACES)
def _separatrix_trace(params: FlowParams,
                      cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """The backward-traced separatrix (see compute_separatrix), cached
    per (params, config) whatever tol a bracket around it is shot to."""
    return _trace_lane(params, cfg).run()


def integrate_bidirectional_batch(
        params: FlowParams, starts: Sequence[Tuple[float, float]],
        cfg: IntegratorConfig = IntegratorConfig()) -> List[Union[Trajectory, Exception]]:
    """integrate_bidirectional() for every start, both directions of all
    of them in one lockstep run.  Each start's Trajectory is built once,
    from the arcs of both its lanes, and is what merge_bidirectional()
    gives for its two one-sided runs; a start that fails gets its
    exception in its slot, the one toward zero first."""
    return _integrate_lanes(params, starts, [DIRECTIONS] * len(starts), cfg)


def integrate_bidirectional(params: FlowParams, s0: float, w0: float,
                            cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Trajectory through (s0, w0) over the full configured span."""
    return _first(integrate_bidirectional_batch(params, [(s0, w0)], cfg))


def limits_report(traj: Trajectory) -> LimitsReport:
    """Endpoint values and blow-up data of a (usually bidirectional) trajectory."""
    limits = [float(traj.w[0]), float(traj.w[-1])]
    span = [float(traj.s[0]), float(traj.s[-1])]
    blow = detect_blowup(traj)
    if blow is not None:
        # at most one end blows up: |w| grows without bound forward when
        # et*ep = -1 and toward zero otherwise
        end = 1 if traj.params.has_barriers else 0
        limits[end], span[end] = math.inf * blow[1], blow[0]
    return LimitsReport(at_zero=limits[0], at_infinity=limits[1],
                        s_left=span[0], s_right=span[1], blowup=blow)


def _critical_points(traj: Trajectory) -> Tuple[float, ...]:
    pts = sorted(e.s for e in traj.events if e.kind is EventKind.CROSSED_LINE_R)
    out: list[float] = []
    for s in pts:
        if not out or abs(s - out[-1]) > 1e-9 * max(1.0, abs(s)):
            out.append(s)
    return tuple(out)


def _evidence(traj: Trajectory, causal: Optional[int] = None) -> dict:
    """The evidence fields of a SolutionClass, or of an untagged portrait
    row, read off traj, with its causal sign where already known."""
    rep = limits_report(traj)
    return dict(limit_at_zero=rep.at_zero, limit_at_infinity=rep.at_infinity,
                critical_points=_critical_points(traj), blowup=rep.blowup,
                causal=traj.causal_sign() if causal is None else causal)


@_cached(_SEPARATRICES, _TRACES)
def compute_separatrix(params: FlowParams, cfg: IntegratorConfig = IntegratorConfig(),
                       tol: float = 1e-10) -> SeparatrixResult:
    """Trace the upper-region threshold solution, then bracket it.

    The reported trajectory, the trace, is the far-field formula beyond
    its start (its samples at most 1 apart; CSV rows beyond the start are
    these) and, below the start, backward integration from the formula's
    value there, which contracts onto the separatrix.  The formula is the
    diagonal Padé approximant of the far-field series, and the start the
    smallest s from which it satisfies the phase equation to cfg.abs_tol
    with no pole (about 3.1, 4.3, 4.9 and 5.7 for n = 2..5; see
    engine.separatrix_start); where it lies beyond s_max, the trace
    starts there all the same and is cut at s_max.  The trace is
    cached apart, per (params, cfg), so every tol reads one trace, and
    classify reads it without a bracket.  The traced
    value at the anchor s = c (where the critical line meets the
    barrier) seeds a window of +-0.49*tol (_window); if its two ends, shot
    as one batch, split into global and blow-up, they are the bracket.
    Where the trace is not cached, that first pair and the trace share
    one loop (_fire): the pair joins the trace's lane at the step that
    passes c, with the w(c) the trace then reads, and the trace is filed
    once that loop ends, even where the bracket then fails.  Else the
    window grows 1e3-fold, clipped below at the barrier w = 1 (a global
    solution), until its ends split (RuntimeError past half-width 1), and
    k-section narrows it to width tol: each round shoots as many inner
    starts (at most 64) as take it below tol, plus one, and keeps the step
    from the last global start below the first blow-up.

    A shot is one lane of a forward decision batch from (c, w), on or
    above the critical line w = s/c, and it stops at the first accepted
    step that decides it; no trajectory is built.  With
    f(s, w) = (w^2 - 1)(c*w/s - 1), the field of the strip form:

    * global: the ends of a step straddle the line, by the test that
      records a line crossing (a start on the barrier w = 1 starts on the
      line, so its first step does).  Below
      the line, with w > 1, the slope falls while the line rises, so the
      run never crosses back and never blows up.
    * blow-up: a step ends at a point (s, w), in either chart, with w > 1
      and f(s, w) >= 2w/s.  The fence argument (Hubbard & West,
      Differential Equations: A Dynamical Systems Approach, Part I, 1991,
      ch. 1) shows that f >= w/s suffices: then f > 0, so k = c*w/s > 1.
      On the ray w = k*s/c through the point f = (k^2 s^2/c^2 - 1)(k - 1)
      grows with s, so it stays at least the ray's slope k/c = w/s, and the
      ray is a lower fence.  Above the ray c*w/s >= k, so
      w' >= (k - 1)(w^2 - 1), whose solution from w > 1 has a finite pole.
      The factor 2 (_FENCE_MARGIN) keeps the verdict off the rule's edge:
      the bare rule still holds at least 1.7% below the step's w, where
      that step's own error is at most 6.3e-7 of w (245 blow-up verdicts,
      n = 2 to 20 and c in [0.5, 8], rel_tol 1e-10 to 1e-6); it costs
      about 5 more accepted steps than the bare rule.

    A start tol off the separatrix parts from it only near
    s_decide = sqrt(c^2 + 2c ln(1/tol)), so the shots may run to at least
    2 s_decide, whatever s_max; one that ends there undecided, or fails by
    step collapse before its verdict, raises RuntimeError.  tol must lie in
    (0, 1], and the anchor inside (s_min_eps, s_max); a tol below the
    float spacing where the bracket closes raises ValueError.  Results
    are cached; cache_clear() clears the traces too.
    """
    if not 0.0 < tol <= 1.0:
        raise ValueError(f"separatrix tol must lie in (0, 1], got {tol!r}")
    trace = _TRACES.get((params, cfg))
    if trace is None:
        trace = _trace_lane(params, cfg)
    c = params.fiber_coeff
    # a start tol off the separatrix parts from it by O(1) near s_decide
    s_decide = math.sqrt(c * c + 2 * c * math.log(1 / tol))
    shot_cfg = replace(cfg, s_max=max(cfg.s_max, 2 * s_decide))

    # grow a window around the trace until its ends split, then narrow it
    h, shots, split = 0.49 * tol, 0, False
    while not split or w_high - w_low > tol:
        if split:
            # enough starts to get below tol, plus one so rounding never forces another round
            k = min(_SHOTS, math.ceil((w_high - w_low) / tol))
            ws = np.unique(w_low + (w_high - w_low) * np.arange(1, k + 1) / (k + 1))
            ws = ws[(ws > w_low) & (ws < w_high)]
            if not ws.size:
                raise ValueError(f"separatrix tol {tol!r} is below the float spacing "
                                 f"{w_high - w_low!r} at the anchor value {w_low!r}")
            blown, ws, trace = _fire(params, ws, shot_cfg, trace)
            # the first blow-up, w_high if none, and the global start below it
            j = int(np.argmax(np.append(blown, True)))
            ends = np.concatenate(([w_low], ws, [w_high]))
            w_low, w_high = float(ends[j]), float(ends[j + 1])
        else:
            blown, ws, trace = _fire(params, partial(_window, h), shot_cfg, trace)
            w_low, w_high = ws.tolist()
            split = tuple(blown) == (False, True)
            if not split and h * 1e3 > 1.0:
                raise RuntimeError(f"backward-traced separatrix value {float(trace.w_at(c))!r} "
                                   f"is not bracketed by [{w_low!r}, {w_high!r}] at the anchor")
            h *= 1e3
        shots += ws.size

    return SeparatrixResult(value=0.5 * (w_low + w_high), bracket=(w_low, w_high),
                            anchor=c, trajectory=trace, shots=shots)


def _window(h: float, w: float) -> np.ndarray:
    """The pair of decision-shot starts around the traced w(c): w +- h,
    clipped below at the barrier w = 1 (a global solution)."""
    return np.array([max(1.0, w - h), w + h])


def _shot_verdicts(field: _Field, ok, x0, y0, x1, y1) -> np.ndarray:
    """The stop test of the decision shots (engine._advance): per step
    from (x0, y0) to (x1, y1), _GLOBAL where its ends straddle the critical
    line (the test that records a CROSSED_LINE_R event), _BLOWS_UP where
    it ends at a point (s, w), in either chart (w = 1/p in the p chart),
    with w > 1 and f(s, w) = (w^2 - 1)(c*w/s - 1) >= _FENCE_MARGIN * w/s,
    and 0 where it decides nothing or ok is False."""
    c = field.params.fiber_coeff
    crossed = _straddles(field.events(x0, y0), field.events(x1, y1))
    s, w = field.s_of(x1), y1
    # steps not in ok may be wild, and a pole, p = 0, reads w = +-inf
    with np.errstate(all="ignore"):
        if field.any_p:
            s, w = np.where(field.in_p, y1, s), np.where(field.in_p, 1.0 / x1, w)
        blows = (w > 1.0) & ((w * w - 1.0) * (c * w / s - 1.0) >= _FENCE_MARGIN * w / s)
    return np.where(ok & crossed, _GLOBAL, np.where(ok & blows, _BLOWS_UP, 0))


def _shoot(params: FlowParams, ws: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """Whether each decision shot, forward from the anchor (c, w) for w in
    ws, blows up: one decision batch, each lane stopped at its verdict
    (_shot_verdicts), no trajectory built.  A start on the barrier w = 1
    is global: it starts on the critical line, which its first step
    straddles.  A shot that fails raises its error, and one that reaches
    cfg.s_max undecided a RuntimeError (_blown)."""
    c = params.fiber_coeff
    return _blown(ws, _integrate_lanes(params, [(c, w) for w in ws.tolist()],
                                       [("toward_infinity",)] * ws.size, cfg, _shot_verdicts),
                  cfg)


def _blown(ws: np.ndarray, verdicts: list, cfg: IntegratorConfig) -> np.ndarray:
    """Whether each shot from ws blows up, by its verdict; a shot that
    failed raises its error, and one that reached cfg.s_max undecided a
    RuntimeError."""
    for w, verdict in zip(ws.tolist(), verdicts):
        if isinstance(verdict, Exception):
            raise verdict
        if not verdict:
            raise RuntimeError(f"decision shot from w = {w!r} at the anchor "
                               f"reached s = {cfg.s_max!r} undecided")
    return np.array(verdicts) == _BLOWS_UP


class _Round(NamedTuple):
    """A round of decision shots (_fire): whether each blows up, their
    starts w at the anchor, and the trace that placed them."""

    blown: np.ndarray
    ws: np.ndarray
    trace: Trajectory


def _fire(params: FlowParams, ws, cfg: IntegratorConfig,
          trace: Union[Trajectory, _Lane]) -> _Round:
    """One round of compute_separatrix's decision shots from the anchor:
    at ws, or where ws is a rule (_window), at the starts it gives from
    the trace's w(c).  trace is the separatrix trace, or where it is not
    cached yet its lane (_trace_lane).

    A trace places the shots, a batch of their own (_shoot).  A lane and
    the shots run in one loop instead: they join it at the step that
    passes c, from its w(c) as the trace reads it (engine._Join), or
    where c lies at or past the lane's start, from its far-field formula
    at the first iteration.  The lane runs under the shots' config, whose
    s_max a toward-zero lane does not read.  The trace is assembled under
    its own config and filed in its cache before any shot is read, so
    that a trace that fails raises its error, and one that does not
    stays cached whatever the shots do."""
    c = params.fiber_coeff
    if not isinstance(trace, _Lane):
        ws = ws(float(trace.w_at(c))) if callable(ws) else ws
        return _Round(_shoot(params, ws, cfg), ws, trace)
    join = _Join(0, c, ws, float(trace.far(c)) if c >= trace.start.s else None)
    done = _integrate_lanes(params, [trace.start], [(trace.direction,)], cfg, _shot_verdicts,
                            join)
    traj = _TRACES.put((params, trace.cfg), trace.assemble(_first(done[:1])))
    ws = ws(float(traj.w_at(c)))
    return _Round(_blown(ws, done[1:], cfg), ws, traj)


def classify_batch(params: FlowParams, starts: Sequence[Tuple[float, float]],
                   cfg: IntegratorConfig = IntegratorConfig()
                   ) -> List[Union[SolutionClass, Exception]]:
    """classify() for every start, in one lockstep run.

    Each start is checked and placed by region on its own.  The bowl is
    looked up once if any start lies in the inner strip, and the
    separatrix trace once if any lies in the upper region, each in its
    own cache.  A reference that is not cached is one more lane of the
    one run that integrates both directions of the starts; it is
    assembled from that lane, bit for bit as alone, and cached.  Each
    reference is then read at all its starts' s0 in one call, and the
    causal signs of the starts' runs are taken together.

    Returns one entry per start: its SolutionClass, or the ValueError or
    RuntimeError that classify() would raise for it.  A reference that
    fails puts its error into the slot of every start that needed it; a
    read refused at one start's s0 fails that start only.
    """
    _require_strip_form(params, "classify")
    out: List[Optional[Union[SolutionClass, Exception]]] = [None] * len(starts)
    groups = {region: [] for region in Region}
    for i, (s0, w0) in enumerate(starts):
        try:
            init = _checked(float(s0), float(w0), cfg)
        except ValueError as exc:
            out[i] = exc
            continue
        groups[region_of(init.w)].append((i, init))

    # each reference from its cache, else the lane that computes it
    refs, cold = {}, []
    for region, (store, lane) in _REFERENCES.items():
        if groups[region]:
            refs[region] = store.get((params, cfg))
            if refs[region] is None:
                try:
                    cold.append((region, store, lane(params, cfg)))
                except ValueError as exc:
                    refs[region] = exc
    # one run: both directions of every start whose reference has not
    # failed, and one lane per cold reference
    runs = [(i, init) for region, group in groups.items()
            if not isinstance(refs.get(region), Exception) for i, init in group]
    done = _integrate_lanes(
        params, [init for _, init in runs] + [lane.start for *_, lane in cold],
        [DIRECTIONS] * len(runs) + [(lane.direction,) for *_, lane in cold], cfg)
    for (region, store, lane), res in zip(cold, done[len(runs):]):
        try:
            refs[region] = store.put((params, cfg), lane.assemble(_first([res])))
        except (ValueError, RuntimeError) as exc:
            refs[region] = exc
    own = dict(zip((i for i, _ in runs), done))

    # (slot, init, tag, the verdict's other fields) of the starts their own run backs
    backed = [(i, init, tag, {"blowup_bound": comparison_blowup_bound(params, *init)}
               if region is Region.GAMMA_MINUS else {})
              for region, tag in _FIXED_TAGS.items() for i, init in groups.pop(region)]
    for region, group in groups.items():
        if not group:
            continue
        ref, strip = refs[region], region is Region.INNER_STRIP
        if isinstance(ref, Exception):
            for i, _ in group:
                out[i] = ref
            continue
        on_ref = None
        for (i, init), value in zip(group, _read(ref, [init.s for _, init in group])):
            if isinstance(value, Exception):
                out[i] = value
                continue
            margin = init.w - value
            tol = _BOWL_TOL if strip else _SEPARATRIX_TOL * max(1.0, abs(value))
            if abs(margin) <= tol:
                on_ref = on_ref or _evidence(ref)
                tag = SolutionClassTag.BOWL if strip else SolutionClassTag.SEPARATRIX
                out[i] = SolutionClass(tag, init, **on_ref, margin=margin, margin_tol=tol)
                continue
            if strip:
                tag = SolutionClassTag.BELOW_BOWL if margin < 0 else SolutionClassTag.ABOVE_BOWL
            else:
                tag = (SolutionClassTag.GAMMA_PLUS_GLOBAL if margin < 0
                       else SolutionClassTag.GAMMA_PLUS_BLOWUP)
            backed.append((i, init, tag, {"margin": margin, "margin_tol": tol}))

    trajs = [own[i] for i, *_ in backed]
    causal = iter(causal_signs(params, [t.w for t in trajs if not isinstance(t, Exception)]))
    for (i, init, tag, fields), traj in zip(backed, trajs):
        out[i] = traj if isinstance(traj, Exception) else SolutionClass(
            tag, init, **_evidence(traj, next(causal)), **fields)
    return out


def _read(ref: Trajectory, s0: List[float]) -> List[Union[float, Exception]]:
    """ref.w_at at every s0 in one call; if that read is refused, each s0
    read alone, so that a refused point fails only its own start."""
    try:
        return np.asarray(ref.w_at(np.array(s0)), dtype=float).tolist()
    except (ValueError, RuntimeError):
        pass
    values: List[Union[float, Exception]] = []
    for s in s0:
        try:
            values.extend(np.asarray(ref.w_at(np.array([s])), dtype=float).tolist())
        except (ValueError, RuntimeError) as exc:
            values.append(exc)
    return values


def _checked(s0: float, w0: float, cfg: IntegratorConfig) -> PhaseState:
    """The start (s0, w0), if classify() takes it."""
    if not (s0 > 0.0 and math.isfinite(s0)):
        raise ValueError(f"initial s must be positive and finite, got {s0}")
    if not math.isfinite(w0):
        raise ValueError(f"initial slope must be finite, got {w0}")
    if not 2 * cfg.s_min_eps <= s0 <= 0.99 * cfg.s_max:
        raise ValueError("initial s must sit inside the configured span; "
                         "widen IntegratorConfig(s_max, s_min_eps) instead")
    return PhaseState(s0, w0)


def classify(params: FlowParams, s0: float, w0: float,
             cfg: IntegratorConfig = IntegratorConfig()) -> SolutionClass:
    """Name the solution through (s0, w0) and gather its evidence.

    Strip initial conditions are compared against the bowl at s0; upper
    outer ones against the separatrix.  Evidence (endpoint limits,
    critical points, blow-up pole, causal type) comes from integrating
    both ways, a barrier start too, except for the two distinguished
    solutions themselves, whose canonical trajectories are reused.  A
    batch of one of classify_batch().
    """
    return _first(classify_batch(params, [(s0, w0)], cfg))


def classify_as_posed_batch(
        params: FlowParams, starts: Sequence[Tuple[float, float]],
        cfg: IntegratorConfig = IntegratorConfig()) -> List[Union[SolutionClass, Exception]]:
    """classify_as_posed() for every start, through one classify_batch().
    blowup_bound is an s value and passes through unflipped."""
    canon, flip = params.canonical_strip()
    verdicts = classify_batch(canon, [(s0, flip * w0) for s0, w0 in starts], cfg)
    out: List[Union[SolutionClass, Exception]] = []
    for (s0, w0), sc in zip(starts, verdicts):
        if not isinstance(sc, Exception):
            blowup = None if sc.blowup is None else (sc.blowup[0], flip * sc.blowup[1])
            sc = replace(sc, init=PhaseState(s0, w0),
                         limit_at_zero=flip * sc.limit_at_zero,
                         limit_at_infinity=flip * sc.limit_at_infinity,
                         blowup=blowup, causal=flip * sc.causal)
        out.append(sc)
    return out


def classify_as_posed(params: FlowParams, s0: float, w0: float,
                      cfg: IntegratorConfig = IntegratorConfig()) -> SolutionClass:
    """classify() for any sign pattern with barriers, reported as posed.

    The tag names the class on canonical_strip(), where the timelike
    pattern (et = -1, ep = +1) is mirrored by w -> -w.  The initial state,
    limits, blow-up sign and causal sign (of ep + et*w^2, which the flip
    negates) come back for the equation as posed; blowup_bound, an s
    value, is the canonical start's.
    """
    return _first(classify_as_posed_batch(params, [(s0, w0)], cfg))
