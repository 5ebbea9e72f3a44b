"""Classification of phase-plane solutions for the spacelike strip form.

For the sign pattern et = +1, ep = -1 (rotationally invariant spacelike
profiles, and the timelike boost family after its slope flip) the phase
plane splits into the invariant strip |w| < 1 and the outer regions
above and below.  The distinguished solutions are

* the bowl: the unique strip solution with w -> 0 as s -> 0, started
  from its center Taylor series and integrated outward;
* the separatrix: the unique outer solution above w = +1 that stays
  above the critical line w = s/c for all s and grows along it; it
  divides blow-up from global existence in the upper outer region.

classify() names the solution through an initial condition by comparing
against these two and integrating both ways for endpoint evidence.
classify_as_posed() is the one place where the timelike pattern is
flipped onto the strip and its evidence flipped back.

Each entry point has a batched form (integrate_bidirectional_batch,
classify_batch, classify_as_posed_batch) that takes a list of starts,
integrates both directions of all of them in one lockstep loop, looks
the bowl and the separatrix up at most once each, and returns one
verdict, or that start's error, per start.  The scalar functions are
batches of one.

The separatrix is traced backward.  Forward shooting cannot hold it for
long (nearby solutions diverge like exp(s^2/2c)), and backward
integration contracts onto it at the same rate, which makes a long
backward run stiff.  Far out it is its own asymptotic series,
w ~ s/c + sum_k a_k s^(1-2k) (engine.separatrix_series_coeffs), trusted
from s_far on (about 8 to 15 for n = 2..5, see engine.separatrix_start):
beyond s_far the trajectory is series samples, and the integration runs
backward from the series value at s_far, so its cost does not depend on
s_max; where s_far lies beyond s_max the trace is cut there.  The traced
value at the anchor s = c, where the critical line crosses the barrier,
is right to about 1e-11, so at the default tolerance one batched pair of
forward shots at traced +-0.49*tol, split into global and blow-up, is
the bracket.  Else one loop widens that window 1e3-fold until its ends
split, then narrows it by k-section rounds of as many starts as bring it
below the tolerance.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, wraps
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    FlowParams,
    PhaseState,
    Region,
    TerminationKind,
    Trajectory,
    causal_sign,
    causal_signs,
    region_of,
)
from .engine import (
    DIRECTIONS,
    EventKind,
    IntegratorConfig,
    _far_anchored,
    _first,
    _integrate_lanes,
    _series_anchored,
    bowl_start,
    comparison_blowup_bound,
    detect_blowup,
    integrate_batch,
)

# starts per k-section round of compute_separatrix
_SHOTS = 64
# compute_bowl's default series handoff s and series order
_BOWL_S_START, _BOWL_ORDER = 1e-4, 13
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


@dataclass(frozen=True)
class SeparatrixResult:
    """Threshold solution data at the anchor, with the traced trajectory.

    value is the midpoint of the final bracket for w(anchor); the traced
    value when the first pair splits.  bracket is that (global, blow-up)
    pair, of width <= the requested tolerance; shots counts the decision
    shots fired.
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


def _cached(maxsize: int):
    """lru_cache keyed on the arguments with their defaults filled in, so
    that every spelling of one call is one entry; cache_clear(),
    cache_info() and __wrapped__ as lru_cache's."""
    def decorate(fn):
        signature, cached = inspect.signature(fn), lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return cached(*bound.args)
        call.cache_clear, call.cache_info = cached.cache_clear, cached.cache_info
        return call
    return decorate


@_cached(maxsize=32)
def compute_bowl(params: FlowParams, cfg: IntegratorConfig = IntegratorConfig(),
                 s_start: float = _BOWL_S_START, order: int = _BOWL_ORDER) -> Trajectory:
    """The bowl trajectory over [s_min_eps, s_max], series-anchored at the center.

    The center limit w -> 0 is backward-unstable, so below s_start the
    trajectory is represented by its Taylor series (accurate there far
    below the integration tolerance) and integration only runs outward.
    Results are cached per (params, config).
    """
    _require_strip_form(params, "compute_bowl")
    if not cfg.s_min_eps < s_start < 1.0:
        raise ValueError("series handoff s_start must sit in (s_min_eps, 1)")
    start = bowl_start(params, s_start, order=order, abs_tol=cfg.abs_tol)
    return _series_anchored(params, start, order, cfg)


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
    """The evidence fields of a SolutionClass read off traj, with its
    causal sign where already known."""
    rep = limits_report(traj)
    return dict(limit_at_zero=rep.at_zero, limit_at_infinity=rep.at_infinity,
                critical_points=_critical_points(traj), blowup=rep.blowup,
                causal=traj.causal_sign() if causal is None else causal)


@_cached(maxsize=8)
def compute_separatrix(params: FlowParams, cfg: IntegratorConfig = IntegratorConfig(),
                       tol: float = 1e-10) -> SeparatrixResult:
    """Trace the upper-region threshold solution, then bracket it.

    The reported trajectory is the far-field series beyond s_far (its
    samples at most cfg.max_step apart; CSV rows beyond s_far are these)
    and, below s_far, backward integration from the series value there,
    which contracts onto the separatrix.  s_far is where the truncated
    series is accurate to cfg.abs_tol; where it lies beyond s_max, the
    trace starts there all the same and is cut at s_max.  The traced
    value at the anchor s = c (where the critical line meets the
    barrier) seeds a window of +-0.49*tol; if its two ends, shot as one
    batch, split into global and blow-up, they are the bracket.  Else the
    window grows 1e3-fold, clipped below at the barrier w = 1 (a global
    solution), until its ends split (RuntimeError past half-width 1), and
    k-section narrows it to width tol: each round shoots as many inner
    starts (at most 64) as take it below tol, plus one, and keeps the step
    from the last global start below the first blow-up.  A start tol off
    the separatrix parts from it only near s_decide = sqrt(c^2 + 2c
    ln(1/tol)), so the shots run to at least 2 s_decide, whatever s_max;
    one that ends there undecided raises RuntimeError.  tol must lie in
    (0, 1].  Results are cached.
    """
    _require_strip_form(params, "compute_separatrix")
    if not 0.0 < tol <= 1.0:
        raise ValueError(f"separatrix tol must lie in (0, 1], got {tol!r}")
    c = params.fiber_coeff
    if not cfg.s_min_eps < c < cfg.s_max:
        raise ValueError("anchor s = c must lie inside the integration span")

    traj = _far_anchored(params, cfg)
    traced = float(traj.w_at(c))
    # a start tol off the separatrix parts from it by O(1) near s_decide
    s_decide = math.sqrt(c * c + 2 * c * math.log(1 / tol))
    shot_cfg = replace(cfg, s_max=max(cfg.s_max, 2 * s_decide))

    def blows_up(ws: np.ndarray) -> np.ndarray:
        # global: crossing below the critical line, or the barrier itself
        runs = integrate_batch(params, [(c, w) for w in ws], "toward_infinity",
                               shot_cfg, stop_on_line_crossing=True)
        blown = []
        for w, run in zip(ws, runs):
            if isinstance(run, Exception):
                raise run
            end = run.termination_right
            if end is not None and end.kind is TerminationKind.BLOW_UP:
                blown.append(True)
            elif w == 1.0 or (end is None and any(
                    e.kind is EventKind.CROSSED_LINE_R for e in run.events)):
                blown.append(False)
            else:
                raise RuntimeError(f"decision shot from w = {w!r} at the anchor "
                                   f"reached s = {shot_cfg.s_max!r} undecided")
        return np.array(blown)

    # grow a window around the trace until its ends split, then narrow it
    h, shots, split = 0.49 * tol, 0, False
    while not split or w_high - w_low > tol:
        if split:
            # enough starts to get below tol, plus one so rounding never forces another round
            k = min(_SHOTS, math.ceil((w_high - w_low) / tol))
            ws = np.unique(w_low + (w_high - w_low) * np.arange(1, k + 1) / (k + 1))
            ws = ws[(ws > w_low) & (ws < w_high)]
            if not ws.size:
                break
            # the first blow-up, w_high if none, and the global start below it
            j = int(np.argmax(np.append(blows_up(ws), True)))
            ends = np.concatenate(([w_low], ws, [w_high]))
            w_low, w_high = float(ends[j]), float(ends[j + 1])
        else:
            w_low, w_high = max(1.0, traced - h), traced + h
            ws = np.array([w_low, w_high])
            split = tuple(blows_up(ws)) == (False, True)
            if not split and h * 1e3 > 1.0:
                raise RuntimeError(f"backward-traced separatrix value {traced!r} is not "
                                   f"bracketed by [{w_low!r}, {w_high!r}] at the anchor")
            h *= 1e3
        shots += ws.size

    return SeparatrixResult(value=0.5 * (w_low + w_high), bracket=(w_low, w_high),
                            anchor=c, trajectory=traj, shots=shots)


def classify_batch(params: FlowParams, starts: Sequence[Tuple[float, float]],
                   cfg: IntegratorConfig = IntegratorConfig()
                   ) -> List[Union[SolutionClass, Exception]]:
    """classify() for every start, in one pass over the batch.

    Each start is checked and placed by region on its own.  The bowl is
    looked up once if any start lies in the inner strip, and the
    separatrix once if any lies in the upper region; each is read at all
    its starts' s0 in one call.  One batched bidirectional integration
    serves all the starts that need a trajectory, and their causal signs
    are taken together.

    Returns one entry per start: its SolutionClass, or the ValueError or
    RuntimeError that classify() would raise for it.  A lookup of a
    reference that fails puts its error into the slot of every start that
    needed it; a read refused at one start's s0 fails that start only.
    """
    _require_strip_form(params, "classify")
    out: List[Optional[Union[SolutionClass, Exception]]] = [None] * len(starts)
    pending = []    # (slot, init, tag, margin, margin_tol) of the starts to integrate
    against = {Region.INNER_STRIP: [], Region.GAMMA_PLUS: []}
    for i, (s0, w0) in enumerate(starts):
        try:
            init = _checked(float(s0), float(w0), cfg)
        except ValueError as exc:
            out[i] = exc
            continue
        region = region_of(init.w)
        if region is Region.BARRIER_PLUS or region is Region.BARRIER_MINUS:
            lim = 1.0 if region is Region.BARRIER_PLUS else -1.0
            tag = (SolutionClassTag.CONSTANT_PLUS if lim > 0
                   else SolutionClassTag.CONSTANT_MINUS)
            out[i] = SolutionClass(tag, init, lim, lim, (), None, causal_sign(params, lim))
        elif region is Region.GAMMA_MINUS:
            pending.append((i, init, SolutionClassTag.GAMMA_MINUS_BLOWUP, None, None))
        else:
            against[region].append((i, init))

    for region, group in against.items():
        if not group:
            continue
        strip = region is Region.INNER_STRIP
        try:
            ref = (compute_bowl(params, cfg) if strip
                   else compute_separatrix(params, cfg).trajectory)
        except (ValueError, RuntimeError) as exc:
            for i, _ in group:
                out[i] = exc
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
            pending.append((i, init, tag, margin, tol))

    trajs = integrate_bidirectional_batch(params, [init for _, init, *_ in pending], cfg)
    causal = iter(causal_signs(params, [t.w for t in trajs if not isinstance(t, Exception)]))
    for (i, init, tag, margin, tol), traj in zip(pending, trajs):
        out[i] = traj if isinstance(traj, Exception) else SolutionClass(
            tag, init, **_evidence(traj, next(causal)), margin=margin, margin_tol=tol)
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
    both ways, except for the two distinguished solutions themselves,
    whose canonical trajectories are reused.  A batch of one of
    classify_batch().
    """
    return _first(classify_batch(params, [(s0, w0)], cfg))


def classify_as_posed_batch(
        params: FlowParams, starts: Sequence[Tuple[float, float]],
        cfg: IntegratorConfig = IntegratorConfig()) -> List[Union[SolutionClass, Exception]]:
    """classify_as_posed() for every start, through one classify_batch()."""
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
    negates) come back for the equation as posed.
    """
    return _first(classify_as_posed_batch(params, [(s0, w0)], cfg))


def blowup_bound_as_posed(params: FlowParams, s0: float, w0: float) -> float:
    """comparison_blowup_bound() for a start of any sign pattern with barriers
    whose canonical image lies below the lower barrier."""
    canon, flip = params.canonical_strip()
    return comparison_blowup_bound(canon, s0, flip * w0)
