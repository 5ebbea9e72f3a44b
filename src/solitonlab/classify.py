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
integrates all of them in one lockstep call per direction and returns
one verdict, or that start's error, per start.  The scalar functions are
batches of one.

The separatrix is traced backward.  Forward shooting cannot hold it for
long (nearby solutions diverge like exp(s^2/2c)), so it is integrated
backward from a far-field start seeded on the asymptote; backward
integration contracts onto the separatrix at the same exponential rate.
The traced value at the anchor s = c, where the critical line crosses
the barrier, seeds a narrow window that forward shots must split into
global and blow-up.  The window is narrowed by k-section: each round
shoots 64 starts spread over it in one batched call, and the first
blow-up next to a global start is the new window, 63 or 65 times
narrower.  The first round includes both window ends, so it also checks
that they split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    FlowParams,
    PhaseState,
    Region,
    Termination,
    TerminationKind,
    Trajectory,
    causal_sign,
    region_of,
)
from .engine import (
    EventKind,
    IntegratorConfig,
    _first,
    _series_anchored,
    bowl_start,
    comparison_blowup_bound,
    integrate,
    integrate_batch,
    merge_bidirectional,
)

# starts per k-section round of compute_separatrix
_SHOTS = 64


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
    (s_left, s_right); at_infinity is +-inf when the right end blew up,
    with the pole recorded in blowup as (s*, sign).
    """

    at_zero: float
    at_infinity: float
    s_left: float
    s_right: float
    blowup: Optional[Tuple[float, int]]


@dataclass(frozen=True)
class SolutionClass:
    """Classification verdict plus the numeric evidence that backs it."""

    tag: SolutionClassTag
    init: PhaseState
    limit_at_zero: float
    limit_at_infinity: float
    critical_points: Tuple[float, ...]
    blowup: Optional[Tuple[float, int]]
    causal: int


@dataclass(frozen=True)
class SeparatrixResult:
    """Threshold solution data at the anchor, with the traced trajectory.

    value is the k-section midpoint for w(anchor); bracket is the final
    (global, blow-up) pair around it of width <= the requested tolerance.
    """

    value: float
    bracket: Tuple[float, float]
    anchor: float
    trajectory: Trajectory

    def asymptote_defect(self, s_from: float) -> float:
        """sup over samples s >= s_from of |c*w(s) - s|, the asymptote gap."""
        c = self.trajectory.params.fiber_coeff
        m = self.trajectory.s >= s_from
        if not np.any(m):
            raise ValueError(f"no samples at or beyond s = {s_from}")
        return float(np.max(np.abs(c * self.trajectory.w[m] - self.trajectory.s[m])))


def _require_strip_form(params: FlowParams, what: str) -> None:
    if not (params.eps_tilde == +1 and params.eps_prime == -1):
        raise ValueError(
            f"{what} requires the spacelike strip form (et=+1, ep=-1); "
            "map timelike-boost parameters through canonical_strip() first")


@lru_cache(maxsize=32)
def compute_bowl(params: FlowParams, cfg: IntegratorConfig = IntegratorConfig(),
                 s_start: float = 1e-4, order: int = 13) -> Trajectory:
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
    """integrate_bidirectional() for every start, one batched call per
    direction; a start that fails gets its exception in its slot."""
    downs = integrate_batch(params, starts, "toward_zero", cfg)
    ups = integrate_batch(params, starts, "toward_infinity", cfg)
    return [d if isinstance(d, Exception) else u if isinstance(u, Exception)
            else merge_bidirectional(d, u) for d, u in zip(downs, ups)]


def integrate_bidirectional(params: FlowParams, s0: float, w0: float,
                            cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Trajectory through (s0, w0) over the full configured span."""
    return _first(integrate_bidirectional_batch(params, [(s0, w0)], cfg))


def limits_report(traj: Trajectory) -> LimitsReport:
    """Endpoint values and blow-up data of a (usually bidirectional) trajectory."""
    blow: Optional[Tuple[float, int]] = None
    at_inf = float(traj.w[-1])
    s_right = float(traj.s[-1])
    term = traj.termination_right
    if term is not None and term.kind is TerminationKind.BLOW_UP:
        blow = (float(term.s), int(term.sign))
        at_inf = math.inf * term.sign
        s_right = float(term.s)
    return LimitsReport(at_zero=float(traj.w[0]), at_infinity=at_inf,
                        s_left=float(traj.s[0]), s_right=s_right, blowup=blow)


def _critical_points(traj: Trajectory) -> Tuple[float, ...]:
    pts = sorted(e.s for e in traj.events if e.kind is EventKind.CROSSED_LINE_R)
    out: list[float] = []
    for s in pts:
        if not out or abs(s - out[-1]) > 1e-9 * max(1.0, abs(s)):
            out.append(s)
    return tuple(out)


def _evidence(traj: Trajectory) -> dict:
    rep = limits_report(traj)
    return dict(limit_at_zero=rep.at_zero, limit_at_infinity=rep.at_infinity,
                critical_points=_critical_points(traj), blowup=rep.blowup,
                causal=traj.causal_sign())


@lru_cache(maxsize=8)
def compute_separatrix(params: FlowParams, cfg: IntegratorConfig = IntegratorConfig(),
                       tol: float = 1e-10) -> SeparatrixResult:
    """Trace the upper-region threshold solution, then bracket it.

    The reported trajectory is integrated backward from a far-field start
    at cfg.s_max on the asymptote w = (s + defect)/c, which contracts onto
    the separatrix.  Its value at the anchor s = c (where the critical
    line meets the barrier) seeds a window of +-1e3*tol, clipped below at
    the barrier w = 1, which is a global solution.  k-section narrows the
    window to width tol: each round shoots 64 starts at once (the first
    round includes the window ends, which must shoot global and blow-up)
    and keeps the step from the last global start below the first
    blow-up.  Results are cached.
    """
    _require_strip_form(params, "compute_separatrix")
    c = params.fiber_coeff
    if not cfg.s_min_eps < c < cfg.s_max:
        raise ValueError("anchor s = c must lie inside the integration span")

    s_far = cfg.s_max
    w_far = s_far / c + s_far / (s_far * s_far - c * c)
    back = integrate(params, (s_far, w_far), "toward_zero", cfg)
    traced = float(back.w_at(c))

    def blows_up(ws: np.ndarray) -> np.ndarray:
        # crossing below the critical line, or coasting to s_max, is global
        runs = integrate_batch(params, [(c, w) for w in ws], "toward_infinity", cfg,
                               stop_on_line_crossing=True)
        for run in runs:
            if isinstance(run, Exception):
                raise run
        return np.array([run.termination_right is not None
                         and run.termination_right.kind is TerminationKind.BLOW_UP
                         for run in runs])

    def first_blowup(ws: np.ndarray, blown: np.ndarray) -> Tuple[float, float]:
        k = int(np.argmax(blown))    # a global start sits below it
        return float(ws[k - 1]), float(ws[k])

    w_low, w_high = max(1.0, traced - 1e3 * tol), traced + 1e3 * tol
    ws = np.linspace(w_low, w_high, _SHOTS)
    blown = blows_up(ws)
    if blown[0] or not blown[-1]:
        raise RuntimeError(
            f"backward-traced separatrix value {traced!r} is not bracketed "
            f"by [{w_low!r}, {w_high!r}] at the anchor")
    w_low, w_high = first_blowup(ws, blown)
    while w_high - w_low > tol:
        inner = np.unique(w_low + (w_high - w_low) * np.arange(1, _SHOTS + 1) / (_SHOTS + 1))
        inner = inner[(inner > w_low) & (inner < w_high)]
        if not inner.size:
            break
        w_low, w_high = first_blowup(np.concatenate(([w_low], inner, [w_high])),
                                     np.concatenate(([False], blows_up(inner), [True])))

    traj = Trajectory(params, back.s, back.w,
                      termination_left=back.termination_left,
                      termination_right=Termination(TerminationKind.REACHED_S_MAX,
                                                    s=s_far, value=w_far),
                      events=back.events, dense=back.dense, stats=back.stats)
    return SeparatrixResult(value=0.5 * (w_low + w_high), bracket=(w_low, w_high),
                            anchor=c, trajectory=traj)


def classify_batch(params: FlowParams, starts: Sequence[Tuple[float, float]],
                   cfg: IntegratorConfig = IntegratorConfig(),
                   bowl_tol: float = 1e-9,
                   separatrix_tol: float = 1e-9) -> List[Union[SolutionClass, Exception]]:
    """classify() for every start, with one batched bidirectional
    integration for all the starts that need a trajectory.

    Returns one entry per start: its SolutionClass, or the ValueError or
    RuntimeError that classify() would raise for it.
    """
    _require_strip_form(params, "classify")
    out: List[Optional[Union[SolutionClass, Exception]]] = [None] * len(starts)
    pending = []
    for i, (s0, w0) in enumerate(starts):
        try:
            verdict = _verdict(params, float(s0), float(w0), cfg, bowl_tol,
                               separatrix_tol)
        except (ValueError, RuntimeError) as exc:
            verdict = exc
        if isinstance(verdict, tuple):
            pending.append((i, verdict))
        else:
            out[i] = verdict
    trajs = integrate_bidirectional_batch(params, [init for _, (init, _) in pending], cfg)
    for (i, (init, tag)), traj in zip(pending, trajs):
        out[i] = traj if isinstance(traj, Exception) else SolutionClass(
            tag, init, **_evidence(traj))
    return out


def _verdict(params: FlowParams, s0: float, w0: float, cfg: IntegratorConfig,
             bowl_tol: float, separatrix_tol: float):
    """The SolutionClass of a start that needs no integration of its own,
    else its (init, tag) for the batched integration."""
    if not (s0 > 0.0 and math.isfinite(s0)):
        raise ValueError(f"initial s must be positive and finite, got {s0}")
    if not math.isfinite(w0):
        raise ValueError(f"initial slope must be finite, got {w0}")
    if not 2 * cfg.s_min_eps <= s0 <= 0.99 * cfg.s_max:
        raise ValueError("initial s must sit inside the configured span; "
                         "widen IntegratorConfig(s_max, s_min_eps) instead")
    init = PhaseState(s0, w0)

    region = region_of(w0)
    if region is Region.BARRIER_PLUS or region is Region.BARRIER_MINUS:
        lim = 1.0 if region is Region.BARRIER_PLUS else -1.0
        tag = (SolutionClassTag.CONSTANT_PLUS if lim > 0
               else SolutionClassTag.CONSTANT_MINUS)
        return SolutionClass(tag, init, lim, lim, (), None,
                             causal_sign(params, lim))

    if region is Region.INNER_STRIP:
        bowl = compute_bowl(params, cfg)
        margin = w0 - float(bowl.w_at(s0))
        if abs(margin) <= bowl_tol:
            return SolutionClass(SolutionClassTag.BOWL, init, **_evidence(bowl))
        return init, (SolutionClassTag.BELOW_BOWL if margin < 0
                      else SolutionClassTag.ABOVE_BOWL)

    if region is Region.GAMMA_MINUS:
        return init, SolutionClassTag.GAMMA_MINUS_BLOWUP

    sep = compute_separatrix(params, cfg)
    threshold = float(sep.trajectory.w_at(s0))
    margin = w0 - threshold
    if abs(margin) <= separatrix_tol * max(1.0, abs(threshold)):
        return SolutionClass(SolutionClassTag.SEPARATRIX, init,
                             **_evidence(sep.trajectory))
    return init, (SolutionClassTag.GAMMA_PLUS_GLOBAL if margin < 0
                  else SolutionClassTag.GAMMA_PLUS_BLOWUP)


def classify(params: FlowParams, s0: float, w0: float,
             cfg: IntegratorConfig = IntegratorConfig(),
             bowl_tol: float = 1e-9,
             separatrix_tol: float = 1e-9) -> SolutionClass:
    """Name the solution through (s0, w0) and gather its evidence.

    Strip initial conditions are compared against the bowl at s0; upper
    outer ones against the separatrix.  Evidence (endpoint limits,
    critical points, blow-up pole, causal type) comes from integrating
    both ways, except for the two distinguished solutions themselves,
    whose canonical trajectories are reused.  A batch of one of
    classify_batch().
    """
    return _first(classify_batch(params, [(s0, w0)], cfg, bowl_tol, separatrix_tol))


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
