"""Core vocabulary for translating-soliton profile ODEs.

A translating soliton invariant under a one-parameter family of isometries
of a flat product (Euclidean or Lorentzian) reduces to a profile f(s) over
a single base coordinate s > 0 satisfying

    f''(s) = (et + ep * f'(s)**2) * (1 - f'(s) * h(s)),    h(s) = et * c / s,

where ep = +-1 is the metric sign of the profile direction, et = +-1 the
sign of the base direction, and c > 0 the fiber coefficient of the group
action (c = n - 1 for the rotational action on an n-dimensional base).
In first-order form w = f' the phase plane (s, w) carries the whole
classification: for et*ep = -1 the horizontal lines w = +-1 are invariant
barriers, and the curve w = s * et / c (where the second factor of the
right-hand side vanishes) is the locus of critical points of solutions.

Profiles that are not graphs over s are handled in the transposed "wing"
form alpha(y), with y the height coordinate:

    alpha''(y) = (ep + et * alpha'(y)**2) * (h(alpha(y)) - alpha'(y)).

This module holds the parameter and state types, the two right-hand
sides and the phase-plane bookkeeping (regions, critical line, concavity
at critical points).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# |w -+ 1| within this counts as sitting on a barrier (machine equality).
BARRIER_TOL = 1e-12

# |ep + et*w**2| below this counts as lightlike when reading causal type.
# Barrier-approaching slopes plateau at +-1 exactly in double precision,
# so this is a machine-noise floor, not a physical band.
LIGHTLIKE_TOL = 1e-13


def _scalar_or_array(out):
    """A 0-d result as a Python float; arrays pass through unchanged."""
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FlowParams:
    """Parameter bundle for one reduced profile equation.

    n is the dimension of the flat base, eps_prime the metric sign of the
    profile (graph) direction, eps_tilde the sign of the base coordinate
    direction, and fiber_coeff the coefficient c in h(s) = eps_tilde*c/s.
    fiber_coeff = None picks the rotational value n - 1.
    """

    n: int = 3
    eps_prime: int = -1
    eps_tilde: int = +1
    fiber_coeff: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"base dimension must be >= 2, got {self.n}")
        if self.eps_prime not in (-1, +1):
            raise ValueError(f"eps_prime must be +-1, got {self.eps_prime}")
        if self.eps_tilde not in (-1, +1):
            raise ValueError(f"eps_tilde must be +-1, got {self.eps_tilde}")
        if self.fiber_coeff is None:
            object.__setattr__(self, "fiber_coeff", float(self.n - 1))
        if not self.fiber_coeff > 0:
            raise ValueError(f"fiber_coeff must be > 0, got {self.fiber_coeff}")

    def h(self, s):
        """Mean-curvature term h(s) = eps_tilde * c / s of the orbit foliation."""
        return self.eps_tilde * self.fiber_coeff / s

    @property
    def has_barriers(self) -> bool:
        """True when w = +-1 are invariant lines (eps_tilde*eps_prime = -1)."""
        return self.eps_tilde * self.eps_prime == -1

    def canonical_strip(self) -> "tuple[FlowParams, int]":
        """Map onto the spacelike-rotational sign pattern (et=+1, ep=-1).

        Returns (params, flip) with flip = -1 when the profile slope must be
        negated (the timelike pattern et=-1, ep=+1 mirrors onto the canonical
        one under w -> -w).  Raises for sign patterns without barriers.
        """
        if self.eps_tilde == +1 and self.eps_prime == -1:
            return self, +1
        if self.eps_tilde == -1 and self.eps_prime == +1:
            return FlowParams(self.n, eps_prime=-1, eps_tilde=+1,
                              fiber_coeff=self.fiber_coeff), -1
        raise ValueError("no strip structure: need eps_tilde*eps_prime = -1")


def rotational(n: int = 3, eps_prime: int = -1) -> FlowParams:
    """Parameters for the rotation-invariant reduction on an n-dimensional base."""
    return FlowParams(n=n, eps_prime=eps_prime, eps_tilde=+1, fiber_coeff=n - 1)


def boost(n: int = 2, region: str = "spacelike", strict_fiber: bool = False) -> FlowParams:
    """Parameters for the boost-invariant reduction on a Lorentzian base.

    region selects the side of the lightcone the orbits foliate: "spacelike"
    (radial coordinate is spacelike, eps_tilde = +1) or "timelike".  The
    profile direction is spacelike either way (eps_prime = +1).  The default
    fiber coefficient n - 1 comes from recomputing the divergence of the
    radial position field; strict_fiber = True forces the coefficient 1
    instead.  The two agree on a two-dimensional base.
    """
    if region not in ("spacelike", "timelike"):
        raise ValueError(f"region must be 'spacelike' or 'timelike', got {region!r}")
    c = 1.0 if strict_fiber else float(n - 1)
    return FlowParams(n=n, eps_prime=+1,
                      eps_tilde=+1 if region == "spacelike" else -1,
                      fiber_coeff=c)


class PhaseState(NamedTuple):
    """A point (s, w) of the phase plane, w = f'(s)."""

    s: float
    w: float


class Region(Enum):
    """Where a phase point sits relative to the barrier lines w = +-1."""

    INNER_STRIP = "inner_strip"
    GAMMA_PLUS = "gamma_plus"
    GAMMA_MINUS = "gamma_minus"
    BARRIER_PLUS = "barrier_plus"
    BARRIER_MINUS = "barrier_minus"


def region_of(w: float) -> Region:
    """Classify a slope value against the barriers, with a machine-equality
    band of BARRIER_TOL."""
    if not np.isfinite(w):
        raise ValueError(f"slope must be finite, got {w}")
    if abs(w - 1.0) <= BARRIER_TOL:
        return Region.BARRIER_PLUS
    if abs(w + 1.0) <= BARRIER_TOL:
        return Region.BARRIER_MINUS
    if w > 1.0:
        return Region.GAMMA_PLUS
    if w < -1.0:
        return Region.GAMMA_MINUS
    return Region.INNER_STRIP


def rhs(params: FlowParams, s, w):
    """Phase-plane right-hand side w'(s) = (et + ep*w^2) * (1 - w*h(s)).

    Vectorized over s and w; s must be positive.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("base coordinate s must be positive")
    w = np.asarray(w, dtype=float)
    val = (params.eps_tilde + params.eps_prime * w * w) * (1.0 - w * params.h(s))
    return _scalar_or_array(val)


def rhs_wing(params: FlowParams, alpha, alpha_prime):
    """Wing-form right-hand side alpha''(y) = (ep + et*a'^2) * (h(alpha) - a').

    Vectorized; alpha must be positive.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0.0):
        raise ValueError("wing profile alpha must be positive")
    ap = np.asarray(alpha_prime, dtype=float)
    val = (params.eps_prime + params.eps_tilde * ap * ap) * (params.h(alpha) - ap)
    return _scalar_or_array(val)


def critical_line(params: FlowParams, s):
    """Slope on the critical locus: the w with 1 - w*h(s) = 0, i.e. w = s*et/c."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("base coordinate s must be positive")
    val = s * params.eps_tilde / params.fiber_coeff
    return _scalar_or_array(val)


def critical_concavity(params: FlowParams, s1: float) -> float:
    """Second derivative w''(s1) of a solution at a critical point s1.

    On the critical line the first factor survives and only the derivative
    of (1 - w h) contributes: w'' = (et + ep*w1^2) * (-h'(s1)*w1) with
    w1 = critical_line(s1).  Positive means the critical point is a strict
    minimum of w, negative a strict maximum, zero only on a barrier.
    """
    if s1 <= 0.0:
        raise ValueError("base coordinate s must be positive")
    w1 = critical_line(params, s1)
    dh = -params.eps_tilde * params.fiber_coeff / (s1 * s1)
    return (params.eps_tilde + params.eps_prime * w1 * w1) * (-dh * w1)


def causal_signs(params: FlowParams, ws: Sequence) -> List[int]:
    """Causal type of the graph along each slope sample w of ws, in one
    pass over them all: per w the sign of ep + et*w^2.

    Gives +1 (timelike) or -1 (spacelike) when every sample that is
    numerically distinguishable from the lightlike locus agrees, else 0
    (mixed, entirely lightlike as for the barrier constants, or empty).
    Barrier-asymptotic samples sit at +-1 exactly in double precision and,
    like every sample within LIGHTLIKE_TOL of the locus, are ignored
    rather than letting them mask the open-region sign.
    """
    ws = [np.asarray(w, dtype=float).ravel() for w in ws]
    sizes = np.array([w.size for w in ws], dtype=np.intp)
    pos, neg = np.zeros(sizes.size, dtype=bool), np.zeros(sizes.size, dtype=bool)
    full = sizes > 0
    if full.any():
        with np.errstate(over="ignore"):    # a slope near a pole squares to inf
            q = params.eps_prime + params.eps_tilde * np.concatenate(ws) ** 2
        at = (np.cumsum(sizes) - sizes)[full]
        pos[full] = np.logical_or.reduceat(q > LIGHTLIKE_TOL, at)
        neg[full] = np.logical_or.reduceat(q < -LIGHTLIKE_TOL, at)
    return np.where(pos == neg, 0, np.where(pos, 1, -1)).tolist()


def causal_sign(params: FlowParams, w) -> int:
    """causal_signs() of one slope sample w, an array or a scalar."""
    return causal_signs(params, [w])[0]


class TerminationKind(Enum):
    """Why an integration stopped at one end of its span."""

    BLOW_UP = "blow_up"
    DOMAIN_BOUNDARY_ZERO = "domain_boundary_zero"
    REACHED_S_MAX = "reached_s_max"


@dataclass(frozen=True)
class Termination:
    """Endpoint record: the kind plus the location/value evidence.

    For BLOW_UP, s is the pole location, s(0) in the chart s(p) of
    p = 1/w, and sign the direction (+1 for w -> +inf); the trajectory's
    last sample there sits at |w| = 1e6, about 1e-12 short of the pole.
    For the other kinds value carries the final slope.
    """

    kind: TerminationKind
    s: Optional[float] = None
    value: Optional[float] = None
    sign: Optional[int] = None


@dataclass(frozen=True)
class SolverStats:
    """Cost of an integration: accepted and rejected steps, rhs
    evaluations, and closed steps.

    Adding two records sums them.  A stepped trajectory carries the sum
    over the arcs it joins, both charts of each lane and both directions
    of a bidirectional run, as merge_bidirectional sums the records of
    the trajectories it joins.  A trajectory no stepper produced (hand-built
    samples, a series part) carries zeros.  A lane that settles near a
    barrier w = +-1 (it lands on it exactly, or its second-order tail
    stays within abs_tol^(1/3) of it up to the bound; where 2c is not a
    whole number up to 256, its linear tail within sqrt(abs_tol)) ends in
    one closed step to its bound, written from the tail's formula, not
    stepped.  closed counts these steps.  Each is also one attempt and one
    accepted step, with the rhs_evals of a stepped one, so accepted is
    still the number of sampling intervals.  A start on a barrier lands on
    its first step.
    """

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    closed: int = 0

    def __add__(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(self.accepted + other.accepted,
                           self.rejected + other.rejected,
                           self.rhs_evals + other.rhs_evals,
                           self.closed + other.closed)


@dataclass(frozen=True)
class Trajectory:
    """A solution arc of the phase-plane equation.

    Samples are the accepted integration nodes, strictly increasing in s.
    dense, when present, evaluates w(s) anywhere inside the sampled span.
    termination_left/right may be None at an end that is simply the start
    of a one-sided integration.  stats is the solver cost of producing
    it.  Trajectories are immutable: s and w are read-only copies of the
    arrays passed in, and events is a tuple.
    """

    params: FlowParams
    s: np.ndarray
    w: np.ndarray
    termination_left: Optional[Termination] = None
    termination_right: Optional[Termination] = None
    events: Tuple = ()
    dense: Optional[Callable] = None
    stats: SolverStats = SolverStats()

    def __post_init__(self) -> None:
        s = np.array(self.s, dtype=float)
        w = np.array(self.w, dtype=float)
        if s.shape != w.shape:
            raise ValueError("sample arrays s and w must have equal shape")
        if s.size >= 2 and not np.all(np.diff(s) > 0.0):
            raise ValueError("samples must be strictly increasing in s")
        s.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def s_span(self) -> "tuple[float, float]":
        return float(self.s[0]), float(self.s[-1])

    def causal_sign(self) -> int:
        """Causal type over all samples: +1, -1, or 0 for mixed/lightlike."""
        return causal_sign(self.params, self.w)

    def w_at(self, s):
        """Evaluate the slope at interior points, preferring dense output."""
        if self.dense is not None:
            return self.dense(s)
        return np.interp(s, self.s, self.w)
