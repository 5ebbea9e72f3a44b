"""Seeded op lists for the three benchmark workloads.

A workload is one "round": a fixed list of CLI invocations drawn from the
seed.  The runner repeats the round until its time is used up, so every
repeat does identical work and per-op counts repeat exactly.  The seed
only jitters grids and sizes inside narrow ranges and shuffles the order,
so rounds from different seeds cost about the same.

* portrait: serial `portrait` calls on 8x8 grids with the bowl and
  separatrix caches warm, as in a notebook session (10 per round: the
  three strip-form kinds twice, the four gamma kinds once).  Nearly all time is
  in per-trajectory integration; a batched integrator acts here.
* separatrix_cold: `separatrix` reports and anchor `classify` calls, each
  with the bowl/separatrix caches cleared first, as a fresh CLI process
  sees them.  This is the sequential bisection: a few long single-lane
  shots rather than many short bidirectional ones.
* surfaces: cold single-shot `verify`, `mesh` and `hybrid` builds, where
  the integrator is a minor share and verify, geometry and CLI formatting
  dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from reference import load_reference

GRID = 8


@dataclass(frozen=True)
class Op:
    """One CLI invocation, with what its checker needs to judge the output."""

    kind: str
    argv: Tuple[str, ...]
    cold: bool
    expect: dict


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[random.Random], Tuple[Op, ...]]
    warmup: Tuple[Tuple[str, ...], ...]


def _grid(lo: float, hi: float) -> str:
    return f"{lo!r}:{hi!r}:{GRID}"


# (region, n, flip, (et, ep, c) of the equation as posed, w0 range)
_STRIP_KINDS = (
    ("strip", 2, +1, (+1, -1, 1.0), (-0.95, 0.95)),
    ("strip", 3, +1, (+1, -1, 2.0), (-0.95, 0.95)),
    # boost timelike side: classified on the strip after the slope flip
    ("timelike_T", 2, -1, (-1, +1, 1.0), (-0.95, 0.95)),
)
_GAMMA_KINDS = (
    ("gamma_plus", 2, +1, (+1, -1, 1.0), (1.05, 3.0)),
    ("gamma_plus", 3, +1, (+1, -1, 2.0), (1.05, 3.0)),
    ("gamma_minus", 2, +1, (+1, -1, 1.0), (-3.0, -1.05)),
    ("gamma_minus", 3, +1, (+1, -1, 2.0), (-3.0, -1.05)),
)
# Strip grids cost about 2/3 of gamma grids.  With each kind once, the
# median op was the lone gamma_plus n=2 grid between the two cost clusters,
# and op_p50_s moved 15% with it from run to run.  Each strip kind runs
# twice, on two seeded grids, so the median falls inside the strip cluster.
_PORTRAIT_KINDS = _STRIP_KINDS + _STRIP_KINDS + _GAMMA_KINDS


def portrait_round(rng: random.Random) -> Tuple[Op, ...]:
    ops = []
    for region, n, flip, (et, ep, c), (w_lo, w_hi) in _PORTRAIT_KINDS:
        s_lo, s_hi = rng.uniform(0.4, 0.6), rng.uniform(3.8, 4.2)
        w_lo, w_hi = w_lo + rng.uniform(0.0, 0.04), w_hi - rng.uniform(0.0, 0.04)
        action = "boost" if region == "timelike_T" else "so_n"
        argv = ("portrait", "--action", action, "--region", region,
                "--n", str(n), "--s0-grid", _grid(s_lo, s_hi),
                "--w0-grid=" + _grid(w_lo, w_hi))
        ops.append(Op("portrait", argv, cold=False, expect=dict(
            region=region, flip=flip, et=et, ep=ep, c=c, s_max=100.0,
            count=GRID * GRID, probe=rng.randrange(GRID * GRID))))
    rng.shuffle(ops)
    return tuple(ops)


# One 1x1 portrait per cached object the round reads, through the same
# call path as the ops: compute_bowl(P) and compute_bowl(P, cfg) are
# different cache keys, so warming through the Python API would miss.
PORTRAIT_WARMUP = tuple(
    ("portrait", "--action", action, "--region", region, "--n", str(n),
     "--s0-grid", "1:1:1", f"--w0-grid={w}:{w}:1")
    for action, region, n, w in (("so_n", "strip", 2, 0.5),
                                 ("so_n", "strip", 3, 0.5),
                                 ("so_n", "gamma_plus", 2, 2.0),
                                 ("so_n", "gamma_plus", 3, 2.0),
                                 ("boost", "timelike_T", 2, 0.5)))


def separatrix_round(rng: random.Random) -> Tuple[Op, ...]:
    ref = load_reference()
    ops = [Op("separatrix", ("separatrix", "--n", str(n), "--s-max", s_max),
              cold=True, expect=dict(n=n, tol=1e-10))
           for n in (2, 3, 4, 5) for s_max in ("100", "200")]
    # two starts above the threshold and two below, so every seed has the same mix
    signs = [-1, -1, +1, +1]
    rng.shuffle(signs)
    for n, sign in zip((2, 3, 4, 5), signs):
        w0 = ref[n] + sign * 10.0 ** rng.uniform(-6.0, -3.0)
        tag = "gamma_plus_blowup" if sign > 0 else "gamma_plus_global"
        ops.append(Op("classify", ("classify", "--n", str(n), "--s0", str(n - 1),
                                   f"--w0={w0!r}", "--json"),
                      cold=True, expect=dict(tag=tag, s0=float(n - 1), w0=w0)))
    rng.shuffle(ops)
    return tuple(ops)


def surfaces_round(rng: random.Random) -> Tuple[Op, ...]:
    mismatch_101 = rng.random() < 0.5
    ops = [
        Op("verify", ("verify", "bowl", "--n", "2"), cold=True, expect=dict(rc=0)),
        Op("verify", ("verify", "bowl", "--n", "3", "--h", "0.16,0.08,0.04"),
           cold=True, expect=dict(rc=0)),
    ]
    # exactly one of the two hybrid verifications is the --mismatch control
    for nodes, mismatch in ((101, mismatch_101), (201, not mismatch_101)):
        argv = ("verify", "hybrid", "--nodes", str(nodes))
        ops.append(Op("verify", argv + (("--mismatch",) if mismatch else ()),
                      cold=True, expect=dict(rc=1 if mismatch else 0)))
    t, p = rng.randint(60, 64), rng.randint(190, 200)
    ops.append(Op("mesh", ("mesh", "bowl", "--theta-samples", str(t),
                           "--profile-samples", str(p)),
                  cold=True, expect=dict(verts=t * p, faces=2 * t * (p - 1))))
    t, p = rng.randint(60, 64), rng.randint(190, 200)
    s0 = rng.uniform(0.8, 1.2)
    ops.append(Op("mesh", ("mesh", "spindle", "--s0", repr(s0),
                           "--theta-samples", str(t), "--profile-samples", str(p)),
                  cold=True, expect=dict(verts=t * p + 2,
                                         faces=2 * t * (p - 1) + 2 * t)))
    # The hybrid grids stay at the CLI default, because their cost grows with
    # nodes^2.  mesh hybrid is the slowest op and runs twice per round, so
    # op_p90_s falls near the middle of its samples, not in their tail.
    m = 201
    for extent in (2.0, rng.uniform(1.5, 2.0)):
        ops.append(Op("mesh", ("mesh", "hybrid", "--nodes", str(m),
                               "--extent", repr(extent)),
                      cold=True, expect=dict(verts=m * m, faces=2 * (m - 1) ** 2)))
    # The CSV build runs twice too: it is the middle op by cost, and with
    # one copy the median sat in the gaps next to it.
    for extent in (2.0, rng.uniform(1.5, 2.0)):
        ops.append(Op("hybrid", ("hybrid", "--nodes", str(m), "--extent", repr(extent)),
                      cold=True, expect=dict(nodes=m)))
    rng.shuffle(ops)
    return tuple(ops)


WORKLOADS: Dict[str, Workload] = {
    "portrait": Workload(portrait_round, PORTRAIT_WARMUP),
    # cold workloads keep nothing from set-up; it only pays lazy first-call costs
    "separatrix_cold": Workload(separatrix_round,
                                (("classify", "--n", "2", "--s0", "1", "--w0=0.5"),)),
    "surfaces": Workload(surfaces_round, (("verify", "bowl", "--n", "2"),)),
}
