"""Independent scipy LSODA solutions of the phase equation, and the separatrix table.

Nothing here imports solitonlab: the checkers use these solutions to judge the
package's answers, so they must not share its integrator (DOP853 with a
log-s substitution and extrapolated poles).

    w'(s) = (et + ep w^2) (1 - w et c / s)

Run as a script to rebuild separatrix_ref.json:

    python3 bench/reference.py
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.integrate import LSODA, solve_ivp

REF_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "separatrix_ref.json")
ESCAPE = 1e6
RTOL, ATOL = 1e-12, 1e-14


def _rhs(et: int, ep: int, c: float):
    def f(s, y):
        w = y[0]
        return [(et + ep * w * w) * (1.0 - w * et * c / s)]

    return f


def forward_shot(et: int, ep: int, c: float, s0: float, w0: float,
                 s_max: float = 100.0,
                 stop_below_line: bool = False) -> tuple[str, float]:
    """Integrate forward from (s0, w0) with LSODA; return (outcome, s_end).

    outcome is "blowup" when |w| reaches ESCAPE (or the solver dies with |w|
    already large), "below_line" when stop_below_line is set and w drops
    under the critical line w = et s / c, and "global" when s_max is
    reached.  s_end is where the shot stopped.  The tests run on accepted
    steps: event location through the dense output is unreliable next to a
    pole, and near a pole the steps are far shorter than any tolerance here.
    """
    solver = LSODA(_rhs(et, ep, c), s0, [w0], s_max, rtol=RTOL, atol=ATOL)
    while solver.status == "running":
        solver.step()
        s, w = float(solver.t), float(solver.y[0])
        if not abs(w) < ESCAPE:
            return "blowup", s
        if stop_below_line and w < et * s / c:
            return "below_line", s
    if solver.status == "failed":
        if abs(solver.y[0]) > 1e3:
            return "blowup", float(solver.t)
        raise RuntimeError(f"LSODA failed at s={solver.t}")
    return "global", float(solver.t)


def _profile(c: float, s_start: float, w_start: float, s_values) -> np.ndarray:
    s_values = np.asarray(s_values, dtype=float)
    s_end = s_values.max() if s_start < s_values.min() else s_values.min()
    sol = solve_ivp(_rhs(+1, -1, c), (s_start, s_end), [w_start], method="LSODA",
                    rtol=RTOL, atol=ATOL, dense_output=True)
    if sol.status != 0:
        raise RuntimeError(f"LSODA failed at s={sol.t[-1]}: {sol.message}")
    return sol.sol(s_values)[0]


def bowl_slope(c: float, s_values) -> np.ndarray:
    """The bowl's w(s) on the canonical strip form (et = +1, ep = -1).

    Forward from s = 1e-3, started on the two-term center series
    w = b0 s + b1 s^3 (truncation ~1e-15 there); forward integration is
    stable toward the bowl.
    """
    s0 = 1e-3
    b0 = 1.0 / (1.0 + c)
    b1 = -(b0 ** 2 - c * b0 ** 3) / (3.0 + c)
    return _profile(c, s0, b0 * s0 + b1 * s0 ** 3, s_values)


def separatrix_slope(c: float, s_values, s_far: float = 12.0) -> np.ndarray:
    """The separatrix's w(s) on the canonical strip form.

    Backward from the critical line w = s/c at s_far: nearby solutions
    contract onto the separatrix like exp(-(s_far^2 - s^2) / 2c) going
    backward, so the start's O(1/s) offset is gone long before s_values.
    """
    return _profile(c, s_far, s_far / c, s_values)


def separatrix_anchor(n: int, tol: float = 1e-11) -> tuple[float, float]:
    """Bracket (global, blow-up) of w(c) on the rotational separatrix, c = n - 1.

    Shooting bisection on the canonical strip form (et = +1, ep = -1): a
    shot that falls under the critical line exists globally, one that
    escapes blows up.
    """
    c = float(n - 1)

    def blows_up(w: float) -> bool:
        return forward_shot(+1, -1, c, c, w, stop_below_line=True)[0] == "blowup"

    lo, hi = 1.0 + 1e-9, 2.0
    while blows_up(lo):
        lo = 1.0 + (lo - 1.0) / 10.0
    while not blows_up(hi):
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if blows_up(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def load_reference() -> dict:
    """{n: separatrix value at the anchor s = n - 1} from the committed table."""
    with open(REF_PATH) as fh:
        table = json.load(fh)
    return {int(k): float(v["value"]) for k, v in table["anchor_values"].items()}


def main() -> None:
    rows = {}
    for n in (2, 3, 4, 5):
        lo, hi = separatrix_anchor(n)
        rows[str(n)] = {"anchor": float(n - 1), "value": 0.5 * (lo + hi),
                        "bracket": [lo, hi]}
        print(n, rows[str(n)], flush=True)
    table = {
        "method": ("scipy LSODA shooting bisection at s = n - 1, forward to "
                   "s = 100; shots that fall under w = s/c count as global, "
                   f"|w| >= {ESCAPE:g} as blow-up; rtol={RTOL:g}, "
                   f"atol={ATOL:g}; bracket width <= 1e-11"),
        "anchor_values": rows,
    }
    with open(REF_PATH, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
