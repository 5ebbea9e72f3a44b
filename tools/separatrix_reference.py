"""A 30-digit table of the rotational separatrix, from mpmath's Taylor-series
ODE solver.

Nothing here imports solitonlab: the table judges the package's separatrix,
so it must share neither its far-field series code nor its integrator.  On
the strip form (et = +1, ep = -1, h(s) = c/s) the separatrix is

    w' = (1 - w^2) (1 - c w / s),    w ~ s/c + sum_{k>=1} a_k s^(1-2k),

with a_1 = 1 and a_k = (c(3 - 2k) + c^2) a_{k-1} - 2c sum_{i+j=k} a_i a_j
- c^2 sum_{i+j+l=k} a_i a_j a_l.  For each far start S the series is summed
at S until its terms fall below the working precision (they are still
falling there: S is far beyond where the divergence sets in), and mpmath's
odefun integrates backward from (S, w(S)), as y(u) = w(S - u) forward in u.
Going backward, nearby solutions contract onto the separatrix like
exp(-(S^2 - s^2) / 2c), so two far starts that agree to the table's digits
vouch for each other.

Run by hand (about a minute) to rebuild tests/data/separatrix_30digit.json:

    python3 tools/separatrix_reference.py
"""

from __future__ import annotations

import json
import os
import time

import mpmath as mp

TABLE_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "tests", "data", "separatrix_30digit.json")
# working precision, the digits each value is written and checked to, and the far starts
DPS, DIGITS, FAR_STARTS = 45, 30, (40, 90)
NS = (2, 3, 4, 5)


def series_value(c, S):
    """The far-field series s/c + sum a_k s^(1-2k) at s = S, summed until
    three terms in a row fall below the working precision (a single a_k
    can vanish: a_2 = c^2 - 3c)."""
    a, total, k, small = [mp.mpf(0), mp.mpf(1)], S / c + 1 / S, 1, 0
    floor = mp.mpf(10) ** (-DPS - 5) * abs(total)
    while small < 3:
        k += 1
        sq = sum(a[i] * a[k - i] for i in range(1, k))
        cube = sum(a[i] * a[j] * a[k - i - j] for i in range(1, k) for j in range(1, k - i))
        a.append((c * (3 - 2 * k) + c * c) * a[k - 1] - 2 * c * sq - c * c * cube)
        term = a[k] * S ** (1 - 2 * k)
        total += term
        small = small + 1 if abs(term) < floor else 0
        if k > 400:
            raise RuntimeError(f"far-field series at S = {S} did not converge to precision")
    return total


def separatrix_values(c, S, s_values):
    """w(s) on the separatrix for each s in s_values, integrated back from S."""
    y = mp.odefun(lambda u, w: -(1 - w * w) * (1 - c * w / (S - u)), 0, series_value(c, S))
    return {s: y(S - s) for s in sorted(s_values, reverse=True)}


def main() -> None:
    mp.mp.dps = DPS
    entries = []
    for n in NS:
        c = mp.mpf(n - 1)
        # the anchor c, half and twice it, and s = 6
        points = {"c/2": c / 2, "c": c, "2c": 2 * c, "6": mp.mpf(6)}
        runs = []
        for S in FAR_STARTS:
            t0 = time.perf_counter()
            runs.append(separatrix_values(c, mp.mpf(S), set(points.values())))
            print(f"n = {n}, S = {S}: {time.perf_counter() - t0:.1f} s", flush=True)
        for name, s in points.items():
            first, second = (run[s] for run in runs)
            if abs(first - second) > mp.mpf(10) ** -DIGITS * abs(first):
                raise RuntimeError(f"n = {n}, s = {name}: far starts {FAR_STARTS} "
                                   f"disagree: {first} against {second}")
            entries.append({"n": n, "c": float(c), "point": name, "s": float(s),
                            "digits": DIGITS, "far_starts": list(FAR_STARTS),
                            "w": [mp.nstr(first, DIGITS + 2), mp.nstr(second, DIGITS + 2)]})
    table = {
        "method": ("mpmath odefun (Taylor series) at dps 45, backward from the "
                   "far-field series summed to working precision at each far start S; "
                   "w holds the value from each S, which agree to `digits` "
                   "significant digits"),
        "equation": "w' = (1 - w^2)(1 - c w / s), the separatrix w ~ s/c as s -> inf",
        "entries": entries,
    }
    os.makedirs(os.path.dirname(TABLE_PATH), exist_ok=True)
    with open(TABLE_PATH, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
