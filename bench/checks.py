"""Correctness checks on CLI outputs that do not rely on solitonlab's code.

Each checker takes (op, exit code, stdout text) and returns a list of
problems; an empty list means the output is right.  Truth comes from
closed forms, counting formulas, symmetry, the committed separatrix table
and fresh scipy LSODA solutions (reference.py), never from the package.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict
from typing import List

import numpy as np

import reference

STRIP_TAGS = ("below_bowl", "bowl", "above_bowl")
# tags each region may produce, in increasing order of the canonical slope
REGION_TAGS = {
    "strip": STRIP_TAGS,
    "timelike_T": STRIP_TAGS,
    "gamma_plus": ("gamma_plus_global", "separatrix", "gamma_plus_blowup"),
    "gamma_minus": ("gamma_minus_blowup",),
}
BLOWUP_TAGS = ("gamma_plus_blowup", "gamma_minus_blowup")
# 20x the largest gap seen between the package and the LSODA table (5e-11)
SEPARATRIX_MATCH = 1e-9
ORDER_WINDOW = (1.7, 2.3)
# an IC counts as clear of the global/blow-up threshold when shots this far
# to either side agree with it
PROBE_DELTA = 1e-6
# LSODA stops at |w| = 1e6, about 1e-6 before a simple pole
POLE_MATCH = 1e-4
# the LSODA bowl and separatrix agree with the package's to 3e-10
SIDE_CLEAR = 1e-7
# the canonical boundary each region's tags are judged against
BOUNDARIES = {
    "strip": reference.bowl_slope,
    "timelike_T": reference.bowl_slope,
    "gamma_plus": reference.separatrix_slope,
}
HYBRID_ATOL = 1e-12


def _parse_json(out: str, problems: List[str]):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def check_portrait(op, rc: int, out: str) -> List[str]:
    e = op.expect
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    rows = list(csv.DictReader(io.StringIO(out)))
    problems = []
    if len(rows) != e["count"]:
        problems.append(f"{len(rows)} rows, expected {e['count']}")
    tags = REGION_TAGS[e["region"]]
    columns = defaultdict(list)
    for row in rows:
        tag = row["class"]
        if row["error"] or tag not in tags:
            problems.append(f"row {row['traj']}: class {tag!r} not allowed in "
                            f"{e['region']} {row['error']}".rstrip())
            continue
        s0, w0 = float(row["s0"]), float(row["w0"])
        blown = row["blowup_s"] != ""
        if blown != (tag in BLOWUP_TAGS):
            problems.append(f"row {row['traj']}: {tag} with blowup_s "
                            f"{row['blowup_s']!r}")
        elif e["region"] == "gamma_minus":
            # comparison solution coth(s - s0 + arccoth(w0)) poles first
            bound = s0 - 0.5 * math.log((w0 + 1.0) / (w0 - 1.0))
            if float(row["blowup_s"]) > bound + 1e-9 * max(1.0, abs(bound)):
                problems.append(f"row {row['traj']}: pole {row['blowup_s']} "
                                f"beyond the coth bound {bound!r}")
        columns[s0].append((e["flip"] * w0, tag, row["traj"]))
    for s0, col in sorted(columns.items()):
        ranks = [tags.index(tag) for _, tag, _ in sorted(col)]
        if any(b < a for a, b in zip(ranks, ranks[1:])):
            problems.append(f"tags not monotone in w0 at s0={s0!r}")
    boundary = BOUNDARIES.get(e["region"])
    if boundary is not None and columns:
        problems += _check_sides(columns, tags, boundary(e["c"], sorted(columns)))
    if 0 <= e["probe"] < len(rows) and not problems:
        problems += _probe(e, rows[e["probe"]])
    return problems


def _check_sides(columns, tags, levels) -> List[str]:
    """Tags against an LSODA bowl or separatrix through every s0 column.

    Rows within SIDE_CLEAR of the boundary may carry any of the region's
    tags; every other row must name the side it lies on.
    """
    problems = []
    for (s0, col), level in zip(sorted(columns.items()), levels):
        for w, tag, traj in col:
            margin = w - level
            if abs(margin) <= SIDE_CLEAR * max(1.0, abs(level)):
                continue
            expected = tags[-1] if margin > 0 else tags[0]
            if tag != expected:
                problems.append(f"row {traj}: {tag} but LSODA puts canonical "
                                f"w={w!r} {margin:+.3g} from the boundary "
                                f"{level!r} at s0={s0!r}")
    return problems


def _probe(e: dict, row: dict) -> List[str]:
    """Re-integrate one row's IC forward with LSODA and compare its fate.

    Blow-up, and the pole location, must match the row whenever shots
    PROBE_DELTA to either side agree, that is, clear of the threshold.
    """
    s0, w0 = float(row["s0"]), float(row["w0"])
    shots = [reference.forward_shot(e["et"], e["ep"], e["c"], s0, w, e["s_max"])
             for w in (w0 - PROBE_DELTA, w0, w0 + PROBE_DELTA)]
    if len({outcome for outcome, _ in shots}) != 1:
        return []
    outcome, s_end = shots[1]
    blown = row["blowup_s"] != ""
    if blown != (outcome == "blowup"):
        return [f"row {row['traj']}: LSODA says {outcome} from "
                f"({s0!r}, {w0!r}), row says class {row['class']}"]
    if blown and abs(float(row["blowup_s"]) - s_end) > POLE_MATCH * max(1.0, s_end):
        return [f"row {row['traj']}: pole {row['blowup_s']} but LSODA "
                f"escapes at {s_end!r}"]
    return []


def check_separatrix(op, rc: int, out: str) -> List[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    problems: List[str] = []
    rep = _parse_json(out, problems)
    if rep is None:
        return problems
    n, tol = op.expect["n"], op.expect["tol"]
    lo, hi = rep["bracket"]
    value = rep["value_at_anchor"]
    if rep["anchor"] != n - 1:
        problems.append(f"anchor {rep['anchor']!r}, expected {n - 1}")
    if not hi - lo <= tol:
        problems.append(f"bracket width {hi - lo!r} exceeds {tol!r}")
    if not lo <= value <= hi:
        problems.append(f"value {value!r} outside its bracket [{lo!r}, {hi!r}]")
    ref = reference.load_reference()[n]
    if not abs(value - ref) <= SEPARATRIX_MATCH:
        problems.append(f"value {value!r} differs from the LSODA reference "
                        f"{ref!r} by more than {SEPARATRIX_MATCH:g}")
    return problems


def check_classify(op, rc: int, out: str) -> List[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    problems: List[str] = []
    rep = _parse_json(out, problems)
    if rep is None:
        return problems
    e = op.expect
    if rep["class"] != e["tag"]:
        problems.append(f"class {rep['class']!r}, expected {e['tag']!r}")
    if rep["s0"] != e["s0"] or rep["w0"] != e["w0"]:
        problems.append(f"echoed IC ({rep['s0']!r}, {rep['w0']!r}) differs "
                        f"from ({e['s0']!r}, {e['w0']!r})")
    return problems


def check_verify(op, rc: int, out: str) -> List[str]:
    expected_rc = op.expect["rc"]
    problems: List[str] = []
    if rc != expected_rc:
        problems.append(f"exit code {rc}, expected {expected_rc}")
    rep = _parse_json(out, problems)
    if rep is None:
        return problems
    if expected_rc == 1:
        if rep["pass"] is not False:
            problems.append("negative control reported pass")
        return problems
    lo, hi = ORDER_WINDOW
    for key in ("p_coarse", "p_fine"):
        p = rep[key]
        if p is None or not lo <= p <= hi:
            problems.append(f"{key} {p!r} outside [{lo}, {hi}]")
    if rep["pass"] is not True or rep["monotone"] is not True:
        problems.append(f"pass={rep['pass']!r} monotone={rep['monotone']!r}")
    return problems


def check_mesh(op, rc: int, out: str) -> List[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    lines = out.splitlines()
    verts = [ln.split()[1:] for ln in lines if ln.startswith("v ")]
    faces = [ln.split()[1:] for ln in lines if ln.startswith("f ")]
    e = op.expect
    problems = []
    if len(verts) != e["verts"] or len(faces) != e["faces"]:
        return [f"{len(verts)} vertices and {len(faces)} faces, expected "
                f"{e['verts']} and {e['faces']}"]
    if not np.all(np.isfinite(np.array(verts, dtype=float))):
        problems.append("non-finite vertex coordinate")
    idx = np.array(faces, dtype=np.int64)
    if idx.min() < 1 or idx.max() > len(verts):
        problems.append(f"face index outside 1..{len(verts)}")
    return problems


def check_hybrid(op, rc: int, out: str) -> List[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    data = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    m = op.expect["nodes"]
    if not data or data[0] != "x,y,u":
        return ["missing x,y,u header"]
    if len(data) - 1 != m * m:
        return [f"{len(data) - 1} rows, expected nodes^2 = {m * m}"]
    xyu = np.array([row.split(",") for row in data[1:]], dtype=float)
    u = xyu[:, 2].reshape(m, m)
    problems = []
    if not np.all(np.isfinite(u)):
        problems.append("non-finite u with every quadrant included")
    # u depends on x^2 - y^2 only: even in x and y, zero on the lightcone,
    # up to the rounding of mirrored linspace nodes
    if not (np.allclose(u, u[::-1, :], rtol=0.0, atol=HYBRID_ATOL)
            and np.allclose(u, u[:, ::-1], rtol=0.0, atol=HYBRID_ATOL)):
        problems.append("u is not even in x and y")
    diag = np.arange(m)
    cone = np.concatenate([u[diag, diag], u[diag, m - 1 - diag]])
    if np.any(np.abs(cone) > HYBRID_ATOL):
        problems.append("u is not zero on the lightcone")
    return problems


CHECKERS = {
    "portrait": check_portrait,
    "separatrix": check_separatrix,
    "classify": check_classify,
    "verify": check_verify,
    "mesh": check_mesh,
    "hybrid": check_hybrid,
}


def check(op, rc: int, out: str) -> List[str]:
    return CHECKERS[op.kind](op, rc, out)
