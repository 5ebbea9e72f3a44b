"""Outside-in spans around solitonlab's public layer functions.

install() replaces each traced function at every module binding its
callers look up (classify.integrate, geometry.integrate, cli.classify,
geometry.compute_bowl, ...), found by scanning the loaded solitonlab
modules for the function object, plus scipy's solve_ivp wherever a
solitonlab module imported it.  restore() puts the originals back.  The
package source is not touched.

A span is (name, parent index, start, end, extra) kept in a list in start
order, so a parent always precedes its children.  Self time is a span's
duration minus its direct children's.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

from scipy.integrate import solve_ivp as _scipy_solve_ivp

PACKAGE = "solitonlab"

# defining module -> traced public functions; a name a later version drops
# is skipped and its metrics read 0
TARGETS = {
    "engine": ("integrate",),
    "classify": ("classify", "integrate_bidirectional", "compute_bowl",
                 "compute_separatrix"),
    "geometry": ("bowl_curve", "center_profile_eval", "build_graph",
                 "build_hybrid", "build_wing", "build_spindle"),
    "verify": ("sample_radial_field", "residual_fund_eq", "smoothness_scan",
               "convergence_order"),
    "cli": ("main",),
}
LAYERS = ("cli", "classify", "geometry", "verify", "engine", "scipy")


def layer_of(name: str) -> str:
    return "scipy" if name.endswith(".solve_ivp") else name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def install(self) -> None:
        names: Dict[int, str] = {}
        for short, funcs in TARGETS.items():
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            for fn in funcs:
                obj = getattr(mod, fn, None)
                if obj is not None:
                    names[id(obj)] = f"{short}.{fn}"
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            short = mod_name.rsplit(".", 1)[-1]
            for attr, val in list(vars(mod).items()):
                if val is _scipy_solve_ivp:
                    wrapper = self._wrap(val, f"{short}.solve_ivp", self._solver_extra)
                elif id(val) in names:
                    name = names[id(val)]
                    extra = self._nodes_extra if name == "verify.residual_fund_eq" else None
                    wrapper = self._wrap(val, name, extra)
                else:
                    continue
                self._saved.append((mod, attr, val))
                setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def _wrap(self, fn, name, extra):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _solver_extra(args, kwargs, sol):
        return {"nfev": int(sol.nfev), "steps": len(sol.t) - 1}

    @staticmethod
    def _nodes_extra(args, kwargs, result):
        field = args[0] if args else kwargs["field"]
        return {"nodes": int(field.values.size)}


def aggregate(spans: List[list]) -> dict:
    """Per span name (a defaultdict, so absent names read 0): calls, total
    and self seconds, summed extras.

    Also per layer self seconds, and the engine.integrate calls made
    under a classify.compute_separatrix span (its shots).
    """
    child = [0.0] * len(spans)
    under_sep = [False] * len(spans)
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            under_sep[i] = (under_sep[parent]
                            or spans[parent][0] == "classify.compute_separatrix")
    by_name = defaultdict(lambda: defaultdict(float))
    layers = dict.fromkeys(LAYERS, 0.0)
    shots = 0
    for i, (name, parent, t0, t1, extra) in enumerate(spans):
        rec = by_name[name]
        rec["calls"] += 1
        rec["s"] += t1 - t0
        rec["self_s"] += t1 - t0 - child[i]
        for key, val in (extra or {}).items():
            rec[key] += val
        layers[layer_of(name)] += t1 - t0 - child[i]
        if name == "engine.integrate" and under_sep[i]:
            shots += 1
    return {"names": by_name, "layers": layers, "separatrix_shots": shots}


def dump(spans: List[list], path: str) -> None:
    """Write spans as JSON lines: op, name, parent, start, end and extras.

    op numbers the root spans (one cli.main call each) and is shared by
    every span under the same root; parent is a line index.
    """
    op_of: List[int] = []
    roots = 0
    with open(path, "w") as fh:
        for name, parent, t0, t1, extra in spans:
            if parent < 0:
                op_of.append(roots)
                roots += 1
            else:
                op_of.append(op_of[parent])
            fh.write(json.dumps({"op": op_of[-1], "name": name, "parent": parent,
                                 "start": t0, "end": t1, **(extra or {})}) + "\n")
