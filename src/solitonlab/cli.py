"""Command-line surface: classification, portraits, profiles, meshes, reports.

Output is deterministic: floats print with 17 significant digits, rows and
JSON keys are ordered, and no timestamps or environment data are emitted,
so identical configuration yields byte-identical files.  Data-row writers
format each distinct float once and reuse its text wherever it repeats;
the bytes are those of formatting every entry on its own.

Exit codes: 0 success, 1 verification failure, 2 configuration or domain
error, or a request too large to allocate.  Configuration may come from
flags or from a JSON file passed as --config (keys are the flag
destinations, values checked as the flags'); explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from . import mesh
from .core import FlowParams, Trajectory, boost, rotational
from .engine import IntegratorConfig
from .classify import (
    _evidence,
    classify_as_posed,
    classify_as_posed_batch,
    compute_separatrix,
    integrate_bidirectional_batch,
)
from .geometry import (
    bowl_curve,
    build_hybrid,
    build_spindle,
    build_wing,
    center_regular_profile,
    hybrid_field,
    resample_wing,
)
from .verify import bowl_study, check_grid, const_study, hybrid_study


def _fmt(x) -> str:
    """Fixed float formatting for round-trippable, byte-stable output.

    For headers and single report fields.  Data rows go through _rows,
    which formats each distinct value once with the same %.17g, so a row
    reads byte for byte as if every value had gone through here."""
    if x is None:
        return ""
    return "{:.17g}".format(float(x))


def _fmt_array(a) -> np.ndarray:
    """The "%.17g" text of every entry of a, as an object array of a's shape.

    Each distinct float is formatted once and gathered back to its entries.
    Distinct means distinct by bit pattern, so -0.0 and 0.0 keep their own
    texts and every NaN prints as "nan", exactly as formatting each entry
    on its own would.
    """
    a = np.asarray(a, dtype=float)
    keys, inv = np.unique(a.ravel().view(np.int64), return_inverse=True)
    lines = ("%.17g\n" * len(keys)) % tuple(keys.view(float).tolist())
    texts = np.array(lines.split("\n")[:-1], dtype=object)
    return texts[inv.ravel()].reshape(a.shape)


def _rows(template: str, *cols) -> str:
    """One template line per entry of the equal-length float columns, all
    lines in one % operation; template takes a %s per column."""
    cells = _fmt_array(np.column_stack(cols))
    return (template * len(cells)) % tuple(cells.ravel().tolist())


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params_line(p: FlowParams) -> str:
    return (f"n={p.n} eps_prime={p.eps_prime} eps_tilde={p.eps_tilde} "
            f"fiber_coeff={_fmt(p.fiber_coeff)}")


# ---------------------------------------------------------------- parsing

_REGIONS_SO_N = ("strip", "gamma_plus", "gamma_minus")
_REGIONS_BOOST = ("spacelike_S", "timelike_T")


def _add_out(sp) -> None:
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.add_argument("--config", help="JSON file with defaults; flags win")


def _add_integrator(sp) -> None:
    sp.add_argument("--rel-tol", type=float, default=1e-10)
    sp.add_argument("--abs-tol", type=float, default=1e-12)
    sp.add_argument("--s-max", type=float, default=100.0,
                    help="integration span ceiling")


def _add_hybrid(sp) -> None:
    sp.add_argument("--nodes", type=int, default=201)
    sp.add_argument("--extent", type=float, default=2.0)
    sp.add_argument("--quadrants", default="1,2,3,4")


def _add_params(sp, default_n: int = 3) -> None:
    sp.add_argument("--action", choices=("so_n", "boost"), default="so_n",
                    help="invariance group of the sought soliton")
    sp.add_argument("--n", type=int, default=default_n,
                    help="base dimension")
    sp.add_argument("--eps-prime", type=int, choices=(-1, 1), default=-1,
                    help="metric sign of the graph direction (so_n only)")
    sp.add_argument("--region", default=None,
                    help="so_n: strip|gamma_plus|gamma_minus; "
                         "boost: spacelike_S|timelike_T")
    sp.add_argument("--strict-fiber", action="store_true",
                    help="boost only: force fiber coefficient 1")


def _cfg_from_args(args) -> IntegratorConfig:
    return IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                            s_max=args.s_max)


def _params_from_args(args) -> FlowParams:
    region = getattr(args, "region", None)
    if args.action == "so_n":
        if region is not None and region not in _REGIONS_SO_N:
            raise ValueError(f"region {region!r} is not valid for the "
                             f"rotational action; pick one of {_REGIONS_SO_N}")
        return rotational(args.n, eps_prime=args.eps_prime)
    if region is not None and region not in _REGIONS_BOOST:
        raise ValueError(f"region {region!r} is not valid for the boost "
                         f"action; pick one of {_REGIONS_BOOST}")
    side = "timelike" if region == "timelike_T" else "spacelike"
    return boost(args.n, side, strict_fiber=args.strict_fiber)


def _parse_grid(spec: str, what: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ValueError(f"{what} must look like lo:hi:count, got {spec!r}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{what} bounds must be finite, got {spec!r}")
    if count < 0:
        raise ValueError(f"{what} count must be >= 0")
    if count == 0:
        return np.empty(0)
    if count == 1:
        return np.array([lo])
    return np.linspace(lo, hi, count)


def _parse_h_list(spec: str) -> Tuple[float, ...]:
    try:
        hs = tuple(float(p) for p in spec.split(","))
    except ValueError:
        raise ValueError(f"--h must be a comma list of spacings, got {spec!r}")
    if len(hs) != 3:
        raise ValueError("--h needs exactly three spacings (h, h/2, h/4)")
    return hs


# ------------------------------------------------------------ classify

def _require_flag(args, name: str) -> float:
    val = getattr(args, name)
    if val is None:
        raise ValueError(f"--{name} is required (flag or config file)")
    return float(val)


def cmd_classify(args) -> int:
    s0 = _require_flag(args, "s0")
    w0 = _require_flag(args, "w0")
    params = _params_from_args(args)
    cfg = _cfg_from_args(args)
    sc = classify_as_posed(params, s0, w0, cfg)

    report = {
        "class": sc.tag.value,
        "s0": s0,
        "w0": w0,
        "n": params.n,
        "eps_prime": params.eps_prime,
        "eps_tilde": params.eps_tilde,
        "fiber_coeff": params.fiber_coeff,
        "causal_sign": sc.causal,
        "limit_at_zero": sc.limit_at_zero,
        "limit_at_infinity": sc.limit_at_infinity,
        "critical_points": list(sc.critical_points),
        "blowup_s": None if sc.blowup is None else sc.blowup[0],
        "blowup_sign": None if sc.blowup is None else sc.blowup[1],
    }
    if sc.blowup_bound is not None:
        report["blowup_bound"] = sc.blowup_bound

    if args.json:
        text = json.dumps(report, sort_keys=True, indent=2,
                          allow_nan=True) + "\n"
    else:
        # in key order: floats fixed, lists joined by ";", no line for a None
        lines = []
        for key, v in report.items():
            if isinstance(v, list):
                v = ";".join(map(_fmt, v))
            elif isinstance(v, float):
                v = _fmt(v)
            if v is not None:
                lines.append(f"{key}: {v}\n")
        text = "".join(lines)
    _emit(text, args.out)
    return 0


# ------------------------------------------------------------ portrait

_PORTRAIT_COLUMNS = ("traj", "s0", "w0", "class", "causal", "limit_zero", "limit_inf",
                     "blowup_s", "blowup_sign", "critical_s", "error")
_PORTRAIT_HEADER = ",".join(_PORTRAIT_COLUMNS) + "\n"


def _portrait_row(idx: int, s0: float, w0: float, result) -> str:
    """One CSV row from a start's verdict, raw trajectory or error."""
    vals = dict.fromkeys(_PORTRAIT_COLUMNS, "")
    vals.update({"traj": str(idx), "s0": _fmt(s0), "w0": _fmt(w0)})
    if isinstance(result, Exception):
        vals["class"] = "error"
        vals["error"] = str(result).replace(",", ";").replace("\n", " ")
    else:
        # no barrier structure: the run's own evidence, untagged
        tag, ev = (("untagged", _evidence(result)) if isinstance(result, Trajectory)
                   else (result.tag.value, vars(result)))
        s_star, sign = ev["blowup"] or (None, "")
        vals.update({"class": tag, "causal": str(ev["causal"]),
                     "limit_zero": _fmt(ev["limit_at_zero"]),
                     "limit_inf": _fmt(ev["limit_at_infinity"]),
                     "blowup_s": _fmt(s_star), "blowup_sign": str(sign),
                     "critical_s": ";".join(map(_fmt, ev["critical_points"]))})
    return ",".join(vals[k] for k in _PORTRAIT_COLUMNS) + "\n"


_REGION_W0 = {
    "strip": "-0.95:0.95:20",
    "gamma_plus": "1.05:3:20",
    "gamma_minus": "-3:-1.05:20",
    "spacelike_S": "-3:3:20",
    "timelike_T": "-0.95:0.95:20",
}


def cmd_portrait(args) -> int:
    params = _params_from_args(args)
    cfg = _cfg_from_args(args)
    region = args.region or ("strip" if args.action == "so_n" else "spacelike_S")
    w0_spec = args.w0_grid or _REGION_W0[region]
    s0_grid = _parse_grid(args.s0_grid, "--s0-grid")
    w0_grid = _parse_grid(w0_spec, "--w0-grid")

    starts = [(float(s0), float(w0)) for s0 in s0_grid for w0 in w0_grid]
    # the whole grid, both directions, in one lockstep integration
    if params.has_barriers:
        results = classify_as_posed_batch(params, starts, cfg)
    else:
        results = integrate_bidirectional_batch(params, starts, cfg)
    rows = [_portrait_row(idx, s0, w0, res)
            for idx, ((s0, w0), res) in enumerate(zip(starts, results))]
    _emit(_PORTRAIT_HEADER + "".join(rows), args.out)
    return 0


# ------------------------------------------------------------- profiles

def _check_span(span: float, cfg: IntegratorConfig) -> None:
    if not 0.0 < span <= cfg.s_max:
        raise ValueError("--span must lie in (0, s_max]")


def cmd_bowl(args) -> int:
    params = _params_from_args(args)
    cfg = _cfg_from_args(args)
    _check_span(args.span, cfg)
    if args.samples < 0:
        raise ValueError("need --samples >= 0")
    f_of, w_of = center_regular_profile(params, args.span, cfg)
    s = np.linspace(0.0, args.span, args.samples)
    f = np.asarray(f_of(s), dtype=float)
    w = np.asarray(w_of(s), dtype=float)
    lines = [f"# profile: bowl\n# params: {_params_line(params)}\n", "s,f,w\n",
             _rows("%s,%s,%s\n", s, f, w)]
    _emit("".join(lines), args.out)
    return 0


def cmd_separatrix(args) -> int:
    params = rotational(args.n)
    cfg = _cfg_from_args(args)
    sep = compute_separatrix(params, cfg, tol=args.tol)
    defect_s = min(50.0, cfg.s_max / 2) if args.defect_s is None else args.defect_s
    if args.format == "csv":
        lines = [f"# profile: separatrix\n# params: {_params_line(params)}\n",
                 f"# value_at_anchor: {_fmt(sep.value)}\n",
                 "s,w\n",
                 _rows("%s,%s\n", sep.trajectory.s, sep.trajectory.w)]
        _emit("".join(lines), args.out)
        return 0
    report = {
        "anchor": sep.anchor,
        "value_at_anchor": sep.value,
        "bracket": list(sep.bracket),
        "bracket_width": sep.bracket[1] - sep.bracket[0],
        "asymptote_defect": sep.asymptote_defect(defect_s),
        "defect_from_s": defect_s,
        "n": args.n,
    }
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _wing_csv(curve, params: FlowParams, label: str) -> str:
    stops = ",".join(curve.arm_stop)
    cts = ",".join("" if c is None else _fmt(c) for c in curve.contact_y)
    lines = [f"# profile: {label}\n# params: {_params_line(params)}\n",
             f"# apex_y: {_fmt(curve.apex[0])}\n",
             f"# apex_alpha: {_fmt(curve.apex[1])}\n",
             f"# arm_stop: {stops}\n",
             f"# contact_y: {cts}\n",
             "y,alpha,alpha_prime\n",
             _rows("%s,%s,%s\n", curve.y, curve.alpha, curve.alpha_prime)]
    return "".join(lines)


def cmd_wing(args) -> int:
    s0 = _require_flag(args, "s0")
    params = _params_from_args(args)
    res = build_wing(params, s0, _cfg_from_args(args), y_span=args.y_span)
    _emit(_wing_csv(res.wing, params, "wing"), args.out)
    return 0


def cmd_spindle(args) -> int:
    s0 = _require_flag(args, "s0")
    params = rotational(args.n)
    curve = build_spindle(params, s0, _cfg_from_args(args))
    _emit(_wing_csv(curve, params, "spindle"), args.out)
    return 0


def _parse_quadrants(spec: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in spec.split(","))
    except ValueError:
        raise ValueError(f"--quadrants must be a comma list like 1,2,3,4, "
                         f"got {spec!r}")


def _hybrid(args, cfg: IntegratorConfig, f2_sign: int = +1):
    """The hybrid field and its grid sample from the hybrid flags
    (_add_hybrid), its --nodes^2 grid held to verify's cap first."""
    check_grid(args.nodes, 2, "lower --nodes")
    return build_hybrid(mask=_parse_quadrants(args.quadrants), extent=args.extent,
                        nodes=args.nodes, cfg=cfg, f2_sign=f2_sign)


def cmd_hybrid(args) -> int:
    hyb, grid = _hybrid(args, _cfg_from_args(args), -1 if args.mismatch else +1)
    x, y = grid.axes
    lines = [f"# field: hybrid\n# quadrants: {args.quadrants}\n",
             f"# f2_sign: {hyb.f2_sign}\n",
             "x,y,u\n",
             _rows("%s,%s,%s\n", np.repeat(x, len(y)), np.tile(y, len(x)),
                   grid.values.ravel())]
    _emit("".join(lines), args.out)
    return 0


# ----------------------------------------------------------------- mesh

def _obj_text(meta: Sequence[str], verts: np.ndarray, faces: np.ndarray,
              extra: Sequence[str] = ()) -> str:
    lines = [f"# {m}\n" for m in meta]
    lines.append(_rows("v %s %s %s\n", *verts.T))
    lines += [f"# {m}\n" for m in extra]
    lines.append(("f %d %d %d\n" * len(faces))
                 % tuple((faces + 1).ravel().tolist()))
    return "".join(lines)


def _profile_csv_fallback(s, f, params, what: str) -> str:
    lines = [f"# profile: {what}\n# params: {_params_line(params)}\n",
             "# note: base dimension > 2 has no 3-coordinate embedding; "
             "emitting the profile instead\n",
             "s,f\n",
             _rows("%s,%s\n", s, f)]
    return "".join(lines)


def cmd_mesh(args) -> int:
    cfg = _cfg_from_args(args)
    meta = ["command: " + " ".join(args.raw_argv)]
    n_t, n_p = args.theta_samples, args.profile_samples
    if n_t < 3 or n_p < 2:
        raise ValueError("need --theta-samples >= 3 and --profile-samples >= 2")

    if args.target == "hybrid":
        # the field does not read the parameter flags, but they are checked as for every target
        _params_from_args(args)
        # height field over the Lorentzian plane; the lightcone is its two diagonals
        hyb, grid = _hybrid(args, cfg)
        x, y = grid.axes
        cones = [f"cone_{name}: " + " ".join(map(str, (k + 1).tolist()))
                 for name, k in zip(("main", "anti"), mesh.diagonals(len(x)))]
        meta += [f"quadrants: {args.quadrants}", f"f2_sign: {hyb.f2_sign}", "class: hybrid"]
        _emit(_obj_text(meta, *mesh.height_field(x, y, grid.values), cones), args.out)
        return 0

    # every other target is one profile z(r), revolved or boost-swept
    if args.target == "bowl":
        _check_span(args.span, cfg)
        params = _params_from_args(args)
        r = np.linspace(args.span / n_p, args.span, n_p)
        z = np.asarray(center_regular_profile(params, args.span, cfg)[0](r), dtype=float)
    else:
        if args.action == "boost":
            raise ValueError(f"mesh {args.target} revolves a rotational profile; "
                             "--action boost is not supported")
        params = _params_from_args(args)
        curve = (build_spindle(params, args.s0, cfg) if args.target == "spindle"
                 else build_wing(params, args.s0, cfg, y_span=args.y_span).wing)
        z, r = resample_wing(curve, n_p)
    if params.n != 2:
        _emit(_profile_csv_fallback(r, z, params, args.target), args.out)
        return 0
    meta += [f"params: {_params_line(params)}", f"class: {args.target}"]
    if args.action == "boost":
        try:
            surface = mesh.boost_sweep(r, z, n_t, args.theta_max, params.eps_tilde < 0)
        except ValueError as exc:
            raise ValueError(f"--theta-max: {exc}") from exc
    else:
        surface = mesh.revolve(r, z, n_t)
    if args.target == "spindle":
        # close the ends at the extrapolated axis contacts
        surface = mesh.cap_ends(surface, n_t, curve.contact_y)
        meta.append("closed: both axis contacts capped")
    _emit(_obj_text(meta, *surface), args.out)
    return 0


# --------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    cfg = _cfg_from_args(args)
    if args.target == "bowl":
        params = rotational(args.n)
        report, ok = bowl_study(lambda: bowl_curve(params, cfg).f_dense, args.extent,
                                _parse_h_list(args.h), args.n)
    elif args.target == "hybrid":
        sign = -1 if args.mismatch else +1
        report, ok = hybrid_study(lambda: hybrid_field(extent=args.extent, cfg=cfg, f2_sign=sign),
                                  args.nodes, args.order)
    else:
        report, ok = const_study()
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if ok else 1


# ----------------------------------------------------------------- main

def build_parser():
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="Translating-soliton laboratory: classify reduced-ODE "
                    "solutions, emit profiles and meshes, verify against "
                    "the graph equation.")
    subs = parser.add_subparsers(dest="command", required=True)
    table = {}

    sp = subs.add_parser("classify", help="classify one initial condition")
    sp.add_argument("--s0", type=float, default=None)
    sp.add_argument("--w0", type=float, default=None)
    sp.add_argument("--json", action="store_true")
    _add_params(sp)
    _add_integrator(sp)
    _add_out(sp)
    table["classify"] = (sp, cmd_classify)

    sp = subs.add_parser("portrait", help="classify a grid of initial "
                                          "conditions to CSV")
    sp.add_argument("--s0-grid", default="0.1:5:20", help="lo:hi:count")
    sp.add_argument("--w0-grid", default=None,
                    help="lo:hi:count (default from --region)")
    _add_params(sp)
    _add_integrator(sp)
    _add_out(sp)
    table["portrait"] = (sp, cmd_portrait)

    sp = subs.add_parser("bowl", help="center-regular profile to CSV")
    sp.add_argument("--span", type=float, default=5.0)
    sp.add_argument("--samples", type=int, default=501)
    _add_params(sp)
    _add_integrator(sp)
    _add_out(sp)
    table["bowl"] = (sp, cmd_bowl)

    sp = subs.add_parser("separatrix", help="threshold solution report")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--defect-s", type=float, help="default: min(50, s_max/2)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    _add_integrator(sp)
    _add_out(sp)
    table["separatrix"] = (sp, cmd_separatrix)

    sp = subs.add_parser("wing", help="wing profile to CSV")
    sp.add_argument("--s0", type=float, default=None)
    sp.add_argument("--y-span", type=float, default=None)
    _add_params(sp)
    _add_integrator(sp)
    _add_out(sp)
    table["wing"] = (sp, cmd_wing)

    sp = subs.add_parser("spindle", help="closed rotational wing to CSV")
    sp.add_argument("--s0", type=float, default=None)
    sp.add_argument("--n", type=int, default=3)
    _add_integrator(sp)
    _add_out(sp)
    table["spindle"] = (sp, cmd_spindle)

    sp = subs.add_parser("hybrid", help="glued lightcone field to CSV")
    _add_hybrid(sp)
    sp.add_argument("--mismatch", action="store_true",
                    help="flip the top/bottom piece sign (negative control)")
    _add_integrator(sp)
    _add_out(sp)
    table["hybrid"] = (sp, cmd_hybrid)

    sp = subs.add_parser("mesh", help="OBJ surface mesh")
    sp.add_argument("target", choices=("bowl", "spindle", "wing", "hybrid"))
    sp.add_argument("--theta-samples", type=int, default=64)
    sp.add_argument("--profile-samples", type=int, default=200)
    sp.add_argument("--span", type=float, default=2.5,
                    help="profile extent for graph targets")
    sp.add_argument("--theta-max", type=float, default=1.5,
                    help="boost meshes: hyperbolic angle half-range")
    sp.add_argument("--s0", type=float, default=1.0)
    sp.add_argument("--y-span", type=float, default=None)
    _add_hybrid(sp)
    _add_params(sp, default_n=2)
    _add_integrator(sp)
    _add_out(sp)
    table["mesh"] = (sp, cmd_mesh)

    sp = subs.add_parser("verify", help="residual and smoothness reports")
    sp.add_argument("target", choices=("bowl", "hybrid", "const"))
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--h", default="0.04,0.02,0.01",
                    help="bowl: three nested spacings")
    sp.add_argument("--extent", type=float, default=2.0)
    sp.add_argument("--nodes", type=int, default=101,
                    help="hybrid: coarse grid nodes")
    sp.add_argument("--order", type=int, default=2,
                    help="hybrid: highest jump order scanned")
    sp.add_argument("--mismatch", action="store_true")
    _add_integrator(sp)
    _add_out(sp)
    table["verify"] = (sp, cmd_verify)

    return parser, table


# the parser of every call without --config; parsing leaves nothing in it
_shared_parser = functools.cache(build_parser)


def _config_value(action: argparse.Action, value):
    """A --config value for action's destination, checked as its flag's:
    true or false for a switch, null only over a None default, text for an
    untyped flag, else text or a number that the flag's type takes as text;
    and one of the flag's choices."""
    if value is None and action.default is None:
        return None
    if action.nargs == 0:    # a switch
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, str) or (action.type is not None and type(value) in (int, float))
    if ok and action.type is not None:
        try:
            value = action.type(str(value))
        except ValueError:
            ok = False
    if not ok or (action.choices is not None and value not in action.choices):
        raise ValueError(f"config key {action.dest!r}: invalid value {value!r}")
    return value


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser, table = _shared_parser()
    try:
        args = parser.parse_args(raw)
        if getattr(args, "config", None):
            with open(args.config) as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise ValueError("--config must hold a JSON object")
            actions = {a.dest: a for a in table[args.command][0]._actions}
            unknown = sorted(set(overrides) - set(actions))
            if unknown:
                raise ValueError(f"unknown config keys: {', '.join(unknown)}")
            overrides = {k: _config_value(actions[k], v) for k, v in overrides.items()}
            # the file's defaults go on a parser of this call's own
            parser, table = build_parser()
            table[args.command][0].set_defaults(**overrides)
            args = parser.parse_args(raw)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    args.raw_argv = ["solitonlab"] + raw
    try:
        return table[args.command][1](args)
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
