"""Command-line surface: classification, portraits, profiles, meshes, reports.

Output is deterministic: floats print with 17 significant digits, rows and
JSON keys are ordered, and no timestamps or environment data are emitted,
so identical configuration yields byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 configuration or domain
error.  Configuration may come from flags or from a JSON file passed as
--config (keys are the flag destinations); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from . import mesh
from .core import FlowParams, Trajectory, boost, rotational
from .engine import IntegratorConfig
from .classify import (
    SolutionClassTag,
    blowup_bound_as_posed,
    classify_as_posed,
    classify_as_posed_batch,
    compute_separatrix,
    integrate_bidirectional_batch,
    limits_report,
)
from .geometry import (
    bowl_curve,
    build_hybrid,
    build_spindle,
    build_wing,
    center_regular_profile,
)
from .verify import (
    GridField,
    convergence_order,
    residual_fund_eq,
    sample_radial_field,
    smoothness_scan,
)


def _fmt(x) -> str:
    """Fixed float formatting for round-trippable, byte-stable output."""
    if x is None:
        return ""
    return "{:.17g}".format(float(x))


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


def _nodes_for(extent: float, h: float) -> int:
    n = 2.0 * extent / h
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"spacing {h} does not tile [-{extent}, {extent}]")
    return int(round(n)) + 1


# ------------------------------------------------------------ classify

def _require_flag(args, name: str) -> float:
    val = getattr(args, name)
    if val is None:
        raise ValueError(f"--{name} is required (flag or config file)")
    return float(val)


def cmd_classify(args) -> int:
    s0 = _require_flag(args, "s0")
    w0 = _require_flag(args, "w0")
    if s0 <= 0.0:
        raise ValueError("s0 must be positive")
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
    if sc.tag is SolutionClassTag.GAMMA_MINUS_BLOWUP:
        report["blowup_bound"] = blowup_bound_as_posed(params, s0, w0)

    if args.json:
        text = json.dumps(report, sort_keys=True, indent=2,
                          allow_nan=True) + "\n"
    else:
        lines = [f"class: {report['class']}"]
        for key in ("s0", "w0", "n", "eps_prime", "eps_tilde", "fiber_coeff",
                    "causal_sign", "limit_at_zero", "limit_at_infinity"):
            v = report[key]
            lines.append(f"{key}: {_fmt(v) if isinstance(v, float) else v}")
        lines.append("critical_points: "
                     + ";".join(_fmt(s) for s in report["critical_points"]))
        if report["blowup_s"] is not None:
            lines.append(f"blowup_s: {_fmt(report['blowup_s'])}")
            lines.append(f"blowup_sign: {report['blowup_sign']}")
        if "blowup_bound" in report:
            lines.append(f"blowup_bound: {_fmt(report['blowup_bound'])}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# ------------------------------------------------------------ portrait

_PORTRAIT_HEADER = ("traj,s0,w0,class,causal,limit_zero,limit_inf,"
                    "blowup_s,blowup_sign,critical_s,error\n")


def _portrait_row(idx: int, s0: float, w0: float, result) -> str:
    """One CSV row from a start's verdict, raw trajectory or error."""
    vals = {"traj": str(idx), "s0": _fmt(s0), "w0": _fmt(w0), "class": "",
            "causal": "", "limit_zero": "", "limit_inf": "", "blowup_s": "",
            "blowup_sign": "", "critical_s": "", "error": ""}
    if isinstance(result, Exception):
        vals["class"] = "error"
        vals["error"] = str(result).replace(",", ";").replace("\n", " ")
    else:
        if isinstance(result, Trajectory):
            # no barrier structure: report raw trajectory data untagged
            rep = limits_report(result)
            tag, causal, crit = "untagged", result.causal_sign(), ()
            limits, blowup = (rep.at_zero, rep.at_infinity), rep.blowup
        else:
            tag, causal, crit = result.tag.value, result.causal, result.critical_points
            limits, blowup = (result.limit_at_zero, result.limit_at_infinity), result.blowup
        vals.update({"class": tag, "causal": str(causal),
                     "limit_zero": _fmt(limits[0]), "limit_inf": _fmt(limits[1]),
                     "critical_s": ";".join(_fmt(s) for s in crit)})
        if blowup is not None:
            vals["blowup_s"], vals["blowup_sign"] = _fmt(blowup[0]), str(blowup[1])
    return ",".join(vals[k] for k in ("traj", "s0", "w0", "class", "causal",
                                      "limit_zero", "limit_inf", "blowup_s",
                                      "blowup_sign", "critical_s",
                                      "error")) + "\n"


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
    # the whole grid in one batched integration per direction
    if params.has_barriers:
        results = classify_as_posed_batch(params, starts, cfg)
    else:
        results = integrate_bidirectional_batch(params, starts, cfg)
    rows = [_portrait_row(idx, s0, w0, res)
            for idx, ((s0, w0), res) in enumerate(zip(starts, results))]
    _emit(_PORTRAIT_HEADER + "".join(rows), args.out)
    return 0


# ------------------------------------------------------------- profiles

def cmd_bowl(args) -> int:
    params = _params_from_args(args)
    cfg = _cfg_from_args(args)
    if not 0.0 < args.span <= cfg.s_max:
        raise ValueError("--span must lie in (0, s_max]")
    f_of, w_of = center_regular_profile(params, args.span, cfg)
    s = np.linspace(0.0, args.span, args.samples)
    f = np.asarray(f_of(s), dtype=float)
    w = np.asarray(w_of(s), dtype=float)
    lines = [f"# profile: bowl\n# params: {_params_line(params)}\n", "s,f,w\n"]
    lines += [f"{_fmt(si)},{_fmt(fi)},{_fmt(wi)}\n"
              for si, fi, wi in zip(s, f, w)]
    _emit("".join(lines), args.out)
    return 0


def cmd_separatrix(args) -> int:
    params = rotational(args.n)
    cfg = _cfg_from_args(args)
    sep = compute_separatrix(params, cfg, tol=args.tol)
    if args.format == "csv":
        lines = [f"# profile: separatrix\n# params: {_params_line(params)}\n",
                 f"# value_at_anchor: {_fmt(sep.value)}\n",
                 "s,w\n"]
        lines += [f"{_fmt(si)},{_fmt(wi)}\n"
                  for si, wi in zip(sep.trajectory.s, sep.trajectory.w)]
        _emit("".join(lines), args.out)
        return 0
    report = {
        "anchor": sep.anchor,
        "value_at_anchor": sep.value,
        "bracket": list(sep.bracket),
        "bracket_width": sep.bracket[1] - sep.bracket[0],
        "asymptote_defect": sep.asymptote_defect(args.defect_s),
        "defect_from_s": args.defect_s,
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
             "y,alpha,alpha_prime\n"]
    lines += [f"{_fmt(y)},{_fmt(a)},{_fmt(ap)}\n"
              for y, a, ap in zip(curve.y, curve.alpha, curve.alpha_prime)]
    return "".join(lines)


def cmd_wing(args) -> int:
    s0 = _require_flag(args, "s0")
    params = _params_from_args(args)
    cfg = _cfg_from_args(args)
    res = build_wing(params, s0, args.y0, cfg, y_span=args.y_span,
                     alpha_floor=args.alpha_floor)
    _emit(_wing_csv(res.wing, params, "wing"), args.out)
    return 0


def cmd_spindle(args) -> int:
    s0 = _require_flag(args, "s0")
    params = rotational(args.n)
    cfg = _cfg_from_args(args)
    curve = build_spindle(params, s0, cfg, alpha_floor=args.alpha_floor)
    _emit(_wing_csv(curve, params, "spindle"), args.out)
    return 0


def _parse_quadrants(spec: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in spec.split(","))
    except ValueError:
        raise ValueError(f"--quadrants must be a comma list like 1,2,3,4, "
                         f"got {spec!r}")


def cmd_hybrid(args) -> int:
    cfg = _cfg_from_args(args)
    hyb, grid = build_hybrid(order=args.order,
                             mask=_parse_quadrants(args.quadrants),
                             extent=args.extent, nodes=args.nodes, cfg=cfg,
                             f2_sign=-1 if args.mismatch else +1)
    x, y = grid.axes
    lines = [f"# field: hybrid\n# quadrants: {args.quadrants}\n",
             f"# f2_sign: {hyb.f2_sign}\n",
             "x,y,u\n"]
    for i in range(len(x)):
        for j in range(len(y)):
            lines.append(f"{_fmt(x[i])},{_fmt(y[j])},"
                         f"{_fmt(grid.values[i, j])}\n")
    _emit("".join(lines), args.out)
    return 0


# ----------------------------------------------------------------- mesh

def _obj_text(meta: Sequence[str], verts: np.ndarray, faces: np.ndarray,
              extra: Sequence[str] = ()) -> str:
    lines = [f"# {m}\n" for m in meta]
    lines += [f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}\n" for x, y, z in verts.tolist()]
    lines += [f"# {m}\n" for m in extra]
    lines += [f"f {a} {b} {c}\n" for a, b, c in (faces + 1).tolist()]
    return "".join(lines)


def _profile_csv_fallback(s, f, params, what: str) -> str:
    lines = [f"# profile: {what}\n# params: {_params_line(params)}\n",
             "# note: base dimension > 2 has no 3-coordinate embedding; "
             "emitting the profile instead\n",
             "s,f\n"]
    lines += [f"{_fmt(a)},{_fmt(b)}\n" for a, b in zip(s, f)]
    return "".join(lines)


def cmd_mesh(args) -> int:
    cfg = _cfg_from_args(args)
    meta_cmd = "command: " + " ".join(args.raw_argv)
    n_t, n_p = args.theta_samples, args.profile_samples
    if n_t < 3 or n_p < 2:
        raise ValueError("need --theta-samples >= 3 and --profile-samples >= 2")

    if args.target == "bowl":
        params = _params_from_args(args)
        f_of = center_regular_profile(params, args.span, cfg)[0]
        s = np.linspace(args.span / n_p, args.span, n_p)
        f = np.asarray(f_of(s), dtype=float)
        if args.n != 2:
            _emit(_profile_csv_fallback(s, f, params, "bowl"), args.out)
            return 0
        meta = [meta_cmd, f"params: {_params_line(params)}", "class: bowl"]
        if args.action == "boost":
            timelike = args.region == "timelike_T"
            surface = mesh.boost_sweep(s, f, n_t, args.theta_max, timelike)
        else:
            surface = mesh.revolve(s, f, n_t)
        _emit(_obj_text(meta, *surface), args.out)
        return 0

    if args.target in ("spindle", "wing"):
        params = rotational(args.n, eps_prime=args.eps_prime)
        if args.target == "spindle":
            curve = build_spindle(rotational(args.n), args.s0, cfg)
        else:
            curve = build_wing(params, args.s0, args.y0, cfg,
                               y_span=args.y_span).wing
        y = np.linspace(curve.y[0], curve.y[-1], n_p)
        alpha = np.interp(y, curve.y, curve.alpha)
        if args.n != 2:
            _emit(_profile_csv_fallback(alpha, y, params, args.target),
                  args.out)
            return 0
        meta = [meta_cmd, f"params: {_params_line(params)}",
                f"class: {args.target}"]
        surface = mesh.revolve(alpha, y, n_t)
        if args.target == "spindle":
            # close the ends at the extrapolated axis contacts
            surface = mesh.cap_ends(surface, n_t, curve.contact_y)
            meta.append("closed: both axis contacts capped")
        _emit(_obj_text(meta, *surface), args.out)
        return 0

    # hybrid height field over the Lorentzian plane
    hyb, grid = build_hybrid(order=args.order,
                             mask=_parse_quadrants(args.quadrants),
                             extent=args.extent, nodes=args.nodes, cfg=cfg)
    x, y = grid.axes
    m = len(x)
    cone_main = [i * m + i for i in range(m)]
    cone_anti = [i * m + (m - 1 - i) for i in range(m)]
    extra = ["cone_main: " + " ".join(str(k + 1) for k in cone_main),
             "cone_anti: " + " ".join(str(k + 1) for k in cone_anti)]
    meta = [meta_cmd, f"quadrants: {args.quadrants}",
            f"f2_sign: {hyb.f2_sign}", "class: hybrid"]
    _emit(_obj_text(meta, *mesh.height_field(x, y, grid.values), extra),
          args.out)
    return 0


# --------------------------------------------------------------- verify

def _verify_bowl(args, cfg) -> Tuple[dict, bool]:
    params = rotational(args.n)
    hs = _parse_h_list(args.h)
    nodes = [_nodes_for(args.extent, h) for h in hs]
    if args.n >= 3 and max(nodes) ** args.n > 5_000_000:
        raise ValueError("grid too large for this base dimension; "
                         "coarsen --h or shrink --extent")
    curve = bowl_curve(params, cfg)
    fields = [sample_radial_field(curve.f_dense, args.extent, nn, ndim=args.n)
              for nn in nodes]
    rep = convergence_order(*fields)
    ok = (rep.defined and rep.monotone
          and 1.7 <= rep.p_coarse <= 2.3 and 1.7 <= rep.p_fine <= 2.3)
    return {
        "target": "bowl",
        "h": list(hs),
        "residual_max": list(rep.residuals),
        "p_coarse": rep.p_coarse,
        "p_fine": rep.p_fine,
        "monotone": rep.monotone,
        "eps": residual_fund_eq(fields[0]).eps,
        "pass": ok,
    }, ok


def _verify_hybrid(args, cfg) -> Tuple[dict, bool]:
    sign = -1 if args.mismatch else +1
    node_seq = [args.nodes, 2 * args.nodes - 1, 4 * args.nodes - 3]
    grids = [build_hybrid(order=12, extent=args.extent, nodes=nn, cfg=cfg,
                          f2_sign=sign)[1] for nn in node_seq]
    rep = convergence_order(*grids)
    res_ok = (rep.defined and rep.monotone
              and 1.7 <= rep.p_coarse <= 2.3 and 1.7 <= rep.p_fine <= 2.3)

    jumps = [smoothness_scan(g, max_order=args.order) for g in grids[:2]]
    table = [{"order": q, "coarse": float(jumps[0][q]),
              "fine": float(jumps[1][q])} for q in range(args.order + 1)]
    jump_ok = jumps[0][0] == 0.0 and jumps[1][0] == 0.0
    for q in range(1, args.order + 1):
        decayed = jumps[1][q] <= jumps[0][q] / 3.0 or jumps[1][q] < 1e-8
        jump_ok = jump_ok and decayed
    jump_ok = bool(jump_ok)
    ok = bool(res_ok and jump_ok)
    return {
        "target": "hybrid",
        "f2_sign": sign,
        "nodes": node_seq,
        "residual_max": list(rep.residuals),
        "p_coarse": rep.p_coarse,
        "p_fine": rep.p_fine,
        "monotone": rep.monotone,
        "jump_table": table,
        "residual_pass": res_ok,
        "jump_pass": jump_ok,
        "pass": ok,
    }, ok


def _verify_const(args, cfg) -> Tuple[dict, bool]:
    ax = np.linspace(-1.0, 1.0, 21)
    field = GridField(axes=(ax, ax), signature=(1, 1), eps_prime=-1,
                      values=np.full((21, 21), 0.3))
    stats = residual_fund_eq(field)
    return {
        "target": "const",
        "residual_max": stats.max_abs,
        "residual_mean": stats.mean_abs,
        "note": "a constant field is not a translator; its residual is "
                "identically -1, so this control must fail",
        "pass": False,
    }, False


def cmd_verify(args) -> int:
    cfg = _cfg_from_args(args)
    handler = {"bowl": _verify_bowl, "hybrid": _verify_hybrid,
               "const": _verify_const}[args.target]
    report, ok = handler(args, cfg)
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
    sp.add_argument("--defect-s", type=float, default=50.0)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    _add_integrator(sp)
    _add_out(sp)
    table["separatrix"] = (sp, cmd_separatrix)

    sp = subs.add_parser("wing", help="wing profile to CSV")
    sp.add_argument("--s0", type=float, default=None)
    sp.add_argument("--y0", type=float, default=0.0)
    sp.add_argument("--y-span", type=float, default=None)
    sp.add_argument("--alpha-floor", type=float, default=1e-4)
    _add_params(sp)
    _add_integrator(sp)
    _add_out(sp)
    table["wing"] = (sp, cmd_wing)

    sp = subs.add_parser("spindle", help="closed rotational wing to CSV")
    sp.add_argument("--s0", type=float, default=None)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--alpha-floor", type=float, default=1e-4)
    _add_integrator(sp)
    _add_out(sp)
    table["spindle"] = (sp, cmd_spindle)

    sp = subs.add_parser("hybrid", help="glued lightcone field to CSV")
    sp.add_argument("--order", type=int, default=12)
    sp.add_argument("--nodes", type=int, default=201)
    sp.add_argument("--extent", type=float, default=2.0)
    sp.add_argument("--quadrants", default="1,2,3,4")
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
    sp.add_argument("--y0", type=float, default=0.0)
    sp.add_argument("--y-span", type=float, default=None)
    sp.add_argument("--order", type=int, default=12)
    sp.add_argument("--nodes", type=int, default=201)
    sp.add_argument("--extent", type=float, default=2.0)
    sp.add_argument("--quadrants", default="1,2,3,4")
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


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser, table = build_parser()
    try:
        args = parser.parse_args(raw)
        if getattr(args, "config", None):
            with open(args.config) as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise ValueError("--config must hold a JSON object")
            sub = table[args.command][0]
            valid = {a.dest for a in sub._actions}
            unknown = sorted(set(overrides) - valid)
            if unknown:
                raise ValueError(f"unknown config keys: {', '.join(unknown)}")
            sub.set_defaults(**overrides)
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
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
