"""Finite-difference verification of the graph equation on flat grids.

A translating graph u over a flat base with diagonal signature
(eps_1, ..., eps_n) satisfies

    sum_i d_i(eps_i * d_i u / W) = 1 / W,
    W = sqrt(eps * (ep + sum_i eps_i (d_i u)^2)),

with ep the metric sign of the graph direction and eps = +-1 chosen to
make the radicand positive (timelike or spacelike graph).  This module
checks sampled fields against that equation with centered second-order
stencils, estimates the convergence order of the residual under grid
refinement, checks profile curves against the reduced ODE, and scans
piecewise-assembled fields for derivative jumps across the lightcone
diagonals with one-sided stencils.

The checks consume plain sampled data; nothing depends on how the field
was produced.  The studies that `solitonlab verify` reports live here
too: bowl_study and hybrid_study take a builder, check their grid sizes,
call it once and sample what it returns on three nested grids (a
geometry.HybridField samples itself, HybridField.sample); const_study is
the negative control.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

import numpy as np

from .core import rhs

if TYPE_CHECKING:
    from .geometry import HybridField


class DegeneracyError(ValueError):
    """The discretized W^2 changes sign or collapses on the unmasked region."""


@dataclass
class GridField:
    """A scalar field sampled on a uniform rectilinear grid.

    axes are the per-axis node coordinates (uniform spacing each), values
    the samples with shape (len(axes[0]), ...), signature the diagonal
    base metric signs, eps_prime the metric sign of the graph direction.
    mask marks nodes excluded from residual statistics (True = excluded),
    e.g. a tube around a lightcone or a symmetry axis.
    """

    axes: Tuple[np.ndarray, ...]
    signature: Tuple[int, ...]
    eps_prime: int
    values: np.ndarray
    mask: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.axes) != self.values.ndim:
            raise ValueError("one coordinate axis per value dimension required")
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("values shape must match the axis lengths")
        if any(s not in (-1, +1) for s in self.signature):
            raise ValueError("signature entries must be +-1")
        if len(self.signature) != len(self.axes):
            raise ValueError("one signature sign per axis required")
        if self.eps_prime not in (-1, +1):
            raise ValueError("eps_prime must be +-1")
        for a in self.axes:
            if len(a) < 5:
                raise ValueError("need at least 5 nodes per axis for stencils")
            d = np.diff(a)
            if not np.all(d > 0) or np.ptp(d) > 1e-9 * d[0]:
                raise ValueError("axes must be uniform and increasing")
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.values.shape:
                raise ValueError("mask shape must match values shape")

    @property
    def spacing(self) -> Tuple[float, ...]:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    def excluded(self) -> np.ndarray:
        if self.mask is None:
            return np.zeros(self.values.shape, dtype=bool)
        return self.mask


def _central_diff(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered first difference; the boundary layer comes back NaN."""
    out = np.full_like(arr, np.nan)
    lo = [slice(None)] * arr.ndim
    hi = [slice(None)] * arr.ndim
    mid = [slice(None)] * arr.ndim
    lo[axis] = slice(0, -2)
    hi[axis] = slice(2, None)
    mid[axis] = slice(1, -1)
    out[tuple(mid)] = (arr[tuple(hi)] - arr[tuple(lo)]) / (2.0 * h)
    return out


@dataclass
class ResidualStats:
    """Residual summary: extremes plus the full field (NaN where undefined)."""

    max_abs: float
    mean_abs: float
    field: np.ndarray
    eps: int


# residual_fund_eq refuses a field whose W^2, read in the sign of its median,
# falls to this at an unmasked node
_W2_FLOOR = 1e-6


def residual_fund_eq(field: GridField) -> ResidualStats:
    """Discrete residual of the graph equation over the unmasked interior.

    Both derivative layers use centered differences, so the statistics
    cover nodes at least two cells from the boundary.  The sign eps of
    W^2 is inferred from the interior median and then enforced: any
    unmasked node where eps*(ep + |grad u|^2) falls to _W2_FLOOR raises
    DegeneracyError, since the graph equation degenerates at the
    lightlike locus.
    """
    u = field.values
    hs = field.spacing
    grads = [_central_diff(u, i, hs[i]) for i in range(u.ndim)]
    w2_raw = field.eps_prime + sum(
        sig * g * g for sig, g in zip(field.signature, grads))

    inner1 = np.isfinite(w2_raw)
    usable1 = inner1 & ~field.excluded()
    if not np.any(usable1):
        raise ValueError("no unmasked interior nodes to verify")
    med = float(np.median(w2_raw[usable1]))
    if med == 0.0:
        raise DegeneracyError("median W^2 is exactly zero on the interior")
    eps = +1 if med > 0.0 else -1

    w2 = eps * w2_raw
    bad = usable1 & (w2 <= _W2_FLOOR)
    if np.any(bad):
        worst = float(np.nanmin(np.where(usable1, w2, np.nan)))
        raise DegeneracyError(
            f"W^2 (sign {eps:+d}) drops to {worst:.3e} <= floor {_W2_FLOOR:.1e} "
            f"at {int(np.count_nonzero(bad))} unmasked nodes; the field "
            "crosses or grazes the lightlike locus")

    with np.errstate(invalid="ignore"):
        w = np.sqrt(np.where(w2 > 0.0, w2, np.nan))
    div = np.zeros_like(u)
    for i, (sig, g) in enumerate(zip(field.signature, grads)):
        div = div + _central_diff(sig * g / w, i, hs[i])
    residual = div - 1.0 / w

    usable2 = np.isfinite(residual) & ~field.excluded()
    if not np.any(usable2):
        raise ValueError("no unmasked second-layer interior nodes to verify")
    vals = residual[usable2]
    residual = np.where(usable2, residual, np.nan)
    return ResidualStats(max_abs=float(np.max(np.abs(vals))),
                         mean_abs=float(np.mean(np.abs(vals))),
                         field=residual, eps=eps)


# residual_keyODE checks the reduced equation at this many points
_N_CHECK = 1500


def residual_keyODE(profile, edge_skip: float = 0.01) -> float:
    """Max residual |f'' - (et + ep f'^2)(1 - f' h)| of a graph profile.

    f'' comes from centrally differencing the profile's dense slope
    evaluator with a step tuned for double-precision differencing, so the
    figure measures self-consistency of the produced curve against the
    reduced equation, independent of how it was integrated.
    """
    if getattr(profile, "kind", "graph") != "graph":
        raise ValueError("reduced-equation residual applies to graph profiles; "
                         "check wing curves through their inverted branches")
    if profile.w_dense is None:
        raise ValueError("reduced-equation residual needs the profile's dense "
                         "slope evaluator w_dense")
    params = profile.params
    s = np.asarray(profile.s, dtype=float)
    w_of = profile.w_dense
    span = s[-1] - s[0]
    lo, hi = s[0] + edge_skip * span, s[-1] - edge_skip * span
    q = np.linspace(lo, hi, _N_CHECK)
    # optimal central-difference step for ~1e-13 evaluator noise
    dq = 6.7e-5 * np.maximum(np.abs(q), 0.05 * span)
    dq = np.minimum(dq, 0.45 * np.minimum(q - s[0], s[-1] - q))
    wq = np.asarray(w_of(q), dtype=float)
    dw = (np.asarray(w_of(q + dq), dtype=float)
          - np.asarray(w_of(q - dq), dtype=float)) / (2.0 * dq)
    return float(np.max(np.abs(dw - rhs(params, q, wq))))


@dataclass
class ConvergenceReport:
    """Residual decay across nested refinements and the estimated order."""

    residuals: Tuple[float, ...]
    p_coarse: Optional[float]
    p_fine: Optional[float]
    monotone: bool

    @property
    def defined(self) -> bool:
        return self.p_coarse is not None and self.p_fine is not None


def convergence_order(field_h: GridField, field_h2: GridField,
                      field_h4: GridField) -> ConvergenceReport:
    """Estimate the residual convergence order from three nested grids.

    Computes max |R| at h, h/2, h/4; p = log2(R(h)/R(h/2)) cross-checked
    against the h/2-h/4 pair.  Residuals that grow under refinement by
    more than measurement slack leave the order undefined (reported, not
    raised).  Grids must share their extent and be successive halvings.

    Coarse grids can be pre-asymptotic: the n = 3 bowl at h = 0.16, 0.08,
    0.04 on extent 2 gives p_fine = 1.708, while h = 0.08, 0.04, 0.02 on
    extent 1 gives orders 1.99 and 2.00.
    """
    fields = (field_h, field_h2, field_h4)
    for a, b in ((field_h, field_h2), (field_h2, field_h4)):
        for ax_a, ax_b in zip(a.axes, b.axes):
            if len(ax_b) != 2 * len(ax_a) - 1:
                raise ValueError("grids must be successive halvings of the first")
            if abs(ax_a[0] - ax_b[0]) > 1e-12 or abs(ax_a[-1] - ax_b[-1]) > 1e-12:
                raise ValueError("nested grids must share their extent")
    res = tuple(residual_fund_eq(f).max_abs for f in fields)
    monotone = res[1] <= 1.05 * res[0] and res[2] <= 1.05 * res[1]
    if not monotone or any(r == 0.0 for r in res):
        return ConvergenceReport(res, None, None, monotone)
    return ConvergenceReport(res, math.log2(res[0] / res[1]),
                             math.log2(res[1] / res[2]), monotone)


# one-sided first/second-layer stencils, O(h^2), forward orientation
_ONE_SIDED = {
    0: np.array([1.0]),
    1: np.array([-1.5, 2.0, -0.5]),
    2: np.array([2.0, -5.0, 4.0, -1.0]),
    3: np.array([-2.5, 9.0, -12.0, 7.0, -1.5]),
    4: np.array([3.0, -14.0, 26.0, -24.0, 11.0, -2.0]),
}
# the highest jump order the stencil table resolves
MAX_JUMP_ORDER = max(_ONE_SIDED)


def smoothness_scan(field: GridField, max_order: int = 2) -> np.ndarray:
    """Max derivative jumps across the lightcone diagonals, per order.

    At every node lying exactly on x = y or x = -y, one-sided transverse
    derivatives of orders 0..max_order are taken from each side along the
    grid diagonal (second-order stencils, spacing h*sqrt(2)) and their
    difference recorded.  Returns the per-order maxima over all scanned
    nodes.  Orders the grid cannot resolve are capped with a warning.
    The exclusion mask is ignored: the scan exists precisely to examine
    the assembly seam that residual statistics mask out.
    """
    if field.values.ndim != 2:
        raise ValueError("lightcone scan applies to two-dimensional fields")
    x, y = field.axes
    if len(x) != len(y) or not np.allclose(x, y, rtol=0, atol=1e-12 * max(1, abs(x[-1]))):
        raise ValueError("scan needs identical axes so diagonal nodes exist")
    if max_order > MAX_JUMP_ORDER:
        warnings.warn(f"order capped at {MAX_JUMP_ORDER} by the stencil table",
                      stacklevel=2)
        max_order = MAX_JUMP_ORDER
    m = len(x)
    need = max_order + 2 if max_order >= 1 else 1
    if need >= m // 2:
        raise ValueError("grid too small to fit one-sided stencils")

    u = field.values
    h = field.spacing[0]
    delta = h * math.sqrt(2.0)
    jumps = np.zeros(max_order + 1)
    # on-diagonal nodes (i, j) of x = y, then of x = -y; the transverse
    # unit step in index space is (1, -1) on the first and (1, 1) on the second
    r = np.arange(need, m - need)
    i = np.concatenate([r, r])
    j = np.concatenate([r, m - 1 - r])
    dj = np.repeat([-1, 1], len(r))
    for q in range(max_order + 1):
        right = left = 0
        for k, cm in enumerate(_ONE_SIDED[q]):
            right = right + cm * u[i + k, j + k * dj]
            left = left + cm * u[i - k, j - k * dj]
        dr = right / delta ** q
        dl = ((-1) ** q) * left / delta ** q
        ok = np.isfinite(dr) & np.isfinite(dl)
        if ok.any():
            jumps[q] = np.max(np.abs(dr[ok] - dl[ok]))
    return jumps


# sample_radial_field masks a ball of this radius, in grid cells, around the center
_AXIS_CELLS = 3


def sample_radial_field(f_of_r, extent: float, nodes: int, ndim: int = 2) -> GridField:
    """Sample u(x) = f(|x|) on a centered cube grid, masking an axis tube.

    The base is Euclidean (signature all +1) and the graph direction has
    metric sign ep = -1, as for rotational(n).  f_of_r must accept a
    vectorized radius >= 0.  The mask excludes a ball of _AXIS_CELLS = 3
    grid cells around the symmetry point, where the radial coordinate
    degenerates.
    """
    ax = np.linspace(-extent, extent, nodes)
    grids = np.meshgrid(*([ax] * ndim), indexing="ij")
    r = np.sqrt(sum(g * g for g in grids))
    values = np.asarray(f_of_r(r), dtype=float)
    h = ax[1] - ax[0]
    mask = r <= _AXIS_CELLS * h
    return GridField(axes=(ax,) * ndim, signature=(1,) * ndim,
                     eps_prime=-1, values=values, mask=mask)


# --------------------------------------------------------- verify studies
#
# The studies that `solitonlab verify` reports.  Each checks its grid
# sizes before it builds anything, so its errors name that command's
# flags, and returns the JSON report with its verdict.

def _second_order(rep: ConvergenceReport) -> bool:
    """Whether a convergence report shows second order: defined, monotone,
    and both observed orders in the window [1.7, 2.3]."""
    return bool(rep.defined and rep.monotone
                and 1.7 <= rep.p_coarse <= 2.3 and 1.7 <= rep.p_fine <= 2.3)


def _check_grid(nodes: int, ndim: int, remedy: str) -> None:
    """Refuse a verify grid of nodes^ndim points beyond 5,000,000 before
    anything is allocated."""
    if nodes ** ndim > 5_000_000:
        raise ValueError(f"grid too large for this base dimension; {remedy}")


def _nodes_for(extent: float, h: float) -> int:
    if not 0.0 < extent < math.inf:
        raise ValueError("--extent must be positive and finite")
    if not 0.0 < h < math.inf:
        raise ValueError("--h spacings must be positive and finite")
    n = 2.0 * extent / h
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"spacing {h} does not tile [-{extent}, {extent}]")
    return int(round(n)) + 1


def bowl_study(build: Callable[[], Callable], extent: float,
               hs: Sequence[float], ndim: int) -> Tuple[dict, bool]:
    """Residual convergence of a radial profile on three nested grids.

    build() returns the height f(r); it is called once, after the grids
    of spacings hs over [-extent, extent]^ndim have passed the size
    check.  u = f(|x|) is sampled on each (sample_radial_field), and the
    study passes where the residual decays at second order (observed
    orders in [1.7, 2.3]).
    """
    nodes = [_nodes_for(extent, h) for h in hs]
    _check_grid(max(nodes), ndim, "coarsen --h or shrink --extent")
    f_of_r = build()
    fields = [sample_radial_field(f_of_r, extent, nn, ndim=ndim) for nn in nodes]
    rep = convergence_order(*fields)
    ok = _second_order(rep)
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


def hybrid_study(build: Callable[[], "HybridField"], nodes: int,
                 max_order: int) -> Tuple[dict, bool]:
    """Residual convergence and seam smoothness of a glued hybrid field.

    build() returns the geometry.HybridField; it is called once, after
    the refinement n, 2n - 1, 4n - 3 (n = nodes) and max_order have
    passed their checks, and each grid is a sample of that one field.  The residual must decay at
    second order over the three grids, the order-0 jump must be exactly 0
    on the two coarser ones, and every jump of order 1..max_order must
    fall by 3x from the coarse grid to the next or lie below 1e-8.
    """
    if not 0 <= max_order <= MAX_JUMP_ORDER:
        raise ValueError(f"--order must lie in 0..{MAX_JUMP_ORDER}, got {max_order}")
    node_seq = [nodes, 2 * nodes - 1, 4 * nodes - 3]
    _check_grid(node_seq[-1], 2, "lower --nodes")
    if nodes < 5:
        raise ValueError("need nodes >= 5 for a grid sample")
    hyb = build()
    grids = [hyb.sample(nn) for nn in node_seq]
    rep = convergence_order(*grids)
    res_ok = _second_order(rep)

    jumps = [smoothness_scan(g, max_order=max_order) for g in grids[:2]]
    table = [{"order": q, "coarse": float(jumps[0][q]),
              "fine": float(jumps[1][q])} for q in range(max_order + 1)]
    jump_ok = jumps[0][0] == 0.0 and jumps[1][0] == 0.0
    for q in range(1, max_order + 1):
        decayed = jumps[1][q] <= jumps[0][q] / 3.0 or jumps[1][q] < 1e-8
        jump_ok = jump_ok and decayed
    jump_ok = bool(jump_ok)
    ok = bool(res_ok and jump_ok)
    return {
        "target": "hybrid",
        "f2_sign": hyb.f2_sign,
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


def const_study() -> Tuple[dict, bool]:
    """The negative control: a constant field is not a translator, so its
    residual is identically -1 and the study fails."""
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
