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

Grids are sampled and checked one block of whole axis-0 rows at a time,
about _BLOCK_NODES = 2^15 nodes per block (_row_blocks), so every
temporary of a block stays in cache instead of spanning the grid.
sample_radial_field and HybridField.sample hold only their values and
mask besides one block's temporaries.  residual_fund_eq runs two passes:
the first stores W^2, gathers it at the usable nodes of each block and
reads the sign of its median from per-block counts (_median_sign); the
second takes the second layer with one halo row on each side of a
block and writes the residual field.  It holds W^2, the field and the
usable values gathered for the statistics.  The block size changes no
output bit: the reductions run over the same gathered arrays in the same
order as over a whole grid.

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
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Tuple

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


# verify grids are evaluated this many nodes at a time
_BLOCK_NODES = 1 << 15


def _row_blocks(shape: Tuple[int, ...]) -> Iterator[Tuple[int, int]]:
    """(lo, hi) ranges of whole axis-0 rows covering a grid of this shape in
    order, each about _BLOCK_NODES nodes (at least one row)."""
    rows = max(1, _BLOCK_NODES // math.prod(shape[1:]))
    for lo in range(0, shape[0], rows):
        yield lo, min(lo + rows, shape[0])


def _inner(arr: np.ndarray, inset: Tuple[int, ...], axis: int = 0,
           shift: int = 0) -> np.ndarray:
    """The nodes of arr lying inset[k] cells inside it on each axis k,
    moved by shift cells along axis."""
    return arr[tuple(slice(d + (shift if k == axis else 0),
                           n - d + (shift if k == axis else 0))
                     for k, (d, n) in enumerate(zip(inset, arr.shape)))]


def _centered(arr: np.ndarray, axis: int, h: float,
              inset: Tuple[int, ...]) -> np.ndarray:
    """Centered first difference of arr along axis at its inset nodes
    (_inner; inset[axis] >= 1)."""
    return (_inner(arr, inset, axis, 1) - _inner(arr, inset, axis, -1)) / (2.0 * h)


def _median_sign(parts: Sequence[np.ndarray]) -> int:
    """np.sign(np.median(x)) of the concatenation x of parts, which hold
    no NaN, from the counts of negative and zero values in each part: the
    sign of the middle value, or of the middle pair where they share it.
    Where the size is even and the pair straddles zero, the sign of
    np.mean of that pair, as np.median takes it: the largest negative
    value or 0, and 0 or the smallest positive value."""
    neg = not_pos = size = 0
    for part in parts:
        neg += int(np.count_nonzero(part < 0.0))
        not_pos += int(np.count_nonzero(part <= 0.0))
        size += part.size

    def side(rank: int) -> int:
        return -1 if rank < neg else 0 if rank < not_pos else 1

    lo, hi = side((size - 1) // 2), side(size // 2)
    if lo == hi:
        return hi
    pair = np.zeros(2)
    if lo < 0:
        pair[0] = max(np.max(part, where=part < 0.0, initial=-math.inf) for part in parts)
    if hi > 0:
        pair[1] = min(np.min(part, where=part > 0.0, initial=math.inf) for part in parts)
    return int(np.sign(np.mean(pair)))


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

    The grid is read in blocks of rows (_row_blocks), in two passes: the
    first stores W^2 and gathers it at each block's usable nodes for the
    median's sign, the second recomputes the gradients and takes the
    second layer with one halo row of W^2 on each side of a block.
    """
    u, mask = field.values, field.mask
    n, ndim = u.shape[0], u.ndim
    signs = tuple(zip(range(ndim), field.signature, field.spacing))
    one = (1,) * ndim
    # a block's rows, one and two cells inside the grid on the other axes
    in1, in2 = (0,) + one[1:], (0,) + (2,) * (ndim - 1)

    def usable(vals: np.ndarray, lo: int, hi: int, inset: Tuple[int, ...]) -> np.ndarray:
        ok = np.isfinite(vals)
        if mask is not None:
            ok &= ~_inner(mask[lo:hi], inset)
        return ok

    # W^2 on the nodes one cell inside the grid; the boundary layer is
    # neither written nor read
    w2_raw = np.empty(u.shape)
    parts = []    # W^2 at each block's usable nodes
    for lo, hi in _row_blocks(u.shape):
        lo, hi = max(lo, 1), min(hi, n - 1)
        if lo >= hi:
            continue
        rows = u[lo - 1:hi + 1]
        grad2 = 0
        for i, sig, h in signs:
            g = _centered(rows, i, h, one)
            grad2 = grad2 + sig * g * g
        core = _inner(w2_raw[lo:hi], in1)
        np.add(field.eps_prime, grad2, out=core)
        parts.append(core[usable(core, lo, hi, in1)])
    if not any(part.size for part in parts):
        raise ValueError("no unmasked interior nodes to verify")
    eps = _median_sign(parts)
    if eps == 0:
        raise DegeneracyError("median W^2 is exactly zero on the interior")

    bad = sum(int(np.count_nonzero(eps * part <= _W2_FLOOR)) for part in parts)
    if bad:
        low = min(float((eps * part).min()) for part in parts if part.size)
        raise DegeneracyError(
            f"W^2 (sign {eps:+d}) drops to {low:.3e} <= floor "
            f"{_W2_FLOOR:.1e} at {bad} unmasked nodes; the field "
            "crosses or grazes the lightlike locus")
    del parts

    # the residual on the nodes two cells inside the grid, NaN elsewhere;
    # a block reads u two rows and W^2 one row beyond it
    residual = np.full(u.shape, np.nan)
    parts = []
    for lo, hi in _row_blocks(u.shape):
        lo, hi = max(lo, 2), min(hi, n - 2)
        if lo >= hi:
            continue
        rows = u[lo - 2:hi + 2]
        w2 = eps * _inner(w2_raw[lo - 2:hi + 2], one)
        with np.errstate(invalid="ignore"):
            w = np.sqrt(np.where(w2 > 0.0, w2, np.nan))
        div = 0.0
        for i, sig, h in signs:
            # the flux on the core widened by one cell along axis i; w
            # starts one cell inside rows
            wide = tuple(1 if k == i else 2 for k in range(ndim))
            flux = sig * _centered(rows, i, h, wide) / _inner(w, tuple(d - 1 for d in wide))
            div = div + _centered(flux, i, h, tuple(2 - d for d in wide))
        core = _inner(residual[lo:hi], in2)
        np.subtract(div, 1.0 / _inner(w, one), out=core)
        ok = usable(core, lo, hi, in2)
        parts.append(np.abs(core[ok]))
        core[~ok] = np.nan
    del w2_raw
    vals = np.concatenate(parts)
    del parts
    if not vals.size:
        raise ValueError("no unmasked second-layer interior nodes to verify")
    return ResidualStats(max_abs=float(np.max(vals)), mean_abs=float(np.mean(vals)),
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
    """Residual decay across nested refinements and the estimated order;
    eps holds the sign of W^2 on each grid (ResidualStats.eps)."""

    residuals: Tuple[float, ...]
    p_coarse: Optional[float]
    p_fine: Optional[float]
    monotone: bool
    eps: Tuple[int, ...]

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
    0.04 on extent 2 gives p_fine = 1.707, while h = 0.08, 0.04, 0.02 on
    extent 1 gives orders 1.99 and 2.00.
    """
    fields = (field_h, field_h2, field_h4)
    for a, b in ((field_h, field_h2), (field_h2, field_h4)):
        for ax_a, ax_b in zip(a.axes, b.axes):
            if len(ax_b) != 2 * len(ax_a) - 1:
                raise ValueError("grids must be successive halvings of the first")
            if abs(ax_a[0] - ax_b[0]) > 1e-12 or abs(ax_a[-1] - ax_b[-1]) > 1e-12:
                raise ValueError("nested grids must share their extent")
    stats = [residual_fund_eq(f) for f in fields]
    res = tuple(st.max_abs for st in stats)
    eps = tuple(st.eps for st in stats)
    monotone = res[1] <= 1.05 * res[0] and res[2] <= 1.05 * res[1]
    if not monotone or any(r == 0.0 for r in res):
        return ConvergenceReport(res, None, None, monotone, eps)
    return ConvergenceReport(res, math.log2(res[0] / res[1]),
                             math.log2(res[1] / res[2]), monotone, eps)


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
    vectorized radius >= 0 and act on it point by point: it is called on
    one block of grid rows at a time (_row_blocks).  The mask excludes a
    ball of _AXIS_CELLS = 3 grid cells around the symmetry point, where
    the radial coordinate degenerates.  nodes must be at least 5, as for
    every grid sample, and is checked before f_of_r is called.
    """
    if nodes < 5:
        raise ValueError("need nodes >= 5 for a grid sample")
    ax = np.linspace(-extent, extent, nodes)
    h = ax[1] - ax[0]
    shape = (nodes,) * ndim
    values = np.empty(shape)
    mask = np.empty(shape, dtype=bool)
    for lo, hi in _row_blocks(shape):
        grids = np.meshgrid(ax[lo:hi], *([ax] * (ndim - 1)), indexing="ij", sparse=True)
        r = np.sqrt(sum(g * g for g in grids))
        values[lo:hi] = f_of_r(r)
        np.less_equal(r, _AXIS_CELLS * h, out=mask[lo:hi])
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


# the most nodes a grid may have: verify's grids and the hybrid field's
MAX_GRID_NODES = 5_000_000


def check_grid(nodes: int, ndim: int, remedy: str) -> None:
    """Refuse a grid of nodes^ndim points beyond MAX_GRID_NODES before
    anything is allocated."""
    if nodes ** ndim > MAX_GRID_NODES:
        raise ValueError(f"grid too large: {nodes}^{ndim} nodes, at most "
                         f"{MAX_GRID_NODES:,}; {remedy}")


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
    check_grid(max(nodes), ndim, "coarsen --h or shrink --extent")
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
        "eps": rep.eps[0],
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
    check_grid(node_seq[-1], 2, "lower --nodes")
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
