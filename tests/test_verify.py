import tracemalloc
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import (
    DegeneracyError,
    GridField,
    bowl_curve,
    build_hybrid,
    convergence_order,
    residual_fund_eq,
    rotational,
    sample_radial_field,
    smoothness_scan,
)
from solitonlab import verify as verify_module
from solitonlab.geometry import hybrid_field
from solitonlab.verify import _ONE_SIDED, _median_sign, bowl_study, hybrid_study


def _grid(extent, nodes):
    ax = np.linspace(-extent, extent, nodes)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    return ax, X, Y


def _field(values, ax, signature=(1, 1), eps_prime=-1, mask=None):
    return GridField(axes=(ax, ax), signature=signature, eps_prime=eps_prime,
                     values=values, mask=mask)


# --- GridField construction ---

def test_grid_field_requires_enough_nodes():
    ax = np.linspace(-1, 1, 4)
    with pytest.raises(ValueError):
        GridField(axes=(ax, ax), signature=(1, 1), eps_prime=-1,
                  values=np.zeros((4, 4)))


def test_grid_field_requires_uniform_axes():
    ax = np.array([0.0, 0.1, 0.25, 0.4, 0.5])
    with pytest.raises(ValueError):
        GridField(axes=(ax, ax), signature=(1, 1), eps_prime=-1,
                  values=np.zeros((5, 5)))


def test_grid_field_spacing():
    ax, X, Y = _grid(1.0, 21)
    f = _field(X * 0.0, ax)
    assert f.spacing == pytest.approx((0.1, 0.1))


# --- residual closed forms ---

def test_residual_constant_field_is_minus_one():
    """With zero gradient the divergence term drops and W = 1, so the
    residual is exactly -1/W = -1 at every interior node: the negative
    control for any claimed solution."""
    ax, X, _ = _grid(1.0, 21)
    r = residual_fund_eq(_field(np.full_like(X, 0.3), ax))
    assert r.eps == -1
    assert r.max_abs == 1.0
    assert r.mean_abs == 1.0


def test_residual_linear_field_closed_form():
    # u = 0.3 x: gradient constant, so R = -1/W with W = sqrt(1 - 0.09)
    ax, X, _ = _grid(1.0, 21)
    r = residual_fund_eq(_field(0.3 * X, ax))
    assert r.eps == -1
    assert r.max_abs == pytest.approx(1.0 / np.sqrt(0.91), abs=1e-12)


def test_residual_quadratic_field_analytic():
    """u = (x^2 + y^2)/4 on the Euclidean pattern: first differences are
    exact, so the discrete residual approaches r^2/(8 W^3) at O(h^2)."""
    errs = []
    for nodes in (41, 81):
        ax, X, Y = _grid(1.0, nodes)
        r = residual_fund_eq(_field((X ** 2 + Y ** 2) / 4.0, ax))
        r2 = X ** 2 + Y ** 2
        W = np.sqrt(1.0 - r2 / 4.0)
        errs.append(np.nanmax(np.abs(r.field - r2 / (8.0 * W ** 3))))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-3


def test_residual_degenerate_gradient_raises():
    # |grad u| = 1 on the Euclidean spacelike pattern is lightlike
    ax, X, _ = _grid(1.0, 21)
    with pytest.raises(DegeneracyError):
        residual_fund_eq(_field(1.0 * X, ax))


_TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324, 1e-300, -1e-300])


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.one_of(_TIES, st.floats(-1e300, 1e300)), min_size=1, max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=4))
def test_median_sign_is_the_sign_of_the_median(x, cuts):
    """The sign residual_fund_eq reads from per-block counts is
    np.sign(np.median(x)) over zeros, ties, subnormal middle pairs, odd and
    even sizes, and any cut of x into blocks, empty ones included."""
    x = np.array(x)
    parts = np.split(x, sorted(min(c, x.size) for c in cuts))
    assert _median_sign(parts) == np.sign(np.median(x))


def test_residual_median_sign_from_a_straddling_pair():
    """Where the usable W^2 has even size and its middle pair straddles
    zero, the sign is that of the pair's mean, as in the median.  Here
    u depends on x alone, with centered slopes 0.995 on the first two
    interior rows and 1.28 on the last two: W^2 = |grad u|^2 - 1 is
    about -0.01 at 8 of the 16 interior nodes and 0.64 at the other 8,
    so the median is about 0.31 and eps = +1, and the floor check then
    refuses the 8 negative nodes."""
    ax, _, _ = _grid(1.0, 6)
    rise = 2 * (ax[1] - ax[0])
    f = np.array([0.0, 0.0, rise * 0.995, rise * 0.995, 0.0, 0.0])
    f[4:] = f[2:4] + rise * 1.28
    u = np.repeat(f[:, None], 6, axis=1)
    with pytest.raises(DegeneracyError, match=r"sign \+1\) drops to -9\.9\d+e-03 .* at 8 "):
        residual_fund_eq(_field(u, ax))


def test_residual_mask_excludes_region():
    ax, X, Y = _grid(1.0, 21)
    u = np.full_like(X, 0.3)
    u[10, 10] = 50.0     # a spike that would dominate the statistics
    mask = np.zeros_like(u, dtype=bool)
    mask[8:13, 8:13] = True
    r = residual_fund_eq(_field(u, ax, mask=mask))
    assert r.max_abs == pytest.approx(1.0, abs=1e-12)


def test_residual_timelike_sign():
    # steep field on the Lorentzian pattern: eps flips to +1
    ax, X, Y = _grid(1.0, 21)
    r = residual_fund_eq(_field(0.3 * X, ax, signature=(1, -1), eps_prime=1))
    assert r.eps == 1


# --- convergence order ---

def test_convergence_order_on_bowl_field():
    # the planar bowl solves the planar equation, so its sampled field
    # must reproduce it at the stencil's order
    prof = bowl_curve(rotational(2))
    fields = [sample_radial_field(prof.f_dense, extent=2.0, nodes=n)
              for n in (101, 201, 401)]
    rep = convergence_order(*fields)
    assert rep.defined
    assert rep.monotone
    assert 1.7 <= rep.p_coarse <= 2.3
    assert 1.7 <= rep.p_fine <= 2.3
    # frozen from this build; guards against silent stencil regressions
    assert rep.p_coarse == pytest.approx(1.8077788754893156, rel=1e-6)
    assert rep.p_fine == pytest.approx(1.8904329483458429, rel=1e-6)


def test_convergence_order_requires_nesting():
    ax, X, Y = _grid(1.0, 21)
    f1 = _field(0.3 * X, ax)
    with pytest.raises(ValueError):
        convergence_order(f1, f1, f1)


def test_convergence_order_requires_matching_extent():
    a1, X1, _ = _grid(1.0, 21)
    a2, X2, _ = _grid(2.0, 41)
    a3, X3, _ = _grid(1.0, 81)
    with pytest.raises(ValueError):
        convergence_order(_field(0.3 * X1, a1), _field(0.3 * X2, a2),
                          _field(0.3 * X3, a3))


def test_convergence_order_zero_for_resolution_independent_error():
    # linear field: the residual is the same at every h, so p ~ 0
    fields = []
    for nodes in (21, 41, 81):
        ax, X, _ = _grid(1.0, nodes)
        fields.append(_field(0.3 * X, ax))
    rep = convergence_order(*fields)
    assert rep.defined
    assert abs(rep.p_coarse) < 0.05
    assert abs(rep.p_fine) < 0.05


def test_convergence_order_undefined_for_growing_residual():
    """A kink along y = 0 leaves a residual about 1/h there, which doubles
    under each halving: the report is not monotone and has no order."""
    fields = []
    for nodes in (21, 41, 81):
        ax, X, Y = _grid(1.0, nodes)
        fields.append(_field(0.3 * X + 0.1 * np.abs(Y), ax))
    rep = convergence_order(*fields)
    assert rep.residuals[0] < rep.residuals[1] < rep.residuals[2]
    assert rep.monotone is False
    assert rep.p_coarse is None and rep.p_fine is None and not rep.defined


# --- lightcone smoothness scan ---

def test_scan_kink_jump_closed_form():
    """u = |x - y| has transverse one-sided slopes +-sqrt(2) at the main
    diagonal, so the order-1 jump is exactly 2*sqrt(2); the field is
    continuous, so order 0 vanishes identically."""
    ax, X, Y = _grid(1.0, 41)
    f = _field(np.abs(X - Y), ax, signature=(1, -1), eps_prime=1)
    jumps = smoothness_scan(f, max_order=1)
    assert jumps[0] == 0.0
    assert jumps[1] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


def test_scan_smooth_polynomial_is_exact():
    # one-sided quadratic stencils reproduce cubics exactly up to order 2
    ax, X, Y = _grid(1.0, 41)
    f = _field(X ** 2 + X * Y - 3.0 * Y, ax, signature=(1, -1), eps_prime=1)
    jumps = smoothness_scan(f, max_order=2)
    np.testing.assert_allclose(jumps, 0.0, atol=1e-12)


def test_scan_matched_hybrid_jumps_decay_quadratically():
    j = []
    for nodes in (81, 161):
        _, grid = build_hybrid(nodes=nodes, extent=2.0)
        j.append(smoothness_scan(grid, max_order=2))
    for q in (1, 2):
        assert j[0][q] == 0.0 or j[1][q] / j[0][q] < 1.0 / 3.0, q
    assert j[0][0] == 0.0 and j[1][0] == 0.0


def _scan_by_node(u, delta, max_order):
    """Node-by-node form of the scan: the reference for the vectorized one."""
    m = u.shape[0]
    need = max_order + 2 if max_order >= 1 else 1
    jumps = np.zeros(max_order + 1)
    for i in range(need, m - need):
        for j, dj in ((i, -1), (m - 1 - i, 1)):
            for q in range(max_order + 1):
                coeff = _ONE_SIDED[q]
                right = sum(cm * u[i + k, j + k * dj] for k, cm in enumerate(coeff))
                left = sum(cm * u[i - k, j - k * dj] for k, cm in enumerate(coeff))
                dr = right / delta ** q
                dl = ((-1) ** q) * left / delta ** q
                if np.isfinite(dr) and np.isfinite(dl):
                    jumps[q] = max(jumps[q], abs(dr - dl))
    return jumps


@pytest.mark.parametrize("max_order", [0, 1, 2, 4])
def test_scan_matches_node_by_node_reference(max_order):
    ax, X, Y = _grid(1.0, 41)
    vals = np.abs(X - Y) ** 1.5 + np.sin(3.0 * X) * np.cos(2.0 * Y) + 0.1 * np.abs(X + Y)
    vals[12, 28] = np.inf
    f = _field(vals, ax, signature=(1, -1), eps_prime=1)
    want = _scan_by_node(vals, f.spacing[0] * np.sqrt(2.0), max_order)
    assert smoothness_scan(f, max_order=max_order).tobytes() == want.tobytes()


def test_scan_requires_square_grid():
    ax = np.linspace(-1.0, 1.0, 21)
    ay = np.linspace(-2.0, 2.0, 21)
    vals = np.zeros((21, 21))
    f = GridField(axes=(ax, ay), signature=(1, -1), eps_prime=1, values=vals)
    with pytest.raises(ValueError):
        smoothness_scan(f)


def test_scan_requires_room_for_stencils():
    ax, X, Y = _grid(1.0, 7)
    f = _field(X * Y, ax, signature=(1, -1), eps_prime=1)
    with pytest.raises(ValueError):
        smoothness_scan(f, max_order=2)


def test_scan_caps_order_with_warning():
    ax, X, Y = _grid(1.0, 41)
    f = _field(X * Y, ax, signature=(1, -1), eps_prime=1)
    with pytest.warns(UserWarning):
        jumps = smoothness_scan(f, max_order=9)
    assert len(jumps) == 5


def test_scan_ignores_mask():
    """The scan must look at the seam that residual statistics exclude,
    so the mask is deliberately not honoured."""
    ax, X, Y = _grid(1.0, 41)
    mask = np.ones_like(X, dtype=bool)
    f = _field(np.abs(X - Y), ax, signature=(1, -1), eps_prime=1, mask=mask)
    jumps = smoothness_scan(f, max_order=1)
    assert jumps[1] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


# --- radial sampling helper ---

def test_sample_radial_field_values():
    prof = bowl_curve(rotational(3))
    field = sample_radial_field(prof.f_dense, extent=1.0, nodes=21)
    i = 15  # x = 0.5 row, y = 0 column
    x = field.axes[0][i]
    assert field.values[i, 10] == pytest.approx(prof.f_dense(abs(x)), rel=1e-12)
    assert field.eps_prime == -1
    assert field.signature == (1, 1)


@pytest.mark.parametrize("nodes", [0, 1, 2, 4])
def test_sample_radial_field_refuses_fewer_than_5_nodes(nodes):
    """Fewer than 5 nodes are refused up front, as HybridField.sample
    refuses them, before f_of_r sees any radius."""
    calls = []
    with pytest.raises(ValueError, match="nodes >= 5"):
        sample_radial_field(lambda r: calls.append(r) or r, extent=1.0, nodes=nodes)
    assert calls == []


def test_sample_radial_field_masks_axis_cells():
    prof = bowl_curve(rotational(3))
    field = sample_radial_field(prof.f_dense, extent=1.0, nodes=21)
    assert field.mask is not None and field.mask.any()
    # center cells excluded, corners kept
    assert field.mask[10, 10]
    assert not field.mask[0, 0]


def test_studies_build_once_after_their_checks():
    """Each verify study calls its builder once, for all three grids, and
    not at all when a grid or the jump order is refused."""
    def refuse():
        raise AssertionError("built a field that the checks refuse")

    with pytest.raises(ValueError, match="grid too large"):
        bowl_study(refuse, 2.0, (0.0016, 0.0008, 0.0004), 2)
    with pytest.raises(ValueError, match="does not tile"):
        bowl_study(refuse, 2.0, (0.03, 0.015, 0.0075), 2)
    with pytest.raises(ValueError, match="grid too large"):
        hybrid_study(refuse, 1200, 2)
    with pytest.raises(ValueError, match="--order must lie"):
        hybrid_study(refuse, 21, 5)
    with pytest.raises(ValueError, match="nodes >= 5"):
        hybrid_study(refuse, 4, 2)

    built = []
    report, ok = bowl_study(lambda: built.append("bowl") or bowl_curve(rotational(2)).f_dense,
                            2.0, (0.04, 0.02, 0.01), 2)
    assert ok and report["h"] == [0.04, 0.02, 0.01] and built == ["bowl"]
    report, ok = hybrid_study(lambda: built.append("hybrid") or hybrid_field(f2_sign=-1),
                              101, 2)
    assert not ok and report["f2_sign"] == -1 and report["nodes"] == [101, 201, 401]
    assert built == ["bowl", "hybrid"]


# --- block-wise evaluation ---

@contextmanager
def _block_nodes(nodes):
    saved = verify_module._BLOCK_NODES
    verify_module._BLOCK_NODES = nodes
    try:
        yield
    finally:
        verify_module._BLOCK_NODES = saved


def _small_blocks(shape, rows):
    """One row per block, then rows per block (not a divisor of the row
    count, so the last block is partial)."""
    row = int(np.prod(shape[1:]))
    assert shape[0] % rows
    return (_block_nodes(1), _block_nodes(rows * row))


def _residual_or_error(field):
    try:
        r = residual_fund_eq(field)
    except ValueError as exc:
        return type(exc), str(exc)
    return r.max_abs, r.mean_abs, r.eps, r.field.tobytes()


def _sample_bits(field):
    return field.values.tobytes(), field.excluded().tobytes()


@lru_cache(maxsize=None)
def _profile(n):
    return bowl_curve(rotational(n)).f_dense


@settings(max_examples=12, deadline=None)
@given(target=st.sampled_from([("bowl", 2), ("bowl", 3), ("hybrid", (1, 2, 3), 1),
                               ("hybrid", (2, 3), 1), ("hybrid", (4, 1, 2), -1),
                               ("hybrid", (1, 2, 3, 4), -1)]),
       nodes=st.integers(7, 41), rows=st.integers(2, 6))
def test_block_size_changes_no_sample_bit(target, nodes, rows):
    """sample_radial_field, HybridField.sample and the residual of what
    they return are the same bit for bit at one row per block and with a
    partial last block as at the default block size: 2-D and 3-D bowls,
    hybrids on 2 and 3 quadrants (NaN off the mask) and the f2_sign = -1
    control."""
    if nodes % rows == 0:
        nodes += 1
    if target[0] == "bowl":
        f_of_r, ndim = _profile(target[1]), target[1]
        sample = lambda: sample_radial_field(f_of_r, 1.5, nodes, ndim=ndim)
    else:
        hyb = hybrid_field(mask=target[1], extent=1.5, f2_sign=target[2])
        sample = lambda: hyb.sample(nodes)
    want = sample()
    assert np.isnan(want.values).any() == (target[0] == "hybrid" and len(target[1]) < 4)
    want_residual = _residual_or_error(want)
    for blocks in _small_blocks(want.values.shape, rows):
        with blocks:
            assert _sample_bits(sample()) == _sample_bits(want)
            assert _residual_or_error(want) == want_residual


@settings(max_examples=25, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(5, 30), st.integers(5, 30)),
                       st.tuples(st.integers(5, 12), st.integers(5, 12), st.integers(5, 12))),
       signs=st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4),
       nan_share=st.sampled_from([0.0, 0.01, 0.1]), mask_share=st.sampled_from([0.0, 0.2, 0.9]),
       slope=st.sampled_from([0.05, 3.0]), rows=st.integers(2, 5), seed=st.integers(0, 2 ** 16))
def test_block_size_changes_no_residual_bit(shape, signs, nan_share, mask_share, slope,
                                            rows, seed):
    """residual_fund_eq gives the same statistics, sign and residual field
    bit for bit, or raises the same error, at one row per block and with a
    partial last block as at the default size, on random 2-D and 3-D
    fields with NaN nodes and masks."""
    if shape[0] % rows == 0:
        shape = (shape[0] + 1,) + shape[1:]
    rng = np.random.default_rng(seed)
    axes = tuple(np.linspace(-1.0, 1.0, n) for n in shape)
    values = slope * rng.uniform(-0.1, 0.1, shape)
    values[rng.random(shape) < nan_share] = np.nan
    mask = rng.random(shape) < mask_share if mask_share else None
    field = GridField(axes=axes, signature=tuple(signs[:len(shape)]), eps_prime=signs[-1],
                      values=values, mask=mask)
    want = _residual_or_error(field)
    for blocks in _small_blocks(shape, rows):
        with blocks:
            assert _residual_or_error(field) == want


def _peak_arrays(fn, nodes):
    """fn()'s peak traced allocation, in float64 arrays of nodes entries."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * nodes)


def test_verify_grids_hold_few_grid_arrays():
    """Block-wise evaluation keeps the peak memory within a few grid-sized
    arrays: sampling the 101^3 bowl grid at most 2 (its values and mask
    included), its residual at most 5 beyond the input, and the 801^2
    hybrid sample at most 3."""
    f_of_r = _profile(3)
    field = sample_radial_field(f_of_r, 2.0, 101, ndim=3)
    assert _peak_arrays(lambda: sample_radial_field(f_of_r, 2.0, 101, ndim=3), 101 ** 3) <= 2.0
    assert _peak_arrays(lambda: residual_fund_eq(field), 101 ** 3) <= 5.0
    hyb = hybrid_field()
    assert _peak_arrays(lambda: hyb.sample(801), 801 ** 2) <= 3.0
