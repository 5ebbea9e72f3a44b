import numpy as np
import pytest

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
from solitonlab.verify import _ONE_SIDED


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
    assert rep.p_coarse == pytest.approx(1.8073588859279537, rel=1e-6)
    assert rep.p_fine == pytest.approx(1.8741675685830044, rel=1e-6)


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
        _, grid = build_hybrid(order=12, nodes=nodes, extent=2.0)
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


def test_sample_radial_field_masks_axis_cells():
    prof = bowl_curve(rotational(3))
    field = sample_radial_field(prof.f_dense, extent=1.0, nodes=21)
    assert field.mask is not None and field.mask.any()
    # center cells excluded, corners kept
    assert field.mask[10, 10]
    assert not field.mask[0, 0]
