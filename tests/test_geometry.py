import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.interpolate import CubicHermiteSpline

from solitonlab import (
    IntegratorConfig,
    ProfileCurve,
    boost,
    bowl_curve,
    build_graph,
    build_hybrid,
    build_spindle,
    build_wing,
    center_profile_eval,
    center_regular_profile,
    integrate_bidirectional,
    quadrant_of,
    residual_keyODE,
    rhs_wing,
    rotational,
    smoothness_scan,
    timelike_family_from_strip,
)
from solitonlab.geometry import _cumulative_simpson, _hermite

ROT3 = rotational(3)
EUCLID2 = rotational(2, eps_prime=+1)

BOWL2_F_AT_1 = 0.24240633531804842
BOWL3_F_AT_1 = 0.16481556894011212
SADDLE_F_AT_1 = 0.2580261670370141    # height of the glued field on the x-axis
SPINDLE_CONTACT_Y = (-1.3664436426769162, 1.2707449966176891)
GM_BLOWUP_S = 1.0632503268240918


@pytest.fixture(scope="module")
def bowl2():
    return bowl_curve(rotational(2))


@pytest.fixture(scope="module")
def bowl3():
    return bowl_curve(ROT3)


@pytest.fixture(scope="module")
def spindle():
    return build_spindle(ROT3, 1.0)


@pytest.fixture(scope="module")
def hybrid_161():
    return build_hybrid(order=12, nodes=161, extent=2.0)


# --- rotationally invariant graphs ---

def test_bowl_curve_values(bowl2, bowl3):
    assert bowl2.f_dense(0.0) == 0.0
    assert bowl2.f_dense(1.0) == pytest.approx(BOWL2_F_AT_1, rel=1e-10)
    assert bowl3.f_dense(1.0) == pytest.approx(BOWL3_F_AT_1, rel=1e-10)
    assert not bowl2.truncated


def test_bowl_curve_paraboloid_near_axis(bowl3):
    # f ~ s^2/(2n) at the axis
    s = 0.01
    assert bowl3.f_dense(s) == pytest.approx(s ** 2 / 6.0, rel=1e-4)
    assert bowl3.w_dense(s) == pytest.approx(s / 3.0, rel=1e-4)


def test_bowl_curve_self_consistency(bowl3):
    assert residual_keyODE(bowl3) < 1e-8


def test_bowl_curve_domain_guard(bowl3):
    with pytest.raises(ValueError):
        bowl3.f_dense(-0.5)
    with pytest.raises(ValueError):
        bowl3.f_dense(101.0)


@pytest.mark.parametrize("case", ["center_spacelike", "bowl"])
def test_profile_evaluators_read_the_sliver_above_hi_at_hi(case, bowl3):
    """f_dense and w_dense agree on their domain: the rounding sliver up to
    hi*(1 + 1e-12) is read at hi by both, and past it both refuse."""
    if case == "bowl":
        (f, w), hi = (bowl3.f_dense, bowl3.w_dense), IntegratorConfig().s_max
    else:
        (f, w), hi = center_profile_eval(boost(2, "spacelike"), r_max=3.0), 3.0
    for dense in (f, w):
        assert dense(hi * (1 + 5e-13)) == dense(hi)
        assert np.array_equal(dense(np.array([1.0, hi * (1 + 5e-13)])),
                              dense(np.array([1.0, hi])))
        with pytest.raises(ValueError, match="domain"):
            dense(hi * (1 + 2e-12))


def test_build_graph_anchoring():
    traj = integrate_bidirectional(ROT3, 1.0, -0.5)
    g = build_graph(traj, f0=3.0)
    assert g.f[0] == 3.0
    assert not g.truncated
    assert g.f_dense(g.s[0]) == pytest.approx(3.0, abs=1e-12)
    # slope of the height equals the trajectory slope
    assert g.w_dense(2.0) == pytest.approx(traj.w_at(2.0), rel=1e-12)


def test_build_graph_truncates_at_pole():
    g = build_graph(integrate_bidirectional(ROT3, 1.0, -2.0))
    assert g.truncated
    assert g.s[-1] == pytest.approx(GM_BLOWUP_S, abs=1e-6)


# --- wings and spindles ---

def test_spindle_contacts(spindle):
    assert spindle.kind == "wing"
    assert spindle.contact == (True, True)
    assert spindle.arm_stop == ("contact", "contact")
    assert spindle.contact_y[0] == pytest.approx(SPINDLE_CONTACT_Y[0], abs=1e-6)
    assert spindle.contact_y[1] == pytest.approx(SPINDLE_CONTACT_Y[1], abs=1e-6)


def test_spindle_apex_and_floor(spindle):
    assert spindle.apex == (0.0, 1.0)
    assert spindle.alpha.max() == pytest.approx(1.0, abs=1e-8)
    assert spindle.alpha[0] == pytest.approx(1e-4, rel=1e-6)
    assert spindle.alpha[-1] == pytest.approx(1e-4, rel=1e-6)
    # lightlike cone contact: |alpha'| -> 1 at the axis
    assert abs(spindle.alpha_prime[0]) == pytest.approx(1.0, abs=1e-2)
    assert abs(spindle.alpha_prime[-1]) == pytest.approx(1.0, abs=1e-2)


def test_spindle_is_fore_aft_asymmetric(spindle):
    """The profile equation is not invariant under y -> -y (the drift term
    flips), so the two cone contacts sit at different distances from the
    apex: the spindle is egg shaped, not mirror symmetric."""
    assert abs(abs(spindle.contact_y[0]) - spindle.contact_y[1]) > 0.05


def test_spindle_requires_apex_maximum():
    with pytest.raises(ValueError, match="spindle"):
        build_spindle(EUCLID2, 1.0)


def test_wing_apex_concavity():
    res = build_wing(ROT3, 1.0)
    w = res.wing
    a_of = lambda q: np.interp(q, w.y, w.alpha)
    h = 0.01
    d2 = (a_of(h) + a_of(-h) - 2.0 * a_of(0.0)) / h ** 2
    assert d2 == pytest.approx(rhs_wing(ROT3, 1.0, 0.0), abs=1e-2)
    assert rhs_wing(ROT3, 1.0, 0.0) == -2.0


def test_wing_branches_solve_reduced_equation():
    res = build_wing(ROT3, 1.0)
    assert len(res.branches) == 2
    for b in res.branches:
        assert b.kind == "graph"
        # spline differencing floors the attainable residual near the
        # steep end; away from the edges the branch solves the equation
        assert residual_keyODE(b, edge_skip=0.1) < 1e-5
    w_lo = min(b.w.min() for b in res.branches)
    w_hi = max(b.w.max() for b in res.branches)
    assert w_lo <= -1.0 and w_hi >= 1.0


def test_euclidean_wing_steepens_without_contact():
    res = build_wing(EUCLID2, 1.0, y_span=3.0)
    assert res.wing.contact == (False, False)
    assert res.wing.arm_stop[0] == "steep"
    assert res.wing.arm_stop[1] == "span"
    # one branch per monotone stretch, opposite slope signs
    signs = sorted(np.sign(b.w[len(b.w) // 2]) for b in res.branches)
    assert signs == [-1.0, 1.0]


def _reference_arm(params, s0, y_end, cfg, alpha_floor=1e-4, steep=1e6):
    """One wing arm from the apex (0, s0) toward y_end: scipy's DOP853 on
    the second-order wing equation alpha(y) at rtol 1e-13, atol 1e-15,
    stopped at the axis floor, the ceiling s_max or |alpha'| = steep.
    Returns the solution, the stop and the extrapolated axis contact."""
    def f(y, state):
        # trial stages may probe past the floor or the steepness cap
        a = max(state[0], alpha_floor * 1e-3)
        ap = min(max(state[1], -100.0 * steep), 100.0 * steep)
        return [state[1], rhs_wing(params, a, ap)]

    events = [lambda y, st: st[0] - alpha_floor, lambda y, st: st[0] - cfg.s_max,
              lambda y, st: abs(st[1]) - steep]
    for ev in events:
        ev.terminal = True
    sol = solve_ivp(f, (0.0, y_end), [s0, 0.0], method="DOP853", rtol=1e-13, atol=1e-15,
                    max_step=cfg.max_step, dense_output=True, events=events)
    assert sol.status >= 0
    stop = next((name for name, hits in zip(("contact", "ceiling", "steep"), sol.t_events)
                 if len(hits)), "span")
    contact_y = sol.t[-1] - sol.y[0, -1] / sol.y[1, -1] if stop == "contact" else None
    return sol, stop, contact_y


@pytest.mark.parametrize("params, s0, y_span, stops", [
    (ROT3, 1.0, None, ("contact", "contact")),
    (rotational(2), 1.1, None, ("contact", "contact")),
    (ROT3, 2.0, 0.5, ("span", "span")),
    (EUCLID2, 1.0, 3.0, ("steep", "span")),
    (boost(2, "timelike"), 1.0, None, ("contact", "contact"))])
def test_wing_matches_the_wing_chart(params, s0, y_span, stops):
    """The wing from graph-chart arms against the wing equation integrated
    in y: alpha within 2e-10 at every output y, the same stops, and axis
    contacts within 1e-9.  A steep arm's last y lies a few 1e-12 past the
    reference's; the reference reads its end value there."""
    cfg = IntegratorConfig()
    wing = build_wing(params, s0, 0.0, cfg, y_span=y_span).wing
    span = cfg.s_max if y_span is None else y_span
    assert wing.arm_stop == stops
    for k, (side, y_end) in enumerate(((wing.y <= 0.0, -span), (wing.y >= 0.0, span))):
        sol, stop, contact_y = _reference_arm(params, s0, y_end, cfg)
        assert wing.arm_stop[k] == stop
        lo, hi = sorted(sol.t[[0, -1]])
        y = wing.y[side]
        assert lo - 1e-11 <= y.min() and y.max() <= hi + 1e-11
        ref = sol.sol(np.clip(y, lo, hi))[0]
        assert np.max(np.abs(wing.alpha[side] - ref)) <= 2e-10
        if contact_y is None:
            assert wing.contact_y[k] is None
        else:
            assert abs(wing.contact_y[k] - contact_y) <= 1e-9


@pytest.mark.parametrize("kwargs, name", [
    (dict(y_span=0.0), "y_span"), (dict(y_span=-1.0), "y_span"),
    (dict(y_span=math.nan), "y_span"), (dict(y_span=math.inf), "y_span"),
    (dict(alpha_floor=0.0), "alpha_floor")])
def test_wing_rejects_bad_span_and_floor(kwargs, name):
    """A y_span that is not positive and finite, or an alpha_floor that is
    not positive, is refused by name before any integration (a negative
    span once ran the arms from a cutoff above the apex without end).
    build_spindle takes no y_span."""
    with pytest.raises(ValueError, match=name):
        build_wing(ROT3, 2.0, **kwargs)
    if "y_span" not in kwargs:
        with pytest.raises(ValueError, match=name):
            build_spindle(rotational(2), 1.0, **kwargs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("y_span", [1e-12, 1e-9, 1e-5])
def test_short_wing_reads_the_apex_limits(y_span):
    """On a short arm the first nodes s0 + d*t^2 round onto the apex s0,
    the pole of w, and take its limits as t = 0 does: alpha stays finite
    and follows alpha = 1 - y^2 (alpha''(y0) = ep*et*c/s0 = -2)."""
    wing = build_wing(ROT3, 1.0, y_span=y_span).wing
    assert np.all(np.isfinite(wing.alpha)) and np.all(np.isfinite(wing.alpha_prime))
    assert np.max(np.abs(wing.alpha - (1.0 - wing.y ** 2))) <= 1e-12


def test_wing_rejects_nonpositive_apex():
    with pytest.raises(ValueError):
        build_wing(ROT3, 0.0)
    with pytest.raises(ValueError):
        build_wing(ROT3, -2.0)


# --- hybrid gluing ---

def test_hybrid_heights(hybrid_161):
    hyb, grid = hybrid_161
    assert hyb.u(1.0, 0.0) == pytest.approx(SADDLE_F_AT_1, rel=1e-10)
    assert hyb.u(0.0, 1.0) == pytest.approx(-BOWL2_F_AT_1, rel=1e-8)
    assert hyb.u(1.0, 1.0) == 0.0
    assert hyb.u(2.0, -2.0) == 0.0


def test_hybrid_top_is_negated_bowl(hybrid_161):
    hyb, _ = hybrid_161
    b2 = bowl_curve(rotational(2))
    for y in (0.3, 0.8, 1.4):
        assert hyb.u(0.0, y) == pytest.approx(-b2.f_dense(y), abs=1e-9)


def test_hybrid_coefficients(hybrid_161):
    hyb, _ = hybrid_161
    assert hyb.coeffs_f1[2] == pytest.approx(0.25, rel=1e-15)
    assert hyb.coeffs_f1[4] == pytest.approx(1.0 / 128.0, rel=1e-14)
    for k in range(0, 6):
        assert hyb.coeffs_f2[2 * k] == pytest.approx(
            (-1) ** k * hyb.coeffs_f1[2 * k], rel=1e-13, abs=1e-18)


def test_hybrid_boost_invariance(hybrid_161):
    hyb, _ = hybrid_161
    # u_tilde depends on x only through the Lorentz norm x^2 - y^2, so any
    # two-component x with the same Euclidean norm gives the same value
    v1 = hyb.u_tilde(np.array([0.3, 0.4]), 0.2)
    v2 = hyb.u_tilde(np.array([0.5, 0.0]), 0.2)
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert hyb.u_tilde(np.array([1.0, 0.0]), 0.0) == pytest.approx(
        hyb.u(1.0, 0.0), abs=1e-12)


def test_hybrid_grid_field(hybrid_161):
    _, grid = hybrid_161
    assert grid.signature == (1, -1)
    assert grid.eps_prime == +1
    assert grid.mask is not None
    # the cone tube is excluded from residual statistics
    assert grid.mask.any()


def test_hybrid_matched_jumps_small(hybrid_161):
    _, grid = hybrid_161
    jumps = smoothness_scan(grid, max_order=2)
    assert jumps[0] == 0.0
    assert jumps[1] < 1e-5
    assert jumps[2] < 1e-3


def test_hybrid_mismatch_jumps_are_finite_size():
    """Flipping the sign of the top/bottom pieces misaligns odd orders at
    the cone: the order-1 jump equals sqrt(2)*p and the order-2 jump
    32*p^2*d1 at cone position p (closed forms from the quartic term)."""
    _, grid = build_hybrid(order=12, nodes=161, extent=2.0, f2_sign=-1)
    jumps = smoothness_scan(grid, max_order=2)
    h = 4.0 / 160
    p_max = 2.0 - 4 * h
    assert jumps[0] == 0.0
    assert jumps[1] == pytest.approx(np.sqrt(2.0) * p_max, rel=1e-3)
    assert jumps[2] == pytest.approx(p_max ** 2 / 4.0, rel=1e-3)


def test_hybrid_quadrant_mask():
    hyb, _ = build_hybrid(order=8, nodes=81, extent=2.0, mask=(1, 2))
    assert np.isfinite(hyb.u(1.0, 0.0))
    assert np.isfinite(hyb.u(0.0, 1.0))
    assert np.isnan(hyb.u(-1.0, 0.0))
    assert np.isnan(hyb.u(0.0, -1.0))


@pytest.mark.parametrize("mask", [(1, 3), (2, 4), (1,), (0, 1), (1, 5)])
def test_hybrid_mask_validation(mask):
    with pytest.raises(ValueError):
        build_hybrid(order=8, nodes=81, extent=2.0, mask=mask)


def test_hybrid_order_floor():
    with pytest.raises(ValueError):
        build_hybrid(order=3, nodes=81, extent=2.0)


@pytest.mark.parametrize("x, y, q", [
    (1.0, 0.0, 1), (0.0, 1.0, 2), (-1.0, 0.0, 3), (0.0, -1.0, 4),
    (1.0, 1.0, 0), (2.0, -2.0, 0), (3.0, 1.0, 1), (-1.0, 2.0, 2),
])
def test_quadrant_of(x, y, q):
    assert quadrant_of(x, y) == q


# --- center-regular profiles for arbitrary sign patterns ---

def test_center_profile_matches_bowl(bowl3):
    f_eval, w_eval = center_profile_eval(ROT3, r_max=5.0)
    s = np.linspace(0.0, 4.0, 17)
    np.testing.assert_allclose(f_eval(s), bowl3.f_dense(s), atol=1e-9)
    np.testing.assert_allclose(w_eval(s[1:]), bowl3.w_dense(s[1:]), atol=1e-9)


def test_center_profile_spacelike_wedge():
    f_eval, _ = center_profile_eval(boost(2, region="spacelike"), r_max=3.0)
    assert f_eval(1.0) == pytest.approx(SADDLE_F_AT_1, rel=1e-9)
    assert f_eval(0.0) == 0.0


def test_center_regular_profile_as_posed(bowl2):
    s = np.linspace(0.0, 3.0, 13)
    f_tl, w_tl = center_regular_profile(boost(2, region="timelike"), 3.0)
    np.testing.assert_array_equal(f_tl(s), -bowl2.f_dense(s))
    np.testing.assert_array_equal(w_tl(s), -bowl2.w_dense(s))
    assert f_tl(1.0) == -bowl2.f_dense(1.0)
    f_rot = center_regular_profile(rotational(2), 3.0)[0]
    np.testing.assert_array_equal(f_rot(s), bowl2.f_dense(s))
    sp = boost(2, region="spacelike")
    f_eval, w_eval = center_profile_eval(sp, r_max=3.0 * 1.01 + 0.5)
    f_sp, w_sp = center_regular_profile(sp, 3.0)
    np.testing.assert_array_equal(f_sp(s), f_eval(s))
    np.testing.assert_array_equal(w_sp(s), w_eval(s))


# --- timelike profiles transported from the canonical strip ---

def test_timelike_family_bowl():
    tl = boost(2, region="timelike")
    prof = timelike_family_from_strip(tl, "bowl")
    assert prof.params == tl
    assert prof.f_dense(1.0) == pytest.approx(-BOWL2_F_AT_1, rel=1e-9)


def test_timelike_family_below_bowl_strip_bounds():
    tl = boost(2, region="timelike")
    prof = timelike_family_from_strip(tl, "below_bowl")
    assert np.all(np.abs(prof.w) <= 1.0 + 1e-10)


def test_timelike_family_rejects_wrong_pattern():
    with pytest.raises(ValueError):
        timelike_family_from_strip(ROT3, "bowl")


def test_timelike_family_rejects_unknown_class():
    tl = boost(2, region="timelike")
    with pytest.raises(ValueError):
        timelike_family_from_strip(tl, "saddle")


def test_keyode_residual_needs_dense_slope(bowl3):
    bare = ProfileCurve(kind="graph", params=ROT3, s=bowl3.s, f=bowl3.f, w=bowl3.w)
    with pytest.raises(ValueError, match="w_dense"):
        residual_keyODE(bare)


def test_profile_curve_validation():
    with pytest.raises(ValueError):
        ProfileCurve(kind="ribbon", params=ROT3)
    with pytest.raises(ValueError):
        ProfileCurve(kind="graph", params=ROT3)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(5, 400), uniform=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_simpson_and_hermite_are_scipys_bit_for_bit(n, uniform, seed):
    """The profile pipeline's quadrature and interpolant reproduce scipy's
    cumulative_simpson and CubicHermiteSpline exactly: at the nodes,
    between them, outside the range and for NaN."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-10.0, 10.0)
    if uniform:
        x = np.linspace(lo, lo + rng.uniform(0.1, 50.0), n)
    else:
        x = lo + np.cumsum(rng.uniform(1e-3, 1.0, n))
    y, dydx = rng.normal(scale=10.0, size=(2, n))

    def bits(a):
        return np.asarray(a, dtype=float).view(np.uint64)

    assert np.array_equal(bits(_cumulative_simpson(y, x)),
                          bits(cumulative_simpson(y, x=x, initial=0.0)))
    q = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                        rng.uniform(x[0] - 5.0, x[-1] + 5.0, 64),
                        [x[0] - 1.0, x[-1] + 1.0, np.nan]])
    ours, ref = _hermite(x, y, dydx), CubicHermiteSpline(x, y, dydx)
    assert np.array_equal(bits(ours(q)), bits(ref(q)))
    assert np.array_equal(bits(ours(q.reshape(2, -1)[:, ::-1])),
                          bits(ref(q.reshape(2, -1)[:, ::-1])))
    assert bits(ours(x[n // 2])) == bits(ref(x[n // 2]))
