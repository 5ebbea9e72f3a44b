from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from solitonlab import (
    BARRIER_TOL,
    EventKind,
    FlowParams,
    IntegratorConfig,
    TerminationKind,
    boost,
    bowl_series_coeffs,
    bowl_start,
    comparison_blowup_bound,
    detect_blowup,
    eval_series,
    integrate,
    integrate_series,
    merge_bidirectional,
    rotational,
)
from solitonlab.classify import integrate_bidirectional

ROT3 = rotational(3)
CFG = IntegratorConfig()
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)

# frozen from a default-tolerance run; the pole location is stable to
# ~1e-12 under tolerance tightening
BLOWUP_S = 1.0632503268240918
COTH_BOUND = 1.549306144334055
CROSSING_S = 2.4391949731195406


def series_oracle(eps_tilde, eps_prime, c, order):
    """Exact center-regular expansion coefficients, independently derived.

    Matches powers of s in s*w' = (et + ep*w^2)(s - et*c*w) with
    w = sum a_k s^k and a_0 = 0, entirely in rational arithmetic. Solving
    the s^k equation needs only lower-index coefficients, so this builds
    the sequence without the recursion the production code uses.
    """
    et, ep, cc = Fraction(eps_tilde), Fraction(eps_prime), Fraction(c)
    a = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        w2 = sum(a[i] * a[k - 1 - i] for i in range(1, k - 1))
        w3 = Fraction(0)
        for i in range(1, k - 1):
            for j in range(1, k - i):
                m = k - i - j
                if 1 <= m <= order:
                    w3 += a[i] * a[j] * a[m]
        rhs_k = ep * w2 - ep * et * cc * w3
        if k == 1:
            rhs_k += et
        a[k] = rhs_k / (k + cc)
    return a


# --- series construction ---

@pytest.mark.parametrize("params", [
    rotational(2), rotational(3), rotational(5),
    boost(2, region="spacelike"), boost(2, region="timelike"),
])
def test_series_matches_oracle(params):
    oracle = series_oracle(params.eps_tilde, params.eps_prime,
                           params.fiber_coeff, 13)
    got = bowl_series_coeffs(params, 13)
    ref = np.array([float(x) for x in oracle])
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-17)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_series_closed_forms(n):
    a = series_oracle(+1, -1, n - 1, 5)
    assert a[1] == Fraction(1, n)
    assert a[3] == Fraction(-1, n ** 3 * (n + 2))
    assert all(a[k] == 0 for k in range(0, 6, 2))


def test_series_rot3_fifth_coefficient_vanishes():
    # a coincidence of n = 3: the s^5 term drops out
    a = series_oracle(+1, -1, 2, 7)
    assert a[5] == 0
    assert a[7] != 0


def test_eval_series_horner_consistency():
    coeffs = bowl_series_coeffs(ROT3, 9)
    s = 0.37
    direct = sum(c * s ** k for k, c in enumerate(coeffs))
    assert eval_series(coeffs, s) == pytest.approx(direct, rel=1e-15)


def test_integrate_series_height_coefficients():
    # height f = integral of w: F_j = a_{j-1}/j, constant term selectable
    sl = boost(2, region="spacelike")
    F = integrate_series(bowl_series_coeffs(sl, 9))
    assert F[0] == 0.0
    assert F[2] == pytest.approx(0.25, rel=1e-15)
    assert F[4] == pytest.approx(1.0 / 128.0, rel=1e-14)
    assert F[6] == pytest.approx(1.0 / 4608.0, rel=1e-13)
    assert integrate_series(bowl_series_coeffs(sl, 9), const=2.0)[0] == 2.0


def test_bowl_start_values():
    st = bowl_start(ROT3, 1e-3)
    assert st.s == 1e-3
    assert st.w == pytest.approx(0.0003333333259259259, rel=1e-13)
    st2 = bowl_start(rotational(2), 1e-3)
    assert st2.w == pytest.approx(0.0004999999687500013, rel=1e-13)


def test_bowl_start_rejects_large_anchor():
    # the expansion only certifies a neighbourhood of the axis
    with pytest.raises(ValueError):
        bowl_start(ROT3, 0.9)


# --- integration basics ---

def test_integrate_rejects_bad_direction():
    with pytest.raises(ValueError):
        integrate(ROT3, (1.0, 0.5), direction="up")


def test_constant_barrier_shortcut():
    traj = integrate(ROT3, (2.0, 1.0), direction="toward_infinity", cfg=CFG)
    assert set(np.unique(traj.w)) == {1.0}
    assert traj.termination_right.kind is TerminationKind.REACHED_S_MAX
    down = integrate(ROT3, (2.0, -1.0), direction="toward_zero", cfg=CFG)
    assert set(np.unique(down.w)) == {-1.0}


def test_strip_trajectories_stay_in_open_strip():
    rng = np.random.default_rng(11)
    for _ in range(12):
        s0 = float(rng.uniform(0.2, 5.0))
        w0 = float(rng.uniform(-0.95, 0.95))
        traj = integrate_bidirectional(ROT3, s0, w0)
        # both tails saturate onto a barrier in double precision (solver
        # noise ~1e-14 around +-1); anything beyond the contact band would
        # be a genuine crossing into a Gamma region
        assert np.all(np.abs(traj.w) <= 1.0 + BARRIER_TOL), (s0, w0)
        assert abs(traj.w_at(s0)) < 1.0
        assert np.any(np.abs(traj.w) < 0.999), (s0, w0)
        assert traj.termination_left.kind is TerminationKind.DOMAIN_BOUNDARY_ZERO
        assert traj.termination_right.kind is TerminationKind.REACHED_S_MAX


def test_crossing_event_location():
    traj = integrate(ROT3, (2.0, 1.2), direction="toward_infinity", cfg=CFG,
                     stop_on_line_crossing=True)
    hits = [e for e in traj.events if e.kind is EventKind.CROSSED_LINE_R]
    assert len(hits) == 1
    assert hits[0].s == pytest.approx(CROSSING_S, abs=1e-9)
    # a decision run ends at the crossing, not at a boundary
    assert traj.termination_right is None


def test_crossing_nonterminal_by_default():
    traj = integrate(ROT3, (2.0, 1.2), direction="toward_infinity", cfg=CFG)
    assert any(e.kind is EventKind.CROSSED_LINE_R for e in traj.events)
    assert traj.termination_right.kind is TerminationKind.REACHED_S_MAX


def test_blow_up_detection_and_pole():
    traj = integrate_bidirectional(ROT3, 1.0, -2.0)
    term = traj.termination_right
    assert term.kind is TerminationKind.BLOW_UP
    assert term.sign == -1
    assert term.s == pytest.approx(BLOWUP_S, abs=1e-9)
    assert detect_blowup(traj) == (term.s, -1)
    assert any(e.kind is EventKind.STEP_COLLAPSE for e in traj.events)


def test_pole_location_stable_under_tolerance():
    loose = detect_blowup(integrate_bidirectional(ROT3, 1.0, -2.0))
    tight = detect_blowup(integrate_bidirectional(ROT3, 1.0, -2.0, cfg=TIGHT))
    assert abs(loose[0] - tight[0]) < 1e-9


def test_detect_blowup_none_for_global():
    traj = integrate_bidirectional(ROT3, 1.0, -0.5)
    assert detect_blowup(traj) is None


def test_comparison_blowup_bound_value():
    assert comparison_blowup_bound(ROT3, 1.0, -2.0) == pytest.approx(
        COTH_BOUND, rel=1e-12)


def test_blow_up_before_comparison_bound():
    traj = integrate_bidirectional(ROT3, 1.0, -2.0)
    s_star = detect_blowup(traj)[0]
    assert 1.0 < s_star < comparison_blowup_bound(ROT3, 1.0, -2.0)


def test_log_substitution_agrees_with_raw():
    """The t = log s integration toward zero against raw-s DOP853."""
    lo = integrate(ROT3, (1.0, -0.5), direction="toward_zero", cfg=CFG)
    et, ep, c = ROT3.eps_tilde, ROT3.eps_prime, ROT3.fiber_coeff
    ra = solve_ivp(lambda s, y: [(et + ep * y[0] ** 2) * (1.0 - y[0] * et * c / s)],
                   (1.0, CFG.s_min_eps), [-0.5], method="DOP853", rtol=1e-10,
                   atol=1e-12, max_step=1.0, dense_output=True)
    assert abs(lo.w_at(1e-6) - ra.sol(1e-6)[0]) < 1e-10


def test_tolerance_consistency():
    a = integrate(ROT3, (1.0, -0.5), direction="toward_infinity", cfg=CFG)
    b = integrate(ROT3, (1.0, -0.5), direction="toward_infinity", cfg=TIGHT)
    assert abs(a.w_at(3.0) - b.w_at(3.0)) < 1e-9


def test_merge_bidirectional_continuity():
    down = integrate(ROT3, (1.0, -0.5), direction="toward_zero", cfg=CFG)
    up = integrate(ROT3, (1.0, -0.5), direction="toward_infinity", cfg=CFG)
    merged = merge_bidirectional(down, up)
    assert merged.s[0] == pytest.approx(CFG.s_min_eps, rel=1e-6)
    assert merged.s[-1] == pytest.approx(CFG.s_max)
    assert np.all(np.diff(merged.s) > 0)
    assert merged.w_at(1.0) == pytest.approx(-0.5, abs=1e-12)
    # events from both halves, ordered by s
    ev_s = [e.s for e in merged.events]
    assert ev_s == sorted(ev_s)


def test_dense_output_matches_samples():
    traj = integrate(ROT3, (1.0, 0.5), direction="toward_infinity", cfg=CFG)
    mid = traj.s[len(traj.s) // 2]
    idx = np.searchsorted(traj.s, mid)
    assert traj.w_at(mid) == pytest.approx(traj.w[idx], abs=1e-12)


def test_integrator_config_immutable():
    with pytest.raises(Exception):
        CFG.rel_tol = 1e-3
