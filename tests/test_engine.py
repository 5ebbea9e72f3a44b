import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from solitonlab import (
    BARRIER_TOL,
    EventKind,
    FlowParams,
    IntegratorConfig,
    TerminationKind,
    Trajectory,
    boost,
    bowl_series_coeffs,
    bowl_start,
    comparison_blowup_bound,
    compute_bowl,
    compute_separatrix,
    detect_blowup,
    eval_series,
    integrate,
    integrate_batch,
    integrate_bidirectional_batch,
    integrate_series,
    merge_bidirectional,
    rotational,
)
from solitonlab.classify import integrate_bidirectional
from solitonlab.engine import DIRECTIONS

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


def test_integrate_rejects_other_methods():
    with pytest.raises(ValueError, match="DOP853"):
        integrate(ROT3, (1.0, 0.5), "toward_infinity", IntegratorConfig(method="RK45"))


# --- the batched engine against scipy ---

def _scipy_arc(params, s0, w0, direction, cfg=CFG):
    """One-sided reference: scipy's DOP853 on the phase equation (in
    t = log s toward zero, trial slopes clamped at 100x the escape
    threshold), its line crossings, and its pole from the two deepest
    samples by the first-order model w ~ +-1/(s* - s) taken to 1/|w| -> 0."""
    et, ep, c = params.eps_tilde, params.eps_prime, params.fiber_coeff
    cap = 100.0 * cfg.escape_threshold
    log = direction == "toward_zero"

    def f(x, y):
        z = min(max(y[0], -cap), cap)
        return [(et + ep * z * z) * ((math.exp(x) - et * c * z) if log
                                     else (1.0 - z * et * c / x))]

    def s_of(x):
        return np.exp(x) if log else np.asarray(x)

    def cross(x, y):
        return y[0] - float(s_of(x)) * et / c

    def up(x, y):
        return y[0] - cfg.escape_threshold

    def down(x, y):
        return y[0] + cfg.escape_threshold

    up.terminal = down.terminal = True
    span = (math.log(s0), math.log(cfg.s_min_eps)) if log else (s0, cfg.s_max)
    sol = solve_ivp(f, span, [w0], method="DOP853", rtol=cfg.rel_tol,
                    atol=cfg.abs_tol, max_step=cfg.max_step, dense_output=True,
                    events=[cross, up, down])
    pole = None
    if sol.status == 1 or abs(sol.y[0, -1]) > 1000.0 * max(1.0, cfg.s_max / c):
        s_t, w_t = s_of(sol.t[-2:]), sol.y[0, -2:]
        x = 1.0 / np.abs(w_t)
        e = s_t + (-x if log else x)
        pole = e[-1] - (e[-1] - e[-2]) / (x[-1] - x[-2]) * x[-1]
    crossings = sorted(float(s) for s in s_of(sol.t_events[0]))
    s_lo, s_hi = sorted(float(s) for s in s_of(sol.t[[0, -1]]))
    return (lambda q: sol.sol(np.log(q) if log else q)[0]), crossings, pole, (s_lo, s_hi)


def _pole(traj):
    for term in (traj.termination_left, traj.termination_right):
        if term is not None and term.kind is TerminationKind.BLOW_UP:
            return term.s
    return None


def _check_against_scipy(traj, params, s0, w0, directions, cfg=CFG, events=True):
    crossings, poles = [], []
    for direction in directions:
        w_ref, cross, pole, (lo, hi) = _scipy_arc(params, s0, w0, direction, cfg)
        crossings += cross
        poles.append(pole)
        probes = lo + (hi - lo) * np.array([0.0, 0.013, 0.1, 0.37, 0.5, 0.77, 0.9])
        w_ref_at = w_ref(probes)
        regular = np.abs(w_ref_at) < 1e3
        np.testing.assert_allclose(traj.w_at(probes[regular]), w_ref_at[regular],
                                   rtol=1e-10, atol=1e-10)
    if events:
        got = sorted(e.s for e in traj.events if e.kind is EventKind.CROSSED_LINE_R)
        np.testing.assert_allclose(got, sorted(crossings), rtol=0, atol=1e-9)
    want = [p for p in poles if p is not None]
    assert len(want) <= 1
    if want:
        assert abs(_pole(traj) - want[0]) < 1e-9
    else:
        assert _pole(traj) is None


# one start per class of the strip form of rotational(3), plus an untagged
# start of the barrier-free boost(2, "spacelike") pattern
BIDIRECTIONAL_CASES = {
    "constant_plus": (ROT3, 3.0, 1.0),
    "constant_minus": (ROT3, 3.0, -1.0),
    "below_bowl": (ROT3, 1.0, -0.5),
    "above_bowl": (ROT3, 1.0, 0.9),
    "gamma_minus_blowup": (ROT3, 1.0, -2.0),
    "gamma_plus_global": (ROT3, 2.0, 1.2),
    "gamma_plus_blowup": (ROT3, 2.0, 1.5),
    "untagged_spacelike_S": (boost(2, region="spacelike"), 2.0, 2.5),
}


@pytest.fixture(scope="module")
def batched_rot3():
    """The rotational(3) cases as one batch, per name."""
    names = [k for k, (p, _, _) in BIDIRECTIONAL_CASES.items() if p == ROT3]
    trajs = integrate_bidirectional_batch(
        ROT3, [BIDIRECTIONAL_CASES[k][1:] for k in names])
    return dict(zip(names, trajs))


@pytest.mark.parametrize("name", sorted(BIDIRECTIONAL_CASES))
def test_batched_engine_matches_scipy(batched_rot3, name):
    params, s0, w0 = BIDIRECTIONAL_CASES[name]
    traj = batched_rot3.get(name)
    if traj is None:
        (traj,) = integrate_bidirectional_batch(params, [(s0, w0)])
    # the exact-constant shortcut on a barrier records no events
    _check_against_scipy(traj, params, s0, w0, DIRECTIONS,
                         events=not name.startswith("constant"))


def test_bowl_matches_scipy():
    start = bowl_start(ROT3, 1e-4)
    _check_against_scipy(compute_bowl(ROT3), ROT3, start.s, start.w, ["toward_infinity"])


def test_separatrix_trace_matches_scipy():
    c, s_far = ROT3.fiber_coeff, CFG.s_max
    w_far = s_far / c + s_far / (s_far * s_far - c * c)
    traj = compute_separatrix(ROT3).trajectory
    _check_against_scipy(traj, ROT3, s_far, w_far, ["toward_zero"])


# --- lanes are independent of their batch ---

_start = st.tuples(st.floats(0.2, 5.0), st.floats(-3.0, 3.0))


@settings(max_examples=8, deadline=None)
@given(lane=_start, others=st.lists(_start, min_size=1, max_size=5),
       where=st.integers(0, 5), direction=st.sampled_from(DIRECTIONS),
       decide=st.booleans())
def test_lane_independent_of_batch(lane, others, where, direction, decide):
    """A lane's samples, events, termination and counters are bit for bit
    the same alone and among other lanes."""
    where = min(where, len(others))
    (alone,) = integrate_batch(ROT3, [lane], direction, stop_on_line_crossing=decide)
    batch = integrate_batch(ROT3, others[:where] + [lane] + others[where:], direction,
                            stop_on_line_crossing=decide)
    among = batch[where]
    assert alone.s.tobytes() == among.s.tobytes()
    assert alone.w.tobytes() == among.w.tobytes()
    assert alone.events == among.events
    assert (alone.termination_left, alone.termination_right) == (
        among.termination_left, among.termination_right)
    assert alone.stats == among.stats
    probes = np.linspace(alone.s[0], alone.s[-1], 9)
    assert np.asarray(alone.w_at(probes)).tobytes() == np.asarray(among.w_at(probes)).tobytes()


def test_failing_lane_leaves_the_batch_alone():
    starts = [(1.0, 0.5), (-1.0, 0.5), (1.0, math.nan), (2.0, 1.2), (2.0, 1.0)]
    out = integrate_batch(ROT3, starts, "toward_infinity")
    assert isinstance(out[1], ValueError) and isinstance(out[2], ValueError)
    for k in (0, 3, 4):
        assert isinstance(out[k], Trajectory)
        single = integrate(ROT3, starts[k], "toward_infinity")
        assert out[k].w.tobytes() == single.w.tobytes()
    with pytest.raises(ValueError, match="positive"):
        integrate(ROT3, starts[1], "toward_infinity")


# --- solver counters ---

def test_stats_count_the_steps():
    """Every accepted step is one sampling interval; the rhs runs twice to
    start, 12 times per attempt and 3 times per step for dense output."""
    starts = [(1.0, -0.5), (1.0, 0.9), (2.0, 1.2), (0.3, 0.2)]
    for direction in DIRECTIONS:
        for traj in integrate_batch(ROT3, starts, direction):
            st_ = traj.stats
            assert st_.accepted == len(traj.s) - 1
            tries = st_.accepted + st_.rejected
            assert st_.rhs_evals == 2 + 12 * tries + 3 * st_.accepted
    down, up = (integrate(ROT3, (1.0, 0.9), d) for d in DIRECTIONS)
    merged = merge_bidirectional(down, up)
    assert merged.stats == down.stats + up.stats
    assert merged.stats.accepted == len(merged.s) - 1
    assert integrate(ROT3, (2.0, 1.0), "toward_infinity").stats.accepted == 0


# --- the escape cutoff ---

@pytest.mark.parametrize("s0, w0", [(1.0, -2.0), (0.5, -1.5), (2.0, 1.5),
                                    (3.0, 2.5), (1.0, 1.6)])
def test_pole_stable_under_escape_cutoff(s0, w0):
    """A pole found through the escape event at 1e6 and one found through
    step collapse below 1e8 agree to 1e-9."""
    early = detect_blowup(integrate_bidirectional(
        ROT3, s0, w0, IntegratorConfig(escape_threshold=1e6)))
    late = detect_blowup(integrate_bidirectional(ROT3, s0, w0))
    assert early[1] == late[1]
    assert abs(early[0] - late[0]) < 1e-9
