import importlib
import math
from dataclasses import replace
from fractions import Fraction
from functools import partial

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
from solitonlab import engine
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


def test_config_rejects_nonpositive_max_step():
    for max_step in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="max_step"):
            IntegratorConfig(max_step=max_step)


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-10])
def test_config_rejects_bad_tolerances(field, value):
    # NaN fails every comparison, so only a check for 0 < tol < inf rejects it
    with pytest.raises(ValueError, match="tolerances"):
        IntegratorConfig(**{field: value})


@pytest.mark.parametrize("s_max", [math.inf, math.nan, 1e-12, -1.0])
def test_config_rejects_bad_s_max(s_max):
    with pytest.raises(ValueError, match="s_max"):
        IntegratorConfig(s_max=s_max)


def test_bowl_start_rejects_large_anchor():
    # the expansion only certifies a neighbourhood of the axis
    with pytest.raises(ValueError):
        bowl_start(ROT3, 0.9)


# --- integration basics ---

def test_integrate_rejects_bad_direction():
    with pytest.raises(ValueError):
        integrate(ROT3, (1.0, 0.5), direction="up")


def test_barrier_start_stays_on_its_barrier():
    """A start on a barrier is a lane like any other: its first step lands
    on the barrier, and it coasts there to the end of its span."""
    traj = integrate(ROT3, (2.0, 1.0), direction="toward_infinity", cfg=CFG)
    assert set(np.unique(traj.w)) == {1.0}
    assert traj.termination_right.kind is TerminationKind.REACHED_S_MAX
    down = integrate(ROT3, (2.0, -1.0), direction="toward_zero", cfg=CFG)
    assert set(np.unique(down.w)) == {-1.0}


@pytest.mark.parametrize("s0, direction", [(100.0, "toward_infinity"), (1e-10, "toward_zero")])
@pytest.mark.parametrize("w0", [1.0, -1.0])
def test_barrier_start_at_its_bound_is_one_sample(s0, direction, w0):
    """A barrier start at the end of its span is the one sample there, with
    the end's termination, as any other start at its bound."""
    traj = integrate(ROT3, (s0, w0), direction)
    assert traj.s.tolist() == [s0] and traj.w.tolist() == [w0]
    end = traj.termination_left if direction == "toward_zero" else traj.termination_right
    assert end.kind is (TerminationKind.DOMAIN_BOUNDARY_ZERO if direction == "toward_zero"
                        else TerminationKind.REACHED_S_MAX)
    assert traj.w_at(s0) == w0
    both = integrate_bidirectional(ROT3, s0, w0)
    assert both.s[0 if direction == "toward_zero" else -1] == s0
    assert set(both.w.tolist()) == {w0}


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("w0", [1.0, -1.0])
def test_barrier_termination_value_is_a_float(direction, w0):
    """A barrier start reports the value at its end as a float, as every
    stepped lane does."""
    traj = integrate(ROT3, (2.0, w0), direction)
    end = traj.termination_left if direction == "toward_zero" else traj.termination_right
    assert type(end.value) is float and end.value == w0


@pytest.mark.parametrize("s_min_eps", [1e-10, 1e-3])
@pytest.mark.parametrize("start", ["coasting", "stepped", "constant", "at_bound"])
def test_zero_cutoff_end_is_s_min_eps(s_min_eps, start):
    """A run toward zero ends at s_min_eps exactly, not at exp(log
    s_min_eps) (9.999999999999996e-11 at the default): stepped lanes, with
    or without a closed-form coast, barrier constants and starts at the
    cutoff alike; no sample lies below the start."""
    cfg = IntegratorConfig(s_min_eps=s_min_eps)
    init = {"coasting": (2.0, 0.5), "stepped": (2.0, 1.5), "constant": (2.0, 1.0),
            "at_bound": (s_min_eps, 0.5)}[start]
    traj = integrate(ROT3, init, "toward_zero", cfg)
    assert traj.s[0] == traj.termination_left.s == s_min_eps
    assert traj.termination_left.value == traj.w[0]
    both = integrate_bidirectional(ROT3, *init, cfg)
    assert both.s[0] == s_min_eps


@pytest.mark.parametrize("start", ["coasting", "stepped", "barrier", "at_bound"])
def test_zero_run_starts_at_s0(start):
    """A run toward zero starts at s0 exactly, not at exp(log s0)
    (3.7000000000000006 for s0 = 3.7): stepped lanes, with or without a
    closed-form coast, barrier starts and a start at the other end of the
    span, s_max, alike; so both directions join at s0."""
    s0, w0 = {"coasting": (3.7, 0.5), "stepped": (3.7, 1.5), "barrier": (3.7, 1.0),
              "at_bound": (100.0, 0.5)}[start]
    traj = integrate(ROT3, (s0, w0), "toward_zero")
    assert traj.s[-1] == s0 and traj.w[-1] == w0
    assert s0 in integrate_bidirectional(ROT3, s0, w0).s.tolist()


def test_w_arc_after_the_p_chart_starts_at_the_switch():
    """Toward zero a steep lane leaves the p chart at a step end s and goes
    on in the w chart from log s; its w arc starts at that s exactly, not
    at exp(log s), one ulp off for this start."""
    one = np.ones(1, dtype=bool)
    steps, arcs = engine._advance(ROT3, np.array([1e-4]), np.array([3.8]), one, one, CFG, False)
    s_switch = steps.y1[steps.arc == 0][-1]    # where the p arc ends
    assert [a.in_p for a in arcs] == [True, False] and s_switch != math.exp(math.log(s_switch))
    # the joined lane holds the join once: the w arc's last sample
    (traj,) = engine._arcs(ROT3, steps, arcs, [3.8], [0], CFG)
    assert s_switch in traj.s.tolist()
    assert math.exp(math.log(s_switch)) not in traj.s.tolist()


@pytest.mark.parametrize("s0, direction", [(3.0, "toward_zero"), (1.0, "toward_infinity")])
def test_barrier_start_crosses_the_line_at_c(s0, direction):
    """The upper barrier meets the critical line w = s/c at s = c: a start
    on it records that crossing, and with stop_on_line_crossing the run
    ends there.  The lower barrier never meets it."""
    c = ROT3.fiber_coeff
    traj = integrate(ROT3, (s0, 1.0), direction)
    assert [(e.s, e.w) for e in traj.events] == [(c, 1.0)]
    assert traj.stats.accepted == len(traj.s) - 1
    shot = integrate(ROT3, (s0, 1.0), direction, stop_on_line_crossing=True)
    assert [(e.s, e.w) for e in shot.events] == [(c, 1.0)]
    assert c in (shot.s[0], shot.s[-1])
    assert (shot.termination_left, shot.termination_right) == (None, None)
    assert integrate(ROT3, (s0, -1.0), direction).events == ()


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


# --- pole ordering in w0 at fixed s0 ---

def _poles(params, s0, ws):
    """The forward poles of the starts (s0, w), w in ws, run as one batch."""
    runs = integrate_batch(params, [(s0, w) for w in ws], "toward_infinity")
    return [detect_blowup(run)[0] for run in runs]


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([2, 3, 5]), s0=st.floats(0.2, 5.0),
       w_hi=st.floats(-4.0, -1.001), gap=st.floats(1e-3, 2.0))
def test_gamma_minus_poles_move_later_as_w0_rises(n, s0, w_hi, gap):
    """Below the lower barrier, at fixed s0, a pole moves later as w0
    rises toward -1, and lies between s0 and the comparison bound."""
    params = rotational(n)
    w_lo = w_hi - gap
    s_lo, s_hi = _poles(params, s0, [w_lo, w_hi])
    assert s_lo <= s_hi + 1e-9
    for s_star, w0 in ((s_lo, w_lo), (s_hi, w_hi)):
        assert s0 < s_star <= comparison_blowup_bound(params, s0, w0) + 1e-9


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([2, 3, 5]), s0=st.floats(0.5, 4.0),
       lift=st.floats(1e-3, 2.0), gap=st.floats(1e-3, 2.0))
def test_gamma_plus_poles_move_earlier_as_w0_grows(n, s0, lift, gap):
    """Above the separatrix (by at least 1e-3), at fixed s0, a blow-up
    pole moves earlier as w0 grows."""
    params = rotational(n)
    w_lo = float(compute_separatrix(params).trajectory.w_at(s0)) + lift
    s_lo, s_hi = _poles(params, s0, [w_lo, w_lo + gap])
    assert s0 < s_hi <= s_lo + 1e-9


def test_steep_start_below_the_switch_stays_finite():
    """At large s the switch level 2s/c is far up: from (30, 50) the
    barrier-free slope steepens fast toward zero while still in the w
    chart, and trial stages of rejected steps overshoot far.  They stay
    finite (a RuntimeWarning is an error in this suite) and the
    trajectory reaches its pole."""
    traj = integrate(boost(2, region="spacelike"), (30.0, 50.0), "toward_zero")
    assert traj.termination_left.kind is TerminationKind.BLOW_UP
    assert np.all(np.isfinite(traj.w))


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


def test_merge_calls_each_side_only_on_its_own_points():
    """w_at of a merged trajectory reads the down arc below the join and
    the up arc from it on, calling each only on its own points (and a
    scalar query one side, on the scalar itself)."""
    down, up = (integrate(ROT3, (1.0, 0.5), d) for d in DIRECTIONS)
    calls = []

    def recording(name, dense):
        def read(q):
            calls.append((name, np.array(q, dtype=float).tolist()))
            return dense(q)
        return read

    merged = merge_bidirectional(replace(down, dense=recording("down", down.dense)),
                                 replace(up, dense=recording("up", up.dense)))
    q = np.array([0.2, 1.5, 0.7, 1.0, 4.0])
    w = merged.w_at(q)
    assert sorted(calls) == [("down", [0.2, 0.7]), ("up", [1.5, 1.0, 4.0])]
    assert np.array_equal(w, np.where(q < 1.0, down.w_at(q), up.w_at(q)))
    for name, s, side in (("down", 0.3, down), ("up", 1.0, up), ("up", 2.0, up)):
        calls.clear()
        got = merged.w_at(s)
        assert calls == [(name, s)]
        assert type(got) is float and got == side.w_at(s)


_POINTS = [0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, math.nan]


@settings(max_examples=40, deadline=None)
@given(joins=st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0]), min_size=1, max_size=4)
       .map(sorted),
       q=st.one_of(st.sampled_from(_POINTS), st.lists(st.sampled_from(_POINTS), max_size=8)
                   .map(np.array), st.just(np.array(_POINTS[:6]).reshape(2, 3))),
       right=st.booleans())
def test_piecewise_routes_as_nested_joins(joins, q, right):
    """One _piecewise over non-decreasing joins calls each piece on the
    same points, in the same order, and returns the same values as the
    two-piece joins (below r, and from r on) that merging one arc at a
    time nests: toward zero each lower arc joins below the rest (right),
    toward infinity each higher one above it."""
    def run(build):
        calls = []

        def piece(i):
            def read(x):
                calls.append((i, repr(np.array(x, dtype=float).tolist())))
                return np.asarray(x, dtype=float) * 0.0 + i
            return read

        got = build([piece(i) for i in range(len(joins) + 1)])(q)
        return repr(calls), type(got), np.asarray(got).tobytes()

    def join(below, above, r):
        def evaluate(x):
            x = np.asarray(x, dtype=float)
            left = x < r
            if not left.any() or left.all():
                got = np.asarray((below if left.any() else above)(x))
                return float(got) if got.ndim == 0 else got
            out = np.empty(x.shape)
            out[left], out[~left] = below(x[left]), above(x[~left])
            return out
        return evaluate

    def nested(pieces):
        if right:
            inner = pieces[-1]
            for p, r in zip(pieces[-2::-1], joins[::-1]):
                inner = join(p, inner, r)
            return inner
        outer = pieces[0]
        for p, r in zip(pieces[1:], joins):
            outer = join(outer, p, r)
        return outer

    assert run(lambda pieces: engine._piecewise(pieces, joins)) == run(nested)


def test_dense_output_matches_samples():
    traj = integrate(ROT3, (1.0, 0.5), direction="toward_infinity", cfg=CFG)
    mid = traj.s[len(traj.s) // 2]
    idx = np.searchsorted(traj.s, mid)
    assert traj.w_at(mid) == pytest.approx(traj.w[idx], abs=1e-12)


@pytest.mark.parametrize("s", [0.0, -1.0, np.array([0.5, 0.0])])
def test_dense_output_toward_zero_refuses_nonpositive_s(s):
    """An arc integrated toward zero is stepped in log s: w_at at s <= 0
    names the query, not a math domain error.  A center-regular
    trajectory reads w(0) from its series head."""
    traj = integrate_bidirectional(ROT3, 1.0, 0.5)
    with pytest.raises(ValueError, match=r"w_at\((0\.0|-1\.0)\): s must be positive"):
        traj.w_at(s)
    assert compute_bowl(ROT3).w_at(0.0) == 0.0


def test_dense_output_refuses_past_an_unsettled_far_end():
    """A forward arc that reached s_max without settling has no dense
    output past s_max: w_at there is refused by name, as s <= 0 is toward
    zero, instead of extrapolating the last step (9.30 at s = 150).  Up
    to s_max, and in the rounding sliver above it, it reads as before."""
    traj = integrate(rotational(100), (1.0, 0.5), "toward_infinity")
    assert traj.termination_right.kind is TerminationKind.REACHED_S_MAX
    assert traj.stats.closed == 0
    for s in (150.0, np.array([50.0, 1000.0])):
        with pytest.raises(ValueError, match=r"w_at\((150|1000)\.0\): s lies past the far "
                                             r"end 100\.0 of an arc that did not settle"):
            traj.w_at(s)
    assert traj.w_at(100.0) == traj.w[-1]
    assert np.isfinite(traj.w_at(100.0 * (1 + 1e-13)))
    assert np.all(np.abs(traj.w_at(np.linspace(1.0, 100.0, 50))) < 1.0)


def test_dense_output_refuses_below_a_pole_toward_zero():
    """Toward zero a barrier-free arc blows up at s = 0.9776; below that
    pole w_at is refused by name instead of returning inf."""
    traj = integrate(rotational(2, eps_prime=1), (1.0, 5.0), "toward_zero")
    pole = traj.termination_left
    assert pole.kind is TerminationKind.BLOW_UP
    assert pole.s == pytest.approx(0.9776, abs=1e-4)
    for s in (0.49, 0.0, np.array([0.99, 0.5])):
        with pytest.raises(ValueError, match=r"w_at\((0\.49|0\.0|0\.5)\): s lies below "
                                             r"the pole .* of an arc that blew up toward zero"):
            traj.w_at(s)
    w = traj.w_at(np.array([pole.s * (1 + 1e-6), 0.99, 1.0]))
    assert w[0] > 100.0 and w[-1] == 5.0


def test_settled_forward_arc_reads_its_tail_past_s_max():
    """A forward lane that landed on a barrier ended in a closed step,
    whose tail holds past its end: w_at there is not refused."""
    traj = integrate(ROT3, (3.0, 1.0), "toward_infinity")
    assert traj.stats.closed == 1
    assert traj.w_at(150.0) == 1.0


def test_integrator_config_immutable():
    with pytest.raises(Exception):
        CFG.rel_tol = 1e-3


# --- the batched engine against scipy ---

def test_vendored_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    from solitonlab import _dop853

    assert _dop853.N_STAGES == ref.N_STAGES
    assert _dop853.N_STAGES_EXTENDED == ref.N_STAGES_EXTENDED
    for name in ("C", "A", "B", "E3", "E5", "D"):
        got, want = getattr(_dop853, name), getattr(ref, name)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _scipy_arc(params, s0, w0, direction, cfg=CFG):
    """One-sided reference: scipy's DOP853 on the phase equation (in
    t = log s toward zero, trial slopes clamped at 100x its escape level
    |w| = 1e8), its line crossings, and its pole from the two deepest
    samples by the first-order model w ~ +-1/(s* - s) taken to 1/|w| -> 0."""
    et, ep, c = params.eps_tilde, params.eps_prime, params.fiber_coeff
    escape = 1e8
    cap = 100.0 * escape
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
        return y[0] - escape

    def down(x, y):
        return y[0] + escape

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


def _check_against_scipy(traj, params, s0, w0, directions, cfg=CFG):
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
    _check_against_scipy(traj, params, s0, w0, DIRECTIONS)


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
    start each arc, 12 times per attempt and 3 times per step for dense
    output.  A lane that switches chart (to the p chart on its way to a
    pole, back to the w chart from a steep start) has two arcs, and its
    counters are their sum; a barrier start is a lane like any other.  A
    lane that settles near a barrier ends in one closed step, counted in
    closed and as one accepted step: here every run that does not blow up."""
    starts = [(1.0, -0.5), (1.0, 0.9), (2.0, 1.2), (0.3, 0.2), (1.0, -2.0), (2.0, 1.5),
              (1.0, -20.0), (1.0, 1.9)]
    for direction in DIRECTIONS:
        grows = direction == "toward_infinity"    # |w| of rotational(3)
        for (s0, w0), traj in zip(starts, integrate_batch(ROT3, starts, direction)):
            level = engine._switch_level(ROT3, s0, w0)
            in_p = abs(w0) >= level if grows else abs(w0) > level
            n_arcs = 1 + (in_p != (detect_blowup(traj) is not None))
            st_ = traj.stats
            assert st_.accepted == len(traj.s) - 1
            tries = st_.accepted + st_.rejected
            assert st_.rhs_evals == 2 * n_arcs + 12 * tries + 3 * st_.accepted
            assert st_.closed == (abs(w0) < 1.0 or detect_blowup(traj) is None)
    down, up = (integrate(ROT3, (1.0, 0.9), d) for d in DIRECTIONS)
    merged = merge_bidirectional(down, up)
    assert merged.stats == down.stats + up.stats
    assert merged.stats.accepted == len(merged.s) - 1
    assert merged.stats.closed == 2
    barrier = integrate(ROT3, (2.0, 1.0), "toward_infinity")
    assert barrier.stats.accepted == len(barrier.s) - 1 == 2 and barrier.stats.closed == 1


# --- the chart switch ---

@pytest.mark.parametrize("params, s0, w0", [(ROT3, 1.0, -2.0), (ROT3, 2.0, 1.5),
                                            (ROT3, 1.0, -20.0),
                                            (boost(2, region="spacelike"), 2.0, 2.5)])
def test_steps_stop_short_of_the_pole(params, s0, w0):
    """s(p), p = 1/w, is smooth at the pole, so p-chart steps end at it,
    p = 0: the pole is the last step's end s(0), and the last sample is
    that step's interpolant at |w| = 1e6, short of the pole by less than
    1e-10, with the samples of the steps before it farther off."""
    traj = integrate_bidirectional(params, s0, w0)
    s_star, sign = detect_blowup(traj)
    end, inward = (-1, 1.0) if params.has_barriers else (0, -1.0)
    assert traj.w[end] * sign == pytest.approx(1e6, rel=1e-12)
    assert 0.0 < inward * (s_star - traj.s[end]) < 1e-10
    assert inward * (s_star - traj.s[-2 if end else 1]) > inward * (s_star - traj.s[end])


@pytest.mark.parametrize("w0", [-1e7, 1e7])
def test_start_past_the_end_level_is_at_its_pole(w0):
    """Where |w| grows, a start with |w| >= 1e6, the last sample's level,
    lies within about 1e-13 of its pole: one p-chart step reaches it, and
    the start is the trajectory's one sample."""
    traj = integrate(ROT3, (1.0, w0), "toward_infinity")
    s_star, sign = detect_blowup(traj)
    assert sign == int(np.sign(w0)) and 0.0 < s_star - 1.0 < 1e-13
    assert traj.s.tolist() == [1.0] and traj.w.tolist() == [w0]
    assert traj.stats.accepted == 1


def test_steep_start_leaves_the_p_chart_where_w_shrinks():
    """Toward zero |w| of rotational(3) shrinks: a start at w = -1e4 runs
    in p = 1/w down to the switch level and on in the w chart, in about
    half the steps the w chart takes from there, and agrees with scipy."""
    traj = integrate(ROT3, (1.0, -1e4), "toward_zero")
    assert traj.stats.accepted <= 130
    _check_against_scipy(traj, ROT3, 1.0, -1e4, ["toward_zero"])


def test_steep_start_where_w_shrinks_reaches_s_max():
    """Forward |w| of the barrier-free boost(2, "spacelike") shrinks: from
    w = 1e7 the lane falls below the switch level in the p chart and runs on
    to s_max instead of collapsing its steps."""
    traj = integrate(boost(2, region="spacelike"), (1.0, 1e7), "toward_infinity")
    assert traj.termination_right.kind is TerminationKind.REACHED_S_MAX


@pytest.mark.parametrize("params, start, direction", [
    (ROT3, (1.0, -1e4), "toward_zero"),
    (boost(2, region="spacelike"), (1.0, 1e7), "toward_infinity")])
def test_steep_start_independent_of_batch(params, start, direction):
    others = [(0.5, 0.3), (2.0, -50.0), (3.0, 2.0)]
    (alone,) = integrate_batch(params, [start], direction)
    among = integrate_batch(params, others[:2] + [start] + others[2:], direction)[2]
    assert alone.s.tobytes() == among.s.tobytes()
    assert alone.w.tobytes() == among.w.tobytes()
    assert (alone.termination_left, alone.termination_right, alone.stats) == (
        among.termination_left, among.termination_right, among.stats)
    probes = np.linspace(alone.s[0], alone.s[-1], 9)
    assert np.asarray(alone.w_at(probes)).tobytes() == np.asarray(among.w_at(probes)).tobytes()


def _gamma_grid(w_lo, w_hi):
    return [(s, w) for s in np.linspace(0.5, 4.0, 8) for w in np.linspace(w_lo, w_hi, 8)]


@pytest.mark.parametrize("w_range, most", [((1.05, 3.0), 3500), ((-3.0, -1.05), 3100)])
def test_gamma_grid_step_budget(w_range, most):
    """An 8x8 rotational(3) gamma grid, both directions in one batch, takes
    at most about an eighth of the attempts (accepted plus rejected steps)
    of chasing its poles in the w chart (24.1k for gamma_plus, 29.1k for
    gamma_minus), and about half of those with the p chart from
    |w| = max(10, 2s/c) and barrier tails stepped (6.6k, 6.7k)."""
    trajs = integrate_bidirectional_batch(ROT3, _gamma_grid(*w_range))
    assert sum(t.stats.accepted + t.stats.rejected for t in trajs) <= most


@pytest.mark.parametrize("s0, w0", [(1.0, -2.0), (0.5, -1.5), (2.0, 1.5),
                                    (3.0, 2.5), (1.0, 1.6)])
@pytest.mark.parametrize("w_switch", [4.0, 100.0])
def test_pole_stable_under_chart_switch(monkeypatch, s0, w0, w_switch):
    """A pole found with the switch to p = 1/w at |w| = 4 or 100 agrees
    with the one at the default switch level to 1e-9."""
    default = detect_blowup(integrate_bidirectional(ROT3, s0, w0))
    monkeypatch.setattr(engine, "_W_SWITCH", w_switch)
    moved = detect_blowup(integrate_bidirectional(ROT3, s0, w0))
    assert moved[1] == default[1]
    assert abs(moved[0] - default[0]) < 1e-9


# --- huge slopes ---

@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("w0", [1e300, -1e300])
def test_huge_slope_start_does_not_overflow(w0, direction):
    """A start with |w0| past 2^512, where w0*w0 overflows, is a start at
    its pole where |w| grows and leaves it where |w| shrinks, with no
    RuntimeWarning (an error in this suite)."""
    traj = integrate(ROT3, (1.0, w0), direction)
    if direction == "toward_infinity":
        assert detect_blowup(traj) == (1.0, int(np.sign(w0)))
    else:
        assert traj.termination_left.kind is TerminationKind.DOMAIN_BOUNDARY_ZERO
        assert np.all(np.isfinite(traj.w))


def test_pole_start_keeps_its_sign_and_finite_samples():
    """A start at a pole, w0 = +-inf, is the p-chart start p = +-0.0, whose
    sign is the slope's: its first sample, at |w| = 1e6 on the first step,
    lies just below s0 (toward zero |w| of rotational(3) shrinks), and
    every sample is finite."""
    for sign in (1.0, -1.0):
        traj = integrate(ROT3, (2.0, sign * math.inf), "toward_zero")
        assert traj.w[-1] == pytest.approx(sign * 1e6, rel=1e-12)
        assert 0.0 < 2.0 - traj.s[-1] < 1e-10
        assert np.all(np.isfinite(traj.w))


def _illinois_one(g, a, b):
    """Illinois false position on one function, one float at a time: the
    reference for engine._illinois."""
    ga, gb = g(a), g(b)
    root = a if abs(ga) <= abs(gb) else b
    if ga == 0.0 or gb == 0.0 or (ga > 0.0) == (gb > 0.0):
        return root
    kept = 0
    for _ in range(200):
        mid = b - gb * (b - a) / (gb - ga)
        if not (mid - a) * (mid - b) < 0.0:
            mid = 0.5 * (a + b)
        root, gm = mid, g(mid)
        if (gm > 0.0) == (ga > 0.0):
            gb = 0.5 * gb if kept == -1 else gb
            a, ga, kept = mid, gm, -1
        else:
            ga = 0.5 * ga if kept == 1 else ga
            b, gb, kept = mid, gm, 1
        if gm == 0.0 or not abs(b - a) > 4 * np.finfo(float).eps * (1.0 + abs(mid)):
            break
    return root


def test_illinois_matches_the_one_at_a_time_search():
    """The batched event search gives each function the root, bit for bit,
    that the search on it alone gives: roots inside, at either end, and
    no sign change (the end nearer zero)."""
    rng = np.random.default_rng(5)
    r, c = rng.uniform(-3.0, 3.0, 40), rng.uniform(0.0, 5.0, 40)
    a, b = r - rng.uniform(0.0, 2.0, 40), r + rng.uniform(0.0, 2.0, 40)
    a[:3], b[3:6], a[6:9] = r[:3], r[3:6], r[6:9] + 0.5    # zero at a, at b, none

    def g(x, k=slice(None)):
        return (x - r[k]) * (1.0 + c[k] * (x - r[k]) * x)

    roots = engine._illinois(g, a, b)
    assert roots.tolist() == [_illinois_one(partial(g, k=k), a[k], b[k]) for k in range(40)]


# --- one loop per call ---

def test_each_batch_is_one_loop(monkeypatch):
    """integrate_batch, integrate_bidirectional_batch, classify_batch,
    _pole_batch and each round of separatrix shots step all their lanes,
    in every direction and chart, in one lockstep loop."""
    classify_module = importlib.import_module("solitonlab.classify")
    compute_bowl(ROT3, CFG)    # the cache keys classify_batch reads
    compute_separatrix(ROT3, CFG)
    calls = []
    advance = engine._advance
    monkeypatch.setattr(engine, "_advance", lambda *a: calls.append(1) or advance(*a))
    grid = _gamma_grid(-3.0, 3.0)
    for run in (lambda: integrate_batch(ROT3, grid, "toward_zero"),
                lambda: integrate_bidirectional_batch(ROT3, grid),
                lambda: classify_module.classify_batch(ROT3, grid),
                lambda: engine._pole_batch(ROT3, 2.0, [1.0, -1.0], CFG)):
        calls.clear()
        run()
        assert len(calls) == 1
    rounds = []
    shots = classify_module.integrate_batch
    monkeypatch.setattr(classify_module, "integrate_batch",
                        lambda *a, **k: rounds.append(1) or shots(*a, **k))
    calls.clear()
    compute_separatrix.__wrapped__(ROT3, CFG, 1e-13)
    assert len(rounds) >= 2 and len(calls) == 1 + len(rounds)


@pytest.fixture
def stage_calls(monkeypatch):
    """One entry per lockstep iteration (engine._stages call) from here on."""
    calls = []
    stages = engine._stages
    monkeypatch.setattr(engine, "_stages", lambda *a: calls.append(1) or stages(*a))
    return calls


@pytest.mark.parametrize("grid, most", [((-0.95, 0.95), 50), ((1.05, 3.0), 45)])
def test_coast_cost_does_not_depend_on_s_max(stage_calls, grid, most):
    """A lane whose accepted step settles near a barrier is not stepped on
    to s_max: the rest of its run is one closed step.  An 8x8 strip or
    gamma_plus grid, both directions, takes as many lockstep iterations
    at s_max = 1e4 as at 100 (the stepped coast took 137 and 10037 on the
    strip grid; closing only exact landings, 65 and 74)."""
    counts = []
    for s_max in (100.0, 1e4):
        stage_calls.clear()
        integrate_bidirectional_batch(ROT3, _gamma_grid(*grid), IntegratorConfig(s_max=s_max))
        counts.append(len(stage_calls))
    assert counts[0] == counts[1] <= most
    traj = integrate(ROT3, (1.0, 0.5), "toward_infinity", IntegratorConfig(s_max=1e4))
    assert traj.w[-1] == 1.0 and traj.s[-1] == 1e4
    short = integrate(ROT3, (1.0, 0.5), "toward_infinity")
    assert traj.stats.accepted == len(traj.s) - 1 == len(short.s) - 1
    assert traj.stats.closed == short.stats.closed == 1


@settings(max_examples=20, deadline=None)
@given(s0=st.floats(0.2, 5.0), w0=st.floats(-0.99, 0.99))
def test_landed_lane_does_not_depend_on_s_max(s0, w0):
    """A strip lane settles near a barrier and ends in one closed step to
    its bound: at s_max = 1e4 it has the samples, dense output and
    counters it has at 100 up to its last sample, and on the closed step
    its dense output, the same tail at both, stays within
    u* = sqrt(abs_tol) of the barrier, and reads it exactly at s_max."""
    near, far = (integrate(ROT3, (s0, w0), "toward_infinity", IntegratorConfig(s_max=s_max))
                 for s_max in (100.0, 1e4))
    assert near.s[:-1].tobytes() == far.s[:-1].tobytes() and far.s[-1] == 1e4
    assert near.w[:-1].tobytes() == far.w[:-1].tobytes()
    assert near.stats == far.stats and near.events == far.events
    assert near.stats.closed == 1
    settled, sigma = near.s[-2], np.sign(near.w[-2])
    assert abs(near.w[-2] - sigma) < math.sqrt(CFG.abs_tol)
    probes = np.linspace(near.s[0], 100.0, 17)
    assert np.asarray(near.w_at(probes)).tobytes() == np.asarray(far.w_at(probes)).tobytes()
    probes = np.linspace(settled, 1e4, 17)
    assert np.all(np.abs(np.asarray(far.w_at(probes)) - sigma) < math.sqrt(CFG.abs_tol))
    assert near.w[-1] == far.w[-1] == sigma


@pytest.mark.parametrize("run, most", [
    (partial(integrate_bidirectional_batch, rotational(100), _gamma_grid(-0.95, 0.95)), 300),
    (partial(integrate_bidirectional_batch, rotational(100), _gamma_grid(1.05, 3.0)), 45),
    (partial(integrate_bidirectional_batch, rotational(100), _gamma_grid(-3.0, -1.05)), 45),
    (partial(compute_separatrix.__wrapped__, rotational(100)), 170)],
    ids=["strip", "gamma_plus", "gamma_minus", "separatrix"])
def test_large_n_cost(stage_calls, run, most):
    """At n = 100 (c = 99) a lane settled near a barrier contracts at rate
    about 2c toward zero, which held DOP853's step near 3.2/c: 8x8 grids,
    both directions, took about 800 lockstep iterations, and the
    separatrix (its backward trace and its shots) 1022.  With closed tails
    the strip grid takes at most 300, the gamma grids, whose poles the p
    chart reaches from |w| = 2, at most 45, and the separatrix 170."""
    run()
    assert len(stage_calls) <= most


def _stiff_arc(params, s0, w0, direction):
    """One-sided reference: scipy's Radau at rtol 1e-13 with the analytic
    Jacobian, in t = log s toward zero as _scipy_arc steps."""
    et, ep, c = params.eps_tilde, params.eps_prime, params.fiber_coeff
    log = direction == "toward_zero"

    def f(x, y):
        w = y[0]
        return [(et + ep * w * w) * ((math.exp(x) - et * c * w) if log
                                     else (1.0 - w * et * c / x))]

    def jac(x, y):
        w = y[0]
        if log:
            return [[2.0 * ep * w * (math.exp(x) - et * c * w) - (et + ep * w * w) * et * c]]
        return [[2.0 * ep * w * (1.0 - w * et * c / x) - (et + ep * w * w) * et * c / x]]

    span = (math.log(s0), math.log(CFG.s_min_eps)) if log else (s0, CFG.s_max)
    sol = solve_ivp(f, span, [w0], method="Radau", jac=jac, rtol=1e-13, atol=1e-14,
                    dense_output=True)
    assert sol.success
    return lambda q: sol.sol(np.log(q) if log else q)[0]


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([2, 3, 5, 30]), s0=st.floats(0.2, 5.0), w0=st.floats(-0.99, 0.99),
       direction=st.sampled_from(DIRECTIONS))
def test_closed_tail_matches_stiff_reference(n, s0, w0, direction):
    """A strip lane ends in one closed step, its barrier tail written from
    the linearised solution.  On that step, and at its end, the tail agrees
    with a Radau reference from the step's start to the tolerances
    _check_against_scipy holds the stepped arcs to, and it ends on the
    barrier exactly."""
    params = rotational(n)
    traj = integrate(params, (s0, w0), direction)
    assert traj.stats.closed == 1
    k, end = (1, 0) if direction == "toward_zero" else (-2, -1)
    probes = np.geomspace(traj.s[k], traj.s[end], 25)
    ref = _stiff_arc(params, traj.s[k], traj.w[k], direction)(probes)
    np.testing.assert_allclose(traj.w_at(probes), ref, rtol=1e-10, atol=1e-10)
    assert abs(traj.w[end]) == 1.0 and abs(traj.w[end] - ref[-1]) <= 1e-10


def test_w_at_below_the_span_reads_the_tail():
    """The tail of a closed step holds on all of (0, s1] toward zero, so
    w_at below s_min_eps reads the barrier the solution tends to, not the
    last stepped polynomial far outside its step; s <= 0 is still refused."""
    traj = integrate_bidirectional(ROT3, 1.0, 0.5)
    assert traj.w[0] == 1.0 and traj.termination_left.value == 1.0
    assert traj.w_at(1e-300) == 1.0
    assert np.asarray(traj.w_at([1e-300, 1e-20, CFG.s_min_eps])).tolist() == [1.0] * 3
    with pytest.raises(ValueError, match="positive"):
        traj.w_at(0.0)


def test_tail_reads_its_formula_bit_for_bit():
    """engine._tail skips libm where a bound puts |u| below e^-40; every
    value it gives equals the formula sigma + u1*exp(E(s)) taken in full
    through math.exp and math.log, bit for bit, on tails of both barriers
    in both directions, from u1 = 0 to u*, with c up to 99."""
    rng = np.random.default_rng(7)
    for n in (2, 3, 30, 100):
        params = rotational(n)
        s1 = rng.uniform(0.05, 120.0, 40)
        y1 = rng.choice([-1.0, 1.0], 40) + rng.choice([-1.0, 1.0], 40) * np.append(
            np.zeros(4), 10.0 ** rng.uniform(-15.5, -6.0, 36))
        F = engine._tail_rows(params, s1, y1)
        s = np.concatenate([s1[:, None] * 10.0 ** rng.uniform(-12, 2, (40, 30)),
                            s1[:, None] + rng.uniform(-1.0, 1.0, (40, 10))], axis=1)
        s = np.abs(s) + 1e-300
        for k in range(40):
            got = engine._tail(np.repeat(F[k][:, None], s.shape[1], axis=1), s[k])
            sigma, u1 = F[k, 0], F[k, 1]
            want = [sigma + (0.0 if u1 == 0.0 else math.copysign(math.exp(min(
                math.log(abs(u1)) + F[k, 3] * ((q - s1[k]) - F[k, 4] * math.log(q / s1[k])),
                0.0)), u1)) for q in s[k]]
            assert got.tolist() == want


def test_tail_that_would_grow_is_stepped():
    """Toward zero the upper barrier repels down to s = c, where the tail's
    exponent E peaks: from s1 = 20 in rotational(3) |u| would grow by
    e^26.8.  So a start 1e-9 below the barrier there is stepped, not
    closed, leaves it, and settles on the lower barrier."""
    traj = integrate(ROT3, (20.0, 1.0 - 1e-9), "toward_zero")
    assert traj.stats.closed == 1 and traj.w[0] == -1.0
    assert np.min(traj.w) == -1.0 and np.max(traj.w) < 1.0


def test_terminal_shot_on_a_barrier_is_one_closed_step():
    """Where the line crossing is terminal, a lane that lands on a barrier
    the critical line does not meet ahead ends at the bound in one closed
    step, like any other lane: a start on the upper barrier at s = 3 > c
    takes its landing step and that one."""
    shot = integrate(ROT3, (3.0, 1.0), "toward_infinity", stop_on_line_crossing=True)
    assert shot.stats.accepted == 2 and shot.stats.rejected == 0
    assert shot.events == ()
    assert shot.termination_right.kind is TerminationKind.REACHED_S_MAX
    assert shot.s[-1] == CFG.s_max and set(shot.w.tolist()) == {1.0}


# --- mixed directions and charts in one batch ---

def _same(a, b):
    assert a.s.tobytes() == b.s.tobytes()
    assert a.w.tobytes() == b.w.tobytes()
    assert a.events == b.events
    assert (a.termination_left, a.termination_right) == (b.termination_left,
                                                         b.termination_right)
    assert a.stats == b.stats
    probes = np.linspace(a.s[0], a.s[-1], 9)
    assert np.asarray(a.w_at(probes)).tobytes() == np.asarray(b.w_at(probes)).tobytes()


_mixed_start = st.one_of(
    st.tuples(st.floats(0.2, 5.0), st.floats(-0.99, 0.99)),                 # strip
    st.tuples(st.floats(0.2, 5.0), st.floats(1.01, 3.0)),                   # gamma_plus
    st.tuples(st.floats(0.2, 5.0), st.floats(-3.0, -1.01)),                 # gamma_minus
    st.tuples(st.floats(0.5, 3.0), st.sampled_from([-1.0, 1.0])
              .flatmap(lambda sg: st.floats(1e4, 1e8).map(lambda v: sg * v))),  # steep
    st.tuples(st.floats(0.2, 5.0), st.sampled_from([-1.0, 1.0])))          # barrier


@settings(max_examples=8, deadline=None)
@given(starts=st.lists(_mixed_start, min_size=1, max_size=6))
def test_bidirectional_batch_matches_one_sided_runs(starts):
    """Both directions of every start in one batch give, bit for bit, what
    the two one-sided integrate() calls give, joined."""
    for (s0, w0), traj in zip(starts, integrate_bidirectional_batch(ROT3, starts)):
        down, up = (integrate(ROT3, (s0, w0), d) for d in DIRECTIONS)
        _same(traj, merge_bidirectional(down, up))


@pytest.mark.parametrize("params, s0", [(ROT3, 2.0), (rotational(2, eps_prime=1), 1.0)])
def test_pole_batch_signs_are_independent(params, s0):
    """Both arms leaving a pole in one batch match each arm run alone."""
    both = engine._pole_batch(params, s0, [1.0, -1.0], CFG)
    for sigma, traj in zip((1.0, -1.0), both):
        (alone,) = engine._pole_batch(params, s0, [sigma], CFG)
        _same(traj, alone)


def test_pole_lanes_get_the_start_check():
    """A pole start is checked like any other: below the cutoff it is a
    ValueError, not a run."""
    out = engine._pole_batch(ROT3, 2.0, [1.0, -1.0], IntegratorConfig(s_min_eps=3.0))
    assert all(isinstance(r, ValueError) and "cutoff" in str(r) for r in out)


# --- the switch at a step end ---

_BLOW_UP_STARTS = [(0.5, 3.0), (1.0, 2.5), (2.0, 3.0), (3.0, 3.5),
                   (0.5, -1.5), (1.0, -3.0), (2.5, -1.2)]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("s0, w0", _BLOW_UP_STARTS)
def test_switch_goes_on_from_the_step_end(n, s0, w0):
    """A lane that reaches the switch level goes on in the p chart from
    the end of that step: a run started at the first sample with |w| at or
    past the level (_switch_level) gives, bit for bit, the lane's later
    samples, its pole and its dense output past that sample.  Where
    (s0, w0) itself lies past the level the lane starts on the same
    solution lower down: at its last sample below the level toward zero,
    where |w| shrinks."""
    params = rotational(n)
    if abs(w0) >= engine._switch_level(params, s0, w0):
        down = integrate(params, (s0, w0), "toward_zero")
        k = np.flatnonzero(np.abs(down.w) < engine._switch_level(params, down.s, down.w))[-1]
        s0, w0 = down.s[k], down.w[k]
    traj = integrate(params, (s0, w0), "toward_infinity")
    assert traj.termination_right.kind is TerminationKind.BLOW_UP
    i = int(np.argmax(np.abs(traj.w) >= engine._switch_level(params, traj.s, traj.w)))
    assert 0 < i < traj.s.size - 1
    rest = integrate(params, (traj.s[i], traj.w[i]), "toward_infinity")
    assert rest.s.tobytes() == traj.s[i:].tobytes()
    assert rest.w[1:].tobytes() == traj.w[i + 1:].tobytes()
    assert rest.termination_right == traj.termination_right
    probes = np.linspace(traj.s[i], traj.s[-1], 9)[1:]
    assert np.asarray(rest.w_at(probes)).tobytes() == np.asarray(traj.w_at(probes)).tobytes()
