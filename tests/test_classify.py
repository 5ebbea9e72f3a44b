import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import (
    EventKind,
    EventRecord,
    IntegratorConfig,
    SolutionClassTag,
    TerminationKind,
    Trajectory,
    boost,
    classify,
    classify_as_posed,
    compute_bowl,
    compute_separatrix,
    critical_concavity,
    integrate,
    integrate_bidirectional,
    limits_report,
    rotational,
)

ROT3 = rotational(3)

# frozen reference values for n = 3 at default tolerances
BOWL_W_AT_1 = 0.32593194192409025
ABOVE_CRIT_S = 1.697482764071333      # critical point of the (1, 0.9) orbit
GP_CROSSING_S = 2.4391949731195406    # line crossing of the (2, 1.2) orbit
GP_BLOWUP_S = 2.8708136089142045      # pole of the (2, 1.5) orbit
GM_BLOWUP_S = 1.0632503268240918      # pole of the (1, -2) orbit
SEP_VALUE = 1.390627106179388         # threshold slope at anchor s = 2
SEP_DEFECT_50 = 0.03992811602366686
# separatrix w(c) for rotational(n) by an independent LSODA bisection
LSODA_SEP = {2: 1.5470570400484722, 5: 1.2781160995707248}


@pytest.fixture(scope="module")
def bowl():
    return compute_bowl(ROT3)


@pytest.fixture(scope="module")
def separatrix():
    return compute_separatrix(ROT3)


def test_bowl_trajectory(bowl):
    assert bowl.w_at(1.0) == pytest.approx(BOWL_W_AT_1, rel=1e-10)
    assert bowl.s[0] <= 1e-9
    assert bowl.s[-1] == pytest.approx(100.0)
    assert abs(bowl.w_at(50.0) - 1.0) < 1e-6


def test_compute_bowl_cached():
    assert compute_bowl(ROT3) is compute_bowl(ROT3)


def test_cached_results_are_read_only():
    bowl = compute_bowl(ROT3)
    traj = compute_separatrix(ROT3).trajectory
    before = (float(bowl.w[5]), float(traj.w[5]))
    for arr in (bowl.s, bowl.w, traj.s, traj.w):
        with pytest.raises(ValueError):
            arr[5] = 99.0
    again = (float(compute_bowl(ROT3).w[5]),
             float(compute_separatrix(ROT3).trajectory.w[5]))
    assert again == before


def test_cached_trajectories_are_immutable():
    bowl = compute_bowl(ROT3)
    events, w = bowl.events, bowl.w
    with pytest.raises(AttributeError):
        bowl.events.append(EventRecord(EventKind.CROSSED_LINE_R, 1.0, 0.5))
    with pytest.raises(AttributeError):
        bowl.w = np.zeros_like(w)
    again = compute_bowl(ROT3)
    assert again.events == events
    assert again.w is w and float(again.w[5]) == float(w[5])


def test_trajectory_copies_its_samples():
    s, w = np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3])
    traj = Trajectory(ROT3, s, w, events=[])
    s[0], w[0] = 0.5, 9.0
    assert traj.s[0] == 1.0 and traj.w[0] == 0.1
    assert traj.events == ()


@pytest.mark.parametrize("s0, w0, tag", [
    (2.0, 1.0, SolutionClassTag.CONSTANT_PLUS),
    (2.0, -1.0, SolutionClassTag.CONSTANT_MINUS),
    (1.0, BOWL_W_AT_1, SolutionClassTag.BOWL),
    (1.0, -0.5, SolutionClassTag.BELOW_BOWL),
    (1.0, 0.9, SolutionClassTag.ABOVE_BOWL),
    (1.0, -2.0, SolutionClassTag.GAMMA_MINUS_BLOWUP),
    (2.0, SEP_VALUE, SolutionClassTag.SEPARATRIX),
    (2.0, 1.2, SolutionClassTag.GAMMA_PLUS_GLOBAL),
    (2.0, 1.5, SolutionClassTag.GAMMA_PLUS_BLOWUP),
])
def test_all_nine_classes(s0, w0, tag):
    assert classify(ROT3, s0, w0).tag is tag


def test_above_bowl_evidence():
    sc = classify(ROT3, 1.0, 0.9)
    assert len(sc.critical_points) == 1
    assert sc.critical_points[0] == pytest.approx(ABOVE_CRIT_S, abs=1e-8)
    assert critical_concavity(ROT3, sc.critical_points[0]) > 0.0
    assert sc.limit_at_zero == pytest.approx(1.0, abs=1e-9)
    assert sc.limit_at_infinity == pytest.approx(1.0, abs=1e-9)
    assert sc.causal == -1


def test_below_bowl_evidence():
    sc = classify(ROT3, 1.0, -0.5)
    assert sc.critical_points == ()
    assert sc.limit_at_zero == pytest.approx(-1.0, abs=1e-9)
    assert sc.limit_at_infinity == pytest.approx(1.0, abs=1e-9)
    assert sc.causal == -1
    assert sc.blowup is None


def test_gamma_minus_evidence():
    sc = classify(ROT3, 1.0, -2.0)
    assert sc.blowup is not None
    s_star, sign = sc.blowup
    assert sign == -1
    assert s_star == pytest.approx(GM_BLOWUP_S, abs=1e-9)
    assert sc.limit_at_infinity == -np.inf
    assert sc.causal == +1


def test_gamma_plus_global_evidence():
    sc = classify(ROT3, 2.0, 1.2)
    assert sc.blowup is None
    assert len(sc.critical_points) == 1
    assert sc.critical_points[0] == pytest.approx(GP_CROSSING_S, abs=1e-8)
    assert sc.causal == +1


def test_gamma_plus_blowup_evidence():
    sc = classify(ROT3, 2.0, 1.5)
    assert sc.blowup is not None
    assert sc.blowup[1] == +1
    assert sc.blowup[0] == pytest.approx(GP_BLOWUP_S, abs=1e-6)
    assert sc.limit_at_infinity == np.inf


def test_constant_classes_are_lightlike():
    assert classify(ROT3, 2.0, 1.0).causal == 0
    assert classify(ROT3, 2.0, -1.0).causal == 0


def test_strip_trichotomy_near_bowl(bowl):
    wb = bowl.w_at(1.0)
    assert classify(ROT3, 1.0, wb - 1e-6).tag is SolutionClassTag.BELOW_BOWL
    assert classify(ROT3, 1.0, wb + 1e-6).tag is SolutionClassTag.ABOVE_BOWL
    assert classify(ROT3, 1.0, wb).tag is SolutionClassTag.BOWL


def test_separatrix_bracket(separatrix):
    lo, hi = separatrix.bracket
    assert hi - lo <= 1e-10
    assert lo <= separatrix.value <= hi
    assert separatrix.anchor == 2.0
    assert separatrix.value == pytest.approx(SEP_VALUE, rel=1e-9)


def test_separatrix_cached():
    assert compute_separatrix(ROT3) is compute_separatrix(ROT3)


def test_separatrix_asymptote_defect(separatrix):
    d50 = separatrix.asymptote_defect(50.0)
    assert d50 == pytest.approx(SEP_DEFECT_50, rel=1e-6)
    assert d50 < 0.05
    # the defect |c*w(s) - s| shrinks toward the critical line
    assert separatrix.asymptote_defect(20.0) > d50


def test_gamma_plus_dichotomy_monotone(separatrix):
    """Classification across the threshold is monotone in w0: global below,
    blow-up above, with no interleaving."""
    a = separatrix.value
    offsets = np.array([-1e-2, -1e-4, -1e-6, 1e-6, 1e-4, 1e-2])
    tags = [classify(ROT3, 2.0, float(a + d)).tag for d in offsets]
    for d, tag in zip(offsets, tags):
        want = (SolutionClassTag.GAMMA_PLUS_GLOBAL if d < 0
                else SolutionClassTag.GAMMA_PLUS_BLOWUP)
        assert tag is want, (d, tag)


def _forward_end(params, s0: float, w0: float) -> TerminationKind:
    return integrate(params, (s0, w0), "toward_infinity").termination_right.kind


def _assert_valid_bracket(params, sep, tol: float) -> None:
    lo, hi = sep.bracket
    assert hi - lo <= tol
    assert lo <= sep.value <= hi
    assert _forward_end(params, sep.anchor, lo) is TerminationKind.REACHED_S_MAX
    assert _forward_end(params, sep.anchor, hi) is TerminationKind.BLOW_UP


@pytest.mark.parametrize("n", sorted(LSODA_SEP))
def test_separatrix_matches_lsoda(n):
    params = rotational(n)
    sep = compute_separatrix(params)
    assert sep.anchor == n - 1
    assert abs(sep.value - LSODA_SEP[n]) <= 1e-9
    _assert_valid_bracket(params, sep, 1e-10)


def test_separatrix_coarse_tol_bracket():
    """A window of +-1e3*tol reaching below w = 1 is clipped to the barrier."""
    sep = compute_separatrix(ROT3, tol=1e-2)
    assert sep.bracket[0] >= 1.0
    assert abs(sep.value - SEP_VALUE) <= 1e-2
    _assert_valid_bracket(ROT3, sep, 1e-2)


@settings(max_examples=8, deadline=None)
@given(sign=st.sampled_from([-1, 1]), exponent=st.floats(-8.0, -2.0))
def test_separatrix_splits_global_from_blowup(separatrix, sign, exponent):
    """Below the separatrix at the anchor solutions exist globally, above
    it they blow up, at log-uniform offsets from 1e-8 to 1e-2."""
    w0 = separatrix.value + sign * 10.0 ** exponent
    sc = classify(ROT3, separatrix.anchor, w0)
    if sign < 0:
        assert sc.tag is SolutionClassTag.GAMMA_PLUS_GLOBAL
        assert sc.blowup is None and np.isfinite(sc.limit_at_infinity)
    else:
        assert sc.tag is SolutionClassTag.GAMMA_PLUS_BLOWUP
        assert sc.blowup is not None and sc.blowup[1] == +1


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([2, 3, 5]), sign=st.sampled_from([-1, 1]),
       exponent=st.floats(-8.0, -1.0))
def test_decision_shot_verdict_matches_full_run(n, sign, exponent):
    """A decision shot from the anchor, which may stop at a proof of
    blow-up, names the same fate as a full run, and its certified pole
    bound lies beyond the pole the full run finds."""
    params = rotational(n)
    sep = compute_separatrix(params)
    start = (sep.anchor, sep.value + sign * 10.0 ** exponent)
    shot = integrate(params, start, "toward_infinity", stop_on_line_crossing=True)
    full = integrate(params, start, "toward_infinity")

    def pole(traj):
        term = traj.termination_right
        return term.s if term is not None and term.kind is TerminationKind.BLOW_UP else None

    assert (pole(shot) is None) == (pole(full) is None) == (sign < 0)
    if sign > 0:
        assert pole(full) <= pole(shot) < IntegratorConfig().s_max
        assert shot.stats.accepted < full.stats.accepted


def test_limits_report_fields():
    traj = integrate_bidirectional(ROT3, 1.0, -0.5)
    rep = limits_report(traj)
    assert rep.s_left == pytest.approx(1e-10, rel=1e-6)
    assert rep.s_right == pytest.approx(100.0)
    assert rep.at_zero == pytest.approx(-1.0, abs=1e-9)
    assert rep.at_infinity == pytest.approx(1.0, abs=1e-9)
    assert rep.blowup is None


def test_classify_requires_canonical_strip():
    tl = boost(2, region="timelike")
    with pytest.raises(ValueError, match="canonical_strip"):
        classify(tl, 1.0, 0.5)
    canon, flip = tl.canonical_strip()
    sc = classify(canon, 1.0, flip * 0.5)
    assert sc.tag in (SolutionClassTag.BELOW_BOWL, SolutionClassTag.ABOVE_BOWL)


def test_classify_rejects_nonpositive_s0():
    with pytest.raises(ValueError):
        classify(ROT3, 0.0, 0.5)
    with pytest.raises(ValueError):
        classify(ROT3, -1.0, 0.5)


def test_classification_flag_independence():
    # classify must not mutate shared caches in a way that changes results
    first = classify(ROT3, 1.3, 0.4).tag
    for _ in range(3):
        assert classify(ROT3, 1.3, 0.4).tag is first


# --- the timelike-to-strip flip ---

TIMELIKE2 = boost(2, region="timelike")


def test_classify_as_posed_is_classify_on_canonical_pattern():
    for w0 in (-2.0, -0.5, 0.9, 1.2, 1.0):
        assert classify_as_posed(ROT3, 2.0, w0) == classify(ROT3, 2.0, w0)


def test_classify_as_posed_rejects_barrierless():
    with pytest.raises(ValueError, match="strip"):
        classify_as_posed(boost(2, region="spacelike"), 1.0, 0.5)


@pytest.mark.parametrize("w_lo, w_hi", [(-0.95, 0.95), (1.05, 3.0), (-3.0, -1.05)],
                         ids=["strip", "above", "below"])
@settings(max_examples=6, deadline=None)
@given(s0=st.floats(0.2, 5.0), u=st.floats(0.0, 1.0))
def test_flip_matches_posed_equation(w_lo, w_hi, s0, u):
    """The verdict taken on the canonical strip, reported as posed, carries
    the evidence of the timelike equation integrated directly."""
    w0 = w_lo + u * (w_hi - w_lo)
    sc = classify_as_posed(TIMELIKE2, s0, w0)
    traj = integrate_bidirectional(TIMELIKE2, s0, w0)
    rep = limits_report(traj)
    assert sc.init == (s0, w0)
    assert sc.limit_at_zero == pytest.approx(rep.at_zero, rel=1e-9, abs=1e-12)
    assert sc.limit_at_infinity == pytest.approx(rep.at_infinity, rel=1e-9,
                                                 abs=1e-12)
    assert (sc.blowup is None) == (rep.blowup is None)
    if rep.blowup is not None:
        assert sc.blowup[0] == pytest.approx(rep.blowup[0], rel=1e-9)
        assert sc.blowup[1] == rep.blowup[1]
    assert sc.causal == traj.causal_sign()
