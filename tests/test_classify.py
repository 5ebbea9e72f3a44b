import importlib
import math
import sys
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from solitonlab import (
    EventKind,
    EventRecord,
    FlowParams,
    IntegratorConfig,
    SolutionClassTag,
    TerminationKind,
    Trajectory,
    boost,
    classify,
    classify_as_posed,
    classify_as_posed_batch,
    classify_batch,
    comparison_blowup_bound,
    compute_bowl,
    compute_separatrix,
    critical_concavity,
    integrate,
    integrate_bidirectional,
    integrate_bidirectional_batch,
    limits_report,
    rotational,
    separatrix_start,
    timelike_family_from_strip,
)
from solitonlab.classify import _critical_points, _evidence
from solitonlab.engine import _MAX_STEP, _far_field, _Field, detect_blowup

ROT3 = rotational(3)

# frozen reference values for n = 3 at default tolerances
BOWL_W_AT_1 = 0.32593194192409025
ABOVE_CRIT_S = 1.697482764071333      # critical point of the (1, 0.9) orbit
GP_CROSSING_S = 2.4391949731195406    # line crossing of the (2, 1.2) orbit
GP_BLOWUP_S = 2.8708136089142045      # pole of the (2, 1.5) orbit
GM_BLOWUP_S = 1.0632503268240918      # pole of the (1, -2) orbit
SEP_VALUE = 1.390627106179388         # threshold slope at anchor s = 2
SEP_DEFECT_50 = 0.0399681018510024    # c*w(50) - 50, the far-field series in mpmath
# separatrix w(c) for rotational(n) by an independent LSODA bisection
LSODA_SEP = {2: 1.5470570400484722, 5: 1.2781160995707248}
LSODA_SEP_2_TO_5 = {**LSODA_SEP, 3: 1.390627106195109, 4: 1.3203257162015776}


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


_EVIDENCE_FIELDS = ("limit_at_zero", "limit_at_infinity", "critical_points", "blowup", "causal")


@pytest.mark.parametrize("params, w0, tag", [
    (ROT3, 1.0, SolutionClassTag.CONSTANT_PLUS),
    (ROT3, 1.0 + 5e-13, SolutionClassTag.CONSTANT_PLUS),
    (ROT3, 1.0 - 5e-13, SolutionClassTag.CONSTANT_PLUS),
    (ROT3, -1.0, SolutionClassTag.CONSTANT_MINUS),
    (ROT3, -1.0 + 5e-13, SolutionClassTag.CONSTANT_MINUS),
    (boost(3, region="timelike"), -1.0, SolutionClassTag.CONSTANT_PLUS),
    (boost(3, region="timelike"), 1.0 - 5e-13, SolutionClassTag.CONSTANT_MINUS)])
@pytest.mark.parametrize("s0", [1.0, 2.0, 3.0])
def test_constant_verdicts_read_their_own_run(params, w0, tag, s0):
    """A start within BARRIER_TOL of a barrier is a lane like any other:
    its verdict carries _evidence() of its own run as posed, which the
    engine puts on the barrier, so constant_plus records the crossing of
    the critical line at s = c whichever side of it s0 lies on."""
    sc = classify_as_posed(params, s0, w0)
    traj = integrate_bidirectional(params, s0, w0)
    assert sc.tag is tag and sc.init == (s0, w0)
    assert {k: getattr(sc, k) for k in _EVIDENCE_FIELDS} == _evidence(traj)
    barrier = math.copysign(1.0, w0)
    assert sc.limit_at_zero == sc.limit_at_infinity == barrier and sc.causal == 0
    c = params.fiber_coeff
    assert sc.critical_points == ((c,) if tag is SolutionClassTag.CONSTANT_PLUS else ())


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


def _one(s0, w0, cfg):
    """classify() of one start, or the error it raises."""
    try:
        return classify(ROT3, s0, w0, cfg)
    except (ValueError, RuntimeError) as exc:
        return exc


def _start(kind, s0, u):
    if kind == "bowl":
        return s0, float(compute_bowl(ROT3).w_at(s0))
    if kind == "separatrix":
        return s0, float(compute_separatrix(ROT3).trajectory.w_at(s0))
    if kind == "outside":
        return (150.0 if u < 0.5 else -s0), 0.5
    return s0, {"strip": -0.99 + 1.98 * u, "upper": 1.01 + 2.0 * u, "lower": -1.01 - 2.0 * u,
                "barrier": 1.0 if u < 0.5 else -1.0}[kind]


_REFERENCED = {SolutionClassTag.BOWL, SolutionClassTag.BELOW_BOWL, SolutionClassTag.ABOVE_BOWL,
               SolutionClassTag.SEPARATRIX, SolutionClassTag.GAMMA_PLUS_GLOBAL,
               SolutionClassTag.GAMMA_PLUS_BLOWUP}


@settings(max_examples=10, deadline=None)
@given(picks=st.lists(st.tuples(st.sampled_from(["strip", "upper", "lower", "barrier", "bowl",
                                                 "separatrix", "outside"]),
                                st.floats(0.2, 5.0), st.floats(0.0, 1.0)),
                      min_size=1, max_size=6),
       s_max=st.sampled_from([100.0, 1.5]))
def test_batch_matches_one_start_at_a_time(picks, s_max):
    """classify_batch, which looks each reference up once and reads it at
    all its starts at once, gives field by field, margins included, what
    classify gives one start at a time.  At s_max = 1.5 the anchor s = 2
    lies outside the span: the separatrix lookup fails for the upper
    starts, and the strip starts are still tagged."""
    cfg = IntegratorConfig(s_max=s_max)
    starts = [_start(*pick) for pick in picks]
    for (s0, w0), got in zip(starts, classify_batch(ROT3, starts, cfg)):
        alone = _one(s0, w0, cfg)
        if isinstance(alone, Exception):
            assert type(got) is type(alone) and str(got) == str(alone)
            continue
        assert got == alone
        assert (got.margin is None) == (got.margin_tol is None) == (got.tag not in _REFERENCED)
        if got.margin is not None:
            on = got.tag in (SolutionClassTag.BOWL, SolutionClassTag.SEPARATRIX)
            assert (abs(got.margin) <= got.margin_tol) == on


def test_margins_are_read_against_the_references(separatrix):
    """The margin is w0 minus the reference at s0; the separatrix's
    tolerance is relative to max(1, |w|).  A failed separatrix lookup (at
    s_max = 1.5 the anchor s = 2 lies outside the span) goes to the upper
    starts only."""
    value = float(separatrix.trajectory.w_at(2.0))
    near, strip = classify_batch(ROT3, [(2.0, value * (1 + 8e-10)), (1.0, 0.5)])
    assert near.tag is SolutionClassTag.SEPARATRIX and near.margin_tol == 1e-9 * value
    assert near.margin == value * (1 + 8e-10) - value > 1e-9
    assert strip.tag is SolutionClassTag.ABOVE_BOWL and strip.margin_tol == 1e-9
    assert strip.margin == 0.5 - float(compute_bowl(ROT3).w_at(1.0))
    cfg = IntegratorConfig(s_max=1.5)
    strip, upper, below = classify_batch(ROT3, [(1.0, 0.5), (1.0, 1.5), (1.0, -2.0)], cfg)
    assert isinstance(upper, ValueError) and "anchor" in str(upper)
    assert strip.tag is SolutionClassTag.ABOVE_BOWL
    assert strip.margin == 0.5 - float(compute_bowl(ROT3, cfg).w_at(1.0))
    assert below.tag is SolutionClassTag.GAMMA_MINUS_BLOWUP and below.margin is None


def test_a_reference_that_cannot_be_built_fails_only_its_starts():
    """At s_max = 3 the separatrix anchor s = c = 4 of rotational(5) lies
    outside the span, and at s_min_eps = 0.5 the bowl's series handoff
    s = 0.5 does, so that reference's lane is refused before the run,
    with a message that names the anchor or the handoff.  Either way the
    starts that read that reference get its ValueError and every other
    start is still classified."""
    params = rotational(5)
    strip, upper, upper2, lower = classify_batch(
        params, [(1.0, 0.5), (1.0, 2.0), (2.0, 1.5), (1.0, -2.0)], IntegratorConfig(s_max=3.0))
    for got in (upper, upper2):
        assert isinstance(got, ValueError)
        assert str(got) == "anchor s = c must lie inside the integration span"
    assert strip.tag is SolutionClassTag.ABOVE_BOWL
    assert lower.tag is SolutionClassTag.GAMMA_MINUS_BLOWUP
    strip, lower, barrier = classify_batch(
        params, [(1.0, 0.5), (1.0, -2.0), (1.0, 1.0)], IntegratorConfig(s_min_eps=0.5))
    assert isinstance(strip, ValueError)
    assert str(strip) == ("s_min_eps = 0.5 must lie below the center series "
                          "handoff at s = 0.5")
    assert lower.tag is SolutionClassTag.GAMMA_MINUS_BLOWUP
    assert barrier.tag is SolutionClassTag.CONSTANT_PLUS


def test_a_refused_read_fails_only_its_own_start(monkeypatch):
    """When the bowl refuses to be read at one start's s0, the batch gives
    every other start what classify gives it alone, and that start the
    error."""
    classify_module = importlib.import_module("solitonlab.classify")
    bowl = compute_bowl(ROT3)

    def refusing(q):
        q = np.asarray(q, dtype=float)
        if np.any(q > 2.0):
            raise ValueError(f"w_at({float(q[q > 2.0][0])!r}): refused")
        return bowl.w_at(q)

    # the bowl classify reads from its cache
    monkeypatch.setitem(classify_module._BOWLS.data, (ROT3, IntegratorConfig()),
                        replace(bowl, dense=refusing))
    starts = [(1.0, 0.5), (3.0, 0.5), (1.5, -0.5), (3.0, 2.0)]
    got = classify_batch(ROT3, starts)
    assert isinstance(got[1], ValueError) and str(got[1]) == "w_at(3.0): refused"
    for (s0, w0), g in zip(starts, got):
        alone = _one(s0, w0, IntegratorConfig())
        assert type(g) is type(alone) and str(g) == str(alone)
        assert isinstance(g, Exception) or g == alone


def test_batch_results_share_no_memory(monkeypatch):
    """The samples of every Trajectory from one bidirectional batch, and of
    those one classify_batch builds, are cut from one batch buffer: each
    result holds its own read-only copy."""
    classify_module = importlib.import_module("solitonlab.classify")
    compute_bowl(ROT3)    # warm references: the batch runs the starts' lanes only
    compute_separatrix(ROT3)
    built, batch = [], classify_module._integrate_lanes

    def recording(*args):
        out = batch(*args)
        built.extend(out)
        return out

    starts = [(s0, w0) for s0 in (0.5, 1.5, 3.0) for w0 in (-2.0, -0.5, 0.5, 1.5, 2.5, 1e5)]
    trajs = integrate_bidirectional_batch(ROT3, starts)
    monkeypatch.setattr(classify_module, "_integrate_lanes", recording)
    classify_batch(ROT3, starts)
    assert len(built) == len(starts)
    arrays = [a for t in trajs + built for a in (t.s, t.w)]
    assert all(a.flags.owndata and not a.flags.writeable for a in arrays)
    assert not any(np.shares_memory(a, b) for a, b in combinations(arrays, 2))


def test_separatrix_cached():
    assert compute_separatrix(ROT3) is compute_separatrix(ROT3)


# (n, tol, value, bracket, shots) of compute_separatrix(rotational(n), tol=tol),
# floats as float.hex()
SEPARATRIX_PINS = [
    (2, 1e-10, "0x1.8c0bee201110fp+0", ("0x1.8c0bee1fdb30bp+0", "0x1.8c0bee2046f13p+0"), 2),
    (2, 1e-12, "0x1.8c0bee201ad14p+0", ("0x1.8c0bee201a547p+0", "0x1.8c0bee201b4e1p+0"), 84),
    (2, 1e-13, "0x1.8c0bee201ad14p+0", ("0x1.8c0bee201ac4cp+0", "0x1.8c0bee201addcp+0"), 84),
    (3, 1e-10, "0x1.640023560dee0p+0", ("0x1.64002355d80dcp+0", "0x1.6400235643ce4p+0"), 2),
    (3, 1e-12, "0x1.6400235612ce3p+0", ("0x1.6400235612516p+0", "0x1.64002356134b0p+0"), 84),
    (3, 1e-13, "0x1.6400235612ce2p+0", ("0x1.6400235612c1bp+0", "0x1.6400235612daap+0"), 84),
    (4, 1e-10, "0x1.5200ddbb2b400p+0", ("0x1.5200ddbaf55fcp+0", "0x1.5200ddbb61204p+0"), 2),
    (4, 1e-12, "0x1.5200ddbb2e2cep+0", ("0x1.5200ddbb2db01p+0", "0x1.5200ddbb2ea9bp+0"), 84),
    (4, 1e-13, "0x1.5200ddbb2e2cep+0", ("0x1.5200ddbb2e207p+0", "0x1.5200ddbb2e396p+0"), 84),
    (5, 1e-10, "0x1.47329de025e4ep+0", ("0x1.47329ddff004ap+0", "0x1.47329de05bc52p+0"), 2),
    (5, 1e-12, "0x1.47329de028d1cp+0", ("0x1.47329de02854fp+0", "0x1.47329de0294e9p+0"), 84),
    (5, 1e-13, "0x1.47329de028550p+0", ("0x1.47329de028488p+0", "0x1.47329de028617p+0"), 84),
]


@pytest.mark.parametrize("n, tol, value, bracket, shots", SEPARATRIX_PINS)
def test_separatrix_bracket_and_shots_are_pinned(n, tol, value, bracket, shots):
    """value, bracket and shot count, bit for bit, of a cold call (no trace
    cached) and of one that reads the cached trace."""
    classify_module = importlib.import_module("solitonlab.classify")
    for cold in (True, False):
        if cold:
            compute_separatrix.cache_clear()
        else:
            classify_module._SEPARATRICES.clear()
        res = compute_separatrix(rotational(n), tol=tol)
        assert (res.value.hex(), tuple(b.hex() for b in res.bracket), res.shots) == (
            value, bracket, shots)


def test_one_cache_entry_per_computed_object(monkeypatch):
    """Every spelling of a call, defaults left out or written out, is one
    cache entry: after warming without cfg, classify_batch (which passes
    it) integrates only its own starts, in one loop."""
    engine_module = importlib.import_module("solitonlab.engine")
    compute_bowl.cache_clear()
    compute_separatrix.cache_clear()
    assert compute_bowl(ROT3) is compute_bowl(ROT3, IntegratorConfig())
    assert compute_bowl(ROT3) is compute_bowl(ROT3, cfg=IntegratorConfig())
    assert compute_separatrix(ROT3) is compute_separatrix(ROT3, IntegratorConfig())
    assert compute_separatrix(ROT3) is compute_separatrix(ROT3, IntegratorConfig(), tol=1e-10)
    assert (compute_bowl.cache_info().currsize, compute_separatrix.cache_info().currsize) == (1, 1)
    trace = importlib.import_module("solitonlab.classify")._separatrix_trace
    assert trace(ROT3) is trace(ROT3, IntegratorConfig()) is trace(ROT3, cfg=IntegratorConfig())
    assert compute_separatrix(ROT3).trajectory is trace(ROT3)
    assert trace.cache_info().currsize == 1
    hits = (compute_bowl.cache_info(), trace.cache_info())
    calls = []
    advance = engine_module._advance
    monkeypatch.setattr(engine_module, "_advance", lambda *a: calls.append(1) or advance(*a))
    classify_batch(ROT3, [(1.0, 0.5), (2.0, 1.5)])
    assert len(calls) == 1
    assert [(now.hits - was.hits, now.misses - was.misses) for now, was in zip(
        (compute_bowl.cache_info(), trace.cache_info()), hits)] == [(1, 0), (1, 0)]
    # two tols bracket one trace
    assert compute_separatrix(ROT3, tol=1e-6).trajectory is trace(ROT3)
    assert trace.cache_info().currsize == 1


def test_reference_store_is_least_recently_used():
    """A reference cache drops the entry read or filed longest ago, and
    counts a hit or a miss per lookup as lru_cache does."""
    store = importlib.import_module("solitonlab.classify")._Store(2)
    store.put("a", 1)
    store.put("b", 2)
    assert store.get("a") == 1
    store.put("c", 3)
    assert (store.get("b"), store.get("a"), store.get("c")) == (None, 1, 3)
    assert store.info() == (3, 1, 2, 2)
    store.clear()
    assert store.info() == (0, 0, 2, 0)


def test_upper_tags_need_no_bracket(monkeypatch):
    """classify reads the separatrix trace, not its bracket: where every
    decision shot blows up, so that compute_separatrix raises 'not
    bracketed', upper starts get the tags, margins and evidence they get
    when the shots split."""
    classify_module = importlib.import_module("solitonlab.classify")
    starts = [(2.0, 1.2), (2.0, SEP_VALUE), (2.0, 1.5), (1.0, 0.5)]
    compute_bowl.cache_clear()
    compute_separatrix.cache_clear()
    split = classify_batch(ROT3, starts)
    # every round of a bracket that never splits is a window, a rule of the traced w(c)
    fire = classify_module._fire
    monkeypatch.setattr(classify_module, "_fire",
                        lambda params, ws, *a: fire(params, lambda w: ws(w) + 10.0, *a))
    for cold in (True, False):
        if cold:
            compute_bowl.cache_clear()
            compute_separatrix.cache_clear()
        assert classify_batch(ROT3, starts) == split
        with pytest.raises(RuntimeError, match="not bracketed"):
            compute_separatrix(ROT3)
    assert [sc.tag.value for sc in split[:3]] == [
        "gamma_plus_global", "separatrix", "gamma_plus_blowup"]


def test_classify_needs_no_cache_methods_on_the_reference_names(monkeypatch):
    """A per-layer tracer rebinds compute_bowl and compute_separatrix, in
    every solitonlab module that binds them, to plain wrappers without
    cache_* attributes.  A cold classify_batch and timelike profiles then
    come out as they do unwrapped."""
    starts = [(1.0, 0.5), (1.0, BOWL_W_AT_1), (2.0, 1.5), (2.0, SEP_VALUE), (1.0, -2.0)]
    timelike = boost(2, region="timelike")

    def cold_results():
        out = []
        for tag in ("separatrix", "gamma_plus_global", "bowl"):
            compute_bowl.cache_clear()
            compute_separatrix.cache_clear()
            curve = timelike_family_from_strip(timelike, tag)
            out.append((curve.s.tobytes(), curve.f.tobytes(), curve.w.tobytes()))
        compute_bowl.cache_clear()
        compute_separatrix.cache_clear()
        return classify_batch(ROT3, starts), out

    plain = cold_results()
    for fn in (compute_bowl, compute_separatrix):
        def wrapper(*args, fn=fn, **kwargs):
            return fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "solitonlab" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapper)
    classify_module = importlib.import_module("solitonlab.classify")
    assert not hasattr(classify_module.compute_bowl, "cache_clear")
    assert cold_results() == plain


@pytest.mark.parametrize("s_from", [-1.0, np.nan, 101.0])
def test_separatrix_asymptote_defect_needs_s_in_span(separatrix, s_from):
    with pytest.raises(ValueError, match="span"):
        separatrix.asymptote_defect(s_from)


def test_separatrix_asymptote_defect(separatrix):
    d50 = separatrix.asymptote_defect(50.0)
    assert d50 == pytest.approx(SEP_DEFECT_50, rel=1e-12)
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


STRIP_ORDER = [SolutionClassTag.BELOW_BOWL, SolutionClassTag.BOWL,
               SolutionClassTag.ABOVE_BOWL]
UPPER_ORDER = [SolutionClassTag.GAMMA_PLUS_GLOBAL, SolutionClassTag.SEPARATRIX,
               SolutionClassTag.GAMMA_PLUS_BLOWUP]


@settings(max_examples=8, deadline=None)
@given(s0=st.floats(0.5, 4.0),
       strip=st.lists(st.floats(-0.999, 0.999), min_size=2, max_size=6),
       upper=st.lists(st.floats(1.001, 4.0), min_size=2, max_size=6))
def test_tags_ordered_in_w0(s0, strip, upper):
    """At a fixed s0 the tags are ordered in w0: below bowl < bowl < above
    bowl on the strip, global < separatrix < blow-up above w = 1.  The
    bowl and the separatrix themselves are among the starts."""
    sep = compute_separatrix(ROT3).trajectory
    for ws, order in ((strip + [float(compute_bowl(ROT3).w_at(s0))], STRIP_ORDER),
                      (upper + [float(sep.w_at(s0))], UPPER_ORDER)):
        ws = sorted(ws)
        verdicts = classify_batch(ROT3, [(s0, w) for w in ws])
        ranks = [order.index(v.tag) for v in verdicts]
        assert ranks == sorted(ranks), list(zip(ws, ranks))
        assert order[1] in (v.tag for v in verdicts)


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([2, 3, 5]), s0=st.floats(0.05, 20.0),
       gap=st.floats(-6.0, float(np.log10(1e4 - 1))))
def test_gamma_minus_edges_blow_up_before_bound(n, s0, gap):
    """Below the lower barrier, from 1e-6 under it down to w0 = -1e4 on a
    log scale, every start blows up between s0 and the comparison bound,
    with finite samples and dense output."""
    params = rotational(n)
    w0 = -(1.0 + 10.0 ** gap)
    sc = classify(params, s0, w0)
    assert sc.tag is SolutionClassTag.GAMMA_MINUS_BLOWUP
    bound = comparison_blowup_bound(params, s0, w0)
    assert s0 < sc.blowup[0] <= bound + 1e-9 * max(1.0, bound)
    traj = integrate_bidirectional(params, s0, w0)
    assert np.all(np.isfinite(traj.s)) and np.all(np.isfinite(traj.w))
    probes = np.linspace(traj.s[0], traj.s[-1], 101)
    assert np.all(np.isfinite(traj.w_at(probes)))


@pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, 3.0])
def test_separatrix_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        compute_separatrix(ROT3, tol=tol)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_separatrix_refuses_a_tol_below_the_float_spacing(n):
    """No bracket of two floats near w(c) is narrower than their spacing,
    math.ulp of the value: a tol below it is refused by name, and a tol of
    exactly that spacing is met."""
    params = rotational(n)
    for tol in (1e-17, 1e-16):
        with pytest.raises(ValueError, match=f"tol {tol!r} is below the float spacing"):
            compute_separatrix(params, tol=tol)
    ulp = math.ulp(compute_separatrix(params).value)
    sep = compute_separatrix(params, tol=ulp)
    assert sep.bracket[1] - sep.bracket[0] == ulp
    _assert_valid_bracket(params, sep, ulp)


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


@pytest.mark.parametrize("n", sorted(LSODA_SEP))
def test_separatrix_fine_tol_bracket(n):
    """At tol=1e-12 the later k-section rounds must still close the window."""
    params = rotational(n)
    sep = compute_separatrix(params, tol=1e-12)
    assert abs(sep.value - LSODA_SEP[n]) <= 1e-9
    _assert_valid_bracket(params, sep, 1e-12)


@pytest.mark.parametrize("n, s_max", [(2, 6.0), (3, 8.0), (4, 10.0), (5, 12.0)])
def test_separatrix_small_s_max(n, s_max):
    """Decision shots outrun a small s_max: a start 1e-10 off the separatrix
    only parts from it near s = 7..14, so shots stopped at s_max would be
    undecided.  The value and both bracket ends still match LSODA."""
    lsoda = {**LSODA_SEP, 3: 1.390627106195109, 4: 1.3203257162015776}[n]
    sep = compute_separatrix(rotational(n), IntegratorConfig(s_max=s_max))
    assert sep.trajectory.s[-1] == pytest.approx(s_max, rel=1e-15)
    for w in (sep.value, *sep.bracket):
        assert abs(w - lsoda) <= 1e-9


@pytest.mark.parametrize("n", [4, 5])
def test_separatrix_s_max_below_s_far_first_pair_is_the_bracket(n):
    """At s_max = 6, below s_far (about 13 and 15), the trace starts where
    it starts at the default span (about 4.9 and 5.7), so it is as close at
    the anchor: the first pair of shots is the bracket, on the LSODA
    value."""
    sep = compute_separatrix(rotational(n), IntegratorConfig(s_max=6.0))
    assert sep.bracket[1] - sep.bracket[0] <= 1e-10
    for w in (sep.value, *sep.bracket):
        assert abs(w - LSODA_SEP_2_TO_5[n]) <= 1e-9
    assert sep.shots == 2


@pytest.mark.parametrize("n", sorted(LSODA_SEP_2_TO_5))
def test_separatrix_first_pair_is_the_bracket(n):
    """The first pair of shots, at traced +-0.49*tol, is the bracket
    exactly when it splits into global and blow-up: then two decision shots
    were fired and the bracket is that pair, else more.  At the default tol
    the trace is close enough that it splits, at s_max 100 and 200 alike,
    and value is the traced value."""
    params = rotational(n)
    for s_max in (100.0, 200.0):
        sep = compute_separatrix(params, IntegratorConfig(s_max=s_max))
        assert sep.shots == 2
        assert sep.value == pytest.approx(float(sep.trajectory.w_at(sep.anchor)),
                                          rel=1e-15, abs=0)
    for tol in (1e-10, 1e-12):
        sep = compute_separatrix(params, tol=tol)
        traced = float(sep.trajectory.w_at(sep.anchor))
        pair = (max(1.0, traced - 0.49 * tol), traced + 0.49 * tol)
        splits = [_forward_end(params, sep.anchor, w) for w in pair] == [
            TerminationKind.REACHED_S_MAX, TerminationKind.BLOW_UP]
        assert (sep.shots == 2) == splits
        assert (sep.bracket == pair) == splits


def test_separatrix_unsplit_window_raises(monkeypatch):
    """A trace at w = 5, far above the separatrix: both ends of every window
    up to half-width 0.049 blow up, and the window grows no further."""
    class FarOff:
        def w_at(self, s):
            return 5.0

    # solitonlab.classify names the function; the module is in sys.modules
    module = importlib.import_module("solitonlab.classify")
    traces = module._Store(1)
    traces.put((ROT3, IntegratorConfig()), FarOff())
    monkeypatch.setattr(module, "_TRACES", traces)
    with pytest.raises(RuntimeError, match="not bracketed"):
        compute_separatrix.__wrapped__(ROT3)


def test_separatrix_window_clipped_at_barrier():
    """A window reaching below w = 1 is clipped to the barrier, a global
    solution, which is then the lower bracket end."""
    sep = compute_separatrix(ROT3, tol=1.0)
    assert sep.bracket[0] == 1.0
    _assert_valid_bracket(ROT3, sep, 1.0)


# --- the far field: series tail beyond s_far ---

# accepted steps of the backward trace from s_far on the order-30 series,
# before it started on the far-field series' Padé approximant
_TRACE_STEPS_FROM_S_FAR = {2: 119, 3: 108, 4: 98, 5: 93}


@pytest.mark.parametrize("n", sorted(LSODA_SEP_2_TO_5))
def test_separatrix_cost_independent_of_s_max(n):
    """The backward arc starts at the same point whatever s_max is: the
    same value and the same solver counters at s_max 100, 200 and 1000.
    Started on the approximant, it takes at most half the accepted steps
    of a start at s_far."""
    params = rotational(n)
    s_far = separatrix_start(params).s
    runs = []
    for s_max in (100.0, 200.0, 1000.0):
        cfg = IntegratorConfig(s_max=s_max)
        sep = compute_separatrix.__wrapped__(params, cfg)
        traj = sep.trajectory
        assert traj.s[-1] == s_max
        assert traj.termination_right.kind is TerminationKind.REACHED_S_MAX
        assert np.diff(traj.s[traj.s >= s_far]).max() <= _MAX_STEP
        runs.append((sep.value, sep.bracket, traj.stats))
    assert runs[0] == runs[1] == runs[2]
    assert 2 * runs[0][2].accepted <= _TRACE_STEPS_FROM_S_FAR[n]


@pytest.mark.parametrize("n", sorted(LSODA_SEP))
def test_separatrix_tail_matches_stiff_reference(n):
    """The series tail agrees with an implicit (Radau) backward run started
    on the critical line at 2*s_max, which contracts onto the separatrix."""
    params = rotational(n)
    c, s_max = params.fiber_coeff, IntegratorConfig().s_max
    probes = np.linspace(separatrix_start(params).s, s_max - 5.0, 25)

    def f(s, y):
        return (1.0 - y * y) * (1.0 - c * y / s)

    def jac(s, y):
        return [[-2.0 * y[0] * (1.0 - c * y[0] / s) - (1.0 - y[0] ** 2) * c / s]]

    ref = solve_ivp(f, (2 * s_max, probes[0]), [2 * s_max / c], method="Radau",
                    jac=jac, rtol=1e-13, atol=1e-14, t_eval=probes[::-1])
    assert ref.success
    got = compute_separatrix(params).trajectory.w_at(probes[::-1])
    np.testing.assert_allclose(got, ref.y[0], rtol=1e-10, atol=0)


def test_separatrix_below_s_far():
    """With s_max below the trace's start (about 3.1 at n = 2) the trace
    still starts there and is cut at s_max: below s_max it is the trace of
    the default span, bit for bit, and its end is on a stiff reference."""
    params = rotational(2)
    c = params.fiber_coeff
    s_max = 0.5 * (c + separatrix_start(params).s)
    sep = compute_separatrix.__wrapped__(params, IntegratorConfig(s_max=s_max))
    traj = sep.trajectory
    probes = np.linspace(traj.s[0], s_max, 201)
    np.testing.assert_array_equal(traj.w_at(probes),
                                  compute_separatrix(params).trajectory.w_at(probes))
    ref = solve_ivp(lambda s, y: (1.0 - y * y) * (1.0 - c * y / s), (400.0, s_max),
                    [400.0 / c], method="Radau", rtol=1e-13, atol=1e-14,
                    jac=lambda s, y: [[-2.0 * y[0] * (1.0 - c * y[0] / s)
                                       - (1.0 - y[0] ** 2) * c / s]])
    assert ref.success
    assert traj.s[-1] == s_max
    assert abs(traj.w[-1] - ref.y[0, -1]) <= 1e-10
    assert abs(traj.w_at(c) - LSODA_SEP[2]) <= 1e-9
    # the shots only run to s_max, so the bracket is not checked at s_max = 100
    assert sep.bracket[1] - sep.bracket[0] <= 1e-10


@pytest.mark.parametrize("n", [90, 100])
def test_separatrix_large_n_independent_of_s_max(n):
    """s_far (about 121 and 139) lies beyond the default s_max = 100: the
    trace starts there all the same and is cut at s_max, so value, bracket
    and trace agree bit for bit with a run at s_max = 400."""
    params = rotational(n)
    cfg = IntegratorConfig()
    assert separatrix_start(params).s > cfg.s_max
    short = compute_separatrix(params)
    long = compute_separatrix(params, IntegratorConfig(s_max=400.0))
    assert (short.value, short.bracket, short.shots) == (long.value, long.bracket, 2)
    assert long.shots == 2
    probes = np.linspace(cfg.s_min_eps, cfg.s_max, 401)
    np.testing.assert_array_equal(short.trajectory.w_at(probes), long.trajectory.w_at(probes))
    end = short.trajectory.termination_right
    assert short.trajectory.s[-1] == end.s == cfg.s_max
    assert end.kind is TerminationKind.REACHED_S_MAX
    assert end.value == short.trajectory.w[-1] == short.trajectory.w_at(cfg.s_max)


def test_classify_above_separatrix_beyond_s_far():
    """A start 1e-6 above the separatrix at s = 99, n = 100: the trace at
    the default span is the one at s_max = 400, so the start is above it.
    Its pole lies past s_max (at about 129.6), so blowup stays None."""
    params = rotational(100)
    w_ref = float(compute_separatrix(params, IntegratorConfig(s_max=400.0))
                  .trajectory.w_at(99.0))
    verdict = classify(params, 99.0, w_ref + 1e-6)
    assert verdict.tag is SolutionClassTag.GAMMA_PLUS_BLOWUP
    assert verdict.blowup is None


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.5, 8.0), frac=st.floats(0.0, 1.0))
# the [18/18] approximant of c = 4.625 has a real pole at s = 31.5
@example(c=4.625, frac=0.5)
def test_far_formula_solves_the_phase_equation(c, frac):
    """From the trace's start up to s_max, the formula the trace joins
    there, w = s P(t)/Q(t) in t = scale/s^2 (the far-field series' Padé
    approximant, or the series itself, Q = 1, where a real pole of the
    approximant lies in the span, as for c in about [4.62, 4.65]),
    satisfies the phase equation to abs_tol relative, and Q has no zero in
    the span.  The slope is taken by the quotient rule, and 1 - c*w/s as
    (Q - c*P)/Q with its zero constant term 1 - c*b_0 dropped, so rounding
    does not swamp the defect at large s."""
    params, cfg = FlowParams(n=3, fiber_coeff=c), IntegratorConfig()
    start, formula = _far_field(params, cfg.abs_tol)
    assert start == separatrix_start(params, cfg.abs_tol)
    assert start.w == formula(start.s)
    P, Q = Polynomial(formula.p), Polynomial(formula.q)
    assert np.all(Q(np.linspace(0.0, formula.scale / start.s ** 2, 2001)) > 0)
    s = start.s * (cfg.s_max / start.s) ** frac
    t = formula.scale / (s * s)
    r = P(t) / Q(t)
    slope = r - 2.0 * t * (P.deriv()(t) * Q(t) - P(t) * Q.deriv()(t)) / Q(t) ** 2
    gap = (Q - c * P).coef
    gap[0] = 0.0
    f = (1.0 - (s * r) ** 2) * Polynomial(gap)(t) / Q(t)
    assert abs(slope - f) <= cfg.abs_tol * abs(slope)


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
    """A forward run from the anchor, the decision shot compute_separatrix
    reads, has no pole exactly when it records a line crossing, and
    exactly when it starts below the separatrix."""
    params = rotational(n)
    sep = compute_separatrix(params)
    run = integrate(params, (sep.anchor, sep.value + sign * 10.0 ** exponent),
                    "toward_infinity")
    term = run.termination_right
    crossed = any(e.kind is EventKind.CROSSED_LINE_R for e in run.events)
    assert (term.kind is not TerminationKind.BLOW_UP) == crossed == (sign < 0)


def _decided_shot(params, w0, cfg):
    """compute_separatrix's decision shot from (c, w0), a round on the
    cached trace: its verdict, the steps its stop test read with ok set
    ((x0, y0, x1, y1) in order), and the arguments of a lockstep loop that
    runs it as an ordinary lane, from where it started."""
    classify_module = importlib.import_module("solitonlab.classify")
    engine_module = importlib.import_module("solitonlab.engine")
    trace = classify_module._separatrix_trace(params, cfg)
    verdicts, charts, read = classify_module._shot_verdicts, engine_module._start_charts, []
    loop = []

    def reading(field, ok, *ends):
        read.append([a[ok] for a in ends])
        verdict = verdicts(field, ok, *ends)
        assert not verdict[~ok].any()    # only the steps it reads decide
        return verdict
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(classify_module, "_shot_verdicts", reading)
        # the last start is the join's: the shot's
        monkeypatch.setattr(engine_module, "_start_charts",
                            lambda *a: loop.append(charts(*a)) or loop[-1])
        (blown,), _, _ = classify_module._fire(params, np.array([w0]), cfg, trace)
    x, y, in_p = loop[-1]
    return (bool(blown), [np.concatenate(a) for a in zip(*read)],
            (params, x, y, np.zeros(1, dtype=bool), in_p, cfg))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.5, 8.0), sign=st.sampled_from([-1, 1]), exponent=st.floats(-12.0, -1.0))
@example(c=2.0, sign=-1, exponent=0.0)    # clipped to the barrier: w0 = 1.0
def test_decision_shot_stops_at_its_verdict(c, sign, exponent):
    """A decision shot from the anchor, offset from the traced w(c) and
    clipped at the barrier as compute_separatrix places them, stops at the
    first step that decides it.  Its verdict is the full run's (a pole, or
    a located line crossing, the barrier start included), and the steps it
    took up to its verdict are the full run's first steps, bit for bit."""
    params, cfg = FlowParams(n=3, fiber_coeff=c), IntegratorConfig()
    trace = importlib.import_module("solitonlab.classify")._separatrix_trace(params, cfg)
    w0 = max(1.0, float(trace.w_at(c)) + sign * 10.0 ** exponent)
    blown, read, loop = _decided_shot(params, w0, cfg)
    run = integrate(params, (c, w0), "toward_infinity", cfg)
    crossed = any(e.kind is EventKind.CROSSED_LINE_R for e in run.events)
    assert blown == (run.termination_right.kind is TerminationKind.BLOW_UP) != crossed
    full, _, _ = importlib.import_module("solitonlab.engine")._advance(*loop)
    k = read[0].size
    assert 0 < k <= full.x1.size
    assert k < full.x1.size or not blown
    for got, want in zip(read, (full.x0, full.y0, full.x1, full.y1)):
        assert got.tobytes() == want[:k].tobytes()


def test_decision_shot_decides_in_the_p_chart():
    """A shot that starts at or past the switch level, in the p chart, is
    read there as w = 1/p: it blows up, as its full run does, at its first
    step.  A p-chart step that ends at a pole reads w = +inf at p = +0, a
    blow-up, and w = -inf at p = -0, no verdict."""
    blown, read, loop = _decided_shot(ROT3, 5.0, IntegratorConfig())
    assert loop[4].tolist() == [True]    # in_p
    assert blown and read[0].size == 1
    assert detect_blowup(integrate(ROT3, (ROT3.fiber_coeff, 5.0), "toward_infinity"))
    classify_module = importlib.import_module("solitonlab.classify")
    field = _Field(ROT3, np.array([False, False]), np.array([True, True]))
    ends = [np.array(v) for v in ((0.1, -0.1), (3.0, 3.0), (0.0, -0.0), (3.5, 3.5))]
    got = classify_module._shot_verdicts(field, np.array([True, True]), *ends)
    assert got.tolist() == [classify_module._BLOWS_UP, 0]


def test_undecided_decision_shot_raises(monkeypatch):
    """A decision shot that reaches s_max with no verdict from its stop
    test is an error that names its start, not a verdict."""
    classify_module = importlib.import_module("solitonlab.classify")
    cfg = IntegratorConfig(s_max=5.0)
    trace = classify_module._separatrix_trace(ROT3, cfg)
    monkeypatch.setattr(classify_module, "_shot_verdicts",
                        lambda field, ok, *ends: np.zeros(ok.shape, dtype=int))
    w0 = float(trace.w_at(ROT3.fiber_coeff)) - 0.1
    with pytest.raises(RuntimeError, match=rf"shot from w = {w0!r} .* reached s = 5\.0 undecided"):
        classify_module._fire(ROT3, np.array([w0]), cfg, trace)


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


@settings(max_examples=10, deadline=None)
@given(starts=st.lists(st.tuples(st.floats(0.2, 5.0),
                                 st.one_of(st.floats(-0.99, 0.99), st.floats(1.01, 20.0),
                                           st.floats(-20.0, -1.01))),
                       min_size=2, max_size=6))
def test_flip_gives_the_posed_evidence_exactly(starts):
    """The timelike run from (s0, w0) is the canonical run from (s0, -w0)
    mirrored bit for bit, so a verdict its own run backs carries the
    evidence of the as-posed run exactly, not only to a tolerance."""
    runs = integrate_bidirectional_batch(TIMELIKE2, starts)
    for sc, traj in zip(classify_as_posed_batch(TIMELIKE2, starts), runs):
        if sc.tag in (SolutionClassTag.BOWL, SolutionClassTag.SEPARATRIX):
            continue    # read off the reference, not the start's run
        rep = limits_report(traj)
        assert (sc.limit_at_zero, sc.limit_at_infinity) == (rep.at_zero, rep.at_infinity)
        assert sc.blowup == rep.blowup
        assert sc.critical_points == _critical_points(traj)
        assert sc.causal == traj.causal_sign()


def test_blowup_bound_is_the_canonical_comparison_bound():
    """A gamma_minus_blowup verdict carries comparison_blowup_bound() at its
    canonical start, unflipped when posed timelike; every other verdict
    carries None."""
    starts = [(1.0, -2.0), (0.5, 0.3), (2.0, 1.5), (1.0, 1.0), (3.0, -1.0), (0.3, -7.0),
              (2.0, 1.2), (4.0, -1.05), (1.0, BOWL_W_AT_1), (2.0, SEP_VALUE)]
    for params, flip in ((ROT3, 1), (boost(3, region="timelike"), -1)):
        posed = [(s0, flip * w0) for s0, w0 in starts]
        verdicts = classify_as_posed_batch(params, posed)
        tags = {sc.tag for sc in verdicts}
        assert SolutionClassTag.GAMMA_MINUS_BLOWUP in tags and len(tags) >= 6
        for (s0, w0), sc in zip(starts, verdicts):
            if sc.tag is SolutionClassTag.GAMMA_MINUS_BLOWUP:
                canon = params.canonical_strip()[0]
                assert sc.blowup_bound == comparison_blowup_bound(canon, s0, w0)
                assert s0 < sc.blowup[0] <= sc.blowup_bound
            else:
                assert sc.blowup_bound is None
