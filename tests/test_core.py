import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solitonlab import (
    BARRIER_TOL,
    FlowParams,
    PhaseState,
    Region,
    boost,
    causal_sign,
    critical_concavity,
    critical_line,
    region_of,
    rhs,
    rhs_wing,
    rotational,
)
from solitonlab.core import causal_signs

ROT3 = rotational(3)


# --- parameter bundles ---

def test_rotational_defaults():
    p = rotational(3)
    assert p.n == 3
    assert p.eps_prime == -1
    assert p.eps_tilde == +1
    assert p.fiber_coeff == 2.0
    assert p.has_barriers


def test_rotational_euclidean_sign():
    p = rotational(2, eps_prime=+1)
    assert p.eps_prime == +1
    assert not p.has_barriers


@pytest.mark.parametrize("region, et", [("spacelike", +1), ("timelike", -1)])
def test_boost_regions(region, et):
    p = boost(2, region=region)
    assert p.eps_tilde == et
    assert p.eps_prime == +1
    assert p.n == 2
    assert p.fiber_coeff == 1.0


def test_boost_strict_fiber():
    # a full-dimensional orbit stack carries c = n-1; the strict one-fiber
    # reduction keeps c = 1 regardless of n
    assert boost(4, region="timelike").fiber_coeff == 3.0
    assert boost(4, region="timelike", strict_fiber=True).fiber_coeff == 1.0


def test_boost_rejects_unknown_region():
    with pytest.raises(ValueError):
        boost(2, region="null")


@pytest.mark.parametrize("kwargs", [
    dict(n=1),
    dict(eps_prime=0),
    dict(eps_tilde=2),
    dict(fiber_coeff=0.0),
    dict(fiber_coeff=-1.0),
])
def test_flowparams_validation(kwargs):
    with pytest.raises(ValueError):
        FlowParams(**kwargs)


def test_h_values():
    assert ROT3.h(2.0) == 1.0
    assert boost(2, region="timelike").h(2.0) == -0.5


def test_has_barriers_is_sign_product():
    assert FlowParams(eps_tilde=+1, eps_prime=-1).has_barriers
    assert FlowParams(eps_tilde=-1, eps_prime=+1).has_barriers
    assert not FlowParams(eps_tilde=+1, eps_prime=+1).has_barriers


def test_canonical_strip_identity_and_flip():
    p, flip = ROT3.canonical_strip()
    assert p == ROT3
    assert flip == +1

    tl = boost(2, region="timelike")
    q, flip = tl.canonical_strip()
    assert flip == -1
    assert q.eps_tilde == +1 and q.eps_prime == -1
    assert q.fiber_coeff == tl.fiber_coeff


def test_canonical_strip_rejects_barrierless():
    with pytest.raises(ValueError):
        rotational(2, eps_prime=+1).canonical_strip()


# --- right-hand sides ---

def test_rhs_spot_values():
    assert rhs(ROT3, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert rhs(ROT3, 2.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert rhs(ROT3, 2.0, 2.0) == pytest.approx(3.0, rel=1e-15)


def test_rhs_vectorized():
    s = np.array([1.0, 2.0, 2.0])
    w = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(rhs(ROT3, s, w), [1.0, 0.0, 3.0], atol=1e-15)


@pytest.mark.parametrize("params", [
    rotational(2), rotational(3), rotational(5),
    boost(2, region="timelike"), boost(3, region="timelike"),
])
def test_rhs_vanishes_on_barriers(params):
    s = np.geomspace(0.01, 50.0, 23)
    np.testing.assert_allclose(rhs(params, s, np.ones_like(s)), 0.0, atol=1e-14)
    np.testing.assert_allclose(rhs(params, s, -np.ones_like(s)), 0.0, atol=1e-14)


def test_rhs_no_barriers_when_signs_agree():
    # w = 1 is not special when et*ep = +1 (off the critical line s = c)
    p = rotational(2, eps_prime=+1)
    assert abs(rhs(p, 2.0, 1.0)) > 0.1


def test_rhs_sign_tracks_critical_line():
    """Inside the strip the slope factor is positive, so the sign of w'
    is the sign of 1 - w*h(s): positive below the critical line."""
    rng = np.random.default_rng(7)
    s = rng.uniform(0.1, 10.0, 300)
    w = rng.uniform(-0.99, 0.99, 300)
    val = rhs(ROT3, s, w)
    below = w < critical_line(ROT3, s)
    assert np.all(np.sign(val[below]) == 1.0)
    above = ~below & (np.abs(w - critical_line(ROT3, s)) > 1e-12)
    assert np.all(np.sign(val[above]) == -1.0)


def test_rhs_wing_spot_values():
    assert rhs_wing(ROT3, 1.0, 0.0) == pytest.approx(-2.0, rel=1e-15)
    assert rhs_wing(rotational(2, eps_prime=+1), 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert rhs_wing(ROT3, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_rhs_wing_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        rhs_wing(ROT3, 0.0, 0.5)
    with pytest.raises(ValueError):
        rhs_wing(ROT3, -1.0, 0.5)


def test_rhs_wing_vectorized():
    a = np.array([1.0, 1.0, 2.0])
    ap = np.array([0.0, 1.0, 0.0])
    out = rhs_wing(ROT3, a, ap)
    np.testing.assert_allclose(out, [-2.0, 0.0, -1.0], atol=1e-15)


# --- critical line ---

def test_critical_line_values():
    assert critical_line(ROT3, 4.0) == 2.0
    assert critical_line(rotational(2), 1.0) == 1.0
    assert critical_line(ROT3, 0.5) == 0.25
    assert critical_line(boost(2, region="timelike"), 3.0) == -3.0


def test_critical_line_zero_of_drift():
    s = np.geomspace(0.2, 20.0, 17)
    w1 = critical_line(ROT3, s)
    # the drift factor 1 - w*h vanishes there, hence rhs = 0 off-barrier
    np.testing.assert_allclose(rhs(ROT3, s, w1), 0.0, atol=1e-13)


def test_critical_concavity_values():
    assert critical_concavity(ROT3, 1.0) == pytest.approx(0.75, rel=1e-14)
    assert critical_concavity(rotational(2), 0.5) == pytest.approx(1.5, rel=1e-14)
    assert critical_concavity(boost(2, region="timelike"), 2.0) == pytest.approx(1.5, rel=1e-14)


def test_critical_concavity_vanishes_where_line_meets_barrier():
    # w1(s) = s/c hits w = 1 at s = c, where the strip trajectory through
    # the maximum flattens out
    assert critical_concavity(ROT3, ROT3.fiber_coeff) == pytest.approx(0.0, abs=1e-15)


# --- regions and causal type ---

@pytest.mark.parametrize("w, expected", [
    (0.0, Region.INNER_STRIP),
    (0.999, Region.INNER_STRIP),
    (1.0, Region.BARRIER_PLUS),
    (1.0 + 0.5 * BARRIER_TOL, Region.BARRIER_PLUS),
    (-1.0, Region.BARRIER_MINUS),
    (1.5, Region.GAMMA_PLUS),
    (-1.0001, Region.GAMMA_MINUS),
])
def test_region_of(w, expected):
    assert region_of(w) is expected


def test_region_of_rejects_nonfinite():
    with pytest.raises(ValueError):
        region_of(float("nan"))


def test_causal_sign_basic():
    assert causal_sign(ROT3, np.array([0.0, 0.5, -0.5])) == -1
    assert causal_sign(ROT3, np.array([2.0, -3.0])) == +1
    assert causal_sign(ROT3, np.array([0.5, 2.0])) == 0


def test_causal_sign_drops_lightlike_plateau():
    # barrier-hugging tails sit at +-1 to machine precision; they must not
    # mask the sign of the open part
    w = np.array([1.0, 1.0, 1.0, 0.3])
    assert causal_sign(ROT3, w) == -1
    assert causal_sign(ROT3, np.array([1.0, -1.0])) == 0


def test_causal_sign_scalar_input():
    assert causal_sign(ROT3, 0.2) == -1


_SLOPES = [0.0, 0.5, 1.0, -1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 1e-13, 1.0 - 1e-13,
           -1.0 - 1e-15, 2.0, -3.0, 1e160, math.inf, math.nan]


def _sign_of(params, w):
    """The causal sign of one slope sample, one sample at a time."""
    signs = {math.copysign(1, q) for q in (params.eps_prime + params.eps_tilde * x * x
                                           for x in w) if abs(q) > 1e-13}
    return signs.pop() if len(signs) == 1 else 0


@settings(max_examples=30, deadline=None)
@given(ws=st.lists(st.lists(st.sampled_from(_SLOPES), max_size=5), max_size=5),
       params=st.sampled_from([ROT3, rotational(2, eps_prime=1), boost(2, "timelike")]))
def test_causal_signs_of_a_batch(ws, params):
    """The causal signs taken over a whole batch at once are those of each
    slope sample alone: samples near the lightlike locus and NaN ignored,
    mixed or empty giving 0."""
    expected = [_sign_of(params, w) for w in ws]
    assert causal_signs(params, [np.array(w) for w in ws]) == expected
    assert [causal_sign(params, np.array(w)) for w in ws] == expected


def test_phase_state_tuple_access():
    st = PhaseState(1.5, -0.25)
    assert st.s == 1.5 and st.w == -0.25
    s0, w0 = st
    assert (s0, w0) == (1.5, -0.25)
