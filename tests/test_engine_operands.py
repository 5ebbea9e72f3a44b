"""The engine's loop operands: the constants that enter its numpy calls are
read-only float64 0-d arrays, and the functions that read them give the
bits the same expressions give with Python-float operands."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from solitonlab import FlowParams, rotational
from solitonlab import engine


def _operand_constants():
    """The engine's module-level 0-d arrays by name."""
    return {name: value for name, value in vars(engine).items()
            if isinstance(value, np.ndarray) and value.ndim == 0}


def test_operand_constants_are_read_only_float64_scalars():
    """Every module-level 0-d array of the engine, and every per-params
    one, is float64 and not writeable: an in-place op on one raises, so no
    caller can change what every later integration reads."""
    consts = _operand_constants()
    assert {"_ZERO", "_ONE", "_TWO", "_W_CAP", "_NEG_W_CAP", "_W_SWITCH", "_TINY",
            "_MAX_STEP", "_SAFETY", "_MIN_FACTOR", "_MAX_FACTOR", "_E3_WEIGHT"} <= set(consts)
    per_params = {f"_coeffs[{k}]": v for k, v in enumerate(engine._coeffs(rotational(3)))}
    for name, value in {**consts, **per_params}.items():
        assert value.dtype == np.float64, name
        assert value.ndim == 0, name
        assert not value.flags.writeable, name
        before = value.tobytes()
        with pytest.raises(ValueError):
            value += 1.0
        with pytest.raises(ValueError):
            np.multiply(value, 2.0, out=value)
        assert value.tobytes() == before, name


# --- the parent's expressions, with Python-float operands ---

def _rate_ref(params, log, in_p, x, z):
    """_Field.__call__ as the expressions with Python floats read it."""
    field = engine._Field(params, log, in_p)
    et, ep, c = float(params.eps_tilde), params.eps_prime, params.fiber_coeff
    etc = params.eps_tilde * params.fiber_coeff
    s = np.where(in_p, 1.0, field.s_of(x)) if field.any_p else field.s_of(x)
    if field.all_log or not field.any_log:
        L, D = (s, None) if field.all_log else (None, s)
    else:
        L, D = np.where(field.exp, s, 1.0), np.where(field.exp, 1.0, s)
    p = x
    out = None
    if not field.all_p:
        w = np.minimum(np.maximum(z, -1e10), 1e10)
        ww = w * w
        a = et - ww if ep < 0 else et + ww
        t = w * etc
        out = np.multiply(a, (1.0 if L is None else L) - (t if D is None else t / D))
        if not field.any_p:
            return out
        p, z = np.where(in_p, p, 0.0), np.where(in_p, z, 0.0)
    f = np.divide(-p * z, (et * p * p + ep) * (p * z - etc))
    if field.all_p:
        return f
    np.copyto(out, f, where=in_p)
    return out


def _growth_ref(norm):
    return 0.9 * engine._libm(math.pow, np.maximum(norm, 1e-300), -1.0 / 8.0)


def _switch_level_ref(params, s, w):
    return np.where(np.asarray(w) * params.eps_tilde < 0.0, 2.0,
                    np.maximum(2.0, 2.0 * np.asarray(s) / params.fiber_coeff))


def _tail_rows_ref(params, s1, y1, s_end):
    sigma = np.copysign(1.0, y1)
    F = np.zeros((y1.size, 7))
    F[:, 0], F[:, 1], F[:, 2] = sigma, y1 - sigma, s1
    F[:, 3] = 2.0 * params.eps_prime * sigma
    F[:, 4] = sigma * params.eps_tilde * params.fiber_coeff
    F[:, 5] = engine._libm(lambda u: math.log(u) if u else 0.0, np.abs(F[:, 1]))
    F[:, 6] = s_end
    return F


def _tail_exponent_ref(F, s):
    return F[3] * ((s - F[2]) - F[4] * engine._libm(math.log, s / F[2]))


def _tail_linear_ref(F, s):
    return np.copysign(engine._libm(math.exp, np.minimum(F[5] + _tail_exponent_ref(F, s), 0.0)),
                       F[1])


def _whole_ref(m):
    return (m >= 1.0) & (m <= 256.0) & (m == np.floor(m))


def _tail_integral_ref(F, s, L):
    m, k = -F[3] * F[4], F[3]
    series = np.abs(k) * np.maximum(F[2], F[6]) <= m
    r, X = np.stack((s, F[2])), np.stack((L, F[1]))
    y = (-k * r)[..., None]
    size = np.where(series, np.ceil(np.sqrt(80.0 * m)) + 12.0, m).astype(int)
    j, mc = np.arange(np.max(size)), m[:, None]
    ratio = np.where(series[:, None], y / (mc + 2.0 + j), (mc - j) / y)
    terms = np.cumprod(np.concatenate((np.where(series, r * X / (m + 1.0), X / k)[..., None],
                                       ratio), axis=-1), axis=-1)
    total = np.cumsum(terms, axis=-1)[..., np.arange(size.size), size]
    return total[0] - total[1]


def _tail_peak_ref(F):
    s_end, m = F[6], -F[3] * F[4]
    slope = F[3] + m / F[2]
    falls = slope * (s_end - F[2]) < 0.0
    ln_u = np.where(F[1] != 0.0, F[5], -math.inf)
    ln_u += np.where(falls & _whole_ref(m),
                     np.abs(F[1]) * (1.5 + np.abs(F[3] / np.where(falls, slope, 1.0))), 0.0)
    rest = (~falls).nonzero()[0]
    if rest.size:
        G, end = F[:, rest], s_end[rest]
        top = np.minimum(np.maximum(G[4], np.minimum(G[2], end)), np.maximum(G[2], end))
        ln_u[rest] += np.maximum(np.maximum(_tail_exponent_ref(G, end),
                                            _tail_exponent_ref(G, top)), 0.0)
        at = rest[_whole_ref(m[rest]) & (ln_u[rest] <= 0.0) & (G[1] != 0.0)]
        if at.size:
            G = F[:, at]
            V = _tail_integral_ref(G, G[6], _tail_linear_ref(G, G[6]))
            ln_u[at] += 1.5 * engine._libm(math.exp, ln_u[at]) + np.abs(G[3] * V)
    return ln_u


def _tail_ref(F, s):
    w = np.array(F[0], dtype=float)
    q = np.frexp(s / F[2])[1]
    live = (F[1] != 0.0) & (F[5] + F[3] * (s - F[2]) - F[3] * F[4] * math.log(2.0) * q >= -40.0)
    if np.count_nonzero(live):
        F, s = F[:, live], s[live]
        u = _tail_linear_ref(F, s)
        m = -F[3] * F[4]
        at = (_whole_ref(m) & (F[1] != 0.0) & ((np.abs(F[3]) * np.maximum(F[2], F[6]) > m)
                                              | (np.abs(F[3]) * s <= m))).nonzero()[0]
        if at.size:
            G, L = F[:, at], u[at]
            V = _tail_integral_ref(G, s[at], L)
            u[at] = L + L * (G[0] * (1.5 * (L - G[1]) - G[3] * V))
        w[live] += u
    return w


def _bits(fn, *args):
    """fn(*args) as int64 bits (NaN included), or the type of the error a
    libm call raised on it."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return np.asarray(out, dtype=float).view(np.int64).tolist()


_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
            2.2e-308, -1e-310, 1e10, -1e10, 1e11, -3e15, 1e300, -1e300, 1.7e308, -1.7e308,
            1.0, -1.0, 2.0]
_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_SPECIAL),
                    st.floats(-50.0, 50.0))
# log-lane x is log s: libm's exp overflows past 709.78
_LOG_X = st.one_of(st.floats(max_value=700.0), st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, -745.0, -1e300]))
# s and s1 of a tail: libm's log refuses s/s1 = 0, as at s1 = inf
_POSITIVE = st.one_of(st.floats(1e-300, 1e300), st.sampled_from(
    [5e-324, 2.2e-308, 1e-300, 1.0, 1e300, math.nan]))
# the four sign patterns: two with barriers, two without
_PARAMS = st.builds(lambda et, ep, c: FlowParams(n=3, eps_prime=ep, eps_tilde=et, fiber_coeff=c),
                    st.sampled_from([1, -1]), st.sampled_from([1, -1]),
                    st.sampled_from([2.0, 1.0, 0.37, 99.0, 3]))
_MASK = st.sampled_from(["none", "all", "mixed"])


def _floats(elements, shape):
    """A float64 array of the given shape over an element strategy, drawn
    whole rather than value by value."""
    return hnp.arrays(float, shape, elements=elements)


def _mask(kind, n, draw):
    if kind == "mixed":
        return draw(hnp.arrays(bool, n))
    return np.full(n, kind == "all")


@settings(max_examples=300, deadline=None)
@given(params=_PARAMS, log_kind=_MASK, p_kind=_MASK, data=st.data(),
       n=st.integers(1, 24))
def test_rate_is_the_float_expression_bit_for_bit(params, log_kind, p_kind, data, n):
    """_Field.at and rate give the bits of the same expressions with Python
    floats: w-chart, p-chart and mixed fields, log and forward lanes, both
    barrier and barrier-free patterns, with +-0, NaN, +-inf, subnormals
    and |w| past _W_CAP."""
    log, in_p = _mask(log_kind, n, data.draw), _mask(p_kind, n, data.draw)
    x = np.where(log & ~in_p, data.draw(_floats(_LOG_X, n)), data.draw(_floats(_VALUES, n)))
    z = data.draw(_floats(_VALUES, n))
    field = engine._Field(params, log, in_p)
    assert _bits(field, x, z) == _bits(_rate_ref, params, log, in_p, x, z)


@settings(max_examples=200, deadline=None)
@given(_floats(_VALUES, st.integers(1, 20)))
def test_growth_is_the_float_expression_bit_for_bit(norm):
    """_growth over every sign and special value, not only scipy's norms."""
    assert _bits(engine._growth, norm) == _bits(_growth_ref, norm)


@settings(max_examples=200, deadline=None)
@given(params=_PARAMS, data=st.data(), n=st.integers(1, 20))
def test_switch_level_is_the_float_expression_bit_for_bit(params, data, n):
    """_switch_level on arrays and on Python floats, both signs of et,
    with s and w at every special value (2s overflows past 9e307)."""
    s, w = data.draw(_floats(_VALUES, (2, n)))
    assert _bits(engine._switch_level, params, s, w) == _bits(_switch_level_ref, params, s, w)
    assert (_bits(engine._switch_level, params, float(s[0]), float(w[0]))
            == _bits(_switch_level_ref, params, float(s[0]), float(w[0])))


@settings(max_examples=300, deadline=None)
@given(params=_PARAMS, data=st.data(), n=st.integers(1, 20))
def test_barrier_tail_is_the_float_expression_bit_for_bit(params, data, n):
    """_tail_rows, _tail_peak and _tail, on rows from _tail_rows (y1 near
    a barrier or anywhere) and on rows drawn whole, with special values in
    every row, against both span ends."""
    near = st.builds(lambda sign, u: sign + u, st.sampled_from([1.0, -1.0]),
                     st.one_of(st.floats(-1e-4, 1e-4), st.sampled_from([0.0, -0.0, 5e-324])))
    s1 = data.draw(_floats(_POSITIVE, n))
    y1 = data.draw(_floats(st.one_of(near, _VALUES), n))
    s_end = np.where(data.draw(hnp.arrays(bool, n)), 1e-10, 100.0)
    rows = engine._tail_rows(params, s1, y1, s_end)
    assert _bits(lambda: rows) == _bits(_tail_rows_ref, params, s1, y1, s_end)
    drawn = data.draw(_floats(_VALUES, (7, n)))
    drawn[2] = data.draw(_floats(_POSITIVE, n))
    drawn[6] = np.where(data.draw(hnp.arrays(bool, n)), s_end, drawn[6])
    s = data.draw(_floats(_POSITIVE, n))
    for F in (rows.T, drawn):
        assert _bits(engine._tail_peak, F) == _bits(_tail_peak_ref, F)
        assert _bits(engine._tail, F, s) == _bits(_tail_ref, F, s)
