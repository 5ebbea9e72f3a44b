"""The separatrix against a 30-digit table of rotational n = 2..5.

tests/data/separatrix_30digit.json holds w(c/2), w(c), w(2c) and w(6),
each integrated by mpmath from two far starts S on the far-field series
(tools/separatrix_reference.py, run by hand).  Only the JSON is read here,
so the suite needs no mpmath.
"""

import json
import os
from decimal import Decimal

import pytest

from solitonlab import IntegratorConfig, compute_separatrix, rotational
from solitonlab.engine import _far_field

with open(os.path.join(os.path.dirname(__file__), "data", "separatrix_30digit.json")) as fh:
    ENTRIES = json.load(fh)["entries"]
NS = sorted({e["n"] for e in ENTRIES})

# the backward trace at the anchor s = c is off the table by 2.4e-12,
# 6.9e-13, 1.6e-13 and 1.4e-13 for n = 2..5; a fifth of the default tol
TRACE_TOL = 2e-11
# the far-field formula, relative, wherever the trace joins it
FORMULA_TOL = 1e-12


def _table(n):
    """{s: the table's w(s) as a Decimal} for rotational(n)."""
    return {e["s"]: Decimal(e["w"][0]) for e in ENTRIES if e["n"] == n}


def test_far_starts_agree():
    """Each entry's two far starts agree to the digits it records."""
    assert NS == [2, 3, 4, 5]
    for e in ENTRIES:
        assert len(set(e["far_starts"])) == 2
        first, second = map(Decimal, e["w"])
        assert abs(first - second) <= Decimal(10) ** -e["digits"] * abs(first)


@pytest.mark.parametrize("n", NS)
def test_trace_at_anchor_matches_table(n):
    params = rotational(n)
    c = params.fiber_coeff
    traced = float(compute_separatrix(params).trajectory.w_at(c))
    assert abs(traced - float(_table(n)[c])) <= TRACE_TOL


@pytest.mark.parametrize("n", NS)
def test_far_formula_matches_table_from_its_start(n):
    """The formula the trace joins at its start, the far-field series' Padé
    approximant, at every table point at or beyond that start (s = 6 for
    every n, and 2c = 8 for n = 5)."""
    start, formula = _far_field(rotational(n), IntegratorConfig().abs_tol)
    beyond = {s: w for s, w in _table(n).items() if s >= start.s}
    assert beyond
    for s, w in beyond.items():
        assert abs(formula(s) - float(w)) <= FORMULA_TOL * float(w)


@pytest.mark.parametrize("n", NS)
def test_default_bracket_holds_table_value(n):
    params = rotational(n)
    lo, hi = compute_separatrix(params).bracket
    assert Decimal(lo) <= _table(n)[params.fiber_coeff] <= Decimal(hi)
