"""Negative controls: each checker accepts a real CLI output and rejects a
corrupted copy of it.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import os

import pytest

import checks
import run
from workloads import Op

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def call():
    runner = run.Runner(*run.load_package(SRC))

    def _call(op):
        if op.cold:
            for cache in runner.caches:
                cache.cache_clear()
        rc, out, err, _ = runner.call(op.argv)
        assert checks.check(op, rc, out) == [], err
        return rc, out

    return _call


def _portrait_op(region, w_grid):
    argv = ("portrait", "--region", region, "--n", "2", "--s0-grid", "1:2:2",
            f"--w0-grid={w_grid}")
    return Op("portrait", argv, cold=False, expect=dict(
        region=region, flip=1, et=1, ep=-1, c=1.0, s_max=100.0, count=6,
        probe=0))


def _replace_field(out, row_index, field, value):
    lines = out.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[1 + row_index].rstrip("\n").split(",")
    cells[header.index(field)] = value
    lines[1 + row_index] = ",".join(cells) + "\n"
    return "".join(lines)


def test_flipped_strip_tag_is_caught(call):
    op = _portrait_op("strip", "-0.9:0.9:3")
    rc, out = call(op)
    assert "below_bowl" in out.splitlines()[1]
    bad = _replace_field(out, 0, "class", "above_bowl")
    assert checks.check(op, rc, bad)


def test_flipped_strip_tag_keeping_order_is_caught(call):
    # below, below, above at s0 = 1 turned into below x3 stays monotone;
    # only the LSODA bowl can tell
    op = _portrait_op("strip", "-0.9:0.9:3")
    rc, out = call(op)
    assert "above_bowl" in out.splitlines()[3]
    bad = _replace_field(out, 2, "class", "below_bowl")
    assert checks.check(op, rc, bad)


def test_flipped_gamma_plus_tag_is_caught(call):
    op = _portrait_op("gamma_plus", "1.05:3:3")
    rc, out = call(op)
    assert "gamma_plus_global" in out.splitlines()[1]
    bad = _replace_field(out, 0, "class", "gamma_plus_blowup")
    assert checks.check(op, rc, bad)


def test_pole_beyond_coth_bound_is_caught(call):
    op = _portrait_op("gamma_minus", "-3:-1.05:3")
    rc, out = call(op)
    bad = _replace_field(out, 2, "blowup_s", "50")
    assert checks.check(op, rc, bad)


def test_shifted_pole_is_caught(call):
    # 1e-3 later stays inside the coth bound; the LSODA probe of row 0 sees it
    op = _portrait_op("gamma_minus", "-3:-1.05:3")
    rc, out = call(op)
    pole = float(out.splitlines()[1].split(",")[7])
    bad = _replace_field(out, 0, "blowup_s", repr(pole + 1e-3))
    assert checks.check(op, rc, bad)


def test_dropped_portrait_row_is_caught(call):
    op = _portrait_op("strip", "-0.9:0.9:3")
    rc, out = call(op)
    lines = out.splitlines(keepends=True)
    assert checks.check(op, rc, "".join(lines[:-1]))


def test_dropped_hybrid_csv_row_is_caught(call):
    op = Op("hybrid", ("hybrid", "--nodes", "21"), cold=True, expect=dict(nodes=21))
    rc, out = call(op)
    lines = out.splitlines(keepends=True)
    assert checks.check(op, rc, "".join(lines[:-1]))


def test_missing_mesh_face_is_caught(call):
    op = Op("mesh", ("mesh", "hybrid", "--nodes", "21"), cold=True,
            expect=dict(verts=21 * 21, faces=2 * 20 * 20))
    rc, out = call(op)
    lines = out.splitlines(keepends=True)
    assert lines[-1].startswith("f ")
    assert checks.check(op, rc, "".join(lines[:-1]))


def test_wrong_separatrix_value_is_caught(call):
    op = Op("separatrix", ("separatrix", "--n", "2"), cold=True,
            expect=dict(n=2, tol=1e-10))
    rc, out = call(op)
    rep = json.loads(out)
    # shift value and bracket together so only the reference table can tell
    shift = 1e-8
    rep["value_at_anchor"] += shift
    rep["bracket"] = [b + shift for b in rep["bracket"]]
    assert checks.check(op, rc, json.dumps(rep))


def test_wide_separatrix_bracket_is_caught(call):
    op = Op("separatrix", ("separatrix", "--n", "2"), cold=True,
            expect=dict(n=2, tol=1e-10))
    rc, out = call(op)
    rep = json.loads(out)
    rep["bracket"][1] += 1e-9
    assert checks.check(op, rc, json.dumps(rep))


def test_negative_control_that_passes_is_caught(call):
    op = Op("verify", ("verify", "hybrid", "--nodes", "101", "--mismatch"),
            cold=True, expect=dict(rc=1))
    rc, out = call(op)
    assert checks.check(op, 0, out)
    rep = json.loads(out)
    rep["pass"] = True
    assert checks.check(op, rc, json.dumps(rep))


def test_order_outside_window_is_caught(call):
    op = Op("verify", ("verify", "bowl", "--n", "2"), cold=True, expect=dict(rc=0))
    rc, out = call(op)
    rep = json.loads(out)
    rep["p_fine"] = 1.6
    assert checks.check(op, rc, json.dumps(rep))
