import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import solitonlab
from solitonlab import (IntegratorConfig, boost, classify_as_posed, detect_blowup,
                        integrate_bidirectional, mesh, rotational)
from solitonlab import cli
from solitonlab.cli import _fmt_array, main
from solitonlab.geometry import build_hybrid, build_spindle, center_regular_profile

GM_BLOWUP_S = 1.0632503268240918
COTH_BOUND = 1.549306144334055
SEP_VALUE = 1.390627106179388


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


# --- classify ---

def test_classify_text_report(tmp_path):
    code, text = run(tmp_path, "classify", "--s0", "1", "--w0=-2")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "class: gamma_minus_blowup"
    got = dict(ln.split(": ", 1) for ln in lines)
    assert float(got["blowup_s"]) == pytest.approx(GM_BLOWUP_S, abs=1e-9)
    assert got["blowup_sign"] == "-1"
    assert float(got["blowup_bound"]) == pytest.approx(COTH_BOUND, rel=1e-12)
    assert got["causal_sign"] == "1"


def test_classify_json_report(tmp_path):
    code, text = run(tmp_path, "classify", "--s0", "1", "--w0=-2", "--json")
    assert code == 0
    rep = json.loads(text)
    assert rep["class"] == "gamma_minus_blowup"
    assert rep["blowup_s"] == pytest.approx(GM_BLOWUP_S, abs=1e-9)
    assert rep["n"] == 3
    assert rep["limit_at_infinity"] == -np.inf


def test_classify_constant(tmp_path):
    code, text = run(tmp_path, "classify", "--s0", "1", "--w0", "1")
    assert code == 0
    assert text.splitlines()[0] == "class: constant_plus"


def test_classify_timelike_flip(tmp_path):
    code, text = run(tmp_path, "classify", "--action", "boost",
                     "--region", "timelike_T", "--s0", "1", "--w0", "0.4")
    assert code == 0
    assert text.splitlines()[0] == "class: below_bowl"


def test_timelike_causal_sign_as_posed(tmp_path):
    # q = ep + et*w^2 = 1 - w^2 > 0 inside the strip of the posed equation
    code, text = run(tmp_path, "classify", "--action", "boost",
                     "--region", "timelike_T", "--s0", "1", "--w0", "0.4")
    assert code == 0
    got = dict(ln.split(": ", 1) for ln in text.splitlines())
    assert got["causal_sign"] == "1"
    code, text = run(tmp_path, "portrait", "--action", "boost",
                     "--region", "timelike_T", "--s0-grid", "1:1:1",
                     "--w0-grid", "0.4:0.4:1")
    assert code == 0
    assert text.splitlines()[1].split(",")[4] == "1"


def test_classify_rejects_nonpositive_s0(tmp_path):
    code, _ = run(tmp_path, "classify", "--s0", "0", "--w0", "0.5")
    assert code == 2


def test_classify_requires_initial_condition(tmp_path):
    code, _ = run(tmp_path, "classify", "--s0", "1")
    assert code == 2


def test_classify_spacelike_wedge_has_no_strip(tmp_path):
    code, _ = run(tmp_path, "classify", "--action", "boost",
                  "--region", "spacelike_S", "--s0", "1", "--w0", "0.5")
    assert code == 2


def test_region_action_compatibility(tmp_path):
    code, _ = run(tmp_path, "classify", "--region", "spacelike_S",
                  "--s0", "1", "--w0", "0.5")
    assert code == 2
    code, _ = run(tmp_path, "classify", "--action", "boost",
                  "--region", "gamma_plus", "--s0", "1", "--w0", "0.5")
    assert code == 2


# --- portrait ---

def test_portrait_empty_grid_header_only(tmp_path):
    code, text = run(tmp_path, "portrait", "--s0-grid", "1:1:0")
    assert code == 0
    assert text == ("traj,s0,w0,class,causal,limit_zero,limit_inf,"
                    "blowup_s,blowup_sign,critical_s,error\n")


def test_portrait_single_row(tmp_path):
    code, text = run(tmp_path, "portrait", "--s0-grid", "0.5:0.5:1",
                     "--w0-grid", "0.5:0.5:1")
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "0"
    assert float(row[1]) == 0.5 and float(row[2]) == 0.5
    assert row[3] == "above_bowl"
    assert row[4] == "-1"
    assert float(row[5]) == pytest.approx(1.0, abs=1e-6)
    assert float(row[9]) == pytest.approx(0.81885420837839218, abs=1e-8)
    assert row[10] == ""


def test_portrait_batch_matches_single_starts(tmp_path):
    """A grid classified in one batch is byte-identical from run to run,
    and each row carries the verdict of its start classified alone."""
    a = tmp_path / "first.csv"
    b = tmp_path / "second.csv"
    grid = ["--s0-grid", "0.5:3:4", "--w0-grid=-2:2:7"]
    assert main(["portrait", *grid, "--out", str(a)]) == 0
    assert main(["portrait", *grid, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = a.read_text().splitlines()[1:]
    assert len(rows) == 28
    params = rotational(3)
    for row in rows:
        cells = row.split(",")
        s0, w0 = float(cells[1]), float(cells[2])
        sc = classify_as_posed(params, s0, w0)
        assert cells[3] == sc.tag.value and cells[4] == str(sc.causal)
        alone = [sc.limit_at_zero, sc.limit_at_infinity]
        if sc.blowup is not None:
            alone.append(sc.blowup[0])
            assert cells[8] == str(sc.blowup[1])
        got = [float(cells[5]), float(cells[6])] + ([float(cells[7])] if cells[7] else [])
        crit = [float(c) for c in cells[9].split(";") if c]
        assert len(got) == len(alone) and len(crit) == len(sc.critical_points)
        np.testing.assert_allclose(got + crit, alone + list(sc.critical_points),
                                   rtol=1e-12, atol=0)


def test_portrait_rows_cover_gamma_regions(tmp_path):
    code, text = run(tmp_path, "portrait", "--s0-grid", "1:1:1",
                     "--w0-grid=-2:2:5")
    assert code == 0
    classes = [ln.split(",")[3] for ln in text.splitlines()[1:]]
    assert "gamma_minus_blowup" in classes
    assert "constant_minus" in classes and "constant_plus" in classes


def test_portrait_error_rows_not_fatal(tmp_path):
    # s0 beyond the integration ceiling cannot be classified; the row says
    # so instead of the whole run dying
    code, text = run(tmp_path, "portrait", "--s0-grid", "200:200:1",
                     "--w0-grid", "0:0:1")
    assert code == 0
    row = text.splitlines()[1].split(",")
    assert row[3] == "error"
    assert row[10] != ""


def test_portrait_euclidean_untagged(tmp_path):
    code, text = run(tmp_path, "portrait", "--eps-prime", "1",
                     "--s0-grid", "1:1:1", "--w0-grid", "0.3:0.3:1")
    assert code == 0
    assert text.splitlines()[1].split(",")[3] == "untagged"


def test_portrait_barrier_free_blows_up_toward_zero(tmp_path):
    """Barrier-free orbits blow up toward zero: limit_zero reads inf and
    blowup_s holds the pole, below s0."""
    code, text = run(tmp_path, "portrait", "--action", "boost", "--region",
                     "spacelike_S", "--n", "2", "--s0-grid", "1:2:2", "--w0-grid=2:3:2")
    assert code == 0
    header, *lines = text.splitlines()
    rows = [dict(zip(header.split(","), ln.split(","))) for ln in lines]
    assert len(rows) == 4
    for row in rows:
        s0, w0 = float(row["s0"]), float(row["w0"])
        pole = detect_blowup(integrate_bidirectional(boost(2), s0, w0))
        assert row["limit_zero"] == "inf"
        assert (float(row["blowup_s"]), int(row["blowup_sign"])) == pole
        assert 0.0 < pole[0] < s0


# --- profile emitters ---

def test_bowl_csv(tmp_path):
    code, text = run(tmp_path, "bowl", "--n", "2", "--span", "2",
                     "--samples", "11")
    assert code == 0
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("profile" in c for c in comments)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "s,f,w"
    assert len(data) == 12
    first = data[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    row5 = dict(zip(("s", "f", "w"), map(float, data[6].split(","))))
    assert row5["s"] == 1.0
    assert row5["f"] == pytest.approx(0.24240633531804842, rel=1e-9)


def test_bowl_span_respects_ceiling(tmp_path):
    code, _ = run(tmp_path, "bowl", "--span", "500")
    assert code == 2


def test_separatrix_json(tmp_path):
    code, text = run(tmp_path, "separatrix", "--n", "3")
    assert code == 0
    rep = json.loads(text)
    assert rep["value_at_anchor"] == pytest.approx(SEP_VALUE, rel=1e-9)
    assert rep["bracket_width"] <= 1e-10
    assert rep["bracket"][0] <= rep["value_at_anchor"] <= rep["bracket"][1]
    assert rep["anchor"] == 2.0
    assert rep["asymptote_defect"] < 0.05
    assert rep["defect_from_s"] == 50.0


def test_separatrix_small_s_max_defect_default(tmp_path):
    """The default --defect-s is min(50, s_max/2); an explicit one beyond
    the span is still an error."""
    code, text = run(tmp_path, "separatrix", "--n", "3", "--s-max", "8")
    assert code == 0
    rep = json.loads(text)
    assert rep["defect_from_s"] == 4.0
    assert rep["value_at_anchor"] == pytest.approx(SEP_VALUE, rel=1e-9)
    assert rep["bracket_width"] <= 1e-10
    code, _ = run(tmp_path, "separatrix", "--n", "3", "--s-max", "8", "--defect-s", "50")
    assert code == 2


@pytest.mark.parametrize("defect_s", ["-1", "nan"])
def test_separatrix_defect_s_outside_the_span_exits_2(defect_s, capsys):
    """A --defect-s below the span, or NaN, is an error, not a NaN in the
    JSON report."""
    assert main(["separatrix", "--n", "3", f"--defect-s={defect_s}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "span" in captured.err


def test_separatrix_rejects_zero_tol(capsys):
    assert main(["separatrix", "--tol", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tol" in err
    assert "Traceback" not in err


def test_spindle_csv(tmp_path):
    code, text = run(tmp_path, "spindle", "--s0", "1")
    assert code == 0
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("contact_y" in c for c in comments)
    assert any("apex" in c for c in comments)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "y,alpha,alpha_prime"
    y = np.array([float(ln.split(",")[0]) for ln in data[1:]])
    assert y[0] == pytest.approx(-1.3664, abs=1e-3)
    assert y[-1] == pytest.approx(1.2707, abs=1e-3)


def test_wing_requires_s0(tmp_path):
    code, _ = run(tmp_path, "wing")
    assert code == 2


@pytest.mark.parametrize("arg", ["--y-span=-1", "--y-span=0", "--y-span=nan", "--y-span=inf",
                                 "--alpha-floor=0"])
def test_wing_bad_span_or_floor_exits_2(arg, capsys):
    assert main(["wing", "--s0", "2", arg]) == 2
    assert arg[2:].split("=")[0].replace("-", "_") in capsys.readouterr().err


def test_wing_csv_comments(tmp_path):
    code, text = run(tmp_path, "wing", "--s0", "1", "--eps-prime", "1",
                     "--n", "2", "--y-span", "2")
    assert code == 0
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    assert any("arm_stop" in c for c in comments)


def test_hybrid_csv_cone_zeros(tmp_path):
    code, text = run(tmp_path, "hybrid", "--nodes", "21")
    assert code == 0
    data = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert data[0] == "x,y,u"
    rows = {}
    for ln in data[1:]:
        x, y, u = ln.split(",")
        rows[(round(float(x), 9), round(float(y), 9))] = u
    assert len(rows) == 441
    # x and y share a bit pattern on the +diagonal, so t = 0 exactly;
    # mirrored nodes differ in the last ulp and land a hair off the cone
    assert float(rows[(1.2, 1.2)]) == 0.0
    assert abs(float(rows[(-0.8, 0.8)])) < 1e-12
    assert float(rows[(1.2, 0.0)]) > 0.0
    assert float(rows[(0.0, 1.2)]) < 0.0


def test_hybrid_mismatch_changes_field(tmp_path):
    _, a = run(tmp_path, "hybrid", "--nodes", "21")
    _, b = run(tmp_path, "hybrid", "--nodes", "21", "--mismatch")
    assert a != b


def test_hybrid_quadrant_subset(tmp_path):
    code, text = run(tmp_path, "hybrid", "--nodes", "21",
                     "--quadrants", "1,2")
    assert code == 0
    data = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
    by_xy = {tuple(round(float(v), 9) for v in ln.split(",")[:2]):
             ln.split(",")[2] for ln in data}
    assert by_xy[(-1.2, 0.0)] == "nan"
    assert by_xy[(1.2, 0.0)] != "nan"


# --- bad arguments exit 2 ---

@pytest.mark.parametrize("argv", [
    ["hybrid", "--nodes", "0"],
    ["hybrid", "--nodes", "1"],
    ["mesh", "hybrid", "--nodes", "1"],
    ["verify", "hybrid", "--nodes", "0"],
    ["verify", "bowl", "--extent", "inf"],
    ["verify", "bowl", "--extent", "nan"],
    ["verify", "bowl", "--h", "0,0,0"],
    ["mesh", "bowl", "--span", "0"],
    ["mesh", "bowl", "--span", "nan"],
])
def test_bad_grid_arguments_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("order", ["-1", "5", "10"])
def test_verify_hybrid_order_outside_the_stencil_table_exits_2(order, capsys):
    """Jump orders past the stencil table (0..4) are a usage error, not a
    traceback with the exit code of a failed verification."""
    assert main(["verify", "hybrid", "--nodes", "21", f"--order={order}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--order" in err and "Traceback" not in err


@pytest.mark.parametrize("theta_max", ["nan", "inf", "0", "-1", "1000"])
def test_mesh_boost_bad_theta_max_exits_2(theta_max, capsys):
    """A boost sweep needs a positive, finite angle range whose vertices
    stay finite; NaN or infinite vertices, a degenerate or flipped sweep and
    a cosh overflow are usage errors."""
    argv = ["mesh", "bowl", "--action", "boost", f"--theta-max={theta_max}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--theta-max" in captured.err


def _cli_subprocess(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(solitonlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "solitonlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ("classify", "--s0", "1", "--w0=0.5", "--s-max", "inf"),
    ("classify", "--s0", "1", "--w0=0.5", "--rel-tol", "nan"),
    ("hybrid", "--extent", "inf"),
    ("verify", "hybrid", "--extent", "inf"),
])
def test_non_finite_span_exits_2(argv):
    """An infinite span or a NaN tolerance would keep the integrator
    stepping forever; the subprocess timeout keeps a hang from stalling
    the suite."""
    done = _cli_subprocess(*argv)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ")


# --- writers ---

_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
            2.2250738585072014e-308, 1.0, -1.0, 0.1, 1e300,
            float(np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0])]
_POOL = st.one_of(st.sampled_from(_SPECIAL), st.floats(), st.floats(width=32))


@given(pool=st.lists(_POOL, min_size=1, max_size=8),
       picks=st.lists(st.integers(0, 7), max_size=200),
       cols=st.sampled_from([None, 1, 2, 3]))
def test_fmt_array_matches_per_entry_formatting(pool, picks, cols):
    # heavy duplicates: every entry is one of at most 8 pool values
    a = np.array([pool[k % len(pool)] for k in picks], dtype=float)
    if cols is not None:
        a = a[:len(a) // cols * cols].reshape(-1, cols)
    out = _fmt_array(a)
    assert out.shape == a.shape
    assert out.ravel().tolist() == ["%.17g" % v for v in a.ravel().tolist()]


def test_fmt_array_empty_and_single():
    assert _fmt_array(np.empty(0)).tolist() == []
    assert _fmt_array(np.empty((0, 3))).shape == (0, 3)
    assert _fmt_array(np.array([-0.0])).tolist() == ["-0"]
    assert _fmt_array(np.array([1 / 3])).tolist() == ["0.33333333333333331"]


def _stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


# Reference writers: every float goes through its own per-row % expression.
# The CLI, which formats each distinct float once, must match them byte for byte.

def _old_obj_text(meta, verts, faces, extra=()):
    lines = [f"# {m}\n" for m in meta]
    lines += ["v %.17g %.17g %.17g\n" % (x, y, z) for x, y, z in verts.tolist()]
    lines += [f"# {m}\n" for m in extra]
    lines += [f"f {a} {b} {c}\n" for a, b, c in (faces + 1).tolist()]
    return "".join(lines)


_PARAMS_N2 = "params: n=2 eps_prime=-1 eps_tilde=1 fiber_coeff=1"


def test_hybrid_csv_bytes_match_row_formatting(capsys):
    # quadrants 1,2 leave NaN nodes; the +diagonal holds exact cone zeros
    text = _stdout(capsys, "hybrid", "--nodes", "21", "--quadrants", "1,2")
    _, grid = build_hybrid(order=12, mask=(1, 2), extent=2.0, nodes=21,
                           cfg=IntegratorConfig())
    x, y = grid.axes
    lines = ["# field: hybrid\n# quadrants: 1,2\n", "# f2_sign: 1\n", "x,y,u\n"]
    ys = y.tolist()
    for xi, row in zip(x.tolist(), grid.values.tolist()):
        lines += ["%.17g,%.17g,%.17g\n" % (xi, yj, u) for yj, u in zip(ys, row)]
    assert "nan" in text and "\n-2,-2,0\n" in text
    assert text == "".join(lines)


def test_mesh_hybrid_bytes_match_row_formatting(capsys):
    text = _stdout(capsys, "mesh", "hybrid", "--nodes", "21")
    _, grid = build_hybrid(order=12, extent=2.0, nodes=21, cfg=IntegratorConfig())
    x, y = grid.axes
    m = len(x)
    extra = ["cone_main: " + " ".join(str(i * m + i + 1) for i in range(m)),
             "cone_anti: " + " ".join(str(i * m + (m - 1 - i) + 1) for i in range(m))]
    meta = ["command: solitonlab mesh hybrid --nodes 21", "quadrants: 1,2,3,4",
            "f2_sign: 1", "class: hybrid"]
    expect = _old_obj_text(meta, *mesh.height_field(x, y, grid.values), extra)
    assert text == expect


def test_mesh_bowl_bytes_match_row_formatting(capsys):
    text = _stdout(capsys, "mesh", "bowl")
    f_of = center_regular_profile(rotational(2), 2.5, IntegratorConfig())[0]
    s = np.linspace(2.5 / 200, 2.5, 200)
    f = np.asarray(f_of(s), dtype=float)
    meta = ["command: solitonlab mesh bowl", _PARAMS_N2, "class: bowl"]
    assert text == _old_obj_text(meta, *mesh.revolve(s, f, 64))


def test_mesh_spindle_bytes_match_row_formatting(capsys):
    text = _stdout(capsys, "mesh", "spindle")
    curve = build_spindle(rotational(2), 1.0, IntegratorConfig())
    y = np.linspace(curve.y[0], curve.y[-1], 200)
    alpha = np.interp(y, curve.y, curve.alpha)
    surface = mesh.cap_ends(mesh.revolve(alpha, y, 64), 64, curve.contact_y)
    meta = ["command: solitonlab mesh spindle", _PARAMS_N2, "class: spindle",
            "closed: both axis contacts capped"]
    assert text == _old_obj_text(meta, *surface)


def test_bowl_csv_bytes_match_row_formatting(capsys):
    text = _stdout(capsys, "bowl", "--samples", "50")
    f_of, w_of = center_regular_profile(rotational(3), 5.0, IntegratorConfig())
    s = np.linspace(0.0, 5.0, 50)
    f = np.asarray(f_of(s), dtype=float)
    w = np.asarray(w_of(s), dtype=float)
    lines = ["# profile: bowl\n# params: n=3 eps_prime=-1 eps_tilde=1 fiber_coeff=2\n",
             "s,f,w\n"]
    lines += ["%.17g,%.17g,%.17g\n" % row
              for row in zip(s.tolist(), f.tolist(), w.tolist())]
    assert text == "".join(lines)


# --- meshes ---

def _obj_counts(text):
    v = sum(1 for ln in text.splitlines() if ln.startswith("v "))
    f = sum(1 for ln in text.splitlines() if ln.startswith("f "))
    return v, f


def test_mesh_bowl_counts(tmp_path):
    code, text = run(tmp_path, "mesh", "bowl", "--theta-samples", "16",
                     "--profile-samples", "20")
    assert code == 0
    v, f = _obj_counts(text)
    assert v == 16 * 20
    assert f == 2 * 16 * 19
    assert "# command: solitonlab mesh bowl" in text


def test_mesh_faces_index_valid_vertices(tmp_path):
    _, text = run(tmp_path, "mesh", "bowl", "--theta-samples", "8",
                  "--profile-samples", "9")
    v, _ = _obj_counts(text)
    for ln in text.splitlines():
        if ln.startswith("f "):
            idx = [int(tok) for tok in ln.split()[1:]]
            assert all(1 <= k <= v for k in idx)


def test_mesh_spindle_caps(tmp_path):
    code, text = run(tmp_path, "mesh", "spindle", "--theta-samples", "64",
                     "--profile-samples", "10", "--s0", "1")
    assert code == 0
    v, f = _obj_counts(text)
    assert v == 64 * 10 + 2
    assert f == 2 * 64 * 9 + 2 * 64
    assert "closed" in text


def test_mesh_spindle_builds_the_parsed_parameters(capsys):
    """--eps-prime 1 is the Euclidean pattern, whose apex is a minimum:
    there is no spindle, and the header must not claim one."""
    assert main(["mesh", "spindle", "--eps-prime", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no spindle" in captured.err


def test_spindle_without_contact_names_the_arm_stops(capsys):
    """At s0 = 50 the rising arm reaches the axis but the falling one runs
    to y = -s_max: the error names both stops and the span searched."""
    assert main(["spindle", "--s0", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "span and contact" in captured.err and "|y| <= 100" in captured.err
    assert "y_span" not in captured.err


def test_short_wing_has_no_nan_rows(capsys):
    assert "nan" not in _stdout(capsys, "wing", "--s0", "1", "--y-span", "1e-5")


@pytest.mark.parametrize("target", ["spindle", "wing"])
def test_revolved_meshes_reject_boost(capsys, target):
    assert main(["mesh", target, "--action", "boost", "--region", "timelike_T"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--action boost" in captured.err


def test_mesh_boost_counts(tmp_path):
    code, text = run(tmp_path, "mesh", "bowl", "--action", "boost",
                     "--region", "timelike_T", "--theta-samples", "12",
                     "--profile-samples", "9")
    assert code == 0
    v, f = _obj_counts(text)
    assert v == 12 * 9
    assert f == 2 * 11 * 8


def test_mesh_high_dimension_falls_back_to_csv(tmp_path):
    code, text = run(tmp_path, "mesh", "bowl", "--n", "3")
    assert code == 0
    assert not text.lstrip().startswith("v ")
    assert "no 3-coordinate embedding" in text
    assert "s,f" in text


def test_mesh_hybrid_cone_metadata(tmp_path):
    code, text = run(tmp_path, "mesh", "hybrid", "--nodes", "21")
    assert code == 0
    v, f = _obj_counts(text)
    assert v == 441
    assert f == 800
    assert "cone_main" in text and "cone_anti" in text


# --- verify ---

def test_verify_bowl_passes(tmp_path):
    code, text = run(tmp_path, "verify", "bowl")
    assert code == 0
    rep = json.loads(text)
    assert rep["pass"] is True
    assert 1.7 <= rep["p_coarse"] <= 2.3
    assert 1.7 <= rep["p_fine"] <= 2.3
    assert rep["eps"] == -1


def test_verify_bowl_n3_second_order_on_finer_grid(tmp_path):
    """At n = 3 the extent-2 run at h = 0.16..0.04 is pre-asymptotic
    (p_fine about 1.71); at h = 0.08..0.02 on extent 1 both orders are 2."""
    code, text = run(tmp_path, "verify", "bowl", "--n", "3",
                     "--h", "0.08,0.04,0.02", "--extent", "1")
    assert code == 0
    rep = json.loads(text)
    assert 1.9 <= rep["p_coarse"] <= 2.1
    assert 1.9 <= rep["p_fine"] <= 2.1


@pytest.mark.parametrize("argv", [
    ["verify", "bowl", "--n", "2", "--h", "0.0016,0.0008,0.0004"],    # 10001^2 nodes
    ["verify", "hybrid", "--nodes", "1200"]])                          # 4797^2 nodes
def test_verify_grid_over_the_node_cap_exits_2(argv, monkeypatch, capsys):
    """Every verify grid is held to 5,000,000 nodes, in any dimension: a
    finer one is refused before its field is sampled or built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a grid over the cap was built")

    monkeypatch.setattr(cli, "sample_radial_field", refuse)
    monkeypatch.setattr(cli, "build_hybrid", refuse)
    assert main(argv) == 2
    assert "grid too large" in capsys.readouterr().err


def test_verify_hybrid_passes(tmp_path):
    code, text = run(tmp_path, "verify", "hybrid")
    assert code == 0
    rep = json.loads(text)
    assert rep["pass"] is True
    assert rep["jump_pass"] is True
    assert rep["jump_table"][0]["coarse"] == 0.0


def test_verify_hybrid_mismatch_fails(tmp_path):
    code, text = run(tmp_path, "verify", "hybrid", "--mismatch")
    assert code == 1
    rep = json.loads(text)
    assert rep["pass"] is False


def test_verify_const_control_fails(tmp_path):
    code, text = run(tmp_path, "verify", "const")
    assert code == 1
    rep = json.loads(text)
    assert rep["residual_max"] == pytest.approx(1.0)
    assert rep["pass"] is False


# --- config file and plumbing ---

NO_SCIPY_RUN = """
import contextlib, io, sys
import solitonlab.cli
for argv in (["classify", "--s0", "1", "--w0=-0.5"], ["separatrix", "--n", "3"],
             ["portrait", "--s0-grid", "0.5:4:3", "--w0-grid=-0.9:0.9:3"],
             ["verify", "bowl", "--n", "2"], ["hybrid", "--nodes", "51"],
             ["wing", "--s0", "1"], ["spindle", "--s0", "1"], ["mesh", "spindle"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert solitonlab.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

# every subcommand and mesh/verify target, with scipy made unimportable
SCIPY_BLOCKED_RUN = """
import contextlib, io, sys
sys.modules["scipy"] = None
import solitonlab.cli
for code, argv in ((0, ["classify", "--s0", "1", "--w0=-0.5"]),
                   (0, ["portrait", "--s0-grid", "0.5:4:3", "--w0-grid=-0.9:0.9:3"]),
                   (0, ["bowl", "--n", "2", "--samples", "20"]),
                   (0, ["separatrix", "--n", "2"]),
                   (0, ["wing", "--s0", "1", "--eps-prime", "1", "--n", "2", "--y-span", "2"]),
                   (0, ["spindle", "--s0", "1"]),
                   (0, ["hybrid", "--nodes", "21"]),
                   (0, ["mesh", "bowl", "--theta-samples", "8", "--profile-samples", "9"]),
                   (0, ["mesh", "spindle", "--theta-samples", "8", "--profile-samples", "9"]),
                   (0, ["mesh", "wing", "--theta-samples", "8", "--profile-samples", "9"]),
                   (0, ["mesh", "hybrid", "--nodes", "21"]),
                   (0, ["verify", "bowl", "--n", "2"]),
                   (0, ["verify", "hybrid"]),
                   (1, ["verify", "const"])):
    with contextlib.redirect_stdout(io.StringIO()):
        assert solitonlab.cli.main(argv) == code, argv
print("ok")
"""


def test_cli_runs_without_importing_scipy():
    """No subcommand needs scipy, the wing builders included."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(solitonlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_subcommand_runs_with_scipy_unimportable():
    src = os.path.dirname(os.path.dirname(os.path.abspath(solitonlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED_RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_package_source_imports_no_scipy():
    src = os.path.dirname(os.path.abspath(solitonlab.__file__))
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines = [ln.strip() for ln in fh]
            assert not [ln for ln in lines
                        if ln.startswith(("import scipy", "from scipy"))], name


def test_config_file_supplies_flags(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"s0": 1.0, "w0": -2.0}))
    code, text = run(tmp_path, "classify", "--config", str(cfgf))
    assert code == 0
    assert text.splitlines()[0] == "class: gamma_minus_blowup"


def test_flags_override_config(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"s0": 1.0, "w0": -2.0}))
    code, text = run(tmp_path, "classify", "--config", str(cfgf),
                     "--w0=-0.5")
    assert code == 0
    assert text.splitlines()[0] == "class: below_bowl"


def test_unknown_config_key_rejected(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"s0": 1.0, "w0": -2.0, "bogus_key": 1}))
    code, _ = run(tmp_path, "classify", "--config", str(cfgf))
    assert code == 2


def test_no_subcommand_exits_2():
    assert main([]) == 2


def test_unknown_subcommand_exits_2():
    assert main(["polish"]) == 2


def test_output_deterministic(tmp_path):
    _, a = run(tmp_path, "bowl", "--n", "2", "--samples", "51")
    _, b = run(tmp_path, "bowl", "--n", "2", "--samples", "51")
    assert a == b


def test_stdout_when_no_out_flag(capsys):
    code = main(["classify", "--s0", "1", "--w0", "1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "class: constant_plus"
