import json

import numpy as np
import pytest

from solitonlab import classify_as_posed, rotational
from solitonlab.cli import main

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
