import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import facelat
from facelat import bodyio, checks
from facelat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lattice_listing(capsys):
    code, out, _ = run(capsys, "lattice", "square", "--kind", "faces")
    assert code == 0
    assert "10 elements" in out


def test_lattice_dot_output(tmp_path, capsys):
    dot = tmp_path / "cube.dot"
    code, out, _ = run(capsys, "lattice", "cube", "--kind", "normal",
                       "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.count("label=") == 28
    assert "rank=same" in text


def test_lattice_planar_touching_summary(capsys):
    code, out, _ = run(capsys, "lattice", "quarter_disk", "--kind", "touching")
    assert code == 0
    assert "3 sectors" in out
    assert "2 edge/vertex rays" in out
    assert "one-parameter family" in out
    assert "2 touching-but-not-normal rays" in out


def test_lattice_planar_cone_summary_refuses_dot_before_output(tmp_path, capsys):
    for kind in ("normal", "touching"):
        dot = tmp_path / f"{kind}.dot"
        code, out, err = run(capsys, "lattice", "quarter_disk", "--kind", kind,
                             "--dot", str(dot))
        assert code == 2 and out == "" and "DOT output" in err
        assert not dot.exists()


def test_lattice_planar_faces_note(capsys):
    code, out, _ = run(capsys, "lattice", "stadium", "--kind", "faces")
    assert code == 0
    assert "special-face summary" in out


def test_polar_roundtrip_via_files(tmp_path, capsys):
    out_file = tmp_path / "polar.json"
    code, _, _ = run(capsys, "polar", "square", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["type"] == "polytope"
    verts = {tuple(v) for v in doc["vertices"]}
    assert verts == {("1", "0"), ("0", "1"), ("-1", "0"), ("0", "-1")}
    code2, out2, _ = run(capsys, "polar", str(out_file))
    assert code2 == 0 and '"type": "polytope"' in out2


def test_polar_planar_fixture(tmp_path, capsys):
    out_file = tmp_path / "mouse.json"
    code, _, _ = run(capsys, "polar", "truncated_disk_closed", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["type"] == "planar"
    assert any(f["kind"] == "arc" and f["radius_sq"] == "4/5" for f in doc["features"])


def test_check_suite_json_and_exit_code(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "square", "--suite", "antitone",
                       "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["suite"] == "antitone" and doc["fixture"] == "square"
    assert doc["passed"] is True
    assert all(v["status"] in ("pass", "fail", "skip") for v in doc["verdicts"])
    ids = [v["id"] for v in doc["verdicts"]]
    assert ids == sorted(ids)


def test_check_skips_are_exit_neutral(capsys):
    code, out, _ = run(capsys, "check", "lens", "--suite", "2d")
    assert code == 0
    doc = json.loads(out)
    statuses = {v["id"]: v["status"] for v in doc["verdicts"]}
    assert statuses["2d.smoothness"] == "skip"


def test_run_suite_rejects_unknown_suite_names():
    cube = bodyio.load_fixture("cube")
    with pytest.raises(ValueError, match="unknown suite 'partiton'") as exc:
        checks.run_suite(cube, "cube", "partiton")
    assert all(repr(s) in str(exc.value) for s in ("all", *checks.SUITE_NAMES))
    # a known suite that does not fit the body's kind is still a skip
    for body, suite in ((cube, "2d"), (bodyio.load_fixture("lens"), "meets"),
                        (bodyio.load_fixture("lens"), "lift")):
        rep = checks.run_suite(body, "b", suite)
        assert [(v.check_id, v.status) for v in rep.verdicts] == [
            (f"{suite}.applicable", "skip")]
        assert rep.passed


def test_check_open_triangle_apex_coatoms_reported(capsys):
    code, out, _ = run(capsys, "check", "triangle_open_side_apex", "--suite", "coatoms")
    assert code == 0
    doc = json.loads(out)
    tops = [v for v in doc["verdicts"] if "vertex(0,2)" in v["id"]]
    assert tops and tops[0]["status"] == "skip"
    assert "is not an intersection of coatoms" in tops[0]["detail"]


def test_check_unknown_fixture_exits_2(capsys):
    code, _, err = run(capsys, "check", "definitely_missing")
    assert code == 2 and "unknown fixture" in err


def test_check_float_file_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"type": "polytope", "ambient_dim": 1, "vertices": [[0.25], [1]]}')
    code, _, err = run(capsys, "check", str(f))
    assert code == 2 and "floating-point" in err


def test_statespace_bloch(capsys):
    code, out, _ = run(capsys, "statespace", "bloch", "--samples", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "numeric"
    assert all(v["status"] == "pass" for v in doc["verdicts"])
    assert "0 violations" in doc["verdicts"][0]["detail"]


def test_statespace_cone(capsys):
    code, out, _ = run(capsys, "statespace", "cone", "--phi", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["conic_type"] == "hyperbolic"
    assert doc["projection_nonexposed_points"] == 2
    code, out, _ = run(capsys, "statespace", "cone", "--phi", "39")
    assert json.loads(out)["conic_type"] == "elliptic"


def test_statespace_cone_default_tolerance(capsys):
    from facelat.statespace import TOL_FLAT
    _, default, _ = run(capsys, "statespace", "cone", "--phi", "12")
    _, explicit, _ = run(capsys, "statespace", "cone", "--phi", "12",
                         "--tol-flat", repr(TOL_FLAT))
    assert default == explicit


def test_cli_import_leaves_numpy_out():
    # only `statespace` needs numpy; the exact commands must not pay its import
    src = str(Path(facelat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = subprocess.run(
        [sys.executable, "-c", "import facelat.cli, sys; sys.exit('numpy' in sys.modules)"],
        env=env).returncode
    assert code == 0


def test_statespace_bad_angle(capsys):
    code, _, err = run(capsys, "statespace", "cone", "--phi", "95")
    assert code == 2 and "BadAngle" in err


def test_internal_error_exits_3(monkeypatch, capsys):
    from facelat import checks
    from facelat.errors import InvariantViolation

    def broken(*args):
        raise InvariantViolation("deliberately broken invariant")
    monkeypatch.setattr(checks, "run_suite", broken)
    code, _, err = run(capsys, "check", "square")
    assert code == 3 and "internal error" in err and "InvariantViolation" in err


def test_exit_code_contract():
    from facelat.checks import CheckReport, Verdict
    rep = CheckReport("s", "f", [Verdict("a", "pass", ""), Verdict("b", "skip", "")])
    assert rep.exit_code == 0
    rep.verdicts.append(Verdict("c", "fail", ""))
    assert rep.exit_code == 1


def test_reports_are_deterministic(capsys):
    _, out1, _ = run(capsys, "check", "quarter_disk", "--suite", "touching")
    _, out2, _ = run(capsys, "check", "quarter_disk", "--suite", "touching")
    assert out1 == out2
