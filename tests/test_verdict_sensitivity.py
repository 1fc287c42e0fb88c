"""Verdicts that a planted defect must turn to fail.

A verdict that cannot fail shows nothing.  Each test here plants one defect
in the library and runs the suite that states the claim through
`checks.run_suite`: the verdict must read fail, the run must raise nothing,
and the other verdicts the defect flips are listed, so a defect that starts
to flip more, or fewer, shows up here.
"""

import ast
from pathlib import Path

import pytest

from facelat import bodyio, checks
from facelat import exactgeom as eg
from facelat import planar as pl
from facelat import polytope as pt


def failing(body, name, suite):
    report = checks.run_suite(body, name, suite)
    return {v.check_id for v in report.verdicts if v.status == "fail"}


def test_a_dropped_face_fails_the_polar_isomorphisms(monkeypatch):
    """With the square's edge (0, 1) dropped from every lattice of faces,
    the conjugate of an edge of the polar, and the positive hull of a vertex
    of the polar, fall outside the lattices they map to: both isomorphism
    verdicts fail, naming what left the target, and the run raises
    nothing."""
    square = bodyio.load_fixture("square")
    real = pt._vertex_set_lattice
    monkeypatch.setattr(pt, "_vertex_set_lattice", lambda faces: real(
        [f for f in faces if f.vertex_indices != (0, 1)]))
    report = checks.run_suite(square, "square", "polar")
    status = {v.check_id: v.status for v in report.verdicts}
    assert status == {"polar.involution": "pass", "polar.pos_isomorphisms": "fail",
                      "polar.conjugate_face_iso": "fail", "polar.biconjugate": "pass"}
    detail = {v.check_id: v.detail for v in report.verdicts}
    assert ("exposed faces of the polar vs normal cones: {1} maps outside the "
            "target lattice") in detail["polar.pos_isomorphisms"]
    assert detail["polar.conjugate_face_iso"].endswith(
        "; {0} maps outside the target lattice")


@pytest.mark.parametrize("name", ["square", "cube", "triangle", "segment"])
def test_a_wrong_witness_fails_exposed_intersection_witness(monkeypatch, name):
    """`exposed_meet` returns its witness unchecked; a negated witness
    exposes the opposite face, and only the verdict that checks it fails."""
    body = bodyio.load_fixture(name)
    assert not failing(body, name, "meets")
    real = pt.exposed_meet

    def negated(p, directions):
        face, witness = real(p, directions)
        return face, None if witness is None else tuple(-c for c in witness)

    monkeypatch.setattr(pt, "exposed_meet", negated)
    assert failing(body, name, "meets") == {"meets.exposed_intersection_witness"}


@pytest.mark.parametrize("name", ["square", "cube", "triangle", "segment"])
def test_swapped_lifts_fail_exposed_face_transform(monkeypatch, name):
    """Lifting each endpoint of a segment projection to the face over the
    other endpoint is an automorphism of the lifted lattices, so the lattice
    verdicts pass; the lift of the face a direction exposes is then the
    body's face of the opposite direction, and over every suite only
    `lift.exposed_face_transform` fails."""
    body = bodyio.load_fixture(name)
    real = pt.Projection.lift_face

    def swapped(self, f):
        q = self.polytope
        if q.dim == 1 and len(f.vertex_indices) == 1:
            f = q.make_face({1 - f.vertex_indices[0]})
        return real(self, f)

    monkeypatch.setattr(pt.Projection, "lift_face", swapped)
    assert failing(body, name, "all") == {"lift.exposed_face_transform"}


def test_a_lift_that_is_not_a_face_fails_lattice_isomorphisms(monkeypatch):
    """Lifting each endpoint of the square's projection onto the first axis
    to the diagonal through the first vertex of its edge gives vertex sets
    that are not faces, though the lifted family {}, {0 2}, {1 3}, all is
    still a lattice.  The lift names each as a failure, in the face and in
    the exposed-face lattice, and `lift.lattice_isomorphisms` fails with
    those failures in its detail; nothing raises."""
    square = bodyio.load_fixture("square")
    real = pt.Projection.lift_face

    def diagonal(self, f):
        lifted = real(self, f)
        if self.basis == ((1, 0),) and len(f.vertex_indices) == 1:
            a = lifted.vertex_indices[0]
            return self.body.make_face({a, (a + 2) % 4})
        return lifted

    monkeypatch.setattr(pt.Projection, "lift_face", diagonal)
    _, _, rep = pt.lifted_face_lattices(square, [(1, 0)])
    for lattice in ("faces", "exposed faces"):
        assert f"{lattice}: the lift {{0 2}} of {{0}} is not a face" in rep.failures
        assert f"{lattice}: the lift {{1 3}} of {{1}} is not a face" in rep.failures
    report = checks.run_suite(square, "square", "lift")
    assert {v.check_id for v in report.verdicts if v.status == "fail"} == {
        "lift.lattice_isomorphisms", "lift.exposed_face_transform"}
    detail = next(v.detail for v in report.verdicts
                  if v.check_id == "lift.lattice_isomorphisms")
    assert "span(e1): faces: the lift {0 2} of {0} is not a face" in detail


@pytest.mark.parametrize("name", ["cube", "square", "triangle", "simplex4"])
def test_a_missing_coatom_fails_exposed_faces(monkeypatch, name):
    """`coatom_decomposition` with its last coatom dropped: the coatoms
    left meet in more than the face, and over every suite only
    `coatoms.exposed_faces` fails, naming the faces."""
    body = bodyio.load_fixture(name)
    real = pt.coatom_decomposition
    monkeypatch.setattr(pt, "coatom_decomposition", lambda p, f: real(p, f)[:-1])
    report = checks.run_suite(body, name, "all")
    assert {v.check_id for v in report.verdicts if v.status == "fail"} == {
        "coatoms.exposed_faces"}
    detail = next(v.detail for v in report.verdicts
                  if v.check_id == "coatoms.exposed_faces")
    assert "; the coatoms given for {0} meet in more" in detail


def test_a_cone_without_its_faces_fails_closed_under_faces(monkeypatch):
    """A touching-cone enumeration that admits a cone without its faces:
    the cube's touching lattice gains pos{(1,0,0), (0,1,2)}, which is still
    a lattice, but its ray (0,1,2) is no touching cone.  Closure under faces
    fails and names that ray; the lattice no longer equals the normal-cone
    lattice, and the polar's faces no longer cover it; no sampled direction
    lies in the new cone, so the partition verdicts pass."""
    cube = bodyio.load_fixture("cube")
    real = pt._build_touching_lattice

    def planted(p):
        lattice = real(p)
        if p is not cube:
            return lattice
        extra = eg.pos_hull([(1, 0, 0), (0, 1, 2)], 3, p.cone_table)
        return pt._cone_lattice({e.cone for e in lattice.elements} | {extra})

    monkeypatch.setattr(pt, "_build_touching_lattice", planted)
    report = checks.run_suite(cube, "cube", "all")
    assert {v.check_id for v in report.verdicts if v.status == "fail"} == {
        "touching.closed_under_faces", "touching.lattice_equals_normal",
        "polar.pos_isomorphisms"}
    detail = next(v.detail for v in report.verdicts
                  if v.check_id == "touching.closed_under_faces")
    assert detail.endswith("; pos{(0,1,2)}, a face of pos{(0,1,2), (1,0,0)}")


@pytest.mark.parametrize("name", ["cube", "square", "triangle", "segment"])
def test_a_refused_hypothesis_fails_both_decompositions(monkeypatch, name):
    """With `_touching_inside_all_normal` refusing every normal cone, the
    atom and the coatom decompositions raise HypothesisFailed on a closed
    polytope, where the hypothesis holds: `coatoms.normal_atoms` and
    `coatoms.exposed_faces` fail, and no other verdict does."""
    body = bodyio.load_fixture(name)
    monkeypatch.setattr(pt, "_touching_inside_all_normal", lambda p, n: False)
    assert failing(body, name, "all") == {"coatoms.normal_atoms", "coatoms.exposed_faces"}


@pytest.mark.parametrize("name", ["cube", "square", "simplex4"])
def test_a_wrong_smallest_exposed_superface_fails_biconjugate(monkeypatch, name):
    """`sup_exposed` answering the whole body for every face: the
    biconjugate of a proper face is no longer its smallest exposed
    superface, and over every suite only `polar.biconjugate` fails."""
    body = bodyio.load_fixture(name)
    monkeypatch.setattr(pt, "sup_exposed", lambda p, f: p.make_face(
        frozenset(range(len(p.vertices)))))
    assert failing(body, name, "all") == {"polar.biconjugate"}


@pytest.mark.parametrize("name", ["cube", "square", "triangle", "simplex4"])
def test_a_cylinder_without_its_perp_fails_cylinder_normal_cones(monkeypatch, name):
    """`Projection.cylinder_normal_check` with (N cap V) + V_perp taken as
    N cap V alone: the projection's normal cone at a vertex holds V_perp, so
    over every suite only `lift.cylinder_normal_cones` fails."""
    body = bodyio.load_fixture(name)
    monkeypatch.setattr(pt, "minkowski_sum_cone", lambda a, b: a)
    assert failing(body, name, "all") == {"lift.cylinder_normal_cones"}


@pytest.mark.parametrize("name", ["square", "cube", "triangle", "simplex4"])
def test_swapped_vertex_normal_cones_fail_the_antitone_iso(monkeypatch, name):
    """`normal_cone` answering for vertex 0 the cone of vertex 1, and back:
    the normal-cone lattice keeps its cones, but the map from the exposed
    faces no longer reverses their order, the cone given for vertex 0 is
    not the normal cone at that point, and its relative-interior direction
    exposes vertex 1, so vertex 0 is no longer sharp exposed.  Over every
    suite these four verdicts fail, and no other."""
    body = bodyio.load_fixture(name)
    real = pt.normal_cone

    def swapped(p, f):
        if p is body and f.vertex_indices in ((0,), (1,)):
            f = p.make_face({1 - f.vertex_indices[0]})
        return real(p, f)

    monkeypatch.setattr(pt, "normal_cone", swapped)
    assert failing(body, name, "all") == {
        "antitone.iso", "antitone.cone_constant_on_ri", "antitone.face_from_ri_normal",
        "sharp.exposed_points"}


@pytest.mark.parametrize("name", ["square", "cube", "triangle", "simplex4"])
def test_a_boundary_ri_vector_fails_face_from_ri_normal(monkeypatch, name):
    """`PolyCone.ri_vector` answering the first ray plus the lineality
    basis, a vector on the boundary of a cone with two rays or more: it
    exposes a larger face than the one whose normal cone it was taken from.
    `antitone.face_from_ri_normal` fails, and so does `sharp.exposed_points`,
    which exposes a face by the same vector; over every suite no other
    verdict fails."""
    body = bodyio.load_fixture(name)
    monkeypatch.setattr(eg.PolyCone, "ri_vector", lambda c: tuple(
        map(sum, zip(*c.rays[:1], *c.lineality))) or None)
    assert failing(body, name, "all") == {
        "antitone.face_from_ri_normal", "sharp.exposed_points"}


# the verdicts a whole cone as the face holding a direction flips, per body
WHOLE_CONE_FLIPS = {
    "quarter_disk": {"sharp.normal_iff_touching_is_normal", "partition.unique_touching_cone",
                     "2d.nonexposed_rule", "2d.smoothness",
                     *("coatoms.face[{face}]".format(face=v) for v in ("vertex(0,1)",
                                                                       "vertex(1,0)"))},
    "lens": {"sharp.normal_iff_touching_is_normal", "partition.unique_touching_cone",
             "2d.smoothness"},
}
# the arc vertices `2d.smoothness` then names, by their labels, per body
WHOLE_CONE_SINGULAR = {"quarter_disk": ("vertex(1,0)", "vertex(0,1)"),
                       "lens": ("vertex(0,-4/5)", "vertex(0,4/5)")}


@pytest.mark.parametrize("name", sorted(WHOLE_CONE_FLIPS))
def test_a_whole_cone_as_the_face_holding_a_direction_fails_sharp(monkeypatch, name):
    """`Cone2.face_with_in_ri` answering the whole cone: a direction on a
    boundary ray of a vertex's sector gets the sector, a normal cone, as its
    touching cone, though it is not in the sector's relative interior, so
    `sharp.normal_iff_touching_is_normal` fails.  The inventory loses its
    touching rays that are not normal: the partition check finds those
    directions in no cone, and the 2D rules and the coatom theorem, whose
    hypothesis now seems to hold, fail on the bodies' arc vertices, which
    the smoothness detail names by their labels."""
    body = bodyio.load_fixture(name)
    assert not failing(body, name, "all")
    monkeypatch.setattr(pl.Cone2, "face_with_in_ri", lambda self, u: self)
    report = checks.run_suite(bodyio.load_fixture(name), name, "all")
    assert {v.check_id for v in report.verdicts if v.status == "fail"} \
        == WHOLE_CONE_FLIPS[name]
    detail = next(v.detail for v in report.verdicts if v.check_id == "2d.smoothness")
    assert detail.split("; ")[1:] == [f"singular point {v} does not join two segments"
                                      for v in WHOLE_CONE_SINGULAR[name]]


# ---------------------------------------------------------------------------
# the planted-defect matrix over the table of verdicts
# ---------------------------------------------------------------------------

# each verdict that a planted defect turns to fail: the test that plants it
PLANTED = {
    ("polytope", "antitone.cone_constant_on_ri"):
        "test_verdict_sensitivity.py::test_swapped_vertex_normal_cones_fail_the_antitone_iso",
    ("polytope", "antitone.face_from_ri_normal"):
        "test_verdict_sensitivity.py::test_a_boundary_ri_vector_fails_face_from_ri_normal",
    ("polytope", "antitone.iso"):
        "test_verdict_sensitivity.py::test_swapped_vertex_normal_cones_fail_the_antitone_iso",
    ("polytope", "coatoms.exposed_faces"):
        "test_verdict_sensitivity.py::test_a_missing_coatom_fails_exposed_faces",
    ("polytope", "coatoms.normal_atoms"):
        "test_verdict_sensitivity.py::test_a_refused_hypothesis_fails_both_decompositions",
    ("polytope", "lift.cylinder_normal_cones"):
        "test_verdict_sensitivity.py::test_a_cylinder_without_its_perp_fails_cylinder_normal_cones",
    ("polytope", "lift.exposed_face_transform"):
        "test_verdict_sensitivity.py::test_swapped_lifts_fail_exposed_face_transform",
    ("polytope", "lift.lattice_isomorphisms"):
        "test_verdict_sensitivity.py::test_a_lift_that_is_not_a_face_fails_lattice_isomorphisms",
    ("polytope", "meets.exposed_intersection_witness"):
        "test_verdict_sensitivity.py::test_a_wrong_witness_fails_exposed_intersection_witness",
    ("polytope", "meets.normal_infimum_is_intersection"):
        "test_cross_validation.py::test_meets_fails_on_planted_defects",
    ("polytope", "partition.unique_touching_cone"):
        "test_polytope.py::test_planted_touching_cone_defects_fail_both_partition_verdicts",
    ("polytope", "polar.biconjugate"):
        "test_verdict_sensitivity.py::test_a_wrong_smallest_exposed_superface_fails_biconjugate",
    ("polytope", "polar.conjugate_face_iso"):
        "test_verdict_sensitivity.py::test_a_dropped_face_fails_the_polar_isomorphisms",
    ("polytope", "polar.pos_isomorphisms"):
        "test_verdict_sensitivity.py::test_a_dropped_face_fails_the_polar_isomorphisms",
    ("polytope", "sharp.exposed_points"):
        "test_verdict_sensitivity.py::test_a_boundary_ri_vector_fails_face_from_ri_normal",
    ("polytope", "touching.closed_under_faces"):
        "test_verdict_sensitivity.py::test_a_cone_without_its_faces_fails_closed_under_faces",
    ("polytope", "touching.lattice_equals_normal"):
        "test_verdict_sensitivity.py::test_a_cone_without_its_faces_fails_closed_under_faces",
    ("polytope", "touching.partition_of_directions"):
        "test_polytope.py::test_planted_touching_cone_defects_fail_both_partition_verdicts",
    ("planar", "2d.nonexposed_rule"):
        "test_verdict_sensitivity.py::test_a_whole_cone_as_the_face_holding_a_direction_fails_sharp",
    ("planar", "2d.smoothness"):
        "test_verdict_sensitivity.py::test_a_whole_cone_as_the_face_holding_a_direction_fails_sharp",
    ("planar", "antitone.pointwise_duality"):
        "test_planar_fast_paths.py::test_a_wrong_support_form_fails_pointwise_duality",
    ("planar", "coatoms.face[{face}]"):
        "test_verdict_sensitivity.py::test_a_whole_cone_as_the_face_holding_a_direction_fails_sharp",
    ("planar", "partition.unique_touching_cone"):
        "test_verdict_sensitivity.py::test_a_whole_cone_as_the_face_holding_a_direction_fails_sharp",
    ("planar", "polar.support_equals_gauge"):
        "test_planar_fast_paths.py::test_a_wrong_gauge_form_fails_support_equals_gauge",
    ("planar", "sharp.normal_iff_touching_is_normal"):
        "test_verdict_sensitivity.py::test_a_whole_cone_as_the_face_holding_a_direction_fails_sharp",
}

_NONE_YET = "no defect planted yet"

# each verdict no planted defect turns to fail yet, with the reason; an entry
# leaves this list when a test in PLANTED flips it
NOT_YET_PLANTED = {
    ("polytope", "antitone.all_faces_exposed"):
        "a defect both face routes share leaves them equal; none planted in one alone",
    ("polytope", "antitone.pointwise_duality"): _NONE_YET,
    ("polytope", "antitone.vector_space_criterion"): _NONE_YET,
    ("polytope", "coatoms.minkowski_atoms"): _NONE_YET,
    ("polytope", "lift.sharp_normal_projection"):
        "`is_sharp_normal` always true flips nothing on the fixtures",
    ("polytope", "lift.touching_equals_normal_downstream"): _NONE_YET,
    ("polytope", "meets.intersection_is_face"):
        "the planted meet-lattice defects flip only the infimum verdict",
    ("polytope", "polar.involution"): _NONE_YET,
    ("polytope", "sharp.normal_directions"):
        "`is_sharp_normal` always true flips nothing on the fixtures",
    ("planar", "2d.non_exposed_inventory"):
        "always passes; becomes a count in a benchmark PR",
    ("planar", "antitone.special_iso"): _NONE_YET,
    ("planar", "polar.involution"): _NONE_YET,
    ("planar", "polar.pos_of_special_faces"): _NONE_YET,
    ("planar", "touching.constant_on_ri"): _NONE_YET,
    ("planar", "touching.extra_are_boundary_rays"): _NONE_YET,
}


def names_verdict(where: str, check_id: str) -> bool:
    """Whether the test `file::name` spells check_id, in its own body or in
    a module-level constant it reads."""
    path, name = where.split("::")
    source = (Path(__file__).parent / path).read_text()
    tree = ast.parse(source)
    test = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    read = {n.id for n in ast.walk(test) if isinstance(n, ast.Name)}
    texts = [ast.get_source_segment(source, test)] + [
        ast.get_source_segment(source, n) for n in tree.body if isinstance(n, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in read for t in n.targets)]
    return any(f'"{check_id}"' in text for text in texts)


def test_every_verdict_is_planted_or_allowlisted():
    """Every verdict of the table that can fail (all but the skip-only
    `*.applicable` entries) is flipped by a named planted-defect test, or
    waits in NOT_YET_PLANTED with its reason.  A named test must exist and
    spell the verdict's id.  The allowlist only shrinks: its ceiling is
    lowered as entries leave, and never raised."""
    claims = {key for key, c in checks.VERDICTS.items() if c.claim is not None}
    assert set(PLANTED).isdisjoint(NOT_YET_PLANTED)
    assert set(PLANTED) | set(NOT_YET_PLANTED) == claims
    assert all(NOT_YET_PLANTED.values())
    for (_, check_id), where in PLANTED.items():
        assert names_verdict(where, check_id), where
    assert len(NOT_YET_PLANTED) <= 15
