"""Verdicts that a planted defect must turn to fail.

A verdict that cannot fail shows nothing.  Each test here plants one defect
in the library and runs the suite that states the claim through
`checks.run_suite`: the verdict must read fail, the run must raise nothing,
and the other verdicts the defect flips are listed, so a defect that starts
to flip more, or fewer, shows up here.
"""

import pytest

from facelat import bodyio, checks
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
