import gc
import re
import weakref
from fractions import Fraction as F
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelat import bodyio, checks, planar
from facelat.errors import (DimensionMismatch, HypothesisFailed, NotAFace,
                            PointNotInBody, UndefinedTouchingCone,
                            UnsupportedArcCenter, ZeroDirection)
from facelat.exactgeom import held_generators, is_zero, pos_hull, primitive, vec
from facelat.lattice import build_lattice, lattice_map, verify_isomorphism
from facelat.planar import (Arc, Cone2, FaceDescriptor, PlanarBody, QuadVal,
                            Segment, check_2d_nonexposed_rule,
                            check_2d_smoothness, coatom_check_planar,
                            compass_directions, cone_inventory, exposed_face,
                            face_at, gauge_value, non_exposed_faces,
                            normal_cone_at, partition_check_planar,
                            polar_planar, quad_compare, singular_points,
                            special_face_lattice, special_faces,
                            support_value, touching_cone)
from facelat.polytope import Polytope, normal_cone, projection


def fixture(name):
    return bodyio.load_fixture(name)


PLANAR_FIXTURES = [name for name in bodyio.list_fixtures()
                   if isinstance(fixture(name), PlanarBody)]


# ---------------------------------------------------------------------------
# exact quadratic values
# ---------------------------------------------------------------------------

def test_quad_compare():
    # 1 + sqrt(2) vs 2 + sqrt(1/2):  2.414 vs 2.707
    assert quad_compare(QuadVal(F(1), F(1), F(2)), QuadVal(F(2), F(1), F(1, 2))) < 0
    assert quad_compare(QuadVal(F(0), F(1), F(4)), QuadVal(F(2))) == 0
    assert quad_compare(QuadVal(F(3)), QuadVal(F(0), F(2), F(2))) > 0  # 3 vs 2.83
    assert quad_compare(QuadVal(F(0), F(2), F(3)), QuadVal(F(0), F(3), F(2))) < 0


# ---------------------------------------------------------------------------
# membership / faces
# ---------------------------------------------------------------------------

def test_body_validation():
    with pytest.raises(ValueError):
        PlanarBody((Segment(vec(0, 0), vec(1, 0)),), (True,), (True,))
    with pytest.raises(ValueError):  # endpoints do not chain
        PlanarBody((Segment(vec(0, 0), vec(1, 0)),
                    Segment(vec(2, 0), vec(0, 0))), (True,) * 2, (True,) * 2)
    with pytest.raises(ValueError):  # arc endpoint off the circle
        PlanarBody((Segment(vec(0, 0), vec(1, 0)),
                    Arc(vec(0, 0), F(1), vec(1, 0), vec(1, 1)),
                    Segment(vec(1, 1), vec(0, 0))), (True,) * 3, (True,) * 3)
    with pytest.raises(ValueError):  # open segment keeping both endpoints
        PlanarBody((Segment(vec(-1, 0), vec(1, 0)),
                    Segment(vec(1, 0), vec(0, 2)),
                    Segment(vec(0, 2), vec(-1, 0))),
                   (False, True, True), (True, True, True))
    with pytest.raises(ValueError):  # reflex junction
        PlanarBody((Segment(vec(0, 0), vec(2, 0)),
                    Segment(vec(2, 0), vec(1, F(1, 2))),
                    Segment(vec(1, F(1, 2)), vec(2, 2)),
                    Segment(vec(2, 2), vec(0, 0))), (True,) * 4, (True,) * 4)


def test_the_winding_check_does_not_depend_on_the_start_or_the_turn():
    """The outward normals must turn exactly once, counted as they pass one
    fixed direction; every planar fixture still passes with its feature
    cycle started anywhere and the plane turned by any quarter turn."""
    def turn(p):
        return (-p[1], p[0])

    for name in bodyio.list_fixtures():
        body = fixture(name)
        if not isinstance(body, PlanarBody):
            continue
        feats = body.features
        for _ in range(4):
            feats = tuple(Arc(turn(f.center), f.radius_sq, turn(f.start), turn(f.end))
                          if isinstance(f, Arc) else Segment(turn(f.start), turn(f.end))
                          for f in feats)
            for k in range(body.n):
                PlanarBody(feats[k:] + feats[:k], body.feature_closed[k:] + body.feature_closed[:k],
                           body.vertex_closed[k:] + body.vertex_closed[:k])


def test_quarter_disk_faces():
    qd = fixture("quarter_disk")
    assert face_at(qd, vec(F(1, 2), 0)) == FaceDescriptor.edge(0)
    f = face_at(qd, vec(F(3, 5), F(4, 5)))
    assert f.tag == "arcpoint" and f.direction == vec(3, 4)
    assert face_at(qd, vec(F(1, 4), F(1, 4))) == FaceDescriptor.whole()
    assert face_at(qd, vec(0, 0)) == FaceDescriptor("vertex", 0, vec(0, 0))
    with pytest.raises(PointNotInBody):
        face_at(qd, vec(1, 1))


def test_quarter_disk_normal_cones():
    qd = fixture("quarter_disk")
    assert normal_cone_at(qd, face_at(qd, vec(0, 0))) == \
        Cone2.sector(vec(-1, 0), vec(0, -1))
    assert normal_cone_at(qd, FaceDescriptor.edge(0)) == Cone2.ray(vec(0, -1))
    f = face_at(qd, vec(F(3, 5), F(4, 5)))
    assert normal_cone_at(qd, f) == Cone2.ray(vec(3, 4))
    assert normal_cone_at(qd, FaceDescriptor.whole()) == Cone2.zero()
    assert normal_cone_at(qd, FaceDescriptor.empty()) == Cone2.plane()
    with pytest.raises(NotAFace):
        normal_cone_at(qd, FaceDescriptor.edge(1))  # feature 1 is the arc


# descriptors naming no face of the quarter disk: segment 0, arc 1 and
# segment 2, from junctions (0,0), (1,0) and (0,1) in turn
NOT_QUARTER_DISK_FACES = {
    "edge -1": FaceDescriptor.edge(-1),
    "edge 3": FaceDescriptor.edge(3),
    "edge True": FaceDescriptor.edge(True),
    "arc point on feature 7": FaceDescriptor("arcpoint", 7, None, (1, 1)),
    "arc point on segment 0": FaceDescriptor("arcpoint", 0, None, (0, -1)),
    "arc point outside the arc's wedge": FaceDescriptor("arcpoint", 1, None, (-1, -1)),
    "arc point on the wedge's boundary": FaceDescriptor("arcpoint", 1, vec(1, 0), (1, 0)),
    "arc point with no direction": FaceDescriptor("arcpoint", 1),
    "vertex with no junction": FaceDescriptor("vertex", point=vec(0, 0)),
    "vertex at another junction's point": FaceDescriptor("vertex", 1, vec(0, 0)),
    "vertex off the body": FaceDescriptor("vertex", 0, vec(1, 1)),
    "unknown tag": FaceDescriptor("corner", 0, vec(0, 0)),
}


@pytest.mark.parametrize("name", sorted(NOT_QUARTER_DISK_FACES))
def test_a_descriptor_naming_no_face_is_refused(name):
    """The index must be an int in range(n), the feature of the tag's kind
    and present, an arc point's direction strictly inside its wedge and a
    vertex's point that of its junction: otherwise both the normal cone and
    the coatom check raise `NotAFace`."""
    qd, f = fixture("quarter_disk"), NOT_QUARTER_DISK_FACES[name]
    with pytest.raises(NotAFace):
        normal_cone_at(qd, f)
    with pytest.raises(NotAFace):
        coatom_check_planar(qd, f)


def test_a_deleted_vertex_is_refused():
    """A vertex face of the closure whose junction the body deletes."""
    body = fixture("triangle_open_side")
    j = body.vertex_closed.index(False)
    for call in (normal_cone_at, coatom_check_planar):
        with pytest.raises(NotAFace):
            call(body, FaceDescriptor("vertex", j, body.junction(j)))


def _rotated(body, k):
    def turn(t):
        return t[k:] + t[:k]
    return PlanarBody(turn(body.features), turn(body.feature_closed),
                      turn(body.vertex_closed))


def _statuses(body, name, k):
    """Each verdict's status, its feature labels renamed from the body turned
    by k to the unturned one: feature i there is feature i + k here."""
    def rename(m):
        return f"#{(int(m.group(1)) + k) % body.n}"
    return {re.sub(r"#(\d+)", rename, v.check_id): v.status
            for v in checks.run_suite(body, name, "all").verdicts}


@pytest.mark.parametrize("name", PLANAR_FIXTURES)
def test_vertex_faces_name_their_junction_in_every_rotation(name):
    """Turning the feature cycle, as the benchmark's body variants do, moves
    every junction index.  Each vertex face that `face_at`, `exposed_face`,
    `special_faces` and `non_exposed_faces` hand out names the junction at
    its point and gets that junction's cone, and the vertex labels and
    every verdict stay as on the unturned body."""
    base = fixture(name)
    for k in range(base.n):
        body = _rotated(base, k)
        faces = [face_at(body, body.junction(j)) for j in range(body.n)
                 if body.junction_present(j)]
        faces += [exposed_face(body, u) for u in compass_directions(360)]
        faces += special_faces(body) + non_exposed_faces(body)
        vertices = [f for f in faces if f.tag == "vertex"]
        for f in vertices:
            assert body.junction(f.feature) == f.point
            assert normal_cone_at(body, f) == body.junction_cone(f.feature)
        got = (sorted(f.label() for f in vertices), _statuses(body, name, k))
        if k == 0:
            want = got
        assert got == want


def test_exposed_faces():
    qd = fixture("quarter_disk")
    assert exposed_face(qd, vec(1, 0)) == FaceDescriptor("vertex", 1, vec(1, 0))
    st = fixture("stadium")
    assert exposed_face(st, vec(0, 1)) == FaceDescriptor.edge(1)
    tri_open = fixture("triangle_open_side")
    # direction into a deleted vertex's sector: supremum not attained
    assert exposed_face(tri_open, vec(0, 1)).tag == "empty"
    with pytest.raises(ZeroDirection):
        exposed_face(qd, vec(0, 0))


def test_touching_cones_quarter_disk():
    qd = fixture("quarter_disk")
    t, is_normal = touching_cone(qd, vec(1, 0))
    assert t == Cone2.ray(vec(1, 0)) and not is_normal
    t, is_normal = touching_cone(qd, vec(1, -1))
    assert t == Cone2.sector(vec(1, 0), vec(0, -1)) and is_normal
    st = fixture("stadium")
    t, is_normal = touching_cone(st, vec(0, 1))
    assert t == Cone2.ray(vec(0, 1)) and is_normal
    tdo = fixture("truncated_disk_open")
    with pytest.raises(UndefinedTouchingCone):
        touching_cone(tdo, vec(1, 0))


def test_non_exposed_faces():
    st = fixture("stadium")
    ne = non_exposed_faces(st)
    assert {f.point for f in ne} == {vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)}
    assert non_exposed_faces(fixture("quarter_disk")) == []
    assert non_exposed_faces(fixture("lens")) == []


def test_touching_not_normal():
    qd = fixture("quarter_disk")
    assert {c.d1 for c in cone_inventory(qd).extra_touching} == {vec(1, 0), vec(0, 1)}
    assert cone_inventory(fixture("stadium")).extra_touching == ()
    assert len(cone_inventory(fixture("lens")).extra_touching) == 4


def test_sup_exposed_planar():
    """The smallest exposed face containing a face is the face exposed by a
    relative-interior normal of it."""
    st = fixture("stadium")
    corner = normal_cone_at(st, face_at(st, vec(1, 1))).ri_vector()
    assert exposed_face(st, corner) == FaceDescriptor.edge(1)
    qd = fixture("quarter_disk")
    b = face_at(qd, vec(1, 0))
    assert exposed_face(qd, normal_cone_at(qd, b).ri_vector()) == b


def test_2d_nonexposed_rule():
    assert check_2d_nonexposed_rule(fixture("stadium")).passed
    assert check_2d_nonexposed_rule(fixture("square_planar")).passed
    with pytest.raises(HypothesisFailed):
        check_2d_nonexposed_rule(fixture("quarter_disk"))


def test_smoothness():
    sq = fixture("square_planar")
    assert len(singular_points(sq)) == 4
    assert check_2d_smoothness(sq).passed
    assert singular_points(fixture("stadium")) == []
    assert check_2d_smoothness(fixture("stadium")).passed
    with pytest.raises(HypothesisFailed):
        check_2d_smoothness(fixture("lens"))


def test_coatom_checks():
    qd = fixture("quarter_disk")
    rep = coatom_check_planar(qd, face_at(qd, vec(0, 0)))
    assert rep.hypothesis_ok and rep.is_intersection_of_coatoms
    assert {c.feature for c in rep.coatoms} == {0, 2}
    rep = coatom_check_planar(qd, face_at(qd, vec(1, 0)))
    assert not rep.hypothesis_ok and not rep.is_intersection_of_coatoms
    assert "sufficient condition" in rep.note
    lens = fixture("lens")
    rep = coatom_check_planar(lens, face_at(lens, vec(0, F(4, 5))))
    assert not rep.hypothesis_ok and rep.is_intersection_of_coatoms
    assert "no converse" in rep.note


def test_polar_planar_bodies():
    disk = fixture("unit_disk")
    pd = polar_planar(disk)
    assert all(isinstance(f, Arc) and f.radius_sq == 1 for f in pd.features)
    td = fixture("truncated_disk_closed")
    mouse = polar_planar(td)
    assert vec(2, 0) in mouse.junctions
    arcs = [f for f in mouse.features if isinstance(f, Arc)]
    assert len(arcs) == 1 and arcs[0].radius_sq == F(4, 5)
    back = polar_planar(mouse)
    assert {(f.kind, f.start, f.end) for f in back.features} == \
        {(f.kind, f.start, f.end) for f in td.features}
    sq = fixture("square_planar")
    cross = polar_planar(sq)
    assert {f.start for f in cross.features} == \
        {vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)}
    with pytest.raises(UnsupportedArcCenter):
        polar_planar(fixture("stadium"))  # arcs not centered at the origin
    from facelat.errors import OriginNotInterior
    with pytest.raises(OriginNotInterior):
        polar_planar(fixture("truncated_disk_open"))
    with pytest.raises(OriginNotInterior):
        polar_planar(fixture("quarter_disk"))  # origin on the boundary


@pytest.mark.parametrize("radius_sq, a", [(4, vec(2, 0)), (5, vec(2, 1))])
def test_polar_of_int_radius_arcs_is_exact(radius_sq, a):
    """An int radius_sq must not make the polar arcs float: 1/4 would be
    0.25, and vscale(1/5, a) would lie off the circle of radius_sq 1/5."""
    b = (-a[0], -a[1])
    o = vec(0, 0)
    disk = PlanarBody((Arc(o, radius_sq, a, b), Arc(o, radius_sq, b, a)),
                      (True, True), (True, True))
    pd = polar_planar(disk)
    assert [type(f.radius_sq) for f in pd.features] == [F, F]
    assert all(f.radius_sq == F(1, radius_sq) for f in pd.features)
    assert pd.features[0].start == (F(a[0], radius_sq), F(a[1], radius_sq))


def test_polar_support_oracle():
    td = fixture("truncated_disk_closed")
    mouse = polar_planar(td)
    for u in compass_directions(120):
        h, _ = support_value(mouse, u)
        assert quad_compare(h, gauge_value(td, u)) == 0


def test_partition_checks():
    for name in ("quarter_disk", "square_planar", "stadium"):
        rep = partition_check_planar(fixture(name), compass_directions(360))
        assert rep.passed, (name, rep.failures[:3])
    with pytest.raises(HypothesisFailed):
        partition_check_planar(fixture("triangle_open_side"), [vec(1, 0)])


def test_touching_cone_constant_on_ri_samples():
    qd = fixture("quarter_disk")
    t1, _ = touching_cone(qd, vec(1, -1))
    t2, _ = touching_cone(qd, vec(2, -1))
    t3, _ = touching_cone(qd, vec(1, -3))
    assert t1 == t2 == t3
    f1 = exposed_face(qd, vec(1, -1))
    f2 = exposed_face(qd, vec(2, -1))
    assert f1 == f2 == FaceDescriptor("vertex", 1, vec(1, 0))


def test_special_lattices_stadium():
    st = fixture("stadium")
    full = special_face_lattice(st, exposed_only=False)
    assert len(full) == 10  # empty, whole, 4 vertices, 2 edges, 2 arc points
    i1 = full.index_of(("vertex", vec(1, 1)))
    i2 = full.index_of(("vertex", vec(-1, 1)))
    assert full.elements[full.join([i1, i2])] == FaceDescriptor.edge(1)

    # mapping every special face to its normal cone is not injective: the
    # tangency vertex shares its cone with the adjacent flat edge
    cones = {}
    for f in full.elements:
        c = normal_cone_at(st, f)
        cones.setdefault(c.key, []).append(f)
    collisions = [v for v in cones.values() if len(v) > 1]
    assert collisions and any(
        {x.tag for x in group} == {"vertex", "edge"} for group in collisions)

    class CEfull:
        def __init__(self, c):
            self.cone = c
            self.key = c.key

        @property
        def dim(self):
            return self.cone.dim

        def label(self):
            return self.cone.label()

    dedup = {k: CEfull(normal_cone_at(st, fs[0])) for k, fs in cones.items()}
    ordered = sorted(dedup.values(), key=lambda e: str(e.key))
    tgt_full = build_lattice(ordered, held_generators([e.cone for e in ordered]))
    rep_full = verify_isomorphism(lattice_map(
        full, tgt_full, lambda f: CEfull(normal_cone_at(st, f)), "antitone"))
    assert rep_full.failures[0].startswith("not injective: ")

    # restricted to exposed special faces the correspondence is an antitone
    # lattice isomorphism
    exp = special_face_lattice(st, exposed_only=True)
    cone_elems = {}
    for f in exp.elements:
        c = normal_cone_at(st, f)
        cone_elems[c.key] = c

    class CE:
        def __init__(self, c):
            self.cone = c
            self.key = c.key

        def label(self):
            return self.cone.label()

        @property
        def dim(self):
            return self.cone.dim

    ordered = sorted((CE(c) for c in cone_elems.values()), key=lambda e: str(e.key))
    tgt = build_lattice(ordered, held_generators([e.cone for e in ordered]))
    rep = verify_isomorphism(lattice_map(
        exp, tgt, lambda f: CE(normal_cone_at(st, f)), "antitone"))
    assert rep.passed, rep.failures


def test_open_triangle_encoding_resolution():
    """Brute-force over valid triangle deletions pins the fixture encodings.

    The only left-body encodings with three proper touching cones, all of
    them normal and with every proper exposed face an intersection of
    coatoms, are: all three vertices deleted, or one side's interior deleted
    together with the top vertex and the vertex opposite the other side.
    Only the deleted-side encodings also reproduce, after adding the top
    vertex, the advertised deltas: one new normal cone, two new touching
    cones, and a top vertex that is not an intersection of coatoms.
    """
    BL, BR, T = vec(-1, 0), vec(1, 0), vec(0, 2)
    feats = (Segment(BL, BR), Segment(BR, T), Segment(T, BL))
    ends = {0: (0, 1), 1: (1, 2), 2: (2, 0)}

    def make(fc, vc):
        for i in range(3):
            if not fc[i] and vc[ends[i][0]] and vc[ends[i][1]]:
                return None
        try:
            return PlanarBody(feats, fc, vc)
        except ValueError:
            return None

    matches = []
    for fc in product([True, False], repeat=3):
        for vc in product([True, False], repeat=3):
            if vc[2]:
                continue  # left body: top vertex deleted
            left = make(fc, vc)
            if left is None:
                continue
            inv = cone_inventory(left)
            if inv.proper_touching_count != 3 or inv.extra_touching:
                continue
            if not all(
                    coatom_check_planar(left, f).is_intersection_of_coatoms
                    for f in special_faces(left, exposed_only=True)
                    if f.tag not in ("empty", "whole")):
                continue
            right = make(fc, (vc[0], vc[1], True))
            if right is None:
                continue
            inv2 = cone_inventory(right)
            dn = inv2.proper_normal_count - inv.proper_normal_count
            dt = inv2.proper_touching_count - inv.proper_touching_count
            not_coatom = not coatom_check_planar(
                right, face_at(right, T)).is_intersection_of_coatoms
            if dn == 1 and dt == 2 and not_coatom:
                matches.append((fc, vc))
    # the pinned encoding (deleted left side) and its mirror both qualify
    assert ((True, True, False), (False, True, False)) in matches
    assert len(matches) == 2
    # the naive all-vertices-deleted encoding does not reproduce the deltas
    naive_left = make((True,) * 3, (False,) * 3)
    naive_right = make((True,) * 3, (False, False, True))
    d_t = (cone_inventory(naive_right).proper_touching_count
           - cone_inventory(naive_left).proper_touching_count)
    assert d_t == 1


def test_open_triangle_fixture_counts():
    left = fixture("triangle_open_side")
    right = fixture("triangle_open_side_apex")
    il, ir = cone_inventory(left), cone_inventory(right)
    assert il.proper_touching_count == 3 and not il.extra_touching
    assert ir.proper_normal_count == il.proper_normal_count + 1
    assert ir.proper_touching_count == il.proper_touching_count + 2
    rep = coatom_check_planar(right, face_at(right, vec(0, 2)))
    assert not rep.is_intersection_of_coatoms


def test_minkowski_atom_bound_fails_without_closedness():
    """A closed triangle with one extreme point missing defeats the join bound.

    The half-open sides are exposed faces of dimension one, but the lattice
    of special exposed faces has only the two remaining extreme points as
    atoms, and no join of two atoms yields a half-open side.
    """
    body = fixture("triangle_minus_vertex")
    lat = special_face_lattice(body, exposed_only=True)
    atoms = lat.atoms()
    assert all(lat.elements[a].tag == "vertex" for a in atoms)
    from facelat.lattice import decompose_by_atoms
    half_open_sides = [i for i, e in enumerate(lat.elements)
                       if e.tag == "edge" and e.feature in (1, 2)]
    assert half_open_sides
    for idx in half_open_sides:
        f = lat.elements[idx]
        assert decompose_by_atoms(lat, idx, f.dim + 1) is None


def test_ambient_independence_of_cones():
    """Polygonal planar cones agree with the 3D-embedded polytope computation.

    Embedding the square in a coordinate plane of 3-space adds the plane's
    normal line to every cone and changes nothing else.
    """
    sq = fixture("square_planar")
    pts3 = tuple(vec(j.start[0], j.start[1], 0) for j in sq.features)
    emb = Polytope(pts3)
    for j in range(sq.n):
        v2 = sq.junction(j)
        c2 = normal_cone_at(sq, face_at(sq, v2))
        face3 = emb.face_of_point(vec(v2[0], v2[1], 0))
        c3 = normal_cone(emb, face3)
        gens = [vec(d[0], d[1], 0) for d in (c2.d1, c2.d2)]
        gens += [vec(0, 0, 1), vec(0, 0, -1)]
        assert c3 == pos_hull(gens, 3)


@pytest.mark.parametrize("cone", [Cone2.zero(), Cone2.ray((3, 4)),
                                  Cone2.sector((1, 0), (0, 1)), Cone2.plane()],
                         ids=lambda c: c.kind)
def test_cone2_predicates_agree_with_polycone(cone):
    """Membership, relative-interior membership and the face holding a
    direction in its relative interior agree with the cone layer's, at the
    origin and at compass directions (the plane's relative interior is the
    plane, 0 included)."""
    poly = pos_hull(cone.generators(), 2)
    for u in [(0, 0), *compass_directions(16), *cone.generators()]:
        assert cone.contains(u) == poly.contains(u), u
        assert cone.ri_contains(u) == poly.ri_contains(u), u
        holding = [f for f in poly.faces if f.ri_contains(u)]
        if cone.contains(u):
            assert holding == [pos_hull(cone.face_with_in_ri(u).generators(), 2)], u
        else:
            assert holding == []
            with pytest.raises(ValueError):
                cone.face_with_in_ri(u)


@pytest.mark.parametrize("cone", [Cone2.zero(), Cone2.ray((1, 0)),
                                  Cone2.sector((1, 0), (0, 1)), Cone2.plane()],
                         ids=lambda c: c.kind)
@pytest.mark.parametrize("predicate", ["contains", "ri_contains"])
@pytest.mark.parametrize("u", [(0,), (1,), (0, 0, 0), (1, 2, 3)], ids=str)
def test_cone2_predicates_reject_non_planar_vectors(cone, predicate, u):
    """Every kind refuses a vector of length 1 or 3, zero or not, as
    `PolyCone` refuses one of the wrong dimension."""
    with pytest.raises(DimensionMismatch):
        getattr(cone, predicate)(u)


def test_pointwise_duality_on_samples():
    """Attaining the support value, membership in the exposed face and the
    direction lying in the point's normal cone are one and the same thing,
    over sampled boundary points and directions."""
    from facelat.planar import sample_boundary_points
    for name in ("quarter_disk", "stadium", "truncated_disk_closed"):
        body = fixture(name)
        points = sample_boundary_points(body)
        for u in compass_directions(24):
            h, _ = support_value(body, u)
            face = exposed_face(body, u)
            for x in points:
                attains = quad_compare(QuadVal(sum(a * b for a, b in zip(u, x))), h) == 0
                in_cone = normal_cone_at(body, face_at(body, x)).contains(u)
                assert attains == in_cone, (name, u, x)
                if attains and face.tag == "edge":
                    feat = body.features[face.feature]
                    assert body.locate(x) in (("segment", face.feature),
                                              ("junction", face.feature),
                                              ("junction", (face.feature + 1) % body.n))


def test_sample_helpers_are_exact():
    qd = fixture("quarter_disk")
    pts = [p for p in __import__("facelat.planar", fromlist=["sample_boundary_points"])
           .sample_boundary_points(qd)]
    assert all(qd.contains(p) for p in pts)
    dirs = compass_directions(360)
    assert len(dirs) == 360 and len(set(dirs)) == 360


# ---------------------------------------------------------------------------
# per-body memos against fresh computations
# ---------------------------------------------------------------------------

PLANAR_FIXTURES = ("lens", "quarter_disk", "square_planar", "stadium",
                   "triangle_minus_vertex", "triangle_open_side",
                   "triangle_open_side_apex", "truncated_disk_closed",
                   "truncated_disk_open", "unit_disk")
PLANAR_BODIES = {name: fixture(name) for name in PLANAR_FIXTURES}

small_rational = st.builds(F, st.integers(-20, 20), st.integers(1, 6))
positive_rational = st.builds(F, st.integers(1, 9), st.integers(1, 4))


def _exact(answer):
    """Everything a support answer carries, including the optional point."""
    h, f = answer
    return h, f.tag, f.feature, f.point, f.direction


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PLANAR_FIXTURES),
       st.tuples(small_rational, small_rational).filter(lambda u: not is_zero(u)),
       positive_rational)
def test_memoised_support_equals_fresh_support(name, u, scale):
    body = PLANAR_BODIES[name]
    for v in (u, (scale * u[0], scale * u[1])):
        face = planar._support(body, v, planar._support_scan(body, v))
        fresh = planar._quad(planar.support_form(body, v)), face
        assert _exact(support_value(body, v)) == _exact(fresh)
        assert _exact(support_value(body, v)) == _exact(fresh)
        # the exposed-face memo holds the face alone, read off the support
        # face, and every answer hands it out
        exposed_face(body, v)
        entry = body._exposed_memo[planar._exact_key(v)]
        assert type(entry) is FaceDescriptor and entry == planar._exposed(body, face)
        assert exposed_face(body, v) is entry
        _, f = fresh
        if f.tag == "arcpoint":
            assert f.direction == primitive(v)
    # the value scales with the direction; the face does not
    (h1, f1), (h2, f2) = support_value(body, u), support_value(body, v)
    assert f1 == f2
    assert quad_compare(QuadVal(scale * h1.q, scale * h1.s, h1.m), h2) == 0


@pytest.mark.parametrize("query", [
    lambda: support_value(fixture("unit_disk"), (1, 0, 0)),
    lambda: exposed_face(fixture("unit_disk"), (1, 0, 0)),
    lambda: touching_cone(fixture("unit_disk"), (1, 0, 0)),
    lambda: gauge_value(fixture("unit_disk"), (1, 0, 0)),
    lambda: face_at(fixture("unit_disk"), (1,)),
    lambda: projection(fixture("square"), [(1, 0, 0)]).cylinder_normal_check((0, 0)),
], ids=["support_value", "exposed_face", "touching_cone", "gauge_value",
        "face_at", "cylinder_normal_check"])
def test_wrong_dimension_raises_dimension_mismatch(query):
    """A vector of the wrong length is a `GeometryError` the command line
    reports as bad input, not a bare `ValueError` from unpacking or `zip`."""
    with pytest.raises(DimensionMismatch):
        query()


def test_support_memo_rejects_zero_and_stores_no_error():
    body = fixture("quarter_disk")
    for query in (support_value, exposed_face):
        with pytest.raises(ZeroDirection):
            query(body, vec(0, 0))
    assert not body._exposed_memo


def test_cached_junction_cones_equal_fresh_cones():
    for name, body in PLANAR_BODIES.items():
        for j in range(-body.n, 2 * body.n):
            n_prev, n_next = body.junction_normals(j)
            parallel = n_prev[0] * n_next[1] == n_prev[1] * n_next[0]
            fresh = (Cone2.ray(n_prev) if parallel
                     else Cone2.sector(n_prev, n_next))
            assert body.junction_cone(j) == fresh, (name, j)


def _fraction_compass(count):
    """compass_directions on Fractions: t = 2k/half - 1 runs over [-1, 1)."""
    half = count // 2
    out = []
    for k in range(half):
        t = F(2 * k, half) - 1
        d = (1 - t * t, 2 * t)
        if is_zero(d):
            d = (F(-1), F(0))
        p = primitive(d)
        out.append(p)
        out.append((-p[0], -p[1]))
    seen = set()
    return [d for d in out if not (d in seen or seen.add(d))]


@pytest.mark.parametrize("count", [2, 7, 72, 120, 360])
def test_integer_compass_equals_fraction_compass(count):
    dirs = compass_directions(count)
    assert dirs == _fraction_compass(count)
    assert all(type(x) is int for d in dirs for x in d)


@pytest.mark.parametrize("count", [8, 72, 120, 360])
def test_compass_covers_every_quadrant_and_axis(count):
    dirs = compass_directions(count)
    assert len(set(dirs)) == count
    assert {vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)} <= set(dirs)
    quadrants = Counter((x > 0, y > 0) for x, y in dirs if x and y)
    assert len(quadrants) == 4
    assert set(quadrants.values()) == {count // 4 - 1}


@pytest.mark.parametrize("name, counts", [("square", [360]),
                                          ("unit_disk", [120, 360]),
                                          ("triangle_open_side", [120])])
def test_compass_lists_are_built_once_per_run(monkeypatch, name, counts):
    """`run_suite` builds each compass list once and hands it to every suite
    that samples it: the 2D polytope's partition count, which its touching
    and partition suites share, and the planar sharp, polar and partition
    suites."""
    built = []

    def counting(count=360):
        built.append(count)
        return compass_directions(count)

    monkeypatch.setattr(checks, "compass_directions", counting)
    for _ in range(2):  # one list per count per call, not per process
        built.clear()
        assert checks.run_suite(fixture(name), name, "all").passed
        assert sorted(built) == counts


def test_planar_caches_die_with_the_body():
    body = fixture("quarter_disk")
    checks.run_suite(body, "quarter_disk", "all")
    cones, inv = body._junction_cones, body._inventory
    exposed, normal, vertices = body._exposed_memo, body._touching_normal, body._vertex_faces
    assert cones and exposed and normal and vertices
    # the exposed-face memo holds faces alone: no support value outlives its call
    assert all(type(f) is FaceDescriptor for f in exposed.values())
    assert all(type(n) is bool for n in normal.values())
    # dicts and tuples take no weak references; the objects they alone hold do
    f = next(f for f in exposed.values() if f.tag == "edge")
    g = next(g for g in exposed.values() if g.tag == "arcpoint")
    refs = [weakref.ref(x) for x in (body, f, g, vertices[0], cones[0], inv)]
    del body, cones, inv, f, g, exposed, normal, vertices
    gc.collect()
    assert all(r() is None for r in refs)


def test_planar_support_values_are_memoised(monkeypatch):
    """The ten planar fixtures' suites, with their polars, ask for 2,885
    exposed faces on 1,252 distinct (body, direction) pairs and for 56
    support values, so `_support` computes 1,308 closure faces (3,444
    without the exposed-face memo): at most half of 3,444 may be computed.
    The exposed-face memo answers 1,633 of its 2,885 lookups and the
    touching-cone normality memo 503 of its 1,041: each must answer at
    least a quarter."""
    computed, asked, seen = [], {"exposed": 0, "touching": 0}, {}
    core, exposed, touching = planar._support, planar.exposed_face, planar.touching_cone

    def counting(body, u, scan):
        computed.append(u)
        return core(body, u, scan)

    def counting_exposed(body, u):  # sees the polar bodies too
        asked["exposed"] += 1
        seen[id(body)] = body
        return exposed(body, u)

    def counting_touching(body, u):
        answer = touching(body, u)  # a raising call reads no normality memo
        asked["touching"] += 1
        return answer

    monkeypatch.setattr(planar, "_support", counting)
    monkeypatch.setattr(planar, "exposed_face", counting_exposed)
    monkeypatch.setattr(planar, "touching_cone", counting_touching)
    for name in PLANAR_FIXTURES:
        assert checks.run_suite(bodyio.load_fixture(name), name, "all").passed, name
    assert 0 < len(computed) <= 1722
    # each miss stores one entry, so the misses are the entries stored
    for memo, lookups in (("_exposed_memo", asked["exposed"]),
                          ("_touching_normal", asked["touching"])):
        misses = sum(len(getattr(body, memo)) for body in seen.values())
        assert 0 < misses <= lookups * 3 // 4, memo


# ---------------------------------------------------------------------------
# the cone inventory against the rediscovery route it replaced
# ---------------------------------------------------------------------------

def _rediscovered_cones(body):
    """The touching cones of a closed body as the partition check once found
    them: each candidate ray direction (segment normals, junction cone
    boundaries) probed with `touching_cone`, plus the junction sectors."""
    dirs = set()
    for i, f in enumerate(body.features):
        if isinstance(f, Segment) and body.feature_closed[i]:
            dirs.add(f.outward_normal)
    for j in range(body.n):
        if not body.junction_present(j):
            continue
        cone = body.junction_cone(j)
        dirs.add(cone.d1)
        if cone.kind == "sector":
            dirs.add(cone.d2)
    rays = []
    for d in sorted(dirs):
        try:
            t, _ = touching_cone(body, d)
        except UndefinedTouchingCone:
            continue
        if t == Cone2.ray(d):
            rays.append(t)
    return rays + [c for c in body._junction_cones if c.kind == "sector"]


def _signed_images(body):
    """The body's images under the eight signed coordinate permutations.  A
    map that flips orientation reverses the boundary, so the features are
    listed backwards, each from its old end to its old start."""
    n = body.n
    for swap, sx, sy in product((False, True), (1, -1), (1, -1)):
        def m(p, swap=swap, sx=sx, sy=sy):
            x, y = (p[1], p[0]) if swap else p
            return (sx * x, sy * y)

        feats = [Segment(m(f.start), m(f.end)) if isinstance(f, Segment)
                 else Arc(m(f.center), f.radius_sq, m(f.start), m(f.end))
                 for f in body.features]
        fc, vc = body.feature_closed, body.vertex_closed
        if swap != (sx * sy < 0):
            feats = [Segment(f.end, f.start) if isinstance(f, Segment)
                     else Arc(f.center, f.radius_sq, f.end, f.start)
                     for f in reversed(feats)]
            fc, vc = fc[::-1], tuple(vc[-k] for k in range(n))
        yield PlanarBody(tuple(feats), fc, vc)


def _report_multiset(body):
    """The verdicts of `run_suite(body, ..., "all")` as a multiset of (id,
    status), each `coatoms.face[...]` id without its face label, and the
    counts.  The per-face verdicts follow the feature numbering, which a map
    that flips orientation reverses, so their order is not compared."""
    rep = checks.run_suite(body, "body", "all")
    return Counter((v.check_id.split("[")[0], v.status) for v in rep.verdicts), rep.counts


@pytest.mark.parametrize("name", PLANAR_FIXTURES)
def test_check_reports_are_invariant_under_signed_images(name):
    want = _report_multiset(PLANAR_BODIES[name])
    for image in _signed_images(PLANAR_BODIES[name]):
        assert _report_multiset(image) == want


CLOSED_FIXTURES = [name for name in PLANAR_FIXTURES
                   if PLANAR_BODIES[name].is_closed()]


@pytest.mark.parametrize("name", CLOSED_FIXTURES)
def test_inventory_equals_rediscovered_touching_cones(name):
    """The partition check reads the inventory's proper cones; on closed
    bodies they are exactly the cones the probing route found."""
    assert len(CLOSED_FIXTURES) == 6
    images = list(_signed_images(fixture(name)))
    assert len(images) == 8
    for body in images:
        inv = cone_inventory(body)
        found = sorted(c.key for c in (*inv.proper_normal, *inv.extra_touching))
        assert found == sorted(c.key for c in _rediscovered_cones(body)), name
        assert inv.arc_families == tuple(
            i for i, f in enumerate(body.features) if isinstance(f, Arc))
        assert partition_check_planar(body, compass_directions(72)).passed


def test_inventory_is_built_once_per_body(monkeypatch):
    """One round of every suite on the ten planar fixtures walks each body's
    boundary once: the ten fixtures and the three polar bodies."""
    built = []
    core = planar._build_inventory

    def counting(body):
        built.append(body)  # keeps each body alive, so ids stay distinct
        return core(body)

    monkeypatch.setattr(planar, "_build_inventory", counting)
    for name in PLANAR_FIXTURES:
        body = fixture(name)
        assert checks.run_suite(body, name, "all").passed, name
        assert cone_inventory(body) is cone_inventory(body)
    assert len({id(b) for b in built}) == len(built) == 13
