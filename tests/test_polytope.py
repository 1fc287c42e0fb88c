from fractions import Fraction as F
from functools import cache
from itertools import product

import pytest

from facelat import checks
from facelat import exactgeom as eg
from facelat import polytope as pt
from facelat.errors import (GeometryError, InvariantViolation, NotAFace,
                            OriginNotInterior, PointNotInBody, ZeroDirection)
from facelat.exactgeom import (full_space, intersect_cones, minkowski_sum_cone,
                               pos_hull, subspace_cone, unit, vec)
from facelat.lattice import (FiniteLattice, decompose_by_coatoms, lattice_map,
                             verify_isomorphism)
from facelat.polytope import (ConeElement, Polytope, atom_decomposition,
                              coatom_decomposition, conjugate_face,
                              cylinder_normal_check, exposed_face_lattice,
                              exposed_meet, face_lattice, is_sharp_exposed,
                              is_sharp_normal, lift_face, lifted_face_lattices,
                              minkowski_atom_check, normal_cone,
                              normal_cone_at_point, normal_cone_lattice,
                              polar, pos_iso_check,
                              project_polytope, sup_exposed, support,
                              touching_cone_at, touching_cone_lattice)


# One instance per body for the whole module: lattices are cached on the body,
# so the tests share them instead of rebuilding the cube's LP face lattice.

@cache
def square():
    return Polytope((vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1)))


@cache
def cube():
    return Polytope(tuple(vec(*p) for p in product([-1, 1], repeat=3)))


@cache
def triangle():
    return Polytope((vec(0, 0), vec(2, 0), vec(1, 1)))


def test_vertex_extremality_enforced():
    with pytest.raises(ValueError):
        Polytope((vec(0, 0), vec(2, 0), vec(1, 0)))
    with pytest.raises(ValueError):
        Polytope((vec(0, 0), vec(0, 0)))
    with pytest.raises(ValueError):
        Polytope(())


def test_support_square():
    sq = square()
    h, face = support(sq, vec(1, 0))
    assert h == 1 and {sq.vertices[i] for i in face.vertex_indices} == {vec(1, -1), vec(1, 1)}
    h, face = support(sq, vec(1, 1))
    assert h == 2 and {sq.vertices[i] for i in face.vertex_indices} == {vec(1, 1)}
    with pytest.raises(ZeroDirection):
        support(sq, vec(0, 0))


def test_support_perpendicular_to_segment():
    seg = Polytope((vec(0, 0), vec(2, 0)))
    h, face = support(seg, vec(0, 1))
    assert h == 0 and len(face.vertex_indices) == 2


def test_face_lattice_sizes():
    assert len(face_lattice(Polytope((vec(0,), vec(2,))))) == 4
    assert len(face_lattice(square())) == 10
    assert len(face_lattice(cube())) == 28


def test_square_face_lattice_structure():
    lat = face_lattice(square())
    atoms = [lat.elements[i] for i in lat.atoms()]
    coatoms = [lat.elements[i] for i in lat.coatoms()]
    assert len(atoms) == 4 and all(f.dim == 0 for f in atoms)
    assert len(coatoms) == 4 and all(f.dim == 1 for f in coatoms)
    assert len(lat.hasse_edges()) == 16  # 4 + 8 + 4
    right = lat.index_of((1, 2))  # edge x = 1
    top = lat.index_of((2, 3))    # edge y = 1
    met = lat.elements[lat.meet([right, top])]
    assert met.vertex_indices == (2,)  # the corner (1, 1)


def test_two_face_routes_agree():
    for p in (square(), triangle(), cube()):
        brute = {f.key for f in face_lattice(p).elements}
        hyper = {f.key for f in exposed_face_lattice(p).elements}
        assert brute == hyper


def test_exposed_lattice_single_point():
    pt = Polytope((vec(1, 1),))
    lat = exposed_face_lattice(pt)
    assert len(lat) == 2


def test_normal_cones_of_square():
    sq = square()
    corner = sq.face_of_point(vec(1, 1))
    assert normal_cone(sq, corner) == pos_hull([vec(1, 0), vec(0, 1)])
    edge = sq.face_of_point(vec(1, 0))
    assert normal_cone(sq, edge) == pos_hull([vec(1, 0)])
    whole = sq.make_face(frozenset(range(4)))
    assert normal_cone(sq, whole).cone_dim == 0
    assert normal_cone(sq, sq.make_face(frozenset())) == full_space(2)
    with pytest.raises(NotAFace):
        normal_cone(sq, sq.make_face(frozenset({0, 2})))  # diagonal


def test_normal_cone_of_lower_dimensional_body():
    seg = Polytope((vec(0, 0), vec(2, 0)))
    whole = seg.make_face(frozenset({0, 1}))
    assert normal_cone(seg, whole) == subspace_cone([vec(0, 1)], 2)
    lat = normal_cone_lattice(seg)
    assert len(lat) == 4  # y-axis, two halfplanes, plane


def test_normal_lattice_sizes():
    assert len(normal_cone_lattice(square())) == 10
    assert len(normal_cone_lattice(cube())) == 28


def test_point_degenerate_normal_lattice():
    pt = Polytope((vec(1, 1),))
    lat = normal_cone_lattice(pt)
    assert len(lat) == 1  # the whole plane is both improper cones at once


def test_touching_equals_normal():
    for p in (square(), cube(), Polytope((vec(0, 0), vec(2, 0)))):
        nl = {e.key for e in normal_cone_lattice(p).elements}
        tl = {e.key for e in touching_cone_lattice(p).elements}
        assert nl == tl


def test_touching_cone_at():
    sq = square()
    assert touching_cone_at(sq, vec(1, 0)) == pos_hull([vec(1, 0)])
    assert touching_cone_at(sq, vec(2, 1)) == pos_hull([vec(1, 0), vec(0, 1)])
    assert touching_cone_at(sq, vec(1, 1)) == pos_hull([vec(1, 0), vec(0, 1)])
    with pytest.raises(ZeroDirection):
        touching_cone_at(sq, vec(0, 0))


def test_lift_of_exposed_face_is_exposed_face_of_direction():
    """The direction of a proper face of the projection is the sum of the
    normals of its facets through it, as `lift.exposed_face_transform`
    takes it."""
    tri = triangle()
    q = project_polytope(tri, [vec(1, 0)])
    proper = 0
    for f in exposed_face_lattice(q).elements:
        if not f.vertex_indices or len(f.vertex_indices) == len(q.vertices):
            continue
        proper += 1
        w = tuple(map(sum, zip(*(fc.normal for fc in q.facets if f.vset <= fc.vertex_set))))
        lifted = lift_face(tri, [vec(1, 0)], f)
        _, direct = support(tri, w)
        assert lifted.vset == direct.vset
    assert proper == 2


def test_antitone_isomorphism():
    for p in (square(), cube(), triangle(), Polytope((vec(-1,), vec(1,)))):
        fl = exposed_face_lattice(p)
        nl = normal_cone_lattice(p)
        rep = verify_isomorphism(lattice_map(
            fl, nl, lambda f: ConeElement(normal_cone(p, f)), "antitone"))
        assert rep.passed, rep.failures


def test_sup_exposed_is_identity_on_faces():
    sq = square()
    for f in face_lattice(sq).elements:
        assert sup_exposed(sq, f).vset == f.vset


def test_exposed_meet():
    sq = square()
    face, witness = exposed_meet(sq, [vec(1, 0), vec(0, 1)])
    assert {sq.vertices[i] for i in face.vertex_indices} == {vec(1, 1)}
    assert witness == vec(1, 1)
    assert support(sq, witness)[1] == face
    face, witness = exposed_meet(sq, [vec(1, 0), vec(-1, 0)])
    assert face.vertex_indices == () and witness is None
    c = cube()
    face, _ = exposed_meet(c, [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)])
    assert {c.vertices[i] for i in face.vertex_indices} == {vec(1, 1, 1)}


def test_polar_bodies():
    assert set(polar(square()).vertices) == {vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)}
    oct_ = polar(cube())
    assert set(oct_.vertices) == {vec(*p) for p in
                                  [(1,0,0),(-1,0,0),(0,1,0),(0,-1,0),(0,0,1),(0,0,-1)]}
    assert set(polar(oct_).vertices) == set(cube().vertices)
    with pytest.raises(OriginNotInterior):
        polar(Polytope((vec(0, 0), vec(2, 0))))
    with pytest.raises(OriginNotInterior):
        polar(triangle())  # origin on the boundary


def test_conjugate_faces():
    sq = square()
    q = polar(sq)
    edge = sq.face_of_point(vec(1, 0))
    ce = conjugate_face(sq, edge)
    assert {q.vertices[i] for i in ce.vertex_indices} == {vec(1, 0)}
    vtx = sq.face_of_point(vec(1, 1))
    cv = conjugate_face(sq, vtx)
    assert {q.vertices[i] for i in cv.vertex_indices} == {vec(1, 0), vec(0, 1)}
    empty = conjugate_face(sq, sq.make_face(frozenset()))
    assert len(empty.vertex_indices) == len(q.vertices)


def test_pos_iso_check():
    sq, cb = square(), cube()
    assert pos_iso_check(sq).failures == ()
    # the lattices compared: the polar's exposed faces and the normal cones
    assert len(exposed_face_lattice(polar(sq))) == len(normal_cone_lattice(sq)) == 10
    assert pos_iso_check(cb).failures == ()
    assert len(exposed_face_lattice(polar(cb))) == 28
    one_dim = Polytope((vec(-1,), vec(1,)))
    assert pos_iso_check(one_dim).failures == ()


def test_project_polytope():
    tri = triangle()
    q = project_polytope(tri, [vec(1, 0)])
    assert set(q.vertices) == {vec(0, 0), vec(2, 0)}
    c = cube()
    z = project_polytope(c, [unit(3, 2)])
    assert set(z.vertices) == {vec(0, 0, -1), vec(0, 0, 1)}
    sq = square()
    assert set(project_polytope(sq, [vec(1, 0), vec(0, 1)]).vertices) == set(sq.vertices)


def test_empty_face_has_no_relative_interior_points():
    """The empty face has no relative-interior point to return; before the
    vertex grid, `ri_samples` returned the origin for it."""
    tri = triangle()
    empty = tri.make_face(frozenset())
    with pytest.raises(NotAFace):
        tri.ri_point(empty)
    with pytest.raises(NotAFace):
        tri.ri_samples(empty)


def test_lift_face_examples():
    tri = triangle()
    q = project_polytope(tri, [vec(1, 0)])
    corner = q.face_of_point(vec(0, 0))
    lifted = lift_face(tri, [vec(1, 0)], corner)
    assert tri.face_points(lifted) == [vec(0, 0)]
    top = q.make_face(frozenset(range(len(q.vertices))))
    assert len(lift_face(tri, [vec(1, 0)], top).vertex_indices) == 3
    assert lift_face(tri, [vec(1, 0)], q.make_face(frozenset())).vertex_indices == ()
    from facelat.polytope import PolyFace
    with pytest.raises(NotAFace):
        lift_face(tri, [vec(1, 0)], PolyFace((0, 2), 1))


def test_lifted_lattices_triangle():
    tri = triangle()
    lifted, lifted_perp, rep = lifted_face_lattices(tri, [vec(1, 0)])
    assert rep.passed, rep.failures
    assert len(lifted) == 4
    keys = {f.key for f in lifted.elements}
    assert (0, 1) not in keys  # the bottom edge never lifts to itself
    assert (0,) in keys and (1,) in keys  # its corners do


def test_lifted_lattices_square_and_full_space():
    sq = square()
    lifted, _, rep = lifted_face_lattices(sq, [vec(1, 0)])
    assert rep.passed and len(lifted) == 4
    lifted_full, _, rep2 = lifted_face_lattices(triangle(), [vec(1, 0), vec(0, 1)])
    assert rep2.passed and len(lifted_full) == len(face_lattice(triangle()))


def test_lifts_on_a_rational_body():
    """A body off the integer lattice, its vertices over different
    denominators, lifts like its integer multiple."""
    small = Polytope((vec(0, 0), vec(F(1, 2), 0), vec(0, F(1, 3))))
    big = Polytope((vec(0, 0), vec(3, 0), vec(0, 2)))  # six times small
    assert small._vertex_rays == ((0, 0, 1), (1, 0, 2), (0, 1, 3))
    for basis in ([vec(1, 0)], [vec(1, 1)], [vec(1, 0), vec(0, 1)]):
        got, _, rep = lifted_face_lattices(small, basis)
        want, _, _ = lifted_face_lattices(big, basis)
        assert rep.passed, rep.failures
        assert [f.key for f in got.elements] == [f.key for f in want.elements]
    assert checks.run_suite(small, "small", "lift").passed


def test_vertex_rays_are_read_from_the_vertices(monkeypatch):
    """The vertex rays come from the vertices alone, so the face route
    never reads the facets, and the lift seed starts from the same
    primitive rays.  A body computes its facets as it validates its
    vertices, so the face route is run with the facets dropped and their
    property stubbed to raise, which the exposed route then hits."""
    small = Polytope((vec(0, 0), vec(F(1, 2), 0), vec(0, F(1, 3))))
    assert small._vertex_rays == ((0, 0, 1), (1, 0, 2), (0, 1, 3))
    assert tuple(r for r, _ in small._vertex_cone.rays) == small._vertex_rays
    fresh = Polytope(small.vertices)
    del fresh.__dict__["facets"]

    def no_facets(self):
        raise AssertionError("the facets were read")
    monkeypatch.setattr(Polytope, "facets", property(no_facets))
    assert len(face_lattice(fresh).elements) == 8
    with pytest.raises(AssertionError, match="the facets were read"):
        exposed_face_lattice(fresh)


def test_canonical_subspace_lift_on_a_tilted_triangle():
    # e1 is not in the triangle's direction space span{(1,0,1), (0,1,0)}, so
    # the lift through e1 is compared with the lift through its projection
    tilted = Polytope((vec(0, 0, 0), vec(2, 0, 2), vec(0, 2, 0)))
    proj = pt.projection(tilted, [unit(3, 0)])
    assert proj.canonical_subspace != proj.basis
    _, _, rep = lifted_face_lattices(tilted, [unit(3, 0)])
    # no "canonical-subspace lift differs on ..." failure, nor any other
    assert rep.failures == ()
    proj = pt.projection(triangle(), [vec(1, 0)])
    assert proj.canonical_subspace == proj.basis
    detail = _detail(checks.run_suite(tilted, "tilted", "lift"),
                     "lift.lattice_isomorphisms")
    assert "a real comparison on 5 of 6 coordinate subspaces" in detail


def test_cylinder_normal_check():
    sq = square()
    r = cylinder_normal_check(sq, [vec(1, 0)], vec(1, 1))
    assert r.passed
    assert r.projected_cone == pos_hull([vec(1, 0), vec(0, 1), vec(0, -1)])
    r = cylinder_normal_check(sq, [vec(1, 0)], vec(0, 0))
    assert r.passed and r.projected_cone == subspace_cone([vec(0, 1)], 2)
    with pytest.raises(PointNotInBody):
        cylinder_normal_check(sq, [vec(1, 0)], vec(3, 0))
    c = cube()
    for basis in ([unit(3, 0)], [unit(3, 0), unit(3, 1)]):
        for v in c.vertices:
            assert cylinder_normal_check(c, basis, v).passed


def test_cylinder_check_sums_each_distinct_cone_once():
    """The lift suite's 48 cylinder checks on the cube (six coordinate
    subspaces, eight vertices) meet 18 distinct cones (N(C, a) cap V, V):
    the Minkowski sum with V_perp is memoised on the body, so at most 18
    `pos_hull` calls sum them, and every verdict is unchanged."""
    c = Polytope(tuple(vec(*p) for p in product([-1, 1], repeat=3)))
    subspaces = [[unit(3, i)] for i in range(3)]
    subspaces += [[unit(3, i), unit(3, j)] for i in range(3) for j in range(i + 1, 3)]
    calls = [0]
    hull = eg.pos_hull

    def counting(*args):
        calls[0] += 1  # minkowski_sum_cone is the only caller in exactgeom
        return hull(*args)

    eg.pos_hull = counting
    try:
        reports = [(basis, v, cylinder_normal_check(c, basis, v))
                   for basis in subspaces for v in c.vertices]
    finally:
        eg.pos_hull = hull
    assert len(reports) == 48 and calls[0] <= 18
    for basis, v, rep in reports:
        fresh = minkowski_sum_cone(
            intersect_cones(normal_cone_at_point(c, v), subspace_cone(basis, 3)),
            subspace_cone([unit(3, i) for i in range(3) if unit(3, i) not in basis], 3))
        assert rep.passed and rep.formula_cone == fresh


def test_sharp_relations():
    sq = square()
    assert is_sharp_normal(sq, vec(1, 1))
    assert is_sharp_normal(sq, vec(1, 0))
    for x in sq.vertices:
        assert is_sharp_exposed(sq, x)
    assert is_sharp_exposed(sq, vec(0, 0))
    with pytest.raises(ZeroDirection):
        is_sharp_normal(sq, vec(0, 0))
    with pytest.raises(PointNotInBody):
        is_sharp_exposed(sq, vec(5, 5))


def test_normal_cone_at_point_rejects_points_off_the_body():
    """N(C, x) is defined for x in C only: off the body, or off its affine
    hull, it raises as `face_of_point` does, every time it is asked; on a
    grid around each body it answers exactly where `contains` holds."""
    sq = square()
    edge = Polytope((vec(0, 0, 0), vec(1, 1, 0)))
    for p, x in ((sq, vec(5, 5)), (sq, vec(F(3, 2), 0)),
                 (edge, vec(F(1, 2), F(1, 2), 1)), (edge, vec(2, 2, 0))):
        for _ in range(2):
            with pytest.raises(PointNotInBody):
                normal_cone_at_point(p, x)
    steps = [F(k, 2) for k in range(-3, 4)]
    for p in (sq, cube(), edge):
        for x in product(steps, repeat=p.ambient_dim):
            try:
                normal_cone_at_point(p, x)
                found = True
            except PointNotInBody:
                found = False
            assert found == p.contains(x), x


def test_atom_decompositions():
    c = cube()
    corner = c.face_of_point(vec(1, 1, 1))
    n = normal_cone(c, corner)
    atoms = atom_decomposition(c, n)
    assert len(atoms) == 3 and all(a.cone_dim == 1 for a in atoms)
    sq = square()
    quadrant = normal_cone(sq, sq.face_of_point(vec(1, 1)))
    assert len(atom_decomposition(sq, quadrant)) == 2
    ray = normal_cone(sq, sq.face_of_point(vec(1, 0)))
    assert atom_decomposition(sq, ray) == [ray]


def test_coatom_decompositions():
    c = cube()
    corner = c.face_of_point(vec(1, 1, 1))
    co = coatom_decomposition(c, corner)
    assert len(co) == 3 and all(f.dim == 2 for f in co)
    sq = square()
    vtx = sq.face_of_point(vec(1, 1))
    co = coatom_decomposition(sq, vtx)
    assert len(co) == 2 and all(f.dim == 1 for f in co)
    edge = sq.face_of_point(vec(1, 0))
    assert coatom_decomposition(sq, edge) == [edge]


def test_dual_coatom_bound_on_normal_lattice():
    # the facet-normal ray decomposes within the dual bound dim(F)+1 = 3
    c = cube()
    facet = c.face_of_point(vec(0, 0, 1))
    ray = normal_cone(c, facet)
    nl = normal_cone_lattice(c)
    idx = nl.index_of((ray.rays, ray.lineality))
    subset = decompose_by_coatoms(nl, idx, facet.dim + 1)
    assert subset is not None and len(subset) <= facet.dim + 1


def test_minkowski_atom_check():
    sq = square()
    edge = sq.face_of_point(vec(1, 0))
    atoms = minkowski_atom_check(sq, edge)
    assert [a.vset for a in atoms] == [{i} for i in edge.vertex_indices]
    vtx = sq.face_of_point(vec(1, 1))
    assert minkowski_atom_check(sq, vtx) == [vtx]
    c = cube()
    facet = c.face_of_point(vec(0, 0, 1))
    atoms = minkowski_atom_check(c, facet)
    assert len(atoms) <= 3 and all(a.dim == 0 and a.vset <= facet.vset for a in atoms)
    lat = exposed_face_lattice(c)
    assert lat.join(lat.index_of(a.key) for a in atoms) == lat.index_of(facet.key)


def test_invariant_violation_is_raised_not_asserted(monkeypatch):
    assert not issubclass(InvariantViolation, GeometryError)
    sq = square()
    f = support(sq, vec(1, 1))[1]
    monkeypatch.setattr(pt, "decompose_by_coatoms", lambda *a: None)
    with pytest.raises(InvariantViolation):
        coatom_decomposition(sq, f)


def _detail(report, check_id):
    return next(v.detail for v in report.verdicts if v.check_id == check_id)


def test_route_labels_in_antitone_details():
    rep = checks.run_suite(square(), "square", "antitone")
    assert "LP carrier-oracle face_lattice" in _detail(rep, "antitone.all_faces_exposed")
    assert ("active-facet normal_cone vs definitional normal_cone_at_point"
            in _detail(rep, "antitone.cone_constant_on_ri"))
    simplex4 = Polytope((vec(0, 0, 0, 0),) + tuple(unit(4, i) for i in range(4)))
    rep = checks.run_suite(simplex4, "simplex4", "antitone")
    assert "LP carrier-oracle face_lattice" in _detail(rep, "antitone.all_faces_exposed")
    assert all(v.status == "pass" for v in rep.verdicts)


PARTITION_VERDICTS = ("touching.partition_of_directions",
                      "partition.unique_touching_cone")


def _status(report, check_id):
    return next(v.status for v in report.verdicts if v.check_id == check_id)


# the claims that range over nothing on a single point, or degenerate there
POINT_EXCLUDED = (*PARTITION_VERDICTS, "sharp.normal_directions", "antitone.iso",
                  "antitone.face_from_ri_normal", "antitone.pointwise_duality",
                  "meets.normal_infimum_is_intersection", "meets.intersection_is_face",
                  "meets.exposed_intersection_witness", "coatoms.exposed_faces",
                  "coatoms.normal_atoms", "coatoms.minkowski_atoms",
                  "lift.exposed_face_transform")


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_partition_verdicts_skip_a_single_point(dim):
    """A point's only touching cone is the whole space, so no direction lies
    in a proper one: both partition verdicts are excluded by hypothesis, in
    2D too, where every compass direction would count 0, and no partition
    count is recorded.  A point has no sample direction, no proper face, no
    facet and one normal cone either, so every verdict that would pass
    having tested nothing is excluded by the same hypothesis, and so is the
    degenerate antitone isomorphism: 13 in all, and no other."""
    point = Polytope((vec(*range(1, dim + 1)),))
    assert checks._sample_directions(point) == []
    rep = checks.run_suite(point, "point", "all")
    assert rep.passed
    assert len(POINT_EXCLUDED) == 13
    assert {v.check_id for v in rep.verdicts if "single point" in v.detail} == set(
        POINT_EXCLUDED)
    for check_id in POINT_EXCLUDED:
        assert _status(rep, check_id) == "skip"
    assert "partition_directions" not in rep.counts


def _duplicated_full_cone(p, elements):
    whole = full_space(p.ambient_dim)
    return elements + (next(e for e in elements
                            if e.cone.cone_dim == p.ambient_dim and e.cone != whole),)


def _dropped_ray(p, elements):
    ray = next(e for e in elements if e.cone.cone_dim == 1)
    return tuple(e for e in elements if e is not ray)


@pytest.mark.parametrize("body", [cube, square])
@pytest.mark.parametrize("plant", [_duplicated_full_cone, _dropped_ray])
def test_planted_touching_cone_defects_fail_both_partition_verdicts(
        monkeypatch, body, plant):
    """An overlapping cone and a missing cone each fail both verdicts that
    read the run's one partition count."""
    p = body()
    real = touching_cone_lattice(p)
    planted = FiniteLattice(plant(p, real.elements), real.bottom, real.top,
                            real.down, real.up)
    assert len(planted) != len(real)
    monkeypatch.setattr(pt, "touching_cone_lattice", lambda q: planted)
    rep = checks.run_suite(p, "planted", "all")
    for check_id in PARTITION_VERDICTS:
        assert _status(rep, check_id) == "fail"


def test_partition_counted_once_per_run(monkeypatch):
    """One run builds the sample directions once, for the sharp, touching
    and partition suites, and counts the partition once for both verdicts."""
    calls = []

    def counting(name):
        fn = getattr(checks, name)
        return lambda *a: calls.append(name) or fn(*a)

    for name in ("_sample_directions", "_ri_counts"):
        monkeypatch.setattr(checks, name, counting(name))
    for _ in range(2):  # once per call, not once per process
        calls.clear()
        assert checks.run_suite(cube(), "cube", "all").passed
        assert sorted(calls) == ["_ri_counts", "_sample_directions"]
