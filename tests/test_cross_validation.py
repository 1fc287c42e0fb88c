"""Randomized cross-checks between independent computation routes.

Random rational polytopes must give the same answers through the LP carrier
face route and the supporting-hyperplane route, the carrier closure must give
the faces the 2^n subset search it replaced gives, and random convex polygons
must give the same cones through the planar machinery and the polytope
machinery.  The directly built canonical cones (subspaces, faces of a cone,
active-facet normal cones) must equal what `pos_hull` and the definitional
dual give.
"""

import gc
import weakref
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from facelat.exactgeom import (PolyCone, cone_faces, cross2, dot,
                               hull_weight_support, in_ri_conv_hull, pos_hull,
                               simplex_max, subspace_cone, vadd, vec, vneg,
                               vscale, vsub, zero)
from facelat.lattice import lattice_map, verify_isomorphism
from facelat.planar import (Cone2, FaceDescriptor, PlanarBody, Segment,
                            compass_directions, exposed_face, face_at,
                            normal_cone_at, polar_planar)
from facelat.polytope import (ConeElement, Polytope, exposed_face_lattice,
                              extreme_points, face_lattice, lift_face,
                              normal_cone, normal_cone_at_point,
                              normal_cone_lattice, polar, project_polytope,
                              support, touching_cone_lattice)

coord = st.integers(min_value=-3, max_value=3)
small = st.integers(min_value=-2, max_value=2)


def points(dim, elements=coord):
    return st.lists(st.tuples(*[elements] * dim), min_size=1, max_size=6, unique=True)


# random point sets in 1-4D; the 4D ones are drawn from {-2..2}^4
any_dim_points = st.one_of(points(1), points(2), points(3), points(4, small))

# random vector lists in 1-4D, zero and dependent vectors allowed
vector_lists = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.tuples(*[small] * d), max_size=5)))


def build_polytope(raw_points):
    pts = extreme_points([vec(*p) for p in raw_points])
    assume(pts)
    return Polytope(tuple(pts))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=6, unique=True))
def test_random_2d_face_routes_agree(raw):
    p = build_polytope(raw)
    brute = {f.key for f in face_lattice(p).elements}
    hyper = {f.key for f in exposed_face_lattice(p).elements}
    assert brute == hyper


@settings(max_examples=12, deadline=None)
@given(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=6,
                unique=True))
def test_random_3d_lattices_consistent(raw):
    p = build_polytope(raw)
    fl = exposed_face_lattice(p)
    nl = normal_cone_lattice(p)
    tl = touching_cone_lattice(p)
    assert {e.key for e in nl.elements} == {e.key for e in tl.elements}
    if len(p.vertices) >= 2:
        rep = verify_isomorphism(lattice_map(
            fl, nl, lambda f: ConeElement(normal_cone(p, f)), "antitone"))
        assert rep.passed, rep.failures


def carrier_per_index(points, x):
    """The carrier as it was first computed: one LP per index."""
    rows = [[q[d] for q in points] for d in range(len(x))] + [[F(1)] * len(points)]
    out = set()
    for i in range(len(points)):
        obj = [F(1 if j == i else 0) for j in range(len(points))]
        status, val, _ = simplex_max(obj, rows, list(x) + [F(1)])
        if status != "optimal":
            return set()
        if val > 0:
            out.add(i)
    return out


def centroid(points):
    acc = zero(len(points[0]))
    for q in points:
        acc = vadd(acc, q)
    return vscale(F(1, len(points)), acc)


def faces_by_subsets(p):
    """Face keys in lattice order from the 2^n subset search the closure replaced."""
    n = len(p.vertices)
    faces = [p.make_face(frozenset())]
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            x = centroid([p.vertices[i] for i in subset])
            if carrier_per_index(p.vertices, x) == set(subset):
                faces.append(p.make_face(frozenset(subset)))
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    return [f.key for f in faces]


@settings(max_examples=25, deadline=None)
@given(st.one_of(points(2), points(3)))
def test_carrier_closure_equals_subset_search(raw):
    p = build_polytope(raw)
    assert [f.key for f in face_lattice(p).elements] == faces_by_subsets(p)


@settings(max_examples=15, deadline=None)
@given(points(4, small))
def test_4d_carrier_closure_equals_exposed_route(raw):
    p = build_polytope(raw)
    assert ([f.key for f in face_lattice(p).elements]
            == [f.key for f in exposed_face_lattice(p).elements])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(lambda d: st.tuples(
    points(d), st.tuples(*[coord] * d), st.lists(st.integers(0, 5), min_size=1))))
def test_carrier_equals_per_index_reference(case):
    raw, outside, picks = case
    pts = [vec(*q) for q in raw]
    # a random lattice point, often outside the hull, and a centroid of some
    # of the points, inside it, with those points known to be positive
    x = vec(*outside)
    assert hull_weight_support(pts, x) == carrier_per_index(pts, x)
    known = {i % len(pts) for i in picks}
    x = centroid([pts[i] for i in sorted(known)])
    want = carrier_per_index(pts, x)
    assert known <= want
    assert hull_weight_support(pts, x) == want
    assert hull_weight_support(pts, x, known=known) == want


def ccw_polygon(raw_points):
    """Extreme points ordered counterclockwise around the centroid, exactly."""
    pts = extreme_points([vec(*p) for p in raw_points])
    assume(len(pts) >= 3)
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        c = cross2(vsub(a, (cx, cy)), vsub(b, (cx, cy)))
        return -1 if c > 0 else (1 if c < 0 else 0)

    ordered = sorted(pts, key=cmp_to_key(cmp))
    feats = tuple(Segment(ordered[i], ordered[(i + 1) % len(ordered)])
                  for i in range(len(ordered)))
    n = len(feats)
    return PlanarBody(feats, (True,) * n, (True,) * n), ordered


def cone2_as_polycone(c: Cone2):
    return pos_hull(c.generators(), 2) if c.generators() else pos_hull([], 2)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=7, unique=True))
def test_random_polygons_agree_across_modules(raw):
    body, ordered = ccw_polygon(raw)
    p = Polytope(tuple(sorted(ordered)))
    # vertex normal cones agree
    for v in ordered:
        c2 = normal_cone_at(body, FaceDescriptor.vertex(v))
        c3 = normal_cone(p, p.face_of_point(v))
        assert cone2_as_polycone(c2) == c3
    # edge normal cones agree
    for i, f in enumerate(body.features):
        c2 = normal_cone_at(body, FaceDescriptor.edge(i))
        mid = vec((f.start[0] + f.end[0]) / 2, (f.start[1] + f.end[1]) / 2)
        c3 = normal_cone(p, p.face_of_point(mid))
        assert cone2_as_polycone(c2) == c3
    # exposed faces agree on a spread of directions
    for u in compass_directions(24):
        fd = exposed_face(body, u)
        _, pf = support(p, u)
        pts = {p.vertices[i] for i in pf.vertex_indices}
        if fd.tag == "vertex":
            assert pts == {fd.point}
        else:
            feat = body.features[fd.feature]
            assert pts == {feat.start, feat.end}


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=7, unique=True))
def test_random_polygon_polars_agree_across_modules(raw):
    body, ordered = ccw_polygon(raw)
    assume(in_ri_conv_hull(list(ordered), vec(0, 0)))
    p = Polytope(tuple(sorted(ordered)))
    q = polar(p)
    mouse = polar_planar(body)
    assert set(mouse.junctions) == set(q.vertices)
    # interior points of the polygon land in the whole-body face
    assert face_at(body, vec(0, 0)) == FaceDescriptor.whole()


@settings(max_examples=25, deadline=None)
@given(any_dim_points)
def test_active_facet_normal_cone_equals_definitional_dual(raw):
    p = build_polytope(raw)
    for f in exposed_face_lattice(p).elements:
        if f.vertex_indices:
            assert normal_cone(p, f) == normal_cone_at_point(p, p.ri_point(f))


@settings(max_examples=60, deadline=None)
@given(vector_lists)
def test_subspace_cone_equals_pos_hull_of_both_signs(case):
    dim, raw = case
    basis = [vec(*b) for b in raw]
    assert subspace_cone(basis, dim) == pos_hull(basis + [vneg(b) for b in basis], dim)


def faces_by_pos_hull(k: PolyCone) -> list[PolyCone]:
    """Faces of k rebuilt by brute force: pos_hull of the rays on each facet set."""
    normals = k.facet_normals
    lin_gens = [g for b in k.lineality for g in (b, vneg(b))]
    seen = {}
    for mask in range(1 << len(normals)):
        active = [normals[i] for i in range(len(normals)) if mask >> i & 1]
        gens = [r for r in k.rays if all(dot(n, r) == 0 for n in active)] + lin_gens
        face = pos_hull(gens, k.dim)
        seen.setdefault((face.rays, face.lineality), face)
    return sorted(seen.values(), key=lambda f: (f.cone_dim, f.rays, f.lineality))


@settings(max_examples=60, deadline=None)
@given(vector_lists)
def test_direct_cone_faces_equal_pos_hull_faces(case):
    dim, raw = case
    k = pos_hull([vec(*g) for g in raw], dim)
    assert cone_faces(k) == faces_by_pos_hull(k)


def test_cone_faces_returns_a_fresh_list():
    k = pos_hull([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)])
    first = cone_faces(k)
    want = list(first)
    first.clear()
    first.append(k)
    assert cone_faces(k) == want and len(want) == 8


def test_body_caches_die_with_the_body():
    p = Polytope((vec(-1, -1, 0), vec(1, -1, 0), vec(0, 2, 0), vec(0, 0, 1),
                  vec(0, 0, -1)))
    for build in (face_lattice, exposed_face_lattice, normal_cone_lattice,
                  touching_cone_lattice, polar):
        build(p)
    q = project_polytope(p, [vec(1, 0, 0), vec(0, 1, 0)])
    lifted = lift_face(p, [vec(1, 0, 0), vec(0, 1, 0)], q.make_face({0}))
    assert lifted == lift_face(p, [vec(1, 0, 0), vec(0, 1, 0)], q.make_face({0}))
    edge = p.make_face({0, 3})
    assert normal_cone(p, edge) == normal_cone_at_point(p, p.ri_point(edge))
    assert p._face_normal_cones and p._point_normal_cones and p._lifted_faces
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None
