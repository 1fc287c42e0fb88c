"""Randomized cross-checks between independent computation routes.

Random rational polytopes must give the same answers through the LP carrier
face route and the supporting-hyperplane route, the carrier closure must give
the faces the 2^n subset search it replaced gives, and random convex polygons
must give the same cones through the planar machinery and the polytope
machinery.  The directly built canonical cones (subspaces, faces of a cone,
active-facet normal cones) must equal what `pos_hull` and the definitional
dual give, and every cone and lift served from a body's tables must equal
one computed without them.  Every polytope lattice must be Eulerian, and
every check report must be invariant under symmetries and rescaling.
"""

import gc
import random
import weakref
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from facelat import bodyio, checks
from facelat import exactgeom as eg
from facelat import polytope as pt
from facelat.exactgeom import (PolyCone, cone_faces, dot, dual_cone,
                               hull_weight_support, in_ri_conv_hull, pos_hull,
                               project_onto, simplex_max, span_basis,
                               subspace_cone, unit, vadd, vec, vneg, vscale,
                               vsub, zero)
from facelat.lattice import (FiniteLattice, NotALattice, _bits, build_lattice,
                             lattice_map, verify_isomorphism)
from facelat.planar import (Cone2, FaceDescriptor, PlanarBody, Segment,
                            compass_directions, exposed_face, face_at,
                            normal_cone_at, polar_planar)
from facelat.polytope import (ConeElement, Polytope, exposed_face_lattice,
                              extreme_points, face_lattice, normal_cone,
                              normal_cone_at_point, normal_cone_lattice, polar,
                              pos_iso_check, projection, support,
                              touching_cone_lattice)

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


def carrier_total_weight_loop(points, x, known=()):
    """The carrier as computed before the least-weight LP: maximize the
    total weight on the indices not yet known to be positive until the
    optimum is 0."""
    rows = [[q[d] for q in points] for d in range(len(x))] + [[F(1)] * len(points)]
    out = set(known)
    while True:
        obj = [F(0 if j in out else 1) for j in range(len(points))]
        status, val, sol = simplex_max(obj, rows, list(x) + [F(1)])
        if status != "optimal":
            return set()
        if val == 0:
            return out
        out.update(j for j, w in enumerate(sol) if w > 0)


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


rational_coord = st.builds(F, coord, st.sampled_from([1, 1, 2, 3]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda d: st.tuples(
    points(d, rational_coord if d < 4 else small), st.tuples(*[rational_coord] * d),
    st.lists(st.integers(0, 5), min_size=1))))
def test_carrier_equals_total_weight_loop(case):
    """The least-weight LP first, then the loop: the same carrier as the
    loop alone, on random rational hulls, with and without `known`."""
    raw, outside, picks = case
    pts = [vec(*q) for q in raw]
    x = vec(*outside)
    assert hull_weight_support(pts, x) == carrier_total_weight_loop(pts, x)
    known = {i % len(pts) for i in picks}
    x = centroid([pts[i] for i in sorted(known)])
    want = carrier_total_weight_loop(pts, x, known)
    assert hull_weight_support(pts, x) == want == carrier_total_weight_loop(pts, x)
    assert hull_weight_support(pts, x, known=known) == want
    # nothing left unknown: no least-weight LP, whose t would be unbounded
    everything = set(range(len(pts)))
    assert hull_weight_support(pts, centroid(pts), known=everything) == everything


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda d: st.tuples(
    points(d, rational_coord if d < 4 else small), st.integers(min_value=0),
    st.lists(st.integers(0, 5), min_size=1))))
def test_carrier_inside_a_face_equals_carrier_over_all_points(case):
    """The face route solves a carrier over the vertices of a face G that
    contains the key: on random rational hulls that gives
    `hull_weight_support` over all the points, with and without `known`.
    When the key spans aff(G), the carrier is G, the route's shortcut."""
    raw, pick, picks = case
    p = build_polytope(raw)
    faces = [f for f in exposed_face_lattice(p).elements if f.vertex_indices]
    g = faces[pick % len(faces)]
    key = sorted({g.vertex_indices[i % len(g.vertex_indices)] for i in picks})
    x = p._centroid(key)
    want = hull_weight_support(p.vertices, x)
    assert hull_weight_support(p.vertices, x, known=key) == want
    rays = p._vertex_rays
    mask = lambda indices: sum(1 << i for i in indices)
    assert pt._carrier_in_face(rays, mask(g.vertex_indices), mask(key)) == mask(want)
    if pt._hull_dim(rays, tuple(key)) == g.dim:
        assert want == g.vset


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda d: st.tuples(
    points(d, rational_coord if d < 4 else small),
    st.lists(st.integers(0, 5), min_size=1))))
def test_grid_face_dimension_equals_affine_hull(case):
    """A face's dimension is the integer rank of its points' rays, less one
    (`_hull_dim`, which `make_face` uses).  On random subsets of random
    rational 1-4D point sets, and on every face of their hull, it equals the
    Fraction route it replaced, `aff_hull(...).dim`."""
    raw, picks = case
    pts = [vec(*x) for x in raw]
    rays = tuple(map(eg._ray, pts))
    idx = tuple(sorted({i % len(pts) for i in picks}))
    assert pt._hull_dim(rays, idx) == eg.aff_hull([pts[i] for i in idx]).dim
    p = build_polytope(raw)
    for f in exposed_face_lattice(p).elements[1:]:
        assert f.dim == eg.aff_hull(p.face_points(f)).dim


def count_lps(build):
    calls = [0]
    solve = eg.simplex_max

    def counting(*args):
        calls[0] += 1
        return solve(*args)

    eg.simplex_max = counting
    try:
        return build(), calls[0]
    finally:
        eg.simplex_max = solve


def test_face_lattice_solves_fewer_lps():
    """Each carrier is solved inside a face already found, and a key that
    spans that face, or holds a key already solved to it, needs no LP: the
    cube's face lattice takes 52 LPs (166 over all vertices, 299 with the
    total-weight loop alone), the 4-cube's 276 (2,491 over all vertices)."""
    lat, lps = count_lps(lambda: face_lattice(bodyio.load_fixture("cube")))
    assert len(lat.elements) == 28
    assert 0 < lps <= 60
    lat, lps = count_lps(lambda: face_lattice(bodyio.load_fixture("cube4")))
    assert len(lat.elements) == 82
    assert 0 < lps <= 300


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
        (a0, a1), (b0, b1) = vsub(a, (cx, cy)), vsub(b, (cx, cy))
        c = a0 * b1 - a1 * b0
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


# random 1-4D polytopes, and polytopes in a plane of R^3 and a line of R^4
tabled_bodies = st.one_of(
    any_dim_points,
    points(2).map(lambda ps: [(a, b, a - b) for a, b in ps]),
    points(1).map(lambda ps: [(a, 1, -a, 2 * a) for (a,) in ps]))


def assert_same_cone(k, ref):
    """k, served from a body's cone table, equals ref, computed without one,
    in its record and in every cached field; both equal a fresh recomputation,
    so the facet normals `pos_hull` seeds are checked too."""
    fresh = PolyCone(k.dim, k.rays, k.lineality)
    assert k.table.cones[(k.dim, k.rays, k.lineality)] is k
    assert (k.rays, k.lineality) == (ref.rays, ref.lineality)
    assert k.facet_normals == ref.facet_normals == fresh.facet_normals
    assert k.faces == ref.faces == fresh.faces
    assert all(f.table is k.table for f in k.faces)


@settings(max_examples=25, deadline=None)
@given(tabled_bodies)
def test_table_cones_equal_untabled_cones(raw):
    p = build_polytope(raw)
    d = p.ambient_dim
    lin_gens = [g for b in p.lin_perp for g in (b, vneg(b))]
    for f in exposed_face_lattice(p).elements:
        if not f.vertex_indices:
            continue
        gens = [fc.normal for fc in p.facets if f.vset <= fc.vertex_set]
        assert_same_cone(normal_cone(p, f), pos_hull(gens + lin_gens, d))
        for x in [p.ri_point(f), *p.ri_samples(f)]:
            ref = dual_cone(pos_hull([vsub(v, x) for v in p.vertices], d))
            assert_same_cone(normal_cone_at_point(p, x), ref)
    for el in (*normal_cone_lattice(p).elements, *touching_cone_lattice(p).elements):
        assert_same_cone(el.cone, PolyCone(d, el.cone.rays, el.cone.lineality))
    if p.dim == d and len(p.vertices) >= 2:
        # translated so that the origin is interior, the polar exists
        c = centroid(p.vertices)
        centred = Polytope(tuple(vsub(v, c) for v in p.vertices))
        assert pos_iso_check(centred).passed
        q = polar(centred)
        assert q.cone_table is centred.cone_table
        for f in face_lattice(q).elements:
            pts = q.face_points(f)
            assert_same_cone(pos_hull(pts, d, q.cone_table), pos_hull(pts, d))


def ref_ri_samples(p, f, count=3):
    """`Polytope.ri_samples` as it was summed before the vertex grid: each
    positive-weight mix as a sum of Fraction vectors."""
    pts = p.face_points(f)
    out = []
    for s in range(count):
        weights = [F(1 + (i + s) % len(pts)) for i in range(len(pts))]
        total = sum(weights)
        acc = zero(p.ambient_dim)
        for w, x in zip(weights, pts):
            acc = vadd(acc, vscale(w / total, x))
        if acc not in out:
            out.append(acc)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: points(d, rational_coord if d < 4 else small)))
def test_ri_samples_equal_fraction_mixes(raw):
    """The same sample points, in the same order, on random rational hulls."""
    p = build_polytope(raw)
    for f in face_lattice(p).elements:
        if f.vertex_indices:
            assert p.ri_samples(f) == ref_ri_samples(p, f)


@settings(max_examples=10, deadline=None)
@given(tabled_bodies)
@example([(0, 0, 1), (1, 0, 0), (0, 1, 0)])  # vertex 0 projects to 0 on e1 and e2
def test_memoised_lifts_equal_fresh_lifts(raw):
    p = build_polytope(raw)
    d = p.ambient_dim
    faces = [f for f in face_lattice(p).elements if f.vertex_indices]
    for size in range(1, d + 1):
        for coords in combinations(range(d), size):
            basis = [unit(d, i) for i in coords]
            canon = span_basis(basis)
            for f in faces:
                pts = [project_onto(canon, x) for x in p.face_points(f)]
                lifted = projection(p, basis).lift_point_set(f)
                assert lifted == pt._lift_vertices(p, canon, pts)


def test_cube_conversions_are_memoised(monkeypatch):
    """The cube's suites repeat about half of their H/V conversions (2,053
    calls on 1,030 distinct inputs before the cone table): the table must
    compute at most half of the calls."""
    computed = []
    core = eg._double_description

    def counting(*args):
        computed.append(args)
        return core(*args)

    monkeypatch.setattr(eg, "_double_description", counting)
    assert checks.run_suite(bodyio.load_fixture("cube"), "cube", "all").passed
    assert 0 < len(computed) <= 1026


def test_body_caches_die_with_the_body():
    p = Polytope((vec(-1, -1, 0), vec(1, -1, 0), vec(0, 2, 0), vec(0, 0, 1),
                  vec(0, 0, -1)))
    for build in (face_lattice, exposed_face_lattice, normal_cone_lattice,
                  touching_cone_lattice, polar):
        build(p)
    xy = [vec(1, 0, 0), vec(0, 1, 0)]
    q = projection(p, xy).polytope
    lifted = projection(p, xy).lift_face(q.make_face({0}))
    assert lifted == projection(p, xy).lift_face(q.make_face({0}))
    assert projection(p, [vec(1, 0, 0)]).lift_point_set(p.make_face({3}))
    edge = p.make_face({0, 3})
    cone = normal_cone(p, edge)
    assert cone == normal_cone_at_point(p, p.ri_point(edge))
    assert p._face_normal_cones and p._point_normal_cones
    assert pt.projection(p, [vec(1, 0, 0), vec(0, 1, 0)]).lifted_faces
    assert pt.projection(p, [vec(1, 0, 0)]).lifted_point_sets
    table = p.cone_table
    assert table.cones[(cone.dim, cone.rays, cone.lineality)] is cone
    assert table.conversions
    pol = polar(p)
    assert q.cone_table is table and pol.cone_table is table
    refs = [weakref.ref(x) for x in (p, table, cone, q, pol)]
    del p, table, cone, q, pol
    gc.collect()
    assert all(r() is None for r in refs)


def ri_counts_all_cones(cones, dirs):
    """The partition count by the reference predicate: every direction
    against every cone, through `PolyCone.ri_contains`."""
    return [sum(1 for c in cones if c.ri_contains(u)) for u in dirs]


def proper_touching_cones(p):
    whole = eg.full_space(p.ambient_dim)
    return [el.cone for el in touching_cone_lattice(p).elements if el.cone != whole]


def embedded(dim, rows):
    """Point lists of a lower dimension, mapped injectively into R^dim."""
    return st.lists(st.tuples(*[small] * len(rows[0])), min_size=1, max_size=6,
                    unique=True).map(
        lambda ps: [tuple(sum(a * r[k] for a, r in zip(q, rows)) for k in range(dim))
                    for q in ps])


# random bodies in 1-4D, some of them lower-dimensional in a higher ambient
# space, each with random rational directions of its ambient dimension
partition_cases = st.one_of(
    points(1), points(2, rational_coord), points(3, rational_coord), points(4, small),
    embedded(3, [(1, 0, 1), (0, 1, -1)]), embedded(4, [(1, 2, -1, 0)]),
    embedded(4, [(1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, -1)]),
).flatmap(lambda raw: st.tuples(
    st.just(raw), st.lists(st.tuples(*[rational_coord] * len(raw[0])), max_size=12)))


def partition_directions(p, extra):
    dirs = checks._sample_directions(p) + [vec(*u) for u in extra]
    if p.ambient_dim == 2:
        dirs += compass_directions(360)
    return dirs


@settings(max_examples=60, deadline=None)
@given(partition_cases)
@example(([(0, 0), (1, 0), (1, 1), (0, 1)], [(2, 1), (F(1, 2), F(1, 3))]))
def test_grouped_counts_equal_all_cones_scan(case):
    """Testing each span once and the facet rows only of the cones whose
    span holds the direction gives every direction the count of the plain
    scan: for the proper touching cones, with the whole space too, and for
    each cone alone, the only member of its span group."""
    raw, extra = case
    p = build_polytope(raw)
    dirs = partition_directions(p, extra)
    proper = proper_touching_cones(p)
    for cones in (proper, proper + [eg.full_space(p.ambient_dim)],
                  *([c] for c in proper)):
        assert checks._ri_counts(cones, dirs) == ri_counts_all_cones(cones, dirs)


@settings(max_examples=40, deadline=None)
@given(partition_cases, st.integers(min_value=0))
def test_grouped_counts_see_an_overlap_and_a_gap(case, pick):
    """A duplicated cone and a missing cone both leave a direction whose
    count is not 1, wherever that direction comes in the list."""
    raw, extra = case
    p = build_polytope(raw)
    proper = proper_touching_cones(p)
    sectors = [c for c in proper if c.ri_vector() is not None]
    assume(sectors)
    c = sectors[pick % len(sectors)]
    dirs = partition_directions(p, extra)
    at = pick % (len(dirs) + 1)
    dirs.insert(at, c.ri_vector())
    for cones, want in ((proper + [c], 2), ([k for k in proper if k != c], 0)):
        counts = checks._ri_counts(cones, dirs)
        assert counts == ri_counts_all_cones(cones, dirs)
        assert counts[at] == want
        assert not all(n == 1 for n in counts)


def test_lift_subspaces_are_canonicalised_once(monkeypatch):
    """The cube's lift suite asks about six coordinate subspaces: each is
    canonicalised once for its projection and once for its projection onto
    the body's directions, and every verdict is unchanged.  A face builds
    its vertex set once."""
    calls = [0]
    canonical = pt.span_basis

    def counting(vectors):
        calls[0] += 1
        return canonical(vectors)

    monkeypatch.setattr(pt, "span_basis", counting)
    cube = bodyio.load_fixture("cube")
    assert checks.run_suite(cube, "cube", "lift").passed
    assert calls[0] <= 12
    # a positive multiple of the basis finds the same projection record
    assert (pt.projection(cube, [vec(2, 0, 0)])
            is pt.projection(cube, [vec(1, 0, 0)]))
    face = face_lattice(cube).elements[-2]
    assert face.vset is face.vset


def test_lift_suite_reads_the_projection_record(monkeypatch):
    """Each lift reads the projection's slack rows, kept once per projected
    vertex, and a cylinder check at a vertex reads its projection off the
    record: the cube's lift suite makes 96 slack computations (336 when
    each lift rebuilt them) and 57 Gram solves (105)."""
    slacks, projections = [0], [0]
    slack, project = Polytope._slacks, pt.project_onto

    def counting_slacks(self, x):
        slacks[0] += 1
        return slack(self, x)

    def counting_project(basis, x):
        projections[0] += 1
        return project(basis, x)

    monkeypatch.setattr(Polytope, "_slacks", counting_slacks)
    monkeypatch.setattr(pt, "project_onto", counting_project)
    cube = bodyio.load_fixture("cube")
    assert checks.run_suite(cube, "cube", "lift").passed
    assert 0 < slacks[0] <= 100
    assert 0 < projections[0] <= 60


def test_lift_suite_derives_one_body_per_subspace(monkeypatch):
    """The cube's lift suite derives one body per coordinate subspace, its
    projection; a lift system reads its facets off the projected points
    and builds no body, so it never asks for their extreme points."""
    derived = []
    in_system = [False]
    in_system_extreme = []
    derive, lift_vertices, extreme = Polytope._derive, pt._lift_vertices, pt.extreme_points

    def counting_derive(self, vertices):
        derived.append(vertices)
        return derive(self, vertices)

    def flagged_lift_vertices(*args):
        in_system[0] = True
        try:
            return lift_vertices(*args)
        finally:
            in_system[0] = False

    def watched_extreme(points):
        if in_system[0]:
            in_system_extreme.append(points)
        return extreme(points)

    monkeypatch.setattr(Polytope, "_derive", counting_derive)
    monkeypatch.setattr(pt, "_lift_vertices", flagged_lift_vertices)
    monkeypatch.setattr(pt, "extreme_points", watched_extreme)
    cube = bodyio.load_fixture("cube")
    assert checks.run_suite(cube, "cube", "lift").passed
    assert 0 < len(derived) <= 6
    assert not in_system_extreme


def test_projection_record_holds_the_subspace_memos():
    """One record per canonical subspace holds the projection and its lift
    and cylinder memos; its methods read and fill them."""
    p = Polytope((vec(-1, -1, 0), vec(1, -1, 0), vec(0, 2, 0), vec(0, 0, 1),
                  vec(0, 0, -1)))
    rec = pt.projection(p, [vec(0, 3, 0), vec(2, 0, 0)])
    assert rec is pt.projection(p, [vec(1, 0, 0), vec(0, 1, 0)])
    assert rec.basis == span_basis([vec(1, 0, 0), vec(0, 1, 0)])
    assert rec.points == tuple(project_onto(rec.basis, v) for v in p.vertices)
    assert rec.polytope.cone_table is p.cone_table
    q = rec.polytope
    lifted = {f.key: rec.lift_face(f) for f in face_lattice(q).elements
              if f.vertex_indices}
    assert rec.lifted_faces == lifted
    lifts = {rec.lift_point_set(f) for f in face_lattice(p).elements if f.vertex_indices}
    assert set(rec.lifted_point_sets.values()) == lifts
    for v in p.vertices:
        rep = rec.cylinder_normal_check(v)
        assert rep.passed and rep.formula_cone in rec.sums.values()
    assert rec.v_cone == subspace_cone(rec.basis, 3)
    assert rec.perp_cone == subspace_cone([unit(3, 2)], 3)
    assert set(p._projections.values()) == {rec}


# ---------------------------------------------------------------------------
# the meets suite on (element, meet-irreducible) pairs
# ---------------------------------------------------------------------------

MEETS_IDS = ("meets.normal_infimum_is_intersection", "meets.intersection_is_face")


def all_pairs_meets(p, nl):
    """The two meets verdicts as the all-pairs loop gave them before the
    irreducible pairs: every unordered pair of the lattice intersected.  On
    a single point, whose only normal cone is the whole space, both claims
    are excluded by hypothesis."""
    if not p.dim:
        return dict.fromkeys(MEETS_IDS, "skip")
    whole = eg.full_space(p.ambient_dim)
    ok_meet = ok_face = True
    for i, a in enumerate(nl.elements):
        for j in range(i, len(nl.elements)):
            b = nl.elements[j]
            inter = eg.intersect_cones(a.cone, b.cone)
            if inter != nl.elements[nl.meet([i, j])].cone:
                ok_meet = False
            if any(c != whole and not inter.is_face_of(c) for c in (a.cone, b.cone)):
                ok_face = False
    return {MEETS_IDS[0]: "pass" if ok_meet else "fail",
            MEETS_IDS[1]: "pass" if ok_face else "fail"}


def meets_verdicts(p, nl=None):
    """The meets suite's two verdicts on p, run on the lattice nl in place of
    p's normal-cone lattice when one is given."""
    if nl is not None:
        p.__dict__["_normal_lattice"] = nl
    out = []
    checks._meets_polytope(p, out, {}, None)
    return {v.check_id: v.status for v in out if v.check_id in MEETS_IDS}


def without_relation(nl, i, j):
    """nl with the cover relation i < j removed, or None when what is left
    is no lattice.  The down-set rows are inclusion masks of nl's order; as
    nothing lies strictly between i and j, dropping bit i from j's row
    removes that relation alone."""
    masks = list(nl.down)
    masks[j] &= ~(1 << i)
    try:
        return build_lattice(nl.elements, masks)
    except NotALattice:
        return None


def with_swapped_cones(nl, i, j):
    """nl with the cones of elements i and j exchanged, the rows kept."""
    els = list(nl.elements)
    els[i], els[j] = els[j], els[i]
    return FiniteLattice(tuple(els), nl.bottom, nl.top, nl.down, nl.up)


def wrong_relation(nl):
    """nl with its first cover relation removed whose removal leaves a
    lattice, or None: in the normal fans of 3D and 4D bodies none does."""
    return next(filter(None, (without_relation(nl, i, j) for i, j in nl.hasse_edges())),
                None)


def swapped_neighbours(nl):
    """nl with the cones of its first two neighbouring coatoms (two with a
    common lower cover) exchanged."""
    a, b = next((a, b) for a, b in combinations(nl.coatoms(), 2)
                if any(nl.covers(c, a) and nl.covers(c, b) for c in range(len(nl))))
    return with_swapped_cones(nl, a, b)


def test_meets_on_irreducible_pairs_equal_all_pairs_on_fixtures():
    for name in bodyio.list_fixtures():
        p = bodyio.load_fixture(name)
        if not isinstance(p, Polytope):
            continue
        want = all_pairs_meets(p, normal_cone_lattice(p))
        assert meets_verdicts(p) == want == dict.fromkeys(MEETS_IDS, "pass"), name


@settings(max_examples=40, deadline=None)
@given(tabled_bodies | st.integers(min_value=1, max_value=3).flatmap(
    lambda d: points(d, rational_coord)), st.integers(min_value=0))
def test_meets_on_irreducible_pairs_equal_all_pairs(raw, pick):
    """The same verdicts as the all-pairs loop, on the normal-cone lattice
    and on copies with a cover relation removed or two cones exchanged."""
    p = build_polytope(raw)
    nl = normal_cone_lattice(p)
    n = len(nl)
    edges = nl.hasse_edges()
    i = pick % n
    j = (i + 1 + pick // n % n) % n  # another element, unless pick // n % n == n - 1
    lattices = [nl, with_swapped_cones(nl, i, j)]
    if edges:
        lattices.append(without_relation(nl, *edges[pick % len(edges)]))
    for lat in filter(None, lattices):
        assert meets_verdicts(p, lat) == all_pairs_meets(p, lat)


def test_meets_fails_on_planted_defects():
    """A wrong order relation (on the square: in 3D and 4D no single one
    leaves a lattice) and two neighbouring cones exchanged each fail the
    infimum verdict, through both loops."""
    square = bodyio.load_fixture("square")
    defects = [(square, wrong_relation(normal_cone_lattice(square)))]
    for name in ("square", "cube", "cross4"):
        p = bodyio.load_fixture(name)
        defects.append((p, swapped_neighbours(normal_cone_lattice(p))))
    for p, lat in defects:
        assert all_pairs_meets(p, lat)[MEETS_IDS[0]] == "fail"
        assert meets_verdicts(p, lat)[MEETS_IDS[0]] == "fail"


def test_cube_meets_intersects_at_most_189_pairs(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return eg.intersect_cones(a, b)

    monkeypatch.setattr(checks, "intersect_cones", counting)
    assert checks.run_suite(bodyio.load_fixture("cube"), "cube", "meets").passed
    assert 0 < len(calls) <= 189


def test_seeded_intersection_skipping_a_row_fails_meets(monkeypatch):
    """A seeded intersection that leaves out the last row it adds fails the
    infimum verdict: the seed does not make the check vacuous."""
    cube = bodyio.load_fixture("cube")
    assert meets_verdicts(cube)[MEETS_IDS[0]] == "pass"
    core = eg._seeded_description

    def skipping(seed, eqs, ineqs):
        if ineqs:
            return core(seed, eqs, ineqs[:-1])
        return core(seed, eqs[:-1], ineqs)

    monkeypatch.setattr(eg, "_seeded_description", skipping)
    assert meets_verdicts(bodyio.load_fixture("cube"))[MEETS_IDS[0]] == "fail"


def test_seeded_lift_dropping_a_slab_equality_fails_lift(monkeypatch):
    """A seeded lift enumeration that drops a slab equality fails the lift
    isomorphism verdict."""
    core = eg._seeded_description

    def lift_verdict(cube):
        out = []
        checks._lift_polytope(cube, out, {}, None)
        return next(v.status for v in out if v.check_id == "lift.lattice_isomorphisms")

    assert lift_verdict(bodyio.load_fixture("cube")) == "pass"
    cube = bodyio.load_fixture("cube")
    dropped = []

    def dropping(seed, eqs, ineqs):
        if seed is cube._vertex_cone and eqs:
            dropped.append(eqs[-1])
            eqs = eqs[:-1]
        return core(seed, eqs, ineqs)

    monkeypatch.setattr(eg, "_seeded_description", dropping)
    assert lift_verdict(cube) == "fail"
    assert dropped


# ---------------------------------------------------------------------------
# Euler-Poincare guards: every polytope lattice is Eulerian
# ---------------------------------------------------------------------------

def non_eulerian_intervals(lat):
    """The intervals [G, F], G < F, of the lattice that do not hold as many
    elements of even rank as of odd rank (Euler-Poincare; Ziegler,
    *Lectures on Polytopes*, ch. 8), as index pairs.  The rank is the height
    above the bottom, not the dimension: in the normal and touching lattices
    the whole space shares dimension d with the cones of the vertices."""
    height = [0] * len(lat)
    for x in sorted(range(len(lat)), key=lambda i: lat.down[i].bit_count()):
        height[x] = 1 + max((height[y] for y in _bits(lat.down[x] ^ 1 << x)), default=-1)
    even = sum(1 << x for x, h in enumerate(height) if h % 2 == 0)
    return [(g, f) for g, up in enumerate(lat.up) for f in _bits(up ^ 1 << g)
            if 2 * (up & lat.down[f] & even).bit_count() != (up & lat.down[f]).bit_count()]


def assert_eulerian(p):
    for build in (face_lattice, exposed_face_lattice, normal_cone_lattice,
                  touching_cone_lattice):
        assert non_eulerian_intervals(build(p)) == [], build.__name__


def centred(p):
    """p translated by its vertex centroid, which is interior when p is
    full-dimensional: the polar then has vertices over mixed denominators."""
    c = [sum(col) / len(p.vertices) for col in zip(*p.vertices)]
    return Polytope(tuple(vsub(v, c) for v in p.vertices))


POLYTOPE_FIXTURES = sorted(name for name in bodyio.list_fixtures()
                           if isinstance(bodyio.load_fixture(name), Polytope))


def test_polytope_fixtures_are_drawn():
    assert POLYTOPE_FIXTURES == ["cell24", "cross4", "cube", "cube4", "segment",
                                 "simplex4", "square", "triangle"]


@pytest.mark.parametrize("name", POLYTOPE_FIXTURES)
def test_fixture_lattices_are_eulerian(name):
    assert_eulerian(bodyio.load_fixture(name))


@settings(max_examples=40, deadline=None)
@given(any_dim_points)
@example([(0, 0, 0), (2, 1, 0), (1, 2, 0)])  # a triangle in 3D
@example([(0, 0, 0, 0), (1, 2, -1, 1)])  # a segment in 4D
def test_random_hull_lattices_are_eulerian(raw):
    """Random hulls in 1-4D, lower-dimensional ones and points included."""
    assert_eulerian(build_polytope(raw))


@settings(max_examples=20, deadline=None)
@given(st.one_of(points(2), points(3)))
@example([(0, 0), (2, 0), (1, 1)])  # the triangle about (1, 1/3)
def test_random_polar_lattices_are_eulerian(raw):
    p = build_polytope(raw)
    assume(p.dim == p.ambient_dim)
    assert_eulerian(polar(centred(p)))


def test_euler_guard_catches_a_defect_both_face_routes_share(monkeypatch):
    """Both face routes order their faces through `_vertex_set_lattice`.
    With the square's edge (0, 1) dropped there, the two routes return the
    same wrong lattice, so comparing them shows nothing; the guard finds its
    three non-Eulerian intervals, and the check run stops on the segment a
    projection of the square gives, where the dropped face was the whole."""
    real = pt._vertex_set_lattice
    monkeypatch.setattr(pt, "_vertex_set_lattice", lambda faces: real(
        [f for f in faces if f.vertex_indices != (0, 1)]))
    square = bodyio.load_fixture("square")
    lat = face_lattice(square)
    assert [f.key for f in lat.elements] == [f.key for f in exposed_face_lattice(square).elements]
    assert len(lat) == 9 and (0, 1) not in lat._by_key
    assert len(non_eulerian_intervals(lat)) == 3
    with pytest.raises(NotALattice):
        checks.run_suite(square, "square", "all")


# ---------------------------------------------------------------------------
# check reports are invariant under symmetries and rescaling
# ---------------------------------------------------------------------------

def report_signature(p):
    rep = checks.run_suite(p, "body", "all")
    return [(v.check_id, v.status) for v in rep.verdicts], rep.counts


def signed_permutation(p, rng):
    """p under a random signed permutation of its coordinates, with its
    vertices listed in a random order."""
    d = p.ambient_dim
    perm = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    verts = [tuple(s * v[k] for s, k in zip(signs, perm)) for v in p.vertices]
    rng.shuffle(verts)
    return Polytope(tuple(verts))


SYMMETRY_BODIES = {
    **{name: lambda name=name: bodyio.load_fixture(name)
       for name in ("cube", "square", "triangle", "segment", "simplex4", "cross4")},
    "simplex4_polar": lambda: polar(bodyio.load_fixture("simplex4")),
    "triangle_centred_polar": lambda: polar(centred(bodyio.load_fixture("triangle"))),
    "cube4": lambda: bodyio.load_fixture("cube4"),
}


@pytest.mark.parametrize("seed, name", enumerate(SYMMETRY_BODIES))
def test_check_reports_are_invariant_under_symmetries_and_scaling(seed, name):
    """Verdict ids, statuses and counts of `run_suite(..., "all")` do not
    change under a seeded signed coordinate permutation with a vertex
    reorder, nor under scaling by 7/3.  Translation is left out: it moves
    the origin, and with it whether the polar suite applies."""
    p = SYMMETRY_BODIES[name]()
    want = report_signature(Polytope(p.vertices))
    assert report_signature(signed_permutation(p, random.Random(seed))) == want
    assert report_signature(Polytope(tuple(vscale(F(7, 3), v) for v in p.vertices))) == want


mixed_coord = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=2, max_value=3).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[mixed_coord] * d), min_size=d + 1, max_size=d + 2,
             unique=True),
    st.integers(min_value=0))))
def test_check_reports_on_rational_hulls_are_invariant_under_symmetries_and_scaling(case):
    """The invariance above on drawn 2-3D hulls with mixed denominators,
    translated by their vertex centroid so that the polar suite runs: its
    polar body has vertices over other denominators again."""
    raw, seed = case
    p = build_polytope(raw)
    assume(p.dim == p.ambient_dim)
    p = centred(p)
    want = report_signature(p)
    assert report_signature(signed_permutation(p, random.Random(seed))) == want
    assert report_signature(Polytope(tuple(vscale(F(7, 3), v) for v in p.vertices))) == want
