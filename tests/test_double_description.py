"""The double-description core and the intersection closure against the
brute-force routines they replaced.

The reference functions below are the subset enumerations the package used
before: every (w-1)-subset of the generators for cone facets, every subset of
normals for cone rays, every d-subset of vertices for polytope facets, every
subset of inequalities for vertices, and all 2^F facet subsets for the faces
of a cone and the exposed faces of a polytope.  Random 1-4D inputs must give
identical records, keys and order through both routes.
"""

from fractions import Fraction as F
from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from facelat import polytope as pt
from facelat.exactgeom import (PolyCone, _cone_facet_normals, cone_from_hrep,
                               dot, double_description, dual_cone,
                               intersect_cones, intersection_closure, is_zero,
                               kernel_basis, orth_complement, pos_hull,
                               primitive, project_onto, rank, solve_linear,
                               span_basis, subspace_intersection, unit, vadd,
                               vec, vneg, vscale, vsub, zero)
from facelat.lattice import build_lattice
from facelat.polytope import (Facet, Polytope, _vertex_enumerate,
                              exposed_face_lattice, extreme_points,
                              lift_point_set, touching_cone_lattice)


# ---------------------------------------------------------------------------
# the replaced routines
# ---------------------------------------------------------------------------

def ref_cone_facet_normals(gens, span):
    w = len(span)
    if w == 0:
        return ()
    normals = set()
    for subset in combinations(range(len(gens)), w - 1):
        rows = [tuple(dot(span[i], gens[s]) for i in range(w)) for s in subset]
        ker = kernel_basis(rows, w)
        if len(ker) != 1:
            continue
        n = zero(len(gens[0]))
        for a, b in zip(ker[0], span):
            n = vadd(n, vscale(a, b))
        prods = [dot(n, g) for g in gens]
        if all(p <= 0 for p in prods):
            normals.add(primitive(n))
        elif all(p >= 0 for p in prods):
            normals.add(primitive(vneg(n)))
    return tuple(sorted(normals))


def ref_pos_hull(generators, dim):
    gens = [g for g in generators if not is_zero(g)]
    if not gens:
        return PolyCone(dim, (), ())
    span = span_basis(gens)
    normals = ref_cone_facet_normals(gens, span)
    lin = kernel_basis(list(normals), dim) if normals else span
    if normals:
        lin = subspace_intersection(lin, span, dim)
    rays = set()
    spanc = list(orth_complement(span, dim))
    for g in gens:
        r0 = vsub(g, project_onto(lin, g))
        if is_zero(r0):
            continue
        active = [n for n in normals if dot(n, g) == 0]
        if len(kernel_basis(active + spanc, dim)) == len(lin) + 1:
            rays.add(primitive(r0))
    return PolyCone(dim, tuple(sorted(rays)), lin)


def ref_cone_from_hrep(span, normals, dim):
    w = len(span)
    if w == 0:
        return PolyCone(dim, (), ())
    span_c = list(orth_complement(span, dim))
    lin = kernel_basis(list(normals) + span_c, dim)
    candidates = set()
    want = w - len(lin) - 1
    if want >= 0:
        for subset in combinations(range(len(normals)), want):
            ker = kernel_basis([normals[s] for s in subset] + span_c, dim)
            if len(ker) != len(lin) + 1:
                continue
            for base in ker:
                d = vsub(base, project_onto(lin, base))
                if is_zero(d):
                    continue
                for cand in (d, vneg(d)):
                    if all(dot(n, cand) <= 0 for n in normals):
                        candidates.add(primitive(cand))
    gens = list(candidates) + [g for b in lin for g in (b, vneg(b))]
    return ref_pos_hull(gens, dim)


def ref_facet_normals(k):
    gens = k.generators()
    return ref_cone_facet_normals(gens, k.span) if gens else ()


def ref_dual_cone(k):
    gens = list(ref_facet_normals(k))
    for b in k.span_perp:
        gens += [b, vneg(b)]
    return ref_pos_hull(gens, k.dim)


def ref_intersect_cones(a, b):
    span = subspace_intersection(a.span, b.span, a.dim)
    return ref_cone_from_hrep(span, list(ref_facet_normals(a)) + list(ref_facet_normals(b)),
                              a.dim)


def ref_cone_faces(k):
    normals = ref_facet_normals(k)
    seen = {}
    for mask in range(1 << len(normals)):
        active = [normals[i] for i in range(len(normals)) if mask >> i & 1]
        rays = tuple(r for r in k.rays if all(dot(n, r) == 0 for n in active))
        seen.setdefault(rays, PolyCone(k.dim, rays, k.lineality))
    return tuple(sorted(seen.values(), key=lambda f: (f.cone_dim, f.rays)))


def ref_enumerate_facets(vertices, affine):
    d = affine.dim
    if d == 0:
        return ()
    dirs = affine.directions
    local = [tuple(dot(b, v) for b in dirs) for v in vertices]
    found = {}
    for subset in combinations(range(len(vertices)), d):
        if any(f.vertex_set.issuperset(subset) for f in found.values()):
            continue
        base = vertices[subset[0]]
        rows = [vsub(local[s], local[subset[0]]) for s in subset[1:]]
        ker = kernel_basis(rows, d)
        if len(ker) != 1:
            continue
        n = zero(len(base))
        for a, b in zip(ker[0], dirs):
            n = vadd(n, vscale(a, b))
        c = dot(n, base)
        above = below = False
        for v in vertices:
            t = dot(n, v) - c
            above, below = above or t > 0, below or t < 0
            if above and below:
                break
        if above and below:
            continue
        n = primitive(vneg(n) if above else n)
        c = dot(n, base)
        if n not in found:
            vset = frozenset(i for i, v in enumerate(vertices) if dot(n, v) == c)
            found[n] = Facet(n, c, vset)
    return tuple(found[k] for k in sorted(found))


def ref_exposed_lattice(p, facets):
    n = len(p.vertices)
    vsets = {frozenset(range(n)), frozenset()}
    for size in range(1, len(facets) + 1):
        for subset in combinations(facets, size):
            inter = subset[0].vertex_set
            for f in subset[1:]:
                inter &= f.vertex_set
            vsets.add(inter)
    faces = []
    for vset in vsets:
        if vset == frozenset(range(n)) or not vset:
            faces.append(p.make_face(vset))
            continue
        witness = zero(p.ambient_dim)
        for f in facets:
            if vset <= f.vertex_set:
                witness = vadd(witness, f.normal)
        faces.append(p.make_face(vset, primitive(witness)))
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    return build_lattice(faces, lambda a, b: a.vset <= b.vset)


def ref_vertex_enumerate(equalities, inequalities, dim):
    eq_rows = [e[0] for e in equalities]
    eq_rhs = [e[1] for e in equalities]
    need = dim - rank(eq_rows)
    out = set()
    for subset in combinations(range(len(inequalities)), need):
        rows = eq_rows + [inequalities[i][0] for i in subset]
        rhs = eq_rhs + [inequalities[i][1] for i in subset]
        if rank(rows) != dim:
            continue
        x = solve_linear(rows, rhs)
        if x is not None and all(dot(n, x) <= c for n, c in inequalities):
            out.add(x)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

small = st.integers(min_value=-2, max_value=2)
dims = st.integers(min_value=1, max_value=4)


@st.composite
def vectors(draw, dim):
    """Vectors in {-2..2}^dim, with zero, duplicate, dependent and opposite
    vectors mixed in; "subspace" adds the negative of every vector so far."""
    gens = [vec(*g) for g in draw(st.lists(st.tuples(*[small] * dim), max_size=5))]
    kinds = ["zero", "dup", "sum", "neg", "subspace"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        if kind == "zero":
            gens.append(zero(dim))
        elif not gens:
            continue
        elif kind == "subspace":
            gens += [vneg(g) for g in gens]
        else:
            i, j = (draw(st.integers(0, len(gens) - 1)) for _ in range(2))
            gens.append({"dup": gens[i], "sum": vadd(gens[i], gens[j]),
                         "neg": vneg(gens[i])}[kind])
    return gens


def per_dim(count):
    """A dimension and `count` vector lists in it."""
    return dims.flatmap(lambda d: st.tuples(st.just(d), *[vectors(d)] * count))


cones = per_dim(1).map(lambda case: pos_hull(case[1], case[0]))


@st.composite
def point_sets(draw):
    """1-4D point sets, full-dimensional or in a random plane or line of R^3/R^4."""
    dim = draw(st.integers(min_value=1, max_value=4))
    flat = draw(st.sampled_from([None, 1, 2])) if dim >= 3 else None
    count = draw(st.integers(min_value=1, max_value=7 if dim < 4 else 6))
    if flat is None:
        pts = [vec(*draw(st.tuples(*[small] * dim))) for _ in range(count)]
    else:
        dirs = [vec(*draw(st.tuples(*[small] * dim))) for _ in range(flat)]
        base = vec(*draw(st.tuples(*[small] * dim)))
        pts = []
        for _ in range(count):
            x = base
            for d in dirs:
                x = vadd(x, vscale(draw(small), d))
            pts.append(x)
    pts = extreme_points(pts)
    assume(pts)
    return Polytope(tuple(pts))


@st.composite
def linear_systems(draw):
    """Random {e.x = c, n.x <= c} systems in 1-4D, bounded by a box or not,
    with contradictory rows so that some are infeasible."""
    dim = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(st.tuples(*[small] * dim).map(lambda r: vec(*r)),
                    small.map(F))
    eqs = draw(st.lists(row, max_size=2))
    ineqs = draw(st.lists(row, max_size=4))
    if draw(st.booleans()):
        for i in range(dim):
            ineqs += [(unit(dim, i), F(2)), (vneg(unit(dim, i)), F(2))]
    if ineqs and draw(st.booleans()):  # n.x <= c and -n.x <= -c - 1
        n, c = ineqs[0]
        ineqs.append((vneg(n), -c - 1))
    return eqs, ineqs, dim


# ---------------------------------------------------------------------------
# old route vs new route
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(per_dim(1))
def test_pos_hull_equals_subset_route(case):
    dim, gens = case
    assert pos_hull(gens, dim) == ref_pos_hull(gens, dim)
    nonzero = [g for g in gens if not is_zero(g)]
    if nonzero:
        span = span_basis(nonzero)
        assert _cone_facet_normals(nonzero, span) == ref_cone_facet_normals(nonzero, span)


@settings(max_examples=100, deadline=None)
@given(cones)
def test_cone_faces_and_dual_equal_subset_route(k):
    assert k.faces == ref_cone_faces(k)
    assert dual_cone(k) == ref_dual_cone(k)


@settings(max_examples=100, deadline=None)
@given(per_dim(2))
def test_cone_from_hrep_equals_subset_route(case):
    dim, raw_span, normals = case
    span = span_basis(raw_span)
    assert cone_from_hrep(span, normals, dim) == ref_cone_from_hrep(span, normals, dim)


@settings(max_examples=60, deadline=None)
@given(per_dim(2))
def test_intersect_cones_equals_subset_route(case):
    dim, gens_a, gens_b = case
    a, b = pos_hull(gens_a, dim), pos_hull(gens_b, dim)
    assert intersect_cones(a, b) == ref_intersect_cones(a, b)


@settings(max_examples=80, deadline=None)
@given(point_sets())
def test_facets_and_exposed_lattice_equal_subset_route(p):
    ref_facets = ref_enumerate_facets(p.vertices, p.affine)
    assert p.facets == ref_facets
    new = exposed_face_lattice(p)
    old = ref_exposed_lattice(p, ref_facets)
    assert ([(f.key, f.dim, f.exposing_normal) for f in new.elements]
            == [(f.key, f.dim, f.exposing_normal) for f in old.elements])


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_vertex_enumeration_equals_subset_route(system):
    assert _vertex_enumerate(*system) == ref_vertex_enumerate(*system)


@settings(max_examples=30, deadline=None)
@given(point_sets(), st.lists(st.tuples(small, small, small, small), min_size=1, max_size=2))
def test_lift_systems_equal_subset_route(p, raw_basis):
    """The systems lift_point_set solves, and each made infeasible by a
    contradictory pair of rows."""
    basis = [vec(*b[:p.ambient_dim]) for b in raw_basis]
    assume(any(not is_zero(b) for b in basis))
    systems = []

    def record(*system):
        systems.append(system)
        return _vertex_enumerate(*system)

    pt._vertex_enumerate = record
    try:
        for f in exposed_face_lattice(p).elements:
            lift_point_set(p, basis, f)
    finally:
        pt._vertex_enumerate = _vertex_enumerate
    assert systems
    for eqs, ineqs, dim in systems:
        assert _vertex_enumerate(eqs, ineqs, dim) == ref_vertex_enumerate(eqs, ineqs, dim)
        u = unit(dim, 0)
        bad = ineqs + [(u, F(-1)), (vneg(u), F(-1))]  # x_0 <= -1 and x_0 >= 1
        assert _vertex_enumerate(eqs, bad, dim) == ref_vertex_enumerate(eqs, bad, dim) == ()


def test_infeasible_and_unbounded_systems_have_no_vertices():
    x, y = vec(1, 0), vec(0, 1)
    box = [(x, F(1)), (vneg(x), F(1)), (y, F(1)), (vneg(y), F(1))]
    # the slab equality y = 3 misses the box
    assert _vertex_enumerate([(y, F(3))], box, 2) == ()
    assert ref_vertex_enumerate([(y, F(3))], box, 2) == ()
    # x <= -1 and x >= 1
    assert _vertex_enumerate([], [(x, F(-1)), (vneg(x), F(-1))], 2) == ()
    # a strip has a lineality space and no vertex
    assert _vertex_enumerate([], [(y, F(1)), (vneg(y), F(1))], 2) == ()
    # a quadrant has one
    assert _vertex_enumerate([], [(vneg(x), F(0)), (vneg(y), F(0))], 2) == (vec(0, 0),)


def test_double_description_named_cones():
    x, y, z = vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)
    # the octant: rays are the axes
    rays, lin = double_description([], [vneg(x), vneg(y), vneg(z)], 3)
    assert rays == tuple(sorted([x, y, z])) and lin == ()
    # n and -n: an implicit equality leaves a plane's quadrant
    rays, lin = double_description([], [z, vneg(z), vneg(x), vneg(y)], 3)
    assert rays == tuple(sorted([x, y])) and lin == ()
    # a half-space: one ray, a 2D lineality space
    rays, lin = double_description([], [vneg(z)], 3)
    assert rays == (z,) and len(lin) == 2
    # no rows: the whole space
    assert double_description([], [], 3) == ((), kernel_basis([], 3))
    # equalities alone: the zero cone
    assert double_description([x, y, z], [vneg(x)], 3) == ((), ())
    # the cone over a hexagon has six rays; combining non-adjacent pairs
    # (opposite corners) would add more
    hexagon = [vec(2, 0, -1), vec(1, 2, -1), vec(-1, 2, -1), vec(-2, 0, -1),
               vec(-1, -2, -1), vec(1, -2, -1)]
    rays, lin = double_description([], hexagon, 3)
    assert len(rays) == 6 and lin == ()


def test_intersection_closure_on_sets_and_bitmasks():
    assert intersection_closure(frozenset({1, 2, 3}), []) == {frozenset({1, 2, 3})}
    sets = [frozenset({1, 2}), frozenset({2, 3})]
    assert intersection_closure(frozenset({1, 2, 3}), sets) == {
        frozenset({1, 2, 3}), frozenset({1, 2}), frozenset({2, 3}), frozenset({2})}
    assert intersection_closure(0b111, [0b011, 0b110]) == {0b111, 0b011, 0b110, 0b010}


def cyclic_polytope(m):
    return Polytope(tuple(vec(t, t * t, t ** 3) for t in range(m)))


def test_cyclic_20_exposed_and_touching_lattices():
    """C(20,3): 2^36 facet subsets, out of reach of the subset route."""
    p = cyclic_polytope(20)
    lat = exposed_face_lattice(p)
    dims = [f.dim for f in lat.elements]
    assert [dims.count(d) for d in (-1, 0, 1, 2, 3)] == [1, 20, 54, 36, 1]
    assert len(lat.elements) == 112
    assert len(touching_cone_lattice(p).elements) == 112
