"""The double-description core and the intersection closure against the
brute-force routines they replaced.

The reference functions below are the subset enumerations the package used
before: every (w-1)-subset of the generators for cone facets, every subset of
normals for cone rays, every d-subset of vertices for polytope facets, every
subset of inequalities for vertices, and all 2^F facet subsets for the faces
of a cone and the exposed faces of a polytope.  Random 1-4D inputs must give
identical records, keys and order through both routes.  The double-description
core itself is also compared with its Fraction-era form, which returned
Fraction vectors.  The inclusion masks that order every lattice are compared
with the order predicates they replaced.
"""

from fractions import Fraction as F
from collections import Counter
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from facelat import bodyio, checks, planar
from facelat import exactgeom as eg
from facelat import polytope as pt
from facelat.errors import DimensionMismatch
from facelat.exactgeom import (ConeTable, PolyCone, _cone_facet_normals,
                               _double_description, _eliminate, _idot,
                               _ikernel, _iprimitive, _scaled,
                               _seeded_description, cone_from_hrep,
                               dot, dot2_sign, double_description, dual_cone,
                               held_generators, intersect_cones,
                               intersection_closure, is_zero, kernel_basis,
                               orient2, orth_complement, pos_hull, primitive,
                               project_onto, rank, solve_linear, span_basis,
                               subspace_cone, vadd, vec, vneg, vscale,
                               vsub, zero)
from facelat.lattice import build_lattice
from facelat.planar import Cone2, FaceDescriptor, special_face_lattice
from facelat.polytope import (ConeElement, Facet, PolyFace, Polytope,
                              exposed_face_lattice, extreme_points,
                              lift_point_set, normal_cone_lattice,
                              touching_cone_lattice)


# ---------------------------------------------------------------------------
# the replaced routines
# ---------------------------------------------------------------------------

def subspace_intersection(b1, b2, dim):
    """Canonical basis of span(b1) ∩ span(b2): the kernel of both
    orthogonal complements."""
    cons = list(orth_complement(b1, dim)) + list(orth_complement(b2, dim))
    return kernel_basis(cons, dim)


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
    faces = [p.make_face(vset) for vset in vsets]
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    return build_lattice(faces, [sum(1 << i for i in f.vertex_indices) for f in faces])


def ref_fraction_double_description(eq_rows, ineq_rows, dim):
    """`double_description` as it was while canonical vectors were Fractions:
    both kernels return Fractions, and the second one's input and the core's
    basis are scaled back to integers."""
    eqs = [_scaled(e) for e in eq_rows]
    ineqs = [_scaled(a) for a in ineq_rows]
    lin = kernel_basis([*eqs, *ineqs], dim)
    basis = [_scaled(b) for b in kernel_basis([*eqs, *lin], dim)]
    w = len(basis)
    if w == 0:
        return (), lin
    idot = lambda a, b: sum(x * y for x, y in zip(a, b))  # noqa: E731
    rows = [[idot(a, b) for b in basis] for a in ineqs]
    start = _eliminate([list(col) for col in zip(*rows)], reduced=False)
    inv = [rows[i] + [int(j == k) for k in range(w)] for j, i in enumerate(start)]
    _eliminate(inv, reduced=True)
    scale = lcm(*(row[k] for k, row in enumerate(inv)))
    rays = [([-row[w + j] * (scale // row[k]) for k, row in enumerate(inv)],
             sum(1 << k for k in start if k != i)) for j, i in enumerate(start)]
    for i, a in enumerate(rows):
        if i in start:
            continue
        vals = [idot(a, r) for r, _ in rays]
        pos = [k for k, v in enumerate(vals) if v > 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        new = []
        for p, q in product(pos, neg):
            common = rays[p][1] & rays[q][1]
            if common.bit_count() < w - 2 or any(z & common == common for k, (_, z)
                                                 in enumerate(rays) if k not in (p, q)):
                continue
            r = [vals[p] * y - vals[q] * x for x, y in zip(rays[p][0], rays[q][0])]
            g = gcd(*r)
            new.append(([x // g for x in r], common | 1 << i))
        rays = [(r, (z | 1 << i) if v == 0 else z)
                for (r, z), v in zip(rays, vals) if v <= 0] + new
    out = [primitive([idot(r, col) for col in zip(*basis)]) for r, _ in rays]
    return tuple(sorted(out)), lin


def ref_integer_double_description(eqs, ineqs, dim):
    """The integer core as it was before W got a plain kernel basis: W's
    basis brought to canonical form by a second elimination, and the rows
    mapped onto it even when W is the whole space."""
    lin = _ikernel([*eqs, *ineqs], dim)
    basis = _ikernel([*eqs, *lin], dim)
    w = len(basis)
    if w == 0:
        return (), lin
    rows = [[_idot(a, b) for b in basis] for a in ineqs]
    start = _eliminate([list(col) for col in zip(*rows)], reduced=False)
    inv = [rows[i] + [int(j == k) for k in range(w)] for j, i in enumerate(start)]
    _eliminate(inv, reduced=True)
    scale = lcm(*(row[k] for k, row in enumerate(inv)))
    rays = [([-row[w + j] * (scale // row[k]) for k, row in enumerate(inv)],
             sum(1 << k for k in start if k != i)) for j, i in enumerate(start)]
    for i, a in enumerate(rows):
        if i in start:
            continue
        vals = [_idot(a, r) for r, _ in rays]
        pos = [k for k, v in enumerate(vals) if v > 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        new = []
        for p, q in product(pos, neg):
            common = rays[p][1] & rays[q][1]
            if common.bit_count() < w - 2 or any(z & common == common for k, (_, z)
                                                 in enumerate(rays) if k not in (p, q)):
                continue
            r = [vals[p] * y - vals[q] * x for x, y in zip(rays[p][0], rays[q][0])]
            g = gcd(*r)
            new.append(([x // g for x in r], common | 1 << i))
        rays = [(r, (z | 1 << i) if v == 0 else z)
                for (r, z), v in zip(rays, vals) if v <= 0] + new
    out = [_iprimitive([_idot(r, col) for col in zip(*basis)]) for r, _ in rays]
    return tuple(sorted(out)), lin


def cone_subset(a, b):
    """The cone order the generator masks replaced: every generator of a
    tested against b's H-representation, after a dimension test."""
    if a.cone_dim > b.cone_dim:
        return False
    return all(b.contains(g) for g in a.generators())


def cone2_subset(a, b):
    """The planar cone order the generator masks replaced (`Cone2.subset_of`)."""
    return all(b.contains(g) for g in a.generators())


def special_face_leq(body, a, b):
    """The special-face order the junction and feature masks replaced."""
    if a.key == b.key or a.tag == "empty" or b.tag == "whole":
        return True
    if b.tag == "empty" or a.tag == "whole":
        return False
    if a.tag == "vertex" and b.tag == "edge":
        f = body.features[b.feature]
        return a.point in (f.start, f.end)
    return False


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


def body_rows(p):
    """The rows of p's own system, which a lift's seed, the homogenised
    vertex cone of p, stands for."""
    return ([(m, dot(m, p.vertices[0])) for m in p.lin_perp],
            [(fc.normal, fc.offset) for fc in p.facets])


def homogenised(rows):
    """Rows (n, c) of n.x = c or n.x <= c as the integer rows (n, -c),
    scaled, of the same system on the rays (x*t, t)."""
    return [tuple(_scaled((*n, -c))) for n, c in rows]


def dehomogenised(rows):
    """Integer rows (n, b) on the rays (x*t, t) as the rows (n, -b) on x."""
    return [(vec(*r[:-1]), F(-r[-1])) for r in rows]


def as_rays(points):
    """Points x as the sorted primitive rays (x*t, t), t > 0, the form the
    seeded vertex enumeration returns."""
    return tuple(sorted(_iprimitive(_scaled((*x, 1))) for x in points))


def ref_lift_system(p, basis, pts):
    """The rows a lift added to p's own when it built the projected face
    as a body from the extreme points of pts, homogenised."""
    sub = Polytope(tuple(extreme_points(pts)))
    eqs = [(m, dot(m, pts[0]))
           for m in subspace_intersection(basis, sub.lin_perp, p.ambient_dim)]
    ineqs = [(fc.normal, fc.offset) for fc in sub.facets]
    return ([_iprimitive(r) for r in homogenised(eqs)],
            [_iprimitive(r) for r in homogenised(ineqs)])


def recording_lifts(p, systems):
    """`eg._seeded_description`, appending the rows of each call seeded with
    p's vertex cone, a lift system on p, to `systems`."""
    core = _seeded_description

    def record(seed, eqs, ineqs):
        if seed is p._vertex_cone:
            systems.append((eqs, ineqs))
        return core(seed, eqs, ineqs)

    return record


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
    ref_facets = ref_enumerate_facets(p.vertices, eg.aff_hull(p.vertices))
    assert p.facets == ref_facets
    new = exposed_face_lattice(p)
    old = ref_exposed_lattice(p, ref_facets)
    assert ([(f.key, f.dim) for f in new.elements]
            == [(f.key, f.dim) for f in old.elements])


@settings(max_examples=30, deadline=None)
@given(point_sets(), st.lists(st.tuples(small, small, small, small), min_size=1, max_size=2))
def test_lift_systems_equal_subset_route(p, raw_basis):
    """The systems lift_point_set solves, from the body's vertex cone, and
    each made infeasible by a contradictory pair of rows, against the subset
    route on the whole system, its vertices as rays."""
    basis = [vec(*b[:p.ambient_dim]) for b in raw_basis]
    assume(any(not is_zero(b) for b in basis))
    systems = []
    eg._seeded_description = recording_lifts(p, systems)
    try:
        lifts = [lift_point_set(p, basis, f) for f in exposed_face_lattice(p).elements
                 if f.vertex_indices]
    finally:
        eg._seeded_description = _seeded_description
    assert systems
    assert all(r[-1] > 0 for rays in lifts for r in rays)
    body_eqs, body_ineqs = body_rows(p)
    dim = p.ambient_dim
    for eqs, ineqs in systems:
        want = as_rays(ref_vertex_enumerate(body_eqs + dehomogenised(eqs),
                                            body_ineqs + dehomogenised(ineqs), dim))
        assert _seeded_description(p._vertex_cone, eqs, ineqs) == want
        zeros = (0,) * (dim - 1)
        bad = [*ineqs, (1, *zeros, 1), (-1, *zeros, 1)]  # x_0 <= -1 and x_0 >= 1
        assert (_seeded_description(p._vertex_cone, eqs, bad)
                == ref_vertex_enumerate(body_eqs + dehomogenised(eqs),
                                        body_ineqs + dehomogenised(bad), dim) == ())


# a rational body: the projected facets have offsets 1/2 and 1/3
RATIONAL_TRIANGLE = Polytope((vec(0, 0), vec(F(1, 2), 0), vec(0, F(1, 3))))


@settings(max_examples=30, deadline=None)
@given(point_sets(), st.lists(st.tuples(small, small, small, small), min_size=1, max_size=2))
@example(RATIONAL_TRIANGLE, [(1, 1, 0, 0)])
@example(RATIONAL_TRIANGLE, [(0, 1, 0, 0)])
def test_lift_systems_equal_extreme_point_route(p, raw_basis):
    """A lift system read off all projected points of a face, extreme or
    not, adds to the body's vertex cone (the body's own rows) the rows of
    the one read off a body built from the extreme points alone, in the
    same order, each up to a positive factor."""
    basis = [vec(*b[:p.ambient_dim]) for b in raw_basis]
    assume(any(not is_zero(b) for b in basis))
    canon = span_basis(basis)
    systems = []
    eg._seeded_description = recording_lifts(p, systems)
    try:
        for f in exposed_face_lattice(p).elements:
            if f.vertex_indices:
                pts = [project_onto(canon, x) for x in p.face_points(f)]
                pt._lift_vertices(p, canon, pts)
                eqs, ineqs = systems.pop()
                assert ([_iprimitive(r) for r in eqs], [_iprimitive(r) for r in ineqs]
                        ) == ref_lift_system(p, canon, pts)
    finally:
        eg._seeded_description = _seeded_description


@st.composite
def rational_systems(draw):
    """A dimension, at most two equality rows and some inequality rows, each
    row scaled by a random positive or negative rational."""
    dim, eqs, ineqs = draw(per_dim(2))
    factor = st.sampled_from([F(1), F(-1), F(1, 2), F(2, 3), F(-3, 4), F(5)])
    return (dim, [vscale(draw(factor), e) for e in eqs[:2]],
            [vscale(draw(factor), a) for a in ineqs])


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_double_description_equals_fraction_era_core(system):
    """Same records, hashes and order as the Fraction-era core, as ints,
    and the same from a cone table's memo."""
    dim, eqs, ineqs = system
    want = ref_fraction_double_description(eqs, ineqs, dim)
    got = double_description(eqs, ineqs, dim)
    assert got == want and hash(got) == hash(want)
    assert all(type(x) is int for part in got for v in part for x in v)
    table = ConeTable()
    assert double_description(eqs, ineqs, dim, table) == want
    assert double_description(eqs, ineqs, dim, table) == want
    assert list(table.conversions.values()) == [got]


@st.composite
def integer_systems(draw):
    """Integer rows in 1-4D for the core: with no equations and a pointed
    cone (W the whole space), or with equations or a lineality space; zero,
    repeated and opposite rows mixed in."""
    dim = draw(dims)
    row = st.tuples(*[small] * dim)
    pointed = draw(st.booleans())
    eqs = [] if pointed else draw(st.lists(row, max_size=1))
    ineqs = draw(st.lists(row, min_size=dim if pointed else 0, max_size=6))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "neg"]), max_size=2)):
        if kind == "zero":
            ineqs.append((0,) * dim)
        elif ineqs:
            a = ineqs[draw(st.integers(0, len(ineqs) - 1))]
            ineqs.append(a if kind == "dup" else tuple(-x for x in a))
    lin = _ikernel([*eqs, *ineqs], dim)
    assume(pointed == (not eqs and not lin))
    return tuple(eqs), tuple(ineqs), dim


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_integer_core_equals_canonical_basis_core(system):
    """Any basis of W gives the same rays, and so does W's identity basis:
    the core equals its form with a canonical W basis on every path."""
    eqs, ineqs, dim = system
    assert _double_description(eqs, ineqs, dim) == ref_integer_double_description(
        eqs, ineqs, dim)


def test_integer_core_on_degenerate_and_empty_systems():
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    for eqs, ineqs, dim in [
            ((), (), 3),                          # the whole space
            ((), ((0, 0, 0),), 3),                # a zero row only
            ((x, y, z), (), 3),                   # equations alone: the zero cone
            ((x, y), ((0, 0, -1),), 3),           # a ray along an axis
            ((), ((-1,),), 1),                    # a half-line
            ((), ((1,), (-1,)), 1),               # an implicit equation
            ((), ((-1, 0), (0, -1)), 2),          # a quadrant, W the whole space
            ((), ((-1, 0), (0, -1), (-1, -1), (-1, -1)), 2),  # repeated rows
            ((), ((1, 1), (-1, -1), (-1, 0)), 2),  # an implicit equation in 2D
            ((), ((0, 0, -1),), 3),               # a half-space: lineality
            ((x,), (y, (0, -1, 0)), 3)]:          # a line
        assert _double_description(eqs, ineqs, dim) == ref_integer_double_description(
            eqs, ineqs, dim), (eqs, ineqs)


@st.composite
def cone_families(draw):
    """Random cones of one dimension 1-4, with the zero cone, the whole
    space, a lineality space and cones of equal span (a cone and its
    negative) among them, and the ray through the sum of a cone's first two
    generators, which may lie on a face of that cone."""
    dim = draw(dims)
    cones = [PolyCone(dim, (), ()), eg.full_space(dim)]
    for _ in range(draw(st.integers(1, 4))):
        gens = draw(vectors(dim))
        k = pos_hull(gens, dim)
        cones += [k, pos_hull([vneg(g) for g in gens], dim), subspace_cone(gens, dim),
                  pos_hull([vadd(*k.generators()[:2])] if k.cone_dim > 1 else [], dim)]
    return [ConeElement(c) for c in draw(st.permutations(cones))]


def order_rows(elements, leq):
    """The down-set and up-set rows of the order leq, from one predicate call
    per ordered pair: the reference for the rows of `build_lattice`."""
    up = [sum(1 << j for j, b in enumerate(elements) if leq(a, b)) for a in elements]
    down = [sum(1 << i for i, row in enumerate(up) if row >> j & 1)
            for j in range(len(up))]
    return tuple(down), tuple(up)


def mask_leq(a, b):
    return not a & ~b


@settings(max_examples=150, deadline=None)
@given(cone_families())
def test_generator_masks_order_cones_like_cone_subset(elements):
    masks = held_generators([e.cone for e in elements])
    assert order_rows(masks, mask_leq) == order_rows(
        elements, lambda a, b: cone_subset(a.cone, b.cone))


@st.composite
def cone2_families(draw):
    """Random planar cones: the zero cone, the plane, and rays and sectors
    on a few shared directions, opposite ones among them."""
    dirs = draw(st.lists(st.tuples(small, small).filter(any), min_size=1, max_size=5))
    dirs += [(-x, -y) for x, y in draw(st.lists(st.sampled_from(dirs), max_size=2))]
    cones = [Cone2.zero(), Cone2.plane(), *map(Cone2.ray, dirs)]
    for a, b in combinations(dirs, 2):
        if orient2(a, b) or dot2_sign(a, b) > 0:  # else they span no sector
            cones.append(Cone2.sector(a, b))
    return draw(st.permutations(list(dict.fromkeys(cones))))


@settings(max_examples=150, deadline=None)
@given(cone2_families())
def test_generator_masks_order_planar_cones_like_subset_of(cones):
    assert order_rows(held_generators(cones), mask_leq) == order_rows(
        cones, cone2_subset)


@settings(max_examples=25, deadline=None)
@given(point_sets())
def test_normal_and_touching_rows_equal_cone_subset_rows(p):
    for lat in (normal_cone_lattice(p), touching_cone_lattice(p)):
        assert (lat.down, lat.up) == order_rows(
            lat.elements, lambda a, b: cone_subset(a.cone, b.cone))


@pytest.mark.parametrize("name", bodyio.list_fixtures())
def test_every_fixture_lattice_has_the_predicate_rows(name, monkeypatch):
    """Every lattice built for a fixture has the rows of the order predicate
    its masks replaced: the four lattices of a polytope, the lattices the
    lift suite builds for each projection and its lifts, both special-face
    lattices of a planar body and the cone lattice of its antitone suite."""
    built = []

    def recording(elements, masks):
        built.append(build_lattice(elements, masks))
        return built[-1]

    for module in (checks, pt, planar):
        monkeypatch.setattr(module, "build_lattice", recording)
    body = bodyio.load_fixture(name)
    if isinstance(body, Polytope):
        for lattice in (pt.face_lattice, exposed_face_lattice, normal_cone_lattice,
                        touching_cone_lattice):
            lattice(body)
        checks.run_suite(body, name, "lift")
    else:
        special_face_lattice(body)
        special_face_lattice(body, exposed_only=True)
        checks.run_suite(body, name, "antitone")
    by_type = {PolyFace: lambda a, b: a.vset <= b.vset,
               ConeElement: lambda a, b: cone_subset(a.cone, b.cone),
               Cone2: cone2_subset,
               FaceDescriptor: lambda a, b: special_face_leq(body, a, b)}
    kinds = Counter(type(lat.elements[0]) for lat in built)
    if isinstance(body, Polytope):
        assert kinds[PolyFace] >= 6 and kinds[ConeElement] >= 2  # lifts among them
    else:
        assert kinds == {FaceDescriptor: 3, Cone2: 1}
    for lat in built:
        assert (lat.down, lat.up) == order_rows(
            lat.elements, by_type[type(lat.elements[0])])


@settings(max_examples=150, deadline=None)
@given(cones, st.data())
def test_cone_predicates_read_int_vectors_as_they_are(k, data):
    """`contains`/`ri_contains` use an int vector as it is and scale any
    other row to integers first; both routes give the same answers on the
    cone's generators, its ri vector and random vectors, as ints, as
    Fractions, mixed, and as positive rational multiples."""
    xs = k.generators() + [data.draw(st.tuples(*[small] * k.dim))]
    if k.ri_vector() is not None:
        xs.append(k.ri_vector())
    for x in xs:
        assert k._ints(x) is x
        as_fractions = tuple(map(F, x))
        want = (k.contains(as_fractions), k.ri_contains(as_fractions))
        assert want == (k.contains(x), k.ri_contains(x)), (k, x)
        for y in ((as_fractions[0],) + x[1:], vscale(F(2, 3), x)):
            assert (k.contains(y), k.ri_contains(y)) == want, (k, y)
    for wrong in ((0,) * (k.dim + 1), vec(*[1] * (k.dim + 1))):
        with pytest.raises(DimensionMismatch):
            k.contains(wrong)
        with pytest.raises(DimensionMismatch):
            k.ri_contains(wrong)


def test_seeded_cuts_missing_the_body_have_no_vertices():
    """Rows that leave nothing of the body give no rays, as on the subset
    route; a row through an edge leaves its two vertices."""
    x, y = vec(1, 0), vec(0, 1)
    square = Polytope((vec(-1, -1), vec(1, -1), vec(-1, 1), vec(1, 1)))
    body_eqs, body_ineqs = body_rows(square)
    for eqs, ineqs in (([(y, F(3))], []),  # the slab y = 3 misses the square
                       ([], [(x, F(-1)), (vneg(x), F(-1))]),  # x <= -1, x >= 1
                       ([(y, F(1))], [(x, F(-2))])):  # x <= -2 on the top edge
        assert _seeded_description(square._vertex_cone, homogenised(eqs),
                                   homogenised(ineqs)) == ()
        assert ref_vertex_enumerate(body_eqs + eqs, body_ineqs + ineqs, 2) == ()
    assert (_seeded_description(square._vertex_cone, homogenised([(y, F(1))]), [])
            == as_rays([vec(-1, 1), vec(1, 1)]) == square._vertex_rays[2:])


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


def both_starts(a, b):
    """a cap b from every start: `intersect_cones` (seeded when a or b is
    pointed), the seeded core from each pointed one, and the core from
    nothing on the rows of both; all must agree."""
    unseeded = double_description(a.span_perp + b.span_perp,
                                  a.facet_normals + b.facet_normals, a.dim)
    got = intersect_cones(a, b)
    assert (got.rays, got.lineality) == unseeded, (a, b)
    for seed, other in ((a, b), (b, a)):
        if not seed.lineality:
            assert (_seeded_description(seed.seed, other.span_perp, other.facet_normals),
                    ()) == unseeded, (seed, other)
    return got


def test_seeded_intersections_named_cones():
    x, y, z = vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)
    octant = pos_hull([x, y, z], 3)
    # a seed cut by a subspace: the cube's vertex normal cone and the
    # non-pointed v_cone of the cylinder check
    plane = subspace_cone([x, y], 3)
    assert both_starts(octant, plane) == both_starts(plane, octant) == pos_hull([x, y], 3)
    assert both_starts(octant, subspace_cone([vec(1, -1, 0)], 3)) == PolyCone(3, (), ())
    # lower-dimensional seeds: a quadrant against a full-dimensional wedge,
    # a half-space and a plane through one of its rays
    quadrant = pos_hull([x, y], 3)
    wedge = pos_hull([vec(1, 2, 0), vec(2, 1, 0), z], 3)
    assert both_starts(quadrant, wedge) == pos_hull([vec(1, 2, 0), vec(2, 1, 0)], 3)
    diagonal = vec(1, 1, 0)
    below = pos_hull([diagonal, vneg(diagonal), z, vneg(z), vec(1, -1, 0)], 3)  # y <= x
    assert both_starts(quadrant, below) == pos_hull([x, vec(1, 1, 0)], 3)
    assert both_starts(quadrant, subspace_cone([x, z], 3)) == pos_hull([x], 3)
    # A inside B, and A = B
    inner = pos_hull([x, vec(1, 1, 0), vec(1, 1, 1)], 3)
    assert both_starts(inner, octant) == both_starts(octant, inner) == inner
    assert both_starts(octant, octant) == octant
    assert both_starts(plane, plane) == plane
    # cones that meet only at 0
    zero = PolyCone(3, (), ())
    assert both_starts(octant, pos_hull([vneg(x), vneg(y), vneg(z)], 3)) == zero
    assert both_starts(pos_hull([x], 3), pos_hull([y], 3)) == zero
    assert both_starts(quadrant, pos_hull([vec(-1, -1, 1), vec(-1, -1, -1)], 3)) == zero


@st.composite
def cone_pairs(draw):
    """Two cones of one dimension 1-4, each the positive hull of random
    vectors, of the same vectors with the last coordinate cleared (lower
    dimensional in 2-4D), of the vectors and their negatives (a subspace),
    or of the vectors and one line (not pointed)."""
    dim = draw(dims)
    out = []
    for _ in range(2):
        gens = draw(vectors(dim))
        kind = draw(st.sampled_from(["cone", "flat", "subspace", "line"]))
        if kind == "flat":
            gens = [g[:-1] + (F(0),) for g in gens]
        elif kind == "subspace":
            gens += [vneg(g) for g in gens]
        elif kind == "line":
            u = vec(*draw(st.tuples(*[small] * dim)))
            gens += [u, vneg(u)]
        out.append(pos_hull(gens, dim))
    return out


@settings(max_examples=300, deadline=None)
@given(cone_pairs())
def test_seeded_conversions_equal_unseeded(pair):
    """Seeded and unseeded intersections give the same canonical cone, and
    pos_hull's rays, read off its facets, equal cone_from_hrep's."""
    a, b = pair
    both_starts(a, b)
    for k in (a, b):
        assert k == cone_from_hrep(k.span, k.facet_normals, k.dim)


@st.composite
def seeded_systems(draw):
    """A body, and rows cutting it: equalities and inequalities through
    points of the body's vertex grid or off it."""
    p = draw(point_sets())
    dim = p.ambient_dim
    row = st.tuples(st.tuples(*[small] * dim).map(lambda r: vec(*r)), small.map(F))
    return p, draw(st.lists(row, max_size=2)), draw(st.lists(row, max_size=4))


@settings(max_examples=200, deadline=None)
@given(seeded_systems())
@example((RATIONAL_TRIANGLE, [], [(vec(1, 1), F(1, 3))]))
def test_seeded_vertex_enumeration_equals_unseeded(system):
    """Rows added to the body's homogenised vertex cone give, as rays, the
    vertices of the whole system enumerated from nothing by the subset
    route."""
    p, eqs, ineqs = system
    body_eqs, body_ineqs = body_rows(p)
    got = _seeded_description(p._vertex_cone, homogenised(eqs), homogenised(ineqs))
    assert got == as_rays(ref_vertex_enumerate(body_eqs + eqs, body_ineqs + ineqs,
                                               p.ambient_dim))
    assert all(r[-1] > 0 for r in got)


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
