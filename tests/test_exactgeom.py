from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelat import exactgeom as eg
from facelat.errors import DimensionMismatch
from facelat.exactgeom import (aff_hull, cone_faces, cone_from_hrep, dot,
                               dot2_sign, dual_cone, full_space,
                               hull_weight_support, intersect_cones,
                               kernel_basis, minkowski_sum_cone, orient2,
                               orth_complement,
                               pos_hull, primitive, project_onto, rank,
                               ri_contains, rref, simplex_max, solve_linear,
                               span_basis, subspace_cone, vec, zero_cone)


def test_primitive_scaling():
    assert primitive(vec("2/3", "4/3")) == vec(1, 2)
    assert primitive(vec(-2, 4)) == vec(-1, 2)
    with pytest.raises(ValueError):
        primitive(vec(0, 0))


def test_rref_and_kernel():
    rows = [vec(1, 2, 3), vec(2, 4, 6), vec(0, 0, 1)]
    red, piv = rref(rows)
    assert piv == [0, 2] and len(red) == 2
    ker = kernel_basis([vec(1, 0, 0)], 3)
    assert ker == (vec(0, 1, 0), vec(0, 0, 1))
    assert kernel_basis([], 2) == (vec(1, 0), vec(0, 1))


def test_span_basis_is_canonical():
    a = span_basis([vec(1, 1), vec(2, 2), vec(1, 0)])
    b = span_basis([vec(3, 0), vec(0, "1/2")])
    assert a == b == (vec(1, 0), vec(0, 1))


def test_pos_hull_quadrant_drops_interior_generator():
    k = pos_hull([vec(1, 0), vec(1, 1), vec(0, 1)])
    assert k.rays == (vec(0, 1), vec(1, 0))
    assert k.lineality == ()


def test_pos_hull_halfplane_recognizes_lineality():
    k = pos_hull([vec(1, 0), vec(-1, 0), vec(0, 1)])
    assert k.lineality == (vec(1, 0),)
    assert k.rays == (vec(0, 1),)


def test_pos_hull_of_nothing_is_zero_cone():
    k = pos_hull([], 2)
    assert k == zero_cone(2)
    assert k.contains(vec(0, 0)) and not k.contains(vec(1, 0))


def test_cone_faces_counts():
    quadrant = pos_hull([vec(1, 0), vec(0, 1)])
    assert len(cone_faces(quadrant)) == 4
    halfplane = pos_hull([vec(1, 0), vec(-1, 0), vec(0, 1)])
    assert len(cone_faces(halfplane)) == 2
    assert len(cone_faces(full_space(2))) == 1
    corner = pos_hull([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)])
    assert len(cone_faces(corner)) == 8  # zero, 3 rays, 3 sectors, itself


def test_cone_faces_closed_under_intersection():
    k = pos_hull([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)])
    faces = cone_faces(k)
    keys = {(f.rays, f.lineality) for f in faces}
    for a in faces:
        for b in faces:
            i = intersect_cones(a, b)
            assert (i.rays, i.lineality) in keys
        for sub in cone_faces(a):
            assert (sub.rays, sub.lineality) in keys


def test_cross_section_spans_faces():
    # pointed cone: each face is the positive hull of its cross-section slice
    k = pos_hull([vec(1, 0, 0), vec(1, 2, 0), vec(1, 0, 3)])
    w = vec(1, 0, 0)
    for f in cone_faces(k):
        if not f.rays:
            continue
        section = [(r, sum(a * b for a, b in zip(w, r))) for r in f.rays]
        pts = [tuple(c / s for c in r) for r, s in section]
        assert pos_hull(pts, 3) == f


def test_ri_membership():
    quadrant = pos_hull([vec(1, 0), vec(0, 1)])
    assert ri_contains(quadrant, vec(1, 1))
    assert not ri_contains(quadrant, vec(1, 0))
    assert ri_contains([vec(0, 0), vec(2, 0)], vec(1, 0))
    assert not ri_contains([vec(0, 0), vec(2, 0)], vec(0, 0))
    with pytest.raises(DimensionMismatch):
        ri_contains(quadrant, vec(1, 0, 0))
    with pytest.raises(DimensionMismatch):
        ri_contains([vec(0, 0), vec(2, 0)], vec(1, 0, 0))


def test_ri_intersection_formula():
    # a point interior to two cones is interior to their intersection
    a = pos_hull([vec(1, 0), vec(0, 1)])
    b = pos_hull([vec(1, 1), vec(-1, 1)])
    x = vec(0, 1)
    assert not a.ri_contains(x) or True
    x = vec("1/4", 1)
    assert a.ri_contains(x) and b.ri_contains(x)
    assert intersect_cones(a, b).ri_contains(x)


def test_projection_examples():
    assert project_onto([vec(1, 0)], vec(3, 4)) == vec(3, 0)
    assert project_onto([vec(1, 1)], vec(1, 0)) == vec(F(1, 2), F(1, 2))
    full = [vec(1, 0), vec(0, 1)]
    assert project_onto(full, vec(7, -2)) == vec(7, -2)


def test_intersect_orth_aff():
    quadrant = pos_hull([vec(1, 0), vec(0, 1)])
    lower = pos_hull([vec(1, 0), vec(-1, 0), vec(0, -1)])
    assert intersect_cones(quadrant, lower) == pos_hull([vec(1, 0)])
    assert orth_complement([vec(1, 0)], 2) == (vec(0, 1),)
    aff = aff_hull([vec(0, 0), vec(1, 0), vec(0, 1)])
    assert aff.dim == 2
    assert aff_hull([vec(2, 2)]).dim == 0


def test_dual_cone():
    quadrant = pos_hull([vec(1, 0), vec(0, 1)])
    assert dual_cone(quadrant) == pos_hull([vec(-1, 0), vec(0, -1)])
    assert dual_cone(zero_cone(2)) == full_space(2)
    assert dual_cone(full_space(2)) == zero_cone(2)
    line = subspace_cone([vec(1, 0)], 2)
    assert dual_cone(line) == subspace_cone([vec(0, 1)], 2)


@pytest.mark.parametrize("build", [
    lambda: pos_hull([(1, 0), (1, 0, 0)]),
    lambda: minkowski_sum_cone(pos_hull([(1, 0)]), pos_hull([(1, 0, 0)])),
    lambda: subspace_cone([(1, 0)], 3),
    lambda: pos_hull([(1, 0), (0, 1)], 3),
    lambda: cone_from_hrep([(1, 0, 0)], [(1, 0)], 3),
    lambda: intersect_cones(pos_hull([(1, 0)]), pos_hull([(1, 0, 0)])),
], ids=["pos_hull_mixed", "minkowski_sum", "subspace_cone", "pos_hull_dim",
        "cone_from_hrep", "intersect_cones"])
def test_cone_constructors_reject_mismatched_dimensions(build):
    with pytest.raises(DimensionMismatch):
        build()


def test_cone_from_hrep_quadrant():
    k = cone_from_hrep(span_basis([vec(1, 0), vec(0, 1)]),
                       [vec(-1, 0), vec(0, -1)], 2)
    assert k == pos_hull([vec(1, 0), vec(0, 1)])


def test_simplex_basics():
    status, val, x = simplex_max([F(3), F(2)],
                                 [[F(1), F(1)]], [F(4)])
    assert status == "optimal" and val == 12
    status, _, _ = simplex_max([F(1)], [[F(1)], [F(1)]], [F(1), F(2)])
    assert status == "infeasible"


def test_hull_weight_support_identifies_carrier_faces():
    sq = [vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1)]
    assert hull_weight_support(sq, vec(0, 0)) == {0, 1, 2, 3}
    assert hull_weight_support(sq, vec(1, 0)) == {1, 2}
    assert hull_weight_support(sq, vec(1, 1)) == {2}
    assert hull_weight_support(sq, vec(2, 0)) == set()


@pytest.mark.parametrize("x", [vec(0, 0), vec(1, 2), vec(F(1, 3))])
def test_hull_helpers_on_no_points(x):
    """conv of no points is empty: nothing is in it or in its relative
    interior, and no index carries weight."""
    assert eg.in_conv_hull([], x) is False
    assert eg.in_ri_conv_hull([], x) is False
    assert ri_contains([], x) is False
    assert hull_weight_support([], x) == set()


def test_ri_membership_solves_the_first_carrier_lp(monkeypatch):
    """in_ri_conv_hull solves the least-weight LP of hull_weight_support's
    first round with nothing known: the same rows, objective and rhs."""
    calls = []

    def recording(*args):
        calls.append(args)
        return simplex_max(*args)

    monkeypatch.setattr(eg, "simplex_max", recording)
    pts = [vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1), vec(0, 1)]
    for x, inside in ((vec(0, 0), True), (vec(1, 0), False), (vec(2, 0), False)):
        assert eg.in_ri_conv_hull(pts, x) is inside
        ri_lp = calls.pop()
        hull_weight_support(pts, x)
        assert calls[0] == ri_lp
        calls.clear()


coord = st.integers(min_value=-3, max_value=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=5))
def test_pos_hull_idempotent(gens):
    k = pos_hull([vec(*g) for g in gens], 2)
    assert pos_hull(k.generators(), 2) == k


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=5))
def test_dual_dual_is_identity(gens):
    k = pos_hull([vec(*g) for g in gens], 3)
    assert dual_cone(dual_cone(k)) == k


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=6),
       st.tuples(coord, coord))
def test_lp_membership_agrees_with_cone_membership(gens, point):
    vecs = [vec(*g) for g in gens]
    x = vec(*point)
    k = pos_hull(vecs, 2)
    status, _, _ = simplex_max(
        [F(0)] * len(vecs),
        [[v[0] for v in vecs], [v[1] for v in vecs]], list(x))
    assert (status == "optimal") == k.contains(x)


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction kernel it replaced
# ---------------------------------------------------------------------------

def ref_dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), F(0))


def ref_primitive(v):
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitive form")
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    return tuple(F(n // g) for n in ints)


def ref_rref(rows):
    m = [list(r) for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m[:r]], pivots


def ref_span_basis(vectors):
    rows = [v for v in vectors if any(x != 0 for x in v)]
    return tuple(ref_primitive(r) for r in ref_rref(rows)[0])


def ref_kernel_basis(rows, dim):
    reduced, pivots = ref_rref(rows)
    basis = []
    for c in (c for c in range(dim) if c not in pivots):
        v = [F(0)] * dim
        v[c] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][c]
        basis.append(tuple(v))
    return ref_span_basis(basis)


def ref_solve_linear(rows, rhs):
    if not rows:
        return None
    dim = len(rows[0])
    reduced, pivots = ref_rref([tuple(list(r) + [b]) for r, b in zip(rows, rhs, strict=True)])
    if dim in pivots:
        return None
    x = [F(0)] * dim
    for i, p in enumerate(pivots):
        x[p] = reduced[i][dim]
    return tuple(x)


def ref_simplex_max(obj, a_eq, b_eq):
    m, n = len(a_eq), len(obj)
    rows = [[F(v) for v in row] for row in a_eq]
    rhs = [F(v) for v in b_eq]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    tab = [rows[i] + [F(1 if j == i else 0) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [F(0)] * n + [F(1)] * m

    def pivot(tab, basis, row, col):
        piv = tab[row][col]
        tab[row] = [v / piv for v in tab[row]]
        for i in range(len(tab)):
            if i != row and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[row])]
        basis[row] = col

    def run(tab, basis, cost, ncols):
        while True:
            red = list(cost[:ncols])
            for i, bi in enumerate(basis):
                if cost[bi] != 0:
                    f = cost[bi]
                    red = [r - f * tab[i][j] for j, r in enumerate(red)]
            col = next((j for j in range(ncols) if red[j] < 0), None)
            if col is None:
                return True
            ratios = [(tab[i][-1] / tab[i][col], basis[i], i)
                      for i in range(len(tab)) if tab[i][col] > 0]
            if not ratios:
                return False
            _, _, row = min(ratios)
            pivot(tab, basis, row, col)

    run(tab, basis, cost, n + m)
    if sum(tab[i][-1] for i in range(m) if basis[i] >= n) > 0:
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    if not run(tab, basis, [-F(v) for v in obj], n):
        return "unbounded", None, None
    x = [F(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return "optimal", sum((F(obj[j]) * x[j] for j in range(n)), F(0)), tuple(x)


def all_fractions(value):
    """Every number in a nested tuple/list result is exactly a Fraction."""
    if isinstance(value, (tuple, list)):
        return all(all_fractions(v) for v in value)
    return type(value) is F


rational = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3, 6]))


@st.composite
def rational_matrices(draw, max_rows=6, max_cols=5):
    """Up to 6 x 5, with zero rows, duplicate rows and combinations of rows."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.tuples(*[rational] * ncols), min_size=0, max_size=max_rows))
    extras = draw(st.lists(st.sampled_from(["zero", "dup", "comb"]), max_size=2))
    for kind in extras:
        if len(rows) >= max_rows:
            break
        if kind == "zero" or not rows:
            rows.append((F(0),) * ncols)
        elif kind == "dup":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(rational), draw(rational)
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    return ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(rational_matrices(), st.lists(rational, min_size=6, max_size=6))
def test_integer_elimination_matches_fraction_kernel(matrix, rhs):
    ncols, rows = matrix
    assert rref(rows) == ref_rref(rows)
    assert rank(rows) == len(ref_rref(rows)[0])
    assert span_basis(rows) == ref_span_basis(rows)
    assert kernel_basis(rows, ncols) == ref_kernel_basis(rows, ncols)
    assert solve_linear(rows, rhs[:len(rows)]) == ref_solve_linear(rows, rhs[:len(rows)])
    for result in (rref(rows)[0], span_basis(rows), kernel_basis(rows, ncols),
                   solve_linear(rows, rhs[:len(rows)]) or ()):
        assert all_fractions(result)


small = st.integers(-2, 2)


@st.composite
def linear_programs(draw):
    """Small LPs whose entries make ties, degeneracy, infeasibility and
    unboundedness common; some entries get a non-unit denominator."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 4))
    entry = st.one_of(small.map(F), rational)
    a_eq = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b_eq = [draw(entry) for _ in range(m)]
    obj = [draw(entry) for _ in range(n)]
    return obj, a_eq, b_eq


def _simplex_agrees(obj, a_eq, b_eq):
    got = simplex_max(obj, a_eq, b_eq)
    assert got == ref_simplex_max(obj, a_eq, b_eq)
    if got[0] == "optimal":
        assert type(got[1]) is F and all_fractions(got[2])
    return got[0]


@settings(max_examples=400, deadline=None)
@given(linear_programs())
def test_integer_simplex_matches_fraction_simplex(lp):
    _simplex_agrees(*lp)


def test_integer_simplex_on_named_cases():
    # negative right-hand side, infeasible, unbounded, and three LPs with a
    # tied ratio test, where a tie-break other than Bland's (smallest basic
    # index) returns another optimal point, in phase 2 or already in phase 1
    def lp(obj, a_eq, b_eq):
        return [F(v) for v in obj], [[F(v) for v in r] for r in a_eq], [F(v) for v in b_eq]

    cases = [
        lp([1, 1], [[-1, -2]], [-4]),
        lp([1], [[1], [1]], [1, 2]),
        lp([1, 0], [[1, -1]], [0]),
        lp([1, 1, 0, 0], [[2, 2, 2, 0], [-1, 0, 2, 1]], [2, 2]),
        lp([0, 0, 1, 1], [[0, 2, 1, 1], [-1, 2, -1, 2]], [1, 1]),
        lp([0, 0, 0, 0], [[0, 0, 2, 1], [2, 2, 1, -1], [-1, 1, 0, 2]], [2, 1, 2]),
    ]
    statuses = [_simplex_agrees(*case) for case in cases]
    assert statuses == ["optimal", "infeasible", "unbounded"] + ["optimal"] * 3
    assert simplex_max(*cases[3])[2] == vec(1, 0, 0, 3)


def test_hull_lps_match_fraction_simplex():
    # the LPs the hull oracles pose: vertices of a cube with a non-extreme point
    pts = [vec(*p) for p in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1),
                             (1, 0, 1), (0, 1, 1), (1, 1, 1), ("1/2", "1/2", 0)]]
    rows = [[p[d] for p in pts] for d in range(3)] + [[F(1)] * len(pts)]
    for x in (vec("1/2", "1/2", 0), vec(1, "1/3", 0), vec(2, 0, 0), vec("1/2", "1/2", "1/2")):
        for j in range(len(pts)):
            obj = [F(1 if i >= j else 0) for i in range(len(pts))]
            _simplex_agrees(obj, rows, list(x) + [F(1)])


@settings(max_examples=200, deadline=None)
@given(st.lists(rational, min_size=1, max_size=5), st.lists(rational, min_size=1, max_size=5))
def test_dot_and_primitive_match_fraction_definitions(a, b):
    k = min(len(a), len(b))
    assert dot(a[:k], b[:k]) == ref_dot(a[:k], b[:k])
    assert type(dot(a[:k], b[:k])) is F
    if any(a):
        assert primitive(tuple(a)) == ref_primitive(tuple(a))
        assert all_fractions(primitive(tuple(a)))
    else:
        with pytest.raises(ValueError):
            primitive(tuple(a))
    if len(a) != len(b):
        with pytest.raises(ValueError):
            dot(a, b)


integral = st.builds(F, st.integers(-10**12, 10**12))


def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.one_of(integral, rational)] * 4), rational)
def test_orient2_matches_fraction_formula(coords, k):
    """The sign predicates agree with the signs of the plain Fraction
    formulas on integer, rational and mixed pairs, and on parallel (k*a,
    zero for k = 0), zero and perpendicular partners."""
    a = coords[:2]
    for b in (coords[2:], (k * a[0], k * a[1]), (F(0), F(0)), (-a[1], a[0])):
        assert orient2(a, b) == _sign(a[0] * b[1] - a[1] * b[0])
        assert orient2(b, a) == -orient2(a, b)
        assert dot2_sign(a, b) == _sign(a[0] * b[0] + a[1] * b[1])
        assert type(orient2(a, b)) is int and type(dot2_sign(a, b)) is int
