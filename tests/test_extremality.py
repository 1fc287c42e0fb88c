"""Vertex extremality from the facet conversion, against the hull LP.

A point of a finite set S is a vertex of conv(S) exactly when the normals
of the facets of conv(S) through it have rank dim conv(S)
(`polytope.extreme_points`); `Polytope` refuses a listed vertex that fails
the rule.  The reference is the LP route the rule replaced: a point is
extreme when it is not in the hull of the others (`exactgeom.in_conv_hull`).
Building a body solves no LP at all; the face route is the one that does.
"""

import json
import sys
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelat import bodyio
from facelat import exactgeom as eg
from facelat import polytope as pt
from facelat.errors import ParseError
from facelat.exactgeom import in_conv_hull, unit, vec
from facelat.polytope import Polytope, extreme_points, face_lattice, polar


def lp_extreme_points(points):
    """The LP route: the sorted distinct points outside the hull of the
    others; a single point is its own vertex."""
    pts = sorted(set(points))
    if len(pts) < 2:
        return pts
    return [v for i, v in enumerate(pts) if not in_conv_hull(pts[:i] + pts[i + 1:], v)]


fraction = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def point_sets(draw):
    """Points in R^d, d in 1..4: two to six drawn in R^k (k = d about half
    the time, else k <= d), with centroids of some of them added
    (midpoints, which lie inside an edge when the pair spans one, and
    centroids of three or four, inside a facet or the body), then mapped
    into R^d by a rational affine map of the first k coordinates, so
    lower-dimensional sets occur.  Returned in a drawn order, with
    repeats."""
    d = draw(st.integers(1, 4))
    k = draw(st.one_of(st.just(d), st.integers(1, d)))
    base = draw(st.lists(st.tuples(*[fraction] * k), min_size=2, max_size=6, unique=True))
    picks = draw(st.lists(st.lists(st.sampled_from(range(len(base))), min_size=2,
                                   max_size=4, unique=True), max_size=4))
    pts = base + [tuple(sum(c) / len(pick) for c in zip(*(base[i] for i in pick)))
                  for pick in picks]
    pts.append(tuple(sum(c) / len(base) for c in zip(*base)))
    maps = draw(st.lists(st.tuples(*[fraction] * (k + 1)), min_size=d - k, max_size=d - k))
    raw = [vec(*x, *(sum(a * c for a, c in zip(m, x)) + m[-1] for m in maps)) for x in pts]
    return draw(st.permutations(raw))


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_the_rule_agrees_with_the_lp(points):
    """`extreme_points` equals the LP route; `Polytope` names the first of
    the distinct points that is not extreme, and accepts the extreme ones
    with the affine hull that `aff_hull` gives."""
    want = lp_extreme_points(points)
    assert extreme_points(points) == want
    distinct = tuple(dict.fromkeys(points))
    bad = [i for i, v in enumerate(distinct) if v not in want]
    if bad:
        with pytest.raises(ValueError, match=rf"^vertex {bad[0]} is not extreme$"):
            Polytope(distinct)
    # every drawn set holds a centroid, so the vertices alone, in drawn
    # order, build the body; the integer ray kernel gives its affine hull
    # as the Fraction route does
    vertices = tuple(v for v in distinct if v in want)
    body = Polytope(vertices)
    assert body.vertices == vertices
    aff = eg.aff_hull(vertices)
    assert body.lin_perp == eg._perp(aff.directions, len(vertices[0]))
    assert body.dim == aff.dim


def test_extreme_points_of_no_point_and_of_one():
    assert extreme_points([]) == []
    assert extreme_points([vec(1, F(1, 2)), vec(1, F(1, 2))]) == [vec(1, F(1, 2))]


CUBE = [vec(*p) for p in product([-1, 1], repeat=3)]
SIMPLEX4 = [vec(0, 0, 0, 0), *(unit(4, i) for i in range(4))]


@pytest.mark.parametrize("vertices, first", [
    # 1D: an interior point, after the ends and before them
    ([vec(0), vec(2), vec(1)], 2),
    ([vec(1), vec(0), vec(2)], 0),
    # 2D: a square with an edge midpoint and then its centre
    ([vec(0, 0), vec(2, 0), vec(2, 2), vec(0, 2), vec(1, 0), vec(1, 1)], 4),
    # 2D, lower-dimensional: a segment of R^2 with an inner point
    ([vec(0, 0), vec(F(1, 3), F(1, 2)), vec(2, 3)], 1),
    # 3D: the cube with a facet centre, an edge midpoint and the centre
    ([*CUBE[:3], vec(1, 0, 0), *CUBE[3:], vec(1, 1, 0), vec(0, 0, 0)], 3),
    ([*CUBE, vec(0, 0, 0)], 8),
    # 4D: the simplex with the midpoint of an edge, then the centroid of a facet
    ([*SIMPLEX4, vec(F(1, 2), F(1, 2), 0, 0), vec(F(1, 4), F(1, 4), F(1, 4), 0)], 5),
    ([SIMPLEX4[0], vec(F(1, 5), F(1, 5), F(1, 5), F(1, 5)), *SIMPLEX4[1:]], 1),
])
def test_the_first_point_that_is_not_a_vertex_is_named(vertices, first):
    with pytest.raises(ValueError, match=rf"^vertex {first} is not extreme$"):
        Polytope(tuple(vertices))
    doc = {"type": "polytope", "ambient_dim": len(vertices[0]),
           "vertices": [[str(c) for c in v] for v in vertices]}
    with pytest.raises(ParseError, match=rf"^vertex {first} is not extreme$"):
        bodyio.loads(json.dumps(doc))


def cyclic_polytope(m):
    """C(m,4): the points (t, t^2, t^3, t^4) for m consecutive integers t,
    translated so that the vertex centroid is the origin."""
    pts = [[t ** k for k in range(1, 5)] for t in range(-(m // 2), m - m // 2)]
    centroid = [F(sum(c), m) for c in zip(*pts)]
    return Polytope(tuple(tuple(x - c for x, c in zip(p, centroid)) for p in pts))


def test_no_body_construction_solves_an_lp(monkeypatch):
    """With `simplex_max` rebound to raise under every name a facelat
    module binds it by, bodies, a polar body and every coordinate
    projection of the cube still build; the face route still reaches the
    stub, so the stub is live."""
    called = []

    def refuse(*args, **kwargs):
        called.append(args)
        raise AssertionError("simplex_max is off limits")

    original = eg.simplex_max
    for name, module in list(sys.modules.items()):
        if name == "facelat" or name.startswith("facelat."):
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, refuse)
    cube = bodyio.load_fixture("cube")
    assert len(bodyio.load_fixture("cross4").vertices) == 8
    assert len(bodyio.load_fixture("cell24").vertices) == 24
    assert len(polar(cyclic_polytope(8)).vertices) == 20
    for r in range(1, 4):
        for axes in combinations(range(3), r):
            q = pt.projection(cube, [unit(3, i) for i in axes]).polytope
            assert len(q.vertices) == 2 ** r
    assert called == []
    with pytest.raises(AssertionError, match="off limits"):
        face_lattice(Polytope(cube.vertices))
    assert called


def test_a_body_converts_its_hull_once(monkeypatch):
    """A body validates its vertices on the facets it keeps: building it and
    reading its facets makes one double-description conversion.  A
    projection makes two, one to find its vertices among the projected
    points and one as a body."""
    calls = []
    convert = eg._double_description

    def counting(*args):
        calls.append(args)
        return convert(*args)
    monkeypatch.setattr(eg, "_double_description", counting)
    cube = Polytope(tuple(CUBE))
    assert len(cube.facets) == 6 and len(calls) == 1
    # lower-dimensional, over mixed denominators
    triangle = Polytope((vec(F(1, 2), 0, 0, F(1, 3)), vec(0, F(2, 3), 1, 0),
                         vec(1, 1, F(1, 5), 1)))
    assert (triangle.dim, len(triangle.facets)) == (2, 3) and len(calls) == 2
    calls.clear()
    square = pt.projection(cube, [unit(3, 0), unit(3, 1)]).polytope
    assert len(square.facets) == 4 and len(calls) == 2
