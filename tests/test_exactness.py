"""No float reaches an exact output, and canonical vectors are ints.

Every number reachable from the polytope layer's outputs (the four lattices,
the facets, the polar, support values, normal cones at points and the lifted
face lattices) must be an `int` or a `Fraction`.  The canonical vectors (a
cone's rays, lineality, facet normals, span and perp bases, every facet
normal, the body's `lin_perp` and the rays of every lifted point set) must in
addition be exactly `int`.  The same holds for the
planar layer's outputs (support and gauge values, face points, polar bodies
and cone inventories), whose directions (cone rays, face directions, segment
normals and arc radials) must be `int` pairs.  The last tests parse the
exact modules and reject a true division whose numerator is an int literal:
once an operand can be an int, `1 / x` is float division.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from facelat import bodyio
from facelat import planar as pl
from facelat import polytope as pt
from facelat.errors import OriginNotInterior, UnsupportedArcCenter
from facelat.exactgeom import PolyCone, unit, vec
from facelat.lattice import FiniteLattice
from facelat.polytope import ConeElement, Facet, PolyFace, Polytope

SRC = Path(pt.__file__).resolve().parent
EXACT_MODULES = ("exactgeom.py", "polytope.py", "lattice.py", "checks.py",
                 "planar.py")


def numbers(value, cones: list, seen: set):
    """Every number reachable from value; the cones met on the way, and the
    planar objects that carry directions, are appended to `cones`, each
    polytope cone once."""
    if type(value) in (int, F, float, complex, bool):
        yield value
    elif value is None or isinstance(value, str):
        return
    elif isinstance(value, (tuple, list, set, frozenset)):
        for v in value:
            yield from numbers(v, cones, seen)
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from numbers(k, cones, seen)
            yield from numbers(v, cones, seen)
    elif isinstance(value, PolyCone):
        if id(value) in seen:
            return
        seen.add(id(value))
        cones.append(value)
        yield value.dim
        for part in (value.rays, value.lineality, value.facet_normals, value.span,
                     value.span_perp, value.ri_vector()):
            yield from numbers(part, cones, seen)
        for face in value.faces:
            yield from numbers(face, cones, seen)
    elif isinstance(value, ConeElement):
        yield from numbers(value.cone, cones, seen)
    elif isinstance(value, PolyFace):
        yield from numbers((value.vertex_indices, value.dim), cones, seen)
    elif isinstance(value, Facet):
        yield from numbers((value.normal, value.offset, value.vertex_set), cones, seen)
    elif isinstance(value, FiniteLattice):
        yield from numbers(value.elements, cones, seen)
    elif isinstance(value, Polytope):
        yield from numbers(value.vertices, cones, seen)
    elif isinstance(value, pl.QuadVal):
        yield from numbers((value.q, value.s, value.m), cones, seen)
    elif isinstance(value, (pl.Cone2, pl.FaceDescriptor, pl.Segment, pl.Arc)):
        cones.append(value)
        yield from numbers(planar_directions(value), cones, seen)
        if isinstance(value, pl.FaceDescriptor):
            yield from numbers((value.feature, value.point), cones, seen)
        elif isinstance(value, pl.Segment):
            yield from numbers((value.start, value.end), cones, seen)
        elif isinstance(value, pl.Arc):
            yield from numbers((value.center, value.radius_sq, value.start, value.end),
                               cones, seen)
    elif isinstance(value, pl.PlanarBody):
        yield from numbers(value.features, cones, seen)
    elif isinstance(value, pl.ConeInventory):
        yield from numbers((value.proper_normal, value.arc_families,
                            value.extra_touching, value.non_exposed), cones, seen)
    else:
        raise TypeError(f"the walk does not know {type(value).__name__}")


def outputs(p: Polytope) -> list:
    """The exact outputs of the polytope layer on p."""
    d = p.ambient_dim
    out = [pt.face_lattice(p), pt.exposed_face_lattice(p), pt.normal_cone_lattice(p),
           pt.touching_cone_lattice(p), p.facets, p.lin_perp]
    try:
        q = pt.polar(p)
        out += [q, q.facets]
    except OriginNotInterior:
        pass
    directions = [unit(d, i) for i in range(d)] + [f.normal for f in p.facets]
    directions.append(tuple(F(i + 1, 3) for i in range(d)))
    out += [pt.support(p, u) for u in directions]
    points = list(p.vertices) + [p.ri_point(f) for f in pt.face_lattice(p).elements
                                 if f.vertex_indices]
    out += [pt.normal_cone_at_point(p, x) for x in points]
    out += [pt.normal_cone(p, f) for f in pt.exposed_face_lattice(p).elements]
    for i in range(d):
        basis = [unit(d, i)]
        lifted_f, lifted_perp, _ = pt.lifted_face_lattices(p, basis)
        out += [lifted_f, lifted_perp]
    return out


def assert_exact(p: Polytope):
    cones: list = []
    found = list(numbers(outputs(p), cones, set()))
    assert found
    bad = {type(x).__name__ for x in found if type(x) not in (int, F)}
    assert not bad, f"non-exact numbers of type {bad}"
    assert cones
    canonical = [f.normal for f in p.facets] + list(p.lin_perp)
    for i in range(p.ambient_dim):
        basis = [unit(p.ambient_dim, i)]
        for f in pt.face_lattice(p).elements:
            canonical += pt.lift_point_set(p, basis, f)
    for k in cones:
        canonical += [*k.rays, *k.lineality, *k.facet_normals, *k.span, *k.span_perp]
    assert all(type(x) is int for v in canonical for x in v)


@pytest.mark.parametrize("name", ["cube", "square", "triangle", "segment"])
def test_fixture_outputs_are_exact(name):
    assert_exact(bodyio.load_fixture(name))


coordinate = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))


@st.composite
def rational_polytopes(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=6 if dim < 4 else 5))
    pts = [tuple(draw(coordinate) for _ in range(dim)) for _ in range(count)]
    pts = pt.extreme_points(pts)
    assume(pts)
    return Polytope(tuple(pts))


@settings(max_examples=30, deadline=None)
@given(rational_polytopes())
def test_random_rational_polytope_outputs_are_exact(p):
    assert_exact(p)


def test_polar_of_thirds_is_exact():
    """A polar whose vertices are 1/offset times a normal, offsets of 1/3."""
    third = F(1, 3)
    p = Polytope((vec(third, 0), vec(0, third), vec(-third, -third)))
    assert pt.polar(p).vertices == (vec(-6, 3), vec(3, -6), vec(3, 3))
    assert_exact(p)


# ---------------------------------------------------------------------------
# planar outputs
# ---------------------------------------------------------------------------

def planar_directions(value) -> list:
    """The directions a planar object carries."""
    if isinstance(value, pl.Cone2):
        return [d for d in (value.d1, value.d2) if d is not None]
    if isinstance(value, pl.FaceDescriptor):
        return [value.direction] if value.direction is not None else []
    if isinstance(value, pl.Segment):
        return [value.outward_normal]
    return [value.start_radial, value.end_radial, value.interior_direction()]


def planar_outputs(b: pl.PlanarBody) -> list:
    """The exact outputs of the planar layer on b, over the compass and a few
    Fraction directions."""
    directions = pl.compass_directions(72)
    directions += [(F(i - 2, 3), F(3 - i, 2)) for i in range(5)]
    out = [pl.cone_inventory(b), pl.special_faces(b)]
    out += [pl.support_value(b, u) for u in directions]
    out += [pl.exposed_face(b, u) for u in directions]
    out += [pl.face_at(b, x) for x in pl.sample_boundary_points(b)]
    try:
        q = pl.polar_planar(b)
    except (OriginNotInterior, UnsupportedArcCenter):
        return out
    out += [q, pl.cone_inventory(q), pl.special_faces(q)]
    out += [pl.gauge_value(b, u) for u in directions]
    out += [pl.support_value(q, u) for u in directions]
    return out


PLANAR = [name for name in bodyio.list_fixtures()
          if isinstance(bodyio.load_fixture(name), pl.PlanarBody)]


@pytest.mark.parametrize("name", PLANAR)
def test_planar_fixture_outputs_are_exact(name):
    holders: list = []
    found = list(numbers(planar_outputs(bodyio.load_fixture(name)), holders, set()))
    bad = {type(x).__name__ for x in found if type(x) not in (int, F)}
    assert found and not bad, f"non-exact numbers of type {bad}"
    directions = [d for h in holders for d in planar_directions(h)]
    assert directions
    assert all(len(d) == 2 and type(x) is int for d in directions for x in d)


@pytest.mark.parametrize("planted", ["radial_point", "gauge_value", "support_value"])
def test_planar_walk_finds_a_planted_float(monkeypatch, planted):
    """The walk reaches the arc points and the gauge and support values: a
    float planted in any of them is found."""
    if planted == "radial_point":
        real = pl.Arc.radial_point
        monkeypatch.setattr(pl.Arc, "radial_point", lambda self, u: (
            None if (p := real(self, u)) is None else tuple(map(float, p))))
    else:
        real = getattr(pl, planted)

        def floating(b, u):
            answer = real(b, u)
            h = answer if planted == "gauge_value" else answer[0]
            h = pl.QuadVal(float(h.q), h.s, h.m)
            return h if planted == "gauge_value" else (h, answer[1])
        monkeypatch.setattr(pl, planted, floating)
    found = numbers(planar_outputs(bodyio.load_fixture("unit_disk")), [], set())
    assert float in set(map(type, found))


# ---------------------------------------------------------------------------
# lint: no `1 / x` in the exact modules
# ---------------------------------------------------------------------------

def literal_divisions(source: str) -> list[int]:
    """Line numbers of true divisions whose numerator is an int literal."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.Constant)
            and type(node.left.value) is int]


def test_lint_catches_literal_division():
    assert literal_divisions("a = 1 / x\nb = Fraction(1, x)\nc = Fraction(1) / x\n"
                             "d = x / 2\ne = (2 / (x + 1))\n") == [1, 5]


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_no_literal_division_in_exact_modules(module):
    lines = literal_divisions((SRC / module).read_text())
    assert not lines, (f"{module} lines {lines}: write Fraction(1, t) or "
                       "Fraction(1) / t, since 1 / t is float division for an int t")
