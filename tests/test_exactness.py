"""No float reaches an exact output, and canonical vectors are ints.

Every number reachable from the polytope layer's outputs (the four lattices,
the facets, the polar, support values, normal cones at points and the lifts)
must be an `int` or a `Fraction`.  The canonical vectors (a cone's rays,
lineality, facet normals, span and perp bases, every facet normal and the
body's `lin_perp`) must in addition be exactly `int`.  The last tests parse
the exact modules and reject a true division whose numerator is an int
literal: once an operand can be an int, `1 / x` is float division.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from facelat import bodyio
from facelat import polytope as pt
from facelat.errors import OriginNotInterior
from facelat.exactgeom import PolyCone, unit, vec
from facelat.lattice import FiniteLattice
from facelat.polytope import ConeElement, Facet, PolyFace, Polytope

SRC = Path(pt.__file__).resolve().parent
EXACT_MODULES = ("exactgeom.py", "polytope.py", "lattice.py", "checks.py",
                 "planar.py")


def numbers(value, cones: list, seen: set):
    """Every number reachable from value; the cones met on the way are
    appended to `cones`, each once."""
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
        yield from numbers((value.vertex_indices, value.dim, value.exposing_normal),
                           cones, seen)
    elif isinstance(value, Facet):
        yield from numbers((value.normal, value.offset, value.vertex_set), cones, seen)
    elif isinstance(value, FiniteLattice):
        yield from numbers(value.elements, cones, seen)
    elif isinstance(value, Polytope):
        yield from numbers(value.vertices, cones, seen)
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
        out += [pt.lift_point_set(p, basis, f) for f in pt.face_lattice(p).elements]
    return out


def assert_exact(p: Polytope):
    cones: list = []
    found = list(numbers(outputs(p), cones, set()))
    assert found
    bad = {type(x).__name__ for x in found if type(x) not in (int, F)}
    assert not bad, f"non-exact numbers of type {bad}"
    assert cones
    canonical = [f.normal for f in p.facets] + list(p.lin_perp)
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
