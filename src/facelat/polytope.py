"""Rational polytopes: face/exposed/normal/touching lattices, polarity, lifting.

Two independent routes compute the face structure.  The exposed route reads
the facets off the double-description core (the rays of the homogenised cone
over the vertices) and closes the vertex set under intersection with them.
The face route closes the vertices under carriers: the rational-LP carrier
oracle gives the smallest face containing a face and one more vertex.  It
never touches the facet machinery, so the agreement of the two lattices is
an actual test, not a tautology, in every dimension.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable

from .errors import (DimensionMismatch, HypothesisFailed, InvariantViolation,
                     NotAFace, OriginNotInterior, PointNotInBody, ZeroDirection)
from . import exactgeom as eg
from .exactgeom import (AffineSubspace, ConeTable, IVec, PolyCone, Vec,
                        aff_hull, cone_faces, dot, full_space, in_conv_hull,
                        in_ri_conv_hull, intersect_cones, is_zero,
                        minkowski_sum_cone, pos_hull, project_onto,
                        span_basis, subspace_cone, vadd, vneg, vscale, zero)
from .lattice import (FiniteLattice, _bits, build_lattice, lattice_map,
                      verify_isomorphism)


@dataclass(frozen=True)
class Facet:
    """Supporting hyperplane <normal, x> = offset with all vertices on <=;
    the normal is a primitive int vector."""

    normal: IVec
    offset: Fraction
    vertex_set: frozenset[int]


@dataclass(frozen=True, eq=False)
class PolyFace:
    """A face of a polytope, identified by the vertices it contains.

    The optional exposing normal is a witness, not part of the identity:
    faces compare equal by vertex set alone.
    """

    vertex_indices: tuple[int, ...]
    dim: int
    exposing_normal: Vec | None = None

    def __eq__(self, other):
        return isinstance(other, PolyFace) and self.vertex_indices == other.vertex_indices

    def __hash__(self):
        return hash(self.vertex_indices)

    @property
    def key(self):
        return self.vertex_indices

    @cached_property
    def vset(self) -> frozenset[int]:
        """The vertex indices as a set, built once per face."""
        return frozenset(self.vertex_indices)

    def label(self) -> str:
        if not self.vertex_indices:
            return "empty"
        return "{" + " ".join(str(i) for i in self.vertex_indices) + "}"


@dataclass(frozen=True)
class ConeElement:
    """Lattice payload wrapping a canonical cone."""

    cone: PolyCone

    @property
    def key(self):
        return (self.cone.rays, self.cone.lineality)

    @property
    def dim(self) -> int:
        return self.cone.cone_dim

    def label(self) -> str:
        return self.cone.label()


@dataclass(frozen=True)
class Polytope:
    """Rational V-representation; every listed vertex must be extreme."""

    vertices: tuple[Vec, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a polytope needs at least one vertex")
        d = len(self.vertices[0])
        if not 1 <= d <= 4:
            raise ValueError("ambient dimension must be between 1 and 4")
        if any(len(v) != d for v in self.vertices):
            raise DimensionMismatch("inconsistent vertex dimensions")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for i, v in enumerate(self.vertices):
            others = [w for j, w in enumerate(self.vertices) if j != i]
            if others and in_conv_hull(others, v):
                raise ValueError(f"vertex {i} is not extreme")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @cached_property
    def affine(self) -> AffineSubspace:
        return aff_hull(self.vertices)

    @property
    def dim(self) -> int:
        return self.affine.dim

    @cached_property
    def lin_perp(self) -> tuple[IVec, ...]:
        return eg._perp(self.affine.directions, self.ambient_dim)

    @cached_property
    def _vertex_grid(self) -> tuple[int, tuple[IVec, ...]]:
        """(d, points): vertex i is points[i]/d, over one common d."""
        return eg.point_grid(self.vertices)

    @cached_property
    def _vertex_index(self) -> dict[Vec, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        return _enumerate_facets(*self._vertex_grid, self.lin_perp, self.cone_table)

    @cached_property
    def _vertex_cone(self) -> eg.Seed:
        """The homogenised body pos{(v, 1)} as a start for the double
        description: a ray (grid vertex, d) per vertex, on the row of each
        facet through the vertex.  Every vertex is extreme, so these are its
        extreme rays, and the facets are its facets within its span."""
        d, grid = self._vertex_grid
        return eg.Seed(tuple((v + (d,), sum(1 << j for j, f in enumerate(self.facets)
                                            if i in f.vertex_set))
                             for i, v in enumerate(grid)), self.dim + 1, len(self.facets))

    # Lattices, the polar, the projections (each with its lifts) and normal
    # cones are memoized on the body itself, so each lives exactly as long as
    # the body it was built from.  The cone table is shared with the bodies
    # derived from this one (`_derive`), so it lives as long as the body they
    # all derive from.

    @cached_property
    def cone_table(self) -> ConeTable:
        return ConeTable()

    def _derive(self, vertices: tuple[Vec, ...]) -> "Polytope":
        """A body built from this one (its polar or a projection) that shares
        this body's cone table."""
        q = Polytope(vertices)
        q.__dict__["cone_table"] = self.cone_table
        return q

    @cached_property
    def _exposed_lattice(self) -> FiniteLattice:
        return _build_exposed_lattice(self)

    @cached_property
    def _face_lattice(self) -> FiniteLattice:
        return _build_face_lattice(self)

    @cached_property
    def _normal_lattice(self) -> FiniteLattice:
        return _build_normal_lattice(self)

    @cached_property
    def _touching_lattice(self) -> FiniteLattice:
        return _build_touching_lattice(self)

    @cached_property
    def _polar(self) -> "Polytope":
        _require_origin_interior(self)
        return self._derive(tuple(sorted(vscale(Fraction(1) / f.offset, f.normal)
                                         for f in self.facets)))

    @cached_property
    def _projections(self) -> dict[tuple[IVec, ...], Projection]:
        """Canonical subspace basis scaled to integers -> the subspace's
        `Projection` (`projection`)."""
        return {}

    @cached_property
    def _face_dims(self) -> dict[tuple[int, ...], int]:
        """Sorted vertex indices of a face -> dimension of their affine hull."""
        return {}

    @cached_property
    def _face_normal_cones(self) -> dict[tuple[int, ...], PolyCone]:
        return {}

    @cached_property
    def _point_normal_cones(self) -> dict[Vec, PolyCone]:
        return {}

    def _slacks(self, x: Vec) -> list[int] | None:
        """For each facet an integer with the sign of n.x - offset, or None
        when x is off the affine hull; computed on the vertex grid."""
        e, xs = _int_point(x, self.ambient_dim)
        d, grid = self._vertex_grid
        if any(eg._idot(m, xs) * d != eg._idot(m, grid[0]) * e for m in self.lin_perp):
            return None
        return [eg._idot(f.normal, xs) * f.offset.denominator - f.offset.numerator * e
                for f in self.facets]

    def contains(self, x: Vec) -> bool:
        slacks = self._slacks(x)
        return slacks is not None and all(t <= 0 for t in slacks)

    def face_of_point(self, x: Vec) -> PolyFace:
        """The unique face with x in its relative interior."""
        slacks = self._slacks(x)
        if slacks is None or any(t > 0 for t in slacks):
            raise PointNotInBody(f"{x} is not in the polytope")
        vset = frozenset(range(len(self.vertices)))
        for f, t in zip(self.facets, slacks):
            if t == 0:
                vset &= f.vertex_set
        return self.make_face(vset)

    def make_face(self, vset, normal: Vec | None = None) -> PolyFace:
        idx = tuple(sorted(vset))
        if not idx:
            return PolyFace((), -1, normal)
        dim = self._face_dims.get(idx)
        if dim is None:
            dim = self._face_dims[idx] = _grid_dim(self._vertex_grid[1], idx)
        return PolyFace(idx, dim, normal)

    def face_points(self, f: PolyFace) -> list[Vec]:
        return [self.vertices[i] for i in f.vertex_indices]

    def ri_point(self, f: PolyFace) -> Vec:
        """Centroid of the face's vertices; lies in the relative interior."""
        if not f.vertex_indices:
            raise NotAFace("the empty face has no relative-interior point")
        return self._centroid(f.vertex_indices)

    def _centroid(self, indices) -> Vec:
        """The mean of the given vertices, summed on the vertex grid."""
        d, grid = self._vertex_grid
        return tuple(Fraction(sum(c), d * len(indices))
                     for c in zip(*(grid[i] for i in indices)))

    def ri_samples(self, f: PolyFace, count: int = 3) -> list[Vec]:
        """A few distinct relative-interior points (positive-weight mixes)."""
        pts = self.face_points(f)
        out = []
        for s in range(count):
            weights = [Fraction(1 + ((i + s) % len(pts)), 1) for i in range(len(pts))]
            total = sum(weights)
            acc = zero(self.ambient_dim)
            for w, p in zip(weights, pts):
                acc = vadd(acc, vscale(w / total, p))
            if acc not in out:
                out.append(acc)
        return out


def _int_point(x: Vec, dim: int) -> tuple[int, list[int]]:
    """(e, xs) with x = xs/e, e the lcm of the denominators of x, a point or
    direction of R^dim."""
    if len(x) != dim:
        raise DimensionMismatch("point and polytope dimensions differ")
    e = lcm(*(c.denominator for c in x))
    return e, [c.numerator * (e // c.denominator) for c in x]


def _enumerate_facets(den: int, grid: tuple[IVec, ...], lin_perp: tuple[IVec, ...],
                      table: ConeTable) -> tuple[Facet, ...]:
    """Facets of conv(grid[i]/den), lin_perp the orthogonal complement of
    the direction space of its affine hull, from the homogenised cone
    {(n, c) : n in the direction space, n.v <= c for every point v}: each of
    its rays (n, c) with n != 0 is an outer facet normal n with offset
    c = max n.v, and nothing else is.  A point that is not a vertex only
    adds a redundant row, so the facets are those of the vertices alone."""
    d = len(grid[0])
    eqs = [m + (0,) for m in lin_perp]
    ineqs = [v + (-den,) for v in grid]
    rays, _ = eg.double_description(eqs, ineqs, d + 1, table)
    facets = []
    for r in rays:
        if not any(r[:d]):
            continue  # the ray (0, 1) of a point
        n = eg._iprimitive(r[:d])
        values = [eg._idot(n, v) for v in grid]
        c = max(values)
        facets.append(Facet(n, Fraction(c, den),
                            frozenset(i for i, t in enumerate(values) if t == c)))
    return tuple(sorted(facets, key=lambda f: f.normal))


# ---------------------------------------------------------------------------
# support and exposed faces
# ---------------------------------------------------------------------------

def support(p: Polytope, u: Vec) -> tuple[Fraction, PolyFace]:
    """Support value and the exposed face of the direction u."""
    if is_zero(u):
        raise ZeroDirection("support direction must be nonzero")
    e, us = _int_point(u, p.ambient_dim)
    d, grid = p._vertex_grid
    values = [eg._idot(us, v) for v in grid]
    h = max(values)
    vset = frozenset(i for i, val in enumerate(values) if val == h)
    return Fraction(h, e * d), p.make_face(vset, eg._iprimitive(us))


def exposed_face_lattice(p: Polytope) -> FiniteLattice:
    """All exposed faces: the intersections of facets, by intersection closure."""
    return p._exposed_lattice


def _build_exposed_lattice(p: Polytope) -> FiniteLattice:
    n = len(p.vertices)
    facets = p.facets
    vsets = eg.intersection_closure(frozenset(range(n)), [f.vertex_set for f in facets])
    vsets.add(frozenset())
    faces = []
    for vset in vsets:
        if vset == frozenset(range(n)) or not vset:
            faces.append(p.make_face(vset))
            continue
        active = [f.normal for f in facets if vset <= f.vertex_set]
        witness = [sum(c) for c in zip(*active)]
        faces.append(p.make_face(vset, eg._iprimitive(witness)))
    return _vertex_set_lattice(faces)


def _vertex_set_lattice(faces: Iterable[PolyFace]) -> FiniteLattice:
    """Faces ordered by inclusion of their vertex sets, listed by dimension
    and then by vertices."""
    faces = sorted(faces, key=lambda f: (f.dim, f.vertex_indices))
    return build_lattice(faces, [sum(1 << i for i in f.vertex_indices)
                                 for f in faces])


def face_lattice(p: Polytope) -> FiniteLattice:
    """All faces, by carrier closure with the LP carrier oracle.

    The carrier of centroid(F + {v}) is the smallest face containing a face F
    and a vertex v.  Starting from the vertices, every face is reached by a
    chain of such steps, so the closure costs O(#faces * n) carrier calls.  It
    never touches the facets, so comparing it with `exposed_face_lattice` is a
    real cross-check.
    """
    return p._face_lattice


def _build_face_lattice(p: Polytope) -> FiniteLattice:
    """The carrier closure, each carrier solved inside a face already found.

    A face of a face is a face, so the carrier of K = F + {v} is the carrier
    of K in any face G containing K: the LP (`eg.hull_carrier` on the body's
    integer `hull_rows`) runs over the vertices of the smallest face G found
    so far that contains K.  The body itself counts as found from the start,
    so G always exists, and every G is a carrier of this route, never a facet.
    No LP is needed when dim G = dim F + 1: aff(F) meets the body only in
    F, so v lies off aff(F), K spans aff(G), and the centroid of K lies in
    ri G.  Nor is one needed when K contains a key already solved to G: the
    carrier grows with the key, and K lies in G.  Face dimensions are integer
    ranks on the vertex grid.
    """
    n = len(p.vertices)
    _, grid = p._vertex_grid
    rows = eg.hull_rows(grid)
    dims: dict[int, int] = {}  # found face (vertex bitmask) -> its dimension
    containing: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    carriers: dict[int, int] = {}  # key bitmask -> its carrier's
    spanning: dict[int, list[int]] = {}  # found face -> keys it carries
    todo: list[int] = []

    def add(face: int):
        idx = tuple(_bits(face))
        dims[face] = _grid_dim(grid, idx)
        for i in idx:  # (size, face), smallest first, for the search for G
            insort(containing[i], (len(idx), face))
        todo.append(face)

    for i in range(n):  # every vertex is extreme
        add(1 << i)
    if n > 1:
        add((1 << n) - 1)
    while todo:
        face = todo.pop()
        for v in range(n):
            key = face | 1 << v
            if key == face:
                continue
            carrier = carriers.get(key)
            if carrier is None:
                g = next(g for _, g in containing[v] if g | key == g)
                if dims[g] == dims[face] + 1 or any(
                        k | key == key for k in spanning.get(g, ())):
                    carrier = g
                else:
                    carrier = _carrier_in_face(grid, rows, g, key)
                    spanning.setdefault(carrier, []).append(key)
                carriers[key] = carrier
            if carrier not in dims:
                add(carrier)
    faces = [p.make_face(frozenset())]
    for face, dim in dims.items():
        idx = tuple(_bits(face))
        p._face_dims.setdefault(idx, dim)
        faces.append(p.make_face(idx))
    return _vertex_set_lattice(faces)


def _carrier_in_face(grid: tuple[IVec, ...], rows: list[list[int]], g: int,
                     key: int) -> int:
    """The carrier of the centroid of the vertices `key`, solved over the
    vertices of a face g that contains them (bitmasks over the vertex grid;
    rows = `eg.hull_rows(grid)`)."""
    cols = list(_bits(g))
    idx = list(_bits(key))
    rhs = [sum(c) for c in zip(*(grid[i] for i in idx))] + [len(idx)]
    support = eg.hull_carrier([[row[j] for j in cols] for row in rows], rhs,
                              [k for k, j in enumerate(cols) if key >> j & 1])
    return sum(1 << cols[k] for k in support)


def _grid_dim(grid: tuple[IVec, ...], idx: tuple[int, ...]) -> int:
    """The dimension of the affine hull of the grid points idx: the rank of
    their integer differences, by fraction-free elimination."""
    return len(eg._eliminate([[a - b for a, b in zip(grid[i], grid[idx[0]])]
                              for i in idx[1:]], reduced=False))


def is_face(p: Polytope, f: PolyFace) -> bool:
    try:
        face_lattice(p).index_of(f.key)
        return True
    except KeyError:
        return False


# ---------------------------------------------------------------------------
# normal and touching cones
# ---------------------------------------------------------------------------

def normal_cone_at_point(p: Polytope, x: Vec) -> PolyCone:
    """N(C, x) as the exact dual of the cone of feasible directions at x:
    {u : u.(v - x) <= 0 for every vertex v}, one conversion of those rows.

    x is in C iff no u has u.(v - x) < 0 for every v (Gordan's theorem).
    The sum of the cone's rays is such a u if any is, so a point off C is
    told from the rays of the conversion itself."""
    key = tuple(x)
    cone = p._point_normal_cones.get(key)
    if cone is None:
        # v - x for each vertex v, times d*e: on the vertex grid, in integers
        e, xs = _int_point(key, p.ambient_dim)
        d, grid = p._vertex_grid
        diffs = [[a * e - b * d for a, b in zip(v, xs)] for v in grid]
        dim, table = p.ambient_dim, p.cone_table
        rays, lin = eg.double_description((), diffs, dim, table)
        u = [sum(c) for c in zip(*rays)]
        if all(eg._idot(u, a) < 0 for a in diffs):
            raise PointNotInBody(f"{x} is not in the polytope")
        cone = p._point_normal_cones[key] = eg._cone(table, dim, rays, lin)
    return cone


def normal_cone(p: Polytope, f: PolyFace) -> PolyCone:
    """Normal cone of a face, from the facets containing it.

    N(C, F) is the positive hull of the normals of the facets that contain F,
    plus the orthogonal complement of the body's direction space; the empty
    face maps to the whole space.  F must be a face; it is checked against
    `exposed_face_lattice`, the facet route this cone is built from (for a
    polytope every face is exposed).  `normal_cone_at_point` is the
    independent, definitional route.
    """
    if not f.vertex_indices:
        return full_space(p.ambient_dim, p.cone_table)
    cone = p._face_normal_cones.get(f.vertex_indices)
    if cone is None:
        try:
            exposed_face_lattice(p).index_of(f.key)
        except KeyError:
            raise NotAFace(f"{f.vertex_indices} is not a face") from None
        gens = [fc.normal for fc in p.facets if f.vset <= fc.vertex_set]
        for b in p.lin_perp:
            gens += [b, vneg(b)]
        cone = p._face_normal_cones[f.vertex_indices] = pos_hull(
            gens, p.ambient_dim, p.cone_table)
    return cone


def normal_cone_lattice(p: Polytope) -> FiniteLattice:
    return p._normal_lattice


def _build_normal_lattice(p: Polytope) -> FiniteLattice:
    return _cone_lattice({normal_cone(p, f) for f in exposed_face_lattice(p).elements})


def _cone_lattice(cones: set[PolyCone]) -> FiniteLattice:
    """Cones ordered by inclusion (`eg.held_generators`), listed by dimension
    and then by key."""
    elements = sorted(map(ConeElement, cones), key=lambda e: (e.dim, e.key))
    return build_lattice(elements, eg.held_generators([e.cone for e in elements]))


def touching_cone_lattice(p: Polytope) -> FiniteLattice:
    """All nonempty faces of all normal cones (equals the normal fan here)."""
    return p._touching_lattice


def _build_touching_lattice(p: Polytope) -> FiniteLattice:
    return _cone_lattice({face for el in normal_cone_lattice(p).elements
                          for face in cone_faces(el.cone)})


def touching_cone_at(p: Polytope, u: Vec) -> PolyCone:
    """The face of N(C, F_perp(C,u)) holding u in its relative interior."""
    if is_zero(u):
        raise ZeroDirection("touching cone direction must be nonzero")
    _, face = support(p, u)
    n = normal_cone(p, face)
    for t in cone_faces(n):
        if t.ri_contains(u):
            return t
    raise InvariantViolation("relative interiors of cone faces must partition the cone")


# ---------------------------------------------------------------------------
# smallest exposed face and exposed meets
# ---------------------------------------------------------------------------

def sup_exposed(p: Polytope, f: PolyFace) -> PolyFace:
    """Smallest exposed face containing f (the meet of all exposed superfaces)."""
    lat = exposed_face_lattice(p)
    indices = [i for i, e in enumerate(lat.elements) if f.vset <= e.vset]
    result = lat.elements[lat.meet(indices)]
    top = frozenset(range(len(p.vertices)))
    if f.vset and f.vset != top and is_face(p, f):
        v = normal_cone(p, f).ri_vector()
        if v is not None:
            _, alt = support(p, v)
            if alt.vset != result.vset:
                raise InvariantViolation("both smallest-exposed formulas must agree")
    return result


def exposed_meet(p: Polytope, directions: list[Vec]) -> tuple[PolyFace, Vec | None]:
    """Intersection of the exposed faces of several directions, with a witness.

    When nonempty, the intersection is itself the exposed face of any ray
    through the relative interior of the directions' hull, and that single
    direction is returned as the witness; the empty intersection has none.
    """
    if not directions:
        raise ValueError("need at least one direction")
    if any(is_zero(u) for u in directions):
        raise ZeroDirection("directions must be nonzero")
    inter = None
    for u in directions:
        _, face = support(p, u)
        inter = face.vset if inter is None else inter & face.vset
    if not inter:
        return p.make_face(frozenset()), None
    witness = zero(p.ambient_dim)
    for u in directions:
        witness = vadd(witness, u)
    if is_zero(witness):
        witness = vadd(witness, vscale(Fraction(1, 2), directions[0]))
    _, wface = support(p, witness)
    if wface.vset != inter:
        raise InvariantViolation("witness direction must expose the intersection")
    return p.make_face(inter, eg._iprimitive(eg._scaled(witness))), witness


# ---------------------------------------------------------------------------
# polarity
# ---------------------------------------------------------------------------

def _require_origin_interior(p: Polytope):
    if p.dim != p.ambient_dim:
        raise OriginNotInterior("polytope is not full-dimensional")
    if not all(f.offset > 0 for f in p.facets):
        raise OriginNotInterior("origin is not an interior point")


def polar(p: Polytope) -> Polytope:
    """Polar polytope; vertices are the facet normals scaled to offset 1."""
    return p._polar


def conjugate_face(p: Polytope, f: PolyFace) -> PolyFace:
    """Conjugate face of f inside the polar polytope."""
    _require_origin_interior(p)
    q = polar(p)
    if not f.vertex_indices:
        return q.make_face(frozenset(range(len(q.vertices))))
    # w.y == 1 on the two vertex grids, in integers
    dp, ys = p._vertex_grid
    dq, ws = q._vertex_grid
    vset = frozenset(j for j, w in enumerate(ws)
                     if all(eg._idot(w, ys[i]) == dp * dq for i in f.vertex_indices))
    return q.make_face(vset)


@dataclass(frozen=True)
class PosIsoReport:
    exposed_to_normal_passed: bool
    faces_to_touching_passed: bool
    inverse_passed: bool
    source_size: int
    target_size: int
    details: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (self.exposed_to_normal_passed and self.faces_to_touching_passed
                and self.inverse_passed)


def pos_iso_check(p: Polytope) -> PosIsoReport:
    """Verify that positive hulls of polar faces give the normal/touching fans.

    Checks that F -> pos(F) is an isotone lattice isomorphism from the exposed
    faces of the polar onto the normal cones, extends to all faces versus
    touching cones, and that N -> rb(polar) cap N inverts it on proper cones.
    """
    _require_origin_interior(p)
    if len(p.vertices) < 2:
        raise ValueError("needs at least two vertices")
    q = polar(p)
    details = []
    hulls: dict[tuple[int, ...], ConeElement] = {}

    def pos_of_face(face: PolyFace) -> ConeElement:
        # the exposed faces of the polar are among its faces: one hull each
        el = hulls.get(face.key)
        if el is None:
            el = hulls[face.key] = ConeElement(
                pos_hull(q.face_points(face), q.ambient_dim, q.cone_table))
        return el

    def checked(src, tgt, what):
        try:
            rep = verify_isomorphism(lattice_map(src, tgt, pos_of_face, "isotone"))
        except KeyError as e:
            details.append(f"{what}: positive hull {e} is not in the target lattice")
            return False
        details.extend(rep.failures)
        return rep.passed

    fq = exposed_face_lattice(q)
    nl = normal_cone_lattice(p)
    ok1 = checked(fq, nl, "exposed faces of the polar vs normal cones")

    ff = face_lattice(q)
    tl = touching_cone_lattice(p)
    ok2 = checked(ff, tl, "faces of the polar vs touching cones")

    inverse_ok = True
    for el in nl.elements:
        cone = el.cone
        if cone == full_space(p.ambient_dim):
            continue
        vset = frozenset(j for j, w in enumerate(q.vertices) if cone.contains(w))
        back = pos_hull([q.vertices[j] for j in vset], q.ambient_dim, q.cone_table)
        try:
            fq.index_of(tuple(sorted(vset)))
        except KeyError:
            inverse_ok = False
            details.append(f"rb(polar) cap {cone.label()} is not an exposed face")
            continue
        if back != cone:
            inverse_ok = False
            details.append(f"pos(rb(polar) cap N) != N for {cone.label()}")
    return PosIsoReport(ok1, ok2, inverse_ok,
                        len(fq.elements), len(nl.elements), tuple(details))


# ---------------------------------------------------------------------------
# projections, lifts, cylinders
# ---------------------------------------------------------------------------

def extreme_points(points: list[Vec]) -> list[Vec]:
    pts = sorted(set(points))
    return [v for i, v in enumerate(pts)
            if not in_conv_hull(pts[:i] + pts[i + 1:], v)] if len(pts) > 1 else pts


@dataclass(frozen=True, eq=False)
class Projection:
    """What a body derives from one subspace V, built once per canonical
    subspace by `projection` and freed with the body.

    `basis` is the canonical basis of V and `points` the projection of each
    vertex, in vertex order.  The memos: `lifted_faces` by face of the
    projection, `lifted_point_sets` by the projected points of a face of the
    body (faces with the same projection have the same lift), and `sums`,
    the Minkowski sum with V_perp by N(C, a) cap V.  `vertex_slacks` keeps
    one integer slack row per projected vertex for every lift, and a cylinder
    check at a vertex reads that vertex's projection from `points`.
    """

    body: Polytope
    basis: tuple[Vec, ...]
    points: tuple[Vec, ...]
    lifted_faces: dict[tuple[int, ...], PolyFace]
    lifted_point_sets: dict[frozenset[Vec], tuple[Vec, ...]]
    sums: dict[PolyCone, PolyCone]

    @cached_property
    def polytope(self) -> Polytope:
        """The projection of the body onto V."""
        return self.body._derive(tuple(extreme_points(list(self.points))))

    @cached_property
    def v_cone(self) -> PolyCone:
        return subspace_cone(self.basis, self.body.ambient_dim, self.body.cone_table)

    @cached_property
    def perp_cone(self) -> PolyCone:
        d = self.body.ambient_dim
        return subspace_cone(eg._perp(self.basis, d), d, self.body.cone_table)

    @cached_property
    def vertex_slacks(self) -> tuple[list[int], ...]:
        """The projection's `Polytope._slacks` at each projected vertex, in
        vertex order: the facets of the projection through it."""
        return tuple(map(self.polytope._slacks, self.points))

    def lift_face(self, f: PolyFace) -> PolyFace:
        """The face of the body whose projection is the face f of the
        projection; it carries the exposing normal of f."""
        p = self.body
        if not f.vertex_indices:
            return p.make_face(frozenset())
        lifted = self.lifted_faces.get(f.key)
        if lifted is None:
            q = self.polytope
            try:
                face_lattice(q).index_of(f.key)
            except KeyError:
                raise NotAFace("not a face of the projected polytope")
            # a projected vertex lies in q, so it is in f when it is on
            # every facet of q that contains f
            active = [k for k, fc in enumerate(q.facets) if f.vset <= fc.vertex_set]
            vset = frozenset(i for i, s in enumerate(self.vertex_slacks)
                             if all(s[k] == 0 for k in active))
            lifted = p.make_face(vset, f.exposing_normal)
            if not is_face(p, lifted):
                raise NotAFace("lift did not produce a face")
            self.lifted_faces[f.key] = lifted
        if lifted.exposing_normal != f.exposing_normal:
            lifted = PolyFace(lifted.vertex_indices, lifted.dim, f.exposing_normal)
        return lifted

    def lift_point_set(self, f: PolyFace) -> tuple[Vec, ...]:
        """Vertices of (conv(f) + V_perp) cap C for a face f of the body C."""
        if not f.vertex_indices:
            return ()
        pts = [self.points[i] for i in f.vertex_indices]
        key = frozenset(pts)
        out = self.lifted_point_sets.get(key)
        if out is None:
            out = self.lifted_point_sets[key] = _lift_vertices(self.body, self.basis, pts)
        return out

    def cylinder_normal_check(self, a: Vec) -> CylinderNormalReport:
        """N(pi_V(C), pi_V(a)) against (N(C, a) cap V) + V_perp."""
        p = self.body
        if not p.contains(a):
            raise PointNotInBody(f"{a} is not in the polytope")
        i = p._vertex_index.get(tuple(a))
        pa = project_onto(self.basis, a) if i is None else self.points[i]
        lhs = normal_cone_at_point(self.polytope, pa)
        inter = intersect_cones(normal_cone_at_point(p, a), self.v_cone)
        rhs = self.sums.get(inter)
        if rhs is None:
            rhs = self.sums[inter] = minkowski_sum_cone(inter, self.perp_cone)
        return CylinderNormalReport(lhs, rhs)


def projection(p: Polytope, v_basis: list[Vec]) -> Projection:
    """The record of span(v_basis) on p, solved once per subspace and keyed
    by its canonical basis scaled to integers.  A basis already canonical,
    as the check suites pass it, finds its record with no elimination."""
    out = p._projections.get(tuple(tuple(eg._scaled(b)) for b in v_basis))
    if out is None:
        if any(len(b) != p.ambient_dim for b in v_basis):
            raise DimensionMismatch("basis and polytope dimensions differ")
        basis = span_basis(v_basis)
        key = tuple(tuple(eg._scaled(b)) for b in basis)
        out = p._projections.get(key)
        if out is None:
            out = p._projections[key] = Projection(
                p, basis, tuple(project_onto(basis, x) for x in p.vertices), {}, {}, {})
    return out


def project_polytope(p: Polytope, v_basis: list[Vec]) -> Polytope:
    """Orthogonal projection onto the subspace spanned by v_basis."""
    return projection(p, v_basis).polytope


def lift_face(p: Polytope, v_basis: list[Vec], f: PolyFace) -> PolyFace:
    """Lift a face of the projection back to a face of p (`Projection.lift_face`)."""
    return projection(p, v_basis).lift_face(f)


def lift_point_set(p: Polytope, v_basis: list[Vec], f: PolyFace) -> tuple[Vec, ...]:
    """Vertices of (conv(f) + V_perp) cap p, by vertex enumeration
    (`Projection.lift_point_set`)."""
    return projection(p, v_basis).lift_point_set(f)


def _lift_vertices(p: Polytope, basis: tuple[Vec, ...], pts: list[Vec]) -> tuple[Vec, ...]:
    """`lift_point_set` computed: pts are the projections onto V = span(basis)
    of the face's vertices, extreme or not.

    The system is p's own, plus conv(pts) pulled back through V: its facets,
    and the slab equalities on V cap D_perp, D the direction space of
    conv(pts), all read off the points' integer grid.  p's own rows are
    those of its homogenised vertex cone, so the enumeration starts from
    that cone and adds the pulled-back rows only."""
    d = p.ambient_dim
    den, grid = eg.point_grid(pts)
    dirs = [[a - b for a, b in zip(g, grid[0])] for g in grid[1:]]
    slab = eg._ikernel([*eg._perp(basis, d), *dirs], d)
    equalities = [(m, dot(m, pts[0])) for m in slab]
    facets = _enumerate_facets(den, grid, eg._ikernel(dirs, d), p.cone_table)
    inequalities = [(fc.normal, fc.offset) for fc in facets]
    return _vertex_enumerate(equalities, inequalities, d, p._vertex_cone)


def _vertex_enumerate(equalities, inequalities, dim,
                      seed: eg.Seed | None = None) -> tuple[Vec, ...]:
    """Vertices of {x : e.x = c for (e, c) in equalities, n.x <= c for (n, c) in
    inequalities}: the rays (x, t) with t > 0 of its homogenisation, a cone
    with the extra row t >= 0.  A polyhedron with a lineality space has none.

    With a `seed`, the homogenisation of a polytope in R^dim, the system is
    that polytope cut by the rows: the enumeration starts from the seed's
    rays, all with t > 0, and adds the rows alone."""
    eqs = [eg._scaled((*e, -c)) for e, c in equalities]
    ineqs = [eg._scaled((*n, -c)) for n, c in inequalities]
    if seed is not None:
        rays = eg._seeded_description(seed, eqs, ineqs)
    else:
        ineqs.append((0,) * dim + (-1,))
        rays, lin = eg.double_description(eqs, ineqs, dim + 1)
        if lin:
            return ()
        rays = [r for r in rays if r[-1] > 0]
    # sorted on the integer points over one common denominator, the order
    # of the rational points themselves
    den = lcm(*(r[-1] for r in rays))
    rays = sorted(rays, key=lambda r: [x * (den // r[-1]) for x in r[:-1]])
    return tuple(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays)


@dataclass(frozen=True)
class LiftReport:
    face_iso_passed: bool
    exposed_iso_passed: bool
    meets_are_intersections: bool
    invariance_passed: bool
    canonical_subspace_passed: bool
    canonical_subspace_distinct: bool  # False: a lift was compared with itself
    details: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (self.face_iso_passed and self.exposed_iso_passed
                and self.meets_are_intersections and self.invariance_passed
                and self.canonical_subspace_passed)


def lifted_face_lattices(p: Polytope, v_basis: list[Vec]
                         ) -> tuple[FiniteLattice, FiniteLattice, LiftReport]:
    """Lifted face and exposed-face lattices of a projection, with verification."""
    proj = projection(p, v_basis)
    q = proj.polytope
    details: list[str] = []

    def build_lifted(src: FiniteLattice):
        faces = {}
        for f in src.elements:
            lf = proj.lift_face(f)
            faces[lf.key] = lf
        return _vertex_set_lattice(faces.values())

    lifted_f = build_lifted(face_lattice(q))
    lifted_perp = build_lifted(exposed_face_lattice(q))

    iso1 = verify_isomorphism(lattice_map(
        face_lattice(q), lifted_f, proj.lift_face, "isotone"))
    iso2 = verify_isomorphism(lattice_map(
        exposed_face_lattice(q), lifted_perp, proj.lift_face, "isotone"))
    details.extend(iso1.failures)
    details.extend(iso2.failures)

    meets_ok = True
    for i in range(len(lifted_f.elements)):
        for j in range(len(lifted_f.elements)):
            met = lifted_f.elements[lifted_f.meet([i, j])]
            if met.vset != lifted_f.elements[i].vset & lifted_f.elements[j].vset:
                meets_ok = False
                details.append("lifted meet differs from intersection")

    # The lift depends only on the projection U of the subspace onto the
    # body's direction space; when U is the subspace itself there is nothing
    # to compare.
    basis = proj.basis
    u_basis = span_basis([project_onto(p.affine.directions, b) for b in basis])
    u_proj = projection(p, u_basis) if u_basis and u_basis != basis else None
    lifted_keys = {f.key for f in lifted_f.elements}
    canon_failures = []
    invariance_ok = True
    for f in face_lattice(p).elements:
        in_lattice = f.key in lifted_keys
        if not f.vertex_indices:
            fixed = True
        else:
            # lifts are sorted tuples of distinct points
            lifted_pts = proj.lift_point_set(f)
            fixed = lifted_pts == tuple(sorted(p.face_points(f)))
            if u_basis != basis:
                canonical_pts = (u_proj.lift_point_set(f) if u_proj
                                 else tuple(sorted(p.vertices)))
                if lifted_pts != canonical_pts:
                    canon_failures.append(
                        f"canonical-subspace lift differs on {f.label()}")
        if in_lattice != fixed:
            invariance_ok = False
            details.append(
                f"lift invariance mismatch on face {f.label()}: "
                f"in lifted lattice {in_lattice}, lift-fixed {fixed}")
    details.extend(canon_failures)
    report = LiftReport(iso1.passed, iso2.passed, meets_ok, invariance_ok,
                        not canon_failures, u_basis != basis, tuple(details))
    return lifted_f, lifted_perp, report


@dataclass(frozen=True)
class CylinderNormalReport:
    projected_cone: PolyCone
    formula_cone: PolyCone

    @property
    def passed(self) -> bool:
        return self.projected_cone == self.formula_cone


def cylinder_normal_check(p: Polytope, v_basis: list[Vec], a: Vec) -> CylinderNormalReport:
    """Compare N(pi_V(C), pi_V(a)) against (N(C,a) cap V) + V_perp, exactly
    (`Projection.cylinder_normal_check`)."""
    return projection(p, v_basis).cylinder_normal_check(a)


# ---------------------------------------------------------------------------
# sharp relations
# ---------------------------------------------------------------------------

def is_sharp_normal(p: Polytope, u: Vec) -> bool:
    """Exact test of: ri points of the exposed face of u see u in ri of their cone."""
    if is_zero(u):
        raise ZeroDirection("sharp-normal direction must be nonzero")
    _, face = support(p, u)
    x = p.ri_point(face)
    return normal_cone_at_point(p, x).ri_contains(u)


def is_sharp_exposed(p: Polytope, x: Vec) -> bool:
    """Exact test of: every ri direction of N(C,x) exposes a face with x in its ri."""
    if not p.contains(x):
        raise PointNotInBody(f"{x} is not in the polytope")
    f0 = p.face_of_point(x)
    n = normal_cone(p, f0)
    v = n.ri_vector()
    if v is None:
        return True
    _, face = support(p, v)
    return in_ri_conv_hull(p.face_points(face), x)


# ---------------------------------------------------------------------------
# atom / coatom decompositions
# ---------------------------------------------------------------------------

def _touching_inside_all_normal(p: Polytope, n: PolyCone) -> bool:
    keys = normal_cone_lattice(p)._by_key
    return all((f.rays, f.lineality) in keys for f in cone_faces(n))


def atom_decomposition(p: Polytope, n: PolyCone) -> list[PolyCone]:
    """Write a proper normal cone as a join of at most dim(N)-dim(lin_perp) atoms."""
    lat = normal_cone_lattice(p)
    idx = lat.index_of((n.rays, n.lineality))
    if idx in (lat.bottom, lat.top):
        raise ValueError("decomposition applies to proper normal cones")
    if not _touching_inside_all_normal(p, n):
        raise HypothesisFailed("a touching cone inside N is not a normal cone")
    bound = n.cone_dim - len(p.lin_perp)
    from .lattice import decompose_by_atoms
    subset = decompose_by_atoms(lat, idx, bound)
    if subset is None:
        raise InvariantViolation("decomposition guaranteed under the hypothesis")
    return [lat.elements[i].cone for i in subset]


def coatom_decomposition(p: Polytope, f: PolyFace) -> list[PolyFace]:
    """Write a proper exposed face as an intersection of coatoms of the exposed lattice."""
    lat = exposed_face_lattice(p)
    idx = lat.index_of(f.key)
    if idx in (lat.bottom, lat.top):
        raise ValueError("decomposition applies to proper exposed faces")
    n = normal_cone(p, f)
    if not _touching_inside_all_normal(p, n):
        raise HypothesisFailed("a touching cone inside N(C,F) is not a normal cone")
    bound = n.cone_dim - len(p.lin_perp)
    from .lattice import decompose_by_coatoms
    subset = decompose_by_coatoms(lat, idx, bound)
    if subset is None:
        raise InvariantViolation("decomposition guaranteed under the hypothesis")
    return [lat.elements[i] for i in subset]


@dataclass(frozen=True)
class MinkowskiAtomReport:
    atoms: tuple[PolyFace, ...]
    bound: int

    @property
    def passed(self) -> bool:
        return len(self.atoms) <= self.bound


def minkowski_atom_check(p: Polytope, f: PolyFace) -> MinkowskiAtomReport:
    """Exhibit at most dim(F)+1 extreme-point atoms joining to a proper exposed face."""
    lat = exposed_face_lattice(p)
    idx = lat.index_of(f.key)
    if idx in (lat.bottom, lat.top):
        raise ValueError("check applies to proper exposed faces")
    flat = face_lattice(p)
    for sub in flat.elements:
        if sub.vset <= f.vset and sub.key not in lat._by_key:
            raise HypothesisFailed(f"face {sub.label()} inside F is not exposed")
    bound = f.dim + 1
    from .lattice import decompose_by_atoms
    subset = decompose_by_atoms(lat, idx, bound)
    if subset is None:
        raise InvariantViolation("join decomposition guaranteed for closed polytopes")
    return MinkowskiAtomReport(tuple(lat.elements[i] for i in subset), bound)
