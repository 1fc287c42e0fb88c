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
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from ._records import Frozen, setfield
from .errors import (DimensionMismatch, HypothesisFailed, InvariantViolation,
                     NotAFace, OriginNotInterior, PointNotInBody, ZeroDirection)
from . import exactgeom as eg
from .exactgeom import (ConeTable, IVec, PolyCone, Vec, cone_faces, full_space,
                        in_ri_conv_hull, intersect_cones, is_zero, minkowski_sum_cone,
                        pos_hull, project_onto, span_basis, subspace_cone, vadd,
                        vneg, vscale, zero)
from .lattice import (FiniteLattice, Report, _bits, build_lattice, decompose_by_atoms,
                      decompose_by_coatoms, lattice_map, verify_isomorphism)


class Facet(Frozen):
    """Supporting hyperplane <normal, x> = offset with all vertices on <=;
    the normal is a primitive int vector."""

    _fields = ("normal", "offset", "vertex_set")

    def __init__(self, normal: IVec, offset: Fraction, vertex_set: frozenset[int]):
        setfield(self, "normal", normal)
        setfield(self, "offset", offset)
        setfield(self, "vertex_set", vertex_set)


class PolyFace(Frozen):
    """A face of a polytope, identified by the vertices it contains."""

    _fields = ("vertex_indices", "dim")

    def __init__(self, vertex_indices: tuple[int, ...], dim: int):
        setfield(self, "vertex_indices", vertex_indices)
        setfield(self, "dim", dim)

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


class ConeElement(Frozen):
    """Lattice payload wrapping a canonical cone."""

    _fields = ("cone",)

    def __init__(self, cone: PolyCone):
        setfield(self, "cone", cone)

    @property
    def key(self):
        return (self.cone.rays, self.cone.lineality)

    @property
    def dim(self) -> int:
        return self.cone.cone_dim

    def label(self) -> str:
        return self.cone.label()


class Polytope(Frozen):
    """Rational V-representation; every listed vertex must be extreme."""

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[Vec, ...]):
        setfield(self, "vertices", vertices)
        self.__post_init__()

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
        for i in range(len(self.vertices)):
            if not _is_vertex(self.facets, i, self.dim):
                raise ValueError(f"vertex {i} is not extreme")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.lin_perp)

    @cached_property
    def lin_perp(self) -> tuple[IVec, ...]:
        return _lin_perp(self._vertex_rays)

    @cached_property
    def _vertex_rays(self) -> tuple[IVec, ...]:
        """Vertex i = n/c as its primitive ray (n, c), c > 0, the one integer
        form of a vertex: the vertices are the rays of the homogenised body,
        and x lies in it exactly when (x, 1) is a positive combination of
        the rays.  The form in which `Projection.lift_point_set` returns a
        vertex; built from the vertices alone, so reading it computes no
        facets."""
        return tuple(map(eg._ray, self.vertices))

    @cached_property
    def _vertex_index(self) -> dict[Vec, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        return _facets(self._vertex_rays, self.lin_perp)

    @cached_property
    def _vertex_cone(self) -> eg.Seed:
        """The homogenised body pos{(v, 1)} as a start for the double
        description: the ray `_vertex_rays[i]` per vertex, on the row of each
        facet through the vertex.  Every vertex is extreme, so these are its
        extreme rays, and the facets are its facets within its span."""
        facets = self.facets
        return eg.Seed(tuple((r, sum(1 << j for j, f in enumerate(facets) if i in f.vertex_set))
                             for i, r in enumerate(self._vertex_rays)), self.dim + 1, len(facets))

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
        when x is off the affine hull; computed in integers."""
        e, xs = _int_point(x, self.ambient_dim)
        r = self._vertex_rays[0]
        if any(eg._idot(m, xs) * r[-1] != eg._idot(m, r) * e for m in self.lin_perp):
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

    def make_face(self, vset) -> PolyFace:
        idx = tuple(sorted(vset))
        if not idx:
            return PolyFace((), -1)
        dim = self._face_dims.get(idx)
        if dim is None:
            dim = self._face_dims[idx] = _hull_dim(self._vertex_rays, idx)
        return PolyFace(idx, dim)

    def face_points(self, f: PolyFace) -> list[Vec]:
        return [self.vertices[i] for i in f.vertex_indices]

    def ri_point(self, f: PolyFace) -> Vec:
        """Centroid of the face's vertices; lies in the relative interior."""
        if not f.vertex_indices:
            raise NotAFace("the empty face has no relative-interior point")
        return self._centroid(f.vertex_indices)

    def _centroid(self, indices) -> Vec:
        """The mean of the given vertices (`_mix`)."""
        return self._mix(indices, [1] * len(indices))

    def _mix(self, indices, weights: list[int]) -> Vec:
        """sum w_j v_j / sum w_j over the given vertices, for positive
        integer weights, summed in integers over the lcm of their rays'
        c_j."""
        rays = [self._vertex_rays[i] for i in indices]
        *columns, cs = zip(*rays)
        den = lcm(*cs)
        scaled = [w * (den // c) for w, c in zip(weights, cs)]
        den *= sum(weights)
        return tuple(Fraction(eg._idot(scaled, col), den) for col in columns)

    def ri_samples(self, f: PolyFace) -> list[Vec]:
        """A few distinct relative-interior points (positive-weight mixes)."""
        idx = f.vertex_indices
        if not idx:
            raise NotAFace("the empty face has no relative-interior point")
        out = []
        for s in range(3):
            x = self._mix(idx, [1 + (i + s) % len(idx) for i in range(len(idx))])
            if x not in out:
                out.append(x)
        return out


def _int_point(x: Vec, dim: int) -> tuple[int, list[int]]:
    """(e, xs) with x = xs/e, e the lcm of the denominators of x, a point or
    direction of R^dim."""
    if len(x) != dim:
        raise DimensionMismatch("point and polytope dimensions differ")
    *xs, e = eg._ray(x)
    return e, xs


def _lin_perp(rays: Sequence[IVec]) -> tuple[IVec, ...]:
    """Canonical basis of D_perp, D the direction space of the hull of the
    points n_j/c_j, rays[j] = (n_j, c_j): the rays' kernel is {(m, -m.v) : m in D_perp}."""
    return eg._ispan([m[:-1] for m in eg._ikernel(rays, len(rays[0]))])


def _facets(rays: Sequence[IVec], lin_perp: Sequence[IVec]) -> tuple[Facet, ...]:
    """The facets of the hull of the points n_j/c_j, sorted by normal, in no
    cone table: a body validates on them before `_derive` attaches one."""
    out = []
    for *m, c in _facet_rows(rays, lin_perp, None):
        g = gcd(*m)
        vset = frozenset(j for j, v in enumerate(rays) if eg._idot(m, v) == c * v[-1])
        out.append(Facet(tuple(a // g for a in m), Fraction(c, g), vset))
    return tuple(sorted(out, key=lambda f: f.normal))


def _is_vertex(facets: Sequence[Facet], i: int, dim: int) -> bool:
    """Point i is a vertex exactly when the facet normals through it have rank dim."""
    return eg.rank([f.normal for f in facets if i in f.vertex_set]) == dim


def _facet_rows(rays: Sequence[IVec], lin_perp: Sequence[IVec],
                table: ConeTable | None) -> list[IVec]:
    """Facets of the hull of the points n_j/c_j, rays[j] = (n_j, c_j), as
    the integer rays (n, c) of the facets n.x <= c, lin_perp `_lin_perp(rays)`:
    the rays of the homogenised cone {(n, c) : n in the direction space,
    n.n_j <= c*c_j for every j}.  Each ray (n, c) with n != 0 is an outer
    facet normal n with offset c = max n.v, and nothing else is; a point
    that is not a vertex only adds a redundant row."""
    d = len(rays[0]) - 1
    eqs = [m + (0,) for m in lin_perp]
    ineqs = [r[:d] + (-r[d],) for r in rays]
    out, _ = eg.double_description(eqs, ineqs, d + 1, table)
    return [r for r in out if any(r[:d])]  # not the ray (0, 1) of a point


# ---------------------------------------------------------------------------
# support and exposed faces
# ---------------------------------------------------------------------------

def support(p: Polytope, u: Vec) -> tuple[Fraction, PolyFace]:
    """Support value and the exposed face of the direction u."""
    if is_zero(u):
        raise ZeroDirection("support direction must be nonzero")
    e, us = _int_point(u, p.ambient_dim)
    # u.v_j = a/c for the ray (n_j, c) of vertex j, a = us.n_j: the maximum
    # h/k by cross-multiplication
    values = [(eg._idot(us, r), r[-1]) for r in p._vertex_rays]
    h, k = values[0]
    for a, c in values:
        if a * k > h * c:
            h, k = a, c
    vset = frozenset(j for j, (a, c) in enumerate(values) if a * k == h * c)
    return Fraction(h, e * k), p.make_face(vset)


def exposed_face_lattice(p: Polytope) -> FiniteLattice:
    """All exposed faces: the intersections of facets, by intersection closure."""
    return p._exposed_lattice


def _build_exposed_lattice(p: Polytope) -> FiniteLattice:
    vsets = eg.intersection_closure(frozenset(range(len(p.vertices))),
                                    [f.vertex_set for f in p.facets])
    vsets.add(frozenset())
    return _vertex_set_lattice(map(p.make_face, vsets))


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
    of K in any face G containing K: the LP (`eg.hull_carrier` with the
    vertex rays as columns) runs over the vertices of the smallest face G
    found so far that contains K.  The body itself counts as found from the
    start, so G always exists, and every G is a carrier of this route, never
    a facet.  No LP is needed when dim G = dim F + 1: aff(F) meets the body
    only in F, so v lies off aff(F), K spans aff(G), and the centroid of K
    lies in ri G.  Nor is one needed when K contains a key already solved to G: the
    carrier grows with the key, and K lies in G.  Face dimensions are integer
    ranks of the vertex rays.
    """
    n = len(p.vertices)
    rays = p._vertex_rays
    dims: dict[int, int] = {}  # found face (vertex bitmask) -> its dimension
    containing: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    carriers: dict[int, int] = {}  # key bitmask -> its carrier's
    spanning: dict[int, list[int]] = {}  # found face -> keys it carries
    todo: list[int] = []

    def add(face: int):
        idx = tuple(_bits(face))
        dims[face] = _hull_dim(rays, idx)
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
                    carrier = _carrier_in_face(rays, g, key)
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


def _carrier_in_face(rays: tuple[IVec, ...], g: int, key: int) -> int:
    """The smallest face containing the vertices `key`, solved over the
    vertices of a face g that contains them (bitmasks over the vertices):
    the carrier of sum_{j in key} rays[j], a point of ri conv(key)."""
    cols = list(_bits(g))
    rhs = [sum(c) for c in zip(*(rays[j] for j in _bits(key)))]
    support = eg.hull_carrier([list(row) for row in zip(*(rays[j] for j in cols))], rhs,
                              [k for k, j in enumerate(cols) if key >> j & 1])
    return sum(1 << cols[k] for k in support)


def _hull_dim(rays: tuple[IVec, ...], idx: tuple[int, ...]) -> int:
    """The dimension of the hull of the vertices idx: the rank of their
    rays, less one, by fraction-free elimination."""
    return len(eg._eliminate([rays[i] for i in idx], reduced=False)) - 1


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
        # v - x for each vertex v = n/c, times c*e: in integers
        e, xs = _int_point(key, p.ambient_dim)
        diffs = [[a * e - b * r[-1] for a, b in zip(r, xs)] for r in p._vertex_rays]
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


# ---------------------------------------------------------------------------
# smallest exposed face and exposed meets
# ---------------------------------------------------------------------------

def sup_exposed(p: Polytope, f: PolyFace) -> PolyFace:
    """Smallest exposed face containing f (the meet of all exposed superfaces)."""
    lat = exposed_face_lattice(p)
    above = (i for i, e in enumerate(lat.elements) if f.vset <= e.vset)
    return lat.elements[lat.meet(above)]


def exposed_meet(p: Polytope, directions: list[Vec]) -> tuple[PolyFace, Vec | None]:
    """Intersection of the exposed faces of several directions, with a witness.

    When nonempty, the intersection is itself the exposed face of any ray
    through the relative interior of the directions' hull, and that single
    direction, the sum of the directions, is returned as the witness; the
    empty intersection has none.  The witness is not checked here: the
    `meets.exposed_intersection_witness` verdict checks it.
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
    return p.make_face(inter), witness


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
    q = polar(p)
    if not f.vertex_indices:
        return q.make_face(frozenset(range(len(q.vertices))))
    # w.y == 1 on the rays (n_w, c_w) and (n_y, c_y): n_w.n_y == c_w*c_y
    ys = [p._vertex_rays[i] for i in f.vertex_indices]
    vset = frozenset(j for j, w in enumerate(q._vertex_rays)
                     if all(eg._idot(w[:-1], y) == w[-1] * y[-1] for y in ys))
    return q.make_face(vset)


def pos_iso_check(p: Polytope) -> Report:
    """Verify that positive hulls of polar faces give the normal/touching fans.

    Checks that F -> pos(F) is an isotone lattice isomorphism from the exposed
    faces of the polar onto the normal cones, extends to all faces versus
    touching cones, and that N -> rb(polar) cap N inverts it on proper cones.
    """
    _require_origin_interior(p)
    if len(p.vertices) < 2:
        raise ValueError("needs at least two vertices")
    q = polar(p)
    failures = []
    hulls: dict[tuple[int, ...], ConeElement] = {}

    def pos_of_face(face: PolyFace) -> ConeElement:
        # the exposed faces of the polar are among its faces: one hull each
        el = hulls.get(face.key)
        if el is None:
            el = hulls[face.key] = ConeElement(
                pos_hull(q.face_points(face), q.ambient_dim, q.cone_table))
        return el

    def checked(src, tgt, what):
        rep = verify_isomorphism(lattice_map(src, tgt, pos_of_face, "isotone"))
        failures.extend(f"{what}: {failure}" for failure in rep.failures)

    fq = exposed_face_lattice(q)
    nl = normal_cone_lattice(p)
    checked(fq, nl, "exposed faces of the polar vs normal cones")
    checked(face_lattice(q), touching_cone_lattice(p),
            "faces of the polar vs touching cones")

    for el in nl.elements:
        cone = el.cone
        if cone == full_space(p.ambient_dim):
            continue
        vset = frozenset(j for j, w in enumerate(q.vertices) if cone.contains(w))
        back = pos_hull([q.vertices[j] for j in vset], q.ambient_dim, q.cone_table)
        if tuple(sorted(vset)) not in fq._by_key:
            failures.append(f"rb(polar) cap {cone.label()} is not an exposed face")
        elif back != cone:
            failures.append(f"pos(rb(polar) cap N) != N for {cone.label()}")
    return Report(tuple(failures))


# ---------------------------------------------------------------------------
# projections, lifts, cylinders
# ---------------------------------------------------------------------------

def extreme_points(points: Iterable[Vec]) -> list[Vec]:
    """The vertices of conv(points), sorted, read off its facets (`_facets`)
    by the rule `Polytope` validates its vertices with (`_is_vertex`)."""
    pts = sorted(set(points))
    if len(pts) < 2:
        return pts
    rays = [eg._ray(x) for x in pts]
    lin_perp = _lin_perp(rays)
    facets, dim = _facets(rays, lin_perp), len(pts[0]) - len(lin_perp)
    return [x for i, x in enumerate(pts) if _is_vertex(facets, i, dim)]


class Projection(Frozen):
    """What a body derives from one subspace V, built once per canonical
    subspace by `projection` and freed with the body.

    `basis` is the canonical basis of V and `points` the projection of each
    vertex, in vertex order.  The memos live on the record: `lifted_faces`
    by face of the projection, `lifted_point_sets` by the projected points
    of a face of the body (faces with the same projection have the same
    lift), and `sums`, the Minkowski sum with V_perp by N(C, a) cap V.
    `vertex_slacks` keeps one integer slack row per projected vertex for
    every lift, and a cylinder check at a vertex reads that vertex's
    projection from `points`.  Projections compare by identity.
    """

    _fields = ("body", "basis", "points")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, body: Polytope, basis: tuple[Vec, ...], points: tuple[Vec, ...]):
        setfield(self, "body", body)
        setfield(self, "basis", basis)
        setfield(self, "points", points)

    @cached_property
    def lifted_faces(self) -> dict[tuple[int, ...], PolyFace]:
        return {}

    @cached_property
    def lifted_point_sets(self) -> dict[frozenset[Vec], tuple[IVec, ...]]:
        return {}

    @cached_property
    def sums(self) -> dict[PolyCone, PolyCone]:
        return {}

    @cached_property
    def polytope(self) -> Polytope:
        """The projection of the body onto V."""
        return self.body._derive(tuple(extreme_points(self.points)))

    @cached_property
    def canonical_subspace(self) -> tuple[Vec, ...]:
        """The canonical basis of U, the projection of V onto the body's
        direction space, on which the lift depends.  Only where U differs
        from V does `lifted_face_lattices` compare two lifts."""
        directions = eg._ikernel(self.body.lin_perp, self.body.ambient_dim)
        return span_basis([project_onto(directions, b) for b in self.basis])

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
        projection: the vertices over every facet of the projection that
        contains f.  That the result is a face of the body is a claim
        `lifted_face_lattices` checks, not this function."""
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
            lifted = self.lifted_faces[f.key] = p.make_face(vset)
        return lifted

    def lift_point_set(self, f: PolyFace) -> tuple[IVec, ...]:
        """Vertices of (conv(f) + V_perp) cap C for a face f of the body C,
        each vertex x as its primitive integer ray (x*t, t), t > 0; sorted."""
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
                p, basis, tuple(project_onto(basis, x) for x in p.vertices))
    return out


def _lift_vertices(p: Polytope, basis: tuple[Vec, ...], pts: list[Vec]) -> tuple[IVec, ...]:
    """`Projection.lift_point_set` computed: pts are the projections onto
    V = span(basis) of the face's vertices, extreme or not.

    The system is p's own, plus conv(pts) pulled back through V: its facets,
    and the slab equalities on V cap D_perp, D the direction space of
    conv(pts), all read off the points' rays, pts[j] = n_j/c_j.  Homogenised
    on (x*t, t), the slabs are the rows (m, s) with m in V that vanish on
    every ray (n_j, c_j): the kernel of the rays with the rows (b, 0),
    b in V_perp.  A facet n.x <= c (`_facet_rows`) is the row (n, -c).  p's
    own rows are those of its homogenised vertex cone, so the enumeration
    starts from that cone and adds these rows only; its canonical rays, all
    with t > 0, are the lift's vertices."""
    d = p.ambient_dim
    rays = [eg._ray(x) for x in pts]
    eqs = eg._ikernel([*rays, *(b + (0,) for b in eg._perp(basis, d))], d + 1)
    ineqs = [r[:d] + (-r[d],) for r in _facet_rows(rays, _lin_perp(rays), p.cone_table)]
    return eg._seeded_description(p._vertex_cone, eqs, ineqs)


def lifted_face_lattices(p: Polytope, v_basis: list[Vec]
                         ) -> tuple[FiniteLattice, FiniteLattice, Report]:
    """Lifted face and exposed-face lattices of a projection, and a report
    naming each failure of the lift's claims: every lift is a face of p,
    lifting is an isomorphism onto each lifted lattice whose meets are
    intersections, a face is lifted iff it is lift-invariant, and the lift
    through V equals the lift through `Projection.canonical_subspace`."""
    proj = projection(p, v_basis)
    q = proj.polytope
    failures: list[str] = []
    body_faces = face_lattice(p)._by_key

    def lift_lattice(src: FiniteLattice, what: str) -> FiniteLattice:
        """The lifts of src's faces as a lattice; each lift that is not a
        face of p, and each failure of lifting as an isomorphism onto that
        lattice, is a failure."""
        faces = {}
        for f in src.elements:
            lf = proj.lift_face(f)
            if lf.key not in body_faces:
                failures.append(f"{what}: the lift {lf.label()} of {f.label()} "
                                "is not a face")
            faces[lf.key] = lf
        lat = _vertex_set_lattice(faces.values())
        rep = verify_isomorphism(lattice_map(src, lat, proj.lift_face, "isotone"))
        failures.extend(f"{what}: {failure}" for failure in rep.failures)
        return lat

    lifted_f = lift_lattice(face_lattice(q), "faces")
    lifted_perp = lift_lattice(exposed_face_lattice(q), "exposed faces")

    els = lifted_f.elements
    bad = next(((a, b) for i, a in enumerate(els) for j, b in enumerate(els)
                if els[lifted_f.meet([i, j])].vset != a.vset & b.vset), None)
    if bad:
        failures.append(f"the lifted meet of {bad[0].label()} and "
                        f"{bad[1].label()} is not their intersection")

    # The lift depends only on the projection U of the subspace onto the
    # body's direction space; when U is the subspace itself there is nothing
    # to compare.
    basis, u_basis = proj.basis, proj.canonical_subspace
    u_proj = projection(p, u_basis) if u_basis and u_basis != basis else None
    lifted_keys = {f.key for f in lifted_f.elements}
    for f in face_lattice(p).elements:
        in_lattice = f.key in lifted_keys
        if not f.vertex_indices:
            fixed = True
        else:
            # lifts are sorted tuples of distinct rays
            lifted = proj.lift_point_set(f)
            fixed = lifted == tuple(sorted(p._vertex_rays[i] for i in f.vertex_indices))
            if u_basis != basis:
                canonical = (u_proj.lift_point_set(f) if u_proj
                             else tuple(sorted(p._vertex_rays)))
                if lifted != canonical:
                    failures.append(f"canonical-subspace lift differs on {f.label()}")
        if in_lattice != fixed:
            failures.append(
                f"lift invariance mismatch on face {f.label()}: "
                f"in lifted lattice {in_lattice}, lift-fixed {fixed}")
    return lifted_f, lifted_perp, Report(tuple(failures))


class CylinderNormalReport(Frozen):
    _fields = ("projected_cone", "formula_cone")

    def __init__(self, projected_cone: PolyCone, formula_cone: PolyCone):
        setfield(self, "projected_cone", projected_cone)
        setfield(self, "formula_cone", formula_cone)

    @property
    def passed(self) -> bool:
        return self.projected_cone == self.formula_cone


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
    subset = decompose_by_coatoms(lat, idx, bound)
    if subset is None:
        raise InvariantViolation("decomposition guaranteed under the hypothesis")
    return [lat.elements[i] for i in subset]


def minkowski_atom_check(p: Polytope, f: PolyFace) -> list[PolyFace]:
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
    subset = decompose_by_atoms(lat, idx, bound)
    if subset is None:
        raise InvariantViolation("join decomposition guaranteed for closed polytopes")
    return [lat.elements[i] for i in subset]
