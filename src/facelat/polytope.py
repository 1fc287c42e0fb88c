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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (DimensionMismatch, HypothesisFailed, InvariantViolation,
                     NotAFace, OriginNotInterior, PointNotInBody, ZeroDirection)
from . import exactgeom as eg
from .exactgeom import (AffineSubspace, PolyCone, Vec, aff_hull,
                        cone_faces, dot, dual_cone, full_space, in_conv_hull,
                        in_ri_conv_hull, intersect_cones, is_zero,
                        minkowski_sum_cone, orth_complement, pos_hull,
                        primitive, project_onto, span_basis,
                        subspace_cone, subspace_intersection, vadd, vneg,
                        vscale, vsub, zero)
from .lattice import FiniteLattice, build_lattice, lattice_map, verify_isomorphism


@dataclass(frozen=True)
class Facet:
    """Supporting hyperplane <normal, x> = offset with all vertices on <=."""

    normal: Vec
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

    @property
    def vset(self) -> frozenset[int]:
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
    def lin_perp(self) -> tuple[Vec, ...]:
        return orth_complement(self.affine.directions, self.ambient_dim)

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        return _enumerate_facets(self)

    # Lattices, the polar, projections and normal cones are memoized on the
    # body itself, so each lives exactly as long as the body it was built from.

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
        return Polytope(tuple(sorted(vscale(1 / f.offset, f.normal) for f in self.facets)))

    @cached_property
    def _projections(self) -> dict[tuple[Vec, ...], "Polytope"]:
        return {}

    @cached_property
    def _lifted_faces(self) -> dict[tuple[tuple[Vec, ...], tuple[int, ...]], PolyFace]:
        return {}

    @cached_property
    def _face_normal_cones(self) -> dict[tuple[int, ...], PolyCone]:
        return {}

    @cached_property
    def _point_normal_cones(self) -> dict[Vec, PolyCone]:
        return {}

    def contains(self, x: Vec) -> bool:
        if not self.affine.contains(x):
            return False
        return all(dot(f.normal, x) <= f.offset for f in self.facets)

    def face_of_point(self, x: Vec) -> PolyFace:
        """The unique face with x in its relative interior."""
        if not self.contains(x):
            raise PointNotInBody(f"{x} is not in the polytope")
        active = [f for f in self.facets if dot(f.normal, x) == f.offset]
        vset = frozenset(range(len(self.vertices)))
        for f in active:
            vset &= f.vertex_set
        return self.make_face(vset)

    def make_face(self, vset, normal: Vec | None = None) -> PolyFace:
        idx = tuple(sorted(vset))
        if not idx:
            return PolyFace((), -1, normal)
        pts = [self.vertices[i] for i in idx]
        return PolyFace(idx, aff_hull(pts).dim, normal)

    def face_points(self, f: PolyFace) -> list[Vec]:
        return [self.vertices[i] for i in f.vertex_indices]

    def ri_point(self, f: PolyFace) -> Vec:
        """Centroid of the face's vertices; lies in the relative interior."""
        pts = self.face_points(f)
        if not pts:
            raise NotAFace("the empty face has no relative-interior point")
        acc = zero(self.ambient_dim)
        for p in pts:
            acc = vadd(acc, p)
        return vscale(Fraction(1, len(pts)), acc)

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


def _enumerate_facets(p: Polytope) -> tuple[Facet, ...]:
    """Facets from the homogenised cone {(n, c) : n in the direction space,
    n.v <= c for every vertex v}: each of its rays (n, c) with n != 0 is an
    outer facet normal n with offset c = max n.v, and nothing else is."""
    d = p.ambient_dim
    eqs = [m + (Fraction(0),) for m in p.lin_perp]
    ineqs = [v + (Fraction(-1),) for v in p.vertices]
    rays, _ = eg.double_description(eqs, ineqs, d + 1)
    facets = []
    for r in rays:
        if is_zero(r[:d]):
            continue  # the ray (0, 1) of a point
        n = primitive(r[:d])
        values = [dot(n, v) for v in p.vertices]
        c = max(values)
        facets.append(Facet(n, c, frozenset(i for i, t in enumerate(values) if t == c)))
    return tuple(sorted(facets, key=lambda f: f.normal))


# ---------------------------------------------------------------------------
# support and exposed faces
# ---------------------------------------------------------------------------

def support(p: Polytope, u: Vec) -> tuple[Fraction, PolyFace]:
    """Support value and the exposed face of the direction u."""
    if is_zero(u):
        raise ZeroDirection("support direction must be nonzero")
    values = [dot(u, v) for v in p.vertices]
    h = max(values)
    vset = frozenset(i for i, val in enumerate(values) if val == h)
    return h, p.make_face(vset, primitive(u))


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
        witness = zero(p.ambient_dim)
        for a in active:
            witness = vadd(witness, a)
        faces.append(p.make_face(vset, primitive(witness)))
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    return build_lattice(faces, lambda a, b: a.vset <= b.vset)


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
    n = len(p.vertices)
    carriers: dict[frozenset[int], frozenset[int]] = {}
    found = {frozenset({i}) for i in range(n)}  # every vertex is extreme
    todo = list(found)
    while todo:
        face = todo.pop()
        for v in range(n):
            if v in face:
                continue
            key = face | {v}
            carrier = carriers.get(key)
            if carrier is None:
                centroid = zero(p.ambient_dim)
                for i in key:
                    centroid = vadd(centroid, p.vertices[i])
                centroid = vscale(Fraction(1, len(key)), centroid)
                carrier = carriers[key] = frozenset(
                    eg.hull_weight_support(p.vertices, centroid, known=key))
            if carrier not in found:
                found.add(carrier)
                todo.append(carrier)
    faces = [p.make_face(vset) for vset in found | {frozenset()}]
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    return build_lattice(faces, lambda a, b: a.vset <= b.vset)


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
    """N(C, x) as the exact dual of the cone of feasible directions at x."""
    key = tuple(x)
    cone = p._point_normal_cones.get(key)
    if cone is None:
        diffs = [vsub(v, key) for v in p.vertices]
        cone = p._point_normal_cones[key] = dual_cone(pos_hull(diffs, p.ambient_dim))
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
        return full_space(p.ambient_dim)
    cone = p._face_normal_cones.get(f.vertex_indices)
    if cone is None:
        try:
            exposed_face_lattice(p).index_of(f.key)
        except KeyError:
            raise NotAFace(f"{f.vertex_indices} is not a face") from None
        gens = [fc.normal for fc in p.facets if f.vset <= fc.vertex_set]
        for b in p.lin_perp:
            gens += [b, vneg(b)]
        cone = p._face_normal_cones[f.vertex_indices] = pos_hull(gens, p.ambient_dim)
    return cone


def normal_cone_lattice(p: Polytope) -> FiniteLattice:
    return p._normal_lattice


def _build_normal_lattice(p: Polytope) -> FiniteLattice:
    cones = {}
    for f in exposed_face_lattice(p).elements:
        c = normal_cone(p, f)
        cones[(c.rays, c.lineality)] = ConeElement(c)
    elements = sorted(cones.values(), key=lambda e: (e.dim, e.key))
    return build_lattice(elements, lambda a, b: cone_subset(a.cone, b.cone))


def cone_subset(a: PolyCone, b: PolyCone) -> bool:
    if a.cone_dim > b.cone_dim:
        return False
    return all(b.contains(g) for g in a.generators())


def touching_cone_lattice(p: Polytope) -> FiniteLattice:
    """All nonempty faces of all normal cones (equals the normal fan here)."""
    return p._touching_lattice


def _build_touching_lattice(p: Polytope) -> FiniteLattice:
    cones = {}
    for el in normal_cone_lattice(p).elements:
        for face in cone_faces(el.cone):
            cones[(face.rays, face.lineality)] = ConeElement(face)
    elements = sorted(cones.values(), key=lambda e: (e.dim, e.key))
    return build_lattice(elements, lambda a, b: cone_subset(a.cone, b.cone))


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
    return p.make_face(inter, primitive(witness)), witness


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
    pts = p.face_points(f)
    vset = frozenset(j for j, w in enumerate(q.vertices)
                     if all(dot(w, y) == 1 for y in pts))
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

    def pos_of_face(face: PolyFace) -> ConeElement:
        return ConeElement(pos_hull(q.face_points(face), q.ambient_dim))

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
        back = pos_hull([q.vertices[j] for j in vset], q.ambient_dim)
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


def project_polytope(p: Polytope, v_basis: list[Vec]) -> Polytope:
    """Orthogonal projection onto the subspace spanned by v_basis."""
    basis = span_basis(v_basis)
    q = p._projections.get(basis)
    if q is None:
        q = Polytope(tuple(extreme_points([project_onto(basis, x) for x in p.vertices])))
        p._projections[basis] = q
    return q


def point_in_face(q: Polytope, f: PolyFace, x: Vec) -> bool:
    """Membership of x in the face f of q (as a point set)."""
    if not f.vertex_indices:
        return False
    if not q.contains(x):
        return False
    active = [fc for fc in q.facets if f.vset <= fc.vertex_set]
    return all(dot(fc.normal, x) == fc.offset for fc in active)


def lift_face(p: Polytope, v_basis: list[Vec], f: PolyFace) -> PolyFace:
    """Lift a face of the projection back to a face of p.

    Memoised on p by (subspace, face); the lifted face carries the exposing
    normal of the face it was asked for.
    """
    basis = span_basis(v_basis)
    q = project_polytope(p, list(basis))
    if not f.vertex_indices:
        return p.make_face(frozenset())
    lifted = p._lifted_faces.get((basis, f.key))
    if lifted is None:
        try:
            face_lattice(q).index_of(f.key)
        except KeyError:
            raise NotAFace("not a face of the projected polytope")
        vset = frozenset(i for i, vert in enumerate(p.vertices)
                         if point_in_face(q, f, project_onto(basis, vert)))
        lifted = p.make_face(vset, f.exposing_normal)
        if not is_face(p, lifted):
            raise NotAFace("lift did not produce a face")
        p._lifted_faces[(basis, f.key)] = lifted
    if lifted.exposing_normal != f.exposing_normal:
        lifted = PolyFace(lifted.vertex_indices, lifted.dim, f.exposing_normal)
    return lifted


def lift_point_set(p: Polytope, v_basis: list[Vec], f: PolyFace) -> tuple[Vec, ...]:
    """Vertices of (conv(f) + V_perp) cap p, by vertex enumeration."""
    if not f.vertex_indices:
        return ()
    basis = span_basis(v_basis)
    pts = [project_onto(basis, x) for x in p.face_points(f)]
    sub = Polytope(tuple(extreme_points(pts)))
    equalities: list[tuple[Vec, Fraction]] = []
    inequalities: list[tuple[Vec, Fraction]] = []
    d = p.ambient_dim
    for m in orth_complement(p.affine.directions, d):
        equalities.append((m, dot(m, p.vertices[0])))
    for fc in p.facets:
        inequalities.append((fc.normal, fc.offset))
    # slab constraints pull the projected face back through V
    slab_eq = subspace_intersection(basis, orth_complement(sub.affine.directions, d), d)
    for m in slab_eq:
        equalities.append((m, dot(m, pts[0])))
    for fc in sub.facets:
        inequalities.append((fc.normal, fc.offset))
    return _vertex_enumerate(equalities, inequalities, d)


def _vertex_enumerate(equalities, inequalities, dim) -> tuple[Vec, ...]:
    """Vertices of {x : e.x = c for (e, c) in equalities, n.x <= c for (n, c) in
    inequalities}: the rays (x, t) with t > 0 of its homogenisation, a cone
    with the extra row t >= 0.  A polyhedron with a lineality space has none."""
    eqs = [tuple(e) + (-c,) for e, c in equalities]
    ineqs = [tuple(n) + (-c,) for n, c in inequalities]
    ineqs.append(zero(dim) + (Fraction(-1),))
    rays, lin = eg.double_description(eqs, ineqs, dim + 1)
    if lin:
        return ()
    return tuple(sorted(vscale(1 / r[-1], r[:-1]) for r in rays if r[-1] > 0))


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
    basis = span_basis(v_basis)
    q = project_polytope(p, list(basis))
    details: list[str] = []

    def build_lifted(src: FiniteLattice):
        faces = {}
        for f in src.elements:
            lf = lift_face(p, list(basis), f)
            faces[lf.key] = lf
        elements = sorted(faces.values(), key=lambda f: (f.dim, f.vertex_indices))
        return build_lattice(elements, lambda a, b: a.vset <= b.vset)

    lifted_f = build_lifted(face_lattice(q))
    lifted_perp = build_lifted(exposed_face_lattice(q))

    iso1 = verify_isomorphism(lattice_map(
        face_lattice(q), lifted_f,
        lambda f: lift_face(p, list(basis), f), "isotone"))
    iso2 = verify_isomorphism(lattice_map(
        exposed_face_lattice(q), lifted_perp,
        lambda f: lift_face(p, list(basis), f), "isotone"))
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
    u_basis = span_basis([project_onto(p.affine.directions, b) for b in basis])
    lifted_keys = {f.key for f in lifted_f.elements}
    canon_failures = []
    invariance_ok = True
    for f in face_lattice(p).elements:
        in_lattice = f.key in lifted_keys
        if not f.vertex_indices:
            fixed = True
        else:
            lifted_pts = lift_point_set(p, list(basis), f)
            fixed = set(lifted_pts) == set(p.face_points(f))
            if u_basis != basis:
                canonical_pts = (lift_point_set(p, list(u_basis), f) if u_basis
                                 else p.vertices)
                if set(lifted_pts) != set(canonical_pts):
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
    """Compare N(pi_V(C), pi_V(a)) against (N(C,a) cap V) + V_perp, exactly."""
    if not p.contains(a):
        raise PointNotInBody(f"{a} is not in the polytope")
    basis = span_basis(v_basis)
    q = project_polytope(p, list(basis))
    lhs = normal_cone_at_point(q, project_onto(basis, a))
    v_perp = orth_complement(basis, p.ambient_dim)
    inter = intersect_cones(normal_cone_at_point(p, a),
                            subspace_cone(list(basis), p.ambient_dim))
    rhs = minkowski_sum_cone(inter, subspace_cone(list(v_perp), p.ambient_dim))
    return CylinderNormalReport(lhs, rhs)


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
    lat = normal_cone_lattice(p)
    keys = {el.key for el in lat.elements}
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
    exposed_keys = {e.key for e in lat.elements}
    for sub in flat.elements:
        if sub.vset <= f.vset and sub.key not in exposed_keys:
            raise HypothesisFailed(f"face {sub.label()} inside F is not exposed")
    bound = f.dim + 1
    from .lattice import decompose_by_atoms
    subset = decompose_by_atoms(lat, idx, bound)
    if subset is None:
        raise InvariantViolation("join decomposition guaranteed for closed polytopes")
    return MinkowskiAtomReport(tuple(lat.elements[i] for i in subset), bound)
