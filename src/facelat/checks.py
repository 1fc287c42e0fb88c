"""Theorem-check suites over body fixtures.

Each suite evaluates a family of verifiable statements on one body and
returns verdicts.  Every verdict is declared once, in `VERDICTS`, with the
mathematical claim it tests, which heads its detail.  Hypothesis failures
are reported as skips: a theorem whose hypothesis does not hold for a
fixture makes no claim there, so skips are exit-code neutral.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property
from itertools import combinations, combinations_with_replacement

from . import exactgeom as eg
from . import planar as pl
from . import polytope as pt
from ._records import Record
from .errors import HypothesisFailed, OriginNotInterior, UnsupportedArcCenter
from .exactgeom import (cone_faces, dot, full_space, held_generators,
                        in_ri_conv_hull, intersect_cones, is_zero,
                        subspace_cone, unit, vadd)
from .lattice import build_lattice, lattice_map, verify_isomorphism
from .planar import PlanarBody, compass_directions, quad_compare
from .polytope import ConeElement, Polytope

SUITE_NAMES = ("antitone", "meets", "lift", "sharp", "touching", "coatoms",
               "polar", "partition", "2d")


class Verdict(Record):
    _fields = ("check_id", "status", "detail")

    def __init__(self, check_id: str, status: str, detail: str):
        self.check_id = check_id
        self.status = status  # pass | fail | skip
        self.detail = detail


class CheckReport(Record):
    _fields = ("suite", "fixture", "verdicts", "counts")

    def __init__(self, suite: str, fixture: str, verdicts: list[Verdict] | None = None,
                 counts: dict[str, int] | None = None):
        self.suite = suite
        self.fixture = fixture
        self.verdicts = [] if verdicts is None else verdicts
        self.counts = {} if counts is None else counts

    @property
    def passed(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "fixture": self.fixture,
            "passed": self.passed,
            "verdicts": [{"id": v.check_id, "status": v.status, "detail": v.detail}
                         for v in sorted(self.verdicts, key=lambda v: v.check_id)],
            "counts": dict(sorted(self.counts.items())),
        }


# ---------------------------------------------------------------------------
# the table of verdicts
# ---------------------------------------------------------------------------

# A verdict as declared: its id, the kind of body it applies to, the claim
# heading its detail (None if it only skips), the tail ending a passing
# detail, and its skip.  The suite that emits a verdict fills in the braced
# fields of these texts, so `coatoms.face[{face}]` is one family.  A claim
# whose skip begins with `_POINT` is excluded on a single point: there it
# ranges over nothing, or degenerates, and `_verdict` emits that skip.
Claim = namedtuple("Claim", "check_id kind claim tail skip", defaults=("", ""))

_POINT = "excluded by hypothesis: the body is a single point, "
_ONE_CONE = _POINT + "whose only touching cone is the whole space"
_ONE_NORMAL = _POINT + "whose only normal cone is the whole space"
_NO_FACE = _POINT + "which has no proper face"
_NO_FACET = _POINT + "which has no facet"
_NO_POLAR = "polar body undefined here: {error}"
_NO_HYPOTHESIS = "hypothesis fails: {error}"
_VERIFIED = "; verified"

VERDICTS = {(c.kind, c.check_id): c for c in (
    Claim("antitone.all_faces_exposed", "polytope", "the carrier-closure face lattice "
          "equals the supporting-hyperplane exposed lattice (classical fact for "
          "polytopes, asserted here as an invariant; the two computations are "
          "independent: LP carrier-oracle face_lattice vs supporting-hyperplane "
          "exposed_face_lattice)"),
    Claim("antitone.iso", "polytope", "exposed faces correspond to normal cones by an "
          "antitone lattice isomorphism", _VERIFIED,
          _POINT + "where the exposed-face/normal-cone correspondence degenerates"),
    Claim("antitone.cone_constant_on_ri", "polytope", "the normal cone of a face "
          "equals the normal cone at each sampled relative-interior point "
          "(active-facet normal_cone vs definitional normal_cone_at_point)"),
    Claim("antitone.face_from_ri_normal", "polytope", "each proper exposed face is "
          "recovered as the exposed face of every sampled relative-interior vector of "
          "its normal cone", skip=_NO_FACE),
    Claim("antitone.pointwise_duality", "polytope", "attaining the support value, "
          "lying in the exposed face and having the direction in the normal cone are "
          "equivalent, over all vertex/facet pairs", skip=_NO_FACET),
    Claim("antitone.vector_space_criterion", "polytope", "the normal cone at x is a "
          "vector space iff x is relatively interior iff it equals the orthogonal "
          "complement of the body's direction space"),
    Claim("meets.normal_infimum_is_intersection", "polytope", "the infimum of normal "
          "cones is their intersection", skip=_ONE_NORMAL),
    Claim("meets.intersection_is_face", "polytope", "an intersection of normal cones "
          "is a face of each proper one", skip=_ONE_NORMAL),
    Claim("meets.exposed_intersection_witness", "polytope", "a nonempty intersection "
          "of exposed faces is exposed by one direction in the relative interior of "
          "the directions' hull", skip=_NO_FACET),
    Claim("touching.lattice_equals_normal", "polytope", "for a closed polytope every "
          "touching cone is a normal cone (classical fact for polytopes, asserted here "
          "as an invariant)"),
    Claim("touching.closed_under_faces", "polytope", "nonempty faces of touching cones "
          "are touching cones"),
    Claim("touching.partition_of_directions", "polytope", "each sampled nonzero "
          "direction lies in the relative interior of exactly one touching cone other "
          "than the whole space", skip=_ONE_CONE),
    Claim("lift.lattice_isomorphisms", "polytope", "lifting is an isotone lattice "
          "isomorphism onto the lifted (exposed) face lattices, with intersection as "
          "infimum, and a face is lifted iff it is lift-invariant; the lift only "
          "depends on the projection of the subspace onto the body's direction space "
          "(a real comparison on {distinct} of {total} coordinate subspaces; on the "
          "rest the subspace lies in the direction space, so a lift is compared with "
          "itself)"),
    Claim("lift.exposed_face_transform", "polytope", "the lift of the projection's "
          "exposed face of a subspace direction is the body's exposed face of the same "
          "direction", skip=_POINT + "whose projections have no proper face"),
    Claim("lift.cylinder_normal_cones", "polytope", "the normal cone of the projection "
          "at a projected point equals (N cap V) + V_perp, at every vertex and "
          "coordinate subspace"),
    Claim("lift.sharp_normal_projection", "polytope", "sharp normal directions inside "
          "the subspace stay sharp normal for the projection"),
    Claim("lift.touching_equals_normal_downstream", "polytope", "projections of a body "
          "whose touching cones are all normal again have all touching cones normal"),
    Claim("sharp.normal_directions", "polytope", "every sampled nonzero direction is "
          "sharp normal (touching cones of a polytope are all normal)", skip=_ONE_CONE),
    Claim("sharp.exposed_points", "polytope", "every sampled body point is sharp "
          "exposed (faces of a polytope are all exposed)"),
    Claim("coatoms.exposed_faces", "polytope", "every proper exposed face is an "
          "intersection of at most dim(N)-dim(lin_perp) coatoms of the exposed-face "
          "lattice", skip=_NO_FACE),
    Claim("coatoms.normal_atoms", "polytope", "every proper normal cone is a join of "
          "at most dim(N)-dim(lin_perp) atoms of the normal-cone lattice", skip=_ONE_NORMAL),
    Claim("coatoms.minkowski_atoms", "polytope", "every proper exposed face with all "
          "subfaces exposed is a join of at most dim(F)+1 extreme-point atoms",
          skip=_NO_FACE),
    Claim("polar.applicable", "polytope", None, skip=_NO_POLAR),
    Claim("polar.involution", "polytope", "the polar of the polar body is the body "
          "itself"),
    Claim("polar.pos_isomorphisms", "polytope", "positive hulls map the polar's "
          "exposed faces isotonely onto the normal cones and its faces onto the "
          "touching cones, inverted by intersecting with the polar's relative boundary",
          _VERIFIED),
    Claim("polar.conjugate_face_iso", "polytope", "taking conjugate faces is an "
          "antitone lattice isomorphism onto the exposed faces of the polar body"),
    Claim("polar.biconjugate", "polytope", "the biconjugate of a face is its smallest "
          "exposed superface"),
    Claim("partition.unique_touching_cone", "polytope", "sampled nonzero directions "
          "lie in the relative interior of exactly one touching cone other than the "
          "whole space", skip=_ONE_CONE),
    Claim("2d.applicable", "polytope", None,
          skip="suite '2d' does not apply to polytope bodies"),
    Claim("antitone.special_iso", "planar", "special exposed faces correspond to their "
          "normal cones by an antitone lattice isomorphism", _VERIFIED),
    Claim("antitone.pointwise_duality", "planar", "sampled boundary points attain the "
          "support value exactly in the directions of their normal cone"),
    Claim("meets.applicable", "planar", None,
          skip="suite 'meets' does not apply to planar bodies"),
    Claim("lift.applicable", "planar", None,
          skip="suite 'lift' does not apply to planar bodies"),
    Claim("touching.extra_are_boundary_rays", "planar", "touching cones that are not "
          "normal cones are boundary rays of vertex normal cones (faces of normal "
          "cones)"),
    Claim("touching.constant_on_ri", "planar", "directions in the relative interior of "
          "the same touching cone expose the same face"),
    Claim("sharp.normal_iff_touching_is_normal", "planar", "a direction is sharp "
          "normal exactly when its touching cone is a normal cone"),
    Claim("coatoms.face[{face}]", "planar", "every touching cone inside the normal "
          "cone is normal, so the face must be an intersection of coatoms; exhibited "
          "{coatoms}",
          skip="hypothesis fails (a touching cone inside the normal cone is not "
          "normal); the face {holds} an intersection of coatoms; {note}"),
    Claim("polar.applicable", "planar", None, skip=_NO_POLAR),
    Claim("polar.involution", "planar", "the polar of the polar body is the body"),
    Claim("polar.support_equals_gauge", "planar", "the support function of the polar "
          "equals the gauge of the body, exactly, at {count} rational directions",
          " (max deviation 0)"),
    Claim("polar.pos_of_special_faces", "planar", "positive hulls of the polar's "
          "special proper faces are exactly the proper normal cones of the body (arc "
          "families matched through their representatives)"),
    Claim("partition.unique_touching_cone", "planar", "each of {count} sampled "
          "rational directions lies in the relative interior of exactly one touching "
          "cone", _VERIFIED, "partition of directions requires a closed bounded body"),
    Claim("2d.non_exposed_inventory", "planar", "non-exposed faces: {faces}"),
    Claim("2d.nonexposed_rule", "planar", "non-exposed faces are exactly the endpoints "
          "of a unique one-dimensional face", _VERIFIED, _NO_HYPOTHESIS),
    Claim("2d.smoothness", "planar", "every singular boundary point joins two distinct "
          "boundary segments", _VERIFIED, _NO_HYPOTHESIS),
)}


def _kind(body) -> str:
    return "polytope" if isinstance(body, Polytope) else "planar"


def _verdict(out: list[Verdict], body, check_id: str, failures=(), **fill) -> bool:
    """Emit check_id's verdict for the body's kind and say whether it was
    tested: its declared skip if it is excluded on a single point and the
    body is one, else with no failures a pass, detailed by its claim and
    tail, else a fail, by its claim and each failure."""
    claim = VERDICTS[_kind(body), check_id]
    if claim.skip.startswith(_POINT) and not body.dim:
        _skip(out, body, check_id, **fill)
        return False
    head = claim.claim.format_map(fill)
    out.append(Verdict(check_id.format_map(fill), "fail" if failures else "pass",
                       "; ".join((head, *failures)) if failures else head + claim.tail))
    return True


def _skip(out: list[Verdict], body, check_id: str, **fill):
    """Emit the declared skip of check_id for the body's kind."""
    skip = VERDICTS[_kind(body), check_id].skip
    out.append(Verdict(check_id.format_map(fill), "skip", skip.format_map(fill)))


def _differ(a: set, b: set, what: str) -> list[str]:
    """No failure when two sets agree, else one counting where they differ."""
    return [] if a == b else [f"{what} on one side only: {len(a ^ b)}"]


def _proper(lattice) -> list:
    """The elements of a lattice other than its bottom and top."""
    return [e for i, e in enumerate(lattice.elements) if i not in (lattice.bottom, lattice.top)]


def _sample_directions(p: Polytope) -> list:
    """Deterministic nonzero rational directions adapted to the polytope."""
    dirs = [f.normal for f in p.facets]
    for face in _proper(pt.exposed_face_lattice(p)):
        v = pt.normal_cone(p, face).ri_vector()
        if v is not None and not is_zero(v):
            dirs.append(v)
    for i, a in enumerate(dirs[: len(p.facets)]):
        for b in dirs[i + 1: len(p.facets)]:
            s = vadd(a, b)
            if not is_zero(s):
                dirs.append(s)
    return list(dict.fromkeys(dirs))


# ---------------------------------------------------------------------------
# suites on polytopes
# ---------------------------------------------------------------------------

def _antitone_polytope(p: Polytope, out: list[Verdict], counts: dict, run):
    fl = pt.exposed_face_lattice(p)
    nl = pt.normal_cone_lattice(p)
    counts["exposed_faces"] = len(fl)
    counts["normal_cones"] = len(nl)
    _verdict(out, p, "antitone.all_faces_exposed", _differ(
        *({f.key for f in lat.elements} for lat in (pt.face_lattice(p), fl)), "faces"))
    rep = verify_isomorphism(lattice_map(
        fl, nl, lambda f: ConeElement(pt.normal_cone(p, f)), "antitone"))
    _verdict(out, p, "antitone.iso", rep.failures)
    _verdict(out, p, "antitone.cone_constant_on_ri", [
        f"a sample inside {f.label()}" for f in fl.elements if f.vertex_indices
        for y in p.ri_samples(f) if pt.normal_cone_at_point(p, y) != pt.normal_cone(p, f)])
    failures = []
    for f in _proper(fl):
        n = pt.normal_cone(p, f)
        v = n.ri_vector()
        samples = [v]
        if n.rays and v is not None:  # and the skewed v + 2 r_1 + r_2 + ... + r_k
            samples.append(vadd(vadd(v, n.rays[0]), tuple(map(sum, zip(*n.rays)))))
        if v is None or any(pt.support(p, w)[1].vset != f.vset for w in samples):
            failures.append(f.label())
    _verdict(out, p, "antitone.face_from_ri_normal", failures)
    supports = [(f.normal, *pt.support(p, f.normal)) for f in p.facets]
    failures = []
    for i, x in enumerate(p.vertices):
        n = pt.normal_cone_at_point(p, x)
        for k, (u, h, face) in enumerate(supports):
            if not (dot(u, x) == h) == (i in face.vset) == n.contains(u):
                failures.append(f"vertex {i} and facet {k}")
    _verdict(out, p, "antitone.pointwise_duality", failures)
    lin_perp = subspace_cone(list(p.lin_perp), p.ambient_dim)
    failures = []
    for name, x in [("the centroid", p.ri_point(fl.elements[fl.top])),
                    *((f"vertex {i}", x) for i, x in enumerate(p.vertices))]:
        n = pt.normal_cone_at_point(p, x)
        if not n.is_subspace() == in_ri_conv_hull(list(p.vertices), x) == (n == lin_perp):
            failures.append(name)
    _verdict(out, p, "antitone.vector_space_criterion", failures)


def _meets_polytope(p: Polytope, out: list[Verdict], counts: dict, run):
    """Both meet claims, checked on the pairs (A, M) with M meet-irreducible
    or the top, which prove them for every pair.

    Let B be any element and M_1, ..., M_r the irreducibles above it (the
    top among them), so B = M_1 ^ ... ^ M_r (Ganter & Wille 1999, ch. 1).
    Folding in one M_i at a time, the checked pairs (M_1 ^ ... ^ M_(i-1),
    M_i) give M_1 cap ... cap M_r = B as sets, and the pairs
    (A ^ M_1 ^ ... ^ M_(i-1), M_i) give A cap B = A ^ B.  Each step also
    gives a face of the proper cone before it, and a face of a face is a
    face, so A cap B is a face of A when A is proper; folding from B's side
    instead makes it a face of B.  Two kinds of pair hold as set identities
    and are not intersected: (A, A), and (A, top) once the top is checked to
    be the whole space.
    """
    nl = pt.normal_cone_lattice(p)
    whole = full_space(p.ambient_dim)
    top_is_whole = nl.elements[nl.top].cone == whole
    irreducible = nl.meet_irreducibles()
    among = set(irreducible)
    meet_failures, face_failures = [], []
    # both claims are symmetric in the pair, so each unordered pair is
    # intersected once and the intersection tested against both cones
    for i, a in enumerate(nl.elements):
        for j in irreducible:
            if (i in among and j <= i) or (top_is_whole and nl.top in (i, j)):
                continue
            b = nl.elements[j]
            inter = intersect_cones(a.cone, b.cone)
            if inter != nl.elements[nl.meet([i, j])].cone:
                meet_failures.append(f"{a.label()} and {b.label()}")
            if any(c != whole and not inter.is_face_of(c) for c in (a.cone, b.cone)):
                face_failures.append(f"{a.label()} and {b.label()}")
    _verdict(out, p, "meets.normal_infimum_is_intersection", meet_failures)
    _verdict(out, p, "meets.intersection_is_face", face_failures)
    failures = []
    for i, j in combinations_with_replacement(range(len(p.facets)), 2):
        face, witness = pt.exposed_meet(p, [p.facets[i].normal, p.facets[j].normal])
        if face.vertex_indices and (
                witness is None or pt.support(p, witness)[1].vset != face.vset):
            failures.append(f"facets {i} and {j}")
    _verdict(out, p, "meets.exposed_intersection_witness", failures)


def _ri_counts(cones: list, dirs) -> list[int]:
    """For each direction, how many of the cones hold it in their relative
    interior.  Cones with one span share its span-perp rows, so a direction
    is tested against those rows once per span, and against the facet rows
    only of the cones whose span holds it.  No normal-fan query picks a
    cone, so an overlap or a gap still shows."""
    groups: dict[tuple, list] = {}
    for c in cones:
        groups.setdefault(c.span_perp, []).append(c.facet_normals)
    out = []
    for u in dirs:
        xs = eg._scaled(u)
        n = 0
        for perp, members in groups.items():
            for m in perp:
                if eg._idot(m, xs):
                    break
            else:
                for rows in members:
                    for f in rows:
                        if eg._idot(f, xs) >= 0:
                            break
                    else:
                        n += 1
        out.append(n)
    return out


def _touching_polytope(p: Polytope, out: list[Verdict], counts: dict, run):
    nl = pt.normal_cone_lattice(p)
    tl = pt.touching_cone_lattice(p)
    counts["touching_cones"] = len(tl)
    keys = {e.key for e in tl.elements}
    _verdict(out, p, "touching.lattice_equals_normal",
             _differ({e.key for e in nl.elements}, keys, "cones"))
    _verdict(out, p, "touching.closed_under_faces", [
        f"{f.label()}, a face of {el.label()}" for el in tl.elements
        for f in cone_faces(el.cone) if (f.rays, f.lineality) not in keys])
    _verdict(out, p, "touching.partition_of_directions", run.partition[1])


def _lift_polytope(p: Polytope, out: list[Verdict], counts: dict, run):
    d = p.ambient_dim
    axes = [(i,) for i in range(d)]
    if d >= 3:
        axes += combinations(range(d), 2)
    lattice, exposed, cylinder, sharp, touching = [], [], [], [], []
    distinct = 0
    for ax in axes:
        basis = [unit(d, i) for i in ax]
        proj = pt.projection(p, basis)
        _, _, rep = pt.lifted_face_lattices(p, proj.basis)
        span = "span(" + ", ".join(f"e{i + 1}" for i in ax) + ")"
        lattice += (f"{span}: {failure}" for failure in rep.failures)
        distinct += proj.canonical_subspace != proj.basis
        q = proj.polytope
        for f in _proper(pt.exposed_face_lattice(q)):
            # a direction exposing f in q: the sum of the facet normals at f
            active = [fc.normal for fc in q.facets if f.vset <= fc.vertex_set]
            w = tuple(map(sum, zip(*active)))
            if proj.lift_face(f).vset != pt.support(p, w)[1].vset:
                exposed.append(f"{span}: {f.label()}")
        cylinder += (f"{span}: vertex {i}" for i, v in enumerate(p.vertices)
                     if not proj.cylinder_normal_check(v).passed)
        sharp += (f"{span}: e{i + 1}" for i, u in zip(ax, basis)
                  if pt.is_sharp_normal(p, u) and not pt.is_sharp_normal(q, u))
        touching += _differ({e.key for e in pt.normal_cone_lattice(q).elements},
                            {e.key for e in pt.touching_cone_lattice(q).elements},
                            f"cones of the projection to {span}")
    _verdict(out, p, "lift.lattice_isomorphisms", lattice,
             distinct=distinct, total=len(axes))
    _verdict(out, p, "lift.exposed_face_transform", exposed)
    _verdict(out, p, "lift.cylinder_normal_cones", cylinder)
    _verdict(out, p, "lift.sharp_normal_projection", sharp)
    _verdict(out, p, "lift.touching_equals_normal_downstream", touching)


def _sharp_polytope(p: Polytope, out: list[Verdict], counts: dict, run):
    _verdict(out, p, "sharp.normal_directions", [
        f"direction {eg._fmt_vec(u)}" for u in run.directions
        if not pt.is_sharp_normal(p, u)])
    samples = list(p.vertices)
    samples += (p.ri_point(f) for f in pt.face_lattice(p).elements if f.vertex_indices)
    _verdict(out, p, "sharp.exposed_points", [
        f"point {eg._fmt_vec(x)}" for x in samples if not pt.is_sharp_exposed(p, x)])


def _coatoms_polytope(p: Polytope, out: list[Verdict], counts: dict, run):
    fl = pt.exposed_face_lattice(p)
    nl = pt.normal_cone_lattice(p)
    everything = fl.elements[fl.top].vset
    coatoms, atoms, minkowski = [], [], []
    for f in _proper(fl):
        try:
            coat = pt.coatom_decomposition(p, f)
            if everything.intersection(*(c.vset for c in coat)) != f.vset:
                coatoms.append(f"the coatoms given for {f.label()} meet in more")
        except HypothesisFailed as e:
            coatoms.append(f"{f.label()}: {e}")
        minkowski += _refused(pt.minkowski_atom_check, p, f)
    for el in _proper(nl):
        atoms += _refused(pt.atom_decomposition, p, el.cone)
    _verdict(out, p, "coatoms.exposed_faces", coatoms)
    _verdict(out, p, "coatoms.normal_atoms", atoms)
    _verdict(out, p, "coatoms.minkowski_atoms", minkowski)


def _refused(decompose, p: Polytope, x) -> list[str]:
    """The hypothesis decompose(p, x) finds failing, as a one-entry list."""
    try:
        decompose(p, x)
    except HypothesisFailed as e:
        return [f"{x.label()}: {e}"]
    return []


def _polar_polytope(p: Polytope, out: list[Verdict], counts: dict, run):
    try:
        q = pt.polar(p)
    except OriginNotInterior as e:
        _skip(out, p, "polar.applicable", error=e)
        return
    counts["polar_vertices"] = len(q.vertices)
    pp = pt.polar(q)
    _verdict(out, p, "polar.involution",
             _differ(set(pp.vertices), set(p.vertices), "vertices"))
    _verdict(out, p, "polar.pos_isomorphisms", pt.pos_iso_check(p).failures)
    fl = pt.exposed_face_lattice(p)
    rep = verify_isomorphism(lattice_map(
        fl, pt.exposed_face_lattice(q), lambda f: pt.conjugate_face(p, f), "antitone"))
    _verdict(out, p, "polar.conjugate_face_iso", rep.failures)
    _verdict(out, p, "polar.biconjugate", [
        f.label() for f in fl.elements
        if set(pp.face_points(pt.conjugate_face(q, pt.conjugate_face(p, f))))
        != set(p.face_points(pt.sup_exposed(p, f)))])


def _partition_polytope(p: Polytope, out: list[Verdict], counts: dict, run):
    count, failures = run.partition
    if _verdict(out, p, "partition.unique_touching_cone", failures):
        counts["partition_directions"] = count


# ---------------------------------------------------------------------------
# suites on planar bodies
# ---------------------------------------------------------------------------

def _antitone_planar(b: PlanarBody, out: list[Verdict], counts: dict, run):
    faces = pl.special_faces(b, exposed_only=True)
    cones = {c.key: c for c in (pl.normal_cone_at(b, f) for f in faces)}
    counts["special_exposed_faces"] = len(faces)
    counts["special_normal_cones"] = len(cones)
    if len(cones) != len(faces):
        failures = [f"{len(faces)} special exposed faces have {len(cones)} normal cones"]
    else:
        ordered = sorted(cones.values(), key=lambda c: (c.dim, str(c.key)))
        failures = verify_isomorphism(lattice_map(
            pl.special_face_lattice(b, exposed_only=True),
            build_lattice(ordered, held_generators(ordered)),
            lambda f: pl.normal_cone_at(b, f), "antitone")).failures
    _verdict(out, b, "antitone.special_iso", failures)
    failures = []
    for x in pl.sample_boundary_points(b):
        f = pl.face_at(b, x)
        n = pl.normal_cone_at(b, f)
        u = n.ri_vector()
        if u is not None and not (quad_compare(
                pl.support_value(b, u)[0], pl.QuadVal(dot(u, x))) == 0 and n.contains(u)):
            failures.append(f"a boundary point of {f.label()}")
    _verdict(out, b, "antitone.pointwise_duality", failures)


def _touching_planar(b: PlanarBody, out: list[Verdict], counts: dict, run):
    inv = pl.cone_inventory(b)
    counts["proper_normal_cones"] = inv.proper_normal_count
    counts["proper_touching_cones"] = inv.proper_touching_count
    counts["arc_families"] = len(inv.arc_families)
    counts["non_normal_touching"] = len(inv.extra_touching)
    counts["non_exposed_faces"] = len(pl.non_exposed_faces(b))
    _verdict(out, b, "touching.extra_are_boundary_rays",
             [t.label() for t in inv.extra_touching if t.kind != "ray"])
    sectors = [c for c in map(b.junction_cone, filter(b.junction_present, range(b.n)))
               if c.kind == "sector"]
    _verdict(out, b, "touching.constant_on_ri", [
        c.label() for c in sectors if pl.exposed_face(b, c.ri_vector())
        != pl.exposed_face(b, vadd(vadd(c.d1, c.d1), c.d2))])


def _sharp_planar(b: PlanarBody, out: list[Verdict], counts: dict, run):
    failures = []
    for u in run.compass(120):
        f = pl.exposed_face(b, u)
        if f.tag != "empty" and (pl.touching_cone(b, u)[1]
                                 != pl.normal_cone_at(b, f).ri_contains(u)):
            failures.append(f"direction {u}")
    _verdict(out, b, "sharp.normal_iff_touching_is_normal", failures)


def _coatoms_planar(b: PlanarBody, out: list[Verdict], counts: dict, run):
    for f in pl.special_faces(b, exposed_only=True):
        if f.tag in ("empty", "whole"):
            continue
        rep = pl.coatom_check_planar(b, f)
        held = rep.is_intersection_of_coatoms
        if rep.hypothesis_ok:
            _verdict(out, b, "coatoms.face[{face}]",
                     [] if held else ["they do not intersect in the face"],
                     face=f.label(), coatoms=", ".join(c.label() for c in rep.coatoms))
        else:
            _skip(out, b, "coatoms.face[{face}]", face=f.label(),
                  holds="is" if held else "is not", note=rep.note)


def _polar_planar_suite(b: PlanarBody, out: list[Verdict], counts: dict, run):
    try:
        q = pl.polar_planar(b)
    except (OriginNotInterior, UnsupportedArcCenter) as e:
        _skip(out, b, "polar.applicable", error=e)
        return
    rt = pl.polar_planar(q)
    _verdict(out, b, "polar.involution", _differ(
        {(f.kind, f.start, f.end) for f in rt.features},
        {(f.kind, f.start, f.end) for f in b.features}, "features"))
    dirs = run.compass(120)
    _verdict(out, b, "polar.support_equals_gauge", [
        f"direction {u}: the polar's support differs from the body's gauge"
        for u in dirs
        if pl.form_compare(pl.support_form(q, u), pl.gauge_form(b, u)) != 0][:4],
        count=len(dirs))
    inv = pl.cone_inventory(b)
    pos = set()
    for f in pl.special_faces(q, exposed_only=True):
        if f.tag in ("vertex", "arcpoint"):
            pos.add(pl.Cone2.ray(f.point if f.tag == "vertex" else f.direction).key)
        elif f.tag == "edge":
            feat = q.features[f.feature]
            pos.add(pl.Cone2.sector(feat.start, feat.end).key)
    normal = {c.key for c in inv.proper_normal}
    normal.update(pl.Cone2.ray(b.features[i].interior_direction()).key
                  for i in inv.arc_families)
    _verdict(out, b, "polar.pos_of_special_faces", _differ(pos, normal, "cones"))


def _partition_planar(b: PlanarBody, out: list[Verdict], counts: dict, run):
    if not b.is_closed():
        _skip(out, b, "partition.unique_touching_cone")
        return
    dirs = run.compass(360)
    rep = pl.partition_check_planar(b, dirs)
    counts["partition_directions"] = len(dirs)
    _verdict(out, b, "partition.unique_touching_cone", rep.failures[:4],
             count=len(dirs))


def _2d_planar(b: PlanarBody, out: list[Verdict], counts: dict, run):
    ne = pl.non_exposed_faces(b)
    counts["non_exposed_faces"] = len(ne)
    _verdict(out, b, "2d.non_exposed_inventory",
             faces=", ".join(f.label() for f in ne) or "none")
    try:
        _verdict(out, b, "2d.nonexposed_rule", pl.check_2d_nonexposed_rule(b).failures)
    except HypothesisFailed as e:
        _skip(out, b, "2d.nonexposed_rule", error=e)
    try:
        rep = pl.check_2d_smoothness(b)
        counts["singular_points"] = len(pl.singular_points(b))
        _verdict(out, b, "2d.smoothness", rep.failures)
    except HypothesisFailed as e:
        _skip(out, b, "2d.smoothness", error=e)


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

_POLY = {
    "antitone": _antitone_polytope,
    "meets": _meets_polytope,
    "touching": _touching_polytope,
    "lift": _lift_polytope,
    "sharp": _sharp_polytope,
    "coatoms": _coatoms_polytope,
    "polar": _polar_polytope,
    "partition": _partition_polytope,
}

_PLANAR = {
    "antitone": _antitone_planar,
    "touching": _touching_planar,
    "sharp": _sharp_planar,
    "coatoms": _coatoms_planar,
    "polar": _polar_planar_suite,
    "partition": _partition_planar,
    "2d": _2d_planar,
}


class _Run:
    """What the suites of one `run_suite` call share, each built at most
    once: `compass_directions` memoised by count, a polytope's sample
    directions, and its partition count, which both partition verdicts read."""

    def __init__(self, body):
        self.body = body
        self.compass = cache(compass_directions)

    @cached_property
    def directions(self) -> list:
        return _sample_directions(self.body)

    @cached_property
    def partition(self) -> tuple[int, list[str]]:
        """How many directions are sampled, and the first four not in the
        relative interior of exactly one touching cone but the whole space."""
        p = self.body
        dirs = self.compass(360) if p.ambient_dim == 2 else self.directions
        whole = full_space(p.ambient_dim)
        proper = [el.cone for el in pt.touching_cone_lattice(p).elements
                  if el.cone != whole]
        return len(dirs), [
            f"direction {eg._fmt_vec(u)} lies in {n} touching-cone interiors"
            for u, n in zip(dirs, _ri_counts(proper, dirs)) if n != 1][:4]


def run_suite(body, fixture_name: str, suite: str) -> CheckReport:
    """Run one named suite (or 'all') on a parsed body.

    Each suite gets a `_Run` for this call only, so sample directions and
    the partition count are built at most once per run and shared by the
    suites that use them.  A known suite that does not fit the body's kind
    is reported as a skip; an unknown name raises ValueError."""
    if suite != "all" and suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; the suites are 'all', "
                         + ", ".join(map(repr, SUITE_NAMES)))
    suites = SUITE_NAMES if suite == "all" else (suite,)
    report = CheckReport(suite, fixture_name)
    table = _POLY if isinstance(body, Polytope) else _PLANAR
    run = _Run(body)
    for s in suites:
        fn = table.get(s)
        if fn is None:
            _skip(report.verdicts, body, f"{s}.applicable")
        else:
            fn(body, report.verdicts, report.counts, run)
    return report
