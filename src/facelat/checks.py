"""Theorem-check suites over body fixtures.

Each suite evaluates a family of verifiable statements on one body and
returns verdicts; the detail string of every verdict names the mathematical
claim it tests.  Hypothesis failures are reported as skips: a theorem whose
hypothesis does not hold for a fixture makes no claim there, so skips are
exit-code neutral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Iterator

from . import planar as pl
from . import polytope as pt
from .errors import HypothesisFailed, OriginNotInterior, UnsupportedArcCenter
from .exactgeom import (cone_faces, cone_hyperplanes, dot, full_space,
                        held_generators, in_ri_conv_hull, intersect_cones,
                        is_zero, sign_vector, subspace_cone, unit, vadd)
from .lattice import build_lattice, lattice_map, verify_isomorphism
from .planar import PlanarBody, compass_directions, quad_compare
from .polytope import ConeElement, Polytope

SUITE_NAMES = ("antitone", "meets", "lift", "sharp", "touching", "coatoms",
               "polar", "partition", "2d")


@dataclass
class Verdict:
    check_id: str
    status: str  # pass | fail | skip
    detail: str


@dataclass
class CheckReport:
    suite: str
    fixture: str
    verdicts: list[Verdict] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

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


def _v(out: list[Verdict], check_id: str, ok: bool, detail: str):
    out.append(Verdict(check_id, "pass" if ok else "fail", detail))


def _skip(out: list[Verdict], check_id: str, detail: str):
    out.append(Verdict(check_id, "skip", detail))


def _sample_directions(p: Polytope) -> list:
    """Deterministic nonzero rational directions adapted to the polytope."""
    dirs = []
    for f in p.facets:
        dirs.append(f.normal)
    lat = pt.exposed_face_lattice(p)
    for face in lat.elements:
        if face.vertex_indices and len(face.vertex_indices) < len(p.vertices):
            v = pt.normal_cone(p, face).ri_vector()
            if v is not None and not is_zero(v):
                dirs.append(v)
    for i, a in enumerate(dirs[: len(p.facets)]):
        for b in dirs[i + 1: len(p.facets)]:
            s = vadd(a, b)
            if not is_zero(s):
                dirs.append(s)
    seen, out = set(), []
    for d in dirs:
        if d not in seen:
            seen.add(d)
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# suites on polytopes
# ---------------------------------------------------------------------------

def _antitone_polytope(p: Polytope, out: list[Verdict], counts: dict, compass):
    if len(p.vertices) == 1:
        _skip(out, "antitone.iso", "excluded by hypothesis: the body is a single "
              "point, where the exposed-face/normal-cone correspondence degenerates")
        return
    fl = pt.exposed_face_lattice(p)
    nl = pt.normal_cone_lattice(p)
    counts["exposed_faces"] = len(fl)
    counts["normal_cones"] = len(nl)
    _v(out, "antitone.all_faces_exposed",
       {f.key for f in pt.face_lattice(p).elements} == {f.key for f in fl.elements},
       "the carrier-closure face lattice equals the supporting-hyperplane exposed "
       "lattice (classical fact for polytopes, asserted here as an invariant; "
       "the two computations are independent: LP carrier-oracle "
       "face_lattice vs supporting-hyperplane exposed_face_lattice)")
    rep = verify_isomorphism(lattice_map(
        fl, nl, lambda f: ConeElement(pt.normal_cone(p, f)), "antitone"))
    _v(out, "antitone.iso", rep.passed,
       "exposed faces correspond to normal cones by an antitone lattice "
       "isomorphism; " + ("; ".join(rep.failures) or "verified"))
    ok = True
    for f in fl.elements:
        if not f.vertex_indices:
            continue
        n = pt.normal_cone(p, f)
        for y in p.ri_samples(f):
            if pt.normal_cone_at_point(p, y) != n:
                ok = False
    _v(out, "antitone.cone_constant_on_ri", ok,
       "the normal cone of a face equals the normal cone at each sampled "
       "relative-interior point (active-facet normal_cone vs definitional "
       "normal_cone_at_point)")
    ok = True
    for f in fl.elements:
        if not f.vertex_indices or len(f.vertex_indices) == len(p.vertices):
            continue
        n = pt.normal_cone(p, f)
        v = n.ri_vector()
        if v is None:
            ok = False
            continue
        samples = [v]
        if n.rays:
            skew = v
            for k, r in enumerate(n.rays):
                skew = vadd(skew, vadd(r, r) if k == 0 else r)
            samples.append(skew)
        for w in samples:
            if pt.support(p, w)[1].vset != f.vset:
                ok = False
    _v(out, "antitone.face_from_ri_normal", ok,
       "each proper exposed face is recovered as the exposed face of every "
       "sampled relative-interior vector of its normal cone")
    ok = True
    for x in p.vertices:
        for f in p.facets:
            u = f.normal
            a = dot(u, x) == pt.support(p, u)[0]
            b = x in (p.vertices[i] for i in pt.support(p, u)[1].vertex_indices)
            c = pt.normal_cone_at_point(p, x).contains(u)
            if not (a == b == c):
                ok = False
    _v(out, "antitone.pointwise_duality", ok,
       "attaining the support value, lying in the exposed face and having the "
       "direction in the normal cone are equivalent, over all vertex/facet pairs")
    ok = True
    samples = [p.ri_point(fl.elements[fl.top])] + list(p.vertices)
    for x in samples:
        n = pt.normal_cone_at_point(p, x)
        is_vs = n.is_subspace()
        in_ri = in_ri_conv_hull(list(p.vertices), x)
        is_perp = n == subspace_cone(list(p.lin_perp), p.ambient_dim)
        if not (is_vs == in_ri == is_perp):
            ok = False
    _v(out, "antitone.vector_space_criterion", ok,
       "the normal cone at x is a vector space iff x is relatively interior "
       "iff it equals the orthogonal complement of the body's direction space")


def _meets_polytope(p: Polytope, out: list[Verdict], counts: dict, compass):
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
    ok_meet = ok_face = True
    # both claims are symmetric in the pair, so each unordered pair is
    # intersected once and the intersection tested against both cones
    for i, a in enumerate(nl.elements):
        for j in irreducible:
            if (i in among and j <= i) or (top_is_whole and nl.top in (i, j)):
                continue
            b = nl.elements[j]
            inter = intersect_cones(a.cone, b.cone)
            met = nl.elements[nl.meet([i, j])].cone
            if inter != met:
                ok_meet = False
            if any(c != whole and not inter.is_face_of(c) for c in (a.cone, b.cone)):
                ok_face = False
    _v(out, "meets.normal_infimum_is_intersection", ok_meet,
       "the infimum of normal cones is their intersection")
    _v(out, "meets.intersection_is_face", ok_face,
       "an intersection of normal cones is a face of each proper one")
    ok = True
    facets = p.facets
    for i in range(len(facets)):
        for j in range(i, len(facets)):
            face, witness = pt.exposed_meet(p, [facets[i].normal, facets[j].normal])
            if face.vertex_indices and witness is None:
                ok = False
    _v(out, "meets.exposed_intersection_witness", ok,
       "a nonempty intersection of exposed faces is exposed by one direction "
       "in the relative interior of the directions' hull")


def _ri_counts(cones: list, dirs) -> Iterator[int]:
    """For each direction, how many of the cones hold it in their relative
    interior.

    That depends only on the signs of h.u over the cones' span-perp and
    facet normals, so all directions in one cell of that hyperplane
    arrangement meet the same cones: the first direction of a cell is
    tested against every cone, and the later ones reuse its count.  No
    normal-fan query picks a cone, so an overlap or a gap still shows.
    """
    hyperplanes = cone_hyperplanes(cones)
    by_cell: dict[tuple[int, ...], int] = {}
    for u in dirs:
        cell = sign_vector(hyperplanes, u)
        n = by_cell.get(cell)
        if n is None:
            n = by_cell[cell] = sum(1 for c in cones if c.ri_contains(u))
        yield n


def _touching_cones_partition(p: Polytope, dirs) -> bool:
    """Each direction lies in the relative interior of exactly one touching
    cone other than the whole space."""
    whole = full_space(p.ambient_dim)
    proper = [el.cone for el in pt.touching_cone_lattice(p).elements if el.cone != whole]
    return all(n == 1 for n in _ri_counts(proper, dirs))


def _touching_polytope(p: Polytope, out: list[Verdict], counts: dict, compass):
    nl = pt.normal_cone_lattice(p)
    tl = pt.touching_cone_lattice(p)
    counts["touching_cones"] = len(tl)
    _v(out, "touching.lattice_equals_normal",
       {e.key for e in nl.elements} == {e.key for e in tl.elements},
       "for a closed polytope every touching cone is a normal cone "
       "(classical fact for polytopes, asserted here as an invariant)")
    keys = {e.key for e in tl.elements}
    ok = True
    for el in tl.elements:
        for f in cone_faces(el.cone):
            if (f.rays, f.lineality) not in keys:
                ok = False
    _v(out, "touching.closed_under_faces", ok,
       "nonempty faces of touching cones are touching cones")
    dirs = compass(72) if p.ambient_dim == 2 else _sample_directions(p)
    _v(out, "touching.partition_of_directions", _touching_cones_partition(p, dirs),
       "each sampled nonzero direction lies in the relative interior of "
       "exactly one touching cone other than the whole space")


def _lift_polytope(p: Polytope, out: list[Verdict], counts: dict, compass):
    d = p.ambient_dim
    subspaces = [[unit(d, i)] for i in range(d)]
    if d >= 3:
        subspaces += [[unit(d, i), unit(d, j)]
                      for i in range(d) for j in range(i + 1, d)]
    ok_iso = ok_cyl = ok_sharp = ok_cor = ok_exp = True
    distinct = 0
    for basis in subspaces:
        proj = pt.projection(p, basis)
        _, _, rep = pt.lifted_face_lattices(p, proj.basis)
        if not rep.passed:
            ok_iso = False
        distinct += rep.canonical_subspace_distinct
        q = proj.polytope
        for f in pt.exposed_face_lattice(q).elements:
            w = f.exposing_normal
            if w is None:
                continue
            if proj.lift_face(f).vset != pt.support(p, w)[1].vset:
                ok_exp = False
        for v in p.vertices:
            if not proj.cylinder_normal_check(v).passed:
                ok_cyl = False
        for u in basis:
            if pt.is_sharp_normal(p, u) and not pt.is_sharp_normal(q, u):
                ok_sharp = False
        qn = pt.normal_cone_lattice(q)
        qt = pt.touching_cone_lattice(q)
        if {e.key for e in qn.elements} != {e.key for e in qt.elements}:
            ok_cor = False
    _v(out, "lift.lattice_isomorphisms", ok_iso,
       "lifting is an isotone lattice isomorphism onto the lifted (exposed) "
       "face lattices, with intersection as infimum, and a face is lifted "
       "iff it is lift-invariant; the lift only depends on the projection of "
       "the subspace onto the body's direction space (a real comparison on "
       f"{distinct} of {len(subspaces)} coordinate subspaces; on the rest the "
       "subspace lies in the direction space, so a lift is compared with "
       "itself)")
    _v(out, "lift.exposed_face_transform", ok_exp,
       "the lift of the projection's exposed face of a subspace direction is "
       "the body's exposed face of the same direction")
    _v(out, "lift.cylinder_normal_cones", ok_cyl,
       "the normal cone of the projection at a projected point equals "
       "(N cap V) + V_perp, at every vertex and coordinate subspace")
    _v(out, "lift.sharp_normal_projection", ok_sharp,
       "sharp normal directions inside the subspace stay sharp normal for "
       "the projection")
    _v(out, "lift.touching_equals_normal_downstream", ok_cor,
       "projections of a body whose touching cones are all normal again "
       "have all touching cones normal")


def _sharp_polytope(p: Polytope, out: list[Verdict], counts: dict, compass):
    ok = True
    for u in _sample_directions(p):
        if not pt.is_sharp_normal(p, u):
            ok = False
    _v(out, "sharp.normal_directions", ok,
       "every sampled nonzero direction is sharp normal (touching cones of a "
       "polytope are all normal)")
    ok = True
    samples = list(p.vertices)
    fl = pt.face_lattice(p)
    for f in fl.elements:
        if f.vertex_indices:
            samples.append(p.ri_point(f))
    for x in samples:
        if not pt.is_sharp_exposed(p, x):
            ok = False
    _v(out, "sharp.exposed_points", ok,
       "every sampled body point is sharp exposed (faces of a polytope are "
       "all exposed)")


def _coatoms_polytope(p: Polytope, out: list[Verdict], counts: dict, compass):
    fl = pt.exposed_face_lattice(p)
    nl = pt.normal_cone_lattice(p)
    lin_perp_dim = len(p.lin_perp)
    ok_co = ok_at = ok_mink = True
    for idx, f in enumerate(fl.elements):
        if idx in (fl.bottom, fl.top):
            continue
        n = pt.normal_cone(p, f)
        try:
            coat = pt.coatom_decomposition(p, f)
            if len(coat) > n.cone_dim - lin_perp_dim:
                ok_co = False
            inter = frozenset(range(len(p.vertices)))
            for c in coat:
                inter &= c.vset
            if inter != f.vset:
                ok_co = False
        except HypothesisFailed:
            ok_co = False
        try:
            mk = pt.minkowski_atom_check(p, f)
            if not mk.passed:
                ok_mink = False
        except HypothesisFailed:
            ok_mink = False
    for idx, el in enumerate(nl.elements):
        if idx in (nl.bottom, nl.top):
            continue
        try:
            atoms = pt.atom_decomposition(p, el.cone)
            if len(atoms) > el.cone.cone_dim - lin_perp_dim:
                ok_at = False
        except HypothesisFailed:
            ok_at = False
    _v(out, "coatoms.exposed_faces", ok_co,
       "every proper exposed face is an intersection of at most "
       "dim(N)-dim(lin_perp) coatoms of the exposed-face lattice")
    _v(out, "coatoms.normal_atoms", ok_at,
       "every proper normal cone is a join of at most dim(N)-dim(lin_perp) "
       "atoms of the normal-cone lattice")
    _v(out, "coatoms.minkowski_atoms", ok_mink,
       "every proper exposed face with all subfaces exposed is a join of at "
       "most dim(F)+1 extreme-point atoms")


def _polar_polytope(p: Polytope, out: list[Verdict], counts: dict, compass):
    try:
        q = pt.polar(p)
    except OriginNotInterior as e:
        _skip(out, "polar.applicable", f"polar body undefined here: {e}")
        return
    counts["polar_vertices"] = len(q.vertices)
    _v(out, "polar.involution", set(pt.polar(q).vertices) == set(p.vertices),
       "the polar of the polar body is the body itself")
    rep = pt.pos_iso_check(p)
    _v(out, "polar.pos_isomorphisms", rep.passed,
       "positive hulls map the polar's exposed faces isotonely onto the "
       "normal cones and its faces onto the touching cones, inverted by "
       "intersecting with the polar's relative boundary; "
       + ("; ".join(rep.details) or "verified"))
    fl = pt.exposed_face_lattice(p)
    ql = pt.exposed_face_lattice(q)
    rep2 = verify_isomorphism(lattice_map(
        fl, ql, lambda f: pt.conjugate_face(p, f), "antitone"))
    _v(out, "polar.conjugate_face_iso", rep2.passed,
       "taking conjugate faces is an antitone lattice isomorphism onto the "
       "exposed faces of the polar body")
    ok = True
    pp = pt.polar(q)
    for f in fl.elements:
        back = pt.conjugate_face(q, pt.conjugate_face(p, f))
        back_pts = {pp.vertices[i] for i in back.vertex_indices}
        sup_pts = {p.vertices[i] for i in pt.sup_exposed(p, f).vertex_indices}
        if back_pts != sup_pts:
            ok = False
    _v(out, "polar.biconjugate", ok,
       "the biconjugate of a face is its smallest exposed superface")


def _partition_polytope(p: Polytope, out: list[Verdict], counts: dict, compass):
    if p.ambient_dim != 2:
        dirs = _sample_directions(p)
    else:
        dirs = compass(360)
    counts["partition_directions"] = len(dirs)
    _v(out, "partition.unique_touching_cone", _touching_cones_partition(p, dirs),
       "sampled nonzero directions lie in the relative interior of exactly "
       "one touching cone other than the whole space")


# ---------------------------------------------------------------------------
# suites on planar bodies
# ---------------------------------------------------------------------------

def _antitone_planar(b: PlanarBody, out: list[Verdict], counts: dict, compass):
    faces = pl.special_faces(b, exposed_only=True)
    cones = {}
    for f in faces:
        c = pl.normal_cone_at(b, f)
        cones[c.key] = c
    counts["special_exposed_faces"] = len(faces)
    counts["special_normal_cones"] = len(cones)
    if len(cones) != len(faces):
        _v(out, "antitone.special_iso", False,
           "special exposed faces and their normal cones are not in bijection")
        return
    src = pl.special_face_lattice(b, exposed_only=True)
    ordered = sorted(cones.values(), key=lambda c: (c.dim, str(c.key)))
    tgt = build_lattice(ordered, held_generators(ordered))
    rep = verify_isomorphism(lattice_map(
        src, tgt, lambda f: pl.normal_cone_at(b, f), "antitone"))
    _v(out, "antitone.special_iso", rep.passed,
       "special exposed faces correspond to their normal cones by an antitone "
       "lattice isomorphism; " + ("; ".join(rep.failures) or "verified"))
    ok = True
    for x in pl.sample_boundary_points(b):
        f = pl.face_at(b, x)
        n = pl.normal_cone_at(b, f)
        u = n.ri_vector()
        if u is None:
            continue
        h, _ = pl.support_value(b, u)
        attained = quad_compare(h, pl.QuadVal(dot(u, x))) == 0
        if not (attained and n.contains(u)):
            ok = False
    _v(out, "antitone.pointwise_duality", ok,
       "sampled boundary points attain the support value exactly in the "
       "directions of their normal cone")


def _touching_planar(b: PlanarBody, out: list[Verdict], counts: dict, compass):
    inv = pl.cone_inventory(b)
    counts["proper_normal_cones"] = inv.proper_normal_count
    counts["proper_touching_cones"] = inv.proper_touching_count
    counts["arc_families"] = len(inv.arc_families)
    counts["non_normal_touching"] = len(inv.extra_touching)
    counts["non_exposed_faces"] = len(pl.non_exposed_faces(b))
    ok = all(t.kind == "ray" for t in inv.extra_touching)
    _v(out, "touching.extra_are_boundary_rays", ok,
       "touching cones that are not normal cones are boundary rays of vertex "
       "normal cones (faces of normal cones)")
    ok = True
    for j in range(b.n):
        if not b.junction_present(j):
            continue
        cone = b.junction_cone(j)
        if cone.kind != "sector":
            continue
        v1 = cone.ri_vector()
        v2 = vadd(vadd(cone.d1, cone.d1), cone.d2)
        f1, f2 = pl.exposed_face(b, v1), pl.exposed_face(b, v2)
        if f1 != f2:
            ok = False
    _v(out, "touching.constant_on_ri", ok,
       "directions in the relative interior of the same touching cone expose "
       "the same face")


def _sharp_planar(b: PlanarBody, out: list[Verdict], counts: dict, compass):
    ok = True
    for u in compass(120):
        f = pl.exposed_face(b, u)
        if f.tag == "empty":
            continue
        t, is_normal = pl.touching_cone(b, u)
        n = pl.normal_cone_at(b, f)
        sharp = n.ri_contains(u)
        if sharp != is_normal:
            ok = False
    _v(out, "sharp.normal_iff_touching_is_normal", ok,
       "a direction is sharp normal exactly when its touching cone is a "
       "normal cone")


def _coatoms_planar(b: PlanarBody, out: list[Verdict], counts: dict, compass):
    for f in pl.special_faces(b, exposed_only=True):
        if f.tag in ("empty", "whole"):
            continue
        rep = pl.coatom_check_planar(b, f)
        cid = f"coatoms.face[{f.label()}]"
        if rep.hypothesis_ok:
            _v(out, cid, rep.is_intersection_of_coatoms,
               "every touching cone inside the normal cone is normal, so the "
               "face must be an intersection of coatoms; exhibited "
               + ", ".join(c.label() for c in rep.coatoms))
        else:
            extra = ("is" if rep.is_intersection_of_coatoms else "is not")
            _skip(out, cid,
                  f"hypothesis fails (a touching cone inside the normal cone "
                  f"is not normal); the face {extra} an intersection of "
                  f"coatoms; {rep.note}")


def _polar_planar_suite(b: PlanarBody, out: list[Verdict], counts: dict, compass):
    try:
        q = pl.polar_planar(b)
    except (OriginNotInterior, UnsupportedArcCenter) as e:
        _skip(out, "polar.applicable", f"polar body undefined here: {e}")
        return
    rt = pl.polar_planar(q)
    same = ({(f.kind, f.start, f.end) for f in rt.features}
            == {(f.kind, f.start, f.end) for f in b.features})
    _v(out, "polar.involution", same, "the polar of the polar body is the body")
    worst_ok = True
    for u in compass(120):
        h, _ = pl.support_value(q, u)
        g = pl.gauge_value(b, u)
        if quad_compare(h, g) != 0:
            worst_ok = False
    _v(out, "polar.support_equals_gauge", worst_ok,
       "the support function of the polar equals the gauge of the body, "
       "exactly, at 120 rational directions (max deviation 0)")
    inv = pl.cone_inventory(b)
    pos_cones = {}
    for f in pl.special_faces(q, exposed_only=True):
        if f.tag == "vertex":
            c = pl.Cone2.ray(f.point)
        elif f.tag == "edge":
            feat = q.features[f.feature]
            c = pl.Cone2.sector(feat.start, feat.end)
        elif f.tag == "arcpoint":
            c = pl.Cone2.ray(f.direction)
        else:
            continue
        pos_cones[c.key] = c
    normal_keys = {c.key for c in inv.proper_normal}
    for i in inv.arc_families:
        arc = b.features[i]
        normal_keys.add(pl.Cone2.ray(arc.interior_direction()).key)
    _v(out, "polar.pos_of_special_faces", set(pos_cones) == normal_keys,
       "positive hulls of the polar's special proper faces are exactly the "
       "proper normal cones of the body (arc families matched through their "
       "representatives)")


def _partition_planar(b: PlanarBody, out: list[Verdict], counts: dict, compass):
    if not b.is_closed():
        _skip(out, "partition.unique_touching_cone",
              "partition of directions requires a closed bounded body")
        return
    dirs = compass(360)
    rep = pl.partition_check_planar(b, dirs)
    counts["partition_directions"] = len(dirs)
    _v(out, "partition.unique_touching_cone", rep.passed,
       "each of 360 sampled rational directions lies in the relative interior "
       "of exactly one touching cone; " + ("; ".join(rep.details[:4]) or "verified"))


def _2d_planar(b: PlanarBody, out: list[Verdict], counts: dict, compass):
    ne = pl.non_exposed_faces(b)
    counts["non_exposed_faces"] = len(ne)
    out.append(Verdict("2d.non_exposed_inventory", "pass",
                       "non-exposed faces: "
                       + (", ".join(f.label() for f in ne) or "none")))
    try:
        rep = pl.check_2d_nonexposed_rule(b)
        _v(out, "2d.nonexposed_rule", rep.passed,
           "non-exposed faces are exactly the endpoints of a unique "
           "one-dimensional face; " + ("; ".join(rep.details) or "verified"))
    except HypothesisFailed as e:
        _skip(out, "2d.nonexposed_rule", f"hypothesis fails: {e}")
    try:
        rep = pl.check_2d_smoothness(b)
        counts["singular_points"] = len(pl.singular_points(b))
        _v(out, "2d.smoothness", rep.passed,
           "every singular boundary point joins two distinct boundary "
           "segments; " + ("; ".join(rep.details) or "verified"))
    except HypothesisFailed as e:
        _skip(out, "2d.smoothness", f"hypothesis fails: {e}")


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


def run_suite(body, fixture_name: str, suite: str) -> CheckReport:
    """Run one named suite (or 'all') on a parsed body.

    Each suite gets `compass`, `compass_directions` memoised for this call
    only, so a list of sample directions is built at most once per run and
    shared by the suites that use it.  A known suite that does not fit the
    body's kind is reported as a skip; an unknown name raises ValueError."""
    if suite != "all" and suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; the suites are 'all', "
                         + ", ".join(map(repr, SUITE_NAMES)))
    suites = SUITE_NAMES if suite == "all" else (suite,)
    report = CheckReport(suite, fixture_name)
    table = _POLY if isinstance(body, Polytope) else _PLANAR
    kind = "polytope" if isinstance(body, Polytope) else "planar"
    compass = cache(compass_directions)
    for s in suites:
        fn = table.get(s)
        if fn is None:
            _skip(report.verdicts, f"{s}.applicable",
                  f"suite '{s}' does not apply to {kind} bodies")
            continue
        fn(body, report.verdicts, report.counts, compass)
    return report
