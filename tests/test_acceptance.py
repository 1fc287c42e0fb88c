"""Acceptance matrix: one test per criterion, printed as a pass/fail line.

Everything here is exact (zero tolerance) except the two numeric state-space
criteria, whose tolerances are pinned below (1e-9 for the sampling runs).
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import pytest

from facelat import bodyio
from facelat import planar as pl
from facelat import polytope as pt
from facelat import statespace as ss
from facelat.exactgeom import unit, vec
from facelat.lattice import (decompose_by_atoms, decompose_by_coatoms,
                             lattice_map, verify_isomorphism)
from facelat.planar import Cone2, compass_directions, quad_compare


@pytest.fixture(scope="module")
def bodies():
    names = ["square", "cube", "triangle", "segment", "quarter_disk", "stadium",
             "lens", "truncated_disk_closed", "triangle_open_side", "triangle_open_side_apex",
             "triangle_minus_vertex", "square_planar"]
    return {n: bodyio.load_fixture(n) for n in names}


def _report(num, text, ok):
    print(f"criterion {num:2d} [{text}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_antitone_isomorphism(bodies):
    ok = True
    for name in ("square", "cube", "triangle", "segment"):
        p = bodies[name]
        rep = verify_isomorphism(lattice_map(
            pt.exposed_face_lattice(p), pt.normal_cone_lattice(p),
            lambda f, p=p: pt.ConeElement(pt.normal_cone(p, f)), "antitone"))
        ok = ok and rep.failures == ()
    _report(1, "faces-to-normal-cones antitone isomorphism, exact", ok)


def test_criterion_02_lattice_sizes(bodies):
    sq, cb = bodies["square"], bodies["cube"]
    ok = (len(pt.face_lattice(sq)) == 10
          and len(pt.exposed_face_lattice(sq)) == 10
          and len(pt.normal_cone_lattice(sq)) == 10
          and len(pt.touching_cone_lattice(sq)) == 10
          and len(pt.face_lattice(cb)) == 28
          and len(pt.exposed_face_lattice(cb)) == 28
          and len(pt.normal_cone_lattice(cb)) == 28
          and len(pt.touching_cone_lattice(cb)) == 28)
    _report(2, "square lattices all size 10, cube lattices all size 28", ok)


def test_criterion_03_quarter_disk(bodies):
    qd = bodies["quarter_disk"]
    tnn = pl.cone_inventory(qd).extra_touching
    ok = ({c.d1 for c in tnn} == {vec(1, 0), vec(0, 1)}
          and len(tnn) == 2
          and pl.non_exposed_faces(qd) == []
          and pl.normal_cone_at(qd, pl.face_at(qd, vec(0, 0)))
          == Cone2.sector(vec(-1, 0), vec(0, -1)))
    _report(3, "quarter disk: two non-normal touching rays, no non-exposed "
               "faces, quadrant cone at the corner", ok)


def test_criterion_04_stadium(bodies):
    st = bodies["stadium"]
    ne = pl.non_exposed_faces(st)
    ok = ({f.point for f in ne}
          == {vec(1, 1), vec(-1, 1), vec(-1, -1), vec(1, -1)}
          and pl.cone_inventory(st).extra_touching == ()
          and pl.check_2d_nonexposed_rule(st).passed)
    _report(4, "stadium: flat-edge endpoints non-exposed, all touching cones "
               "normal, 2D endpoint rule holds", ok)


def test_criterion_05_lens(bodies):
    lens = bodies["lens"]
    tnn = pl.cone_inventory(lens).extra_touching
    ok = len(tnn) == 4
    # no one-dimensional faces exist, so every proper face is its own coatom;
    # check the corners and arc representatives explicitly
    ok = ok and not any(isinstance(f, pl.Segment) for f in lens.features)
    for f in pl.special_faces(lens, exposed_only=True):
        if f.tag in ("empty", "whole"):
            continue
        rep = pl.coatom_check_planar(lens, f)
        ok = ok and rep.is_intersection_of_coatoms
        if f.tag == "vertex":
            ok = ok and not rep.hypothesis_ok  # conclusion holds without it
    _report(5, "lens: non-normal touching cones exist, yet every proper face "
               "is a coatom (the coatom theorem has no converse)", ok)


def test_criterion_06_open_triangles(bodies):
    left, right = bodies["triangle_open_side"], bodies["triangle_open_side_apex"]
    il, ir = pl.cone_inventory(left), pl.cone_inventory(right)
    ok = il.proper_touching_count == 3 and not il.extra_touching
    for f in pl.special_faces(left, exposed_only=True):
        if f.tag in ("empty", "whole"):
            continue
        ok = ok and pl.coatom_check_planar(left, f).is_intersection_of_coatoms
    ok = ok and ir.proper_normal_count == il.proper_normal_count + 1
    ok = ok and ir.proper_touching_count == il.proper_touching_count + 2
    top = pl.coatom_check_planar(right, pl.face_at(right, vec(0, 2)))
    ok = ok and not top.is_intersection_of_coatoms
    _report(6, "pinned open-triangle encodings: left 3/3 normal touching cones with "
               "coatom property; right adds 1 normal + 2 touching cones and "
               "its top vertex is not an intersection of coatoms", ok)


def test_criterion_07_decomposition_bounds(bodies):
    cb = bodies["cube"]
    corner = cb.face_of_point(vec(1, 1, 1))
    co = pt.coatom_decomposition(cb, corner)
    ok = len(co) == 3  # bound dim(N) - dim(lin_perp) = 3, saturated
    facet = cb.face_of_point(vec(0, 0, 1))
    ray = pt.normal_cone(cb, facet)
    nl = pt.normal_cone_lattice(cb)
    subset = decompose_by_coatoms(nl, nl.index_of((ray.rays, ray.lineality)),
                                  facet.dim + 1)
    ok = ok and subset is not None and len(subset) <= facet.dim + 1
    atoms = pt.atom_decomposition(cb, pt.normal_cone(cb, corner))
    ok = ok and len(atoms) == 3
    _report(7, "cube corner needs exactly 3 coatoms (bound saturated); the "
               "facet normal decomposes within the dual bound dim(F)+1", ok)


def test_criterion_08_polarity(bodies):
    ok = pt.pos_iso_check(bodies["square"]).passed
    ok = ok and pt.pos_iso_check(bodies["cube"]).passed
    for name in ("square", "cube"):
        p = bodies[name]
        ok = ok and set(pt.polar(pt.polar(p)).vertices) == set(p.vertices)
    td = bodies["truncated_disk_closed"]
    mouse = pl.polar_planar(td)
    ok = ok and vec(2, 0) in mouse.junctions
    back = pl.polar_planar(mouse)
    ok = ok and {(f.kind, f.start, f.end) for f in back.features} == \
        {(f.kind, f.start, f.end) for f in td.features}
    deviations = 0
    for u in compass_directions(120):
        h, _ = pl.support_value(mouse, u)
        if quad_compare(h, pl.gauge_value(td, u)) != 0:
            deviations += 1
    ok = ok and deviations == 0
    # special-face restriction of the positive-hull isomorphism
    inv = pl.cone_inventory(td)
    pos_keys = set()
    for f in pl.special_faces(mouse, exposed_only=True):
        if f.tag == "vertex":
            pos_keys.add(Cone2.ray(f.point).key)
        elif f.tag == "edge":
            feat = mouse.features[f.feature]
            pos_keys.add(Cone2.sector(feat.start, feat.end).key)
        elif f.tag == "arcpoint":
            pos_keys.add(Cone2.ray(f.direction).key)
    normal_keys = {c.key for c in inv.proper_normal}
    for i in inv.arc_families:
        normal_keys.add(Cone2.ray(td.features[i].interior_direction()).key)
    ok = ok and pos_keys == normal_keys
    _report(8, "positive-hull isomorphism on square/cube/truncated disk; "
               "polar involution exact; mouse vertex (2,0); support-function "
               "oracle deviation 0", ok)


def test_criterion_09_minkowski_bound(bodies):
    ok = True
    for name in ("square", "cube"):
        p = bodies[name]
        lat = pt.exposed_face_lattice(p)
        for idx, f in enumerate(lat.elements):
            if idx in (lat.bottom, lat.top):
                continue
            atoms = pt.minkowski_atom_check(p, f)
            joined = lat.join(lat.index_of(a.key) for a in atoms)
            ok = ok and len(atoms) <= f.dim + 1 and joined == idx
    # the non-closed triangle defeats the bound on its half-open sides
    body = bodies["triangle_minus_vertex"]
    lat = pl.special_face_lattice(body, exposed_only=True)
    failures = 0
    for idx, e in enumerate(lat.elements):
        if getattr(e, "tag", "") == "edge" and e.feature in (1, 2):
            if decompose_by_atoms(lat, idx, e.dim + 1) is None:
                failures += 1
    ok = ok and failures == 2
    _report(9, "extreme-point join bound holds on square and cube faces and "
               "fails (as it must) for the vertex-deleted triangle", ok)


def test_criterion_10_lifting(bodies):
    tri, sq, cb = bodies["triangle"], bodies["square"], bodies["cube"]
    lifted, _, rep = pt.lifted_face_lattices(tri, [vec(1, 0)])
    keys = {f.key for f in lifted.elements}
    ok = rep.passed and (0,) in keys and (1,) in keys and (0, 1) not in keys
    for p, subspaces in ((sq, [[unit(2, 0)], [unit(2, 1)]]),
                         (cb, [[unit(3, i)] for i in range(3)]
                          + [[unit(3, i), unit(3, j)]
                             for i in range(3) for j in range(i + 1, 3)])):
        for basis in subspaces:
            for v in p.vertices:
                ok = ok and pt.projection(p, basis).cylinder_normal_check(v).passed
    _report(10, "triangle/x-axis lifts corners but not the bottom edge; "
                "cylinder normal-cone formula exact at all vertices and "
                "coordinate subspaces of square and cube", ok)


def test_criterion_11_partition(bodies):
    dirs = compass_directions(360)
    ok = len(dirs) == 360
    for name in ("quarter_disk", "square_planar", "stadium"):
        rep = pl.partition_check_planar(bodies[name], dirs)
        ok = ok and rep.passed
    _report(11, "360 rational directions each lie in exactly one touching-cone "
                "relative interior on quarter disk, square, stadium", ok)


def test_criterion_12_state_space_sampling():
    t0 = time.time()
    rep1 = ss.verify_sharp_properties((2,), samples=1000, tol=1e-9, seed=0)
    rep2 = ss.verify_sharp_properties((2, 1), samples=1000, tol=1e-9, seed=0)
    elapsed = time.time() - t0
    ok = rep1.passed and rep2.passed and rep1.violations == rep2.violations == 0
    ok = ok and elapsed < 10.0
    _report(12, f"1000-sample sharp checks on both state spaces: zero "
                f"violations at 1e-9 in {elapsed:.1f}s", ok)


def test_criterion_13_cone_experiment():
    r12 = ss.cone_experiment(12.0)
    r39 = ss.cone_experiment(39.0)
    ok = (r12.conic_type == "hyperbolic" and r39.conic_type == "elliptic"
          and r12.projection_nonexposed_points == 2
          and r39.projection_nonexposed_points == 2
          and r12.intersection_all_exposed and r39.intersection_all_exposed
          and abs(r12.transition_deg - 30.0) < 1e-9)
    _report(13, "sections hyperbolic at 12 deg / elliptic at 39 deg, two "
                "non-exposed tangency points in each projection, all sampled "
                "intersection faces exposed; transition angle recorded at "
                f"{r12.transition_deg:.6f} deg", ok)
