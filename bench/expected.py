"""Expected results, written down from geometry rather than recorded from runs.

A job passes only if its exit code, per-suite tallies, `counts` block and
skip reasons (or its lattice f-vector) match this table.  Tallies are
`{suite: (passes, skips)}`; no check may fail.  The tables hold for every
seed, because a seed only moves a body by a symmetry.
"""

from __future__ import annotations

# --- lattice-scaling cases ---------------------------------------------------
#
# Element counts per dimension.  Face lattices count the empty face at
# dimension -1 and the body at its own dimension.  A touching (= normal,
# for polytopes) cone lattice is anti-isomorphic to the face lattice: a
# k-face of a d-polytope has a (d-k)-dimensional normal cone, the body has
# {0} and the empty face has the whole space.


def cyclic3_fvector(m: int) -> dict[int, int]:
    """C(m,3) is simplicial and neighbourly: m vertices, 3m-6 edges, 2m-4 facets."""
    return {-1: 1, 0: m, 1: 3 * m - 6, 2: 2 * m - 4, 3: 1}


def prism_fvector(k: int) -> dict[int, int]:
    """Prism over a k-gon: 2k vertices, 3k edges, k + 2 facets."""
    return {-1: 1, 0: 2 * k, 1: 3 * k, 2: k + 2, 3: 1}


def cross4_cone_dims() -> dict[int, int]:
    """4-cross-polytope f-vector (8, 24, 32, 16), read off as normal-cone dims."""
    return {0: 1, 1: 16, 2: 32, 3: 24, 4: 8 + 1}


LATTICE_DIMS = {
    "cyclic12_exposed": cyclic3_fvector(12),  # 6m - 8 = 64 elements
    "prism4_faces": prism_fvector(4),         # 6k + 4 = 28 elements
    "cross4_touching": cross4_cone_dims(),    # 82 elements
}

# --- check suites --------------------------------------------------------------

# Skip reasons, by verdict-id prefix.  Any skip outside a fixture's list is
# an error, so a skip can never hide a check that should have run.
NOT_PLANAR = {
    "lift.applicable": "the lifting theorems are stated for polytopes",
    "meets.applicable": "the meet theorems are stated for polytopes",
}
NOT_POLYTOPE = {"2d.applicable": "the 2d suite is about planar arc bodies"}
ARCS_OFF_CENTER = {"polar.applicable": "arcs not centred at the origin have no "
                   "rational polar in the supported class"}
ORIGIN_NOT_INTERIOR = {"polar.applicable": "the origin is not an interior point"}
OPEN_BODY = {
    "partition.unique_touching_cone": "a direction partition needs a closed body",
    "polar.applicable": "polar bodies are defined for closed bodies",
}
NON_NORMAL_TOUCHING = {
    "2d.nonexposed_rule": "some touching cone is not a normal cone",
    "2d.smoothness": "some touching cone is not a normal cone",
    "coatoms.face[": "a touching cone inside the face's normal cone is not normal",
}

# Every polytope suite emits a fixed verdict list.
_POLYTOPE_TALLY = {"antitone": (6, 0), "meets": (3, 0), "lift": (5, 0),
                   "sharp": (2, 0), "touching": (3, 0), "coatoms": (3, 0),
                   "polar": (4, 0), "partition": (1, 0), "2d": (0, 1)}

# counts: exposed faces incl. the empty face and the body; one normal and one
# touching cone per face; polar vertices = facets; 2D bodies sample the 360
# compass directions, the others the 6 facet normals + 8 vertex + 12 edge
# directions (cube) or the 2 facet normals (segment).
POLYTOPES = {
    "cube": {
        "tally": _POLYTOPE_TALLY,
        "counts": {"exposed_faces": 28, "normal_cones": 28, "touching_cones": 28,
                   "polar_vertices": 6, "partition_directions": 26},
        "skips": NOT_POLYTOPE,
    },
    "square": {
        "tally": _POLYTOPE_TALLY,
        "counts": {"exposed_faces": 10, "normal_cones": 10, "touching_cones": 10,
                   "polar_vertices": 4, "partition_directions": 360},
        "skips": NOT_POLYTOPE,
    },
    "triangle": {  # the origin is a vertex, so the polar suite does not apply
        "tally": dict(_POLYTOPE_TALLY, polar=(0, 1)),
        "counts": {"exposed_faces": 8, "normal_cones": 8, "touching_cones": 8,
                   "partition_directions": 360},
        "skips": {**NOT_POLYTOPE, **ORIGIN_NOT_INTERIOR},
    },
    "segment": {
        "tally": _POLYTOPE_TALLY,
        "counts": {"exposed_faces": 4, "normal_cones": 4, "touching_cones": 4,
                   "polar_vertices": 2, "partition_directions": 2},
        "skips": NOT_POLYTOPE,
    },
}


def _planar(tally: dict, counts: dict, *skips: dict) -> dict:
    base = {"lift": (0, 1), "meets": (0, 1), "antitone": (2, 0),
            "touching": (2, 0), "sharp": (1, 0)}
    merged = dict(NOT_PLANAR)
    for s in skips:
        merged.update(s)
    return {"tally": {**base, **tally}, "counts": counts, "skips": merged}


def _cones(exposed, proper_normal, proper_touching, arcs, non_exposed, **extra):
    """The planar counts block.  Special faces: the empty face, the body and
    each junction point, segment and arc-point family kept by the body;
    their normal cones are in bijection with them."""
    return {"special_exposed_faces": exposed, "special_normal_cones": exposed,
            "proper_normal_cones": proper_normal,
            "proper_touching_cones": proper_touching,
            "non_normal_touching": proper_touching - proper_normal,
            "arc_families": arcs, "non_exposed_faces": non_exposed, **extra}


_CLOSED = {"partition_directions": 360}

PLANAR = {
    # two arcs meeting in two corners: each corner adds 2 touching rays that
    # are not normal cones (4), so the 2d rules and the corner coatom checks skip
    "lens": _planar(
        {"2d": (1, 2), "coatoms": (2, 2), "partition": (1, 0), "polar": (0, 1)},
        _cones(6, 2, 6, 2, 0, **_CLOSED), ARCS_OFF_CENTER, NON_NORMAL_TOUCHING),
    # corner at the origin; the arc ends meet the segments tangentially
    "quarter_disk": _planar(
        {"2d": (1, 2), "coatoms": (4, 2), "partition": (1, 0), "polar": (0, 1)},
        _cones(8, 5, 7, 1, 0, **_CLOSED), ORIGIN_NOT_INTERIOR, NON_NORMAL_TOUCHING),
    # 4 corners and 4 edges: every proper face is a coatom intersection
    "square_planar": _planar(
        {"2d": (3, 0), "coatoms": (8, 0), "partition": (1, 0), "polar": (3, 0)},
        _cones(10, 8, 8, 0, 0, singular_points=4, **_CLOSED)),
    # smooth: the 4 segment endpoints are faces but not exposed
    "stadium": _planar(
        {"2d": (3, 0), "coatoms": (4, 0), "partition": (1, 0), "polar": (0, 1)},
        _cones(6, 2, 2, 2, 4, singular_points=0, **_CLOSED), ARCS_OFF_CENTER),
    "triangle_minus_vertex": _planar(
        {"2d": (3, 0), "coatoms": (5, 0), "partition": (0, 1), "polar": (0, 1)},
        _cones(7, 5, 5, 0, 0, singular_points=2), OPEN_BODY),
    "triangle_open_side": _planar(
        {"2d": (3, 0), "coatoms": (3, 0), "partition": (0, 1), "polar": (0, 1)},
        _cones(5, 3, 3, 0, 0, singular_points=1), OPEN_BODY),
    # the kept apex of the open side has a touching ray that is not normal
    "triangle_open_side_apex": _planar(
        {"2d": (1, 2), "coatoms": (3, 1), "partition": (0, 1), "polar": (0, 1)},
        _cones(6, 4, 5, 0, 0), OPEN_BODY, NON_NORMAL_TOUCHING),
    # the chord ends are corners whose tangent rays touch but are not normal
    "truncated_disk_closed": _planar(
        {"2d": (1, 2), "coatoms": (2, 2), "partition": (1, 0), "polar": (3, 0)},
        _cones(6, 3, 5, 1, 0, **_CLOSED), NON_NORMAL_TOUCHING),
    # chord and its ends deleted: no proper cone is attained
    "truncated_disk_open": _planar(
        {"2d": (3, 0), "coatoms": (1, 0), "partition": (0, 1), "polar": (0, 1)},
        _cones(3, 0, 0, 1, 0, singular_points=0), OPEN_BODY),
    "unit_disk": _planar(
        {"2d": (3, 0), "coatoms": (4, 0), "partition": (1, 0), "polar": (3, 0)},
        _cones(6, 2, 2, 2, 0, singular_points=0, **_CLOSED)),
}

FIXTURES = {**POLYTOPES, **PLANAR}


def check_report(name: str, report: dict) -> list[str]:
    """Differences between a `check --suite all` JSON report and the table."""
    want = FIXTURES[name]
    errors = []
    tally: dict[str, list[int]] = {}
    for v in report["verdicts"]:
        suite = v["id"].split(".")[0]
        slot = tally.setdefault(suite, [0, 0])
        if v["status"] == "pass":
            slot[0] += 1
        elif v["status"] == "skip":
            slot[1] += 1
            if not any(v["id"].startswith(p) for p in want["skips"]):
                errors.append(f"{name}: unjustified skip {v['id']}")
        else:
            errors.append(f"{name}: {v['id']} {v['status']}: {v['detail'][:200]}")
    got = {s: tuple(t) for s, t in tally.items()}
    if got != want["tally"]:
        errors.append(f"{name}: tallies {got} != {want['tally']}")
    if report["counts"] != want["counts"]:
        errors.append(f"{name}: counts {report['counts']} != {want['counts']}")
    return errors


def check_lattice(name: str, dims: dict[int, int]) -> list[str]:
    want = LATTICE_DIMS[name]
    return [] if dims == want else [f"{name}: element dims {dims} != {want}"]
