"""The vertex rays against the common-denominator vertex grid.

A polytope keeps vertex j = n_j/c_j as one integer form, its primitive ray
(n_j, c_j) with c_j > 0 (`Polytope._vertex_rays`).  The functions below are
the grid versions the rays replaced: every vertex over one common
denominator d, the lcm of all the denominators, as vertex j = grid[j]/d.
They stay here as references.  On random rational hulls in 1-4D with mixed
denominators, lower-dimensional ones included, each ray version must give
exactly what its grid reference gives.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from facelat import exactgeom as eg
from facelat import polytope as pt
from facelat.errors import PointNotInBody
from facelat.exactgeom import vec, vsub
from facelat.lattice import _bits
from facelat.polytope import Polytope, exposed_face_lattice, extreme_points

# ---------------------------------------------------------------------------
# the grid references
# ---------------------------------------------------------------------------


def grid_hull_rows(grid):
    """The hull LP's rows on grid points: one per coordinate, then ones."""
    rows = [list(c) for c in zip(*grid)]
    rows.append([1] * len(grid))
    return rows


def grid_carrier_in_face(grid, rows, g, key):
    """The carrier of the centroid of the grid points `key` (a bitmask),
    solved over the points of a face g (a bitmask) that contains them."""
    cols = list(_bits(g))
    idx = list(_bits(key))
    rhs = [sum(c) for c in zip(*(grid[i] for i in idx))] + [len(idx)]
    support = eg.hull_carrier([[row[j] for j in cols] for row in rows], rhs,
                              [k for k, j in enumerate(cols) if key >> j & 1])
    return sum(1 << cols[k] for k in support)


def grid_dim(grid, idx):
    """The rank of the differences of the grid points idx."""
    return len(eg._eliminate([[a - b for a, b in zip(grid[i], grid[idx[0]])]
                              for i in idx[1:]], reduced=False))


def grid_support(p, u):
    e, us = pt._int_point(u, p.ambient_dim)
    d, grid = eg.point_grid(p.vertices)
    values = [eg._idot(us, v) for v in grid]
    h = max(values)
    return F(h, e * d), frozenset(i for i, val in enumerate(values) if val == h)


def grid_centroid(p, indices):
    d, grid = eg.point_grid(p.vertices)
    return tuple(F(sum(c), d * len(indices)) for c in zip(*(grid[i] for i in indices)))


def grid_ri_samples(p, idx, count=3):
    d, grid = eg.point_grid(p.vertices)
    columns = list(zip(*(grid[i] for i in idx)))
    out = []
    for s in range(count):
        weights = [1 + (i + s) % len(idx) for i in range(len(idx))]
        den = d * sum(weights)
        x = tuple(F(eg._idot(weights, c), den) for c in columns)
        if x not in out:
            out.append(x)
    return out


def grid_normal_cone_at_point(p, x):
    """(rays, lineality) of N(p, x) from the rows v - x times d*e, or None
    when x is off p."""
    e, xs = pt._int_point(x, p.ambient_dim)
    d, grid = eg.point_grid(p.vertices)
    diffs = [[a * e - b * d for a, b in zip(v, xs)] for v in grid]
    rays, lin = eg.double_description((), diffs, p.ambient_dim)
    u = [sum(c) for c in zip(*rays)]
    if all(eg._idot(u, a) < 0 for a in diffs):
        return None
    return rays, lin


def grid_conjugate_vset(p, q, vertex_indices):
    """The vertices w of the polar q with w.y = 1 on every vertex y of the
    face, on the two vertex grids."""
    if not vertex_indices:
        return frozenset(range(len(q.vertices)))
    dp, ys = eg.point_grid(p.vertices)
    dq, ws = eg.point_grid(q.vertices)
    return frozenset(j for j, w in enumerate(ws)
                     if all(eg._idot(w, ys[i]) == dp * dq for i in vertex_indices))


# ---------------------------------------------------------------------------
# random rational hulls
# ---------------------------------------------------------------------------

fraction = st.builds(F, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def rational_hulls(draw, full=False):
    """A polytope in R^d, d in 1..4, with coordinates over denominators up
    to 6: the hull of points drawn in R^k, k <= d, each coordinate past the
    k-th a rational affine function of the first k, so the hull lies in a
    k-flat (and lower when the points are few or dependent).  With `full`,
    k = d and there are at least d + 1 points."""
    d = draw(st.integers(1, 4))
    k = d if full else draw(st.integers(1, d))
    pts = draw(st.lists(st.tuples(*[fraction] * k), min_size=k + 1 if full else 1,
                        max_size=6 if k < 4 else 5, unique=True))
    maps = draw(st.lists(st.tuples(*[fraction] * (k + 1)),
                         min_size=d - k, max_size=d - k))
    raw = [x + tuple(sum(a * c for a, c in zip(m, x)) + m[-1] for m in maps)
           for x in pts]
    return Polytope(tuple(extreme_points([vec(*x) for x in raw])))


def mask(indices):
    return sum(1 << i for i in indices)


@settings(max_examples=60, deadline=None)
@given(rational_hulls(), st.lists(st.integers(0, 5), min_size=1), st.integers(0))
def test_carriers_and_dimensions_match_the_grid(p, picks, pick):
    """The face route's carrier inside a face, on the rays, equals the grid
    carrier with `hull_rows`; the rank of any vertices' rays, less one,
    equals the rank of their grid differences."""
    n = len(p.vertices)
    d, grid = eg.point_grid(p.vertices)
    rays = p._vertex_rays
    assert all(r[-1] > 0 and r == eg._iprimitive(r) for r in rays)
    assert [F(a, r[-1]) for r in rays for a in r[:-1]] == [c for v in p.vertices for c in v]
    idx = tuple(sorted({i % n for i in picks}))
    assert pt._hull_dim(rays, idx) == grid_dim(grid, idx)
    rows = grid_hull_rows(grid)
    faces = [f for f in exposed_face_lattice(p).elements if f.vertex_indices]
    g = faces[pick % len(faces)]
    key = sorted({g.vertex_indices[i % len(g.vertex_indices)] for i in picks})
    want = grid_carrier_in_face(grid, rows, mask(g.vertex_indices), mask(key))
    assert pt._carrier_in_face(rays, mask(g.vertex_indices), mask(key)) == want
    whole = mask(range(n))
    assert (pt._carrier_in_face(rays, whole, mask(idx))
            == grid_carrier_in_face(grid, rows, whole, mask(idx)))


@settings(max_examples=60, deadline=None)
@given(rational_hulls(), st.lists(st.tuples(*[fraction] * 4), min_size=1, max_size=4))
def test_support_matches_the_grid(p, directions):
    """Support value and exposed face by cross-multiplication on the rays
    equal the maximum on the grid."""
    for u in directions:
        u = vec(*u[:p.ambient_dim])
        if eg.is_zero(u):
            continue
        h, face = pt.support(p, u)
        assert (h, face.vset) == grid_support(p, u)


@settings(max_examples=60, deadline=None)
@given(rational_hulls())
def test_centroids_and_samples_match_the_grid(p):
    """Centroids and relative-interior samples, mixed over the lcm of a
    face's own denominators, equal the grid's, on every face and on the
    whole vertex set."""
    for f in exposed_face_lattice(p).elements[1:]:
        assert p._centroid(f.vertex_indices) == grid_centroid(p, f.vertex_indices)
        assert p.ri_samples(f) == grid_ri_samples(p, f.vertex_indices)
        assert f.dim == grid_dim(eg.point_grid(p.vertices)[1], f.vertex_indices)


@settings(max_examples=40, deadline=None)
@given(rational_hulls(), st.lists(st.tuples(*[fraction] * 4), max_size=3))
def test_normal_cones_at_points_match_the_grid(p, others):
    """N(p, x) from the rows n_j*e - xs*c_j equals the cone from the grid
    rows, at every vertex, at each face's centroid and at drawn points, and
    a point off p is told apart in both."""
    xs = [*p.vertices, *(p._centroid(f.vertex_indices)
                         for f in exposed_face_lattice(p).elements[1:])]
    xs += [vec(*x[:p.ambient_dim]) for x in others]
    for x in xs:
        want = grid_normal_cone_at_point(p, x)
        if want is None:
            with pytest.raises(PointNotInBody):
                pt.normal_cone_at_point(p, x)
        else:
            cone = pt.normal_cone_at_point(p, x)
            assert (cone.rays, cone.lineality) == want


@settings(max_examples=30, deadline=None)
@given(rational_hulls(full=True))
def test_conjugate_faces_match_the_grid(p):
    """On a full-dimensional hull translated by its vertex centroid, the
    conjugate face from n_w.n_y = c_w*c_y equals the one from w.y = 1 on
    the two grids, for every face."""
    assume(p.dim == p.ambient_dim)
    c = [sum(col) / len(p.vertices) for col in zip(*p.vertices)]
    p = Polytope(tuple(vsub(v, c) for v in p.vertices))
    q = pt.polar(p)
    for f in exposed_face_lattice(p).elements:
        assert pt.conjugate_face(p, f).vset == grid_conjugate_vset(p, q, f.vertex_indices)
