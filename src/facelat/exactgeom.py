"""Exact rational linear algebra and polyhedral-cone primitives (ambient dim <= 4).

Two kinds of vector cross this module's boundary.  Points, solutions and
support values are `fractions.Fraction`s (`Vec`), and so is every result of
the public kernel helpers (`rref`, `span_basis`, `kernel_basis`,
`solve_linear`, `simplex_max`, `dot`, `primitive`, `project_onto`).
`in_conv_hull`, `hull_weight_support`, `aff_hull`, `cone_from_hrep` and
`dual_cone` have no caller in the library: they are public references the
tests hold its routes to (README, "Python API").  Canonical vectors are
tuples of Python `int`s (`IVec`): the rays, lineality and facet normals of
a cone, its span and perp bases, the facet normals of a polytope, and every
direction the planar layer builds.  `Fraction(n) == n`,
`hash(Fraction(n)) == hash(n)` and both print alike, so keys, order and
labels do not depend on the type, and every predicate accepts either.

The arithmetic inside runs on Python integers: elimination is fraction-free
(each row scaled to integers, rows combined as p*row_i - f*row_r and divided
by their gcd, Bareiss-style), the simplex keeps an integer tableau, `dot` and
`primitive` work on numerators over a common denominator, the cone predicates
read a sign off an integer dot product, and the 2D predicates
`orient2`/`dot2_sign` return the sign of one cross or dot product, exact on
ints and on Fractions alike.  There is no floating point anywhere.  Cones
are kept in a canonical V-representation (extreme rays modulo lineality,
primitive integer scaling, sorted), so record equality coincides with
geometric equality.  Every conversion between an
H- and a V-description, of cones here and of polytopes in `polytope`, goes
through one integer double-description loop, `_insert_rows`, started from a
simplicial cone (`double_description`, on top of one integer kernel,
`_ikernel`) or from a pointed cone already known (`_seeded_description`,
from a `Seed`); the faces of cones and polytopes come from
one `intersection_closure`.  A `ConeTable`, owned by a body and passed in by
the caller, interns canonical cones and memoises the core's conversions;
without one, nothing is cached beyond the properties of each `PolyCone`
instance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import countOf, mul
from typing import Iterable, NamedTuple, Sequence

from ._records import Frozen, Record, setfield
from .errors import DimensionMismatch

Vec = tuple[Fraction, ...]  # a point, direction or solution
IVec = tuple[int, ...]      # a canonical vector: primitive, integer coordinates

_INT = frozenset({int})


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------

def vec(*coords) -> Vec:
    """Build an exact rational vector; accepts ints, Fractions and strings."""
    return tuple(Fraction(c) for c in coords)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(t, a: Vec) -> Vec:
    t = Fraction(t)
    return tuple(t * x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    num = 0
    for x, y in zip(a, b, strict=True):
        if x.denominator != 1 or y.denominator != 1:
            return _dot_rational(a, b)
        num += x.numerator * y.numerator
    return Fraction(num)


def _dot_rational(a: Vec, b: Vec) -> Fraction:
    """`dot` when some denominator is not 1: numerators over a running lcm."""
    num, den = 0, 1
    for x, y in zip(a, b, strict=True):
        tn, td = x.numerator * y.numerator, x.denominator * y.denominator
        if td != den:
            new = lcm(den, td)
            num, tn, den = num * (new // den), tn * (new // td), new
        num += tn
    return Fraction(num, den)


def is_zero(a: Vec) -> bool:
    # an int or a Fraction is false exactly when it is 0; ints test in C
    return not any(a)


def zero(dim: int) -> Vec:
    return (Fraction(0),) * dim


def unit(dim: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def orient2(a: Vec, b: Vec) -> int:
    """Sign of the 2D cross product a0*b1 - a1*b0: 1 when b lies
    counterclockwise of a, -1 clockwise, 0 when they are parallel."""
    a0, a1 = a
    b0, b1 = b
    c = a0 * b1 - a1 * b0
    return (c > 0) - (c < 0)


def dot2_sign(a: Vec, b: Vec) -> int:
    """Sign of the 2D dot product a0*b0 + a1*b1."""
    a0, a1 = a
    b0, b1 = b
    c = a0 * b0 + a1 * b1
    return (c > 0) - (c < 0)


def perp2(a: Vec) -> Vec:
    """Rotate a 2D vector by +90 degrees."""
    return (-a[1], a[0])


def primitive(v: Vec) -> Vec:
    """Scale a nonzero vector to coprime integer coordinates, keeping direction."""
    return tuple(Fraction(n) for n in _iprimitive(_scaled(v)))


def _iprimitive(ints: Sequence[int]) -> IVec:
    """`primitive` of an integer vector, as ints."""
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(n // g for n in ints)


def _scaled(row: Iterable[Fraction]) -> list[int]:
    """The row times the lcm of its denominators, as Python integers; a row
    of ints comes back as they are."""
    row = list(row)
    if set(map(type, row)) <= _INT:
        return row
    dens = [x.denominator for x in row]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // d) for x, d in zip(row, dens)]


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _eliminate(m: list[list[int]], reduced: bool) -> list[int]:
    """Fraction-free row reduction of the integer rows m, in place.

    Clearing column c of row i against pivot row r is row_i <- p*row_i -
    f*row_r (p the pivot, f the entry of row i), then division by the gcd of
    the row; both only rescale rows of the exact elimination, so no fraction
    is ever formed.  Returns the pivot columns; the first len(pivots) rows of
    m are then the pivot rows, in order.  With `reduced` the rows above each
    pivot are cleared too, so the pivot rows are an integer multiple of the
    RREF; without it they are an echelon form, enough for the rank.
    """
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(0 if reduced else r + 1, nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = _combine(p, m[i], f, prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _combine(p: int, row: list[int], f: int, prow: list[int]) -> list[int]:
    """p*row - f*prow divided by the gcd of its entries: the entry f of row
    cleared against the pivot p of prow, without forming a fraction."""
    new = [p * a - f * b for a, b in zip(row, prow)]
    g = gcd(*new)
    return [a // g for a in new] if g > 1 else new


def rref(rows: Sequence[Vec]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns the nonzero rows and pivot columns.

    Row scaling does not change the RREF, so each row is scaled to integers
    and eliminated fraction-free; only the final division of each pivot row
    by its pivot forms Fractions.
    """
    m = [_scaled(r) for r in rows]
    pivots = _eliminate(m, reduced=True)
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        out.append(tuple(Fraction(a, p) for a in row))
    return out, pivots


def rank(rows: Sequence[Vec]) -> int:
    return len(_eliminate([_scaled(r) for r in rows], reduced=False))


def span_basis(vectors: Iterable[Vec]) -> tuple[Vec, ...]:
    """Canonical basis of the span, the primitive-scaled RREF rows: `_ispan`
    of the nonzero vectors scaled to integers, as Fractions."""
    rows = [_scaled(v) for v in vectors if not is_zero(v)]
    return tuple(tuple(Fraction(a) for a in r) for r in _ispan(rows))


def kernel_basis(rows: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    """Canonical basis of {x : r . x = 0 for all rows r}: `_ikernel` of the
    rows scaled to integers, as Fractions."""
    return tuple(tuple(Fraction(a) for a in v)
                 for v in _ikernel([_scaled(r) for r in rows], dim))


def _ikernel(rows: Sequence[Sequence[int]], dim: int) -> tuple[IVec, ...]:
    """Canonical basis of the kernel of the integer rows, as ints: the same
    basis as `span_basis` of the kernel, `_kernel_vectors` brought to the
    canonical form of `_ispan`."""
    return _ispan(_kernel_vectors(rows, dim))


def _kernel_vectors(rows: Sequence[Sequence[int]], dim: int) -> list[list[int]]:
    """A basis of the kernel of the integer rows, not canonical: one vector
    per free column of the RREF, scaled to integers by the lcm of the pivots."""
    m = list(rows)
    pivots = _eliminate(m, reduced=True)
    scale = lcm(*(row[c] for row, c in zip(m, pivots)))
    basis = []
    for c in range(dim):
        if c in pivots:
            continue
        v = [0] * dim
        v[c] = scale
        for row, p in zip(m, pivots):
            v[p] = -row[c] * (scale // row[p])
        basis.append(v)
    return basis


def _ispan(rows: Sequence[Sequence[int]]) -> tuple[IVec, ...]:
    """Canonical basis of the span of the integer rows, as ints: the RREF
    rows made primitive, which keeps each pivot positive."""
    m = list(rows)
    out = []
    for row, c in zip(m, _eliminate(m, reduced=True)):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        out.append(tuple(a // g for a in row))
    return tuple(out)


def _perp(basis: Sequence[Vec], dim: int) -> tuple[IVec, ...]:
    """A canonical integer basis of the orthogonal complement of span(basis)
    in R^dim, for rational or integer basis vectors."""
    return _ikernel([_scaled(b) for b in basis], dim)


def solve_linear(rows: Sequence[Vec], rhs: Sequence[Fraction]) -> Vec | None:
    """One solution of rows . x = rhs, or None if inconsistent."""
    if not rows:
        return None
    dim = len(rows[0])
    m = [_scaled(list(r) + [b]) for r, b in zip(rows, rhs, strict=True)]
    pivots = _eliminate(m, reduced=True)
    if dim in pivots:
        return None
    x = [Fraction(0)] * dim
    for row, p in zip(m, pivots):
        x[p] = Fraction(row[dim], row[p])
    return tuple(x)


def project_onto(basis: Sequence[Vec], x: Vec) -> Vec:
    """Orthogonal projection of x onto span(basis); x - result is perpendicular."""
    if not basis:
        return zero(len(x))
    gram = [tuple(dot(bi, bj) for bj in basis) for bi in basis]
    rhs = [dot(bi, x) for bi in basis]
    alpha = solve_linear(gram, rhs)
    out = zero(len(x))
    for a, b in zip(alpha, basis):
        out = vadd(out, vscale(a, b))
    return out


class AffineSubspace(Frozen):
    """Affine subspace given by a basepoint and a canonical direction basis."""

    _fields = ("basepoint", "directions")

    def __init__(self, basepoint: Vec, directions: tuple[Vec, ...]):
        setfield(self, "basepoint", basepoint)
        setfield(self, "directions", directions)

    @property
    def dim(self) -> int:
        return len(self.directions)


def aff_hull(points: Sequence[Vec]) -> AffineSubspace:
    if not points:
        raise ValueError("affine hull of no points")
    p0 = points[0]
    return AffineSubspace(p0, span_basis(vsub(p, p0) for p in points[1:]))


# ---------------------------------------------------------------------------
# exact linear programming (small dense simplex, Bland's rule)
# ---------------------------------------------------------------------------

def simplex_max(obj: Sequence[Fraction], a_eq: Sequence[Sequence[Fraction]],
                b_eq: Sequence[Fraction]) -> tuple[str, Fraction | None, Vec | None]:
    """Maximize obj . x subject to a_eq x = b_eq, x >= 0, exactly.

    Returns ("infeasible", None, None), ("unbounded", None, None) or
    ("optimal", value, x).  Bland's rule guarantees termination.

    The tableau holds integers: row i stands for itself divided by its entry
    in the basic column basis[i], which is kept positive.  Phase 1 starts from
    artificial variables n..n+m-1 on the rows with nonnegative right-hand
    sides, artificials left basic at value 0 are pivoted out, and phase 2
    maximizes obj on what remains.
    """
    m, n = len(a_eq), len(obj)
    tab = []
    for i in range(m):
        ints = _scaled([*a_eq[i], b_eq[i], 1])
        scale = ints.pop()  # the artificial variable's coefficient
        if ints[-1] < 0:
            ints = [-v for v in ints]
        tab.append(ints[:n] + [scale if j == i else 0 for j in range(m)] + ints[n:])
    basis = [n + i for i in range(m)]
    tab.append(_reduced_costs([0] * n + [1] * m, tab, basis))
    _bland(tab, basis, n + m)
    tab.pop()
    if any(tab[i][-1] > 0 for i in range(m) if basis[i] >= n):
        return "infeasible", None, None
    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    # phase 2: minimize -obj
    tab.append(_reduced_costs([-c for c in _scaled(obj)], tab, basis))
    if not _bland(tab, basis, n):
        return "unbounded", None, None
    tab.pop()
    x = [Fraction(0)] * n
    for row, b in zip(tab, basis):
        x[b] = Fraction(row[-1], row[b])
    return "optimal", dot(obj, x), tuple(x)


def _reduced_costs(cost: list[int], tab: list[list[int]], basis: list[int]) -> list[int]:
    """A positive integer multiple of the reduced-cost row (rhs entry included)
    of the integer costs `cost`, for the basic rows of `tab`."""
    den = lcm(*(row[b] for row, b in zip(tab, basis)))
    z = [den * c for c in cost] + [0]
    for row, b in zip(tab, basis):
        if cost[b]:
            f = cost[b] * (den // row[b])
            z = [a - f * w for a, w in zip(z, row)]
    return z


def _bland(tab: list[list[int]], basis: list[int], ncols: int) -> bool:
    """Minimize over the tableau whose last row is the reduced-cost row.

    Bland's rule: the first column with a negative reduced cost enters; the
    leaving row has the least ratio rhs/entry over positive entries (compared
    by cross-multiplication), ties going to the smallest basic index.  False
    when the objective is unbounded.
    """
    while True:
        z = tab[-1]
        col = next((j for j in range(ncols) if z[j] < 0), None)
        if col is None:
            return True
        row = None
        for i, b in enumerate(basis):
            t = tab[i]
            if t[col] > 0:
                if row is not None:
                    least = tab[row]
                    lhs, rhs = t[-1] * least[col], least[-1] * t[col]
                    if lhs > rhs or (lhs == rhs and b > basis[row]):
                        continue
                row = i
        if row is None:
            return False
        _pivot(tab, basis, row, col)


def _pivot(tab: list[list[int]], basis: list[int], row: int, col: int):
    """Make column col basic in row `row`; every other row of tab (the
    reduced-cost row too, when present) is cleared in column col."""
    prow = tab[row]
    p = prow[col]
    if p < 0:  # keep the basic entry, the row's implicit scale, positive
        prow = tab[row] = [-a for a in prow]
        p = -p
    for i, t in enumerate(tab):
        f = t[col]
        if f and i != row:
            tab[i] = _combine(p, t, f, prow)
    basis[row] = col


def point_grid(points: Iterable[Sequence[Fraction]]) -> tuple[int, tuple[IVec, ...]]:
    """(d, grid): point i is grid[i]/d, over one common d, the lcm of every
    denominator."""
    points = list(points)
    d = lcm(*(x.denominator for v in points for x in v))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in v)
                    for v in points)


# The hull LP on rays.  Point j is n_j/c_j with its primitive ray
# r_j = (n_j, c_j), c_j > 0 (`_ray`), and the point asked about is xs/e.  Then
# x = sum lambda_j n_j/c_j with sum lambda_j = 1 becomes `sum mu_j r_j =
# (xs, e)` with mu_j = e*lambda_j/c_j: the columns are the rays, and scaling
# each weight by a positive factor changes no sign, so the support and the
# sign of every optimum are those of the convex combinations themselves.

def _ray(x: Sequence[Fraction]) -> IVec:
    """The primitive ray (x*e, e) of a rational point x, e > 0 the lcm of
    its denominators."""
    e = lcm(*[c.denominator for c in x])
    return (*[c.numerator * (e // c.denominator) for c in x], e)


def _hull_system(points: Sequence[Vec], x: Vec) -> tuple[list[list[int]], list[int]]:
    """The rows and the right-hand side of x in conv(points): the points'
    rays as columns, x's ray on the right."""
    if len(x) != len(points[0]):
        raise DimensionMismatch("point and hull dimensions differ")
    return [list(row) for row in zip(*map(_ray, points))], list(_ray(x))


def in_conv_hull(points: Sequence[Vec], x: Vec) -> bool:
    """Exact membership x in conv(points), by LP feasibility; conv of no
    points is empty."""
    if not points:
        return False
    rows, rhs = _hull_system(points, x)
    status, _, _ = simplex_max([0] * len(points), rows, rhs)
    return status == "optimal"


def in_ri_conv_hull(points: Sequence[Vec], x: Vec) -> bool:
    """Exact membership x in ri(conv(points)).

    Uses the characterization of the relative interior of a finitely generated
    hull as the strictly positive convex combinations: maximizes the least
    admissible weight via one LP.  conv of no points is empty.
    """
    if not points:
        return False
    rows, rhs = _hull_system(points, x)
    status, val, _ = _least_weight(rows, rhs, range(len(points)))
    return status == "optimal" and val > 0


def _least_weight(rows: list[list[int]], rhs: list[int],
                  unknown: Sequence[int]) -> tuple[str, Fraction | None, Vec | None]:
    """The least-weight LP: maximize t over the weights with
    rows . lambda = rhs (the hull LP on rays) and lambda_j = mu_j + t on the
    indices `unknown`; its variables are the weights (mu_j there), then t."""
    least = [row + [sum(row[j] for j in unknown)] for row in rows]
    return simplex_max([0] * len(rows[0]) + [1], least, rhs)


def hull_weight_support(points: Sequence[Vec], x: Vec,
                        known: Iterable[int] = ()) -> set[int]:
    """Indices that can carry positive weight in some convex combination for x.

    Empty set when x is not in the hull at all.  For the vertices of a
    polytope the result is the vertex set of the unique face containing x in
    its relative interior.  The point-set front end of `hull_carrier`, kept
    for the tests and the benchmark tracer: the face route calls
    `hull_carrier` on the vertex rays directly.  `known` names indices the
    caller already knows can be positive (for a centroid, the averaged
    points).  The LPs are `hull_carrier`'s, on the rays of the points and x.
    """
    return hull_carrier(*_hull_system(points, x), known) if points else set()


def hull_carrier(rows: list[list[int]], rhs: list[int],
                 known: Iterable[int] = ()) -> set[int]:
    """`hull_weight_support` on the integer hull LP rows . lambda = rhs, the
    rays of the points as columns: the columns some feasible lambda >= 0
    weights positively.

    The first LP maximizes the least weight on the indices not yet known to
    be positive (lambda_j = mu_j + t there, as in `in_ri_conv_hull`).  If
    t > 0, every index is in the carrier, the common case when the carrier is
    a large face.  Otherwise the indices that optimum weights positively join
    the known ones, and the carrier is found by shrinking the unknown index
    set: maximize the total weight on the indices not yet known to be
    positive, add every index the optimal solution weights positively, and
    stop when the optimum is 0, which proves no remaining index can be
    positive.  That takes a few LPs, not one per index.
    """
    out = set(known)
    n = len(rows[0])
    unknown = [j for j in range(n) if j not in out]
    if unknown:
        status, val, sol = _least_weight(rows, rhs, unknown)
        if status != "optimal":
            return set()
        if val > 0:
            return set(range(n))
        out.update(j for j in range(n) if sol[j] > 0)
    while True:
        obj = [0 if j in out else 1 for j in range(n)]
        status, val, sol = simplex_max(obj, rows, rhs)
        if status != "optimal":
            return set()
        if val == 0:
            return out
        out.update(j for j, w in enumerate(sol) if w > 0)


# ---------------------------------------------------------------------------
# polyhedral cones
# ---------------------------------------------------------------------------

class PolyCone(Frozen):
    """Finitely generated convex cone in canonical form.

    `rays` are the extreme-ray generators taken in the orthogonal complement
    of the lineality space, primitive and lexicographically sorted;
    `lineality` is the canonical (RREF) basis of the lineality space.  Both
    hold int vectors, as do the span bases and facet normals below.  Two
    cones are equal iff their records are equal.
    """

    _fields = ("dim", "rays", "lineality")

    def __init__(self, dim: int, rays: tuple[IVec, ...], lineality: tuple[IVec, ...],
                 table: ConeTable | None = None):
        setfield(self, "dim", dim)
        setfield(self, "rays", rays)
        setfield(self, "lineality", lineality)
        # the table that interned this cone, if any: the cones and conversions
        # its cached properties build go through it too; it is not compared
        setfield(self, "table", table)

    @cached_property
    def span(self) -> tuple[IVec, ...]:
        return _ispan([_scaled(r) for r in (*self.rays, *self.lineality)])

    @cached_property
    def span_perp(self) -> tuple[IVec, ...]:
        """Canonical basis of the orthogonal complement of the span."""
        return _ikernel(self.span, self.dim)

    @cached_property
    def facet_normals(self) -> tuple[IVec, ...]:
        """Outer facet normals within span: cone = {x in span : n.x <= 0}."""
        gens = self.generators()
        if not gens:
            return ()
        return _cone_facet_normals(gens, self.span, self.table)

    @cached_property
    def seed(self) -> "Seed":
        """This cone, if pointed, as a start for the double description."""
        if self.lineality:
            raise ValueError("a cone with a lineality space is no seed")
        normals = self.facet_normals
        return Seed(tuple((r, sum(1 << j for j, n in enumerate(normals) if not _idot(n, r)))
                          for r in self.rays), self.cone_dim, len(normals))

    @cached_property
    def faces(self) -> tuple["PolyCone", ...]:
        """All nonempty faces, including the cone itself and its lineality space.

        The faces are the intersections of facets (the cone itself is the
        empty intersection), so their ray sets are the intersection closure
        of the facets' ray sets.  Each canonical form is read off directly:
        the same lineality space, and the extreme rays on those facets.
        """
        facets = [frozenset(r for r in self.rays if not _idot(n, r))
                  for n in self.facet_normals]
        faces = [_cone(self.table, self.dim, tuple(sorted(rays)), self.lineality)
                 for rays in intersection_closure(frozenset(self.rays), facets)]
        return tuple(sorted(faces, key=lambda f: (f.cone_dim, f.rays)))

    def generators(self) -> list[IVec]:
        gens = list(self.rays)
        for b in self.lineality:
            gens.append(b)
            gens.append(vneg(b))
        return gens

    @property
    def cone_dim(self) -> int:
        return len(self.span)

    def is_subspace(self) -> bool:
        return not self.rays

    # The predicates scale x once to integers (a positive multiple, so every
    # sign is kept) and read each sign off an integer dot product.

    def _ints(self, x: Vec) -> Sequence[int]:
        if len(x) != self.dim:
            raise DimensionMismatch("point and cone dimensions differ")
        # an int vector, such as a generator of a cone, is used as it is
        return x if _INT.issuperset(map(type, x)) else _scaled(x)

    def _in_span(self, xs: Sequence[int]) -> bool:
        return not any(_idot(m, xs) for m in self.span_perp)

    def contains(self, x: Vec) -> bool:
        xs = self._ints(x)
        return self._in_span(xs) and all(_idot(n, xs) <= 0 for n in self.facet_normals)

    def ri_contains(self, x: Vec) -> bool:
        xs = self._ints(x)
        return self._in_span(xs) and all(_idot(n, xs) < 0 for n in self.facet_normals)

    def ri_vector(self) -> IVec | None:
        """A vector in the relative interior; None only for the zero cone."""
        v = tuple(sum(c) for c in zip(*self.rays, *self.lineality))
        return v if any(v) else None

    def is_face_of(self, other: "PolyCone") -> bool:
        return self in other.faces

    def label(self) -> str:
        if not self.rays and not self.lineality:
            return "{0}"
        parts = []
        if self.lineality:
            parts.append("lin<" + ", ".join(_fmt_vec(b) for b in self.lineality) + ">")
        if self.rays:
            parts.append("pos{" + ", ".join(_fmt_vec(r) for r in self.rays) + "}")
        return " + ".join(parts)


def _fmt_vec(v: Vec) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


class ConeTable(Record):
    """The canonical cones of one body family and the conversions behind them.

    Hash-consing (Filliatre & Conchon 2006): `cones` maps each canonical key
    (dim, rays, lineality) to its single `PolyCone`, bound to this table, so
    the facet normals, faces and span cached on it are computed once per
    cone and the cones they build are interned here too.  `conversions`
    memoises `double_description` by its integer input rows.  A `Polytope`
    owns one table and shares it with the bodies derived from it, so the
    table lives exactly as long as that family; no table is process-global.
    Tables compare by identity.
    """

    _fields = ("cones", "conversions")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, cones: dict[tuple, PolyCone] | None = None,
                 conversions: dict[tuple, tuple[tuple[IVec, ...], tuple[IVec, ...]]]
                 | None = None):
        self.cones = {} if cones is None else cones
        self.conversions = {} if conversions is None else conversions


def _cone(table: ConeTable | None, dim: int, rays: tuple[IVec, ...],
          lineality: tuple[IVec, ...]) -> PolyCone:
    """The canonical cone (rays, lineality), interned in `table` when given."""
    if table is None:
        return PolyCone(dim, rays, lineality)
    key = (dim, rays, lineality)
    k = table.cones.get(key)
    if k is None:
        k = table.cones[key] = PolyCone(dim, rays, lineality, table)
    return k


def double_description(eq_rows: Sequence[Vec], ineq_rows: Sequence[Vec], dim: int,
                       table: ConeTable | None = None
                       ) -> tuple[tuple[IVec, ...], tuple[IVec, ...]]:
    """Canonical (rays, lineality) of {x : e.x = 0 for e in eq_rows, a.x <= 0
    for a in ineq_rows}, as int vectors; the rows may be rational or integer.
    With a `table`, memoised there by the rows scaled to integers, which
    determine the result."""
    eqs = tuple(tuple(_scaled(e)) for e in eq_rows)
    ineqs = tuple(tuple(_scaled(a)) for a in ineq_rows)
    if table is None:
        return _double_description(eqs, ineqs, dim)
    key = (dim, eqs, ineqs)
    out = table.conversions.get(key)
    if out is None:
        out = table.conversions[key] = _double_description(eqs, ineqs, dim)
    return out


def _double_description(eqs: tuple[tuple[int, ...], ...],
                        ineqs: tuple[tuple[int, ...], ...], dim: int
                        ) -> tuple[tuple[IVec, ...], tuple[IVec, ...]]:
    """`double_description` on integer rows, computed from nothing.

    The lineality space is the kernel of all rows; in W = ker(eqs) cap
    lineality-perp the cone is pointed.  Its extreme rays, in integer
    coordinates along a basis of W, come from the incremental double
    description method (Fukuda & Prodon 1996): start from the simplicial cone
    of w = dim W independent rows and add the other rows one at a time
    (`_insert_rows`).

    The lineality output is canonical; W needs only some basis, since the
    extreme rays, mapped back to R^dim and made primitive, do not depend on
    it.  So W's basis is `_kernel_vectors` of (eqs, lin), and with neither
    (a pointed cone in the whole space) the rows are used as they are.
    """
    lin = _ikernel([*eqs, *ineqs], dim)
    if eqs or lin:
        basis = _kernel_vectors([*eqs, *lin], dim)
        w = len(basis)
        if w == 0:
            return (), lin
        rows = [[_idot(a, b) for b in basis] for a in ineqs]
    else:  # W is the whole space: no basis, and nothing to map back
        basis, w = None, dim
        rows = [list(a) for a in ineqs]
    # the first w independent rows S exist as the cone is pointed in W; the
    # rays -A_S^-1 e_j of {A_S y <= 0} come from Gauss-Jordan on (A_S | I),
    # after which row k is p_k times (e_k | row k of the inverse)
    start = _eliminate([list(col) for col in zip(*rows)], reduced=False)
    inv = [rows[i] + [int(j == k) for k in range(w)] for j, i in enumerate(start)]
    _eliminate(inv, reduced=True)
    scale = lcm(*(row[k] for k, row in enumerate(inv)))
    rays = [([-row[w + j] * (scale // row[k]) for k, row in enumerate(inv)],
             sum(1 << k for k in start if k != i)) for j, i in enumerate(start)]
    skip = set(start)
    rays = _insert_rows(rays, [(i, a) for i, a in enumerate(rows) if i not in skip], w)
    if basis is not None:
        rays = [([_idot(r, col) for col in zip(*basis)], z) for r, z in rays]
    return tuple(sorted(_iprimitive(r) for r, _ in rays)), lin


class Seed(NamedTuple):
    """A pointed cone to start the double description from: its extreme rays
    with their zero sets over its facet rows (its span-perp rows vanish on
    every ray and carry no bit), its dimension and its facet row count."""

    rays: tuple[tuple[IVec, int], ...]
    dim: int
    rows: int


def _seeded_description(seed: Seed, eqs: Sequence[Sequence[int]],
                        ineqs: Sequence[Sequence[int]]) -> tuple[IVec, ...]:
    """Canonical rays of {x in the seed cone : e.x = 0, a.x <= 0}, integer
    rows, which alone are added; a cut of a pointed cone has no lineality."""
    bit = seed.rows
    rays = _insert_rows(list(seed.rays), enumerate(eqs, bit), seed.dim, equality=True)
    rays = _insert_rows(rays, enumerate(ineqs, bit + len(eqs)), seed.dim)
    return tuple(sorted(_iprimitive(r) for r, _ in rays))


def _insert_rows(rays: list, rows: Iterable[tuple[int, Sequence[int]]], w: int,
                 equality: bool = False) -> list:
    """Cut the rays of a pointed cone of dimension at most w, (vector, zero
    set) pairs, by each (bit, row) in turn: by row.x <= 0, or by row.x = 0
    with `equality`.  Each pair the row separates gives a new ray on it if
    the two are adjacent: no third ray vanishes on every row both vanish on
    (zero sets are int bitmasks over the rows so far, at least w - 2 bits)."""
    for i, a in rows:
        vals = [_idot(a, r) for r, _ in rays]
        pos = [k for k, v in enumerate(vals) if v > 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        zs = [z for _, z in rays]
        new = []
        for p, q in product(pos, neg):
            common = zs[p] & zs[q]
            # p and q themselves are two of the rays vanishing on `common`
            if common.bit_count() < w - 2 or countOf(map(common.__and__, zs), common) > 2:
                continue  # not adjacent
            r = [vals[p] * y - vals[q] * x for x, y in zip(rays[p][0], rays[q][0])]
            g = gcd(*r)
            new.append(([x // g for x in r], common | 1 << i))
        if equality:
            rays = [(r, z | 1 << i) for (r, z), v in zip(rays, vals) if v == 0] + new
        else:
            rays = [(r, (z | 1 << i) if v == 0 else z)
                    for (r, z), v in zip(rays, vals) if v <= 0] + new
    return rays


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def intersection_closure(top, sets) -> set:
    """All intersections of `top` with some of `sets` (frozensets or int
    bitmasks), in O(#results * #sets) steps instead of one per subset:
    intersect each new result with each set until nothing new appears."""
    found = {top}
    todo = [top]
    while todo:
        s = todo.pop()
        for f in sets:
            t = s & f
            if t not in found:
                found.add(t)
                todo.append(t)
    return found


def _cone_facet_normals(gens: Sequence[Vec], span: Sequence[Vec],
                        table: ConeTable | None = None) -> tuple[IVec, ...]:
    """Facet normals of pos(gens) inside its span, given by any spanning
    set: the extreme rays of the dual {u in span : g.u <= 0 for all g},
    which is pointed there."""
    dim = len(gens[0])
    return double_description(_perp(span, dim), gens, dim, table)[0]


def pos_hull(generators: Iterable[Vec], dim: int | None = None,
             table: ConeTable | None = None) -> PolyCone:
    """Canonical positive hull; pos() of the empty set is the zero cone.

    Generators are scaled to integers (a positive multiple, so the cone is
    the same).  One conversion finds the facet normals, which seed the
    result's `facet_normals`; the rest is read off the facets each generator
    lies on.  Those on every facet span the lineality space L; any other g
    is extreme modulo L iff each other such h on all of g's facets (so in
    the smallest face holding g) is parallel to g modulo L.  The rays are
    the extreme generators' components orthogonal to L."""
    gens = list(map(_scaled, generators))
    if dim is None:
        if not gens:
            raise ValueError("ambient dimension required for an empty generator list")
        dim = len(gens[0])
    _check_dims(gens, dim)
    gens = [g for g in gens if any(g)]
    if not gens:
        return _cone(table, dim, (), ())
    # any spanning set of the span will do: only its perp is used
    normals = _cone_facet_normals(gens, gens, table)
    full = (1 << len(normals)) - 1
    masks = [sum(1 << j for j, n in enumerate(normals) if not _idot(n, g)) for g in gens]
    lin = _ispan([g for g, m in zip(gens, masks) if m == full])
    orth: list[list[int]] = []
    for b in lin:
        orth.append(_reject(b, orth))
    dirs = [(_iprimitive(_reject(g, orth)), m) for g, m in zip(gens, masks) if m != full]
    rays = {r for r, m in dirs if all(s == r for s, n in dirs if n & m == m)}
    k = _cone(table, dim, tuple(sorted(rays)), lin)
    k.__dict__.setdefault("facet_normals", normals)
    return k


def _reject(v: Sequence[int], orth: Sequence[Sequence[int]]) -> list[int]:
    """A positive multiple of the component of the integer vector v
    orthogonal to the mutually orthogonal integer vectors orth."""
    v = list(v)
    for o in orth:
        t = _idot(o, v)
        if t:
            s = _idot(o, o)
            v = [s * x - t * y for x, y in zip(v, o)]
    return v


def _check_dims(vectors: Iterable[Sequence], dim: int):
    if any(len(v) != dim for v in vectors):
        raise DimensionMismatch("vector and cone dimensions differ")


def cone_from_hrep(span: Sequence[Vec], normals: Sequence[Vec], dim: int,
                   table: ConeTable | None = None) -> PolyCone:
    """Cone {x in span(span) : n.x <= 0 for all n}, canonicalized."""
    _check_dims((*span, *normals), dim)
    return _cone(table, dim, *double_description(
        _perp(span, dim), normals, dim, table))


def dual_cone(k: PolyCone) -> PolyCone:
    """Polar dual {u : u.x <= 0 on k}, exactly, in k's table."""
    return _cone(k.table, k.dim, *double_description((), k.generators(), k.dim, k.table))


def cone_faces(k: PolyCone) -> list[PolyCone]:
    """All nonempty faces of k, including k itself and its lineality space."""
    return list(k.faces)


def intersect_cones(a: PolyCone, b: PolyCone) -> PolyCone:
    """Exact intersection of two cones, in the table of either: the other's
    span-perp and facet rows added to a pointed one's `seed`, or, when
    neither is pointed, the rows of both converted from nothing."""
    if a.dim != b.dim:
        raise DimensionMismatch("cone dimensions differ")
    table = a.table or b.table
    seed, other = (b, a) if a.lineality else (a, b)
    if seed.lineality:
        return _cone(table, a.dim, *double_description(
            a.span_perp + b.span_perp, a.facet_normals + b.facet_normals, a.dim, table))
    return _cone(table, a.dim, _seeded_description(seed.seed, other.span_perp,
                                                   other.facet_normals), ())


def minkowski_sum_cone(a: PolyCone, b: PolyCone) -> PolyCone:
    if a.dim != b.dim:
        raise DimensionMismatch("cone dimensions differ")
    return pos_hull(a.generators() + b.generators(), a.dim, a.table or b.table)


def subspace_cone(basis: Sequence[Vec], dim: int,
                  table: ConeTable | None = None) -> PolyCone:
    """The subspace span(basis) as a canonical cone: no rays, lineality = span."""
    _check_dims(basis, dim)
    return _cone(table, dim, (), _ispan([_scaled(v) for v in basis]))


def full_space(dim: int, table: ConeTable | None = None) -> PolyCone:
    return subspace_cone([[int(i == j) for j in range(dim)] for i in range(dim)],
                         dim, table)


def held_generators(cones: Sequence) -> list[int]:
    """Inclusion masks of cones (`PolyCone`s or planar `Cone2`s): bit g is set
    when the cone contains generator g of the family.  A cone is the positive
    hull of its own generators, so A lies in B exactly when mask A is a
    subset of mask B, for any cones and whatever fan they come from."""
    gens = list(dict.fromkeys(g for c in cones for g in c.generators()))
    return [sum(1 << i for i, g in enumerate(gens) if c.contains(g))
            for c in cones]

