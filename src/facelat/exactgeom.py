"""Exact rational linear algebra and polyhedral-cone primitives (ambient dim <= 4).

Vectors, solutions and support values are `fractions.Fraction`s at the
boundary of this module, but the arithmetic inside runs on Python integers:
elimination is fraction-free (each row scaled to integers, rows combined as
p*row_i - f*row_r and divided by their gcd, Bareiss-style), the simplex keeps
an integer tableau, and `dot`/`primitive` work on numerators over a common
denominator.  Fractions are formed only for the results.  There is no
floating point anywhere.  Cones are kept in a canonical V-representation
(extreme rays modulo lineality, primitive integer scaling, sorted), so record
equality coincides with geometric equality.  Every conversion between an
H- and a V-description, of cones here and of polytopes in `polytope`, goes
through one integer double-description core, `double_description`, and the
faces of cones and polytopes come from one `intersection_closure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch

Vec = tuple[Fraction, ...]


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
    return all(x == 0 for x in a)


def zero(dim: int) -> Vec:
    return (Fraction(0),) * dim


def unit(dim: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def cross2(a: Vec, b: Vec) -> Fraction:
    """z-component of the 2D cross product."""
    return a[0] * b[1] - a[1] * b[0]


def perp2(a: Vec) -> Vec:
    """Rotate a 2D vector by +90 degrees."""
    return (-a[1], a[0])


def primitive(v: Vec) -> Vec:
    """Scale a nonzero vector to coprime integer coordinates, keeping direction."""
    ints = _scaled(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(Fraction(n // g) for n in ints)


def _scaled(row: Iterable[Fraction]) -> list[int]:
    """The row times the lcm of its denominators, as Python integers."""
    row = list(row)
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
    """Canonical basis of the span: primitive-scaled RREF rows."""
    rows = [v for v in vectors if not is_zero(v)]
    reduced, _ = rref(rows)
    return tuple(primitive(r) for r in reduced)


def kernel_basis(rows: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    """Canonical basis of {x : r . x = 0 for all rows r}.

    The same basis as `span_basis` of the kernel: one vector per free column
    of the RREF, scaled to integers by the lcm of the pivots, brought to RREF
    itself and made primitive, all in integers.
    """
    m = [_scaled(r) for r in rows]
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
    out = []
    for row, c in zip(basis, _eliminate(basis, reduced=True)):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        out.append(tuple(Fraction(a // g) for a in row))
    return tuple(out)


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


def in_span(basis: Sequence[Vec], x: Vec) -> bool:
    if is_zero(x):
        return True
    if not basis:
        return False
    return rank(list(basis) + [x]) == len(basis)


def orth_complement(basis: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    """Canonical basis of the orthogonal complement of span(basis) in R^dim."""
    return kernel_basis(list(basis), dim)


def subspace_intersection(b1: Sequence[Vec], b2: Sequence[Vec], dim: int) -> tuple[Vec, ...]:
    cons = list(orth_complement(b1, dim)) + list(orth_complement(b2, dim))
    return kernel_basis(cons, dim)


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


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace given by a basepoint and a canonical direction basis."""

    basepoint: Vec
    directions: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.directions)

    def contains(self, x: Vec) -> bool:
        return in_span(self.directions, vsub(x, self.basepoint))


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


def in_conv_hull(points: Sequence[Vec], x: Vec) -> bool:
    """Exact membership x in conv(points), by LP feasibility."""
    status, _, _ = simplex_max(
        [Fraction(0)] * len(points),
        _hull_rows(points), list(x) + [Fraction(1)])
    return status == "optimal"


def in_ri_conv_hull(points: Sequence[Vec], x: Vec) -> bool:
    """Exact membership x in ri(conv(points)).

    Uses the characterization of the relative interior of a finitely generated
    hull as the strictly positive convex combinations: maximizes the least
    admissible weight via one LP.
    """
    k = len(points)
    # variables mu_1..mu_k, t  with  lambda_i = mu_i + t
    rows = []
    dim = len(x)
    for d in range(dim):
        rows.append([p[d] for p in points] + [sum(p[d] for p in points)])
    rows.append([Fraction(1)] * k + [Fraction(k)])
    obj = [Fraction(0)] * k + [Fraction(1)]
    status, val, _ = simplex_max(obj, rows, list(x) + [Fraction(1)])
    return status == "optimal" and val > 0


def _hull_rows(points: Sequence[Vec]) -> list[list[Fraction]]:
    dim = len(points[0])
    rows = [[p[d] for p in points] for d in range(dim)]
    rows.append([Fraction(1)] * len(points))
    return rows


def hull_weight_support(points: Sequence[Vec], x: Vec,
                        known: Iterable[int] = ()) -> set[int]:
    """Indices that can carry positive weight in some convex combination for x.

    Empty set when x is not in the hull at all.  This is the carrier oracle of
    the face route: for the vertices of a polytope the result is the vertex set
    of the unique face containing x in its relative interior.  `known` names
    indices the caller already knows can be positive (for a centroid, the
    averaged points).

    The carrier is found by shrinking the unknown index set: maximize the total
    weight on the indices not yet known to be positive, add every index the
    optimal solution weights positively, and stop when the optimum is 0, which
    proves no remaining index can be positive.  That takes a few LPs, not one
    per index.
    """
    rows = _hull_rows(points)
    rhs = list(x) + [Fraction(1)]
    out = set(known)
    while True:
        obj = [Fraction(0 if j in out else 1) for j in range(len(points))]
        status, val, sol = simplex_max(obj, rows, rhs)
        if status != "optimal":
            return set()
        if val == 0:
            return out
        out.update(j for j, w in enumerate(sol) if w > 0)


# ---------------------------------------------------------------------------
# polyhedral cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyCone:
    """Finitely generated convex cone in canonical form.

    `rays` are the extreme-ray generators taken in the orthogonal complement
    of the lineality space, primitive and lexicographically sorted;
    `lineality` is the canonical (RREF) basis of the lineality space.  Two
    cones are equal iff their records are equal.
    """

    dim: int
    rays: tuple[Vec, ...]
    lineality: tuple[Vec, ...]

    @cached_property
    def span(self) -> tuple[Vec, ...]:
        return span_basis(list(self.rays) + list(self.lineality))

    @cached_property
    def span_perp(self) -> tuple[Vec, ...]:
        """Canonical basis of the orthogonal complement of the span."""
        return orth_complement(self.span, self.dim)

    @cached_property
    def facet_normals(self) -> tuple[Vec, ...]:
        """Outer facet normals within span: cone = {x in span : n.x <= 0}."""
        gens = self.generators()
        if not gens:
            return ()
        return _cone_facet_normals(gens, self.span)

    @cached_property
    def faces(self) -> tuple["PolyCone", ...]:
        """All nonempty faces, including the cone itself and its lineality space.

        The faces are the intersections of facets (the cone itself is the
        empty intersection), so their ray sets are the intersection closure
        of the facets' ray sets.  Each canonical form is read off directly:
        the same lineality space, and the extreme rays on those facets.
        """
        facets = [frozenset(r for r in self.rays if dot(n, r) == 0)
                  for n in self.facet_normals]
        faces = [PolyCone(self.dim, tuple(sorted(rays)), self.lineality)
                 for rays in intersection_closure(frozenset(self.rays), facets)]
        return tuple(sorted(faces, key=lambda f: (f.cone_dim, f.rays)))

    def generators(self) -> list[Vec]:
        gens = list(self.rays)
        for b in self.lineality:
            gens.append(b)
            gens.append(vneg(b))
        return gens

    @property
    def cone_dim(self) -> int:
        return len(self.span)

    @property
    def lineality_dim(self) -> int:
        return len(self.lineality)

    def is_subspace(self) -> bool:
        return not self.rays

    def in_span(self, x: Vec) -> bool:
        return all(dot(m, x) == 0 for m in self.span_perp)

    def contains(self, x: Vec) -> bool:
        if is_zero(x):
            return True
        if not self.in_span(x):
            return False
        return all(dot(n, x) <= 0 for n in self.facet_normals)

    def ri_contains(self, x: Vec) -> bool:
        if not self.in_span(x):
            return False
        return all(dot(n, x) < 0 for n in self.facet_normals)

    def ri_vector(self) -> Vec | None:
        """A vector in the relative interior; None only for the zero cone."""
        v = zero(self.dim)
        for r in self.rays:
            v = vadd(v, r)
        for b in self.lineality:
            v = vadd(v, b)
        return None if is_zero(v) else v

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


def double_description(eq_rows: Sequence[Vec], ineq_rows: Sequence[Vec],
                       dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Canonical (rays, lineality) of {x : e.x = 0 for e in eq_rows, a.x <= 0
    for a in ineq_rows}.

    The lineality space is the kernel of all rows; in W = ker(eq_rows) cap
    lineality-perp the cone is pointed.  Its extreme rays, in integer
    coordinates along a basis of W, come from the incremental double
    description method (Fukuda & Prodon 1996): start from the simplicial cone
    of w = dim W independent rows, add the other rows one at a time, and
    combine each pair of rays the new row separates if they are adjacent,
    that is, if no third ray vanishes on every processed row both vanish on
    (zero sets are int bitmasks).
    """
    lin = kernel_basis([*eq_rows, *ineq_rows], dim)
    basis = [_scaled(b) for b in kernel_basis([*eq_rows, *lin], dim)]
    w = len(basis)
    if w == 0:
        return (), lin
    rows = [[_idot(a, b) for b in basis] for a in map(_scaled, ineq_rows)]
    # the first w independent rows S exist as the cone is pointed in W; the
    # rays -A_S^-1 e_j of {A_S y <= 0} come from Gauss-Jordan on (A_S | I),
    # after which row k is p_k times (e_k | row k of the inverse)
    start = _eliminate([list(col) for col in zip(*rows)], reduced=False)
    inv = [rows[i] + [int(j == k) for k in range(w)] for j, i in enumerate(start)]
    _eliminate(inv, reduced=True)
    scale = lcm(*(row[k] for k, row in enumerate(inv)))
    rays = [([-row[w + j] * (scale // row[k]) for k, row in enumerate(inv)],
             sum(1 << k for k in start if k != i)) for j, i in enumerate(start)]
    for i, a in enumerate(rows):
        if i in start:
            continue
        vals = [_idot(a, r) for r, _ in rays]
        pos = [k for k, v in enumerate(vals) if v > 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        new = []
        for p, q in product(pos, neg):
            common = rays[p][1] & rays[q][1]
            if common.bit_count() < w - 2 or any(z & common == common for k, (_, z)
                                                 in enumerate(rays) if k not in (p, q)):
                continue  # not adjacent
            r = [vals[p] * y - vals[q] * x for x, y in zip(rays[p][0], rays[q][0])]
            g = gcd(*r)
            new.append(([x // g for x in r], common | 1 << i))
        rays = [(r, (z | 1 << i) if v == 0 else z)
                for (r, z), v in zip(rays, vals) if v <= 0] + new
    out = [primitive([_idot(r, col) for col in zip(*basis)]) for r, _ in rays]
    return tuple(sorted(out)), lin


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


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


def _cone_facet_normals(gens: Sequence[Vec], span: Sequence[Vec]) -> tuple[Vec, ...]:
    """Facet normals of pos(gens) inside its span: the extreme rays of the
    dual {u in span : g.u <= 0 for all g}, which is pointed there."""
    dim = len(gens[0])
    return double_description(orth_complement(span, dim), gens, dim)[0]


def pos_hull(generators: Iterable[Vec], dim: int | None = None) -> PolyCone:
    """Canonical positive hull; pos() of the empty set is the zero cone."""
    gens = [tuple(Fraction(c) for c in g) for g in generators]
    gens = [g for g in gens if not is_zero(g)]
    if dim is None:
        if not gens:
            raise ValueError("ambient dimension required for an empty generator list")
        dim = len(gens[0])
    if not gens:
        return PolyCone(dim, (), ())
    span = span_basis(gens)
    return cone_from_hrep(span, _cone_facet_normals(gens, span), dim)


def cone_from_hrep(span: Sequence[Vec], normals: Sequence[Vec], dim: int) -> PolyCone:
    """Cone {x in span(span) : n.x <= 0 for all n}, canonicalized."""
    return PolyCone(dim, *double_description(orth_complement(span, dim), normals, dim))


def dual_cone(k: PolyCone) -> PolyCone:
    """Polar dual {u : u.x <= 0 on k}, exactly."""
    return PolyCone(k.dim, *double_description((), k.generators(), k.dim))


def cone_faces(k: PolyCone) -> list[PolyCone]:
    """All nonempty faces of k, including k itself and its lineality space."""
    return list(k.faces)


def intersect_cones(a: PolyCone, b: PolyCone) -> PolyCone:
    """Exact intersection of two cones."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return PolyCone(a.dim, *double_description(
        a.span_perp + b.span_perp, a.facet_normals + b.facet_normals, a.dim))


def minkowski_sum_cone(a: PolyCone, b: PolyCone) -> PolyCone:
    return pos_hull(a.generators() + b.generators(), a.dim)


def subspace_cone(basis: Sequence[Vec], dim: int) -> PolyCone:
    """The subspace span(basis) as a canonical cone: no rays, lineality = span."""
    return PolyCone(dim, (), span_basis(tuple(Fraction(c) for c in v) for v in basis))


def full_space(dim: int) -> PolyCone:
    return subspace_cone([unit(dim, i) for i in range(dim)], dim)


def zero_cone(dim: int) -> PolyCone:
    return PolyCone(dim, (), ())


def ri_contains(shape, x: Vec) -> bool:
    """Relative-interior membership for a PolyCone or a vertex list (polytope)."""
    if isinstance(shape, PolyCone):
        if shape.dim != len(x):
            raise DimensionMismatch("point and cone dimensions differ")
        return shape.ri_contains(x)
    points = [tuple(Fraction(c) for c in p) for p in shape]
    if points and len(points[0]) != len(x):
        raise DimensionMismatch("point and hull dimensions differ")
    return in_ri_conv_hull(points, x)
