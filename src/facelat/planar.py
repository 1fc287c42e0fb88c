"""Exact queries on planar convex bodies bounded by segments and circular arcs.

Bodies may be non-closed: whole boundary features and junction vertices can be
deleted as long as the remaining point set stays convex.  This is the regime
where non-exposed faces and touching cones that are not normal cones occur.

All decisions reduce to sign tests of rational cross/dot products or to exact
comparisons of values q + s*sqrt(m) with rational q, s, m, so arcs only need
rational centers and squared radii, with endpoints satisfying the circle
equation exactly.

Every direction this module builds is a primitive vector of Python ints: the
compass samples, segment normals, arc radials and the boundary rays of every
`Cone2`, and so the direction of each arc-point face.  Points and squared
radii stay `Fraction`s.  Support and gauge values are integer `Form`s
(P, R, E), the number (P + sqrt(R))/E: `support_form` and `gauge_form`
compute them, `form_compare` orders them, and `support_value` and
`gauge_value` turn one into a `QuadVal` of `Fraction`s only at the end.
Each decision is an integer sign test, on the coordinates themselves when
both vectors are int pairs and on numerators and denominators otherwise,
and the support and gauge maxima are ranked on integers: no Fraction is
built for a sign.  The public functions accept `Fraction` directions as
well; since `Fraction(n) == n` with the same hash and the same printed form,
keys, labels and reports do not depend on which was passed, and the support
memo keys a direction by its integer numerators and denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

from ._records import Frozen, setfield
from .errors import (DimensionMismatch, HypothesisFailed, InvariantViolation,
                     NotAFace, OriginNotInterior, PointNotInBody,
                     UndefinedTouchingCone, UnsupportedArcCenter, ZeroDirection)
from .exactgeom import (IVec, Vec, _iprimitive, _scaled, dot, dot2_sign,
                        is_zero, orient2, perp2, point_grid, vadd, vneg, vscale,
                        vsub)
from .lattice import FiniteLattice, Report, build_lattice


# ---------------------------------------------------------------------------
# exact values of the form q + s*sqrt(m)
# ---------------------------------------------------------------------------

class QuadVal(Frozen):
    """Exact number q + s*sqrt(m) with rational q, m >= 0 and s >= 0."""

    _fields = ("q", "s", "m")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, q: Fraction, s: Fraction = Fraction(0), m: Fraction = Fraction(0)):
        setfield(self, "q", q)
        setfield(self, "s", s)
        setfield(self, "m", m)
        self.__post_init__()

    def __post_init__(self):
        if self.s.numerator < 0 or self.m.numerator < 0:
            raise ValueError("QuadVal stores the radical part with s, m >= 0")


_ONE = Fraction(1)  # the s of every arc support and gauge value


def quad_compare(a: QuadVal, b: QuadVal) -> int:
    """Exact three-way comparison of two q + s*sqrt(m) values.

    The sign of d + sqrt(A) - sqrt(B), with d = a.q - b.q, A = a.s^2*a.m and
    B = b.s^2*b.m, is kept when d is scaled by L > 0 and A, B by L^2; with L
    the lcm of their denominators, all three are integers."""
    aq, bq = a.q, b.q
    dd = aq.denominator * bq.denominator
    ad = a.s.denominator ** 2 * a.m.denominator
    bd = b.s.denominator ** 2 * b.m.denominator
    scale = lcm(dd, ad, bd)
    d = ((aq.numerator * bq.denominator - bq.numerator * aq.denominator)
         * (scale // dd))
    big = a.s.numerator ** 2 * a.m.numerator * (scale // ad) * scale
    small = b.s.numerator ** 2 * b.m.numerator * (scale // bd) * scale
    return _root_sign(d, big, small)


Form = tuple[int, int, int]
"""(P, R, E): the exact number (P + sqrt(R))/E, for integers R >= 0, E > 0."""


def _quad(form: Form) -> QuadVal:
    """The `QuadVal` of a `Form`: P/E, plus 1*sqrt(R/E^2) when R > 0."""
    p, r, e = form
    if r:
        return QuadVal(Fraction(p, e), _ONE, Fraction(r, e * e))
    return QuadVal(Fraction(p, e))


def form_compare(a: Form, b: Form) -> int:
    """Exact three-way comparison of two `Form`s: times ae*be > 0, the sign
    of (ap*be - bp*ae) + sqrt(ar*be^2) - sqrt(br*ae^2)."""
    (ap, ar, ae), (bp, br, be) = a, b
    return _root_sign(ap * be - bp * ae, ar * be * be, br * ae * ae)


def _root_sign(d: int, big: int, small: int) -> int:
    """The sign of d + sqrt(big) - sqrt(small), for integers big, small >= 0."""
    flip = 1
    if big < small:
        d, big, small, flip = -d, small, big, -1
    if big == small:
        return flip * ((d > 0) - (d < 0))
    if d >= 0:
        return flip
    # d < 0 < sqrt(big) - sqrt(small): compare the squares, that is the
    # sign of p - 2*sqrt(big*small)
    p = big + small - d * d
    if small == 0:
        return flip * ((p > 0) - (p < 0))
    if p <= 0:
        return -flip
    c = p * p - 4 * big * small
    return flip * ((c > 0) - (c < 0))


def _exact_key(v: Vec) -> tuple[int, int, int, int]:
    """Hashable integer form of an exact 2D point or direction, of ints or
    Fractions: equal keys exactly when the vectors are equal, and no
    Fraction hash is computed."""
    try:
        x, y = v
    except ValueError:
        raise DimensionMismatch(f"{v} is not a planar vector") from None
    return x.numerator, y.numerator, x.denominator, y.denominator


def _scaled_direction(u: Vec) -> tuple[int, int, int]:
    """(un, vn, e) with u = (un, vn)/e, e the lcm of u's denominators (1 for
    an int pair)."""
    xn, yn, xd, yd = _exact_key(u)
    e = xd if xd == yd else lcm(xd, yd)
    return xn * (e // xd), yn * (e // yd), e


def _primitive2(v: Vec) -> IVec:
    """The primitive int direction of a nonzero 2D vector: v itself when it
    is already a primitive int pair."""
    x, y = v
    if type(x) is type(y) is int:
        return v if gcd(x, y) == 1 else _iprimitive(v)
    return _iprimitive(_scaled(v))


# ---------------------------------------------------------------------------
# two-dimensional cones
# ---------------------------------------------------------------------------

class Cone2(Frozen):
    """Canonical 2D convex cone: zero, ray, sector (< pi) or plane.

    Sectors store their boundary directions in counterclockwise order, rays
    their primitive direction, both as int pairs.  These are all the normal
    and touching cones of a `PlanarBody`, which is bounded and
    two-dimensional.
    """

    _fields = ("kind", "d1", "d2")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, kind: str, d1: IVec | None = None, d2: IVec | None = None):
        setfield(self, "kind", kind)
        setfield(self, "d1", d1)
        setfield(self, "d2", d2)

    @staticmethod
    def zero() -> "Cone2":
        return Cone2("zero")

    @staticmethod
    def ray(d: Vec) -> "Cone2":
        return Cone2("ray", _primitive2(d))

    @staticmethod
    def sector(a: Vec, b: Vec) -> "Cone2":
        a, b = _primitive2(a), _primitive2(b)
        c = orient2(a, b)
        if c == 0:
            if dot2_sign(a, b) > 0:
                return Cone2("ray", a)
            raise ValueError("sector boundary directions must span < pi")
        return Cone2("sector", a, b) if c > 0 else Cone2("sector", b, a)

    @staticmethod
    def plane() -> "Cone2":
        return Cone2("plane")

    @property
    def dim(self) -> int:
        return {"zero": 0, "ray": 1, "sector": 2, "plane": 2}[self.kind]

    @property
    def key(self):
        return (self.kind, self.d1, self.d2)

    def label(self) -> str:
        if self.kind == "zero":
            return "{0}"
        if self.kind == "ray":
            return f"ray({self.d1[0]},{self.d1[1]})"
        if self.kind == "sector":
            return (f"sector(({self.d1[0]},{self.d1[1]}),"
                    f"({self.d2[0]},{self.d2[1]}))")
        return "plane"

    def contains(self, u: Vec) -> bool:
        # u = 0 gives sign 0 in every test, which the closed kinds accept
        if len(u) != 2:
            raise DimensionMismatch(f"{u} is not a planar vector")
        kind = self.kind
        if kind == "sector":
            return orient2(self.d1, u) >= 0 and orient2(u, self.d2) >= 0
        if kind == "ray":
            return is_zero(u) or (orient2(self.d1, u) == 0
                                  and dot2_sign(self.d1, u) > 0)
        return kind == "plane" or is_zero(u)

    def ri_contains(self, u: Vec) -> bool:
        # u = 0 gives sign 0, which the strict tests of sector and ray reject;
        # the zero cone and the plane are subspaces, their own relative interiors
        if len(u) != 2:
            raise DimensionMismatch(f"{u} is not a planar vector")
        kind = self.kind
        if kind == "sector":
            return orient2(self.d1, u) > 0 and orient2(u, self.d2) > 0
        if kind == "ray":
            return orient2(self.d1, u) == 0 and dot2_sign(self.d1, u) > 0
        return kind == "plane" or is_zero(u)

    def ri_vector(self) -> IVec | None:
        if self.kind == "zero":
            return None
        if self.kind == "ray":
            return self.d1
        if self.kind == "plane":
            return (1, 0)
        return vadd(self.d1, self.d2)

    def generators(self) -> list[IVec]:
        if self.kind == "zero":
            return []
        if self.kind == "ray":
            return [self.d1]
        if self.kind == "sector":
            return [self.d1, self.d2]
        return [(1, 0), (-1, 0), (0, 1), (0, -1)]

    def faces(self) -> list["Cone2"]:
        """All nonempty faces of this cone."""
        if self.kind in ("zero", "plane"):
            return [self]
        if self.kind == "ray":
            return [Cone2.zero(), self]
        return [Cone2.zero(), Cone2.ray(self.d1), Cone2.ray(self.d2), self]

    def face_with_in_ri(self, u: Vec) -> "Cone2":
        """The face holding u in its relative interior."""
        for f in self.faces():
            if f.ri_contains(u):
                return f
        raise ValueError(f"{u} is not in the cone")


# ---------------------------------------------------------------------------
# boundary features and bodies
# ---------------------------------------------------------------------------

class Segment(Frozen):
    _fields = ("start", "end")

    def __init__(self, start: Vec, end: Vec):
        setfield(self, "start", start)
        setfield(self, "end", end)

    @property
    def kind(self) -> str:
        return "segment"

    @cached_property
    def direction(self) -> Vec:
        return vsub(self.end, self.start)

    @cached_property
    def outward_normal(self) -> IVec:
        # boundary runs counterclockwise, so the outward side is to the right
        d = self.direction
        return _primitive2((d[1], -d[0]))

    def normal_at(self, p: Vec) -> IVec:
        return self.outward_normal


class Arc(Frozen):
    """Counterclockwise circular arc from start to end around center."""

    _fields = ("center", "radius_sq", "start", "end")

    def __init__(self, center: Vec, radius_sq: Fraction, start: Vec, end: Vec):
        setfield(self, "center", center)
        setfield(self, "radius_sq", radius_sq)
        setfield(self, "start", start)
        setfield(self, "end", end)

    @property
    def kind(self) -> str:
        return "arc"

    def normal_at(self, p: Vec) -> IVec:
        return _primitive2(vsub(p, self.center))

    @cached_property
    def start_radial(self) -> IVec:
        return _primitive2(vsub(self.start, self.center))

    @cached_property
    def end_radial(self) -> IVec:
        return _primitive2(vsub(self.end, self.center))

    @cached_property
    def _minor(self) -> bool:
        """True when the angular extent is at most pi."""
        c = orient2(self.start_radial, self.end_radial)
        return c > 0 if c else dot2_sign(self.start_radial, self.end_radial) < 0

    def wedge_contains(self, d: Vec, strict: bool = False) -> bool:
        """Does the direction d lie in the arc's radial wedge?"""
        u, w = self.start_radial, self.end_radial
        if self._minor:
            if strict:
                return orient2(u, d) > 0 and orient2(d, w) > 0
            ud = orient2(u, d)
            return (ud >= 0 and orient2(d, w) >= 0
                    and (ud > 0 or dot2_sign(u, d) > 0 or dot2_sign(w, d) > 0))
        wd = orient2(w, d)
        inside_complement = wd > 0 and orient2(d, u) > 0
        if strict:
            on_boundary = (orient2(u, d) == 0 and dot2_sign(u, d) > 0) or (
                wd == 0 and dot2_sign(w, d) > 0)
            return not inside_complement and not on_boundary and not is_zero(d)
        return not inside_complement and not is_zero(d)

    def radial_point(self, u: Vec) -> Vec | None:
        """The point center + t*u (t > 0) of the arc's circle, or None when
        it is irrational.  It is center + r*(p, q) for (p, q) the primitive
        int form of u and r^2 = a/(b*(p^2 + q^2)) with radius_sq = a/b: r is
        rational when both parts of that fraction in lowest terms are squares."""
        p, q = _primitive2(u)
        r = self.radius_sq
        num, den = r.numerator, r.denominator * (p * p + q * q)
        g = gcd(num, den)
        rn, rd = isqrt(num // g), isqrt(den // g)
        if rn * rn * g != num or rd * rd * g != den:
            return None
        return tuple(Fraction(c.numerator * rd + rn * t * c.denominator,
                              c.denominator * rd) for c, t in zip(self.center, (p, q)))

    def point_on(self, x: Vec, strict: bool = False) -> bool:
        r = vsub(x, self.center)
        if dot(r, r) != self.radius_sq:
            return False
        return self.wedge_contains(r, strict=strict)

    def interior_direction(self) -> IVec:
        """A primitive direction strictly inside the radial wedge."""
        u, w = self.start_radial, self.end_radial
        for cand in (vadd(u, w), vneg(vadd(u, w)), perp2(u), vneg(perp2(u))):
            if not is_zero(cand) and self.wedge_contains(cand, strict=True):
                return _primitive2(cand)
        raise ValueError("degenerate arc")

    def rational_points(self) -> list[Vec]:
        """Two rational points strictly inside the arc, by rational rotations."""
        out = []
        k = 1
        while len(out) < 2 and k < 60:
            t = Fraction(1, k + 2)
            c = (1 - t * t) / (1 + t * t)
            s = 2 * t / (1 + t * t)
            for cc, ss in ((c, s), (c, -s)):
                base = vsub(self.start, self.center)
                p = (base[0] * cc - base[1] * ss, base[0] * ss + base[1] * cc)
                x = vadd(self.center, p)
                if self.point_on(x, strict=True) and x not in out:
                    out.append(x)
            k += 1
        return out[:2]


Feature = Segment | Arc


class PlanarBody(Frozen):
    """Convex region bounded by a counterclockwise cycle of features.

    `feature_closed[i]` records whether the open feature (its relative
    interior) belongs to the body; `vertex_closed[j]` whether the junction
    point starting feature j does.  Deletions must leave a convex set, which
    reduces to: an open segment feature may keep at most one of its endpoints.
    """

    _fields = ("features", "feature_closed", "vertex_closed")

    def __init__(self, features: tuple[Feature, ...], feature_closed: tuple[bool, ...],
                 vertex_closed: tuple[bool, ...]):
        setfield(self, "features", features)
        setfield(self, "feature_closed", feature_closed)
        setfield(self, "vertex_closed", vertex_closed)
        self.__post_init__()

    def __post_init__(self):
        n = len(self.features)
        if n < 2:
            raise ValueError("a planar body needs at least two boundary features")
        if len(self.feature_closed) != n or len(self.vertex_closed) != n:
            raise ValueError("flag lists must match the feature count")
        for i, f in enumerate(self.features):
            g = self.features[(i + 1) % n]
            if f.end != g.start:
                raise ValueError(f"features {i} and {(i + 1) % n} do not share an endpoint")
            if isinstance(f, Segment) and f.start == f.end:
                raise ValueError("zero-length segment")
            if isinstance(f, Arc):
                for p in (f.start, f.end):
                    r = vsub(p, f.center)
                    if dot(r, r) != f.radius_sq:
                        raise ValueError("arc endpoint is not exactly on the circle")
                if f.start == f.end:
                    raise ValueError("full-circle arcs must be split in two")
        # The outward normal turns counterclockwise at each junction and over
        # each arc's radial wedge.  It must turn exactly once, so it passes
        # d = (1, 0) once, a turn from a to b passing d when d is in (a, b].
        d, passes = (1, 0), 0
        for j in range(n):
            prev = self.features[j - 1]
            nxt = self.features[j]
            p = nxt.start
            n_prev, n_next = prev.normal_at(p), nxt.normal_at(p)
            c = orient2(n_prev, n_next)
            if c < 0 or (c == 0 and dot2_sign(n_prev, n_next) <= 0):
                raise ValueError(f"boundary is not convex at junction {j}")
            if (c == 0 and isinstance(prev, Segment) and isinstance(nxt, Segment)):
                raise ValueError("consecutive collinear segments must be merged")
            passes += orient2(n_prev, d) > 0 and orient2(d, n_next) >= 0
            if isinstance(nxt, Arc):
                u = nxt.start_radial
                passes += nxt.wedge_contains(d) and not (orient2(u, d) == 0
                                                         and dot2_sign(u, d) > 0)
        if passes != 1:
            raise ValueError("the boundary must wind around the body exactly once")
        for i, f in enumerate(self.features):
            if not self.feature_closed[i] and isinstance(f, Segment):
                if self.vertex_closed[i] and self.vertex_closed[(i + 1) % len(self.features)]:
                    raise ValueError(
                        "an open segment may keep at most one endpoint (convexity)")

    # -- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.features)

    def junction(self, j: int) -> Vec:
        return self.features[j % self.n].start

    @cached_property
    def junctions(self) -> tuple[Vec, ...]:
        return tuple(self.junction(j) for j in range(self.n))

    def junction_present(self, j: int) -> bool:
        return self.vertex_closed[j % self.n]

    def junction_normals(self, j: int) -> tuple[IVec, IVec]:
        p = self.junction(j)
        return (self.features[(j - 1) % self.n].normal_at(p),
                self.features[j % self.n].normal_at(p))

    def junction_cone(self, j: int) -> Cone2:
        return self._junction_cones[j % self.n]

    # Per-body memos: each dies with the body it was computed for.

    @cached_property
    def _junction_cones(self) -> tuple[Cone2, ...]:
        cones = []
        for j in range(self.n):
            n_prev, n_next = self.junction_normals(j)
            cones.append(Cone2.ray(n_prev) if orient2(n_prev, n_next) == 0
                         else Cone2.sector(n_prev, n_next))
        return tuple(cones)

    @cached_property
    def _support_memo(self) -> dict[tuple[int, ...], FaceDescriptor]:
        """`_exact_key` of a direction -> the face of the closure it exposes."""
        return {}

    @cached_property
    def _junction_indices(self) -> dict[tuple[int, ...], int]:
        """`_exact_key` of a junction point -> its first index."""
        out: dict[tuple[int, ...], int] = {}
        for j, p in enumerate(self.junctions):
            out.setdefault(_exact_key(p), j)
        return out

    @cached_property
    def _inventory(self) -> ConeInventory:
        """The `cone_inventory`, built by one walk over the boundary."""
        return _build_inventory(self)

    @cached_property
    def _junction_grid(self) -> tuple[int, tuple[IVec, ...]]:
        """(d, points): junction j is points[j]/d, over one common d."""
        return point_grid(self.junctions)

    @cached_property
    def _arc_grid(self) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
        """(D, arcs): one (i, cx, cy, n) per arc feature i, its center
        (cx, cy)/D and its radius_sq n/D, over one common D."""
        idx = [i for i, f in enumerate(self.features) if isinstance(f, Arc)]
        big, rows = point_grid((*self.features[i].center, self.features[i].radius_sq)
                               for i in idx)
        return big, tuple((i, *row) for i, row in zip(idx, rows))

    @cached_property
    def _gauge_rows(self) -> tuple[tuple[Arc | None, int, int, int], ...]:
        """The gauge's integer rows, built once the origin is checked
        interior and every arc centered at it (`_build_gauge_rows`)."""
        return _build_gauge_rows(self)

    def is_closed(self) -> bool:
        return all(self.feature_closed) and all(self.vertex_closed)

    # -- membership --------------------------------------------------------

    def locate(self, x: Vec):
        """('outside'|'interior'|('junction',j)|('segment',i)|('arc',i)), in one
        walk: a point in a feature's relative interior breaks no constraint of
        the closure, so the first broken constraint or holding feature answers."""
        j = self._junction_indices.get(_exact_key(x))
        if j is not None:
            return ("junction", j)
        for i, f in enumerate(self.features):
            if isinstance(f, Segment):
                rel = vsub(x, f.start)
                side = dot2_sign(f.outward_normal, rel)
                if side > 0:
                    return "outside"
                if side == 0 and 0 < dot(rel, f.direction) < dot(f.direction, f.direction):
                    return ("segment", i)
            else:
                d = vsub(x, f.center)
                r = dot(d, d)
                # only a point on or beyond the circle reads the wedge and the
                # end tangents: the disc lies inside both tangents' half-planes
                if r == f.radius_sq and f.wedge_contains(d, strict=True):
                    return ("arc", i)
                if r > f.radius_sq and (f.wedge_contains(d)
                                        or dot2_sign(f.start_radial, vsub(x, f.start)) > 0
                                        or dot2_sign(f.end_radial, vsub(x, f.end)) > 0):
                    return "outside"
        return "interior"

    def contains(self, x: Vec) -> bool:
        loc = self.locate(x)
        if loc == "outside":
            return False
        if loc == "interior":
            return True
        kind, i = loc
        if kind == "junction":
            return self.junction_present(i)
        return self.feature_closed[i]


# ---------------------------------------------------------------------------
# face descriptors
# ---------------------------------------------------------------------------

class FaceDescriptor(Frozen):
    """Symbolic identity of a face of a planar body.

    Arc-point faces are keyed by (feature, primitive radial direction); the
    rational point is carried when it exists (most support points on arcs
    of non-square radius are irrational).  Equality is by canonical key, so
    descriptors agree whether or not the optional point was computed.
    """

    _fields = ("tag", "feature", "point", "direction")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, tag: str, feature: int | None = None, point: Vec | None = None,
                 direction: IVec | None = None):
        setfield(self, "tag", tag)  # empty | vertex | edge | arcpoint | whole
        setfield(self, "feature", feature)
        setfield(self, "point", point)
        setfield(self, "direction", direction)

    def __eq__(self, other):
        return isinstance(other, FaceDescriptor) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @staticmethod
    def empty() -> "FaceDescriptor":
        return FaceDescriptor("empty")

    @staticmethod
    def whole() -> "FaceDescriptor":
        return FaceDescriptor("whole")

    @staticmethod
    def vertex(point: Vec) -> "FaceDescriptor":
        return FaceDescriptor("vertex", point=point)

    @staticmethod
    def edge(feature: int) -> "FaceDescriptor":
        return FaceDescriptor("edge", feature=feature)

    @staticmethod
    def arc_point(feature: int, direction: Vec, point: Vec | None = None
                  ) -> "FaceDescriptor":
        return FaceDescriptor("arcpoint", feature=feature, point=point,
                              direction=_primitive2(direction))

    @property
    def key(self):
        if self.tag == "vertex":
            return ("vertex", self.point)
        if self.tag == "edge":
            return ("edge", self.feature)
        if self.tag == "arcpoint":
            return ("arcpoint", self.feature, self.direction)
        return (self.tag,)

    @property
    def dim(self) -> int:
        return {"empty": -1, "vertex": 0, "arcpoint": 0, "edge": 1, "whole": 2}[self.tag]

    def label(self) -> str:
        if self.tag == "vertex":
            return f"vertex({self.point[0]},{self.point[1]})"
        if self.tag == "edge":
            return f"edge#{self.feature}"
        if self.tag == "arcpoint":
            if self.point is not None:
                return f"arcpt#{self.feature}({self.point[0]},{self.point[1]})"
            return f"arcpt#{self.feature}[dir ({self.direction[0]},{self.direction[1]})]"
        return self.tag


def face_at(body: PlanarBody, x: Vec) -> FaceDescriptor:
    """The unique face with x in its relative interior."""
    loc = body.locate(x)
    if loc == "outside":
        raise PointNotInBody(f"{x} is outside the body")
    if loc == "interior":
        return FaceDescriptor.whole()
    kind, i = loc
    if kind == "junction":
        if not body.junction_present(i):
            raise PointNotInBody(f"junction {i} is deleted")
        return FaceDescriptor.vertex(x)
    if not body.feature_closed[i]:
        raise PointNotInBody(f"feature {i} is deleted")
    if kind == "segment":
        return FaceDescriptor.edge(i)
    arc = body.features[i]
    return FaceDescriptor.arc_point(i, vsub(x, arc.center), x)


def _junction_index(body: PlanarBody, point: Vec) -> int:
    j = body._junction_indices.get(_exact_key(point))
    if j is None:
        raise NotAFace(f"{point} is not a junction")
    return j


def normal_cone_at(body: PlanarBody, f: FaceDescriptor) -> Cone2:
    """Exact normal cone of a nonempty face (the empty face maps to the plane)."""
    if f.tag == "empty":
        return Cone2.plane()
    if f.tag == "whole":
        return Cone2.zero()
    if f.tag == "edge":
        feat = body.features[f.feature]
        if not isinstance(feat, Segment) or not body.feature_closed[f.feature]:
            raise NotAFace("edge descriptor must name a present segment feature")
        return Cone2.ray(feat.outward_normal)
    if f.tag == "arcpoint":
        if not body.feature_closed[f.feature]:
            raise NotAFace("arc feature is deleted")
        return Cone2.ray(f.direction)
    j = _junction_index(body, f.point)
    if not body.junction_present(j):
        raise NotAFace("vertex is deleted")
    return body.junction_cone(j)


# ---------------------------------------------------------------------------
# support / exposed faces
# ---------------------------------------------------------------------------

def support_value(body: PlanarBody, u: Vec) -> tuple[QuadVal, FaceDescriptor]:
    """Support value over the closure and the exposed face of the closure,
    both read off one `_support_scan`."""
    scan = _support_scan(body, u)
    return _quad(scan[3]), _support_entry(body, u, scan)


def support_form(body: PlanarBody, u: Vec) -> Form:
    """The support value over the closure in direction u, as an integer
    `Form`; builds no face, no point and no Fraction."""
    return _support_scan(body, u)[3]


def _support_entry(body: PlanarBody, u: Vec, scan=None) -> FaceDescriptor:
    """The face of the closure that u exposes, memoised; on a miss `_support`
    builds it from scan, which is `_support_scan(body, u)` when not given."""
    memo = body._support_memo
    key = _exact_key(u)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _support(body, u, scan or _support_scan(body, u))
    return found


def _support_scan(body: PlanarBody, u: Vec
                  ) -> tuple[int | None, list[int], int, Form]:
    """The support maximum over every junction and every arc whose radial
    wedge holds u, decided on integers: (the winning arc feature or None,
    the junction values, their maximum, the support value as a `Form`).

    With u = (un, vn)/e, the junctions over their common denominator d and
    the arc grid over D, each candidate times e*d*D^2 is P + sqrt(R) for
    integers: P = top*D^2 and R = 0 for the junction maximum top/(e*d),
    P = (un*cx + vn*cy)*d*D and R = n*(un^2 + vn^2)*D^3*d^2 for an arc.
    A tie with an arc raises `InvariantViolation`."""
    un, vn, e = _scaled_direction(u)
    if not (un or vn):
        raise ZeroDirection("support direction must be nonzero")
    d, grid = body._junction_grid
    vals = [un * x + vn * y for x, y in grid]
    top = max(vals)
    big, arcs = body._arc_grid
    norm = un * un + vn * vn
    best, p0, r0, tied = None, top * big * big, 0, False
    for i, cx, cy, n in arcs:
        if body.features[i].wedge_contains(u, strict=True):
            p, r = (un * cx + vn * cy) * d * big, n * norm * big * (big * d) ** 2
            c = _root_sign(p - p0, r, r0)
            if c > 0:
                best, p0, r0, tied = i, p, r, False
            elif c == 0:
                tied = True
    if tied:
        raise InvariantViolation("strictly convex arcs admit no support ties")
    return best, vals, top, (p0, r0, e * d * big * big)


def _support(body: PlanarBody, u: Vec, scan) -> FaceDescriptor:
    """The face of the closure that u exposes, built from scan, u's
    `_support_scan`."""
    best, vals, top, _ = scan
    if best is not None:
        p = _primitive2(u)
        return FaceDescriptor.arc_point(best, p, body.features[best].radial_point(p))
    junctions = [j for j, v in enumerate(vals) if v == top]
    if len(junctions) == 1:
        return FaceDescriptor.vertex(body.junction(junctions[0]))
    if len(junctions) != 2:
        raise InvariantViolation("at most one segment can attain the support")
    pts = {body.junction(j) for j in junctions}
    for i, f in enumerate(body.features):
        if isinstance(f, Segment) and {f.start, f.end} == pts:
            return FaceDescriptor.edge(i)
    raise InvariantViolation("two support junctions must bound a segment feature")


def exposed_face(body: PlanarBody, u: Vec) -> FaceDescriptor:
    """Exposed face of the body by u; Empty when the supremum is not attained."""
    closure_face = _support_entry(body, u)
    if closure_face.tag == "vertex":
        j = _junction_index(body, closure_face.point)
        return closure_face if body.junction_present(j) else FaceDescriptor.empty()
    if closure_face.tag == "arcpoint":
        return closure_face if body.feature_closed[closure_face.feature] \
            else FaceDescriptor.empty()
    i = closure_face.feature
    if body.feature_closed[i]:
        return closure_face
    for j in (i, (i + 1) % body.n):
        if body.junction_present(j):
            return FaceDescriptor.vertex(body.junction(j))
    return FaceDescriptor.empty()


def touching_cone(body: PlanarBody, u: Vec) -> tuple[Cone2, bool]:
    """Touching cone of the direction u and whether it is a normal cone."""
    if is_zero(u):
        raise ZeroDirection("touching-cone direction must be nonzero")
    f = exposed_face(body, u)
    if f.tag == "empty":
        raise UndefinedTouchingCone(f"direction {u} exposes the empty face")
    t = normal_cone_at(body, f).face_with_in_ri(u)  # a ray or a sector
    g = exposed_face(body, t.ri_vector())
    return t, g.tag != "empty" and normal_cone_at(body, g) == t


# ---------------------------------------------------------------------------
# cone inventory
# ---------------------------------------------------------------------------

class ConeInventory(Frozen):
    """Finite summary of the normal/touching cone structure of a planar body.

    Arc features contribute a one-parameter family of radial rays (all of
    them normal cones); those are recorded per feature, not enumerated.
    """

    _fields = ("proper_normal", "arc_families", "extra_touching", "non_exposed")

    def __init__(self, proper_normal: tuple[Cone2, ...], arc_families: tuple[int, ...],
                 extra_touching: tuple[Cone2, ...], non_exposed: tuple[FaceDescriptor, ...]):
        setfield(self, "proper_normal", proper_normal)
        setfield(self, "arc_families", arc_families)
        setfield(self, "extra_touching", extra_touching)  # touching cones that are not normal
        setfield(self, "non_exposed", non_exposed)  # always vertex faces

    @property
    def proper_normal_count(self) -> int:
        return len(self.proper_normal)

    @property
    def proper_touching_count(self) -> int:
        return len(self.proper_normal) + len(self.extra_touching)


def _build_inventory(body: PlanarBody) -> ConeInventory:
    """`cone_inventory` computed: one walk over the closed features and the
    present junctions.

    A vertex is non-exposed when a direction inside its normal cone exposes
    something else.  A touching cone that is not a normal cone is a ray on
    the boundary of a vertex's sector; each such boundary ray is tested."""
    normals: dict[tuple, Cone2] = {}
    families = []
    for i, f in enumerate(body.features):
        if not body.feature_closed[i]:
            continue
        if isinstance(f, Segment):
            c = Cone2.ray(f.outward_normal)
            normals[c.key] = c
        else:
            families.append(i)
    extra: dict[tuple, Cone2] = {}
    non_exposed = []
    for j, cone in enumerate(body._junction_cones):
        if not body.vertex_closed[j]:
            continue
        normals[cone.key] = cone
        v = FaceDescriptor.vertex(body.junctions[j])
        if exposed_face(body, cone.ri_vector()) != v:
            non_exposed.append(v)
        if cone.kind == "sector":
            for d in (cone.d1, cone.d2):
                t, is_normal = touching_cone(body, d)
                if not is_normal:
                    extra[t.key] = t
    return ConeInventory(tuple(sorted(normals.values(), key=lambda c: c.key)),
                         tuple(families),
                         tuple(sorted(extra.values(), key=lambda c: c.key)),
                         tuple(non_exposed))


def cone_inventory(body: PlanarBody) -> ConeInventory:
    """The body's cone inventory, built once and freed with the body."""
    return body._inventory


def non_exposed_faces(body: PlanarBody) -> list[FaceDescriptor]:
    """The finitely many faces that are not exposed (always vertex faces)."""
    return list(body._inventory.non_exposed)


# ---------------------------------------------------------------------------
# 2D structure checks
# ---------------------------------------------------------------------------

def _adjacent_segment_faces(body: PlanarBody, j: int) -> list[int]:
    """Present segment features having junction j as an endpoint."""
    out = []
    for i in (j - 1, j):
        i %= body.n
        f = body.features[i]
        if isinstance(f, Segment) and body.feature_closed[i]:
            out.append(i)
    return out


def check_2d_nonexposed_rule(body: PlanarBody) -> Report:
    """Non-exposed faces are exactly the endpoints of a unique 1-dim face.

    Valid only when every touching cone is a normal cone; otherwise the
    hypothesis fails and the rule is not applicable.
    """
    inv = body._inventory
    if inv.extra_touching:
        raise HypothesisFailed("some touching cone is not a normal cone")
    non_exp = {f.key for f in inv.non_exposed}
    failures = []
    for j in range(body.n):
        if not body.junction_present(j):
            continue
        v = FaceDescriptor.vertex(body.junction(j))
        ends_one = len(_adjacent_segment_faces(body, j)) == 1
        if (v.key in non_exp) != ends_one:
            failures.append(
                f"{v.label()}: non-exposed={v.key in non_exp}, "
                f"unique 1-dim face endpoint={ends_one}")
    return Report(tuple(failures))


def singular_points(body: PlanarBody) -> list[Vec]:
    """Boundary points of the body with a two-dimensional normal cone."""
    return [body.junction(j) for j in range(body.n)
            if body.junction_present(j) and body.junction_cone(j).kind == "sector"]


def check_2d_smoothness(body: PlanarBody) -> Report:
    """Each singular point is the intersection of two boundary segments."""
    if body._inventory.extra_touching:
        raise HypothesisFailed("some touching cone is not a normal cone")
    return Report(tuple(
        f"singular point {x} does not join two segments" for x in singular_points(body)
        if len(_adjacent_segment_faces(body, _junction_index(body, x))) != 2))


class CoatomReport(Frozen):
    _fields = ("hypothesis_ok", "coatoms", "is_intersection_of_coatoms", "note")

    def __init__(self, hypothesis_ok: bool, coatoms: tuple[FaceDescriptor, ...],
                 is_intersection_of_coatoms: bool, note: str):
        setfield(self, "hypothesis_ok", hypothesis_ok)
        setfield(self, "coatoms", coatoms)
        setfield(self, "is_intersection_of_coatoms", is_intersection_of_coatoms)
        setfield(self, "note", note)


def _is_coatom(body: PlanarBody, f: FaceDescriptor) -> bool:
    if f.tag in ("edge", "arcpoint"):
        return True
    if f.tag == "vertex":
        j = _junction_index(body, f.point)
        return not _adjacent_segment_faces(body, j)
    return False


def coatom_check_planar(body: PlanarBody, f: FaceDescriptor) -> CoatomReport:
    """Is a proper exposed face an intersection of coatoms of the exposed lattice?

    When every touching cone inside its normal cone is normal this must hold;
    without the hypothesis both outcomes occur, and the report says which.
    """
    if f.tag in ("empty", "whole"):
        raise ValueError("check applies to proper exposed faces")
    n = normal_cone_at(body, f)
    v = n.ri_vector()
    if exposed_face(body, v) != f:
        raise NotAFace("face is not exposed")
    extra = body._inventory.extra_touching
    hypothesis_ok = not any(t in extra for t in n.faces())
    coatoms: list[FaceDescriptor] = []
    if _is_coatom(body, f):
        coatoms.append(f)
        inter_is_f = True
    elif f.tag == "vertex":
        j = _junction_index(body, f.point)
        edges = [FaceDescriptor.edge(i) for i in _adjacent_segment_faces(body, j)]
        coatoms.extend(edges)
        inter_is_f = len(edges) == 2
    else:
        inter_is_f = False
    note = ""
    if hypothesis_ok and not inter_is_f:
        note = "violates the coatom-intersection theorem"
    elif not hypothesis_ok and inter_is_f:
        note = "coatom intersection holds although the hypothesis fails (no converse)"
    elif not hypothesis_ok:
        note = "sufficient condition only: hypothesis fails and so does the conclusion"
    return CoatomReport(hypothesis_ok, tuple(coatoms), inter_is_f, note)


# ---------------------------------------------------------------------------
# partition of directions by touching cones
# ---------------------------------------------------------------------------

def partition_check_planar(body: PlanarBody, directions: list[Vec]) -> Report:
    """Each direction lies in the relative interior of exactly one touching
    cone: the proper cones of the body's inventory and its arc families."""
    if not body.is_closed():
        raise HypothesisFailed("partition check requires a closed bounded body")
    inv = body._inventory
    arcs = [body.features[i] for i in inv.arc_families]
    counts = _touching_counts([*inv.proper_normal, *inv.extra_touching], arcs, directions)
    return Report(tuple(f"direction {u} lies in {count} touching-cone interiors"
                        for u, count in zip(directions, counts) if count != 1))


def _touching_counts(cones: list[Cone2], arcs: list[Arc], directions: list[Vec]):
    """For each nonzero direction u, how many of the cones hold u in their
    relative interior plus how many of the arcs hold it strictly inside
    their radial wedge.

    Those tests read only orient2(r, u) over the cones' boundary rays and the
    arcs' radial end rays r, and dot2_sign(r, u) where that orient2 is 0, so
    all directions with the same such signs (one cell) get the same count:
    the first direction of a cell is tested against every cone and arc, and
    the later ones reuse its count.  Nothing picks a cone per direction, so
    an overlap or a gap still shows.
    """
    rays = list(dict.fromkeys(
        [r for c in cones for r in (c.d1, c.d2) if r is not None]
        + [r for f in arcs for r in (f.start_radial, f.end_radial)]))
    by_cell: dict[tuple[int, ...], int] = {}
    for u in directions:
        if is_zero(u):
            raise ZeroDirection("partition directions must be nonzero")
        # orient2 in {-1, 1} off the ray's line, 2 * dot2_sign in {-2, 2} on it
        cell = tuple(orient2(r, u) or 2 * dot2_sign(r, u) for r in rays)
        count = by_cell.get(cell)
        if count is None:
            count = by_cell[cell] = (sum(c.ri_contains(u) for c in cones)
                                     + sum(f.wedge_contains(u, strict=True) for f in arcs))
        yield count


# ---------------------------------------------------------------------------
# polarity
# ---------------------------------------------------------------------------

def _require_gauge_body(body: PlanarBody) -> None:
    """Raise unless the origin is interior to the body's closure and every
    arc is centered at it: the bodies whose gauge and polar are computed."""
    if body.locate((0, 0)) != "interior":
        raise OriginNotInterior("the origin must be an interior point")
    for f in body.features:
        if isinstance(f, Arc) and not is_zero(f.center):
            raise UnsupportedArcCenter("arcs must be centered at the origin")


def polar_planar(body: PlanarBody) -> PlanarBody:
    """Polar body of a closed planar body with the origin interior.

    Origin-centered arcs of squared radius R map to arcs of squared radius
    1/R, segments map to vertices, and vertices to segments of tangent lines.
    """
    if not body.is_closed():
        raise OriginNotInterior("polar bodies are defined for closed bodies")
    body._gauge_rows  # checks the origin and the arc centers, once per body

    def anchors(f: Feature) -> tuple[Vec, Vec]:
        if isinstance(f, Segment):
            n = f.outward_normal
            c = dot(n, f.start)
            w = vscale(Fraction(1) / c, n)
            return w, w
        inv = Fraction(1) / f.radius_sq
        return vscale(inv, f.start), vscale(inv, f.end)

    features: list[Feature] = []
    n = body.n
    for i, f in enumerate(body.features):
        if isinstance(f, Arc):
            inv = Fraction(1) / f.radius_sq
            features.append(Arc((Fraction(0), Fraction(0)), inv,
                                vscale(inv, f.start), vscale(inv, f.end)))
        g = body.features[(i + 1) % n]
        a = anchors(f)[1]
        b = anchors(g)[0]
        if a != b:
            features.append(Segment(a, b))
    m = len(features)
    return PlanarBody(tuple(features), (True,) * m, (True,) * m)


def _build_gauge_rows(body: PlanarBody) -> tuple[tuple[Arc | None, int, int, int], ...]:
    """One integer row per feature, in order, for `gauge_form`: (None, a, b,
    k) for a segment on the line a*x + b*y = k, k > 0; (arc, c*k, 0, k) for
    an arc of squared radius k/c in lowest terms."""
    _require_gauge_body(body)
    rows = []
    for f in body.features:
        if isinstance(f, Segment):
            a, b = f.outward_normal
            x, y, w = _scaled((*f.start, 1))  # the start is (x, y)/w
            a, b, k = a * w, b * w, a * x + b * y
            g = gcd(a, b, k)
            rows.append((None, a // g, b // g, k // g))
        else:
            k, c = f.radius_sq.numerator, f.radius_sq.denominator
            rows.append((f, c * k, 0, k))
    return tuple(rows)


def gauge_form(body: PlanarBody, u: Vec) -> Form:
    """The gauge inf{t > 0 : u/t in body} as an integer `Form`, for a body
    whose closure holds the origin in its interior and whose arcs are
    centered there; otherwise `OriginNotInterior` or `UnsupportedArcCenter`.

    With u = (un, vn)/e, the candidates times e are (a*un + b*vn)/k for each
    segment row (None, a, b, k) facing u, and sqrt(m*(un^2 + vn^2))/k for
    each arc row (arc, m, 0, k) whose wedge holds u: |u|/r for r^2 = k/c,
    m = c*k.  They are positive, so they rank by their squares, on integers;
    the largest (the first of equals) is the gauge."""
    if is_zero(u):
        raise ZeroDirection("gauge direction must be nonzero")
    un, vn, e = _scaled_direction(u)
    norm = un * un + vn * vn
    best = None
    for arc, a, b, k in body._gauge_rows:
        if arc is None:
            p, r = a * un + b * vn, 0
            if p <= 0:
                continue
        elif arc.wedge_contains(u):
            p, r = 0, a * norm
        else:
            continue
        sq, kk = p * p + r, k * k  # the candidate squared is sq/kk: p or r is 0
        if best is None or sq * best_kk > best_sq * kk:
            best, best_sq, best_kk = (p, r, k), sq, kk
    if best is None:
        raise InvariantViolation("a bounded body bounds every ray")
    p, r, k = best
    return p, r, k * e


def gauge_value(body: PlanarBody, u: Vec) -> QuadVal:
    """Exact gauge inf{t > 0 : u/t in body}: `gauge_form` as a `QuadVal`."""
    return _quad(gauge_form(body, u))


# ---------------------------------------------------------------------------
# finite special-face lattice
# ---------------------------------------------------------------------------

def special_faces(body: PlanarBody, exposed_only: bool = False
                  ) -> list[FaceDescriptor]:
    """Empty, whole, vertex and edge faces plus one arc point per arc."""
    out = [FaceDescriptor.empty(), FaceDescriptor.whole()]
    non_exp = ({f.key for f in body._inventory.non_exposed} if exposed_only
               else set())
    for j in range(body.n):
        if body.junction_present(j):
            v = FaceDescriptor.vertex(body.junction(j))
            if v.key not in non_exp:
                out.append(v)
    for i, f in enumerate(body.features):
        if not body.feature_closed[i]:
            continue
        if isinstance(f, Segment):
            out.append(FaceDescriptor.edge(i))
        else:
            d = f.interior_direction()
            out.append(FaceDescriptor.arc_point(i, d, f.radial_point(d)))
    return out


def special_face_lattice(body: PlanarBody, exposed_only: bool = False) -> FiniteLattice:
    """Finite lattice over the special faces (never the full arc-body lattice),
    ordered by masks: junction j is bit j and feature i is bit n + i; an edge
    also holds its two end junctions, the whole body every bit."""
    faces = special_faces(body, exposed_only=exposed_only)
    faces.sort(key=lambda f: (f.dim, str(f.key)))
    n = body.n
    masks = []
    for f in faces:
        if f.tag == "vertex":
            masks.append(1 << body.junctions.index(f.point))
        elif f.tag == "edge":
            i = f.feature
            masks.append(1 << n + i | 1 << i | 1 << (i + 1) % n)
        elif f.tag == "arcpoint":
            masks.append(1 << n + f.feature)
        else:
            masks.append((1 << 2 * n) - 1 if f.tag == "whole" else 0)
    return build_lattice(faces, masks)


# ---------------------------------------------------------------------------
# samples for invariant tests
# ---------------------------------------------------------------------------

def sample_boundary_points(body: PlanarBody) -> list[Vec]:
    """Rational points of the body's boundary: junctions, midpoints, arc points."""
    out = []
    for j in range(body.n):
        if body.junction_present(j):
            out.append(body.junction(j))
    for i, f in enumerate(body.features):
        if not body.feature_closed[i]:
            continue
        if isinstance(f, Segment):
            out.append(vscale(Fraction(1, 2), vadd(f.start, f.end)))
        else:
            out.extend(f.rational_points())
    return out


def compass_directions(count: int = 360) -> list[IVec]:
    """2*(count//2) deterministic primitive int directions around the whole
    circle.

    For t = s/half with s = -half, -half+2, ..., so that t runs over [-1, 1),
    the direction (1 - t^2, 2t) is (half^2 - s^2, 2*s*half) up to a positive
    factor; each is followed by its negation.  The angles 2*atan(t) fall in
    [-pi/2, pi/2) and their negations in [pi/2, 3pi/2), so no direction
    repeats, both axes appear and every open quadrant is sampled.
    """
    half = count // 2
    out: list[IVec] = []
    for s in range(-half, half, 2):
        x, y = half * half - s * s, 2 * s * half
        g = gcd(x, y)
        x, y = x // g, y // g
        out += [(x, y), (-x, -y)]
    return out
