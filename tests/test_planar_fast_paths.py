"""The planar layer's integer predicates against the Fraction routes they
replaced.

Each `_ref_*` function below is a copy of the earlier code, written on
Fraction values: the cross and dot products are formed as numbers and then
compared with 0, and the support oracle ranks every candidate, junctions
included, as a `QuadVal` with the Fraction `quad_compare`.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelat import bodyio, checks, planar
from facelat.errors import InvariantViolation, NotAFace
from facelat.exactgeom import (dot2_sign, is_zero, orient2, primitive, vadd,
                               vneg, vscale, vsub)
from facelat.planar import (Arc, Cone2, FaceDescriptor, PlanarBody, QuadVal,
                            Segment, quad_compare, sqrt_exact)

PLANAR = {name: body for name in bodyio.list_fixtures()
          if isinstance(body := bodyio.load_fixture(name), PlanarBody)}


# ---------------------------------------------------------------------------
# references: the Fraction formulas
# ---------------------------------------------------------------------------

def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _ref_contains(c, u):
    if is_zero(u):
        return True
    if c.kind == "zero":
        return False
    if c.kind == "plane":
        return True
    if c.kind == "ray":
        return _cross(c.d1, u) == 0 and _dot(c.d1, u) > 0
    return _cross(c.d1, u) >= 0 and _cross(u, c.d2) >= 0


def _ref_ri_contains(c, u):
    if c.kind == "zero":
        return is_zero(u)
    if is_zero(u):
        return False
    if c.kind == "ray":
        return _ref_contains(c, u)
    if c.kind == "plane":
        return True
    return _cross(c.d1, u) > 0 and _cross(u, c.d2) > 0


def _ref_minor(arc):
    c = _cross(arc.start_radial, arc.end_radial)
    if c > 0:
        return True
    if c < 0:
        return False
    return _dot(arc.start_radial, arc.end_radial) < 0


def _ref_wedge_contains(arc, d, strict):
    u, w = arc.start_radial, arc.end_radial
    if _ref_minor(arc):
        if strict:
            return _cross(u, d) > 0 and _cross(d, w) > 0
        return (_cross(u, d) >= 0 and _cross(d, w) >= 0
                and (_dot(u, d) > 0 or _dot(w, d) > 0 or _cross(u, d) > 0))
    inside_complement = _cross(w, d) > 0 and _cross(d, u) > 0
    if strict:
        on_boundary = (_cross(u, d) == 0 and _dot(u, d) > 0) or (
            _cross(w, d) == 0 and _dot(w, d) > 0)
        return not inside_complement and not on_boundary and not is_zero(d)
    return not inside_complement and not is_zero(d)


def _ref_sign_p_minus_q_sqrt(p, qq, m):
    if qq == 0 or m == 0:
        return (p > 0) - (p < 0)
    if p <= 0:
        return -1 if (p < 0 or m > 0) else 0
    d = p * p - qq * qq * m
    return (d > 0) - (d < 0)


def _ref_quad_compare(a, b):
    d = a.q - b.q
    s1s, s2s = a.s * a.s * a.m, b.s * b.s * b.m
    if s1s == s2s:
        return (d > 0) - (d < 0)
    if s1s > s2s:
        if d >= 0:
            return 1
        p = s1s + s2s - d * d
        return _ref_sign_p_minus_q_sqrt(p, 2 * a.s * b.s, a.m * b.m)
    return -_ref_quad_compare(b, a)


def _ref_support(body, u):
    best, attainers = None, []
    for j in range(body.n):
        val = QuadVal(_dot(u, body.junction(j)))
        c = -1 if best is None else _ref_quad_compare(val, best)
        if best is None or c > 0:
            best, attainers = val, [("junction", j)]
        elif c == 0:
            attainers.append(("junction", j))
    for i, f in enumerate(body.features):
        if isinstance(f, Arc) and _ref_wedge_contains(f, u, strict=True):
            val = QuadVal(_dot(u, f.center), F(1), f.radius_sq * _dot(u, u))
            c = _ref_quad_compare(val, best)
            if c > 0:
                best, attainers = val, [("arc", i)]
            elif c == 0:
                attainers.append(("arc", i))
    arcs = [a for a in attainers if a[0] == "arc"]
    if arcs:
        if len(attainers) != 1:
            raise InvariantViolation("strictly convex arcs admit no support ties")
        i = arcs[0][1]
        f = body.features[i]
        t = sqrt_exact(f.radius_sq / _dot(u, u))
        point = vadd(f.center, vscale(t, u)) if t is not None else None
        return best, FaceDescriptor("arcpoint", feature=i, point=point,
                                    direction=tuple(map(int, primitive(u))))
    junctions = [j for _, j in attainers]
    if len(junctions) == 1:
        return best, FaceDescriptor.vertex(body.junction(junctions[0]))
    pts = {body.junction(j) for j in junctions}
    assert len(junctions) == 2
    i = next(i for i, f in enumerate(body.features)
             if isinstance(f, Segment) and {f.start, f.end} == pts)
    return best, FaceDescriptor.edge(i)


def _exact(answer):
    """Everything a support answer carries, with the types of its numbers:
    the values and the point are Fractions, the direction ints."""
    h, f = answer
    return (h, f.tag, f.feature, f.point, f.direction,
            tuple(type(x) for x in (h.q, h.s, h.m) + (f.point or ())),
            tuple(type(x) for x in f.direction or ()))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

integer = st.integers(-6, 6).map(F)
rational = st.builds(F, st.integers(-12, 12), st.integers(2, 5))
coord = st.one_of(integer, rational)
vector = st.tuples(coord, coord)
nonzero = vector.filter(lambda v: not is_zero(v))
positive = st.builds(F, st.integers(1, 9), st.integers(1, 4))


@st.composite
def cones(draw):
    kind = draw(st.sampled_from(["zero", "ray", "plane", "sector"]))
    if kind == "zero":
        return Cone2.zero()
    if kind == "plane":
        return Cone2.plane()
    a = draw(nonzero)
    if kind == "sector":
        return Cone2.sector(a, draw(nonzero.filter(lambda b: _cross(a, b) != 0)))
    return Cone2.ray(a)


@st.composite
def arcs(draw):
    """Arcs on a circle of rational radius through rational points (the
    rational parametrisation, t = None giving the point at angle pi):
    minor ones, major ones and ones of exactly pi."""
    center = draw(vector)
    r = draw(positive)
    params = st.one_of(st.none(), st.builds(F, st.integers(-9, 9),
                                            st.integers(1, 4)))

    def point(t):
        x, y = (F(-1), F(0)) if t is None else ((1 - t * t) / (1 + t * t),
                                                2 * t / (1 + t * t))
        return (center[0] + r * x, center[1] + r * y)

    s = draw(params)
    start = point(s)
    kind = draw(st.sampled_from(["minor", "major", "pi"]))
    if kind == "pi":
        end = vsub(vscale(2, center), start)
    else:
        end = point(draw(params.filter(lambda e: e != s)))
        if (_cross(vsub(start, center), vsub(end, center)) > 0) != (kind == "minor"):
            start, end = end, start
    return Arc(center, r * r, start, end)


def _probes(gens, u, t):
    """u, zero, and each generator with its negation, its perpendiculars
    and positive multiples: every boundary of the cone or wedge."""
    out = [u, (F(0), F(0))]
    for g in gens:
        out += [g, vscale(t, g), vneg(g), (-g[1], g[0]), (g[1], -g[0])]
    for g in gens:
        for h in gens:
            out.append(vadd(g, h))
    return out


# ---------------------------------------------------------------------------
# sign tests
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(cones(), vector, positive)
def test_cone2_membership_matches_fraction_reference(c, u, t):
    for v in _probes(c.generators(), u, t):
        assert c.contains(v) == _ref_contains(c, v), (c, v)
        assert c.ri_contains(v) == _ref_ri_contains(c, v), (c, v)


@settings(max_examples=300, deadline=None)
@given(arcs(), vector, positive)
def test_wedge_contains_matches_fraction_reference(arc, d, t):
    assert arc._minor == _ref_minor(arc)
    gens = [arc.start_radial, arc.end_radial, vsub(arc.start, arc.center),
            vsub(arc.end, arc.center)]
    for v in _probes(gens, d, t):
        for strict in (False, True):
            assert (arc.wedge_contains(v, strict=strict)
                    == _ref_wedge_contains(arc, v, strict)), (arc, v, strict)


def test_arc_kinds_are_drawn():
    """The arc strategy reaches all three kinds the wedge test separates."""
    seen = set()

    @settings(max_examples=60, deadline=None)
    @given(arcs())
    def collect(arc):
        c = _cross(arc.start_radial, arc.end_radial)
        seen.add("minor" if c > 0 else "major" if c < 0 else "pi")

    collect()
    assert seen == {"minor", "major", "pi"}


values = st.builds(QuadVal, coord, st.one_of(st.just(F(0)), positive),
                   st.one_of(st.just(F(0)), positive, positive.map(lambda x: x * x)))


@settings(max_examples=400, deadline=None)
@given(values, values, positive)
def test_quad_compare_matches_fraction_reference(a, b, k):
    # the same number as a, written with another radical part
    ties = [QuadVal(a.q, a.s * k, a.m / (k * k))]
    r = sqrt_exact(a.m)
    if r is not None:
        ties.append(QuadVal(a.q + a.s * r))
    pairs = [(a, b), (b, a), (a, a), (a, QuadVal(a.q)), (QuadVal(b.q), a)]
    pairs += [(a, z) for z in ties] + [(z, a) for z in ties]
    for x, y in pairs:
        assert quad_compare(x, y) == _ref_quad_compare(x, y), (x, y)
    assert all(quad_compare(a, z) == 0 for z in ties)


# ---------------------------------------------------------------------------
# support oracle and junction lookup
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PLANAR)), nonzero, positive)
def test_support_matches_all_quadval_maximum(name, u, t):
    body = PLANAR[name]
    for v in (u, vscale(t, u), vscale(t + 7, u)):
        assert _exact(planar._support(body, v)) == _exact(_ref_support(body, v))


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_support_matches_all_quadval_maximum_on_compass(name):
    body = PLANAR[name]
    for u in planar.compass_directions(72):
        assert _exact(planar._support(body, u)) == _exact(_ref_support(body, u))


def _scan(body, point):
    for j in range(body.n):
        if body.junction(j) == point:
            return j
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PLANAR)), st.integers(0, 20), vector)
def test_junction_index_matches_linear_scan(name, j, offset):
    body = PLANAR[name]
    for x in (body.junction(j), vadd(body.junction(j), offset), offset):
        want = _scan(body, x)
        if want is None:
            with pytest.raises(NotAFace):
                planar._junction_index(body, x)
        else:
            assert planar._junction_index(body, x) == want


def test_support_compares_each_arc_candidate_at_most_once(monkeypatch):
    """Junction values are ranked as integers, so within `_support` only arc
    candidates (arcs whose wedge strictly holds u) reach `quad_compare`."""
    calls, candidates, inside = [0], [0], [False]
    compare, support = planar.quad_compare, planar._support

    def counting_compare(a, b):
        calls[0] += inside[0]
        return compare(a, b)

    def counting_support(body, u):
        candidates[0] += sum(isinstance(f, Arc) and f.wedge_contains(u, strict=True)
                             for f in body.features)
        inside[0] = True
        try:
            return support(body, u)
        finally:
            inside[0] = False

    monkeypatch.setattr(planar, "quad_compare", counting_compare)
    monkeypatch.setattr(planar, "_support", counting_support)
    assert len(PLANAR) == 10
    for name in sorted(PLANAR):
        assert checks.run_suite(bodyio.load_fixture(name), name, "all").passed, name
    assert 0 < calls[0] <= candidates[0]


# ---------------------------------------------------------------------------
# the partition check, counted once per sign cell
# ---------------------------------------------------------------------------

CLOSED = sorted(name for name, body in PLANAR.items() if body.is_closed())


def _ref_touching_counts(cones, arcs, dirs):
    """The all-cones scan: every direction against every cone and arc."""
    return [sum(c.ri_contains(u) for c in cones)
            + sum(f.wedge_contains(u, strict=True) for f in arcs) for u in dirs]


@pytest.mark.parametrize("name", CLOSED)
def test_cell_keyed_touching_counts_equal_all_cones_scan(name):
    """Each direction gets the count of the plain scan, on the compass and
    on every boundary ray; a duplicated cone and a removed cone or arc
    family leave a direction whose count is not 1, and the check fails."""
    body = PLANAR[name]
    inv = body._inventory
    cones = [*inv.proper_normal, *inv.extra_touching]
    arcs = [body.features[i] for i in inv.arc_families]
    rays = [r for c in cones for r in (c.d1, c.d2) if r is not None]
    rays += [r for f in arcs for r in (f.start_radial, f.end_radial)]
    dirs = planar.compass_directions(72) + rays + [vneg(r) for r in rays]
    counts = list(planar._touching_counts(cones, arcs, dirs))
    assert counts == _ref_touching_counts(cones, arcs, dirs)
    assert all(n == 1 for n in counts)
    broken = [(cones + [c], arcs, c.ri_vector(), 2) for c in cones]
    broken += [([k for k in cones if k != c], arcs, c.ri_vector(), 0) for c in cones]
    broken += [(cones, [g for g in arcs if g != f], f.interior_direction(), 0)
               for f in arcs]
    for cs, fs, u, want in broken:
        # u late in the list, after directions of its own cell
        probe = dirs + [u]
        counts = list(planar._touching_counts(cs, fs, probe))
        assert counts == _ref_touching_counts(cs, fs, probe)
        assert counts[-1] == want
    cs, fs, u, _ = broken[0]
    body = bodyio.load_fixture(name)
    object.__setattr__(body, "_inventory", planar.ConeInventory(
        tuple(cs), inv.arc_families, (), inv.non_exposed))
    rep = planar.partition_check_planar(body, dirs + [u])
    assert not rep.passed and rep.details


# ---------------------------------------------------------------------------
# int directions against the same directions as Fractions
# ---------------------------------------------------------------------------

def _sign(x):
    return (x > 0) - (x < 0)


def _as_fractions(v):
    return tuple(map(F, v))


def _variants(v):
    """v as it is, as Fractions and with one coordinate of each type."""
    f = _as_fractions(v)
    return [v, f, (v[0], f[1]), (f[0], v[1])]


big = st.integers(-10**12, 10**12)


@settings(max_examples=300, deadline=None)
@given(st.tuples(big, big), st.tuples(big, big), st.integers(-3, 3), rational)
def test_int_sign_predicates_equal_fraction_signs(a, b, k, r):
    """`orient2`, `dot2_sign` and `is_zero` on int, Fraction and mixed
    pairs give the signs of the Fraction formulas, also against parallel
    (k*a), perpendicular, zero and non-integral partners."""
    partners = [b, (k * a[0], k * a[1]), (-a[1], a[0]), (0, 0), (r * b[0], b[1])]
    for p, q in [(a, w) for w in partners] + [(w, a) for w in partners]:
        fp, fq = _as_fractions(p), _as_fractions(q)
        cross, inner = _sign(_cross(fp, fq)), _sign(_dot(fp, fq))
        for x in _variants(p):
            assert is_zero(x) == (fp == (0, 0)), x
            for y in _variants(q):
                assert orient2(x, y) == cross, (x, y)
                assert dot2_sign(x, y) == inner, (x, y)


@settings(max_examples=300, deadline=None)
@given(nonzero, nonzero, positive, positive)
def test_cones_from_rational_multiples_equal_int_primitive_cones(a, b, s, t):
    """`Cone2.ray` and `Cone2.sector` of positive rational multiples equal
    the cones built from the int primitive forms (the Fraction `primitive`
    read as ints), and every direction they hand out is an int pair."""
    pa, pb = (tuple(map(int, primitive(v))) for v in (a, b))
    ray = Cone2.ray(pa)
    for v in (a, vscale(s, a), vscale(t, pa), pa, (3 * pa[0], 3 * pa[1])):
        c = Cone2.ray(v)
        assert c == ray and c.key == ray.key and c.label() == ray.label()
        assert all(type(x) is int for x in c.d1)
    if _cross(a, b) == 0 and _dot(a, b) < 0:
        with pytest.raises(ValueError):
            Cone2.sector(vscale(s, a), vscale(t, b))
        return
    sector = Cone2.sector(pa, pb)
    for v, w in ((a, b), (vscale(s, a), vscale(t, b)), (vscale(t, b), vscale(s, a)),
                 (pa, vscale(t, b)), (pb, (2 * pa[0], 2 * pa[1]))):
        c = Cone2.sector(v, w)
        assert c == sector and c.key == sector.key, (v, w)
        assert all(type(x) is int for d in c.generators() + [c.ri_vector()] for x in d)


@pytest.mark.parametrize("name", sorted(PLANAR))
@settings(max_examples=25, deadline=None)
@given(u=st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(any),
       int_first=st.booleans())
def test_int_and_fraction_directions_share_one_support_entry(name, u, int_first):
    """`support_value` of (x, y) and of (F(x), F(y)) is one memo entry,
    whichever comes first, and equals the all-QuadVal reference."""
    body = bodyio.load_fixture(name)  # a fresh, empty memo
    fu = _as_fractions(u)
    first, second = (u, fu) if int_first else (fu, u)
    answer = planar.support_value(body, first)
    assert planar.support_value(body, second) is answer
    assert len(body._support_memo) == 1
    assert _exact(answer) == _exact(_ref_support(body, fu))
