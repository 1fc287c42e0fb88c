"""The planar layer's integer predicates against the Fraction routes they
replaced.

Each `_ref_*` function below is a copy of the earlier code, written on
Fraction values: the cross and dot products are formed as numbers and then
compared with 0, the support oracle ranks every candidate, junctions
included, as a `QuadVal` with the Fraction `quad_compare`, the radial point
is a Fraction square root and the gauge a maximum of `QuadVal`s.
"""

from collections import Counter
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelat import bodyio, checks, planar
from facelat.errors import (InvariantViolation, NotAFace, OriginNotInterior,
                            UnsupportedArcCenter, ZeroDirection)
from facelat.exactgeom import (dot, dot2_sign, is_zero, orient2, primitive,
                               vadd, vneg, vscale, vsub)
from facelat.planar import (Arc, Cone2, FaceDescriptor, PlanarBody, QuadVal,
                            Segment, quad_compare)

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
    if c.kind == "plane":  # a subspace: its own relative interior, 0 included
        return True
    if is_zero(u):
        return False
    if c.kind == "ray":
        return _ref_contains(c, u)
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


def sqrt_exact(x):
    """Rational square root of x, or None when x is not a perfect square."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return F(rn, rd)
    return None


def _ref_radial_point(arc, u):
    t = sqrt_exact(arc.radius_sq / dot(u, u))
    return vadd(arc.center, vscale(t, u)) if t is not None else None


def _ref_gauge_value(body, u):
    if is_zero(u):
        raise ZeroDirection("gauge direction must be nonzero")
    best = None
    for f in body.features:
        if isinstance(f, Segment):
            n = f.outward_normal
            num = dot(n, u)
            if num <= 0:
                continue
            val = QuadVal(num / dot(n, f.start))
        else:
            d = vsub(u, f.center)  # centers are 0 for supported bodies
            if not f.wedge_contains(d):
                continue
            val = QuadVal(F(0), F(1), dot(u, u) / f.radius_sq)
        if best is None or quad_compare(val, best) > 0:
            best = val
    if best is None:
        raise InvariantViolation("a bounded body bounds every ray")
    return best


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


def _ref_closure_contains(body, x):
    for f in body.features:
        if isinstance(f, Segment):
            n = f.outward_normal
            if dot(n, x) > dot(n, f.start):
                return False
        else:
            d = vsub(x, f.center)
            if f.wedge_contains(d) and dot(d, d) > f.radius_sq:
                return False
            for endpoint in (f.start, f.end):
                rad = f.normal_at(endpoint)
                if dot2_sign(rad, vsub(x, endpoint)) > 0:
                    return False
    return True


def _ref_locate(body, x):
    """The two-walk classification: the features' relative interiors first,
    then the closure's constraints."""
    j = body._junction_indices.get(planar._exact_key(x))
    if j is not None:
        return ("junction", j)
    for i, f in enumerate(body.features):
        if isinstance(f, Segment):
            d = f.direction
            rel = vsub(x, f.start)
            if orient2(d, rel) == 0:
                t = dot(rel, d)
                if 0 < t < dot(d, d):
                    return ("segment", i)
        else:
            if f.point_on(x, strict=True):
                return ("arc", i)
    return "interior" if _ref_closure_contains(body, x) else "outside"


def _exact(answer):
    """Everything a support answer carries, with the types of its numbers:
    the values and the point are Fractions, the direction ints."""
    h, f = answer
    return (h, f.tag, f.feature, f.point, f.direction,
            tuple(type(x) for x in (h.q, h.s, h.m) + (f.point or ())),
            tuple(type(x) for x in f.direction or ()))


def _fresh(body, u):
    """The (value, face) answer computed afresh: the value from the integer
    `support_form`, the face from `_support` on a scan of its own."""
    return (planar._quad(planar.support_form(body, u)),
            planar._support(body, u, planar._support_scan(body, u)))


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
def arcs(draw, centers=None, kinds=("minor", "major", "pi")):
    """Arcs through rational points of the circle of squared radius
    r^2*(a^2 + b^2) around a rational center, which is not a square for
    (a, b) = (1, 1), (2, 1) or (3, 1): the point center + r*(a, b) turned by
    rational rotations (the rational parametrisation, t = None giving the
    turn by pi).  Minor ones, major ones and ones of exactly pi."""
    center = draw(vector if centers is None else centers)
    r = draw(positive)
    a, b = draw(st.sampled_from([(1, 0), (1, 1), (2, 1), (3, 1)]))
    params = st.one_of(st.none(), st.builds(F, st.integers(-9, 9),
                                            st.integers(1, 4)))

    def point(t):
        x, y = (F(-1), F(0)) if t is None else ((1 - t * t) / (1 + t * t),
                                                2 * t / (1 + t * t))
        return (center[0] + r * (a * x - b * y), center[1] + r * (a * y + b * x))

    s = draw(params)
    start = point(s)
    kind = draw(st.sampled_from(kinds))
    if kind == "pi":
        end = vsub(vscale(2, center), start)
    else:
        end = point(draw(params.filter(lambda e: e != s)))
        if (_cross(vsub(start, center), vsub(end, center)) > 0) != (kind == "minor"):
            start, end = end, start
    return Arc(center, r * r * (a * a + b * b), start, end)


def chord_body(arc):
    """The closed body of one arc and the chord back to its start."""
    return PlanarBody((arc, Segment(arc.end, arc.start)), (True, True), (True, True))


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
        assert _exact(_fresh(body, v)) == _exact(_ref_support(body, v))


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_support_matches_all_quadval_maximum_on_compass(name):
    body = PLANAR[name]
    for u in planar.compass_directions(72):
        assert _exact(_fresh(body, u)) == _exact(_ref_support(body, u))


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
    """Junction values are ranked as integers, and so is each arc candidate
    (an arc whose wedge strictly holds u): within `_support_scan` every arc
    candidate makes one `_root_sign` call against the best value so far,
    and nothing reaches `quad_compare` or builds a `QuadVal`."""
    calls, candidates, inside = Counter(), [0], [False]
    scan = planar._support_scan

    def counting(name):
        original = getattr(planar, name)

        def wrapper(*args):
            calls[name] += inside[0]
            return original(*args)
        monkeypatch.setattr(planar, name, wrapper)

    def counting_scan(body, u):
        candidates[0] += sum(isinstance(f, Arc) and f.wedge_contains(u, strict=True)
                             for f in body.features)
        inside[0] = True
        try:
            return scan(body, u)
        finally:
            inside[0] = False

    for name in ("quad_compare", "_root_sign", "QuadVal"):
        counting(name)
    monkeypatch.setattr(planar, "_support_scan", counting_scan)
    assert len(PLANAR) == 10
    for name in sorted(PLANAR):
        assert checks.run_suite(bodyio.load_fixture(name), name, "all").passed, name
    assert calls["quad_compare"] == calls["QuadVal"] == 0
    assert 0 < calls["_root_sign"] == candidates[0]


# ---------------------------------------------------------------------------
# the integer support, radial point and gauge against the Fraction references
# ---------------------------------------------------------------------------

int_direction = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(any)


def _directions(w, v, t, k):
    """An int direction as ints, as Fractions and times k, and a Fraction
    direction, each also times the positive rational t."""
    return [w, _as_fractions(w), (k * w[0], k * w[1]), vscale(t, w), v, vscale(t, v)]


def _boundary_directions(body):
    """Every segment normal and arc end radial with its negation, and a
    direction inside each arc: where junctions tie and wedges end."""
    out = []
    for f in body.features:
        if isinstance(f, Segment):
            out.append(f.outward_normal)
        else:
            out += [f.start_radial, f.end_radial, f.interior_direction()]
    return out + [vneg(d) for d in out]


def _typed(numbers):
    return numbers, tuple(type(x) for x in numbers or ())


def _assert_integer_routes(body, dirs, gauge):
    """`_support`, every arc's `radial_point` and (when the body is a gauge
    body) `gauge_value` give the references' values, faces and points, with
    the same number types."""
    for u in dirs:
        assert _exact(_fresh(body, u)) == _exact(_ref_support(body, u)), u
        for f in body.features:
            if isinstance(f, Arc):
                want = _ref_radial_point(f, u)
                assert _typed(f.radial_point(u)) == _typed(want), (f, u)
        if gauge:
            h, want = planar.gauge_value(body, u), _ref_gauge_value(body, u)
            assert _typed((h.q, h.s, h.m)) == _typed((want.q, want.s, want.m)), u


def _polar_or_none(body):
    try:
        return planar.polar_planar(body)
    except (OriginNotInterior, UnsupportedArcCenter):
        return None


GAUGED = sorted(name for name, body in PLANAR.items() if _polar_or_none(body))


def test_gauge_fixtures_are_drawn():
    assert GAUGED == ["square_planar", "truncated_disk_closed", "unit_disk"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(PLANAR)), int_direction, nonzero, positive,
       st.integers(2, 5))
def test_integer_routes_match_references_on_fixtures(name, w, v, t, k):
    """On every planar fixture, and on the polar of each gauge body, the
    integer routes equal the references for int, Fraction and positively
    scaled directions."""
    body = PLANAR[name]
    polar = _polar_or_none(body)
    dirs = _directions(w, v, t, k)
    _assert_integer_routes(body, dirs, gauge=polar is not None)
    if polar is not None:
        _assert_integer_routes(polar, dirs, gauge=True)


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_integer_routes_match_references_on_compass_and_boundary(name):
    body = PLANAR[name]
    polar = _polar_or_none(body)
    dirs = planar.compass_directions(72) + _boundary_directions(body)
    _assert_integer_routes(body, dirs, gauge=polar is not None)
    if polar is not None:
        _assert_integer_routes(polar, dirs + _boundary_directions(polar), gauge=True)


@settings(max_examples=150, deadline=None)
@given(arcs(), int_direction, nonzero, positive, st.integers(2, 5))
def test_integer_routes_match_references_on_chord_bodies(arc, w, v, t, k):
    """One arc (off-origin center, square or non-square radius_sq) and the
    chord back: its edge, both junctions and the arc's points."""
    body = chord_body(arc)
    dirs = _directions(w, v, t, k) + _boundary_directions(body)
    _assert_integer_routes(body, dirs, gauge=False)


major_about_origin = arcs(centers=st.just((F(0), F(0))), kinds=("major",)).filter(
    lambda a: _cross(a.start_radial, a.end_radial) < 0)


@settings(max_examples=150, deadline=None)
@given(major_about_origin, int_direction, nonzero, positive, st.integers(2, 5))
def test_integer_gauge_matches_reference_on_chord_bodies(arc, w, v, t, k):
    """A major arc about the origin and its chord hold the origin inside, so
    they and their polars are gauge bodies."""
    body = chord_body(arc)
    polar = planar.polar_planar(body)
    dirs = _directions(w, v, t, k)
    _assert_integer_routes(body, dirs + _boundary_directions(body), gauge=True)
    _assert_integer_routes(polar, dirs + _boundary_directions(polar), gauge=True)


def test_support_raises_when_an_arc_ties_the_maximum():
    """A boundary that no `PlanarBody` accepts (it is built unchecked): the
    upper half of the unit circle with a junction at its top point (0, 1).
    Direction (0, 1) then finds the arc's value 1 equal to the junction
    maximum, which the integer route, like the reference, reports."""
    o, east, west, top = (F(0), F(0)), (F(1), F(0)), (F(-1), F(0)), (F(0), F(1))
    body = object.__new__(PlanarBody)
    features = (Arc(o, F(1), east, west), Segment(west, top), Segment(top, east))
    for field, value in (("features", features), ("feature_closed", (True,) * 3),
                         ("vertex_closed", (True,) * 3)):
        object.__setattr__(body, field, value)
    for u in ((0, 1), (F(0), F(2))):
        for route in (planar._support_scan, _ref_support):
            with pytest.raises(InvariantViolation, match="ties"):
                route(body, u)
    assert _exact(_fresh(body, (1, 3))) == _exact(_ref_support(body, (1, 3)))


def test_support_value_scans_the_body_once_per_call(monkeypatch):
    """`support_value` reads the face and the form off one `_support_scan`:
    on a memo miss that scan also builds the face, and on a hit it gives
    the form, so every call scans once.  Both answers equal a fresh
    computation."""
    body, scans = bodyio.load_fixture("stadium"), []
    real = planar._support_scan

    def counting(body, u):
        scans.append(u)
        return real(body, u)

    dirs = planar.compass_directions(72)
    want = [_exact(_fresh(body, u)) for u in dirs]
    monkeypatch.setattr(planar, "_support_scan", counting)
    for rounds in (1, 2):  # misses, then hits
        assert [_exact(planar.support_value(body, u)) for u in dirs] == want
        assert len(scans) == 72 * rounds and len(body._support_memo) == 72


def test_exposed_face_builds_no_quadval(monkeypatch):
    """Faces are read off the support memo: a compass sweep of
    `exposed_face` and `touching_cone` on the unit disk builds no
    `QuadVal`; `support_value` then builds one per call, off the faces
    already memoised, and computes no face afresh."""
    built, computed = [0], [0]
    real, core = planar.QuadVal, planar._support

    def counting(*args):
        built[0] += 1
        return real(*args)

    def counting_support(body, u, scan):
        computed[0] += 1
        return core(body, u, scan)

    monkeypatch.setattr(planar, "QuadVal", counting)
    monkeypatch.setattr(planar, "_support", counting_support)
    body = bodyio.load_fixture("unit_disk")
    dirs = planar.compass_directions(360)
    for u in dirs:
        planar.exposed_face(body, u)
        planar.touching_cone(body, u)
    assert built[0] == 0 and len(body._support_memo) >= 360
    faces, calls = dict(body._support_memo), computed[0]
    for rounds in (1, 2):
        for u in dirs:
            planar.support_value(body, u)
        assert built[0] == 360 * rounds
    assert computed[0] == calls and body._support_memo == faces


def test_cross_checks_fail_when_the_arc_comparison_flips(monkeypatch):
    """A planted defect: the support maximum's integer comparison of each arc
    candidate with the best value so far returns the opposite sign, in the
    one loop (`_support_scan`) that both the face and the support form read.
    Arcs then lose to the junctions, and the cross-checks that read the
    support oracle stop passing: on the unit disk, support of the polar
    against the gauge (the forms agree at 2 of 120 directions; the faces
    stop at (0, -1), where the two junctions tie, and the values differ
    wherever they get through), and on the stadium the antitone and sharp
    suites."""
    disk, stadium = bodyio.load_fixture("unit_disk"), bodyio.load_fixture("stadium")
    for name, suite in (("unit_disk", "polar"), ("stadium", "antitone"), ("stadium", "sharp")):
        assert checks.run_suite(bodyio.load_fixture(name), name, suite).passed
    root_sign, scan, inside = planar._root_sign, planar._support_scan, [False]

    def flipped(*args):
        c = root_sign(*args)
        return -c if inside[0] else c

    def flagged(body, u):
        inside[0] = True
        try:
            return scan(body, u)
        finally:
            inside[0] = False

    monkeypatch.setattr(planar, "_root_sign", flipped)
    monkeypatch.setattr(planar, "_support_scan", flagged)
    verdicts = {v.check_id: v.status
                for v in checks.run_suite(disk, "unit_disk", "polar").verdicts}
    assert verdicts["polar.support_equals_gauge"] == "fail"
    polar, agree = planar.polar_planar(disk), []
    dirs = planar.compass_directions(120)
    forms = [planar.form_compare(planar.support_form(polar, u), planar.gauge_form(disk, u))
             for u in dirs]
    assert len(forms) == 120 and forms.count(0) == 2
    for u in dirs:
        try:
            h, _ = planar.support_value(polar, u)
        except InvariantViolation:
            continue
        agree.append(quad_compare(h, planar.gauge_value(disk, u)) == 0)
    assert len(agree) == 118 and sum(agree) == 2
    verdicts = {v.check_id: v.status
                for v in checks.run_suite(stadium, "stadium", "antitone").verdicts}
    assert verdicts["antitone.pointwise_duality"] == "fail"
    with pytest.raises(ValueError):
        checks.run_suite(bodyio.load_fixture("stadium"), "stadium", "sharp")


# ---------------------------------------------------------------------------
# support and gauge forms (P + sqrt(R))/E against the Fraction references
# ---------------------------------------------------------------------------

radicands = st.one_of(st.just(0), st.integers(1, 50), st.integers(1, 12).map(lambda x: x * x))
forms = st.tuples(st.integers(-30, 30), radicands, st.integers(1, 12))


@settings(max_examples=400, deadline=None)
@given(forms, forms, st.integers(1, 5))
def test_form_compare_matches_fraction_reference(a, b, k):
    """`form_compare` is the order of the values: it equals the Fraction
    reference on their `QuadVal`s, and a form scaled by k (P and E by k, R
    by k^2) ties with itself."""
    scaled = (a[0] * k, a[1] * k * k, a[2] * k)
    for x, y in ((a, b), (b, a), (a, a), (a, scaled), (scaled, b)):
        assert planar.form_compare(x, y) == _ref_quad_compare(planar._quad(x), planar._quad(y))
    assert planar._quad(scaled) == planar._quad(a)


def _assert_forms(body, dirs, gauge):
    """The support form, and on a gauge body the gauge form, of each
    direction: E > 0, R >= 0, and the value is the reference's `QuadVal`,
    number types and radical part included."""
    for u in dirs:
        refs = [(planar.support_form, _ref_support(body, u)[0])]
        if gauge:
            refs.append((planar.gauge_form, _ref_gauge_value(body, u)))
        for route, want in refs:
            p, r, e = form = route(body, u)
            assert all(type(x) is int for x in form) and e > 0 and r >= 0, (u, form)
            h = planar._quad(form)
            assert _typed((h.q, h.s, h.m)) == _typed((want.q, want.s, want.m)), (u, route)


def _gauge_body(body):
    try:
        body._gauge_rows
    except (OriginNotInterior, UnsupportedArcCenter):
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PLANAR)), nonzero, positive)
def test_forms_match_references_on_fixtures(name, u, t):
    """On every planar fixture, on the polar of each polar body, for u, t*u
    and (t + 7)*u."""
    body = PLANAR[name]
    dirs = [u, vscale(t, u), vscale(t + 7, u)]
    _assert_forms(body, dirs, gauge=_gauge_body(body))
    if (polar := _polar_or_none(body)) is not None:
        _assert_forms(polar, dirs, gauge=True)


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_forms_match_references_on_compass(name):
    """The polar suite's 120 compass directions and the boundary rays."""
    body = PLANAR[name]
    dirs = planar.compass_directions(120) + _boundary_directions(body)
    _assert_forms(body, dirs, gauge=_gauge_body(body))
    if (polar := _polar_or_none(body)) is not None:
        _assert_forms(polar, dirs + _boundary_directions(polar), gauge=True)


@settings(max_examples=150, deadline=None)
@given(arcs(centers=st.just((F(0), F(0)))), nonzero, positive)
def test_forms_match_references_on_origin_chord_bodies(arc, u, t):
    """An arc about the origin and its chord: every such body has a support
    form; the major ones hold the origin inside and so have a gauge form,
    as does their polar, while the gauge of the others is refused."""
    body = chord_body(arc)
    dirs = [u, vscale(t, u), vscale(t + 7, u)] + _boundary_directions(body)
    major = _cross(arc.start_radial, arc.end_radial) < 0
    _assert_forms(body, dirs, gauge=major)
    if major:
        polar = planar.polar_planar(body)
        _assert_forms(polar, dirs + _boundary_directions(polar), gauge=True)
    else:
        with pytest.raises(OriginNotInterior):
            planar.gauge_form(body, u)


# the error each fixture's gauge raises: arcs off the origin, or the origin
# on the boundary; the non-closed truncated_disk_open keeps its gauge
GAUGE_REFUSED = {"lens": UnsupportedArcCenter, "stadium": UnsupportedArcCenter,
                 "quarter_disk": OriginNotInterior,
                 "triangle_minus_vertex": OriginNotInterior,
                 "triangle_open_side": OriginNotInterior,
                 "triangle_open_side_apex": OriginNotInterior}


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_gauge_value_is_the_reference_or_refused(name):
    """Each `gauge_value` equals the reference or raises the error
    `polar_planar` raises for the same precondition; before, the stadium's
    gauge at (4, -3) read 5 (the true gauge is 25/8) and at (1, 0) raised
    `InvariantViolation`, the lens's read 1 at (1, 0) (true: 5/2), and the
    bodies with the origin on the boundary divided by zero at (1, -1)."""
    body = bodyio.load_fixture(name)
    dirs = (planar.compass_directions(120) + _boundary_directions(body)
            + [(4, -3), (1, 0), (0, 1), (1, -1), (F(1, 3), F(-2, 5))])
    refused = GAUGE_REFUSED.get(name)
    for u in dirs:
        if refused is None:
            h, want = planar.gauge_value(body, u), _ref_gauge_value(body, u)
            assert _typed((h.q, h.s, h.m)) == _typed((want.q, want.s, want.m)), u
        else:
            with pytest.raises(refused):
                planar.gauge_value(body, u)
    if refused is not None and body.is_closed():
        with pytest.raises(refused):
            planar.polar_planar(body)


def test_gauge_checks_its_body_once(monkeypatch):
    """The origin and the arc centers are checked once per body, not once
    per direction."""
    calls, real = [0], planar._require_gauge_body

    def counting(body):
        calls[0] += 1
        return real(body)

    monkeypatch.setattr(planar, "_require_gauge_body", counting)
    body = bodyio.load_fixture("truncated_disk_closed")
    for u in planar.compass_directions(120):
        planar.gauge_form(body, u)
        planar.gauge_value(body, u)
    assert calls[0] == 1


def test_polar_suite_checks_each_body_once(monkeypatch):
    """`polar_planar` and the gauge rows share one check of a body: the
    polar suite checks the body once, and its polar body once."""
    seen, real = [], planar._require_gauge_body

    def counting(body):
        seen.append(body)
        return real(body)

    monkeypatch.setattr(planar, "_require_gauge_body", counting)
    body = bodyio.load_fixture("square_planar")
    report = checks.run_suite(body, "square_planar", "polar")
    assert all(v.status == "pass" for v in report.verdicts)
    assert sum(b is body for b in seen) == 1
    assert len({id(b) for b in seen}) == len(seen) == 2


@pytest.mark.parametrize("name", GAUGED)
def test_a_wrong_gauge_form_fails_support_equals_gauge(monkeypatch, name):
    """A planted defect: the gauge form's P off by one.  The failing detail
    names the first four directions where the forms differ, and no longer
    claims a maximum deviation of 0."""
    claim = ("the support function of the polar equals the gauge of the body, "
             "exactly, at 120 rational directions")

    def verdict():
        report = checks.run_suite(bodyio.load_fixture(name), name, "polar")
        return next(v for v in report.verdicts
                    if v.check_id == "polar.support_equals_gauge")

    passing = verdict()
    assert (passing.status, passing.detail) == ("pass", claim + " (max deviation 0)")
    real = planar.gauge_form
    monkeypatch.setattr(planar, "gauge_form",
                        lambda body, u: (lambda p, r, e: (p + 1, r, e))(*real(body, u)))
    failing = verdict()
    assert failing.status == "fail"
    head, *failures = failing.detail.split("; ")
    assert head == claim and "deviation" not in failing.detail
    first = planar.compass_directions(120)[:4]
    assert failures == [f"direction {u}: the polar's support differs from the body's gauge"
                        for u in first]


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_a_wrong_support_form_fails_pointwise_duality(monkeypatch, name):
    """A planted defect: the support form's P off by one in `_support_scan`,
    which `support_value` and `support_form` read.  The antitone suite's
    pointwise duality fails on every fixture, and on the polar bodies so
    does support = gauge."""
    def verdicts(suite):
        report = checks.run_suite(bodyio.load_fixture(name), name, suite)
        return {v.check_id: v.status for v in report.verdicts}

    polar = name in GAUGED
    assert verdicts("antitone")["antitone.pointwise_duality"] == "pass"
    real = planar._support_scan

    def planted(body, u):
        best, vals, top, (p, r, e) = real(body, u)
        return best, vals, top, (p + 1, r, e)

    monkeypatch.setattr(planar, "_support_scan", planted)
    assert verdicts("antitone")["antitone.pointwise_duality"] == "fail"
    if polar:
        assert verdicts("polar")["polar.support_equals_gauge"] == "fail"


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
    cs, fs, u, want = broken[0]
    body = bodyio.load_fixture(name)
    object.__setattr__(body, "_inventory", planar.ConeInventory(
        tuple(cs), inv.arc_families, (), inv.non_exposed))
    rep = planar.partition_check_planar(body, dirs + [u])
    assert not rep.passed
    assert f"direction {u} lies in {want} touching-cone interiors" in rep.failures


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
       int_first=st.booleans(), face_first=st.booleans())
def test_int_and_fraction_directions_share_one_support_entry(name, u, int_first,
                                                             face_first):
    """`support_value` of (x, y) and of (F(x), F(y)) is one memo entry, a
    face, whichever form comes first and whether `exposed_face` or
    `support_value` asks first.  Every answer hands out that face, with a
    value equal to a fresh `_face_value` and to the all-QuadVal reference."""
    body = bodyio.load_fixture(name)  # a fresh, empty memo
    fu = _as_fractions(u)
    first, second = (u, fu) if int_first else (fu, u)
    face = None
    if face_first:
        planar.exposed_face(body, second)
        (face,) = body._support_memo.values()
    answer = planar.support_value(body, first)
    again = planar.support_value(body, second)
    (entry,) = body._support_memo.values()
    assert type(entry) is FaceDescriptor
    assert answer[1] is entry and again[1] is entry
    assert face is None or entry is face
    for v, got in ((first, answer), (second, again)):
        assert _exact(got) == _exact(_fresh(body, v))
    assert _exact(answer) == _exact(again) == _exact(_ref_support(body, fu))


# ---------------------------------------------------------------------------
# one-walk membership against the two-walk reference
# ---------------------------------------------------------------------------

def _locate_probes(body, x, eps):
    """x, the origin, every junction, and points on, just inside and just
    outside each feature (eps > 0 a small step): segment midpoints and the
    line beyond each end, arc points and their mirror images through the
    center, off the circle along the radius, and off each arc end along
    its tangent."""
    out = [x, (F(0), F(0))]
    for f in body.features:
        out.append(f.start)
        if isinstance(f, Segment):
            mid = vscale(F(1, 2), vadd(f.start, f.end))
            step = vscale(eps, f.outward_normal)
            out += [mid, vadd(mid, step), vsub(mid, step),
                    vadd(f.end, f.direction), vsub(f.start, f.direction),
                    vadd(f.end, step), vsub(f.start, step)]
        else:
            out.append(f.center)
            for p in f.rational_points() + [f.start, f.end]:
                r = vsub(p, f.center)
                tangent = vscale(eps, (-r[1], r[0]))
                out += [p, vsub(f.center, r), vadd(p, vscale(eps, r)),
                        vsub(p, vscale(eps, r)), vadd(p, tangent), vsub(p, tangent)]
    return out


def _assert_locate(body, points):
    for x in points:
        assert body.locate(x) == _ref_locate(body, x), x


small = st.builds(F, st.integers(1, 9), st.integers(20, 200))


def test_locate_probes_reach_every_location():
    """The probes on the fixtures land outside, inside, at junctions and on
    segments and arcs, so the comparisons below see every answer."""
    kinds = Counter()
    for body in PLANAR.values():
        for x in _locate_probes(body, (F(0), F(0)), F(1, 50)):
            loc = body.locate(x)
            kinds[loc if isinstance(loc, str) else loc[0]] += 1
    assert set(kinds) == {"outside", "interior", "junction", "segment", "arc"}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PLANAR)), vector, small)
def test_locate_matches_two_walk_reference_on_fixtures(name, x, eps):
    _assert_locate(PLANAR[name], _locate_probes(PLANAR[name], x, eps))


@settings(max_examples=150, deadline=None)
@given(arcs(), vector, small)
def test_locate_matches_two_walk_reference_on_chord_bodies(arc, x, eps):
    """One arc (minor, major or of pi) and its chord, on probes near both."""
    body = chord_body(arc)
    _assert_locate(body, _locate_probes(body, x, eps))
