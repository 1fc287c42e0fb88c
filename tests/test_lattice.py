from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelat.lattice import (DuplicateElement, NotALattice, build_lattice,
                             decompose_by_atoms, decompose_by_coatoms,
                             lattice_map, verify_isomorphism)
from facelat.lattice import (FiniteLattice, LatticeError, LatticeMap, element_key,
                             element_label)


def mask(s, letters="abcde"):
    """The inclusion mask of a set of letters or of small ints."""
    return sum(1 << (letters.index(c) if isinstance(c, str) else c) for c in s)


def powerset_lattice(letters="ab"):
    els = [frozenset(c) for r in range(len(letters) + 1)
           for c in combinations(letters, r)]
    return build_lattice(els, [mask(e) for e in els])


def test_powerset_lattice():
    lat = powerset_lattice()
    assert len(lat) == 4
    assert lat.elements[lat.bottom] == frozenset()
    assert lat.elements[lat.top] == frozenset("ab")
    assert sorted(lat.elements[i] for i in lat.atoms()) == [frozenset("a"), frozenset("b")]
    assert sorted(lat.elements[i] for i in lat.coatoms()) == [frozenset("a"), frozenset("b")]


def test_meet_join_conventions():
    lat = powerset_lattice()
    a, b = lat.index_of(frozenset("a")), lat.index_of(frozenset("b"))
    assert lat.elements[lat.meet([a, b])] == frozenset()
    assert lat.elements[lat.join([a, b])] == frozenset("ab")
    assert lat.meet([]) == lat.top
    assert lat.join([]) == lat.bottom
    assert lat.meet([lat.top]) == lat.top


def test_missing_supremum_is_rejected():
    els = [frozenset(), frozenset("a"), frozenset("b")]
    with pytest.raises(NotALattice):
        build_lattice(els, [mask(e) for e in els])


def test_duplicate_descriptors_rejected():
    with pytest.raises(DuplicateElement):
        build_lattice([frozenset("a"), frozenset("a")], [1, 2])


def test_order_axioms_enforced():
    # inclusion is reflexive and transitive; equal masks break antisymmetry
    with pytest.raises(NotALattice, match="^order is not antisymmetric$"):
        build_lattice([1, 2], [3, 3])


def test_masks_must_match_the_elements():
    for masks in ([1], [1, 2, 3], [0, -1]):
        with pytest.raises(ValueError):
            build_lattice([1, 2], masks)


def test_two_chain_covers():
    # the single proper cover relation makes the top an atom and the bottom
    # a coatom; nothing lies strictly between
    lat = build_lattice([frozenset(), frozenset("x")], [0, 1])
    assert lat.atoms() == [1]
    assert lat.coatoms() == [0]
    assert lat.hasse_edges() == [(0, 1)]


def test_hasse_edges_powerset():
    lat = powerset_lattice()
    assert len(lat.hasse_edges()) == 4
    chain = build_lattice([frozenset(), frozenset("x")], [0, 1])
    assert chain.hasse_edges() == [(0, 1)]


def test_atoms_coatoms_match_hasse_endpoints():
    lat = powerset_lattice("abc")
    edges = lat.hasse_edges()
    assert set(lat.atoms()) == {j for i, j in edges if i == lat.bottom}
    assert set(lat.coatoms()) == {i for i, j in edges if j == lat.top}


def test_modularity_of_powerset():
    assert powerset_lattice("abc").is_modular()


def test_pentagon_is_not_modular():
    # N5: 0 < a < b < 1 and 0 < c < 1 with c incomparable to a, b; the
    # down-set of each element as its mask encodes any partial order
    els = ["0", "a", "b", "c", "1"]
    downs = {"0": "0", "a": "0a", "b": "0ab", "c": "0c", "1": "0abc1"}
    lat = build_lattice(els, [mask(downs[x], "0abc1") for x in els])
    assert [lat.le(0, j) for j in range(5)] == [True] * 5
    assert not lat.le(1, 3) and not lat.le(3, 2) and lat.le(1, 2)
    assert not lat.is_modular()


def test_verify_isomorphism_directions():
    lat = powerset_lattice()
    ident = lattice_map(lat, lat, lambda e: e, "isotone")
    assert verify_isomorphism(ident).passed
    comp = lattice_map(lat, lat, lambda e: frozenset("ab") - e, "antitone")
    assert verify_isomorphism(comp).passed
    wrong = lattice_map(lat, lat, lambda e: frozenset("ab") - e, "isotone")
    rep = verify_isomorphism(wrong)
    assert not rep.passed and rep.bijective


def test_isomorphism_symmetric_in_inverse():
    from facelat.lattice import LatticeMap
    lat = powerset_lattice()
    comp = lattice_map(lat, lat, lambda e: frozenset("ab") - e, "antitone")
    rep = verify_isomorphism(comp)
    inverse_mapping = [0] * len(comp.mapping)
    for i, t in enumerate(comp.mapping):
        inverse_mapping[t] = i
    inv = LatticeMap(lat, lat, tuple(inverse_mapping), "antitone")
    assert rep.passed == verify_isomorphism(inv).passed is True


def test_non_injective_map_reported():
    lat = powerset_lattice()
    collapse = lattice_map(lat, lat, lambda e: frozenset(), "isotone")
    rep = verify_isomorphism(collapse)
    assert not rep.injective and not rep.passed
    assert any("not injective" in f for f in rep.failures)


def test_decompositions():
    lat = powerset_lattice("abc")
    top_f = frozenset("abc")
    idx = lat.index_of(frozenset("ab"))
    atoms = decompose_by_atoms(lat, idx, 2)
    assert atoms is not None and len(atoms) == 2
    co = decompose_by_coatoms(lat, lat.index_of(frozenset("a")), 2)
    assert co is not None and len(co) == 2
    assert decompose_by_atoms(lat, lat.index_of(top_f), 2) is None  # needs 3


def test_dot_output():
    lat = powerset_lattice()
    dot = lat.to_dot("boolean")
    assert dot.startswith("digraph boolean")
    assert dot.count("->") == 4
    assert "rank=same" in dot


@settings(max_examples=40, deadline=None)
@given(st.sets(st.frozensets(st.integers(min_value=0, max_value=4), max_size=4),
               max_size=6))
def test_closure_families_build_lattices(family):
    # close a random family under intersection and add bottom/top: the result
    # is a complete lattice ordered by inclusion with meet = intersection
    universe = frozenset(range(5))
    sets = {universe, frozenset()} | {frozenset(s) for s in family}
    changed = True
    while changed:
        changed = False
        for a in list(sets):
            for b in list(sets):
                if a & b not in sets:
                    sets.add(a & b)
                    changed = True
    for a in list(sets):
        for b in list(sets):
            ups = [u for u in sets if u >= a | b]
            join = min(ups, key=len)
            assert all(join <= u or not (u >= a | b) for u in sets)
    els = sorted(sets, key=lambda s: (len(s), sorted(s)))
    lat = build_lattice(els, [mask(e) for e in els])
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            assert lat.elements[lat.meet([i, j])] == a & b


# ---------------------------------------------------------------------------
# reference: the order-matrix implementation the bitmask rows replaced
# ---------------------------------------------------------------------------

class RefLattice:
    """Order matrix plus meet/join tables, filled by the O(n^3) search."""

    def __init__(self, elements, leq):
        elements = tuple(elements)
        if not elements:
            raise NotALattice("empty element list")
        keys = [element_key(e) for e in elements]
        if len(set(keys)) != len(keys):
            raise DuplicateElement("elements share a canonical descriptor")
        n = len(elements)
        m = tuple(tuple(bool(leq(elements[i], elements[j])) for j in range(n))
                  for i in range(n))
        for i in range(n):
            if not m[i][i]:
                raise NotALattice("order is not reflexive")
        for i in range(n):
            for j in range(n):
                if i != j and m[i][j] and m[j][i]:
                    raise NotALattice("order is not antisymmetric")
        for i in range(n):
            for j in range(n):
                if not m[i][j]:
                    continue
                for k in range(n):
                    if m[j][k] and not m[i][k]:
                        raise NotALattice("order is not transitive")
        meet_tab = [[0] * n for _ in range(n)]
        join_tab = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                lower = [k for k in range(n) if m[k][i] and m[k][j]]
                glb = [g for g in lower if all(m[k][g] for k in lower)]
                if len(glb) != 1:
                    raise NotALattice(
                        f"pair ({keys[i]!r}, {keys[j]!r}) has no infimum")
                upper = [k for k in range(n) if m[i][k] and m[j][k]]
                lub = [g for g in upper if all(m[g][k] for k in upper)]
                if len(lub) != 1:
                    raise NotALattice(
                        f"pair ({keys[i]!r}, {keys[j]!r}) has no supremum")
                meet_tab[i][j] = meet_tab[j][i] = glb[0]
                join_tab[i][j] = join_tab[j][i] = lub[0]
        self.elements, self.leq, self.n = elements, m, n
        self._meet, self._join = meet_tab, join_tab
        self.bottom = self.top = 0
        for i in range(1, n):
            self.bottom = meet_tab[self.bottom][i]
            self.top = join_tab[self.top][i]

    def lt(self, i, j):
        return i != j and self.leq[i][j]

    def meet(self, indices):
        out = None
        for i in indices:
            out = i if out is None else self._meet[out][i]
        return self.top if out is None else out

    def join(self, indices):
        out = None
        for i in indices:
            out = i if out is None else self._join[out][i]
        return self.bottom if out is None else out

    def atoms(self):
        return [x for x in range(self.n) if x != self.bottom
                and [y for y in range(self.n) if self.lt(y, x)] == [self.bottom]]

    def coatoms(self):
        return [x for x in range(self.n) if x != self.top
                and [y for y in range(self.n) if self.lt(x, y)] == [self.top]]

    def covers(self, i, j):
        return self.lt(i, j) and not any(self.lt(i, k) and self.lt(k, j)
                                         for k in range(self.n))

    def hasse_edges(self):
        return [(i, j) for i in range(self.n) for j in range(self.n)
                if self.covers(i, j)]

    def is_modular(self):
        for x in range(self.n):
            for z in range(self.n):
                if not self.leq[x][z]:
                    continue
                for y in range(self.n):
                    if (self._join[x][self._meet[y][z]]
                            != self._meet[self._join[x][y]][z]):
                        return False
        return True

    def decompose(self, x, bound, candidates, combine):
        for size in range(1, bound + 1):
            for subset in combinations(candidates, size):
                if combine(subset) == x:
                    return list(subset)
        return None


def ref_verify(src, tgt, f, direction):
    """The matrix scan of verify_isomorphism, as a report tuple."""
    failures = []
    injective = len(set(f)) == len(f)
    if not injective:
        seen = {}
        for i, t in enumerate(f):
            if t in seen:
                failures.append(
                    f"not injective: {element_label(src.elements[seen[t]])} and "
                    f"{element_label(src.elements[i])} both map to "
                    f"{element_label(tgt.elements[t])}")
                break
            seen[t] = i
    surjective = set(f) == set(range(tgt.n))
    if not surjective:
        failures.append("not surjective onto the target lattice")

    def expect(i, j):
        return tgt.leq[f[i]][f[j]] if direction == "isotone" else tgt.leq[f[j]][f[i]]

    order_ok = True
    for i in range(src.n):
        for j in range(src.n):
            if src.leq[i][j] and not expect(i, j):
                order_ok = False
                failures.append(
                    f"order violated at {element_label(src.elements[i])} <= "
                    f"{element_label(src.elements[j])}")
                break
        if not order_ok:
            break
    inverse_ok = injective and surjective
    if inverse_ok:
        inv = {t: i for i, t in enumerate(f)}
        for a in range(tgt.n):
            for b in range(tgt.n):
                if not tgt.leq[a][b]:
                    continue
                i, j = inv[a], inv[b]
                ok = src.leq[i][j] if direction == "isotone" else src.leq[j][i]
                if not ok:
                    inverse_ok = False
                    failures.append(
                        f"inverse order violated at {element_label(tgt.elements[a])}"
                        f" <= {element_label(tgt.elements[b])}")
                    break
            if not inverse_ok:
                break
    return injective, surjective, order_ok, inverse_ok, tuple(failures)


class Payload:
    """A set with a key, a label and a dimension, as the geometry layers use."""

    def __init__(self, s):
        self.set, self.key, self.dim = s, tuple(sorted(s)), len(s)

    def label(self):
        return "{" + ",".join(map(str, sorted(self.set))) + "}"


def _closed(family):
    """The family closed under intersection, plus the union as a top."""
    sets = set(family) | {frozenset().union(*family)}
    while True:
        more = {a & b for a in sets for b in sets} - sets
        if not more:
            return sets
        sets |= more


@st.composite
def mask_families(draw):
    """Elements ordered by inclusion of small sets, given as masks.

    The kind picks what may go wrong: nothing (the family closed into a
    lattice), missing infima and suprema (the family as drawn), a mask
    repeated under a new key, or a repeated key.
    """
    kind = draw(st.sampled_from(("lattice", "family", "same_mask", "same_key")))
    family = draw(st.lists(st.frozensets(st.integers(0, 4), min_size=1, max_size=4),
                           min_size=3, max_size=6))
    if kind != "family":
        family = _closed(family)
    family = draw(st.permutations(sorted(set(family), key=sorted)))
    els = [Payload(s) for s in family]
    n = len(els)
    if kind == "same_mask":
        twin = Payload(els[draw(st.integers(0, n - 1))].set)
        twin.key += ("twin",)
        els.insert(draw(st.integers(0, n)), twin)
    if kind == "same_key" and n > 1:
        els[-1].key = els[0].key
    return els


def _outcome(build, els, order):
    try:
        return build(els, order), None
    except LatticeError as exc:
        return None, (type(exc), str(exc))


def ref_rows(ref):
    """The down-set and up-set rows of the reference's order matrix."""
    n = ref.n
    return (tuple(sum(1 << i for i in range(n) if ref.leq[i][j]) for j in range(n)),
            tuple(sum(1 << j for j in range(n) if ref.leq[i][j]) for i in range(n)))


@settings(max_examples=400, deadline=None)
@given(mask_families(), st.data())
def test_rows_match_order_matrix_reference(els, data):
    """Masks against the order-matrix reference with the subset predicate:
    the same rows, queries and reports, or the same error and message."""
    ref, ref_err = _outcome(RefLattice, els, lambda x, y: x.set <= y.set)
    lat, err = _outcome(build_lattice, els, [mask(e.set) for e in els])
    assert err == ref_err
    if ref is None:
        return
    n = len(els)
    assert (lat.bottom, lat.top) == (ref.bottom, ref.top)
    assert (lat.down, lat.up) == ref_rows(ref)
    for i in range(n):
        for j in range(n):
            assert lat.le(i, j) == ref.leq[i][j]
            assert lat.covers(i, j) == ref.covers(i, j)
            assert lat.meet([i, j]) == ref.meet([i, j])
            assert lat.join([i, j]) == ref.join([i, j])
    assert (lat.meet([]), lat.join([])) == (ref.meet([]), ref.join([]))
    subset = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    assert (lat.meet(subset), lat.join(subset)) == (ref.meet(subset), ref.join(subset))
    assert lat.atoms() == ref.atoms() and lat.coatoms() == ref.coatoms()
    assert lat.hasse_edges() == ref.hasse_edges()
    assert lat.is_modular() == ref.is_modular()
    # to_dot reads nothing of the order but the Hasse edges
    assert lat.to_dot("t") == FiniteLattice.to_dot(ref, "t")
    for x in range(n):
        assert lat.index_of(els[x].key) == x
        for bound in (1, 2, 3):
            assert decompose_by_atoms(lat, x, bound) == ref.decompose(
                x, bound, ref.atoms(), ref.join)
            assert decompose_by_coatoms(lat, x, bound) == ref.decompose(
                x, bound, ref.coatoms(), ref.meet)
    for direction in ("isotone", "antitone"):
        f = tuple(data.draw(st.one_of(
            st.permutations(range(n)),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
        rep = verify_isomorphism(LatticeMap(lat, lat, f, direction))
        assert (rep.injective, rep.surjective, rep.order_preserved,
                rep.inverse_order_preserved, rep.failures) == ref_verify(
                    ref, ref, f, direction)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 4), min_size=1, max_size=4),
                min_size=1, max_size=6))
def test_meet_irreducibles_generate_every_element(family):
    """The irreducibles read off the rows are the elements with exactly one
    upper cover (counted with `covers`), plus the top, and every element is
    the meet of those above it."""
    els = sorted(_closed(family), key=lambda s: (len(s), sorted(s)))
    lat = build_lattice(els, [mask(e) for e in els])
    n = len(lat)
    irreducible = lat.meet_irreducibles()
    assert irreducible == [x for x in range(n) if x == lat.top
                           or sum(lat.covers(x, y) for y in range(n)) == 1]
    for x in range(n):
        assert lat.meet([m for m in irreducible if lat.le(x, m)]) == x


def test_meet_irreducibles_of_small_lattices():
    # in the powerset of {a, b, c} the irreducibles are the three coatoms
    lat = powerset_lattice("abc")
    assert [lat.elements[i] for i in lat.meet_irreducibles()] == [
        frozenset("ab"), frozenset("ac"), frozenset("bc"), frozenset("abc")]
    # in a chain every element is
    chain = build_lattice([0, 1, 2], [1, 3, 7])
    assert chain.meet_irreducibles() == [0, 1, 2]
