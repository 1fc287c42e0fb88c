"""Finite complete lattices: construction, verification, isomorphism checks, DOT export.

Element payloads are opaque.  A payload may expose `key` (canonical hashable
descriptor), `dim` (integer rank for diagram layout) and `label` (display
string); plain hashable objects work as their own key.

The order is stored once, as two rows of int bitmasks per element: its
down-set (bit j of `down[i]` is set when j <= i) and its up-set (bit j of
`up[i]` is set when i <= j).  A finite lattice is determined by its family
of down-sets, and that family is closed under intersection (Ganter & Wille,
*Formal Concept Analysis*, 1999, ch. 1): the meet of a set of elements is
the element whose down-set is the AND of theirs, and the join is the dual
on up-sets.  Every query reads the rows, and set bits are visited in
ascending order, so every list comes out in row-major index order.  The
order arrives as inclusion of one int mask per element (`build_lattice`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence


class LatticeError(Exception):
    pass


class NotALattice(LatticeError):
    """Some pair of elements has no infimum or no supremum."""


class DuplicateElement(LatticeError):
    """Two elements share the same canonical descriptor."""


def element_key(payload):
    return getattr(payload, "key", payload)


def element_label(payload) -> str:
    lab = getattr(payload, "label", None)
    if lab is None:
        return str(element_key(payload))
    return lab() if callable(lab) else str(lab)


def element_dim(payload) -> int:
    d = getattr(payload, "dim", None)
    if d is None:
        return 0
    return d() if callable(d) else int(d)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FiniteLattice:
    """Explicit finite complete lattice, stored as down-set and up-set rows.

    Immutable after construction; all query methods are pure.
    """

    elements: tuple
    bottom: int
    top: int
    down: tuple[int, ...]
    up: tuple[int, ...]

    @cached_property
    def _by_key(self) -> dict:
        return {element_key(e): i for i, e in enumerate(self.elements)}

    @cached_property
    def _by_down(self) -> dict[int, int]:
        return {r: i for i, r in enumerate(self.down)}

    @cached_property
    def _by_up(self) -> dict[int, int]:
        return {r: i for i, r in enumerate(self.up)}

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, key) -> int:
        return self._by_key[key]

    def le(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.le(i, j)

    def meet(self, indices: Iterable[int]) -> int:
        """Infimum of a set of elements; the empty infimum is the top."""
        mask = self.down[self.top]
        for i in indices:
            mask &= self.down[i]
        return self._by_down[mask]

    def join(self, indices: Iterable[int]) -> int:
        """Supremum of a set of elements; the empty supremum is the bottom."""
        mask = self.up[self.bottom]
        for i in indices:
            mask &= self.up[i]
        return self._by_up[mask]

    def atoms(self) -> list[int]:
        """Elements with only the bottom strictly below them."""
        b = self.bottom
        return [x for x, row in enumerate(self.down)
                if x != b and row == 1 << x | 1 << b]

    def coatoms(self) -> list[int]:
        """Elements with only the top strictly above them."""
        t = self.top
        return [x for x, row in enumerate(self.up)
                if x != t and row == 1 << x | 1 << t]

    def meet_irreducibles(self) -> list[int]:
        """Elements with exactly one upper cover, and the top.

        Every element is the meet of these above it (Ganter & Wille 1999,
        ch. 1): an element with two or more upper covers is their meet.  An
        upper cover of x is an element of its strict up-set whose down-set
        meets that up-set in itself alone."""
        out = []
        for x, row in enumerate(self.up):
            above = row ^ 1 << x
            covers = sum(1 for j in _bits(above) if self.down[j] & above == 1 << j)
            if covers == 1 or x == self.top:
                out.append(x)
        return out

    def covers(self, i: int, j: int) -> bool:
        """True when j covers i (i < j with nothing strictly between)."""
        return i != j and self.up[i] & self.down[j] == 1 << i | 1 << j

    def hasse_edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.up) for j in _bits(row)
                if self.covers(i, j)]

    def is_modular(self) -> bool:
        """Check the modular law x <= z  =>  x v (y ^ z) = (x v y) ^ z."""
        n = len(self.elements)
        for x, row in enumerate(self.up):
            for z in _bits(row):
                for y in range(n):
                    if (self.join((x, self.meet((y, z))))
                            != self.meet((self.join((x, y)), z))):
                        return False
        return True

    def to_dot(self, name: str = "lattice") -> str:
        """Hasse diagram in DOT format, ranked by element dimension."""
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
        for i, e in enumerate(self.elements):
            label = element_label(e).replace('"', r"\"")
            lines.append(f'  n{i} [label="{label}"];')
        by_dim: dict[int, list[int]] = {}
        for i, e in enumerate(self.elements):
            by_dim.setdefault(element_dim(e), []).append(i)
        for d in sorted(by_dim):
            members = " ".join(f"n{i};" for i in by_dim[d])
            lines.append(f"  {{ rank=same; {members} }}")
        for i, j in self.hasse_edges():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def build_lattice(elements: Sequence, masks: Sequence[int]) -> FiniteLattice:
    """Build and verify the lattice of elements ordered by inclusion of their
    masks: element i lies below element j when masks[i] is a bitwise subset
    of masks[j].  Any finite order is one, by its down-set masks.

    Raises DuplicateElement when two elements share a canonical descriptor
    and NotALattice when two masks are equal or some pair lacks a meet or
    join; inclusion is reflexive and transitive by itself.
    """
    elements = tuple(elements)
    if not elements:
        raise NotALattice("empty element list")
    n = len(elements)
    if len(masks) != n or min(masks) < 0:
        raise ValueError("one nonnegative mask per element is needed")
    keys = [element_key(e) for e in elements]
    if len(set(keys)) != len(keys):
        raise DuplicateElement("elements share a canonical descriptor")
    if len(set(masks)) != n:
        raise NotALattice("order is not antisymmetric")
    everything = (1 << n) - 1
    # the up-set of i: the AND, over the bits of masks[i], of the elements
    # whose masks hold that bit; the down-sets are its transpose
    holders: dict[int, int] = {}
    for j, m in enumerate(masks):
        for b in _bits(m):
            holders[b] = holders.get(b, 0) | 1 << j
    up = [everything] * n
    down = [0] * n
    for i, m in enumerate(masks):
        for b in _bits(m):
            up[i] &= holders[b]
        for j in _bits(up[i]):
            down[j] |= 1 << i
    by_down = {r: i for i, r in enumerate(down)}
    by_up = {r: i for i, r in enumerate(up)}
    for i in range(n):
        for j in range(i, n):
            if down[i] & down[j] not in by_down:
                raise NotALattice(
                    f"pair ({keys[i]!r}, {keys[j]!r}) has no infimum")
            if up[i] & up[j] not in by_up:
                raise NotALattice(
                    f"pair ({keys[i]!r}, {keys[j]!r}) has no supremum")
    return FiniteLattice(elements, by_up[everything], by_down[everything],
                         tuple(down), tuple(up))


@dataclass(frozen=True)
class LatticeMap:
    """Total mapping between two finite lattices, tagged isotone or antitone."""

    source: FiniteLattice
    target: FiniteLattice
    mapping: tuple[int, ...]
    direction: str  # "isotone" | "antitone"

    def __post_init__(self):
        if self.direction not in ("isotone", "antitone"):
            raise ValueError("direction must be 'isotone' or 'antitone'")
        if len(self.mapping) != len(self.source.elements):
            raise ValueError("mapping is not total on the source")


def lattice_map(source: FiniteLattice, target: FiniteLattice,
                f: Callable, direction: str) -> LatticeMap:
    """Build a LatticeMap by applying f to payloads and matching target keys."""
    mapping = tuple(target.index_of(element_key(f(e))) for e in source.elements)
    return LatticeMap(source, target, mapping, direction)


@dataclass(frozen=True)
class IsomorphismReport:
    injective: bool
    surjective: bool
    order_preserved: bool
    inverse_order_preserved: bool
    failures: tuple[str, ...]

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective

    @property
    def passed(self) -> bool:
        return (self.bijective and self.order_preserved
                and self.inverse_order_preserved)


def _order_violation(src: FiniteLattice, tgt: FiniteLattice, f, isotone: bool):
    """'a <= b' for the first pair a <= b of src, in row-major order, whose
    images under f break the (isotone or antitone) order of tgt; else None."""
    for i, row in enumerate(src.up):
        for j in _bits(row):
            if not (tgt.le(f[i], f[j]) if isotone else tgt.le(f[j], f[i])):
                return (f"{element_label(src.elements[i])} <= "
                        f"{element_label(src.elements[j])}")
    return None


def verify_isomorphism(m: LatticeMap) -> IsomorphismReport:
    """Check bijectivity and order behaviour of a lattice map.

    An order-compatible bijection whose inverse is also order compatible is a
    lattice isomorphism; failures are reported, never raised.
    """
    src, tgt, f = m.source, m.target, m.mapping
    failures = []
    injective = len(set(f)) == len(f)
    if not injective:
        seen: dict[int, int] = {}
        for i, t in enumerate(f):
            if t in seen:
                failures.append(
                    f"not injective: {element_label(src.elements[seen[t]])} and "
                    f"{element_label(src.elements[i])} both map to "
                    f"{element_label(tgt.elements[t])}")
                break
            seen[t] = i
    surjective = set(f) == set(range(len(tgt.elements)))
    if not surjective:
        failures.append("not surjective onto the target lattice")
    isotone = m.direction == "isotone"
    bad = _order_violation(src, tgt, f, isotone)
    order_ok = bad is None
    if not order_ok:
        failures.append(f"order violated at {bad}")
    inverse_ok = injective and surjective
    if inverse_ok:
        bad = _order_violation(tgt, src, {t: i for i, t in enumerate(f)}, isotone)
        if bad is not None:
            inverse_ok = False
            failures.append(f"inverse order violated at {bad}")
    return IsomorphismReport(injective, surjective, order_ok, inverse_ok,
                             tuple(failures))


def _first_subset(candidates: list[int], combine: Callable, x: int,
                  bound: int) -> list[int] | None:
    """Lexicographically smallest subset of <= bound candidates combining to x.

    The callers pass only the atoms below x (coatoms above x): no other atom
    joins (coatom meets) to x, so the subset is the same as over all of them.
    """
    for size in range(1, bound + 1):
        for subset in combinations(candidates, size):
            if combine(subset) == x:
                return list(subset)
    return None


def decompose_by_atoms(lat: FiniteLattice, x: int, bound: int) -> list[int] | None:
    """Lexicographically smallest set of <= bound atoms whose join is x."""
    below = [a for a in lat.atoms() if lat.le(a, x)]
    return _first_subset(below, lat.join, x, bound)


def decompose_by_coatoms(lat: FiniteLattice, x: int, bound: int) -> list[int] | None:
    """Lexicographically smallest set of <= bound coatoms whose meet is x."""
    above = [c for c in lat.coatoms() if lat.le(x, c)]
    return _first_subset(above, lat.meet, x, bound)
