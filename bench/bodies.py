"""Seeded benchmark inputs.

Every input is a body file in the library's JSON format.  The shipped
fixtures are read as plain JSON and the lattice-scaling bodies are generated
here, so nothing in this module calls the library.  A seed picks one symmetry
per body: a signed permutation of the coordinates plus a reorder of the
vertex list (polytopes) or a cyclic rotation of the feature list (planar
bodies).  A planar body keeps its counterclockwise orientation: when the
signed permutation is a reflection, the feature cycle is reversed and every
feature swaps its endpoints.  Seed 0 is the identity.  Such a map sends the
body to a congruent copy, so f-vectors, lattice sizes and verdict tallies do
not depend on the seed.

A run may need several inputs per body: variant k of a seed is another
independent symmetry, so a median over variants averages out how much one
particular vertex order or orientation happens to help the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "facelat" / "fixtures"

POLYTOPE_FIXTURES = ("cube", "square", "triangle", "segment")
PLANAR_FIXTURES = ("lens", "quarter_disk", "square_planar", "stadium",
                   "triangle_minus_vertex", "triangle_open_side",
                   "triangle_open_side_apex", "truncated_disk_closed",
                   "truncated_disk_open", "unit_disk")


def _polytope_doc(vertices) -> dict:
    return {"type": "polytope", "ambient_dim": len(vertices[0]),
            "vertices": [[str(c) for c in v] for v in vertices]}


def cyclic_polytope(m: int) -> dict:
    """C(m,3): the points (t, t^2, t^3), t = 0..m-1, all of them vertices."""
    return _polytope_doc([(t, t * t, t ** 3) for t in range(m)])


def prism(k: int) -> dict:
    """Prism over the convex k-gon with vertices (t, t^2), t = 0..k-1."""
    return _polytope_doc([(t, t * t, z) for z in (0, 1) for t in range(k)])


def cross_polytope(d: int) -> dict:
    return _polytope_doc([tuple(s if i == j else 0 for j in range(d))
                          for i in range(d) for s in (1, -1)])


# Lattice-scaling cases: generated body and the CLI lattice kind built on it.
LATTICE_CASES = {
    "cyclic12_exposed": (lambda: cyclic_polytope(12), "exposed"),
    "prism4_faces": (lambda: prism(4), "faces"),
    "cross4_touching": (lambda: cross_polytope(4), "touching"),
}


@dataclass(frozen=True)
class Symmetry:
    perm: tuple[int, ...]   # new coordinate i is signs[i] * old coordinate perm[i]
    signs: tuple[int, ...]
    order: tuple[int, ...]  # vertex order (polytopes) or rotation (planar, one entry)

    @property
    def reflects(self) -> bool:
        inversions = sum(1 for i in range(len(self.perm)) for j in range(i)
                         if self.perm[j] > self.perm[i])
        negatives = sum(1 for s in self.signs if s < 0)
        return (inversions + negatives) % 2 == 1

    def point(self, coords: list) -> list[str]:
        return [str(s * Fraction(coords[p])) for p, s in zip(self.perm, self.signs)]


def symmetry(seed: int, variant: int, name: str, dim: int, count: int,
             planar: bool) -> Symmetry:
    """The symmetry a seed picks for one body; seed 0 gives the identity."""
    if seed == 0:
        return Symmetry(tuple(range(dim)), (1,) * dim,
                        (0,) if planar else tuple(range(count)))
    rng = random.Random(f"{seed}:{variant}:{name}")
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = tuple(rng.choice((1, -1)) for _ in range(dim))
    if planar:
        order = (rng.randrange(count),)
    else:
        order = list(range(count))
        rng.shuffle(order)
    return Symmetry(tuple(perm), signs, tuple(order))


def transform(doc: dict, seed: int, name: str, variant: int = 0) -> dict:
    """The body document seen under the symmetry picked by (seed, variant, name)."""
    if doc["type"] == "polytope":
        verts = doc["vertices"]
        sym = symmetry(seed, variant, name, doc["ambient_dim"], len(verts), planar=False)
        return {"type": "polytope", "ambient_dim": doc["ambient_dim"],
                "vertices": [sym.point(verts[i]) for i in sym.order]}
    feats = doc["features"]
    n = len(feats)
    sym = symmetry(seed, variant, name, 2, n, planar=True)
    closed = doc.get("vertex_closed", [True] * n)
    out = []
    for f in feats:
        g = {"kind": f["kind"], "from": sym.point(f["from"]),
             "to": sym.point(f["to"]), "closed": f.get("closed", True)}
        if f["kind"] == "arc":
            g["center"] = sym.point(f["center"])
            g["radius_sq"] = f["radius_sq"]
        out.append(g)
    if sym.reflects:
        # Reversed cycle: new feature k is old feature n-1-k run backwards, and
        # it starts at the old junction where old feature n-k started.
        out = [dict(g, **{"from": g["to"], "to": g["from"]}) for g in reversed(out)]
        closed = [closed[(n - k) % n] for k in range(n)]
    r = sym.order[0]
    return {"type": "planar", "features": out[r:] + out[:r],
            "vertex_closed": closed[r:] + closed[:r]}


def source_doc(name: str) -> dict:
    if name in LATTICE_CASES:
        return LATTICE_CASES[name][0]()
    return json.loads((FIXTURES / f"{name}.json").read_text())


def write_inputs(workdir: Path, seed: int, names, variants: int = 1) -> dict[str, list[Path]]:
    """Write the seeded body files; returns name -> one path per variant.

    Variant k goes to `workdir/v<k>/<name>.json`, so the file stem is the body
    name the program reports."""
    paths: dict[str, list[Path]] = {}
    for k in range(variants):
        (workdir / f"v{k}").mkdir(parents=True, exist_ok=True)
        for name in names:
            path = workdir / f"v{k}" / f"{name}.json"
            path.write_text(json.dumps(transform(source_doc(name), seed, name, k), indent=1))
            paths.setdefault(name, []).append(path)
    return paths
