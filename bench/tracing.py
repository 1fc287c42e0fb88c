"""Per-layer call counts and times, measured from outside the library.

`Tracer.install()` replaces each traced function of `facelat` with a wrapper
that counts calls and adds up inclusive time (`total_s`, outermost calls
only) and self time (`self_s`: time minus the time of traced calls made
inside it).  The wrapper is bound wherever the original was: in its own
module, under every alias a `from .x import y` created in another facelat
module, and in the suite tables of `checks`.  Nothing under `src/` changes.
Counts and times are aggregated per function; no per-call spans are kept,
and the vector helpers (`dot`, `vadd`, ...) are never wrapped.
"""

from __future__ import annotations

import sys
import time
from functools import cached_property

# (module, attribute path, metrics beyond calls and self_s), by layer
KERNEL = [("exactgeom", n, ()) for n in (
    "rref", "kernel_basis", "solve_linear", "simplex_max",
    "hull_weight_support", "in_conv_hull", "in_ri_conv_hull")]
CONES = [("exactgeom", n, extra) for n, extra in (
    ("pos_hull", ("total_s", "unique_ratio")),
    ("_cone_facet_normals", ()),
    ("cone_from_hrep", ()),
    ("dual_cone", ("total_s",)),
    ("cone_faces", ("total_s", "unique_ratio")),
    ("intersect_cones", ("total_s",)),
    ("subspace_cone", ()),
    ("full_space", ("total_s",)),
    ("PolyCone.contains", ()),
    ("PolyCone.ri_contains", ()))]
POLYTOPE = [("polytope", n, ("total_s",)) for n in (
    "Polytope.__post_init__", "Polytope.facets", "face_lattice",
    "exposed_face_lattice", "normal_cone_lattice", "touching_cone_lattice",
    "normal_cone", "normal_cone_at_point", "lifted_face_lattices",
    "pos_iso_check", "support")]
LATTICE = [("lattice", n, ()) for n in (
    "build_lattice", "lattice_map", "verify_isomorphism",
    "FiniteLattice.index_of")]
PLANAR_COMPOSITES = ("cone_inventory", "special_face_lattice",
                     "partition_check_planar")
PLANAR = [("planar", n, ("total_s",) if n in PLANAR_COMPOSITES else ()) for n in (
    "support_value", "gauge_value", "polar_planar", "cone_inventory",
    "special_face_lattice", "partition_check_planar", "exposed_face",
    "touching_cone", "quad_compare")]

LAYERS = {"kernel": KERNEL, "cones": CONES, "polytope": POLYTOPE,
          "lattice": LATTICE, "planar": PLANAR}

SUITES = ("antitone", "meets", "lift", "sharp", "touching", "coatoms",
          "polar", "partition", "2d")

# Route label: LP solves made while face_lattice runs; 0 means the exposed
# route answered instead of the LP carrier oracle.
LP_ROUTE = ("polytope.face_lattice", "exactgeom.simplex_max")


# The cached property `Polytope.facets` is reported under its plain name.
ALIASES = {"Polytope.facets": "facets"}


def metric_base(module: str, path: str) -> str:
    return f"{module}.{ALIASES.get(path, path)}"


class Record:
    __slots__ = ("calls", "self_s", "total_s", "active", "results", "largest")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0
        self.results = set()
        self.largest = 0


class Tracer:
    def __init__(self):
        self.records: dict[str, Record] = {}
        self.lp_calls = 0
        self.originals: dict[str, object] = {}  # metric base -> unwrapped function
        self._stack: list[float] = []

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, name: str, fn, post=None):
        rec = self.records.setdefault(name, Record())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec.active += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec.active -= 1
                rec.calls += 1
                rec.self_s += dt - child
                if not rec.active:
                    rec.total_s += dt
                if stack:
                    stack[-1] += dt
            if post is not None:
                post(rec, result)
            return result

        return traced

    def _post(self, name: str):
        if name == "exactgeom.pos_hull":
            return lambda rec, res: rec.results.add(res)
        if name == "exactgeom.cone_faces":
            return lambda rec, res: rec.results.add(tuple(res))
        if name == "lattice.build_lattice":
            def largest(rec, res):
                rec.largest = max(rec.largest, len(res.elements))
            return largest
        if name == LP_ROUTE[1]:
            outer = self.records.setdefault(LP_ROUTE[0], Record())

            def count_lp(rec, res):
                if outer.active:
                    self.lp_calls += 1
            return count_lp
        return None

    def install(self) -> "Tracer":
        """Wrap every traced function; facelat must be imported already."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "facelat" or n.startswith("facelat.")}
        for layer in LAYERS.values():
            for module, path, _ in layer:
                self._install_one(mods, module, path)
        checks = mods["facelat.checks"]
        for table in (checks._POLY, checks._PLANAR):
            for suite, fn in list(table.items()):
                table[suite] = self._wrapper(f"checks.{suite}", fn)
        bodyio = mods["facelat.bodyio"]
        self._rebind(mods, bodyio.load_path, "bodyio.load_path")
        return self

    def _install_one(self, mods, module: str, path: str):
        name = metric_base(module, path)
        mod = mods[f"facelat.{module}"]
        if "." not in path:
            self._rebind(mods, getattr(mod, path), name)
            return
        cls_name, attr = path.split(".")
        cls = getattr(mod, cls_name)
        orig = cls.__dict__[attr]
        if isinstance(orig, cached_property):
            self.originals[name] = orig.func
            prop = cached_property(self._wrapper(name, orig.func, self._post(name)))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            self.originals[name] = orig
            setattr(cls, attr, self._wrapper(name, orig, self._post(name)))

    def _rebind(self, mods, orig, name: str):
        self.originals[name] = orig
        wrapped = self._wrapper(name, orig, self._post(name))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        out = {name: {"calls": r.calls, "self_s": r.self_s, "total_s": r.total_s,
                      "distinct": len(r.results), "largest": r.largest}
               for name, r in self.records.items()}
        out["lp_calls"] = self.lp_calls
        return out


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for layer in LAYERS.values():
        for module, path, extra in layer:
            base = metric_base(module, path)
            names += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
            names += [(f"{base}.{e}", "ratio" if e == "unique_ratio" else "s")
                      for e in extra]
            if base == LP_ROUTE[0]:
                names.append((f"{base}.lp_calls", "count"))
            if base == "lattice.build_lattice":
                names.append((f"{base}.max_elements", "count"))
    names += [(f"checks.{s}.total_s", "s") for s in SUITES]
    names.append(("bodyio.load_path.total_s", "s"))
    names += [(f"share.{layer}", "ratio") for layer in (*LAYERS, "checks", "bodyio")]
    names.append(("trace.overhead", "ratio"))
    return names


def layer_metrics(snapshots: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Aggregate per-process snapshots into the named per-layer metrics."""
    def total(name: str, field: str) -> float:
        return sum(s.get(name, {}).get(field, 0) for s in snapshots)

    values = {}
    for name, _unit in metric_names():
        base, _, field = name.rpartition(".")
        if field == "unique_ratio":
            calls = total(base, "calls")
            values[name] = total(base, "distinct") / calls if calls else 1.0
        elif field == "lp_calls":
            values[name] = sum(s["lp_calls"] for s in snapshots)
        elif field == "max_elements":
            values[name] = max((s.get(base, {}).get("largest", 0) for s in snapshots),
                               default=0)
        elif field in ("calls", "self_s", "total_s"):
            values[name] = total(base, field)
    layer_self = {layer: sum(total(metric_base(m, p), "self_s") for m, p, _ in fns)
                  for layer, fns in LAYERS.items()}
    layer_self["checks"] = sum(total(f"checks.{s}", "self_s") for s in SUITES)
    layer_self["bodyio"] = total("bodyio.load_path", "self_s")
    for layer, spent in layer_self.items():
        values[f"share.{layer}"] = spent / traced_wall
    values["trace.overhead"] = traced_wall / untraced_wall
    return values
