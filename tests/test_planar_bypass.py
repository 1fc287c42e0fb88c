"""The planar check suites never call the kernel or the cone layer.

Planar bodies are answered by the planar module's own integer predicates,
and the check-planar benchmark workload is defined as that bypass.  Here
every entry point of the exact kernel and of the cone layer is rebound to
raise, under every name a facelat module binds it by, and the suites must
still give each planar fixture the statuses of its golden file.
"""

import json
import sys
from pathlib import Path

import pytest

from facelat import bodyio, checks
from facelat import exactgeom as eg
from facelat.planar import PlanarBody

GOLDEN = Path(__file__).parent / "golden"

# the kernel and cone-layer functions of `exactgeom`, and the cone methods
KERNEL = ("rref", "kernel_basis", "solve_linear", "simplex_max",
          "hull_weight_support", "in_conv_hull", "in_ri_conv_hull")
CONES = ("pos_hull", "_cone_facet_normals", "cone_from_hrep", "dual_cone",
         "cone_faces", "intersect_cones", "subspace_cone", "full_space")
CONE_METHODS = ("contains", "ri_contains")

PLANAR = [name for name in bodyio.list_fixtures()
          if isinstance(bodyio.load_fixture(name), PlanarBody)]


def test_planar_suites_pass_without_the_kernel_and_cone_layers(monkeypatch):
    assert len(PLANAR) == 10
    called = []

    def refusing(name):
        def refuse(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"{name} is off limits")
        return refuse

    modules = [m for name, m in sys.modules.items()
               if name == "facelat" or name.startswith("facelat.")]
    for name in KERNEL + CONES:
        original, stub = getattr(eg, name), refusing(name)
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, stub)
    for name in CONE_METHODS:
        monkeypatch.setattr(eg.PolyCone, name, refusing(f"PolyCone.{name}"))
    for name in PLANAR:
        report = checks.run_suite(bodyio.load_fixture(name), name, "all").as_dict()
        golden = json.loads((GOLDEN / f"{name}.check.txt").read_text().split("\n", 1)[1])
        assert ([(v["id"], v["status"]) for v in report["verdicts"]]
                == [(v["id"], v["status"]) for v in golden["verdicts"]]), name
    assert called == []
    # the stubs are live: a polytope check reaches them
    with pytest.raises(AssertionError, match="off limits"):
        checks.run_suite(bodyio.load_fixture("segment"), "segment", "all")
