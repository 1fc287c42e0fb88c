"""The benchmark tracer's names resolve in the library.

`bench/tracing.py` wraps library functions by name.  A name deleted or
renamed in `facelat` passes every untraced run and crashes a traced one, so
each name the tracer installs on is looked up here, without installing it.
"""

import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for layer, names in tracing.LAYERS.items():
        for module, path, _ in names:
            mod = importlib.import_module(f"facelat.{module}")
            if "." in path:
                cls_name, attr = path.split(".")
                assert attr in vars(getattr(mod, cls_name)), (layer, module, path)
            else:
                assert callable(getattr(mod, path, None)), (layer, module, path)
    # the tracer rewraps this one as a cached property
    polytope = importlib.import_module("facelat.polytope")
    assert isinstance(vars(polytope.Polytope)["facets"], cached_property)
    # the suite tables and the loader it wraps besides the layers
    checks = importlib.import_module("facelat.checks")
    assert set(checks._POLY) | set(checks._PLANAR) <= set(tracing.SUITES)
    assert callable(importlib.import_module("facelat.bodyio").load_path)
