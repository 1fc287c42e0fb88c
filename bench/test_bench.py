"""Self-tests of the benchmark: inputs, expected table and tracer.

    python3 -m pytest bench/test_bench.py -q     # about ten minutes on 2 cores

The tally test runs every workload once per seed, the cube included, so it
is slow; `-k "not tallies"` leaves it out.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bodies  # noqa: E402
import expected  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEEDS = (0, 1, 2, 3)
ALL_INPUTS = (*bodies.POLYTOPE_FIXTURES, *bodies.PLANAR_FIXTURES, *bodies.LATTICE_CASES)


def _exact(doc: dict):
    """A body document with every coordinate as a Fraction and defaults filled."""
    def pt(p):
        return tuple(Fraction(c) for c in p)
    if doc["type"] == "polytope":
        return [pt(v) for v in doc["vertices"]]
    feats = [(f["kind"], pt(f["from"]), pt(f["to"]), f.get("closed", True),
              pt(f.get("center", [0, 0])), Fraction(f.get("radius_sq", 0)))
             for f in doc["features"]]
    return feats, list(doc.get("vertex_closed", [True] * len(feats)))


@pytest.mark.parametrize("name", ALL_INPUTS)
def test_seed_zero_is_identity(name):
    doc = bodies.source_doc(name)
    assert _exact(bodies.transform(doc, 0, name)) == _exact(doc)


def test_seeds_move_the_bodies():
    moved = {name for name in ALL_INPUTS for seed in SEEDS[1:]
             if _exact(bodies.transform(bodies.source_doc(name), seed, name))
             != _exact(bodies.source_doc(name))}
    assert moved == set(ALL_INPUTS)


# f-vectors of every polytope input, as exposed-lattice element counts by dimension
FVECTORS = {
    "cube": {-1: 1, 0: 8, 1: 12, 2: 6, 3: 1},
    "square": {-1: 1, 0: 4, 1: 4, 2: 1},
    "triangle": {-1: 1, 0: 3, 1: 3, 2: 1},
    "segment": {-1: 1, 0: 2, 1: 1},
    "cyclic12_exposed": expected.cyclic3_fvector(12),
    "prism4_faces": expected.prism_fvector(4),
    "cross4_touching": {-1: 1, 0: 8, 1: 24, 2: 32, 3: 16, 4: 1},
}


@pytest.mark.parametrize("seed", SEEDS)
def test_seeds_keep_fvectors(seed):
    from facelat import bodyio
    from facelat.polytope import exposed_face_lattice
    for name, want in FVECTORS.items():
        doc = bodies.transform(bodies.source_doc(name), seed, name)
        lat = exposed_face_lattice(bodyio.loads(json.dumps(doc)))
        dims: dict[int, int] = {}
        for face in lat.elements:
            dims[face.dim] = dims.get(face.dim, 0) + 1
        assert dims == want, name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_seeds_keep_tallies(workload, seed):
    result = run.run_workload(workload, seed, 0.0, trace=False)
    assert result["correct"] and result["failed"] == 0, result


def profile_square() -> dict[str, tuple[int, int]]:
    """Traced and profiled square job; returns {function: (wrapper, cProfile)}."""
    from facelat import bodyio, checks, cli  # noqa: F401  (loads every module)
    tracer = tracing.Tracer().install()
    workdir = HERE / ".work" / f"profile-{os.getpid()}"
    path = bodies.write_inputs(workdir, 0, ["square"])["square"][0]
    prof = cProfile.Profile()
    prof.enable()
    body = bodyio.load_path(path)
    checks.run_suite(body, "square", "all")
    prof.disable()
    shutil.rmtree(workdir)
    stats = pstats.Stats(prof).stats
    out = {}
    for name, fn in tracer.originals.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = (tracer.records[name].calls, stats.get(key, (0, 0))[1])
    return out


def test_trace_counts_match_cprofile():
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, __file__], env=env, text=True,
                          capture_output=True, timeout=300, check=True)
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(counts) == 42
    assert sum(c[0] for c in counts.values()) > 100_000
    assert {n: c for n, c in counts.items() if c[0] != c[1]} == {}


def test_planar_trace_has_no_kernel_or_cone_calls():
    result = run.run_workload("check-planar", 0, 0.0, trace=True)
    assert result["correct"], result
    m = result["metrics"]
    for module, path, _ in tracing.KERNEL + tracing.CONES:
        assert m[f"{tracing.metric_base(module, path)}.calls"]["value"] == 0
    assert m["planar.support_value.calls"]["value"] > 0


@pytest.mark.parametrize("workload, case", [("lattice-scaling", "prism4_faces"),
                                            ("check-polytope", "cube")])
def test_face_lattice_takes_the_lp_route(workload, case):
    wl = run.WORKLOADS[workload]
    workdir = HERE / ".work" / f"lp-{os.getpid()}"
    path = bodies.write_inputs(workdir, 0, [case])[case][0]
    try:
        job = run.run_job(wl, case, path, True, run.Budget())
    finally:
        shutil.rmtree(workdir)
    assert job.errors == []
    assert job.trace["lp_calls"] > 0
    assert job.trace["exactgeom.simplex_max"]["calls"] >= job.trace["lp_calls"]


if __name__ == "__main__":
    print(json.dumps(profile_square()))
