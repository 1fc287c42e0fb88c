"""One benchmark process: runs a job spec and prints one JSON line.

    python3 bench/worker.py '<spec json>'

Modes:
  setup    import the CLI and load the given bodies, then stop;
  check    `facelat check <path> --suite all` through `facelat.cli.main`;
  lattice  `facelat lattice <path> --kind <kind>` through `facelat.cli.main`;
  planar   in-process rounds of `checks.run_suite(body, name, "all")` over the
           given bodies, parsing each body anew every round, until a deadline.

Every mode reports `ready`, the monotonic time at which its bodies were
constructed, so the parent can split set-up from compute.  With
`"trace": true` the per-layer tracer is installed before any job runs.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

clock = time.monotonic


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def _lattice_dims(text: str) -> dict[int, int]:
    dims: dict[int, int] = {}
    for line in text.splitlines()[1:]:
        fields = line.split()
        if len(fields) >= 3 and fields[1] == "dim":
            d = int(fields[2])
            dims[d] = dims.get(d, 0) + 1
    return dims


def _run_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _planar_rounds(spec, checks, bodyio, expected) -> list[dict]:
    """Closed loop over the planar bodies; one job = one body in one round.

    Round r reads variant r (mod the variant count) of every body."""
    jobs = []
    signal.signal(signal.SIGALRM, _alarm)
    rounds = 0
    while rounds < spec["min_rounds"] or (
            "deadline" in spec and clock() < spec["deadline"]):
        start = clock()
        for name, variants in spec["paths"].items():
            path = variants[rounds % len(variants)]
            job = {"name": name, "round": rounds, "errors": []}
            signal.setitimer(signal.ITIMER_REAL, spec["job_timeout"])
            try:
                t0 = clock()
                body = bodyio.load_path(path)
                t1 = clock()
                report = checks.run_suite(body, name, "all").as_dict()
                t2 = clock()
                job["errors"] = expected.check_report(name, report)
                job["parse_s"], job["verdict_s"] = t1 - t0, t2 - t1
            except JobTimeout:
                job["errors"].append(f"{name}: timed out after {spec['job_timeout']} s")
            except Exception as e:  # any library failure is a failed job
                job["errors"].append(f"{name}: {type(e).__name__}: {e}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            jobs.append(job)
        jobs[-1]["round_s"] = clock() - start
        rounds += 1
    return jobs


def main() -> int:
    spec = json.loads(sys.argv[1])
    import facelat
    if not Path(facelat.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"facelat imported from {facelat.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    from facelat import bodyio, checks, cli  # cli imports every module, numpy too
    tracer = None
    if spec.get("trace"):
        import tracing
        tracer = tracing.Tracer().install()

    out: dict = {}
    load = bodyio.load_path

    def timed_load(path):
        body = load(path)
        out["ready"] = clock()
        return body

    mode = spec["mode"]
    if mode in ("setup", "planar"):
        for path in spec["paths"].values():
            load(path if mode == "setup" else path[0])
        out["ready"] = clock()
        if mode == "planar":
            import expected
            out["jobs"] = _planar_rounds(spec, checks, bodyio, expected)
    else:
        bodyio.load_path = timed_load
        argv = (["check", spec["path"], "--suite", "all"] if mode == "check"
                else ["lattice", spec["path"], "--kind", spec["kind"]])
        code, text = _run_cli(cli, argv)
        out["done"] = clock()
        out["code"] = code
        if mode == "check":
            out["report"] = json.loads(text) if code in (0, 1) else None
        else:
            out["dims"] = _lattice_dims(text)
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
