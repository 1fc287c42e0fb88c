"""Command-line front end: lattices, polar bodies, theorem checks, state spaces.

Exit codes: 0 all checks passed, 1 a check failed, 2 input or parse error,
3 internal error, 141 the reader closed standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import bodyio, checks
from . import planar as pl
from . import polytope as pt
from .errors import BadAngle, GeometryError, ParseError, UnsupportedForBodyType
from .lattice import element_dim, element_label
from .polytope import Polytope


def _print_lattice(lat, kind: str):
    print(f"{kind} lattice: {len(lat.elements)} elements")
    for i, e in enumerate(lat.elements):
        marks = []
        if i == lat.bottom:
            marks.append("bottom")
        if i == lat.top:
            marks.append("top")
        tag = (" [" + ",".join(marks) + "]") if marks else ""
        print(f"  {i:3d}  dim {element_dim(e):2d}  {element_label(e)}{tag}")


def cmd_lattice(args) -> int:
    name, body = bodyio.resolve_body(args.file)
    if isinstance(body, Polytope):
        lat = {
            "faces": pt.face_lattice,
            "exposed": pt.exposed_face_lattice,
            "normal": pt.normal_cone_lattice,
            "touching": pt.touching_cone_lattice,
        }[args.kind](body)
        _print_lattice(lat, f"{name} {args.kind}")
    elif args.kind in ("faces", "exposed"):
        print("note: arc bodies have infinitely many faces; this is the "
              "finite special-face summary only")
        lat = pl.special_face_lattice(body, exposed_only=args.kind == "exposed")
        _print_lattice(lat, f"{name} special {args.kind}")
    else:
        if args.dot:
            raise UnsupportedForBodyType(
                "DOT output for planar bodies is limited to the "
                "faces/exposed special lattices")
        inv = pl.cone_inventory(body)
        print(f"{name} {args.kind} cone summary (finite part):")
        sectors = [c for c in inv.proper_normal if c.kind == "sector"]
        rays = [c for c in inv.proper_normal if c.kind == "ray"]
        print(f"  {len(sectors)} sectors: "
              + ", ".join(c.label() for c in sectors))
        print(f"  {len(rays)} edge/vertex rays: "
              + ", ".join(c.label() for c in rays))
        for i in inv.arc_families:
            print(f"  arc feature {i}: one-parameter family of radial rays")
        if args.kind == "touching":
            print(f"  {len(inv.extra_touching)} touching-but-not-normal rays: "
                  + (", ".join(c.label() for c in inv.extra_touching) or "none"))
        return 0
    if args.dot:
        Path(args.dot).write_text(lat.to_dot(name))
        print(f"wrote {args.dot}")
    return 0


def cmd_polar(args) -> int:
    name, body = bodyio.resolve_body(args.file)
    if isinstance(body, Polytope):
        result = pt.polar(body)
        check = set(pt.polar(result).vertices) == set(body.vertices)
    else:
        result = pl.polar_planar(body)
        back = pl.polar_planar(result)
        check = ({(f.kind, f.start, f.end) for f in back.features}
                 == {(f.kind, f.start, f.end) for f in body.features})
    text = bodyio.dumps(result, notes=f"polar body of {name}")
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if not check:
        print("warning: polar round trip did not reproduce the body", file=sys.stderr)
        return 1
    return 0


def cmd_check(args) -> int:
    name, body = bodyio.resolve_body(args.file)
    report = checks.run_suite(body, name, args.suite)
    text = json.dumps(report.as_dict(), indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return report.exit_code


def cmd_statespace(args) -> int:
    from . import statespace as ss  # numeric, needs numpy; the exact commands do not

    if args.example == "bloch":
        out = {"example": "bloch", "seed": args.seed, "samples": args.samples,
               "tolerance": args.tol, "mode": "numeric", "verdicts": []}
        ok = True
        for alg, label in (((2,), "qubit state space"),
                           ((2, 1), "qubit plus classical bit")):
            rep = ss.verify_sharp_properties(alg, args.samples, args.tol, args.seed)
            out["verdicts"].append({
                "id": f"sharp[{label}]",
                "status": "pass" if rep.passed else "fail",
                "detail": f"{rep.violations} violations in {rep.samples} samples, "
                          f"max deviation {rep.max_violation:.3e}",
            })
            ok = ok and rep.passed
        print(json.dumps(out, indent=2))
        return 0 if ok else 1
    tol_flat = ss.TOL_FLAT if args.tol_flat is None else args.tol_flat
    rep = ss.cone_experiment(args.phi, args.resolution, tol_flat)
    doc = rep.as_dict()
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if rep.passed else 1


def _at_least(kind, low):
    """An argparse type: a finite `kind` (int or float) of at least `low`,
    so that a vacuous or invalid value is a usage error (exit 2)."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(
                f"must be finite and at least {low}: {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in "invalid ... value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="facelat",
        description="exact face/normal-cone/touching-cone lattices of rational "
                    "polytopes and planar arc bodies")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="list a lattice of a body, optionally as DOT")
    p.add_argument("file", help="body file path or fixture name")
    p.add_argument("--kind", choices=["faces", "exposed", "normal", "touching"],
                   default="faces")
    p.add_argument("--dot", metavar="PATH", help="write a Hasse diagram in DOT format")
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("polar", help="compute the polar body")
    p.add_argument("file")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_polar)

    p = sub.add_parser("check", help="run a theorem-check suite")
    p.add_argument("file")
    p.add_argument("--suite", default="all",
                   choices=["all", *checks.SUITE_NAMES])
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("statespace", help="numeric state-space checks")
    p.add_argument("example", choices=["bloch", "cone"])
    p.add_argument("--phi", type=float, default=12.0,
                   help="tilt angle of the section plane, degrees")
    p.add_argument("--samples", type=_at_least(int, 1), default=1000)
    p.add_argument("--resolution", type=_at_least(int, 1), default=720)
    p.add_argument("--seed", type=_at_least(int, 0), default=0)
    p.add_argument("--tol", type=_at_least(float, 0), default=1e-9)
    p.add_argument("--tol-flat", type=_at_least(float, 0), default=None,
                   help="flatness tolerance of the cone experiment "
                        "(default: statespace.TOL_FLAT)")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_statespace)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # `facelat ... | head`: the reader is done
        # point stdout at devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE: what a shell reports for a writer a closed pipe ends
    except (ParseError, UnsupportedForBodyType) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BadAngle, GeometryError) as e:  # input outside a precondition
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a bug in facelat, never the input's fault
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
