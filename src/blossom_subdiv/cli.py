"""Command-line front end.

Subcommands: subdivide-curve, subdivide-tpb, subdivide-tb, eval, verify,
mesh, bench. Documents default to stdin/stdout, diagnostics go to stderr.
Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import documents
from .geometry import (
    BezierCurve,
    DomainTriangle,
    MonomialCurve,
    MonomialSurface,
    ParamInterval,
    ParamRect,
    Point2,
    TensorPatch,
    de_casteljau_curve,
    de_casteljau_tensor,
    de_casteljau_triangle,
    eval_monomial_curve,
    eval_monomial_surface,
)
from .numerics import (
    MESH_VERTEX_BUDGET,
    ORACLE_DEGREE_CAP,
    format_rational,
    parse_rational,
)
from .objmesh import mesh_document
from .subdivision import subdivide_curve, subdivide_tensor, subdivide_triangle

# verify and bench are imported by their own commands when they run, so
# subdivide, eval and mesh never load the oracle, verify or bench code.

PROG = "blossom-subdiv"


def _use_color() -> bool:
    return os.environ.get("NO_COLOR") is None and sys.stderr.isatty()


def _diag(prefix: str, message: str, color: str) -> None:
    if _use_color():
        sys.stderr.write(f"\x1b[{color}m{prefix}\x1b[0m {message}\n")
    else:
        sys.stderr.write(f"{prefix} {message}\n")


def _warn(message: str) -> None:
    _diag("warning:", message, "33")


def _error(message: str) -> None:
    _diag("error:", message, "31")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_vertex(raw: str) -> Point2:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"vertex must be 's,t', got {raw!r}")
    return Point2(parse_rational(parts[0]), parse_rational(parts[1]))


def _cmd_subdivide_curve(args) -> int:
    obj = documents.parse_input_document(_read_input(args.input))
    if not isinstance(obj, MonomialCurve):
        raise documents.DocumentError("subdivide-curve needs a 'curve' document")
    interval = ParamInterval(parse_rational(args.a), parse_rational(args.b))
    bezier = subdivide_curve(obj, interval)
    _write_output(args.output, documents.dumps(documents.bezier_curve_document(bezier)))
    return 0


def _cmd_subdivide_tpb(args) -> int:
    obj = documents.parse_input_document(_read_input(args.input))
    if not isinstance(obj, MonomialSurface):
        raise documents.DocumentError("subdivide-tpb needs a 'surface' document")
    rect = ParamRect(
        ParamInterval(parse_rational(args.a), parse_rational(args.b)),
        ParamInterval(parse_rational(args.c), parse_rational(args.d)),
    )
    patch = subdivide_tensor(obj, rect)
    _write_output(args.output, documents.dumps(documents.tensor_patch_document(patch)))
    return 0


def _cmd_subdivide_tb(args) -> int:
    obj = documents.parse_input_document(_read_input(args.input))
    if not isinstance(obj, MonomialSurface):
        raise documents.DocumentError("subdivide-tb needs a 'surface' document")
    va, vb, vc = (_parse_vertex(v) for v in args.vertices)
    tri = DomainTriangle(va, vb, vc)
    if tri.is_degenerate():
        _warn("domain triangle vertices are collinear; patch is degenerate")
    patch = subdivide_triangle(obj, tri)
    _write_output(args.output, documents.dumps(documents.triangle_patch_document(patch)))
    return 0


def _cmd_eval(args) -> int:
    obj = documents.parse_any_document(_read_input(args.input))
    u = parse_rational(args.u)
    if isinstance(obj, MonomialCurve):
        if args.v is not None:
            raise documents.DocumentError("curve documents take -u only")
        point = eval_monomial_curve(obj, u)
    elif isinstance(obj, BezierCurve):
        if args.v is not None:
            raise documents.DocumentError("bezier-curve documents take -u only")
        point = de_casteljau_curve(obj, u)
    else:
        if args.v is None:
            raise documents.DocumentError(f"{type(obj).__name__} evaluation needs -u and -v")
        v = parse_rational(args.v)
        if isinstance(obj, MonomialSurface):
            point = eval_monomial_surface(obj, u, v)
        elif isinstance(obj, TensorPatch):
            point = de_casteljau_tensor(obj, u, v)
        else:
            point = de_casteljau_triangle(obj, u, v)
    payload = {
        "point": [format_rational(point.x), format_rational(point.y), format_rational(point.z)]
    }
    _write_output(args.output, json.dumps(payload) + "\n")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(args.trials, args.max_degree, args.seed)
    for shape in ("curve", "tpb", "tb"):
        sys.stderr.write(
            f"{shape}: {report.checked_points[shape]} control points compared exactly\n"
        )
    if report.ok:
        _diag("PASS", f"{args.trials} trials, closed form matches enumeration", "32")
        return 0
    mm = report.mismatch
    _error(
        f"mismatch in {mm.shape} trial {mm.trial} at control point {mm.index}: "
        f"closed-form {mm.closed_form} vs oracle {mm.oracle}"
    )
    sys.stderr.write(json.dumps({"counterexample": mm.instance}, indent=2) + "\n")
    return 1


def _cmd_mesh(args) -> int:
    obj = documents.parse_any_document(_read_input(args.input))
    text = mesh_document(obj, args.samples, args.with_net)
    if args.with_net and isinstance(obj, (MonomialCurve, MonomialSurface)):
        _warn("monomial documents have no control net; ignoring --with-net")
    _write_output(args.output, text)
    return 0


def _cmd_bench(args) -> int:
    from . import bench as bench_mod

    shapes = [s for s in args.shapes.split(",") if s]
    degrees = []
    for chunk in args.degrees.split(","):
        if chunk:
            try:
                degrees.append(int(chunk))
            except ValueError:
                raise documents.DocumentError(f"bad degree {chunk!r}") from None
    records, warnings = bench_mod.run_benchmark(
        shapes, degrees, repeat=args.repeat, seed=args.seed,
        oracle_degree_cap=args.max_oracle_degree,
    )
    for message in warnings:
        _warn(message)
    if args.output == "-":
        bench_mod.write_csv(records, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            bench_mod.write_csv(records, fh)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves no state in it, so
    repeated main() calls share it."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact subdivision of polynomial curves and surfaces into Bernstein form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", "-i", default="-", help="input document path (default stdin)")
        p.add_argument("--output", "-o", default="-", help="output path (default stdout)")

    p = sub.add_parser("subdivide-curve", help="restrict a monomial curve to [a, b]")
    add_io(p)
    p.add_argument("-a", "--a", required=True, help="interval start (rational)")
    p.add_argument("-b", "--b", required=True, help="interval end (rational)")
    p.set_defaults(func=_cmd_subdivide_curve)

    p = sub.add_parser("subdivide-tpb", help="restrict a monomial surface to [a,b] x [c,d]")
    add_io(p)
    for flag, doc in (("a", "u start"), ("b", "u end"), ("c", "v start"), ("d", "v end")):
        p.add_argument(f"-{flag}", f"--{flag}", required=True, help=f"{doc} (rational)")
    p.set_defaults(func=_cmd_subdivide_tpb)

    p = sub.add_parser("subdivide-tb", help="restrict a monomial surface to a triangle")
    add_io(p)
    p.add_argument(
        "--vertices", nargs=3, required=True, metavar="S,T",
        help="the three domain-triangle vertices as rational pairs",
    )
    p.set_defaults(func=_cmd_subdivide_tb)

    p = sub.add_parser("eval", help="evaluate any document at exact parameters")
    add_io(p)
    p.add_argument("-u", required=True, help="first parameter (rational)")
    p.add_argument("-v", help="second parameter (rational, surfaces/patches only)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="closed form vs. brute-force enumeration on random instances")
    p.add_argument("--trials", type=int, default=100, help="random instances per shape")
    p.add_argument(
        "--max-degree", type=int, default=3,
        help=f"degree bound for random instances (at most {ORACLE_DEGREE_CAP})",
    )
    p.add_argument("--seed", type=int, default=42, help="RNG seed")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mesh", help="tessellate a document to a Wavefront OBJ")
    add_io(p)
    p.add_argument(
        "--samples", "-g", type=int, default=17,
        help=f"vertices per edge (>= 2); a mesh of more than {MESH_VERTEX_BUDGET} "
        "sampled vertices is refused",
    )
    p.add_argument("--with-net", action="store_true", help="emit the control net as line elements")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("bench", help="time closed form against enumeration, write CSV")
    p.add_argument("--shapes", default="curve,tpb,tb", help="comma list of curve,tpb,tb")
    p.add_argument("--degrees", default="2,3,4", help="comma list of degrees (surfaces use n=m)")
    p.add_argument("--repeat", type=int, default=1, help="repetitions per cell")
    p.add_argument("--seed", type=int, default=0, help="instance RNG seed")
    p.add_argument(
        "--max-oracle-degree", type=int, default=ORACLE_DEGREE_CAP,
        help=f"skip enumeration rows above this degree (at most {ORACLE_DEGREE_CAP})",
    )
    p.add_argument("--output", "-o", default="-", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_bench)
    return parser


def _shield_negative_values(argv: list[str]) -> list[str]:
    """argparse takes any argument that starts with "-" and is not a plain
    number, such as the vertex -1/2,0, for an option. No option of this
    program starts with "-" and a digit, so such an argument is a value; a
    leading space keeps it one, and every value parser strips it."""
    return [" " + arg if arg[:1] == "-" and arg[1:2].isdigit() else arg for arg in argv]


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_shield_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (documents.DocumentError, ValueError, OSError) as exc:
        _error(str(exc))
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
