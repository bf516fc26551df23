"""Command-line front end.

Subcommands: subdivide-curve, subdivide-tpb, subdivide-tb, eval, verify,
mesh, bench. Documents default to stdin/stdout, diagnostics go to stderr.
Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
130 interrupted.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from typing import Optional

from . import documents
from .geometry import MonomialCurve, MonomialSurface, evaluate
from .numerics import MESH_VERTEX_BUDGET, ORACLE_DEGREE_CAP, format_rational, parse_rational
from .objmesh import mesh_document
from .subdivision import subdivide

# verify and bench are imported by their own commands when they run, so
# subdivide, eval and mesh never load the oracle, reference, verify or
# bench code; a tracer finds subdivision and objmesh loaded with the CLI.

PROG = "blossom-subdiv"


def _use_color() -> bool:
    return os.environ.get("NO_COLOR") is None and sys.stderr is not None and sys.stderr.isatty()


def _stderr(text: str) -> None:
    """Writes diagnostics while stderr is open and drops them otherwise, as
    argparse does: Python sets sys.stderr to None when it starts with fd 2
    closed, and a write fails once the descriptor behind it is gone."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
        except OSError:
            pass


def _diag(prefix: str, message: str, color: str) -> None:
    if _use_color():
        _stderr(f"\x1b[{color}m{prefix}\x1b[0m {message}\n")
    else:
        _stderr(f"{prefix} {message}\n")


def _warn(message: str) -> None:
    _diag("warning:", message, "33")


def _error(message: str) -> None:
    _diag("error:", message, "31")


def _read_input(path: str) -> str:
    if path == "-":
        if sys.stdin is None:  # started with fd 0 closed
            raise OSError("standard input is closed")
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: str, text: str) -> None:
    if path == "-":
        if sys.stdout is None:  # started with fd 1 closed
            raise OSError("standard output is closed")
        # Flushed here, so a failed write is an error of this command.
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _domain(args) -> dict:
    """The subdivide-* flags as the domain object of the patch document
    they make, values stripped. Each vertex is split and read before the
    next one, so the first bad vertex names the error."""
    keys = documents._DOMAIN_KEYS[args.kind]
    if args.kind != "tb-patch":
        return {key: getattr(args, key).strip() for key in keys}
    raw = {}
    for key, vertex in zip(keys, args.vertices):
        parts = vertex.split(",")
        if len(parts) != 2:
            raise ValueError(f"vertex must be 's,t', got {vertex!r}")
        raw[key] = [format_rational(parse_rational(part)) for part in parts]
    return raw


def _cmd_subdivide(args) -> int:
    """subdivide-*: args.kind is the output kind, whose domain is read
    from the flags after the input's kind check."""
    obj = documents.parse_input_document(_read_input(args.input))
    kind = "curve" if args.kind == "bezier-curve" else "surface"
    if isinstance(obj, MonomialCurve) != (kind == "curve"):
        raise documents.DocumentError(f"{args.command} needs a {kind!r} document")
    domain = documents.domain_from_json(_domain(args), args.kind)
    if args.kind == "tb-patch" and domain.is_degenerate():
        _warn("domain triangle vertices are collinear; patch is degenerate")
    patch = subdivide(obj, domain)
    _write_output(args.output, documents.dumps(documents.document(patch)))
    return 0


def _cmd_eval(args) -> int:
    obj = documents.parse_any_document(_read_input(args.input))
    params = (args.u,) if args.v is None else (args.u, args.v)
    point = evaluate(obj, *map(parse_rational, params))
    _write_output(args.output, json.dumps({"point": documents.point_to_json(point)}) + "\n")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification(args.trials, args.max_degree, args.seed)
    for shape in ("curve", "tpb", "tb"):
        _stderr(f"{shape}: {report.checked_points[shape]} control points compared exactly\n")
    if report.ok:
        _diag("PASS", f"{args.trials} trials, kernel matches enumeration", "32")
        return 0
    mm = report.mismatch
    _error(
        f"mismatch in {mm.shape} trial {mm.trial} at control point {mm.index}: "
        f"kernel {mm.kernel or 'missing'} vs oracle {mm.oracle or 'missing'}"
    )
    _stderr(json.dumps({"counterexample": mm.instance}, indent=2) + "\n")
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
    text = io.StringIO()
    bench_mod.write_csv(records, text)
    _write_output(args.output, text.getvalue())
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads every argument that starts with "-" and a digit, such as
    -1/2,0 or -1in.json, as a value: no option of this program starts that way.
    argparse 3.10-3.13 reads _negative_number_matcher in _parse_optional
    (checked in the 3.10.13, 3.11.7, 3.12.1 and 3.13.0 sources), and
    add_subparsers builds every subcommand's parser from this class."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def print_help(self, file=None):
        # Help is output like any command's, so a closed or full stdout
        # ends it with exit 2 and one error: line.
        if file is None:
            _write_output("-", self.format_help())
        else:
            super().print_help(file)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves no state in it, so
    repeated main() calls share it."""
    parser = _Parser(
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
    p.set_defaults(func=_cmd_subdivide, kind="bezier-curve")

    p = sub.add_parser("subdivide-tpb", help="restrict a monomial surface to [a,b] x [c,d]")
    add_io(p)
    for flag, doc in (("a", "u start"), ("b", "u end"), ("c", "v start"), ("d", "v end")):
        p.add_argument(f"-{flag}", f"--{flag}", required=True, help=f"{doc} (rational)")
    p.set_defaults(func=_cmd_subdivide, kind="tpb-patch")

    p = sub.add_parser("subdivide-tb", help="restrict a monomial surface to a triangle")
    add_io(p)
    p.add_argument(
        "--vertices", nargs=3, required=True, metavar="S,T",
        help="the three domain-triangle vertices as rational pairs",
    )
    p.set_defaults(func=_cmd_subdivide, kind="tb-patch")

    p = sub.add_parser("eval", help="evaluate any document at exact parameters")
    add_io(p)
    p.add_argument("-u", required=True, help="first parameter (rational)")
    p.add_argument("-v", help="second parameter (rational, surfaces/patches only)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="kernel vs. brute-force enumeration on random instances")
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


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (documents.DocumentError, ValueError, OSError) as exc:
        _error(str(exc))
        return 2


def entry() -> None:
    # Here, not in main, so that in-process callers still see the interrupt.
    try:
        code = main()
    except KeyboardInterrupt:
        _error("interrupted")
        code = 130
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # Bytes whose write failed in main stay buffered and fail again
        # here: point fd 1 at the null device, so the interpreter's last
        # flush does not fail as well.
        if code == 0:
            _error(str(exc))
            code = 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
