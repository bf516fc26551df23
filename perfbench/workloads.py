"""Seeded inputs for the benchmark workloads.

Nothing here imports blossom_subdiv, in particular not its sampling or
bench modules, so a change to the package cannot change what the
benchmark feeds it. The program sees only the documents and argv built
here.

A decked workload cycles through a fixed list of job classes (its
input mix); the seed shuffles the order within each deck and draws every
coefficient, domain and probe point. verify-trials has no deck: each job
is one seeded `run_verification` trial, and its class (the degrees the
program drew) is read back from the report.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from checks import (
    casteljau,
    casteljau_tensor,
    casteljau_triangle,
    check_obj,
    check_patch,
    check_point,
    grid_params,
    horner_curve,
    horner_surface,
)

SMALL = "h9"  # |p|, q <= 9, the magnitudes of the package's own verify sampling
BIG = "h32"  # |p| and q drawn from [2^31, 2^32)
PROBES = 2  # exact interior evaluations per patch check
OBJ_PICKS = 16  # OBJ vertices compared per mesh check
VERIFY_MAX_DEGREE = 3  # at 4, single trials reach seconds


@dataclass(frozen=True)
class Spec:
    """One job class of a decked workload."""

    command: str  # subdivide | subdivide+mesh | mesh-monomial | mesh-patch | eval-patch
    shape: str  # curve | tpb | tb | surface
    degree: tuple[int, ...]
    height: str = SMALL
    samples: int = 0  # mesh vertices per edge
    with_net: bool = False

    @property
    def label(self) -> str:
        return f"{self.shape}:{'x'.join(map(str, self.degree))}"

    @property
    def name(self) -> str:
        net = "-net" if self.with_net else ""
        return f"{self.command}-{self.label}-{self.height}{net}"


@dataclass
class Job:
    index: int
    shape: str
    cls: Optional[str] = None  # None until a verify report names it
    degree: str = ""
    height: str = SMALL
    steps: list[list[str]] = field(default_factory=list)  # one cli argv per step
    inputs: dict[Path, bytes] = field(default_factory=dict)
    outputs: list[Path] = field(default_factory=list)
    checks: list[Callable[[str], Optional[str]]] = field(default_factory=list)
    trial_seed: int = 0

    def write_inputs(self) -> None:
        for path, data in self.inputs.items():
            path.write_bytes(data)


# ---- random exact data ------------------------------------------------------


def rational(rng: random.Random, height: str) -> Fraction:
    if height == SMALL:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    lo, hi = 2**31, 2**32 - 1
    return Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))


def point3(rng, height):
    return tuple(rational(rng, height) for _ in range(3))


def points(rng, height, count):
    return [point3(rng, height) for _ in range(count)]


def grid(rng, height, n, m):
    return [points(rng, height, m + 1) for _ in range(n + 1)]


def triangle_rows(rng, height, n_total):
    return [points(rng, height, n_total - nu + 1) for nu in range(n_total + 1)]


def domain_value(rng, nonnegative=False):
    """An irreducible p/q with q in {7, 11, 13} and |p/q| < 2, so that the
    size of the numbers a job computes with, and so its cost, depends on
    its class and not on the luck of the domain draw."""
    q = rng.choice((7, 11, 13))
    p = q
    while p % q == 0:
        p = rng.randint(1 if nonnegative else 1 - 2 * q, 2 * q - 1)
    return Fraction(p, q)


def interval(rng):
    a = domain_value(rng)
    b = domain_value(rng)
    while b == a:
        b = domain_value(rng)
    return a, b


def triangle(rng):
    """Three non-collinear vertices. The first coordinate is kept
    non-negative so the `s,t` argument never starts with '-'."""
    while True:
        va, vb, vc = ((domain_value(rng, True), domain_value(rng)) for _ in range(3))
        if (vb[0] - va[0]) * (vc[1] - va[1]) != (vb[1] - va[1]) * (vc[0] - va[0]):
            return va, vb, vc


def probe(rng, shape):
    """An exact interior parameter: t in (0, 1), or (u, v) with u, v and
    1 - u - v all positive for triangles."""
    if shape == "tb":
        q = rng.randint(3, 17)
        i = rng.randint(1, q - 2)
        return Fraction(i, q), Fraction(rng.randint(1, q - 1 - i), q)
    count = 1 if shape == "curve" else 2
    return tuple(Fraction(rng.randint(1, q - 1), q) for q in (rng.randint(2, 17) for _ in range(count)))


# ---- documents ----------------------------------------------------------------


def row_json(row):
    return [[str(c) for c in p] for p in row]


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def monomial_doc(spec: Spec, coeffs) -> bytes:
    if spec.shape == "curve":
        return encode({"kind": "curve", "degree": list(spec.degree), "coeffs": row_json(coeffs)})
    return encode(
        {"kind": "surface", "degree": list(spec.degree), "coeffs": [row_json(r) for r in coeffs]}
    )


def triangle_domain(va, vb, vc):
    return {key: [str(c) for c in v] for key, v in zip(("va", "vb", "vc"), (va, vb, vc))}


def triangle_entries(rows):
    return [
        {"nu": nu, "mu": mu, "point": [str(c) for c in p]}
        for nu, row in enumerate(rows)
        for mu, p in enumerate(row)
    ]


def row_shape(kind, degree):
    if kind == "bezier-curve":
        return degree[0] + 1
    if kind == "tpb-patch":
        return [degree[1] + 1] * (degree[0] + 1)
    return [degree[0] - nu + 1 for nu in range(degree[0] + 1)]


GRID = {"curve": "line", "tpb": "quad", "tb": "tri", "surface": "quad"}
KIND = {"curve": "bezier-curve", "tpb": "tpb-patch", "tb": "tb-patch"}
EVALUATE = {"curve": casteljau, "tpb": casteljau_tensor, "tb": casteljau_triangle}


def restriction(rng, spec: Spec, coeffs):
    """Subcommand with its domain flags, the patch degree, and the exact
    value of the restricted patch at local parameters."""
    if spec.shape == "curve":
        a, b = interval(rng)
        return (
            ["subdivide-curve", f"-a={a}", f"-b={b}"],
            spec.degree,
            lambda t: horner_curve(coeffs, a + (b - a) * t),
        )
    if spec.shape == "tpb":
        (a, b), (c, d) = interval(rng), interval(rng)
        return (
            ["subdivide-tpb", f"-a={a}", f"-b={b}", f"-c={c}", f"-d={d}"],
            spec.degree,
            lambda u, v: horner_surface(coeffs, a + (b - a) * u, c + (d - c) * v),
        )
    va, vb, vc = triangle(rng)

    def local(u, v):
        w = 1 - u - v
        return horner_surface(
            coeffs,
            u * va[0] + v * vb[0] + w * vc[0],
            u * va[1] + v * vb[1] + w * vc[1],
        )

    vertices = [f"{p[0]},{p[1]}" for p in (va, vb, vc)]
    return ["subdivide-tb", "--vertices", *vertices], (sum(spec.degree),), local


def random_patch(rng, spec: Spec):
    """A Bernstein patch document drawn directly, and its exact evaluator."""
    if spec.shape == "curve":
        pts = points(rng, spec.height, spec.degree[0] + 1)
        a, b = interval(rng)
        doc = {"kind": "bezier-curve", "degree": list(spec.degree),
               "domain": {"a": str(a), "b": str(b)}, "control_points": row_json(pts)}
    elif spec.shape == "tpb":
        pts = grid(rng, spec.height, *spec.degree)
        (a, b), (c, d) = interval(rng), interval(rng)
        doc = {"kind": "tpb-patch", "degree": list(spec.degree),
               "domain": {"a": str(a), "b": str(b), "c": str(c), "d": str(d)},
               "control_points": [row_json(r) for r in pts]}
    else:
        pts = triangle_rows(rng, spec.height, spec.degree[0])
        doc = {"kind": "tb-patch", "degree": list(spec.degree),
               "domain": triangle_domain(*triangle(rng)),
               "control_points": triangle_entries(pts)}
    return encode(doc), (lambda *p: EVALUATE[spec.shape](pts, *p))


def net_points(shape, degree):
    if shape == "curve":
        return degree[0] + 1
    if shape == "tpb":
        return (degree[0] + 1) * (degree[1] + 1)
    return (degree[0] + 1) * (degree[0] + 2) // 2


def build_job(spec: Spec, rng: random.Random, work: Path, k: int) -> Job:
    """Input files, cli steps and output checks of job k of class spec."""
    job = Job(k, spec.shape, spec.name, spec.label, spec.height)
    src = work / f"{k}-in.json"
    degree = spec.degree
    if spec.command in ("eval-patch", "mesh-patch"):
        job.inputs[src], value = random_patch(rng, spec)
    elif spec.shape == "curve":
        coeffs = points(rng, spec.height, degree[0] + 1)
        job.inputs[src] = monomial_doc(spec, coeffs)
        value = lambda t: horner_curve(coeffs, t)
    else:
        coeffs = grid(rng, spec.height, *degree)
        job.inputs[src] = monomial_doc(spec, coeffs)
        value = lambda u, v: horner_surface(coeffs, u, v)

    if spec.command.startswith("subdivide"):
        options, degree, value = restriction(rng, spec, coeffs)
        patch = work / f"{k}-patch.json"
        job.steps.append([options[0], "-i", str(src), "-o", str(patch), *options[1:]])
        job.outputs.append(patch)
        kind = KIND[spec.shape]
        shape = row_shape(kind, degree)
        probes = [probe(rng, spec.shape) for _ in range(PROBES)]
        evaluate = EVALUATE[spec.shape]
        job.checks.append(lambda text: check_patch(text, kind, shape, probes, evaluate, value))
        if spec.command == "subdivide":
            return job
        src = patch

    if spec.command == "eval-patch":
        out = work / f"{k}-point.json"
        params = probe(rng, spec.shape)
        flags = [f"-u={params[0]}"] + ([f"-v={params[1]}"] if len(params) == 2 else [])
        job.steps.append(["eval", "-i", str(src), "-o", str(out), *flags])
        job.outputs.append(out)
        want = value(*params)
        job.checks.append(lambda text: check_point(text, want))
        return job

    obj = work / f"{k}-mesh.obj"
    argv = ["mesh", "-i", str(src), "-o", str(obj), "--samples", str(spec.samples)]
    net = 0
    if spec.with_net:
        argv.append("--with-net")
        net = net_points(spec.shape, degree)
    job.steps.append(argv)
    job.outputs.append(obj)
    layout = GRID[spec.shape]
    count = len(grid_params(layout, spec.samples))
    picks = rng.sample(range(count), min(OBJ_PICKS, count))
    job.checks.append(lambda text: check_obj(text, layout, spec.samples, net, picks, value))
    return job


# ---- workloads -----------------------------------------------------------------


def verify_weights(max_degree: int = VERIFY_MAX_DEGREE) -> dict[str, float]:
    """Class weights of the program's own trial sampling, in which every
    degree is uniform on 0..max_degree. A whole trial is classed by its
    triangle's total degree and its tensor patch's point count, which
    between them set most of its cost."""
    degrees = range(max_degree + 1)
    pairs = [(n, m) for n in degrees for m in degrees]
    tb = Counter(n + m for n, m in pairs)
    tpb = Counter((n + 1) * (m + 1) for n, m in pairs)
    weights = {f"curve:{n}": 1 / len(degrees) for n in degrees}
    weights.update({f"tpb:{p}pts": c / len(pairs) for p, c in tpb.items()})
    weights.update({f"tb:{n}": c / len(pairs) for n, c in tb.items()})
    weights.update(
        {
            f"trial:tb{n}/tpb{p}pts": ct * cp / len(pairs) ** 2
            for n, ct in tb.items()
            for p, cp in tpb.items()
        }
    )
    return weights


def verify_classes(checked_points: dict[str, int]) -> dict[str, str]:
    """Per-shape and whole-trial class of a verify trial, recovered from
    the number of control points it compared per shape."""
    n_tb = (math.isqrt(8 * checked_points["tb"] + 1) - 3) // 2
    return {
        "curve": f"curve:{checked_points['curve'] - 1}",
        "tpb": f"tpb:{checked_points['tpb']}pts",
        "tb": f"tb:{n_tb}",
        "trial": f"trial:tb{n_tb}/tpb{checked_points['tpb']}pts",
    }


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # inproc: cli.main in this process | process: one cli process per job | verify
    deck: tuple[Spec, ...] = ()
    warmup: tuple[Spec, ...] = ()

    def weights(self) -> dict[str, float]:
        if not self.deck:
            return verify_weights()
        return {spec.name: 1 / len(self.deck) for spec in self.deck}

    def job(self, seed: int, k: int, work: Path) -> Job:
        """Job k of the run with this seed; the same arguments give the
        same job and the same input bytes."""
        rng = random.Random(f"{self.name}/{seed}/{k}")
        if not self.deck:
            return Job(k, "trial", trial_seed=rng.getrandbits(32))
        deck, slot = divmod(k, len(self.deck))
        order = list(range(len(self.deck)))
        random.Random(f"{self.name}/{seed}/deck{deck}").shuffle(order)
        return build_job(self.deck[order[slot]], rng, work, k)

    def warmup_jobs(self, seed: int, work: Path) -> list[Job]:
        return [
            build_job(spec, random.Random(f"{self.name}/{seed}/warmup{i}"), work, -1 - i)
            for i, spec in enumerate(self.warmup)
        ]


def _sub(shape, degree, height=SMALL):
    return Spec("subdivide", shape, degree, height)


def _mesh(shape, degree, height, with_net=False):
    return Spec("subdivide+mesh", shape, degree, height, 33, with_net)


# Every deck holds an odd number of classes of each shape, so that each
# shape's mix-weighted median falls inside one class rather than in the
# gap between two classes of very different cost.

# tpb 4-7 and tb 2-4 per direction, curves 8-32, both heights. Kernel
# time splits roughly 50% tpb, 38% tb, 12% curve, so a change to either
# surface kernel moves its own *_job_p50_ms.
KERNEL_BATCH = Workload(
    "kernel-batch",
    "inproc",
    (
        _sub("curve", (8,)), _sub("curve", (12,), BIG), _sub("curve", (16,)),
        _sub("curve", (24,), BIG), _sub("curve", (32,)),
        _sub("tpb", (4, 4)), _sub("tpb", (4, 5), BIG), _sub("tpb", (5, 6)),
        _sub("tpb", (6, 7), BIG), _sub("tpb", (7, 7)),
        _sub("tb", (2, 2), BIG), _sub("tb", (3, 2)), _sub("tb", (3, 3), BIG),
        _sub("tb", (4, 4), BIG), _sub("tb", (4, 4)),
    ),
    (_sub("curve", (2,)), _sub("tpb", (1, 1)), _sub("tb", (1, 1))),
)

# Degree 2-3 surfaces, subdivided and meshed at 33 samples per edge, some
# with the control net, plus a slice meshing monomial documents directly.
# The dearest classes (3x3 tensor, 2x3 triangle at h32) are left out: at
# up to 2 s a job they would leave a run too few jobs to measure. Curves
# get the vertex budget of a 33 x 33 grid; at 33 samples a curve job
# lasts 15 ms and its timing is mostly scheduler noise. The three curve
# classes cost about the same (0.3-0.45 s), so their median draws on all
# of the run's curve jobs rather than on one class.
CURVE_SAMPLES = 33 * 33
MESH_EXPORT = Workload(
    "mesh-export",
    "inproc",
    (
        _mesh("tpb", (2, 2), SMALL), _mesh("tpb", (3, 2), SMALL, True),
        _mesh("tpb", (2, 2), BIG),
        _mesh("tb", (2, 2), SMALL, True), _mesh("tb", (2, 2), BIG),
        _mesh("tb", (3, 2), SMALL),
        Spec("mesh-monomial", "surface", (3, 2), SMALL, 33),
        Spec("mesh-monomial", "surface", (2, 2), BIG, 33),
        Spec("mesh-monomial", "curve", (12,), BIG, CURVE_SAMPLES),
        Spec("mesh-monomial", "curve", (16,), BIG, CURVE_SAMPLES),
        Spec("mesh-monomial", "curve", (20,), SMALL, CURVE_SAMPLES),
    ),
    (
        Spec("subdivide+mesh", "tpb", (1, 1), SMALL, 5, True),
        Spec("subdivide+mesh", "tb", (1, 1), SMALL, 5, True),
    ),
)

# Small documents, one interpreter per job: start-up and import dominate.
CLI_SMALL = Workload(
    "cli-small",
    "process",
    (
        _sub("curve", (3,)), _sub("tpb", (3, 2)), _sub("tb", (2, 1)),
        Spec("eval-patch", "curve", (3,)), Spec("eval-patch", "tpb", (3, 2)),
        Spec("eval-patch", "tb", (3,)),
        Spec("mesh-patch", "curve", (3,), samples=9), Spec("mesh-patch", "tpb", (3, 2), samples=9),
        Spec("mesh-patch", "tb", (3,), samples=9),
    ),
    (Spec("eval-patch", "curve", (1,)),),
)

VERIFY_TRIALS = Workload("verify-trials", "verify")

WORKLOADS = {w.name: w for w in (KERNEL_BATCH, MESH_EXPORT, CLI_SMALL, VERIFY_TRIALS)}
