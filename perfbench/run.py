"""Layered benchmark for blossom-subdiv.

    python3 perfbench/run.py --workload kernel-batch --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop, one job at a time in one process
(cli-small: one `python -m blossom_subdiv.cli` child at a time), until
--seconds have passed and the first deck of jobs has run. Every output is
then checked exactly. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer table of a
traced replay of the same jobs. `--workload all` runs the four workloads
in turn. The exit code is 0 only when every output was right. README.md
next to this file maps layers to metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6  # extra set-ups in fresh interpreters, for a median setup_s
IMPORT_PROBES = 5
LOOP_CAP_S = 120.0  # hard stop for the timed loop, whatever --seconds says
JOB_TIMEOUT_S = 120.0
VERIFY_PREFIX = 16  # verify jobs covered by the prefix digest
BAND = 0.05  # least half-width, in weight, of the band a quantile averages over

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "curve_job_p50_ms": "ms",
    "tpb_job_p50_ms": "ms",
    "tb_job_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("self_s"):
        return "s"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("share"):
        return "ratio"
    return "count"


# ---- statistics at the stated input mix ---------------------------------------


def _weighted(samples, weights):
    """(value, weight) pairs such that every class present counts with its
    stated weight, split evenly over its samples, whatever number of
    samples the run happened to draw of it."""
    samples = [(cls, value) for cls, value in samples if cls in weights]
    counts: dict[str, int] = {}
    for cls, _ in samples:
        counts[cls] = counts.get(cls, 0) + 1
    total = sum(weights[cls] for cls in counts)
    return [(value, weights[cls] / counts[cls] / total) for cls, value in samples]


def mix_mean(samples, weights) -> float:
    return sum(value * w for value, w in _weighted(samples, weights))


def mix_quantile(samples, weights, q: float) -> float:
    """The q-quantile of the mix-weighted latency distribution, taken as
    the mean over a band of weight around q: BAND wide on each side, or
    the quantile's own standard error sqrt(q(1-q)/n) where that is wider.
    Between job classes of very different cost the distribution has gaps,
    and a plain quantile that falls in one jumps with the smallest change
    in timing; the band mean moves smoothly."""
    band = max(BAND, math.sqrt(q * (1 - q) / max(len(samples), 1)))
    lo, hi = max(0.0, q - band), min(1.0, q + band)
    total = start = 0.0
    for value, w in sorted(_weighted(samples, weights)):
        total += value * max(0.0, min(start + w, hi) - max(start, lo))
        start += w
    return total / (hi - lo) if start else 0.0


# ---- running jobs ---------------------------------------------------------------


@dataclass
class Record:
    job: workloads.Job
    latency: float = 0.0
    error: Optional[str] = None
    cls: Optional[str] = None
    shape_latency: dict = field(default_factory=dict)  # shape -> (class, seconds)
    result: bytes = b""  # verify: the report summary; cli jobs: stdout and stderr


class Context:
    """One workload run: its inputs, job cache and the program under test."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path):
        from blossom_subdiv import cli, verify

        self.cli, self.verify = cli, verify
        self.workload, self.seed, self.work = workload, seed, work
        self.jobs: dict[int, workloads.Job] = {}
        self.clock: Optional[tracing.ShapeClock] = None
        self.env = dict(os.environ, NO_COLOR="1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def job(self, k: int) -> workloads.Job:
        if k not in self.jobs:
            job = self.workload.job(self.seed, k, self.work)
            job.write_inputs()
            self.jobs[k] = job
        return self.jobs[k]

    def run(self, job: workloads.Job, mode: Optional[str] = None) -> Record:
        mode = mode or self.workload.mode
        if mode == "verify":
            return self._run_verify(job)
        record = Record(job, cls=job.cls)
        out = []
        for argv in job.steps:
            if mode == "process":
                code, stdout, stderr, seconds = self._process(argv)
                out += [stdout, stderr.encode()]
            else:
                code, stderr, seconds = self._inproc(argv)
            record.latency += seconds
            if code != 0 or stderr:
                record.error = f"{argv[0]}: exit {code}, stderr {stderr[-400:]!r}"
                break
        record.result = b"".join(out)
        record.shape_latency = {job.shape: (job.cls, record.latency)}
        return record

    def _inproc(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(list(argv))
            except Exception:  # a traceback is a failed job, not a crashed benchmark
                code = None
                err.write(traceback.format_exc())
            seconds = perf_counter() - start
        return code, err.getvalue(), seconds

    def _process(self, argv):
        command = [sys.executable, "-m", "blossom_subdiv.cli", *argv]
        start = perf_counter()
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                capture_output=True, timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, b"", "timeout", perf_counter() - start
        seconds = perf_counter() - start
        return done.returncode, done.stdout, done.stderr.decode(errors="replace"), seconds

    def _run_verify(self, job: workloads.Job) -> Record:
        record = Record(job)
        if self.clock is not None:
            self.clock.seconds.clear()
        start = perf_counter()
        try:
            report = self.verify.run_verification(1, workloads.VERIFY_MAX_DEGREE, job.trial_seed)
        except Exception:
            record.latency = perf_counter() - start
            record.error = traceback.format_exc()[-400:]
            return record
        record.latency = perf_counter() - start
        classes = workloads.verify_classes(report.checked_points)
        record.cls = classes["trial"]
        if self.clock is not None:
            record.shape_latency = {
                shape: (classes[shape], self.clock.seconds[shape]) for shape in ("curve", "tpb", "tb")
            }
        summary = {"ok": report.ok, "checked_points": report.checked_points}
        record.result = json.dumps(summary, sort_keys=True).encode()
        if not report.ok:
            record.error = f"verify mismatch: {report.mismatch}"
        return record

    def setup(self) -> None:
        """Input generation for the first deck and one warm-up run of each
        command path, before the first timed job."""
        if self.workload.mode == "verify":
            self.verify.run_verification(1, 1, self.seed)
            return
        for job in self.workload.warmup_jobs(self.seed, self.work):
            job.write_inputs()
            self.run(job)
        for k in range(len(self.workload.deck)):
            self.job(k)


def timed_loop(ctx: Context, seconds: float) -> list[Record]:
    """Closed loop: the next job starts when the previous one is done.
    Stops once `seconds` have passed and the first deck (every class once;
    for verify-trials, VERIFY_PREFIX trials) has run."""
    records = []
    start = perf_counter()
    while True:
        records.append(ctx.run(ctx.job(len(records))))
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(records) >= prefix_length(ctx)) or elapsed >= LOOP_CAP_S:
            return records


@dataclass
class Outcome:
    records: list[Record]  # the timed loop's jobs
    attempted: int  # every job run, replays included
    checked: "Checked"
    metrics: dict[str, float]
    units: dict[str, str]
    extra: dict
    spans: Optional[dict] = None


@dataclass
class Checked:
    failed: int = 0
    errors: list = field(default_factory=list)
    bytes_in: int = 0
    bytes_out: int = 0
    digest: str = ""
    prefix_digest: str = ""

    def merge(self, other: "Checked") -> None:
        """Count another set of checked jobs; the digests stay this set's."""
        self.failed += other.failed
        self.errors += other.errors[: max(0, 10 - len(self.errors))]


def check(records: list[Record], prefix: int) -> Checked:
    """Exact output checks, run after the timed region. Also digests every
    output byte, and separately the first `prefix` jobs, whose outputs do
    not depend on how many jobs the run managed."""
    out = Checked()
    digest, prefix_digest = hashlib.sha256(), hashlib.sha256()
    for i, record in enumerate(records):
        job = record.job
        outputs = [record.result]
        if record.error is None:
            for path, check_one in zip(job.outputs, job.checks):
                try:
                    data = path.read_bytes()
                    outputs.append(data)
                    message = check_one(data.decode())
                except Exception as exc:  # unreadable or malformed output
                    message = f"{type(exc).__name__}: {exc}"
                if message:
                    record.error = message
                    break
        out.bytes_in += sum(len(data) for data in job.inputs.values())
        for data in outputs:
            out.bytes_out += len(data)
            digest.update(data)
            if i < prefix:
                prefix_digest.update(data)
        if record.error is not None:
            out.failed += 1
            if len(out.errors) < 10:
                out.errors.append(f"job {job.index} ({record.cls}): {record.error}")
    out.digest, out.prefix_digest = digest.hexdigest(), prefix_digest.hexdigest()
    return out


def descriptors(records: list[Record], checked: Checked) -> dict:
    degrees: dict[str, int] = {}
    heights: dict[str, int] = {}
    for record in records:
        labels = [record.job.degree] if record.job.degree else [
            cls for cls, _ in record.shape_latency.values()
        ] or [record.cls]
        for label in labels:
            degrees[label] = degrees.get(label, 0) + 1
        heights[record.job.height] = heights.get(record.job.height, 0) + 1
    return {
        "jobs": len(records),
        "degree_histogram": dict(sorted(degrees.items())),
        "height_classes": heights,
        "bytes_in": checked.bytes_in,
        "bytes_out": checked.bytes_out,
    }


# ---- measurements outside the loop ----------------------------------------------


def _child(args: list[str], env) -> str:
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def setup_probes(args, env) -> list[float]:
    """Set-up time of fresh interpreters running the same workload."""
    argv = [str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    return [json.loads(_child(argv, env))["setup_s"] for _ in range(SETUP_PROBES)]


def import_ms(env) -> float:
    code = (
        "import time; t = time.perf_counter(); import blossom_subdiv.cli; "
        "print((time.perf_counter() - t) * 1000)"
    )
    return statistics.median(float(_child(["-c", code], env)) for _ in range(IMPORT_PROBES))


def environment(args) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_revision() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---- the two kinds of run -----------------------------------------------------------


def end_to_end(ctx: Context, args, setup_s: float):
    """--trace 0: untraced timed loop, then checks and set-up probes."""
    if ctx.workload.mode == "verify":
        ctx.clock = tracing.ShapeClock()
        with tracing.patched(ctx.clock.wrapper):
            records = timed_loop(ctx, args.seconds)
    else:
        records = timed_loop(ctx, args.seconds)
    who = resource.RUSAGE_CHILDREN if ctx.workload.mode == "process" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    checked = check(records, prefix_length(ctx))
    setups = [setup_s] + setup_probes(args, ctx.env)
    weights = ctx.workload.weights()
    latencies = [(r.cls, r.latency) for r in records]
    metrics = {
        "jobs_per_s": 1 / (mix_mean(latencies, weights) or float("inf")),
        "job_p50_ms": mix_quantile(latencies, weights, 0.5) * 1000,
        "job_p90_ms": mix_quantile(latencies, weights, 0.9) * 1000,
    }
    for shape in ("curve", "tpb", "tb"):
        samples = [r.shape_latency[shape] for r in records if shape in r.shape_latency]
        metrics[f"{shape}_job_p50_ms"] = mix_quantile(samples, weights, 0.5) * 1000
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb
    by_class: dict[str, list] = {}
    for r in records:
        by_class.setdefault(r.cls, []).append(round(r.latency * 1000, 3))
    extra = {"setup_samples_s": setups, "latency_ms_by_class": dict(sorted(by_class.items()))}
    return Outcome(records, len(records), checked, metrics, END_TO_END_UNITS, extra)


def layered(ctx: Context, args, setup_s: float):
    """--trace 1: a third of the time untraced, then every job of it run
    again twice, in process, untraced and traced in alternating order, so
    that warm-up favours neither side of trace.overhead_share."""
    records = timed_loop(ctx, args.seconds / 3)
    checked = check(records, prefix_length(ctx))
    process = ctx.workload.mode == "process"
    mode = "inproc" if process else None
    tracer = tracing.Tracer()
    base, traced = [], []
    for i, job in enumerate(r.job for r in records):
        for with_trace in (i % 2 == 1, i % 2 == 0):
            if with_trace:
                with tracing.patched(tracer.wrapper) as missing, tracer.job(job.index):
                    record = ctx.run(job, mode)
                traced.append(record)
            else:
                record = ctx.run(job, mode)
                base.append(record)
            checked.merge(check([record], 0))

    weights = ctx.workload.weights()
    metrics = tracing.layer_metrics(tracer.spans)
    process_latency = [(r.cls, r.latency) for r in records]
    inproc_latency = [(r.cls, r.latency) for r in base]
    metrics["cli.process_p50_ms"] = (
        mix_quantile(process_latency, weights, 0.5) * 1000 if process else 0.0
    )
    metrics["cli.inproc_p50_ms"] = (
        mix_quantile(inproc_latency, weights, 0.5) * 1000 if ctx.workload.mode != "verify" else 0.0
    )
    metrics["cli.import_ms"] = import_ms(ctx.env)
    metrics["trace.overhead_share"] = (
        sum(r.latency for r in traced) / sum(r.latency for r in base) - 1
    )
    units = {name: layer_unit(name) for name in metrics}
    extra = {"untraced_jobs": len(records), "unmeasured_functions": missing}
    spans = {"fields": tracing.FIELDS, "spans": tracer.spans}
    return Outcome(records, 3 * len(records), checked, metrics, units, extra, spans)


def prefix_length(ctx: Context) -> int:
    return len(ctx.workload.deck) or VERIFY_PREFIX


def golden_digest(workload: str) -> Optional[str]:
    path = HERE / "digests.json"
    return json.loads(path.read_text()).get(workload) if path.is_file() else None


# ---- entry points ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package() -> None:
    """Import blossom_subdiv from this checkout's src/ and nowhere else."""
    if not (SRC / "blossom_subdiv" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import blossom_subdiv.cli

    if Path(blossom_subdiv.cli.__file__).resolve().parent != SRC / "blossom_subdiv":
        raise SystemExit(f"error: imported blossom_subdiv from {blossom_subdiv.cli.__file__}")


def print_summary(name, outcome: Outcome, env_info, desc) -> None:
    checked, attempted = outcome.checked, outcome.attempted
    print(f"# {name}: seed {env_info['seed']}, python {env_info['python']}, "
          f"nproc {env_info['nproc']}, cpu {env_info['cpu_model']}, rev {env_info['git_revision']}")
    for key, value in outcome.metrics.items():
        print(f"  {key:<24} {value:>14.6g} {outcome.units[key]}")
    print(f"  {'fail_ratio':<24} {checked.failed / attempted:>14.6g} ratio "
          f"({checked.failed} of {attempted})")
    print(f"  inputs: {json.dumps(desc)}")
    print(f"  output sha256 {checked.digest}, first-deck sha256 {checked.prefix_digest}")
    for error in checked.errors:
        print(f"  FAILED {error}")


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# {name}: no result (exit {done.returncode})")
            return 1
        correct &= result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    start = _START if argv is None else perf_counter()
    args = parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = Context(workload, args.seed, work)
        ctx.setup()
        setup_s = perf_counter() - start
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        measure = layered if args.trace else end_to_end
        outcome = measure(ctx, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    checked, metrics, units, attempted = outcome.checked, outcome.metrics, outcome.units, outcome.attempted
    golden = golden_digest(args.workload)
    if args.seed == 0 and golden and checked.prefix_digest != golden:
        checked.failed += 1
        checked.errors.append(f"first-deck digest {checked.prefix_digest} != recorded {golden}")
    env_info = environment(args)
    desc = descriptors(outcome.records, checked)
    print_summary(args.workload, outcome, env_info, desc)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env_info,
        "inputs": desc,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **outcome.extra,
        "fail_ratio": checked.failed / attempted,
        "attempted": attempted,
        "failed": checked.failed,
        "failures": checked.errors,
        "output_sha256": checked.digest,
        "first_deck_sha256": checked.prefix_digest,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if outcome.spans is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(outcome.spans) + "\n")
    correct = checked.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": checked.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
