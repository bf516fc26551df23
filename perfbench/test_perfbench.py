"""Tests of the benchmark itself.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.import_package()

from blossom_subdiv import documents  # noqa: E402


def _inputs(workload, seed, work):
    """Everything the program would receive for two decks of jobs."""
    jobs = [workload.job(seed, k, work) for k in range(2 * (len(workload.deck) or 8))]
    return [
        (
            job.trial_seed,
            [[arg.replace(str(work), "") for arg in argv] for argv in job.steps],
            [(path.name, data) for path, data in job.inputs.items()],
        )
        for job in jobs
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = _inputs(workload, 7, tmp_path / "a")
    assert first == _inputs(workload, 7, tmp_path / "b")
    assert first != _inputs(workload, 8, tmp_path / "a")


def test_flipped_coordinate_is_a_counted_failure(monkeypatch, capsys):
    dumps = documents.dumps
    flipped = []

    def flip_first(document):
        # The first tpb patch of degree 4 or more is a timed job's output.
        if not flipped and document["kind"] == "tpb-patch" and document["degree"][0] >= 4:
            document = json.loads(json.dumps(document))
            point = document["control_points"][0][0]
            point[0] = str(Fraction(point[0]) + 1)
            flipped.append(point)
        return dumps(document)

    monkeypatch.setattr(documents, "dumps", flip_first)
    code = run.main(["--workload", "kernel-batch", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert flipped
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == len(workloads.KERNEL_BATCH.deck)


def test_spans_nest_and_self_times_fit_in_the_job(tmp_path):
    cli_ctx = run.Context(workloads.CLI_SMALL, 5, tmp_path)
    verify_ctx = run.Context(workloads.VERIFY_TRIALS, 5, tmp_path)
    tracer = tracing.Tracer()
    with tracing.patched(tracer.wrapper) as missing:
        for k in range(len(workloads.CLI_SMALL.deck)):
            with tracer.job(k):
                assert cli_ctx.run(cli_ctx.job(k), "inproc").error is None
        with tracer.job("verify"):
            assert verify_ctx.run(verify_ctx.job(0)).error is None
    assert missing == []
    assert documents.dumps.__module__ == "blossom_subdiv.documents"  # put back

    spans = tracer.spans
    assert {s[tracing.LAYER] for s in spans} == {"job", *tracing.LAYERS}
    covered = [0.0] * len(spans)
    for record in spans:
        parent = record[tracing.PARENT]
        if parent is None:
            assert record[tracing.NAME] == "job"
            continue
        outer = spans[parent]
        assert outer[tracing.START] <= record[tracing.START] <= record[tracing.END] <= outer[tracing.END]
        assert record[tracing.JOB] == outer[tracing.JOB]
        covered[parent] += record[tracing.END] - record[tracing.START]
    for root in (s for s in spans if s[tracing.PARENT] is None):
        wall = root[tracing.END] - root[tracing.START]
        self_sum = sum(
            record[tracing.END] - record[tracing.START] - covered[i]
            for i, record in enumerate(spans)
            if record[tracing.JOB] == root[tracing.JOB] and record[tracing.PARENT] is not None
        )
        assert 0 <= self_sum <= wall


def test_mix_statistics_weigh_each_class_by_its_stated_share():
    weights = {"cheap": 0.5, "dear": 0.5}
    samples = [("cheap", 1.0)] * 9 + [("dear", 3.0)]
    assert run.mix_mean(samples, weights) == pytest.approx(2.0)
    assert run.mix_quantile(samples, weights, 0.25) == pytest.approx(1.0)
    assert run.mix_quantile(samples, weights, 0.75) == pytest.approx(3.0)
    # The band straddling the class boundary averages the two classes.
    assert run.mix_quantile(samples, weights, 0.5) == pytest.approx(2.0)


def test_seed_zero_outputs_must_match_the_recorded_digest(monkeypatch, capsys):
    monkeypatch.setattr(run, "golden_digest", lambda workload: "0" * 64)
    code = run.main(["--workload", "verify-trials", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["failed"] == 1
