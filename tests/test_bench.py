import random

import pytest

from blossom_subdiv.bench import (
    BenchRecord,
    run_benchmark,
    tensor_blossom_enumerated,
    write_csv,
)
from blossom_subdiv.geometry import MonomialSurface
from blossom_subdiv.numerics import TermCounter
from blossom_subdiv.oracle import blossom_tensor
from blossom_subdiv.sampling import random_point3, random_rational, random_surface

import io
import csv


def by_method(records, shape, degrees):
    out = {}
    for rec in records:
        if rec.shape == shape and rec.degrees == degrees:
            out[rec.method] = rec
    return out


class TestEnumeratedTensorBlossom:
    def test_matches_production_oracle(self):
        rng = random.Random(909)
        for _ in range(10):
            surface = random_surface(rng, 3, 3)
            n, m = surface.degrees
            u_values = [random_rational(rng) for _ in range(n)]
            v_values = [random_rational(rng) for _ in range(m)]
            assert tensor_blossom_enumerated(surface, u_values, v_values) == blossom_tensor(
                surface, u_values, v_values
            )

    def test_pair_count(self):
        rng = random.Random(910)
        surface = MonomialSurface(
            tuple(tuple(random_point3(rng) for _ in range(3)) for _ in range(3))
        )
        counter = TermCounter()
        u = [random_rational(rng) for _ in range(2)]
        v = [random_rational(rng) for _ in range(2)]
        tensor_blossom_enumerated(surface, u, v, counter)
        # one summand per (u-subset, v-subset) pair: (sum C(2,i))^2
        assert counter.terms == 16


class TestRunBenchmark:
    def test_oracle_term_count_dominates(self):
        records, warnings = run_benchmark(["curve", "tpb", "tb"], [2, 3], repeat=1)
        assert not warnings
        for shape in ("curve", "tpb", "tb"):
            for degree in (2, 3):
                label = str(degree) if shape == "curve" else f"{degree}x{degree}"
                cell = by_method(records, shape, label)
                assert cell["oracle"].term_count >= cell["closed-form"].term_count
                assert cell["oracle"].control_point_count == cell["closed-form"].control_point_count

    def test_records_deterministic_modulo_timing(self):
        first, _ = run_benchmark(["curve", "tpb"], [2], repeat=2, seed=5)
        second, _ = run_benchmark(["curve", "tpb"], [2], repeat=2, seed=5)
        strip = lambda recs: [
            (r.shape, r.degrees, r.method, r.repetition, r.control_point_count, r.term_count)
            for r in recs
        ]
        assert strip(first) == strip(second)

    def test_closed_form_tb_term_counts_pinned(self):
        # One term per summand of the paper's triangular sum: the counts do
        # not depend on how the summands are evaluated.
        records, _ = run_benchmark(["tb"], [2, 3, 4, 5], oracle_degree_cap=-1)
        assert [r.term_count for r in records] == [345, 2065, 8820, 29988]

    def test_oracle_cap_warns_and_skips(self):
        records, warnings = run_benchmark(["tb"], [3], oracle_degree_cap=2)
        assert warnings and "above cap" in warnings[0]
        assert {r.method for r in records} == {"closed-form"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(shapes=[], degrees=[2]),
            dict(shapes=["curve"], degrees=[]),
            dict(shapes=["blob"], degrees=[2]),
            dict(shapes=["curve"], degrees=[-1]),
            dict(shapes=["curve"], degrees=[2], repeat=0),
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            run_benchmark(**kwargs)

    def test_csv_has_header_and_quoting_survives(self):
        records, _ = run_benchmark(["curve"], [2], repeat=1)
        buf = io.StringIO()
        write_csv(records, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == [
            "shape",
            "degrees",
            "method",
            "repetition",
            "wall_time_ns",
            "control_point_count",
            "term_count",
        ]
        assert len(rows) == 1 + len(records)
