"""End-to-end CLI checks: exit codes, document round-trips, golden-file
regeneration, and the stdin/stdout default plumbing."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import re
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blossom_subdiv.cli import build_parser, entry, main
from blossom_subdiv.documents import (
    curve_document,
    dumps,
    parse_input_document,
    parse_patch_document,
)
from blossom_subdiv import BezierCurve, MonomialCurve, Point3, TensorPatch
from blossom_subdiv.numerics import MESH_VERTEX_BUDGET

import golden

DATA = Path(__file__).parent / "data"
MESH = ["mesh", "-i", str(DATA / "tb_unit_triangle.json"), "-g", "3"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_on_stdin(argv, text):
    """main(argv) with text as stdin; usable inside hypothesis tests,
    which cannot take function-scoped fixtures such as capsys."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestSubdivideCurve:
    def test_constant_curve(self, capsys, tmp_path):
        doc = dumps(curve_document(MonomialCurve((Point3(2, 3, 4),))))
        src = tmp_path / "const.json"
        src.write_text(doc)
        code, out, err = run(
            ["subdivide-curve", "-i", str(src), "-a", "-5", "-b", "9"], capsys
        )
        assert code == 0
        bez = parse_patch_document(out)
        assert bez.control_points == (Point3(2, 3, 4),)

    def test_cubic_over_unit_interval(self, capsys):
        code, out, _ = run(
            ["subdivide-curve", "-i", str(DATA / "curve_cubic.json"), "-a", "0", "-b", "1"],
            capsys,
        )
        assert code == 0
        bez = parse_patch_document(out)
        assert [p.x for p in bez.control_points] == [0, 0, 0, 1]

    def test_negative_rational_endpoint(self, capsys):
        code, out, _ = run(
            ["subdivide-curve", "-i", str(DATA / "curve_cubic.json"), "-a=-1/2", "-b", "1/2"],
            capsys,
        )
        assert code == 0
        bez = parse_patch_document(out)
        assert str(bez.domain.a) == "-1/2"
        assert [str(p.x) for p in bez.control_points] == ["-1/8", "1/8", "-1/8", "1/8"]

    def test_malformed_rational_exits_2(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(
            json.dumps({"kind": "curve", "degree": [0], "coeffs": [["1/0", "0", "0"]]})
        )
        code, out, err = run(
            ["subdivide-curve", "-i", str(src), "-a", "0", "-b", "1"], capsys
        )
        assert code == 2
        assert "error" in err.lower()

    def test_bad_interval_argument_exits_2(self, capsys):
        code, _, err = run(
            ["subdivide-curve", "-i", str(DATA / "curve_cubic.json"), "-a", "0.5", "-b", "1"],
            capsys,
        )
        assert code == 2

    def test_kind_mismatch_exits_2(self, capsys):
        code, _, err = run(
            ["subdivide-curve", "-i", str(DATA / "surface_3x2.json"), "-a", "0", "-b", "1"],
            capsys,
        )
        assert code == 2
        assert "curve" in err

    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        doc = dumps(curve_document(MonomialCurve((Point3(1, 0, 0), Point3(1, 0, 0)))))
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, _ = run(["subdivide-curve", "-a", "0", "-b", "2"], capsys)
        assert code == 0
        bez = parse_patch_document(out)
        assert [p.x for p in bez.control_points] == [1, 3]


SURFACE_IN = ["-i", str(DATA / "surface_3x2.json")]


class TestGoldenRegeneration:
    """The committed fixture outputs regenerate byte-for-byte."""

    @pytest.mark.parametrize(
        "golden_name,argv",
        [
            (
                "tpb_unit_square.json",
                ["subdivide-tpb", "-a", "0", "-b", "1", "-c", "0", "-d", "1", *SURFACE_IN],
            ),
            (
                "tpb_inner_rect.json",
                ["subdivide-tpb", "-a", "1/3", "-b", "2/3", "-c", "1/4", "-d", "3/4", *SURFACE_IN],
            ),
            (
                "tb_unit_triangle.json",
                ["subdivide-tb", "--vertices", "0,0", "1,0", "0,1", *SURFACE_IN],
            ),
            (
                "tb_offset_triangle.json",
                ["subdivide-tb", "--vertices", "0,1/2", "1/2,0", "1/2,1/2", *SURFACE_IN],
            ),
            (
                "bezier_cubic.json",
                ["subdivide-curve", "-a=-1/2", "-b", "3/2", "-i", str(DATA / "curve_cubic.json")],
            ),
        ],
    )
    def test_byte_identical(self, golden_name, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == (DATA / golden_name).read_text()


class TestSubdivideTpb:
    def test_degree_zero_surface_single_point(self, capsys, tmp_path):
        src = tmp_path / "flat.json"
        src.write_text(
            json.dumps(
                {"kind": "surface", "degree": [0, 0], "coeffs": [[["5", "-2/3", "7"]]]}
            )
        )
        code, out, _ = run(
            ["subdivide-tpb", "-i", str(src), "-a", "1/9", "-b", "8", "-c", "-4", "-d", "0"],
            capsys,
        )
        assert code == 0
        patch = parse_patch_document(out)
        assert patch.control_points == ((Point3("5", "-2/3", "7"),),)


class TestSubdivideTb:
    def test_collinear_vertices_warn_but_succeed(self, capsys):
        code, out, err = run(
            [
                "subdivide-tb",
                "-i",
                str(DATA / "surface_3x2.json"),
                "--vertices",
                "0,0",
                "1,1",
                "2,2",
            ],
            capsys,
        )
        assert code == 0
        assert "collinear" in err
        parse_patch_document(out)

    def test_wrong_vertex_count_exits_2(self, capsys):
        code, _, _ = run(
            ["subdivide-tb", "-i", str(DATA / "surface_3x2.json"), "--vertices", "0,0", "1,0"],
            capsys,
        )
        assert code == 2

    def test_negative_first_vertex_coordinate(self, capsys):
        argv = ["subdivide-tb", "-i", str(DATA / "surface_3x2.json"), "--vertices"]
        for vertices in (["-1/2,0", "1,0", "0,1"], ["0,0", "-1,0", "0,-1"]):
            code, out, err = run(argv + vertices, capsys)
            assert (code, err) == (0, "")
            assert run(argv + [" " + v for v in vertices], capsys) == (0, out, "")

    def test_bad_vertex_format_exits_2(self, capsys):
        code, _, _ = run(
            [
                "subdivide-tb",
                "-i",
                str(DATA / "surface_3x2.json"),
                "--vertices",
                "0;0",
                "1,0",
                "0,1",
            ],
            capsys,
        )
        assert code == 2


class TestEval:
    def test_surface_document(self, capsys):
        code, out, _ = run(
            ["eval", "-i", str(DATA / "surface_3x2.json"), "-u", "1", "-v", "1"], capsys
        )
        assert code == 0
        assert json.loads(out) == {"point": ["4", "3", "3/4"]}

    def test_curve_document(self, capsys):
        code, out, _ = run(
            ["eval", "-i", str(DATA / "curve_cubic.json"), "-u", "1/3"], capsys
        )
        assert code == 0
        assert json.loads(out) == {"point": ["1/27", "0", "0"]}

    def test_patch_document(self, capsys):
        code, out, _ = run(
            ["eval", "-i", str(DATA / "tb_unit_triangle.json"), "-u", "1", "-v", "0"],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == {"point": ["0", "0", "0"]}

    def test_missing_v_for_surface_exits_2(self, capsys):
        code, _, _ = run(["eval", "-i", str(DATA / "surface_3x2.json"), "-u", "1"], capsys)
        assert code == 2

    def test_stray_v_for_curve_exits_2(self, capsys):
        code, _, _ = run(
            ["eval", "-i", str(DATA / "curve_cubic.json"), "-u", "0", "-v", "1"], capsys
        )
        assert code == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, _, err = run(
            ["verify", "--trials", "3", "--max-degree", "2", "--seed", "7"], capsys
        )
        assert code == 0
        assert "PASS" in err

    def test_zero_trials_exits_2(self, capsys):
        code, _, _ = run(["verify", "--trials", "0"], capsys)
        assert code == 2

    def test_max_degree_above_cap_exits_2(self, capsys):
        start = time.perf_counter()
        code, _, err = run(["verify", "--trials", "1", "--max-degree", "6", "--seed", "1"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_degree_zero_passes(self, capsys):
        code, _, _ = run(["verify", "--trials", "2", "--max-degree", "0"], capsys)
        assert code == 0

    def test_interrupt_exits_130_with_one_line(self, capsys, monkeypatch):
        """Ctrl-C ends the script with one diagnostic line, no traceback;
        main lets the interrupt through to in-process callers."""

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("blossom_subdiv.verify.run_verification", interrupted)
        argv = ["verify", "--trials", "1000", "--max-degree", "5"]
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        monkeypatch.setattr("sys.argv", ["blossom-subdiv", *argv])
        with pytest.raises(SystemExit) as exc:
            try:
                entry()
            except KeyboardInterrupt:  # would stop the whole test run
                pytest.fail("entry() let the interrupt through")
        assert exc.value.code == 130
        assert capsys.readouterr().err == "error: interrupted\n"

    @pytest.mark.parametrize(
        "shape,oracle",
        [("curve", "blossom_curve"), ("tpb", "blossom_tensor"), ("tb", "blossom_triangle")],
    )
    def test_mismatch_exits_1_with_counterexample(
        self, shape, oracle, capsys, monkeypatch, tmp_path
    ):
        # Sabotage one oracle so the comparison for that shape must fail.
        import blossom_subdiv.oracle as oracle_mod

        real = getattr(oracle_mod, oracle)
        monkeypatch.setattr(
            oracle_mod, oracle, lambda *args, **kw: real(*args, **kw) + Point3(1, 0, 0)
        )
        code, _, err = run(["verify", "--trials", "2", "--max-degree", "1"], capsys)
        assert code == 1
        assert f"mismatch in {shape} trial" in err
        instance = json.loads(err[err.index("{\n"):])["counterexample"]
        parse_input_document(dumps(instance))
        src = tmp_path / "instance.json"
        src.write_text(dumps(instance))

        # Replay the instance through the CLI: the domain must read back
        # exactly as the patch document records it.
        domain = instance["domain"]
        if shape == "curve":
            argv = ["subdivide-curve", f"-a={domain['a']}", f"-b={domain['b']}"]
        elif shape == "tpb":
            argv = ["subdivide-tpb"] + [f"-{k}={domain[k]}" for k in "abcd"]
        else:
            argv = ["subdivide-tb", "--vertices"]
            argv += ["{},{}".format(*domain[k]) for k in ("va", "vb", "vc")]
        code, out, _ = run(argv + ["-i", str(src)], capsys)
        assert code == 0
        assert json.loads(out)["domain"] == domain

    @pytest.mark.parametrize(
        "oracle", [None, "blossom_curve", "blossom_tensor", "blossom_triangle"]
    )
    def test_cli_reports_what_run_verification_returns(self, oracle, capsys, monkeypatch):
        import blossom_subdiv.oracle as oracle_mod
        from blossom_subdiv.verify import run_verification

        if oracle is not None:
            real = getattr(oracle_mod, oracle)
            monkeypatch.setattr(
                oracle_mod, oracle, lambda *args, **kw: real(*args, **kw) + Point3(1, 0, 0)
            )
        report = run_verification(30, 3, 7)
        code, out, err = run(
            ["verify", "--trials", "30", "--max-degree", "3", "--seed", "7"], capsys
        )
        assert out == ""
        lines = err.splitlines()
        assert lines[:3] == [
            f"{shape}: {report.checked_points[shape]} control points compared exactly"
            for shape in ("curve", "tpb", "tb")
        ]
        if oracle is None:
            assert report.ok and code == 0 and len(lines) == 4
            return
        mm = report.mismatch
        assert code == 1
        assert mm.shape == {"blossom_curve": "curve", "blossom_tensor": "tpb"}.get(oracle, "tb")
        shape, trial, index = re.match(
            r"error: mismatch in (\w+) trial (\d+) at control point (\(.*?\)):", lines[3]
        ).groups()
        assert (shape, int(trial), index) == (mm.shape, mm.trial, str(mm.index))
        counterexample = err[err.index("{\n"):]
        assert counterexample == json.dumps({"counterexample": mm.instance}, indent=2) + "\n"


    @pytest.mark.parametrize(
        "shape,kernel,reshape,side,index",
        [
            (
                "curve", "subdivide_curve",
                lambda p: BezierCurve(p.control_points[:-1], p.domain),
                "kernel", lambda degree: (degree[0],),
            ),
            (
                "curve", "subdivide_curve",
                lambda p: BezierCurve(p.control_points + p.control_points[-1:], p.domain),
                "oracle", lambda degree: (degree[0] + 1,),
            ),
            (
                "tpb", "subdivide_tensor",
                lambda p: TensorPatch(p.control_points[:-1], p.domain),
                "kernel", lambda degree: (degree[0], 0),
            ),
        ],
        ids=["short-curve", "long-curve", "tpb-missing-last-row"],
    )
    def test_wrong_point_count_is_a_mismatch(
        self, shape, kernel, reshape, side, index, capsys, monkeypatch, tmp_path
    ):
        """A kernel that returns too few or too many control points fails
        verification like a wrong point: exit 1 and a replayable
        counterexample, with the point that one side lacks shown as
        missing."""
        import blossom_subdiv.subdivision as subdivision_mod

        real = getattr(subdivision_mod, kernel)

        def sabotaged(obj, domain):
            patch = real(obj, domain)
            try:
                return reshape(patch)
            except ValueError:  # a degree-0 patch has no point to spare
                return patch

        monkeypatch.setattr(subdivision_mod, kernel, sabotaged)
        argv = ["verify", "--trials", "3", "--max-degree", "2", "--seed", "1"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        instance = json.loads(err[err.index("{\n"):])["counterexample"]
        line = err.splitlines()[3]
        assert line.startswith(f"error: mismatch in {shape} trial ")
        assert f" at control point {index(instance['degree'])}: " in line
        assert f"{side} missing" in line
        assert _replay(shape, instance, tmp_path, capsys) == 0


def _replay(shape, instance, tmp_path, capsys):
    """Exit code of subdividing a verify counterexample over its own
    domain through the CLI; the output must record that same domain."""
    src = tmp_path / "instance.json"
    src.write_text(dumps(instance))
    domain = instance["domain"]
    if shape == "curve":
        argv = ["subdivide-curve", f"-a={domain['a']}", f"-b={domain['b']}"]
    else:
        argv = ["subdivide-tpb"] + [f"-{k}={domain[k]}" for k in "abcd"]
    code, out, _ = run(argv + ["-i", str(src)], capsys)
    assert json.loads(out)["domain"] == domain
    return code


class TestMesh:
    def test_tpb_two_samples(self, capsys):
        code, out, _ = run(
            ["mesh", "-i", str(DATA / "tpb_unit_square.json"), "--samples", "2"], capsys
        )
        assert code == 0
        assert sum(1 for l in out.splitlines() if l.startswith("v ")) == 4

    def test_samples_lower_bound(self, capsys):
        code, _, _ = run(
            ["mesh", "-i", str(DATA / "tpb_unit_square.json"), "--samples", "1"], capsys
        )
        assert code == 2

    def test_unknown_format_exits_2(self, capsys):
        code, _, _ = run(
            ["mesh", "-i", str(DATA / "tpb_unit_square.json"), "--format", "stl"], capsys
        )
        assert code == 2

    def test_net_warning_for_monomial_input(self, capsys):
        code, out, err = run(
            ["mesh", "-i", str(DATA / "surface_3x2.json"), "--samples", "2", "--with-net"],
            capsys,
        )
        assert code == 0
        assert "control net" in err

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "patch.obj"
        code, out, _ = run(
            [
                "mesh",
                "-i",
                str(DATA / "tb_unit_triangle.json"),
                "--samples",
                "3",
                "-o",
                str(dest),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("g patch\n")


# sha256 of the OBJ bytes of `mesh --samples 9` (and with --with-net) for
# every document in tests/data, recorded before the value types lost their
# dataclass implementation; bezier_cubic.json is `subdivide-curve -a=-1/2
# -b 3/2` of curve_cubic.json.
MESH_9_SHA256 = {
    "bezier_cubic.json": "4d770eda1857384eed39939e7926b0d9dff977eb06ec11c81eb60bf0097f87ef",
    "curve_cubic.json": "3ae6c92fb3ca7e4e4075f1c3df55f416055b8c8533eb3404ab762cab64edbfde",
    "surface_3x2.json": "b965030814e447bcf8d51b0793b50e8fba92f54c44323647bd7e20832abf0ebc",
    "tb_offset_triangle.json": "0d29f7d273059df75ce73aa7cf6ce7e8315ccd815e0c888f5b23c42eaa83da1b",
    "tb_unit_triangle.json": "ce6aede289b55a986dfc28566cb195ae340ebd4781b77ffef9fe1aca731fd1e8",
    "tpb_inner_rect.json": "6e178bc2e686af7d6c952748df296cecefbb1cddc0ac1ed64c0e892e6819d3cd",
    "tpb_unit_square.json": "b965030814e447bcf8d51b0793b50e8fba92f54c44323647bd7e20832abf0ebc",
}
MESH_9_NET_SHA256 = {
    "bezier_cubic.json": "65787ccf9e2f1961a3cbe0d5d2cd95b8c609ba2f39c30696eee1dc20f60c8956",
    "tb_offset_triangle.json": "4886103c06e65255c549a42a388f7c9aba93c82a3c1da68150748cb907676c52",
    "tb_unit_triangle.json": "29c20d1cb0590322f8609cbe16e777ee2f3ed86b285c639b4f5e6050d1e7c51f",
    "tpb_inner_rect.json": "28377e8be4fc968803cbb7b682f404433ac868db167e8963f2ede5d35a80f753",
    "tpb_unit_square.json": "044a4b1a89622a2b19d420d0c4ad1278bbb9de1c19a1394e078d29364549ec6e",
}

# mesh --samples 33, the density perfbench meshes at, for every fixture;
# each digest was recorded before the sampler that now computes it: the
# Bernstein ones before forward differences, the monomial ones before
# monomial surfaces left Horner. surface_3x2.json's equals
# tpb_unit_square.json's, since both are one polynomial on the unit
# square. The two unit-domain documents come first, as they were pinned
# first, so that their plain cases keep their test ids.
MESH_33_SHA256 = {
    "tb_unit_triangle.json": "7ea6cb9966c1f6b7d22ab839d4c0e4057d7b54f0704d80f17f2da25e72c35f49",
    "tpb_unit_square.json": "455c9f9f4196d6a8894c5bcf550af6dae12c0f7b4c719f2aeba7dc3562480991",
    "bezier_cubic.json": "ed3acf634120a89b1c13325b5536332eddc3c7d7f385543807f62a15737a916b",
    "tb_offset_triangle.json": "53166104e2288baeaf591a71fd40790f6d3b8336fc486518f1cc4dc31d5a7b3e",
    "tpb_inner_rect.json": "f3d59f6bff00da435718f4a005637ee94a598062d1ffc660733ede56f2538002",
    "surface_3x2.json": "455c9f9f4196d6a8894c5bcf550af6dae12c0f7b4c719f2aeba7dc3562480991",
    "curve_cubic.json": "fa43a726f25a774046288e0b159894b36ea043cc7e988d3ee705c6c80cda6b29",
}
MESH_33_NET_SHA256 = {
    "tb_unit_triangle.json": "1b408b15c4c64b5ff75b762f767b74cec1050ecd0d4714dcda5d2f423ebd75c3",
    "tpb_unit_square.json": "e635a8f6332719459dcbf902494deb000e5dd933b8633e3943782add7309de1d",
    "bezier_cubic.json": "9e1a70fa3820c712def225173708dcc87ea7487c5bec80efbcb70b5870e24c0c",
    "tb_offset_triangle.json": "f9218dc6efdfaee7a0985cf84b316b47dc1c4b1dea9d0505bb009d193cd5bea5",
    "tpb_inner_rect.json": "8bbcd36aed638519304a3445a3fefd869eab9f530dbcd52f6b2de511a52f3a22",
}


class TestMeshGolden:
    """Exact OBJ bytes for every fixture document."""

    def test_every_document_is_pinned(self):
        assert sorted(p.name for p in DATA.glob("*.json")) == sorted(MESH_9_SHA256)

    @pytest.mark.parametrize(
        "name,flags,digest",
        [(n, [], d) for n, d in MESH_9_SHA256.items()]
        + [(n, ["--with-net"], d) for n, d in MESH_9_NET_SHA256.items()],
    )
    def test_obj_bytes(self, name, flags, digest, capsys):
        code, out, err = run(["mesh", "-i", str(DATA / name), "--samples", "9", *flags], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name,flags,digest",
        # The monomial documents, which have no net, come last, so that
        # the Bernstein cases keep their test ids.
        [(n, [], d) for n, d in MESH_33_SHA256.items() if n in MESH_33_NET_SHA256]
        + [(n, ["--with-net"], d) for n, d in MESH_33_NET_SHA256.items()]
        + [(n, [], d) for n, d in MESH_33_SHA256.items() if n not in MESH_33_NET_SHA256],
    )
    def test_obj_bytes_at_33_samples(self, name, flags, digest, capsys):
        code, out, err = run(["mesh", "-i", str(DATA / name), "--samples", "33", *flags], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBench:
    def test_csv_round_trips(self, capsys, tmp_path):
        dest = tmp_path / "bench.csv"
        code, _, _ = run(
            [
                "bench",
                "--shapes",
                "curve",
                "--degrees",
                "2,3",
                "--repeat",
                "2",
                "-o",
                str(dest),
            ],
            capsys,
        )
        assert code == 0
        with open(dest, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2  # degrees x methods x repetitions
        assert {row["method"] for row in rows} == {"closed-form", "oracle"}
        assert all(int(row["wall_time_ns"]) >= 0 for row in rows)

    def test_term_counts_oracle_dominates(self, capsys):
        code, out, _ = run(["bench", "--shapes", "curve", "--degrees", "2"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        by_method = {row["method"]: int(row["term_count"]) for row in rows}
        # Enumeration visits sum over nu and i of C(2, i) summands.
        assert by_method["oracle"] == sum(2 ** 2 for _ in range(3))
        assert by_method["closed-form"] < by_method["oracle"]

    def test_empty_shapes_exits_2(self, capsys):
        code, _, _ = run(["bench", "--shapes", "", "--degrees", "2"], capsys)
        assert code == 2

    def test_max_oracle_degree_above_cap_exits_2(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            ["bench", "--shapes", "tb", "--degrees", "6", "--max-oracle-degree", "6"], capsys
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_default_cap_skips_degree_6_oracle(self, capsys):
        start = time.perf_counter()
        code, out, err = run(["bench", "--shapes", "tb", "--degrees", "6"], capsys)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert "skipping oracle" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["method"] for row in rows} == {"closed-form"}

    def test_degree_above_cap_skips_oracle_with_warning(self, capsys):
        code, out, err = run(
            ["bench", "--shapes", "curve", "--degrees", "3", "--max-oracle-degree", "2"],
            capsys,
        )
        assert code == 0
        assert "skipping oracle" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["method"] for row in rows} == {"closed-form"}


TB_IN = ["-i", str(DATA / "surface_3x2.json"), "--vertices"]
TPB_IN = ["-i", str(DATA / "surface_3x2.json"), "-a", "0", "-b", "1"]

# (argv, stdin, exit code, stderr), recorded before the document readers
# and the subdivide commands' domain reading were merged, so that
# rewriting them keeps every message and the order in which they win.
# The one exception is "first-bad-tpb-endpoint-wins": the flags are now
# read in the domain's key order a, b, c, d, where c and d came first.
MESSAGES = {
    "input-reader-refuses-tb-patch": (
        ["subdivide-tpb", "-i", str(DATA / "tb_unit_triangle.json"), "-a", "0", "-b", "1"]
        + ["-c", "0", "-d", "1"],
        "", 2, "error: expected kind 'curve' or 'surface', got 'tb-patch'\n",
    ),
    "input-reader-refuses-bezier-curve": (
        ["subdivide-tb", "-i", str(DATA / "bezier_cubic.json"), "--vertices", "0,0", "1,0", "0,1"],
        "", 2, "error: expected kind 'curve' or 'surface', got 'bezier-curve'\n",
    ),
    "any-reader-refuses-mystery": (
        ["eval", "-u", "0"], '{"kind": "mystery"}', 2, "error: unknown document kind 'mystery'\n",
    ),
    "any-reader-refuses-unhashable-kind": (
        ["mesh"], '{"kind": ["curve"]}', 2, "error: unknown document kind ['curve']\n",
    ),
    "first-bad-endpoint-wins": (
        ["subdivide-curve", "-i", str(DATA / "curve_cubic.json"), "-a", "1/0", "-b", "x"],
        "", 2, "error: zero denominator in rational '1/0'\n",
    ),
    "first-bad-tpb-endpoint-wins": (
        ["subdivide-tpb", "-i", str(DATA / "surface_3x2.json"), "-a", "x", "-b", "1"]
        + ["-c", "y", "-d", "1"],
        "", 2, "error: malformed rational 'x'\n",
    ),
    "endpoint-whitespace-stripped": (
        ["subdivide-tpb", *TPB_IN, "-c", " 1/3 ", "-d", "1"], "", 0, "",
    ),
    "vertex-with-three-parts": (
        ["subdivide-tb", *TB_IN, "0,0", "1,0", "0,1,2"],
        "", 2, "error: vertex must be 's,t', got '0,1,2'\n",
    ),
    "vertex-with-one-part": (
        ["subdivide-tb", *TB_IN, "0,0", "1,1", "2"],
        "", 2, "error: vertex must be 's,t', got '2'\n",
    ),
    "first-bad-vertex-wins": (
        ["subdivide-tb", *TB_IN, "1/0,0", "1,2,3", "0,1"],
        "", 2, "error: zero denominator in rational '1/0'\n",
    ),
    "vertex-whitespace-stripped": (["subdivide-tb", *TB_IN, "0 , 0", "1,0", "0,1 "], "", 0, ""),
    "collinear-vertices-warn": (
        ["subdivide-tb", *TB_IN, "0,0", "1,1", "2,2"],
        "", 0, "warning: domain triangle vertices are collinear; patch is degenerate\n",
    ),
    "curve-command-on-surface": (
        ["subdivide-curve", "-i", str(DATA / "surface_3x2.json"), "-a", "0", "-b", "1"],
        "", 2, "error: subdivide-curve needs a 'curve' document\n",
    ),
    "tpb-command-on-curve": (
        ["subdivide-tpb", "-i", str(DATA / "curve_cubic.json"), "-a", "0", "-b", "1"]
        + ["-c", "0", "-d", "1"],
        "", 2, "error: subdivide-tpb needs a 'surface' document\n",
    ),
    "kind-checked-before-vertices": (
        ["subdivide-tb", "-i", str(DATA / "curve_cubic.json"), "--vertices"]
        + ["0,0", "1,2,3", "0,1"],
        "", 2, "error: subdivide-tb needs a 'surface' document\n",
    ),
    "bench-bad-degree": (["bench", "--degrees", "x"], "", 2, "error: bad degree 'x'\n"),
}


@pytest.mark.parametrize("case", MESSAGES)
def test_boundary_message(case):
    argv, stdin, code, err = MESSAGES[case]
    assert run_on_stdin(argv, stdin)[::2] == (code, err)


def test_stripped_endpoint_gives_the_same_patch(capsys):
    spaced = run(["subdivide-tpb", *TPB_IN, "-c", " 1/3 ", "-d", "1"], capsys)
    assert spaced == run(["subdivide-tpb", *TPB_IN, "-c", "1/3", "-d", "1"], capsys)


class TestBoundary:
    """Every input gives exit 0 or exit 2 with one error line, never a
    traceback; exit 1 is reserved for a verify mismatch."""

    def _run_document(self, argv, doc, capsys, tmp_path):
        src = tmp_path / "doc.json"
        src.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(argv + ["-i", str(src)], capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_boolean_curve_degree_exits_2(self, capsys, tmp_path):
        doc = {"kind": "curve", "degree": [True], "coeffs": [["1", "0", "0"], ["2", "0", "0"]]}
        self._run_document(["subdivide-curve", "-a", "0", "-b", "1"], doc, capsys, tmp_path)

    def test_boolean_surface_degree_exits_2(self, capsys, tmp_path):
        doc = {"kind": "surface", "degree": [1, False], "coeffs": [[["1", "0", "0"]]] * 2}
        argv = ["subdivide-tpb", "-a", "0", "-b", "1", "-c", "0", "-d", "1"]
        self._run_document(argv, doc, capsys, tmp_path)

    def test_boolean_tb_patch_index_exits_2(self, capsys, tmp_path):
        doc = json.loads((DATA / "tb_unit_triangle.json").read_text())
        entry = next(e for e in doc["control_points"] if e["nu"] == 1)
        entry["nu"] = True
        self._run_document(["eval", "-u", "0", "-v", "0"], doc, capsys, tmp_path)

    def test_non_ascii_digits_exit_2(self, capsys):
        argv = ["subdivide-curve", "-i", str(DATA / "curve_cubic.json"), "-a", "0"]
        code, out, err = run(argv + ["-b", "\u0661/\u0662"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_mesh_coordinate_beyond_float_range_exits_2(self, capsys, tmp_path):
        doc = {"kind": "curve", "degree": [0], "coeffs": [["1" + "0" * 400, "0", "0"]]}
        err = self._run_document(["mesh", "--samples", "2"], doc, capsys, tmp_path)
        assert "float" in err

    @pytest.mark.parametrize(
        "name,path",
        [
            ("bezier_cubic.json", [-1]),
            ("tpb_unit_square.json", [-1, -1]),
            ("tb_unit_triangle.json", [-1, "point"]),
        ],
    )
    def test_patch_coordinate_beyond_float_range_exits_2(self, name, path, capsys, tmp_path):
        doc = json.loads((DATA / name).read_text())
        point = doc["control_points"]
        for key in path:
            point = point[key]
        point[1] = "-1" + "0" * 400 + "/3"
        err = self._run_document(["mesh", "--samples", "5", "--with-net"], doc, capsys, tmp_path)
        assert "beyond the range of a float" in err

    def test_json_integer_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        doc = '{"kind": "curve", "degree": [%s], "coeffs": [["1", "0", "0"]]}' % ("1" * 5000)
        err = self._run_document(["eval", "-u", "1"], doc, capsys, tmp_path)
        assert err.startswith("error: rational too long:") and "sys." not in err

    def test_deeply_nested_document_exits_2(self, capsys, tmp_path):
        self._run_document(["mesh"], "[" * 200_000, capsys, tmp_path)

    def test_whitespace_around_a_document_rational_exits_2(self, capsys, tmp_path):
        doc = {"kind": "curve", "degree": [0], "coeffs": [[" 1/2", "\t3\n", "0 "]]}
        err = self._run_document(["eval", "-u", "1"], doc, capsys, tmp_path)
        assert "malformed rational ' 1/2'" in err

    @pytest.mark.parametrize(
        "argv,digits",
        [
            (["eval", "-u", "1"], 5000),
            (["eval", "-u", "100000000000000000000"], 4250),
            (["subdivide-curve", "-a", "0", "-b", "100000000000000000000"], 4250),
        ],
        ids=["input", "eval-output", "subdivide-output"],
    )
    def test_rational_past_the_digit_limit_exits_2(self, argv, digits, capsys, tmp_path):
        """A numerator of more digits than Python turns into or from text
        (4300 by default), read from a document or written to one, is named
        as too long, without Python's hint about a setting of its own."""
        big = "1" + "0" * (digits - 1)
        coeffs = [["1", "0", "0"]] * 3 + [[big, "0", "0"]]
        doc = {"kind": "curve", "degree": [3], "coeffs": coeffs}
        err = self._run_document(argv, doc, capsys, tmp_path)
        assert err.startswith("error: rational too long:") and "sys." not in err
        # The same document with a small parameter is fine.
        code, _, _ = run(argv[:-1] + ["1", "-i", str(tmp_path / "doc.json")], capsys)
        assert code == (2 if digits > 4300 else 0)

    def test_command_line_rational_past_the_digit_limit_exits_2(self, capsys):
        argv = ["eval", "-i", str(DATA / "curve_cubic.json"), "-u", "7" * 5000]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: rational too long:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "name,samples,allowed",
        [
            ("curve_cubic.json", MESH_VERTEX_BUDGET, True),
            ("bezier_cubic.json", MESH_VERTEX_BUDGET + 1, False),
            ("tpb_unit_square.json", 128, True),
            ("tpb_unit_square.json", 129, False),
            ("surface_3x2.json", 10**12, False),
            ("tb_unit_triangle.json", 180, True),
            ("tb_unit_triangle.json", 181, False),
        ],
    )
    def test_mesh_vertex_budget(self, name, samples, allowed, capsys, monkeypatch):
        """Over MESH_VERTEX_BUDGET sampled vertices is refused before any
        vertex is evaluated; at the budget, meshing starts."""

        def started(obj, samples):
            raise ValueError("meshing started")

        monkeypatch.setattr("blossom_subdiv.objmesh._vertex_lines", started)
        code, out, err = run(["mesh", "-i", str(DATA / name), "-g", str(samples)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert ("meshing started" in err) == allowed
        assert (f"over the budget of {MESH_VERTEX_BUDGET}" in err) != allowed

    # The commands that accept each kind; every command reads stdin.
    MESH = ["mesh", "-g", "2"]
    EVAL_U = ["eval", "-u", "1/2"]
    EVAL_UV = ["eval", "-u", "1/3", "-v", "1/5"]
    FITTING = {
        "curve": [MESH, EVAL_U, ["subdivide-curve", "-a", "-1/2", "-b", "1"]],
        "surface": [
            MESH,
            EVAL_UV,
            ["subdivide-tpb", "-a", "0", "-b", "1", "-c", "-1/3", "-d", "1/2"],
            ["subdivide-tb", "--vertices", "0,0", "1,0", "0,1"],
        ],
        "bezier-curve": [MESH, EVAL_U],
        "tpb-patch": [MESH, EVAL_UV],
        "tb-patch": [MESH, EVAL_UV],
    }
    COMMANDS = FITTING["curve"] + FITTING["surface"][1:]
    VALID = [json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))]
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-3, 10)
        | st.sampled_from(["", "0", "-1/2", "1/0", "0.5", "x", "curve", "tb-patch"])
        | st.text(max_size=4)
    )
    # st.recursive alone draws a container nine times in ten.
    json_values = scalars | st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=3), children, max_size=3),
        max_leaves=6,
    )
    # Another rational in place of a rational keeps a document valid.
    rationals = st.sampled_from(["0", "1", "-7/3", "5/2", "-1", "1/99999999999"])

    @staticmethod
    def _paths(node, prefix=()):
        """(key path, value) of every value below the document root."""
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield prefix + (key,), child
            if isinstance(child, (dict, list)):
                yield from TestBoundary._paths(child, prefix + (key,))

    @st.composite
    def mutated_runs(draw):
        """A command and a valid document with one value deleted, or
        replaced by any JSON value, or (a rational) by another rational;
        mostly a command that accepts the original's kind."""
        doc = copy.deepcopy(draw(st.sampled_from(TestBoundary.VALID)))
        commands = TestBoundary.FITTING[doc["kind"]]
        argv = draw(st.sampled_from(commands) | st.sampled_from(TestBoundary.COMMANDS))
        action = draw(st.sampled_from(["any", "rational", "delete"]))
        paths = [
            path
            for path, value in TestBoundary._paths(doc)
            if action != "rational" or (isinstance(value, str) and path != ("kind",))
        ]
        # Pick the depth first, so that whole fields and entries change
        # about as often as single coordinates.
        depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        else:
            values = TestBoundary.rationals if action == "rational" else TestBoundary.json_values
            parent[path[-1]] = draw(values)
        return argv, json.dumps(doc)

    def _assert_exit_0_or_2(self, argv, text):
        code, out, err = run_on_stdin(argv, text)
        assert code in (0, 2)
        if code == 2:
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1, err

    @settings(max_examples=150)
    @given(st.sampled_from(COMMANDS), st.text(max_size=40) | json_values.map(json.dumps))
    def test_any_text_exits_0_or_2(self, argv, text):
        self._assert_exit_0_or_2(argv, text)

    @settings(max_examples=300)
    @given(mutated_runs())
    def test_mutated_document_exits_0_or_2(self, run):
        self._assert_exit_0_or_2(*run)


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert run([], capsys)[0] == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_help_to_an_explicit_file(self, capsys):
        """argparse's own callers pass no file; a caller that does gets
        the help there and nothing on the standard streams."""
        text = io.StringIO()
        build_parser().print_help(text)
        assert text.getvalue() == build_parser().format_help()
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", [["-1"], ["-1", "eval"]], ids=["alone", "before-command"])
    def test_negative_command_is_named_as_typed(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert "invalid choice: '-1'" in err

    @pytest.mark.parametrize(
        "argv,values",
        [
            (
                ["subdivide-curve", "-i", str(DATA / "curve_cubic.json"), "-b", "1/2"],
                [("-a", "-1/2")],
            ),
            (
                ["subdivide-tpb", "-i", str(DATA / "surface_3x2.json"), "-a", "0", "-b", "1"]
                + ["-d", "1/2"],
                [("-c", "-1/3")],
            ),
            (["eval", "-i", str(DATA / "tpb_unit_square.json")], [("-u", "-1/3"), ("-v", "-2/5")]),
        ],
        ids=["curve", "tpb", "eval"],
    )
    def test_negative_value_after_its_flag(self, argv, values, capsys):
        """`-a -1/2` gives the bytes of `-a=-1/2`."""
        spaced = run(argv + [arg for pair in values for arg in pair], capsys)
        assert spaced[0] == 0
        assert spaced == run(argv + [f"{flag}={value}" for flag, value in values], capsys)


    def test_input_path_starting_with_dash_and_digit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-1in.json").write_text((DATA / "curve_cubic.json").read_text())
        argv = ["subdivide-curve", "-a", "0", "-b", "1"]
        expected = run(argv + ["-i", str(DATA / "curve_cubic.json")], capsys)
        assert (expected[0], expected[2]) == (0, "")
        for form in (["-i", "-1in.json"], ["-i=-1in.json"], ["-i-1in.json"]):
            assert run(argv + form, capsys) == expected

    @pytest.mark.parametrize(
        "argv,path",
        [
            (["subdivide-curve", "-i", str(DATA / "curve_cubic.json"), "-a", "0", "-b", "1"]
             + ["-o", "-2out.json"], "-2out.json"),
            (MESH + ["-o", "-5.obj"], "-5.obj"),
            (MESH + ["-o", " -6.obj"], " -6.obj"),
            (["bench", "--shapes", "curve", "--degrees", "1", "-o", "-4.csv"], "-4.csv"),
            (MESH + ["-o= -7.obj"], " -7.obj"),
            (MESH + ["-o -8.obj"], " -8.obj"),
            (MESH + ["--output= -9.obj"], " -9.obj"),
            (MESH + ["-o-2out.json"], "-2out.json"),
            (MESH + ["-o=-2out.json"], "-2out.json"),
            (MESH + ["--output=-2out.json"], "-2out.json"),
        ],
        ids=[
            "subdivide-curve", "mesh", "mesh-leading-space", "bench",
            "mesh-equals-leading-space", "mesh-attached-leading-space",
            "mesh-long-equals-leading-space", "mesh-attached", "mesh-equals",
            "mesh-long-equals",
        ],
    )
    def test_output_path_starting_with_dash_and_digit(
        self, argv, path, capsys, tmp_path, monkeypatch
    ):
        """The file is created under the name typed, with no space added or
        taken away, whether the path is an argument of its own or is part
        of its option's argument."""
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(argv, capsys)
        assert (code, out) == (0, "")
        assert [p.name for p in tmp_path.iterdir()] == [path]
        assert (tmp_path / path).read_text()


class TestDiagnosticColor:
    def _collinear_run(self, capsys):
        argv = [
            "subdivide-tb",
            "-i",
            str(DATA / "surface_3x2.json"),
            "--vertices",
            "0,0",
            "1,1",
            "2,2",
            "-o",
            "/dev/null",
        ]
        code = main(argv)
        assert code == 0
        return capsys.readouterr().err

    def test_no_color_respected_on_tty(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stderr.isatty", lambda: True, raising=False)
        monkeypatch.setenv("NO_COLOR", "1")
        assert "\x1b[" not in self._collinear_run(capsys)

    def test_color_on_tty_without_no_color(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stderr.isatty", lambda: True, raising=False)
        monkeypatch.delenv("NO_COLOR", raising=False)
        assert "\x1b[33m" in self._collinear_run(capsys)

    def test_plain_when_not_a_tty(self, capsys, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        assert "\x1b[" not in self._collinear_run(capsys)
