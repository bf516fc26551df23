"""What one CLI process does: a fresh interpreter per command gives the
same results as repeated in-process main() calls, the commands that
subdivide, evaluate or mesh load no oracle, reference, verify or bench
code, and a failed write to stdout or a closed standard stream keeps the
exit-code contract."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import blossom_subdiv
from blossom_subdiv.cli import build_parser, main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

SURFACE = str(DATA / "surface_3x2.json")
CURVE = str(DATA / "curve_cubic.json")

# Modules that subdivide-*, eval and mesh have no use for.
NOT_LOADED = (
    "dataclasses",
    "csv",
    "blossom_subdiv.verify",
    "blossom_subdiv.bench",
    "blossom_subdiv.oracle",
    "blossom_subdiv.reference",
    "blossom_subdiv.sampling",
)

PUBLIC_NAMES = {
    "Rational", "binomial", "multinomial", "parse_rational", "format_rational",
    "Point2", "Point3", "ParamInterval", "ParamRect", "DomainTriangle",
    "MonomialCurve", "MonomialSurface", "BezierCurve", "TensorPatch", "TrianglePatch",
    "eval_monomial_curve", "eval_monomial_surface", "de_casteljau_curve",
    "de_casteljau_tensor", "de_casteljau_triangle", "barycentric_to_cartesian",
    "blossom_curve", "blossom_tensor", "blossom_triangle", "monomial_blossom_curve",
    "monomial_blossom_tensor", "monomial_blossom_triangle", "subdivide_curve",
    "subdivide_tensor", "subdivide_triangle", "iter_placements",
    "placement_count_u_first", "placement_count_v_first", "__version__",
}


def fresh(args, stdout=subprocess.PIPE, unset=(), closed=()):
    """Run python with args in a new interpreter that imports this checkout,
    with the environment variables named in unset removed and the file
    descriptors named in closed shut, as a shell's <&- and >&- do."""
    env = dict(os.environ, NO_COLOR="1", COLUMNS="80")
    for name in unset:
        env.pop(name, None)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run(
        [sys.executable, *args], env=env, stdin=subprocess.DEVNULL,
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        preexec_fn=(lambda: [os.close(fd) for fd in closed]) if closed else None,
    )


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["subdivide-curve", "-i", CURVE, "-a", "0"],  # usage error: -b is missing
        ["eval", "-i", SURFACE, "-u", "1/2", "-v", "1/3"],
        ["eval", "-i", CURVE, "-u", "1", "-v", "2"],  # document error: curves take -u only
        ["subdivide-tb", "-i", SURFACE, "--vertices", "-1/2,0", "1,0", "0,1"],
        ["frobnicate"],
        ["mesh", "-i", str(DATA / "tb_unit_triangle.json"), "-g", "3", "--with-net"],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [2, 0, 2, 0, 2, 0]
    for argv, result in zip(calls, in_process):
        done = fresh(["-m", "blossom_subdiv.cli", *argv])
        assert result == (done.returncode, done.stdout, done.stderr), argv
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["subdivide-curve", "-i", CURVE, "-a", "0", "-b", "1"],
        ["subdivide-tpb", "-i", SURFACE, "-a", "0", "-b", "1", "-c", "0", "-d", "1"],
        ["subdivide-tb", "-i", SURFACE, "--vertices", "0,0", "1,0", "0,1"],
        ["eval", "-i", str(DATA / "tb_unit_triangle.json"), "-u", "1/3", "-v", "1/3"],
        ["mesh", "-i", str(DATA / "tpb_inner_rect.json"), "-g", "3", "--with-net"],
    ],
    ids=lambda argv: argv[0],
)
def test_hot_commands_load_no_oracle_verify_or_bench(argv, tmp_path):
    script = (
        "import sys\nfrom blossom_subdiv.cli import main\n"
        "code = main(sys.argv[1:])\nprint(code, *sorted(sys.modules))"
    )
    done = fresh(["-c", script, *argv, "-o", str(tmp_path / "out")])
    code, *modules = done.stdout.split()
    assert (code, done.stderr) == ("0", "")
    assert (tmp_path / "out").stat().st_size > 0
    assert sorted(set(NOT_LOADED) & set(modules)) == []


def test_verify_and_bench_run_in_fresh_processes():
    done = fresh(["-m", "blossom_subdiv.cli", "verify", "--trials", "2", "--max-degree", "2"])
    assert done.returncode == 0 and "PASS" in done.stderr
    done = fresh(["-m", "blossom_subdiv.cli", "bench", "--shapes", "curve,tb", "--degrees", "2"])
    assert done.returncode == 0 and done.stdout.startswith("shape,degrees,method")


def test_public_names_resolve():
    assert set(blossom_subdiv.__all__) == PUBLIC_NAMES
    script = (
        "from blossom_subdiv import *\nimport blossom_subdiv\n"
        "print(*[name for name in blossom_subdiv.__all__ if name not in globals()])"
    )
    done = fresh(["-c", script])
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")
    assert set(blossom_subdiv.__all__) <= set(dir(blossom_subdiv))
    with pytest.raises(AttributeError):
        blossom_subdiv.no_such_name


def test_package_import_defers_oracle_and_reference():
    script = (
        "import sys\nimport blossom_subdiv\n"
        "print(*sorted(name for name in sys.modules if name.startswith('blossom_subdiv')))\n"
        "first = blossom_subdiv.iter_placements\n"
        "print(first is blossom_subdiv.reference.iter_placements)"
    )
    done = fresh(["-c", script])
    assert done.returncode == 0, done.stderr
    loaded, same = done.stdout.splitlines()
    assert {"blossom_subdiv.oracle", "blossom_subdiv.reference"} & set(loaded.split()) == set()
    assert same == "True"


def test_cli_import_loads_the_modules_its_hot_commands_call():
    """Importing the CLI loads subdivision and objmesh, so a tool that
    wraps their functions for a run (perfbench's tracer swaps the
    references held by loaded modules) finds them before the first job."""
    script = (
        "import sys\nimport blossom_subdiv.cli\n"
        "print(*sorted(name for name in sys.modules if name.startswith('blossom_subdiv')))"
    )
    done = fresh(["-c", script])
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {"blossom_subdiv.subdivision", "blossom_subdiv.objmesh"} <= loaded
    assert sorted(set(NOT_LOADED) & loaded) == []


@pytest.mark.parametrize(
    "argv,code,out",
    [
        (["subdivide-tb", "-i", SURFACE, "--vertices", "0,0", "1,0", "0,1"], 0,
         (DATA / "tb_unit_triangle.json").read_text(encoding="utf-8")),
        (["subdivide-tb", "-i", SURFACE, "--vertices", "0,0", "1,0"], 2, ""),
    ],
    ids=["subdivide-tb", "usage-error"],
)
def test_installed_script_target(argv, code, out):
    """The function pyproject.toml names as the blossom-subdiv script,
    run as an installed script runs it: with sys.argv set, in a fresh
    process, exiting with main's code."""
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(
        r'^blossom-subdiv = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE
    ).groups()
    script = (
        "import sys\nfrom importlib import import_module\n"
        "sys.argv = ['blossom-subdiv', *sys.argv[1:]]\n"
        f"import_module({module!r}).{function}()"
    )
    done = fresh(["-c", script, *argv])
    assert (done.returncode, done.stdout) == (code, out)
    assert done.stderr.startswith("usage:") if code else done.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [["eval", "-i", CURVE, "-u", "1/2"], ["--help"]], ids=["eval", "help"]
)
def test_buffered_stdout_write_failure_exits_2_with_one_error_line(argv):
    """With stdout buffered, as in a shell, a failed write is reported by
    the command, not by the interpreter at shutdown."""
    with open("/dev/full", "w") as full:
        done = fresh(
            ["-m", "blossom_subdiv.cli", *argv], stdout=full, unset=("PYTHONUNBUFFERED",)
        )
    assert done.returncode == 2
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1, done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [["eval", "-i", CURVE, "-u", "1/2"], ["--help"], ["mesh", "-h"]],
    ids=["eval", "help", "mesh-help"],
)
def test_unbuffered_stdout_write_failure_exits_2_with_one_error_line(argv):
    """With stdout unbuffered (python -u, or PYTHONUNBUFFERED set), the
    write itself fails, and help text fails it as a command's output does
    rather than being dropped with exit 0."""
    with open("/dev/full", "w") as full:
        done = fresh(["-u", "-m", "blossom_subdiv.cli", *argv], stdout=full)
    assert (done.returncode, done.stderr) == (2, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize(
    "argv,closed,code,err",
    [
        (["eval", "-i", CURVE, "-u", "1/2"], (1,), 2, "error: standard output is closed\n"),
        (["subdivide-curve", "-a", "0", "-b", "1"], (0,), 2, "error: standard input is closed\n"),
        (["eval", "-i", CURVE, "-u", "1/2"], (1, 2), 2, ""),
        (["verify", "--trials", "1", "--max-degree", "1"], (2,), 0, ""),
        (["--help"], (1,), 2, "error: standard output is closed\n"),
        (["subdivide-tb", "--help"], (1,), 2, "error: standard output is closed\n"),
    ],
    ids=["stdout", "stdin", "stdout-and-stderr", "verify-stderr", "help", "subcommand-help"],
)
def test_closed_standard_stream_keeps_the_exit_code_contract(argv, closed, code, err):
    """A process started with a standard stream closed (Python then sets
    sys.stdin or sys.stdout to None) exits 2 with one error: line if it
    needs that stream, and writes diagnostics only while stderr is open."""
    done = fresh(["-m", "blossom_subdiv.cli", *argv], closed=closed)
    assert (done.returncode, done.stderr) == (code, err)
