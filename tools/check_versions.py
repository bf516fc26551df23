"""Check the CLI's pinned outputs under the Python that runs this script,
without pytest, so that interpreters with no test tools installed can be
checked too:

- the OBJ digests of `mesh --samples 9` and `--samples 33` pinned in
  tests/test_cli.py (MESH_9_SHA256, MESH_9_NET_SHA256, MESH_33_SHA256 and
  MESH_33_NET_SHA256);
- the golden subdivisions that CI compares with `cmp`;
- CI's negative-vertex `cmp`: `subdivide-tb --vertices -1/2,0 1,0 0,1`
  exits 0 with the same bytes through the installed script's function
  and through `python -m blossom_subdiv.cli`. cli._Parser makes argparse
  read "-1/2,0" as a value through a private attribute.

Run from anywhere as `python tools/check_versions.py`; it prints one
line per failed check and a summary, and exits 1 if any check failed.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
PINS = ("MESH_9_SHA256", "MESH_9_NET_SHA256", "MESH_33_SHA256", "MESH_33_NET_SHA256")


def pinned_digests():
    """The digest tables of tests/test_cli.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in PINS
    }


def cli(*args, script=False):
    """(exit code, stdout) of one fresh CLI process on this interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if script:  # what an installed blossom-subdiv script runs
        code = "import sys\nsys.argv[0] = 'blossom-subdiv'\n"
        code += "from blossom_subdiv.cli import entry\nentry()"
        argv = [sys.executable, "-c", code, *args]
    else:
        argv = [sys.executable, "-m", "blossom_subdiv.cli", *args]
    done = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    return done.returncode, done.stdout


def main():
    failures, checks = [], 0
    for table, digests in pinned_digests().items():
        samples = table.split("_")[1]
        flags = ["--with-net"] if "NET" in table else []
        for name, want in digests.items():
            checks += 1
            code, out = cli("mesh", "-i", str(DATA / name), "--samples", samples, *flags)
            if code != 0 or hashlib.sha256(out).hexdigest() != want:
                failures.append(f"{table}[{name}]: exit {code}, digest differs")
    golden = [
        (["subdivide-tb", "-i", str(DATA / "surface_3x2.json"), "--vertices", "0,0", "1,0", "0,1"],
         "tb_unit_triangle.json"),
        (["subdivide-curve", "-i", str(DATA / "curve_cubic.json"), "-a=-1/2", "-b", "3/2"],
         "bezier_cubic.json"),
    ]
    for argv, name in golden:
        checks += 1
        if cli(*argv) != (0, (DATA / name).read_bytes()):
            failures.append(f"golden {name}: output differs")
    checks += 1
    surface = str(DATA / "surface_3x2.json")
    negative = ["subdivide-tb", "-i", surface, "--vertices", "-1/2,0", "1,0", "0,1"]
    by_module, by_script = cli(*negative), cli(*negative, script=True)
    if by_module[0] != 0 or by_module != by_script:
        same = "the same" if by_module[1] == by_script[1] else "different"
        exits = f"module exit {by_module[0]}, script exit {by_script[0]}"
        failures.append(f"negative vertex: {exits}, {same} output")
    for line in failures:
        print(line)
    print(f"Python {sys.version.split()[0]}: {checks - len(failures)} of {checks} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
