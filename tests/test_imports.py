"""The exact pipeline never loads the numeric stack, and the verifier loads
it only when a root finder runs.

Each check runs in a fresh interpreter, because this test process has
already imported numpy and mpmath through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import planebranch
from planebranch.cli import main

F2 = "(y^2-x^3)^2-x^5*y"

SCRIPT = """
import json, sys
from contextlib import redirect_stdout
from io import StringIO

from planebranch.cli import main
from planebranch import parse_poly, puiseux_expand


def loaded():
    return [name for name in ("numpy", "mpmath") if name in sys.modules]


before = loaded()
with redirect_stdout(StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
if codes != [0] * len(codes):
    sys.exit(f"exit codes {codes}")
exec(sys.argv[2])
print(json.dumps([before, loaded()]))
"""


def numeric_modules(tmp_path, commands, action=""):
    """numpy and mpmath among the modules of a fresh interpreter, after it
    imports planebranch.cli and after it then runs the CLI commands and
    the Python action."""
    src = str(Path(planebranch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands), action],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_exact_commands_load_no_numeric_library(tmp_path, capsys):
    assert main(["jnd", "--semigroup", "4,6,13", "--json"]) == 0
    family = tmp_path / "family.json"
    family.write_text(capsys.readouterr().out)
    commands = [
        ["semigroup", "--f", F2],
        ["roots", "--f", F2],
        ["jnd", "--semigroup", "4,6,13", "--json"],
        ["invariants", "--semigroup", "4,6,13"],
        ["recover", "--family", str(family), "--explain"],
    ]
    assert numeric_modules(tmp_path, commands) == [[], []]


def test_verification_with_closed_form_edge_roots_loads_no_numeric_library(tmp_path):
    # every edge polynomial of F2 and of its jacobians is a binomial or one
    # cluster after lattice reduction, so no root finder runs
    commands = [["jnd", "--f", F2, "--verify"]]
    assert numeric_modules(tmp_path, commands) == [[], []]


def test_general_root_finder_at_53_bits_loads_numpy_only(tmp_path):
    # (z - 1)(z - 2)(z - 4) is neither a binomial nor one cluster
    action = "assert len(puiseux_expand(parse_poly('(y-x)*(y-2*x)*(y-4*x)'), 2)) == 3"
    assert numeric_modules(tmp_path, [], action) == [[], ["numpy"]]


def test_higher_tiers_load_mpmath(tmp_path):
    action = "assert len(puiseux_expand(parse_poly('y^2-x^3'), 4, min_bits=128)) == 2"
    before, after = numeric_modules(tmp_path, [], action)
    assert before == [] and "mpmath" in after


def test_cli_import_loads_no_pathlib(tmp_path):
    # -S keeps site's own imports out, so what is loaded is the CLI's
    src = str(Path(planebranch.__file__).resolve().parents[1])
    code = "import sys, planebranch.cli; print('pathlib' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
