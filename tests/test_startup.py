"""Start-up: each command loads only the modules it runs.

Every ``choiceless-lab`` invocation is a fresh process, so what a command
imports is paid on every run.  These checks count modules and time
nothing: each case runs in a fresh interpreter and reads ``sys.modules``.
"""

from __future__ import annotations

import importlib.resources
import json
import pkgutil

import pytest

import choiceless_lab
from choiceless_lab.cli import EXIT_OK, dispatch

from helpers import run_child

# dispatch argv, then print the package modules loaded, and argparse if it
# was, as the last line
_DISPATCH = """
import json, sys
from choiceless_lab import cli
code, _ = cli.dispatch(sys.argv[1:])
loaded = [m for m in sys.modules if m.startswith("choiceless_lab") or m == "argparse"]
print(json.dumps([code, sorted(loaded)]))
"""


def _python(*args):
    """Run python args... in a fresh interpreter; fail with its stderr."""
    child = run_child(args, check=False)
    assert child.returncode == 0, child.stderr
    return child


def _loaded_by(argv) -> set:
    child = _python("-c", _DISPATCH, *argv)
    code, modules = json.loads(child.stdout.splitlines()[-1])
    assert code == EXIT_OK, child.stdout
    return {m.removeprefix("choiceless_lab.") for m in modules}


def _within(modules: set, names) -> set:
    """The modules that are one of ``names`` or inside one of them."""
    return {m for m in modules for n in names if m == n or m.startswith(n + ".")}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    paths = {
        "int": root / "z.mat",
        "field": root / "f.mat",
        "graph": root / "g.str",
        "gadget": root / "c.str",
        "multipede": root / "p.str",
        "atoms": root / "atoms.str",
    }
    for argv in (
        ["gen", "matrix", "--n", "4", "--seed", "1", "--file", str(paths["int"])],
        ["gen", "matrix", "--q", "3", "--n", "4", "--seed", "1", "--file", str(paths["field"])],
        ["gen", "bipartite", "--na", "4", "--nb", "4", "--seed", "1", "--file", str(paths["graph"])],
        ["gen", "cfi", "--m", "3", "--twist", "odd", "--file", str(paths["gadget"])],
        ["gen", "multipede", "--segments", "6", "--hyperedges", "8", "--seed", "1", "--shoe"]
        + ["--file", str(paths["multipede"])],
    ):
        assert dispatch(["--out", str(root / "gen.json")] + argv)[0] == EXIT_OK
    paths["atoms"].write_text("atoms: a b c\n")
    paths["parity"] = importlib.resources.files("choiceless_lab") / "programs" / "parity.bgs"
    return {key: str(path) for key, path in paths.items()}


# (argv with {input} placeholders, modules it must load, modules it may
# not); only bgs run loads the set-machine package
_CASES = {
    "solve det, Z": (
        ["solve", "det", "--matrix", "{int}"],
        {"structures", "linalg.intmatrix"},
        ["bgs", "linalg.sampling", "matching", "cfi", "multipede"],
    ),
    "solve det, GF(3)": (
        ["solve", "det", "--matrix", "{field}"],
        {"linalg.matrix"},
        ["bgs", "linalg.sampling", "matching", "cfi", "multipede"],
    ),
    "solve matching": (
        ["solve", "matching", "--input", "{graph}"],
        {"structures", "matching"},
        ["bgs", "linalg", "cfi", "multipede"],
    ),
    "bgs run": (
        ["bgs", "run", "--program", "{parity}", "--input", "{atoms}"],
        {"bgs.interp", "bgs.parser"},
        ["linalg", "matching", "cfi", "multipede"],
    ),
    "solve cfi-classify": (
        ["solve", "cfi-classify", "--input", "{gadget}"],
        {"structures", "cfi"},
        ["bgs", "multipede", "linalg"],
    ),
    "iso multipede3": (
        ["iso", "multipede3", "--a", "{multipede}", "--b", "{multipede}"],
        {"multipede", "linalg.matrix"},
        ["bgs", "linalg.sampling", "matching", "cfi"],
    ),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_command_loads_only_what_it_runs(case, inputs):
    argv, needed, barred = _CASES[case]
    modules = _loaded_by([arg.format(**inputs) for arg in argv])
    assert needed <= modules
    assert _within(modules, barred) == set()
    assert "argparse" not in modules  # flags are read from the command table


# __main__ runs the command line when imported, so it is left out
_MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(choiceless_lab.__path__, "choiceless_lab.")
    if info.name != "choiceless_lab.__main__"
)


@pytest.mark.parametrize("module", _MODULES)
def test_module_imports_alone(module):
    _python("-c", f"import {module}")
