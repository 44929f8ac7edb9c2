"""The package's lazy submodules: what ``import starpart`` exposes, and
which modules a CLI call leaves unexecuted or never imports."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import starpart

SRC = str(Path(starpart.__file__).resolve().parent.parent)
MODULES = ("graphs", "density", "starcolor", "fii", "configs", "discharging",
           "generators", "instances")

#: stdlib modules that no CLI call may import: ``dataclasses`` pulls in
#: ``inspect``, ``ast``, ``dis`` and ``tokenize``, ``argparse`` loads
#: ``gettext`` and ``locale``, and that start-up cost is paid again by every
#: call
_SLOW_IMPORTS = ("dataclasses", "inspect", "argparse")

#: stdlib modules that only a call doing rational arithmetic may import:
#: ``fractions`` pulls in ``decimal`` and ``numbers``
_RATIONAL_IMPORTS = ("fractions", "decimal")

#: lists the starpart modules a CLI call (argv) left unexecuted, and the
#: ``_SLOW_IMPORTS`` and ``_RATIONAL_IMPORTS`` it loaded; the type test
#: reads no module attribute, since a read would load the module
_UNEXECUTED = f"""
import contextlib, io, json, sys, types
from starpart import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({{"code": code, "unexecuted": sorted(
    name.split(".", 1)[1] for name, m in sys.modules.items()
    if name.startswith("starpart.") and type(m) is not types.ModuleType),
    "loaded": [name for name in {_SLOW_IMPORTS!r} if name in sys.modules],
    "rational": [name for name in {_RATIONAL_IMPORTS!r} if name in sys.modules]}}))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_every_exported_name_resolves_to_its_module_object():
    for name in starpart.__all__:
        if name in MODULES:
            assert getattr(starpart, name) is sys.modules[f"starpart.{name}"]
        else:
            owner = importlib.import_module(f"starpart.{starpart._OWNER[name]}")
            assert getattr(starpart, name) is getattr(owner, name), name
        assert name in dir(starpart)
    namespace = {}
    exec("from starpart import *", namespace)
    assert set(starpart.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        starpart.no_such_name  # noqa: B018
    assert getattr(starpart, "no_such_name", None) is None


@pytest.mark.parametrize("name", ["starpart", "starpart.cli",
                                  *(f"starpart.{m}" for m in MODULES)])
def test_each_module_imports_alone(name):
    proc = _python("-c", f"import importlib, types; "
                   f"m = importlib.import_module({name!r}); vars(m); "
                   f"assert type(m) is types.ModuleType")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("sub, unexecuted", [
    ("girth", {"configs", "discharging", "fii", "starcolor", "density",
               "generators"}),
    ("star5", {"configs", "discharging", "generators"}),
    ("config-scan", {"fii", "starcolor", "discharging", "density",
                     "generators"}),
    ("discharge", {"configs", "fii", "starcolor", "density", "generators"}),
    ("discharge-audit", {"fii", "starcolor", "density", "generators"}),
])
def test_cli_runs_only_the_modules_its_subcommand_needs(tmp_path, sub, unexecuted):
    path = tmp_path / "triangle.g6"
    path.write_text("Bw\n")
    proc = _python("-c", _UNEXECUTED, "--json", sub, str(path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    # the triangle's vertices all end below 8/3: the audit reports deficits
    assert doc["code"] == (1 if sub == "discharge-audit" else 0)
    assert unexecuted <= set(doc["unexecuted"])


def test_import_registers_every_module_unexecuted():
    proc = _python("-c", "import sys, types, starpart; print(sorted("
                   "name for name, m in sys.modules.items() "
                   "if name.startswith('starpart.') and type(m) is not types.ModuleType))")
    assert proc.stdout.strip() == str(sorted(f"starpart.{m}" for m in MODULES)), proc.stderr


#: every subcommand the benchmark runs, as argv after ``--json``; ``G`` is a
#: graph file holding the shipped C5 instance, ``D`` a scratch directory
_BENCH_CALLS = {
    "star5": ["star5", "G"],
    "fii-find": ["fii-find", "G"],
    "mad": ["mad", "G"],
    "rho-star": ["rho-star", "G", "--seed", "0,1"],
    "gen corpus": ["gen", "corpus", "--count", "2", "--n-max", "6", "--out", "D"],
    "boundary": ["boundary", "-k", "2", "--corpus", "D"],
    "config-scan": ["config-scan", "G"],
    "discharge": ["discharge", "G"],
    "discharge-audit": ["discharge-audit", "G"],
    "classify": ["classify", "G"],
    "attach": ["attach", "G", "--at", "0", "--gadget", "J1"],
    "girth": ["girth", "G"],
    "lemma-check": ["lemma-check", "G", "--config", "C5"],
}


@pytest.mark.parametrize("sub", _BENCH_CALLS)
def test_cli_call_imports_no_dataclasses_or_inspect(tmp_path, sub):
    from starpart.graphs import serialize_graph
    from starpart.instances import shipped_instance
    graph = tmp_path / "c5.g6"
    graph.write_text(serialize_graph(shipped_instance("C5")[0], "graph6") + "\n")
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "c5.g6").write_text(graph.read_text())
    paths = {"G": str(graph), "D": str(tmp_path / "corpus")}
    argv = [paths.get(a, a) for a in _BENCH_CALLS[sub]]
    proc = _python("-c", _UNEXECUTED, "--json", *argv)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["code"] in (0, 1), proc.stderr
    assert doc["loaded"] == [], sub


#: the subcommands that compute with no Fraction, as argv after ``--json``;
#: ``G5`` and ``G1`` are graph files holding the shipped C5 and C1 instances
_FRACTION_FREE_CALLS = {
    "star5": ["star5", "G5"],
    "fii-find": ["fii-find", "G5"],
    "girth": ["girth", "G5"],
    "classify": ["classify", "G5"],
    "attach": ["attach", "G5", "--at", "0", "--gadget", "J1"],
    "config-scan": ["config-scan", "G5"],
    "lemma-check": ["lemma-check", "G1", "--config", "C1"],
}


@pytest.mark.parametrize("sub", _FRACTION_FREE_CALLS)
def test_fraction_free_call_imports_no_fractions(tmp_path, sub):
    from starpart.graphs import serialize_graph
    from starpart.instances import shipped_instance
    paths = {}
    for cid in ("C5", "C1"):
        paths["G" + cid[1:]] = path = tmp_path / f"{cid}.g6"
        path.write_text(serialize_graph(shipped_instance(cid)[0], "graph6") + "\n")
    argv = [str(paths.get(a, a)) for a in _FRACTION_FREE_CALLS[sub]]
    proc = _python("-c", _UNEXECUTED, "--json", *argv)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["code"] == 0, proc.stderr
    assert doc["rational"] == [] and doc["loaded"] == [], sub


def test_no_module_imports_a_private_name_from_a_sibling():
    # a private name used across modules is a second entry point to one
    # table or routine; make it public or call the public one
    crossings = []
    for path in sorted(Path(SRC, "starpart").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("starpart")):
                crossings += [f"{path.name}: {node.module}.{a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert crossings == []


def test_no_function_calls_itself():
    # every search keeps its state on an explicit stack, so input size never
    # meets the interpreter's recursion limit; a call by the function's own
    # name (or self./cls. name for a method) is where recursion starts
    recursive = []
    for path in sorted(Path(SRC, "starpart").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if isinstance(f, ast.Name) and f.id == node.name or (
                        isinstance(f, ast.Attribute) and f.attr == node.name
                        and isinstance(f.value, ast.Name)
                        and f.value.id in ("self", "cls")):
                    recursive.append(f"{path.name}:{call.lineno} {node.name}")
    assert recursive == []
