"""The package's lazy submodules: what ``import starpart`` exposes, and
which modules a CLI call leaves unexecuted or never imports; the CLI
process itself, which must print and exit exactly as ``main`` returns; and
the bytecode that process leaves for the next one."""

import ast
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
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


def _python(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # block-buffered stdout, the default: a process that skips a flush loses
    # output
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=text, timeout=60)


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


def _bench_argv(tmp_path, sub: str) -> list[str]:
    """``_BENCH_CALLS[sub]`` with ``G`` and ``D`` made under ``tmp_path``."""
    from starpart.graphs import serialize_graph
    from starpart.instances import shipped_instance
    graph = tmp_path / "c5.g6"
    graph.write_text(serialize_graph(shipped_instance("C5")[0], "graph6") + "\n")
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "c5.g6").write_text(graph.read_text())
    paths = {"G": str(graph), "D": str(tmp_path / "corpus")}
    return [paths.get(a, a) for a in _BENCH_CALLS[sub]]


@pytest.mark.parametrize("sub", _BENCH_CALLS)
def test_cli_call_imports_no_dataclasses_or_inspect(tmp_path, sub):
    argv = _bench_argv(tmp_path, sub)
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


def test_no_module_reads_a_private_name_of_a_sibling():
    # the attribute form of the rule above: ``fii._Solver`` read through a
    # sibling module bound by ``from . import fii``
    crossings = []
    for path in sorted(Path(SRC, "starpart").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        siblings = {a.asname or a.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module in (None, "starpart") for a in node.names}
        crossings += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                      for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in siblings and node.attr.startswith("_")
                      and not node.attr.startswith("__")]
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


def test_input_errors_are_graph_errors():
    # GraphError is the one input-error type, which main maps to exit 2: a
    # ValueError raised or caught elsewhere would decide again which faults
    # are the caller's
    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} \
            if node else set()

    found = []
    for path in sorted(Path(SRC, "starpart").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and "ValueError" in names(node.exc):
                found.append(f"{path.name}:{node.lineno} raise")
            if isinstance(node, ast.FunctionDef) and (
                    node.name.startswith("_cmd_") or node.name == "_gen_family"):
                found += [f"{path.name}:{h.lineno} {node.name}"
                          for h in ast.walk(node)
                          if isinstance(h, ast.ExceptHandler)
                          and "ValueError" in names(h.type)]
    assert found == []


def test_oracles_share_no_code_with_the_engines():
    # a reference that called the code it judges would agree with any bug in
    # it: tests/oracles.py takes only the Graph type from starpart, and no
    # oracle or brute-force helper is part of the package
    path = Path(__file__).with_name("oracles.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("starpart")}
        if isinstance(node, ast.ImportFrom) and node.module.startswith("starpart"):
            imported |= {f"{node.module}.{a.name}" for a in node.names}
    assert imported == {"starpart.graphs.Graph"}
    assert [name for name in starpart.__all__
            if "oracle" in name or "brute" in name] == []


def test_every_module_level_import_is_read():
    # an import that nothing reads is dead code a reader must still trace:
    # each module-level import in src/starpart, tests and tools binds a name
    # that its module reads (``from __future__`` binds none)
    root = Path(__file__).resolve().parent.parent
    unread = []
    for path in sorted([*Path(SRC, "starpart").glob("*.py"),
                        *root.joinpath("tests").glob("*.py"),
                        *root.joinpath("tools").glob("*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.parent.name}/{path.name}: {name}"
                   for node in tree.body if isinstance(node, ast.Import) or (
                       isinstance(node, ast.ImportFrom) and node.module != "__future__")
                   for a in node.names for name in [a.asname or a.name.split(".")[0]]
                   if name not in read]
    assert unread == []


def test_only_graphs_checks_a_vertex_range():
    # a vertex argument is checked by graphs.check_vertices alone: any other
    # chained comparison against a graph's vertex count g.n is a second check
    found = []
    for path in sorted(Path(SRC, "starpart").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            found += [f"{path.name}:{fn.name}" for node in ast.walk(fn)
                      if isinstance(node, ast.Compare) and len(node.ops) > 1
                      and isinstance(node.comparators[-1], ast.Attribute)
                      and node.comparators[-1].attr == "n"]
    assert found == ["graphs.py:check_vertices"]


def test_only_main_prints_a_result():
    # a handler returns (exit code, payload, text) and prints nothing: _emit
    # writes a result and main alone calls it, so what reaches stdout is
    # decided in one place (main also writes help and error documents)
    found = set()

    def visit(node, fn):
        fn = node.name if isinstance(node, ast.FunctionDef) else fn
        if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "sys.stdout.write", "_emit", "print"):
            found.add((ast.unparse(node.func), fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    path = Path(SRC, "starpart", "cli.py")
    visit(ast.parse(path.read_text(), str(path)), None)
    assert sorted(found) == [("_emit", "main"), ("sys.stdout.write", "_emit"),
                             ("sys.stdout.write", "main")]


def test_only_reduced_graph_builds_h():
    # H = G - S is built, and its ids mapped back to G's, in one place:
    # configs.reduced_graph is the only caller of Graph.induced in src/
    found = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = f"{where.partition(':')[0]}:{node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "induced":
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(SRC, "starpart").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name)
    assert found == ["configs.py:reduced_graph"]


def test_only_the_cli_makes_a_deadline():
    # a deadline is time.monotonic() plus a budget: the CLI makes one per
    # call, and every engine takes the one it is given
    def reads_clock(node):
        f = node.func if isinstance(node, ast.Call) else None
        return (isinstance(f, ast.Attribute) and f.attr == "monotonic"
                or isinstance(f, ast.Name) and f.id == "monotonic")

    made = []
    for path in sorted(Path(SRC, "starpart").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) \
                    and (reads_clock(node.left) or reads_clock(node.right)):
                made.append(path.name)
    assert made == ["cli.py"]


def test_only_graphs_spells_a_class_set():
    # the class sets (W23, W25, W235, W2345, V4P) are defined once, in
    # graphs; three or more VertexClass members in one display elsewhere
    # spell a set again
    members = set(starpart.VertexClass.__members__)
    spelled = []
    for path in sorted(Path(SRC, "starpart").glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Set, ast.Tuple, ast.List)) and sum(
                    isinstance(e, ast.Attribute) and e.attr in members
                    for e in node.elts) >= 3:
                spelled.append(f"{path.name}:{node.lineno}")
    assert spelled == []


# -- the process exit -----------------------------------------------------------

def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _in_process(capsys, argv: list[str]) -> tuple[int, bytes]:
    from starpart import cli
    code = cli.main(argv)
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize("sub", _BENCH_CALLS)
def test_process_prints_and_exits_as_main_returns(tmp_path, capsys, sub):
    argv = ["--json", *_bench_argv(tmp_path, sub)]
    corpus = tmp_path / "corpus"
    given = _files(corpus)
    expected = _in_process(capsys, argv), _files(corpus)
    for name in expected[1].keys() - given.keys():  # the process writes them anew
        (corpus / name).unlink()
    proc = _python("-m", "starpart.cli", *argv, text=False)
    assert (proc.returncode, proc.stdout) == expected[0], proc.stderr
    assert _files(corpus) == expected[1]


def test_process_flushes_a_multi_megabyte_document_and_out_files(tmp_path,
                                                                 capsys):
    argv = ["--json", "gen", "g5n", "-n", "400"]
    code, out = _in_process(capsys, argv)
    assert code == 0 and len(out) > 3_000_000
    proc = _python("-m", "starpart.cli", *argv, text=False)
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
    graph = tmp_path / "g5n.g6"
    argv = ["--json", "gen", "g5n", "-n", "400", "--out", str(graph)]
    expected = _in_process(capsys, argv), graph.read_bytes()
    graph.unlink()
    proc = _python("-m", "starpart.cli", *argv, text=False)
    assert ((proc.returncode, proc.stdout), graph.read_bytes()) == expected


def test_process_lemma_check_times_out_with_exit_3(tmp_path):
    from starpart.generators import gen_path
    from starpart.graphs import to_graph6
    path = tmp_path / "p2000.g6"
    path.write_text(to_graph6(gen_path(2000)) + "\n")
    # the reduced path has exponentially many partitions: only the budget ends
    # the check
    start = time.monotonic()
    proc = _python("-m", "starpart.cli", "--json", "--timeout-ms", "1000",
                   "lemma-check", "--config", "C1", str(path))
    took = time.monotonic() - start
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout) == {"schema": 1, "command": "lemma-check",
                                       "status": "unknown"}
    assert took < 30, took


def test_process_internal_error_exits_4_with_traceback(tmp_path):
    graph = tmp_path / "triangle.el"
    graph.write_text("0 1\n1 2\n0 2\n")
    entry = ("import sys\n"
             "from starpart import cli, density\n"
             "def boom(g):\n"
             "    raise KeyError('boom')\n"
             "density.mad = boom\n"
             "cli.run()\n")
    proc = _python("-c", entry, "--json", "mad", str(graph))
    assert proc.returncode == 4
    assert json.loads(proc.stdout) == {"schema": 1, "error": "internal",
                                       "detail": "KeyError: 'boom'"}
    assert proc.stderr.startswith("Traceback") and "KeyError: 'boom'" in proc.stderr


class _ClosedPipe(io.StringIO):
    """A stdout whose reader went away: every flush fails."""

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stdout, code", [(io.StringIO, 0), (_ClosedPipe, 2)],
                         ids=["open", "closed"])
def test_run_flushes_then_exits_with_the_code(monkeypatch, capsys, tmp_path,
                                              stdout, code):
    from starpart import cli
    graph = tmp_path / "triangle.el"
    graph.write_text("0 1\n1 2\n0 2\n")
    exits, cached = [], []
    monkeypatch.setattr(os, "_exit", exits.append)
    # record, rather than write into the source tree, what run() would cache
    monkeypatch.setattr(cli, "_cache_bytecode", lambda source, _: cached.append(source))
    monkeypatch.setattr(sys, "argv", ["starpart", "--json", "girth", str(graph)])
    out = stdout()
    monkeypatch.setattr(sys, "stdout", out)
    cli.run()
    assert exits == [code]
    assert cli.__file__ in cached
    assert json.loads(out.getvalue())["girth"] == 3
    assert capsys.readouterr().err == ""


def test_console_script_enters_through_run():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(SRC).parent / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"starpart": "starpart.cli:run"}


# -- the bytecode a CLI process leaves ----------------------------------------
#
# Each test runs a copy of the package under tmp_path with
# PYTHONDONTWRITEBYTECODE=1, so the interpreter itself writes no bytecode and
# nothing is written into the source tree.

@pytest.fixture
def copy_root(tmp_path):
    """A directory holding a copy of the starpart sources and no bytecode,
    beside a triangle at ``tmp_path / "triangle.g6"``."""
    root = tmp_path / "src"
    shutil.copytree(Path(SRC, "starpart"), root / "starpart",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "triangle.g6").write_text("Bw\n")
    return root


#: a CLI call on the triangle beside the copy, as argv after ``python``
_GIRTH = ("-m", "starpart.cli", "--json", "girth", "triangle.g6")


def _copy_python(root: Path, *args: str,
                 prefix: Path | None = None) -> subprocess.CompletedProcess:
    """``python args`` on the copy at ``root``, run beside it; its bytecode
    goes beside the copy, or under ``prefix`` as ``PYTHONPYCACHEPREFIX``."""
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    if prefix is not None:
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    return subprocess.run([sys.executable, *args], env=env, cwd=root.parent,
                          capture_output=True, text=True, timeout=60)


def _cached(root: Path) -> dict[str, int]:
    """Module name -> ``st_mtime_ns`` of each bytecode file in the copy."""
    return {p.name.split(".")[0]: p.stat().st_mtime_ns
            for p in (root / "starpart" / "__pycache__").iterdir()}


def _imported(proc, name: str) -> bool:
    """Whether a ``-X importtime`` run imported the module ``name``."""
    return any(line.rsplit("|", 1)[-1].strip() == name
               for line in proc.stderr.splitlines())


def test_cold_call_caches_the_modules_it_ran(copy_root):
    proc = _copy_python(copy_root, "-X", "importtime", *_GIRTH)
    assert (proc.returncode, json.loads(proc.stdout)["girth"]) == (0, 3)
    # the import system's loader writes: nothing of py_compile's is imported
    assert not (_imported(proc, "py_compile") or _imported(proc, "traceback"))
    assert sorted(_cached(copy_root)) == ["__init__", "cli", "graphs"]


def test_warm_call_compiles_and_rewrites_nothing(copy_root):
    _copy_python(copy_root, *_GIRTH)
    cold = _cached(copy_root)
    proc = _copy_python(copy_root, "-v", *_GIRTH)
    assert proc.returncode == 0
    assert _cached(copy_root) == cold
    # -v names the file each module's code came from: for starpart's, the
    # bytecode, never the source
    pkg = str(copy_root / "starpart")
    loaded = [line.split(" from ", 1)[1].strip("'")
              for line in proc.stderr.splitlines()
              if line.startswith("# code object from") and pkg in line]
    cache, tag = Path(pkg, "__pycache__"), sys.implementation.cache_tag
    assert sorted(loaded) == sorted(str(cache / f"{m}.{tag}.pyc") for m in cold)


def test_edited_source_runs_and_only_its_bytecode_is_rewritten(copy_root):
    _copy_python(copy_root, *_GIRTH)
    cold = _cached(copy_root)
    with open(copy_root / "starpart" / "graphs.py", "a") as f:
        f.write("\n_girth = girth\n\n\ndef girth(g):\n    return _girth(g) + 1\n")
    assert json.loads(_copy_python(copy_root, *_GIRTH).stdout)["girth"] == 4
    edited = _cached(copy_root)
    assert edited.keys() == cold.keys()
    assert [m for m in cold if edited[m] != cold[m]] == ["graphs"]
    assert json.loads(_copy_python(copy_root, *_GIRTH).stdout)["girth"] == 4
    assert _cached(copy_root) == edited


def test_unwritable_cache_changes_no_output_and_compiles_nothing(copy_root):
    (copy_root / "starpart" / "__pycache__").write_bytes(b"")
    proc = _copy_python(copy_root, "-X", "importtime", *_GIRTH)
    assert (proc.returncode, proc.stdout) == (
        0, '{"command": "girth", "girth": 3, "schema": 1}\n')
    assert not _imported(proc, "py_compile")
    assert "Error" not in proc.stderr
    assert (copy_root / "starpart" / "__pycache__").read_bytes() == b""


def test_cache_follows_the_pycache_prefix(copy_root, tmp_path):
    # the prefix mirrors the copy's path in directories no process made yet
    prefix = tmp_path / "prefix"
    proc = _copy_python(copy_root, *_GIRTH, prefix=prefix)
    assert (proc.returncode, json.loads(proc.stdout)["girth"]) == (0, 3)
    assert not (copy_root / "starpart" / "__pycache__").exists()
    cache = prefix / (copy_root / "starpart").relative_to(copy_root.anchor)
    assert sorted(p.name.split(".")[0] for p in cache.iterdir()) == [
        "__init__", "cli", "graphs"]


def test_in_process_main_writes_no_bytecode(copy_root):
    proc = _copy_python(copy_root, "-c", "import sys, starpart\n"
                        "from starpart import cli\n"
                        "sys.exit(cli.main(sys.argv[1:]))", *_GIRTH[2:])
    assert (proc.returncode, json.loads(proc.stdout)["girth"]) == (0, 3)
    assert not (copy_root / "starpart" / "__pycache__").exists()


@pytest.fixture
def get_code_calls(monkeypatch):
    """The sources ``SourceFileLoader.get_code`` is called on, in order;
    ``sys.dont_write_bytecode``, which ``_cache_bytecode`` clears, is
    restored after the test."""
    # loaded before the recording starts, so that it sees the test's calls only
    import py_compile  # noqa: F401
    from starpart.cli import _cache_bytecode  # noqa: F401
    from importlib.machinery import SourceFileLoader
    calls, get_code = [], SourceFileLoader.get_code

    def recording(self, name):
        calls.append(name)
        return get_code(self, name)

    monkeypatch.setattr(SourceFileLoader, "get_code", recording)
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    return calls


def _pyc(tmp_path, mode):
    """A module under ``tmp_path`` and its bytecode compiled in ``mode``
    (a ``py_compile.PycInvalidationMode`` name); (source, cached)."""
    import py_compile
    source = tmp_path / "mod.py"
    source.write_text("x = 1\n")
    cached = importlib.util.cache_from_source(str(source))
    py_compile.compile(str(source), cached, doraise=True, invalidation_mode=
                       getattr(py_compile.PycInvalidationMode, mode))
    return str(source), cached


def _header(cached: str) -> tuple[int, bytes]:
    """The flags word and the 8 bytes after it of a bytecode file."""
    head = Path(cached).read_bytes()[:16]
    return int.from_bytes(head[4:8], "little"), head[8:]


def test_current_checked_hash_bytecode_is_left_alone(tmp_path, get_code_calls):
    from starpart.cli import _cache_bytecode
    source, cached = _pyc(tmp_path, "CHECKED_HASH")
    before = Path(cached).read_bytes()
    _cache_bytecode(source, cached)
    assert get_code_calls == [] and Path(cached).read_bytes() == before
    # an edited source gets a new checked-hash file, with the new hash
    Path(source).write_text("x = 2\n")
    _cache_bytecode(source, cached)
    assert get_code_calls == [source]
    assert _header(cached) == (
        3, importlib.util.source_hash(Path(source).read_bytes()))
    _cache_bytecode(source, cached)
    assert get_code_calls == [source]


def test_unchecked_hash_bytecode_is_never_rewritten(tmp_path, get_code_calls):
    from starpart.cli import _cache_bytecode
    source, cached = _pyc(tmp_path, "UNCHECKED_HASH")
    before = Path(cached).read_bytes()
    Path(source).write_text("x = 2\n")  # the interpreter runs the file as is
    _cache_bytecode(source, cached)
    assert get_code_calls == [] and Path(cached).read_bytes() == before


def test_timestamp_bytecode_is_rewritten_only_when_stale(tmp_path, get_code_calls):
    from starpart.cli import _cache_bytecode
    source, cached = _pyc(tmp_path, "TIMESTAMP")
    _cache_bytecode(source, cached)
    assert get_code_calls == []
    Path(source).write_text("x = 22\n")  # a new size, whatever the clock
    _cache_bytecode(source, cached)
    _cache_bytecode(source, cached)
    assert get_code_calls == [source]
    st = os.stat(source)
    assert _header(cached) == (0, (int(st.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                               + st.st_size.to_bytes(4, "little"))
    Path(cached).unlink()  # no file at all: compiled and written
    _cache_bytecode(source, cached)
    assert get_code_calls == [source, source] and _header(cached)[0] == 0


@pytest.mark.parametrize("sub", _BENCH_CALLS)
def test_cold_and_warm_calls_print_the_same(tmp_path, copy_root, sub):
    argv = ["-m", "starpart.cli", "--json", *_bench_argv(tmp_path, sub)]
    cold = _copy_python(copy_root, *argv)
    assert _cached(copy_root)
    warm = _copy_python(copy_root, *argv)
    assert (warm.returncode, warm.stdout) == (cold.returncode, cold.stdout)
    assert cold.returncode in (0, 1), cold.stderr
