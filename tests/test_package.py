"""The package's lazy submodules: what ``import starpart`` exposes, and
which modules a CLI call leaves unexecuted."""

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

#: lists the starpart modules a CLI call (argv) left unexecuted; the type
#: test reads no module attribute, since a read would load the module
_UNEXECUTED = """
import contextlib, io, json, sys, types
from starpart import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "unexecuted": sorted(
    name.split(".", 1)[1] for name, m in sys.modules.items()
    if name.startswith("starpart.") and type(m) is not types.ModuleType)}))
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
])
def test_cli_runs_only_the_modules_its_subcommand_needs(tmp_path, sub, unexecuted):
    path = tmp_path / "triangle.g6"
    path.write_text("Bw\n")
    proc = _python("-c", _UNEXECUTED, "--json", sub, str(path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["code"] == 0
    assert unexecuted <= set(doc["unexecuted"])


def test_import_registers_every_module_unexecuted():
    proc = _python("-c", "import sys, types, starpart; print(sorted("
                   "name for name, m in sys.modules.items() "
                   "if name.startswith('starpart.') and type(m) is not types.ModuleType))")
    assert proc.stdout.strip() == str(sorted(f"starpart.{m}" for m in MODULES)), proc.stderr
