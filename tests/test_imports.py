"""Start-up budget: each command imports only the modules it runs.

Every check runs in a fresh ``python -S`` interpreter, so nothing loaded by
this test run or by site hooks hides an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import finflow
from finflow import families
from finflow.formats import write_poset_text

SRC = str(Path(finflow.__file__).resolve().parents[1])
LAYERS = ("finflow.semiflow", "finflow.report", "finflow.reduction", "finflow.maps")
STDLIB = ("dataclasses", "inspect", "json")


def fresh(code):
    """Last stdout line of ``code`` run in a fresh interpreter on ``SRC``."""
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    return done.stdout.splitlines()[-1]


def loaded_after(code):
    """Which of ``LAYERS`` and ``STDLIB`` are in ``sys.modules`` after ``code``."""
    return fresh(f"import sys\n{code}\n"
                 f"print(sorted(m for m in {LAYERS + STDLIB!r} if m in sys.modules))")


def test_importing_the_cli_loads_no_layer():
    assert loaded_after("import finflow.cli") == "[]"


def test_every_module_imports_without_dataclasses_or_json():
    code = "import finflow.cli, finflow.families, finflow.report"
    assert loaded_after(code) == str(sorted(LAYERS))


@pytest.mark.parametrize("command", ["validate", "dot"])
def test_shape_commands_load_no_layer(tmp_path, command):
    path = tmp_path / "ex31.txt"
    path.write_text(write_poset_text(families.example_3_1()))
    code = f"from finflow.cli import run_cli\nassert run_cli([{command!r}, {str(path)!r}]) == 0"
    assert loaded_after(code) == "[]"


def test_package_names_resolve_lazily():
    code = ("import finflow, importlib\n"
            "assert set(finflow.__all__) <= set(dir(finflow))\n"
            "for name in finflow.__all__:\n"
            "    module = importlib.import_module('finflow.' + finflow._MODULE_OF[name])\n"
            "    assert getattr(finflow, name) is getattr(module, name), name\n"
            "assert not hasattr(finflow, 'no_such_name')\n"
            "print('ok')")
    assert fresh(code) == "ok"
