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


def test_public_names():
    assert sorted(finflow.__all__) == [
        "AnalysisReport", "BoundCheck", "CycleError", "FinflowError",
        "InvalidSequenceError", "InvalidSpecError", "MonotoneMap", "NegativeTimeError",
        "ParseError", "Poset", "RemovalSequence", "SchemaError", "Semiflow",
        "SizeLimitError", "UnknownLabelError", "Xorshift64Star", "analyze", "antichain",
        "beat_points", "brute_force_oracle", "chain", "cone", "core", "down_beat_points",
        "elements_of", "enumerate_semiflows", "example_2_5", "example_3_1",
        "full_verification", "is_minimal_space", "is_monotone", "make", "mask_of",
        "parse_poset_json", "parse_poset_text", "potential_down_beat_points",
        "pseudo_circle", "random_corpus", "random_poset", "realization_family",
        "removal_sequence_for", "retraction_from_sequence", "to_dot", "up_beat_points",
        "validate_removal_sequence", "verify_counting_results", "write_poset_json",
        "write_poset_text"]
