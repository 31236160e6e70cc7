"""Mutation gate: each listed mutant of the library must fail the tests it names.

Run from anywhere with ``python tests/mutants.py``; pytest does not collect
this file.  It copies ``src/`` and ``tests/`` to a temporary directory and
first runs every named test on the clean copy, where all must pass.  Then,
for each mutant, it replaces one exact snippet of a file under
``src/finflow/`` and runs the mutant's tests with ``-x -q``; the mutant is
killed when pytest reports a failing test (exit 1).  The gate fails when a
mutant survives, and when a snippet does not occur exactly once in its file,
so a change that moves the code must move the entry with it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

Mutant = namedtuple("Mutant", "name file old new tests")

MUTANTS = [
    Mutant("_single keeps rows with zero bits", "reduction.py",
           "        if rows[x].bit_count() == 1:\n",
           "        if rows[x].bit_count() <= 1:\n",
           ["tests/test_reduction.py::test_core_examples"]),
    Mutant("_delete's link test inverted", "poset.py",
           "            if upper[l] & p._down[u] == 0:\n",
           "            if upper[l] & p._down[u] != 0:\n",
           ["tests/test_reduction.py::test_core_examples"]),
    Mutant("_max_below returns its candidate unchecked", "reduction.py",
           "    return top if seen & ~down[top] == 0 else None\n",
           "    return top\n",
           ["tests/test_reduction.py::test_potential_down_beat_points_examples"]),
    Mutant("_law_holds without its last clause", "semiflow.py",
           "                 and _compose(zero, one) == one\n"
           "                 and _compose(one, zero) == one))\n",
           "                 and _compose(zero, one) == one))\n",
           ["tests/test_semiflow.py::test_law_checks_compose_the_positive_table_after_time_zero"]),
    Mutant("witness check ignores whether the endpoint moves", "semiflow.py",
           " or r.values[x] == x:\n",
           ":\n",
           ["tests/test_semiflow.py::test_cross_checks_fail_on_a_broken_reference[witness]"]),
    Mutant("_count_checks applies the exact count when any point of R* sits at height one",
           "semiflow.py",
           "        if all(p.heights[x] == 1 for x in elements_of(pot_mask)) else\n",
           "        if any(p.heights[x] == 1 for x in elements_of(pot_mask)) else\n",
           ["tests/test_semiflow.py::test_count_checks_above_the_enumeration_guard"]),
    Mutant("_flow_checks counts a moved down beat point as moved alone", "semiflow.py",
           "    for x in elements_of(moved & ~d_mask):\n",
           "    for x in elements_of(moved):\n",
           ["tests/test_semiflow.py::test_count_and_flow_checks_join_to_the_reference[chains2x7]"]),
]


def _pytest(root, tests):
    """Exit code of ``pytest -x -q`` on ``tests`` in the copy at ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode


def main():
    repo = Path(__file__).resolve().parents[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(repo / part, root / part, ignore=skip)
        shutil.copy(repo / "pyproject.toml", root)

        named = sorted({t for m in MUTANTS for t in m.tests})
        code = _pytest(root, named)
        if code != 0:
            print(f"the named tests do not pass on the clean copy (pytest exit {code})")
            return 1

        for m in MUTANTS:
            path = root / "src" / "finflow" / m.file
            original = path.read_text(encoding="utf-8")
            found = original.count(m.old)
            if found != 1:
                failures.append(f"{m.name}: snippet occurs {found} times in {m.file}")
                continue
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            code = _pytest(root, m.tests)
            path.write_text(original, encoding="utf-8")
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{verdict:>9}  {time.perf_counter() - start:5.1f} s  {m.name}")
            if code != 1:
                failures.append(f"{m.name}: survived (pytest exit {code})")
    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(MUTANTS) - len(failures)}/{len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
