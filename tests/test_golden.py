"""CLI output against output recorded before the semigroup-law check
became exact, before the per-semiflow laws were checked table by table,
and before the enumerator listed fixed-point sets.  ``chain8.verify.out``,
where the brute-force oracle does the work, was recorded before the laws
and the oracle's candidate test became C-level table operations.  The ``analyze``
outputs of example_3_1 and random9 (text and JSON) were recorded again when
witnesses became the potential points below each point in scan order.

The inputs in ``golden/`` were made with ``finflow gen example_3_1``,
``finflow gen x_n --n 2``, ``finflow gen random --n 9 --p 0.4 --seed 17``,
``finflow gen chain --n 14``, ``finflow gen x_n --n 4`` and
``finflow gen chain --n 8``.
"""

import json
import re
from pathlib import Path

import pytest

from finflow import cli
from finflow.formats import parse_poset_text

from helpers import reference_removal_search

GOLDEN = Path(__file__).parent / "golden"
SPACES = ["example_3_1", "x_2", "random9"]
# recorded with the exact law check, so ``verify`` must match byte for byte
VERIFY_SPACES = ["chain14", "x_4", "chain8"]
LIST_SPACES = ["example_3_1", "x_4", "random9", "chain8"]


def run(capsys, *argv):
    assert cli.run_cli([*argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", SPACES)
def test_analyze_output_unchanged(capsys, name):
    out = run(capsys, "analyze", str(GOLDEN / f"{name}.txt"))
    assert out == (GOLDEN / f"{name}.analyze.out").read_text()


@pytest.mark.parametrize("name", SPACES)
def test_verify_output_unchanged_but_for_the_law_line(capsys, name):
    out = run(capsys, "verify", str(GOLDEN / f"{name}.txt"))
    old = (GOLDEN / f"{name}.verify.out").read_text()
    # the sampled semigroup-law check became the exact four-class check
    want, renamed = re.subn(
        r"^PASS semigroup_law_sampled: (\d+) semiflows x 20 time pairs$",
        r"PASS semigroup_law: \1 semiflows x 4 time classes", old, flags=re.M)
    assert renamed == 1
    assert out == want


@pytest.mark.parametrize("name", VERIFY_SPACES)
def test_verify_output_byte_identical(capsys, name):
    out = run(capsys, "verify", str(GOLDEN / f"{name}.txt"))
    assert out == (GOLDEN / f"{name}.verify.out").read_text()


@pytest.mark.parametrize("name", LIST_SPACES)
def test_semiflow_list_byte_identical(capsys, name):
    out = run(capsys, "semiflows", str(GOLDEN / f"{name}.txt"), "--list")
    assert out == (GOLDEN / f"{name}.semiflows.out").read_text()


def test_analyze_json_byte_identical(capsys, tmp_path):
    dest = tmp_path / "random9.json"
    run(capsys, "analyze", str(GOLDEN / "random9.txt"), "--json", str(dest))
    assert dest.read_text() == (GOLDEN / "random9.analyze.json").read_text()


def recorded_witnesses(name):
    """``(point, witness)`` label pairs of every recorded ``analyze`` output."""
    text = (GOLDEN / f"{name}.analyze.out").read_text()
    out = [(x, via.split(", ")) for x, via in re.findall(r"^  (\S+): via (.+)$", text, re.M)]
    if name == "random9":
        data = json.loads((GOLDEN / "random9.analyze.json").read_text())
        out += [(w["point"], w["witness"]) for w in data["potential_points"]]
    return out


@pytest.mark.parametrize("name", ["example_3_1", "random9"])
def test_recorded_witnesses_are_potential_points_below(name):
    # the witness of x lists the potential points at or below x by height, then index
    p = parse_poset_text((GOLDEN / f"{name}.txt").read_text())
    pot = reference_removal_search(p)
    witnesses = recorded_witnesses(name)
    assert sorted({x for x, _ in witnesses}) == sorted(p.labels[x] for x in pot)
    for x, via in witnesses:
        below = [y for y in pot if p.leq(y, p.index_of(x))]
        below.sort(key=lambda y: (p.heights[y], y))
        assert via == [p.labels[y] for y in below]
