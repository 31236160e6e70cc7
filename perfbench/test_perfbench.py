"""Tests of the benchmark harness itself, on its smoke sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from measure import NullTracer, Tally, spread  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("space", [
    inputs.chain(1), inputs.chain(7), inputs.x_family(0), inputs.x_family(3),
    inputs.example_3_1(), inputs.cone_over_pseudo_circle(), inputs.sphere_model(4),
    inputs.disjoint_union("u", [inputs.example_3_1(), inputs.chain(3), inputs.chain(2)]),
], ids=lambda s: s.name)
def test_reference_counter_matches_closed_form(space):
    order = reference.Order(inputs.shuffled(space, inputs.rng_for(7, "test")))
    assert order.fixed_point_sets()[0] == space.closed_form


def test_reference_core_and_beats():
    for levels in (2, 5):
        order = reference.Order(inputs.sphere_model(levels))
        assert order.core_size() == 2 * levels and order.is_minimal(order.full)
    order = reference.Order(inputs.shuffled(inputs.chain(9), inputs.rng_for(1, "test")))
    assert order.core_size() == 1
    assert order.labels_of(order.down_beats(order.full)) == {f"c{i}" for i in range(1, 9)}
    with pytest.raises(ValueError):
        reference.Order(inputs.Space("cycle", ("a", "b"), (("a", "b"), ("b", "a"))))


def test_seed_fixes_inputs(tmp_path):
    one = workloads.CorpusSmall(5, True, str(tmp_path))
    two = workloads.CorpusSmall(5, True, str(tmp_path))
    other = workloads.CorpusSmall(6, True, str(tmp_path))
    assert [c.text for c in one.cases] == [c.text for c in two.cases]
    assert [c.text for c in one.cases] != [c.text for c in other.cases]


def test_wrong_program_output_is_counted(tmp_path, monkeypatch):
    wl = workloads.Guard14(1, True, str(tmp_path))
    real = workloads.report.analyze

    def off_by_one(p, max_n=None):
        rep = real(p, max_n=max_n)
        rep.s_f += 1
        return rep

    monkeypatch.setattr(workloads.report, "analyze", off_by_one)
    tally = Tally()
    wl.check_pass(wl.lib_pass(NullTracer()), tally)
    assert tally.failed == len(wl.cases) and tally.attempted == 2 * len(wl.cases)


@pytest.mark.parametrize("workload", ["guard14", "core_large", "corpus_small"])
def test_smoke_run_prints_contract_metrics(workload):
    proc = run_bench("--smoke", "--workload", workload, "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["guard14", "corpus_small"])
def test_smoke_traced_run_prints_layer_metrics(workload):
    proc = run_bench("--smoke", "--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]
    assert result["metrics"]["semiflow.oracle_candidates"]["value"] > 0


def test_guard14_reaches_the_oracle():
    """The full-size guard14 has inputs small enough for the product oracle,
    so the oracle layer is timed on a workload of the contract."""
    spaces = workloads.Guard14.spaces(SimpleNamespace(smoke=False, seed=1, name="guard14"))
    small = [s for s in spaces if s.n <= workloads.ORACLE_GUARD]
    assert small and all(s.closed_form is not None for s in small)
    assert sum(reference.oracle_candidates(reference.Order(s)) for s in small) > 10_000


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = run_bench("--smoke", "--workload", "guard14", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{") and '"correct"' not in proc.stdout


def _result(samples):
    return {"workloads": {"w": {"metrics": {
        "lib_pass_s": {"value": sorted(samples)[len(samples) // 2], "unit": "s",
                       "samples": samples}}}}}


@pytest.mark.parametrize("new, verdict", [
    ([1.0, 1.01, 0.99], "unchanged"),
    ([1.5, 1.52, 1.49], "worse"),
    ([0.7, 0.71, 0.69], "improved"),
    ([0.5, 1.0, 2.0, 1.5], "unresolved"),
])
def test_compare_verdicts(new, verdict):
    contract = {"end_to_end": [{"name": "lib_pass_s", "better": "lower", "bound": 0.2}]}
    lines, verdicts = compare.compare(contract, _result([1.0, 1.02, 0.98]), _result(new))
    assert verdicts == {verdict: 1}
    assert "x base 1" in lines[1]


def test_compare_judges_the_reported_value():
    """The verdict follows the value, as the printed ratio does, even where
    the per-pass samples have another median (a maximum, say)."""
    contract = {"end_to_end": [{"name": "lib_pass_s", "better": "lower", "bound": 0.2}]}
    base, new = _result([1.0, 1.02, 0.98]), _result([1.0, 1.02, 0.98])
    new["workloads"]["w"]["metrics"]["lib_pass_s"]["value"] = 1.5
    lines, verdicts = compare.compare(contract, base, new)
    assert verdicts == {"worse": 1} and "1.500 x base 1" in lines[1]


def test_spread_is_interquartile_share():
    assert spread([1.0]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
