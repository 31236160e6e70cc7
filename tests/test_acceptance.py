"""Acceptance suite: one test per criterion, run with -v for the scoreboard.

Each test prints its own PASS line (visible with -s or -rA) after every
assertion has held at the stated tolerance; every count here is exact.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from finflow import cli, families
from finflow.formats import (parse_poset_json, parse_poset_text,
                             write_poset_json, write_poset_text)
from finflow.poset import Poset, elements_of, mask_of
from finflow.prng import Xorshift64Star
from finflow.reduction import core, down_beat_points, potential_down_beat_points
from finflow.semiflow import _law_checks, _max_disjoint, brute_force_oracle, enumerate_semiflows

EX31_NONTRIVIAL = [
    {"C": "D"},
    {"B": "D"},
    {"B": "D", "C": "D"},
    {"A": "B", "C": "D"},
    {"A": "C", "B": "D"},
    {"A": "D", "B": "D", "C": "D"},
]


def _ok(n, text):
    print(f"ACCEPTANCE {n:02d} {text}: PASS")


def test_c01_example_3_1_count():
    started = time.perf_counter()
    p = families.example_3_1()
    flows = enumerate_semiflows(p)
    assert len(flows) == 7
    nontrivial = [m for m in (sf.moves() for sf in flows) if m]
    assert len(nontrivial) == 6
    assert nontrivial == EX31_NONTRIVIAL
    oracle = brute_force_oracle(p)
    assert [sf.values for sf in flows] == [m.values for m in oracle]
    assert time.perf_counter() - started < 1.0
    _ok(1, "example_3_1 has exactly 7 semiflows (6 non-trivial)")


def test_c02_realization_family():
    started = time.perf_counter()
    for n in range(4):
        p = families.realization_family(n)
        assert len(enumerate_semiflows(p)) == n + 2
        assert p.labels_of(down_beat_points(p)) == ["x0"]
        pot = {p.labels[x] for x in elements_of(potential_down_beat_points(p))}
        assert pot == {f"x{i}" for i in range(n + 1)}
    assert time.perf_counter() - started < 5.0
    _ok(2, "x_n family counts n+2 with D={x0} for n in 0..3")


def test_c03_minimal_space_triviality():
    pc = families.pseudo_circle()
    assert len(enumerate_semiflows(pc)) == 1
    q = families.example_2_5()
    sub, _ = q.induced(q.full_mask & ~(1 << q.index_of("E")))
    assert len(enumerate_semiflows(sub)) == 1
    _ok(3, "minimal spaces carry only the trivial semiflow")


def test_c04_emptiness_equivalence(corpus_flows):
    started = time.perf_counter()
    for p, flows in corpus_flows:
        assert (down_beat_points(p) == 0) == (len(flows) == 1)
    assert time.perf_counter() - started < 60.0
    _ok(4, "D(X) empty iff S_F(X)=1 on 200 random posets")


def test_c05_lower_bounds(corpus_flows):
    for p, flows in corpus_flows:
        s_f = len(flows)
        assert s_f >= 2 ** down_beat_points(p).bit_count()
        assert s_f >= 2 ** _max_disjoint(p, potential_down_beat_points(p)).bit_count()
    saturated = families.chain(3)
    assert len(enumerate_semiflows(saturated)) == 4 == \
        2 ** down_beat_points(saturated).bit_count()
    _ok(5, "S_F >= 2^|D| and 2^|A| with saturation on the 3-chain")


def _random_height_one_poset(rng):
    bottoms = 1 + rng.next_int(4)
    tops = 1 + rng.next_int(4)
    labels = [f"b{i}" for i in range(bottoms)] + [f"t{j}" for j in range(tops)]
    pairs = []
    for j in range(tops):
        for i in range(bottoms):
            if rng.next_int(2):
                pairs.append((f"b{i}", f"t{j}"))
    return Poset.from_relations(labels, pairs)


def test_c06_height_one_exactness():
    rng = Xorshift64Star(424242)
    for _ in range(100):
        p = _random_height_one_poset(rng)
        assert p.height <= 1
        d = down_beat_points(p)
        assert potential_down_beat_points(p) == d
        assert len(enumerate_semiflows(p)) == 2 ** d.bit_count()
    _ok(6, "height-1 spaces have exactly 2^|D| semiflows (100 cases)")


def test_c07_movability_equivalence(corpus_flows):
    for p, flows in corpus_flows:
        moved = 0
        for sf in flows:
            moved |= sf.moved_points()
        assert moved == potential_down_beat_points(p)
    _ok(7, "movable points = potential down beat points on the corpus")


def test_c08_forced_down_beat_movement(corpus_flows):
    for p, flows in corpus_flows:
        d = down_beat_points(p)
        for sf in flows:
            moved = sf.moved_points()
            for x in elements_of(moved & ~d):
                assert p.strict_down(x) & d & moved
    _ok(8, "every moved non-down-beat sits above a moved down beat")


def test_c09_flow_triviality(corpus_flows):
    for p, flows in corpus_flows:
        for sf in flows:
            if sf.moves():
                assert len(set(sf.values)) < p.n
        assert _law_checks(p, flows)[4][:2] == ("flow_triviality_nonbijective", True)
    _ok(9, "non-trivial semiflow maps are never bijective")


def test_c10_structural_laws(corpus_flows):
    for p, flows in corpus_flows:
        assert _law_checks(p, flows)[0][:2] == ("semigroup_law", True)
        floor = mask_of(x for x in range(p.n) if p.heights[x] == 0)
        for sf in flows:
            for x in range(p.n):
                for t in (0, 0.5, 3.0):
                    assert (p.down_set(x) >> sf.evaluate(t, x)) & 1
            assert sf.moved_points() & floor == 0
            for s, t in ((0, 0.5), (0.25, 2.0)):
                for x in range(p.n):
                    assert p.leq(sf.evaluate(t, x), sf.evaluate(s, x))
    _ok(10, "semigroup law, orbits, floor fixedness, time monotonicity")


def test_c11_oracle_equivalence(corpus_flows):
    for p, flows in corpus_flows:
        assert [sf.values for sf in flows] == \
            [m.values for m in brute_force_oracle(p)]
    _ok(11, "enumerator matches the brute-force oracle on the corpus")


def test_c12_contractible_without_semiflows():
    p = families.cone(families.pseudo_circle())
    assert down_beat_points(p) == 0
    c, _ = core(p)
    assert c.n == 1
    assert len(enumerate_semiflows(p)) == 1
    _ok(12, "cone over the pseudo-circle: singleton core, S_F=1")


def test_c13_io_and_cli(tmp_path):
    # lossless round-trips
    for p in (families.example_3_1(), families.realization_family(2),
              families.antichain(3)):
        assert parse_poset_text(write_poset_text(p)) == p
        assert parse_poset_json(write_poset_json(p)) == p

    # `verify` exits 0 on the built-in corpus
    specs = [("chain", ["--n", "4"]), ("antichain", ["--n", "3"]),
             ("example_3_1", []), ("example_2_5", []), ("pseudo_circle", []),
             ("cone", []), ("x_n", ["--n", "3"]),
             ("random", ["--n", "8", "--p", "0.4", "--seed", "17"])]
    for kind, extra in specs:
        path = tmp_path / f"{kind}.txt"
        assert cli.run_cli(["gen", kind, *extra, "-o", str(path)]) == 0
        assert cli.run_cli(["verify", str(path)]) == 0
    assert cli.run_cli(["random-suite", "--count", "10", "--max-n", "7",
                        "--seed", "23"]) == 0

    # byte-identical stdout from fresh interpreters across hash seeds
    listing = tmp_path / "ex31.txt"
    listing.write_text(write_poset_text(families.example_3_1()))
    src = str(Path(cli.__file__).parents[1])
    for args in (["semiflows", str(listing), "--list"], ["verify", str(listing)]):
        outputs = {subprocess.run(
            [sys.executable, "-m", "finflow.cli", *args], capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1", "2")}
        assert len(outputs) == 1
    _ok(13, "round-trips lossless, verify green, stdout stable across hash seeds")
