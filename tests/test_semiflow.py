import itertools
import random
from pathlib import Path

import pytest

from finflow import families, poset, reduction, report, semiflow
from finflow.errors import NegativeTimeError, SizeLimitError
from finflow.formats import parse_poset_text
from finflow.maps import MonotoneMap
from finflow.poset import Poset, elements_of, mask_of
from finflow.reduction import down_beat_points, potential_down_beat_points
from finflow.semiflow import (_BLOCK, ENUMERATION_LIMIT, Semiflow, _census, _count_checks,
                              _flow_checks, _law_checks, _max_disjoint, brute_force_oracle,
                              enumerate_semiflows, full_verification, verify_counting_results)

from helpers import (disjoint_union, reference_counting_checks, reference_law_checks,
                     reference_movable, reference_product_oracle, reference_semiflow_tables,
                     shuffled_relations, top_first)

# tables of zero, one and two entries; the floor of chain(2) is one point
SMALL_SPACES = [families.antichain(0), families.chain(1), families.antichain(2), families.chain(2)]

# frozen by hand and confirmed by the brute-force oracle below
EX31_NONTRIVIAL = [
    {"C": "D"},
    {"B": "D"},
    {"B": "D", "C": "D"},
    {"A": "B", "C": "D"},
    {"A": "C", "B": "D"},
    {"A": "D", "B": "D", "C": "D"},
]

CHAIN3_TABLES = [(0, 0, 0), (0, 0, 2), (0, 1, 1), (0, 1, 2)]


def two_chains(k):
    """k disjoint 2-chains b{i} < t{i}: D = R* = A are the k tops, all at height one."""
    labels = [lab for i in range(k) for lab in (f"b{i}", f"t{i}")]
    return Poset.from_relations(labels, [(f"b{i}", f"t{i}") for i in range(k)])


def test_semiflow_validation():
    p = families.example_3_1()
    sf = Semiflow.from_moves(p, {"B": "D"})
    assert sf.moves()
    assert not Semiflow.identity(p).moves()
    c3 = families.chain(3)
    with pytest.raises(ValueError):
        Semiflow(c3, [0, 0, 1])  # not idempotent
    with pytest.raises(ValueError):
        Semiflow(c3, [0, 1, 0])  # idempotent and below the identity, but not monotone
    c2 = families.chain(2)
    with pytest.raises(ValueError):
        Semiflow(c2, [1, 1])  # idempotent, but not below the identity
    with pytest.raises(ValueError):
        Semiflow(p, range(5))  # one entry short


def test_evaluate():
    p = families.example_3_1()
    sf = Semiflow.from_moves(p, {"A": "D", "B": "D", "C": "D"})
    a, d = p.index_of("A"), p.index_of("D")
    assert sf.evaluate(0.5, a) == d
    assert sf.evaluate(0, a) == a
    trivial = Semiflow.identity(p)
    for t in (0, 0.1, 7):
        assert trivial.evaluate(t, a) == a
    for t in (-1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(NegativeTimeError, match="finite non-negative"):
            sf.evaluate(t, a)


def test_at_matches_evaluate(corpus_flows):
    for p, flows in corpus_flows:
        for sf in flows:
            for t in (0, 1e-9, 0.25, 1, 7, 1e300):
                tab = sf.at(t)
                assert len(tab) == p.n
                assert all(tab[x] == sf.evaluate(t, x) for x in range(p.n))
    sf = corpus_flows[0][1][0]
    for t in (-1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(NegativeTimeError) as err:
            sf.at(t)
        assert str(err.value) == "time must be a finite non-negative number"


def test_law_checks_match_reference(corpus_flows):
    spaces = [*SMALL_SPACES, families.chain(14)]
    for p, flows in [*corpus_flows, *((p, enumerate_semiflows(p)) for p in spaces)]:
        assert _law_checks(p, flows) == reference_law_checks(p, flows)


def test_law_checks_catch_broken_flows():
    """Hand-built flows that break the laws; each of the five fails somewhere."""
    c2, c3, a2 = families.chain(2), families.chain(3), families.antichain(2)
    broken = [(c3, [0, 0, 1]), (c3, [1, 1, 2]), (c2, [1, 1]), (c2, [1, 0]), (a2, [1, 0])]
    failed = set()
    for p, values in broken:
        sf = Semiflow._trusted(p, tuple(values))
        for flows in ([sf], enumerate_semiflows(p) + [sf]):
            checks = _law_checks(p, flows)
            assert checks == reference_law_checks(p, flows)
            failed |= {c.name for c in checks if not c.satisfied}
    assert failed == {"semigroup_law", "orbit_containment", "floor_fixed",
                      "time_monotone", "flow_triviality_nonbijective"}


class OneTimeOff(Semiflow):
    """A canonical flow whose state table is ``table`` at time ``time`` only.

    ``at`` builds a fresh tuple at that time on every call.  It overrides
    ``at`` alone: ``Semiflow.evaluate`` reads ``at``, so the table-wise and
    the point-wise checks see one flow.
    """

    __slots__ = ("time", "table")

    def __init__(self, space, values, time, table):
        self.poset, self.values = space, values
        self.time, self.table = time, list(table)

    def at(self, t):
        return tuple(self.table) if t == self.time else super().at(t)


# (time, table, fails): a chain(3) flow whose table is ``table`` at ``time`` only,
# and the laws that it breaks
LAW_CASES = [
    (0.75, (1, 1, 2), "orbit_containment"),  # 0 goes up, only at 0.75
    (3.0, (0, 2, 2), "time_monotone"),  # 1 goes up, only at 3.0
    (0, (0, 0, 1), "semigroup_law time_monotone"),  # time 0 is not the identity
    (0, (1, 1, 2), "semigroup_law orbit_containment floor_fixed"),  # 0 goes up at 0
    (0.25, (0, 0, 0), "time_monotone"),  # time 1 is not below 0.25
    (0.5, (1, 1, 2), "time_monotone"),  # 0 goes up, only at 0.5
    (1, (0, 0, 0), "semigroup_law"),  # time 1 after time 1 is not time 2
    (1, (1, 1, 2), "semigroup_law floor_fixed time_monotone"),  # 0 goes up at 1
    (2, (1, 1, 2), "semigroup_law orbit_containment"),  # 0 goes up, only at 2
    # a bijection at time 1 only: the collapse law reads the time-1 states
    (1, (1, 2, 0), "semigroup_law floor_fixed time_monotone flow_triviality_nonbijective"),
]


@pytest.mark.parametrize("time, table, fails", LAW_CASES)
def test_law_checks_read_every_sample_time(time, table, fails):
    """One flow off at one sample time, alone, first and last among valid flows.

    Every other time reads the flow's own table, equal to many tables the
    checks have passed, so a containment skipped for a pair that is not
    equal to a passed one shows here.
    """
    c3 = families.chain(3)
    for values in ((0, 1, 2), (0, 0, 2)):
        sf = OneTimeOff(c3, values, time, table)
        for flows in ([sf], [sf, *enumerate_semiflows(c3)], [*enumerate_semiflows(c3), sf]):
            checks = _law_checks(c3, flows)
            assert checks == reference_law_checks(c3, flows)
            assert {c.name for c in checks if not c.satisfied} == set(fails.split())


@pytest.mark.parametrize("k, position", enumerate([0, _BLOCK - 1, _BLOCK, None]))
def test_law_checks_at_block_boundaries(k, position):
    """One flow off at one sample time, at either side of a block boundary or last.

    The valid flows fill more than two blocks of ``_law_checks``; each
    position ``k`` runs every fourth case of ``LAW_CASES`` from the ``k``-th,
    so the four positions share the ten cases between them.
    """
    c3 = families.chain(3)
    valid = enumerate_semiflows(c3) * (_BLOCK // 2 + 1)
    for time, table, fails in LAW_CASES[k::4]:
        flows = list(valid)
        flows.insert(len(flows) if position is None else position,
                     OneTimeOff(c3, (0, 0, 2), time, table))
        checks = _law_checks(c3, flows)
        assert checks == reference_law_checks(c3, flows)
        assert {c.name for c in checks if not c.satisfied} == set(fails.split())


def test_law_checks_compose_the_positive_table_after_time_zero():
    """A flow whose time-0 table is not the identity and fails only the last
    clause of ``_law_holds``: its time-1 table after its time-0 table,
    (0, 1, 1), is not its time-1 table (0, 1, 0).
    """
    c3 = families.chain(3)
    sf = OneTimeOff(c3, (0, 1, 0), 0, (0, 1, 1))
    for flows in ([sf], [*enumerate_semiflows(c3), sf]):
        checks = _law_checks(c3, flows)
        assert checks == reference_law_checks(c3, flows)
        assert {c.name for c in checks if not c.satisfied} == {"semigroup_law"}


def law_holds(p, flows, name):
    """The verdict of the law ``name`` of ``_law_checks`` on ``flows``."""
    return {c.name: c.satisfied for c in _law_checks(p, flows)}[name]


def test_semigroup_law_check():
    p = families.example_3_1()
    for sf in enumerate_semiflows(p):
        assert law_holds(p, [sf], "semigroup_law")
    # a non-idempotent time-positive map breaks the law at s, t > 0
    c3 = families.chain(3)
    bogus = Semiflow._trusted(c3, (0, 0, 1))
    assert not law_holds(c3, [bogus], "semigroup_law")
    assert law_holds(c3, [Semiflow.identity(c3)], "semigroup_law")


def test_enumerate_example_3_1_exactly():
    p = families.example_3_1()
    flows = enumerate_semiflows(p)
    assert len(flows) == 7
    moves = [m for m in (sf.moves() for sf in flows) if m]
    assert moves == EX31_NONTRIVIAL
    assert sum(not sf.moves() for sf in flows) == 1


def test_semiflows_are_their_maps(corpus_flows):
    checked = 0
    for p, flows in corpus_flows:
        assert all(isinstance(sf, MonotoneMap) for sf in flows)
        if p.n <= 8:
            oracle = brute_force_oracle(p)
            assert flows == oracle
            assert [hash(sf) for sf in flows] == [hash(m) for m in oracle]
            checked += 1
    assert checked > 100


def test_enumerate_chain3():
    flows = enumerate_semiflows(families.chain(3))
    assert [sf.values for sf in flows] == CHAIN3_TABLES


def test_enumerate_minimal_spaces_trivial_only():
    for p in (families.pseudo_circle(),
              families.example_2_5().induced(0b01111)[0]):
        flows = enumerate_semiflows(p)
        assert len(flows) == 1 and not flows[0].moves()


def test_enumeration_is_canonical():
    for p in (families.example_3_1(), families.realization_family(2),
              families.random_poset(8, 0.35, 99)):
        base = [sf.values for sf in enumerate_semiflows(p)]
        assert base == sorted(base)


def test_oracle_examples():
    p = families.example_3_1()
    assert len(brute_force_oracle(p)) == 7
    singleton = families.chain(1)
    assert [m.values for m in brute_force_oracle(singleton)] == [(0,)]
    two = families.chain(2)
    assert [m.values for m in brute_force_oracle(two)] == [(0, 0), (0, 1)]


def test_oracle_agrees_with_enumerator_on_families(corpus_flows):
    # family corpus here; the full random corpus runs in the acceptance suite
    spaces = [families.example_3_1(), families.example_2_5(),
              families.pseudo_circle(), families.cone(families.pseudo_circle()),
              families.chain(4), families.antichain(4),
              families.realization_family(1), families.realization_family(2)]
    for p in spaces:
        flows = enumerate_semiflows(p)
        assert [sf.values for sf in flows] == \
            [m.values for m in brute_force_oracle(p)]
    for p, flows in corpus_flows[:25]:
        assert [sf.values for sf in flows] == \
            [m.values for m in brute_force_oracle(p)]


def test_oracle_matches_reference_product_filter():
    spaces = list(families.random_corpus(120, 8, 4242)) + SMALL_SPACES
    rng = random.Random(4242)
    for _ in range(80):
        p = families.random_poset(rng.randint(1, 8), rng.random(), rng.getrandbits(32))
        spaces.append(Poset.from_relations(*shuffled_relations(p, rng)))
    for p in spaces:
        assert [m.values for m in brute_force_oracle(p)] == \
            [m.values for m in reference_product_oracle(p)], p.labels


def test_oracle_draws_the_full_product(monkeypatch):
    drawn = 0
    product = itertools.product

    def counted(*pools):
        nonlocal drawn
        for values in product(*pools):
            drawn += 1
            yield values

    monkeypatch.setattr(itertools, "product", counted)
    assert len(brute_force_oracle(families.chain(8))) == 2 ** 7
    assert drawn == 40_320


def test_enumerator_matches_below_identity_listing():
    """Cross-check above the 10-point oracle guard, on 11-14 point inputs.

    chain(11) lists 58 786 maps below the identity; the random inputs are
    kept when their listing stays within 20 000 maps.  Each input but the
    chain also comes with its labels top first.
    """
    seven = families.chain(2)
    for _ in range(6):
        seven = disjoint_union(seven, families.chain(2))
    x4 = families.realization_family(4)
    cases = [(p, reference_semiflow_tables(p, 60_000))
             for p in (families.chain(11), x4, seven, top_first(x4), top_first(seven))]
    randoms = [p for p in families.random_corpus(200, 14, 1) if p.n >= 11]
    cases += [(p, reference_semiflow_tables(p, 20_000))
              for p in randoms + [top_first(p) for p in randoms]]
    cases = [(p, want) for p, want in cases if want is not None]
    assert len(cases) == 5 + 2 * 39
    assert len(cases[2][1]) == len(cases[4][1]) == 2 ** 7
    for p, want in cases:
        assert [sf.values for sf in enumerate_semiflows(p)] == want, p.labels


def test_size_guards():
    big = families.chain(15)
    with pytest.raises(SizeLimitError,
                       match=r"^semiflow enumeration limited to 14 elements \(got 15\)$"):
        enumerate_semiflows(big)
    with pytest.raises(SizeLimitError,
                       match=r"^brute-force oracle limited to 10 elements \(got 11\)$"):
        brute_force_oracle(families.chain(11))
    # overridable
    assert len(brute_force_oracle(families.realization_family(3), max_n=11)) == 5


def test_census():
    p = families.example_3_1()
    c = _census(p)
    assert len(c.flows) == 7 and sum(not sf.moves() for sf in c.flows) == 1
    assert c.down.bit_count() == 2 and c.pot.bit_count() == 3
    assert len(c.flows) >= 2 ** c.down.bit_count()
    assert all(check.satisfied for check in c.checks)

    anti = _census(families.antichain(4))
    assert len(anti.flows) == 1 and anti.down == 0

    x2 = _census(families.realization_family(2))
    assert len(x2.flows) == 4 and x2.down.bit_count() == 1


def test_movable_points():
    p = families.example_3_1()
    assert set(p.labels_of(reference_movable(p))) == {"A", "B", "C"}
    assert reference_movable(families.pseudo_circle()) == 0
    assert verify_counting_results(p)[4] == (
        "movable_equals_potential", True, "movable=['A', 'B', 'C'] potential=['A', 'B', 'C']")


def test_counting_checks_match_reference(corpus_flows):
    spaces = [*SMALL_SPACES, families.chain(14)]
    for p, flows in [*corpus_flows, *((p, enumerate_semiflows(p)) for p in spaces)]:
        assert verify_counting_results(p, flows=flows) == reference_counting_checks(p, flows)


def _count_level(p, s_f):
    return _count_checks(p, s_f, down_beat_points(p), potential_down_beat_points(p, max_n=p.n))


# (space, s_f, |D|, A, k when R* sits at height one): s_f is 2^(n-1) on a
# chain, n + 2 on x_n and the product of the parts' counts on a union
ABOVE_GUARD = [
    (families.chain(15), 2 ** 14, 14, ["c1"], None),
    (families.chain(20), 2 ** 19, 19, ["c1"], None),
    (families.realization_family(5), 5 + 2, 1, ["x0"], None),
    (two_chains(8), 2 ** 8, 8, [f"t{i}" for i in range(8)], 8),
]


@pytest.mark.parametrize("p, s_f, d, a, k", ABOVE_GUARD,
                         ids=["chain15", "chain20", "x_5", "chains2x8"])
def test_count_checks_above_the_enumeration_guard(p, s_f, d, a, k):
    """The count-level lines read a closed-form s_f where no flow can be listed."""
    assert p.n > ENUMERATION_LIMIT
    with pytest.raises(SizeLimitError):
        enumerate_semiflows(p)
    exact = ("not applicable: potential points above height 1" if k is None
             else f"s_f={s_f} vs 2^{k}={2 ** k}")
    assert _count_level(p, s_f) == [
        ("d_empty_iff_single_semiflow", True, f"|D|={d}, s_f={s_f}"),
        ("count_at_least_two_pow_down_beats", True, f"s_f={s_f} vs 2^{d}={2 ** d}"),
        ("count_at_least_two_pow_antichain", True,
         f"s_f={s_f} vs 2^{len(a)}={2 ** len(a)} (A={a})"),
        ("height_one_exact_count", True, exact),
    ]


def test_count_checks_fail_on_a_wrong_count():
    checks = _count_level(two_chains(8), 255)
    assert checks[3] == ("height_one_exact_count", False, "s_f=255 vs 2^8=256")
    assert {c.name for c in checks if not c.satisfied} == {
        "count_at_least_two_pow_down_beats", "count_at_least_two_pow_antichain",
        "height_one_exact_count"}


@pytest.mark.parametrize("p", [families.chain(14), families.realization_family(4), two_chains(7)],
                         ids=["chain14", "x_4", "chains2x7"])
def test_count_and_flow_checks_join_to_the_reference(p):
    flows = enumerate_semiflows(p)
    d, pot = down_beat_points(p), potential_down_beat_points(p)
    assert (_count_checks(p, len(flows), d, pot) + _flow_checks(p, flows, d, pot)
            == reference_counting_checks(p, flows))


def test_counting_checks_catch_broken_flows():
    """Hand-built tables that move a point outside R*, or a non-down-beat point alone.

    Each sits alone, first, last and just past the first block of valid
    flows that fill more than two blocks; the first offending flow and its
    lowest offending point are named.
    """
    v = Poset.from_relations(["a", "b", "c"], [("a", "c"), ("b", "c")])
    ex31 = families.example_3_1()
    assert ex31.labels == ("A", "B", "C", "D", "E", "F")
    cases = [
        # c, above a and b, goes to a: c is not in R* and D is empty
        (v, [(0, 1, 0)], "c"),
        # A goes to B alone, then A goes to C alone: B and C, in D below A, stay
        (ex31, [(1, 1, 2, 3, 4, 5), (2, 1, 2, 3, 4, 5)], "A"),
        # the bottom of a 3-chain goes up: it is outside R* and has nothing below
        (families.chain(3), [(1, 1, 2)], "c0"),
        # both points of an antichain swap: the lower one is named
        (families.antichain(2), [(1, 0)], "a0"),
        # the first flow moves the higher point, the later one the lower
        (families.antichain(2), [(0, 0), (1, 1)], "a1"),
    ]
    failed = set()
    for p, tables, label in cases:
        broken = [Semiflow._trusted(p, values) for values in tables]
        valid = enumerate_semiflows(p)
        valid = valid * (2 * _BLOCK // len(valid) + 1)
        for flows in (broken, [*broken, *valid], [*valid, *broken],
                      [*valid[:_BLOCK + 3], broken[0], *valid[_BLOCK + 3:], *broken[1:]]):
            checks = verify_counting_results(p, flows=flows)
            assert checks == reference_counting_checks(p, flows)
            assert checks[5] == ("moved_nondown_forces_moved_down_below", False,
                                 f"semiflow {broken[0].moves()!r} moves {label!r} alone")
            failed |= {c.name for c in checks[4:] if not c.satisfied}
    assert failed == {"movable_equals_potential", "moved_nondown_forces_moved_down_below"}


def test_height_zero_points_never_move(corpus_flows):
    for p, flows in corpus_flows:
        floor = mask_of(x for x in range(p.n) if p.heights[x] == 0)
        for sf in flows:
            assert sf.moved_points() & floor == 0


def test_max_disjoint_antichain():
    p = families.example_3_1()
    a = _max_disjoint(p, potential_down_beat_points(p))
    assert a.bit_count() == 1
    assert a & potential_down_beat_points(p)

    two = disjoint_union(families.chain(2), families.chain(2))
    a2 = _max_disjoint(two, potential_down_beat_points(two))
    assert {two.labels[x] for x in elements_of(a2)} == {"l_c1", "r_c1"}

    pc = families.pseudo_circle()
    assert _max_disjoint(pc, potential_down_beat_points(pc)) == 0


def test_max_disjoint_antichain_of_many_disjoint_chains():
    # one branch-and-bound level per potential point: 1100 levels deep
    p = two_chains(1100)
    tops = mask_of(p.index_of(f"t{i}") for i in range(1100))
    assert _max_disjoint(p, potential_down_beat_points(p, max_n=p.n)) == tops


def test_flow_triviality():
    for p in (families.example_3_1(), families.pseudo_circle(),
              families.realization_family(3)):
        assert law_holds(p, enumerate_semiflows(p), "flow_triviality_nonbijective")


def test_verify_counting_results_pass_on_fixtures():
    for p in (families.example_3_1(), families.example_2_5(),
              families.realization_family(2), families.chain(3),
              families.cone(families.pseudo_circle())):
        checks = verify_counting_results(p)
        assert all(c.satisfied for c in checks), [c for c in checks if not c.satisfied]


def test_bound_saturation_on_chain3():
    c = _census(families.chain(3))
    assert len(c.flows) == 4 == 2 ** c.down.bit_count()


def test_realization_family_counts():
    for n in range(4):
        p = families.realization_family(n)
        flows = enumerate_semiflows(p)
        assert len(flows) == n + 2
        assert p.labels_of(down_beat_points(p)) == ["x0"]
        pot = {p.labels[x] for x in elements_of(potential_down_beat_points(p))}
        assert pot == {f"x{i}" for i in range(n + 1)}
        # the non-trivial maps drop prefixes x0..xi onto their landings
        expected = [{f"x{j}": f"y{j}" for j in range(i + 1)} for i in range(n + 1)]
        got = [m for m in (sf.moves() for sf in flows) if m]
        assert sorted(got, key=len) == expected


def test_full_verification_all_pass():
    for p in (families.example_3_1(), families.realization_family(1),
              families.cone(families.pseudo_circle()),
              families.random_poset(7, 0.45, 1234), *SMALL_SPACES):
        checks = full_verification(p)
        assert all(c.satisfied for c in checks), [c for c in checks if not c.satisfied]


@pytest.mark.parametrize("module, name, broken, failed, detail", [
    # an empty sequence gives the identity, which moves no potential point
    (reduction, "_witness", lambda p, pot, x: reduction.RemovalSequence(()),
     "potential_witness_retractions",
     "witness sequences yield strong deformation retractions moving the endpoint"),
    # A's witness B, C, A reversed starts at A, which the replay refuses
    (reduction, "_witness",
     lambda p, pot, x, witness=reduction._witness: reduction.RemovalSequence(
         reversed(witness(p, pot, x))),
     "potential_witness_retractions",
     "witness sequences yield strong deformation retractions moving the endpoint"),
    (semiflow, "brute_force_oracle", lambda p: brute_force_oracle(p)[1:],
     "oracle_agreement", "enumerator=7 maps, oracle=6 maps"),
], ids=["witness", "reversed-witness", "oracle"])
def test_cross_checks_fail_on_a_broken_reference(monkeypatch, module, name, broken, failed,
                                                 detail):
    monkeypatch.setattr(module, name, broken)
    checks = {c.name: c for c in full_verification(families.example_3_1())}
    assert checks.pop(failed) == (failed, False, detail)
    assert all(c.satisfied for c in checks.values())


def test_time_monotonicity(corpus_flows):
    for p, flows in corpus_flows[:60]:
        for sf in flows:
            for s, t in ((0, 0.5), (0.1, 4.0)):
                for x in range(p.n):
                    assert p.leq(sf.evaluate(t, x), sf.evaluate(s, x))


def test_one_removal_search_per_call(monkeypatch):
    calls = []
    real = reduction.potential_down_beat_points

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reduction, "potential_down_beat_points", counted)
    for p in (families.example_3_1(), families.realization_family(2)):
        calls.clear()
        full_verification(p)
        assert len(calls) == 1
        calls.clear()
        report.analyze(p)
        assert len(calls) == 1


def test_witnesses_replay_on_one_build_of_the_cover_rows(monkeypatch):
    builds = []

    def counted(p):
        builds.append(p)
        return poset._cover_rows(p)

    monkeypatch.setattr(reduction, "_cover_rows", counted)
    monkeypatch.setattr(semiflow, "_cover_rows", counted)
    p = families.example_3_1()
    assert reduction.potential_down_beat_points(p).bit_count() == 3
    assert all(c.satisfied for c in full_verification(p))
    # one build for the witnesses and one for the core check
    assert len(builds) == 2


def test_census_readers_agree(corpus_flows):
    """analyze, verify and the counting checks read one census, so they agree."""
    golden = Path(__file__).parent / "golden"
    spaces = [p for p, _ in corpus_flows]
    spaces += [parse_poset_text(path.read_text()) for path in sorted(golden.glob("*.txt"))]
    assert len(spaces) == 200 + 6
    for p in spaces:
        counting = verify_counting_results(p)
        assert len(counting) == 6
        assert [(c["name"], c["satisfied"], c["detail"])
                for c in report.analyze(p).bounds_checked] == counting
        assert full_verification(p)[:6] == counting
        assert verify_counting_results(p, flows=enumerate_semiflows(p)) == counting
