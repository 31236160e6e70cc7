import random

import pytest

from finflow import families, reduction
from finflow.errors import InvalidSequenceError, SizeLimitError
from finflow.poset import Poset, elements_of, mask_of
from finflow.reduction import (RemovalSequence, beat_points, core,
                               down_beat_points, is_minimal_space,
                               potential_down_beat_points,
                               removal_sequence_for, retraction_from_sequence,
                               up_beat_points, validate_removal_sequence)

from helpers import (brute_down_beats, brute_up_beats, disjoint_union, is_isomorphic,
                     reference_core, reference_movable, reference_removal_search,
                     reference_subposet, shuffled_relations, sphere_model, top_first, transposed)


def labset(p, mask):
    return set(p.labels_of(mask))


def test_down_beat_examples():
    p = families.example_3_1()
    assert labset(p, down_beat_points(p)) == {"B", "C"}
    q = families.example_2_5()
    assert labset(q, down_beat_points(q)) == {"E"}
    assert down_beat_points(families.antichain(5)) == 0


def test_up_beat_points_from_definition():
    # B and C only sit under A, so their strict up-sets have a minimum too
    p = families.example_3_1()
    assert labset(p, up_beat_points(p)) == {"B", "C", "E", "F"}
    q = families.example_2_5()
    assert labset(q, up_beat_points(q)) == {"C"}


def test_beat_points_against_definition_oracle(corpus, shuffled_spaces):
    spaces = list(corpus[:60]) + [Poset.from_relations(*s) for s in shuffled_spaces]
    for p in spaces:
        assert set(elements_of(down_beat_points(p))) == brute_down_beats(p)
        assert set(elements_of(up_beat_points(p))) == brute_up_beats(p)
    # in natural order every point of a chain but the bottom covers its
    # predecessor, and every point but the top is covered by its successor
    chain = families.chain(1000)
    assert down_beat_points(chain) == chain.full_mask & ~1
    assert up_beat_points(chain) == chain.full_mask >> 1


def test_minimality():
    q = families.example_2_5()
    sub, _ = q.induced(q.full_mask & ~(1 << q.index_of("E")))
    assert is_minimal_space(sub)
    assert not is_minimal_space(q)
    assert is_minimal_space(Poset.from_relations(["x"], []))
    assert is_minimal_space(families.pseudo_circle())


def test_down_cover(corpus, shuffled_spaces):
    # with every point fixed, each point's value is itself
    def down_cover(p, x):
        return reduction._max_below(p._down, range(p.n), p._lower[x])

    p = families.example_3_1()
    assert p.labels[down_cover(p, p.index_of("B"))] == "D"
    q = families.example_2_5()
    assert q.labels[down_cover(q, q.index_of("E"))] == "C"
    assert down_cover(p, p.index_of("E")) is None  # minimal element
    assert down_cover(p, p.index_of("A")) is None  # two maximal elements below

    # the definition: the member of F strictly below x whose down-set holds all of them
    def reference_cover(p, x, fixed):
        s = p.strict_down(x) & fixed
        return next((m for m in elements_of(s) if s & ~p.down_set(m) == 0), None)

    rng = random.Random(19)
    chain = families.chain(200)
    spaces = list(corpus) + [Poset.from_relations(*s) for s in shuffled_spaces]
    spaces += [chain, top_first(chain)]
    found = 0
    for p in spaces:
        for _ in range(3):
            # A random F, joined in scan order by each point with no maximum
            # of F strictly below it, so that every point's value, the
            # maximum of F at or below it, exists when a point above reads it.
            fixed = rng.getrandbits(p.n) | rng.getrandbits(p.n)
            value = list(range(p.n))
            for x in p._order:
                want = reference_cover(p, x, fixed)
                assert reduction._max_below(p._down, value, p._lower[x]) == want
                found += want is not None
                if want is None:
                    fixed |= 1 << x
                elif not fixed >> x & 1:
                    value[x] = want
    assert found > 1000


def test_core_examples():
    q = families.example_2_5()
    c, trace = core(q)
    assert c.n == 4
    assert is_isomorphic(c, families.pseudo_circle())
    assert beat_points(c) == 0

    contractible = families.cone(families.pseudo_circle())
    c2, trace2 = core(contractible)
    assert c2.n == 1
    assert len(trace2) == 4

    pc = families.pseudo_circle()
    c3, trace3 = core(pc)
    assert c3 == pc and trace3 == []


def test_core_is_minimal_on_corpus(corpus):
    for p in corpus[:80]:
        c, trace = core(p)
        assert beat_points(c) == 0
        assert c.n + len(trace) == p.n


def test_core_unique_up_to_isomorphism(corpus):
    # removing beat points in the opposite order must give the same core
    # with the beat test read from the definition on each live subspace
    def core_highest_first(p):
        alive = p.full_mask
        while True:
            sub, old = reference_subposet(p, alive)
            beats = brute_down_beats(sub) | brute_up_beats(sub)
            if not beats:
                return sub
            alive &= ~(1 << old[max(beats)])

    spaces = [families.example_3_1(), families.example_2_5(),
              families.cone(families.pseudo_circle())] + list(corpus[:40])
    for p in spaces:
        a, _ = core(p)
        b = core_highest_first(p)
        assert is_isomorphic(a, b)


def test_core_matches_rescan_reference(corpus, shuffled_spaces):
    # deleting points of the cone and of x_n links covers across them
    spaces = list(corpus) + [Poset.from_relations(*s) for s in shuffled_spaces]
    spaces += [families.cone(families.pseudo_circle())]
    spaces += [families.realization_family(n) for n in range(7)]
    for p in spaces:
        c, trace = core(p)
        assert (c.labels, trace) == reference_core(p)


def test_core_of_thousand_points():
    rng = random.Random(1000)
    chain = families.chain(1000)
    shuffled_chain = Poset.from_relations(*shuffled_relations(chain, rng))
    # every point of a chain is a beat point, so the lowest index always goes
    for p in (chain, shuffled_chain):
        c, trace = core(p)
        assert c.labels == p.labels[-1:] and trace == list(range(999))
    sparse = Poset.from_relations(
        *shuffled_relations(families.random_poset(1000, 0.005, 3), rng))
    c, trace = core(sparse)
    assert (c.labels, trace) == reference_core(sparse)
    # a pendant point under a 1000-point sphere model, labels top first: the
    # pendant is the one beat point, and the core is the rest of the space
    sphere = sphere_model(500)
    pairs = [(sphere.labels[a], sphere.labels[b]) for a, b in sphere.covers]
    p = top_first(Poset.from_relations(sphere.labels + ("pend",), pairs + [("pend", "s0a")]))
    c, trace = core(p)
    assert trace == [p.index_of("pend")]
    sub, _ = reference_subposet(p, p.full_mask & ~(1 << trace[0]))
    assert (c.labels, c._down, c.covers, c.heights, c._order) == \
        (sub.labels, sub._down, sub.covers, sub.heights, sub._order)


def test_beats_and_core_are_dual(corpus, shuffled_spaces):
    """p and its opposite p^op, whose rows are the transposed rows of p.

    Reversing the order swaps down and up beat points, and ``core`` always
    deletes the lowest-index beat point, so both spaces give one trace, one
    set of core labels and transposed core rows.  The up side of p is read
    through the down side of p^op, exactly and at any size.
    """
    chain = families.chain(1000)
    spaces = list(corpus) + [Poset.from_relations(*s) for s in shuffled_spaces]
    for p in spaces + [chain, top_first(chain)]:
        op = Poset(p.labels, transposed(p._down))
        assert up_beat_points(p) == down_beat_points(op)
        assert down_beat_points(p) == up_beat_points(op)
        (c, trace), (c_op, trace_op) = core(p), core(op)
        assert (trace, c.labels) == (trace_op, c_op.labels)
        assert transposed(c._down) == list(c_op._down)


def test_core_without_beat_points_returns_the_space():
    pc = families.pseudo_circle()
    c, trace = core(pc)
    assert c is pc and trace == []


def test_core_tests_only_the_neighbours_of_removed_points(monkeypatch):
    # After one first test of every point in each direction, a deletion
    # tests only the live covers of the deleted point again, at least one
    # since it is a beat point; on these inputs that stays within 3n tested
    # points.  Testing every live point after each deletion would take
    # about n per deletion.
    tested = []
    real = reduction._single
    monkeypatch.setattr(reduction, "_single",
                        lambda rows, points: real(rows, tested.extend(points) or points))
    rng = random.Random(300)
    sparse = Poset.from_relations(
        *shuffled_relations(families.random_poset(300, 0.02, 11), rng))
    for p in (families.chain(300), sparse):
        tested.clear()
        _, trace = core(p)
        assert len(trace) > 50
        assert len(trace) <= len(tested) - 2 * p.n <= 3 * p.n


def test_potential_down_beat_points_examples():
    p = families.example_3_1()
    assert labset(p, potential_down_beat_points(p)) == {"A", "B", "C"}
    q = families.example_2_5()
    assert labset(q, potential_down_beat_points(q)) == {"E"}
    assert potential_down_beat_points(families.antichain(4)) == 0


def test_potential_strict_mode_is_a_subset(corpus):
    for p in corpus[:60]:
        loose = potential_down_beat_points(p)
        strict = mask_of(reference_removal_search(p, strict_heights=True))
        assert strict & ~loose == 0
    p = families.example_3_1()
    assert mask_of(reference_removal_search(p, strict_heights=True)) == \
        potential_down_beat_points(p)


def test_every_down_beat_is_potential(corpus):
    for p in corpus[:80]:
        assert down_beat_points(p) & ~potential_down_beat_points(p) == 0


def test_potential_point_has_down_beat_at_or_below(corpus):
    for p in corpus[:80]:
        d = down_beat_points(p)
        for x in elements_of(potential_down_beat_points(p)):
            assert (1 << x) & d or p.strict_down(x) & d


def test_removal_sequence_for():
    p = families.example_3_1()
    seq = removal_sequence_for(p, p.index_of("A"))
    assert seq is not None
    assert p.labels[seq.points[-1]] == "A"
    validate_removal_sequence(p, seq)

    assert removal_sequence_for(p, p.index_of("D")) is None
    assert removal_sequence_for(p, p.index_of("E")) is None

    b = p.index_of("B")
    seq_b = removal_sequence_for(p, b)
    assert seq_b.points == (b,)  # a down beat point witnesses itself
    assert [p.heights[x] for x in seq_b] == [2]


@pytest.mark.parametrize("y", [-1, 4, 99])
def test_removal_sequence_for_refuses_points_out_of_range(y):
    p = families.chain(4)
    with pytest.raises(ValueError, match=rf"^index {y} out of range$"):
        removal_sequence_for(p, y)
    # c0 is a real point that no semiflow moves
    assert removal_sequence_for(p, p.index_of("c0")) is None


def test_removal_sequence_is_a_tuple_of_points():
    seq = RemovalSequence([4, 1, 3])
    assert len(seq) == 3 and seq.points == (4, 1, 3)
    assert seq == (4, 1, 3) and hash(seq) == hash((4, 1, 3))
    assert not RemovalSequence(())
    with pytest.raises(TypeError):
        seq[0] = 2
    with pytest.raises(AttributeError):
        seq.points = (2,)
    assert repr(seq) == "RemovalSequence((4, 1, 3))"


def test_validate_removal_sequence_errors():
    p = families.example_3_1()
    b, c, a = (p.index_of(l) for l in "BCA")
    validate_removal_sequence(p, RemovalSequence((b, c, a)))
    with pytest.raises(InvalidSequenceError):
        validate_removal_sequence(p, RemovalSequence((a,)))  # not a beat yet
    with pytest.raises(InvalidSequenceError):
        validate_removal_sequence(p, RemovalSequence((b, b)))
    c3 = families.chain(3)
    validate_removal_sequence(c3, RemovalSequence((2,)))
    with pytest.raises(InvalidSequenceError, match=r"nondecreasing \(step 2\)"):
        validate_removal_sequence(c3, RemovalSequence((2, 1)))  # heights 2, then 1
    with pytest.raises(InvalidSequenceError, match="^index 5 out of range$"):
        validate_removal_sequence(c3, (5,))


def test_retraction_from_sequence_examples():
    p = families.example_3_1()
    b, c, a = (p.index_of(l) for l in "BCA")
    r1 = retraction_from_sequence(p, RemovalSequence((b,)))
    assert r1.as_moves() == {"B": "D"}

    r2 = retraction_from_sequence(p, RemovalSequence((b, c, a)))
    assert r2.as_moves() == {"B": "D", "C": "D", "A": "D"}

    r0 = retraction_from_sequence(p, RemovalSequence(()))
    assert r0.as_moves() == {}

    with pytest.raises(InvalidSequenceError):
        retraction_from_sequence(p, RemovalSequence((a,)))


def test_witness_retractions_are_strong_deformation_retractions(corpus):
    for p in corpus[:60] + [top_first(p) for p in corpus[:60]]:
        for x in elements_of(potential_down_beat_points(p)):
            seq = removal_sequence_for(p, x)
            r = retraction_from_sequence(p, seq)
            assert r.is_strong_deformation_retraction()
            assert r.values[x] != x


def test_search_size_guard():
    big = families.chain(17)
    with pytest.raises(SizeLimitError, match=r"^removal search limited to 16 elements \(got 17\)$"):
        potential_down_beat_points(big)
    assert potential_down_beat_points(big, max_n=17) == mask_of(range(1, 17))


def test_long_witness_needs_no_recursion():
    # every point of chain(1100) but the bottom lies below the top and moves
    p = families.chain(1100)
    top = p.n - 1
    seq = removal_sequence_for(p, top, max_n=p.n)
    assert len(seq) == 1099 and seq.points[-1] == top
    validate_removal_sequence(p, seq)


def test_potential_points_of_many_disjoint_chains():
    # 2^1100 removal states are reachable here; the scan visits each point once
    labels, pairs = [], []
    for i in range(1100):
        labels += [f"b{i}", f"t{i}"]
        pairs.append((f"b{i}", f"t{i}"))
    p = Poset.from_relations(labels, pairs)
    pot = potential_down_beat_points(p, max_n=p.n)
    assert pot == mask_of(p.index_of(f"t{i}") for i in range(1100))


def test_scan_matches_removal_search_and_movable_points():
    spaces = (list(families.random_corpus(400, 12, 7))
              + list(families.random_corpus(200, 16, 9))
              + list(families.random_corpus(300, 14, 3)))
    spaces += [families.example_3_1(), families.example_2_5(), families.pseudo_circle(),
               families.cone(families.pseudo_circle()), families.realization_family(4),
               families.chain(14), families.random_poset(16, 0.25, 5)]
    assert any(p.n == reduction.SEARCH_LIMIT for p in spaces)
    for p in spaces:
        pot = potential_down_beat_points(p)
        assert pot == mask_of(reference_removal_search(p))
        if p.n <= 14:
            assert pot == reference_movable(p)
        for x in elements_of(pot):
            seq = removal_sequence_for(p, x)
            r = retraction_from_sequence(p, seq)  # validates the sequence
            assert seq.points[-1] == x and r.values[x] != x
            assert r.is_strong_deformation_retraction()


def test_two_disjoint_chains_potential():
    p = disjoint_union(families.chain(2), families.chain(2))
    tops = {p.labels[x] for x in elements_of(potential_down_beat_points(p))}
    assert tops == {"l_c1", "r_c1"}


def test_strict_mode_distinguishing_witness():
    # t becomes removable only after both equal-height gates g1, g2 are
    # gone, so the strict reading misses it while some semiflow moves it
    p = Poset.from_relations(
        ["m1", "m2", "g1", "g2", "h", "t"],
        [("m1", "g1"), ("m2", "g2"), ("m1", "h"), ("m2", "h"),
         ("g1", "t"), ("g2", "t"), ("h", "t")])
    loose = potential_down_beat_points(p)
    strict = mask_of(reference_removal_search(p, strict_heights=True))
    assert set(p.labels_of(loose)) == {"g1", "g2", "t"}
    assert set(p.labels_of(strict)) == {"g1", "g2"}
    assert reference_movable(p) == loose

    seq = removal_sequence_for(p, p.index_of("t"))
    assert [p.labels[i] for i in seq.points] == ["g1", "g2", "t"]
    assert p.index_of("t") not in reference_removal_search(p, strict_heights=True)
    r = retraction_from_sequence(p, seq)
    assert r.as_moves() == {"g1": "m1", "g2": "m2", "t": "h"}
    assert r.is_strong_deformation_retraction()
