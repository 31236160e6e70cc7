import random
import re

import pytest

from finflow import families, poset, reduction
from finflow.errors import CycleError, SizeLimitError, UnknownLabelError
from finflow.poset import Poset, elements_of, mask_of

from helpers import (brute_height, brute_lower_sets, is_isomorphic, reference_covers,
                     reference_down_rows, reference_heights, reference_is_isomorphic,
                     reference_is_order, reference_subposet, shuffled_relations,
                     top_first, transposed)

EX31_COVERS = {("B", "A"), ("C", "A"), ("D", "B"), ("D", "C"), ("E", "D"), ("F", "D")}


def label_covers(p):
    return {(p.labels[a], p.labels[b]) for a, b in p.covers}


def test_from_relations_recovers_covers():
    p = families.example_3_1()
    assert p.n == 6
    assert label_covers(p) == EX31_COVERS


def test_mixed_relation_lists_close_up():
    # declare only a spanning set of non-cover comparabilities plus covers
    p = Poset.from_relations(
        list("ABCDEF"),
        [("E", "A"), ("F", "A"), ("D", "A"), ("B", "A"), ("C", "A"),
         ("E", "D"), ("F", "D"), ("D", "B"), ("D", "C")])
    q = families.example_3_1()
    assert p == q


def test_singleton_and_empty():
    s = Poset.from_relations(["x"], [])
    assert s.n == 1 and s.down_set(0) == 1 and s.covers == ()
    e = Poset.from_relations([], [])
    assert e.n == 0 and e.height == -1


def cycle_message_labels(err):
    return set(re.findall(r"'([^']*)'", str(err.value)))


def assert_names_cycle(err, pairs):
    """The message names ``a < b``, a given pair, where b reaches a along the pairs."""
    a, b = re.fullmatch(r"'([^']*)' < '([^']*)' and '\2' < '\1'", str(err.value)).groups()
    assert (a, b) in pairs
    above = {}
    for x, y in pairs:
        above.setdefault(x, set()).add(y)
    reached, todo = {b}, [b]
    while todo:
        for y in above.get(todo.pop(), ()):
            if y not in reached:
                reached.add(y)
                todo.append(y)
    assert a in reached


def test_cycle_errors():
    with pytest.raises(CycleError) as err:
        Poset.from_relations(["a", "b"], [("a", "b"), ("b", "a")])
    assert str(err.value) == "'a' < 'b' and 'b' < 'a'"
    with pytest.raises(CycleError):
        Poset.from_relations(["a"], [("a", "a")])
    pairs = [("a", "b"), ("b", "c"), ("c", "a")]
    with pytest.raises(CycleError) as err:
        Poset.from_relations(["a", "b", "c"], pairs)
    assert cycle_message_labels(err) <= {"a", "b", "c"}
    assert_names_cycle(err, pairs)

    # acyclic parts downstream of the cycle come first in the label order
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("f", "a")]
    with pytest.raises(CycleError) as err:
        Poset.from_relations(["d", "e", "f", "a", "b", "c"], pairs)
    assert cycle_message_labels(err) <= {"a", "b", "c"}
    assert_names_cycle(err, pairs)

    # a 50-element cycle hidden among 300 points, fed from below by the low
    # v's and feeding the high v's, which never reach back to it; the high
    # v's come first in the label order
    base = families.random_poset(250, 0.02, 5)
    ring = [f"w{i}" for i in range(50)]
    v = list(base.labels)
    labels = v[200:] + v[:120] + ring[::-1] + v[120:200]
    pairs = [(base.labels[a], base.labels[b]) for a, b in base.covers]
    pairs += [(ring[i], ring[(i + 1) % 50]) for i in range(50)]
    pairs += [(f"v{i}", ring[i % 50]) for i in range(0, 100, 7)]
    pairs += [(ring[i % 50], f"v{i}") for i in range(200, 250, 3)]
    with pytest.raises(CycleError) as err:
        Poset.from_relations(labels, pairs)
    named = cycle_message_labels(err)
    assert len(named) == 2 and named <= set(ring)
    assert_names_cycle(err, pairs)


def test_closure_matches_fixpoint_reference(corpus, shuffled_spaces):
    rng = random.Random(41)
    spaces = [(p.labels, [(p.labels[a], p.labels[b]) for a, b in p.covers])
              for p in corpus] + list(shuffled_spaces)
    for labels, pairs in spaces:
        p = Poset.from_relations(labels, pairs)
        assert list(p._down) == reference_down_rows(labels, pairs)
        assert p.covers == reference_covers(p)
        assert p.heights == reference_heights(p)
        # repeated pairs and pairs implied by transitivity change nothing
        strict = [(p.labels[a], p.labels[b]) for b in range(p.n)
                  for a in elements_of(p.strict_down(b))]
        pairs = pairs + rng.sample(pairs, min(3, len(pairs)))
        pairs += rng.sample(strict, min(5, len(strict)))
        rng.shuffle(pairs)
        q = Poset.from_relations(labels, pairs)
        assert q._down == p._down and list(q._down) == reference_down_rows(labels, pairs)
        if p.n > 1:
            # one extra pair b < a with a <= b closes a cycle
            a = rng.randrange(p.n)
            b = rng.choice(elements_of(transposed(p._down)[a]))
            if a == b:
                continue
            bad = pairs + [(labels[b], labels[a])]
            assert reference_down_rows(labels, bad) is None
            with pytest.raises(CycleError) as err:
                Poset.from_relations(labels, bad)
            assert_names_cycle(err, bad)


def test_covers_from_the_lower_cover_pass(corpus, shuffled_spaces):
    spaces = corpus + [Poset.from_relations(*space) for space in shuffled_spaces]
    # both orders of a long chain: bottom first as generated, and top first
    spaces += [families.chain(1000), top_first(families.chain(1000))]
    # a core is built through Poset._restrict, from the live cover rows
    spaces += [reduction.core(p)[0] for p in spaces]
    for p in spaces:
        ref = reference_covers(p)
        assert p.covers == ref
        # the stored form: each point's lower covers, one ascending tuple,
        # which the pairs, sorted on a first, list in that order
        below = [[] for _ in range(p.n)]
        for a, b in ref:
            below[b].append(a)
        assert p._lower == tuple(map(tuple, below))


def test_cover_search_reads_few_rows_on_bottom_first_labels(monkeypatch):
    # Each element's lower covers are the maximal members of its direct
    # predecessors, visited highest index first.  On a chain each element
    # has one predecessor, so the build reads one row per element in either
    # label order; searching the whole down-set, as the validating
    # constructor does, would read every row below each element on a
    # top-first chain, n(n-1)/2 in all.
    reads = []

    class CountingRows(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)

    real = poset._extremal
    monkeypatch.setattr(poset, "_extremal",
                        lambda down, mask: real(CountingRows(down), mask))
    n = 1000
    c = families.chain(n)
    assert c.covers == tuple((i, i + 1) for i in range(n - 1))
    assert len(reads) <= 2 * n
    reads.clear()
    pairs = [(c.labels[a], c.labels[b]) for a, b in c.covers]
    t = Poset.from_relations(c.labels[::-1], pairs)
    assert t.covers == tuple((i, i - 1) for i in range(1, n))
    assert len(reads) <= 2 * n


def order_tables(p):
    return p.labels, p._down, p.covers, p.heights, p._order


def test_from_relations_matches_the_validating_constructor(corpus, shuffled_spaces):
    rng = random.Random(23)
    c = families.chain(1000)
    spaces = [(p.labels, [(p.labels[a], p.labels[b]) for a, b in p.covers]) for p in corpus]
    spaces += list(shuffled_spaces)
    chain_pairs = [(c.labels[a], c.labels[b]) for a, b in c.covers]
    spaces += [(c.labels, chain_pairs), (c.labels[::-1], chain_pairs)]
    for labels, pairs in spaces:
        p = Poset.from_relations(labels, pairs)
        assert order_tables(p) == order_tables(Poset(p.labels, p._down))
        if not pairs:
            continue
        # Repeated pairs and pairs implied by transitivity add direct
        # predecessors that are not covers; the covers stay the maximal ones.
        implied = []
        for _ in range(min(20, p.n)):
            b = rng.randrange(p.n)
            below = elements_of(p.strict_down(b))
            if below:
                implied.append((p.labels[rng.choice(below)], p.labels[b]))
        noisy = pairs + rng.choices(pairs, k=5) + implied
        rng.shuffle(noisy)
        assert order_tables(Poset.from_relations(labels, noisy)) == order_tables(p)
    for p in corpus:
        # every strict comparability given: each predecessor set is a whole down-set
        strict = [(p.labels[a], p.labels[b]) for b in range(p.n)
                  for a in elements_of(p.strict_down(b))]
        rng.shuffle(strict)
        assert order_tables(Poset.from_relations(p.labels, strict)) == order_tables(p)


def test_induced_matches_the_validating_constructor(corpus, shuffled_spaces):
    rng = random.Random(31)
    spaces = corpus + [Poset.from_relations(*space) for space in shuffled_spaces[:20]]
    spaces += [families.chain(200), top_first(families.chain(200))]
    for p in spaces:
        masks = [0, p.full_mask] + [rng.getrandbits(p.n) for _ in range(3)]
        for mask in masks:
            sub, old = p.induced(mask)
            ref, ref_old = reference_subposet(p, mask)
            assert old == ref_old == tuple(elements_of(mask))
            assert order_tables(sub) == order_tables(ref)


def test_unknown_and_duplicate_labels():
    with pytest.raises(UnknownLabelError, match="unknown label 'b'"):
        Poset.from_relations(["a"], [("a", "b")])
    with pytest.raises(UnknownLabelError, match="unknown label 'x'"):
        Poset.from_relations(["a"], [("x", "a")])
    with pytest.raises(ValueError):
        Poset.from_relations(["a", "a"], [])
    p = families.chain(2)
    with pytest.raises(UnknownLabelError):
        p.index_of("nope")


def test_constructor_rejections():
    with pytest.raises(ValueError) as err:
        Poset(["a", "b"], [0b01])
    assert str(err.value) == "one relation row per label required"
    with pytest.raises(ValueError) as err:
        Poset(["a", "a"], [0b01, 0b10])
    assert str(err.value) == "labels must be distinct"
    with pytest.raises(ValueError) as err:
        Poset(["a", "b"], [0b001, 0b110])
    assert str(err.value) == "relation row references elements out of range"
    with pytest.raises(ValueError) as err:
        Poset(["a", "b"], [0b01, 0b01])
    assert str(err.value) == "order must be reflexive"
    with pytest.raises(CycleError) as err:
        Poset(["a", "b"], [0b11, 0b11])
    assert str(err.value) == "antisymmetry violated at 'a'"
    # a < b < c without a < c
    with pytest.raises(ValueError) as err:
        Poset(["a", "b", "c"], [0b001, 0b011, 0b110])
    assert str(err.value) == "order must be transitive"


def test_constructor_accepts_exactly_the_partial_orders():
    rng = random.Random(17)
    accepted = 0
    for _ in range(3000):
        n = rng.randint(0, 6)
        if rng.random() < 0.5:
            rows = [rng.getrandbits(n) | (1 << x) for x in range(n)]
        else:
            # the closure of a random acyclic relation, then maybe one bit flipped
            perm = rng.sample(range(n), n)
            pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3]
            rows = reference_down_rows(range(n), pairs)
            if n and rng.random() < 0.5:
                rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
        if not reference_is_order(rows):
            with pytest.raises((ValueError, CycleError)):
                Poset(range(n), rows)
            continue
        accepted += 1
        p = Poset(range(n), rows)
        assert p._down == tuple(rows)
        assert p.covers == reference_covers(p)
        assert p.heights == reference_heights(p)
    assert 1000 < accepted < 2500


def test_down_set_examples():
    p = families.example_3_1()
    assert set(p.labels_of(p.down_set(p.index_of("B")))) == {"B", "D", "E", "F"}
    s = Poset.from_relations(["x"], [])
    assert s.down_set(0) == 1
    c = families.chain(3)
    assert elements_of(c.down_set(2)) == [0, 1, 2]


def test_heights_frozen_values():
    p = families.example_3_1()
    expected = {"E": 0, "F": 0, "D": 1, "B": 2, "C": 2, "A": 3}
    for lab, h in expected.items():
        assert p.heights[p.index_of(lab)] == h
    assert p.height == 3
    a = families.antichain(4)
    assert all(h == 0 for h in a.heights)
    c = families.chain(5)
    assert list(c.heights) == [0, 1, 2, 3, 4]


def test_heights_against_subset_oracle():
    spaces = [families.example_3_1(), families.example_2_5(),
              families.realization_family(1)] + \
             [families.random_poset(7, 0.4, seed) for seed in range(5)]
    for p in spaces:
        for x in range(p.n):
            assert p.heights[x] == brute_height(p, x)


def test_height_monotone(corpus):
    for p in corpus[:60]:
        for x in range(p.n):
            for y in elements_of(p.strict_down(x)):
                assert p.heights[y] < p.heights[x]


def test_maximum_of():
    p = families.example_3_1()
    b = p.index_of("B")
    strict = p.strict_down(b)
    assert set(p.labels_of(strict)) == {"D", "E", "F"}


def test_induced_subposet():
    p = families.example_2_5()
    keep = p.full_mask & ~(1 << p.index_of("E"))
    sub, old = p.induced(keep)
    assert sub.labels == ("A", "B", "C", "D")
    assert old == (0, 1, 2, 3)
    assert label_covers(sub) == {("A", "C"), ("A", "D"), ("B", "C"), ("B", "D")}
    assert is_isomorphic(sub, families.pseudo_circle())


def test_lower_sets_and_minimal_open_sets():
    # U_x is the intersection of every lower set containing x
    for p in [families.example_3_1(), families.example_2_5(),
              families.random_poset(6, 0.5, 3)]:
        lowers = brute_lower_sets(p)
        for x in range(p.n):
            meet = p.full_mask
            for mask in lowers:
                if (mask >> x) & 1:
                    meet &= mask
            assert meet == p.down_set(x)


def test_order_topology_dictionary(corpus):
    # y <= x exactly when the minimal open set of y sits inside that of x
    for p in corpus[:40]:
        for x in range(p.n):
            for y in range(p.n):
                contained = p.down_set(y) & ~p.down_set(x) == 0
                assert p.leq(y, x) == contained


def test_closure_idempotence(corpus):
    # rebuilding from all strict comparabilities changes nothing
    for p in corpus[:40]:
        pairs = [(p.labels[a], p.labels[b])
                 for a in range(p.n) for b in range(p.n) if a != b and p.leq(a, b)]
        assert Poset.from_relations(p.labels, pairs) == p


def test_reduction_closure_round_trip(corpus):
    # closure of the transitive reduction recovers the order
    for p in corpus[:40]:
        pairs = [(p.labels[a], p.labels[b]) for a, b in p.covers]
        assert Poset.from_relations(p.labels, pairs) == p


def test_isomorphism_examples():
    c = families.chain(3)
    relabeled = Poset.from_relations(["z", "y", "x"], [("z", "y"), ("y", "x")])
    assert is_isomorphic(c, relabeled)
    assert not is_isomorphic(c, families.antichain(3))
    pc = families.pseudo_circle()
    swapped = Poset.from_relations(
        ["b", "a", "c", "d"],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert is_isomorphic(pc, swapped)


def test_isomorphism_distinguishes_same_profile_spaces():
    p = Poset.from_relations(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "d")])
    q = Poset.from_relations(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert not is_isomorphic(p, q)


def test_isomorphism_size_guard():
    big = families.chain(17)
    with pytest.raises(SizeLimitError, match=r"^isomorphism test limited to 16 elements \(got 17\)$"):
        is_isomorphic(big, big)
    with pytest.raises(SizeLimitError, match=r"\(got 17\)$"):
        is_isomorphic(families.chain(3), big)
    assert is_isomorphic(big, big, max_n=20)


def test_isomorphism_matches_reference():
    rng = random.Random(29)
    # Down-set rows of two pairs of 6-point posets that share their profiles
    # without being isomorphic, so only the search tells them apart: a
    # 6-path against a 4-cycle beside an edge, and a V beside a wedge
    # against a 4-path beside an edge.  Below 6 points no such pair exists.
    twins = [((1, 2, 4, 9, 19, 38), (1, 2, 4, 9, 22, 38)),
             ((1, 2, 4, 9, 17, 38), (1, 2, 4, 9, 18, 37))]

    def random_space(n):
        perm = rng.sample(range(n), n)
        prob = rng.choice((0.2, 0.4, 0.6))
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < prob]
        return Poset(range(n), reference_down_rows(range(n), pairs))

    def relabelled(p):
        sigma = rng.sample(range(p.n), p.n)
        rows = [0] * p.n
        for x in range(p.n):
            rows[sigma[x]] = mask_of(sigma[y] for y in elements_of(p.down_set(x)))
        return Poset(range(p.n), rows)

    answers = []
    for i in range(1500):
        n = rng.randint(0, 6)
        p = random_space(n)
        if i % 4 == 1:
            q = random_space(n)
        elif i % 4 == 3:
            p, q = (relabelled(Poset(range(6), rows)) for rows in rng.choice(twins))
        else:
            q = relabelled(p)
        want = reference_is_isomorphic(p, q)
        assert is_isomorphic(p, q) == want, (p._down, q._down)
        answers.append(want)
    assert answers[::2] == [True] * 750 and answers[3::4] == [False] * 375
    assert 0 < answers[1::4].count(True) < 375


def test_isomorphism_of_long_chains_needs_no_recursion():
    c = families.chain(1100)
    shuffled = Poset.from_relations(*shuffled_relations(c, random.Random(5)))
    assert is_isomorphic(c, shuffled, max_n=1100)
    assert not is_isomorphic(c, families.antichain(1100), max_n=1100)


def test_value_equality_and_hash():
    p = families.example_3_1()
    q = families.example_3_1()
    assert p == q and hash(p) == hash(q)
    assert p != families.chain(6)
