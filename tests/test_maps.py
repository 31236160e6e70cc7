import pytest

import helpers
from finflow import families
from finflow.errors import SizeLimitError
from finflow.maps import MonotoneMap, is_monotone

from helpers import brute_monotone, disjoint_union, fence_homotopic, monotone_self_maps


def test_is_monotone_examples():
    p = families.example_3_1()
    collapse = [p.index_of("D")] * 4 + [p.index_of("E"), p.index_of("F")]
    values = list(range(6))
    for lab in "ABC":
        values[p.index_of(lab)] = p.index_of("D")
    assert is_monotone(p, values)

    a2 = families.antichain(2)
    assert is_monotone(a2, [1, 1])  # any self-map of an antichain

    c3 = families.chain(3)
    assert is_monotone(c3, [0, 0, 2])
    assert not is_monotone(c3, [2, 1, 1])  # 0 <= 1 but images compare the other way


def test_cover_check_matches_all_pairs_oracle():
    spaces = [families.example_3_1(), families.example_2_5(),
              families.random_poset(5, 0.5, 11), families.random_poset(6, 0.3, 12)]
    for p in spaces:
        for f in monotone_self_maps(p, limit=20000):
            assert brute_monotone(p, f.values)
        # mutated tables must classify identically under both checks
        from finflow.prng import Xorshift64Star
        rng = Xorshift64Star(55)
        for _ in range(200):
            values = [rng.next_int(p.n) for _ in range(p.n)]
            assert is_monotone(p, values) == brute_monotone(p, values)


def test_constructor_rejects_bad_maps():
    c3 = families.chain(3)
    with pytest.raises(ValueError):
        MonotoneMap(c3, [2, 1, 1])
    with pytest.raises(ValueError):
        MonotoneMap(c3, [0, 1])
    with pytest.raises(ValueError):
        MonotoneMap(c3, [0, 1, 5])


def test_idempotence_image_fixed_points():
    c3 = families.chain(3)
    ident = MonotoneMap.identity(c3)
    assert ident.below_identity() and ident.is_idempotent()

    slide = MonotoneMap(c3, [0, 0, 1])
    assert not slide.is_idempotent()  # second application moves 2 again

    drop = MonotoneMap(c3, [0, 0, 0])
    assert drop.is_idempotent()

    for n in (0, 1):  # tables too short for itemgetter
        assert MonotoneMap.identity(families.antichain(n)).is_idempotent()
    assert not MonotoneMap(families.antichain(2), [1, 0]).is_idempotent()


def test_strong_deformation_retraction_predicate():
    p = families.example_3_1()
    assert MonotoneMap.identity(p).is_strong_deformation_retraction()
    assert MonotoneMap.from_moves(p, {"B": "D"}).is_strong_deformation_retraction()
    c3 = families.chain(3)
    assert not MonotoneMap(c3, [0, 0, 1]).is_strong_deformation_retraction()


def test_fence_trivial_cases():
    p = families.example_3_1()
    f = MonotoneMap.from_moves(p, {"B": "D"})
    assert fence_homotopic(f, f) == [f]
    ident = MonotoneMap.identity(p)
    fence = fence_homotopic(f, ident, max_steps=1)
    assert fence == [f, ident]  # one comparison: f <= id


def test_minimal_space_rigidity():
    # on a minimal space the only self-map fence-connected to id is id;
    # fence-connectivity is symmetric, and searching from id keeps the
    # explored component tiny
    spaces = [families.pseudo_circle(),
              families.example_2_5().induced(0b01111)[0],
              disjoint_union(families.pseudo_circle(), families.antichain(2))]
    for p in spaces:
        ident = MonotoneMap.identity(p)
        for f in monotone_self_maps(p, limit=100000):
            fence = fence_homotopic(ident, f)
            if f == ident:
                assert fence == [ident]
            else:
                assert fence is None
    # one search from the far end as well, on the smallest space
    pc = families.pseudo_circle()
    swap = MonotoneMap(pc, [1, 0, 3, 2])
    assert fence_homotopic(swap, MonotoneMap.identity(pc)) is None


def test_fence_budget_guard():
    p = families.example_3_1()
    f = MonotoneMap.from_moves(p, {"B": "D"})
    swapped_goal = MonotoneMap.from_moves(p, {"C": "D"})
    with pytest.raises(SizeLimitError):
        fence_homotopic(f, swapped_goal, budget=1)


def test_from_moves_and_as_moves_round_trip():
    p = families.example_3_1()
    moves = {"B": "D", "C": "D"}
    f = MonotoneMap.from_moves(p, moves)
    assert f.as_moves() == moves
    assert MonotoneMap.identity(p).as_moves() == {}


def test_self_maps_need_no_recursion():
    # one search level per element: 1100 levels used to exceed the recursion limit
    assert next(monotone_self_maps(families.antichain(1100))).values == (0,) * 1100


def test_self_maps_draw_candidates_lazily(monkeypatch):
    # the first map takes one candidate per element, not a list of all 1100
    drawn = []
    ascending = helpers._ascending

    def counted(mask):
        for x in ascending(mask):
            drawn.append(x)
            yield x

    monkeypatch.setattr(helpers, "_ascending", counted)
    assert next(monotone_self_maps(families.antichain(1100))).values == (0,) * 1100
    assert drawn == [0] * 1100
