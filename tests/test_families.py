import pytest

from finflow import families
from finflow.errors import InvalidSpecError
from finflow.prng import Xorshift64Star
from finflow.reduction import (beat_points, core, down_beat_points,
                               is_minimal_space)

from helpers import is_isomorphic


def test_chain_and_antichain_shapes():
    c = families.chain(4)
    assert c.n == 4 and len(c.covers) == 3 and c.height == 3
    a = families.antichain(3)
    assert a.n == 3 and a.covers == () and a.height == 0
    assert families.chain(0).n == 0
    assert families.chain(1).n == 1
    for build in (families.chain, families.antichain):
        with pytest.raises(InvalidSpecError, match=r"needs n >= 0"):
            build(-1)


def test_named_spaces():
    p = families.example_3_1()
    assert p.n == 6 and p.labels == tuple("ABCDEF")
    q = families.example_2_5()
    assert q.n == 5
    assert q.labels_of(down_beat_points(q)) == ["E"]
    sub, _ = q.induced(q.full_mask & ~(1 << q.index_of("E")))
    assert is_minimal_space(sub)
    pc = families.pseudo_circle()
    assert pc.n == 4 and is_minimal_space(pc)


def test_cone():
    two = families.cone(families.chain(1))
    assert two.height == 1 and two.n == 2

    v = families.cone(families.antichain(2))
    assert v.n == 3
    assert down_beat_points(v) == 0  # the apex sits over an antichain

    contractible = families.cone(families.pseudo_circle())
    assert down_beat_points(contractible) == 0
    c, _ = core(contractible)
    assert c.n == 1

    # label collision gets primed
    named = families.cone(families.cone(families.antichain(1)))
    assert "top'" in named.labels


def test_realization_family_structure():
    for n in range(4):
        p = families.realization_family(n)
        assert p.n == 3 * n + 2
        assert p.labels_of(down_beat_points(p)) == ["x0"]
    with pytest.raises(InvalidSpecError):
        families.realization_family(-1)


def test_random_poset_extremes():
    n = 6
    flat = families.random_poset(n, 0.0, 7)
    assert flat.covers == () and is_isomorphic(flat, families.antichain(n))
    chainlike = families.random_poset(n, 1.0, 7)
    assert chainlike.height == n - 1 and is_isomorphic(chainlike, families.chain(n))


def test_random_poset_reproducible():
    a = families.random_poset(8, 0.37, 991)
    b = families.random_poset(8, 0.37, 991)
    assert a == b
    c = families.random_poset(8, 0.37, 992)
    assert a != c  # overwhelmingly likely and pinned by the fixed generator


def test_random_corpus_shape():
    corpus = list(families.random_corpus(25, 9, 5))
    assert len(corpus) == 25
    assert all(1 <= p.n <= 9 for p in corpus)
    assert corpus == list(families.random_corpus(25, 9, 5))


def test_random_corpus_is_lazy(monkeypatch):
    built = []
    build = families.random_poset

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(families, "random_poset", counted)
    corpus = families.random_corpus(1000, 9, 5)
    assert built == []
    first = next(corpus)
    assert len(built) == 1 and first == build(*built[0])
    # the sizes are checked at the call, before anything is drawn
    with pytest.raises(InvalidSpecError, match=r"count >= 0 \(got -1\)"):
        families.random_corpus(-1, 5, 0)
    with pytest.raises(InvalidSpecError, match=r"max_n >= 1 \(got 0\)"):
        families.random_corpus(3, 0, 0)


def test_prng_is_pinned():
    # first outputs of the documented recurrence from seed 1, transcribed by
    # hand from the docstring formula; guards against drift
    rng = Xorshift64Star(1)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
    ]
    zero = Xorshift64Star(0)
    nonzero = Xorshift64Star(0x9E3779B97F4A7C15)
    assert zero.next_u64() == nonzero.next_u64()
    f = Xorshift64Star(3).next_float()
    assert 0.0 <= f < 1.0


def test_generator_spec_validation():
    with pytest.raises(InvalidSpecError):
        families.make("moebius")
    with pytest.raises(InvalidSpecError):
        families.make("chain")
    with pytest.raises(InvalidSpecError):
        families.make("random", n=4, edge_prob=1.5)
    with pytest.raises(InvalidSpecError):
        families.make("x_n", n=-2)


def test_make_dispatch_and_purity():
    spec = {"n": 7, "seed": 11, "edge_prob": 0.3}
    assert families.make("random", **spec) == families.make("random", **spec)
    assert families.make("example_3_1") == families.example_3_1()
    assert families.make("x_n", n=2) == families.realization_family(2)
    assert families.make("cone") == families.cone(families.pseudo_circle())
    assert families.make("chain", n=3) == families.chain(3)


def test_make_builds_every_kind():
    for kind in families.KINDS:
        assert families.make(kind, n=3).n > 0


def test_x3_matches_description_behaviourally():
    # the exact diagram is validated through D, potential set and counts
    p = families.realization_family(3)
    assert beat_points(p) != 0
    y1 = p.index_of("y1")
    z1 = p.index_of("z1")
    assert p.leq(z1, y1)
    x1, y2 = p.index_of("x1"), p.index_of("y2")
    assert not p.leq(x1, y2) and not p.leq(y2, x1)
    assert sorted(p.heights) == sorted(
        [0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4])
