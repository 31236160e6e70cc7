"""Deterministic generators for the named example spaces and random posets."""

from .errors import InvalidSpecError
from .poset import Poset
from .prng import Xorshift64Star


def _check_n(kind, n):
    """The one size rule of the generators that take ``n``."""
    if n is None or n < 0:
        raise InvalidSpecError(f"kind {kind!r} needs n >= 0")


def chain(n):
    """Total order c0 < c1 < ... on n elements."""
    _check_n("chain", n)
    labels = [f"c{i}" for i in range(n)]
    return Poset.from_relations(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def antichain(n):
    """n pairwise incomparable elements."""
    _check_n("antichain", n)
    return Poset.from_relations([f"a{i}" for i in range(n)], [])


def pseudo_circle():
    """The 4-point minimal space a, b < c, d."""
    return Poset.from_relations(
        ["a", "b", "c", "d"],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def example_3_1():
    """Six points: top A over B, C, which share the bottleneck D over minima E, F."""
    pairs = []
    for low in "BCDEF":
        pairs.append((low, "A"))
    for low in "DEF":
        pairs.append((low, "B"))
        pairs.append((low, "C"))
    pairs += [("E", "D"), ("F", "D")]
    return Poset.from_relations(list("ABCDEF"), pairs)


def example_2_5():
    """Five points: a pseudo-circle A, B < C, D plus a top E over A, B, C only."""
    return Poset.from_relations(
        list("ABCDE"),
        [("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"),
         ("A", "E"), ("B", "E"), ("C", "E")])


def cone(p):
    """Add a new maximum ``top`` above everything; primes the label on collision."""
    label = "top"
    while label in p.labels:
        label += "'"
    labels = list(p.labels) + [label]
    pairs = [(p.labels[a], p.labels[b]) for a, b in p.covers]
    pairs += [(lab, label) for lab in p.labels]
    return Poset.from_relations(labels, pairs)


def realization_family(n):
    """Space with a single down beat point but n + 2 semiflows in total.

    Level i (0 <= i <= n) holds a removable point x{i} over its landing
    point y{i}; pins z{i} (i >= 1) keep the y{i} from ever becoming
    removable themselves, so moving x{i} requires moving every x{j} below
    it first.  Cross-level relations put y{i}, x{i}, z{i} under x{j} and
    y{i}, z{i} under y{j} for i < j.
    """
    _check_n("x_n", n)
    labels = ["y0", "x0"]
    pairs = [("y0", "x0")]
    for i in range(1, n + 1):
        labels += [f"z{i}", f"y{i}", f"x{i}"]
        pairs += [(f"z{i}", f"y{i}"), (f"y{i}", f"x{i}")]
    for j in range(n + 1):
        for i in range(j):
            pairs += [(f"y{i}", f"x{j}"), (f"y{i}", f"y{j}"), (f"x{i}", f"x{j}")]
            if i >= 1:
                pairs += [(f"z{i}", f"x{j}"), (f"z{i}", f"y{j}")]
    return Poset.from_relations(labels, pairs)


def random_poset(n, edge_prob, seed):
    """Random DAG on a fixed topological order, closed into a partial order.

    Each edge i -> j with i < j is kept independently with probability
    ``edge_prob`` using the deterministic generator from :mod:`finflow.prng`,
    so (n, edge_prob, seed) pins the result exactly.  edge_prob 0 gives the
    antichain, edge_prob 1 the chain.
    """
    _check_n("random", n)
    if not 0.0 <= edge_prob <= 1.0:
        raise InvalidSpecError("edge probability must be in [0, 1]")
    rng = Xorshift64Star(seed)
    labels = [f"v{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_float() < edge_prob:
                pairs.append((labels[i], labels[j]))
    return Poset.from_relations(labels, pairs)


def random_corpus(count, max_n, seed):
    """Fixed-seed random posets with 1..max_n elements, built one at a time.

    The sizes are checked at the call; the posets are built as they are
    drawn, so a caller that reads them in turn keeps one alive at a time.
    """
    if count < 0:
        raise InvalidSpecError(f"random corpus needs count >= 0 (got {count})")
    if max_n < 1:
        raise InvalidSpecError(f"random corpus needs max_n >= 1 (got {max_n})")
    rng = Xorshift64Star(seed)
    return (random_poset(1 + rng.next_int(max_n), rng.next_float(), rng.next_u64())
            for _ in range(count))


# kind -> (builder, the ``make`` arguments passed to it); each builder checks its fields
_BUILDERS = {
    "chain": (chain, ("n",)),
    "antichain": (antichain, ("n",)),
    "example_3_1": (example_3_1, ()),
    "example_2_5": (example_2_5, ()),
    "pseudo_circle": (pseudo_circle, ()),
    "cone": (lambda: cone(pseudo_circle()), ()),
    "x_n": (realization_family, ("n",)),
    "random": (random_poset, ("n", "edge_prob", "seed")),
}
KINDS = tuple(_BUILDERS)


def make(kind, n=None, seed=0, edge_prob=0.5):
    """Build the named space of ``kind``; pure for fixed arguments."""
    if kind not in _BUILDERS:
        raise InvalidSpecError(f"unknown kind {kind!r} (choose from {', '.join(KINDS)})")
    build, fields = _BUILDERS[kind]
    args = {"n": n, "seed": seed, "edge_prob": edge_prob}
    return build(*(args[f] for f in fields))
