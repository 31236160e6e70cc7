"""Benchmark inputs, generated without any finflow code.

A space is a label list in index order plus strict ``(lesser, greater)``
label pairs.  The order of the labels is the index order finflow assigns
when it parses the file (the ``elements:`` line comes first), so shuffling
it changes which point every index-ordered scan meets first without
changing the space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Space:
    name: str
    labels: tuple
    pairs: tuple
    closed_form: int | None = None  # semiflow count known from theory

    @property
    def n(self):
        return len(self.labels)


def chain(n, name=None):
    """c0 < c1 < ... < c(n-1); 2^(n-1) semiflows, one per fixed-point set
    (any subset that contains the bottom)."""
    labels = tuple(f"c{i}" for i in range(n))
    pairs = tuple((labels[i], labels[i + 1]) for i in range(n - 1))
    return Space(name or f"chain{n}", labels, pairs, 2 ** (n - 1) if n else 1)


def x_family(n):
    """The realization family x_n: one down beat point, n + 2 semiflows.

    Level i holds x_i over y_i, pinned by z_i (i >= 1); for i < j, y_i, x_i
    and z_i lie under x_j and y_i, z_i under y_j.
    """
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
    return Space(f"x{n}", tuple(labels), tuple(pairs), n + 2)


def example_3_1():
    """Top A over B, C, which share the bottleneck D over minima E, F: 7 semiflows."""
    pairs = [(low, "A") for low in "BCDEF"]
    pairs += [(low, top) for low in "DEF" for top in "BC"]
    pairs += [("E", "D"), ("F", "D")]
    return Space("example_3_1", tuple("ABCDEF"), tuple(pairs), 7)


def cone_over_pseudo_circle():
    """A top over the pseudo-circle a, b < c, d: no down beat point, 1 semiflow."""
    pairs = [(a, b) for a in "ab" for b in "cd"] + [(x, "top") for x in "abcd"]
    return Space("cone", ("a", "b", "c", "d", "top"), tuple(pairs), 1)


def sphere_model(levels):
    """Ordinal sum of ``levels`` two-point antichains: the minimal finite
    model of the (levels-1)-sphere.  It has no beat point, so its core is
    itself and its only semiflow is the identity."""
    labels = tuple(f"s{i}{side}" for i in range(levels) for side in "ab")
    pairs = tuple((f"s{i}{a}", f"s{i + 1}{b}")
                  for i in range(levels - 1) for a in "ab" for b in "ab")
    return Space(f"sphere{2 * levels}", labels, pairs, 1)


def disjoint_union(name, parts):
    """Parts side by side, labels prefixed p0_, p1_, ...; semiflow counts
    multiply, so the closed form is the product of the parts' counts."""
    labels, pairs, count = [], [], 1
    for k, part in enumerate(parts):
        pre = f"p{k}_"
        labels += [pre + lab for lab in part.labels]
        pairs += [(pre + a, pre + b) for a, b in part.pairs]
        count = None if count is None or part.closed_form is None else count * part.closed_form
    return Space(name, tuple(labels), tuple(pairs), count)


def random_dag(name, n, edge_prob, rng):
    """Edge i -> j (i < j) kept with probability ``edge_prob``; the labels
    v0..v(n-1) follow that topological order."""
    labels = tuple(f"v{i}" for i in range(n))
    pairs = tuple((labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < edge_prob)
    return Space(name, labels, pairs)


def shuffled(space, rng):
    """The same space with its index order and relation lines permuted."""
    labels = list(space.labels)
    pairs = list(space.pairs)
    rng.shuffle(labels)
    rng.shuffle(pairs)
    return Space(space.name, tuple(labels), tuple(pairs), space.closed_form)


def to_text(space):
    """finflow's text format: an elements line, then one relation per line."""
    lines = ["elements: " + " ".join(space.labels)] if space.labels else []
    lines += [f"{a} < {b}" for a, b in space.pairs]
    return "\n".join(lines) + "\n"


def cyclic_text():
    """A file whose relations close into a cycle: rejected with exit 1."""
    return "a < b\nb < c\nc < a\n"


def rng_for(seed, stream):
    """Independent deterministic stream per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")
