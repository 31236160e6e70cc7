"""Independent reference answers, computed without any finflow code.

The references rest on two facts from the literature rather than on the
engine under test:

* A semiflow map r is fixed by its image F = Fix(r), with
  r(x) = max(F ∩ ↓x).  A subset F arises this way exactly when it contains
  every minimal point and F ∩ ↓x has a maximum for every x (the retraction
  view of Barmak, *Algebraic Topology of Finite Topological Spaces*,
  LNM 2032, 2011).  Counting such sets counts semiflows, and the points
  outside some such F are the movable points.
* The core is unique up to isomorphism (Stong, "Finite topological
  spaces", Trans. AMS 123, 1966), so removing beat points in any other
  order must reach a core of the same size.
"""

from __future__ import annotations

import heapq


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _has_maximum(s, down):
    return any(s & ~down[m] == 0 for m in _bits(s))


def _has_minimum(s, up):
    return any(s & ~up[m] == 0 for m in _bits(s))


class Order:
    """Reflexive down- and up-sets of a space, by one topological pass."""

    def __init__(self, space):
        self.labels = space.labels
        self.n = n = len(space.labels)
        index = {lab: i for i, lab in enumerate(space.labels)}
        preds = [set() for _ in range(n)]
        for a, b in space.pairs:
            preds[index[b]].add(index[a])
        succs = [[] for _ in range(n)]
        for b in range(n):
            for a in preds[b]:
                succs[a].append(b)
        indegree = [len(p) for p in preds]
        ready = [x for x in range(n) if indegree[x] == 0]
        self.topo = []
        while ready:
            a = ready.pop()
            self.topo.append(a)
            for b in succs[a]:
                indegree[b] -= 1
                if indegree[b] == 0:
                    ready.append(b)
        if len(self.topo) != n:
            raise ValueError(f"{space.name}: relations contain a cycle")
        self.down = [1 << x for x in range(n)]
        for x in self.topo:
            for a in preds[x]:
                self.down[x] |= self.down[a]
        self.up = [1 << x for x in range(n)]
        for x in range(n):
            for y in _bits(self.down[x]):
                self.up[y] |= 1 << x

    @property
    def full(self):
        return (1 << self.n) - 1

    def labels_of(self, mask):
        return {self.labels[x] for x in _bits(mask)}

    def mask_of(self, labels):
        index = {lab: i for i, lab in enumerate(self.labels)}
        m = 0
        for lab in labels:
            m |= 1 << index[lab]
        return m

    def cover_count(self):
        return sum(1 for b in range(self.n) for a in _bits(self.down[b] & ~(1 << b))
                   if self.up[a] & self.down[b] == (1 << a) | (1 << b))

    def height(self):
        ht = [0] * self.n
        for x in self.topo:
            below = self.down[x] & ~(1 << x)
            if below:
                ht[x] = 1 + max(ht[y] for y in _bits(below))
        return max(ht, default=-1)

    def down_beats(self, alive):
        return sum(1 << x for x in _bits(alive)
                   if self._down_beat(x, alive))

    def up_beats(self, alive):
        return sum(1 << x for x in _bits(alive)
                   if self._up_beat(x, alive))

    def _down_beat(self, x, alive):
        s = self.down[x] & alive & ~(1 << x)
        return s != 0 and _has_maximum(s, self.down)

    def _up_beat(self, x, alive):
        s = self.up[x] & alive & ~(1 << x)
        return s != 0 and _has_minimum(s, self.up)

    def is_minimal(self, alive):
        return self.down_beats(alive) | self.up_beats(alive) == 0

    def core_size(self):
        """Size of the core reached by always removing the highest-index
        beat point first, rechecking only neighbours of a removed point."""
        alive = self.full
        heap = [-x for x in range(self.n)]
        heapq.heapify(heap)
        queued = alive
        while heap:
            x = -heapq.heappop(heap)
            queued &= ~(1 << x)
            if not (alive >> x) & 1:
                continue
            if self._down_beat(x, alive) or self._up_beat(x, alive):
                alive &= ~(1 << x)
                for y in _bits((self.down[x] | self.up[x]) & alive & ~queued):
                    heapq.heappush(heap, -y)
                    queued |= 1 << y
        return alive.bit_count()

    def fixed_point_sets(self):
        """(number of valid fixed-point sets, mask of movable points).

        Points are decided in topological order; x may stay out of F only
        when the already decided part F ∩ ↓x \\ {x} has a maximum, which
        also forces every minimal point in.
        """
        strict = [self.down[x] & ~(1 << x) for x in range(self.n)]
        topo, down, n = self.topo, self.down, self.n
        count, movable = 0, 0
        stack = [(0, 0)]
        while stack:
            k, fixed = stack.pop()
            if k == n:
                count += 1
                movable |= self.full & ~fixed
                continue
            x = topo[k]
            stack.append((k + 1, fixed | (1 << x)))
            s = strict[x] & fixed
            if s and _has_maximum(s, down):
                stack.append((k + 1, fixed))
        return count, movable


def oracle_candidates(order):
    """Size of the brute-force oracle's search space, the product of |↓x|."""
    total = 1
    for row in order.down:
        total *= row.bit_count()
    return total
