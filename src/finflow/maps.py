"""Order-preserving self-maps, retraction predicates, and homotopy fences.

On a finite space continuity is the same thing as order preservation, so a
map is stored as its value table and validated against the cover relation.
"""

from collections import deque

from .errors import SizeLimitError

FENCE_BUDGET = 50_000


def is_monotone(poset, values):
    """True iff ``values`` is order preserving.

    Checking cover pairs suffices: comparabilities compose along covers.
    """
    for a, b in poset.covers:
        if not poset.leq(values[a], values[b]):
            return False
    return True


class MonotoneMap:
    """A continuous self-map, stored as ``values[x] = f(x)``.

    Maps are tied to the identity of their poset object; combining maps
    that live on different poset objects is rejected, which prevents index
    mix-ups after ``induced`` reindexes a subspace.
    """

    __slots__ = ("poset", "values")

    def __init__(self, poset, values):
        values = tuple(values)
        if len(values) != poset.n:
            raise ValueError("value table must cover every element")
        for v in values:
            if not 0 <= v < poset.n:
                raise ValueError(f"value {v} out of range")
        if not is_monotone(poset, values):
            raise ValueError("map is not order preserving")
        self.poset = poset
        self.values = values

    @classmethod
    def _trusted(cls, poset, values):
        """The map with the tuple ``values``, taken as monotone without a check."""
        f = cls.__new__(cls)
        f.poset = poset
        f.values = values
        return f

    @classmethod
    def identity(cls, poset):
        return cls(poset, range(poset.n))

    @classmethod
    def from_moves(cls, poset, moves):
        """Identity except for the given moves; keys and values may be labels."""
        values = list(range(poset.n))
        for src, dst in moves.items():
            x = poset.index_of(src) if isinstance(src, str) else src
            y = poset.index_of(dst) if isinstance(dst, str) else dst
            values[x] = y
        return cls(poset, values)

    def __call__(self, x):
        return self.values[x]

    def __eq__(self, other):
        if not isinstance(other, MonotoneMap):
            return NotImplemented
        return self.poset is other.poset and self.values == other.values

    def __hash__(self):
        return hash((id(self.poset), self.values))

    def __repr__(self):
        moves = self.as_moves()
        return f"MonotoneMap({moves!r})" if moves else "MonotoneMap(identity)"

    def _require_same_poset(self, other):
        if self.poset is not other.poset:
            raise ValueError("maps are defined on different posets")

    # -- comparisons -------------------------------------------------------

    def pointwise_leq(self, other):
        """self <= other in the pointwise order on maps."""
        self._require_same_poset(other)
        p = self.poset
        return all(p.leq(a, b) for a, b in zip(self.values, other.values))

    def below_identity(self):
        p = self.poset
        return all(p.leq(v, x) for x, v in enumerate(self.values))

    # -- algebra -----------------------------------------------------------

    def compose(self, other):
        """self after other: ``x -> self(other(x))``."""
        self._require_same_poset(other)
        return MonotoneMap(self.poset, tuple(self.values[v] for v in other.values))

    def is_idempotent(self):
        v = self.values
        return all(v[y] == y for y in set(v))

    def image(self):
        m = 0
        for v in self.values:
            m |= 1 << v
        return m

    def fixed_points(self):
        m = 0
        for x, v in enumerate(self.values):
            if x == v:
                m |= 1 << x
        return m

    def moved_points(self):
        m = 0
        for x, v in enumerate(self.values):
            if x != v:
                m |= 1 << x
        return m

    def as_moves(self):
        """Label table of the moved points only."""
        labs = self.poset.labels
        return {labs[x]: labs[v] for x, v in enumerate(self.values) if v != x}

    # -- retraction predicates ----------------------------------------------

    def is_retraction_onto(self, subset):
        """Image inside ``subset`` and every member of ``subset`` fixed."""
        if self.image() & ~subset:
            return False
        return subset & ~self.fixed_points() == 0

    def is_strong_deformation_retraction(self):
        """Idempotent and below the identity.

        The single comparison ``id >= self`` is itself the fence carrying
        the homotopy, and idempotence means the image is fixed pointwise,
        so nothing further needs checking.
        """
        return self.below_identity() and self.is_idempotent()


def monotone_self_maps(poset, limit=None):
    """Yield every monotone self-map of ``poset``.

    Backtracks over elements in increasing height; the candidates for f(x)
    are the common upper bounds of the images of x's lower covers.  Raises
    SizeLimitError once more than ``limit`` maps have been produced.
    """
    produced = 0
    for values in _monotone_tables(poset, [poset.full_mask] * poset.n):
        produced += 1
        if limit is not None and produced > limit:
            raise SizeLimitError(f"more than {limit} monotone self-maps")
        yield MonotoneMap(poset, values)


def _one_step_neighbours(poset, base):
    """Monotone maps comparable with ``base`` (one fence step away)."""
    for bound in (poset.up_set, poset.down_set):
        for values in _monotone_tables(poset, [bound(v) for v in base]):
            v = tuple(values)
            if v != base:
                yield v


def _monotone_tables(poset, allowed):
    """Yield the value table of every monotone map with ``f(x)`` in ``allowed[x]``.

    Depth-first over the elements in increasing height with an explicit
    stack, so deep posets need no recursion: the candidates for f(x) are
    the members of ``allowed[x]`` above the images of x's lower covers,
    drawn one at a time, so the first table costs one candidate per element.
    Yields one list, updated in place; copy it to keep it.
    """
    n = poset.n
    order = poset._order
    values = [0] * n

    def candidates(x):
        cand = allowed[x]
        for w in poset.lower_covers(x):
            cand &= poset.up_set(values[w])
        return _ascending(cand)

    if n == 0:
        yield values
        return
    # stack[k] iterates the candidate images of order[k]
    stack = [candidates(order[0])]
    while stack:
        y = next(stack[-1], None)
        if y is None:
            stack.pop()
            continue
        k = len(stack)
        values[order[k - 1]] = y
        if k == n:
            yield values
        else:
            stack.append(candidates(order[k]))


def _ascending(mask):
    """Yield the indices in ``mask`` in ascending order, one at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def fence_homotopic(f, g, max_steps=None, budget=FENCE_BUDGET):
    """Search for a fence of pointwise comparisons joining f and g.

    Breadth-first over the comparability graph of monotone self-maps with
    lazily generated neighbours.  Returns the fence as a list of maps (a
    single-entry list when f equals g) or None when no fence exists within
    ``max_steps`` comparisons.  This is a test oracle: it cross-checks the
    one-step fence used by ``is_strong_deformation_retraction`` and the
    rigidity of minimal spaces, and is never on a production path.

    Raises SizeLimitError when the search visits more than ``budget`` maps.
    """
    f._require_same_poset(g)
    p = f.poset
    start, goal = f.values, g.values
    if start == goal:
        return [f]
    parents = {start: None}
    frontier = deque([(start, 0)])
    while frontier:
        cur, depth = frontier.popleft()
        if max_steps is not None and depth >= max_steps:
            continue
        for nxt in _one_step_neighbours(p, cur):
            if nxt in parents:
                continue
            parents[nxt] = cur
            if len(parents) > budget:
                raise SizeLimitError("fence search exceeded its map budget")
            if nxt == goal:
                chain = [nxt]
                while parents[chain[-1]] is not None:
                    chain.append(parents[chain[-1]])
                chain.reverse()
                return [MonotoneMap(p, v) for v in chain]
            frontier.append((nxt, depth + 1))
    return None
