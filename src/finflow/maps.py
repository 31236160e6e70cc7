"""Order-preserving self-maps and retraction predicates.

On a finite space continuity is the same thing as order preservation, so a
map is stored as its value table and validated against the cover relation.
"""

from operator import itemgetter


def _compose(f, g):
    """The table of ``f`` after ``g``; ``itemgetter`` returns a bare value for
    one index and refuses none, so shorter tables go through ``map``."""
    if len(g) > 1:
        return itemgetter(*g)(f)
    return tuple(map(f.__getitem__, g))


def is_monotone(poset, values):
    """True iff ``values`` is order preserving.

    Checking cover pairs suffices: comparabilities compose along covers.
    """
    for b, below in enumerate(poset._lower):
        for a in below:
            if not poset.leq(values[a], values[b]):
                return False
    return True


class MonotoneMap:
    """A continuous self-map, stored as ``values[x] = f(x)``.

    Maps are tied to the identity of their poset object: maps on different
    poset objects never compare equal, which prevents index mix-ups after
    ``induced`` reindexes a subspace.
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

    def __eq__(self, other):
        if not isinstance(other, MonotoneMap):
            return NotImplemented
        return self.poset is other.poset and self.values == other.values

    def __hash__(self):
        return hash((id(self.poset), self.values))

    def __repr__(self):
        return f"{type(self).__name__}({self.as_moves() or 'identity'})"

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

    def below_identity(self):
        p = self.poset
        return all(p.leq(v, x) for x, v in enumerate(self.values))

    def is_idempotent(self):
        v = self.values
        return _compose(v, v) == v

    def is_strong_deformation_retraction(self):
        """Idempotent and below the identity.

        The single comparison ``id >= self`` is itself the fence carrying
        the homotopy, and idempotence means the image is fixed pointwise,
        so nothing further needs checking.
        """
        return self.below_identity() and self.is_idempotent()
