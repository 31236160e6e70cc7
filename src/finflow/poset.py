"""Finite posets with bit-parallel subset operations.

Elements are dense integer indices ``0..n-1`` with a label table.  Subsets
are plain Python ints used as bitmasks (bit ``x`` set means element ``x``
is a member), so unions, intersections and containment tests are single
integer operations.  A poset doubles as a finite T0 topology: the open
sets are exactly the lower sets, and ``down_set(x)`` is the minimal open
set containing ``x``.
"""

from operator import itemgetter

from .errors import CycleError, UnknownLabelError


def mask_of(indices):
    """Bitmask for an iterable of element indices."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def elements_of(mask):
    """Indices present in ``mask``, ascending.

    The bits are taken from the top, each cleared as it is read, so the
    mask only shrinks and no negated copy of it is made; the list is then
    reversed.
    """
    out = []
    while mask:
        x = mask.bit_length() - 1
        out.append(x)
        mask ^= 1 << x
    out.reverse()
    return out


def _extremal(down, mask):
    """Maximal members of ``mask``: nothing of ``mask`` lies strictly above them.

    Members are visited highest index first, so on bottom-first labels the
    first few rows merged already cover the rest.  A member already known
    to be dominated is skipped: what lies under it lies under its
    dominator, whose row is already merged.
    """
    dominated = 0
    todo = mask
    while todo:
        z = todo.bit_length() - 1
        row = down[z]
        dominated |= row ^ (1 << z)
        todo &= ~row
    return mask & ~dominated


def _cover_rows(p):
    """The live cover rows of ``p``: each point's lower and upper covers, as bitmasks."""
    upper = [0] * p.n
    for b, below in enumerate(p._lower):
        bit = 1 << b
        for a in below:
            upper[a] |= bit
    return list(map(mask_of, p._lower)), upper


def _delete(p, lower, upper, x):
    """Delete ``x`` from the live cover rows; returns its lower and upper covers.

    A new cover ``l < u`` appears where no live upper cover of ``l`` lies at
    or below ``u``; the upper covers of ``x`` form an antichain, so no link
    made here decides another.
    """
    bit = 1 << x
    below, above = elements_of(lower[x]), elements_of(upper[x])
    for l in below:
        upper[l] ^= bit
    for u in above:
        lower[u] ^= bit
        for l in below:
            if upper[l] & p._down[u] == 0:
                lower[u] |= 1 << l
                upper[l] |= 1 << u
    return below, above


class Poset:
    """Immutable finite poset over labelled elements.

    ``Poset(labels, down_rows)`` is the validating constructor: it takes
    prebuilt down-set rows and checks that they form a partial order.  One
    pass in order of row size requires each row to be its own bit OR-ed
    with the rows of its lower covers (else ValueError), none of which may
    contain it (else CycleError).  Those rows are then strictly smaller, so
    by induction on row size every row is closed and antisymmetric.
    :meth:`from_relations` and :meth:`induced` know their order is valid
    and skip that pass.  A poset stores its down-sets (``_down``, the
    minimal open sets), its lower covers (``_lower``, one ascending tuple
    per point), and the ``heights`` and scan order ``_order`` filled from
    them; the cover pairs ``covers`` are built when read.
    """

    __slots__ = ("n", "labels", "heights", "_down", "_lower", "_index", "_order")

    def __init__(self, labels, down_rows):
        labels = tuple(labels)
        down = tuple(down_rows)
        n = len(labels)
        if len(down) != n:
            raise ValueError("one relation row per label required")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
        full = (1 << n) - 1
        for x, row in enumerate(down):
            if row & ~full:
                raise ValueError("relation row references elements out of range")
            if not (row >> x) & 1:
                raise ValueError("order must be reflexive")
        lower = [()] * n
        order = sorted(range(n), key=lambda x: down[x].bit_count())
        for x in order:
            bit = 1 << x
            acc = bit
            lower[x] = elements_of(_extremal(down, down[x] ^ bit))
            for a in lower[x]:
                if down[a] & bit:
                    raise CycleError(f"antisymmetry violated at {labels[x]!r}")
                acc |= down[a]
            if acc != down[x]:
                raise ValueError("order must be transitive")
        self._fill(labels, down, lower, order)

    @classmethod
    def _from_lower(cls, labels, down, lower, order):
        """The poset of a valid order, from its closed rows and lower covers.

        ``lower[x]`` lists the lower covers of ``x`` ascending, and ``order``
        is any linear extension; nothing is checked.
        """
        p = object.__new__(cls)
        p._fill(tuple(labels), tuple(down), lower, order)
        return p

    def _fill(self, labels, down, lower, order):
        """Set every table from the rows, lower covers and a linear extension."""
        n = len(labels)
        ht = [0] * n
        for x in order:
            for a in lower[x]:
                if ht[a] >= ht[x]:
                    ht[x] = ht[a] + 1
        # scan order: by height, ties by index, so all below x comes before x
        self._order = tuple(sorted(range(n), key=ht.__getitem__))
        self.n = n
        self.labels = labels
        self._down = down
        self._index = dict(zip(labels, range(n)))
        self._lower = tuple(map(tuple, lower))
        self.heights = tuple(ht)

    @classmethod
    def from_relations(cls, labels, pairs):
        """Build a poset from strict ``(lesser, greater)`` label pairs.

        Pairs may be arbitrary strict comparabilities, not just covers; the
        reflexive-transitive closure is applied.  Raises CycleError when the
        closure would violate antisymmetry, naming the lowest-index element
        of one cycle and the element above it on that cycle, and
        UnknownLabelError when a pair mentions an undeclared name.

        A cover ``a < b`` cannot be implied through another element, so it
        is one of the given pairs: the lower covers of ``b`` are the maximal
        members of its direct predecessors, and a point with one direct
        predecessor covers just that one.  Each point keeps its direct
        successors as an index list, one entry per pair, and its in-degree
        counts pairs too, so a repeated pair is counted on both sides.  The
        closure pass already shows the relation acyclic, so the poset is
        built without the constructor's checks.
        """
        labels = list(labels)
        index = {}
        for lab in labels:
            if lab in index:
                raise ValueError(f"duplicate label {lab!r}")
            index[lab] = len(index)
        n = len(labels)
        succ = [[] for _ in range(n)]
        pred = [0] * n
        indeg = [0] * n
        for a, b in pairs:
            ia = index.get(a)
            if ia is None:
                raise UnknownLabelError(f"unknown label {a!r}")
            ib = index.get(b)
            if ib is None:
                raise UnknownLabelError(f"unknown label {b!r}")
            if ia == ib:
                raise CycleError(f"{a!r} < {b!r} violates antisymmetry")
            succ[ia].append(ib)
            indeg[ib] += 1
            pred[ib] |= 1 << ia
        # One Kahn pass in topological order: every predecessor of y is
        # final before y is taken, so down[y] |= down[x] along each pair
        # gives the reflexive-transitive closure.
        down = [1 << x for x in range(n)]
        ready = [x for x in range(n) if indeg[x] == 0]
        for x in ready:
            for y in succ[x]:
                down[y] |= down[x]
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        if len(ready) < n:
            # Each unsorted element has an unsorted predecessor, so walking back
            # along the lowest one closes a cycle, with cycle[i + 1] < cycle[i].
            left = mask_of(x for x, d in enumerate(indeg) if d)
            seen = {}
            x = (left & -left).bit_length() - 1
            while x not in seen:
                seen[x] = len(seen)
                below = pred[x] & left
                x = (below & -below).bit_length() - 1
            cycle = list(seen)[seen[x]:]
            i = cycle.index(min(cycle))
            a, b = labels[cycle[i]], labels[cycle[i - 1]]
            raise CycleError(f"{a!r} < {b!r} and {b!r} < {a!r}")
        lower = [elements_of(_extremal(down, m) if m.bit_count() > 1 else m) for m in pred]
        return cls._from_lower(labels, down, lower, ready)

    # -- lookups ---------------------------------------------------------

    def index_of(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label!r}") from None

    def labels_of(self, mask):
        return [self.labels[x] for x in elements_of(mask)]

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    # -- order queries ---------------------------------------------------

    def leq(self, x, y):
        return (self._down[y] >> x) & 1 == 1

    def down_set(self, x):
        """Minimal open set containing x: everything at or below it."""
        return self._down[x]

    def strict_down(self, x):
        return self._down[x] & ~(1 << x)

    @property
    def covers(self):
        """The cover pairs ``(a, b)``, ``a`` covered by ``b``, in ascending order."""
        # the pairs come with b ascending, so a stable sort on a gives (a, b) order
        return tuple(sorted(((a, b) for b, below in enumerate(self._lower) for a in below),
                            key=itemgetter(0)))

    @property
    def height(self):
        """Longest chain length minus one; -1 for the empty poset."""
        return max(self.heights, default=-1)

    # -- subset operations -------------------------------------------------

    def induced(self, mask):
        """Subposet on ``mask``.

        Returns ``(poset, old_indices)`` where ``old_indices[i]`` is the
        original index of the new element ``i``; labels are retained.  The
        points outside ``mask`` are deleted from the cover rows one by one.
        """
        lower, upper = _cover_rows(self)
        for x in elements_of(self.full_mask & ~mask):
            _delete(self, lower, upper, x)
        return self._restrict(mask, lower)

    def _restrict(self, mask, lower):
        """:meth:`induced` from ``lower[o]``, the mask of each kept point's lower covers in it.

        ``new[o]`` is the new index of old point ``o``, -1 when it is
        dropped.  Kept points come up in scan order, after their lower
        covers."""
        old = elements_of(mask)
        new = [-1] * self.n
        for i, o in enumerate(old):
            new[o] = i
        rows, low = [0] * len(old), [()] * len(old)
        order = []
        for o in self._order:
            i = new[o]
            if i >= 0:
                low[i] = covers = [new[a] for a in elements_of(lower[o])]
                row = 1 << i
                for a in covers:
                    row |= rows[a]
                rows[i] = row
                order.append(i)
        return Poset._from_lower([self.labels[o] for o in old], rows, low, order), tuple(old)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self._down == other._down

    def __hash__(self):
        return hash((self.labels, self._down))

    def __repr__(self):
        return f"Poset({self.n} elements, {len(self.covers)} covers)"
