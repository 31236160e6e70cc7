"""Beat points, cores, and removal sequences.

Following Stong (Trans. AMS 123, 1966), a down beat point is a point that
covers exactly one point, so its strict down-set has that point as its
maximum; an up beat point is one covered by exactly one point.  Deleting
either leaves a strong deformation retract, and iterating deletions yields
the core.  Each beat test reads per-point cover rows built from
``Poset.covers``, only on the side it tests, and ``core`` keeps both sides
live as it deletes.

A removal sequence is a tuple of the deleted points in order; their heights
come from the poset, and the sequences witness which points a semiflow can
move.  Those points form one largest set, found by a single upward scan
with the down-beat test as its only rule; the witness of a point is that
set's part below it, in scan order.  The scan and the enumerator test
subspaces that change by more than one point at a time, and they and
``validate_removal_sequence`` need the cover point itself, not only whether
one exists; so they use ``_down_cover``, a maximum search over the live
strict down-set that reads down-set rows only, rather than the cover rows.
"""

from .errors import InvalidSequenceError, check_size
from .maps import MonotoneMap
from .poset import elements_of

SEARCH_LIMIT = 16


class RemovalSequence(tuple):
    """Ordered beat-point deletions ending at the witnessed point.

    A tuple of point indices, so ``len`` counts the deletions.  Their
    heights are read from the poset and never decrease along the sequence.
    """

    __slots__ = ()

    @property
    def points(self):
        return tuple(self)

    def __repr__(self):
        return f"RemovalSequence({tuple(self)!r})"


def _lower_rows(p):
    """Per-point lower cover rows, as bitmasks, from ``p.covers``."""
    rows = [0] * p.n
    for a, b in p.covers:
        rows[b] |= 1 << a
    return rows


def _upper_rows(p):
    """Per-point upper cover rows, as bitmasks, from ``p.covers``."""
    rows = [0] * p.n
    for a, b in p.covers:
        rows[a] |= 1 << b
    return rows


def _single(rows, points):
    """The ``points`` whose row holds exactly one bit."""
    m = 0
    for x in points:
        if rows[x].bit_count() == 1:
            m |= 1 << x
    return m


def _down_cover(p, x, alive):
    """Maximum of the strict down-set of ``x`` within ``alive``, or None.

    The highest remaining candidate ``z`` is the maximum when its down-set
    holds the whole live strict down-set; otherwise nothing under ``z`` is,
    so its down-set leaves the candidates.  A maximum lies under no other
    member, so it is never dropped that way.
    """
    down = p._down
    s = todo = down[x] & alive & ~(1 << x)
    while todo:
        z = todo.bit_length() - 1
        row = down[z]
        if s & ~row == 0:
            return z
        todo &= ~row
    return None


def down_beat_points(p):
    """Points that cover exactly one point."""
    return _single(_lower_rows(p), range(p.n))


def up_beat_points(p):
    """Points covered by exactly one point."""
    return _single(_upper_rows(p), range(p.n))


def beat_points(p):
    return down_beat_points(p) | up_beat_points(p)


def is_minimal_space(p):
    return beat_points(p) == 0


def core(p):
    """Delete beat points until none remain.

    Always removes the lowest-index beat point of the current subspace, so
    the trace is reproducible; the result is unique up to isomorphism.
    Returns ``(core_poset, trace)`` with the trace in original indices and
    labels retained on the core; a space without beat points is returned
    as it is.

    The cover rows of the live subspace are kept as deletions go, and a
    point is a down (up) beat point while its lower (upper) row holds one
    bit.  Deleting ``x`` keeps every cover that does not involve ``x`` and
    clears ``x`` from its neighbours' rows.  A new cover ``l < u`` appears
    only where ``x`` was all that lay between, so it links each lower cover
    ``l`` of ``x`` to each upper cover ``u`` whose live interval is now
    ``{l, u}``.  Only the rows of those neighbours change, so only they are
    tested again.
    """
    lower, upper = _lower_rows(p), _upper_rows(p)
    down = _single(lower, range(p.n))
    up = _single(upper, range(p.n))
    alive = p.full_mask
    trace = []
    while beats := down | up:
        x = (beats & -beats).bit_length() - 1
        bit = 1 << x
        alive ^= bit
        below, above = elements_of(lower[x]), elements_of(upper[x])
        for l in below:
            upper[l] ^= bit
        for u in above:
            lower[u] ^= bit
            for l in below:
                ends = (1 << l) | (1 << u)
                if p._up[l] & p._down[u] & alive == ends:
                    lower[u] |= 1 << l
                    upper[l] |= 1 << u
        down = down & ~(bit | upper[x]) | _single(lower, above)
        up = up & ~(bit | lower[x]) | _single(upper, below)
        trace.append(x)
    if not trace:
        return p, trace
    sub, _ = p.induced(alive)
    return sub, trace


def potential_down_beat_points(p, max_n=None):
    """Points removable by some height-ordered sequence of down-beat deletions.

    These are exactly the points some semiflow moves, and later removals may
    repeat a height.  One upward scan finds them: a point joins when it has
    a down cover among the points that have not joined.  Everything below a
    point comes before it in scan order, and whether it joins reads only
    the points below it.
    """
    check_size("removal search", p.n, SEARCH_LIMIT, max_n)
    pot = 0
    for y in p._order:
        if _down_cover(p, y, p.full_mask & ~pot) is not None:
            pot |= 1 << y
    return pot


def _witness(p, pot, x):
    """The potential points ``pot`` at or below ``x``, in scan order.

    Heights never decrease along it, and each point's strict down-set among
    the points still there is the one it joined the scan with, so each is a
    down beat point when its turn comes.
    """
    below = pot & p.down_set(x)
    return RemovalSequence(y for y in p._order if (below >> y) & 1)


def removal_sequence_for(p, y, max_n=None):
    """A witness sequence ending at ``y``, or None if ``y`` is not potential."""
    pot = potential_down_beat_points(p, max_n)
    return _witness(p, pot, y) if (pot >> y) & 1 else None


def validate_removal_sequence(p, seq):
    """Raise InvalidSequenceError unless ``seq`` is a legal removal sequence.

    Returns the stage covers: entry ``i`` is the maximum of the strict
    down-set of ``seq[i]`` in the subspace where it is removed.
    """
    if len(seq) != len(set(seq)):
        raise InvalidSequenceError("sequence repeats a point")
    alive = p.full_mask
    floor = -1
    covers = []
    for step, x in enumerate(seq, start=1):
        if not 0 <= x < p.n:
            raise InvalidSequenceError(f"index {x} out of range")
        h = p.heights[x]
        if h < floor:
            raise InvalidSequenceError(f"heights must be nondecreasing (step {step})")
        y = _down_cover(p, x, alive)
        if y is None:
            raise InvalidSequenceError(
                f"{p.labels[x]!r} is not a down beat point at step {step}")
        covers.append(y)
        alive &= ~(1 << x)
        floor = h
    return covers


def retraction_from_sequence(p, seq):
    """Retraction collapsing each removed point onto its stage maximum.

    Every point of the sequence drops to the maximum of its strict down-set
    in the subspace where it is removed; everything else stays fixed.  The
    stage maxima are never removed later, so the result is idempotent and
    below the identity.  The empty sequence gives the identity.
    """
    values = list(range(p.n))
    for x, y in zip(seq, validate_removal_sequence(p, seq)):
        values[x] = y
    return MonotoneMap(p, values)
