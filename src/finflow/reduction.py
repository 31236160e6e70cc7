"""Beat points, cores, and removal sequences.

Following Stong (Trans. AMS 123, 1966), a down beat point is a point that
covers exactly one point and an up beat point one covered by exactly one
point; deleting either leaves a strong deformation retract, and iterating
deletions yields the core.  Every test here reads the lower covers the
poset stores (``Poset._lower``); ``core`` and ``validate_removal_sequence``
keep them live as cover rows through ``poset._delete``, as ``induced`` does.

A removal sequence is a tuple of the deleted points in order; the points
such sequences end at are the points a semiflow can move: those the first
table of the one semiflow search, ``_tables``, moves.  The witness of a
point is their part below it.  The search carries r(x) = max(F & down(x))
up the scan order and reads each value off those of the lower covers
(``_max_below``).
"""

from .errors import InvalidSequenceError, check_size
from .maps import MonotoneMap
from .poset import _delete, _upper_rows, mask_of

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


def _single(rows, points):
    """The ``points`` whose row holds exactly one bit."""
    m = 0
    for x in points:
        if rows[x].bit_count() == 1:
            m |= 1 << x
    return m


def _max_below(down, value, covers):
    """Maximum of F strictly below a point with lower ``covers``, or None.

    ``value[c]`` must be max(F & down(c)) for each cover ``c``.  F strictly below
    the point, the union of those sets, has a maximum exactly when one value lies
    above all the others; a candidate moved up to each value over it finds it.
    """
    if len(covers) < 2:
        return value[covers[0]] if covers else None
    top, seen = value[covers[0]], 0
    for c in covers:
        v = value[c]
        seen |= 1 << v
        if down[v] >> top & 1:
            top = v
    return top if seen & ~down[top] == 0 else None


def _tables(p):
    """Every semiflow value table on ``p``, one per fixed-point set.

    Depth-first over the elements in scan order, so all below an element
    is decided when it comes up and its lower covers' values give its down
    cover among the fixed points.  It drops to that cover when the cover
    exists, and staying fixed is stacked; so the first table drops every
    point that can.  A pop leaves all before it as it was, so the value
    table is all the state there is.
    """
    down, order, lower = p._down, p._order, p._lower
    values = list(range(p.n))
    stack = []  # (k, x): x stays fixed, then order[k:] is left
    k = 0
    while True:
        for j in range(k, p.n):
            x = order[j]
            y = _max_below(down, values, lower[x])
            if y is not None:
                stack.append((j + 1, x))
            values[x] = x if y is None else y
        yield tuple(values)
        if not stack:
            return
        k, x = stack.pop()
        values[x] = x


def down_beat_points(p):
    """Points that cover exactly one point."""
    return mask_of(x for x, below in enumerate(p._lower) if len(below) == 1)


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
    bit.  Only the rows of a deleted point's neighbours change, so only
    they are tested again, and the core is built from the live lower rows.
    """
    lower, upper = list(map(mask_of, p._lower)), _upper_rows(p)
    down, up = _single(lower, range(p.n)), _single(upper, range(p.n))
    trace = []
    while beats := down | up:
        x = (beats & -beats).bit_length() - 1
        below, above = _delete(p, lower, upper, x)
        down = down & ~(1 << x | upper[x]) | _single(lower, above)
        up = up & ~(1 << x | lower[x]) | _single(upper, below)
        trace.append(x)
    if not trace:
        return p, trace
    return p._restrict(p.full_mask & ~mask_of(trace), lower)[0], trace


def potential_down_beat_points(p, max_n=None):
    """Points removable by some height-ordered sequence of down-beat deletions.

    These are exactly the points some semiflow moves, and later removals may
    repeat a height.  They are the points the first table of ``_tables``
    moves: each point drops to its down cover among the points that stay
    whenever it has one.
    """
    check_size("removal search", p.n, SEARCH_LIMIT, max_n)
    return mask_of(x for x, y in enumerate(next(_tables(p))) if x != y)


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
    lower, upper = list(map(mask_of, p._lower)), _upper_rows(p)
    floor = -1
    covers = []
    for step, x in enumerate(seq, start=1):
        if not 0 <= x < p.n:
            raise InvalidSequenceError(f"index {x} out of range")
        h = p.heights[x]
        if h < floor:
            raise InvalidSequenceError(f"heights must be nondecreasing (step {step})")
        if lower[x].bit_count() != 1:
            raise InvalidSequenceError(
                f"{p.labels[x]!r} is not a down beat point at step {step}")
        covers.append(lower[x].bit_length() - 1)
        _delete(p, lower, upper, x)
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
