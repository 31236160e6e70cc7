"""Beat points, cores, and removal sequences.

A down beat point is one whose strict down-set has a maximum; deleting it
leaves a strong deformation retract.  Iterating deletions yields the core.
Removal sequences record the order of deletions and witness which points a
semiflow can move.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSequenceError, SizeLimitError
from .maps import MonotoneMap
from .poset import elements_of, mask_of

SEARCH_LIMIT = 16


@dataclass(frozen=True)
class RemovalSequence:
    """Ordered beat-point deletions ending at the witnessed point.

    ``heights`` are measured in the original space and never decrease
    along the sequence.
    """

    points: tuple
    heights: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "heights", tuple(self.heights))

    def __len__(self):
        return len(self.points)


def _down_beats_within(p, alive):
    out = 0
    for x in elements_of(alive):
        s = p.strict_down(x) & alive
        if s and p.maximum_of(s) is not None:
            out |= 1 << x
    return out


def _up_beats_within(p, alive):
    out = 0
    for x in elements_of(alive):
        s = p.strict_up(x) & alive
        if s and p.minimum_of(s) is not None:
            out |= 1 << x
    return out


def down_beat_points(p):
    """Points whose strict down-set has a maximum."""
    return _down_beats_within(p, p.full_mask)


def up_beat_points(p):
    """Points whose strict up-set has a minimum."""
    return _up_beats_within(p, p.full_mask)


def beat_points(p):
    return down_beat_points(p) | up_beat_points(p)


def is_minimal_space(p):
    return beat_points(p) == 0


def down_cover(p, x):
    """The maximum below a down beat point; None for anything else."""
    s = p.strict_down(x)
    return p.maximum_of(s) if s else None


def core(p):
    """Delete beat points until none remain.

    Always removes the lowest-index beat point of the current subspace, so
    the trace is reproducible; the result is unique up to isomorphism.
    Returns ``(core_poset, trace)`` with the trace in original indices and
    labels retained on the core.
    """
    alive = p.full_mask
    trace = []
    while True:
        beats = _down_beats_within(p, alive) | _up_beats_within(p, alive)
        if not beats:
            break
        x = (beats & -beats).bit_length() - 1
        alive &= ~(1 << x)
        trace.append(x)
    sub, _ = p.induced(alive)
    return sub, trace


def _check_search_size(p, max_n):
    limit = SEARCH_LIMIT if max_n is None else max_n
    if p.n > limit:
        raise SizeLimitError(f"removal search limited to {limit} elements (got {p.n})")


def _height_ok(h, floor, strict_heights):
    return h > floor or (not strict_heights and h == floor)


def _removal_search(p, strict_heights=False, max_n=None, stop=None):
    """Potential down beat points, each mapped to its witness sequence.

    Depth-first over removal states keyed by (remaining set, height floor),
    where heights are always taken in the original space.  Candidates are
    tried in ascending index order and every state is expanded once; the
    first time a point is removed, the path that removed it is recorded as
    its witness.  With ``stop`` given, the search ends as soon as that point
    has its witness.
    """
    _check_search_size(p, max_n)
    witnesses = {}
    _extend(p, strict_heights, p.full_mask, -1, [], set(), witnesses, stop)
    return witnesses


# A module-level function, not a nested one: a recursive closure is a
# reference cycle that keeps ``seen`` alive until the cycle collector runs.
def _extend(p, strict_heights, alive, floor, path, seen, witnesses, stop):
    """Search on from one state; True once ``stop`` has a witness."""
    for x in elements_of(_down_beats_within(p, alive)):
        h = p.heights[x]
        if not _height_ok(h, floor, strict_heights):
            continue
        path.append(x)
        if x not in witnesses:
            witnesses[x] = RemovalSequence(path, [p.heights[y] for y in path])
            if x == stop:
                return True
        state = (alive & ~(1 << x), h)
        if state not in seen:
            seen.add(state)
            if _extend(p, strict_heights, *state, path, seen, witnesses, stop):
                return True
        path.pop()
    return False


def potential_down_beat_points(p, strict_heights=False, max_n=None):
    """Points removable by some height-ordered sequence of down-beat deletions.

    By default later removals may repeat a height; ``strict_heights`` forces
    strictly increasing heights instead (the two readings differ only in
    whether two equal-height points may share one sequence).
    """
    return mask_of(_removal_search(p, strict_heights, max_n))


def removal_sequence_for(p, y, strict_heights=False, max_n=None):
    """A witness sequence ending at ``y``, or None if ``y`` is not potential."""
    return _removal_search(p, strict_heights, max_n, stop=y).get(y)


def validate_removal_sequence(p, seq, strict_heights=False):
    """Raise InvalidSequenceError unless ``seq`` is a legal removal sequence."""
    pts = seq.points
    if len(pts) != len(set(pts)):
        raise InvalidSequenceError("sequence repeats a point")
    if len(seq.heights) != len(pts):
        raise InvalidSequenceError("one height per point required")
    alive = p.full_mask
    floor = -1
    for step, (x, h) in enumerate(zip(pts, seq.heights), start=1):
        if not 0 <= x < p.n:
            raise InvalidSequenceError(f"index {x} out of range")
        if p.heights[x] != h:
            raise InvalidSequenceError(
                f"stored height {h} of {p.labels[x]!r} differs from {p.heights[x]}")
        if not _height_ok(h, floor, strict_heights):
            kind = "strictly increasing" if strict_heights else "nondecreasing"
            raise InvalidSequenceError(f"heights must be {kind} (step {step})")
        s = p.strict_down(x) & alive
        if not s or p.maximum_of(s) is None:
            raise InvalidSequenceError(
                f"{p.labels[x]!r} is not a down beat point at step {step}")
        alive &= ~(1 << x)
        floor = h


def retraction_from_sequence(p, seq):
    """Retraction collapsing each removed point onto its stage maximum.

    Every point of the sequence drops to the maximum of its strict down-set
    in the subspace where it is removed; everything else stays fixed.  The
    stage maxima are never removed later, so the result is idempotent and
    below the identity.  The empty sequence gives the identity.
    """
    validate_removal_sequence(p, seq)
    values = list(range(p.n))
    alive = p.full_mask
    for x in seq.points:
        values[x] = p.maximum_of(p.strict_down(x) & alive)
        alive &= ~(1 << x)
    return MonotoneMap(p, values)
