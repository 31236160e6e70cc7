"""Semiflow enumeration and the counting results built on top of it.

A semiflow on a finite space is pinned down by the single map it applies
at every positive time: an idempotent monotone map below the identity.
Time enters only through the ``t == 0`` / ``t > 0`` split, so enumerating
semiflows means enumerating those maps.  The converse holds too: for any
such map r the two-piece formula is continuous (r <= id keeps preimages of
lower sets open) and the semigroup law is exactly idempotence.  So a
``Semiflow`` is that map itself: a ``MonotoneMap`` whose ``values`` is the
positive-time table.

Such a map is determined by its fixed points F, as r(x) = max(F & down(x)),
and F gives one exactly when each x outside F is a down beat point of F
plus x, dropped to its down cover there.  The enumerator lists these sets
with that test as its only rule, read off the values of x's lower covers
(``reduction._max_below``); monotonicity and idempotence follow.

The counting checks read the semiflows, the down beat points D and the
potential down beat points R*; ``_census`` derives all four once per call
for ``verify_counting_results``, ``full_verification`` and ``report.analyze``.
"""

import itertools
import math
from collections import namedtuple

from . import reduction
from .errors import NegativeTimeError, check_size
from .maps import MonotoneMap, _compose
from .poset import elements_of

ENUMERATION_LIMIT = 14
ORACLE_LIMIT = 10


class Semiflow(MonotoneMap):
    """Canonical semiflow: the identity at time zero, this map at every time after.

    A semiflow is its positive-time map, so ``values`` is that table and
    equality, hashing and the map operations are those of ``MonotoneMap``.
    """

    __slots__ = ()

    def __init__(self, poset, values):
        super().__init__(poset, values)
        if not self.is_strong_deformation_retraction():
            raise ValueError("semiflow map must be idempotent and below the identity")

    def evaluate(self, t, x):
        """State reached from ``x`` after time ``t``."""
        return self.values[x] if _positive(t) else x

    def at(self, t):
        """State table at time ``t``: entry ``x`` is ``evaluate(t, x)``."""
        if 0 < t < math.inf:
            return self.values
        _positive(t)  # raises unless t is zero
        return tuple(range(self.poset.n))

    moves = MonotoneMap.as_moves


def _positive(t):
    """Whether time ``t`` is past zero; the only thing a semiflow reads of it."""
    if not 0 <= t < math.inf:
        raise NegativeTimeError("time must be a finite non-negative number")
    return t != 0


def _law_holds(identity, zero, one, two):
    """The semigroup law on the state tables at times 0, 1 and 2.

    A semiflow reads a time only through whether it is zero, so the four
    classes ``(s, t)`` in ``{0, 1}**2`` stand for every pair of non-negative
    times.  Each class composes the table at ``s`` after the table at ``t``
    with ``maps._compose`` and compares the result with the table at
    ``s + t``; idempotence is not assumed, so a hand-built flow that skipped
    validation fails at s, t > 0.  When ``zero`` is the ``identity`` table,
    the classes with a zero time hold by the identity laws, so only
    ``(1, 1)`` is composed.
    """
    return (_compose(one, one) == two
            and (zero == identity
                 or _compose(zero, zero) == zero
                 and _compose(zero, one) == one
                 and _compose(one, zero) == one))


# -- enumeration ------------------------------------------------------------


def _tables(p):
    """Every semiflow value table on ``p``, one per fixed-point set.

    Depth-first over the elements in scan order, so all below an element
    is decided when it comes up and its lower covers' values give its down
    cover among the fixed points.  It is fixed first; dropping it to that
    cover is stacked when the cover exists.  A pop leaves all before it as
    it was, so the value table is all the state there is.
    """
    down, order = p._down, p._order
    lower = reduction._lower_lists(p)
    values = list(range(p.n))
    out, stack = [], []  # stack: (k, x, y): x drops to y, then order[k:] is left
    k = 0
    while True:
        for j in range(k, p.n):
            x = order[j]
            y = reduction._max_below(down, values, lower[x])
            if y is not None:
                stack.append((j + 1, x, y))
            values[x] = x
        out.append(tuple(values))
        if not stack:
            return out
        k, x, y = stack.pop()
        values[x] = y


def enumerate_semiflows(p, max_n=None):
    """Every semiflow on ``p``, canonically ordered.

    Returns one Semiflow per idempotent monotone map below the identity,
    the trivial one included, sorted lexicographically by value table.
    """
    check_size("semiflow enumeration", p.n, ENUMERATION_LIMIT, max_n)
    return [Semiflow._trusted(p, v) for v in sorted(_tables(p))]


def brute_force_oracle(p, max_n=None):
    """Independent enumeration: filter the full product of down-sets.

    Deliberately unclever, so it shares no logic with the optimized path it
    cross-checks: every value table in the product of down-sets is drawn,
    tested for idempotence as one composition (``maps._compose`` of the table
    after itself, compared with the table) and for monotonicity on every
    strictly comparable pair (not just covers), each pair read off the
    down-set bitmasks.  Below-identity holds by construction.
    """
    check_size("brute-force oracle", p.n, ORACLE_LIMIT, max_n)
    down = p._down
    pools = [elements_of(d) for d in down]
    lt_pairs = [(x, y) for y in range(p.n) for x in elements_of(p.strict_down(y))]
    out = []
    for values in itertools.product(*pools):
        if _compose(values, values) != values:
            continue
        for x, y in lt_pairs:
            if not down[values[y]] >> values[x] & 1:
                break
        else:
            out.append(MonotoneMap(p, values))
    out.sort(key=lambda f: f.values)
    return out


# -- counting and verification ------------------------------------------------


BoundCheck = namedtuple("BoundCheck", "name satisfied detail")


def _max_disjoint(p, pot_mask):
    """Largest subset of ``pot_mask`` with pairwise disjoint down-sets: an antichain."""
    cands = elements_of(pot_mask)
    best = 0
    # (i, chosen, union of their down-sets): cands[i:] is undecided.  The
    # branch that takes cands[i] is pushed last, so it is searched first,
    # and the bound is read when a branch is popped.
    stack = [(0, 0, 0)]
    while stack:
        i, chosen, union_down = stack.pop()
        if chosen.bit_count() + (len(cands) - i) <= best.bit_count():
            continue
        if i == len(cands):
            best = chosen  # larger than best, by the bound just passed
            continue
        x = cands[i]
        stack.append((i + 1, chosen, union_down))
        if p.down_set(x) & union_down == 0:
            stack.append((i + 1, chosen | (1 << x), union_down | p.down_set(x)))
    return best


_Census = namedtuple("_Census", "flows down pot checks")


def _census(p, max_n=None, flows=None):
    """The semiflows (unless given), D and R* of ``p``, and the counting checks on them."""
    if flows is None:
        flows = enumerate_semiflows(p, max_n=max_n)
    down = reduction.down_beat_points(p)
    pot = reduction.potential_down_beat_points(p, max_n=max_n)
    return _Census(flows, down, pot, _counting_checks(p, flows, down, pot))


def verify_counting_results(p, max_n=None, flows=None):
    """Evaluate the counting claims; failures carry a counterexample payload."""
    return _census(p, max_n, flows).checks


def _counting_checks(p, flows, d_mask, pot_mask):
    s_f = len(flows)
    d_size = d_mask.bit_count()
    checks = []

    ok = (d_mask == 0) == (s_f == 1)
    checks.append(BoundCheck(
        "d_empty_iff_single_semiflow", ok,
        f"|D|={d_size}, s_f={s_f}"))

    ok = s_f >= 2 ** d_size
    checks.append(BoundCheck(
        "count_at_least_two_pow_down_beats", ok,
        f"s_f={s_f} vs 2^{d_size}={2 ** d_size}"))

    a_mask = _max_disjoint(p, pot_mask)
    a_size = a_mask.bit_count()
    ok = s_f >= 2 ** a_size
    checks.append(BoundCheck(
        "count_at_least_two_pow_antichain", ok,
        f"s_f={s_f} vs 2^{a_size}={2 ** a_size} (A={p.labels_of(a_mask)})"))

    pot_heights = [p.heights[x] for x in elements_of(pot_mask)]
    if all(h == 1 for h in pot_heights):
        k = len(pot_heights)
        ok = s_f == 2 ** k
        checks.append(BoundCheck(
            "height_one_exact_count", ok,
            f"s_f={s_f} vs 2^{k}={2 ** k}"))
    else:
        checks.append(BoundCheck(
            "height_one_exact_count", True,
            "not applicable: potential points above height 1"))

    moved = 0
    bad = None
    for sf in flows:
        m = sf.moved_points()
        moved |= m
        if bad is None:
            for x in elements_of(m & ~d_mask):
                if p.strict_down(x) & d_mask & m == 0:
                    bad = (sf, x)
                    break
    ok = moved == pot_mask
    checks.append(BoundCheck(
        "movable_equals_potential", ok,
        f"movable={p.labels_of(moved)} potential={p.labels_of(pot_mask)}"))

    checks.append(BoundCheck(
        "moved_nondown_forces_moved_down_below", bad is None,
        "every moved non-down-beat sits above a moved down beat point" if bad is None
        else f"semiflow {bad[0].moves()!r} moves {p.labels[bad[1]]!r} alone"))

    return checks


# The times at which full_verification samples each semiflow: the semigroup
# law reads 0, 1 and 2, orbit containment 0, 0.75 and 2, the fixed floor 0
# and 1, and time monotonicity the pairs (0, 0.5), (0.25, 1) and (0, 3).
_SAMPLE_TIMES = (0, 0.25, 0.5, 0.75, 1, 2, 3.0)


def _below(within, passed, later, earlier):
    """Whether ``later <= earlier`` entrywise, by ``within`` on the entry pairs.

    Only a pair of unequal tables not in ``passed`` is tested; it joins if it holds.
    """
    if later == earlier or (later, earlier) in passed:
        return True
    if within(zip(later, earlier)):
        passed.append((later, earlier))
        return True
    return False


def _law_checks(p, flows):
    """The per-semiflow laws of ``full_verification``, one table per time.

    Each flow is read once at each of the seven sample times through
    ``Semiflow.at``, and each law is tested on that flow's tables by C-level
    table operations: the semigroup and floor laws compose tables with
    ``maps._compose``, and the orbit and monotonicity laws look every
    ``(later state, bound)`` pair up in the set of pairs ``y <= x``.  Such a
    containment is tested only when its ``(later, earlier)`` pair of tables
    differs from every pair this flow has passed, and equal tables pass by
    reflexivity, so a valid flow needs at most one subset test.  Nothing is
    kept from one flow to the next but the five verdicts.
    """
    xs = tuple(range(p.n))
    floor = tuple(x for x in xs if p.heights[x] == 0)
    within = {(y, x) for x in xs for y in elements_of(p.down_set(x))}.issuperset
    law = orbit = fixed = monotone = collapse = True
    for sf in flows:
        t0, t025, t05, t075, t1, t2, t3 = map(sf.at, _SAMPLE_TIMES)
        passed = []
        law = law and _law_holds(xs, t0, t1, t2)
        for t in (t0, t075, t2):
            orbit = orbit and _below(within, passed, t, xs)
        fixed = fixed and _compose(t0, floor) == floor and _compose(t1, floor) == floor
        for s, t in ((t0, t05), (t025, t1), (t0, t3)):
            monotone = monotone and _below(within, passed, t, s)
        # trivial (the identity) or not injective, so no flow over the reals
        collapse = collapse and (t1 == xs or len(set(t1)) < p.n)
    return [
        BoundCheck("semigroup_law", law, f"{len(flows)} semiflows x 4 time classes"),
        BoundCheck("orbit_containment", orbit,
                   "evaluate(t, x) stays in the down-set of x"),
        BoundCheck("floor_fixed", fixed,
                   "height-0 points are fixed at all times"),
        BoundCheck("time_monotone", monotone,
                   "later states sit below earlier ones"),
        BoundCheck("flow_triviality_nonbijective", collapse,
                   "non-trivial semiflow maps collapse at least one pair"),
    ]


def full_verification(p, max_n=None):
    """Counting claims plus the structural-law and cross-check suite.

    This is what the CLI ``verify`` command runs; every entry must be
    satisfied on any input.
    """
    flows, d_mask, pot_mask, checks = _census(p, max_n)
    checks += _law_checks(p, flows)

    core_poset, trace = reduction.core(p)
    checks.append(BoundCheck(
        "core_minimal", reduction.is_minimal_space(core_poset),
        f"core of size {core_poset.n} after {len(trace)} removals"))

    checks.append(BoundCheck(
        "down_beats_are_potential", d_mask & ~pot_mask == 0,
        f"D={p.labels_of(d_mask)} potential={p.labels_of(pot_mask)}"))

    ok = all(
        (1 << x) & d_mask or p.strict_down(x) & d_mask
        for x in elements_of(pot_mask))
    checks.append(BoundCheck(
        "potential_has_down_beat_below", ok,
        "every potential point is a down beat or has one strictly below"))

    ok = True
    for x in elements_of(pot_mask):
        r = reduction.retraction_from_sequence(p, reduction._witness(p, pot_mask, x))
        if not r.is_strong_deformation_retraction() or r.values[x] == x:
            ok = False
            break
    checks.append(BoundCheck(
        "potential_witness_retractions", ok,
        "witness sequences yield strong deformation retractions moving the endpoint"))

    if p.n <= ORACLE_LIMIT:
        oracle = brute_force_oracle(p)
        ok = flows == oracle
        checks.append(BoundCheck(
            "oracle_agreement", ok,
            f"enumerator and brute force both list {len(flows)} maps" if ok
            else f"enumerator={len(flows)} maps, oracle={len(oracle)} maps"))
    else:
        checks.append(BoundCheck(
            "oracle_agreement", True, "skipped: above the oracle size guard"))

    return checks
