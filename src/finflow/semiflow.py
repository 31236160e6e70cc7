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
(``reduction._tables``); monotonicity and idempotence follow.

The counting checks read the semiflows, the down beat points D and the
potential down beat points R*; ``_census`` derives all four once per call
for ``verify_counting_results``, ``full_verification`` and ``report.analyze``.
Both the counting checks and the laws of ``full_verification`` read the
flows point by point, many flows at once: the movable points off one row
per point across all the flows, the laws off the columns of the state
tables of a block of flows.
"""

import itertools
import math
from collections import namedtuple
from operator import itemgetter, ne

from . import reduction
from .errors import InvalidSequenceError, NegativeTimeError, check_size
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
        """State reached from ``x`` after time ``t``: entry ``x`` of ``at(t)``."""
        return self.at(t)[x]

    def at(self, t):
        """State table at time ``t``, the one time rule: identity at zero, ``values`` after."""
        if 0 < t < math.inf:
            return self.values
        if t == 0:
            return tuple(range(self.poset.n))
        raise NegativeTimeError("time must be a finite non-negative number")

    moves = MonotoneMap.as_moves


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


def enumerate_semiflows(p, max_n=None):
    """Every semiflow on ``p``, canonically ordered.

    Returns one Semiflow per idempotent monotone map below the identity,
    the trivial one included, sorted lexicographically by value table.
    """
    check_size("semiflow enumeration", p.n, ENUMERATION_LIMIT, max_n)
    return [Semiflow._trusted(p, v) for v in sorted(reduction._tables(p))]


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

    # one row per point x, with byte i non-zero when flow i moves x
    tables = [sf.values for sf in flows]
    rows = [int.from_bytes(bytes(map(ne, map(itemgetter(x), tables), itertools.repeat(x))),
                           "little") for x in range(p.n)]
    moved = sum(1 << x for x, row in enumerate(rows) if row)
    # (lowest bit, x) of the flows that move x, outside D, and no point of D below x
    lone = []
    for x in elements_of(moved & ~d_mask):
        alone = rows[x]
        for d in elements_of(p.strict_down(x) & d_mask):
            alone &= ~rows[d]
        if alone:
            lone.append(((alone & -alone).bit_length(), x))
    bad = None
    if lone:
        bit, x = min(lone)
        bad = (flows[bit // 8], x)
    # R* is what the search's first, greedy flow moves, so no flow may move more
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


# Flows per block in ``_law_checks``: the columns of one block are held at
# once, so the block bounds the memory that the transposed tables take.
_BLOCK = 512


def _columns(table_lists):
    """The columns ``zip(*tables)`` of each list of tables; equal lists share one."""
    seen, out = [], []
    for tables in table_lists:
        for known, cols in seen:
            if known == tables:
                break
        else:
            cols = list(zip(*tables))
            seen.append((tables, cols))
        out.append(cols)
    return out


def _columns_below(downs, later, earlier):
    """Whether each ``later`` column sits below its ``earlier`` column, point by point.

    The same list passes by reflexivity.  Where the bound column is the
    point x throughout, the later column is one subset test against the
    down-set of x; elsewhere each later state is looked up in the down-set
    of its bound.
    """
    if later is earlier:
        return True
    for x, (col, bound) in enumerate(zip(later, earlier)):
        if bound.count(x) == len(bound):
            if not downs[x].issuperset(col):
                return False
        elif not all(y in downs[b] for y, b in zip(col, bound)):
            return False
    return True


def _law_checks(p, flows):
    """The per-semiflow laws of ``full_verification``, point by point over blocks of flows.

    Each flow is read once at each of the seven sample times through
    ``Semiflow.at``, as one list of tables per time for each block of
    ``_BLOCK`` flows.  The semigroup law and non-bijectivity are tested on
    each flow's tables: ``_law_holds``, and a count of the bijective time-1
    tables against the identity tables among them.  The orbit, floor and
    monotonicity laws are tested per point x on the columns of the block,
    the states of its flows at x: a column below its bound by
    ``_columns_below``, a floor column by counting x in it.  Equal lists of
    tables share one list of columns, and each distinct pair of column
    lists is tested once, so a block of valid flows is transposed at time
    zero and at the positive times and takes one subset test per point.
    """
    xs = tuple(range(p.n))
    floor = [x for x in xs if p.heights[x] == 0]
    downs = [frozenset(elements_of(d)) for d in p._down]
    law = orbit = fixed = monotone = collapse = True
    for i in range(0, len(flows), _BLOCK):
        block = flows[i:i + _BLOCK]
        tables = [[sf.at(t) for sf in block] for t in _SAMPLE_TIMES]
        t0, t025, t05, t075, t1, t2, t3 = tables
        law = law and all(map(_law_holds, itertools.repeat(xs), t0, t1, t2))
        # trivial (the identity) or not injective, so no flow over the reals:
        # every bijective time-1 table is an identity table
        collapse = collapse and list(map(len, map(set, t1))).count(p.n) == t1.count(xs)
        ident, c0, c025, c05, c075, c1, c2, c3 = _columns([[xs] * len(block), *tables])
        fixed = fixed and all(c[x].count(x) == len(block) for c in (c0, c1) for x in floor)
        orbit_pairs = ((c0, ident), (c075, ident), (c2, ident))
        monotone_pairs = ((c05, c0), (c1, c025), (c3, c0))
        pairs = {(id(l), id(e)): (l, e) for l, e in (*orbit_pairs, *monotone_pairs)}
        below = {key: _columns_below(downs, *pair) for key, pair in pairs.items()}
        orbit = orbit and all(below[id(l), id(e)] for l, e in orbit_pairs)
        monotone = monotone and all(below[id(l), id(e)] for l, e in monotone_pairs)
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
        try:
            r = reduction.retraction_from_sequence(p, reduction._witness(p, pot_mask, x))
        except (InvalidSequenceError, ValueError):  # the replay refuses the witness
            r = None
        if r is None or not r.is_strong_deformation_retraction() or r.values[x] == x:
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
