"""Hand-rolled oracles used to cross-check the library.

Everything here deliberately avoids the code paths it checks: heights via
subset enumeration instead of the DP, monotonicity over all pairs instead
of covers, lower sets straight from the definition.  The searches at the
end (order isomorphism, monotone self-maps and homotopy fences) have no
caller in the library; they check cores, retractions and the enumerator.
"""

import itertools
import random
from collections import Counter, deque
from itertools import combinations, permutations

from finflow.errors import SizeLimitError, check_size
from finflow.maps import MonotoneMap
from finflow.poset import elements_of, mask_of

ISOMORPHISM_LIMIT = 16
FENCE_BUDGET = 50_000


def brute_height(p, x):
    """Longest chain inside the down-set of x, by trying every subset."""
    members = elements_of(p.down_set(x))
    best = 1
    for r in range(2, len(members) + 1):
        for combo in combinations(members, r):
            if all(p.leq(a, b) or p.leq(b, a) for a, b in combinations(combo, 2)):
                best = max(best, r)
    return best - 1


def brute_monotone(p, values):
    """Order preservation checked on every pair, reflexive ones included."""
    return all(p.leq(values[x], values[y])
               for x in range(p.n) for y in range(p.n) if p.leq(x, y))


def brute_lower_sets(p):
    """All lower sets, straight from the definition (2^n scan)."""
    out = []
    for mask in range(1 << p.n):
        if all(p.leq(y, x) <= bool((mask >> y) & 1)
               for x in elements_of(mask) for y in range(p.n)):
            out.append(mask)
    return out


def brute_down_beats(p):
    """Down beat points via an explicit maximum search."""
    out = set()
    for x in range(p.n):
        below = [y for y in range(p.n) if y != x and p.leq(y, x)]
        for m in below:
            if all(p.leq(y, m) for y in below):
                out.add(x)
                break
    return out


def brute_up_beats(p):
    out = set()
    for x in range(p.n):
        above = [y for y in range(p.n) if y != x and p.leq(x, y)]
        for m in above:
            if all(p.leq(m, y) for y in above):
                out.add(x)
                break
    return out


def disjoint_union(p, q):
    """Side-by-side union of two posets with prefixed labels."""
    from finflow.poset import Poset

    labels = [f"l_{lab}" for lab in p.labels] + [f"r_{lab}" for lab in q.labels]
    pairs = [(f"l_{p.labels[a]}", f"l_{p.labels[b]}") for a, b in p.covers]
    pairs += [(f"r_{q.labels[a]}", f"r_{q.labels[b]}") for a, b in q.covers]
    return Poset.from_relations(labels, pairs)


def reference_down_rows(labels, pairs):
    """Down-set rows by closing the strict relation until nothing changes.

    A fixpoint loop, independent of the topological pass in
    ``Poset.from_relations``; returns None on a cycle instead of raising.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    up = [0] * n
    for a, b in pairs:
        up[index[a]] |= 1 << index[b]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = up[x]
            for y in elements_of(acc):
                acc |= up[y]
            if acc != up[x]:
                up[x] = acc
                changed = True
    if any((up[x] >> x) & 1 for x in range(n)):
        return None
    down = [1 << x for x in range(n)]
    for x in range(n):
        for y in elements_of(up[x]):
            down[y] |= 1 << x
    return down


def reference_is_order(rows):
    """Whether down-set rows (bit a of row b set when a <= b) form a partial order.

    Straight from the definition: rows within range, then reflexivity,
    antisymmetry over every pair and transitivity over every triple.
    """
    n = len(rows)

    def leq(a, b):
        return (rows[b] >> a) & 1 == 1

    return (all(0 <= row < 1 << n for row in rows)
            and all(leq(x, x) for x in range(n))
            and not any(leq(a, b) and leq(b, a) for a, b in combinations(range(n), 2))
            and all(leq(a, c) for a in range(n) for b in range(n) for c in range(n)
                    if leq(a, b) and leq(b, c)))


def reference_is_isomorphic(p, q):
    """Whether some bijection carries the order of ``p`` onto that of ``q``.

    Tries every permutation, so small inputs only.
    """
    return p.n == q.n and any(
        all(p.leq(a, b) == q.leq(sigma[a], sigma[b]) for a in range(p.n) for b in range(p.n))
        for sigma in permutations(range(q.n)))


def transposed(rows):
    """Rows of the opposite order: bit ``b`` of row ``a`` is bit ``a`` of row ``b``.

    On down-set rows this gives the up-sets, one bit at a time.
    """
    out = [0] * len(rows)
    for b, row in enumerate(rows):
        for a in elements_of(row):
            out[a] |= 1 << b
    return out


def reference_covers(p):
    """Cover pairs: a < b with nothing strictly between, one pair at a time."""
    above = [row & ~(1 << a) for a, row in enumerate(transposed(p._down))]
    return tuple((a, b) for a in range(p.n) for b in elements_of(above[a])
                 if above[a] & p.strict_down(b) == 0)


def reference_heights(p):
    """Heights by relaxing over every strict pair in increasing down-set size."""
    order = sorted(range(p.n), key=lambda x: p.down_set(x).bit_count())
    ht = [0] * p.n
    for x in order:
        for y in elements_of(p.strict_down(x)):
            ht[x] = max(ht[x], ht[y] + 1)
    return tuple(ht)


def reference_core(p):
    """Core by rescanning every live point after each deletion.

    The deletion rule of ``reduction.core`` (lowest-index beat point first)
    with the beat test spelled out: some member of the strict down-set
    (up-set) lies above (below) all of it.  Returns ``(core labels, trace)``.
    """
    def has_top(mask, rows):
        return any(mask & ~rows[m] == 0 for m in elements_of(mask))

    downs = [p.down_set(x) for x in range(p.n)]
    ups = transposed(p._down)
    alive = (1 << p.n) - 1
    trace = []
    while True:
        for x in elements_of(alive):
            if (has_top(p.strict_down(x) & alive, downs)
                    or has_top(ups[x] & ~(1 << x) & alive, ups)):
                alive &= ~(1 << x)
                trace.append(x)
                break
        else:
            return tuple(p.labels_of(alive)), trace


def shuffled_spaces(count, seed):
    """``(labels, pairs)`` of random posets of 20-200 points, shuffled.

    Every third one also carries a chain and every third a sphere model as
    further components, so long chains of beat points and large minimal
    pieces both occur.
    """
    from finflow import families

    rng = random.Random(seed)
    out = []
    for i in range(count):
        p = families.random_poset(rng.randint(20, 200),
                                  rng.choice((0.005, 0.02, 0.05, 0.1, 0.3)),
                                  rng.getrandbits(32))
        if i % 3 == 1:
            p = disjoint_union(p, families.chain(rng.randint(2, 40)))
        elif i % 3 == 2:
            p = disjoint_union(p, sphere_model(rng.randint(2, 20)))
        out.append(shuffled_relations(p, rng))
    return out


def shuffled_relations(p, rng):
    """Labels and cover pairs of ``p``, both in a random order."""
    labels = list(p.labels)
    rng.shuffle(labels)
    pairs = [(p.labels[a], p.labels[b]) for a, b in p.covers]
    rng.shuffle(pairs)
    return labels, pairs


def top_first(p):
    """``p`` with its labels in reverse index order, so bottom first becomes top first."""
    from finflow.poset import Poset

    pairs = [(p.labels[a], p.labels[b]) for a, b in p.covers]
    return Poset.from_relations(p.labels[::-1], pairs)


def reference_subposet(p, mask):
    """``(subposet, old indices)`` on ``mask``, built by the validating constructor.

    The rows are read off ``p.leq`` one pair at a time, so nothing here
    shares code with the deletion step behind ``Poset.induced`` and ``core``.
    """
    from finflow.poset import Poset

    old = elements_of(mask)
    rows = [mask_of(i for i, y in enumerate(old) if p.leq(y, x)) for x in old]
    return Poset([p.labels[x] for x in old], rows), tuple(old)


def sphere_model(k):
    """Minimal finite model of the (k-1)-sphere: k two-point antichains stacked."""
    from finflow.poset import Poset

    labels = [f"s{d}{side}" for d in range(k) for side in "ab"]
    pairs = [(f"s{d - 1}{lo}", f"s{d}{hi}") for d in range(1, k) for lo in "ab" for hi in "ab"]
    return Poset.from_relations(labels, pairs)


def reference_semigroup_law(sf):
    """The semigroup law over the four time classes, one point at a time."""
    for s in (0, 1):
        for t in (0, 1):
            for x in range(sf.poset.n):
                if sf.evaluate(s, sf.evaluate(t, x)) != sf.evaluate(s + t, x):
                    return False
    return True


def reference_law_checks(p, flows):
    """The five per-semiflow laws of ``full_verification``, point by point.

    Calls ``Semiflow.evaluate`` for every flow, point and sample time, and
    builds each check in its own pass, independent of the table-wise
    ``semiflow._law_checks``.
    """
    from finflow.semiflow import BoundCheck

    checks = []
    ok = all(reference_semigroup_law(sf) for sf in flows)
    checks.append(BoundCheck(
        "semigroup_law", ok,
        f"{len(flows)} semiflows x 4 time classes"))

    ok = all(
        (p.down_set(x) >> sf.evaluate(t, x)) & 1
        for sf in flows for x in range(p.n) for t in (0, 0.75, 2.0))
    checks.append(BoundCheck("orbit_containment", ok, "evaluate(t, x) stays in the down-set of x"))

    ok = all(
        sf.evaluate(t, x) == x
        for sf in flows for x in range(p.n) if p.heights[x] == 0 for t in (0, 1.0))
    checks.append(BoundCheck("floor_fixed", ok, "height-0 points are fixed at all times"))

    ok = True
    for sf in flows:
        for s, t in ((0, 0.5), (0.25, 1.0), (0, 3.0)):
            if not all(p.leq(sf.evaluate(t, x), sf.evaluate(s, x)) for x in range(p.n)):
                ok = False
    checks.append(BoundCheck("time_monotone", ok, "later states sit below earlier ones"))

    def collapses(sf):
        """Whether the time-1 states are the identity or repeat a state."""
        states = [sf.evaluate(1, x) for x in range(p.n)]
        return states == list(range(p.n)) or len(set(states)) < p.n

    checks.append(BoundCheck(
        "flow_triviality_nonbijective", all(collapses(sf) for sf in flows),
        "non-trivial semiflow maps collapse at least one pair"))
    return checks


def reference_counting_checks(p, flows):
    """The six counting checks of ``verify_counting_results``, point by point.

    Reads each flow through ``Semiflow.evaluate(1, x)`` and the order
    through ``p.leq``; D comes from ``brute_down_beats``, R* from
    ``reference_removal_search`` and the antichain A from the first family
    of pairwise disjoint down-sets in ``combinations`` order at the largest
    size, so it shares no code with ``semiflow._counting_checks``.
    """
    from finflow.semiflow import BoundCheck

    def labels(points):
        return [p.labels[x] for x in sorted(points)]

    s_f = len(flows)
    down = brute_down_beats(p)
    pot = set(reference_removal_search(p))
    checks = [
        BoundCheck("d_empty_iff_single_semiflow", (not down) == (s_f == 1),
                   f"|D|={len(down)}, s_f={s_f}"),
        BoundCheck("count_at_least_two_pow_down_beats", s_f >= 2 ** len(down),
                   f"s_f={s_f} vs 2^{len(down)}={2 ** len(down)}"),
    ]

    def disjoint(a, b):
        return not any(p.leq(z, a) and p.leq(z, b) for z in range(p.n))

    antichain = ()
    for size in range(1, len(pot) + 1):
        family = next((c for c in combinations(sorted(pot), size)
                       if all(disjoint(a, b) for a, b in combinations(c, 2))), None)
        if family is None:
            break
        antichain = family
    k = len(antichain)
    checks.append(BoundCheck(
        "count_at_least_two_pow_antichain", s_f >= 2 ** k,
        f"s_f={s_f} vs 2^{k}={2 ** k} (A={labels(antichain)})"))

    if all(p.heights[x] == 1 for x in pot):
        checks.append(BoundCheck("height_one_exact_count", s_f == 2 ** len(pot),
                                 f"s_f={s_f} vs 2^{len(pot)}={2 ** len(pot)}"))
    else:
        checks.append(BoundCheck("height_one_exact_count", True,
                                 "not applicable: potential points above height 1"))

    movable = {x for sf in flows for x in range(p.n) if sf.evaluate(1, x) != x}
    checks.append(BoundCheck(
        "movable_equals_potential", movable == pot,
        f"movable={labels(movable)} potential={labels(pot)}"))

    detail = "every moved non-down-beat sits above a moved down beat point"
    lone = next(((sf, x) for sf in flows for x in range(p.n)
                 if sf.evaluate(1, x) != x and x not in down
                 and not any(d != x and p.leq(d, x) and sf.evaluate(1, d) != d for d in down)),
                None)
    if lone is not None:
        sf, x = lone
        detail = f"semiflow {sf.moves()!r} moves {p.labels[x]!r} alone"
    checks.append(BoundCheck("moved_nondown_forces_moved_down_below", lone is None, detail))
    return checks


def reference_product_oracle(p):
    """Idempotent monotone tables in the product of down-sets, from the definitions.

    Calls ``p.leq`` once per strictly comparable pair and tests idempotence
    point by point, independent of the bitmask tests in
    ``semiflow.brute_force_oracle``.  Returns the maps sorted by value table.
    """
    pools = [elements_of(p.down_set(x)) for x in range(p.n)]
    lt_pairs = [(x, y) for x in range(p.n) for y in range(p.n) if x != y and p.leq(x, y)]
    out = []
    for values in itertools.product(*pools):
        if any(not p.leq(values[x], values[y]) for x, y in lt_pairs):
            continue
        if any(values[values[x]] != values[x] for x in range(p.n)):
            continue
        out.append(MonotoneMap(p, values))
    out.sort(key=lambda f: f.values)
    return out


def reference_semiflow_tables(p, budget):
    """Idempotent members of every monotone map below the identity, sorted.

    Lists the maps with ``f(x)`` in the down-set of ``x`` through
    ``_monotone_tables`` and keeps the idempotent ones, so it shares
    no rule with the enumerator's fixed-point-set search.  Returns None
    once the listing passes ``budget`` maps.
    """
    out = []
    listed = 0
    for values in _monotone_tables(p, [p.down_set(x) for x in range(p.n)]):
        listed += 1
        if listed > budget:
            return None
        if all(values[y] == y for y in values):
            out.append(tuple(values))
    return sorted(out)


def reference_movable(p):
    """Points moved by at least one semiflow, read off every enumerated value table."""
    from finflow.semiflow import enumerate_semiflows

    moved = 0
    for sf in enumerate_semiflows(p):
        moved |= mask_of(x for x, v in enumerate(sf.values) if v != x)
    return moved


def reference_removal_search(p, strict_heights=False):
    """Potential down beat points by searching removal sequences, each with one.

    Depth-first over removal states ``(remaining set, height floor)``, each
    expanded once, with heights taken in the original space; a later
    removal may repeat the floor's height unless ``strict_heights``.  A
    point is a down beat point of the remaining set when its strict
    down-set there has a member above all the others, tested from that
    definition.  Returns each removable point mapped to the first sequence
    found that removes it, so it shares no rule with the one-scan
    ``potential_down_beat_points``.  Exponential; small inputs only.
    """
    def removable(alive, floor):
        """Down beat points of ``alive`` that may follow a removal at ``floor``."""
        out = []
        for x in elements_of(alive):
            h = p.heights[x]
            if h < floor or (strict_heights and h == floor):
                continue
            below = p.strict_down(x) & alive
            if any(below & ~p.down_set(m) == 0 for m in elements_of(below)):
                out.append(x)
        return iter(out)

    witnesses = {}
    seen = set()
    path = []  # the point removed to reach each frame but the first
    full = (1 << p.n) - 1
    stack = [(full, removable(full, -1))]
    while stack:
        alive, todo = stack[-1]
        x = next(todo, None)
        if x is None:
            stack.pop()
            if path:
                path.pop()
            continue
        path.append(x)
        witnesses.setdefault(x, tuple(path))
        state = (alive & ~(1 << x), p.heights[x])
        if state in seen:
            path.pop()
            continue
        seen.add(state)
        stack.append((state[0], removable(*state)))
    return witnesses


def is_isomorphic(p, q, max_n=None):
    """Exact order-isomorphism test by backtracking.

    Candidates are pruned by per-element invariants (height, down/up set
    sizes, cover degrees).  Worst case exponential, hence the size guard;
    it is only meant for small cores.
    """
    check_size("isomorphism test", max(p.n, q.n), ISOMORPHISM_LIMIT, max_n)
    if p.n != q.n:
        return False

    def profiles(r):
        n_lower = Counter(b for _, b in r.covers)
        n_upper = Counter(a for a, _ in r.covers)
        up = transposed(r._down)
        return [(r.heights[x], r.down_set(x).bit_count(), up[x].bit_count(),
                 n_lower[x], n_upper[x]) for x in range(r.n)]

    pprof = profiles(p)
    qprof = profiles(q)
    if sorted(pprof) != sorted(qprof):
        return False
    cands = {}
    for y, prof in enumerate(qprof):
        cands.setdefault(prof, []).append(y)
    mapped = [-1] * p.n
    lower = _lower_covers(p)

    def images(x, seen):
        """Images of ``x`` that agree with the points mapped onto ``seen``.

        Points are mapped in scan order and keep their heights, so ``seen``
        holds every point of ``q`` lower than ``y`` and none above it.  So
        ``y`` agrees exactly when its down-set within ``seen`` is the image
        of the strict down-set of ``x``, the union of the down-sets of its
        lower covers' images; that also keeps ``y`` out of ``seen``.
        """
        below = 0
        for c in lower[x]:
            below |= q._down[mapped[c]]
        for y in cands[pprof[x]]:
            if q._down[y] & seen == below:
                yield y

    if p.n == 0:
        return True
    order = p._order
    # stack[k] iterates the images of order[k] and holds those of order[:k]:
    # deep posets need no recursion
    stack = [(images(order[0], 0), 0)]
    while stack:
        todo, seen = stack[-1]
        y = next(todo, None)
        if y is None:
            stack.pop()
            continue
        k = len(stack)
        mapped[order[k - 1]] = y
        if k == p.n:
            return True
        seen |= 1 << y
        stack.append((images(order[k], seen), seen))
    return False


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
    for rows in (transposed(poset._down), poset._down):
        for values in _monotone_tables(poset, [rows[v] for v in base]):
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
    up = transposed(poset._down)
    lower = _lower_covers(poset)
    values = [0] * n

    def candidates(x):
        cand = allowed[x]
        for w in lower[x]:
            cand &= up[values[w]]
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


def _lower_covers(p):
    """The lower covers of each point, read from ``p.covers`` in one pass."""
    lower = [[] for _ in range(p.n)]
    for a, b in p.covers:
        lower[b].append(a)
    return lower


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
    ``max_steps`` comparisons.  It cross-checks the one-step fence used by
    ``is_strong_deformation_retraction`` and the rigidity of minimal spaces.

    Raises SizeLimitError when the search visits more than ``budget`` maps.
    """
    if f.poset is not g.poset:
        raise ValueError("maps are defined on different posets")
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
