"""Independent reference implementations used to derive expected values.

The value oracles work on frozensets via itertools, deliberately avoiding the
library's bitmask scans, so a disagreement points at a real bug rather than a
shared mistake; the greedy-restricted references keep frozensets too and
report their witnesses as masks. The witness references at the end walk
plain masks instead,
because the witness order the library documents is an order on masks; they
visit every pair directly, in that order, with no transform or shortcut.
The one exception, ``reference_fold_ratio_scan``, keeps the library's
unpruned transform scan as the baseline its pruned ratio scan must match.
"""

import itertools

from matroid_greedy import setfunc
from matroid_greedy.matroids import (
    DualSpec,
    ExplicitSpec,
    GraphicSpec,
    PartitionSpec,
    TruncateSpec,
    UniformSpec,
)


def powerset(universe):
    items = sorted(universe)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def value(values, subset):
    return values[sum(1 << e for e in subset)]


def marg(values, subset, j):
    return value(values, subset | {j}) - value(values, subset)


def naive_gamma(values, n):
    """Minimum of marg_j(S)/marg_j(R) over nested pairs, zero denominators skipped."""
    universe = frozenset(range(n))
    best = 1.0
    for big in powerset(universe):
        for small in powerset(big):
            for j in universe - big:
                d_big = marg(values, big, j)
                if d_big <= 0:
                    continue
                best = min(best, marg(values, small, j) / d_big)
    return max(0.0, best)


def naive_alpha(values, n):
    """One minus the minimum of marg_j(R)/marg_j(S) over nested pairs."""
    universe = frozenset(range(n))
    best = 1.0
    for big in powerset(universe):
        for small in powerset(big):
            for j in universe - big:
                d_small = marg(values, small, j)
                if d_small <= 0:
                    continue
                best = min(best, marg(values, big, j) / d_small)
    return 1.0 - max(0.0, best)


def naive_gamma_cumulative(values, n):
    """Minimum of (sum of singleton marginals) / set marginal over all pairs."""
    universe = frozenset(range(n))
    best = 1.0
    for small in powerset(universe):
        for other in powerset(universe):
            denom = value(values, small | other) - value(values, small)
            if denom <= 0:
                continue
            num = sum(marg(values, small, j) for j in other - small)
            best = min(best, num / denom)
    return max(0.0, best)


def is_submodular(values, n):
    """Direct scan of the diminishing-marginals inequalities."""
    universe = frozenset(range(n))
    for big in powerset(universe):
        for small in powerset(big):
            for j in universe - big:
                if marg(values, big, j) > marg(values, small, j):
                    return False
    return True


def is_supermodular(values, n):
    """Direct scan of the increasing-marginals inequalities."""
    universe = frozenset(range(n))
    for big in powerset(universe):
        for small in powerset(big):
            for j in universe - big:
                if marg(values, big, j) < marg(values, small, j):
                    return False
    return True


def naive_strong_curvature(values, n):
    """1 - min over unrestricted pairs S, R avoiding j of marg_j(R)/marg_j(S)."""
    universe = frozenset(range(n))
    best = 1.0
    for j in universe:
        rest = universe - {j}
        for s_small in powerset(rest):
            d_s = marg(values, s_small, j)
            if d_s <= 0:
                continue
            for s_big in powerset(rest):
                best = min(best, marg(values, s_big, j) / d_s)
    return 1.0 - max(0.0, best)


def naive_rank(is_independent, subset_mask, n):
    """Largest independent subset size, by full enumeration."""
    members = [e for e in range(n) if subset_mask >> e & 1]
    best = 0
    for r in range(len(members), -1, -1):
        for combo in itertools.combinations(members, r):
            if is_independent(sum(1 << e for e in combo)):
                return r
    return best


def naive_bases(is_independent, n):
    """Maximal independent sets: independent and not extendable by any element."""
    out = []
    for mask in range(1 << n):
        if not is_independent(mask):
            continue
        if all(
            mask >> j & 1 or not is_independent(mask | 1 << j) for j in range(n)
        ):
            out.append(mask)
    return out


def reference_bases(rank, n, r):
    """Masks of size r and rank r, by a filter over all 2^n masks, ascending."""
    return [m for m in range(1 << n) if m.bit_count() == r and rank(m) == r]


def plain_graphic_rank(edges, subset):
    """Rank of the edges of ``subset`` by a fresh union-find over a dict.

    Nothing is kept between calls, so the answer cannot depend on the order
    of earlier calls.
    """
    parent = {}

    def root(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    merges = 0
    for i, (u, v) in enumerate(edges):
        if subset >> i & 1:
            u, v = root(u), root(v)
            if u != v:
                parent[u] = v
                merges += 1
    return merges


def _acyclic(edges):
    """Whether a list of (u, v) edges is a forest: a component search per edge.

    An edge closes a cycle iff its endpoints already share a component of the
    edges before it; a self-loop always does.
    """
    adjacent = {}
    for u, v in edges:
        seen, stack = {u}, [u]
        while stack:
            for w in adjacent.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if v in seen:
            return False
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    return True


def reference_independent(spec, n):
    """The independent sets of a spec over {0..n-1}, as a set of frozensets.

    Each kind follows its definition, with no library oracle: a size cap, a
    count per block, acyclicity, membership; a truncation caps the size of
    inner independent sets, and a dual set avoids some maximal inner one.
    """
    subsets = list(powerset(range(n)))
    if isinstance(spec, UniformSpec):
        return {s for s in subsets if len(s) <= spec.rank}
    if isinstance(spec, PartitionSpec):
        return {
            s
            for s in subsets
            if all(len(s & set(b)) <= cap for b, cap in zip(spec.blocks, spec.capacities))
        }
    if isinstance(spec, GraphicSpec):
        return {s for s in subsets if _acyclic([spec.edges[e] for e in sorted(s)])}
    if isinstance(spec, ExplicitSpec):
        return {s for s in subsets if sum(1 << e for e in s) in spec.independent}
    inner = reference_independent(spec.of, n)
    if isinstance(spec, TruncateSpec):
        return {s for s in inner if len(s) <= spec.q}
    if isinstance(spec, DualSpec):
        maximal = [b for b in inner if not any(b < other for other in inner)]
        return {s for s in subsets if any(s.isdisjoint(b) for b in maximal)}
    raise ValueError(f"unknown spec {spec!r}")


def reference_ratio_scan(values, n):
    """(gamma, alpha, gamma witness, alpha witness) by direct enumeration.

    Visits every (S, R, j) with R ascending, S over the submasks of R
    descending and j outside R ascending, and keeps the first triple that
    attains each minimum; zero-denominator pairs are skipped.
    """
    g_best = a_best = g_wit = a_wit = None
    for big in range(1 << n):
        for small in range(big, -1, -1):
            if small & ~big:
                continue
            for j in range(n):
                if big >> j & 1:
                    continue
                d_small = values[small | 1 << j] - values[small]
                d_big = values[big | 1 << j] - values[big]
                if d_big > 0.0:
                    r = d_small / d_big
                    if g_best is None or r < g_best:
                        g_best, g_wit = r, (small, big, j)
                if d_small > 0.0:
                    r = d_big / d_small
                    if a_best is None or r < a_best:
                        a_best, a_wit = r, (small, big, j)
    gamma = 1.0 if g_best is None else g_best
    alpha = 0.0 if a_best is None else 1.0 - a_best
    return gamma, alpha, g_wit, a_wit


def reference_fold_ratio_scan(values, n):
    """:class:`RatioScan` of an increasing table by subset transforms of every element.

    For each j, the subset min and max transforms of its marginals give each
    R's extreme marg_j(S) over S <= R, so every (R, j) ratio and the first R
    attaining each minimum come out of two full transforms per element; the
    pairs of that R are then scanned for the witness. This is the n^2 * 2^n
    scan with no pruning, so it stays cheap at n = 10..14.
    """
    vals = tuple(values)
    inf = float("inf")
    g_first = a_first = (inf, -1)
    for j in range(n):
        d = setfunc._marginals(vals, j)
        low = setfunc._subset_fold(d[:], largest=False)
        high = setfunc._subset_fold(d[:], largest=True)
        ratios = [m / x if x > 0.0 else inf for m, x in zip(low, d)]
        g_first = setfunc._first_min(g_first, ratios, j)
        ratios = [x / m if m > 0.0 else inf for m, x in zip(high, d)]
        a_first = setfunc._first_min(a_first, ratios, j)
    g_best, g_wit = setfunc._pairs_min(vals, n, g_first, curvature=False)
    a_best, a_wit = setfunc._pairs_min(vals, n, a_first, curvature=True)
    gamma = 1.0 if g_best is None else setfunc._clamp_ratio(g_best, "submodularity-ratio")
    alpha = 0.0 if a_best is None else 1.0 - setfunc._clamp_ratio(a_best, "curvature")
    return setfunc.RatioScan(gamma, alpha, g_wit, a_wit)


def reference_cumulative_scan(values, n):
    """(cumulative ratio, witness) over all ordered pairs (S, R) of masks.

    S ascending, then R ascending, first minimum kept; each numerator adds
    the singleton marginals of R \\ S in ascending element order.
    """
    best = wit = None
    for small in range(1 << n):
        for other in range(1 << n):
            denom = values[small | other] - values[small]
            if denom <= 0.0:
                continue
            total = 0.0
            for j in range(n):
                if other >> j & 1 and not small >> j & 1:
                    total += values[small | 1 << j] - values[small]
            r = total / denom
            if best is None or r < best:
                best, wit = r, (small, other)
    return (1.0 if best is None else best), wit


def reference_forward_greedy(values, is_independent, cardinality):
    """Forward greedy by the direct grow-from-empty loop, reading only values and independence.

    Repeatedly takes the smallest marginal f(S + j) - f(S) over the
    never-considered elements, ties to the smallest id, and inserts it iff
    S + j is independent (``is_independent`` takes a mask); a rejected
    element is never reconsidered. Returns (steps, rejected, final set,
    f(empty), f(final set)) shaped as in :func:`reference_reverse_greedy`.
    """
    n = len(values).bit_length() - 1
    current = considered = 0
    t = 1
    steps = []
    rejected = []
    while current.bit_count() < cardinality:
        best = best_val = None
        for j in range(n):
            if considered >> j & 1:
                continue
            val = values[current | 1 << j] - values[current]
            if best is None or val < best_val:
                best, best_val = j, val
        bit = 1 << best
        considered |= bit
        if is_independent(current | bit):
            current |= bit
            steps.append((t, best, best_val, current))
            t += 1
        else:
            rejected.append((t, best))
    return steps, rejected, current, values[0], values[current]


def reference_reverse_greedy(values, matroid, cardinality):
    """Reverse greedy by the direct shrink-from-V loop, reading only values and rank.

    Repeatedly takes the largest removal marginal f(S) - f(S - j) over the
    never-considered elements, ties to the smallest id, and removes it iff
    rank(S - j) >= cardinality; a rejected element is never reconsidered.
    Returns (steps, rejected, final set, f(V), f(final set)) with steps as
    (t, element, marginal, set after) and rejections as (step, element).
    """
    n = len(values).bit_length() - 1
    current = (1 << n) - 1
    considered = 0
    t = 1
    steps = []
    rejected = []
    while current.bit_count() > cardinality:
        best = best_val = None
        for j in range(n):
            if considered >> j & 1:
                continue
            val = values[current] - values[current & ~(1 << j)]
            if best is None or val > best_val:
                best, best_val = j, val
        bit = 1 << best
        considered |= bit
        if matroid.rank(current & ~bit) < cardinality:
            rejected.append((t, best))
        else:
            current &= ~bit
            steps.append((t, best, best_val, current))
            t += 1
    return steps, rejected, current, values[-1], values[current]


def _mask(subset):
    return sum(1 << e for e in subset)


def _into_unit(x):
    """x moved into [0, 1] only when outside it, so a -0.0 minimum stays -0.0."""
    return x if 0.0 <= x <= 1.0 else min(1.0, max(0.0, x))


def reference_strong_curvature(values, n):
    """(c, forward bound, reverse bound, witness) of strong curvature, over frozensets.

    For each element j in ascending order, the marginals of j over the
    subsets avoiding j, taken in ascending mask order, give the first S with
    the largest marginal and the first R with the smallest. An element binds
    where its largest marginal is positive; the first one with the strictly
    smallest ratio (smallest / largest) gives the witness (j, mask of S,
    mask of R). c is one minus that ratio, moved into [0, 1] only when
    outside it, and 0.0 when nothing binds; the bounds are 1 / (1 - c), +inf
    at c = 1, and 1 - c.
    """
    universe = frozenset(range(n))
    worst = wit = None
    for j in sorted(universe):
        big = small = None
        for subset in sorted(powerset(universe - {j}), key=_mask):
            d = marg(values, subset, j)
            if big is None or d > big[0]:
                big = (d, subset)
            if small is None or d < small[0]:
                small = (d, subset)
        if big[0] > 0:
            ratio = small[0] / big[0]
            if worst is None or ratio < worst:
                worst, wit = ratio, (j, _mask(big[1]), _mask(small[1]))
    c = 0.0 if worst is None else 1.0 - _into_unit(worst)
    return c, float("inf") if c == 1.0 else 1.0 / (1.0 - c), 1.0 - c, wit


def reference_forward_greedy_ratios(values, n, is_independent, cardinality):
    """(gamma_fg, alpha_fg, gamma witness, alpha witness) over the forward pass's pairs.

    A pair is an independent S with |S| < cardinality and an s outside S with
    S + s independent; ``is_independent`` takes a frozenset. Pairs are
    visited S ascending by mask, then s ascending. gamma_fg is the minimum of
    marg_s(empty) / marg_s(S) over pairs with marg_s(S) > 0, alpha_fg one
    minus the minimum of marg_s(S) / marg_s(empty) over pairs with
    marg_s(empty) > 0, both minima moved into [0, 1] when outside it; each
    witness is (mask of S, s) at the first pair attaining its minimum.
    """
    universe = frozenset(range(n))
    g_best = a_best = g_wit = a_wit = None
    for small in sorted(powerset(universe), key=_mask):
        if len(small) >= cardinality or not is_independent(small):
            continue
        for s in sorted(universe - small):
            if not is_independent(small | {s}):
                continue
            d_empty = marg(values, frozenset(), s)
            d_here = marg(values, small, s)
            if d_here > 0:
                r = d_empty / d_here
                if g_best is None or r < g_best:
                    g_best, g_wit = r, (_mask(small), s)
            if d_empty > 0:
                r = d_here / d_empty
                if a_best is None or r < a_best:
                    a_best, a_wit = r, (_mask(small), s)
    gamma = 1.0 if g_best is None else _into_unit(g_best)
    alpha = 0.0 if a_best is None else 1.0 - _into_unit(a_best)
    return gamma, alpha, g_wit, a_wit


def reference_reverse_greedy_ratios(values, n, picks):
    """(gamma_rg, alpha_rg, gamma witness, alpha witness) of a reverse run.

    Works in the reflected function hat(R) = -f(V - R) over the removal sets
    R^t, the first t of the m ``picks``. The ratio family divides the
    reflected marginal of pick r_t past R^(t-1) + P into the one past
    R^(t-1), for every m-element P avoiding r_t, skipping nonpositive
    denominators; the curvature family divides the marginal of r past
    R^(t-1) into the one past R^m + P, for every (t-1)-element P and every r
    outside R^m + P, again skipping nonpositive denominators. Pairs are
    visited t ascending, then P in ``itertools.combinations`` order, then r
    ascending. gamma_rg is min(1, max(0, minimum ratio)), which turns a -0.0
    minimum into 0.0, and alpha_rg is min(1, max(0, 1 - minimum ratio));
    witnesses are (t, mask of P) and (t, mask of P, r).
    """
    universe = frozenset(range(n))

    def hat_marg(removed, r):
        return -value(values, universe - (removed | {r})) - -value(values, universe - removed)

    m = len(picks)
    removal = [frozenset(picks[:t]) for t in range(m + 1)]
    g_best = a_best = g_wit = a_wit = None
    for t in range(1, m + 1):
        r = picks[t - 1]
        denom = hat_marg(removal[t - 1], r)
        if denom <= 0:
            continue
        for pad in itertools.combinations(sorted(universe - {r}), m):
            ratio = hat_marg(removal[t - 1] | set(pad), r) / denom
            if g_best is None or ratio < g_best:
                g_best, g_wit = ratio, (t, _mask(pad))
    for t in range(1, m + 1):
        for pad in itertools.combinations(range(n), t - 1):
            big = removal[m] | set(pad)
            for r in sorted(universe - big):
                denom = hat_marg(big, r)
                if denom <= 0:
                    continue
                ratio = hat_marg(removal[t - 1], r) / denom
                if a_best is None or ratio < a_best:
                    a_best, a_wit = ratio, (t, _mask(pad), r)
    gamma = 1.0 if g_best is None else min(1.0, max(0.0, g_best))
    alpha = 0.0 if a_best is None else min(1.0, max(0.0, 1.0 - a_best))
    return gamma, alpha, g_wit, a_wit


def reference_monotone(values, n):
    """(increasing, strictly increasing, witness) by the direct (S, j) loop.

    Visits S ascending, then j outside S ascending; the witness is the first
    pair with a negative marginal, else the first with a zero marginal
    (of either sign), else None.
    """
    first_flat = first_negative = None
    for small in range(1 << n):
        for j in range(n):
            if small >> j & 1:
                continue
            d = values[small | 1 << j] - values[small]
            if d <= 0.0 and first_flat is None:
                first_flat = (small, j)
            if d < 0.0 and first_negative is None:
                first_negative = (small, j)
    if first_negative is not None:
        return False, False, first_negative
    return True, first_flat is None, first_flat


def reference_subset_fold(table, largest):
    """Min (or max) of ``table`` over the submasks of each index, by direct enumeration.

    Of two submasks with equal entries, the one holding their lowest
    differing bit wins; only the sign of a zero tells such ties apart.
    """
    m = len(table).bit_length() - 1

    def low_bits_first(mask):
        return int(f"{mask:0{m}b}"[::-1], 2)

    out = []
    for big in range(len(table)):
        subs = [small for small in range(big + 1) if not small & ~big]
        if largest:
            best = max(subs, key=lambda s: (table[s], low_bits_first(s)))
        else:
            best = min(subs, key=lambda s: (table[s], -low_bits_first(s)))
        out.append(table[best])
    return out


def reference_axiom_scan(family):
    """(hereditary witness, exchange witness) of a family of masks, by direct loops.

    Heredity visits the members ascending and, for each, every proper submask
    descending; the first missing one gives (member, submask). Exchange visits
    the pairs (S1, S2) with |S2| > |S1|, S1 ascending then S2 ascending, and
    tries each element of S2 - S1 in turn; the first pair none of them
    extends gives (S1, S2). None where the axiom holds.
    """
    members = sorted(family)
    h_wit = None
    for big in members:
        for sub in range(big - 1, -1, -1):
            if sub & ~big == 0 and sub not in family:
                h_wit = (big, sub)
                break
        if h_wit is not None:
            break
    for s1 in members:
        for s2 in members:
            if s2.bit_count() <= s1.bit_count():
                continue
            outside = [e for e in range(s2.bit_length()) if s2 >> e & 1 and not s1 >> e & 1]
            if not any(s1 | 1 << e in family for e in outside):
                return h_wit, (s1, s2)
    return h_wit, None
