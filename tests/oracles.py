"""Independent reference implementations used to derive expected values.

The value oracles work on frozensets via itertools, deliberately avoiding the
library's bitmask scans, so a disagreement points at a real bug rather than a
shared mistake. The witness references at the end walk plain masks instead,
because the witness order the library documents is an order on masks; they
visit every pair directly, in that order, with no transform or shortcut.
"""

import itertools


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
