"""Set functions on small ground sets and their structural ratios.

A :class:`SetFunction` stores one real value per subset in a table indexed
by bitmask, which makes every analysis below an explicit table sweep:
monotonicity checks, the submodularity ratio (how close the function is to
having diminishing marginals), the curvature (how close to increasing
marginals), the cumulative variant of the ratio, marginal-range bounds for
strictly increasing functions, and the reflected function S -> -f(V \\ S)
whose ratio and curvature swap roles.
"""

from __future__ import annotations

import logging
import math
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress, cycle
from operator import neg, sub

from .caps import MAX_CUMULATIVE_N, MAX_TABLE_N, check_size
from .errors import NonMonotoneError, NotStrictlyIncreasingError
from .subsets import elements, submasks

_log = logging.getLogger(__name__)

_INF = float("inf")


class SetFunction:
    """Total real-valued function on all subsets of {0..n-1}.

    Evaluation is pure: the table is frozen at construction and every call
    returns the same float for the same mask. ``eval_count`` tracks oracle
    calls and may be bumped concurrently from threads sharing one instance.
    Values must be finite: NaN and infinities raise ValueError.
    """

    __slots__ = ("n", "values", "_eval_count", "_lock", "_monotone", "_extremes", "_ratios")

    def __init__(self, n: int, values) -> None:
        if not 1 <= n <= MAX_TABLE_N:
            raise ValueError(f"ground set size must be in 1..{MAX_TABLE_N}, got {n}")
        try:
            vals = tuple(map(float, values))
        except OverflowError as exc:
            raise ValueError(f"set-function values must be finite ({exc})") from exc
        if len(vals) != 1 << n:
            raise ValueError(f"need {1 << n} values for n={n}, got {len(vals)}")
        # A finite sum proves every value finite; only an overflowing or
        # non-finite sum needs the per-value pass.
        if not math.isfinite(sum(vals)) and not all(map(math.isfinite, vals)):
            raise ValueError("set-function values must be finite (no NaN or infinity)")
        self.n = n
        self.values = vals
        self._eval_count = 0
        self._lock = threading.Lock()
        self._monotone: MonotonicityReport | None = None
        # (min, max) of each element's marginals, kept by the marginal pass
        # that settles monotonicity, since that pass builds every list.
        self._extremes: list[tuple[float, float]] | None = None
        self._ratios: RatioScan | None = None

    @property
    def eval_count(self) -> int:
        return self._eval_count

    def __call__(self, mask: int) -> float:
        if not 0 <= mask < len(self.values):
            raise ValueError(f"subset mask {mask} out of range for n={self.n}")
        with self._lock:
            self._eval_count += 1
        return self.values[mask]

    def marginal(self, subset: int, j: int) -> float:
        """f(S + j) - f(S); exactly 0.0 when j is already in S."""
        self._check_element(j)
        if subset >> j & 1:
            return 0.0
        return self(subset | 1 << j) - self(subset)

    def set_marginal(self, subset: int, other: int) -> float:
        """f(S | R) - f(S)."""
        return self(subset | other) - self(subset)

    def shifted_marginal(self, subset: int, j: int) -> float:
        """f(S) - f(S - j), the removal counterpart of marginal; requires j in S."""
        self._check_element(j)
        if not subset >> j & 1:
            raise ValueError(f"element {j} not in subset {elements(subset)}")
        return self(subset) - self(subset & ~(1 << j))

    def _check_element(self, j: int) -> None:
        if not 0 <= j < self.n:
            raise ValueError(f"element {j} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFunction):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.n, self.values))

    def __repr__(self) -> str:
        return f"SetFunction(n={self.n})"


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the exhaustive monotonicity scan.

    ``witness`` is the first (subset, element) pair, in mask-then-element
    order, that violates the strongest failed property: a negative marginal
    when ``increasing`` is false, else a zero marginal when only
    ``strictly_increasing`` is false.
    """

    increasing: bool
    strictly_increasing: bool
    witness: tuple[int, int] | None


def check_monotone(f: SetFunction) -> MonotonicityReport:
    """Scan every (S, j not in S) pair for negative or zero marginals.

    The scan is the one marginal pass, :func:`_scan_monotone`, drained: the
    builtin ``min`` over all of j's marginals settles whether j has an
    offending pair, and only then is the first offending S found and mapped
    back to its mask. The smallest (S, j) tuple over all elements is the
    witness, which is the first offending pair in mask-then-element order.
    The table is immutable, so the report is computed once per function,
    and the same pass keeps each element's smallest and largest marginal.
    """
    if f._monotone is None:
        deque(_scan_monotone(f), maxlen=0)
    return f._monotone  # type: ignore[return-value]


def _scan_monotone(f: SetFunction) -> Iterator[tuple[int, list[float], float, float]]:
    """Yield (j, d, min(d), max(d)) for each element j, d its marginal list.

    Once exhausted, the pass has stored the monotonicity report and the
    per-element marginal extremes on f. It drops d before it builds the next
    list, so a consumer that drops its own copy keeps one list alive.
    """
    flat: list[tuple[int, int]] = []
    negative: list[tuple[int, int]] = []
    extremes = []
    for j in range(f.n):
        d = _marginals(f.values, j)
        low = min(d)
        high = max(d)
        if low <= 0.0:
            first = next(i for i, x in enumerate(d) if x <= 0.0)
            flat.append((_subset_at(first, j), j))
            if low < 0.0:
                first = next(i for i, x in enumerate(d) if x < 0.0)
                negative.append((_subset_at(first, j), j))
        extremes.append((low, high))
        yield j, d, low, high
        del d
    # Every negative pair is flat too, so flat is empty only if negative is.
    f._monotone = MonotonicityReport(not negative, not flat, min(negative or flat, default=None))
    f._extremes = extremes


def _require_increasing(f: SetFunction) -> None:
    report = check_monotone(f)
    if not report.increasing:
        subset, j = report.witness  # type: ignore[misc]
        raise NonMonotoneError(
            f"function is not increasing: adding element {j} to {elements(subset)} "
            f"decreases the value"
        )


def _check_value_range(f: SetFunction) -> None:
    # Every marginal of an increasing table lies in [0, f(V) - f(empty)], so a
    # finite range keeps the ratios free of inf/inf, which is what makes the
    # transforms below agree with the pair loops they replace.
    if not math.isfinite(f.values[-1] - f.values[0]):
        raise ValueError("value range f(V) - f(empty) overflows a float")


def _clamp_ratio(value: float, what: str) -> float:
    # Must never fire on an increasing function: pairs with S == R anchor the
    # scan minimum at <= 1 and all marginals are nonnegative.
    if value < 0.0 or value > 1.0:
        _log.warning("clamping %s scan minimum %r into [0, 1]", what, value)
        return min(1.0, max(0.0, value))
    return value


@dataclass(frozen=True)
class RatioScan:
    """Joint result of the nested-pair sweep behind ratio and curvature.

    Witnesses are (S, R, j) triples attaining the respective minima, first in
    (R ascending, S submask-descending, j ascending) order.
    """

    gamma: float
    alpha: float
    gamma_witness: tuple[int, int, int] | None
    alpha_witness: tuple[int, int, int] | None


def _marginals(vals: tuple[float, ...], j: int) -> list[float]:
    """f(S + j) - f(S) for every S avoiding j, in ascending order of S."""
    half = 1 << j
    if half < 32:
        without_j = [True] * half + [False] * half
        return list(
            map(sub, compress(vals, cycle(without_j[::-1])), compress(vals, cycle(without_j)))
        )
    # Blocks of 2^(j+1) masks: the lower half avoids j, the upper half adds it.
    # Slicing whole blocks beats the mask filter from 2^j = 32 on.
    out: list[float] = []
    for k in range(0, len(vals), 2 * half):
        out += map(sub, vals[k + half : k + 2 * half], vals[k : k + half])
    return out


def _subset_at(index: int, j: int) -> int:
    """Mask at ``index`` in :func:`_marginals` order: bit j, always clear, re-inserted."""
    below = index & ((1 << j) - 1)
    return (index ^ below) << 1 | below


def _subset_fold(table: list[float], largest: bool) -> list[float]:
    """In place, replace each entry R by the min (or max) over all submasks of R.

    ``table`` has 2^m entries. Each pass folds along the top index bit and
    then perfect-shuffles, which rotates that bit to the bottom; after m
    passes every bit is folded and the layout is back in place. Each fold
    keeps the tie rule of ``min(hi, lo)`` / ``max(hi, lo)``: the entry with
    the bit set wins unless the one without it is strictly smaller (larger),
    so equal zeros keep the sign the builtins would pick.
    """
    half = len(table) // 2
    for _ in range(half.bit_length()):
        low, high = table[:half], table[half:]
        table[0::2] = low
        if largest:
            table[1::2] = [lo if lo > hi else hi for lo, hi in zip(low, high)]
        else:
            table[1::2] = [lo if lo < hi else hi for lo, hi in zip(low, high)]
    return table


def _first_min(
    first: tuple[float, int], ratios: list[float], j: int
) -> tuple[float, int]:
    """Fold the first minimum of element j's per-R ratios into (minimum, first R).

    ``ratios`` is indexed like :func:`_marginals`; equal minima keep the smaller R.
    The fold ranks (value, R) tuples, so an equal value at a smaller R from a
    later element wins. ``guarantees._strict_min`` replays a strict ``<`` loop
    instead, where ties keep the earlier entry and a nan start is kept; one
    helper for both would have to branch on its caller.
    """
    low = min(ratios)
    if low == _INF:
        return first
    return min(first, (low, _subset_at(ratios.index(low), j)))


def _pairs_min(
    vals: tuple[float, ...], n: int, first: tuple[float, int], curvature: bool
) -> tuple[float | None, tuple[int, int, int] | None]:
    """First triple with R = first[1] whose ratio equals the scan minimum first[0].

    Triples are visited in (S submask-descending, j ascending) order, so the
    first one at the minimum is the witness, with the sign of its own zero.
    A negative R means no R binds.
    """
    target, big = first
    if big < 0:
        return None, None
    outs = [(j, 1 << j, vals[big | 1 << j] - vals[big]) for j in range(n) if not big >> j & 1]
    for small in submasks(big):
        vsmall = vals[small]
        for j, bit, d_big in outs:
            d_small = vals[small | bit] - vsmall
            num, den = (d_big, d_small) if curvature else (d_small, d_big)
            if den > 0.0:
                r = num / den
                if r == target:
                    return r, (small, big, j)
    raise AssertionError(f"scan minimum {target!r} is not attained at R = {big}")


def ratio_scan(f: SetFunction) -> RatioScan:
    """Exhaustively scan all S <= R <= V and j outside R.

    gamma is the minimum of marg_j(S) / marg_j(R); alpha is one minus the
    minimum of marg_j(R) / marg_j(S). Pairs whose denominator marginal is
    zero impose no constraint and are skipped; a zero numerator against a
    positive denominator contributes the limiting value (0, i.e. alpha = 1).
    With no binding pair at all, gamma = 1 and alpha = 0.

    The scan takes one element j at a time, with its marginals d, low =
    min(d) and high = max(d). Rounded division is monotone in each operand,
    so a pair with ratio at most b needs, for gamma, d(S) / high <= b and
    low / d(R) <= b, and for alpha, d(R) / high <= b and low / d(S) <= b;
    and every ratio of j is at least low / high. With b the larger of the
    two running minima, an element whose low / high exceeds b cannot lower
    either one and is skipped, with no sort and no walk; an equal low / high
    still walks, since it may be attained at a smaller R. Otherwise each
    filter keeps a prefix or a suffix of d's stable sorted order, so one
    pass picks the indices at most a cut c just above b * high or at least
    a cut c' just below low / b, and sorts only those. Each cut is checked
    with the walks' own rounded division, c / high > b and low / c' > b, so
    by monotonicity every index the filters keep is picked, for subnormal
    and huge marginals alike. Where a check fails, or picking buys nothing
    (the first element, where b is infinite; b >= 1; a zero marginal, as
    tie-heavy tables have), all of d is sorted. The picked lists are
    prefixes of the full orders, each closed by the other's first index
    (the argmax or the argmin of d), whose ratio against any partner is at
    least 1 > b: a walk that runs past a cut stops there after the same
    pair tests as on the full order, so the same elements fall back.

    A walk's threshold, at most b, is +inf or a ratio some pair attains: at
    first the running minimum carried from earlier elements, +inf before
    any element binds, then each new best ratio. Candidate R are walked best
    first until their filter fails at that threshold; for each, candidate S
    are walked best first until the ratio against R exceeds it, so the
    first subset of R met gives R's extreme marg_j(S) over S <= R. Every
    pair at or below the threshold is reached, so the smallest ratio and
    the first R attaining it are exactly what a scan of all pairs finds. An
    element whose walk tests more than a few times 2^(n-1) pairs is redone
    by subset min/max transforms of d, which give every R's extreme
    marg_j(S) over S <= R at once: modular and tie-heavy tables take that
    path, which keeps the worst case at O(n^2 * 2^n). The pairs of the
    first R attaining each minimum are then scanned in witness order, up to
    the first triple at the minimum.

    The lists come from the one marginal pass, :func:`_scan_monotone`, so
    they also settle monotonicity and keep the per-element extremes that
    strong curvature reads. Where the monotonicity report is already known,
    a non-increasing function raises before any list is built. Either way
    NonMonotoneError comes before an overflowing value range raises
    ValueError. The table is immutable, so the scan runs once per function.
    """
    if f._ratios is None:
        f._ratios = _ratio_scan(f)
    return f._ratios


# An element's walk may test _PAIR_BUDGET * 2^(n-1) pairs, about what one
# subset transform of its 2^(n-1) marginals costs; past that the element is
# transformed instead. The budget is checked after each R, whose pairs number
# at most 2^(n-1), so it bounds every walk, from whatever threshold it starts.
_PAIR_BUDGET = 4


def _ratio_scan(f: SetFunction) -> RatioScan:
    if f._monotone is not None:
        _require_increasing(f)
        _check_value_range(f)
    n = f.n
    vals = f.values
    walk = math.isfinite(vals[-1] - vals[0])
    budget = _PAIR_BUDGET << (n - 1)
    g_first = a_first = (_INF, -1)
    for j, d, low, high in _scan_monotone(f):
        # A negative marginal fails the table after the loop, so no element
        # is walked from there on.
        walk = walk and low >= 0.0
        bound = max(g_first[0], a_first[0])
        # Every ratio of j is at least low / high; an equal one still walks,
        # since it may be attained at a smaller R.
        if walk and high > 0.0 and not low / high > bound:
            rising, falling = _walk_orders(d, low, high, bound)
            g_first = _element_min(g_first, d, rising, falling, j, budget, curvature=False)
            a_first = _element_min(a_first, d, rising, falling, j, budget, curvature=True)
            # Free this element's lists before the next ones are built, so
            # one marginal list and one order are alive at a time.
            del rising, falling
        del d
    _require_increasing(f)
    _check_value_range(f)
    g_best, g_wit = _pairs_min(vals, n, g_first, curvature=False)
    a_best, a_wit = _pairs_min(vals, n, a_first, curvature=True)
    gamma = 1.0 if g_best is None else _clamp_ratio(g_best, "submodularity-ratio")
    alpha = 0.0 if a_best is None else 1.0 - _clamp_ratio(a_best, "curvature")
    return RatioScan(gamma, alpha, g_wit, a_wit)


def _walk_orders(
    d: list[float], low: float, high: float, bound: float
) -> tuple[list[int], list[int]]:
    """The indices of d that walks at threshold ``bound`` can reach, in walk order.

    Returns (rising, falling): the stable ascending order of d's indices and
    its positive entries in descending order, either in full or cut to a
    prefix holding every index the walks can reach and closed by an index
    that stops them. ``low`` and ``high`` are min(d) and max(d) > 0, and
    ``low / high <= bound``; see :func:`ratio_scan` for the cuts and why
    they are exact.
    """
    if low > 0.0 and 0.0 < bound < 1.0:
        # A hair beyond bound * high and low / bound, so that the checks
        # below pass unless subnormal rounding or overflow eats the margin.
        rise_cut = bound * high * (1.0 + 1e-9)
        fall_cut = low / bound * (1.0 - 1e-9)
        if rise_cut / high > bound and low / fall_cut > bound:
            key = d.__getitem__
            picked = [i for i, x in enumerate(d) if x <= rise_cut or x >= fall_cut]
            picked.sort(key=key)
            rising = picked[: bisect_right(picked, rise_cut, key=key)]
            falling = picked[bisect_left(picked, fall_cut, key=key) :][::-1]
            # Each list ends with the other's first index, the argmax or the
            # argmin of d, whose ratio against any partner is at least 1 > bound.
            return rising + falling[:1], falling + rising[:1]
    order = sorted(range(len(d)), key=d.__getitem__)
    return order, order[bisect_right(order, 0.0, key=d.__getitem__) :][::-1]


def _element_min(
    first: tuple[float, int],
    d: list[float],
    rising: list[int],
    falling: list[int],
    j: int,
    budget: int,
    curvature: bool,
) -> tuple[float, int]:
    """Fold element j's smallest ratio and first R into ``first``, like :func:`_first_min`.

    ``rising`` and ``falling`` come from :func:`_walk_orders` at a threshold
    of at least ``first[0]``. The ratio is d(S) / d(R) for gamma and
    d(R) / d(S) for alpha (``curvature``), over S <= R with a positive
    denominator. The walk starts at the running minimum ``first[0]``, +inf
    before any element binds; see :func:`ratio_scan` for the walk and why it
    is exact.
    """
    low, high = d[rising[0]], d[falling[0]]
    best, best_big = first[0], -1
    bigs, smalls = (rising, falling) if curvature else (falling, rising)
    tests = 0
    for big in bigs:
        db = d[big]
        if (db / high if curvature else low / db) > best:
            break
        outside = ~big
        for tests, small in enumerate(smalls, tests + 1):
            ratio = db / d[small] if curvature else d[small] / db
            if ratio > best:
                break
            if not small & outside:
                if best_big < 0 or (ratio, big) < (best, best_big):
                    best, best_big = ratio, big
                break
        if tests > budget:
            return _fold_min(first, d, j, curvature)
    if best_big < 0:
        return first
    return min(first, (best, _subset_at(best_big, j)))


def _fold_min(
    first: tuple[float, int], d: list[float], j: int, curvature: bool
) -> tuple[float, int]:
    """:func:`_element_min` by a subset transform of all of d."""
    extreme = _subset_fold(d[:], largest=curvature)
    pairs = zip(d, extreme) if curvature else zip(extreme, d)
    return _first_min(first, [num / den if den > 0.0 else _INF for num, den in pairs], j)


def submodularity_ratio(f: SetFunction) -> float:
    """Largest factor by which any later marginal still lower-bounds an earlier one."""
    return ratio_scan(f).gamma


def curvature(f: SetFunction) -> float:
    """One minus the tightest factor by which earlier marginals lower-bound later ones."""
    return ratio_scan(f).alpha


# The skip tests of the cumulative scan ask each level bound to exceed the
# running minimum by this relative margin, far above the rounding (under
# 1e-14 at n <= 16) that the argument in cumulative_ratio_detail allows for.
_SKIP_MARGIN = 1e-9
# The smallest normal float: below it a product or a quotient may lose the margin.
_TINY = sys.float_info.min


def cumulative_ratio_detail(f: SetFunction) -> tuple[float, tuple[int, int] | None]:
    """Cumulative submodularity ratio with the attaining (S, R) pair.

    Minimizes sum of single-element marginals at S over elements of R \\ S
    against the set marginal of R at S, over all ordered pairs (S, R) with a
    positive set marginal. Both depend on R only through R \\ S, so the scan
    visits pairs with R disjoint from S: all 3^n of them in the worst case.
    The witness is the first (S ascending, R ascending) pair attaining the
    minimum, and R is disjoint from S.

    Most S are skipped whole, by a bound from level_max[m], the largest f
    over the sets of size m. Let m_j = f(S + j) - f(S) for j outside S. A
    pair with |R| = k has numerator T, the m_j of R added in ascending
    element order, and denominator D = f(S | R) - f(S). For k = 1, T and D
    are the same float, so the ratio is exactly 1.0. For k >= 2, T is at
    least L_k, the k smallest m_j added in ascending value order, and D is
    at most U_k = level_max[|S| + k] - f(S). S is skipped when the running
    minimum b satisfies tiny <= b <= 1 (tiny the smallest normal float), S
    has two or more outside elements, the two lowest of them have positive
    marginals, and L_k / U_k > b * (1 + 1e-9) for every k >= 2.
    Then no pair of S has a ratio below b, and no pair with k >= 2 one equal
    to it, so the first minimum, with its sign, is the full scan's.

    Why that holds in floats, with u = 2^-53:

    - Rounding is monotone, so f(S | R) <= level_max[|S| + k] gives D <= U_k
      exactly: both subtract the same f(S).
    - T and L_k each make k - 1 additions of nonnegative terms. An addition
      rounds with relative error at most u, subnormal terms included (a
      subnormal sum is exact), so unless a sum overflows, T and L_k are
      within a factor 1 +- 16u of their exact sums at n <= 16, whatever the
      order, and T >= L_k * (1 - 32u). The test requires the last sum, over
      all of S's marginals, to be finite, which keeps every L_k finite; a T
      that overflows gives an infinite ratio.
    - The two positive marginals make every U_k positive, since U_k is at
      least either of them.
    - b is normal, so b * (1 + 1e-9) and every quotient above it are normal
      and off by a factor of at most 1 + u; a quotient that overflows is
      above every b.
    - So T / D >= b * (1 + 1e-9) * (1 - 34u), which is above b * (1 + 2u),
      and the scan's own division T / D rounds to the float after b or
      higher.

    A zero or subnormal running minimum, where b * (1 + 1e-9) may round
    back to b, skips nothing. The test first tries k = 2 on the two lowest
    outside elements, whose sum is at least L_2; where that fails, as on
    modular tables, whose ratios all sit at 1 up to rounding, it builds no
    list. Modular tables skip no S and cost the 3^n of the full scan;
    bounded-marginal tables skip nearly all of them.

    Ahead of that per-S test, one bound theta(S), computed for the whole table
    by list passes, skips most S in constant time. Let mm = up(S) - f(S),
    where up(S) is the least f(S + j) over j outside S; rounding is monotone,
    so mm is the least m_j. Let U_2 = level_max[|S| + 2] - f(S), Delta_m the
    largest (level_max[m + k] - level_max[m + 2]) / (k - 2) over k >= 3,
    never negative on an increasing table, and theta(S) = mm / max(U_2 / 2,
    Delta_|S|). In exact arithmetic L_k >= k * mm and U_k <= U_2 + (k - 2) *
    Delta_|S| <= k * max(U_2 / 2, Delta_|S|), so every pair with k >= 2 has a
    ratio of at least theta(S). S is skipped when b passes the same guards
    and theta(S) > b * (1 + 1e-9), which needs mm > 0; theta is 0.0 where S
    has fewer than two outside elements. In floats, with M the computed
    max(U_2 / 2, Delta_|S|):

    - theta is 0.0, which skips nothing, where M is below tiny. Otherwise
      the subtractions, the halving and the divisions by k - 2 each lose a
      factor of at most 1 - u, or at most 2^-1075 <= u * M below tiny, so
      the exact maximum is at most M * (1 + 4u) and U_k <= k * M * (1 + 6u).
    - T adds k marginals of at least mm, so T >= k * mm * (1 - 15u) at
      n <= 16, or T overflows.
    - theta > b * (1 + 1e-9) is normal, so mm / M >= theta / (1 + u).
    - So T / D >= b * (1 + 1e-9) * (1 - 26u), again above b * (1 + 2u).

    The scan starts from the first binding pair and visits S best first.
    Let R0 be the first mask with f(R0) - f(empty) > 0; with none, no pair
    binds. Every subset of R0 comes earlier, so (empty, R0) is the first
    binding pair in (S, R) order and its ratio is 0 or 1. It seeds the
    running minimum b and the witness; a ratio of 0 returns at once, since
    no ratio is below +0.0 on an increasing table, so such tables cost
    O(2^n). The S are then visited in ascending theta(S), equal theta in
    ascending mask order, and the scan stops at the first S whose theta
    exceeds the cut, since the cut only falls. A pair replaces the witness
    when its ratio is below b, or equal to b with an earlier S; within one
    S, R ascends. This gives the ascending scan's result. An S skipped at a
    running minimum b, by theta or by the per-S test, has every pair with
    |R| >= 2 above b, which is at least the final minimum, and every
    singleton pair at 1.0. If the final minimum is below 1, no skipped pair
    attains it. If it is 1.0, b has been 1.0 since the seed, which is the
    first binding pair of all. Ties among visited pairs go to the first
    (S, R).
    """
    _require_increasing(f)
    check_size(f.n, MAX_CUMULATIVE_N, "cumulative ratio scan")
    _check_value_range(f)
    n = f.n
    vals = f.values
    size = len(vals)
    empty = vals[0]
    first = next((m for m in range(1, size) if vals[m] - empty > 0.0), None)
    if first is None:
        return 1.0, None
    # One addition at a time in ascending element order, as the expansion
    # below adds them, so the seed is the float the scan would compute.
    total = 0.0
    for j in elements(first):
        total += vals[1 << j] - empty
    best, wit = total / (vals[first] - empty), (0, first)
    if best == 0.0:
        return best, wit
    full = size - 1
    bits = [1 << j for j in range(n)]
    levels = [0]
    for _ in range(n):
        levels += [level + 1 for level in levels]
    level_max = [-_INF] * (n + 1)
    for level, value in zip(levels, vals):
        if value > level_max[level]:
            level_max[level] = value
    bounds = _subset_bounds(vals, levels, level_max)
    cut = _skip_cut(best)
    for small in sorted(range(size), key=bounds.__getitem__):
        if bounds[small] > cut:
            break
        rest = full ^ small
        if _cannot_lower(vals, small, rest, bits, level_max, best):
            continue
        base = vals[small]
        # S | R and the marginal sum for every R <= V \ S, in ascending R:
        # each doubling adds the next element as the top bit, so every sum
        # adds its marginals in ascending element order, one at a time.
        unions = [small]
        totals = [0.0]
        while rest:
            bit = rest & -rest
            rest ^= bit
            marg = vals[small | bit] - base
            unions += [u | bit for u in unions]
            totals += [t + marg for t in totals]
        for union, total in zip(unions, totals):
            denom = vals[union] - base
            if denom > 0.0:
                r = total / denom
                # R ascends within S, so only an earlier S wins a tie.
                if r <= best and (r < best or small < wit[0]):
                    best, wit = r, (small, union ^ small)
        cut = _skip_cut(best)
    return _clamp_ratio(best, "cumulative-ratio"), wit


def _skip_cut(best: float) -> float:
    """What a bound must exceed to skip S at running minimum ``best``; inf skips nothing."""
    return best * (1.0 + _SKIP_MARGIN) if _TINY <= best <= 1.0 else _INF


def _subset_bounds(
    vals: tuple[float, ...], levels: list[int], level_max: list[float]
) -> list[float]:
    """theta(S) for every S, with ``levels[S]`` = |S|; see :func:`cumulative_ratio_detail`."""
    size = len(vals)
    n = size.bit_length() - 1
    # up[S] = min of f(S + j) over j outside S: strided slices for the low
    # bits, block slices from 2^j = 32 on, as in _marginals.
    up = [_INF] * size
    for j in range(n):
        half = 1 << j
        step = 2 * half
        if half < 32:
            for k in range(half):
                pairs = zip(up[k::step], vals[k + half :: step])
                up[k::step] = [x if x < y else y for x, y in pairs]
        else:
            for k in range(0, size, step):
                pairs = zip(up[k : k + half], vals[k + half : k + step])
                up[k : k + half] = [x if x < y else y for x, y in pairs]
    # V has no outside element: mm = 0 there rather than inf - f(V).
    up[-1] = vals[-1]
    # Per level m: level_max[m + 2], and the steepest average rise of
    # level_max past m + 2, Delta_m; inf and 0.0 where fewer than two
    # elements lie outside S, so that theta(S) is 0.0 there.
    tops = level_max[2:] + [_INF, _INF]
    slopes = [
        max([0.0] + [(level_max[m + k] - tops[m]) / (k - 2) for k in range(3, n - m + 1)])
        for m in range(n + 1)
    ]
    # One pass over S at level m: h = half the rise of f(S) to level_max[m + 2],
    # d = h or Delta_m, whichever is larger, then theta = (up[S] - f(S)) / d.
    return [
        (u - v) / d
        if (d := h if (h := (tops[m] - v) * 0.5) > (s := slopes[m]) else s) >= _TINY
        else 0.0
        for u, v, m in zip(up, vals, levels)
    ]


def _cannot_lower(
    vals: tuple[float, ...],
    small: int,
    rest: int,
    bits: list[int],
    level_max: list[float],
    best: float,
) -> bool:
    """Whether the cumulative scan may skip S = ``small``, with ``rest`` = V \\ S.

    True only if no pair (S, R) has a ratio below ``best`` and none with
    |R| >= 2 one equal to it; see :func:`cumulative_ratio_detail`.
    """
    cut = _skip_cut(best)
    if not (cut < _INF and rest & (rest - 1)):
        return False
    base = vals[small]
    # level_max[level] bounds the sets S | R with |R| = 2.
    level = small.bit_count() + 2
    first = rest & -rest
    upper = rest ^ first
    m0 = vals[small | first] - base
    m1 = vals[small | (upper & -upper)] - base
    if not (m0 > 0.0 and m1 > 0.0 and (m0 + m1) / (level_max[level] - base) > cut):
        return False
    low = [vals[small | bit] - base for bit in bits if rest & bit]
    low.sort()
    total = low[0]
    for top, marg in zip(level_max[level:], low[1:]):
        total += marg
        if not total / (top - base) > cut:
            return False
    return total < _INF


def cumulative_submodularity_ratio(f: SetFunction) -> float:
    return cumulative_ratio_detail(f)[0]


@dataclass(frozen=True)
class MarginalBounds:
    """Range [lower, upper] of all single-element marginals, lower > 0."""

    lower: float
    upper: float


def marginal_bounds_estimate(f: SetFunction) -> tuple[MarginalBounds, float, float]:
    """Marginal range of a strictly increasing function and the ratio bounds it implies.

    Returns (bounds, gamma_lower, alpha_upper) with gamma_lower = lower/upper
    and alpha_upper = 1 - lower/upper; the true ratio is >= gamma_lower and
    the true curvature <= alpha_upper.
    """
    report = check_monotone(f)
    if not report.strictly_increasing:
        raise NotStrictlyIncreasingError(
            "marginal bounds need a strictly increasing function "
            f"(witness: {report.witness})"
        )
    _check_value_range(f)
    # The scan that settled monotonicity kept each element's extremes. Every
    # marginal is positive, so the builtins meet no signed-zero ties.
    lows, highs = zip(*f._extremes)  # type: ignore[misc]
    lo, hi = min(lows), max(highs)
    ratio = lo / hi
    return MarginalBounds(lo, hi), ratio, 1.0 - ratio


def complement_values(f: SetFunction) -> list[float]:
    """Table of S -> -f(V \\ S); no monotonicity requirement."""
    # V \ S is top ^ S == top - S, so the reflected table is the reversed one.
    return list(map(neg, reversed(f.values)))


def complement_function(f: SetFunction) -> SetFunction:
    """Reflected function S -> -f(V \\ S).

    For increasing f the result is increasing, its submodularity ratio is
    1 - curvature(f), and its curvature is 1 - submodularity_ratio(f);
    applying the reflection twice restores f pointwise.
    """
    _require_increasing(f)
    return SetFunction(f.n, complement_values(f))
