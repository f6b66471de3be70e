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
import threading
from dataclasses import dataclass
from itertools import compress, cycle
from operator import sub

from .errors import GroundSetTooLargeError, NonMonotoneError, NotStrictlyIncreasingError
from .subsets import elements, submasks

_log = logging.getLogger(__name__)

#: Explicit tables are capped at 2^20 values.
MAX_TABLE_N = 20
#: Exhaustive ratio scans cost n^2 * 2^n (gamma and alpha, through subset
#: min/max transforms) and 3^n (the cumulative ratio, over disjoint pairs).
MAX_SCAN_N = 16

_INF = float("inf")


class SetFunction:
    """Total real-valued function on all subsets of {0..n-1}.

    Evaluation is pure: the table is frozen at construction and every call
    returns the same float for the same mask. ``eval_count`` tracks oracle
    calls and may be bumped concurrently from threads sharing one instance.
    Values must be finite: NaN and infinities raise ValueError.
    """

    __slots__ = ("n", "values", "_eval_count", "_lock", "_monotone")

    def __init__(self, n: int, values) -> None:
        if not 1 <= n <= MAX_TABLE_N:
            raise ValueError(f"ground set size must be in 1..{MAX_TABLE_N}, got {n}")
        try:
            vals = tuple(float(v) for v in values)
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

    The table is immutable, so the report is computed once per function.
    """
    if f._monotone is None:
        f._monotone = _scan_monotone(f)
    return f._monotone


def _scan_monotone(f: SetFunction) -> MonotonicityReport:
    vals = f.values
    n = f.n
    first_negative: tuple[int, int] | None = None
    first_flat: tuple[int, int] | None = None
    for subset in range(len(vals)):
        base = vals[subset]
        for j in range(n):
            if subset >> j & 1:
                continue
            d = vals[subset | 1 << j] - base
            if d <= 0.0:
                if first_flat is None:
                    first_flat = (subset, j)
                if d < 0.0:
                    first_negative = (subset, j)
                    break
        if first_negative is not None:
            break
    increasing = first_negative is None
    strictly = first_flat is None
    if not increasing:
        witness = first_negative
    elif not strictly:
        witness = first_flat
    else:
        witness = None
    return MonotonicityReport(increasing, strictly, witness)


def _require_increasing(f: SetFunction) -> None:
    report = check_monotone(f)
    if not report.increasing:
        subset, j = report.witness  # type: ignore[misc]
        raise NonMonotoneError(
            f"function is not increasing: adding element {j} to {elements(subset)} "
            f"decreases the value"
        )


def _check_scan_size(f: SetFunction) -> None:
    if f.n > MAX_SCAN_N:
        raise GroundSetTooLargeError(
            f"exhaustive ratio scan is capped at n={MAX_SCAN_N}, got n={f.n}"
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
    without_j = [True] * half + [False] * half
    return list(
        map(sub, compress(vals, cycle(without_j[::-1])), compress(vals, cycle(without_j)))
    )


def _subset_fold(table: list[float], pick) -> list[float]:
    """In place, replace each entry R by pick over the entries of all submasks of R.

    ``table`` has 2^m entries. Each pass folds along the top index bit and
    then perfect-shuffles, which rotates that bit to the bottom; after m
    passes every bit is folded and the layout is back in place.
    """
    half = len(table) // 2
    for _ in range(half.bit_length()):
        low, high = table[:half], table[half:]
        table[0::2] = low
        table[1::2] = map(pick, high, low)
    return table


def _first_min(
    first: tuple[float, int], ratios: list[float], j: int
) -> tuple[float, int]:
    """Fold the first minimum of element j's per-R ratios into (minimum, first R).

    ``ratios`` is indexed like :func:`_marginals`; equal minima keep the smaller R.
    """
    low = min(ratios)
    if low == _INF:
        return first
    index = ratios.index(low)
    below = index & ((1 << j) - 1)
    # Re-insert bit j, always clear in R, into the compressed index.
    return min(first, (low, (index ^ below) << 1 | below))


def _pairs_min(
    vals: tuple[float, ...], n: int, big: int, curvature: bool
) -> tuple[float | None, tuple[int, int, int] | None]:
    """Minimum ratio over the triples with R = big and its first witness.

    Triples are visited in (S submask-descending, j ascending) order; a
    negative ``big`` means no R binds.
    """
    best: float | None = None
    wit: tuple[int, int, int] | None = None
    if big < 0:
        return best, wit
    outs = [(j, 1 << j, vals[big | 1 << j] - vals[big]) for j in range(n) if not big >> j & 1]
    for small in submasks(big):
        vsmall = vals[small]
        for j, bit, d_big in outs:
            d_small = vals[small | bit] - vsmall
            num, den = (d_big, d_small) if curvature else (d_small, d_big)
            if den > 0.0:
                r = num / den
                if best is None or r < best:
                    best, wit = r, (small, big, j)
    return best, wit


def ratio_scan(f: SetFunction) -> RatioScan:
    """Exhaustively scan all S <= R <= V and j outside R.

    gamma is the minimum of marg_j(S) / marg_j(R); alpha is one minus the
    minimum of marg_j(R) / marg_j(S). Pairs whose denominator marginal is
    zero impose no constraint and are skipped; a zero numerator against a
    positive denominator contributes the limiting value (0, i.e. alpha = 1).
    With no binding pair at all, gamma = 1 and alpha = 0.

    For each j, subset min/max transforms of marg_j give, for every R, the
    smallest and largest marg_j(S) over S <= R. Float division by a fixed
    positive number is monotone, so the smallest gamma ratio at (R, j) is
    (min over S of marg_j(S)) / marg_j(R) and the smallest alpha ratio is
    marg_j(R) / (max over S of marg_j(S)), the very floats the pairs give.
    That finds each minimum and the first R attaining it in O(n^2 * 2^n);
    the pairs of that R alone are then scanned in witness order for the
    exact triple.
    """
    _require_increasing(f)
    _check_scan_size(f)
    _check_value_range(f)
    n = f.n
    vals = f.values
    g_first = a_first = (_INF, -1)
    for j in range(n):
        d = _marginals(vals, j)
        low = _subset_fold(d[:], min)
        high = _subset_fold(d[:], max)
        g_first = _first_min(g_first, [m / x if x > 0.0 else _INF for m, x in zip(low, d)], j)
        a_first = _first_min(a_first, [x / m if m > 0.0 else _INF for m, x in zip(high, d)], j)
    g_best, g_wit = _pairs_min(vals, n, g_first[1], curvature=False)
    a_best, a_wit = _pairs_min(vals, n, a_first[1], curvature=True)
    gamma = 1.0 if g_best is None else _clamp_ratio(g_best, "submodularity-ratio")
    alpha = 0.0 if a_best is None else 1.0 - _clamp_ratio(a_best, "curvature")
    return RatioScan(gamma, alpha, g_wit, a_wit)


def submodularity_ratio(f: SetFunction) -> float:
    """Largest factor by which any later marginal still lower-bounds an earlier one."""
    return ratio_scan(f).gamma


def curvature(f: SetFunction) -> float:
    """One minus the tightest factor by which earlier marginals lower-bound later ones."""
    return ratio_scan(f).alpha


def cumulative_ratio_detail(f: SetFunction) -> tuple[float, tuple[int, int] | None]:
    """Cumulative submodularity ratio with the attaining (S, R) pair.

    Minimizes sum of single-element marginals at S over elements of R \\ S
    against the set marginal of R at S, over all ordered pairs (S, R) with a
    positive set marginal. Both depend on R only through R \\ S, so the scan
    visits the 3^n pairs with R disjoint from S. The witness is the first
    (S ascending, R ascending) pair attaining the minimum, and R is disjoint
    from S.
    """
    _require_increasing(f)
    _check_scan_size(f)
    _check_value_range(f)
    vals = f.values
    full = (1 << f.n) - 1
    best: float | None = None
    wit: tuple[int, int] | None = None
    for small in range(full + 1):
        base = vals[small]
        # S | R and the marginal sum for every R <= V \ S, in ascending R:
        # each doubling adds the next element as the top bit, so every sum
        # adds its marginals in ascending element order, one at a time.
        unions = [small]
        totals = [0.0]
        rest = full ^ small
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
                if best is None or r < best:
                    best, wit = r, (small, union ^ small)
    value = 1.0 if best is None else _clamp_ratio(best, "cumulative-ratio")
    return value, wit


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
    vals = f.values
    n = f.n
    lo = float("inf")
    hi = float("-inf")
    for subset in range(len(vals)):
        base = vals[subset]
        for j in range(n):
            if subset >> j & 1:
                continue
            d = vals[subset | 1 << j] - base
            if d < lo:
                lo = d
            if d > hi:
                hi = d
    ratio = lo / hi
    return MarginalBounds(lo, hi), ratio, 1.0 - ratio


def complement_values(f: SetFunction) -> list[float]:
    """Table of S -> -f(V \\ S); no monotonicity requirement."""
    top = len(f.values) - 1
    return [-f.values[top ^ mask] for mask in range(len(f.values))]


def complement_function(f: SetFunction) -> SetFunction:
    """Reflected function S -> -f(V \\ S).

    For increasing f the result is increasing, its submodularity ratio is
    1 - curvature(f), and its curvature is 1 - submodularity_ratio(f);
    applying the reflection twice restores f pointwise.
    """
    _require_increasing(f)
    return SetFunction(f.n, complement_values(f))
