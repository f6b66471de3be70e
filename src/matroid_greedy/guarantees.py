"""Closed-form performance bounds, greedy-restricted ratios, and verification.

The two headline bounds tie the greedy objective to the optimum through the
submodularity ratio gamma and the curvature alpha: the forward pass satisfies
(f(greedy) - f(empty)) / (f(opt) - f(empty)) <= 1 / (gamma * (1 - alpha)),
and the reverse pass satisfies
(f(full) - f(greedy)) / (f(full) - f(opt)) >= (1 - alpha) / (1 + (1 - gamma) * (1 - alpha)).

Both are checked by one path, which measures a pass's achieved ratio from
its start set and compares it with that pass's closed form;
``verify_forward`` and ``verify_reverse`` name its two sides.

Alongside them: a size-dependent alternative forward bound, a
cardinality-constraint alternative reverse bound, the cheaper
greedy-restricted ratio families for both passes, and the region sweep that
compares the two guarantees across the (alpha, gamma) square; strong
curvature comes from setfunc, beside the marginal extremes it reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .caps import MAX_CUMULATIVE_N, MAX_REGION_GRID, check_size
from .errors import TraceMismatchError
from .greedy import (
    REVERSE,
    REVERSE_AS_FORWARD,
    GreedyTrace,
    OptimumRecord,
    _check_inputs,
    _check_trace_sets,
    brute_force_optimum,
    forward_greedy,
    reverse_greedy,
)
from .matroids import Matroid
from .setfunc import (
    SetFunction,
    _clamp_ratio,
    _require_scannable,
    cumulative_ratio_detail,
    ratio_scan,
    strong_curvature,
    strong_curvature_detail,
)
from .subsets import elements, full_mask, mask_of

DEFAULT_TOLERANCE = 1e-9

INF = float("inf")


@dataclass(frozen=True)
class RatioReport:
    """All ratio-style quantities of one instance; fields are computed on demand."""

    gamma: float | None = None
    alpha: float | None = None
    gamma_cumulative: float | None = None
    strong_c: float | None = None
    gamma_fg: float | None = None
    alpha_fg: float | None = None
    gamma_rg: float | None = None
    alpha_rg: float | None = None


@dataclass(frozen=True)
class VerificationRecord:
    """One greedy run checked against its bound and the brute-force optimum."""

    instance_id: str
    algorithm: str
    achieved_ratio: float
    bound: float
    satisfied: bool
    f_empty: float
    f_full: float
    f_greedy: float
    f_opt: float


@dataclass(frozen=True)
class RegionCell:
    alpha: float
    gamma: float
    forward_ub: float
    reverse_ub: float
    winner: str


@dataclass(frozen=True)
class RegionGrid:
    """Guarantee comparison over a uniform (alpha, gamma) grid, alpha-major."""

    f_empty: float
    f_full: float
    f_star: float
    alpha_grid: tuple[float, ...]
    gamma_grid: tuple[float, ...]
    cells: tuple[tuple[RegionCell, ...], ...]


def _check_unit(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def forward_bound(gamma: float, alpha: float) -> float:
    """Worst-case forward-greedy ratio 1 / (gamma * (1 - alpha)); +inf when degenerate."""
    _check_unit(gamma, "gamma")
    _check_unit(alpha, "alpha")
    denom = gamma * (1.0 - alpha)
    return INF if denom == 0.0 else 1.0 / denom


def reverse_bound(gamma: float, alpha: float) -> float:
    """Worst-case reverse-greedy ratio (1 - alpha) / (1 + (1 - gamma) * (1 - alpha))."""
    _check_unit(gamma, "gamma")
    _check_unit(alpha, "alpha")
    v = 1.0 - alpha
    return v / (1.0 + (1.0 - gamma) * v)


def guo_bound(gamma: float, alpha: float, size: int) -> float:
    """Size-dependent alternative forward bound, for comparison only.

    gamma / (1 - gamma) * ((2 * size + 1) ** ((1 - gamma) / (gamma * (1 - alpha))) - 1),
    with analytic limits log(2 * size + 1) / (1 - alpha) at gamma = 1 and +inf
    at gamma = 0 or alpha = 1. ``size`` is the base cardinality N. On the
    101 x 101 grid of (gamma, alpha) it is never below :func:`forward_bound`
    at sizes 2..10, but at size 1 it is below it at 149 points, a lens with
    gamma in (0.5, 0.77] and alpha < 0.08 that touches it at (0.5, 0). At
    N = 1 forward greedy picks the best singleton base, so it is optimal and
    that gap lies between the closed forms only.
    """
    _check_unit(gamma, "gamma")
    _check_unit(alpha, "alpha")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if gamma == 0.0 or alpha == 1.0:
        return INF
    log_base = math.log(2 * size + 1)
    if gamma == 1.0:
        return log_base / (1.0 - alpha)
    exponent = (1.0 - gamma) / (gamma * (1.0 - alpha)) * log_base
    if exponent > 700.0:
        return INF
    return gamma / (1.0 - gamma) * math.expm1(exponent)


def bian_bound(gamma: float, alpha: float) -> float:
    """Alternative reverse bound valid for pure cardinality constraints.

    (1 - exp(-(1 - alpha) * (1 - gamma))) / (1 - gamma), with analytic limit
    1 - alpha at gamma = 1. Never weaker than :func:`reverse_bound`, and both
    vanish at alpha = 1.
    """
    _check_unit(gamma, "gamma")
    _check_unit(alpha, "alpha")
    if gamma == 1.0:
        return 1.0 - alpha
    return -math.expm1(-(1.0 - alpha) * (1.0 - gamma)) / (1.0 - gamma)


def forward_greedy_ratios_detail(
    f: SetFunction, matroid: Matroid, cardinality: int
) -> tuple[float, float, tuple[int, int] | None, tuple[int, int] | None]:
    """Greedy-restricted ratio/curvature for the forward pass, with witnesses.

    Scans exactly the pairs the forward pass can meet: independent S with
    |S| < cardinality and elements s outside S keeping S + s independent.
    gamma_fg = min marg_s(empty) / marg_s(S) and
    alpha_fg = 1 - min marg_s(S) / marg_s(empty), zero conventions as in the
    unrestricted scan; the witness is the first (S ascending, s ascending)
    pair at each minimum. Inputs are checked as by the greedy passes, then
    as by the ratio scan: a non-increasing function raises
    NonMonotoneError, and then an overflowing f(V) - f(empty) ValueError.
    Cheaper than, and never worse than, (gamma, alpha).

    The pairs are (T - s, s) for the independent T with 1 <= |T| <= N and s
    in T, taken from one walk over the independent sets of those sizes, so
    the family makes no independence test. Each element's T, ascending,
    list its S ascending, and its ratios in one list; ``min`` and
    ``list.index`` give the list's first minimum, and the smallest
    (value, S, s) over the elements is the first pair at the family's
    minimum. With a finite range no ratio is nan. A gamma pair that binds
    nothing holds +inf, and an element with a binding pair has a ratio of
    at most 1, at S = empty or a zero, so +inf marks an element that binds
    nothing.
    """
    _check_inputs(f, matroid, cardinality)
    _require_scannable(f)
    vals = f.values
    sets = matroid._independent_sets(1, cardinality)
    g_hits: list[tuple[float, tuple[int, int]]] = []
    a_hits: list[tuple[float, tuple[int, int]]] = []
    for s in range(f.n):
        bit = 1 << s
        ts = [t for t in sets if t & bit]
        # A loop, or a cardinality of 0, leaves s no pair.
        if not ts:
            continue
        d = [vals[t] - vals[t ^ bit] for t in ts]
        d_empty = vals[bit] - vals[0]
        ratios = [d_empty / x if x > 0.0 else INF for x in d]
        low = min(ratios)
        if low < INF:
            g_hits.append((low, (ts[ratios.index(low)] ^ bit, s)))
        if d_empty > 0.0:
            ratios = [x / d_empty for x in d]
            low = min(ratios)
            a_hits.append((low, (ts[ratios.index(low)] ^ bit, s)))
    # With nothing binding, a ratio of 1.0 gives gamma 1 and alpha 0.
    g_low, g_wit = min(g_hits, default=(1.0, None))
    a_low, a_wit = min(a_hits, default=(1.0, None))
    gamma_fg = _clamp_ratio(g_low, "forward-greedy ratio")
    alpha_fg = 1.0 - _clamp_ratio(a_low, "forward-greedy curvature")
    return gamma_fg, alpha_fg, g_wit, a_wit


def forward_greedy_ratios(f: SetFunction, matroid: Matroid, cardinality: int) -> tuple[float, float]:
    g, a, _, _ = forward_greedy_ratios_detail(f, matroid, cardinality)
    return g, a


def _kept_sets(base: int, pool: int, rest: int, size: int) -> list[int]:
    """base - D for every D within ``pool`` that elements of ``rest`` can pad
    to ``size``: the distinct base - (P & pool) over the ``size``-element
    subsets P of pool | rest, each once; ``pool`` lies in ``base``."""
    drops = [-(1 << e) for e in elements(pool)]
    kept: list[int] = []
    for d in range(max(0, size - rest.bit_count()), min(size, len(drops)) + 1):
        kept += map(sum, itertools.combinations(drops, d), itertools.repeat(base))
    return kept


def _first_padding(kept: int, base: int, rest: int, size: int) -> int:
    """The first P in ``itertools.combinations`` order that leaves ``kept``:
    D = base - kept plus the size - |D| smallest elements of ``rest``."""
    dropped = base ^ kept
    return dropped | mask_of(elements(rest)[: size - dropped.bit_count()])


def _first_tie(ratios: list[float], kepts: list[int], base: int, rest: int, size: int) -> int:
    """Index of the first ratio at the minimum whose kept set has the least
    first padding, as a sorted element tuple. :func:`_kept_sets` lists the D
    of one size in ``itertools.combinations`` order, and their first paddings
    add the same elements of ``rest``, so the kept sets of one size come in
    that order: only the first at the minimum of each size is compared.
    """
    low = min(ratios)
    firsts: dict[int, int] = {}
    for i, x in enumerate(ratios):
        if x == low:
            firsts.setdefault(kepts[i].bit_count(), i)
    return min(firsts.values(), key=lambda i: elements(_first_padding(kepts[i], base, rest, size)))


def reverse_greedy_ratios_detail(
    f: SetFunction, matroid: Matroid, cardinality: int, trace: GreedyTrace
) -> tuple[float, float, tuple[int, int] | None, tuple[int, int, int] | None]:
    """Ex-post greedy-restricted ratio/curvature for the reverse pass.

    Works in the reflected function S -> -f(V \\ S) over the removal sets
    R^t of the trace. The ratio family compares each step's marginal against
    the same marginal taken past R^(t-1) plus any final-size set avoiding the
    pick; the curvature family compares it against marginals past the final
    removal set padded to the step's size. Each reflected marginal is read
    as the same float f(K) - f(K - r) at the kept set K = V \\ R. Values can
    exceed the unit interval on these restricted families and are clamped.
    Witnesses are (t, padding mask) and (t, padding mask, element), the
    first in (t, padding in ``itertools.combinations`` order, element)
    order at each minimum. Inputs are checked as by the greedy passes, then
    as by the ratio scan (increasing, then a finite f(V) - f(empty)), and a
    trace whose sets do not follow its picks raises TraceMismatchError.

    A padding P enters only through the kept set it leaves: K^(t-1) - P in
    the ratio family, so only D = P & K^(t-1) matters, and final - P in the
    curvature family, so only D = P & final does. Paddings with one D give
    the same ratios, so the first padding at a minimum is the first padding
    of its D. Each step lists its distinct kept sets once (the curvature
    family only its binding pairs) and takes the smallest ratio; a tie goes
    to the least first padding, as a sorted element tuple, and then, in the
    curvature family, to the smaller element. The smallest (value, t, ...)
    over the steps is the first pair at the family's minimum, at its own
    ratio, so a -0.0 keeps its sign. With a finite range no ratio is nan;
    one can be +inf where a denominator is subnormal, and it still ranks by
    t like any other value.
    """
    _check_inputs(f, matroid, cardinality)
    _require_scannable(f)
    n = f.n
    removed_total = n - cardinality
    if (
        trace.algorithm not in (REVERSE, REVERSE_AS_FORWARD)
        or trace.n != n
        or len(trace.steps) != removed_total
    ):
        raise TraceMismatchError(
            "trace does not match a reverse run of this instance"
        )
    _check_trace_sets(trace)
    vals = f.values
    full = full_mask(n)
    kept_sets = [full] + [step.set_after for step in trace.steps]
    final = trace.final_set
    g_hits: list[tuple[float, tuple[int, int]]] = []
    a_hits: list[tuple[float, tuple[int, int, int]]] = []

    for t, step in enumerate(trace.steps, 1):
        bit = 1 << step.chosen
        before = kept_sets[t - 1]
        denom = vals[before] - vals[before & ~bit]
        if denom <= 0.0:
            continue
        rest = full & ~before
        kepts = _kept_sets(before, before & ~bit, rest, removed_total)
        ratios = [(vals[k] - vals[k & ~bit]) / denom for k in kepts]
        # A cardinality of 0 leaves no padding of the final size.
        if ratios:
            i = _first_tie(ratios, kepts, before, rest, removed_total)
            g_hits.append((ratios[i], (t, _first_padding(kepts[i], before, rest, removed_total))))

    rest = full & ~final
    finals = elements(final)
    for t in range(1, removed_total + 1):
        before = kept_sets[t - 1]
        top = vals[before]
        # Only elements of the final set are ever r.
        gains = {r: top - vals[before & ~(1 << r)] for r in finals}
        kepts = _kept_sets(final, final, rest, t - 1)
        binding = [
            (k, r, x) for k in kepts for r in finals
            if k >> r & 1 and (x := vals[k] - vals[k & ~(1 << r)]) > 0.0
        ]
        if not binding:
            continue
        ratios = [gains[r] / x for _, r, x in binding]
        i = _first_tie(ratios, [k for k, _, _ in binding], final, rest, t - 1)
        k, r, _ = binding[i]
        a_hits.append((ratios[i], (t, _first_padding(k, final, rest, t - 1), r)))

    # With nothing binding, a ratio of 1.0 gives gamma 1 and alpha 0.
    g_low, g_wit = min(g_hits, default=(1.0, None))
    a_low, a_wit = min(a_hits, default=(1.0, None))
    gamma_rg = min(1.0, max(0.0, g_low))
    alpha_rg = min(1.0, max(0.0, 1.0 - a_low))
    return gamma_rg, alpha_rg, g_wit, a_wit


def reverse_greedy_ratios(
    f: SetFunction, matroid: Matroid, cardinality: int, trace: GreedyTrace
) -> tuple[float, float]:
    g, a, _, _ = reverse_greedy_ratios_detail(f, matroid, cardinality, trace)
    return g, a


def _leq(lhs: float, rhs: float, tol: float) -> bool:
    """lhs <= rhs up to a relative tolerance; an infinite gap is never within it."""
    if lhs <= rhs:
        return True
    gap = lhs - rhs
    return gap < INF and gap <= tol * max(1.0, abs(lhs), abs(rhs))


def _verify(
    f: SetFunction,
    matroid: Matroid,
    cardinality: int,
    reverse: bool,
    instance_id: str,
    tolerance: float,
    optimum: OptimumRecord | None,
) -> VerificationRecord:
    """Both verify functions: one pass, its achieved ratio, and its bound.

    Each gain is taken from the pass's start set in its own operand order,
    so a reverse ratio of zero stays +0.0.
    """
    # An infinite tolerance would pass every finite violation.
    if not 0.0 <= tolerance < INF:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    if optimum is not None and not math.isfinite(optimum.optimum_value):
        raise ValueError(f"optimum value must be finite, got {optimum.optimum_value}")
    scan = ratio_scan(f)
    trace = (reverse_greedy if reverse else forward_greedy)(f, matroid, cardinality)
    if optimum is None:
        opt = brute_force_optimum(f, matroid, cardinality, "min")
    else:
        # The pass has checked f, matroid and cardinality; the range test keeps this message.
        mask = optimum.optimum_set
        if not (0 <= mask < 1 << f.n and mask.bit_count() == cardinality
                and matroid.is_independent(mask)):
            raise ValueError(
                f"optimum record {optimum}: its set is no independent set of "
                f"{cardinality} elements in 0..{f.n - 1}"
            )
        if repr(optimum.optimum_value) != repr(f.values[mask]):
            raise ValueError(
                f"optimum record {optimum}: its value is not the table's "
                f"{f.values[mask]!r} at its set"
            )
        opt = optimum
    start, got, best = trace.f_initial, trace.f_final, opt.optimum_value
    gain, room = (start - got, start - best) if reverse else (got - start, best - start)
    if room == 0.0:
        achieved = 1.0 if gain == 0.0 else 0.0 if reverse else INF
    else:
        achieved = gain / room
    bound = (reverse_bound if reverse else forward_bound)(scan.gamma, scan.alpha)
    satisfied = _leq(bound, achieved, tolerance) if reverse else _leq(achieved, bound, tolerance)
    return VerificationRecord(
        instance_id, trace.algorithm, achieved, bound, satisfied,
        f.values[0], f.values[-1], got, best,
    )


def verify_forward(
    f: SetFunction,
    matroid: Matroid,
    cardinality: int,
    *,
    instance_id: str = "",
    tolerance: float = DEFAULT_TOLERANCE,
    optimum: OptimumRecord | None = None,
) -> VerificationRecord:
    """Run the forward pass and check its achieved ratio against the bound.

    The achieved ratio references the empty set; when the optimum equals the
    empty-set value the ratio is 1 if the greedy matched it and +inf
    otherwise. (gamma, alpha) come from the function's memoized
    :func:`ratio_scan`; ``optimum`` may carry the minimizing brute-force
    record to skip the base enumeration. A tolerance that is not finite and
    >= 0 raises ValueError before any scan, as does a non-finite optimum
    value. The optimum's set and value are checked later, after the ratio
    scan and the pass have checked ``f``, ``matroid`` and ``cardinality``:
    ValueError for a set outside the ground set, not of ``cardinality``
    elements, or not independent in ``matroid``, and then for a value that
    is not the table's own float at that set (by ``repr``, so -0.0 is not
    0.0).
    """
    return _verify(f, matroid, cardinality, False, instance_id, tolerance, optimum)


def verify_reverse(
    f: SetFunction,
    matroid: Matroid,
    cardinality: int,
    *,
    instance_id: str = "",
    tolerance: float = DEFAULT_TOLERANCE,
    optimum: OptimumRecord | None = None,
) -> VerificationRecord:
    """Run the reverse pass and check its achieved ratio against the bound.

    The achieved ratio references the full set; when the optimum equals the
    full-set value the ratio is 1 if the greedy matched it and 0 otherwise.
    (gamma, alpha), ``optimum`` and the order of the checks are as in
    ``verify_forward``.
    """
    return _verify(f, matroid, cardinality, True, instance_id, tolerance, optimum)


def region_compare(
    f_empty: float, f_full: float, f_star: float, grid_size: int
) -> RegionGrid:
    """Compare both guarantees on a uniform (alpha, gamma) grid.

    For normalized reference values f_empty <= f_star <= f_full, each cell
    carries the guaranteed forward objective f_empty + forward_bound * (f_star
    - f_empty) and the guaranteed reverse objective f_full - reverse_bound *
    (f_full - f_star); the winner has the strictly smaller guaranteed value,
    ties going to reverse. The grid steps by 1/grid_size and skips the
    singular gamma = 0 column and alpha = 1 row, giving grid_size values per
    axis. Reference values so far apart that a guaranteed value overflows
    raise ValueError.
    """
    if not all(map(math.isfinite, (f_empty, f_full, f_star))):
        raise ValueError(
            f"reference values must be finite, got ({f_empty}, {f_star}, {f_full})"
        )
    if not f_empty <= f_star <= f_full:
        raise ValueError(
            f"need f_empty <= f_star <= f_full, got ({f_empty}, {f_star}, {f_full})"
        )
    if grid_size < 2:
        raise ValueError(f"grid size must be >= 2, got {grid_size}")
    check_size(grid_size, MAX_REGION_GRID, "region grid")
    alphas = tuple(i / grid_size for i in range(grid_size))
    gammas = tuple(j / grid_size for j in range(1, grid_size + 1))
    rows = []
    for alpha in alphas:
        row = []
        for gamma in gammas:
            fb = forward_bound(gamma, alpha)
            if f_star == f_empty:
                fwd_ub = f_empty
            else:
                fwd_ub = f_empty + fb * (f_star - f_empty)
            rev_ub = f_full - reverse_bound(gamma, alpha) * (f_full - f_star)
            if not (math.isfinite(fwd_ub) and math.isfinite(rev_ub)):
                raise ValueError(
                    f"guaranteed values overflow at alpha={alpha}, gamma={gamma}: "
                    f"forward {fwd_ub}, reverse {rev_ub}"
                )
            winner = "forward" if fwd_ub < rev_ub else "reverse"
            row.append(RegionCell(alpha, gamma, fwd_ub, rev_ub, winner))
        rows.append(tuple(row))
    return RegionGrid(f_empty, f_full, f_star, alphas, gammas, tuple(rows))


def analyze_ratios(
    f: SetFunction,
    matroid: Matroid | None = None,
    cardinality: int | None = None,
    *,
    include_greedy: bool = False,
    include_strong: bool = False,
) -> tuple[RatioReport, dict[str, object]]:
    """Assemble a RatioReport plus the witnesses attaining each minimum.

    The greedy-restricted fields need the matroid and cardinality; the
    reverse pair is computed ex post from the trace of :func:`reverse_greedy`.
    Asking for them without both raises ValueError before any scan.
    """
    if include_greedy and (matroid is None or cardinality is None):
        raise ValueError("greedy-restricted ratios need the matroid and cardinality")
    # Within the cumulative cap the ratio scan runs first: its marginal lists
    # also settle monotonicity and keep the extremes strong curvature reads,
    # so no other stage builds them. Above the cap the cumulative scan fails
    # after the monotonicity scan and before any ratio scan. Either way a
    # non-increasing table fails first, then an oversized one, then an
    # overflowing value range.
    if f.n <= MAX_CUMULATIVE_N:
        ratio_scan(f)
    cumulative, cum_wit = cumulative_ratio_detail(f)
    scan = ratio_scan(f)
    witnesses: dict[str, object] = {
        "gamma": scan.gamma_witness,
        "alpha": scan.alpha_witness,
        "gamma_cumulative": cum_wit,
    }
    fields: dict[str, float] = {
        "gamma": scan.gamma,
        "alpha": scan.alpha,
        "gamma_cumulative": cumulative,
    }
    if include_strong:
        c, _, _, wit = strong_curvature_detail(f)
        fields["strong_c"] = c
        witnesses["strong_c"] = wit
    if include_greedy:
        g_fg, a_fg, gw, aw = forward_greedy_ratios_detail(f, matroid, cardinality)
        trace = reverse_greedy(f, matroid, cardinality)
        g_rg, a_rg, gw2, aw2 = reverse_greedy_ratios_detail(f, matroid, cardinality, trace)
        fields.update(gamma_fg=g_fg, alpha_fg=a_fg, gamma_rg=g_rg, alpha_rg=a_rg)
        witnesses.update(gamma_fg=gw, alpha_fg=aw, gamma_rg=gw2, alpha_rg=aw2)
    return RatioReport(**fields), witnesses
