"""Closed-form performance bounds, greedy-restricted ratios, and verification.

The two headline bounds tie the greedy objective to the optimum through the
submodularity ratio gamma and the curvature alpha: the forward pass satisfies
(f(greedy) - f(empty)) / (f(opt) - f(empty)) <= 1 / (gamma * (1 - alpha)),
and the reverse pass satisfies
(f(full) - f(greedy)) / (f(full) - f(opt)) >= (1 - alpha) / (1 + (1 - gamma) * (1 - alpha)).

Alongside them: a size-dependent alternative forward bound, a
cardinality-constraint alternative reverse bound, strong-curvature bounds,
the cheaper greedy-restricted ratio families for both passes, brute-force
verification records, and the region sweep that compares the two guarantees
across the (alpha, gamma) square.
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
    reverse_greedy_as_forward,
)
from .matroids import Matroid
from .setfunc import (
    SetFunction,
    _check_value_range,
    _clamp_ratio,
    _marginals,
    _require_increasing,
    _subset_at,
    cumulative_ratio_detail,
    ratio_scan,
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
    at gamma = 0 or alpha = 1. Never tighter than :func:`forward_bound`.
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


def strong_curvature_detail(
    f: SetFunction,
) -> tuple[float, float, float, tuple[int, int, int] | None]:
    """Strong curvature c with its witness (element, maximizing S, minimizing R).

    c = 1 - min over elements j of (min marginal of j) / (max marginal of j),
    where both extremes range over all subsets avoiding j; a far stronger
    requirement than bounding the nested-pair families, so
    c >= max(alpha, 1 - gamma). Also returns the induced forward bound
    1 / (1 - c) and reverse bound 1 - c.

    The extremes are the ones the marginal pass kept, whether
    ``check_monotone`` or the ratio scan ran it, read after the input
    checks; the first element with the smallest ratio binds, and only its
    marginal list is built again, for the first S at each extreme.
    """
    _require_increasing(f)
    _check_value_range(f)
    extremes: list[tuple[float, float]] = f._extremes  # type: ignore[assignment]
    ratios = [lo / hi if hi > 0.0 else INF for lo, hi in extremes]
    first = next((j for j, (_, hi) in enumerate(extremes) if hi > 0.0), None)
    hit = _strict_min(None, ratios, first)
    if hit is None:
        return 0.0, 1.0, 1.0, None
    worst, at = hit
    lo, hi = extremes[at]
    # list.index keeps the first extreme in ascending S, as min and max do.
    d = _marginals(f.values, at)
    witness = (at, _subset_at(d.index(hi), at), _subset_at(d.index(lo), at))
    c = 1.0 - _clamp_ratio(worst, "strong-curvature")
    fwd = INF if c == 1.0 else 1.0 / (1.0 - c)
    return c, fwd, 1.0 - c, witness


def strong_curvature(f: SetFunction) -> tuple[float, float, float]:
    """Strong curvature and its (forward, reverse) bound pair."""
    c, fwd, rev, _ = strong_curvature_detail(f)
    return c, fwd, rev


def _strict_min(
    best: float | None, ratios: list[float], first: int | None = 0
) -> tuple[float, int] | None:
    """Where ``if best is None or r < best: best = r`` over the binding ratios ends.

    Returns (value, index) of the entry the loop ends at, or None where it
    keeps ``best``. ``ratios[first]`` is the first binding entry, read only
    where ``best`` is None (``first`` None: nothing binds). Later entries
    that bind nothing must hold +inf, which never wins. The builtin ``min``
    runs that very loop, so ties keep the first entry with the sign of its
    zero, and a nan wins only where the loop starts. ``setfunc._first_min``
    ranks (value, R) tuples instead, so there an equal value at a smaller R
    wins; one helper for both would have to branch on its caller.
    """
    if best is None:
        if first is None:
            return None
        low = min(itertools.islice(ratios, first, None))
        return low, ratios.index(low, first)
    low = min([best, *ratios])
    if low < best:
        return low, ratios.index(low)
    return None


def forward_greedy_ratios_detail(
    f: SetFunction, matroid: Matroid, cardinality: int
) -> tuple[float, float, tuple[int, int] | None, tuple[int, int] | None]:
    """Greedy-restricted ratio/curvature for the forward pass, with witnesses.

    Scans exactly the pairs the forward pass can meet: independent S with
    |S| < cardinality and elements s outside S keeping S + s independent.
    gamma_fg = min marg_s(empty) / marg_s(S) and
    alpha_fg = 1 - min marg_s(S) / marg_s(empty), zero conventions as in the
    unrestricted scan; the witness is the first (S ascending, s ascending)
    pair at each minimum. Inputs are checked as by the greedy passes.
    Cheaper than, and never worse than, (gamma, alpha).

    The pairs are (T - s, s) for the independent T with 1 <= |T| <= N and s
    in T, taken from one walk over the independent sets of those sizes, so
    the family makes no independence test. Each element's T, ascending,
    list its S ascending, and its ratios in one list. A loop over all pairs
    in witness order would start at its first binding pair. Where some
    non-loop element has a positive marg_s(empty), that pair is (empty, s0)
    for the smallest such s0 in both families, at ratio 1.0, or nan where
    the marginal overflows. Each element's list is ranked against that
    start, and the smallest (value, S, s) strictly below it, if any, is
    where the loop ends; a nan start is kept. With no such s0 no curvature
    pair binds and every ratio is a zero, so +inf stands in for the start.
    """
    _check_inputs(f, matroid, cardinality)
    _require_increasing(f)
    vals = f.values
    empty = vals[0]
    sets = matroid._independent_sets(1, cardinality)
    # The mask of {s0}, or 0 where no s0 exists; the singletons ascend.
    single = next((t for t in sets if not t & (t - 1) and vals[t] - empty > 0.0), 0)
    start = (vals[single] - empty) / (vals[single] - empty) if single else INF
    g_hits: list[tuple[float, int, int]] = []
    a_hits: list[tuple[float, int, int]] = []
    for s in range(f.n):
        bit = 1 << s
        ts = [t for t in sets if t & bit]
        d = [vals[t] - vals[t ^ bit] for t in ts]
        d_empty = vals[bit] - empty
        hit = _strict_min(start, [d_empty / x if x > 0.0 else INF for x in d])
        if hit:
            g_hits.append((hit[0], ts[hit[1]] ^ bit, s))
        if d_empty > 0.0:
            hit = _strict_min(start, [x / d_empty for x in d])
            if hit:
                a_hits.append((hit[0], ts[hit[1]] ^ bit, s))
    loop_start = (start, 0, single.bit_length() - 1) if single else None
    g_best = min(g_hits, default=loop_start)
    a_best = min(a_hits, default=loop_start)
    if g_best is None:
        gamma_fg, g_wit = 1.0, None
    else:
        gamma_fg, g_wit = _clamp_ratio(g_best[0], "forward-greedy ratio"), g_best[1:]
    if a_best is None:
        alpha_fg, a_wit = 0.0, None
    else:
        alpha_fg = 1.0 - _clamp_ratio(a_best[0], "forward-greedy curvature")
        a_wit = a_best[1:]
    return gamma_fg, alpha_fg, g_wit, a_wit


def forward_greedy_ratios(f: SetFunction, matroid: Matroid, cardinality: int) -> tuple[float, float]:
    g, a, _, _ = forward_greedy_ratios_detail(f, matroid, cardinality)
    return g, a


def _kept_sets(n: int, base: int, pool: int, rest: int, size: int) -> list[int]:
    """The distinct base - (P & pool) over the ``size``-element subsets P of
    pool | rest, each listed once, in the order of the first P that leaves it.

    ``pool`` lies in ``base`` and ``rest`` outside it. P acts only through
    D = P & pool, and the first P in ``itertools.combinations`` order with a
    given D is D plus the size - |D| smallest elements of ``rest``. Among
    sets of one size, sorted element tuples ascend as bit-reversed masks
    descend, since the smallest element where two sets differ decides both.
    So each kept set is keyed by its first P, bit-reversed into bits
    n..2n-1, above base - D in the low n bits, and one descending sort lists
    the kept sets in order.
    """
    top = 2 * n - 1
    outside = [1 << (top - e) for e in range(n) if rest >> e & 1]
    # heads[j]: the key bits of the j smallest elements of rest.
    heads = list(itertools.accumulate(outside, initial=0))
    # An element of D adds its key bit and leaves base.
    drops = [(1 << (top - e)) - (1 << e) for e in range(n) if pool >> e & 1]
    keys: list[int] = []
    for d in range(max(0, size - len(outside)), min(size, len(drops)) + 1):
        start = base + heads[size - d]
        keys += map(sum, itertools.combinations(drops, d), itertools.repeat(start))
    keys.sort(reverse=True)
    low = full_mask(n)
    return [key & low for key in keys]


def _first_padding(kept: int, base: int, rest: int, size: int) -> int:
    """The first P that leaves ``kept``, as in :func:`_kept_sets`."""
    dropped = base ^ kept
    return dropped | mask_of(elements(rest)[: size - dropped.bit_count()])


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
    order at each minimum. Inputs are checked as by the greedy passes, and a
    trace whose sets do not follow its picks raises TraceMismatchError.

    A padding P enters only through the kept set it leaves: K^(t-1) - P in
    the ratio family, so only D = P & K^(t-1) matters, and final - P in the
    curvature family, so only D = P & final does. Paddings with one D give
    the same ratios, so a repeat never falls strictly below a minimum its
    first occurrence already met, nor binds first: the loop over all
    paddings ends where the loop over the first padding of each D ends.
    That first padding, in ``itertools.combinations`` order, is D plus the
    |P| - |D| smallest elements outside the kept set's base and the pick.
    Each step therefore lists its distinct kept sets once, ordered by their
    first paddings, ranks the ratios of all of them in witness order
    against the running minimum, and reports the first padding of the kept
    set the minimum falls on.
    """
    _check_inputs(f, matroid, cardinality)
    _require_increasing(f)
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
    g_best: float | None = None
    a_best: float | None = None
    g_wit: tuple[int, int] | None = None
    a_wit: tuple[int, int, int] | None = None

    for t, step in enumerate(trace.steps, 1):
        bit = 1 << step.chosen
        before = kept_sets[t - 1]
        denom = vals[before] - vals[before & ~bit]
        if denom <= 0.0:
            continue
        rest = full & ~before & ~bit
        kepts = _kept_sets(n, before, before & ~bit, rest, removed_total)
        ratios = [(vals[k] - vals[k & ~bit]) / denom for k in kepts]
        hit = _strict_min(g_best, ratios, 0 if ratios else None)
        if hit:
            g_best, i = hit
            g_wit = (t, _first_padding(kepts[i], before, rest, removed_total))

    rest = full & ~final
    finals = elements(final)
    for t in range(1, removed_total + 1):
        before = kept_sets[t - 1]
        top = vals[before]
        # Only elements of the final set are ever r.
        gains = {r: top - vals[before & ~(1 << r)] for r in finals}
        kepts = _kept_sets(n, final, final, rest, t - 1)
        pairs = [(k, r) for k in kepts for r in finals if k >> r & 1]
        denoms = [vals[k] - vals[k & ~(1 << r)] for k, r in pairs]
        ratios = [gains[r] / x if x > 0.0 else INF for (_, r), x in zip(pairs, denoms)]
        first = None
        if a_best is None:
            first = next((i for i, x in enumerate(denoms) if x > 0.0), None)
        hit = _strict_min(a_best, ratios, first)
        if hit:
            a_best, i = hit
            k, r = pairs[i]
            a_wit = (t, _first_padding(k, final, rest, t - 1), r)

    gamma_rg = 1.0 if g_best is None else min(1.0, max(0.0, g_best))
    alpha_rg = 0.0 if a_best is None else min(1.0, max(0.0, 1.0 - a_best))
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
    record to skip the base enumeration.
    """
    scan = ratio_scan(f)
    trace = forward_greedy(f, matroid, cardinality)
    opt = optimum if optimum is not None else brute_force_optimum(f, matroid, cardinality, "min")
    numerator = trace.f_final - trace.f_initial
    denominator = opt.optimum_value - trace.f_initial
    if denominator == 0.0:
        achieved = 1.0 if numerator == 0.0 else INF
    else:
        achieved = numerator / denominator
    bound = forward_bound(scan.gamma, scan.alpha)
    satisfied = bound == INF or _leq(achieved, bound, tolerance)
    full = full_mask(matroid.n)
    return VerificationRecord(
        instance_id,
        "forward",
        achieved,
        bound,
        satisfied,
        trace.f_initial,
        f.values[full],
        trace.f_final,
        opt.optimum_value,
    )


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
    (gamma, alpha) and ``optimum`` are as in ``verify_forward``.
    """
    scan = ratio_scan(f)
    trace = reverse_greedy(f, matroid, cardinality)
    opt = optimum if optimum is not None else brute_force_optimum(f, matroid, cardinality, "min")
    numerator = trace.f_initial - trace.f_final
    denominator = trace.f_initial - opt.optimum_value
    if denominator == 0.0:
        achieved = 1.0 if numerator == 0.0 else 0.0
    else:
        achieved = numerator / denominator
    bound = reverse_bound(scan.gamma, scan.alpha)
    satisfied = _leq(bound, achieved, tolerance)
    return VerificationRecord(
        instance_id,
        "reverse",
        achieved,
        bound,
        satisfied,
        f.values[0],
        trace.f_initial,
        trace.f_final,
        opt.optimum_value,
    )


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
    reverse pair is computed ex post from a fresh reverse-as-forward run.
    """
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
        if matroid is None or cardinality is None:
            raise ValueError("greedy-restricted ratios need the matroid and cardinality")
        g_fg, a_fg, gw, aw = forward_greedy_ratios_detail(f, matroid, cardinality)
        trace = reverse_greedy_as_forward(f, matroid, cardinality)
        g_rg, a_rg, gw2, aw2 = reverse_greedy_ratios_detail(f, matroid, cardinality, trace)
        fields.update(gamma_fg=g_fg, alpha_fg=a_fg, gamma_rg=g_rg, alpha_rg=a_rg)
        witnesses.update(gamma_fg=gw, alpha_fg=aw, gamma_rg=gw2, alpha_rg=aw2)
    return RatioReport(**fields), witnesses
