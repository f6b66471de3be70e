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

from .caps import MAX_REGION_GRID, check_size
from .errors import TraceMismatchError
from .greedy import (
    REVERSE,
    REVERSE_AS_FORWARD,
    GreedyTrace,
    OptimumRecord,
    brute_force_optimum,
    forward_greedy,
    reverse_greedy,
    reverse_greedy_as_forward,
)
from .matroids import Matroid
from .setfunc import (
    SetFunction,
    _clamp_ratio,
    _marginals,
    _require_increasing,
    _subset_at,
    complement_values,
    cumulative_ratio_detail,
    ratio_scan,
)
from .subsets import full_mask, mask_of

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
    """
    _require_increasing(f)
    vals = f.values
    worst: float | None = None
    witness: tuple[int, int, int] | None = None
    for j in range(f.n):
        # min/max and list.index all keep the first extreme in ascending S.
        d = _marginals(vals, j)
        hi = max(d)
        if hi > 0.0:
            lo = min(d)
            ratio = lo / hi
            if worst is None or ratio < worst:
                worst = ratio
                witness = (j, _subset_at(d.index(hi), j), _subset_at(d.index(lo), j))
    c = 0.0 if worst is None else 1.0 - _clamp_ratio(worst, "strong-curvature")
    fwd = INF if c == 1.0 else 1.0 / (1.0 - c)
    return c, fwd, 1.0 - c, witness


def strong_curvature(f: SetFunction) -> tuple[float, float, float]:
    """Strong curvature and its (forward, reverse) bound pair."""
    c, fwd, rev, _ = strong_curvature_detail(f)
    return c, fwd, rev


def forward_greedy_ratios_detail(
    f: SetFunction, matroid: Matroid, cardinality: int
) -> tuple[float, float, tuple[int, int] | None, tuple[int, int] | None]:
    """Greedy-restricted ratio/curvature for the forward pass, with witnesses.

    Scans exactly the pairs the forward pass can meet: independent S with
    |S| < cardinality and elements s outside S keeping S + s independent.
    gamma_fg = min marg_s(empty) / marg_s(S) and
    alpha_fg = 1 - min marg_s(S) / marg_s(empty), zero conventions as in the
    unrestricted scan. Cheaper than, and never worse than, (gamma, alpha).
    """
    _require_increasing(f)
    n = f.n
    vals = f.values
    truncated = matroid.truncate(cardinality)
    g_best: float | None = None
    a_best: float | None = None
    g_wit: tuple[int, int] | None = None
    a_wit: tuple[int, int] | None = None
    empty = vals[0]
    for subset in range(1 << n):
        if subset.bit_count() > cardinality - 1:
            continue
        if not truncated.is_independent(subset):
            continue
        base = vals[subset]
        for s in range(n):
            if subset >> s & 1:
                continue
            bit = 1 << s
            if not truncated.is_independent(subset | bit):
                continue
            d_empty = vals[bit] - empty
            d_here = vals[subset | bit] - base
            if d_here > 0.0:
                r = d_empty / d_here
                if g_best is None or r < g_best:
                    g_best, g_wit = r, (subset, s)
            if d_empty > 0.0:
                r = d_here / d_empty
                if a_best is None or r < a_best:
                    a_best, a_wit = r, (subset, s)
    gamma_fg = 1.0 if g_best is None else _clamp_ratio(g_best, "forward-greedy ratio")
    alpha_fg = 0.0 if a_best is None else 1.0 - _clamp_ratio(a_best, "forward-greedy curvature")
    return gamma_fg, alpha_fg, g_wit, a_wit


def forward_greedy_ratios(f: SetFunction, matroid: Matroid, cardinality: int) -> tuple[float, float]:
    g, a, _, _ = forward_greedy_ratios_detail(f, matroid, cardinality)
    return g, a


def reverse_greedy_ratios_detail(
    f: SetFunction, matroid: Matroid, cardinality: int, trace: GreedyTrace
) -> tuple[float, float, tuple[int, int] | None, tuple[int, int, int] | None]:
    """Ex-post greedy-restricted ratio/curvature for the reverse pass.

    Works in the reflected function over the removal sets R^t recorded in the
    trace. The ratio family compares each step's marginal against the same
    marginal taken past any disjoint set of final size; the curvature family
    compares it against marginals past the final removal set padded to the
    step's size. Values can exceed the unit interval on these restricted
    families and are clamped. Witnesses are (t, padding mask) and
    (t, padding mask, element).
    """
    _require_increasing(f)
    n = f.n
    full = full_mask(n)
    removed_total = n - cardinality
    if (
        trace.algorithm not in (REVERSE, REVERSE_AS_FORWARD)
        or trace.n != n
        or len(trace.steps) != removed_total
    ):
        raise TraceMismatchError(
            "trace does not match a reverse run of this instance"
        )
    hat = complement_values(f)
    removal_sets = [0] + [full ^ step.set_after for step in trace.steps]
    g_best: float | None = None
    a_best: float | None = None
    g_wit: tuple[int, int] | None = None
    a_wit: tuple[int, int, int] | None = None

    for t in range(1, removed_total + 1):
        r = trace.steps[t - 1].chosen
        before = removal_sets[t - 1]
        bit = 1 << r
        denom = hat[before | bit] - hat[before]
        if denom <= 0.0:
            continue
        others = [e for e in range(n) if e != r]
        for combo in itertools.combinations(others, removed_total):
            pad = mask_of(combo)
            num = hat[before | pad | bit] - hat[before | pad]
            ratio = num / denom
            if g_best is None or ratio < g_best:
                g_best, g_wit = ratio, (t, pad)

    final_removed = removal_sets[removed_total]
    for t in range(1, removed_total + 1):
        before = removal_sets[t - 1]
        for combo in itertools.combinations(range(n), t - 1):
            pad = mask_of(combo)
            big = final_removed | pad
            for r in range(n):
                if big >> r & 1:
                    continue
                bit = 1 << r
                denom = hat[big | bit] - hat[big]
                if denom <= 0.0:
                    continue
                num = hat[before | bit] - hat[before]
                ratio = num / denom
                if a_best is None or ratio < a_best:
                    a_best, a_wit = ratio, (t, pad, r)

    gamma_rg = 1.0 if g_best is None else min(1.0, max(0.0, g_best))
    alpha_rg = 0.0 if a_best is None else min(1.0, max(0.0, 1.0 - a_best))
    return gamma_rg, alpha_rg, g_wit, a_wit


def reverse_greedy_ratios(
    f: SetFunction, matroid: Matroid, cardinality: int, trace: GreedyTrace
) -> tuple[float, float]:
    g, a, _, _ = reverse_greedy_ratios_detail(f, matroid, cardinality, trace)
    return g, a


def _leq(lhs: float, rhs: float, tol: float) -> bool:
    if lhs <= rhs:
        return True
    return lhs - rhs <= tol * max(1.0, abs(lhs), abs(rhs))


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
    # The cumulative scan has the tighter cap, so an oversized table fails
    # before the ratio scan runs.
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
