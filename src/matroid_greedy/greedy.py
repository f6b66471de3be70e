"""Forward and reverse greedy over matroid bases, with full trace recording.

The forward pass grows a base by repeatedly taking the cheapest still-feasible
element; the reverse pass shrinks from the full ground set by removing the
most expensive element whose removal keeps a full-cardinality base reachable.
The reverse pass is also available as a forward pass on the reflected
function over the dual of the truncated matroid; both produce identical
traces under the shared smallest-id tie-breaking.

Each run records every accepted step, every rejected candidate, and the
intermediate sets, which is what the ordering-witness construction and the
ex-post ratio scans consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroundSetTooLargeError, InfeasibleError, WitnessFailureError
from .matroids import MAX_BASE_ENUM_N, Matroid
from .setfunc import SetFunction, complement_values
from .subsets import elements, full_mask

FORWARD = "forward"
REVERSE = "reverse"
REVERSE_AS_FORWARD = "reverse_as_forward"


@dataclass(frozen=True)
class GreedyStep:
    t: int
    chosen: int
    marginal: float
    set_after: int


@dataclass(frozen=True)
class Rejection:
    before_step: int
    element: int


@dataclass(frozen=True)
class GreedyTrace:
    """Complete run record of one greedy pass.

    ``set_after`` always holds the working solution in the primal ground set
    (the shrinking set for both reverse variants), so reverse and
    reverse-as-forward traces are directly comparable. ``f_initial`` is f at
    the start set (empty for forward, full for reverse) and ``f_final`` is f
    at ``final_set``; marginals telescope between the two up to the sign of
    the pass.
    """

    algorithm: str
    n: int
    steps: tuple[GreedyStep, ...]
    rejected: tuple[Rejection, ...]
    final_set: int
    f_initial: float
    f_final: float


@dataclass(frozen=True)
class OrderingWitness:
    """A permutation of a base aligned step-by-step against the greedy picks.

    ``per_step_check`` lists (base-element marginal, greedy marginal) pairs;
    the base marginal dominates the greedy one at every step (>= for the
    forward direction, <= for the reverse direction).
    """

    base: int
    ordering: tuple[int, ...]
    per_step_check: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class OptimumRecord:
    optimum_set: int
    optimum_value: float
    bases_examined: int


def _check_feasible(matroid: Matroid, cardinality: int) -> None:
    if cardinality < 0:
        raise InfeasibleError(f"target cardinality must be >= 0, got {cardinality}")
    if matroid.rank_full < cardinality:
        raise InfeasibleError(
            f"matroid rank {matroid.rank_full} is below the target cardinality {cardinality}"
        )


def forward_greedy(f: SetFunction, matroid: Matroid, cardinality: int) -> GreedyTrace:
    """Grow a base of the given cardinality by repeated cheapest-feasible insertion.

    Each while-iteration takes the argmin marginal over all never-considered
    elements (ties to the smallest id); an infeasible pick is recorded as a
    rejection and the step counter does not advance. Guarantees assume an
    increasing f, but the algorithm runs on any table.
    """
    n = matroid.n
    if f.n != n:
        raise ValueError(f"function is on n={f.n} but matroid on n={n}")
    _check_feasible(matroid, cardinality)
    chosen_set = 0
    considered = 0
    t = 1
    steps: list[GreedyStep] = []
    rejected: list[Rejection] = []
    f_initial = f(0)
    while chosen_set.bit_count() < cardinality:
        best = -1
        best_val = 0.0
        for j in range(n):
            if considered >> j & 1:
                continue
            val = f.marginal(chosen_set, j)
            if best < 0 or val < best_val:
                best, best_val = j, val
        if best < 0:
            raise InfeasibleError("ran out of candidates before reaching the cardinality")
        bit = 1 << best
        if not matroid.is_independent(chosen_set | bit):
            considered |= bit
            rejected.append(Rejection(t, best))
        else:
            chosen_set |= bit
            considered |= bit
            steps.append(GreedyStep(t, best, best_val, chosen_set))
            t += 1
    return GreedyTrace(
        FORWARD, n, tuple(steps), tuple(rejected), chosen_set, f_initial, f(chosen_set)
    )


def reverse_greedy(f: SetFunction, matroid: Matroid, cardinality: int) -> GreedyTrace:
    """Shrink from the full set by repeated costliest-removable deletion.

    Each while-iteration takes the argmax removal marginal over all
    never-considered elements (ties to the smallest id); removal is feasible
    iff the remaining set still has rank >= the target cardinality, and a
    rejected element is never reconsidered.
    """
    n = matroid.n
    if f.n != n:
        raise ValueError(f"function is on n={f.n} but matroid on n={n}")
    _check_feasible(matroid, cardinality)
    full = full_mask(n)
    current = full
    considered = 0
    t = 1
    steps: list[GreedyStep] = []
    rejected: list[Rejection] = []
    f_initial = f(full)
    while current.bit_count() > cardinality:
        best = -1
        best_val = 0.0
        for j in range(n):
            if considered >> j & 1:
                continue
            val = f.shifted_marginal(current, j)
            if best < 0 or val > best_val:
                best, best_val = j, val
        if best < 0:
            raise InfeasibleError("ran out of removal candidates above the cardinality")
        bit = 1 << best
        if matroid.rank(current & ~bit) < cardinality:
            considered |= bit
            rejected.append(Rejection(t, best))
        else:
            current &= ~bit
            considered |= bit
            steps.append(GreedyStep(t, best, best_val, current))
            t += 1
    return GreedyTrace(
        REVERSE, n, tuple(steps), tuple(rejected), current, f_initial, f(current)
    )


def reverse_greedy_as_forward(f: SetFunction, matroid: Matroid, cardinality: int) -> GreedyTrace:
    """Reverse greedy restated as forward greedy on the reflected function.

    Runs argmax insertion on S -> -f(V \\ S) over the dual of the matroid
    truncated to the target cardinality, selecting n - cardinality elements.
    The recorded sets are the primal complements, so the trace matches
    :func:`reverse_greedy` step for step, including rejections and marginals.
    """
    n = matroid.n
    if f.n != n:
        raise ValueError(f"function is on n={f.n} but matroid on n={n}")
    _check_feasible(matroid, cardinality)
    reflected = SetFunction(n, complement_values(f))
    dual = matroid.truncate(cardinality).dual()
    target = n - cardinality
    full = full_mask(n)
    removed = 0
    considered = 0
    t = 1
    steps: list[GreedyStep] = []
    rejected: list[Rejection] = []
    while removed.bit_count() < target:
        best = -1
        best_val = 0.0
        for j in range(n):
            if considered >> j & 1:
                continue
            val = reflected.marginal(removed, j)
            if best < 0 or val > best_val:
                best, best_val = j, val
        if best < 0:
            raise InfeasibleError("ran out of candidates in the dual pass")
        bit = 1 << best
        if not dual.is_independent(removed | bit):
            considered |= bit
            rejected.append(Rejection(t, best))
        else:
            removed |= bit
            considered |= bit
            steps.append(GreedyStep(t, best, best_val, full ^ removed))
            t += 1
    final = full ^ removed
    # -reflected(0) = f(V) and -reflected(removed) = f(final), bit for bit.
    return GreedyTrace(
        REVERSE_AS_FORWARD,
        n,
        tuple(steps),
        tuple(rejected),
        final,
        -reflected(0),
        -reflected(removed),
    )


def _witness_context(trace: GreedyTrace, f: SetFunction, matroid: Matroid):
    """Working function, working matroid, per-step sets/picks for the witness build."""
    n = trace.n
    if trace.algorithm == FORWARD:
        target = len(trace.steps)
        work_m = matroid.truncate(target)
        work_f = f
        sets_before = [0] + [s.set_after for s in trace.steps[:-1]]
        forward_direction = True
    elif trace.algorithm in (REVERSE, REVERSE_AS_FORWARD):
        cardinality = n - len(trace.steps)
        work_m = matroid.truncate(cardinality).dual()
        work_f = SetFunction(n, complement_values(f))
        full = full_mask(n)
        sets_before = [0] + [full ^ s.set_after for s in trace.steps[:-1]]
        forward_direction = False
    else:
        raise ValueError(f"unknown trace algorithm {trace.algorithm!r}")
    picks = [s.chosen for s in trace.steps]
    greedy_marginals = [s.marginal for s in trace.steps]
    return work_f, work_m, sets_before, picks, greedy_marginals, forward_direction


def ordering_witness(
    trace: GreedyTrace, f: SetFunction, base: int, matroid: Matroid
) -> OrderingWitness:
    """Order a base so its elements dominate the greedy picks step by step.

    Built by backward induction: at step t the slot takes the greedy pick
    itself when that pick lies in the not-yet-assigned part of the base,
    otherwise the smallest-id unassigned base element whose insertion into
    the step's pre-set is independent. ``f`` and ``matroid`` are the same
    objects the trace was produced from; for reverse traces the base must be
    a base of the dual of the truncated matroid. Raises WitnessFailureError
    if no feasible element exists or a dominance inequality fails, either of
    which would signal an implementation bug.
    """
    work_f, work_m, sets_before, picks, greedy_marginals, fwd = _witness_context(
        trace, f, matroid
    )
    steps = len(trace.steps)
    if base.bit_count() != steps or not work_m.is_independent(base):
        raise ValueError(
            f"{elements(base)} is not a base of the matroid this trace ran on"
        )
    ordering = [0] * steps
    remaining = base
    for t in range(steps, 0, -1):
        before = sets_before[t - 1]
        pick = picks[t - 1]
        if remaining >> pick & 1:
            slot = pick
        else:
            slot = -1
            candidates = remaining & ~before
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                if work_m.is_independent(before | low):
                    slot = low.bit_length() - 1
                    break
            if slot < 0:
                raise WitnessFailureError(
                    f"no feasible base element extends step {t} of the trace"
                )
        ordering[t - 1] = slot
        remaining &= ~(1 << slot)
    checks = []
    for t in range(steps):
        base_marg = work_f.marginal(sets_before[t], ordering[t])
        greedy_marg = greedy_marginals[t]
        ok = base_marg >= greedy_marg if fwd else base_marg <= greedy_marg
        if not ok:
            raise WitnessFailureError(
                f"dominance fails at step {t + 1}: base element {ordering[t]} "
                f"gives {base_marg!r} against greedy {greedy_marg!r}"
            )
        checks.append((base_marg, greedy_marg))
    return OrderingWitness(base, tuple(ordering), tuple(checks))


def brute_force_optimum(
    f: SetFunction, matroid: Matroid, cardinality: int, sense: str = "min"
) -> OptimumRecord:
    """Exact optimum of f over all bases of the matroid truncated to the cardinality.

    Enumerates every base; ties go to the numerically smallest mask. The
    independent oracle every guarantee is verified against.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    n = matroid.n
    if f.n != n:
        raise ValueError(f"function is on n={f.n} but matroid on n={n}")
    if n > MAX_BASE_ENUM_N:
        raise GroundSetTooLargeError(
            f"brute force is capped at n={MAX_BASE_ENUM_N}, got n={n}"
        )
    truncated = matroid.truncate(cardinality)
    if truncated.rank_full < cardinality:
        raise InfeasibleError(
            f"no base of cardinality {cardinality}: rank is {truncated.rank_full}"
        )
    best_mask = -1
    best_val = 0.0
    count = 0
    want_min = sense == "min"
    for mask in truncated.enumerate_bases():
        count += 1
        val = f(mask)
        if best_mask < 0 or (val < best_val if want_min else val > best_val):
            best_mask, best_val = mask, val
    return OptimumRecord(best_mask, best_val, count)
