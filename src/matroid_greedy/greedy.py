"""Forward and reverse greedy over matroid bases, with full trace recording.

One selection kernel runs all three passes. It toggles elements of a working
set, best gain first, and never reconsiders a rejected element. The forward
pass starts empty and inserts the cheapest still-feasible element; the
reverse pass starts from the full ground set and removes the most expensive
element whose removal keeps a full-cardinality base reachable. The reverse
pass is also available as a forward pass on the reflected function
S -> -f(V \\ S) over the dual of the truncated matroid, as in the paper's
reduction; both produce identical traces under the shared smallest-id
tie-breaking. The reflected marginals are read from f as they are needed,
never tabulated, so f's ``eval_count`` counts every value the reduction reads.

Each run records every accepted step, every rejected candidate, and the
intermediate sets, which is what the ordering-witness construction and the
ex-post ratio scans consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import InfeasibleError, TraceMismatchError, WitnessFailureError
from .matroids import Matroid
from .setfunc import SetFunction
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


def _check_inputs(f: SetFunction, matroid: Matroid, cardinality: int) -> None:
    if f.n != matroid.n:
        raise ValueError(f"function is on n={f.n} but matroid on n={matroid.n}")
    if cardinality < 0:
        raise InfeasibleError(f"target cardinality must be >= 0, got {cardinality}")
    if matroid.rank_full < cardinality:
        raise InfeasibleError(
            f"matroid rank {matroid.rank_full} is below the target cardinality {cardinality}"
        )


def _check_trace_sets(trace: GreedyTrace) -> None:
    """Raise TraceMismatchError unless the trace's sets follow its picks.

    Every pick lies in 0..n-1, each ``set_after`` is the set before it with
    the pick inserted (forward, from the empty set) or removed (both reverse
    kinds, from the full set), and ``final_set`` is the last set. So no set
    reaches outside the ground set. ``trace.algorithm`` must be one of the
    three passes.
    """
    n = trace.n
    forward = trace.algorithm == FORWARD
    current = 0 if forward else full_mask(n)
    for step in trace.steps:
        if not 0 <= step.chosen < n:
            raise TraceMismatchError(
                f"trace step {step.t} picks {step.chosen}, outside the ground set of n={n}"
            )
        bit = 1 << step.chosen
        if bool(current & bit) == forward or step.set_after != current ^ bit:
            action = "inserted" if forward else "removed"
            raise TraceMismatchError(
                f"trace step {step.t} holds set {step.set_after}, not the set before it "
                f"with {step.chosen} {action}"
            )
        current = step.set_after
    if trace.final_set != current:
        raise TraceMismatchError(
            f"trace final set {trace.final_set} is not its last set {current}"
        )


def _greedy_kernel(
    n: int,
    start: int,
    moves: int,
    gain: Callable[[int, int], float],
    feasible: Callable[[int], bool],
    largest: bool,
) -> tuple[tuple[GreedyStep, ...], tuple[Rejection, ...], int]:
    """Toggle ``moves`` elements of the working set, best gain first.

    Each while-iteration takes the smallest (with ``largest``, the largest)
    ``gain(current, j)`` over all never-considered elements, ties to the
    smallest id, and toggles it if ``feasible(current ^ bit)``: an insertion
    when the pass starts empty, a removal when it starts full. An infeasible
    pick is recorded as a rejection and never reconsidered.
    """
    current = start
    considered = 0
    t = 1
    steps: list[GreedyStep] = []
    rejected: list[Rejection] = []
    while t <= moves:
        best = -1
        best_val = 0.0
        for j in range(n):
            if considered >> j & 1:
                continue
            val = gain(current, j)
            if best < 0 or (val > best_val if largest else val < best_val):
                best, best_val = j, val
        if best < 0:
            raise InfeasibleError("ran out of candidates before reaching the cardinality")
        bit = 1 << best
        considered |= bit
        if feasible(current ^ bit):
            current ^= bit
            steps.append(GreedyStep(t, best, best_val, current))
            t += 1
        else:
            rejected.append(Rejection(t, best))
    return tuple(steps), tuple(rejected), current


def forward_greedy(f: SetFunction, matroid: Matroid, cardinality: int) -> GreedyTrace:
    """Grow a base of the given cardinality by repeated cheapest-feasible insertion.

    The kernel starts empty, takes argmin marginals and keeps the set
    independent. Guarantees assume an increasing f, but any table runs.
    """
    _check_inputs(f, matroid, cardinality)
    f_initial = f(0)
    steps, rejected, final = _greedy_kernel(
        matroid.n, 0, cardinality, f.marginal, matroid.is_independent, largest=False
    )
    return GreedyTrace(FORWARD, matroid.n, steps, rejected, final, f_initial, f(final))


def reverse_greedy(f: SetFunction, matroid: Matroid, cardinality: int) -> GreedyTrace:
    """Shrink from the full set by repeated costliest-removable deletion.

    The kernel starts full and takes argmax removal marginals; a removal is
    feasible iff the remaining set keeps rank >= the target cardinality.
    """
    _check_inputs(f, matroid, cardinality)
    n = matroid.n
    full = full_mask(n)
    f_initial = f(full)

    def keeps_rank(subset: int) -> bool:
        return matroid.rank(subset) >= cardinality

    steps, rejected, final = _greedy_kernel(
        n, full, n - cardinality, f.shifted_marginal, keeps_rank, largest=True
    )
    return GreedyTrace(REVERSE, n, steps, rejected, final, f_initial, f(final))


def reverse_greedy_as_forward(f: SetFunction, matroid: Matroid, cardinality: int) -> GreedyTrace:
    """Reverse greedy restated as forward greedy on the reflected function.

    Runs argmax insertion on S -> -f(V \\ S) over the dual of the matroid
    truncated to the target cardinality, selecting n - cardinality elements.
    The recorded sets are the primal complements, so the trace matches
    :func:`reverse_greedy` step for step, including rejections and marginals.
    """
    _check_inputs(f, matroid, cardinality)
    n = matroid.n
    dual = matroid.truncate(cardinality).dual()
    full = full_mask(n)
    steps, rejected, removed = _greedy_kernel(
        n, 0, n - cardinality, _reflected_marginal(f), dual.is_independent, largest=True
    )
    steps = tuple(GreedyStep(s.t, s.chosen, s.marginal, full ^ s.set_after) for s in steps)
    return GreedyTrace(
        REVERSE_AS_FORWARD, n, steps, rejected, full ^ removed, f(full), f(full ^ removed)
    )


def _reflected_marginal(f: SetFunction) -> Callable[[int, int], float]:
    """Marginal of S -> -f(V \\ S) at (S, j), for j not in S, read from f on demand.

    Bit for bit the marginal of the reflected table, at two calls of f.
    """
    full = full_mask(f.n)

    def gain(subset: int, j: int) -> float:
        return -f(full ^ (subset | 1 << j)) - -f(full ^ subset)

    return gain


def ordering_witness(
    trace: GreedyTrace, f: SetFunction, base: int, matroid: Matroid
) -> OrderingWitness:
    """Order a base so its elements dominate the greedy picks step by step.

    Built by backward induction: at step t the slot takes the greedy pick
    itself when that pick lies in the not-yet-assigned part of the base,
    otherwise the smallest-id unassigned base element whose insertion into
    the step's pre-set is independent. ``f`` and ``matroid`` are the same
    objects the trace was produced from, on its ground set (else ValueError).
    A reverse trace is read as forward greedy on the reflected function over
    the dual of the truncated matroid, so the base must be a base of that
    dual. Raises TraceMismatchError if the trace's sets do not follow its
    picks, and WitnessFailureError if no feasible element exists or a
    dominance inequality fails, either of which would signal an
    implementation bug.
    """
    n = trace.n
    if not f.n == matroid.n == n:
        raise ValueError(
            f"function, matroid and trace must share n, got n={f.n}, {matroid.n} and {n}"
        )
    steps = len(trace.steps)
    if trace.algorithm == FORWARD:
        work_m = matroid.truncate(steps)
        work_marginal = f.marginal
        flip = 0
    elif trace.algorithm in (REVERSE, REVERSE_AS_FORWARD):
        work_m = matroid.truncate(n - steps).dual()
        work_marginal = _reflected_marginal(f)
        flip = full_mask(n)
    else:
        raise ValueError(f"unknown trace algorithm {trace.algorithm!r}")
    _check_trace_sets(trace)
    sets_before = [0] + [flip ^ s.set_after for s in trace.steps[:-1]]
    if base.bit_count() != steps or not work_m.is_independent(base):
        raise ValueError(
            f"{elements(base)} is not a base of the matroid this trace ran on"
        )
    ordering = [0] * steps
    remaining = base
    for t in range(steps, 0, -1):
        before = sets_before[t - 1]
        pick = trace.steps[t - 1].chosen
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
        base_marg = work_marginal(sets_before[t], ordering[t])
        greedy_marg = trace.steps[t].marginal
        ok = base_marg <= greedy_marg if flip else base_marg >= greedy_marg
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

    Enumerates every base; ``min``, ``max`` and ``index`` keep the first of
    equal values, so ties go to the numerically smallest mask, zero sign
    included. The independent oracle every guarantee is verified against.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    _check_inputs(f, matroid, cardinality)
    bases = matroid._independent_sets(cardinality, cardinality)
    values = [f.values[mask] for mask in bases]
    with f._lock:
        f._eval_count += len(bases)
    best = min(values) if sense == "min" else max(values)
    index = values.index(best)
    return OptimumRecord(bases[index], values[index], len(bases))
