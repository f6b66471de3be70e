"""Forward and reverse greedy over matroid bases, with full trace recording.

One selection kernel runs all three passes. It toggles elements of a working
set, best gain first, and never reconsiders a rejected element. The forward
pass starts empty and inserts the cheapest still-feasible element; the
reverse pass starts from the full ground set and removes the most expensive
element whose removal keeps a full-cardinality base reachable. The reverse
pass is also available as a forward pass on the reflected function
S -> -f(V \\ S) over the dual of the truncated matroid, as in the paper's
reduction; both produce identical traces under the shared smallest-id
tie-breaking. The reflected marginal at (R, j) is f's removal marginal
``f.shifted_marginal(V \\ R, j)``, read as needed and never tabulated, so
f's ``eval_count`` counts every value the reduction reads.

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
from .subsets import _check_mask, elements, full_mask

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

    Each step lists ``gain(current, j)`` over the still-open candidates in
    ascending id, pops the first ``min`` (with ``largest``, ``max``) and
    toggles it if ``feasible(current ^ bit)``: an insertion when the pass
    starts empty, a removal when it starts full. An infeasible pick is
    recorded as a rejection and never reconsidered. Ties go to the smallest
    id, zero sign included; a gain, a difference of finite values, is never
    NaN, so ``index`` finds it.
    """
    current = start
    candidates = list(range(n))
    pick = max if largest else min
    steps: list[GreedyStep] = []
    rejected: list[Rejection] = []
    while len(steps) < moves:
        if not candidates:
            raise InfeasibleError("ran out of candidates before reaching the cardinality")
        gains = [gain(current, j) for j in candidates]
        best_val = pick(gains)
        best = candidates.pop(gains.index(best_val))
        bit = 1 << best
        if feasible(current ^ bit):
            current ^= bit
            steps.append(GreedyStep(len(steps) + 1, best, best_val, current))
        else:
            rejected.append(Rejection(len(steps) + 1, best))
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
        n, 0, n - cardinality, lambda removed, j: f.shifted_marginal(full ^ removed, j),
        dual.is_independent, largest=True,
    )
    steps = tuple(GreedyStep(s.t, s.chosen, s.marginal, full ^ s.set_after) for s in steps)
    return GreedyTrace(
        REVERSE_AS_FORWARD, n, steps, rejected, full ^ removed, f(full), f(full ^ removed)
    )


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
        # Every set tested below has at most ``steps`` elements: no truncation.
        work_m = matroid
        flip = 0
    elif trace.algorithm in (REVERSE, REVERSE_AS_FORWARD):
        work_m = matroid.truncate(n - steps).dual()
        flip = full_mask(n)
    else:
        raise ValueError(f"unknown trace algorithm {trace.algorithm!r}")
    _check_trace_sets(trace)
    sets_before = [0] + [flip ^ s.set_after for s in trace.steps[:-1]]
    _check_mask(base, n, "base")
    if base.bit_count() != steps or not work_m.is_independent(base):
        raise ValueError(f"{elements(base)} is not a base of the matroid this trace ran on")
    ordering = [0] * steps
    remaining = base
    for t in range(steps, 0, -1):
        before = sets_before[t - 1]
        pick = trace.steps[t - 1].chosen
        if remaining >> pick & 1:
            slot = pick
        else:
            for slot in elements(remaining & ~before):
                if work_m.is_independent(before | 1 << slot):
                    break
            else:
                raise WitnessFailureError(
                    f"no feasible base element extends step {t} of the trace"
                )
        ordering[t - 1] = slot
        remaining &= ~(1 << slot)
    checks = []
    for t, (before, slot) in enumerate(zip(sets_before, ordering)):
        base_marg = f.shifted_marginal(flip ^ before, slot) if flip else f.marginal(before, slot)
        greedy_marg = trace.steps[t].marginal
        ok = base_marg <= greedy_marg if flip else base_marg >= greedy_marg
        if not ok:
            raise WitnessFailureError(
                f"dominance fails at step {t + 1}: base element {slot} "
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
    f._add_evals(len(bases))
    best = min(values) if sense == "min" else max(values)
    index = values.index(best)
    return OptimumRecord(bases[index], values[index], len(bases))
