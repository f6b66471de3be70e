"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The random suites are fully seeded, so every expected value here is
reproducible; tolerances are pinned in-line.
"""

import time

import pytest

from matroid_greedy import (
    bian_bound,
    brute_force_optimum,
    check_axioms,
    complement_function,
    cumulative_submodularity_ratio,
    forward_bound,
    forward_greedy,
    forward_greedy_ratios,
    full_mask,
    guo_bound,
    marginal_bounds_estimate,
    ordering_witness,
    ratio_scan,
    region_compare,
    reverse_bound,
    reverse_greedy,
    reverse_greedy_as_forward,
    reverse_greedy_ratios,
    strong_curvature,
    verify_forward,
    verify_reverse,
)
from matroid_greedy.instances import (
    canonical_t3,
    gen_bounded_marginal,
    gen_explicit_random,
    random_suite,
)

from conftest import random_modular_instances, trace_payload
from oracles import reference_reverse_greedy

SUITE_SEED = 20260809
REL_TOL = 1e-9
EXACT_TOL = 1e-12


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def suite():
    return random_suite(200, 4, 8, seed=SUITE_SEED)


@pytest.fixture(scope="module")
def analyzed(suite):
    """Exhaustive ratios plus both verification records per instance, timed."""
    start = time.perf_counter()
    bundles = []
    for inst in suite:
        scan = ratio_scan(inst.function)
        matroid = inst.matroid()
        fwd = verify_forward(
            inst.function,
            matroid,
            inst.cardinality,
            instance_id=inst.id,
            tolerance=REL_TOL,
        )
        rev = verify_reverse(
            inst.function,
            matroid,
            inst.cardinality,
            instance_id=inst.id,
            tolerance=REL_TOL,
        )
        bundles.append((inst, matroid, scan.gamma, scan.alpha, fwd, rev))
    elapsed = time.perf_counter() - start
    return bundles, elapsed


def test_criterion_01_forward_guarantee_suite(analyzed):
    bundles, elapsed = analyzed
    failures = [b[0].id for b in bundles if not b[4].satisfied]
    ok = not failures and elapsed < 60.0
    _report(
        1,
        "forward guarantee holds on all 200 random instances",
        ok,
        f"{len(bundles) - len(failures)}/{len(bundles)} satisfied, "
        f"{elapsed:.1f}s incl. reverse runs",
    )


def test_criterion_02_reverse_guarantee_suite(analyzed):
    bundles, _ = analyzed
    failures = [b[0].id for b in bundles if not b[5].satisfied]
    _report(
        2,
        "reverse guarantee holds on all 200 random instances",
        not failures,
        f"{len(bundles) - len(failures)}/{len(bundles)} satisfied",
    )


def test_criterion_03_closed_form_spot_values():
    checks = [abs(forward_bound(0.5, 0.5) - 4.0) <= EXACT_TOL]
    checks.append(abs(reverse_bound(0.0, 0.0) - 0.5) <= EXACT_TOL)
    for alpha in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
        rev = reverse_bound(1.0, alpha)
        bia = bian_bound(1.0, alpha)
        checks.append(abs(rev - (1.0 - alpha)) <= EXACT_TOL)
        checks.append(abs(bia - rev) <= EXACT_TOL)
    for gamma in (0.0, 0.3, 0.7, 1.0):
        checks.append(reverse_bound(gamma, 1.0) == 0.0)
        checks.append(bian_bound(gamma, 1.0) == 0.0)
    for gamma in (0.2, 0.6, 1.0):
        near_one = 1.0 - 1e-9
        checks.append(reverse_bound(gamma, near_one) <= 2e-9)
        checks.append(bian_bound(gamma, near_one) <= 2e-9)
    _report(3, "closed-form spot values exact to 1e-12", all(checks))


def test_criterion_04_dominance_grids():
    # Known to fail: the forward bound is NOT dominated by the size-dependent
    # bound at size 1 (tangent at gamma = 0.5, alpha = 0, where both equal 2,
    # and strictly above it on a lens gamma in (0.5, 0.77], alpha < 0.08).
    # Sizes 2..10 and the reverse-side comparison are clean; see
    # test_guarantees.TestClosedFormBounds for the pinned actual behavior.
    grid = [i / 100 for i in range(101)]
    bian_violations = 0
    guo_violations: dict[int, int] = {}
    for alpha in grid:
        for gamma in grid:
            if reverse_bound(gamma, alpha) > bian_bound(gamma, alpha):
                bian_violations += 1
            if 0.0 < gamma < 1.0:
                fwd = forward_bound(gamma, alpha)
                for size in range(1, 11):
                    if fwd > guo_bound(gamma, alpha, size):
                        guo_violations[size] = guo_violations.get(size, 0) + 1
    _report(
        4,
        "bound dominance on 101x101 grids for sizes 1..10",
        bian_violations == 0 and not guo_violations,
        f"reverse-side violations: {bian_violations}; "
        f"forward-side violations by size: {guo_violations or 'none'}",
    )


def test_criterion_05_region_claim():
    ok = True
    detail = []
    for f_star in (0.0, 0.25, 0.5, 1.0):
        grid = region_compare(-1.0, 1.0, f_star, 100)
        non_reverse = sum(
            cell.winner != "reverse" for row in grid.cells for cell in row
        )
        ok = ok and non_reverse == 0
        detail.append(f"F*={f_star}: {non_reverse} non-reverse")
    grid = region_compare(-1.0, 1.0, -1.0, 100)
    bad = 0
    for row in grid.cells:
        for cell in row:
            expected = (
                "reverse" if reverse_bound(cell.gamma, cell.alpha) == 1.0 else "forward"
            )
            if cell.winner != expected:
                bad += 1
    ok = ok and bad == 0
    detail.append(f"F*=-1: {bad} mismatches")
    _report(5, "reverse wins everywhere for F* >= 0; forward wins for F* = -1", ok, "; ".join(detail))


def test_criterion_06_complement_identity():
    worst = 0.0
    count = 0
    for seed in range(100):
        n = 2 + seed % 7  # n in 2..8
        if seed % 2 == 0:
            f = gen_explicit_random(n, seed)
        else:
            f = gen_bounded_marginal(n, 1.0, 1.0 + (seed % 5 + 1) / 2.0, seed)
        scan = ratio_scan(f)
        hat_scan = ratio_scan(complement_function(f))
        worst = max(
            worst,
            abs(hat_scan.gamma - (1.0 - scan.alpha)),
            abs(hat_scan.alpha - (1.0 - scan.gamma)),
        )
        count += 1
    _report(
        6,
        "reflected-function ratio/curvature swap identity within 1e-12",
        count == 100 and worst <= EXACT_TOL,
        f"max deviation {worst:.2e}",
    )


def test_criterion_07_marginal_range_bounds():
    violations = 0
    for seed in range(100):
        n = 3 + seed % 6  # n in 3..8
        lo = 0.5 + (seed % 4) * 0.25
        hi = lo + (seed % 7) * 0.3
        f = gen_bounded_marginal(n, lo, hi, seed)
        _, gamma_lb, alpha_ub = marginal_bounds_estimate(f)
        scan = ratio_scan(f)
        if scan.gamma < gamma_lb - EXACT_TOL or scan.alpha > alpha_ub + EXACT_TOL:
            violations += 1
    _report(7, "marginal-range bounds bracket the true ratios on 100 instances", violations == 0)


def test_criterion_08_ratio_orderings(analyzed):
    bundles, _ = analyzed
    violations = []
    for inst, matroid, gamma, alpha, _, _ in bundles:
        f = inst.function
        gamma_cum = cumulative_submodularity_ratio(f)
        c, _, _ = strong_curvature(f)
        gamma_fg, alpha_fg = forward_greedy_ratios(f, matroid, inst.cardinality)
        trace = reverse_greedy_as_forward(f, matroid, inst.cardinality)
        gamma_rg, alpha_rg = reverse_greedy_ratios(f, matroid, inst.cardinality, trace)
        ok = (
            gamma_fg >= gamma - EXACT_TOL
            and alpha_fg <= alpha + EXACT_TOL
            and gamma_rg >= gamma - EXACT_TOL
            and alpha_rg <= alpha + EXACT_TOL
            and gamma <= gamma_cum + EXACT_TOL
            and c >= max(alpha, 1.0 - gamma) - EXACT_TOL
        )
        if not ok:
            violations.append(inst.id)

    t3 = canonical_t3()
    t3_matroid = t3.matroid()
    t3_trace = reverse_greedy_as_forward(t3.function, t3_matroid, 2)
    t3_values = (
        *forward_greedy_ratios(t3.function, t3_matroid, 2),
        *reverse_greedy_ratios(t3.function, t3_matroid, 2, t3_trace),
        cumulative_submodularity_ratio(t3.function),
        strong_curvature(t3.function)[0],
    )
    expected = (0.5, 0.0, 1.0, 0.5, 2.0 / 3.0, 0.5)
    t3_ok = all(abs(a - b) <= EXACT_TOL for a, b in zip(t3_values, expected))
    _report(
        8,
        "ratio orderings on every suite instance and exact values on the canonical fixture",
        not violations and t3_ok,
        f"{len(violations)} ordering violations; fixture {'ok' if t3_ok else t3_values}",
    )


def test_criterion_09_trace_equality_and_witnesses(suite):
    mismatches = []
    witness_failures = []
    witness_count = 0
    for inst in suite:
        matroid = inst.matroid()
        expected = reference_reverse_greedy(inst.function.values, matroid, inst.cardinality)
        direct = reverse_greedy(inst.function, matroid, inst.cardinality)
        reform = reverse_greedy_as_forward(inst.function, matroid, inst.cardinality)
        for trace in (direct, reform):
            if trace_payload(trace) != expected:
                mismatches.append(f"{inst.id} {trace.algorithm}")
        if inst.n <= 7:
            truncated = matroid.truncate(inst.cardinality)
            fwd = forward_greedy(inst.function, matroid, inst.cardinality)
            try:
                for base in truncated.enumerate_bases():
                    ordering_witness(fwd, inst.function, base, matroid)
                    witness_count += 1
                for base in truncated.dual().enumerate_bases():
                    ordering_witness(reform, inst.function, base, matroid)
                    witness_count += 1
            except Exception as exc:  # noqa: BLE001 - collected into the report
                witness_failures.append(f"{inst.id}: {exc}")
    _report(
        9,
        "both reverse traces equal the reference everywhere; "
        "ordering witnesses for every base (n <= 7)",
        not mismatches and not witness_failures,
        f"{len(mismatches)} trace mismatches, {len(witness_failures)} witness failures, "
        f"{witness_count} witnesses checked",
    )


def test_criterion_10_modular_optimality():
    violations = 0
    for f, matroid, cardinality in random_modular_instances(50, seed=SUITE_SEED):
        opt = brute_force_optimum(f, matroid, cardinality, "min")
        if forward_greedy(f, matroid, cardinality).f_final != opt.optimum_value:
            violations += 1
        if reverse_greedy(f, matroid, cardinality).f_final != opt.optimum_value:
            violations += 1
    _report(10, "both passes are exactly optimal on 50 modular instances", violations == 0)


def test_criterion_11_matroid_machinery():
    from test_matroids import sample_matroids

    problems = []
    matroids = sample_matroids(n_cap=8)
    for m in matroids:
        if not check_axioms(m).all_ok:
            problems.append(f"axioms fail for {m!r}")
        full = full_mask(m.n)
        dual = m.dual()
        if dual.enumerate_bases() != sorted(full ^ b for b in m.enumerate_bases()):
            problems.append(f"dual bases are not primal complements for {m!r}")
        if dual.dual().enumerate_bases() != m.enumerate_bases():
            problems.append(f"double dual differs for {m!r}")
    _report(
        11,
        "axioms, dual-base complementarity, and double-dual identity for all kinds",
        not problems,
        f"{len(matroids)} matroids checked" + ("; " + "; ".join(problems) if problems else ""),
    )
