"""Sparse paving matroids, as explicit specs, against the references in oracles.py.

A sparse paving matroid of rank r has every set of fewer than r elements
independent, and among the r-sets only its circuit-hyperplanes dependent;
two circuit-hyperplanes meet in fewer than r - 1 elements. Some r-sets are
dependent while all their subsets are independent, which the uniform,
partition and graphic kinds never give at every size. The cases are the Fano
plane F7, which is binary but not graphic, the Vamos matroid V8, which is
representable over no field, and seeded random ones at n = 7..10.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from matroid_greedy import (
    DualSpec,
    ExplicitSpec,
    TruncateSpec,
    brute_force_optimum,
    build_matroid,
    check_axioms,
    forward_greedy,
    full_mask,
    gen_bounded_marginal,
    gen_explicit_random,
    mask_of,
    ordering_witness,
    reverse_greedy,
    reverse_greedy_as_forward,
    verify_forward,
    verify_reverse,
)
from matroid_greedy.guarantees import forward_greedy_ratios_detail, reverse_greedy_ratios_detail

from conftest import trace_payload
from oracles import (
    naive_rank,
    reference_axiom_scan,
    reference_forward_greedy,
    reference_forward_greedy_ratios,
    reference_independent,
    reference_reverse_greedy,
    reference_reverse_greedy_ratios,
)


def sparse_paving(n, rank, hyperplanes):
    """The explicit spec of rank ``rank`` on n elements with these circuit-hyperplanes."""
    assert all((a & b).bit_count() < rank - 1 for a in hyperplanes for b in hyperplanes if a != b)
    return ExplicitSpec(
        m for m in range(1 << n)
        if m.bit_count() < rank or m.bit_count() == rank and m not in hyperplanes
    )


#: The lines of the Fano plane: {i, i + 1, i + 3} mod 7, pairwise meeting in one point.
FANO = [mask_of({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
#: The Vamos circuit-hyperplanes: five of the six unions of two of the pairs
#: {0, 1}, {2, 3}, {4, 5}, {6, 7}; the union of the last two stays a base.
VAMOS = [mask_of(p + q) for p, q in [
    ((0, 1), (2, 3)), ((0, 1), (4, 5)), ((0, 1), (6, 7)), ((2, 3), (4, 5)), ((2, 3), (6, 7)),
]]


def random_sparse_paving(seed):
    """A seeded sparse paving matroid at n = 7..10 and rank 3..5.

    Of 4 to 14 random r-sets, each is kept if it meets every kept one in
    fewer than r - 1 elements.
    """
    rng = random.Random(f"sparse-paving-{seed}")
    n = rng.randint(7, 10)
    rank = rng.randint(3, 5)
    kept = []
    for _ in range(rng.randint(4, 14)):
        candidate = mask_of(rng.sample(range(n), rank))
        if all((candidate & h).bit_count() < rank - 1 for h in kept):
            kept.append(candidate)
    return n, rank, kept


CASES = {"fano": (7, 3, FANO), "vamos": (8, 4, VAMOS)}
CASES.update((f"random-{seed}", random_sparse_paving(seed)) for seed in range(4))


@pytest.fixture(scope="module", params=sorted(CASES))
def paving(request):
    """(n, rank, hyperplanes, spec, matroid, reference family of frozensets)."""
    n, rank, hyperplanes = CASES[request.param]
    spec = sparse_paving(n, rank, hyperplanes)
    return n, rank, hyperplanes, spec, build_matroid(spec, n), reference_independent(spec, n)


def as_frozenset(mask):
    return frozenset(e for e in range(mask.bit_length()) if mask >> e & 1)


def check_axiom_scan(case):
    n, rank, _, spec, matroid, family = case
    assert matroid.rank_full == rank
    assert check_axioms(matroid).all_ok
    assert reference_axiom_scan(spec.independent) == (None, None)
    assert {m for m in range(1 << n) if matroid.is_independent(m)} == set(map(mask_of, family))


def check_dual_and_truncation(case):
    # The dual of a sparse paving matroid is sparse paving, with the
    # complements of the circuit-hyperplanes as its own.
    n, rank, hyperplanes, spec, matroid, _ = case
    full = full_mask(n)
    dual = sparse_paving(n, n - rank, [full ^ h for h in hyperplanes]).independent
    assert {m for m in range(1 << n) if matroid.dual().is_independent(m)} == dual
    assert set(map(mask_of, reference_independent(DualSpec(spec), n))) == dual
    truncated = reference_independent(TruncateSpec(spec, rank - 1), n)
    assert {m for m in range(1 << n) if matroid.truncate(rank - 1).is_independent(m)} == set(
        map(mask_of, truncated)
    )


def check_passes(case, f, k):
    """The three passes and brute force at k against the references; returns
    the forward trace, both reverse traces, the optimum and the best base."""
    n, _, _, _, matroid, family = case
    indep = family.__contains__
    reference = SimpleNamespace(
        rank=lambda mask: naive_rank(lambda m: as_frozenset(m) in family, mask, n)
    )
    values = f.values
    forward = forward_greedy(f, matroid, k)
    expected = reference_forward_greedy(values, lambda m: indep(as_frozenset(m)), k)
    assert repr(trace_payload(forward)) == repr(expected)
    expected = repr(reference_reverse_greedy(values, reference, k))
    traces = [run(f, matroid, k) for run in (reverse_greedy, reverse_greedy_as_forward)]
    assert [repr(trace_payload(t)) for t in traces] == [expected, expected]

    bases = [mask_of(s) for s in family if len(s) == k]
    best = min(sorted(bases), key=values.__getitem__)
    opt = brute_force_optimum(f, matroid, k)
    assert (opt.optimum_set, opt.optimum_value, opt.bases_examined) == (
        best, values[best], len(bases)
    )
    return forward, traces, opt, best


def test_axiom_scan_accepts_it(paving):
    hyperplanes = paving[2]
    assert hyperplanes
    check_axiom_scan(paving)


def test_dual_and_truncation_match_the_references(paving):
    check_dual_and_truncation(paving)


def test_passes_witnesses_families_and_verify_match_the_references(paving):
    n, rank, _, _, matroid, family = paving
    indep = family.__contains__
    full = full_mask(n)
    for f in (gen_bounded_marginal(n, 0.5, 2.0, n), gen_explicit_random(n, n)):
        values = f.values
        for k in range(rank + 1):
            forward, traces, opt, best = check_passes(paving, f, k)

            # The witness raises unless every step dominates.
            for base in (opt.optimum_set, forward.final_set):
                assert mask_of(ordering_witness(forward, f, base, matroid).ordering) == base
            for trace in traces:
                for base in (full ^ opt.optimum_set, full ^ trace.final_set):
                    assert mask_of(ordering_witness(trace, f, base, matroid).ordering) == base

            got = forward_greedy_ratios_detail(f, matroid, k)
            assert repr(got) == repr(reference_forward_greedy_ratios(values, n, indep, k))
            for trace in traces:
                picks = [step.chosen for step in trace.steps]
                got = reverse_greedy_ratios_detail(f, matroid, k, trace)
                assert repr(got) == repr(reference_reverse_greedy_ratios(values, n, picks))

            for verify in (verify_forward, verify_reverse):
                record = verify(f, matroid, k)
                assert record.satisfied
                assert (record.f_opt, record.f_empty, record.f_full) == (
                    values[best], values[0], values[-1]
                )
                assert verify(f, matroid, k, optimum=opt) == record


@st.composite
def sparse_paving_cases(draw):
    """A drawn sparse paving matroid at n = 4..8 and rank 2..n - 2, as the fixture's tuple.

    Of the drawn r-sets, each is kept if it meets every kept one in fewer
    than r - 1 elements; keeping none gives the uniform matroid.
    """
    n = draw(st.integers(4, 8))
    rank = draw(st.integers(2, n - 2))
    r_sets = st.sets(st.integers(0, n - 1), min_size=rank, max_size=rank).map(mask_of)
    kept = []
    for candidate in draw(st.lists(r_sets, max_size=10)):
        if all((candidate & h).bit_count() < rank - 1 for h in kept):
            kept.append(candidate)
    spec = sparse_paving(n, rank, kept)
    return n, rank, kept, spec, build_matroid(spec, n), reference_independent(spec, n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sparse_paving_cases())
def test_drawn_sparse_paving_matroids_match_the_references(case):
    n, rank = case[:2]
    check_axiom_scan(case)
    check_dual_and_truncation(case)
    for f in (gen_bounded_marginal(n, 0.5, 2.0, n), gen_explicit_random(n, n)):
        check_passes(case, f, rank)
