import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from matroid_greedy import (
    GraphicSpec,
    GreedyStep,
    GreedyTrace,
    InfeasibleError,
    Matroid,
    NonMonotoneError,
    OptimumRecord,
    PartitionSpec,
    SetFunction,
    TraceMismatchError,
    UniformSpec,
    analyze_ratios,
    bian_bound,
    brute_force_optimum,
    build_matroid,
    curvature,
    forward_bound,
    forward_greedy_ratios,
    guo_bound,
    region_compare,
    reverse_bound,
    reverse_greedy,
    reverse_greedy_as_forward,
    reverse_greedy_ratios,
    strong_curvature,
    submodularity_ratio,
    verify_forward,
    verify_reverse,
)
from matroid_greedy import guarantees, setfunc
from matroid_greedy.guarantees import (
    forward_greedy_ratios_detail,
    reverse_greedy_ratios_detail,
    strong_curvature_detail,
)
from matroid_greedy.instances import (
    gen_bounded_marginal,
    gen_modular,
    random_instance,
    random_suite,
)
from matroid_greedy.setfunc import check_monotone, ratio_scan

from conftest import ENUMERATION_SPECS
from oracles import (
    naive_strong_curvature,
    reference_forward_greedy_ratios,
    reference_independent,
    reference_reverse_greedy_ratios,
    reference_strong_curvature,
)

INF = float("inf")


def stepped_table(n, rng, signed_zeros=False):
    """Increasing table in which each value tops its one-removals by a step
    from {0, 0.5, 1, 2}, so ties abound.

    With ``signed_zeros``, the zeros on sets of size <= 1 get a random sign,
    so marg_s(empty) can be -0.0.
    """
    values = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        below = max(values[mask & ~(1 << j)] for j in range(n) if mask >> j & 1)
        values[mask] = below + rng.choice([0.0, 0.5, 1.0, 2.0])
    if signed_zeros:
        for mask in [0] + [1 << j for j in range(n)]:
            if values[mask] == 0.0:
                values[mask] = rng.choice([0.0, -0.0])
    return values


#: Increasing value-table makers: bounded-marginal, stepped, stepped with
#: signed zeros, and flat (+-0.0 everywhere).
TABLES = (
    lambda n, rng: gen_bounded_marginal(n, 0.5, 2.0, rng.randrange(1 << 30)).values,
    stepped_table,
    lambda n, rng: stepped_table(n, rng, signed_zeros=True),
    lambda n, rng: [rng.choice([0.0, -0.0]) for _ in range(1 << n)],
)


def zero_marginal_table(n, rng):
    """A stepped table in which element 0 never changes the value."""
    values = stepped_table(n, rng)
    return [values[mask & ~1] for mask in range(1 << n)]


#: Increasing tables for strong curvature: the kinds above, plus modular
#: tables with repeated weights and tables with an all-zero element.
STRONG_TABLES = {
    "bounded": TABLES[0],
    "stepped": TABLES[1],
    "signed-zero": TABLES[2],
    "flat": TABLES[3],
    "modular": lambda n, rng: gen_modular(n, [rng.choice([1, 2, 3]) for _ in range(n)]).values,
    "zero-marginal": zero_marginal_table,
}


def overflowing_table(n, rng):
    """Increasing table from -1e308 up to 1.5e308, so the value range and
    many marginals overflow to +inf, and some ratios are inf / inf = nan."""
    values = [-1e308] * (1 << n)
    for mask in range(1, 1 << n):
        below = max(values[mask & ~(1 << j)] for j in range(n) if mask >> j & 1)
        values[mask] = max(below, rng.choice([-1e308, 0.0, 1e308, 1.5e308]))
    return values


def benchmark_n12_instances(seed):
    """The three n=12 instances the ``ratios-n12`` benchmark workload builds from a seed."""
    rng = random.Random(seed)
    return [random_instance(12, rng, f"r12-{seed}-{i}") for i in range(3)]


def restricted_cases(kind):
    """(function, matroid, independent frozensets) for n = 4..9, every table kind."""
    rng = random.Random(kind)
    for n in range(4, 10):
        spec = ENUMERATION_SPECS[kind](n, rng)
        matroid, family = build_matroid(spec, n), reference_independent(spec, n)
        for make_table in TABLES:
            yield SetFunction(n, make_table(n, rng)), matroid, family


class TestClosedFormBounds:
    def test_forward_spot_values(self):
        assert forward_bound(1, 0) == 1.0
        assert forward_bound(0.5, 0.5) == 4.0
        assert forward_bound(0, 0.3) == INF
        assert forward_bound(0.7, 1) == INF

    def test_reverse_spot_values(self):
        assert reverse_bound(0, 0) == 0.5
        for alpha in (0.0, 0.25, 0.9):
            assert reverse_bound(1, alpha) == 1.0 - alpha
        assert reverse_bound(0.4, 1) == 0.0

    def test_input_validation(self):
        for fn in (forward_bound, reverse_bound, bian_bound):
            with pytest.raises(ValueError):
                fn(-0.1, 0.5)
            with pytest.raises(ValueError):
                fn(0.5, 1.1)
        with pytest.raises(ValueError):
            guo_bound(0.5, 0.5, 0)

    def test_guo_spot_values(self):
        assert guo_bound(0.5, 0.5, 2) == pytest.approx(24.0, rel=1e-12)
        assert guo_bound(1, 0, 1) == pytest.approx(math.log(3), rel=1e-12)
        assert guo_bound(0, 0.3, 4) == INF
        assert guo_bound(0.5, 1, 4) == INF
        assert guo_bound(0.5, 0.5, 2) > forward_bound(0.5, 0.5)

    def test_guo_dominance_holds_for_sizes_above_one(self):
        grid = [i / 50 for i in range(51)]
        for size in range(2, 11):
            for alpha in grid:
                for gamma in grid:
                    if 0.0 < gamma < 1.0:
                        assert forward_bound(gamma, alpha) <= guo_bound(gamma, alpha, size)

    def test_guo_dominance_fails_on_size_one_lens(self):
        # The two bounds are tangent at gamma = 0.5, alpha = 0 (both exactly 2)
        # and the size-1 formula dips below the forward bound just above it.
        assert forward_bound(0.5, 0.0) == guo_bound(0.5, 0.0, 1) == 2.0
        assert guo_bound(0.6, 0.0, 1) < forward_bound(0.6, 0.0)
        assert guo_bound(0.612, 0.0, 1) < forward_bound(0.612, 0.0)
        # outside the lens the size-1 bound dominates again
        assert guo_bound(0.3, 0.0, 1) >= forward_bound(0.3, 0.0)
        assert guo_bound(0.9, 0.0, 1) >= forward_bound(0.9, 0.0)
        assert guo_bound(0.6, 0.3, 1) >= forward_bound(0.6, 0.3)

    def test_bian_spot_values(self):
        for alpha in (0.0, 0.3, 1.0):
            assert bian_bound(1, alpha) == 1.0 - alpha
        assert bian_bound(0, 0) == pytest.approx(1 - math.exp(-1), rel=1e-12)
        assert bian_bound(0.5, 0.5) == pytest.approx(2 * (1 - math.exp(-0.25)), rel=1e-12)
        assert bian_bound(0.5, 0.5) >= reverse_bound(0.5, 0.5)
        assert bian_bound(0.6, 1) == 0.0

    def test_monotonicity_on_grid(self):
        grid = [i / 20 for i in range(21)]
        for alpha in grid:
            fwd = [forward_bound(g, alpha) for g in grid[1:]]
            rev = [reverse_bound(g, alpha) for g in grid]
            assert all(a >= b for a, b in zip(fwd, fwd[1:]))  # nonincreasing in gamma
            assert all(a <= b for a, b in zip(rev, rev[1:]))  # nondecreasing in gamma
        for gamma in grid:
            fwd = [forward_bound(gamma, a) for a in grid] if gamma > 0 else []
            rev = [reverse_bound(gamma, a) for a in grid]
            assert all(a <= b for a, b in zip(fwd, fwd[1:]))  # nondecreasing in alpha
            assert all(a >= b for a, b in zip(rev, rev[1:]))  # nonincreasing in alpha


class TestStrongCurvature:
    def test_modular(self):
        c, fwd, rev = strong_curvature(gen_modular(3, [2, 2, 2]))
        assert (c, fwd, rev) == (0.0, 1.0, 1.0)

    def test_modular_above_the_cumulative_cap(self):
        c, fwd, rev = strong_curvature(gen_modular(17, range(1, 18)))
        assert (c, fwd, rev) == (0.0, 1.0, 1.0)

    def test_t3(self, t3_function):
        c, fwd, rev = strong_curvature(t3_function)
        assert (c, fwd, rev) == (0.5, 2.0, 0.5)

    def test_dominates_both_ratios(self):
        for inst in random_suite(20, 4, 7, seed=4242):
            f = inst.function
            c, _, _ = strong_curvature(f)
            assert c >= curvature(f) - 1e-12
            assert c >= 1.0 - submodularity_ratio(f) - 1e-12

    def test_requires_increasing(self):
        with pytest.raises(NonMonotoneError):
            strong_curvature(SetFunction(2, [0, 2, 1, 1]))

    def test_overflowing_value_range_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            strong_curvature_detail(SetFunction(1, [-1e308, 1e308]))

    @pytest.mark.parametrize("kind", sorted(STRONG_TABLES))
    def test_matches_reference(self, kind):
        # The extremes come from the monotonicity scan on a fresh function and
        # from the ratio scan after ratio_scan; both must give the same report.
        rng = random.Random(kind)
        for n in range(1, 10):
            values = STRONG_TABLES[kind](n, rng)
            expected = reference_strong_curvature(values, n)
            # The pair scan costs n * 4^(n-1) marginal pairs, so it stops at n=7.
            if n <= 7:
                assert expected[0] == naive_strong_curvature(values, n)
            for scan_first in (False, True):
                f = SetFunction(n, values)
                if scan_first:
                    ratio_scan(f)
                assert repr(strong_curvature_detail(f)) == repr(expected)

    def test_never_runs_the_ratio_scan(self, monkeypatch):
        def no_ratio_scan(f):
            raise AssertionError("strong curvature ran the ratio scan")

        monkeypatch.setattr(setfunc, "_ratio_scan", no_ratio_scan)
        monkeypatch.setattr(guarantees, "ratio_scan", no_ratio_scan)
        f = gen_bounded_marginal(6, 0.5, 2.0, 11)
        strong_curvature(f)
        assert f._ratios is None


class TestGreedyRestrictedRatios:
    def test_t3_forward_pair(self, t3_function, t3_matroid):
        gamma_fg, alpha_fg = forward_greedy_ratios(t3_function, t3_matroid, 2)
        assert (gamma_fg, alpha_fg) == (0.5, 0.0)
        assert forward_bound(gamma_fg, alpha_fg) == 2.0 < forward_bound(0.5, 0.5)

    def test_modular_forward_pair(self, modular123, t3_matroid):
        assert forward_greedy_ratios(modular123, t3_matroid, 2) == (1.0, 0.0)

    def test_t3_reverse_pair(self, t3_function, t3_matroid):
        trace = reverse_greedy_as_forward(t3_function, t3_matroid, 2)
        gamma_rg, alpha_rg = reverse_greedy_ratios(t3_function, t3_matroid, 2, trace)
        assert (gamma_rg, alpha_rg) == (1.0, 0.5)
        assert reverse_bound(gamma_rg, alpha_rg) == 0.5 > reverse_bound(0.5, 0.5)

    def test_modular_reverse_pair(self, modular123, t3_matroid):
        trace = reverse_greedy_as_forward(modular123, t3_matroid, 2)
        assert reverse_greedy_ratios(modular123, t3_matroid, 2, trace) == (1.0, 0.0)

    def test_forward_walks_no_truncation(self, monkeypatch):
        cases = [case for kind in sorted(ENUMERATION_SPECS) for case in restricted_cases(kind)]
        calls = []
        monkeypatch.setattr(Matroid, "truncate", lambda self, q: calls.append(q))
        for f, matroid, _ in cases:
            for cardinality in range(matroid.rank_full + 1):
                forward_greedy_ratios_detail(f, matroid, cardinality)
        assert calls == []

    @pytest.mark.parametrize("kind", sorted(ENUMERATION_SPECS))
    def test_forward_matches_reference(self, kind):
        # repr tells -0.0 from 0.0, so equal reprs mean equal bits.
        for f, matroid, family in restricted_cases(kind):
            for cardinality in range(matroid.rank_full + 1):
                expected = reference_forward_greedy_ratios(
                    f.values, f.n, family.__contains__, cardinality
                )
                got = forward_greedy_ratios_detail(f, matroid, cardinality)
                assert repr(got) == repr(expected)

    @pytest.mark.parametrize("kind", sorted(ENUMERATION_SPECS))
    def test_reverse_matches_reference(self, kind):
        for f, matroid, _ in restricted_cases(kind):
            for cardinality in range(matroid.rank_full + 1):
                for run in (reverse_greedy, reverse_greedy_as_forward):
                    trace = run(f, matroid, cardinality)
                    picks = [step.chosen for step in trace.steps]
                    expected = reference_reverse_greedy_ratios(f.values, f.n, picks)
                    got = reverse_greedy_ratios_detail(f, matroid, cardinality, trace)
                    assert repr(got) == repr(expected)

    @pytest.mark.parametrize("seed", [1, 20211003])
    def test_benchmark_n12_inputs_match_references(self, seed):
        for inst in benchmark_n12_instances(seed):
            f, matroid, k = inst.function, inst.matroid(), inst.cardinality
            family = reference_independent(inst.matroid_spec, f.n)
            expected = reference_forward_greedy_ratios(f.values, f.n, family.__contains__, k)
            assert repr(forward_greedy_ratios_detail(f, matroid, k)) == repr(expected)
            for run in (reverse_greedy, reverse_greedy_as_forward):
                trace = run(f, matroid, k)
                picks = [step.chosen for step in trace.steps]
                expected = reference_reverse_greedy_ratios(f.values, f.n, picks)
                assert repr(reverse_greedy_ratios_detail(f, matroid, k, trace)) == repr(expected)

    def test_forward_nan_start_is_kept(self):
        # Pair (empty, 0) comes first, at inf / inf; a strict-< loop keeps it.
        f = SetFunction(2, [-1e308, 1e308, 1e308, 1.5e308])
        got = forward_greedy_ratios_detail(f, build_matroid(UniformSpec(2), 2), 2)
        assert repr(got) == "(nan, nan, (0, 0), (0, 0))"

    def test_forward_nan_pair_after_the_start_never_wins(self):
        # Pairs in order: (empty, 0) at 1.0, (empty, 1) at nan, then ({0}, 1)
        # at curvature ratio 1e308 / inf = 0.0, ahead of ({1}, 0) at 0.0.
        f = SetFunction(2, [-1e308, 0.0, 1e308, 1e308])
        got = forward_greedy_ratios_detail(f, build_matroid(UniformSpec(2), 2), 2)
        assert repr(got) == "(1.0, 1.0, (0, 0), (1, 1))"

    def test_reverse_nan_start_after_a_flat_pair_is_kept(self):
        # The pass removes 2 (removing 1 breaks the rank). The first curvature
        # pair, r = 0 past {0, 1}, has a zero marginal; the next one, r = 1,
        # is inf / inf, so the loop keeps nan, which the clamp maps to 0.0.
        f = SetFunction(3, [-1e308, -1e308, 1e308, 1e308, -1e308, -1e308, 1.2e308, 1.5e308])
        matroid = build_matroid(PartitionSpec(((1,), (0, 2)), (1, 1)), 3)
        trace = reverse_greedy(f, matroid, 2)
        assert [step.chosen for step in trace.steps] == [2]
        got = reverse_greedy_ratios_detail(f, matroid, 2, trace)
        assert repr(got) == "(0.0, 0.0, (1, 2), (1, 0, 1))"
        assert repr(got) == repr(reference_reverse_greedy_ratios(f.values, 3, [2]))

    def test_reverse_overflowing_range_matches_reference(self):
        rng = random.Random(308)
        for n in range(2, 8):
            f = SetFunction(n, overflowing_table(n, rng))
            for rank in range(1, n + 1):
                matroid = build_matroid(UniformSpec(rank), n)
                for cardinality in range(rank + 1):
                    for run in (reverse_greedy, reverse_greedy_as_forward):
                        trace = run(f, matroid, cardinality)
                        picks = [step.chosen for step in trace.steps]
                        expected = reference_reverse_greedy_ratios(f.values, n, picks)
                        got = reverse_greedy_ratios_detail(f, matroid, cardinality, trace)
                        assert repr(got) == repr(expected)

    def test_forward_makes_no_independence_test(self, monkeypatch):
        calls = []
        is_independent = Matroid.is_independent

        def counting(self, subset):
            calls.append(subset)
            return is_independent(self, subset)

        monkeypatch.setattr(Matroid, "is_independent", counting)
        for inst in benchmark_n12_instances(2):
            forward_greedy_ratios_detail(inst.function, inst.matroid(), inst.cardinality)
        assert calls == []

    def test_forward_matroid_on_other_n(self, t3_function):
        with pytest.raises(ValueError, match="n=3 but matroid on n=4"):
            forward_greedy_ratios(t3_function, build_matroid(UniformSpec(2), 4), 2)

    def test_forward_cardinality_above_rank(self, t3_function, t3_matroid):
        with pytest.raises(InfeasibleError, match="rank 2 is below the target cardinality 5"):
            forward_greedy_ratios(t3_function, t3_matroid, 5)

    def test_forward_negative_cardinality(self, t3_function, t3_matroid):
        with pytest.raises(InfeasibleError, match="must be >= 0, got -1"):
            forward_greedy_ratios(t3_function, t3_matroid, -1)

    def test_reverse_matroid_on_other_n(self, t3_function, t3_matroid):
        trace = reverse_greedy_as_forward(t3_function, t3_matroid, 2)
        with pytest.raises(ValueError, match="n=3 but matroid on n=4"):
            reverse_greedy_ratios(t3_function, build_matroid(UniformSpec(2), 4), 2, trace)

    def test_trace_mismatch(self, t3_function, t3_matroid, modular123):
        from matroid_greedy import forward_greedy

        fwd = forward_greedy(t3_function, t3_matroid, 2)
        with pytest.raises(TraceMismatchError):
            reverse_greedy_ratios(t3_function, t3_matroid, 2, fwd)

    def test_never_worse_than_unrestricted(self):
        for inst in random_suite(25, 4, 7, seed=888):
            f = inst.function
            matroid = inst.matroid()
            gamma = submodularity_ratio(f)
            alpha = curvature(f)
            gamma_fg, alpha_fg = forward_greedy_ratios(f, matroid, inst.cardinality)
            assert gamma_fg >= gamma - 1e-12 and alpha_fg <= alpha + 1e-12
            trace = reverse_greedy_as_forward(f, matroid, inst.cardinality)
            gamma_rg, alpha_rg = reverse_greedy_ratios(f, matroid, inst.cardinality, trace)
            assert gamma_rg >= gamma - 1e-12 and alpha_rg <= alpha + 1e-12
            # and the induced bounds are never weaker
            assert forward_bound(gamma_fg, alpha_fg) <= forward_bound(gamma, alpha) + 1e-9
            assert reverse_bound(gamma_rg, alpha_rg) >= reverse_bound(gamma, alpha) - 1e-9


def reverse_case(n, values, spec, cardinality, run=reverse_greedy):
    """(result, reference) of the reverse family on one reverse run, for repr comparison."""
    f = SetFunction(n, values)
    matroid = build_matroid(spec, n)
    trace = run(f, matroid, cardinality)
    picks = [step.chosen for step in trace.steps]
    got = reverse_greedy_ratios_detail(f, matroid, cardinality, trace)
    return got, reference_reverse_greedy_ratios(f.values, n, picks)


class CountingValues(tuple):
    """A value table that counts its item reads."""

    reads = 0

    def __getitem__(self, index):
        type(self).reads += 1
        return tuple.__getitem__(self, index)


@st.composite
def tables_and_picks(draw, max_n=8):
    """A tie-heavy increasing table, zeros of either sign, and the picks of
    a random reverse trace (any order, not the greedy one) with its N."""
    n = draw(st.integers(1, max_n))
    size = 1 << n
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=size, max_size=size))
    values = [0.0] * size
    for mask in range(1, size):
        values[mask] = max(values[mask ^ 1 << j] for j in range(n) if mask >> j & 1) + steps[mask]
    signs = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    values = [-0.0 if v == 0.0 and neg else v for v, neg in zip(values, signs)]
    cardinality = draw(st.integers(0, n))
    picks = draw(st.permutations(range(n)))[: n - cardinality]
    return n, values, cardinality, picks


class TestReverseKeptSets:
    """The reverse family walks each step's distinct kept sets in the order
    of their first paddings; these cases pin where that order decides."""

    def test_ratio_tie_goes_to_the_earlier_first_padding(self):
        # Step 2 keeps {0, 1, 3} and picks 1. Paddings {0, 3} and {2, 3}
        # both give 1/3; D = {3} has fewer elements than D = {0, 3}, but
        # its first padding {2, 3} comes later than {0, 3}.
        values = [0.0, 0.0, 1.0, 1.0, 2.0, 4.0, 4.0, 6.0, 0.0, 0.0, 3.0, 3.0, 4.0, 6.0, 4.0, 8.0]
        got, expected = reverse_case(4, values, UniformSpec(2), 2)
        assert repr(got) == repr(expected) == "(0.3333333333333333, 0.0, (2, 9), None)"

    def test_curvature_tie_goes_to_the_earlier_first_padding(self):
        # Final set {0, 3}; at step 2 the kept sets {3} (padding {0}) and
        # {0, 3} (first padding {1}, D empty) both give 0.0 at r = 3.
        values = [0.0, 0.0, 1.0, 1.0, 1.0, 3.0, 2.0, 3.0, 1.0, 1.0, 3.0, 3.0, 2.0, 3.0, 4.0, 6.0]
        got, expected = reverse_case(4, values, UniformSpec(2), 2)
        assert repr(got) == repr(expected) == "(0.3333333333333333, 1.0, (1, 9), (2, 1, 3))"

    def test_kept_set_met_again_reports_its_first_padding(self):
        # Final set {2, 4}; at step 3 the minimum 0.5 is at kept set {2},
        # which paddings {0, 4}, {1, 4} and {3, 4} all leave, after other
        # kept sets have been listed.
        values = [
            0.0, -0.0, 0.0, 1.0, 2.0, 2.0, 3.0, 3.0, 2.0, 4.0, 2.0, 6.0, 2.0, 5.0, 4.0, 6.0,
            1.0, 2.0, 2.0, 4.0, 2.0, 3.0, 3.0, 6.0, 4.0, 4.0, 5.0, 7.0, 6.0, 6.0, 7.0, 9.0,
        ]
        got, expected = reverse_case(5, values, UniformSpec(2), 2)
        assert repr(got) == repr(expected) == "(0.0, 0.5, (1, 21), (3, 17, 2))"

    def test_negative_zero_minimum_keeps_its_padding(self):
        # Step 1's ratios are -0.0, 1.0 and 0.0, at paddings {0, 1}, {0, 3}
        # and {1, 3}; the -0.0 comes first and holds against the later 0.0.
        values = [-0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 3.0, 4.0, 0.0, 2.0, 1.0, 2.0, -0.0, 3.0, 3.0, 4.0]
        got, expected = reverse_case(4, values, UniformSpec(2), 2)
        assert repr(got) == repr(expected) == "(0.0, 1.0, (1, 3), (2, 1, 1))"

    @pytest.mark.parametrize("run", [reverse_greedy, reverse_greedy_as_forward])
    def test_infinite_ratio_binding_first(self, run):
        # The pass removes 2. The curvature family's first pair, r = 0 past
        # {0, 1}, binds nothing; the next, r = 1, has the overflowing gain
        # 1.5e308 - -1e308 = inf over 1e308, so it starts the minimum at inf
        # and stays it, and the clamp maps 1 - inf to 0.0.
        values = [-1e308, -1e308, 0.0, 0.0, -1e308, -1e308, 1e308, 1.5e308]
        spec = PartitionSpec(((1,), (0, 2)), (1, 1))
        got, expected = reverse_case(3, values, spec, 2, run)
        assert repr(got) == repr(expected) == "(0.0, 0.0, (1, 2), (1, 0, 1))"

    @pytest.mark.parametrize(
        "spec",
        [
            UniformSpec(6),
            # Rank 5: block (1, 4) holds one element.
            PartitionSpec(((0, 2), (1, 4), (3, 5)), (2, 1, 2)),
            # A tree (rank 6) and a graph with one triangle (rank 5).
            GraphicSpec(7, ((0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6))),
            GraphicSpec(6, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5))),
        ],
        ids=["uniform", "partition", "graphic-tree", "graphic-cycle"],
    )
    def test_extreme_cardinalities_match_reference(self, spec):
        rng = random.Random(6)
        rank = build_matroid(spec, 6).rank_full
        for make_table in (*TABLES, overflowing_table):
            values = make_table(6, rng)
            for cardinality in sorted({1, 5, 6} & set(range(rank + 1))):
                for run in (reverse_greedy, reverse_greedy_as_forward):
                    got, expected = reverse_case(6, values, spec, cardinality, run)
                    assert repr(got) == repr(expected)

    @pytest.mark.parametrize(
        "cardinality,reads",
        # A walk over every padding that reads the gains of all n elements
        # at each curvature step makes 330 and 3,264 reads here.
        [(1, 88), (4, 1870)],
    )
    def test_table_reads_at_n12(self, cardinality, reads):
        f = gen_bounded_marginal(12, 0.5, 2.0, 7)
        matroid = build_matroid(UniformSpec(cardinality), 12)
        trace = reverse_greedy_as_forward(f, matroid, cardinality)
        check_monotone(f)
        f.values = CountingValues(f.values)
        CountingValues.reads = 0
        reverse_greedy_ratios_detail(f, matroid, cardinality, trace)
        assert CountingValues.reads == reads

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(tables_and_picks())
    def test_random_traces_match_reference(self, case):
        n, values, cardinality, picks = case
        f = SetFunction(n, values)
        kept = full = (1 << n) - 1
        steps = []
        for t, pick in enumerate(picks, 1):
            kept &= ~(1 << pick)
            steps.append(GreedyStep(t, pick, f.values[kept | 1 << pick] - f.values[kept], kept))
        trace = GreedyTrace("reverse", n, tuple(steps), (), kept, f.values[full], f.values[kept])
        got = reverse_greedy_ratios_detail(f, build_matroid(UniformSpec(n), n), cardinality, trace)
        assert repr(got) == repr(reference_reverse_greedy_ratios(f.values, n, picks))


class TestVerification:
    def test_t3_forward(self, t3_function, t3_matroid):
        record = verify_forward(t3_function, t3_matroid, 2, instance_id="T3")
        assert record.satisfied
        assert record.achieved_ratio == 1.0 and record.bound == 4.0
        assert (record.f_empty, record.f_full) == (0.0, 4.0)
        assert (record.f_greedy, record.f_opt) == (3.0, 3.0)

    def test_t3_reverse(self, t3_function, t3_matroid):
        record = verify_reverse(t3_function, t3_matroid, 2, instance_id="T3")
        assert record.satisfied
        assert record.achieved_ratio == 1.0 and record.bound == pytest.approx(0.4, rel=1e-12)

    def test_modular_equality(self, modular123, t3_matroid):
        fwd = verify_forward(modular123, t3_matroid, 2)
        rev = verify_reverse(modular123, t3_matroid, 2)
        assert fwd.achieved_ratio == fwd.bound == 1.0 and fwd.satisfied
        assert rev.achieved_ratio == rev.bound == 1.0 and rev.satisfied

    def test_degenerate_constant_function(self):
        f = SetFunction(3, [1.0] * 8)
        matroid = build_matroid(UniformSpec(2), 3)
        fwd = verify_forward(f, matroid, 2)
        rev = verify_reverse(f, matroid, 2)
        assert fwd.achieved_ratio == 1.0 and fwd.satisfied
        assert rev.achieved_ratio == 1.0 and rev.satisfied

    @pytest.mark.parametrize("tolerance", [0.0, 1e-9, 0.5])
    def test_infinite_achieved_ratio_is_never_within_tolerance(self, t3, tolerance):
        # An optimum at f(empty) that the greedy misses makes the ratio +inf.
        optimum = OptimumRecord(0b011, 0.0, 3)
        record = verify_forward(t3.function, t3.matroid(), 2, tolerance=tolerance, optimum=optimum)
        assert (record.achieved_ratio, record.bound, record.satisfied) == (INF, 4.0, False)

    def test_infinite_gap_is_never_within_tolerance(self):
        assert not guarantees._leq(INF, 4.0, 1e-9)
        assert not guarantees._leq(1.0, -INF, 1e-9)
        assert not guarantees._leq(1e308, -1e308, 1.0)
        assert guarantees._leq(INF, INF, 0.0)
        assert guarantees._leq(1.0 + 1e-12, 1.0, 1e-9)

    def test_random_instances_all_satisfied(self):
        for inst in random_suite(40, 4, 8, seed=2026):
            matroid = inst.matroid()
            assert verify_forward(inst.function, matroid, inst.cardinality).satisfied
            assert verify_reverse(inst.function, matroid, inst.cardinality).satisfied

    def test_precomputed_optimum_gives_same_records(self):
        for inst in random_suite(20, 4, 8, seed=7):
            f, matroid, k = inst.function, inst.matroid(), inst.cardinality
            optimum = brute_force_optimum(f, matroid, k, "min")
            assert verify_forward(f, matroid, k, optimum=optimum) == verify_forward(f, matroid, k)
            assert verify_reverse(f, matroid, k, optimum=optimum) == verify_reverse(f, matroid, k)


class TestRegionCompare:
    def test_validation(self):
        with pytest.raises(ValueError):
            region_compare(1.0, -1.0, 0.0, 4)
        with pytest.raises(ValueError):
            region_compare(-1.0, 1.0, 0.0, 1)

    def test_grid_shape_excludes_singular_values(self):
        grid = region_compare(-1.0, 1.0, 0.0, 5)
        assert grid.alpha_grid == (0.0, 0.2, 0.4, 0.6, 0.8)
        assert grid.gamma_grid == (0.2, 0.4, 0.6, 0.8, 1.0)
        assert len(grid.cells) == 5 and all(len(row) == 5 for row in grid.cells)

    def test_reverse_wins_everywhere_at_fstar_zero(self):
        grid = region_compare(-1.0, 1.0, 0.0, 40)
        assert all(cell.winner == "reverse" for row in grid.cells for cell in row)

    def test_tie_cell_goes_to_reverse(self):
        grid = region_compare(-1.0, 1.0, 0.0, 4)
        cell = grid.cells[0][-1]  # alpha = 0, gamma = 1
        assert cell.forward_ub == cell.reverse_ub == 0.0
        assert cell.winner == "reverse"

    def test_forward_wins_at_exact_optimum_reference(self):
        grid = region_compare(-1.0, 1.0, -1.0, 25)
        for row in grid.cells:
            for cell in row:
                assert cell.forward_ub == -1.0
                expected = "reverse" if reverse_bound(cell.gamma, cell.alpha) == 1.0 else "forward"
                assert cell.winner == expected


class TestAnalyzeRatios:
    def test_full_report_on_t3(self, t3):
        report, witnesses = analyze_ratios(
            t3.function, t3.matroid(), t3.cardinality, include_greedy=True, include_strong=True
        )
        assert (report.gamma, report.alpha) == (0.5, 0.5)
        assert report.gamma_cumulative == pytest.approx(2 / 3, rel=1e-12)
        assert (report.strong_c, report.gamma_fg, report.alpha_fg) == (0.5, 0.5, 0.0)
        assert (report.gamma_rg, report.alpha_rg) == (1.0, 0.5)
        assert witnesses["gamma"] is not None and witnesses["alpha"] is not None

    def test_greedy_fields_need_constraint(self, t3_function):
        with pytest.raises(ValueError):
            analyze_ratios(t3_function, include_greedy=True)
