import random

import pytest

from matroid_greedy import (
    InfeasibleError,
    PartitionSpec,
    SetFunction,
    UniformSpec,
    brute_force_optimum,
    build_matroid,
    forward_greedy,
    mask_of,
    ordering_witness,
    reverse_greedy,
    reverse_greedy_as_forward,
)
from matroid_greedy.instances import gen_modular, random_matroid_spec, random_suite

from conftest import random_modular_instances, trace_payload
from oracles import reference_reverse_greedy

PART_SPLIT = PartitionSpec([[0], [1, 2]], [1, 1])
PART_PAIRS = PartitionSpec([[0, 1], [2, 3]], [1, 1])


class TestForwardGreedy:
    def test_t3_uniform_trace(self, t3_function, t3_matroid):
        trace = forward_greedy(t3_function, t3_matroid, 2)
        assert [(s.t, s.chosen, s.marginal) for s in trace.steps] == [(1, 1, 1.0), (2, 0, 2.0)]
        assert trace.final_set == mask_of([0, 1])
        assert (trace.f_initial, trace.f_final) == (0.0, 3.0)
        assert trace.rejected == ()

    def test_t3_partition_trace(self, t3_function):
        matroid = build_matroid(PART_SPLIT, 3)
        trace = forward_greedy(t3_function, matroid, 2)
        assert [(s.t, s.chosen, s.marginal) for s in trace.steps] == [(1, 1, 1.0), (2, 0, 2.0)]
        assert trace.final_set == mask_of([0, 1])

    def test_modular_reaches_optimum(self, modular123):
        matroid = build_matroid(UniformSpec(2), 3)
        trace = forward_greedy(modular123, matroid, 2)
        assert trace.final_set == mask_of([0, 1])
        assert trace.f_final == 3.0

    def test_rejection_path(self):
        f = gen_modular(4, [1, 2, 3, 4])
        matroid = build_matroid(PART_PAIRS, 4)
        trace = forward_greedy(f, matroid, 2)
        assert [(s.t, s.chosen, s.marginal) for s in trace.steps] == [(1, 0, 1.0), (2, 2, 3.0)]
        assert [(r.before_step, r.element) for r in trace.rejected] == [(2, 1)]
        assert trace.final_set == mask_of([0, 2])

    def test_infeasible(self, t3_function):
        with pytest.raises(InfeasibleError):
            forward_greedy(t3_function, build_matroid(UniformSpec(2), 3), 3)


class TestReverseGreedy:
    def test_t3_uniform_trace(self, t3_function, t3_matroid):
        trace = reverse_greedy(t3_function, t3_matroid, 2)
        assert [(s.t, s.chosen, s.marginal) for s in trace.steps] == [(1, 0, 1.0)]
        assert trace.final_set == mask_of([1, 2])
        assert (trace.f_initial, trace.f_final) == (4.0, 3.0)

    def test_modular_uniform(self, modular123):
        trace = reverse_greedy(modular123, build_matroid(UniformSpec(2), 3), 2)
        assert [(s.chosen, s.marginal) for s in trace.steps] == [(2, 3.0)]
        assert trace.final_set == mask_of([0, 1])

    def test_modular_partition(self, modular123):
        trace = reverse_greedy(modular123, build_matroid(PART_SPLIT, 3), 2)
        assert trace.steps[0].chosen == 2
        assert trace.final_set == mask_of([0, 1])

    def test_rejection_path(self):
        f = gen_modular(4, [1, 2, 3, 4])
        matroid = build_matroid(PART_PAIRS, 4)
        trace = reverse_greedy(f, matroid, 2)
        assert [(s.t, s.chosen, s.marginal) for s in trace.steps] == [(1, 3, 4.0), (2, 1, 2.0)]
        assert [(r.before_step, r.element) for r in trace.rejected] == [(2, 2)]
        assert trace.final_set == mask_of([0, 2])
        assert trace.f_final == 4.0


class TestReverseAsForward:
    def test_t3_matches_reverse(self, t3_function, t3_matroid):
        expected = reference_reverse_greedy(t3_function.values, t3_matroid, 2)
        direct = reverse_greedy(t3_function, t3_matroid, 2)
        reformulated = reverse_greedy_as_forward(t3_function, t3_matroid, 2)
        assert reformulated.algorithm == "reverse_as_forward"
        assert trace_payload(direct) == expected
        assert trace_payload(reformulated) == expected

    def test_modular(self, modular123):
        trace = reverse_greedy_as_forward(modular123, build_matroid(UniformSpec(2), 3), 2)
        assert trace.final_set == mask_of([0, 1])

    def test_equivalence_on_random_instances(self):
        for inst in random_suite(40, 4, 8, seed=1234):
            matroid = inst.matroid()
            expected = reference_reverse_greedy(inst.function.values, matroid, inst.cardinality)
            direct = reverse_greedy(inst.function, matroid, inst.cardinality)
            reformulated = reverse_greedy_as_forward(inst.function, matroid, inst.cardinality)
            assert trace_payload(direct) == expected, inst.id
            assert trace_payload(reformulated) == expected, inst.id

    def test_signed_zero_traces_bit_for_bit(self):
        # repr tells -0.0 from 0.0, so equal reprs mean equal bits.
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(2, 7)
            f = SetFunction(n, [rng.choice([0.0, -0.0, 1.0, -1.0]) for _ in range(1 << n)])
            matroid = build_matroid(random_matroid_spec(n, rng), n)
            cardinality = rng.randint(0, matroid.rank_full)
            expected = repr(reference_reverse_greedy(f.values, matroid, cardinality))
            for run in (reverse_greedy, reverse_greedy_as_forward):
                assert repr(trace_payload(run(f, matroid, cardinality))) == expected

    def test_builds_no_set_function(self, monkeypatch):
        inst = random_suite(1, 8, 8, seed=4)[0]
        f, matroid, cardinality = inst.function, inst.matroid(), inst.cardinality
        built = []
        original = SetFunction.__init__

        def counting_init(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(SetFunction, "__init__", counting_init)
        trace = reverse_greedy_as_forward(f, matroid, cardinality)
        base = matroid.truncate(cardinality).dual().enumerate_bases()[-1]
        ordering_witness(trace, f, base, matroid)
        assert built == []

    def test_eval_count_is_the_reflected_table_count(self):
        # Two reads of f per reflected gain, plus f(V) and f(final): the count
        # a tabulated reflection would have put on its own table.
        cases = [(i.function, i.matroid(), i.cardinality) for i in random_suite(10, 4, 9, seed=8)]
        # One rejection: see TestReverseGreedy.test_rejection_path.
        cases.append((gen_modular(4, [1, 2, 3, 4]), build_matroid(PART_PAIRS, 4), 2))
        for f, matroid, cardinality in cases:
            before = f.eval_count
            trace = reverse_greedy_as_forward(f, matroid, cardinality)
            picks = len(trace.steps) + len(trace.rejected)
            gains = sum(f.n - i for i in range(picks))
            assert f.eval_count - before == 2 * gains + 2
            base = matroid.truncate(cardinality).dual().enumerate_bases()[0]
            before = f.eval_count
            ordering_witness(trace, f, base, matroid)
            assert f.eval_count - before == 2 * len(trace.steps)


class TestTraceInvariants:
    def test_telescoping_and_base_property(self):
        for inst in random_suite(30, 4, 7, seed=99):
            matroid = inst.matroid()
            truncated = matroid.truncate(inst.cardinality)
            fwd = forward_greedy(inst.function, matroid, inst.cardinality)
            rev = reverse_greedy(inst.function, matroid, inst.cardinality)
            assert len(fwd.steps) == inst.cardinality
            assert len(rev.steps) == inst.n - inst.cardinality
            for trace, sign in ((fwd, 1.0), (rev, -1.0)):
                assert truncated.is_independent(trace.final_set)
                assert trace.final_set.bit_count() == inst.cardinality
                total = sign * sum(s.marginal for s in trace.steps)
                assert abs((trace.f_final - trace.f_initial) - total) <= 1e-12

    def test_rejected_never_reappear(self):
        for inst in random_suite(30, 4, 7, seed=5150):
            matroid = inst.matroid()
            for trace in (
                forward_greedy(inst.function, matroid, inst.cardinality),
                reverse_greedy(inst.function, matroid, inst.cardinality),
            ):
                rejected = {r.element for r in trace.rejected}
                assert rejected.isdisjoint({s.chosen for s in trace.steps})

    def test_nested_sets(self, t3_function, t3_matroid):
        fwd = forward_greedy(t3_function, t3_matroid, 2)
        previous = 0
        for step in fwd.steps:
            assert previous & step.set_after == previous and step.set_after != previous
            previous = step.set_after


class TestOrderingWitness:
    def test_t3_forward_other_base(self, t3_function, t3_matroid):
        trace = forward_greedy(t3_function, t3_matroid, 2)
        witness = ordering_witness(trace, t3_function, mask_of([0, 2]), t3_matroid)
        assert witness.ordering == (2, 0)
        assert witness.per_step_check == ((1.0, 1.0), (2.0, 2.0))

    def test_final_set_gives_greedy_order(self, t3_function, t3_matroid):
        trace = forward_greedy(t3_function, t3_matroid, 2)
        witness = ordering_witness(trace, t3_function, trace.final_set, t3_matroid)
        assert witness.ordering == tuple(s.chosen for s in trace.steps)

    def test_t3_reverse_dual_base(self, t3_function, t3_matroid):
        trace = reverse_greedy_as_forward(t3_function, t3_matroid, 2)
        witness = ordering_witness(trace, t3_function, mask_of([1]), t3_matroid)
        assert witness.ordering == (1,)
        assert witness.per_step_check == ((1.0, 1.0),)

    def test_rejects_non_base(self, t3_function, t3_matroid):
        trace = forward_greedy(t3_function, t3_matroid, 2)
        with pytest.raises(ValueError):
            ordering_witness(trace, t3_function, mask_of([0]), t3_matroid)

    def test_all_bases_on_random_instances(self):
        for inst in random_suite(20, 4, 6, seed=777):
            matroid = inst.matroid()
            truncated = matroid.truncate(inst.cardinality)
            fwd = forward_greedy(inst.function, matroid, inst.cardinality)
            for base in truncated.enumerate_bases():
                witness = ordering_witness(fwd, inst.function, base, matroid)
                assert all(a >= b for a, b in witness.per_step_check)
            rev = reverse_greedy_as_forward(inst.function, matroid, inst.cardinality)
            for base in truncated.dual().enumerate_bases():
                witness = ordering_witness(rev, inst.function, base, matroid)
                assert all(a <= b for a, b in witness.per_step_check)


class TestBruteForce:
    def test_t3_uniform(self, t3_function, t3_matroid):
        record = brute_force_optimum(t3_function, t3_matroid, 2, "min")
        assert record.optimum_set == mask_of([0, 1])
        assert record.optimum_value == 3.0
        assert record.bases_examined == 3

    def test_t3_partition(self, t3_function):
        record = brute_force_optimum(t3_function, build_matroid(PART_SPLIT, 3), 2, "min")
        assert record.optimum_set == mask_of([0, 1])
        assert record.optimum_value == 3.0
        assert record.bases_examined == 2

    def test_modular(self, modular123):
        record = brute_force_optimum(modular123, build_matroid(UniformSpec(2), 3), 2, "min")
        assert (record.optimum_set, record.optimum_value) == (mask_of([0, 1]), 3.0)

    def test_max_sense(self, modular123):
        record = brute_force_optimum(modular123, build_matroid(UniformSpec(2), 3), 2, "max")
        assert (record.optimum_set, record.optimum_value) == (mask_of([1, 2]), 5.0)

    def test_errors(self, t3_function, t3_matroid):
        # Brute force shares the passes' input check.
        for cardinality in (3, -1):
            with pytest.raises(InfeasibleError):
                brute_force_optimum(t3_function, t3_matroid, cardinality)
        with pytest.raises(ValueError):
            brute_force_optimum(t3_function, t3_matroid, 2, "best")

    def test_n17_within_table_cap(self):
        # Brute force is bounded by the table cap of 20, not by the cumulative cap of 16.
        f = gen_modular(17, range(17, 0, -1))
        record = brute_force_optimum(f, build_matroid(UniformSpec(1), 17), 1)
        assert (record.optimum_set, record.optimum_value, record.bases_examined) == (1 << 16, 1.0, 17)

    def test_modular_optimality_of_both_passes(self):
        for f, matroid, cardinality in random_modular_instances(25, seed=31337):
            opt = brute_force_optimum(f, matroid, cardinality, "min")
            assert forward_greedy(f, matroid, cardinality).f_final == opt.optimum_value
            assert reverse_greedy(f, matroid, cardinality).f_final == opt.optimum_value
