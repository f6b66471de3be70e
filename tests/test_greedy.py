import dataclasses
import random

import pytest

from matroid_greedy import (
    InfeasibleError,
    Matroid,
    OptimumRecord,
    PartitionSpec,
    SetFunction,
    UniformSpec,
    brute_force_optimum,
    build_matroid,
    forward_greedy,
    mask_of,
    ordering_witness,
    TraceMismatchError,
    full_mask,
    reverse_greedy,
    reverse_greedy_as_forward,
)
from matroid_greedy.guarantees import reverse_greedy_ratios_detail
from matroid_greedy.instances import (
    gen_bounded_marginal,
    gen_modular,
    random_matroid_spec,
    random_suite,
)

from conftest import ENUMERATION_SPECS, random_modular_instances, trace_payload
from oracles import reference_reverse_greedy

PART_SPLIT = PartitionSpec([[0], [1, 2]], [1, 1])
PART_PAIRS = PartitionSpec([[0, 1], [2, 3]], [1, 1])


def loop_optimum(f, matroid, cardinality, sense):
    """Brute force as one call of f per base, in enumeration order, first optimum kept."""
    best_mask, best_val, count = -1, 0.0, 0
    for mask in matroid.truncate(cardinality).enumerate_bases():
        count += 1
        val = f(mask)
        if best_mask < 0 or (val < best_val if sense == "min" else val > best_val):
            best_mask, best_val = mask, val
    return OptimumRecord(best_mask, best_val, count)


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
            shrink = reverse_greedy(inst.function, matroid, inst.cardinality)
            for base in truncated.dual().enumerate_bases():
                witness = ordering_witness(rev, inst.function, base, matroid)
                assert all(a <= b for a, b in witness.per_step_check)
                # Both reverse variants record the same sets, so their witnesses agree.
                assert repr(ordering_witness(shrink, inst.function, base, matroid)) == repr(witness)

    def test_unknown_algorithm_rejected(self, t3_function, t3_matroid):
        trace = dataclasses.replace(forward_greedy(t3_function, t3_matroid, 2), algorithm="sideways")
        with pytest.raises(ValueError, match="unknown trace algorithm 'sideways'"):
            ordering_witness(trace, t3_function, trace.final_set, t3_matroid)

    def test_matroid_on_other_n_rejected(self, t3_function, t3_matroid):
        trace = forward_greedy(t3_function, t3_matroid, 2)
        n4 = build_matroid(UniformSpec(2), 4)
        with pytest.raises(ValueError, match="n=3, 4 and 3"):
            ordering_witness(trace, t3_function, trace.final_set, n4)

    def test_function_on_other_n_rejected(self, t3_function, t3_matroid):
        trace = forward_greedy(t3_function, t3_matroid, 2)
        with pytest.raises(ValueError, match="n=4, 3 and 3"):
            ordering_witness(trace, gen_modular(4, [1, 2, 3, 4]), trace.final_set, t3_matroid)


def read_trace(reader, trace, f, matroid, cardinality):
    """Feed a trace to one of its two readers; the witness takes the greedy base."""
    if reader == "ratios":
        return reverse_greedy_ratios_detail(f, matroid, cardinality, trace)
    flip = 0 if trace.algorithm == "forward" else full_mask(trace.n)
    return ordering_witness(trace, f, flip ^ trace.final_set, matroid)


def with_step(trace, index, **fields):
    """``trace`` with ``fields`` replaced in its step at ``index``."""
    steps = list(trace.steps)
    steps[index] = dataclasses.replace(steps[index], **fields)
    return dataclasses.replace(trace, steps=tuple(steps))


class TestTraceCheck:
    """Both trace readers reject a trace whose sets do not follow its picks."""

    # A reverse run that removes 4, 3 and then 0: kept sets 15, 7, 6.
    F5 = gen_bounded_marginal(5, 1.0, 2.0, 3)

    @pytest.mark.parametrize("reader", ["ratios", "witness"])
    @pytest.mark.parametrize(
        "fields,message",
        [
            pytest.param({"chosen": 5}, "picks 5, outside the ground set of n=5", id="pick-above-n"),
            pytest.param({"chosen": -1}, "picks -1, outside the ground set", id="pick-negative"),
            pytest.param({"set_after": 1 << 9}, "holds set 512, not", id="mask-outside"),
            pytest.param({"set_after": 0b00011}, "holds set 3, not", id="mask-not-removal"),
            pytest.param({"chosen": 4}, "with 4 removed", id="pick-already-removed"),
        ],
    )
    def test_broken_step(self, reader, fields, message):
        matroid = build_matroid(UniformSpec(2), 5)
        trace = reverse_greedy(self.F5, matroid, 2)
        assert [s.chosen for s in trace.steps] == [4, 3, 0]
        with pytest.raises(TraceMismatchError, match=message):
            read_trace(reader, with_step(trace, 1, **fields), self.F5, matroid, 2)

    @pytest.mark.parametrize("reader", ["ratios", "witness"])
    @pytest.mark.parametrize("rank,final", [(2, 7), (5, 0)], ids=["last-step", "no-steps"])
    def test_final_set_not_last(self, reader, rank, final):
        matroid = build_matroid(UniformSpec(rank), 5)
        trace = reverse_greedy_as_forward(self.F5, matroid, rank)
        broken = dataclasses.replace(trace, final_set=final)
        with pytest.raises(TraceMismatchError, match=f"final set {final} is not its last set"):
            read_trace(reader, broken, self.F5, matroid, rank)

    def test_forward_pick_already_held(self, t3_function, t3_matroid):
        trace = forward_greedy(t3_function, t3_matroid, 2)
        broken = with_step(trace, 1, chosen=trace.steps[0].chosen)
        with pytest.raises(TraceMismatchError, match="inserted"):
            read_trace("witness", broken, t3_function, t3_matroid, 2)

    def test_traces_of_every_pass_are_read(self):
        for inst in random_suite(20, 3, 8, 5):
            f, matroid, cardinality = inst.function, inst.matroid(), inst.cardinality
            read_trace("witness", forward_greedy(f, matroid, cardinality), f, matroid, cardinality)
            for run in (reverse_greedy, reverse_greedy_as_forward):
                trace = run(f, matroid, cardinality)
                for reader in ("ratios", "witness"):
                    read_trace(reader, trace, f, matroid, cardinality)


class TestBruteForce:
    def test_walks_no_truncation(self, monkeypatch):
        # The bases of the truncation at N are the independent sets of size N.
        specs = [make(8, random.Random(kind)) for kind, make in ENUMERATION_SPECS.items()]
        matroids = [build_matroid(spec, 8) for spec in specs]
        calls = []
        monkeypatch.setattr(Matroid, "truncate", lambda self, q: calls.append(q))
        for matroid in matroids:
            f = SetFunction(8, [float(m.bit_count() ^ m) for m in range(1 << 8)])
            for cardinality in range(matroid.rank_full + 1):
                brute_force_optimum(f, matroid, cardinality)
        assert calls == []

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

    @pytest.mark.parametrize("kind", sorted(ENUMERATION_SPECS))
    def test_matches_the_per_base_loop_on_ties_and_signed_zeros(self, kind):
        # Few distinct values, both zeros among them, so most optima are tied
        # and the first base at the optimum must win with its own sign.
        for n in (4, 6, 8):
            rng = random.Random(f"brute-{kind}-{n}")
            matroid = build_matroid(ENUMERATION_SPECS[kind](n, rng), n)
            for choices in ([0.0, -0.0, 1.0, 2.0, -1.0], [0.0, -0.0]):
                values = [rng.choice(choices) for _ in range(1 << n)]
                for cardinality in sorted({0, matroid.rank_full // 2, matroid.rank_full}):
                    for sense in ("min", "max"):
                        f, g = SetFunction(n, values), SetFunction(n, values)
                        record = brute_force_optimum(f, matroid, cardinality, sense)
                        expected = loop_optimum(g, matroid, cardinality, sense)
                        assert repr(record) == repr(expected), (n, cardinality, sense)
                        assert f.eval_count == g.eval_count == record.bases_examined

    def test_modular_optimality_of_both_passes(self):
        for f, matroid, cardinality in random_modular_instances(25, seed=31337):
            opt = brute_force_optimum(f, matroid, cardinality, "min")
            assert forward_greedy(f, matroid, cardinality).f_final == opt.optimum_value
            assert reverse_greedy(f, matroid, cardinality).f_final == opt.optimum_value
