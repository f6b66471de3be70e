import copy
import functools
import math
import pickle
import random
import struct
import sys
import weakref
from array import array
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matroid_greedy import (
    NonMonotoneError,
    NotStrictlyIncreasingError,
    GroundSetTooLargeError,
    SetFunction,
    check_monotone,
    complement_function,
    cumulative_submodularity_ratio,
    curvature,
    marginal_bounds_estimate,
    mask_of,
    ratio_scan,
    submodularity_ratio,
)
from matroid_greedy import setfunc
from matroid_greedy.instances import gen_bounded_marginal, gen_modular, random_suite
from matroid_greedy.setfunc import _subset_fold, cumulative_ratio_detail
from matroid_greedy.subsets import elements, submasks

from conftest import EXTREMES, constant_function
from oracles import (
    is_submodular,
    is_supermodular,
    naive_alpha,
    naive_gamma,
    naive_gamma_cumulative,
    reference_cumulative_scan,
    reference_fold_ratio_scan,
    reference_monotone,
    reference_ratio_scan,
    reference_subset_fold,
)

TOL = 1e-9


@st.composite
def increasing_tables(draw, min_n=2, max_n=5):
    """Strictly increasing function built by max-plus accumulation of positive increments."""
    n = draw(st.integers(min_n, max_n))
    size = 1 << n
    incs = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    values = [0.0] * size
    for mask in range(1, size):
        best = max(values[mask ^ (1 << j)] for j in range(n) if mask >> j & 1)
        values[mask] = best + incs[mask]
    return SetFunction(n, values)


@st.composite
def tie_heavy_tables(draw, max_n=6):
    """Increasing tables full of equal marginals: small-integer steps, modular, constant.

    Zeros may carry either sign, so the tie-break must also pick the same
    signed zero as the direct scan.
    """
    n = draw(st.integers(1, max_n))
    size = 1 << n
    kind = draw(st.sampled_from(["steps", "modular", "constant"]))
    if kind == "steps":
        steps = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        values = [0] * size
        for mask in range(1, size):
            values[mask] = max(values[mask ^ 1 << j] for j in range(n) if mask >> j & 1)
            values[mask] += steps[mask]
    elif kind == "modular":
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        values = [sum(w for j, w in enumerate(weights) if mask >> j & 1) for mask in range(size)]
    else:
        values = [draw(st.integers(-2, 2))] * size
    return with_signed_zeros(draw, n, values)


@st.composite
def small_int_tables(draw, max_n=6):
    """Arbitrary tables of small integers, mostly non-monotone, zeros of either sign."""
    n = draw(st.integers(1, max_n))
    size = 1 << n
    values = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    return with_signed_zeros(draw, n, values)


def with_signed_zeros(draw, n, values):
    """Float table of ``values`` whose zeros each draw a sign."""
    negative_zero = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return SetFunction(
        n, [-0.0 if v == 0 and neg else float(v) for v, neg in zip(values, negative_zero)]
    )


def same_float(a, b):
    """Equal, including the sign of zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestSetFunctionBasics:
    def test_table_validation(self):
        with pytest.raises(ValueError):
            SetFunction(2, [0, 1, 2])
        with pytest.raises(ValueError):
            SetFunction(0, [0.0])
        with pytest.raises(ValueError, match=r"^ground set size must be in 1\.\.20, got 21$"):
            SetFunction(21, [0.0] * (1 << 21))
        # The cap itself: a table of 2^20 values builds.
        assert len(SetFunction(20, [0.0] * (1 << 20)).values) == 1 << 20

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_rejects_non_finite_values(self, bad):
        # [0, NaN, 1, 2] used to pass every scan as a "perfect" function.
        with pytest.raises(ValueError, match="finite"):
            SetFunction(2, [0, bad, 1, 2])

    def test_finite_values_with_overflowing_sum_accepted(self):
        f = SetFunction(2, [0.0, 1e308, 1e308, 1.5e308])
        assert f.values[3] == 1.5e308
        # The same as ints: their exact sum fits, the sum of their doubles
        # does not, and the per-value pass runs on the doubles.
        ints = SetFunction(2, [0, 10**308, 10**308, 15 * 10**307])
        assert ints.values.tobytes() == f.values.tobytes()

    def test_large_int_tables_give_the_float_lists_table(self):
        # Ints past 2^53 round to the same doubles however they arrive.
        rng = random.Random(16)
        ints = [rng.randrange(-(2**62), 2**62) for _ in range(1 << 16)]
        expected = SetFunction(16, list(map(float, ints))).values.tobytes()
        for table in (ints, array("q", ints)):
            assert SetFunction(16, table).values.tobytes() == expected

    @pytest.mark.parametrize("bad", [True, "1.5", None, [1.0]])
    def test_rejects_non_numbers_by_index(self, bad):
        with pytest.raises(ValueError, match=r"^values\[3\] is not a number$"):
            SetFunction(2, [0.0, 1.0, 2.0, bad])

    def test_real_numbers_become_exact_floats(self):
        class Half(float):
            pass

        f = SetFunction(2, [0, Half(0.5), Fraction(5, 2), 2**53])
        assert f.values == array("d", [0.0, 0.5, 2.5, 9007199254740992.0])
        assert {type(f(mask)) for mask in range(4)} == {float}

    def test_float_tuple_kept_as_given(self):
        # The table is the tuple's floats as C doubles, the zero's sign kept.
        values = (0.0, 1.0, -0.0, 2.0)
        f = SetFunction(2, values)
        assert list(map(float.hex, f.values)) == list(map(float.hex, values))
        assert [f(mask).hex() for mask in range(4)] == list(map(float.hex, values))

    @pytest.mark.parametrize(
        "kind", [list, tuple, functools.partial(array, "d")], ids=["list", "tuple", "double-array"]
    )
    def test_signed_zeros_are_equal_and_hash_alike(self, kind):
        # == compares the values as floats, as a tuple's == does, and the
        # hash agrees with it.
        negative, positive = SetFunction(1, kind([-0.0, 1.0])), SetFunction(1, kind([0.0, 1.0]))
        assert negative == positive and hash(negative) == hash(positive)
        assert negative(0).hex() == "-0x0.0p+0" and positive(0).hex() == "0x0.0p+0"
        assert negative != SetFunction(1, kind([0.0, 2.0]))

    def test_length_checked_before_types(self):
        with pytest.raises(ValueError, match="need 4 values for n=2, got 3"):
            SetFunction(2, [0.0, "x", 1.0])

    def test_types_checked_before_overflow(self):
        with pytest.raises(ValueError, match=r"values\[3\] is not a number"):
            SetFunction(2, [0, 10**400, 1, "x"])
        with pytest.raises(ValueError, match="must be finite"):
            SetFunction(2, [0, 1, 2, 10**400])

    def test_equality_with_other_types_is_not_implemented(self, t3_function):
        assert t3_function.__eq__(t3_function.values) is NotImplemented
        assert t3_function != t3_function.values

    def test_monotonicity_report_computed_once(self, t3_function):
        assert check_monotone(t3_function) is check_monotone(t3_function)

    def test_ratio_scan_computed_once(self, t3_function):
        assert ratio_scan(t3_function) is ratio_scan(t3_function)

    def test_evaluation_and_purity(self, t3_function):
        first = t3_function(5)
        assert first == t3_function(5)
        assert t3_function.eval_count == 2
        with pytest.raises(ValueError):
            t3_function(8)

    def test_eval_count_under_threads(self, t3_function):
        def hammer(_):
            for mask in range(8):
                t3_function(mask)
            return True

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(hammer, range(100)))
        assert t3_function.eval_count == 8 * 100

    def test_two_functions_count_exactly_under_threads(self):
        # Eight threads call each function at once, sixteen in all, switching
        # as often as the interpreter allows, so a lost update would show.
        functions = (gen_bounded_marginal(3, 1.0, 3.0, seed=1), gen_modular(3, [1, 2, 3]))

        def hammer(k):
            f = functions[k % 2]
            for mask in range(8):
                f(mask)
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                assert all(pool.map(hammer, range(2000), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert [f.eval_count for f in functions] == [8 * 1000, 8 * 1000]

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_keep_table_count_and_scans(self, clone):
        f = gen_bounded_marginal(6, 1.0, 3.0, seed=5)
        scan = ratio_scan(f)
        f(3)
        f.marginal(1, 2)
        twin = clone(f)
        assert twin == f and twin.values.tobytes() == f.values.tobytes()
        assert twin.eval_count == f.eval_count == 3
        assert ratio_scan(twin) == scan
        twin(0)
        assert (f.eval_count, twin.eval_count) == (3, 4)


class TestDoubleArrayInput:
    """An array('d') skips the type pass and is checked otherwise as any table."""

    def test_same_function_as_from_a_list(self):
        # A list, a tuple, an int array and a double array of the same values
        # give equal functions with equal hashes and the same floats.
        counts = [m.bit_count() for m in range(16)]
        values = list(map(float, counts))
        from_list = SetFunction(4, values)
        expected = [from_list(mask).hex() for mask in range(16)]
        for table in (tuple(values), array("q", counts), array("d", values)):
            f = SetFunction(4, table)
            assert f == from_list and hash(f) == hash(from_list)
            assert [f(mask).hex() for mask in range(16)] == expected

    def test_values_are_the_same_floats_bit_for_bit(self):
        f = SetFunction(3, array("d", EXTREMES))
        assert type(f.values) is array and f.values.typecode == "d"
        assert list(map(float.hex, f.values)) == list(map(float.hex, EXTREMES))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        message = r"^set-function values must be finite \(no NaN or infinity\)$"
        with pytest.raises(ValueError, match=message):
            SetFunction(2, array("d", [0.0, bad, 1.0, 2.0]))

    @pytest.mark.parametrize("size", [3, 5])
    def test_wrong_length(self, size):
        with pytest.raises(ValueError, match=f"^need 4 values for n=2, got {size}$"):
            SetFunction(2, array("d", [0.0] * size))

    @pytest.mark.parametrize("typecode", ["q", "f"])
    def test_other_typecodes_take_the_type_pass(self, monkeypatch, typecode):
        # The type pass is the one call of set() in building a SetFunction.
        passes = []

        def counted(kinds):
            passes.append(1)
            return set(kinds)

        monkeypatch.setattr(setfunc, "set", counted, raising=False)
        f = SetFunction(2, array(typecode, [0, 1, 2, 3]))
        assert passes == [1]
        assert f.values == array("d", [0.0, 1.0, 2.0, 3.0])
        assert f.values.typecode == "d"
        passes.clear()
        SetFunction(2, array("d", [0, 1, 2, 3]))
        assert passes == []


def double_from_bits(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


NON_FINITE_MESSAGE = r"^set-function values must be finite \(no NaN or infinity\)$"

#: Doubles at the edges of the top-byte rule: NaN payloads of either sign,
#: the infinities, signed zeros, subnormals, and finite values whose top
#: byte is 0x7F or 0xFF, like the non-finite ones.
EDGE_DOUBLES = [
    math.nan, -math.nan, double_from_bits(0x7FF0_0000_0000_0001),
    double_from_bits(0xFFF8_0000_DEAD_BEEF), double_from_bits(0x7FF7_FFFF_FFFF_FFFF),
    math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, sys.float_info.min,
    sys.float_info.max, -sys.float_info.max, 2.0**1009, -(2.0**1009), -1.7e308,
    2.0**1008, 1e300,
]


class TestFiniteTopBytes:
    """A table is finite exactly when each double's exponent bits are not all ones."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.floats()
                | st.sampled_from(EDGE_DOUBLES)
                | st.integers(0, 2**64 - 1).map(double_from_bits),
                min_size=1 << n,
                max_size=1 << n,
            )
        )
    )
    def test_accepts_exactly_the_finite_arrays(self, values):
        n = len(values).bit_length() - 1
        for table in (array("d", values), values):
            if all(map(math.isfinite, values)):
                f = SetFunction(n, table)
                assert f.values.tobytes() == array("d", values).tobytes()
            else:
                with pytest.raises(ValueError, match=NON_FINITE_MESSAGE):
                    SetFunction(n, table)

    @pytest.mark.parametrize("value", EDGE_DOUBLES)
    def test_each_edge_double_alone(self, value):
        table = array("d", [0.0, value])
        if math.isfinite(value):
            assert SetFunction(1, table).values[1] == value
        else:
            with pytest.raises(ValueError, match=NON_FINITE_MESSAGE):
                SetFunction(1, table)

    @pytest.mark.parametrize(
        "at,bad", [(1 << 16, math.nan), ((1 << 17) - 1, -math.inf)], ids=["nan-block-start", "inf-last"]
    )
    def test_non_finite_value_past_the_first_block(self, at, bad):
        # 2^16 is the first double of a block, 2^17 - 1 the last of the last.
        assert (1 << 16) % setfunc._FINITE_BLOCK == 0
        values = [float(i) for i in range(1 << 17)]
        values[at] = bad
        for table in (values, tuple(values), array("d", values)):
            with pytest.raises(ValueError, match=NON_FINITE_MESSAGE):
                SetFunction(17, table)

    def test_only_a_block_with_a_high_top_byte_is_read_value_by_value(self, monkeypatch):
        calls = []
        isfinite = math.isfinite

        def counted(x):
            calls.append(1)
            return isfinite(x)

        monkeypatch.setattr(math, "isfinite", counted)
        values = array("d", range(1 << 17))
        SetFunction(17, values)
        assert calls == []
        # 2^1009 is finite, but its top byte is 0x7F: its block, and only
        # its block, is read value by value, and the table is accepted.
        values[(1 << 16) + 5] = 2.0**1009
        assert SetFunction(17, values).values[(1 << 16) + 5] == 2.0**1009
        assert len(calls) == setfunc._FINITE_BLOCK
        calls.clear()
        values[3] = math.inf
        with pytest.raises(ValueError, match=NON_FINITE_MESSAGE):
            SetFunction(17, values)
        assert len(calls) == 4

    def test_top_byte_is_the_sign_byte(self):
        assert array("d", [-0.0]).tobytes()[setfunc._TOP] == 0x80
        assert array("d", [math.inf]).tobytes()[setfunc._TOP] == 0x7F


class TestKeptDoubleArray:
    """A copy of an array('d') is the table, ``values``, that calls read."""

    def test_calls_return_the_same_floats_bit_for_bit(self):
        f = SetFunction(3, array("d", EXTREMES))
        from_list = SetFunction(3, EXTREMES)
        assert [f(mask).hex() for mask in range(8)] == [from_list(mask).hex() for mask in range(8)]
        assert f(0).hex() == "-0x0.0p+0"

    @pytest.mark.parametrize("mask", [-1, 8])
    def test_out_of_range_mask_raises_as_from_a_list(self, mask):
        for f in (SetFunction(3, array("d", EXTREMES)), SetFunction(3, EXTREMES)):
            with pytest.raises(ValueError, match=f"^subset mask {mask} out of range for n=3$"):
                f(mask)

    def test_writes_to_the_callers_array_do_not_reach_the_function(self):
        # A list is checked as it is given too, and copied all the same.
        for table in (array("d", EXTREMES), list(EXTREMES)):
            f = SetFunction(3, table)
            table[0] = table[7] = 1.0
            table.append(2.0)
            assert [f(mask).hex() for mask in range(8)] == list(map(float.hex, EXTREMES))
            assert list(map(float.hex, f.values)) == list(map(float.hex, EXTREMES))

    def test_values_is_the_one_double_array_that_calls_read(self):
        table = array("d", EXTREMES)
        f = SetFunction(3, table)
        values = f.values
        assert type(values) is array and values.typecode == "d" and values is not table
        assert f.values is values
        assert [f(mask).hex() for mask in range(8)] == list(map(float.hex, values))

    def test_every_input_gives_one_class_and_one_table(self):
        for table in (EXTREMES, tuple(EXTREMES), array("q", range(8)), array("d", EXTREMES)):
            f = SetFunction(3, table)
            assert type(f) is SetFunction
            assert type(f.values) is array and f.values.typecode == "d"
        # A class with __getattr__ reads every attribute the slow way.
        assert not hasattr(SetFunction, "__getattr__")

    def test_other_missing_attributes_raise_as_usual(self):
        f = SetFunction(3, array("d", EXTREMES))
        with pytest.raises(AttributeError, match="^'SetFunction' object has no attribute 'table'$"):
            f.table
        assert not hasattr(f, "_missing")

    def test_eval_count_and_values_under_threads(self):
        f = SetFunction(12, array("d", range(1 << 12)))
        masks = range(0, 1 << 12, 64)

        def hammer(_):
            for mask in masks:
                f(mask)
            values = f.values
            for mask in masks:
                f(mask)
            return values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(hammer, range(100), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert f.eval_count == 2 * len(masks) * 100
        assert all(values is f.values for values in seen)


class TestMarginals:
    def test_marginal_examples(self, t3_function):
        assert t3_function.marginal(0, 0) == 2.0
        assert t3_function.marginal(mask_of([1, 2]), 0) == 1.0
        assert t3_function.marginal(mask_of([0, 2]), 0) == 0.0

    def test_marginal_element_range(self, t3_function):
        # The element check names the element; the mask check would name mask 8.
        for j in (3, -1):
            with pytest.raises(ValueError, match=rf"^element {j} out of range for n=3$"):
                t3_function.marginal(0, j)

    @pytest.mark.parametrize("mask", [-1, 9, 15, 1 << 70 | 1])
    def test_marginal_mask_range(self, t3_function, mask):
        # j = 0 is in each mask, so no value is read; the mask is refused all the same.
        before = t3_function.eval_count
        with pytest.raises(ValueError, match=f"^subset mask {mask} out of range for n=3$"):
            t3_function.marginal(mask, 0)
        assert t3_function.eval_count == before

    def test_set_marginal_examples(self, t3_function):
        assert t3_function.set_marginal(0, mask_of([1, 2])) == 3.0
        assert t3_function.set_marginal(mask_of([2]), mask_of([0, 1])) == 3.0
        assert t3_function.set_marginal(mask_of([0, 1]), mask_of([1])) == 0.0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_marginal_lists_by_definition(self, n):
        # Zeros of both signs, so every sign rule of the subtraction shows.
        rng = random.Random(f"marginals-{n}")
        vals = tuple(rng.choice([0.0, -0.0, 1.0, 2.5, -3.0]) for _ in range(1 << n))
        for j in range(n):
            expected = [vals[m | 1 << j] - vals[m] for m in range(1 << n) if not m >> j & 1]
            assert repr(setfunc._marginals(vals, j)) == repr(expected)

    def test_shifted_marginal_examples(self, t3_function, modular123):
        assert t3_function.shifted_marginal(mask_of([0, 1, 2]), 0) == 1.0
        assert t3_function.shifted_marginal(mask_of([0, 1]), 1) == 1.0
        assert modular123.shifted_marginal(mask_of([0, 2]), 2) == 3.0
        with pytest.raises(ValueError):
            t3_function.shifted_marginal(mask_of([1, 2]), 0)


class TestMonotonicity:
    def test_t3_strictly_increasing(self, t3_function):
        report = check_monotone(t3_function)
        assert report.increasing and report.strictly_increasing
        assert report.witness is None

    def test_decreasing_witness(self):
        f = SetFunction(2, [0, 2, 1, 1])  # f({0,1}) < f({0})
        report = check_monotone(f)
        assert not report.increasing
        assert report.witness == (1, 1)

    def test_constant_is_weakly_increasing(self):
        report = check_monotone(constant_function(3))
        assert report.increasing and not report.strictly_increasing
        assert report.witness == (0, 0)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.one_of(tie_heavy_tables(), small_int_tables()))
    def test_matches_direct_scan(self, f):
        report = check_monotone(f)
        expected = reference_monotone(list(f.values), f.n)
        assert (report.increasing, report.strictly_increasing, report.witness) == expected


class TestSubsetFold:
    @pytest.mark.parametrize("largest", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_direct_submask_fold_with_zero_signs(self, largest, seed):
        rng = random.Random(seed)
        table = [rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0]) for _ in range(1 << seed % 7)]
        got = _subset_fold(table[:], largest)
        expected = reference_subset_fold(table, largest)
        assert len(got) == len(expected) and all(map(same_float, got, expected))

    @pytest.mark.parametrize("seed", range(12))
    def test_int_tables(self, seed):
        # The axiom scan's table: a member's size at its mask, -1 elsewhere.
        rng = random.Random(seed)
        table = [rng.choice([-1, -1, 0, 1, 2, 3]) for _ in range(1 << seed % 7)]
        got = _subset_fold(table[:], largest=True)
        assert got == reference_subset_fold(table, largest=True)
        assert all(type(v) is int for v in got)


class TestRatios:
    def test_t3_values(self, t3_function):
        assert submodularity_ratio(t3_function) == 0.5
        assert curvature(t3_function) == 0.5
        assert cumulative_submodularity_ratio(t3_function) == pytest.approx(2 / 3, rel=TOL)

    def test_sp2_values(self, sp2):
        assert submodularity_ratio(sp2) == 0.5
        assert curvature(sp2) == 0.0
        assert cumulative_submodularity_ratio(sp2) == pytest.approx(2 / 3, rel=TOL)

    def test_modular_values(self, modular123):
        assert submodularity_ratio(modular123) == 1.0
        assert curvature(modular123) == 0.0
        assert cumulative_submodularity_ratio(modular123) == 1.0

    def test_single_element_ground_set(self):
        f = SetFunction(1, [0.0, 1.0])
        assert submodularity_ratio(f) == 1.0
        assert curvature(f) == 0.0

    def test_requires_increasing(self):
        f = SetFunction(2, [0, 2, 1, 1])
        for op in (submodularity_ratio, curvature, cumulative_submodularity_ratio):
            with pytest.raises(NonMonotoneError):
                op(f)

    def test_scan_size_cap(self):
        # Only the 3^n cumulative scan is capped below the table cap of 20.
        big = SetFunction(17, [0.0] + [1.0] * ((1 << 17) - 1))
        with pytest.raises(GroundSetTooLargeError, match="cumulative ratio scan is capped at n=16"):
            cumulative_submodularity_ratio(big)

    def test_overflowing_value_range_rejected(self):
        f = SetFunction(1, [-1e308, 1e308])
        for op in (submodularity_ratio, cumulative_submodularity_ratio):
            with pytest.raises(ValueError, match="overflows"):
                op(f)

    def test_witnesses_attain_minima(self, t3_function):
        scan = ratio_scan(t3_function)
        s, r, j = scan.gamma_witness
        vals = t3_function.values
        num = vals[s | 1 << j] - vals[s]
        den = vals[r | 1 << j] - vals[r]
        assert num / den == scan.gamma
        s, r, j = scan.alpha_witness
        num = vals[r | 1 << j] - vals[r]
        den = vals[s | 1 << j] - vals[s]
        assert 1.0 - num / den == scan.alpha

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(increasing_tables())
    def test_matches_independent_oracle(self, f):
        vals = list(f.values)
        assert submodularity_ratio(f) == naive_gamma(vals, f.n)
        assert curvature(f) == naive_alpha(vals, f.n)
        assert cumulative_submodularity_ratio(f) == naive_gamma_cumulative(vals, f.n)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tie_heavy_tables())
    def test_values_and_witnesses_match_direct_scans(self, f):
        vals = list(f.values)
        scan = ratio_scan(f)
        gamma, alpha, g_wit, a_wit = reference_ratio_scan(vals, f.n)
        assert same_float(scan.gamma, gamma) and same_float(scan.alpha, alpha)
        assert (scan.gamma_witness, scan.alpha_witness) == (g_wit, a_wit)
        value, wit = cumulative_ratio_detail(f)
        ref_value, ref_wit = reference_cumulative_scan(vals, f.n)
        assert same_float(value, ref_value) and wit == ref_wit
        assert wit is None or wit[0] & wit[1] == 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(increasing_tables())
    def test_range_and_ordering_invariants(self, f):
        gamma = submodularity_ratio(f)
        alpha = curvature(f)
        assert 0.0 <= gamma <= 1.0
        assert 0.0 <= alpha <= 1.0
        assert gamma <= cumulative_submodularity_ratio(f) + TOL

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(increasing_tables(max_n=4))
    def test_extremes_match_direct_definition_scans(self, f):
        vals = list(f.values)
        assert (submodularity_ratio(f) == 1.0) == is_submodular(vals, f.n)
        assert (curvature(f) == 0.0) == is_supermodular(vals, f.n)

    def test_supermodular_fixture_extremes(self, sp2):
        vals = list(sp2.values)
        assert is_supermodular(vals, 2) and not is_submodular(vals, 2)
        assert curvature(sp2) == 0.0 and submodularity_ratio(sp2) < 1.0


def bounded_values(n, rng):
    """Bounded-marginal table, the formula of ``gen_bounded_marginal`` on the caller's rng."""
    hi = rng.uniform(1.5, 3.0)
    mid, half = (1.0 + hi) / 2.0, (hi - 1.0) / 2.0
    return [0.0] + [mid * m.bit_count() + rng.uniform(0.0, half) for m in range(1, 1 << n)]


def max_plus_values(n, rng):
    """Max-plus table, the formula of ``gen_explicit_random`` on the caller's rng."""
    values = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        best = max(values[mask ^ 1 << j] for j in range(n) if mask >> j & 1)
        values[mask] = best + (1.0 - rng.random())
    return values


def tie_values(kind, n, rng):
    """Increasing table full of equal marginals.

    ``modular``: integer weights, some 0; ``stepped``: integer steps of 0..2
    over the best subset below; ``signed-zero``: stepped, each zero value of
    either sign; ``flat``: every value a zero of either sign;
    ``supermodular``: |S|^2, whose every element has its smallest marginal
    at S = {} and the same marginals at every S of one size.
    """
    size = 1 << n
    if kind == "supermodular":
        return [float(m.bit_count() ** 2) for m in range(size)]
    if kind == "modular":
        weights = [rng.randint(0, 3) for _ in range(n)]
        values = [sum(w for j, w in enumerate(weights) if m >> j & 1) for m in range(size)]
    elif kind in ("stepped", "signed-zero"):
        values = [0] * size
        for mask in range(1, size):
            below = max(values[mask ^ 1 << j] for j in range(n) if mask >> j & 1)
            values[mask] = below + rng.choice([0, 0, 1, 2])
    else:
        values = [0] * size
    if kind in ("signed-zero", "flat"):
        return [-0.0 if v == 0 and rng.random() < 0.5 else float(v) for v in values]
    return [float(v) for v in values]


def benchmark_suite(seed):
    """The ``verify-batch`` benchmark's instances: the first 4 of each n in 10..12."""
    suite = random_suite(60, 10, 12, seed)
    return [inst for n in (10, 11, 12) for inst in [i for i in suite if i.n == n][:4]]


@pytest.fixture
def fold_calls(monkeypatch):
    calls = []
    fold = setfunc._subset_fold

    def counting_fold(table, largest):
        calls.append(largest)
        return fold(table, largest)

    monkeypatch.setattr(setfunc, "_subset_fold", counting_fold)
    return calls


@pytest.fixture
def sort_sizes(monkeypatch):
    """Lengths of the lists the ratio scan hands to ``sorted``."""
    sizes = []

    def counting_sorted(items, **kwargs):
        out = sorted(items, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(setfunc, "sorted", counting_sorted, raising=False)
    return sizes


class TestPrunedRatioScan:
    @pytest.mark.parametrize("kind", ["bounded", "max-plus"])
    @pytest.mark.parametrize("n", range(10, 15))
    def test_matches_fold_scan(self, fold_calls, kind, n):
        # No fold runs, so the pruned path alone must give the fold's answer.
        for seed in range(2):
            rng = random.Random(f"{kind}-{n}-{seed}")
            make = bounded_values if kind == "bounded" else max_plus_values
            f = SetFunction(n, make(n, rng))
            scan = ratio_scan(f)
            assert fold_calls == []
            assert repr(scan) == repr(reference_fold_ratio_scan(f.values, n))
            fold_calls.clear()

    @pytest.mark.parametrize("seed", [1, 20211003])
    def test_matches_fold_scan_on_benchmark_suites(self, fold_calls, seed):
        for inst in benchmark_suite(seed):
            f = SetFunction(inst.n, inst.function.values)
            scan = ratio_scan(f)
            assert fold_calls == [], inst.id
            assert repr(scan) == repr(reference_fold_ratio_scan(f.values, f.n)), inst.id
            fold_calls.clear()

    @pytest.mark.parametrize("kind", ["modular", "stepped", "signed-zero", "flat", "supermodular"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_tie_heavy_tables_match_direct_scan(self, kind, n):
        rng = random.Random(f"{kind}-{n}")
        f = SetFunction(n, tie_values(kind, n, rng))
        scan = ratio_scan(f)
        gamma, alpha, g_wit, a_wit = reference_ratio_scan(list(f.values), n)
        assert same_float(scan.gamma, gamma) and same_float(scan.alpha, alpha)
        assert (scan.gamma_witness, scan.alpha_witness) == (g_wit, a_wit)

    @pytest.mark.parametrize("hi", [1.5, 2.0, 3.0])
    def test_bounded_tables_need_no_fold(self, fold_calls, hi):
        for seed in range(3):
            ratio_scan(gen_bounded_marginal(12, 1.0, hi, seed))
        assert fold_calls == []

    def test_modular_table_falls_back_to_folds(self, fold_calls):
        f = gen_modular(8, range(1, 9))
        scan = ratio_scan(f)
        assert len(fold_calls) >= f.n
        assert (scan.gamma, scan.alpha) == (1.0, 0.0)
        assert (scan.gamma_witness, scan.alpha_witness) == reference_ratio_scan(f.values, 8)[2:]

    def test_tie_at_the_running_minimum_still_walks(self):
        # Elements 0 and 1 are symmetric, each with min / max marginal 1 / 2.
        # Element 0 attains 0.5 as both its gamma and its alpha ratio, so at
        # element 1 the larger running minimum equals its min / max; element
        # 1 attains gamma = 0.5 at R = {0}, before element 0's R = {1}, so an
        # element skipped on an equal min / max would report (0, 2, 0).
        f = SetFunction(3, [0.0, 1.0, 1.0, 3.0, 1.0, 2.5, 2.5, 3.5])
        scan = ratio_scan(f)
        assert scan.gamma_witness == (0, 1, 1)
        fields = (scan.gamma, scan.alpha, scan.gamma_witness, scan.alpha_witness)
        assert repr(fields) == repr(reference_ratio_scan(f.values, 3))

    @pytest.mark.parametrize("scale", [1e-310, 1e300])
    def test_scaled_bounded_tables_match_both_references(self, sort_sizes, scale):
        # Subnormal and near-overflow marginals: the cuts must still keep
        # every index a walk reaches, and only the first element sorts all.
        for n in (5, 8, 11):
            rng = random.Random(f"scaled-{n}")
            f = SetFunction(n, [x * scale for x in bounded_values(n, rng)])
            sort_sizes.clear()
            scan = ratio_scan(f)
            assert sort_sizes.count(1 << (n - 1)) == 1
            assert repr(scan) == repr(reference_fold_ratio_scan(f.values, n))
            if n <= 8:
                fields = (scan.gamma, scan.alpha, scan.gamma_witness, scan.alpha_witness)
                assert repr(fields) == repr(reference_ratio_scan(f.values, n))

    def test_picked_lists_start_with_every_index_a_walk_can_reach(self):
        rng = random.Random("reach")
        # 5e-324 * 3.0 rounds down to 3 ulps, which fails the cut check: 4 ulps
        # divided by 3.0 still rounds to 5e-324, so 4 ulps must be kept.
        cases = [([4 * 5e-324, 3.0, 1.0, 2.0], 5e-324)]
        for scale in (1.0, 1e-310, 1e300):
            for _ in range(30):
                d = [rng.uniform(1.0, 2.0) * scale for _ in range(64)]
                cases.append((d, min(d) / max(d) * rng.uniform(1.0, 1.1)))
        for d, bound in cases:
            low, high = min(d), max(d)
            rising, falling = setfunc._walk_orders(d, low, high, bound)
            order = sorted(range(len(d)), key=d.__getitem__)
            reach = [i for i in order if d[i] / high <= bound]
            assert rising[: len(reach)] == reach
            reach = [i for i in reversed(order) if low / d[i] <= bound]
            assert falling[: len(reach)] == reach
        # Where picking buys nothing (b infinite, b >= 1, a zero marginal),
        # the lists are the full orders: every index ascending, and the
        # positive entries descending.
        positive = [rng.uniform(1.0, 2.0) for _ in range(64)]
        zero = [2.0, 0.0, 1.0, 0.0, 3.0, 1.0]
        for d, bound in [(positive, math.inf), (positive, 1.0), (positive, 1.5), (zero, 0.5)]:
            order = sorted(range(len(d)), key=d.__getitem__)
            falling = [i for i in reversed(order) if d[i] > 0.0]
            assert setfunc._walk_orders(d, min(d), max(d), bound) == (order, falling)

    def test_picked_lists_cost_the_walks_no_more_than_full_orders(self, fold_calls):
        # A walk over the picked lists makes at most the pair tests it makes
        # over the full orders, so it does not fold where the full walk does
        # not, and both give the same minimum and first R.
        n = 9
        vals = tuple(bounded_values(n, random.Random("picked-walks")))
        firsts = [(math.inf, -1), (math.inf, -1)]
        picked_walks = 0

        def folds(lists, budget, curvature):
            fold_calls.clear()
            setfunc._element_min(firsts[curvature], d, *lists, j, budget, curvature)
            return bool(fold_calls)

        for j in range(n):
            d = setfunc._marginals(vals, j)
            low, high = min(d), max(d)
            bound = max(firsts[0][0], firsts[1][0])
            if low / high > bound:
                continue
            full = setfunc._walk_orders(d, low, high, math.inf)
            picked = setfunc._walk_orders(d, low, high, bound)
            for curvature in (False, True):
                # The smallest budget at which the full-order walk does not fold.
                lo, hi = 0, 4 << n
                while lo < hi:
                    mid = (lo + hi) // 2
                    lo, hi = (mid + 1, hi) if folds(full, mid, curvature) else (lo, mid)
                assert not folds(picked, lo, curvature)
                args = (firsts[curvature], d)
                new_first = setfunc._element_min(*args, *full, j, lo, curvature)
                assert setfunc._element_min(*args, *picked, j, lo, curvature) == new_first
                firsts[curvature] = new_first
                picked_walks += len(picked[0]) < len(d)
        assert picked_walks, "no walk ran on picked lists"

    @pytest.mark.parametrize("hi", [1.5, 2.0, 3.0])
    def test_bounded_tables_sort_one_element_in_full(self, sort_sizes, hi):
        for seed in range(3):
            sort_sizes.clear()
            ratio_scan(gen_bounded_marginal(12, 1.0, hi, seed))
            assert sort_sizes.count(1 << 11) <= 1

    def test_scan_settles_monotonicity_from_its_own_marginals(self, monkeypatch):
        f = SetFunction(9, tie_values("stepped", 9, random.Random(5)))
        calls = []
        marginals = setfunc._marginals

        def counting_marginals(vals, j):
            calls.append(j)
            return marginals(vals, j)

        monkeypatch.setattr(setfunc, "_marginals", counting_marginals)
        ratio_scan(f)
        report = check_monotone(f)
        assert calls == list(range(9))
        expected = reference_monotone(list(f.values), 9)
        assert (report.increasing, report.strictly_increasing, report.witness) == expected

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.one_of(tie_heavy_tables(), small_int_tables()))
    def test_scan_report_matches_direct_scan(self, f):
        try:
            ratio_scan(f)
        except NonMonotoneError:
            pass
        report = f._monotone
        expected = reference_monotone(list(f.values), f.n)
        assert (report.increasing, report.strictly_increasing, report.witness) == expected

    def test_known_non_increasing_table_fails_before_any_list(self, monkeypatch):
        f = SetFunction(2, [0.0, 1.0, 2.0, 0.5])
        assert not check_monotone(f).increasing
        calls = []
        monkeypatch.setattr(setfunc, "_marginals", lambda vals, j: calls.append(j))
        with pytest.raises(NonMonotoneError, match=r"adding element 1 to \[0\]"):
            ratio_scan(f)
        assert calls == []

    def test_marginal_pass_yields_each_list_then_settles(self):
        f = SetFunction(9, tie_values("stepped", 9, random.Random(5)))
        yielded = []
        for j, d, low, high in setfunc._scan_monotone(f):
            assert f._monotone is None
            assert repr(d) == repr(setfunc._marginals(f.values, j))
            assert (low, high) == (min(d), max(d))
            yielded.append(j)
        assert yielded == list(range(9))
        report = f._monotone
        expected = reference_monotone(list(f.values), 9)
        assert (report.increasing, report.strictly_increasing, report.witness) == expected
        lists = [setfunc._marginals(f.values, j) for j in range(9)]
        assert f._extremes == [(min(d), max(d)) for d in lists]

    @pytest.mark.parametrize("scan", [check_monotone, ratio_scan])
    def test_one_marginal_list_alive_at_a_time(self, monkeypatch, scan):
        # What keeps the peak memory of an n=20 scan at one list of 2^19 floats.
        class Tracked(list):
            pass

        built = []
        marginals = setfunc._marginals

        def tracked_marginals(vals, j):
            assert all(ref() is None for ref in built), f"a list is alive when list {j} is built"
            d = Tracked(marginals(vals, j))
            built.append(weakref.ref(d))
            return d

        monkeypatch.setattr(setfunc, "_marginals", tracked_marginals)
        scan(gen_bounded_marginal(8, 1.0, 2.0, 3))
        assert len(built) == 8

    @pytest.mark.parametrize("known", [False, True])
    def test_non_monotone_error_comes_before_the_range_error(self, known):
        # Adding element 1 to {0} decreases f, and f(V) - f(empty) overflows.
        f = SetFunction(2, [-1e308, 1.5e308, 0.0, 1e308])
        if known:
            check_monotone(f)
        with pytest.raises(NonMonotoneError, match=r"adding element 1 to \[0\]"):
            ratio_scan(f)
        increasing = SetFunction(2, [-1e308, 0.0, 0.0, 1e308])
        if known:
            check_monotone(increasing)
        with pytest.raises(ValueError, match="overflows"):
            ratio_scan(increasing)


def zero_marginal_values(n, rng):
    """Bounded-marginal table that ignores a random set of elements: zero marginals."""
    values = bounded_values(n, rng)
    dead = rng.getrandbits(n)
    return [values[m & ~dead] for m in range(1 << n)]


def rank_values(n, rng):
    """Rank of a uniform matroid: marginals 1 below the rank, 0 from it on."""
    rank = rng.randint(1, n)
    return [float(min(m.bit_count(), rank)) for m in range(1 << n)]


def concave_values(n, rng):
    """|S|^p for p < 1: every sum of two or more marginals exceeds the set marginal."""
    power = rng.uniform(0.2, 0.9)
    return [m.bit_count() ** power for m in range(1 << n)]


def spread_values(make):
    """``make``'s tables mapped onto [-8e307, 8e307]: sums of marginals may overflow."""

    def spread(n, rng):
        values = make(n, rng)
        return [v / values[-1] * 1.6e308 - 8e307 for v in values]

    return spread


def scaled_values(make, scale):
    """``make``'s tables times ``scale``: subnormal or huge marginals."""
    return lambda n, rng: [v * scale for v in make(n, rng)]


#: Table makers for the cumulative scan, by name: (n, rng) -> values.
CUMULATIVE_FAMILIES = {
    "bounded": bounded_values,
    "max-plus": max_plus_values,
    "zero-marginal": zero_marginal_values,
    "rank": rank_values,
    "concave": concave_values,
}
for _kind in ("modular", "stepped", "signed-zero", "flat"):
    CUMULATIVE_FAMILIES[_kind] = functools.partial(tie_values, _kind)
for _name in ("bounded", "max-plus"):
    _make = CUMULATIVE_FAMILIES[_name]
    CUMULATIVE_FAMILIES[f"{_name}-x1e-310"] = scaled_values(_make, 1e-310)
    CUMULATIVE_FAMILIES[f"{_name}-x1e300"] = scaled_values(_make, 1e300)
    CUMULATIVE_FAMILIES[f"{_name}-spread"] = spread_values(_make)


def level_maxima(vals, n):
    return [max(v for m, v in enumerate(vals) if m.bit_count() == k) for k in range(n + 1)]


def subset_ratios(vals, n, small):
    """(|R|, ratio) for every pair (S, R) of S = small with a positive set marginal.

    The ratio is computed as the scan computes it: the marginals of R's
    elements added in ascending element order, over f(S | R) - f(S).
    """
    base = vals[small]
    out = []
    for other in submasks(((1 << n) - 1) ^ small):
        total = 0.0
        for j in elements(other):
            total += vals[small | 1 << j] - base
        denom = vals[small | other] - base
        if denom > 0.0:
            out.append((other.bit_count(), total / denom))
    return out


@pytest.fixture
def expansions(monkeypatch):
    """Per scan, the S whose pairs the cumulative scan expanded."""
    expanded = []
    cannot_lower = setfunc._cannot_lower

    def counting(vals, small, *args):
        skip = cannot_lower(vals, small, *args)
        if not skip:
            expanded.append(small)
        return skip

    monkeypatch.setattr(setfunc, "_cannot_lower", counting)
    return expanded


class TestCumulativeScan:
    @pytest.mark.parametrize("family", sorted(CUMULATIVE_FAMILIES))
    def test_matches_reference_scan(self, family):
        for n in range(1, 8):
            rng = random.Random(f"cumulative-{family}-{n}")
            f = SetFunction(n, CUMULATIVE_FAMILIES[family](n, rng))
            expected = reference_cumulative_scan(f.values, n)
            assert repr(cumulative_ratio_detail(f)) == repr(expected), (family, n)

    def test_subnormal_minimum(self, expansions):
        # f({0}) and f({1}) sit 1e-310 above f(empty): the pair (empty, {0, 1})
        # has a subnormal ratio, and below the smallest normal float no S is skipped.
        n = 7
        values = bounded_values(n, random.Random("subnormal"))
        values[1] = values[2] = 1e-310
        f = SetFunction(n, values)
        value, wit = cumulative_ratio_detail(f)
        assert 0.0 < value < sys.float_info.min and wit == (0, 3)
        assert repr((value, wit)) == repr(reference_cumulative_scan(f.values, n))
        assert len(expansions) == 1 << n

    @pytest.mark.parametrize("seed", range(4))
    def test_bounded_tables_expand_few_subsets(self, expansions, seed):
        f = gen_bounded_marginal(10, 1.0, 2.0, seed)
        cumulative_ratio_detail(f)
        assert len(expansions) <= (1 << 10) // 10

    @pytest.mark.parametrize("family", ["bounded", "max-plus", "concave", "zero-marginal"])
    def test_skips_change_nothing_at_larger_n(self, monkeypatch, family):
        make = CUMULATIVE_FAMILIES[family]
        tables = [SetFunction(n, make(n, random.Random(f"large-{family}-{n}"))) for n in (9, 11)]
        pruned = [cumulative_ratio_detail(f) for f in tables]
        monkeypatch.setattr(setfunc, "_cannot_lower", lambda *args: False)
        assert repr(pruned) == repr([cumulative_ratio_detail(f) for f in tables])

    def test_neither_skip_changes_anything_at_larger_n(self, monkeypatch):
        tables = [
            SetFunction(n, CUMULATIVE_FAMILIES[family](n, random.Random(f"both-{family}-{n}")))
            for family in ("bounded", "max-plus", "concave", "zero-marginal")
            for n in (9, 11)
        ]
        for family in ("bounded", "bounded-spread"):
            tables.append(SetFunction(12, CUMULATIVE_FAMILIES[family](12, random.Random(family))))
        pruned = [cumulative_ratio_detail(f) for f in tables]
        monkeypatch.setattr(setfunc, "_subset_bounds", lambda vals, *args: [0.0] * len(vals))
        monkeypatch.setattr(setfunc, "_cannot_lower", lambda *args: False)
        assert repr(pruned) == repr([cumulative_ratio_detail(f) for f in tables])

    @pytest.mark.parametrize("seed", range(4))
    def test_level_bound_leaves_few_subsets_to_the_per_subset_test(self, monkeypatch, seed):
        reached = []
        cannot_lower = setfunc._cannot_lower

        def counting(vals, small, *args):
            reached.append(small)
            return cannot_lower(vals, small, *args)

        monkeypatch.setattr(setfunc, "_cannot_lower", counting)
        cumulative_ratio_detail(gen_bounded_marginal(12, 1.0, 2.0, seed))
        assert len(reached) <= (1 << 12) // 20

    @pytest.mark.parametrize("n", [6, 10])
    def test_modular_tables_expand_every_subset(self, expansions, n):
        cumulative_ratio_detail(gen_modular(n, [1.0 + 0.37 * j for j in range(n)]))
        assert sorted(expansions) == list(range(1 << n))

    @pytest.mark.parametrize("seed", range(4))
    def test_bounded_tables_expand_few_pairs(self, expansions, seed):
        # The pairs of the expanded S, 2^|V \ S| each. Visited in ascending
        # mask order, the empty set and the other low masks took 16,089 to
        # 23,273 of them on these tables.
        cumulative_ratio_detail(gen_bounded_marginal(12, 1.0, 2.0, seed))
        assert sum(1 << (12 - small.bit_count()) for small in expansions) <= 8192

    @pytest.mark.parametrize(
        "values",
        [
            [float(m.bit_count() + (m >> 2 & 1)) for m in range(16)],
            concave_values(5, random.Random("singleton-minimum")),
        ],
    )
    def test_singleton_pairs_at_one_keep_the_first_binding_pair(self, expansions, values):
        # The minimum is exactly 1.0, and the first S visited is V - j, with
        # theta 0.0 and only singleton pairs, each at 1.0: the witness must
        # stay (empty, {0}), the first binding pair of all.
        n = len(values).bit_length() - 1
        f = SetFunction(n, values)
        result = cumulative_ratio_detail(f)
        assert result == (1.0, (0, 1)) and expansions[0] != 0
        assert repr(result) == repr(reference_cumulative_scan(f.values, n))

    def test_equal_minima_keep_the_smaller_subset(self, expansions):
        # S = {0} and S = {2} both attain the minimum 0.5 bit for bit, and
        # {2} has the smaller theta, so it is expanded first.
        values = [0, 2, 4, 5, 2, 4, 5, 7, 1, 4, 8, 12, 3, 8, 9, 13]
        f = SetFunction(4, [float(v) for v in values])
        result = cumulative_ratio_detail(f)
        assert result == (0.5, (1, 10))
        assert expansions.index(4) < expansions.index(1)
        assert repr(result) == repr(reference_cumulative_scan(f.values, 4))

    def test_zero_minimum_returns_at_the_first_binding_pair(self, expansions):
        # f({0}) = f({1}) = f(empty), so (empty, {0, 1}) binds first, at ratio
        # +0.0, which no pair can undercut: no S is expanded.
        values = bounded_values(6, random.Random("zero-minimum"))
        values[1] = values[2] = values[0]
        f = SetFunction(6, values)
        result = cumulative_ratio_detail(f)
        assert repr(result) == repr((0.0, (0, 3))) and expansions == []
        assert repr(result) == repr(reference_cumulative_scan(f.values, 6))

    def test_skip_is_exact(self):
        # Whenever the per-S test skips S at a running minimum b, every pair
        # with |R| >= 2 has a ratio above b and every singleton one at least b.
        # b runs over every ratio of S and the float just above it, points just
        # below S's smallest ratio, 1, values above 1, zero and subnormals.
        # The tables include one whose element-order sum 1.387 + 1.357 + 1.12
        # reads one ulp below the sorted sum the bound adds, so only the
        # margin keeps (empty, V), at ratio 1.0 exactly, from being skipped
        # at b = 1.
        assert 1.12 + 1.357 + 1.387 > 1.387 + 1.357 + 1.12
        tables = [[0.0, 1.387, 1.357, 2.0, 1.12, 2.0, 2.0, 1.387 + 1.357 + 1.12]]
        for family, make in sorted(CUMULATIVE_FAMILIES.items()):
            for n in (3, 4, 6):
                tables.append(make(n, random.Random(f"skip-{family}-{n}")))
        skips = 0
        for values in tables:
            n = len(values).bit_length() - 1
            vals = SetFunction(n, values).values
            bits = [1 << j for j in range(n)]
            tops = level_maxima(vals, n)
            for small in range(1 << n):
                ratios = subset_ratios(vals, n, small)
                bests = {0.0, 5e-324, 1e-310, 0.5, 1.0, 1.5}
                for _, r in ratios:
                    bests |= {r, math.nextafter(r, 2.0)}
                if ratios:
                    low = min(r for _, r in ratios)
                    bests |= {math.nextafter(low, 0.0), low * (1.0 - 1e-8), low * 0.99}
                for best in bests:
                    rest = ((1 << n) - 1) ^ small
                    if setfunc._cannot_lower(vals, small, rest, bits, tops, best):
                        skips += 1
                        assert all(r > best if k > 1 else r >= best for k, r in ratios)
        assert skips > 1000

    def test_level_bound_skip_is_exact(self):
        # Whenever the whole-table bound theta(S) skips S at a running minimum
        # b, every pair with |R| >= 2 has a ratio above b and every singleton
        # one at least b, on the tables and minima of test_skip_is_exact, and
        # on integer tables in units of the smallest subnormal, where halving
        # and the slopes of level_max round by up to half their value.
        tables = [[0.0, 1.387, 1.357, 2.0, 1.12, 2.0, 2.0, 1.387 + 1.357 + 1.12]]
        for family, make in sorted(CUMULATIVE_FAMILIES.items()):
            for n in (3, 4, 6):
                tables.append(make(n, random.Random(f"skip-{family}-{n}")))
                if family in ("bounded", "concave", "max-plus", "stepped"):
                    tables.append([round(3.0 * v) * 5e-324 for v in tables[-1]])
        skips = 0
        for values in tables:
            n = len(values).bit_length() - 1
            vals = SetFunction(n, values).values
            levels = [m.bit_count() for m in range(1 << n)]
            bounds = setfunc._subset_bounds(vals, levels, level_maxima(vals, n))
            for small in range(1 << n):
                ratios = subset_ratios(vals, n, small)
                bests = {0.0, 5e-324, 1e-310, 0.5, 1.0, 1.5}
                for _, r in ratios:
                    bests |= {r, math.nextafter(r, 2.0)}
                if ratios:
                    low = min(r for _, r in ratios)
                    bests |= {math.nextafter(low, 0.0), low * (1.0 - 1e-8), low * 0.99}
                for best in bests:
                    if bounds[small] > setfunc._skip_cut(best):
                        skips += 1
                        assert all(r > best if k > 1 else r >= best for k, r in ratios)
        assert skips > 1000


class TestMarginalBounds:
    def test_t3(self, t3_function):
        bounds, gamma_lb, alpha_ub = marginal_bounds_estimate(t3_function)
        assert (bounds.lower, bounds.upper) == (1.0, 2.0)
        assert gamma_lb == 0.5 and alpha_ub == 0.5

    def test_sp2_loose_on_alpha(self, sp2):
        bounds, gamma_lb, alpha_ub = marginal_bounds_estimate(sp2)
        assert (bounds.lower, bounds.upper) == (1.0, 2.0)
        assert alpha_ub == 0.5 and curvature(sp2) == 0.0

    def test_equal_weights_modular(self):
        f = gen_modular(3, [2, 2, 2])
        bounds, gamma_lb, alpha_ub = marginal_bounds_estimate(f)
        assert bounds.lower == bounds.upper == 2.0
        assert gamma_lb == 1.0 and alpha_ub == 0.0

    def test_requires_strict(self):
        with pytest.raises(NotStrictlyIncreasingError):
            marginal_bounds_estimate(constant_function(2))

    def test_reads_the_extremes_of_the_monotonicity_scan(self, monkeypatch):
        # The scan that settles monotonicity keeps each element's extremes, so
        # the estimate builds no marginal list of its own.
        calls = []
        marginals = setfunc._marginals

        def counting_marginals(vals, j):
            calls.append(j)
            return marginals(vals, j)

        monkeypatch.setattr(setfunc, "_marginals", counting_marginals)
        values = gen_bounded_marginal(6, 0.5, 2.0, 5).values
        expected = marginal_bounds_estimate(SetFunction(6, values))
        assert calls == list(range(6))
        f = SetFunction(6, values)
        ratio_scan(f)
        del calls[:]
        assert marginal_bounds_estimate(f) == expected
        assert calls == []

    def test_overflowing_value_range_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            marginal_bounds_estimate(SetFunction(1, [-1e308, 1e308]))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(increasing_tables())
    def test_bounds_bracket_true_ratios(self, f):
        _, gamma_lb, alpha_ub = marginal_bounds_estimate(f)
        assert gamma_lb <= submodularity_ratio(f) + TOL
        assert alpha_ub >= curvature(f) - TOL


class TestComplement:
    def test_t3_table(self, t3_function):
        fhat = complement_function(t3_function)
        expected = [-4.0, -3.0, -3.0, -1.0, -3.0, -1.0, -2.0, -0.0]
        assert list(map(float.hex, fhat.values)) == list(map(float.hex, expected))

    def test_t3_swapped_ratios(self, t3_function):
        fhat = complement_function(t3_function)
        assert submodularity_ratio(fhat) == 0.5
        assert curvature(fhat) == 0.5

    def test_modular_complement(self, modular123):
        fhat = complement_function(modular123)
        assert submodularity_ratio(fhat) == 1.0
        assert curvature(fhat) == 0.0

    def test_involution(self, t3_function):
        twice = complement_function(complement_function(t3_function))
        assert twice.values == t3_function.values

    def test_requires_increasing(self):
        with pytest.raises(NonMonotoneError):
            complement_function(SetFunction(2, [0, 2, 1, 1]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(increasing_tables())
    def test_ratio_curvature_swap_identity(self, f):
        fhat = complement_function(f)
        assert check_monotone(fhat).increasing
        assert abs(submodularity_ratio(fhat) - (1.0 - curvature(f))) <= 1e-12
        assert abs(curvature(fhat) - (1.0 - submodularity_ratio(f))) <= 1e-12
