import math
from concurrent.futures import ThreadPoolExecutor

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
from matroid_greedy.instances import gen_modular
from matroid_greedy.setfunc import cumulative_ratio_detail

from conftest import constant_function
from oracles import (
    is_submodular,
    is_supermodular,
    naive_alpha,
    naive_gamma,
    naive_gamma_cumulative,
    reference_cumulative_scan,
    reference_ratio_scan,
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
    negative_zero = draw(st.lists(st.booleans(), min_size=size, max_size=size))
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
        with pytest.raises(ValueError):
            SetFunction(21, [0.0] * (1 << 21))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_rejects_non_finite_values(self, bad):
        # [0, NaN, 1, 2] used to pass every scan as a "perfect" function.
        with pytest.raises(ValueError, match="finite"):
            SetFunction(2, [0, bad, 1, 2])

    def test_finite_values_with_overflowing_sum_accepted(self):
        f = SetFunction(2, [0.0, 1e308, 1e308, 1.5e308])
        assert f.values[3] == 1.5e308

    def test_monotonicity_report_computed_once(self, t3_function):
        assert check_monotone(t3_function) is check_monotone(t3_function)

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


class TestMarginals:
    def test_marginal_examples(self, t3_function):
        assert t3_function.marginal(0, 0) == 2.0
        assert t3_function.marginal(mask_of([1, 2]), 0) == 1.0
        assert t3_function.marginal(mask_of([0, 2]), 0) == 0.0

    def test_marginal_element_range(self, t3_function):
        with pytest.raises(ValueError):
            t3_function.marginal(0, 3)

    def test_set_marginal_examples(self, t3_function):
        assert t3_function.set_marginal(0, mask_of([1, 2])) == 3.0
        assert t3_function.set_marginal(mask_of([2]), mask_of([0, 1])) == 3.0
        assert t3_function.set_marginal(mask_of([0, 1]), mask_of([1])) == 0.0

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
        big = SetFunction(17, [0.0] + [1.0] * ((1 << 17) - 1))
        with pytest.raises(GroundSetTooLargeError):
            submodularity_ratio(big)

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

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(increasing_tables())
    def test_bounds_bracket_true_ratios(self, f):
        _, gamma_lb, alpha_ub = marginal_bounds_estimate(f)
        assert gamma_lb <= submodularity_ratio(f) + TOL
        assert alpha_ub >= curvature(f) - TOL


class TestComplement:
    def test_t3_table(self, t3_function):
        fhat = complement_function(t3_function)
        assert fhat.values == (-4.0, -3.0, -3.0, -1.0, -3.0, -1.0, -2.0, -0.0)

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
