"""Metamorphic relations of the ratio scans, checked without a reference scan.

Each relation compares the library with itself on a transformed table:
relabeling the elements, scaling the values by a power of two, and the
reflection S -> -f(V \\ S). No oracle enumerates the pairs, so the same
relations can run at any n the scans take; here n <= 8 keeps each example
fast. The tables are the tie-heavy ones of ``test_setfunc`` (small-integer
steps, modular and constant, zeros of either sign) and its bounded-marginal
ones, drawn from a seeded rng. Two fixed-seed tables at n=17, past every
oracle, are checked under relabeling and scaling too, and under relabeling
of the matroid with them, brute force and both greedy passes.
"""

import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from matroid_greedy import (
    GraphicSpec,
    PartitionSpec,
    SetFunction,
    UniformSpec,
    brute_force_optimum,
    build_matroid,
    complement_function,
    forward_greedy,
    ratio_scan,
    reverse_greedy,
)
from matroid_greedy.instances import gen_bounded_marginal, gen_explicit_random
from matroid_greedy.setfunc import cumulative_ratio_detail, strong_curvature_detail
from matroid_greedy.subsets import elements

from test_setfunc import bounded_values, tie_heavy_tables

#: The unit roundoff of a double.
U = 2.0 ** -53

MAX_N = 8

#: Bounded-marginal tables. Their noise comes from a seeded rng, so two
#: distinct (S, R, j) triples have equal ratios only by a chance that no
#: example meets: these tables are tie-free below a ratio of 1.
BOUNDED = st.builds(
    lambda n, seed: SetFunction(n, bounded_values(n, random.Random(seed))),
    st.integers(1, MAX_N),
    st.integers(0, 2**32),
)
TABLES = st.one_of(tie_heavy_tables(max_n=MAX_N), BOUNDED)


@st.composite
def relabelings(draw, tables):
    """A table and a permutation of its elements."""
    f = draw(tables)
    return f, draw(st.permutations(range(f.n)))


def image(mask, perm):
    """The mask whose elements are perm[i] for each element i of ``mask``."""
    out = 0
    for i in elements(mask):
        out |= 1 << perm[i]
    return out


def relabeled(f, perm):
    """S -> f(perm(S)): element i of the result is element perm[i] of f.

    Each marginal of the result at (S, i) is f's at (perm(S), perm[i]), the
    same subtraction of the same two floats, so the two functions have the
    same ratios at corresponding triples. Element i appends to the images of
    the masks below 2^i their unions with perm[i]: one pass per element.
    """
    images = [0]
    for i in range(f.n):
        bit = 1 << perm[i]
        images += [mask | bit for mask in images]
    return SetFunction(f.n, list(map(f.values.__getitem__, images)))


def mapped(witness, perm):
    """A witness of the relabeled function as the triple of f it reads."""
    small, big, j = witness
    return image(small, perm), image(big, perm), perm[j]


def hexes(scan):
    return scan.gamma.hex(), scan.alpha.hex()


class TestRelabeling:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(relabelings(TABLES))
    def test_gamma_and_alpha_bit_identical(self, case):
        f, perm = case
        got, want = ratio_scan(relabeled(f, perm)), ratio_scan(f)
        if any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in f.values):
            # A -0.0 in the table can make a zero marginal, and so a zero
            # ratio, of either sign. A zero gamma takes the sign of its first
            # witness, and relabeling reorders the witnesses.
            assert (got.gamma, got.alpha) == (want.gamma, want.alpha)
        else:
            assert hexes(got) == hexes(want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(relabelings(BOUNDED))
    def test_tie_free_witnesses_map(self, case):
        # Below a ratio of 1 the minimum is off the S = R triples, whose
        # ratios are all exactly 1, so one triple attains it in each table.
        f, perm = case
        got, want = ratio_scan(relabeled(f, perm)), ratio_scan(f)
        if want.gamma < 1.0:
            assert mapped(got.gamma_witness, perm) == want.gamma_witness
        if want.alpha > 0.0:
            assert mapped(got.alpha_witness, perm) == want.alpha_witness

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(relabelings(TABLES))
    def test_cumulative_ratio_within_its_rounding(self, case):
        # A pair's denominator is the same float under relabeling, and its
        # numerator adds the same nonnegative marginals in another order.
        # By the cumulative_ratio_detail docstring each such sum is within a
        # factor 1 +- 16u of the exact one, so each ratio, after its own
        # rounded division, and with it the minimum, moves by a factor of at
        # most (1 + 16u) / (1 - 16u) * (1 + u) / (1 - u) < 1 + 35u.
        f, perm = case
        got = cumulative_ratio_detail(relabeled(f, perm))[0]
        want = cumulative_ratio_detail(f)[0]
        assert abs(got - want) <= 35 * U * max(got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(TABLES, st.integers(-2, 3))
def test_scaling_by_a_power_of_two_changes_nothing(f, k):
    # Every value and every marginal is scaled exactly, so every ratio is
    # the same float: the values, witnesses and zeros' signs all stay.
    scaled = SetFunction(f.n, [math.ldexp(v, k) for v in f.values])
    got, want = ratio_scan(scaled), ratio_scan(f)
    assert hexes(got) == hexes(want)
    assert (got.gamma_witness, got.alpha_witness) == (want.gamma_witness, want.alpha_witness)


@functools.cache
def large(kind):
    """A fixed-seed n=17 table: positive but for f(empty) = +0.0, so no -0.0."""
    if kind == "bounded":
        return gen_bounded_marginal(17, 1.0, 3.0, seed=17)
    return gen_explicit_random(17, seed=17)


def curvature_image(detail, perm):
    """A strong-curvature witness of the relabeled function as the one of f it reads."""
    j, at_max, at_min = detail[3]
    return detail[0].hex(), (perm[j], image(at_max, perm), image(at_min, perm))


#: Rank-8 specs on 17 elements: 24,310 bases of the uniform one, 2,160 of
#: the partition one (element i in block i mod 4) and 6,653 spanning trees
#: of a 9-cycle with 8 chords.
SPECS_N17 = {
    "uniform": UniformSpec(8),
    "partition": PartitionSpec([range(b, 17, 4) for b in range(4)], [2, 2, 2, 2]),
    "graphic": GraphicSpec(9, [(v, (v + 1) % 9) for v in range(9)] + [
        (0, 2), (0, 4), (1, 5), (2, 6), (3, 7), (4, 8), (1, 7), (3, 6),
    ]),
}


def relabeled_spec(spec, perm):
    """The spec whose element i is element perm[i] of ``spec``, as ``relabeled`` does for f."""
    if isinstance(spec, UniformSpec):
        return spec
    if isinstance(spec, PartitionSpec):
        inv = {e: i for i, e in enumerate(perm)}
        return PartitionSpec([sorted(inv[e] for e in b) for b in spec.blocks], spec.capacities)
    return GraphicSpec(spec.vertices, [spec.edges[p] for p in perm])


def trace_image(trace, perm):
    """A trace of the relabeled instance as the picks, marginals, sets and rejections of f's."""
    return (
        [(s.t, perm[s.chosen], s.marginal.hex(), image(s.set_after, perm)) for s in trace.steps],
        [(r.before_step, perm[r.element]) for r in trace.rejected],
        image(trace.final_set, perm),
    )


@pytest.mark.parametrize("kind", ["bounded", "max-plus"])
class TestAtN17:
    """Relabeling and scaling on tables no oracle reaches, where the scans pick or fold.

    Their random values make every ratio below 1 and every element's
    curvature ratio tie-free, so each witness is one triple and must map.
    """

    def test_relabeling_maps_every_witness(self, kind):
        f = large(kind)
        perm = random.Random(17).sample(range(17), 17)
        g = relabeled(f, perm)
        got, want = ratio_scan(g), ratio_scan(f)
        assert want.gamma < 1.0 and want.alpha > 0.0
        assert hexes(got) == hexes(want)
        assert mapped(got.gamma_witness, perm) == want.gamma_witness
        assert mapped(got.alpha_witness, perm) == want.alpha_witness
        want_c = strong_curvature_detail(f)
        assert curvature_image(strong_curvature_detail(g), perm) == (want_c[0].hex(), want_c[3])

    @pytest.mark.parametrize("k", [-3, 5])
    def test_scaling_by_a_power_of_two_changes_nothing(self, kind, k):
        f = large(kind)
        scaled = SetFunction(17, [math.ldexp(v, k) for v in f.values])
        got, want = ratio_scan(scaled), ratio_scan(f)
        assert hexes(got) == hexes(want)
        assert (got.gamma_witness, got.alpha_witness) == (want.gamma_witness, want.alpha_witness)
        got_c, want_c = strong_curvature_detail(scaled), strong_curvature_detail(f)
        assert (got_c[0].hex(), got_c[3]) == (want_c[0].hex(), want_c[3])

    @pytest.mark.parametrize("spec", sorted(SPECS_N17))
    def test_relabeling_maps_brute_force_and_both_passes(self, kind, spec):
        # The random values leave no two bases, and no two candidates of a
        # step, at one value, so the optimum and every pick are unique and map.
        f = large(kind)
        perm = random.Random(17).sample(range(17), 17)
        g = relabeled(f, perm)
        m = build_matroid(SPECS_N17[spec], 17)
        m_g = build_matroid(relabeled_spec(SPECS_N17[spec], perm), 17)
        got, want = brute_force_optimum(g, m_g, 8), brute_force_optimum(f, m, 8)
        assert (got.optimum_value.hex(), got.bases_examined) == (
            want.optimum_value.hex(), want.bases_examined
        )
        assert image(got.optimum_set, perm) == want.optimum_set
        for run in (forward_greedy, reverse_greedy):
            assert trace_image(run(g, m_g, 8), perm) == trace_image(run(f, m, 8), range(17))


class TestComplement:
    """Each value of the reflection is its witness's ratio, recomputed in f.

    The marginal of g = complement_function(f) at (S, j) is (-a) - (-b) with
    a = f(V - S - j) and b = f(V - S), which rounds as b - a does, signed
    zeros included: f's removal marginal at V - S.
    """

    @staticmethod
    def removal(f, small, j):
        """g's marginal at (small, j), read from f as its removal marginal at V - small."""
        rest = ((1 << f.n) - 1) ^ small
        return f.values[rest] - f.values[rest ^ 1 << j]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(TABLES)
    def test_gamma_and_alpha(self, f):
        scan = ratio_scan(complement_function(f))
        if scan.gamma_witness is None:
            assert (scan.gamma, scan.alpha) == (1.0, 0.0)
            return
        small, big, j = scan.gamma_witness
        ratio = self.removal(f, small, j) / self.removal(f, big, j)
        assert scan.gamma.hex() == ratio.hex()
        small, big, j = scan.alpha_witness
        ratio = self.removal(f, big, j) / self.removal(f, small, j)
        assert scan.alpha.hex() == (1.0 - ratio).hex()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(TABLES)
    def test_cumulative_ratio(self, f):
        value, witness = cumulative_ratio_detail(complement_function(f))
        if witness is None:
            assert value == 1.0
            return
        small, rest = witness
        total = 0.0
        for j in elements(rest):
            total += self.removal(f, small, j)
        outside = ((1 << f.n) - 1) ^ small
        ratio = total / (f.values[outside] - f.values[outside ^ rest])
        assert value.hex() == ratio.hex()
