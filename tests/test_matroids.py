import random

import pytest
from hypothesis import given, settings, strategies as st

from matroid_greedy import (
    DualSpec,
    ExplicitSpec,
    GraphicSpec,
    GroundSetTooLargeError,
    InvalidSpecError,
    Matroid,
    PartitionSpec,
    TruncateSpec,
    UniformSpec,
    build_matroid,
    check_axioms,
    elements,
    full_mask,
    mask_of,
)
from matroid_greedy.instances import MAX_SPEC_DEPTH, random_matroid_spec

from oracles import naive_bases, naive_rank

TRIANGLE = GraphicSpec(3, [(0, 1), (1, 2), (2, 0)])


def sample_matroids(n_cap=6):
    """One matroid per constructor kind, plus dual/truncate wrappers."""
    base = [
        build_matroid(UniformSpec(2), 4),
        build_matroid(PartitionSpec([[0, 1], [2, 3]], [1, 1]), 4),
        build_matroid(TRIANGLE, 3),
        build_matroid(GraphicSpec(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), 5),
        build_matroid(ExplicitSpec(frozenset([0, 1, 2, 4, 3, 5])), 3),
    ]
    out = list(base)
    out += [m.dual() for m in base]
    out += [m.truncate(1) for m in base]
    out += [m.dual().dual() for m in base[:2]]
    return [m for m in out if m.n <= n_cap]


class TestBuild:
    def test_uniform(self):
        m = build_matroid(UniformSpec(2), 3)
        assert m.rank_full == 2
        assert all(m.is_independent(s) == (s.bit_count() <= 2) for s in range(8))

    def test_partition(self):
        m = build_matroid(PartitionSpec([[0, 1], [2, 3]], [1, 1]), 4)
        assert m.rank_full == 2
        assert m.enumerate_bases() == sorted(
            [mask_of([0, 2]), mask_of([0, 3]), mask_of([1, 2]), mask_of([1, 3])]
        )

    def test_partition_overlap_rejected(self):
        with pytest.raises(InvalidSpecError):
            build_matroid(PartitionSpec([[0, 1], [1, 2]], [1, 1]), 3)

    def test_partition_cover_required(self):
        with pytest.raises(InvalidSpecError):
            build_matroid(PartitionSpec([[0, 1]], [1]), 3)

    def test_explicit_hereditary_rejected(self):
        spec = ExplicitSpec(frozenset([0, 1, 3]))  # {1} missing under {0,1}
        with pytest.raises(InvalidSpecError, match="hereditary"):
            build_matroid(spec, 2)

    def test_explicit_exchange_rejected(self):
        spec = ExplicitSpec(frozenset([0, 1, 2, 3, 4]))
        with pytest.raises(InvalidSpecError, match="exchange"):
            build_matroid(spec, 3)

    def test_explicit_rank_one_family_ok(self):
        m = build_matroid(ExplicitSpec(frozenset([0, 1, 2])), 2)
        assert m.rank_full == 1

    def test_graphic_edge_count_must_match(self):
        with pytest.raises(InvalidSpecError):
            build_matroid(GraphicSpec(3, [(0, 1)]), 2)


class TestGraphicRelabeling:
    """Union-find runs over the touched endpoints only, whatever ``vertices`` says."""

    @pytest.mark.parametrize(
        "edges",
        [
            [(99_999, 7), (7, 50_000), (50_000, 99_999), (3, 99_998), (3, 3), (7, 99_999)],
            [(10, 20), (20, 30), (30, 40), (40, 10), (10, 30), (20, 40), (90_000, 90_001)],
        ],
    )
    def test_matches_compact_copy(self, edges):
        labels = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
        n = len(edges)
        sparse = build_matroid(GraphicSpec(100_000, edges), n)
        compact = build_matroid(GraphicSpec(len(labels), [(labels[u], labels[v]) for u, v in edges]), n)
        assert sparse.rank_full == compact.rank_full
        assert sparse.enumerate_bases() == compact.enumerate_bases()
        assert [sparse.rank(m) for m in range(1 << n)] == [compact.rank(m) for m in range(1 << n)]

    def test_endpoints_still_checked_against_vertices(self):
        with pytest.raises(InvalidSpecError, match="missing vertex"):
            build_matroid(GraphicSpec(100_000, [(0, 100_000)]), 1)


class TestIndependence:
    def test_uniform_cap(self):
        m = build_matroid(UniformSpec(2), 3)
        assert not m.is_independent(full_mask(3))

    def test_graphic_cycle(self):
        m = build_matroid(TRIANGLE, 3)
        assert not m.is_independent(mask_of([0, 1, 2]))
        assert m.is_independent(mask_of([0, 1]))

    def test_graphic_self_loop_dependent(self):
        m = build_matroid(GraphicSpec(2, [(0, 1), (1, 1)]), 2)
        assert not m.is_independent(mask_of([1]))
        assert m.rank_full == 1

    def test_dual_of_uniform(self):
        m = build_matroid(UniformSpec(2), 3).dual()
        assert m.is_independent(mask_of([0]))
        assert not m.is_independent(mask_of([0, 1]))


class TestRank:
    def test_examples(self):
        assert build_matroid(UniformSpec(2), 3).rank(full_mask(3)) == 2
        assert build_matroid(TRIANGLE, 3).rank(mask_of([0, 1, 2])) == 2
        m = build_matroid(PartitionSpec([[0, 1], [2, 3]], [1, 1]), 4)
        assert m.rank(mask_of([0, 1])) == 1

    def test_matches_enumeration_oracle(self):
        for m in sample_matroids():
            for subset in range(1 << m.n):
                assert m.rank(subset) == naive_rank(m.is_independent, subset, m.n)

    def test_order_independent(self):
        def rank_descending(m, subset):
            picked = 0
            count = 0
            for j in reversed(range(m.n)):
                if subset >> j & 1 and m.is_independent(picked | 1 << j):
                    picked |= 1 << j
                    count += 1
            return count

        for m in sample_matroids():
            for subset in range(1 << m.n):
                assert m.rank(subset) == rank_descending(m, subset)


class TestBases:
    def test_uniform_bases(self):
        assert build_matroid(UniformSpec(2), 3).enumerate_bases() == [3, 5, 6]

    def test_dual_bases_are_complements(self):
        full = full_mask(3)
        primal = build_matroid(UniformSpec(2), 3)
        assert primal.dual().enumerate_bases() == [1, 2, 4]
        assert sorted(full ^ b for b in primal.enumerate_bases()) == [1, 2, 4]

    def test_bases_are_maximal_independent_sets(self):
        for m in sample_matroids():
            assert m.enumerate_bases() == naive_bases(m.is_independent, m.n)

    def test_size_cap(self):
        # A matroid can be built at any n; enumeration stops at the table cap.
        m = build_matroid(UniformSpec(1), 21)
        with pytest.raises(GroundSetTooLargeError, match="base enumeration"):
            m.enumerate_bases()


class TestDualAndTruncate:
    def test_dual_rank(self):
        m = build_matroid(TRIANGLE, 3)
        assert m.dual().rank_full == 1
        assert m.dual().enumerate_bases() == [1, 2, 4]

    def test_dual_involution(self):
        for m in sample_matroids():
            assert m.dual().dual().enumerate_bases() == m.enumerate_bases()

    def test_dual_complement_property(self):
        for m in sample_matroids():
            full = full_mask(m.n)
            expected = sorted(full ^ b for b in m.enumerate_bases())
            assert m.dual().enumerate_bases() == expected

    def test_truncate_examples(self):
        assert build_matroid(UniformSpec(2), 3).truncate(1).enumerate_bases() == [1, 2, 4]
        part = build_matroid(PartitionSpec([[0, 1], [2, 3]], [1, 1]), 4)
        assert part.truncate(1).enumerate_bases() == [1, 2, 4, 8]

    def test_truncate_above_rank_is_identity(self):
        m = build_matroid(TRIANGLE, 3)
        assert m.truncate(5).enumerate_bases() == m.enumerate_bases()

    def test_truncate_negative_rejected(self):
        with pytest.raises(InvalidSpecError):
            build_matroid(UniformSpec(2), 3).truncate(-1)

    def test_spec_round_trip_kinds(self):
        m = build_matroid(DualSpec(TruncateSpec(TRIANGLE, 1)), 3)
        assert m.rank_full == 2


class TestAxioms:
    def test_uniform_passes(self):
        report = check_axioms(build_matroid(UniformSpec(2), 3))
        assert report.all_ok and report.witness is None

    def test_rank_one_family_passes(self):
        m = Matroid(2, ExplicitSpec(frozenset([0, 1, 2])), frozenset([0, 1, 2]).__contains__)
        assert check_axioms(m).all_ok

    def test_exchange_violation_witness(self):
        family = frozenset([0, 1, 2, 3, 4])
        m = Matroid(3, ExplicitSpec(family), family.__contains__)
        report = check_axioms(m)
        assert report.nonempty_ok and report.hereditary_ok and not report.exchange_ok
        assert report.witness == (4, 3)  # ({2}, {0,1})

    def test_hereditary_violation_witness(self):
        family = frozenset([0, 1, 3])
        m = Matroid(2, ExplicitSpec(family), family.__contains__)
        report = check_axioms(m)
        assert not report.hereditary_ok
        assert report.witness == (3, 2)

    def test_all_kinds_and_wrappers_pass(self):
        for m in sample_matroids():
            assert check_axioms(m).all_ok, m

    def test_size_cap(self):
        with pytest.raises(GroundSetTooLargeError):
            check_axioms(build_matroid(UniformSpec(3), 11))


class TestRandomSpecs:
    def test_random_specs_are_valid_matroids(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 7)
            m = build_matroid(random_matroid_spec(n, rng), n)
            assert m.rank_full >= 1
            assert check_axioms(m).all_ok

    def test_all_bases_share_cardinality(self):
        for m in sample_matroids():
            bases = m.enumerate_bases()
            assert bases and all(b.bit_count() == m.rank_full for b in bases)


@st.composite
def wrapped_specs(draw, max_n=7):
    """(n, spec): a random base kind under up to MAX_SPEC_DEPTH dual/truncate wrappers."""
    n = draw(st.integers(1, max_n))
    spec = random_matroid_spec(n, random.Random(draw(st.integers(0, 2**32))))
    for q in draw(st.lists(st.none() | st.integers(0, n), max_size=MAX_SPEC_DEPTH)):
        spec = DualSpec(spec) if q is None else TruncateSpec(spec, q)
    return n, spec


class TestProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wrapped_specs(), st.data())
    def test_oracles_axioms_and_explicit_copy(self, n_spec, data):
        n, spec = n_spec
        m = build_matroid(spec, n)
        indep = [m.is_independent(s) for s in range(1 << n)]
        for subset in range(1 << n):
            assert m.rank(subset) == naive_rank(indep.__getitem__, subset, n)
        bases = m.enumerate_bases()
        assert bases == naive_bases(indep.__getitem__, n)
        assert check_axioms(m).all_ok

        family = frozenset(s for s in range(1 << n) if indep[s])
        assert build_matroid(ExplicitSpec(family), n).enumerate_bases() == bases

        # Dropping a member under some other member breaks heredity; the
        # build error names the witness the axiom check finds.
        droppable = sorted(
            s for s in family if s and any(t != s and t & s == s for t in family)
        )
        if droppable:
            broken = family - {data.draw(st.sampled_from(droppable))}
            report = check_axioms(Matroid(n, ExplicitSpec(broken), broken.__contains__))
            assert not report.hereditary_ok
            big, sub = report.witness
            with pytest.raises(InvalidSpecError) as info:
                build_matroid(ExplicitSpec(broken), n)
            assert f"subset {elements(sub)} of {elements(big)} is missing" in str(info.value)
