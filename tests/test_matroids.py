import math
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
from matroid_greedy.matroids import _axiom_scan, _graphic_rank

from conftest import ENUMERATION_SPECS
from oracles import (
    naive_bases,
    naive_rank,
    reference_axiom_scan,
    reference_bases,
    reference_independent,
)

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


def family_matroid(n, family):
    """A Matroid whose independent sets are exactly ``family``, a matroid or not.

    Its rank is |S| on members and -1 elsewhere, so ``is_independent`` is
    membership; only the axiom check reads it.
    """
    return Matroid(n, ExplicitSpec(family), lambda s: s.bit_count() if s in family else -1)


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

    @pytest.mark.parametrize(
        "spec",
        [
            UniformSpec(0),
            PartitionSpec([[0, 3], [1], [2, 4]], [0, 1, 2]),
            GraphicSpec(3, [(0, 1), (1, 1), (1, 2), (0, 2), (2, 0)]),
            DualSpec(GraphicSpec(2, [(0, 0), (0, 1), (1, 0), (1, 1), (0, 1)])),
            TruncateSpec(DualSpec(PartitionSpec([[0, 1, 2], [3, 4]], [2, 0])), 2),
        ],
    )
    def test_matches_reference(self, spec):
        m = build_matroid(spec, 5)
        reference = reference_independent(spec, 5)
        assert [m.is_independent(s) for s in range(32)] == [
            frozenset(elements(s)) in reference for s in range(32)
        ]


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

    @pytest.mark.parametrize("kind", sorted(ENUMERATION_SPECS))
    @pytest.mark.parametrize("n", range(11, 17))
    def test_matches_size_class_filter(self, n, kind):
        m = build_matroid(ENUMERATION_SPECS[kind](n, random.Random(n)), n)
        assert m.enumerate_bases() == reference_bases(m.rank, n, m.rank_full)

    def test_dependent_high_parts_are_skipped(self):
        # A path on 7 vertices, then chords; edges 9, 10, 11 form the
        # triangle 4-5-6, so no high part holding all three is completed.
        n = 12
        edges = [(i, i + 1) for i in range(6)] + [(0, 2), (1, 3), (2, 4), (4, 6), (5, 6), (4, 5)]
        graph = build_matroid(GraphicSpec(7, edges), n)
        calls = []

        def leaf(subset):
            calls.append(subset)
            return graph.rank(subset)

        m = Matroid(n, graph.spec, leaf)
        calls.clear()
        bases = m.enumerate_bases()
        assert bases == reference_bases(graph.rank, n, 6)
        assert len(calls) < math.comb(n, 6)

    @pytest.mark.parametrize("kind", sorted(ENUMERATION_SPECS))
    @pytest.mark.parametrize("n", [4, 7, 8])
    def test_independent_sets_by_size_range(self, n, kind):
        m = build_matroid(ENUMERATION_SPECS[kind](n, random.Random(n)), n)
        family = [s for s in range(1 << n) if m.is_independent(s)]
        for smallest in range(n + 1):
            for largest in range(smallest, n + 1):
                expected = [s for s in family if smallest <= s.bit_count() <= largest]
                assert m._independent_sets(smallest, largest) == expected
        # The forward family at N = 0 asks for the empty range 1..0.
        assert m._independent_sets(1, 0) == []
        assert m.enumerate_bases() == m._independent_sets(m.rank_full, m.rank_full)

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
        for q in (2, 5):
            truncated = m.truncate(q)
            assert truncated.spec == TruncateSpec(TRIANGLE, q)
            assert truncated.enumerate_bases() == m.enumerate_bases()
            assert [truncated.rank(s) for s in range(8)] == [m.rank(s) for s in range(8)]

    def test_truncate_negative_rejected(self):
        with pytest.raises(InvalidSpecError):
            build_matroid(UniformSpec(2), 3).truncate(-1)

    def test_spec_round_trip_kinds(self):
        m = build_matroid(DualSpec(TruncateSpec(TRIANGLE, 1)), 3)
        assert m.rank_full == 2


class TestWrapperCost:
    """A wrapper maps the inner rank: one leaf rank call per oracle call at any depth."""

    def test_one_leaf_call_per_oracle_call(self):
        calls = []

        def leaf(subset):
            calls.append(subset)
            return min(3, subset.bit_count())

        n = 8
        leaf_matroid = Matroid(n, UniformSpec(3), leaf)
        chains = (
            leaf_matroid.dual().truncate(4).dual().truncate(3),
            # q >= r(V) at every truncation: 3 on the rank-3 leaf, 8 on its rank-5 dual.
            leaf_matroid.truncate(3).dual().truncate(8).dual(),
        )
        for m in chains:
            for subset in range(1 << n):
                for oracle in (m.is_independent, m.rank):
                    calls.clear()
                    oracle(subset)
                    assert len(calls) == 1

    def test_deep_dual_chain_at_n16(self):
        # 16 edges on 9 vertices: a spanning tree plus 8 chords, the shape of
        # the benchmark's graphic instances. A 4-deep chain once took minutes.
        rng = random.Random(2)
        edges = [(rng.randrange(i), i) for i in range(1, 9)]
        edges += [tuple(rng.sample(range(9), 2)) for _ in range(8)]
        m = build_matroid(GraphicSpec(9, edges), 16)
        bases = m.enumerate_bases()
        chain = m
        for depth in range(1, MAX_SPEC_DEPTH + 1):
            chain = chain.dual()
            expected = sorted(full_mask(16) ^ b for b in bases) if depth % 2 else bases
            assert chain.enumerate_bases() == expected


class TestSpecIntegers:
    """Spec numbers must be ints: a float or a bool is rejected, never coerced."""

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"])
    @pytest.mark.parametrize(
        "make,field",
        [
            (lambda x: UniformSpec(x), "uniform rank"),
            (lambda x: TruncateSpec(UniformSpec(2), x), "truncation bound"),
            (lambda x: PartitionSpec([[0, 1]], [x]), "block capacity"),
            (lambda x: PartitionSpec([[0, x]], [1]), "block element"),
            (lambda x: GraphicSpec(x, [(0, 0), (0, 0)]), "graph vertices"),
            (lambda x: GraphicSpec(2, [(0, 1), (x, 0)]), "edge 1 endpoint"),
            (lambda x: ExplicitSpec(frozenset([0, x])), "independent-set mask"),
        ],
    )
    def test_build_rejects(self, make, field, bad):
        with pytest.raises(InvalidSpecError, match=f"{field} must be an int, got {type(bad).__name__}"):
            build_matroid(make(bad), 2)

    @pytest.mark.parametrize("bad", [1.5, 1.0, False])
    def test_truncate_rejects(self, bad):
        with pytest.raises(InvalidSpecError, match="truncation bound must be an int"):
            build_matroid(UniformSpec(2), 2).truncate(bad)

    def test_constructors_keep_values(self):
        assert PartitionSpec([[0, 1]], [1.5]).capacities == (1.5,)
        assert GraphicSpec(2, [(True, 1.5)]).edges == ((True, 1.5),)
        assert {type(m) for m in ExplicitSpec([0, 1.0]).independent} == {int, float}


class TestAxioms:
    def test_uniform_passes(self):
        report = check_axioms(build_matroid(UniformSpec(2), 3))
        assert report.all_ok and report.witness is None

    def test_rank_one_family_passes(self):
        m = family_matroid(2, frozenset([0, 1, 2]))
        assert check_axioms(m).all_ok

    def test_exchange_violation_witness(self):
        family = frozenset([0, 1, 2, 3, 4])
        m = family_matroid(3, family)
        report = check_axioms(m)
        assert report.nonempty_ok and report.hereditary_ok and not report.exchange_ok
        assert report.witness == (4, 3)  # ({2}, {0,1})

    def test_hereditary_violation_witness(self):
        family = frozenset([0, 1, 3])
        m = family_matroid(2, family)
        report = check_axioms(m)
        assert not report.hereditary_ok
        assert report.witness == (3, 2)

    def test_all_kinds_and_wrappers_pass(self):
        for m in sample_matroids():
            assert check_axioms(m).all_ok, m

    def test_size_cap(self):
        with pytest.raises(GroundSetTooLargeError):
            check_axioms(build_matroid(UniformSpec(3), 11))


class CountingFamily(frozenset):
    """A frozenset that counts its membership probes."""

    probes = 0

    def __contains__(self, mask):
        self.probes += 1
        return super().__contains__(mask)


@st.composite
def axiom_families(draw, max_n=7):
    """(n, family): a matroid, a downward closure or a random family, then damaged.

    Downward closures are hereditary but mostly break exchange; random
    families mostly break heredity. Up to two masks are dropped, and the
    empty set is sometimes removed.
    """
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["matroid", "closure", "random"]))
    masks = st.integers(0, full_mask(n))
    if kind == "matroid":
        spec = random_matroid_spec(n, random.Random(draw(st.integers(0, 2**32))))
        family = {mask_of(s) for s in reference_independent(spec, n)}
    elif kind == "closure":
        tops = draw(st.lists(masks, min_size=2, max_size=4))
        family = {s for s in range(1 << n) if any(s & ~t == 0 for t in tops)}
    else:
        family = draw(st.sets(masks, min_size=1, max_size=40))
    family -= set(draw(st.lists(masks, max_size=2)))
    if draw(st.booleans()):
        family.discard(0)
    return n, frozenset(family)


class TestAxiomScan:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(axiom_families())
    def test_matches_reference(self, n_family):
        n, family = n_family
        h_wit, e_wit = reference_axiom_scan(family)
        assert _axiom_scan(family) == (h_wit, e_wit)
        report = check_axioms(family_matroid(n, family))
        assert report.nonempty_ok == (0 in family)
        assert report.hereditary_ok == (h_wit is None)
        assert report.exchange_ok == (e_wit is None)
        assert report.witness == (h_wit or e_wit)

    def test_probes_are_linear_in_family_size(self):
        # A 6-cycle with four chords: 10 edges, hundreds of forests.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4), (2, 5), (0, 2)]
        n = len(edges)
        forests = build_matroid(GraphicSpec(6, edges), n)
        masks = [s for s in range(1 << n) if forests.is_independent(s)]
        family = CountingFamily(masks)
        assert _axiom_scan(family) == (None, None)
        assert family.probes <= n * len(family)
        # The direct loops, all submasks and all pairs, exceed twice that bound.
        direct = CountingFamily(masks)
        assert reference_axiom_scan(direct) == (None, None)
        assert direct.probes > 2 * n * len(direct)


def reference_ranks(spec, n):
    """Rank of every mask from the reference independent sets.

    An independent set is its own rank; a dependent one has the rank of its
    best one-element removal, since a maximal independent subset misses some
    element.
    """
    independent = {mask_of(s) for s in reference_independent(spec, n)}
    ranks = []
    for s in range(1 << n):
        if s in independent:
            ranks.append(s.bit_count())
        else:
            ranks.append(max(ranks[s ^ 1 << e] for e in elements(s)))
    return ranks


class TestGraphicRankShapes:
    """Shapes the random specs rarely draw: long paths, stars, dense cycles, loops."""

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            (11, [(i, i + 1) for i in range(10)]),
            (11, [(0, i) for i in range(1, 11)]),
            (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4), (2, 5), (0, 2)]),
            (4, [(0, 1), (0, 1), (1, 2), (2, 2), (2, 1), (0, 0), (2, 3), (3, 0), (3, 3), (1, 0)]),
        ],
        ids=["path", "star", "cycle-chords", "parallel-loops"],
    )
    def test_every_mask_matches_reference(self, vertices, edges):
        spec = GraphicSpec(vertices, edges)
        rank = _graphic_rank(spec)
        assert [rank(s) for s in range(1 << len(edges))] == reference_ranks(spec, len(edges))


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
    """(n, spec): a random base kind under up to MAX_SPEC_DEPTH dual/truncate wrappers.

    The base is sometimes an explicit copy of a random spec, its family taken
    from the reference.
    """
    n = draw(st.integers(1, max_n))
    spec = random_matroid_spec(n, random.Random(draw(st.integers(0, 2**32))))
    if draw(st.booleans()):
        spec = ExplicitSpec(frozenset(mask_of(s) for s in reference_independent(spec, n)))
    for q in draw(st.lists(st.none() | st.integers(0, n), max_size=MAX_SPEC_DEPTH)):
        spec = DualSpec(spec) if q is None else TruncateSpec(spec, q)
    return n, spec


class TestProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wrapped_specs(), st.data())
    def test_oracles_axioms_and_explicit_copy(self, n_spec, data):
        n, spec = n_spec
        m = build_matroid(spec, n)
        reference = reference_independent(spec, n)
        indep = [m.is_independent(s) for s in range(1 << n)]
        assert indep == [frozenset(elements(s)) in reference for s in range(1 << n)]
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
            report = check_axioms(family_matroid(n, broken))
            assert not report.hereditary_ok
            big, sub = report.witness
            with pytest.raises(InvalidSpecError) as info:
                build_matroid(ExplicitSpec(broken), n)
            assert f"subset {elements(sub)} of {elements(big)} is missing" in str(info.value)
