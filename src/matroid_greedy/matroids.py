"""Matroid rank oracles built from declarative specs.

Supported kinds: uniform (cardinality cap), partition (per-block caps),
graphic (forests of a multigraph, one element per edge), explicit (a
validated list of independent-set masks), plus dual and truncation wrappers
that compose with every other kind. A matroid holds one oracle, its rank
function, and a set is independent when its rank equals its size. Each leaf
kind computes its rank directly; the wrappers map the inner rank, so a call
at any wrapper depth makes one leaf rank call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .caps import MAX_AXIOM_N, MAX_TABLE_N, check_size
from .errors import InvalidSpecError
from .setfunc import _subset_fold
from .subsets import _check_mask, elements, full_mask


@dataclass(frozen=True)
class UniformSpec:
    rank: int


@dataclass(frozen=True)
class PartitionSpec:
    blocks: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        object.__setattr__(self, "capacities", tuple(self.capacities))


@dataclass(frozen=True)
class GraphicSpec:
    vertices: int
    edges: tuple[tuple[int, int], ...]  # element i is edges[i]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple((u, v) for u, v in self.edges))


@dataclass(frozen=True)
class ExplicitSpec:
    independent: frozenset[int]

    def __post_init__(self) -> None:
        # A rebuilt copy, never an alias: its order picks the mask an error names.
        object.__setattr__(self, "independent", frozenset(m for m in self.independent))


@dataclass(frozen=True)
class DualSpec:
    of: "MatroidSpec"


@dataclass(frozen=True)
class TruncateSpec:
    of: "MatroidSpec"
    q: int


MatroidSpec = Union[UniformSpec, PartitionSpec, GraphicSpec, ExplicitSpec, DualSpec, TruncateSpec]


def _low_half(n: int) -> int:
    """How many low elements of {0..n-1} vary under one fixed high part.

    ``Matroid._independent_sets`` completes each high part with the low masks
    of this many elements, and the graphic oracle keeps the forest of the
    last high part split off at the same place.
    """
    return n // 2


class Matroid:
    """Rank oracle over the ground set {0..n-1}.

    Instances are immutable and freely shareable across threads. The graphic
    oracle keeps the union-find forest of the last high part it saw, in one
    slot: a kept forest is never written, every call unions into its own
    copy, and the slot is replaced by one assignment.
    """

    __slots__ = ("n", "spec", "_rank", "rank_full")

    def __init__(self, n: int, spec: MatroidSpec, rank: Callable[[int], int]) -> None:
        self.n = n
        self.spec = spec
        self._rank = rank
        self.rank_full = rank(full_mask(n))

    def is_independent(self, subset: int) -> bool:
        _check_mask(subset, self.n)
        return self._rank(subset) == subset.bit_count()

    def rank(self, subset: int) -> int:
        """Size of a maximal independent subset."""
        _check_mask(subset, self.n)
        return self._rank(subset)

    def enumerate_bases(self) -> list[int]:
        """All independent sets of full rank, in ascending mask order."""
        return self._independent_sets(self.rank_full, self.rank_full)

    def _independent_sets(self, smallest: int, largest: int) -> list[int]:
        """The independent sets of size smallest..largest, in ascending mask order.

        The elements split at ``_low_half(n)``, n // 2, into a low and a high
        half; the graphic oracle keeps the forest of the last high part at the
        same split, so testing a completion there unions only its low edges.
        A high part whose rank is below its size lies in no independent set,
        by heredity, so one rank call skips all its completions; every other
        high part that some low masks bring into the size range is completed
        by those low masks, ascending, each kept where its leaf rank equals
        its size. High parts ascend too, so the list comes out ascending.
        """
        check_size(self.n, MAX_TABLE_N, "base enumeration")
        rank = self._rank
        half = _low_half(self.n)
        # The low masks that complete a high part of each size, ascending.
        fits = [
            [low for low in range(1 << half) if smallest <= size + low.bit_count() <= largest]
            for size in range(self.n - half + 1)
        ]
        sets: list[int] = []
        for high in range(0, 1 << self.n, 1 << half):
            size = high.bit_count()
            if fits[size] and rank(high) == size:
                sets += [m for low in fits[size] if rank(m := high | low) == m.bit_count()]
        return sets

    def dual(self) -> "Matroid":
        """Matroid whose bases are the complements of this one's: r*(S) = |S| + r(V∖S) − r(V)."""
        inner, full, r = self._rank, full_mask(self.n), self.rank_full
        return Matroid(self.n, DualSpec(self.spec), lambda s: s.bit_count() + inner(full ^ s) - r)

    def truncate(self, q: int) -> "Matroid":
        """Intersection with the cardinality-q uniform matroid: ranks capped at q."""
        _check_int(q, "truncation bound")
        if q < 0:
            raise InvalidSpecError(f"truncation bound must be >= 0, got {q}")
        inner = self._rank
        return Matroid(self.n, TruncateSpec(self.spec, q), lambda s: min(q, inner(s)))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.rank_full}, spec={self.spec!r})"


@dataclass(frozen=True)
class AxiomReport:
    """Result of the exhaustive independence-axiom check.

    ``witness`` is the first violating pair: (superset, missing subset) for a
    hereditary failure, (smaller, larger) for an exchange failure.
    """

    nonempty_ok: bool
    hereditary_ok: bool
    exchange_ok: bool
    witness: tuple[int, int] | None

    @property
    def all_ok(self) -> bool:
        return self.nonempty_ok and self.hereditary_ok and self.exchange_ok


def _axiom_scan(
    family: frozenset[int],
) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
    """First hereditary and first exchange violation of a family of masks.

    Returns (superset, missing subset) for heredity, with supersets ascending
    and their submasks descending, and (smaller, larger) for exchange, with
    both sets ascending; None where the axiom holds. With m the bit length of
    the family's union, the scan costs at most |F|·n membership probes plus
    one m·2^(m−1) subset fold, for any family:

    * Heredity tests only the one-element removals of each member. If T is a
      missing submask of the smallest member B that has one, then T lies
      under some B−e, and B−e is missing too: present, it would be a smaller
      member with a missing submask. So the largest missing submask, the
      first in descending order, is a removal; removing the lowest bit first
      walks the removals in descending order.
    * Exchange asks whether some element of S2∖S1 extends S1. With ``ext``
      the union of the elements b outside S1 for which S1+b is a member, that
      is ``S2 & ext != 0``. So S1 fails exactly when some member larger than
      S1 lies inside ``universe & ~ext``, and ``widest``, the size of the
      largest member inside each mask, answers that for every S1 at once.
      Only the first S1 that fails walks the members for its witness.
    """
    members = sorted(family)
    h_wit: tuple[int, int] | None = None
    for big in members:
        rest = big
        while rest:
            low = rest & -rest
            rest ^= low
            if big ^ low not in family:
                h_wit = (big, big ^ low)
                break
        if h_wit is not None:
            break

    universe = 0
    for m in members:
        universe |= m
    widest = [-1] * (1 << universe.bit_length())
    for m in members:
        widest[m] = m.bit_count()
    _subset_fold(widest, largest=True)
    for s1 in members:
        c1 = s1.bit_count()
        if widest[universe] <= c1:
            continue
        ext = 0
        rest = universe & ~s1
        while rest:
            low = rest & -rest
            rest ^= low
            if s1 | low in family:
                ext |= low
        if widest[universe & ~ext] > c1:
            s2 = next(m for m in members if m.bit_count() > c1 and not m & ext)
            return h_wit, (s1, s2)
    return h_wit, None


def check_axioms(matroid: Matroid) -> AxiomReport:
    """Exhaustively test nonemptiness, heredity, and exchange on all subsets."""
    check_size(matroid.n, MAX_AXIOM_N, "axiom check")
    family = frozenset(s for s in range(1 << matroid.n) if matroid.is_independent(s))
    h_wit, e_wit = _axiom_scan(family)
    return AxiomReport(0 in family, h_wit is None, e_wit is None, h_wit or e_wit)


def _check_int(value: object, field: str) -> None:
    """Spec numbers are ints: a float or a bool is rejected, never coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidSpecError(f"{field} must be an int, got {type(value).__name__}")


def _validate_partition(spec: PartitionSpec, n: int) -> list[tuple[int, int]]:
    if len(spec.blocks) != len(spec.capacities):
        raise InvalidSpecError(
            f"{len(spec.blocks)} blocks but {len(spec.capacities)} capacities"
        )
    seen = 0
    pairs = []
    for block, cap in zip(spec.blocks, spec.capacities):
        _check_int(cap, "block capacity")
        if cap < 0:
            raise InvalidSpecError(f"block capacity must be >= 0, got {cap}")
        mask = 0
        for e in block:
            _check_int(e, "block element")
            if not 0 <= e < n:
                raise InvalidSpecError(f"block element {e} out of range for n={n}")
            mask |= 1 << e
        if mask & seen:
            raise InvalidSpecError(
                f"blocks overlap on elements {elements(mask & seen)}"
            )
        seen |= mask
        pairs.append((mask, cap))
    if seen != full_mask(n):
        raise InvalidSpecError(
            f"blocks do not cover elements {elements(full_mask(n) & ~seen)}"
        )
    return pairs


def _validate_graphic(spec: GraphicSpec, n: int) -> None:
    _check_int(spec.vertices, "graph vertices")
    if spec.vertices < 1:
        raise InvalidSpecError(f"graph needs at least one vertex, got {spec.vertices}")
    if len(spec.edges) != n:
        raise InvalidSpecError(
            f"graphic spec has {len(spec.edges)} edges but ground set size is {n}"
        )
    for i, (u, v) in enumerate(spec.edges):
        _check_int(u, f"edge {i} endpoint")
        _check_int(v, f"edge {i} endpoint")
        if not (0 <= u < spec.vertices and 0 <= v < spec.vertices):
            raise InvalidSpecError(f"edge {i} = ({u}, {v}) references a missing vertex")


def _unite(parent: list[int], edges: list[tuple[int, int]], subset: int) -> int:
    """Union the edges of ``subset`` into the forest ``parent``; the number of merges.

    Roots are found without compression: a rank call makes at most n unions,
    so no tree is deeper than n.
    """
    merges = 0
    while subset:
        low = subset & -subset
        subset ^= low
        u, v = edges[low.bit_length() - 1]
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[u] = v
            merges += 1
    return merges


def _graphic_rank(spec: GraphicSpec) -> Callable[[int], int]:
    # Union-find runs over the at most 2n endpoints the edges touch, numbered
    # once here, so a call costs nothing per declared but isolated vertex.
    # ``kept`` holds (high part, its forest, its merges) for the last high
    # part seen, split as ``_independent_sets`` splits. A call with the same
    # high part unions only its low edges into a copy of that forest; one
    # with another high part builds and keeps that part's forest first. A
    # kept forest is never written and the slot is replaced whole, so calls
    # may run on any thread.
    slot: dict[int, int] = {}
    edges = [(slot.setdefault(u, len(slot)), slot.setdefault(v, len(slot))) for u, v in spec.edges]
    roots = list(range(len(slot)))
    half = _low_half(len(edges))
    kept = [(0, roots, 0)]

    def rank(subset: int) -> int:
        high = subset >> half << half
        memo = kept[0]
        if memo[0] != high:
            forest = roots.copy()
            memo = (high, forest, _unite(forest, edges, high))
            kept[0] = memo
        return memo[2] + _unite(memo[1].copy(), edges, subset ^ high)

    return rank


def _validate_explicit(spec: ExplicitSpec, n: int) -> None:
    fam = spec.independent
    limit = 1 << n
    for m in fam:
        _check_int(m, "independent-set mask")
        if not 0 <= m < limit:
            raise InvalidSpecError(f"independent-set mask {m} out of range for n={n}")
    if 0 not in fam:
        raise InvalidSpecError("explicit family must contain the empty set")
    check_size(n, MAX_AXIOM_N, "explicit matroid validation")
    h_wit, e_wit = _axiom_scan(fam)
    if h_wit is not None:
        big, sub = h_wit
        raise InvalidSpecError(
            f"hereditary violation: subset {elements(sub)} of {elements(big)} is missing"
        )
    if e_wit is not None:
        small, large = e_wit
        raise InvalidSpecError(
            f"exchange violation: no element of {elements(large)} extends {elements(small)}"
        )


def _explicit_rank(family: frozenset[int]) -> Callable[[int], int]:
    def rank(subset: int) -> int:
        # Greedy augmentation, ascending; exchange makes the count order-free.
        picked = 0
        count = 0
        rest = subset
        while rest:
            low = rest & -rest
            rest ^= low
            if picked | low in family:
                picked |= low
                count += 1
        return count

    return rank


def build_matroid(spec: MatroidSpec, n: int) -> Matroid:
    """Construct the rank oracle for a spec, validating it eagerly.

    Uniform/partition/graphic kinds are correct by construction; explicit
    families are checked against all three axioms here and reject bad input
    with a witness. A truncation bound above the inner rank is allowed and
    simply clamps.
    """
    if not 1 <= n:
        raise InvalidSpecError(f"ground set size must be positive, got {n}")
    if isinstance(spec, UniformSpec):
        k = spec.rank
        _check_int(k, "uniform rank")
        if k < 0:
            raise InvalidSpecError(f"uniform rank must be >= 0, got {k}")
        return Matroid(n, spec, lambda m: min(k, m.bit_count()))
    if isinstance(spec, PartitionSpec):
        pairs = _validate_partition(spec, n)

        def rank(m: int) -> int:
            total = 0
            for mask, cap in pairs:
                count = (m & mask).bit_count()
                total += count if count < cap else cap
            return total

        return Matroid(n, spec, rank)
    if isinstance(spec, GraphicSpec):
        _validate_graphic(spec, n)
        return Matroid(n, spec, _graphic_rank(spec))
    if isinstance(spec, ExplicitSpec):
        _validate_explicit(spec, n)
        return Matroid(n, spec, _explicit_rank(spec.independent))
    if isinstance(spec, DualSpec):
        return build_matroid(spec.of, n).dual()
    if isinstance(spec, TruncateSpec):
        return build_matroid(spec.of, n).truncate(spec.q)
    raise InvalidSpecError(f"unknown matroid spec {spec!r}")
