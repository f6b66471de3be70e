import random
from pathlib import Path

import pytest

from matroid_greedy import (
    DualSpec,
    GraphicSpec,
    PartitionSpec,
    SetFunction,
    TruncateSpec,
    UniformSpec,
    build_matroid,
    canonical_sp2,
    canonical_t3,
    gen_modular,
)
from matroid_greedy.instances import random_matroid_spec

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Signed zeros, both ends of the subnormals and of the normals, and both
#: signs of the largest double.
EXTREMES = [
    -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 0.0,
]


@pytest.fixture
def t3():
    return canonical_t3()


@pytest.fixture
def t3_function(t3):
    return t3.function


@pytest.fixture
def t3_matroid(t3):
    return t3.matroid()


@pytest.fixture
def sp2():
    return canonical_sp2()


@pytest.fixture
def modular123():
    return gen_modular(3, [1, 2, 3])


def random_modular_instances(count, seed, n_min=3, n_max=7):
    """Deterministic (function, matroid, cardinality) triples with additive f."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        weights = [rng.uniform(0.5, 5.0) for _ in range(n)]
        spec = random_matroid_spec(n, rng)
        matroid = build_matroid(spec, n)
        cardinality = rng.randint(1, matroid.rank_full)
        out.append((gen_modular(n, weights), matroid, cardinality))
    return out


def constant_function(n, level=1.0):
    return SetFunction(n, [level] * (1 << n))


def reject_constant(token):
    """A ``parse_constant`` for ``json.loads`` that refuses NaN and the infinities,
    which RFC 8259 has no token for."""
    raise ValueError(f"non-standard JSON constant {token}")


def trace_payload(trace):
    """Trace content without the algorithm label, in the shape of the reference."""
    return (
        [(s.t, s.chosen, s.marginal, s.set_after) for s in trace.steps],
        [(r.before_step, r.element) for r in trace.rejected],
        trace.final_set,
        trace.f_initial,
        trace.f_final,
    )


def random_graph(n, rng):
    """A spanning tree on n // 2 + 1 vertices plus random chords: n edges."""
    vertices = n // 2 + 1
    edges = [(rng.randrange(i), i) for i in range(1, vertices)]
    edges += [tuple(rng.sample(range(vertices), 2)) for _ in range(n - len(edges))]
    return GraphicSpec(vertices, edges)


def random_partition(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    blocks = [order[i::4] for i in range(4)]
    return PartitionSpec(blocks, [rng.randint(1, len(b)) for b in blocks])


#: Spec makers, by name, for n >= 4: three uniform ranks, partition, graphic,
#: and two wrapped kinds.
ENUMERATION_SPECS = {
    "uniform-0": lambda n, rng: UniformSpec(0),
    "uniform-half": lambda n, rng: UniformSpec(n // 2),
    "uniform-n": lambda n, rng: UniformSpec(n),
    "partition": random_partition,
    "graphic": random_graph,
    "dual-graphic": lambda n, rng: DualSpec(random_graph(n, rng)),
    "truncate-dual-partition": lambda n, rng: TruncateSpec(
        DualSpec(random_partition(n, rng)), n // 3
    ),
}
