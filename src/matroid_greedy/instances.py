"""Problem instances: generators, canonical fixtures, and JSON persistence.

An instance bundles a set function (always materialized as an explicit
table), a matroid spec, and a target cardinality. Generators are
deterministic given their seed, and every generated instance is strictly
increasing and feasible by construction. Files are UTF-8 JSON with two-space
indent, sorted keys and one value per line, the layout of ``json.dumps(...,
indent=2, sort_keys=True)``; the value table is written by one C-level join
rather than json's pure-Python indenting encoder. Floats rely on Python's
shortest round-trip repr, so load(save(x)) is exact. A file that cannot be
read or written is a SchemaError.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .caps import MAX_BOUNDED_N, MAX_EXPLICIT_RANDOM_N, MAX_SPEC_DEPTH, MAX_TABLE_N, check_size
from .errors import InfeasibleInstanceError, InvalidSpecError, SchemaError
from .matroids import (
    DualSpec,
    ExplicitSpec,
    GraphicSpec,
    Matroid,
    MatroidSpec,
    PartitionSpec,
    TruncateSpec,
    UniformSpec,
    build_matroid,
)
from .setfunc import SetFunction


@dataclass(frozen=True)
class Instance:
    """A set function, a matroid spec, and the base cardinality to select."""

    id: str
    n: int
    function: SetFunction
    matroid_spec: MatroidSpec
    cardinality: int
    seed: int | None = None
    _matroid: Matroid | None = field(default=None, init=False, repr=False, compare=False)

    def matroid(self) -> Matroid:
        """The matroid of ``matroid_spec``, built and validated on the first call only."""
        if self._matroid is None:
            object.__setattr__(self, "_matroid", build_matroid(self.matroid_spec, self.n))
        return self._matroid


def gen_modular(n: int, weights) -> SetFunction:
    """Additive function f(S) = sum of per-element weights; ratio 1, curvature 0."""
    ws = [float(w) for w in weights]
    if len(ws) != n:
        raise ValueError(f"need {n} weights, got {len(ws)}")
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be positive")
    values = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        values[mask] = values[mask ^ low] + ws[low.bit_length() - 1]
    return SetFunction(n, values)


def gen_bounded_marginal(n: int, lo: float, hi: float, seed: int) -> SetFunction:
    """Random function whose every marginal lies in [lo, hi], 0 < lo <= hi.

    f(S) = midpoint * |S| + h(S) with h drawn uniformly from
    [0, (hi - lo) / 2] per subset and h(empty) = 0, so any single-element
    marginal moves by at most the half-range around the midpoint. Strictly
    increasing since lo > 0; a degenerate range lo == hi gives the modular
    function with equal weights.
    """
    if not 0 < lo <= hi:
        raise ValueError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
    check_size(n, MAX_BOUNDED_N, "bounded-marginal generator")
    rng = random.Random(seed)
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    values = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        values[mask] = mid * mask.bit_count() + rng.uniform(0.0, half)
    return SetFunction(n, values)


def gen_explicit_random(n: int, seed: int) -> SetFunction:
    """Adversarial strictly increasing function via random max-plus accumulation.

    f(empty) = 0 and f(S) = max over j in S of f(S - j), plus a fresh uniform
    increment from (0, 1] per subset, so every marginal is positive.
    """
    check_size(n, MAX_EXPLICIT_RANDOM_N, "explicit-random generator")
    rng = random.Random(seed)
    values = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        best = 0.0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            prev = values[mask ^ low]
            if prev > best:
                best = prev
        values[mask] = best + (1.0 - rng.random())
    return SetFunction(n, values)


def random_matroid_spec(n: int, rng: random.Random) -> MatroidSpec:
    """Random uniform, partition, or graphic spec with rank at least 1."""
    kind = rng.choice(["uniform", "partition", "graphic"])
    if kind == "uniform" or n < 2:
        return UniformSpec(rng.randint(1, n))
    if kind == "partition":
        block_count = rng.randint(2, min(3, n))
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), block_count - 1))
        blocks = []
        capacities = []
        start = 0
        for cut in cuts + [n]:
            block = tuple(sorted(order[start:cut]))
            blocks.append(block)
            capacities.append(rng.randint(1, len(block)))
            start = cut
        return PartitionSpec(tuple(blocks), tuple(capacities))
    vertices = rng.randint(2, min(6, n + 1))
    edges = [(rng.randint(0, i - 1), i) for i in range(1, vertices)]
    while len(edges) < n:
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        while v == u:
            v = rng.randrange(vertices)
        edges.append((min(u, v), max(u, v)))
    return GraphicSpec(vertices, tuple(edges))


def random_instance(n: int, rng: random.Random, instance_id: str) -> Instance:
    """One random feasible instance: seeded function, matroid, and cardinality."""
    fn_seed = rng.randrange(1 << 31)
    if n <= MAX_EXPLICIT_RANDOM_N and rng.random() < 0.5:
        f = gen_explicit_random(n, fn_seed)
    else:
        f = gen_bounded_marginal(n, 1.0, rng.uniform(1.5, 3.0), fn_seed)
    spec = random_matroid_spec(n, rng)
    rank = build_matroid(spec, n).rank_full
    cardinality = rng.randint(1, rank)
    return Instance(instance_id, n, f, spec, cardinality, seed=fn_seed)


def random_suite(count: int, n_min: int, n_max: int, seed: int) -> list[Instance]:
    """Deterministic list of random instances shared by the verification suites."""
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    check_size(n_max, MAX_BOUNDED_N, "verification suite")
    rng = random.Random(seed)
    return [
        random_instance(rng.randint(n_min, n_max), rng, f"rnd-{seed}-{i:03d}")
        for i in range(count)
    ]


def canonical_t3() -> Instance:
    """Three-element fixture with hand-checked ratios.

    gamma = 1/2, alpha = 1/2, cumulative ratio = 2/3, strong curvature = 1/2;
    forward greedy picks {0, 1} and reverse greedy {1, 2}, both of value 3,
    which is also the optimum over the three bases.
    """
    f = SetFunction(3, [0, 2, 1, 3, 1, 3, 3, 4])
    return Instance("T3", 3, f, UniformSpec(2), 2)


def canonical_sp2() -> SetFunction:
    """Two-element supermodular fixture: gamma = 1/2, alpha = 0."""
    return SetFunction(2, [0, 1, 1, 3])


# ---------------------------------------------------------------------------
# JSON persistence


def spec_to_json(spec: MatroidSpec) -> dict:
    if isinstance(spec, UniformSpec):
        return {"kind": "uniform", "rank": spec.rank}
    if isinstance(spec, PartitionSpec):
        return {
            "kind": "partition",
            "blocks": [list(b) for b in spec.blocks],
            "capacities": list(spec.capacities),
        }
    if isinstance(spec, GraphicSpec):
        return {
            "kind": "graphic",
            "vertices": spec.vertices,
            "edges": [list(e) for e in spec.edges],
        }
    if isinstance(spec, ExplicitSpec):
        return {"kind": "explicit", "independent": sorted(spec.independent)}
    if isinstance(spec, DualSpec):
        return {"kind": "dual", "of": spec_to_json(spec.of)}
    if isinstance(spec, TruncateSpec):
        return {"kind": "truncate", "of": spec_to_json(spec.of), "q": spec.q}
    raise InvalidSpecError(f"unknown matroid spec {spec!r}")


def _expect(obj: dict, field: str, kinds, where: str):
    if field not in obj:
        raise SchemaError(f"{where}: missing field '{field}'")
    value = obj[field]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise SchemaError(f"{where}: field '{field}' has wrong type {type(value).__name__}")
    return value


def _ints(items, where: str, what: str, length: int | None = None) -> tuple[int, ...]:
    """A JSON list of ints as a tuple, each item held to the rule of :func:`_expect`."""
    if not isinstance(items, list):
        raise SchemaError(f"{where}: {what} must be a list")
    if length is not None and len(items) != length:
        raise SchemaError(f"{where}: {what} must have {length} items, got {len(items)}")
    for i, x in enumerate(items):
        if not isinstance(x, int) or isinstance(x, bool):
            raise SchemaError(f"{where}: {what}[{i}] has wrong type {type(x).__name__}")
    return tuple(items)


def spec_from_json(obj, where: str = "matroid") -> MatroidSpec:
    """Parse a matroid spec, nesting at most MAX_SPEC_DEPTH dual/truncate wrappers."""
    return _spec_from_json(obj, where, 0)


def _spec_from_json(obj, where: str, depth: int) -> MatroidSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    kind = _expect(obj, "kind", str, where)
    if kind == "uniform":
        return UniformSpec(_expect(obj, "rank", int, where))
    if kind == "partition":
        blocks = _expect(obj, "blocks", list, where)
        capacities = _expect(obj, "capacities", list, where)
        return PartitionSpec(
            tuple(_ints(b, where, f"blocks[{i}]") for i, b in enumerate(blocks)),
            _ints(capacities, where, "capacities"),
        )
    if kind == "graphic":
        vertices = _expect(obj, "vertices", int, where)
        edges = _expect(obj, "edges", list, where)
        return GraphicSpec(
            vertices, tuple(_ints(e, where, f"edges[{i}]", 2) for i, e in enumerate(edges))
        )
    if kind == "explicit":
        masks = _expect(obj, "independent", list, where)
        return ExplicitSpec(frozenset(_ints(masks, where, "independent")))
    if kind in ("dual", "truncate"):
        if depth == MAX_SPEC_DEPTH:
            raise SchemaError(f"{where}: more than {MAX_SPEC_DEPTH} nested dual/truncate wrappers")
        inner = _spec_from_json(_expect(obj, "of", dict, where), f"{where}.of", depth + 1)
        if kind == "dual":
            return DualSpec(inner)
        return TruncateSpec(inner, _expect(obj, "q", int, where))
    raise SchemaError(f"{where}: unknown matroid kind '{kind}'")


def instance_to_json(inst: Instance) -> dict:
    return {
        "id": inst.id,
        "n": inst.n,
        "function": {"kind": "explicit", "values": list(inst.function.values)},
        "matroid": spec_to_json(inst.matroid_spec),
        "N": inst.cardinality,
        "seed": inst.seed,
    }


def instance_from_json(obj) -> Instance:
    if not isinstance(obj, dict):
        raise SchemaError("instance: expected a JSON object")
    inst_id = _expect(obj, "id", str, "instance")
    n = _expect(obj, "n", int, "instance")
    if not 1 <= n <= MAX_TABLE_N:
        raise SchemaError(f"instance: n must be in 1..{MAX_TABLE_N}, got {n}")
    fn = _expect(obj, "function", dict, "instance")
    if _expect(fn, "kind", str, "instance.function") != "explicit":
        raise SchemaError("instance.function: only kind 'explicit' is supported")
    values = _expect(fn, "values", list, "instance.function")
    if len(values) != 1 << n:
        raise SchemaError(
            f"instance.function: need {1 << n} values for n={n}, got {len(values)}"
        )
    # Plain JSON numbers pass at once; only another type (a bool, a string,
    # a subclass) needs the per-value pass that names the offending index.
    if not set(map(type, values)) <= {int, float}:
        for i, v in enumerate(values):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise SchemaError(f"instance.function: values[{i}] is not a number")
    try:
        function = SetFunction(n, values)
    except ValueError as exc:
        raise SchemaError(f"instance.function: {exc}") from exc
    spec = spec_from_json(_expect(obj, "matroid", dict, "instance"), "instance.matroid")
    cardinality = _expect(obj, "N", int, "instance")
    if cardinality < 1:
        raise SchemaError(f"instance: N must be >= 1, got {cardinality}")
    seed = obj.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise SchemaError("instance: seed must be an int or null")
    inst = Instance(inst_id, n, function, spec, cardinality, seed)
    try:
        matroid = inst.matroid()
    except InvalidSpecError as exc:
        raise SchemaError(f"instance.matroid: {exc}") from exc
    if matroid.rank_full < cardinality:
        raise InfeasibleInstanceError(
            f"instance '{inst_id}': matroid rank {matroid.rank_full} is below N={cardinality}"
        )
    return inst


def _instance_text(inst: Instance) -> tuple[str, str, str]:
    """The file text of ``inst`` as head, value table and tail, to be written in turn.

    Together they are ``json.dumps(instance_to_json(inst), indent=2,
    sort_keys=True) + "\\n"`` byte for byte. json skips its C encoder
    whenever ``indent`` is set, so the table does not go through it: the rest
    is rendered around an empty table, and the table is one C-level join of
    ``float.__repr__``, which is what json writes for a finite float (a
    SetFunction holds no other). Sorted keys put "N", an int, and then
    "function" first, so its table is the first '"values": []' in the text;
    json escapes every quote inside a string, so an id cannot match it.
    """
    obj = instance_to_json(inst)
    obj["function"]["values"] = []
    head, _, tail = json.dumps(obj, indent=2, sort_keys=True).partition('"values": []')
    # One value per line, six spaces in; the closing bracket four spaces in.
    table = ",\n      ".join(map(float.__repr__, inst.function.values))
    return head + '"values": [\n      ', table, "\n    ]" + tail + "\n"


def save_instance(inst: Instance, path) -> None:
    """Write ``inst`` to ``path`` in the layout of :func:`_instance_text`.

    The text is rendered before the file is opened, so a spec that cannot be
    written leaves an existing file as it was.
    """
    parts = _instance_text(inst)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot write instance file ({exc})") from exc


def load_instance(path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read instance file ({exc})") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: JSON nests too deeply to parse") from exc
    return instance_from_json(obj)
