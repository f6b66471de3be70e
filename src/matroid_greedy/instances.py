"""Problem instances: generators, canonical fixtures, and JSON persistence.

An instance bundles a set function (always materialized as an explicit
table), a matroid spec, and a target cardinality. Generators are
deterministic given their seed, and every generated instance is strictly
increasing and feasible by construction. Files are UTF-8 JSON with two-space
indent and sorted keys, the layout of ``json.dumps(..., indent=2,
sort_keys=True)``. Below n = ``_PACKED_N`` (18) the value table is text, one
value per line, each float in its shortest round-trip repr, so load(save(x))
is exact; from there it is packed, the little-endian doubles in base64, which
holds every bit of each value. Either table is streamed in blocks rather than
through json's pure-Python indenting encoder, so writing never holds the
whole table as text. A file is read whole, in any JSON layout, so files of
either form load whatever their size. A file that cannot be read or
written, or is not UTF-8 text, is a SchemaError.
"""

from __future__ import annotations

import binascii
import itertools
import json
import random
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .caps import MAX_SPEC_DEPTH, MAX_SUITE_N, MAX_TABLE_N, check_size
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
from .setfunc import SetFunction, _check_table_n


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

    def __post_init__(self) -> None:
        if self.n != self.function.n:
            raise ValueError(f"function is on n={self.function.n} but instance on n={self.n}")

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
    _check_table_n(n)
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
    _check_table_n(n)
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
    _check_table_n(n)
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
    """One random feasible instance; its table is max-plus only at n <= 10."""
    fn_seed = rng.randrange(1 << 31)
    # Every seeded suite and pinned digest depends on this 10 and its short-circuit.
    if n <= 10 and rng.random() < 0.5:
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
    check_size(n_max, MAX_SUITE_N, "verification suite")
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
    """The JSON object of ``inst`` that its file holds, its table packed from n = ``_PACKED_N``."""
    values = inst.function.values
    if inst.n >= _PACKED_N:
        table = "".join(_packed_text(values))
        function = {"encoding": _PACKED_ENCODING, "kind": "explicit", "values": table}
    else:
        function = {"kind": "explicit", "values": values.tolist()}
    return _instance_obj(inst, function)


def _instance_obj(inst: Instance, function: dict) -> dict:
    """The JSON object of ``inst`` with ``function`` as its function's object."""
    return {
        "id": inst.id,
        "n": inst.n,
        "function": function,
        "matroid": spec_to_json(inst.matroid_spec),
        "N": inst.cardinality,
        "seed": inst.seed,
    }


def instance_from_json(obj) -> Instance:
    """The instance of a JSON object, its table a list of numbers or packed; ``obj`` is kept."""
    if isinstance(obj, dict) and isinstance(obj.get("function"), dict):
        obj = {**obj, "function": dict(obj["function"])}
    return _instance_from(obj)


def _instance_from(obj) -> Instance:
    """:func:`instance_from_json` on an object of the caller's, whose packed text it takes out."""
    if not isinstance(obj, dict):
        raise SchemaError("instance: expected a JSON object")
    inst_id = _expect(obj, "id", str, "instance")
    n = _expect(obj, "n", int, "instance")
    if not 1 <= n <= MAX_TABLE_N:
        raise SchemaError(f"instance: n must be in 1..{MAX_TABLE_N}, got {n}")
    fn = _expect(obj, "function", dict, "instance")
    if _expect(fn, "kind", str, "instance.function") != "explicit":
        raise SchemaError("instance.function: only kind 'explicit' is supported")
    if "encoding" in fn:
        values = _unpack(fn, n)
    else:
        values = _expect(fn, "values", list, "instance.function")
    # SetFunction checks the length, then each value's type (a packed table's
    # array('d') holds only floats), then finiteness on its converted table.
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


#: The encoding of a packed table: its 2^n values as little-endian doubles,
#: in padded base64.
_PACKED_ENCODING = "f64le-base64"


def _unpack(fn: dict, n: int) -> array:
    """The values of a packed function object as an ``array('d')``, its text taken out of ``fn``.

    Where ``fn`` was the text's only holder, the text (11 MB at n=20) is freed
    once it is decoded, before the table is built. The array holds C doubles
    only, so SetFunction skips its type pass on it, keeps a copy of it as its
    table and checks that copy finite from each double's top byte, with no
    float object per value.
    """
    encoding = _expect(fn, "encoding", str, "instance.function")
    if encoding != _PACKED_ENCODING:
        raise SchemaError(f"instance.function: unknown encoding '{encoding}'")
    _expect(fn, "values", str, "instance.function")
    text = fn.pop("values")
    # Strict mode refuses bytes outside the alphabet and misplaced padding,
    # but before Python 3.13 it takes a whole quad followed by one "=".
    if len(text) % 4:
        raise SchemaError("instance.function: values are not base64")
    try:
        data = binascii.a2b_base64(text, strict_mode=True)
    except ValueError as exc:
        # binascii.Error is a ValueError, as is the refusal of non-ASCII text.
        raise SchemaError("instance.function: values are not base64") from exc
    del text
    if len(data) != 8 << n:
        raise SchemaError(f"instance.function: need {8 << n} bytes for n={n}, got {len(data)}")
    table = array("d", data)
    # The file holds little-endian doubles; the array reads the host's order.
    if sys.byteorder == "big":
        table.byteswap()
    return table


#: Values per block of the written table: enough that each join is one long
#: C-level pass, few enough that a block's text stays well under a megabyte.
_BLOCK = 1 << 14

#: Tables of at least 2^_PACKED_N values are written packed: in text, that
#: table would be 6.7 MB or more, and parsing its floats is most of a load.
_PACKED_N = 18


def _instance_text(inst: Instance) -> Iterator[str]:
    """The file text of ``inst`` in pieces, to be written in turn.

    Together they are ``json.dumps(instance_to_json(inst), indent=2,
    sort_keys=True) + "\\n"`` byte for byte at every n: the table is text
    below n = ``_PACKED_N`` and, from there, its function is packed as
    ``{"encoding": "f64le-base64", "kind": "explicit", "values": <str>}``.
    json skips its C encoder whenever ``indent`` is set, so the table does
    not go through it: the rest is rendered around an empty table, and the
    table follows in blocks, ``_BLOCK`` values at a time as one C-level join
    of ``float.__repr__`` (what json writes for a finite float, and a
    SetFunction holds no other), or ``3 * _BLOCK`` values at a time as
    base64. Sorted keys put "N", an int, and then "function" first, so its
    table is the first '"values": []' (or '""') in the text; json escapes
    every quote inside a string, so an id cannot match it. The text around
    the table is rendered before this returns, so only it can raise, and the
    blocks are made as they are read.
    """
    packed = inst.n >= _PACKED_N
    if packed:
        function = {"encoding": _PACKED_ENCODING, "kind": "explicit", "values": ""}
        empty, opening, table, closing = '""', '"', _packed_text, '"'
    else:
        # One value per line, six spaces in; the closing bracket four spaces in.
        function = {"kind": "explicit", "values": []}
        empty, opening, table, closing = "[]", "[\n      ", _table_text, "\n    ]"
    text = json.dumps(_instance_obj(inst, function), indent=2, sort_keys=True)
    head, _, tail = text.partition('"values": ' + empty)
    return itertools.chain(
        [head + '"values": ' + opening],
        table(inst.function.values),
        [closing + tail + "\n"],
    )


def _table_text(values) -> Iterator[str]:
    sep = ",\n      "
    for k in range(0, len(values), _BLOCK):
        if k:
            yield sep
        yield sep.join(map(float.__repr__, values[k:k + _BLOCK]))


def _packed_text(values: array) -> Iterator[str]:
    # 3 * _BLOCK doubles are a multiple of 3 bytes, which base64 encodes with
    # no padding, so the blocks' strings join into the whole table's.
    step = 3 * _BLOCK
    for k in range(0, len(values), step):
        block = values[k:k + step]
        # The file holds little-endian doubles; the array holds the host's order.
        if sys.byteorder == "big":
            block.byteswap()
        yield binascii.b2a_base64(block, newline=False).decode("ascii")


def save_instance(inst: Instance, path) -> None:
    """Write ``inst`` to ``path`` in the layout of :func:`_instance_text`.

    The text around the table is rendered before the file is opened, so a
    spec that cannot be written leaves an existing file as it was; the table
    is written block by block.
    """
    parts = _instance_text(inst)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot write instance file ({exc})") from exc


def load_instance(path) -> Instance:
    """Read and parse the instance file at ``path`` whole, in any JSON layout.

    The text is parsed with ``json.loads`` and freed before the table is
    built. A text table is 27 MB at n=20; a packed one, as the writer makes
    from n = ``_PACKED_N``, is 8·2^n bytes in base64 (11 MB at n=20) and is
    decoded into an ``array('d')`` at C speed with nothing left to parse.
    The function keeps a copy of that array as its table, as C doubles, and
    reads its finiteness from the doubles' top bytes; a NaN or an infinity
    in either form is a SchemaError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read instance file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:
        # An integer past Python's digit limit for int conversion.
        raise SchemaError(f"{path}: cannot parse JSON ({exc})") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: JSON nests too deeply to parse") from exc
    # The text is dead once parsed; free it before the table is built. The
    # object is this reader's own, so a packed table's text goes too.
    del text
    return _instance_from(obj)
