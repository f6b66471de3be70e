"""Problem instances: generators, canonical fixtures, and JSON persistence.

An instance bundles a set function (always materialized as an explicit
table), a matroid spec, and a target cardinality. Generators are
deterministic given their seed, and every generated instance is strictly
increasing and feasible by construction. Files are UTF-8 JSON with two-space
indent, sorted keys and one value per line, the layout of ``json.dumps(...,
indent=2, sort_keys=True)``; the value table is streamed in blocks of
``_BLOCK`` values, each one C-level join, rather than through json's
pure-Python indenting encoder, so writing never holds the whole table as
text. Reading streams too: a file in that layout has its table read and
parsed in blocks of ``_READ_BYTES`` bytes, so loading never holds the whole
file as bytes or text, and any other layout is read whole. A table of at
least ``_SPLIT_BYTES`` (4 MiB, every file from n=18 up) has its second half
parsed by a forked child on a second core, when the platform can fork, two
CPUs are usable and no other thread runs; the split never changes a value
or an error. Floats rely on Python's shortest round-trip repr, so
load(save(x)) is exact. A file that cannot be read or written, or is not
UTF-8 text, is a SchemaError.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import threading
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
    return _instance_obj(inst, list(inst.function.values))


def _instance_obj(inst: Instance, values: list) -> dict:
    """The JSON object of ``inst`` with ``values`` as its function's table."""
    return {
        "id": inst.id,
        "n": inst.n,
        "function": {"kind": "explicit", "values": values},
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
    # SetFunction checks the length, then each value's type, then finiteness.
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


#: Values per block of the written table: enough that each join is one long
#: C-level pass, few enough that a block's text stays well under a megabyte.
_BLOCK = 1 << 14


def _instance_text(inst: Instance) -> Iterator[str]:
    """The file text of ``inst`` in pieces, to be written in turn.

    Together they are ``json.dumps(instance_to_json(inst), indent=2,
    sort_keys=True) + "\\n"`` byte for byte. json skips its C encoder
    whenever ``indent`` is set, so the table does not go through it: the rest
    is rendered around an empty table, and the table follows in blocks of
    ``_BLOCK`` values, each one C-level join of ``float.__repr__``, which is
    what json writes for a finite float (a SetFunction holds no other).
    Sorted keys put "N", an int, and then "function" first, so its table is
    the first '"values": []' in the text; json escapes every quote inside a
    string, so an id cannot match it. The text around the table is rendered
    before this returns, so only it can raise, and the blocks are joined as
    they are read.
    """
    text = json.dumps(_instance_obj(inst, []), indent=2, sort_keys=True)
    head, _, tail = text.partition('"values": []')
    # One value per line, six spaces in; the closing bracket four spaces in.
    return itertools.chain(
        [head + '"values": [\n      '],
        _table_text(inst.function.values),
        ["\n    ]" + tail + "\n"],
    )


def _table_text(values) -> Iterator[str]:
    sep = ",\n      "
    for k in range(0, len(values), _BLOCK):
        if k:
            yield sep
        yield sep.join(map(float.__repr__, values[k:k + _BLOCK]))


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


#: Bytes per read of an instance file's value table: small beside a 27 MB
#: n=20 file, and large enough that its 400-odd pieces cost nothing next to
#: parsing them (loading that file took the same time, within noise, at every
#: size from 16 KiB to 4 MiB).
_READ_BYTES = 1 << 16

#: Bytes past the head from which a writer-layout file has the second half
#: of its table parsed in a child process. Below it the fork and the round
#: trip of the child's values cost about what half a parse saves: on a 2-vCPU
#: VM (medians of 24 to 96 alternating loads in one process) the bounded n=15
#: file (0.84 MB) loaded in 30 ms split against 21 ms serial, the n=16 one
#: (1.7 MB) in 43 to 47 ms against 37 to 46 ms, and the n=17 one (3.4 MB) in
#: 64 to 91 ms against 85 to 94 ms. At 4 MiB every file up to n=17 is read
#: in one process, and the split starts at n=18 (6.7 MB).
_SPLIT_BYTES = 4 << 20

#: The head of the writer's layout, up to the value table's opening bracket,
#: with JSON whitespace (each space in the pattern) before and between its
#: tokens. It is matched on one read of ``_HEAD_BYTES``, whatever the block
#: size, with room for any indent json's encoder writes.
_WRITER_HEAD = re.compile(
    rb' \{ "N" : -?[0-9]+ , "function" : \{ "kind" : "explicit" , "values" : \['.replace(
        b" ", rb"[ \t\n\r]*"
    )
)
_HEAD_BYTES = 1 << 10


def load_instance(path) -> Instance:
    """Read the instance file at ``path``, reading the writer's layout in blocks.

    A regular file whose head is in the writer's layout (``{"N": <int>,
    "function": {"kind": "explicit", "values": [``, JSON whitespace allowed,
    matched on the first ``_HEAD_BYTES`` bytes) has its value table read in
    blocks of ``_READ_BYTES`` and parsed piece by piece: each piece is the
    buffer up to its last comma, decoded as strict UTF-8 (a comma or bracket
    byte is never inside a multi-byte character) and parsed as
    ``json.loads("[" + piece + "]")``. The first ``]`` ends the table, and the
    text after it, with the head around an empty table, is parsed with every
    object's keys required to be distinct; the table is then put in place.
    So neither the file's bytes nor its text is ever held whole.

    A table of at least ``_SPLIT_BYTES`` past the head is cut at the first
    comma past its midpoint when ``os.fork`` exists, two CPUs are usable and
    no other thread runs (``fork`` copies only the calling thread). This
    process parses up to that comma while a forked child parses the rest, up
    to the first ``]``, with the same piece loop, and sends back the offset
    of that ``]`` and its values as doubles, which carry every bit of a
    float (-0.0, subnormals, NaN). The child sends a refusal instead if any
    value it parsed is not a float or any piece fails. On a refusal, or a
    child that does not exit cleanly, this process parses that half itself;
    a ``]`` inside this process's half ends the table there, as it does in
    one pass. So the split changes no value and no error, and
    ``SetFunction`` still checks every value here. On a 2-vCPU VM with
    Python 3.11, ``run --algo both`` as a whole process (medians of five,
    wall time and peak RSS from ``os.wait4``) took 0.33 s at n=18 (a 6.7 MB
    bounded file) against 0.39 s in one process, and 0.75 s at n=20 (27 MB)
    against 0.95 s, at the same 29 and 65 MB peak.

    This gives what ``json.loads`` of the whole text gives, because:

    * a piece parses only if every comma it was cut at sits at the table's
      top level: a cut inside a string leaves the string unterminated, and a
      cut inside a nested array or object leaves a bracket open;
    * the first ``]`` closes the table only if the last piece parses;
    * a piece that parses to an empty list is refused, since it means a
      comma with no value before or after it, or an empty table, which no
      instance has (the whole-file reader then gives the error);
    * a duplicate key, where json would keep the last value, is refused.

    Any other layout, a file that is not a regular file (a pipe cannot be
    read twice), and every file where ``os.pread`` is missing go to the
    whole-file reader, as does any failure on the way: ``OSError``,
    ``UnicodeDecodeError``, ``ValueError`` (which includes
    ``json.JSONDecodeError``), ``RecursionError`` or a refused piece. That
    reader parses the whole text with ``json.loads``, so it accepts any JSON
    layout, and every error, its type and its message are its own.
    """
    try:
        obj = _read_blocks(path)
    except (OSError, ValueError, RecursionError):
        obj = None
    if obj is None:
        return _load_whole(path)
    return instance_from_json(obj)


def _read_blocks(path):
    """The JSON object of a writer-layout file read in blocks, or None if refused."""
    if not (hasattr(os, "pread") and os.path.isfile(path)):
        return None
    fd = os.open(path, os.O_RDONLY)
    try:
        match = _WRITER_HEAD.match(os.pread(fd, _HEAD_BYTES, 0))
        if match is None:
            return None
        table = []
        end = _read_table(fd, match.end(), table)
        if end is None:
            return None
        tail = _read_from(fd, end + 1).decode("utf-8")
    finally:
        os.close(fd)
    head = match.group().decode("ascii")
    obj = json.loads(head + "]" + tail, object_pairs_hook=_distinct_keys)
    obj["function"]["values"] = table
    return obj


def _read_from(fd: int, pos: int) -> bytes:
    parts = []
    while block := os.pread(fd, _READ_BYTES, pos):
        parts.append(block)
        pos += len(block)
    return b"".join(parts)


def _read_table(fd: int, start: int, table: list) -> int | None:
    """Parse the table that opens at ``start`` onto ``table``: the offset of its ']', or None."""
    size = os.fstat(fd).st_size
    if (
        size - start >= _SPLIT_BYTES
        and hasattr(os, "fork")
        and _usable_cpus() >= 2
        # fork copies only the calling thread, whatever locks the others hold.
        and threading.active_count() == 1
    ):
        cut = _find_comma(fd, start + (size - start) // 2)
        if cut is not None:
            return _read_split(fd, start, cut, table)
    return _parse(fd, start, table)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _find_comma(fd: int, pos: int) -> int | None:
    while block := os.pread(fd, _READ_BYTES, pos):
        comma = block.find(b",")
        if comma >= 0:
            return pos + comma
        pos += len(block)
    return None


def _read_split(fd: int, start: int, cut: int, table: list) -> int | None:
    """:func:`_read_table` with the table split at the comma at ``cut``.

    This process parses up to ``cut`` while a forked child parses from past it
    to the first ']' and sends its values back as doubles. If this half holds
    that ']', the table ended here and the child's half is not part of it; if
    the child refuses its half, or does not exit cleanly, this process parses
    that half itself. The child is reaped on every path, after the pipe's
    read end is closed, so a child blocked on a write ends with a broken pipe.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return _parse(fd, start, table)
    if pid == 0:
        os.close(r)
        _send_half(fd, cut + 1, w)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            end = _parse(fd, start, table, cut)
            if end != cut:
                return end
            mark = len(table)
            end = _receive_half(pipe, table)
    finally:
        status = os.waitpid(pid, 0)[1]
    if end is None or status != 0:
        del table[mark:]
        return _parse(fd, cut + 1, table)
    return end


def _send_half(fd: int, pos: int, w: int):
    """In the child: parse the table from ``pos`` and send it over ``w``; never returns.

    The message is one byte, 1 and then the ']' offset as 8 little-endian
    bytes and the values as doubles if every value parsed is a float, else 0.
    The child ends with ``os._exit``, so it runs no exit handler and flushes
    none of the buffers it shares with its parent.
    """
    code = 1
    try:
        # Imported here, so that a process that never splits a table does
        # not map the extension module (about 0.14 MB of RSS).
        from array import array

        values = []
        try:
            end = _parse(fd, pos, values)
        except Exception:
            # A refusal: the parent parses this half again and meets the
            # error itself.
            end = None
        with open(w, "wb") as pipe:
            if end is not None and set(map(type, values)) == {float}:
                pipe.write(b"\1" + end.to_bytes(8, "little"))
                pipe.write(array("d", values))
            else:
                pipe.write(b"\0")
        code = 0
    finally:
        os._exit(code)


def _receive_half(pipe, table: list) -> int | None:
    """Extend ``table`` by the child's values: the ']' offset it sent, or None on a refusal."""
    head = pipe.read(9)
    if head[:1] != b"\1":
        return None
    from array import array

    # Whole doubles per read, so no value is split between two reads.
    size = max(8, _READ_BYTES - _READ_BYTES % 8)
    while chunk := pipe.read(size):
        table += array("d", chunk)
    return int.from_bytes(head[1:], "little")


def _parse(fd: int, pos: int, table: list, stop: int | None = None) -> int | None:
    """Parse table values from offset ``pos`` onto ``table``, in pieces.

    It stops at the first ']' or, given ``stop``, at the comma there, and
    returns the offset it stopped at; it returns None if a piece is refused
    or the file ends first. Each piece is the bytes up to the last comma of a
    ``_READ_BYTES`` block, or up to where it stops.
    """
    buf = b""
    # Before ``new``, buf holds neither a comma nor a "]", so only the bytes
    # of each block are searched.
    while True:
        new = len(buf)
        size = _READ_BYTES if stop is None else min(_READ_BYTES, stop - pos)
        block = os.pread(fd, size, pos)
        pos += len(block)
        buf += block
        end = buf.find(b"]", new)
        done = end >= 0 or pos == stop
        if done:
            upto = end if end >= 0 else len(buf)
        elif not block:
            return None
        else:
            upto = buf.rfind(b",", new)
            if upto < 0:
                continue
        piece = _piece(buf[:upto])
        # Empty: a comma with no value before or after it, or an empty
        # table, which no instance has.
        if not piece:
            return None
        table += piece
        if done:
            return pos - len(buf) + upto
        buf = buf[upto + 1:]


def _piece(data: bytes) -> list:
    return json.loads("[" + data.decode("utf-8") + "]")


def _distinct_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key")
    return obj


def _load_whole(path) -> Instance:
    """Read and parse the whole file at once: any JSON layout, and every load error."""
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
    # The text is dead once parsed; free it before the table is built.
    del text
    return instance_from_json(obj)
