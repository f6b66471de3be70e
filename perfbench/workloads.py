"""The benchmark's workloads: seeded inputs, the op each one times, its checks.

Every workload turns a seed into instance files (``make_inputs``), times one
op per file through a public entry point (``run``), and checks the op's
output (``check``). ``check`` returns the text whose SHA-256 is pinned for the
default seed, plus a list of broken invariants; an empty list means the op
passed. CLI ops call ``matroid_greedy.cli.main`` in-process with stdout and
stderr captured, so an op costs what a user's command costs, minus
interpreter start-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from matroid_greedy import cli, greedy, instances, matroids
from matroid_greedy.instances import Instance
from matroid_greedy.matroids import DualSpec, ExplicitSpec, GraphicSpec, PartitionSpec
from matroid_greedy.matroids import TruncateSpec, UniformSpec
from matroid_greedy.setfunc import SetFunction
from matroid_greedy.subsets import mask_of


@dataclass(frozen=True)
class Input:
    """One instance file and the generated instance it was saved from."""

    key: str
    path: Path
    instance: Instance


def save_all(generated: list[Instance], workdir: Path) -> list[Input]:
    out = []
    for inst in generated:
        path = workdir / f"{inst.id}.json"
        instances.save_instance(inst, path)
        out.append(Input(path.name, path, inst))
    return out


def warmup_input(seed: int, workdir: Path) -> Input:
    """Small instance that takes every workload's op through its code path once."""
    inst = instances.random_instance(6, random.Random(seed), "warmup")
    return save_all([inst], workdir)[0]


def call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _in_unit(payload: dict, fields) -> list[str]:
    return [
        f"{field}={payload[field]!r} outside [0, 1]"
        for field in fields
        if field in payload and not 0.0 <= payload[field] <= 1.0
    ]


def bounded_table(n: int, rng: random.Random, lo: float = 1.0, hi: float = 2.0) -> list[float]:
    """Bounded-marginal table, the formula of ``gen_bounded_marginal`` without its n cap."""
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return [0.0] + [mid * m.bit_count() + rng.uniform(0.0, half) for m in range(1, 1 << n)]


def relabeled_graph(shape: int, edges: int, vertices: int, rng: random.Random) -> GraphicSpec:
    """Connected multigraph of a fixed shape whose edge labels come from ``rng``.

    The shape (a spanning tree plus extra edges) depends only on ``shape``, so
    the matroid, and the work done on it, is the same up to relabeling for
    every seed; the seed picks which element is which edge.
    """
    build = random.Random(shape)
    out = [(build.randrange(i), i) for i in range(1, vertices)]
    while len(out) < edges:
        u, v = build.sample(range(vertices), 2)
        out.append((min(u, v), max(u, v)))
    rng.shuffle(out)
    return GraphicSpec(vertices, tuple(out))


def random_partition(n: int, blocks: int, cap: int, rng: random.Random) -> PartitionSpec:
    order = list(range(n))
    rng.shuffle(order)
    size = n // blocks
    return PartitionSpec(
        tuple(tuple(sorted(order[i : i + size])) for i in range(0, n, size)), (cap,) * blocks
    )


def instance_at_rank(inst_id: str, n: int, spec, rng: random.Random) -> Instance:
    f = SetFunction(n, bounded_table(n, rng))
    rank = matroids.build_matroid(spec, n).rank_full
    return Instance(inst_id, n, f, spec, rank)


class VerifyBatch:
    """``verify --instance`` over a stratified batch of random n=10..12 instances."""

    name = "verify-batch"
    #: Instances kept per ground-set size; equal counts keep the op mix, and so
    #: the medians, the same from seed to seed.
    per_n = 4

    def __init__(self) -> None:
        self.bound_failures = 0

    def make_inputs(self, seed: int, workdir: Path) -> list[Input]:
        suite = instances.random_suite(60, 10, 12, seed)
        by_n = {n: [inst for inst in suite if inst.n == n][: self.per_n] for n in (10, 11, 12)}
        if any(len(group) < self.per_n for group in by_n.values()):
            raise RuntimeError(f"seed {seed}: random_suite gave too few instances of some n")
        return save_all([inst for row in zip(*by_n.values()) for inst in row], workdir)

    def run(self, item: Input):
        return call_cli(["verify", "--instance", str(item.path)])

    def check(self, item: Input, raw) -> tuple[str, list[str]]:
        code, out = raw
        if code not in (0, 1):
            return out, [f"exit code {code}"]
        payload = json.loads(out)
        problems = []
        if payload["checks"] != 2 or payload["passed"] + payload["failed"] != 2:
            problems.append(f"check counts {payload['checks']}/{payload['passed']}/{payload['failed']}")
        if (code == 0) != (payload["failed"] == 0):
            problems.append(f"exit code {code} with {payload['failed']} failed checks")
        self.bound_failures += payload["failed"]
        for record in payload["records"]:
            problems += _in_unit(record, ("gamma", "alpha"))
            for side in ("forward", "reverse"):
                r = record[side]
                if r["f_opt"] > r["f_greedy"]:
                    problems.append(f"{side}: brute-force optimum {r['f_opt']!r} above greedy")
        return out, problems


class RatiosN12:
    """``ratios --greedy-variants --strong`` on random n=12 instances."""

    name = "ratios-n12"
    #: Three ops of about 10 s make one pass longer than a 20 s run, so every
    #: run times the same three files once.
    count = 3

    def make_inputs(self, seed: int, workdir: Path) -> list[Input]:
        rng = random.Random(seed)
        return save_all(
            [instances.random_instance(12, rng, f"r12-{seed}-{i}") for i in range(self.count)],
            workdir,
        )

    def run(self, item: Input):
        return call_cli(["ratios", "--instance", str(item.path), "--greedy-variants", "--strong"])

    def check(self, item: Input, raw) -> tuple[str, list[str]]:
        code, out = raw
        if code != 0:
            return out, [f"exit code {code}"]
        payload = json.loads(out)
        fields = ("gamma", "alpha", "gamma_cumulative", "strong_c")
        fields += ("gamma_fg", "alpha_fg", "gamma_rg", "alpha_rg")
        problems = [f"missing {f}" for f in fields if f not in payload]
        return out, problems + _in_unit(payload, fields)


class BasesN16:
    """Library greedy passes, brute force and witnesses on n=16 tables."""

    name = "bases-n16"

    def make_inputs(self, seed: int, workdir: Path) -> list[Input]:
        rng = random.Random(seed)
        n = 16
        specs = {
            "uniform": UniformSpec(8),
            "partition": random_partition(n, 4, 2, rng),
            "graphic": relabeled_graph(1, n, 9, rng),
            "dual-graphic": DualSpec(relabeled_graph(2, n, 9, rng)),
            "truncate-dual-partition": TruncateSpec(DualSpec(random_partition(n, 4, 2, rng)), 6),
        }
        generated = [instance_at_rank(f"b16-{seed}-{k}", n, s, rng) for k, s in specs.items()]
        forest = matroids.build_matroid(relabeled_graph(3, 10, 8, rng), 10)
        family = ExplicitSpec(frozenset(m for m in range(1 << 10) if forest.is_independent(m)))
        generated.append(instance_at_rank(f"b10-{seed}-explicit", 10, family, rng))
        return save_all(generated, workdir)

    def run(self, item: Input):
        inst = instances.load_instance(item.path)
        f, m, size = inst.function, inst.matroid(), inst.cardinality
        fwd = greedy.forward_greedy(f, m, size)
        rev = greedy.reverse_greedy(f, m, size)
        raf = greedy.reverse_greedy_as_forward(f, m, size)
        opt = greedy.brute_force_optimum(f, m, size)
        witness = greedy.ordering_witness(fwd, f, opt.optimum_set, m)
        axioms = matroids.check_axioms(m) if inst.n <= matroids.MAX_AXIOM_N else None
        return fwd, rev, raf, opt, witness, axioms

    def check(self, item: Input, raw) -> tuple[str, list[str]]:
        fwd, rev, raf, opt, witness, axioms = raw
        problems = []
        if dataclasses.replace(raf, algorithm=rev.algorithm) != rev:
            problems.append("reverse and reverse-as-forward traces differ")
        if not opt.optimum_value <= min(fwd.f_final, rev.f_final):
            problems.append(f"brute-force optimum {opt.optimum_value!r} above a greedy value")
        if axioms is not None and not axioms.all_ok:
            problems.append(f"axiom check failed: {axioms}")
        parts = [fwd, rev, raf, opt, witness] + ([axioms] if axioms else [])
        text = json.dumps([dataclasses.asdict(p) for p in parts], sort_keys=True)
        return text, problems


class RunN20:
    """``run --algo both`` on one n=20 table of 2^20 values."""

    name = "run-n20"

    def make_inputs(self, seed: int, workdir: Path) -> list[Input]:
        rng = random.Random(seed)
        spec = DualSpec(relabeled_graph(4, 20, 12, rng))
        return save_all([instance_at_rank(f"n20-{seed}", 20, spec, rng)], workdir)

    def run(self, item: Input):
        return call_cli(["run", "--instance", str(item.path), "--algo", "both"])

    def check(self, item: Input, raw) -> tuple[str, list[str]]:
        code, out = raw
        if code != 0:
            return out, [f"exit code {code}"]
        payload = json.loads(out)
        values = item.instance.function.values
        problems = []
        for side, start in (("forward", 0), ("reverse", len(values) - 1)):
            trace = payload[side]
            final = trace["final_set"]
            if len(final) != item.instance.cardinality:
                problems.append(f"{side}: final set has {len(final)} elements")
            if trace["f_initial"] != values[start] or trace["f_final"] != values[mask_of(final)]:
                problems.append(f"{side}: reported values differ from the table")
        return out, problems


WORKLOADS = {w.name: w for w in (VerifyBatch, RatiosN12, BasesN16, RunN20)}
