"""Seeded output corpus: one SHA-256 per (output kind, table kind).

Every case is generated from a fixed ``random.Random`` seed, so no table is
stored. A case is a table of n <= 9 values of one kind, a random matroid spec
(30 % of them wrapped in a dual) and a target cardinality. Each output kind
runs on a fresh ``SetFunction`` of the case's table, so no memoized scan
carries over between kinds, and the ``repr`` of its result, or the type and
message of the error it raises, goes into its group's hash. ``repr``
round-trips floats and keeps the sign of zero, so a digest pins every bit.

The ``cli`` group hashes the exit code and stdout of in-process
``cli.main`` runs, one digest per command: ``run``, ``ratios`` and
``verify`` on a few seeded instance files written by ``save_instance``,
then one ``verify --random`` and one ``gen`` run, and ``run-packed``:
``run`` on an n=18 file, which ``save_instance`` writes packed.

``tests/test_corpus.py`` compares the digests against
``tests/golden/corpus.json``. To compare them without pytest (under any
Python the package supports), naming each group that differs, run::

    python tests/corpus.py --check

It exits 1 on a mismatch. To rewrite that file, run::

    python tests/corpus.py --pin

Re-pin only a group whose contract the change alters, and name it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from matroid_greedy import (  # noqa: E402
    DualSpec,
    SetFunction,
    brute_force_optimum,
    build_matroid,
    forward_greedy,
    gen_bounded_marginal,
    gen_explicit_random,
    gen_modular,
    ratio_scan,
    reverse_greedy,
    reverse_greedy_as_forward,
    verify_forward,
    verify_reverse,
)
from matroid_greedy.guarantees import (  # noqa: E402
    forward_greedy_ratios_detail,
    reverse_greedy_ratios_detail,
    strong_curvature_detail,
)
from matroid_greedy import cli  # noqa: E402
from matroid_greedy.instances import (  # noqa: E402
    _PACKED_N,
    random_instance,
    random_matroid_spec,
    save_instance,
)
from matroid_greedy.setfunc import cumulative_ratio_detail  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"

CASES_PER_KIND = 40
MAX_N = 9
DUAL_SHARE = 0.3


def _bounded(n, rng):
    lo = rng.choice([0.5, 1.0])
    return gen_bounded_marginal(n, lo, lo * rng.choice([1, 2, 4]), rng.randrange(1 << 30)).values


def _counts(n, rule):
    return [rule(mask.bit_count()) for mask in range(1 << n)]


def _signed_zero(n, rng):
    """Increasing steps from {0, 0.5, 1}, every zero with a random sign."""
    values = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        below = max(values[mask & ~(1 << j)] for j in range(n) if mask >> j & 1)
        values[mask] = below + rng.choice([0.0, 0.5, 1.0])
    return [rng.choice([0.0, -0.0]) if v == 0.0 else v for v in values]


def _capped(n, rng):
    """min(cap, modular): a plateau on which a reverse pass can gain nothing
    while the optimum lies below it, so the reverse ratio is a zero."""
    weights = [rng.choice([1, 2, 3]) for _ in range(n)]
    cap = rng.randint(1, max(1, sum(weights) // 2))
    return [float(min(cap, v)) for v in gen_modular(n, weights).values]


def overflowing_table(n, rng):
    """Increasing table from -1e308 up to 1.5e308: where f(V) is 1e308 or
    more, the value range and many marginals overflow to +inf."""
    values = [-1e308] * (1 << n)
    for mask in range(1, 1 << n):
        below = max(values[mask & ~(1 << j)] for j in range(n) if mask >> j & 1)
        values[mask] = max(below, rng.choice([-1e308, 0.0, 1e308, 1.5e308]))
    return values


def _parity(n, rng):
    """|S| plus w * ceil(|S & A| / 2) over five random sets A, w in {1, 2}.

    An element's marginal turns on the parity of |S & A|, so ratios tie at
    their minimum on kept sets of several sizes that do not nest, and which
    of them the reverse family reports is decided by its tie rule.
    """
    terms = [(rng.randrange(1 << n), rng.choice([1, 2])) for _ in range(5)]
    return [
        float(mask.bit_count() + sum(w * (((mask & a).bit_count() + 1) // 2) for a, w in terms))
        for mask in range(1 << n)
    ]


#: Increasing value-table makers, by table kind.
TABLES = {
    "bounded": _bounded,
    "max-plus": lambda n, rng: gen_explicit_random(n, rng.randrange(1 << 30)).values,
    "modular-tied": lambda n, rng: gen_modular(n, [rng.choice([1, 2, 3]) for _ in range(n)]).values,
    "square": lambda n, rng: _counts(n, lambda k: k * k),
    "half-floor": lambda n, rng: _counts(n, lambda k: k // 2),
    "tiny": lambda n, rng: [v * 1e-300 for v in _bounded(n, rng)],
    "overflow": overflowing_table,
    "capped": _capped,
    "signed-zero": _signed_zero,
    "parity": _parity,
}

#: Library outputs, by output kind: each maps (f, matroid, cardinality, id).
OUTPUTS = {
    "ratio_scan": lambda f, m, k, i: ratio_scan(f),
    "cumulative": lambda f, m, k, i: cumulative_ratio_detail(f),
    "strong_curvature": lambda f, m, k, i: strong_curvature_detail(f),
    "forward_greedy": lambda f, m, k, i: forward_greedy(f, m, k),
    "reverse_greedy": lambda f, m, k, i: reverse_greedy(f, m, k),
    "reverse_as_forward": lambda f, m, k, i: reverse_greedy_as_forward(f, m, k),
    "forward_ratios": lambda f, m, k, i: forward_greedy_ratios_detail(f, m, k),
    "reverse_ratios": lambda f, m, k, i: reverse_greedy_ratios_detail(
        f, m, k, reverse_greedy_as_forward(f, m, k)
    ),
    "brute_force": lambda f, m, k, i: brute_force_optimum(f, m, k, "min"),
    "verify_forward": lambda f, m, k, i: verify_forward(f, m, k, instance_id=i),
    "verify_reverse": lambda f, m, k, i: verify_reverse(f, m, k, instance_id=i),
}


def cases(kind: str):
    """The seeded (id, n, values, matroid, cardinality) cases of one table kind.

    Cardinalities run from 0 to the rank, and one case in twenty asks for
    rank + 1, so the infeasible errors are outputs too.
    """
    rng = random.Random(f"corpus-{kind}")
    for index in range(CASES_PER_KIND):
        n = rng.randint(1, MAX_N)
        values = tuple(TABLES[kind](n, rng))
        spec = random_matroid_spec(n, rng)
        if rng.random() < DUAL_SHARE:
            spec = DualSpec(spec)
        matroid = build_matroid(spec, n)
        rank = matroid.rank_full
        cardinality = rank + 1 if rng.random() < 0.05 else rng.randint(0, rank)
        yield f"{kind}-{index:02d}", n, values, matroid, cardinality


def _outcome(output, f, matroid, cardinality, case_id) -> str:
    try:
        return repr(output(f, matroid, cardinality, case_id))
    except Exception as exc:  # noqa: BLE001 - an error is an output too
        return f"{type(exc).__name__}: {exc}"


#: Ground-set sizes of the instance files the ``cli`` group runs on.
CLI_FILE_NS = (3, 5, 6, 8)

#: CLI commands run on each instance file, by group name.
CLI_FILE_RUNS = {
    "run": ["run", "--algo", "both"],
    "ratios": ["ratios", "--greedy-variants", "--strong"],
    "verify": ["verify"],
}

#: CLI runs that take no instance file, by group name.
CLI_RUNS = {
    "verify-random": ["verify", "--random", "--count", "5", "--n-min", "4", "--n-max", "6",
                      "--seed", "7"],
    "gen": ["gen", "--kind", "explicit", "--n", "4", "--seed", "1"],
}


def _cli_run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``cli.main`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_runs() -> Iterator[tuple[str, str | None, int, str]]:
    """(group, instance id or None, exit code, stdout) of every seeded CLI run."""
    rng = random.Random("corpus-cli")
    with tempfile.TemporaryDirectory() as tmp:
        for index, n in enumerate(CLI_FILE_NS):
            inst = random_instance(n, rng, f"cli-{index}")
            path = str(Path(tmp) / f"{inst.id}.json")
            save_instance(inst, path)
            for group, argv in CLI_FILE_RUNS.items():
                yield group, inst.id, *_cli_run([*argv, "--instance", path])
        # The first n that save_instance packs, so the loader hands the table
        # to SetFunction as an array of doubles.
        inst = random_instance(_PACKED_N, rng, "cli-packed")
        path = str(Path(tmp) / f"{inst.id}.json")
        save_instance(inst, path)
        yield "run-packed", inst.id, *_cli_run(["run", "--algo", "both", "--instance", path])
    for group, argv in CLI_RUNS.items():
        yield group, None, *_cli_run(argv)


def cli_digests() -> dict[str, str]:
    """{CLI group: SHA-256 hex digest} over the seeded CLI runs."""
    hashes = {group: hashlib.sha256() for group in [*CLI_FILE_RUNS, *CLI_RUNS, "run-packed"]}
    for group, inst_id, code, out in cli_runs():
        line = f"{code} {out}" if inst_id is None else f"{inst_id} {code} {out}\n"
        hashes[group].update(line.encode())
    return {group: h.hexdigest() for group, h in hashes.items()}


def digests() -> dict[str, dict[str, str]]:
    """{output kind: {table kind: SHA-256 hex digest}} over every case, and the
    ``cli`` group's {command: digest}."""
    hashes = {out: {kind: hashlib.sha256() for kind in TABLES} for out in OUTPUTS}
    for kind in TABLES:
        for case_id, n, values, matroid, cardinality in cases(kind):
            for out, output in OUTPUTS.items():
                line = _outcome(output, SetFunction(n, values), matroid, cardinality, case_id)
                hashes[out][kind].update(f"{case_id} {line}\n".encode())
    result = {out: {kind: h.hexdigest() for kind, h in row.items()} for out, row in hashes.items()}
    result["cli"] = cli_digests()
    return result


def changed(pinned: dict[str, dict[str, str]], got: dict[str, dict[str, str]]) -> list[str]:
    """The "output/kind" groups whose digests differ, or that only one side has."""
    return [
        f"{out}/{kind}"
        for out in sorted(pinned.keys() | got.keys())
        for kind in sorted(pinned.get(out, {}).keys() | got.get(out, {}).keys())
        if pinned.get(out, {}).get(kind) != got.get(out, {}).get(kind)
    ]


def main(argv: list[str]) -> int:
    if argv == ["--pin"]:
        GOLDEN.write_text(json.dumps(digests(), indent=2) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    if argv == ["--check"]:
        groups = changed(json.loads(GOLDEN.read_text()), digests())
        for group in groups:
            print(f"changed: {group}")
        print(f"{len(groups)} corpus groups differ from {GOLDEN.name}")
        return 1 if groups else 0
    print("usage: python tests/corpus.py --pin | --check", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
