"""Command-line interface: run, ratios, verify, region, gen.

All stdout payloads are strict JSON (no NaN or infinity token; ``verify``
writes an infinite bound or achieved ratio as null) or CSV; diagnostics go
to stderr. Exit codes: 0 success, 1 verification failure, 2 input/schema
problems, 3 infeasible, 4 non-monotone function, 5 size over a cap;
``EXIT_CODES`` maps each error kind to its code, and an ``--out`` path that
cannot be written is an input problem (2). ``verify --tol`` sets the
relative verification tolerance, 1e-9 by default. Output cut off by a closed
pipe (``gen ... | head``) ends the command with exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import (
    GroundSetTooLargeError,
    InfeasibleError,
    InvalidSpecError,
    NonMonotoneError,
    NotStrictlyIncreasingError,
    SchemaError,
)
from .greedy import GreedyTrace, brute_force_optimum, forward_greedy, reverse_greedy
from .guarantees import (
    DEFAULT_TOLERANCE,
    RegionGrid,
    analyze_ratios,
    region_compare,
    verify_forward,
    verify_reverse,
)
from .instances import (
    Instance,
    _instance_text,
    gen_bounded_marginal,
    gen_explicit_random,
    gen_modular,
    load_instance,
    random_suite,
    save_instance,
)
from .matroids import UniformSpec
from .setfunc import ratio_scan
from .subsets import elements

#: Exit code of each error kind reported as one ``error:`` line, first match
#: wins; any other exception (WitnessFailureError, TraceMismatchError, ...)
#: propagates. A reader that closes stdout early (BrokenPipeError) ends
#: ``console_main`` with exit 1, Python's own code for it, and no message.
EXIT_CODES = {
    SchemaError: 2,
    InvalidSpecError: 2,
    ValueError: 2,
    InfeasibleError: 3,
    NonMonotoneError: 4,
    NotStrictlyIncreasingError: 4,
    GroundSetTooLargeError: 5,
}

PASSES = {"forward": forward_greedy, "reverse": reverse_greedy}


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SchemaError(f"{out}: cannot write output file ({exc})") from exc
    else:
        sys.stdout.write(text)


def _dump(payload, out: str | None) -> None:
    # RFC 8259 has no number for NaN or an infinity: one reaching here is a
    # program error (ValueError), never a bare token on stdout.
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def trace_to_json(trace: GreedyTrace) -> dict:
    record = asdict(trace)
    for step in record["steps"]:
        step["set_after"] = elements(step["set_after"])
    record["final_set"] = elements(record["final_set"])
    return record


def cmd_run(args) -> int:
    inst = load_instance(args.instance)
    matroid = inst.matroid()
    traces = {}
    for name, run in PASSES.items():
        if args.algo in (name, "both"):
            trace = run(inst.function, matroid, inst.cardinality)
            # A table's values are finite, but a marginal between two of
            # them can overflow, and JSON has no number for infinity.
            for step in trace.steps:
                if not math.isfinite(step.marginal):
                    raise ValueError(
                        f"{name} step {step.t}: marginal {step.marginal} overflows a float"
                    )
            traces[name] = trace_to_json(trace)
    _dump(traces if args.algo == "both" else traces[args.algo], args.out)
    return 0


def cmd_ratios(args) -> int:
    inst = load_instance(args.instance)
    report, witnesses = analyze_ratios(
        inst.function,
        inst.matroid(),
        inst.cardinality,
        include_greedy=args.greedy_variants,
        include_strong=args.strong,
    )
    payload = {k: v for k, v in asdict(report).items() if v is not None}
    payload["id"] = inst.id
    payload["witnesses"] = witnesses
    _dump(payload, args.out)
    return 0


def _verify_one(inst: Instance, tolerance: float) -> dict:
    scan = ratio_scan(inst.function)
    matroid = inst.matroid()
    optimum = brute_force_optimum(inst.function, matroid, inst.cardinality, "min")
    payload = {
        "id": inst.id,
        "n": inst.n,
        "N": inst.cardinality,
        "gamma": scan.gamma,
        "alpha": scan.alpha,
    }
    for check in (verify_forward, verify_reverse):
        record = asdict(
            check(inst.function, matroid, inst.cardinality, tolerance=tolerance, optimum=optimum)
        )
        del record["instance_id"]
        # An infinite bound (gamma = 0 or alpha = 1) or forward ratio (the
        # pass misses an optimum equal to f(empty)) is written as null.
        for key in ("achieved_ratio", "bound"):
            if record[key] == math.inf:
                record[key] = None
        payload[record["algorithm"]] = record
    return payload


def cmd_verify(args) -> int:
    tolerance = args.tol
    # An infinite tolerance would pass every check, and NaN is no JSON number.
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {tolerance}")
    if bool(args.instance) == args.random:
        raise ValueError("verify needs --instance PATH or --random, not both")
    if args.instance:
        instances = [load_instance(args.instance)]
    else:
        if args.count < 1:
            raise ValueError(f"--count must be >= 1, got {args.count}")
        instances = random_suite(args.count, args.n_min, args.n_max, args.seed)
    records = [_verify_one(inst, tolerance) for inst in instances]
    checks = 2 * len(records)
    passed = sum(
        int(r["forward"]["satisfied"]) + int(r["reverse"]["satisfied"]) for r in records
    )
    payload = {
        "instances": len(records),
        "checks": checks,
        "passed": passed,
        "failed": checks - passed,
        "tolerance": tolerance,
        "records": records,
    }
    _dump(payload, args.out)
    return 0 if passed == checks else 1


def region_to_csv(grid: RegionGrid) -> str:
    lines = ["alpha,gamma,forward_ub,reverse_ub,winner"]
    for row in grid.cells:
        for cell in row:
            lines.append(
                f"{cell.alpha},{cell.gamma},{cell.forward_ub},{cell.reverse_ub},{cell.winner}"
            )
    return "\n".join(lines) + "\n"


def cmd_region(args) -> int:
    grid = region_compare(args.fempty, args.ffull, args.fstar, args.grid)
    _emit(region_to_csv(grid), args.out)
    return 0


def cmd_gen(args) -> int:
    if args.kind == "modular":
        if not args.weights:
            raise ValueError("gen --kind modular needs --weights")
        weights = [float(w) for w in args.weights.split(",")]
        f = gen_modular(args.n, weights)
    elif args.kind == "bounded":
        f = gen_bounded_marginal(args.n, args.lo, args.hi, args.seed)
    else:
        f = gen_explicit_random(args.n, args.seed)
    rank = args.rank if args.rank is not None else max(1, args.n // 2)
    cardinality = args.cardinality if args.cardinality is not None else rank
    inst_id = args.id or f"{args.kind}-n{args.n}-s{args.seed}"
    inst = Instance(inst_id, args.n, f, UniformSpec(rank), cardinality, seed=args.seed)
    rank_full = inst.matroid().rank_full
    # The loader's rule: 1 <= N <= rank, so every command accepts the file.
    if not 1 <= cardinality <= rank_full:
        source = "" if args.cardinality is not None else " from --rank (no --cardinality given)"
        raise ValueError(
            f"cardinality must lie in 1..{rank_full}, the matroid rank, got {cardinality}{source}"
        )
    if args.out:
        save_instance(inst, args.out)
        _dump({"path": args.out, "id": inst.id}, None)
    else:
        sys.stdout.writelines(_instance_text(inst))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroid-greedy",
        description="Greedy minimization over matroid bases with guarantee verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a greedy pass on an instance file")
    run.add_argument("--instance", required=True)
    run.add_argument("--algo", choices=[*PASSES, "both"], default="both")
    run.add_argument("--out")

    ratios = sub.add_parser("ratios", help="exhaustive ratio analysis of an instance")
    ratios.add_argument("--instance", required=True)
    ratios.add_argument("--greedy-variants", action="store_true")
    ratios.add_argument("--strong", action="store_true")
    ratios.add_argument("--out")

    verify = sub.add_parser("verify", help="check both guarantees against brute force")
    verify.add_argument("--instance")
    verify.add_argument("--random", action="store_true")
    verify.add_argument("--count", type=int, default=20)
    verify.add_argument("--n-min", type=int, default=4)
    verify.add_argument("--n-max", type=int, default=8)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    verify.add_argument("--out")

    region = sub.add_parser("region", help="guarantee-comparison grid as CSV")
    region.add_argument("--fstar", type=float, required=True)
    region.add_argument("--fempty", type=float, default=-1.0)
    region.add_argument("--ffull", type=float, default=1.0)
    region.add_argument("--grid", type=int, default=100)
    region.add_argument("--out")

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", choices=["modular", "bounded", "explicit"], required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--weights")
    gen.add_argument("--lo", type=float, default=1.0)
    gen.add_argument("--hi", type=float, default=2.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--rank", type=int, default=None)
    gen.add_argument("--cardinality", type=int, default=None)
    gen.add_argument("--id")
    gen.add_argument("--out")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process; each parse_args call fills a fresh namespace.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # The parser outlives any one call, so the command is looked up by name
    # at each call, like every other module global.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


def console_main() -> None:
    try:
        code = main()
        # Flush here, so a closed pipe raises inside this try.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot raise as well (the SIGPIPE note in the signal docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
