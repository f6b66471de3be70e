"""Command-line interface: run, ratios, verify, region, gen.

All stdout payloads are JSON or CSV; diagnostics go to stderr. Exit codes:
0 success, 1 verification failure, 2 input/schema problems, 3 infeasible,
4 non-monotone function, 5 size over a cap; ``EXIT_CODES`` maps each
error kind to its code, and an ``--out`` path that cannot be written is an
input problem (2). ``verify --tol`` sets the relative verification
tolerance, 1e-9 by default.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
#: propagates.
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
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def trace_to_json(trace: GreedyTrace) -> dict:
    return {
        "algorithm": trace.algorithm,
        "n": trace.n,
        "steps": [
            {
                "t": s.t,
                "chosen": s.chosen,
                "marginal": s.marginal,
                "set_after": elements(s.set_after),
            }
            for s in trace.steps
        ],
        "rejected": [
            {"before_step": r.before_step, "element": r.element} for r in trace.rejected
        ],
        "final_set": elements(trace.final_set),
        "f_initial": trace.f_initial,
        "f_final": trace.f_final,
    }


def cmd_run(args) -> int:
    inst = load_instance(args.instance)
    matroid = inst.matroid()
    traces = {
        name: trace_to_json(run(inst.function, matroid, inst.cardinality))
        for name, run in PASSES.items()
        if args.algo in (name, "both")
    }
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
        payload[record["algorithm"]] = record
    return payload


def cmd_verify(args) -> int:
    tolerance = args.tol
    # An infinite tolerance would pass every check, and NaN is no JSON number.
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {tolerance}")
    if args.instance:
        instances = [load_instance(args.instance)]
    elif args.random:
        if args.count < 1:
            raise ValueError(f"--count must be >= 1, got {args.count}")
        instances = random_suite(args.count, args.n_min, args.n_max, args.seed)
    else:
        raise ValueError("verify needs --instance PATH or --random")
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
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
