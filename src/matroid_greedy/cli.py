"""Command-line interface: run, ratios, verify, region, gen.

All stdout payloads are JSON or CSV; diagnostics go to stderr. Exit codes:
0 success, 1 verification failure, 2 input/schema problems, 3 infeasible,
4 non-monotone function, 5 ground set too large. The MATROID_GREEDY_TOL
environment variable overrides the default 1e-9 verification tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
    gen_bounded_marginal,
    gen_explicit_random,
    gen_modular,
    instance_to_json,
    load_instance,
    random_suite,
    save_instance,
)
from .matroids import UniformSpec
from .setfunc import ratio_scan
from .subsets import elements

ENV_TOLERANCE = "MATROID_GREEDY_TOL"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(payload, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _tolerance(args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get(ENV_TOLERANCE)
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise ValueError(f"{ENV_TOLERANCE} is not a number: {env!r}") from exc
    return DEFAULT_TOLERANCE


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


def _witness_json(witness) -> object:
    if witness is None:
        return None
    if isinstance(witness, tuple):
        return list(witness)
    return witness


def cmd_run(args) -> int:
    inst = load_instance(args.instance)
    matroid = inst.matroid()
    payload: dict
    if args.algo == "forward":
        payload = trace_to_json(forward_greedy(inst.function, matroid, inst.cardinality))
    elif args.algo == "reverse":
        payload = trace_to_json(reverse_greedy(inst.function, matroid, inst.cardinality))
    else:
        payload = {
            "forward": trace_to_json(forward_greedy(inst.function, matroid, inst.cardinality)),
            "reverse": trace_to_json(reverse_greedy(inst.function, matroid, inst.cardinality)),
        }
    _dump(payload, args.out)
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
    payload = {"id": inst.id}
    for field in (
        "gamma",
        "alpha",
        "gamma_cumulative",
        "strong_c",
        "gamma_fg",
        "alpha_fg",
        "gamma_rg",
        "alpha_rg",
    ):
        value = getattr(report, field)
        if value is not None:
            payload[field] = value
    payload["witnesses"] = {k: _witness_json(v) for k, v in witnesses.items()}
    _dump(payload, args.out)
    return 0


def _verify_one(inst: Instance, tolerance: float) -> dict:
    scan = ratio_scan(inst.function)
    matroid = inst.matroid()
    optimum = brute_force_optimum(inst.function, matroid, inst.cardinality, "min")
    fwd = verify_forward(
        inst.function,
        matroid,
        inst.cardinality,
        instance_id=inst.id,
        tolerance=tolerance,
        ratios=(scan.gamma, scan.alpha),
        optimum=optimum,
    )
    rev = verify_reverse(
        inst.function,
        matroid,
        inst.cardinality,
        instance_id=inst.id,
        tolerance=tolerance,
        ratios=(scan.gamma, scan.alpha),
        optimum=optimum,
    )
    def record(r):
        return {
            "algorithm": r.algorithm,
            "achieved_ratio": r.achieved_ratio,
            "bound": r.bound,
            "satisfied": r.satisfied,
            "f_empty": r.f_empty,
            "f_full": r.f_full,
            "f_greedy": r.f_greedy,
            "f_opt": r.f_opt,
        }
    return {
        "id": inst.id,
        "n": inst.n,
        "N": inst.cardinality,
        "gamma": scan.gamma,
        "alpha": scan.alpha,
        "forward": record(fwd),
        "reverse": record(rev),
    }


def cmd_verify(args) -> int:
    tolerance = _tolerance(args)
    if args.instance:
        instances = [load_instance(args.instance)]
    elif args.random:
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
    if cardinality < 0:
        raise InvalidSpecError(f"truncation bound must be >= 0, got {cardinality}")
    if inst.matroid().rank_full < cardinality:
        raise ValueError(f"cardinality {cardinality} exceeds the matroid rank {rank}")
    if args.out:
        save_instance(inst, args.out)
        _dump({"path": args.out, "id": inst.id}, None)
    else:
        _dump(instance_to_json(inst), None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroid-greedy",
        description="Greedy minimization over matroid bases with guarantee verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a greedy pass on an instance file")
    run.add_argument("--instance", required=True)
    run.add_argument("--algo", choices=["forward", "reverse", "both"], default="both")
    run.add_argument("--out")
    run.set_defaults(func=cmd_run)

    ratios = sub.add_parser("ratios", help="exhaustive ratio analysis of an instance")
    ratios.add_argument("--instance", required=True)
    ratios.add_argument("--greedy-variants", action="store_true")
    ratios.add_argument("--strong", action="store_true")
    ratios.add_argument("--out")
    ratios.set_defaults(func=cmd_ratios)

    verify = sub.add_parser("verify", help="check both guarantees against brute force")
    verify.add_argument("--instance")
    verify.add_argument("--random", action="store_true")
    verify.add_argument("--count", type=int, default=20)
    verify.add_argument("--n-min", type=int, default=4)
    verify.add_argument("--n-max", type=int, default=8)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=None)
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    region = sub.add_parser("region", help="guarantee-comparison grid as CSV")
    region.add_argument("--fstar", type=float, required=True)
    region.add_argument("--fempty", type=float, default=-1.0)
    region.add_argument("--ffull", type=float, default=1.0)
    region.add_argument("--grid", type=int, default=100)
    region.add_argument("--out")
    region.set_defaults(func=cmd_region)

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
    gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, InvalidSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NonMonotoneError, NotStrictlyIncreasingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GroundSetTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
