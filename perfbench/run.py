"""Benchmark for matroid-greedy: end-to-end op metrics and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload verify-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one after another
    python3 perfbench/run.py --pin-digests            # re-pin output digests for the seed

The load is one process, one thread and one caller in a closed loop: each op
starts after the previous one has returned and been checked. A run builds its
inputs from ``--seed`` (set-up, repeated ``SETUP_ROUNDS`` times), then runs
whole passes over its instance files until ``--seconds`` have elapsed. Every
op's output is checked; on the pinned seed its SHA-256 must also match
``digests.json``. Probes of a fixed reference computation run between ops
and, from a timer signal, inside them, so that each op's time is also read at
a fixed host speed (see ``HostSpeed``). With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` passes alternate untraced and traced,
and the last line carries the per-layer metrics of the traced passes.
Spans and full results are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_ROUNDS = 3
#: Repeats of the reference work in the probe that closes every timed block.
REF_REPEATS = 2
#: Nominal time of one repeat; normalized times are seconds at this host speed.
REF_SECONDS = 0.0025
#: Seconds between the one-repeat probes a timer signal runs inside a timed block.
PROBE_INTERVAL = 0.05
_REF_TEXT = json.dumps([i / 7 for i in range(4096)])
#: Candidate tail percentiles, highest first; the first with >= 10 ops beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Counters reported per op.
PER_OP_COUNTS = (
    "setfunc.evals",
    "matroids.indep_tests",
    "matroids.rank_calls",
    "greedy.bases_examined",
    "instances.load.bytes",
)


@dataclass
class OpResult:
    key: str
    #: Wall and CPU time of the op, net of the probes run inside it.
    wall: float
    cpu: float
    problems: list[str] = field(default_factory=list)
    #: Mean time of one reference repeat over the op (see ``HostSpeed``).
    ref: float = REF_SECONDS

    @property
    def norm(self) -> float:
        """Wall time at the nominal host speed."""
        return self.wall / self.ref * REF_SECONDS


def reference_work(repeats: int) -> None:
    """Fixed pure-Python work: JSON parsing and a subset-indexed loop over floats.

    It resembles the package's table loading and scans but uses nothing from
    the package, so a change to the package leaves its time alone.
    """
    for _ in range(repeats):
        values = json.loads(_REF_TEXT)
        best = 0.0
        for mask in range(1, len(values)):
            gain = values[mask] - values[mask ^ (mask & -mask)]
            if gain > best:
                best = gain


@dataclass
class Window:
    """A timed block: its wall and CPU time net of probes, and the reference time over it."""

    wall: float = 0.0
    cpu: float = 0.0
    ref: float = REF_SECONDS


class HostSpeed:
    """Probes of the host's momentary speed around and inside timed blocks.

    On a shared host the speed of a core drifts by half within a second or
    two, and CPU time drifts with it. Every block ``timed`` closes with a
    probe of REF_REPEATS repeats of ``reference_work``, which also opens the
    next block; with ``inside`` set, SIGALRM runs a one-repeat probe every
    PROBE_INTERVAL seconds while a block runs, which follows the host through
    long ops. A block's time net of its inside probes, over the reference
    time of all probes from its opening to its closing one, measures its work
    at a fixed host speed; a faster package lowers it as it lowers wall time.
    """

    def __init__(self) -> None:
        self.inside = True
        self._probes: list[tuple[float, float]] = []
        self._last = self._probe(REF_REPEATS)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def _probe(repeats: int) -> float:
        t0 = time.perf_counter()
        reference_work(repeats)
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work(1)
        self._probes.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def timed(self):
        window = Window()
        self._probes.clear()
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            yield window
        finally:
            if self.inside:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            end, cpu = time.perf_counter(), time.process_time() - cpu0
            # A signal still pending at the stop runs its probe after ``end``;
            # such a probe, and one left over from the previous block, is not in it.
            inside = [d for start, d in self._probes if t0 <= start < end]
            window.wall = end - t0 - sum(inside)
            window.cpu = cpu - sum(inside)
            after = self._probe(REF_REPEATS)
            total = self._last + sum(inside) + after
            window.ref = total / (2 * REF_REPEATS + len(inside))
            self._last = after


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def execute(workload, item, pins: dict | None, speed: HostSpeed) -> OpResult:
    """Time one op, then check it. Any failure is recorded, never raised.

    ``pins`` maps input keys to pinned output digests; None skips the digest check.
    """
    error = None
    with speed.timed() as window:
        try:
            raw = workload.run(item)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            error = exc
    result = OpResult(item.key, window.wall, window.cpu, ref=window.ref)
    if error is not None:
        result.problems = [f"op raised {error!r}"]
        return result
    try:
        text, result.problems = workload.check(item, raw)
    except Exception as exc:  # malformed output counts against the op, not the harness
        result.problems = [f"check raised {exc!r}"]
        return result
    if pins is not None and sha256(text) != pins.get(item.key):
        result.problems.append("output digest differs from the pinned one")
    return result


def set_up(cls, seed: int, workdir: Path, tracer, speed: HostSpeed):
    """Generate and save the inputs and warm up, ``SETUP_ROUNDS`` times.

    Returns the inputs, the timed window of each round and the warm-up op's problems.
    """
    from workloads import warmup_input

    windows = []
    for r in range(SETUP_ROUNDS):
        if tracer is not None:
            tracer.begin_op(f"setup-{r}")
        with speed.timed() as window:
            workload = cls()
            inputs = workload.make_inputs(seed, workdir)
            warm = warmup_input(seed, workdir)
            _, problems = workload.check(warm, workload.run(warm))
        windows.append(window)
        if tracer is not None:
            tracer.end_op()
    return inputs, windows, [f"warm-up {warm.key}: {p}" for p in problems]


@dataclass
class Pass:
    """One pass over every input."""

    index: int
    traced: bool
    results: list[OpResult]


def measure(workload, inputs, seconds: float, tracer, pins: dict | None,
            speed: HostSpeed) -> list[Pass]:
    """Run whole passes over ``inputs`` until ``seconds`` have elapsed.

    With a tracer, passes alternate untraced and traced, and the run ends
    after a traced one.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        tracing = tracer is not None and index % 2 == 1
        results = []
        if tracing:
            tracer.install()
        try:
            for item in inputs:
                if tracing:
                    tracer.begin_op(f"{index}:{item.key}")
                results.append(execute(workload, item, pins, speed))
                if tracing:
                    tracer.end_op()
        finally:
            if tracing:
                tracer.uninstall()
        passes.append(Pass(index, tracing, results))
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or tracing):
            return passes


def tail(walls: list[float]) -> dict | None:
    """Highest ladder percentile with at least ten ops beyond it (nearest rank)."""
    n = len(walls)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            value = sorted(walls)[math.ceil(p / 100.0 * n) - 1]
            return {"value": value, "unit": "s", "percentile": p, "samples": n}
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Setup:
    """Set-up time: imports once, then the median of the set-up rounds."""

    imports: Window
    rounds: list[Window]

    @property
    def wall_s(self) -> float:
        return self.imports.wall + statistics.median(w.wall for w in self.rounds)

    @property
    def norm_s(self) -> float:
        """The same at the nominal host speed."""
        rounds = [w.wall / w.ref for w in self.rounds]
        return (self.imports.wall / self.imports.ref + statistics.median(rounds)) * REF_SECONDS


def end_to_end(passes: list[Pass], setup: Setup) -> dict:
    """Op metrics of the untraced passes, at the nominal host speed.

    Each op's wall and CPU time is divided by the reference time over it and
    multiplied by REF_SECONDS; the same is done for the imports and each
    set-up round. On a host whose speed drifts by half within seconds this
    removes most of the drift, while a change to the package moves the
    numbers as it moves wall time. The times as measured are kept under
    ``wall.*``, and the median reference time under ``ref_s.p50``.
    """
    passes = [p for p in passes if not p.traced]
    results = [r for p in passes for r in p.results]
    walls = [r.wall for r in results]
    norms = [r.norm for r in results]
    n = len(results)
    failed = sum(1 for r in results if r.problems)
    metrics = {
        "ops_per_s": {"value": n / sum(norms), "unit": "ops/s"},
        "op_s.p50": {"value": statistics.median(norms), "unit": "s", "samples": n},
        "op_s.tail": tail(norms),
        "cpu_s_per_op": {"value": statistics.fmean(r.cpu / r.ref * REF_SECONDS for r in results),
                         "unit": "s"},
        "setup_s": {"value": setup.norm_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "failed_frac": {"value": failed / n, "unit": "ratio"},
        "wall.ops_per_s": {"value": n / sum(walls), "unit": "ops/s"},
        "wall.op_s.p50": {"value": statistics.median(walls), "unit": "s", "samples": n},
        "wall.cpu_s_per_op": {"value": sum(r.cpu for r in results) / n, "unit": "s"},
        "wall.setup_s": {"value": setup.wall_s, "unit": "s"},
        "ref_s.p50": {"value": statistics.median(r.ref for r in results), "unit": "s"},
    }
    return {k: v for k, v in metrics.items() if v is not None}


def per_layer(tracer, passes: list[Pass], setup_ops: dict[str, float]) -> dict:
    """Per-layer metrics of the traced passes; times are at the nominal host speed."""
    from tracer import SPAN_NAMES

    plain = [r.norm for p in passes if not p.traced for r in p.results]
    traced = [r.norm for p in passes if p.traced for r in p.results]
    n = len(traced)
    scale = {f"{p.index}:{r.key}": REF_SECONDS / r.ref for p in passes if p.traced for r in p.results}
    self_t = tracer.self_times(scale)
    counts = tracer.counts
    m = {
        "traced.op_s.mean": (statistics.fmean(traced), "s"),
        "tracing.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"),
    }
    per_op = [name for name in SPAN_NAMES if name != "instances.save"]
    for name in per_op:
        m[f"{name}.self_s"] = (self_t.get(name, 0.0) / n, "s")
    for module in dict.fromkeys(name.split(".")[0] for name in per_op if "." in name):
        total = sum(v for k, v in self_t.items() if k.split(".")[0] == module)
        m[f"{module}.self_s"] = (total / n, "s")
    for name in PER_OP_COUNTS:
        m[name] = (counts[name] / n, "bytes" if name.endswith(".bytes") else "count")
    m["matroids.base_yield"] = (_ratio(counts["matroids.bases"], counts["matroids.masks_tested"]), "ratio")
    m["greedy.rejected_frac"] = (_ratio(counts["greedy.rejected"], counts["greedy.considered"]), "ratio")
    setup_self = tracer.self_times(setup_ops)
    m["instances.save.self_s"] = (setup_self.get("instances.save", 0.0) / len(setup_ops), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def git_commit() -> str:
    """Commit of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def metadata(name: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "setup_rounds": SETUP_ROUNDS,
    }


def load_pins(seed: int, name: str) -> dict | None:
    """Pinned digests of this workload's ops, or None when the seed is not the pinned one."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if pinned["seed"] != seed:
        return None
    return pinned["workloads"].get(name, {})


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 speed: HostSpeed, imports: Window) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    tracer = Tracer() if trace else None
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Probes inside ops would land in the spans, so a traced run probes only between ops.
    speed.inside = tracer is None
    try:
        if tracer is not None:
            tracer.install()
        try:
            inputs, windows, warmup_problems = set_up(cls, seed, workdir, tracer, speed)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.counts.clear()
        workload = cls()
        pins = load_pins(seed, name)
        t0 = time.perf_counter()
        passes = measure(workload, inputs, seconds, tracer, pins, speed)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    results = [r for p in passes for r in p.results]
    setup = Setup(imports, windows)
    meta = metadata(name, seed, seconds, trace)
    meta.update(
        ops=len(results),
        passes=len(passes),
        elapsed_s=elapsed,
        import_s=imports.wall,
        setup_round_s=[w.wall for w in windows],
        setup_round_ref_s=[w.ref for w in windows],
        ref_seconds=REF_SECONDS,
        digests_checked=pins is not None,
        verify_failed_checks=getattr(workload, "bound_failures", None),
        problems=(warmup_problems + [f"{r.key}: {p}" for r in results for p in r.problems])[:20],
    )
    failed = sum(1 for r in results if r.problems)
    correct = failed == 0 and not warmup_problems
    record = {"meta": meta, "correct": correct, "attempted": len(results), "failed": failed}
    record["samples"] = [[p.index, r.key, r.wall, r.cpu, r.ref] for p in passes for r in p.results]
    if tracer is None:
        record["metrics"] = end_to_end(passes, setup)
    else:
        setup_ops = {f"setup-{r}": REF_SECONDS / w.ref for r, w in enumerate(windows)}
        record["metrics"] = per_layer(tracer, passes, setup_ops)
        record["spans"] = tracer.to_json()
        record["counts"] = dict(tracer.counts)
    return record


def write_record(record: dict) -> None:
    meta = record["meta"]
    OUT.mkdir(exist_ok=True)
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def report(record: dict) -> None:
    """Human-readable lines, then the one-line result as the last line."""
    meta, metrics = record["meta"], record["metrics"]
    print(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']}: "
          f"{record['attempted']} ops in {meta['elapsed_s']:.2f} s, {record['failed']} failed")
    op_mean = metrics.get("traced.op_s.mean", {}).get("value")
    for name, metric in metrics.items():
        extra = ""
        if "percentile" in metric:
            extra = f"  (p{metric['percentile']:g} of {metric['samples']} ops)"
        elif "samples" in metric:
            extra = f"  (median of {metric['samples']} ops)"
        elif op_mean and name.endswith(".self_s") and name != "instances.save.self_s":
            extra = f"  ({metric['value'] / op_mean:6.1%} of an op)"
        print(f"#   {name:38s} {metric['value']:.6g} {metric['unit']}{extra}")
    print("# meta " + json.dumps({k: v for k, v in meta.items() if k != "problems"}))
    for problem in meta["problems"]:
        print(f"# problem: {problem}")
    gated = gated_metric_names(meta["trace"])
    result = {k: record[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = {
        k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in gated
    }
    print(json.dumps(result), flush=True)


def gated_metric_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def pin_digests(seed: int) -> int:
    """Run one pass of every workload on ``seed`` and write its output digests."""
    from workloads import WORKLOADS

    pins: dict[str, dict[str, str]] = {}
    for name, cls in WORKLOADS.items():
        workdir = ROOT / ".perfbench_work" / f"pin-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = cls()
            pins[name] = {}
            for item in workload.make_inputs(seed, workdir):
                text, problems = workload.check(item, workload.run(item))
                if problems:
                    print(f"{name} {item.key}: {problems}", file=sys.stderr)
                    return 1
                pins[name][item.key] = sha256(text)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        workdir.parent.rmdir()
    DIGESTS.write_text(json.dumps({"seed": seed, "workloads": pins}, indent=2) + "\n",
                       encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "matroid_greedy").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no matroid_greedy sources under {SRC}", file=sys.stderr)
        return 2
    # The package must come from this checkout's sources, and the tolerance
    # must be the default one the digests were pinned with.
    os.environ.pop("MATROID_GREEDY_TOL", None)
    speed = HostSpeed()
    try:
        with speed.timed() as imports:
            sys.path.insert(0, str(SRC))
            from workloads import WORKLOADS  # imports the whole package
        return run_all(WORKLOADS, speed, imports, argv)
    finally:
        speed.close()


def run_all(workloads: dict, speed: HostSpeed, imports: Window, argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.pin_digests:
        return pin_digests(args.seed)
    for name in workloads if args.workload == "all" else [args.workload]:
        record = run_workload(name, args.seed, args.seconds, args.trace, speed, imports)
        write_record(record)
        report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
