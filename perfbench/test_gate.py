"""Self-test of the benchmark's correctness gate.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
from workloads import RunN20, warmup_input  # noqa: E402


class OneUlpOff(RunN20):
    """The real op, with one marginal in the forward trace moved by one ulp."""

    def run(self, item):
        code, out = super().run(item)
        payload = json.loads(out)
        step = payload["forward"]["steps"][0]
        step["marginal"] = math.nextafter(step["marginal"], math.inf)
        return code, json.dumps(payload, indent=2, sort_keys=True) + "\n"


class Raising(RunN20):
    def run(self, item):
        raise RuntimeError("deliberate failure")


def test_altered_output_and_raising_op_count_as_failures(tmp_path):
    item = warmup_input(7, tmp_path)
    text, problems = RunN20().check(item, RunN20().run(item))
    assert problems == []
    pins = {item.key: bench.sha256(text)}

    speed = bench.HostSpeed()
    try:
        results = [bench.execute(w(), item, pins, speed) for w in (RunN20, OneUlpOff, Raising)]
        # Off the pinned seed only the invariants apply, and a one-ulp change keeps them.
        assert bench.execute(OneUlpOff(), item, None, speed).problems == []
    finally:
        speed.close()

    assert [r.problems for r in results[:2]] == [[], ["output digest differs from the pinned one"]]
    assert results[2].problems == ["op raised RuntimeError('deliberate failure')"]
    setup = bench.Setup(bench.Window(0.1, 0.1), [bench.Window(1.0, 1.0)])
    metrics = bench.end_to_end([bench.Pass(0, False, results)], setup)
    assert metrics["failed_frac"]["value"] == 2 / 3
