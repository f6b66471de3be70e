"""Check the ratio scan at n = 18..20, where no frozenset oracle runs.

From the repository root, with Python 3.11 or later::

    python research/sample_ratios.py

It needs the standard library alone and is not part of tier-1. Two kinds of
table are checked, ``gen_bounded_marginal(n, 1.0, 3.0, seed=n)`` and the
max-plus ``gen_explicit_random(n, seed=n)``:

- **Sampler** (n = 20). ``ratio_scan`` reports gamma and alpha with a
  witness (S, R, j) each. The script draws ``SAMPLES`` random triples, j
  uniform, R uniform over the subsets avoiding j and S uniform over the
  submasks of R, and computes d(X) = f(X + j) - f(X) as the scan does. No
  d(S) / d(R) with d(R) > 0 may lie below the gamma witness's own ratio, and
  no d(R) / d(S) with d(S) > 0 below the alpha witness's. Each witness's
  ratio is recomputed from the table, and must give the reported gamma (up to
  the clamp into [0, 1]) and 1 - alpha. The scan's minimum is taken over the
  same rounded divisions, so the comparisons are exact.
- **Fold-first cross-check** (n = 18 and 20). With ``setfunc._PAIR_BUDGET``
  set to 0, every walked element is redone at once by subset transforms, so
  the walks, the picking and the budget logic drop out. Gamma, alpha and both
  witnesses must match the pruned scan on a fresh function of the same table:
  by ``float.hex``, or as floats where the table holds a -0.0. The two paths
  share the marginal pass, which the sampler checks.

One line per check gives its verdict and time. The exit status is 1 on any
mismatch, else 0.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matroid_greedy import SetFunction, ratio_scan, setfunc  # noqa: E402
from matroid_greedy.instances import gen_bounded_marginal, gen_explicit_random  # noqa: E402

SAMPLES = 10**6
SAMPLE_N = 20
FOLD_NS = (18, 20)
KINDS = {
    "bounded": lambda n: gen_bounded_marginal(n, 1.0, 3.0, seed=n),
    "max-plus": lambda n: gen_explicit_random(n, seed=n),
}


def witness_ratio(vals, witness, curvature: bool) -> float:
    """The ratio the scan reports for its witness (S, R, j), recomputed."""
    small, big, j = witness
    bit = 1 << j
    if small & ~big or big & bit:
        return math.nan
    d_small = vals[small | bit] - vals[small]
    d_big = vals[big | bit] - vals[big]
    return d_big / d_small if curvature else d_small / d_big


def sample(f: SetFunction, seed: int) -> tuple[list[str], str]:
    """Draw SAMPLES triples against f's witnesses; return the first failures and the counts."""
    scan = ratio_scan(f)
    vals, n = f.values, f.n
    failures = []
    g_min = a_min = math.inf
    if scan.gamma_witness is not None:
        g_min = witness_ratio(vals, scan.gamma_witness, curvature=False)
        if min(1.0, max(0.0, g_min)) != scan.gamma:
            failures.append(f"gamma {scan.gamma!r} but its witness gives {g_min!r}")
    if scan.alpha_witness is not None:
        a_min = witness_ratio(vals, scan.alpha_witness, curvature=True)
        if 1.0 - min(1.0, max(0.0, a_min)) != scan.alpha:
            failures.append(f"alpha {scan.alpha!r} but its witness gives {a_min!r}")
    rng = random.Random(seed)
    bits = rng.getrandbits
    g_tested = a_tested = 0
    for _ in range(SAMPLES):
        j = rng.randrange(n)
        bit = 1 << j
        big = bits(n) & ~bit
        small = bits(n) & big
        d_small = vals[small | bit] - vals[small]
        d_big = vals[big | bit] - vals[big]
        if d_big > 0.0:
            g_tested += 1
            if d_small / d_big < g_min:
                failures.append(f"d(S)/d(R) = {d_small / d_big!r} below gamma at {(small, big, j)}")
        if d_small > 0.0:
            a_tested += 1
            if d_big / d_small < a_min:
                failures.append(f"d(R)/d(S) = {d_big / d_small!r} below alpha at {(small, big, j)}")
        if len(failures) >= 10:
            break
    return failures, f"{g_tested} gamma and {a_tested} alpha ratios tested"


def has_negative_zero(f: SetFunction) -> bool:
    return any(math.copysign(1.0, v) < 0.0 for v in f.values if v == 0.0)


def fold_first(f: SetFunction) -> tuple[list[str], str]:
    """Compare the pruned scan of f with a fold-first scan of the same table."""
    start = time.perf_counter()
    pruned = ratio_scan(f)
    middle = time.perf_counter()
    budget = setfunc._PAIR_BUDGET
    setfunc._PAIR_BUDGET = 0
    try:
        folded = ratio_scan(SetFunction(f.n, f.values))
    finally:
        setfunc._PAIR_BUDGET = budget
    end = time.perf_counter()
    key = (lambda x: x) if has_negative_zero(f) else float.hex
    failures = []
    for name in ("gamma", "alpha"):
        a, b = getattr(pruned, name), getattr(folded, name)
        if key(a) != key(b):
            failures.append(f"{name}: pruned {a!r}, fold-first {b!r}")
    for name in ("gamma_witness", "alpha_witness"):
        a, b = getattr(pruned, name), getattr(folded, name)
        if a != b:
            failures.append(f"{name}: pruned {a}, fold-first {b}")
    return failures, f"pruned scan {middle - start:.2f} s, fold-first {end - middle:.2f} s"


def report(label: str, run) -> bool:
    start = time.perf_counter()
    failures, detail = run()
    seconds = time.perf_counter() - start
    verdict = "MISMATCH" if failures else "ok"
    print(f"{label}: {verdict} ({detail}; {seconds:.1f} s)", flush=True)
    for line in failures:
        print(f"  {line}")
    return not failures


def main() -> int:
    ok = True
    for kind, make in KINDS.items():
        f = make(SAMPLE_N)
        scan = ratio_scan(f)
        print(f"{kind} n={SAMPLE_N}: gamma {scan.gamma!r} at {scan.gamma_witness}, "
              f"alpha {scan.alpha!r} at {scan.alpha_witness}")
        ok &= report(f"  sampler, {SAMPLES} triples", lambda: sample(f, seed=SAMPLE_N))
        del f
    for n in FOLD_NS:
        for kind, make in KINDS.items():
            ok &= report(f"fold-first {kind} n={n}", lambda: fold_first(make(n)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
