"""Size caps of the exhaustive operations, one table by cost class.

Past its cap an operation raises GroundSetTooLargeError (CLI exit 5) before
its own scan starts. The cumulative ratio scan, and so ``ratios``, first
checks that the function is increasing: a non-increasing table over the cap
raises NonMonotoneError (exit 4), after the monotonicity scan and before any
ratio scan.
"""

from __future__ import annotations

from .errors import GroundSetTooLargeError

#: Value tables (2^n floats), which SetFunction enforces, and so every scan in
#: the n·2^n and n²·2^n classes: monotonicity, ratio_scan, strong curvature,
#: both greedy-restricted ratio scans, base enumeration and brute force.
MAX_TABLE_N = 20
#: The cumulative submodularity ratio: 3^n disjoint (S, R) pairs.
#: Exact bounds skip most S of bounded tables, but modular ones still cost 3^n.
MAX_CUMULATIVE_N = 16
#: The axiom check: all pairs of independent sets, up to 4^n.
MAX_AXIOM_N = 10
#: The bounded-marginal generator and the random suites: a verify per instance.
MAX_BOUNDED_N = 12
#: The adversarial max-plus generator: n·2^n.
MAX_EXPLICIT_RANDOM_N = 10
#: The region sweep: grid_size^2 cells, each kept as an object.
MAX_REGION_GRID = 1000
#: Dual/truncate wrappers per spec (SchemaError past it): a guard on recursion
#: in the spec parser, the builder and the nested rank maps.
MAX_SPEC_DEPTH = 4


def check_size(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise GroundSetTooLargeError(f"{what} is capped at n={cap}, got n={n}")
