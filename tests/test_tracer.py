"""The benchmark tracer patches and restores every attribute it names.

``perfbench/tracer.py`` wraps package functions by name from outside the
package; a renamed or removed function breaks ``perfbench/run.py --trace 1``
with an AttributeError, which this test surfaces in the regular suite.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import METHOD_COUNTS, METHOD_SPANS, MODULES, SPANS, Tracer  # noqa: E402

from matroid_greedy import canonical_t3, cli, save_instance  # noqa: E402


def snapshot():
    holders = list(MODULES) + [cls for cls, _, _ in METHOD_SPANS + METHOD_COUNTS]
    return {(holder, key): value for holder in holders for key, value in vars(holder).items()}


def test_install_patches_and_uninstall_restores_everything():
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        patched = {(holder, key) for holder, key, _ in tracer._patches}
        for module, attr, _ in SPANS:
            assert (module, attr) in patched, f"{module.__name__}.{attr} was not wrapped"
        for cls, attr, _ in METHOD_SPANS + METHOD_COUNTS:
            assert (cls, attr) in patched, f"{cls.__name__}.{attr} was not wrapped"
        assert all(vars(holder)[key] is not before[holder, key] for holder, key in patched)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_cli_verify_goes_through_the_traced_verify_functions(tmp_path, capsys):
    # A CLI that called guarantees._verify would bypass the verify spans.
    path = tmp_path / "t3.json"
    save_instance(canonical_t3(), path)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "--instance", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = tracer.spans
    names = [span[0] for span in spans]
    verifies = [i for i, name in enumerate(names) if name == "guarantees.verify"]
    passes = sorted(
        [span[0] for span in spans if span[3] == i and span[0].startswith("greedy.")]
        for i in verifies
    )
    assert passes == [["greedy.forward"], ["greedy.reverse"]]
    assert names.count("greedy.brute_force") == 1
