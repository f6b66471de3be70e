"""The README's quick tour gives the values its comments state, and its cap list is complete."""

import re
from pathlib import Path

from matroid_greedy import caps

README = Path(__file__).parent.parent / "README.md"


def quick_tour_source():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_values():
    scope = {}
    exec(compile(quick_tour_source(), str(README), "exec"), scope)
    assert (scope["gamma"], scope["alpha"]) == (0.5, 0.5)
    trace = scope["trace"]
    assert (trace.final_set, trace.f_final) == (0b011, 3.0)
    opt = scope["opt"]
    assert (opt.optimum_value, opt.bases_examined) == (3.0, 3)
    record = scope["record"]
    assert (record.achieved_ratio, record.bound) == (1.0, 4.0)
    assert record.satisfied


def test_cap_table_lists_every_cap():
    text = README.read_text(encoding="utf-8")
    limits = {
        name: value
        for name, value in vars(caps).items()
        if name.startswith("MAX_") and type(value) is int
    }
    assert limits
    for name, value in limits.items():
        assert f"`{name} = {value}`" in text, name
