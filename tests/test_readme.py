"""The README's quick tour gives the values its comments state, its CLI
examples parse, and its cap list is complete and names only caps."""

import re
import shlex
from pathlib import Path

from matroid_greedy import caps
from matroid_greedy.cli import build_parser

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


def test_cli_examples_parse():
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("matroid-greedy ")]
    assert lines
    parser = build_parser()
    for line in lines:
        # An unknown option or a missing value makes argparse exit.
        parser.parse_args(shlex.split(line)[1:])


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


def test_cap_table_names_only_caps():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n- `MAX_")
    bullets = text[start : text.index("\n\n", start)]
    listed = re.findall(r"`(MAX_\w+) = (\d+)`", bullets)
    assert listed
    assert len(listed) == len(re.findall(r"`MAX_", bullets)), "a cap listed without its value"
    for name, value in listed:
        cap = getattr(caps, name, None)
        assert type(cap) is int and cap == int(value), name
