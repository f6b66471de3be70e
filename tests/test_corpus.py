"""Library outputs on the seeded corpus match their pinned digests.

A mismatch names its (output kind, table kind) group; see ``tests/corpus.py``
for the cases and for how to re-pin.
"""

import json

import corpus
from corpus import GOLDEN, changed, digests


def test_outputs_match_pinned_digests():
    pinned = json.loads(GOLDEN.read_text())
    got = digests()
    assert not changed(pinned, got), f"corpus groups changed: {changed(pinned, got)}"
    assert got == pinned


def test_check_names_each_changed_group(monkeypatch, capsys):
    pinned = json.loads(GOLDEN.read_text())
    monkeypatch.setattr(corpus, "digests", lambda: pinned)
    assert corpus.main(["--check"]) == 0
    assert capsys.readouterr().out == "0 corpus groups differ from corpus.json\n"
    got = json.loads(GOLDEN.read_text())
    got["reverse_ratios"]["modular-tied"] = "0" * 64
    del got["cli"]["run"]
    monkeypatch.setattr(corpus, "digests", lambda: got)
    assert corpus.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "changed: cli/run",
        "changed: reverse_ratios/modular-tied",
        "2 corpus groups differ from corpus.json",
    ]

