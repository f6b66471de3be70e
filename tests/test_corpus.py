"""Library outputs on the seeded corpus match their pinned digests, and do
not change when a case's table comes as an array('d').

A mismatch names its (output kind, table kind) group; see ``tests/corpus.py``
for the cases and for how to re-pin.
"""

import json
from array import array

import corpus
from corpus import GOLDEN, OUTPUTS, TABLES, _outcome, cases, changed, digests
from matroid_greedy import SetFunction


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


def test_double_array_tables_give_the_same_outputs():
    # Every case builds its function from a tuple; the same table as an
    # array('d'), as the loader decodes a packed file into, is kept as C
    # doubles until a scan reads ``values``.
    for kind in TABLES:
        for case_id, n, values, matroid, cardinality in cases(kind):
            for out, output in OUTPUTS.items():
                args = matroid, cardinality, case_id
                expected = _outcome(output, SetFunction(n, values), *args)
                got = _outcome(output, SetFunction(n, array("d", values)), *args)
                assert got == expected, f"{out}/{case_id}"
