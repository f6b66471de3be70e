"""Library outputs on the seeded corpus match their pinned digests.

A mismatch names its (output kind, table kind) group; see ``tests/corpus.py``
for the cases and for how to re-pin. Every CLI run of the corpus also prints
strict JSON (no NaN or infinity token) with the keys and value types of a
small schema per command.
"""

import json

import corpus
from corpus import GOLDEN, changed, digests
from conftest import reject_constant


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


def _check_shape(obj, schema, where):
    """``obj`` has exactly the keys of ``schema``, each value of its type."""
    assert set(obj) == set(schema), where
    for key, kind in schema.items():
        assert isinstance(obj[key], kind), f"{where}.{key}"


TRACE = {
    "algorithm": str, "f_final": float, "f_initial": float, "final_set": list,
    "n": int, "rejected": list, "steps": list,
}
STEP = {"chosen": int, "marginal": float, "set_after": list, "t": int}
RATIOS = dict.fromkeys(
    ["alpha", "alpha_fg", "alpha_rg", "gamma", "gamma_cumulative", "gamma_fg", "gamma_rg",
     "strong_c"], float
) | {"id": str, "witnesses": dict}
VERIFY = {
    "checks": int, "failed": int, "instances": int, "passed": int, "records": list,
    "tolerance": float,
}
RECORD = {
    "N": int, "alpha": float, "forward": dict, "gamma": float, "id": str, "n": int,
    "reverse": dict,
}
# An infinite bound or achieved ratio is written as null.
CHECK = dict.fromkeys(["f_empty", "f_full", "f_greedy", "f_opt"], float) | {
    "achieved_ratio": (float, type(None)), "algorithm": str, "bound": (float, type(None)),
    "satisfied": bool,
}
INSTANCE = {"N": int, "function": dict, "id": str, "matroid": dict, "n": int, "seed": int}


def test_every_cli_run_prints_strict_json_of_its_schema():
    # parse_constant refuses NaN, Infinity and -Infinity, which RFC 8259 lacks.
    groups = set()
    for group, inst_id, code, out in corpus.cli_runs():
        where = f"{group} {inst_id}"
        assert code == 0, where
        payload = json.loads(out, parse_constant=reject_constant)
        groups.add(group)
        if group in ("run", "run-packed"):
            _check_shape(payload, {"forward": dict, "reverse": dict}, where)
            for trace in payload.values():
                _check_shape(trace, TRACE, where)
                for step in trace["steps"]:
                    _check_shape(step, STEP, where)
        elif group == "ratios":
            _check_shape(payload, RATIOS, where)
            assert set(payload["witnesses"]) == set(RATIOS) - {"id", "witnesses"}, where
        elif group == "gen":
            _check_shape(payload, INSTANCE, where)
        else:
            _check_shape(payload, VERIFY, where)
            for record in payload["records"]:
                _check_shape(record, RECORD, where)
                _check_shape(record["forward"], CHECK, where)
                _check_shape(record["reverse"], CHECK, where)
    assert groups == {*corpus.CLI_FILE_RUNS, *corpus.CLI_RUNS, "run-packed"}
