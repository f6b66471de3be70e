import contextlib
import io
import json
import math
import random
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import matroid_greedy
from matroid_greedy import cli, guarantees, matroids, setfunc
from matroid_greedy.cli import main
from matroid_greedy.errors import (
    GroundSetTooLargeError,
    InfeasibleError,
    InfeasibleInstanceError,
    InvalidSpecError,
    NonMonotoneError,
    NotStrictlyIncreasingError,
    SchemaError,
    TraceMismatchError,
    WitnessFailureError,
)
from matroid_greedy.caps import MAX_SPEC_DEPTH
from matroid_greedy.instances import (
    Instance,
    canonical_t3,
    gen_bounded_marginal,
    gen_modular,
    instance_to_json,
    load_instance,
    random_instance,
    save_instance,
)
from matroid_greedy.matroids import ExplicitSpec, UniformSpec, build_matroid
from matroid_greedy.setfunc import SetFunction

from conftest import GOLDEN_DIR, reject_constant


@pytest.fixture
def t3_path(tmp_path):
    path = tmp_path / "t3.json"
    save_instance(canonical_t3(), path)
    return str(path)


@pytest.fixture(scope="module")
def n17_path(tmp_path_factory):
    """A strictly increasing, non-modular n=17 instance: above the cumulative cap only."""
    f = gen_bounded_marginal(17, 1.25, 1.75, seed=17)
    path = tmp_path_factory.mktemp("n17") / "n17.json"
    save_instance(Instance("n17", 17, f, UniformSpec(3), 3), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Imports every module of the package, runs ``ratios`` and prints which of the
# array libraries ended up loaded.
_DEPENDENCY_PROBE = """
import contextlib, importlib, io, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import matroid_greedy
for module in pkgutil.iter_modules(matroid_greedy.__path__):
    importlib.import_module(f"matroid_greedy.{module.name}")
from matroid_greedy import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["ratios", "--instance", sys.argv[2], "--greedy-variants", "--strong"])
print(code, sorted({"numpy", "scipy"} & set(sys.modules)))
"""


def test_package_loads_no_array_library(t3_path):
    # The package is pure Python: numpy and scipy may be installed, but no
    # module of it may import them, directly or through another library.
    src = str(Path(matroid_greedy.__file__).resolve().parent.parent)
    probe = [sys.executable, "-I", "-c", _DEPENDENCY_PROBE, src, t3_path]
    done = subprocess.run(probe, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "[]"]


class TestRun:
    def test_forward(self, capsys, t3_path):
        code, out, err = run_cli(capsys, "run", "--instance", t3_path, "--algo", "forward")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["final_set"] == [0, 1]
        assert payload["f_final"] == 3.0
        assert [s["chosen"] for s in payload["steps"]] == [1, 0]

    def test_reverse(self, capsys, t3_path):
        code, out, _ = run_cli(capsys, "run", "--instance", t3_path, "--algo", "reverse")
        assert code == 0
        payload = json.loads(out)
        assert payload["final_set"] == [1, 2]
        assert payload["f_final"] == 3.0

    def test_both(self, capsys, t3_path):
        code, out, _ = run_cli(capsys, "run", "--instance", t3_path)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"forward", "reverse"}

    def test_packed_table_is_never_built_into_floats(self, capsys, tmp_path, monkeypatch):
        # Both passes read O(n^2) values of a packed n=18 file through calls.
        # Its table stays one 2 MB array('d'), and the run peaks where the
        # load does (5.6 MB); 2^18 float objects alone would add 6.3 MB.
        f = gen_bounded_marginal(18, 1.0, 2.5, seed=18)
        path = tmp_path / "p18.json"
        save_instance(Instance("p18", 18, f, UniformSpec(9), 9), path)
        del f
        loaded = []
        monkeypatch.setattr(cli, "load_instance", lambda p: loaded.append(load_instance(p)) or loaded[0])
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "run", "--instance", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and set(json.loads(out)) == {"forward", "reverse"}
        values = loaded[0].function.values
        assert type(values) is array and values.typecode == "d"
        assert peak < 8_000_000

    def test_bad_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--instance", str(bad))
        assert code == 2 and out == "" and err != ""

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--instance", str(tmp_path / "nope.json"))
        assert code == 2 and "cannot read" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--instance", "{t3}"],
            ["ratios", "--instance", "{t3}"],
            ["verify", "--instance", "{t3}"],
            ["region", "--fstar", "0", "--grid", "3"],
        ],
        ids=["run", "ratios", "verify", "region"],
    )
    def test_unwritable_out_exits_2(self, capsys, tmp_path, t3_path, argv):
        target = tmp_path / "missing" / "out.json"
        argv = [a.replace("{t3}", t3_path) for a in argv]
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {target}: cannot write output file (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "values,algo",
        [
            ([-1e308, 1e308, 1e308, 1.5e308], "forward"),
            ([-1e308, 1e308, 1e308, 1.5e308], "both"),
            ([0.0, -1e308, -1e308, 1e308], "reverse"),
            ([0.0, -1e308, -1e308, 1e308], "both"),
        ],
        ids=["forward", "both", "reverse-not-increasing", "both-not-increasing"],
    )
    def test_overflowing_marginal_exits_2(self, capsys, tmp_path, values, algo):
        # On the second table f(V) - f(empty) is finite, yet the reverse
        # pass's marginal f(V) - f(V - 0) is not.
        path = tmp_path / "overflow.json"
        save_instance(Instance("big", 2, SetFunction(2, values), UniformSpec(1), 1), path)
        out_path = tmp_path / "out.json"
        code, out, err = run_cli(
            capsys, "run", "--instance", str(path), "--algo", algo, "--out", str(out_path)
        )
        assert code == 2 and out == "" and not out_path.exists()
        assert err.startswith("error: ") and "overflows a float" in err
        assert err.count("\n") == 1
        assert run_cli(capsys, "run", "--instance", str(path), "--algo", algo)[:2] == (2, "")

    def test_infeasible_exits_3(self, capsys, tmp_path):
        import json as j

        obj = j.loads((GOLDEN_DIR / "explicit_random_n3_seed42.json").read_text())
        obj["matroid"]["rank"] = 2
        obj["N"] = 3
        path = tmp_path / "infeasible.json"
        path.write_text(j.dumps(obj), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--instance", str(path))
        assert code == 3 and err != ""


def t3_with_spec(tmp_path, spec, name="spec"):
    """The T3 instance file with the matroid spec given as JSON text."""
    path = tmp_path / f"{name}.json"
    path.write_text(
        '{"id": "T3", "n": 3, "function": {"kind": "explicit", '
        '"values": [0, 2, 1, 3, 1, 3, 3, 4]}, "matroid": %s, "N": 2, "seed": null}' % spec,
        encoding="utf-8",
    )
    return str(path)


def nested_t3(tmp_path, kind, depth):
    """The T3 instance file with its uniform spec wrapped ``depth`` times."""
    wrap = {"dual": '{"kind": "dual", "of": ', "truncate": '{"kind": "truncate", "q": 2, "of": '}
    spec = wrap[kind] * depth + '{"kind": "uniform", "rank": 2}' + "}" * depth
    return t3_with_spec(tmp_path, spec, f"{kind}{depth}")


class TestSpecNesting:
    @pytest.mark.parametrize("kind,depth", [("dual", 5), ("truncate", 5000)])
    def test_past_cap_exits_2(self, capsys, tmp_path, kind, depth):
        code, out, err = run_cli(capsys, "run", "--instance", nested_t3(tmp_path, kind, depth))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_at_cap_matches_bare_spec(self, capsys, tmp_path, t3_path):
        argv = ("ratios", "--greedy-variants", "--instance")
        code, out, _ = run_cli(capsys, *argv, nested_t3(tmp_path, "dual", 4))
        assert code == 0
        assert json.loads(out) == json.loads(run_cli(capsys, *argv, t3_path)[1])


T3_SPECS = {
    "partition": '{"kind": "partition", "blocks": [[0, 1], [2]], "capacities": [1, 1]}',
    "graphic": '{"kind": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [1, 2]]}',
    "explicit": '{"kind": "explicit", "independent": [0, 1, 2, 3, 4, 5, 6]}',
}


class TestSpecIntegers:
    """Spec numbers are JSON ints: no float or bool is coerced into one."""

    @pytest.mark.parametrize(
        "kind,old,new",
        [
            pytest.param("partition", "[1, 1]}", "[1.5, 1]}", id="capacity-float"),
            pytest.param("partition", "[1, 1]}", "[true, 1]}", id="capacity-bool"),
            pytest.param("partition", "[[0, 1], [2]]", "[[false, true], [2]]", id="block-bool"),
            pytest.param("partition", "[[0, 1], [2]]", "[[0, 1], 2]", id="block-not-list"),
            pytest.param("graphic", "[1, 2]]", "[true, 2]]", id="endpoint-bool"),
            pytest.param("graphic", "[1, 2]]", "[1.0, 2]]", id="endpoint-float"),
            pytest.param("graphic", "[1, 2]]", "[1, 2, 0]]", id="edge-three-ends"),
            pytest.param("explicit", "[0, 1, 2,", "[0, 1.0, 2,", id="mask-float"),
            pytest.param("explicit", "[0, 1, 2,", "[false, 1, 2,", id="mask-bool"),
        ],
    )
    def test_coercible_values_exit_2(self, capsys, tmp_path, kind, old, new):
        plain = T3_SPECS[kind]
        assert run_cli(capsys, "run", "--instance", t3_with_spec(tmp_path, plain))[0] == 0
        spec = plain.replace(old, new)
        assert spec != plain
        code, out, err = run_cli(capsys, "run", "--instance", t3_with_spec(tmp_path, spec))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.count("error:") == 1


#: JSON leaves for mutations: spec-like numbers, including the floats and
#: bools the loader must refuse, huge and non-finite numbers, and short strings.
FUZZ_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.sampled_from([1.5, 1.0, 0.0, -0.0, 2**70, float("nan"), float("inf")])
    | st.text("akx", max_size=3)
)
FUZZ_VALUES = st.recursive(
    FUZZ_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("akx", max_size=3), inner, max_size=3),
    max_leaves=6,
)


def fuzz_paths(node, path=()):
    """Every path into a JSON document, visiting at most three items of a list."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node[:3]) if isinstance(node, list) else ()
    for key, child in items:
        yield from fuzz_paths(child, path + (key,))


@st.composite
def mutated_t3(draw):
    """The T3 file under a random spec kind, wrapper chain and up to three mutations."""
    doc = instance_to_json(canonical_t3())
    kind = draw(st.sampled_from(["uniform", *T3_SPECS]))
    if kind != "uniform":
        doc["matroid"] = json.loads(T3_SPECS[kind])
    for _ in range(draw(st.integers(0, MAX_SPEC_DEPTH + 2))):
        if draw(st.booleans()):
            doc["matroid"] = {"kind": "dual", "of": doc["matroid"]}
        else:
            q = draw(st.integers(0, 3) | st.sampled_from([1.5, True, -1]))
            doc["matroid"] = {"kind": "truncate", "of": doc["matroid"], "q": q}
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["replace", "delete", "resize", "table"]))
        if op == "table":
            n = draw(st.integers(1, 6))
            doc["n"] = n
            size = (1 << n) + draw(st.sampled_from([0, 0, -1, 1]))
            doc["function"] = {"kind": "explicit", "values": [m.bit_count() for m in range(size)]}
            continue
        path = draw(st.sampled_from(list(fuzz_paths(doc))[1:]))
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        if op == "replace":
            parent[last] = draw(FUZZ_VALUES)
        elif op == "delete":
            del parent[last]
        elif isinstance(parent[last], list):
            parent[last] = parent[last][: draw(st.integers(0, 2))] or parent[last] * 2
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestLoaderFuzz:
    """Whatever a file holds, ``run`` ends with a documented exit code and one error line."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mutated_t3())
    def test_run_exits_cleanly(self, fuzz_dir, doc):
        path = fuzz_dir / "mutated.json"
        # One line, and the writer's layout, whose head takes the block reader.
        for layout in (json.dumps(doc), json.dumps(doc, indent=2, sort_keys=True)):
            path.write_text(layout, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", "--instance", str(path)])
            text = err.getvalue()
            assert code in (0, 2, 3, 4, 5), text
            assert sum(line.startswith("error:") for line in text.splitlines()) <= 1
            assert "Traceback" not in text
            assert (code == 0) == (text == "")


def t3_doc(**fields):
    """The T3 instance document with ``fields`` replaced."""
    doc = instance_to_json(canonical_t3())
    doc.update(fields)
    return doc


class TestLoaderRejections:
    """Malformed files and ``gen`` arguments: exit 2 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "doc,message",
        [
            pytest.param([1, 2], "expected a JSON object", id="not-object"),
            pytest.param(t3_doc(n=0), "n must be in 1..20, got 0", id="n-0"),
            pytest.param(t3_doc(n=21), "n must be in 1..20, got 21", id="n-21"),
            pytest.param(
                t3_doc(function={"kind": "table", "values": [0.0] * 8}),
                "only kind 'explicit' is supported",
                id="function-kind",
            ),
            pytest.param(
                t3_doc(function={"encoding": "f64le-base64", "kind": "explicit", "values": "A!=="}),
                "instance.function: values are not base64",
                id="packed-not-base64",
            ),
            pytest.param(
                t3_doc(function={"encoding": "hex", "kind": "explicit", "values": "00"}),
                "instance.function: unknown encoding 'hex'",
                id="packed-encoding",
            ),
            pytest.param(t3_doc(N=0), "N must be >= 1, got 0", id="N-0"),
            pytest.param(t3_doc(seed="7"), "seed must be an int or null", id="seed-str"),
            pytest.param(t3_doc(seed=1.5), "seed must be an int or null", id="seed-float"),
            pytest.param(t3_doc(seed=True), "seed must be an int or null", id="seed-bool"),
            pytest.param(
                t3_doc(matroid={"kind": "uniform", "rank": -1}),
                "uniform rank must be >= 0, got -1",
                id="rank-negative",
            ),
            pytest.param(
                t3_doc(matroid={"kind": "partition", "blocks": [[0, 1], [2]], "capacities": [-1, 1]}),
                "block capacity must be >= 0, got -1",
                id="capacity-negative",
            ),
            pytest.param(
                t3_doc(matroid={"kind": "partition", "blocks": [[0, 1], [2]], "capacities": [1]}),
                "2 blocks but 1 capacities",
                id="capacity-count",
            ),
            pytest.param(
                t3_doc(matroid={"kind": "graphic", "vertices": 0, "edges": [[0, 1], [1, 2], [1, 2]]}),
                "graph needs at least one vertex, got 0",
                id="graphic-no-vertex",
            ),
            pytest.param(
                t3_doc(matroid={"kind": "explicit", "independent": [0, 1, 2, 8]}),
                "independent-set mask 8 out of range for n=3",
                id="mask-out-of-range",
            ),
            pytest.param(
                t3_doc(matroid={"kind": "explicit", "independent": [1, 2, 3]}),
                "explicit family must contain the empty set",
                id="family-without-empty",
            ),
        ],
    )
    def test_file_exits_2(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--instance", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert "Traceback" not in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"id": "\xff"}')
        code, out, err = run_cli(capsys, "run", "--instance", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: not UTF-8 text (") and err.count("\n") == 1

    def test_integer_past_digit_limit_exits_2(self, capsys, tmp_path):
        doc = t3_doc()
        doc["function"]["values"][1] = 1234.5
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(doc).replace("1234.5", "9" * 5001), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--instance", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: cannot parse JSON (") and err.count("\n") == 1

    def test_gen_modular_without_weights_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--kind", "modular", "--n", "3")
        assert code == 2 and out == ""
        assert err == "error: gen --kind modular needs --weights\n"


class TestExplicitFamily:
    @pytest.mark.parametrize(
        "argv",
        [["run", "--algo", "both"], ["ratios", "--greedy-variants", "--strong"], ["verify"]],
    )
    def test_validated_once_per_command(self, capsys, tmp_path, monkeypatch, argv):
        family = frozenset(m for m in range(16) if m.bit_count() <= 2)
        path = tmp_path / "explicit.json"
        f = gen_modular(4, [1, 2, 3, 4])
        save_instance(Instance("E4", 4, f, ExplicitSpec(family), 2), path)
        scanned = []
        scan = matroids._axiom_scan

        def counting_scan(fam):
            scanned.append(fam)
            return scan(fam)

        monkeypatch.setattr(matroids, "_axiom_scan", counting_scan)
        code, _, err = run_cli(capsys, argv[0], "--instance", str(path), *argv[1:])
        assert code == 0 and err == ""
        assert scanned == [family]

    @pytest.mark.parametrize(
        "family,code,message",
        [
            pytest.param([0, 1], 5, "explicit matroid validation is capped at n=10", id="over-cap"),
            pytest.param([0, 1 << 11], 2, "independent-set mask 2048 out of range", id="bad-mask"),
        ],
    )
    def test_n11_family(self, capsys, tmp_path, monkeypatch, family, code, message):
        doc = instance_to_json(Instance("E11", 11, gen_modular(11, [1.0] * 11), UniformSpec(1), 1))
        doc["matroid"] = {"kind": "explicit", "independent": family}
        path = tmp_path / "e11.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setattr(matroids, "_axiom_scan", None)
        got, out, err = run_cli(capsys, "run", "--instance", str(path))
        assert got == code and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


class TestRatios:
    def test_base_fields(self, capsys, t3_path):
        code, out, _ = run_cli(capsys, "ratios", "--instance", t3_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma"] == 0.5 and payload["alpha"] == 0.5
        assert "gamma_fg" not in payload and "strong_c" not in payload

    def test_greedy_variants_and_strong(self, capsys, t3_path):
        code, out, _ = run_cli(
            capsys, "ratios", "--instance", t3_path, "--greedy-variants", "--strong"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_fg"] == 0.5 and payload["alpha_fg"] == 0.0
        assert payload["gamma_rg"] == 1.0 and payload["alpha_rg"] == 0.5
        assert payload["strong_c"] == 0.5
        assert payload["witnesses"]["gamma"] is not None

    def test_n13_modular_within_scan_cap(self, capsys, tmp_path):
        # n=13 was over the old scan cap of 12 and exited 5.
        inst = Instance("mod13", 13, gen_modular(13, range(1, 14)), UniformSpec(3), 2)
        path = tmp_path / "mod13.json"
        save_instance(inst, path)
        code, out, _ = run_cli(capsys, "ratios", "--instance", str(path))
        assert code == 0
        payload = json.loads(out)
        assert (payload["gamma"], payload["alpha"], payload["gamma_cumulative"]) == (1.0, 0.0, 1.0)

    def test_n17_exits_5_before_any_scan(self, capsys, n17_path, monkeypatch):
        def no_ratio_scan(f):
            raise AssertionError("ratio_scan ran before the cumulative cap")

        monkeypatch.setattr(guarantees, "ratio_scan", no_ratio_scan)
        code, out, err = run_cli(capsys, "ratios", "--instance", n17_path)
        assert code == 5 and out == ""
        assert err == "error: cumulative ratio scan is capped at n=16, got n=17\n"

    def test_non_monotone_n17_exits_4_before_the_cap(self, capsys, tmp_path, monkeypatch):
        # Monotonicity is settled first, then the cumulative cap; no ratio scan runs.
        def no_ratio_scan(f):
            raise AssertionError("ratio_scan ran before the monotonicity check")

        monkeypatch.setattr(guarantees, "ratio_scan", no_ratio_scan)
        values = [float(m.bit_count()) for m in range(1 << 17)]
        values[0b11] = 0.5
        path = tmp_path / "n17-nonmono.json"
        save_instance(Instance("n17-nonmono", 17, SetFunction(17, values), UniformSpec(3), 3), path)
        code, out, err = run_cli(capsys, "ratios", "--instance", str(path))
        assert code == 4 and out == ""
        assert err == "error: function is not increasing: adding element 1 to [0] decreases the value\n"

    def test_builds_n_plus_one_marginal_lists(self, capsys, tmp_path, monkeypatch):
        # The ratio scan's lists settle monotonicity and keep the extremes that
        # strong curvature reads; only the binding element's list is built again.
        path = tmp_path / "r8.json"
        save_instance(random_instance(8, random.Random(8), "r8"), path)
        calls = []
        marginals = setfunc._marginals

        def counting_marginals(vals, j):
            calls.append(j)
            return marginals(vals, j)

        monkeypatch.setattr(setfunc, "_marginals", counting_marginals)
        code, out, _ = run_cli(
            capsys, "ratios", "--instance", str(path), "--greedy-variants", "--strong"
        )
        assert code == 0
        witness = json.loads(out)["witnesses"]["strong_c"]
        assert calls == list(range(8)) + [witness[0]]

    def test_nan_value_exits_2(self, capsys, tmp_path, t3_path):
        obj = json.loads(Path(t3_path).read_text(encoding="utf-8"))
        obj["function"]["values"][1] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run_cli(capsys, "ratios", "--instance", str(path))
        assert code == 2 and out == "" and "finite" in err

    def test_non_monotone_exits_4(self, capsys, tmp_path, t3_path):
        obj = json.loads(Path(t3_path).read_text(encoding="utf-8"))
        obj["function"]["values"] = [0, 2, 1, 1, 1, 1, 1, 1]
        path = tmp_path / "nonmono.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, _, err = run_cli(capsys, "ratios", "--instance", str(path))
        assert code == 4 and err != ""


class TestVerify:
    def test_single_instance(self, capsys, t3_path):
        code, out, _ = run_cli(capsys, "verify", "--instance", t3_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"] == 2 and payload["passed"] == 2

    def test_random_batch(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--random", "--count", "6", "--n-min", "4",
            "--n-max", "6", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["instances"] == 6 and payload["failed"] == 0
        assert [r["id"] for r in payload["records"]] == [f"rnd-7-{i:03d}" for i in range(6)]

    def test_one_brute_force_per_instance(self, capsys, t3_path, monkeypatch):
        calls = []
        brute = cli.brute_force_optimum

        def counting_brute(*args):
            calls.append(args)
            return brute(*args)

        monkeypatch.setattr(cli, "brute_force_optimum", counting_brute)
        monkeypatch.setattr(guarantees, "brute_force_optimum", counting_brute)
        code, out, _ = run_cli(capsys, "verify", "--instance", t3_path)
        assert code == 0 and json.loads(out)["passed"] == 2
        assert len(calls) == 1

    def test_size_cap_exits_5(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--random", "--count", "1", "--n-max", "30"
        )
        assert code == 5 and err != ""

    def test_n17_instance_within_table_cap(self, capsys, n17_path):
        # Above the cumulative cap, but the ratio scan and brute force run to the table cap.
        code, out, err = run_cli(capsys, "verify", "--instance", n17_path)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert (payload["checks"], payload["passed"]) == (2, 2)
        (record,) = payload["records"]
        assert record["n"] == 17 and 0.0 < record["gamma"] <= 1.0 and 0.0 <= record["alpha"] < 1.0
        assert record["forward"]["satisfied"] and record["reverse"]["satisfied"]

    def test_infinite_bound_written_as_null(self, capsys, tmp_path):
        # gamma = 0 makes the forward bound infinite. RFC 8259 has no number
        # for it, so it is written as null; the library record keeps inf.
        path = tmp_path / "inf.json"
        f = SetFunction(2, [0.0, 0.0, 0.0, 1.0])
        save_instance(Instance("inf", 2, f, UniformSpec(1), 1), path)
        code, out, err = run_cli(capsys, "verify", "--instance", str(path))
        assert (code, err) == (0, "")
        record = {
            "N": 1,
            "alpha": 0.0,
            "forward": {
                "achieved_ratio": 1.0, "algorithm": "forward", "bound": None,
                "f_empty": 0.0, "f_full": 1.0, "f_greedy": 0.0, "f_opt": 0.0, "satisfied": True,
            },
            "gamma": 0.0,
            "id": "inf",
            "n": 2,
            "reverse": {
                "achieved_ratio": 1.0, "algorithm": "reverse", "bound": 0.5,
                "f_empty": 0.0, "f_full": 1.0, "f_greedy": 0.0, "f_opt": 0.0, "satisfied": True,
            },
        }
        payload = {
            "checks": 2, "failed": 0, "instances": 1, "passed": 2,
            "records": [record], "tolerance": 1e-09,
        }
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert '"bound": null,' in out
        assert guarantees.verify_forward(f, build_matroid(UniformSpec(1), 2), 1).bound == math.inf

    def test_infinite_achieved_ratio_written_as_null(self, capsys, tmp_path):
        # The optimum {1, 2} equals f(empty), and the forward pass takes
        # element 0 first at a tie, so its ratio divides a gain by zero.
        path = tmp_path / "missed.json"
        f = SetFunction(3, [0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        save_instance(Instance("missed", 3, f, UniformSpec(2), 2), path)
        code, out, err = run_cli(capsys, "verify", "--instance", str(path))
        assert (code, err) == (0, "")
        forward = json.loads(out, parse_constant=reject_constant)["records"][0]["forward"]
        assert (forward["achieved_ratio"], forward["bound"]) == (None, None)
        assert (forward["f_greedy"], forward["f_opt"], forward["satisfied"]) == (1.0, 0.0, True)
        record = guarantees.verify_forward(f, build_matroid(UniformSpec(2), 3), 2)
        assert (record.achieved_ratio, record.bound) == (math.inf, math.inf)

    def test_non_finite_number_reaching_the_writer_exits_2(self, capsys, monkeypatch):
        # A NaN or -inf has no null meaning: the strict writer refuses it.
        monkeypatch.setattr(cli, "ratio_scan", lambda f: SimpleNamespace(gamma=math.nan, alpha=0.0))
        code, out, err = run_cli(capsys, "verify", "--random", "--count", "1")
        assert (code, out) == (2, "")
        # Python 3.13 adds the value after a colon.
        assert err.startswith("error: Out of range float values are not JSON compliant")

    def test_needs_source(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2 and err != ""

    def test_one_ratio_scan_per_instance(self, capsys, t3_path, monkeypatch):
        calls = []
        scan = setfunc._ratio_scan

        def counting_scan(f):
            calls.append(f)
            return scan(f)

        monkeypatch.setattr(setfunc, "_ratio_scan", counting_scan)
        code, out, _ = run_cli(capsys, "verify", "--instance", t3_path)
        assert code == 0 and json.loads(out)["passed"] == 2
        assert len(calls) == 1

    def test_each_marginal_list_built_once(self, capsys, t3_path, monkeypatch):
        # The ratio scan also settles monotonicity from the same lists.
        calls = []
        marginals = setfunc._marginals

        def counting_marginals(vals, j):
            calls.append(j)
            return marginals(vals, j)

        monkeypatch.setattr(setfunc, "_marginals", counting_marginals)
        code, out, _ = run_cli(capsys, "verify", "--instance", t3_path)
        assert code == 0 and json.loads(out)["passed"] == 2
        assert calls == [0, 1, 2]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, t3_path, tol):
        code, out, err = run_cli(capsys, "verify", "--instance", t3_path, f"--tol={tol}")
        assert code == 2 and out == ""
        assert err.startswith("error: --tol") and err.count("\n") == 1

    def test_instance_and_random_together_exit_2(self, capsys, tmp_path):
        # The file does not exist: the flags are refused before it is read.
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, "verify", "--instance", missing, "--random")
        assert code == 2 and out == ""
        assert err.startswith("error: verify needs --instance PATH or --random, not both")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_batch_exits_2(self, capsys, count):
        code, out, err = run_cli(capsys, "verify", "--random", "--count", count)
        assert code == 2 and out == ""
        assert err.startswith("error: --count") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "bounds", [["--n-min", "5", "--n-max", "3"], ["--n-min", "0"]], ids=["reversed", "zero"]
    )
    def test_bad_random_bounds_exit_2(self, capsys, bounds):
        code, out, err = run_cli(capsys, "verify", "--random", *bounds)
        assert code == 2 and out == ""
        assert err.startswith("error: need 1 <= n_min <= n_max") and err.count("\n") == 1
        assert "Traceback" not in err


class TestGoldenStdout:
    """The stdout bytes of ``ratios`` and ``verify`` on two fixed instances."""

    @pytest.mark.parametrize("name", ["t3", "bounded_n8_s3"])
    @pytest.mark.parametrize(
        "command,flags", [("ratios", ("--greedy-variants", "--strong")), ("verify", ())]
    )
    def test_bytes(self, capsys, tmp_path, t3_path, name, command, flags):
        path = t3_path
        if name == "bounded_n8_s3":
            path = str(tmp_path / "bounded.json")
            gen = ("gen", "--kind", "bounded", "--n", "8", "--seed", "3", "--out", path)
            assert run_cli(capsys, *gen)[0] == 0
        code, out, _ = run_cli(capsys, command, "--instance", path, *flags)
        assert code == 0
        assert out == (GOLDEN_DIR / f"{command}_{name}.json").read_text(encoding="utf-8")


class TestParser:
    def test_built_once_per_process(self, capsys, t3_path, monkeypatch):
        builds = []
        build = cli.build_parser

        def counting_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_cli(capsys, "verify", "--instance", t3_path)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert builds == [1]

    def test_back_to_back_calls_keep_no_values(self, capsys, t3_path):
        code, out, _ = run_cli(capsys, "verify", "--instance", t3_path, "--tol", "0.5")
        assert code == 0 and json.loads(out)["tolerance"] == 0.5
        code, out, _ = run_cli(capsys, "verify", "--instance", t3_path)
        assert code == 0 and json.loads(out)["tolerance"] == guarantees.DEFAULT_TOLERANCE
        code, out, _ = run_cli(
            capsys, "ratios", "--instance", t3_path, "--greedy-variants", "--strong"
        )
        assert code == 0 and "strong_c" in json.loads(out)
        code, out, _ = run_cli(capsys, "ratios", "--instance", t3_path)
        payload = json.loads(out)
        assert code == 0 and "strong_c" not in payload and "gamma_fg" not in payload
        assert run_cli(capsys, "verify")[0] == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "kind,code",
        [
            (SchemaError, 2),
            (InvalidSpecError, 2),
            (ValueError, 2),
            (InfeasibleError, 3),
            (InfeasibleInstanceError, 3),
            (NonMonotoneError, 4),
            (NotStrictlyIncreasingError, 4),
            (GroundSetTooLargeError, 5),
        ],
    )
    def test_error_kind_gives_its_code(self, capsys, monkeypatch, t3_path, kind, code):
        def fail(args):
            raise kind("boom")

        monkeypatch.setattr(cli, "cmd_run", fail)
        assert run_cli(capsys, "run", "--instance", t3_path) == (code, "", "error: boom\n")

    @pytest.mark.parametrize("kind", [WitnessFailureError, TraceMismatchError])
    def test_internal_errors_propagate(self, monkeypatch, t3_path, kind):
        def fail(args):
            raise kind("boom")

        monkeypatch.setattr(cli, "cmd_run", fail)
        with pytest.raises(kind):
            main(["run", "--instance", t3_path])


class TestRegion:
    def test_header_and_shape(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--fstar", "0", "--grid", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,gamma,forward_ub,reverse_ub,winner"
        assert len(lines) == 101
        assert all(line.endswith("reverse") for line in lines[1:])

    def test_forward_dominates_at_fstar_minus_one(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--fstar", "-1", "--grid", "10")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        winners = [line.rsplit(",", 1)[1] for line in rows]
        assert winners.count("reverse") == 1  # only the alpha=0, gamma=1 cell
        assert winners.count("forward") == 99

    def test_golden_grid(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--fstar", "-0.5", "--grid", "4")
        assert code == 0
        golden = (GOLDEN_DIR / "region_fstar-0.5_grid4.csv").read_text(encoding="utf-8")
        assert out == golden

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "region", "--fstar", "2", "--fempty", "-1", "--ffull", "1"
        )
        assert code == 2 and err != ""

    @pytest.mark.parametrize(
        "argv",
        [("--fempty=-inf",), ("--ffull=inf",), ("--fempty=nan",)],
    )
    def test_non_finite_reference_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "region", "--fstar", "0", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: reference values must be finite") and err.count("\n") == 1

    def test_overflowing_guarantee_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "region", "--fstar", "0", "--fempty=-1e308", "--ffull", "1e308", "--grid", "3"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: guaranteed values overflow") and err.count("\n") == 1

    def test_grid_cap_exits_5(self, capsys, monkeypatch):
        def no_cells(*args):
            raise AssertionError("a cell was computed past the grid cap")

        monkeypatch.setattr(guarantees, "forward_bound", no_cells)
        code, out, err = run_cli(capsys, "region", "--fstar", "0", "--grid", "1001")
        assert code == 5 and out == ""
        assert err == "error: region grid is capped at n=1000, got n=1001\n"

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "region.csv"
        code, out, _ = run_cli(
            capsys, "region", "--fstar", "0", "--grid", "4", "--out", str(out_path)
        )
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("alpha,gamma")


class TestGen:
    def test_modular_stdout_loadable(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen", "--kind", "modular", "--n", "3", "--weights", "1,2,3")
        assert code == 0
        path = tmp_path / "gen.json"
        path.write_text(out, encoding="utf-8")
        code2, out2, _ = run_cli(capsys, "run", "--instance", str(path), "--algo", "forward")
        assert code2 == 0

    def test_bounded_deterministic_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, out, _ = run_cli(
                capsys, "gen", "--kind", "bounded", "--n", "6", "--lo", "1",
                "--hi", "2", "--seed", "9", "--out", str(target),
            )
            assert code == 0
            assert json.loads(out) == {"path": str(target), "id": "bounded-n6-s9"}
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "modular", "--n", "3", "--weights", "1,2,3"],
            ["--kind", "bounded", "--n", "7", "--seed", "4", "--id", 'q"\u00e9'],
            ["--kind", "explicit", "--n", "1", "--seed", "2"],
        ],
    )
    def test_stdout_equals_out_file(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, "gen", *argv)
        assert code == 0
        path = tmp_path / "gen.json"
        code, _, _ = run_cli(capsys, "gen", *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")

    def test_stdout_equals_out_file_past_one_block(self, capsys, tmp_path):
        # 2^15 values: two of the writer's blocks.
        argv = ["gen", "--kind", "modular", "--n", "15", "--weights", ",".join("1" * 15)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "gen.json"
        code, _, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")

    def test_stdout_equals_out_file_packed_from_n18(self, capsys, tmp_path):
        argv = ["gen", "--kind", "bounded", "--n", "18", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "gen.json"
        code, _, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode("utf-8")
        assert json.loads(out)["function"]["encoding"] == "f64le-base64"
        assert load_instance(path).function == gen_bounded_marginal(18, 1.0, 2.0, 3)

    def test_closed_stdout_exits_1_without_traceback(self):
        # 2^15 values are far more text than a pipe buffers, so the writer is
        # still at work when the reader goes away.
        src = str(Path(matroid_greedy.__file__).resolve().parent.parent)
        code = f"import sys; sys.path.insert(0, {src!r}); from matroid_greedy import cli; cli.console_main()"
        argv = ["gen", "--kind", "modular", "--n", "15", "--weights", ",".join("1" * 15)]
        proc = subprocess.Popen(
            [sys.executable, "-I", "-c", code, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        assert proc.stdout.read(20) == b'{\n  "N": 7,\n  "funct'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""  # no traceback, and no error line either

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "gen", "--kind", "modular", "--n", "3", "--weights", "1,2,3",
            "--out", str(target),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {target}: cannot write instance file (")
        assert err.count("\n") == 1

    def test_bad_bounds_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--kind", "bounded", "--n", "4", "--lo", "0", "--hi", "1"
        )
        assert code == 2 and err != ""

    def test_modular_over_table_cap_exits_2(self, capsys):
        argv = ["gen", "--kind", "modular", "--n", "21", "--weights", ",".join(["1"] * 21)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: ground set size must be in 1..20, got 21\n"

    @pytest.mark.parametrize("kind", ["bounded", "explicit"])
    @pytest.mark.parametrize("n", ["21", "-1"])
    def test_generator_outside_table_cap_exits_2(self, capsys, kind, n):
        code, out, err = run_cli(capsys, "gen", "--kind", kind, "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: ground set size must be in 1..20, got {n}\n"

    @pytest.mark.parametrize(
        "rank,cardinality,message",
        [
            pytest.param(
                "2", "3", "cardinality must lie in 1..2, the matroid rank, got 3", id="above-rank"
            ),
            pytest.param(
                "2", "-1", "cardinality must lie in 1..2, the matroid rank, got -1", id="negative"
            ),
            pytest.param(
                "2", "0", "cardinality must lie in 1..2, the matroid rank, got 0", id="zero"
            ),
            # A uniform rank above n has matroid rank n; the default N is the
            # given rank, and the message says so.
            pytest.param(
                "5",
                None,
                "cardinality must lie in 1..3, the matroid rank, got 5"
                " from --rank (no --cardinality given)",
                id="rank-above-n",
            ),
        ],
    )
    def test_cardinality_outside_rank_exits_2(self, capsys, rank, cardinality, message):
        argv = ["gen", "--kind", "modular", "--n", "3", "--weights", "1,2,3", "--rank", rank]
        if cardinality is not None:
            argv += ["--cardinality", cardinality]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("rank,bound", [("9", 4), ("0", 0)])
    def test_default_cardinality_names_rank(self, capsys, rank, bound):
        code, out, err = run_cli(capsys, "gen", "--kind", "bounded", "--n", "4", "--rank", rank)
        assert code == 2 and out == ""
        assert err == (
            f"error: cardinality must lie in 1..{bound}, the matroid rank, got {rank}"
            " from --rank (no --cardinality given)\n"
        )

    def test_explicit_kind(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "explicit", "--n", "4", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["function"]["values"]) == 16
