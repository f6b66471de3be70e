import base64
import copy
import json
import math
import os
import random
import struct
import sys
import threading
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from matroid_greedy import (
    DualSpec,
    ExplicitSpec,
    GraphicSpec,
    GroundSetTooLargeError,
    InfeasibleInstanceError,
    Instance,
    InvalidSpecError,
    MatroidGreedyError,
    PartitionSpec,
    SchemaError,
    SetFunction,
    TruncateSpec,
    UniformSpec,
    check_monotone,
    curvature,
    load_instance,
    marginal_bounds_estimate,
    save_instance,
    submodularity_ratio,
)
from matroid_greedy import instances
from matroid_greedy.caps import MAX_SPEC_DEPTH
from matroid_greedy.instances import (
    canonical_t3,
    gen_bounded_marginal,
    gen_explicit_random,
    gen_modular,
    instance_from_json,
    instance_to_json,
    random_instance,
    random_suite,
    spec_from_json,
)

from conftest import EXTREMES, GOLDEN_DIR

# Frozen at first build from the seed-42 generator run, cross-checked against
# the frozenset oracle in oracles.py.
GOLDEN_VALUES = [
    0.0,
    0.36057320154211625,
    0.9749892447773331,
    1.699959926408214,
    0.7767892618511772,
    1.040318047687165,
    1.2982897573544219,
    1.8077803587033685,
]
GOLDEN_GAMMA = 0.4973624598597247
GOLDEN_ALPHA = 0.8611973187705939


class TestModular:
    def test_table(self):
        f = gen_modular(3, [1, 2, 3])
        assert f.values.tolist() == [0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0]

    def test_constant_marginals(self):
        f = gen_modular(3, [1, 2, 3])
        for subset in range(8):
            for j in range(3):
                if not subset >> j & 1:
                    assert f.marginal(subset, j) == float(j + 1)

    def test_ratio_endpoints(self):
        f = gen_modular(3, [1, 2, 3])
        assert submodularity_ratio(f) == 1.0
        assert curvature(f) == 0.0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            gen_modular(2, [1.0])
        with pytest.raises(ValueError):
            gen_modular(2, [1.0, 0.0])

    def test_size_checked_before_the_table(self):
        # A 2^21 table would take 16 MB; the check comes before any of it.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^ground set size must be in 1\.\.20, got 21$"):
                gen_modular(21, [1.0] * 21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBoundedMarginal:
    def test_degenerate_range_is_modular(self):
        f = gen_bounded_marginal(4, 1.0, 1.0, seed=5)
        assert all(f.values[m] == m.bit_count() for m in range(16))

    def test_marginals_in_range(self):
        for seed in range(10):
            f = gen_bounded_marginal(6, 1.0, 2.0, seed=seed)
            for subset in range(1 << 6):
                for j in range(6):
                    if not subset >> j & 1:
                        d = f.values[subset | 1 << j] - f.values[subset]
                        assert 1.0 <= d <= 2.0
            _, gamma_lb, alpha_ub = marginal_bounds_estimate(f)
            assert gamma_lb >= 0.5 and alpha_ub <= 0.5

    def test_deterministic(self):
        a = gen_bounded_marginal(5, 1.0, 3.0, seed=77)
        b = gen_bounded_marginal(5, 1.0, 3.0, seed=77)
        assert a.values == b.values

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            gen_bounded_marginal(4, 0.0, 1.0, seed=1)
        with pytest.raises(ValueError):
            gen_bounded_marginal(4, 2.0, 1.0, seed=1)

    def test_size_cap(self):
        assert check_monotone(gen_bounded_marginal(13, 1.0, 2.0, seed=1)).strictly_increasing
        with pytest.raises(ValueError, match=r"^ground set size must be in 1\.\.20, got 21$"):
            gen_bounded_marginal(21, 1.0, 2.0, seed=1)


class TestExplicitRandom:
    def test_single_element(self):
        f = gen_explicit_random(1, 3)
        assert f.values[0] == 0.0 < f.values[1]

    def test_strictly_increasing_across_seeds(self):
        for seed in range(100):
            f = gen_explicit_random(4, seed)
            assert check_monotone(f).strictly_increasing, seed

    def test_golden_fixture(self):
        f = gen_explicit_random(3, 42)
        assert list(f.values) == GOLDEN_VALUES
        assert submodularity_ratio(f) == GOLDEN_GAMMA
        assert curvature(f) == GOLDEN_ALPHA

    def test_golden_file_round_trip(self):
        inst = load_instance(GOLDEN_DIR / "explicit_random_n3_seed42.json")
        assert inst.seed == 42
        assert list(inst.function.values) == GOLDEN_VALUES
        regenerated = gen_explicit_random(3, 42)
        assert regenerated.values == inst.function.values

    def test_size_cap(self):
        assert check_monotone(gen_explicit_random(11, seed=1)).strictly_increasing
        with pytest.raises(ValueError, match=r"^ground set size must be in 1\.\.20, got 21$"):
            gen_explicit_random(21, seed=1)


class TestRandomSuite:
    def test_deterministic_and_feasible(self):
        first = random_suite(15, 4, 8, seed=3)
        second = random_suite(15, 4, 8, seed=3)
        for a, b in zip(first, second):
            assert a.function.values == b.function.values
            assert a.matroid_spec == b.matroid_spec
            assert a.cardinality == b.cardinality
        for inst in first:
            assert check_monotone(inst.function).strictly_increasing
            matroid = inst.matroid()
            assert matroid.truncate(inst.cardinality).rank_full == inst.cardinality

    def test_size_cap(self):
        with pytest.raises(GroundSetTooLargeError):
            random_suite(1, 4, 30, seed=0)

    def test_max_plus_only_up_to_n10(self):
        # Seeded suites depend on this threshold and its short-circuit.
        max_plus_at_10 = set()
        for seed in range(6):
            replay = random.Random(seed)
            fn_seed = replay.randrange(1 << 31)
            at_10 = random_instance(10, random.Random(seed), "x").function.values
            max_plus_at_10.add(at_10 == gen_explicit_random(10, fn_seed).values)
            # No coin is drawn above n=10: the next draw is the bounded table's hi.
            at_11 = random_instance(11, random.Random(seed), "x").function.values
            assert at_11 == gen_bounded_marginal(11, 1.0, replay.uniform(1.5, 3.0), fn_seed).values
        assert max_plus_at_10 == {True, False}


class TestPersistence:
    def test_round_trip(self, tmp_path):
        inst = canonical_t3()
        path = tmp_path / "t3.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded == inst

    def test_loaded_instance_deep_copies(self, tmp_path):
        inst = Instance("nested", 6, gen_bounded_marginal(6, 1.0, 3.0, seed=4), nested_spec(2), 2)
        path = tmp_path / "nested.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        rank = loaded.matroid().rank_full
        twin = copy.deepcopy(loaded)
        assert twin == loaded == inst and twin.function is not loaded.function
        assert twin.matroid().rank_full == rank

    def test_round_trip_random(self, tmp_path):
        for inst in random_suite(5, 4, 6, seed=11):
            path = tmp_path / f"{inst.id}.json"
            save_instance(inst, path)
            assert load_instance(path) == inst

    def test_serialization_deterministic(self, tmp_path):
        inst = random_suite(1, 6, 6, seed=21)[0]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(inst, a)
        save_instance(inst, b)
        assert a.read_bytes() == b.read_bytes()

    def test_to_from_json_identity(self):
        inst = canonical_t3()
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_built_matroid_kept_out_of_identity(self):
        inst = canonical_t3()
        loaded = instance_from_json(instance_to_json(inst))
        assert loaded.matroid() is loaded.matroid()
        assert loaded == inst and hash(loaded) == hash(inst)
        assert repr(loaded) == repr(inst)
        assert instance_to_json(loaded) == instance_to_json(inst)

    @pytest.mark.parametrize("bad", [True, "1", None, [1.0]])
    def test_non_number_value_named_by_index(self, bad):
        obj = instance_to_json(canonical_t3())
        obj["function"]["values"][5] = bad
        with pytest.raises(SchemaError, match=r"values\[5\] is not a number"):
            instance_from_json(obj)

    def test_number_subclass_value_accepted(self):
        class Real(float):
            pass

        obj = instance_to_json(canonical_t3())
        obj["function"]["values"][5] = Real(3.0)
        assert instance_from_json(obj).function.values == canonical_t3().function.values

    def test_wrong_value_count(self):
        obj = instance_to_json(canonical_t3())
        obj["function"]["values"] = obj["function"]["values"][:-1]
        with pytest.raises(SchemaError, match="values"):
            instance_from_json(obj)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_is_schema_error(self, tmp_path, literal):
        # Python's json accepts these literals; the loader must not.
        obj = instance_to_json(canonical_t3())
        obj["function"]["values"][1] = 1234.5
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(obj).replace("1234.5", literal), encoding="utf-8")
        with pytest.raises(SchemaError, match="finite"):
            load_instance(path)
        obj["function"]["values"][1] = float(literal.replace("Infinity", "inf"))
        with pytest.raises(SchemaError, match="finite"):
            instance_from_json(obj)

    def test_infeasible_cardinality(self):
        obj = instance_to_json(canonical_t3())
        obj["N"] = 3
        with pytest.raises(InfeasibleInstanceError):
            instance_from_json(obj)

    def test_schema_diagnostics(self):
        with pytest.raises(SchemaError, match="missing field 'n'"):
            instance_from_json({"id": "x"})
        obj = instance_to_json(canonical_t3())
        obj["matroid"] = {"kind": "mystery"}
        with pytest.raises(SchemaError, match="unknown matroid kind"):
            instance_from_json(obj)
        obj = instance_to_json(canonical_t3())
        obj["matroid"] = {"kind": "uniform"}
        with pytest.raises(SchemaError, match="rank"):
            instance_from_json(obj)

    def test_spec_must_be_an_object(self):
        with pytest.raises(SchemaError, match="matroid: expected an object"):
            spec_from_json([1])

    def test_invalid_matroid_becomes_schema_error(self):
        obj = instance_to_json(canonical_t3())
        obj["matroid"] = {"kind": "explicit", "independent": [0, 3]}
        with pytest.raises(SchemaError, match="hereditary"):
            instance_from_json(obj)

    def test_n_must_match_the_function(self):
        # Such an instance would save a file that the loader refuses.
        with pytest.raises(ValueError, match="^function is on n=3 but instance on n=5$"):
            Instance("x", 5, canonical_t3().function, UniformSpec(1), 1)

    def test_nested_spec_round_trip(self, tmp_path):
        inst = canonical_t3()
        nested = Instance(
            "nested", 3, inst.function, DualSpec(TruncateSpec(UniformSpec(2), 2)), 1
        )
        path = tmp_path / "nested.json"
        save_instance(nested, path)
        assert load_instance(path) == nested

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_instance(path)

    @pytest.mark.parametrize("indent", [None, 2], ids=["one-line", "writer-layout"])
    def test_integer_past_digit_limit_is_schema_error(self, tmp_path, indent):
        # json refuses an int of over 4,300 digits with a plain ValueError.
        obj = instance_to_json(canonical_t3())
        obj["function"]["values"][1] = 1234.5
        path = tmp_path / "digits.json"
        text = json.dumps(obj, indent=indent, sort_keys=True).replace("1234.5", "7" * 5001)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            load_instance(path)
        assert str(info.value).startswith(f"{path}: cannot parse JSON (Exceeds the limit (4300 digits)")

    def test_empty_value_not_forced_to_zero(self):
        obj = instance_to_json(canonical_t3())
        obj["function"]["values"][0] = 5.0
        for i in range(1, 8):
            obj["function"]["values"][i] += 5.0
        loaded = instance_from_json(obj)
        assert loaded.function.values[0] == 5.0


def reference_text(inst):
    """The instance file text as json's own indenting encoder writes it."""
    return json.dumps(instance_to_json(inst), indent=2, sort_keys=True) + "\n"


def nested_spec(depth):
    spec = UniformSpec(2)
    for level in range(depth):
        spec = DualSpec(spec) if level % 2 else TruncateSpec(spec, 2)
    return spec


WRITER_SPECS = {
    "uniform": UniformSpec(2),
    "partition": PartitionSpec(((0, 2), (1,)), (1, 1)),
    "graphic": GraphicSpec(3, ((0, 1), (1, 2), (0, 2))),
    "explicit": ExplicitSpec(frozenset({0, 1, 2, 4, 3, 5})),
    "dual": DualSpec(UniformSpec(1)),
    "truncate": TruncateSpec(UniformSpec(3), 2),
    "nested-to-cap": nested_spec(MAX_SPEC_DEPTH),
}


class TestWriter:
    """Below n=18, save_instance writes exactly the bytes of json's indenting encoder."""

    def check(self, inst, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert path.read_bytes() == reference_text(inst).encode("utf-8")
        assert load_instance(path) == inst

    @pytest.mark.parametrize("kind", WRITER_SPECS)
    def test_every_spec_kind(self, tmp_path, kind):
        inst = canonical_t3()
        self.check(Instance(kind, 3, inst.function, WRITER_SPECS[kind], 1), tmp_path)

    @pytest.mark.parametrize("seed", [None, 0, 7, 2**31 - 1])
    def test_seed(self, tmp_path, seed):
        inst = canonical_t3()
        self.check(Instance("T3", 3, inst.function, UniformSpec(2), 2, seed=seed), tmp_path)

    @pytest.mark.parametrize(
        "inst_id",
        ["h\u00e9llo-\u2211-\U0001f600", 'say "hi"', "back\\slash\\", '"values": []', "", "tab\tnl\n"],
    )
    def test_awkward_ids(self, tmp_path, inst_id):
        inst = canonical_t3()
        self.check(Instance(inst_id, 3, inst.function, UniformSpec(2), 2), tmp_path)

    def test_extreme_and_integral_values(self, tmp_path):
        values = [-0.0, 5e-324, 1.7976931348623157e308, 1.0, 2.0, 1e16, -3.0, 0.1]
        self.check(Instance("x", 3, SetFunction(3, values), UniformSpec(1), 1), tmp_path)

    @pytest.mark.parametrize("values", [[0.0, 1.0], [-0.0, 5e-324], [2.5, 1.7976931348623157e308]])
    def test_single_element(self, tmp_path, values):
        self.check(Instance("one", 1, SetFunction(1, values), UniformSpec(1), 1), tmp_path)

    def test_generated_tables(self, tmp_path):
        for inst in random_suite(12, 1, 10, seed=5):
            self.check(inst, tmp_path)
        f = gen_bounded_marginal(12, 1.0, 2.5, seed=3)
        self.check(Instance("b12", 12, f, nested_spec(3), 2, seed=3), tmp_path)

    def test_golden_file_bytes_kept(self, tmp_path):
        golden = GOLDEN_DIR / "explicit_random_n3_seed42.json"
        path = tmp_path / "resaved.json"
        save_instance(load_instance(golden), path)
        assert path.read_bytes() == golden.read_bytes()

    def test_rejected_spec_leaves_file_alone(self, tmp_path):
        path = tmp_path / "kept.json"
        save_instance(canonical_t3(), path)
        before = path.read_bytes()
        inst = canonical_t3()
        bad = Instance("bad", 3, inst.function, "not a spec", 2)
        with pytest.raises(InvalidSpecError, match="unknown matroid spec"):
            save_instance(bad, path)
        assert path.read_bytes() == before

    def test_unwritable_path_is_schema_error(self, tmp_path):
        path = tmp_path / "missing" / "x.json"
        with pytest.raises(SchemaError, match="cannot write instance file") as info:
            save_instance(canonical_t3(), path)
        assert str(path) in str(info.value)
        assert not path.parent.exists()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_block_boundaries(self, tmp_path, monkeypatch, n):
        # 2, 4, 8 and 32 values against blocks of 4: below, at and above one
        # block, and across several.
        monkeypatch.setattr(instances, "_BLOCK", 4)
        f = gen_bounded_marginal(n, 1.0, 2.5, seed=n)
        self.check(Instance("blocks", n, f, UniformSpec(1), 1, seed=n), tmp_path)

    def test_save_peak_memory(self, tmp_path):
        # The n=16 table is 0.8 MB of text in 65,536 repr strings; writing
        # it in blocks never holds all of either (about 4.8 MB in one join).
        inst = Instance("m16", 16, gen_modular(16, range(1, 17)), UniformSpec(8), 8)
        tracemalloc.start()
        try:
            save_instance(inst, tmp_path / "m16.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_500_000


def b64_doubles(values):
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def packed_text(inst):
    """The packed file text of ``inst``, from json's own indenting encoder and base64."""
    obj = instance_to_json(inst)
    table = b64_doubles(inst.function.values)
    obj["function"] = {"encoding": "f64le-base64", "kind": "explicit", "values": table}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def packed_from_1(monkeypatch):
    """Every table written packed, in blocks of 3 * 4 doubles."""
    monkeypatch.setattr(instances, "_PACKED_N", 1)
    monkeypatch.setattr(instances, "_BLOCK", 4)


@pytest.mark.usefixtures("packed_from_1")
class TestPacked:
    """A packed file holds the bytes json and base64 give, and loads as its text form does."""

    def check(self, inst, tmp_path):
        packed, text = tmp_path / "packed.json", tmp_path / "text.json"
        save_instance(inst, packed)
        assert packed.read_bytes() == packed_text(inst).encode("utf-8")
        obj = instance_to_json(inst)
        obj["function"] = {"kind": "explicit", "values": list(inst.function.values)}
        text.write_text(json.dumps(obj), encoding="utf-8")
        loaded = load_instance(packed)
        assert loaded == inst
        assert repr(loaded.function.values) == repr(load_instance(text).function.values)

    @pytest.mark.parametrize("kind", WRITER_SPECS)
    def test_every_spec_kind(self, tmp_path, kind):
        f = SetFunction(3, EXTREMES)
        self.check(Instance(kind, 3, f, WRITER_SPECS[kind], 1, seed=3), tmp_path)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_block_boundaries(self, tmp_path, n):
        # 2, 4, 8, 16 and 32 values against blocks of 12: below one block,
        # and across one and two block edges.
        values = (EXTREMES * 4)[: 1 << n]
        self.check(Instance("blocks", n, SetFunction(n, values), UniformSpec(1), 1), tmp_path)

    def test_id_that_reads_as_an_empty_table(self, tmp_path):
        inst = Instance('"values": ""', 2, SetFunction(2, EXTREMES[:4]), UniformSpec(1), 1)
        self.check(inst, tmp_path)

    def test_from_json_keeps_its_object(self):
        obj = packed_t3()
        before = copy.deepcopy(obj)
        assert instance_from_json(obj) == canonical_t3()
        assert obj == before

    def test_text_freed_before_the_floats(self, tmp_path):
        # The n=16 packed file is 0.7 MB of base64, decoded into a 0.5 MB
        # array('d') that SetFunction copies and keeps; no float is built.
        # Reading the file sets the 1.4 MB peak; the decoding peaks at 1.2 MB,
        # and would at 1.8 MB were the text kept until the table was built.
        path = tmp_path / "p16.json"
        save_instance(Instance("p16", 16, gen_modular(16, range(1, 17)), UniformSpec(8), 8), path)
        tracemalloc.start()
        try:
            load_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_unpack_frees_the_text_before_the_table(self):
        # The 0.7 MB text is held with its 0.5 MB of bytes, and then the
        # bytes with the 0.5 MB array: 1.2 MB at peak. Were the text kept
        # until the table was built, or copied to bytes first, it would be
        # 1.8 or 1.4 MB.
        values = array("d", range(1 << 16))
        tracemalloc.start()
        try:
            fn = {"encoding": "f64le-base64", "values": base64.b64encode(values).decode("ascii")}
            tracemalloc.reset_peak()
            table = instances._unpack(fn, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table == values and "values" not in fn
        assert peak < 1_300_000


def test_written_packed_from_n18(tmp_path):
    inst = Instance("p18", 18, gen_bounded_marginal(18, 1.0, 2.5, seed=18), UniformSpec(9), 9)
    path = tmp_path / "p18.json"
    save_instance(inst, path)
    assert path.read_bytes() == packed_text(inst).encode("utf-8")
    assert path.read_bytes() == reference_text(inst).encode("utf-8")
    assert load_instance(path) == inst
    below = Instance("m17", 17, gen_modular(17, range(1, 18)), UniformSpec(1), 1)
    assert next(instances._instance_text(below)).endswith('"values": [\n      ')


@pytest.mark.skipif(sys.byteorder != "little", reason="the swap is real on this host")
def test_big_endian_host_swaps_the_bytes(tmp_path, monkeypatch, packed_from_1):
    # On a big-endian host the array reads each double's bytes reversed, and
    # the swap restores them. On a little-endian host told it is big-endian,
    # the swap is what reverses them, so the load gives the big-endian reading
    # of the file's bytes, and the writer writes big-endian ones.
    values = [0.0, 1.0, 2.0, 3.0, 0.5, -0.0, 5e-324, 0.1]
    data = struct.pack("<8d", *values)
    swapped = struct.unpack(">8d", data)
    assert all(map(math.isfinite, swapped)) and swapped != tuple(values)
    path = tmp_path / "big.json"
    inst = Instance("big", 3, SetFunction(3, values), UniformSpec(1), 1)
    path.write_text(packed_text(inst), encoding="utf-8")
    monkeypatch.setattr(sys, "byteorder", "big")
    loaded = load_instance(path).function.values
    assert list(map(float.hex, loaded)) == list(map(float.hex, swapped))
    fn = {"encoding": "f64le-base64", "values": b64_doubles(EXTREMES)}
    table = instances._unpack(fn, 3)
    assert table.tobytes() == struct.pack(">8d", *EXTREMES)
    text = "".join(instances._packed_text(array("d", EXTREMES)))
    assert base64.b64decode(text) == struct.pack(">8d", *EXTREMES)
    # Written and read on one host, the two swaps cancel.
    extremes = Instance("extremes", 3, SetFunction(3, EXTREMES), UniformSpec(1), 1)
    save_instance(extremes, path)
    assert load_instance(path).function.values.tobytes() == extremes.function.values.tobytes()


def packed_t3(**function):
    """The object of the packed T3 file, with ``function``'s fields replaced."""
    obj = json.loads(packed_text(canonical_t3()))
    obj["function"].update(function)
    return obj


T3_TABLE = packed_t3()["function"]["values"]


def t3_table_with(char):
    """The T3 packed table with its 41st character replaced by ``char``."""
    return T3_TABLE[:40] + char + T3_TABLE[41:]


class TestPackedRejections:
    """A malformed packed table is a SchemaError naming instance.function."""

    @pytest.mark.parametrize(
        "function,message",
        [
            pytest.param({"values": [0.0] * 8}, "field 'values' has wrong type list", id="list"),
            pytest.param({"values": None}, "field 'values' has wrong type NoneType", id="null"),
            pytest.param({"values": 64}, "field 'values' has wrong type int", id="int"),
            pytest.param({"encoding": "f64be-base64"}, "unknown encoding 'f64be-base64'", id="enc"),
            pytest.param({"encoding": 1}, "field 'encoding' has wrong type int", id="encoding-int"),
            pytest.param({"kind": "packed"}, "only kind 'explicit' is supported", id="kind"),
            pytest.param({"values": t3_table_with("!")}, "not base64", id="char"),
            pytest.param({"values": t3_table_with("\n")}, "not base64", id="newline"),
            pytest.param({"values": t3_table_with("\u00e9")}, "not base64", id="non-ascii"),
            pytest.param({"values": t3_table_with("=")}, "not base64", id="inner-pad"),
            pytest.param({"values": T3_TABLE[:-2]}, "not base64", id="unpadded"),
            pytest.param({"values": T3_TABLE[:-1]}, "not base64", id="half-padded"),
            pytest.param({"values": T3_TABLE[:-3] + "==="}, "not base64", id="three-pads"),
            pytest.param({"values": T3_TABLE + "AAAA"}, "not base64", id="after-padding"),
            pytest.param({"values": "-_" + T3_TABLE[2:]}, "not base64", id="urlsafe"),
            pytest.param({"values": ""}, "need 64 bytes for n=3, got 0", id="empty"),
            pytest.param({"values": b64_doubles([0.0] * 7)}, "need 64 bytes for n=3, got 56$", id="56"),
            pytest.param({"values": b64_doubles([0.0] * 9)}, "got 72$", id="72"),
            pytest.param({"values": b64_doubles([0.0] * 9) + "="}, "not base64", id="quad-then-pad"),
            pytest.param({"values": base64.b64encode(bytes(63)).decode()}, "got 63", id="63"),
            pytest.param({"values": b64_doubles([0, 1, math.nan, 2, 1, 2, 2, 3])}, "finite", id="nan"),
            pytest.param({"values": b64_doubles([0, 1, 1, 2, 1, 2, 2, -math.inf])}, "finite", id="inf"),
        ],
    )
    def test_schema_error(self, tmp_path, function, message):
        obj = packed_t3(**function)
        with pytest.raises(SchemaError, match="^instance.function: .*" + message):
            instance_from_json(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj, indent=2, sort_keys=True), encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            load_instance(path)

    def test_infinite_last_value_of_an_n18_file(self, tmp_path):
        # The writer packs from n=18, so this is a file save_instance writes
        # but for its last double, which sits in the table's last block.
        values = [float(mask.bit_count()) for mask in range(1 << 18)]
        inst = Instance("p18", 18, SetFunction(18, values), UniformSpec(9), 9)
        path = tmp_path / "p18.json"
        save_instance(inst, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert obj["function"]["encoding"] == "f64le-base64"
        values[-1] = math.inf
        obj["function"]["values"] = b64_doubles(values)
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        message = r"^instance.function: set-function values must be finite \(no NaN or infinity\)$"
        with pytest.raises(SchemaError, match=message):
            load_instance(path)
        with pytest.raises(SchemaError, match=message):
            instance_from_json(obj)

    def test_missing_values(self):
        obj = packed_t3()
        del obj["function"]["values"]
        with pytest.raises(SchemaError, match="^instance.function: missing field 'values'$"):
            instance_from_json(obj)


@st.composite
def mutated_packed_table(draw):
    """The T3 packed table with one character replaced, inserted or deleted, or cut short."""
    table = T3_TABLE
    at = draw(st.integers(0, len(table) - 1))
    char = draw(st.sampled_from(list("AB/+=-_ \n\u00e9")) | st.characters())
    op = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
    if op == "replace":
        return table[:at] + char + table[at + 1:]
    if op == "insert":
        return table[:at] + char + table[at:]
    if op == "delete":
        return table[:at] + table[at + 1:]
    return table[:at]


class TestPackedFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_packed_table())
    def test_loads_what_strict_base64_gives(self, mutation_dir, table):
        path = mutation_dir / "packed.json"
        path.write_text(json.dumps(packed_t3(values=table)), encoding="utf-8")
        got = outcome(load_instance, path)
        try:
            data = base64.b64decode(table, validate=True)
        except ValueError:
            data = None
        if data is None or len(data) != 64:
            assert got[0] is SchemaError
            return
        values = struct.unpack("<8d", data)
        if all(map(math.isfinite, values)):
            assert got[1] == repr(array("d", values))
        else:
            assert got[0] is SchemaError and "finite" in got[1]


def writer_file(path, n):
    """The bytes of a valid instance saved to ``path`` in the writer's layout."""
    save_instance(Instance(f"w{n}", n, gen_bounded_marginal(n, 1.0, 2.5, 0), UniformSpec(1), 1), path)
    return path.read_bytes()


def table_span(data):
    """Offsets of the first byte of the table's contents and of its closing bracket."""
    start = data.index(b'"values": [') + len(b'"values": [')
    return start, data.index(b"]", start)


def outcome(load, path):
    """An instance with the repr of its table, or the type and text of the load error."""
    try:
        inst = load(path)
    except MatroidGreedyError as exc:
        return type(exc), str(exc)
    return inst, repr(inst.function.values)


#: Bytes a mutation inserts: brackets, a string holding a comma and a bracket,
#: literals json accepts and the loader refuses, a nested array, non-UTF-8.
INSERTS = [b"]", b"[", b'"a,]b"', b"true", b"NaN", b"1e400", b"[1,2]", b"\xff"]


@st.composite
def mutated_writer_bytes(draw):
    """Writer-layout bytes of a valid instance under one mutation."""
    n, seed = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    inst = Instance("m", n, gen_bounded_marginal(n, 1.0, 2.5, seed), UniformSpec(1), 1)
    data = reference_text(inst).encode("utf-8")
    start, end = table_span(data)
    inside = st.integers(start, end)
    op = draw(st.sampled_from(
        ["lead", "trail", "double", "insert", "split", "truncate", "garbage", "values", "function"]
    ))
    if op == "lead":
        data = data[:start] + b"," + data[start:]
    elif op == "trail":
        data = data[:end] + b"," + data[end:]
    elif op == "double":
        at = draw(st.sampled_from([i for i in range(start, end) if data[i] == ord(",")] or [start]))
        data = data[:at] + b"," + data[at:]
    elif op == "insert":
        at = draw(inside | st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
    elif op == "split":
        at = draw(inside)
        data = data[:at] + '"é",'.encode("utf-8") + data[at:]
    elif op == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif op == "garbage":
        data += draw(st.sampled_from([b"x", b",", b"]", b"}", b" 1"]))
    else:
        # A second table of the same size, which the whole-file reader
        # loads, since json keeps the last value of a repeated key.
        twice = json.dumps([2.0 * v for v in inst.function.values]).encode()
        if op == "values":
            data = data[: end + 1] + b', "values": ' + twice + data[end + 1:]
        else:
            last = data.rindex(b"}")
            more = b', "function": {"kind": "explicit", "values": ' + twice + b"}"
            data = data[:last] + more + data[last:]
    return data


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


class TestLoader:
    """load_instance reads a file whole and gives what json.loads and instance_from_json give."""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_whole(self, tmp_path):
        data = writer_file(tmp_path / "w.json", 3)
        fifo = tmp_path / "pipe.json"
        os.mkfifo(fifo)
        loaded = []

        def read():
            loaded.append(load_instance(fifo))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        with open(fifo, "wb") as fh:
            fh.write(data)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert loaded == [load_instance(tmp_path / "w.json")]

    def test_text_freed_before_the_table(self, tmp_path):
        # The n=16 file is 1.7 MB, and the table it loads into about 2 MB of
        # floats and list: 3.8 MB at peak, and 4.3 MB if the text were kept
        # until the table was built.
        rng = random.Random(16)
        values = [1.5 * m.bit_count() + rng.uniform(0.0, 0.25) if m else 0.0 for m in range(1 << 16)]
        path = tmp_path / "r16.json"
        save_instance(Instance("r16", 16, SetFunction(16, values), UniformSpec(8), 8), path)
        assert path.stat().st_size > 1_500_000
        tracemalloc.start()
        try:
            load_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_050_000

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_writer_bytes())
    def test_mutated_file_loads_what_json_gives(self, mutation_dir, data):
        path = mutation_dir / "mutated.json"
        path.write_bytes(data)
        try:
            expected = instance_from_json(json.loads(data.decode("utf-8")))
        except (ValueError, RecursionError, MatroidGreedyError):
            with pytest.raises(MatroidGreedyError):
                load_instance(path)
            return
        assert outcome(load_instance, path) == (expected, repr(expected.function.values))
