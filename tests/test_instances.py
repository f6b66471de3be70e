import json

import pytest

from matroid_greedy import (
    DualSpec,
    ExplicitSpec,
    GraphicSpec,
    GroundSetTooLargeError,
    InfeasibleInstanceError,
    Instance,
    InvalidSpecError,
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
from matroid_greedy.caps import MAX_SPEC_DEPTH
from matroid_greedy.instances import (
    canonical_t3,
    gen_bounded_marginal,
    gen_explicit_random,
    gen_modular,
    instance_from_json,
    instance_to_json,
    random_suite,
)

from conftest import GOLDEN_DIR

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
        assert f.values == (0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0)

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
        with pytest.raises(GroundSetTooLargeError):
            gen_bounded_marginal(13, 1.0, 2.0, seed=1)


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


class TestPersistence:
    def test_round_trip(self, tmp_path):
        inst = canonical_t3()
        path = tmp_path / "t3.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded == inst

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

    def test_invalid_matroid_becomes_schema_error(self):
        obj = instance_to_json(canonical_t3())
        obj["matroid"] = {"kind": "explicit", "independent": [0, 3]}
        with pytest.raises(SchemaError, match="hereditary"):
            instance_from_json(obj)

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
    """save_instance writes exactly the bytes of json's indenting encoder."""

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
