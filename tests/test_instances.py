import json

import pytest

from matroid_greedy import (
    DualSpec,
    GroundSetTooLargeError,
    InfeasibleInstanceError,
    Instance,
    SchemaError,
    TruncateSpec,
    UniformSpec,
    check_monotone,
    curvature,
    load_instance,
    marginal_bounds_estimate,
    save_instance,
    submodularity_ratio,
)
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
