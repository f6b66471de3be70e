import json

import pytest

from matroid_greedy.cli import main
from matroid_greedy.instances import Instance, canonical_t3, gen_modular, save_instance
from matroid_greedy.matroids import UniformSpec

from conftest import GOLDEN_DIR


@pytest.fixture
def t3_path(tmp_path):
    path = tmp_path / "t3.json"
    save_instance(canonical_t3(), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--instance", str(bad))
        assert code == 2 and out == "" and err != ""

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--instance", str(tmp_path / "nope.json"))
        assert code == 2 and "cannot read" in err

    def test_infeasible_exits_3(self, capsys, tmp_path):
        import json as j

        obj = j.loads((GOLDEN_DIR / "explicit_random_n3_seed42.json").read_text())
        obj["matroid"]["rank"] = 2
        obj["N"] = 3
        path = tmp_path / "infeasible.json"
        path.write_text(j.dumps(obj), encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--instance", str(path))
        assert code == 3 and err != ""


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

    def test_nan_value_exits_2(self, capsys, tmp_path, t3_path):
        obj = json.loads(open(t3_path).read())
        obj["function"]["values"][1] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run_cli(capsys, "ratios", "--instance", str(path))
        assert code == 2 and out == "" and "finite" in err

    def test_non_monotone_exits_4(self, capsys, tmp_path, t3_path):
        obj = json.loads(open(t3_path).read())
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

    def test_size_cap_exits_5(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--random", "--count", "1", "--n-max", "30"
        )
        assert code == 5 and err != ""

    def test_needs_source(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2 and err != ""

    def test_env_tolerance_override(self, capsys, t3_path, monkeypatch):
        monkeypatch.setenv("MATROID_GREEDY_TOL", "1e-3")
        code, out, _ = run_cli(capsys, "verify", "--instance", t3_path)
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-3

    def test_bad_env_tolerance_exits_2(self, capsys, t3_path, monkeypatch):
        monkeypatch.setenv("MATROID_GREEDY_TOL", "not-a-number")
        code, _, err = run_cli(capsys, "verify", "--instance", t3_path)
        assert code == 2 and err != ""


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

    def test_bad_bounds_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--kind", "bounded", "--n", "4", "--lo", "0", "--hi", "1"
        )
        assert code == 2 and err != ""

    def test_explicit_kind(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "explicit", "--n", "4", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["function"]["values"]) == 16
