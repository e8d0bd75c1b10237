import json

import pytest

from immlab.cli import main

from conftest import CORPUS_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRun:
    def test_corpus_all_expectations_met(self, capsys):
        code, out = run_cli(capsys, "run", str(CORPUS_DIR))
        assert code == 0
        assert "all expectations met" in out

    def test_flipped_expectation_fails(self, tmp_path, capsys):
        src = (CORPUS_DIR / "mp.litmus").read_text()
        flipped = src.replace("expect imm=forbidden", "expect imm=allowed")
        (tmp_path / "bad.litmus").write_text(flipped)
        code, out = run_cli(capsys, "run", str(tmp_path))
        assert code == 1
        assert "FAIL" in out

    def test_empty_corpus(self, tmp_path, capsys):
        code, out = run_cli(capsys, "run", str(tmp_path))
        assert code == 0

    def test_parse_failure_is_a_test_failure(self, tmp_path, capsys):
        (tmp_path / "bad.litmus").write_text(
            'prog "B"\nlocations x\nthread 0:\n  w[oops] x 1\n'
        )
        code, out = run_cli(capsys, "run", str(tmp_path))
        assert code == 1 and "bad write mode" in out

    def test_json_schema(self, capsys, tmp_path):
        (tmp_path / "one.litmus").write_text((CORPUS_DIR / "mp.litmus").read_text())
        code, out = run_cli(capsys, "run", str(tmp_path), "--json")
        doc = json.loads(out)
        assert code == 0 and doc["schema"] == 1
        assert doc["tests"][0]["models"]["imm"]["verdict"] == "forbidden"

    def test_parallel_matches_serial(self, capsys, tmp_path):
        for name in ("mp.litmus", "lb-data.litmus"):
            (tmp_path / name).write_text((CORPUS_DIR / name).read_text())
        _, serial = run_cli(capsys, "run", str(tmp_path), "--json")
        _, parallel = run_cli(capsys, "run", str(tmp_path), "--jobs", "2", "--json")

        def strip_timing(doc):
            return [{k: v for k, v in e.items() if k != "seconds"}
                    for e in json.loads(doc)["tests"]]

        assert strip_timing(serial) == strip_timing(parallel)

    def test_truncated_search_fails_an_expectation(self, capsys, tmp_path):
        (tmp_path / "s.litmus").write_text((CORPUS_DIR / "strong-rmw.litmus").read_text())
        code, out = run_cli(capsys, "run", str(tmp_path), "--models", "imm",
                            "--max-candidates", "1", "--json")
        entry = json.loads(out)["tests"][0]["models"]["imm"]
        assert code == 1 and entry["verdict"] == "unknown" and not entry["ok"]


class TestCheck:
    def test_check_matches_expectation(self, capsys):
        code, out = run_cli(capsys, "check", str(CORPUS_DIR / "mp.litmus"),
                            "--model", "imm")
        assert code == 0 and "forbidden" in out

    def test_check_json(self, capsys):
        code, out = run_cli(capsys, "check", str(CORPUS_DIR / "lb-data.litmus"),
                            "--model", "imm", "--json")
        doc = json.loads(out)
        assert doc["verdict"] == "allowed" and doc["ok"]

    def test_power_variant_flags(self, capsys):
        for flag in ("--armv7", "--power-at-axiom"):
            code, out = run_cli(capsys, "check", str(CORPUS_DIR / "mp.litmus"),
                                "--model", "power", flag)
            assert code == 0 and "forbidden" in out

    # strong-rmw has no power expectation, so the POWER variant runs on mp
    @pytest.mark.parametrize("name, flags", [
        ("strong-rmw.litmus", ("--model", "imm")),
        ("mp.litmus", ("--model", "power", "--armv7")),
    ])
    def test_truncated_search_is_unknown(self, capsys, name, flags):
        code, out = run_cli(capsys, "check", str(CORPUS_DIR / name), *flags,
                            "--max-candidates", "1", "--json")
        doc = json.loads(out)
        assert code == 1 and doc["verdict"] == "unknown" and not doc["ok"]


class TestOther:
    def test_enumerate(self, capsys):
        code, out = run_cli(capsys, "enumerate", str(CORPUS_DIR / "mp.litmus"), "--json")
        doc = json.loads(out)
        assert code == 0 and doc["candidates"] == 4 and doc["complete"]

    def test_outcomes(self, capsys):
        code, out = run_cli(capsys, "outcomes", str(CORPUS_DIR / "mp.litmus"),
                            "--model", "imm")
        assert code == 0 and "x=1 y=1" in out

    def test_map(self, capsys, tmp_path):
        code, out = run_cli(capsys, "map", str(CORPUS_DIR / "mp.litmus"),
                            "--target", "power", "--dump-graph", str(tmp_path))
        assert code == 0 and "0 correspondence failure" in out
        dumped = list(tmp_path.glob("power-*.json"))
        assert len(dumped) == 4
        doc = json.loads(dumped[0].read_text())
        assert doc["model"] == "power"

    def test_traverse_trace(self, capsys):
        code, out = run_cli(capsys, "traverse", str(CORPUS_DIR / "lb-data.litmus"),
                            "--graph-index", "0")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all("kind" in line for line in lines)

    def test_certify(self, capsys):
        code, out = run_cli(capsys, "certify", str(CORPUS_DIR / "lb-data.litmus"),
                            "--graph-index", "0", "--step", "1", "--thread", "0")
        assert code == 0 and "0 diagnostic(s)" in out

    def test_simulate(self, capsys):
        code, out = run_cli(capsys, "simulate", str(CORPUS_DIR / "lb-data.litmus"),
                            "--graph-index", "0", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["matches_graph"]

    def test_compare(self, capsys):
        code, out = run_cli(capsys, "compare", str(CORPUS_DIR / "lb-data.litmus"),
                            "imm", "rc11", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["consistent"]["only_imm"] >= 1  # the po∪rf cycle graph

    def test_fuzz(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--seed", "5", "--count", "3", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["violations"] == []

    def test_fuzz_counts_truncated_programs(self, capsys):
        # programs 2, 7 and 20 of seed 7 exceed the 400-candidate default cap
        code, out = run_cli(capsys, "fuzz", "--seed", "7", "--count", "50",
                            "--checks", "inclusions", "--json")
        assert code == 0 and json.loads(out)["truncated"] == 3
        code, out = run_cli(capsys, "fuzz", "--seed", "7", "--count", "3",
                            "--checks", "inclusions")
        assert code == 0 and "1 truncated" in out

    def test_fuzz_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--count", "1"])
