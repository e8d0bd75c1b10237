import json
import os
from collections import Counter
import subprocess
import sys

import pytest

from immlab import fuzz
from immlab.cli import main
from immlab.consistency import Verdict
from immlab.enumeration import candidate_executions

from conftest import CORPUS_DIR, SPIN_LITMUS
from oracles import sc_per_location

SRC = CORPUS_DIR.parent / "src"

# thread 0 loops forever without a memory step unless it reads x=1; a
# certification branch that reads x=0 used to spin in that loop
SILENT_LOOP_LITMUS = """
prog "SILENT-LOOP"
locations x y z
thread 0:
  r[rlx] c z
  r[rlx] a x
  if a == 1 goto 5
  b := 0
  if 1 goto 3
  w[rlx] y 1
thread 1:
  r[rlx] d y
  w[rlx] z d
thread 2:
  w[rlx] x 1
"""


def run_module(*argv, timeout=120):
    """`python -m immlab ARGV` from the source tree, without an install."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "immlab", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


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

    def test_parse_failure_is_a_test_failure(self, tmp_path, capsys):
        (tmp_path / "bad.litmus").write_text(
            'prog "B"\nlocations x\nthread 0:\n  w[oops] x 1\n'
        )
        code, out = run_cli(capsys, "run", str(tmp_path))
        assert code == 1 and "bad write mode" in out

    def test_an_unknown_expected_model_is_a_test_failure(self, tmp_path, capsys):
        # `expect immm=allowed` once ended `run` in a ValueError traceback
        (tmp_path / "bad.litmus").write_text(
            (CORPUS_DIR / "mp.litmus").read_text() + "expect immm=allowed\n")
        code, out = run_cli(capsys, "run", str(tmp_path))
        assert code == 1 and "bad expectation 'immm=allowed'" in out

    def test_json_schema(self, capsys, tmp_path):
        (tmp_path / "one.litmus").write_text((CORPUS_DIR / "mp.litmus").read_text())
        code, out = run_cli(capsys, "run", str(tmp_path), "--json")
        doc = json.loads(out)
        assert code == 0 and doc["schema"] == 1
        assert doc["tests"][0]["models"]["imm"]["verdict"] == "forbidden"

    def test_json_reports_pruned_per_model(self, capsys, tmp_path, corpus):
        (tmp_path / "coh.litmus").write_text((CORPUS_DIR / "coh.litmus").read_text())
        code, out = run_cli(capsys, "run", str(tmp_path), "--json")
        models = json.loads(out)["tests"][0]["models"]
        incoherent = sum(not sc_per_location(c.execution)
                         for c in candidate_executions(corpus["coh"].program))
        assert code == 0 and incoherent > 0
        assert {m: e["pruned"] for m, e in models.items()} == {
            m: incoherent for m in corpus["coh"].expectations}

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

    def test_check_json_reports_pruned(self, capsys, corpus):
        incoherent = sum(not sc_per_location(c.execution)
                         for c in candidate_executions(corpus["rfi-ppo"].program))
        code, out = run_cli(capsys, "check", str(CORPUS_DIR / "rfi-ppo.litmus"),
                            "--model", "power", "--json")
        assert code == 0 and incoherent > 0
        assert json.loads(out)["pruned"] == incoherent
        code, out = run_cli(capsys, "check", str(CORPUS_DIR / "rfi-ppo.litmus"),
                            "--model", "power")
        assert "pruned" not in out

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

    def test_cap_equal_to_the_candidate_count_cuts_nothing(self, capsys):
        # mp has exactly 4 candidates on either stream
        mp = str(CORPUS_DIR / "mp.litmus")
        code, out = run_cli(capsys, "check", mp, "--model", "imm", "--max-candidates", "4")
        assert code == 0 and "assertion forbidden (expected forbidden: ok)" in out
        note = " (the search was truncated: raise --unroll or --max-candidates)"
        for cap, cut in (("4", False), ("3", True)):
            code, out = run_cli(capsys, "enumerate", mp, "--max-candidates", cap)
            first, *_ = out.splitlines()
            assert code == 0 and first.endswith(note) is cut, cap

    # both once answered "forbidden", a MISMATCH against the expectation
    @pytest.mark.parametrize("assertion", ["assert allowed:\n", ""],
                             ids=["no-clause", "no-assert-line"])
    def test_an_empty_assertion_holds_for_every_candidate(self, capsys, tmp_path, assertion):
        path = tmp_path / "one-write.litmus"
        path.write_text('prog "W"\nlocations x\nthread 0:\n  w[rlx] x 1\n'
                        + assertion + "expect imm=allowed\n")
        code, out = run_cli(capsys, "check", str(path), "--model", "imm")
        assert code == 0 and out == "W [imm]: assertion allowed (expected allowed: ok)\n"


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

    def test_simulate_long_loop(self, capsys, tmp_path):
        path = tmp_path / "spin.litmus"
        path.write_text(SPIN_LITMUS)
        code, out = run_cli(capsys, "simulate", str(path), "--unroll", "101", "--json")
        assert code == 0 and json.loads(out)["matches_graph"]

    def test_simulate_silent_loop_returns(self, tmp_path):
        path = tmp_path / "silent-loop.litmus"
        path.write_text(SILENT_LOOP_LITMUS)
        proc = run_module("simulate", str(path), "--graph-index", "3", "--json")
        doc = json.loads(proc.stdout)
        assert proc.returncode == 0
        assert doc["outcome"] == {"x": 1, "y": 1, "z": 1}
        assert doc["machine_steps"] == 9 and doc["matches_graph"]

    def test_python_dash_m(self):
        proc = run_module("check", str(CORPUS_DIR / "mp.litmus"), "--model", "imm")
        assert proc.returncode == 0
        assert proc.stdout == "MP [imm]: assertion forbidden (expected forbidden: ok)\n"

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

    def test_fuzz_computes_each_verdict_once_where_it_is_read(self, monkeypatch):
        # a c11 check that rejects every graph makes each implication that
        # reads it fire, so the violations count the candidates it was read on
        calls = Counter()
        for name in ("check_imms", "check_c11", "split_release"):
            def counted(g, _name=name, _check=getattr(fuzz, name)):
                calls[_name] += 1
                verdict = _check(g)
                if _name == "check_c11":
                    return Verdict("c11", violations=[("rejected", None)])
                return verdict

            monkeypatch.setattr(fuzz, name, counted)
        report = fuzz.fuzz_run(7, count=5)
        found = Counter(v["check"] for v in report.violations)
        imm, rc11 = found["imm=>c11"], found["rc11=>c11"]  # consistent candidates
        assert 0 < imm < report.candidates and rc11 > 0
        assert calls["check_imms"] == imm
        assert calls["split_release"] == report.candidates - imm
        assert max(imm, rc11) <= calls["check_c11"] < imm + rc11

    def test_fuzz_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--count", "1"])


BAD_WRITE_MODE = 'prog "B"\nlocations x\nthread 0:\n  w[oops] x 1\n'


class TestBadInput:
    """A file that cannot be read or parsed is reported in one line, and
    the command exits 2."""

    @pytest.mark.parametrize("command, rest", [
        ("enumerate", ()), ("check", ("--model", "imm")), ("outcomes", ("--model", "imm")),
        ("map", ("--target", "power")), ("traverse", ()),
        ("certify", ("--step", "0", "--thread", "0")), ("simulate", ()),
        ("compare", ("imm", "rc11")),
    ])
    def test_malformed_file_is_reported(self, capsys, tmp_path, command, rest):
        path = tmp_path / "bad.litmus"
        path.write_text(BAD_WRITE_MODE)
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(path), *rest])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert captured.err == f"immlab: {path}: bad write mode 'oops' (line 4)\n"

    def test_empty_value_domain_is_reported(self, capsys, tmp_path):
        # it once printed "assertion forbidden (expected forbidden: ok)" and
        # exited 0, no read having a value to return
        path = tmp_path / "empty.litmus"
        path.write_text('prog "E"\nlocations x\nvals 0..-1\nthread 0:\n  r[rlx] a x\n'
                        "assert forbidden: a=0\nexpect imm=forbidden\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["check", str(path), "--model", "imm"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert captured.err == f"immlab: {path}: value domain 0..-1 is empty (line 3)\n"

    def test_missing_file_is_reported(self, capsys, tmp_path):
        path = tmp_path / "absent.litmus"
        with pytest.raises(SystemExit) as exit_info:
            main(["check", str(path), "--model", "imm"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert captured.err == f"immlab: {path}: No such file or directory\n"

    # each once printed "all expectations met (0 tests)" and exited 0
    @pytest.mark.parametrize("name, reason", [
        ("absent", "No such file or directory"), ("mp.litmus", "Not a directory"),
        ("empty", "no .litmus file"),
    ])
    def test_run_on_a_path_that_is_no_directory_is_reported(self, capsys, tmp_path,
                                                            name, reason):
        (tmp_path / "mp.litmus").write_text((CORPUS_DIR / "mp.litmus").read_text())
        (tmp_path / "empty").mkdir()
        path = tmp_path / name
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(path)])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert captured.err == f"immlab: {path}: {reason}\n"

    # each once ended in a FileExistsError traceback from the first dump
    @pytest.mark.parametrize("command, rest", [
        ("enumerate", ()), ("map", ("--target", "power")),
        ("certify", ("--step", "0", "--thread", "0")),
    ])
    def test_dump_graph_onto_a_file_is_reported(self, capsys, tmp_path, command, rest):
        path = tmp_path / "taken"
        path.write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(CORPUS_DIR / "mp.litmus"), *rest, "--dump-graph", str(path)])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert captured.err == f"immlab: {path}: File exists\n"

    def test_no_traceback_from_the_command_line(self, tmp_path):
        path = tmp_path / "bad.litmus"
        path.write_bytes(b'prog "B"\nthread 0:\n  r[rlx] a \xff\n')
        proc = run_module("enumerate", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            f"immlab: {path}: bytes that are not UTF-8: invalid start byte (line 3)\n")

    def test_run_reports_one_bad_file_and_checks_the_rest(self, capsys, tmp_path):
        (tmp_path / "a-bad.litmus").write_text('prog "B"\nvals 0..two\n')
        (tmp_path / "b-gone.litmus").symlink_to(tmp_path / "absent")
        (tmp_path / "mp.litmus").write_text((CORPUS_DIR / "mp.litmus").read_text())
        code, out = run_cli(capsys, "run", str(tmp_path))
        lines = out.splitlines()
        assert code == 1 and len(lines) == 4
        assert lines[0] == (
            f"FAIL {tmp_path / 'a-bad.litmus'}: expected an integer, got 'two' (line 2)")
        assert lines[1].startswith(f"FAIL {tmp_path / 'b-gone.litmus'}: [Errno 2]")
        assert lines[2].startswith("ok   MP ")
        assert lines[3] == "EXPECTATION MISMATCHES (3 tests)"


class TestBadArguments:
    @pytest.mark.parametrize("argv, message", [
        (("traverse", "lb-data.litmus", "--graph-index", "99"),
         "--graph-index out of range (0..3)"),
        (("traverse", "lb-data.litmus", "--graph-index", "-1"),
         "--graph-index out of range (0..3)"),
        (("simulate", "lb-data.litmus", "--graph-index", "99"),
         "--graph-index out of range (0..3)"),
        (("certify", "lb-data.litmus", "--graph-index", "99", "--step", "0", "--thread", "0"),
         "--graph-index out of range (0..3)"),
        (("certify", "lb-data.litmus", "--step", "0", "--thread", "9"),
         "--thread out of range (0..1)"),
        (("certify", "lb-data.litmus", "--step", "0", "--thread", "-1"),
         "--thread out of range (0..1)"),
    ])
    def test_index_out_of_range_is_reported(self, capsys, argv, message):
        command, name, *rest = argv
        code = main([command, str(CORPUS_DIR / name), *rest])
        captured = capsys.readouterr()
        assert code == 1 and message in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ("traverse",), ("simulate",), ("certify", "--step", "0", "--thread", "0"),
    ])
    def test_truncated_search_is_reported(self, capsys, tmp_path, argv):
        path = tmp_path / "spin.litmus"
        path.write_text(SPIN_LITMUS)
        command, *rest = argv
        code = main([command, str(path), *rest])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(
            "no consistent candidate executions (the search was truncated")

    # enumerate once printed its own note, and the other three none
    @pytest.mark.parametrize("command, rest", [
        ("enumerate", ()), ("outcomes", ("--model", "imm")), ("map", ("--target", "arm")),
        ("compare", ("imm", "rc11")),
    ])
    def test_every_search_notes_a_truncation(self, capsys, command, rest):
        argv = [command, str(CORPUS_DIR / "mp.litmus"), *rest, "--max-candidates", "1"]
        code, out = run_cli(capsys, *argv)
        first, *_ = out.splitlines()
        assert code == 0 and first.endswith(
            " (the search was truncated: raise --unroll or --max-candidates)")
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["complete"] is False
        code, out = run_cli(capsys, *argv[:-2], "--json")
        assert code == 0 and json.loads(out)["complete"] is True

    def test_truncated_compare_leaves_inclusions_unknown(self, capsys):
        # after 1 of mp's 4 candidates, imm⊆rc11 once read True
        argv = ["compare", str(CORPUS_DIR / "mp.litmus"), "imm", "rc11", "--max-candidates", "1"]
        code, out = run_cli(capsys, *argv)
        assert code == 0 and "outcomes imm⊆rc11: unknown (the search was truncated" in out
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["outcome_inclusion"] == {"imm⊆rc11": None, "rc11⊆imm": None}
        code, out = run_cli(capsys, *argv[:-2], "--json")
        assert json.loads(out)["outcome_inclusion"] == {"imm⊆rc11": True, "rc11⊆imm": True}

    def test_simulation_failure_is_reported(self, capsys):
        code = main(["simulate", str(CORPUS_DIR / "mp.litmus")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "simulation failed: unsupported fragment: w[rel] 1 1\n"

    @pytest.mark.parametrize("flag", ["--armv7", "--power-at-axiom"])
    def test_power_flags_need_the_power_model(self, capsys, flag):
        code = main(["check", str(CORPUS_DIR / "mp.litmus"), "--model", "imm", flag])
        captured = capsys.readouterr()
        assert code == 2 and "--model power" in captured.err and captured.out == ""

    def test_compare_needs_two_different_models(self, capsys):
        # `compare mp.litmus imm imm --json` once printed three "consistent"
        # keys and one "outcome_inclusion" key
        code = main(["compare", str(CORPUS_DIR / "mp.litmus"), "imm", "imm", "--json"])
        captured = capsys.readouterr()
        assert code == 2 and "two different models" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (("fuzz", "--seed", "1", "--count", "2", "--checks", "mapping"),
         "unknown check 'mapping' (choose from inclusions, mappings, promise)"),
        (("run", str(CORPUS_DIR), "--models", "imm,imx"),
         "unknown model 'imx' (choose from imm, imms, c11, rc11, power, arm)"),
    ])
    def test_unknown_names_are_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and message in captured.err
        assert captured.out == ""

    # `run --models imm,imm` once decided imm twice per file and printed it once
    @pytest.mark.parametrize("argv, message", [
        (("run", str(CORPUS_DIR), "--models", "imm,rc11,imm"),
         "argument --models: model 'imm' given more than once"),
        (("fuzz", "--seed", "1", "--count", "2", "--checks", "promise,mappings,promise"),
         "argument --checks: check 'promise' given more than once"),
    ])
    def test_repeated_names_are_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and message in captured.err
        assert captured.out == ""

    MP = str(CORPUS_DIR / "mp.litmus")

    @pytest.mark.parametrize("argv, message", [
        (("enumerate", MP, "--max-candidates", "0"), "--max-candidates: must be at least 1"),
        (("enumerate", MP, "--max-candidates", "-3"), "--max-candidates: must be at least 1"),
        (("check", MP, "--model", "imm", "--max-val", "-1"), "--max-val: must be at least 0"),
        (("enumerate", MP, "--unroll", "0"), "--unroll: must be at least 1"),
        (("run", str(CORPUS_DIR), "--jobs", "0"), "--jobs: must be at least 1"),
        (("fuzz", "--seed", "1", "--count", "0"), "--count: must be at least 1"),
        (("fuzz", "--seed", "1", "--per-program", "0"), "--per-program: must be at least 1"),
        (("fuzz", "--seed", "1", "--threads", "a"), "--threads: expected comma-separated"),
        (("fuzz", "--seed", "1", "--threads", "0"), "--threads: expected comma-separated"),
        (("fuzz", "--seed", "1", "--threads", "2,-1"), "--threads: expected comma-separated"),
        (("check", MP, "--model", "imm", "--max-candidates", "x"), "invalid int value: 'x'"),
        (("fuzz", "--seed", "1", "--max-instr", "0"), "--max-instr: must be at least 1"),
    ])
    def test_out_of_range_bounds_are_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and message in captured.err
        assert captured.out == ""

    # each subcommand takes only the flags it reads
    @pytest.mark.parametrize("command, flag", [
        ("check", "--dump-graph"), ("outcomes", "--dump-graph"),
        ("traverse", "--dump-graph"), ("simulate", "--dump-graph"),
        ("compare", "--dump-graph"), ("run", "--dump-graph"), ("fuzz", "--dump-graph"),
        ("run", "--max-val"), ("fuzz", "--max-val"), ("fuzz", "--max-candidates"),
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, command, flag):
        required = {
            "check": (self.MP, "--model", "imm"), "outcomes": (self.MP, "--model", "imm"),
            "traverse": (self.MP,), "simulate": (self.MP,),
            "compare": (self.MP, "imm", "rc11"), "run": (str(CORPUS_DIR),),
            "fuzz": ("--seed", "1", "--count", "1"),
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *required, flag, "1"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in captured.err and captured.out == ""

    def test_lowest_bounds_still_run(self, capsys):
        code, out = run_cli(capsys, "enumerate", self.MP, "--max-candidates", "1",
                            "--max-val", "0", "--unroll", "1", "--json")
        assert code == 0 and json.loads(out)["candidates"] == 1
        code, out = run_cli(capsys, "fuzz", "--seed", "5", "--count", "1", "--threads", "1",
                            "--max-instr", "1", "--per-program", "1",
                            "--checks", "inclusions", "--json")
        assert code == 0 and json.loads(out)["candidates"] <= 1

    @pytest.mark.parametrize("cap", [0, -3])
    def test_candidate_cap_below_one_raises(self, corpus, cap):
        with pytest.raises(ValueError, match="max_candidates must be at least 1"):
            list(candidate_executions(corpus["mp"].program, max_candidates=cap))

    def test_known_model_subset_still_runs(self, capsys, tmp_path):
        (tmp_path / "mp.litmus").write_text((CORPUS_DIR / "mp.litmus").read_text())
        code, out = run_cli(capsys, "run", str(tmp_path), "--models", "imm,arm", "--json")
        assert code == 0
        assert sorted(json.loads(out)["tests"][0]["models"]) == ["arm", "imm"]
