import hashlib
import json
import subprocess
import sys

import pytest

from retroharness import cli
from retroharness.cli import main
from retroharness.core import SuiteConfig, get_suite, run_suite
from retroharness.report import SCHEMA_VERSION, read_records, render_records

EXPECTED_SUITES = {
    "fourier",
    "factorization",
    "notation",
    "vm",
    "sine_forward",
    "sine_backward",
    "reciprocal",
}


class TestReportRecords:
    def test_record_fields_and_order(self):
        suite = get_suite("fourier")
        _, reports = run_suite(suite, SuiteConfig(iterations=3))
        record = json.loads(render_records(reports, suite).splitlines()[0])
        assert list(record) == [
            "schema_version",
            "suite",
            "variant",
            "trial_index",
            "trial_seed",
            "mode",
            "mutation",
            "verdict",
            "m1_repr",
            "m1_prime_repr",
        ]
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["suite"] == "fourier"
        assert record["mode"] == "integrated"
        assert record["verdict"]["kind"] == "pass"
        assert record["mutation"]["name"] in ("identity", "add_constant")

    def test_records_sorted_and_one_per_trial(self):
        suite = get_suite("notation")
        _, reports = run_suite(suite, SuiteConfig(iterations=20))
        records = [json.loads(line) for line in render_records(reports, suite).splitlines()]
        assert [r["trial_index"] for r in records] == list(range(20))

    def test_rendering_is_deterministic(self):
        suite = get_suite("vm")
        cfg = SuiteConfig(iterations=25, master_seed=3, variant_id="swap_sub")
        _, first = run_suite(suite, cfg)
        _, second = run_suite(suite, cfg)
        assert render_records(first, suite) == render_records(second, suite)


class TestCliList:
    def test_lists_builtin_suites_with_modes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        names = {line.split()[0] for line in lines}
        assert EXPECTED_SUITES <= names
        for line in lines:
            assert line.split()[1] in ("forward", "backward", "integrated")

    def test_expected_mode_assignments(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        modes = {line.split()[0]: line.split()[1] for line in out.splitlines() if line.strip()}
        assert modes["factorization"] == "forward"
        assert modes["notation"] == "integrated"
        assert modes["vm"] == "backward"
        assert modes["fourier"] == "integrated"
        assert modes["sine_forward"] == "forward"
        assert modes["sine_backward"] == "backward"
        assert modes["reciprocal"] == "integrated"


class TestCliRun:
    def test_correct_run_exits_zero(self, capsys):
        code = main(["run", "--suite", "fourier", "--iterations", "50", "--seed", "42"])
        assert code == 0
        assert "violation: 0" in capsys.readouterr().out

    def test_buggy_run_exits_one(self, capsys):
        code = main(
            ["run", "--suite", "fourier", "--variant", "coef_minus_1j",
             "--iterations", "50", "--seed", "42"]
        )
        assert code == 1
        assert "first failure" in capsys.readouterr().out

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["run", "--suite", "nosuch"]) == 2

    def test_unknown_variant_exits_two(self):
        assert main(["run", "--suite", "fourier", "--variant", "nope"]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_two(self, eps, capsys):
        code = main(["run", "--suite", "reciprocal", "--iterations", "20", "--eps", eps])
        assert code == 2
        assert "eps must be finite" in capsys.readouterr().err

    def test_missing_suite_exits_two(self):
        assert main(["run", "--iterations", "5"]) == 2

    def test_report_file_contents(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        code = main(
            ["run", "--suite", "notation", "--iterations", "10", "--report", str(path)]
        )
        assert code == 0
        records = read_records(str(path))
        assert len(records) == 10
        assert all(r["suite"] == "notation" for r in records)

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        path = tmp_path / "missing" / "out.jsonl"
        code = main(["run", "--suite", "reciprocal", "--iterations", "5", "--report", str(path)])
        assert code == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_unwritable_report_runs_no_trial(self, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("trials ran before the report path was checked")

        monkeypatch.setattr(cli, "run_suite", no_run)
        path = tmp_path / "missing" / "out.jsonl"
        code = main(["run", "--suite", "reciprocal", "--iterations", "5", "--report", str(path)])
        assert code == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_bad_config_keeps_existing_report(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b'{"kept": true}\n')
        code = main(["run", "--suite", "reciprocal", "--iterations", "0", "--report", str(path)])
        assert code == 2
        assert path.read_bytes() == b'{"kept": true}\n'

    def test_bad_config_creates_no_report(self, tmp_path, capsys):
        path = tmp_path / "out.jsonl"
        assert main(["run", "--suite", "reciprocal", "--iterations", "0", "--report", str(path)]) == 2
        assert not path.exists()

    def test_report_files_byte_identical(self, tmp_path, capsys):
        args = ["run", "--suite", "vm", "--variant", "swap_sub", "--iterations", "30",
                "--seed", "7"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(args + ["--report", str(a)])
        main(args + ["--report", str(b)])
        assert hashlib.sha256(a.read_bytes()).hexdigest() == hashlib.sha256(b.read_bytes()).hexdigest()


class TestCliConfigFile:
    def test_config_file_drives_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "iterations": 20, "seed": 5}))
        assert main(["run", "--config", str(cfg)]) == 0
        assert "suite: reciprocal" in capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "variant": "correct",
                                   "iterations": 20}))
        code = main(["run", "--config", str(cfg), "--variant", "off_by_eps"])
        assert code == 1
        assert "variant: off_by_eps" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "bogus": 1}))
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, kind", [("iterations", "int"), ("eps", "float")],
                             ids=["iterations", "eps"])
    def test_boolean_iterations_rejected(self, tmp_path, capsys, key, kind):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "variant": "off_by_eps", key: True}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"'{key}' must be {kind}" in capsys.readouterr().err

    def test_string_seed_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "seed": "7"}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "'seed' must be int" in capsys.readouterr().err

    def test_integer_eps_accepted(self, tmp_path, capsys):
        # At eps = 1 the offset bug stays within tolerance, so the exit code
        # shows that the integer reached the relation.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "reciprocal", "variant": "off_by_eps",
                                   "iterations": 20, "eps": 1}))
        assert main(["run", "--config", str(cfg)]) == 0

    def test_nan_eps_rejected(self, tmp_path, capsys):
        # json.load accepts the non-standard NaN token as a float.
        cfg = tmp_path / "run.json"
        cfg.write_text('{"suite": "reciprocal", "iterations": 20, "eps": NaN}')
        assert main(["run", "--config", str(cfg)]) == 2
        assert "eps must be finite" in capsys.readouterr().err

    def test_integer_eps_past_float_range_rejected(self, tmp_path, capsys):
        # Any int passes 0 <= eps < inf, but one past float range overflows
        # in a relation.
        cfg = tmp_path / "run.json"
        cfg.write_text('{"suite": "reciprocal", "iterations": 5, "eps": 1%s}' % ("0" * 400))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "eps must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config file"),
        ("{", "is not valid JSON"),
        ("[1]", "must hold a JSON object"),
    ], ids=["missing", "invalid_json", "not_an_object"])
    def test_unusable_config_file_exits_two(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "run.json"
        if content is not None:
            cfg.write_text(content)
        assert main(["run", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_config_report_path(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"suite": "notation", "iterations": 5,
                                   "report_path": str(out)}))
        assert main(["run", "--config", str(cfg)]) == 0
        assert len(read_records(str(out))) == 5


class TestSeedPrecedence:
    def test_env_seed_used_when_flag_absent(self, capsys, monkeypatch, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("RETRO_SEED", "123")
        main(["run", "--suite", "notation", "--iterations", "5", "--report", str(a)])
        monkeypatch.delenv("RETRO_SEED")
        main(["run", "--suite", "notation", "--iterations", "5", "--seed", "123",
              "--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_env(self, capsys, monkeypatch, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("RETRO_SEED", "123")
        main(["run", "--suite", "notation", "--iterations", "5", "--seed", "9",
              "--report", str(a)])
        monkeypatch.delenv("RETRO_SEED")
        main(["run", "--suite", "notation", "--iterations", "5", "--seed", "9",
              "--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("RETRO_SEED", "not-a-number")
        assert main(["run", "--suite", "notation", "--iterations", "5"]) == 2


class TestCliReplay:
    PINNED = "1491780421826728406"

    def test_replay_pinned_factorization_bug(self, capsys):
        code = main(["replay", "--suite", "factorization", "--variant", "gcd_x",
                     "--trial-seed", self.PINNED])
        out = capsys.readouterr().out
        assert code == 1
        assert "m1:         12" in out
        assert "[2, 2, 2]" in out
        assert "m1_prime:   8" in out
        assert "violation" in out

    def test_replay_correct_variant_passes_same_seed(self, capsys):
        code = main(["replay", "--suite", "factorization", "--trial-seed", self.PINNED])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict:    pass" in out

    def test_replay_of_failed_forward_reaches_no_mutation(self, capsys):
        code = main(["replay", "--suite", "factorization", "--variant", "gcd_x",
                     "--trial-seed", self.PINNED, "--step-cap", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "mutation:   (not reached)" in out
        assert "stage=forward_exec" in out

    def test_replay_matches_reported_failure(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        main(["run", "--suite", "vm", "--variant", "swap_sub", "--iterations", "50",
              "--seed", "7", "--report", str(path)])
        failing = next(r for r in read_records(str(path)) if r["verdict"]["kind"] != "pass")
        capsys.readouterr()
        code = main(["replay", "--suite", "vm", "--variant", "swap_sub",
                     "--trial-seed", str(failing["trial_seed"])])
        out = capsys.readouterr().out
        assert code == 1
        assert failing["m1_repr"] in out


class TestConsoleEntryPoint:
    def test_module_invocation_round_trip(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "retroharness", "run", "--suite", "notation",
             "--variant", "operand_swap", "--iterations", "20", "--seed", "42"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "violation" in result.stdout

    def test_usage_error_exits_two(self):
        result = subprocess.run(
            [sys.executable, "-m", "retroharness", "run", "--nope"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
