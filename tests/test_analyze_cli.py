"""CLI surface: ``repro analyze`` and the phase-merged ``repro check``."""

import json

from repro.cli import main


class TestAnalyzeCommand:
    def test_app_clean_exit_zero(self, capsys):
        assert main(["analyze", "hello"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "swapglobals" in out

    def test_fixture_exit_one(self, capsys):
        assert main(["analyze", "fixture:ana-collective-divergent"]) == 1
        out = capsys.readouterr().out
        assert "comm-collective-divergent" in out

    def test_fixture_json(self, capsys):
        assert main(["analyze", "fixture:ana-const-write", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is False
        (finding,) = obj["findings"]
        assert finding["code"] == "pv-const-write"
        assert finding["phase"] == "source"
        assert finding["file"].endswith("fixtures.py")
        assert finding["line"] > 0

    def test_apps_all_clean(self, capsys):
        assert main(["analyze", "apps"]) == 0

    def test_examples_all_clean(self, capsys):
        assert main(["analyze", "examples"]) == 0

    def test_self_lint_clean(self, capsys):
        assert main(["analyze", "self"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_method_flag(self, capsys):
        assert main(["analyze", "fixture:ana-method-insufficient",
                     "--method", "pieglobals"]) == 0

    def test_suggest_flag(self, capsys):
        assert main(["analyze", "hello", "--suggest"]) == 0

    def test_unknown_target(self, capsys):
        assert main(["analyze", "no-such-thing"]) == 2

    def test_fixture_of_another_phase(self, capsys):
        # The fixture exists, but its detector is the image linter:
        # name the phase and point at the command that runs it.
        assert main(["analyze", "fixture:reloc-unresolved"]) == 2
        err = capsys.readouterr().err
        assert "static-phase fixture" in err
        assert "repro check fixture:reloc-unresolved" in err

    def test_json_report_shape(self, capsys):
        assert main(["analyze", "jacobi3d", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert obj["predicted_method"] == "mpc"
        assert set(obj["classifications"]) >= {"omega", "cur_iter"}
        assert obj["findings"] == []
        assert "exchange_halos" in obj["functions"]


class TestCheckPhases:
    def test_check_json_has_phase_fields(self, capsys):
        assert main(["check", "hello", "--json", "--static-only"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert all("phase" in f for f in obj["findings"])

    def test_check_static_errors_gate_execution(self, capsys):
        # A broken method on hello: the compat matrix flags it in the
        # static phase and the sanitized execution never runs.
        assert main(["check", "hello", "--method", "none", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["executed"] is False
        assert {f["phase"] for f in obj["findings"]} == {"static"}

    def test_check_race_fixture_tagged_runtime(self, capsys):
        assert main(["check", "fixture:race-shared-globals",
                     "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["findings"]
        assert {f["phase"] for f in obj["findings"]} == {"runtime"}

    def test_check_analyzer_fixture(self, capsys):
        assert main(["check", "fixture:ana-wallclock"]) == 1
        out = capsys.readouterr().out
        assert "det-wallclock" in out

    def test_check_sanitizer_fixture_tagged(self, capsys):
        assert main(["check", "fixture:reloc-unresolved", "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert {f["phase"] for f in obj["findings"]} == {"static"}
