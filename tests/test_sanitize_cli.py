"""CLI surface of the sanitizer: ``repro check`` and ``repro run
--sanitize`` exit codes, JSON shapes, and error handling."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.sanitize.fixtures import EXPECTED


class TestCheck:
    def test_clean_target_exits_zero(self, capsys):
        assert main(["check", "hello", "--method", "pieglobals",
                     "--nvp", "4"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "(executed)" in out

    def test_broken_method_exits_one(self, capsys):
        assert main(["check", "hello", "--method", "none",
                     "--nvp", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "compat-unprivatized-global" in out

    def test_static_only_skips_execution(self, capsys):
        assert main(["check", "hello", "--method", "pieglobals",
                     "--nvp", "4", "--static-only"]) == 0
        assert "(executed)" not in capsys.readouterr().out

    def test_fixture_target(self, capsys):
        assert main(["check", "fixture:dup-strong-def", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {f["code"] for f in payload["findings"]}
        assert codes == EXPECTED["dup-strong-def"]
        assert payload["executed"] is False

    def test_stale_endpoint_fixture_target(self, capsys):
        """The transport/migration race fixture runs through ``repro
        check`` and reports exactly its code, at ERROR severity."""
        assert main(["check", "fixture:stale-endpoint-delivery",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = [f["code"] for f in payload["findings"]]
        assert codes == ["stale-endpoint-delivery"]
        finding = payload["findings"][0]
        assert finding["severity"] == "error"
        assert "endpoint" in finding["fix_hint"]

    def test_unknown_target_exits_two(self, capsys):
        assert main(["check", "no-such-app"]) == 2
        assert "no-such-app" in capsys.readouterr().err

    def test_unknown_fixture_exits_two(self, capsys):
        assert main(["check", "fixture:bogus"]) == 2
        assert "unknown fixture" in capsys.readouterr().err

    def test_json_shape_single_target(self, capsys):
        assert main(["check", "hello", "--method", "pieglobals",
                     "--nvp", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "hello"
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["counters"].get("SAN_CHECK", 0) > 0

    def test_examples_mode_lists_all_targets(self, capsys):
        assert main(["check", "examples", "--method", "pieglobals",
                     "--nvp", "4", "--static-only", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        assert {r["target"] for r in payload} == {"hello", "jacobi", "probe"}
        assert all(r["ok"] for r in payload)


class TestRunSanitize:
    def test_flag_parses(self):
        args = build_parser().parse_args(["run", "fig6", "--sanitize"])
        assert args.sanitize is True

    def test_rejected_for_untraceable_experiment(self, capsys):
        assert main(["run", "adcirc", "--sanitize"]) == 2
        assert "--sanitize supports" in capsys.readouterr().err

    def test_clean_experiment_exits_zero(self, capsys):
        assert main(["run", "fig6", "--quick-n", "200", "--sanitize",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sanitize"]["findings"] == []
        assert payload["sanitize"]["dropped"] == 0

    def test_racy_experiment_exits_one(self, capsys):
        # fig7 deliberately includes method `none`, which shares
        # globals across ranks — the sanitizer must flag it.
        assert main(["run", "fig7", "--sanitize", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {f["code"] for f in payload["sanitize"]["findings"]}
        assert codes & {"race-write-read", "race-write-write"}

    def test_without_flag_no_sanitize_key(self, capsys):
        assert main(["run", "fig6", "--quick-n", "200", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "sanitize" not in payload


class TestBenchDeterminismGate:
    def _patch(self, monkeypatch, identical):
        payload = {
            "bench": "scale_smoke", "quick": True, "python": "3",
            "stages": [{"name": "jacobi", "unit": "q",
                        "params": {"nvp": 4},
                        "sample": {"min_s": 1.0, "ops_per_s": 4.0},
                        "trace_identical": identical}],
        }
        import repro.harness.bench as bench
        monkeypatch.setattr(
            bench, "run_bench",
            lambda quick, nvp, reps, serve=False: payload)

    def test_exit_zero_when_timelines_identical(
            self, monkeypatch, capsys, tmp_path):
        self._patch(monkeypatch, True)
        out = str(tmp_path / "bench.json")
        assert main(["bench", "--quick", "--json", "--out", out]) == 0

    def test_exit_one_when_timelines_diverge(
            self, monkeypatch, capsys, tmp_path):
        self._patch(monkeypatch, False)
        out = str(tmp_path / "bench.json")
        assert main(["bench", "--quick", "--json", "--out", out]) == 1

    def test_real_quick_bench_is_deterministic(self):
        # Tiny end-to-end run: every rep must replay the same timeline.
        from repro.harness.bench import bench_jacobi
        stage = bench_jacobi(nvp=8, n=8, iters=1, reps=2)
        assert stage["trace_identical"] is True


class TestParserSurface:
    def test_check_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check"])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check", "hello"])
        assert args.method == "pieglobals"
        assert args.nvp == 8
        assert args.static_only is False
