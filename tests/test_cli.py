"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_USAGE,
    _finish_sanitize,
    build_parser,
    main,
)
from repro.simulator import SimSanitizer


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.model == "opt-13b"
        assert args.rate == 2.0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy"])


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "opt-13b" in out and "opt-175b" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "--model", "opt-13b", "--input-len", "256"]) == 0
        out = capsys.readouterr().out
        assert "saturation length" in out
        assert "tp=2" in out

    def test_serve_small(self, capsys):
        code = main(
            [
                "serve", "--model", "opt-1.3b", "--rate", "4.0",
                "--requests", "30", "--ttft", "0.5", "--tpot", "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "30/30 requests" in out
        assert "SLO attainment" in out

    def test_serve_unknown_model(self):
        with pytest.raises(KeyError):
            main(["serve", "--model", "gpt-5"])

    def test_trace_writes_chrome_and_jsonl(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace", "--model", "opt-1.3b", "--rate", "4.0",
                "--requests", "20", "--out", str(out),
                "--jsonl-out", str(jsonl),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "20/20 requests" in printed
        assert "max |span-sum - e2e|" in printed
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"prefill_exec", "kv_transfer", "decode_step"} <= names
        lines = jsonl.read_text().strip().split("\n")
        assert all(json.loads(line)["kind"] for line in lines)

    def test_trace_deterministic_outputs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(
                [
                    "trace", "--model", "opt-1.3b", "--rate", "4.0",
                    "--requests", "15", "--seed", "3", "--out", str(path),
                ]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metrics_prints_report_and_exports(self, capsys, tmp_path):
        prom = tmp_path / "m.prom"
        jsonp = tmp_path / "m.json"
        code = main(
            [
                "metrics", "--model", "opt-1.3b", "--rate", "4.0",
                "--requests", "25", "--window", "10", "--interval", "5",
                "--prom-out", str(prom), "--json-out", str(jsonp),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "windowed SLO attainment" in out
        assert "cumulative attainment" in out
        assert "per-phase utilization" in out
        text = prom.read_text()
        assert "# TYPE repro_slo_attainment_window gauge" in text
        assert "repro_requests_completed_total 25" in text
        doc = json.loads(jsonp.read_text())
        assert doc["repro_requests_completed_total"]["samples"][0]["value"] == 25

    def test_metrics_online_matches_offline(self, capsys):
        assert main(
            ["metrics", "--model", "opt-1.3b", "--rate", "4.0",
             "--requests", "20"]
        ) == 0
        out = capsys.readouterr().out
        # The cumulative line prints both the monitor's number and the
        # offline slo_attainment check; they must agree exactly.
        line = next(l for l in out.splitlines() if "cumulative attainment" in l)
        online = line.split("total=")[1].split("%")[0]
        offline = line.split("offline check: ")[1].split("%")[0]
        assert online == offline

    def test_metrics_export_deterministic(self, tmp_path):
        paths = [tmp_path / "a.prom", tmp_path / "b.prom"]
        for path in paths:
            assert main(
                ["metrics", "--model", "opt-1.3b", "--rate", "4.0",
                 "--requests", "15", "--seed", "3", "--prom-out", str(path)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metrics_colocated_mode(self, capsys):
        assert main(
            ["metrics", "--mode", "colocated", "--model", "opt-1.3b",
             "--rate", "4.0", "--requests", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "colocated=" in out

    def test_trace_colocated_mode(self, tmp_path):
        out = tmp_path / "coloc.json"
        assert main(
            [
                "trace", "--mode", "colocated", "--model", "opt-1.3b",
                "--rate", "4.0", "--requests", "10", "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "kv_transfer" not in names


class TestProfileCommand:
    def test_profile_human_output(self, capsys):
        assert main(
            ["profile", "--model", "opt-1.3b", "--rate", "4.0",
             "--requests", "10", "--ttft", "4.0", "--tpot", "0.2"]
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "decode_exec" in out
        assert "goodput=" in out

    def test_profile_json_and_html_outputs(self, capsys, tmp_path):
        json_out = tmp_path / "profile.json"
        html_out = tmp_path / "profile.html"
        assert main(
            ["profile", "--model", "opt-1.3b", "--rate", "4.0",
             "--requests", "10", "--format", "json",
             "--json-out", str(json_out), "--html-out", str(html_out)]
        ) == EXIT_OK
        report = json.loads(json_out.read_text())
        assert report["schema"] == "repro-profile/1"
        assert capsys.readouterr().out.strip() == json_out.read_text().strip()
        assert html_out.read_text().startswith("<!DOCTYPE html>")

    def test_profile_deterministic_json(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(
                ["profile", "--model", "opt-1.3b", "--rate", "4.0",
                 "--requests", "10", "--seed", "5", "--json-out", str(path)]
            ) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_profile_diff_roundtrip(self, capsys, tmp_path):
        reports = {}
        for mode in ("colocated", "disaggregated"):
            path = tmp_path / f"{mode}.json"
            assert main(
                ["profile", "--mode", mode, "--model", "opt-1.3b",
                 "--rate", "4.0", "--requests", "10",
                 "--json-out", str(path)]
            ) == EXIT_OK
            reports[mode] = path
        capsys.readouterr()
        assert main(
            ["profile", "--diff", str(reports["colocated"]),
             str(reports["disaggregated"])]
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert "profile diff" in out
        assert "attributed" in out

    def test_profile_diff_missing_file_is_usage_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        ok = tmp_path / "ok.json"
        assert main(
            ["profile", "--model", "opt-1.3b", "--rate", "4.0",
             "--requests", "5", "--json-out", str(ok)]
        ) == EXIT_OK
        assert main(
            ["profile", "--diff", str(missing), str(ok)]
        ) == EXIT_USAGE

    def test_profile_diff_rejects_non_profile_json(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "something-else"}')
        assert main(
            ["profile", "--diff", str(bogus), str(bogus)]
        ) == EXIT_USAGE


class TestExitCodeSemantics:
    """Satellite: pinned exit-code contract (documented in --help)."""

    def test_constants(self):
        assert (EXIT_OK, EXIT_FINDINGS, EXIT_USAGE) == (0, 1, 2)

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "1 findings" in out
        assert "2 usage errors" in out

    def test_clean_sanitized_run_exits_zero(self, capsys):
        assert main(
            ["profile", "--model", "opt-1.3b", "--rate", "4.0",
             "--requests", "5", "--sanitize"]
        ) == EXIT_OK
        assert "0 violations" in capsys.readouterr().out

    def test_lenient_sanitizer_violation_exits_findings(self, capsys):
        """A lenient run completes, but violations still flip the exit code."""
        sanitizer = SimSanitizer(strict=False)
        sanitizer.violate("test_kind", "synthetic violation", time=1.0)
        assert _finish_sanitize(sanitizer) == EXIT_FINDINGS
        assert "test_kind" in capsys.readouterr().out

    def test_clean_sanitizer_contributes_ok(self, capsys):
        assert _finish_sanitize(SimSanitizer(strict=False)) == EXIT_OK
        assert _finish_sanitize(None) == EXIT_OK

    def test_lint_usage_error_without_paths(self, capsys):
        assert main(["lint"]) == EXIT_USAGE

    def test_lint_findings_exit_code(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(dirty)]) == EXIT_FINDINGS
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == EXIT_OK

    def test_lint_explain_deterministic(self, capsys):
        assert main(["lint", "--explain", "SIM001"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["lint", "--explain", "SIM001"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("SIM001 — ")
        for section in ("Rationale:", "Example violation:", "Suppression:"):
            assert section in first

    def test_lint_explain_every_rule(self, capsys):
        from repro.lint import rule_names

        for rule in rule_names():
            assert main(["lint", "--explain", rule]) == EXIT_OK
            out = capsys.readouterr().out
            assert out.startswith(f"{rule} — ")

    def test_lint_explain_unknown_rule(self, capsys):
        assert main(["lint", "--explain", "NOPE42"]) == EXIT_USAGE

    def test_lint_sarif_output(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert main(["lint", "--format", "sarif", str(dirty)]) == EXIT_FINDINGS
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "DET002" in rules and "SIM001" in rules
        result = run["results"][0]
        assert result["ruleId"] == "DET002"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_lint_baseline_write_then_check(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        baseline = tmp_path / "baseline.json"
        assert main(
            ["lint", "--baseline", "write", "--baseline-file", str(baseline),
             str(dirty)]
        ) == EXIT_OK
        capsys.readouterr()
        # Known findings are ratcheted away...
        assert main(
            ["lint", "--baseline", "check", "--baseline-file", str(baseline),
             str(dirty)]
        ) == EXIT_OK
        capsys.readouterr()
        # ...but a new finding still fails the check.
        dirty.write_text(
            "import random\nx = random.random()\ny = random.randint(0, 3)\n"
        )
        assert main(
            ["lint", "--baseline", "check", "--baseline-file", str(baseline),
             str(dirty)]
        ) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "randint" in out and "random.random" not in out

    def test_lint_cache_dir_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("def f():\n    return 1\n")
        cache = tmp_path / "cache"
        assert main(["lint", "--cache-dir", str(cache), str(target)]) == EXIT_OK
        assert list(cache.glob("callgraph-*.json"))
        capsys.readouterr()
        assert main(["lint", "--cache-dir", str(cache), str(target)]) == EXIT_OK
