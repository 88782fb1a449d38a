"""Tests for the command-line interface."""

import argparse
import json
import pathlib

import pytest

from repro.analysis.critpath import PROFILE_SCHEMA
from repro.cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_USAGE,
    _finish_sanitize,
    build_parser,
    main,
)
from repro.simulator import SimSanitizer
from repro.workload import Request, Trace

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_MODEL = [("--model", "opt-13b"), ("--dataset", "sharegpt")]
_MODE = [("--mode", "disaggregated")]
_DEPLOYMENT = [
    ("--num-prefill", 1), ("--num-decode", 1),
    ("--prefill-tp", 1), ("--prefill-pp", 1),
    ("--decode-tp", 1), ("--decode-pp", 1),
]
_SCHEDULING = [
    ("--queue-policy", "fcfs"), ("--batch-policy", "token_budget"),
    ("--dispatch-policy", "least_loaded"),
]


def _workload(requests):
    return [("--rate", 2.0), ("--requests", requests), ("--seed", 0)]


#: Every option (first spelling) and default of the subcommands that
#: share the run flags, in declaration order.
_OPTIONS = {
    "serve": _MODEL + _workload(300) + _DEPLOYMENT + [
        ("--ttft", 0.0), ("--tpot", 0.0),
    ] + _SCHEDULING,
    "trace": _MODEL + _MODE + _workload(100) + _DEPLOYMENT + [
        ("--out", ""), ("--jsonl-out", ""), ("--sanitize", False),
    ] + _SCHEDULING,
    "metrics": _MODEL + _MODE + _workload(300) + _DEPLOYMENT + [
        ("--ttft", 4.0), ("--tpot", 0.2), ("--window", 30.0),
        ("--interval", 10.0), ("--prom-out", ""), ("--json-out", ""),
        ("--sanitize", False),
    ] + _SCHEDULING,
    "profile": _MODEL + _MODE + _workload(100) + _DEPLOYMENT + [
        ("--ttft", 0.0), ("--tpot", 0.0), ("--format", "human"),
        ("--json-out", ""), ("--html-out", ""), ("--diff", None),
        ("--sanitize", False),
    ] + _SCHEDULING,
}


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

    @pytest.mark.parametrize("command", sorted(_OPTIONS))
    def test_options_and_defaults_pinned(self, command):
        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        options = [
            (action.option_strings[0], action.default)
            for action in sub.choices[command]._actions
            if action.option_strings and action.dest != "help"
        ]
        assert options == _OPTIONS[command]


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

    @pytest.mark.parametrize("command", ["serve", "trace"])
    def test_rejections_end_the_first_line(self, command, capsys, monkeypatch, tmp_path):
        """A run that rejects requests counts them on its first line."""
        oversized = Request(request_id=0, arrival_time=0.0, input_len=10**7, output_len=8)
        servable = Request(request_id=1, arrival_time=0.1, input_len=100, output_len=8)
        monkeypatch.setattr(
            "repro.cli._trace_from_args", lambda args: Trace([oversized, servable]))
        argv = [command, "--model", "opt-1.3b"]
        if command == "trace":
            argv += ["--out", str(tmp_path / "trace.json")]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("1/2 requests") and first.endswith("simulated, 1 rejected")

    def test_serve_unknown_model(self, capsys):
        assert main(["serve", "--model", "gpt-5"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown model 'gpt-5'" in err and "opt-13b" in err

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
        assert {"prefill_exec", "kv_transfer", "decode"} <= names
        lines = jsonl.read_text().strip().split("\n")
        assert all(json.loads(line)["kind"] for line in lines)

    def test_trace_writes_only_the_files_it_is_given(
        self, capsys, monkeypatch, tmp_path
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("trace wrote a Chrome trace without --out")

        monkeypatch.setattr("repro.cli.write_chrome_trace", refuse)
        jsonl = tmp_path / "trace.jsonl"
        assert main(
            [
                "trace", "--model", "opt-1.3b", "--rate", "4.0",
                "--requests", "10", "--jsonl-out", str(jsonl),
            ]
        ) == 0
        assert jsonl.read_text().strip()
        printed = capsys.readouterr().out
        assert f"JSON-lines trace written to {jsonl}" in printed
        assert "Chrome trace written" not in printed

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

    @pytest.mark.parametrize("mode", ["disaggregated", "colocated"])
    def test_metrics_table_pinned(self, mode, capsys, tmp_path):
        """The printed table and summary lines, byte for byte.

        SLOs tight enough that every column moves; the two lines naming
        the export paths are left out of the comparison. A fixture is
        this command's stdout without those two lines.
        """
        assert main(
            ["metrics", "--mode", mode, "--model", "opt-1.3b",
             "--rate", "8.0", "--requests", "40", "--window", "4",
             "--interval", "2", "--ttft", "0.015", "--tpot", "0.0105",
             "--prom-out", str(tmp_path / "m.prom"),
             "--json-out", str(tmp_path / "m.json")]
        ) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        printed = "".join(l for l in lines if " written to " not in l)
        assert printed == (GOLDEN_DIR / f"metrics_{mode}.txt").read_text()

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
        assert report["schema"] == "repro-profile/2"
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

    @pytest.mark.parametrize("report", [
        {"schema": "something-else"},
        [],
        PROFILE_SCHEMA,
        {"schema": PROFILE_SCHEMA, "per_request": 5, "meta": {}},
    ], ids=["wrong-schema", "list", "string", "malformed-profile"])
    def test_profile_diff_rejects_non_profile_json(self, capsys, tmp_path, report):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps(report))
        assert main(
            ["profile", "--diff", str(bogus), str(bogus)]
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("repro profile: bad report: ")
        assert err.count("\n") == 1  # one line, no traceback


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

    @pytest.mark.parametrize("argv", [
        "serve --rate 0", "serve --requests -5", "serve --requests 0",
        "serve --seed -1", "serve --model nope", "serve --dataset nope",
        "serve --num-prefill 0", "serve --prefill-tp 3",
        "metrics --ttft -1", "metrics --window 0", "metrics --interval 0",
        "trace --rate nan", "trace --mode colocated --batch-policy chunked",
        "plan --model nope", "plan --application nope", "plan --traffic -1",
    ], ids=lambda argv: argv.replace(" --", "-").replace(" ", "-"))
    def test_bad_flag_value_is_usage_error(self, argv, capsys, tmp_path):
        """A value the library rejects exits 2 with one line, no traceback."""
        out = ["--out", str(tmp_path / "t.json")] if argv.startswith("trace") else []
        assert main(argv.split() + out) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"repro {argv.split()[0]}: ")
        assert err.count("\n") == 1

    def test_lint_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == EXIT_USAGE
        assert "invalid choice: 'lint'" in capsys.readouterr().err
