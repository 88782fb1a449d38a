"""Smoke tests keeping the fast example scripts runnable.

Every script but the two placement searches is imported and run here,
so documentation code cannot rot. ``placement_planner.py`` and
``replanning_demo.py`` take about 20 s each; they run in ``make
examples``, which runs all nine scripts and which CI's ``examples`` job
calls.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "api_frontend.py",
    "cost_analysis.py",
    "fault_injection.py",
    "burstiness_pull_vs_push.py",
    "queueing_analysis.py",
    "summarization_vs_chatbot.py",
]


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_directory_complete(self):
        scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        # The README's example table and the quickstart must exist.
        for required in (
            "quickstart.py",
            "placement_planner.py",
            "summarization_vs_chatbot.py",
            "queueing_analysis.py",
            "replanning_demo.py",
            "burstiness_pull_vs_push.py",
            "api_frontend.py",
            "fault_injection.py",
            "cost_analysis.py",
        ):
            assert required in scripts, required

    @pytest.mark.parametrize("name", FAST_EXAMPLES)
    def test_fast_example_runs(self, name, capsys):
        module = load_example(name)
        module.main()
        out = capsys.readouterr().out
        assert out.strip(), f"{name} produced no output"

    def test_quickstart_reports_attainment(self, capsys):
        load_example("quickstart.py").main()
        out = capsys.readouterr().out
        assert "SLO attainment" in out
        assert "TTFT" in out and "TPOT" in out

    def test_fault_injection_shows_propagation(self, capsys):
        load_example("fault_injection.py").main()
        out = capsys.readouterr().out
        assert "kill decode" in out and "kill prefill" in out
