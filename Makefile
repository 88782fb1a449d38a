.PHONY: install test sanitize-demo trace-demo metrics-demo profile-demo golden-regen bench bench-search perf-check examples clean

install:
	pip install -e . --no-build-isolation

# Matches the tier-1 verify command: works on a fresh checkout without
# an editable install.
test:
	PYTHONPATH=src python -m pytest -x -q

# Golden scenario under full runtime invariant checking: virtual-time
# monotonicity, request conservation, KV-leak and transfer double-free
# detection. Must report "SimSanitizer: 0 violations".
sanitize-demo:
	PYTHONPATH=src python -m repro.cli trace --model opt-13b --rate 2.0 \
		--requests 100 --sanitize --out /tmp/trace_sanitized.json

trace-demo:
	PYTHONPATH=src python -m repro.cli trace --model opt-13b --rate 2.0 \
		--requests 100 --out /tmp/trace.json --jsonl-out /tmp/trace.jsonl

metrics-demo:
	PYTHONPATH=src python -m repro.cli metrics --model opt-13b --rate 3.0 \
		--requests 300 --prom-out /tmp/metrics.prom --json-out /tmp/metrics.json

# Critical-path profile with goodput attribution (DESIGN §4g); writes
# the canonical JSON and a self-contained HTML report to /tmp.
profile-demo:
	PYTHONPATH=src python -m repro.cli profile --model opt-13b --rate 4.0 \
		--requests 100 --ttft 4.0 --tpot 0.2 \
		--json-out /tmp/profile.json --html-out /tmp/profile.html

golden-regen:
	PYTHONPATH=src python -m tests.test_golden_trace --regen
	PYTHONPATH=src python -m tests.test_critpath --regen

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

# Search-acceleration benchmark: naive vs cached/pruned/parallel
# placement search; writes BENCH_search.json at the repo root.
bench-search:
	PYTHONPATH=src python benchmarks/bench_fig12_algorithm_time.py

# perfbench's exact outputs at seed 1 (completed_frac, sim_* values and
# per-layer counts) against the committed BENCH_perf.json, for every
# workload BENCHMARK.json declares. Regenerate one workload's entry with
# `python3 benchmarks/check_perf.py --workload W --write`.
perf-check:
	status=0; for w in $$(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])'); do \
		python3 benchmarks/check_perf.py --workload $$w || status=1; \
	done; exit $$status

# Every example script; the two placement searches take about 20 s each.
examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/api_frontend.py
	PYTHONPATH=src python examples/cost_analysis.py
	PYTHONPATH=src python examples/fault_injection.py
	PYTHONPATH=src python examples/burstiness_pull_vs_push.py
	PYTHONPATH=src python examples/queueing_analysis.py
	PYTHONPATH=src python examples/summarization_vs_chatbot.py
	PYTHONPATH=src python examples/placement_planner.py
	PYTHONPATH=src python examples/replanning_demo.py

clean:
	rm -rf build dist *.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
