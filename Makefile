.PHONY: install test lint lint-full sanitize-demo trace-demo metrics-demo profile-demo golden-regen bench bench-search bench-profile bench-kernel examples clean

install:
	pip install -e . --no-build-isolation

# Matches the tier-1 verify command: works on a fresh checkout without
# an editable install.
test:
	PYTHONPATH=src python -m pytest -x -q

# Determinism & simulation-invariant static analysis; exits non-zero on
# any finding. The tree is self-hosting: `src` and `tests` lint clean.
lint:
	PYTHONPATH=src python -m repro.cli lint src tests examples benchmarks

# Everything `lint` does plus the SARIF report the CI lint job uploads.
lint-full: lint
	PYTHONPATH=src python -m repro.cli lint --format sarif \
		src tests examples benchmarks > reprolint.sarif

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
	pytest benchmarks/ --benchmark-only

# Search-acceleration benchmark: naive vs cached/pruned/parallel
# placement search; writes BENCH_search.json at the repo root.
bench-search:
	PYTHONPATH=src python benchmarks/bench_fig12_algorithm_time.py

# Profiler hook-overhead benchmark: bare vs traced vs traced+profiled;
# enforces the <5% per-event budget and writes BENCH_profile.json.
bench-profile:
	PYTHONPATH=src python benchmarks/bench_profile_overhead.py

# Fast-forward kernel benchmark (DESIGN.md §4h): macro-stepped decode +
# memoized batch latency vs the per-step reference; writes
# BENCH_kernel.json at the repo root with bitwise-parity witnesses.
bench-kernel:
	PYTHONPATH=src python benchmarks/bench_kernel.py

examples:
	python examples/quickstart.py
	python examples/api_frontend.py
	python examples/cost_analysis.py
	python examples/fault_injection.py
	python examples/burstiness_pull_vs_push.py
	python examples/queueing_analysis.py

clean:
	rm -rf build dist *.egg-info .pytest_cache .hypothesis reprolint.sarif
	find . -name __pycache__ -type d -exec rm -rf {} +
