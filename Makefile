PYTHON ?= python

.PHONY: install test lint chaos serve bench bench-fast perf profile examples suite table3 trace clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Invariant linter (docs/static-analysis.md).  Also runs inside tier-1
# via tests/test_lint_rules.py; this target is the fast direct path and
# leaves a machine-readable findings file for CI artifacts.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.cli.lint_cli src/repro examples \
		--output lint_findings.json

# Resilience suite (docs/resilience.md): checkpoint/resume bit-equality
# plus the fault-injection chaos tests (induced exceptions with resume,
# delays, wall-clock budget exhaustion).
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_resilience.py tests/test_chaos.py -q

# Serving-layer smoke (docs/serving.md): replay a deterministic load
# through the routing service and fail unless every fingerprint matches
# its sequential run, zero requests fail, and the warm cache hits.
serve:
	PYTHONPATH=src $(PYTHON) -m repro.cli.serve_cli \
		--cases case02,case05 --requests 12 --concurrency 3 --seed 2025 \
		--report serve_report.json --trace-out serve_trace.jsonl --check

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Quick benchmark pass on the small cases only.
bench-fast:
	REPRO_BENCH_CASES=case01,case02,case03,case04,case05 \
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f > /dev/null || exit 1; done
	@echo "all examples ran cleanly"

# Performance gate: runtime budgets, the phase II pipeline speedup
# benchmark and the case10 ECO migrate timings (docs/performance.md).
# Fresh trajectories land in bench_out/
# and the perf-regression sentinel compares them against the committed
# baselines (docs/observability.md) — the gate fails on a statistically
# meaningful slowdown, not on machine noise.
perf:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_performance_guards.py -q
	REPRO_BENCH_OUT=bench_out REPRO_BENCH_BASELINE=. \
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_phase2.py --benchmark-only -q
	PYTHONPATH=src $(PYTHON) -m repro.cli.perf_cli BENCH_phase2.json \
		bench_out/BENCH_phase2.json --output bench_out/PERF_SENTINEL_phase2.json
	REPRO_BENCH_OUT=bench_out REPRO_BENCH_BASELINE=. \
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/bench_eco.py::test_eco_migrate_wall_time --benchmark-only -q
	PYTHONPATH=src $(PYTHON) -m repro.cli.perf_cli BENCH_eco.json \
		bench_out/BENCH_eco.json --output bench_out/PERF_SENTINEL_eco.json

# Profile a full case05 run: trace it, print the self-time attribution
# table and critical path, and export a Chrome flamegraph
# (chrome://tracing) from the same trace (docs/observability.md).
profile:
	PYTHONPATH=src $(PYTHON) -m repro.cli.main --contest-case 5 \
		--trace-out trace.jsonl --metrics-out run_report.json --quiet
	PYTHONPATH=src $(PYTHON) -m repro.cli.trace_cli trace.jsonl \
		--critical-path --export chrome --out trace_chrome.json

# Table III sweep only.
table3:
	$(PYTHON) -m pytest benchmarks/bench_table3_comparison.py --benchmark-only

# Route a small generated case with full instrumentation on, then
# schema-validate the run report (docs/observability.md).
trace:
	PYTHONPATH=src $(PYTHON) -m repro.cli.main --contest-case 2 \
		--trace-out trace.jsonl --metrics-out run_report.json --log-level info
	PYTHONPATH=src $(PYTHON) -c "\
	import json; \
	from repro.obs import assert_valid_run_report, read_jsonl; \
	assert_valid_run_report(json.load(open('run_report.json'))); \
	events = read_jsonl('trace.jsonl'); \
	assert {e['type'] for e in events} >= {'span', 'counter', 'event'}, 'trace incomplete'; \
	print(f'run report schema OK; {len(events)} trace events')"

clean:
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info bench_out
	rm -f trace.jsonl run_report.json lint_findings.json
	rm -f trace_chrome.json PERF_SENTINEL.json
	rm -f serve_report.json serve_trace.jsonl
	find . -maxdepth 1 -name 'BENCH_*.json' ! -name BENCH_phase2.json \
		! -name BENCH_serve.json ! -name BENCH_eco.json -delete
	find . -name __pycache__ -type d -exec rm -rf {} +
