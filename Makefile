# Developer entry points for the privacy-aware LBS reproduction.

.PHONY: install test test-explore conformance bench bench-pipeline bench-pipeline-smoke bench-pair bench-smoke bench-batch bench-cloak bench-planner bench-obs-loop bench-recovery bench-history test-crash serve-smoke examples experiments report clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/ -q

# `make test` replays the same hypothesis examples every run (the tier1
# profile in tests/conftest.py).  This target draws fresh random ones;
# commit any failure it prints back as an @example on the failing test.
test-explore:
	pytest tests/property tests/crash/test_prop_recovery.py tests/unit/test_private_nn.py -q --hypothesis-profile=explore

bench:
	pytest benchmarks/ --benchmark-only -q

bench-smoke:
	pytest benchmarks -q -k smoke

# The one measured pipeline (bench/README.md): every workload of
# BENCHMARK.json, untraced then traced; the smoke form runs the harness's
# own tests and all workloads at 1/10 size.
bench-pipeline:
	python3 bench/run.py --all

bench-pipeline-smoke:
	pytest bench -q && python3 bench/run.py --smoke

# Alternating parent/change pairs of each named workload, from clean copies of
# both trees (tools/bench_pair.py): per metric both medians, quartiles,
# pairs won, the BENCHMARK.json bound and the spread rule.  ~1.5 min per pair.
#   make bench-pair WORKLOADS=scalar_churn_10k,query_mix_10k PARENT=HEAD~1 PAIRS=10
WORKLOADS ?= scalar_churn_10k
PARENT ?= HEAD
PAIRS ?= 10
bench-pair:
	python3 tools/bench_pair.py $(PARENT) --workloads $(WORKLOADS) --pairs $(PAIRS)

bench-batch:
	pytest benchmarks -q -k bench_batch

bench-cloak:
	pytest benchmarks -q -k bench_cloak

bench-planner:
	pytest benchmarks -q -k bench_planner

# Full observability feedback loop: smoke stages + planned-query loop,
# SLO evaluation and profiler overhead, folded into BENCH_obs.json with
# accuracy/health/profile sections.
bench-obs-loop:
	pytest benchmarks -q -k bench_obs

# Telemetry endpoint smoke: boots a monitored workload, scrapes
# /metrics /health /risk /timeseries over a real socket and validates
# every response (exposition format, schema tags, health verdict).
serve-smoke:
	python -m repro serve-metrics --smoke --users 60 --queries 5

# Crash-injection durability suite: torn WAL tails, partial checkpoints,
# hypothesis-generated workloads proving recover(checkpoint, log) lands
# on the uncrashed system.
test-crash:
	pytest tests/crash -q

# Durability benchmark: checkpoint write throughput plus checkpointed vs
# cold-replay recovery wall-time at 10k users, gated (checkpointed must
# beat cold) and folded into BENCH_recovery.json / BENCH_HISTORY.jsonl.
bench-recovery:
	pytest benchmarks -q -k bench_recovery

# Selftest pins 30%-drop detection at the default 25% gate; the real
# trajectory runs with a looser gate because CI runners and dev machines
# legitimately differ in raw speed.
bench-history:
	python -m repro bench-history --selftest
	python -m repro bench-history --gate 0.5

conformance:
	pytest tests/conformance -q

examples:
	for f in examples/*.py; do python $$f; done

experiments:
	python -m repro experiments all

report:
	python -m repro report -o experiment_tables.md

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
