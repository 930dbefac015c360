# Developer entry points for the privacy-aware LBS reproduction.

.PHONY: install test test-explore conformance bench bench-pipeline bench-pipeline-smoke bench-pair test-crash serve-smoke examples experiments report clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/ -q

# `make test` replays the same hypothesis examples every run (the tier1
# profile in tests/conftest.py).  This target draws fresh random ones;
# commit any failure it prints back as an @example on the failing test.
test-explore:
	pytest tests/property tests/crash/test_prop_recovery.py tests/unit/test_private_nn.py tests/unit/test_public_candidates.py -q --hypothesis-profile=explore

# The four micro-gates (benchmarks/): batch >= 2x sequential, bulk cloak
# >= 3x per-user, checkpointed recovery beats cold replay, monitoring
# overhead < 5%.  Each writes its BENCH_<name>.json at the repo root.
bench:
	pytest benchmarks -q

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
