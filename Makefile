# Single entry points for the checks CI runs (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-static determinism sanitize chaos test parity bench-smoke perfbench-smoke perfbench-full perfbench-pairs serve-smoke slo profile telemetry examples footprint loc check

lint:  ## static analysis: per-file rules R001-R008 over the shipped tree
	$(PYTHON) -m repro.lint src/repro benchmarks

lint-static:  ## whole-program passes R009-R012, gated on lint-baseline.json
	$(PYTHON) -m repro.lint --static --graph \
		--baseline lint-baseline.json \
		--sarif lint.sarif --shared-state shared_state.json \
		src/repro benchmarks

determinism:  ## two-run same-seed telemetry- and result-digest determinism smoke
	$(PYTHON) -m repro.lint --determinism --queries 2

sanitize:  ## end-to-end run with runtime invariant checks
	$(PYTHON) -m repro run --scheme bohr --workload bigdata-aggregation \
		--queries 2 --sanitize

chaos:  ## fault-injected run (sanitized) + chaos determinism smoke
	$(PYTHON) -m repro run --scheme bohr --workload bigdata-aggregation \
		--queries 2 --chaos flaky-wan --sanitize
	$(PYTHON) -m repro.lint --determinism --queries 2 --chaos havoc

test:  ## tier-1 test suite
	$(PYTHON) -m pytest -x -q

parity:  ## scalar/columnar hot-path parity suite (bit-identity oracle)
	$(PYTHON) -m pytest -q tests/engine/test_columnar_parity.py \
		tests/similarity/test_columnar_parity.py \
		tests/placement/test_warm_start.py \
		tests/properties/test_placement_lp.py \
		tests/properties/test_obs_oracles.py \
		tests/properties/test_wan_session.py \
		tests/properties/test_wan_session_fills.py \
		tests/properties/test_wan_emission.py \
		tests/properties/test_batch_kernels.py \
		tests/workloads/test_generator_parity.py

bench-smoke:  ## smoke benchmarks vs the committed baseline (sim metrics; wall is never gated)
	$(PYTHON) -m repro bench --suite smoke --compare BENCH_7.json \
		--out bench_smoke.json

perfbench-smoke:  ## the driver's benchmark, quick: its tests, then all six workloads traced
	$(PYTHON) -m pytest perfbench/tests -q
	$(PYTHON) -m perfbench --quick --trace
	$(PYTHON) -c "import glob, json; \
		traces = sorted(glob.glob('perfbench/out/*.trace.json')); \
		assert len(traces) == 6, traces; \
		missing = {t: json.load(open(t))['metrics']['harness.missing_targets']['value'] for t in traces}; \
		assert not any(missing.values()), f'perfbench targets missing: {missing}'; \
		print(f'perfbench: {len(traces)} workloads traced, no missing target')"

perfbench-full:  ## the PR driver's own command, full size, every workload of BENCHMARK.json (~2.5 min; not in `check`)
	@set -e; \
	for w in $$($(PYTHON) -c "import json; print(*[w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']])"); do \
		out=$$(python3 perfbench/run.py --workload $$w --seed 11 --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$out" | tail -n 1 | $(PYTHON) -c "import json, sys; \
			result = json.loads(sys.stdin.read()); \
			assert result['correct'] is True and result['failed'] == 0, result; \
			print('perfbench-full: $$w correct, 0 failed of', result['attempted'], \
				'- wall_s', round(result['metrics']['wall_s']['value'], 3))"; \
	done

W ?= serve-contended
N ?= 10
BASE ?= HEAD~1
SEED ?= 11

perfbench-pairs:  ## N alternating BASE/checkout pairs of workload W: medians, quartiles, wins; fails on any incorrect run or sim_* drift
	python3 tools/perfbench_pairs.py --workload $(W) --pairs $(N) --base $(BASE) --seed $(SEED)

serve-smoke:  ## two same-seed serve runs: bit-identical sim + analyzer digests; a one-tenant run: SLO p50/p99 == serve p50/p99
	$(PYTHON) -m repro serve --tenants 3 --queries 12 --seed 11 \
		--cache-size 4 --json serve_a.json --hist serve_hist.json \
		--slo default=5 --slo-report serve_slo_a.json
	$(PYTHON) -m repro serve --tenants 3 --queries 12 --seed 11 \
		--cache-size 4 --json serve_b.json \
		--slo default=5 --slo-report serve_slo_b.json
	$(PYTHON) -c "import json; \
		a = json.load(open('serve_a.json'))['sim_digest']; \
		b = json.load(open('serve_b.json'))['sim_digest']; \
		assert a == b, f'serve sim digests diverged: {a} != {b}'; \
		ra = json.load(open('serve_slo_a.json')); \
		rb = json.load(open('serve_slo_b.json')); \
		ca, cb = ra['critpath']['digest'], rb['critpath']['digest']; \
		assert ca == cb, f'critpath digests diverged: {ca} != {cb}'; \
		sa, sb = ra['slo']['digest'], rb['slo']['digest']; \
		assert sa == sb, f'slo digests diverged: {sa} != {sb}'; \
		print(f'serve digests identical: {a[:16]}'); \
		print(f'critpath digest: {ca[:16]}  slo digest: {sa[:16]}')"
	$(PYTHON) -m repro serve --tenants 1 --queries 12 --seed 11 \
		--cache-size 0 --slo default=5 --slo-report serve_slo_one.json \
		--json serve_one.json
	$(PYTHON) -c "import json; \
		(row,) = json.load(open('serve_slo_one.json'))['slo']['tenants']; \
		serve = json.load(open('serve_one.json')); \
		slo, summary = (row['p50'], row['p99']), (serve['p50_qct'], serve['p99_qct']); \
		assert slo == summary, f'SLO p50/p99 {slo} != serve p50/p99 {summary}'; \
		print(f'one-tenant SLO p50/p99 equal the serve summary: {slo}')"

slo:  ## sanitized serve run with SLO tracking (critpath conservation armed)
	$(PYTHON) -m repro serve --tenants 3 --queries 12 --seed 11 \
		--cache-size 4 --slo default=5 --sanitize

profile:  ## smoke benchmarks under the wall profiler (collapsed stacks)
	$(PYTHON) -m repro bench --suite smoke --profile \
		--profile-out bench.collapsed

telemetry:  ## sanitized chaos run and static-WAN serve run with telemetry capture (critpath-conservation armed); load-then-write and the reference writer are byte-identical on both; inspect, Chrome trace + dashboard off the chaos archive
	$(PYTHON) -m repro run --scheme bohr --workload bigdata-aggregation \
		--queries 3 --chaos flaky-wan --telemetry telemetry.jsonl --sanitize
	$(PYTHON) -m repro serve --tenants 3 --queries 12 --seed 11 \
		--cache-size 4 --telemetry telemetry.serve.jsonl
	@for archive in telemetry telemetry.serve; do \
		$(PYTHON) -c "from repro.obs.telemetry import load_jsonl, write_jsonl; \
			write_jsonl(load_jsonl('$$archive.jsonl')[1], '$$archive.rewritten.jsonl')" && \
		cmp $$archive.jsonl $$archive.rewritten.jsonl && \
		$(PYTHON) -c "from repro.obs.telemetry import load_jsonl; \
			from tests.obs.reference_export import reference_write_jsonl; \
			reference_write_jsonl(load_jsonl('$$archive.jsonl')[1], '$$archive.reference.jsonl')" && \
		cmp $$archive.jsonl $$archive.reference.jsonl && \
		echo "$$archive.jsonl: load-then-write and the reference writer are byte-identical" || exit 1; \
	done
	$(PYTHON) -m repro inspect telemetry.jsonl --chrome trace.json
	$(PYTHON) -c "import json; from repro.obs.export import validate_chrome_events; \
		events = json.load(open('trace.json'))['traceEvents']; \
		validate_chrome_events(events); \
		faults = [event for event in events if event.get('cat') == 'fault']; \
		assert faults, 'no fault windows in the Chrome trace'; \
		print(f'Chrome trace OK: {len(events)} events, {len(faults)} fault windows')"
	$(PYTHON) -m repro report telemetry.jsonl --out report.html

examples:  ## run every script under examples/; fails on the first non-zero exit (~6 s)
	@set -e; for script in examples/*.py; do \
		echo "examples: $$script"; $(PYTHON) $$script > /dev/null; \
	done

footprint:  ## peak RSS, wall time and scipy modules of `repro run --scheme bohr --queries 6` in a fresh process, and the modules and source lines a cold `import repro.cli` loads; fails if scipy.optimize was imported
	$(PYTHON) tools/footprint.py --queries 6

loc:  ## src/repro line counts, per package and in total (the numbers ROADMAP and CHANGES quote)
	@for package in $$(find src/repro -mindepth 1 -maxdepth 1 -type d ! -name __pycache__ | sort) src/repro; do \
		find $$package -name '*.py' | xargs wc -l | tail -n 1 | awk -v p=$$package '{printf "%6d %s\n", $$1, p}'; \
	done

check: lint lint-static determinism sanitize chaos test parity bench-smoke perfbench-smoke serve-smoke slo telemetry examples footprint  ## everything CI gates on
