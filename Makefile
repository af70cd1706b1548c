# Convenience entry points; all targets honor MPA_SCALE / MPA_SEED /
# MPA_JOBS / MPA_TELEMETRY (see README.md).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-check coverage smoke migrate-smoke serve-smoke whatif-smoke fuzz lint selfcheck chaos

# tier-1 test suite
test:
	$(PYTHON) -m pytest -x -q

# tier-1 suite with line coverage over src/repro; prefers pytest-cov
# (writes coverage.xml) and falls back to the dependency-free tracer in
# tools/linecov.py when pytest-cov is not installed
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q --cov=repro --cov-report=term --cov-report=xml; \
	else \
		echo "pytest-cov not installed; using tools/linecov.py"; \
		$(PYTHON) tools/linecov.py -q; \
	fi

# static checks (config in pyproject.toml [tool.ruff])
lint:
	ruff check src tests benchmarks examples tools

# parser fuzz pass with a pinned seed (CI runs this; override
# MPA_FUZZ_SEED to explore other corners)
fuzz:
	MPA_FUZZ_SEED=20240806 $(PYTHON) -m pytest tests/test_confparse_fuzz.py -q

# statistical self-validation: estimator invariants + planted-truth
# recovery scorecard; exits nonzero on any failure or regression
selfcheck:
	MPA_SCALE=$${MPA_SCALE:-small} $(PYTHON) -m repro.cli selfcheck

# every paper benchmark once: output pins vs benchmarks/baseline.json
# plus each bench's paper claims (see `mpa bench --help` and DESIGN.md);
# exits nonzero on drift, a raised bench, a failed claim or a missing pin
bench:
	$(PYTHON) -m repro.cli bench

# the CI subset of `bench`: pins and claims of the runtime smoke and the
# serve load bench
bench-check:
	$(PYTHON) -m repro.cli bench --filter runtime_smoke --filter serve_load

# kill-resume chaos harness: SIGKILL the streaming ingester at
# randomized WAL offsets / fault points, recover, and require the
# recovered artifacts to be bit-identical to an uninterrupted run.
# Bounded and deterministic (fixed seed); the JSONL recovery log is the
# artifact CI uploads when an iteration fails.
chaos:
	$(PYTHON) -m repro.stream.chaos --iterations 5 --seed 7 \
		--log chaos-recovery.jsonl

# parallel-runtime smoke: the bench-check subset under MPA_JOBS=2 (a
# tiny workspace built with two workers must equal the serial build),
# then the fused single-pass build with cold and hot content memos
# (must agree bit-for-bit with the stage-cached build)
smoke:
	MPA_JOBS=2 $(PYTHON) -m repro.cli bench --filter runtime_smoke --filter serve_load
	$(PYTHON) tools/fused_smoke.py

# legacy .npz -> columnar store round trip: the migrated store must be
# byte-identical (dataset digest and manifest digest) to a direct build
migrate-smoke:
	$(PYTHON) tools/migrate_smoke.py

# boot the real `mpa serve` subprocess on an ephemeral port, hit every
# endpoint (200 + schema), require a cached repeat and a typed 400,
# then SIGTERM and require a clean exit with the final stats table
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

# counterfactual what-if CLI end to end: attribution + scenario modes
# answer, unknown inputs exit 2 with a typed diagnostic, and the warm
# run stays inside a generous latency budget
whatif-smoke:
	$(PYTHON) tools/whatif_smoke.py
